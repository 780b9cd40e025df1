import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from capsim.topology import Link, Topology, Unreachable
from conftest import make_profile, make_topology


def chain_topology():
    profiles = [make_profile(n) for n in ("edge-1", "regional-1", "cloud-1")]
    links = [
        Link("l1", "edge-1", "regional-1", 2000, Fraction(1000)),
        Link("l2", "regional-1", "cloud-1", 8000, Fraction(500), is_core=True),
    ]
    return make_topology(profiles, links)


def diamond_topology():
    profiles = [make_profile(n) for n in ("a", "b", "c", "d")]
    links = [
        Link("l-ab", "a", "b", 2000, Fraction(100)),
        Link("l-ac", "a", "c", 3000, Fraction(100)),
        Link("l-bd", "b", "d", 3000, Fraction(100)),
        Link("l-cd", "c", "d", 4000, Fraction(100)),
    ]
    return make_topology(profiles, links)


def test_path_to_self_is_empty():
    topo = chain_topology()
    assert topo.path("edge-1", "edge-1") == ()
    assert topo.transfer_between("edge-1", "edge-1", 10_000) == (0, 0)


def test_chain_path_delay_sums():
    topo = chain_topology()
    path = topo.path("edge-1", "cloud-1")
    assert [l.link_id for l in path] == ["l1", "l2"]
    assert topo.path_delay_us(path) == 10_000


def test_diamond_takes_cheaper_branch():
    topo = diamond_topology()
    # Exhaustive enumeration over the 4-node instance: a-b-d costs 5000,
    # a-c-d costs 7000; Dijkstra must return the 5000 branch.
    best = min(
        (2000 + 3000, ("l-ab", "l-bd")),
        (3000 + 4000, ("l-ac", "l-cd")),
    )
    path = topo.path("a", "d")
    assert tuple(l.link_id for l in path) == best[1]
    assert topo.path_delay_us(path) == best[0]


def test_equal_delay_ties_break_on_link_ids():
    profiles = [make_profile(n) for n in ("a", "b", "c", "d")]
    links = [
        Link("l-az", "a", "b", 1000, Fraction(100)),
        Link("l-aa", "a", "c", 1000, Fraction(100)),
        Link("l-bd", "b", "d", 1000, Fraction(100)),
        Link("l-cd", "c", "d", 1000, Fraction(100)),
    ]
    topo = make_topology(profiles, links)
    path = topo.path("a", "d")
    assert tuple(l.link_id for l in path) == ("l-aa", "l-cd")


def test_unreachable_raises():
    profiles = [make_profile("a"), make_profile("b")]
    topo = make_topology(profiles, [])
    with pytest.raises(Unreachable):
        topo.path("a", "b")


def test_unreachable_route_is_searched_once():
    profiles = [make_profile("a"), make_profile("b")]
    topo = make_topology(profiles, [])
    searches = []
    path = topo.path

    def counting_path(src, dst):
        searches.append((src, dst))
        return path(src, dst)

    topo.path = counting_path
    for _ in range(2):
        with pytest.raises(Unreachable):
            topo.transfer_between("a", "b", 100)
    assert searches == [("a", "b")]


def test_transfer_time_arithmetic():
    topo = chain_topology()
    # 10000 us propagation, bottleneck 500 bytes/us, ceil rounding.
    assert topo.transfer_between("edge-1", "cloud-1", 0)[0] == 10_000
    assert topo.transfer_between("edge-1", "cloud-1", 50_000)[0] == 10_000 + 100
    assert topo.transfer_between("edge-1", "cloud-1", 50_001)[0] == 10_000 + 101


def test_stated_transfer_example():
    profiles = [make_profile("x"), make_profile("y")]
    links = [Link("l", "x", "y", 10_000, Fraction(100))]
    topo = make_topology(profiles, links)
    assert topo.transfer_between("x", "y", 50_000)[0] == 10_500


def test_core_bytes_accounting():
    topo = chain_topology()
    assert topo.transfer_between("edge-1", "cloud-1", 1 << 20)[1] == 1 << 20  # one core link
    assert topo.transfer_between("edge-1", "regional-1", 1 << 20)[1] == 0
    # Additivity over repeated transfers.
    total = sum(topo.transfer_between("edge-1", "cloud-1", 1 << 20)[1] for _ in range(2))
    assert total == 2 << 20


def test_transfer_monotone_in_payload():
    topo = diamond_topology()
    previous = -1
    for payload in range(0, 5000, 37):
        t, _ = topo.transfer_between("a", "d", payload)
        assert t >= previous
        previous = t


def _random_topology(rng: random.Random, n_nodes: int):
    profiles = [make_profile(f"n{i}") for i in range(n_nodes)]
    links = []
    # Random connected graph: spanning chain plus extras.
    for i in range(1, n_nodes):
        links.append(Link(f"l-chain-{i}", f"n{i-1}", f"n{i}", rng.randint(1, 5000), Fraction(rng.randint(50, 500))))
    for k in range(rng.randint(0, n_nodes)):
        a, b = rng.sample(range(n_nodes), 2)
        links.append(Link(f"l-x{k}", f"n{a}", f"n{b}", rng.randint(1, 5000), Fraction(rng.randint(50, 500))))
    return make_topology(profiles, links), links


def test_path_delay_symmetric_on_random_graphs():
    rng = random.Random(42)
    for _ in range(25):
        topo, _ = _random_topology(rng, rng.randint(2, 6))
        nodes = sorted(topo.nodes)
        for a, b in itertools.combinations(nodes, 2):
            assert topo.path_delay_us(topo.path(a, b)) == topo.path_delay_us(topo.path(b, a))


def test_removing_off_path_link_keeps_selection():
    rng = random.Random(99)
    for _ in range(25):
        topo, links = _random_topology(rng, rng.randint(3, 6))
        nodes = sorted(topo.nodes)
        a, b = nodes[0], nodes[-1]
        chosen = topo.path(a, b)
        chosen_ids = {l.link_id for l in chosen}
        spare = [l for l in links if l.link_id not in chosen_ids]
        if not spare:
            continue
        removed = spare[0]
        thinner = make_topology([make_profile(n) for n in nodes], [l for l in links if l.link_id != removed.link_id])
        assert tuple(l.link_id for l in thinner.path(a, b)) == tuple(l.link_id for l in chosen)


@st.composite
def small_graphs(draw):
    """Up to 6 vertices joined by up to 10 links (parallel links and loops
    included) with delays in {0, 1, 2} and short link ids over "ab", so equal
    delays are common and ids can be prefixes of one another."""
    vertices = [f"v{i}" for i in range(draw(st.integers(2, 6)))]
    ends = draw(st.lists(st.tuples(st.sampled_from(vertices), st.sampled_from(vertices)), max_size=10))
    ids = draw(st.lists(st.text("ab", min_size=1, max_size=3), min_size=len(ends), max_size=len(ends), unique=True))
    delays = draw(st.lists(st.sampled_from([0, 1, 2]), min_size=len(ends), max_size=len(ends)))
    links = [Link(link_id, a, b, delay) for link_id, (a, b), delay in zip(ids, ends, delays)]
    return vertices, links


def brute_force_path(links: list[Link], src: str, dst: str) -> tuple[int, tuple[str, ...]] | None:
    """(delay, link ids) of the least simple path by delay, then by link-id
    sequence, found by enumerating every simple path; None when there is none."""
    found = []

    def walk(vertex: str, visited: set[str], ids: tuple[str, ...], delay: int) -> None:
        if vertex == dst:
            found.append((delay, ids))
            return
        for link in links:
            if vertex in (link.src, link.dst):
                other = link.dst if link.src == vertex else link.src
                if other not in visited:
                    walk(other, visited | {other}, ids + (link.link_id,), delay + link.propagation_delay_us)

    walk(src, {src}, (), 0)
    return min(found, default=None)


@settings(max_examples=300, deadline=None)
@given(small_graphs())
def test_path_is_the_least_simple_path_by_delay_then_link_ids(graph):
    vertices, links = graph
    topo = Topology(nodes=vertices, domains=[], links=links)
    for src, dst in itertools.permutations(vertices, 2):
        expected = brute_force_path(links, src, dst)
        if expected is None:
            with pytest.raises(Unreachable):
                topo.path(src, dst)
        else:
            path = topo.path(src, dst)
            assert (topo.path_delay_us(path), tuple(l.link_id for l in path)) == expected


def path_or_unreachable(topo: Topology, src: str, dst: str) -> tuple[str, ...] | str:
    try:
        return tuple(l.link_id for l in topo.path(src, dst))
    except Unreachable:
        return "unreachable"


@settings(max_examples=300, deadline=None)
@given(small_graphs(), st.data())
def test_resumed_searches_find_the_paths_of_fresh_ones(graph, data):
    """A topology keeps each source's search and resumes it for a vertex not
    yet settled: every pair, queried in random order on one topology, gets
    the path a fresh topology gives it."""
    vertices, links = graph
    pairs = data.draw(st.permutations(list(itertools.product(vertices + ["elsewhere"], vertices))))
    shared = Topology(nodes=vertices, domains=[], links=links)
    for src, dst in pairs:
        fresh = Topology(nodes=vertices, domains=[], links=links)
        assert path_or_unreachable(shared, src, dst) == path_or_unreachable(fresh, src, dst)
