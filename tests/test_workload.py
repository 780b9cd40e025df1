import hashlib
import math
from collections import Counter

from capsim.workload import (
    Arrival,
    PolicyTemplate,
    RegionWorkload,
    TokenDist,
    fnv1a32,
    generate_arrivals,
    generate_region_arrivals,
)
from capsim.descriptors import PolicyConstraint

# 99.9th percentile of the chi-square distribution, frozen per degrees of freedom.
CHI2_999 = {7: 24.322, 9: 27.877}


def region(rate=50.0, zipf_s=0.0, classes=("c0", "c1", "c2", "c3", "c4", "c5", "c6", "c7"), g=1.0, prefix=0, name="east"):
    return RegionWorkload(
        region=name,
        rate_per_s=rate,
        zipf_s=zipf_s,
        classes=tuple(classes),
        session_turns_g=g,
        session_prefix_tokens=prefix,
        input_tokens=TokenDist(dist="fixed", value=32),
        output_tokens=TokenDist(dist="fixed", value=8),
        policy_mix=(PolicyTemplate(weight=1.0, policy=PolicyConstraint()),),
    )


def test_poisson_count_within_four_sigma():
    duration_us = 60_000_000
    for seed in (1, 2, 3, 4, 5):
        arrivals = generate_region_arrivals(region(rate=50.0), duration_us, seed)
        expected = 50.0 * 60
        bound = 4 * math.sqrt(expected)
        assert abs(len(arrivals) - expected) <= bound, (seed, len(arrivals))


def test_uniform_class_frequencies_pass_chi_square():
    # Zipf exponent 0 must look uniform at desk scale: 10^4 samples, 8 classes.
    for seed in (11, 12, 13, 14, 15):
        arrivals = generate_region_arrivals(region(rate=100.0), 100_000_000, seed)
        assert len(arrivals) >= 9_000
        counts = Counter(a.request.capability_class for a in arrivals)
        n = len(arrivals)
        expected = n / 8
        stat = sum((counts.get(f"c{i}", 0) - expected) ** 2 / expected for i in range(8))
        assert stat < CHI2_999[7], (seed, stat)


def test_zipf_skew_orders_class_popularity():
    arrivals = generate_region_arrivals(region(rate=100.0, zipf_s=1.2, classes=("a", "b", "c")), 60_000_000, 9)
    counts = Counter(a.request.capability_class for a in arrivals)
    assert counts["a"] > counts["b"] > counts["c"]


def test_single_turn_sessions_when_g_is_one():
    arrivals = generate_region_arrivals(region(g=1.0), 10_000_000, 7)
    assert all(a.total_turns == 1 and a.turn_index == 1 for a in arrivals)


def test_session_turns_share_id_and_prefix_token():
    arrivals = generate_region_arrivals(region(rate=20.0, g=0.4, prefix=64), 30_000_000, 7)
    by_session: dict[str, list[Arrival]] = {}
    for a in arrivals:
        by_session.setdefault(a.session_id, []).append(a)
    multi = [turns for turns in by_session.values() if len(turns) > 1]
    assert multi, "expected at least one multi-turn session"
    for turns in by_session.values():
        tokens = {t.request.affinity_token for t in turns}
        assert len(tokens) == 1 and None not in tokens
        assert [t.turn_index for t in turns] == list(range(1, len(turns) + 1))
        for t in turns:
            assert t.request.input_tokens > t.prefix_tokens == 64


def test_mean_session_length_tracks_geometric_parameter():
    arrivals = generate_region_arrivals(region(rate=100.0, g=0.25), 100_000_000, 3)
    sessions = {a.session_id: a.total_turns for a in arrivals}
    mean = sum(sessions.values()) / len(sessions)
    assert 3.5 < mean < 4.5  # 1/g = 4


def test_arrival_times_strictly_increase_per_region():
    arrivals = generate_region_arrivals(region(rate=500.0), 5_000_000, 13)
    times = [a.request.arrival_time for a in arrivals]
    assert all(t1 < t2 for t1, t2 in zip(times, times[1:]))


def test_regions_use_independent_substreams():
    east = generate_region_arrivals(region(name="east"), 10_000_000, 5)
    west = generate_region_arrivals(region(name="west"), 10_000_000, 5)
    assert [a.request.arrival_time for a in east] != [a.request.arrival_time for a in west]
    assert fnv1a32("east") != fnv1a32("west")


def test_generation_is_deterministic():
    regions = (region(name="east"), region(name="west", rate=20.0))
    a = generate_arrivals(regions, 20_000_000, 42)
    b = generate_arrivals(regions, 20_000_000, 42)
    assert [x.request for x in a] == [x.request for x in b]
    c = generate_arrivals(regions, 20_000_000, 43)
    assert [x.request for x in a] != [x.request for x in c]


def test_merged_stream_sorted_by_time():
    regions = (region(name="east"), region(name="west", rate=80.0))
    merged = generate_arrivals(regions, 20_000_000, 42)
    times = [a.request.arrival_time for a in merged]
    assert times == sorted(times)


def test_zero_rate_region_generates_nothing():
    assert generate_region_arrivals(region(rate=0.0), 10_000_000, 1) == []


def test_a_region_stream_is_pinned_draw_for_draw():
    # Every field of every arrival, for a region that draws all it can: a
    # Zipf class, one of two policy templates, geometric turns, and
    # lognormal input and output tokens. Reordering any two draws moves it.
    spec = RegionWorkload(
        region="east", rate_per_s=40.0, zipf_s=1.0, classes=("a", "b", "c"), session_turns_g=0.5,
        session_prefix_tokens=16,
        input_tokens=TokenDist(dist="lognormal", mu=4.0, sigma=0.5),
        output_tokens=TokenDist(dist="lognormal", mu=3.0, sigma=0.8),
        policy_mix=(
            PolicyTemplate(weight=2.0, policy=PolicyConstraint()),
            PolicyTemplate(weight=1.0, policy=PolicyConstraint(min_trust=1), quality_target=2, budget=900,
                           degradable=True),
        ),
    )
    arrivals = generate_arrivals((spec,), 5_000_000, 3)
    # One region's stream comes as generated, already in merged order.
    assert [a.request for a in arrivals] == [a.request for a in generate_region_arrivals(spec, 5_000_000, 3)]
    lines = []
    for a in arrivals:
        r = a.request
        lines.append(repr((r.request_id, r.capability_class, r.quality_target, r.policy.min_trust, r.affinity_token,
                           r.budget, r.origin_region, r.input_tokens, r.output_tokens, r.arrival_time, r.degradable,
                           a.session_id, a.turn_index, a.total_turns, a.prefix_tokens)))
    assert len(arrivals) == 219
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    assert digest == "12d05ad6c63b51c919daad68acf90dab17fbf4a6a6dd119af46bbeb620e573c8"
