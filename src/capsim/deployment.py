"""Demand-driven capability placement: a constrained minimization solved per
planning epoch by greedy density ascent plus local search, with an exhaustive
enumerator as the small-instance oracle.

The candidate pairs are the broker's: for each demanded class, the pairs of
its candidate table (``Broker.table`` under the router's placement tiers) on
online nodes that may take the realization cold, so revocation, tier,
accelerator, trust floor and memory budget are the rule routing works under.
A pair whose artifact the repository cannot reach stays a candidate only
while resident, as routing runs it there only warm. The objective prices
expected service latency (``Router.idle_cost``: the J of each pair's warm
single-node plan on an idle, penalty-free node, read from the router's static
rows), activation and artifact-transfer costs for not-yet-resident
realizations, and a soft trust-risk count. Already-resident realizations
re-place at zero cost, so assignments whose demand has vanished drop out of
the solution and the replan diff schedules their eviction.

Every cost is an integer numerator: a latency over the router's scale
(``latency_den``), a deploy cost over the storage unit cost's denominator.
``PlacementProblem`` brings all to one common denominator, the lcm of four:
the router's scale, lambda's times the storage unit cost's, mu's and nu's.
Every solver evaluates the objective through one evaluator in exact integers;
greedy densities compare by cross-multiplying, so each choice is the one
exact rational arithmetic makes. ``objective`` returns the exact ``Fraction``.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from fractions import Fraction
from math import lcm

from .descriptors import PolicyConstraint, RequestDescriptor, bounded
from .routing import Router
from .topology import Unreachable

ENUMERATION_BOUND = 20


class InfeasiblePlacement(Exception):
    pass


class InstanceTooLarge(Exception):
    pass


@dataclass(slots=True, repr=False)
class DemandCell:
    """The arrivals of one (class, region, quality) in a demand window: their count and mean token sizes."""

    capability_class: str
    region: str
    quality: int
    count: int
    input_tokens: int
    output_tokens: int


@dataclass(slots=True, eq=False, repr=False)
class PlacementWeights:
    """The placement objective's weights: deploy, transfer and risk costs,
    the latency charged per unservable demand unit, and the storage carry
    per artifact byte."""

    lambda_deploy: Fraction = bounded(Fraction(1), 0)
    mu_net: Fraction = bounded(Fraction(1), 0)
    nu_risk: Fraction = bounded(Fraction(1), 0)
    p_miss_us: int = bounded(10_000_000, 0)
    storage_unit_cost: Fraction = bounded(Fraction(0), 0)


@dataclass(slots=True, eq=False, repr=False)
class PlacementPair:
    """A candidate assignment of a realization to a node: its memory and its fixed costs."""

    realization_id: str
    node_id: str
    memory_bytes: int          # m_c, counted against the node budget
    deploy_cost: int           # load time + storage carry, over the storage unit cost's denominator; 0 when resident
    net_cost_us: int           # artifact transfer from the repository, 0 when resident
    risk: int                  # 1 when node trust misses the soft preferred trust

    @property
    def key(self) -> tuple[str, str]:
        return (self.realization_id, self.node_id)


@dataclass(slots=True, eq=False, repr=False)
class PlacementProblem:
    """One replan's placement instance, and the integer view every solver evaluates."""

    cells: tuple[DemandCell, ...]
    pairs: tuple[PlacementPair, ...]
    node_budget: dict[str, int]
    weights: PlacementWeights
    # latency[i][j]: J of serving cell i on pair j against an idle substrate,
    # as a numerator over latency_den, or None when the pair cannot serve the cell.
    latency: list[list[int | None]]
    latency_den: int
    # The integer view every solver evaluates, as numerators over ``scale``:
    # scale: the lcm of latency_den, lambda's denominator times the storage
    #   unit cost's (the deploy costs'), mu's and nu's;
    # cell_options[i]: (count * latency, pair bit), ascending by (latency,
    #   pair index), so the first member of a placement met is the cell's
    #   cheapest plan; cell_miss[i]: count * p_miss_us;
    # fixed[j]: (pair bit, lambda*deploy + mu*net + nu*risk) of pair j;
    # pair_node[j]: index of pair j's node; node_pairs[n]: (pair bit, memory)
    #   of node n's pairs; budget[n]: node n's memory budget.
    scale: int = field(init=False)
    cell_options: list[tuple[tuple[int, int], ...]] = field(init=False)
    cell_miss: list[int] = field(init=False)
    fixed: tuple[tuple[int, int], ...] = field(init=False)
    pair_node: list[int] = field(init=False)
    node_pairs: list[tuple[tuple[int, int], ...]] = field(init=False)
    budget: list[int] = field(init=False)

    def __post_init__(self) -> None:
        w = self.weights
        lam, mu, nu = w.lambda_deploy, w.mu_net, w.nu_risk
        deploy_den = lam.denominator * w.storage_unit_cost.denominator
        scale = self.scale = lcm(self.latency_den, deploy_den, mu.denominator, nu.denominator)
        lam_m = lam.numerator * (scale // deploy_den)
        mu_m = mu.numerator * (scale // mu.denominator)
        nu_m = nu.numerator * (scale // nu.denominator)
        lat_m = scale // self.latency_den
        self.fixed = tuple(
            (1 << j, lam_m * p.deploy_cost + mu_m * p.net_cost_us + nu_m * p.risk) for j, p in enumerate(self.pairs)
        )
        self.cell_options = []
        self.cell_miss = []
        for cell, row in zip(self.cells, self.latency, strict=True):
            options = sorted((lat, j) for j, lat in enumerate(row) if lat is not None)
            self.cell_options.append(tuple((cell.count * lat_m * lat, 1 << j) for lat, j in options))
            self.cell_miss.append(cell.count * w.p_miss_us * scale)
        node_pairs: dict[str, list[tuple[int, int]]] = {}
        for j, p in enumerate(self.pairs):
            node_pairs.setdefault(p.node_id, []).append((1 << j, p.memory_bytes))
        node_index = {node_id: n for n, node_id in enumerate(node_pairs)}
        self.pair_node = [node_index[p.node_id] for p in self.pairs]
        self.node_pairs = [tuple(members) for members in node_pairs.values()]
        self.budget = [self.node_budget.get(node_id, 0) for node_id in node_pairs]

    def pair_index(self) -> dict[tuple[str, str], int]:
        return {p.key: i for i, p in enumerate(self.pairs)}


Placement = frozenset[tuple[str, str]]


def _node_fits(problem: PlacementProblem, mask: int, node: int) -> bool:
    """Whether node ``node``'s pairs in ``mask`` fit its memory budget."""
    used = 0
    for bit, memory in problem.node_pairs[node]:
        if mask & bit:
            used += memory
    return used <= problem.budget[node]


def _memory_ok(problem: PlacementProblem, mask: int) -> bool:
    return all(_node_fits(problem, mask, n) for n in range(len(problem.budget)))


def _objective_mask(problem: PlacementProblem, mask: int) -> int:
    """The objective of ``mask`` as an exact numerator over ``problem.scale``."""
    total = 0
    for options, miss in zip(problem.cell_options, problem.cell_miss):
        for cost, bit in options:
            if mask & bit:
                total += cost
                break
        else:
            total += miss
    for bit, cost in problem.fixed:
        if mask & bit:
            total += cost
    return total


def _mask_of(problem: PlacementProblem, placement: Placement) -> int:
    index = problem.pair_index()
    mask = 0
    for key in placement:
        j = index.get(key)
        if j is None:
            raise InfeasiblePlacement(f"assignment {key} is not a candidate pair")
        mask |= 1 << j
    return mask


def _placement_of(problem: PlacementProblem, mask: int) -> Placement:
    return frozenset(p.key for j, p in enumerate(problem.pairs) if mask >> j & 1)


def objective(problem: PlacementProblem, placement: Placement) -> Fraction:
    """Total placement cost: demand latency + weighted deploy/net/risk terms."""
    mask = _mask_of(problem, placement)
    if not _memory_ok(problem, mask):
        raise InfeasiblePlacement("memory budget exceeded")
    return Fraction(_objective_mask(problem, mask), problem.scale)


def solve_greedy(problem: PlacementProblem) -> Placement:
    """Density-greedy: repeatedly add the assignment with the best objective
    decrease per byte of footprint; stop when nothing strictly improves."""
    mask = 0
    current = _objective_mask(problem, mask)
    order = sorted(range(len(problem.pairs)), key=lambda j: problem.pairs[j].key)
    while True:
        best_j = None
        best_gain = best_memory = best_obj = 0
        for j in order:
            if mask >> j & 1:
                continue
            trial = mask | 1 << j
            if not _node_fits(problem, trial, problem.pair_node[j]):
                continue
            obj = _objective_mask(problem, trial)
            gain = current - obj
            if gain <= 0:
                continue
            # gain / memory > best_gain / best_memory, cross-multiplied.
            memory = max(1, problem.pairs[j].memory_bytes)
            if best_j is None or gain * best_memory > best_gain * memory:
                best_j, best_gain, best_memory, best_obj = j, gain, memory, obj
        if best_j is None:
            return _placement_of(problem, mask)
        mask |= 1 << best_j
        current = best_obj


def improve_local_search(problem: PlacementProblem, placement: Placement, max_rounds: int) -> Placement:
    """Best-improvement add/remove/swap moves; accepts only strict decreases.

    The current mask is always feasible and a move adds at most one pair, so
    only the added pair's node needs its budget checked."""
    mask = _mask_of(problem, placement)
    if not _memory_ok(problem, mask):
        raise InfeasiblePlacement("memory budget exceeded")
    current = _objective_mask(problem, mask)
    n = len(problem.pairs)
    pair_node = problem.pair_node
    for _ in range(max_rounds):
        best_mask = None
        best_obj = current
        for j in range(n):
            trial = mask ^ 1 << j  # add when absent, remove when present
            if not (mask >> j & 1 or _node_fits(problem, trial, pair_node[j])):
                continue
            obj = _objective_mask(problem, trial)
            if obj < best_obj:
                best_mask, best_obj = trial, obj
        for j in range(n):
            if not (mask >> j & 1):
                continue
            for k in range(n):
                if mask >> k & 1 or k == j:
                    continue
                trial = (mask & ~(1 << j)) | 1 << k
                if not _node_fits(problem, trial, pair_node[k]):
                    continue
                obj = _objective_mask(problem, trial)
                if obj < best_obj:
                    best_mask, best_obj = trial, obj
        if best_mask is None:
            break
        mask, current = best_mask, best_obj
    return _placement_of(problem, mask)


def solve_exact(problem: PlacementProblem) -> Placement:
    """Exhaustive oracle over all feasible assignment vectors.

    Bounded to |pairs| <= 20; ties on objective resolve to the
    lexicographically smallest assignment bitvector.
    """
    n = len(problem.pairs)
    if n > ENUMERATION_BOUND:
        raise InstanceTooLarge(f"{n} candidate assignments exceed the bound of {ENUMERATION_BOUND}")
    best_mask = 0
    best_obj = _objective_mask(problem, 0)

    def dfs(j: int, mask: int) -> None:
        nonlocal best_mask, best_obj
        if j == n:
            obj = _objective_mask(problem, mask)
            if obj < best_obj:
                best_mask, best_obj = mask, obj
            return
        dfs(j + 1, mask)  # exclude-first yields smaller bitvectors first
        trial = mask | 1 << j
        if _node_fits(problem, trial, problem.pair_node[j]):
            dfs(j + 1, trial)

    dfs(0, 0)
    return _placement_of(problem, best_mask)


def build_problem(
    router: Router,
    cells: list[DemandCell],
    weights: PlacementWeights,
    residency: dict[str, set[str]],
) -> PlacementProblem:
    """Assemble the placement instance against the live broker and topology.

    The candidates of each demanded class are the pairs of its candidate
    table on online nodes that have a cold hit, less the non-resident ones
    whose artifact has no route from the repository. ``residency`` maps
    node_id -> realization ids currently resident (their re-placement is
    free).
    """
    broker = router.broker
    catalog = broker.catalog
    unit_cost = weights.storage_unit_cost
    pairs: list[PlacementPair] = []
    for class_name in sorted({c.capability_class for c in cells}):
        table = broker.table(class_name, 1, PolicyConstraint(), tiers=router.placement_tiers)
        for state, _, realizations in table.nodes:
            if not state.online:
                continue
            node_id = state.node_id
            resident = residency.get(node_id, ())
            for rid, footprint, _, cold in realizations:
                if cold is None:
                    continue  # never placeable on this node
                if rid in resident:
                    deploy = net = 0
                else:
                    realization = catalog.realizations[rid]
                    try:
                        net, _ = router.artifact_fetch(node_id, realization)
                    except Unreachable:
                        continue  # routing runs it here only warm
                    deploy = (
                        realization.load_time_us * unit_cost.denominator
                        + unit_cost.numerator * realization.artifact_size_bytes
                    )
                preferred = catalog.variant_of(rid).security.preferred_trust
                pairs.append(PlacementPair(rid, node_id, footprint, deploy, net, int(state.profile.trust < preferred)))
    pairs.sort(key=lambda p: p.key)

    latency: list[list[int | None]] = []
    for cell in cells:
        row: list[int | None] = []
        probe = RequestDescriptor(
            request_id=f"plan-{cell.capability_class}-{cell.region}-{cell.quality}",
            capability_class=cell.capability_class,
            quality_target=cell.quality,
            policy=PolicyConstraint(),
            origin_region=cell.region,
            input_tokens=cell.input_tokens,
            output_tokens=cell.output_tokens,
        )
        for pair in pairs:
            variant = catalog.variant_of(pair.realization_id)
            if variant.parent_class != cell.capability_class or variant.quality < cell.quality:
                row.append(None)
            else:
                row.append(router.idle_cost(probe, broker.nodes[pair.node_id], pair.realization_id))
        latency.append(row)

    return PlacementProblem(
        cells=tuple(cells),
        pairs=tuple(pairs),
        node_budget={
            node_id: broker.nodes[node_id].profile.memory_budget_bytes
            for node_id in sorted(broker.nodes)
        },
        weights=weights,
        latency=latency,
        latency_den=router._scale,
    )


def cells_from_requests(requests: list[RequestDescriptor], start_us: int, end_us: int) -> list[DemandCell]:
    """Aggregate an arrival window into demand cells with mean token sizes."""
    grouped: dict[tuple[str, str, int], list[RequestDescriptor]] = {}
    for request in requests:
        if start_us <= request.arrival_time < end_us:
            key = (request.capability_class, request.origin_region, request.quality_target)
            grouped.setdefault(key, []).append(request)
    cells = []
    for (cls, region, quality) in sorted(grouped):
        members = grouped[(cls, region, quality)]
        count = len(members)
        cells.append(
            DemandCell(
                capability_class=cls,
                region=region,
                quality=quality,
                count=count,
                input_tokens=sum(r.input_tokens for r in members) // count,
                output_tokens=max(1, sum(r.output_tokens for r in members) // count),
            )
        )
    return cells


class DemandWindow:
    """The demand cells of a sliding arrival window, kept as running sums.

    Each (class, region, quality) cell keeps its arrival count and input and
    output token sums; ``add`` adds an arrival to them, and ``cells`` first
    subtracts every arrival that has left the window. Arrivals must be added
    in time order and windows asked for with non-decreasing starts, each
    ending after every arrival added so far. ``cells(start_us)`` then equals
    ``cells_from_requests`` over every arrival added, from ``start_us`` to the
    window's end.
    """

    def __init__(self) -> None:
        self._cell_ids: dict[tuple[str, str, int], int] = {}
        self._sums: list[list[int]] = []  # per cell id: [count, input token sum, output token sum]
        self._arrivals: deque[tuple[int, int, int, int]] = deque()  # (arrival_time, cell id, input, output)

    def __len__(self) -> int:
        """Arrivals still held: those not yet seen to leave the window."""
        return len(self._arrivals)

    def add(self, request: RequestDescriptor) -> None:
        key = (request.capability_class, request.origin_region, request.quality_target)
        cell = self._cell_ids.get(key)
        if cell is None:
            cell = self._cell_ids[key] = len(self._sums)
            self._sums.append([0, 0, 0])
        sums = self._sums[cell]
        sums[0] += 1
        sums[1] += request.input_tokens
        sums[2] += request.output_tokens
        self._arrivals.append((request.arrival_time, cell, request.input_tokens, request.output_tokens))

    def cells(self, start_us: int) -> list[DemandCell]:
        arrivals = self._arrivals
        while arrivals and arrivals[0][0] < start_us:
            _, cell, input_tokens, output_tokens = arrivals.popleft()
            sums = self._sums[cell]
            sums[0] -= 1
            sums[1] -= input_tokens
            sums[2] -= output_tokens
        cells = []
        for key, cell in sorted(self._cell_ids.items()):
            count, input_sum, output_sum = self._sums[cell]
            if count:
                cells.append(DemandCell(*key, count, input_sum // count, max(1, output_sum // count)))
        return cells


def plan_delta(
    solution: Placement, residency: dict[str, set[str]]
) -> tuple[tuple[tuple[str, str], ...], tuple[tuple[str, str], ...]]:
    """(loads, evictions): the (realization_id, node_id) pairs to activate
    and to withdraw, each sorted."""
    current = {(rid, node_id) for node_id, rids in residency.items() for rid in rids}
    return tuple(sorted(solution - current)), tuple(sorted(current - solution))


def solve(problem: PlacementProblem, local_search_rounds: int) -> Placement:
    return improve_local_search(problem, solve_greedy(problem), local_search_rounds)
