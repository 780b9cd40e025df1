"""The reference placement solvers: every trial move priced in ``Fraction``s.

``capsim.deployment`` evaluates the placement objective as exact integers
over one common denominator. This module keeps the independent rational
implementation it must agree with: ``objective_mask`` re-prices the whole
objective in ``Fraction``s, each latency and deploy cost its numerator over
its own denominator, and ``solve_greedy``,
``improve_local_search`` and ``solve_exact`` search with it in the same move
order and with the same tie rules. Tests compare the solvers against it.
"""

from __future__ import annotations

from fractions import Fraction

from capsim.deployment import (
    ENUMERATION_BOUND,
    InfeasiblePlacement,
    InstanceTooLarge,
    Placement,
    PlacementProblem,
    _mask_of,
    _placement_of,
)


def cell_options(problem: PlacementProblem) -> list[list[tuple[Fraction, int]]]:
    """cell_options[i]: (latency, pair index) ascending — the first member of
    a placement met in this order is the cell's cheapest plan."""
    return [
        sorted((Fraction(lat, problem.latency_den), j) for j, lat in enumerate(row) if lat is not None)
        for row in problem.latency
    ]


def memory_ok(problem: PlacementProblem, mask: int) -> bool:
    used: dict[str, int] = {}
    for j, pair in enumerate(problem.pairs):
        if mask >> j & 1:
            used[pair.node_id] = used.get(pair.node_id, 0) + pair.memory_bytes
            if used[pair.node_id] > problem.node_budget.get(pair.node_id, 0):
                return False
    return True


def objective_mask(problem: PlacementProblem, mask: int) -> Fraction:
    weights = problem.weights
    total = Fraction(0)
    for cell, options in zip(problem.cells, cell_options(problem)):
        best: Fraction | None = None
        for lat, j in options:
            if mask >> j & 1:
                best = lat
                break
        total += cell.count * (best if best is not None else Fraction(weights.p_miss_us))
    deploy = Fraction(0)
    net = 0
    risk = 0
    for j, pair in enumerate(problem.pairs):
        if mask >> j & 1:
            deploy += Fraction(pair.deploy_cost, weights.storage_unit_cost.denominator)
            net += pair.net_cost_us
            risk += pair.risk
    return total + weights.lambda_deploy * deploy + weights.mu_net * net + weights.nu_risk * risk


def objective(problem: PlacementProblem, placement: Placement) -> Fraction:
    mask = _mask_of(problem, placement)
    if not memory_ok(problem, mask):
        raise InfeasiblePlacement("memory budget exceeded")
    return objective_mask(problem, mask)


def solve_greedy(problem: PlacementProblem) -> Placement:
    mask = 0
    current = objective_mask(problem, mask)
    order = sorted(range(len(problem.pairs)), key=lambda j: problem.pairs[j].key)
    while True:
        best_j = None
        best_density: Fraction | None = None
        best_obj: Fraction | None = None
        for j in order:
            if mask >> j & 1:
                continue
            trial = mask | 1 << j
            if not memory_ok(problem, trial):
                continue
            obj = objective_mask(problem, trial)
            gain = current - obj
            if gain <= 0:
                continue
            density = gain / max(1, problem.pairs[j].memory_bytes)
            if best_density is None or density > best_density:
                best_j, best_density, best_obj = j, density, obj
        if best_j is None:
            return _placement_of(problem, mask)
        mask |= 1 << best_j
        current = best_obj


def improve_local_search(problem: PlacementProblem, placement: Placement, max_rounds: int) -> Placement:
    mask = _mask_of(problem, placement)
    if not memory_ok(problem, mask):
        raise InfeasiblePlacement("memory budget exceeded")
    current = objective_mask(problem, mask)
    n = len(problem.pairs)
    for _ in range(max_rounds):
        best_mask = None
        best_obj = current
        for j in range(n):
            trial = mask ^ 1 << j
            if not memory_ok(problem, trial):
                continue
            obj = objective_mask(problem, trial)
            if obj < best_obj:
                best_mask, best_obj = trial, obj
        for j in range(n):
            if not (mask >> j & 1):
                continue
            for k in range(n):
                if mask >> k & 1 or k == j:
                    continue
                trial = (mask & ~(1 << j)) | 1 << k
                if not memory_ok(problem, trial):
                    continue
                obj = objective_mask(problem, trial)
                if obj < best_obj:
                    best_mask, best_obj = trial, obj
        if best_mask is None:
            break
        mask, current = best_mask, best_obj
    return _placement_of(problem, mask)


def solve(problem: PlacementProblem, local_search_rounds: int) -> Placement:
    return improve_local_search(problem, solve_greedy(problem), local_search_rounds)


def solve_exact(problem: PlacementProblem) -> Placement:
    n = len(problem.pairs)
    if n > ENUMERATION_BOUND:
        raise InstanceTooLarge(f"{n} candidate assignments exceed the bound of {ENUMERATION_BOUND}")
    best_mask = 0
    best_obj = objective_mask(problem, 0)

    def dfs(j: int, mask: int) -> None:
        nonlocal best_mask, best_obj
        if j == n:
            obj = objective_mask(problem, mask)
            if obj < best_obj:
                best_mask, best_obj = mask, obj
            return
        dfs(j + 1, mask)
        trial = mask | 1 << j
        if memory_ok(problem, trial):
            dfs(j + 1, trial)

    dfs(0, 0)
    return _placement_of(problem, best_mask)
