"""Synthetic workload: per-region Poisson arrivals, Zipf class popularity,
geometric multi-turn sessions sharing a prefix, and policy-template mixes.

Determinism: one Mersenne Twister substream per region, seeded
``seed XOR fnv1a32(region_id)``; arrival times are the region's Poisson
points converted to integer microseconds (collisions bumped by 1 us so the
stream is strictly increasing per region). A run with one region takes that
region's stream as generated, since it is already in (time, region, id)
order; several regions' streams are merged and sorted.
"""

from __future__ import annotations

import hashlib
import math
import random
from dataclasses import dataclass

from .descriptors import PolicyConstraint, RequestDescriptor, bounded, ident


def fnv1a32(text: str) -> int:
    h = 0x811C9DC5
    for byte in text.encode("utf-8"):
        h ^= byte
        h = (h * 0x01000193) & 0xFFFFFFFF
    return h


@dataclass(slots=True, eq=False, repr=False)
class TokenDist:
    """A distribution of token counts: ``value``, or a lognormal draw
    ``max(1, round(rng.lognormvariate(mu, sigma)))``."""

    dist: str = "fixed"  # fixed | lognormal
    value: int = bounded(1, 1)
    mu: float = 0.0
    sigma: float = bounded(0.0, 0)


@dataclass(slots=True, eq=False, repr=False)
class PolicyTemplate:
    """One entry of a region's policy mix: its draw weight and the policy, target and budget it gives."""

    weight: float = bounded(1.0, 0, above=True)
    policy: PolicyConstraint = PolicyConstraint()
    quality_target: int = bounded(1, 1)
    budget: int | None = bounded(None, 0)
    degradable: bool = False


@dataclass(slots=True, eq=False, repr=False)
class RegionWorkload:
    """One region's arrivals: rate, class popularity, sessions, token sizes and policy mix."""

    region: str = ident(unique="region", cell=True)
    rate_per_s: float = bounded(0.0, 0)
    zipf_s: float = bounded(0.0, 0)
    classes: tuple[str, ...] = ident((), ref="class")  # popularity-rank order, most popular first
    session_turns_g: float = bounded(1.0, 0, 1, above=True)  # geometric success parameter; 1.0 = single-turn
    session_prefix_tokens: int = bounded(0, 0)
    input_tokens: TokenDist = TokenDist()
    output_tokens: TokenDist = TokenDist()
    policy_mix: tuple[PolicyTemplate, ...] = (PolicyTemplate(),)  # each session draws one


@dataclass(slots=True, repr=False)
class Arrival:
    """A request and its session turn, generated or scripted in the scenario."""

    request: RequestDescriptor
    session_id: str = ident(cell=True)
    turn_index: int = bounded(1, 1)
    total_turns: int = bounded(1, 1)
    prefix_tokens: int = bounded(0, 0)


def _cdf(weights: list[float]) -> list[float]:
    total = sum(weights)
    cdf = []
    acc = 0.0
    for w in weights:
        acc += w / total
        cdf.append(acc)
    return cdf


def _sample_index(cdf: list[float], u: float) -> int:
    for i, threshold in enumerate(cdf):
        if u < threshold:
            return i
    return len(cdf) - 1


def _geometric_turns(rng: random.Random, g: float) -> int:
    if g >= 1.0:
        return 1
    u = rng.random()
    return int(math.log(1.0 - u) / math.log(1.0 - g)) + 1


def session_prefix_digest(session_id: str, prefix_tokens: int) -> str:
    return hashlib.sha256(f"{session_id}|{prefix_tokens}".encode()).hexdigest()[:16]


def generate_region_arrivals(
    spec: RegionWorkload, duration_us: int, seed: int
) -> list[Arrival]:
    rng = random.Random(seed ^ fnv1a32(spec.region))
    if spec.rate_per_s <= 0 or not spec.classes:
        return []
    cdf = _cdf([1.0 / (k**spec.zipf_s) for k in range(1, len(spec.classes) + 1)])
    mix_cdf = _cdf([t.weight for t in spec.policy_mix])

    # What every arrival reads, as locals. A token count is TokenDist's draw:
    # its fixed value, or, where that is None here, a lognormal draw.
    region, prefix, rate = spec.region, spec.session_prefix_tokens, spec.rate_per_s
    expovariate, lognormvariate = rng.expovariate, rng.lognormvariate
    dist_in, dist_out = spec.input_tokens, spec.output_tokens
    fixed_in = dist_in.value if dist_in.dist == "fixed" else None
    fixed_out = dist_out.value if dist_out.dist == "fixed" else None

    arrivals: list[Arrival] = []
    t_seconds = 0.0
    last_us = -1
    sessions = 0
    remaining = 0  # turns left in the open session
    n = 0
    while True:
        t_seconds += expovariate(rate)
        t_us = int(t_seconds * 1_000_000)
        if t_us >= duration_us:
            break
        if t_us <= last_us:
            t_us = last_us + 1
        last_us = t_us

        if remaining == 0:
            sessions += 1
            session_id = f"{region}-s{sessions:05d}"
            capability_class = spec.classes[_sample_index(cdf, rng.random())]
            template = spec.policy_mix[_sample_index(mix_cdf, rng.random())]
            total = remaining = _geometric_turns(rng, spec.session_turns_g)
            turn = 0
            # Hashed once per session: every turn shares the prefix.
            affinity = f"{session_id}:{session_prefix_digest(session_id, prefix)}" if prefix > 0 else None

        turn += 1
        remaining -= 1
        fresh = fixed_in if fixed_in is not None else max(1, round(lognormvariate(dist_in.mu, dist_in.sigma)))
        out_tokens = fixed_out if fixed_out is not None else max(1, round(lognormvariate(dist_out.mu, dist_out.sigma)))
        n += 1
        # Positional, in RequestDescriptor's field order.
        request = RequestDescriptor(
            f"{region}-{n:06d}",
            capability_class,
            template.quality_target,
            template.policy,
            affinity,
            template.budget,
            region,
            prefix + fresh,
            out_tokens,
            t_us,
            template.degradable,
        )
        arrivals.append(Arrival(request, session_id, turn, total, prefix))
    return arrivals


def generate_arrivals(regions: tuple[RegionWorkload, ...], duration_us: int, seed: int) -> list[Arrival]:
    """All regions' arrivals merged into one stream ordered by (time, region,
    request id). One region's stream is returned as generated: its times
    strictly rise, so it is in that order already."""
    if len(regions) == 1:
        return generate_region_arrivals(regions[0], duration_us, seed)
    merged: list[Arrival] = []
    for region in regions:
        merged.extend(generate_region_arrivals(region, duration_us, seed))
    merged.sort(key=lambda a: (a.request.arrival_time, a.request.origin_region, a.request.request_id))
    return merged
