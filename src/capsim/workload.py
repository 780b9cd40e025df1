"""Synthetic workload: per-region Poisson arrivals, Zipf class popularity,
geometric multi-turn sessions sharing a prefix, and policy-template mixes.

Determinism: one Mersenne Twister substream per region, seeded
``seed XOR fnv1a32(region_id)``; arrival times are the region's Poisson
points converted to integer microseconds (collisions bumped by 1 us so the
stream is strictly increasing per region).
"""

from __future__ import annotations

import hashlib
import math
import random
from dataclasses import dataclass

from .descriptors import PolicyConstraint, RequestDescriptor


def fnv1a32(text: str) -> int:
    h = 0x811C9DC5
    for byte in text.encode("utf-8"):
        h ^= byte
        h = (h * 0x01000193) & 0xFFFFFFFF
    return h


@dataclass(slots=True, eq=False, repr=False)
class TokenDist:
    """A distribution of token counts: a fixed value or a lognormal draw."""

    dist: str = "fixed"  # fixed | lognormal
    value: int = 1
    mu: float = 0.0
    sigma: float = 0.0

    def sample(self, rng: random.Random) -> int:
        if self.dist == "fixed":
            return self.value
        return max(1, round(rng.lognormvariate(self.mu, self.sigma)))


@dataclass(slots=True, eq=False, repr=False)
class PolicyTemplate:
    """One entry of a region's policy mix: its draw weight and the policy, target and budget it gives."""

    weight: float = 1.0
    policy: PolicyConstraint = PolicyConstraint()
    quality_target: int = 1
    budget: int | None = None
    degradable: bool = False


@dataclass(slots=True, eq=False, repr=False)
class RegionWorkload:
    """One region's arrivals: rate, class popularity, sessions, token sizes and policy mix."""

    region: str
    rate_per_s: float = 0.0
    zipf_s: float = 0.0
    classes: tuple[str, ...] = ()  # popularity-rank order, most popular first
    session_turns_g: float = 1.0  # geometric success parameter; 1.0 = single-turn
    session_prefix_tokens: int = 0
    input_tokens: TokenDist = TokenDist()
    output_tokens: TokenDist = TokenDist()
    policy_mix: tuple[PolicyTemplate, ...] = (PolicyTemplate(),)  # each session draws one


@dataclass(slots=True, repr=False)
class Arrival:
    """A request and its session turn, generated or scripted in the scenario."""

    request: RequestDescriptor
    session_id: str
    turn_index: int = 1
    total_turns: int = 1
    prefix_tokens: int = 0


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

    arrivals: list[Arrival] = []
    t_seconds = 0.0
    last_us = -1
    session_counter = 0
    open_session: dict | None = None  # remaining turns of the active session
    n = 0
    while True:
        t_seconds += rng.expovariate(spec.rate_per_s)
        t_us = int(t_seconds * 1_000_000)
        if t_us >= duration_us:
            break
        if t_us <= last_us:
            t_us = last_us + 1
        last_us = t_us

        if open_session is None or open_session["remaining"] == 0:
            session_counter += 1
            session_id = f"{spec.region}-s{session_counter:05d}"
            cls_idx = _sample_index(cdf, rng.random())
            template = spec.policy_mix[_sample_index(mix_cdf, rng.random())]
            open_session = {
                "session_id": session_id,
                "capability_class": spec.classes[cls_idx],
                "template": template,
                "total": _geometric_turns(rng, spec.session_turns_g),
                "remaining": 0,  # set below
                "turn": 0,
                # Hashed once per session: every turn shares the prefix.
                "affinity": (
                    f"{session_id}:{session_prefix_digest(session_id, spec.session_prefix_tokens)}"
                    if spec.session_prefix_tokens > 0
                    else None
                ),
            }
            open_session["remaining"] = open_session["total"]

        open_session["turn"] += 1
        open_session["remaining"] -= 1
        template = open_session["template"]
        fresh = spec.input_tokens.sample(rng)
        out_tokens = spec.output_tokens.sample(rng)
        session_id = open_session["session_id"]
        n += 1
        request = RequestDescriptor(
            request_id=f"{spec.region}-{n:06d}",
            capability_class=open_session["capability_class"],
            quality_target=template.quality_target,
            policy=template.policy,
            affinity_token=open_session["affinity"],
            budget=template.budget,
            origin_region=spec.region,
            input_tokens=spec.session_prefix_tokens + fresh,
            output_tokens=out_tokens,
            arrival_time=t_us,
            degradable=template.degradable,
        )
        arrivals.append(
            Arrival(
                request=request,
                session_id=session_id,
                turn_index=open_session["turn"],
                total_turns=open_session["total"],
                prefix_tokens=spec.session_prefix_tokens,
            )
        )
    return arrivals


def generate_arrivals(regions: tuple[RegionWorkload, ...], duration_us: int, seed: int) -> list[Arrival]:
    """All regions' arrivals merged into one stream ordered by (time, region)."""
    merged: list[Arrival] = []
    for region in regions:
        merged.extend(generate_region_arrivals(region, duration_us, seed))
    merged.sort(key=lambda a: (a.request.arrival_time, a.request.origin_region, a.request.request_id))
    return merged
