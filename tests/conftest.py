"""Shared builders for unit tests: small topologies, catalogs, and brokers
constructed programmatically so tests do not depend on the shipped scenarios.
"""

from __future__ import annotations

import importlib
import pkgutil
from dataclasses import is_dataclass
from fractions import Fraction

import pytest

import capsim
from capsim.descriptors import (
    CapabilityDescriptor,
    CapabilityRealization,
    CapabilityVariant,
    ResourceProfile,
    SecurityLabel,
    Tier,
)
from capsim.registry import Broker, CapabilityCatalog
from capsim.topology import Domain, Link, Topology
from capsim.trust import AttestationRecord, TrustManager

GIB = 1024**3


def capsim_records() -> dict[str, type]:
    """Every dataclass defined in a capsim module, by name."""
    records = {}
    for info in pkgutil.iter_modules(capsim.__path__):
        module = importlib.import_module(f"capsim.{info.name}")
        for value in vars(module).values():
            if isinstance(value, type) and is_dataclass(value) and value.__module__ == module.__name__:
                records[value.__name__] = value
    return records


def make_profile(
    node_id: str,
    domain_id: str = "d1",
    region: str = "metro",
    tier: Tier = Tier.EDGE,
    accelerator: str = "gpu",
    speed: str | int = 1,
    memory: int = 8 * GIB,
    max_concurrent: int = 2,
    admission_cap: int = 16,
    trust: int = 2,
) -> ResourceProfile:
    return ResourceProfile(
        node_id=node_id,
        domain_id=domain_id,
        accelerator=accelerator,
        speed_factor=Fraction(speed),
        max_concurrent=max_concurrent,
        memory_budget_bytes=memory,
        admission_cap=admission_cap,
        region=region,
        tier=tier,
        trust=trust,
    )


def make_class(name: str = "chat") -> CapabilityDescriptor:
    return CapabilityDescriptor(name=name, lineage=(("base-7b", "distill"),))


def make_variant(variant_id: str, parent: str = "chat", quality: int = 1, min_trust: int = 0, preferred_trust: int = 0) -> CapabilityVariant:
    return CapabilityVariant(
        variant_id=variant_id,
        parent_class=parent,
        quality=quality,
        security=SecurityLabel(min_trust=min_trust, preferred_trust=preferred_trust),
    )


def make_realization(
    realization_id: str,
    variant_id: str,
    accelerator: str = "gpu",
    artifact_size: int = GIB,
    load_time: int = 1_000_000,
    prefill: int = 50,
    decode: int = 200,
    setup: int = 1000,
    kv_bytes: int = 256,
) -> CapabilityRealization:
    return CapabilityRealization(
        realization_id=realization_id,
        variant_id=variant_id,
        accelerator=accelerator,
        artifact_size_bytes=artifact_size,
        load_time_us=load_time,
        prefill_time_per_token_us=prefill,
        decode_time_per_token_us=decode,
        setup_time_us=setup,
        kv_bytes_per_token=kv_bytes,
    )


def make_topology(profiles: list[ResourceProfile], links: list[Link], domains: list[Domain] | None = None) -> Topology:
    if domains is None:
        domains = [Domain(d) for d in sorted({p.domain_id for p in profiles})]
    return Topology(nodes=[p.node_id for p in profiles], domains=domains, links=links)


def star_links(region: str, node_ids: list[str], delay: int = 500, bandwidth: int = 1000) -> list[Link]:
    return [
        Link(f"l-gw-{n}", f"region:{region}", n, delay, Fraction(bandwidth))
        for n in node_ids
    ]


def random_placement_problem(rng, max_realizations: int = 4, max_nodes: int = 3, ties: bool = False):
    """Random small placement instance for solver-vs-oracle checks.

    With ``ties`` the draw is tie-heavy: latencies come from three values, one
    of them non-integer, so many options and greedy densities are equal;
    deploy costs carry a storage term at a non-integer unit cost; and the
    deploy, transfer and risk weights are non-integer. Latencies are written
    as numerators over ``latency_den`` and deploy costs over the storage unit
    cost's denominator, as ``build_problem`` writes them.
    """
    from fractions import Fraction as F

    from capsim.deployment import DemandCell, PlacementPair, PlacementProblem, PlacementWeights

    n_real = rng.randint(1, max_realizations)
    n_nodes = rng.randint(1, max_nodes)
    node_ids = [f"n{i}" for i in range(n_nodes)]
    budgets = {n: rng.randint(2, 12) for n in node_ids}
    footprints = [rng.randint(1, 6) for _ in range(n_real)]
    storage_unit_cost = F(rng.randint(0, 5), 7) if ties else F(0)
    pairs = []
    for r in range(n_real):
        for n, node in enumerate(node_ids):
            if rng.random() < (0.4 if ties else 0.2):  # already resident: free to keep
                deploy, net = 0, 0
            elif ties:
                deploy = (
                    rng.choice([0, 1_000]) * storage_unit_cost.denominator
                    + storage_unit_cost.numerator * footprints[r]
                )
                net = rng.choice([0, 500])
            else:
                deploy = rng.randint(0, 50_000)
                net = rng.randint(0, 80_000)
            pairs.append(
                PlacementPair(
                    realization_id=f"r{r}",
                    node_id=node,
                    memory_bytes=footprints[r],
                    deploy_cost=deploy,
                    net_cost_us=net,
                    risk=rng.randint(0, 1),
                )
            )
    pairs.sort(key=lambda p: p.key)
    cells = []
    latency = []
    for c in range(rng.randint(1, 4)):
        cells.append(
            DemandCell(
                capability_class=f"r{rng.randrange(n_real)}",
                region="east",
                quality=1,
                count=rng.randint(1, 20),
                input_tokens=64,
                output_tokens=16,
            )
        )
        row = []
        for pair in pairs:
            if pair.realization_id == cells[-1].capability_class and rng.random() < 0.9:
                if ties:  # over a latency_den of 3: 2,000 or 7,000/3
                    row.append(rng.choice([6_000, 6_000, 7_000]))
                else:
                    row.append(rng.randint(1_000, 60_000))
            else:
                row.append(None)
        latency.append(row)
    return PlacementProblem(
        cells=tuple(cells),
        pairs=tuple(pairs),
        node_budget=budgets,
        weights=PlacementWeights(
            lambda_deploy=F(rng.randint(1, 5), 3) if ties else F(1),
            mu_net=F(rng.randint(1, 5), 2) if ties else F(1),
            nu_risk=F(rng.randint(0, 9), 4) if ties else F(rng.randint(0, 3)),
            p_miss_us=10_000_000,
            storage_unit_cost=storage_unit_cost,
        ),
        latency=latency,
        latency_den=3 if ties else 1,
    )


@pytest.fixture
def simple_catalog() -> CapabilityCatalog:
    catalog = CapabilityCatalog()
    catalog.add_class(make_class("chat"))
    catalog.add_variant(make_variant("chat-v1", "chat", quality=1))
    catalog.add_variant(make_variant("chat-v2", "chat", quality=2))
    catalog.add_realization(make_realization("chat-v1-gpu", "chat-v1"))
    catalog.add_realization(make_realization("chat-v2-gpu", "chat-v2", prefill=120, decode=500, setup=2000))
    return catalog


@pytest.fixture
def simple_broker(simple_catalog) -> Broker:
    profiles = [
        make_profile("edge-1", trust=2),
        make_profile("edge-2", trust=2),
        make_profile("cloud-1", domain_id="d-core", region="core", tier=Tier.CLOUD, speed=2, memory=32 * GIB, max_concurrent=8, trust=3),
    ]
    links = star_links("metro", ["edge-1", "edge-2"]) + [
        Link("l-e1-c", "edge-1", "cloud-1", 20_000, Fraction(200), is_core=True),
        Link("l-e2-c", "edge-2", "cloud-1", 20_000, Fraction(200), is_core=True),
    ]
    topology = make_topology(profiles, links, domains=[Domain("d1"), Domain("d-core")])
    trust = TrustManager()
    for profile in profiles:
        trust.attest(AttestationRecord(profile.node_id, profile.trust, 0, None))
    for rid in ("chat-v1-gpu", "chat-v2-gpu"):
        trust.register_lineage(rid, (("base-7b", "distill"),))
    broker = Broker(simple_catalog, topology, trust=trust)
    for profile in profiles:
        broker.register_node(profile)
    return broker
