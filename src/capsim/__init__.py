"""Deterministic simulator and control plane for hierarchical AI capability
serving: placement, cost-based routing, state-aware caching, trust receipts."""

__version__ = "0.1.0"

from .descriptors import (
    CapabilityDescriptor,
    CapabilityRealization,
    CapabilityVariant,
    ExecutionReceipt,
    PolicyConstraint,
    RequestDescriptor,
    ResourceProfile,
)
from .engine import Simulation
from .scenario import Scenario

__all__ = [
    "CapabilityDescriptor",
    "CapabilityRealization",
    "CapabilityVariant",
    "ExecutionReceipt",
    "PolicyConstraint",
    "RequestDescriptor",
    "ResourceProfile",
    "Scenario",
    "Simulation",
    "__version__",
]
