"""Name -> policy-factory registry used by the benchmark harnesses.

Some policies need run-specific context (OPT needs the materialized
trace's next-use array; GRASP needs DBG address ranges; T-OPT/P-OPT need
the graph and layout), so the registry stores *factories* taking a
:class:`PolicyContext`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

import numpy as np

from ..errors import PolicyError
from .base import ReplacementPolicy
from .hawkeye import Hawkeye
from .lru import LRU
from .plru import BitPLRU
from .random_policy import RandomReplacement
from .rrip import BRRIP, DRRIP, SRRIP
from .ship import ship_mem, ship_pc

__all__ = [
    "PolicyContext",
    "make_policy",
    "register_policy",
    "policy_names",
]


@dataclass
class PolicyContext:
    """Everything a policy factory might need about the run being built."""

    graph: object = None          # CSRGraph traversed by the kernel
    transpose: object = None      # its transpose (next-ref source)
    layout: object = None         # AddressSpace
    trace: object = None          # materialized MemoryTrace (oracle policies)
    next_use: Optional[np.ndarray] = None
    hot_range: Optional[tuple] = None    # GRASP hot region (line addrs)
    warm_range: Optional[tuple] = None   # GRASP warm region
    extras: Dict[str, object] = field(default_factory=dict)


# Filled by import-time decorators only.
_FACTORIES: Dict[str, Callable[[PolicyContext], ReplacementPolicy]] = {}


def register_policy(name: str):
    """Decorator registering a factory under ``name``.

    Duplicate names are rejected: a silent overwrite would make replay
    results depend on import order.
    """

    def decorate(factory):
        if name in _FACTORIES:
            raise PolicyError(f"policy {name!r} is already registered")
        _FACTORIES[name] = factory
        return factory

    return decorate


def make_policy(name: str, ctx: Optional[PolicyContext] = None):
    """Instantiate the named policy for the given run context.

    The built policy must report ``name`` as its ``.name``: rows and
    reports key on it, so registry keys being unique makes policy names
    unique.
    """
    try:
        factory = _FACTORIES[name]
    except KeyError:
        raise PolicyError(
            f"unknown policy {name!r}; choose from {policy_names()}"
        ) from None
    policy = factory(ctx if ctx is not None else PolicyContext())
    if policy.name != name:
        raise PolicyError(
            f"policy registered as {name!r} reports name {policy.name!r}"
        )
    return policy


def policy_names() -> List[str]:
    return sorted(_FACTORIES)


# ----------------------------------------------------------------------
# Context-free baselines
# ----------------------------------------------------------------------

register_policy("LRU")(lambda ctx: LRU())
register_policy("Bit-PLRU")(lambda ctx: BitPLRU())
register_policy("Random")(lambda ctx: RandomReplacement())
register_policy("SRRIP")(lambda ctx: SRRIP())
register_policy("BRRIP")(lambda ctx: BRRIP())
register_policy("DRRIP")(lambda ctx: DRRIP())
register_policy("SHiP-PC")(lambda ctx: ship_pc())
register_policy("SHiP-Mem")(lambda ctx: ship_mem())
register_policy("Hawkeye")(lambda ctx: Hawkeye())


def _lip_factories():
    from .lip import BIP, LIP

    register_policy("LIP")(lambda ctx: LIP())
    register_policy("BIP")(lambda ctx: BIP())


_lip_factories()


def _deadblock_factories():
    from .deadblock import SDBP, Leeway

    register_policy("SDBP")(lambda ctx: SDBP())
    register_policy("Leeway")(lambda ctx: Leeway())


_deadblock_factories()


@register_policy("OPT")
def _make_opt(ctx: PolicyContext):
    from .opt import BeladyOPT

    if ctx.next_use is None:
        if ctx.trace is None:
            raise PolicyError("OPT needs ctx.trace or ctx.next_use")
        ctx.next_use = ctx.trace.next_use_indices()
    return BeladyOPT(ctx.next_use)


@register_policy("GRASP")
def _make_grasp(ctx: PolicyContext):
    from .grasp import GRASP

    if ctx.hot_range is None:
        raise PolicyError("GRASP needs ctx.hot_range (DBG-derived)")
    return GRASP(hot_range=ctx.hot_range, warm_range=ctx.warm_range)
