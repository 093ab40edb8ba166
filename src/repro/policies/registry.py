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
from ..sim.worker_state import register_worker_state
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
    "replay_kernels",
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


_FACTORIES: Dict[str, Callable[[PolicyContext], ReplacementPolicy]] = {}

register_worker_state(
    "repro.policies.registry._FACTORIES",
    kind="frozen",
    note="policy registry, populated by import-time decorators; "
         "worker-executed code must not register policies",
)


def register_policy(name: str, *, replace: bool = False):
    """Decorator registering a factory under ``name``.

    Duplicate names are rejected (a silent overwrite would make replay
    results depend on import order); pass ``replace=True`` to swap in a
    variant deliberately.
    """

    def decorate(factory):
        if not replace and name in _FACTORIES:
            raise PolicyError(
                f"policy {name!r} is already registered; "
                "pass replace=True to override it"
            )
        _FACTORIES[name] = factory
        return factory

    return decorate


def make_policy(name: str, ctx: Optional[PolicyContext] = None):
    """Instantiate the named policy for the given run context."""
    try:
        factory = _FACTORIES[name]
    except KeyError:
        raise PolicyError(
            f"unknown policy {name!r}; choose from {policy_names()}"
        ) from None
    return factory(ctx if ctx is not None else PolicyContext())


def policy_names() -> List[str]:
    return sorted(_FACTORIES)


# ----------------------------------------------------------------------
# Replay-kernel dispatch table
# ----------------------------------------------------------------------

_REPLAY_KERNELS: Optional[Dict[type, str]] = None

register_worker_state(
    "repro.policies.registry._REPLAY_KERNELS",
    kind="cache",
    note="lazily-built exact-type kernel dispatch table; identical in "
         "every process by construction",
)


def replay_kernels() -> Dict[type, str]:
    """Exact policy type -> replay-kernel name in :mod:`repro.sim.kernels`.

    Consulted by :meth:`ReplacementPolicy.replay_kernel`. Keys are
    looked up by ``type(policy)`` — **not** ``isinstance`` — so a
    subclass never silently inherits a kernel that does not model its
    behavior (BIP subclasses LIP but adds an RNG on fill;
    GRASP/SDBP/Leeway/BIP all stay on the generic per-access path, and
    so does Random, whose per-set ``randrange`` streams have no compiled
    form).
    Two policies additionally override ``replay_kernel`` to fall back
    to the generic path when a kernel precondition fails: P-OPT when
    its tie-break sub-policy is not exactly DRRIP (the kernel inlines
    DRRIP's RRPV/PSEL evolution), and SHiP when its signature flavor is
    not ``pc`` (the kernel's dense SHCT indexes uint8 PC tags, not
    SHiP-Mem's region signatures). Built lazily so registering the
    table does not force-import every policy module at package import.
    """
    global _REPLAY_KERNELS
    if _REPLAY_KERNELS is None:
        from ..popt.policy import POPT
        from ..popt.topt import TOPT
        from .hawkeye import Hawkeye
        from .lip import LIP
        from .opt import BeladyOPT
        from .ship import SHiP

        _REPLAY_KERNELS = {
            LRU: "lru",
            LIP: "lip",
            BitPLRU: "bit-plru",
            SRRIP: "srrip",
            BRRIP: "brrip",
            DRRIP: "drrip",
            SHiP: "ship",
            Hawkeye: "hawkeye",
            BeladyOPT: "opt",
            TOPT: "t-opt",
            POPT: "p-opt",
        }
    return _REPLAY_KERNELS


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
