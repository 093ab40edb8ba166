"""Replacement policy interface.

A policy owns all replacement metadata for the cache it is bound to. The
cache calls back on hits, fills, and evictions, and asks
:meth:`choose_victim` when a set is full. Policies may inspect the bound
cache's ``tags`` to see which lines are resident (T-OPT and P-OPT need the
victim candidates' addresses).

One policy instance serves one cache: :meth:`bind` is called by the cache
constructor and (re)initializes per-set state.

The contract is checked when a policy class is defined
(:meth:`ReplacementPolicy.__init_subclass__`), and ``num_sets`` /
``num_ways`` exist only after :meth:`bind`, so per-set state built in
``__init__`` raises ``AttributeError`` instead of sizing itself for no
cache.
"""

from __future__ import annotations

from collections import deque
from typing import TYPE_CHECKING

from ..errors import PolicyError

if TYPE_CHECKING:  # pragma: no cover
    from ..cache.cache import AccessContext, SetAssociativeCache

__all__ = ["ReplacementPolicy"]


_MUTABLE_CLASS_VALUES = (list, dict, set, deque)


class ReplacementPolicy:
    """Base class; subclasses override the hooks they need."""

    #: Human-readable policy name (used in reports).
    name = "base"

    #: Set by :meth:`bind`; reading either before then raises.
    num_sets: int
    num_ways: int

    def __init_subclass__(cls, **kwargs) -> None:
        """Refuse a subclass that breaks the policy contract.

        No class may carry a mutable class-level value: every instance
        would share it across ``bind()``s. A public class needs a string
        ``name`` other than the root's and its own or an inherited
        ``choose_victim``; classes named ``_*`` are abstract bases and
        may leave both to their subclasses.
        """
        super().__init_subclass__(**kwargs)
        for attr, value in vars(cls).items():
            # Dunders (``__annotations__``) belong to Python, not to
            # replacement state.
            if isinstance(value, _MUTABLE_CLASS_VALUES) and not (
                attr.startswith("__") and attr.endswith("__")
            ):
                raise PolicyError(
                    f"{cls.__qualname__}.{attr} is a mutable class-level "
                    f"{type(value).__name__}, shared by every instance; "
                    "build it in reset()"
                )
        if cls.__name__.startswith("_"):
            return
        if not isinstance(cls.name, str) or cls.name == "base":
            raise PolicyError(
                f"{cls.__qualname__} has no string class-level `name` "
                "(reports and sweep tables key on it)"
            )
        if cls.choose_victim is ReplacementPolicy.choose_victim:
            raise PolicyError(
                f"{cls.__qualname__} never overrides choose_victim"
            )

    def __init__(self) -> None:
        self.cache = None

    def bind(self, cache: "SetAssociativeCache") -> None:
        """Attach to a cache and (re)build per-set metadata."""
        self.cache = cache
        self.num_sets = cache.num_sets
        self.num_ways = cache.num_ways
        self.reset()

    def reset(self) -> None:
        """Initialize per-set metadata. Called from :meth:`bind`."""

    # ------------------------------------------------------------------
    # Hooks
    # ------------------------------------------------------------------

    def on_hit(self, set_idx: int, way: int, ctx: "AccessContext") -> None:
        """The line in (set_idx, way) was re-referenced."""

    def on_fill(self, set_idx: int, way: int, ctx: "AccessContext") -> None:
        """A new line was installed into (set_idx, way)."""

    def on_evict(self, set_idx: int, way: int, ctx: "AccessContext") -> None:
        """The line in (set_idx, way) is about to be evicted."""

    def choose_victim(self, set_idx: int, ctx: "AccessContext") -> int:
        """Pick a way to evict from a full set."""
        raise PolicyError(f"{self.name} does not implement choose_victim")

    def fits_replay_kernel(self) -> bool:
        """Whether this instance's parameters fit its class's replay kernel.

        The kernel table in :mod:`repro.sim.kernels` is keyed by exact
        type; a class whose kernel models only some of its
        configurations overrides this to send the rest down the generic
        per-access path.
        """
        return True
