"""Simulation driver, timing model, locality analysis, experiments.

The public names are re-exported lazily (PEP 562): :mod:`repro.popt`
and :mod:`repro.policies` import the leaf constants registry
:mod:`repro.sim.constants`, so this package's ``__init__`` must not
eagerly pull in :mod:`repro.sim.driver` (which imports ``popt`` right
back). Attribute access resolves each name to its submodule on first
use; ``from repro.sim.driver import simulate_prepared``-style direct imports
are unaffected.
"""

from typing import TYPE_CHECKING

_EXPORTS = {
    # .analysis
    "ReuseProfile": "analysis",
    "miss_rate_curve": "analysis",
    "per_site_reuse_stats": "analysis",
    "reuse_distances": "analysis",
    # .driver
    "ENGINES": "driver",
    "POPT_POLICIES": "driver",
    "SimResult": "driver",
    "grasp_ranges_for": "driver",
    "prepare_dbg_run": "driver",
    "prepare_run": "driver",
    "replay": "driver",
    "simulate_prepared": "driver",
    # .engine
    "ReplayEngine": "engine",
    "build_private_filter": "engine",
    "get_private_filter": "engine",
    # .kernels
    "KERNEL_TABLE": "kernels",
    "resolve_kernel": "kernels",
    # .parallel
    "SweepTask": "parallel",
    "policy_chunks": "parallel",
    # .tables
    "format_table": "tables",
    "table1_rows": "tables",
    "table2_rows": "tables",
    "table3_rows": "tables",
    # .timing
    "TimingModel": "timing",
}

__all__ = list(_EXPORTS)


def __getattr__(name: str):
    submodule = _EXPORTS.get(name)
    if submodule is None:
        raise AttributeError(
            f"module {__name__!r} has no attribute {name!r}"
        )
    from importlib import import_module

    value = getattr(import_module(f".{submodule}", __name__), name)
    globals()[name] = value  # cache: __getattr__ fires once per name
    return value


def __dir__():
    return sorted(set(globals()) | set(_EXPORTS))


if TYPE_CHECKING:  # pragma: no cover - static-analysis-only imports
    from .analysis import (
        ReuseProfile,
        miss_rate_curve,
        per_site_reuse_stats,
        reuse_distances,
    )
    from .driver import (
        ENGINES,
        POPT_POLICIES,
        SimResult,
        grasp_ranges_for,
        prepare_dbg_run,
        prepare_run,
        replay,
        simulate_prepared,
    )
    from .engine import (
        ReplayEngine,
        build_private_filter,
        get_private_filter,
    )
    from .kernels import KERNEL_TABLE, resolve_kernel
    from .parallel import SweepTask, policy_chunks
    from .tables import format_table, table1_rows, table2_rows, table3_rows
    from .timing import TimingModel
