"""Replay-kernel coverage (simlint rule family ``kernels``).

The replay-kernel dispatch (PR 3) is string-keyed: policies advertise a
kernel name via ``replay_kernel()`` and :mod:`repro.sim.kernels` maps
names to implementations through ``KERNEL_TABLE``. Both halves can drift
independently — a renamed kernel or a typo'd advertisement degrades to
the generic path (or a runtime ``SimulationError``) without any import
failing. These rules catch that statically:

- ``kernel-resolve`` — every kernel name the policy registry advertises
  must resolve to a *callable* entry in ``KERNEL_TABLE``. Runs only when
  the scanned set contains the real ``sim/kernels.py`` (like the
  registry rules, it imports the package under lint).
- ``kernel-popt-coverage`` — the paper's own policies (T-OPT and P-OPT,
  ``repro.popt``) must stay kernel-covered: both classes advertised in
  the registry with names ``KERNEL_TABLE`` implements. Runs when the
  scanned set contains the real ``popt/topt.py`` or ``popt/policy.py``
  — dropping either entry would silently demote every headline sweep
  to the generic path.
"""

from __future__ import annotations

from typing import List, Optional

from .astutil import SourceModule
from .findings import Finding

__all__ = ["check_kernels", "kernels_module_scanned"]


def kernels_module_scanned(modules: List[SourceModule]) -> Optional[
    SourceModule
]:
    for module in modules:
        parts = module.path.parts
        if (
            module.path.name == "kernels.py"
            and len(parts) >= 2
            and parts[-2] == "sim"
        ):
            return module
    return None


def popt_module_scanned(modules: List[SourceModule]) -> Optional[
    SourceModule
]:
    for module in modules:
        parts = module.path.parts
        if (
            module.path.name in ("topt.py", "policy.py")
            and len(parts) >= 2
            and parts[-2] == "popt"
        ):
            return module
    return None


def _check_popt_coverage(path: str) -> List[Finding]:
    """The next-ref policies must stay wired to their replay kernels."""
    findings: List[Finding] = []

    from ..policies.registry import replay_kernels
    from ..popt.policy import POPT
    from ..popt.topt import TOPT
    from ..sim.kernels import KERNEL_TABLE

    advertised = replay_kernels()
    for policy_type in (TOPT, POPT):
        name = advertised.get(policy_type)
        if name is None:
            findings.append(Finding(
                rule="kernel-popt-coverage", path=path, line=1,
                message=f"{policy_type.__name__} is not in the replay-kernel "
                        "registry; the headline T-OPT/P-OPT sweeps would "
                        "silently replay through the generic path",
            ))
        elif name not in KERNEL_TABLE:
            findings.append(Finding(
                rule="kernel-popt-coverage", path=path, line=1,
                message=f"{policy_type.__name__} advertises replay kernel "
                        f"{name!r}, which KERNEL_TABLE does not implement "
                        f"(has {sorted(KERNEL_TABLE)})",
            ))
    return findings


def _check_resolution(path: str) -> List[Finding]:
    """Import-and-cross-check the advertised-name -> kernel-fn mapping."""
    findings: List[Finding] = []

    from ..policies.registry import replay_kernels
    from ..sim.kernels import KERNEL_TABLE

    for name, fn in sorted(KERNEL_TABLE.items()):
        if not callable(fn):
            findings.append(Finding(
                rule="kernel-resolve", path=path, line=1,
                message=f"KERNEL_TABLE[{name!r}] is not callable "
                        f"({type(fn).__name__})",
            ))

    advertised = replay_kernels()
    for policy_type, name in sorted(
        advertised.items(), key=lambda item: item[0].__name__
    ):
        if name not in KERNEL_TABLE:
            findings.append(Finding(
                rule="kernel-resolve", path=path, line=1,
                message=f"policy class {policy_type.__name__} advertises "
                        f"replay kernel {name!r}, which KERNEL_TABLE does "
                        f"not implement (has {sorted(KERNEL_TABLE)})",
            ))
    return findings


def check_kernels(modules: List[SourceModule]) -> List[Finding]:
    findings: List[Finding] = []
    kernels_mod = kernels_module_scanned(modules)
    if kernels_mod is not None:
        findings.extend(_check_resolution(kernels_mod.display_path))
    popt_mod = popt_module_scanned(modules)
    if popt_mod is not None:
        findings.extend(_check_popt_coverage(popt_mod.display_path))
    return findings
