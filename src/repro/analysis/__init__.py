"""simlint: simulator-specific static analysis (``python -m
repro.analysis``).

The replay engine made policy sweeps fast by caching work across
policies; that sharing is only sound while every policy honors the
:class:`~repro.policies.base.ReplacementPolicy` contract and the replay
paths stay deterministic and vectorized. simlint checks those properties
*statically* — every CI run, not just when an equivalence test happens to
cover the broken combination. Rule families:

- ``policy``       — ReplacementPolicy contract conformance
- ``registry``     — policy registry drift (unreachable/broken names)
- ``determinism``  — unseeded RNGs, wall-clock reads, set-order
- ``hotpath``      — per-access work creeping back into replay loops
- ``kernels``      — replay-kernel dispatch coverage and loop hygiene;
  a ``kernels`` run also reports whether the compiled kernels build
  and load

``kernels.c`` itself is not linted: :mod:`repro.sim.ckernels` derives
its ctypes signatures and passes ``constants.C_DEFINES`` as ``-D``
flags, the freestanding link refuses external calls, and the loader
refuses a ``.so`` with writable sections.

See :mod:`repro.analysis.runner` for the CLI and
``# simlint: allow[rule]`` pragmas for intentional exceptions (pragmas
naming unknown rules are themselves flagged).
"""

from .findings import Finding, format_findings
from .hotpath import DEFAULT_REPLAY_PATH
from .runner import KNOWN_RULES, RULE_FAMILIES, SimlintConfig, main, run_simlint

__all__ = [
    "Finding",
    "format_findings",
    "run_simlint",
    "SimlintConfig",
    "DEFAULT_REPLAY_PATH",
    "RULE_FAMILIES",
    "KNOWN_RULES",
    "main",
]
