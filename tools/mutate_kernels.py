#!/usr/bin/env python3
"""Mutation gate for the compiled kernels (replay and trace).

Each entry of :data:`MUTANTS` is a ``(label, exact text, replacement)``
edit of ``src/repro/sim/kernels.c``. For every mutant the script copies
``src/``, ``tests/`` and ``pyproject.toml`` into a fresh temporary tree,
applies the edit there, points ``REPRO_CKERNELS_DIR`` at a fresh empty
directory (so the mutated source is compiled, never a cached build) and
runs::

    python -m pytest tests/sim/test_engine.py tests/sim/test_ckernels_build.py \
        tests/apps/test_trace_kernel.py -x -q

A mutant is killed when that run fails (or hangs past
:data:`TIMEOUT_S`).
The gate fails (exit status 1) when any mutant survives, when its text
does not occur exactly once in ``kernels.c`` (the list went stale), or
when the mutated source does not build. The unmutated tree runs first
and must build and pass: a gate whose tests already fail, or that runs
without compiled kernels, would kill every mutant and prove nothing.

Usage::

    python tools/mutate_kernels.py
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import List, Optional, Tuple

REPO_ROOT = Path(__file__).resolve().parents[1]
KERNELS_C = Path("src/repro/sim/kernels.c")
TESTS = (
    "tests/sim/test_engine.py", "tests/sim/test_ckernels_build.py",
    "tests/apps/test_trace_kernel.py",
)
#: A test run this long is a hang, which counts as a kill.
TIMEOUT_S = 600.0

#: (label, exact text in kernels.c, replacement). Every text must occur
#: exactly once, so each mutant names one site.
MUTANTS: Tuple[Tuple[str, str, str], ...] = (
    # T-OPT's next-reference search: stepping past a reference equal to
    # the outer vertex, and skipping the last element's compare.
    (
        "topt-search-le",
        "base = base[half - 1] < key ? base + half : base;",
        "base = base[half - 1] <= key ? base + half : base;",
    ),
    (
        "topt-search-no-last-step",
        "return (base - a) + (*base < key);",
        "return base - a;",
    ),
    # DRRIP's PSEL passes its maximum by one.
    (
        "drrip-psel-past-max",
        "if (*psel < psel_max) ++*psel;",
        "if (*psel <= psel_max) ++*psel;",
    ),
    # An evicted dirty line is not counted as a write-back.
    (
        "cache-evict-no-writeback",
        "if (c->dirty[s * c->ways + way]) c->writebacks++;",
        "",
    ),
    # RRIP's victim is the last way at the maximum RRPV, not the first.
    (
        "rrip-victim-last-max",
        "i64 gt = r > top;",
        "i64 gt = r >= top;",
    ),
    # The trace kernel: a masked access fires on every edge, ...
    (
        "traversal-mask-ignored",
        "return row < 0 || masks[row * num_vertices + nbr] != 0;",
        "return 1;",
    ),
    # ... the dense access loses its write flag, ...
    (
        "traversal-dense-write-dropped",
        "if (has_dense) emit(&t, dense, v, vertex);",
        "if (has_dense) { emit(&t, dense, v, vertex); "
        "t.writes[t.at - 1] = 0; }",
    ),
    # ... and the per-edge accesses come before the neighbor read.
    (
        "traversal-edge-before-neighbor",
        """            emit(&t, na, e, vertex);
            for (a = 0; a < per_edge; a++) {
                const i64 *slot = edge + a * TRAVERSAL_SLOT_WORDS;
                if (fires(slot, masks, num_vertices, nbr))
                    emit(&t, slot, nbr, vertex);
            }
""",
        """            for (a = 0; a < per_edge; a++) {
                const i64 *slot = edge + a * TRAVERSAL_SLOT_WORDS;
                if (fires(slot, masks, num_vertices, nbr))
                    emit(&t, slot, nbr, vertex);
            }
            emit(&t, na, e, vertex);
""",
    ),
)

#: Asserts in the copy that the compiled library builds and loads.
_LOADS = (
    "from repro.sim import ckernels; import sys; "
    "sys.exit(0 if ckernels.lib() is not None else "
    "'kernels did not build: ' + str(ckernels.build_error()))"
)


def _copy_tree(dest: Path) -> None:
    ignore = shutil.ignore_patterns("__pycache__", "*.pyc", ".hypothesis")
    for name in ("src", "tests"):
        shutil.copytree(REPO_ROOT / name, dest / name, ignore=ignore)
    shutil.copy2(REPO_ROOT / "pyproject.toml", dest / "pyproject.toml")


def _run(tree: Path) -> Tuple[str, float, str]:
    """Build the tree's kernels in a fresh directory and run the tests.

    Returns ``(outcome, seconds, output tail)`` where outcome is
    ``"unbuilt"``, ``"pass"``, ``"fail"`` or ``"timeout"``.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = str(tree / "src")
    env["REPRO_CKERNELS_DIR"] = str(tree / "ckernels")
    start = time.perf_counter()
    built = subprocess.run(
        [sys.executable, "-c", _LOADS], cwd=tree, env=env,
        capture_output=True, text=True,
    )
    if built.returncode != 0:
        return "unbuilt", time.perf_counter() - start, built.stderr.strip()
    try:
        done = subprocess.run(
            [sys.executable, "-m", "pytest", *TESTS, "-x", "-q",
             "-p", "no:cacheprovider"],
            cwd=tree, env=env, capture_output=True, text=True,
            timeout=TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        return "timeout", time.perf_counter() - start, ""
    tail = "\n".join(done.stdout.strip().splitlines()[-3:])
    outcome = "pass" if done.returncode == 0 else "fail"
    return outcome, time.perf_counter() - start, tail


def _mutate(tree: Path, text: str, replacement: str) -> Optional[str]:
    """Apply one edit in the copy; the reason it cannot, or None."""
    path = tree / KERNELS_C
    source = path.read_text()
    count = source.count(text)
    if count != 1:
        return f"text occurs {count} times in {KERNELS_C}, expected once"
    path.write_text(source.replace(text, replacement))
    return None


def main() -> int:
    failures: List[str] = []
    with tempfile.TemporaryDirectory(prefix="mutate-kernels-") as scratch:
        baseline = Path(scratch) / "baseline"
        _copy_tree(baseline)
        outcome, seconds, tail = _run(baseline)
        print(f"baseline: {outcome} in {seconds:.1f}s", flush=True)
        if outcome != "pass":
            print(tail)
            print("the unmutated tree must build and pass; gate not run")
            return 1
        for label, text, replacement in MUTANTS:
            tree = Path(scratch) / label
            _copy_tree(tree)
            reason = _mutate(tree, text, replacement)
            if reason is not None:
                outcome, seconds, tail = "stale", 0.0, reason
            else:
                outcome, seconds, tail = _run(tree)
            verdict = {
                "fail": "killed", "timeout": "killed (timeout)",
                "pass": "SURVIVED", "unbuilt": "DOES NOT BUILD",
                "stale": "STALE",
            }[outcome]
            print(f"{label}: {verdict} in {seconds:.1f}s", flush=True)
            if outcome not in ("fail", "timeout"):
                print(f"  {tail}")
                failures.append(label)
            shutil.rmtree(tree, ignore_errors=True)
    if failures:
        print(f"mutation gate FAILED: {', '.join(failures)}")
        return 1
    print(f"mutation gate OK: {len(MUTANTS)} mutant(s) killed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
