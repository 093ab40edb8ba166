"""Build diagnostics and the derived C boundary of the compiled kernels.

The compiled path is allowed to be unavailable (every policy then
replays through the generic engine), but a toolchain that exists and
*fails* must surface: once as a RuntimeWarning at first use, and
persistently through ``build_error()`` so ``python -m repro.analysis``
can report it.

The boundary itself is derived, not declared: argtypes come from the
``k_*`` definitions in ``kernels.c`` and constants from ``C_DEFINES``,
so a bad call raises at the call and a bad definition refuses to load.
"""

import ctypes
import subprocess
import warnings

import numpy as np
import pytest

from repro.sim import ckernels


@pytest.fixture
def isolated_build(tmp_path, monkeypatch):
    """Point the build cache at a tmpdir and restore memoized state."""
    monkeypatch.setenv("REPRO_CKERNELS_DIR", str(tmp_path))
    ckernels.reset()
    yield tmp_path
    ckernels.reset()


class TestBuildFailure:
    def test_failing_compiler_warns_and_records(
        self, isolated_build, monkeypatch
    ):
        monkeypatch.setenv(ckernels.CC_ENV, "/bin/false")
        with pytest.warns(RuntimeWarning, match="falling back"):
            assert ckernels.lib() is None
        assert not ckernels.available()
        error = ckernels.build_error()
        assert error is not None
        assert "/bin/false" in error
        assert "status 1" in error

    def test_failure_is_memoized_and_warned_once(
        self, isolated_build, monkeypatch
    ):
        monkeypatch.setenv(ckernels.CC_ENV, "/bin/false")
        with pytest.warns(RuntimeWarning):
            ckernels.lib()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert ckernels.lib() is None

    def test_unrunnable_compiler_is_reported(
        self, isolated_build, monkeypatch
    ):
        missing = str(isolated_build / "no-such-cc")
        monkeypatch.setenv(ckernels.CC_ENV, missing)
        with pytest.warns(RuntimeWarning, match="could not run"):
            assert ckernels.lib() is None
        assert "could not run" in (ckernels.build_error() or "")

    def test_stderr_first_line_is_captured(
        self, isolated_build, monkeypatch
    ):
        fake_cc = isolated_build / "fake-cc"
        fake_cc.write_text(
            "#!/bin/sh\necho 'kernels.c:1:1: error: boom' >&2\nexit 1\n"
        )
        fake_cc.chmod(0o755)
        monkeypatch.setenv(ckernels.CC_ENV, str(fake_cc))
        with pytest.warns(RuntimeWarning, match="boom"):
            ckernels.lib()
        assert "error: boom" in (ckernels.build_error() or "")

    def test_error_line_wins_over_gcc_context_line(
        self, isolated_build, monkeypatch
    ):
        # gcc prefixes the first diagnostic with an "In function" line.
        fake_cc = isolated_build / "fake-cc"
        fake_cc.write_text(
            "#!/bin/sh\n"
            "echo \"kernels.c: In function 'k_x':\" >&2\n"
            "echo \"kernels.c:9:22: error: 'TOPT_NEVER' undeclared\" >&2\n"
            "exit 1\n"
        )
        fake_cc.chmod(0o755)
        monkeypatch.setenv(ckernels.CC_ENV, str(fake_cc))
        with pytest.warns(RuntimeWarning, match="undeclared"):
            ckernels.lib()
        error = ckernels.build_error() or ""
        assert "error: 'TOPT_NEVER' undeclared" in error
        assert "In function" not in error

    def test_reset_clears_recorded_failure(
        self, isolated_build, monkeypatch
    ):
        monkeypatch.setenv(ckernels.CC_ENV, "/bin/false")
        with pytest.warns(RuntimeWarning):
            ckernels.lib()
        assert ckernels.build_error() is not None
        ckernels.reset()
        assert ckernels.build_error() is None


@pytest.fixture
def toolchain(isolated_build):
    """An isolated build cache behind a compiler that actually runs."""
    cc = ckernels._compiler()
    if cc is None:
        pytest.skip("no C compiler on this machine")
    try:
        subprocess.run([cc, "--version"], check=True, capture_output=True)
    except (OSError, subprocess.CalledProcessError):
        pytest.skip("toolchain present but not runnable")
    return isolated_build


class TestWorkingToolchain:
    def test_real_toolchain_builds_without_error(self, toolchain):
        assert ckernels.available()
        assert ckernels.build_error() is None


def _with_source(monkeypatch, tmp_path, old, new):
    """Point the loader at a copy of kernels.c with one edit."""
    source = ckernels._SOURCE.read_text(encoding="utf-8")
    assert old in source
    path = tmp_path / "kernels.c"
    path.write_text(source.replace(old, new, 1), encoding="utf-8")
    monkeypatch.setattr(ckernels, "_SOURCE", path)


class TestDerivedBoundary:
    def _next_use(self, lines):
        clib = ckernels.lib()
        if clib is None:
            pytest.skip(f"compiled kernels unavailable: "
                        f"{ckernels.build_error()}")
        cap = 2 * len(lines)
        ws = np.empty(2 * cap, dtype=np.int64)
        out = np.empty(len(lines), dtype=np.int64)
        return clib, (lines, len(lines), cap, ws, out)

    def test_int32_array_raises_at_call(self, toolchain):
        clib, args = self._next_use(np.arange(8, dtype=np.int32))
        with pytest.raises(ctypes.ArgumentError, match="int64"):
            clib.k_next_use(*args)

    def test_int64_writes_raise_at_call(self, toolchain):
        clib = ckernels.lib()
        if clib is None:
            pytest.skip(f"compiled kernels unavailable: "
                        f"{ckernels.build_error()}")
        lines = np.arange(8, dtype=np.int64)
        writes = np.zeros(8, dtype=np.int64)  # kernel takes const u8 *
        counts = np.array([8], dtype=np.int64)
        ws = np.empty(3 * 2, dtype=np.int64)
        out = np.zeros(4, dtype=np.int64)
        with pytest.raises(ctypes.ArgumentError, match="uint8"):
            clib.k_lru(lines, writes, counts, 1, 2, ws, out)

    def test_strided_array_raises_at_call(self, toolchain):
        clib, args = self._next_use(np.arange(16, dtype=np.int64)[::2])
        with pytest.raises(ctypes.ArgumentError, match="C_CONTIGUOUS"):
            clib.k_next_use(*args)

    def test_missing_argument_raises_at_call(self, toolchain):
        clib, args = self._next_use(np.arange(8, dtype=np.int64))
        with pytest.raises(TypeError):
            clib.k_next_use(*args[:-1])

    def test_only_derived_kernels_are_handed_out(self, toolchain):
        clib = ckernels.lib()
        assert clib is not None
        names = set(vars(clib))
        assert "k_next_use" in names and "k_popt" in names
        assert all(name.startswith("k_") for name in names)
        assert not hasattr(clib, "rrip_victim")  # static helper

    def test_int_parameter_refuses_to_load(
        self, toolchain, tmp_path, monkeypatch
    ):
        _with_source(
            monkeypatch, tmp_path,
            "void k_next_use(const i64 *lines, i64 n,",
            "void k_next_use(const i64 *lines, int n,",
        )
        with pytest.warns(RuntimeWarning, match="k_next_use"):
            assert ckernels.lib() is None
        error = ckernels.build_error() or ""
        assert "k_next_use" in error and "int n" in error

    def test_non_void_kernel_refuses_to_load(
        self, toolchain, tmp_path, monkeypatch
    ):
        _with_source(
            monkeypatch, tmp_path,
            "void k_next_use(", "i64 k_next_use(",
        )
        with pytest.warns(RuntimeWarning, match="k_next_use"):
            assert ckernels.lib() is None
        assert "k_next_use" in (ckernels.build_error() or "")

    def test_dropped_define_fails_the_build(self, toolchain, monkeypatch):
        monkeypatch.delitem(ckernels.C_DEFINES, "TOPT_NEVER")
        with pytest.warns(RuntimeWarning, match="TOPT_NEVER"):
            assert ckernels.lib() is None
        assert "TOPT_NEVER" in (ckernels.build_error() or "")


class TestSoDigest:
    def test_define_value_changes_the_digest(self, monkeypatch):
        source = ckernels._SOURCE.read_bytes()
        before = ckernels._so_path(source, ckernels._define_flags())
        monkeypatch.setitem(
            ckernels.C_DEFINES, "SHIP_SHCT_MAX",
            ckernels.C_DEFINES["SHIP_SHCT_MAX"] + 1,
        )
        after = ckernels._so_path(source, ckernels._define_flags())
        assert before != after
