"""Build diagnostics and the derived C boundary of the compiled kernels.

The compiled path is allowed to be unavailable (every policy then
replays through the generic engine), but a missing or failing toolchain
must surface: once as a RuntimeWarning at first use, and persistently
through ``build_error()``.

The boundary itself is derived, not declared: argtypes come from the
``k_*`` definitions in ``kernels.c`` and constants from ``C_DEFINES``,
so a bad call raises at the call and a bad definition refuses to load.
The kernel dialect is enforced the same way: an external call fails the
freestanding link, and a ``.so`` with mutable state is refused before
it loads.
"""

import ctypes
import re
import subprocess
import warnings

import numpy as np
import pytest

from repro.errors import SimulationError
from repro.sim import ckernels
from repro.sim.constants import LLC_WAY_WORDS


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

    @pytest.mark.parametrize("stderr, want", [
        ("/usr/bin/ld: /tmp/ccA1.o: in function `k_leak':\n"
         "kernels.c:(.text+0x9): undefined reference to `malloc'\n"
         "collect2: error: ld returned 1 exit status\n",
         "kernels.c:(.text+0x9): undefined reference to `malloc' "
         "in function k_leak"),
        ("ld.lld: error: undefined symbol: malloc\n"
         ">>> referenced by kernels.c\n"
         ">>>               /tmp/kernels-1a2b.o:(k_leak)\n"
         "clang: error: linker command failed with exit code 1\n",
         "ld.lld: error: undefined symbol: malloc in function k_leak"),
        ("ld.lld: error: undefined symbol: malloc\n"
         "clang: error: linker command failed with exit code 1\n",
         "ld.lld: error: undefined symbol: malloc"),
        ("kernels.c: In function 'k_x':\n"
         "kernels.c:3:5: error: expected ';'\n",
         "kernels.c:3:5: error: expected ';'"),
    ], ids=["gnu-ld", "lld", "lld-no-referrer", "compile-error"])
    def test_first_error_line_names_the_kernel(self, stderr, want):
        assert ckernels._first_error_line(stderr) == want

    def test_failure_is_memoized_and_warned_once(
        self, isolated_build, monkeypatch
    ):
        monkeypatch.setenv(ckernels.CC_ENV, "/bin/false")
        with pytest.warns(RuntimeWarning):
            ckernels.lib()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert ckernels.lib() is None

    def test_missing_compiler_warns_and_records(
        self, isolated_build, monkeypatch
    ):
        monkeypatch.delenv(ckernels.CC_ENV, raising=False)
        monkeypatch.setenv("PATH", str(isolated_build))
        with pytest.warns(RuntimeWarning, match="no C compiler found"):
            assert ckernels.lib() is None
        assert ckernels.build_error() == "no C compiler found (cc/gcc/clang)"

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

    def test_kernels_compile_warning_free(self, toolchain):
        """The shipped build, plus ``-Wall -Werror``. The runtime build
        has no ``-Werror``, so a new compiler's warning fails this test
        and never disables the kernels."""
        result = _compile_werror(ckernels._SOURCE, toolchain)
        assert result.returncode == 0, result.stderr


def _compile_werror(source, out_dir):
    """The loader's compile command plus ``-Wall -Werror``."""
    return subprocess.run(
        [*ckernels._compile_args(ckernels._compiler()), "-Wall", "-Werror",
         str(source), "-o", str(out_dir / "werror.so")],
        capture_output=True,
        text=True,
    )


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
        return clib, (lines, len(lines), cap, ws, len(ws), out)

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
        sidx = np.zeros(8, dtype=np.int64)
        ws = np.empty(LLC_WAY_WORDS["k_lru"] * 2 + 1, dtype=np.int64)
        out = np.zeros(4, dtype=np.int64)
        with pytest.raises(ctypes.ArgumentError, match="uint8"):
            clib.k_lru(lines, writes, sidx, 8, 1, 2, 0, ws, len(ws), out)

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

    def test_u16_and_i32_parameters_are_typed(self):
        (argtypes,) = ckernels._signatures(
            "void k_x(const u16 *entries, u16 n, const i32 *refs, i32 m)"
            "\n{\n}\n"
        ).values()
        entries, n, refs, m = argtypes
        assert entries is np.ctypeslib.ndpointer(
            np.uint16, flags="C_CONTIGUOUS"
        )
        assert n is ctypes.c_uint16
        assert refs is np.ctypeslib.ndpointer(np.int32, flags="C_CONTIGUOUS")
        assert m is ctypes.c_int32

    @pytest.mark.parametrize("dtype", [np.uint8, np.int64])
    def test_wrong_width_popt_entries_raise_at_call(self, toolchain, dtype):
        clib = ckernels.lib()
        assert clib is not None
        args = _next_ref_args("k_popt", entries=np.zeros(4, dtype=dtype))
        with pytest.raises(ctypes.ArgumentError, match="uint16"):
            clib.k_popt(*args)

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


#: Seeded kernels go right after the typedefs they use.
_TYPEDEFS = "typedef uint8_t u8;\n"


def _next_ref_args(name, **override):
    """Well-typed arguments for an empty (n = 0) call of ``name``, one
    set of one way and one stream, with ``override`` swapped in."""
    i64 = np.zeros(1, dtype=np.int64)
    u8 = np.zeros(1, dtype=np.uint8)
    i32 = np.zeros(1, dtype=np.int32)
    head = dict(lines=i64, writes=u8, sidx=i64, n=0, num_sets=1, ways=1)
    tail = {
        "ws": np.zeros(64, dtype=np.int64),
        "ws_len": 64,
        "out": np.zeros(4, dtype=np.int64),
    }
    args = {
        "k_drrip": dict(
            **head, rmax=3, psel=511, psel_max=1023, leader=i64,
            trickled=u8, **tail,
        ),
        "k_topt": dict(
            **head, vertices=i32, sid=i64, off=i64, obase=i64,
            offsets=np.zeros(2, dtype=np.int64), refs=i32, **tail,
            cnt=np.zeros(2, dtype=np.int64),
        ),
        "k_popt": dict(
            **head, vertices=i32, sid=i64, off=i64, bases=i64,
            num_streams=1, sparams=np.zeros(8, dtype=np.int64),
            entries=np.zeros(4, dtype=np.uint16), prefer_streaming=1,
            drrip_ties=1, rmax=3, psel_max=1023, leader=i64, trickled=u8,
            **tail,
            cnt=np.zeros(5, dtype=np.int64),
        ),
    }[name]
    assert set(override) <= set(args)
    args.update(override)
    return list(args.values())


class TestNextRefBoundary:
    """The fill outcomes are uint8 and the vertex channel int32 at every
    kernel that reads them: the float64 draws and int64 vertices these
    parameters once took raise at the call instead of being misread."""

    def _lib(self):
        clib = ckernels.lib()
        if clib is None:
            pytest.skip(f"compiled kernels unavailable: "
                        f"{ckernels.build_error()}")
        return clib

    @pytest.mark.parametrize("name", ["k_drrip", "k_topt", "k_popt"])
    def test_well_typed_empty_call_runs(self, name):
        out = np.zeros(4, dtype=np.int64)
        getattr(self._lib(), name)(*_next_ref_args(name, out=out))
        assert not out.any()

    @pytest.mark.parametrize("name", ["k_drrip", "k_popt"])
    def test_float64_fill_outcomes_raise_at_call(self, name):
        args = _next_ref_args(name, trickled=np.zeros(1, dtype=np.float64))
        with pytest.raises(ctypes.ArgumentError, match="uint8"):
            getattr(self._lib(), name)(*args)

    @pytest.mark.parametrize("name", ["k_topt", "k_popt"])
    def test_int64_vertices_raise_at_call(self, name):
        args = _next_ref_args(name, vertices=np.zeros(1, dtype=np.int64))
        with pytest.raises(ctypes.ArgumentError, match="int32"):
            getattr(self._lib(), name)(*args)


#: One policy per exported LLC kernel (LIP, SRRIP and BRRIP reuse
#: k_lru and k_drrip).
_LLC_KERNEL_POLICIES = {
    "k_lru": "LRU", "k_bit_plru": "Bit-PLRU", "k_opt": "OPT",
    "k_drrip": "DRRIP", "k_topt": "T-OPT", "k_popt": "P-OPT",
    "k_ship": "SHiP-PC", "k_hawkeye": "Hawkeye",
}


@pytest.mark.needs_ckernels
class TestShortWorkspace:
    """Every exported function checks its workspace against what its
    carve needs: one word short, it writes nothing and the wrapper
    raises, naming the kernel and the words needed and given."""

    @pytest.fixture
    def one_word_short(self, monkeypatch):
        from repro.sim import kernels

        def short(size):
            return np.empty(int(size) - 1, dtype=np.int64)

        return lambda: monkeypatch.setattr(kernels, "_ws", short)

    def _raises(self, name):
        return pytest.raises(
            SimulationError,
            match=rf"^kernel {name} needs a workspace of (\d+) words, "
                  rf"was given (\d+)$",
        )

    @pytest.mark.parametrize("name", sorted(_LLC_KERNEL_POLICIES))
    def test_llc_kernel(self, name, one_word_short):
        from repro.apps import PageRank
        from repro.graph import uniform_random
        from repro.sim import prepare_run, simulate_prepared
        from tests.sim.test_engine import small_hierarchy

        prepared = prepare_run(
            PageRank(), uniform_random(128, avg_degree=4.0, seed=3)
        )
        policy = _LLC_KERNEL_POLICIES[name]
        # Warm every memoized filter product first, so the short
        # workspace reaches the replay kernel and nothing before it.
        fits = simulate_prepared(prepared, policy, small_hierarchy())
        assert fits.details["engine"]["kernel"] is not None
        one_word_short()
        with self._raises(name) as caught:
            simulate_prepared(prepared, policy, small_hierarchy())
        needed, given = map(int, re.findall(r"\d+", str(caught.value)))
        assert needed == given + 1

    def test_private_filter(self, one_word_short):
        from repro.cache import CacheConfig
        from repro.sim.kernels import fused_private_filter

        one_word_short()
        with self._raises("k_private_filter"):
            fused_private_filter(
                np.arange(64, dtype=np.int64) * 64, np.zeros(64, bool), 6,
                CacheConfig("L1", num_sets=2, num_ways=4),
                CacheConfig("L2", num_sets=4, num_ways=4),
            )

    def test_next_use(self, one_word_short):
        from repro.sim.kernels import compiled_next_use

        lines = np.arange(16, dtype=np.int64) % 5
        one_word_short()
        with self._raises("k_next_use"):
            compiled_next_use(lines)


class TestDialect:
    """Each dialect rule has one enforcer: the link, the section check
    on load, or the ``-Werror`` build."""

    def test_shipped_build_is_freestanding(self, toolchain):
        """The shipped kernels link against nothing: the build command
        carries the dialect flags and still succeeds."""
        args = ckernels._compile_args(ckernels._compiler())
        for flag in ("-std=c99", "-ffreestanding", "-nostdlib",
                     "-Wl,-z,defs"):
            assert flag in args
        assert ckernels.lib() is not None, ckernels.build_error()

    def test_shipped_kernels_have_no_writable_section(self, toolchain):
        """The object built from the shipped source is the baseline of
        the section check: no writable section but ``.dynamic``."""
        assert ckernels.lib() is not None, ckernels.build_error()
        so = ckernels._so_path(
            ckernels._SOURCE.read_bytes(),
            ckernels._compile_args(ckernels._compiler()),
        )
        assert so.is_file()
        assert ckernels._writable_sections(so.read_bytes()) == []

    @pytest.mark.parametrize("seed, symbol", [
        ("void *malloc(unsigned long);\n"
         "void k_leak(i64 *ws) { ws[0] = (i64)malloc(8); }\n", "malloc"),
        ("i64 helper(i64 x);\n"
         "void k_leak(i64 *ws) { ws[0] = helper(ws[0]); }\n", "helper"),
        ("#include <string.h>\n"
         "void k_leak(i64 *ws) { memset(ws, 0, 8); }\n", "memset"),
    ], ids=["malloc", "external", "include"])
    def test_external_call_fails_the_link(
        self, toolchain, tmp_path, monkeypatch, seed, symbol
    ):
        _with_source(monkeypatch, tmp_path, _TYPEDEFS, _TYPEDEFS + seed)
        with pytest.warns(RuntimeWarning, match=symbol):
            assert ckernels.lib() is None
        error = ckernels.build_error() or ""
        assert f"undefined reference to `{symbol}'" in error
        assert "k_leak" in error

    @pytest.mark.parametrize("seed, section", [
        ("static i64 calls;\n"
         "void k_count(i64 *ws) { ws[0] = ++calls; }\n", ".bss"),
        ("static i64 calls = 3;\n"
         "void k_count(i64 *ws) { ws[0] = ++calls; }\n", ".data"),
        ("void k_count(i64 *ws) { static i64 calls; ws[0] = ++calls; }\n",
         ".bss"),
    ], ids=["file-scope", "initialized", "function-scope"])
    def test_mutable_state_is_refused(
        self, toolchain, tmp_path, monkeypatch, seed, section
    ):
        _with_source(monkeypatch, tmp_path, _TYPEDEFS, _TYPEDEFS + seed)
        with pytest.warns(RuntimeWarning, match="writable sections"):
            assert ckernels.lib() is None
        error = ckernels.build_error() or ""
        assert section in error
        assert error.startswith("repro_kernels_")

    def test_static_const_table_loads(
        self, toolchain, tmp_path, monkeypatch
    ):
        _with_source(
            monkeypatch, tmp_path, _TYPEDEFS,
            _TYPEDEFS + "static const i64 lut[2] = {5, 7};\n"
            "void k_lut(i64 *ws) { ws[0] = lut[ws[0] & 1]; }\n",
        )
        clib = ckernels.lib()
        assert clib is not None, ckernels.build_error()
        ws = np.array([1], dtype=np.int64)
        clib.k_lut(ws)
        assert ws[0] == 7

    def test_redefined_constant_fails_werror_build(
        self, toolchain, tmp_path
    ):
        source = ckernels._SOURCE.read_text(encoding="utf-8")
        seeded = tmp_path / "kernels.c"
        seeded.write_text(
            source.replace(_TYPEDEFS, _TYPEDEFS + "#define TOPT_NEVER 5\n", 1),
            encoding="utf-8",
        )
        result = _compile_werror(seeded, tmp_path)
        assert result.returncode != 0
        assert "TOPT_NEVER" in result.stderr
        assert "redefined" in result.stderr

    @pytest.mark.parametrize("image", [
        b"#!/bin/sh\n", b"\x7fELF\x02\x01" + bytes(10),
    ], ids=["not-elf", "truncated"])
    def test_unreadable_section_table_raises(self, image):
        with pytest.raises(ValueError, match="ELF64"):
            ckernels._writable_sections(image)

    def test_stale_hosted_object_is_refused(self, toolchain):
        """A ``.so`` with libc's writable sections never loads, even as
        a cache hit under the current name."""
        cc = ckernels._compiler()
        so = ckernels._so_path(
            ckernels._SOURCE.read_bytes(), ckernels._compile_args(cc)
        )
        subprocess.run(
            [cc, "-O2", "-shared", "-fPIC", *ckernels._define_flags(),
             str(ckernels._SOURCE), "-o", str(so)],
            check=True, capture_output=True,
        )
        with pytest.warns(RuntimeWarning, match="writable sections"):
            assert ckernels.lib() is None
        assert so.name in (ckernels.build_error() or "")


class TestSoDigest:
    def _path(self):
        return ckernels._so_path(
            ckernels._SOURCE.read_bytes(), ckernels._compile_args("cc")
        )

    def test_define_value_changes_the_digest(self, monkeypatch):
        before = self._path()
        monkeypatch.setitem(
            ckernels.C_DEFINES, "SHIP_SHCT_MAX",
            ckernels.C_DEFINES["SHIP_SHCT_MAX"] + 1,
        )
        assert self._path() != before

    def test_compile_command_changes_the_digest(self, monkeypatch):
        """The whole command is hashed, so an object built with other
        flags or another compiler is never picked up as a cache hit."""
        before = self._path()
        source = ckernels._SOURCE.read_bytes()
        assert ckernels._so_path(source, ckernels._compile_args("clang")) \
            != before
        monkeypatch.setattr(
            ckernels, "_CFLAGS",
            tuple(f for f in ckernels._CFLAGS if f != "-ffreestanding"),
        )
        assert self._path() != before
