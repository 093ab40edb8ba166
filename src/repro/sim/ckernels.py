"""Build/load harness for the compiled replay kernels (``kernels.c``).

The compiled kernels are an *optional* acceleration: the policy
classes under the generic engine are the executable specification.
When this module reports the library unavailable,
:func:`repro.sim.kernels.resolve_kernel` returns None, so every policy
replays through the generic engine, and the private-level filter takes
its numpy/Python path. Availability requires only a system C compiler
(``cc``/``gcc``/``clang``, override with ``REPRO_CC``) — the shared
object is built on first use with one compile command (:data:`_CFLAGS`
plus the ``-D`` flags), cached under ``build/ckernels/`` keyed by a
hash of the C source and that whole command (so edits to the source,
the flags or the compiler rebuild automatically, and concurrent workers
racing the build land on the same file via an atomic rename), and
loaded with :mod:`ctypes`. No third-party packaging or FFI dependency
is involved.

The kernel dialect (no heap, no external calls, no state kept between
calls) is enforced by construction rather than by a linter:

- calls: the object is freestanding and links against nothing
  (``-ffreestanding -nostdlib -Wl,-z,defs``), so a libc, heap or any
  other external call fails the link, naming the symbol and kernel;
- state: before any ``.so`` is loaded — freshly built or a cache hit —
  its ELF64 section headers are read, and an object with a writable
  section other than ``.dynamic`` (a ``static`` counter's ``.bss`` or
  ``.data``) is refused.

The C boundary has one source of truth per side, so it cannot drift:

- constants: every :data:`repro.sim.constants.C_DEFINES` entry is
  passed as ``-DNAME=((int64_t)VALUE)``; ``kernels.c`` defines none of
  them itself, so a name missing from the registry fails the build (and
  a local ``#define`` of one is a "redefined" warning, which the
  ``-Werror`` build in the test suite makes fatal);
- signatures: the argtypes of every non-``static`` ``k_*`` function are
  derived from its definition in the source just compiled. Pointer
  parameters become C-contiguous :func:`numpy.ctypeslib.ndpointer`
  types, so a wrong-width, strided or missing argument raises
  ``ctypes.ArgumentError`` or ``TypeError`` at the call instead of
  marshalling garbage. A parameter outside
  ``[const] i64|i32|u8|u16|double [*]`` (or a non-``void`` kernel)
  refuses to load, naming the kernel.

A missing toolchain, a failed build or a refused load is *not* silent:
the diagnostic is kept in :func:`build_error` and surfaced once per
process as a ``RuntimeWarning`` — the generic-engine fallback still
engages, but never invisibly. To run
without the compiled kernels on purpose (the no-toolchain equivalence
suite does), point ``REPRO_CC`` at a failing compiler such as
``/bin/false`` and ``REPRO_CKERNELS_DIR`` at an empty directory.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import re
import shutil
import struct
import subprocess
import tempfile
import warnings
from pathlib import Path
from types import SimpleNamespace
from typing import Any, Dict, List, Optional, Tuple, Union

import numpy as np

from .constants import C_DEFINES

__all__ = [
    "lib",
    "available",
    "build_dir",
    "build_error",
    "reset",
    "CC_ENV",
]

#: Environment variable overriding the compiler executable.
CC_ENV = "REPRO_CC"

_SOURCE = Path(__file__).with_name("kernels.c")

#: Every flag of the kernel build except the ``-D`` flags: a
#: freestanding C99 shared object that links against nothing, so any
#: call the file does not define itself fails the link.
_CFLAGS = (
    "-O2", "-shared", "-fPIC", "-std=c99", "-ffreestanding", "-nostdlib",
    "-Wl,-z,defs",
)

#: Tri-state cache: None = not tried yet, False = tried and unavailable,
#: SimpleNamespace of typed ``k_*`` functions = loaded. Per process: the
#: .so itself is content-hash-cached on disk with an atomic rename.
_LIB: Union[None, bool, SimpleNamespace] = None

#: Human-readable reason the last build/load attempt failed (compiler
#: diagnostic, missing toolchain, dlopen error), or None.
_BUILD_ERROR: Optional[str] = None

#: C parameter base type -> (numpy dtype for pointers, ctypes scalar).
_PARAM_TYPES: Dict[str, Tuple[Any, Any]] = {
    "i64": (np.int64, ctypes.c_int64),
    "i32": (np.int32, ctypes.c_int32),
    "u8": (np.uint8, ctypes.c_uint8),
    "u16": (np.uint16, ctypes.c_uint16),
    "double": (np.float64, ctypes.c_double),
}

#: A file-scope ``k_*`` definition: return/storage words, name, params.
_KERNEL = re.compile(
    r"^(?P<head>(?:[A-Za-z_]\w*[\s*]+)+?)(?P<name>k_\w+)\s*"
    r"\((?P<params>[^)]*)\)",
    re.MULTILINE,
)

_PARAM = re.compile(
    r"(?:const\s+)?(i64|i32|u8|u16|double)\s*(\*?)\s*[A-Za-z_]\w*"
)


def _signatures(source: str) -> Dict[str, List[Any]]:
    """Argtypes of every non-``static`` ``k_*`` function in ``source``.

    Raises ValueError naming the kernel (and parameter) the pattern
    cannot type, so an out-of-dialect kernel never loads half-typed.
    """
    sigs: Dict[str, List[Any]] = {}
    for match in _KERNEL.finditer(source):
        head, name = match.group("head").split(), match.group("name")
        if "static" in head:
            continue
        if head != ["void"]:
            raise ValueError(
                f"kernel {name} must return void, not {' '.join(head)}"
            )
        argtypes: List[Any] = []
        for param in match.group("params").split(","):
            typed = _PARAM.fullmatch(param.strip())
            if typed is None:
                raise ValueError(
                    f"kernel {name}: cannot type parameter "
                    f"{' '.join(param.split())!r}"
                )
            dtype, scalar = _PARAM_TYPES[typed.group(1)]
            argtypes.append(
                np.ctypeslib.ndpointer(dtype, flags="C_CONTIGUOUS")
                if typed.group(2) else scalar
            )
        sigs[name] = argtypes
    return sigs


def _define_flags() -> List[str]:
    """One ``-D`` flag per :data:`C_DEFINES` entry, in name order."""
    return [
        f"-D{name}=((int64_t){value})"
        for name, value in sorted(C_DEFINES.items())
    ]


def _compile_args(cc: str) -> List[str]:
    """The kernel build command without its input and output files."""
    return [cc, *_CFLAGS, *_define_flags()]


def build_dir() -> Path:
    """Where compiled kernels are cached (override: REPRO_CKERNELS_DIR)."""
    override = os.environ.get("REPRO_CKERNELS_DIR")
    if override:
        return Path(override)
    # repo-root/build/ckernels (this file lives at src/repro/sim/)
    return Path(__file__).resolve().parents[3] / "build" / "ckernels"


def _compiler() -> Optional[str]:
    override = os.environ.get(CC_ENV)
    if override:
        return override
    for name in ("cc", "gcc", "clang"):
        path = shutil.which(name)
        if path:
            return path
    return None


def _record_failure(reason: str) -> None:
    """Remember *why* the compiled path is unavailable and say so once.

    The generic-engine fallback still engages — the kernels are
    optional — but a missing or failing toolchain is a diagnostic the
    user (and CI) should see, not a silent slowdown.
    """
    global _BUILD_ERROR
    _BUILD_ERROR = reason
    warnings.warn(
        f"compiled replay kernels unavailable, falling back to "
        f"the generic engine: {reason}",
        RuntimeWarning,
        stacklevel=3,
    )


def _so_path(source: bytes, args: List[str]) -> Path:
    """Cache path of the shared object built from ``source`` by the
    compile command ``args`` (compiler and every flag)."""
    digest = hashlib.sha256(source + "\0".join(args).encode())
    return build_dir() / f"repro_kernels_{digest.hexdigest()[:16]}.so"


#: GNU ld's context line before an undefined reference.
_LINK_CONTEXT = re.compile(r"in function [`'](\w+)'")

#: ld.lld's ``>>> object:(function)`` line after an undefined symbol.
_LLD_CONTEXT = re.compile(r"^>>> .*:\((\w+)\)$")


def _first_error_line(stderr: str) -> str:
    """The diagnostic line that names the failure.

    A link failure reports its first undefined-symbol line plus the
    function that references it: GNU ld names the function on the line
    before its ``undefined reference`` line, ld.lld on a ``>>>`` line
    after its ``undefined symbol`` line (the ``collect2``/``clang`` summary
    names neither). Otherwise the compiler's first ``error`` line (gcc
    leads with an ``In function`` context line), else its first line.
    """
    lines = stderr.splitlines()
    function = None
    for index, line in enumerate(lines):
        context = _LINK_CONTEXT.search(line)
        if context is not None:
            function = context.group(1)
        elif "undefined reference" in line:
            return line if function is None else \
                f"{line} in function {function}"
        elif "undefined symbol" in line:
            for after in lines[index + 1:]:
                if not after.startswith(">>>"):
                    break
                referrer = _LLD_CONTEXT.match(after.strip())
                if referrer is not None:
                    return f"{line} in function {referrer.group(1)}"
            return line
    for line in lines:
        if "error" in line:
            return line
    return lines[0] if lines else "(no stderr)"


#: ELF section-header flag: the section is writable at run time.
_SHF_WRITE = 0x1


def _writable_sections(image: bytes) -> List[str]:
    """Names of the writable sections of an ELF64 object, bar ``.dynamic``.

    ``.dynamic`` is the loader's own table; any other writable section
    (``.data``, ``.bss``) is state a kernel could keep between calls.
    Raises ValueError when ``image`` is not an ELF64 object.
    """
    if image[:5] != b"\x7fELF\x02" or image[5] not in (1, 2):
        raise ValueError("not an ELF64 object")
    order = "<" if image[5] == 1 else ">"
    try:
        (shoff,) = struct.unpack_from(order + "Q", image, 0x28)
        entsize, count, names_index = struct.unpack_from(
            order + "HHH", image, 0x3A
        )
        # sh_name, sh_type, sh_flags, sh_addr, sh_offset
        headers = [
            struct.unpack_from(order + "IIQQQ", image, shoff + i * entsize)
            for i in range(count)
        ]
        names_at = headers[names_index][4]
        writable = []
        for name_off, _, flags, _, _ in headers:
            start = names_at + name_off
            name = image[start:image.index(b"\0", start)].decode(
                "ascii", "replace"
            )
            if flags & _SHF_WRITE and name != ".dynamic":
                writable.append(name)
    except (struct.error, IndexError, ValueError) as exc:
        raise ValueError(f"malformed ELF64 section table ({exc})") from exc
    return writable


def _unlink_quietly(path: str) -> None:
    try:
        os.unlink(path)
    except OSError:
        pass


def _build() -> Optional[SimpleNamespace]:
    cc = _compiler()
    if cc is None:
        _record_failure("no C compiler found (cc/gcc/clang)")
        return None
    source = _SOURCE.read_bytes()
    try:
        sigs = _signatures(source.decode("utf-8"))
    except ValueError as exc:
        _record_failure(str(exc))
        return None
    args = _compile_args(cc)
    so_path = _so_path(source, args)
    out_dir = so_path.parent
    if not so_path.exists():
        out_dir.mkdir(parents=True, exist_ok=True)
        fd, tmp = tempfile.mkstemp(suffix=".so", dir=str(out_dir))
        os.close(fd)
        try:
            subprocess.run(
                [*args, str(_SOURCE), "-o", tmp],
                check=True,
                capture_output=True,
            )
            os.replace(tmp, so_path)  # atomic: racing workers converge
        except subprocess.CalledProcessError as exc:
            stderr = (exc.stderr or b"").decode("utf-8", "replace").strip()
            _record_failure(
                f"{cc} exited with status {exc.returncode}: "
                f"{_first_error_line(stderr)}"
            )
            _unlink_quietly(tmp)
            return None
        except OSError as exc:
            _record_failure(f"could not run {cc}: {exc}")
            _unlink_quietly(tmp)
            return None
    try:
        writable = _writable_sections(so_path.read_bytes())
    except (OSError, ValueError) as exc:
        _record_failure(f"could not check {so_path.name}: {exc}")
        return None
    if writable:
        _record_failure(
            f"{so_path.name} has writable sections {', '.join(writable)}: "
            f"kernels may keep no state between calls"
        )
        return None
    try:
        cdll = ctypes.CDLL(str(so_path))
    except OSError as exc:
        _record_failure(f"could not load {so_path.name}: {exc}")
        return None
    kernels = SimpleNamespace()
    for name, argtypes in sigs.items():
        fn = getattr(cdll, name)
        fn.argtypes = argtypes
        fn.restype = None
        setattr(kernels, name, fn)
    return kernels


def lib() -> Optional[SimpleNamespace]:
    """The typed ``k_*`` kernel functions, or None (generic fallback).

    Only functions whose argtypes were derived from ``kernels.c`` are
    handed out. Builds/loads once per process and memoizes the outcome
    (including failure — a missing toolchain is not retried).
    """
    global _LIB
    if _LIB is None:
        built = _build()
        _LIB = built if built is not None else False
    return _LIB if isinstance(_LIB, SimpleNamespace) else None


def available() -> bool:
    """Whether the compiled fast path would be used right now."""
    return lib() is not None


def build_error() -> Optional[str]:
    """Why the compiled kernels are unavailable, or None.

    Populated by the first failed :func:`lib` attempt (compiler exit
    status + the undefined reference or first stderr line mentioning
    ``error``, an untypeable kernel signature, a ``.so`` with writable
    sections, missing toolchain, or dlopen failure);
    stays None while the compiled path works or was never tried.
    """
    return _BUILD_ERROR


def reset() -> None:
    """Forget the memoized build outcome (test hook).

    The next :func:`lib` call re-runs discovery/compilation; cached
    ``.so`` files under :func:`build_dir` are left in place.
    """
    global _LIB, _BUILD_ERROR
    _LIB = None
    _BUILD_ERROR = None
