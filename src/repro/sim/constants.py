"""Shared bit-layout and policy constants (the cross-language registry).

Algorithm 2's entry encodings (Fig. 5/6), the next-ref sentinels, the
RRIP insertion parameters and the SHiP/Hawkeye counter bounds are used
by the reference policies (``repro.popt``, ``repro.policies``), the
replay-kernel wrappers (``repro.sim.kernels``), and the compiled kernels
(``kernels.c``). This module is their only definition: every Python
site imports its numbers from here (the policy classes bind them as
class attributes), and :mod:`repro.sim.ckernels` compiles ``kernels.c``
with one ``-DNAME=((int64_t)VALUE)`` flag per :data:`C_DEFINES` entry,
so the C side has no copy of its own to fork.

It also declares the width contracts of the narrow fields
(:data:`WIDTH_CONTRACTS`) and the one helper that enforces them where a
value is narrowed (:func:`narrow`). The only package import is
:mod:`repro.errors` (no cycles): this is a leaf module of plain
integers, tuples, and small helpers.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple, cast

import numpy as np

from ..errors import WidthContractError

__all__ = [
    "saturating_max",
    "DEFAULT_RRPV_BITS",
    "DEFAULT_PSEL_BITS",
    "BRRIP_TRICKLE",
    "RM_VARIANTS",
    "RM_VARIANT_CODES",
    "RM_VARIANT_INTER_ONLY",
    "RM_VARIANT_INTER_INTRA",
    "RM_VARIANT_SINGLE_EPOCH",
    "rm_field_bits",
    "rm_msb",
    "rm_next_bit",
    "rm_low_mask",
    "rm_sentinel",
    "TOPT_NEVER",
    "TOPT_STREAMING",
    "POPT_STREAMING_NEXT_REF",
    "POPT_SPARAM_LAYOUT",
    "POPT_SPARAM_SLOTS",
    "KERNEL_SIG_SPACE",
    "SHIP_SHCT_MAX",
    "SHIP_SHCT_INITIAL",
    "HAWKEYE_RRPV_MAX",
    "HAWKEYE_COUNTER_MAX",
    "HAWKEYE_COUNTER_INITIAL",
    "C_DEFINES",
    "WIDTH_CONTRACTS",
    "narrow",
]


# ----------------------------------------------------------------------
# RRIP family (SRRIP / BRRIP / DRRIP and P-OPT's tie-break)
# ----------------------------------------------------------------------

#: Default RRPV width (2-bit RRIP, the paper's Table I baseline).
DEFAULT_RRPV_BITS = 2

#: Default set-dueling PSEL width (DRRIP).
DEFAULT_PSEL_BITS = 10

#: BRRIP's epsilon: probability that a fill inserts at the "long"
#: interval (``max - 1``) instead of the "distant" interval (``max``).
BRRIP_TRICKLE = 1.0 / 32.0


def saturating_max(bits: int) -> int:
    """Maximum value of a ``bits``-wide saturating counter (RRPV, PSEL)."""
    return (1 << bits) - 1


# ----------------------------------------------------------------------
# Rereference Matrix entry encodings (Fig. 5/6, Section IV)
# ----------------------------------------------------------------------

#: The three entry encodings, in variant-code order.
RM_VARIANTS: Tuple[str, str, str] = (
    "inter_only", "inter_intra", "single_epoch"
)

#: Integer codes the kernels (Python and C) use for the variants.
RM_VARIANT_INTER_ONLY = 0
RM_VARIANT_INTER_INTRA = 1
RM_VARIANT_SINGLE_EPOCH = 2

RM_VARIANT_CODES: Dict[str, int] = {
    "inter_only": RM_VARIANT_INTER_ONLY,
    "inter_intra": RM_VARIANT_INTER_INTRA,
    "single_epoch": RM_VARIANT_SINGLE_EPOCH,
}


def rm_field_bits(entry_bits: int, variant: str) -> int:
    """Bits of a ``variant`` entry that hold the distance / sub-epoch
    field: ``inter_only`` spends every bit on the distance,
    ``inter_intra`` loses one to the MSB flag, ``single_epoch`` loses
    two (MSB flag + next-epoch bit)."""
    if variant == "single_epoch":
        return entry_bits - 2
    if variant == "inter_only":
        return entry_bits
    return entry_bits - 1


def rm_msb(entry_bits: int) -> int:
    """The MSB flag of an entry (set = "not referenced this epoch")."""
    return 1 << (entry_bits - 1)


def rm_next_bit(entry_bits: int, variant: str) -> int:
    """``single_epoch``'s referenced-next-epoch bit (0 elsewhere)."""
    if variant == "single_epoch":
        return 1 << (entry_bits - 2)
    return 0


def rm_low_mask(entry_bits: int, variant: str) -> int:
    """Mask selecting the distance / sub-epoch field of an entry."""
    return (1 << rm_field_bits(entry_bits, variant)) - 1


def rm_sentinel(entry_bits: int, variant: str) -> int:
    """All-field-bits-set: "no known reference" / past-the-end epochs.

    This equals :func:`rm_low_mask` *by construction* — the PR 4 bug was
    exactly a decode mask narrower than the stored sentinel, which made
    past-the-end epochs look nearer than known-far in-matrix lines.
    """
    return rm_low_mask(entry_bits, variant)


# ----------------------------------------------------------------------
# Next-ref sentinels (T-OPT / P-OPT victim search)
# ----------------------------------------------------------------------

#: T-OPT next-ref for lines never referenced again (beyond any vertex id).
TOPT_NEVER = 1 << 40

#: T-OPT next-ref for streaming (non-irregular) lines: beyond
#: :data:`TOPT_NEVER` so the first streaming way always wins.
TOPT_STREAMING = 1 << 41

#: P-OPT's rank for streaming ways when ``prefer_streaming_victims`` is
#: off: beyond any Algorithm 2 distance (a 16-bit entry's sentinel is
#: 2^16 - 1) but below nothing else — matches ``POPT.choose_victim``.
POPT_STREAMING_NEXT_REF = 1 << 30

#: Layout of the per-stream parameter block ``k_popt`` decodes with
#: (one ``POPT_SPARAM_SLOTS``-slot int64 block per irregular stream, the
#: blocks back to back). ``stride`` is the stream's line count: its
#: epoch-major entries put column ``e`` at ``e * stride``.
POPT_SPARAM_LAYOUT: Tuple[str, ...] = (
    "variant",
    "msb",
    "low_mask",
    "next_bit",
    "epoch_size",
    "sub_epoch_size",
    "num_epochs",
    "stride",
)

POPT_SPARAM_SLOTS = len(POPT_SPARAM_LAYOUT)


# ----------------------------------------------------------------------
# PC-predictor policies (SHiP / Hawkeye replay kernels)
# ----------------------------------------------------------------------

#: Signature space of the PC-indexed predictor tables (SHiP's SHCT,
#: Hawkeye's OPTgen predictor).  Trace PCs are uint8 region tags, so
#: both kernels use dense 256-entry counter arrays where the reference
#: policies use defaultdicts.
KERNEL_SIG_SPACE = 256

#: SHiP signature-history counter bounds (``policies/ship.py``).
SHIP_SHCT_MAX = 3
SHIP_SHCT_INITIAL = 1

#: Hawkeye RRIP depth and predictor counter bounds
#: (``policies/hawkeye.py``).
HAWKEYE_RRPV_MAX = 7
HAWKEYE_COUNTER_MAX = 7
HAWKEYE_COUNTER_INITIAL = 4


# ----------------------------------------------------------------------
# Width contracts (checked wherever a value is narrowed)
# ----------------------------------------------------------------------

#: Every quantized field the simulator stores in a deliberately narrow
#: dtype: ``dtype`` lists the admissible storage dtypes, narrowest
#: first; ``max_bits`` is the value width (``[0, 2^bits)`` for unsigned
#: storage, ``[-2^bits, 2^bits)`` for signed); ``holds`` says what the
#: field carries. :func:`narrow` enforces a contract at every cast into
#: its storage, and the constructor of the type that carries the value
#: re-checks it, on every run:
#:
#: - ``rm.entries``, ``rm.epoch_index`` — ``RereferenceMatrix``
#:   (storage dtype, entries below ``2^entry_bits``, epoch count); the
#:   RM encode narrows through :func:`narrow`;
#: - ``csr.offsets``, ``csr.neighbors`` — ``CSRGraph`` (and the graph
#:   builders and file loaders, which narrow first and name their input);
#: - ``trace.vertex`` — ``traversal_trace`` and ``MemoryTrace``;
#:   ``CSRGraph`` keeps the vertex count below ``TOPT_NEVER``;
#: - ``trace.next_use`` — ``PreparedRun`` (trace length below
#:   ``POPT_STREAMING_NEXT_REF``).
WIDTH_CONTRACTS: Dict[str, Dict[str, object]] = {
    "rm.entries": {
        "dtype": ("uint8", "uint16"),
        "max_bits": 16,
        "holds": "Algorithm 2 entries: MSB flag | distance/sub-epoch "
                 "field, entry_bits in [3, 16]",
    },
    "rm.epoch_index": {
        "dtype": ("int64",),
        "max_bits": 16,
        "holds": "epoch column index: num_epochs <= 2^entry_bits by "
                 "epoch_geometry construction",
    },
    "trace.next_use": {
        "dtype": ("int64",),
        "max_bits": 30,
        "holds": "LLC-visible next-use index; must stay below "
                 "POPT_STREAMING_NEXT_REF so the streaming rank "
                 "outranks every real distance",
    },
    "trace.vertex": {
        "dtype": ("int32",),
        "max_bits": 31,
        "holds": "outer-loop vertex id per access; int32 keeps every id "
                 "below TOPT_NEVER, so the never-again sentinel outranks "
                 "every vertex",
    },
    "csr.offsets": {
        "dtype": ("int64",),
        "max_bits": 62,
        "holds": "CSR row offsets (edge counts)",
    },
    "csr.neighbors": {
        "dtype": ("int32",),
        "max_bits": 31,
        "holds": "neighbor vertex ids",
    },
}


def _dtype_within(dtype: np.dtype, low: int, high: int) -> bool:
    """True if every value of ``dtype`` lies in ``[low, high]``."""
    if dtype.kind == "b":
        return low <= 0 and high >= 1
    if dtype.kind in "iu":
        info = np.iinfo(dtype)
        return low <= int(info.min) and int(info.max) <= high
    return False


def narrow(
    values, contract: str, where: str, bits: Optional[int] = None
) -> np.ndarray:
    """Cast ``values`` to ``contract``'s storage dtype, refusing any
    value that does not fit.

    ``bits`` narrows the contract's ``max_bits`` to a live width (a
    Rereference Matrix's ``entry_bits``); the storage dtype is the
    narrowest declared one that holds it. Inputs whose dtype already
    lies inside the bound are cast without a scan; any other input costs
    one vectorized min/max. Raises
    :class:`~repro.errors.WidthContractError` naming the contract, the
    offending value and ``where`` (the file path, for loaders). Returns
    a C-contiguous array (``values`` itself when nothing changes).
    """
    spec = WIDTH_CONTRACTS[contract]
    max_bits = cast(int, spec["max_bits"])
    bits = max_bits if bits is None else int(bits)
    if bits > max_bits:
        raise WidthContractError(
            contract, f"width {bits}", where, f"{max_bits} bits"
        )
    dtype = next(
        np.dtype(name) for name in cast(Tuple[str, ...], spec["dtype"])
        if np.iinfo(name).bits >= bits + (np.dtype(name).kind == "i")
    )
    low = -(1 << bits) if dtype.kind == "i" else 0
    high = (1 << bits) - 1
    values = np.asarray(values)
    if values.size and not _dtype_within(values.dtype, low, high):
        smallest, largest = values.min().item(), values.max().item()
        if smallest < low or largest > high:
            raise WidthContractError(
                contract,
                smallest if smallest < low else largest,
                where,
                f"{bits}-bit {dtype.name} [{low}, {high}]",
            )
    return np.asarray(values, dtype=dtype, order="C")


# ----------------------------------------------------------------------
# Compile-time constants of kernels.c
# ----------------------------------------------------------------------

#: Every constant ``kernels.c`` names, passed to the compiler as
#: ``-DNAME=((int64_t)VALUE)`` (and hashed into the ``.so`` cache key),
#: so the C side cannot hold a different value. A name missing here is
#: an undeclared identifier, which fails the build. (Float-valued
#: constants like :data:`BRRIP_TRICKLE` are passed to C as arguments,
#: so they are not listed.)
C_DEFINES: Dict[str, int] = {
    "TOPT_NEVER": TOPT_NEVER,
    "POPT_STREAMING_NEXT_REF": POPT_STREAMING_NEXT_REF,
    "POPT_SPARAM_SLOTS": POPT_SPARAM_SLOTS,
    "POPT_SP_VARIANT": POPT_SPARAM_LAYOUT.index("variant"),
    "POPT_SP_MSB": POPT_SPARAM_LAYOUT.index("msb"),
    "POPT_SP_LOW_MASK": POPT_SPARAM_LAYOUT.index("low_mask"),
    "POPT_SP_NEXT_BIT": POPT_SPARAM_LAYOUT.index("next_bit"),
    "POPT_SP_EPOCH_SIZE": POPT_SPARAM_LAYOUT.index("epoch_size"),
    "POPT_SP_SUB_EPOCH_SIZE": POPT_SPARAM_LAYOUT.index("sub_epoch_size"),
    "POPT_SP_NUM_EPOCHS": POPT_SPARAM_LAYOUT.index("num_epochs"),
    "POPT_SP_STRIDE": POPT_SPARAM_LAYOUT.index("stride"),
    "RM_VARIANT_INTER_ONLY": RM_VARIANT_INTER_ONLY,
    "RM_VARIANT_INTER_INTRA": RM_VARIANT_INTER_INTRA,
    "RM_VARIANT_SINGLE_EPOCH": RM_VARIANT_SINGLE_EPOCH,
    "KERNEL_SIG_SPACE": KERNEL_SIG_SPACE,
    "SHIP_SHCT_MAX": SHIP_SHCT_MAX,
    "SHIP_SHCT_INITIAL": SHIP_SHCT_INITIAL,
    "HAWKEYE_RRPV_MAX": HAWKEYE_RRPV_MAX,
    "HAWKEYE_COUNTER_MAX": HAWKEYE_COUNTER_MAX,
    "HAWKEYE_COUNTER_INITIAL": HAWKEYE_COUNTER_INITIAL,
}
