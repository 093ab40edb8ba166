"""Compiled LLC replay kernels (phase-3 fast paths).

The three-phase engine (:mod:`repro.sim.engine`) reduced a policy sweep
to "replay the LLC-visible stream per policy". The generic replay walks
``SetAssociativeCache.access`` once per access — a tag probe, a stats
update, two or three policy callbacks through ``AccessContext``. For the
policies that dominate sweeps, each kernel here replaces that walk with
one call into the compiled ``kernels.c`` (built on demand and loaded via
:mod:`repro.sim.ckernels`) and returns the final
:class:`~repro.cache.stats.CacheStats`, bit-identical to the generic and
reference paths (the equivalence suite in ``tests/sim/test_engine.py``
proves it). The policy classes under the generic engine are the
executable specification; a kernel is only a faster way to the same
counts.

Each ``kernel_*`` is a thin wrapper: it gathers the cached numpy
products of the :class:`~repro.sim.engine.PrivateFilter` (set indices,
next-use chain, region membership, fill outcomes), makes one C call and
wraps the counters. When no compiled library is available (no
toolchain, or a build that failed and said why), :func:`resolve_kernel`
returns None and every policy replays through the generic engine —
slower, never different.

The shared bit-identical transformations (vs. ``SetAssociativeCache``)
live in one set of always-inline cache helpers in ``kernels.c``, which
every LLC kernel calls; a kernel states only its policy's victim choice
and what a hit, an eviction and a fill update:

- *Residency* is a linear tag scan: a set's ways always hold distinct
  lines, so "first way whose tag matches" answers exactly what
  ``tags.index(line)`` answers, without raising on a miss.
- *Invalid-way fills* use a monotone ``filled`` counter: the cache fills
  the lowest invalid way, ways are never invalidated, so invalid ways
  are exactly ``filled..num_ways-1``.

Every LLC kernel carves one workspace layout, sized by :func:`_llc` from
:data:`~repro.sim.constants.LLC_WAY_WORDS`, the constant the C side
compiles with. Every exported function refuses a workspace shorter than
it needs, and the call raises :class:`~repro.errors.SimulationError`.

Every kernel walks the LLC-visible stream in access order, reading the
per-access set indices the filter memoizes per LLC set count
(:meth:`~repro.sim.engine.PrivateFilter.set_index_array`). Policies
that keep no cross-set state (LRU, LIP, Bit-PLRU, SRRIP, OPT) give the
same result in any interleaving of their sets; the others need exactly
this order, because global state couples the sets (the BRRIP-family
fill RNG, DRRIP's PSEL set-dueling counter, SHiP's signature table,
Hawkeye's predictor). Per policy:

- *LRU / LIP* share ``k_lru``: the reference's global clock is only
  ever **compared** within a set, so the access index serves as the
  clock. Hits stamp a fresh per-set maximum; LIP fills stamp
  ``min - 1``, a fresh per-set minimum, so the order relations (and tie
  structure) match the reference exactly.
- *SRRIP / BRRIP* are ``k_drrip`` with every set a leader of the one
  policy (role 1 or 2), so the set-dueling vote never decides an
  insertion. *RRIP aging* bumps once by ``rmax - max(rrpv)`` and then
  scans: the reference's age-until-found loop always terminates after
  one bump, at the same first-index victim.
- *OPT*: victims are chosen by first-max of stored next-use positions.
  The kernel stores **compact** (LLC-visible-stream) positions where the
  reference stores original-trace positions; the original->compact
  mapping is strictly increasing (with "no next use" mapping to the
  respective stream length), so every comparison — including first-max
  tie-breaks — is preserved.

The BRRIP-family kernels only ever test a fill draw against the trickle
probability, so they read that test's outcome: one uint8 per
LLC-visible access (a safe upper bound on fills), generated from the
policy's own ``random.Random`` seed and memoized on the filter per seed
(:meth:`~repro.sim.engine.PrivateFilter.fill_outcomes`) — consumption
order matches the reference's lazy draws exactly.

Random replacement has no kernel: its per-set streams come from
CPython's ``randrange``, and per-set draws cannot be pre-generated
without knowing each set's eviction count, which is the replay's own
output. It replays on the generic engine, like GRASP and BIP.

**Next-ref** (T-OPT, P-OPT) — the paper's own policies, with the
region-membership scan hoisted out of the loop: every access's line is
resolved against the irregular base/bound regions once per filter
(:meth:`~repro.sim.engine.PrivateFilter.stream_membership`), each way
remembers its resident line's annotation, resolved in C when the line
is filled, and the victim scan is a binary search over T-OPT's flat
refs CSR / inlined Algorithm 2 arithmetic over the epoch-major
Rereference Matrix columns (both inputs built once per prepared run).
P-OPT's DRRIP tie-break fills through the same C sequence as
``k_drrip``; T-OPT keeps no cross-set state and its counters are sums,
so the access order changes none of its results. ``k_popt`` compiles
its victim scan once per Rereference Matrix variant and picks one per
call. Both write the engine-cost counters the timing model and
Fig. 15 consume back onto the policy instance, bit-identical to the
generic path. No per-replay Python work remains beyond gathering those
memoized arrays.

The private-level front-end keeps a Python form: the per-set loop of
:func:`replay_bit_plru_stream` and the numpy next-use path of
:class:`~repro.sim.engine.PrivateFilter` run whenever the compiled
helpers here return None. Every policy, kernel-covered or not, needs
the private filter, and the generic engine has nothing to replace it.

Dispatch: :data:`KERNEL_TABLE` maps a policy's exact type to its kernel
name and implementation, and :func:`resolve_kernel` looks a policy up
there, so no policy can name a kernel that is not implemented. Kernels
read only *constructor* products off the policy instance (seed, RRPV
width, precomputed refs/matrices, ...) — the instance is never bound to
a cache — and only the next-ref kernels write anything back (their
replay counters).
"""

from __future__ import annotations

import random
import warnings
from dataclasses import dataclass
from types import MappingProxyType
from typing import (
    TYPE_CHECKING, Callable, Dict, List, Mapping, Optional, Tuple,
)

import numpy as np

from ..cache.cache import INVALID_TAG
from ..cache.config import CacheConfig
from ..cache.stats import CacheStats
from ..errors import SimulationError
from ..policies.hawkeye import Hawkeye
from ..policies.lip import LIP
from ..policies.lru import LRU
from ..policies.opt import BeladyOPT
from ..policies.plru import BitPLRU
from ..policies.rrip import BRRIP, DRRIP, SRRIP, drrip_leader_roles
from ..policies.ship import SHiP
from ..popt.arch import PoptCounters
from ..popt.policy import POPT
from ..popt.topt import TOPT
from . import ckernels
from .constants import (
    BRRIP_TRICKLE, HAWKEYE_SAMPLED_WORDS, HAWKEYE_SLOT_WORDS,
    KERNEL_SIG_SPACE, LLC_WAY_WORDS, NEXT_USE_SLOT_WORDS, PLRU_SET_WORDS,
    POPT_DECODE_SLOTS,
)

if TYPE_CHECKING:  # pragma: no cover
    from .engine import PrivateFilter

__all__ = [
    "KernelRequest",
    "KERNEL_TABLE",
    "brrip_fill_outcomes",
    "resolve_kernel",
    "replay_bit_plru_stream",
    "fused_private_filter",
    "compiled_next_use",
]


@dataclass
class KernelRequest:
    """Everything a replay kernel needs for one (policy, geometry) run."""

    config: CacheConfig       # effective LLC geometry (post way-reservation)
    policy: object            # unbound policy instance (parameters only)
    filt: "PrivateFilter"     # LLC-visible stream + memoized products


def _finish(config: CacheConfig, hits: int, misses: int, evictions: int,
            writebacks: int) -> CacheStats:
    return CacheStats(config.name, hits + misses, hits, misses, evictions,
                      writebacks)


# ----------------------------------------------------------------------
# C call helpers (ckernels types every pointer parameter, so arrays are
# passed as-is and a wrong dtype or layout raises at the call)
# ----------------------------------------------------------------------

def _ws(size: int) -> np.ndarray:
    """Scratch workspace for a compiled kernel (malloc-free C: every
    kernel carves its per-set/per-way state out of one caller-owned
    int64 array and initializes it itself, so ``empty`` is safe)."""
    return np.empty(int(size), dtype=np.int64)


def _call(name: str, args: tuple, words: int, out: np.ndarray,
          *rest) -> None:
    """``fn(*args, ws, len(ws), out, *rest)`` for kernel ``name``, with
    a fresh ``words``-word workspace.

    Every kernel checks the workspace against what its carve needs and,
    when it is short, writes nothing to it and returns minus the words
    it needs in ``out[0]``; that raises here, naming the kernel.
    """
    ws = _ws(words)
    getattr(ckernels.lib(), name)(*args, ws, len(ws), out, *rest)
    if out[0] < 0:
        raise SimulationError(
            f"kernel {name} needs a workspace of {-int(out[0])} words, "
            f"was given {len(ws)}"
        )


def _fill_draws(seed: int, n: int) -> np.ndarray:
    """Pre-generate the fill-order RNG draws a BRRIP-family replay may
    consume: the same ``random.Random(seed).random()`` sequence the
    reference policy draws lazily, one per access as an upper bound on
    fills (the compiled kernel consumes a prefix in identical order).

    numpy's MT19937 is the same Mersenne Twister as CPython's, and both
    turn two 32-bit words into a double with the same ``genrand_res53``
    formula, so loading ``random.Random(seed)``'s 624-word state and
    position into it yields that exact sequence in one vectorized call.
    """
    _, internal, _ = random.Random(seed).getstate()
    bits = np.random.MT19937()
    bits.state = {
        "bit_generator": "MT19937",
        "state": {
            "key": np.array(internal[:-1], dtype=np.uint32),
            "pos": internal[-1],
        },
    }
    return np.random.Generator(bits).random(n)


def brrip_fill_outcomes(seed: int, n: int) -> np.ndarray:
    """What the BRRIP-family kernels read of :func:`_fill_draws`: the
    kernels only ever test ``draw < BRRIP_TRICKLE``, so this is that
    test's outcome per draw, as uint8 (1 = insert at ``rmax - 1``)."""
    return (_fill_draws(seed, n) < BRRIP_TRICKLE).view(np.uint8)


# ----------------------------------------------------------------------
# Private-level replay (shared with the engine's filter construction)
# ----------------------------------------------------------------------


def replay_bit_plru_stream(
    lines: np.ndarray, writes: np.ndarray, config: CacheConfig
) -> Tuple[np.ndarray, CacheStats]:
    """Exact Bit-PLRU set-associative replay of one private level.

    Returns ``(hit_mask, stats)`` where ``hit_mask[i]`` says whether
    access ``i`` (of the stream this level observes) hit. Semantically
    identical to ``SetAssociativeCache(config, BitPLRU())`` fed the same
    stream — same fill, eviction, dirty, and MRU-bit rules — but grouped
    by set: a stable argsort partitions the accesses into per-set
    subsequences (sets never interact), and each set is simulated with a
    tight Python loop (a ``line -> way`` dict for residency). This loop
    is the front-end's executable reference: the compiled
    ``k_private_filter`` pass is checked against it.
    """
    n = len(lines)
    hit_mask = np.zeros(n, dtype=bool)
    if n == 0:
        return hit_mask, CacheStats(config.name)
    num_sets = config.num_sets
    num_ways = config.num_ways
    if config.sets_are_power_of_two:
        set_idx = lines & (num_sets - 1)
    else:
        set_idx = lines % num_sets
    order = np.argsort(set_idx, kind="stable")
    counts = np.bincount(set_idx, minlength=num_sets)
    sorted_lines = lines[order].tolist()
    sorted_writes = writes[order].tolist()
    hits = misses = evictions = writebacks = 0
    hit_flags: List[bool] = []
    append_flag = hit_flags.append
    start = 0
    for count in counts.tolist():
        if not count:
            continue
        stop = start + count
        where: Dict[int, int] = {}
        get = where.get
        resident = [INVALID_TAG] * num_ways
        mru = [False] * num_ways
        dirty = [False] * num_ways
        filled = 0
        for k in range(start, stop):
            line = sorted_lines[k]
            way = get(line)
            if way is not None:
                hits += 1
                append_flag(True)
                if sorted_writes[k]:
                    dirty[way] = True
            else:
                misses += 1
                append_flag(False)
                if filled < num_ways:
                    way = filled
                    filled += 1
                else:
                    # Bit-PLRU victim: lowest clear MRU bit (way 0 in the
                    # single-way degenerate case, where all bits stay set).
                    way = mru.index(False) if False in mru else 0
                    evictions += 1
                    if dirty[way]:
                        writebacks += 1
                    del where[resident[way]]
                resident[way] = line
                where[line] = way
                dirty[way] = sorted_writes[k]
            # Bit-PLRU touch: set the MRU bit; when the last zero bit
            # would disappear, clear every *other* bit.
            mru[way] = True
            if all(mru):
                mru = [False] * num_ways
                mru[way] = True
        start = stop

    hit_mask[order] = hit_flags
    return hit_mask, _finish(config, hits, misses, evictions, writebacks)


# ----------------------------------------------------------------------
# Fused compiled front-end (phases 1+2 and the filter's products)
# ----------------------------------------------------------------------


#: Widest private level ``k_private_filter`` replays: a set's MRU and
#: dirty bits are one 64-bit word each.
PLRU_MAX_WAYS = 64


def fused_private_filter(
    addresses: np.ndarray,
    writes: np.ndarray,
    line_shift: int,
    l1: Optional[CacheConfig],
    l2: Optional[CacheConfig],
) -> Optional[tuple]:
    """Fused phase-1/2 pass via ``k_private_filter``, or None.

    Decodes each address to a line and replays the L1 and (on L1 miss)
    L2 Bit-PLRU filters inline in access order, emitting the compact
    LLC-visible stream in one C call — no decoded channel arrays, no
    argsort partitions, no boolean-mask fancy-indexing round-trips.
    Access-order replay of independent sets is bit-identical to the
    set-partitioned replay :func:`replay_bit_plru_stream` performs, so
    the emitted stream and per-level stats match the decode+replay
    construction exactly (the fused-front-end equivalence suite proves
    it).

    Each set's replacement state is its resident lines plus three
    64-bit words (MRU bits, dirty bits, fill count), so a level wider
    than :data:`PLRU_MAX_WAYS` ways has no compiled form: the call
    warns, naming the level and its way count, and declines.

    Returns ``(visible_idx, lines, writes, l1_stats, l2_stats)`` with
    a level's stats ``None`` when its config is ``None``; returns
    ``None`` when no compiled library is available or a level is too
    wide (the decode+replay fallback runs in
    ``engine.build_private_filter``).
    """
    clib = ckernels.lib()
    if clib is None:
        return None
    wide = [
        f"{level.name} has {level.num_ways} ways"
        for level in (l1, l2)
        if level is not None and level.num_ways > PLRU_MAX_WAYS
    ]
    if wide:
        warnings.warn(
            f"compiled private filter declined ({'; '.join(wide)}, over "
            f"the {PLRU_MAX_WAYS}-way limit): replaying the private "
            f"levels in Python",
            RuntimeWarning,
            stacklevel=3,
        )
        return None
    n = len(addresses)
    addr_arr = np.ascontiguousarray(addresses, dtype=np.int64)
    writes_u8 = np.ascontiguousarray(writes, dtype=np.uint8)
    l1_sets = l1.num_sets if l1 is not None else 0
    l1_ways = l1.num_ways if l1 is not None else 0
    l1_pow2 = 1 if l1 is not None and l1.sets_are_power_of_two else 0
    l2_sets = l2.num_sets if l2 is not None else 0
    l2_ways = l2.num_ways if l2 is not None else 0
    l2_pow2 = 1 if l2 is not None and l2.sets_are_power_of_two else 0
    visible_idx = np.empty(n, dtype=np.int64)
    vis_lines = np.empty(n, dtype=np.int64)
    vis_writes = np.empty(n, dtype=np.uint8)
    out = np.zeros(9, dtype=np.int64)
    _call(
        "k_private_filter",
        (addr_arr, writes_u8, n, line_shift,
         l1_sets, l1_ways, l1_pow2, l2_sets, l2_ways, l2_pow2,
         visible_idx, vis_lines, vis_writes),
        l1_sets * (l1_ways + PLRU_SET_WORDS)
        + l2_sets * (l2_ways + PLRU_SET_WORDS),
        out,
    )
    counters = out.tolist()
    m = counters[0]
    l1_stats = _finish(l1, *counters[1:5]) if l1 is not None else None
    l2_stats = _finish(l2, *counters[5:9]) if l2 is not None else None
    return (
        visible_idx[:m].copy(),
        vis_lines[:m].copy(),
        vis_writes[:m].copy().view(np.bool_),
        l1_stats,
        l2_stats,
    )


def compiled_next_use(lines: np.ndarray) -> Optional[np.ndarray]:
    """Compact next-use chain via ``k_next_use``, or None.

    One backward C scan with an open-addressing line map replaces the
    ``np.lexsort`` neighbour-compare in
    :meth:`~repro.sim.engine.PrivateFilter.compact_next_use`; values
    are identical (next position of the same line, stream length when
    never seen again).
    """
    clib = ckernels.lib()
    if clib is None:
        return None
    m = len(lines)
    next_use = np.empty(m, dtype=np.int64)
    if m == 0:
        return next_use
    cap = 1
    while cap < 2 * m:
        cap <<= 1
    lines_arr = np.ascontiguousarray(lines, dtype=np.int64)
    _call("k_next_use", (lines_arr, m, cap), NEXT_USE_SLOT_WORDS * cap,
          next_use)
    return next_use


# ----------------------------------------------------------------------
# LLC replay kernels (access order over flat (set, way) state)
# ----------------------------------------------------------------------


def _llc(name: str, req: KernelRequest, *params, tail: int = 0,
         cnt: Optional[np.ndarray] = None) -> CacheStats:
    """Run LLC kernel ``name`` over the filter's stream in access order:
    ``fn(lines, writes, sidx, n, num_sets, ways, *params, ws, ws_len,
    out[, cnt])``.

    The workspace is the one layout every LLC kernel carves:
    ``LLC_WAY_WORDS[name]`` words per (set, way), the per-set fill
    counts, then ``tail`` words of the kernel's own state.
    """
    config, filt = req.config, req.filt
    num_sets, num_ways = config.num_sets, config.num_ways
    out = np.zeros(4, dtype=np.int64)
    _call(
        name,
        (np.ascontiguousarray(filt.lines, dtype=np.int64),
         np.ascontiguousarray(filt.writes, dtype=np.uint8),
         filt.set_index_array(config), len(filt.lines),
         num_sets, num_ways, *params),
        LLC_WAY_WORDS[name] * num_sets * num_ways + num_sets + tail,
        out,
        *(() if cnt is None else (cnt,)),
    )
    return _finish(config, *out.tolist())


def kernel_lru(req: KernelRequest) -> CacheStats:
    """Timestamp LRU, with the access index as the clock."""
    return _llc("k_lru", req, 0)


def kernel_lip(req: KernelRequest) -> CacheStats:
    """LIP: hits promote to a fresh maximum, fills insert at min - 1."""
    return _llc("k_lru", req, 1)


def kernel_bit_plru(req: KernelRequest) -> CacheStats:
    """Bit-PLRU at the LLC (same rules as the private-level replay)."""
    return _llc("k_bit_plru", req)


def kernel_opt(req: KernelRequest) -> CacheStats:
    """Belady's MIN over compact (LLC-visible-stream) next-use positions.

    The reference :class:`~repro.policies.opt.BeladyOPT` stores each
    line's next use as an *original trace* position; this kernel reads
    the filter's compact next-use chain instead (no ``AccessContext``
    needed). The mapping between the two coordinate systems is strictly
    increasing, so the first-max victim is the same.
    """
    return _llc("k_opt", req, req.filt.compact_next_use())


def kernel_srrip(req: KernelRequest) -> CacheStats:
    """SRRIP: ``k_drrip`` with every set an SRRIP leader (role 1), so
    every fill inserts at ``rmax - 1`` and no fill outcome is read."""
    return _llc(
        "k_drrip", req, req.policy.rrpv_max, 0, 0,
        np.full(req.config.num_sets, 1, dtype=np.int64),
        np.zeros(1, dtype=np.uint8),
    )


def kernel_brrip(req: KernelRequest) -> CacheStats:
    """BRRIP: ``k_drrip`` with every set a BRRIP leader (role 2).

    The trickle draw happens once per fill in global order — exactly the
    reference's RNG consumption — so the kernel reads the filter's
    memoized fill outcomes for the policy's seed
    (:meth:`~repro.sim.engine.PrivateFilter.fill_outcomes`).
    """
    policy = req.policy
    return _llc(
        "k_drrip", req, policy.rrpv_max, 0, 0,
        np.full(req.config.num_sets, 2, dtype=np.int64),
        req.filt.fill_outcomes(policy._seed),
    )


def kernel_drrip(req: KernelRequest) -> CacheStats:
    """DRRIP: set-dueling PSEL + global fill RNG, kept in access order.

    Inlines the reference's ``_miss_feedback`` -> role -> insertion
    sequence per fill: leader sets vote PSEL first, then the role (not
    the updated PSEL) decides the leader's own insertion; followers read
    the post-feedback PSEL. The set roles are the policy's own map
    (:func:`~repro.policies.rrip.drrip_leader_roles`).
    """
    policy = req.policy
    psel_max = policy.psel_max
    return _llc(
        "k_drrip", req, policy.rrpv_max, psel_max // 2, psel_max,
        np.array(drrip_leader_roles(req.config.num_sets,
                                    policy.leader_period), dtype=np.int64),
        req.filt.fill_outcomes(policy._seed),
    )


def kernel_ship(req: KernelRequest) -> CacheStats:
    """SHiP-PC: SRRIP substrate + global signature history table.

    The SHCT couples every set through PC signatures, so the kernel
    keeps access order. Trace PCs are uint8 region tags, so the
    reference's ``defaultdict`` SHCT becomes a dense
    ``KERNEL_SIG_SPACE``-entry counter array with identical semantics
    (counters saturate in ``[0, SHIP_SHCT_MAX]`` from
    ``SHIP_SHCT_INITIAL``). Only the PC-signature flavor dispatches here
    (``SHiP.fits_replay_kernel`` gates on ``signature_kind``); SHiP-Mem
    stays on the generic path.
    """
    return _llc(
        "k_ship", req,
        np.ascontiguousarray(req.filt.pcs, dtype=np.uint8),
        req.policy.rrpv_max,
        tail=KERNEL_SIG_SPACE,
    )


def kernel_hawkeye(req: KernelRequest) -> CacheStats:
    """Hawkeye: sampled OPTgen + PC predictor, kept in access order.

    The predictor couples every set, so the stream is replayed in
    original order with per-sampled-set OPTgen state. Two
    transformations versus :mod:`repro.policies.hawkeye`, both
    verdict-preserving:

    - The occupancy vector becomes a fixed ``window``-length circular
      buffer (append + head-trim never lets it grow past ``window``).
    - The per-set ``last_access`` dicts (which the reference prunes for
      memory) become one unpruned open-addressing map keyed by line: a
      line maps to exactly one set, and a pruned entry would fail the
      ``clock - previous <= window`` liveness test at any later lookup
      anyway, so verdicts are identical.

    PCs are uint8, so the predictor is a dense ``KERNEL_SIG_SPACE``
    counter array. Victim choice is Hawkeye's own (first way at
    ``HAWKEYE_RRPV_MAX``, else first way at the maximum RRPV — no aging).
    """
    policy = req.policy
    num_sets = req.config.num_sets
    sample_every = policy.sample_every
    window = policy.history_factor * req.config.num_ways
    num_sampled = (num_sets + sample_every - 1) // sample_every
    cap = 1
    while cap < 2 * (len(req.filt.lines) + 1):
        cap <<= 1
    return _llc(
        "k_hawkeye", req,
        np.ascontiguousarray(req.filt.pcs, dtype=np.uint8),
        sample_every, window, cap,
        tail=KERNEL_SIG_SPACE
        + num_sampled * (window + HAWKEYE_SAMPLED_WORDS)
        + HAWKEYE_SLOT_WORDS * cap,
    )


# ----------------------------------------------------------------------
# Next-ref kernels (the paper's own policies: T-OPT and P-OPT)
# ----------------------------------------------------------------------


def _next_ref_arrays(req: KernelRequest) -> tuple:
    """``(vertices, sid, off)`` in access order: the int32 vertex
    channel as the filter holds it and the filter's memoized stream
    membership over the policy's (line_base, line_bound) regions."""
    filt = req.filt
    sid, off = filt.stream_membership(
        tuple((base, bound) for base, bound, _ in req.policy._regions)
    )
    return np.ascontiguousarray(filt.vertices, dtype=np.int32), sid, off


def kernel_topt(req: KernelRequest) -> CacheStats:
    """T-OPT: access-order Belady emulation over the flat refs CSR.

    T-OPT keeps no cross-set state and both of its counters
    (``replacements``, ``transpose_walk_elements``) are sums over
    per-eviction work, so walking the stream in access order over flat
    (set, way) state gives the set-by-set result. Each fill resolves
    its line's (lo, hi) refs slice in C from the filter's memoized
    stream membership (stream, line offset) and each stream's base in
    the one concatenated offsets array — no per-replay annotation and
    no set partition. A victim scan searches each way's slice for the
    current outer vertex with a branch-free halving search that returns
    ``bisect_left``'s index (no data-dependent branch to mispredict),
    accounting the same walk elements as ``TOPT._next_ref``, and the
    first streaming way (``lo < 0``)
    short-circuits exactly like the reference. Each way also keeps its
    last search's vertex interval, answer and walk cost, and reuses them
    while the outer vertex stays inside the interval (the same answer a
    fresh search gives). Counters are written back onto the policy
    instance so the timing model reads identical values from every
    engine.
    """
    policy = req.policy
    cnt = np.zeros(2, dtype=np.int64)
    stats = _llc(
        "k_topt", req, *_next_ref_arrays(req),
        policy._offset_bases, policy._offsets_arr, policy._refs_arr,
        cnt=cnt,
    )
    policy.replacements = int(cnt[0])
    policy.transpose_walk_elements = int(cnt[1])
    return stats


def kernel_popt(req: KernelRequest) -> CacheStats:
    """P-OPT: access-order replay with inlined Algorithm 2 + DRRIP.

    The DRRIP tie-break's set-dueling PSEL and global fill RNG couple
    the sets exactly as in :func:`kernel_drrip`, so the access order is
    kept (``POPT.fits_replay_kernel`` admits this kernel only when the
    tie-break is exactly DRRIP). Region membership is the filter's
    memoized (stream, line offset) pair; each way remembers its resident
    line's (stream, RM row), resolved in C at fill time as the stream's
    base plus the line offset, so a victim scan is pure Algorithm 2
    arithmetic per way, with the reference's counter semantics:
    ``rm_lookups`` per irregular way examined, first-streaming-way
    short-circuit (when preferred), and first-max + DRRIP-RRPV
    resolution over tied ways.

    The matrices come in the policy's
    :class:`~repro.popt.policy.KernelMatrices` form: epoch-major uint16
    entries and a ``POPT_SPARAM_LAYOUT`` parameter block per stream,
    built once per prepared run and shared by every replay. All streams
    share one variant (``POPT`` refuses a mix), and the kernel runs the
    scan compiled for it; a victim scan decodes the vertex into each
    stream's epoch column and sub-epoch once, not once per way. The
    DRRIP fill outcomes are the filter's memo for the tie-break's seed.

    Epoch accounting is replay-independent — ``_note_epoch`` fires once
    per LLC-visible access (hit or fill), so ``epoch_transitions`` is
    the number of epoch changes along the vertex channel and
    ``bytes_streamed`` is one column per stream per transition —
    computed vectorized up front and written back with the scan
    counters as a fresh :class:`~repro.popt.arch.PoptCounters`.
    """
    policy = req.policy
    tie = policy._tie_break
    matrices = [matrix for _, _, matrix in policy._regions]
    verts, sid, off = _next_ref_arrays(req)

    epochs = verts // policy._epoch_size
    transitions = int(np.count_nonzero(epochs[1:] != epochs[:-1]))
    column_bytes = sum(matrix.column_bytes() for matrix in matrices)

    kernel_matrices = policy.kernel_matrices
    cnt = np.zeros(5, dtype=np.int64)
    stats = _llc(
        "k_popt", req, verts, sid, off,
        np.array(kernel_matrices.bases, dtype=np.int64),
        len(matrices), kernel_matrices.sparams, kernel_matrices.entries,
        1 if policy.prefer_streaming_victims else 0,
        tie.rrpv_max, tie.psel_max,
        np.array(drrip_leader_roles(req.config.num_sets, tie.leader_period),
                 dtype=np.int64),
        req.filt.fill_outcomes(tie._seed),
        # One scan's per-way next-refs, then the per-stream decode blocks.
        tail=req.config.num_ways + POPT_DECODE_SLOTS * len(matrices),
        cnt=cnt,
    )
    replacements, streaming_evictions, rm_lookups, ties, tie_candidates = (
        cnt.tolist()
    )
    policy.counters = PoptCounters(
        replacements=replacements,
        streaming_evictions=streaming_evictions,
        rm_lookups=rm_lookups,
        ties=ties,
        tie_candidates=tie_candidates,
        epoch_transitions=transitions,
        bytes_streamed=transitions * column_bytes,
    )
    return stats


# ----------------------------------------------------------------------
# Dispatch
# ----------------------------------------------------------------------

#: Exact policy type -> (kernel name, implementation). Looked up by
#: ``type(policy)``, not ``isinstance``, so a subclass never inherits a
#: kernel that does not model it: BIP refines LIP's insertion, and
#: GRASP, SDBP, Leeway, BIP and Random stay on the generic per-access
#: path (Random's per-set ``randrange`` streams have no compiled form).
#: The name is what ``EngineRun.kernel`` and
#: ``details["engine"]["kernel"]`` report. Read-only: a write raises
#: ``TypeError`` where it is made.
Kernel = Tuple[str, Callable[[KernelRequest], CacheStats]]
KERNEL_TABLE: Mapping[type, Kernel] = MappingProxyType({
    LRU: ("lru", kernel_lru),
    LIP: ("lip", kernel_lip),
    BitPLRU: ("bit-plru", kernel_bit_plru),
    SRRIP: ("srrip", kernel_srrip),
    BRRIP: ("brrip", kernel_brrip),
    DRRIP: ("drrip", kernel_drrip),
    SHiP: ("ship", kernel_ship),
    Hawkeye: ("hawkeye", kernel_hawkeye),
    BeladyOPT: ("opt", kernel_opt),
    TOPT: ("t-opt", kernel_topt),
    POPT: ("p-opt", kernel_popt),
})


def resolve_kernel(policy) -> Optional[Kernel]:
    """``(name, fn)`` for ``policy``'s replay kernel, else None.

    None when the policy's exact type has no kernel, when the instance
    declines it (``fits_replay_kernel()`` is False: SHiP-Mem, or P-OPT
    with a non-DRRIP tie-break), or when no compiled library is
    available. The policy then replays through the generic engine
    (``EngineRun.kernel`` is None), and
    :func:`~repro.sim.ckernels.build_error` says why the library is
    missing.
    """
    kernel = KERNEL_TABLE.get(type(policy))
    if kernel is None or not policy.fits_replay_kernel():
        return None
    return kernel if ckernels.lib() is not None else None
