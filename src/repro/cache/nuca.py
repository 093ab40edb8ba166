"""S-NUCA bank mapping, including P-OPT's modified irregData mapping.

Section V-E: a standard S-NUCA LLC stripes consecutive cache lines across
banks (``bank = (addr >> 6) % numBanks``). One Rereference Matrix cache
line holds the next references of 64 irregData lines, so with plain
striping a replacement in bank B would routinely need RM data from another
bank. P-OPT instead interleaves *irregData* in 64-line blocks
(``bank = (addr >> 12) % numBanks``) while keeping default striping for
everything else (Reactive-NUCA gives per-page mapping policies). The
invariant this buys — every irregData line and its RM entry live in the
same bank — is checked by :func:`rm_access_is_bank_local` and exercised in
tests and the timing model.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..errors import CacheConfigError

__all__ = ["BankMapper"]


@dataclass(frozen=True)
class BankMapper:
    """Computes NUCA bank IDs for data and Rereference Matrix lines."""

    num_banks: int
    line_size: int = 64
    block_lines: int = 64  # irregData lines covered by one RM line (64 x 1B)

    def __post_init__(self) -> None:
        if self.num_banks <= 0:
            raise CacheConfigError("num_banks must be positive")
        if self.line_size & (self.line_size - 1):
            raise CacheConfigError("line_size must be a power of two")

    def default_bank(self, addr: int) -> int:
        """Standard S-NUCA striping: consecutive lines rotate banks."""
        return (addr // self.line_size) % self.num_banks

    def irreg_bank(self, addr: int, irreg_base: int) -> int:
        """P-OPT's modified mapping for irregData (64-line blocks).

        Computed relative to the irregData base so the mapping is stable
        regardless of where the huge page lands.
        """
        line_id = (addr - irreg_base) // self.line_size
        return (line_id // self.block_lines) % self.num_banks

    def rm_bank(self, irreg_line_id: int) -> int:
        """Bank of the RM cache line holding ``irreg_line_id``'s entry.

        RM columns are striped with the default policy; RM line ``k``
        covers irregData lines ``[64k, 64k+64)``.
        """
        rm_line_index = irreg_line_id // self.block_lines
        return rm_line_index % self.num_banks

    def rm_access_is_bank_local(self, addr: int, irreg_base: int) -> bool:
        """True iff an irregData line's RM entry lives in the line's bank.

        Under the modified mapping this holds for *every* address; under
        default striping it fails for almost all of them — the motivation
        for Section V-E.
        """
        line_id = (addr - irreg_base) // self.line_size
        return self.irreg_bank(addr, irreg_base) == self.rm_bank(line_id)
