"""Memory substrate: simulated address space and access traces."""

from .layout import AddressSpace, ArraySpan
from .trace import AccessKind, MemoryTrace

__all__ = [
    "AddressSpace",
    "ArraySpan",
    "AccessKind",
    "MemoryTrace",
]
