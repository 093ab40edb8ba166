"""Memory substrate: simulated address space and access traces."""

from .layout import AddressSpace, ArraySpan
from .trace import AccessKind, MemoryTrace, concat_traces

__all__ = [
    "AddressSpace",
    "ArraySpan",
    "AccessKind",
    "MemoryTrace",
    "concat_traces",
]
