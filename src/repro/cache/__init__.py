"""Cache substrate: configs, set-associative caches, hierarchy, NUCA."""

from .cache import AccessContext, SetAssociativeCache
from .config import (
    CORE_FREQUENCY_GHZ,
    DRAM_LATENCY_NS,
    CacheConfig,
    HierarchyConfig,
    paper_table1,
    scaled_hierarchy,
)
from .hierarchy import (
    LEVEL_DRAM,
    LEVEL_L1,
    LEVEL_L2,
    LEVEL_LLC,
    CacheHierarchy,
)
from .nuca import BankMapper
from .sanitizer import DEFAULT_INTERVAL, CacheSanitizer, SanitizerReport
from .stats import MPKI_INSTRUCTIONS_PER_ACCESS, CacheStats

__all__ = [
    "AccessContext",
    "SetAssociativeCache",
    "CacheConfig",
    "HierarchyConfig",
    "paper_table1",
    "scaled_hierarchy",
    "DRAM_LATENCY_NS",
    "CORE_FREQUENCY_GHZ",
    "CacheHierarchy",
    "LEVEL_L1",
    "LEVEL_L2",
    "LEVEL_LLC",
    "LEVEL_DRAM",
    "BankMapper",
    "CacheStats",
    "MPKI_INSTRUCTIONS_PER_ACCESS",
    "CacheSanitizer",
    "SanitizerReport",
    "DEFAULT_INTERVAL",
]
