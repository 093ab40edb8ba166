"""Read-only contract for shared worker state.

Everything memoized across policy replays or worker tasks (filters,
decoded traces, store loads, memoized graphs and their transposes,
Rereference Matrices) is frozen (``writeable=False``) at creation, and
the dispatch tables are read-only mappings: an in-place write raises on
the line that makes it. ``.copy()`` is the documented escape hatch and
must stay writeable.
"""

import numpy as np
import pytest

from repro.apps import PageRank
from repro.cache import CacheConfig, HierarchyConfig, scaled_hierarchy
from repro.graph import datasets, uniform_random
from repro.memory.trace import decode_trace
from repro.sim import build_private_filter, prepare_run, simulate_prepared
from repro.sim.artifacts import ArtifactStore
from repro.sim.driver import POPT_VARIANTS
from repro.sim.engine import get_private_filter
from repro.sim.kernels import KERNEL_TABLE
from repro.sim.parallel import APP_FACTORIES
from repro.sim.spec import ENTRIES, FIGURES, STUDIES


def small_hierarchy():
    return HierarchyConfig(
        l1=CacheConfig("L1", num_sets=2, num_ways=8),
        l2=CacheConfig("L2", num_sets=4, num_ways=8),
        llc=CacheConfig("LLC", num_sets=8, num_ways=16),
    )


@pytest.fixture(scope="module")
def prepared():
    return prepare_run(PageRank(), uniform_random(256, avg_degree=5.0,
                                                  seed=3))


@pytest.fixture(scope="module")
def filt(prepared):
    return get_private_filter(prepared, small_hierarchy())


class TestFilterChannels:
    def test_channels_are_read_only(self, filt):
        for channel in (filt.mask, filt.lines, filt.pcs, filt.writes,
                        filt.vertices, filt.indices):
            assert not channel.flags.writeable
            with pytest.raises(ValueError):
                channel[0] = 0

    def test_memoized_products_are_read_only(self, filt):
        config = small_hierarchy().llc
        products = [
            filt.compact_next_use(),
            filt.set_index_array(config),
            filt.fill_outcomes(0),
            *filt.stream_membership(((0, 4),)),
        ]
        for product in products:
            assert not product.flags.writeable
            with pytest.raises(ValueError):
                product[...] = 0

    def test_copy_is_writeable(self, filt):
        scratch = filt.lines.copy()
        assert scratch.flags.writeable
        scratch[0] = 99  # no raise


class TestDecodeChannels:
    def test_decode_products_read_only(self, prepared):
        decoded = decode_trace(prepared.trace, 6)
        for channel in (decoded.lines, decoded.pcs, decoded.writes,
                        decoded.vertices):
            assert not channel.flags.writeable
            with pytest.raises(ValueError):
                channel[0] = 0


class TestStoreLoads:
    def test_loaded_arrays_read_only(self, tmp_path):
        store = ArtifactStore(tmp_path / "arts")
        store.put("graph", {"k": 1},
                  arrays={"data": np.arange(8, dtype=np.int64)})
        entry = store.get("graph", {"k": 1})
        data = entry["arrays"]["data"]
        assert not data.flags.writeable
        with pytest.raises(ValueError):
            data[0] = 7
        assert data.copy().flags.writeable

    def test_rehydrated_filter_read_only(self, tmp_path, prepared):
        from repro.sim import artifacts

        store = ArtifactStore(tmp_path / "arts")
        config = small_hierarchy()
        built = build_private_filter(prepared.trace, config)
        artifacts.store_filter(store, prepared.trace, config, built)
        loaded = artifacts.cached_filter(store, prepared.trace, config)
        assert loaded is not None
        for channel in (loaded.mask, loaded.lines, loaded.writes):
            assert not channel.flags.writeable
            with pytest.raises(ValueError):
                channel[0] = 0


class TestSharedGraphs:
    def test_memoized_transpose_read_only(self):
        transpose = datasets.load("URAND", scale="tiny").transpose()
        for array in (transpose.offsets, transpose.neighbors):
            assert not array.flags.writeable
            with pytest.raises(ValueError):
                array[0] = 0


class TestRereferenceMatrices:
    def test_prepared_matrix_entries_read_only(self):
        prepared = prepare_run(
            PageRank(), datasets.load("URAND", scale="tiny")
        )
        simulate_prepared(prepared, "P-OPT", scaled_hierarchy("tiny"))
        assert prepared.matrices
        for matrix in prepared.matrices.values():
            assert not matrix.entries.flags.writeable
            with pytest.raises(ValueError):
                matrix.entries[0, 0] = 0


class TestDispatchTables:
    @pytest.mark.parametrize(
        "table",
        [APP_FACTORIES, KERNEL_TABLE, ENTRIES, FIGURES, STUDIES,
         POPT_VARIANTS],
        ids=["APP_FACTORIES", "KERNEL_TABLE", "ENTRIES", "FIGURES",
             "STUDIES", "POPT_VARIANTS"],
    )
    def test_write_raises_type_error(self, table):
        name = next(iter(table))
        with pytest.raises(TypeError):
            table[name] = None
        with pytest.raises(TypeError):
            del table[name]
