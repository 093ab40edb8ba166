"""Shared fixtures for the test suite."""

import numpy as np
import pytest

from repro.graph import from_edges, uniform_random


@pytest.fixture
def paper_example_graph():
    """The paper's running example (Fig. 1): 5 vertices, 10 edges.

    CSR (out-neighbors): 0->{2}, 1->{0,4}, 2->{0,1,3}, 3->{1,4}, 4->{0,2}.
    The paper draws 8 edges; we use the full Fig. 5 matrix (10 non-zeros).
    """
    return from_edges(
        [
            (0, 2),
            (1, 0),
            (1, 4),
            (2, 0),
            (2, 1),
            (2, 3),
            (3, 1),
            (3, 4),
            (4, 0),
            (4, 2),
        ],
        num_vertices=5,
    )


@pytest.fixture
def small_random_graph():
    """A 512-vertex uniform graph for mechanics tests."""
    return uniform_random(512, avg_degree=8.0, seed=3)


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


def pytest_configure(config):
    config.addinivalue_line(
        "markers",
        "needs_ckernels: asserts that a compiled replay kernel ran; "
        "skipped when the compiled library is unavailable",
    )


def pytest_runtest_setup(item):
    if item.get_closest_marker("needs_ckernels") is None:
        return
    from repro.sim import ckernels

    if ckernels.lib() is None:
        pytest.skip(f"compiled kernels unavailable: {ckernels.build_error()}")


@pytest.fixture
def no_ckernels(tmp_path, monkeypatch):
    """Call to lose the compiled library for the rest of the test.

    Reproduces a host without a working toolchain: a failing compiler
    and an empty build cache, so the next ``ckernels.lib()`` fails the
    build (warning once) and every replay takes the generic engine.
    The memoized outcome is dropped again at teardown.
    """
    from repro.sim import ckernels

    def disable():
        monkeypatch.setenv(ckernels.CC_ENV, "/bin/false")
        monkeypatch.setenv("REPRO_CKERNELS_DIR", str(tmp_path / "no-cc"))
        ckernels.reset()
        with pytest.warns(RuntimeWarning, match="falling back"):
            assert ckernels.lib() is None

    yield disable
    ckernels.reset()
