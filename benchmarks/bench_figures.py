"""Every :data:`repro.sim.spec.ENTRIES` figure and study, run once at
``REPRO_SCALE`` (thresholds are calibrated at ``small``): writes
``results/<id>.txt`` (rows, then the measured-vs-paper claims table)
and fails unless every claim that applies holds.
``REPRO_GRAPHS`` narrows the entries whose graphs default to the Table
III set."""

import inspect
import os

import pytest
from common import get_graphs, get_scale, report, run_once

from repro.sim.spec import ENTRIES
from repro.sim.tables import format_table


def figure_kwargs(figure):
    kwargs = {"scale": get_scale()}
    graphs = inspect.signature(figure.spec).parameters.get("graphs")
    if os.environ.get("REPRO_GRAPHS") and graphs and graphs.default is None:
        kwargs["graphs"] = get_graphs()
    return kwargs


@pytest.mark.parametrize("figure_id", list(ENTRIES))
def bench_figure(benchmark, figure_id):
    figure = ENTRIES[figure_id]
    rows = run_once(benchmark, figure.run, **figure_kwargs(figure))
    claims = figure.check(rows)
    report(figure_id, figure.title, rows,
           notes=format_table(claims, f"{figure_id}: paper claims"))
    failed = [claim for claim in claims if claim["holds"] is False]
    assert not failed, failed
