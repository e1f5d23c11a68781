"""Shared fixtures and helpers; the expensive study artifacts are built once
per session."""

import numpy as np
import pytest

from gridstudies import distsim, lightning, stability
from gridstudies.report import write_columns


def synthesize_load_table(feeder, n_runs, seed):
    """Rows (run_index, load_name, kw) for an external load table, drawn with
    the internal distribution."""
    rows = []
    for run in range(n_runs):
        kw = distsim.draw_load_kw(feeder, seed, run)
        for ld, value in zip(feeder.loads, kw):
            rows.append((run, ld.name, value))
    return rows


def write_load_table(path, rows):
    """Write rows (an iterable of (run_index, load_name, kw)) as a run,load,kW
    table that distsim.read_load_table reads."""
    runs, names, kw = list(zip(*rows)) or ((), (), ())
    write_columns(path, distsim.LOAD_TABLE_HEADER,
                  [np.array(runs, dtype=np.int64), names,
                   np.array(kw, dtype=float)])


@pytest.fixture(scope="session")
def lightning_reference():
    """CI-scale Monte Carlo lightning study: 5000 strokes, fixed seed."""
    return lightning.run_study(lightning.StudyConfig(n=5000, seed=1))


@pytest.fixture(scope="session")
def stability_grid():
    """Verdicts over the default fault-duration / loading grid."""
    return stability.sweep()
