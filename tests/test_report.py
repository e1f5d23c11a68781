"""Manifest and summary plumbing, and the columnar CSV writer against the
row writer it replaced."""

import csv
import json
import math
import os

import numpy as np
import pytest

from conftest import synthesize_load_table, write_load_table
from gridstudies import __version__
from gridstudies import cli, distsim, faultlab, lightning, stability
from gridstudies.report import (
    BLOCK_ROWS,
    MANIFEST_NAME,
    RunManifest,
    config_hash,
    summary_block,
    write_columns,
    write_manifest,
    write_text,
)


def read_manifest(out_dir) -> dict:
    with open(os.path.join(str(out_dir), MANIFEST_NAME)) as fh:
        return json.load(fh)


def test_config_hash_ignores_key_order():
    a = config_hash({"n": 5, "seed": 1, "out": "x"})
    b = config_hash({"out": "x", "seed": 1, "n": 5})
    assert a == b
    assert len(a) == 64


def test_config_hash_tracks_values():
    base = config_hash({"n": 5, "seed": 1})
    assert config_hash({"n": 5, "seed": 2}) != base
    assert config_hash({"n": 5}) != base


def test_manifest_round_trip(tmp_path):
    man = RunManifest(config={"study": "demo", "n": 3}, seed=42)
    f = tmp_path / "events.csv"
    f.write_text("a,b\n1,2\n")
    man.add_output(f)
    man.elapsed_s = 1.23456
    path = write_manifest(tmp_path, man)
    assert os.path.basename(path) == MANIFEST_NAME

    data = read_manifest(tmp_path)
    assert data["tool"] == "gridstudies"
    assert data["version"] == __version__
    assert data["seed"] == 42
    assert data["config"] == {"study": "demo", "n": 3}
    assert data["config_hash"] == config_hash({"study": "demo", "n": 3})
    assert data["elapsed_seconds"] == 1.235
    assert data["outputs"] == [{"name": "events.csv",
                                "bytes": f.stat().st_size}]
    assert data["error"] is None
    assert data["started_utc"]


def test_manifest_carries_error(tmp_path):
    man = RunManifest(config={}, seed=0, error="ValueError: boom")
    write_manifest(tmp_path, man)
    assert read_manifest(tmp_path)["error"] == "ValueError: boom"


def test_manifest_add_output_needs_existing_file(tmp_path):
    man = RunManifest(config={}, seed=0)
    with pytest.raises(OSError):
        man.add_output(tmp_path / "never-written.csv")


def test_manifest_is_valid_json_file(tmp_path):
    write_manifest(tmp_path, RunManifest(config={"k": [1, 2]}, seed=7))
    text = (tmp_path / MANIFEST_NAME).read_text()
    assert text.endswith("\n")
    assert json.loads(text)["config"] == {"k": [1, 2]}


def test_summary_block_formats():
    lines = summary_block([("Count", 3), ("Rate", 4.85), ("Tag", "ok"),
                           ("Tiny", 0.25)])
    assert lines == ["Count = 3", "Rate = 4.85", "Tag = ok", "Tiny = 0.25"]
    assert all(" = " in line for line in lines)


def test_write_text_round_trip(tmp_path):
    path = tmp_path / "summary.txt"
    write_text(path, ["a = 1", "", "b = 2"])
    assert path.read_text() == "a = 1\n\nb = 2\n"


# -- the columnar CSV writer ----------------------------------------------------

def write_csv_oracle(path, header, rows):
    """The row writer write_columns replaced, kept as its byte oracle: every
    float cell as repr(float(v)), other cells as the csv module prints them."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows([repr(float(v)) if isinstance(v, float) else v
                          for v in row] for row in rows)


def _assert_writer_matches(tmp_path, write, oracle):
    new, old = tmp_path / "new.csv", tmp_path / "old.csv"
    write(new)
    oracle(old)
    assert new.read_bytes() == old.read_bytes()


def _assert_same_bytes(tmp_path, header, columns, rows):
    _assert_writer_matches(tmp_path, lambda p: write_columns(p, header, columns),
                           lambda p: write_csv_oracle(p, header, rows))


EDGE_FLOATS = [-0.0, 0.0, 5e-324, -5e-324, 1e16, 1e-5, 1e-4, 0.1, 1 / 3,
               1.7976931348623157e308, math.nan, math.inf, -math.inf]
EDGE_INTS = [0, -1, 2**31, 2**62, -2**63, 2**63 - 1]
EDGE_LABELS = ["", "a,b", 'q"t', "plain", " lead", "cr\rlf\n"]


@pytest.mark.parametrize("n", [0, 1, BLOCK_ROWS, BLOCK_ROWS + 1,
                               3 * BLOCK_ROWS + 5])
def test_columns_match_row_oracle_on_edge_cells(tmp_path, n):
    k = np.arange(n)
    floats = np.array(EDGE_FLOATS)[k % len(EDGE_FLOATS)]
    ints = np.array(EDGE_INTS, dtype=np.int64)[k % len(EDGE_INTS)]
    big = np.full(n, 2**64 - 1, dtype=np.uint64)
    flags = k % 3 == 0
    labels = [EDGE_LABELS[i % len(EDGE_LABELS)] for i in range(n)]
    header = ["f", "label", "i", "u", "flag", "g"]
    rows = zip(floats.tolist(), labels, ints.tolist(), big.tolist(),
               flags.astype(int).tolist(), floats[::-1].tolist())
    _assert_same_bytes(tmp_path, header,
                       [floats, labels, ints, big, flags, floats[::-1]], rows)


def test_label_cells_quoted_as_csv_quotes_them(tmp_path):
    path = tmp_path / "labels.csv"
    write_columns(path, ["a", "b"], [["", "a,b", 'q"t'], np.array([1, 2, 3])])
    assert path.read_bytes() == b'a,b\r\n,1\r\n"a,b",2\r\n"q""t",3\r\n'


@pytest.mark.parametrize("column", [["", "x", ""], np.array([0.5, -0.0, 2.0]),
                                    (3, 4, 5)])
def test_one_column_tables_match_oracle(tmp_path, column):
    # csv quotes a lone empty field, so that its row is not a blank line
    rows = [[v] for v in (column.tolist() if isinstance(column, np.ndarray)
                          else column)]
    _assert_same_bytes(tmp_path, ["only"], [column], rows)


def test_columns_checked_against_header(tmp_path):
    with pytest.raises(ValueError, match="header names 2 columns, got 1"):
        write_columns(tmp_path / "x.csv", ["a", "b"], [np.zeros(3)])
    with pytest.raises(ValueError, match="differ in length"):
        write_columns(tmp_path / "x.csv", ["a", "b"], [np.zeros(3), ["p"]])


# The study writers' rows as they were built for the row writer.

def _mc_oracle(result, path):
    columns = result.columns()
    header = ["run"]
    for name, _ in columns:
        header += [f"{name}_kW", f"{name}_kvar"]
    write_csv_oracle(path, header, (
        [run, *(part for _, col in columns
                for part in (float(col[run].real), float(col[run].imag)))]
        for run in range(result.source_kva.shape[0])))


def _trace_oracle(result, path):
    tr = result.trace
    write_csv_oracle(path, ["t", "delta_deg", "speed_dev", "Pe_pu"], (
        (float(t), math.degrees(d), float(w), float(pe))
        for t, d, w, pe in zip(tr.times, tr.delta_rad, tr.speed_dev_pu,
                               tr.pe_pu)))


def _sweep_oracle(rows, path):
    write_csv_oracle(path, ["Power", "Duration", "Stability"], (
        (float(row.power_mw), float(row.duration_ms), row.stability)
        for row in rows))


def _dataset_oracle(rows, path):
    write_csv_oracle(path, faultlab.DATASET_HEADER, (
        [*map(float, row.features()), float(row.distance_km),
         row.fault_type, row.code] for row in rows))


def _events_oracle(path, result):
    s, im = result.sample, result.impacts
    write_csv_oracle(path, lightning.EVENTS_HEADER, zip(
        s.angle_deg.tolist(), s.peak_ka.tolist(), s.front_us.tolist(),
        s.half_us.tolist(),
        [lightning.WIRE_LABELS[w] for w in im.wire.tolist()],
        [lightning.PLACE_LABELS[p] for p in im.place.tolist()],
        result.flashover.astype(int).tolist()))


def _load_table_oracle(path, rows):
    write_csv_oracle(path, distsim.LOAD_TABLE_HEADER,
                     ((int(run), name, float(kw)) for run, name, kw in rows))


@pytest.mark.parametrize("seed", [1, 11])
def test_mc_csv_matches_oracle(tmp_path, seed):
    mc = distsim.run_monte_carlo(distsim.build_case("B1"), 300, seed=seed)
    _assert_writer_matches(tmp_path, lambda p: distsim.write_mc_csv(mc, p),
                           lambda p: _mc_oracle(mc, p))


@pytest.mark.parametrize("seed", [3, 9])
def test_load_table_matches_oracle(tmp_path, seed):
    rows = synthesize_load_table(distsim.build_case("B1"), 40, seed)
    _assert_writer_matches(tmp_path,
                           lambda p: write_load_table(p, iter(rows)),
                           lambda p: _load_table_oracle(p, rows))


def _trace_1776():
    return stability.simulate(stability.SmibModel(), cli._operating_point(1776.0),
                              stability.FaultEvent(duration=0.1))


@pytest.mark.parametrize("scenario", ["1776MW-100ms", "full-load-unstable"])
def test_trace_csv_matches_oracle(tmp_path, scenario):
    res = (_trace_1776() if scenario == "1776MW-100ms" else
           stability.simulate(stability.SmibModel(),
                              stability.OperatingPoint(0.9, 0.436),
                              stability.FaultEvent(0.1, 0.3), t_end=1.0))
    _assert_writer_matches(tmp_path, lambda p: stability.write_trace_csv(res, p),
                           lambda p: _trace_oracle(res, p))


def test_sweep_csv_matches_oracle(tmp_path, stability_grid):
    for rows in (stability_grid, stability_grid[::-3]):
        _assert_writer_matches(tmp_path,
                               lambda p: stability.write_sweep_csv(rows, p),
                               lambda p: _sweep_oracle(rows, p))


@pytest.mark.parametrize("seed", [1, 2])
def test_dataset_csv_matches_oracle(tmp_path, seed):
    for cases in (faultlab.enumerate_train_cases(),
                  faultlab.sample_test_cases(seed, 5.0)):
        rows = faultlab.build_dataset(cases)
        _assert_writer_matches(tmp_path,
                               lambda p: faultlab.write_dataset(rows, p),
                               lambda p: _dataset_oracle(rows, p))


@pytest.mark.parametrize("seed", [1, 9])
def test_events_csv_matches_oracle(tmp_path, seed):
    res = lightning.run_study(lightning.StudyConfig(n=300, seed=seed))
    _assert_writer_matches(tmp_path,
                           lambda p: lightning.write_events_csv(p, res),
                           lambda p: _events_oracle(p, res))


def test_empty_study_tables_match_oracle(tmp_path):
    _assert_writer_matches(tmp_path, lambda p: faultlab.write_dataset([], p),
                           lambda p: _dataset_oracle([], p))
    _assert_writer_matches(tmp_path, lambda p: stability.write_sweep_csv([], p),
                           lambda p: _sweep_oracle([], p))
    _assert_writer_matches(tmp_path, lambda p: write_load_table(p, []),
                           lambda p: _load_table_oracle(p, []))


def _read_columns(path):
    with open(path, newline="") as fh:
        header, *rows = csv.reader(fh)
    return header, [np.array([float(v) for v in col]) for col in zip(*rows)]


def test_mc_csv_reads_back_bit_for_bit(tmp_path):
    mc = distsim.run_monte_carlo(distsim.build_case("B1"), 300, seed=1)
    distsim.write_mc_csv(mc, tmp_path / "mc.csv")
    header, back = _read_columns(tmp_path / "mc.csv")
    assert back[0].tobytes() == np.arange(300, dtype=float).tobytes()
    want = [part for _, col in mc.columns() for part in (col.real, col.imag)]
    assert len(back) == len(header) == 1 + len(want)
    for got, col in zip(back[1:], want):
        assert got.tobytes() == np.ascontiguousarray(col).tobytes()


def test_trace_csv_reads_back_bit_for_bit(tmp_path):
    res = _trace_1776()
    stability.write_trace_csv(res, tmp_path / "trace.csv")
    _, (t, delta_deg, w, pe) = _read_columns(tmp_path / "trace.csv")
    tr = res.trace
    assert t.tobytes() == tr.times.tobytes()
    assert delta_deg.tobytes() == np.array(
        [math.degrees(d) for d in tr.delta_rad.tolist()]).tobytes()
    assert w.tobytes() == tr.speed_dev_pu.tobytes()
    assert pe.tobytes() == tr.pe_pu.tobytes()
