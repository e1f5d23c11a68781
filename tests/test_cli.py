"""Command-line behavior: exit codes, manifests, determinism, containment."""

import csv
import json
import math
import os
import subprocess
import sys

import pytest

from conftest import synthesize_load_table, write_load_table
from gridstudies import cli, ml, stability
from gridstudies.cli import main
from test_report import read_manifest


def run(*argv):
    return main([str(a) for a in argv])


def test_fault_lab_writes_everything(tmp_path):
    out = tmp_path / "fl"
    assert run("fault-lab", "--out", out, "--seed", 3) == 0
    names = {"train.csv", "test.csv", "summary.txt", "agreement.svg",
             "manifest.json"}
    assert set(os.listdir(out)) == names

    man = read_manifest(out)
    assert man["error"] is None
    assert man["config"]["study"] == "fault-lab"
    assert man["config"]["seed"] == 3
    assert man["elapsed_seconds"] > 0
    recorded = {entry["name"]: entry["bytes"] for entry in man["outputs"]}
    assert set(recorded) == names - {"manifest.json"}
    for name, size in recorded.items():
        assert (out / name).stat().st_size == size

    text = (out / "summary.txt").read_text()
    assert "Agreement (k=1) = " in text
    assert "Best k = " in text


def test_stability_single_case(tmp_path):
    out = tmp_path / "st"
    assert run("stability", "--power-mw", 1776, "--duration-ms", 100,
               "--out", out) == 0
    with open(out / "trace.csv", newline="") as fh:
        header = next(csv.reader(fh))
    assert header == ["t", "delta_deg", "speed_dev", "Pe_pu"]
    text = (out / "summary.txt").read_text()
    assert "Stability = 0" in text
    assert "Power (MW) = 1776" in text


def test_stability_sweep_smoke(tmp_path):
    out = tmp_path / "sw"
    assert run("stability", "--sweep", "--out", out) == 0
    assert (out / "sweep.svg").exists()
    with open(out / "sweep.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["Power", "Duration", "Stability"]
    assert len(rows) == 1 + 67 * 5
    text = (out / "summary.txt").read_text()
    assert "Grid points = 335" in text


def test_ml_study_outputs(tmp_path):
    out = tmp_path / "ml"
    assert run("ml", "--epochs", 60, "--out", out) == 0
    for name in ("dataset.csv", "svm.json", "mlp.json", "mlp_small.json",
                 "summary.txt", "predictions.svg"):
        assert (out / name).exists(), name
    text = (out / "summary.txt").read_text()
    assert "SVM test agreement = " in text
    assert "MLP (8,8) test agreement = " in text
    assert "Gradient check max relative error = " in text
    json.loads((out / "svm.json").read_text())


def test_ml_converges_at_svm_c_100(tmp_path):
    # the split at seed 1 where the former partner-scan optimizer gave up
    out = tmp_path / "ml"
    assert run("ml", "--seed", 1, "--svm-c", 100, "--out", out) == 0
    for name in ("dataset.csv", "svm.json", "mlp.json", "mlp_small.json",
                 "summary.txt", "predictions.svg"):
        assert (out / name).exists(), name
    assert read_manifest(out)["error"] is None


def test_dist_daily_series(tmp_path):
    out = tmp_path / "d"
    assert run("dist", "--case", "A2", "--hours", 48, "--out", out) == 0
    with open(out / "daily.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    assert len(rows) == 49
    assert rows[0][:3] == ["hour", "source_kW", "source_kvar"]
    assert not (out / "mc.csv").exists()
    text = (out / "summary.txt").read_text()
    assert "source kWh = " in text
    assert "pv kWh = " in text


def test_dist_monte_carlo(tmp_path):
    out = tmp_path / "mc"
    assert run("dist", "--case", "B1", "--runs", 150, "--seed", 2,
               "--out", out) == 0
    with open(out / "mc.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    assert len(rows) == 151
    text = (out / "summary.txt").read_text()
    assert "Monte Carlo runs = 150" in text
    assert "load1 mean kW = " in text
    assert (out / "mc.svg").exists()


def test_dist_external_table(tmp_path, monkeypatch):
    from gridstudies import distsim

    feeder = distsim.build_case("B3")
    table_path = tmp_path / "loads.csv"
    write_load_table(table_path, synthesize_load_table(feeder, 40, seed=9))
    reads = []
    read = distsim.read_load_table
    monkeypatch.setattr(distsim, "read_load_table",
                        lambda path: reads.append(path) or read(path))
    out = tmp_path / "ext"
    assert run("dist", "--case", "B3", "--runs", 40, "--mode", "external",
               "--table", table_path, "--out", out) == 0
    with open(out / "mc.csv", newline="") as fh:
        assert len(list(csv.reader(fh))) == 41
    # checked before the run and handed to it: the file is parsed once,
    # and the manifest records its path, not its rows
    assert reads == [str(table_path)]
    assert read_manifest(out)["config"]["table"] == str(table_path)


def test_lightning_small_run(tmp_path):
    out = tmp_path / "lt"
    assert run("lightning", "--n", 200, "--seed", 6, "--out", out) == 0
    with open(out / "events.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    assert len(rows) == 201
    text = (out / "summary.txt").read_text()
    assert "Number of random generated strokes = 200" in text
    assert "Flashover rate = " in text
    assert (out / "peaks.svg").exists()
    assert (out / "impacts.svg").exists()


def test_lightning_without_line_strokes(tmp_path):
    # none of these three strokes reaches the line: no chart has data
    out = tmp_path / "lt"
    assert run("lightning", "--n", 3, "--seed", 5, "--out", out) == 0
    with open(out / "events.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    assert len(rows) == 4 and all(row[4] == "Ground" for row in rows[1:])
    assert "Number of strokes to the line = 0" in (out / "summary.txt").read_text()
    assert not (out / "peaks.svg").exists()
    assert not (out / "impacts.svg").exists()


def test_lightning_thread_flag_keeps_bytes(tmp_path):
    one, two = tmp_path / "t1", tmp_path / "t2"
    assert run("lightning", "--n", 200, "--seed", 6, "--threads", 1,
               "--out", one) == 0
    assert run("lightning", "--n", 200, "--seed", 6, "--threads", 2,
               "--out", two) == 0
    assert (one / "events.csv").read_bytes() == (two / "events.csv").read_bytes()
    assert (one / "summary.txt").read_bytes() == (two / "summary.txt").read_bytes()


def test_unknown_config_key_exits_2(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text('{"n": 50, "frobnicate": 1}')
    assert run("lightning", "--config", cfg, "--out", tmp_path / "x") == 2
    assert "frobnicate" in capsys.readouterr().err


def test_bad_config_value_exits_2(tmp_path, capsys):
    # a config-file value must already have its key's JSON type
    rows = [("lightning", "n", "many"), ("lightning", "n", 3.9),
            ("lightning", "n", True), ("lightning", "n", "3"),
            ("stability", "power_mw", True), ("stability", "duration_ms", "100"),
            ("stability", "sweep", 1), ("dist", "case", None),
            ("dist", "hours", 200.0)]
    for k, (study, key, value) in enumerate(rows):
        cfg = tmp_path / f"cfg{k}.json"
        cfg.write_text(json.dumps({key: value}))
        out = tmp_path / f"x{k}"
        assert run(study, "--config", cfg, "--out", out) == 2, (key, value)
        assert f"'{key}'" in capsys.readouterr().err
        assert not out.exists()


@pytest.mark.parametrize("key, value", [
    pytest.param("seed", "abc", id="seed"),
    pytest.param("threads", "abc", id="threads"),
    pytest.param("seed", 5.7, id="seed-float"),
    pytest.param("seed", True, id="seed-bool"),
    pytest.param("seed", "3", id="seed-string"),
    pytest.param("threads", 1.0, id="threads-float"),
    pytest.param("out", None, id="out-null"),
    pytest.param("out", 7, id="out-number"),
])
def test_bad_shared_config_value_exits_2(tmp_path, capsys, key, value):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({key: value}))
    out = tmp_path / "x"
    assert run("lightning", "--config", cfg, "--out", out) == 2
    assert f"'{key}'" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("argv, key", [
    (("lightning", "--n", 0), "n"),
    (("dist", "--hours", 0), "hours"),
    (("dist", "--runs", -1), "runs"),
    (("stability", "--power-mw", 0), "power_mw"),
    (("stability", "--power-mw", 2500), "power_mw"),
    (("stability", "--power-mw", 2220), "power_mw"),
    (("fault-lab", "--k-max", 0), "k_max"),
    (("fault-lab", "--k-max", 210), "k_max"),  # 209 training rows
    (("fault-lab", "--r-max", -1), "r_max"),
    (("fault-lab", "--r-max", "nan"), "r_max"),
    (("lightning", "--seed", -1), "seed"),
    (("stability", "--duration-ms", -5), "duration_ms"),
    (("stability", "--duration-ms", "nan"), "duration_ms"),
    (("stability", "--duration-ms", "inf"), "duration_ms"),
    (("ml", "--split", 1.5), "split"),
    (("ml", "--split", 0.999), "split"),  # no test row left of 335
    (("ml", "--svm-c", 0), "svm_c"),
    (("ml", "--lr", 0), "lr"),
    (("ml", "--epochs", -1), "epochs"),
    (("ml", "--mlp-seed", -3), "mlp_seed"),
    (("stability", "--config", {"duration_ms": math.nan}), "duration_ms"),
    (("dist", "--runs", 1), "runs"),  # one run has no sample deviation
    (("dist", "--case", "A3", "--runs", 5), "runs"),  # storage: no snapshots
    (("lightning", "--n", 1), "n"),  # 0.35 years of exposure rounds to 0
])
def test_out_of_range_value_exits_2(tmp_path, capsys, argv, key):
    argv = list(argv)
    for i, a in enumerate(argv):
        if isinstance(a, dict):  # stands for a config file holding it
            argv[i] = tmp_path / "cfg.json"
            argv[i].write_text(json.dumps(a))
    out = tmp_path / "x"
    assert run(*argv, "--out", out) == 2
    assert f"{key} must be" in capsys.readouterr().err
    assert not out.exists()


def test_missing_load_table_exits_2(tmp_path, capsys):
    out = tmp_path / "x"
    assert run("dist", "--case", "B3", "--runs", 5, "--mode", "external",
               "--table", tmp_path / "missing.csv", "--out", out) == 2
    assert "table must be" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("rows, reason", [
    pytest.param("0,load1,nan", "line 2: kW must be finite", id="nan-kw"),
    pytest.param("0,load1,-5.0", "line 2: kW must be finite", id="negative-kw"),
    pytest.param("0,load1,1.0\n7,load1,2.0", "run 1 is missing", id="run-gap"),
    pytest.param("0,load1", "line 2: expected 3 fields", id="short-row"),
    pytest.param("0,load1,1.0\n0,load2,1.0\n0,load3,1.0",
                 "provides 1 runs, 2 requested", id="short-table"),
    pytest.param("0,load1,1.0\n0,load2,1.0\n0,load3,1.0\n"
                 "1,load1,1.0\n1,load2,1.0\n1,load9,1.0",
                 "run 1: loads ['load1', 'load2', 'load9'], feeder has",
                 id="wrong-load"),
])
def test_bad_load_table_exits_2(tmp_path, capsys, rows, reason):
    table = tmp_path / "loads.csv"
    table.write_text("run,load,kW\n" + rows + "\n")
    out = tmp_path / "x"
    assert run("dist", "--case", "B3", "--runs", 2, "--mode", "external",
               "--table", table, "--out", out) == 2
    err = capsys.readouterr().err
    assert "table must be" in err and reason in err
    assert not out.exists()


@pytest.mark.parametrize("study", sorted(cli.STUDIES))
def test_parameter_table_is_self_consistent(study, capsys, monkeypatch):
    # every default passes its own check, every float key rejects NaN and
    # infinities, and --help lists every key with its range and default
    params = cli.STUDIES[study][1]
    parser = cli._build_parser()
    assert cli._resolve(parser.parse_args([study])) == {
        **{key: row.default for key, row in params.items()}, "study": study}
    for key, row in params.items():
        flag = "--" + key.replace("_", "-")
        for bad in ("nan", "inf", "-inf") if row.kind is float else ():
            with pytest.raises(cli.ConfigError, match=f"{key} must be"):
                cli._resolve(parser.parse_args([study, f"{flag}={bad}"]))
    monkeypatch.setenv("COLUMNS", "500")  # no line breaks inside a word
    with pytest.raises(SystemExit):
        parser.parse_args([study, "--help"])
    text = " ".join(capsys.readouterr().out.split())
    for key, row in params.items():
        flag = "--" + key.replace("_", "-")
        if row.kind is not bool:
            flag += " " + key.upper()
        limits = row.allowed + "; " if row.allowed else ""
        assert f"{flag} {row.help} ({limits}default {row.default!r})" in text


def test_unknown_dist_case_exits_2(tmp_path, capsys):
    assert run("dist", "--case", "Z9", "--out", tmp_path / "x") == 2
    assert "Z9" in capsys.readouterr().err


def test_external_mode_without_table_exits_2(tmp_path, capsys):
    assert run("dist", "--case", "B3", "--runs", 5, "--mode", "external",
               "--out", tmp_path / "x") == 2
    assert "table" in capsys.readouterr().err


def test_runtime_error_still_writes_manifest(tmp_path, monkeypatch):
    def fail(*args, **kwargs):
        raise RuntimeError("integration diverged")

    monkeypatch.setattr(stability, "simulate", fail)
    out = tmp_path / "boom"
    assert run("stability", "--out", out) == 1
    man = read_manifest(out)
    assert man["error"] is not None
    assert "integration diverged" in man["error"]
    assert man["outputs"] == []


def test_one_class_training_split_exits_2(tmp_path, capsys, monkeypatch):
    # a stand-in 335-row grid: --split 0.0015 trains on round(0.5025) = 1 row
    rows = [stability.SweepRow(1998.0, 70.0 + i, i % 2) for i in range(335)]
    monkeypatch.setattr(stability, "sweep", lambda *args, **kwargs: rows)
    out = tmp_path / "ml"
    assert run("ml", "--split", 0.0015, "--out", out) == 2
    assert "split must" in capsys.readouterr().err
    assert os.listdir(out) == ["manifest.json"]
    man = read_manifest(out)
    assert "split must" in man["error"]
    assert man["outputs"] == []


@pytest.mark.parametrize("trainer", ["svm_train", "mlp_train"])
def test_failed_training_writes_no_dataset(tmp_path, monkeypatch, trainer):
    # every model trains before the first output is written, so an
    # optimizer that gives up leaves only the manifest
    def stall(*args, **kwargs):
        raise ml.ConvergenceError("pair optimizer stopped")

    monkeypatch.setattr(ml, trainer, stall)
    out = tmp_path / "ml"
    assert run("ml", "--epochs", 5, "--out", out) == 1
    assert os.listdir(out) == ["manifest.json"]
    man = read_manifest(out)
    assert "pair optimizer stopped" in man["error"]
    assert man["outputs"] == []


def test_config_file_and_flag_precedence(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text('{"n": 300, "seed": 5}')
    out = tmp_path / "lt"
    assert run("lightning", "--config", cfg, "--n", 150, "--out", out) == 0
    man = read_manifest(out)
    assert man["config"]["n"] == 150   # flag beats file
    assert man["config"]["seed"] == 5  # file beats default
    with open(out / "events.csv", newline="") as fh:
        assert len(list(csv.reader(fh))) == 151


def test_rerun_is_byte_identical(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    for out in (a, b):
        assert run("fault-lab", "--seed", 4, "--out", out) == 0
    for name in ("train.csv", "test.csv", "summary.txt"):
        assert (a / name).read_bytes() == (b / name).read_bytes()


def test_everything_lands_inside_out_dir(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert run("stability", "--out", "sub") == 0
    assert os.listdir(tmp_path) == ["sub"]


def test_console_script_version():
    proc = subprocess.run([sys.executable, "-m", "gridstudies.cli",
                           "--version"], capture_output=True, text=True)
    assert proc.returncode == 0
    assert proc.stdout.strip().startswith("gridstudies ")


def test_cli_import_loads_no_scipy():
    # nor the network stack, which xml.sax.saxutils drags in: every run
    # pays for what importing the CLI loads
    src = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")
    code = ("import sys, gridstudies.cli; "
            "print([m for m in sys.modules if m.startswith('scipy') "
            "or m in ('http.client', 'urllib.request')])")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env={**os.environ, "PYTHONPATH": src})
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_cli_import_loads_no_dataclasses_or_html():
    # dataclasses compiles each record's methods with exec, and html was
    # one escape call: together about 25 ms and 0.5 MB of every run's
    # start-up.  numpy comes first, so only the package's own imports count
    src = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")
    code = ("import sys, numpy; before = set(sys.modules); "
            "import gridstudies.cli; "
            "print(sorted({'dataclasses', 'html'} & (set(sys.modules) - before)))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env={**os.environ, "PYTHONPATH": src})
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_ml_study_loads_no_numpy_ma(tmp_path):
    # np.unique and np.median import numpy.ma on first use; the ml study
    # needs neither, and the import costs a run about 10 ms and 1 MB
    src = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")
    code = ("import sys; from gridstudies import cli; "
            f"rc = cli.main(['ml', '--seed', '7', '--out', {str(tmp_path / 'ml')!r}]); "
            "print(rc, 'numpy.ma' in sys.modules)")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env={**os.environ, "PYTHONPATH": src})
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split()[-2:] == ["0", "False"]
