"""Command-line front end: one subcommand per study, CSV/SVG reports.

Parameter resolution is defaults, then the --config file, then explicit
flags.  Every run leaves a manifest next to its outputs, successful or
not, and never writes outside the chosen output directory.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import json
import math
import os
import sys
import time
from typing import Callable, NamedTuple

import numpy as np

from . import distsim, faultlab, lightning, ml, report, stability, svg
from .svg import ChartStyle, DataSeries


class ConfigError(ValueError):
    """Bad flag or config-file entry: exit 2.  Most are caught before the
    run starts; a runner raises one only before writing any study file."""


class Param(NamedTuple):
    """One study key.  Command-line values get kind from argparse;
    config-file values must already have its JSON type (see _from_json).
    For a float key, ok also rejects NaN and infinities."""

    kind: type
    default: object
    help: str
    ok: Callable[[object], bool] = lambda v: True
    allowed: str = ""  # the range ok checks, as errors and --help print it


def _at_least(lo):
    return (lambda v: v >= lo), f">= {lo}"


_POSITIVE = (lambda v: 0 < v < math.inf), "in (0, inf)"
_S_BASE_MW = stability.SmibModel().s_base_mva  # rating: the most P any power factor allows
_TRAIN_ROWS = faultlab.POSITION_COUNT * faultlab.TYPE_COUNT  # kNN needs k <= this
_GRID_ROWS = (len(stability.DEFAULT_POWER_FACTORS)  # the grid ml trains on
              * len(stability.DEFAULT_DURATIONS_S))
_STRIKES = lightning.StudyConfig()  # the strip and flash density lightning runs
_MIN_STROKES = next(  # the rate needs at least one whole year of exposure
    n for n in itertools.count(1)
    if lightning.exposure_years(n, _STRIKES.strip_length_km,
                                _STRIKES.geometry.line_length_m / 1e3,
                                _STRIKES.ground_flash_density))


def _study(study, seed, about, **keys):
    """A subcommand's help and its keys: its own, then the shared ones
    (the order manifest.json lists them in)."""
    return about, {
        **keys,
        "seed": Param(int, seed, "random seed", *_at_least(0)),
        "out": Param(str, os.path.join("runs", study), "output directory",
                     bool, "a non-empty path"),
        "threads": Param(int, 1, "accepted by every study so one command line "
                         "fits them all; no study runs in parallel",
                         *_at_least(1))}


# subcommand -> (help, {key: Param}); key k_max is flag --k-max.
STUDIES = {
    "fault-lab": _study(
        "fault-lab", 1, "fault voltage atlas and nearest-neighbour study",
        r_max=Param(float, 1.0, "largest random fault resistance in ohms",
                    *_POSITIVE),
        k_max=Param(int, 4, "evaluate kNN for k = 1..k_max",
                    lambda v: 1 <= v <= _TRAIN_ROWS, f"in [1, {_TRAIN_ROWS}]")),
    "lightning": _study(
        "lightning", 1, "Monte Carlo lightning flashover study",
        n=Param(int, 5000, "number of strokes", *_at_least(_MIN_STROKES))),
    "dist": _study(
        "dist", 1, "distribution feeder time series and Monte Carlo",
        case=Param(str, "A1", "feeder case", lambda v: v in distsim.CASE_NAMES,
                   "one of " + ", ".join(distsim.CASE_NAMES)),
        hours=Param(int, 200, "series length", *_at_least(1)),
        runs=Param(int, 0, "Monte Carlo runs; 0 skips the study",
                   lambda v: v == 0 or v >= 2, "0 or >= 2"),
        mode=Param(str, "internal", "load draw source for Monte Carlo",
                   lambda v: v in ("internal", "external"), "internal or external"),
        table=Param(str, "", "load table CSV for --mode external",
                    lambda v: not v or os.path.isfile(v), "an existing file")),
    "stability": _study(
        "stability", 0, "single-machine transient stability",
        power_mw=Param(float, 1776.0, "machine active power in MW",
                       lambda v: 0 < v <= _S_BASE_MW, f"in (0, {_S_BASE_MW:g}]"),
        duration_ms=Param(float, 100.0, "fault duration in milliseconds",
                          lambda v: 0 <= v < math.inf, "in [0, inf)"),
        sweep=Param(bool, False,
                    "run the power/duration grid instead of one case")),
    "ml": _study(
        "ml", 7, "train predictors on the stability grid",
        svm_c=Param(float, 10.0, "SVM penalty parameter", *_POSITIVE),
        epochs=Param(int, 2000, "gradient-descent epochs for both networks",
                     *_at_least(0)),
        lr=Param(float, 1.0, "learning rate", *_POSITIVE),
        mlp_seed=Param(int, 8, "weight initialization seed", *_at_least(0)),
        split=Param(float, 0.5, "training fraction of the grid",
                    lambda v: 0 < v < 1 and 0 < round(v * _GRID_ROWS) < _GRID_ROWS,
                    f"a fraction leaving both sides of the {_GRID_ROWS}-point "
                    f"grid non-empty")),
}


def _from_json(kind, value):
    """A config-file value that already has kind's JSON type: int keys take
    integers only, float keys any number, and no key takes a boolean in
    place of a number or null in place of a string."""
    allowed = (int, float) if kind is float else kind
    if not isinstance(value, allowed) or isinstance(value, bool) != (kind is bool):
        raise ValueError(f"expected {kind.__name__}")
    return kind(value)


def _operating_point(power_mw: float):
    return stability.OperatingPoint.from_power_factor(power_mw / _S_BASE_MW)


@functools.cache  # parsing leaves the parser as it was; a build costs ~1 ms
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gridstudies",
        description="Power-system case studies: faults, lightning, "
                    "distribution, transient stability, and predictors.")
    parser.add_argument("--version", action="version",
                        version=f"gridstudies {report.__version__}")
    sub = parser.add_subparsers(dest="study", required=True)
    for study, (about, params) in STUDIES.items():
        p = sub.add_parser(study, help=about)
        p.add_argument("--config", default=None,
                       help="JSON file with seed/out/threads and study keys")
        for key, row in params.items():
            kind = ({"action": "store_true"} if row.kind is bool
                    else {"type": row.kind})
            limits = row.allowed + "; " if row.allowed else ""
            p.add_argument("--" + key.replace("_", "-"), dest=key, default=None,
                           help=f"{row.help} ({limits}default {row.default!r})",
                           **kind)
    return parser


def _load_config_file(path) -> dict:
    try:
        with open(path) as fh:
            data = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config file: {exc}") from None
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config file is not valid JSON: {exc}") from None
    if not isinstance(data, dict):
        raise ConfigError("config file must hold a JSON object")
    return data


def _resolve(args) -> dict:
    """Defaults, then config file, then explicit flags; strict keys, every
    value range-checked, then the rules that span two keys."""
    params = STUDIES[args.study][1]
    resolved = {key: row.default for key, row in params.items()}

    if args.config is not None:
        for key, value in _load_config_file(args.config).items():
            if key not in params:
                raise ConfigError(f"unknown config key '{key}'")
            try:
                resolved[key] = _from_json(params[key].kind, value)
            except (ValueError, OverflowError):
                raise ConfigError(
                    f"bad value for config key '{key}': {value!r}") from None

    for key, row in params.items():
        value = getattr(args, key)
        if value is not None:
            resolved[key] = value
        if not row.ok(resolved[key]):
            raise ConfigError(
                f"{key} must be {row.allowed}, got {resolved[key]!r}")

    if args.study == "stability" and not resolved["sweep"]:
        try:
            stability.init_conditions(stability.SmibModel(),
                                      _operating_point(resolved["power_mw"]))
        except stability.InfeasibleOperatingPoint as exc:
            raise ConfigError(f"power_mw must be a feasible operating point, "
                              f"got {resolved['power_mw']!r}: {exc}") from None
    if args.study == "dist" and resolved["runs"] > 0:
        feeder = distsim.build_case(resolved["case"])
        if feeder.storage is not None:
            raise ConfigError(f"runs must be 0 for case {resolved['case']}, whose "
                              f"storage the Monte Carlo snapshots leave out, "
                              f"got {resolved['runs']!r}")
        if resolved["mode"] == "external" and not resolved["table"]:
            raise ConfigError("external mode needs a load table (--table FILE)")
    resolved["study"] = args.study
    return resolved


def _read_inputs(cfg) -> dict:
    """The input files a resolved run reads, parsed once and checked before
    the run starts; keyword arguments for its runner."""
    if cfg["study"] != "dist" or cfg["runs"] == 0 or cfg["mode"] != "external":
        return {}
    try:
        table = distsim.read_load_table(cfg["table"])
        distsim.check_load_table(distsim.build_case(cfg["case"]), table,
                                 cfg["runs"])
    except (OSError, ValueError) as exc:
        raise ConfigError(f"table must be a run,load,kW table: {exc}") from None
    return {"table": table}


# -- study runners -------------------------------------------------------------

def _write_summary(out, man, lines):
    path = os.path.join(out, "summary.txt")
    report.write_text(path, lines)
    man.add_output(path)


def _write_chart(out, man, name, text):
    path = os.path.join(out, name)
    svg.write_svg(path, text)
    man.add_output(path)


def _run_fault_lab(cfg, out, man):
    train_rows = faultlab.build_dataset(faultlab.enumerate_train_cases())
    test_rows = faultlab.build_dataset(
        faultlab.sample_test_cases(cfg["seed"], cfg["r_max"]))
    for name, rows in (("train.csv", train_rows), ("test.csv", test_rows)):
        path = os.path.join(out, name)
        faultlab.write_dataset(rows, path)
        man.add_output(path)

    train = faultlab.rows_to_dataset(train_rows)
    test = faultlab.rows_to_dataset(test_rows)
    ks = list(range(1, cfg["k_max"] + 1))
    agreements = [ml.evaluate(ml.knn_fit(train, k), test).true_fraction
                  for k in ks]
    best = ks[int(np.argmax(agreements))]
    pairs = [("Training cases", len(train_rows)),
             ("Test cases", len(test_rows)),
             ("Largest fault resistance (ohm)", cfg["r_max"])]
    pairs += [(f"Agreement (k={k})", round(a, 6))
              for k, a in zip(ks, agreements)]
    pairs.append(("Best k", best))
    _write_summary(out, man, report.summary_block(pairs))

    chart = svg.render_series(
        [DataSeries(np.asarray(ks, float), np.asarray(agreements),
                    "test agreement")],
        ChartStyle("Nearest-neighbour fault identification",
                   "k", "agreement"))
    _write_chart(out, man, "agreement.svg", chart)


def _run_lightning(cfg, out, man):
    study = lightning.StudyConfig(n=cfg["n"], seed=cfg["seed"])
    result = lightning.run_study(study)

    events = os.path.join(out, "events.csv")
    lightning.write_events_csv(events, result)
    man.add_output(events)
    _write_summary(out, man, lightning.summary_lines(result))

    impacts, sample = result.impacts, result.sample
    if not impacts.on_line.any():
        return
    chart = svg.render_histogram(
        sample.peak_ka[impacts.on_line], 40,
        ChartStyle("Peak current of strokes reaching the line",
                   "peak current (kA)", "count"))
    _write_chart(out, man, "peaks.svg", chart)

    groups = []
    for wire, label in enumerate(lightning.WIRE_LABELS):
        sel = impacts.wire == wire
        if wire != lightning.GROUND and sel.any():
            groups.append(DataSeries(sample.x_m[sel], sample.y_m[sel], label))
    chart = svg.render_scatter(
        groups, ChartStyle("Stroke terminations along the line",
                           "x (m)", "y (m)"))
    _write_chart(out, man, "impacts.svg", chart)


def _run_dist(cfg, out, man, table=None):
    feeder = distsim.build_case(cfg["case"], hours=cfg["hours"])
    daily = distsim.run_daily(feeder, hours=cfg["hours"])

    path = os.path.join(out, "daily.csv")
    distsim.write_daily_csv(daily, path)
    man.add_output(path)

    lines = [f"Case = {cfg['case']}", f"Hours = {cfg['hours']}"]
    for name, meter in daily.meters().items():
        lines.append("")
        block = [(f"{name} {label}", round(value, 3))
                 for label, value in distsim.meter_rows(meter)]
        lines.extend(report.summary_block(block))

    hours = np.asarray([rec.hour for rec in daily.records], float)
    source_kw = np.asarray([rec.snapshot.source_kw for rec in daily.records])
    chart = svg.render_series(
        [DataSeries(hours, source_kw, "source kW")],
        ChartStyle(f"Feeder {cfg['case']} source power", "hour", "kW"))
    _write_chart(out, man, "source.svg", chart)

    if cfg["runs"] > 0:
        mc = distsim.run_monte_carlo(feeder, cfg["runs"], mode=cfg["mode"],
                                     seed=cfg["seed"], table=table)
        path = os.path.join(out, "mc.csv")
        distsim.write_mc_csv(mc, path)
        man.add_output(path)

        lines.append("")
        lines.append(f"Monte Carlo runs = {cfg['runs']}")
        for name, st in mc.stats().items():
            block = [(f"{name} mean kW", round(st.mean_kw, 3)),
                     (f"{name} std kW", round(st.std_kw, 3)),
                     (f"{name} mean kvar", round(st.mean_kvar, 3)),
                     (f"{name} std kvar", round(st.std_kvar, 3))]
            lines.extend(report.summary_block(block))

        first = feeder.loads[0].name
        chart = svg.render_histogram(
            mc.load_kva[:, 0].real, 40,
            ChartStyle(f"{first} phase-A power over {cfg['runs']} runs",
                       "kW", "count"))
        _write_chart(out, man, "mc.svg", chart)

    _write_summary(out, man, lines)


def _run_stability(cfg, out, man):
    model = stability.SmibModel()
    if cfg["sweep"]:
        rows = stability.sweep(model)
        path = os.path.join(out, "sweep.csv")
        stability.write_sweep_csv(rows, path)
        man.add_output(path)

        groups = []
        for flag, label in ((0, "stable"), (1, "unstable")):
            sel = [r for r in rows if r.stability == flag]
            if sel:
                groups.append(DataSeries(
                    np.asarray([r.duration_ms for r in sel]),
                    np.asarray([r.power_mw for r in sel]), label))
        chart = svg.render_scatter(
            groups, ChartStyle("Stability over the power/duration grid",
                               "fault duration (ms)", "power (MW)"))
        _write_chart(out, man, "sweep.svg", chart)

        pairs = [("Grid points", len(rows)),
                 ("Stable points", sum(1 for r in rows if r.stability == 0)),
                 ("Unstable points", sum(1 for r in rows if r.stability == 1))]
        _write_summary(out, man, report.summary_block(pairs))
        return

    op = _operating_point(cfg["power_mw"])
    fault = stability.FaultEvent(duration=cfg["duration_ms"] / 1e3)
    result = stability.simulate(model, op, fault)

    path = os.path.join(out, "trace.csv")
    stability.write_trace_csv(result, path)
    man.add_output(path)

    chart = svg.render_series(
        [DataSeries(result.trace.times,
                    np.degrees(result.trace.delta_rad), "rotor angle")],
        ChartStyle(f"{cfg['power_mw']:g} MW, "
                   f"{cfg['duration_ms']:g} ms fault", "t (s)", "delta (deg)"))
    _write_chart(out, man, "trace.svg", chart)

    pairs = [("Power (MW)", cfg["power_mw"]),
             ("Fault duration (ms)", cfg["duration_ms"]),
             ("Stability", result.stability_flag),
             ("Initial angle (deg)", round(np.degrees(result.delta0_rad), 3)),
             ("Transient emf (pu)", round(result.e_prime_pu, 4))]
    _write_summary(out, man, report.summary_block(pairs))


def _run_ml(cfg, out, man):
    rows = stability.sweep()
    dataset = stability.sweep_to_dataset(rows)
    train, test = ml.split(dataset, cfg["split"], cfg["seed"])
    if len(set(train.labels.tolist())) < 2:
        raise ConfigError(f"split must leave both verdicts in the {train.n}-row "
                          f"training side, got {cfg['split']!r}")
    scaler = ml.MinMaxScaler().fit(train.features)
    tr = ml.Dataset(scaler.transform(train.features), train.labels,
                    dataset.feature_names, dataset.label_name)
    te = ml.Dataset(scaler.transform(test.features), test.labels,
                    dataset.feature_names, dataset.label_name)

    # train before writing, so an optimizer that gives up leaves no file
    svm_model = ml.svm_train(tr, C=cfg["svm_c"])
    big = ml.mlp_train(tr, (2, 8, 8, 1), seed=cfg["mlp_seed"],
                       epochs=cfg["epochs"], lr=cfg["lr"])
    small = ml.mlp_train(tr, (2, 1, 1), seed=cfg["mlp_seed"],
                         epochs=cfg["epochs"], lr=cfg["lr"])
    path = os.path.join(out, "dataset.csv")
    stability.write_sweep_csv(rows, path)
    man.add_output(path)
    for name, model in (("svm.json", svm_model), ("mlp.json", big),
                        ("mlp_small.json", small)):
        path = os.path.join(out, name)
        ml.save_model(model, path)
        man.add_output(path)

    fresh = ml.mlp_init((2, 8, 8, 1), classes=(0, 1), seed=cfg["mlp_seed"])
    grad_err = ml.gradient_check(fresh, tr.features[:10], tr.labels[:10])

    pairs = [("Grid points", dataset.n),
             ("Training rows", tr.n),
             ("Test rows", te.n),
             ("SVM test agreement",
              round(ml.evaluate(svm_model, te).true_fraction, 6)),
             ("MLP (8,8) test agreement",
              round(ml.evaluate(big, te).true_fraction, 6)),
             ("MLP (1) test agreement",
              round(ml.evaluate(small, te).true_fraction, 6)),
             ("Gradient check max relative error", f"{grad_err:.3e}")]
    _write_summary(out, man, report.summary_block(pairs))

    pred = svm_model.predict(te.features)
    groups = []
    for flag, label in ((0, "predicted stable"), (1, "predicted unstable")):
        sel = pred == flag
        if np.any(sel):
            groups.append(DataSeries(test.features[sel, 1],
                                     test.features[sel, 0], label))
    chart = svg.render_scatter(
        groups, ChartStyle("SVM verdicts on held-out grid points",
                           "fault duration (ms)", "power (MW)"))
    _write_chart(out, man, "predictions.svg", chart)


RUNNERS = {"fault-lab": _run_fault_lab, "lightning": _run_lightning,
           "dist": _run_dist, "stability": _run_stability, "ml": _run_ml}


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = _resolve(args)
        inputs = _read_inputs(cfg)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    out = cfg["out"]
    os.makedirs(out, exist_ok=True)
    manifest = report.RunManifest(config=cfg, seed=cfg["seed"])
    start = time.perf_counter()
    try:
        RUNNERS[cfg["study"]](cfg, out, manifest, **inputs)
    except Exception as exc:
        manifest.elapsed_s = time.perf_counter() - start
        manifest.error = f"{type(exc).__name__}: {exc}"
        report.write_manifest(out, manifest)
        print(f"error: {exc}", file=sys.stderr)
        return 2 if isinstance(exc, ConfigError) else 1
    manifest.elapsed_s = time.perf_counter() - start
    report.write_manifest(out, manifest)
    print(f"{cfg['study']}: {len(manifest.outputs)} files in {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
