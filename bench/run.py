"""gridstudies benchmark: whole studies through the public CLI.

Usage (from the repository root):

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --workload NAME --record-reference

Each repeat runs the workload's gridstudies calls, single-threaded, in a
fresh interpreter (bench/worker.py); repeats follow each other until S
seconds have passed.  Every *.csv and summary.txt is hashed: at the
workload's default seed against bench/reference.json, at any other seed
against the first repeat (the determinism contract).  A call fails when it
exits non-zero or one of its outputs differs; failures are counted, never
fatal.

--trace 0 reports the end-to-end metrics (medians over the repeats).
--trace 1 alternates untraced and traced repeats and reports the per-layer
metrics of bench/tracing.py from the traced repeat with the median wall
time, and the tracing overhead: the traced minus the untraced median wall
time.  The
last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_runs"
REFERENCE = BENCH / "reference.json"

# Sizes settled when the benchmark was defined; changing one changes the
# workload, so bench/reference.json must be recorded again.
#
# LIGHTNING_N: the replay time follows the number of strokes that reach the
# line, a binomial ~14% of n; over seeds its interquartile range is ~9% of
# the median at n=2000.  That is below the run-to-run noise of a shared
# two-core host (~60-76 ms per line stroke at n=4000 over ten runs), so
# two 2000-stroke repeats, which also check determinism, beat one larger.
LIGHTNING_N = 2000
# MC_RUNS: Monte Carlo snapshots in the feeder workload (2400 power flows
# with the 200-hour series), enough for distsim to be a third of its time.
MC_RUNS = 2000

BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
            "MKL_NUM_THREADS": "1"}
MIN_REPEATS = 2         # the second repeat checks determinism
SETUP_SAMPLES = 3       # import-only workers per run, besides the repeats
RUN_LIMIT_S = 170.0     # never start work that could end past this


def _lightning(seed):
    # The EMT stepper under load: emt.EmtSimulation.run is ~99% of wall_s.
    # A batched surge replay must show its gain here, and what it costs in
    # peak memory; the other two workloads never touch emt.
    return [["lightning", "--n", str(LIGHTNING_N), "--seed", str(seed)]]


def _stability_ml(seed):
    # stability.sweep (335 early-stopped simulations, ~90%) then SVM and MLP
    # training.  Once the sweep is vectorised, training dominates, so this
    # also keeps ml training honest.  The seed only picks the split.
    return [["ml", "--seed", str(seed)]]


def _feeder_faults(seed):
    # Many small layers in sequence: the only load on phasor and distsim,
    # kNN inference instead of training, one full 6400-step stability trace
    # instead of early-stopped verdicts, and a large share of CSV/SVG
    # writing.  wall_s is close to setup_s, so import-time changes show.
    return [["fault-lab", "--seed", str(seed)],
            ["dist", "--case", "A4"],
            ["dist", "--case", "B1", "--runs", str(MC_RUNS),
             "--seed", str(seed)],
            ["stability", "--power-mw", "1776", "--duration-ms", "100"]]


# name -> (calls for a seed, default seed).  The default seeds are the
# CLI's own defaults; bench/reference.json holds the digests at them.
WORKLOADS = {
    "lightning-replay": (_lightning, 1),
    "stability-ml": (_stability_ml, 7),
    "feeder-faults": (_feeder_faults, 1),
}


def compared_outputs(out_dir: Path) -> dict:
    """sha256 of every byte-compared output (manifest.json has a clock)."""
    if not out_dir.is_dir():  # the call failed before writing anything
        return {}
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(out_dir.iterdir())
            if p.suffix == ".csv" or p.name == "summary.txt"}


def _worker_env() -> dict:
    env = dict(os.environ, PYTHONPATH=str(SRC), **BLAS_ENV)
    # An installed package imports from cached bytecode; let the warm-up
    # import write that cache so setup_s does not include compiling.
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    return env


def run_repeat(calls, rep_dir: Path, traced: bool, timeout: float) -> dict:
    """One worker process; returns its result, or None if it died."""
    rep_dir.mkdir(parents=True)
    argvs = [[*argv, "--threads", "1", "--out", str(rep_dir / f"c{i}")]
             for i, argv in enumerate(calls)]
    spec = {"calls": argvs, "src": str(SRC), "trace": traced,
            "result": str(rep_dir / "result.json"),
            "spans": str(rep_dir / "spans.json")}
    spec_path = rep_dir / "spec.json"
    spec_path.write_text(json.dumps(spec))
    with open(rep_dir / "stderr.txt", "w") as err:
        try:
            proc = subprocess.run(
                [sys.executable, str(BENCH / "worker.py"), str(spec_path)],
                env=_worker_env(), cwd=ROOT, stdout=subprocess.DEVNULL,
                stderr=err, timeout=timeout)
        except subprocess.TimeoutExpired:
            return None
    if proc.returncode != 0:
        return None
    return json.loads((rep_dir / "result.json").read_text())


def _median(values):
    return statistics.median(values) if values else 0.0


def measure(name, seed, seconds, trace, calls, reference=None,
            tamper=None) -> dict:
    """Repeat `calls` for `seconds`; return metrics and failure counts.

    reference maps "c<i>/<file>" to the expected sha256; without it the
    first repeat's outputs are the expectation.  tamper(rep_dir), if
    given, runs after each repeat and before its outputs are hashed.
    """
    run_dir = WORK / name
    shutil.rmtree(run_dir, ignore_errors=True)
    # Import-only workers add setup_s samples at no cost to a long workload.
    setups = [run_repeat([], run_dir / f"setup{k}", False, 60)
              for k in range(SETUP_SAMPLES)]
    setup_samples = [r["setup_s"] for r in setups if r is not None]
    expected = dict(reference) if reference is not None else None
    repeats, attempted, failed = [], 0, 0
    started = time.perf_counter()
    while True:
        elapsed = time.perf_counter() - started
        if len(repeats) >= MIN_REPEATS and elapsed >= seconds:
            break
        if repeats and elapsed + 1.2 * last_s > RUN_LIMIT_S:
            break
        traced = bool(trace) and len(repeats) % 2 == 1
        rep_dir = run_dir / f"r{len(repeats)}"
        res = run_repeat(calls, rep_dir, traced, RUN_LIMIT_S - elapsed)
        last_s = time.perf_counter() - started - elapsed
        attempted += len(calls)
        if res is None:
            print(f"repeat in {rep_dir} died; see its stderr.txt")
            failed += len(calls)
            break
        if tamper is not None:
            tamper(rep_dir)
        digests = {f"c{i}/{f}": h for i in range(len(calls))
                   for f, h in compared_outputs(rep_dir / f"c{i}").items()}
        if expected is None:
            expected = digests
        for i, code in enumerate(res["codes"]):
            prefix = f"c{i}/"
            got = {k: v for k, v in digests.items() if k.startswith(prefix)}
            want = {k: v for k, v in expected.items() if k.startswith(prefix)}
            if code != 0 or got != want:
                failed += 1
                print(f"call failed: {calls[i]} (exit {code}, "
                      f"{sum(got.get(k) != v for k, v in want.items())} "
                      f"outputs differ)")
        res["traced"] = traced
        repeats.append(res)
        setup_samples.append(res["setup_s"])

    plain = [r for r in repeats if not r["traced"]]
    traced_reps = [r for r in repeats if r["traced"]]
    summary = {"repeats": len(repeats), "traced": len(traced_reps),
               "attempted": attempted, "failed": failed}
    summary["end_to_end"] = {
        "wall_s": (_median([r["wall_s"] for r in plain]), "s", len(plain)),
        "setup_s": (_median(setup_samples), "s", len(setup_samples)),
        "peak_rss_mb": (_median([r["peak_rss_mb"] for r in plain]), "MB",
                        len(plain)),
    }
    layers = {}
    if traced_reps:
        # One coherent table, whose top-level spans and cli.self_s add up
        # to its wall time: the traced repeat with the median wall time.
        traced_reps.sort(key=lambda r: r["wall_s"])
        mid = traced_reps[(len(traced_reps) - 1) // 2]
        layers = {key: tuple(v) for key, v in mid["layers"].items()}
        layers["trace.wall_s"] = (mid["wall_s"], "s")
        layers["trace.overhead_s"] = (
            _median([r["wall_s"] for r in traced_reps])
            - summary["end_to_end"]["wall_s"][0], "s")
    summary["per_layer"] = layers
    return summary


def _git_rev() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        text = head.read_text().strip()
        if text.startswith("ref: "):
            ref = text[5:]
            loose = ROOT / ".git" / ref
            if loose.exists():
                return loose.read_text().strip()
            for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
                if line.endswith(" " + ref):
                    return line.split()[0]
            return "unknown"
        return text
    except OSError:
        return "unknown"


def run_record() -> dict:
    def version(pkg):
        try:
            return importlib.metadata.version(pkg)
        except importlib.metadata.PackageNotFoundError:
            return "missing"
    return {"git_rev": _git_rev(), "python": platform.python_version(),
            "numpy": version("numpy"), "scipy": version("scipy"),
            "nproc": len(os.sched_getaffinity(0)),
            "blas_env": BLAS_ENV}


def result_line(summary, trace) -> str:
    """The JSON line: end-to-end metrics, or per-layer ones when traced."""
    chosen = summary["per_layer"] if trace else summary["end_to_end"]
    metrics = {key: {"value": vals[0], "unit": vals[1]}
               for key, vals in chosen.items()}
    return json.dumps({"correct": summary["failed"] == 0,
                       "attempted": summary["attempted"],
                       "failed": summary["failed"], "metrics": metrics})


def _print_table(name, seed, summary):
    print(f"workload {name}, seed {seed}: {summary['repeats']} repeats "
          f"({summary['traced']} traced)")
    for key, (value, unit, n) in summary["end_to_end"].items():
        print(f"  {key:<14} {value:12.6f} {unit:<5} median of {n}")
    share = summary["failed"] / max(summary["attempted"], 1)
    print(f"  {'failed_share':<14} {share:12.6f} {'1':<5} "
          f"{summary['failed']} of {summary['attempted']} calls")
    for key, (value, unit) in sorted(summary["per_layer"].items()):
        print(f"  {key:<34} {value:16.6f} {unit}")


def _record_reference(name):
    calls_for, seed = WORKLOADS[name]
    calls = calls_for(seed)
    rep_dir = WORK / name / "reference"
    shutil.rmtree(rep_dir, ignore_errors=True)
    res = run_repeat(calls, rep_dir, False, RUN_LIMIT_S)
    if res is None or any(res["codes"]):
        sys.exit(f"{name}: a call failed; reference not recorded")
    refs = json.loads(REFERENCE.read_text()) if REFERENCE.exists() else {}
    refs[name] = {"seed": seed, "calls": calls, "digests": {
        f"c{i}/{f}": h for i in range(len(calls))
        for f, h in compared_outputs(rep_dir / f"c{i}").items()}}
    REFERENCE.write_text(json.dumps(refs, indent=2, sort_keys=True) + "\n")
    print(f"recorded {len(refs[name]['digests'])} digests for {name}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-reference", action="store_true",
                        help="hash the outputs at the default seed into "
                             "bench/reference.json")
    args = parser.parse_args(argv)
    if not (SRC / "gridstudies" / "cli.py").is_file():
        print(f"error: no gridstudies sources under {SRC}", file=sys.stderr)
        return 1
    if args.record_reference:
        _record_reference(args.workload)
        return 0
    if args.seed is None or args.seconds <= 0:
        parser.error("--seed and a positive --seconds are required")

    warm = subprocess.run([sys.executable, "-c", "import gridstudies.cli"],
                          env=_worker_env(), cwd=ROOT, timeout=120)
    if warm.returncode != 0:
        print("error: gridstudies.cli does not import", file=sys.stderr)
        return 1

    calls_for, default_seed = WORKLOADS[args.workload]
    calls = calls_for(args.seed)
    reference = None
    if args.seed == default_seed:
        ref = json.loads(REFERENCE.read_text())[args.workload]
        if ref["calls"] != calls:
            print("error: bench/reference.json was recorded for other calls; "
                  "run --record-reference", file=sys.stderr)
            return 1
        reference = ref["digests"]

    summary = measure(args.workload, args.seed, args.seconds, args.trace,
                      calls, reference)
    _print_table(args.workload, args.seed, summary)
    print("run record:", json.dumps(run_record(), sort_keys=True))
    print(result_line(summary, args.trace))
    return 0


if __name__ == "__main__":
    sys.exit(main())
