"""Fast self-test of the benchmark harness on tiny workloads.

Usage (from the repository root; under a minute on one core):

    python3 bench/selftest.py

Checks that every metric BENCHMARK.json names is emitted with its unit
(and that the layers each workload exercises report non-zero times), that
a flipped output byte and a non-zero CLI exit both show in failed_share,
and that an unknown workload name is refused before any work starts.
Exits 0 when every check holds.
"""

from __future__ import annotations

import json
import subprocess
import sys
import time

import run

# The three workloads' call shapes at tiny sizes.
TINY = {
    "lightning-replay": [["lightning", "--n", "60", "--seed", "5"]],
    "stability-ml": [["ml", "--epochs", "20"]],
    "feeder-faults": [["fault-lab", "--seed", "2"],
                      ["dist", "--case", "A4", "--hours", "24"],
                      ["dist", "--case", "B1", "--runs", "20", "--seed", "2"],
                      ["stability", "--power-mw", "1776",
                       "--duration-ms", "100"]],
}

# Per-layer times that must be positive on each workload.
ALWAYS = ("svg.render_s", "report.write_manifest_s", "cli.self_s")
EXERCISED = {
    "lightning-replay": (
        "emt.assemble_s", "emt.run_s", "lightning.sample_strokes_s",
        "lightning.classify_impact_s", "lightning.build_strike_network_s",
        "lightning.write_events_csv_s"),
    "stability-ml": (
        "stability.sweep_s", "stability.simulate_s", "stability.write_csv_s",
        "ml.svm_train_s", "ml.mlp_train_s", "ml.evaluate_s",
        "ml.gradient_check_s", "ml.save_model_s"),
    "feeder-faults": (
        "faultlab.build_dataset_s", "faultlab.write_dataset_s",
        "phasor.apply_fault_s", "phasor.solve_steady_state_s",
        "distsim.run_daily_s", "distsim.run_monte_carlo_s",
        "distsim.solve_snapshot_s", "distsim.write_csv_s", "ml.evaluate_s",
        "stability.simulate_s", "stability.write_csv_s"),
}

FAILURES = []


def check(ok, what):
    print(("ok   " if ok else "FAIL ") + what)
    if not ok:
        FAILURES.append(what)


def declared(section) -> dict:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[section]}


def emitted(summary, trace) -> dict:
    line = json.loads(run.result_line(summary, trace))
    return {k: v["unit"] for k, v in line["metrics"].items()}


def main() -> int:
    started = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, str(run.BENCH / "run.py"), "--workload", "no-such",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, timeout=60)
    check(proc.returncode != 0 and not proc.stdout
          and not (run.WORK / "no-such").exists()
          and time.perf_counter() - started < 10,
          "an unknown workload is refused before any work starts")

    for name, calls in TINY.items():
        traced = run.measure(f"selftest-{name}", 3, 0, 1, calls)
        check(traced["failed"] == 0 and traced["traced"] == 1,
              f"{name}: tiny traced run succeeds")
        check(emitted(traced, 1) == declared("per_layer"),
              f"{name}: every per-layer metric is emitted with its unit")
        layers = traced["per_layer"]
        zero = [m for m in ALWAYS + EXERCISED[name] if layers[m][0] <= 0]
        check(not zero, f"{name}: exercised layers report time {zero or ''}")
        total = layers["trace.top_level_s"][0] + layers["cli.self_s"][0]
        check(abs(total - layers["trace.wall_s"][0]) < 1e-6,
              f"{name}: top-level spans plus cli.self_s add up to wall_s")

    lightning = TINY["lightning-replay"]
    plain = run.measure("selftest-plain", 3, 0, 0, lightning)
    check(emitted(plain, 0) == declared("end_to_end")
          and all(v[0] > 0 for v in plain["end_to_end"].values()),
          "every end-to-end metric is emitted, non-zero, with its unit")

    def flip(rep_dir):
        if rep_dir.name == "r1":
            path = rep_dir / "c0" / "events.csv"
            data = bytearray(path.read_bytes())
            data[-2] ^= 1
            path.write_bytes(bytes(data))

    flipped = run.measure("selftest-flip", 3, 0, 0, lightning, tamper=flip)
    check(flipped["attempted"] == 2 and flipped["failed"] == 1,
          "a flipped byte against the first repeat counts one failure")
    digests = {f"c0/{f}": h for f, h in run.compared_outputs(
        run.WORK / "selftest-plain" / "r0" / "c0").items()}
    right = run.measure("selftest-reference", 3, 0, 0, lightning,
                        reference=digests)
    check(right["failed"] == 0, "outputs that match the reference pass")
    digests["c0/events.csv"] = digests["c0/events.csv"][::-1]
    wrong = run.measure("selftest-reference", 3, 0, 0, lightning,
                        reference=digests)
    check(wrong["failed"] == wrong["attempted"] == 2,
          "outputs that differ from the reference digests count as failed")
    bad = run.measure("selftest-exit", 3, 0, 0, [["dist", "--case", "Z9"]])
    check(bad["failed"] == bad["attempted"] == 2,
          "a non-zero CLI exit counts as failed")

    print(f"{len(FAILURES)} failed checks")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
