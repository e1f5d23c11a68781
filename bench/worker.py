"""One repeat of a workload, in a fresh interpreter.

Usage: python3 bench/worker.py SPEC.json

SPEC is a JSON object with keys "calls" (a list of gridstudies argument
lists), "src" (the directory gridstudies must be imported from), "trace"
(bool), "result" and "spans" (output paths).  The process times
`import gridstudies.cli` (setup_s), runs every call in order through
gridstudies.cli.main (wall_s runs from the first call's start to the last
call's return) and writes the exit code of each call, both times, its own
peak resident memory and, when traced, the per-layer metrics to "result".
"""

import json
import os
import resource
import sys
import time


def _run(main, argv):
    try:
        return main(argv)
    except SystemExit as exc:  # argparse rejects bad flags this way
        return exc.code if isinstance(exc.code, int) else 1


def main(spec_path):
    with open(spec_path) as fh:
        spec = json.load(fh)

    t0 = time.perf_counter()
    import gridstudies.cli as cli
    setup_s = time.perf_counter() - t0

    src = os.path.realpath(spec["src"])
    if not os.path.realpath(cli.__file__).startswith(src + os.sep):
        sys.exit(f"gridstudies was imported from {cli.__file__}, not {src}")

    tracer = None
    if spec["trace"]:
        import tracing
        tracer = tracing.Tracer()
        tracer.install()

    codes = []
    start = time.perf_counter()
    for argv in spec["calls"]:
        if tracer is None:
            codes.append(_run(cli.main, argv))
        else:
            codes.append(tracer.call(tracing.ROOT_SPAN, _run,
                                     (cli.main, argv), {}))
    wall_s = time.perf_counter() - start

    result = {"setup_s": setup_s, "wall_s": wall_s, "codes": codes,
              "peak_rss_mb":
                  resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024}
    if tracer is not None:
        result["layers"] = tracer.metrics(wall_s)
        tracer.dump(spec["spans"])
    with open(spec["result"], "w") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main(sys.argv[1])
