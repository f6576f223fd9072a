"""csmod benchmark: one workload, one process, one worker.

    python3 bench/run.py --workload {count,sigma,series} --seed N \\
        --seconds S --trace {0,1}

Builds the workload's round of operations from the seed, then repeats
whole rounds until S seconds have been measured.  Every output is checked
against the oracles in bench/oracle.py after its round.  The last line of
standard output is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end ones (setup_s, wall_s,
op_p50_ms, peak_rss_mb); their times are in calibrated seconds (see
bench/calibrate.py), and the uncalibrated ones go to standard error.
With --trace 1 the run makes one untraced round, the microbenchmarks and
one traced round, prints the per-layer metrics and writes the spans to
bench/out/trace-<workload>-<seed>.json.  See bench/README.md for what
each metric means.
"""

import argparse
import json
import os
import random
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

sys.path.insert(0, str(HERE))
import calibrate  # noqa: E402
import oracle  # noqa: E402
import workloads  # noqa: E402

SETUP_PROBES = 11
# import and construction are timed first, so that the probe pays every
# import a CLI process pays; the reference runs right after, on the same core
SETUP_PROBE = (
    "import time\n"
    "t = time.perf_counter()\n"
    "import csmod.cli\n"
    "from csmod.orders import hurwitz, icosian, octahedral\n"
    "hurwitz(); icosian(); octahedral()\n"
    "t = time.perf_counter() - t\n"
    "import statistics, calibrate\n"
    "print(t, statistics.median(calibrate.reference_samples(t)))\n"
)
# reference samples are taken before a round's operations, after them,
# and between them whenever this many seconds of operations have passed
CHUNK_S = 0.5


def measure_setup():
    """Median over fresh interpreters of import plus construction of the
    three maximal orders, the set-up every CLI process pays, as
    (seconds, calibrated seconds)."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(SRC), str(HERE)]))
    raw, calibrated = [], []
    for _ in range(SETUP_PROBES):
        done = subprocess.run([sys.executable, "-c", SETUP_PROBE], env=env,
                              cwd=ROOT, capture_output=True, text=True,
                              timeout=60, check=True)
        seconds, reference = map(float, done.stdout.split())
        raw.append(seconds)
        calibrated.append(seconds * calibrate.scale(reference))
    return statistics.median(raw), statistics.median(calibrated)


def import_csmod():
    if not (SRC / "csmod" / "__init__.py").is_file():
        sys.exit(f"error: no csmod sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import csmod
    import csmod.cli  # noqa: F401  (binds csmod.cli and every layer)
    if Path(csmod.__file__).resolve().parent != SRC / "csmod":
        sys.exit(f"error: imported csmod from {csmod.__file__}, not {SRC}")
    return csmod


class Tally:
    """Operations attempted and failed, and whether every output that
    was produced passed its checks."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.correct = True
        self._reported = set()

    def report(self, label, why):
        if why not in self._reported and len(self._reported) < 10:
            self._reported.add(why)
            print(f"FAILED {label}: {why}", file=sys.stderr)


def run_round(csmod, ops, prepare, tally):
    """One round: untimed preparation, the timed operations, then the
    checks.  Operations run in chunks of at least CHUNK_S seconds, with
    reference samples in every gap; each operation is calibrated by the
    samples on both sides of its chunk.  Returns (seconds, calibrated
    seconds) per operation."""
    prepare(csmod)
    timed, gaps, chunk_of = [], [calibrate.reference_samples()], []
    chunk_started = time.perf_counter()
    for i, op in enumerate(ops):
        t0 = time.perf_counter()
        try:
            out, err = op.call(), None
        # a refused or crashed operation counts as failed; the CLI's
        # argument parser raises SystemExit on arguments it rejects
        except (Exception, SystemExit):
            out, err = None, traceback.format_exc(limit=3)
        timed.append((op, time.perf_counter() - t0, out, err))
        chunk_of.append(len(gaps) - 1)
        chunk = time.perf_counter() - chunk_started
        if chunk >= CHUNK_S or i == len(ops) - 1:
            gaps.append(calibrate.reference_samples(chunk))
            chunk_started = time.perf_counter()
    for op, _, out, err in timed:
        tally.attempted += 1
        if err is None:
            try:
                err = op.check(out)
            except (ValueError, LookupError, TypeError) as exc:
                err = f"malformed output: {exc!r}"
            if err is not None:
                tally.correct = False
        if err is not None:
            tally.failed += 1
            tally.report(op.label, err.strip().splitlines()[-1])
    scales = [calibrate.scale(statistics.median(gaps[k] + gaps[k + 1]))
              for k in range(len(gaps) - 1)]
    return [(dt, dt * scales[k]) for (_, dt, _, _), k in zip(timed, chunk_of)]


def run_untraced(csmod, ops, prepare, seconds, tally):
    setup_raw, setup_s = measure_setup()
    rounds = []
    started = time.perf_counter()
    while not rounds or time.perf_counter() - started < seconds:
        rounds.append(run_round(csmod, ops, prepare, tally))
    walls = [(sum(t[0] for t in r), sum(t[1] for t in r)) for r in rounds]
    lat = [t for r in rounds for t in r]
    print("uncalibrated " + json.dumps({
        "setup_s": setup_raw,
        "wall_s": statistics.median(w[0] for w in walls),
        "op_p50_ms": 1000 * statistics.median(d[0] for d in lat),
        "rounds": len(rounds),
    }), file=sys.stderr)
    return {
        "setup_s": (setup_s, "s"),
        "wall_s": (statistics.median(w[1] for w in walls), "s"),
        "op_p50_ms": (1000 * statistics.median(d[1] for d in lat), "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                        / 1024, "MB"),
    }


def run_traced(csmod, ops, prepare, workload, seed, tally):
    import tracing
    untraced = sum(t[1] for t in run_round(csmod, ops, prepare, tally))
    metrics = tracing.microbenchmarks(csmod)
    tracer = tracing.Tracer()
    tracer.install(csmod)
    try:
        # every workload times one construction of the three orders under
        # tracing; for count it is also the round's preparation
        workloads.fresh_orders(csmod)
        build = tracer.stats()["orders.order_build"]
        tracer.reset()
        traced = sum(t[1] for t in run_round(
            csmod, ops, workloads.no_preparation, tally))
    finally:
        tracer.remove()
    metrics.update(tracer.layer_metrics())
    metrics["orders.order_build.total_s"] = (build[1], "s")
    metrics["trace.overhead_ratio"] = (traced / untraced, "ratio")
    OUT.mkdir(exist_ok=True)
    path = OUT / f"trace-{workload}-{seed}.json"
    path.write_text(json.dumps({
        "workload": workload, "seed": seed,
        "untraced_round_s": untraced, "traced_round_s": traced,
        "metrics": {k: v for k, (v, _) in metrics.items()},
        "counts": tracer.counts,
        "spans": tracer.spans,
    }))
    return metrics


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    oracle.selftest()
    csmod = import_csmod()
    build, prepare = workloads.WORKLOADS[args.workload]
    ops = build(csmod, random.Random(args.seed))
    tally = Tally()
    if args.trace:
        metrics = run_traced(csmod, ops, prepare, args.workload, args.seed,
                             tally)
    else:
        metrics = run_untraced(csmod, ops, prepare, args.seconds, tally)
    print(json.dumps({
        "correct": tally.correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))


if __name__ == "__main__":
    main()
