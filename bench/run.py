"""Benchmark of meastree: one closed-loop workload per process.

Usage (from the root of a checkout):

    python3 bench/run.py --workload paths|wide|certify --seed N --seconds S --trace 0|1

One caller runs one operation at a time. Set-up builds the workload's
inputs from the seed five times and keeps the median; then whole passes
over the same operations run until ``--seconds`` have passed. A CLI
call's time is its fastest pass; a circuit's time is the sum, over the
calls its pipeline makes into meastree, of each call's fastest pass.
Every output is checked. The last line of stdout is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.
``--self-test`` instead runs ``selftest.py``. See README.md.
"""

import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from collections import defaultdict  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
DEMO_DIR = ROOT / "demos" / "data"
OUT = ROOT / ".bench_out"

SETUP_REPEATS = 5

# Per-layer sizes reported as the largest sample, since the largest tree
# and the largest output set the peak memory; every other per-layer
# metric is a median.
LARGEST = ("trees.operator_mb", "cli.stdout_mb")

END_TO_END_UNITS = {"setup_s": "s", "circuits_per_s": "1/s", "circuit_s.p50": "s", "cli_s.p50": "s", "peak_rss_mb": "MB"}


def per_layer_names() -> list[dict]:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)["per_layer"]


def import_meastree():
    """Import meastree from this checkout's ``src``, never from elsewhere."""
    if not (SRC / "meastree" / "__init__.py").is_file() or not DEMO_DIR.is_dir():
        raise SystemExit(f"error: no meastree sources under {SRC} or demos under {DEMO_DIR}")
    sys.path.insert(0, str(SRC))
    import meastree

    if Path(meastree.__file__).resolve().parent != (SRC / "meastree").resolve():
        raise SystemExit(f"error: imported meastree from {meastree.__file__}, not from {SRC}")


def run_pass(ops, tracer, record) -> None:
    """Run one pass of operations; checks run outside the timed region."""
    for op in ops:
        tracer.circuit = op.label
        tracer.laps = []
        start = time.perf_counter()
        try:
            out = op.run()
            elapsed = time.perf_counter() - start
            problems = op.check(out)
        except Exception:  # an operation that raises is a failed operation
            elapsed = time.perf_counter() - start
            problems = ["raised:\n" + traceback.format_exc()]
        record(op, elapsed, tracer.laps, problems)


def fastest(samples, kind: str) -> list[float]:
    """Each operation's fastest time over the passes.

    The fastest pass is the one least disturbed by other load on the
    machine, so a run that happens to fall in a busy spell reads close
    to one that does not.
    """
    return [min(v) for (k, _), v in samples.items() if k == kind]


def fastest_stages(laps: dict[str, list[list[float]]]) -> list[float]:
    """Each circuit's pipeline time: per call into meastree, its fastest
    pass, summed over the calls.

    The machine's speed changes from one fraction of a second to the
    next, so a call of a few milliseconds finds an undisturbed pass far
    more often than a pipeline of a second does. Summing per-call minima
    keeps a long pipeline as steady as a short one.
    """
    out = []
    for passes in laps.values():
        if len({len(p) for p in passes}) != 1:
            raise RuntimeError("a circuit's pipeline made a different number of calls in different passes")
        out.append(sum(min(stage) for stage in zip(*passes)))
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=("paths", "wide", "certify"))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-test", action="store_true", help="check that every check rejects a perturbed result")
    args = ap.parse_args(argv)
    if not args.self_test and args.workload is None:
        ap.error("--workload is required")

    import_meastree()
    if args.self_test:
        import selftest

        return selftest.main(DEMO_DIR, OUT)

    import workloads
    from spans import Tracer

    import_s = time.perf_counter() - T0
    tracer = Tracer()
    tracer.enabled = bool(args.trace)
    workdir = OUT / f"{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        workload = workloads.WORKLOADS[args.workload](args.seed, workdir, tracer, DEMO_DIR)
        setup_times = []
        for _ in range(SETUP_REPEATS):
            start = time.perf_counter()
            workload.setup()
            workloads.warm_up(tracer, workdir, DEMO_DIR)
            setup_times.append(time.perf_counter() - start)
        ops = workload.operations()

        # seconds per successful operation: {traced: {(kind, label): [...]}}
        times = {True: defaultdict(list), False: defaultdict(list)}
        # per untraced circuit: one list of call durations per pass
        circuit_laps = defaultdict(list)
        counts = {"attempted": 0, "failed": 0, "wrong": 0}

        def record(op, elapsed, laps, problems):
            counts["attempted"] += 1
            if problems:
                counts["failed"] += 1
                if op.kind != "fault":
                    counts["wrong"] += 1
                    print(f"{args.workload} {op.label}: " + "; ".join(problems), file=sys.stderr)
            elif op.kind != "fault":
                times[tracer.enabled][op.kind, op.label].append(elapsed)
                if op.kind == "circuit" and not tracer.enabled:
                    circuit_laps[op.label].append(laps)

        start = time.perf_counter()
        passes = 0
        min_passes = 4 if args.trace else 1
        while passes < min_passes or time.perf_counter() - start < args.seconds:
            # A traced run interleaves traced and untraced passes in the
            # order T U U T T U U T ..., so that both kinds sit at the same
            # mean position in the run and a drift in machine speed does
            # not count as tracing overhead.
            tracer.enabled = bool(args.trace) and passes % 4 in (0, 3)
            run_pass(ops, tracer, record)
            passes += 1
        print(
            f"{args.workload}: import {import_s:.3f} s, set-ups "
            + ", ".join(f"{t:.3f}" for t in setup_times)
            + f" s, {passes} passes in {time.perf_counter() - start:.1f} s",
            file=sys.stderr,
        )

        if args.trace:
            OUT.mkdir(exist_ok=True)
            tracer.write(OUT / f"trace-{args.workload}-{args.seed}.json")
            summary = tracer.summary(largest=LARGEST)
            if times[False]:
                summary["trace.overhead_pct"] = 100.0 * (
                    sum(fastest(times[True], "circuit")) / sum(fastest(times[False], "circuit")) - 1.0
                )
            metrics = {
                m["name"]: {"value": summary[m["name"]], "unit": m["unit"]}
                for m in per_layer_names()
                if m["name"] in summary
            }
        else:
            circuit_s = fastest_stages(circuit_laps)
            values = {
                "setup_s": import_s + statistics.median(setup_times),
                "circuits_per_s": len(circuit_s) / sum(circuit_s),
                "circuit_s.p50": statistics.median(circuit_s),
                "cli_s.p50": statistics.median(fastest(times[False], "cli")),
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            }
            metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END_UNITS.items()}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    print(json.dumps({
        "correct": counts["wrong"] == 0,
        "attempted": counts["attempted"],
        "failed": counts["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
