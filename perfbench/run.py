"""irfad benchmark: stage walls, scorer throughput and per-request latency.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload toy --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 25 --trace 0

A run sets up ``SETUP_REPEATS`` times, then repeats rounds of stages until the
next round would end past ``--seconds`` (see workloads.py, which also explains
why timings are scaled by a speed probe). Each workload runs in its own
process with the BLAS thread count pinned before NumPy is imported. With
``--trace 0`` the run reports the end-to-end metrics; with ``--trace 1`` it
wraps irfad's public functions (see spans.py) and reports the per-layer
metrics instead (see layers.py). Any ``--seed`` works, so a claim can be
checked on a seed that was not used while the change was written.

The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``; the lines before it give
every metric with its unit, sample count and raw-wall value (and
``REPORT_ONLY`` ones that BENCHMARK.json leaves out), the failed
operations over the attempted ones (``failed_ops_frac``, which is not a
metric of BENCHMARK.json because it is 0 when all is well), and the machine
fingerprint. The full result, with every timed unit and probe, is also
written to ``.perfbench_out/``. A run that fails a check exits 1.
"""

import time

T_PROCESS_START = time.perf_counter()

import os  # noqa: E402

BLAS_THREADS = "1"  # on a 2-core box 2 threads were no faster than 1, and noisier
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench_out")
WORKLOAD_NAMES = ("toy", "blobs", "online")
# Printed, but not a metric of BENCHMARK.json. On the 2-core reference box a
# 1000-request block's p99 ranged from 1.2x to 12x its p50, as other tenants
# stalled requests, so the median over a run's 18-24 blocks moved between runs
# by 0.07-0.20 of itself (IQR over ten seeds, `online` workload): too close
# to the largest bound a metric may have, 0.25.
REPORT_ONLY = ("online_p99_ms",)


def _parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _run_all(args) -> int:
    """Every workload, each in its own process, one after the other."""
    status = 0
    for name in WORKLOAD_NAMES:
        print(f"== {name}", flush=True)
        argv = [sys.executable, os.path.abspath(__file__), "--workload", name,
                "--seed", str(args.seed), "--seconds", str(args.seconds),
                "--trace", str(args.trace)]
        status = max(status, subprocess.run(argv, check=False).returncode)
    return status


def _print_report(workload, seed, trace, metrics, samples, bench, fp) -> None:
    print(f"workload {workload}  seed {seed}  trace {trace}  rounds {bench.rounds}")
    width = max((len(name) for name in metrics), default=16)
    for name, (value, unit) in metrics.items():
        n = ""
        if name in samples:
            n = f"  (n={samples[name]['n']}"
            if samples[name]["raw"] != value:
                n += f", from raw walls {samples[name]['raw']:.6g}"
            n += ")"
        print(f"  {name.ljust(width)}  {value:.6g} {unit}{n}")
    failed = len(bench.failures)
    print(f"  {'failed_ops_frac'.ljust(width)}  {failed / bench.attempted:.6g}"
          f" ({failed}/{bench.attempted} operations)")
    for what in bench.failures[:20]:
        print(f"  FAILED: {what}")
    print("fingerprint " + json.dumps(fp, sort_keys=True))


def _run_one(args) -> int:
    sys.path.insert(0, SRC)
    import layers
    import machine
    import spans
    import workloads

    workload = workloads.WORKLOADS[args.workload]
    os.makedirs(OUT, exist_ok=True)
    work = os.path.join(OUT, f"work-{args.workload}-{os.getpid()}")
    os.makedirs(work)
    tracer = spans.Tracer() if args.trace else None
    bench = workloads.Bench(workload, args.seed, args.seconds, work, SRC, tracer)
    try:
        if tracer is not None:
            tracer.install()  # set-up spans count too
        if bench.setup(T_PROCESS_START):
            if tracer is not None:
                tracer.uninstall()  # round 0 runs untraced: the overhead baseline
            bench.run_rounds(after_first=tracer.install if tracer is not None else None)
        if tracer is not None:
            tracer.uninstall()
            for span in sorted(layers.EXPECTED_SPANS[workload.name] - tracer.fired()):
                bench.check(False, f"span {span} never fired on {workload.name}")
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        if bench.failures:
            metrics, samples = {}, {}
        elif args.trace:
            metrics, samples = layers.layer_metrics(tracer, bench), {}
        else:
            e2e = workloads.end_to_end(bench, peak_rss_mb)
            metrics = {name: (v, unit) for name, (v, unit, _, _) in e2e.items()}
            samples = {name: {"n": n, "raw": raw} for name, (_, _, n, raw) in e2e.items()}
    finally:
        shutil.rmtree(work, ignore_errors=True)
    fp = machine.fingerprint(ROOT, SRC, BLAS_THREADS)
    _print_report(args.workload, args.seed, args.trace, metrics, samples, bench, fp)
    result = {
        "correct": not bench.failures,
        "attempted": bench.attempted,
        "failed": len(bench.failures),
        "metrics": {name: {"value": v, "unit": unit}
                    for name, (v, unit) in metrics.items() if name not in REPORT_ONLY},
    }
    record = dict(result, workload=args.workload, seed=args.seed, seconds=args.seconds,
                  trace=args.trace, rounds=bench.rounds, samples=samples,
                  failures=bench.failures, fingerprint=fp, walls=bench.walls,
                  probes=bench.probes)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(os.path.join(OUT, name), "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
    print(json.dumps(result), flush=True)
    return 0 if result["correct"] else 1


def main(argv=None) -> int:
    args = _parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "irfad", "cli.py")):
        print(f"perfbench: error: no irfad sources under {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return _run_all(args)
    return _run_one(args)


if __name__ == "__main__":
    sys.exit(main())
