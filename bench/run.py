#!/usr/bin/env python3
"""posevote benchmark: one workload, one closed-loop client, one thread.

    python3 bench/run.py --workload detect_clean --seed 1 --seconds 20 --trace 0

With ``--trace 0`` it prints the end-to-end metrics: set-up time (median of
fresh-process probes), throughput over a timed window that follows a
discarded warm-up op, median op time, peak RSS and the share of ops that
succeeded. With ``--trace 1`` it runs one cycle over the workload's pool
with every layer wrapped (see ``tracing.py``), replays the same ops
untraced, and prints the per-layer metrics and the tracing overhead.

Every op's output is hashed; an op fails if it raises or if its digest
differs from the first run of the same input in this process. Every run
covers its workload's whole pool of inputs, so its quality figures are
constants. The run is correct when no op failed and each quality figure
equals the workload's expected value. The lines before the last print each
figure with its unit, the quality figures, the run digest and the
environment; the last line is one JSON object with the keys correct,
attempted, failed and metrics. The exit code is 0 when the run is correct.
"""

import os

# one BLAS/OpenMP thread, set before numpy loads; the set-up probes inherit it
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
SETUP_RUNS = 7
P90_MIN_OPS = 100  # the 90th percentile needs ten samples beyond it


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True,
                   help="length of the timed window (rounded up to whole chunks "
                        "and to at least one cycle over the pool)")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seconds <= 0:
        p.error("--seconds must be positive")
    return p, args


class Runner:
    """Runs ops, counts failures and keeps the first output per input key."""

    def __init__(self, workload):
        self.wl = workload
        self.attempted = 0
        self.failed = 0
        self.digests: dict[int, str] = {}
        self.results: dict[int, object] = {}

    def run(self, i: int):
        """Run op ``i``; returns its wall time, or None if it failed."""
        key = self.wl.key(i)
        self.attempted += 1
        start = time.perf_counter()
        try:
            result = self.wl.op(key)
        except Exception:
            self.failed += 1
            print(f"op failed: {self.wl.op_name} {key}", file=sys.stderr)
            traceback.print_exc()
            return None
        elapsed = time.perf_counter() - start
        digest = self.wl.digest(result)
        if self.digests.setdefault(key, digest) != digest:
            self.failed += 1
            print(f"op failed: {self.wl.op_name} {key} digest {digest} != "
                  f"first run {self.digests[key]}", file=sys.stderr)
            return None
        self.results.setdefault(key, result)
        return elapsed


def measure_setup(workload: str) -> list[float]:
    times = []
    for _ in range(SETUP_RUNS):
        out = subprocess.run([sys.executable, str(BENCH / "setup_probe.py"), workload],
                             cwd=ROOT, capture_output=True, text=True, timeout=120,
                             check=True)
        times.append(float(out.stdout.split()[-1]))
    return times


def timed_window(runner: Runner, seconds: float):
    """Run ops 0, 1, ... in chunks until ``seconds`` have passed and the
    pool has been covered once. Returns the wall times of the ops that
    succeeded and the window's wall time."""
    chunk, pool = runner.wl.chunk, len(runner.wl.POOL)
    times = []
    i = 0
    start = time.perf_counter()
    while i < pool or time.perf_counter() - start < seconds:
        for _ in range(chunk):
            elapsed = runner.run(i)
            i += 1
            if elapsed is not None:
                times.append(elapsed)
    return times, time.perf_counter() - start


def timed_ops(runner: Runner, n: int, tracer=None) -> float:
    start = time.perf_counter()
    for i in range(n):
        if tracer is not None:
            tracer.op_id = runner.wl.key(i)
        runner.run(i)
    return time.perf_counter() - start


def environment() -> str:
    import numpy
    import scipy
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_desc = f"{blas['name']} {blas['version']} ({blas.get('openblas configuration', '')})"
    except (TypeError, KeyError):
        blas_desc = "unknown"
    return (f"nproc={os.cpu_count()} affinity={len(os.sched_getaffinity(0))} "
            f"python={platform.python_version()} numpy={numpy.__version__} "
            f"scipy={scipy.__version__} blas={blas_desc} "
            f"OPENBLAS_NUM_THREADS={os.environ['OPENBLAS_NUM_THREADS']}")


def show(kind: str, name: str, value, unit: str, note: str = ""):
    print(f"{kind:8} {name:42} {value:>16.8g} {unit:6} {note}".rstrip())


def end_to_end(args, runner: Runner) -> dict:
    setup = measure_setup(args.workload)
    runner.run(0)  # warm-up, discarded
    times, wall = timed_window(runner, args.seconds)
    n = len(times)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    m = {
        "setup_s": (statistics.median(setup), "s",
                    f"median of {len(setup)} fresh processes, "
                    f"{min(setup):.4f}-{max(setup):.4f}"),
        "ops_per_s": (n / wall, "1/s", f"{n} {runner.wl.op_name}s in {wall:.3f} s"),
        "op_p50_s": (statistics.median(times) if times else 0.0, "s", f"n={n}"),
        "peak_rss_mb": (rss_mb, "MiB", "peak RSS of this process"),
        "ops_ok_frac": (1.0 - runner.failed / runner.attempted, "ratio",
                        f"{runner.attempted - runner.failed} of "
                        f"{runner.attempted} ops, warm-up included"),
    }
    for name, (value, unit, note) in m.items():
        show("metric", name, value, unit, note)
    if n >= P90_MIN_OPS:
        show("metric", "op_p90_s", statistics.quantiles(times, n=10)[-1], "s",
             f"n={n}")
    else:
        print(f"metric   op_p90_s not reported: {n} ops, needs {P90_MIN_OPS}")
    show("metric", "ops_failed_frac", runner.failed / runner.attempted, "ratio",
         f"{runner.failed} of {runner.attempted} ops")
    return {name: (value, unit) for name, (value, unit, _) in m.items()}


def per_layer(args, runner: Runner) -> dict:
    import tracing
    runner.run(0)  # warm-up, discarded
    n = len(runner.wl.POOL)
    tracer = tracing.Tracer()
    with tracer.installed():
        traced_wall = timed_ops(runner, n, tracer)
    untraced_wall = timed_ops(runner, n)  # same ops; digests must match
    m = tracing.layer_metrics(tracer)
    m["trace.ops"] = (n, "count")
    m["trace.ops_per_s"] = (n / traced_wall, "1/s")
    m["trace.untraced_ops_per_s"] = (n / untraced_wall, "1/s")
    # share of untraced throughput lost to tracing
    m["trace.overhead"] = (1.0 - untraced_wall / traced_wall, "ratio")
    for name, (value, unit) in m.items():
        show("layer", name, value, unit)
    print("self time by span, largest first:")
    rows = sorted(tracer.layer_times().items(), key=lambda kv: -kv[1]["self_s"])
    for name, row in rows:
        print(f"  {name:36} calls={row['calls']:<7} busy_s={row['busy_s']:<12.6f} "
              f"self_s={row['self_s']:.6f}")
    out = BENCH / "out" / f"spans-{args.workload}-seed{args.seed}.jsonl"
    tracer.write(out)
    print(f"spans    {len(tracer.spans)} written to {out.relative_to(ROOT)}")
    return m


def main(argv=None) -> int:
    parser, args = parse_args(argv)
    if not (SRC / "posevote" / "__init__.py").is_file():
        print(f"error: no posevote sources under {SRC}; run from a checkout "
              "of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS
    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {', '.join(WORKLOADS)}")
    wl_cls = WORKLOADS[args.workload]
    print(f"# posevote benchmark workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    print(f"env      {environment()}")
    runner = Runner(wl_cls(args.seed, wl_cls.build_models()))
    if args.trace:
        metrics = per_layer(args, runner)
    else:
        metrics = end_to_end(args, runner)

    problems = []
    keys = sorted(runner.results)
    if keys:
        for name, value, unit, base in runner.wl.quality(runner.results):
            show("quality", name, value, unit, base)
        problems += runner.wl.quality_problems(runner.results)
        print(f"digest   {runner.wl.op_name}s {keys} "
              f"sha256={runner.wl.run_digest(runner.results)}")
    else:
        problems.append("no op succeeded")
    if runner.failed:
        problems.append(f"{runner.failed} of {runner.attempted} ops failed")
    for p in problems:
        print(f"INCORRECT: {p}", file=sys.stderr)
    correct = not problems
    print(json.dumps({
        "correct": correct,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
