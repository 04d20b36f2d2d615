"""Seeded benchmark of the hotspots pipeline.

    python3 bench/run.py --workload fine --seed 1 --seconds 50 --trace 0

Run from the root of a source checkout; the library is imported from its
``src`` directory. One process drives the library through its public
functions in a closed loop, one item at a time (see workloads.py).

Set-up: five fresh interpreters each import ``hotspots`` and run a small
warm-up analysis; ``setup_s`` is the median of their times. This process
then imports and warms up itself, untimed.

Measurement: whole passes over the workload's items, repeated while the next
pass is expected to end within ``--seconds`` of the start of the run, set-up
included (always at least one pass). ``wall_s`` is the median pass time,
``item_p50_s`` the median item time over all passes. Every item's verdicts
are checked, and every pass must give the same verdict digest.

``--trace 1`` also runs one pass with the layers' entry points wrapped
(tracer.py) and reports per-layer metrics, including the tracing overhead:
traced minus untraced ``wall_s``. The untraced passes leave time for it.

The last line of standard output is one JSON object: correct, attempted,
failed and metrics. A fuller record, with per-item verdicts, the digest and
the thread settings, goes to ``bench/out/``.
"""
from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
SETUP_SAMPLES = 5
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
# Expected traced pass time over untraced pass time, with margin.
TRACED_SLOWDOWN = 1.2

clock = time.perf_counter


def pin_threads() -> dict:
    """Run native thread pools on one thread: the library drives BLAS with
    small or sparse operands, where a second thread does not pay and makes
    timings noisier (README.md, *Threads*). Must run before numpy is
    imported; explicit settings in the environment win."""
    nproc = len(os.sched_getaffinity(0))
    for var in THREAD_VARS:
        os.environ.setdefault(var, "1")
    return {"nproc": nproc, **{v: os.environ[v] for v in THREAD_VARS}}


def measure_setup(n: int) -> list[float]:
    """Import-plus-warm-up time of ``n`` fresh interpreters, one at a time."""
    samples = []
    for _ in range(n):
        proc = subprocess.run([sys.executable, str(BENCH / "setup_probe.py")],
                              capture_output=True, text=True, timeout=120, check=True)
        samples.append(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])
    return samples


def measure(items, deadline: float, reserve: float,
            run_items) -> tuple[list[tuple[float, list]], float]:
    """Closed-loop passes over ``items`` while the next one, followed by
    ``reserve`` times a pass, is expected to end by ``deadline`` on ``clock``.
    There is always at least one pass. Garbage from one pass is collected
    before the next starts, untimed.

    Also returns the peak RSS in MB at the end of the first pass: the memory
    that set-up and one pass need. Later passes only add heap fragmentation,
    so the peak after all of them would depend on how many fit in the time.
    """
    passes = []
    while True:
        gc.collect()
        t0 = clock()
        results = run_items(items, clock)
        passes.append((clock() - t0, results))
        if len(passes) == 1:
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        if clock() + (1 + reserve) * passes[-1][0] > deadline:
            return passes, peak_rss_mb


def environment(threads: dict) -> dict:
    import numpy as np
    import scipy
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {k: blas.get(k) for k in ("name", "version")}
    except (TypeError, KeyError):   # numpy < 1.26 has no dict form of it
        blas = None
    return {"python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__, "blas": blas, "threads": threads,
            "machine": platform.machine()}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    start = clock()
    deadline = start + args.seconds

    if not (SRC / "hotspots" / "__init__.py").is_file():
        print(f"error: no hotspots package under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    threads = pin_threads()
    sys.path.insert(0, str(SRC))
    import workloads as wl
    from tracer import Tracer, check_accounting, check_nesting, layer_metrics
    if args.workload not in wl.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {wl.WORKLOADS}",
              file=sys.stderr)
        return 2

    setup = measure_setup(SETUP_SAMPLES)
    wl.warm_up()
    items = wl.build(args.workload, args.seed)

    reserve = TRACED_SLOWDOWN if args.trace else 0.0
    passes, peak_rss_mb = measure(items, deadline, reserve, wl.run_items)
    first = passes[0][1]
    problems = [f"{r.label}: {p}" for r in first for p in r.problems]
    digests = [wl.digest(results) for _, results in passes]
    if len(set(digests)) > 1:
        problems.append(f"verdict digests differ between passes: {digests}")
    all_results = [r for _, results in passes for r in results]
    attempted = len(all_results)
    failed = sum(r.failed for r in all_results)
    wall_s = statistics.median(t for t, _ in passes)
    item_times = [r.seconds for r in all_results]

    summary = {
        "setup_s": (statistics.median(setup), "s", f"median of {len(setup)}"),
        "wall_s": (wall_s, "s", f"median of {len(passes)} pass(es) of {len(first)} items"),
        "item_p50_s": (statistics.median(item_times), "s", f"n = {len(item_times)}"),
        "peak_rss_mb": (peak_rss_mb, "MB", "this process, through the first pass"),
        "failed_frac": (failed / attempted, "1", f"{failed} of {attempted}"),
    }
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "environment": environment(threads),
              "setup_samples": setup, "pass_seconds": [t for t, _ in passes],
              "digest": digests[0],
              "items": [{"label": r.label, "inputs": item.inputs, "seconds": r.seconds,
                         "verdict": r.verdict, "problems": r.problems}
                        for item, r in zip(items, first)]}

    if args.trace:
        gc.collect()
        with Tracer() as tracer:
            t0 = clock()
            traced = wl.run_items(items, clock)
            t1 = clock()
        traced_wall = t1 - t0
        attempted += len(traced)
        failed += sum(r.failed for r in traced)
        if wl.digest(traced) != digests[0]:
            problems.append("traced pass changed the verdict digest")
        problems += check_nesting(tracer.spans)
        problems += check_accounting(tracer.spans, t0, t1)
        layer = layer_metrics(tracer.spans, traced_wall)
        problems += wl.coverage_problems(args.workload, layer, traced)
        layer["trace.wall_s"] = traced_wall
        layer["trace.untraced_wall_s"] = wall_s
        layer["trace.overhead_s"] = traced_wall - wall_s
        problems += [f"{r.label} (traced): {p}" for r in traced for p in r.problems]
        metrics = {m["name"]: {"value": layer[m["name"]], "unit": m["unit"]}
                   for m in declared["per_layer"]}
        record["per_layer"] = layer
    else:
        metrics = {m["name"]: {"value": summary[m["name"]][0], "unit": m["unit"]}
                   for m in declared["end_to_end"]}

    elapsed = clock() - start
    record.update(summary={k: v[0] for k, v in summary.items()}, problems=problems,
                  elapsed_s=elapsed)
    OUT.mkdir(exist_ok=True)
    out_file = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out_file.write_text(json.dumps(record, indent=1, default=str))

    print(f"workload {args.workload}, seed {args.seed}: {len(first)} items per pass, "
          f"digest {digests[0]}, {elapsed:.1f} s in all, record in {out_file.relative_to(ROOT)}")
    for name, (value, unit, note) in summary.items():
        print(f"  {name:<12} {value:12.6g} {unit:<3} ({note})")
    if args.trace:
        units = {m["name"]: m["unit"] for m in declared["per_layer"]}
        for name, value in layer.items():
            print(f"  {name:<30} {value:14.6g} {units.get(name, '')}")
    for p in problems:
        print(f"  FAILED CHECK {p}")
    print(json.dumps({"correct": not problems and failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
