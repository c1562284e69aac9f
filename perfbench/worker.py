"""One benchmark process: set up, fork, run workload passes for the time
given in the child, check every pass, and print one JSON line for run.py.

The passes run in a child forked after set-up, so that ``peak_rss_mb`` is the
resident-set peak of the passes and not of the window profile built during
set-up (about 700 MB); the set-up peak is reported next to it.

    python3 perfbench/worker.py --workload ssf_sweep --seed 1 --seconds 12 --trace 0
    python3 perfbench/worker.py --workload ssf_sweep --setup-only

"""
from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import sys
import time
import traceback

import numpy as np

import check
import workloads
from tracing import Tracer, self_times, top_level_seconds

WORKDIR = os.path.join(workloads.ROOT, ".perfbench")


def environment() -> dict:
    import scipy

    def blas(module):
        try:
            deps = module.show_config(mode="dicts")["Build Dependencies"]["blas"]
            return f"{deps.get('name')} {deps.get('version')}"
        except (TypeError, KeyError, AttributeError):
            return "unknown"

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "numpy_blas": blas(np),
        "scipy_blas": blas(scipy),
    }


def run_pass(workload: str, seed: int, traced: bool, tracer: Tracer, expected: dict,
             run_id: str) -> dict:
    workdir = os.path.join(WORKDIR, "work", workload)
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    tracer.begin_run(run_id, traced)
    p = workloads.Pass(tracer, np.random.default_rng(seed), workdir)
    t0 = time.perf_counter()
    workloads.WORKLOADS[workload](p)
    bad = check.failed_keys(p.records, expected)
    wall = time.perf_counter() - t0
    for err in p.errors:
        print(err, file=sys.stderr)
    for key in bad:
        print(f"{run_id}: {key}: got {p.records.get(key)!r}, pinned {expected.get(key)!r}",
              file=sys.stderr)
    out = {"run": run_id, "seed": seed, "traced": traced, "wall_s": wall,
           "ops": len(expected), "failed": len(bad), "counts": dict(tracer.counts)}
    if traced:
        spans = tracer.run_spans(run_id)
        out["self_s"] = self_times(spans)
        out["top_level_s"] = top_level_seconds(spans)
        out["measures"] = dict(tracer.measures)
        out["measures"]["harness.bytes_written"] = sum(
            os.path.getsize(os.path.join(d, fn)) for d, _, files in os.walk(workdir) for fn in files)
    return out


def run_passes(args, tracer: Tracer) -> dict:
    expected = check.load_expected()[args.workload]
    passes = []
    start = time.perf_counter()
    # Untraced passes use the run's seed.  In a traced run, untraced and traced
    # passes alternate and the untraced ones use the next seed, so comparing
    # their counters shows that the counts do not depend on the seed.
    while True:
        k = len(passes)
        traced = bool(args.trace) and k % 2 == 1
        seed = args.seed + 1 if args.trace and not traced else args.seed
        passes.append(run_pass(args.workload, seed, traced, tracer, expected,
                               f"{args.workload}-seed{seed}-pass{k}"))
        if args.trace and len(passes) % 2:
            continue
        elapsed = time.perf_counter() - start
        rounds = len(passes) // 2 if args.trace else len(passes)
        if elapsed + elapsed / rounds > args.seconds:
            break
    os.makedirs(WORKDIR, exist_ok=True)
    if args.trace:
        tracer.dump(os.path.join(WORKDIR, f"spans-{args.workload}-seed{args.seed}.jsonl"))
    return {"passes": passes, "peak_rss_mb": peak_rss_mb()}


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def in_child(fn, *args) -> dict | None:
    """Run ``fn(*args)`` in a forked child and return its JSON result, or None
    when the child fails."""
    read_fd, write_fd = os.pipe()
    pid = os.fork()
    if pid == 0:
        os.close(read_fd)
        code = 1
        try:
            with os.fdopen(write_fd, "w") as fh:
                json.dump(fn(*args), fh)
            code = 0
        except BaseException:
            traceback.print_exc()
        finally:
            sys.stdout.flush()
            sys.stderr.flush()
            os._exit(code)
    os.close(write_fd)
    with os.fdopen(read_fd) as fh:
        data = fh.read()
    _, status = os.waitpid(pid, 0)
    if status != 0 or not data:
        return None
    return json.loads(data)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=12.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()

    tracer = Tracer(enabled=bool(args.trace))
    tracer.begin_run("setup", bool(args.trace))
    workloads.setup(tracer)
    setup_done = time.monotonic()
    if args.setup_only:
        print(json.dumps({"setup_done": setup_done}))
        return 0

    res = in_child(run_passes, args, tracer)
    if res is None:
        print("the passes failed", file=sys.stderr)
        return 1
    print(json.dumps({
        "setup_done": setup_done,
        "setup_self_s": self_times(tracer.run_spans("setup")),
        "setup_peak_rss_mb": peak_rss_mb(),
        **res,
        "env": environment(),
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
