"""ssf-lab benchmark launcher.

    python3 perfbench/run.py --workload ssf_sweep --seed 1 --seconds 12 --trace 0
    python3 perfbench/run.py --workload all

Runs from the root of a checkout.  Each workload runs in fresh processes:
SETUP_PROBES processes that only set up, half of them before and half after
one worker process that sets up and runs workload passes for ``--seconds``.
BLAS threads are pinned to the processor count.  Prints one summary line per workload, the environment, and
as its last line one JSON object with ``correct``, ``attempted``, ``failed``
and ``metrics``: the end-to-end metrics with ``--trace 0``, the per-layer
metrics with ``--trace 1``.  Exits non-zero when an output differs from the
pinned table or a counter differs between passes.  See README.md for what
each metric means and which workload should move it.
"""
from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("ssf_sweep", "trace_sweep")
SETUP_PROBES = 4  # plus the worker's own set-up: five samples per run
DEADLINE_S = 175.0  # per workload; a run must end within 180 s
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

LAYERS = ("quantization", "ssf", "coefficients", "microhyperbolicity", "harness")
# span name -> per-layer metric <span>_s (self time, seconds per pass)
TIMED_SPANS = (
    "quantization.eigvals", "quantization.eigpairs", "quantization.assemble",
    "quantization.weyl_quantize", "quantization.smoothed_trace", "quantization.theorem_checks",
    "ssf.build_pair", "ssf.estimators",
    "coefficients.a0", "coefficients.c0", "coefficients.gamma0",
    "coefficients.gamma0_localized", "coefficients.profile",
    "microhyperbolicity.shell_check", "microhyperbolicity.escape",
    "harness.run",
)
COUNTS = (
    ("quantization.solves", "count"),
    ("quantization.repeat_solves", "count"),
    ("quantization.eig_dim3_sum", "count"),
    ("quantization.dense_bytes_computed", "B"),
    ("microhyperbolicity.shells_checked", "count"),
) + tuple((f"{layer}.{what}", "count") for layer in LAYERS for what in ("calls", "errors"))


def child(args: list[str], env: dict, deadline: float) -> dict:
    """Run a worker to completion and return the JSON of its last stdout line."""
    cmd = [sys.executable, os.path.join(HERE, "worker.py")] + args
    # a process group of its own, so that a timeout also stops the child the
    # worker forks for its passes
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        wait_for_group(proc.pid)
        raise
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(args)} exited with code {proc.returncode}")
    return json.loads(out.strip().splitlines()[-1])


def wait_for_group(pgid: int, limit_s: float = 5.0) -> None:
    """Wait until no process of the group is left, or ``limit_s`` passes."""
    end = time.monotonic() + limit_s
    while time.monotonic() < end:
        try:
            os.killpg(pgid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.05)


def median(values) -> float:
    return statistics.median(list(values))


def per_layer(res: dict) -> dict:
    """Per-layer metrics (name -> (value, unit)): medians over traced passes."""
    traced = [p for p in res["passes"] if p["traced"]]
    untraced = [p for p in res["passes"] if not p["traced"]]

    def med(fn):
        return median(fn(p) for p in traced)

    out = {"quantization.window_profile_s": (
        res["setup_self_s"].get("quantization.window_profile", 0.0), "s"),
        "setup.peak_rss_mb": (res["setup_peak_rss_mb"], "MB")}
    for span in TIMED_SPANS:
        out[span + "_s"] = (med(lambda p: p["self_s"].get(span, 0.0)), "s")
    for name, unit in COUNTS:
        out[name] = (med(lambda p: p["counts"].get(name, 0)), unit)

    def certified(p):
        nonempty = p["counts"].get("microhyperbolicity.shells_nonempty", 0)
        return p["counts"].get("microhyperbolicity.shells_valid", 0) / nonempty if nonempty else 0.0

    out["microhyperbolicity.certified_ratio"] = (med(certified), "ratio")
    out["harness.overhead_s"] = (med(lambda p: p["measures"].get("harness.overhead_s", 0.0)), "s")
    out["harness.bytes_written"] = (med(lambda p: p["measures"].get("harness.bytes_written", 0)), "B")
    out["quantization.eigvals_share"] = (
        med(lambda p: p["self_s"].get("quantization.eigvals", 0.0) / p["wall_s"]), "ratio")
    out["bench.self_s"] = (med(lambda p: sum(v for k, v in p["self_s"].items()
                                            if k.startswith("bench."))), "s")
    out["trace.uncovered_s"] = (med(lambda p: p["wall_s"] - p["top_level_s"]), "s")
    out["trace.overhead_s"] = (med(lambda p: p["wall_s"]) - median(p["wall_s"] for p in untraced), "s")
    out["trace.traced_wall_s"] = (med(lambda p: p["wall_s"]), "s")
    return out


def run_workload(workload: str, args, env: dict) -> dict:
    deadline = time.monotonic() + DEADLINE_S

    def setup_probe():
        spawned = time.monotonic()
        return child(["--workload", workload, "--setup-only"], env, deadline)["setup_done"] - spawned

    # probes before and after the worker, so a slow spell of the host does not
    # set every sample
    setups = [setup_probe() for _ in range(SETUP_PROBES // 2)]
    spawned = time.monotonic()
    res = child(["--workload", workload, "--seed", str(args.seed), "--seconds", str(args.seconds),
                 "--trace", str(args.trace)], env, deadline)
    setups.append(res["setup_done"] - spawned)
    setups += [setup_probe() for _ in range(SETUP_PROBES - SETUP_PROBES // 2)]

    passes = res["passes"]
    attempted = sum(p["ops"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    counts_repeat = all(p["counts"] == passes[0]["counts"] for p in passes)
    if not counts_repeat:
        print(f"{workload}: counters differ between passes: "
              f"{[p['counts'] for p in passes]}", file=sys.stderr)
    if args.trace:
        metrics = per_layer(res)
    else:
        metrics = {
            "wall_s": (median(p["wall_s"] for p in passes), "s"),
            "setup_s": (median(setups), "s"),
            "peak_rss_mb": (res["peak_rss_mb"], "MB"),
        }
    print(f"{workload}: " + "  ".join(f"{k}={v:.6g} {u}" for k, (v, u) in metrics.items())
          + f"  ops_failed_ratio={failed / attempted:.6g} ({failed} of {attempted} ops)"
          + f"  passes={len(passes)}")
    result = {
        "workload": workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "env": res["env"], "setup_samples_s": setups, "passes": passes,
        "correct": failed == 0 and counts_repeat, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    results_dir = os.path.join(ROOT, ".perfbench", "results")
    os.makedirs(results_dir, exist_ok=True)
    with open(os.path.join(results_dir, f"{workload}-seed{args.seed}-trace{args.trace}.json"),
              "w") as fh:
        json.dump(result, fh, indent=1)
    return result


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=12.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    nproc = len(os.sched_getaffinity(0))
    env = dict(os.environ)
    env.update({var: str(nproc) for var in BLAS_THREAD_VARS})

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    try:
        results = [run_workload(name, args, env) for name in names]
    except (RuntimeError, subprocess.TimeoutExpired, ValueError, IndexError) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1

    print("env " + json.dumps(results[0]["env"]))
    if len(results) == 1:
        metrics = results[0]["metrics"]
    else:
        metrics = {f"{r['workload']}.{k}": v for r in results for k, v in r["metrics"].items()}
    correct = all(r["correct"] for r in results)
    print(json.dumps({
        "correct": correct,
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
