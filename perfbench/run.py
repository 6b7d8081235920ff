"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S]
                             [--trace 0|1]

Each workload is a closed loop with one client: passes over the
workload's command list run back to back, each in a fresh interpreter
(``worker.py``), as long as the next pass is expected to end within
``--seconds``; at least one pass (and one traced pass) always runs.
``pass_s`` is the mean pass time of the run, total pass time over
passes, so it is the inverse of the run's throughput.  A fresh
interpreter per pass makes every pass pay the cache fills (``fock``'s
occupancy tables) that every ``modnet`` invocation pays; the import
itself is timed separately as ``setup_s``.  BLAS libraries are pinned
to one thread in every process.

``--trace 0`` reports the end-to-end metrics from untraced passes.
``--trace 1`` alternates untraced and traced passes and reports the
per-layer metrics; the tracing overhead is traced minus untraced pass
time.  The last stdout line is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines before it, and
``.perfbench-out/`` at the repository root, hold the environment record
and the raw samples.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(ROOT, ".perfbench-out")

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# the pin applies before numpy loads, here and in every worker
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import manifest  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

SETUP_SAMPLES = 3        # import-only interpreters per run, after a warm-up
EXIT_BUDGET_S = 170.0    # every run must end within 180 s
GEMM_N = 512
GEMM_REPEATS = 15
SELF_SUM_TOL = 0.01      # per-layer self times vs traced pass time


def _worker(mode, args, started, extra=()):
    """Run one worker; return its JSON result, or None if it failed."""
    timeout = max(5.0, EXIT_BUDGET_S - (time.perf_counter() - started))
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), mode]
    if mode != "import":
        cmd += ["--workload", args.workload, "--seed", str(args.seed),
                "--out", OUT_DIR, *extra]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired:
        print(f"worker {mode} timed out after {timeout:.0f} s",
              file=sys.stderr)
        return None
    if proc.returncode != 0 or not proc.stdout.strip():
        sys.stderr.write(proc.stderr)
        print(f"worker {mode} exited with {proc.returncode}", file=sys.stderr)
        return None
    return json.loads(proc.stdout.strip().splitlines()[-1])


def peak_gflops():
    """Best rate of a fixed single-threaded float64 GEMM, in GFLOP/s."""
    import numpy as np
    rng = np.random.default_rng(0)
    a = rng.standard_normal((GEMM_N, GEMM_N))
    b = rng.standard_normal((GEMM_N, GEMM_N))
    best = float("inf")
    for _ in range(GEMM_REPEATS):
        t0 = time.perf_counter()
        np.dot(a, b)
        best = min(best, time.perf_counter() - t0)
    return 2.0 * GEMM_N ** 3 / best / 1e9


def environment():
    import mpmath
    import numpy as np
    import scipy
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = {k: v for k, v in sorted(os.environ.items())
               if k.endswith("_THREADS") or k.startswith("OMP_")}
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "mpmath": mpmath.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "thread_env": threads,
        "platform": platform.platform(),
    }


def high_percentile(samples):
    """(percent, value) of the highest percentile with >= 10 samples above."""
    ordered = sorted(samples)
    n = len(ordered)
    if n < 11:
        return None
    return 100.0 * (n - 10) / n, ordered[n - 11]


def _layer_metrics(traced, untraced_pass):
    """Per-layer metrics from traced worker results.

    Times are medians over traced passes; the traced pass time is their
    mean, like ``pass_s``.
    """
    def med(values):
        return statistics.median(values)

    traces = [r["trace"] for r in traced]
    first = traces[0]
    m = {}
    for name in first["calls"]:
        m[f"{name}.calls"] = (first["calls"][name], "count")
        m[f"{name}.self_s"] = (med([t["self_s"][name] for t in traces]), "s")
    for op in tracing.KERNEL_OPS:
        m[f"kernel.{op}.gflop"] = (first["gflop"][op], "gflop")
    m[f"{tracing.REGION_COUNTER}.calls"] = (
        first["counters"][tracing.REGION_COUNTER], "count")
    for counter in (tracing.CONDITIONING_COUNTER,
                    tracing.NONCONVERGENCE_COUNTER):
        m[counter] = (first["counters"][counter], "count")
    lookups = first["calls"]["bgl.NetModel.wedge_subspace"]
    m["bgl.wedge_subspace.hit_ratio"] = (
        (lookups - first["wedge_subspace_misses"]) / lookups if lookups
        else 0.0, "ratio")
    for label in manifest.op_labels():
        m[f"cli.op.{label}.s"] = (
            med([t["op_s"].get(label, 0.0) for t in traces]), "s")
    for layer in tracing.LAYERS:
        m[f"layer.{layer}.self_s"] = (
            med([t["layer_self_s"][layer] for t in traces]), "s")
    traced_pass = statistics.fmean([r["pass_s"] for r in traced])
    m["trace.pass_s"] = (traced_pass, "s")
    m["trace.overhead_s"] = (traced_pass - untraced_pass, "s")
    return m


def _trace_problems(traced):
    """Self-time sums that miss the pass time; counts that do not repeat."""
    problems = []
    for r in traced:
        t = r["trace"]
        if abs(t["self_sum_s"] - r["pass_s"]) > SELF_SUM_TOL * r["pass_s"]:
            problems.append(
                f"per-layer self times sum to {t['self_sum_s']:.6f} s, "
                f"traced pass took {r['pass_s']:.6f} s")
    keys = ("calls", "counters", "gflop", "wedge_subspace_misses")
    for r in traced[1:]:
        if any(r["trace"][k] != traced[0]["trace"][k] for k in keys):
            problems.append("call counts differ between traced passes")
    return problems


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float,
                        default=float(manifest.RUN_SECONDS))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    if not os.path.isfile(os.path.join(ROOT, "src", "modnet", "cli.py")):
        print(f"no modnet sources under {ROOT}/src", file=sys.stderr)
        return 2
    os.makedirs(OUT_DIR, exist_ok=True)
    started = time.perf_counter()
    workload = workloads.WORKLOADS[args.workload]

    env = environment()
    env["kernel.peak_gflops"] = peak_gflops()
    print("environment " + json.dumps(env, sort_keys=True))

    problems = []
    if _worker("import", args, started) is None:   # warm-up: bytecode, caches
        problems.append("import worker failed")
    imports = []
    for _ in range(SETUP_SAMPLES):
        r = _worker("import", args, started)
        if r is None:
            problems.append("import worker failed")
        else:
            imports.append(r["import_s"])

    untraced, traced = [], []
    attempted = failed = 0
    spans_path = os.path.join(
        OUT_DIR, f"spans-{args.workload}-seed{args.seed}.jsonl")
    loop_start = time.perf_counter()
    worker_s = []            # wall time of whole pass workers, spawn included
    while True:
        traced_next = args.trace and len(traced) < len(untraced)
        mode = "traced" if traced_next else "pass"
        t0 = time.perf_counter()
        r = _worker(mode, args, started,
                    ("--spans", spans_path) if mode == "traced" else ())
        worker_s.append(time.perf_counter() - t0)
        attempted += len(workload.commands)
        if r is None:
            failed += len(workload.commands)
            problems.append(f"{mode} worker failed")
            break
        imports.append(r["import_s"])
        (traced if mode == "traced" else untraced).append(r)
        bad, reasons = workloads.tally(r["commands"])
        failed += bad
        problems.extend(reasons)
        # start another pass only if it should end within --seconds
        projected = (time.perf_counter() - loop_start
                     + statistics.median(worker_s))
        if (projected > args.seconds and untraced
                and (traced or not args.trace)):
            break

    if untraced and traced:
        problems.extend(_trace_problems(traced))
    pass_samples = [r["pass_s"] for r in untraced]
    metrics = {}
    if pass_samples and imports:
        pass_s = statistics.fmean(pass_samples)
        if args.trace and traced:
            metrics = _layer_metrics(traced, pass_s)
            metrics["kernel.peak_gflops"] = (env["kernel.peak_gflops"],
                                             "gflop/s")
        elif not args.trace:
            metrics = {
                "pass_s": (pass_s, "s"),
                "setup_s": (statistics.median(imports), "s"),
                "peak_rss_mb": (statistics.median(
                    [r["rss_mb"] for r in untraced]), "MB"),
                "ok_share": (1.0 - failed / attempted, "share"),
            }
        high = high_percentile(pass_samples)
        print(f"pass_s samples {len(pass_samples)} mean {pass_s:.6f} s "
              f"median {statistics.median(pass_samples):.6f} s; "
              + (f"p{high[0]:.1f} {high[1]:.6f} s" if high
                 else "no percentile has 10 samples above it"))
        print(f"setup_s samples {len(imports)}; failed_share "
              f"{failed / attempted:.6f} ({failed}/{attempted} commands)")
    expected = {m["name"] for m in (manifest.per_layer() if args.trace
                                    else manifest.END_TO_END)}
    if set(metrics) != expected:
        problems.append("metric set differs from BENCHMARK.json: "
                        f"{sorted(set(metrics) ^ expected)}")
    for p in problems:
        print(f"problem: {p}")
    for name, (value, unit) in metrics.items():
        print(f"metric {name} = {value!r} {unit}")

    record = {"workload": args.workload, "seed": args.seed,
              "trace": args.trace, "environment": env, "problems": problems,
              "import_s": imports, "pass_s": pass_samples,
              "cpu_s": [r["cpu_s"] for r in untraced],
              "traced_pass_s": [r["pass_s"] for r in traced],
              "rss_mb": [r["rss_mb"] for r in untraced]}
    with open(os.path.join(OUT_DIR, f"{args.workload}-seed{args.seed}"
                           f"-trace{args.trace}.json"), "w",
              encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    print(json.dumps({
        "correct": not problems and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
