"""The benchmark's metric and workload lists, and BENCHMARK.json.

    python3 perfbench/manifest.py      # rewrite BENCHMARK.json at the root

``run.py`` reports exactly these metrics: the end-to-end list on an
untraced run (``--trace 0``), the per-layer list on a traced one.
"""

import json
import os

import tracing
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
MANIFEST = os.path.join(ROOT, "BENCHMARK.json")

RUN_SECONDS = 20

END_TO_END = (
    {"name": "pass_s", "unit": "s", "better": "lower", "bound": 0.25},
    {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25},
    {"name": "peak_rss_mb", "unit": "MB", "better": "lower", "bound": 0.05},
    # 1 - failed_share; the failed share itself is 0 on a good run
    {"name": "ok_share", "unit": "share", "better": "higher", "bound": 0.01},
)


def op_labels():
    """Every command label any workload runs, in first-seen order."""
    seen = {}
    for workload in workloads.WORKLOADS.values():
        for cmd in workload.commands:
            seen.setdefault(cmd.label, None)
    return tuple(seen)


def per_layer():
    out = []

    def add(name, unit, better):
        out.append({"name": name, "unit": unit, "better": better})

    for name in tracing.SPAN_NAMES:
        add(f"{name}.calls", "count", "lower")
        add(f"{name}.self_s", "s", "lower")
    for op in tracing.KERNEL_OPS:
        add(f"kernel.{op}.calls", "count", "lower")
        add(f"kernel.{op}.self_s", "s", "lower")
        add(f"kernel.{op}.gflop", "gflop", "lower")
    add(f"{tracing.REGION_COUNTER}.calls", "count", "lower")
    add(tracing.CONDITIONING_COUNTER, "count", "lower")
    add(tracing.NONCONVERGENCE_COUNTER, "count", "lower")
    add("bgl.wedge_subspace.hit_ratio", "ratio", "higher")
    for label in op_labels():
        add(f"cli.op.{label}.s", "s", "lower")
    for layer in tracing.LAYERS:
        add(f"layer.{layer}.self_s", "s", "lower")
    add("kernel.peak_gflops", "gflop/s", "higher")
    add("trace.pass_s", "s", "lower")
    add("trace.overhead_s", "s", "lower")
    return out


def manifest():
    return {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": w.name, "why": w.why}
                      for w in workloads.WORKLOADS.values()],
        "end_to_end": [dict(m) for m in END_TO_END],
        "per_layer": per_layer(),
    }


def render():
    return json.dumps(manifest(), indent=2) + "\n"


if __name__ == "__main__":
    with open(MANIFEST, "w", encoding="utf-8") as fh:
        fh.write(render())
