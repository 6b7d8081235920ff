"""One fresh interpreter: import modnet, optionally run one workload pass.

    python3 perfbench/worker.py import
    python3 perfbench/worker.py pass   --workload NAME --seed N --out DIR
    python3 perfbench/worker.py traced --workload NAME --seed N --out DIR \
        [--spans FILE.jsonl]

Prints one JSON object on its last stdout line.  ``import_s`` times
``import modnet.cli``; ``pass_s`` times the workload's commands, each
through ``cli.run_command`` and ``cli.write_report``, run back to back.
Verdicts are gated after the timed loop.  BLAS thread pinning comes from
the environment the parent sets.
"""

# only what the interpreter has loaded already, so that ``import_s``
# covers everything ``import modnet.cli`` brings in
import os
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")


def _import_modnet():
    sys.path.insert(0, SRC)
    started = time.perf_counter()
    import modnet.cli
    elapsed = time.perf_counter() - started
    where = os.path.abspath(modnet.cli.__file__)
    if not where.startswith(os.path.join(SRC, "modnet") + os.sep):
        raise RuntimeError(f"imported modnet from {where}, not from {SRC}")
    return modnet, elapsed


def _run_pass(cli, workload, seed, out_dir, rec=None):
    """Run every command once.

    Returns (start clock, wall seconds, CPU seconds,
    [(label, report, tables, error)]).
    With a span recorder, each command's spans carry its label.
    """
    import tempfile
    import traceback

    results = []
    with tempfile.TemporaryDirectory(dir=out_dir) as tmp:
        started = time.perf_counter()
        cpu_started = time.process_time()
        for cmd in workload.commands:
            if rec is not None:
                rec.op = cmd.label
            config = cmd.config(cli.DEFAULT_CONFIGS[cmd.command], seed)
            try:
                report, tables = cli.run_command(cmd.command, config, seed,
                                                 1.0)
                cli.write_report(report, tables, tmp)
            except Exception:  # the gate counts it; the pass goes on
                results.append((cmd.label, None, None, traceback.format_exc()))
                continue
            results.append((cmd.label, report, tables, None))
        elapsed = time.perf_counter() - started
        cpu = time.process_time() - cpu_started
    return started, elapsed, cpu, results


def main(argv=None):
    modnet, import_s = _import_modnet()
    import argparse
    import json

    parser = argparse.ArgumentParser()
    parser.add_argument("mode", choices=("import", "pass", "traced"))
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--out")
    parser.add_argument("--spans")
    args = parser.parse_args(argv)
    result = {"import_s": import_s}
    if args.mode == "import":
        print(json.dumps(result))
        return 0

    import resource

    import tracing
    import workloads

    workload = workloads.WORKLOADS[args.workload]
    cli = modnet.cli
    rec = None
    if args.mode == "traced":
        rec = tracing.SpanRecorder()
        undo = tracing.install(rec, modnet)
    try:
        started, pass_s, cpu_s, results = _run_pass(
            cli, workload, args.seed, args.out, rec)
    finally:
        if rec is not None:
            undo()

    commands = []
    for label, report, tables, error in results:
        reasons = ([error.strip().splitlines()[-1]] if error
                   else workloads.command_failures(label, report, tables))
        commands.append({"label": label, "failures": reasons})
    result.update(pass_s=pass_s, cpu_s=cpu_s, commands=commands,
                  rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                  / 1024.0)
    if rec is not None:
        result["trace"] = tracing.summarize(rec)
        if args.spans:
            rec.write_jsonl(args.spans, origin=started)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
