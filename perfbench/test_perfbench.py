"""Tests of the benchmark's own arithmetic and gate.

    python3 -m pytest -q perfbench
"""

import json
import os
import re

import pytest

import manifest
import tracing
import workloads


def _span(sid, start, end, parent=None, name="x"):
    return [sid, name, start, end, parent, None]


def test_self_time_subtracts_nested_children():
    # root [0, 10] with children [1, 3] and [4, 8]; [4, 8] has a child
    # [5, 6]; self times add up to the root duration
    spans = [_span(0, 0.0, 10.0), _span(1, 1.0, 3.0, 0),
             _span(2, 4.0, 8.0, 0), _span(3, 5.0, 6.0, 2)]
    assert tracing.self_times(spans) == [4.0, 2.0, 3.0, 1.0]
    assert sum(tracing.self_times(spans)) == 10.0


def test_self_time_counts_overlapping_children_once():
    # overlapping and out-of-interval children are merged and clipped
    spans = [_span(0, 0.0, 10.0), _span(1, 2.0, 5.0, 0),
             _span(2, 4.0, 7.0, 0), _span(3, 9.0, 12.0, 0)]
    assert tracing.self_times(spans)[0] == pytest.approx(10.0 - 5.0 - 1.0)


def test_recorder_nests_spans_and_summarizes_layers():
    ticks = iter(range(100))
    rec = tracing.SpanRecorder(clock=lambda: float(next(ticks)))
    rec.op = "verify-mobius"
    outer = rec.open("cli.run_command")                 # t=0
    inner = rec.open("mobius.commutation_residual")     # t=1
    kernel = rec.open("kernel.norm2")                   # t=2
    rec.close(kernel)                                   # t=3
    rec.close(inner)                                    # t=4
    rec.close(outer)                                    # t=5
    summary = tracing.summarize(rec)
    assert summary["layer_self_s"]["cli"] == 2.0
    assert summary["layer_self_s"]["mobius"] == 2.0
    assert summary["layer_self_s"]["kernel"] == 1.0
    assert summary["self_sum_s"] == 5.0
    assert summary["op_s"] == {"verify-mobius": 5.0}
    assert summary["calls"]["kernel.norm2"] == 1


def _report(label, verdicts):
    return {"checks": [{"name": name, "passed": ok}
                       for name, ok in verdicts.items()]}


def test_expected_twisted_failure_passes_the_gate():
    label = "bgl-axioms.twisted"
    report = _report(label, workloads.EXPECTED_VERDICTS[label])
    assert workloads.command_failures(label, report, {}) == []


def test_flipped_expected_verdict_counts_as_a_failure():
    label = "bgl-axioms.twisted"
    report = _report(label, workloads.EXPECTED_VERDICTS[label])
    flipped = {k: dict(v) for k, v in workloads.EXPECTED_VERDICTS.items()}
    flipped[label]["dilation-bisognano-wichmann"] = True
    reasons = workloads.command_failures(label, report, {}, expected=flipped)
    assert len(reasons) == 1 and "dilation-bisognano-wichmann" in reasons[0]
    ok = {"label": "verify-mobius", "failures": []}
    failed, listed = workloads.tally([ok, {"label": label,
                                           "failures": reasons}])
    assert failed == 1 and listed == reasons


def test_missing_check_counts_as_a_failure():
    label = "halperin-bench"
    report = _report(label, {"halperin-agreement": True})
    assert workloads.command_failures(label, report, {}) == [
        "halperin-bench: check halperin-convergence missing"]


def test_moved_ladder_row_counts_as_a_failure():
    label = "lightcone-defect"
    report = _report(label, workloads.EXPECTED_VERDICTS[label])
    fields = ("mass", "grid", "cones", "sum_dim", "defect")
    rows = [{"mass": 1.0, "grid": 65, "cones": 32, "sum_dim": 32,
             "defect": 98 / 130}]
    assert workloads.command_failures(
        label, report, {"ladder": (fields, rows)}) == []
    rows[0]["defect"] = 0.7539
    assert len(workloads.command_failures(
        label, report, {"ladder": (fields, rows)})) == 1


def test_break_bw_deviation_must_match_prediction():
    label = "break-bw"
    report = _report(label, workloads.EXPECTED_VERDICTS[label])
    rows = [{"t": 0.5, "deviation": 2.0 + 1e-14, "predicted": 2.0}]
    table = {"deviation": (("t", "deviation", "predicted"), rows)}
    assert workloads.command_failures(label, report, table) == []
    rows[0]["deviation"] = 1.9
    assert len(workloads.command_failures(label, report, table)) == 1


def test_every_workload_label_has_expected_verdicts():
    for workload in workloads.WORKLOADS.values():
        for cmd in workload.commands:
            assert cmd.label in workloads.EXPECTED_VERDICTS


def test_svd_flop_formula():
    assert tracing.svd_flops(4, 2, False) == 4 * 4 * 4 - 4 * 8 / 3
    assert tracing.svd_flops(2, 4, True) == tracing.svd_flops(4, 2, True)


def test_committed_manifest_matches_and_keeps_the_limits():
    with open(manifest.MANIFEST, encoding="utf-8") as fh:
        assert fh.read() == manifest.render()
    data = json.loads(manifest.render())
    names = [m["name"] for key in ("workloads", "end_to_end", "per_layer")
             for m in data[key]]
    assert len(names) == len(set(names))
    assert all(re.fullmatch(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}", n)
               for n in names)
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"]
               for w in data["workloads"])
    assert 1 <= len(data["per_layer"]) <= 128
    assert all(m["bound"] <= 0.25 for m in data["end_to_end"])
    assert all(os.path.isdir(os.path.join(manifest.ROOT, p))
               for p in data["paths"])
