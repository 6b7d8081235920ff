"""End-to-end tests for the command-line runner.

Commands run in-process through ``cli.main`` with small configurations
so the whole battery stays fast; reports are parsed back from the
output directory and checked against the documented schema.
"""

import csv
import importlib
import importlib.util
import json
import math
import os
import subprocess
import sys
import textwrap

import numpy as np
import pytest
from realform import real_antilinear, real_linear

from modnet import bgl
from modnet import cli
from modnet import mobius
from modnet import reps
from modnet import stdspace

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _write_config(tmp_path, name, payload):
    path = tmp_path / name
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(payload), encoding="utf-8")
    return str(path)


def _run(tmp_path, command, config=None, extra=()):
    argv = [command, "--out", str(tmp_path / "out")]
    if config is not None:
        argv += ["--config", _write_config(tmp_path, "cfg.json", config)]
    argv += list(extra)
    code = cli.main(argv)
    report_path = tmp_path / "out" / f"{command}.json"
    report = json.loads(report_path.read_text()) if report_path.exists() \
        else None
    return code, report


# ---------------------------------------------------------------------------
# configuration handling
# ---------------------------------------------------------------------------


def test_defaults_used_without_config():
    cfg = cli.load_config("trace-class", None)
    assert cfg == cli.DEFAULT_CONFIGS["trace-class"]


def test_missing_config_file_is_a_config_error():
    with pytest.raises(cli.ConfigError, match="cannot read"):
        cli.load_config("trace-class", "/nonexistent/cfg.json")


def test_empty_config_file_rejected(tmp_path):
    path = tmp_path / "empty.json"
    path.write_text("", encoding="utf-8")
    with pytest.raises(cli.ConfigError, match="empty"):
        cli.load_config("trace-class", str(path))


def test_empty_object_config_rejected(tmp_path):
    path = tmp_path / "empty.json"
    path.write_text("{}", encoding="utf-8")
    with pytest.raises(cli.ConfigError, match="empty"):
        cli.load_config("trace-class", str(path))


def test_malformed_json_rejected(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{betas: oops", encoding="utf-8")
    with pytest.raises(cli.ConfigError, match="not valid JSON"):
        cli.load_config("trace-class", str(path))


def test_unknown_key_rejected(tmp_path):
    path = _write_config(tmp_path, "cfg.json", {"bogus": 1})
    with pytest.raises(cli.ConfigError, match="unknown config key"):
        cli.load_config("trace-class", str(path))


def test_wrong_value_type_rejected(tmp_path):
    path = _write_config(tmp_path, "cfg.json", {"betas": "half"})
    with pytest.raises(cli.ConfigError, match="must be a list"):
        cli.load_config("trace-class", str(path))


def test_config_errors_exit_with_status_two(tmp_path):
    empty = tmp_path / "empty.json"
    empty.write_text("", encoding="utf-8")
    code = cli.main(["trace-class", "--config", str(empty),
                     "--out", str(tmp_path / "out")])
    assert code == cli.EXIT_CONFIG_ERROR


def test_missing_command_is_a_usage_error():
    with pytest.raises(SystemExit):
        cli.main([])


# ---------------------------------------------------------------------------
# report schema and determinism
# ---------------------------------------------------------------------------


def test_report_schema_fields(tmp_path):
    code, report = _run(tmp_path, "trace-class")
    assert code == cli.EXIT_OK
    assert report["schema"] == cli.REPORT_SCHEMA
    assert report["command"] == "trace-class"
    assert report["passed"] is True
    assert report["seed"] == 0
    assert set(report["config"]) == set(cli.DEFAULT_CONFIGS["trace-class"])
    for entry in report["checks"]:
        assert set(entry) == {"name", "residual", "budget", "formula",
                              "passed"}
        assert entry["name"] in cli.CHECKS["trace-class"]
    for key in ("python", "numpy", "mpmath", "platform"):
        assert key in report["environment"]
    assert report["timestamp"]["wall_time_s"] >= 0.0


def test_reports_are_deterministic_modulo_timestamp(tmp_path):
    # verify-mobius makes no BLAS call; the twisted model runs tiled and
    # verify-stdspace runs stacks of subspaces
    for command, cfg in (("verify-mobius", {"samples": 40, "seed": 3}),
                         ("bgl-axioms", {"model": "twisted"}),
                         ("verify-stdspace", {"samples": 10, "seed": 3})):
        _, first = _run(tmp_path / command / "a", command, cfg)
        _, second = _run(tmp_path / command / "b", command, cfg)
        first.pop("timestamp")
        second.pop("timestamp")
        assert json.dumps(first, sort_keys=True) == \
            json.dumps(second, sort_keys=True), command


def test_seed_flag_overrides_config(tmp_path):
    code, report = _run(tmp_path, "spin-statistics", {"pairs": 10, "seed": 1},
                        extra=["--seed", "5"])
    assert code == cli.EXIT_OK
    assert report["seed"] == 5
    assert report["config"]["seed"] == 5


def test_budget_scale_can_force_failures(tmp_path):
    code, report = _run(tmp_path, "trace-class",
                        extra=["--budget-scale", "1e-40"])
    assert code == cli.EXIT_CHECK_FAILURE
    failed = [e["name"] for e in report["checks"] if not e["passed"]]
    assert "trace-class-truncation" in failed
    assert report["budget_scale"] == 1e-40


@pytest.mark.parametrize("scale", ["inf", "nan", "0", "-1"])
def test_budget_scale_must_be_finite_and_positive(tmp_path, scale, capsys):
    # inf would pass every check; nan, 0 or a negative scale fail them all
    code, report = _run(tmp_path, "trace-class",
                        extra=["--budget-scale", scale])
    assert code == cli.EXIT_CONFIG_ERROR
    assert report is None
    assert "budget scale" in capsys.readouterr().err


def test_nan_residual_fails_and_report_is_strict_json(tmp_path, monkeypatch):
    def nan_runner(cfg, seed, scale):
        return {"trace-class-truncation": bgl.Measurement(float("nan")),
                "trace-class-selfdual-value": bgl.Measurement(0.0, 0.0)}, {}

    monkeypatch.setitem(cli.RUNNERS, "trace-class", nan_runner)
    code = cli.main(["trace-class", "--out", str(tmp_path / "out")])
    assert code == cli.EXIT_CHECK_FAILURE

    def reject(token):
        raise ValueError(f"non-standard JSON constant {token}")

    text = (tmp_path / "out" / "trace-class.json").read_text()
    report = json.loads(text, parse_constant=reject)
    entry, selfdual = report["checks"]
    assert selfdual["passed"] is True
    assert entry["residual"] == "NaN"
    assert entry["passed"] is False
    assert report["passed"] is False


def test_environment_variable_sets_output_directory(tmp_path, monkeypatch):
    target = tmp_path / "from-env"
    monkeypatch.setenv(cli.OUT_ENV_VAR, str(target))
    code = cli.main(["spin-statistics"])
    assert code == cli.EXIT_OK
    assert (target / "spin-statistics.json").exists()


def test_internal_errors_exit_with_status_three(tmp_path, monkeypatch):
    def boom(cfg, seed, scale):
        raise RuntimeError("synthetic failure")

    monkeypatch.setitem(cli.RUNNERS, "trace-class", boom)
    code = cli.main(["trace-class", "--out", str(tmp_path / "out")])
    assert code == cli.EXIT_INTERNAL_ERROR


_TRACE_CLASS_ROWS = {"trace-class-truncation": bgl.Measurement(0.0),
                     "trace-class-selfdual-value": bgl.Measurement(0.0, 0.0)}


@pytest.mark.parametrize("results", [
    # a budget on a row whose budget is base * budget_scale
    {"trace-class-truncation": bgl.Measurement(0.0, 1.0)},
    # no budget on a row whose budget the runner computes
    {"trace-class-selfdual-value": bgl.Measurement(0.0)},
    # a bare residual instead of a Measurement
    {"trace-class-truncation": 0.0},
])
def test_a_record_that_breaks_its_budget_contract_is_an_internal_error(
        tmp_path, monkeypatch, capsys, results):
    monkeypatch.setitem(cli.RUNNERS, "trace-class", lambda cfg, seed, scale: (
        {**_TRACE_CLASS_ROWS, **results}, {}))
    code = cli.main(["trace-class", "--out", str(tmp_path / "out")])
    assert code == cli.EXIT_INTERNAL_ERROR
    assert "does not match its CHECKS row" in capsys.readouterr().err
    assert not (tmp_path / "out" / "trace-class.json").exists()


@pytest.mark.parametrize("left_out", [
    # no checks at all once printed "trace-class: PASS (0/0 checks)"
    tuple(_TRACE_CLASS_ROWS),
    ("trace-class-truncation",),
    ("trace-class-selfdual-value",),
])
def test_a_runner_that_leaves_out_a_check_is_an_internal_error(
        tmp_path, monkeypatch, capsys, left_out):
    results = {k: v for k, v in _TRACE_CLASS_ROWS.items() if k not in left_out}
    monkeypatch.setitem(cli.RUNNERS, "trace-class",
                        lambda cfg, seed, scale: (results, {}))
    code = cli.main(["trace-class", "--out", str(tmp_path / "out")])
    assert code == cli.EXIT_INTERNAL_ERROR
    assert "left out its checks" in capsys.readouterr().err
    assert not (tmp_path / "out" / "trace-class.json").exists()


@pytest.mark.parametrize("model,dilation_rows,code", [
    # the models without dilations emit no dilation row, and only those
    # five may be left out
    ("massive", 0, cli.EXIT_OK),
    ("directIntegral", 0, cli.EXIT_OK),
    ("massive", 1, cli.EXIT_INTERNAL_ERROR),
    ("chiralSum", 0, cli.EXIT_INTERNAL_ERROR),
    ("twisted", 0, cli.EXIT_INTERNAL_ERROR),
    ("chiralSum", 5, cli.EXIT_OK),
])
def test_bgl_axioms_leaves_out_only_the_dilation_rows_without_dilations(
        tmp_path, monkeypatch, model, dilation_rows, code):
    rows = list(cli.CHECKS["bgl-axioms"])
    kept = rows[:len(rows) - 5 + dilation_rows]
    monkeypatch.setitem(cli.RUNNERS, "bgl-axioms", lambda cfg, seed, scale: (
        {name: bgl.Measurement(0.0, 1.0) for name in kept}, {}))
    assert _run(tmp_path, "bgl-axioms", {"model": model})[0] == code


# ---------------------------------------------------------------------------
# individual commands
# ---------------------------------------------------------------------------


def _generators_built(monkeypatch):
    """The list that collects every generator np.random.default_rng
    builds from here on."""
    built = []
    real = np.random.default_rng

    def spy(seed):
        built.append(real(seed))
        return built[-1]

    monkeypatch.setattr(np.random, "default_rng", spy)
    return built


def test_verify_mobius_passes(tmp_path):
    code, report = _run(tmp_path, "verify-mobius", {"samples": 60})
    assert code == cli.EXIT_OK
    worst = max(e["residual"] for e in report["checks"])
    assert worst < 1e-11


def _residuals(results):
    """A runner's results as check name -> residual."""
    return {name: m.residual for name, m in results.items()}


def _verify_mobius_one_draw_at_a_time(cfg, rng):
    """The verify-mobius runner drawing and checking one (t, s) at a time."""
    samples, span = cfg["samples"], float(cfg["parameter_range"])
    worst_comm = 0.0
    for pair in mobius.COMMUTATION_PAIRS:
        count = 0
        while count < samples:
            t, s = rng.uniform(-span, span, size=2)
            try:
                residual = mobius.commutation_residual(t, s, pair)
            except mobius.MobiusDomainError:
                continue
            count += 1
            worst_comm = max(worst_comm, residual)
    worst_law = 0.0
    for _ in range(max(1, samples // 10)):
        word = [mobius.MobiusElement.generators(
                    int(rng.integers(3)), float(rng.uniform(-1.5, 1.5)))
                for _ in range(4)]
        combined = word[0]
        for g in word[1:]:
            combined = combined.compose(g)
        for u in rng.uniform(-math.pi, math.pi, size=8):
            stepped = u
            for g in reversed(word):
                stepped = g.act_angle(stepped)
            gap = mobius.wrap_angle(combined.act_angle(u) - stepped)
            worst_law = max(worst_law, abs(gap))
    worst_cover = 0.0
    for _ in range(max(1, samples // 10)):
        params = rng.uniform(-1.5, 1.5, size=3)
        picks = rng.integers(3, size=3)
        g1, g2, g3 = (mobius.CoverElement.generators(picks[k], params[k])
                      for k in range(3))
        lifted = g1.compose(g2).compose(g3)
        _, a, n = lifted.base.iwasawa()
        kan, base = mobius.kan_matrix(lifted.phi, a, n), lifted.base.mat
        worst_cover = max(
            worst_cover, abs(lifted.phi - g1.compose(g2.compose(g3)).phi),
            min(np.max(np.abs(kan - base)), np.max(np.abs(kan + base))))
    return {"mobius-commutation": worst_comm, "mobius-group-law": worst_law,
            "mobius-cover-consistency": worst_cover}


@pytest.mark.parametrize("samples,span,seed", [
    (1000, 2.0, 0), (1000, 2.0, 7), (1, 2.0, 3), (1, 6.0, 5), (200, 6.0, 11)])
def test_verify_mobius_draws_as_one_draw_at_a_time(samples, span, seed,
                                                   monkeypatch):
    # each round draws only the still missing samples, so every draw is
    # one the per-draw loop makes too, and the generator ends in step
    cfg = {"samples": samples, "parameter_range": span}
    ref_rng = np.random.default_rng(seed)
    built = _generators_built(monkeypatch)
    got, _ = cli._run_verify_mobius(cfg, seed, 1.0)
    assert _residuals(got) == _verify_mobius_one_draw_at_a_time(cfg, ref_rng)
    (rng,) = built
    assert rng.bit_generator.state == ref_rng.bit_generator.state


def test_verify_stdspace_passes(tmp_path):
    code, report = _run(tmp_path, "verify-stdspace",
                        {"dim": 6, "samples": 6})
    assert code == cli.EXIT_OK
    assert len(report["checks"]) == 6


def _verify_stdspace_one_sample_at_a_time(cfg, rng):
    """The verify-stdspace runner drawing and checking one span at a time;
    returns its results and the number of spans drawn."""
    n = cfg["dim"]
    worst = dict.fromkeys(cli.CHECKS["verify-stdspace"], 0.0)
    drawn = 0
    for _ in range(cfg["samples"]):
        while True:
            vecs = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
            h = stdspace.make_subspace(vecs)
            drawn += 1
            rep = stdspace.standardness(h)
            if rep.standard and rep.minimal_angle > 0.05:
                break
        md = stdspace.modular_data(h)
        dual = stdspace.symplectic_complement(h)
        a, jc, delta = md.tomita_matrix(), md.jc, md.power(1.0)
        a_dual = stdspace.modular_data(dual).tomita_matrix()
        eye = np.eye(n)
        jh = stdspace.RealSubspace.from_complex(jc @ h.complex_basis().conj())
        values = {
            "stdspace-tomita-involution": [
                np.linalg.norm(a @ a.conj() - eye, 2)],
            "stdspace-modular-balance": [
                np.linalg.norm(jc @ delta.conj() @ jc.conj() @ delta - eye, 2)
                / md.delta_norm],
            "stdspace-dual-tomita": [np.linalg.norm(a_dual - a.T, 2)],
            "stdspace-conjugate-complement": [
                stdspace.subspace_distance(jh, dual)],
            "stdspace-flow-invariance": [
                stdspace.subspace_distance(h.transform(md.delta_it(t)), h)
                for t in (0.37, 1.23)],
            "stdspace-double-dual": [stdspace.subspace_distance(
                stdspace.symplectic_complement(dual), h)],
        }
        for name, vals in values.items():
            worst[name] = max(worst[name], *vals)
    return worst, drawn


@pytest.mark.parametrize("dim,samples,seed,rejects", [
    (8, 50, 0, False), (8, 50, 7, True), (3, 4, 1, False), (24, 3, 2, True),
    (24, 6, 3, True), (1, 2, 5, False)])
def test_verify_stdspace_draws_as_one_sample_at_a_time(dim, samples, seed,
                                                       rejects, monkeypatch):
    # the samples run as one stack; every draw is one the per-sample loop
    # makes too, rejected ones included, and each sample gets the digits
    # it gets alone
    cfg = {"dim": dim, "samples": samples}
    ref_rng = np.random.default_rng(seed)
    built = _generators_built(monkeypatch)
    got, _ = cli._run_verify_stdspace(cfg, seed, 1.0)
    want, drawn = _verify_stdspace_one_sample_at_a_time(cfg, ref_rng)
    assert _residuals(got) == want
    (rng,) = built
    assert rng.bit_generator.state == ref_rng.bit_generator.state
    assert (drawn > samples) == rejects


def _real_form_identities(h):
    """The six verify-stdspace residuals of each member of the stack h,
    computed in the real picture on the 2n x 2n forms."""
    md = stdspace.modular_data(h)
    dual = stdspace.symplectic_complement(h)
    s_real = real_antilinear(md.tomita_matrix())
    s_dual = real_antilinear(stdspace.modular_data(dual).tomita_matrix())
    j, delta = real_antilinear(md.jc), real_linear(md.power(1.0))
    eye = np.eye(2 * h.n)

    def norm(x):
        return np.linalg.norm(x, 2, axis=(-2, -1))

    def moved(op):
        return stdspace.RealSubspace(op @ h.basis)

    distance = stdspace.subspace_distance
    return {
        "stdspace-tomita-involution": norm(s_real @ s_real - eye),
        "stdspace-modular-balance": (norm(j @ delta @ j @ delta - eye)
                                     / norm(delta)),
        "stdspace-dual-tomita": norm(s_dual - s_real.swapaxes(-1, -2)),
        "stdspace-conjugate-complement": distance(moved(j), dual),
        "stdspace-flow-invariance": np.maximum(*(
            distance(moved(real_linear(md.delta_it(t))), h)
            for t in (0.37, 1.23))),
        "stdspace-double-dual": distance(
            stdspace.symplectic_complement(dual), h),
    }


def test_verify_stdspace_identities_match_the_real_form(monkeypatch):
    # the runner takes the six identities on n x n complex matrices; on
    # every member of a stack, and on the stack, they give what the real
    # 2n x 2n forms give
    stack = cli._random_standard(np.random.default_rng(3), 5, 6)
    want = _real_form_identities(stack)

    def runner_on(h):
        monkeypatch.setattr(cli, "_random_standard", lambda *args: h)
        return _residuals(cli._run_verify_stdspace(
            {"dim": 5, "samples": 1}, 0, 1.0)[0])

    for i in range(6):
        got = runner_on(stdspace.RealSubspace(stack.basis[i]))
        for name, values in want.items():
            assert abs(got[name] - values[i]) <= 1e-12, (name, i)
    got = runner_on(stack)
    assert got.keys() == want.keys()
    for name, values in want.items():
        assert abs(got[name] - np.max(values)) <= 1e-12, name


def test_verify_stdspace_caps_its_draws(tmp_path, capsys):
    # at dim 128 random spans meet iH below the 0.05 rad floor almost
    # always; the command stops after its draw cap instead of looping on
    code, report = _run(tmp_path, "verify-stdspace",
                        {"dim": 128, "samples": 1})
    assert code == cli.EXIT_CONFIG_ERROR
    assert report is None
    err = capsys.readouterr().err
    assert "dim 128" in err
    assert (f"accepted 0 of 1 samples in {cli.STDSPACE_DRAWS_PER_SAMPLE} "
            "draws") in err


def test_bgl_axioms_chiral_passes(tmp_path):
    code, report = _run(tmp_path, "bgl-axioms", {"n": 9})
    assert code == cli.EXIT_OK
    names = {e["name"] for e in report["checks"]}
    assert "dilation-bisognano-wichmann" in names


def test_bgl_axioms_twisted_fails_expected_entry(tmp_path):
    code, report = _run(tmp_path, "bgl-axioms",
                        {"model": "twisted", "n": 17})
    assert code == cli.EXIT_CHECK_FAILURE
    failed = {e["name"] for e in report["checks"] if not e["passed"]}
    assert failed == {"dilation-bisognano-wichmann"}


def test_bgl_axioms_chiral_sum_runs_at_n_129(tmp_path):
    # at h = pi the momenta span e^{+-201}; the implemented dilation is a
    # slot permutation times a phase, so no factor of the grid overflows
    code, report = _run(tmp_path, "bgl-axioms",
                        {"model": "chiralSum", "n": 129})
    assert code == cli.EXIT_OK
    assert len(report["checks"]) == 11
    assert all(e["passed"] for e in report["checks"])


def test_coarse_spacings_run_to_a_report_with_the_default_verdicts():
    # the cells where a dense modular operator failed validation: each
    # now gives the verdicts of its kind at the default spacing
    cells = (({"model": "chiralSum", "n": 65, "h": 2.0}, set()),
             ({"model": "twisted", "n": 33, "h": 2.0},
              {"dilation-bisognano-wichmann"}),
             ({"model": "massive", "h": 1.5}, set()),
             ({"model": "directIntegral", "h": 1.5}, set()))
    for overrides, failing in cells:
        cfg = dict(cli.DEFAULT_CONFIGS["bgl-axioms"], **overrides)
        report, _ = cli.run_command("bgl-axioms", cfg, 0, 1.0)
        assert {c["name"] for c in report["checks"]
                if not c["passed"]} == failing, overrides
        assert all(math.isfinite(c["residual"]) for c in report["checks"])
    # an off-grid reconstruction time is refused by its own rule
    cfg = dict(cli.DEFAULT_CONFIGS["reconstruct-mobius"], h=2 * math.pi / 3)
    with pytest.raises(cli.ConfigError, match="not an integer multiple"):
        cli.run_command("reconstruct-mobius", cfg, 0, 1.0)


def test_bgl_axioms_unknown_model_is_config_error(tmp_path):
    code, report = _run(tmp_path, "bgl-axioms", {"model": "heat-bath"})
    assert code == cli.EXIT_CONFIG_ERROR
    assert report is None


def test_bgl_axioms_bad_grid_is_config_error(tmp_path):
    code, _ = _run(tmp_path, "bgl-axioms", {"model": "massive", "n": 9})
    assert code == cli.EXIT_CONFIG_ERROR


# even chiral grids have an unpaired Nyquist mode whose odd-step dilation
# flow is wrong; every command building a chiral model rejects them
CHIRAL_GRID_COMMANDS = [
    ("bgl-axioms", {"model": "chiralSum"}, cli.EXIT_OK),
    ("bgl-axioms", {"model": "twisted"}, cli.EXIT_CHECK_FAILURE),
    ("reconstruct-mobius", {"t_values": [0.5]}, cli.EXIT_OK),
    ("break-bw", {"t_values": [0.5]}, cli.EXIT_OK),
]


@pytest.mark.parametrize("command, config, odd_code", CHIRAL_GRID_COMMANDS)
@pytest.mark.parametrize("n", [8, 9])
def test_chiral_grid_parity(tmp_path, command, config, odd_code, n):
    code, report = _run(tmp_path, command, {**config, "n": n})
    if n % 2:
        assert code == odd_code
    else:
        assert code == cli.EXIT_CONFIG_ERROR
        assert report is None


_FLOW_CELLS = ({"n": 9}, ({"t_values": [0.3]}, {"n": 8}, {"h": -1.0},
                          {"h": 0.0}))
# a running config and bad parameters of each runner
_FAILING_CELLS = {
    "reconstruct-mobius": _FLOW_CELLS,
    "break-bw": _FLOW_CELLS,
    "lightcone-defect": ({"ladder": [[9, 1]]}, (
        {"ladder": [[1, 2]]}, {"ladder": [[9, -1]]}, {"ladder": []},
        {"spacing": 0.0}, {"masses": [-1.0]}, {"masses": [1e308]})),
}


@pytest.mark.parametrize("command, kernel", [
    ("reconstruct-mobius", "reconstruct_ur"),
    ("break-bw", "counterexample_bw"),
    ("lightcone-defect", "lightcone_separating_study"),
])
def test_a_failing_computation_is_an_internal_error(tmp_path, monkeypatch,
                                                    command, kernel):
    # LinAlgError subclasses ValueError; only parsing and model
    # construction may map to exit 2, so a failure planted in the
    # computation exits 3 while bad parameters still exit 2
    def fail(*args, **kwargs):
        raise np.linalg.LinAlgError("SVD did not converge")

    good, bads = _FAILING_CELLS[command]
    monkeypatch.setattr(bgl, kernel, fail)
    code, report = _run(tmp_path, command, good)
    assert code == cli.EXIT_INTERNAL_ERROR
    assert report is None
    for bad in bads:
        code, report = _run(tmp_path, command, {**good, **bad})
        assert code == cli.EXIT_CONFIG_ERROR, bad
        assert report is None


# a grid whose momenta or weights leave the normal doubles would build a
# silently wrong model (at n = 257 and h = pi the chiral weights are inf
# at one end and 0 at the other); every command refuses it before compute
@pytest.mark.parametrize("command, config", [
    ("reconstruct-mobius", {"n": 257}),
    ("bgl-axioms", {"model": "chiralSum", "n": 257}),
    ("break-bw", {"n": 257}),
    ("bgl-axioms", {"model": "massive", "n": 600}),
    # an overflowed mass once exited 2 only because its NaN basis failed
    # a check inside the study
    ("lightcone-defect", {"masses": [1e306]}),
    ("lightcone-defect", {"masses": [1e-306]}),
])
def test_grids_outside_the_normal_doubles_are_config_errors(
        tmp_path, capsys, command, config):
    code, report = _run(tmp_path, command, config)
    assert code == cli.EXIT_CONFIG_ERROR
    assert report is None
    err = capsys.readouterr().err
    assert "Grid(n=" in err and "outside the normal doubles" in err


@pytest.mark.parametrize("command, config", [
    ("reconstruct-mobius", {"n": 2.7}),
    ("bgl-axioms", {"model": "chiralSum", "n": 9.5}),
    ("verify-mobius", {"samples": 10.5}),
    ("lightcone-defect", {"ladder": [[9, 1.5]]}),
    ("spin-statistics", {"seed": 1.5}),
])
def test_non_integral_values_of_integral_keys_rejected(tmp_path, command,
                                                       config):
    code, report = _run(tmp_path, command, config)
    assert code == cli.EXIT_CONFIG_ERROR
    assert report is None


@pytest.mark.parametrize("command,config,message", [
    ("verify-stdspace", {"samples": -5}, "'samples' must be at least 1"),
    ("verify-stdspace", {"dim": 0}, "'dim' must be at least 1"),
    ("verify-mobius", {"samples": 0}, "'samples' must be at least 1"),
    ("verify-mobius", {"seed": -1}, "'seed' must be at least 0"),
    ("fock-checks", {"samples": 0}, "'samples' must be at least 1"),
    ("fock-checks", {"modes": 0}, "'modes' must be at least 1"),
    ("halperin-bench", {"pairs": 0}, "'pairs' must be at least 1"),
    ("halperin-bench", {"dim": 4}, "'dim' must be at least 5"),
    ("halperin-bench", {"max_iter": 0}, "'max_iter' must be at least 1"),
    ("spin-statistics", {"pairs": -3}, "'pairs' must be at least 1"),
    ("trace-class", {"betas": []}, "'betas' must be a non-empty list"),
    ("trace-class", {"n_terms": 0}, "'n_terms' must be at least 1"),
    ("break-bw", {"t_values": []}, "'t_values' must be a non-empty list"),
    ("reconstruct-mobius", {"t_values": []},
     "'t_values' must be a non-empty list"),
    ("reconstruct-mobius", {"t_values": ["half"]},
     "'t_values' must hold numbers"),
    ("lightcone-defect", {"masses": []}, "'masses' must be a non-empty list"),
    ("lightcone-defect", {"masses": [-1.0]}, "mass must be positive, got -1"),
    ("lightcone-defect", {"masses": [0.0]}, "mass must be positive, got 0"),
    ("lightcone-defect", {"spacing": -0.5},
     "grid spacing must be positive, got -0.5"),
    ("lightcone-defect", {"spacing": 0.0},
     "grid spacing must be positive, got 0"),
    ("lightcone-defect", {"ladder": [[1, 2]]},
     "rapidity grid size must be at least 2, got 1"),
])
def test_bad_counts_and_empty_lists_are_config_errors(tmp_path, capsys,
                                                      command, config,
                                                      message):
    # each of these once passed vacuously over zero samples, ran to a
    # PASS on negative momenta, failed on a degenerate model or ended in
    # an internal-error traceback
    code, report = _run(tmp_path, command, config)
    assert code == cli.EXIT_CONFIG_ERROR
    assert message in capsys.readouterr().err
    assert report is None
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command, config, key", [
    ("reconstruct-mobius", {"t_values": [math.inf]}, "t_values"),
    ("break-bw", {"t_values": [math.inf]}, "t_values"),
    ("trace-class", {"betas": [math.nan]}, "betas"),
    ("trace-class", {"betas": [math.inf]}, "betas"),
    ("lightcone-defect", {"masses": [math.nan]}, "masses"),
    ("verify-mobius", {"parameter_range": 0.0}, "parameter_range"),
    ("verify-mobius", {"parameter_range": -2.0}, "parameter_range"),
    ("verify-mobius", {"parameter_range": math.nan}, "parameter_range"),
    ("verify-mobius", {"parameter_range": math.inf}, "parameter_range"),
    ("bgl-axioms", {"model": "twisted", "charge": math.nan}, "charge"),
    ("bgl-axioms", {"h": math.inf}, "h"),
    ("bgl-axioms", {"model": "massive", "mass": math.nan}, "mass"),
    ("bgl-axioms", {"model": "directIntegral", "mass_max": math.inf},
     "mass_max"),
    ("break-bw", {"charge": -math.inf}, "charge"),
    ("reconstruct-mobius", {"h": math.nan}, "h"),
    ("lightcone-defect", {"frozen": math.inf}, "frozen"),
    ("lightcone-defect", {"frozen": 0.0}, "frozen"),
    ("lightcone-defect", {"spacing": math.nan}, "spacing"),
    ("halperin-bench", {"tol": 0.0}, "tol"),
    ("halperin-bench", {"tol": -1e-9}, "tol"),
    ("halperin-bench", {"tol": math.nan}, "tol"),
    ("halperin-bench", {"tol": 10 ** 400}, "tol"),
])
def test_non_finite_and_non_positive_floats_are_config_errors(
        tmp_path, capsys, command, config, key):
    # a float key is a finite number, and a positive one where it is a
    # scale of the runner itself (parameter_range, frozen, tol); these
    # cells once ended in an internal error, a vacuous PASS (a NaN row
    # that max() skips, an infinite budget) or a check failure
    code, report = _run(tmp_path, command, config)
    assert code == cli.EXIT_CONFIG_ERROR
    assert f"config key '{key}' must" in capsys.readouterr().err
    assert report is None


@pytest.mark.parametrize("sign", [1, -1])
@pytest.mark.parametrize("command, key", [
    ("verify-mobius", "samples"),
    ("verify-stdspace", "dim"),
    ("verify-stdspace", "samples"),
    ("bgl-axioms", "n"),
    ("reconstruct-mobius", "n"),
    ("break-bw", "n"),
    ("spin-statistics", "pairs"),
    ("trace-class", "n_terms"),
    ("fock-checks", "modes"),
    ("fock-checks", "order"),
    ("fock-checks", "samples"),
    ("halperin-bench", "dim"),
    ("halperin-bench", "max_iter"),
    ("halperin-bench", "pairs"),
])
def test_integers_beyond_the_doubles_are_config_errors(tmp_path, capsys,
                                                       command, key, sign):
    # an int key of 10^400 once met float() and exited 3 with an
    # OverflowError; it is refused before any conversion, naming the key
    code, report = _run(tmp_path, command, {key: sign * 10 ** 400})
    assert code == cli.EXIT_CONFIG_ERROR
    assert f"config key '{key}' must" in capsys.readouterr().err
    assert report is None


def test_integral_floats_are_accepted(tmp_path):
    code, report = _run(tmp_path, "spin-statistics", {"pairs": 10.0})
    assert code == cli.EXIT_OK
    assert report["config"]["pairs"] == 10.0


def test_reconstruct_mobius_passes_and_writes_table(tmp_path):
    code, report = _run(tmp_path, "reconstruct-mobius",
                        {"n": 9, "t_values": [0.5, 1.0]})
    assert code == cli.EXIT_OK
    with open(tmp_path / "out" / "reconstruct-mobius-flow.csv",
              newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert [float(r["t"]) for r in rows] == [0.5, 1.0]
    assert all(float(r["identity_residual"]) < 1e-7 for r in rows)


def test_reconstruct_mobius_off_grid_time_is_config_error(tmp_path):
    code, _ = _run(tmp_path, "reconstruct-mobius",
                   {"n": 9, "t_values": [0.3]})
    assert code == cli.EXIT_CONFIG_ERROR


def test_grid_time_precheck_agrees_with_the_dilation():
    # the pre-check refuses exactly the 2 pi t = k h + delta that the
    # representation refuses to dilate by, on both sides of the tolerance
    outcomes = set()
    for h in (math.pi, 0.5, 2 * math.pi / 3, 1.0):
        net = bgl.NetModel.chiral_sum(n=9, h=h)
        xi = np.ones(net.tiles.size, dtype=complex)
        for k in (1, 2, 3):
            for delta in (0.0, 2e-10, -8e-10, 8e-10, 2e-9, -2e-9, 5e-9,
                          1e-3):
                t = (k * h + delta) / (2.0 * math.pi)
                try:
                    cli._grid_times(net, [t])
                    precheck = True
                except ValueError:
                    precheck = False
                try:
                    reps.apply(net.factors, xi,
                               dilation=(2.0 * math.pi * t,) * 2)
                    dilates = True
                except ValueError:
                    dilates = False
                assert precheck == dilates, (h, k, delta)
                outcomes.add(precheck)
    assert outcomes == {True, False}


def test_break_bw_charged_passes_with_expected_failure_shape(tmp_path):
    code, report = _run(tmp_path, "break-bw", {"n": 17, "charge": 1.0})
    assert code == cli.EXIT_OK
    with open(tmp_path / "out" / "break-bw-deviation.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    for row in rows:
        predicted = abs(2 * math.sin(math.pi * float(row["t"])) * 1.0)
        assert float(row["deviation"]) == pytest.approx(
            predicted, abs=1e-8)
        assert float(row["deviation"]) == pytest.approx(
            float(row["predicted"]), abs=1e-8)


def test_break_bw_uncharged_passes(tmp_path):
    code, report = _run(tmp_path, "break-bw", {"n": 17, "charge": 0.0})
    assert code == cli.EXIT_OK
    with open(tmp_path / "out" / "break-bw-deviation.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert all(float(r["deviation"]) < 1e-8 for r in rows)


def test_lightcone_defect_small_ladder(tmp_path):
    code, report = _run(tmp_path, "lightcone-defect",
                        {"ladder": [[9, 1], [17, 2]], "frozen": 0.96})
    assert code == cli.EXIT_OK
    with open(tmp_path / "out" / "lightcone-defect-ladder.csv",
              newline="") as fh:
        rows = list(csv.DictReader(fh))
    defects = [float(r["defect"]) for r in rows]
    assert defects == sorted(defects, reverse=True)
    assert defects[-1] < 0.96


def test_spin_statistics_passes(tmp_path):
    code, report = _run(tmp_path, "spin-statistics", {"pairs": 25})
    assert code == cli.EXIT_OK
    assert all(e["passed"] for e in report["checks"])


def test_trace_class_table_contents(tmp_path):
    code, _ = _run(tmp_path, "trace-class")
    assert code == cli.EXIT_OK
    with open(tmp_path / "out" / "trace-class-partition.csv",
              newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 3
    for row in rows:
        assert float(row["relative_error"]) < 1e-20
        assert float(row["abs_diff"]) <= float(row["tail_bound"]) + 1e-30


def test_fock_checks_pass(tmp_path):
    code, report = _run(tmp_path, "fock-checks",
                        {"modes": 2, "order": 8, "samples": 2})
    assert code == cli.EXIT_OK
    assert len(report["checks"]) == len(cli.CHECKS["fock-checks"])


@pytest.mark.parametrize("order", range(10))
def test_fock_checks_pass_at_every_truncation_order(tmp_path, order):
    # the overlap budget is the full Lagrange remainder of the exponential
    # series, so a low truncation order is no failure of working code
    code, report = _run(tmp_path, "fock-checks", {"order": order})
    assert code == cli.EXIT_OK, [c for c in report["checks"]
                                 if not c["passed"]]


def test_halperin_bench_passes_and_reports_iterations(tmp_path):
    code, report = _run(tmp_path, "halperin-bench",
                        {"dim": 6, "pairs": 6})
    assert code == cli.EXIT_OK
    with open(tmp_path / "out" / "halperin-bench-pairs.csv",
              newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 6
    assert all(int(r["iteration_cap"]) > 0 for r in rows)
    assert all(float(r["distance"]) < 1e-7 for r in rows)


# ---------------------------------------------------------------------------
# manifest coverage
# ---------------------------------------------------------------------------


def test_every_check_name_is_documented():
    with open(os.path.join(ROOT, "docs", "checks.md"), encoding="utf-8") as fh:
        manifest = fh.read()
    documented = {line[4:].strip() for line in manifest.splitlines()
                  if line.startswith("### ")}
    declared = {name for names in cli.CHECKS.values() for name in names}
    assert declared <= documented, declared - documented
    assert documented <= declared, documented - declared
    # a numeric base budget is quoted in its command's section
    sections = {}
    for part in manifest.split("\n## ")[1:]:
        title, _, body = part.partition("\n")
        sections[title.strip()] = " ".join(body.split())
    for command, rows in cli.CHECKS.items():
        for name, (base, _) in rows.items():
            if base is not None:
                quoted = f"`{cli._sci(base)} * budget_scale`"
                assert quoted in sections[command], (name, quoted)


def test_commands_and_defaults_are_aligned():
    assert set(cli.RUNNERS) == set(cli.CHECKS)
    assert set(cli.RUNNERS) == set(cli.DEFAULT_CONFIGS)
    for command, cfg in cli.DEFAULT_CONFIGS.items():
        assert "seed" in cfg, command


# ---------------------------------------------------------------------------
# runtime dependencies
# ---------------------------------------------------------------------------


def test_every_command_runs_without_scipy():
    # scipy is a test-only dependency; blocking it must leave every
    # command runnable at its defaults
    script = textwrap.dedent("""
        import json, sys
        sys.modules["scipy"] = None
        from modnet import cli
        passed = {}
        for command, config in cli.DEFAULT_CONFIGS.items():
            report, _ = cli.run_command(command, dict(config), 0, 1.0)
            passed[command] = report["passed"]
        print(json.dumps(passed))
    """)
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    passed = json.loads(proc.stdout.splitlines()[-1])
    assert passed == {command: True for command in cli.DEFAULT_CONFIGS}


def test_commands_that_draw_nothing_never_load_numpy_random():
    # the runners that draw build their generator from the seed; the
    # others must not pay for importing numpy.random
    script = textwrap.dedent("""
        import json, sys
        from modnet import cli
        loaded = {}
        for command in ("bgl-axioms", "reconstruct-mobius", "break-bw",
                        "lightcone-defect", "trace-class", "verify-mobius"):
            config = dict(cli.DEFAULT_CONFIGS[command])
            cli.run_command(command, config, 0, 1.0)
            loaded[command] = "numpy.random" in sys.modules
        print(json.dumps(loaded))
    """)
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    loaded = json.loads(proc.stdout.splitlines()[-1])
    assert loaded.pop("verify-mobius") is True
    assert not any(loaded.values()), loaded


def test_the_net_layer_imports_no_mobius_code():
    # the lattice models take the translation-dilation group in lightray
    # coordinates; only the runner and verify-mobius need the Mobius layer
    script = textwrap.dedent("""
        import json, sys
        import modnet.bgl, modnet.fock
        print(json.dumps(sorted(m for m in sys.modules
                                if m.startswith("modnet."))))
    """)
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    loaded = json.loads(proc.stdout.splitlines()[-1])
    assert "modnet.bgl" in loaded
    assert "modnet.mobius" not in loaded, loaded


def _traced_owner(module, name):
    """The owner and attribute the benchmark's tracer replaces, through
    ``owner.__dict__[attr]``, with the module checked to come from src/."""
    owner = importlib.import_module(f"modnet.{module}")
    assert os.path.abspath(owner.__file__).startswith(
        os.path.join(ROOT, "src", "modnet") + os.sep), owner.__file__
    *parents, attr = name.split(".")
    for part in parents:
        owner = getattr(owner, part)
    return owner, attr


def test_every_traced_layer_function_resolves():
    # the benchmark's traced worker replaces these names in place, so a
    # name that no longer resolves breaks `perfbench/run.py --trace 1`;
    # only the table is read: install() is not called
    path = os.path.join(ROOT, "perfbench", "tracing.py")
    spec = importlib.util.spec_from_file_location("_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    for _, module, name in tracing.LAYER_FUNCTIONS:
        owner, attr = _traced_owner(module, name)
        assert callable(owner.__dict__.get(attr)), f"modnet.{module}.{name}"


def test_tracer_side_hooks_resolve():
    # install() also wraps Region.__init__ and catches or counts these
    # two stdspace classes by name
    owner, attr = _traced_owner("spacetime", "Region.__init__")
    assert callable(owner.__dict__.get(attr))
    for name, base in (("HalperinNonConvergence", Exception),
                       ("ConditioningWarning", Warning)):
        owner, attr = _traced_owner("stdspace", name)
        assert issubclass(owner.__dict__[attr], base), name
