"""Config-driven command-line runner for the verification suites.

Each subcommand samples or constructs the relevant models, evaluates a
fixed battery of named checks against explicit numerical budgets, and
writes a JSON report (plus CSV tables for the studies) to the output
directory.  Exit status: 0 all checks passed, 1 check failures, 2
configuration errors, 3 internal errors.

Reports are deterministic on the same machine, BLAS build and BLAS
thread count: two runs with the same config and seed there produce
byte-identical JSON apart from the ``timestamp`` field, which carries
the completion time and wall-clock duration.  A different BLAS build or
thread count may move the last digits of a residual.
"""

import argparse
import csv
import dataclasses
import functools
import json
import math
import os
import platform
import sys
import time
import traceback

import mpmath
import numpy as np

from . import bgl
from . import fock
from . import mobius
from . import reps
from . import spacetime
from . import stdspace
from .bgl import Measurement

EXIT_OK = 0
EXIT_CHECK_FAILURE = 1
EXIT_CONFIG_ERROR = 2
EXIT_INTERNAL_ERROR = 3

REPORT_SCHEMA = "modnet-report/1"
OUT_ENV_VAR = "MODNET_OUT"
DEFAULT_OUT_DIR = "modnet-out"

class ConfigError(ValueError):
    """Raised when a run configuration cannot be parsed or validated."""


def _sci(x):
    """A one-digit budget base as the docs write it: 1e-8, not 1e-08."""
    mantissa, exponent = f"{x:.0e}".split("e")
    return f"{mantissa}e{int(exponent)}"


_AXIOM_FORMULA = (
    "residual <= {budget:.3e} (base tolerance "
    f"{_sci(bgl.BLOCK_TOL)} * budget_scale; the modular-consistency "
    "entries use max(tolerance, model epsilon))")

# the bgl-axioms rows that the models without dilations leave out
_DILATION_ROWS = ("dilation-covariance", "cone-standardness",
                  "dilation-bisognano-wichmann", "modular-covariance",
                  "strong-additivity")

# every check a command emits, in report order, as name -> (base
# budget, formula text); docs/checks.md documents each one.  A numeric
# base gives the budget base * budget_scale and the formula
# "<text> <= <base> * budget_scale", and the runner's Measurement then
# carries no budget.  With None the runner computes the budget and puts
# it in the Measurement; the text is then the whole formula, filled in
# with that {budget}.
CHECKS = {
    "verify-mobius": {
        "mobius-commutation": (
            1e-11, "max flow-commutation residual over sampled (t, s) pairs"),
        "mobius-group-law": (
            1e-10, "max boundary-action defect of composed words"),
        "mobius-cover-consistency": (
            1e-12, "max over lifted words g1 g2 g3 of |phi((g1 g2) g3) - "
                   "phi(g1 (g2 g3))| and of the sign-invariant defect of "
                   "K(phi) A(a) N(n) against the base product"),
    },
    "verify-stdspace": {
        "stdspace-tomita-involution": (1e-8, "||S^2 - 1||"),
        "stdspace-modular-balance": (
            1e-8, "||J Delta J Delta - 1|| / ||Delta||"),
        "stdspace-dual-tomita": (1e-8, "||S_dual - S*||"),
        "stdspace-conjugate-complement": (1e-8, "distance(J H, H')"),
        "stdspace-flow-invariance": (
            1e-8, "distance(Delta^{it} H, H)"),
        "stdspace-double-dual": (1e-8, "distance(H'', H)"),
    },
    "bgl-axioms": dict.fromkeys((
        "isotony",
        "poincare-covariance",
        "positivity-of-energy",
        "reeh-schlieder",
        "locality",
        "bisognano-wichmann",
        *_DILATION_ROWS,
    ), (None, _AXIOM_FORMULA)),
    "reconstruct-mobius": {
        "reconstruction-identity": (
            1e-7,
            "max ||Delta_D^{it} - U_R(t) U_L(t)|| over the t ladder"),
        "reconstruction-commutator": (
            1e-7, "max ||[U_R(t), U_L(t)]|| over the t ladder"),
        "reconstruction-left-cancellation": (
            1e-7, "max left-mover cancellation defect in U_R"),
        "reconstruction-at-zero": (1e-10, "||U_R(0) U_L(0) - 1||"),
    },
    "break-bw": {
        "counterexample-formula": (
            1e-8, "max | deviation(t) - |e^{2 pi i q t} - 1| |"),
        "counterexample-wedge-roundtrip": (
            None, "wedge modular roundtrip <= model epsilon * budget_scale; "
                  "epsilon = 10 * (flow residual + 1e-10)"),
        "counterexample-gauge-invariance": (
            1e-10, "inner-symmetry invariance of the wedge subspace"),
    },
    "lightcone-defect": {
        "cone-defect-monotone": (
            1e-12, "max defect increase along the refinement ladder"),
        "cone-defect-below-frozen": (
            None, "finest-level defect <= frozen comparison value "
                  "({budget})"),
    },
    "spin-statistics": {
        "spin-statistics-integer": (
            1e-9, "max distance of spectrum differences from the integers"),
        "spin-statistics-violation-detected": (
            1e-9, "half-integer-shifted battery must fail with worst "
                  "defect 1/2: |worst - 0.5|"),
    },
    "trace-class": {
        "trace-class-truncation": (
            1e-20, "max relative truncation error over the sampled inverse "
                   "temperatures"),
        "trace-class-selfdual-value": (
            None, "closed form equals 1 exactly at inverse temperature ln 2"),
    },
    "fock-checks": {
        "weyl-reduction-consistency": (
            1e-11, "bracketing-independence of reduced Weyl words"),
        "weyl-gram-positivity": (
            None, "Gram matrix of Weyl states has min eigenvalue >= "
                  "-truncation tail(0.7, order) * budget_scale"),
        "exponential-overlap": (
            None, "|<e(f), e(g)> - exp <f, g>| <= |<f, g>|^(order+1) / "
                  "(order+1)! * exp |<f, g>| * budget_scale + 1e-10"),
        "second-quantization-exponential": (
            1e-10, "||Gamma(A) e(g) - e(A g)||"),
        "second-quantization-functorial": (
            1e-10, "||Gamma(A B) - Gamma(A) Gamma(B)|| on sampled vectors"),
        "tomita-lift-consistency": (
            None, "||Gamma(S) W(f) vac - W(-f) vac|| <= model epsilon "
                  "+ truncation tail + 1e-8"),
        "weyl-locality": (
            1e-9, "max |Im <f, g>| over spacelike one-particle pairs"),
    },
    "halperin-bench": {
        "halperin-agreement": (
            1e-7, "max distance between iterative and exact intersections"),
        "halperin-convergence": (
            None, "every pair converges within the iteration cap "
                  "(failure count = 0)"),
    },
}

# every config key of every command, declared once as key -> (default,
# type, bound[, model kinds]) and tabulated in docs/checks.md.  Types:
# int, float, floats (a non-empty list), ladder (a non-empty list of
# [grid, count] int pairs) and model (a bgl.MODEL_KINDS name).  Numbers
# are finite; an int (a ladder's count) is at least its bound, a float
# exceeds it.  A key whose default is null takes null, which keeps the
# constructor's default.  A bgl-axioms key names the model kinds whose
# constructor takes it
_ALL = bgl.MODEL_KINDS
_SEED = (0, "int", 0)
KEYS = {
    "verify-mobius": {"samples": (1000, "int", 1),
                      "parameter_range": (2.0, "float", 0), "seed": _SEED},
    "verify-stdspace": {"dim": (8, "int", 1), "samples": (50, "int", 1),
                        "seed": _SEED},
    "bgl-axioms": {
        "model": ("chiralSum", "model", None, _ALL),
        "n": (None, "int", 2, _ALL), "h": (None, "float", None, _ALL),
        "mass": (1.0, "float", None, ("massive",)),
        "charge": (1.0, "float", None, ("twisted",)),
        "masses": (4, "int", 1, ("directIntegral",)),
        "mass_min": (0.5, "float", None, ("directIntegral",)),
        "mass_max": (4.0, "float", None, ("directIntegral",)),
        "seed": _SEED + (_ALL,),
    },
    "reconstruct-mobius": {
        "n": (33, "int", 2), "h": (bgl.SOLVABLE_SPACING, "float", None),
        "t_values": ([0.5, 1.0, 1.5, 2.0], "floats", None), "seed": _SEED},
    "break-bw": {
        "charge": (1.0, "float", None), "n": (33, "int", 2),
        "h": (bgl.SOLVABLE_SPACING, "float", None),
        "t_values": ([0.5, 1.0, 1.5], "floats", None), "seed": _SEED},
    "lightcone-defect": {
        "masses": ([1.0], "floats", None),
        "ladder": ([list(level) for level in bgl.CONE_LADDER], "ladder", 0),
        "spacing": (bgl.STUDY_SPACING, "float", None),
        "frozen": (bgl.FROZEN_CONE_DEFECT, "float", 0), "seed": _SEED},
    "spin-statistics": {"pairs": (50, "int", 1), "seed": _SEED},
    "trace-class": {"betas": ([0.5, math.log(2.0), 2.0], "floats", 0),
                    "n_terms": (200, "int", 1), "seed": _SEED},
    "fock-checks": {"modes": (3, "int", 1), "order": (10, "int", 0),
                    "samples": (4, "int", 1), "seed": _SEED},
    "halperin-bench": {"dim": (8, "int", 5), "pairs": (20, "int", 1),
                       "tol": (1e-9, "float", 0),
                       "max_iter": (5000, "int", 1), "seed": _SEED},
}
DEFAULT_CONFIGS = {command: {key: spec[0] for key, spec in keys.items()}
                   for command, keys in KEYS.items()}


# ---------------------------------------------------------------------------
# configuration
# ---------------------------------------------------------------------------


def load_config(command, path):
    """Merge a JSON config file over the command defaults.

    ``path`` may be None (pure defaults).  Empty files, non-object
    payloads, unknown keys, values outside their KEYS entry and a key
    set for a model kind it does not apply to are rejected; the last
    rule is here because only the file tells which keys were set.
    """
    config = dict(DEFAULT_CONFIGS[command])
    if path is None:
        return config
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    if not text.strip():
        raise ConfigError(f"config file {path} is empty")
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config file {path} is not valid JSON: {exc}")
    if not isinstance(data, dict):
        raise ConfigError(f"config file {path} must hold a key-value object")
    if not data:
        raise ConfigError(
            f"config file {path} is empty; omit --config to use defaults")
    config.update(data)
    # the model first, so that every key meets a known kind
    for key in sorted(data, key=lambda k: k != "model"):
        if key not in DEFAULT_CONFIGS[command]:
            raise ConfigError(
                f"unknown config key {key!r} for command {command!r} "
                f"(known: {', '.join(sorted(DEFAULT_CONFIGS[command]))})")
        _parse(command, key, data[key])
        kinds = KEYS[command][key][3:]
        if kinds and config["model"] not in kinds[0]:
            raise ConfigError(
                f"config key {key!r} does not apply to model "
                f"{config['model']!r} (only to {', '.join(kinds[0])})")
    return config


def _parse(command, key, value):
    """One config value through its KEYS entry: an int, a float, a tuple
    of floats, a tuple of (grid, count) pairs, a model name or None."""
    default, kind, bound = KEYS[command][key][:3]
    if kind == "model" and value not in bgl.MODEL_KINDS:
        raise ConfigError(f"config key {key!r} must be one of "
                          f"{', '.join(bgl.MODEL_KINDS)}, got {value!r}")
    if kind == "model" or (value is None and default is None):
        return value
    if kind == "int" or kind == "float":
        return _number(value, key, kind == "int", bound)
    if not isinstance(value, list):
        raise ConfigError(f"config key {key!r} must be a list, got {value!r}")
    if not value:
        raise ConfigError(f"config key {key!r} must be a non-empty list")
    if kind == "ladder":
        if not all(isinstance(p, list) and len(p) == 2 for p in value):
            raise ConfigError(f"config key {key!r} must hold [grid, count] "
                              f"pairs, got {value!r}")
        # a grid size keeps its domain rule in reps.rapidity_factor
        return tuple((_number(grid, key, True, None),
                      _number(count, key, True, bound))
                     for grid, count in value)
    if any(isinstance(v, bool) or not isinstance(v, (int, float))
           for v in value):
        raise ConfigError(f"config key {key!r} must hold numbers, "
                          f"got {value!r}")
    return tuple(_number(v, key, False, bound) for v in value)


def _number(value, key, integral, bound):
    """A finite config number within its ``bound``, an int when
    ``integral``: a count below its bound would pass vacuously over no
    samples, a non-finite scale over a NaN range or infinite budget."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"config key {key!r} must be a number, "
                          f"got {value!r}")
    # the comparison is exact for an int, which may exceed the doubles
    if not abs(value) <= sys.float_info.max:
        raise ConfigError(f"config key {key!r} must be finite, "
                          f"got {value!r}")
    if integral and not float(value).is_integer():
        raise ConfigError(f"config key {key!r} must be an integer, "
                          f"got {value!r}")
    if bound is not None and (value < bound if integral
                              else not value > bound):
        raise ConfigError(f"config key {key!r} must be "
                          f"{'at least' if integral else 'above'} {bound}, "
                          f"got {value!r}")
    return int(value) if integral else float(value)


_MODELS = {"chiralSum": bgl.NetModel.chiral_sum,
           "massive": bgl.NetModel.massive, "twisted": bgl.NetModel.twisted,
           "directIntegral": bgl.NetModel.direct_integral}


def _model_rule(v):
    """bgl-axioms: the model, built from the keys that apply to its kind;
    an unset ``n`` or ``h`` keeps the default of the kind's constructor."""
    kind = v["model"]
    v["net"] = _MODELS[kind](**{
        key: v[key] for key, spec in KEYS["bgl-axioms"].items()
        if kind in spec[3] and key not in ("model", "seed")
        and v[key] is not None})


def _grid_times(net, t_values):
    """Refuse a flow time 2 pi t off the model's dilation grid."""
    for t in t_values:
        bgl.grid_steps(t, net.factors[0].h)


def _flow_rule(v):
    """reconstruct-mobius (chiralSum) and break-bw (twisted, with its
    charge): the model, and every flow time on its dilation grid."""
    v["net"] = _MODELS["twisted" if "charge" in v else "chiralSum"](
        **{k: v[k] for k in ("n", "h", "charge") if k in v})
    _grid_times(v["net"], v["t_values"])


def _study_rule(v):
    """lightcone-defect: each ladder level's rapidity factor, per mass."""
    for mass in v["masses"]:
        for grid, _ in v["ladder"]:
            reps.rapidity_factor(grid, v["spacing"], mass)


# the rules over several keys at once, with the noun of their message
_GRID_RULES = {"bgl-axioms": ("model", _model_rule),
               "reconstruct-mobius": ("reconstruction", _flow_rule),
               "break-bw": ("counterexample", _flow_rule),
               "lightcone-defect": ("study", _study_rule)}


def _parse_config(command, config):
    """A merged config parsed key by key through KEYS, then through the
    command's grid rule, which may add the built model as ``net``; a
    ValueError of a computation after it is an internal error."""
    values = {key: _parse(command, key, config[key])
              for key in KEYS[command]}
    if command in _GRID_RULES:
        noun, rule = _GRID_RULES[command]
        try:
            rule(values)
        except ValueError as exc:
            raise ConfigError(f"invalid {noun} parameters: {exc}") from exc
    return values


def _resolve_out_dir(arg):
    return arg or os.environ.get(OUT_ENV_VAR) or DEFAULT_OUT_DIR


# ---------------------------------------------------------------------------
# command runners: each takes (parsed values, seed, budget scale) and returns
# (results, tables).  results maps a check name of the command's CHECKS
# rows to its Measurement, which carries a budget exactly when the row
# has no base budget; tables maps a table name to (fieldnames, rows).
# A runner that draws builds its generator from the seed, so a command
# that draws nothing never loads numpy.random
# ---------------------------------------------------------------------------


def _run_verify_mobius(cfg, seed, scale):
    rng = np.random.default_rng(seed)
    samples, span = cfg["samples"], cfg["parameter_range"]
    worst_comm = 0.0
    for pair in mobius.COMMUTATION_PAIRS:
        count = 0
        while count < samples:
            # a round draws only what is still missing, so the generator
            # ends where one draw at a time, skipping inadmissible ones, would
            draws = rng.uniform(-span, span, size=(samples - count, 2))
            _, residuals = mobius.commutation_residuals(
                draws[:, 0], draws[:, 1], pair)
            count += len(residuals)
            worst_comm = float(np.max(residuals, initial=worst_comm))

    # the draws of a word interleave integers and uniforms, so they are
    # made word by word; the words are then formed and checked as stacks
    words = max(1, samples // 10)
    kinds, params = np.empty((words, 4), dtype=int), np.empty((words, 4))
    angles = np.empty((words, 8))
    for w in range(words):
        for k in range(4):
            kinds[w, k] = rng.integers(3)
            params[w, k] = rng.uniform(-1.5, 1.5)
        angles[w] = rng.uniform(-math.pi, math.pi, size=8)
    # letters of shape (words, 1) act on the (words, 8) angles
    word = [mobius.MobiusElement.generators(kinds[:, k, None],
                                            params[:, k, None])
            for k in range(4)]
    stepped = angles
    for g in reversed(word):
        stepped = g.act_angle(stepped)
    combined = functools.reduce(mobius.MobiusElement.compose, word)
    worst_law = np.max(np.abs(mobius.wrap_angle(
        combined.act_angle(angles) - stepped)))

    kinds, params = np.empty((words, 3), dtype=int), np.empty((words, 3))
    for w in range(words):
        params[w] = rng.uniform(-1.5, 1.5, size=3)
        kinds[w] = rng.integers(3, size=3)
    g1, g2, g3 = (mobius.CoverElement.generators(kinds[:, k], params[:, k])
                  for k in range(3))
    lifted = g1.compose(g2).compose(g3)
    # the lift is associative, and K(phi) A(a) N(n) with the Iwasawa
    # (a, n) of the base is the base product up to sign
    _, a, n = lifted.base.iwasawa()
    kan, base = mobius.kan_matrix(lifted.phi, a, n), lifted.base.mat
    worst_cover = np.maximum(
        np.max(np.abs(lifted.phi - g1.compose(g2.compose(g3)).phi)),
        np.max(np.minimum(np.max(np.abs(kan - base), axis=(-2, -1)),
                          np.max(np.abs(kan + base), axis=(-2, -1)))))

    return {"mobius-commutation": Measurement(worst_comm),
            "mobius-group-law": Measurement(worst_law),
            "mobius-cover-consistency": Measurement(worst_cover)}, {}


#: smallest angle between H and iH of a verify-stdspace sample; the
#: modular operator norm grows like 4 / angle^2 below it and the
#: identity budgets cannot be met in double precision
STDSPACE_MIN_ANGLE = 0.05
#: verify-stdspace draws at most this many spans per requested sample:
#: the share of random spans above the angle floor falls with dim, to
#: about 1 % at dim 96
STDSPACE_DRAWS_PER_SAMPLE = 20


def _random_real_span(rng, n, k, size=()):
    """Real span of k random vectors of C^n, real then imaginary parts;
    ``size`` draws a stack of spans from the stream that as many single
    draws would take."""
    real, imag = np.moveaxis(rng.normal(size=size + (2, k, n)), -3, 0)
    return stdspace.make_subspace(real + 1j * imag)


def _random_standard(rng, n, samples):
    """A stack of ``samples`` random spans of n vectors of C^n whose H
    meets iH above ``STDSPACE_MIN_ANGLE``.

    A round draws only the spans still missing, so every draw is one a
    loop drawing one span at a time makes too and the generator ends
    where that loop would.
    """
    cap = STDSPACE_DRAWS_PER_SAMPLE * samples
    kept, count, drawn = [], 0, 0
    while count < samples:
        m = min(samples - count, cap - drawn)
        if m == 0:
            raise ConfigError(
                f"verify-stdspace at dim {n} accepted {count} of {samples} "
                f"samples in {cap} draws: random spans at this dim meet "
                f"iH below the {STDSPACE_MIN_ANGLE} rad floor too often")
        h = _random_real_span(rng, n, n, (m,))
        drawn += m
        rep = stdspace.standardness(h)
        ok = rep.standard & (rep.minimal_angle > STDSPACE_MIN_ANGLE)
        kept.append(h.basis[ok])
        count += int(np.sum(ok))
    return stdspace.RealSubspace(np.concatenate(kept))


def _run_verify_stdspace(cfg, seed, scale):
    rng = np.random.default_rng(seed)
    n, samples = cfg["dim"], cfg["samples"]
    # every step runs once over the stack of all samples
    h = _random_standard(rng, n, samples)
    md = stdspace.modular_data(h)
    dual = stdspace.symplectic_complement(h)
    # S = a conj, J = jc conj and S_dual = a_dual conj as n x n matrices:
    # S^2 = a conj(a), J Delta J = jc conj(Delta) conj(jc), and the
    # transpose of an antilinear S is a^T conj
    a, jc, delta = md.tomita_matrix(), md.jc, md.power(1.0)
    a_dual = stdspace.modular_data(dual).tomita_matrix()
    eye = np.eye(n)

    def norm(x):
        return np.linalg.norm(x, 2, axis=(-2, -1))

    distance = stdspace.subspace_distance
    values = {
        "stdspace-tomita-involution": norm(a @ a.conj() - eye),
        "stdspace-modular-balance": (
            norm(jc @ delta.conj() @ jc.conj() @ delta - eye)
            / md.delta_norm),
        "stdspace-dual-tomita": norm(a_dual - a.swapaxes(-1, -2)),
        "stdspace-conjugate-complement": distance(
            stdspace.RealSubspace.from_complex(
                jc @ h.complex_basis().conj()), dual),
        "stdspace-flow-invariance": [
            distance(h.transform(md.delta_it(t)), h) for t in (0.37, 1.23)],
        "stdspace-double-dual": distance(
            stdspace.symplectic_complement(dual), h),
    }
    return {name: Measurement(np.max(v)) for name, v in values.items()}, {}


def _run_bgl_axioms(cfg, seed, scale):
    return bgl.axioms_report(cfg["net"], tol=bgl.BLOCK_TOL * scale), {}


def _run_reconstruct_mobius(cfg, seed, scale):
    report = bgl.reconstruct_ur(cfg["net"], t_values=cfg["t_values"])
    results = {
        "reconstruction-identity": Measurement(report.max_identity),
        "reconstruction-commutator": Measurement(report.max_commutator),
        "reconstruction-left-cancellation": Measurement(
            max(report.left_cancellation)),
        "reconstruction-at-zero": Measurement(report.identity_at_zero),
    }
    rows = [{"t": t, "identity_residual": a, "commutator_residual": b,
             "left_cancellation": c}
            for t, a, b, c in zip(report.t_values, report.identity_residuals,
                                  report.commutator_residuals,
                                  report.left_cancellation)]
    fields = ("t", "identity_residual", "commutator_residual",
              "left_cancellation")
    return results, {"flow": (fields, rows)}


def _run_break_bw(cfg, seed, scale):
    net = cfg["net"]
    report = bgl.counterexample_bw(net, t_values=cfg["t_values"])
    results = {
        "counterexample-formula": Measurement(report.max_formula_residual),
        "counterexample-wedge-roundtrip": Measurement(report.wedge_roundtrip,
                                                      net.epsilon * scale),
        "counterexample-gauge-invariance": Measurement(report.gauge_residual),
    }
    rows = [{"t": t, "deviation": d, "predicted": p}
            for t, d, p in zip(report.t_values, report.deviations,
                               report.predicted)]
    return results, {"deviation": (("t", "deviation", "predicted"), rows)}


def _run_lightcone_defect(cfg, seed, scale):
    study = bgl.lightcone_separating_study(
        masses=cfg["masses"], ladder=cfg["ladder"], spacing=cfg["spacing"],
        frozen=cfg["frozen"])
    results = {
        "cone-defect-monotone": Measurement(study.max_rise),
        "cone-defect-below-frozen": Measurement(study.finest_defect,
                                                study.frozen_value),
    }
    rows = [dataclasses.asdict(row) for row in study.rows]
    fields = ("mass", "grid", "cones", "sum_dim", "defect")
    return results, {"ladder": (fields, rows)}


def _run_spin_statistics(cfg, seed, scale):
    count = cfg["pairs"]
    rng = np.random.default_rng(seed)
    base = rng.uniform(0.0, 3.0, size=count)
    steps = rng.integers(-3, 4, size=count)
    good = [(mu, mu + k) for mu, k in zip(base, steps)]
    bad = [(mu, mu + k + 0.5) for mu, k in zip(base, steps)]
    worst_good = bgl.spin_statistics_spectrum_check(good)
    worst_bad = bgl.spin_statistics_spectrum_check(bad)
    # the shifted battery must also fail the integer check's own budget
    budget = CHECKS["spin-statistics"]["spin-statistics-integer"][0]
    violation = abs(worst_bad - 0.5) + (1.0 if worst_bad <= budget else 0.0)
    return {"spin-statistics-integer": Measurement(worst_good),
            "spin-statistics-violation-detected": Measurement(violation)}, {}


def _run_trace_class(cfg, seed, scale):
    n_terms = cfg["n_terms"]
    rows = []
    worst_rel = 0.0
    for beta in cfg["betas"]:
        value, closed, diff, tail = bgl.trace_class_partition(
            beta, n_terms=n_terms)
        rel = diff / closed
        worst_rel = max(worst_rel, rel)
        rows.append({"beta": beta, "value": value,
                     "closed_form": closed, "abs_diff": diff,
                     "tail_bound": tail, "relative_error": rel})
    _, closed_ln2, _, _ = bgl.trace_class_partition(
        math.log(2.0), n_terms=n_terms)
    results = {
        "trace-class-truncation": Measurement(worst_rel),
        "trace-class-selfdual-value": Measurement(abs(closed_ln2 - 1.0), 0.0),
    }
    fields = ("beta", "value", "closed_form", "abs_diff", "tail_bound",
              "relative_error")
    return results, {"partition": (fields, rows)}


def _run_fock_checks(cfg, seed, scale):
    modes, order, samples = cfg["modes"], cfg["order"], cfg["samples"]
    rng = np.random.default_rng(seed)

    def amp(norm):
        f = rng.normal(size=modes) + 1j * rng.normal(size=modes)
        return f * (norm / np.linalg.norm(f))

    worst_word = 0.0
    for _ in range(samples):
        letters = [amp(0.6) for _ in range(4)]
        flat = fock.weyl_reduce(letters)
        nested = fock.weyl_compose(fock.weyl_reduce(letters[:2]),
                                   fock.weyl_reduce(letters[2:]))
        worst_word = max(worst_word, abs(flat[0] - nested[0]),
                         float(np.max(np.abs(flat[1] - nested[1]))))

    amps = [np.zeros(modes)] + [amp(0.7) for _ in range(4)]
    gram = np.array([[fock.vacuum_expectation(fock.WeylWord.of(-fi, fj))
                      for fj in amps] for fi in amps])
    eig = np.linalg.eigvalsh((gram + gram.conj().T) / 2)
    gram_tail = fock.tail_bound(0.7, order)

    worst_overlap = 0.0
    overlap_budget = 0.0
    worst_gamma = 0.0
    worst_funct = 0.0
    for _ in range(samples):
        f, g = amp(0.8), amp(0.7)
        ev_f = fock.exponential_vector(f, order)
        ev_g = fock.exponential_vector(g, order)
        pairing = complex(np.vdot(f, g))
        worst_overlap = max(worst_overlap,
                            abs(ev_f.inner(ev_g) - np.exp(pairing)))
        # Lagrange remainder of the exponential series at |z| = |<f, g>|
        overlap_budget = max(
            overlap_budget,
            abs(pairing) ** (order + 1) / math.factorial(order + 1)
            * math.exp(abs(pairing)))
        a = rng.normal(size=(modes, modes)) + 1j * rng.normal(
            size=(modes, modes))
        a *= 0.9 / np.linalg.norm(a, 2)
        b = rng.normal(size=(modes, modes)) + 1j * rng.normal(
            size=(modes, modes))
        b *= 0.9 / np.linalg.norm(b, 2)
        worst_gamma = max(worst_gamma, (
            fock.gamma_apply(a, ev_g)
            - fock.exponential_vector(a @ g, order)).norm())
        worst_funct = max(worst_funct, (
            fock.gamma_apply(a @ b, ev_f)
            - fock.gamma_apply(a, fock.gamma_apply(b, ev_f))).norm())

    net = bgl.NetModel.massive(n=4, h=2.5)
    sub = net.wedge_subspace(spacetime.Region.wedge_right((0.0, 0.0)))
    f = sub.complex_basis()[:, 0] * 0.8
    tomita_residual = fock.second_quantized_tomita_check(sub, f, order)
    tomita_budget = net.epsilon + fock.tail_bound(0.8, order) + 1e-8

    chiral = bgl.NetModel.chiral_sum(n=9)
    locality = fock.locality_commutation_check(
        chiral, spacetime.Region.wedge_right((0.0, 0.0)),
        spacetime.Region.wedge_left((0.0, 0.0)))

    return {
        "weyl-reduction-consistency": Measurement(worst_word),
        "weyl-gram-positivity": Measurement(max(0.0, -float(eig.min())),
                                            gram_tail * scale + 1e-12),
        "exponential-overlap": Measurement(worst_overlap,
                                           overlap_budget * scale + 1e-10),
        "second-quantization-exponential": Measurement(worst_gamma),
        "second-quantization-functorial": Measurement(worst_funct),
        "tomita-lift-consistency": Measurement(tomita_residual,
                                               tomita_budget),
        "weyl-locality": Measurement(locality.max_form),
    }, {}


def _run_halperin_bench(cfg, seed, scale):
    # generic pairs draw subspace dimensions from [3, dim - 1)
    n = cfg["dim"]
    tol, max_iter = cfg["tol"], cfg["max_iter"]
    rng = np.random.default_rng(seed)
    caps = [c for c in (8, 32, 128, 512, 2048) if c < max_iter] + [max_iter]

    rows = []
    worst_distance = 0.0
    failures = 0
    for index in range(cfg["pairs"]):
        if index % 2 == 0:
            # generic pair with trivial intersection; dimensions kept away
            # from the marginal regime dim_a + dim_b = 2n, where principal
            # angles degenerate and alternating projections stall
            a = _random_real_span(rng, n, int(rng.integers(3, n - 1)))
            b = _random_real_span(rng, n, int(rng.integers(3, n - 1)))
        else:
            shared = _random_real_span(rng, n, n // 2)
            a = stdspace.sum_closure(
                [shared, _random_real_span(rng, n, n // 2)])
            b = stdspace.sum_closure(
                [shared, _random_real_span(rng, n, n // 2)])
        exact = stdspace.intersect([a, b], method="exact")
        iterative = None
        used_cap = -1
        for cap in caps:
            try:
                iterative = stdspace.intersect(
                    [a, b], method="halperin", max_iter=cap, tol=tol)
                used_cap = cap
                break
            except stdspace.HalperinNonConvergence:
                continue
        if iterative is None:
            failures += 1
            distance = float("nan")
            dim_iter = -1
        else:
            distance = stdspace.subspace_distance(exact, iterative)
            worst_distance = max(worst_distance, distance)
            dim_iter = iterative.dim
        rows.append({"pair": index, "dim_a": a.dim, "dim_b": b.dim,
                     "dim_exact": exact.dim, "dim_halperin": dim_iter,
                     "distance": distance, "iteration_cap": used_cap})

    results = {
        "halperin-agreement": Measurement(worst_distance),
        "halperin-convergence": Measurement(failures, 0.5),
    }
    fields = ("pair", "dim_a", "dim_b", "dim_exact", "dim_halperin",
              "distance", "iteration_cap")
    return results, {"pairs": (fields, rows)}


RUNNERS = {
    "verify-mobius": _run_verify_mobius,
    "verify-stdspace": _run_verify_stdspace,
    "bgl-axioms": _run_bgl_axioms,
    "reconstruct-mobius": _run_reconstruct_mobius,
    "break-bw": _run_break_bw,
    "lightcone-defect": _run_lightcone_defect,
    "spin-statistics": _run_spin_statistics,
    "trace-class": _run_trace_class,
    "fock-checks": _run_fock_checks,
    "halperin-bench": _run_halperin_bench,
}


# ---------------------------------------------------------------------------
# report assembly
# ---------------------------------------------------------------------------


def _environment_fingerprint():
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "mpmath": mpmath.__version__,
        "platform": platform.platform(),
        "machine": platform.machine(),
    }


def run_command(command, config, seed, budget_scale):
    """Execute one command; returns (report dict, tables dict).

    The merged ``config`` and the ``seed`` are parsed through KEYS before
    the runner sees them; the report echoes the config as given.
    ``budget_scale`` must be finite and positive: an infinite scale would
    pass every check and a NaN or non-positive one fail every check.
    """
    if not (math.isfinite(budget_scale) and budget_scale > 0):
        raise ConfigError(f"budget scale must be finite and positive, "
                          f"got {budget_scale!r}")
    values = _parse_config(command, config)
    seed = _parse(command, "seed", seed)
    started = time.perf_counter()
    results, tables = RUNNERS[command](values, seed, budget_scale)
    elapsed = time.perf_counter() - started
    declared = CHECKS[command]
    for name in results:
        if name not in declared:
            raise RuntimeError(f"undeclared check name {name!r}")
    missing = tuple(name for name in declared if name not in results)
    # a model without dilations leaves out exactly the dilation rows
    if missing and not (command == "bgl-axioms" and missing == _DILATION_ROWS
                        and values["model"] not in bgl.DILATION_KINDS):
        raise RuntimeError(f"{command} left out its checks {missing}")
    checks = []
    for name, (base, text) in declared.items():
        if name not in results:
            continue
        got = results[name]
        # the budget comes from the row or from the record, never both
        if (not isinstance(got, Measurement)
                or (base is None) == (got.budget is None)):
            raise RuntimeError(
                f"check {name!r} returned {got!r}, which does not match "
                f"its CHECKS row (base budget {base!r})")
        if base is None:
            budget = float(got.budget)
            formula = text.format(budget=budget)
        else:
            budget = base * budget_scale
            formula = f"{text} <= {_sci(base)} * budget_scale"
        m = Measurement(float(got.residual), budget)
        checks.append({"name": name, "residual": m.residual,
                       "budget": m.budget, "formula": formula,
                       "passed": m.passed})
    report = {
        "schema": REPORT_SCHEMA,
        "command": command,
        "config": config,
        "seed": seed,
        "budget_scale": budget_scale,
        "checks": checks,
        "passed": all(c["passed"] for c in checks),
        "environment": _environment_fingerprint(),
        "timestamp": {
            "completed_at": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
            "wall_time_s": round(elapsed, 6),
        },
    }
    return report, tables


def _finite_json(value):
    """Copy of a report with non-finite floats as "NaN" / "Infinity"
    strings, so that the file is standard JSON."""
    if isinstance(value, float) and not math.isfinite(value):
        if math.isnan(value):
            return "NaN"
        return "Infinity" if value > 0 else "-Infinity"
    if isinstance(value, dict):
        return {k: _finite_json(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_finite_json(v) for v in value]
    return value


def write_report(report, tables, out_dir):
    """Write the JSON report and CSV tables; returns the JSON path."""
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, f"{report['command']}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(_finite_json(report), fh, indent=2, sort_keys=True,
                  allow_nan=False)
        fh.write("\n")
    for name, (fields, rows) in tables.items():
        table_path = os.path.join(out_dir,
                                  f"{report['command']}-{name}.csv")
        with open(table_path, "w", encoding="utf-8", newline="") as fh:
            writer = csv.DictWriter(fh, fieldnames=fields)
            writer.writeheader()
            writer.writerows(rows)
    return path


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------


def build_parser():
    parser = argparse.ArgumentParser(
        prog="modnet",
        description="verification suites and numerical studies for "
                    "modular-theoretic lattice models")
    sub = parser.add_subparsers(dest="command", required=True)
    for command in RUNNERS:
        p = sub.add_parser(command, help=f"run the {command} battery")
        p.add_argument("--config", default=None,
                       help="JSON config file (omit for defaults)")
        p.add_argument("--out", default=None,
                       help=f"output directory (default ${OUT_ENV_VAR} "
                            f"or ./{DEFAULT_OUT_DIR})")
        p.add_argument("--seed", type=int, default=None,
                       help="override the config seed")
        p.add_argument("--budget-scale", type=float, default=1.0,
                       help="multiply all pass/fail budgets")
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        config = load_config(args.command, args.config)
        if args.seed is not None:
            config["seed"] = args.seed
        report, tables = run_command(args.command, config, config["seed"],
                                     args.budget_scale)
        path = write_report(report, tables, _resolve_out_dir(args.out))
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG_ERROR
    except Exception:
        traceback.print_exc()
        return EXIT_INTERNAL_ERROR
    for entry in report["checks"]:
        tag = "PASS" if entry["passed"] else "FAIL"
        print(f"{tag} {entry['name']}: residual {entry['residual']:.3e} "
              f"vs budget {entry['budget']:.3e}")
    n_pass = sum(1 for e in report["checks"] if e["passed"])
    verdict = "PASS" if report["passed"] else "FAIL"
    print(f"{args.command}: {verdict} ({n_pass}/{len(report['checks'])} "
          f"checks) -> {path}")
    return EXIT_OK if report["passed"] else EXIT_CHECK_FAILURE


if __name__ == "__main__":
    sys.exit(main())
