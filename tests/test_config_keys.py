"""Config keys against their declaration in ``cli.KEYS``.

The sweep gives every declared (command, key) pair each of sixteen
values that a JSON config can spell.  Its expected outcome comes from a
small rule of this file (type, finite, positive, minimum), not from the
parser under test: a value outside the key's domain exits 2 with a
message naming the key, and a value inside it runs to exit 0 or 1.
"""

import json
import math
import os
import re
import sys

import pytest

from modnet import bgl
from modnet import cli

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

_BIG = "1" + "0" * 400
# id -> JSON text; +-10^400 are JSON integers beyond the doubles
VALUES = {
    "nan": "NaN", "inf": "Infinity", "-inf": "-Infinity", "big": _BIG,
    "-big": "-" + _BIG, "0": "0", "-1": "-1", "0.5": "0.5",
    "string": '"half"', "true": "true", "null": "null", "[]": "[]",
    "[nan]": "[NaN]", "[big]": f"[{_BIG}]", "[[1, 2]]": "[[1, 2]]",
    "{}": "{}",
}

# the model kinds each bgl-axioms key applies to, as the README states
# them: chiralSum takes n and h, twisted adds charge, massive adds mass
# and directIntegral adds masses, mass_min and mass_max
_KINDS = ("chiralSum", "massive", "directIntegral", "twisted")
APPLIES = {"model": _KINDS, "n": _KINDS, "h": _KINDS, "seed": _KINDS,
           "charge": ("twisted",), "mass": ("massive",),
           "masses": ("directIntegral",), "mass_min": ("directIntegral",),
           "mass_max": ("directIntegral",)}

# keys whose values the model's own rule (reps) requires to be > 0,
# with a message of its own
_MODEL_POSITIVE = {("bgl-axioms", "h"), ("bgl-axioms", "mass"),
                   ("bgl-axioms", "mass_min"), ("bgl-axioms", "mass_max"),
                   ("reconstruct-mobius", "h"), ("break-bw", "h"),
                   ("lightcone-defect", "spacing"),
                   ("lightcone-defect", "masses")}

# ROADMAP item 2: at h = 0.5 the modular data of every kind fails inside
# the computation; each cell exits 3 until item 2's domain rule lands
_NOT_CYCLIC = pytest.mark.xfail(
    strict=True, reason="ROADMAP item 2: bgl-axioms at h = 0.5 exits 3 with "
                        "'subspace is not cyclic: H + iH does not span'")


def _is_number(v, integral=False):
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        return False
    return abs(v) <= sys.float_info.max and (not integral or v == int(v))


def expected(command, key, value, config):
    """The outcome of one cell: "run" (exit 0 or 1), "key" (exit 2
    naming the key) or "rule" (exit 2 from the model's own rule, whose
    message may stand in)."""
    default, kind, bound = cli.KEYS[command][key][:3]
    if value is None:
        return "run" if default is None else "key"
    if kind == "model":
        return "run" if value in _KINDS else "key"
    if kind in ("int", "float"):
        items = [value]
    elif not isinstance(value, list) or not value:
        return "key"
    elif kind == "ladder":
        if not all(isinstance(p, list) and len(p) == 2
                   and _is_number(p[0], True) and _is_number(p[1], True)
                   and p[1] >= bound for p in value):
            return "key"
        return "run" if all(grid >= 2 for grid, _ in value) else "rule"
    else:
        items = value
    for v in items:
        if not _is_number(v, kind == "int"):
            return "key"
        if bound is not None and (v < bound if kind == "int"
                                  else not v > bound):
            return "key"
    if (command, key) in _MODEL_POSITIVE and not all(v > 0 for v in items):
        return "rule"
    if key == "h" and "t_values" in config:
        # every flow time 2 pi t must be a multiple of the spacing
        steps = [2 * math.pi * t / value for t in config["t_values"]]
        if any(abs(s - round(s)) > 1e-9 for s in steps):
            return "rule"
    if command == "bgl-axioms" and key in ("mass_min", "mass_max"):
        window = dict(config, **{key: value})
        if not 0 < window["mass_min"] < window["mass_max"]:
            return "rule"
    return "run"


def _cells():
    for command, keys in cli.KEYS.items():
        for key in keys:
            kinds = (None,)
            if command == "bgl-axioms" and key != "model":
                kinds = APPLIES[key]
            for kind in kinds:
                for vid in VALUES:
                    marks = ()
                    if (command, key, vid) == ("bgl-axioms", "h", "0.5"):
                        marks = (_NOT_CYCLIC,)
                    yield pytest.param(
                        command, key, kind, vid, marks=marks,
                        id=f"{command}-{key}-{kind or 'default'}-{vid}")


def _run_text(tmp_path, command, text):
    path = tmp_path / "cfg.json"
    path.write_text(text, encoding="utf-8")
    return cli.main([command, "--config", str(path),
                     "--out", str(tmp_path / "out")])


@pytest.mark.parametrize("command, key, kind, vid", _cells())
def test_every_declared_key_against_sixteen_values(tmp_path, capsys, command,
                                                   key, kind, vid):
    base = {} if kind is None else {"model": kind}
    text = json.dumps(base)[:-1] + (", " if base else "")
    code = _run_text(tmp_path, command, f'{text}"{key}": {VALUES[vid]}}}')
    err = capsys.readouterr().err
    config = dict(cli.DEFAULT_CONFIGS[command], **base)
    want = expected(command, key, json.loads(VALUES[vid]), config)
    if want == "run":
        assert code in (cli.EXIT_OK, cli.EXIT_CHECK_FAILURE), (code, err)
        return
    assert code == cli.EXIT_CONFIG_ERROR, (code, err)
    named = f"config key '{key}'" in err
    if want == "rule":
        named = named or re.search(r"invalid \w+ parameters: ", err)
    assert named, err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command, text, key", [
    ("bgl-axioms", '{"model": null}', "model"),
    ("lightcone-defect", '{"ladder": null}', "ladder"),
    ("lightcone-defect", '{"ladder": [NaN]}', "ladder"),
    ("lightcone-defect", '{"ladder": [[9, 1, 2]]}', "ladder"),
])
def test_malformed_values_name_their_key(tmp_path, capsys, command, text,
                                         key):
    # these once read "unknown model kind None", "'NoneType' object is
    # not iterable" and two unpacking errors
    code = _run_text(tmp_path, command, text)
    assert code == cli.EXIT_CONFIG_ERROR
    assert f"config key '{key}' must" in capsys.readouterr().err


def test_the_sweep_rule_knows_every_declared_type():
    # a new type would fall through expected() as a float list
    types = {spec[1] for keys in cli.KEYS.values() for spec in keys.values()}
    assert types == {"int", "float", "floats", "ladder", "model"}


# ---------------------------------------------------------------------------
# which keys apply to which model
# ---------------------------------------------------------------------------


def test_bgl_axioms_declares_the_kinds_each_key_applies_to():
    keys = cli.KEYS["bgl-axioms"]
    assert {key: tuple(sorted(spec[3])) for key, spec in keys.items()} == {
        key: tuple(sorted(kinds)) for key, kinds in APPLIES.items()}
    assert set(_KINDS) == set(bgl.MODEL_KINDS)


_IGNORED = [(key, kind) for key, kinds in APPLIES.items()
            for kind in (None,) + _KINDS
            if (kind or "chiralSum") not in kinds]


@pytest.mark.parametrize("key, kind", _IGNORED)
def test_a_key_set_for_a_model_it_does_not_apply_to_exits_2(
        tmp_path, capsys, key, kind):
    # each of these once ran its model, ignored the key whatever its
    # value, and echoed it in the report; the value here is the default
    config = {key: cli.DEFAULT_CONFIGS["bgl-axioms"][key]}
    if kind is not None:
        config["model"] = kind
    code = _run_text(tmp_path, "bgl-axioms", json.dumps(config))
    err = capsys.readouterr().err
    assert code == cli.EXIT_CONFIG_ERROR, (code, err)
    assert f"'{key}'" in err and f"'{kind or 'chiralSum'}'" in err, err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("kind", _KINDS)
def test_merged_defaults_run_on_every_kind(kind):
    # run_command callers merge every default in, as the benchmark worker
    # does; keys the kind ignores are never an error there
    config = dict(cli.DEFAULT_CONFIGS["bgl-axioms"], model=kind)
    report, _ = cli.run_command("bgl-axioms", config, 0, 1.0)
    failing = {c["name"] for c in report["checks"] if not c["passed"]}
    assert failing == ({"dilation-bisognano-wichmann"}
                       if kind == "twisted" else set())
    assert report["config"] == config


# ---------------------------------------------------------------------------
# the documented key table
# ---------------------------------------------------------------------------


def _row(command, key, spec):
    """The docs/checks.md row of one declaration, as cells."""
    default, kind, bound = spec[:3]
    domain = {
        "int": f">= {bound}",
        "float": "finite" if bound is None else f"> {bound}",
        "floats": "each finite" if bound is None else f"each > {bound}",
        "ladder": f"count >= {bound}",
        "model": "a model kind",
    }[kind]
    if default is None:
        domain += ", or null"
    kinds = "—"
    if len(spec) > 3:
        kinds = "all" if spec[3] == bgl.MODEL_KINDS else ", ".join(spec[3])
    return (f"`{command}`", f"`{key}`", kind, domain, kinds)


def test_the_documented_key_table_is_the_declaration():
    with open(os.path.join(ROOT, "docs", "checks.md"), encoding="utf-8") as fh:
        manifest = fh.read()
    section = manifest.split("\n## Config keys\n", 1)[1].split("\n## ", 1)[0]
    rows = [tuple(cell.strip() for cell in line.strip("|").split("|"))
            for line in section.splitlines() if line.startswith("| `")]
    assert rows == [_row(command, key, spec)
                    for command, keys in cli.KEYS.items()
                    for key, spec in keys.items()]
