"""Workload command lists and the correctness gate.

A workload is a list of ``modnet`` commands run back to back in one
process, each through ``cli.run_command`` and ``cli.write_report``.
The gate compares every command's report against an expected-verdict
table and against pinned study values; any mismatch, or a raised
exception, makes the command count as failed.

This module imports nothing from numpy or modnet, so the worker can
time ``import modnet.cli`` from a clean start.
"""

import dataclasses
import math


@dataclasses.dataclass(frozen=True)
class Command:
    """One ``modnet`` command with config overrides on its defaults."""

    command: str
    overrides: tuple = ()

    @property
    def label(self):
        """``<command>[.<model>]``; bgl-axioms always names its model."""
        if self.command != "bgl-axioms":
            return self.command
        model = dict(self.overrides).get("model", "chiralSum")
        return f"{self.command}.{model}"

    def config(self, defaults, seed):
        """The full run config: command defaults, overrides, then seed."""
        cfg = dict(defaults)
        cfg.update(dict(self.overrides))
        cfg["seed"] = seed
        return cfg


@dataclasses.dataclass(frozen=True)
class Workload:
    name: str
    why: str
    commands: tuple


def _cmd(command, **overrides):
    return Command(command, tuple(sorted(overrides.items())))


ALL_COMMANDS = ("verify-mobius", "verify-stdspace", "bgl-axioms",
                "reconstruct-mobius", "break-bw", "lightcone-defect",
                "spin-statistics", "trace-class", "fock-checks",
                "halperin-bench")

# the default ladder keeps 4x cones per grid doubling; the scaled one
# adds the next level of the same pattern (a (129, 32) level is not
# monotone, see README.md)
SCALED_LADDER = [[17, 2], [33, 8], [65, 32], [129, 128]]

WORKLOADS = {
    w.name: w for w in (
        Workload(
            "battery-default",
            "the paper re-verification a user runs: all 10 commands at "
            "defaults plus bgl-axioms on the other three models; small "
            "matrices, so per-call overhead and model builds weigh more",
            tuple(_cmd(c) for c in ALL_COMMANDS) + tuple(
                _cmd("bgl-axioms", model=m)
                for m in ("massive", "directIntegral", "twisted"))),
        Workload(
            "grid-scaled",
            "five heavy commands on finer grids where dense LAPACK "
            "(null_space SVDs, modular data) dominates; kernel and "
            "stdspace work should show here",
            (_cmd("bgl-axioms", model="chiralSum", n=65),
             _cmd("bgl-axioms", model="twisted", n=65),
             _cmd("reconstruct-mobius", n=129),
             _cmd("break-bw", n=65),
             _cmd("lightcone-defect", ladder=SCALED_LADDER))),
    )
}
# mobius and fock are measured through battery-default: a workload of
# only those layers has short pure-Python passes whose run-to-run spread
# on a shared host exceeded any bound the format allows (README.md)


# ---------------------------------------------------------------------------
# expected verdicts: check name -> True (PASS) / False (FAIL), per label
# ---------------------------------------------------------------------------

_WEDGE_AXIOMS = ("isotony", "poincare-covariance", "positivity-of-energy",
                 "reeh-schlieder", "locality", "bisognano-wichmann")
_DILATION_AXIOMS = ("dilation-covariance", "cone-standardness",
                    "dilation-bisognano-wichmann", "modular-covariance",
                    "strong-additivity")


def _all_pass(*names):
    return dict.fromkeys(names, True)


EXPECTED_VERDICTS = {
    "verify-mobius": _all_pass(
        "mobius-commutation", "mobius-group-law", "mobius-cover-consistency"),
    "verify-stdspace": _all_pass(
        "stdspace-tomita-involution", "stdspace-modular-balance",
        "stdspace-dual-tomita", "stdspace-conjugate-complement",
        "stdspace-flow-invariance", "stdspace-double-dual"),
    "bgl-axioms.chiralSum": _all_pass(*_WEDGE_AXIOMS, *_DILATION_AXIOMS),
    "bgl-axioms.massive": _all_pass(*_WEDGE_AXIOMS),
    "bgl-axioms.directIntegral": _all_pass(*_WEDGE_AXIOMS),
    # the twisted model breaks exactly the dilation Bisognano-Wichmann
    # entry, by design
    "bgl-axioms.twisted": {**_all_pass(*_WEDGE_AXIOMS, *_DILATION_AXIOMS),
                           "dilation-bisognano-wichmann": False},
    "reconstruct-mobius": _all_pass(
        "reconstruction-identity", "reconstruction-commutator",
        "reconstruction-left-cancellation", "reconstruction-at-zero"),
    "break-bw": _all_pass(
        "counterexample-formula", "counterexample-wedge-roundtrip",
        "counterexample-gauge-invariance"),
    "lightcone-defect": _all_pass(
        "cone-defect-monotone", "cone-defect-below-frozen"),
    "spin-statistics": _all_pass(
        "spin-statistics-integer", "spin-statistics-violation-detected"),
    "trace-class": _all_pass(
        "trace-class-truncation", "trace-class-selfdual-value"),
    "fock-checks": _all_pass(
        "weyl-reduction-consistency", "weyl-gram-positivity",
        "exponential-overlap", "second-quantization-exponential",
        "second-quantization-functorial", "tomita-lift-consistency",
        "weyl-locality"),
    "halperin-bench": _all_pass("halperin-agreement", "halperin-convergence"),
}

# lightcone ladder rows (grid, cones, defect); the defect is
# dim(complement) / (2 grid), so each is pinned as that exact ratio
LADDER_ROWS = {
    17: (2, 32 / 34),
    33: (8, 58 / 66),
    65: (32, 98 / 130),           # 0.7538..., the default finest level
    129: (128, 130 / 258),        # 65/129, the scaled finest level
}

# break-bw at charge 1: deviation(t) must equal |e^{2 pi i t} - 1|
BREAK_BW_BUDGET = 1e-8


def _ladder_failures(tables):
    _, rows = tables["ladder"]
    out = []
    for row in rows:
        pinned = LADDER_ROWS.get(int(row["grid"]))
        if pinned is None:
            out.append(f"unpinned ladder grid {row['grid']}")
        elif (int(row["cones"]), row["defect"]) != pinned:
            out.append(f"ladder row grid {row['grid']} moved: cones "
                       f"{row['cones']} defect {row['defect']!r}, pinned "
                       f"{pinned}")
    return out


def _break_bw_failures(tables):
    _, rows = tables["deviation"]
    out = []
    for row in rows:
        t = float(row["t"])
        predicted = abs(complex(math.cos(2 * math.pi * t),
                                math.sin(2 * math.pi * t)) - 1.0)
        if abs(float(row["predicted"]) - predicted) > 1e-12:
            out.append(f"break-bw prediction at t={t} moved: "
                       f"{row['predicted']!r} vs {predicted!r}")
        if abs(float(row["deviation"]) - predicted) > BREAK_BW_BUDGET:
            out.append(f"break-bw deviation at t={t} is {row['deviation']!r}, "
                       f"predicted {predicted!r}")
    return out


PINNED_TABLES = {
    "lightcone-defect": _ladder_failures,
    "break-bw": _break_bw_failures,
}


def command_failures(label, report, tables, expected=None):
    """Reasons why one command's output fails the gate (empty: it passed).

    ``report`` is the dict ``cli.run_command`` returns, ``tables`` its
    table map.  ``expected`` defaults to ``EXPECTED_VERDICTS``.
    """
    expected = EXPECTED_VERDICTS if expected is None else expected
    want = expected.get(label)
    if want is None:
        return [f"no expected verdicts for {label}"]
    got = {c["name"]: bool(c["passed"]) for c in report["checks"]}
    out = []
    for name in sorted(set(want) | set(got)):
        if name not in got:
            out.append(f"{label}: check {name} missing")
        elif name not in want:
            out.append(f"{label}: unexpected check {name}")
        elif got[name] != want[name]:
            out.append(f"{label}: {name} is "
                       f"{'PASS' if got[name] else 'FAIL'}, expected "
                       f"{'PASS' if want[name] else 'FAIL'}")
    pinned = PINNED_TABLES.get(label)
    if pinned is not None:
        out.extend(pinned(tables))
    return out


def tally(commands):
    """(failed count, reasons) over worker command results.

    Each result is ``{"label": ..., "failures": [...]}``; a command with
    any failure reason counts once.
    """
    failed = 0
    reasons = []
    for c in commands:
        if c["failures"]:
            failed += 1
            reasons.extend(c["failures"])
    return failed, reasons
