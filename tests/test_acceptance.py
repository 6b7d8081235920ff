"""Acceptance battery: eleven criteria, one verdict line each.

Every test prints a single ``criterion NN: PASS/FAIL`` line (visible
with ``pytest -s``; under ``pytest -v`` the per-test result line plays
the same role) and asserts both the numerical budgets and the runtime
bound of its criterion.  Budgets are pinned here and must not be
loosened; a failing criterion is reported, not papered over.
"""

import itertools
import math
import time

import numpy as np
import pytest
import scipy.sparse as sp
from realform import real_antilinear, real_linear
from scipy.sparse.linalg import expm_multiply

from modnet import bgl
from modnet import fock
from modnet import mobius
from modnet import spacetime
from modnet import stdspace

MOBIUS_BUDGET = 1e-11
IDENTITY_BUDGET = 1e-8
HALPERIN_BUDGET = 1e-7
RECONSTRUCTION_BUDGET = 1e-7
FORMULA_BUDGET = 1e-8
BLOCK_BUDGET = 1e-8
TRACE_REL_BUDGET = 1e-20
SPIN_BUDGET = 1e-9


def _verdict(number, ok, detail):
    line = f"criterion {number:02d}: {'PASS' if ok else 'FAIL'} ({detail})"
    print(line)
    assert ok, line


def _elapsed_ok(started, bound):
    return time.perf_counter() - started, time.perf_counter() - started < bound


# ---------------------------------------------------------------------------
# 1: flow commutation relations on interval families
# ---------------------------------------------------------------------------


def test_criterion_01_mobius_commutation():
    started = time.perf_counter()
    rng = np.random.default_rng(101)
    worst = 0.0
    for pair in mobius.COMMUTATION_PAIRS:
        count = 0
        while count < 500:
            t, s = rng.uniform(-2.0, 2.0, size=2)
            try:
                worst = max(worst, mobius.commutation_residual(t, s, pair))
            except mobius.MobiusDomainError:
                continue
            count += 1

    families = (
        (mobius.Interval.from_line(0.0, mobius.INF),
         mobius.Interval.from_line(1.0, mobius.INF),
         mobius.Interval.from_line(2.0, mobius.INF)),
        (mobius.Interval.from_line(0.0, 1.0),
         mobius.Interval.from_line(0.0, 0.5),
         mobius.Interval.from_line(0.0, 0.25)),
    )
    def lam(interval, t):
        g = mobius.dilation_conjugator(interval)
        return g.compose(mobius.MobiusElement.dilation(-t)).compose(
            g.inverse())

    for family in families:
        for big, small in itertools.combinations(family, 2):
            count = 0
            while count < 40:
                t, s = rng.uniform(-1.5, 1.5, size=2)
                try:
                    s_p, t_p = mobius.nested_commutation_parameters(
                        big, small, t, s)
                except mobius.MobiusDomainError:
                    continue
                count += 1
                lhs = lam(big, t).compose(lam(small, s))
                rhs = lam(small, s_p).compose(lam(big, t_p))
                worst = max(worst, float(np.max(np.abs(lhs.mat - rhs.mat))))

    dt, in_time = _elapsed_ok(started, 1.0)
    _verdict(1, worst < MOBIUS_BUDGET and in_time,
             f"max residual {worst:.3e} < 1e-11, {dt:.2f}s < 1s")


# ---------------------------------------------------------------------------
# 2: modular identities on random standard subspaces
# ---------------------------------------------------------------------------


def _random_standard(rng, n):
    # resample when H meets iH below 0.05 rad: there the modular operator
    # norm grows like 4 / angle^2 and double precision cannot support the
    # 1e-8 identity budget, so such draws carry no information
    while True:
        vecs = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        h = stdspace.make_subspace(vecs)
        rep = stdspace.standardness(h)
        if rep.standard and rep.minimal_angle > 0.05:
            return h


def test_criterion_02_modular_identities():
    started = time.perf_counter()
    rng = np.random.default_rng(202)
    eye = np.eye(16)  # the real form of C^8
    worst = 0.0
    for _ in range(200):
        h = _random_standard(rng, 8)
        md = stdspace.modular_data(h)
        dual = stdspace.symplectic_complement(h)
        # the identities in the real picture, on the 2n x 2n forms
        s_real = real_antilinear(md.tomita_matrix())
        s_dual = real_antilinear(stdspace.modular_data(dual).tomita_matrix())
        j, delta = real_antilinear(md.jc), real_linear(md.power(1.0))
        balance = np.linalg.norm(j @ delta @ j @ delta - eye, 2) \
            / np.linalg.norm(delta, 2)

        def moved(op):
            return stdspace.RealSubspace(op @ h.basis)

        worst = max(
            worst,
            balance,
            np.linalg.norm(s_dual - s_real.T, 2),
            stdspace.subspace_distance(moved(j), dual),
            max(stdspace.subspace_distance(
                moved(real_linear(md.delta_it(t))), h)
                for t in (0.25, 0.7, 1.5)),
            stdspace.subspace_distance(stdspace.symplectic_complement(dual),
                                       h),
        )
    dt, in_time = _elapsed_ok(started, 30.0)
    _verdict(2, worst < IDENTITY_BUDGET and in_time,
             f"max identity residual {worst:.3e} < 1e-8, {dt:.1f}s < 30s")


# ---------------------------------------------------------------------------
# 3: iterative vs exact subspace intersection
# ---------------------------------------------------------------------------


def test_criterion_03_halperin_equivalence():
    started = time.perf_counter()
    rng = np.random.default_rng(303)

    def span(k):
        vecs = rng.normal(size=(k, 8)) + 1j * rng.normal(size=(k, 8))
        return stdspace.make_subspace(vecs)

    worst = 0.0
    for index in range(100):
        if index % 2 == 0:
            a, b = span(int(rng.integers(3, 7))), span(int(rng.integers(3, 7)))
        else:
            shared = span(4)
            a = stdspace.sum_closure([shared, span(4)])
            b = stdspace.sum_closure([shared, span(4)])
        exact = stdspace.intersect([a, b], method="exact")
        iterative = stdspace.intersect([a, b], method="halperin",
                                       max_iter=5000, tol=1e-9)
        worst = max(worst, stdspace.subspace_distance(exact, iterative))
    dt, in_time = _elapsed_ok(started, 30.0)
    _verdict(3, worst < HALPERIN_BUDGET and in_time,
             f"max subspace distance {worst:.3e} < 1e-7 at <= 5000 "
             f"iterations, {dt:.1f}s < 30s")


# ---------------------------------------------------------------------------
# 4: wedge modular round-trip and duality
# ---------------------------------------------------------------------------


def test_criterion_04_wedge_roundtrip_and_duality():
    started = time.perf_counter()
    worst_round = 0.0
    worst_dual = 0.0
    budget = 0.0
    for net in (bgl.NetModel.chiral_sum(), bgl.NetModel.massive(n=128)):
        budget = max(budget, net.epsilon)
        w_r = spacetime.Region.wedge_right((0.0, 0.0))
        w_l = spacetime.Region.wedge_left((0.0, 0.0))
        md = net.wedge_modular(w_r)
        md2 = stdspace.modular_data(net.wedge_subspace(w_r))
        # J and Delta in the real picture, on the 2n x 2n forms
        delta, delta2 = (real_linear(m.power(1.0)) for m in (md, md2))
        worst_round = max(
            worst_round,
            np.linalg.norm(real_antilinear(md.jc) - real_antilinear(md2.jc),
                           2),
            np.linalg.norm(delta - delta2, 2) / np.linalg.norm(delta, 2))
        comp = stdspace.symplectic_complement(net.wedge_subspace(w_r))
        worst_dual = max(worst_dual, stdspace.subspace_distance(
            comp, net.wedge_subspace(w_l)))
    dt, in_time = _elapsed_ok(started, 120.0)
    ok = worst_round < budget and worst_dual < budget and in_time
    _verdict(4, ok,
             f"roundtrip {worst_round:.3e} and duality {worst_dual:.3e} "
             f"< model budget {budget:.3e}, {dt:.1f}s < 120s")


# ---------------------------------------------------------------------------
# 5: direct-integral block laws
# ---------------------------------------------------------------------------


def test_criterion_05_direct_integral_block_laws():
    started = time.perf_counter()
    net = bgl.NetModel.direct_integral(masses=4, n=32)
    fibers = net.mass_fiber_models()
    w_a = spacetime.Region.wedge_right((0.0, 0.0))
    w_b = spacetime.Region.wedge_right((-0.5, 0.5))

    global_a = net.wedge_subspace(w_a)
    global_b = net.wedge_subspace(w_b)
    fiber_a = [f.wedge_subspace(w_a) for f in fibers]
    fiber_b = [f.wedge_subspace(w_b) for f in fibers]

    comp = stdspace.subspace_distance(
        stdspace.symplectic_complement(global_a),
        bgl.assemble_blockwise(
            [stdspace.symplectic_complement(h) for h in fiber_a]))
    meet = stdspace.subspace_distance(
        stdspace.intersect([global_a, global_b], method="exact"),
        bgl.assemble_blockwise(
            [stdspace.intersect([a, b], method="exact")
             for a, b in zip(fiber_a, fiber_b)]))
    join = stdspace.subspace_distance(
        stdspace.sum_closure([global_a, global_b]),
        bgl.assemble_blockwise(
            [stdspace.sum_closure([a, b])
             for a, b in zip(fiber_a, fiber_b)]))
    worst = max(comp, meet, join)
    dt, in_time = _elapsed_ok(started, 60.0)
    _verdict(5, worst < BLOCK_BUDGET and in_time,
             f"complement {comp:.3e}, intersection {meet:.3e}, sum "
             f"{join:.3e} all < 1e-8, {dt:.1f}s < 60s")


# ---------------------------------------------------------------------------
# 6: lightcone separating defect ladder
# ---------------------------------------------------------------------------


def test_criterion_06_lightcone_defect_ladder():
    started = time.perf_counter()
    checks, tables = bgl.lightcone_separating_study()
    defects = [row["defect"] for row in tables["ladder"][1]]
    monotone = all(b <= a + 1e-12 for a, b in zip(defects, defects[1:]))
    below = checks["cone-defect-below-frozen"]
    dt, in_time = _elapsed_ok(started, 300.0)
    ok = monotone and below.residual < below.budget and in_time
    _verdict(6, ok,
             f"defects {[f'{d:.4f}' for d in defects]} nonincreasing, "
             f"finest {below.residual:.4f} < frozen "
             f"{below.budget}, {dt:.1f}s < 300s")


# ---------------------------------------------------------------------------
# 7: charged counterexample to the dilation flow identity
# ---------------------------------------------------------------------------


def test_criterion_07_charged_counterexample():
    started = time.perf_counter()
    charged = bgl.NetModel.twisted(charge=1.0)
    checks, _ = bgl.counterexample_bw(charged)
    formula = checks["counterexample-formula"].residual
    axioms = bgl.axioms_report(charged)
    wedge_entries_pass = all(
        entry.passed for name, entry in axioms.items()
        if name != "dilation-bisognano-wichmann")
    breaks = not axioms["dilation-bisognano-wichmann"].passed

    neutral = bgl.NetModel.twisted(charge=0.0)
    _, neutral_tables = bgl.counterexample_bw(neutral)
    neutral_dev = max(row["deviation"]
                      for row in neutral_tables["deviation"][1])

    dt, in_time = _elapsed_ok(started, 60.0)
    ok = (formula < FORMULA_BUDGET
          and wedge_entries_pass and breaks
          and neutral_dev < FORMULA_BUDGET and in_time)
    _verdict(7, ok,
             f"q=1 formula residual {formula:.3e} "
             f"< 1e-8 with wedge axioms intact, q=0 deviation "
             f"{neutral_dev:.3e} < 1e-8, {dt:.1f}s < 60s")


# ---------------------------------------------------------------------------
# 8: splitting of the diamond modular flow
# ---------------------------------------------------------------------------


def test_criterion_08_diamond_flow_splitting():
    started = time.perf_counter()
    net = bgl.NetModel.chiral_sum()
    checks, _ = bgl.reconstruct_ur(net)
    identity = checks["reconstruction-identity"].residual
    commutator = checks["reconstruction-commutator"].residual
    dt, in_time = _elapsed_ok(started, 120.0)
    ok = (identity < RECONSTRUCTION_BUDGET
          and commutator < RECONSTRUCTION_BUDGET and in_time)
    _verdict(8, ok,
             f"identity {identity:.3e} and commutator "
             f"{commutator:.3e} < 1e-7, {dt:.1f}s < 120s")


# ---------------------------------------------------------------------------
# 9: trace-class partition values
# ---------------------------------------------------------------------------


def test_criterion_09_trace_class_partition():
    bgl.trace_class_partition(0.5)     # warm the arithmetic context
    started = time.perf_counter()
    results = {beta: bgl.trace_class_partition(beta)
               for beta in (0.5, math.log(2.0), 2.0)}
    dt = time.perf_counter() - started
    worst_rel = max(diff / closed
                    for _, closed, diff, _ in results.values())
    exact_one = results[math.log(2.0)][1] == 1.0
    ok = worst_rel < TRACE_REL_BUDGET and exact_one and dt < 1e-3
    _verdict(9, ok,
             f"max relative error {worst_rel:.3e} < 1e-20, closed form "
             f"at ln 2 exactly 1, {dt * 1000:.3f}ms < 1ms")


# ---------------------------------------------------------------------------
# 10: Fock layer against the matrix oracle
# ---------------------------------------------------------------------------


def _oracle_weyl_phase(f, g, n, order):
    bases = [fock.occupancy_basis(n, k) for k in range(order + 1)]
    offs = np.cumsum([0] + [len(b) for b in bases])
    dim = int(offs[-1])
    raised = []
    for i in range(n):
        rows, cols, vals = [], [], []
        for k in range(order):
            nxt = {a: p for p, a in enumerate(bases[k + 1])}
            for p, alpha in enumerate(bases[k]):
                up = list(alpha)
                up[i] += 1
                rows.append(offs[k + 1] + nxt[tuple(up)])
                cols.append(offs[k] + p)
                vals.append(math.sqrt(alpha[i] + 1))
        raised.append(sp.csr_matrix((vals, (rows, cols)), shape=(dim, dim)))

    def weyl(amp, v):
        gen = sp.csr_matrix((dim, dim), dtype=complex)
        for i in range(n):
            gen = gen + amp[i] * raised[i] + np.conj(amp[i]) * raised[i].T
        return expm_multiply(1j * gen.tocsc(), v)

    vac = np.zeros(dim, dtype=complex)
    vac[0] = 1.0
    v = vac
    for amp in (-f - g, g, f):
        v = weyl(amp, v)
    return np.vdot(vac, v)


def test_criterion_10_fock_layer():
    started = time.perf_counter()
    order = 12
    rng = np.random.default_rng(1010)

    worst_phase = 0.0
    for n in (2, 4):
        f = rng.normal(size=n) + 1j * rng.normal(size=n)
        g = rng.normal(size=n) + 1j * rng.normal(size=n)
        f *= 0.6 / np.linalg.norm(f)
        g *= 0.5 / np.linalg.norm(g)
        oracle = _oracle_weyl_phase(f, g, n, order)
        phase, amp = fock.weyl_reduce(fock.WeylWord.of(f, g, -f - g))
        worst_phase = max(worst_phase, abs(phase - oracle),
                          float(np.linalg.norm(amp)))

    net = bgl.NetModel.massive(n=4, h=2.5)
    sub = net.wedge_subspace(spacetime.Region.wedge_right((0.0, 0.0)))
    worst_tomita = 0.0
    tomita_ok = True
    for col in range(sub.dim):
        f = sub.complex_basis()[:, col] * 0.8
        residual = fock.second_quantized_tomita_check(sub, f, order)
        bound = (net.epsilon + fock.tail_bound(np.linalg.norm(f), order)
                 + 1e-8)
        worst_tomita = max(worst_tomita, residual)
        tomita_ok = tomita_ok and residual < bound

    amps = [np.zeros(4)] + [rng.normal(size=4) + 1j * rng.normal(size=4)
                            for _ in range(5)]
    amps = [a if np.linalg.norm(a) == 0 else a * 0.7 / np.linalg.norm(a)
            for a in amps]
    gram = np.array([[fock.vacuum_expectation(fock.WeylWord.of(-fi, fj))
                      for fj in amps] for fi in amps])
    eigmin = float(np.linalg.eigvalsh((gram + gram.conj().T) / 2).min())
    gram_ok = eigmin > -fock.tail_bound(0.7, order)

    dt, in_time = _elapsed_ok(started, 60.0)
    ok = worst_phase < FORMULA_BUDGET and tomita_ok and gram_ok and in_time
    _verdict(10, ok,
             f"oracle phase residual {worst_phase:.3e} < 1e-8, lifted "
             f"involution residual {worst_tomita:.3e} within tail, Gram "
             f"eigmin {eigmin:.3e} >= -tail, {dt:.1f}s < 60s")


# ---------------------------------------------------------------------------
# 11: spin-statistics spectral criterion
# ---------------------------------------------------------------------------


def test_criterion_11_spin_statistics():
    rng = np.random.default_rng(1111)
    base = rng.uniform(0.0, 3.0, size=25)
    steps = rng.integers(-3, 4, size=25)
    good = [(mu, mu + k) for mu, k in zip(base, steps)]
    bad = [(mu, mu + k + 0.5) for mu, k in zip(base, steps)]
    started = time.perf_counter()
    worst_good = bgl.spin_statistics_spectrum_check(good)
    worst_bad = bgl.spin_statistics_spectrum_check(bad)
    dt = time.perf_counter() - started
    ok = (worst_good < SPIN_BUDGET and abs(worst_bad - 0.5) < SPIN_BUDGET
          and dt < 1e-3)
    _verdict(11, ok,
             f"25 integer pairs pass ({worst_good:.2e}), 25 offset pairs "
             f"fail at defect {worst_bad:.3f}, {dt * 1000:.3f}ms < 1ms")
