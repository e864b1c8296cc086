"""Acceptance gate: one test per shipped guarantee, at desk scale.

Each test prints a single pass line on success (run with -s or -v to see
them); tolerances and sizes are part of the package contract and must not
be loosened here.
"""

import time

import numpy as np
import pytest

from lamlab import (
    Box,
    Configuration,
    action,
    build_model,
    builtin_harmonic_stencil,
    builtin_n_well,
    check_birkhoff,
    check_comparison_principle,
    check_minmax_inequality,
    continue_lamination,
    defect,
    defect_subadditivity_check,
    extract_cantorus,
    generic_parameter,
    maximum_breaks_order,
    measure_from_hull,
    psi_epsilon,
    quasi_newton_continue,
    sample_config,
    step_hull_from_simplex,
    translate,
    truncation_consistency,
    vague_distance,
)
from lamlab.hull import GOLDEN_MEAN

SQRT_OMEGA = np.asarray([np.sqrt(2.0) - 1.0, np.sqrt(3.0) - 1.0])


def hull_start(model, omega, p, box, s0=0.37):
    phi = step_hull_from_simplex(p, model.potential.minima)
    s = generic_parameter(phi, omega, box, s0)
    return sample_config(phi, omega, s, box)


def test_criterion_01_continuation_contract(model1, golden):
    cst = model1.constants
    eps = cst.eps1 / 2.0
    window = Box.centered(64, 1)
    x0 = hull_start(model1, golden, [0.3, 0.7], window.padded(1))
    t0 = time.perf_counter()
    res = quasi_newton_continue(model1, eps, x0, window)
    elapsed = time.perf_counter() - t0
    assert res.final_residual < 1e-12
    assert res.iterations <= 60
    assert res.contraction_rate <= cst.contraction_k / 2.0 + eps * cst.C2 / cst.c + 0.05
    assert res.displacement < cst.delta0
    assert elapsed < 1.0
    print("criterion 1 (continuation contract): PASS")


def test_criterion_02_anti_continuum_limit(model1, golden):
    cst = model1.constants
    window = Box.centered(32, 1)
    x0 = hull_start(model1, golden, [0.3, 0.7], window.padded(1))
    disps = []
    for j in range(1, 5):
        eps = cst.eps1 / 2.0 ** j
        res = quasi_newton_continue(model1, eps, x0, window)
        assert res.displacement <= eps * cst.C1 / ((1.0 - cst.contraction_k) * cst.c)
        disps.append(res.displacement)
    for a, b in zip(disps[:-1], disps[1:]):
        assert b <= a + 1e-10
    print("criterion 2 (anti-continuum limit): PASS")


def test_criterion_03_truncation_control(model1, golden):
    cst = model1.constants
    eps = cst.eps1 / 2.0
    M1 = 10
    t0 = time.perf_counter()
    outs = []
    for m in (4, 8, 12, 16, 20):
        M2 = M1 + m
        x0 = hull_start(model1, golden, [0.3, 0.7], Box.centered(M2 + 3, 1), 0.5)
        out = truncation_consistency(model1, eps, x0, 1e-12, M1, M2)
        assert out["m"] == m
        assert out["holds"] and out["measured"] <= out["bound"]
        outs.append(out)
    elapsed = time.perf_counter() - t0
    assert outs[-1]["measured"] <= 2.0 * cst.delta0 * 2.0 ** -20
    # certified decay: fit the bound's log2 against the separation
    ms = np.asarray([o["m"] for o in outs], dtype=float)
    lb = np.log2([o["bound"] for o in outs])
    slope = np.polyfit(ms, lb, 1)[0]
    assert abs(slope - (-1.0)) <= 0.15
    assert elapsed < 5.0
    print("criterion 3 (truncation control): PASS")


def test_criterion_04_order_persists_at_minima(model1, golden):
    eps = model1.constants.eps1 / 2.0
    window = Box.centered(32, 1)
    t0 = time.perf_counter()
    for p in ([1.0, 0.0], [0.0, 1.0], [0.5, 0.5], [0.3, 0.7]):
        lam = continue_lamination(model1, eps, p, golden, window, 32, k_max=16)
        order = np.argsort(lam.s_values)
        for ia, a in enumerate(order):
            for b in order[ia + 1:]:
                diff = (lam.members[b].solution.values
                        - lam.members[a].solution.values)
                assert float(np.min(diff)) >= 0.0
                assert float(np.max(diff)) > 0.0  # no two members tie
        scan = window.interior(3)
        for member in lam.members:
            verdict = check_birkhoff(member.solution.restrict(scan), 16)
            assert verdict.ordered
    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0
    print("criterion 4 (order persistence at minima): PASS")


def test_criterion_05_order_breaks_at_maxima(model1, golden):
    eps = model1.constants.eps1 / 2.0
    window = Box.centered(64, 1)
    witness = maximum_breaks_order(model1, eps, golden, window,
                                   critical_kind="maximum")
    assert witness is not None
    assert witness["min"] < 0 < witness["max"]
    control = maximum_breaks_order(model1, eps, golden, window,
                                   critical_kind="minimum")
    assert control is None
    print("criterion 5 (order breakdown at maxima): PASS")


def test_criterion_06_measure_recovery_and_injectivity(model1, model2, golden):
    t0 = time.perf_counter()
    # recovery at the default 1-d ball radius
    p = [0.3, 0.7]
    mu = psi_epsilon(model1, model1.constants.eps1 / 2.0, p, golden,
                     Box.centered(377, 1), 377)
    assert np.max(np.abs(mu.masses - p)) <= 4.0 * 2.0 / 377.0

    # injectivity over the 5x5 grid on a three-well simplex
    model3 = build_model(builtin_n_well(3), builtin_harmonic_stencil(1),
                         omega=[GOLDEN_MEAN])
    eps3 = model3.constants.eps1 / 2.0
    grid = []
    for a in range(5):
        for b in range(5):
            w = [a * 0.25, b * 0.25]
            tail = 1.0 - sum(w)
            if tail >= -1e-12:
                grid.append(w + [max(tail, 0.0)])
    assert len(grid) == 15
    measures = [psi_epsilon(model3, eps3, q, golden, Box.centered(377, 1), 377)
                for q in grid]
    for a in range(len(grid)):
        for b in range(a + 1, len(grid)):
            l1 = float(np.sum(np.abs(np.asarray(grid[a]) - np.asarray(grid[b]))))
            assert vague_distance(measures[a], measures[b]) >= l1 - 0.05

    # two-dimensional spot check
    mu2 = psi_epsilon(model2, model2.constants.eps1 / 2.0, p, SQRT_OMEGA,
                      Box.centered(60, 2), 60)
    assert np.max(np.abs(mu2.masses - p)) <= 0.05
    elapsed = time.perf_counter() - t0
    assert elapsed < 120.0
    print("criterion 6 (measure recovery and injectivity): PASS")


def test_criterion_07_minmax_inequality(model1, model2):
    for model, radius in ((model1, 6), (model2, 3)):
        eps = model.constants.eps1 / 2.0
        B = Box.centered(radius, model.stencil.d)
        Bp = B.padded(model.stencil.range)
        rng = np.random.default_rng(0)
        for trial in range(100):
            xv = rng.uniform(-1.5, 1.5, Bp.shape)
            if trial % 5 == 0:
                yv = xv + rng.uniform(0.0, 1.0, Bp.shape)
            else:
                yv = rng.uniform(-1.5, 1.5, Bp.shape)
            x, y = Configuration(Bp, xv), Configuration(Bp, yv)
            out = check_minmax_inequality(model, eps, B, x, y)
            assert out["holds"]
            assert out["gap"] >= -1e-10
            ordered = (float(np.min(yv - xv)) >= 0.0
                       or float(np.max(yv - xv)) <= 0.0)
            assert (out["gap"] == 0.0) == ordered
    print("criterion 7 (min-max inequality): PASS")


def test_criterion_08_comparison_principle(model1, golden):
    eps = model1.constants.eps1 / 2.0
    window = Box.centered(16, 1)
    lam = continue_lamination(model1, eps, [0.3, 0.7], golden, window, 20)
    verdicts = []
    for member in lam.members:
        x = member.solution
        out = check_comparison_principle(model1, eps, window, x,
                                         translate(x, [0], 1))
        verdicts.append(out["verdict"])
        assert out["margin"] >= 1.0 - 2.0 * model1.constants.delta0
    assert verdicts == ["strictly-less"] * 20  # zero mixed patterns
    print("criterion 8 (comparison principle): PASS")


def test_criterion_09_defect_calculus(model1, golden):
    cst = model1.constants
    eps = cst.eps1 / 2.0
    window = Box.centered(8, 1)
    x0 = hull_start(model1, golden, [0.3, 0.7], window.padded(1))
    res = quasi_newton_continue(model1, eps, x0, window)

    # stationary configurations have zero defect
    still = defect(model1, eps, res.labels, res.solution, Box.centered(4, 1))
    assert abs(still.value) <= 1e-10

    # single-site perturbation against a brute-force line search
    B1 = Box.centered(1, 1)
    dom = res.solution.domain
    i0 = dom.index(np.zeros(1, dtype=int))
    vals = res.solution.values.copy()
    vals[i0] += 4e-3
    z = Configuration(dom, vals)
    got = defect(model1, eps, res.labels, z, B1)
    assert got.value < 0
    anchor = float(res.labels.values[i0])
    grid = anchor + np.linspace(-0.9, 0.9, 6001) * cst.delta0
    best = np.inf
    for v in grid:
        w = vals.copy()
        w[i0] = v
        best = min(best, action(model1, eps, B1, Configuration(dom, w)))
    oracle = best - action(model1, eps, B1, z)
    assert abs(got.value - oracle) <= 0.2 * abs(oracle)

    # subadditivity over random perturbations and random partitions
    B = Box.centered(5, 1)
    rng = np.random.default_rng(1)
    for _ in range(100):
        noise = np.clip(rng.normal(0.0, 2e-3, dom.shape), -6e-3, 6e-3)
        zt = Configuration(dom, res.solution.values + noise)
        if rng.integers(0, 2) == 0:
            cut = int(rng.integers(-3, 3))
            parts = [Box((-5,), (cut,)), Box((cut + 1,), (5,))]
        else:
            c1 = int(rng.integers(-3, 0))
            c2 = c1 + 3
            parts = [Box((-5,), (c1,)), Box((c1 + 1,), (c2,)),
                     Box((c2 + 1,), (5,))]
        out = defect_subadditivity_check(model1, eps, res.labels, zt, B, parts)
        assert out["holds"]
    print("criterion 9 (defect calculus): PASS")


def test_criterion_10_cantorus(model1_single, golden):
    eps = model1_single.constants.eps1 / 2.0
    phi = step_hull_from_simplex([1.0], model1_single.potential.minima)
    t0 = time.perf_counter()
    out = extract_cantorus(model1_single, eps, phi, golden,
                           Box.centered(16, 1), 64, tol=1e-8)
    elapsed = time.perf_counter() - t0
    assert out.points.shape == (64, 2)
    assert out.invariance_error <= 1e-8
    assert abs(out.mean_momentum - float(golden[0])) <= 2.0 / 128.0
    assert elapsed < 10.0
    print("criterion 10 (cantorus extraction): PASS")


def test_criterion_11_round_trip_and_hull_axioms(golden):
    rng = np.random.default_rng(7)

    # mass round trip is exact, including dropped empty wells
    for _ in range(200):
        nw = int(rng.integers(2, 6))
        wells = (np.arange(nw) + rng.uniform(0.05, 0.3)) / nw
        p = rng.dirichlet(np.ones(nw))
        if rng.integers(0, 3) == 0:
            p[rng.integers(0, nw)] = 0.0
            p = p / p.sum()
        mu = measure_from_hull(step_hull_from_simplex(p, wells))
        for well, mass in zip(wells, p):
            assert mu.mass_at(well) == mass

    # hull axioms on randomized hulls and query points
    omega = float(golden[0])
    box = Box.centered(6, 1)
    sites = box.sites()[:, 0]

    def generic(phi, s):
        bp = np.mod(phi.breakpoints, 1.0)
        while True:
            d = np.abs(np.mod(s, 1.0) - bp)
            if np.min(np.minimum(d, 1.0 - d)) > 1e-6:
                return s
            s += 1e-5

    checked = 0
    while checked < 1000:
        nw = int(rng.integers(2, 5))
        wells = (np.arange(nw) + rng.uniform(0.05, 0.3)) / nw
        phi = step_hull_from_simplex(rng.dirichlet(np.ones(nw)), wells)
        s = generic(phi, rng.uniform(-2.0, 3.0))
        t = generic(phi, s + rng.uniform(0.0, 2.0))

        # lower below upper, within one period of each other, nondecreasing
        lo, up = phi.value(s), phi.value_upper(s)
        assert lo <= up <= lo + 1.0
        assert phi.value(t) >= lo

        # the sampled configuration sits between the two hulls sitewise
        x = sample_config(phi, [omega], s, box)
        args = s + omega * sites
        assert np.all(phi.value(args) <= x.values)
        assert np.all(x.values <= phi.value_upper(args))
        order = np.argsort(args)
        assert np.all(np.diff(x.values[order]) >= 0.0)

        # shifting the parameter by one lifts the value by one, exactly;
        # probe inside the base period where no integer offset has been
        # folded into the stored plateau value yet
        tM = float(phi.breakpoints[-1])
        sb = tM - 1.0 + rng.uniform(1e-3, 1.0 - 1e-3)
        sb = generic(phi, sb)
        if sb < tM - 1e-6:
            assert phi.value(sb + 1.0) == phi.value(sb) + 1.0

        # translates of a sampled configuration are samples at a
        # parameter shifted by omega . k + l
        k = int(rng.integers(-5, 6))
        l = int(rng.integers(-3, 4))
        shifted = (s + omega * k + l) + omega * (sites - k)
        bp = np.mod(phi.breakpoints, 1.0)
        both = np.mod(np.concatenate([args, shifted]), 1.0)
        d = np.abs(both[:, None] - bp[None, :])
        if float(np.min(np.minimum(d, 1.0 - d))) <= 1e-6:
            continue  # resample instead of nudging both parameter sets
        tau = translate(x, [k], l)
        fresh = sample_config(phi, [omega], s + omega * k + l, box.shift(-k))
        assert tau.domain == fresh.domain
        # equal up to the final rounding of the integer shifts
        assert float(np.max(np.abs(tau.values - fresh.values))) <= 1e-14
        checked += 1
    print("criterion 11 (round trip and hull axioms): PASS")
