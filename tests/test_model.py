import sys
import threading
from dataclasses import replace

import numpy as np
import pytest

import lamlab
from lamlab import (Box, Configuration, InteractionStencil, ModelConstants,
                    ModelInvalid, Potential, build_model,
                    builtin_harmonic_stencil, builtin_n_well,
                    estimate_constants, find_criticals, osc_bound,
                    potential_from_table)
from lamlab import model
from lamlab.lattice import ball_offsets
from lamlab.model import SAMPLE_SEED, SAMPLE_WINDOWS

TWO_PI = 2.0 * np.pi


def test_n_well_criticals_match_closed_form():
    for N in (1, 2, 3):
        pot = builtin_n_well(N)
        want = np.arange(2 * N) / (2.0 * N)
        assert np.allclose(pot.criticals, want, atol=1e-12)
        kinds = ["minimum" if j % 2 == 0 else "maximum" for j in range(2 * N)]
        assert list(pot.kinds) == kinds
        assert np.allclose(pot.minima, np.arange(N) / N, atol=1e-12)
        assert np.allclose(pot.maxima, np.arange(N) / N + 1.0 / (2 * N), atol=1e-12)


def test_n_well_derivatives_are_consistent():
    pot = builtin_n_well(2)
    s = np.linspace(0.0, 1.0, 97)
    h = 1e-6
    fd1 = (pot.value(s + h) - pot.value(s - h)) / (2 * h)
    fd2 = (pot.d1(s + h) - pot.d1(s - h)) / (2 * h)
    assert np.max(np.abs(fd1 - pot.d1(s))) < 1e-9
    assert np.max(np.abs(fd2 - pot.d2(s))) < 1e-9
    # normalization: curvature at the wells is exactly one
    assert pot.d2(pot.minima) == pytest.approx([1.0, 1.0], abs=1e-12)


def test_find_criticals_against_analytic_zeros():
    # d1 with zeros at irrational-looking spots: sin(2 pi (s - 0.3))
    d1 = lambda s: np.sin(TWO_PI * (np.asarray(s) - 0.3))
    got = find_criticals(d1)
    assert len(got) == 2
    assert sorted(got) == pytest.approx([0.3, 0.8], abs=1e-12)


def test_potential_rejects_bad_critical_data():
    pot = builtin_n_well(1)
    with pytest.raises(ModelInvalid):
        Potential(pot.value, pot.d1, pot.d2, criticals=[0.1, 0.6])
    # a lone critical point cannot alternate
    with pytest.raises(ModelInvalid):
        Potential(pot.value, pot.d1, pot.d2, criticals=[0.0])


@pytest.mark.parametrize("make", [
    *(lambda N=N: builtin_n_well(N) for N in (1, 2, 3, 4)),
    # two unequal wells per period
    lambda: potential_from_table(
        -np.cos(TWO_PI * np.arange(64) / 64.0)
        - 0.8 * np.cos(2 * TWO_PI * np.arange(64) / 64.0 + 0.7)),
])
def test_potential_tags_are_the_signs_of_curvature(make):
    pot = make()
    assert pot.criticals.size >= 2
    curv, kinds = pot.d2(pot.criticals), pot.kinds
    assert kinds == tuple("minimum" if cv > 0 else "maximum" for cv in curv)
    assert all(a != b for a, b in zip(kinds, kinds[1:] + kinds[:1]))


def test_slope_residual_names_the_critical_point_as_a_plain_float():
    pot = builtin_n_well(1)
    with pytest.raises(ModelInvalid) as caught:
        Potential(pot.value, pot.d1, pot.d2, criticals=[0.25, 0.5])
    assert str(caught.value).startswith("critical point 0.25 has slope residual ")


@pytest.mark.parametrize("samples", [
    [1e308, -1e308] * 4,
    # finite coefficients whose second derivative overflows
    1e306 * np.cos(3 * TWO_PI * np.arange(8) / 8.0),
])
def test_potential_from_table_refuses_overflow_without_a_warning(samples):
    # warnings are errors in this suite, so a warning would fail first
    with pytest.raises(ValueError) as caught:
        potential_from_table(samples)
    assert str(caught.value) == ("table potential overflows: its Fourier "
                                 "series or its second derivative exceeds "
                                 "the float range")


def test_potential_rejects_nonperiodic_value():
    with pytest.raises(ModelInvalid):
        Potential(lambda s: np.asarray(s) ** 2,
                  lambda s: 2.0 * np.asarray(s),
                  lambda s: 2.0 * np.ones_like(np.asarray(s, dtype=float)))


@pytest.mark.parametrize("a", [1.0, 1e6, 1e8])
def test_large_periodic_tables_build(a):
    # the interpolant rounds relative to its magnitude: |V''| is about
    # 158 a here, its periodicity defect about 5e-7 at a = 1e6, and the
    # slope at the bisected critical points as large
    pot = potential_from_table(-a * np.cos(2 * TWO_PI * np.arange(64) / 64))
    # the minima at 0 and 1/2, a quarter period away from the wrap
    assert np.allclose(np.sort(np.mod(pot.minima + 0.25, 1.0)), [0.25, 0.75],
                       atol=1e-9)


def test_criticals_just_below_zero_are_stored_as_zero():
    # np.mod(-1e-17, 1.0) rounds to 1.0; stored as is, the well at 0 would
    # sort last and the weights of p would go to the wells out of order
    w = 2 * TWO_PI
    pot = Potential(lambda s: -np.cos(w * s) / w**2,
                    lambda s: np.sin(w * s) / w, lambda s: np.cos(w * s),
                    criticals=[-1e-17, 0.25, 0.5, 0.75])
    assert pot.criticals.tolist() == [0.0, 0.25, 0.5, 0.75]
    assert pot.minima.tolist() == [0.0, 0.5]


def test_criticals_within_a_bracket_below_one_are_stored_as_zero():
    # bisection may end the well at 0 a few ulps below 1; within BRACKET
    # it is the well at 0, beyond it a critical point of its own
    w = 2 * TWO_PI
    funcs = (lambda s: -np.cos(w * s) / w**2, lambda s: np.sin(w * s) / w,
             lambda s: np.cos(w * s))
    near = 1.0 - 0.9 * model.BRACKET
    pot = Potential(*funcs, criticals=[0.25, 0.5, 0.75, near])
    assert pot.criticals.tolist() == [0.0, 0.25, 0.5, 0.75]
    far = 1.0 - 2.0 * model.BRACKET
    pot = Potential(*funcs, criticals=[0.25, 0.5, 0.75, far])
    assert pot.criticals.tolist() == [0.25, 0.5, 0.75, far]


@pytest.mark.parametrize("samples", [16, 64, 256])
def test_a_table_orders_its_wells_as_the_matching_n_well(samples):
    # 64 and 256 samples used to bisect the well at 0 to 0.9999999999999964
    # and list it last, so p gave its first weight to the well at 1/3
    built = builtin_n_well(3)
    table = potential_from_table(built.value(np.arange(samples) / samples))
    assert np.allclose(table.minima, built.minima, rtol=0.0, atol=1e-12)
    assert np.allclose(table.criticals, built.criticals, rtol=0.0,
                       atol=1e-12)


def test_scaled_tables_list_the_well_at_zero_first():
    # -a cos(4 pi s) / (8 pi^2) at 33 amplitudes from 1 to 1e8
    s = np.arange(64) / 64
    for a in np.logspace(0.0, 8.0, 33):
        table = potential_from_table(-a * np.cos(2 * TWO_PI * s)
                                     / (2 * TWO_PI**2))
        assert np.allclose(table.minima, [0.0, 0.5], rtol=0.0,
                           atol=1e-12), a


@pytest.mark.parametrize("a", [1.0, 1e6, 1e8])
def test_large_nonperiodic_backgrounds_are_refused(a):
    w = 2 * TWO_PI
    V = [lambda s: -a * np.cos(w * s), lambda s: w * a * np.sin(w * s),
         lambda s: w * w * a * np.cos(w * s)]
    for k, name in enumerate(["V", "V'"]):
        # a drift of 1e-7 of the magnitude per period
        funcs = list(V)
        funcs[k] = lambda s, f=V[k]: f(s) + 1e-7 * a * s
        with pytest.raises(ModelInvalid, match=f"^{name} is not one-periodic "
                                               "on sampled points$"):
            Potential(*funcs)


def test_potential_from_table_reproduces_trig_background():
    pot = builtin_n_well(2)
    grid = np.arange(64) / 64.0
    table = potential_from_table(pot.value(grid))
    s = np.linspace(0.013, 0.987, 61)
    assert np.max(np.abs(table.value(s) - pot.value(s))) < 1e-12
    assert np.max(np.abs(table.d1(s) - pot.d1(s))) < 1e-10
    assert np.max(np.abs(table.d2(s) - pot.d2(s))) < 1e-8
    assert np.allclose(table.criticals, pot.criticals, atol=1e-9)
    assert list(table.kinds) == list(pot.kinds)


def test_stencil_validation_catches_sign_flip_and_lies():
    base = builtin_harmonic_stencil(1)
    with pytest.raises(ModelInvalid):
        InteractionStencil(1, 1,
                           lambda w: -base.energy(w),
                           lambda w: -base.gradient(w),
                           lambda w: -base.hessian(w))
    # gradient inconsistent with the energy
    with pytest.raises(ModelInvalid):
        InteractionStencil(1, 1, base.energy,
                           lambda w: 2.0 * base.gradient(w), base.hessian)


def test_stencils_cannot_skip_their_checks():
    with pytest.raises(ValueError):
        builtin_harmonic_stencil(0)
    base = builtin_harmonic_stencil(1)
    with pytest.raises(TypeError):
        InteractionStencil(1, 1, base.energy, base.gradient, base.hessian,
                           validate=False)


def test_harmonic_force_matches_energy_finite_differences():
    rng = np.random.default_rng(5)
    for d in (1, 2):
        sten = builtin_harmonic_stencil(d)
        B = Box.centered(3, d)
        Bp = B.padded(1)
        vals = rng.uniform(-2.0, 2.0, Bp.shape)
        interior = B.interior(1)
        force = sten.force(vals, Bp, interior)
        h = 1e-6
        sl = interior.slice_in(Bp)
        fd = np.zeros(interior.shape)
        for idx in np.ndindex(*interior.shape):
            full = tuple(i + (s.start or 0) for i, s in zip(idx, sl))
            up = vals.copy(); up[full] += h
            dn = vals.copy(); dn[full] -= h
            fd[idx] = (sten.energy_sum(up, Bp, B) - sten.energy_sum(dn, Bp, B)) / (2 * h)
        assert np.max(np.abs(force - fd)) < 1e-7


def test_harmonic_fast_paths_match_generic_scatter():
    rng = np.random.default_rng(6)
    for d in (1, 2):
        fast = builtin_harmonic_stencil(d)
        slow = InteractionStencil(d, 1, fast.energy, fast.gradient,
                                  fast.hessian)
        B = Box.centered(3, d)
        Bp = B.padded(1)
        vals = rng.uniform(-2.0, 2.0, Bp.shape)
        interior = B.interior(1)
        assert np.allclose(fast.force(vals, Bp, interior),
                           slow.force(vals, Bp, interior), atol=1e-12)
        assert fast.energy_sum(vals, Bp, B) == pytest.approx(
            slow.energy_sum(vals, Bp, B), rel=1e-12)


def range2_stencil(d, b=0.3, gather=np.take):
    # nearest plus next-nearest harmonic: bonds at L1 distance 1 have
    # weight 1, bonds at distance 2 weight b
    offsets = ball_offsets(d, 2)
    norms = np.abs(offsets).sum(axis=1)
    center = int(np.flatnonzero(norms == 0)[0])
    nb = np.flatnonzero(norms > 0)
    wt = np.where(norms[nb] == 1, 1.0, b)
    m = len(offsets)
    hess = np.zeros((m, m))
    hess[nb, nb] = 0.5 * wt
    hess[nb, center] = hess[center, nb] = -0.5 * wt
    hess[center, center] = 0.5 * np.sum(wt)

    def differences(w):
        # contiguous rows: np.sum then adds a window's 4d(d+1) terms in
        # one order whatever the stack's shape
        return gather(w, nb, axis=-1) - w[..., [center]]

    def energy(w):
        return 0.25 * np.sum(wt * differences(w) ** 2, axis=-1)

    def gradient(w):
        q = 0.5 * wt * differences(w)
        g = np.zeros_like(w)
        g[..., nb] = q
        g[..., center] = -np.sum(q, axis=-1)
        return g

    def hessian(w):
        return np.broadcast_to(hess, np.shape(w)[:-1] + hess.shape)

    return InteractionStencil(d, 2, energy, gradient, hessian)


def test_fancy_indexing_stack_callback_is_refused():
    # w[..., nb] lays a stack out with the offsets outermost, so np.sum
    # adds the twelve terms of a 2-d window in another order than on one
    # window, and the generic sums would lose their bits
    def fancy(w, idx, axis):
        return w[..., idx]

    with pytest.raises(ModelInvalid, match="stack of windows"):
        range2_stencil(2, gather=fancy)


def site_loop_force(sten, values, domain, out):
    # reference: one gradient call per window centre, scattered in the
    # centres' lexicographic order
    R = np.zeros(out.shape)
    lo, hi = np.asarray(out.lo), np.asarray(out.hi)
    for j in out.padded(sten.range).sites():
        tgt = j + sten.offsets
        g = sten.gradient(values[tuple((tgt - domain.lo).T)])
        keep = np.all(tgt >= lo, axis=1) & np.all(tgt <= hi, axis=1)
        np.add.at(R, tuple((tgt[keep] - lo).T), g[keep])
    return R


def site_loop_energy_sum(sten, values, domain, box):
    total = 0.0
    for j in box.sites():
        total += sten.energy(values[tuple((j + sten.offsets - domain.lo).T)])
    return total


@pytest.mark.parametrize("d", [1, 2])
def test_range2_generic_sums_equal_the_site_loop(d):
    rng = np.random.default_rng(70 + d)
    sten = range2_stencil(d)
    R = 6 if d == 1 else 3
    domain = Box.centered(R + 4, d)
    # boxes whose reading collar reaches the domain's edge: a centred one
    # and one off centre
    cases = [Box.centered(R, d), Box([-R] + [-1] * (d - 1), [1] * d)]
    vals = rng.uniform(-3.0, 3.0, domain.shape)
    for out in cases:
        got = sten.force(vals, domain, out)
        assert got.shape == out.shape
        assert np.array_equal(got, site_loop_force(sten, vals, domain, out))
        box = out.padded(2)
        assert sten.energy_sum(vals, domain, box) == \
            site_loop_energy_sum(sten, vals, domain, box)


@pytest.mark.parametrize("d", [1, 2])
def test_range2_force_matches_energy_finite_differences(d):
    rng = np.random.default_rng(80 + d)
    sten = range2_stencil(d)
    out = Box.centered(2, d)
    box = out.padded(2)
    domain = box.padded(2)
    vals = rng.uniform(-2.0, 2.0, domain.shape)
    force = sten.force(vals, domain, out)
    h = 1e-6
    for site in out.sites():
        up, dn = vals.copy(), vals.copy()
        up[domain.index(site)] += h
        dn[domain.index(site)] -= h
        fd = (sten.energy_sum(up, domain, box)
              - sten.energy_sum(dn, domain, box)) / (2 * h)
        assert force[out.index(site)] == pytest.approx(fd, abs=1e-7)


@pytest.mark.parametrize("d,C1,C2", [
    (1, 21.76494370854268, 5.199999999999999),
    (2, 240.73375947894405, 12.800000000000004),
])
def test_range2_constants_are_pinned(d, C1, C2):
    cst = build_model(builtin_n_well(2), range2_stencil(d),
                      omega=[lamlab.GOLDEN_MEAN] * d).constants
    assert (cst.C1, cst.C2) == (C1, C2)


def single_window_harmonic(d):
    # the harmonic callbacks written for one window at a time
    base = builtin_harmonic_stencil(d)
    units, center = base.unit_indices, base.center

    def energy(w):
        return 0.25 * np.sum((w[units] - w[center]) ** 2)

    def gradient(w):
        g = np.zeros_like(w)
        diffs = w[units] - w[center]
        g[units] = 0.5 * diffs
        g[center] = -0.5 * np.sum(diffs, axis=0)
        return g

    return base, energy, gradient, base.hessian(np.zeros(len(base.offsets)))


@pytest.mark.parametrize("d", [1, 2])
def test_single_window_callbacks_are_refused(d):
    base, energy, gradient, hess = single_window_harmonic(d)
    with pytest.raises(ModelInvalid, match="stack of windows|wrong-shaped"):
        InteractionStencil(d, 1, energy, base.gradient, base.hessian)
    # in 1-d the stack's result has the right shape, but its rows were
    # indexed as if they were offsets
    with pytest.raises(ModelInvalid, match="stack of windows"):
        InteractionStencil(d, 1, base.energy, gradient, base.hessian)
    with pytest.raises(ModelInvalid, match="wrong-shaped"):
        InteractionStencil(d, 1, base.energy, base.gradient, lambda w: hess)


@pytest.mark.parametrize("d", [1, 2])
def test_generic_sums_refuse_a_collar_outside_the_domain(d):
    fast = builtin_harmonic_stencil(d)
    for sten in (range2_stencil(d),
                 InteractionStencil(d, 1, fast.energy, fast.gradient,
                                    fast.hessian)):
        domain = Box.centered(5, d)
        vals = np.zeros(domain.shape)
        r = sten.range
        with pytest.raises(ValueError):
            sten.force(vals, domain, Box.centered(5 - 2 * r + 1, d))
        with pytest.raises(ValueError):
            sten.energy_sum(vals, domain, domain)
        # the widest boxes that fit still evaluate
        assert sten.force(vals, domain, Box.centered(5 - 2 * r, d)).shape \
            == Box.centered(5 - 2 * r, d).shape
        assert sten.energy_sum(vals, domain, domain.interior(r)) == 0.0


def shifted_box_force(d, values, domain, out):
    # reference: one shifted Box per neighbour, sliced into the domain
    R = 2.0 * d * values[out.slice_in(domain)]
    for a in range(d):
        e = np.zeros(d, dtype=int)
        e[a] = 1
        R -= values[out.shift(e).slice_in(domain)]
        R -= values[out.shift(-e).slice_in(domain)]
    return R


def shifted_box_energy_sum(d, values, domain, box):
    base = values[box.slice_in(domain)]
    total = 0.0
    for a in range(d):
        e = np.zeros(d, dtype=int)
        e[a] = 1
        total += np.sum((values[box.shift(e).slice_in(domain)] - base) ** 2)
        total += np.sum((values[box.shift(-e).slice_in(domain)] - base) ** 2)
    return 0.25 * float(total)


@pytest.mark.parametrize("d", [1, 2, 3])
def test_harmonic_fast_paths_equal_shifted_box_reference(d):
    rng = np.random.default_rng(40 + d)
    sten = builtin_harmonic_stencil(d)
    R = 5 if d < 3 else 3
    B = Box.centered(R, d)
    Bp = B.padded(1)
    # the interior of a padded box, and an off-centre box inside it whose
    # low neighbours along axis 0 are the domain's edge sites
    lo = [-R] + [-R + 2] * (d - 1)
    hi = [0] + [R - 1] * (d - 1)
    cases = [(Bp, B.interior(1), B), (Bp, Box(lo, hi), Box(lo, hi))]
    for domain, out, box in cases:
        vals = rng.uniform(-3.0, 3.0, domain.shape) + 1e3 * rng.integers(
            -2, 3, domain.shape)
        got = sten.force(vals, domain, out)
        want = shifted_box_force(d, vals, domain, out)
        assert got.shape == out.shape
        assert np.array_equal(got, want)
        assert sten.energy_sum(vals, domain, box) == \
            shifted_box_energy_sum(d, vals, domain, box)


def test_harmonic_fast_paths_refuse_neighbours_outside_domain():
    sten = builtin_harmonic_stencil(2)
    Bp = Box.centered(4, 2)
    vals = np.zeros(Bp.shape)
    for out in (Bp, Box([-4, -3], [3, 3]), Box([-3, -3], [3, 4])):
        with pytest.raises(ValueError, match="leave the domain"):
            sten.force(vals, Bp, out)
        with pytest.raises(ValueError, match="leave the domain"):
            sten.energy_sum(vals, Bp, out)


def test_osc_bound_formula():
    assert osc_bound([lamlab.GOLDEN_MEAN], 1) == pytest.approx(
        lamlab.GOLDEN_MEAN + 2.0)
    assert osc_bound([0.25, 0.5], 3) == pytest.approx(3 * 0.5 + 2.0)


def test_estimate_constants_two_well_harmonic(model1):
    cst = model1.constants
    # curvature at the wells of cos-shaped two-well background is exactly 1
    assert cst.c == pytest.approx(1.0, abs=1e-12)
    # force Jacobian row sum of the 1d Laplacian is exactly 4
    assert cst.C2 == pytest.approx(4.0, abs=1e-12)
    # C1 = (2r+1) * sup |window gradient| over the sampled entry range
    K = cst.osc_bound_K
    assert K == pytest.approx(lamlab.GOLDEN_MEAN + 2.0)
    assert 6.0 < cst.C1 <= 3 * 2 * (K + 1.0)
    # delta0 = min(k c / 2L, half the well gap); L tracks max |V'''| = 4 pi
    L_true = 4.0 * np.pi
    assert cst.delta0 == pytest.approx(0.5 * cst.c / (2 * L_true), rel=2e-3)
    assert cst.eps0 == pytest.approx(
        min(cst.contraction_k * cst.c / (2 * cst.C2),
            (1 - cst.contraction_k) * cst.delta0 * cst.c / cst.C1), abs=0.0)
    assert cst.eps1 == pytest.approx(min(2 * cst.c / cst.C2, cst.eps0), abs=0.0)
    # frozen regression value for the certified coupling range
    assert cst.eps1 == pytest.approx(0.001073511824875158, rel=1e-9)


@pytest.mark.parametrize("d,C1,eps0", [
    (1, 9.26603630926548, 0.001073511824875158),
    (2, 47.26790030421504, 0.0002104430170094108),
    (3, 221.93480913217695, 4.482036678525197e-05),
])
def test_harmonic_constants_are_pinned(d, C1, eps0):
    cst = build_model(builtin_n_well(2), builtin_harmonic_stencil(d),
                      omega=[lamlab.GOLDEN_MEAN] * d).constants
    assert cst == ModelConstants(
        c=1.0, C1=C1, C2=4.0 * d, delta0=0.01989439909543812, eps0=eps0,
        eps1=eps0, contraction_k=0.5, osc_bound_K=2.618033988749895)


@pytest.mark.parametrize("N,d,delta0,eps0", [
    (1, 1, 0.03978875137743345, 0.0021470211236732954),
    (1, 2, 0.03978875137743345, 0.00042088553882607465),
    (3, 1, 0.013262927528794358, 0.0007156742692413274),
    (3, 2, 0.013262927528794358, 0.00014029528965148107),
])
def test_one_and_three_well_constants_are_pinned(N, d, delta0, eps0):
    cst = build_model(builtin_n_well(N), builtin_harmonic_stencil(d),
                      omega=[lamlab.GOLDEN_MEAN] * d).constants
    C1 = {1: 9.26603630926548, 2: 47.26790030421504}[d]
    assert cst == ModelConstants(
        c=1.0, C1=C1, C2=4.0 * d, delta0=delta0, eps0=eps0, eps1=eps0,
        contraction_k=0.5, osc_bound_K=2.618033988749895)


def test_estimate_constants_seeded_and_deterministic(model1):
    again = estimate_constants(model1.potential, model1.stencil,
                               model1.constants.osc_bound_K)
    assert repr(again) == repr(model1.constants)


# the shapes the library draws for the harmonic stencils of d = 1..9 and
# range2_stencil: _validate's stack and estimate_constants' sample, then
# the verification suite's check_stencil_signs sample
DRAWN_STENCILS = [(d, 1) for d in range(1, 10)] + [(1, 2), (2, 2)]
DRAWN_SHAPES = [shape for d, r in DRAWN_STENCILS for shape in
                ((4, 4, len(ball_offsets(d, r))),
                 (SAMPLE_WINDOWS, len(ball_offsets(d, 2 * r))))] + [
    (32, len(ball_offsets(d, 1))) for d in range(1, 10)]
# _validate's bound 2 and estimate_constants' (K + 1)/2 for golden and
# (sqrt 2 - 1, sqrt 3 - 1) rotations at both ranges, and K = 3 and 5.5
DRAWN_LIMS = sorted({2.0, 3.25} | {
    (osc_bound(omega, r) + 1.0) / 2.0 for r in (1, 2) for omega in
    ([lamlab.GOLDEN_MEAN], [np.sqrt(2.0) - 1.0, np.sqrt(3.0) - 1.0])})


def test_fixed_sample_constants_are_numpys_seeded_pcg64():
    bitgen = np.random.PCG64(SAMPLE_SEED)
    assert bitgen.state["state"] == {"state": model._PCG_STATE,
                                     "inc": model._PCG_INC}
    bitgen.advance(1)
    step = (model._PCG_STATE * model._PCG_MULT + model._PCG_INC) % 2**128
    assert bitgen.state["state"]["state"] == step


def test_fixed_sample_is_numpys_uniform_bit_for_bit(monkeypatch):
    # from an empty memo, so the stream grows over several calls
    monkeypatch.setattr(model, "_drawn", (model._PCG_STATE, np.empty(0)))
    for shape in DRAWN_SHAPES:
        for lim in DRAWN_LIMS:
            want = np.random.default_rng(SAMPLE_SEED).uniform(-lim, lim, shape)
            got = model._fixed_uniform(-lim, lim, shape)
            assert got.shape == shape, (shape, lim)
            assert np.array_equal(got.view(np.int64), want.view(np.int64)), \
                (shape, lim)


def test_fixed_sample_is_right_when_threads_grow_it_at_once(monkeypatch):
    # each thread draws every shape in its own order; a memo whose state
    # and doubles went out of step would extend the stream wrongly
    shapes = DRAWN_SHAPES[:12]
    want = {s: np.random.default_rng(SAMPLE_SEED).uniform(-2.0, 2.0, s)
            for s in shapes}
    wrong = []

    def draw(k):
        for s in shapes[k:] + shapes[:k]:
            if not np.array_equal(model._fixed_uniform(-2.0, 2.0, s), want[s]):
                wrong.append(s)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(3):
            monkeypatch.setattr(model, "_drawn",
                                (model._PCG_STATE, np.empty(0)))
            threads = [threading.Thread(target=draw, args=(k,))
                       for k in range(6)]
            for th in threads:
                th.start()
            for th in threads:
                th.join(timeout=60)
            assert not any(th.is_alive() for th in threads)
    finally:
        sys.setswitchinterval(interval)
    assert wrong == []


def test_fixed_sample_first_draws_are_pinned():
    # IEEE bits of the first unit doubles, whatever NumPy's uniform becomes
    u = model._fixed_uniform(0.0, 1.0, (4,))
    assert [hex(b) for b in u.view(np.int64)] == [
        "0x3fc1a7a70128bddc", "0x3fefafce41f5f646",
        "0x3fcc7b42755cf1a0", "0x3fe428dba58ba0b9"]


def test_constants_replace_and_dict(model1):
    cst = model1.constants
    tweaked = replace(cst, delta0=1e-3)
    assert tweaked.delta0 == 1e-3 and tweaked.C2 == cst.C2
    # every field is stored as a float, so manifests write 10.0
    assert repr(replace(cst, eps0=10).as_dict()["eps0"]) == "10.0"
    assert repr(ModelConstants(1, 2, 3, 4, 5, 6, 7, 8).C1) == "2.0"
    d = cst.as_dict()
    assert set(d) == {"c", "C1", "C2", "delta0", "eps0", "eps1",
                      "contraction_k", "osc_bound_K"}


def test_build_model_defaults_K_from_omega():
    pot = builtin_n_well(2)
    sten = builtin_harmonic_stencil(1)
    m = lamlab.build_model(pot, sten, omega=[0.25])
    assert m.constants.osc_bound_K == pytest.approx(0.25 + 2.0)


@pytest.mark.parametrize("K", [np.inf, np.nan, 0.0, -1.0])
def test_an_oscillation_bound_that_is_not_positive_and_finite_is_refused(K):
    # min(x, nan) returns x, so a NaN C1 would drop out of eps0
    with pytest.raises(ValueError, match="oscillation bound K must be "
                                         "positive and finite"):
        build_model(builtin_n_well(2), builtin_harmonic_stencil(1), K=K)


@pytest.mark.parametrize("K", [1e308, 1.7e308])
def test_a_force_bound_past_the_float_range_is_refused(K):
    # at 1e308 only the factor 3 overflows, at 1.7e308 the sampled
    # gradient does; neither warns
    with pytest.raises(ModelInvalid, match=r"^constant C1 is inf "):
        build_model(builtin_n_well(2), builtin_harmonic_stencil(1), K=K)


def test_a_curvature_drift_past_the_float_range_is_refused():
    # V'' = a cos(2 pi s) is finite, its drift over the grid is not
    a = 1e308
    pot = Potential(lambda s: -a * np.cos(TWO_PI * s) / TWO_PI**2,
                    lambda s: a * np.sin(TWO_PI * s) / TWO_PI,
                    lambda s: a * np.cos(TWO_PI * s), criticals=[0.0, 0.5])
    with pytest.raises(ModelInvalid, match=r"^constant L is inf "):
        build_model(pot, builtin_harmonic_stencil(1), omega=[0.25])
