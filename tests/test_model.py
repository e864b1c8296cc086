import numpy as np
import pytest

import lamlab
from lamlab import (Box, Configuration, InteractionStencil, ModelInvalid,
                    Potential, builtin_harmonic_stencil, builtin_n_well,
                    estimate_constants, find_criticals, osc_bound,
                    potential_from_table)

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
        Potential(pot.value, pot.d1, pot.d2, criticals=[0.1, 0.6],
                  kinds=["minimum", "maximum"])
    with pytest.raises(ModelInvalid):
        Potential(pot.value, pot.d1, pot.d2, criticals=[0.0, 0.5],
                  kinds=["maximum", "minimum"])


def test_potential_rejects_nonperiodic_value():
    with pytest.raises(ModelInvalid):
        Potential(lambda s: np.asarray(s) ** 2,
                  lambda s: 2.0 * np.asarray(s),
                  lambda s: 2.0 * np.ones_like(np.asarray(s, dtype=float)))


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
                                  fast.hessian, validate=False)
        B = Box.centered(3, d)
        Bp = B.padded(1)
        vals = rng.uniform(-2.0, 2.0, Bp.shape)
        interior = B.interior(1)
        assert np.allclose(fast.force(vals, Bp, interior),
                           slow.force(vals, Bp, interior), atol=1e-12)
        assert fast.energy_sum(vals, Bp, B) == pytest.approx(
            slow.energy_sum(vals, Bp, B), rel=1e-12)


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


def test_estimate_constants_seeded_and_deterministic(model1):
    again = estimate_constants(model1.potential, model1.stencil,
                               model1.constants.osc_bound_K)
    assert repr(again) == repr(model1.constants)


def test_constants_replace_and_dict(model1):
    cst = model1.constants
    tweaked = cst.replace(delta0=1e-3)
    assert tweaked.delta0 == 1e-3 and tweaked.C2 == cst.C2
    d = cst.as_dict()
    assert set(d) == {"c", "C1", "C2", "delta0", "eps0", "eps1",
                      "contraction_k", "osc_bound_K"}


def test_build_model_defaults_K_from_omega():
    pot = builtin_n_well(2)
    sten = builtin_harmonic_stencil(1)
    m = lamlab.build_model(pot, sten, omega=[0.25])
    assert m.constants.osc_bound_K == pytest.approx(0.25 + 2.0)
