import numpy as np
import pytest

import lamlab
from lamlab import (Box, CheckInconclusive, Configuration, GOLDEN_MEAN,
                    NotBirkhoff, check_birkhoff, check_comparison_principle,
                    check_minmax_inequality, meet_join, quasi_newton_continue,
                    sample_config, step_hull_from_simplex, translate)
from lamlab.birkhoff import TIE_TOL, OrderVerdict


def staircase(window, omega, s=0.37):
    # exact Birkhoff sample of the identity hull: x_i = ceil(s + omega . i)
    sites = window.sites()
    vals = np.ceil(s + sites @ np.asarray(omega)).reshape(window.shape)
    return Configuration(window, vals)


def test_translate_group_law():
    x = staircase(Box.centered(6, 1), [GOLDEN_MEAN])
    same = translate(x, [0], 0)
    assert same.domain == x.domain and np.array_equal(same.values, x.values)
    up = translate(x, [0], 1)
    assert np.array_equal(up.values, x.values + 1)
    a = translate(translate(x, [2], 1), [1], -3)
    b = translate(x, [3], -2)
    assert a.domain == b.domain and np.allclose(a.values, b.values)


def test_check_birkhoff_accepts_exact_staircases():
    for d, omega in ((1, [GOLDEN_MEAN]), (2, [np.sqrt(2) - 1, np.sqrt(3) - 1])):
        x = staircase(Box.centered(12, d), omega)
        verdict = check_birkhoff(x, 4)
        assert verdict.ordered and verdict.violation is None


def test_check_birkhoff_flags_a_swapped_pair():
    window = Box.centered(12, 1)
    x = staircase(window, [GOLDEN_MEAN])
    vals = x.values.copy()
    vals[3], vals[19] = vals[19], vals[3]
    verdict = check_birkhoff(Configuration(window, vals), 4)
    assert not verdict.ordered
    k, l, i, j = verdict.violation
    assert np.max(np.abs(k)) <= 4 and isinstance(l, int)


def full_scan(x, k_max, l_max=None, tol=TIE_TOL):
    # reference: every l in [-l_max, l_max] for every k, no range cut
    d = x.domain.d
    if l_max is None:
        spread = float(np.max(x.values) - np.min(x.values))
        l_max = int(np.ceil(spread)) + 1
    for k in Box.centered(int(k_max), d).sites():
        ovl = x.domain.intersect(x.domain.shift(-k))
        if ovl is None:
            continue
        flat = (x.values[ovl.shift(k).slice_in(x.domain)]
                - x.values[ovl.slice_in(x.domain)]).ravel()
        hi_at, lo_at = int(np.argmax(flat)), int(np.argmin(flat))
        mx, mn = float(flat[hi_at]), float(flat[lo_at])
        for l in range(-l_max, l_max + 1):
            if l == 0 and not np.any(k):
                continue
            if mx + l > tol and mn + l < -tol:
                sites = ovl.sites()
                witness = (tuple(k.tolist()), l, tuple(sites[hi_at].tolist()),
                           tuple(sites[lo_at].tolist()))
                return OrderVerdict(False, witness)
    return OrderVerdict(True, None)


def assert_same_as_full_scan(x, k_max, l_max=None, tol=TIE_TOL):
    got = check_birkhoff(x, k_max, tol)
    assert got == full_scan(x, k_max, l_max, tol)
    return got


def test_short_scan_matches_full_scan_on_a_crossing():
    window = Box.centered(12, 1)
    vals = staircase(window, [GOLDEN_MEAN]).values.copy()
    vals[3], vals[19] = vals[19], vals[3]
    got = assert_same_as_full_scan(Configuration(window, vals), 4)
    assert not got.ordered and got.violation is not None


def test_short_scan_matches_full_scan_on_ties_and_degenerate_pairs():
    # integer staircases touch their translates; omega = 1/2 is periodic,
    # so k = 2, l = -1 reproduces the configuration on the overlap
    got = assert_same_as_full_scan(staircase(Box.centered(12, 1),
                                             [GOLDEN_MEAN]), 4)
    assert got.ordered
    got = assert_same_as_full_scan(staircase(Box.centered(12, 1), [0.5]), 4)
    assert got.ordered


def test_short_scan_matches_full_scan_with_a_small_l_max():
    # an ordered staircase has no crossing at any l_max; a crossing's lift
    # stays inside the reference's default l_max, ceil(spread) + 1
    x = staircase(Box.centered(30, 1), [GOLDEN_MEAN])
    for l_max in (0, 1, 2):
        assert check_birkhoff(x, 6) == full_scan(x, 6, l_max)
    vals = x.values.copy()
    vals[5], vals[50] = vals[50], vals[5]
    got = assert_same_as_full_scan(Configuration(x.domain, vals), 6)
    spread = np.max(vals) - np.min(vals)
    assert not got.ordered and abs(got.violation[1]) <= np.ceil(spread)


def test_short_scan_skips_the_identity_translate():
    # k = 0 gets the lift l = 1, which cannot cross
    x = staircase(Box.centered(8, 1), [GOLDEN_MEAN])
    got = assert_same_as_full_scan(x, 0)
    assert got.ordered
    assert assert_same_as_full_scan(x, 2).ordered


def test_short_scan_matches_full_scan_in_two_dimensions():
    omega = [np.sqrt(2) - 1, np.sqrt(3) - 1]
    x = staircase(Box.centered(6, 2), omega)
    assert assert_same_as_full_scan(x, 3).ordered
    vals = x.values.copy()
    vals[1, 2], vals[10, 11] = vals[10, 11], vals[1, 2]
    got = assert_same_as_full_scan(Configuration(x.domain, vals), 3)
    assert not got.ordered


NEAR_TOL = [TIE_TOL, -TIE_TOL, np.nextafter(TIE_TOL, 0.0),
            np.nextafter(TIE_TOL, 1.0), -np.nextafter(TIE_TOL, 0.0),
            -np.nextafter(TIE_TOL, 1.0)]


def test_short_scan_matches_full_scan_at_the_tie_tolerance():
    # differences land on +-tol and one ulp either side, plus integers
    for lift in (0.0, 1.0, -2.0, 3.0):
        for v in NEAR_TOL:
            x = Configuration(Box([0], [2]), [0.0, lift + v, 0.0])
            assert_same_as_full_scan(x, 2)
            assert_same_as_full_scan(x, 2, l_max=4)
    rng = np.random.default_rng(11)
    for _ in range(200):
        vals = rng.integers(-3, 4, 7) + rng.choice(NEAR_TOL + [0.0], 7)
        assert_same_as_full_scan(Configuration(Box([0], [6]), vals), 3)


def random_window_values(rng, shape):
    kind = rng.integers(3)
    if kind == 0:
        # integers, some nudged onto +-tol or one ulp either side of it
        return (rng.integers(-3, 4, shape)
                + rng.choice(NEAR_TOL + [0.0] * 6, shape))
    if kind == 1:
        omega = rng.uniform(0.05, 0.95, len(shape))
        sites = np.indices(shape).reshape(len(shape), -1).T
        vals = np.ceil(rng.uniform() + sites @ omega).reshape(shape)
        if rng.integers(2):
            flat = vals.reshape(-1)
            i, j = rng.integers(flat.size, size=2)
            flat[i], flat[j] = flat[j], flat[i]
        return vals
    return rng.uniform(-4.0, 4.0, shape)


@pytest.mark.parametrize("d,cases,sizes", [(1, 20000, (1, 9)),
                                           (2, 2000, (1, 5))])
def test_closed_form_matches_full_scan_on_random_windows(d, cases, sizes):
    rng = np.random.default_rng(2024 + d)
    crossings = 0
    for _ in range(cases):
        shape = tuple(rng.integers(*sizes, size=d).tolist())
        x = Configuration(Box([0] * d, [n - 1 for n in shape]),
                          random_window_values(rng, shape))
        k_max = int(rng.integers(5))
        if k_max > 0 and max(shape) == 1:
            with pytest.raises(ValueError, match="window too small"):
                check_birkhoff(x, k_max)
            continue
        crossings += not assert_same_as_full_scan(x, k_max).ordered
    assert 0.2 * cases < crossings < 0.9 * cases


def test_k_max_beyond_the_window_visits_only_overlapping_shifts(monkeypatch):
    # 17 sites: only the 33 shifts with |k| <= 16 overlap the window
    x = staircase(Box.centered(8, 1), [GOLDEN_MEAN])
    want = check_birkhoff(x, 16)
    calls = []
    intersect = Box.intersect

    def counting(self, other):
        calls.append(other)
        return intersect(self, other)

    monkeypatch.setattr(Box, "intersect", counting)
    assert check_birkhoff(x, 1000) == want
    assert len(calls) == 33


@pytest.mark.parametrize("value", [2.0 ** 52, -1e300])
def test_check_birkhoff_refuses_values_a_unit_lift_cannot_resolve(value):
    x = Configuration(Box([0], [2]), [0.0, value, 1.0])
    with pytest.raises(ValueError, match="span less than 2\\*\\*52"):
        check_birkhoff(x, 1)
    # just below the bound the one lift is still exact: 2**51 - 1 + l = 1
    got = check_birkhoff(Configuration(x.domain, [0.0, 2.0 ** 51, 1.0]), 1)
    assert got.violation == ((-1,), 2 - 2 ** 51, (2,), (1,))


def test_sign_rule_for_exact_samples():
    # the phase omega . k + l decides the uniform order of the translate
    omega = np.asarray([GOLDEN_MEAN])
    x = staircase(Box.centered(20, 1), omega)
    for k in range(-5, 6):
        shifted = translate(x, [k], 0)
        ovl = x.domain.intersect(shifted.domain)
        base = (shifted.box_values(ovl) - x.box_values(ovl))
        for l in range(-5, 6):
            phase = omega[0] * k + l
            diff = base + l
            if phase > 0:
                assert np.min(diff) >= 0.0
            else:
                assert np.max(diff) <= 0.0


def test_check_birkhoff_window_guard():
    x = Configuration(Box([0], [0]), [0.0])
    with pytest.raises(ValueError):
        check_birkhoff(x, 2)


def test_meet_join_identities():
    rng = np.random.default_rng(3)
    B = Box.centered(4, 2)
    x = Configuration(B, rng.normal(size=B.shape))
    y = Configuration(B, rng.normal(size=B.shape))
    lo, hi = meet_join(x, y)
    assert np.array_equal(lo.values + hi.values, x.values + y.values)
    lo2, hi2 = meet_join(y, x)
    assert np.array_equal(lo.values, lo2.values)
    same_lo, same_hi = meet_join(x, x)
    assert np.array_equal(same_lo.values, x.values)
    assert np.array_equal(same_hi.values, x.values)
    with pytest.raises(ValueError):
        meet_join(x, Configuration(Box.centered(3, 2), np.zeros((7, 7))))


def test_minmax_inequality_and_equality_iff_ordered(model1):
    rng = np.random.default_rng(8)
    B = Box.centered(5, 1)
    Bp = B.padded(1)
    eps = model1.constants.eps1 / 2
    amp = (model1.constants.osc_bound_K + 1.0) / 2.0
    crossings = 0
    for _ in range(30):
        x = Configuration(Bp, rng.uniform(-amp, amp, Bp.shape))
        y = Configuration(Bp, rng.uniform(-amp, amp, Bp.shape))
        out = check_minmax_inequality(model1, eps, B, x, y)
        assert out["holds"] and out["gap"] >= -1e-10
        ordered = np.all(x.values <= y.values) or np.all(y.values <= x.values)
        if ordered:
            assert out["gap"] == 0.0
        else:
            crossings += 1
            assert out["gap"] > 0.0
    assert crossings > 20  # random pairs essentially always cross


def test_comparison_principle_shift_pair(model1, golden):
    eps = model1.constants.eps1 / 2
    B = Box.centered(10, 1)
    Bp = B.padded(1)
    phi = step_hull_from_simplex([0.5, 0.5], model1.potential.minima)
    s = lamlab.generic_parameter(phi, golden, Bp, 0.5)
    x0 = sample_config(phi, golden, s, Bp)
    res = quasi_newton_continue(model1, eps, x0, B)
    shifted = translate(res.solution, [0], 1)
    out = check_comparison_principle(model1, eps, B, res.solution, shifted)
    assert out["verdict"] == "strictly-less"
    assert out["margin"] >= 1.0 - 2.0 * model1.constants.delta0
    same = check_comparison_principle(model1, eps, B, res.solution, res.solution)
    assert same["verdict"] == "identical"


def test_comparison_principle_guards(model1, golden):
    eps = model1.constants.eps1 / 2
    B = Box.centered(6, 1)
    Bp = B.padded(1)
    rng = np.random.default_rng(4)
    x = Configuration(Bp, np.sort(rng.uniform(0.0, 2.0, Bp.shape)))
    with pytest.raises(CheckInconclusive):
        check_comparison_principle(model1, eps, B, x, translate(x, [0], 1))
    with pytest.raises(ValueError):
        check_comparison_principle(model1, 0.0, B, x, x)
