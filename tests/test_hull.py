import re
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import lamlab
from lamlab import (Box, GOLDEN_MEAN, HullFunction, check_irrational,
                    generic_parameter, hull_distance_mod_translation,
                    normalize_simplex, sample_config, step_hull_from_simplex)
from lamlab.hull import (RESONANCE_DENOMINATOR, RESONANCE_TOL, _best_rational,
                         _integer_relation)


def oracle_value(bp, vals, s):
    # direct definition in exact arithmetic: reduce s into (t_M - 1, t_M],
    # read the plateau (t_{m-1}, t_m] -> v_m, add back the period count
    tM = bp[-1]
    k = 0
    while s > tM:
        s -= 1
        k += 1
    while s <= tM - 1:
        s += 1
        k -= 1
    for m in range(len(bp)):
        if s <= bp[m]:
            return vals[m] + k
    raise AssertionError("unreachable")


def oracle_value_upper(bp, vals, s):
    tM = bp[-1]
    k = 0
    while s > tM:
        s -= 1
        k += 1
    while s <= tM - 1:
        s += 1
        k -= 1
    for m in range(len(bp)):
        if s < bp[m]:
            return vals[m] + k
    return vals[0] + k + 1


def rational_hull():
    bp = [Fraction(3, 10), Fraction(7, 10), Fraction(1)]
    vals = [Fraction(1, 5), Fraction(1, 2), Fraction(9, 10)]
    return bp, vals


def test_value_matches_exact_definition_everywhere():
    bp, vals = rational_hull()
    phi = HullFunction([float(t) for t in bp], [float(v) for v in vals])
    # rational probe points: interior, exact breakpoint hits, wraps
    probes = [Fraction(n, 40) for n in range(-120, 121)]
    for s in probes:
        want = float(oracle_value(bp, vals, s))
        got = phi.value(float(s))
        assert got == pytest.approx(want, abs=1e-12), f"s = {s}"


def test_value_upper_matches_exact_definition():
    bp, vals = rational_hull()
    phi = HullFunction([float(t) for t in bp], [float(v) for v in vals])
    for s in [Fraction(n, 40) for n in range(-80, 81)]:
        want = float(oracle_value_upper(bp, vals, s))
        got = phi.value_upper(float(s))
        assert got == pytest.approx(want, abs=1e-12), f"s = {s}"


def test_value_snaps_arguments_just_above_a_breakpoint():
    phi = HullFunction([0.25, 1.0], [0.5, 1.0])
    assert phi.value(0.25) == 0.5
    assert phi.value(0.25 + 2e-13) == 0.5  # within snap: still the plateau end
    assert phi.value(0.25 + 1e-9) == 1.0
    assert phi.value_upper(0.25 - 2e-13) == 1.0


def test_top_breakpoint_below_one_wraps_the_top_plateau():
    phi = HullFunction([0.4, 0.9], [0.3, 0.8])
    # (0.9 - 1, 0.4] -> 0.3, (0.4, 0.9] -> 0.8, then (0.9, 1.4] -> 1.3
    assert phi.value(0.05) == pytest.approx(0.3, abs=1e-12)
    assert phi.value(1.0) == pytest.approx(1.3, abs=1e-12)
    assert phi.value(-0.1) == pytest.approx(0.8 - 1.0, abs=1e-12)


def test_hull_validation_errors():
    with pytest.raises(ValueError):
        HullFunction([0.5, 0.4], [0.1, 0.2])  # breakpoints not increasing
    with pytest.raises(ValueError):
        HullFunction([0.5, 1.0], [0.3, 0.2])  # values not increasing
    with pytest.raises(ValueError):
        HullFunction([0.5, 1.0], [0.1, 1.2])  # span >= 1
    with pytest.raises(ValueError):
        HullFunction([0.0, 1.0], [0.1, 0.2])  # breakpoint at 0
    with pytest.raises(ValueError):
        HullFunction([0.5, 1.0], [0.2, 0.7], plateau_lengths=[0.4, 0.6])
    HullFunction([0.5, 1.0], [0.2, 0.7], plateau_lengths=[0.5, 0.5])


def test_normalize_simplex_guards_and_exactness():
    with pytest.raises(ValueError):
        normalize_simplex([0.5, 0.6])
    with pytest.raises(ValueError):
        normalize_simplex([-0.2, 1.2])
    p = normalize_simplex([0.3, 0.7])
    assert p.tolist() == [0.3, 0.7]  # untouched, bit for bit
    q = normalize_simplex([0.3 + 5e-10, 0.7])
    assert q.sum() == pytest.approx(1.0, abs=1e-15)


def test_step_hull_from_simplex_two_wells():
    phi = step_hull_from_simplex([0.3, 0.7], [0.0, 0.5])
    assert phi.breakpoints.tolist() == [0.7, 1.0]
    assert phi.values.tolist() == [0.5, 1.0]
    assert phi.plateau_lengths.tolist() == [0.7, 0.3]
    # masses survive the round trip exactly
    assert dict(phi.plateau_measures()) == {0.5: 0.7, 1.0: 0.3}


def test_step_hull_drops_zero_mass_wells():
    phi = step_hull_from_simplex([1.0, 0.0], [0.0, 0.5])
    assert phi.breakpoints.tolist() == [1.0]
    assert phi.values.tolist() == [1.0]


def test_single_plateau_sampling_matches_ceiling_formula():
    phi = step_hull_from_simplex([1.0], [0.0])
    window = Box.centered(50, 1)
    s = 0.37
    x = sample_config(phi, [GOLDEN_MEAN], s, window)
    i = window.sites().ravel()
    want = np.ceil(s + GOLDEN_MEAN * i) - 1.0 + 1.0  # lift of well 0 is 1
    assert np.array_equal(x.values, want)


def test_sample_config_samples_rational_omega():
    # a rational omega gives a periodic configuration: x_{i+2} = x_i + 1
    phi = step_hull_from_simplex([0.3, 0.7], [0.0, 0.5])
    x = sample_config(phi, [0.5], 0.1, Box.centered(20, 1))
    assert np.array_equal(x.values[2:], x.values[:-2] + 1.0)


def test_generic_parameter_keeps_clearance():
    phi = step_hull_from_simplex([0.5, 0.5], [0.0, 0.5])
    window = Box.centered(64, 1)
    s = generic_parameter(phi, [GOLDEN_MEAN], window, 0.5)
    args = np.mod(s + GOLDEN_MEAN * window.sites().ravel(), 1.0)
    gaps = np.abs(args[:, None] - phi.breakpoints[None, :])
    gaps = np.minimum(gaps, 1.0 - gaps)
    assert float(np.min(gaps)) > 1e-9


def test_plateau_measures_without_pinned_lengths():
    # lengths come from breakpoint differences, the first wrapping below t_1
    phi = HullFunction([0.25, 1.0], [0.5, 1.0])
    assert phi.plateau_measures() == [(0.5, 0.25), (1.0, 0.75)]


def test_hull_distance_frozen_pure_wells():
    # all mass on well 0 versus all mass on well 1/2: every alignment costs
    # exactly half a period, so the translation-minimized distance is 0.5
    a = step_hull_from_simplex([1.0, 0.0], [0.0, 0.5])
    b = step_hull_from_simplex([0.0, 1.0], [0.0, 0.5])
    assert hull_distance_mod_translation(a, b) == pytest.approx(0.5, abs=1e-12)
    assert hull_distance_mod_translation(a, a) == 0.0
    assert hull_distance_mod_translation(b, b) == 0.0


def riemann_distance(a, b, nt=400, ns=6001):
    ss = (np.arange(ns) + 0.5) / ns
    bvals = b.value(ss)
    best = np.inf
    for t in np.arange(-nt, nt) / nt:
        best = min(best, float(np.mean(np.abs(a.value(ss + t) - bvals))))
    return best


def test_hull_distance_against_riemann_oracle():
    rng = np.random.default_rng(17)
    sigma = [0.0, 0.29, 0.61]
    for _ in range(4):
        pa = rng.dirichlet([1.0, 1.0, 1.0])
        pb = rng.dirichlet([1.0, 1.0, 1.0])
        a = step_hull_from_simplex(pa, sigma)
        b = step_hull_from_simplex(pb, sigma)
        got = hull_distance_mod_translation(a, b)
        approx = riemann_distance(a, b)
        # oracle error: ~6 integrand jumps per s-grid cell, Lipschitz 2 in
        # the t direction between t-grid points
        assert got <= approx + 8.0 / 6001
        assert got >= approx - 2.0 * 2.0 / 400 - 8.0 / 6001
        assert got == pytest.approx(hull_distance_mod_translation(b, a),
                                    abs=1e-12)


def test_hull_distance_best_shift_beyond_one_period():
    # a = 0.1 and b = 0.95 on (0, 1]: a(s + 1) = 1.1 is 0.15 from b
    a = HullFunction([1.0], [0.1])
    b = HullFunction([1.0], [0.95])
    assert hull_distance_mod_translation(a, b) == pytest.approx(0.15, abs=1e-12)
    assert hull_distance_mod_translation(b, a) == pytest.approx(0.15, abs=1e-12)


def test_hull_distance_ignores_whole_period_offsets():
    # raising every value by 2 is the translation by 2
    a = step_hull_from_simplex([0.2, 0.3, 0.5], [0.0, 0.29, 0.61])
    b = HullFunction(a.breakpoints, a.values + 2.0)
    assert hull_distance_mod_translation(a, b) == pytest.approx(0.0, abs=1e-12)
    assert hull_distance_mod_translation(b, a) == pytest.approx(0.0, abs=1e-12)


def shifted_l1(a, b, t):
    # exact: a(. + t) and b are constant between these cuts
    cuts = np.unique(np.concatenate([[0.0, 1.0], np.mod(b.breakpoints, 1.0),
                                     np.mod(a.breakpoints - t, 1.0)]))
    mid = 0.5 * (cuts[:-1] + cuts[1:])
    return float(np.sum(np.diff(cuts) * np.abs(a.value(mid + t) - b.value(mid))))


def brute_distance(a, b, periods=6):
    # shifted_l1 is convex and piecewise linear in t with kinks where a
    # breakpoint of a(. + t) meets one of b, in every period; scan them all
    base = np.mod(np.subtract.outer(a.breakpoints, b.breakpoints).ravel(), 1.0)
    shifts = np.add.outer(np.arange(-periods, periods + 1), base).ravel()
    return min(shifted_l1(a, b, t) for t in shifts)


def random_hull(rng):
    # normalized, then moved by up to two periods
    m = int(rng.integers(1, 5))
    bp = np.sort(rng.choice(np.arange(1, 100), m, replace=False)) / 100.0
    vals = np.sort(rng.choice(np.arange(1, 100), m, replace=False)) / 100.0
    return HullFunction(bp, vals + rng.integers(-2, 3))


def test_hull_distance_symmetric_and_minimal_over_wide_shifts():
    rng = np.random.default_rng(5)
    # plateau values that meet mod 1 only up to rounding
    pairs = [(HullFunction([1.0], [-3.52]),
              HullFunction([0.5, 1.0], [-5.52, -5.02])),
             (HullFunction([1.0], [7.82]),
              HullFunction([0.5, 1.0], [3.32, 3.82]))]
    pairs += [(random_hull(rng), random_hull(rng)) for _ in range(40)]
    for a, b in pairs:
        got = hull_distance_mod_translation(a, b)
        assert got == pytest.approx(hull_distance_mod_translation(b, a),
                                    abs=1e-12)
        assert got == pytest.approx(brute_distance(a, b), abs=1e-12)


def test_check_irrational():
    with pytest.raises(ValueError):
        check_irrational([0.375])
    with pytest.raises(ValueError):
        check_irrational([610.0 / 987.0])
    check_irrational([GOLDEN_MEAN])
    check_irrational([np.sqrt(2.0) - 1.0, np.sqrt(3.0) - 1.0])
    with pytest.raises(ValueError):
        check_irrational([GOLDEN_MEAN, 0.25])  # one bad component poisons d=2


def seeded_omegas():
    """10**5 floats in six families of 16,667 or so each: uniform in
    [0, 1), rationals p/q with q <= 10**6 and their neighbours at 1e-12
    to 1e-9, 292826/493027 +- up to 1e-11, exact ratios of large
    integers, negatives of every size, and tiny and huge magnitudes."""
    rng = np.random.default_rng(2024)
    n = 10**5 // 6 + 1
    q = rng.integers(1, RESONANCE_DENOMINATOR + 1, n)
    p = rng.integers(-3 * q, 3 * q + 1)
    nudge = rng.choice([-1e-9, -1e-12, 0.0, 1e-12, 1e-9], n)
    families = [
        rng.random(n),
        p / q + nudge,
        292826 / 493027 + rng.uniform(-1e-11, 1e-11, n),
        rng.integers(-10**9, 10**9, n) / rng.integers(1, 2 * 10**6, n),
        -rng.random(n) * 10.0 ** rng.integers(-6, 7, n),
        rng.choice([-1, 1], n) * rng.random(n)
        * 10.0 ** rng.integers(-300, 301, n),
    ]
    edges = [0.0, -0.0, 5e-324, -5e-324, 1.7976931348623157e308, 0.5,
             -0.5, 3.0, 610 / 987, 292826 / 493027 + 1e-12,
             292826 / 493027 - 1e-12, GOLDEN_MEAN, -GOLDEN_MEAN, 1e-7]
    return np.concatenate(families + [edges]).tolist()


def test_best_rational_equals_limit_denominator():
    omegas = seeded_omegas()
    assert len(omegas) >= 10**5
    for w in omegas:
        fr = Fraction(w).limit_denominator(RESONANCE_DENOMINATOR)
        assert _best_rational(w, RESONANCE_DENOMINATOR) == \
            (fr.numerator, fr.denominator), w
    # dyadic values under small bounds, where ties between the last
    # convergent and the semiconvergent occur
    for max_q in (1, 2, 3, 5, 10, 100, 1000):
        for m in range(1, 9):
            for k in range(-2**m, 3 * 2**m):
                fr = Fraction(k, 2**m).limit_denominator(max_q)
                assert _best_rational(k / 2**m, max_q) == \
                    (fr.numerator, fr.denominator), (k, m, max_q)


def fraction_refusal(w):
    """The one-component test of check_irrational as written with
    Fraction: the type and text of its error, or None."""
    try:
        fr = Fraction(float(w)).limit_denominator(RESONANCE_DENOMINATOR)
    except (ValueError, OverflowError) as exc:
        return type(exc), str(exc)
    if abs(fr.denominator * float(w) - fr.numerator) <= RESONANCE_TOL:
        return ValueError, (f"rotation component {float(w)!r} is within "
                            f"{RESONANCE_TOL} of "
                            f"{fr.numerator}/{fr.denominator}")
    return None


def refusal(w):
    try:
        check_irrational([w])
    except (ValueError, OverflowError) as exc:
        return type(exc), str(exc)
    return None


def test_check_irrational_keeps_its_decisions_and_messages():
    omegas = seeded_omegas()[::10] + [np.nan, np.inf, -np.inf]
    refused = 0
    for w in omegas:
        want = fraction_refusal(w)
        assert refusal(w) == want, w
        refused += want is not None
    # the near-rational family is refused, the uniform one is not
    assert 1000 < refused < len(omegas) // 2
    # 493027 * 1e-12 is far above RESONANCE_TOL: the nearest fraction,
    # but no refusal
    assert _best_rational(292826 / 493027 + 1e-12, RESONANCE_DENOMINATOR) \
        == (292826, 493027)
    assert refusal(292826 / 493027 + 1e-12) is None
    assert refusal(0.375) == (
        ValueError, "rotation component 0.375 is within 1e-09 of 3/8")


@pytest.mark.parametrize("omega,k", [
    ([GOLDEN_MEAN, GOLDEN_MEAN], (1, -1)),
    ([GOLDEN_MEAN, 1.0 - GOLDEN_MEAN], (1, 1)),
    ([np.sqrt(2.0) - 1.0, 2.0 * np.sqrt(2.0) - 2.0], (2, -1)),
    ([GOLDEN_MEAN, np.sqrt(2.0) - 1.0, 10.0 * np.sqrt(2.0) - 3.0 * GOLDEN_MEAN],
     (3, -10, 1)),
    # relations within the first and within the second half of omega
    ([GOLDEN_MEAN, 1.0 - GOLDEN_MEAN, np.sqrt(2.0) - 1.0, np.sqrt(3.0) - 1.0],
     (1, 1, 0, 0)),
    ([np.sqrt(2.0) - 1.0, np.sqrt(3.0) - 1.0, GOLDEN_MEAN, GOLDEN_MEAN],
     (0, 0, 1, -1)),
])
def test_check_irrational_refuses_integer_relations(omega, k):
    # the witness is k or a multiple of it within |k|_inf <= 10
    with pytest.raises(ValueError) as info:
        check_irrational(omega)
    found = re.search(r"for k = \(([-\d, ]+)\)$", str(info.value)).group(1)
    found = np.array(found.split(", "), dtype=int)
    i = np.flatnonzero(k)[0]
    assert found[i] != 0 and np.array_equal(found * k[i], np.array(k) * found[i])


def test_integer_relations_keep_a_margin():
    # the closest relation of (sqrt2 - 1, sqrt3 - 1) is (5, 4), at 7.29e-4
    omega = np.asarray([np.sqrt(2.0) - 1.0, np.sqrt(3.0) - 1.0])
    assert _integer_relation(omega, 7.2e-4) is None
    assert _integer_relation(omega, 7.3e-4) == (5, 4)
    check_irrational([GOLDEN_MEAN, np.sqrt(2.0) - 1.0, np.sqrt(3.0) - 1.0])
    # relations beyond |k|_inf = 10 are allowed
    check_irrational([GOLDEN_MEAN, 11.0 * GOLDEN_MEAN - 6.0])


@pytest.mark.parametrize("d", [2, 3, 4])
def test_integer_relation_equals_the_full_scan(d):
    # every k in [-10, 10]^d but 0: the closest k . omega to an integer
    k = np.indices((21,) * d).reshape(d, -1).T - 10
    k = k[np.any(k, axis=1)]
    rng = np.random.default_rng(d)
    for _ in range(10):
        omega = rng.uniform(-2.0, 2.0, d)
        dot = k @ omega
        gap = float(np.min(np.abs(dot - np.round(dot))))
        assert _integer_relation(omega, gap * 0.999) is None
        found = _integer_relation(omega, gap * 1.001)
        assert found is not None
        dot = np.dot(found, omega)
        assert abs(dot - round(dot)) <= gap * 1.001


simplex3 = st.tuples(
    st.floats(0.05, 1.0), st.floats(0.05, 1.0), st.floats(0.05, 1.0)
).map(lambda t: np.asarray(t) / sum(t))


@settings(max_examples=150, deadline=None)
@given(p=simplex3, s=st.floats(-2.5, 2.5), ds=st.floats(0.0, 2.0))
def test_hull_axioms_monotone_periodic_sandwich(p, s, ds):
    phi = step_hull_from_simplex(p, [0.0, 0.31, 0.642])
    gaps = np.abs(np.mod(s, 1.0) - phi.breakpoints)
    gaps = np.minimum(gaps, 1.0 - gaps)
    if float(np.min(gaps)) < 1e-6:
        return  # stay clear of the snap band; exact hits are tested above
    lo = phi.value(s)
    hi = phi.value_upper(s)
    assert lo <= hi + 1e-12
    assert hi <= lo + 1.0 + 1e-12
    assert phi.value(s + 1.0) == pytest.approx(lo + 1.0, abs=1e-12)
    assert phi.value(s + ds) >= lo - 1e-12
