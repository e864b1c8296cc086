"""Twist map identities and projections of continued solutions."""

import numpy as np
import pytest

from lamlab import (
    GOLDEN_MEAN,
    Box,
    CheckInconclusive,
    Configuration,
    ContinuationRefused,
    ContractionEscape,
    HullFunction,
    Model,
    NoConvergence,
    TwistOrbit,
    build_model,
    builtin_harmonic_stencil,
    builtin_n_well,
    chaotic_momentum_orbit,
    extract_cantorus,
    quasi_newton_continue,
    residual_field,
    sample_config,
    standard_map_step,
    step_hull_from_simplex,
    twistmap,
)


def test_map_step_formula(model1):
    V = model1.potential
    x, y, eps = 0.37, 0.61, 2e-3
    nx, ny = standard_map_step(V, eps, x, y)
    kick = V.d1(x) / eps
    assert nx == x + y + kick
    assert ny == y + kick
    # the step is an exact-symplectic shear composed with a kick: the
    # position advances by the new momentum
    assert nx - x == ny


def test_map_needs_positive_coupling(model1):
    V = model1.potential
    with pytest.raises(ValueError):
        standard_map_step(V, 0.0, 0.1, 0.2)
    with pytest.raises(ValueError):
        standard_map_step(V, -1e-3, 0.1, 0.2)


def test_twist_orbit_validation(model1):
    V = model1.potential
    eps = 1e-3
    pts = [(0.2, 0.5)]
    for _ in range(6):
        x, y = pts[-1]
        pts.append(standard_map_step(V, eps, x, y))
    orbit = TwistOrbit(np.asarray(pts), eps)
    assert orbit.map_residual(V) == 0.0
    with pytest.raises(ValueError):
        TwistOrbit(np.asarray([[0.1, 0.2]]), eps)
    bad = np.asarray(pts)
    bad[3, 1] += 1e-6  # momentum no longer the position difference
    with pytest.raises(ValueError):
        TwistOrbit(bad, eps)


def test_fk_residual_equals_map_residual(model1, golden):
    V = model1.potential
    eps = model1.constants.eps1 / 2.0
    window = Box.centered(8, 1)
    phi = step_hull_from_simplex([0.5, 0.5], V.minima)
    x0 = sample_config(phi, golden, 0.37, window.padded(1))
    res = quasi_newton_continue(model1, eps, x0, window)
    assert np.max(np.abs(residual_field(model1, eps, res.solution,
                                        window))) <= 1e-12

    rng = np.random.default_rng(4)
    bumped = Configuration(res.solution.domain, res.solution.values
                           + rng.uniform(-1e-3, 1e-3, res.solution.values.size))
    for x in (res.solution, bumped):
        # on the free sites of a nearest-neighbour harmonic chain the
        # window residual is the Frenkel-Kontorova residual
        fk = residual_field(model1, eps, x, window)
        vals = x.values
        inner = vals[2:-2]
        want = V.d1(inner) - eps * (vals[3:-1] - 2.0 * inner + vals[1:-3])
        assert np.allclose(fk, want, rtol=0.0, atol=1e-15)

        xs = vals[2:-1]
        orbit = TwistOrbit(np.column_stack([xs, xs - vals[1:-2]]), eps)
        # one map step misses the next point by the site residual over eps
        assert orbit.map_residual(V) == pytest.approx(
            np.max(np.abs(fk)) / eps, rel=1e-5, abs=1e-15)


def test_extract_cantorus_invariance(model1_single, golden):
    eps = model1_single.constants.eps1 / 2.0
    phi = step_hull_from_simplex([1.0], model1_single.potential.minima)
    window = Box.centered(10, 1)
    out = extract_cantorus(model1_single, eps, phi, golden, window, 16)
    assert out.points.shape == (16, 2)
    assert np.all((out.points[:, 0] >= 0.0) & (out.points[:, 0] < 1.0))
    assert out.invariance_error <= 1e-8
    assert abs(out.mean_momentum - float(golden[0])) <= 2.0 / 16.0
    assert out.s_values.shape == (16,)
    steps = np.diff(out.s_values)
    assert np.allclose(steps, float(golden[0]), atol=1e-12)


def per_member_cantorus(model, eps, phi, omega, window, n_samples, s,
                        newton_tol=1e-12):
    # reference: one sample_config call and one lookup of sites 0 and -1
    # per member, from the generic base parameter s
    w = float(omega[0])
    Bp = window.padded(model.stencil.range)
    i0 = -int(Bp.lo[0])
    s_values = s + w * np.arange(n_samples + 1)
    x0s = np.empty(n_samples + 1)
    xm1s = np.empty(n_samples + 1)
    for k in range(n_samples + 1):
        sample = sample_config(phi, [w], s_values[k], Bp)
        res = quasi_newton_continue(model, eps, sample, window, tol=newton_tol)
        assert res.solution.domain == Bp
        x0s[k] = res.solution.values[i0]
        xm1s[k] = res.solution.values[i0 - 1]
    ys = x0s - xm1s
    nx, ny = standard_map_step(model.potential, eps, x0s[:-1], ys[:-1])
    errs = np.maximum(np.abs(nx - x0s[1:]), np.abs(ny - ys[1:]))
    worst = int(np.argmax(errs))
    points = np.column_stack([np.mod(x0s[:n_samples], 1.0), ys[:n_samples]])
    return points, s_values[:n_samples], float(errs[worst]), worst


def assert_cantorus_equals_reference(model, p, omega, s0, radius):
    eps = model.constants.eps1 / 2.0
    phi = step_hull_from_simplex(p, model.potential.minima)
    window = Box.centered(radius, 1)
    out = extract_cantorus(model, eps, phi, omega, window, 40, s0=s0)
    points, s_values, err, worst = per_member_cantorus(
        model, eps, phi, omega, window, 40, float(out.s_values[0]))
    assert np.array_equal(out.points, points)
    assert np.array_equal(out.s_values, s_values)
    assert out.invariance_error == err
    assert out.worst_index == worst
    assert out.mean_momentum == float(np.mean(points[:, 1]))


@pytest.mark.parametrize("wells,p,s0,radius", [
    (1, [1.0], 0.5, 10),
    (1, [1.0], 0.0658, 16),
    (2, [0.3, 0.7], 0.25, 9),
    (2, [0.55, 0.45], 0.9, 12),
])
def test_extract_cantorus_equals_per_member_reference(
        model1, model1_single, golden, wells, p, s0, radius):
    model = model1_single if wells == 1 else model1
    assert_cantorus_equals_reference(model, p, golden, s0, radius)


@pytest.mark.parametrize("wells,p,omega,s0", [
    (1, [1.0], "sqrt2-1", 0.31),
    (2, [0.3, 0.7], "sqrt3-1", 0.0),
    (2, [0.15, 0.85], "sqrt2-1", 0.999),
    (3, [0.2, 0.5, 0.3], "golden", 0.77),
    (3, [0.4, 0.15, 0.45], "sqrt2-1", 0.123456),
    (3, [0.35, 0.35, 0.3], "sqrt3-1", 0.5),
])
def test_extract_cantorus_reference_across_omegas_and_wells(wells, p, omega,
                                                            s0):
    omega = np.asarray([{"golden": GOLDEN_MEAN, "sqrt2-1": np.sqrt(2.0) - 1.0,
                         "sqrt3-1": np.sqrt(3.0) - 1.0}[omega]])
    model = build_model(builtin_n_well(wells), builtin_harmonic_stencil(1),
                        omega=omega)
    for radius in (4, 16):
        assert_cantorus_equals_reference(model, p, omega, s0, radius)


def test_extract_cantorus_samples_the_hull_once(monkeypatch, model1,
                                               golden):
    # one hull sample covers every member; each member is one continuation
    counts = {"value": 0, "continue": 0}
    value = HullFunction.value

    def counted_value(self, s):
        counts["value"] += 1
        return value(self, s)

    def counted_continue(*args, **kwargs):
        counts["continue"] += 1
        return quasi_newton_continue(*args, **kwargs)

    monkeypatch.setattr(HullFunction, "value", counted_value)
    monkeypatch.setattr(twistmap, "quasi_newton_continue", counted_continue)
    phi = step_hull_from_simplex([0.3, 0.7], model1.potential.minima)
    extract_cantorus(model1, model1.constants.eps1 / 2.0, phi, golden,
                     Box.centered(8, 1), 30)
    assert counts == {"value": 1, "continue": 31}


def first_member_failure(model, eps, phi, omega, window, n_samples, s,
                         newton_tol=1e-12):
    w = float(omega[0])
    Bp = window.padded(model.stencil.range)
    for k in range(n_samples + 1):
        sample = sample_config(phi, [w], s + w * k, Bp)
        try:
            quasi_newton_continue(model, eps, sample, window, tol=newton_tol)
        except (NoConvergence, ContractionEscape) as exc:
            return k, exc
    return None, None


def test_extract_cantorus_raises_first_failing_member(model1, golden):
    eps = model1.constants.eps1 / 2.0
    phi = step_hull_from_simplex([0.3, 0.7], model1.potential.minima)
    # a window this small breaks invariance, so tol=1 turns that check
    # off; its members differ in their largest displacement
    window = Box.centered(3, 1)
    s = float(extract_cantorus(model1, eps, phi, golden, window, 12, tol=1.0)
              .s_values[0])

    # a budget no member meets: the first member's NoConvergence
    with pytest.raises(NoConvergence) as caught:
        extract_cantorus(model1, eps, phi, golden, window, 12, tol=1.0,
                         newton_tol=1e-30)
    k, want = first_member_failure(model1, eps, phi, golden, window, 12, s,
                                   newton_tol=1e-30)
    assert k == 0 and str(caught.value) == str(want)

    # a trust radius some members stay inside and later ones leave: the
    # first one that leaves is the one reported
    disps = [quasi_newton_continue(
        model1, eps, sample_config(phi, golden, s + float(golden[0]) * j,
                                   window.padded(1)), window).displacement
        for j in range(13)]
    tight = Model(model1.potential, model1.stencil,
                  model1.constants.replace(delta0=0.75 * max(disps)))
    k, want = first_member_failure(tight, eps, phi, golden, window, 12, s)
    assert isinstance(want, ContractionEscape) and k > 0
    with pytest.raises(ContractionEscape) as caught:
        extract_cantorus(tight, eps, phi, golden, window, 12, tol=1.0)
    assert str(caught.value) == str(want)


def test_extract_cantorus_guards(model1_single, model2, golden):
    phi = step_hull_from_simplex([1.0], model1_single.potential.minima)
    eps = model1_single.constants.eps1 / 2.0
    with pytest.raises(ValueError):
        extract_cantorus(model1_single, eps, phi, golden, Box.centered(10, 1), 1)
    with pytest.raises(ValueError):
        extract_cantorus(model1_single, eps, phi, golden, Box.centered(1, 1), 8)
    with pytest.raises(ContinuationRefused):
        extract_cantorus(model1_single, 1.0, phi, golden, Box.centered(10, 1), 8)
    with pytest.raises(ValueError):
        extract_cantorus(model2, model2.constants.eps1 / 2.0, phi,
                         [np.sqrt(2.0) - 1.0, np.sqrt(3.0) - 1.0],
                         Box.centered(4, 2), 8)
    with pytest.raises(CheckInconclusive):
        extract_cantorus(model1_single, eps, phi, golden, Box.centered(10, 1),
                         8, tol=1e-16)


def momentum_model(V, labels):
    # the envelope the orbit needs: K covers the largest label step
    K = float(np.max(np.abs(np.diff(labels)))) + 2.0
    return build_model(V, builtin_harmonic_stencil(1), K=K)


def test_chaotic_momentum_orbit(model1):
    V = model1.potential
    window = Box.centered(8, 1)
    rng = np.random.default_rng(12)
    labels = rng.choice(V.criticals, size=window.padded(1).size)
    model = momentum_model(V, labels)
    orbit = chaotic_momentum_orbit(model, 5e-4, labels, window)
    assert orbit.points.shape == (window.padded(1).size - 3, 2)
    assert orbit.map_residual(V) <= 1e-8
    # mixed critical labels produce erratic momenta
    assert np.ptp(orbit.points[:, 1]) > 0.2
    # deterministic: the same labels give the same orbit bit for bit
    again = chaotic_momentum_orbit(model, 5e-4, labels, window)
    assert np.array_equal(orbit.points, again.points)


def test_chaotic_momentum_orbit_guards(model1, model2):
    V = model1.potential
    window = Box.centered(8, 1)
    with pytest.raises(ValueError):
        chaotic_momentum_orbit(model2, 5e-4, np.zeros(window.padded(1).size),
                               window)
    with pytest.raises(ValueError):
        chaotic_momentum_orbit(model1, 5e-4, np.zeros(3), window)
    with pytest.raises(ValueError):
        chaotic_momentum_orbit(model1, 0.0, np.zeros(window.padded(1).size), window)
    with pytest.raises(ValueError):
        chaotic_momentum_orbit(model1, 5e-4, np.zeros(25), Box.centered(2, 2))
    rng = np.random.default_rng(12)
    labels = rng.choice(V.criticals, size=window.padded(1).size)
    with pytest.raises(CheckInconclusive):
        chaotic_momentum_orbit(momentum_model(V, labels), 5e-4, labels,
                               window, tol=1e-15)
