"""Continuation, window energies, defects, and lamination assembly."""

from dataclasses import fields, replace

import numpy as np
import pytest
from test_model import range2_stencil

from lamlab import (
    GOLDEN_MEAN,
    Box,
    Configuration,
    ContinuationRefused,
    ContinuationResult,
    ContractionEscape,
    HullFunction,
    InteractionStencil,
    LaminationBroken,
    LamlabError,
    Model,
    NoConvergence,
    NotBirkhoff,
    OrderVerdict,
    action,
    build_model,
    builtin_harmonic_stencil,
    builtin_n_well,
    defect,
    defect_subadditivity_check,
    continue_lamination,
    extract_cantorus,
    generic_parameter,
    maximum_breaks_order,
    potential_from_table,
    psi_epsilon,
    quasi_newton_continue,
    residual_field,
    sample_config,
    step_hull_from_simplex,
    translate,
    truncation_consistency,
)
from lamlab import continuation
from lamlab.continuation import LABEL_TOL, MAX_ITER, _order, _refuse_coupling


def hull_start(model, omega, p, box, s0=0.37):
    """Ordered label configuration sampled from the simplex step hull."""
    phi = step_hull_from_simplex(p, model.potential.minima)
    s = generic_parameter(phi, omega, box, s0)
    return sample_config(phi, omega, s, box)


@pytest.fixture(scope="module")
def continued(model1, golden):
    eps = model1.constants.eps1 / 2.0
    window = Box.centered(8, 1)
    x0 = hull_start(model1, golden, [0.3, 0.7], window.padded(1))
    return eps, window, quasi_newton_continue(model1, eps, x0, window)


def central_diff_gradient(model, eps, B, x, h=1e-5):
    """Finite-difference gradient of the window energy, one free site at
    a time. Independent of residual_field."""
    interior = B.interior(model.stencil.range)
    out = np.zeros(interior.shape)
    for j, site in enumerate(interior.sites()):
        idx = x.domain.index(site)
        up = x.values.copy()
        dn = x.values.copy()
        up[idx] += h
        dn[idx] -= h
        fu = action(model, eps, B, Configuration(x.domain, up))
        fd = action(model, eps, B, Configuration(x.domain, dn))
        out[np.unravel_index(j, interior.shape)] = (fu - fd) / (2.0 * h)
    return out


def test_residual_field_is_action_gradient_1d(model1, golden, continued):
    eps, window, res = continued
    rng = np.random.default_rng(5)
    B = Box.centered(5, 1)
    vals = res.solution.values + rng.normal(0.0, 2e-3, res.solution.values.shape)
    x = Configuration(res.solution.domain, vals)
    got = residual_field(model1, eps, x, B)
    want = central_diff_gradient(model1, eps, B, x)
    assert np.max(np.abs(got - want)) < 1e-7


def test_residual_field_is_action_gradient_2d(model2):
    eps = model2.constants.eps1 / 2.0
    B = Box.centered(3, 2)
    rng = np.random.default_rng(11)
    phi = step_hull_from_simplex([0.5, 0.5], model2.potential.minima)
    omega = np.asarray([np.sqrt(2.0) - 1.0, np.sqrt(3.0) - 1.0])
    x0 = sample_config(phi, omega, generic_parameter(phi, omega, B.padded(1), 0.3),
                       B.padded(1))
    vals = x0.values + rng.normal(0.0, 2e-3, x0.values.shape)
    x = Configuration(x0.domain, vals)
    got = residual_field(model2, eps, x, B)
    want = central_diff_gradient(model2, eps, B, x)
    assert np.max(np.abs(got - want)) < 1e-7


def test_quasi_newton_converges(model1, continued):
    eps, window, res = continued
    cst = model1.constants
    assert res.final_residual <= 1e-12
    assert 0 < res.iterations <= 60
    # a posteriori: the returned configuration really is stationary
    resid = residual_field(model1, eps, res.solution, window)
    assert np.max(np.abs(resid)) <= 1e-12
    # collar sites stay frozen at the labels
    interior = window.interior(1)
    mask = np.ones(res.solution.domain.shape, dtype=bool)
    mask[interior.slice_in(res.solution.domain)] = False
    assert np.array_equal(res.solution.values[mask], res.labels.values[mask])
    # contraction at the predicted linear rate, displacement at eps scale
    assert res.contraction_rate <= eps * cst.C2 / cst.c + 0.05
    bound = eps * cst.C1 / ((1.0 - cst.contraction_k) * cst.c)
    assert res.displacement <= bound


def test_displacement_scales_with_coupling(model1, golden):
    window = Box.centered(6, 1)
    x0 = hull_start(model1, golden, [0.5, 0.5], window.padded(1))
    eps = model1.constants.eps1 / 2.0
    d_full = quasi_newton_continue(model1, eps, x0, window).displacement
    d_half = quasi_newton_continue(model1, eps / 2.0, x0, window).displacement
    assert 0 < d_half <= 0.6 * d_full


def test_refusals_and_bad_arguments(model1, golden):
    window = Box.centered(5, 1)
    x0 = hull_start(model1, golden, [0.5, 0.5], window.padded(1))
    with pytest.raises(ValueError):
        quasi_newton_continue(model1, -1e-5, x0, window)
    with pytest.raises(ContinuationRefused):
        quasi_newton_continue(model1, 1.5 * model1.constants.eps0, x0, window)
    off = Configuration(x0.domain, x0.values + 0.07)
    with pytest.raises(ContinuationRefused):
        quasi_newton_continue(model1, 1e-4, off, window)
    small = x0.restrict(window)  # missing the collar
    with pytest.raises(ValueError):
        quasi_newton_continue(model1, 1e-4, small, window)


def test_contraction_escape_with_tiny_trust_radius(model1, golden):
    window = Box.centered(5, 1)
    x0 = hull_start(model1, golden, [0.5, 0.5], window.padded(1))
    tight = Model(model1.potential, model1.stencil,
                  replace(model1.constants, delta0=1e-9))
    with pytest.raises(ContractionEscape):
        quasi_newton_continue(tight, model1.constants.eps1 / 2.0, x0, window)


def test_no_convergence_with_starved_iterations(model1, golden, monkeypatch):
    window = Box.centered(5, 1)
    x0 = hull_start(model1, golden, [0.5, 0.5], window.padded(1))
    monkeypatch.setattr(continuation, "MAX_ITER", 1)
    # the step decides, and the message names it and the residual
    with pytest.raises(NoConvergence, match=r"^step \S+ and residual \S+ "
                       r"after 1 sweeps \(tol 1\.0e-12\)$"):
        quasi_newton_continue(model1, model1.constants.eps1 / 2.0, x0, window)


def test_truncation_consistency_bound(model1, golden):
    eps = model1.constants.eps1 / 2.0
    x0 = hull_start(model1, golden, [0.3, 0.7], Box.centered(14, 1))
    out = truncation_consistency(model1, eps, x0, 1e-12, 6, 11)
    assert out["m"] == 5
    assert out["holds"]
    assert 0.0 <= out["measured"] <= out["bound"]
    with pytest.raises(ValueError):
        truncation_consistency(model1, eps, x0, 1e-12, 6, 6)
    with pytest.raises(ValueError):
        truncation_consistency(model1, eps, x0, 1e-12, 6, 30)


def test_truncation_decay_is_geometric_or_faster(model1, golden):
    # the measured reach of an outside label change shrinks by at least
    # a factor of two per interaction range of separation (in fact much
    # faster; it hits the float floor beyond three ranges of separation)
    eps = model1.constants.eps1 / 2.0
    M1 = 6
    logs = []
    for M2 in range(M1 + 1, M1 + 4):
        x0 = hull_start(model1, golden, [0.3, 0.7], Box.centered(M2 + 3, 1))
        out = truncation_consistency(model1, eps, x0, 1e-12, M1, M2)
        assert out["holds"]
        assert out["measured"] > 0.0
        logs.append(np.log2(out["measured"]))
    slopes = np.diff(logs)
    assert np.all(slopes <= -1.0)


def test_defect_vanishes_at_stationary_points(model1, continued):
    eps, window, res = continued
    B = Box.centered(4, 1)
    out = defect(model1, eps, res.labels, res.solution, B)
    assert out.iterations == 0
    assert abs(out.value) <= 1e-10
    assert out.displacement <= 1e-9


def test_defect_matches_line_search_oracle(model1, continued):
    eps, window, res = continued
    B = Box.centered(1, 1)  # interior is the single site 0
    dom = res.solution.domain
    i0 = dom.index(np.zeros(1, dtype=int))
    vals = res.solution.values.copy()
    vals[i0] += 4e-3
    z = Configuration(dom, vals)
    out = defect(model1, eps, res.labels, z, B)
    assert out.value < 0

    # brute force: scan the one free coordinate over the trust interval
    anchor = float(res.labels.values[i0])
    base_energy = action(model1, eps, B, z)
    grid = anchor + np.linspace(-0.9, 0.9, 6001) * model1.constants.delta0
    best = np.inf
    for v in grid:
        w = vals.copy()
        w[i0] = v
        best = min(best, action(model1, eps, B, Configuration(dom, w)))
    oracle = best - base_energy
    assert oracle < 0
    assert abs(out.value - oracle) <= 0.05 * abs(oracle)


def test_defect_guards(model1, continued):
    eps, window, res = continued
    B = Box.centered(2, 1)
    dom = res.solution.domain
    top = model1.potential.maxima[0]
    at_maxima = Configuration(dom, np.full(dom.shape, top))
    with pytest.raises(ContinuationRefused):
        defect(model1, eps, at_maxima, at_maxima, B)
    far = Configuration(dom, res.labels.values + 2.0 * model1.constants.delta0)
    with pytest.raises(ContinuationRefused):
        defect(model1, eps, res.labels, far, B)
    with pytest.raises(ContinuationRefused):
        defect(model1, 1.5 * model1.constants.eps1, res.labels, res.solution, B)


def test_defect_subadditive_over_partitions(model1, continued):
    eps, window, res = continued
    B = Box.centered(4, 1)
    parts = [Box((-4,), (0,)), Box((1,), (4,))]
    for seed in range(10):
        rng = np.random.default_rng(seed)
        noise = np.clip(rng.normal(0.0, 2e-3, res.solution.values.shape),
                        -6e-3, 6e-3)
        z = Configuration(res.solution.domain, res.solution.values + noise)
        out = defect_subadditivity_check(model1, eps, res.labels, z, B, parts)
        assert out["holds"]
        assert out["lhs"] <= out["rhs"] + 1e-9
        assert out["whole"].value <= 1e-15


def test_defect_partition_validation(model1, continued):
    eps, window, res = continued
    B = Box.centered(4, 1)
    z = res.solution
    with pytest.raises(ValueError):
        defect_subadditivity_check(model1, eps, res.labels, z, B,
                                   [Box((-4,), (0,)), Box((0,), (4,))])
    with pytest.raises(ValueError):
        defect_subadditivity_check(model1, eps, res.labels, z, B,
                                   [Box((-4,), (-1,)), Box((1,), (4,))])
    with pytest.raises(ValueError):
        defect_subadditivity_check(model1, eps, res.labels, z, B,
                                   [Box((-4,), (5,))])


def test_continue_lamination_orders_members(model1, golden):
    eps = model1.constants.eps1 / 2.0
    window = Box.centered(10, 1)
    lam = continue_lamination(model1, eps, [0.3, 0.7], golden, window, 6)
    assert len(lam.members) == 6
    s = np.asarray(lam.s_values)
    assert np.all(np.diff(s) > 0)
    assert np.all((s > 0) & (s < 1))
    for a, b in zip(lam.members[:-1], lam.members[1:]):
        diff = b.solution.values - a.solution.values
        assert float(np.min(diff)) >= 0.0
        assert float(np.max(diff)) > 0.0
    # the mirrored matrix is the order of every pair, each way round
    xs = [m.solution.values for m in lam.members]
    assert lam.order == [[_order(b - a) for b in xs] for a in xs]
    assert all(lam.order[a][b] == "1" for b in range(6) for a in range(b))


@pytest.mark.parametrize("d", [1, 2])
def test_lamination_labels_are_sampled_again_bit_for_bit(d, model1, model2):
    model = model1 if d == 1 else model2
    omega = [GOLDEN_MEAN] if d == 1 else [np.sqrt(2.0) - 1.0,
                                          np.sqrt(3.0) - 1.0]
    window = Box.centered(10 if d == 1 else 4, d)
    eps = model.constants.eps1 / 2.0
    lam = continue_lamination(model, eps, [0.3, 0.7], omega, window, 5)
    Bp = window.padded(model.stencil.range)
    phi = step_hull_from_simplex([0.3, 0.7], model.potential.minima)
    for j, member in enumerate(lam.members):
        # no member keeps a copy of its labels
        assert member.labels is None
        s = generic_parameter(phi, omega, Bp, (2 * j + 1) / 10.0)
        assert s == lam.s_values[j]
        x0 = sample_config(phi, omega, s, Bp)
        again = lam.labels(j)
        assert again.domain == Bp
        assert np.array_equal(again.values, x0.values)
        fresh = quasi_newton_continue(model, eps, x0, window)
        assert np.array_equal(again.values, fresh.labels.values)
        assert np.array_equal(member.solution.values, fresh.solution.values)


def test_crossing_members_break_the_lamination(model1, golden, monkeypatch):
    solo = continuation.quasi_newton_continue
    results = []

    def lower_the_second(*args, **kwargs):
        results.append(solo(*args, **kwargs))
        if len(results) == 2:
            # below member 0 on the collar, which the Birkhoff scan skips
            results[1].solution.values.flat[0] -= 1.0
        return results[-1]

    monkeypatch.setattr(continuation, "quasi_newton_continue",
                        lower_the_second)
    eps = model1.constants.eps1 / 2.0
    window = Box.centered(10, 1)
    with pytest.raises(LaminationBroken) as info:
        continue_lamination(model1, eps, [0.3, 0.7], golden, window, 6)
    assert str(info.value) == "members 0 and 1 cross"
    assert info.value.witness == (0, 1, (-11,))
    assert len(results) == 6


def flag_member_off_birkhoff(monkeypatch, member, violation):
    """Make the Birkhoff scan report ``violation`` for one member only;
    returns the list of the members scanned so far."""
    real, seen = continuation.check_birkhoff, []

    def scan(x, k_max):
        seen.append(x)
        if len(seen) == member + 1:
            return OrderVerdict(False, violation)
        return real(x, k_max)

    monkeypatch.setattr(continuation, "check_birkhoff", scan)
    return seen


def test_member_off_birkhoff_is_named_with_its_violation(model1, golden,
                                                         monkeypatch):
    violation = ((1,), 0, (0,), (1,))
    seen = flag_member_off_birkhoff(monkeypatch, 2, violation)
    eps = model1.constants.eps1 / 2.0
    window = Box.centered(10, 1)
    with pytest.raises(NotBirkhoff) as info:
        continue_lamination(model1, eps, [0.3, 0.7], golden, window, 6)
    assert str(info.value) == "lamination member 2 crosses its translate"
    assert info.value.witness == (2, violation)
    assert len(seen) == 3


def test_maximum_labels_break_order(model1, golden):
    eps = model1.constants.eps1 / 2.0
    window = Box.centered(32, 1)
    witness = maximum_breaks_order(model1, eps, golden, window,
                                   critical_kind="maximum")
    assert witness is not None
    assert set(witness) == {"k", "l", "phase", "min", "max",
                            "site_below", "site_above"}
    assert 0 < abs(witness["phase"]) <= 0.45
    assert witness["min"] < 0 < witness["max"]


def test_minimum_labels_preserve_order(model1, golden):
    eps = model1.constants.eps1 / 2.0
    window = Box.centered(16, 1)
    assert maximum_breaks_order(model1, eps, golden, window,
                                critical_kind="minimum") is None


def test_lower_member_breaks_the_lamination_as_below(model1, golden,
                                                    monkeypatch):
    solo = continuation.quasi_newton_continue
    results = []

    def lower_the_second(*args, **kwargs):
        results.append(solo(*args, **kwargs))
        if len(results) == 2:
            # one period down at every site: still Birkhoff, and below
            # member 0 everywhere without crossing it
            results[1].solution.values[...] -= 1.0
        return results[-1]

    monkeypatch.setattr(continuation, "quasi_newton_continue",
                        lower_the_second)
    eps = model1.constants.eps1 / 2.0
    window = Box.centered(10, 1)
    with pytest.raises(LaminationBroken) as info:
        continue_lamination(model1, eps, [0.3, 0.7], golden, window, 6)
    x0, x1 = (r.solution.values for r in results[:2])
    assert _order(x1 - x0) == "-1"
    assert str(info.value) == "member 1 lies below member 0"
    # the first site of the collar, where member 1 - member 0 is least
    assert info.value.witness == (0, 1, (-11,))


def single_well_hull(model, kind):
    """The hull maximum_breaks_order samples: every label at the first
    critical point of the kind, lifted into (0, 1]."""
    pot = model.potential
    crits = pot.maxima if kind == "maximum" else pot.minima
    return HullFunction([1.0], [float(crits[0]) if crits[0] > 0.0 else 1.0])


def reference_breaks_order(model, eps, omega, window, kind, k_scan=34,
                           n_candidates=12, tol=1e-10):
    """Whether maximum_breaks_order found a witness before it reused the
    Birkhoff scan: the single-well solution against up to 12 solutions
    continued at hull phases k . omega + l, smallest |phase| first.

    It tried l = -round(k . omega) and l +- 1 for each k; the last two
    shift the phase by at least 0.5, past the 0.45 cut, so only the
    first is kept here. The phase k . omega + l moves the sampled box
    by k, mod 1, so s is kept generic on the box padded by k_scan."""
    omega = np.asarray(omega, dtype=float)
    cands = []
    for k in Box.centered(k_scan, window.d).sites():
        nz = np.nonzero(k)[0]
        if nz.size == 0 or k[nz[0]] < 0:
            continue
        phase = float(k @ omega) - round(float(k @ omega))
        if 1e-9 <= abs(phase) <= 0.45:
            cands.append(phase)
    phases = sorted(cands, key=abs)[:n_candidates]
    phi = single_well_hull(model, kind)
    Bp = window.padded(model.stencil.range)
    s = generic_parameter(phi, omega, Bp.padded(k_scan), 0.25)
    sl = window.interior(model.stencil.range).slice_in(Bp)

    def solve(shift):
        x0 = sample_config(phi, omega, s + shift, Bp)
        return quasi_newton_continue(model, eps, x0,
                                     window).solution.values[sl]

    base = solve(0.0)
    for phase in phases:
        diff = solve(phase) - base
        if diff.min() < -tol and diff.max() > tol:
            return True
    return False


@pytest.fixture(scope="module")
def model2_three_wells():
    omega = np.asarray([np.sqrt(2.0) - 1.0, np.sqrt(3.0) - 1.0])
    model = build_model(builtin_n_well(3), builtin_harmonic_stencil(2),
                        omega=omega)
    return model, omega


@pytest.mark.parametrize("kind", ["maximum", "minimum"])
@pytest.mark.parametrize("R", [16, 32, 64])
def test_birkhoff_scan_agrees_with_the_phase_search_1d(model1, golden, kind,
                                                       R):
    eps = model1.constants.eps1 / 2.0
    window = Box.centered(R, 1)
    got = maximum_breaks_order(model1, eps, golden, window, critical_kind=kind)
    assert (got is not None) == reference_breaks_order(model1, eps, golden,
                                                       window, kind)
    assert (got is not None) == (kind == "maximum")


@pytest.mark.parametrize("kind", ["maximum", "minimum"])
def test_birkhoff_scan_agrees_with_the_phase_search_2d(model2_three_wells,
                                                       kind):
    model, omega = model2_three_wells
    eps = model.constants.eps1 / 2.0
    window = Box.centered(10, 2)
    got = maximum_breaks_order(model, eps, omega, window, critical_kind=kind)
    assert (got is not None) == reference_breaks_order(model, eps, omega,
                                                       window, kind)
    assert (got is not None) == (kind == "maximum")


@pytest.mark.parametrize("R", [16, 64])
def test_order_witness_matches_a_fresh_continuation(model1, golden, R):
    eps = model1.constants.eps1 / 2.0
    window = Box.centered(R, 1)
    w = maximum_breaks_order(model1, eps, golden, window)
    # the same continuation, redone by hand
    phi = single_well_hull(model1, "maximum")
    Bp = window.padded(1)
    x0 = sample_config(phi, golden, generic_parameter(phi, golden, Bp, 0.25),
                       Bp)
    x = quasi_newton_continue(model1, eps, x0, window).solution
    assert w["phase"] == float(np.dot(w["k"], golden)) + w["l"]
    assert 0 < abs(w["phase"]) <= 0.45
    # x_{i+k} + l - x_i over the scanned overlap, from the translate
    scan = x.restrict(window.interior(3))
    moved = translate(scan, w["k"], w["l"])
    ovl = scan.domain.intersect(moved.domain)
    diff = moved.box_values(ovl) - scan.box_values(ovl)
    assert w["max"] == pytest.approx(float(diff.max()), abs=1e-15)
    assert w["min"] == pytest.approx(float(diff.min()), abs=1e-15)
    assert w["min"] < 0 < w["max"]
    for key, site in (("max", w["site_above"]), ("min", w["site_below"])):
        at = ovl.index(site)
        assert diff[at] == pytest.approx(w[key], abs=1e-15)


@pytest.mark.parametrize("entry", [
    lambda m, eps, w: continue_lamination(m, eps, [0.3, 0.7], w,
                                          Box.centered(10, 1), 2),
    lambda m, eps, w: maximum_breaks_order(m, eps, w, Box.centered(10, 1)),
    lambda m, eps, w: extract_cantorus(
        m, eps, step_hull_from_simplex([0.3, 0.7], m.potential.minima), w,
        Box.centered(10, 1), 2),
    lambda m, eps, w: psi_epsilon(m, eps, [0.3, 0.7], w,
                                  Box.centered(10, 1), 4),
])
def test_entry_points_refuse_a_resonant_omega(model1, entry):
    # sample_config samples any omega; these check it where they start
    with pytest.raises(ValueError, match="within 1e-09 of 1/2"):
        entry(model1, model1.constants.eps1 / 2.0, [0.5])


@pytest.mark.parametrize("kind", ["maximum", "minimum"])
def test_order_search_makes_one_continuation(model1, golden, monkeypatch,
                                             kind):
    solo = continuation.quasi_newton_continue
    calls = []

    def counted(*args, **kwargs):
        calls.append(1)
        return solo(*args, **kwargs)

    monkeypatch.setattr(continuation, "quasi_newton_continue", counted)
    eps = model1.constants.eps1 / 2.0
    maximum_breaks_order(model1, eps, golden, Box.centered(32, 1),
                         critical_kind=kind)
    assert len(calls) == 1


# -- the continuation as first written, kept as the bit-identity reference --

def reference_relax(model, eps, X, Bp, interior, labels, tol, max_iter):
    # re-slices X on every sweep and stops on the frozen-diagonal step
    delta0 = model.constants.delta0
    sl = interior.slice_in(Bp)
    anchor = labels[sl]
    diag = model.potential.d2(anchor)
    rate = 0.0
    prev = None
    disp = 0.0
    it = 0
    while True:
        resid = (model.potential.d1(X[sl])
                 + eps * model.stencil.force(X, Bp, interior))
        sup = float(np.abs(resid).max())
        step = resid / diag
        snorm = float(np.abs(step).max())
        if snorm <= tol:
            return it, sup, rate, disp
        if it >= max_iter:
            raise NoConvergence(f"step {snorm:.3e} and residual {sup:.3e} "
                                f"after {max_iter} sweeps (tol {tol:.1e})")
        X[sl] -= step
        it += 1
        if prev is not None and prev > 1e-13:
            rate = max(rate, snorm / prev)
        prev = snorm
        disp = float(np.abs(X[sl] - anchor).max())
        if disp >= delta0:
            raise ContractionEscape(
                f"iterate left the trust ball: displacement {disp:.3e} "
                f">= delta0 {delta0:.3e}"
            )


def reference_check_labels(potential, values):
    # per-site distances to the nearest critical point, then their maximum
    x = np.mod(np.asarray(values, dtype=float), 1.0)
    d = np.abs(x[..., None] - potential.criticals[None, ...])
    d = np.minimum(d, 1.0 - d)
    dist = np.min(d, axis=-1)
    if float(np.max(dist)) > LABEL_TOL:
        raise ContinuationRefused(
            f"labels must sit at critical points; worst offset "
            f"{float(np.max(dist)):.3g}")


def per_site_check_labels(potential, values, require_minima=False):
    # the (sites x criticals) distance array the check used to build
    dist = np.abs(np.mod(values, 1.0)[..., None] - potential.criticals)
    dist = np.minimum(dist, 1.0 - dist)
    worst = float(dist.min(axis=-1).max())
    if worst > LABEL_TOL:
        raise ContinuationRefused(
            f"labels must sit at critical points; worst offset {worst:.3g}"
        )
    if require_minima:
        at_minimum = np.asarray(potential.kinds) == "minimum"
        if not np.all(at_minimum[np.argmin(dist, axis=-1)]):
            raise ContinuationRefused(
                "this calculus requires labels at local minima")


def check_outcome(check, *args):
    try:
        check(*args)
    except ContinuationRefused as exc:
        return str(exc)
    return None


@pytest.mark.parametrize("seed", range(6))
@pytest.mark.parametrize("require_minima", [False, True])
def test_label_check_over_distinct_values_matches_per_site(
        model1, seed, require_minima):
    rng = np.random.default_rng(seed)
    pool = model1.potential.criticals if seed < 3 else model1.potential.minima
    # repeated critical values, shifted by whole turns, with both zeros,
    # a few off by more or less than LABEL_TOL, and NaN
    values = pool[rng.integers(pool.size, size=(7, 9))] \
        + rng.integers(-2, 3, size=(7, 9))
    values[0, :2] = [0.0, -0.0]
    if seed % 3 == 1:
        values[1, rng.integers(9, size=2)] += [LABEL_TOL / 2, 1e-3 * seed]
    if seed % 3 == 2:
        values[2, 3] = np.nan
    want = check_outcome(per_site_check_labels, model1.potential, values,
                         require_minima)
    got = check_outcome(continuation._check_labels, model1.potential,
                        values, require_minima)
    assert got == want
    assert got == check_outcome(continuation._check_labels, model1.potential,
                                values.ravel()[::-1], require_minima)


def reference_continue(model, eps, x0, B, tol=1e-12, max_iter=MAX_ITER):
    # three copies: the restricted labels, the iterate and the solution
    _refuse_coupling(model.constants, eps, "eps0")
    r = model.stencil.range
    Bp = B.padded(r)
    if not x0.domain.contains_box(Bp):
        raise ValueError("labels must cover the collar around the window")
    labels = x0.restrict(Bp)
    reference_check_labels(model.potential, labels.values)
    X = labels.values.copy()
    it, sup, rate, disp = reference_relax(model, eps, X, Bp, B.interior(r),
                                          labels.values, tol, max_iter)
    return ContinuationResult(Configuration(Bp, X), it, sup, rate, disp,
                              labels=labels)


def assert_same_result(got, want):
    for f in fields(ContinuationResult):
        a, b = getattr(got, f.name), getattr(want, f.name)
        if isinstance(b, Configuration):
            assert a.domain == b.domain, f.name
            assert np.array_equal(a.values, b.values), f.name
        else:
            assert a == b, f.name


def outcome(continue_, *args, **kwargs):
    """The result of a continuation, or the type and text of its error."""
    try:
        return continue_(*args, **kwargs)
    except (ValueError, LamlabError) as exc:
        return type(exc), str(exc)


OMEGAS = {1: [GOLDEN_MEAN], 2: [np.sqrt(2.0) - 1.0, np.sqrt(3.0) - 1.0],
          3: [GOLDEN_MEAN, np.sqrt(2.0) - 1.0, np.sqrt(3.0) - 1.0]}


def reference_case(name):
    """Model, omega, window and weights of one bit-identity case."""
    well2 = builtin_n_well(2)
    potential, stencil, d, radius = {
        "harmonic-1d": (well2, builtin_harmonic_stencil(1), 1, 12),
        "harmonic-2d": (well2, builtin_harmonic_stencil(2), 2, 5),
        "harmonic-3d": (well2, builtin_harmonic_stencil(3), 3, 3),
        "table-1d": (potential_from_table(
            builtin_n_well(3).value(np.arange(64) / 64.0)),
            builtin_harmonic_stencil(1), 1, 10),
        "range2-1d": (well2, range2_stencil(1), 1, 10),
        "range2-2d": (well2, range2_stencil(2), 2, 5),
    }[name]
    omega = np.asarray(OMEGAS[d])
    model = build_model(potential, stencil, omega=omega)
    n = potential.minima.size
    p = np.arange(1, n + 1) / (n * (n + 1) / 2.0)
    return model, omega, Box.centered(radius, d), p


@pytest.mark.parametrize("name", ["harmonic-1d", "harmonic-2d", "harmonic-3d",
                                  "table-1d", "range2-1d", "range2-2d"])
def test_continuation_equals_the_reference_bit_for_bit(name):
    model, omega, window, p = reference_case(name)
    x0 = hull_start(model, omega, p, window.padded(model.stencil.range))
    eps1 = model.constants.eps1
    for eps in (0.0, eps1 / 4.0, eps1 / 2.0, eps1):
        got = quasi_newton_continue(model, eps, x0, window)
        assert got.iterations > 0 or eps == 0.0
        assert_same_result(got, reference_continue(model, eps, x0, window))
        # the solution owns its values: the labels stay as they were
        assert not np.shares_memory(got.solution.values, got.labels.values)
        assert not np.shares_memory(got.solution.values, x0.values)

    # every refusal keeps its type and its message
    eps = eps1 / 2.0
    tight = Model(model.potential, model.stencil,
                  replace(model.constants, delta0=1e-6))
    off = Configuration(x0.domain, x0.values + 0.07)
    cases = [
        (model, eps, x0, window, {"tol": 1e-30}),
        (tight, eps, x0, window, {}),
        (model, eps, off, window, {}),
        (model, eps, x0.restrict(window), window, {}),
        (model, 1.5 * model.constants.eps0, x0, window, {}),
        (model, -1e-5, x0, window, {}),
    ]
    want_types = [NoConvergence, ContractionEscape, ContinuationRefused,
                  ValueError, ContinuationRefused, ValueError]
    for (m, e, x, B, kw), want_type in zip(cases, want_types):
        got = outcome(quasi_newton_continue, m, e, x, B, **kw)
        assert got == outcome(reference_continue, m, e, x, B, **kw)
        assert got[0] is want_type
    # a non-finite label passes _check_labels (its worst offset reads NaN):
    # only Configuration's finiteness check keeps it out
    for bad in (np.nan, np.inf, -np.inf):
        x = Configuration(x0.domain, x0.values)
        x.values.flat[x.values.size // 2] = bad
        got = outcome(quasi_newton_continue, model, eps, x, window)
        assert got == outcome(reference_continue, model, eps, x, window)
        assert got == (ValueError, "configuration values must be finite")


def test_one_continuation_makes_one_force_call_per_residual(monkeypatch,
                                                            model1, golden):
    # the trace's model.force_calls reads sweeps + 1 per continuation
    calls = []
    force = InteractionStencil.force

    def counted(self, *args):
        calls.append(1)
        return force(self, *args)

    monkeypatch.setattr(InteractionStencil, "force", counted)
    window = Box.centered(10, 1)
    x0 = hull_start(model1, golden, [0.3, 0.7], window.padded(1))
    for eps in (0.0, model1.constants.eps1 / 2.0, model1.constants.eps1):
        calls.clear()
        res = quasi_newton_continue(model1, eps, x0, window)
        assert len(calls) == res.iterations + 1
