"""Property suite behind the verify command.

Each check is a named, seeded, self-contained probe of one structural
property the rest of the package leans on. Checks return pass/fail plus a
one-line detail; tolerances can be overridden per check name, which also
makes deliberate tampering visible as a localized failure.
"""

from dataclasses import dataclass

import numpy as np

from .birkhoff import check_comparison_principle, check_minmax_inequality, meet_join, translate
from .continuation import (action, defect_subadditivity_check,
                           quasi_newton_continue, residual_field)
from .hull import (GOLDEN_MEAN, generic_parameter, sample_config,
                   step_hull_from_simplex)
from .lattice import Box, Configuration
from .measure import measure_from_hull, vague_distance
from .model import (_fixed_uniform, build_model, builtin_harmonic_stencil,
                    builtin_n_well, estimate_constants)


@dataclass
class CheckRow:
    name: str
    passed: bool
    detail: str


def _random_simplex(rng, n):
    w = rng.uniform(0.1, 1.0, n)
    return w / w.sum()


def _sampled_labels(model, rng, window):
    omega = (np.full(window.d, GOLDEN_MEAN)
             + rng.uniform(-0.05, 0.05, window.d))
    p = _random_simplex(rng, model.potential.minima.size)
    phi = step_hull_from_simplex(p, model.potential.minima)
    Bp = window.padded(model.stencil.range)
    s = generic_parameter(phi, omega, Bp, rng.uniform(0.1, 0.9))
    return sample_config(phi, omega, s, Bp), omega


def check_constants_envelope(model, tol=1e-12):
    cst = model.constants
    redo = estimate_constants(model.potential, model.stencil, cst.osc_bound_K,
                              k=cst.contraction_k)
    drift = max(abs(getattr(redo, f) - getattr(cst, f))
                for f in ("c", "C1", "C2", "delta0", "eps0", "eps1"))
    ok = drift <= tol and cst.eps1 <= cst.eps0 + tol and cst.eps0 > 0
    want0 = min(cst.contraction_k * cst.c / (2 * cst.C2),
                (1 - cst.contraction_k) * cst.delta0 * cst.c / cst.C1)
    want1 = min(2 * cst.c / cst.C2, cst.eps0)
    ok = ok and abs(cst.eps0 - want0) <= tol and abs(cst.eps1 - want1) <= tol
    return ok, f"re-estimate drift {drift:.2e}, eps0 {cst.eps0:.3g}, eps1 {cst.eps1:.3g}"


def check_stencil_signs(model, tol=1e-12):
    S = model.stencil
    m = len(S.offsets)
    h = S.hessian(_fixed_uniform(-2.0, 2.0, (32, m)))
    worst_off = float(np.max(np.where(np.eye(m, dtype=bool), 0.0, h)))
    worst_unit = float(np.max(h[:, S.center, S.unit_indices]))
    ok = worst_off <= tol and worst_unit < 0.0
    return ok, (f"max mixed derivative {worst_off:.2e}, "
                f"max center-bond coupling {worst_unit:.2e}")


def check_background(model, tol=1e-9):
    # relative to the sampled magnitudes of V and V', as construction
    # checks them; alternation and the Morse gap hold for every Potential
    V = model.potential
    s = np.linspace(0.0, 1.0, 257)[:-1]
    per = float(np.max(np.abs(V.value(s + 1.0) - V.value(s))))
    resid = float(np.max(np.abs(V.d1(V.criticals))))
    ok = per <= tol * V.scales[0] and resid <= tol * V.scales[1]
    return ok, (f"periodicity {per:.2e}, critical residual {resid:.2e}, "
                f"gap {V.morse_gap:.3g}")


def check_gradient_consistency(model, tol=1e-5, seed=0):
    rng = np.random.default_rng(seed)
    r, d = model.stencil.range, model.stencil.d
    B = Box.centered(2 * r + 1, d)
    Bp = B.padded(r)
    eps = model.constants.eps1 / 2.0
    x = Configuration(Bp, rng.uniform(-1.0, 1.0, Bp.size))
    grad = residual_field(model, eps, x, B)
    interior = B.interior(r)
    h = 1e-6
    worst = 0.0
    for idx, site in enumerate(interior.sites()):
        bump = np.zeros(Bp.shape)
        bump[Bp.index(site)] = h
        up = action(model, eps, B, Configuration(Bp, x.values + bump))
        dn = action(model, eps, B, Configuration(Bp, x.values - bump))
        fd = (up - dn) / (2.0 * h)
        worst = max(worst, abs(fd - grad.ravel()[idx]))
    ok = worst <= tol
    return ok, f"max |finite difference - gradient| {worst:.2e}"


def check_min_max(model, tol=1e-10, seed=0):
    rng = np.random.default_rng(seed)
    r, d = model.stencil.range, model.stencil.d
    B = Box.centered(2 * r + 1, d)
    Bp = B.padded(r)
    eps = model.constants.eps1 / 2.0
    lim = (model.constants.osc_bound_K + 1.0) / 2.0
    worst = np.inf
    for _ in range(100):
        x = Configuration(Bp, rng.uniform(-lim, lim, Bp.size))
        y = Configuration(Bp, rng.uniform(-lim, lim, Bp.size))
        out = check_minmax_inequality(model, eps, B, x, y, tol=tol)
        worst = min(worst, out["gap"])
        if not out["holds"]:
            return False, f"violated with gap {out['gap']:.3e}"
        lo, hi = meet_join(x, y)
        ordered = check_minmax_inequality(model, eps, B, lo, hi, tol=tol)
        if ordered["gap"] != 0.0:
            return False, f"ordered pair gave nonzero gap {ordered['gap']:.3e}"
    return True, f"100 pairs, smallest gap {worst:.3e}"


def check_comparison(model, tol=1e-8, seed=0):
    rng = np.random.default_rng(seed)
    r, d = model.stencil.range, model.stencil.d
    B = Box.centered(6 * r + 2, d)
    eps = model.constants.eps1 / 2.0
    for t in range(3):
        labels, _ = _sampled_labels(model, rng, B)
        res = quasi_newton_continue(model, eps, labels, B, tol=1e-13)
        lifted = translate(res.solution, np.zeros(d, dtype=int), 1)
        out = check_comparison_principle(model, eps, B, res.solution, lifted,
                                         tol=tol)
        if out["verdict"] != "strictly-less":
            return False, f"trial {t}: verdict {out['verdict']}"
    return True, "3 continued pairs strictly ordered"


def check_subadditivity(model, tol=1e-9, seed=0):
    rng = np.random.default_rng(seed)
    r, d = model.stencil.range, model.stencil.d
    B = Box.centered(6 * r, d)
    Bp = B.padded(r)
    eps = model.constants.eps1 / 2.0
    delta0 = model.constants.delta0
    for t in range(20):
        base, _ = _sampled_labels(model, rng, B)
        z = Configuration(Bp, base.values
                          + rng.uniform(-0.4 * delta0, 0.4 * delta0, Bp.shape))
        cut = int(rng.integers(B.lo[0] + 2 * r + 1, B.hi[0] - 2 * r))
        left = Box(B.lo, (cut,) + tuple(B.hi[1:]))
        right = Box((cut + 1,) + tuple(B.lo[1:]), B.hi)
        out = defect_subadditivity_check(model, eps, base, z, B, [left, right],
                                         tol=tol)
        if not out["holds"]:
            return False, (f"trial {t}: whole {out['lhs']:.3e} "
                           f"> parts {out['rhs']:.3e}")
    return True, "20 partitions subadditive"


def check_hull_axioms(model, tol=1e-9, seed=0):
    rng = np.random.default_rng(seed)
    minima = model.potential.minima
    window = Box.centered(8, 1)
    for t in range(20):
        p = _random_simplex(rng, minima.size)
        phi = step_hull_from_simplex(p, minima)
        s = rng.uniform(0.0, 1.0, 50)
        lo = phi.value(s)
        hi = phi.value_upper(s)
        if np.any(hi - lo < -tol):
            return False, f"upper hull below lower at sample {t}"
        if np.max(np.abs(phi.value(s + 1.0) - lo - 1.0)) > tol:
            return False, "periodicity defect"
        both = np.sort(rng.uniform(-2.0, 2.0, 2))
        if phi.value(both[0]) > phi.value(both[1]) + tol:
            return False, "monotonicity defect"
        omega = np.asarray([GOLDEN_MEAN + rng.uniform(-0.05, 0.05)])
        s0 = generic_parameter(phi, omega, window.padded(2), rng.uniform(0, 1))
        x = sample_config(phi, omega, s0, window.padded(2))
        k = np.asarray([int(rng.integers(-2, 3))])
        l = int(rng.integers(-2, 3))
        shifted = sample_config(phi, omega, s0 + float(k @ omega) + l, window)
        direct = translate(x, k, l).restrict(window)
        if np.max(np.abs(shifted.values - direct.values)) > tol:
            return False, f"translate covariance defect at sample {t}"
    return True, "1000 randomized hull samples pass"


def check_measure_round_trip(model, tol=0.0, seed=0):
    rng = np.random.default_rng(seed)
    minima = model.potential.minima
    for t in range(50):
        p = _random_simplex(rng, minima.size)
        mu = measure_from_hull(step_hull_from_simplex(p, minima))
        back = np.asarray([mu.mass_at(sig) for sig in minima])
        if np.max(np.abs(back - p)) > tol:
            return False, f"trial {t}: mass drift {np.max(np.abs(back - p)):.3e}"
        if vague_distance(mu, mu) != 0.0:
            return False, "self distance nonzero"
    return True, "50 simplex points recovered exactly"


CHECKS = [
    ("constants-envelope", check_constants_envelope),
    ("stencil-sign-condition", check_stencil_signs),
    ("background-potential", check_background),
    ("gradient-consistency", check_gradient_consistency),
    ("min-max-inequality", check_min_max),
    ("comparison-principle", check_comparison),
    ("defect-subadditivity", check_subadditivity),
    ("hull-axioms", check_hull_axioms),
    ("measure-round-trip", check_measure_round_trip),
]


def run_suite(model=None, seed=0, overrides=None):
    """Run every check; returns a list of CheckRow. A check that raises
    gets a failing row naming the exception, and the next check runs."""
    if model is None:
        model = build_model(builtin_n_well(2), builtin_harmonic_stencil(1),
                            omega=[GOLDEN_MEAN])
    overrides = overrides or {}
    rows = []
    for name, fn in CHECKS:
        kwargs = {}
        if name in overrides:
            kwargs["tol"] = float(overrides[name])
        if "seed" in fn.__code__.co_varnames:
            kwargs["seed"] = seed
        try:
            passed, detail = fn(model, **kwargs)
        except Exception as exc:
            passed, detail = False, f"{type(exc).__name__}: {exc}"
        rows.append(CheckRow(name, bool(passed), detail))
    return rows
