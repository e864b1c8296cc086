"""Continuation of label configurations away from the uncoupled limit.

At zero coupling every site sits at a critical point of the background;
an assignment of critical points to sites is a label configuration. For
small coupling the implicit function theorem survives in sup norm as a
quasi-Newton iteration whose diagonal is frozen at the labels:

    X <- X - (V'(X) + eps * force(X)) / V''(labels)

run on the interior of a window, with a collar of frozen values around
it. Inside the certified coupling range the iteration contracts and stays
in a trust ball of radius delta0 around the labels, so distinct label
fields continue to distinct solutions.

The same iteration with the start and the frozen collar taken from an
arbitrary nearby configuration computes constrained minimizers, whose
energy gain is the defect used to glue local solutions into laminations:
sampling a step hull along an irrational rotation vector produces ordered
label fields, and their continuations form the lamination leaves.
"""

from dataclasses import dataclass

import numpy as np

from .birkhoff import check_birkhoff
from .errors import (ContinuationRefused, ContractionEscape, LaminationBroken,
                     NoConvergence, NotBirkhoff)
from .hull import (HullFunction, _generic_shift, _phases, check_irrational,
                   generic_parameter, sample_config, step_hull_from_simplex)
from .lattice import Box, Configuration, _as_index

MAX_ITER = 200
LABEL_TOL = 1e-9
# the Birkhoff scan keeps this many stencil ranges off a window's edge
SCAN_MARGIN = 3


def action(model, eps, B, x):
    """Finite-window energy: background over B plus eps times the local
    interaction energies anchored in B. Reads x on the collar around B."""
    pad = B.padded(model.stencil.range)
    if not x.domain.contains_box(pad):
        raise ValueError("configuration must cover the collar around the window")
    v = float(np.sum(model.potential.value(x.values[B.slice_in(x.domain)])))
    s = model.stencil.energy_sum(x.values, x.domain, B)
    return v + eps * s


def residual_field(model, eps, x, B):
    """Gradient of the window energy at the free (interior) sites."""
    r = model.stencil.range
    interior = B.interior(r)
    if not x.domain.contains_box(B.padded(r)):
        raise ValueError("configuration must cover the collar around the window")
    return _residual(model, eps, x.values, x.domain, interior,
                     x.values[interior.slice_in(x.domain)])


def _residual(model, eps, X, domain, interior, inner):
    """V'(x) + eps * force(x) on ``interior``; ``inner`` is X there."""
    return model.potential.d1(inner) + eps * model.stencil.force(X, domain, interior)


_RANGE_NAMES = {"eps0": "certified", "eps1": "convexity"}


def _refuse_coupling(constants, eps, bound):
    """Refuse a negative coupling, or one beyond the named bound.

    ``bound`` is "eps0" (where continuation contracts) or "eps1" (where
    window energies stay convex and sites stay classifiable).
    """
    if eps < 0:
        raise ValueError("coupling must be nonnegative")
    limit = getattr(constants, bound)
    if eps > limit * (1.0 + 1e-12):
        raise ContinuationRefused(
            f"eps {eps:.3g} is beyond the {_RANGE_NAMES[bound]} range "
            f"{bound} = {limit:.3g}"
        )


def _relax(model, eps, X, Bp, interior, labels, tol):
    """Frozen-diagonal sweeps over the interior of Bp, at most MAX_ITER,
    updating X in place.

    ``labels`` holds critical-point values on Bp. The diagonal is V'' at
    the labels of the interior sites, and the iterate must stay within
    delta0 of them there. Returns the sweep count, the final sup
    residual, the largest ratio of consecutive step norms and the final
    distance from the labels.
    """
    delta0 = model.constants.delta0
    sl = interior.slice_in(Bp)
    anchor = labels[sl]
    diag = model.potential.d2(anchor)
    # a view: updating it updates X, which the force reads
    Xi = X[sl]
    rate = 0.0
    prev = None
    disp = 0.0
    it = 0
    while True:
        resid = _residual(model, eps, X, Bp, interior, Xi)
        sup = float(np.abs(resid).max())
        if sup <= tol:
            return it, sup, rate, disp
        if it >= MAX_ITER:
            raise NoConvergence(
                f"residual {sup:.3e} after {MAX_ITER} sweeps (tol {tol:.1e})"
            )
        step = resid / diag
        Xi -= step
        it += 1
        snorm = float(np.abs(step).max())
        if prev is not None and prev > 1e-13:
            rate = max(rate, snorm / prev)
        prev = snorm
        disp = float(np.abs(Xi - anchor).max())
        if disp >= delta0:
            raise ContractionEscape(
                f"iterate left the trust ball: displacement {disp:.3e} "
                f">= delta0 {delta0:.3e}"
            )


def _check_labels(potential, values, require_minima=False):
    # distance mod 1 from every distinct value to every critical point; NaN
    # and ±inf give a NaN worst offset, which passes: Configuration refuses them
    values = np.sort(np.mod(values, 1.0), axis=None)
    keep = np.ones(values.size, bool)
    keep[1:] = values[1:] != values[:-1]
    dist = np.abs(values[keep][:, None] - potential.criticals)
    dist = np.minimum(dist, 1.0 - dist)
    worst = float(dist.min(axis=-1).max())
    if worst > LABEL_TOL:
        raise ContinuationRefused(
            f"labels must sit at critical points; worst offset {worst:.3g}"
        )
    if require_minima:
        at_minimum = np.asarray(potential.kinds) == "minimum"
        if not np.all(at_minimum[np.argmin(dist, axis=-1)]):
            raise ContinuationRefused("this calculus requires labels at local minima")


@dataclass
class ContinuationResult:
    solution: Configuration
    iterations: int
    final_residual: float
    contraction_rate: float
    displacement: float
    labels: Configuration | None = None


def quasi_newton_continue(model, eps, x0, B, tol=1e-12):
    """Continue a label configuration over the window B.

    ``x0`` must cover the collar around B and hold critical-point values;
    the collar stays frozen at the labels. Refuses couplings beyond eps0.
    Escaping the trust ball of radius delta0 around the labels aborts the
    run, and so does failing to reach ``tol`` within MAX_ITER sweeps.
    """
    _refuse_coupling(model.constants, eps, "eps0")
    r = model.stencil.range
    Bp = B.padded(r)
    if not x0.domain.contains_box(Bp):
        raise ValueError("labels must cover the collar around the window")
    labels = x0.restrict(Bp)
    _check_labels(model.potential, labels.values)

    X = labels.values.copy()
    it, sup, rate, disp = _relax(model, eps, X, Bp, B.interior(r),
                                 labels.values, tol)
    # a converged iterate is finite: a NaN residual never meets tol
    return ContinuationResult(Configuration._adopt(Bp, X), it, sup, rate,
                              disp, labels=labels)


def scan_birkhoff(model, window, x, k_max):
    """Birkhoff verdict of a solution x continued over ``window``, read
    on its interior at range SCAN_MARGIN * r = 3r: values within 2r of
    the frozen collar are kept out, since the collar suppresses their
    relaxation at eps^2 scale with a pattern-dependent sign, which fakes
    crossings at tie translates."""
    scan = window.interior(SCAN_MARGIN * model.stencil.range)
    return check_birkhoff(x.restrict(scan), k_max)


def truncation_consistency(model, eps, x0, tol, M1, M2):
    """How far label changes outside a ball reach into its interior.

    Continues two label fields over the same window: ``x0`` itself, and
    ``x0`` shifted up by a full period at every site outside the ball of
    radius M2. Returns the sup difference of the two solutions on the
    ball of radius M1. Each quasi-Newton sweep propagates the
    disagreement inward by one interaction range while the contraction
    halves the remaining error, so the certified bound is
    2 * delta0 * 2**(-m) with m = floor((M2 - M1) / r); this is what
    makes finite windows stand in for the infinite lattice.
    """
    r = model.stencil.range
    M1, M2 = _as_index(M1, "M1"), _as_index(M2, "M2")
    if M2 < M1 + r:
        raise ValueError("need M2 >= M1 + r to separate the balls")
    d = x0.domain.d
    # window large enough that the disagreeing sites include a full
    # stencil range of free sites beyond the agreement ball
    window = Box.centered(M2 + 2 * r, d)
    Bp = window.padded(r)
    if not x0.domain.contains_box(Bp):
        raise ValueError(
            f"labels must cover the ball of radius {M2 + 3 * r} "
            "(window plus collar around the disagreement region)"
        )
    x0 = x0.restrict(Bp)
    outside = np.max(np.abs(Bp.sites()), axis=1) > M2
    shifted = x0.values.copy()
    shifted.ravel()[outside] += 1.0
    y0 = Configuration(Bp, shifted)

    B1 = Box.centered(M1, d)
    a = quasi_newton_continue(model, eps, x0, window, tol=tol)
    b = quasi_newton_continue(model, eps, y0, window, tol=tol)
    measured = float(np.max(np.abs(a.solution.box_values(B1)
                                   - b.solution.box_values(B1))))
    m = (M2 - M1) // r
    bound = 2.0 * model.constants.delta0 * 2.0 ** (-m)
    return {
        "measured": measured,
        "bound": bound,
        "m": m,
        "M1": M1,
        "M2": M2,
        "holds": measured <= bound + 1e-15,
    }


@dataclass
class DefectResult:
    value: float
    displacement: float
    iterations: int


def defect(model, eps, base, z, B):
    """Energy gained by relaxing z on the interior of B, boundary frozen.

    ``base`` holds minimum labels anchoring the frozen Newton diagonal and
    the trust ball; ``z`` must start inside that ball. The window energy
    is convex there for couplings up to eps1, so the relaxed configuration
    is the unique constrained minimizer and the returned value is
    nonpositive, vanishing exactly when z was already stationary on the
    interior.
    """
    cst = model.constants
    _refuse_coupling(cst, eps, "eps1")
    r = model.stencil.range
    Bp = B.padded(r)
    if not (base.domain.contains_box(Bp) and z.domain.contains_box(Bp)):
        raise ValueError("base and start must cover the collar around the window")
    base = base.restrict(Bp)
    z = z.restrict(Bp)
    _check_labels(model.potential, base.values, require_minima=True)
    start_off = float(np.max(np.abs(z.values - base.values)))
    if start_off >= cst.delta0:
        raise ContinuationRefused(
            f"start lies {start_off:.3g} from the base labels, outside the "
            f"trust radius {cst.delta0:.3g}"
        )

    interior = B.interior(r)
    sl = interior.slice_in(Bp)
    X = z.values.copy()
    it = _relax(model, eps, X, Bp, interior, base.values, 1e-12)[0]
    value = action(model, eps, B, Configuration(Bp, X)) - action(model, eps, B, z)
    disp = float(np.max(np.abs(X[sl] - z.values[sl])))
    return DefectResult(value, disp, it)


def defect_subadditivity_check(model, eps, base, z, B, parts, tol=1e-9):
    """Whole-window defect against the sum over a partition of the window.

    The parts must be disjoint boxes tiling B exactly. Local relaxations
    freeze more sites than the joint one, so the joint defect is at most
    the sum of the local ones.
    """
    total = 0
    for i, part in enumerate(parts):
        if not B.contains_box(part):
            raise ValueError(f"part {i} is not contained in the window")
        total += part.size
        for other in parts[i + 1:]:
            if part.intersect(other) is not None:
                raise ValueError("parts overlap")
    if total != B.size:
        raise ValueError("parts do not tile the window")
    whole = defect(model, eps, base, z, B)
    locals_ = [defect(model, eps, base, z, part) for part in parts]
    lhs = whole.value
    rhs = float(sum(d.value for d in locals_))
    return {
        "lhs": lhs,
        "rhs": rhs,
        "holds": lhs <= rhs + tol,
        "whole": whole,
        "parts": locals_,
    }


def _order(diff):
    """Order of one member against another from their difference, up to
    LABEL_TOL: "0" equal, "1" above, "-1" below, "x" crossing."""
    below, above = np.min(diff) < -LABEL_TOL, np.max(diff) > LABEL_TOL
    return "x" if below and above else "-1" if below else "1" if above else "0"


_MIRROR = {"0": "0", "1": "-1", "-1": "1", "x": "x"}


def _ordering_matrix(xs, by_s):
    """``_order(b - a)`` for every pair of arrays a, b of ``xs``, where
    ``by_s`` lists the indices of ``xs`` in s-order.

    A link between s-neighbours is exact when the upper array is >= the
    lower at every site and above it by more than LABEL_TOL somewhere.
    fl(b - a) has the sign of b - a and rounding is monotone, so along a
    chain of exact links every later array minus an earlier one rounds
    to >= 0 everywhere and, at the first link's witness site, to at least
    that link's difference: "1". Every other pair is computed. Rounding
    is symmetric, so fl(b - a) = -fl(a - b) exactly and one direction of
    a pair decides the other; the diagonal is "0".
    """
    n = len(xs)
    # chain[k]: the least s-rank joined to rank k by exact links
    chain = list(range(n))
    for k in range(1, n):
        diff = xs[by_s[k]] - xs[by_s[k - 1]]
        if np.min(diff) >= 0.0 and np.max(diff) > LABEL_TOL:
            chain[k] = chain[k - 1]
    matrix = [["0"] * n for _ in xs]
    for ka, a in enumerate(by_s):
        for kb in range(ka + 1, n):
            b = by_s[kb]
            order = ("1" if chain[kb] == chain[ka]
                     else _order(xs[b] - xs[a]))
            matrix[a][b], matrix[b][a] = order, _MIRROR[order]
    return matrix


@dataclass
class LaminationResult:
    """``members[j]`` continues the sample at parameter ``s_values[j]``
    of ``hull`` over the sites whose phases omega . i are ``phases``;
    ``order[a][b]`` is ``_order`` of member b minus member a: "1" above,
    "-1" below, "0" equal, "x" crossing. Members keep no labels:
    ``labels(j)`` samples them again."""
    members: list
    s_values: list
    order: list
    hull: HullFunction
    phases: np.ndarray

    def labels(self, j):
        """The labels member j was continued from, bit for bit."""
        return Configuration(self.members[j].solution.domain,
                             self.hull.value(self.s_values[j] + self.phases))


def continue_lamination(model, eps, p, omega, window, n_samples,
                        tol=1e-12, k_max=2):
    """Continue a family of hull samples into an ordered lamination window.

    The hull is the step function whose plateau lengths are the simplex
    weights p over the wells of the background. Sample parameters start at
    the midpoints (2j+1)/(2n) and are nudged off plateau boundaries.
    Members are continued over ``window`` one after another, in member
    order; each is checked for the Birkhoff property, and the family is
    ordered pairwise. A member that lies below or crosses the next one
    in s raises LaminationBroken.
    """
    n_samples = _as_index(n_samples, "n_samples")
    omega = check_irrational(omega)
    phi = step_hull_from_simplex(p, model.potential.minima)
    Bp = window.padded(model.stencil.range)
    # one set of phases for the family, as generic_parameter and
    # sample_config would compute for each member
    phases = _phases(omega, Bp)
    s_values = [_generic_shift(phi, phases, (2 * j + 1) / (2.0 * n_samples))
                for j in range(n_samples)]
    members = []
    for s in s_values:
        member = quasi_newton_continue(
            model, eps, Configuration(Bp, phi.value(s + phases)), window,
            tol=tol)
        # a copy per member would grow with the family; labels(j) resamples
        member.labels = None
        members.append(member)
    for j, member in enumerate(members):
        verdict = scan_birkhoff(model, window, member.solution, k_max)
        if not verdict.ordered:
            raise NotBirkhoff(
                f"lamination member {j} crosses its translate",
                witness=(j, verdict.violation),
            )

    by_s = np.argsort(s_values)
    order = _ordering_matrix([m.solution.values for m in members], by_s)
    for a, b in zip(by_s[:-1], by_s[1:]):
        if order[a][b] in ("-1", "x"):
            diff = members[b].solution.values - members[a].solution.values
            site = Bp.sites()[int(np.argmin(diff))]
            raise LaminationBroken(
                f"members {a} and {b} cross" if order[a][b] == "x"
                else f"member {b} lies below member {a}",
                witness=(int(a), int(b), tuple(site.tolist())),
            )
    return LaminationResult(members, s_values, order, phi, phases)


def maximum_breaks_order(model, eps, omega, window, critical_kind="maximum"):
    """Birkhoff scan of one continued single-well configuration.

    All labels sit at one critical point of the given kind. For minimum
    labels the frozen-diagonal iteration is monotone and order survives
    continuation (returns None); for maximum labels it is not, and the
    scan's crossing translate is returned: k, l, the hull phase
    k . omega + l, and at its two sites the offsets x_{i+k} + l - x_i,
    which are their extremes over the scanned overlap.
    """
    omega = check_irrational(omega)
    pot = model.potential
    crits = pot.maxima if critical_kind == "maximum" else pot.minima
    lift = float(crits[0]) if crits[0] > 0.0 else 1.0
    phi = HullFunction([1.0], [lift])
    Bp = window.padded(model.stencil.range)
    s = generic_parameter(phi, omega, Bp, 0.25)
    x = quasi_newton_continue(model, eps, sample_config(phi, omega, s, Bp),
                              window).solution
    # depth 2, the default k_max of continue_lamination and of the CLI
    verdict = scan_birkhoff(model, window, x, 2)
    if verdict.ordered:
        return None
    k, l, above, below = verdict.violation

    def offset(i):
        return float(x.values[Bp.index(np.add(i, k))] - x.values[Bp.index(i)] + l)

    return {"k": k, "l": l, "phase": float(np.dot(k, omega)) + l,
            "site_above": above, "max": offset(above),
            "site_below": below, "min": offset(below)}
