"""Translation order of configurations: Birkhoff property and comparison.

The lattice group acts on configurations by tau_{k,l} x_i = x_{i+k} + l.
A configuration is Birkhoff when every translate compares with it in the
pointwise partial order, never crossing it. On a finite window the check
is over translates with |k| and |l| bounded; crossings come with an
explicit witness. The min/max inequality and the strong comparison
principle are the order-theoretic workhorses behind gluing solutions into
laminations, and both are checkable on finite boxes.
"""

from dataclasses import dataclass, field

import numpy as np

from .errors import CheckInconclusive
from .lattice import Box, Configuration

TIE_TOL = 1e-9


def translate(x, k, l):
    """The translate tau_{k,l} x, defined on the shifted domain.

    (tau_{k,l} x)_i = x_{i+k} + l, so the value array is reused and the
    domain moves by -k.
    """
    k = np.atleast_1d(np.asarray(k, dtype=int))
    if k.size != x.domain.d:
        raise ValueError("shift dimension mismatch")
    return Configuration(x.domain.shift(-k), x.values + float(l))


@dataclass
class OrderVerdict:
    """Outcome of a Birkhoff order scan over a family of translates."""
    ordered: bool
    violation: tuple | None
    ties: list = field(default_factory=list)
    degenerate: list = field(default_factory=list)
    k_max: int = 0
    l_max: int = 0


def check_birkhoff(x, k_max, l_max=None, tol=TIE_TOL):
    """Scan all translates with |k|_inf <= k_max, |l| <= l_max for order.

    Returns an OrderVerdict. ``violation`` holds (k, l, i, j) where the
    translate is above x at site i and below at site j. ``ties`` collects
    translates that touch x somewhere without crossing; ``degenerate``
    collects translates indistinguishable from x on the whole overlap,
    which signals a resonant sample rather than a crossing.

    Pass only sites whose values are free of boundary effects: a window
    solution must be restricted away from its frozen collar first, since
    collar-adjacent values are biased at second order in the coupling
    and a translate can pair them against unbiased bulk values.

    For each k only the l in [ceil(-max - tol), floor(-min + tol)] are
    scanned, where max and min are the extremes of x_{i+k} - x_i over
    the overlap, widened by one on each side against rounding in ceil
    and floor. Every l below that range puts the translate strictly
    below x and every l above it strictly above, so none of them can
    cross, tie or be degenerate; the scanned l still rise within each k,
    so the verdict, the witness and the order of ``ties`` and
    ``degenerate`` are those of the full scan over [-l_max, l_max].
    """
    d = x.domain.d
    if l_max is None:
        spread = float(np.max(x.values) - np.min(x.values))
        l_max = int(np.ceil(spread)) + 1
    verdict = OrderVerdict(True, None, [], [], int(k_max), int(l_max))
    shifted_overlaps = 0
    for k in Box.centered(int(k_max), d).sites():
        ovl = x.domain.intersect(x.domain.shift(-k))
        if ovl is None:
            continue
        if np.any(k):
            shifted_overlaps += 1
        base = (x.values[ovl.shift(k).slice_in(x.domain)]
                - x.values[ovl.slice_in(x.domain)])
        flat = base.ravel()
        hi_at = int(np.argmax(flat))
        lo_at = int(np.argmin(flat))
        mx, mn = float(flat[hi_at]), float(flat[lo_at])
        l_lo = max(-l_max, int(np.ceil(-mx - tol)) - 1)
        l_hi = min(l_max, int(np.floor(-mn + tol)) + 1)
        for l in range(l_lo, l_hi + 1):
            if l == 0 and not np.any(k):
                continue
            above = mx + l > tol
            below = mn + l < -tol
            if above and below:
                sites = ovl.sites()
                witness = (tuple(k.tolist()), l,
                           tuple(sites[hi_at].tolist()), tuple(sites[lo_at].tolist()))
                return OrderVerdict(False, witness, verdict.ties,
                                    verdict.degenerate, int(k_max), int(l_max))
            if not above and not below:
                verdict.degenerate.append((tuple(k.tolist()), l))
            elif mx + l >= -tol and mn + l <= tol:
                # touches the zero level without crossing it
                verdict.ties.append((tuple(k.tolist()), l))
    if int(k_max) > 0 and shifted_overlaps == 0:
        raise ValueError("window too small: no shifted translate overlaps it")
    return verdict


def meet_join(x, y):
    """Sitewise minimum and maximum on a shared domain."""
    if x.domain != y.domain:
        raise ValueError("meet/join requires identical domains")
    return (Configuration(x.domain, np.minimum(x.values, y.values)),
            Configuration(x.domain, np.maximum(x.values, y.values)))


def check_minmax_inequality(model, eps, B, x, y, tol=1e-10):
    """Finite-window submodularity: W(meet) + W(join) <= W(x) + W(y).

    The inequality is what the ferromagnetic sign condition buys at the
    level of energies; it holds for every pair on every box. Returns a
    dict with both sides, the gap, and the verdict.
    """
    from .continuation import action

    lo, hi = meet_join(x, y)
    lhs = action(model, eps, B, lo) + action(model, eps, B, hi)
    rhs = action(model, eps, B, x) + action(model, eps, B, y)
    return {
        "lhs": lhs,
        "rhs": rhs,
        "gap": rhs - lhs,
        "holds": lhs <= rhs + tol,
    }


def check_comparison_principle(model, eps, B, x, y, tol=1e-8):
    """Strong comparison on a box: ordered solutions are equal or strict.

    Preconditions: eps > 0, both configurations are stationary on the
    interior of B (sup residual below tol), and x <= y on the whole
    domain. The verdict is "identical" when the two agree on the interior,
    "strictly-less" when y - x is positive everywhere there, and
    "violated" when the difference vanishes somewhere but not everywhere,
    which contradicts strong comparison for a ferromagnetic interaction.
    """
    from .continuation import residual_field

    if eps <= 0:
        raise ValueError("comparison needs eps > 0; at eps = 0 sites decouple")
    if x.domain != y.domain:
        raise ValueError("configurations must share a domain")
    for z, name in ((x, "lower"), (y, "upper")):
        resid = residual_field(model, eps, z, B)
        sup = float(np.max(np.abs(resid)))
        if sup > tol:
            raise CheckInconclusive(
                f"{name} configuration is not stationary on the interior "
                f"(sup residual {sup:.3g})"
            )
    if np.min(y.values - x.values) < -TIE_TOL:
        raise ValueError("comparison requires x <= y on the whole domain")

    interior = B.interior(model.stencil.range)
    diff = (y.values[interior.slice_in(x.domain)]
            - x.values[interior.slice_in(x.domain)])
    lo = float(np.min(diff))
    hi = float(np.max(diff))
    if hi <= TIE_TOL:
        verdict = "identical"
    elif lo > TIE_TOL:
        verdict = "strictly-less"
    else:
        verdict = "violated"
    return {"verdict": verdict, "margin": lo, "max_gap": hi}
