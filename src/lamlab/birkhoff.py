"""Translation order of configurations: Birkhoff property and comparison.

The lattice group acts on configurations by tau_{k,l} x_i = x_{i+k} + l.
A configuration is Birkhoff when every translate compares with it in the
pointwise partial order, never crossing it. On a finite window the check
is over translates with |k| bounded, and each k has one candidate lift l;
crossings come with an explicit witness. The min/max inequality and the
strong comparison principle are the order-theoretic workhorses behind
gluing solutions into laminations, and both are checkable on finite
boxes.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import CheckInconclusive
from .lattice import Box, Configuration, _as_index

TIE_TOL = 1e-9


def translate(x, k, l):
    """The translate tau_{k,l} x, defined on the shifted domain.

    (tau_{k,l} x)_i = x_{i+k} + l, so the value array is reused and the
    domain moves by -k; k is a shift of ``Box.shift``.
    """
    return Configuration(x.domain.shift(np.negative(k)), x.values + float(l))


@dataclass
class OrderVerdict:
    """Outcome of a Birkhoff order scan over a family of translates."""
    ordered: bool
    violation: tuple | None


def check_birkhoff(x, k_max, tol=TIE_TOL):
    """Scan all translates with |k|_inf <= k_max for a crossing of x.

    Returns an OrderVerdict. ``violation`` holds (k, l, i, j) for the
    first crossing k in lexicographic order: the translate tau_{k,l} x
    is above x at site i and below it at site j.

    Pass only sites whose values are free of boundary effects: a window
    solution must be restricted away from its frozen collar first, since
    collar-adjacent values are biased at second order in the coupling
    and a translate can pair them against unbiased bulk values.

    Only the k whose translate overlaps the window are visited, so a
    k_max beyond the window costs nothing. With max and min the extremes
    of x_{i+k} - x_i over the overlap, the translate is above x somewhere
    (max + l > tol) only from some l on, and below it somewhere
    (min + l < -tol) only up to some l; so k crosses exactly when the
    least l of the first kind is also of the second, and that l is the
    one witness tried.
    """
    k_max = _as_index(k_max, "k_max")
    dom = x.domain
    if not np.ptp(x.values) < 2.0 ** 52:
        # then |mx| < 2**52, so tol - mx rounds by at most 1/2 and mx + l
        # is exact near tol: one corrective step of l below suffices
        raise ValueError("configuration values must span less than 2**52")
    reach = tuple(min(k_max, n - 1) for n in dom.shape)
    if k_max > 0 and not any(reach):
        raise ValueError("window too small: no shifted translate overlaps it")
    for k in Box(tuple(-a for a in reach), reach).sites():
        ovl = dom.intersect(dom.shift(-k))
        flat = (x.values[ovl.shift(k).slice_in(dom)]
                - x.values[ovl.slice_in(dom)]).ravel()
        hi_at, lo_at = int(np.argmax(flat)), int(np.argmin(flat))
        mx, mn = float(flat[hi_at]), float(flat[lo_at])
        # the least l with mx + l > tol; tol - mx may round up onto the
        # next integer, never down, so floor can only overshoot by one
        l = math.floor(tol - mx) + 1
        if mx + (l - 1) > tol:
            l -= 1
        if mn + l < -tol:
            sites = ovl.sites()
            return OrderVerdict(False, (tuple(k.tolist()), l,
                                        tuple(sites[hi_at].tolist()),
                                        tuple(sites[lo_at].tolist())))
    return OrderVerdict(True, None)


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
