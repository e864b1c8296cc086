"""The standard map near strong forcing and its lattice counterpart.

For one-dimensional chains with nearest-neighbor quadratic coupling the
equilibrium equation is the Frenkel-Kontorova relation

    V'(x_i) - eps * (x_{i+1} - 2 x_i + x_{i-1}) = 0,

and a bi-infinite sequence solves it exactly when the phase points
(x_i, y_i) with y_i = x_i - x_{i-1} form an orbit of the twist map

    T_eps: (x, y) -> (x + y + V'(x)/eps, y + V'(x)/eps).

Small eps here is strong forcing: the map is near its anti-integrable
limit. Laminations continued from minimum labels project to invariant
Cantor sets (remnants of rotational circles), and arbitrary bounded
critical label sequences continue to orbits whose momenta jump
erratically.
"""

from dataclasses import dataclass

import numpy as np

from .continuation import _refuse_coupling, quasi_newton_continue
from .errors import CheckInconclusive
from .hull import check_irrational, generic_parameter, sample_config
from .lattice import Box, Configuration


def standard_map_step(V, eps, x, y):
    """One application of T_eps; undefined at eps = 0."""
    if eps <= 0.0:
        raise ValueError(
            "the map needs eps > 0; the eps = 0 object is the recurrence relation"
        )
    kick = V.d1(x) / eps
    return x + y + kick, y + kick


@dataclass
class TwistOrbit:
    """A finite orbit segment of T_eps in position-momentum coordinates."""

    points: np.ndarray
    eps: float

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=float)
        if pts.ndim != 2 or pts.shape[1] != 2 or pts.shape[0] < 2:
            raise ValueError("need at least two (x, y) points")
        gaps = pts[1:, 0] - pts[:-1, 0]
        if np.max(np.abs(gaps - pts[1:, 1])) > 1e-9:
            raise ValueError("momenta must be consecutive position differences")
        self.points = pts

    def map_residual(self, V):
        """Worst deviation of consecutive points from one map step."""
        x, y = self.points[:-1, 0], self.points[:-1, 1]
        nx, ny = standard_map_step(V, self.eps, x, y)
        rx = np.abs(nx - self.points[1:, 0])
        ry = np.abs(ny - self.points[1:, 1])
        return float(max(np.max(rx), np.max(ry)))


@dataclass
class CantorusResult:
    points: np.ndarray
    s_values: np.ndarray
    invariance_error: float
    worst_index: int
    mean_momentum: float


def extract_cantorus(model, eps, label_hull, omega, window, n_samples,
                     tol=1e-8, s0=0.5, newton_tol=1e-12):
    """Project a continued lamination window to a twist map point cloud.

    Members are continued at parameters s0 + k*omega (one extra member
    beyond ``n_samples`` so every emitted point has a sampled successor)
    and each contributes the point (X_0, X_0 - X_{-1}), position reduced
    mod 1. Invariance is verified by applying the map to every emitted
    point and matching the member at the shifted parameter; failures
    beyond 10*tol report the worst offender.
    """
    if model.stencil.d != 1:
        raise ValueError("cantorus extraction is for one-dimensional chains")
    _refuse_coupling(model.constants, eps, "eps1")
    w = float(np.atleast_1d(check_irrational(omega))[0])
    n_samples = int(n_samples)
    if n_samples < 2:
        raise ValueError("need at least two members")
    r = model.stencil.range
    interior = window.interior(r)
    if not (interior.contains((0,)) and interior.contains((-1,))):
        raise ValueError("window interior must contain sites -1 and 0")
    Bp = window.padded(r)

    # one genericity pass covering all members: the sampled arguments are
    # s + w*(k + i) for members k and sites i, that is s + w*j over the
    # padded window stretched by n_samples sites to the right
    line = Box(Bp.lo, (Bp.hi[0] + n_samples,))
    s = generic_parameter(label_hull, [w], line, s0)

    # one hull sample over the stretched window; member k's labels are its
    # slice from site Bp.lo + k
    labels = sample_config(label_hull, [w], s, line).values
    size = Bp.size
    at0 = -Bp.lo[0]
    x0s = np.empty(n_samples + 1)
    xm1s = np.empty(n_samples + 1)
    s_values = s + w * np.arange(n_samples + 1)
    # a view, not a copy: restrict in quasi_newton_continue copies it
    for k in range(n_samples + 1):
        res = quasi_newton_continue(
            model, eps, Configuration._adopt(Bp, labels[k:k + size]), window,
            tol=newton_tol)
        x0s[k] = res.solution.values[at0]
        xm1s[k] = res.solution.values[at0 - 1]

    ys = x0s - xm1s
    nx, ny = standard_map_step(model.potential, eps, x0s[:-1], ys[:-1])
    errs = np.maximum(np.abs(nx - x0s[1:]), np.abs(ny - ys[1:]))
    worst = int(np.argmax(errs))
    err = float(errs[worst])
    if err > 10.0 * tol:
        raise CheckInconclusive(
            f"map image of member {worst} misses the shifted member by {err:.3g}"
        )
    points = np.column_stack([np.mod(x0s[:n_samples], 1.0), ys[:n_samples]])
    return CantorusResult(points, s_values[:n_samples], err, worst,
                          float(np.mean(ys[:n_samples])))


def chaotic_momentum_orbit(model, eps, labels, window, tol=1e-8,
                           newton_tol=1e-12):
    """Continue a bounded critical label sequence and package the orbit.

    ``labels`` is an array of critical values, one per site of the window
    and its collar, left to right. ``model`` must be a one-dimensional
    harmonic chain, which turns each continued equilibrium into a map
    orbit. Its envelope must cover the label spread: an oscillation bound
    K of at least the largest label step plus 2 (the CLI's default), so
    wilder label sequences get a smaller certified coupling range.
    """
    if model.stencil.d != 1 or window.d != 1:
        raise ValueError("orbits are one-dimensional")
    if eps <= 0.0:
        raise ValueError("the map needs eps > 0")
    res = quasi_newton_continue(model, eps,
                                Configuration(window.padded(1), labels),
                                window, tol=newton_tol)

    # emit points only where the map step is backed by the equilibrium
    # equation: the frozen window edges do not satisfy it, so the orbit
    # runs from the first interior site through the right edge
    vals = res.solution.values
    xs = vals[2:-1]
    ys = xs - vals[1:-2]
    orbit = TwistOrbit(np.column_stack([xs, ys]), eps)
    resid = orbit.map_residual(model.potential)
    if resid > tol:
        raise CheckInconclusive(
            f"continued orbit violates the map by {resid:.3g} (tol {tol:.1e})"
        )
    return orbit
