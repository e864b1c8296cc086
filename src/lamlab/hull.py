"""Step hull functions and the simplex parametrization of laminations.

A hull function is a nondecreasing, left-continuous step function phi with
phi(s + 1) = phi(s) + 1, stored by its breakpoints t_1 < ... < t_M in
(0, 1] and plateau values v_1 < ... < v_M with v_M - v_1 < 1. The plateau
on (t_{m-1}, t_m] carries v_m; below t_1 the top plateau wraps around with
its value lowered by one. Normalized hulls take values in (0, 1] so the
left limit at 0 is nonpositive and the right limit is positive.

Configurations are read off a hull along an irrational rotation vector:
x_i = phi(s + omega . i). Weights on the wells of the background potential
(a point of the standard simplex) determine plateau lengths, which is the
coordinate system the lamination experiments run in.
"""

from fractions import Fraction

import numpy as np

from .lattice import Box, Configuration

GOLDEN_MEAN = (np.sqrt(5.0) - 1.0) / 2.0
BREAKPOINT_SNAP = 1e-12
GENERICITY_OFFSET = 1e-7 * GOLDEN_MEAN
RESONANCE_DENOMINATOR = 10**6
RESONANCE_TOL = 1e-9
RELATION_MAX = 10


def check_irrational(omega):
    """Reject rotation vectors with a near-rational component or relation.

    A component w is resonant when its best rational approximation p/q
    with q <= RESONANCE_DENOMINATOR satisfies |q w - p| <= RESONANCE_TOL;
    sampling a hull along such a vector revisits plateau boundaries and
    the genericity machinery cannot help. In d >= 2 so is a vector with
    k . omega within RESONANCE_TOL of an integer for an integer k != 0
    with |k|_inf <= RELATION_MAX: its samples repeat along the sites
    orthogonal to k, as those of (w, w) do along anti-diagonals.
    """
    omega = np.atleast_1d(np.asarray(omega, dtype=float))
    for w in omega:
        fr = Fraction(float(w)).limit_denominator(RESONANCE_DENOMINATOR)
        if abs(fr.denominator * float(w) - fr.numerator) <= RESONANCE_TOL:
            raise ValueError(
                f"rotation component {float(w)!r} is within {RESONANCE_TOL} of "
                f"{fr.numerator}/{fr.denominator}"
            )
    if omega.size > 1:
        k = _integer_relation(omega, RESONANCE_TOL)
        if k is not None:
            raise ValueError(f"rotation vector {omega.tolist()} has k . omega "
                             f"within {RESONANCE_TOL} of an integer for k = {k}")
    return omega


def _integer_relation(omega, tol):
    """An integer k != 0 with |k|_inf <= RELATION_MAX and k . omega within
    tol of an integer, of least |k|_inf among those found and with its
    first nonzero entry positive, or None.

    Meet in the middle: k . omega is near an integer when the sum over
    the head of k lies near minus the sum over its tail, mod 1. One sort
    of the head sums and a binary search per tail sum cost about
    (2 RELATION_MAX + 1)**(d / 2) instead of (2 RELATION_MAX + 1)**d.
    """
    steps = np.arange(-RELATION_MAX, RELATION_MAX + 1)

    def sums(part):
        # k . part mod 1 for every k, in C order of k + RELATION_MAX
        out = np.zeros(1)
        for w in part:
            out = np.add.outer(out, steps * w).ravel()
        return np.mod(out, 1.0)

    h = (omega.size + 1) // 2
    head, tail = sums(omega[:h]), sums(-omega[h:])
    order = np.argsort(head)
    # both neighbours on the circle, and one more: the zero tail's nearest
    # head is the zero head, and k = 0 is no relation
    at = np.searchsorted(head[order], tail) + np.arange(-1, 2)[:, None]
    flat = order[at % head.size] * tail.size + np.arange(tail.size)
    gap = np.abs(head[flat // tail.size] - tail)
    gap = np.minimum(gap, 1.0 - gap)
    hits = flat[(gap <= tol) & (flat != head.size * tail.size // 2)]
    if hits.size == 0:
        return None
    k = np.array(np.unravel_index(hits, (steps.size,) * omega.size)).T
    k = k[np.argmin(np.abs(k - RELATION_MAX).max(axis=1))] - RELATION_MAX
    return tuple((k * np.sign(k[np.flatnonzero(k)[0]])).tolist())


class HullFunction:
    """Left-continuous periodic step function; see the module docstring.

    ``plateau_lengths``, when given, pins the exact masses of the plateaus
    (they must be consistent with the breakpoints); without it the lengths
    are recovered from breakpoint differences, which can lose an ulp.
    """

    def __init__(self, breakpoints, values, plateau_lengths=None):
        breakpoints = np.asarray(breakpoints, dtype=float)
        values = np.asarray(values, dtype=float)
        if breakpoints.ndim != 1 or breakpoints.shape != values.shape or breakpoints.size == 0:
            raise ValueError("breakpoints and values must be matching nonempty 1d arrays")
        if not (breakpoints[0] > 0.0 and breakpoints[-1] <= 1.0):
            raise ValueError("breakpoints must lie in (0, 1]")
        if breakpoints.size > 1:
            if np.min(np.diff(breakpoints)) <= BREAKPOINT_SNAP:
                raise ValueError("breakpoints must be strictly increasing, gaps above snap width")
            if np.min(np.diff(values)) <= 0.0:
                raise ValueError("plateau values must be strictly increasing")
        if values[-1] - values[0] >= 1.0:
            raise ValueError("plateau values must span less than one period")
        if plateau_lengths is not None:
            plateau_lengths = np.asarray(plateau_lengths, dtype=float)
            if plateau_lengths.shape != breakpoints.shape or np.min(plateau_lengths) <= 0.0:
                raise ValueError("plateau lengths must be positive, one per plateau")
            if abs(float(np.sum(plateau_lengths)) - 1.0) > 1e-12:
                raise ValueError("plateau lengths must sum to one")
            implied = np.diff(np.concatenate([[breakpoints[-1] - 1.0], breakpoints]))
            if np.max(np.abs(implied - plateau_lengths)) > 1e-9:
                raise ValueError("plateau lengths contradict the breakpoints")
        self.breakpoints = breakpoints
        self.values = values
        self.plateau_lengths = plateau_lengths

    def value(self, s):
        """Evaluate phi(s), left-continuous, with a snap guard.

        Arguments within BREAKPOINT_SNAP above a breakpoint (mod 1) are
        pulled back onto it, so a parameter that should hit a plateau end
        exactly but drifted by float error still reads the plateau value.
        """
        s = np.asarray(s, dtype=float)
        scalar = s.ndim == 0
        s = np.atleast_1d(s)
        bp, vals = self.breakpoints, self.values
        tM = bp[-1]
        k = np.ceil(s - tM)
        u = s - k
        # u lies in (tM - 1, tM]; just above the lower end means s sits a
        # hair above the top breakpoint of the previous period
        wrap = (u - (tM - 1.0)) <= BREAKPOINT_SNAP
        idx = np.searchsorted(bp, u - BREAKPOINT_SNAP, side="left")
        out = np.where(wrap, vals[-1] + k - 1.0, vals[np.minimum(idx, bp.size - 1)] + k)
        return float(out[0]) if scalar else out

    def value_upper(self, s):
        """The right-continuous companion phi+(s) = lim_{t -> s+} phi(t)."""
        s = np.asarray(s, dtype=float)
        scalar = s.ndim == 0
        s = np.atleast_1d(s)
        bp, vals = self.breakpoints, self.values
        tM = bp[-1]
        k = np.ceil(s - tM)
        u = s - k
        idx = np.searchsorted(bp, u + BREAKPOINT_SNAP, side="right")
        k = k + (idx == bp.size)
        idx = np.where(idx == bp.size, 0, idx)
        out = vals[idx] + k
        return float(out[0]) if scalar else out

    def plateau_measures(self):
        """Pairs (value, length); the first plateau wraps below t_1."""
        bp, vals = self.breakpoints, self.values
        if self.plateau_lengths is not None:
            lengths = self.plateau_lengths
        else:
            lengths = np.diff(np.concatenate([[bp[-1] - 1.0], bp]))
        return list(zip(vals.tolist(), lengths.tolist()))

    def __repr__(self):
        pairs = ", ".join(
            f"({t:.6g}]->{v:.6g}" for t, v in zip(self.breakpoints, self.values)
        )
        return f"HullFunction({pairs})"


def normalize_simplex(p, n=None):
    """Clean a simplex point: clip tiny negatives, renormalize the total."""
    p = np.asarray(p, dtype=float)
    if p.ndim != 1 or (n is not None and p.size != n):
        raise ValueError("simplex point has the wrong shape")
    if np.min(p) < -1e-12:
        raise ValueError(f"simplex entries must be nonnegative, got {np.min(p)!r}")
    p = np.clip(p, 0.0, None)
    total = p.sum()
    if abs(total - 1.0) > 1e-9:
        raise ValueError(f"simplex entries sum to {total!r}, expected 1")
    # rescaling perturbs every entry by an ulp, so keep near-exact inputs
    # untouched and masses round-trip bit for bit
    if abs(total - 1.0) > 1e-12:
        p = p / total
    return p


def step_hull_from_simplex(p, sigma):
    """Hull whose plateau at well sigma_j has length p_j.

    Wells are lifted into (0, 1] (a well at 0 becomes 1) and sorted; the
    breakpoints are the cumulative masses in that order, the last pinned
    to exactly 1. Zero-mass wells disappear. The result is normalized by
    construction.
    """
    sigma = np.mod(np.asarray(sigma, dtype=float), 1.0)
    p = normalize_simplex(p, n=sigma.size)
    lifted = np.where(sigma == 0.0, 1.0, sigma)
    keep = p > 0.0
    if not np.any(keep):
        raise ValueError("simplex point has no mass")
    lifted, masses = lifted[keep], p[keep]
    order = np.argsort(lifted)
    lifted, masses = lifted[order], masses[order]
    if lifted.size > 1 and np.min(np.diff(lifted)) <= BREAKPOINT_SNAP:
        raise ValueError("wells coincide after lifting; cannot build plateaus")
    breakpoints = np.cumsum(masses)
    breakpoints[-1] = 1.0
    return HullFunction(breakpoints, lifted, plateau_lengths=masses)


def sample_config(phi, omega, s, window):
    """Configuration x_i = phi(s + omega . i) over a window box. Any omega
    is sampled: a rational one gives a periodic configuration."""
    return Configuration(window, phi.value(s + _phases(omega, window)))


def generic_parameter(phi, omega, window, s0):
    """Nudge s0 until no sampled argument sits near a plateau boundary.

    Keeps adding an irrational offset while any s0 + omega . i, for a
    site i of the window, lands within RESONANCE_TOL of a breakpoint mod
    1; termination is guaranteed because the offsets equidistribute while
    the bad set has small measure.
    """
    return _generic_shift(phi, _phases(omega, window), s0)


def _phases(omega, window):
    """The phases omega . i of the sites i of a window box, in site order."""
    omega = np.atleast_1d(np.asarray(omega, dtype=float))
    if not isinstance(window, Box):
        raise ValueError("window must be a Box")
    if omega.size != window.d:
        raise ValueError("rotation vector dimension must match the window")
    return window.sites() @ omega


def _generic_shift(phi, phases, s0):
    """``generic_parameter`` on precomputed site phases."""
    bp = phi.breakpoints
    s = float(s0)
    for _ in range(10000):
        pos = np.mod(s + phases, 1.0)
        d = np.abs(pos[:, None] - np.mod(bp, 1.0)[None, :])
        d = np.minimum(d, 1.0 - d)
        if np.min(d) > RESONANCE_TOL:
            return s
        s += GENERICITY_OFFSET
    raise ValueError("could not find a generic parameter near s0")


def _inverse(phi, y):
    """The generalized inverse of a hull at y off its plateau values.

    It is t_{m-1} on (v_{m-1}, v_m) and t_M - 1 below v_1; one period
    up in y adds one. Step t_M catches a y - n that rounds above v_M.
    """
    bp, vals = phi.breakpoints, phi.values
    n = np.ceil(y - vals[-1])
    steps = np.concatenate([[bp[-1] - 1.0], bp])
    return steps[np.searchsorted(vals, y - n)] + n


def hull_distance_mod_translation(a, b):
    """L1 distance between hulls modulo the translation family a(. + t).

    Swapping the axes keeps the area between two monotone graphs, so
    int_0^1 |a(s + t) - b(s)| ds = int_0^1 |a^-1(y) - t - b^-1(y)| dy.
    D = a^-1 - b^-1 is constant on the cells between the plateau values
    of both hulls taken mod 1; the best shift t is the median of D
    weighted by cell length, and the distance is sum w |D - t|.
    """
    cuts = np.sort(np.mod(np.concatenate([a.values, b.values]), 1.0))
    edges = np.append(cuts, cuts[0] + 1.0)
    mid = 0.5 * (edges[:-1] + edges[1:])
    d = _inverse(a, mid) - _inverse(b, mid)
    order = np.argsort(d)
    d, w = d[order], np.diff(edges)[order]
    cum = np.cumsum(w)
    t = d[np.searchsorted(cum, 0.5 * cum[-1])]
    return float(np.sum(w * np.abs(d - t)))
