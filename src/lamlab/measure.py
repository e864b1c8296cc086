"""Probability measures on the circle attached to laminations.

A step hull pushes Lebesgue measure on the parameter circle forward to an
atomic measure on the value circle: one atom per plateau, weighted by the
plateau length. The same measure is recovered from any single sampled
configuration by counting, over growing balls of lattice sites, how often
the site value falls into the trust interval of each well. Since
continuation never moves a site across its trust interval, the counting
measure of a continued solution equals the label frequency of its
starting configuration by construction. An injectivity check of the
simplex-to-measure map on a grid therefore tests how evenly the hull
sample visits the plateaus, not the continuation.

Vague convergence is metrized here by total variation on the atom set;
in the operating regime every measure is supported on the finitely many
wells, where the two notions agree.
"""

from dataclasses import dataclass, field

import numpy as np

from .continuation import _refuse_coupling, quasi_newton_continue
from .errors import UnclassifiableSite
from .hull import (check_irrational, generic_parameter, sample_config,
                   step_hull_from_simplex)
from .lattice import Box, l1_norms

ATOM_MERGE_TOL = 1e-12
DEFAULT_DENSITY_RADIUS = {1: 377, 2: 60}


@dataclass
class CircleMeasure:
    """Atomic probability measure on R/Z, optionally with a density table.

    ``density_table`` holds (ball radius, per-well fractions) rows when
    the measure came from counting.
    """

    atoms: np.ndarray
    masses: np.ndarray
    density_table: list = field(default_factory=list)

    def __post_init__(self):
        atoms = np.mod(np.asarray(self.atoms, dtype=float), 1.0)
        masses = np.asarray(self.masses, dtype=float)
        if atoms.shape != masses.shape or atoms.ndim != 1:
            raise ValueError("atoms and masses must be matching 1d arrays")
        if not (np.all(np.isfinite(atoms)) and np.all(np.isfinite(masses))):
            raise ValueError("atoms and masses must be finite")
        if masses.size and float(np.min(masses)) < -ATOM_MERGE_TOL:
            raise ValueError("masses must be nonnegative")
        order = np.argsort(atoms, kind="stable")
        atoms, masses = atoms[order], np.clip(masses[order], 0.0, None)
        # merge coincident locations (mod 1) so atoms stay distinct
        keep_a, keep_m = [], []
        for a, m in zip(atoms, masses):
            if keep_a and (a - keep_a[-1] <= ATOM_MERGE_TOL
                           or (1.0 - a) + keep_a[0] <= ATOM_MERGE_TOL):
                if a - keep_a[-1] <= ATOM_MERGE_TOL:
                    keep_m[-1] += m
                else:
                    keep_m[0] += m
                continue
            keep_a.append(float(a))
            keep_m.append(float(m))
        self.atoms = np.asarray(keep_a)
        self.masses = np.asarray(keep_m)
        total = float(np.sum(self.masses))
        if abs(total - 1.0) > 1e-12:
            raise ValueError(f"total mass {total!r} is not 1")

    def mass_at(self, location, tol=1e-9):
        """Mass of the atom at a location (0 when absent)."""
        loc = float(np.mod(location, 1.0))
        d = np.abs(self.atoms - loc)
        d = np.minimum(d, 1.0 - d)
        hits = np.nonzero(d <= tol)[0]
        return float(self.masses[hits[0]]) if hits.size else 0.0

    def as_pairs(self):
        return [[float(a), float(m)] for a, m in zip(self.atoms, self.masses)]


def measure_from_hull(phi):
    """Pushforward of Lebesgue measure: one atom per plateau."""
    pairs = phi.plateau_measures()
    atoms = np.mod(np.asarray([v for v, _ in pairs]), 1.0)
    masses = np.asarray([m for _, m in pairs])
    return CircleMeasure(atoms, masses)


def measure_from_density(config, sigma, delta0, n):
    """Counting measure of a configuration over growing L1 balls.

    Every site value mod 1 must fall within delta0 of exactly one well in
    ``sigma``; the fractions over the balls of radius n/4, n/2 and n form
    the convergence table and the largest ball defines the returned atoms.
    """
    sigma = np.mod(np.asarray(sigma, dtype=float), 1.0)
    if sigma.ndim != 1 or sigma.size == 0:
        raise ValueError("need a nonempty list of wells")
    n = int(n)
    if n < 1:
        raise ValueError("ball radius must be positive")
    d = config.domain.d
    if not config.domain.contains_box(Box.centered(n, d)):
        raise ValueError("configuration does not cover the ball of radius n")

    sites = config.domain.sites()
    norms = l1_norms(sites)
    vals = np.mod(config.values.ravel(), 1.0)
    dist = np.abs(vals[:, None] - sigma[None, :])
    dist = np.minimum(dist, 1.0 - dist)
    nearest = np.argmin(dist, axis=1)
    best = dist[np.arange(dist.shape[0]), nearest]
    inside = norms <= n
    bad = inside & (best > delta0)
    if np.any(bad):
        worst = int(np.argmax(np.where(bad, best, -np.inf)))
        raise UnclassifiableSite(
            f"site value {vals[worst]!r} is {best[worst]:.3g} from the nearest "
            f"well, beyond the classification radius {delta0:.3g}",
            site=tuple(sites[worst].tolist()),
            value=float(config.values.ravel()[worst]),
        )

    radii = sorted({max(n // 4, 1), max(n // 2, 1), n})
    table = []
    for rad in radii:
        mask = norms <= rad
        counts = np.bincount(nearest[mask], minlength=sigma.size).astype(float)
        table.append((rad, counts / float(np.sum(mask))))
    fractions = table[-1][1]
    return CircleMeasure(sigma, fractions, density_table=table)


def vague_distance(a, b):
    """Total variation on the union of the atom sets.

    Metrizes vague convergence while all measures are supported on the
    same finite well set; differing supports are handled by zero-filling.
    """
    locs = np.concatenate([a.atoms, b.atoms])
    signed = np.concatenate([a.masses, -b.masses])
    order = np.argsort(locs, kind="stable")
    locs, signed = locs[order], signed[order]
    total = 0.0
    acc = signed[0]
    for i in range(1, locs.size):
        if locs[i] - locs[i - 1] <= ATOM_MERGE_TOL:
            acc += signed[i]
        else:
            total += abs(acc)
            acc = signed[i]
    total += abs(acc)
    return float(total)


def pairwise_l1(M, a, b):
    """L1 distance of rows a[k] and b[k] of the matrix M for every k:
    |M[a, j] - M[b, j]| summed over j, left to right, from 0.0."""
    dist = np.zeros(a.size)
    for j in range(M.shape[1]):
        dist += np.abs(M[a, j] - M[b, j])
    return dist


def injectivity_pairs(grid, measures, block):
    """(a, b, l1, vague_distance) arrays of the pairs a < b of grid points,
    in ``np.triu_indices(len(grid), 1)`` order, one block of whole rows a
    at a time; a block holds at most ``block`` pairs unless its one row
    has more.

    ``l1`` is the L1 distance of the weights ``grid[a]`` and ``grid[b]``.
    ``vague_distance`` equals ``vague_distance(measures[a], measures[b])``
    bit for bit: on shared atoms both sum |m_a[j] - m_b[j]| left to right
    from 0.0. Measures on different atoms raise ``ValueError`` here,
    before the first block is asked for."""
    if any(not np.array_equal(mu.atoms, measures[0].atoms)
           for mu in measures):
        raise ValueError("measures do not share one atom array")
    masses = np.asarray([mu.masses for mu in measures])
    return _pair_blocks(np.asarray(grid, dtype=float), masses, block)


def _pair_blocks(points, masses, block):
    G = points.shape[0]
    a0 = 0
    while a0 < G - 1:
        a1, size = a0 + 1, G - 1 - a0
        while a1 < G - 1 and size + G - 1 - a1 <= block:
            size += G - 1 - a1
            a1 += 1
        a = np.repeat(np.arange(a0, a1), np.arange(G - 1 - a0, G - 1 - a1, -1))
        b = np.concatenate([np.arange(r + 1, G) for r in range(a0, a1)])
        yield a, b, pairwise_l1(points, a, b), pairwise_l1(masses, a, b)
        a0 = a1


def default_density_radius(window, r):
    """Ball radius of the counting measure when none is given: 377 in one
    dimension and 60 in two, cut to the largest ball that the window
    grown by the interaction range r covers."""
    n = DEFAULT_DENSITY_RADIUS.get(window.d)
    if n is None:
        raise ValueError("no default ball radius in this dimension; pass n")
    return min(n, min(*(-lo for lo in window.lo), *window.hi) + r)


def psi_epsilon(model, eps, p, omega, window, n=None, tol=1e-12):
    """The simplex-to-measure map at finite coupling.

    Builds the step hull of p, samples it along omega over the window,
    continues the sample, and returns its counting measure over the ball
    of radius n (by default ``default_density_radius``). Certified only
    up to eps1, where continuation keeps every site inside its
    classification interval.
    """
    omega = check_irrational(omega)
    cst = model.constants
    _refuse_coupling(cst, eps, "eps1")
    if n is None:
        n = default_density_radius(window, model.stencil.range)
    phi = step_hull_from_simplex(p, model.potential.minima)
    Bp = window.padded(model.stencil.range)
    s = generic_parameter(phi, omega, Bp, 0.5)
    x0 = sample_config(phi, omega, s, Bp)
    res = quasi_newton_continue(model, eps, x0, window, tol=tol)
    return measure_from_density(res.solution, model.potential.minima,
                                cst.delta0, n)
