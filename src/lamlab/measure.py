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
from .hull import (_generic_shift, _phases, check_irrational,
                   step_hull_from_simplex)
from .lattice import Box, Configuration, l1_norms

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
            if keep_a and a - keep_a[-1] <= ATOM_MERGE_TOL:
                keep_m[-1] += m
            elif keep_a and (1.0 - a) + keep_a[0] <= ATOM_MERGE_TOL:
                keep_m[0] += m
            else:
                keep_a.append(float(a))
                keep_m.append(float(m))
        self.atoms = np.asarray(keep_a)
        self.masses = np.asarray(keep_m)
        total = float(np.sum(self.masses))
        if abs(total - 1.0) > 1e-12:
            raise ValueError(f"total mass {total!r} is not 1")

    def mass_at(self, location):
        """Mass of the atom at a location (0 when absent)."""
        loc = float(np.mod(location, 1.0))
        d = np.abs(self.atoms - loc)
        d = np.minimum(d, 1.0 - d)
        hits = np.nonzero(d <= 1e-9)[0]
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
    return _count(config.values, sigma, delta0,
                  _ball_table(config.domain, n))


def _ball_table(domain, n):
    """The ball radii n/4, n/2 and n of a counting measure over a box, the
    flat indices of the box's sites in the largest ball, and the band of
    each: the index of the smallest radius whose ball holds it."""
    n = int(n)
    if n < 1:
        raise ValueError("ball radius must be positive")
    if not domain.contains_box(Box.centered(n, domain.d)):
        raise ValueError("configuration does not cover the ball of radius n")
    norms = l1_norms(domain.sites())
    inside = np.flatnonzero(norms <= n)
    radii = sorted({max(n // 4, 1), max(n // 2, 1), n})
    band = np.searchsorted(radii, norms[inside])
    return domain, radii, inside, band


def _count(values, sigma, delta0, table):
    """Counting measure of the values on a ball table's box: classify the
    sites of the largest ball by their nearest well in ``sigma`` (reduced
    mod 1), then count every ball with one bincount over (band, well)."""
    domain, radii, inside, band = table
    flat = values.ravel()[inside]
    vals = np.mod(flat, 1.0)
    dist = np.abs(vals[:, None] - sigma[None, :])
    dist = np.minimum(dist, 1.0 - dist)
    nearest = np.argmin(dist, axis=1)
    best = dist[np.arange(dist.shape[0]), nearest]
    bad = best > delta0
    if np.any(bad):
        worst = int(np.argmax(np.where(bad, best, -np.inf)))
        at = np.unravel_index(inside[worst], domain.shape)
        raise UnclassifiableSite(
            f"site value {float(vals[worst])!r} is {best[worst]:.3g} from the nearest "
            f"well, beyond the classification radius {delta0:.3g}",
            site=tuple(lo + int(i) for lo, i in zip(domain.lo, at)),
            value=float(flat[worst]),
        )
    # row j counts the sites of band j by well; the cumulative sum over
    # the bands counts each ball
    counts = np.bincount(band * sigma.size + nearest,
                         minlength=len(radii) * sigma.size)
    counts = np.cumsum(counts.reshape(len(radii), sigma.size), axis=0)
    table = [(rad, row.astype(float) / float(np.sum(row)))
             for rad, row in zip(radii, counts)]
    return CircleMeasure(sigma, table[-1][1], density_table=table)


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
    from 0.0.

    ``measures`` may be any iterable, a generator included. It is read
    here, before the first block is asked for: each measure's atoms are
    checked against the first one's as it arrives, and only its masses
    are kept, stacked. Measures on different atoms raise ``ValueError``."""
    measures = iter(measures)
    first = next(measures, None)
    if first is None:
        masses = np.empty((0, 0))
    else:
        def checked():
            yield first.masses
            for mu in measures:
                if not np.array_equal(mu.atoms, first.atoms):
                    raise ValueError("measures do not share one atom array")
                yield mu.masses

        masses = np.fromiter(checked(), np.dtype((float, first.atoms.size)))
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
    """The simplex-to-measure map at finite coupling: ``psi_epsilon_grid``
    at the one point p."""
    return next(psi_epsilon_grid(model, eps, [p], omega, window, n, tol))


def psi_epsilon_grid(model, eps, points, omega, window, n=None, tol=1e-12):
    """The simplex-to-measure map at finite coupling, over a family of
    simplex points that share one window.

    For each point p, in order, builds the step hull of p, samples it
    along omega over the window, continues the sample, and yields its
    counting measure over the ball of radius n (by default
    ``default_density_radius``). The checks of omega, eps and n, the site
    phases and the ball table are made once, at the first measure.
    Certified only up to eps1, where continuation keeps every site inside
    its classification interval.
    """
    omega = check_irrational(omega)
    cst = model.constants
    _refuse_coupling(cst, eps, "eps1")
    if n is None:
        n = default_density_radius(window, model.stencil.range)
    Bp = window.padded(model.stencil.range)
    phases = _phases(omega, Bp)
    table = _ball_table(Bp, n)
    minima = model.potential.minima
    sigma = np.mod(minima, 1.0)
    for p in points:
        phi = step_hull_from_simplex(p, minima)
        s = _generic_shift(phi, phases, 0.5)
        x0 = Configuration(Bp, phi.value(s + phases))
        res = quasi_newton_continue(model, eps, x0, window, tol=tol)
        yield _count(res.solution.values, sigma, cst.delta0, table)
