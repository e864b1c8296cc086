"""Background potentials, interaction stencils, and operating constants.

The physical setup is a field of one-dimensional particles on Z^d, each in
a periodic Morse background V, coupled by a finite-range translation
invariant interaction built from one local energy applied at every site.
The interaction must be ferromagnetic: mixed second derivatives of the
local energy are nonpositive, strictly negative across nearest-neighbor
bonds. Everything downstream (continuation, ordering, measures) operates
inside an envelope of constants estimated here.

Constants and their roles:

* ``c``       smallest |V''| over the critical points (Morse gap).
* ``C1``      uniform bound on the summed interaction force at one site.
* ``C2``      Lipschitz bound of the force field in the sup norm.
* ``delta0``  trust radius around a label configuration; chosen so the
              frozen-diagonal Newton map contracts and distinct wells keep
              disjoint trust intervals.
* ``eps0``    coupling range on which continuation is certified.
* ``eps1``    possibly smaller range on which the interior energy is
              convex over the trust ball (needed by the defect calculus).
"""

import numpy as np

from .errors import ModelInvalid
from .lattice import ball_offsets

TOL_CRIT = 1e-10
CRITICAL_GRID = 4096
SAMPLE_WINDOWS = 256
SAMPLE_SEED = 0x5EED


def _as_vectorized(f):
    """Wrap a scalar callable so it accepts arrays transparently."""
    def g(s):
        s = np.asarray(s, dtype=float)
        out = f(s)
        out = np.asarray(out, dtype=float)
        if out.shape != s.shape:
            out = np.broadcast_to(out, s.shape).copy()
        return out if s.ndim else float(out)
    return g


def find_criticals(d1, grid=CRITICAL_GRID, tol=1e-14):
    """Zeros of a one-periodic function on [0, 1) by sign-change bisection.

    The grid must be fine enough that every zero sits alone in one cell;
    for Morse backgrounds the zeros of V' are simple, so this holds for
    any reasonable grid.
    """
    s = np.arange(grid) / grid
    f = np.asarray(d1(s), dtype=float)
    roots = []
    for i in range(grid):
        a = s[i]
        b = (i + 1) / grid
        fa = f[i]
        fb = f[(i + 1) % grid]
        if fa == 0.0:
            roots.append(a)
            continue
        if fa * fb >= 0.0:
            continue
        for _ in range(200):
            m = 0.5 * (a + b)
            fm = float(d1(np.asarray(m)))
            if fm == 0.0 or (b - a) < tol:
                a = b = m
                break
            if fa * fm < 0:
                b, fb = m, fm
            else:
                a, fa = m, fm
        roots.append(0.5 * (a + b))
    return np.sort(np.mod(np.asarray(roots, dtype=float), 1.0))


class Potential:
    """One-periodic Morse background with first and second derivatives.

    Parameters
    ----------
    value, d1, d2 : callables
        V, V', V''. They must accept numpy arrays. Periodicity and the
        Morse property are sampled at construction.
    criticals : array, optional
        Critical points in [0, 1). Located by bisection when omitted.
    kinds : sequence of str, optional
        "minimum"/"maximum" tag per critical point. Derived from the sign
        of V'' when omitted.
    """

    def __init__(self, value, d1, d2, criticals=None, kinds=None, tol=TOL_CRIT):
        self.value = _as_vectorized(value)
        self.d1 = _as_vectorized(d1)
        self.d2 = _as_vectorized(d2)

        s = np.linspace(0.0, 1.0, 65)[:-1] + 1e-3
        for f, name in ((self.value, "V"), (self.d1, "V'"), (self.d2, "V''")):
            if np.max(np.abs(f(s + 1.0) - f(s))) > 1e-9:
                raise ModelInvalid(f"{name} is not one-periodic on sampled points")

        if criticals is None:
            criticals = find_criticals(self.d1)
        criticals = np.sort(np.mod(np.asarray(criticals, dtype=float), 1.0))
        if criticals.size == 0:
            raise ModelInvalid("background has no critical points; not Morse")
        resid = np.abs(self.d1(criticals))
        if np.max(resid) > tol:
            worst = criticals[int(np.argmax(resid))]
            raise ModelInvalid(
                f"critical point {worst!r} has slope residual {np.max(resid):.2e}"
            )
        curv = self.d2(criticals)
        if kinds is None:
            kinds = tuple("minimum" if cv > 0 else "maximum" for cv in curv)
        kinds = tuple(kinds)
        if len(kinds) != criticals.size:
            raise ModelInvalid("kinds and criticals length mismatch")
        gap = float(np.min(np.abs(curv)))
        if gap <= 0.0 or np.any(curv == 0.0):
            raise ModelInvalid("degenerate critical point; background is not Morse")
        for sig, kind, cv in zip(criticals, kinds, curv):
            want_min = kind == "minimum"
            if want_min != (cv > 0):
                raise ModelInvalid(f"tag {kind} at {sig} contradicts curvature {cv}")
        n = len(kinds)
        for i in range(n):
            if kinds[i] == kinds[(i + 1) % n]:
                raise ModelInvalid("critical tags must alternate around the circle")
        if kinds.count("minimum") < 1:
            raise ModelInvalid("need at least one local minimum")

        self.criticals = criticals
        self.kinds = kinds
        self.morse_gap = gap

    @property
    def minima(self):
        return self.criticals[[k == "minimum" for k in self.kinds]]

    @property
    def maxima(self):
        return self.criticals[[k == "maximum" for k in self.kinds]]

    def nearest_critical(self, x):
        """Distance mod 1 from x to the critical set, with the index."""
        x = np.mod(np.asarray(x, dtype=float), 1.0)
        d = np.abs(x[..., None] - self.criticals[None, ...])
        d = np.minimum(d, 1.0 - d)
        idx = np.argmin(d, axis=-1)
        return np.min(d, axis=-1), idx


def builtin_n_well(N):
    """Cosine background with N equal wells per period.

    V(s) = -cos(2 pi N s) / (2 pi N)^2, so V'' is cos(2 pi N s): the wells
    sit at j/N with unit curvature and the barriers at (2j+1)/(2N).
    """
    if not isinstance(N, (int, np.integer)) or N < 1:
        raise ValueError("N must be a positive integer")
    w = 2.0 * np.pi * N

    def value(s):
        return -np.cos(w * np.asarray(s)) / w**2

    def d1(s):
        return np.sin(w * np.asarray(s)) / w

    def d2(s):
        return np.cos(w * np.asarray(s))

    crit = np.arange(2 * N) / (2.0 * N)
    kinds = tuple("minimum" if j % 2 == 0 else "maximum" for j in range(2 * N))
    return Potential(value, d1, d2, criticals=crit, kinds=kinds)


def potential_from_table(samples):
    """Background from equispaced samples of V over one period.

    Uses trigonometric interpolation, which keeps the interpolant smooth
    and exactly one-periodic; derivatives come from the differentiated
    series. The sample count should comfortably oversample the highest
    harmonic present.
    """
    samples = np.asarray(samples, dtype=float)
    if samples.ndim != 1 or samples.size < 8:
        raise ValueError("need a flat table of at least 8 samples")
    n = samples.size
    coef = np.fft.rfft(samples) / n
    m = np.arange(coef.size)
    # drop the unpaired Nyquist mode for even n; it cannot be evaluated
    # consistently off-grid
    if n % 2 == 0:
        coef = coef[:-1]
        m = m[:-1]

    def series(s, order):
        s = np.asarray(s, dtype=float)
        phase = np.exp(2j * np.pi * np.outer(s.ravel(), m))
        fac = (2j * np.pi * m) ** order
        vals = phase @ (coef * fac)
        # every positive mode appears with its conjugate partner; the
        # constant mode must not be doubled
        out = 2.0 * np.real(vals) - np.real(coef[0] * fac[0])
        return out.reshape(s.shape)

    value = lambda s: series(s, 0)
    d1 = lambda s: series(s, 1)
    d2 = lambda s: series(s, 2)
    return Potential(value, d1, d2)


class InteractionStencil:
    """Finite-range local energy applied at every lattice site.

    The energy callback receives a flat value array indexed by the L1 ball
    of radius ``range`` around the site, in the lexicographic order of
    :func:`ball_offsets`. Gradient and hessian callbacks return arrays in
    the same indexing. Construction samples the ferromagnetic sign
    condition, integer-shift invariance, and agreement of the analytic
    derivatives with finite differences.

    ``force_field`` and ``energy_sum_field``, when provided, are
    vectorized fast paths used by the continuation code; the generic
    site-loop implementations below are the reference semantics. The
    built-in harmonic fast paths take the slices of the target box in
    its domain once and reach the nearest neighbours along each axis by
    moving those slices one step either way, so no shifted ``Box`` is
    built per call.
    """

    def __init__(self, d, range_, energy, gradient, hessian,
                 force_field=None, energy_sum_field=None, validate=True):
        if d < 1 or range_ < 1:
            raise ValueError("need dimension >= 1 and range >= 1")
        self.d = int(d)
        self.range = int(range_)
        self.offsets = ball_offsets(self.d, self.range)
        self.center = int(np.where(~np.any(self.offsets, axis=1))[0][0])
        self._energy = energy
        self._gradient = gradient
        self._hessian = hessian
        self._force_field = force_field
        self._energy_sum_field = energy_sum_field
        self.unit_indices = [
            i for i, o in enumerate(self.offsets)
            if np.abs(o).sum() == 1
        ]
        if validate:
            self._validate()

    # -- reference callbacks ------------------------------------------------

    def energy(self, window):
        return float(self._energy(np.asarray(window, dtype=float)))

    def gradient(self, window):
        g = np.asarray(self._gradient(np.asarray(window, dtype=float)), dtype=float)
        if g.shape != (len(self.offsets),):
            raise ModelInvalid("gradient callback returned a wrong-shaped array")
        return g

    def hessian(self, window):
        h = np.asarray(self._hessian(np.asarray(window, dtype=float)), dtype=float)
        m = len(self.offsets)
        if h.shape != (m, m):
            raise ModelInvalid("hessian callback returned a wrong-shaped array")
        return h

    def _validate(self):
        rng = np.random.default_rng(SAMPLE_SEED)
        m = len(self.offsets)
        for trial in range(16):
            w = rng.uniform(-2.0, 2.0, m)
            h = self.hessian(w)
            if np.max(np.abs(h - h.T)) > 1e-8:
                raise ModelInvalid("hessian is not symmetric on a sampled window")
            off = h - np.diag(np.diag(h))
            if np.max(off) > 1e-12:
                raise ModelInvalid(
                    "ferromagnetic sign condition fails: positive mixed derivative"
                )
            for u in self.unit_indices:
                if not h[self.center, u] < 0.0:
                    raise ModelInvalid(
                        "ferromagnetic sign condition fails: center-to-neighbor "
                        "coupling must be strictly negative"
                    )
            if abs(self.energy(w + 1.0) - self.energy(w)) > 1e-9 * (1 + abs(self.energy(w))):
                raise ModelInvalid("energy is not invariant under integer shifts")
            if trial < 4:
                self._check_derivatives(w)

    def _check_derivatives(self, w):
        m = len(self.offsets)
        h = 1e-6
        g = self.gradient(w)
        hess = self.hessian(w)
        scale = 1.0 + np.max(np.abs(g))
        for i in range(m):
            e = np.zeros(m)
            e[i] = h
            fd = (self.energy(w + e) - self.energy(w - e)) / (2 * h)
            if abs(fd - g[i]) > 1e-5 * scale:
                raise ModelInvalid("analytic gradient disagrees with finite differences")
            gd = (self.gradient(w + e) - self.gradient(w - e)) / (2 * h)
            if np.max(np.abs(gd - hess[:, i])) > 1e-4 * (1 + np.max(np.abs(hess))):
                raise ModelInvalid("analytic hessian disagrees with finite differences")

    # -- window evaluation over configurations ------------------------------

    def _window_at(self, values, domain, j):
        idx = tuple((j + self.offsets - domain.lo).T)
        return values[idx]

    def energy_sum(self, values, domain, box):
        """Sum of the local energies over all sites of ``box``."""
        if self._energy_sum_field is not None:
            return self._energy_sum_field(values, domain, box)
        total = 0.0
        for j in box.sites():
            total += self.energy(self._window_at(values, domain, j))
        return float(total)

    def force(self, values, domain, out):
        """Summed interaction force on every site of ``out``.

        The force at i collects the i-derivatives of every local energy
        whose window contains i. Reads values up to distance 2*range from
        ``out``, which must be available in ``domain``.
        """
        if self._force_field is not None:
            return self._force_field(values, domain, out)
        R = np.zeros(out.shape)
        lo = np.asarray(out.lo)
        hi = np.asarray(out.hi)
        for j in out.padded(self.range).sites():
            g = self.gradient(self._window_at(values, domain, j))
            tgt = j + self.offsets
            keep = np.all(tgt >= lo, axis=1) & np.all(tgt <= hi, axis=1)
            if not np.any(keep):
                continue
            np.add.at(R, tuple((tgt[keep] - lo).T), g[keep])
        return R


def _neighbour_slices(sl, a, domain):
    """The slices ``sl`` moved by +1 and by -1 along axis ``a``.

    ``sl`` selects a box inside ``domain``; both moved boxes must stay
    inside it too, as for ``Box.shift(...).slice_in(domain)``.
    """
    s = sl[a]
    if s.start < 1 or s.stop >= domain.hi[a] - domain.lo[a] + 1:
        raise ValueError(
            f"the neighbours along axis {a} leave the domain {domain}")
    head, tail = sl[:a], sl[a + 1:]
    return (head + (slice(s.start + 1, s.stop + 1),) + tail,
            head + (slice(s.start - 1, s.stop - 1),) + tail)


def builtin_harmonic_stencil(d):
    """Nearest-neighbor quadratic coupling; the summed force is minus the
    discrete Laplacian.

    The local energy at a site is a quarter of the squared differences to
    its 2d nearest neighbors; summing the site energies double-counts each
    bond into the usual half square per bond.
    """
    if d < 1:
        raise ValueError("d must be a positive integer")
    offsets = ball_offsets(d, 1)
    center = int(np.where(~np.any(offsets, axis=1))[0][0])
    units = [i for i, o in enumerate(offsets) if np.abs(o).sum() == 1]

    def energy(w):
        return 0.25 * np.sum((w[units] - w[center]) ** 2)

    def gradient(w):
        g = np.zeros_like(w)
        diffs = w[units] - w[center]
        g[units] = 0.5 * diffs
        g[center] = -0.5 * np.sum(diffs)
        return g

    hess = np.zeros((len(offsets), len(offsets)))
    for u in units:
        hess[u, u] = 0.5
        hess[u, center] = -0.5
        hess[center, u] = -0.5
    hess[center, center] = float(d)

    def hessian(w):
        return hess

    def force_field(values, domain, out):
        sl = out.slice_in(domain)
        R = 2.0 * d * values[sl]
        for a in range(d):
            right, left = _neighbour_slices(sl, a, domain)
            R -= values[right]
            R -= values[left]
        return R

    def energy_sum_field(values, domain, box):
        sl = box.slice_in(domain)
        base = values[sl]
        total = 0.0
        for a in range(d):
            right, left = _neighbour_slices(sl, a, domain)
            total += np.sum((values[right] - base) ** 2)
            total += np.sum((values[left] - base) ** 2)
        return 0.25 * float(total)

    return InteractionStencil(
        d, 1, energy, gradient, hessian,
        force_field=force_field, energy_sum_field=energy_sum_field,
    )


class ModelConstants:
    """Envelope constants governing continuation; see the module docstring."""

    def __init__(self, c, C1, C2, delta0, eps0, eps1, contraction_k, osc_bound_K):
        self.c = float(c)
        self.C1 = float(C1)
        self.C2 = float(C2)
        self.delta0 = float(delta0)
        self.eps0 = float(eps0)
        self.eps1 = float(eps1)
        self.contraction_k = float(contraction_k)
        self.osc_bound_K = float(osc_bound_K)

    def replace(self, **kw):
        """Copy with some fields overridden; the envelope is advisory and
        users may tighten or loosen it deliberately."""
        fields = dict(
            c=self.c, C1=self.C1, C2=self.C2, delta0=self.delta0,
            eps0=self.eps0, eps1=self.eps1,
            contraction_k=self.contraction_k, osc_bound_K=self.osc_bound_K,
        )
        fields.update(kw)
        return ModelConstants(**fields)

    def as_dict(self):
        return {
            "c": self.c, "C1": self.C1, "C2": self.C2,
            "delta0": self.delta0, "eps0": self.eps0, "eps1": self.eps1,
            "contraction_k": self.contraction_k,
            "osc_bound_K": self.osc_bound_K,
        }

    def __repr__(self):
        return ("ModelConstants(" +
                ", ".join(f"{k}={v:.6g}" for k, v in self.as_dict().items()) + ")")


def osc_bound(omega, r):
    """Oscillation bound for ordered configurations of rotation vector omega."""
    omega = np.atleast_1d(np.asarray(omega, dtype=float))
    return r * float(np.max(np.abs(omega))) + 2.0


def estimate_constants(V, S, K, k=0.5):
    """Estimate the operating envelope for a potential/stencil pair.

    C1 and C2 are obtained by maximizing the local gradient entries and
    the force Jacobian row sums over a deterministic pseudo-random sample
    of windows with entries in [-(K+1)/2, (K+1)/2]; the sample seed is
    fixed so repeated calls agree bit for bit. The trust radius combines
    the curvature-drift recipe (half of k*c over a sampled Lipschitz bound
    of V'') with half the minimal gap between distinct critical points, so
    trust intervals of distinct wells never overlap.
    """
    if not 0.0 < k < 1.0:
        raise ValueError("contraction parameter k must lie in (0, 1)")
    if K <= 0:
        raise ValueError("oscillation bound K must be positive")
    c = V.morse_gap
    if c <= 0:
        raise ModelInvalid("background is not Morse: zero curvature at a critical point")

    d, r = S.d, S.range
    wide = ball_offsets(d, 2 * r)
    inner = ball_offsets(d, r)
    # index of each inner-ball offset inside the wide ball
    wide_index = {tuple(o): i for i, o in enumerate(wide)}
    sub = np.array([wide_index[tuple(o)] for o in inner])
    inner_index = {tuple(o): i for i, o in enumerate(inner)}

    rng = np.random.default_rng(SAMPLE_SEED)
    lim = (K + 1.0) / 2.0
    samples = rng.uniform(-lim, lim, size=(SAMPLE_WINDOWS, len(wide)))

    ball_count = float((2 * r + 1) ** d)
    C1 = 0.0
    C2 = 0.0
    for w in samples:
        g = S.gradient(w[sub])
        C1 = max(C1, ball_count * float(np.max(np.abs(g))))
        # force Jacobian row at the center: d(force_0)/d(x_k) sums the
        # mixed derivatives of every window containing both 0 and k
        row = {}
        for j in inner:
            wj = w[[wide_index[tuple(j + o)] for o in inner]]
            h = S.hessian(wj)
            i0 = inner_index[tuple(-j)]
            for kk, o in enumerate(inner):
                tgt = tuple(j + o)
                row[tgt] = row.get(tgt, 0.0) + h[i0, kk]
        C2 = max(C2, float(sum(abs(v) for v in row.values())))

    grid = np.arange(CRITICAL_GRID + 1) / CRITICAL_GRID
    curv = V.d2(grid)
    L = float(np.max(np.abs(np.diff(curv)))) * CRITICAL_GRID

    crit = V.criticals
    gaps = np.diff(np.concatenate([crit, [crit[0] + 1.0]]))
    d_min = float(np.min(gaps))

    delta0 = d_min / 2.0
    if L > 0:
        delta0 = min(delta0, k * c / (2.0 * L))
    eps0 = min(k * c / (2.0 * C2), (1.0 - k) * delta0 * c / C1)
    eps1 = min(2.0 * c / C2, eps0)
    return ModelConstants(c, C1, C2, delta0, eps0, eps1, k, K)


class Model:
    """A potential, a stencil, and their estimated operating envelope."""

    def __init__(self, potential, stencil, constants):
        self.potential = potential
        self.stencil = stencil
        self.constants = constants

    def __repr__(self):
        return (f"Model(d={self.stencil.d}, r={self.stencil.range}, "
                f"constants={self.constants!r})")


def build_model(potential, stencil, K=None, k=0.5, omega=None):
    """Convenience constructor; K defaults to the ordered-configuration
    oscillation bound for the given rotation vector."""
    if K is None:
        if omega is None:
            raise ValueError("provide either K or omega to size the envelope")
        K = osc_bound(omega, stencil.range)
    return Model(potential, stencil, estimate_constants(potential, stencil, K, k=k))
