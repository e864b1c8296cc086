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

import math
from dataclasses import asdict, dataclass, fields

import numpy as np

from .errors import ModelInvalid
from .lattice import _as_index, ball_offsets

TOL_CRIT = 1e-10
CRITICAL_GRID = 4096
SAMPLE_WINDOWS = 256
SAMPLE_SEED = 0x5EED

# PCG64 XSL-RR (O'Neill 2014) as NumPy seeds it from SAMPLE_SEED: the
# 128-bit state and increment of np.random.PCG64(SAMPLE_SEED).state, and
# NumPy's multiplier
_PCG_STATE = 2308840470998917848970343288548873417
_PCG_INC = 158632560045879711472538546351268876111
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_MASK128 = (1 << 128) - 1
_LIMB = np.uint64(32)
_LIMB_MASK = np.uint64(0xFFFFFFFF)
# the generator's state after the unit doubles drawn so far in this process
_drawn = (_PCG_STATE, np.empty(0))


def _limbs(v):
    """A 128-bit integer as a column of four 32-bit limbs, lowest first."""
    return np.array([[(v >> 32 * j) & 0xFFFFFFFF] for j in range(4)],
                    dtype=np.uint64)


def _affine(x, a, c):
    """``(a * x + c) mod 2**128`` for every column of ``x``, a (4, m) array
    of 32-bit limbs. Each limb product is split at bit 32 between the two
    columns it adds to, so no column reaches 2**36 before the carries."""
    a, y = _limbs(a)[:, 0], _limbs(c) + np.zeros_like(x)
    for i in range(4):
        for k in range(4 - i):
            p = x[i] * a[k]
            y[i + k] += p & _LIMB_MASK
            if i + k < 3:
                y[i + k + 1] += p >> _LIMB
    for j in range(3):
        y[j + 1] += y[j] >> _LIMB
    return y & _LIMB_MASK


def _pcg64_units(state, n):
    """The next n unit doubles of PCG64 from ``state``, and the state after
    them: ``(out >> 11) * 2**-53`` of each XSL-RR output, as NumPy's
    ``next_double``.

    The states come in rounds: the m-step map x -> a*x + c takes the m
    states drawn so far to the next m, and composed with itself gives
    the 2m-step map.
    """
    a, c = _PCG_MULT, _PCG_INC
    x = _affine(_limbs(state), a, c)
    while x.shape[1] < n:
        x = np.concatenate((x, _affine(x, a, c)), axis=1)
        a, c = a * a & _MASK128, (a * c + c) & _MASK128
    x = x[:, :n]
    hi, lo = x[3] << _LIMB | x[2], x[1] << _LIMB | x[0]
    xor, rot = hi ^ lo, hi >> np.uint64(58)
    out = xor >> rot | xor << (np.uint64(64) - rot & np.uint64(63))
    last = sum(int(v) << 32 * j for j, v in enumerate(x[:, -1].tolist()))
    return (out >> np.uint64(11)) * 2.0**-53, last


def _fixed_uniform(low, high, shape):
    """``np.random.default_rng(SAMPLE_SEED).uniform(low, high, shape)`` bit
    for bit, without importing ``numpy.random``.

    Every call starts the stream afresh; its unit doubles are drawn once
    per process and extended on demand.
    """
    global _drawn
    n = math.prod(shape)
    state, units = _drawn
    if units.size < n:
        more, state = _pcg64_units(state, n - units.size)
        units = np.concatenate((units, more))
        # one assignment, so a concurrent caller sees a consistent pair
        _drawn = state, units
    # a multiply and an add, as NumPy's random_uniform does
    return low + (high - low) * units[:n].reshape(shape)


def _as_vectorized(f):
    """Wrap a scalar callable so it accepts arrays transparently."""
    def g(s):
        if type(s) is not np.ndarray or s.dtype != np.float64:
            s = np.asarray(s, dtype=float)
        out = np.asarray(f(s), dtype=float)
        if out.shape != s.shape:
            out = np.broadcast_to(out, s.shape).copy()
        return out if s.ndim else float(out)
    return g


def find_criticals(d1):
    """Zeros of a one-periodic function on [0, 1) by sign-change bisection
    on a grid of CRITICAL_GRID cells, down to brackets of 1e-14.

    The grid must be fine enough that every zero sits alone in one cell;
    for Morse backgrounds the zeros of V' are simple, so this holds for
    any reasonable grid.
    """
    s = np.arange(CRITICAL_GRID) / CRITICAL_GRID
    f = np.asarray(d1(s), dtype=float)
    roots = []
    # the cells that start on a zero or change sign (or hold a NaN)
    for i in np.flatnonzero((f == 0.0) | ~(f * np.roll(f, -1) >= 0.0)).tolist():
        a, b, fa = s[i], (i + 1) / CRITICAL_GRID, f[i]
        if fa == 0.0:
            roots.append(a)
            continue
        for _ in range(200):
            m = 0.5 * (a + b)
            fm = float(d1(np.asarray(m)))
            if fm == 0.0 or (b - a) < 1e-14:
                a = b = m
                break
            if fa * fm < 0:
                b = m
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
        Critical points, taken mod 1 into [0, 1). Located by bisection
        when omitted.

    Each critical point is tagged "minimum" or "maximum" by the sign of
    V'' there, and the tags must alternate around the circle. ``scales``
    holds the sampled magnitudes of V, V' and V'', each at least 1, that
    the periodicity and slope tolerances are relative to.
    """

    def __init__(self, value, d1, d2, criticals=None):
        self.value = _as_vectorized(value)
        self.d1 = _as_vectorized(d1)
        self.d2 = _as_vectorized(d2)

        s = np.linspace(0.0, 1.0, 65)[:-1] + 1e-3
        # rounding grows with the sampled magnitude of V, V' and V'', as
        # in a table's series, so their tolerances scale with it
        scales = []
        for f, name in ((self.value, "V"), (self.d1, "V'"), (self.d2, "V''")):
            lo, hi = f(s), f(s + 1.0)
            scales.append(max(1.0, np.max(np.abs(lo)), np.max(np.abs(hi))))
            if np.max(np.abs(hi - lo)) > 1e-9 * scales[-1]:
                raise ModelInvalid(f"{name} is not one-periodic on sampled points")

        if criticals is None:
            criticals = find_criticals(self.d1)
        criticals = np.mod(np.asarray(criticals, dtype=float), 1.0)
        # a tiny negative point rounds up to 1.0, which is 0.0 mod 1
        criticals = np.sort(np.where(criticals == 1.0, 0.0, criticals))
        if criticals.size == 0:
            raise ModelInvalid("background has no critical points; not Morse")
        resid = np.abs(self.d1(criticals))
        if np.max(resid) > TOL_CRIT * scales[1]:
            worst = criticals[int(np.argmax(resid))]
            raise ModelInvalid(f"critical point {float(worst)!r} has slope residual "
                               f"{np.max(resid):.2e}")
        curv = self.d2(criticals)
        gap = float(np.min(np.abs(curv)))
        if gap <= 0.0:
            raise ModelInvalid("degenerate critical point; background is not Morse")
        kinds = tuple("minimum" if cv > 0 else "maximum" for cv in curv)
        # a lone critical point is its own neighbour, so this needs both kinds
        if any(a == b for a, b in zip(kinds, kinds[1:] + kinds[:1])):
            raise ModelInvalid("critical tags must alternate around the circle")

        self.criticals = criticals
        self.scales = tuple(map(float, scales))
        self.kinds = kinds
        self.morse_gap = gap

    @property
    def minima(self):
        return self.criticals[[k == "minimum" for k in self.kinds]]

    @property
    def maxima(self):
        return self.criticals[[k == "maximum" for k in self.kinds]]


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

    return Potential(value, d1, d2, criticals=np.arange(2 * N) / (2.0 * N))


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
    m = np.arange(n // 2 + 1)
    # |V|, |V'| and |V''| are at most half the bound, which leaves room for
    # the differences that Potential's checks take
    with np.errstate(over="ignore", invalid="ignore"):
        coef = np.fft.rfft(samples) / n
        bound = 4.0 * np.sum(np.abs(coef) * np.maximum(1.0, (2 * np.pi * m) ** 2))
    if not np.isfinite(bound):
        raise ValueError("table potential overflows: its Fourier series or "
                         "its second derivative exceeds the float range")
    # drop the unpaired Nyquist mode for even n; it cannot be evaluated
    # consistently off-grid
    if n % 2 == 0:
        coef, m = coef[:-1], m[:-1]

    def series(s, order):
        s = np.asarray(s, dtype=float)
        phase = np.exp(2j * np.pi * np.outer(s.ravel(), m))
        fac = (2j * np.pi * m) ** order
        vals = phase @ (coef * fac)
        # every positive mode appears with its conjugate partner; the
        # constant mode must not be doubled
        out = 2.0 * np.real(vals) - np.real(coef[0] * fac[0])
        return out.reshape(s.shape)

    # V, V' and V'' are the series differentiated 0, 1 and 2 times
    return Potential(*(lambda s, k=k: series(s, k) for k in range(3)))


def _center_and_units(offsets):
    """Indices of the zero offset and of the unit offsets in a ball."""
    norms = np.abs(offsets).sum(axis=1)
    return int(np.flatnonzero(norms == 0)[0]), np.flatnonzero(norms == 1).tolist()


class InteractionStencil:
    """Finite-range local energy applied at every lattice site.

    A window holds the values on the L1 ball of radius ``range`` around a
    site, in the lexicographic order of :func:`ball_offsets`. Callbacks
    take a stack of windows: the last axis runs over the m offsets, under
    any leading axes (none for a single window), and no window's result
    may depend on the rest of the stack, not even in its last bits.
    ``energy`` returns the leading shape, ``gradient`` appends (m,) and
    ``hessian`` (m, m). Validation samples one stack and checks it bit
    for bit against its windows taken one by one, the ferromagnetic sign
    condition, integer-shift invariance, and the derivatives against
    finite differences.

    ``force`` and ``energy_sum`` gather the windows they need with one
    shifted slice per offset and make one callback call, unless closed
    forms ``force_field`` and ``energy_sum_field`` are given, as the
    built-in harmonic stencil does.
    """

    def __init__(self, d, range_, energy, gradient, hessian,
                 force_field=None, energy_sum_field=None):
        self.d = _as_index(d, "d")
        self.range = _as_index(range_, "range_")
        if self.d < 1 or self.range < 1:
            raise ValueError("need dimension >= 1 and range >= 1")
        self.offsets = ball_offsets(self.d, self.range)
        self.center, self.unit_indices = _center_and_units(self.offsets)
        self._energy, self._gradient, self._hessian = energy, gradient, hessian
        self._force_field = force_field
        self._energy_sum_field = energy_sum_field
        self._validate()

    # -- callbacks on stacks of windows -------------------------------------

    def _call(self, f, windows, tail, what):
        w = np.asarray(windows, dtype=float)
        out = np.asarray(f(w), dtype=float)
        if out.shape != w.shape[:-1] + tail:
            raise ModelInvalid(f"{what} callback returned a wrong-shaped array")
        return out

    def energy(self, windows):
        e = self._call(self._energy, windows, (), "energy")
        return float(e) if e.ndim == 0 else e

    def gradient(self, windows):
        return self._call(self._gradient, windows, self.offsets.shape[:1], "gradient")

    def hessian(self, windows):
        return self._call(self._hessian, windows, self.offsets.shape[:1] * 2, "hessian")

    def _validate(self):
        """Run the checks of the class docstring on 16 windows with entries
        in [-2, 2), the fixed sample of :func:`_fixed_uniform`."""
        m = len(self.offsets)
        # 16 windows under two leading axes, as the 2-d sums stack them
        w = _fixed_uniform(-2.0, 2.0, (4, 4, m))
        try:
            e, g, h = self.energy(w), self.gradient(w), self.hessian(w)
        except (IndexError, ValueError) as exc:
            raise ModelInvalid(
                f"callbacks fail on a stack of windows: {exc}") from exc
        # every window bit for bit, as the generic sums promise of a stack
        for got, f in ((e, self.energy), (g, self.gradient), (h, self.hessian)):
            one = np.array([f(v) for v in w.reshape(-1, m)])
            if not np.array_equal(got.reshape(one.shape), one):
                raise ModelInvalid("a stack of windows does not give the "
                                   "results of its windows one by one")
        if np.max(np.abs(h - np.swapaxes(h, -1, -2))) > 1e-8:
            raise ModelInvalid("hessian is not symmetric on a sampled window")
        if np.max(np.where(np.eye(m, dtype=bool), 0.0, h)) > 1e-12:
            raise ModelInvalid("ferromagnetic sign condition fails: "
                               "positive mixed derivative")
        if not np.all(h[..., self.center, self.unit_indices] < 0.0):
            raise ModelInvalid("ferromagnetic sign condition fails: center-to-"
                               "neighbor coupling must be strictly negative")
        if np.any(np.abs(self.energy(w + 1.0) - e) > 1e-9 * (1 + np.abs(e))):
            raise ModelInvalid("energy is not invariant under integer shifts")
        # central differences along every offset of the first 4 windows
        w, g, h = w[0], g[0], h[0]
        step = 1e-6 * np.eye(m)
        up, dn = w[..., None, :] + step, w[..., None, :] - step
        fd = (self.energy(up) - self.energy(dn)) / 2e-6
        scale = 1.0 + np.max(np.abs(g), axis=-1, keepdims=True)
        if np.any(np.abs(fd - g) > 1e-5 * scale):
            raise ModelInvalid("analytic gradient disagrees with finite differences")
        # row i of gd is column i of the hessian
        gd = (self.gradient(up) - self.gradient(dn)) / 2e-6
        scale = 1.0 + np.max(np.abs(h), axis=(-2, -1), keepdims=True)
        if np.any(np.abs(gd - np.swapaxes(h, -1, -2)) > 1e-4 * scale):
            raise ModelInvalid("analytic hessian disagrees with finite differences")

    # -- sums over the sites of a box ---------------------------------------

    def _windows(self, values, domain, box):
        """The windows of every site of ``box``, as a ``box.shape + (m,)``
        stack; the collar of width ``range`` must lie in ``domain``."""
        r = self.range
        sl = box.padded(r).slice_in(domain)
        return np.stack([
            values[tuple(slice(s.start + r + o, s.stop - r + o)
                         for s, o in zip(sl, off))]
            for off in self.offsets.tolist()], axis=-1)

    def energy_sum(self, values, domain, box):
        """Sum of the local energies over all sites of ``box``, added in
        the sites' lexicographic order from 0.0."""
        if self._energy_sum_field is not None:
            return self._energy_sum_field(values, domain, box)
        e = self.energy(self._windows(values, domain, box))
        return float(np.cumsum(np.concatenate(([0.0], e.ravel())))[-1])

    def force(self, values, domain, out):
        """Summed interaction force on every site of ``out``.

        The force at i sums the i-derivatives of every local energy whose
        window contains i. One gradient call covers ``out`` grown by
        ``range``; adding the offsets' slices in reverse order sums each
        site's terms in the lexicographic order of the window centres.
        Reads ``out`` grown by 2*range, which must lie in ``domain``.
        """
        if self._force_field is not None:
            return self._force_field(values, domain, out)
        r = self.range
        G = self.gradient(self._windows(values, domain, out.padded(r)))
        R = np.zeros(out.shape)
        for k in range(len(self.offsets) - 1, -1, -1):
            R += G[tuple(slice(r - o, r - o + n) for o, n in
                         zip(self.offsets[k].tolist(), out.shape)) + (k,)]
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
    offsets = ball_offsets(d, 1)
    center, units = _center_and_units(offsets)

    def differences(w):
        # np.take keeps the rows contiguous, so np.sum adds each window's
        # differences in the same order whatever the stack's shape
        return np.take(w, units, axis=-1) - w[..., [center]]

    def energy(w):
        return 0.25 * np.sum(differences(w) ** 2, axis=-1)

    def gradient(w):
        g = np.zeros_like(w)
        diffs = differences(w)
        g[..., units] = 0.5 * diffs
        g[..., center] = -0.5 * np.sum(diffs, axis=-1)
        return g

    hess = np.zeros((len(offsets), len(offsets)))
    hess[units, units] = 0.5
    hess[units, center] = hess[center, units] = -0.5
    hess[center, center] = float(d)

    def hessian(w):
        return np.broadcast_to(hess, np.shape(w)[:-1] + hess.shape)

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


@dataclass(repr=False)
class ModelConstants:
    """Envelope constants governing continuation; see the module docstring.
    Every field is stored as a float. The envelope is advisory: users may
    tighten or loosen it deliberately with ``dataclasses.replace``."""

    c: float
    C1: float
    C2: float
    delta0: float
    eps0: float
    eps1: float
    contraction_k: float
    osc_bound_K: float

    def __post_init__(self):
        for f in fields(self):
            setattr(self, f.name, float(getattr(self, f.name)))

    as_dict = asdict

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
    the force Jacobian row sums over a fixed sample of 256 windows with
    entries in [-(K+1)/2, (K+1)/2): the first draws of NumPy's PCG64
    stream seeded with SAMPLE_SEED, made by :func:`_fixed_uniform`, so
    repeated calls agree bit for bit. The trust radius combines the
    curvature-drift recipe (half of k*c over a sampled Lipschitz bound of
    V'') with half the minimal gap between distinct critical points, so
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
    wide_index = {tuple(o): i for i, o in enumerate(wide.tolist())}
    inner_index = {tuple(o): i for i, o in enumerate(inner.tolist())}

    lim = (K + 1.0) / 2.0
    samples = _fixed_uniform(-lim, lim, (SAMPLE_WINDOWS, len(wide)))

    def windows(j):
        """The sampled windows centred at offset j of the wide ball."""
        return samples[:, [wide_index[tuple(j + o)] for o in inner]]

    C1 = float((2 * r + 1) ** d) * float(np.max(np.abs(S.gradient(windows(0)))))
    # force Jacobian row at the center: d(force_0)/d(x_k) sums the mixed
    # derivatives of every window j containing both 0 and k, added in the
    # order of j; the columns number the k by first appearance
    col = {}
    row = np.zeros((SAMPLE_WINDOWS, len(wide)))
    for j in inner:
        h = S.hessian(windows(j))
        ks = [col.setdefault(tuple(j + o), len(col)) for o in inner]
        row[:, ks] += h[:, inner_index[tuple(-j)], :]
    C2 = float(np.max(np.cumsum(np.abs(row), axis=1)[:, -1]))

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
