"""Finite lattice windows and real-valued configurations on them.

Sites live in Z^d with the L1 norm. A window is an axis-aligned box of
sites, corners inclusive. The interior of a box with respect to an
interaction range r is the box shrunk by r on every axis (an L1 exit from
a box happens along a single axis, so the shrunk box is exact). Values are
stored on the full padded box that covers the collar the energy reads;
corner sites the energy never touches are simply carried along.
"""

import numpy as np


_INT64 = np.iinfo(np.int64)


def ball_offsets(d, r):
    """All integer offsets k with ||k||_1 <= r, in lexicographic order.

    Returns an (m, d) int array. The center 0 is included.
    """
    if d < 1 or r < 0:
        raise ValueError("need d >= 1 and r >= 0")
    # extend each prefix by the coordinates its remaining budget allows,
    # so that only the ball is built, never the (2r + 1)^d cube
    rows = [()]
    for _ in range(d):
        rows = [row + (k,) for row in rows
                for b in (r - sum(map(abs, row)),) for k in range(-b, b + 1)]
    return np.array(rows, dtype=int).reshape(-1, d)


def l1_norms(sites):
    """L1 norm of each row of an (n, d) site array."""
    return np.abs(np.asarray(sites)).sum(axis=1)


class Box:
    """Axis-aligned box of lattice sites with inclusive corners."""

    def __init__(self, lo, hi):
        # tuples of Python ints, as the box methods build them, skip NumPy,
        # which continuation would pay for twice per call; they are held to
        # the int64 range that NumPy's conversion enforces on the rest
        corners = lo + hi if type(lo) is tuple and type(hi) is tuple else None
        if corners and all(type(a) is int for a in corners):
            if min(corners) < _INT64.min or max(corners) > _INT64.max:
                raise OverflowError("box corners must fit in 64-bit integers")
        else:
            lo = np.atleast_1d(np.asarray(lo, dtype=int))
            hi = np.atleast_1d(np.asarray(hi, dtype=int))
            if lo.ndim != 1 or hi.ndim != 1:
                raise ValueError(
                    "lo and hi must be integer vectors of equal length")
            lo = tuple(int(a) for a in lo)
            hi = tuple(int(a) for a in hi)
        if len(lo) != len(hi):
            raise ValueError("lo and hi must be integer vectors of equal length")
        for a, b in zip(lo, hi):
            if b < a:
                raise ValueError(
                    "box corners must satisfy lo <= hi componentwise")
        self.lo = lo
        self.hi = hi
        self.d = len(lo)

    @classmethod
    def centered(cls, radius, d=1):
        """The box [-radius, radius]^d."""
        if radius < 0:
            raise ValueError("radius must be nonnegative")
        return cls((-radius,) * d, (radius,) * d)

    @property
    def shape(self):
        return tuple(h - l + 1 for l, h in zip(self.lo, self.hi))

    @property
    def size(self):
        return int(np.prod(self.shape))

    def sites(self):
        """All sites as an (size, d) int array in lexicographic order."""
        axes = [np.arange(l, h + 1) for l, h in zip(self.lo, self.hi)]
        grids = np.meshgrid(*axes, indexing="ij")
        return np.stack([g.ravel() for g in grids], axis=-1)

    def contains(self, site):
        site = np.atleast_1d(np.asarray(site, dtype=int))
        return bool(np.all(site >= self.lo) and np.all(site <= self.hi))

    def contains_box(self, other):
        for l, h, ol, oh in zip(self.lo, self.hi, other.lo, other.hi):
            if ol < l or oh > h:
                return False
        return True

    def index(self, site):
        """Array index tuple of a site; raises if outside the box."""
        if not self.contains(site):
            raise ValueError(f"site {tuple(site)} outside box {self}")
        site = np.atleast_1d(np.asarray(site, dtype=int))
        return tuple(int(s - l) for s, l in zip(site, self.lo))

    def interior(self, r):
        """Sites whose distance-r ball stays inside the box. May raise."""
        lo = tuple(l + r for l in self.lo)
        hi = tuple(h - r for h in self.hi)
        if any(a > b for a, b in zip(lo, hi)):
            raise ValueError(f"box {self} has empty interior at range {r}")
        return Box(lo, hi)

    def padded(self, r):
        """The box grown by r on every axis (holds the reading collar)."""
        return Box(tuple(l - r for l in self.lo), tuple(h + r for h in self.hi))

    def shift(self, k):
        k = np.atleast_1d(np.asarray(k, dtype=int)).tolist()
        return Box(tuple(l + a for l, a in zip(self.lo, k)),
                   tuple(h + a for h, a in zip(self.hi, k)))

    def intersect(self, other):
        """Intersection box, or None when disjoint."""
        lo = tuple(max(a, b) for a, b in zip(self.lo, other.lo))
        hi = tuple(min(a, b) for a, b in zip(self.hi, other.hi))
        if any(a > b for a, b in zip(lo, hi)):
            return None
        return Box(lo, hi)

    def slice_in(self, domain):
        """Index slices selecting this box inside an enclosing domain box."""
        out = []
        for l, h, dl, dh in zip(self.lo, self.hi, domain.lo, domain.hi):
            if l < dl or h > dh:
                raise ValueError(f"box {self} not contained in domain {domain}")
            out.append(slice(l - dl, h - dl + 1))
        return tuple(out)

    def __eq__(self, other):
        return isinstance(other, Box) and self.lo == other.lo and self.hi == other.hi

    def __hash__(self):
        return hash((self.lo, self.hi))

    def __repr__(self):
        return f"Box(lo={self.lo}, hi={self.hi})"


class Configuration:
    """Real values on every site of a box window."""

    def __init__(self, domain, values):
        if not isinstance(domain, Box):
            raise ValueError("domain must be a Box")
        values = np.asarray(values, dtype=float)
        if values.shape != domain.shape:
            # 1-d convenience: accept flat arrays for flat boxes
            values = values.reshape(domain.shape)
        if not np.isfinite(values).all():
            raise ValueError("configuration values must be finite")
        self.domain = domain
        self.values = values.copy()

    @classmethod
    def _adopt(cls, domain, values):
        """A configuration that takes over ``values`` without a copy or a
        check: the caller hands over a finite float array of the domain's
        shape and keeps no other use of it."""
        x = cls.__new__(cls)
        x.domain = domain
        x.values = values
        return x

    def box_values(self, box):
        """Values on a sub-box, as an array of that box's shape."""
        return self.values[box.slice_in(self.domain)]

    def restrict(self, box):
        return Configuration(box, self.box_values(box))

    def __repr__(self):
        return f"Configuration(domain={self.domain})"
