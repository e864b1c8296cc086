"""Finite lattice windows and real-valued configurations on them.

Sites live in Z^d with the L1 norm. A window is an axis-aligned box of
sites, corners inclusive. The interior of a box with respect to an
interaction range r is the box shrunk by r on every axis (an L1 exit from
a box happens along a single axis, so the shrunk box is exact). Values are
stored on the full padded box that covers the collar the energy reads;
corner sites the energy never touches are simply carried along.
"""

from operator import index

import numpy as np


_INT64_MIN, _INT64_MAX = -2**63, 2**63 - 1


def _integers(v):
    """An integer or a 1-d vector of them as a tuple of ints, entry by
    entry through ``operator.index``; None for floats, 2-d arrays and the
    rest, which are never rounded or flattened."""
    try:
        return tuple(map(index, v)) if hasattr(v, "__iter__") else (index(v),)
    except TypeError:
        return None


def _as_index(value, name):
    """A count or size as a Python int through ``operator.index``: NumPy
    integers pass, and a float is refused, not truncated."""
    try:
        return index(value)
    except TypeError:
        raise TypeError(f"{name} must be an integer, not "
                        f"{type(value).__name__}") from None


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
        lo, hi = _integers(lo), _integers(hi)
        if lo is None or hi is None or len(lo) != len(hi):
            raise ValueError("lo and hi must be integer vectors of equal length")
        for a, b in zip(lo, hi):
            if not (_INT64_MIN <= a <= _INT64_MAX
                    and _INT64_MIN <= b <= _INT64_MAX):
                raise OverflowError("box corners must fit in 64-bit integers")
            if b < a:
                raise ValueError(
                    "box corners must satisfy lo <= hi componentwise")
        self.lo = lo
        self.hi = hi
        self.d = len(lo)

    @classmethod
    def centered(cls, radius, d=1):
        """The box [-radius, radius]^d (a negative radius has lo > hi)."""
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

    def _vector(self, v):
        """A site or shift of this box, by the rule of the corners."""
        t = _integers(v)
        if t is None or len(t) != self.d:
            raise ValueError(f"sites and shifts of a {self.d}-d box must be "
                             f"integer vectors of length {self.d}")
        return t

    def contains(self, site):
        site = self._vector(site)
        return all(l <= a <= h for a, l, h in zip(site, self.lo, self.hi))

    def contains_box(self, other):
        for l, h, ol, oh in zip(self.lo, self.hi, other.lo, other.hi):
            if ol < l or oh > h:
                return False
        return True

    def index(self, site):
        """Array index tuple of a site; raises if outside the box."""
        site = self._vector(site)
        if not self.contains(site):
            raise ValueError(f"site {site} outside box {self}")
        return tuple(a - l for a, l in zip(site, self.lo))

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
        k = self._vector(k)
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
            # a flat array of the box's size is read in lexicographic order
            if values.shape != (domain.size,):
                raise ValueError(f"configuration values must have the box's "
                                 f"shape {domain.shape} or be flat of its size "
                                 f"{domain.size}, got shape {values.shape}")
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
