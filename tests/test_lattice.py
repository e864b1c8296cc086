import itertools
import tracemalloc

import numpy as np
import pytest

from lamlab import Box, Configuration, ball_offsets, l1_norms


def brute_ball(d, r):
    # independent enumeration: the points of the whole cube, in
    # lexicographic order, with L1 norm <= r
    rng = np.arange(-r, r + 1)
    grids = np.meshgrid(*([rng] * d), indexing="ij")
    pts = np.stack([g.ravel() for g in grids], axis=-1)
    return pts[np.abs(pts).sum(axis=1) <= r]


@pytest.mark.parametrize("d,r", list(itertools.product(range(1, 7),
                                                       range(5))))
def test_ball_offsets_match_brute_enumeration(d, r):
    got = ball_offsets(d, r)
    want = brute_ball(d, r)
    assert got.dtype == want.dtype and got.shape == want.shape
    assert np.array_equal(got, want)


def test_ball_offsets_never_build_the_cube():
    # the 9-D cube of side 5 alone would take 141 MB
    tracemalloc.start()
    try:
        got = ball_offsets(9, 2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert got.shape == (181, 9)
    assert peak < 2**18


def test_ball_offsets_lexicographic_and_l1_norms():
    got = ball_offsets(2, 2)
    assert got.tolist() == sorted(got.tolist())
    assert np.array_equal(l1_norms(got), np.sum(np.abs(got), axis=1))


def test_box_basics():
    B = Box([-2, -3], [4, 5])
    assert B.shape == (7, 9)
    assert B.size == 63
    assert B.contains([0, 0]) and not B.contains([5, 0])
    sites = B.sites()
    assert sites.shape == (63, 2)
    assert tuple(sites[0]) == (-2, -3) and tuple(sites[-1]) == (4, 5)
    # index() maps the j-th site to the j-th array cell
    for j in (0, 17, 62):
        assert B.index(sites[j]) == np.unravel_index(j, B.shape)


def test_box_centered_interior_padded_shift():
    B = Box.centered(5, 2)
    assert B.lo == (-5, -5) and B.hi == (5, 5)
    assert B.interior(2) == Box.centered(3, 2)
    assert B.padded(1) == Box.centered(6, 2)
    assert B.shift([1, -2]) == Box([-4, -7], [6, 3])
    assert B.padded(1).interior(1) == B


def test_box_intersect_and_slice():
    A = Box([-3], [4])
    C = Box([0], [9])
    got = A.intersect(C)
    assert got == Box([0], [4])
    assert A.intersect(Box([5], [9])) is None
    sl = got.slice_in(A)
    vals = np.arange(8)
    assert vals[sl].tolist() == [3, 4, 5, 6, 7]


def test_slice_in_requires_containment():
    with pytest.raises(ValueError) as caught:
        Box([-3], [3]).slice_in(Box([0], [2]))
    assert str(caught.value) == ("box Box(lo=(-3,), hi=(3,)) not contained "
                                 "in domain Box(lo=(0,), hi=(2,))")
    # every axis is checked, also past the first one that fits
    with pytest.raises(ValueError):
        Box((0, -1), (2, 2)).slice_in(Box((0, 0), (2, 2)))
    assert not Box((0, 0), (2, 2)).contains_box(Box((0, 0), (2, 3)))
    assert Box((0, 0), (2, 3)).contains_box(Box((1, 0), (2, 3)))


@pytest.mark.parametrize("lo,hi", [((-2,), (4,)), ((-2, 0, 5), (4, 3, 5))])
def test_python_and_numpy_int_corners_build_equal_boxes(lo, hi):
    boxes = [Box(lo, hi), Box(list(lo), list(hi)),
             Box(np.asarray(lo), np.asarray(hi)),
             Box(tuple(np.int64(a) for a in lo), tuple(np.int32(a) for a in hi))]
    for B in boxes:
        assert B == boxes[0] and hash(B) == hash(boxes[0])
        assert all(type(a) is int for a in B.lo + B.hi)
        assert B.d == len(lo) and B.shape == boxes[0].shape
    # boxes built by the box methods agree with boxes built from arrays
    B = boxes[0]
    assert B.padded(2) == Box(np.asarray(lo) - 2, np.asarray(hi) + 2)
    assert B.shift(np.ones(len(lo), dtype=np.int64)) == \
        Box(np.asarray(lo) + 1, np.asarray(hi) + 1)
    assert B.intersect(B.padded(1)) == B


@pytest.mark.parametrize("lo,hi,message", [
    ((0, 1), (2,), "lo and hi must be integer vectors of equal length"),
    ((0, 3), (2, 2), "box corners must satisfy lo <= hi componentwise"),
    ((1,), (0,), "box corners must satisfy lo <= hi componentwise"),
])
def test_box_refusals_are_the_same_for_every_corner_type(lo, hi, message):
    for args in ((lo, hi), (list(lo), list(hi)),
                 (np.asarray(lo), np.asarray(hi))):
        with pytest.raises(ValueError) as caught:
            Box(*args)
        assert str(caught.value) == message


@pytest.mark.parametrize("lo,hi", [((0,), (2**63,)), ((-2**63 - 1, 0), (0, 0)),
                                   ((0,), (10**400,))])
def test_box_corners_beyond_int64_overflow_for_every_corner_type(lo, hi):
    for args in ((lo, hi), (list(lo), list(hi))):
        with pytest.raises(OverflowError):
            Box(*args)
    with pytest.raises(OverflowError):
        Box.centered(hi[0] or -lo[0], len(lo))
    edge = Box((-2**63,), (2**63 - 1,))
    assert edge == Box([-2**63], [2**63 - 1])


def test_configuration_shape_and_finite_checks():
    B = Box.centered(2, 1)
    with pytest.raises(ValueError):
        Configuration(B, np.zeros(4))
    with pytest.raises(ValueError):
        Configuration(B, [0.0, 1.0, np.nan, 0.0, 1.0])
    x = Configuration(B, np.arange(5.0))
    assert np.array_equal(x.values, np.arange(5.0))


def test_configuration_restrict_and_box_values():
    B = Box.centered(3, 2)
    vals = np.arange(49.0).reshape(7, 7)
    x = Configuration(B, vals)
    sub = Box.centered(1, 2)
    assert np.array_equal(x.box_values(sub), vals[2:5, 2:5])
    y = x.restrict(sub)
    assert y.domain == sub
    assert np.array_equal(y.values, vals[2:5, 2:5])
    y.values[0, 0] = -1.0
    assert x.values[2, 2] == 16.0  # restriction owns its values
