"""Clipping and triangulation checked against closed-form areas."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.spatial import ConvexHull

from fddlm.geometry import (
    clip_convex,
    clip_convex_batch,
    fan_triangulate,
    fan_triangulate_batch,
    is_ccw_convex,
    signed_area,
    triangle_areas,
)


def square(x0, y0, x1, y1):
    return np.array([[x0, y0], [x1, y0], [x1, y1], [x0, y1]], dtype=float)


def random_convex(rng, n=10, scale=1.0, shift=(0.0, 0.0)):
    """Convex hull of random points; scipy returns 2d hulls counterclockwise."""
    pts = rng.standard_normal((n, 2)) * scale + np.asarray(shift)
    return pts[ConvexHull(pts).vertices]


def min_signed_distance(pts, poly):
    """Smallest signed edge distance of points to a convex CCW polygon."""
    worst = np.inf
    n = len(poly)
    for k in range(n):
        a = poly[k]
        b = poly[(k + 1) % n]
        e = b - a
        d = (e[0] * (pts[:, 1] - a[1]) - e[1] * (pts[:, 0] - a[0])) / np.hypot(*e)
        worst = min(worst, float(d.min()))
    return worst


def test_signed_area_shoelace():
    assert signed_area(square(0, 0, 1, 1)) == pytest.approx(1.0, abs=1e-15)
    assert signed_area(square(0, 0, 1, 1)[::-1]) == pytest.approx(-1.0, abs=1e-15)
    assert signed_area([[0, 0], [2, 0], [0, 3]]) == pytest.approx(3.0, abs=1e-15)
    assert signed_area(square(-2.5, 1.0, 0.5, 4.0)) == pytest.approx(9.0, rel=1e-15)


def test_is_ccw_convex():
    assert is_ccw_convex(square(0, 0, 1, 1))
    assert not is_ccw_convex(square(0, 0, 1, 1)[::-1])
    lpoly = np.array([[0, 0], [2, 0], [2, 1], [1, 1], [1, 2], [0, 2]], dtype=float)
    assert signed_area(lpoly) > 0  # counterclockwise but reflex at (1, 1)
    assert not is_ccw_convex(lpoly)
    # a collinear vertex on an edge must still pass
    assert is_ccw_convex([[0, 0], [1, 0], [2, 0], [2, 2], [0, 2]])


def test_clip_self_is_identity():
    rng = np.random.default_rng(7)
    for _ in range(50):
        x0, y0 = rng.uniform(-3, 3, 2)
        w, ht = rng.uniform(0.2, 2.0, 2)
        sq = square(x0, y0, x0 + w, y0 + ht)
        out = clip_convex(sq, sq)
        assert out is not None
        assert signed_area(out) == pytest.approx(w * ht, rel=1e-13)


def test_clip_rectangles_closed_form_overlap():
    rng = np.random.default_rng(42)
    hits = 0
    for _ in range(200):
        ax = np.sort(rng.uniform(-2, 2, 2))
        ay = np.sort(rng.uniform(-2, 2, 2))
        bx = np.sort(rng.uniform(-2, 2, 2))
        by = np.sort(rng.uniform(-2, 2, 2))
        expect = max(0.0, min(ax[1], bx[1]) - max(ax[0], bx[0])) * max(
            0.0, min(ay[1], by[1]) - max(ay[0], by[0])
        )
        out = clip_convex(square(ax[0], ay[0], ax[1], ay[1]),
                          square(bx[0], by[0], bx[1], by[1]))
        got = 0.0 if out is None else signed_area(out)
        assert got == pytest.approx(expect, abs=1e-12)
        hits += out is not None
    assert hits > 50  # the sample must actually exercise overlapping pairs


def test_clip_rotated_square_gives_octagon():
    # |x| <= 1, |y| <= 1 against |x| + |y| <= sqrt(2): regular octagon of
    # area 8*sqrt(2) - 8
    s = square(-1, -1, 1, 1)
    r2 = np.sqrt(2.0)
    diamond = np.array([[r2, 0], [0, r2], [-r2, 0], [0, -r2]])
    out = clip_convex(s, diamond)
    assert out is not None and out.shape[0] == 8
    assert signed_area(out) == pytest.approx(8 * np.sqrt(2) - 8, rel=1e-13)
    swapped = clip_convex(diamond, s)
    assert signed_area(swapped) == pytest.approx(signed_area(out), rel=1e-13)


def test_clip_disjoint_and_touching_give_none():
    a = square(0, 0, 1, 1)
    assert clip_convex(a, square(2, 0, 3, 1)) is None
    assert clip_convex(a, square(1, 0, 2, 1)) is None  # shared edge only
    assert clip_convex(a, square(1, 1, 2, 2)) is None  # shared corner only
    assert clip_convex(a, square(-5, 2, 5, 3)) is None


def test_clip_random_convex_pairs():
    rng = np.random.default_rng(3)
    nonempty = 0
    for _ in range(100):
        p = random_convex(rng, 10)
        q = random_convex(rng, 10, shift=rng.uniform(-1.5, 1.5, 2))
        out = clip_convex(p, q)
        if out is None:
            continue
        nonempty += 1
        a = signed_area(out)
        assert 0 < a <= min(signed_area(p), signed_area(q)) + 1e-12
        assert is_ccw_convex(out, tol=1e-9)
        assert min_signed_distance(out, p) >= -1e-9
        assert min_signed_distance(out, q) >= -1e-9
        # intersection is symmetric in its arguments
        assert signed_area(clip_convex(q, p)) == pytest.approx(a, rel=1e-10)
    assert nonempty > 30


def test_clip_subset_returns_subset():
    outer = random_convex(np.random.default_rng(5), 12, scale=4.0)
    inner = square(-0.1, -0.1, 0.1, 0.1)
    out = clip_convex(inner, outer)
    assert signed_area(out) == pytest.approx(0.04, rel=1e-13)


def test_fan_triangulation_conserves_area():
    rng = np.random.default_rng(11)
    for _ in range(50):
        poly = random_convex(rng, 12)
        tris = fan_triangulate(poly)
        assert tris.shape == (len(poly), 3, 2)
        areas = triangle_areas(tris)
        assert np.all(areas > 0)
        assert areas.sum() == pytest.approx(signed_area(poly), rel=1e-13)


def test_triangle_areas_signs():
    t = np.array([[[0, 0], [1, 0], [0, 1]], [[0, 0], [0, 1], [1, 0]]], dtype=float)
    assert triangle_areas(t) == pytest.approx([0.5, -0.5], abs=1e-15)


def affine_quad(center, size, angle, shear, aspect, angles=None):
    """Counterclockwise convex quad: the unit square, or four points at
    ``angles`` on the unit circle, mapped by scale, shear and rotation."""
    if angles is None:
        ref = np.array([[-1, -1], [1, -1], [1, 1], [-1, 1]], dtype=float) / 2
    else:
        a = np.sort(np.asarray(angles)) * 2 * np.pi
        ref = np.column_stack([np.cos(a), np.sin(a)]) / 2
    c, s = np.cos(angle), np.sin(angle)
    A = size * np.array([[c, -s], [s, c]]) @ np.array([[1.0, shear], [0.0, aspect]])
    return ref @ A.T + np.asarray(center)


unit = st.floats(0, 1)
quad_params = st.tuples(
    st.floats(-0.5, 0.5),  # shear
    st.floats(0.3, 3),  # aspect
    unit,  # rotation
    st.one_of(st.none(), st.lists(unit, min_size=4, max_size=4, unique=True)),
)


@st.composite
def quad_pairs(draw):
    # the small sizes put quads far from the origin relative to their size
    size = 10.0 ** draw(st.floats(-3, 1))
    center = np.array(draw(st.tuples(st.floats(-4, 4), st.floats(-4, 4)))) * 10.0 ** draw(
        st.floats(-1, 3)
    )
    shear, aspect, rot, angles = draw(quad_params)
    subject = affine_quad(center, size, rot * 2 * np.pi, shear, aspect, angles)
    kind = draw(
        st.sampled_from(["random", "grid", "identical", "nested", "edge", "corner", "near"])
    )
    if kind == "random":
        shift = np.array(draw(st.tuples(st.floats(-1, 1), st.floats(-1, 1)))) * size
        shear, aspect, rot, angles = draw(quad_params)
        clipper = affine_quad(
            center + shift, size * draw(st.floats(0.3, 3)), rot * 2 * np.pi, shear, aspect, angles
        )
    elif kind == "grid":
        shift = np.array(draw(st.tuples(st.floats(-1, 1), st.floats(-1, 1)))) * size
        clipper = affine_quad(center + shift, size * draw(st.floats(0.3, 3)), 0.0, 0.0, 1.0)
    elif kind == "identical":
        clipper = subject.copy()
    elif kind == "nested":
        factor = draw(st.sampled_from([0.25, 0.9, 1.1, 4.0]))
        mid = subject.mean(axis=0)
        clipper = mid + factor * (subject - mid)
    else:
        # translate by one edge (shared edge) or by the sum of two edges
        # (shared corner); the quad is a parallelogram or not, so the
        # contact is exact or within rounding or a real overlap. "near"
        # adds an offset of 1e-14 to 1e-9 of the size, on both sides of
        # the on-edge tolerance
        k = draw(st.integers(0, 3))
        e = subject[(k + 1) % 4] - subject[k]
        if kind == "corner":
            e = e + subject[(k + 2) % 4] - subject[(k + 1) % 4]
        if kind == "near":
            phi = draw(unit) * 2 * np.pi
            e = e + size * 10.0 ** draw(st.floats(-14, -9)) * np.array([np.cos(phi), np.sin(phi)])
        clipper = subject + e
    if draw(st.booleans()):
        subject, clipper = clipper, subject
    return subject, clipper


@settings(max_examples=60, deadline=None)
@given(pairs=st.lists(quad_pairs(), min_size=1, max_size=25))
def test_batch_clip_matches_clip_convex_row_by_row(pairs):
    subjects = np.array([p[0] for p in pairs])
    clippers = np.array([p[1] for p in pairs])
    verts, count = clip_convex_batch(subjects, clippers)
    assert verts.shape[0] == count.shape[0] == len(pairs)
    fans = []
    for k, (p, q) in enumerate(pairs):
        ref = clip_convex(p, q)
        if ref is None:
            assert count[k] == 0
        else:
            assert count[k] == len(ref)
            assert np.array_equal(verts[k, : count[k]], ref)
            fans.append(fan_triangulate(ref))
    hit = count > 0
    tris = fan_triangulate_batch(verts[hit], count[hit])
    assert np.array_equal(tris, np.concatenate(fans or [np.empty((0, 3, 2))]))


def test_batch_clip_special_rows():
    s = square(-1, -1, 1, 1)
    r2 = np.sqrt(2.0)
    diamond = np.array([[r2, 0], [0, r2], [-r2, 0], [0, -r2]])
    flat = np.array([[0, 0], [1, 0], [2, 0], [1, 0]], dtype=float)  # zero area
    pinched = np.array([[-1, -1], [1, -1], [1, -1], [-1, 1]], dtype=float)  # repeated vertex
    closed = np.array([[-1, -1], [1, -1], [-1, 1], [-1, -1]], dtype=float)  # last = first
    subjects = np.array([s, flat, s, s, s, diamond, pinched, closed])
    clippers = np.array([diamond, s, square(2, 0, 3, 1), square(1, -1, 2, 1), pinched, s, s, s])
    verts, count = clip_convex_batch(subjects, clippers)
    # octagon, zero-area subject, disjoint, shared edge, zero-length clip
    # edge, octagon, and the two dedupe cases (consecutive, cyclic)
    assert count.tolist() == [8, 0, 0, 0, 3, 8, 3, 3]
    for k in range(len(subjects)):
        ref = clip_convex(subjects[k], clippers[k])
        assert (ref is None) == (count[k] == 0)
        if ref is not None:
            assert np.array_equal(verts[k, : count[k]], ref)
