"""Moments of polygons cut by the unit square, checked against closed
forms, the general one-pair clipper and a triangle-rule oracle; the
oracle clipper itself checked against closed forms."""

from math import factorial

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.spatial import ConvexHull

from fddlm.coupling import SLIVER_RTOL
from fddlm.geometry import square_moments
from oracles import clip_convex, fan_rule, fan_triangulate, signed_area


def square(x0, y0, x1, y1):
    return np.array([[x0, y0], [x1, y0], [x1, y1], [x0, y1]], dtype=float)


def random_convex(rng, n=10, scale=1.0, shift=(0.0, 0.0)):
    """Convex hull of random points; scipy returns 2d hulls counterclockwise."""
    pts = rng.standard_normal((n, 2)) * scale + np.asarray(shift)
    return pts[ConvexHull(pts).vertices]


def is_ccw_convex(poly, tol=1e-12):
    """Counterclockwise and convex: consecutive-edge cross products are all
    >= -tol * diag^2 (diag the bounding-box diagonal), so nearly collinear
    vertices pass."""
    p = np.asarray(poly, dtype=float)
    if p.shape[0] < 3:
        return False
    d = np.roll(p, -1, axis=0) - p
    cross = d[:, 0] * np.roll(d[:, 1], -1) - d[:, 1] * np.roll(d[:, 0], -1)
    scale = np.linalg.norm(p.max(axis=0) - p.min(axis=0))
    return bool(np.all(cross >= -tol * scale * scale)) and signed_area(p) > 0.0


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
        areas = np.array([signed_area(t) for t in tris])
        assert np.all(areas > 0)
        assert areas.sum() == pytest.approx(signed_area(poly), rel=1e-13)


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
def quad_boxes(draw):
    """A convex quad and an axis-aligned box: overlapping at random, nested,
    or touching along a grid line or at a box corner, exactly or within
    1e-14..1e-9 of the quad's size on either side. Sizes 1e-3..10, up to
    400 sizes from the origin."""
    size = 10.0 ** draw(st.floats(-3, 1))
    center = np.array(draw(st.tuples(st.floats(-4, 4), st.floats(-4, 4)))) * (
        size * 10.0 ** draw(st.floats(0, 2))
    )
    if draw(st.booleans()):
        shear, aspect, rot, angles = draw(quad_params)
    else:  # a grid-aligned rectangle, with edges on the box's lines
        shear, aspect, rot, angles = 0.0, draw(st.floats(0.3, 3)), 0.0, None
    quad = affine_quad(center, size, rot * 2 * np.pi, shear, aspect, angles)
    # a mesh cell: no two vertices within 1e-3 of its size
    edges = np.roll(quad, -1, axis=0) - quad
    assume(np.hypot(edges[:, 0], edges[:, 1]).min() > 1e-3 * size)
    qlo, qhi = quad.min(axis=0), quad.max(axis=0)
    kind = draw(st.sampled_from(["random", "nested", "edge", "corner"]))
    if kind == "random":
        mid = center + np.array(draw(st.tuples(st.floats(-1, 1), st.floats(-1, 1)))) * size
        half = np.array(draw(st.tuples(st.floats(0.1, 2), st.floats(0.1, 2)))) * size
        return quad, mid - half, mid + half
    if kind == "nested":
        factor = draw(st.sampled_from([0.25, 0.9, 1.0, 1.1, 4.0]))
        mid = (qlo + qhi) / 2
        return quad, mid - factor * (mid - qlo), mid + factor * (qhi - mid)
    # the box starts at the quad's extreme coordinate on one axis ("edge")
    # or on both ("corner"), shifted by 0 or by +-1e-14..1e-9 of the size
    axes = [draw(st.integers(0, 1))] if kind == "edge" else [0, 1]
    lo = center - np.array(draw(st.tuples(st.floats(0.1, 2), st.floats(0.1, 2)))) * size
    hi = center + np.array(draw(st.tuples(st.floats(0.1, 2), st.floats(0.1, 2)))) * size
    for ax in axes:
        shift = draw(st.sampled_from([0.0, -1.0, 1.0])) * size * 10.0 ** draw(st.floats(-14, -9))
        width = draw(st.floats(0.1, 2)) * size
        if draw(st.booleans()):  # the box lies beyond the quad's max
            lo[ax] = qhi[ax] + shift
            hi[ax] = lo[ax] + width
        else:  # the box lies below the quad's min
            hi[ax] = qlo[ax] - shift
            lo[ax] = hi[ax] - width
    return quad, lo, hi


def box_moments(quads, lo, hi):
    """square_moments of quads in the reference coordinates of the boxes
    [lo, hi], scaled back to physical area."""
    ext = hi - lo
    return square_moments((quads - lo[:, None]) / ext[:, None]) * ext.prod(axis=1)[:, None, None]


def fan_rule_moments(poly):
    """int x^p y^q, p, q <= 2, by the degree-4 triangle rule on the fan."""
    pts, wts = fan_rule(poly)
    e = np.arange(3)
    return np.einsum("k,kp,kq->pq", wts, pts[:, :1] ** e, pts[:, 1:] ** e)


@settings(max_examples=100, deadline=None)
@given(rows=st.lists(quad_boxes(), min_size=1, max_size=25))
def test_box_clip_matches_clip_convex(rows):
    quads, lo, hi = (np.array([r[i] for r in rows]) for i in range(3))
    M = box_moments(quads, lo, hi)
    # a piece below SLIVER_RTOL of the quad's area is empty, as the
    # coupling table drops it
    threshold = SLIVER_RTOL * np.array([signed_area(q) for q in quads])
    empty = M[:, 0, 0] < threshold
    for k, (quad, a, b) in enumerate(rows):
        piece = clip_convex(quad, square(a[0], a[1], b[0], b[1]), tol=0.0)
        Mref = np.zeros((3, 3))
        if piece is not None:
            Mref = fan_rule_moments((piece - a) / (b - a)) * np.prod(b - a)
        if empty[k] != (piece is None):
            # only a piece at the threshold may fall on either side of it
            band = 1e-3 * threshold[k]
            assert abs(M[k, 0, 0] - threshold[k]) <= band
            assert piece is None or abs(Mref[0, 0] - threshold[k]) <= band
            continue
        span = np.vstack([quad, a, b])
        diag = np.linalg.norm(span.max(axis=0) - span.min(axis=0))
        # either route rounds each coordinate to an ulp of R = max |x|, so
        # the moments, at most the box area, agree to ~1e-16 R diag, inside
        # the bound below while R / diag stays below ~1e3
        tol = 1e-13 * diag**2
        assert np.all(np.abs(np.where(empty[k], 0.0, M[k]) - Mref) <= tol)


def test_box_clip_special_rows():
    s = square(-1, -1, 1, 1)
    r2 = np.sqrt(2.0)
    diamond = np.array([[r2, 0], [0, r2], [-r2, 0], [0, -r2]])
    subjects = np.array([diamond, s, s, s, s, diamond])
    lo = np.array([[-1, -1], [-1, -1], [2, 0], [1, -1], [1, 1], [r2, -1]])
    hi = np.array([[1, 1], [1, 1], [3, 1], [2, 1], [2, 2], [3, 1]])
    M = box_moments(subjects, lo, hi)
    # octagon and identity
    assert M[0, 0, 0] == pytest.approx(8 * r2 - 8, rel=1e-13)
    assert M[1, 0, 0] == pytest.approx(4.0, rel=1e-14)
    # disjoint, shared edge, shared corner, and the diamond's corner on a
    # box line: exact zeros
    assert not M[2:].any()


def test_square_moments_closed_forms():
    e = np.arange(3)
    inside = square(0, 0, 1, 1)
    cover = square(-1, -0.5, 2, 3)
    tri = np.array([[0, 0], [1, 0], [0, 1], [0, 1]], dtype=float)  # a repeated vertex
    off = [  # left, right, below and above the square
        square(-2, 0.2, -1, 0.8),
        square(2, 0.2, 3, 0.8),
        square(0.2, -3, 0.8, -1),
        square(0.2, 2, 0.8, 3),
    ]
    touching = square(1, 0.2, 2, 0.8)  # on xi = 1 from outside
    M = square_moments(np.array([inside, cover, tri, *off, touching]))
    assert M[0] == pytest.approx(1.0 / np.outer(e + 1, e + 1), abs=1e-15)
    assert M[1] == pytest.approx(1.0 / np.outer(e + 1, e + 1), abs=1e-15)
    ref = [[factorial(p) * factorial(q) / factorial(p + q + 2) for q in e] for p in e]
    assert M[2] == pytest.approx(np.array(ref), abs=1e-15)
    assert not M[3:].any()


@st.composite
def convex_polygons(draw):
    """3 to 8 vertices on an ellipse, from round to slivers of aspect
    1e-6, sizes 1e-3..10 up to ~4e3 from the origin."""
    n = draw(st.integers(3, 8))
    angles = np.sort(draw(st.lists(unit, min_size=n, max_size=n, unique=True))) * 2 * np.pi
    size = 10.0 ** draw(st.floats(-3, 1))
    aspect = 10.0 ** draw(st.floats(-6, 0))
    center = np.array(draw(st.tuples(st.floats(-4, 4), st.floats(-4, 4)))) * 10.0 ** draw(
        st.floats(-1, 3)
    )
    rot = draw(unit) * 2 * np.pi
    c, s = np.cos(rot), np.sin(rot)
    ref = np.column_stack([np.cos(angles), aspect * np.sin(angles)]) * size
    return ref @ np.array([[c, s], [-s, c]]) + center


@settings(max_examples=60, deadline=None)
@given(polys=st.lists(convex_polygons(), min_size=1, max_size=10))
def test_square_moments_match_fan_triangle_rule(polys):
    # each polygon scaled into the unit square, whose lines then cut
    # nothing (a polygon of one point stays one); a repeated last vertex
    # pads it to eight
    refs = [(p - p.min(axis=0)) / max(np.ptp(p, axis=0).max(), 1e-300) for p in polys]
    verts = np.array([np.vstack([r, np.repeat(r[-1:], 8 - len(r), axis=0)]) for r in refs])
    M = square_moments(verts)
    for k, r in enumerate(refs):
        # rounding of either route is a few ulps of diag^2, which bounds
        # the area and every moment
        diag = np.linalg.norm(r.max(axis=0) - r.min(axis=0))
        assert np.all(np.abs(M[k] - fan_rule_moments(r)) <= 1e-13 * diag**2)
