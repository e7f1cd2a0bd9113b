import numpy as np
import pytest
from scipy.spatial import ConvexHull

from intgeo import bodies as bd
from intgeo import linprog
from intgeo.symmetric import expm_sym, sample_gaussian_sym, sample_haar_orthogonal
from intgeo.volumes import closed_intrinsic_volumes, volume_exact
from test_kinematic import TILTED


def rot2(theta):
    c, s = np.cos(theta), np.sin(theta)
    return np.array([[c, -s], [s, c]])


# ---------------------------------------------------------------------------
# construction and validation


def test_ball_validation():
    with pytest.raises(ValueError):
        bd.Ball(np.zeros(2), 0.0)
    b = bd.Ball([1.0, 2.0], 0.5)
    assert b.dim == 2


def test_ellipsoid_validation():
    with pytest.raises(ValueError):
        bd.Ellipsoid(np.zeros(2), np.array([[1.0, 1.0], [0.0, 1.0]]), [1.0, 2.0])
    with pytest.raises(ValueError):
        bd.Ellipsoid(np.zeros(2), np.eye(2), [1.0, -2.0])


def test_hpolytope_validation():
    with pytest.raises(ValueError):  # infeasible
        bd.HPolytope(np.array([[1.0], [-1.0]]), np.array([-1.0, -1.0]))
    with pytest.raises(ValueError):  # unbounded
        bd.HPolytope(np.array([[1.0, 0.0]]), np.array([1.0]))
    # rows get unit-normalized so offsets are geometric distances
    p = bd.HPolytope(np.array([[2.0, 0.0], [-2.0, 0.0], [0.0, 2.0], [0.0, -2.0]]),
                     np.array([2.0, 2.0, 2.0, 2.0]))
    np.testing.assert_allclose(np.linalg.norm(p.normals, axis=1), 1.0)
    np.testing.assert_allclose(p.offsets, 1.0)


@pytest.mark.parametrize("offsets, message", [
    ([1.0] * 4 + [-2.0] + [1.0] * 3, "infeasible"),  # x_1 <= 1 and x_1 >= 2
    ([1.0] * 4, "unbounded"),  # the four rows x_i <= 1 alone
], ids=["infeasible", "unbounded"])
def test_hpolytope_validation_by_lp_at_n_4(offsets, message):
    # at n >= 4 a feasibility LP and the support LPs verify the system
    normals = np.vstack([np.eye(4), -np.eye(4)])[:len(offsets)]
    with pytest.raises(ValueError, match=message):
        bd.HPolytope(normals, offsets)


@pytest.mark.parametrize("make, message", [
    (lambda: bd.Ellipsoid(np.zeros(2), np.eye(3), [1.0, 1.0]), "inconsistent ellipsoid"),
    (lambda: bd.HPolytope(np.eye(2), [1.0]), "length mismatch"),
    (lambda: bd.HPolytope([[0.0, 0.0], [1.0, 0.0]], [1.0, 1.0]), "zero normal row"),
    (lambda: bd.VPolytope(np.zeros((0, 2))), "at least one vertex"),
], ids=["ellipsoid-axes-of-another-dimension", "hpolytope-offsets-too-few",
        "hpolytope-zero-normal", "vpolytope-no-vertex"])
def test_malformed_bodies_are_refused(make, message):
    with pytest.raises(ValueError, match=message):
        make()


def test_cube_and_unit_ball_constructors():
    c = bd.cube(3, side=2.0, centered=True)
    lo, hi = bd.bounding_box(c)
    np.testing.assert_allclose(lo, [-1.0, -1.0, -1.0], atol=1e-9)
    np.testing.assert_allclose(hi, [1.0, 1.0, 1.0], atol=1e-9)
    c = bd.cube(2, side=3.0)
    lo, hi = bd.bounding_box(c)
    np.testing.assert_allclose(lo, [0.0, 0.0], atol=1e-9)
    np.testing.assert_allclose(hi, [3.0, 3.0], atol=1e-9)
    assert bd.unit_ball(4).radius == 1.0


# ---------------------------------------------------------------------------
# membership, support, boxes


def test_membership_all_types():
    ball = bd.Ball([0.0, 0.0], 1.0)
    ell = bd.Ellipsoid([0.0, 0.0], rot2(0.3), [2.0, 0.5])
    box = bd.cube(2, side=2.0, centered=True)
    tri = bd.VPolytope([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    assert bd.membership(ball, np.array([0.6, 0.6]))
    assert not bd.membership(ball, np.array([0.9, 0.9]))
    assert bd.membership(ell, rot2(0.3) @ np.array([1.9, 0.0]))
    assert not bd.membership(ell, rot2(0.3) @ np.array([0.0, 0.6]))
    assert bd.membership(box, np.array([1.0, -1.0]))
    assert not bd.membership(box, np.array([1.1, 0.0]))
    assert bd.membership(tri, np.array([0.25, 0.25]))
    assert not bd.membership(tri, np.array([0.6, 0.6]))
    # a flat vertex set has no facets: a repeated point in R^1 reads its distance
    point = bd.VPolytope([[0.5], [0.5]])
    assert bd.membership(point, np.array([0.5])) and not bd.membership(point, np.array([0.8]))


def test_contains_points_vectorized_matches_membership():
    rng = np.random.default_rng(3)
    ell = bd.Ellipsoid([0.2, -0.1], rot2(1.1), [1.5, 0.4])
    pts = rng.standard_normal((200, 2))
    vec = bd.contains_points(ell, pts)
    assert np.array_equal(vec, [bd.membership(ell, p) for p in pts])
    # membership is contains_points on one row; the quadratic form is the
    # independent reference
    Q = ell.axes @ np.diag(ell.semiaxes ** -2.0) @ ell.axes.T
    d = pts - ell.center
    assert np.array_equal(vec, np.einsum("ij,jk,ik->i", d, Q, d) <= 1.0)


def test_flat_vpolytope_membership_solves_no_lp(lp_calls):
    # at n <= 3 a flat vertex set (a triangle in R^3, segments, a point)
    # reads the distance to its faces; it took one LP per point, which
    # stays the oracle
    rng = np.random.default_rng(29)
    tri = np.array([[0.2, 0.1, 0.3], [1.1, 0.4, -0.2], [0.3, 1.2, 0.5]])
    normal = np.cross(tri[1] - tri[0], tri[2] - tri[0])
    normal /= np.linalg.norm(normal)
    edge = tri[1] - tri[0]
    outward = np.cross(edge, normal) / np.linalg.norm(edge)
    outward *= -np.sign(outward @ (tri[2] - tri[0]))
    bodies, random_pts, planted = [], [], []
    for V in (tri, tri[:2], tri[:2, :2], tri[:1]):
        body = bd.VPolytope(V)
        w = rng.dirichlet(np.ones(len(V)), 100) * 1.6 - 0.6 / len(V)  # in and out
        pts = np.vstack([w @ V, V.mean(axis=0) + 0.3 * rng.standard_normal((100, V.shape[1]))])
        bodies.append(body)
        random_pts.append(pts)
    # TOL / 2 and 2 TOL off the triangle's plane, and in it off an edge
    base = rng.dirichlet(np.ones(3), 50) @ tri
    mid = 0.5 * (tri[0] + tri[1])
    for scale, want in ((0.5, True), (2.0, False)):
        planted.append((np.vstack([base + scale * bd.TOL * normal,
                                   mid + scale * bd.TOL * outward]), want))
    oracle = [[bd._vpolytope_member_lp(b, p, bd.TOL) for p in pts]
              for b, pts in zip(bodies, random_pts)]
    lp_calls.clear()
    for b, pts, want in zip(bodies, random_pts, oracle):
        np.testing.assert_array_equal(bd.contains_points(b, pts), want)
    tri_body = bodies[0]
    for pts, want in planted:
        assert np.all(bd.contains_points(tri_body, pts) == want)
    assert lp_calls == []
    # the LP agrees at TOL / 2 and at 2 TOL, and so does the distance
    assert all(bd._vpolytope_member_lp(tri_body, p, bd.TOL) for p in planted[0][0])
    assert not any(bd._vpolytope_member_lp(tri_body, p, bd.TOL) for p in planted[1][0])
    np.testing.assert_array_less(bd.TOL, bd.distance_to_body(tri_body, planted[1][0]))


@pytest.mark.parametrize("n", [3, 4])
def test_flat_vpolytope_lp_membership_keeps_to_tol(n):
    # the LP's phase-one tolerance took points ~5e-8 off a flat body as
    # members; its weights now count only when they reproduce the point to
    # within TOL. At n = 3 the LP is the oracle of the distance kernel, at
    # n = 4 contains_points itself
    if n == 3:
        V = np.array([[0.2, 0.1, 0.3], [1.1, 0.4, -0.2], [0.3, 1.2, 0.5]])
        normal = np.cross(V[1] - V[0], V[2] - V[0])
        normal /= np.linalg.norm(normal)
        base = V.mean(axis=0)
    else:  # conv(0, e1, e2, e3), flat in R^4
        V = np.vstack([np.zeros(4), np.eye(4)[:3]])
        normal = np.eye(4)[3]
        base = np.array([0.2, 0.2, 0.2, 0.0])
    body = bd.VPolytope(V)
    for off, want in ((5e-10, True), (3e-8, False)):
        x = base + off * normal
        assert bd._vpolytope_member_lp(body, x, bd.TOL) is want
        if n == 4:
            assert bd.contains_points(body, x[None])[0] == want


def test_support_values():
    ball = bd.Ball([1.0, 0.0], 2.0)
    assert abs(bd.support(ball, np.array([1.0, 0.0])) - 3.0) < 1e-12
    assert abs(bd.support(ball, np.array([0.0, -1.0])) - 2.0) < 1e-12
    ell = bd.Ellipsoid([0.0, 0.0], np.eye(2), [3.0, 1.0])
    assert abs(bd.support(ell, np.array([1.0, 0.0])) - 3.0) < 1e-12
    # h(u) = sqrt(sum (a_i u_i)^2) for an axis-aligned ellipsoid
    u = np.array([1.0, 1.0])
    assert abs(bd.support(ell, u) - np.sqrt(10.0)) < 1e-12
    sq = bd.VPolytope([[1.0, 1.0], [-1.0, 1.0], [-1.0, -1.0], [1.0, -1.0]])
    assert abs(bd.support(sq, np.array([1.0, 1.0])) - 2.0) < 1e-12
    box = bd.cube(2, side=2.0, centered=True)
    assert abs(bd.support(box, np.array([1.0, 1.0])) - 2.0) < 1e-9


def test_outer_radius():
    assert abs(bd.outer_radius(bd.Ball([3.0, 4.0], 1.0)) - 6.0) < 1e-12
    ell = bd.Ellipsoid([0.0, 0.0], rot2(0.7), [2.0, 0.3])
    assert abs(bd.outer_radius(ell) - 2.0) < 1e-12
    tri = bd.VPolytope([[3.0, 4.0], [0.0, 1.0], [1.0, 0.0]])
    assert abs(bd.outer_radius(tri) - 5.0) < 1e-12


# ---------------------------------------------------------------------------
# affine images


def test_affine_image_ball_stays_ball_under_similarity():
    ball = bd.Ball([1.0, 1.0], 2.0)
    amap = bd.AffineMap(3.0 * rot2(0.4), np.array([1.0, -1.0]))
    img = bd.affine_image(ball, amap)
    assert isinstance(img, bd.Ball)
    np.testing.assert_allclose(img.center, 3.0 * rot2(0.4) @ [1.0, 1.0] + [1.0, -1.0])
    assert abs(img.radius - 6.0) < 1e-9


def test_affine_image_ball_to_ellipsoid():
    A = np.array([[2.0, 0.0], [0.0, 0.5]])
    img = bd.affine_image(bd.unit_ball(2), bd.AffineMap(A, np.zeros(2)))
    assert isinstance(img, bd.Ellipsoid)
    np.testing.assert_allclose(sorted(img.semiaxes), [0.5, 2.0], atol=1e-12)


def test_affine_image_preserves_membership():
    rng = np.random.default_rng(11)
    A = rng.standard_normal((3, 3)) + 2.0 * np.eye(3)
    t = rng.standard_normal(3)
    amap = bd.AffineMap(A, t)
    for body in [bd.unit_ball(3), bd.cube(3, side=1.5, centered=True),
                 bd.Ellipsoid(np.zeros(3), np.eye(3), [1.0, 2.0, 0.5])]:
        img = bd.affine_image(body, amap)
        pts = rng.standard_normal((300, 3)) * 0.8
        inside = bd.contains_points(body, pts)
        mapped = pts @ A.T + t
        inside_img = bd.contains_points(img, mapped, tol=1e-7)
        assert np.array_equal(inside, inside_img)


# ---------------------------------------------------------------------------
# intersection and separation


def test_polytopes_intersect_lp_hpolytopes():
    # two H-polytopes at n = 3 meet when the stacked system's signed margin
    # is at least -TOL, so a shared face counts as meeting; the distance
    # kernels of intersects agree. Boxes [x_lo, x_hi] x [-1, 1]^2 against
    # the cube [-1, 1]^3: overlapping, touching, far apart
    a = bd.cube(3, side=2.0, centered=True)
    eye = np.eye(3)
    for x_lo, x_hi, meets in ((0.5, 2.5, True), (1.0, 3.0, True), (3.0, 5.0, False)):
        b = bd.HPolytope(np.vstack([eye, -eye]), np.array([x_hi, 1.0, 1.0, -x_lo, 1.0, 1.0]))
        assert bd._polytopes_intersect_lp(a, b) is meets
        assert bd._polytopes_intersect_lp(b, a) is meets
        assert bd.intersects(a, b) is meets


def test_intersects_dispatch_pairs():
    ball = bd.unit_ball(2)
    far_ball = bd.Ball([3.0, 0.0], 1.0)
    touch_ball = bd.Ball([2.0, 0.0], 1.0)
    assert not bd.intersects(ball, far_ball)
    assert bd.intersects(ball, touch_ball)
    ell = bd.Ellipsoid([0.0, 2.0], np.eye(2), [3.0, 0.9])
    assert not bd.intersects(ball, ell)
    ell2 = bd.Ellipsoid([0.0, 1.5], np.eye(2), [3.0, 0.9])
    assert bd.intersects(ball, ell2)
    # small tilted ellipse peaks at y ~ 0.529 < 0.6, just short of ell2
    assert not bd.intersects(ell2, bd.Ellipsoid([0.0, 0.0], rot2(0.2), [1.0, 0.5]))
    # recentered at (0, 1) it contains a point of ell2's interior
    assert bd.intersects(ell2, bd.Ellipsoid([0.0, 1.0], rot2(0.2), [1.0, 0.5]))
    sq = bd.cube(2, side=2.0, centered=True)
    assert bd.intersects(ball, sq)
    assert not bd.intersects(bd.Ball([4.0, 0.0], 1.0), sq)
    tri = bd.VPolytope([[2.0, 0.0], [3.0, 0.0], [2.0, 1.0]])
    assert not bd.intersects(sq, tri)
    tri_touch = bd.VPolytope([[1.0, 0.0], [3.0, 0.0], [2.0, 1.0]])
    assert bd.intersects(sq, tri_touch)  # single-vertex contact at (1, 0)


def test_separating_hyperplane_disjoint():
    a = bd.VPolytope([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    b = bd.VPolytope([[2.0, 0.0], [3.0, 0.0], [2.0, 1.0]])
    u, alpha = bd.separating_hyperplane(a, b)
    assert np.max(a.vertices @ u) <= alpha + 1e-8
    assert np.min(b.vertices @ u) >= alpha - 1e-8


def test_separating_hyperplane_overlap_returns_none():
    a = bd.VPolytope([[0.0, 0.0], [2.0, 0.0], [0.0, 2.0]])
    b = bd.VPolytope([[0.5, 0.5], [3.0, 1.0], [1.0, 3.0]])
    # b's vertex (0.5, 0.5) lies strictly inside a, so no separation exists
    assert bd.separating_hyperplane(a, b) is None


def test_separating_hyperplane_touching():
    a = bd.VPolytope([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    b = bd.VPolytope([[1.0, 0.0], [2.0, 0.0], [1.0, 1.0]])
    out = bd.separating_hyperplane(a, b)
    assert out is not None
    u, alpha = out
    assert np.max(a.vertices @ u) <= alpha + 1e-8
    assert np.min(b.vertices @ u) >= alpha - 1e-8


def _as_hpolygon(poly):
    eq = ConvexHull(poly.vertices).equations
    return bd.HPolytope(eq[:, :2], -eq[:, 2])


def _polygon_pairs(rng):
    """(A, B) polygon pairs for the separating-axis oracle: random pairs at
    random offsets, pairs placed to touch at planted points of the boundary
    of A + (-B) (vertex-vertex, vertex-edge and edge-edge contact), and
    flat or redundant vertex sets."""
    collinear = bd.VPolytope([[0.0, 0.0], [0.5, 0.25], [1.0, 0.5]])
    redundant = bd.VPolytope([[1.0, 1.0], [-1.0, 1.0], [-1.0, -1.0], [1.0, -1.0],
                              [0.2, -0.1]])
    point = bd.VPolytope([[0.3, -0.2]])
    specials = [collinear, redundant, point]
    pairs = []
    for i in range(520):
        A = bd.random_polytope(2, int(rng.integers(3, 9)), rng)
        if i % 4 == 0:
            B = specials[(i // 4) % 3]
        elif i % 4 == 1:
            # the point reflection of A has every edge of A turned around,
            # so boundary points of A + (-B) give edge-edge contact
            B = bd.VPolytope(-A.vertices)
        else:
            B = bd.random_polytope(2, int(rng.integers(3, 9)), rng)
        if i % 2:
            D = bd.minkowski_sum_vpolytopes(A, bd.VPolytope(-B.vertices))
            V = D.vertices[ConvexHull(D.vertices).vertices]
            k = int(rng.integers(len(V)))
            u = 0.0 if i % 3 == 0 else rng.random()  # a vertex of D, or an edge
            t = V[k] + u * (V[(k + 1) % len(V)] - V[k])
        else:
            t = rng.uniform(-1.5, 1.5, 2)
        pairs.append((A, bd.VPolytope(B.vertices + t)))
    # flat pairs, told apart only along a segment's direction or the
    # coordinate axes: collinear segments apart, end to end and overlapping,
    # a point beyond, on and off a segment, and two points
    seg = collinear.vertices
    for B in (seg + [2.0, 1.0], seg + [1.0, 0.5], seg + [0.5, 0.25], [[1.5, 0.75]],
              [[0.5, 0.25]], [[0.5, 0.3]]):
        pairs.append((collinear, bd.VPolytope(B)))
    pairs += [(point, bd.VPolytope(point.vertices + d)) for d in ([0.0, 0.0], [0.0, 1e-3])]
    return pairs


def test_separating_axis_test_matches_the_lp_on_polygon_pairs():
    # the LP routes (kept for n >= 3) are the oracle of the polygon kernel
    rng = np.random.default_rng(23)
    pairs = _polygon_pairs(rng)
    touching = 0
    for A, B in pairs:
        meet = bd.intersects(A, B)
        assert meet == bd._polytopes_intersect_lp(A, B)
        sep = bd.separating_hyperplane(A, B)
        assert (sep is None) == (bd._separating_hyperplane_lp(A, B) is None)
        touching += meet and sep is not None
        if sep is not None:
            u, alpha = sep
            assert abs(np.linalg.norm(u) - 1.0) < 1e-12
            assert np.max(A.vertices @ u) <= alpha + 1e-9
            assert np.min(B.vertices @ u) >= alpha - 1e-9
    assert len(pairs) >= 500 and touching >= 200
    # halfspace polygons take the same kernel through their vertex sets
    for A, B in pairs[:120:3]:
        if bd.affine_rank(A.vertices) == 2 and bd.affine_rank(B.vertices) == 2:
            HA, HB = _as_hpolygon(A), _as_hpolygon(B)
            assert bd.intersects(HA, HB) == bd._polytopes_intersect_lp(HA, HB)
            assert bd.intersects(HA, B) == bd._polytopes_intersect_lp(HA, B)


@pytest.mark.parametrize("n", [2, 3])
def test_vertex_set_box_matches_the_support_lps(n):
    # the box of gL from the vertex set, min/max of G v, equals the 2n
    # support LPs of the moved H-polytope
    rng = np.random.default_rng(29 + n)
    V = bd.random_polytope(n, 9, rng)
    eq = ConvexHull(V.vertices).equations
    H = bd.HPolytope(eq[:, :-1], -eq[:, -1])
    for _ in range(20):
        G = rng.standard_normal((n, n))
        moved = bd.affine_image(H, bd.AffineMap(G, np.zeros(n)))
        hi = [linprog.support_hrep(moved.normals, moved.offsets, e)[0] for e in np.eye(n)]
        lo = [-linprog.support_hrep(moved.normals, moved.offsets, -e)[0] for e in np.eye(n)]
        for body in (V, H):
            GV = bd.vertex_set(body) @ G.T
            np.testing.assert_allclose(GV.min(axis=0), lo, rtol=0, atol=1e-12)
            np.testing.assert_allclose(GV.max(axis=0), hi, rtol=0, atol=1e-12)
    assert bd.vertex_set(bd.cube(4)) is None and bd.vertex_set(bd.unit_ball(2)) is None


def _draw_maps(n, B, rng):
    """(G, invG) for B random g = k exp(X / 2), as the LHS draws them."""
    k = sample_haar_orthogonal(n, rng, size=B)
    G = k @ expm_sym(0.5 * sample_gaussian_sym(n, rng, size=B))
    return G, np.linalg.inv(G)


def _box_translations(M, L, G, rng):
    """Translations t uniform in the box of M + (-gL) widened by half."""
    lo, hi = bd.bounding_box(M)
    cg, hw = bd.moved_boxes(L, G)
    lo, hi = lo - hw - cg, hi + hw - cg
    return lo - 0.25 * (hi - lo) + 1.5 * (hi - lo) * rng.random(cg.shape)


def _touching_polytope_translations(VM, GV, rng):
    """t on the boundary of M + (-g_b L) per row: points of random facets of
    the difference body (its vertices for every third row), and the same
    points pushed 1e-6 outward."""
    ts, outs = [], []
    for b, W in enumerate(GV):
        D = (VM[:, None, :] - W[None, :, :]).reshape(-1, VM.shape[1])
        hull = ConvexHull(D)
        f = int(rng.integers(len(hull.simplices)))
        w = np.zeros(len(hull.simplices[f]))
        w[0] = 1.0
        if b % 3:
            w = rng.random(w.size)
            w /= w.sum()
        t = w @ D[hull.simplices[f]]
        ts.append(t)
        outs.append(t + 1e-6 * hull.equations[f, :-1])
    return np.array(ts), np.array(outs)


def _check_rows(M, L, G, invG, t, oracle):
    got = bd.batch_intersects(M, L, G, invG, t)
    want = np.array([oracle(G[b], invG[b], t[b]) for b in range(len(t))])
    np.testing.assert_array_equal(got, want)
    return got


@pytest.mark.parametrize("n", [2, 3])
def test_batch_intersects_matches_independent_oracles(n):
    # every kernel of batch_intersects, row by row, against an oracle that
    # shares none of its code: random rows, rows planted to touch, and the
    # touching rows pushed 1e-6 apart
    rng = np.random.default_rng(61 + n)
    B = 40
    VA = bd.random_polytope(n, 9, rng)
    HB = bd.HPolytope(*(lambda e: (e[:, :-1], -e[:, -1]))(
        ConvexHull(bd.random_polytope(n, 8, rng, radius=0.8).vertices).equations))

    # polytope pairs: the intersection LP of M and the moved L
    def lp(M, L):
        return lambda g, ginv, s: bd._polytopes_intersect_lp(
            M, bd.affine_image(L, bd.AffineMap(g, s)))

    for M, L in ((VA, HB), (HB, VA), (VA, VA)):
        G, invG = _draw_maps(n, B, rng)
        hits = _check_rows(M, L, G, invG, _box_translations(M, L, G, rng), lp(M, L))
        assert 0 < hits.sum() < B
        touch, apart = _touching_polytope_translations(
            bd.vertex_set(M), bd.vertex_set(L) @ np.swapaxes(G, 1, 2), rng)
        assert _check_rows(M, L, G, invG, touch, lp(M, L)).all()
        assert not _check_rows(M, L, G, invG, apart, lp(M, L)).any()

    # a ball or an ellipsoid Q against a polytope P, either way round:
    # distance_to_body of P in Q's frame, where Q is the unit ball (the
    # moved L, or M pulled back by g^-1)
    ball = bd.Ball(0.1 * rng.standard_normal(n), 0.7)
    ell = bd.Ellipsoid(0.1 * rng.standard_normal(n),
                       np.linalg.qr(rng.standard_normal((n, n)))[0],
                       rng.uniform(0.5, 1.2, n))

    def lin(Q):
        return Q.radius * np.eye(n) if isinstance(Q, bd.Ball) else Q.axes * Q.semiaxes

    def in_frame(Q, P):
        A = np.linalg.inv(lin(Q))
        return bd.affine_image(P, bd.AffineMap(A, -A @ Q.center))

    for M, L in ((ball, HB), (ell, VA), (HB, ball), (VA, ell)):
        if isinstance(L, bd.HPolytope | bd.VPolytope):
            def oracle(g, ginv, s, M=M, L=L):
                P = in_frame(M, bd.affine_image(L, bd.AffineMap(g, s)))
                return bd.distance_to_body(P, np.zeros((1, n)))[0] <= 1.0 + 1e-9
        else:
            def oracle(g, ginv, s, M=M, L=L):
                P = in_frame(L, bd.affine_image(M, bd.AffineMap(ginv, -ginv @ s)))
                return bd.distance_to_body(P, np.zeros((1, n)))[0] <= 1.0 + 1e-9
        G, invG = _draw_maps(n, B, rng)
        hits = _check_rows(M, L, G, invG, _box_translations(M, L, G, rng), oracle)
        assert 0 < hits.sum() < B
        # touching: the quadric's support point in direction u meets the
        # polytope's vertex that is extreme in direction -u
        u = rng.standard_normal((B, n))
        u /= np.linalg.norm(u, axis=1, keepdims=True)
        if isinstance(M, bd.Ball | bd.Ellipsoid):
            A = lin(M)
            p = M.center + (u @ A) @ A.T / np.linalg.norm(u @ A, axis=1)[:, None]
            GV = bd.vertex_set(L) @ np.swapaxes(G, 1, 2)
            touch = p - GV[np.arange(B), np.argmin(np.einsum("bmi,bi->bm", GV, u), axis=1)]
        else:
            V = bd.vertex_set(M)
            A = G @ lin(L)  # gL + t = {t + g c + A z}
            Au = np.einsum("bij,bkj,bk->bi", A, A, u)
            touch = (V[np.argmax(u @ V.T, axis=1)] - np.einsum("bij,j->bi", G, L.center)
                     + Au / np.linalg.norm(np.einsum("bji,bj->bi", A, u), axis=1)[:, None])
        assert _check_rows(M, L, G, invG, touch, oracle).all()
        assert not _check_rows(M, L, G, invG, touch + 1e-6 * u, oracle).any()

    # two quadrics. Balls under similarities g = s k have a closed form,
    # |c_M - (g c_L + t)| <= r_M + s r_L, checked on touching placements and
    # 1e-6 either side; ellipsoid pairs against the overlap criterion
    # K(s) = 1 - d^T (S_M / (1 - s) + S_L / s)^-1 d >= 0 on (0, 1), S the
    # shape matrices and d the difference of the centers (Gilitschenski and
    # Hanebeck 2012)
    L = bd.Ball(0.2 * rng.standard_normal(n), 0.6)
    scale = np.exp(0.5 * rng.standard_normal(B))
    G = sample_haar_orthogonal(n, rng, size=B) * scale[:, None, None]
    invG = np.linalg.inv(G)
    u = rng.standard_normal((B, n))
    u /= np.linalg.norm(u, axis=1, keepdims=True)
    reach = ball.radius + scale * L.radius
    base = ball.center - np.einsum("bij,j->bi", G, L.center)
    for shift, want in ((0.0, True), (-1e-6, True), (1e-6, False)):
        t = base + (reach + shift)[:, None] * u
        np.testing.assert_array_equal(bd.batch_intersects(ball, L, G, invG, t),
                                      np.full(B, want))

    E1, E2 = (bd.Ellipsoid(0.1 * rng.standard_normal(n),
                           np.linalg.qr(rng.standard_normal((n, n)))[0],
                           rng.uniform(0.4, 1.3, n)) for _ in range(2))
    grid = np.linspace(1e-4, 1.0 - 1e-4, 2001)[:, None, None]

    def shape(Q, g):
        lin = g @ (Q.axes * Q.semiaxes if isinstance(Q, bd.Ellipsoid)
                   else Q.radius * np.eye(n))
        return lin @ lin.T

    def overlap(M, L, g, s):
        # min over the grid of K(s); >= 0 exactly when the bodies meet
        d = g @ L.center + s - M.center
        S = shape(M, np.eye(n)) / (1.0 - grid) + shape(L, g) / grid
        return float(np.min(1.0 - np.linalg.solve(S, d) @ d))

    for M, L in ((E1, E2), (ball, E2), (E1, ball)):
        G, invG = _draw_maps(n, 3 * B, rng)
        t = _box_translations(M, L, G, rng)
        got = bd.batch_intersects(M, L, G, invG, t)
        K = np.array([overlap(M, L, g, s) for g, s in zip(G, t)])
        clear = np.abs(K) > 1e-6
        assert clear.sum() >= 3 * B - 3 and 0 < got.sum() < 3 * B
        np.testing.assert_array_equal(got[clear], K[clear] >= 0.0)


# ---------------------------------------------------------------------------
# difference volumes


HEX = bd.HPolytope([[np.cos(a), np.sin(a)] for a in np.arange(6) * np.pi / 3 + 0.2],
                   [1.0, 0.9, 1.1, 1.0, 0.8, 1.2])
PENT = bd.HPolytope([[np.cos(a), np.sin(a)] for a in np.arange(5) * 2 * np.pi / 5 - 0.4],
                    [0.7, 0.9, 0.6, 0.8, 0.75])
VPENT = bd.VPolytope([[0.9 * np.cos(a) + 0.2, 0.6 * np.sin(a) - 0.1]
                      for a in np.arange(5) * 2.0 * np.pi / 5.0])
ELL2 = bd.Ellipsoid([0.3, -0.2], rot2(0.5), [1.1, 0.4])
ELL3 = bd.Ellipsoid([0.2, -0.1, 0.3], np.linalg.qr(np.arange(9.0).reshape(3, 3) ** 1.5)[0],
                    [1.2, 0.8, 0.5])


def _h_polytope_with_a_corner_cut(n):
    """The cube [-1, 1]^n cut by <1, x> <= 1: an H-polytope that is not a box."""
    return bd.HPolytope(np.vstack([np.eye(n), -np.eye(n), np.ones((1, n))]), np.ones(2 * n + 1))


# an off-centre box in R^4 with four different sides
H_BOX_4D = bd.HPolytope(np.vstack([np.eye(4), -np.eye(4)]),
                        [1.0, 0.5, 2.0, 0.7, 0.3, 1.5, 0.2, 0.9])
MOVED_SUPPORT_BODIES = [bd.Ball([0.3, -0.2], 0.7), TILTED, VPENT, HEX,
                        _h_polytope_with_a_corner_cut(3), _h_polytope_with_a_corner_cut(4),
                        H_BOX_4D]
MOVED_SUPPORT_IDS = ["ball", "tilted-ellipsoid", "v-polygon", "h-polygon",
                     "h-polytope-3d", "h-polytope-4d", "h-box-4d"]


@pytest.mark.parametrize("L", MOVED_SUPPORT_BODIES, ids=MOVED_SUPPORT_IDS)
def test_moved_support_matches_each_moved_body(L):
    # h_{g_b L}(u_i) against each g_b L built by affine_image: the support
    # LP of its halfspace system (a V-polygon's from its hull), or the closed
    # form <c, u> + ||lin^T u|| of the moved quadric's own frame; the 4-D
    # body takes moved_support's LP branch, which no vertex set replaces
    n = L.dim
    rng = np.random.default_rng(40 + n)
    G, _ = _draw_maps(n, 3, rng)
    U = rng.standard_normal((4, n))
    h = bd.moved_support(L, G, U)
    assert h.shape == (3, 4)
    for b, g in enumerate(G):
        moved = bd.affine_image(L, bd.AffineMap(g, np.zeros(n)))
        if isinstance(moved, bd.VPolytope):
            eq = ConvexHull(moved.vertices).equations
            moved = bd.HPolytope(eq[:, :-1], -eq[:, -1])
        for i, u in enumerate(U):
            if isinstance(moved, bd.HPolytope):
                ref = linprog.support_hrep(moved.normals, moved.offsets, u)[0]
            else:
                lin, c, _ = bd.quadric_frame(moved)
                ref = c @ u + np.linalg.norm(lin.T @ u)
            assert h[b, i] == pytest.approx(ref, abs=1e-9)


@pytest.mark.parametrize("L", MOVED_SUPPORT_BODIES, ids=MOVED_SUPPORT_IDS)
def test_support_and_bounding_box_are_the_one_row_case(L):
    n = L.dim
    eye = np.eye(n)[None]
    u = np.random.default_rng(44).standard_normal(n)
    assert bd.support(L, u) == bd.moved_support(L, eye, u[None])[0, 0]
    h = bd.moved_support(L, eye, np.vstack([np.eye(n), -np.eye(n)]))[0]
    lo, hi = bd.bounding_box(L)
    assert np.array_equal(lo, -h[n:]) and np.array_equal(hi, h[:n])
    V = bd.vertex_set(L)
    if V is not None:  # max(-x) = -min(x) and V @ I = V hold exactly
        assert np.array_equal(lo, V.min(axis=0)) and np.array_equal(hi, V.max(axis=0))


def test_moved_support_of_a_4d_box_matches_the_lp():
    # an axis-aligned H-box at n >= 4 has no vertex set; its closed form
    # <G c, u> + sum_k (s_k / 2) |<G e_k, u>| against the support LP
    # h_L(G^T u) on L's own system, which other H-polytopes there solve
    rng = np.random.default_rng(46)
    G, _ = _draw_maps(4, 5, rng)
    U = np.vstack([rng.standard_normal((6, 4)), np.eye(4), -np.eye(4)])
    h = bd.moved_support(H_BOX_4D, G, U)
    lp = [[linprog.support_hrep(H_BOX_4D.normals, H_BOX_4D.offsets, g.T @ u)[0] for u in U]
          for g in G]
    np.testing.assert_allclose(h, lp, rtol=0, atol=1e-9)
    lo, hi = bd.bounding_box(H_BOX_4D)
    np.testing.assert_array_equal(lo, [-0.3, -1.5, -0.2, -0.9])
    np.testing.assert_array_equal(hi, [1.0, 0.5, 2.0, 0.7])
    assert bd.axis_box(_h_polytope_with_a_corner_cut(4)) is None


def test_moved_boxes_without_a_vertex_set_match_the_moved_bodies():
    # at n >= 4 an H-polytope's box of g L reads the LPs h_L(g^T e) on L's own
    # system, where the box of the moved body solves them on g L's system
    L = _h_polytope_with_a_corner_cut(4)
    G, _ = _draw_maps(4, 3, np.random.default_rng(45))
    cg, hw = bd.moved_boxes(L, G)
    for b, g in enumerate(G):
        lo, hi = bd.bounding_box(bd.affine_image(L, bd.AffineMap(g, np.zeros(4))))
        np.testing.assert_allclose(cg[b] - hw[b], lo, rtol=0, atol=1e-9)
        np.testing.assert_allclose(cg[b] + hw[b], hi, rtol=0, atol=1e-9)


def _in_difference_body(M, L, g):
    """Membership of translations in M + (-gL), decided by distances and
    hulls that share no code with difference_volumes."""
    n = M.dim
    gL = bd.affine_image(L, bd.AffineMap(g, np.zeros(n)))
    if isinstance(M, bd.Ball):  # M meets gL + t exactly when dist(c - t, gL) <= r
        return lambda t: bd.distance_to_body(gL, M.center - t) <= M.radius
    VM = bd.vertex_set(M)
    if isinstance(L, bd.Ellipsoid):
        # in the frame where gL is the unit disc: dist(A (t + g c), A M) <= 1
        A = np.linalg.inv(g @ L.axes * L.semiaxes)
        AM = bd.VPolytope(VM @ A.T)
        return lambda t: bd.distance_to_body(AM, (t + g @ L.center) @ A.T) <= 1.0
    D = bd.minkowski_sum_vpolytopes(bd.VPolytope(VM), bd.VPolytope(-bd.vertex_set(gL)))
    return lambda t: bd.contains_points(D, t, tol=0.0)


@pytest.mark.parametrize("M, L", [
    (bd.Ball([0.1, 0.0, -0.2], 0.9), ELL3),
    (bd.Ball([0.2, -0.3], 0.6), VPENT),
    (HEX, PENT),
    (HEX, ELL2),
], ids=["ball-ellipsoid", "ball-polygon", "hpolygons", "polygon-ellipse"])
def test_difference_volumes_match_monte_carlo(M, L):
    # for a fixed g, vol(M + (-gL)) against 10^6 uniform points in the box
    # of M minus the box of gL, within 4 standard errors
    n = M.dim
    rng = np.random.default_rng(90 + n)
    g = sample_haar_orthogonal(n, rng) @ expm_sym(0.6 * sample_gaussian_sym(n, rng))
    want = bd.difference_volumes(M, L, g[None])[0].sum()
    loM, hiM = bd.bounding_box(M)
    cg, hw = bd.moved_boxes(L, g[None])
    lo, hi = loM - cg[0] - hw[0], hiM - cg[0] + hw[0]
    inside = _in_difference_body(M, L, g)
    hits = 0
    points = 10**6
    for _ in range(10):
        hits += int(np.sum(inside(lo + rng.random((points // 10, n)) * (hi - lo))))
    p = hits / points
    box = float(np.prod(hi - lo))
    assert 0.05 < p < 0.95
    assert abs(box * p - want) < 4.0 * box * np.sqrt(p * (1.0 - p) / points)
    if isinstance(M, bd.HPolytope) and isinstance(L, bd.HPolytope):
        # two polygons: the hull of the difference body gives it exactly
        D = bd.minkowski_sum_vpolytopes(bd.as_vpolytope(M),
                                        bd.VPolytope(-bd.vertex_set(L) @ g.T))
        assert want == pytest.approx(volume_exact(D), rel=1e-12)


def test_difference_volumes_of_rigid_motions_are_steiner_sums():
    # vol(rB + (-kL)) = sum_j kappa_(n-j) r^(n-j) V_j(L) for orthogonal k,
    # and a polygon pair under k is the hull of the difference body
    from intgeo.volumes import kappa

    rng = np.random.default_rng(7)
    for M, L in ((bd.Ball(np.zeros(3), 0.7), ELL3), (bd.Ball([1.0, 2.0], 1.3), PENT)):
        n = M.dim
        k = sample_haar_orthogonal(n, rng, size=5)
        vL = closed_intrinsic_volumes(L)
        want = sum(kappa(n - j) * M.radius ** (n - j) * vL[j] for j in range(n + 1))
        np.testing.assert_allclose(bd.difference_volumes(M, L, k).sum(axis=1), want,
                                   rtol=1e-12)
        np.testing.assert_allclose(bd.moved_intrinsic_volumes(L, k), np.tile(vL, (5, 1)),
                                   rtol=1e-12)


@pytest.mark.parametrize("M, L", [
    (bd.Ball([0.1, 0.0, -0.2], 0.9), ELL3),
    (bd.Ball([0.2, -0.3], 0.6), VPENT),
    (HEX, PENT),
    (HEX, ELL2),
], ids=["ball-ellipsoid", "ball-polygon", "hpolygons", "polygon-ellipse"])
def test_difference_volume_parts_have_their_degrees(M, L):
    # part j of vol(M + (-gL)) is homogeneous of degree j in g, the
    # property the LHS integrates the trace of X with
    n = M.dim
    rng = np.random.default_rng(30 + n)
    G = sample_haar_orthogonal(n, rng, size=50) @ expm_sym(0.6 * sample_gaussian_sym(n, rng))
    parts = bd.difference_volumes(M, L, G)
    assert parts.shape == (50, n + 1)
    for s in (0.5, 1.7):
        np.testing.assert_allclose(bd.difference_volumes(M, L, s * G),
                                   parts * s ** np.arange(n + 1), rtol=1e-12)


def test_moved_intrinsic_volumes_keep_thin_ellipsoids_accurate():
    # V_3(gL) = kappa_3 |det g| abc on an ellipsoid with axis ratio 1e4:
    # semiaxes from the Gram matrix's eigenvalues miss this by up to 2.5e-4
    # on these draws, the SVD by 8e-14
    from intgeo.volumes import kappa

    rng = np.random.default_rng(5)
    L = bd.Ellipsoid(np.zeros(3), np.linalg.qr(rng.standard_normal((3, 3)))[0],
                     [100.0, 1.0, 0.01])
    X = sample_gaussian_sym(3, rng, size=2000)
    lam, V = np.linalg.eigh(X)
    G = sample_haar_orthogonal(3, rng, size=2000) @ np.einsum("bij,bj,bkj->bik",
                                                              V, np.exp(lam), V)
    want = kappa(3) * np.exp(lam.sum(axis=1)) * np.prod(L.semiaxes)
    np.testing.assert_allclose(bd.moved_intrinsic_volumes(L, G)[:, 3], want, rtol=1e-12)


@pytest.mark.parametrize("M, L", [
    (ELL3, bd.unit_ball(3)),
    (bd.unit_ball(4), bd.Ellipsoid(np.zeros(4), np.eye(4), [1.0, 0.8, 0.6, 0.4])),
    (bd.unit_ball(3), bd.cube(3, side=1.0, centered=True)),
    (bd.cube(3, side=1.0, centered=True), bd.unit_ball(3)),
    (bd.VPolytope([[0.0, 0.0], [1.0, 1.0]]), bd.unit_ball(2)),
    (bd.unit_ball(2), bd.VPolytope([[0.0, 0.0], [1.0, 1.0]])),
], ids=["ellipsoid-ball", "quadrics-4d", "ball-cube", "cube-ball", "segment-disc",
        "disc-segment"])
def test_difference_volumes_without_closed_form(M, L):
    G = np.eye(M.dim)[None]
    assert bd.difference_volumes(M, L, G) is None


def test_polygon_gaps_answer_both_lemma_predicates():
    # all gaps <= TOL is intersects and the largest gap >= -TOL is
    # separating_hyperplane, on random pairs and on touching pairs: A and its
    # point reflection 2v - A through a vertex v meet at v alone
    rng = np.random.default_rng(23)
    eye = np.eye(2)[None]
    for _ in range(40):
        A = bd.random_polytope(2, 7, rng)
        v = A.vertices[rng.integers(len(A.vertices))]
        other = bd.random_polytope(2, 6, rng, center=rng.uniform(-2, 2, 2))
        for B, touching in ((other, False), (bd.VPolytope(2.0 * v - A.vertices), True)):
            _, [gaps] = bd.polygon_gaps(A, B, eye, eye, np.zeros((1, 2)))
            nonempty, separable = bool(np.all(gaps <= bd.TOL)), bool(gaps.max() >= -bd.TOL)
            assert nonempty == bd.intersects(A, B)
            assert separable == (bd.separating_hyperplane(A, B) is not None)
            if touching:
                assert nonempty and separable


def test_bodies_compare_by_identity():
    # the generated __eq__ compared array fields with == and raised
    a = bd.HPolytope(HEX.normals, HEX.offsets)
    b = bd.HPolytope(HEX.normals, HEX.offsets)
    assert a == a and not (a == b) and a != b
    for make in (lambda: bd.Ball([0.0, 1.0], 2.0), lambda: bd.VPolytope(VPENT.vertices),
                 lambda: bd.Ellipsoid(ELL2.center, ELL2.axes, ELL2.semiaxes),
                 lambda: bd.AffineMap(np.eye(2), np.ones(2)),
                 lambda: bd.planar_hull(VPENT.vertices)):
        assert make() != make()


# ---------------------------------------------------------------------------
# distances and diameters


def test_distance_to_ball():
    ball = bd.Ball([0.0, 0.0], 1.0)
    d = bd.distance_to_body(ball, np.array([[2.0, 0.0], [0.3, 0.0]]))
    np.testing.assert_allclose(d, [1.0, 0.0], atol=1e-12)


def test_distance_to_ellipsoid_against_dense_boundary():
    rng = np.random.default_rng(5)
    ell = bd.Ellipsoid([0.5, -0.2], rot2(0.9), [2.0, 0.7])
    theta = np.linspace(0, 2 * np.pi, 200001)
    boundary = ell.center + (rot2(0.9) @ np.diag([2.0, 0.7]) @
                             np.vstack([np.cos(theta), np.sin(theta)])).T
    pts = rng.standard_normal((40, 2)) * 2.0
    d = bd.distance_to_body(ell, pts)
    for p, di in zip(pts, d):
        brute = np.min(np.linalg.norm(boundary - p, axis=1))
        if bd.membership(ell, p):
            assert di == 0.0
        else:
            assert abs(di - brute) < 1e-6


def bisection_ellipsoid_distance(P, semiaxes):
    # reference: 90 bisection steps on the Lagrange multiplier mu of the
    # closest-point problem, the root of sum a^2 q^2 / (a^2 + mu)^2 = 1
    S = np.broadcast_to(semiaxes, P.shape)
    a2 = S**2
    out = np.zeros(P.shape[0])
    mask = np.einsum("ij,ij->i", P * P, 1.0 / a2) > 1.0
    Q, A2 = P[mask], a2[mask]
    lo = np.zeros(Q.shape[0])
    hi = np.max(S[mask], axis=1) * np.linalg.norm(Q, axis=1) * 2.0 + 1e-30
    for _ in range(90):
        mid = 0.5 * (lo + hi)
        high = np.einsum("ij,ij->i", A2 * Q * Q, 1.0 / (A2 + mid[:, None]) ** 2) > 1.0
        lo = np.where(high, mid, lo)
        hi = np.where(high, hi, mid)
    mu = 0.5 * (lo + hi)
    out[mask] = np.linalg.norm(mu[:, None] * Q / (A2 + mu[:, None]), axis=1)
    return out


@pytest.mark.parametrize("n", [2, 3, 5])
def test_centered_ellipsoid_distance_matches_bisection(n):
    # axis ratios up to e^24 (e^+-12), points at gauge 1e-3 (inside), just
    # outside the surface, and far away (up to 1e3 times the surface)
    rng = np.random.default_rng(n)
    for spread in (0.0, 2.0, 6.0, 12.0):
        S = np.exp(rng.uniform(-spread, spread, (2000, n)))
        S[:, 0] = np.exp(spread)
        S[:, 1] = np.exp(-spread)
        for gauge in (1e-3, 1.0 + 1e-9, 1.01, 2.0, 10.0, 1e3):
            dirs = rng.standard_normal((2000, n))
            P = dirs / np.sqrt(np.sum(dirs**2 / S**2, axis=1))[:, None] * gauge
            got = bd.centered_ellipsoid_distance(P, S)
            ref = bisection_ellipsoid_distance(P, S)
            scale = np.maximum(np.linalg.norm(P, axis=1), S.max(axis=1))
            assert np.all(np.abs(got - ref) <= 1e-14 * scale)
            assert np.all((got == 0.0) == (gauge < 1.0))


def test_centered_ellipsoid_distance_refuses_nan_rows():
    P = np.array([[2.0, 0.0], [np.nan, 0.5]])
    with pytest.raises(FloatingPointError):
        bd.centered_ellipsoid_distance(P, np.array([1.0, 0.5]))


def test_distance_to_polytope():
    sq = bd.VPolytope([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
    pts = np.array([[2.0, 0.5], [2.0, 2.0], [0.5, 0.5], [-1.0, 0.5]])
    d = bd.distance_to_body(sq, pts)
    np.testing.assert_allclose(d, [1.0, np.sqrt(2.0), 0.0, 1.0], atol=1e-9)


def test_distance_to_polytope_3d():
    cube = bd.cube(3, side=1.0)
    pts = np.array([[0.5, 0.5, 2.0], [2.0, 2.0, 2.0], [0.2, 0.3, 0.4]])
    d = bd.distance_to_body(cube, pts)
    np.testing.assert_allclose(d, [1.0, np.sqrt(3.0), 0.0], atol=1e-9)


def test_minkowski_sum_vpolytopes():
    sq = bd.VPolytope([[1.0, 1.0], [-1.0, 1.0], [-1.0, -1.0], [1.0, -1.0]])
    seg = bd.VPolytope([[0.0, 0.0], [2.0, 0.0]])
    s = bd.minkowski_sum_vpolytopes(sq, seg)
    lo, hi = bd.bounding_box(s)
    np.testing.assert_allclose(lo, [-1.0, -1.0], atol=1e-12)
    np.testing.assert_allclose(hi, [3.0, 1.0], atol=1e-12)


def test_as_vpolytope_roundtrip():
    box = bd.cube(2, side=2.0, centered=True)
    v = bd.as_vpolytope(box)
    assert v.vertices.shape == (4, 2)
    assert abs(bd.support(v, np.array([1.0, 1.0])) - 2.0) < 1e-9
    with pytest.raises(NotImplementedError):
        bd.as_vpolytope(bd.cube(4, side=1.0))


def _vertices_by_loop(body):
    # one det and one solve per n-row subsystem, in combination order
    from itertools import combinations

    N, o = body.normals, body.offsets
    verts = []
    for idx in combinations(range(len(N)), body.dim):
        sub = N[list(idx)]
        if abs(np.linalg.det(sub)) < 1e-12:
            continue
        x = np.linalg.solve(sub, o[list(idx)])
        if np.all(N @ x <= o + 1e-7):
            verts.append(x)
    arr = np.array(verts)
    _, keep = np.unique(np.round(arr, 9), axis=0, return_index=True)
    return arr[sorted(keep)]


@pytest.mark.parametrize("n, m", [(2, 7), (2, 30), (3, 8), (3, 25)])
def test_as_vpolytope_matches_the_subsystem_loop(n, m):
    # random facets around a box (so the system is bounded), plus a
    # degenerate vertex: three planes through the corner of the box
    rng = np.random.default_rng(m)
    N = rng.standard_normal((m, n))
    N = np.vstack([N / np.linalg.norm(N, axis=1, keepdims=True), np.eye(n), -np.eye(n),
                   np.ones(n) / np.sqrt(n)])
    body = bd.HPolytope(N, np.concatenate([rng.uniform(0.8, 1.2, m), np.ones(2 * n),
                                           [np.sqrt(n)]]))
    assert np.array_equal(bd.as_vpolytope(body).vertices, _vertices_by_loop(body))


def test_random_polytope_inside_ball():
    rng = np.random.default_rng(19)
    p = bd.random_polytope(2, 12, rng, radius=1.5)
    assert np.all(np.linalg.norm(p.vertices, axis=1) <= 1.5 + 1e-12)


# ---------------------------------------------------------------------------
# serialization


def test_body_dict_roundtrip():
    bodies = [bd.Ball([0.5, -1.0], 2.0),
              bd.Ellipsoid([0.0, 0.0], rot2(0.6), [2.0, 1.0]),
              bd.cube(2, side=2.0, centered=True),
              bd.VPolytope([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])]
    for body in bodies:
        back = bd.body_from_dict(bd.body_to_dict(body))
        assert type(back) is type(body)
        u = np.array([0.3, -0.9])
        assert abs(bd.support(back, u) - bd.support(body, u)) < 1e-9


def test_polytopes_with_a_vertex_set_answer_without_lps(monkeypatch):
    # an H-polygon validates by LP; afterwards it, and a 3-D cube, answer
    # every single-body query from the vertex enumeration alone
    poly = bd.HPolytope(np.array([[1.0, 0.0], [0.0, 1.0], [-1.0, -1.0]]),
                        np.array([1.0, 1.0, 1.0]))
    cube = bd.cube(3)

    def no_lp(*args, **kwargs):
        raise AssertionError("solve_lp called")

    monkeypatch.setattr(linprog, "solve_lp", no_lp)
    assert bd.support(poly, np.array([1.0, 1.0])) == pytest.approx(2.0)
    lo, hi = bd.bounding_box(poly)
    np.testing.assert_allclose(lo, [-2.0, -2.0], atol=1e-12)
    np.testing.assert_allclose(hi, [1.0, 1.0], atol=1e-12)
    # the largest vertex norm, |(1, -2)| = |(-2, 1)| (the box corner reads sqrt(8))
    assert bd.outer_radius(poly) == pytest.approx(np.sqrt(5.0))
    assert volume_exact(poly) == pytest.approx(4.5)
    assert bd.distance_to_body(poly, np.array([[2.0, 0.0]]))[0] == pytest.approx(1.0)
    assert bd.support(cube, np.ones(3)) == pytest.approx(3.0)
    lo, hi = bd.bounding_box(cube)
    np.testing.assert_allclose(lo, np.zeros(3), atol=1e-12)
    np.testing.assert_allclose(hi, np.ones(3), atol=1e-12)
    assert bd.outer_radius(cube) == pytest.approx(np.sqrt(3.0))
    assert volume_exact(cube) == pytest.approx(1.0)
    assert bd.distance_to_body(cube, np.array([[2.0, 0.5, 0.5]]))[0] == pytest.approx(1.0)


def test_body_from_dict_rejects_malformed():
    with pytest.raises(ValueError):
        bd.body_from_dict({"type": "blob"})
    with pytest.raises(ValueError):
        bd.body_from_dict({"type": "ball", "center": [0.0, 0.0]})
    with pytest.raises(ValueError):
        bd.body_from_dict([1, 2, 3])
    # arrays of the wrong rank: vectors must be 1-D, matrices 2-D
    square = [[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]]
    for data in ({"type": "ball", "center": [[0.0, 0.0]], "radius": 1.0},
                 {"type": "hpolytope", "normals": square, "offsets": [[1], [1], [1], [1]]},
                 {"type": "hpolytope", "normals": [square], "offsets": [1, 1, 1, 1]},
                 {"type": "ellipsoid", "center": [[0.0, 0.0]], "axes": np.eye(2).tolist(),
                  "semiaxes": [1.0, 2.0]},
                 {"type": "ellipsoid", "center": [0.0, 0.0], "axes": np.eye(2).tolist(),
                  "semiaxes": [[1.0, 2.0]]},
                 {"type": "vpolytope", "vertices": [[[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]]}):
        with pytest.raises(ValueError, match="-D array"):
            bd.body_from_dict(data)


def test_load_body(tmp_path):
    import json

    path = tmp_path / "body.json"
    path.write_text(json.dumps(bd.body_to_dict(bd.unit_ball(3))))
    body = bd.load_body(str(path))
    assert isinstance(body, bd.Ball) and body.dim == 3


# ---------------------------------------------------------------------------
# planar hull against Qhull


def _sorted_equations(eq):
    return eq[np.argsort(np.arctan2(eq[:, 1], eq[:, 0]))]


def _planar_point_sets(rng):
    """Random planar sets, some with points planted on hull edges, in their
    middles and at random positions, and some with repeated points."""
    sets = []
    for i in range(300):
        m = int(rng.integers(3, 40))
        P = rng.standard_normal((m, 2)) * rng.uniform(0.1, 10.0, 2) + rng.uniform(-5, 5, 2)
        if i % 3 == 1:
            V = P[ConvexHull(P).vertices]
            k = rng.integers(len(V), size=4)
            u = np.where(np.arange(4) % 2 == 0, 0.5, rng.random(4))[:, None]
            P = np.vstack([P, V[k] + u * (V[(k + 1) % len(V)] - V[k])])
        elif i % 3 == 2:
            P = np.vstack([P, P[rng.integers(m, size=3)]])
        sets.append(rng.permutation(P))
    return sets


def test_planar_hull_matches_qhull():
    rng = np.random.default_rng(41)
    for P in _planar_point_sets(rng):
        ref = ConvexHull(P)
        hull = bd.planar_hull(P)
        assert hull is not None
        # a repeated vertex may come back under another of its indices
        assert sorted(map(tuple, hull.points)) == sorted(map(tuple, P[ref.vertices]))
        np.testing.assert_array_equal(hull.points, P[hull.vertices])
        # counter-clockwise: every turn is a strict left turn
        e = hull.edges
        assert np.all(e[:, 0] * np.roll(e[:, 1], -1) - e[:, 1] * np.roll(e[:, 0], -1) > 0)
        np.testing.assert_allclose(_sorted_equations(hull.equations),
                                   _sorted_equations(ref.equations), rtol=0, atol=1e-12)
        assert abs(hull.area - ref.volume) <= 1e-12 * ref.volume
        assert abs(hull.perimeter - ref.area) <= 1e-12 * ref.area


@pytest.mark.parametrize("P", [
    [[0.3, -0.2]],
    [[0.3, -0.2], [0.3, -0.2], [0.3, -0.2]],
    [[0.0, 0.0], [1.0, 0.5]],
    [[0.0, 0.0], [1.0, 0.5], [0.0, 0.0], [1.0, 0.5]],
    [[0.0, 0.0], [0.5, 0.25], [1.0, 0.5], [0.25, 0.125]],
    [[0.0, 0.0], [0.1, 0.3], [0.2, 0.6], [0.7, 2.1]],
], ids=["point", "repeated-point", "two-points", "two-repeated-points",
        "collinear", "collinear-rounded"])
def test_planar_hull_is_flat_where_qhull_raises(P):
    from scipy.spatial import QhullError

    P = np.array(P)
    if len(P) >= 3:
        with pytest.raises(QhullError):
            ConvexHull(P)
    assert bd.planar_hull(P) is None
    # and the callers keep their flat fallbacks
    body = bd.VPolytope(P)
    assert volume_exact(body) == 0.0
    assert bd.contains_points(body, P[:1]).tolist() == [True]
    length = np.max(np.linalg.norm(P[:, None] - P[None], axis=-1))
    np.testing.assert_allclose(closed_intrinsic_volumes(body), [1.0, length, 0.0], atol=1e-15)
    if len(P) > 1:
        assert bd.minkowski_sum_vpolytopes(body, body).dim == 2


# one hull per polytope


@pytest.mark.parametrize("make", [lambda: bd.VPolytope(VPENT.vertices),
                                  lambda: bd.HPolytope(PENT.normals, PENT.offsets)],
                         ids=["v-polygon", "h-polygon"])
def test_each_polytope_builds_its_hull_once(make, hull_builds):
    body = make()
    pts = np.array([[0.1, 0.2], [2.0, 0.0]])
    G = np.stack([rot2(0.3), np.diag([1.5, 0.5])])
    for _ in range(3):
        bd.contains_points(body, pts)
        bd.distance_to_body(body, pts)
        volume_exact(body)
        closed_intrinsic_volumes(body)
        bd.moved_intrinsic_volumes(body, G)
        bd.difference_volumes(body, body, G)
    assert hull_builds == ["planar_hull"]
    assert bd.polytope_hull(body) is bd.polytope_hull(body)


def test_polytope_hull_by_body_type():
    assert bd.polytope_hull(bd.unit_ball(2)) is None
    assert bd.polytope_hull(ELL3) is None
    assert bd.polytope_hull(H_BOX_4D) is None
    assert bd.polytope_hull(bd.VPolytope([[0.0, 0.0], [1.0, 0.5]])) is None
    assert bd.polytope_hull(bd.VPolytope([[0.0], [1.0]])) is None
    hull = bd.polytope_hull(bd.cube(3))
    assert abs(hull.volume - 1.0) < 1e-12


def test_minkowski_sum_keeps_the_hull_planar_hull_would_build():
    rng = np.random.default_rng(43)
    for _ in range(200):
        A = bd.random_polytope(2, int(rng.integers(3, 12)), rng)
        B = bd.VPolytope(rng.standard_normal((int(rng.integers(1, 9)), 2)))
        kept = bd.polytope_hull(bd.minkowski_sum_vpolytopes(A, B))
        built = bd.planar_hull(kept.points)
        np.testing.assert_array_equal(kept.points, built.points)
        np.testing.assert_array_equal(kept.vertices, built.vertices)
        np.testing.assert_array_equal(kept.equations, built.equations)
        assert kept.area == built.area


# the planar edge merge and the broadcast boundary distance


def _hull_of_pairwise_sums(A, B):
    """The corners of planar_hull over all pairwise vertex sums, or None."""
    sums = (A.vertices[:, None, :] + B.vertices[None, :, :]).reshape(-1, 2)
    hull = bd.planar_hull(sums)
    return None if hull is None else sums[hull.vertices]


def test_edge_merge_matches_planar_hull_of_pairwise_sums():
    # minkowski_sum_vpolytopes at n = 2 is the edge merge, a batch of one:
    # bit for bit the corners planar_hull finds among all m l sums
    rng = np.random.default_rng(181)
    square = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
    seen = {"reflection": 0, "point": 0, "segment": 0, "parallel": 0}
    for i in range(1200):
        A = bd.random_polytope(2, int(rng.integers(3, 12)), rng,
                               radius=float(rng.uniform(0.2, 5.0)),
                               center=rng.normal(size=2))
        kind = i % 6
        if kind in (0, 1):  # -g L under a random g, det g of either sign
            g = sample_haar_orthogonal(2, rng) @ expm_sym(sample_gaussian_sym(2, rng))
            seen["reflection"] += bool(np.linalg.det(g) < 0)
            B = bd.VPolytope(bd.random_polytope(2, int(rng.integers(3, 9)), rng).vertices @ -g.T)
        elif kind == 2:
            B = bd.VPolytope(rng.standard_normal((1, 2)))
            A, B = (A, B) if i % 4 else (B, A)
            seen["point"] += 1
        elif kind == 3:
            B = bd.VPolytope(rng.standard_normal((2, 2)))
            A, B = (A, B) if i % 4 else (B, A)
            seen["segment"] += 1
        elif kind == 4:  # every edge of one square parallel to one of the other
            A = bd.VPolytope(square * rng.uniform(0.5, 2.0) + rng.normal(size=2))
            B = bd.VPolytope(square[::-1] * rng.uniform(0.5, 2.0) + rng.normal(size=2))
            seen["parallel"] += 1
        else:  # two segments: a parallelogram
            A = bd.VPolytope(rng.standard_normal((2, 2)))
            B = bd.VPolytope(rng.standard_normal((2, 2)))
        want = _hull_of_pairwise_sums(A, B)
        got = bd.minkowski_sum_vpolytopes(A, B)
        np.testing.assert_array_equal(got.vertices, want)
        np.testing.assert_array_equal(bd.polytope_hull(got).points, want)
    assert min(seen.values()) >= 100


def test_edge_merge_of_squares_drops_the_straight_turns():
    square = bd.VPolytope([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
    ring = bd.minkowski_rings(bd.polygon_ring(square), bd.polygon_ring(square))
    assert ring.shape == (8, 2)  # each side twice: four straight turns
    np.testing.assert_array_equal(bd.minkowski_sum_vpolytopes(square, square).vertices,
                                  [[0.0, 0.0], [2.0, 0.0], [2.0, 2.0], [0.0, 2.0]])


def test_edge_merge_by_batch_matches_one_pair_at_a_time():
    # the lemma check's batch: one ring of M against the rings of -g_b L,
    # reversed where det g_b < 0
    rng = np.random.default_rng(182)
    M = bd.random_polytope(2, 7, rng)
    L = bd.random_polytope(2, 6, rng)
    G = sample_haar_orthogonal(2, rng, size=64) @ expm_sym(sample_gaussian_sym(2, rng, size=64))
    Q = bd.polygon_ring(L) @ -np.swapaxes(G, 1, 2)
    flip = np.linalg.det(G) < 0
    Q[flip] = Q[flip, ::-1]
    rings = bd.minkowski_rings(bd.polygon_ring(M), Q)
    assert rings.shape == (64, len(bd.polygon_ring(M)) + len(bd.polygon_ring(L)), 2)
    for b in range(64):
        np.testing.assert_array_equal(rings[b], bd.minkowski_rings(bd.polygon_ring(M), Q[b]))
        want = _hull_of_pairwise_sums(M, bd.VPolytope(Q[b]))
        start = int(np.flatnonzero(np.all(rings[b] == want[0], axis=1))[0])
        np.testing.assert_array_equal(np.roll(rings[b], -start, axis=0), want)


# the polytope distance by a loop over simplices, the code before the
# broadcast kernels (bodies._edge_distance, bodies._triangle_distance), kept
# as their reference: one _segment_distance per edge, one _triangle_distance
# per triangle and a branch per kind of vertex set


def _segment_distance(p0, p1, points):
    d = p1 - p0
    denom = float(d @ d)
    if denom < 1e-30:
        return np.linalg.norm(points - p0, axis=1)
    t = np.clip((points - p0) @ d / denom, 0.0, 1.0)
    return np.linalg.norm(points - (p0 + t[:, None] * d), axis=1)


def _triangle_distance(tri, points):
    a, b, c = tri
    nrm = np.cross(b - a, c - a)
    nn = float(nrm @ nrm)
    if nn < 1e-30:
        return np.minimum(_segment_distance(a, b, points),
                          np.minimum(_segment_distance(b, c, points),
                                     _segment_distance(a, c, points)))
    w = points - a
    dist_plane = w @ nrm / np.sqrt(nn)
    proj = points - dist_plane[:, None] * nrm / np.sqrt(nn)
    # barycentric test of the projections
    v0, v1 = b - a, c - a
    v2 = proj - a
    d00, d01, d11 = v0 @ v0, v0 @ v1, v1 @ v1
    d20, d21 = v2 @ v0, v2 @ v1
    den = d00 * d11 - d01 * d01
    s = (d11 * d20 - d01 * d21) / den
    t = (d00 * d21 - d01 * d20) / den
    inside = (s >= -1e-12) & (t >= -1e-12) & (s + t <= 1 + 1e-12)
    edge = np.minimum(_segment_distance(a, b, points),
                      np.minimum(_segment_distance(b, c, points),
                                 _segment_distance(a, c, points)))
    return np.where(inside, np.abs(dist_plane), edge)


def _vpolytope_distance(body, points):
    V = body.vertices
    n = body.dim
    if V.shape[0] == 1:
        return np.linalg.norm(points - V[0], axis=1)
    # rank-deficient vertex sets degrade to segments / planar fans
    centered = V - V.mean(axis=0)
    rank = np.linalg.matrix_rank(centered, tol=1e-10)
    if rank == 0:
        return np.linalg.norm(points - V[0], axis=1)
    if n == 1:
        lo, hi = V.min(), V.max()
        return np.maximum.reduce([lo - points[:, 0], points[:, 0] - hi, np.zeros(len(points))])
    if rank == 3:
        hull = bd.polytope_hull(body)
        inside = np.all(points @ hull.equations[:, :-1].T + hull.equations[:, -1] <= bd.TOL,
                        axis=1)
        dist = np.full(points.shape[0], np.inf)
        for simplex in hull.simplices:
            dist = np.minimum(dist, _triangle_distance(V[simplex], points))
        return np.where(inside, 0.0, dist)
    if rank == 2 and n == 2:
        hull = bd.polytope_hull(body)
        if hull is not None:
            inside = np.all(points @ hull.equations[:, :-1].T + hull.equations[:, -1] <= bd.TOL,
                            axis=1)
            return np.where(inside, 0.0, _edge_distance_by_loop(hull.points, points))
    elif rank == 2:  # a flat polytope in R^3: fan over its planar hull
        _, _, vt = np.linalg.svd(centered, full_matrices=False)
        hull = bd.planar_hull(centered @ vt[:2].T)
        if hull is not None:
            order = hull.vertices
            dist = np.full(points.shape[0], np.inf)
            for i in range(1, len(order) - 1):
                tri = np.array([V[order[0]], V[order[i]], V[order[i + 1]]])
                dist = np.minimum(dist, _triangle_distance(tri, points))
            return dist
    # a segment, or a planar set the hull finds flat up to rounding
    return _segment_distance(*bd._segment_ends(V), points)


def _edge_distance_by_loop(ring, points):
    # one _segment_distance per edge, the kernel before it was broadcast
    dist = np.full(points.shape[0], np.inf)
    for i in range(len(ring)):
        dist = np.minimum(dist, _segment_distance(ring[i], ring[(i + 1) % len(ring)], points))
    return dist


def test_edge_distance_matches_the_loop_over_edges():
    rng = np.random.default_rng(183)
    for _ in range(300):
        ring = bd.polygon_ring(bd.random_polytope(2, int(rng.integers(3, 12)), rng))
        pts = rng.uniform(-2.0, 2.0, (64, 2))
        np.testing.assert_allclose(bd._edge_distance(ring, pts),
                                   _edge_distance_by_loop(ring, pts), rtol=0.0, atol=1e-15)
    # far from the unit scale the two agree to rounding of the coordinates
    for _ in range(100):
        ring = bd.polygon_ring(bd.random_polytope(2, int(rng.integers(3, 12)), rng,
                                                  radius=10.0, center=rng.normal(size=2) * 10))
        pts = rng.uniform(-40.0, 40.0, (64, 2))
        scale = max(np.max(np.abs(ring)), np.max(np.abs(pts)))
        np.testing.assert_allclose(bd._edge_distance(ring, pts),
                                   _edge_distance_by_loop(ring, pts),
                                   rtol=0.0, atol=8 * np.finfo(float).eps * scale)
    # a repeated ring point is an edge of length 0: the distance to that point
    ring = np.array([[0.0, 0.0], [0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    pts = rng.uniform(-2.0, 2.0, (64, 2))
    np.testing.assert_allclose(bd._edge_distance(ring, pts),
                               _edge_distance_by_loop(ring, pts), rtol=0.0, atol=1e-15)


def test_edge_distance_broadcasts_over_batch_axes():
    rng = np.random.default_rng(184)
    rings = rng.standard_normal((5, 6, 2))
    pts = rng.standard_normal((5, 3, 2))
    got = bd._edge_distance(rings, pts)
    assert got.shape == (5, 3)
    for b in range(5):
        np.testing.assert_array_equal(got[b], bd._edge_distance(rings[b], pts[b]))


# the broadcast polytope distance kernels against the loop over simplices


def _rotated_flat(rng, m, n, k):
    """m random points of a k-flat in R^n, turned by a random rotation."""
    Q = np.linalg.qr(rng.standard_normal((n, n)))[0]
    P = np.zeros((m, n))
    P[:, :k] = rng.standard_normal((m, k))
    return P @ Q.T + rng.standard_normal(n)


def _points_on_faces(body, rng):
    """The vertices of a polytope, points on the edges and facets of its kept
    hull (any combination of vertices for a flat one), and each of these
    pushed 1e-6 off in a random direction."""
    V = bd.vertex_set(body)
    hull = bd.polytope_hull(body)
    if hull is None:
        tri = rng.integers(0, len(V), (20, 3))
    elif body.dim == 2:
        k = rng.integers(0, len(hull.vertices), 20)
        tri = hull.vertices[np.column_stack([k, (k + 1) % len(hull.vertices), k])]
    else:
        tri = hull.simplices[rng.integers(0, len(hull.simplices), 20)]
    a, b, c = V[tri.T]
    w = rng.dirichlet(np.ones(3), 20)
    on = np.vstack([V, w[:, :1] * a + (1.0 - w[:, :1]) * b,
                    w[:, :1] * a + w[:, 1:2] * b + w[:, 2:] * c])
    off = rng.standard_normal(on.shape)
    return np.vstack([on, on + 1e-6 * off / np.linalg.norm(off, axis=1, keepdims=True)])


@pytest.mark.parametrize("n", [1, 2, 3])
def test_polytope_distance_matches_the_loop_oracle(n):
    # full and flat bodies at unit scale: the broadcast kernels against the
    # loop over simplices, to 1e-14
    rng = np.random.default_rng(211 + n)
    bodies = []
    for _ in range(25):
        if n > 1:
            bodies.append(bd.random_polytope(n, int(rng.integers(n + 1, 12)), rng,
                                             center=rng.normal(size=n) * 0.3))
        bodies.append(bd.VPolytope(rng.standard_normal((int(rng.integers(n + 1, 12)), n))))
        bodies.append(bd.VPolytope(_rotated_flat(rng, 5, n, 1)))  # collinear
        bodies.append(bd.VPolytope(np.repeat(rng.standard_normal((1, n)), 2, axis=0)))
        if n == 3:  # flat polygons: the fan over the planar hull
            bodies.append(bd.VPolytope(_rotated_flat(rng, int(rng.integers(3, 9)), 3, 2)))
    bodies += [_h_polytope_with_a_corner_cut(n)] + ([HEX, PENT] if n == 2 else [])
    for body in bodies:
        V = bd.vertex_set(body)
        pts = np.vstack([rng.uniform(-2.0, 2.0, (40, n)), _points_on_faces(body, rng)])
        np.testing.assert_allclose(bd.distance_to_body(body, pts),
                                   _vpolytope_distance(bd.VPolytope(V), pts),
                                   rtol=0.0, atol=1e-14)


def test_triangle_distance_matches_the_loop_oracle():
    # a stack of triangles, degenerate ones among them (collinear corners, a
    # repeated corner, one point), against one oracle call per triangle, and
    # each degenerate triangle alone, which reads its three edges
    rng = np.random.default_rng(215)
    a, b = rng.standard_normal((2, 3))
    degenerate = np.array([[a, 0.3 * a + 0.7 * b, b], [a, a, b], [a, a, a]])
    tris = np.concatenate([rng.standard_normal((30, 3, 3)), degenerate])
    w = rng.dirichlet(np.ones(3), len(tris))
    pts = np.vstack([rng.uniform(-2.0, 2.0, (60, 3)), tris.reshape(-1, 3),
                     0.5 * (tris[:, 0] + tris[:, 1]), np.einsum("fk,fkn->fn", w, tris)])
    want = np.min([_triangle_distance(tri, pts) for tri in tris], axis=0)
    np.testing.assert_allclose(bd._triangle_distance(tris, pts), want, rtol=0.0, atol=1e-14)
    for tri in degenerate:
        np.testing.assert_allclose(bd._triangle_distance(tri[None], pts),
                                   _triangle_distance(tri, pts), rtol=0.0, atol=1e-14)
    # leading batch axes, as _edge_distance takes them
    T = rng.standard_normal((4, 5, 3, 3))
    P = rng.standard_normal((4, 7, 3))
    got = bd._triangle_distance(T, P)
    assert got.shape == (4, 7)
    for r in range(4):
        np.testing.assert_array_equal(got[r], bd._triangle_distance(T[r], P[r]))


def _edge_distance_planar(ring, points):
    # the planar broadcast kernel before it took any dimension
    p0 = ring[..., None, :, :]
    d = np.roll(ring, -1, axis=-2)[..., None, :, :] - p0
    x = points[..., :, None, :]
    w = x - p0
    denom = d[..., 0] * d[..., 0] + d[..., 1] * d[..., 1]
    short = denom < 1e-30
    t = np.clip((w[..., 0] * d[..., 0] + w[..., 1] * d[..., 1])
                / np.where(short, 1.0, denom), 0.0, 1.0)
    foot = p0 + np.where(short, 0.0, t)[..., None] * d
    return np.linalg.norm(x - foot, axis=-1).min(axis=-1)


def test_planar_distances_keep_their_bits():
    # in the plane the kernel sums the two components in the same order, so
    # the lemma check's batches and polygon distances are bit for bit those
    # of the planar kernel
    rng = np.random.default_rng(217)
    rings = rng.standard_normal((40, 9, 2))
    pts = rng.uniform(-3.0, 3.0, (40, 8, 2))
    np.testing.assert_array_equal(bd._edge_distance(rings, pts), _edge_distance_planar(rings, pts))
    for body in (HEX, PENT, VPENT, bd.random_polytope(2, 11, rng)):
        hull = bd.polytope_hull(body)
        pts = np.vstack([rng.uniform(-2.0, 2.0, (200, 2)), hull.points])
        want = np.where(bd.contains_points(body, pts), 0.0, _edge_distance_planar(hull.points, pts))
        np.testing.assert_array_equal(bd.distance_to_body(body, pts), want)


@pytest.mark.parametrize("n", [1, 3])
def test_edge_distance_matches_the_loop_in_other_dimensions(n):
    rng = np.random.default_rng(216 + n)
    for k in (1, 2, 5):
        ring = rng.standard_normal((k, n))
        pts = np.vstack([rng.uniform(-2.0, 2.0, (64, n)), ring])
        np.testing.assert_allclose(bd._edge_distance(ring, pts),
                                   _edge_distance_by_loop(ring, pts), rtol=0.0, atol=1e-14)


@pytest.mark.parametrize("n", [2, 3])
def test_quadric_polytope_rows_match_the_loop_oracle(n):
    # batch_intersects of a ball or an ellipsoid Q and a polytope P, either
    # way round, row by row against the loop: P's vertices mapped into Q's
    # frame, where Q is the unit ball, as a new body per row, within 1 + TOL
    # of the origin. Full and flat P; random rows, rows planted to touch and
    # the touching rows pushed 1e-6 apart
    rng = np.random.default_rng(221 + n)
    B = 16
    ball = bd.Ball(0.1 * rng.standard_normal(n), 0.7)
    ell = bd.Ellipsoid(0.1 * rng.standard_normal(n),
                       np.linalg.qr(rng.standard_normal((n, n)))[0], rng.uniform(0.5, 1.2, n))
    polys = [bd.random_polytope(n, 8, rng, radius=0.8), bd.random_polytope(n, 12, rng, radius=5.0),
             _h_polytope_with_a_corner_cut(n),
             bd.VPolytope(0.8 * _rotated_flat(rng, 4, n, 1)),
             bd.VPolytope(0.5 * rng.standard_normal((1, n)))]
    if n == 3:
        polys.append(bd.VPolytope(0.8 * _rotated_flat(rng, 6, 3, 2)))

    def lin(Q):
        return Q.radius * np.eye(n) if isinstance(Q, bd.Ball) else Q.axes * Q.semiaxes

    def oracle(Q, W):
        # W: P's vertices placed in the world, per row
        A = np.linalg.inv(lin(Q))
        origin = np.zeros((1, n))
        return np.array([_vpolytope_distance(bd.VPolytope((w - Q.center) @ A.T), origin)[0]
                         <= 1.0 + bd.TOL for w in W])

    for P in polys:
        V = bd.vertex_set(P)
        for Q in (ball, ell):
            for quadric_first in (True, False):
                G, invG = _draw_maps(n, B, rng)
                u = rng.standard_normal((B, n))
                u /= np.linalg.norm(u, axis=1, keepdims=True)
                A = lin(Q)
                if quadric_first:  # Q meets g P + t
                    p = Q.center + (u @ A) @ A.T / np.linalg.norm(u @ A, axis=1)[:, None]
                    GV = V @ np.swapaxes(G, 1, 2)
                    touch = p - GV[np.arange(B), np.argmin(np.einsum("bmi,bi->bm", GV, u), axis=1)]
                else:  # P meets g Q + t
                    AG = G @ A
                    Au = np.einsum("bij,bkj,bk->bi", AG, AG, u)
                    touch = (V[np.argmax(u @ V.T, axis=1)] - np.einsum("bij,j->bi", G, Q.center)
                             + Au / np.linalg.norm(np.einsum("bji,bj->bi", AG, u), axis=1)[:, None])
                # Q's centre at P's centroid
                centred = (Q.center - V.mean(axis=0) @ np.swapaxes(G, 1, 2) if quadric_first
                           else V.mean(axis=0) - G @ Q.center)
                for t, meet in ((rng.uniform(-2.0, 2.0, (B, n)), None), (touch, True),
                                (touch + 1e-6 * u, False), (centred, True)):
                    if quadric_first:
                        got = bd.batch_intersects(Q, P, G, invG, t)
                        want = oracle(Q, V @ np.swapaxes(G, 1, 2) + t[:, None, :])
                    else:
                        got = bd.batch_intersects(P, Q, G, invG, t)
                        want = oracle(Q, (V - t[:, None, :]) @ np.swapaxes(invG, 1, 2))
                    np.testing.assert_array_equal(got, want)
                    assert meet is None or np.all(got == meet)


def test_quadric_polytope_batches_build_no_hull_per_row(hull_builds):
    # one broadcast per block of rows over the faces of the polytope's one
    # kept hull: 4096 rows of a ball against a cube in R^3 (several blocks)
    # and a disc against a polygon. Every row planted to touch meets, every
    # row pushed 1e-6 apart misses, and random rows read as in short batches
    rng = np.random.default_rng(231)
    for M, L, B in ((bd.unit_ball(3), bd.cube(3, centered=True), 4096),
                    (bd.unit_ball(2), bd.VPolytope(VPENT.vertices), 1024)):
        n = M.dim
        G, invG = _draw_maps(n, B, rng)
        u = rng.standard_normal((B, n))
        u /= np.linalg.norm(u, axis=1, keepdims=True)
        GV = bd.vertex_set(L) @ np.swapaxes(G, 1, 2)
        touch = u - GV[np.arange(B), np.argmin(np.einsum("bmi,bi->bm", GV, u), axis=1)]
        hull_builds.clear()
        assert bd.batch_intersects(M, L, G, invG, touch).all()
        assert not bd.batch_intersects(M, L, G, invG, touch + 1e-6 * u).any()
        t = rng.uniform(-2.5, 2.5, (B, n))
        hits = bd.batch_intersects(M, L, G, invG, t)
        assert hull_builds == ["qhull" if n == 3 else "planar_hull"]
        assert 0 < hits.sum() < B
        short = [bd.batch_intersects(M, L, G[s:s + 100], invG[s:s + 100], t[s:s + 100])
                 for s in range(0, B, 100)]
        np.testing.assert_array_equal(hits, np.concatenate(short))
        assert hull_builds == ["qhull" if n == 3 else "planar_hull"]


def _lp_valid(N, o):
    """The LP verdict on {x : N x <= o}: feasible, and bounded along +-e_k."""
    norms = np.linalg.norm(N, axis=1)
    N, o = N / norms[:, None], o / norms
    if linprog.feasible(N, o) is None:
        return False
    try:
        for u in np.vstack([np.eye(N.shape[1]), -np.eye(N.shape[1])]):
            linprog.support_hrep(N, o, u)
    except ValueError:
        return False
    return True


def test_hpolytopes_validate_without_lps_up_to_3d(lp_calls):
    # at n <= 3 the vertex enumeration and the extreme rays of {d : N d <= 0}
    # give the LPs' verdict on random systems without solving one; a
    # validated H-polytope at n = 4 that is not a box still solves 1 + 2n
    rng = np.random.default_rng(241)
    systems = []
    for i in range(300):
        n = 1 + i % 3
        m = int(rng.integers(1, 3 * n + 3))
        systems.append((rng.standard_normal((m, n)), rng.uniform(-0.3, 1.0, m)))
    verdicts = [_lp_valid(N, o) for N, o in systems]
    assert 50 < sum(verdicts) < 250
    lp_calls.clear()
    for (N, o), want in zip(systems, verdicts):
        try:
            bd.HPolytope(N, o)
            got = True
        except ValueError:
            got = False
        assert got == want
    assert lp_calls == []
    _h_polytope_with_a_corner_cut(4)
    assert len(lp_calls) == 1 + 2 * 4


# ---------------------------------------------------------------------------
# affine flats


def _flats(n, j, m, rng, radius=1.5):
    """(basis, offset) of m flats from the invariant measure in a window."""
    from intgeo.sampling import sample_affine_flat

    flats = sample_affine_flat(n, j, rng, window_radius=radius, size=m)
    return flats.basis, flats.offset


def _through(U, points):
    """Offsets putting the flats span(U_b) through points_b."""
    return points - np.einsum("bij,bj->bi", U, np.einsum("bij,bi->bj", U, points))


@pytest.mark.parametrize("n, j", [(2, 0), (2, 1), (2, 2), (3, 0), (3, 1), (3, 2), (3, 3)])
def test_batch_flat_hits_match_the_lp_per_flat(n, j):
    # every polytope kernel (contains_points for points, the support
    # interval for hyperplanes, the LP for lines in 3-D) against the LP per
    # flat: a V-polytope, the same body as an H-polytope and a flat
    # V-polytope, on random flats and on flats through a vertex, which only
    # graze the body or cut it
    rng = np.random.default_rng(10 * n + j)
    V = bd.random_polytope(n, 10, rng, radius=1.2)
    eq = ConvexHull(V.vertices).equations
    H = bd.HPolytope(eq[:, :-1], -eq[:, -1])
    F = _rotated_flat(rng, 5, n, n - 1)
    F = bd.VPolytope(0.8 * (F - F.mean(axis=0)))
    U, off = _flats(n, j, 400, rng)
    for body in (V, H, F):
        W = bd.vertex_set(body)
        grazing = _through(U[:40], W[rng.integers(len(W), size=40)])
        for Ub, ob in ((U, off), (U[:40], grazing)):
            got = bd.batch_flat_hits(body, Ub, ob)
            assert got.tolist() == [bd._flat_hits_lp(body, u, o) for u, o in zip(Ub, ob)]
        assert got.all()
        hits = bd.batch_flat_hits(body, U, off).sum()
        if j == n:
            assert hits == 400
        elif body is not F or j > 0:  # points miss a flat body
            assert 0 < hits < 400


def _quadrics(n, rng):
    """An off-centre ball of radius 2.5 and a rotated ellipsoid in R^n."""
    return (bd.Ball(0.3 * rng.standard_normal(n), 2.5),
            bd.Ellipsoid(0.2 * rng.standard_normal(n), np.linalg.qr(rng.standard_normal((n, n)))[0],
                         np.geomspace(1.6, 0.4, n)))


@pytest.mark.parametrize("n", [2, 3, 4])
def test_batch_flat_hits_of_quadrics_match_flat_by_flat_minimization(n, monkeypatch):
    # against the least-squares distance to each flat, for every j: the
    # ball's in the world (slack TOL, as contains_points), the ellipsoid's
    # gauge in its frame. Flats at a ball's distance r + TOL / 2 hit and
    # r + 2 TOL miss, whichever kernel the flat's dimension picks (at
    # r = 2.5 a slack of TOL on the gauge would reach r + 2.5 TOL). No flat
    # takes a QR
    rng = np.random.default_rng(12 + n)
    ball, ell = _quadrics(n, rng)
    D = ell.axes / ell.semiaxes
    for j in range(n + 1):
        U, off = _flats(n, j, 300, rng, radius=3.0)
        want_ell, want_ball = [], []
        for Ub, ob in zip(U, off):
            A, b = D.T @ Ub, D.T @ (ob - ell.center)
            s = np.linalg.lstsq(A, -b, rcond=None)[0] if j else np.zeros(0)
            want_ell.append(float(np.linalg.norm(A @ s + b) ** 2) <= 1.0)
            w = ball.center - ob
            want_ball.append(np.linalg.norm(w - Ub @ (Ub.T @ w)) <= ball.radius + bd.TOL)
        monkeypatch.setattr(np.linalg, "qr", lambda *a, **k: pytest.fail("QR called"))
        assert bd.batch_flat_hits(ell, U, off).tolist() == want_ell
        assert bd.batch_flat_hits(ball, U, off).tolist() == want_ball
        monkeypatch.undo()
        if j == n:
            continue
        if j:  # points rarely hit the ellipsoid, and take contains_points
            assert 0 < sum(want_ell) < 300 and 0 < sum(want_ball) < 300
        # unit directions orthogonal to each flat, at the ball's distance r + d
        u = rng.standard_normal((300, n))
        u = u - np.einsum("bij,bj->bi", U, np.einsum("bij,bi->bj", U, u))
        u /= np.linalg.norm(u, axis=1, keepdims=True)
        for d, meet in ((0.5 * bd.TOL, True), (2.0 * bd.TOL, False)):
            hits = bd.batch_flat_hits(ball, U, ball.center + (ball.radius + d) * u)
            assert np.all(hits == meet)


def test_hyperplanes_of_a_4d_box_solve_no_lp(lp_calls):
    # the support interval of an axis box, against the LP per flat
    rng = np.random.default_rng(41)
    U, off = _flats(4, 3, 500, rng, radius=2.5)
    want = [bd._flat_hits_lp(H_BOX_4D, u, o) for u, o in zip(U, off)]
    lp_calls.clear()
    got = bd.batch_flat_hits(H_BOX_4D, U, off)
    assert lp_calls == []
    assert got.tolist() == want
    assert 0 < got.sum() < 500


@pytest.mark.parametrize("n", [2, 3])
def test_hyperplane_normals_need_no_svd_at_n_le_3(n, monkeypatch):
    # the oracle of the hit test itself is test_batch_flat_hits_match_the_lp_per_flat
    rng = np.random.default_rng(30 + n)
    V = bd.random_polytope(n, 10, rng)
    U, off = _flats(n, n - 1, 300, rng)
    calls = []
    svd = np.linalg.svd
    monkeypatch.setattr(np.linalg, "svd", lambda *a, **k: calls.append(1) or svd(*a, **k))
    nu = bd._hyperplane_normals(U)
    hits = bd.batch_flat_hits(V, U, off)
    assert calls == []
    np.testing.assert_allclose(np.linalg.norm(nu, axis=1), 1.0, rtol=0, atol=1e-15)
    np.testing.assert_allclose(np.einsum("bi,bij->bj", nu, U), 0.0, atol=1e-15)
    assert 0 < hits.sum() < 300


def test_quadric_rows_against_flat_polytopes_solve_no_lp(lp_calls):
    # a flat V-polytope decides membership by LP, so the midpoint shortcut
    # of batch_intersects skips it: a ball against a segment or a flat
    # triangle in R^3, either way round, reads the distance faces only and
    # agrees with the loop oracle; a cube against them takes one
    # intersection LP per row and agrees with _polytopes_intersect_lp
    rng = np.random.default_rng(251)
    B = 200
    ball, cube = bd.unit_ball(3), bd.cube(3, side=1.2, centered=True)
    for P in (bd.VPolytope(_rotated_flat(rng, 2, 3, 1)), bd.VPolytope(_rotated_flat(rng, 3, 3, 2))):
        V = P.vertices
        for first in (True, False):
            G, invG = _draw_maps(3, B, rng)
            t = _box_translations(ball, P, G, rng) if first else _box_translations(P, ball, G, rng)
            lp_calls.clear()
            if first:  # the ball meets g P + t
                got = bd.batch_intersects(ball, P, G, invG, t)
                W = V @ np.swapaxes(G, 1, 2) + t[:, None, :]
            else:  # P meets g B + t: g^-1 (P - t) meets B
                got = bd.batch_intersects(P, ball, G, invG, t)
                W = (V - t[:, None, :]) @ np.swapaxes(invG, 1, 2)
            assert lp_calls == []
            want = [_vpolytope_distance(bd.VPolytope(w), np.zeros((1, 3)))[0] <= 1.0 + bd.TOL
                    for w in W]
            assert got.tolist() == want and 0 < got.sum() < B
            if first:
                got = bd.batch_intersects(cube, P, G, invG, t)
                want = [bd._polytopes_intersect_lp(cube, bd.VPolytope(w)) for w in W]
                assert got.tolist() == want and 0 < got.sum() < B
