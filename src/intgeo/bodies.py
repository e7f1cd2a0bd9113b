"""Convex bodies in R^n and the exact predicates the estimators rely on.

Four representations are supported: balls, ellipsoids (center + orthonormal
principal axes + semiaxes), H-polytopes (bounded intersections of halfspaces)
and V-polytopes (convex hulls of finite vertex sets). Emptiness, membership,
separation and distance queries are exact up to the stated tolerance TOL;
nothing here is sampled. Polytope distance queries and H-polytope vertex
enumeration require n <= 3.

Whether M meets g L + t is batch_intersects, over a batch of linear maps g
and translations t (intersects is its one-row case), the axis box of g L
is moved_boxes, and the volume of the t at which they meet, vol(M + (-g L)),
is the row sum of difference_volumes, its parts by degree in g; membership
is the one-row case of contains_points, support and bounding_box are the
one-row cases of moved_support, and whether affine flats meet a body is
batch_flat_hits, built from those kernels: the body types pick the kernels
there and nowhere else. Polytopes whose vertex set is cheap (vertex_set)
answer support, distances, volumes and hyperplane hits from it without the
linear programs (linprog) that the others solve; an axis-aligned H-box
(axis_box) answers support in closed form in any dimension, and
box_proxy stands that box in for a body whose support would be an LP per
row, where only an enclosing box is asked for. The principal
axes of a moved ball or ellipsoid (moved_frames) come from
symmetric.singular_frames.

Each polytope builds its convex hull once and keeps it (polytope_hull):
membership, distances, separating axes, areas, perimeters and volumes all
read the kept hull, and no other module builds one. Every hull in the
plane is planar_hull, Andrew's monotone chain in numpy: edge normals, facet
equations, areas and perimeters of polygons all come from its
counter-clockwise vertex order. Only hulls in other dimensions call
scipy's Qhull (scipy.spatial, imported when first needed). Two convex
polygons sum without a hull: minkowski_rings merges their boundary rings
(polygon_ring) by edge angle over a whole batch of pairs, and the planar
minkowski_sum_vpolytopes is its batch of one. An H-polytope at n <= 3
validates from its vertex enumeration, without linear programs.

Polytope distances read one list of distance faces per polytope
(_distance_faces), taken from its kept hull: a ring of edges for
_edge_distance (any dimension) or a stack of triangles for
_triangle_distance (R^3). Each kernel is one broadcast over faces and
points, and over rows where batch_intersects maps the faces by a batch of
affine maps, so no row builds a body or a hull.

Bodies serialize to plain JSON dicts with a "type" tag so the CLI and the
cache files can round-trip them; see body_to_dict / body_from_dict. They
compare by identity (eq=False): a generated __eq__ would compare their
array fields with == and raise.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from functools import cache, cached_property
from itertools import combinations

import numpy as np

from . import linprog
from .symmetric import singular_frames

TOL = 1e-9
# a turn of the monotone chain counts as straight when its cross product is
# within this many ulps of the coordinates' scale times their extent
_HULL_ULPS = 32.0


def _array(value, ndim: int, name: str) -> np.ndarray:
    """value as a float array of rank ndim (1 or 2), a lower rank promoted."""
    arr = (np.atleast_1d if ndim == 1 else np.atleast_2d)(np.asarray(value, dtype=float))
    if arr.ndim != ndim:
        raise ValueError(f"{name} must be a {ndim}-D array, got shape {arr.shape}")
    return arr


@dataclass(eq=False)
class AffineMap:
    """x |-> matrix @ x + offset with an invertible linear part."""

    matrix: np.ndarray
    offset: np.ndarray

    def __post_init__(self):
        self.matrix = np.asarray(self.matrix, dtype=float)
        self.offset = np.asarray(self.offset, dtype=float)

    def __call__(self, points: np.ndarray) -> np.ndarray:
        points = np.asarray(points, dtype=float)
        return points @ self.matrix.T + self.offset


@dataclass(eq=False)
class Ball:
    center: np.ndarray
    radius: float

    def __post_init__(self):
        self.center = _array(self.center, 1, "center")
        self.radius = float(self.radius)
        if self.radius <= 0:
            raise ValueError("ball radius must be positive")

    @property
    def dim(self) -> int:
        return self.center.size


@dataclass(eq=False)
class Ellipsoid:
    """{center + axes @ diag(semiaxes) @ z : ||z|| <= 1}; axes columns orthonormal."""

    center: np.ndarray
    axes: np.ndarray
    semiaxes: np.ndarray

    def __post_init__(self):
        self.center = _array(self.center, 1, "center")
        self.axes = _array(self.axes, 2, "axes")
        self.semiaxes = _array(self.semiaxes, 1, "semiaxes")
        n = self.center.size
        if self.axes.shape != (n, n) or self.semiaxes.shape != (n,):
            raise ValueError("inconsistent ellipsoid dimensions")
        if np.any(self.semiaxes <= 0):
            raise ValueError("semiaxes must be positive")
        if np.max(np.abs(self.axes.T @ self.axes - np.eye(n))) > 1e-10:
            raise ValueError("axes must be orthonormal to 1e-10")

    @property
    def dim(self) -> int:
        return self.center.size


@dataclass(eq=False)
class HPolytope:
    """{x : normals @ x <= offsets}, verified nonempty and bounded on construction.

    At n <= 3 the vertex enumeration (as_vpolytope, kept) and the extreme
    rays of {d : normals @ d <= 0} verify it without linear programs; at
    n >= 4 a feasibility LP and 2n support LPs do. Rows are normalized to
    unit length so TOL acts as a geometric distance. Pass validate=False
    only for systems already known feasible and bounded (e.g. the affine
    image of a valid polytope, affine_image).
    """

    normals: np.ndarray
    offsets: np.ndarray
    validate: bool = field(default=True, repr=False)

    def __post_init__(self):
        self.normals = _array(self.normals, 2, "normals")
        self.offsets = _array(self.offsets, 1, "offsets")
        if self.normals.shape[0] != self.offsets.size:
            raise ValueError("normals/offsets length mismatch")
        norms = np.linalg.norm(self.normals, axis=1)
        if np.any(norms < TOL):
            raise ValueError("zero normal row in halfspace system")
        self.normals = self.normals / norms[:, None]
        self.offsets = self.offsets / norms
        if not self.validate:
            return
        N = self.normals
        n = N.shape[1]
        if n <= 3:
            # the enumeration raises when there is no vertex; with one, the
            # system is unbounded exactly when some d != 0 has N d <= 0, and
            # then one lies on an extreme ray of that cone: a unit null
            # vector, of either sign, of n - 1 of the rows
            self._vpolytope
            rows = np.array(list(combinations(range(len(N)), n - 1)), dtype=int)
            D = np.linalg.svd(N[rows])[2][:, -1]
            if np.any(np.all(N @ np.hstack([D.T, -D.T]) <= 1e-12, axis=0)):
                raise ValueError("halfspace system is unbounded")
            return
        if linprog.feasible(N, self.offsets) is None:
            raise ValueError("halfspace system is infeasible")
        try:
            for u in _axes(n)[1]:
                linprog.support_hrep(N, self.offsets, u)
        except ValueError:
            raise ValueError("halfspace system is unbounded")

    @property
    def dim(self) -> int:
        return self.normals.shape[1]

    @cached_property
    def _vpolytope(self) -> VPolytope:
        # as_vpolytope, once per body: vertex_set, polytope_hull and every
        # vertex reader, so the hull of the enumeration is kept with it
        return as_vpolytope(self)


@dataclass(eq=False)
class VPolytope:
    vertices: np.ndarray

    def __post_init__(self):
        self.vertices = _array(self.vertices, 2, "vertices")
        if self.vertices.size == 0:
            raise ValueError("a V-polytope needs at least one vertex")

    @property
    def dim(self) -> int:
        return self.vertices.shape[1]

    @cached_property
    def _hull(self):
        # polytope_hull, once per body (minkowski_sum_vpolytopes may set it)
        V = self.vertices
        if self.dim == 1 or V.shape[0] <= self.dim:
            return None
        return planar_hull(V) if self.dim == 2 else qhull(V)

    @cached_property
    def _faces(self):
        # _distance_faces, once per body
        return _distance_faces(self)


ConvexBody = Ball | Ellipsoid | HPolytope | VPolytope


# ---------------------------------------------------------------------------
# hulls


@dataclass(eq=False)
class PlanarHull:
    """The convex hull of a planar point set with at least three vertices.

    vertices indexes the input points of the hull's corners in
    counter-clockwise order; points holds them in that order. Edges and
    equations are computed once per hull.
    """

    vertices: np.ndarray
    points: np.ndarray

    @cached_property
    def edges(self) -> np.ndarray:
        """Edge vectors, (k, 2): edge i runs from points[i] to points[i + 1]."""
        return np.roll(self.points, -1, axis=0) - self.points

    @cached_property
    def equations(self) -> np.ndarray:
        """[normal | offset] per edge, <normal, x> + offset <= 0 inside,
        with unit outward normals (the layout of Qhull's equations)."""
        e = self.edges
        normals = np.column_stack([e[:, 1], -e[:, 0]]) / np.hypot(e[:, 0], e[:, 1])[:, None]
        offsets = -np.einsum("ij,ij->i", normals, self.points)
        return np.column_stack([normals, offsets])

    @property
    def area(self) -> float:
        """Shoelace formula, on coordinates relative to the first vertex."""
        d = self.points[1:] - self.points[0]
        return 0.5 * float(np.sum(d[:-1, 0] * d[1:, 1] - d[:-1, 1] * d[1:, 0]))

    # Qhull's name for the content of a hull, so volume_exact reads both
    volume = area

    @property
    def perimeter(self) -> float:
        e = self.edges
        return float(np.sum(np.hypot(e[:, 0], e[:, 1])))


def planar_hull(points: np.ndarray) -> PlanarHull | None:
    """Andrew's monotone chain hull of (m, 2) points, or None when it is flat.

    Points are sorted by x, then y; the lower and upper chains pop every
    point that does not make a strict left turn, so collinear and duplicate
    points never become vertices. A turn whose cross product is within
    _HULL_ULPS ulps of (largest |coordinate|) x (largest extent) counts as
    straight, which drops points lying on an edge up to rounding. Fewer
    than three vertices (a point, two points, collinear points) is flat:
    None, where Qhull raises QhullError.
    """
    P = np.asarray(points, dtype=float)
    if P.shape[0] < 3:
        return None
    order = np.lexsort((P[:, 1], P[:, 0])).tolist()
    tol = _straight_turn_tol(P)
    xy = P.tolist()

    def chain(idx):
        out = []
        for i in idx:
            bx, by = xy[i]
            while len(out) >= 2:
                ox, oy = xy[out[-2]]
                ax, ay = xy[out[-1]]
                if (ax - ox) * (by - oy) - (ay - oy) * (bx - ox) > tol:
                    break
                out.pop()
            out.append(i)
        return out

    lower = chain(order)
    upper = chain(order[::-1])
    hull = lower[:-1] + upper[:-1]
    if len(hull) < 3:
        return None
    idx = np.array(hull)
    return PlanarHull(vertices=idx, points=P[idx])


def _straight_turn_tol(P: np.ndarray) -> float:
    """The cross product at or below which a turn through the planar points
    P counts as straight: _HULL_ULPS ulps of (largest |coordinate|) x
    (largest extent)."""
    return (_HULL_ULPS * np.finfo(float).eps * float(np.max(np.abs(P)))
            * float(np.max(np.ptp(P, axis=0))))


def qhull(points: np.ndarray):
    """scipy's Qhull hull of points (any dimension but 2), or None where Qhull
    finds them flat."""
    from scipy.spatial import ConvexHull, QhullError

    try:
        return ConvexHull(points)
    except QhullError:
        return None


# ---------------------------------------------------------------------------
# membership and support


def contains_points(body: ConvexBody, points: np.ndarray, tol: float = TOL) -> np.ndarray:
    """Vectorized membership test; points has shape (m, n), result (m,) bool.
    A flat vertex set has no facets: at n <= 3 a point is in when its
    distance to the set's distance faces (_vpolytope_distance) is at most
    tol, and past n = 3 it takes the LP per point."""
    points = np.atleast_2d(np.asarray(points, dtype=float))
    if isinstance(body, Ball):
        d = points - body.center
        return np.einsum("ij,ij->i", d, d) <= (body.radius + tol) ** 2
    if isinstance(body, Ellipsoid):
        local = (points - body.center) @ body.axes / body.semiaxes
        return np.einsum("ij,ij->i", local, local) <= (1.0 + tol) ** 2
    if isinstance(body, HPolytope):
        return np.all(points @ body.normals.T <= body.offsets + tol, axis=1)
    if isinstance(body, VPolytope):
        eqs = _hull_equations(body)
        if eqs is not None:
            return np.all(points @ eqs[:, :-1].T + eqs[:, -1] <= tol, axis=1)
        if body.dim <= 3:
            return _vpolytope_distance(body, points) <= tol
        return np.array([_vpolytope_member_lp(body, p, tol) for p in points])
    raise TypeError(f"unsupported body {type(body).__name__}")


def membership(body: ConvexBody, x: np.ndarray) -> bool:
    """Whether x lies in the body, with slack TOL: contains_points on one row."""
    return bool(contains_points(body, np.asarray(x, dtype=float)[None, :])[0])


def _vpolytope_member_lp(body: VPolytope, x: np.ndarray, tol: float) -> bool:
    """Whether x is a convex combination of the vertices, within tol.

    The feasibility LP's weights count only when, clipped at 0 and scaled
    to sum 1 (convex weights w), ||V^T w - x|| <= tol: its pivoting
    tolerances alone take points ~5e-8 off a flat body, or weights down to
    -1e-9. Otherwise the distance decides at n <= 3 (distance_to_body), and
    the point is out at n >= 4.
    """
    V = body.vertices
    m, n = V.shape
    x = np.asarray(x, dtype=float)
    scale = max(1.0, float(np.max(np.abs(V))))
    A_eq = np.vstack([V.T / scale, np.ones((1, m))])
    b_eq = np.concatenate([x / scale, [1.0]])
    w = linprog.feasible(None, None, nonneg=True, A_eq=A_eq, b_eq=b_eq)
    if w is not None:
        w = np.maximum(w, 0.0)
        if np.linalg.norm(V.T @ (w / w.sum()) - x) <= tol:
            return True
    return n <= 3 and bool(distance_to_body(body, x[None, :])[0] <= tol)


def support(body: ConvexBody, u: np.ndarray) -> float:
    """Support function h(u) = max_{x in body} <u, x>: moved_support on one
    row with g = I."""
    u = np.asarray(u, dtype=float)
    return float(moved_support(body, np.eye(body.dim)[None], u[None])[0, 0])


@cache
def _axes(n: int) -> tuple[np.ndarray, np.ndarray]:
    """(I, U): the identity as a one-row stack (1, n, n) and the 2n
    directions +e_1..+e_n, -e_1..-e_n as rows (2n, n), built once per n and
    read-only."""
    eye = np.eye(n)[None]
    U = np.vstack([np.eye(n), -np.eye(n)])
    eye.flags.writeable = U.flags.writeable = False
    return eye, U


def bounding_box(body: ConvexBody) -> tuple[np.ndarray, np.ndarray]:
    """Axis-aligned (lower, upper) corners: moved_support on one row with
    g = I, at the 2n directions +-e_k."""
    n = body.dim
    h = moved_support(body, *_axes(n))[0]
    return -h[n:], h[:n]


def outer_radius(body: ConvexBody) -> float:
    """An upper bound on max ||x|| over the body, exact for bodies with a
    vertex_set (the largest vertex norm) and for centered quadrics."""
    if isinstance(body, Ball):
        return float(np.linalg.norm(body.center) + body.radius)
    if isinstance(body, Ellipsoid):
        return float(np.linalg.norm(body.center) + np.max(body.semiaxes))
    V = vertex_set(body)
    if V is not None:
        return float(np.max(np.linalg.norm(V, axis=1)))
    lo, hi = bounding_box(body)
    corner = np.maximum(np.abs(lo), np.abs(hi))
    return float(np.linalg.norm(corner))


# ---------------------------------------------------------------------------
# affine images


def affine_image(body: ConvexBody, amap: AffineMap) -> ConvexBody:
    """Image of the body under x |-> A x + t; A must be invertible.

    A ball maps back to a Ball when A is a scalar multiple of an orthogonal
    matrix and to an Ellipsoid otherwise. Halfspace systems transform by
    (u, alpha) |-> (A^-T u, alpha + <A^-T u, t>).
    """
    A = amap.matrix
    t = amap.offset
    n = A.shape[0]
    if A.shape != (n, n) or t.shape != (n,):
        raise ValueError("affine map has inconsistent shapes")
    sv = np.linalg.svd(A, compute_uv=False)
    if sv[-1] <= 1e-12 * max(1.0, sv[0]):
        raise ValueError("affine map must have an invertible linear part")

    if isinstance(body, Ball):
        gram = A.T @ A
        lam2 = gram[0, 0]
        if np.max(np.abs(gram - lam2 * np.eye(n))) <= 1e-12 * max(1.0, lam2):
            return Ball(A @ body.center + t, body.radius * np.sqrt(lam2))
        U, s = singular_frames(A)
        return Ellipsoid(A @ body.center + t, U, body.radius * s)
    if isinstance(body, Ellipsoid):
        U, s = singular_frames(A @ (body.axes * body.semiaxes))
        return Ellipsoid(A @ body.center + t, U, s)
    if isinstance(body, HPolytope):
        new_normals = np.linalg.solve(A.T, body.normals.T).T
        new_offsets = body.offsets + new_normals @ t
        return HPolytope(new_normals, new_offsets, validate=False)
    if isinstance(body, VPolytope):
        return VPolytope(amap(body.vertices))
    raise TypeError(f"unsupported body {type(body).__name__}")


# ---------------------------------------------------------------------------
# intersections and separation


def separating_hyperplane(a: VPolytope, b: VPolytope):
    """A hyperplane (u, alpha) with a in {<x,u> <= alpha} and b in {<x,u> >= alpha}.

    Returns None when the polytopes overlap with nonempty interior. Touching
    bodies are separable and yield a supporting hyperplane. Polygons take
    the separating axis with the largest gap (u is a unit edge normal and
    alpha sits midway between the two projections). In higher dimensions it
    is a max-margin LP over 2n sign-normalized subproblems (u_k fixed to
    +-1) so the trivial u = 0 never wins; the margin objective is
    homogeneous in u, hence some maximizer attains the box bound and the
    enumeration is exact.
    """
    if not isinstance(a, VPolytope) or not isinstance(b, VPolytope):
        raise TypeError("separating_hyperplane expects two V-polytopes")
    if a.dim == 2:
        eye = np.eye(2)[None]
        axes, gaps = polygon_gaps(a, b, eye, eye, np.zeros((1, 2)))
        axes, gaps = axes[0], gaps[0]
        i = int(np.argmax(gaps))
        if gaps[i] < -TOL:
            return None
        u = axes[i]
        pa, pb = a.vertices @ u, b.vertices @ u
        if pb.min() - pa.max() < pa.min() - pb.max():  # b lies below a
            u, pa, pb = -u, -pa, -pb
        return u, float(0.5 * (pa.max() + pb.min()))
    return _separating_hyperplane_lp(a, b)


def _separating_hyperplane_lp(a: VPolytope, b: VPolytope):
    """The max-margin LP route of separating_hyperplane, in any dimension."""
    n = a.dim
    VA, VB = a.vertices, b.vertices
    # variables (u, alpha, delta), maximize delta: <v,u> - alpha + delta <= 0
    # over a's vertices, -<v,u> + alpha + delta <= 0 over b's, then the box
    # rows +-u_l <= 1, +e_l before -e_l
    box = np.zeros((2 * n, n + 2))
    box[np.arange(2 * n), np.repeat(np.arange(n), 2)] = np.tile([1.0, -1.0], n)
    A_ub = np.vstack([np.column_stack([VA, np.full(len(VA), -1.0), np.ones(len(VA))]),
                      np.column_stack([-VB, np.ones(len(VB)), np.ones(len(VB))]), box])
    b_ub = np.concatenate([np.zeros(len(VA) + len(VB)), np.ones(2 * n)])
    c = np.zeros(n + 2)
    c[-1] = -1.0
    best = None
    for k in range(n):
        for sign in (1.0, -1.0):
            A_eq = np.zeros((1, n + 2))
            A_eq[0, k] = 1.0
            res = linprog.solve_lp(c, A_ub=A_ub, b_ub=b_ub, A_eq=A_eq, b_eq=np.array([sign]))
            if res.status != "optimal":
                continue
            delta = res.x[-1]
            if best is None or delta > best[0]:
                best = (delta, res.x[:n].copy(), res.x[n])
    if best is None or best[0] < -TOL:
        return None
    delta, u, alpha = best
    nrm = np.linalg.norm(u)
    return u / nrm, float(alpha / nrm)


def vertex_set(body: ConvexBody) -> np.ndarray | None:
    """The vertices of a polytope whose vertex set is cheap, else None.

    This is where the LP-free polytope kernels are selected: a V-polytope
    gives its own vertices and an H-polytope at n <= 3 its enumerated ones
    (as_vpolytope, run once per body and kept). Balls and ellipsoids
    (closed forms) and H-polytopes at n >= 4 (the simplex) return None.
    """
    if isinstance(body, VPolytope):
        return body.vertices
    if isinstance(body, HPolytope) and body.dim <= 3:
        return body._vpolytope.vertices
    return None


def polytope_hull(body: ConvexBody):
    """The convex hull of a polytope's vertex_set, built once per body and kept.

    planar_hull at n = 2 and Qhull (qhull) at n = 3 and above; an H-polytope
    at n <= 3 keeps the hull of its vertex enumeration. None for balls and
    ellipsoids, H-polytopes at n >= 4, flat vertex sets and n = 1 (an
    interval; see _hull_equations).
    """
    if isinstance(body, HPolytope) and body.dim <= 3:
        body = body._vpolytope
    return body._hull if isinstance(body, VPolytope) else None


def axis_box(body: ConvexBody) -> tuple[np.ndarray, np.ndarray] | None:
    """The corners (lo, hi) of an H-polytope that is an axis-aligned box (2n
    halfspaces with normals +-e_k), else None."""
    if not isinstance(body, HPolytope):
        return None
    n = body.dim
    if body.normals.shape[0] != 2 * n:
        return None
    lo = np.full(n, np.nan)
    hi = np.full(n, np.nan)
    for row, off in zip(body.normals, body.offsets):
        k = int(np.argmax(np.abs(row)))
        e = np.zeros(n)
        e[k] = np.sign(row[k])
        if np.max(np.abs(row - e)) > 1e-12:
            return None
        if e[k] > 0:
            hi[k] = off
        else:
            lo[k] = -off
    if np.any(np.isnan(lo)) or np.any(np.isnan(hi)) or np.any(hi < lo):
        return None
    return lo, hi


def _support_needs_lp(body: ConvexBody) -> bool:
    """Whether the body's support is an LP (moved_support): an H-polytope
    with no vertex_set (n >= 4) that is no axis_box."""
    return isinstance(body, HPolytope) and vertex_set(body) is None and axis_box(body) is None


def affine_rank(V: np.ndarray) -> int:
    """Dimension of the affine hull of the rows of V (tolerance 1e-10)."""
    return int(np.linalg.matrix_rank(V - V.mean(axis=0), tol=1e-10))


def polygon_axes(body: HPolytope | VPolytope) -> np.ndarray:
    """The unit axes (k, 2) a polygon brings to the separating-axis test.

    A full-dimensional hull (polytope_hull) brings its outward edge normals.
    A segment brings its normal and its direction, a single point the two
    coordinate axes: flat pairs (two points, two collinear segments) are
    told apart only along those directions.
    """
    hull = polytope_hull(body)
    if hull is not None:
        return hull.equations[:, :2]
    V = vertex_set(body)
    if affine_rank(V) == 0:
        return np.eye(2)
    centered = V - V.mean(axis=0)
    d = centered[np.argmax(np.linalg.norm(centered, axis=1))]
    d = d / np.linalg.norm(d)
    return np.array([[-d[1], d[0]], d])


def separating_axis_gaps(VA: np.ndarray, VB: np.ndarray, axes: np.ndarray) -> np.ndarray:
    """Signed gap between the projections of two planar vertex sets on each axis.

    VA (..., ma, 2) and VB (..., mb, 2) broadcast over leading batch axes
    against unit axes (..., k, 2); the result is (..., k). A gap is the
    distance between the two projected intervals when they are disjoint
    and minus their overlap otherwise. By the separating axis theorem two
    convex polygons are disjoint exactly when some axis of polygon_axes of
    either one has a positive gap, and the largest gap over those axes is
    their signed separation.
    """
    axT = np.swapaxes(axes, -1, -2)
    pa = VA @ axT
    pb = VB @ axT
    return np.maximum(pb.min(axis=-2) - pa.max(axis=-2), pa.min(axis=-2) - pb.max(axis=-2))


def polygon_gaps(M: HPolytope | VPolytope, L: HPolytope | VPolytope, G: np.ndarray,
                 invG: np.ndarray, t: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(axes (B, k, 2), gaps (B, k)) of the separating-axis test of the
    polygon M against each g_b L + t_b, L a polygon (each a polytope with a
    vertex set at n = 2).

    The axes are polygon_axes of M and those of L mapped by G^-T (the edge
    normals of gL), renormalized; see separating_axis_gaps. One gap vector
    answers both questions the separation lemma asks: M and g_b L + t_b
    meet when every gap is at most TOL (batch_intersects), and a hyperplane
    separates them when the largest gap is at least -TOL
    (separating_hyperplane).
    """
    axesM, axesL = polygon_axes(M), polygon_axes(L)
    axesG = axesL @ invG
    axesG /= np.linalg.norm(axesG, axis=2, keepdims=True)
    axes = np.concatenate([np.broadcast_to(axesM, (len(t),) + axesM.shape), axesG], axis=1)
    return axes, separating_axis_gaps(vertex_set(M), vertex_set(L) @ np.swapaxes(G, 1, 2)
                                      + t[:, None, :], axes)


def quadric_frame(body: Ball | Ellipsoid) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(lin, center, inv) with body = {center + lin z : ||z|| <= 1}, inv = lin^-1."""
    if isinstance(body, Ball):
        n = body.dim
        return (body.radius * np.eye(n), body.center, np.eye(n) / body.radius)
    if isinstance(body, Ellipsoid):
        lin = body.axes * body.semiaxes
        inv = (body.axes / body.semiaxes).T
        return lin, body.center, inv
    raise TypeError("frame requires a ball or ellipsoid")


def moved_support(L: ConvexBody, G: np.ndarray, U: np.ndarray) -> np.ndarray:
    """The support h_{g_b L}(u_i) of each g_b L at each direction u_i, (B, k).

    G (B, n, n) holds the linear maps g_b and U (k, n) the directions. L's
    type picks the kernel:
    - a ball or ellipsoid {c + lin z}: <G_b c, u> + ||(G_b lin)^T u||;
    - a polytope with a vertex set V: the max over G_b V;
    - an axis-aligned H-box [lo, hi] (axis_box) at n >= 4: h_L(w) =
      sum_k max(lo_k w_k, hi_k w_k) at w = G_b^T u, which is
      <G_b c, u> + sum_k (s_k / 2) |<G_b e_k, u>| for its center c and
      sides s, and exact at the box's own corners;
    - other H-polytopes at n >= 4: the LP h_L(G_b^T u) per row and u.
    """
    if isinstance(L, (Ball, Ellipsoid)):
        lin, c, _ = quadric_frame(L)
        return (np.einsum("bij,j->bi", G, c) @ U.T
                + np.linalg.norm(U @ (G @ lin), axis=2))
    V = vertex_set(L)
    if V is not None:
        return (V @ np.swapaxes(G, 1, 2) @ U.T).max(axis=1)
    box = axis_box(L)
    if box is not None:
        w = U @ G  # (B, k, n): row i of block b is G_b^T u_i
        return np.maximum(w * box[0], w * box[1]).sum(axis=2)
    return np.array([[linprog.support_hrep(L.normals, L.offsets, g.T @ u)[0] for u in U]
                     for g in G])


def moved_boxes(L: ConvexBody, G: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The axis box of each g_b L, as centers cg (B, n) and half-widths hw (B, n).

    G (B, n, n) holds the linear maps g_b. A ball or ellipsoid {c + lin z}
    has the closed form cg = G c and hw_i = ||(G lin)_i|| (its support at
    e_i); every other body reads moved_support at the 2n directions +-e_i.
    The quadric keeps its closed form because it is faster, not only to
    keep its bits: 4096 rows at n = 3 take 0.6-0.9 ms against 1.6-2.3 ms
    through moved_support, centred or not (one BLAS thread, best of 25 on
    a 2-core Xeon), and the ball-ellipsoid chi LHS calls it twice per batch.
    """
    B, n, _ = G.shape
    if isinstance(L, (Ball, Ellipsoid)):
        lin, c, _ = quadric_frame(L)
        cg = np.einsum("bij,j->bi", G, c) if np.any(c) else np.zeros((B, n))
        return cg, np.linalg.norm(G @ lin, axis=2)
    h = moved_support(L, G, _axes(n)[1])
    lo, hi = -h[:, n:], h[:, :n]
    return 0.5 * (lo + hi), 0.5 * (hi - lo)


def box_proxy(body: ConvexBody) -> ConvexBody:
    """The body, or, where its support would be an LP per row
    (_support_needs_lp), its axis box as an H-polytope. The box contains
    the body, and moved_boxes reads the box of its image under any
    orthogonal R in closed form (axis_box) from its half-widths h as
    sum_k |R_kj| h_k, at most ||h||; the LPs of the body's own box are
    solved once, here."""
    if not _support_needs_lp(body):
        return body
    lo, hi = bounding_box(body)
    eye = np.eye(body.dim)
    return HPolytope(np.vstack([eye, -eye]), np.concatenate([hi, -lo]), validate=False)


def moved_frames(L: ConvexBody, G: np.ndarray) -> tuple[np.ndarray, np.ndarray] | None:
    """(U, s): the principal axes U_b (columns) and semiaxes s_b of each
    g_b L for a ball or ellipsoid L {c + lin z}, the singular frames of
    G_b lin (symmetric.singular_frames); None for other bodies.

    At n <= 3 that is one-sided Jacobi on the columns of G_b lin. It never
    forms the Gram matrix (G_b lin)(G_b lin)^T, whose eigendecomposition
    squares the condition number (on an ellipsoid with axis ratio 1e4 under
    Gaussian g, errors of up to 0.2% in the smallest semiaxis), and it keeps
    each semiaxis to about 1e-15 relative even across spreads of e^20, where
    LAPACK's SVD reads up to 1e-7 on Q diag(e^u). The hit test of a ball M
    (batch_intersects) and the V_j of g_b L (moved_intrinsic_volumes) read
    them; no caller needs both for the same G.
    """
    if not isinstance(L, (Ball, Ellipsoid)):
        return None
    return singular_frames(G @ quadric_frame(L)[0])


def moved_intrinsic_volumes(L: ConvexBody, G: np.ndarray) -> np.ndarray | None:
    """V_0, ..., V_n of each g_b L, (B, n + 1), or None where L has no closed form.

    G (B, n, n) holds the linear maps g_b. L's type picks the kernel:
    - a ball or ellipsoid at n <= 3: volumes.batch_ellipsoid_intrinsic_volumes
      of the semiaxes of g_b L (moved_frames);
    - a polygon (a full-dimensional vertex set at n = 2): V_1 is half the
      perimeter of g_b L, the lengths of its edges G_b e, and V_2 is
      |det G_b| area(L).
    Quadrics at n >= 4, polytopes at n >= 3 and flat polygons have none.
    """
    from .volumes import batch_ellipsoid_intrinsic_volumes

    B, n, _ = G.shape
    if isinstance(L, (Ball, Ellipsoid)):
        if n > 3:
            return None
        _, s = moved_frames(L, G)
        vj = batch_ellipsoid_intrinsic_volumes(s, range(n + 1))
        return np.column_stack([vj[j] for j in range(n + 1)])
    hull = polytope_hull(L) if n == 2 else None
    if hull is None:
        return None
    edges = hull.edges @ np.swapaxes(G, 1, 2)  # (B, k, 2): the edges of each g_b L
    half_perimeter = 0.5 * np.linalg.norm(edges, axis=2).sum(axis=1)
    return np.column_stack([np.ones(B), half_perimeter,
                            np.abs(np.linalg.det(G)) * hull.area])


def has_difference_volumes(M: ConvexBody, L: ConvexBody) -> bool:
    """Whether difference_volumes has a closed form for the pair: a ball M
    with an L whose moved V_j have one (moved_intrinsic_volumes: a ball or
    ellipsoid at n <= 3, a polygon), or a polygon M (n = 2) with any L. It
    reads the bodies' types, dimension and hulls, never a linear map."""
    n = M.dim
    if isinstance(M, Ball):
        if isinstance(L, (Ball, Ellipsoid)):
            return n <= 3
        return n == 2 and polytope_hull(L) is not None
    return n == 2 and polytope_hull(M) is not None


def rotation_invariant(body: ConvexBody) -> bool:
    """Whether every rotation k about the body's centre c maps it onto
    itself (a ball): k M is then M + (k c - c), so whatever reads M only up
    to translation does not read k."""
    return isinstance(body, Ball)


def difference_volumes(M: ConvexBody, L: ConvexBody, G: np.ndarray,
                       vj: np.ndarray | None = None) -> np.ndarray | None:
    """The parts of vol(M + (-g_b L)) by degree in g_b, (B, n + 1), for each
    linear map g_b in G (B, n, n), or None where the pair has no closed form.

    Column j is homogeneous of degree j in g_b, and the volume is the row
    sum. M meets g_b L + t exactly when t lies in M + (-g_b L), so that sum
    is the integral over t of chi(M cap (g_b L + t)): the translative
    formula (Schneider & Weil, Stochastic and Integral Geometry, sec. 6.4).
    The degrees let a caller integrate a scalar factor of g_b exactly
    (kinematic.lhs_kinematic does, for the trace of X). The pair's types
    pick the kernel:
    - M a ball of radius r: Steiner's formula, column j kappa_{n-j} r^{n-j}
      V_j(g_b L), the V_j from moved_intrinsic_volumes (or vj, (B, n + 1),
      when the caller holds them already);
    - M a polygon (n = 2), L a polygon, ball or ellipse: the columns
      area(M), sum_e len_e h_{g_b L}(-u_e) over the edges e of M with outward
      unit normals u_e (the mixed area; Schneider, Convex Bodies, sec. 5.1),
      and |det g_b| area(L).
    Every other pair (M an ellipsoid, quadrics at n >= 4, polytopes at
    n = 3, flat polygons) has None: has_difference_volumes decides.
    """
    from .volumes import kappa, volume_exact

    if not has_difference_volumes(M, L):
        return None
    B, n, _ = G.shape
    if isinstance(M, Ball):
        if vj is None:
            vj = moved_intrinsic_volumes(L, G)
        return vj * np.array([kappa(n - j) * M.radius ** (n - j) for j in range(n + 1)])
    hull = polytope_hull(M)
    eq = hull.equations
    lengths = np.hypot(hull.edges[:, 0], hull.edges[:, 1])
    mixed = moved_support(L, G, -eq[:, :2]) @ lengths
    return np.column_stack([np.full(B, hull.area), mixed,
                            np.abs(np.linalg.det(G)) * volume_exact(L)])


def check_batch_intersects(M: ConvexBody, L: ConvexBody) -> None:
    """Refuse, with ValueError, a pair batch_intersects has no kernel for: a
    ball or ellipsoid against a polytope at n >= 4, whose test needs
    polytope distances (n <= 3 only). chi is the valuation whose
    integrand is that test, and the message says so."""
    quadrics = [isinstance(body, (Ball, Ellipsoid)) for body in (M, L)]
    if M.dim >= 4 and any(quadrics) and not all(quadrics):
        raise ValueError("chi of a ball or ellipsoid against a polytope needs "
                         f"n <= 3, got n = {M.dim}")


def batch_intersects(M: ConvexBody, L: ConvexBody, G: np.ndarray, invG: np.ndarray,
                     t: np.ndarray) -> np.ndarray:
    """Whether M meets g_b L + t_b, for each row b: (B,) bool.

    G (B, n, n) holds the linear maps, invG their inverses (two balls or
    ellipsoids never read them; pass None) and t (B, n) the translations.
    The pair's types pick the kernel, with slack TOL:
    - two balls or ellipsoids: the distance from the origin to g_b L + t_b
      in M's frame (quadric_frame) is at most 1 + TOL. For a ball M that
      frame is the world's scaled by 1/r, so the principal axes of g_b L
      are moved_frames(L, G);
    - two polygons (vertex sets at n = 2): the separating-axis test, every
      gap at most TOL;
    - other pairs, after a hit sought at the midpoint of the two boxes'
      overlap (when L's box is cheap and neither body is a flat V-polytope,
      whose membership would be an LP per row):
      - a quadric and a polytope P (n <= 3): P's distance faces
        (_distance_faces), mapped row by row into the quadric's frame where
        it is the unit ball, come within 1 + TOL of the origin (a quadric
        inside P meets the midpoint test): one kernel call per block of
        rows, no body or hull per row;
      - two polytopes: the intersection LP, row by row.
    """
    B, n = t.shape
    quadric = [isinstance(body, (Ball, Ellipsoid)) for body in (M, L)]
    if all(quadric):
        _, cM, invM = quadric_frame(M)
        linL, _, _ = quadric_frame(L)
        cg, _ = moved_boxes(L, G)
        c2 = np.einsum("ij,bj->bi", invM, cg + t - cM)
        if isinstance(M, Ball):
            U2, S2 = moved_frames(L, G)
            S2 = S2 / M.radius
        else:
            U2, S2 = singular_frames(np.einsum("ij,bjk->bik", invM, G @ linL))
        P = -np.einsum("bji,bj->bi", U2, c2)
        return centered_ellipsoid_distance(P, S2) <= 1.0 + TOL
    if n == 2 and vertex_set(M) is not None and vertex_set(L) is not None:
        return np.all(polygon_gaps(M, L, G, invG, t)[1] <= TOL, axis=1)

    hit = np.zeros(B, dtype=bool)
    # a flat V-polytope has no facets, so its membership would be an LP per row
    flat = [isinstance(body, VPolytope) and _hull_equations(body) is None for body in (M, L)]
    if (quadric[1] or vertex_set(L) is not None) and not any(flat):
        # the midpoint of the boxes' overlap, when it lies in both bodies,
        # settles a hit without a distance or an LP
        loM, hiM = bounding_box(M)
        cg, hw = moved_boxes(L, G)
        center = cg + t
        mid = 0.5 * (np.maximum(loM, center - hw) + np.minimum(hiM, center + hw))
        hit = (contains_points(M, mid)
               & contains_points(L, np.einsum("bij,bj->bi", invG, mid - t)))
    rest = np.flatnonzero(~hit)
    if not any(quadric):
        hit[rest] = [_polytopes_intersect_lp(M, affine_image(L, AffineMap(G[b], t[b])))
                     for b in rest]
        return hit
    # the polytope P's distance faces in the quadric's frame, x |-> A_b x +
    # off_b, where the quadric is the unit ball. A quadric inside P needs
    # no containment test: the boxes' overlap is then the quadric's box,
    # whose midpoint, its centre, lies in both, so the shortcut found it
    P = L if quadric[0] else M
    if vertex_set(P) is None:
        raise NotImplementedError("polytope distance supported for n <= 3")
    kernel, faces, _ = (P._vpolytope if isinstance(P, HPolytope) else P)._faces
    if quadric[0]:
        _, c, inv = quadric_frame(M)
        A = inv @ G[rest]
        off = (t[rest] - c) @ inv.T
    else:
        _, c, inv = quadric_frame(L)
        A = inv @ invG[rest]
        off = -np.einsum("bij,bj->bi", A, t[rest]) - inv @ c
    AT = np.swapaxes(A, 1, 2)
    step = max(1, _BLOCK_ENTRIES // faces.size)
    for s in range(0, rest.size, step):
        b = slice(s, s + step)
        mapped = (faces.reshape(-1, n) @ AT[b] + off[b, None, :]).reshape((-1,) + faces.shape)
        hit[rest[b]] = kernel(mapped, np.zeros((len(mapped), 1, n)))[:, 0] <= 1.0 + TOL
    return hit


def batch_flat_hits(body: ConvexBody, basis: np.ndarray, offset: np.ndarray) -> np.ndarray:
    """Whether each affine flat offset_b + span(basis_b) meets the body: (m,) bool.

    basis (m, n, j) holds orthonormal columns and offset (m, n) a point of
    each flat. The flat's dimension and the body's type pick the kernel:
    - j = n: every flat; j = 0: contains_points at the offsets;
    - hyperplanes (j = n - 1) of a body whose support needs no LP (a ball
      or ellipsoid, a polytope with a vertex_set, an axis_box): <offset, nu>
      lies in the support interval [-h(-nu), h(nu)] (moved_support with
      g = I) widened by TOL, nu the unit normal (_hyperplane_normals);
    - other flats of a ball or ellipsoid {c + lin z : ||z|| <= 1}: in z
      coordinates the flat's point of least gauge is the offset minus its
      projection on the directions lin^-1 basis, orthonormalized by
      Gram-Schmidt over the whole batch (no QR per flat); the flat hits
      when that point, mapped back, passes contains_points, with its slack;
    - the other polytope flats (lines in 3-D, and flats of H-polytopes at
      n >= 4 that are not axis boxes): one LP per flat (_flat_hits_lp).
    """
    m, n, j = basis.shape
    if j == n:
        return np.ones(m, dtype=bool)
    if j == 0:
        return contains_points(body, offset)
    if j == n - 1 and not _support_needs_lp(body):
        nu = _hyperplane_normals(basis)
        h = moved_support(body, _axes(n)[0], np.vstack([nu, -nu]))[0]
        s = np.einsum("bi,bi->b", offset, nu)
        return (-h[m:] - TOL <= s) & (s <= h[:m] + TOL)
    if isinstance(body, (Ball, Ellipsoid)):
        lin, c, inv = quadric_frame(body)
        z = (offset - c) @ inv.T
        Q = []
        for i in range(j):
            w = basis[:, :, i] @ inv.T
            for q in Q:
                w = w - _dot(q, w)[:, None] * q
            Q.append(w / np.sqrt(_dot(w, w))[:, None])
            z = z - _dot(Q[-1], z)[:, None] * Q[-1]
        return contains_points(body, c + z @ lin.T)
    return np.array([_flat_hits_lp(body, U, o) for U, o in zip(basis, offset)], dtype=bool)


def _hyperplane_normals(U: np.ndarray) -> np.ndarray:
    """Unit normals (m, n) of the hyperplanes spanned by the orthonormal
    bases U (m, n, n - 1): at n = 2 the basis vector turned by 90 degrees,
    at n = 3 the cross product of the two basis vectors, at n >= 4 the last
    right singular vector of each U^T (LAPACK). The hit test is the same
    for nu and -nu, so the sign is free."""
    n = U.shape[1]
    if n == 2:
        return np.column_stack([-U[:, 1, 0], U[:, 0, 0]])
    if n == 3:
        return np.cross(U[:, :, 0], U[:, :, 1])
    return np.linalg.svd(np.swapaxes(U, 1, 2))[2][:, -1]


def _flat_hits_lp(body: HPolytope | VPolytope, U: np.ndarray, off: np.ndarray) -> bool:
    """Whether the flat off + span(U) meets a polytope, as an LP feasibility."""
    n, j = U.shape
    if isinstance(body, HPolytope):
        return linprog.feasible(body.normals @ U, body.offsets - body.normals @ off) is not None
    V = body.vertices
    m = V.shape[0]
    # convex weights w and flat coordinates s with V^T w = off + U s
    A_eq = np.zeros((n + 1, m + 2 * j))
    A_eq[:n, :m] = V.T
    A_eq[:n, m:m + j] = -U
    A_eq[:n, m + j:] = U
    A_eq[n, :m] = 1.0
    b_eq = np.concatenate([off, [1.0]])
    return linprog.feasible(None, None, nonneg=True, A_eq=A_eq, b_eq=b_eq) is not None


def intersects(a: ConvexBody, b: ConvexBody) -> bool:
    """Whether two bodies meet: batch_intersects on one row with g = I, t = 0."""
    eye = np.eye(a.dim)[None]
    return bool(batch_intersects(a, b, eye, eye, np.zeros((1, a.dim)))[0])


def _polytopes_intersect_lp(a: HPolytope | VPolytope, b: HPolytope | VPolytope) -> bool:
    """The LP route of intersects for two polytopes, in any dimension."""
    if isinstance(a, VPolytope) and isinstance(b, HPolytope):
        a, b = b, a
    if isinstance(a, HPolytope) and isinstance(b, HPolytope):
        # the stacked system is feasible: a signed margin of at least -TOL,
        # or a feasible point where the margin LP fails
        normals = np.vstack([a.normals, b.normals])
        offsets = np.concatenate([a.offsets, b.offsets])
        res = linprog.signed_margin(normals, offsets)
        if res is not None:
            return not res[0] < -TOL
        return linprog.feasible(normals, offsets) is not None
    if isinstance(a, HPolytope) and isinstance(b, VPolytope):
        W = b.vertices
        m = W.shape[0]
        A_ub = np.hstack([a.normals @ W.T])  # rows: N (V^T w) <= o
        A_eq = np.ones((1, m))
        return linprog.feasible(A_ub, a.offsets, nonneg=True,
                                A_eq=A_eq, b_eq=np.array([1.0])) is not None
    V, W = a.vertices, b.vertices
    ma, mb = V.shape[0], W.shape[0]
    n = a.dim
    A_eq = np.zeros((n + 2, ma + mb))
    A_eq[:n, :ma] = V.T
    A_eq[:n, ma:] = -W.T
    A_eq[n, :ma] = 1.0
    A_eq[n + 1, ma:] = 1.0
    b_eq = np.concatenate([np.zeros(n), [1.0, 1.0]])
    return linprog.feasible(None, None, nonneg=True, A_eq=A_eq, b_eq=b_eq) is not None


# ---------------------------------------------------------------------------
# distances

# the polytope distance kernels take this many face entries times points (or
# rows) at a time, so each (points x faces x 3 x n) temporary stays near a
# megabyte
_BLOCK_ENTRIES = 1 << 17

# Newton on the secular equation: step cap and relative stopping step
_NEWTON_STEPS = 100
_NEWTON_TOL = 4.0 * np.finfo(float).eps


def distance_to_body(body: ConvexBody, points: np.ndarray) -> np.ndarray:
    """Euclidean distance from each point to the body (0 for interior points).

    Balls are analytic, ellipsoids use Newton's method on the Lagrange
    multiplier of the closest-point problem, and polytopes (n <= 3) read
    the distance to their distance faces (_distance_faces) in one broadcast
    kernel, _edge_distance or _triangle_distance, with interior points at 0.
    """
    points = np.atleast_2d(np.asarray(points, dtype=float))
    if isinstance(body, Ball):
        return np.maximum(np.linalg.norm(points - body.center, axis=1) - body.radius, 0.0)
    if isinstance(body, Ellipsoid):
        return centered_ellipsoid_distance((points - body.center) @ body.axes,
                                           body.semiaxes)
    if isinstance(body, VPolytope):
        return _vpolytope_distance(body, points)
    if isinstance(body, HPolytope):
        return _vpolytope_distance(body._vpolytope, points)
    raise TypeError(f"unsupported body {type(body).__name__}")


def centered_ellipsoid_distance(P: np.ndarray, semiaxes: np.ndarray) -> np.ndarray:
    """Distance from each row of P to the ellipsoid sum_i (x_i / a_i)^2 <= 1.

    P holds points in the ellipsoid's principal frame, relative to its
    center. semiaxes is one (n,) vector for every row or an (m, n) array
    with one ellipsoid per row. Outside points solve for the Lagrange
    multiplier mu of the closest-point problem, the root of the secular
    equation f(mu) = sum_i a_i^2 q_i^2 / (a_i^2 + mu)^2 - 1 (Eberly,
    "Distance from a point to an ellipse, an ellipsoid, or a
    hyperellipsoid", Geometric Tools 2013). f is convex and decreasing, so
    Newton steps from a lower bound rise monotonically to the root. The
    start is the largest of 0, |a q| - max a_i^2 (the sum is at least
    |a q|^2 / (max a_i^2 + mu)^2) and max_i (a_i |q_i| - a_i^2) (no single
    term exceeds 1); the last keeps the step count flat in the axis ratio
    (at most 19 steps on random axis ratios up to e^60 and n <= 8). A row
    stops once its step falls below 4 eps mu. A row that has not stopped
    after _NEWTON_STEPS steps, or whose distance is not finite (NaN input),
    raises FloatingPointError, which the command line reports with exit
    code 3.
    """
    S = np.broadcast_to(semiaxes, P.shape)
    a2 = S**2
    gauge2 = np.einsum("ij,ij->i", P * P, 1.0 / a2)
    out = np.zeros(P.shape[0])
    # NaN rows go through the solver too, so the checks below see them
    mask = ~(gauge2 <= 1.0)
    if not np.any(mask):
        return out
    Q = P[mask]
    A2 = a2[mask]
    C = A2 * Q * Q
    mu = np.maximum(np.sqrt(C.sum(axis=1)) - A2.max(axis=1),
                    np.max(np.sqrt(C) - A2, axis=1)).clip(0.0)
    live = np.arange(Q.shape[0])
    for _ in range(_NEWTON_STEPS):
        w = 1.0 / (A2[live] + mu[live, None])
        r = C[live] * w * w
        step = (r.sum(axis=1) - 1.0) / (2.0 * np.einsum("ij,ij->i", r, w))
        rising = step > 0.0
        mu[live[rising]] += step[rising]
        live = live[~(step < _NEWTON_TOL * mu[live])]
        if live.size == 0:
            break
    else:
        raise FloatingPointError(
            f"ellipsoid distance: {live.size} rows did not converge in "
            f"{_NEWTON_STEPS} Newton steps")
    diff = mu[:, None] * Q / (A2 + mu[:, None])
    out[mask] = np.linalg.norm(diff, axis=1)
    if not np.all(np.isfinite(out)):
        raise FloatingPointError("ellipsoid distance is not finite")
    return out


def _hull_equations(body: VPolytope) -> np.ndarray | None:
    """Facet equations [normal | offset] with <n,x> + offset <= 0 inside, from
    the kept hull (polytope_hull), or None for a flat vertex set. A segment
    in R^1 has the two end points as facets, so its membership is an
    interval test."""
    V = body.vertices
    if body.dim == 1:  # a repeated point is flat too
        return np.array([[1.0, -V.max()], [-1.0, V.min()]]) if V.min() < V.max() else None
    hull = polytope_hull(body)
    return None if hull is None else hull.equations


def _dot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """sum_i a_i b_i over the last axis, broadcast, added in ascending i: at
    n = 2 the rounding of a[..., 0] * b[..., 0] + a[..., 1] * b[..., 1]."""
    out = a[..., 0] * b[..., 0]
    for i in range(1, a.shape[-1]):
        out = out + a[..., i] * b[..., i]
    return out


def _edge_distance(ring: np.ndarray, points: np.ndarray) -> np.ndarray:
    """Distance from each point to the closed polygonal ring through ring's rows.

    ring (..., k, n) and points (..., p, n) broadcast over leading batch
    axes, in any dimension n; the result is (..., p). Every point meets
    every edge in one broadcast, at the nearest point of the segment, or
    its start when the edge is shorter than 1e-15. A ring of two rows is a
    segment (its edge twice) and a ring of one row a point.
    """
    p0 = ring[..., None, :, :]  # (..., 1, k, n)
    d = np.roll(ring, -1, axis=-2)[..., None, :, :] - p0
    x = points[..., :, None, :]  # (..., p, 1, n)
    denom = _dot(d, d)
    short = denom < 1e-30
    t = np.clip(_dot(x - p0, d) / np.where(short, 1.0, denom), 0.0, 1.0)
    foot = p0 + np.where(short, 0.0, t)[..., None] * d
    return np.linalg.norm(x - foot, axis=-1).min(axis=-1)


def _triangle_distance(tris: np.ndarray, points: np.ndarray) -> np.ndarray:
    """Distance from each point to the union of triangles in R^3.

    tris (..., f, 3, 3) and points (..., p, 3) broadcast over leading batch
    axes, as _edge_distance's rings do; the result is (..., p). A point
    whose foot on a triangle's plane has barycentric coordinates within
    1e-12 of the triangle is its height over that plane away from it; any
    other point, and every point for a triangle whose normal is shorter
    than 1e-15 (a degenerate one), takes the distance to the triangle's
    three edges (_edge_distance).
    """
    a, b, c = (tris[..., None, :, i, :] for i in range(3))  # (..., 1, f, 3)
    v0, v1 = b - a, c - a
    w = points[..., :, None, :] - a  # (..., p, f, 3)
    nrm = np.cross(v0, v1)
    nn = _dot(nrm, nrm)  # = |v0|^2 |v1|^2 - (v0 . v1)^2
    flat = nn < 1e-30
    nn = np.where(flat, 1.0, nn)
    height = _dot(w, nrm) / np.sqrt(nn)
    v2 = w - (height / np.sqrt(nn))[..., None] * nrm  # the foot, relative to a
    d00, d01, d11 = _dot(v0, v0), _dot(v0, v1), _dot(v1, v1)
    d20, d21 = _dot(v2, v0), _dot(v2, v1)
    s = (d11 * d20 - d01 * d21) / nn
    t = (d00 * d21 - d01 * d20) / nn
    inside = ~flat & (s >= -1e-12) & (t >= -1e-12) & (s + t <= 1 + 1e-12)
    edges = np.swapaxes(_edge_distance(tris, points[..., None, :, :]), -1, -2)
    return np.where(inside, np.abs(height), edges).min(axis=-1)


def _distance_faces(body: VPolytope):
    """(kernel, faces, solid): a polytope's distance faces (n <= 3) and the
    broadcast kernel that reads them, _edge_distance or _triangle_distance.

    The faces cover the boundary of a full-dimensional polytope, whose
    interior points are at 0 (solid), and the whole of a flat one:
    - a full polygon: its kept hull's ring (polytope_hull);
    - a full 3-D polytope: the kept hull's triangles (Qhull's simplices);
    - a flat polygon in R^3: the fan over its planar hull;
    - an interval at n = 1 and any collinear set: the segment between its
      ends (_segment_ends), a ring of two rows;
    - a single point: a ring of one row.
    The affine rank is affine_rank's (tolerance 1e-10); a rank-3 set whose
    hull Qhull finds flat raises ValueError.
    """
    V = body.vertices
    n = body.dim
    if n > 3:
        raise NotImplementedError("polytope distance supported for n <= 3")
    rank = affine_rank(V)
    hull = polytope_hull(body) if rank == n else None
    if rank == 0:
        return _edge_distance, V[:1], False
    if rank == 3:
        if hull is None:
            raise ValueError("Qhull finds this rank-3 vertex set flat")
        return _triangle_distance, V[hull.simplices], True
    if rank == 2 and hull is not None:
        return _edge_distance, hull.points, True
    if rank == 2 and n == 3:  # a flat polygon
        centered = V - V.mean(axis=0)
        _, _, vt = np.linalg.svd(centered, full_matrices=False)
        hull = planar_hull(centered @ vt[:2].T)
        if hull is not None:
            o = hull.vertices
            return _triangle_distance, V[np.column_stack([np.full(len(o) - 2, o[0]),
                                                          o[1:-1], o[2:]])], False
    # a segment, or a planar set the hull finds flat up to rounding
    return _edge_distance, _segment_ends(V), False


def _vpolytope_distance(body: VPolytope, points: np.ndarray) -> np.ndarray:
    """Distance from each point to the polytope (n <= 3): 0 inside a solid
    one (contains_points), else the distance to its faces (_distance_faces,
    kept), one kernel call per block of points."""
    kernel, faces, solid = body._faces
    step = max(1, _BLOCK_ENTRIES // faces.size)
    dist = np.concatenate([kernel(faces, points[s:s + step])
                           for s in range(0, max(len(points), 1), step)])
    return np.where(contains_points(body, points), 0.0, dist) if solid else dist


# ---------------------------------------------------------------------------
# Minkowski sums, conversions


def polygon_ring(body: HPolytope | VPolytope) -> np.ndarray:
    """The boundary of a planar polytope as a counter-clockwise ring, (k, 2).

    A full-dimensional hull (polytope_hull) gives its corners; a flat vertex
    set gives its two extreme points (a segment) or its one point.
    """
    hull = polytope_hull(body)
    if hull is not None:
        return hull.points
    V = vertex_set(body)
    return V[:1] if affine_rank(V) == 0 else _segment_ends(V)


def _segment_ends(V: np.ndarray) -> np.ndarray:
    """The two extreme rows of a vertex set along its longest direction from
    the centroid: the end points of a collinear set."""
    centered = V - V.mean(axis=0)
    proj = centered @ centered[np.argmax(np.linalg.norm(centered, axis=1))]
    return V[[np.argmin(proj), np.argmax(proj)]]


def minkowski_rings(P: np.ndarray, Q: np.ndarray) -> np.ndarray:
    """The boundary rings of the Minkowski sums P_b + Q_b of convex polygons,
    by merging their edges by angle (de Berg et al., Computational Geometry,
    3rd ed., sec. 13.3).

    P (..., m, 2) and Q (..., l, 2) are counter-clockwise rings
    (polygon_ring) that broadcast over leading batch axes. A ring of one
    point has no edges and a segment's two points have two, e and -e. The
    result (..., m' + l', 2), m' and l' the edge counts (one point when both
    are 0), runs counter-clockwise from the sum of the rings' topmost points
    (where their edges of least angle start) and takes one edge at a time
    in order of angle, so each row is an exact sum P[i] + Q[j]. Parallel
    edges leave a point on a straight turn; minkowski_sum_vpolytopes drops
    them.
    """
    batch = np.broadcast_shapes(P.shape[:-2], Q.shape[:-2])
    P = np.broadcast_to(P, batch + P.shape[-2:])
    Q = np.broadcast_to(Q, batch + Q.shape[-2:])
    starts, angles = [], []
    for R in (P, Q):
        if R.shape[-2] == 1:
            starts.append(np.zeros(batch + (1,), dtype=int))
            angles.append(np.zeros(batch + (0,)))
            continue
        e = np.roll(R, -1, axis=-2) - R
        ang = np.arctan2(e[..., 1], e[..., 0])
        s = np.argmin(ang, axis=-1)[..., None]
        starts.append(s)
        # the edges from the one of least angle on: their angles ascend
        roll = (s + np.arange(R.shape[-2])) % R.shape[-2]
        angles.append(np.take_along_axis(ang, roll, axis=-1))
    m = angles[0].shape[-1]
    if m + angles[1].shape[-1] == 0:
        return P + Q
    order = np.argsort(np.concatenate(angles, axis=-1), axis=-1, kind="stable")
    from_p = order < m
    steps_p = np.cumsum(from_p, axis=-1) - from_p  # P's edges taken before each point
    steps_q = np.arange(order.shape[-1]) - steps_p
    i = (starts[0] + steps_p) % P.shape[-2]
    j = (starts[1] + steps_q) % Q.shape[-2]
    return (np.take_along_axis(P, i[..., None], axis=-2)
            + np.take_along_axis(Q, j[..., None], axis=-2))


def minkowski_sum_vpolytopes(a: VPolytope, b: VPolytope) -> VPolytope:
    """Hull of all pairwise vertex sums.

    In the plane it is the edge merge minkowski_rings of the two
    polygon_rings, a batch of one, with its straight turns dropped at
    planar_hull's tolerance (_HULL_ULPS) and rotated to start at the
    lexicographic minimum (x, then y): the corners of planar_hull of all
    pairwise sums, exact sums in the same order. The sum keeps that ring as
    its hull. In other dimensions it is Qhull (qhull) of the pairwise sums.
    """
    if a.dim == 2:
        R = minkowski_rings(polygon_ring(a), polygon_ring(b))
        if len(R) >= 3:
            o, c, nxt = np.roll(R, 1, axis=0), R, np.roll(R, -1, axis=0)
            cross = ((c[:, 0] - o[:, 0]) * (nxt[:, 1] - o[:, 1])
                     - (c[:, 1] - o[:, 1]) * (nxt[:, 0] - o[:, 0]))
            R = R[cross > _straight_turn_tol(R)]
        if len(R) >= 3:
            out = VPolytope(np.roll(R, -int(np.lexsort((R[:, 1], R[:, 0]))[0]), axis=0))
            out._hull = PlanarHull(vertices=np.arange(len(R)), points=out.vertices)
            return out
    sums = (a.vertices[:, None, :] + b.vertices[None, :, :]).reshape(-1, a.dim)
    hull = None if a.dim == 2 else qhull(sums)
    if hull is None:
        return VPolytope(np.unique(np.round(sums, 12), axis=0))
    return VPolytope(sums[hull.vertices])


def as_vpolytope(body: HPolytope) -> VPolytope:
    """Vertex enumeration for n <= 3 by solving all n-row subsystems.

    The C(m, n) subsystems are stacked in combination order and go through
    one det and one solve; the feasible, nonsingular solutions, deduplicated
    in that order, are the vertices.
    """
    N, o = body.normals, body.offsets
    m, n = N.shape
    if n > 3:
        raise NotImplementedError("vertex enumeration supported for n <= 3")
    idx = np.array(list(combinations(range(m), n)), dtype=int).reshape(-1, n)
    subs = N[idx]
    ok = np.abs(np.linalg.det(subs)) >= 1e-12
    x = np.linalg.solve(subs[ok], o[idx[ok]][..., None])[..., 0]
    arr = x[np.all(x @ N.T <= o + 1e-7, axis=1)]
    if not len(arr):
        raise ValueError("halfspace system yielded no vertices")
    _, keep = np.unique(np.round(arr, 9), axis=0, return_index=True)
    return VPolytope(arr[sorted(keep)])


def random_polytope(n: int, k: int, rng: np.random.Generator,
                    radius: float = 1.0, center=None) -> VPolytope:
    """Hull of k points drawn uniformly from a ball, handy for randomized tests."""
    z = rng.standard_normal((k, n))
    z /= np.linalg.norm(z, axis=1, keepdims=True)
    r = radius * rng.random(k) ** (1.0 / n)
    pts = z * r[:, None]
    if center is not None:
        pts = pts + np.asarray(center, dtype=float)
    hull = planar_hull(pts) if n == 2 else qhull(pts)
    return VPolytope(pts if hull is None else pts[hull.vertices])


# ---------------------------------------------------------------------------
# serialization


def body_to_dict(body: ConvexBody) -> dict:
    if isinstance(body, Ball):
        return {"type": "ball", "center": body.center.tolist(), "radius": body.radius}
    if isinstance(body, Ellipsoid):
        return {"type": "ellipsoid", "center": body.center.tolist(),
                "axes": body.axes.T.tolist(), "semiaxes": body.semiaxes.tolist()}
    if isinstance(body, HPolytope):
        return {"type": "hpolytope", "normals": body.normals.tolist(),
                "offsets": body.offsets.tolist()}
    if isinstance(body, VPolytope):
        return {"type": "vpolytope", "vertices": body.vertices.tolist()}
    raise TypeError(f"unsupported body {type(body).__name__}")


def body_from_dict(data: dict) -> ConvexBody:
    """Inverse of body_to_dict; raises ValueError on malformed input, and on
    any entry that is not finite (JSON's Infinity and NaN, or 1e400).

    Ellipsoid "axes" is the list of principal axis vectors (rows of the JSON
    array), matching body_to_dict.
    """
    if not isinstance(data, dict) or "type" not in data:
        raise ValueError("body description must be a dict with a 'type' key")
    kind = data["type"]
    fields = {"ball": ("center", "radius"), "ellipsoid": ("center", "axes", "semiaxes"),
              "hpolytope": ("normals", "offsets"), "vpolytope": ("vertices",)}
    if not isinstance(kind, str) or kind not in fields:
        raise ValueError(f"unknown body type {kind!r}")
    try:
        v = {key: np.array(data[key], dtype=float) for key in fields[kind]}
    except (KeyError, TypeError) as exc:
        raise ValueError(f"malformed {kind} description: {exc}") from exc
    for key, arr in v.items():
        if not np.all(np.isfinite(arr)):
            raise ValueError(f"{kind} {key} must be finite")
    if kind == "ball":
        if v["radius"].ndim != 0:
            raise ValueError("malformed ball description: radius must be a number")
        return Ball(v["center"], float(v["radius"]))
    if kind == "ellipsoid":
        return Ellipsoid(v["center"], v["axes"].T, v["semiaxes"])
    if kind == "hpolytope":
        return HPolytope(v["normals"], v["offsets"])
    return VPolytope(v["vertices"])


def load_body(path: str) -> ConvexBody:
    with open(path) as fh:
        return body_from_dict(json.load(fh))


def unit_ball(n: int) -> Ball:
    return Ball(np.zeros(n), 1.0)


def cube(n: int, side: float = 1.0, centered: bool = False) -> HPolytope:
    """Axis-aligned cube [0, side]^n, or [-side/2, side/2]^n when centered."""
    normals = np.vstack([np.eye(n), -np.eye(n)])
    if centered:
        offsets = np.full(2 * n, side / 2.0)
    else:
        offsets = np.concatenate([np.full(n, side), np.zeros(n)])
    return HPolytope(normals, offsets, validate=False)
