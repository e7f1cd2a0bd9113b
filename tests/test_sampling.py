import ast
import math
from pathlib import Path

import numpy as np
import pytest

from intgeo import bodies as bd
from intgeo import sampling
from intgeo.sampling import (AffineFlat, GroupElement, flat_hits, flat_weight,
                             sample_affine_flat, sample_group_element,
                             translation_region)
from intgeo.symmetric import expm_sym
from intgeo.volumes import kappa


def test_translation_region_balls():
    # M = B^2, moved = diag(e, 1) B^2: box is [-(1+e), 1+e] x [-2, 2]
    M = bd.unit_ball(2)
    moved = bd.Ellipsoid([0.0, 0.0], np.eye(2), [math.e, 1.0])
    lo, hi = translation_region(M, moved)
    np.testing.assert_allclose(lo, [-(1.0 + math.e), -2.0], atol=1e-12)
    np.testing.assert_allclose(hi, [1.0 + math.e, 2.0], atol=1e-12)


def test_translation_region_covers_contact_set():
    # every t with M meeting (moved + t) must lie in the box
    rng = np.random.default_rng(0)
    M = bd.VPolytope([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    moved = bd.Ball([0.3, -0.2], 0.7)
    lo, hi = translation_region(M, moved)
    for _ in range(300):
        t = rng.uniform(-3, 3, size=2)
        shifted = bd.Ball(moved.center + t, moved.radius)
        if bd.intersects(M, shifted):
            assert np.all(t >= lo - 1e-9) and np.all(t <= hi + 1e-9)


def test_group_element_affine_map():
    rng = np.random.default_rng(1)
    k = np.array([[0.0, -1.0], [1.0, 0.0]])
    X = np.array([[0.5, 0.1], [0.1, -0.3]])
    t = np.array([1.0, 2.0])
    g = GroupElement(k, X, t)
    np.testing.assert_allclose(g.linear, k @ expm_sym(X), atol=1e-12)
    amap = g.as_affine_map()
    x = rng.standard_normal(2)
    np.testing.assert_allclose(amap(x), g.linear @ x + t, atol=1e-12)


def test_sample_group_element_compact_pins_symmetric_part():
    rng = np.random.default_rng(2)
    M = bd.unit_ball(2)
    g, vol = sample_group_element(M, M, rng, component="special", compact=True)
    assert np.all(g.X == 0.0)
    np.testing.assert_allclose(g.linear @ g.linear.T, np.eye(2), atol=1e-10)
    # rigid images of B^2 keep the translation box at [-2, 2]^2
    assert abs(vol - 16.0) < 1e-9


def test_sample_group_element_contact_consistency():
    # for sampled g the translation landed inside the box, so chi can be 1
    rng = np.random.default_rng(3)
    M = bd.unit_ball(2)
    L = bd.Ellipsoid([0.0, 0.0], np.eye(2), [2.0, 0.5])
    hits = 0
    for _ in range(50):
        g, vol = sample_group_element(M, L, rng)
        assert vol > 0.0
        moved = bd.affine_image(L, g.as_affine_map())
        hits += bd.intersects(M, moved)
    assert 0 < hits < 50


def test_sample_affine_flat_geometry():
    rng = np.random.default_rng(4)
    for n, j in ((2, 1), (3, 1), (3, 2), (4, 2)):
        flat = sample_affine_flat(n, j, rng, window_radius=2.5)
        U, off = flat.basis, flat.offset
        np.testing.assert_allclose(U.T @ U, np.eye(j), atol=1e-10)
        np.testing.assert_allclose(U.T @ off, np.zeros(j), atol=1e-9)
        assert np.linalg.norm(off) <= 2.5 + 1e-12
    with pytest.raises(ValueError):
        sample_affine_flat(3, 4, rng, window_radius=1.0)
    with pytest.raises(ValueError):
        sample_affine_flat(3, 1, rng, window_radius=0.0)


def test_flat_offsets_fill_the_window_uniformly():
    # offset radius^(n-j) should be uniform for the j-flat measure
    rng = np.random.default_rng(5)
    rs = []
    for _ in range(4000):
        flat = sample_affine_flat(3, 1, rng, window_radius=1.0)
        rs.append(np.linalg.norm(flat.offset))
    u = np.array(rs) ** 2  # d = n - j = 2
    from scipy.stats import kstest

    assert kstest(u, "uniform").pvalue > 0.01


def test_point_flats_draw_no_rotation(monkeypatch):
    # a point's offset is a normalized Gaussian direction times R U^(1/n):
    # isotropic already, so no Haar matrix is drawn; its radius^n is uniform
    def no_haar(*args, **kwargs):
        raise AssertionError("a point flat drew a Haar matrix")

    monkeypatch.setattr(sampling, "sample_haar_orthogonal", no_haar)
    flats = sample_affine_flat(3, 0, np.random.default_rng(8), window_radius=2.0,
                               size=4000)
    assert flats.basis.shape == (4000, 3, 0)
    r = np.linalg.norm(flats.offset, axis=1)
    assert r.max() <= 2.0 + 1e-12
    from scipy.stats import kstest

    assert kstest((r / 2.0) ** 3, "uniform").pvalue > 0.01
    one = sample_affine_flat(2, 0, np.random.default_rng(8), window_radius=1.0)
    assert one.basis.shape == (2, 0) and one.offset.shape == (2,)


def test_flat_weight():
    assert abs(flat_weight(3, 1, 2.0) - kappa(2) * 4.0) < 1e-12
    assert abs(flat_weight(2, 2, 5.0) - 1.0) < 1e-12  # kappa_0 = 1


def test_flat_hits_ball():
    ball = bd.unit_ball(2)
    e1 = np.array([[1.0], [0.0]])
    hit = AffineFlat(e1, np.array([0.0, 0.5]))
    miss = AffineFlat(e1, np.array([0.0, 1.5]))
    assert flat_hits(ball, hit)
    assert not flat_hits(ball, miss)
    # full-dimensional flat always hits
    assert flat_hits(ball, AffineFlat(np.eye(2), np.zeros(2)))


def test_flat_hits_point_flat_is_membership():
    ball = bd.Ball([1.0, 0.0], 0.5)
    inside = AffineFlat(np.zeros((2, 0)), np.array([1.2, 0.0]))
    outside = AffineFlat(np.zeros((2, 0)), np.array([0.0, 0.0]))
    assert flat_hits(ball, inside)
    assert not flat_hits(ball, outside)


def test_flat_hits_ellipsoid_and_polytopes_agree_with_sampling():
    # brute force: discretize the line and compare membership hits
    rng = np.random.default_rng(6)
    bodies = [bd.Ellipsoid([0.2, -0.1], np.eye(2), [1.5, 0.6]),
              bd.cube(2, side=1.6, centered=True),
              bd.VPolytope([[0.0, 0.0], [1.0, 0.2], [0.4, 1.1]])]
    ts = np.linspace(-6.0, 6.0, 12001)
    for body in bodies:
        for _ in range(40):
            flat = sample_affine_flat(2, 1, rng, window_radius=2.0)
            pts = flat.offset[None, :] + ts[:, None] * flat.basis[:, 0][None, :]
            brute = bool(np.any(bd.contains_points(body, pts, tol=0.0)))
            got = flat_hits(body, flat)
            if got != brute:
                # grid may miss grazing hits; verify via distance to the line
                assert got  # flat_hits may only disagree by being more exact


@pytest.mark.parametrize("module", ["weyl", "kinematic"])
def test_only_sampling_forms_shift_means(module):
    # the lattice estimates of both consumers are read by sampling.ShiftSums
    path = Path(sampling.__file__).with_name(f"{module}.py")
    tree = ast.parse(path.read_text())
    calls = {node.func.attr if isinstance(node.func, ast.Attribute) else
             getattr(node.func, "id", None)
             for node in ast.walk(tree) if isinstance(node, ast.Call)}
    imported = {a.name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
                for a in node.names}
    assert "bincount" not in calls
    assert not imported & {"shift_counts", "shift_mean"}


def test_sampling_holds_measures_and_draws_only():
    # the body types pick their kernels in bodies and nowhere else: this
    # module imports no linear programs and names no body type
    tree = ast.parse(Path(sampling.__file__).read_text())
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            names.update((node.module or "").split(".") + [a.name for a in node.names])
        elif isinstance(node, ast.Import):
            names.update(part for a in node.names for part in a.name.split("."))
    assert "linprog" not in names
    assert not names & {"Ball", "Ellipsoid", "HPolytope", "VPolytope", "vertex_set"}
