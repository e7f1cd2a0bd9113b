import math

import numpy as np
import pytest
from replicates import QUADRATURE_C

from intgeo import sampling, weyl
from intgeo.estimation import z_score
from intgeo.weyl import (ESS_FLOOR, ROUTES, WEYL_MAX_N, EssFloorError, WeylEstimate,
                         c_direct, c_weyl, compute_constants, load_constants,
                         merge_constants, run_constants, save_constants, z_n)


def test_z_n_closed_forms():
    # Z_n = 2^(n/2) n! prod Gamma(l/2)
    assert abs(z_n(1) - math.sqrt(2.0 * math.pi)) < 1e-12
    assert abs(z_n(2) - 4.0 * math.sqrt(math.pi)) < 1e-12
    assert abs(z_n(3) - 6.0 * math.sqrt(2.0) * math.pi) < 1e-12
    assert abs(z_n(4) - 48.0 * math.pi) < 1e-11
    with pytest.raises(ValueError):
        z_n(0)


def test_direct_route_c0_is_exact():
    out = c_direct(2, 2000, 5)
    assert out[0].mean == 1.0
    assert out[0].std_error == 0.0


def test_direct_route_cn_matches_determinant_law():
    # E[det e^X] = E[e^tr X] = e^(n/2) since tr X ~ N(0, n)
    for n in (2, 3):
        out = c_direct(n, 60000, 11)
        want = math.exp(n / 2.0)
        assert z_score(out[n].mean, out[n].std_error, want) < 4.0


def test_weyl_route_matches_direct_route():
    n = 2
    direct = c_direct(n, 80000, 21)
    weyl = c_weyl(n, 80000, 22)
    for j in range(n + 1):
        z = z_score(direct[j].mean, direct[j].std_error,
                    weyl[j].mean, weyl[j].std_error)
        assert z < 4.0, f"j={j}: direct {direct[j].mean} vs weyl {weyl[j].mean}"
    # eigenvalue-space importance weights keep a healthy effective fraction
    assert weyl[0].ess > 0.5


def test_weyl_route_c0_matches_one():
    out = c_weyl(2, 60000, 31)
    assert z_score(out[0].mean, out[0].std_error, 1.0) < 4.0


def test_direct_route_integrates_the_trace_exactly():
    # c_0 and c_n come back as the exact constants, with standard error 0,
    # and only 0 < j < n are sampled
    for n in (1, 2, 3, 5):
        out = c_direct(n, 3000, 4)
        assert (out[0].mean, out[0].std_error) == (1.0, 0.0)
        assert (out[n].mean, out[n].std_error) == (math.exp(n / 2), 0.0)
        assert all(out[j].std_error > 0.0 for j in range(1, n))


def test_traceless_weight_is_the_density_ratio():
    # p_0 / q_0 at fixed traceless spectra: p_0 the eigenvalue density with
    # the trace integrated out, normalized by Z_n / sqrt(2 pi) (closed forms
    # of Z_n), q_0 the isotropic normal of variance sigma^2 on the n - 1
    # dimensions of the traceless hyperplane
    from itertools import combinations

    z_closed = {2: 4.0 * math.sqrt(math.pi), 3: 6.0 * math.sqrt(2.0) * math.pi}
    rng = np.random.default_rng(3)
    for n in (2, 3):
        lam0 = rng.standard_normal((50, n))
        lam0 -= lam0.mean(axis=1, keepdims=True)
        sq = (lam0**2).sum(axis=1)
        vdm = np.array([math.prod(abs(row[a] - row[b]) for a, b in combinations(range(n), 2))
                        for row in lam0])
        p0 = vdm * np.exp(-0.5 * sq) / (z_closed[n] / math.sqrt(2.0 * math.pi))
        for sigma in (1.0, math.sqrt((n + 2) / 2.0)):
            q0 = np.exp(-0.5 * sq / sigma**2) / (2.0 * math.pi * sigma**2) ** ((n - 1) / 2.0)
            np.testing.assert_allclose(weyl._weyl_weight(lam0, sigma), p0 / q0, rtol=1e-12)


@pytest.mark.parametrize("route", [c_direct, c_weyl], ids=["direct", "weyl"])
def test_both_routes_match_the_quadrature_values(route):
    for (n, j), want in QUADRATURE_C.items():
        for seed in (201, 202, 203):
            est = route(n, 20000, seed, js=[j])[j]
            assert z_score(est.mean, est.std_error, want) < 3.0, (n, j, seed, est)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_weyl_cn_is_a_rescaled_c0(n):
    # V_n(exp(lam0) B^n) = kappa_n on the traceless hyperplane, so the weyl
    # c_n is e^{n/2} c_0 sample by sample: the two anchors test one number,
    # Z_n, and share their relative standard error
    out = c_weyl(n, 5000, 40 + n)
    c0, cn = out[0], out[n]
    assert abs(cn.mean / (math.exp(n / 2.0) * c0.mean) - 1.0) < 1e-12
    assert abs(cn.std_error / cn.mean - c0.std_error / c0.mean) < 1e-12


def test_tilted_proposals_cut_the_error():
    def worst(out):
        return max(est.std_error / abs(est.mean) for j, est in out.items() if j >= 1)

    # a standard-normal proposal reads 8.9%, 4.4% and ESS 0.052 here
    assert worst(c_direct(5, 20000, 1)) < 0.02
    assert worst(c_weyl(3, 30000, 1)) < 0.015
    assert c_weyl(4, 30000, 1)[0].ess >= 0.15


def test_weyl_rejects_large_n():
    with pytest.raises(ValueError):
        c_weyl(WEYL_MAX_N + 1, 100, 0)


@pytest.mark.parametrize("n", [0, -1])
def test_both_routes_refuse_n_below_1_before_drawing(monkeypatch, n):
    # c_direct returned {} at n = -1; at n = 0 both routes divided by n
    monkeypatch.setattr(weyl, "lattice_normals", lambda *a, **k: pytest.fail("drew"))
    for route in (c_direct, c_weyl):
        with pytest.raises(ValueError, match="1 <= n|n >= 1"):
            route(n, 100, 1)


def test_compute_constants_dispatch():
    a = compute_constants(2, 500, 7, method="direct")
    b = compute_constants(2, 500, 7, method="weyl")
    assert set(a) == set(b) == {0, 1, 2}
    assert isinstance(b[0], WeylEstimate)
    with pytest.raises(ValueError):
        compute_constants(2, 100, 0, method="luck")


def test_requested_j_subset():
    out = c_direct(3, 1000, 9, js=[0, 3])
    assert set(out) == {0, 3}


@pytest.mark.parametrize("js", [[-1], [4]], ids=["below-0", "above-n"])
def test_direct_route_refuses_j_outside_0_n(monkeypatch, js):
    # the direct route returned trace_moment(n, j) for such j; the weyl
    # route already refused them
    monkeypatch.setattr(weyl, "lattice_normals", lambda *a, **k: pytest.fail("drew"))
    for route in (c_direct, c_weyl):
        with pytest.raises(ValueError, match="0 <= j <= n"):
            route(3, 1000, 1, js=js)


def test_merge_constants_pools_weyl_shards(monkeypatch):
    parts = [c_weyl(2, 20000, seed) for seed in (100, 101, 102)]
    merged = merge_constants(parts, seed=100)
    assert merged[1].samples == 60000
    # pooled mean lies within the spread of the shard means
    means = [p[1].mean for p in parts]
    assert min(means) - 1e-12 <= merged[1].mean <= max(means) + 1e-12
    assert 0.0 < merged[1].ess <= 1.0
    monkeypatch.setattr(weyl, "ESS_FLOOR", 0.99)
    with pytest.raises(EssFloorError):
        merge_constants(parts, seed=100)


def test_ess_floor_constant():
    assert 0.0 < ESS_FLOOR <= 0.05


def test_constants_cache_roundtrip(tmp_path):
    out = c_direct(2, 2000, 17)
    path = tmp_path / "constants.json"
    save_constants(str(path), 2, {"direct": out})
    back = load_constants(str(path), 2)
    assert set(back) == {0, 1, 2}
    for j in (0, 1, 2):
        assert (back[j].mean, back[j].std_error) == (out[j].mean, out[j].std_error)
        assert (back[j].samples, back[j].seed) == (out[j].samples, out[j].seed)


def test_load_constants_reads_the_weyl_route_when_the_direct_one_is_incomplete(tmp_path):
    path = str(tmp_path / "constants.json")
    direct, spectral = c_direct(2, 2000, 17, js=[0, 2]), c_weyl(2, 2000, 18)
    save_constants(path, 2, {"weyl": spectral})
    assert {j: r.mean for j, r in load_constants(path, 2).items()} == {
        j: r.mean for j, r in spectral.items()}
    save_constants(path, 2, {"direct": direct, "weyl": spectral})
    assert load_constants(path, 2)[1].mean == spectral[1].mean
    save_constants(path, 2, {"direct": c_direct(2, 2000, 17), "weyl": spectral})
    assert load_constants(path, 2)[1].mean != spectral[1].mean


def test_load_constants_refuses_a_cache_without_a_complete_route(tmp_path):
    path = str(tmp_path / "constants.json")
    save_constants(path, 2, {"direct": c_direct(2, 2000, 17)})
    with pytest.raises(ValueError, match="n = 3"):
        load_constants(path, 3)
    # j = 1 is missing from both routes
    save_constants(path, 2, {"direct": c_direct(2, 2000, 17, js=[0, 2]),
                             "weyl": c_weyl(2, 2000, 18, js=[0, 2])})
    with pytest.raises(ValueError, match="no route"):
        load_constants(path, 2)


def test_run_constants_checks_the_weyl_cap_before_any_route_draws(monkeypatch):
    monkeypatch.setattr(weyl, "lattice_normals", lambda *a, **k: pytest.fail("drew"))
    for routes in (ROUTES, ("weyl",)):
        with pytest.raises(ValueError, match="direct route"):
            run_constants(WEYL_MAX_N + 1, 100, 1, routes=routes)
    with pytest.raises(ValueError, match="unknown route"):
        run_constants(2, 100, 1, routes=("direct", "luck"))


def test_load_constants_rejects_other_files(tmp_path):
    path = tmp_path / "junk.json"
    path.write_text("[1, 2, 3]")
    with pytest.raises(ValueError):
        load_constants(str(path), 2)


# ---------------------------------------------------------------------------
# the shifted lattice rule behind both routes

def test_lattice_cuts_the_error():
    # at the cj-spectra budgets and seeds plain Monte Carlo normals read
    # 3.3e-3, 5.2e-3 and 5.6e-3 here
    def worst(out):
        return max(est.std_error / abs(est.mean) for j, est in out.items() if j >= 1)

    assert worst(c_direct(3, 30000, 12)) < 1e-3
    assert worst(c_weyl(3, 30000, 12)) < 1e-3
    assert worst(c_direct(5, 20000, 13)) < 3e-3


def test_weyl_draws_no_plain_normals():
    # one c_j sampler: neither route may fall back to plain Monte Carlo draws
    import ast
    import inspect

    calls = {node.func.attr if isinstance(node.func, ast.Attribute) else
             getattr(node.func, "id", None)
             for node in ast.walk(ast.parse(inspect.getsource(weyl)))
             if isinstance(node, ast.Call)}
    assert not calls & {"standard_normal", "normal", "sample_gaussian_sym"}


def test_the_budget_splits_exactly_over_the_shifts():
    for samples in (1, 7, 16, 2000, 30001):
        counts = sampling.shift_counts(samples)
        assert counts.sum() == samples and counts.max() - counts.min() <= 1
        assert counts.size == min(sampling.SHIFTS, samples)
        rng = np.random.default_rng(1)
        shifts = np.concatenate([s for s, _ in sampling.lattice_normals(3, samples, rng)])
        np.testing.assert_array_equal(np.bincount(shifts), counts)
    assert c_direct(3, 2001, 5)[1].samples == 2001
    assert c_weyl(2, 2001, 5)[1].samples == 2001


def test_the_lattice_refuses_more_dimensions_than_its_vector():
    # LATTICE_Z has 36 components (Sym(8)); past them the sampler and the
    # direct route (n = 9 needs 44) refuse at the call, before any draw
    assert len(sampling.LATTICE_Z) == 36
    rng = np.random.default_rng(0)
    state = rng.bit_generator.state
    with pytest.raises(ValueError, match="36 dimensions"):
        sampling.lattice_normals(37, 100, rng)
    with pytest.raises(ValueError, match="36 dimensions"):
        c_direct(9, 100, rng)
    assert rng.bit_generator.state == state
    w = np.concatenate([w for _, w in sampling.lattice_normals(36, 64, rng)])
    assert w.shape == (64, 36) and np.all(np.isfinite(w))


def test_zero_lattice_budgets_are_refused_before_drawing():
    # shift_counts(0) split the budget over zero shifts: ZeroDivisionError
    rng = np.random.default_rng(0)
    state = rng.bit_generator.state
    with pytest.raises(ValueError, match="lattice budget"):
        sampling.lattice_normals(3, 0, rng)
    with pytest.raises(ValueError, match="lattice budget"):
        c_weyl(2, 0, rng)
    assert rng.bit_generator.state == state


def test_radical_inverse_prefixes_are_full_lattices():
    # the first 2^m points of the sequence are {k z / 2^m : k < 2^m}
    z = np.array(sampling.LATTICE_Z, dtype=np.uint64)
    for m in (0, 3, 6, 10):
        pts = (sampling._bit_reverse(np.arange(1 << m))[:, None] * z) & sampling._MASK
        assert np.all(pts % (1 << (32 - m)) == 0)
        got = np.sort(pts >> np.uint64(32 - m), axis=0)
        want = np.sort((np.arange(1 << m)[:, None] * np.array(sampling.LATTICE_Z)) % (1 << m), axis=0)
        np.testing.assert_array_equal(got, want)


def _omega(x):
    # 2 pi^2 B_2(x), the kernel of the P_2 figure of merit
    return 2.0 * math.pi**2 * (x * x - x + 1.0 / 6.0)


def _gamma(k):
    return 1.0 / k**2  # the product weights LATTICE_Z was built with


def _p2_error_sq(z, m):
    """The P_2 figure of merit e^2 of the 2^m-point lattice with generating
    vector z, by direct summation over its points."""
    N = 1 << m
    x = (np.arange(N)[:, None] * (np.asarray(z) % N) % N) / N
    return -1.0 + np.prod(1.0 + _gamma(np.arange(1, len(z) + 1)) * _omega(x), axis=1).mean()


def _embedded_cbc(s, m=16, lo=6):
    """Embedded component-by-component construction of a base-2 rank-1
    lattice (Cools, Kuo & Nuyens 2006, SIAM J. Sci. Comput. 28).

    Component d is the odd z < 2^m that minimizes, over the moduli 2^lo ...
    2^m, the worst ratio of the P_2 error of (z_1 ... z_{d-1}, z) to the
    smallest one any candidate reaches at that modulus (ties: the first
    candidate in the order 5^b). omega is symmetric about 1/2, so z and -z
    are equivalent and the candidates are 5^b mod 2^m, b < 2^(m-2). The
    points k z / 2^m with k = 2^v u, u odd, give (u z mod 2^(m-v)) / 2^(m-v);
    with u = +-5^a each class v sums as a cyclic correlation over a, one FFT
    per class, and the 2^l-point lattice is the classes v >= m - l plus
    k = 0.
    """
    N = 1 << m
    k = np.arange(N)
    p = 1.0 + _gamma(1) * _omega(k / N)  # the running product, z_1 = 1
    z = [1]
    nb = N // 4
    zb = np.ones(nb, dtype=np.int64)
    for b in range(1, nb):
        zb[b] = zb[b - 1] * 5 % N
    classes = []
    for v in range(m - 2):
        M = N >> v
        powers = zb[:M // 4] % M
        classes.append((v, M, powers, np.fft.fft(_omega(powers / M))))
    for d in range(2, s + 1):
        S = np.zeros((m, nb))  # S[v, b]: sum over class v of p(k) omega(k 5^b / N)
        for v, M, powers, G in classes:
            q = p[(powers << v) % N] + p[((M - powers) << v) % N]
            S[v] = np.fft.ifft(np.conj(np.fft.fft(q)) * G).real[np.arange(nb) % (M // 4)]
        S[m - 2] = (p[1 << (m - 2)] + p[3 << (m - 2)]) * _omega(0.25)
        S[m - 1] = p[1 << (m - 1)] * _omega(0.5)
        # the 2^l-point lattice: k = 0 (omega(0)) and the classes v >= m - l
        new_terms = [p[0] * _omega(0.0) + S[m - l:].sum(axis=0) for l in range(lo, m + 1)]
        e2 = np.array([-1.0 + (p[::N >> l].sum() + _gamma(d) * t) / (1 << l)
                       for l, t in zip(range(lo, m + 1), new_terms)])
        best = int(zb[np.argmin((e2 / e2.min(axis=1, keepdims=True)).max(axis=0))])
        z.append(best)
        p *= 1.0 + _gamma(d) * _omega(k * best % N / N)
    return z


def test_fast_cbc_matches_a_brute_force_search():
    # the oracle's FFT bookkeeping against every candidate summed directly,
    # at 2^3 ... 2^8 points and six components
    m, lo, z = 8, 3, [1]
    for _ in range(5):
        cands = [pow(5, b, 1 << m) for b in range(1 << (m - 2))]
        e2 = np.array([[_p2_error_sq(z + [c], l) for c in cands] for l in range(lo, m + 1)])
        z.append(cands[int(np.argmin((e2 / e2.min(axis=1, keepdims=True)).max(axis=0)))])
    assert _embedded_cbc(6, m, lo) == z


def test_generating_vector_is_the_embedded_cbc_vector():
    assert tuple(_embedded_cbc(len(sampling.LATTICE_Z))) == sampling.LATTICE_Z


# e^2 of LATTICE_Z, all 36 components, at 2^6 ... 2^16 points
LATTICE_P2 = (0.21632800167897792, 0.08984339382705797, 0.0359501675329339,
              0.014509665961564444, 0.006607674465443303, 0.0024766242303333463,
              0.0009606960925423458, 0.0003842577839263672, 0.0001477835674279504,
              5.7444050068244934e-05, 2.2819834524012705e-05)


def test_generating_vector_figure_of_merit_at_each_modulus():
    for m, want in zip(range(6, 17), LATTICE_P2):
        assert _p2_error_sq(sampling.LATTICE_Z, m) == pytest.approx(want, rel=1e-6)
