"""Monte Carlo kinematic integrals over rigid motions and affine deformations.

The left-hand side integrates phi(M cap g L) over group elements g = k exp(X)
plus translation, with k Haar (probability measure) on O(n) or SO(n) and X
Gaussian on Sym(n); the compact groups pin X = 0. The right-hand side is the
Hadwiger-style expansion sum_j c_j phi_{n-j}(M) V_j(L) with Crofton
coefficients phi_{n-j}(M) estimated over random flats and the deformation
constants c_j from the weyl module.

Normalization note: with the probability Haar measure used here, the direct
integral equals the plain sum (the "half" convention); doubling the component
masses of O(n) doubles it. Reports carry both candidates and the z-score of
the estimate against each, so the convention is pinned by data, not fiat.

separation_lemma_check exercises the boundary characterization of the
difference body: t lies on the boundary of M + (-gL) exactly when M and
gL + t intersect but admit a separating hyperplane.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields

import numpy as np

from . import bodies as bd
from .estimation import (EstimatorResult, RunningMean, merge_results, resolve_rng,
                         run_chunks, z_score)
from .sampling import batch_flat_hits, flat_weight, sample_affine_flat
from .symmetric import sample_gaussian_sym, sample_haar_orthogonal
from .volumes import (Valuation, closed_intrinsic_volumes, kappa, volume_exact)

GROUPS = {"gl": ("full", False), "o": ("full", True), "so": ("special", True)}
INNER_SAMPLES = 256  # inner points per LHS sample of the volume integrand
# inner points per row block of the volume integrand (~1 MB per array at n = 2)
_BLOCK_POINTS = 1 << 16
_LHS_BATCH = 4096  # group elements drawn at a time
_CROFTON_BATCH = 16384  # flats drawn at a time
# interior/exterior lemma-check points this close to the boundary are skipped
_SKIP_MARGIN = 1e-6


def stage_samples(samples: int) -> int:
    """The default budget of a report's c_j and Crofton stages."""
    return max(samples // 4, 10000)


def _phi_kind(phi) -> str:
    if isinstance(phi, Valuation):
        return {"chi": "chi", "volume": "volume"}.get(phi.name, "custom")
    if phi in ("chi", "volume"):
        return phi
    raise ValueError(f"unknown valuation {phi!r}")


def _congruence(V: np.ndarray, w: np.ndarray) -> np.ndarray:
    """V diag(w) V^T per row, adding (V_ij w_j) V_kj in ascending j: the
    rounding of einsum("bij,bj,bkj->bik", V, w, V) in a third of its time."""
    out = np.zeros(V.shape)
    for j in range(V.shape[-1]):
        out += (V[:, :, j] * w[:, j, None])[:, :, None] * V[:, None, :, j]
    return out


def check_lhs_inputs(group: str, phi, M, L) -> str:
    """Refuse an LHS lhs_kinematic cannot evaluate; return the kind of phi.

    Raises ValueError for an unknown group or valuation, bodies of different
    dimensions, a custom valuation on bodies other than H-polytopes, and chi
    on a ball or ellipsoid paired with a polytope at n >= 4, where the
    intersection test needs polytope distances (n <= 3 only).
    """
    if group not in GROUPS:
        raise ValueError(f"unknown group {group!r}")
    kind = _phi_kind(phi)
    if M.dim != L.dim:
        raise ValueError("bodies must share a dimension")
    if kind == "custom" and not (isinstance(M, bd.HPolytope)
                                 and isinstance(L, bd.HPolytope)):
        raise ValueError("custom valuations need H-polytope bodies "
                         "(the intersection must be explicit)")
    quadrics = [isinstance(b, (bd.Ball, bd.Ellipsoid)) for b in (M, L)]
    if kind == "chi" and M.dim >= 4 and any(quadrics) and not all(quadrics):
        raise ValueError("chi of a ball or ellipsoid against a polytope needs "
                         f"n <= 3, got n = {M.dim}")
    return kind


@dataclass
class LhsEstimate(EstimatorResult):
    """One run of lhs_kinematic: the hit-or-miss estimate (the inherited
    fields) and, from the same draws of g, the translation-exact estimate
    (exact; None where the pair has no closed form) and, when M is a ball,
    the estimates of E_g V_j(gL), one per j (terms; None otherwise)."""

    exact: EstimatorResult | None = None
    terms: list[EstimatorResult] | None = None

    def to_dict(self) -> dict:
        """The hit-or-miss estimate, in the layout of EstimatorResult."""
        return {f.name: getattr(self, f.name) for f in fields(EstimatorResult)}


def merge_lhs(parts: list[LhsEstimate], seed: int) -> LhsEstimate:
    """Chunk estimates of lhs_kinematic merged in chunk order, each of the
    hit-or-miss, exact and per-j estimates on its own (merge_results)."""
    first = parts[0]
    return LhsEstimate(
        **vars(merge_results(parts, seed)),
        exact=first.exact and merge_results([p.exact for p in parts], seed),
        terms=first.terms and [merge_results([p.terms[j] for p in parts], seed)
                               for j in range(len(first.terms))])


def lhs_kinematic(group: str, phi, M, L, samples: int, rng, *,
                  inner_samples: int = INNER_SAMPLES) -> LhsEstimate:
    """The group-side integral, estimated with the translation box folded in.

    phi may be "chi", "volume", or a Valuation; custom valuations need both
    bodies as H-polytopes (the intersection must be constructible). Every
    pair draws k, X and t in batches. The box of gL is bodies.moved_boxes
    and M's box bodies.body_box, so the translation box t ranges over is
    their Minkowski difference. The hit-or-miss integrand, per kind of phi:
    - chi: bodies.batch_intersects, where the pair's types pick the kernel;
    - volume: membership of inner points, by the closed form when both
      bodies are balls or ellipsoids and bodies.contains_points otherwise;
    - custom valuations: the explicit intersection of each row.
    The volume integrand draws its inner_samples points per row in blocks
    of rows, about _BLOCK_POINTS points at a time, so its work arrays stay
    near 1 MB whatever the batch; the draws are the ones a single
    (batch, inner_samples, n) draw would give. Inputs are checked by
    check_lhs_inputs before anything is drawn.

    For chi the t-integral of the integrand is vol(M + (-gL)), so the same
    draws of g also give the translation-exact estimate, the mean of
    bodies.difference_volumes, wherever the pair has that closed form (the
    result's exact). It draws nothing, so the hit-or-miss estimate keeps
    every bit it had without it. When M is a ball the Steiner sum behind it
    splits over j, and terms[j] estimates E_g V_j(gL)
    (bodies.moved_intrinsic_volumes). The volume phi has no exact estimate:
    its t-integral vol(M) vol(gL) would make the Fubini anchor a tautology.
    """
    kind = check_lhs_inputs(group, phi, M, L)
    rng, seed = resolve_rng(rng)
    component, compact = GROUPS[group]
    n = M.dim
    quadric = (isinstance(M, (bd.Ball, bd.Ellipsoid))
               and isinstance(L, (bd.Ball, bd.Ellipsoid)))
    if quadric:
        _, cM, invM = bd.quadric_frame(M)
        _, _, invL0 = bd.quadric_frame(L)
    loM, hiM = bd.body_box(M)
    rows = max(1, _BLOCK_POINTS // inner_samples)
    steiner = isinstance(M, bd.Ball)
    acc = RunningMean()
    exact = RunningMean()
    terms = [RunningMean() for _ in range(n + 1)]
    done = 0
    while done < samples:
        B = min(_LHS_BATCH, samples - done)
        k = sample_haar_orthogonal(n, rng, component=component, size=B)
        invG = None  # the chi kernel of two quadrics never reads it
        if compact:
            G = k
            invG = np.swapaxes(k, 1, 2)
        else:
            X = sample_gaussian_sym(n, rng, size=B)
            lam, V = np.linalg.eigh(X)
            G = k @ _congruence(V, np.exp(lam))
            if not (kind == "chi" and quadric):
                invG = np.einsum("bij,bkj->bik", _congruence(V, np.exp(-lam)), k)
        # the box of gL is cg +- hw per row
        cg, hw = bd.moved_boxes(L, G)
        hi = hiM[None, :] + hw - cg
        lo = loM[None, :] - hw - cg
        wid = hi - lo
        volbox = np.prod(wid, axis=1)
        t = lo + rng.random((B, n)) * wid
        if kind == "chi":
            # a ball M reads its hit test and Steiner's V_j off one SVD
            frames = bd.moved_frames(L, G) if steiner else None
            acc.update(np.where(bd.batch_intersects(M, L, G, invG, t, frames), volbox, 0.0))
            vj = bd.moved_intrinsic_volumes(L, G, frames) if steiner else None
            dv = bd.difference_volumes(M, L, G, vj)
            if dv is not None:
                exact.update(dv)
            if vj is not None:
                for j in range(n + 1):
                    terms[j].update(vj[:, j])
        elif kind == "volume":
            center = cg + t
            loI = np.maximum(loM[None, :], center - hw)
            widI = np.clip(np.minimum(hiM[None, :], center + hw) - loI, 0.0, None)
            volI = np.prod(widI, axis=1)
            if quadric:
                invlin = invL0 @ invG
            frac = np.empty(B)
            # the inner points go in blocks of rows; drawing the blocks in
            # turn consumes the stream a single (B, inner, n) draw would
            for r0 in range(0, B, rows):
                r1 = min(r0 + rows, B)
                u = rng.random((r1 - r0, inner_samples, n))
                pts = loI[r0:r1, None, :] + u * widI[r0:r1, None, :]
                if quadric:
                    y = (pts - cM) @ invM.T
                    inM = np.einsum("bki,bki->bk", y, y) <= 1.0
                    z = (pts - center[r0:r1, None, :]) @ np.swapaxes(invlin[r0:r1], 1, 2)
                    inL = np.einsum("bki,bki->bk", z, z) <= 1.0
                else:
                    inM = bd.contains_points(M, pts.reshape(-1, n)).reshape(r1 - r0, -1)
                    y = np.einsum("bij,bkj->bki", invG[r0:r1], pts - t[r0:r1, None, :])
                    inL = bd.contains_points(L, y.reshape(-1, n)).reshape(r1 - r0, -1)
                frac[r0:r1] = np.mean(inM & inL, axis=1)
            acc.update(volbox * volI * frac)
        else:
            val = [phi(bd.intersect_hrep(M, bd.affine_image(L, bd.AffineMap(g, s))))
                   for g, s in zip(G, t)]
            acc.update(volbox * np.array(val))
        done += B
    return LhsEstimate(
        **vars(EstimatorResult.from_accumulator(acc, seed)),
        exact=EstimatorResult.from_accumulator(exact, seed) if exact.count else None,
        terms=([EstimatorResult.from_accumulator(a, seed) for a in terms]
               if terms[0].count else None))


def crofton_coefficient(phi, M, j: int, samples: int, rng, *,
                        window_radius: float | None = None) -> EstimatorResult:
    """phi_{n-j}(M): the integral of phi(M cap E) over the j-flat measure.

    The flat measure is normalized so flats meeting the unit ball have mass
    kappa_{n-j}. window_radius defaults to 1.5x the outer radius of M and
    must dominate it, otherwise contributing flats would be missed. Each
    batch of flats is tested at once by sampling.batch_flat_hits: closed
    forms for balls and ellipsoids; for polytopes contains_points at j = 0
    and, when the vertex set is cheap (V-polytopes, H-polytopes at n <= 3),
    an interval test on the normal of hyperplanes (j = n - 1). Polytope
    flats of 0 < j < n - 1 (lines in 3-D) and H-polytope flats of j > 0 at
    n >= 4 still solve one LP per flat.
    """
    kind = _phi_kind(phi)
    n = M.dim
    if not 0 <= j <= n:
        raise ValueError("need 0 <= j <= n")
    rng, seed = resolve_rng(rng)
    rad = bd.outer_radius(M)
    if window_radius is None:
        window_radius = 1.5 * rad
    if window_radius < rad - 1e-12:
        raise ValueError("window radius must dominate the body's outer radius")
    weight = flat_weight(n, j, window_radius)
    if kind == "volume":
        mean = volume_exact(M) * kappa(0) if j == n else 0.0
        return EstimatorResult(mean=mean, std_error=0.0, samples=int(samples),
                               seed=seed, importance_volume=weight)
    if kind == "custom":
        raise ValueError("crofton coefficients support chi and volume only")
    if j == n:
        return EstimatorResult(mean=float(kappa(0)), std_error=0.0,
                               samples=int(samples), seed=seed,
                               importance_volume=weight)
    acc = RunningMean()
    done = 0
    while done < samples:
        B = min(_CROFTON_BATCH, samples - done)
        hit = batch_flat_hits(M, sample_affine_flat(n, j, rng, window_radius, size=B))
        acc.update(np.where(hit, weight, 0.0))
        done += B
    return EstimatorResult.from_accumulator(acc, seed, importance_volume=weight)


def rhs_hadwiger_gl(phi, M, L, constants: dict[int, EstimatorResult],
                    crofton: dict[int, EstimatorResult]) -> dict:
    """Assemble both right-hand-side candidates from estimated pieces.

    Needs c_j and phi_{n-j}(M) for every 0 <= j <= n and a closed form for
    the intrinsic volumes of L. Returns the per-j terms (half convention),
    their sum, the doubled sum, and propagated standard errors.
    """
    n = M.dim
    vL = closed_intrinsic_volumes(L)
    terms = []
    var = 0.0
    for j in range(n + 1):
        c = constants[j]
        f = crofton[j]
        term = c.mean * f.mean * float(vL[j])
        tvar = (c.mean * f.std_error * vL[j]) ** 2 + (f.mean * c.std_error * vL[j]) ** 2
        var += tvar
        terms.append({"j": j, "c_j": c.mean, "c_j_se": c.std_error,
                      "phi_coeff": f.mean, "phi_coeff_se": f.std_error,
                      "v_j": float(vL[j]), "term": term,
                      "std_error": float(np.sqrt(tvar))})
    half = float(sum(t["term"] for t in terms))
    se = float(np.sqrt(var))
    return {"terms": terms, "rhs_half": half, "rhs_total": 2.0 * half,
            "se_half": se, "se_total": 2.0 * se}


@dataclass
class KinematicReport:
    """Everything needed to compare the two sides of the formula.

    lhs is the headline estimate that z_total, z_half and convention read:
    the translation-exact one when the pair has it, else hit-or-miss. With
    an exact headline, hit_or_miss holds the hit-or-miss estimate with its
    own z-scores, the check that does not rest on Steiner's formula or the
    mixed area, and lhs_terms (gl with a ball M) compares E_g V_j(gL) with
    c_j V_j(L) one j at a time.
    """

    group: str
    phi: str
    n: int
    seed: int
    samples: int
    lhs: EstimatorResult
    rhs: dict
    constants: dict[int, EstimatorResult]
    crofton: dict[int, EstimatorResult]
    z_total: float
    z_half: float
    convention: str
    hit_or_miss: dict | None = None
    lhs_terms: list[dict] | None = None

    @property
    def lhs_estimator(self) -> str:
        return "hit-or-miss" if self.hit_or_miss is None else "translation-exact"

    def to_dict(self) -> dict:
        """The report as JSON. lhs_estimator, hit_or_miss and lhs_terms
        appear only with an exact headline, so a hit-or-miss report keeps
        its layout (and its bytes)."""
        out = {
            "group": self.group,
            "phi": self.phi,
            "n": self.n,
            "seed": self.seed,
            "samples": self.samples,
            "lhs": self.lhs.to_dict(),
            "rhs": self.rhs,
            "constants": {str(j): r.to_dict() for j, r in sorted(self.constants.items())},
            "crofton": {str(j): r.to_dict() for j, r in sorted(self.crofton.items())},
            "z_total": self.z_total,
            "z_half": self.z_half,
            "convention": self.convention,
        }
        if self.hit_or_miss is not None:
            out["lhs_estimator"] = self.lhs_estimator
            out["hit_or_miss"] = self.hit_or_miss
        if self.lhs_terms is not None:
            out["lhs_terms"] = self.lhs_terms
        return out

    def csv_rows(self) -> list[list]:
        rows = [["j", "c_j", "phi_coeff", "v_j", "term", "std_error"]]
        for t in self.rhs["terms"]:
            rows.append([t["j"], t["c_j"], t["phi_coeff"], t["v_j"],
                         t["term"], t["std_error"]])
        return rows


def build_report(group: str, phi, M, L, samples: int, seed: int, *,
                 inner_samples: int = INNER_SAMPLES,
                 cj_samples: int | None = None,
                 crofton_samples: int | None = None,
                 window_radius: float | None = None,
                 constants: dict[int, EstimatorResult] | None = None,
                 threads: int = 1) -> KinematicReport:
    """Run both sides and package the comparison.

    The stages run on one chunk plan (estimation.run_chunks) in the order
    LHS, c_j, then Crofton j = 0..n, so every chunk of every stage draws
    from its own child of SeedSequence(seed) and the report depends only
    on its arguments, never on threads. cj_samples and crofton_samples
    default to stage_samples(samples). The c_j stage reserves its streams
    even when it draws nothing: when constants are given (e.g. from a
    cache file) or the group is compact, where every c_j is 1. Each stage
    merges its chunks in order.

    The headline lhs is the translation-exact estimate when the pair has
    one, else the hit-or-miss estimate; z_total, z_half and convention read
    the headline. With an exact headline the report also carries the
    hit-or-miss estimate with its own z-scores, and under gl with a ball M
    the per-j check lhs_terms: for each j the estimate of E_g V_j(gL), the
    prediction c_j V_j(L) and z, the term's standard error combined with
    V_j(L) se(c_j). Under O(n) and SO(n) every V_j(gL) is V_j(L) and
    c_j = 1, so the split tests nothing and is left out.
    """
    n = M.dim
    kind = _phi_kind(phi)
    cj_worker = None
    if constants is None and group == "gl":
        from .weyl import c_direct

        def cj_worker(rng, k):
            return c_direct(n, k, rng)

    # the workers look lhs_kinematic and crofton_coefficient up when called
    stages = [(lambda rng, k: lhs_kinematic(group, phi, M, L, k, rng,
                                            inner_samples=inner_samples), samples),
              (cj_worker, cj_samples or stage_samples(samples))]
    stages += [(lambda rng, k, j=j: crofton_coefficient(phi, M, j, k, rng,
                                                        window_radius=window_radius),
                crofton_samples or stage_samples(samples)) for j in range(n + 1)]
    lhs_parts, cj_parts, *crofton_parts = run_chunks(stages, seed, threads)
    lhs = merge_lhs(lhs_parts, seed)
    if cj_worker is not None:
        constants = {j: merge_results([p[j] for p in cj_parts], seed) for j in cj_parts[0]}
    elif constants is None:
        constants = {j: EstimatorResult(1.0, 0.0, 1, seed) for j in range(n + 1)}
    crofton = {j: merge_results(parts, seed) for j, parts in enumerate(crofton_parts)}
    rhs = rhs_hadwiger_gl(phi, M, L, constants, crofton)

    def z_pair(est: EstimatorResult) -> tuple[float, float]:
        return (z_score(est.mean, est.std_error, rhs["rhs_total"], rhs["se_total"]),
                z_score(est.mean, est.std_error, rhs["rhs_half"], rhs["se_half"]))

    extra = {}
    if lhs.exact is not None:
        hzt, hzh = z_pair(lhs)
        extra["hit_or_miss"] = {"lhs": lhs.to_dict(), "z_total": hzt, "z_half": hzh}
        if group == "gl" and lhs.terms is not None:
            extra["lhs_terms"] = _term_checks(lhs.terms, constants, rhs)
    head = lhs if lhs.exact is None else lhs.exact
    zt, zh = z_pair(head)
    return KinematicReport(group=group, phi=kind, n=n, seed=seed, samples=samples,
                           lhs=head, rhs=rhs, constants=constants,
                           crofton=crofton, z_total=zt, z_half=zh,
                           convention="half" if zh <= zt else "total", **extra)


def _term_checks(terms: list[EstimatorResult], constants: dict[int, EstimatorResult],
                 rhs: dict) -> list[dict]:
    """Per j: the estimate of E_g V_j(gL) against c_j V_j(L)."""
    out = []
    for j, est in enumerate(terms):
        v = rhs["terms"][j]["v_j"]
        want, want_se = constants[j].mean * v, constants[j].std_error * v
        out.append({"j": j, "mean": est.mean, "std_error": est.std_error,
                    "c_j_v_j": want, "c_j_v_j_se": want_se,
                    "z": z_score(est.mean, est.std_error, want, want_se)})
    return out


# ---------------------------------------------------------------------------
# separation lemma check


@dataclass
class LemmaCheck:
    trials: int
    agreements: int
    disagreements: int
    boundary_skips: int
    stratum_counts: dict = field(default_factory=dict)
    failures: list = field(default_factory=list)

    def to_dict(self) -> dict:
        return {"trials": self.trials, "agreements": self.agreements,
                "disagreements": self.disagreements,
                "boundary_skips": self.boundary_skips,
                "stratum_counts": self.stratum_counts,
                "failures": self.failures}


def _hull_edges(poly: bd.VPolytope) -> list[tuple[np.ndarray, np.ndarray]]:
    P = bd.planar_hull(poly.vertices).points
    return [(P[i], P[(i + 1) % len(P)]) for i in range(len(P))]


def check_lemma_inputs(M, L) -> None:
    """Refuse a pair separation_lemma_check cannot run, with ValueError.

    Both bodies must be V-polytopes in the plane, and their difference body
    M + (-gL) must be 2-D (it is for almost every g unless the affine hulls
    of M and L have dimensions summing below 2: a point and a point or a
    segment), since the boundary stratum walks its edges.
    """
    if not isinstance(M, bd.VPolytope) or not isinstance(L, bd.VPolytope):
        raise ValueError("lemma-check needs V-polytope bodies")
    if M.dim != 2 or L.dim != 2:
        raise ValueError("lemma-check runs in the plane")
    if bd.affine_rank(M.vertices) + bd.affine_rank(L.vertices) < 2:
        raise ValueError("lemma-check needs a 2-D difference body; M and L "
                         "are a point and a point or a segment")


def separation_lemma_check(M: bd.VPolytope, L: bd.VPolytope, trials: int,
                           rng) -> LemmaCheck:
    """Stress the boundary biconditional on random deformations of L.

    For each trial, draw g = k exp(X), build the difference body
    D = M + (-gL), and plant the translation t in one of three strata:
    interior of D, boundary of D (edge point with tangential jitter), or
    exterior. The claim under test: M and gL + t intersect AND admit a
    separating hyperplane exactly when t lies on the boundary of D.
    Interior/exterior samples landing within _SKIP_MARGIN of the boundary are
    counted as boundary_skips instead of being classified. Both predicates
    are read off one separating-axis pass (bodies.polygon_gaps); inputs are
    checked by check_lemma_inputs.
    """
    check_lemma_inputs(M, L)
    rng, _ = resolve_rng(rng)
    from .symmetric import expm_sym

    result = LemmaCheck(trials=trials, agreements=0, disagreements=0,
                        boundary_skips=0,
                        stratum_counts={"interior": 0, "boundary": 0, "exterior": 0})
    strata = ("interior", "boundary", "exterior")
    for trial in range(int(trials)):
        stratum = strata[trial % 3]
        k = sample_haar_orthogonal(2, rng)
        X = sample_gaussian_sym(2, rng)
        gL = bd.VPolytope(L.vertices @ (k @ expm_sym(X)).T)
        D = bd.minkowski_sum_vpolytopes(M, bd.VPolytope(-gL.vertices))
        lo, hi = bd.bounding_box(D)
        span = hi - lo
        t = None
        if stratum == "interior":
            for _ in range(400):
                cand = lo + rng.random(2) * span
                if (bd.contains_points(D, cand[None, :])[0]
                        and bd.polygon_boundary_distance(D, cand[None, :])[0] > _SKIP_MARGIN):
                    t = cand
                    break
        elif stratum == "exterior":
            blo = lo - 0.5 * span
            bspan = 2.0 * span
            for _ in range(400):
                cand = blo + rng.random(2) * bspan
                if (not bd.contains_points(D, cand[None, :], tol=0.0)[0]
                        and bd.polygon_boundary_distance(D, cand[None, :])[0] > _SKIP_MARGIN):
                    t = cand
                    break
        else:
            edges = _hull_edges(D)
            lengths = np.array([np.linalg.norm(b - a) for a, b in edges])
            probs = lengths / lengths.sum()
            idx = int(rng.choice(len(edges), p=probs))
            a, b = edges[idx]
            u = rng.random()
            u = float(np.clip(u + 0.1 * rng.standard_normal(), 0.0, 1.0))
            t = a + u * (b - a)
        if t is None:
            result.boundary_skips += 1
            continue
        result.stratum_counts[stratum] += 1
        _, gaps = bd.polygon_gaps(M.vertices, gL.vertices + t)
        nonempty = bool(np.all(gaps <= bd.TOL))
        separable = bool(gaps.max() >= -bd.TOL)
        on_boundary = stratum == "boundary"
        if (nonempty and separable) == on_boundary:
            result.agreements += 1
        else:
            result.disagreements += 1
            if len(result.failures) < 10:
                result.failures.append({"stratum": stratum, "t": t.tolist(),
                                        "nonempty": bool(nonempty),
                                        "separable": bool(separable)})
    return result
