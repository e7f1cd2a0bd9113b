"""Dense two-phase simplex for the small linear programs behind the body operations.

The body questions that no vertex set, axis box or closed form answers (mostly at
n >= 4: H-polytope validation and support, flat V-polytope membership; lines in
3-D; polytope pairs no distance kernel covers, two H-polytopes by the signed
margin of their stacked systems; separating hyperplanes) reduce to a linear
program with at most a few dozen variables, so a plain tableau method with
Bland's rule is adequate and keeps the dependency surface flat.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

TOL = 1e-9
_MAX_PIVOTS = 50000


@dataclass
class LPResult:
    status: str  # "optimal" | "infeasible" | "unbounded"
    x: np.ndarray | None = None
    fun: float | None = None


class SimplexError(RuntimeError):
    """Pivot limit exceeded; signals a numerically pathological program."""


def _pivot(T: np.ndarray, basis: list[int], r: int, j: int) -> None:
    T[r] /= T[r, j]
    col = T[:, j].copy()
    col[r] = 0.0
    T -= np.outer(col, T[r])
    basis[r] = j


def _run_simplex(T: np.ndarray, basis: list[int], cost: np.ndarray) -> str:
    """Minimize over a canonical tableau in place. Bland's rule, so no cycling."""
    m = T.shape[0]
    for _ in range(_MAX_PIVOTS):
        entering = -1
        for j in range(T.shape[1] - 1):
            if cost[j] < -TOL:
                entering = j
                break
        if entering < 0:
            return "optimal"
        rows = [i for i in range(m) if T[i, entering] > TOL]
        if not rows:
            return "unbounded"
        ratios = [T[i, -1] / T[i, entering] for i in rows]
        best = min(ratios)
        # ties broken by smallest basis index, the other half of Bland's rule
        r = min((i for i, q in zip(rows, ratios) if q <= best + 1e-12),
                key=lambda i: basis[i])
        _pivot(T, basis, r, entering)
        cost -= cost[entering] * T[r]
    raise SimplexError("simplex failed to terminate")


def solve_lp(c, A_ub=None, b_ub=None, A_eq=None, b_eq=None,
             nonneg: bool = False) -> LPResult:
    """Minimize c.x subject to A_ub x <= b_ub and A_eq x = b_eq.

    Variables are free unless nonneg is set, in which case all of them are
    constrained to x >= 0 (no per-variable bounds are needed by the callers).
    """
    c = np.asarray(c, dtype=float)
    n = c.size
    rows = []
    rhs = []
    n_ub = 0
    if A_ub is not None:
        A_ub = np.atleast_2d(np.asarray(A_ub, dtype=float))
        b_ub = np.atleast_1d(np.asarray(b_ub, dtype=float))
        n_ub = A_ub.shape[0]
        rows.append(A_ub)
        rhs.append(b_ub)
    if A_eq is not None:
        A_eq = np.atleast_2d(np.asarray(A_eq, dtype=float))
        b_eq = np.atleast_1d(np.asarray(b_eq, dtype=float))
        rows.append(A_eq)
        rhs.append(b_eq)
    if not rows:
        return LPResult("optimal", np.zeros(n), 0.0)
    A = np.vstack(rows)
    b = np.concatenate(rhs)
    m = A.shape[0]

    if nonneg:
        A_std = A.copy()
        c_std = c.copy()
    else:
        A_std = np.hstack([A, -A])  # x = x+ - x-
        c_std = np.concatenate([c, -c])
    slack = np.zeros((m, n_ub))
    slack[:n_ub] = np.eye(n_ub)
    A_std = np.hstack([A_std, slack])
    c_std = np.concatenate([c_std, np.zeros(n_ub)])

    neg = b < 0
    A_std[neg] *= -1.0
    b = np.where(neg, -b, b)

    n_std = A_std.shape[1]
    T = np.hstack([A_std, np.eye(m), b[:, None]])
    basis = list(range(n_std, n_std + m))
    cost = np.concatenate([np.zeros(n_std), np.ones(m), [0.0]])
    for i in range(m):
        cost -= T[i]
    status = _run_simplex(T, basis, cost)
    if status != "optimal" or -cost[-1] > 1e-7:
        return LPResult("infeasible")

    # drive leftover artificials out of the basis; a row that cannot pivot is redundant
    keep = []
    for i in range(len(basis)):
        if basis[i] < n_std:
            keep.append(i)
            continue
        piv = -1
        for j in range(n_std):
            if abs(T[i, j]) > TOL:
                piv = j
                break
        if piv >= 0:
            _pivot(T, basis, i, piv)
            keep.append(i)
    T = np.hstack([T[keep, :n_std], T[keep, -1:]])
    basis = [basis[i] for i in keep]

    cost = np.concatenate([c_std, [0.0]])
    for i, j in enumerate(basis):
        cost -= cost[j] * T[i]
    status = _run_simplex(T, basis, cost)
    if status == "unbounded":
        return LPResult("unbounded")

    z = np.zeros(n_std)
    for i, j in enumerate(basis):
        z[j] = T[i, -1]
    x = z[:n] if nonneg else z[:n] - z[n:2 * n]
    return LPResult("optimal", x, float(c @ x))


def feasible(A, b, nonneg: bool = False, A_eq=None, b_eq=None) -> np.ndarray | None:
    """A point satisfying A x <= b (and optional equalities), or None."""
    n = np.atleast_2d(A).shape[1] if A is not None else np.atleast_2d(A_eq).shape[1]
    res = solve_lp(np.zeros(n), A_ub=A, b_ub=b, A_eq=A_eq, b_eq=b_eq, nonneg=nonneg)
    return res.x if res.status == "optimal" else None


def signed_margin(A, b) -> tuple[float, np.ndarray] | None:
    """Largest r with A x + r ||a_i|| <= b, i.e. the signed inradius of {Ax <= b}.

    Positive r means a full-dimensional interior, zero a degenerate but nonempty
    set, negative that the system is infeasible by that margin. Returns None when
    the margin is unbounded above (normals do not positively span).
    """
    A = np.atleast_2d(np.asarray(A, dtype=float))
    norms = np.linalg.norm(A, axis=1)
    m, n = A.shape
    A_aug = np.hstack([A, norms[:, None]])
    cvec = np.zeros(n + 1)
    cvec[-1] = -1.0
    res = solve_lp(cvec, A_ub=A_aug, b_ub=b)
    if res.status == "unbounded":
        return None
    if res.status != "optimal":  # cannot happen: large negative r always feasible
        raise SimplexError("signed margin program failed")
    return float(res.x[-1]), res.x[:-1]


def support_hrep(A, b, u) -> tuple[float, np.ndarray]:
    """max <u, x> over {A x <= b}; raises ValueError on an unbounded direction."""
    u = np.asarray(u, dtype=float)
    res = solve_lp(-u, A_ub=A, b_ub=b)
    if res.status == "unbounded":
        raise ValueError("support function is unbounded in this direction")
    if res.status != "optimal":
        raise ValueError("empty halfspace system has no support function")
    return -res.fun, res.x
