"""Minimal linear time-varying realizations of causal mixing matrices.

Given a lower-triangular M, ``realize`` builds per-step system matrices
(A_t, B_t, C_t, D_t) of state dimension n = max Hankel rank whose
finite-horizon input-output matrix reproduces M entrywise, and
``io_matrix`` materializes that matrix back.

Convention ("past-only-state"): the state s_t summarizes inputs strictly
before t,

    y_t = s_t C_t + v_t D_t,        s_{t+1} = s_t A_t + v_t B_t,

so the impulse response is T_ij = B_j A_{j+1} ... A_{i-1} C_i for i > j and
T_ii = D_i = M_ii. Under this convention the unit-delay matrix (Hankel rank
1) is realizable at n = 1, which the read-after-write indexing cannot do.

Construction: at each time cut k the reachable future-tail space is
im(H_k) with H_k = M[k:, :k], and Q_k is any orthonormal basis of it with
r_k = rank H_k columns. Cuts k and T - k share one stacked values-only SVD
(``mixing._cut_svds``), whose singular values give each cut's rank r_k
(``mixing.numerical_rank``). While every pair so far has full rank, the
basis needs no singular vectors: the wide cut T - k (k rows, full row
rank) takes Q = I_k, as does the square middle cut, and the tall cut k
takes the reduced Householder Q of its block. From the first pair that
holds a rank-deficient cut on, Q_k is the r_k leading left singular
vectors, from one stacked thin SVD with vectors per pair. Deficiency is
inherited inward (rank H_{k+1} <= rank H_k + 1 on the tall side,
rank H_{j-1} <= rank H_j + 1 on the wide side), so only that first pair
pays for both calls. Advancing the cut drops the tail's first coordinate
(P_k) and adds the new input's column, which in coordinates gives

    A_{k+1}^T = Q_{k+1}^+ P_k Q_k,      B_{k+1}^T = Q_{k+1}^+ M[k+1:, k],

with Q^+ = Q^T since the columns are orthonormal. The output reads the
tail's first coordinate: C_k = Q_k^T e_1. The stored A_t, B_t and C_t are
n wide and zero outside their cuts' rank blocks, so the state coordinates
past a cut's rank are never reached and stay 0. On a mixer of full rank at
every cut, Q_t = I for t >= T/2, so there A_t is an exact 0/1 shift, B_t
the column M[t+1:, t] and C_t = e_1: the state holds the pending future
contributions of the past inputs, one coordinate per future step.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .mixing import (DEFAULT_RANK_TOL, MixingMatrix, _checked_causal, _cut_svds,
                     hankel_profile, numerical_rank)
from .tensorio import obj_to_tensor, tensor_to_obj

CONVENTION = "past-only-state"


@dataclass(frozen=True)
class TimeVaryingRealization:
    """Per-step system matrices; a: (T, n, n), b: (T, n), c: (T, n), d: (T,).

    b[t] is the row vector B_t; c[t] stores the column vector C_t. n = 0
    means pure feedthrough.
    """

    a: np.ndarray
    b: np.ndarray
    c: np.ndarray
    d: np.ndarray
    convention: str = CONVENTION

    def __post_init__(self):
        if self.convention != CONVENTION:
            raise ValueError(f"unknown convention tag: {self.convention!r}")
        T, n = self.b.shape
        if self.a.shape != (T, n, n) or self.c.shape != (T, n) or self.d.shape != (T,):
            raise ValueError("inconsistent system matrix shapes")
        for name in ("a", "b", "c", "d"):
            if not np.all(np.isfinite(getattr(self, name))):
                raise ValueError(f"non-finite entries in {name}")

    @property
    def n(self) -> int:
        return self.b.shape[1]

    @property
    def T(self) -> int:
        return self.b.shape[0]


def realize(m: MixingMatrix | np.ndarray,
            rank_tol: float = DEFAULT_RANK_TOL) -> TimeVaryingRealization:
    """Construct a state-dimension n_min realization of the causal mixer m.

    Each cut's basis Q_t is an orthonormal basis of im(M[t:, :t]) with
    rank-many columns (``mixing._cut_svds``): I or a Householder Q while
    every cut pair so far has full rank, which needs only the singular
    values, and the rank-truncated left singular vectors from the first
    rank-deficient pair on, which inherits deficiency inward. A_t, B_t and
    C_t start at zero and each cut writes only its own rank block:
    A_t[:r_t, :r_{t+1}] = Q_t[1:]^T Q_{t+1}, B_{t-1}[:r_t] = Q_t^T M[t:, t-1]
    and C_t[:r_t] = Q_t[0]. A_0 and A_{T-1} are the identity.
    Where every cut has full rank, A_t is an exact 0/1 shift for t >= T/2.
    """
    mat = _checked_causal(m, rank_tol)
    T = mat.shape[0]
    bases = [None] * T  # Q_t of cuts t = 1..T-1
    for k, _, _, q in _cut_svds(mat, rank_tol, bases=True):
        bases[k] = q
    n = max((q.shape[1] for q in bases[1:]), default=0)

    a = np.zeros((T, n, n))
    if T:
        a[[0, -1]] = np.eye(n)
    b = np.zeros((T, n))
    c = np.zeros((T, n))
    d = np.diag(mat).copy()
    for t in range(1, T):
        q = bases[t]
        c[t, :q.shape[1]] = q[0]
        b[t - 1, :q.shape[1]] = q.T @ mat[t:, t - 1]
    for t in range(1, T - 1):
        q, q_next = bases[t], bases[t + 1]
        a[t, :q.shape[1], :q_next.shape[1]] = q[1:].T @ q_next
    return TimeVaryingRealization(a=a, b=b, c=c, d=d)


def io_matrix(r: TimeVaryingRealization) -> np.ndarray:
    """Dense finite-horizon input-output matrix of the realization:
    T_ij = B_j A_{j+1} ... A_{i-1} C_i below the diagonal, D_i on it.

    Row j of the carried state matrix is the state that input j has
    reached, so each step is one product with C_i and one with A_i.
    """
    out = np.diag(r.d).astype(np.float64)
    states = np.zeros((r.T, r.n))
    for i in range(1, r.T):
        states[i - 1] = r.b[i - 1]
        out[i, :i] = states[:i] @ r.c[i]
        states[:i] = states[:i] @ r.a[i]
    return out


@dataclass(frozen=True)
class MinimalityReport:
    reconstruction_error: float
    n: int
    n_min: int
    is_minimal: bool


def verify_minimality(r: TimeVaryingRealization, m: MixingMatrix | np.ndarray,
                      rank_tol: float = DEFAULT_RANK_TOL) -> MinimalityReport:
    """Max-abs reconstruction error of r against m, and whether r's state
    dimension matches m's Hankel-rank lower bound."""
    mat = m.m if isinstance(m, MixingMatrix) else np.asarray(m, dtype=np.float64)
    if mat.shape[0] != r.T:
        raise ValueError(f"realization has horizon {r.T}, mixer has horizon {mat.shape[0]}")
    n_min = hankel_profile(mat, rank_tol).n_min
    err = float(np.max(np.abs(io_matrix(r) - mat), initial=0.0))
    return MinimalityReport(reconstruction_error=err, n=r.n, n_min=n_min,
                            is_minimal=(r.n == n_min))


def save_realization(path: str, r: TimeVaryingRealization) -> None:
    obj = {
        "manifest": {"n": r.n, "T": r.T, "convention": r.convention},
        "a": tensor_to_obj(r.a),
        "b": tensor_to_obj(r.b),
        "c": tensor_to_obj(r.c),
        "d": tensor_to_obj(r.d),
    }
    with open(path, "w") as f:
        json.dump(obj, f, sort_keys=True)
        f.write("\n")


def load_realization(path: str) -> TimeVaryingRealization:
    with open(path) as f:
        obj = json.load(f)
    r = TimeVaryingRealization(
        a=obj_to_tensor(obj["a"]), b=obj_to_tensor(obj["b"]),
        c=obj_to_tensor(obj["c"]), d=obj_to_tensor(obj["d"]),
        convention=obj["manifest"]["convention"],
    )
    if r.n != obj["manifest"]["n"] or r.T != obj["manifest"]["T"]:
        raise ValueError("manifest disagrees with stored tensors")
    return r
