"""Causal mixing matrices and their Hankel-rank profiles.

A single attention head applies a T x T lower-triangular, row-stochastic
mixing matrix to its value sequence. The rank of the past-to-future block
at each time cut bounds the state dimension any recurrent model needs to
reproduce the head's input-output map; ``hankel_profile`` computes that
bound at every cut, and ``max_hankel_rank`` only its maximum, from the
cuts that can still raise it. Sliding-window variants are banded, which
caps the profile at the window size.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import kernels

DEFAULT_RANK_TOL = 1e-10


@dataclass(frozen=True)
class TokenSequence:
    """Per-step query/key/value vectors for one head.

    q, k: (T, d_k); v: (T, d_v). All entries finite, T >= 1.
    """

    q: np.ndarray
    k: np.ndarray
    v: np.ndarray

    def __post_init__(self):
        q = np.asarray(self.q, dtype=np.float64)
        k = np.asarray(self.k, dtype=np.float64)
        v = np.asarray(self.v, dtype=np.float64)
        object.__setattr__(self, "q", q)
        object.__setattr__(self, "k", k)
        object.__setattr__(self, "v", v)
        if q.ndim != 2 or k.ndim != 2 or v.ndim != 2:
            raise ValueError("q, k, v must be 2-D (T, dim) arrays")
        if q.shape[0] < 1:
            raise ValueError("need at least one token")
        if q.shape != k.shape:
            raise ValueError(f"q/k dimension mismatch: {q.shape} vs {k.shape}")
        if v.shape[0] != q.shape[0]:
            raise ValueError(f"v length {v.shape[0]} != T {q.shape[0]}")
        for name, arr in (("q", q), ("k", k), ("v", v)):
            if not np.all(np.isfinite(arr)):
                raise ValueError(f"non-finite entries in {name}")

    @property
    def T(self) -> int:
        return self.q.shape[0]

    @property
    def d_k(self) -> int:
        return self.q.shape[1]

    @property
    def d_v(self) -> int:
        return self.v.shape[1]


def random_token_sequence(T: int, d_k: int, d_v: int | None = None,
                          scale: float = 1.0,
                          rng: np.random.Generator | None = None) -> TokenSequence:
    rng = rng or np.random.default_rng()
    d_v = d_k if d_v is None else d_v
    return TokenSequence(
        q=scale * rng.standard_normal((T, d_k)),
        k=scale * rng.standard_normal((T, d_k)),
        v=rng.standard_normal((T, d_v)),
    )


@dataclass(frozen=True)
class MixingMatrix:
    """Lower-triangular causal mixer. Rows of softmax-built mixers sum to 1."""

    m: np.ndarray
    kind: str = "custom"  # "attention" | "swa" | "custom"
    window: int | None = None

    def __post_init__(self):
        m = np.asarray(self.m, dtype=np.float64)
        object.__setattr__(self, "m", m)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValueError(f"mixing matrix must be square, got {m.shape}")
        if not np.all(np.isfinite(m)):
            raise ValueError("non-finite entries in mixing matrix")
        if np.any(np.triu(m, k=1) != 0.0):
            raise ValueError("mixing matrix must be lower-triangular (exact zeros above diagonal)")

    @property
    def T(self) -> int:
        return self.m.shape[0]

    def row_sum_error(self) -> float:
        return float(np.max(np.abs(self.m.sum(axis=1) - 1.0)))


def causal_softmax_rows(scores: np.ndarray, w: int | None = None) -> np.ndarray:
    """Row-wise causal softmax: row i over columns lo_i..i, where lo_i = 0,
    or max(i - w + 1, 0) under a window of w.

    Subtracting the row max of the real part keeps the exponentials in
    range; softmax is shift-invariant, so complex-step derivatives (see
    ``autodiff``) are unaffected.
    """
    T = scores.shape[0]
    lo = np.zeros(T, dtype=np.int64) if w is None else np.maximum(np.arange(T) - w + 1, 0)
    m = np.zeros_like(scores)
    for i in range(T):
        row = scores[i, lo[i]:i + 1]
        e = np.exp(row - row.real.max())
        m[i, lo[i]:i + 1] = e / e.sum()
    return m


def build_attention_mixer(seq: TokenSequence) -> MixingMatrix:
    """Causal softmax mixer: M[i, j] = softmax_j<=i(q_i . k_j)."""
    return MixingMatrix(causal_softmax_rows(seq.q @ seq.k.T), kind="attention")


def build_swa_mixer(seq: TokenSequence, w: int) -> MixingMatrix:
    """Sliding-window mixer: like attention but each row renormalizes over
    the last w positions only (M[i, j] = 0 for j < i - w + 1)."""
    if w < 1:
        raise ValueError(f"window must be >= 1, got {w}")
    return MixingMatrix(causal_softmax_rows(seq.q @ seq.k.T, w), kind="swa", window=w)


def hankel_block(m: np.ndarray, k: int) -> np.ndarray:
    """Past-to-future block at cut k (1 <= k < T): rows k.., columns ..k."""
    return m[k:, :k]


@dataclass(frozen=True)
class HankelProfile:
    """Numerical ranks of every past-to-future block and their maximum,
    the minimal state dimension realizing the mixer."""

    ranks: np.ndarray                      # (T-1,) ints; ranks[i] is cut k=i+1
    n_min: int
    singular_values: list = field(repr=False)  # per-cut singular values

    def top_singular_values(self) -> np.ndarray:
        return np.array([sv[0] if len(sv) else 0.0 for sv in self.singular_values])


def numerical_rank(s: np.ndarray, rank_tol: float = DEFAULT_RANK_TOL) -> int:
    """Number of singular values (sorted descending) above rank_tol times
    the largest one; 0 for an empty or zero block."""
    if not s.size or s[0] <= 0.0:
        return 0
    return int(np.count_nonzero(s > rank_tol * s[0]))


def _checked_causal(m: MixingMatrix | np.ndarray, rank_tol: float) -> np.ndarray:
    """The mixer as a float64 array, after checking that it is square,
    finite and lower-triangular and that rank_tol lies in (0, 1)."""
    mat = m.m if isinstance(m, MixingMatrix) else np.asarray(m, dtype=np.float64)
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
        raise ValueError(f"need a square matrix, got shape {mat.shape}")
    kernels.check_finite_entries(mat)
    upper = np.triu(mat, k=1)
    if upper.any():
        bad = np.argwhere(upper)[0]
        raise ValueError("matrix must be lower-triangular, nonzero entry above the "
                         f"diagonal at (row, col) = {tuple(int(i) for i in bad)}")
    if not 0.0 < rank_tol < 1.0:
        raise ValueError(f"rank_tol must be in (0, 1), got {rank_tol}")
    return mat


def _cut_pair(mat: np.ndarray, k: int) -> np.ndarray:
    """Cut k's block and, unless k is the middle cut, cut T-k's block
    transposed, stacked as one (2 or 1, T-k, k) array for one SVD call."""
    j = mat.shape[0] - k
    return np.stack([hankel_block(mat, k)] + ([hankel_block(mat, j).T] if j != k else []))


def _cut_svds(mat: np.ndarray, rank_tol: float, bases: bool):
    """Yield (k, s, r, q) for every cut k of the square mat, in the order
    k = 1, T-1, 2, T-2, ...: the singular values s of H_k = M[k:, :k], its
    rank r = numerical_rank(s, rank_tol) and, with bases, an orthonormal
    basis q of im(H_k) with r columns (None without).

    Cut k's block is (T-k) x k and cut T-k's block transposed has the same
    shape, so the two go through one stacked values-only SVD call:
    ceil((T-1)/2) calls, with the middle cut of an even T alone. A
    transpose has the same singular values.

    While every pair so far has full rank k in both cuts, any orthonormal
    basis of im(H_k) will do: the wide cut T-k has k rows and full row
    rank, so its basis is I_k, as is the square middle cut's, and the tall
    cut k takes the reduced Householder Q of its block. From the first pair
    that holds a rank-deficient cut on, each pair's bases come from one
    stacked thin SVD with vectors: cut k's left vectors, and the right
    vectors of cut T-k's transposed block, which are that cut's left
    vectors. Deficiency is inherited inward, as
    rank H_{k+1} <= rank H_k + 1 (H_{k+1} is H_k less its first row, plus
    one column) and rank H_{j-1} <= rank H_j + 1, so no later pair could
    take the QR path and only that first pair pays for both calls.
    """
    T = mat.shape[0]
    deficient = False  # some pair so far holds a rank-deficient cut
    for k in range(1, T // 2 + 1):
        j = T - k
        blocks = _cut_pair(mat, k)
        if deficient:
            u, s, vh = np.linalg.svd(blocks, full_matrices=False)
        else:
            s = np.linalg.svd(blocks, compute_uv=False)
        ranks = [numerical_rank(sv, rank_tol) for sv in s]
        if bases and not deficient and min(ranks) < k:  # the first deficient pair
            deficient = True
            u, _, vh = np.linalg.svd(blocks, full_matrices=False)
        if not bases:
            qs = [None, None]
        elif deficient:  # copies, so the stacked factors are not kept alive
            qs = [u[0, :, :ranks[0]].copy(), vh[-1, :ranks[-1]].T.copy()]  # [1] unread if j == k
        else:
            eye = np.eye(k)
            qs = [eye if j == k else np.linalg.qr(blocks[0])[0], eye]
        yield k, s[0], ranks[0], qs[0]
        if j != k:
            yield j, s[1], ranks[1], qs[1]


def hankel_profile(m: MixingMatrix | np.ndarray,
                   rank_tol: float = DEFAULT_RANK_TOL) -> HankelProfile:
    """Rank of M[k:, :k] for every cut, by ``numerical_rank``. Cuts k and
    T-k share one SVD call (``_cut_svds``)."""
    mat = _checked_causal(m, rank_tol)
    T = mat.shape[0]
    ranks = np.zeros(max(T - 1, 0), dtype=np.int64)
    svs: list[np.ndarray] = [None] * ranks.size
    for k, s, r, _ in _cut_svds(mat, rank_tol, bases=False):
        svs[k - 1] = s
        ranks[k - 1] = r
    n_min = int(ranks.max()) if ranks.size else 0
    return HankelProfile(ranks=ranks, n_min=n_min, singular_values=svs)


def _max_cut_rank(mat: np.ndarray, rank_tol: float) -> int:
    """``max_hankel_rank`` of a mixer that ``_checked_causal`` has passed."""
    best, k = 0, mat.shape[0] // 2
    while k > best:  # pairs k and below have rank at most k
        s = np.linalg.svd(_cut_pair(mat, k), compute_uv=False)
        best = max(best, *(numerical_rank(sv, rank_tol) for sv in s))
        k -= 1
    return best


def max_hankel_rank(m: MixingMatrix | np.ndarray, rank_tol: float = DEFAULT_RANK_TOL) -> int:
    """``hankel_profile(m, rank_tol).n_min`` from only the cuts that can
    still raise it.

    Cut k's block is (T-k) x k, so cuts k and T-k have rank at most
    min(k, T-k). The search visits the cut pairs from the middle outward,
    k = T//2 down to 1, each through the same stacked values-only SVD as
    ``_cut_svds`` (so each cut's rank is the profile's), and stops once the
    largest rank found is at least k. A mixer of full rank at its middle
    cut takes one SVD call where the profile takes ceil((T-1)/2).
    """
    return _max_cut_rank(_checked_causal(m, rank_tol), rank_tol)
