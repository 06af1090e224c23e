"""The oracles the tests replay: one Mamba-2 or GDN recurrence step on a
plain (d_v, d_k) state, written token by token as the recurrences are
defined, beside the chunkwise scans of ``kernels`` that it checks; the
padded forward, which reads a forward's transitions from d_k zero value
columns started from the identity; and GKA's solves in the allocating form
that takes every product, even with a zero state, whose bits the in-place
kernels keep: the Chebyshev recurrence, the blocks' products with their
start states, and the Woodbury block with A^-1 = I / lam. The UT solve
and the SSD terms are kept in the form that takes both products at every
doubling level and builds the triangle masks on every call, and PICASO-R
over dense transitions in the form that also takes the three products
its total never reads; the kernels and the composer keep their bits.
Two forms are kept that the kernels match to rounding only: the
recurrence-form GKA scan that updates S at every token, and the Woodbury
block that inverts its own A instead of taking it from the block before."""

from functools import reduce

import numpy as np

from hybridssm.kernels import CHUNK, WOODBURY_TAU, _blocks, _ut_solve, sherman_morrison_downdate
from hybridssm.ssm_core import SsmKind, ssm_forward


def ssm_step(kind: SsmKind | str, s: np.ndarray, k_t, v_t, *, gamma: float = 1.0,
             beta: float = 1.0) -> np.ndarray:
    """S' = gamma S + v k^T (Mamba-2, which ignores beta) or
    S' = gamma S (I - beta k k^T) + beta v k^T (GDN)."""
    kind = SsmKind(kind)
    if kind is SsmKind.GKA:
        raise ValueError("the step oracle covers Mamba-2 and GDN")
    if not 0.0 < gamma <= 1.0:
        raise ValueError(f"gamma out of (0, 1]: {gamma}")
    if not 0.0 <= beta <= 1.0:
        raise ValueError(f"beta out of [0, 1]: {beta}")
    k_t = np.asarray(k_t, dtype=np.float64)
    v_t = np.asarray(v_t, dtype=np.float64)
    if k_t.shape != (s.shape[1],) or v_t.shape != (s.shape[0],):
        raise ValueError(f"k/v shapes {k_t.shape}/{v_t.shape} incompatible with state {s.shape}")
    if kind is SsmKind.MAMBA2:
        return gamma * s + np.outer(v_t, k_t)
    return gamma * (s - beta * np.outer(s @ k_t, k_t)) + beta * np.outer(v_t, k_t)


def padded_forward(kind: SsmKind | str, k: np.ndarray, v: np.ndarray, q: np.ndarray, gates):
    """A Mamba-2/GDN forward from the zero state that also returns its
    transitions: (y, s_end, aq, a_end) with aq[t] = A_{1:t} q_t and
    a_end = A_{1:T} (dense for both kinds). The forward is linear in the
    values and in S_0, so one forward over the values and d_k zero value
    columns from S_0 = [0; I] gives (y, s_end) in its first d_v output
    columns and state rows and (aq, a_end) in the rest."""
    (T, d_k), d_v = np.shape(k), np.shape(v)[1]
    y, s = ssm_forward(kind, k, np.hstack([v, np.zeros((T, d_k))]), q, gates,
                       np.vstack([np.zeros((d_v, d_k)), np.eye(d_k)]))
    return y[:, :d_v], s[:d_v], y[:, d_v:], s[d_v:]


def chebyshev_allocating(matvec, lam, rhs, iters, a, b, history=True):
    """kernels.chebyshev_dense with a fresh array for every update, and the
    residual norms by np.linalg.norm (none with history=False)."""
    lam, a, b = (np.asarray(z)[..., None] if np.ndim(z) else z for z in (lam, a, b))
    theta = 0.5 * (b + a)
    delta = 0.5 * (b - a)
    x = np.zeros_like(rhs)
    r = rhs.copy()
    p = r
    alpha = 1.0 / theta
    hist = np.empty((iters,) + rhs.shape[:-1]) if history else None
    norm = np.linalg.norm if rhs.ndim == 1 else lambda res: np.linalg.norm(res, axis=-1)
    for it in range(iters):
        if it > 0:
            beta = 0.5 * (delta * alpha) ** 2 if it == 1 else (0.5 * delta * alpha) ** 2
            alpha = 1.0 / (theta - beta / alpha)
            p = r + beta * p
        x = x + alpha * p
        r = r - alpha * (matvec(p) + lam * p)
        if history:
            hist[it] = norm(r)
    return x, hist


def block_products_full(x, st, m, Kt, W, G, bufs=None):
    """kernels._block_products with the product G (x st) taken for every
    block, a zero start state's too, as the full operator
    G (x st) + ((x K^T) o W) m in fresh arrays; bufs is ignored."""
    return G * (x @ st) + ((x @ Kt) * W) @ m


def woodbury_with_inverse(h0, k, beta, q, lam, prev=None):
    """kernels._woodbury_block with A^-1 = I / lam formed for a zero state and
    multiplied as a matrix, and H_0 x in the refinement residual; a block
    handed prev takes A^-1 from it as the kernel does."""
    kb = k * np.sqrt(beta)[:, None]
    if not (np.max(np.abs(h0), initial=0.0) <= WOODBURY_TAU * lam
            and np.max(np.abs(kb), initial=0.0) <= WOODBURY_TAU * np.sqrt(lam)
            and 1.0 + np.linalg.norm(h0 / lam) <= WOODBURY_TAU):
        return None
    eye = np.eye(h0.shape[0])
    if not h0.any():
        a_inv = eye / lam
    elif prev is None:
        a_inv = np.linalg.inv(h0 + lam * eye)
    else:
        a_inv = prev[0] - prev[1].T @ prev[1]
    p = kb @ a_inv
    if not 1.0 + np.sum(p * kb) <= WOODBURY_TAU:
        return None
    r = np.linalg.cholesky(p @ kb.T + np.eye(k.shape[0]))
    d = np.diagonal(r)[:, None]
    y = _ut_solve((r / d)[None], (p / d)[None])[0]

    def solve(b):
        return b @ a_inv - np.tril(b @ y.T) @ y

    x = solve(q)
    return x + solve(q - (x @ h0 + lam * x + np.tril(x @ kb.T) @ kb)), (a_inv, y)


def woodbury_per_block_inverse(h0, k, beta, q, lam, prev=None):
    """kernels._woodbury_block with prev ignored: every block entered from a
    non-zero state inverts its own A = H_0 + lam I."""
    return woodbury_with_inverse(h0, k, beta, q, lam)


def recurrent_scan_per_token(k, v, q, beta, lam):
    """kernels.gka_recurrent_scan with S updated at every token,
    S_t = S_{t-1} + e_t g_t^T with e_t = v_t - S_{t-1} k_t."""
    T, d_k = k.shape
    phi = np.eye(d_k) / lam
    S = np.zeros((v.shape[1], d_k))
    e = np.empty((T, v.shape[1]))
    g = np.empty((T, d_k))
    write = np.empty_like(S)
    for t in range(T):
        phi, g[t] = sherman_morrison_downdate(phi, k[t], beta[t])
        e[t] = v[t] - S @ k[t]
        S += np.multiply.outer(e[t], g[t], out=write)
    return np.tril(q @ g.T) @ e, S, phi


def picaso_r_every_product(chunks):
    """composition.picaso_r over dense transitions, with the prefix loop run
    to K and the suffix product R_0 taken, which the total never reads."""
    K = len(chunks)
    eye = np.eye(chunks[0].a_acc.shape[0])
    zero = chunks[0].state * 0.0
    prefix_prod = [eye]
    prefix_caso = [zero]
    for s in range(1, K + 1):
        prefix_prod.append(prefix_prod[-1] @ chunks[s - 1].a_acc)
        prefix_caso.append(prefix_caso[-1] @ chunks[s - 1].a_acc + chunks[s - 1].state)
    suffix_prod = [eye] * (K + 1)
    suffix_caso = [zero] * (K + 1)
    for s in range(K - 1, -1, -1):
        suffix_caso[s] = chunks[s].state @ suffix_prod[s + 1] + suffix_caso[s + 1]
        suffix_prod[s] = chunks[s].a_acc @ suffix_prod[s + 1]
    total = reduce(np.add, (suffix_caso[s] @ prefix_prod[s] + prefix_caso[s] for s in range(K)))
    total *= 1.0 / K
    return total


def _diagonal_quarters(x, s):
    """Views of the quarters of the diagonal (2s x 2s) blocks of each matrix
    in x (C, P, P), a C-contiguous array: (upper-left, lower-left,
    lower-right), each (C, P / 2s, s, s). Writing to a view writes to x."""
    c, p = x.shape[:2]
    s0, s1, s2 = x.strides
    shape, strides = (c, p // (2 * s), s, s), (s0, 2 * s * (s1 + s2), s1, s2)
    return [np.ndarray(shape, x.dtype, x, offset, strides) for offset in (0, s * s1, s * (s1 + s2))]


def ut_solve_every_level(n, rhs):
    """kernels._ut_solve with both GEMMs taken at every doubling level, the
    first level's products with its 1 x 1 identity inverses too."""
    C, L = n.shape[:2]
    P = 1 << (L - 1).bit_length()
    n = np.pad(n, ((0, 0), (0, P - L), (0, P - L))) if P > L else np.ascontiguousarray(n)
    t = np.zeros((C, P, P), dtype=n.dtype)
    t.reshape(C, P * P)[:, ::P + 1] = 1.0
    s = 1
    while s < P:
        a_inv, t_lower, c_inv = _diagonal_quarters(t, s)
        t_lower[...] = -(c_inv @ _diagonal_quarters(n, s)[1]) @ a_inv
        s *= 2
    return t[:, :L, :L] @ rhs


def ssd_terms_fresh_masks(k, gamma):
    """kernels._ssd_terms with its triangular masks built on every call."""
    L = max(1, min(CHUNK, k.shape[0]))
    K = _blocks(k, L)
    cs = np.cumsum(np.log(_blocks(gamma, L, fill=1.0)), axis=1)
    D = np.subtract(cs[:, :, None], cs[:, None, :])
    tri = np.tri(L, dtype=bool)
    np.exp(D, out=D, where=tri)
    np.copyto(D, 0.0, where=~tri)
    return K, np.exp(cs), D
