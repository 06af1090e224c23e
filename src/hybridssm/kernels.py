"""Numpy kernels: the chunkwise Mamba-2 (SSD) and GDN (WY) scans, which
chain their per-chunk terms (_ssd_chunks, _wy_chunks; chunk_terms returns
either) by one carry (_carry), GDN's
chunk systems solved by one blocked UT inverse for all chunks, GDN's
per-chunk zero-start end states and transitions from the key/value half of
that solve alone (no queries, no carried state), the GKA
information-form forward in SSD-form blocks (exact solves, by block
Woodbury where a block allows it and per token otherwise, or Chebyshev
solves), GKA's decayed rank-one information write, Chebyshev iteration
over a batch of systems, the in-place Sherman-Morrison downdate and the
recurrence-form GKA scan built on it, and the causal conv1d.

Each computation has exactly one body here; ``ssm_core``, ``seqpar`` and
``composition`` call these rather than restating them.

Conventions: states are ``d_v x d_k`` matrices updated on the right
(``S_t = S_{t-1} A_t + v_t B_t``), outputs are ``y_t = S_t q_t``. A block's
transition a_end takes one of two shapes: Mamba-2's is the scalar decay
G_L as a (1, 1) array, which scales the state, and GDN's a dense
(d_k, d_k) matrix, which multiplies it; no G_L I is ever built. All
arrays are C-contiguous float64, or complex128 when a complex-step
derivative runs through them (see ``autodiff``); a GEMM that reads the
blocked keys transposed reads a C-contiguous copy (``_transposed``), so
the chunk GEMMs Q K^T and K K^T are NN products.

The kernels pay only for what the result reads. The decay matrix D is
exponentiated only on and below its diagonal, through the two (L, L)
triangle masks, which are built once per block length and shared
read-only (_triangles). The blocked UT solve's first doubling level takes
no product, since its inverses are 1 x 1 ones, and every later level
builds only the four strided views it reads. A finiteness check tests a
whole array first; the row-wise mask that locates the first bad row
(``first_non_finite_row``, which ``ssm_core``'s checks call, and GDN's
overflow mask) is built only once that test fails.
GKA's Woodbury blocks invert no triangular factor, no zero state and no
A that the block before can hand on: a block takes one triangular solve;
a block entered from the zero state takes no product with it at all; a
block after a Woodbury block of the same lam takes its A^-1 from that
block's factors in one GEMM; so only a block after a per-token one, or
after one of another lam, takes an inverse. The recurrence-form scan
takes one product with Phi per token, reads its state once per block of
tokens, not at every token, and reads all its outputs in one GEMM after
the loop.

The kernels also keep their working set small. Each chunk-sized term
takes one buffer, built in place wherever that buffer's dtype holds the
result, and each temporary is freed once its last reader has run: GDN's
system is freed inside its solve, its query half is formed only after
the key/value half, and its outputs are written over the solve's; the
transposed keys are copied again for the queries rather than kept alive
through the solve. At T = 1024 and d = 64 (16 chunks; a (C, L, d) float64
array is 0.5 MiB) one GDN forward so allocates at most 3.0 MiB at a time
(Mamba-2's 2.6 MiB, tracemalloc). Whether glibc's heap keeps those blocks
between calls depends on its layout, not on the call alone: in the
benchmark's request order (scripts/fault_profile.py) the Mamba-2 forward
takes 0 minor faults a request, but in a loop of 1,000 forwards on one
input it takes 352-608 a call. GKA's rank-one write (decayed_rank_one)
adds its outer product one strip of rows at a time, so its only array of
the state's size is the one it returns. GKA's Chebyshev forward scales
each row's system by 1 / ||H_t||_F, so that its rows share one interval and
the iteration's coefficients are scalars, and it forms no residual norm;
only a single vector's solve (``ssm_core.chebyshev_solve``, decode) keeps
its history. The Chebyshev iteration and GKA's
Chebyshev operator allocate their arrays once and update them in place:
in a loop of T = 1024 forwards, fresh 0.5 MiB temporaries in every
iteration were handed back to the OS when freed and faulted in again,
8,000-11,000 pages a call.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

USING_NUMBA = False  # recorded by run manifests; every kernel is plain numpy


CHUNK = 64  # tokens per block of the chunkwise scans and GKA's forward


def first_non_finite_row(x):
    """The first row (index on axis 0) of x holding a non-finite entry, or
    None if every entry is finite. The whole array is tested first, and the
    row is located only once that test fails: the row-wise reduction costs
    two to three times the plain test, and almost every array passes."""
    if np.isfinite(x).all():
        return None
    return int(np.argmax(~np.isfinite(x).all(axis=tuple(range(1, x.ndim)))))


def check_finite_entries(x):
    """Raise ValueError naming the (row, col) of the first non-finite entry
    of the 2-D x, if it has one."""
    if not np.isfinite(x).all():
        bad = np.argwhere(~np.isfinite(x))[0]
        raise ValueError(f"non-finite entry at (row, col) = {tuple(int(i) for i in bad)}")


def frobenius_norm(a):
    """||a||_F as a float, also where only the sum of squares overflows:
    np.linalg.norm squares the entries, so it reads inf once an entry
    passes about 1e154 although a is finite. Then the norm of a scaled by
    a power of two near 1 / max|a|, which scales every entry exactly, is
    scaled back. Wherever the plain norm is finite it is returned as is."""
    with np.errstate(over="ignore"):  # taken again below; a norm past the range stays inf
        return float(_scaled_norm(a))


def _scaled_norm(a):
    """frobenius_norm's rule, for callers already under np.errstate(over=...)."""
    norm = np.linalg.norm(a)
    if norm == np.inf and np.isfinite(a).all():
        e = int(np.frexp(np.max(np.abs(a)))[1])
        norm = np.ldexp(np.linalg.norm(np.ldexp(a, -e)), e)
    return norm


def _blocks(x, L, fill=0.0):
    """x (T, ...) padded with `fill` to whole chunks of L, as (C, L, ...)."""
    pad = -x.shape[0] % L
    if pad:
        x = np.concatenate([x, np.full((pad,) + x.shape[1:], fill)])
    return x.reshape((x.shape[0] // L, L) + x.shape[1:])


def _into(buf, op, a, b):
    """op(a, b), written over buf, one of a and b, where buf's dtype holds
    the result: a real buf with a complex operand (a complex-step gamma or
    beta through real keys, see ``autodiff``) takes a new buffer. The
    operands keep the order of the expression they replace: numpy's complex
    product a * b can differ from b * a in the last bit."""
    return op(a, b, out=buf if np.result_type(a, b) == buf.dtype else None)


def _ssd_terms(k, gamma):
    """The state-free terms shared by both scans and GKA's forward, per
    chunk of L = min(CHUNK, T) tokens (a short last chunk is padded with
    tokens that neither decay nor write). G[t] = gamma_1 ... gamma_t and
    D[t, i] = gamma_{i+1} ... gamma_t on and below the diagonal, 0 above
    it. Both come from the cumulative log-decays cs, D as exp(cs_t - cs_i),
    so a small gamma never makes D a ratio of two underflowed products. D
    is exponentiated only on and below the diagonal, where it is read: the
    upper triangle's exp(cs_t - cs_i) would overflow for a tiny gamma.

    Returns (K, G, D): the blocked keys K, G and D."""
    L = max(1, min(CHUNK, k.shape[0]))
    K = _blocks(k, L)
    cs = np.cumsum(np.log(_blocks(gamma, L, fill=1.0)), axis=1)
    D = np.subtract(cs[:, :, None], cs[:, None, :])
    lower, upper = _triangles(L)
    np.exp(D, out=D, where=lower)
    np.copyto(D, 0.0, where=upper)
    return K, np.exp(cs), D


@lru_cache(maxsize=CHUNK)  # one entry per block length L <= CHUNK
def _triangles(L):
    """The (L, L) boolean masks of the entries on and below the diagonal
    and of those above it, built once per block length and read-only,
    since every caller shares them."""
    lower = np.tri(L, dtype=bool)
    upper = ~lower
    lower.flags.writeable = upper.flags.writeable = False
    return lower, upper


def _transposed(K):
    """Each block of K transposed, C-contiguous, so that products with it
    are NN GEMMs."""
    return np.ascontiguousarray(K.transpose(0, 2, 1))


def _scores(q, K, D):
    """qk = (Q K^T) o D of the blocked queries Q, in the buffer of Q K^T."""
    qk = _blocks(q, K.shape[1]) @ _transposed(K)
    return _into(qk, np.multiply, qk, D)


def _transition(S, a):
    """S a for one block's transition a: a (1, 1) scalar decay scales S, a
    (d_k, d_k) matrix multiplies it (one GEMM). For d_k = 1 the two are the
    same product, bit for bit, so the shape alone chooses."""
    return S * a if a.shape[-1] == 1 else S @ a


def _carry(aq, a_end, y0, e, s0, T):
    """Chain the chunks from s0: with S_c the state entering chunk c,
    y_c = y0_c + aq_c S_c^T and S_{c+1} = e_c + S_c a_end_c, where y0 and e
    are the chunks' zero-start outputs and end states (chunk_terms). a_end
    is (C, 1, 1), Mamba-2's scalar decays, which scale S, or (C, d_k, d_k),
    GDN's dense transitions, which multiply it (_transition). s0 is
    (d_v, d_k), as e_c is. Each chunk's outputs are written straight into
    its rows of y.

    When s0 has rows that are exactly zero, the first chunk multiplies only
    the others: a zero row's products are exactly zero, except where a row
    of aq or a_end overflowed, which a zero row would read as 0 * inf = NaN.
    A zero-start forward so takes no product with its start state at all."""
    S = s0.astype(np.result_type(s0, e, a_end))
    y = np.empty(aq.shape[:2] + (S.shape[0],), dtype=np.result_type(y0, aq, S))
    live = np.flatnonzero(S.any(axis=1))
    for c in range(y.shape[0]):
        if c == 0 and live.size < S.shape[0]:
            y[0] = 0.0
            y[0][:, live] = aq[0] @ S[live].T
            s_live = _transition(S[live], a_end[0])
            S = np.zeros_like(S)
            S[live] = s_live
        else:
            np.matmul(aq[c], S.T, out=y[c])
            S = _transition(S, a_end[c])
        y[c] += y0[c]
        S += e[c]
    return y.reshape(y.shape[0] * y.shape[1], y.shape[2])[:T], S


def _ssd_chunks(k, v, q, gamma):
    """Per-chunk terms of the Mamba-2 scan in the SSD form: each chunk's
    outputs are Y = ((Q K^T) o D) V + diag(G) Q S_0^T and its end state
    V^T kd + S_0 G_L. Returns (aq, a_end, y0, e) = (diag(G) Q, G_L,
    ((Q K^T) o D) V, V^T kd), as _wy_chunks does for GDN, but with the
    transition kept a scalar: a_end is the block decays G_L as (C, 1, 1),
    which _carry applies by scaling, not a dense G_L I."""
    K, G, D = _ssd_terms(k, gamma)
    L = K.shape[1]
    V = _blocks(v, L)
    e = V.transpose(0, 2, 1) @ (D[:, -1, :, None] * K)  # V^T kd
    y0 = _scores(q, K, D) @ V
    return G[:, :, None] * _blocks(q, L), G[:, -1, None, None], y0, e


def mamba2_scan(k, v, q, gamma, s0):
    """Mamba-2 recurrence: S_t = gamma_t * S_{t-1} + v_t k_t^T, y_t = S_t q_t,
    chunkwise in the SSD form (see _ssd_chunks)."""
    return _carry(*_ssd_chunks(k, v, q, gamma), s0, k.shape[0])


def _quarter(x, s, row, col):
    """A view of one quarter of the diagonal (2s x 2s) blocks of each matrix
    in x (C, P, P), a C-contiguous array, as (C, P / 2s, s, s): row and col
    are 0 or 1, so (1, 0) is the lower-left quarter. Writing to the view
    writes to x."""
    c, p = x.shape[:2]
    s0, s1, s2 = x.strides
    return np.ndarray((c, p // (2 * s), s, s), x.dtype, x, s * (row * s1 + col * s2),
                      (s0, 2 * s * (s1 + s2), s1, s2))


def _ut_solve(n, rhs):
    """Solve (I + tril(n, -1)) x = rhs for every chunk at once; only the
    strictly lower triangle of n is read.

    The inverse of the unit lower-triangular matrix is built by doubling its
    diagonal blocks, [A 0; B C]^-1 = [A^-1 0; -(C^-1 B) A^-1 C^-1], from 1 x 1
    blocks to one block of L padded to a power of two P with identity rows:
    log2 P levels, then x is one GEMM. The first level takes no product: its
    inverses A^-1 and C^-1 are 1 x 1 ones, so its new blocks are -B exactly.
    Every later level takes two batched GEMMs over strided views of the
    three quarters of the inverse it reads and of n's lower-left quarter.
    C^-1 B is formed before the product with A^-1, so a row of a new block
    reads its own row of C^-1, rows of n and the earlier rows of A^-1: the
    exact zeros above the diagonal meet later rows of n and rhs only, which
    the inputs keep finite, and a row that overflows makes no row before it
    NaN."""
    C, L = n.shape[:2]
    P = 1 << (L - 1).bit_length()
    n = np.pad(n, ((0, 0), (0, P - L), (0, P - L))) if P > L else np.ascontiguousarray(n)
    t = np.zeros((C, P, P), dtype=n.dtype)
    t.reshape(C, P * P)[:, ::P + 1] = 1.0  # the identity: the inverse of every 1 x 1 block
    if P > 1:
        np.negative(_quarter(n, 1, 1, 0), out=_quarter(t, 1, 1, 0))
    s = 2
    while s < P:
        t_lower = _quarter(t, s, 1, 0)
        t_lower[...] = -(_quarter(t, s, 1, 1) @ _quarter(n, s, 1, 0)) @ _quarter(t, s, 0, 0)
        s *= 2
    del n  # a system passed without a name is freed before the last GEMM
    return t[:, :L, :L] @ rhs


def _wy_system(K, B, D):
    """The chunk systems' matrices diag(beta) (K K^T) o D, in the buffer of
    K K^T."""
    n = K @ _transposed(K)
    n = _into(n, np.multiply, B, n)
    return _into(n, np.multiply, n, D)


def _wy_solve(k, v, q, gamma, beta):
    """The GDN chunk terms in the gated WY/UT form.

    Within a chunk S_t = gamma_t S_{t-1} + u_t k_t^T with the pseudo-values
    u_t = beta_t (v_t - gamma_t S_{t-1} k_t). Stacked as rows they are
    U = U_0 - W S_0^T, where

        (I + diag(beta) (tril(K K^T, -1) o D)) [U_0 | W] = diag(beta) [V | G o K],

    solved by one blocked UT inverse per chunk (_ut_solve). The chunk is
    then an SSD chunk with values U: its end state is e + S_0 a_end with
    the zero-start end state e = U_0^T kd and the transition
    a_end = G_L I - W^T kd, which need no queries.

    The key/value solve comes first and the query half after it, so that
    the chunk-sized temporaries of the two are never alive together. The
    system and the right-hand side take one buffer each: the system, and
    the transposed keys it is built from, are freed inside the solve, the
    right-hand side after it. Only then are the query scores qk and kd
    formed; D is freed before e and a_end are taken (a_end as -W^T kd
    with G_L added to its diagonal), and kd after.

    Returns (x, e, a_end, qk, G): x = [U_0 | W], e, a_end, the query scores
    qk = (Q K^T) o D (None when q is None) and G."""
    d_v = v.shape[1]
    K, G, D = _ssd_terms(k, gamma)
    C, L, d_k = K.shape
    B = _blocks(beta, L)[:, :, None]
    rhs = np.empty((C, L, d_v + d_k), dtype=np.result_type(v, G, K, B))
    rhs[:, :, :d_v] = _blocks(v, L)
    np.multiply(G[:, :, None], K, out=rhs[:, :, d_v:])
    np.multiply(B, rhs, out=rhs)
    # only the system's strict lower triangle is read; passed without a
    # name, it is freed inside the solve
    x = _ut_solve(_wy_system(K, B, D), rhs)
    del rhs
    qk = None if q is None else _scores(q, K, D)
    kd = D[:, -1, :, None] * K  # the keys decayed to their chunk's end
    del D
    xt = x.transpose(0, 2, 1)
    e, a_end = xt[:, :d_v] @ kd, xt[:, d_v:] @ kd
    del kd
    # a_end = G_L I - W^T kd, formed as -W^T kd with G_L added to its diagonal
    np.negative(a_end, out=a_end)
    a_end.reshape(C, d_k * d_k)[:, ::d_k + 1] += G[:, -1:]
    return x, e, a_end, qk, G


def gdn_chunk_states(k, v, gamma, beta):
    """Every chunk's zero-start end state e = U_0^T kd and transition
    a_end = G_L I - W^T kd (see _wy_solve), from its keys, values and gates
    alone: (C, d_v, d_k) and (C, d_k, d_k) for the C chunks of CHUNK tokens.
    Folded in order from S = S_0, S <- S a_end_c + e_c gives the state after
    the last chunk, as _carry does for the scan."""
    _, e, a_end, _, _ = _wy_solve(k, v, None, gamma, beta)
    return e, a_end


def _wy_chunks(k, v, q, gamma, beta):
    """Per-chunk terms of the GDN scan: _wy_solve's key/value half, and
    then, from its query scores, the outputs of an SSD chunk with values
    U = U_0 - W S_0^T, which are qk U_0 + aq S_0^T with
    aq = diag(G) Q - qk W. Returns (aq, a_end) and the zero-start outputs
    qk U_0 and end states e.

    Only once the solve has returned are the queries read: [qk U_0 | qk W]
    is written over [U_0 | W] chunk by chunk (one GEMM per chunk, not one
    per half: OpenBLAS rounds a product split by columns differently when
    the halves are narrow), and aq is formed over its qk W half, so the
    returned aq and qk U_0 are the two halves of one buffer. A chunk's rows
    of aq and qk U_0 read NaN from its first row of [U_0 | W] that
    overflowed on; the rows before it are formed without those rows, which
    the exact zeros above qk's diagonal would meet as 0 * inf = NaN.
    """
    d_v = v.shape[1]
    x, e, a_end, qk, G = _wy_solve(k, v, q, gamma, beta)
    if not np.isfinite(x).all():
        late = np.logical_or.accumulate(~np.isfinite(x).all(axis=2), axis=1)[:, :, None]
        qx = np.where(late, np.nan, qk @ np.where(late, 0.0, x))
    elif np.result_type(qk, x) == x.dtype:
        # over x, chunk by chunk: numpy copies only the one chunk it overwrites
        for c in range(x.shape[0]):
            np.matmul(qk[c], x[c], out=x[c])
        qx = x
    else:
        qx = qk @ x
    del x, qk
    # aq = diag(G) Q - qk W, as -qk W + diag(G) Q: the same value bit for bit
    qw = np.negative(qx[:, :, d_v:], out=qx[:, :, d_v:])
    gq = G[:, :, None] * _blocks(q, qx.shape[1])
    return _into(qw, np.add, qw, gq), a_end, qx[:, :, :d_v], e


def gdn_scan(k, v, q, gamma, beta, s0):
    """GDN recurrence: S_t = S_{t-1} gamma_t (I - beta_t k_t k_t^T) + beta_t v_t k_t^T,
    y_t = S_t q_t, chunkwise in the WY form (see _wy_chunks)."""
    return _carry(*_wy_chunks(k, v, q, gamma, beta), s0, k.shape[0])


def chunk_terms(kind, k, v, q, gamma, beta):
    """The per-chunk terms (aq, a_end, y0, e) of the "mamba2" (_ssd_chunks)
    or "gdn" (_wy_chunks) scan, per block of min(CHUNK, T) tokens: each
    block's zero-start outputs y0 and end state e, its transition a_end
    and aq, the rows aq[t] = A_{1:t} q_t through which a start state
    reaches its outputs. The blocks are independent: a block
    entered from S_0 reads y0 + aq S_0^T and ends in e + S_0 a_end, and
    _carry chains them so. a_end is (C, 1, 1) for Mamba-2, the block
    decays G_L, and (C, d_k, d_k) for GDN (see _transition). beta is read
    by GDN only."""
    if kind == "mamba2":
        return _ssd_chunks(k, v, q, gamma)
    return _wy_chunks(k, v, q, gamma, beta)


def gdn_transition_prefixes(k, gamma, beta, q):
    """The GDN transitions A_t = gamma_t (I - beta_t k_t k_t^T) as seen by
    a linear readout: returns (aq, a_end) with aq[t] = A_{1:t} q_t and
    a_end = A_{1:T}, where A_{1:t} = A_1 ... A_t. That is the scan run
    from S_0 = I over d_k zero value columns: its state is A_{1:t}."""
    return gdn_scan(k, np.zeros_like(k), q, gamma, beta, np.eye(k.shape[1]))


def chebyshev_dense(matvec, lam, rhs, iters, a, b, history=True):
    """Chebyshev iteration for (H + lam I) x = rhs with spectrum in [a, b],
    where matvec(p) returns H p (a dense product or a tiled operator).

    rhs is one vector (d,) or a batch (..., d) of independent systems, one
    per row; lam, a and b are scalars or arrays of the batch shape, and
    matvec maps a batch of vectors (..., d) to the products row by row.
    A scalar coefficient costs one pass over its operand, an array one
    short inner loop per row as well, so a batch whose rows share an
    interval should pass scalars (GKA's prefill scales its rows so that
    they do). Standard SPD two-term recurrence; one matrix-vector product
    per iteration. Returns (x, residual_history), residual_history of shape
    (iters,) + batch with residual_history[i] the 2-norms of the
    maintained residuals after iteration i+1. With history=False no norm
    is formed and residual_history is None; the iterates are the same.

    The recurrence runs in place: x, r, p and one scratch array are
    allocated once, and every update is an out= ufunc in the operand order
    of p = r + beta p, x = x + alpha p and r = r - alpha (H p + lam p), so
    x keeps those expressions' bits (the first x is alpha rhs, which
    0 + alpha p equals). matvec's result is only read, never written: an
    operator may return p itself or a view of it. matvec must return
    rhs's dtype.
    """
    lam, a, b = (np.asarray(z)[..., None] if np.ndim(z) else z for z in (lam, a, b))
    theta = 0.5 * (b + a)
    delta = 0.5 * (b - a)
    x = np.zeros_like(rhs)
    r = rhs.copy()
    p = rhs.copy()
    tmp = np.empty_like(rhs)
    alpha = 1.0 / theta
    hist = np.empty((iters,) + rhs.shape[:-1]) if history else None
    # a single vector keeps the plain norm, by frobenius_norm's rule where
    # only its squares overflow: on the decode path the axis form costs
    # more than the iteration's arithmetic. A batch's row norms take one
    # einsum, about half the time of np.linalg.norm's axis form at prefill
    # sizes (conj returns a real array itself)
    if rhs.ndim == 1:
        norm = _scaled_norm
    else:
        norm = lambda res: np.sqrt(np.einsum('...i,...i->...', res.conj(), res).real)
    for it in range(iters):
        if it > 0:
            beta = 0.5 * (delta * alpha) ** 2 if it == 1 else (0.5 * delta * alpha) ** 2
            alpha = 1.0 / (theta - beta / alpha)
            np.add(r, np.multiply(beta, p, out=p), out=p)
            np.add(x, np.multiply(alpha, p, out=tmp), out=x)
        else:
            np.multiply(alpha, p, out=x)
        np.multiply(lam, p, out=tmp)
        np.add(matvec(p), tmp, out=tmp)
        np.subtract(r, np.multiply(alpha, tmp, out=tmp), out=r)
        if history:
            hist[it] = norm(r)
    return x, hist


WOODBURY_TAU = 1e4  # the largest cond(A) and lambda_max(C) a Woodbury block may reach


def _woodbury_block(h0, k, beta, q, lam, prev=None):
    """Solve (H_0 + lam I + sum_{i<=t} beta_i k_i k_i^T) x_t = q_t for every
    row t of a block at once, or return None when the guard says the block
    would lose digits.

    With A = H_0 + lam I and Kb = diag(beta)^1/2 K, Woodbury gives
    x_t = A^-1 q_t - (Kb_t A^-1)^T C_t^-1 Kb_t A^-1 q_t, with C_t the leading
    (t+1)-square block of C = I + Kb A^-1 Kb^T. The Cholesky factor R of a
    leading block is the leading block of R, so with P = Kb A^-1 and
    Y = R^-1 P, whose row t reads rows <= t of P only, all rows take
    X = Q A^-1 - tril(Q Y^T) Y: two GEMMs. Y comes from one triangular
    solve, (D^-1 R) Y = D^-1 P with D = diag(R), by _ut_solve; R itself is
    never inverted. A row with q_t = 0 gets x_t = 0.

    A^-1 is taken in one of three ways. A block entered from the zero
    state (every forward's first) scales by 1 / lam, which is
    inv(lam I) = I / lam bit for bit, and takes no product with H_0. A block
    handed prev = (A_p^-1, Y_p) by the block before it, whose A_p plus that
    block's Kb_p^T Kb_p is this block's A, takes
    A^-1 = A_p^-1 - P_p^T C_p^-1 P_p = A_p^-1 - Y_p^T Y_p (Hager, "Updating
    the Inverse of a Matrix", 1989): one GEMM and no inverse. Any other
    block inverts its A. The refinement's residual is formed from H_0
    itself, so it also corrects the rounding a carried inverse picks up.

    The guard: cond(A) <= 1 + ||H_0||_F / lam and lambda_max(C) <= 1 +
    sum_i beta_i k_i^T A^-1 k_i (lambda_min(C) >= 1) must both stay within
    WOODBURY_TAU. Together they imply that no entry of H_0 exceeds TAU lam
    and no entry of Kb exceeds TAU lam^1/2; these are checked first, so no
    step can overflow.

    Returns (X, (A^-1, Y)): the solutions and the factors the next block
    of the same lam takes as prev."""
    kb = k * np.sqrt(beta)[:, None]
    if not (np.max(np.abs(h0), initial=0.0) <= WOODBURY_TAU * lam
            and np.max(np.abs(kb), initial=0.0) <= WOODBURY_TAU * np.sqrt(lam)
            and 1.0 + np.linalg.norm(h0 / lam) <= WOODBURY_TAU):
        return None
    if h0.any():
        if prev is None:
            a_inv = np.linalg.inv(h0 + lam * np.eye(h0.shape[0]))
        else:
            a_inv = prev[0] - prev[1].T @ prev[1]
        times_a_inv = lambda b: b @ a_inv
        times_a = lambda b: b @ h0 + lam * b
    else:
        # b (I / lam) is b (1 / lam) entry by entry: the other terms of the
        # product are exact zeros; b / lam would round differently
        inv_lam = 1.0 / lam
        a_inv = np.eye(h0.shape[0]) * inv_lam  # handed on only
        times_a_inv = lambda b: b * inv_lam
        times_a = lambda b: lam * b
    p = times_a_inv(kb)
    if not 1.0 + np.sum(p * kb) <= WOODBURY_TAU:
        return None
    r = np.linalg.cholesky(p @ kb.T + np.eye(k.shape[0]))
    d = np.diagonal(r)[:, None]
    y = _ut_solve((r / d)[None], (p / d)[None])[0]

    def solve(b):
        return times_a_inv(b) - np.tril(b @ y.T) @ y

    x = solve(q)
    # the two terms of X can be up to lambda_max(C) times larger than x,
    # and cancel; one step of refinement on the residual
    # q_t - (H_t + lam I) x_t, formed in two GEMMs, wins those digits back
    return x + solve(q - (times_a(x) + np.tril(x @ kb.T) @ kb)), (a_inv, y)


def _block_products(x, st, m, Kt, W, G, bufs=(None, None, None)):
    """((x K^T) o W) m + G (x st) for every block of rows x of GKA's forward,
    st the blocks' start states transposed: H_t p_t (st = H_0, which is
    symmetric, and m = K) or the readout U_t x_t (st = U_0^T, m = V). The
    product with st is added last, in place (a + b is b + a bit for bit),
    and skipped for block 0 when its start state is exactly zero, as every
    forward's is: it would be exactly 0. bufs, if given, are buffers for
    x K^T, the result and x st, shaped as they are, written over by every
    call, so that the Chebyshev iteration's products allocate nothing."""
    first = 0 if st[0].any() else 1
    xk, out, xs = bufs
    xk = np.matmul(x, Kt, out=xk)
    out = np.matmul(_into(xk, np.multiply, xk, W), m, out=out)
    xs = np.matmul(x[first:], st[first:], out=None if xs is None else xs[first:])
    out[first:] += _into(xs, np.multiply, G[first:], xs)
    return out


# the ||H_t||_F whose Chebyshev rows gka_info_forward scales by s_t = 1 / ||H_t||_F:
# within it no operator intermediate grows by more than s_t^2 <= 2^128 over
# the unscaled one, and subnormal and near-overflow norms stay unscaled
SCALED_FRO = (2.0 ** -64, 2.0 ** 64)


def gka_info_forward(k, v, q, gamma, beta, lam, alpha, solver_r):
    """GKA information-form forward pass, in blocks of CHUNK tokens.

    Per step: H_t = gamma_t H_{t-1} + beta_t k_t k_t^T and the same decay/write
    for U_t; then solve (H_t + lam_t I) x = q_t and read y_t = U_t x.

    lam_t is lam[t], or alpha * ||H_t||_F (adaptive regularization) when lam
    is None; a step with lam_t <= 0 (H_t still empty) reads 0. solver_r = 0
    solves exactly; solver_r > 0 runs that many Chebyshev iterations on
    [lam_t, lam_t + ||H_t||_F] for all tokens at once. Each row's system and
    interval are scaled together by s_t = 1 / ||H_t||_F, which leaves the
    iterates the same polynomial in exact arithmetic (Saad, "Iterative
    Methods for Sparse Linear Systems", 2003, 12.3): row t solves
    (s_t H_t + s_t lam_t I) x = s_t q_t on [s_t lam_t, s_t lam_t + 1], so
    under the adaptive lam every row runs on [alpha, 1 + alpha] and the
    recurrence's coefficients are scalars. s_t is folded once into the
    operator's W and G and into the right-hand side; x is the unscaled
    system's solution, so the readout takes the unscaled W, G and U_0. A
    row whose norm is 0 or lies outside SCALED_FRO stays unscaled on its
    own interval, and the coefficients are then per-row arrays. No residual
    norm is formed.

    Within a block entered with (H_0, U_0), with G, D the SSD decays of
    _ssd_terms and W = D diag(beta),

        H_t = G_t H_0 + sum_i W_ti k_i k_i^T,  U_t = G_t U_0 + sum_i W_ti v_i k_i^T,

    so U_t is never formed: y_t = G_t U_0 x_t + sum_i W_ti (k_i . x_t) v_i
    for a whole block of rows in two GEMMs. The exact solver takes a whole
    block by Woodbury (_woodbury_block: for a zero H_0 a scaling by 1 / lam
    and no product with H_0; after a Woodbury block of the same lam, that
    block's A^-1 updated by its own factor in one GEMM; otherwise one
    inverse of H_0 + lam I; then one Cholesky, one triangular solve and
    masked GEMMs) when the block does not decay (gamma = 1),
    every row it solves has the same fixed lam, the system is real and the
    guard on cond(H_0 + lam I) and on the capacitance matrix holds (see
    WOODBURY_TAU). Any other block (decaying gamma, a lam that varies
    within it, the adaptive lam, a complex system, a failed guard) forms
    each token's H_t from the block's H_0 in one GEMM and solves it
    densely, and the next Woodbury block inverts its own A. The Chebyshev
    solve never forms H_t: H_t p_t = G_t H_0 p_t + sum_i W_ti (k_i . p_t) k_i
    in two GEMMs per block of rows
    (_block_products, written into three buffers allocated once), and
    ||H_t||_F^2 expands into G_t^2 ||H_0||^2 + 2 G_t sum_i W_ti k_i^T H_0 k_i
    + sum_ij W_ti W_tj (k_i . k_j)^2 (all terms >= 0, so no cancellation).
    The norm is computed only when lam_t or the Chebyshev interval reads
    it. The block states are carried one GEMM per block and kept exactly
    symmetric. A block entered from the zero state, as every forward's
    first block is, takes no product with H_0 or U_0 in the Chebyshev
    operator, the readout or Woodbury: each would be exactly 0, and every
    output keeps the bits of the form that takes them.

    Returns (y, H, U). The pass stops at the first row whose ||H_t||_F
    (when read) is non-finite or whose dense system is singular, and that
    row and every later one are NaN.
    H, U are the state after the last row; they mean something only when
    every row was read and every output is finite (ssm_forward raises
    NonFiniteOutput, naming the first non-finite row, otherwise).
    """
    T, d_k = k.shape
    d_v = v.shape[1]
    dtype = np.result_type(k, v, q, gamma, beta)
    K, G, D = _ssd_terms(k, gamma)
    Kt = _transposed(K)
    C, L = K.shape[:2]
    Q, V = _blocks(q, L), _blocks(v, L)
    W = D * _blocks(beta, L)[:, None, :]
    w_end = W[:, -1, :, None]  # each block's writes decayed to its end
    dh, du = (K * w_end).transpose(0, 2, 1) @ K, (V * w_end).transpose(0, 2, 1) @ K
    read_fro = lam is None or solver_r > 0
    if read_fro:
        # the norm terms weight unit keys by W_ti ||k_i||^2, so a huge key
        # makes only the rows it reaches non-finite, not (by 0 * inf) the
        # rows before it
        n = np.einsum('cld,cld->cl', K, K)  # ||k_i||^2
        unit = K * np.divide(1.0, np.sqrt(n), out=np.zeros_like(n), where=n > 0.0)[..., None]
        Wn = np.multiply(W, n[:, None, :], out=np.zeros_like(W), where=W > 0.0)
        own = np.sum((Wn @ (unit @ unit.transpose(0, 2, 1)) ** 2) * Wn, axis=2)

    H0 = np.zeros((C + 1, d_k, d_k), dtype=dh.dtype)
    U0 = np.zeros((C + 1, d_v, d_k), dtype=du.dtype)
    # NaN in the blocks the carry never reaches; an unread norm stops nothing
    fro = np.full((C, L), np.nan if read_fro else 0.0)
    for c in range(C):
        if read_fro:
            h = H0[c]
            cross = Wn[c] @ np.sum((unit[c] @ h) * unit[c], axis=1)
            fro[c] = np.sqrt(G[c] ** 2 * np.sum(h * h) + 2.0 * G[c] * cross + own[c])
            if not np.all(np.isfinite(fro[c])):
                break  # past a non-finite norm every later block only spreads it
        h = G[c, -1] * H0[c] + dh[c]
        H0[c + 1] = 0.5 * (h + h.T)
        U0[c + 1] = G[c, -1] * U0[c] + du[c]

    fro = fro.reshape(-1)[:T]
    lam_t = alpha * fro if lam is None else np.asarray(lam, dtype=np.float64)
    bad = ~np.isfinite(fro)
    stop = int(np.argmax(bad)) if bad.any() else T  # the first row not solved
    y = np.full((T, d_v), np.nan, dtype=dtype)
    if stop > 0:
        nb = -(-stop // L)  # the blocks holding rows before the stop
        lam_b = _blocks(np.where(np.arange(T) < stop, lam_t, 0.0), L)[:nb]
        solve = lam_b > 0.0
        # rows that read 0 (empty H, padding, from the stop on) solve x = 0
        # (Chebyshev on the unit interval [1, 1]): their right-hand side is 0
        lam_s = np.where(solve, lam_b, 1.0)
        rhs = np.where(solve[..., None], Q[:nb], 0.0)
        Gb, Kb, Ktb, Wb = G[:nb, :, None], K[:nb], Kt[:nb], W[:nb]
        if solver_r > 0:
            fro_s = np.where(solve, _blocks(fro, L)[:nb], 0.0)
            # rows scaled by s_t = 1 / ||H_t||_F (see the docstring); a row
            # outside SCALED_FRO, 0 among them, keeps s_t = 1
            scaled = (fro_s >= SCALED_FRO[0]) & (fro_s <= SCALED_FRO[1])
            s = np.divide(1.0, fro_s, out=np.ones_like(fro_s), where=scaled)
            if lam is None and np.array_equal(scaled, solve):
                # the other rows solve x = 0 (rhs = 0) on any interval
                lam_c, hi = alpha, 1.0 + alpha
            else:
                lam_c = np.where(scaled, alpha, lam_s) if lam is None else lam_s * s
                hi = lam_c + np.where(scaled, 1.0, fro_s)
            # all solver_r products are written into the same three buffers
            bufs = [np.empty((nb, L, n), dtype=rhs.dtype) for n in (L, d_k, d_k)]
            Ws, Gs = Wb * s[..., None], Gb * s[..., None]  # s_t H_t, folded in once
            apply_h = lambda p: _block_products(p, H0[:nb], Kb, Ktb, Ws, Gs, bufs)
            # an overflowing iterate reaches y, which is checked; no residual
            # norm is formed, as none is read
            with np.errstate(over="ignore"):
                x, _ = chebyshev_dense(apply_h, lam_c, rhs * s[..., None], solver_r, lam_c, hi,
                                       history=False)
        else:
            x = np.zeros_like(rhs, dtype=np.result_type(rhs, H0))
            eye = np.eye(d_k)
            chain = (None, None)  # lam and (A^-1, Y) handed on by a Woodbury block
            for c in range(nb):
                rows = np.flatnonzero(solve[c])
                lam_c = lam_s[c, rows]
                chain_lam, prev = chain
                chain = (None, None)
                if (lam is not None and rows.size and lam_c.min() == lam_c.max()
                        and np.all(G[c] == 1.0) and np.isrealobj(x)):
                    # W[c, -1] is the block's beta when it does not decay,
                    # so H_0 + lam I plus this block's writes is the next
                    # block's A
                    solved = _woodbury_block(H0[c], K[c], W[c, -1], rhs[c], lam_c[0],
                                             prev if chain_lam == lam_c[0] else None)
                    if solved is not None:
                        x[c], factors = solved
                        chain = (lam_c[0], factors)
                        continue
                for t in rows:
                    h = G[c, t] * H0[c] + (Kt[c] * W[c, t]) @ K[c]
                    try:
                        x[c, t] = np.linalg.solve(h + lam_s[c, t] * eye, rhs[c, t])
                    except np.linalg.LinAlgError:
                        # singular by rounding (beta k k^T swamps lam): stop
                        # at this row, as at a non-finite norm
                        stop = c * L + int(t)
                        break
                if stop < (c + 1) * L:
                    break
        y_b = _block_products(x, U0[:nb].transpose(0, 2, 1), V[:nb], Ktb, Wb, Gb)
        y[:stop] = y_b.reshape(nb * L, d_v)[:stop]
    # copied: a view would keep every block's state alive with the returned one
    return y, H0[C].copy(), U0[C].copy()


def decayed_rank_one(a, x, y, gamma, beta, b, lower=False):
    """gamma a + beta x y^T, GKA's information write, as one new array: a is
    scaled into it in one pass, then beta x y^T is added one strip of b rows
    at a time, each strip formed (np.multiply.outer), scaled by beta and
    added in place, so the only temporary is one (b, len(y)) strip. Each
    entry is (gamma a_ij) + (beta (x_i y_j)), in the operand order of
    gamma * a + beta * np.outer(x, y), whose bits it keeps. With lower, a is
    square and cut into b x b tiles: only the tiles (i, j) with i >= j take
    the write, and the strict-upper tiles are set to exactly 0. gamma and
    beta are real; b >= 1."""
    out = np.multiply(gamma, a, dtype=np.result_type(a, x, y))
    n = a.shape[1]
    for r in range(0, a.shape[0], b):
        rows = slice(r, r + b)
        cols = r + b if lower else n
        if lower:
            out[rows, cols:] = 0.0
        strip = np.multiply.outer(x[rows], y[:cols])
        np.multiply(beta, strip, out=strip)
        block = out[rows, :cols]
        np.add(block, strip, out=block)
    return out


def sherman_morrison_downdate(phi, k, beta):
    """Fold beta k k^T into Phi = M^{-1} in place: returns (Phi', g) with
    Phi' = (M + beta k k^T)^{-1} by the Sherman-Morrison identity, written
    over phi, and the gain g = beta Phi' k. The gain is taken from Phi k
    before the downdate, g = beta Phi k / (1 + beta k^T Phi k), which
    equals beta Phi' k in exact arithmetic and needs no second product
    with Phi'; then Phi' = Phi - g (Phi k)^T."""
    pk = phi @ k
    g = (beta / (1.0 + beta * (k @ pk))) * pk
    phi -= np.multiply.outer(g, pk)
    return phi, g


def gka_recurrent_scan(k, v, q, beta, lam):
    """GKA state-recurrence form, valid for gamma == 1 and fixed lam.

    Maintains Phi_t = (sum_i beta_i k_i k_i^T + lam I)^{-1} incrementally via
    the Sherman-Morrison identity, one token at a time, computes the gain
    g_t = beta_t Phi_t k_t, and updates S_t = S_{t-1} (I - k_t g_t^T) + v_t g_t^T,
    that is S_t = S_{t-1} + e_t g_t^T with the innovation e_t = v_t - S_{t-1} k_t.

    S is formed once per block of CHUNK tokens, not at every token (the
    intra-/inter-block split of the chunkwise form, Yang et al., NeurIPS
    2024). Within a block that starts at c0, S_{t-1} is S_{c0} plus the
    block's own earlier writes, so
    e_t = (v_t - S_{c0} k_t) - sum_{c0<=i<t} e_i (g_i . k_t): the block-start
    products S_{c0} k_t take one GEMM for the block (none for the first,
    whose S is zero), each token then reads the innovations and gains
    already computed, and S += E_blk^T G_blk folds the block in one GEMM.
    Nothing is inverted: Phi and every gain keep the bits of the per-token
    form, and S and the outputs differ from it by rounding only.
    The outputs y_t = S_t q_t = sum_{i<=t} e_i (g_i . q_t) are read after
    the loop from the stored innovations E and gains G, all rows at once:
    Y = tril(Q G^T) E. Returns (y, S, Phi).
    """
    T, d_k = k.shape
    phi = np.eye(d_k) / lam
    S = np.zeros((v.shape[1], d_k))
    e = np.empty((T, v.shape[1]))
    g = np.empty((T, d_k))
    for c0 in range(0, T, CHUNK):
        blk = slice(c0, min(c0 + CHUNK, T))
        if c0:
            np.subtract(v[blk], k[blk] @ S.T, out=e[blk])
        else:
            e[blk] = v[blk]
        for t in range(blk.start, blk.stop):
            phi, g[t] = sherman_morrison_downdate(phi, k[t], beta[t])
            if t > c0:
                e[t] -= (g[c0:t] @ k[t]) @ e[c0:t]
        S += e[blk].T @ g[blk]
    return np.tril(q @ g.T) @ e, S, phi


def conv1d_direct(u, w):
    """Causal conv: y_t = sum_{i=1..d_conv} w_i u_{t-d_conv+i}, u_j = 0 for j <= 0.

    u is (l, channels); the filter is applied per channel.
    """
    return conv1d_with_left_context(u, w, np.zeros((w.shape[0] - 1, u.shape[1])))


def conv1d_with_left_context(u, w, left):
    """The causal conv of a chunk whose d_conv-1 preceding tokens are `left`.

    left is ((d_conv-1), channels); rows beyond the true history are zero.
    One shifted axpy per filter tap, taps in ascending order, so every
    output accumulates its terms in the same order however the sequence is
    chunked. Every tap's product is formed in the same buffer.
    """
    l = u.shape[0]
    x = np.concatenate([left, u])
    y = np.zeros(u.shape)
    tap = np.empty(u.shape)
    for i in range(w.shape[0]):
        y += np.multiply(w[i], x[i:i + l], out=tap)
    return y
