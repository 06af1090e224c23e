"""Numpy kernels: the chunkwise Mamba-2 (SSD) and GDN (WY) scans, the GKA
information-form forward (exact solves token by token, Chebyshev solves in
SSD-form blocks), Chebyshev iteration over a batch of systems, the
Sherman-Morrison downdate, and the causal conv1d.

Each computation has exactly one body here; ``ssm_core`` and ``seqpar``
call these rather than restating them.

Conventions: states are ``d_v x d_k`` matrices updated on the right
(``S_t = S_{t-1} A_t + v_t B_t``), outputs are ``y_t = S_t q_t``. All
arrays are C-contiguous float64, or complex128 when a complex-step
derivative runs through them (see ``autodiff``).
"""

from __future__ import annotations

import cmath

import numpy as np

USING_NUMBA = False  # recorded by run manifests; every kernel is plain numpy


CHUNK = 64  # tokens per block of the chunkwise scans and GKA's Chebyshev forward


def _blocks(x, L, fill=0.0):
    """x (T, ...) padded with `fill` to whole chunks of L, as (C, L, ...)."""
    pad = -x.shape[0] % L
    if pad:
        x = np.concatenate([x, np.full((pad,) + x.shape[1:], fill)])
    return x.reshape((-1, L) + x.shape[1:])


def _ssd_terms(k, q, gamma):
    """The state-free terms shared by both scans and GKA's Chebyshev
    forward, per chunk of
    L = min(CHUNK, T) tokens (a short last chunk is padded with tokens
    that neither decay nor write). G[t] = gamma_1 ... gamma_t and
    D[t, i] = gamma_{i+1} ... gamma_t on and below the diagonal, 0 above
    it. Both come from the cumulative log-decays cs, D as exp(cs_t - cs_i),
    so a small gamma never makes D a ratio of two underflowed products.

    Returns (K, Q, G, D, qk, kd): the blocked keys and queries, G, D,
    qk = (Q K^T) o D, and kd = the keys decayed to their chunk's end."""
    L = max(1, min(CHUNK, k.shape[0]))
    K, Q = _blocks(k, L), _blocks(q, L)
    cs = np.cumsum(np.log(_blocks(gamma, L, fill=1.0)), axis=1)
    lower = np.tri(L, dtype=bool)
    D = np.exp(np.where(lower, cs[:, :, None] - cs[:, None, :], -np.inf))
    qk = (Q @ K.transpose(0, 2, 1)) * D
    return K, Q, np.exp(cs), D, qk, D[:, -1, :, None] * K


def _carry(y0, e, aq, a_end, s0, T):
    """Chain the chunks from s0: with S_c the state entering chunk c,
    y_c = y0_c + aq_c S_c^T and S_{c+1} = e_c + S_c a_end_c, where y0 and e
    are the chunks' zero-start outputs and end states."""
    S = s0.copy()
    y = np.empty_like(y0)
    for c in range(y0.shape[0]):
        y[c] = y0[c] + aq[c] @ S.T
        S = e[c] + S @ a_end[c]
    return y.reshape(-1, y.shape[2])[:T], S


def mamba2_scan(k, v, q, gamma, s0):
    """Mamba-2 recurrence: S_t = gamma_t * S_{t-1} + v_t k_t^T, y_t = S_t q_t.

    Chunkwise SSD form: per chunk Y = ((Q K^T) o D) V + diag(G) Q S_0^T,
    with the state carried between chunks."""
    K, Q, G, _, qk, kd = _ssd_terms(k, q, gamma)
    V = _blocks(v, K.shape[1])
    a_end = G[:, -1, None, None] * np.eye(k.shape[1])
    return _carry(qk @ V, V.transpose(0, 2, 1) @ kd, G[:, :, None] * Q, a_end,
                  s0, k.shape[0])


def _forward_substitution(n, rhs):
    """Solve (I + tril(n, -1)) x = rhs row by row, for every chunk at once;
    only the strictly lower triangle of n is read."""
    x = rhs.copy()
    for t in range(1, n.shape[1]):
        x[:, t] -= (n[:, t, None, :t] @ x[:, :t])[:, 0]
    return x


def _wy_chunks(k, v, q, gamma, beta):
    """Per-chunk terms of the GDN scan in the gated WY/UT form.

    Within a chunk S_t = gamma_t S_{t-1} + u_t k_t^T with the pseudo-values
    u_t = beta_t (v_t - gamma_t S_{t-1} k_t). Stacked as rows they are
    U = U_0 - W S_0^T, where

        (I + diag(beta) (tril(K K^T, -1) o D)) [U_0 | W] = diag(beta) [V | G o K].

    The chunk is then an SSD chunk with values U: its outputs are
    qk U_0 + aq S_0^T with aq = diag(G) Q - qk W, and its end state is
    U_0^T kd + S_0 a_end with a_end = G_L I - W^T kd. Returns (aq, a_end)
    and the zero-start outputs qk U_0 and end states U_0^T kd.
    """
    d_k = k.shape[1]
    K, Q, G, D, qk, kd = _ssd_terms(k, q, gamma)
    B = _blocks(beta, K.shape[1])[:, :, None]
    n = B * (K @ K.transpose(0, 2, 1)) * D  # its strict lower triangle is read
    rhs = np.concatenate([_blocks(v, K.shape[1]), G[:, :, None] * K], axis=2)
    x = _forward_substitution(n, B * rhs)
    u0, w = x[:, :, :-d_k], x[:, :, -d_k:]
    aq = G[:, :, None] * Q - qk @ w
    a_end = G[:, -1, None, None] * np.eye(d_k) - w.transpose(0, 2, 1) @ kd
    return aq, a_end, qk @ u0, u0.transpose(0, 2, 1) @ kd


def gdn_scan(k, v, q, gamma, beta, s0):
    """GDN recurrence: S_t = S_{t-1} gamma_t (I - beta_t k_t k_t^T) + beta_t v_t k_t^T,
    y_t = S_t q_t, chunkwise in the WY form (see _wy_chunks)."""
    aq, a_end, y0, e = _wy_chunks(k, v, q, gamma, beta)
    return _carry(y0, e, aq, a_end, s0, k.shape[0])


def gdn_transition_prefixes(k, gamma, beta, q):
    """The GDN transitions A_t = gamma_t (I - beta_t k_t k_t^T) as seen by
    a linear readout: returns (aq, a_end) with aq[t] = A_{1:t} q_t and
    a_end = A_{1:T}, where A_{1:t} = A_1 ... A_t. That is the scan run
    from S_0 = I with nothing written: its state is A_{1:t}."""
    return gdn_scan(k, np.zeros_like(k), q, gamma, beta, np.eye(k.shape[1]))


def chebyshev_dense(matvec, lam, rhs, iters, a, b):
    """Chebyshev iteration for (H + lam I) x = rhs with spectrum in [a, b],
    where matvec(p) returns H p (a dense product or a tiled operator).

    rhs is one vector (d,) or a batch (..., d) of independent systems, one
    per row; lam, a and b are scalars or arrays of the batch shape, and
    matvec maps a batch of vectors (..., d) to the products row by row.
    Standard SPD two-term recurrence; one matrix-vector product per
    iteration. Returns (x, residual_history), residual_history of shape
    (iters,) + batch with residual_history[i] the 2-norms of the
    maintained residuals after iteration i+1.
    """
    lam, a, b = (np.asarray(z)[..., None] if np.ndim(z) else z for z in (lam, a, b))
    theta = 0.5 * (b + a)
    delta = 0.5 * (b - a)
    x = np.zeros_like(rhs)
    r = rhs.copy()
    p = r
    alpha = 1.0 / theta
    hist = np.empty((iters,) + rhs.shape[:-1])
    # a single vector keeps the plain norm: on the decode path the axis
    # form costs more than the iteration's arithmetic
    norm = np.linalg.norm if rhs.ndim == 1 else lambda res: np.linalg.norm(res, axis=-1)
    for it in range(iters):
        if it > 0:
            beta = 0.5 * (delta * alpha) ** 2 if it == 1 else (0.5 * delta * alpha) ** 2
            alpha = 1.0 / (theta - beta / alpha)
            p = r + beta * p
        x = x + alpha * p
        r = r - alpha * (matvec(p) + lam * p)
        hist[it] = norm(r)
    return x, hist


def gka_info_forward(k, v, q, gamma, beta, lam, alpha, solver_r):
    """GKA information-form forward pass.

    Per step: H_t = gamma_t H_{t-1} + beta_t k_t k_t^T and the same decay/write
    for U_t; then solve (H_t + lam_t I) x = q_t and read y_t = U_t x.

    lam_t is lam[t] when alpha <= 0, else alpha * ||H_t||_F (adaptive
    regularization); a step with lam_t <= 0 (H_t still empty) reads 0.
    solver_r = 0 solves token by token with a dense solve. solver_r > 0
    runs that many Chebyshev iterations on [lam_t, lam_t + ||H_t||_F] for
    all tokens at once, in blocks of CHUNK tokens (see _gka_chebyshev_blocks).
    Returns (y, H, U, lam_used). The pass stops at the first non-finite
    output row, which a non-finite ||H_t||_F also makes: the rows after it
    (and their lam_used) are NaN, and H, U are the state at that row.
    """
    if solver_r > 0 and k.shape[0] > 0:  # no tokens: the loop below returns the zero state
        return _gka_chebyshev_blocks(k, v, q, gamma, beta, lam, alpha, solver_r)
    T, d_k = k.shape
    d_v = v.shape[1]
    H = np.zeros((d_k, d_k))
    U = np.zeros((d_v, d_k))
    y = np.full((T, d_v), np.nan, dtype=np.result_type(k, v, q, gamma, beta))
    lam_used = np.full(T, np.nan)
    eye = np.eye(d_k)
    probe = np.zeros(d_v)  # probe @ y_t is 0 if y_t is finite, else NaN
    for t in range(T):
        H = gamma[t] * H + beta[t] * np.outer(k[t], k[t])  # exactly symmetric
        U = gamma[t] * U + np.outer(beta[t] * v[t], k[t])
        fro = np.linalg.norm(H)
        lam_t = alpha * fro if alpha > 0.0 else lam[t]
        lam_used[t] = lam_t
        if lam_t <= 0.0:
            # H (hence U) still empty: nothing to read, any solve is moot
            x = np.zeros(d_k)
        else:
            x = np.linalg.solve(H + lam_t * eye, q[t])
        y[t] = U @ x
        if not cmath.isfinite(probe @ y[t]):
            break  # every later solve would only spread the overflow
    return y, H, U, lam_used


def _gka_chebyshev_blocks(k, v, q, gamma, beta, lam, alpha, iters):
    """The Chebyshev branch of gka_info_forward, with no per-token loop.

    Within a block entered with (H_0, U_0), with G, D the SSD decays of
    _ssd_terms and W = D diag(beta),

        H_t = G_t H_0 + sum_i W_ti k_i k_i^T,  U_t = G_t U_0 + sum_i W_ti v_i k_i^T,

    so H_t is never formed: H_t p_t = G_t H_0 p_t + sum_i W_ti (k_i . p_t) k_i
    for a whole block of rows p in two GEMMs, ||H_t||_F^2 expands into
    G_t^2 ||H_0||^2 + 2 G_t sum_i W_ti k_i^T H_0 k_i
    + sum_ij W_ti W_tj (k_i . k_j)^2 (all terms >= 0, so no cancellation),
    and one chebyshev_dense call solves every token. The block states are
    carried one GEMM per block and kept exactly symmetric. The carry stops
    at the first block holding a non-finite ||H_t||_F; that row and the
    rows after it are left NaN, as are the rows after a non-finite output.
    """
    T, d_k = k.shape
    d_v = v.shape[1]
    dtype = np.result_type(k, v, q, gamma, beta)
    K, Q, G, D, _, _ = _ssd_terms(k, q, gamma)
    C, L = K.shape[:2]
    V = _blocks(v, L)
    W = D * _blocks(beta, L)[:, None, :]
    Kt = K.transpose(0, 2, 1)
    # the norm terms weight unit keys by W_ti ||k_i||^2, so a huge key makes
    # only the rows it reaches non-finite, not (by 0 * inf) the rows before it
    n = np.diagonal(K @ Kt, axis1=1, axis2=2)  # ||k_i||^2
    unit = K * np.divide(1.0, np.sqrt(n), out=np.zeros_like(n), where=n > 0.0)[..., None]
    Wn = np.multiply(W, n[:, None, :], out=np.zeros_like(W), where=W > 0.0)
    own = np.sum((Wn @ (unit @ unit.transpose(0, 2, 1)) ** 2) * Wn, axis=2)
    w_end = W[:, -1, :, None]  # each block's writes decayed to its end
    dh, du = (K * w_end).transpose(0, 2, 1) @ K, (V * w_end).transpose(0, 2, 1) @ K

    H0 = np.zeros((C, d_k, d_k))
    U0 = np.zeros((C, d_v, d_k), dtype=dtype)
    fro = np.full((C, L), np.nan)  # NaN in the blocks the carry never reaches
    for c in range(C):
        h = H0[c]
        cross = Wn[c] @ np.sum((unit[c] @ h) * unit[c], axis=1)
        fro[c] = np.sqrt(G[c] ** 2 * np.sum(h * h) + 2.0 * G[c] * cross + own[c])
        if c + 1 == C or not np.all(np.isfinite(fro[c])):
            break  # past a non-finite norm every later block only spreads it
        h = G[c, -1] * h + dh[c]
        H0[c + 1] = 0.5 * (h + h.T)
        U0[c + 1] = G[c, -1] * U0[c] + du[c]

    fro = fro.reshape(-1)[:T]
    lam_used = alpha * fro if alpha > 0.0 else np.array(lam, dtype=np.float64)
    bad = ~np.isfinite(fro)
    stop = int(np.argmax(bad)) if bad.any() else T  # the first row not solved
    lam_used[stop + 1:] = np.nan
    y = np.full((T, d_v), np.nan, dtype=dtype)
    if stop > 0:
        nb = -(-stop // L)  # the blocks holding rows before the stop
        lam_b = _blocks(np.where(np.arange(T) < stop, lam_used, 0.0), L)[:nb]
        solve = lam_b > 0.0
        # rows that read 0 (empty H, padding, from the stop on) solve
        # x = 0 on the unit interval [1, 1]: their right-hand side is 0
        lam_s = np.where(solve, lam_b, 1.0)
        fro_s = np.where(solve, _blocks(fro, L)[:nb], 0.0)
        Gb, Hb, Kb, Ktb, Wb = G[:nb, :, None], H0[:nb], K[:nb], Kt[:nb], W[:nb]
        apply_h = lambda p: Gb * (p @ Hb) + ((p @ Ktb) * Wb) @ Kb  # H_0 is symmetric
        x, _ = chebyshev_dense(apply_h, lam_s, np.where(solve[..., None], Q[:nb], 0.0),
                               iters, lam_s, lam_s + fro_s)
        y_b = Gb * (x @ U0[:nb].transpose(0, 2, 1)) + ((x @ Ktb) * Wb) @ V[:nb]
        y[:stop] = y_b.reshape(-1, d_v)[:stop]
        bad_y = ~np.isfinite(y[:stop]).all(axis=1)
        if bad_y.any():
            stop = int(np.argmax(bad_y))
            y[stop + 1:] = np.nan
            lam_used[stop + 1:] = np.nan
    c, t = divmod(min(stop, T - 1), L)  # the state at the last row read
    h = G[c, t] * H0[c] + (K[c] * W[c, t, :, None]).T @ K[c]
    u = G[c, t] * U0[c] + (V[c] * W[c, t, :, None]).T @ K[c]
    return y, 0.5 * (h + h.T), u, lam_used


def sherman_morrison_downdate(phi, k, beta):
    """Fold beta k k^T into Phi = M^{-1}: returns (Phi', g) with
    Phi' = (M + beta k k^T)^{-1} by the Sherman-Morrison identity and the
    gain g = beta Phi' k."""
    pk = phi @ k
    phi = phi - np.outer((beta / (1.0 + beta * (k @ pk))) * pk, pk)
    return phi, beta * (phi @ k)


def gka_recurrent_scan(k, v, q, beta, lam):
    """GKA state-recurrence form, valid for gamma == 1 and fixed lam.

    Maintains Phi_t = (sum_i beta_i k_i k_i^T + lam I)^{-1} incrementally via
    the Sherman-Morrison identity, computes the gain g_t = beta_t Phi_t k_t,
    and updates S_t = S_{t-1} (I - k_t g_t^T) + v_t g_t^T with y_t = S_t q_t.
    Returns (y, S, Phi).
    """
    T, d_k = k.shape
    phi = np.eye(d_k) / lam
    S = np.zeros((v.shape[1], d_k))
    y = np.empty((T, v.shape[1]))
    for t in range(T):
        phi, g = sherman_morrison_downdate(phi, k[t], beta[t])
        S = S - np.outer(S @ k[t], g) + np.outer(v[t], g)
        y[t] = S @ q[t]
    return y, S, phi


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
    chunked.
    """
    l = u.shape[0]
    x = np.concatenate([left, u])
    y = np.zeros(u.shape)
    for i in range(w.shape[0]):
        y += w[i] * x[i:i + l]
    return y
