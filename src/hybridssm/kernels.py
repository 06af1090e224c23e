"""Sequential numpy kernels: SSM scans, the GKA information-form forward,
Chebyshev iteration, the Sherman-Morrison downdate, and the causal conv1d.

Each computation has exactly one body here; ``ssm_core`` and ``seqpar``
call these rather than restating them.

Conventions: states are ``d_v x d_k`` matrices updated on the right
(``S_t = S_{t-1} A_t + v_t B_t``), outputs are ``y_t = S_t q_t``. All
arrays are float64 and C-contiguous.
"""

from __future__ import annotations

import numpy as np

USING_NUMBA = False  # recorded by run manifests; every kernel is plain numpy


def mamba2_scan(k, v, q, gamma, s0):
    """Mamba-2 recurrence: S_t = gamma_t * S_{t-1} + v_t k_t^T, y_t = S_t q_t."""
    S = s0.copy()
    y = np.empty((k.shape[0], v.shape[1]))
    for t in range(k.shape[0]):
        S = gamma[t] * S + np.outer(v[t], k[t])
        y[t] = S @ q[t]
    return y, S


def gdn_scan(k, v, q, gamma, beta, s0):
    """GDN recurrence: S_t = S_{t-1} gamma_t (I - beta_t k_t k_t^T) + beta_t v_t k_t^T.

    The right-multiplication by gamma (I - beta k k^T) is expanded as
    gamma * (S - beta (S k) k^T) to stay O(d_v d_k) per step.
    """
    S = s0.copy()
    y = np.empty((k.shape[0], v.shape[1]))
    for t in range(k.shape[0]):
        S = gamma[t] * (S - np.outer(beta[t] * (S @ k[t]), k[t])) \
            + np.outer(beta[t] * v[t], k[t])
        y[t] = S @ q[t]
    return y, S


def gdn_transition_prefixes(k, gamma, beta):
    """Cumulative transition products A_{1:t} = A_1 ... A_t for the GDN
    recurrence, with A_t = gamma_t (I - beta_t k_t k_t^T). Returns (T, d_k, d_k);
    the last slice is the whole-chunk product."""
    T, d_k = k.shape
    out = np.empty((T, d_k, d_k))
    P = np.eye(d_k)
    for t in range(T):
        P = gamma[t] * (P - np.outer(beta[t] * (P @ k[t]), k[t]))
        out[t] = P
    return out


def chebyshev_dense(matvec, lam, rhs, iters, a, b):
    """Chebyshev iteration for (H + lam I) x = rhs with spectrum in [a, b],
    where matvec(p) returns H p (a dense product or a tiled operator).

    Standard SPD two-term recurrence; one matrix-vector product per
    iteration. Returns (x, residual_history) with residual_history[i] the
    2-norm of the maintained residual after iteration i+1.
    """
    theta = 0.5 * (b + a)
    delta = 0.5 * (b - a)
    x = np.zeros_like(rhs)
    r = rhs.copy()
    p = r
    alpha = 1.0 / theta
    hist = np.empty(iters)
    for it in range(iters):
        if it > 0:
            beta = 0.5 * (delta * alpha) ** 2 if it == 1 else (0.5 * delta * alpha) ** 2
            alpha = 1.0 / (theta - beta / alpha)
            p = r + beta * p
        x = x + alpha * p
        r = r - alpha * (matvec(p) + lam * p)
        hist[it] = np.linalg.norm(r)
    return x, hist


def gka_info_forward(k, v, q, gamma, beta, lam, alpha, solver_r, bounds_pad):
    """GKA information-form forward pass.

    Per step: H_t = gamma_t H_{t-1} + beta_t k_t k_t^T and the same decay/write
    for U_t; then solve (H_t + lam_t I) x = q_t and read y_t = U_t x.

    lam_t is lam[t] when alpha <= 0, else alpha * ||H_t||_F (adaptive
    regularization). solver_r = 0 uses a dense solve; solver_r > 0 runs that
    many Chebyshev iterations on [lam_t, lam_t + ||H_t||_F * bounds_pad].
    Returns (y, H, U, lam_used).
    """
    T, d_k = k.shape
    d_v = v.shape[1]
    H = np.zeros((d_k, d_k))
    U = np.zeros((d_v, d_k))
    y = np.empty((T, d_v))
    lam_used = np.empty(T)
    for t in range(T):
        H = gamma[t] * H + np.outer(beta[t] * k[t], k[t])
        U = gamma[t] * U + np.outer(beta[t] * v[t], k[t])
        fro = np.linalg.norm(H)
        lam_t = alpha * fro if alpha > 0.0 else lam[t]
        lam_used[t] = lam_t
        if lam_t <= 0.0:
            # H (hence U) still empty: nothing to read, any solve is moot
            x = np.zeros(d_k)
        elif solver_r > 0:
            x, _ = chebyshev_dense(H.__matmul__, lam_t, q[t], solver_r,
                                   lam_t, lam_t + fro * bounds_pad)
        else:
            x = np.linalg.solve(H + lam_t * np.eye(d_k), q[t])
        y[t] = U @ x
    return y, H, U, lam_used


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
