"""The oracles the tests replay: one Mamba-2 or GDN recurrence step on a
plain (d_v, d_k) state, written token by token as the recurrences are
defined, beside the chunkwise scans of ``kernels`` that it checks; and the
padded forward, which reads a forward's transitions from d_k zero value
columns started from the identity."""

import numpy as np

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
