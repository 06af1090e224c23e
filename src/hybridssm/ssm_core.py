"""The three SSM recurrences (Mamba-2, GDN, GKA), GKA's information form,
exact and Chebyshev output solves, the chunk records that ``composition``
merges (``run_chunk``), and input-output matrix probing.

All three layers share S_t = S_{t-1} A_t + v_t B_t with y_t = S_t q_t and
differ in the transition/write operators:

    Mamba-2:  A_t = gamma_t I,                        B_t = k_t^T
    GDN:      A_t = gamma_t (I - beta_t k_t k_t^T),   B_t = beta_t k_t^T
    GKA:      A_t = I - k_t g_t^T,                    B_t = g_t^T

GKA's gain g_t = beta_t (H_t + lam_t I)^{-1} k_t folds the whole key history
into the erase direction through the information matrix H_t. The equivalent
information form keeps (H_t, U_t) accumulators and reads the output by
solving (H_t + lam_t I) x = q_t, either densely or with Chebyshev iteration
(the runtime compute knob).

GDN's erase factor (I - beta k k^T) is a contraction only for ||k|| <= 1;
long-horizon runs should feed unit-normalized keys, as the production
layers these recurrences model do.

Every entry point reads its inputs through one contract. A sequence
(``ssm_forward``, ``run_chunk``, ``seqpar.p2p_forward``,
``gka_recurrence_equivalence``) goes through ``_layer_inputs``: each array
is cast to float64, or kept complex128 if it is complex, must be 2-D with
one row per gate step (q shaped like k), and must be finite; a bad one
raises ValueError naming it and, for a non-finite entry, its first bad
row. A single step (``gka_info_update``, ``gka_gain``,
``ShermanMorrisonGain.update``, ``chebyshev_solve``'s q and
``tiled_decode.decode_step``) reads each vector through ``_step_vector``
(the same cast, the length asked for, finite) and each gate through
``_step_gate`` (a real number in [0, 1]; NaN fails). A complex input
keeps its dtype wherever the kernel carries it, and a form that is
real-only names it (``_require_real``).
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass
from enum import Enum
from typing import Callable

import numpy as np

from . import kernels

DEFAULT_ALPHA = 0.05  # lam_t = alpha * ||H_t||_F adaptive regularization
SYMMETRY_TOL = 1e-12  # max |H - H^T| a GkaInfoState or a tiled H store accepts
PSD_TOL = 1e-10  # a GkaInfoState's H may have eigenvalues down to -PSD_TOL


class SsmKind(Enum):
    MAMBA2 = "mamba2"
    GDN = "gdn"
    GKA = "gka"


def _as_kind(kind: SsmKind | str) -> SsmKind:
    return kind if isinstance(kind, SsmKind) else SsmKind(kind)


@dataclass(frozen=True)
class GkaInfoState:
    """GKA information pair: H (d_k x d_k, symmetric PSD) and U (d_v x d_k).

    The two ways to build one check different things:

    - ``GkaInfoState(h=..., u=...)`` is for states from outside the library:
      user code and the CLI. It checks the shapes, finiteness, symmetry
      within SYMMETRY_TOL and, by an O(d^3) ``eigvalsh``, that no
      eigenvalue of H is below -PSD_TOL.
    - ``GkaInfoState._derived(h, u)`` is for the states the library itself
      derives from validated states: by H' = gamma H + beta k k^T (the
      decode step, the GKA forward and ``run_chunk``), or as a combination
      of them with weights >= 0 (``composition``'s decays, sums and soups).
      It checks the shapes and finiteness only: such an update or
      combination keeps H symmetric and PSD (within its parts' summed
      tolerances), so only an overflow can break it, and at d = 256 the
      spectrum check would cost more than the decode step's maths.
    """

    h: np.ndarray
    u: np.ndarray

    def __post_init__(self):
        self._set_finite(self.h, self.u)
        h = self.h
        if np.max(np.abs(h - h.T), initial=0.0) > SYMMETRY_TOL:
            raise ValueError(f"H must be symmetric within {SYMMETRY_TOL}")
        if h.size and float(np.linalg.eigvalsh(h.real)[0]) < -PSD_TOL:
            raise ValueError(f"H must be PSD (eigenvalues >= -{PSD_TOL})")

    @classmethod
    def _derived(cls, h: np.ndarray, u: np.ndarray) -> "GkaInfoState":
        """A state whose H is gamma H_0 + beta k k^T and whose U is
        gamma U_0 + beta v k^T, for a validated state (H_0, U_0) and gamma,
        beta in [0, 1], or a chain of such updates, or the sum of validated
        states weighted by w_i >= 0. Those keep H symmetric and PSD, so only
        the shapes and finiteness are checked; a non-finite (overflowed)
        entry still raises."""
        state = object.__new__(cls)
        state._set_finite(h, u)
        return state

    def _set_finite(self, h, u) -> None:
        h, u = _real_or_complex(h), _real_or_complex(u)
        if h.ndim != 2 or h.shape[0] != h.shape[1]:
            raise ValueError("H must be square")
        if u.ndim != 2 or u.shape[1] != h.shape[0]:
            raise ValueError(f"U trailing dim {u.shape} incompatible with H {h.shape}")
        if not (np.all(np.isfinite(h)) and np.all(np.isfinite(u))):
            raise ValueError("non-finite info state")
        object.__setattr__(self, "h", h)
        object.__setattr__(self, "u", u)

    @property
    def d_k(self) -> int:
        return self.h.shape[0]

    @property
    def d_v(self) -> int:
        return self.u.shape[0]


@dataclass(frozen=True)
class ChunkRecord:
    """Final state of one chunk plus its accumulated transition operator.

    state: (d_v, d_k) array or GkaInfoState. a_acc: scalar decay product or
    dense (d_k, d_k) transition product, applied on the state's right. A
    GkaInfoState's decay product must be >= 0, so that composing such
    records takes weights >= 0 and keeps H PSD.
    """

    state: np.ndarray | GkaInfoState
    a_acc: float | np.ndarray

    def __post_init__(self):
        a = self.a_acc
        if isinstance(a, np.ndarray):
            if a.ndim != 2 or not np.all(np.isfinite(a)):
                raise ValueError("dense transition must be a finite matrix")
        elif not np.isfinite(a):
            raise ValueError("transition product must be finite")
        elif isinstance(self.state, GkaInfoState) and not a >= 0.0:
            raise ValueError(f"an info state's decay product must be >= 0, got {a}")


def check_alpha(alpha: float) -> None:
    """ValueError naming alpha unless it is positive and finite: the
    adaptive lam_t = alpha ||H_t||_F would otherwise be 0, negative or NaN,
    and every output would silently read 0."""
    if not 0.0 < alpha < np.inf:
        raise ValueError(f"alpha must be positive and finite, got {alpha}")


def check_iterations(r) -> int:
    """r as a Python int, or ValueError naming it unless it is an integer
    (Python or numpy) of at least 1: a float such as 2.5 would otherwise be
    truncated to fewer iterations than asked for."""
    if not isinstance(r, numbers.Integral):
        raise ValueError(f"r must be an integer number of iterations, got {r!r}")
    if r < 1:
        raise ValueError(f"need r >= 1 iterations, got {r}")
    return int(r)


def zero_info_state(d_v: int, d_k: int) -> GkaInfoState:
    return GkaInfoState(h=np.zeros((d_k, d_k)), u=np.zeros((d_v, d_k)))


@dataclass(frozen=True)
class GateTrack:
    """Per-step gates: decay gamma_t in (0,1], write gate beta_t in [0,1],
    and (GKA only) regularizer lam_t > 0; lam=None selects the adaptive
    lam_t = alpha ||H_t||_F rule."""

    gamma: np.ndarray
    beta: np.ndarray
    lam: np.ndarray | None = None

    def __post_init__(self):
        gamma = _real_or_complex(self.gamma)
        beta = _real_or_complex(self.beta)
        object.__setattr__(self, "gamma", gamma)
        object.__setattr__(self, "beta", beta)
        if gamma.shape != beta.shape or gamma.ndim != 1:
            raise ValueError("gamma/beta must be 1-D arrays of equal length")
        _require_finite(gamma=gamma, beta=beta)  # NaN passes both range tests
        _require_in_range("gamma must lie in (0, 1]", gamma,
                          (gamma.real <= 0.0) | (gamma.real > 1.0))
        _require_in_range("beta must lie in [0, 1]", beta, (beta.real < 0.0) | (beta.real > 1.0))
        if self.lam is not None:
            lam = np.asarray(self.lam, dtype=np.float64)
            object.__setattr__(self, "lam", lam)
            message = "lam must be positive and finite, one per step"
            if lam.shape != gamma.shape:
                raise ValueError(message)
            _require_in_range(message, lam, ~((lam > 0.0) & (lam < np.inf)))  # NaN fails both

    @property
    def T(self) -> int:
        return self.gamma.shape[0]


def _require_in_range(message: str, x: np.ndarray, bad: np.ndarray) -> None:
    """Raise ValueError, message followed by the first step t where bad
    holds and x[t], if bad holds at any step."""
    if bad.any():
        t = int(np.argmax(bad))
        raise ValueError(f"{message}: step {t} is {x[t]}")


def gka_info_update(info: GkaInfoState, k_t: np.ndarray, v_t: np.ndarray,
                    gamma_t: float, beta_t: float) -> GkaInfoState:
    """H' = gamma H + beta k k^T, U' = gamma U + beta v k^T, each by
    kernels.decayed_rank_one as one strip of all its rows, the decode
    step's write with a single tile. beta = 0 leaves the state untouched
    (the token is filtered out); beta = 1 recovers the original un-gated
    update. Raises ValueError naming a k or v that is not a finite vector
    of length d_k or d_v, or a gamma or beta outside [0, 1]."""
    k_t, v_t = _step_vector("k", k_t, info.d_k), _step_vector("v", v_t, info.d_v)
    gamma_t, beta_t = _step_gate("gamma", gamma_t), _step_gate("beta", beta_t)
    h = kernels.decayed_rank_one(info.h, k_t, k_t, gamma_t, beta_t, max(info.d_k, 1))
    u = kernels.decayed_rank_one(info.u, v_t, k_t, gamma_t, beta_t, max(info.d_v, 1))
    return GkaInfoState._derived(h=h, u=u)


def gka_gain(info: GkaInfoState, k_t: np.ndarray, beta_t: float, lam_t: float) -> np.ndarray:
    """Erase/write direction g = beta (H + lam I)^{-1} k, by dense solve.
    Raises ValueError naming a k that is not a finite vector of length d_k,
    a beta outside [0, 1] or a lam that is not positive and finite."""
    k_t, beta_t = _step_vector("k", k_t, info.d_k), _step_gate("beta", beta_t)
    if not 0.0 < lam_t < np.inf:  # NaN fails both
        raise ValueError(f"lam must be positive and finite, got {lam_t}")
    return beta_t * np.linalg.solve(info.h + lam_t * np.eye(info.d_k), k_t)


class ShermanMorrisonGain:
    """Incremental gain path for the gamma == 1, constant-lam regime:
    maintains Phi = (sum_i beta_i k_i k_i^T + lam I)^{-1} one rank-1
    downdate at a time, in place (self.phi is the gain path's own array).
    Must agree with the dense-solve path there. Raises ValueError naming
    lam unless it is positive and finite (lam = inf would make Phi 0), and
    naming k or beta on a k that is not a finite real vector of length d_k
    or a beta outside [0, 1] (NaN included; a negative beta would turn the
    downdate into an update)."""

    def __init__(self, d_k: int, lam: float):
        if not 0.0 < lam < np.inf:  # NaN fails both
            raise ValueError(f"lam must be positive and finite, got {lam}")
        self.lam = float(lam)
        self.phi = np.eye(d_k) / lam

    def update(self, k_t: np.ndarray, beta_t: float) -> np.ndarray:
        """Fold in beta_t k_t k_t^T and return the gain g_t = beta_t Phi_t k_t."""
        k_t, beta_t = _step_vector("k", k_t, self.phi.shape[0]), _step_gate("beta", beta_t)
        _require_real("the in-place Sherman-Morrison downdate", k=k_t)
        self.phi, g = kernels.sherman_morrison_downdate(self.phi, k_t, beta_t)
        return g


def default_spectral_bounds(h: np.ndarray, lam: float) -> tuple[float, float]:
    """[lam, lam + ||H||_F]: the Frobenius norm upper-bounds the spectral
    radius of the PSD information matrix."""
    return lam, lam + kernels.frobenius_norm(h)


def chebyshev_solve(apply_h: Callable[[np.ndarray], np.ndarray] | np.ndarray,
                    lam: float, q: np.ndarray, r: int,
                    spectral_bounds: tuple[float, float]) -> tuple[np.ndarray, np.ndarray]:
    """Chebyshev iteration for (H + lam I) x = q, H given as a dense matrix
    or as a matrix-vector operator. spectral_bounds = (a, b) must cover the
    spectrum of H + lam I; default_spectral_bounds gives [lam, lam + ||H||_F].

    Both forms run the one recurrence in kernels.chebyshev_dense, a dense H
    as its product H @ p, so they agree bit for bit on the same products.
    The residual norms stay finite where only their squares overflow (an
    entry past about 1e154), by kernels.frobenius_norm's rule, so a solve
    whose iterates are finite runs once and apply_h counts r products.
    Returns (x_r, residual_history). Raises ValueError on a non-finite lam
    or spectral bound, naming it, or on a q that is not a finite vector (of
    length d, for a dense H), and FloatingPointError on a non-finite
    iterate, naming the iteration. A complex q keeps its dtype: x is linear
    in q for a fixed H, lam and interval."""
    r = check_iterations(r)
    if not np.isfinite(lam):
        raise ValueError(f"lam must be finite, got {lam}")
    dense = isinstance(apply_h, np.ndarray)
    q = _step_vector("q", q, apply_h.shape[0] if dense else np.size(q))
    a, b = float(spectral_bounds[0]), float(spectral_bounds[1])
    for name, bound in (("lower", a), ("upper", b)):
        if not np.isfinite(bound):
            raise ValueError(f"{name} spectral bound must be finite, got {bound}")
    if a <= 0.0:
        raise ValueError(f"lower spectral bound must be > 0, got {a}")
    if b < a:
        raise ValueError(f"invalid spectral interval [{a}, {b}]")

    matvec = apply_h.__matmul__ if dense else apply_h
    with np.errstate(over="ignore"):  # an overflow is named below
        x, hist = kernels.chebyshev_dense(matvec, float(lam), q, r, a, b)
    bad = np.flatnonzero(~np.isfinite(hist))
    if bad.size or not np.all(np.isfinite(x)):
        idx = int(bad[0]) + 1 if bad.size else r
        raise FloatingPointError(f"Chebyshev iterate non-finite at iteration {idx}")
    return x, hist


def chebyshev_residual_bound(a: float, b: float, iters: int) -> np.ndarray:
    """Classical relative residual bound 1/C_k((b+a)/(b-a)) per iteration,
    C_k the degree-k Chebyshev polynomial; a point spectrum (a == b) gives 0."""
    ks = np.arange(1, iters + 1, dtype=np.float64)
    if b == a:
        return np.zeros(iters)
    sigma = (b + a) / (b - a)
    return 1.0 / np.cosh(ks * np.arccosh(sigma))


def _real_or_complex(x) -> np.ndarray:
    """x as a C-contiguous float64 array, or complex128 if it is complex: a
    complex-step perturbation (see ``autodiff``) must keep its imaginary
    part, which a float64 cast would drop and so zero the derivative."""
    return np.asarray(x, dtype=np.complex128 if np.iscomplexobj(x) else np.float64, order="C")


def _require_finite(**arrays: np.ndarray) -> None:
    """Raise ValueError naming the first argument with a non-finite entry
    and the first row that holds one. Each array is tested whole first; the
    row is located only once that test fails (kernels.first_non_finite_row)."""
    for name, arr in arrays.items():
        row = kernels.first_non_finite_row(arr)
        if row is not None:
            raise ValueError(f"{name} is non-finite at row {row}")


def _require_real(form: str, **arrays) -> None:
    """Raise ValueError naming the first complex argument: form is
    real-only, and a cast would drop the imaginary part, and with it a
    complex-step derivative."""
    for name, arr in arrays.items():
        if np.iscomplexobj(arr):
            raise ValueError(f"{name} is complex, but {form} is real-only")


def _layer_inputs(gates: GateTrack, **arrays):
    """The per-step sequences of a layer entry point, in the order given,
    each cast by _real_or_complex. Raises ValueError naming the first that
    is not 2-D with one row per gate step, a q shaped unlike k, and then
    (_require_finite) the first with a non-finite entry and its first bad
    row."""
    arrays = {name: _real_or_complex(x) for name, x in arrays.items()}
    for name, x in arrays.items():
        if x.ndim != 2 or x.shape[0] != gates.T:
            raise ValueError(f"{name} must be 2-D with one row per gate step "
                             f"(T = {gates.T}), got shape {x.shape}")
    if "q" in arrays and arrays["q"].shape != arrays["k"].shape:
        raise ValueError(f"q shape {arrays['q'].shape} != k shape {arrays['k'].shape}")
    _require_finite(**arrays)
    return tuple(arrays.values())


def _step_vector(name: str, x, n: int) -> np.ndarray:
    """x cast by _real_or_complex, or ValueError naming it unless it is a
    vector of length n with finite entries."""
    x = _real_or_complex(x)
    if x.shape != (n,):
        raise ValueError(f"{name} must be a vector of length {n}, got shape {x.shape}")
    if not np.all(np.isfinite(x)):
        raise ValueError(f"{name} is non-finite at entry {int(np.argmin(np.isfinite(x)))}")
    return x


def _step_gate(name: str, x) -> float:
    """x as a float, or ValueError naming it unless it is a real number in
    [0, 1]; NaN fails the test."""
    if np.ndim(x) or np.iscomplexobj(x) or not 0.0 <= x <= 1.0:
        raise ValueError(f"{name} must lie in [0, 1], got {x}")
    return float(x)


class NonFiniteOutput(FloatingPointError):
    """A Mamba-2, GDN or GKA forward overflowed; row is its first non-finite
    output row."""

    def __init__(self, kind: SsmKind, row: int):
        super().__init__(f"{kind.value} output is non-finite from row {row}")
        self.row = row


def _finite_rows(kind: SsmKind, y: np.ndarray) -> None:
    """Raise NonFiniteOutput naming the first non-finite row of y, if any."""
    row = kernels.first_non_finite_row(y)
    if row is not None:
        raise NonFiniteOutput(kind, row)


def _finite_output(kind: SsmKind, y: np.ndarray, s: np.ndarray):
    """Return (y, s) if both are finite; otherwise raise NonFiniteOutput
    naming the first non-finite output row (or FloatingPointError naming
    the state, if only it is)."""
    _finite_rows(kind, y)
    if not np.isfinite(s).all():
        raise FloatingPointError(f"{kind.value} final state is non-finite")
    return y, s


def ssm_forward(kind: SsmKind | str, k: np.ndarray, v: np.ndarray, q: np.ndarray,
                gates: GateTrack, s0: np.ndarray | None = None,
                solver: str = "exact", r: int = 30, alpha: float = DEFAULT_ALPHA):
    """Layer forward. Returns (y, final_state) where the state is an
    (d_v, d_k) array for Mamba-2/GDN and a GkaInfoState for GKA.

    Mamba-2 and GDN run the chunkwise scans of ``kernels``; GKA runs in
    information form in blocks of ``kernels.CHUNK`` tokens, with a dense
    solve per token or Chebyshev solves for all tokens at once;
    gates.lam supplies fixed per-step regularizers, otherwise
    lam_t = alpha ||H_t||_F. s0 is a (d_v, d_k) start state, zero for GKA.

    Raises ValueError on a k, v or q that is not 2-D with one row per gate
    step, a q shaped unlike k or an s0 of any other shape, naming the
    argument; on a non-finite k, v, q or s0, naming the argument
    and its first bad row; on an unknown solver or
    a Chebyshev r that is not an integer >= 1; on an alpha that is not positive
    and finite when the adaptive rule reads it; or on a complex GKA
    forward with the adaptive regularizer or Chebyshev; and
    FloatingPointError (NonFiniteOutput) when an output or final state
    overflows, naming the first non-finite output row. Complex inputs
    (a complex-step derivative, see ``autodiff``) stay complex128 throughout.
    """
    kind = _as_kind(kind)
    if solver not in ("exact", "chebyshev"):
        raise ValueError(f"unknown solver: {solver!r}")
    solver_r = 0 if solver == "exact" else check_iterations(r)
    k, v, q = _layer_inputs(gates, k=k, v=v, q=q)
    d_v, d_k = v.shape[1], k.shape[1]
    s0 = np.zeros((d_v, d_k)) if s0 is None else _real_or_complex(s0)
    if s0.shape != (d_v, d_k):
        raise ValueError(f"s0 must be (d_v, d_k) = {(d_v, d_k)}, got shape {s0.shape}")
    _require_finite(s0=s0)
    if kind is SsmKind.MAMBA2:
        return _finite_output(kind, *kernels.mamba2_scan(k, v, q, gates.gamma, s0))
    if kind is SsmKind.GDN:
        return _finite_output(kind, *kernels.gdn_scan(k, v, q, gates.gamma, gates.beta, s0))
    if np.any(s0 != 0.0):
        raise ValueError("GKA forward starts from the zero information state")
    if ((gates.lam is None or solver == "chebyshev")
            and any(map(np.iscomplexobj, (k, gates.gamma, gates.beta)))):
        # H_t depends on these; the adaptive lam_t and the Chebyshev interval
        # read ||H_t||_F, a norm that drops the imaginary part and with it
        # their share of the derivative
        raise ValueError("||H_t||_F is not analytic: a complex-step GKA forward "
                         "needs a fixed gates.lam and the exact solver")
    if gates.lam is None:
        check_alpha(alpha)
    y, h, u = kernels.gka_info_forward(k, v, q, gates.gamma, gates.beta, gates.lam,
                                       float(alpha), solver_r)
    _finite_rows(kind, y)
    # ||H_t||_F can overflow while H_t stays finite, and U_t while y_t does;
    # _derived tests them, and the kernel shapes them, so only that can fail
    try:
        return y, GkaInfoState._derived(h, u)
    except ValueError:
        raise FloatingPointError(f"{kind.value} final state is non-finite") from None


def run_chunk(kind: SsmKind | str, k: np.ndarray, v: np.ndarray, gates: GateTrack) -> ChunkRecord:
    """Process one chunk from the zero state and record (state, A_acc). For
    GDN, kernels.gdn_chunk_states gives each block of kernels.CHUNK tokens
    its zero-start end state e_c and transition a_end_c from the keys,
    values and gates alone (no queries), and the blocks fold in order,
    state <- state a_end_c + e_c and A_acc <- A_acc a_end_c. For Mamba-2
    and GKA A_acc = prod(gamma) and the state is the writes decayed to the
    chunk's end, U = (V w)^T K and GKA's H = (K w)^T K, symmetrised, with
    w_i = gamma_{i+1} ... gamma_n (times beta_i for GKA). Raises ValueError
    naming a k or v that is not 2-D with one row per gate step or is
    non-finite, and FloatingPointError on an overflowed state (or, for
    GDN, transition)."""
    kind = _as_kind(kind)
    k, v = _layer_inputs(gates, k=k, v=v)
    d_v, d_k = v.shape[1], k.shape[1]
    if kind is SsmKind.GDN:
        e, a_end = kernels.gdn_chunk_states(k, v, gates.gamma, gates.beta)
        if not len(e):  # no tokens: the zero state and the identity
            return ChunkRecord(state=np.zeros((d_v, d_k)), a_acc=np.eye(d_k))
        s, a_acc = e[0], a_end[0]
        for c in range(1, len(e)):
            s, a_acc = s @ a_end[c] + e[c], a_acc @ a_end[c]
        if not (np.all(np.isfinite(s)) and np.all(np.isfinite(a_acc))):
            raise FloatingPointError("gdn chunk state is non-finite")
        return ChunkRecord(state=s, a_acc=a_acc)
    a_acc = float(np.prod(gates.gamma))
    w = np.ones_like(gates.gamma)
    np.cumprod(gates.gamma[:0:-1], out=w[-2::-1])  # w_i = gamma_{i+1} ... gamma_n
    if kind is SsmKind.GKA:  # H rides along as d_k more value columns
        w, v = w * gates.beta, np.hstack([v, k])
    s = (v * w[:, None]).T @ k
    if not np.all(np.isfinite(s)):
        raise FloatingPointError(f"{kind.value} chunk state is non-finite")
    if kind is SsmKind.MAMBA2:
        return ChunkRecord(state=s, a_acc=a_acc)
    h = s[d_v:]
    return ChunkRecord(state=GkaInfoState._derived(0.5 * (h + h.T), s[:d_v]), a_acc=a_acc)


def gka_recurrence_equivalence(k: np.ndarray, v: np.ndarray, q: np.ndarray,
                               gates: GateTrack) -> float:
    """Max-abs output difference between the state-recurrence form and the
    information form on the same inputs, which are mathematically identical
    for gamma == 1 and one fixed lam: the recurrence path takes its gains
    from the Sherman-Morrison recursion (kernels.gka_recurrent_scan), the
    information path runs the blocked (H, U) recursion with its exact solve.
    Raises ValueError for any other gates (the adaptive lam, a decaying
    gamma or a lam that varies), whose two forms differ, on a complex k, v,
    q or beta, naming it (the recurrence form is real-only), and on a k, v
    or q that is mis-shaped or non-finite, naming the argument: the
    information form runs first, and ssm_forward reads its inputs through
    _layer_inputs before the scan reads them.
    """
    if gates.lam is None:
        raise ValueError("equivalence check needs a fixed lam track")
    if not (np.all(gates.lam == gates.lam[:1]) and np.all(gates.gamma == 1.0)):
        raise ValueError("the two GKA forms agree only for gamma == 1 and one fixed lam")
    _require_real("the GKA recurrence form", k=k, v=v, q=q, beta=gates.beta)
    y_info, _ = ssm_forward(SsmKind.GKA, k, v, q, gates)
    if gates.T == 0:
        return 0.0  # no outputs, so no gap
    k, v, q = _real_or_complex(k), _real_or_complex(v), _real_or_complex(q)
    y_rec, _, _ = kernels.gka_recurrent_scan(k, v, q, gates.beta, float(gates.lam[0]))
    return float(np.max(np.abs(y_rec - y_info)))


def ssm_io_matrix(kind: SsmKind | str, keys: np.ndarray, queries: np.ndarray,
                  gates: GateTrack) -> np.ndarray:
    """Finite-horizon input-output matrix of the layer with gates and keys
    frozen. The layer acts identically and independently on each value
    column, so one forward with the values v = I (column j the basis input
    e_j at position j) returns the matrix as its outputs."""
    T = np.shape(keys)[0]
    y, _ = ssm_forward(kind, keys, np.eye(T), queries, gates)
    return y
