"""Algorithmic model of the symmetric tiled GKA decode step.

One decode step updates the information pair, computes the adaptive
regularizer from a Frobenius norm fused into the update pass, runs r
Chebyshev iterations, and reads the output:

  (i)  H' = gamma H + beta k k^T      (tiled; only lower-triangular tiles
                                       are computed and persisted, the norm
                                       counts the off-diagonal tiles twice)
  (ii) lam = alpha ||H'||_F
  (iii) (H' + lam I) x = q by Chebyshev, each product one GEMV on the
        symmetric operand that the step builds once from the lower tiles
        by mirroring each tile row's strictly lower strip into the
        matching tile column (the mirror is never persisted)
  (iv) U' = gamma U + beta v k^T and y = U' x

The lower tiles are one (d, d) array, 0 on the strict-upper tiles. Both
rank-one writes, (i) and (iv), are kernels.decayed_rank_one: the old
state is scaled into the new array in one pass, and the write is added
one tile row at a time (strips of b_k rows for H', of b_v rows for U'),
each strip formed and scaled in place. So a step allocates no (d, d)
array besides the ones it returns and, for the tiled variants, the tile
stores; (i) takes the write on the lower tiles only, 10 of the 16 at a
4 x 4 grid. Every entry keeps the bits of the whole-matrix expression
gamma H + beta k k^T. "Registers" become an explicit working
set and "HBM" the persisted tile store, so the two kernel variants differ
only in traffic: the resident variant keeps lower tiles in registers
across the Chebyshev loop, the reload variant re-reads them every
iteration in exchange for a smaller working set. Numerical outputs are
variant-independent; only the traffic counts differ.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from . import kernels
from .ssm_core import (DEFAULT_ALPHA, SYMMETRY_TOL, GkaInfoState, check_alpha,
                       check_iterations, chebyshev_solve)

VARIANTS = ("reference", "tiled_small_batch", "tiled_large_batch")
DEFAULT_TILE = 64


@dataclass
class TileCounters:
    """Persisted H-tile traffic for one decode step."""

    loads: int = 0
    stores: int = 0


def _zero_upper(a: np.ndarray, b: int) -> np.ndarray:
    """a with its strict-upper b x b tiles set to 0 in place: one strip
    a[:i, i:i+b] per tile column i > 0, so g - 1 writes on a g x g grid."""
    for i in range(b, a.shape[0], b):
        a[:i, i:i + b] = 0.0
    return a


class LowerTiles:
    """Lower-triangular tile store for a symmetric matrix H cut into b x b
    tiles: ``lower`` equals H on the tiles (i, j) with i >= j and is exactly
    0 on the strict-upper tiles, which are never persisted."""

    def __init__(self, lower: np.ndarray, b: int):
        self.lower = lower
        self.b = b
        self.g = lower.shape[0] // b

    @cached_property
    def _operand(self) -> np.ndarray:
        h, b = self.lower.copy(), self.b
        for i in range(b, h.shape[0], b):  # tile row i's strictly lower strip, transposed
            h[:i, i:i + b] = self.lower[i:i + b, :i].T
        return h

    @classmethod
    def from_dense(cls, h: np.ndarray, b: int, tol: float = SYMMETRY_TOL) -> "LowerTiles":
        if h.ndim != 2 or h.shape[0] != h.shape[1]:
            raise ValueError("H must be square")
        _check_tile("k", b, h.shape[0])
        if not np.isfinite(h).all():
            bad = np.argwhere(~np.isfinite(h))[0]
            raise ValueError(f"non-finite entry at (row, col) = {tuple(int(i) for i in bad)}")
        if np.max(np.abs(h - h.T), initial=0.0) > tol:
            raise ValueError(f"H must be symmetric within {tol}")
        return cls._split(h, b)

    @classmethod
    def _split(cls, h: np.ndarray, b: int) -> "LowerTiles":
        """The lower tiles of h, unchecked: h must be square, finite,
        symmetric within SYMMETRY_TOL and of a size b divides, as a
        GkaInfoState's H under decode_step's tile check is."""
        return cls(_zero_upper(h.astype(np.result_type(h, 0.0)), b), b)

    def to_dense(self) -> np.ndarray:
        """H as one exactly symmetric (d, d) array: ``lower`` with each
        tile row's strictly lower strip mirrored into the matching tile
        column. It is built on the first call and cached, so every call and
        every tiled_matvec on this store share one array: this is not a
        copy, and writing to it changes the store's products."""
        return self._operand

    def n_lower(self) -> int:
        return self.g * (self.g + 1) // 2


def tiled_update_and_norm(tiles: LowerTiles, k: np.ndarray, gamma: float, beta: float,
                          counters: TileCounters | None = None
                          ) -> tuple[LowerTiles, float]:
    """H' = gamma H + beta k k^T over the lower tiles, with the Frobenius
    norm of the symmetric operand they build (to_dense), which counts each
    off-diagonal tile twice, once for its unpersisted mirror. The write
    (kernels.decayed_rank_one) goes one tile row at a time and forms
    beta k k^T on the lower tiles only; the strict-upper tiles stay 0. On
    an exactly symmetric H this is the reference step's sum, so lam matches
    it bit for bit. Each lower tile counts as one load and one store."""
    b = tiles.b
    out = LowerTiles(kernels.decayed_rank_one(tiles.lower, k, k, gamma, beta, b, lower=True), b)
    if counters is not None:
        counters.loads += out.n_lower()
        counters.stores += out.n_lower()
    return out, kernels.frobenius_norm(out._operand)


def tiled_matvec(tiles: LowerTiles, x: np.ndarray,
                 counters: TileCounters | None = None) -> np.ndarray:
    """H @ x as one GEMV on the store's symmetric operand (to_dense), which
    mirrors the strictly lower tiles once per store rather than once per
    product; the mirror is never persisted, so it adds no tile traffic.
    Each lower tile read counts as a load when counters are given."""
    if x.shape[0] != tiles.lower.shape[0]:
        raise ValueError(f"vector length {x.shape[0]} incompatible with grid {tiles.g}x{tiles.b}")
    if counters is not None:
        counters.loads += tiles.n_lower()
    return tiles._operand @ x


def _check_tile(axis: str, b: int, d: int) -> None:
    """ValueError unless the tile size b_axis is >= 1 and divides d_axis."""
    if b < 1:
        raise ValueError("tile sizes must be >= 1")
    if d % b != 0:
        raise ValueError(f"b_{axis}={b} does not divide d_{axis}={d}")


def _step_vector(name: str, x, n: int) -> np.ndarray:
    """x as a float64 vector of length n, or ValueError naming it if it
    has another shape or a non-finite entry."""
    x = np.asarray(x, dtype=np.float64)
    if x.shape != (n,):
        raise ValueError(f"{name} must be a vector of length {n}, got shape {x.shape}")
    if not np.all(np.isfinite(x)):
        raise ValueError(f"{name} is non-finite at entry {int(np.argmin(np.isfinite(x)))}")
    return x


@dataclass(frozen=True)
class DecodeResult:
    y: np.ndarray
    state: GkaInfoState
    lam: float
    fro_norm: float
    counters: TileCounters = field(default_factory=TileCounters)


def decode_step(state: GkaInfoState, k: np.ndarray, v: np.ndarray, q: np.ndarray,
                gamma: float, beta: float, variant: str = "reference",
                r: int = 30, alpha: float = DEFAULT_ALPHA,
                b_k: int = DEFAULT_TILE, b_v: int = DEFAULT_TILE) -> DecodeResult:
    """One GKA decode step under the chosen kernel variant. The variants
    differ only in the modeled persisted-tile traffic: on an exactly
    symmetric H the tiled ones form the reference's H', lam and products,
    so y agrees bit for bit (to rounding on an H symmetric only within
    SYMMETRY_TOL). k, v and q must be finite vectors of length d_k, d_v
    and d_k; a bad one raises ValueError naming it, as do an r that is not
    an integer >= 1, an alpha that is not positive and finite and a tile
    size b_k or b_v below 1 or not dividing d_k or d_v. The tile sizes are
    also the heights of the strips in which the rank-one writes are added
    (kernels.decayed_rank_one): b_k rows for H' and b_v rows for U', whose
    traffic is not modeled. An updated H whose Frobenius norm is not
    finite (kernels.frobenius_norm, which is finite wherever H is and the
    norm fits the range) raises FloatingPointError naming it, before any
    solve. The input
    state's H is symmetric and the returned state is
    derived from it by a PSD-preserving update, so neither its symmetry nor
    its spectrum is checked again."""
    if variant not in VARIANTS:
        raise ValueError(f"variant must be one of {VARIANTS}")
    r = check_iterations(r)
    if not (0.0 <= gamma <= 1.0 and 0.0 <= beta <= 1.0):
        raise ValueError(f"gates out of [0, 1]: gamma={gamma}, beta={beta}")
    check_alpha(alpha)
    d_k, d_v = state.d_k, state.d_v
    _check_tile("k", b_k, d_k)
    _check_tile("v", b_v, d_v)
    k, v, q = _step_vector("k", k, d_k), _step_vector("v", v, d_v), _step_vector("q", q, d_k)
    counters = TileCounters()

    if variant == "reference":
        h = kernels.decayed_rank_one(state.h, k, k, gamma, beta, b_k)
        fro = kernels.frobenius_norm(h)
        n_tiles = (d_k // b_k) ** 2
        counters.loads += n_tiles  # whole-matrix update traversal
        counters.stores += n_tiles

        def apply_h(p):
            counters.loads += n_tiles  # whole matrix per Chebyshev iteration
            return h @ p
    else:
        tiles, fro = tiled_update_and_norm(LowerTiles._split(state.h, b_k), k, gamma, beta,
                                           counters)  # a GkaInfoState's H is symmetric
        h = tiles.to_dense()
        # the small-batch variant keeps its tiles resident across the Chebyshev
        # loop; the large-batch one reloads them every iteration
        reloads = counters if variant == "tiled_large_batch" else None
        apply_h = lambda p: tiled_matvec(tiles, p, reloads)
    if not fro < np.inf:  # a key of norm ~1e160 overflows beta k k^T; 1e80 does not
        raise FloatingPointError(f"the updated state H' = gamma H + beta k k^T is non-finite "
                                 f"(||H'||_F = {fro})")
    lam = alpha * fro
    if lam > 0.0:
        x, _ = chebyshev_solve(apply_h, lam, q, r, spectral_bounds=(lam, lam + fro))
    else:
        x = np.zeros(d_k)  # empty information matrix: nothing to read
    u = kernels.decayed_rank_one(state.u, v, k, gamma, beta, b_v)
    return DecodeResult(y=u @ x, state=GkaInfoState._derived(h, u), lam=lam, fro_norm=fro,
                        counters=counters)


def select_variant(n_program_instances: int, crossover: int = 128) -> str:
    """Dispatch rule between the tiled variants: below the crossover there
    are too few concurrent program instances (batch x heads) for the reload
    variant's extra parallelism to pay for its per-iteration traffic, so the
    resident variant wins. The crossover is hardware-specific and therefore
    a parameter, not a constant."""
    if n_program_instances < 1:
        raise ValueError("need at least one program instance")
    return "tiled_small_batch" if n_program_instances < crossover else "tiled_large_batch"


@dataclass(frozen=True)
class TrafficReport:
    variant: str
    g: int
    r: int
    tiles_loaded: int
    tiles_stored: int
    skipped_fraction: float


def traffic_model(d_k: int, b_k: int, variant: str, r: int) -> TrafficReport:
    """Persisted H-tile loads/stores per decode step, and the fraction of
    tiles never touched thanks to symmetry: strict-upper / total =
    g(g-1)/(2 g^2), approaching 1/2 as the grid grows. A step whose updated
    H is empty (lam = 0) runs no Chebyshev iteration and loads only for
    the update: one load per stored tile."""
    if variant not in VARIANTS:
        raise ValueError(f"variant must be one of {VARIANTS}")
    _check_tile("k", b_k, d_k)
    r = check_iterations(r)
    g = d_k // b_k
    n_low = g * (g + 1) // 2
    if variant == "reference":
        return TrafficReport(variant, g, r, tiles_loaded=(1 + r) * g * g,
                             tiles_stored=g * g, skipped_fraction=0.0)
    skipped = (g * (g - 1) / 2) / (g * g)
    if variant == "tiled_small_batch":
        loads = n_low            # update only; tiles stay resident for CH
    else:
        loads = n_low * (1 + r)  # update + reload per CH iteration
    return TrafficReport(variant, g, r, tiles_loaded=loads, tiles_stored=n_low,
                         skipped_fraction=skipped)
