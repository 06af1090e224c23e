"""Algorithmic model of the symmetric tiled GKA decode step.

One decode step updates the information pair, computes the adaptive
regularizer from a Frobenius norm fused into the update pass, runs r
Chebyshev iterations, and reads the output:

  (i)  H' = gamma H + beta k k^T      (tiled; only lower-triangular tiles
                                       are persisted, the norm counts the
                                       off-diagonal tiles twice)
  (ii) lam = alpha ||H'||_F
  (iii) (H' + lam I) x = q by Chebyshev, each product formed from the
        lower tiles with the upper tiles transposed on the fly
  (iv) U' = gamma U + beta v k^T and y = U' x

The lower tiles are one (d, d) array, 0 on the strict-upper tiles, so
each stage is a whole-array pass. "Registers" become an explicit working
set and "HBM" the persisted tile store, so the two kernel variants differ
only in traffic: the resident variant keeps lower tiles in registers
across the Chebyshev loop, the reload variant re-reads them every
iteration in exchange for a smaller working set. Numerical outputs are
variant-independent; only the traffic counts differ.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property, lru_cache

import numpy as np

from .ssm_core import (DEFAULT_ALPHA, SYMMETRY_TOL, GkaInfoState, check_alpha,
                       chebyshev_solve)

VARIANTS = ("reference", "tiled_small_batch", "tiled_large_batch")
DEFAULT_TILE = 64


@dataclass
class TileCounters:
    """Persisted H-tile traffic for one decode step."""

    loads: int = 0
    stores: int = 0


@lru_cache(maxsize=8)
def _tile_masks(d: int, b: int) -> tuple[np.ndarray, np.ndarray]:
    """The (upper, strict) masks of a (d, d) matrix cut into b x b tiles:
    entry (r, c) lies on a strict-upper tile if r // b < c // b and on a
    strictly lower one if r // b > c // b."""
    t = np.arange(d) // b
    upper, strict = t[:, None] < t[None, :], t[:, None] > t[None, :]
    upper.flags.writeable = strict.flags.writeable = False  # shared by every caller
    return upper, strict


class LowerTiles:
    """Lower-triangular tile store for a symmetric matrix H cut into b x b
    tiles: ``lower`` equals H on the tiles (i, j) with i >= j and is exactly
    0 on the strict-upper tiles, which are never materialized. Its strictly
    lower tiles, ``strict``, stand in transposed for the upper tiles."""

    def __init__(self, lower: np.ndarray, b: int):
        self.lower = lower
        self.b = b
        self.g = lower.shape[0] // b

    @cached_property
    def strict(self) -> np.ndarray:
        return self.lower * _tile_masks(self.lower.shape[0], self.b)[1]

    @classmethod
    def from_dense(cls, h: np.ndarray, b: int, tol: float = SYMMETRY_TOL) -> "LowerTiles":
        if h.ndim != 2 or h.shape[0] != h.shape[1]:
            raise ValueError("H must be square")
        _check_tile("k", b, h.shape[0])
        if np.max(np.abs(h - h.T), initial=0.0) > tol:
            raise ValueError(f"H must be symmetric within {tol}")
        return cls._split(h, b)

    @classmethod
    def _split(cls, h: np.ndarray, b: int) -> "LowerTiles":
        """The lower tiles of h, unchecked: h must be square, symmetric
        within SYMMETRY_TOL and of a size b divides, as a GkaInfoState's H
        under decode_step's tile check is."""
        return cls(np.where(_tile_masks(h.shape[0], b)[0], 0.0, h), b)

    def to_dense(self) -> np.ndarray:
        return self.lower + self.strict.T

    def n_lower(self) -> int:
        return self.g * (self.g + 1) // 2


def tiled_update_and_norm(tiles: LowerTiles, k: np.ndarray, gamma: float, beta: float,
                          counters: TileCounters | None = None
                          ) -> tuple[LowerTiles, float]:
    """H' = gamma H + beta k k^T over the lower tiles, with the Frobenius
    norm taken in the same pass: ||H'||^2 = ||lower||^2 + ||strict||^2
    counts the off-diagonal tiles twice, once for their unmaterialized
    mirrors. Each lower tile counts as one load and one store."""
    upper, strict = _tile_masks(tiles.lower.shape[0], tiles.b)
    kk = beta * np.outer(k, k)
    new = gamma * tiles.lower + kk
    np.copyto(new, 0.0, where=upper)
    out = LowerTiles(new, tiles.b)
    # a fresh (d, d) array costs about a pass over it: kk's buffer becomes strict
    out.strict = np.multiply(new, strict, out=kk)
    if counters is not None:
        counters.loads += out.n_lower()
        counters.stores += out.n_lower()
    return out, float(np.sqrt(np.vdot(new, new) + np.vdot(out.strict, out.strict)))


def tiled_matvec(tiles: LowerTiles, x: np.ndarray,
                 counters: TileCounters | None = None) -> np.ndarray:
    """H @ x from the lower tiles; the upper contributions use the
    transposed strictly lower tiles already at hand (no extra
    persisted-tile traffic). Each lower tile read counts as a load when
    counters are given."""
    if x.shape[0] != tiles.lower.shape[0]:
        raise ValueError(f"vector length {x.shape[0]} incompatible with grid {tiles.g}x{tiles.b}")
    if counters is not None:
        counters.loads += tiles.n_lower()
    return tiles.lower @ x + tiles.strict.T @ x


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
    """One GKA decode step under the chosen kernel variant. All variants
    agree numerically (up to summation order); they differ in the modeled
    persisted-tile traffic. k, v and q must be finite vectors of length
    d_k, d_v and d_k; a bad one raises ValueError naming it, as do an alpha
    that is not positive and finite and a tile size b_k or b_v below 1 or
    not dividing d_k or d_v (U's traffic is not modeled; b_v is only
    checked). The input state's H is symmetric and the returned state is
    derived from it by a PSD-preserving update, so neither its symmetry nor
    its spectrum is checked again."""
    if variant not in VARIANTS:
        raise ValueError(f"variant must be one of {VARIANTS}")
    if r < 1:
        raise ValueError("need r >= 1 Chebyshev iterations")
    if not (0.0 <= gamma <= 1.0 and 0.0 <= beta <= 1.0):
        raise ValueError(f"gates out of [0, 1]: gamma={gamma}, beta={beta}")
    check_alpha(alpha)
    d_k, d_v = state.d_k, state.d_v
    _check_tile("k", b_k, d_k)
    _check_tile("v", b_v, d_v)
    k, v, q = _step_vector("k", k, d_k), _step_vector("v", v, d_v), _step_vector("q", q, d_k)
    counters = TileCounters()

    if variant == "reference":
        h = gamma * state.h + beta * np.outer(k, k)
        fro = float(np.linalg.norm(h))
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
    lam = alpha * fro
    if lam > 0.0:
        x, _ = chebyshev_solve(apply_h, lam, q, r, spectral_bounds=(lam, lam + fro))
    else:
        x = np.zeros(d_k)  # empty information matrix: nothing to read
    u = gamma * state.u + beta * np.outer(v, k)
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
    if r < 1:
        raise ValueError("need r >= 1")
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
