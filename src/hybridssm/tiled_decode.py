"""Algorithmic model of the symmetric tiled GKA decode step.

One decode step updates the information pair, computes the adaptive
regularizer from a Frobenius norm fused into the update pass, runs r
Chebyshev iterations, and reads the output:

  (i)  H' = gamma H + beta k k^T      (tiled; only lower-triangular tiles
                                       are persisted, the norm accumulator
                                       doubles off-diagonal contributions)
  (ii) lam = alpha ||H'||_F
  (iii) (H' + lam I) x = q by Chebyshev, each product formed from lower
        tiles with upper tiles transposed on the fly
  (iv) U' = gamma U + beta v k^T and y = U' x (tiled, not symmetric)

"Registers" become an explicit working set and "HBM" the persisted tile
store, so the two kernel variants differ only in traffic: the resident
variant keeps lower tiles in registers across the Chebyshev loop, the
reload variant re-reads them every iteration in exchange for a smaller
working set. Numerical outputs are variant-independent; only the traffic
counts differ.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .ssm_core import (DEFAULT_ALPHA, SYMMETRY_TOL, GkaInfoState, chebyshev_solve,
                       gka_info_update)

VARIANTS = ("reference", "tiled_small_batch", "tiled_large_batch")
DEFAULT_TILE = 64


@dataclass
class TileCounters:
    """Persisted H-tile traffic for one decode step."""

    loads: int = 0
    stores: int = 0


class LowerTiles:
    """Lower-triangular tile store for a symmetric matrix: tile (i, j) with
    i >= j holds H[i*b : (i+1)*b, j*b : (j+1)*b]; upper tiles are never
    materialized and are reconstructed by transposing their mirror."""

    def __init__(self, tiles: dict, g: int, b: int):
        self.tiles = tiles
        self.g = g
        self.b = b

    @classmethod
    def from_dense(cls, h: np.ndarray, b: int, tol: float = SYMMETRY_TOL) -> "LowerTiles":
        if h.ndim != 2 or h.shape[0] != h.shape[1]:
            raise ValueError("H must be square")
        if np.max(np.abs(h - h.T), initial=0.0) > tol:
            raise ValueError(f"H must be symmetric within {tol}")
        d = h.shape[0]
        if d % b != 0:
            raise ValueError(f"tile size {b} does not divide {d}")
        g = d // b
        tiles = {(i, j): h[i * b:(i + 1) * b, j * b:(j + 1) * b].copy()
                 for i in range(g) for j in range(i + 1)}
        return cls(tiles, g, b)

    def to_dense(self) -> np.ndarray:
        d = self.g * self.b
        out = np.zeros((d, d))
        for (i, j), tile in self.tiles.items():
            out[i * self.b:(i + 1) * self.b, j * self.b:(j + 1) * self.b] = tile
            if i != j:
                out[j * self.b:(j + 1) * self.b, i * self.b:(i + 1) * self.b] = tile.T
        return out

    def n_lower(self) -> int:
        return self.g * (self.g + 1) // 2


def tiled_update_and_norm(tiles: LowerTiles, k: np.ndarray, gamma: float, beta: float,
                          counters: TileCounters | None = None
                          ) -> tuple[LowerTiles, float]:
    """H'[i,j] = gamma H[i,j] + beta k[i] k[j]^T over lower tiles, with the
    squared Frobenius norm accumulated in the same pass (off-diagonal tiles
    counted twice for their unmaterialized mirrors)."""
    b = tiles.b
    out = {}
    acc = 0.0
    for (i, j), tile in sorted(tiles.tiles.items()):
        if counters is not None:
            counters.loads += 1
        new = gamma * tile + beta * np.outer(k[i * b:(i + 1) * b], k[j * b:(j + 1) * b])
        out[(i, j)] = new
        weight = 1.0 if i == j else 2.0
        acc += weight * float(np.sum(new * new))
        if counters is not None:
            counters.stores += 1
    return LowerTiles(out, tiles.g, b), float(np.sqrt(acc))


def tiled_matvec(tiles: LowerTiles, x: np.ndarray,
                 counters: TileCounters | None = None) -> np.ndarray:
    """H @ x from lower tiles; upper contributions use the transposed
    mirror tile already at hand (no extra persisted-tile traffic). Each
    lower tile read counts as a load when counters are given."""
    b, g = tiles.b, tiles.g
    if x.shape[0] != g * b:
        raise ValueError(f"vector length {x.shape[0]} incompatible with grid {g}x{b}")
    out = np.zeros_like(x)
    for (i, j), tile in sorted(tiles.tiles.items()):
        if counters is not None:
            counters.loads += 1
        out[i * b:(i + 1) * b] += tile @ x[j * b:(j + 1) * b]
        if i != j:
            out[j * b:(j + 1) * b] += tile.T @ x[i * b:(i + 1) * b]
    return out


def _tiled_u_update_and_read(u: np.ndarray, k: np.ndarray, v: np.ndarray,
                             gamma: float, beta: float, x: np.ndarray,
                             b_v: int, b_k: int) -> tuple[np.ndarray, np.ndarray]:
    """U' = gamma U + beta v k^T and y = U' x, streamed tile by tile."""
    d_v, d_k = u.shape
    out = np.zeros_like(u)
    y = np.zeros(d_v)
    for i in range(d_v // b_v):
        rows = slice(i * b_v, (i + 1) * b_v)
        for j in range(d_k // b_k):
            cols = slice(j * b_k, (j + 1) * b_k)
            tile = gamma * u[rows, cols] + beta * np.outer(v[rows], k[cols])
            out[rows, cols] = tile
            y[rows] += tile @ x[cols]
    return out, y


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
    agree numerically (up to tile-sum reassociation); they differ in the
    modeled persisted-tile traffic. k, v and q must be finite vectors of
    length d_k, d_v and d_k; a bad one raises ValueError naming it, as does
    a tile size b_k or b_v below 1 or not dividing d_k or d_v. The
    returned state is derived from the validated input state by a
    PSD-preserving update, so its spectrum is not checked again."""
    if variant not in VARIANTS:
        raise ValueError(f"variant must be one of {VARIANTS}")
    if r < 1:
        raise ValueError("need r >= 1 Chebyshev iterations")
    if not (0.0 <= gamma <= 1.0 and 0.0 <= beta <= 1.0):
        raise ValueError(f"gates out of [0, 1]: gamma={gamma}, beta={beta}")
    d_k, d_v = state.d_k, state.d_v
    _check_tile("k", b_k, d_k)
    _check_tile("v", b_v, d_v)
    k, v, q = _step_vector("k", k, d_k), _step_vector("v", v, d_v), _step_vector("q", q, d_k)
    counters = TileCounters()

    if variant == "reference":
        new_state = gka_info_update(state, k, v, gamma, beta)
        fro = float(np.linalg.norm(new_state.h))
        g = d_k // b_k
        counters.loads += g * g      # whole-matrix update traversal
        counters.stores += g * g
        lam = alpha * fro
        if lam > 0.0:
            x, _ = chebyshev_solve(new_state.h, lam, q, r, spectral_bounds=(lam, lam + fro))
            counters.loads += r * g * g  # whole matrix per CH iteration
        else:
            x = np.zeros(d_k)  # empty information matrix: nothing to read
        return DecodeResult(y=new_state.u @ x, state=new_state, lam=lam,
                            fro_norm=fro, counters=counters)

    tiles = LowerTiles.from_dense(state.h, b_k)
    tiles, fro = tiled_update_and_norm(tiles, k, gamma, beta, counters)
    lam = alpha * fro
    # the small-batch variant keeps its tiles resident across the Chebyshev
    # loop; the large-batch one reloads them every iteration
    reloads = counters if variant == "tiled_large_batch" else None
    if lam > 0.0:
        apply_h = lambda p: tiled_matvec(tiles, p, reloads)
        x, _ = chebyshev_solve(apply_h, lam, q, r, spectral_bounds=(lam, lam + fro))
    else:
        x = np.zeros(d_k)  # empty information matrix: nothing to read
    u_new, y = _tiled_u_update_and_read(state.u, k, v, gamma, beta, x, b_v, b_k)
    return DecodeResult(y=y, state=GkaInfoState._derived(tiles.to_dense(), u_new),
                        lam=lam, fro_norm=fro, counters=counters)


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
