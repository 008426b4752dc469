"""2-D cell-averaging CFAR detection on range-Doppler magnitude maps.

Threshold per cell: T = alpha * mean of the reference ring, where the ring
is the square annulus outside the guard region around the cell under test.
At map borders the ring is truncated and both the reference count and alpha
are recomputed per cell, so calibration holds at the edges too.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


class CfarError(ValueError):
    pass


@dataclass(frozen=True)
class CfarParams:
    """guard/reference are per-side cell counts (window extent = 2*(g+r)+1)."""

    guard: int = 5
    reference: int = 16
    pfa: float = 1e-3

    def __post_init__(self):
        if self.guard < 0:
            raise CfarError("guard must be >= 0")
        if self.reference < 1:
            raise CfarError("reference must be >= 1")
        if not 0 < self.pfa < 1:
            raise CfarError(f"pfa must be in (0, 1), got {self.pfa}")


@dataclass(frozen=True)
class DetectionMask:
    mask: np.ndarray        # bool, same shape as the input map
    thresholds: np.ndarray  # per-cell T, +inf where no reference cell exists


@dataclass(frozen=True)
class RangeBinSet:
    """Sorted, duplicate-free range-bin indices holding >= 1 detection."""

    bins: tuple[int, ...]

    def __post_init__(self):
        b = self.bins
        if list(b) != sorted(set(b)):
            raise CfarError("bins must be sorted and duplicate-free")

    def __len__(self):
        return len(self.bins)

    def __iter__(self):
        return iter(self.bins)


def cfar_alpha(params: CfarParams, n_ref) -> np.ndarray | float:
    """Scaling factor for the configured false-alarm probability.

    Classical CA-CFAR closed form for exponential noise:
    alpha = N * (pfa^(-1/N) - 1). Vectorized over n_ref.
    """
    n_ref = np.asarray(n_ref, dtype=np.float64)
    if np.any(n_ref < 1):
        raise CfarError("n_ref must be >= 1")
    alpha = n_ref * (params.pfa ** (-1.0 / n_ref) - 1.0)
    return float(alpha) if alpha.ndim == 0 else alpha


def _summed_area(arr: np.ndarray) -> np.ndarray:
    """Cumulative-sum table with a leading zero row and column."""
    rows, cols = arr.shape
    c = np.zeros((rows + 1, cols + 1))
    np.cumsum(np.cumsum(arr, axis=0), axis=1, out=c[1:, 1:])
    return c


def _box_sum(c: np.ndarray, half: int) -> np.ndarray:
    """Sum over the (2*half+1)^2 window centered at each cell, clipped at edges,
    from the map's ``_summed_area`` table ``c``."""
    rows, cols = c.shape[0] - 1, c.shape[1] - 1
    r0 = np.clip(np.arange(rows) - half, 0, rows)
    r1 = np.clip(np.arange(rows) + half + 1, 0, rows)
    c0 = np.clip(np.arange(cols) - half, 0, cols)
    c1 = np.clip(np.arange(cols) + half + 1, 0, cols)
    return c[np.ix_(r1, c1)] - c[np.ix_(r0, c1)] - c[np.ix_(r1, c0)] + c[np.ix_(r0, c0)]


def _box_count(rows: int, cols: int, half: int) -> np.ndarray:
    r_extent = np.minimum(np.arange(rows) + half + 1, rows) - np.maximum(
        np.arange(rows) - half, 0
    )
    c_extent = np.minimum(np.arange(cols) + half + 1, cols) - np.maximum(
        np.arange(cols) - half, 0
    )
    return np.outer(r_extent, c_extent).astype(np.float64)


def detect_2d(mag_map: np.ndarray, params: CfarParams) -> DetectionMask:
    """Run CA-CFAR over every cell of a magnitude map."""
    mag_map = np.asarray(mag_map, dtype=np.float64)
    if mag_map.ndim != 2:
        raise CfarError(f"expected a 2-D map, got shape {mag_map.shape}")
    if np.any(mag_map < 0):
        raise CfarError("magnitude map must be nonnegative")
    rows, cols = mag_map.shape
    outer = params.guard + params.reference
    table = _summed_area(mag_map)
    ring_sum = _box_sum(table, outer) - _box_sum(table, params.guard)
    n_ref = _box_count(rows, cols, outer) - _box_count(rows, cols, params.guard)
    if not np.any(n_ref > 0):
        raise CfarError(
            f"map of shape {mag_map.shape} leaves no reference cell at any position"
        )
    valid = n_ref > 0
    thresholds = np.full(mag_map.shape, np.inf)
    alpha = cfar_alpha(params, n_ref[valid])
    thresholds[valid] = alpha * ring_sum[valid] / n_ref[valid]
    return DetectionMask(mask=mag_map > thresholds, thresholds=thresholds)


def select_range_bins(mask: DetectionMask) -> RangeBinSet:
    """Range bins (rows) containing at least one detection."""
    rows = np.flatnonzero(mask.mask.any(axis=1))
    return RangeBinSet(bins=tuple(int(r) for r in rows))
