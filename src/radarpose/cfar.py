"""2-D cell-averaging CFAR detection on range-Doppler magnitude maps.

Threshold per cell: T = alpha * mean of the reference ring, where the ring
is the square annulus outside the guard region around the cell under test.
At map borders the ring is truncated and both the reference count and alpha
are recomputed per cell, so calibration holds at the edges too. Both depend
only on the map shape and the parameters, so they are built once per shape.
"""

from __future__ import annotations

import functools
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


def cfar_alpha(params: CfarParams, n_ref) -> np.ndarray:
    """Scaling factor for the configured false-alarm probability.

    Classical CA-CFAR closed form for exponential noise:
    alpha = N * (pfa^(-1/N) - 1). Vectorized over n_ref.
    """
    n_ref = np.asarray(n_ref, dtype=np.float64)
    if np.any(n_ref < 1):
        raise CfarError("n_ref must be >= 1")
    return n_ref * (params.pfa ** (-1.0 / n_ref) - 1.0)


def _summed_area(arr: np.ndarray) -> np.ndarray:
    """Cumulative-sum table with a leading zero row and column."""
    rows, cols = arr.shape
    c = np.zeros((rows + 1, cols + 1))
    np.cumsum(np.cumsum(arr, axis=0), axis=1, out=c[1:, 1:])
    return c


def _window(rows: int, cols: int, half: int) -> tuple[np.ndarray, np.ndarray]:
    """Flat indices into a map's ``_summed_area`` table of the corners
    (r1, c1), (r0, c1), (r1, c0), (r0, c0) of each cell's (2*half+1)^2
    window clipped at the edges, shape (4, rows*cols), and the window's cell
    count, shape (rows, cols)."""
    # past the map's extent a window covers the whole map; clipped here, a
    # half too large for int64 never reaches numpy
    half = min(half, max(rows, cols))
    r, c = np.arange(rows), np.arange(cols)
    r0, r1 = np.clip(r - half, 0, rows), np.clip(r + half + 1, 0, rows)
    c0, c1 = np.clip(c - half, 0, cols), np.clip(c + half + 1, 0, cols)
    corners = np.stack([
        (ri[:, None] * (cols + 1) + ci[None, :]).ravel()
        for ri, ci in ((r1, c1), (r0, c1), (r1, c0), (r0, c0))
    ])
    return corners, np.outer(r1 - r0, c1 - c0)


@functools.lru_cache(maxsize=8)
def _ring_plan(rows: int, cols: int, params: CfarParams):
    """The shape-only part of ``detect_2d``, built once per map shape and params.

    Returns the flat indices of the cells with at least one reference cell,
    their alpha and reference count n_ref, and the (8, cells) table corners
    of their outer window then their guard window. The arrays are shared
    between calls, so they are read-only.
    """
    outer, outer_count = _window(rows, cols, params.guard + params.reference)
    inner, inner_count = _window(rows, cols, params.guard)
    n_ref = (outer_count - inner_count).astype(np.float64).ravel()
    cells = np.flatnonzero(n_ref > 0)
    if cells.size == 0:
        raise CfarError(
            f"map of shape {(rows, cols)} leaves no reference cell at any position"
        )
    n_ref = n_ref[cells]
    plan = (cells, cfar_alpha(params, n_ref), n_ref, np.concatenate([outer, inner])[:, cells])
    for arr in plan:
        arr.flags.writeable = False
    return plan


def detect_2d(mag_map: np.ndarray, params: CfarParams) -> DetectionMask:
    """Run CA-CFAR over every cell of a magnitude map."""
    mag_map = np.asarray(mag_map, dtype=np.float64)
    if mag_map.ndim != 2:
        raise CfarError(f"expected a 2-D map, got shape {mag_map.shape}")
    if np.any(mag_map < 0):
        raise CfarError("magnitude map must be nonnegative")
    cells, alpha, n_ref, corners = _ring_plan(*mag_map.shape, params)
    t = _summed_area(mag_map).ravel()[corners]
    # each window sum as ((r1c1 - r0c1) - r1c0) + r0c0, then alpha * ring / n_ref:
    # another order changes the thresholds in their last bits
    ring_sum = (t[0] - t[1] - t[2] + t[3]) - (t[4] - t[5] - t[6] + t[7])
    thresholds = np.full(mag_map.shape, np.inf)
    thresholds.ravel()[cells] = alpha * ring_sum / n_ref
    return DetectionMask(mask=mag_map > thresholds, thresholds=thresholds)


def select_range_bins(mask: DetectionMask) -> RangeBinSet:
    """Range bins (rows) containing at least one detection."""
    rows = np.flatnonzero(mask.mask.any(axis=1))
    return RangeBinSet(bins=tuple(int(r) for r in rows))
