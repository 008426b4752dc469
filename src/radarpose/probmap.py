"""Probability-map branch: angle spectra on detected range bins, per-range
L1 normalization, rank-1 range-azimuth-elevation probability maps, and
sinusoidal positional encoding guided by those maps.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .adc import RadarCube
from .cfar import RangeBinSet
from .config import RadarConfig
from .spectral import (
    AZIMUTH, ELEVATION, P_AXIS_ANGLE, RangeDopplerMap, angle_fft_length, average_elevation,
    range_doppler_map,
)

PE_DEPTH = 32  # default positional-encoding depth


class ProbMapError(ValueError):
    pass


@dataclass(frozen=True)
class RangeAngleVector:
    """Nonnegative (range bin, angle bin) values for one radar.

    ``empty_rows[i]`` marks rows that were identically zero and therefore
    carry no probability mass after normalization.
    """

    values: np.ndarray
    bins: RangeBinSet
    angle_kind: str
    empty_rows: tuple[bool, ...]

    def __post_init__(self):
        if self.values.ndim != 2 or self.values.shape[0] != len(self.bins):
            raise ProbMapError(
                f"values shape {self.values.shape} does not match {len(self.bins)} bins"
            )
        if self.angle_kind not in (AZIMUTH, ELEVATION):
            raise ProbMapError(f"bad angle_kind {self.angle_kind!r}")


@dataclass(frozen=True)
class ProbabilityMap:
    """Per-range azimuth x elevation likelihood, unit-sum and rank-1 per row."""

    values: np.ndarray  # (R_sel, A, E)
    range_bins: RangeBinSet
    empty_rows: tuple[bool, ...] = ()


@dataclass(frozen=True)
class PositionalEncoding:
    """Sine/cosine coordinate channels of shape (2*depth, A, E).

    Channels [0, depth) encode the azimuth coordinate, [depth, 2*depth)
    the elevation coordinate.
    """

    channels: np.ndarray
    depth: int


def angle_spectrum(
    rd: RangeDopplerMap | RadarCube,
    config: RadarConfig,
    bins: RangeBinSet,
    axis: str,
    angle_fft: int | None = None,
) -> RangeAngleVector:
    """Doppler-averaged angle magnitude spectra for the selected range bins.

    ``axis`` must be the angle the radar's P axis sees (``P_AXIS_ANGLE``).
    The FFT (``angle_fft_length`` bins) runs across the elevation-averaged
    antennas of the range-Doppler map, which should be the one detection
    ran on. A RadarCube is first transformed with ``range_doppler_map``.
    """
    expected = P_AXIS_ANGLE[rd.radar_id]
    if axis != expected:
        raise ProbMapError(f"{rd.radar_id} radar provides {expected}, not {axis}")
    angle_len = angle_fft_length(config, angle_fft)
    if isinstance(rd, RadarCube):
        rd = range_doppler_map(rd)
    n_range = rd.data.shape[0]
    bad = [b for b in bins if not 0 <= b < n_range]
    if bad:
        raise ProbMapError(f"range bins {bad} outside [0, {n_range})")
    sub = average_elevation(rd, config).data[list(bins)]  # (R_sel, Doppler, P)
    spectra = np.fft.fft(sub, n=angle_len, axis=2)
    values = np.abs(spectra).mean(axis=1)
    empty = tuple(bool(r) for r in ~values.any(axis=1))
    return RangeAngleVector(values=values, bins=bins, angle_kind=axis, empty_rows=empty)


def normalize(v: RangeAngleVector) -> RangeAngleVector:
    """Per-range-row L1 normalization; all-zero rows stay zero and are flagged."""
    if np.any(v.values < 0):
        raise ProbMapError("negative values; angle spectra must be magnitudes")
    norms = v.values.sum(axis=1)
    empty = norms == 0
    safe = np.where(empty, 1.0, norms)
    return RangeAngleVector(
        values=v.values / safe[:, None],
        bins=v.bins,
        angle_kind=v.angle_kind,
        empty_rows=tuple(bool(e) for e in empty),
    )


def _expand_to(v: RangeAngleVector, union: tuple[int, ...]) -> tuple[np.ndarray, np.ndarray]:
    """Rows of v on the union bin set; missing rows become uniform."""
    a = v.values.shape[1]
    out = np.full((len(union), a), 1.0 / a)
    empty = np.zeros(len(union), dtype=bool)
    lookup = {b: i for i, b in enumerate(v.bins)}
    for row, b in enumerate(union):
        if b in lookup:
            out[row] = v.values[lookup[b]]
            empty[row] = v.empty_rows[lookup[b]]
    return out, empty


def probability_map(v_ra: RangeAngleVector, v_re: RangeAngleVector) -> ProbabilityMap:
    """Outer product of normalized azimuth and elevation rows per range bin.

    Bin sets from the two radars may differ: the map covers their union, and
    a radar's missing row is replaced by the uniform distribution (keeps unit
    sum). Each row must sum to 1 within 1e-9, or to 0 if flagged empty.
    """
    for v in (v_ra, v_re):
        target = np.where(v.empty_rows, 0.0, 1.0)
        if np.any(np.abs(v.values.sum(axis=1) - target) > 1e-9):
            raise ProbMapError("both vectors must be normalized")
    if v_ra.angle_kind != AZIMUTH or v_re.angle_kind != ELEVATION:
        raise ProbMapError(
            f"expected azimuth x elevation, got {v_ra.angle_kind} x {v_re.angle_kind}"
        )
    union = tuple(sorted(set(v_ra.bins) | set(v_re.bins)))
    bin_set = RangeBinSet(bins=union)
    az, az_empty = _expand_to(v_ra, union)
    el, el_empty = _expand_to(v_re, union)
    values = az[:, :, None] * el[:, None, :]
    empty = az_empty | el_empty
    return ProbabilityMap(
        values=values, range_bins=bin_set, empty_rows=tuple(bool(e) for e in empty)
    )


def positional_encoding(a_bins: int, e_bins: int, depth: int = PE_DEPTH) -> PositionalEncoding:
    """Sine/cosine encoding of integer (azimuth, elevation) bin coordinates.

    Channel 2i at azimuth position p holds sin(p / 10000^(2i/depth)) and
    channel 2i+1 the matching cosine; elevation channels follow, offset by
    ``depth``. Positions start at 0.
    """
    if depth < 2 or depth % 2:
        raise ProbMapError(f"depth must be even and >= 2, got {depth}")
    if a_bins < 1 or e_bins < 1:
        raise ProbMapError("axis sizes must be >= 1")
    half = depth // 2
    freqs = 1.0 / (10000.0 ** (2.0 * np.arange(half) / depth))  # (half,)

    def coord_channels(positions: np.ndarray) -> np.ndarray:
        phase = positions[None, :] * freqs[:, None]  # (half, n)
        out = np.empty((depth, positions.size))
        out[0::2] = np.sin(phase)
        out[1::2] = np.cos(phase)
        return out

    theta = coord_channels(np.arange(a_bins, dtype=np.float64))  # (depth, A)
    phi = coord_channels(np.arange(e_bins, dtype=np.float64))    # (depth, E)
    channels = np.empty((2 * depth, a_bins, e_bins))
    channels[:depth] = theta[:, :, None]
    channels[depth:] = phi[:, None, :]
    return PositionalEncoding(channels=channels, depth=depth)


def encode_map(p: ProbabilityMap, pe: PositionalEncoding) -> np.ndarray:
    """Probability values plus positional encoding, shape (R_sel, 2*depth, A, E)."""
    if p.values.shape[1:] != pe.channels.shape[1:]:
        raise ProbMapError(
            f"map axes {p.values.shape[1:]} do not match encoding axes "
            f"{pe.channels.shape[1:]}"
        )
    return p.values[:, None, :, :] + pe.channels[None]
