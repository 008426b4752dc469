"""Probability-map branch: angle spectra on detected range bins, per-range
L1 normalization, rank-1 range-azimuth-elevation probability maps, and
sinusoidal positional encoding guided by those maps.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, replace

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
    """Nonnegative (range bin, angle bin) values for one radar."""

    values: np.ndarray
    bins: RangeBinSet
    angle_kind: str

    def __post_init__(self):
        if self.values.ndim != 2 or self.values.shape[0] != len(self.bins):
            raise ProbMapError(
                f"values shape {self.values.shape} does not match {len(self.bins)} bins"
            )
        if self.angle_kind not in (AZIMUTH, ELEVATION):
            raise ProbMapError(f"bad angle_kind {self.angle_kind!r}")

    @property
    def empty_rows(self) -> tuple[bool, ...]:
        """Rows that are identically zero and so carry no probability mass."""
        return tuple(bool(e) for e in ~self.values.any(axis=1))


@dataclass(frozen=True)
class ProbabilityMap:
    """Per-range azimuth x elevation likelihood, unit-sum and rank-1 per row."""

    values: np.ndarray  # (R_sel, A, E)
    range_bins: RangeBinSet

    @property
    def empty_rows(self) -> tuple[bool, ...]:
        """Rows with no probability mass, read from the map."""
        return tuple(bool(e) for e in ~self.values.any(axis=(1, 2)))


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
    return RangeAngleVector(values=np.abs(spectra).mean(axis=1), bins=bins, angle_kind=axis)


def normalize(v: RangeAngleVector) -> RangeAngleVector:
    """Per-range-row L1 normalization; all-zero rows stay zero (and empty)."""
    if np.any(v.values < 0):
        raise ProbMapError("negative values; angle spectra must be magnitudes")
    norms = v.values.sum(axis=1)
    return replace(v, values=v.values / np.where(norms == 0, 1.0, norms)[:, None])


def probability_map(v_ra: RangeAngleVector, v_re: RangeAngleVector) -> ProbabilityMap:
    """Outer product of normalized azimuth and elevation rows per range bin.

    Bin sets from the two radars may differ: the map covers their union, and
    a radar's missing row is replaced by the uniform distribution (keeps unit
    sum). Each row must sum to 1 within 1e-9, or be all zero; a zero row
    stays zero in the product, so the map's ``empty_rows`` are the union of
    the two vectors'.
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
    az, el = (np.full((len(union), v.values.shape[1]), 1 / v.values.shape[1]) for v in (v_ra, v_re))
    az[np.searchsorted(union, v_ra.bins.bins)] = v_ra.values
    el[np.searchsorted(union, v_re.bins.bins)] = v_re.values
    return ProbabilityMap(values=az[:, :, None] * el[:, None, :], range_bins=RangeBinSet(union))


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
    if 2 * depth * a_bins * e_bins * 8 > sys.maxsize:
        raise ProbMapError(
            f"an encoding of depth {depth} over {a_bins}x{e_bins} bins exceeds numpy's array size"
        )
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
