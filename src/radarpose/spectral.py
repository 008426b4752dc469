"""Frequency-domain transforms: the range-Doppler FFT, elevation averaging,
Doppler chirp sampling, and the reference 4-D FFT.

Conventions fixed project-wide: unnormalized forward transforms (no 1/N
scaling), FFT lengths default to the next power of two >= the data length
(zero padded, recorded on the output), and the Doppler axis of a
range-Doppler map is centered (zero velocity at bin M // 2). Array geometry
is kept here: virtual antenna v = p*Q + q sits at (p, q) of the config's
(P, Q) array, and ``P_AXIS_ANGLE`` names the angle each radar's P axis sees.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
import numpy as np

from .adc import HORIZONTAL, VERTICAL, RadarCube
from .config import RadarConfig

AZIMUTH = "azimuth"
ELEVATION = "elevation"
P_AXIS_ANGLE = {HORIZONTAL: AZIMUTH, VERTICAL: ELEVATION}
DEFAULT_VELOCITY_WINDOW = 0.5
# the largest half-block the Doppler shift copies at once: with malloc's
# header it stays below glibc's default 128 KiB mmap threshold
_SHIFT_BLOCK_BYTES = 126 << 10


class SpectralError(ValueError):
    pass


def next_pow2(n: int) -> int:
    return 1 if n <= 1 else 1 << (n - 1).bit_length()


def _resolve_pad(pad, dims) -> tuple[int, ...]:
    if pad is None:
        return tuple(next_pow2(d) for d in dims)
    pad = tuple(int(p) for p in pad)
    if len(pad) != len(dims):
        raise SpectralError(f"expected {len(dims)} pad lengths, got {len(pad)}")
    for p, d in zip(pad, dims):
        if p < d:
            raise SpectralError(f"pad length {p} is smaller than data length {d}")
    return pad


def antenna_grid(data: np.ndarray, config: RadarConfig) -> np.ndarray:
    """View of the last (virtual antenna) axis of ``data`` as the (P, Q) array."""
    p, q = config.array_shape
    if data.shape[-1] != p * q:
        raise SpectralError(f"{data.shape[-1]} antennas do not match the {p}x{q} array")
    return data.reshape(data.shape[:-1] + (p, q))


def elevation_row_zero(config: RadarConfig) -> slice:
    """The P virtual antennas v = p*Q of elevation row q = 0, as a slice of
    the antenna axis: what ``average_elevation`` keeps, so a caller that
    reads only row 0 can parse only these (``adc.parse_cubes``)."""
    p, q = config.array_shape
    return slice(0, p * q, q)


def angle_fft_length(config: RadarConfig, requested: int | None = None) -> int:
    """Angle-FFT length: ``requested``, or ``next_pow2(P)`` if 0 or None; below P raises."""
    p = config.array_shape[0]
    length = requested or next_pow2(p)
    if length < p:
        raise SpectralError(f"angle FFT length {length} < {p} antennas")
    return length


@dataclass(frozen=True)
class Spectrum4D:
    """FFT output indexed (range h, Doppler i, azimuth j, elevation k)."""

    data: np.ndarray
    fft_lengths: tuple[int, int, int, int]


@dataclass(frozen=True)
class RangeDopplerMap:
    """Per-antenna maps indexed (range, Doppler, virtual antenna).

    The Doppler axis is always stored centered (zero velocity at M // 2).
    """

    data: np.ndarray
    fft_lengths: tuple[int, int]
    radar_id: str = HORIZONTAL


def fft4d(cube: RadarCube, config: RadarConfig, pad=None) -> Spectrum4D:
    """Four-axis forward DFT of a cube on its (P, Q) antenna grid, the reference transform."""
    grid = antenna_grid(cube.data, config)
    lengths = _resolve_pad(pad, grid.shape)
    return Spectrum4D(data=np.fft.fftn(grid, s=lengths, axes=(0, 1, 2, 3)), fft_lengths=lengths)


def average_elevation(
    x: RadarCube | RangeDopplerMap, config: RadarConfig
) -> RadarCube | RangeDopplerMap:
    """Complex elevation averaging: keep the P antennas of elevation row q = 0.

    Row 0 is ``data[..., elevation_row_zero(config)]``, a view of the same
    type. The complex mean over the zero-padded elevation-FFT axis of the
    4-D FFT is the inverse DFT at q = 0, so it equals the P-axis FFT of
    elevation row 0 alone; transforming that row is 1/Q of the work.
    """
    antenna_grid(x.data, config)  # checks the antenna count
    return replace(x, data=x.data[..., elevation_row_zero(config)])


def doppler_sample_indices(m: int, keep: int, velocity_window: float) -> np.ndarray:
    """Indices (centered convention) of the retained Doppler bins.

    The window covers ``round(velocity_window * m)`` bins around the center;
    ``keep`` bins are taken at uniform step window//keep, placed symmetrically
    about zero velocity.
    """
    if not 0 < velocity_window <= 1:
        raise SpectralError(f"velocity_window must be in (0, 1], got {velocity_window}")
    window = int(round(velocity_window * m))
    window = max(1, min(window, m))
    if keep < 1 or keep > window:
        raise SpectralError(f"keep must be in [1, {window}] (the window size), got {keep}")
    center = m // 2
    step = window // keep
    start = center - (keep * step) // 2 + step // 2
    return start + step * np.arange(keep)


def sample_doppler(
    rd: RangeDopplerMap, keep: int, velocity_window: float = DEFAULT_VELOCITY_WINDOW
) -> RangeDopplerMap:
    """Keep ``doppler_sample_indices`` bins of a map's Doppler axis.

    Values are selected, never synthesized; ``fft_lengths`` still records
    the Doppler FFT length.
    """
    idx = doppler_sample_indices(rd.data.shape[1], keep, velocity_window)
    return replace(rd, data=rd.data[:, idx])


def range_doppler_shape(cube_shape: tuple[int, int, int]) -> tuple[int, int, int]:
    """Shape of the range-Doppler map of an (N, M, V) cube: (next_pow2(N), next_pow2(M), V)."""
    n, m, v = cube_shape
    return next_pow2(n), next_pow2(m), v


def range_doppler_map(cube: RadarCube, out: np.ndarray | None = None) -> RangeDopplerMap:
    """2-D FFT over fast time then slow time, per virtual antenna, at the
    default lengths (next power of two of each axis).

    Output Doppler axis is centered. The map is computed in ``out``, a
    complex128 array of ``range_doppler_shape`` that a caller may reuse
    from frame to frame, or in a fresh array when ``out`` is None. The
    result equals ``fftshift(fft(fft(x, n=N, axis=0), n=M, axis=1), axes=1)``
    bit for bit.
    """
    m = cube.data.shape[1]
    shape = range_doppler_shape(cube.data.shape)
    if out is None:
        out = np.empty(shape, dtype=np.complex128)
    elif out.shape != shape or out.dtype != np.complex128:
        raise SpectralError(
            f"range-Doppler buffer is {out.dtype}{out.shape}, expected complex128{shape}"
        )
    # range FFT into the first m chirp columns; the zeroed rest pads the
    # Doppler FFT, which then runs in place
    np.fft.fft(cube.data, n=shape[0], axis=0, out=out[:, :m])
    out[:, m:] = 0
    np.fft.fft(out, axis=1, out=out)
    # fftshift: swap the two Doppler halves (M is a power of two) a block of
    # range rows at a time, through one reused copy of at most
    # _SHIFT_BLOCK_BYTES, which stays in cache and off mmap
    half = shape[1] // 2
    if half:
        rows = max(1, _SHIFT_BLOCK_BYTES // (half * shape[2] * out.itemsize))
        lower = np.empty((min(rows, shape[0]), half, shape[2]), dtype=out.dtype)
        for start in range(0, shape[0], rows):
            block = out[start:start + rows]
            held = lower[:len(block)]
            held[...] = block[:, :half]
            block[:, :half] = block[:, half:]
            block[:, half:] = held
    return RangeDopplerMap(data=out, fft_lengths=shape[:2], radar_id=cube.radar_id)


def magnitude_map(rd: RangeDopplerMap) -> np.ndarray:
    """Antenna-summed magnitude map, the CFAR detection input."""
    return np.abs(rd.data).sum(axis=2)
