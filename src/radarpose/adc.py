"""Raw ADC capture parsing and radar data cube construction.

Capture format (default layout): a stream of signed 16-bit little-endian
samples in groups of ``lanes`` values. Within each group the first
``lanes/2`` values are the real parts of ``lanes/2`` consecutive complex
samples and the last ``lanes/2`` values are the matching imaginary parts.

Within one frame the complex samples stream in the order (chirp m, tx t,
rx r, sample n), and the sample at stream position (m, t, r, n) is cube
element (n, m, v) with virtual antenna v = t * num_rx + r. Viewed as int16,
a capture is the array (frame, m, v, n // half, re|im, half) with
half = lanes/2; parsing and serializing are one transpose of that array
to and from (frame, n, m, v). A parse may take a slice of the v axis (the
antennas a caller reads, such as one elevation row), and then converts
only those antennas; the frame is still read, and hashed, whole.
Serializing rounds one frame at a time (``quantize_frame``) through a
float64 block into int16 lanes, both of which a caller can reuse for every
frame.
"""

from __future__ import annotations

import os
from collections.abc import Iterator
from dataclasses import dataclass, replace

import numpy as np

from .config import RadarConfig

HORIZONTAL = "horizontal"
VERTICAL = "vertical"
INT16_MIN, INT16_MAX = -32768, 32767


class AdcError(ValueError):
    """Raised for malformed ADC captures or inconsistent sample counts."""


class TruncatedCaptureError(AdcError):
    """A capture that is not a whole number of frames: ``actual`` bytes where
    whole ``expected``-byte frames were due. ``path`` names the capture, and
    ``frame`` the frame a read came up short on after the length check."""

    def __init__(self, expected: int, actual: int, path: str | None = None,
                 frame: int | None = None):
        if frame is None and actual == 0:
            what = "the capture is empty"
        elif frame is None:
            what = (f"length {actual} bytes is not a whole multiple "
                    f"of the {expected}-byte frame size")
        else:
            what = (f"frame {frame} has {actual} of its {expected} bytes; "
                    f"the capture shrank during the run")
        super().__init__(f"truncated capture{f' {path}' if path else ''}: {what}")
        self.expected = expected
        self.actual = actual


@dataclass(frozen=True)
class AdcLayout:
    """Physical encoding of the capture stream.

    Only 16-bit samples are supported; ``lanes`` fixes the de-interleave
    group size (lanes/2 real values followed by lanes/2 imaginary values).
    """

    bytes_per_sample: int = 2
    lanes: int = 4

    def __post_init__(self):
        if self.bytes_per_sample != 2:
            raise AdcError("only 16-bit samples are supported")
        if self.lanes < 2 or self.lanes % 2:
            raise AdcError("lanes must be an even count >= 2")


@dataclass(frozen=True)
class RadarCube:
    """Complex baseband frame indexed (sample n, chirp m, virtual antenna v)."""

    data: np.ndarray
    frame_index: int
    radar_id: str

    def __post_init__(self):
        if self.data.ndim != 3:
            raise AdcError(f"cube must be 3-D, got shape {self.data.shape}")
        if self.radar_id not in (HORIZONTAL, VERTICAL):
            raise AdcError(f"radar_id must be horizontal|vertical, got {self.radar_id!r}")


def frame_byte_size(layout: AdcLayout, config: RadarConfig) -> int:
    """Encoded size of one frame in bytes."""
    n_complex = config.num_adc_samples * config.num_chirps * config.num_virtual
    return n_complex * 2 * layout.bytes_per_sample


def _whole_frames(size: int, fsize: int, path: str | None = None) -> int:
    """Number of ``fsize``-byte frames in ``size`` bytes of capture; an empty
    capture or a partial last frame raises TruncatedCaptureError."""
    if size == 0 or size % fsize:
        raise TruncatedCaptureError(fsize, size, path)
    return size // fsize


def _lane_shape(num_frames: int, layout: AdcLayout, config: RadarConfig) -> tuple:
    """Shape of ``num_frames`` frames as int16 lanes; see the module docstring."""
    half = layout.lanes // 2
    if config.num_adc_samples % half:
        raise AdcError(
            f"num_adc_samples={config.num_adc_samples} is not a multiple of "
            f"lanes/2={half}"
        )
    groups = config.num_adc_samples // half
    return num_frames, config.num_chirps, config.num_virtual, groups, 2, half


def parse_cubes(
    data: bytes, layout: AdcLayout, config: RadarConfig, radar_id: str = HORIZONTAL,
    out: np.ndarray | None = None, antennas: slice = slice(None),
) -> list[RadarCube]:
    """Parse a capture straight into one RadarCube per frame, keeping the
    virtual antennas ``antennas`` selects (all of them by default).

    The cubes are views of one (frame, n, m, v) complex128 array, written by
    one transposed copy of the real lanes and one of the imaginary lanes.
    That array is ``out``, a C-contiguous buffer a caller may reuse, or a
    fresh one when ``out`` is None.
    """
    num_frames = _whole_frames(len(data), frame_byte_size(layout, config))
    lane_shape = _lane_shape(num_frames, layout, config)
    # a slice of the antenna axis is a view: the selected antennas' lanes
    # are copied with the same long inner loops as all of them
    lanes = np.frombuffer(data, dtype="<i2").reshape(lane_shape)[:, :, antennas]
    _, m, v, groups, _, half = lanes.shape
    shape = (num_frames, config.num_adc_samples, m, v)
    stack = np.empty(shape, dtype=np.complex128) if out is None else out
    # only a C-contiguous buffer reshapes to a view, not a copy
    if stack.shape != shape or stack.dtype != np.complex128 or not stack.flags.c_contiguous:
        raise AdcError(f"cube buffer is {stack.dtype}{stack.shape}, expected C-contiguous "
                       f"complex128{shape}")
    grid = stack.reshape(num_frames, groups, half, m, v)
    # (frame, chirp, antenna, group, lane) -> (frame, group, lane, chirp, antenna)
    grid.real = lanes[..., 0, :].transpose(0, 3, 4, 1, 2)
    grid.imag = lanes[..., 1, :].transpose(0, 3, 4, 1, 2)
    return [
        RadarCube(data=frame, frame_index=i, radar_id=radar_id)
        for i, frame in enumerate(stack)
    ]


def read_capture(
    path: str, config: RadarConfig, radar_id: str, digest=None, antennas: slice = slice(None)
) -> tuple[int, Iterator[RadarCube]]:
    """Frame count of the capture at ``path`` and an iterator that reads and
    parses one frame per step, keeping the virtual antennas ``antennas``
    selects (``parse_cubes``) and updating ``digest`` (a hashlib object, if
    given) with each frame's bytes as read.

    The capture length is checked here, before any frame is read. The
    iterator opens the file on its first step and reads each whole frame
    into one reused buffer, so ``digest`` covers every byte of the capture
    whichever antennas are kept. It parses frame i into cube buffer i % 2,
    each sized to the kept antennas, so a cube stays valid until two more
    frames have been read, and the iterator may step on another thread
    while the previous cube is in use. A capture that shrinks after the
    check raises at the first short frame.
    """
    layout = AdcLayout()
    fsize = frame_byte_size(layout, config)
    num_frames = _whole_frames(os.stat(path).st_size, fsize, path)
    # allocated here, on the caller's thread: glibc gives any other thread the
    # iterator steps on its own malloc arena, which keeps the pages of freed
    # frame-sized buffers resident
    raw = bytearray(fsize)
    kept = len(range(config.num_virtual)[antennas])
    cubes = np.empty((2, 1, config.num_adc_samples, config.num_chirps, kept), dtype=np.complex128)

    def frames():
        # unbuffered: one read per frame, straight into ``raw``; a regular
        # file reads short only at its end
        with open(path, "rb", buffering=0) as fh:
            for i in range(num_frames):
                got = fh.readinto(raw)
                if got != fsize:
                    raise TruncatedCaptureError(fsize, got, path, frame=i)
                if digest is not None:
                    digest.update(raw)
                (cube,) = parse_cubes(raw, layout, config, radar_id=radar_id,
                                      out=cubes[i % 2], antennas=antennas)
                yield replace(cube, frame_index=i)

    return num_frames, frames()


def frame_lanes(layout: AdcLayout, config: RadarConfig, num_frames: int = 1) -> np.ndarray:
    """Uninitialised int16 lanes of ``num_frames`` frames, as the capture holds them."""
    return np.empty(_lane_shape(num_frames, layout, config), dtype="<i2")


def quantize_frame(
    cube: RadarCube, layout: AdcLayout, config: RadarConfig, lanes: np.ndarray, block: np.ndarray
) -> None:
    """Round one cube's real and imaginary parts to int16 into ``lanes`` (one
    frame of ``frame_lanes``), one part at a time through ``block``, a
    C-contiguous float64 (V, N*M) array whose values are overwritten.

    A rounded value outside the int16 range (or NaN) raises AdcError instead
    of wrapping around, naming the peak value of the whole frame.
    """
    n_count, m_count, v_count = shape = (
        config.num_adc_samples, config.num_chirps, config.num_virtual)
    if cube.data.shape != shape:
        raise AdcError(f"cube shape {cube.data.shape} does not match config {shape}")
    _, _, _, groups, _, half = _lane_shape(1, layout, config)
    # antenna v's samples in (n, m) order as row v: a view of simulated and of
    # parsed cubes
    columns = cube.data.transpose(2, 0, 1).reshape(v_count, n_count * m_count)
    lo, hi = np.inf, -np.inf
    for part, lane in ((columns.real, 0), (columns.imag, 1)):
        np.round(part, out=block)
        # NaN propagates through min/max and fails the range test; once it
        # fails, the imaginary part is only scanned for the frame's peak
        lo, hi = np.minimum(lo, block.min()), np.maximum(hi, block.max())
        if INT16_MIN <= lo and hi <= INT16_MAX:
            # (antenna, group, lane, chirp) -> (chirp, antenna, group, lane)
            lanes[..., lane, :] = block.reshape(v_count, groups, half, m_count).transpose(
                3, 0, 1, 2)
    if not (INT16_MIN <= lo and hi <= INT16_MAX):
        peak = lo if -lo > hi else hi
        raise AdcError(
            f"frame {cube.frame_index}: peak value {peak:g} is outside the int16 "
            f"range [{INT16_MIN}, {INT16_MAX}]; use a lower scale (simulate --scale)"
        )


def serialize_cubes(cubes: list[RadarCube], layout: AdcLayout, config: RadarConfig) -> bytes:
    """Inverse of parse_cubes: ``quantize_frame`` on each cube in turn."""
    lanes = frame_lanes(layout, config, len(cubes))
    block = np.empty((config.num_virtual, config.num_adc_samples * config.num_chirps))
    for out, cube in zip(lanes, cubes):
        quantize_frame(cube, layout, config, out, block)
    return lanes.tobytes()
