"""Binary tensor file format shared by every pipeline stage.

Layout: magic "PRM3F", one version byte, one axis-count byte, axis lengths
as unsigned 64-bit little-endian, one element-tag byte (0 = real64,
1 = complex128), then the row-major little-endian payload.

This module holds the format alone: a caller that streams frames
(``frame_chunks``) opens, writes and commits the file on its own threads.
"""

from __future__ import annotations

import hashlib
import math
import os
import struct
from collections.abc import Iterable, Iterator
from pathlib import Path

import numpy as np

MAGIC = b"PRM3F"
VERSION = 1
_TAG_REAL64 = 0
_TAG_COMPLEX128 = 1


class TensorFormatError(ValueError):
    """Raised when a tensor file is malformed or truncated."""


def _encode(shape: tuple[int, ...], data: np.ndarray) -> tuple[bytes, np.ndarray]:
    """Header of a ``shape`` tensor of ``data``'s element type (real64 or
    complex128), and ``data`` as that payload."""
    if np.iscomplexobj(data):
        tag, payload = _TAG_COMPLEX128, np.ascontiguousarray(data, dtype="<c16")
    else:
        tag, payload = _TAG_REAL64, np.ascontiguousarray(data, dtype="<f8")
    header = MAGIC + bytes([VERSION, len(shape)]) + struct.pack(f"<{len(shape)}Q", *shape)
    return header + bytes([tag]), payload


def write_tensor(path: str | Path, data: np.ndarray) -> str:
    """Write an array as real64 or complex128 depending on its dtype, and
    return the hex SHA-256 of the bytes written."""
    data = np.asarray(data)
    header, payload = _encode(data.shape, data)
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(memoryview(payload))
    digest = hashlib.sha256(header)
    digest.update(payload)
    return digest.hexdigest()


def frame_chunks(count: int, frames: Iterable[np.ndarray]) -> Iterator[tuple]:
    """The bytes ``write_tensor(path, np.stack(frames))`` writes, as a tuple
    of chunks per frame: the header and frame 0's payload, then each later
    frame's payload. Each frame is encoded as it is taken, on the taker's
    thread, so the frames are never held together. A frame unlike the first,
    or a frame count other than ``count`` (at least 1), raises ValueError."""
    header, written = None, 0
    for frame in frames:
        frame = np.asarray(frame)
        frame_header, payload = _encode((count, *frame.shape), frame)
        chunks = (memoryview(payload),)
        if header is None:
            header, chunks = frame_header, (frame_header, *chunks)
        elif frame_header != header:
            raise ValueError(f"frame {written} differs from frame 0 in shape or type")
        yield chunks
        written += 1
    if not written or written != count:
        raise ValueError(f"{written} frames for a header of {count}")


def read_tensor(path: str | Path, digest=None) -> np.ndarray:
    """Read a tensor file into one new array: the size is checked against
    the header before the payload is read straight into that array.
    ``digest`` (a hashlib object, if given) is updated with every byte read."""
    with open(path, "rb") as fh:
        size = os.fstat(fh.fileno()).st_size
        head = fh.read(len(MAGIC) + 2)
        if head[: len(MAGIC)] != MAGIC:
            raise TensorFormatError(f"{path}: bad magic {head[:5]!r}")
        if len(head) < len(MAGIC) + 2:
            raise TensorFormatError(f"{path}: truncated header")
        version, ndim = head[-2:]
        if version != VERSION:
            raise TensorFormatError(f"{path}: unsupported version {version}")
        table = fh.read(8 * ndim + 1)
        if len(table) < 8 * ndim + 1:
            raise TensorFormatError(f"{path}: truncated axis table")
        shape = struct.unpack_from(f"<{ndim}Q", table)
        tag, header = table[-1], head + table
        if tag == _TAG_REAL64:
            dtype, itemsize = np.dtype("<f8"), 8
        elif tag == _TAG_COMPLEX128:
            dtype, itemsize = np.dtype("<c16"), 16
        else:
            raise TensorFormatError(f"{path}: unknown element tag {tag}")
        count = math.prod(shape)  # Python ints: a huge axis table cannot wrap to a small count
        expected = len(header) + count * itemsize
        if size != expected:
            raise TensorFormatError(
                f"{path}: payload size mismatch, expected {expected} bytes, got {size}"
            )
        try:
            out = np.empty(shape, dtype=dtype)
        except ValueError as exc:  # more axes, or longer ones, than numpy can hold
            raise TensorFormatError(f"{path}: unsupported axis table {shape}: {exc}") from exc
        got = fh.readinto(out.reshape(-1).view(np.uint8))
        if got != out.nbytes:
            raise TensorFormatError(f"{path}: payload size mismatch, expected {expected} bytes, "
                                    f"read {len(header) + got}")
        if digest is not None:
            digest.update(header)
            digest.update(out)
        return out
