"""Binary tensor file format shared by every pipeline stage.

Layout: magic "PRM3F", one version byte, one axis-count byte, axis lengths
as unsigned 64-bit little-endian, one element-tag byte (0 = real64,
1 = complex128), then the row-major little-endian payload.
"""

from __future__ import annotations

import contextlib
import hashlib
import math
import os
import struct
from collections.abc import Iterable
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


def write_frames(path: str | Path, count: int, frames: Iterable[np.ndarray], writer) -> str:
    """Write ``count`` frames of one shape and element type as the tensor
    ``write_tensor(path, np.stack(frames))`` writes, one frame at a time, and
    return the hex SHA-256 of the bytes written.

    The file is opened when the first frame arrives. Each frame is encoded
    on this thread as it arrives, then appended (the first after the
    header) and hashed on the one-thread executor ``writer`` while the next
    frame is taken, so the frames are never held together and ``writer``
    allocates nothing frame-sized. Frame k's append is waited on before
    frame k+1's is submitted, before any error of frame k+1 escapes and
    before the file is closed, so errors come as writing each frame in turn
    would raise them. A frame unlike the first, or a frame count other than
    ``count`` (at least 1), raises ValueError.
    """
    digest, header, written, pending = hashlib.sha256(), None, 0, None

    def append(*chunks) -> None:
        for chunk in chunks:
            fh.write(chunk)
            digest.update(chunk)

    with contextlib.ExitStack() as stack:
        try:
            for frame in frames:
                frame = np.asarray(frame)
                frame_header, payload = _encode((count, *frame.shape), frame)
                chunks = (memoryview(payload),)
                if header is None:
                    header, fh = frame_header, stack.enter_context(open(path, "wb"))
                    chunks = (header, *chunks)
                elif frame_header != header:
                    raise ValueError(
                        f"{path}: frame {written} differs from frame 0 in shape or type")
                if pending is not None:
                    previous, pending = pending, None  # so finally does not wait on it twice
                    previous.result()
                pending = writer.submit(append, *chunks)
                written += 1
        finally:
            if pending is not None:
                pending.result()
    if not written or written != count:
        raise ValueError(f"{path}: {written} frames for a header of {count}")
    return digest.hexdigest()


def read_tensor(path: str | Path) -> np.ndarray:
    """Read a tensor file into one new array: the size is checked against
    the header before the payload is read straight into that array."""
    with open(path, "rb") as fh:
        size = os.fstat(fh.fileno()).st_size
        head = fh.read(len(MAGIC) + 2)
        if head[: len(MAGIC)] != MAGIC:
            raise TensorFormatError(f"{path}: bad magic {head[:5]!r}")
        off = len(MAGIC)
        if len(head) < off + 2:
            raise TensorFormatError(f"{path}: truncated header")
        version, ndim = head[off], head[off + 1]
        if version != VERSION:
            raise TensorFormatError(f"{path}: unsupported version {version}")
        off += 2
        table = fh.read(8 * ndim + 1)
        if len(table) < 8 * ndim + 1:
            raise TensorFormatError(f"{path}: truncated axis table")
        shape = struct.unpack_from(f"<{ndim}Q", table)
        tag = table[-1]
        off += len(table)
        if tag == _TAG_REAL64:
            dtype, itemsize = np.dtype("<f8"), 8
        elif tag == _TAG_COMPLEX128:
            dtype, itemsize = np.dtype("<c16"), 16
        else:
            raise TensorFormatError(f"{path}: unknown element tag {tag}")
        count = math.prod(shape)  # Python ints: a huge axis table cannot wrap to a small count
        expected = off + count * itemsize
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
            raise TensorFormatError(
                f"{path}: payload size mismatch, expected {expected} bytes, read {off + got}"
            )
        return out
