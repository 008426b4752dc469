"""Binary tensor file format shared by every pipeline stage.

Layout: magic "PRM3F", one version byte, one axis-count byte, axis lengths
as unsigned 64-bit little-endian, one element-tag byte (0 = real64,
1 = complex128), then the row-major little-endian payload.
"""

from __future__ import annotations

import hashlib
import math
import struct
from pathlib import Path

import numpy as np

MAGIC = b"PRM3F"
VERSION = 1
_TAG_REAL64 = 0
_TAG_COMPLEX128 = 1


class TensorFormatError(ValueError):
    """Raised when a tensor file is malformed or truncated."""


def write_tensor(path: str | Path, data: np.ndarray) -> str:
    """Write an array as real64 or complex128 depending on its dtype, and
    return the hex SHA-256 of the bytes written."""
    data = np.asarray(data)
    if np.iscomplexobj(data):
        tag, payload = _TAG_COMPLEX128, np.ascontiguousarray(data, dtype="<c16")
    else:
        tag, payload = _TAG_REAL64, np.ascontiguousarray(data, dtype="<f8")
    header = (
        MAGIC + bytes([VERSION, data.ndim]) + struct.pack(f"<{data.ndim}Q", *data.shape)
        + bytes([tag])
    )
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(memoryview(payload))
    digest = hashlib.sha256(header)
    digest.update(payload)
    return digest.hexdigest()


def read_tensor(path: str | Path) -> np.ndarray:
    raw = Path(path).read_bytes()
    if raw[: len(MAGIC)] != MAGIC:
        raise TensorFormatError(f"{path}: bad magic {raw[:5]!r}")
    off = len(MAGIC)
    if len(raw) < off + 2:
        raise TensorFormatError(f"{path}: truncated header")
    version, ndim = raw[off], raw[off + 1]
    if version != VERSION:
        raise TensorFormatError(f"{path}: unsupported version {version}")
    off += 2
    if len(raw) < off + 8 * ndim + 1:
        raise TensorFormatError(f"{path}: truncated axis table")
    shape = struct.unpack_from(f"<{ndim}Q", raw, off)
    off += 8 * ndim
    tag = raw[off]
    off += 1
    if tag == _TAG_REAL64:
        dtype, itemsize = np.dtype("<f8"), 8
    elif tag == _TAG_COMPLEX128:
        dtype, itemsize = np.dtype("<c16"), 16
    else:
        raise TensorFormatError(f"{path}: unknown element tag {tag}")
    count = math.prod(shape)  # Python ints: a huge axis table cannot wrap to a small count
    expected = off + count * itemsize
    if len(raw) != expected:
        raise TensorFormatError(
            f"{path}: payload size mismatch, expected {expected} bytes, got {len(raw)}"
        )
    try:
        return np.frombuffer(raw, dtype=dtype, count=count, offset=off).reshape(shape).copy()
    except ValueError as exc:  # more axes, or longer ones, than numpy can hold
        raise TensorFormatError(f"{path}: unsupported axis table {shape}: {exc}") from exc
