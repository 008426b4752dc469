import struct

import numpy as np
import pytest

from radarpose.tensorio import MAGIC, TensorFormatError, read_tensor, write_tensor


def test_real_round_trip(tmp_path, rng):
    path = tmp_path / "t.tensor"
    data = rng.standard_normal((3, 4, 5))
    write_tensor(path, data)
    np.testing.assert_array_equal(read_tensor(path), data)


def test_complex_round_trip(tmp_path, rng):
    path = tmp_path / "t.tensor"
    data = rng.standard_normal((2, 6)) + 1j * rng.standard_normal((2, 6))
    write_tensor(path, data)
    out = read_tensor(path)
    assert out.dtype == np.complex128
    np.testing.assert_array_equal(out, data)


def test_empty_axis(tmp_path):
    path = tmp_path / "t.tensor"
    write_tensor(path, np.zeros((0, 8, 8)))
    assert read_tensor(path).shape == (0, 8, 8)


def test_header_layout(tmp_path):
    path = tmp_path / "t.tensor"
    write_tensor(path, np.zeros((2, 3)))
    raw = path.read_bytes()
    assert raw[:5] == MAGIC
    assert raw[5] == 1          # version
    assert raw[6] == 2          # axis count
    assert int.from_bytes(raw[7:15], "little") == 2
    assert int.from_bytes(raw[15:23], "little") == 3
    assert raw[23] == 0         # real64 tag
    assert len(raw) == 24 + 6 * 8


def test_bad_magic(tmp_path):
    path = tmp_path / "t.tensor"
    path.write_bytes(b"NOPE!" + bytes(40))
    with pytest.raises(TensorFormatError, match="magic"):
        read_tensor(path)


def test_truncated_payload(tmp_path):
    path = tmp_path / "t.tensor"
    write_tensor(path, np.ones((4, 4)))
    raw = path.read_bytes()
    path.write_bytes(raw[:-8])
    with pytest.raises(TensorFormatError, match="mismatch"):
        read_tensor(path)


def test_unknown_tag(tmp_path):
    path = tmp_path / "t.tensor"
    write_tensor(path, np.ones(2))
    raw = bytearray(path.read_bytes())
    raw[5 + 1 + 8] = 9  # element tag byte
    path.write_bytes(bytes(raw))
    with pytest.raises(TensorFormatError, match="tag"):
        read_tensor(path)


def test_axis_product_overflowing_int64_is_a_size_mismatch(tmp_path):
    # 2**33 * 2**31 wraps to 0 in int64; the header must not pass as empty
    path = tmp_path / "t.tensor"
    path.write_bytes(MAGIC + bytes([1, 2]) + struct.pack("<QQ", 2**33, 2**31) + bytes([0]))
    with pytest.raises(TensorFormatError, match="mismatch"):
        read_tensor(path)
