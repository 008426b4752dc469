import hashlib
import struct
import tracemalloc
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from radarpose.tensorio import MAGIC, TensorFormatError, read_tensor, write_frames, write_tensor


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


@pytest.fixture
def writer():
    """The one-thread executor write_frames appends and hashes frames on."""
    with ThreadPoolExecutor(max_workers=1) as executor:
        yield executor


@pytest.mark.parametrize("frame_shape", [(5,), (3, 4), (2, 3, 4)])
@pytest.mark.parametrize("complex_", [False, True])
def test_write_frames_is_write_tensor_of_the_stack(
    tmp_path, rng, writer, frame_shape, complex_
):
    frames = [rng.standard_normal(frame_shape) for _ in range(3)]
    if complex_:
        frames = [f + 1j * rng.standard_normal(frame_shape) for f in frames]
    # a frame in another layout is written in row-major order all the same
    frames[1] = np.asfortranarray(frames[1])
    whole = write_tensor(tmp_path / "whole.tensor", np.stack(frames))
    streamed = write_frames(tmp_path / "frames.tensor", 3, iter(frames), writer)
    raw = (tmp_path / "frames.tensor").read_bytes()
    assert raw == (tmp_path / "whole.tensor").read_bytes()
    assert streamed == whole == hashlib.sha256(raw).hexdigest()


def test_write_frames_opens_the_file_at_the_first_frame(tmp_path, writer):
    path = tmp_path / "t.tensor"

    def frames():
        assert not path.exists()
        yield np.zeros(2)
        assert path.exists()

    write_frames(path, 1, frames(), writer)
    assert read_tensor(path).shape == (1, 2)


@pytest.mark.parametrize("count, frames", [
    (2, [np.zeros(3), np.zeros(4)]),
    (2, [np.zeros(3), np.zeros(3, complex)]),
    (3, [np.zeros(3), np.zeros(3)]),
    (1, [np.zeros(3), np.zeros(3)]),
    (0, []),
])
def test_write_frames_rejects_unlike_frames_or_a_wrong_count(tmp_path, writer, count, frames):
    with pytest.raises(ValueError, match="frame"):
        write_frames(tmp_path / "t.tensor", count, frames, writer)


def test_read_tensor_holds_one_copy_of_the_payload(tmp_path, rng):
    path = tmp_path / "t.tensor"
    write_tensor(path, rng.standard_normal((64, 16, 8)) + 1j)
    size = path.stat().st_size
    tracemalloc.start()
    try:
        out = read_tensor(path)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert out.nbytes > 0.99 * size
    # the raw bytes and a copy of the payload would peak at twice the file
    assert peak < 1.25 * size


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


def test_empty_tensor_with_axes_numpy_cannot_hold(tmp_path):
    path = tmp_path / "t.tensor"
    for shape in [(0, 2**64 - 1), (0, 2**62, 2**62), (1,) * 70]:
        payload = bytes(8) if 0 not in shape else b""
        path.write_bytes(
            MAGIC + bytes([1, len(shape)]) + struct.pack(f"<{len(shape)}Q", *shape)
            + bytes([0]) + payload
        )
        with pytest.raises(TensorFormatError, match="axis table"):
            read_tensor(path)


axis_lengths = st.one_of(st.integers(0, 3), st.integers(0, 2**64 - 1))


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(
    shape=st.lists(axis_lengths, max_size=70),
    tag=st.integers(0, 255),
    payload=st.binary(max_size=64),
    cut=st.integers(0, 4),
)
def test_read_tensor_raises_only_tensor_format_error(tmp_path, shape, tag, payload, cut):
    raw = (MAGIC + bytes([1, len(shape)]) + struct.pack(f"<{len(shape)}Q", *shape)
           + bytes([tag]) + payload)
    path = tmp_path / "t.tensor"
    path.write_bytes(raw[:len(raw) - cut])
    try:
        out = read_tensor(path)
    except TensorFormatError:
        return
    assert out.shape == tuple(shape)


@settings(max_examples=100, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(raw=st.binary(max_size=64))
def test_read_tensor_on_random_bytes(tmp_path, raw):
    path = tmp_path / "t.tensor"
    path.write_bytes(raw)
    with pytest.raises(TensorFormatError):
        read_tensor(path)
