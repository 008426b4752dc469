import hashlib
import tracemalloc
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import cube_reindex_loops, decode_adc_bytes
from radarpose.adc import (
    AdcError,
    AdcLayout,
    RadarCube,
    TruncatedCaptureError,
    frame_byte_size,
    parse_cubes,
    read_capture,
    serialize_cubes,
)
from radarpose.config import RadarConfig
from radarpose.spectral import elevation_row_zero


def two_channel_config():
    return RadarConfig(
        num_adc_samples=2, num_chirps=1, num_tx=1, num_rx=2,
        sample_rate=1e7, chirp_slope=3e13, carrier_freq=7.7e10,
    )


def encode_int16(values):
    return b"".join(int(v).to_bytes(2, "little", signed=True) for v in values)


def test_empty_buffer_is_truncated(small_config):
    with pytest.raises(TruncatedCaptureError, match="truncated"):
        parse_cubes(b"", AdcLayout(), small_config)


def test_partial_frame_is_truncated(small_config):
    size = frame_byte_size(AdcLayout(), small_config)
    with pytest.raises(TruncatedCaptureError) as err:
        parse_cubes(b"\x00" * (size - 2), AdcLayout(), small_config)
    assert err.value.expected == size
    assert err.value.actual == size - 2


def test_parse_into_a_buffer_fills_it_and_rejects_one_of_another_shape(small_config, rng):
    raw = rng.integers(-500, 500, 2 * frame_byte_size(AdcLayout(), small_config) // 2,
                       dtype="<i2").tobytes()
    out = np.empty((2, 4, 2, 4), dtype=np.complex128)
    cubes = parse_cubes(raw, AdcLayout(), small_config, out=out)
    for cube, expected in zip(cubes, parse_cubes(raw, AdcLayout(), small_config)):
        assert np.shares_memory(cube.data, out)
        np.testing.assert_array_equal(cube.data, expected.data)
    for bad in (np.empty((1, 4, 2, 4), complex), np.empty((2, 4, 2, 4)),
                np.empty((2, 4, 2, 8), complex)[..., ::2]):
        with pytest.raises(AdcError, match="cube buffer"):
            parse_cubes(raw, AdcLayout(), small_config, out=bad)


def test_read_capture_hashes_each_frame_and_parses_into_two_buffers(tmp_path, sim_config, rng):
    size = frame_byte_size(AdcLayout(), sim_config)
    raw = rng.integers(-2000, 2000, 5 * size // 2, dtype="<i2").tobytes()
    path = tmp_path / "cap.bin"
    path.write_bytes(raw)
    digest = hashlib.sha256()
    count, frames = read_capture(str(path), sim_config, "vertical", digest=digest)
    cubes = list(frames)
    assert count == len(cubes) == 5
    assert digest.hexdigest() == hashlib.sha256(raw).hexdigest()
    # frame i is parsed into buffer i % 2, which frame 4 or 3 now holds
    for i, cube in enumerate(cubes):
        assert (cube.frame_index, cube.radar_id) == (i, "vertical")
        assert np.shares_memory(cube.data, cubes[4 - i % 2].data)
        assert not np.shares_memory(cube.data, cubes[3 + i % 2].data)
    # a cube is the frame it was read from until two more frames are read
    count, frames = read_capture(str(path), sim_config, "vertical")
    for i, cube in enumerate(frames):
        (expected,) = parse_cubes(raw[i * size:(i + 1) * size], AdcLayout(), sim_config)
        np.testing.assert_array_equal(cube.data, expected.data)


def test_read_capture_steps_allocate_no_frame_sized_buffer(tmp_path, sim_config):
    # a step may run on another thread, whose malloc arena would keep the
    # pages of a freed frame-sized buffer resident
    size = frame_byte_size(AdcLayout(), sim_config)
    path = tmp_path / "cap.bin"
    path.write_bytes(bytes(3 * size))
    with ThreadPoolExecutor(max_workers=1) as reader:
        reader.submit(int).result()  # the thread is started before tracing
        tracemalloc.start()
        try:
            count, frames = read_capture(str(path), sim_config, "horizontal", hashlib.sha256())
            for _ in range(count):
                tracemalloc.reset_peak()
                before, _ = tracemalloc.get_traced_memory()
                reader.submit(next, frames).result()
                _, peak = tracemalloc.get_traced_memory()
                # the int16 frame is a quarter of a complex128 cube
                assert peak - before < size // 4
        finally:
            tracemalloc.stop()


def test_hand_built_sixteen_byte_block():
    # samples {1..8}: groups of 4 split into (real, real, imag, imag)
    cfg = two_channel_config()
    (cube,) = parse_cubes(encode_int16([1, 2, 3, 4, 5, 6, 7, 8]), AdcLayout(), cfg)
    assert cube.data.shape == (2, 1, 2)
    np.testing.assert_array_equal(cube.data[:, 0, 0], [1 + 3j, 2 + 4j])
    np.testing.assert_array_equal(cube.data[:, 0, 1], [5 + 7j, 6 + 8j])


def test_hand_built_block_matches_index_decoder():
    cfg = two_channel_config()
    data = encode_int16([1, 2, 3, 4, 5, 6, 7, 8])
    (cube,) = parse_cubes(data, AdcLayout(), cfg)
    oracle = decode_adc_bytes(data, lanes=4, num_rx=2, num_adc_samples=2, num_chirp_slots=1)
    for r in range(2):
        np.testing.assert_array_equal(cube.data[:, 0, r], oracle[r])


def test_all_zero_bytes(small_config):
    size = frame_byte_size(AdcLayout(), small_config)
    cubes = parse_cubes(b"\x00" * (2 * size), AdcLayout(), small_config)
    assert len(cubes) == 2
    assert not any(c.data.any() for c in cubes)


def test_phase_preserved_negative_samples():
    cfg = two_channel_config()
    (cube,) = parse_cubes(encode_int16([-1, 2, -3, 4, 5, -6, 7, -8]), AdcLayout(), cfg)
    np.testing.assert_array_equal(cube.data[:, 0, 0], [-1 - 3j, 2 + 4j])
    np.testing.assert_array_equal(cube.data[:, 0, 1], [5 + 7j, -6 - 8j])


def test_cube_shape(small_config):
    size = frame_byte_size(AdcLayout(), small_config)
    (cube,) = parse_cubes(b"\x00" * size, AdcLayout(), small_config)
    assert cube.data.shape == (4, 2, 4)


def test_constant_input_gives_constant_cube(small_config):
    (cube,) = parse_cubes(encode_int16([7, 7, -2, -2] * 16), AdcLayout(), small_config)
    assert np.all(cube.data == 7 - 2j)


def test_bytes_ramp_end_to_end_matches_oracles(small_config):
    # int16 ramp 0..63 -> parse -> cube, against the two loop oracles chained
    data = encode_int16(range(64))
    cubes = parse_cubes(data, AdcLayout(), small_config)
    chan_oracle = decode_adc_bytes(data, lanes=4, num_rx=2, num_adc_samples=4, num_chirp_slots=4)
    cube_oracle = cube_reindex_loops(chan_oracle, 4, 2, 2, 2)
    np.testing.assert_array_equal(cubes[0].data, cube_oracle)


def test_multiset_preserved(small_config, rng):
    data = encode_int16(rng.integers(-500, 500, size=64))
    (cube,) = parse_cubes(data, AdcLayout(), small_config)
    channels = decode_adc_bytes(data, lanes=4, num_rx=2, num_adc_samples=4, num_chirp_slots=4)
    key = lambda z: (z.real, z.imag)  # noqa: E731
    assert sorted(cube.data.ravel(), key=key) == sorted(
        (z for c in channels for z in c), key=key
    )


def test_serialize_round_trip(small_config, rng):
    size = frame_byte_size(AdcLayout(), small_config)
    data = rng.integers(-32768, 32768, size=size // 2, dtype=np.int64)
    raw = encode_int16(data)
    cubes = parse_cubes(raw, AdcLayout(), small_config)
    assert serialize_cubes(cubes, AdcLayout(), small_config) == raw


def test_serialize_int16_extremes_round_trip(small_config):
    # -32768.4 and 32767.4 round into range and are written exactly
    data = np.full((4, 2, 4), -32768.4 + 32767.4j)
    cube = RadarCube(data=data, frame_index=0, radar_id="horizontal")
    (back,) = parse_cubes(serialize_cubes([cube], AdcLayout(), small_config),
                          AdcLayout(), small_config)
    np.testing.assert_array_equal(back.data, np.full((4, 2, 4), -32768 + 32767j))


@pytest.mark.parametrize("value,peak", [
    (40000 + 70000j, "70000"),   # int16 would wrap these to -25536 and 4464
    (32767.5 + 0j, "32768"),     # rounds out of range
    (-32768.6 + 0j, "-32769"),
    (complex(np.nan, 0), "nan"),
])
def test_serialize_rejects_values_outside_int16(small_config, value, peak):
    ok = RadarCube(data=np.zeros((4, 2, 4), complex), frame_index=0, radar_id="horizontal")
    data = np.zeros((4, 2, 4), complex)
    data[1, 1, 2] = value
    bad = RadarCube(data=data, frame_index=1, radar_id="horizontal")
    with pytest.raises(AdcError, match=f"frame 1: peak value {peak} .*int16.*scale"):
        serialize_cubes([ok, bad], AdcLayout(), small_config)


def test_quantize_covers_every_sample_and_reports_the_frame_peak(rng):
    # 70 sample rows: the first and the last are set out of range below
    cfg = RadarConfig(num_adc_samples=70, num_chirps=2, num_tx=2, num_rx=2,
                      sample_rate=1e7, chirp_slope=3e13, carrier_freq=7.7e10)
    raw = encode_int16(rng.integers(-32768, 32768, size=frame_byte_size(AdcLayout(), cfg) // 2))
    (cube,) = parse_cubes(raw, AdcLayout(), cfg)
    assert serialize_cubes([cube], AdcLayout(), cfg) == raw
    for samples, values, peak in (([0], [40000], "40000"), ([-1], [40000j], "40000"),
                                  ([0, -1], [40000, -50000j], "-50000")):
        data = cube.data.copy()
        data[samples, 1, 2] = values
        bad = RadarCube(data=data, frame_index=0, radar_id="horizontal")
        with pytest.raises(AdcError, match=f"frame 0: peak value {peak} "):
            serialize_cubes([bad], AdcLayout(), cfg)


def test_cube_round_trip(small_config, rng):
    values = rng.integers(-500, 500, size=(2, 4, 2, 4))
    cube = RadarCube(data=values[0] + 1j * values[1], frame_index=0, radar_id="horizontal")
    raw = serialize_cubes([cube], AdcLayout(), small_config)
    (back,) = parse_cubes(raw, AdcLayout(), small_config)
    np.testing.assert_array_equal(back.data, cube.data)


def test_chunked_parsing_is_identical(small_config, rng):
    size = frame_byte_size(AdcLayout(), small_config)
    raw = encode_int16(rng.integers(-100, 100, size=3 * size // 2))
    whole = parse_cubes(raw, AdcLayout(), small_config)
    pieces = [
        parse_cubes(raw[i * size:(i + 1) * size], AdcLayout(), small_config)[0]
        for i in range(3)
    ]
    np.testing.assert_array_equal(
        np.stack([c.data for c in whole]), np.stack([c.data for c in pieces])
    )


@st.composite
def captures(draw):
    lanes = draw(st.sampled_from([2, 4, 6]))
    tx, rx = draw(st.integers(1, 3)), draw(st.integers(1, 4))
    # an elevation count Q that divides the tx * rx virtual antennas
    q = draw(st.sampled_from([q for q in (1, 2, 3) if tx * rx % q == 0]))
    cfg = RadarConfig(
        num_adc_samples=lanes // 2 * draw(st.integers(1, 4)),
        num_chirps=draw(st.integers(1, 3)),
        num_tx=tx, num_rx=rx, azimuth_antennas=tx * rx // q, elevation_antennas=q,
        sample_rate=1e7, chirp_slope=3e13, carrier_freq=7.7e10,
    )
    layout = AdcLayout(lanes=lanes)
    size = frame_byte_size(layout, cfg)
    frames = draw(st.integers(1, 3))
    return cfg, layout, draw(st.binary(min_size=frames * size, max_size=frames * size))


@settings(max_examples=100, deadline=None)
@given(captures())
def test_parse_matches_loop_oracles_for_any_geometry(capture):
    cfg, layout, raw = capture
    size = frame_byte_size(layout, cfg)
    p, q = cfg.array_shape
    cubes = parse_cubes(raw, layout, cfg)
    # the antennas of elevation row 0 alone, as the heatmap fft branch parses them
    rows = parse_cubes(raw, layout, cfg, antennas=elevation_row_zero(cfg))
    assert len(cubes) == len(rows) == len(raw) // size
    for i, (cube, row) in enumerate(zip(cubes, rows)):
        channels = decode_adc_bytes(
            raw[i * size:(i + 1) * size], lanes=layout.lanes, num_rx=cfg.num_rx,
            num_adc_samples=cfg.num_adc_samples,
            num_chirp_slots=cfg.num_chirps * cfg.num_tx,
        )
        expected = cube_reindex_loops(
            channels, cfg.num_adc_samples, cfg.num_chirps, cfg.num_tx, cfg.num_rx
        )
        assert cube.frame_index == row.frame_index == i
        np.testing.assert_array_equal(cube.data, expected)
        # virtual antenna v = p*Q + q sits at (p, q): row 0 is v = 0, Q, 2Q, ...
        np.testing.assert_array_equal(row.data, expected[:, :, [k * q for k in range(p)]])
    assert serialize_cubes(cubes, layout, cfg) == raw


@settings(max_examples=150, deadline=None)
@given(
    samples=st.integers(1, 6), chirps=st.integers(1, 3), tx=st.integers(1, 3),
    raw=st.binary(max_size=400), start=st.integers(0, 5), stop=st.integers(0, 5),
)
def test_parse_any_buffer_or_slice_raises_only_adc_errors(samples, chirps, tx, raw, start, stop):
    cfg = RadarConfig(
        num_adc_samples=samples, num_chirps=chirps, num_tx=tx, num_rx=2,
        sample_rate=1e7, chirp_slope=3e13, carrier_freq=7.7e10,
    )
    view = memoryview(raw)[start:len(raw) - stop]
    size = frame_byte_size(AdcLayout(), cfg)
    try:
        cubes = parse_cubes(view, AdcLayout(), cfg)
    except TruncatedCaptureError:
        assert len(view) == 0 or len(view) % size
    except AdcError:
        assert samples % 2
    else:
        assert len(cubes) * size == len(view)
        assert serialize_cubes(cubes, AdcLayout(), cfg) == bytes(view)


def test_layout_validation():
    with pytest.raises(AdcError):
        AdcLayout(bytes_per_sample=4)
    with pytest.raises(AdcError):
        AdcLayout(lanes=3)


def test_samples_must_fill_whole_lane_groups():
    cfg = RadarConfig(
        num_adc_samples=3, num_chirps=1, num_tx=1, num_rx=1,
        sample_rate=1e7, chirp_slope=3e13, carrier_freq=7.7e10,
    )
    cube = RadarCube(data=np.zeros((3, 1, 1), complex), frame_index=0, radar_id="horizontal")
    with pytest.raises(AdcError, match="multiple of lanes/2"):
        parse_cubes(b"\x00" * 12, AdcLayout(lanes=4), cfg)
    with pytest.raises(AdcError, match="multiple of lanes/2"):
        serialize_cubes([cube], AdcLayout(lanes=4), cfg)
    assert serialize_cubes([cube], AdcLayout(lanes=2), cfg) == b"\x00" * 12


def test_serialize_rejects_wrong_cube_shape(small_config):
    cube = RadarCube(data=np.zeros((4, 2, 3), complex), frame_index=0, radar_id="horizontal")
    with pytest.raises(AdcError, match="does not match config"):
        serialize_cubes([cube], AdcLayout(), small_config)
