import numpy as np
import pytest

from oracles import dft2_loops, dft4_loops, doppler_sample_enumerate
from radarpose.adc import RadarCube
from radarpose.config import RadarConfig
from radarpose.spectral import (
    RangeDopplerMap,
    SpectralError,
    average_elevation,
    doppler_sample_indices,
    fft4d,
    magnitude_map,
    next_pow2,
    range_doppler_map,
    range_doppler_shape,
    sample_doppler,
)


def grid_config(az, el):
    """8 samples, 4 chirps, az x el virtual array."""
    return RadarConfig(
        num_adc_samples=8, num_chirps=4, num_tx=az, num_rx=el,
        sample_rate=1e7, chirp_slope=3e13, carrier_freq=7.7e10,
        azimuth_antennas=az, elevation_antennas=el,
    )


def make_cube(data):
    n, m = data.shape[:2]
    v = int(np.prod(data.shape[2:]))
    return RadarCube(data=data.reshape(n, m, v), frame_index=0, radar_id="horizontal")


def exact_pad(shape):
    return tuple(shape)


def test_next_pow2():
    assert [next_pow2(n) for n in (1, 2, 3, 8, 9, 100)] == [1, 2, 4, 8, 16, 128]


def test_fft4d_zeros():
    cfg = grid_config(2, 2)
    spec = fft4d(make_cube(np.zeros((8, 4, 2, 2), dtype=complex)), cfg, pad=(8, 4, 2, 2))
    assert not spec.data.any()


def test_fft4d_impulse_is_flat():
    cfg = grid_config(2, 2)
    data = np.zeros((8, 4, 2, 2), dtype=complex)
    data[0, 0, 0, 0] = 1.0
    spec = fft4d(make_cube(data), cfg, pad=(8, 4, 2, 2))
    np.testing.assert_allclose(spec.data, np.ones((8, 4, 2, 2)), atol=1e-12)


def test_fft4d_exponential_peaks_at_k0():
    cfg = grid_config(2, 2)
    k0 = 3
    n = np.arange(8)
    tone = np.exp(2j * np.pi * k0 * n / 8)
    data = np.broadcast_to(tone[:, None, None, None], (8, 4, 2, 2)).astype(complex)
    spec = fft4d(make_cube(data), cfg, pad=(8, 4, 2, 2))
    mags = np.abs(spec.data)
    peak = mags[k0, 0, 0, 0]
    assert peak == pytest.approx(8 * 4 * 2 * 2)
    others = mags.copy()
    others[k0, 0, 0, 0] = 0
    assert others.max() < 1e-9 * peak


@pytest.mark.parametrize("seed", range(5))
def test_fft4d_matches_quadruple_loop_dft(seed):
    cfg = grid_config(2, 2)
    rng = np.random.default_rng(seed)
    data = rng.standard_normal((8, 4, 2, 2)) + 1j * rng.standard_normal((8, 4, 2, 2))
    spec = fft4d(make_cube(data), cfg, pad=(8, 4, 2, 2))
    oracle = dft4_loops(data)
    rel = np.abs(spec.data - oracle).max() / np.abs(oracle).max()
    assert rel < 1e-9


def test_fft4d_default_pad_is_pow2():
    cfg = RadarConfig(
        num_adc_samples=6, num_chirps=3, num_tx=1, num_rx=2,
        sample_rate=1e7, chirp_slope=3e13, carrier_freq=7.7e10,
    )
    data = np.ones((6, 3, 2), dtype=complex)
    spec = fft4d(RadarCube(data=data, frame_index=0, radar_id="horizontal"), cfg)
    assert spec.fft_lengths == (8, 4, 2, 1)
    assert spec.data.shape == (8, 4, 2, 1)


def test_fft4d_pad_too_small():
    cfg = grid_config(2, 2)
    with pytest.raises(SpectralError, match="pad"):
        fft4d(make_cube(np.zeros((8, 4, 2, 2), dtype=complex)), cfg, pad=(4, 4, 2, 2))


def test_fft4d_linearity(rng):
    cfg = grid_config(2, 2)
    x = rng.standard_normal((8, 4, 2, 2)) + 1j * rng.standard_normal((8, 4, 2, 2))
    y = rng.standard_normal((8, 4, 2, 2)) + 1j * rng.standard_normal((8, 4, 2, 2))
    a, b = 2.5 - 1j, -0.5 + 3j
    lhs = fft4d(make_cube(a * x + b * y), cfg, pad=(8, 4, 2, 2)).data
    rhs = (
        a * fft4d(make_cube(x), cfg, pad=(8, 4, 2, 2)).data
        + b * fft4d(make_cube(y), cfg, pad=(8, 4, 2, 2)).data
    )
    assert np.abs(lhs - rhs).max() / np.abs(rhs).max() < 1e-9


def test_fft4d_parseval(rng):
    cfg = grid_config(2, 2)
    x = rng.standard_normal((8, 4, 2, 2)) + 1j * rng.standard_normal((8, 4, 2, 2))
    spec = fft4d(make_cube(x), cfg, pad=(8, 4, 2, 2))
    lhs = (np.abs(spec.data) ** 2).sum()
    rhs = 8 * 4 * 2 * 2 * (np.abs(x) ** 2).sum()
    assert abs(lhs - rhs) / rhs < 1e-6


def test_fft4d_separability(rng):
    cfg = grid_config(2, 2)
    x = rng.standard_normal((8, 4, 2, 2)) + 1j * rng.standard_normal((8, 4, 2, 2))
    spec = fft4d(make_cube(x), cfg, pad=(8, 4, 2, 2)).data
    for order in ((0, 1, 2, 3), (3, 2, 1, 0), (1, 3, 0, 2)):
        composed = x.copy()
        for axis in order:
            composed = np.fft.fft(composed, axis=axis)
        assert np.abs(spec - composed).max() / np.abs(spec).max() < 1e-9


def test_average_elevation_identity_when_single_slice(rng):
    data = rng.standard_normal((4, 4, 8)) + 1j * rng.standard_normal((4, 4, 8))
    cube = RadarCube(data=data, frame_index=3, radar_id="vertical")
    out = average_elevation(cube, grid_config(8, 1))
    assert isinstance(out, RadarCube)
    assert (out.frame_index, out.radar_id) == (3, "vertical")
    np.testing.assert_array_equal(out.data, data)


def test_average_elevation_cancellation(rng):
    # only elevation row q = 0 survives the complex mean over the elevation
    # FFT axis: a cube whose row 0 is zero averages to zero everywhere
    grid = rng.standard_normal((8, 4, 4, 3)) + 1j * rng.standard_normal((8, 4, 4, 3))
    grid[..., 0] = 0
    cfg = grid_config(4, 3)
    cube = make_cube(grid)
    np.testing.assert_allclose(fft4d(cube, cfg).data.mean(axis=3), 0, atol=1e-12)
    assert not average_elevation(cube, cfg).data.any()


def test_average_elevation_matches_loop(rng):
    # virtual antenna v sits at (p, q) = (v // Q, v % Q)
    data = rng.standard_normal((4, 4, 6)) + 1j * rng.standard_normal((4, 4, 6))
    rd = RangeDopplerMap(data=data, fft_lengths=(4, 4), radar_id="vertical")
    out = average_elevation(rd, grid_config(2, 3))
    oracle = np.zeros((4, 4, 2), dtype=complex)
    for h in range(4):
        for i in range(4):
            for p in range(2):
                oracle[h, i, p] = data[h, i, p * 3 + 0]
    assert isinstance(out, RangeDopplerMap)
    assert (out.fft_lengths, out.radar_id) == ((4, 4), "vertical")
    np.testing.assert_array_equal(out.data, oracle)


@pytest.mark.parametrize("transform", [average_elevation, fft4d])
def test_average_elevation_rejects_wrong_antenna_count(transform):
    cube = make_cube(np.zeros((8, 4, 6), dtype=complex))
    with pytest.raises(SpectralError, match="6 antennas do not match the 4x3 array"):
        transform(cube, grid_config(4, 3))


@pytest.mark.parametrize("az,el", [(4, 3), (2, 4), (8, 1), (12, 1)])
def test_average_elevation_keeps_only_elevation_row_zero(rng, az, el):
    # the defining identity: the complex mean over the zero-padded elevation
    # FFT axis of the 4-D FFT is the P-axis FFT of elevation row q = 0
    cfg = grid_config(az, el)
    grid = rng.standard_normal((8, 4, az, el)) + 1j * rng.standard_normal((8, 4, az, el))
    cube = make_cube(grid)
    # row 0 is antennas v = p*Q, taken as a view of the cube
    row0_cube = average_elevation(cube, cfg).data
    assert np.shares_memory(row0_cube, cube.data)
    np.testing.assert_array_equal(row0_cube, cube.data[:, :, [p * el for p in range(az)]])
    rd = range_doppler_map(average_elevation(cube, cfg))
    row0 = np.fft.fft(rd.data, n=next_pow2(az), axis=2)
    reference = np.fft.fftshift(fft4d(cube, cfg).data.mean(axis=3), axes=1)
    np.testing.assert_allclose(row0, reference, rtol=1e-12)


def rd_map(data):
    return RangeDopplerMap(data=data, fft_lengths=data.shape[:2])


def test_sample_doppler_identity(rng):
    data = rng.standard_normal((4, 16, 2)) + 0j
    out = sample_doppler(rd_map(data), keep=16, velocity_window=1.0)
    np.testing.assert_array_equal(out.data, data)
    assert out.fft_lengths == (4, 16)


def test_sample_doppler_keep_one_is_center(rng):
    data = rng.standard_normal((4, 16, 2)) + 0j
    out = sample_doppler(rd_map(data), keep=1, velocity_window=0.5)
    np.testing.assert_array_equal(out.data, data[:, [8]])


def test_sample_doppler_documented_case():
    assert list(doppler_sample_indices(16, 4, 0.5)) == [5, 7, 9, 11]


@pytest.mark.parametrize("m,keep,window", [
    (16, 4, 0.5), (16, 1, 0.5), (16, 16, 1.0), (16, 8, 1.0),
    (32, 4, 0.25), (12, 3, 0.5), (15, 3, 0.6),
])
def test_sample_doppler_matches_enumeration(m, keep, window):
    assert list(doppler_sample_indices(m, keep, window)) == doppler_sample_enumerate(m, keep, window)


def test_sample_doppler_keep_exceeds_window():
    with pytest.raises(SpectralError, match="window"):
        doppler_sample_indices(16, 10, 0.5)


def test_sample_doppler_is_subsequence(rng):
    data = rng.standard_normal((4, 16, 2)) + 1j * rng.standard_normal((4, 16, 2))
    out = sample_doppler(rd_map(data), keep=4, velocity_window=0.5)
    np.testing.assert_array_equal(out.data, data[:, doppler_sample_indices(16, 4, 0.5)])


def test_range_doppler_zeros(small_config):
    cube = RadarCube(
        data=np.zeros((4, 2, 4), dtype=complex), frame_index=0, radar_id="horizontal"
    )
    assert not range_doppler_map(cube).data.any()


def test_range_doppler_static_target_at_center_bin(rng):
    chirp = rng.standard_normal(8) + 1j * rng.standard_normal(8)
    data = np.broadcast_to(chirp[:, None, None], (8, 8, 1)).astype(complex)
    rd = range_doppler_map(RadarCube(data=data, frame_index=0, radar_id="horizontal"))
    mags = np.abs(rd.data[:, :, 0])
    off_center = np.delete(mags, 4, axis=1)
    assert off_center.max() < 1e-9 * mags[:, 4].max()


def test_range_doppler_phase_step_peak():
    d0 = 3  # chirp-to-chirp phase step of 2*pi*d0/M
    m = np.arange(8)
    data = np.broadcast_to(np.exp(2j * np.pi * d0 * m / 8)[None, :, None], (8, 8, 1)).astype(complex)
    rd = range_doppler_map(RadarCube(data=data, frame_index=0, radar_id="horizontal"))
    mag = np.abs(rd.data[0, :, 0])
    assert mag.argmax() == (8 // 2 + d0) % 8


@pytest.mark.parametrize("seed", range(3))
def test_range_doppler_matches_direct_dft(seed):
    rng = np.random.default_rng(seed)
    data = rng.standard_normal((8, 4, 2)) + 1j * rng.standard_normal((8, 4, 2))
    rd = range_doppler_map(RadarCube(data=data, frame_index=0, radar_id="horizontal"))
    oracle = np.fft.fftshift(dft2_loops(data), axes=1)
    assert np.abs(rd.data - oracle).max() / np.abs(oracle).max() < 1e-9


def rd_composition(x):
    """The range-Doppler map as numpy's own FFTs compose it."""
    n, m, _ = x.shape
    rd = np.fft.fft(np.fft.fft(x, n=next_pow2(n), axis=0), n=next_pow2(m), axis=1)
    return np.fft.fftshift(rd, axes=1)


def contiguous_and_strided_cubes(rng, shape):
    """A contiguous (n, m, v) cube, and a strided one: elevation row 0 of an
    (n, m, 2v) cube on a v x 2 array."""
    n, m, v = shape

    def draw(s):
        return rng.standard_normal(s) + 1j * rng.standard_normal(s)

    strided = average_elevation(make_cube(draw((n, m, 2 * v))), grid_config(v, 2))
    assert not strided.data.flags.c_contiguous
    return make_cube(draw(shape)), strided


# the last two shift their Doppler halves in several blocks of range rows: 21
# rows make a 126 KiB half-block there, and neither 256-row map is a whole
# number of blocks
@pytest.mark.parametrize("shape", [
    (64, 16, 8), (48, 12, 6), (33, 5, 3), (7, 9, 4), (1, 1, 2), (256, 64, 12), (200, 64, 12),
])
def test_range_doppler_into_a_reused_buffer_is_bitwise_numpy(rng, shape):
    # NaN everywhere, so a cell the map does not overwrite shows
    out = np.full(range_doppler_shape(shape), complex(np.nan, np.nan))
    for cube in contiguous_and_strided_cubes(rng, shape):
        expected = rd_composition(cube.data).tobytes()
        assert range_doppler_map(cube).data.tobytes() == expected
        rd = range_doppler_map(cube, out=out)
        assert rd.data is out
        assert out.tobytes() == expected


@pytest.mark.parametrize("shape, dtype", [
    ((5, 3, 2), complex), ((8, 4, 3), complex), ((8, 2, 2), complex),
    ((8, 4, 2), np.complex64), ((8, 4, 2), float),
])
def test_range_doppler_rejects_a_buffer_of_the_wrong_shape_or_dtype(shape, dtype):
    cube = make_cube(np.ones((5, 3, 2), dtype=complex))
    assert range_doppler_shape((5, 3, 2)) == (8, 4, 2)
    with pytest.raises(SpectralError, match="range-Doppler buffer"):
        range_doppler_map(cube, out=np.zeros(shape, dtype=dtype))


def test_magnitude_map_sums_antennas(rng):
    data = rng.standard_normal((4, 4, 3)) + 1j * rng.standard_normal((4, 4, 3))
    rd = range_doppler_map(RadarCube(data=data, frame_index=0, radar_id="horizontal"))
    np.testing.assert_allclose(magnitude_map(rd), np.abs(rd.data).sum(axis=2))
