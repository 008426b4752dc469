import numpy as np
import pytest

from oracles import (
    broadcast_add_loops, mean_axis1_loops, outer_product_loops, union_rows_loops,
)
from radarpose.adc import RadarCube
from radarpose.cfar import CfarParams, RangeBinSet, detect_2d, select_range_bins
from radarpose.config import RadarConfig
from radarpose.probmap import (
    ProbabilityMap,
    ProbMapError,
    RangeAngleVector,
    angle_spectrum,
    encode_map,
    normalize,
    positional_encoding,
    probability_map,
)
from radarpose.sim import SceneSpec, Target, expected_bins, synth_frame
from radarpose.spectral import average_elevation, magnitude_map, next_pow2, range_doppler_map


def vec(values, kind="azimuth", bins=None):
    values = np.asarray(values, dtype=float)
    bins = RangeBinSet(bins=tuple(bins) if bins is not None else tuple(range(values.shape[0])))
    return RangeAngleVector(values=values, bins=bins, angle_kind=kind)


# ---------------------------------------------------------------- normalize

def test_normalize_direct_arithmetic():
    out = normalize(vec([[2.0, 2.0, 4.0]]))
    np.testing.assert_allclose(out.values, [[0.25, 0.25, 0.5]])
    assert out.empty_rows == (False,)


def test_normalize_one_hot_unchanged():
    out = normalize(vec([[0.0, 1.0, 0.0]]))
    np.testing.assert_array_equal(out.values, [[0, 1, 0]])


def test_normalize_zero_row_flagged():
    out = normalize(vec([[0.0, 0.0], [1.0, 3.0]]))
    np.testing.assert_array_equal(out.values[0], 0)
    assert out.empty_rows == (True, False)


def test_normalize_rejects_negative():
    with pytest.raises(ProbMapError, match="negative"):
        normalize(vec([[-1.0, 2.0]]))


# ---------------------------------------------------------------- probability_map

def test_one_hot_outer_product():
    az = normalize(vec(np.eye(6)[[2]]))
    el = normalize(vec(np.eye(8)[[5]], kind="elevation"))
    p = probability_map(az, el)
    assert p.values[0, 2, 5] == 1.0
    assert p.values.sum() == 1.0


def test_uniform_times_uniform():
    a, e = 4, 5
    az = normalize(vec(np.full((2, a), 1.0)))
    el = normalize(vec(np.full((2, e), 1.0), kind="elevation"))
    p = probability_map(az, el)
    np.testing.assert_allclose(p.values, 1.0 / (a * e))


def test_random_rows_match_loop_oracle(rng):
    az = normalize(vec(rng.random((3, 4))))
    el = normalize(vec(rng.random((3, 6)), kind="elevation"))
    p = probability_map(az, el)
    np.testing.assert_allclose(p.values, outer_product_loops(az.values, el.values), atol=1e-12)
    np.testing.assert_allclose(p.values.sum(axis=(1, 2)), 1.0, atol=1e-9)


def test_rank_one_per_range(rng):
    az = normalize(vec(rng.random((2, 5))))
    el = normalize(vec(rng.random((2, 7)), kind="elevation"))
    p = probability_map(az, el)
    for r in range(2):
        minors = (
            p.values[r, :, None, :, None] * p.values[r, None, :, None, :]
            - p.values[r, :, None, None, :] * p.values[r, None, :, :, None]
        )
        assert np.abs(minors).max() < 1e-8


def test_bilinearity():
    a1 = normalize(vec([[1.0, 3.0]])).values
    a2 = normalize(vec([[2.0, 2.0]])).values
    el = normalize(vec([[1.0, 1.0, 2.0]], kind="elevation"))
    lam = 0.3
    mix = vec(lam * a1 + (1 - lam) * a2)
    p_mix = probability_map(mix, el).values
    p1 = probability_map(vec(a1), el).values
    p2 = probability_map(vec(a2), el).values
    np.testing.assert_allclose(p_mix, lam * p1 + (1 - lam) * p2, atol=1e-12)


def test_union_fills_missing_rows_uniformly():
    az = normalize(vec([[1.0, 0.0]], bins=[3]))
    el = normalize(vec([[0.0, 1.0, 0.0]], kind="elevation", bins=[7]))
    p = probability_map(az, el)
    assert list(p.range_bins) == [3, 7]
    # bin 3 has no elevation row: uniform over 3 elevation bins
    np.testing.assert_allclose(p.values[0], np.outer([1, 0], [1 / 3] * 3))
    np.testing.assert_allclose(p.values[1], np.outer([0.5, 0.5], [0, 1, 0]))
    np.testing.assert_allclose(p.values.sum(axis=(1, 2)), 1.0)


def random_rows(rng, bins, width, kind):
    """Nonnegative rows for ``bins``, about a third of them all zero."""
    values = rng.random((len(bins), width))
    values[rng.random(len(bins)) < 0.3] = 0.0
    return normalize(vec(values, kind=kind, bins=bins))


UNION_LAYOUTS = {  # slices of a shuffled bin pool: (azimuth bins, elevation bins)
    "disjoint": (slice(0, 5), slice(5, 9)),
    "overlapping": (slice(0, 6), slice(3, 10)),
    "no_azimuth": (slice(0, 0), slice(0, 4)),
    "no_rows": (slice(0, 0), slice(0, 0)),
    "same": (slice(0, 5), slice(0, 5)),
}


@pytest.mark.parametrize("seed", range(12))
@pytest.mark.parametrize("layout", UNION_LAYOUTS)
def test_union_fill_matches_loop_oracle(seed, layout):
    rng = np.random.default_rng(seed)
    a, e = rng.integers(1, 9, size=2)
    e += a == e
    pool = rng.permutation(40)
    az_bins, el_bins = (sorted(int(b) for b in pool[s]) for s in UNION_LAYOUTS[layout])
    az = random_rows(rng, az_bins, a, "azimuth")
    el = random_rows(rng, el_bins, e, "elevation")
    p = probability_map(az, el)

    union = sorted(set(az_bins) | set(el_bins))
    az_rows, az_empty = union_rows_loops(az_bins, az.values, union)
    el_rows, el_empty = union_rows_loops(el_bins, el.values, union)
    assert list(p.range_bins) == union
    assert p.values.shape == (len(union), a, e)
    assert p.values.tobytes() == outer_product_loops(az_rows, el_rows).tobytes()
    assert p.empty_rows == tuple(bool(x) for x in az_empty | el_empty)


def test_requires_normalized_and_matching_kinds(rng):
    raw = vec(rng.random((2, 3)))
    el = normalize(vec(rng.random((2, 3)), kind="elevation"))
    with pytest.raises(ProbMapError, match="normalized"):
        probability_map(raw, el)
    with pytest.raises(ProbMapError, match="normalized"):
        probability_map(vec([[0.5, 0.5 + 1e-8], [1.0, 0.0]]), el)
    p = probability_map(vec([[0.0, 0.0], [1.0, 0.0]]), el)  # a zero row is an empty row
    assert p.empty_rows == (True, False)
    with pytest.raises(ProbMapError, match="azimuth"):
        probability_map(el, el)


# ---------------------------------------------------------------- positional_encoding

def test_pe_position_zero():
    pe = positional_encoding(3, 2, depth=8)
    assert np.all(pe.channels[0:8:2, 0, :] == 0.0)  # azimuth sin at pos 0
    assert np.all(pe.channels[1:8:2, 0, :] == 1.0)  # azimuth cos at pos 0
    assert np.all(pe.channels[8::2, :, 0] == 0.0)  # elevation sin at pos 0
    assert np.all(pe.channels[9::2, :, 0] == 1.0)


def test_pe_direct_formula_position_one():
    pe = positional_encoding(4, 4, depth=32)
    assert pe.channels[0, 1, 0] == pytest.approx(np.sin(1.0))
    assert pe.channels[1, 1, 0] == pytest.approx(np.cos(1.0))
    # second frequency pair: 10000^(2/32)
    f = 1.0 / 10000 ** (2.0 / 32)
    assert pe.channels[2, 1, 0] == pytest.approx(np.sin(f))
    assert pe.channels[3, 1, 0] == pytest.approx(np.cos(f))


def test_pe_odd_depth_rejected():
    with pytest.raises(ProbMapError, match="even"):
        positional_encoding(4, 4, depth=7)


@pytest.mark.parametrize("depth", [8, 16, 32, 64])
def test_pe_unit_circle_identity(depth):
    pe = positional_encoding(9, 6, depth=depth)
    for base in (0, depth):
        sin_ch = pe.channels[base:base + depth:2]
        cos_ch = pe.channels[base + 1:base + depth:2]
        np.testing.assert_allclose(sin_ch ** 2 + cos_ch ** 2, 1.0, atol=1e-12)


def test_pe_positions_distinct_prefix():
    pe = positional_encoding(201, 1, depth=32)
    flat = pe.channels[:32, :, 0].T  # (201, 32) azimuth codes
    for i in range(flat.shape[0]):
        diff = np.abs(flat - flat[i]).max(axis=1)
        diff[i] = np.inf
        assert diff.min() > 1e-6


def test_pe_default_depth_is_32():
    assert positional_encoding(2, 2).depth == 32


# ---------------------------------------------------------------- encode_map

def make_prob(rng, r=2, a=4, e=3):
    az = normalize(vec(rng.random((r, a))))
    el = normalize(vec(rng.random((r, e)), kind="elevation"))
    return probability_map(az, el)


def test_encode_zero_map_equals_pe_stack():
    p = ProbabilityMap(values=np.zeros((2, 4, 3)), range_bins=RangeBinSet(bins=(0, 1)))
    assert p.empty_rows == (True, True)
    pe = positional_encoding(4, 3, depth=8)
    enc = encode_map(p, pe)
    for r in range(2):
        np.testing.assert_array_equal(enc[r], pe.channels)


def test_encode_zero_pe_broadcasts_probability(rng):
    p = make_prob(rng)
    pe = positional_encoding(4, 3, depth=8)
    zero_pe = type(pe)(channels=np.zeros_like(pe.channels), depth=pe.depth)
    enc = encode_map(p, zero_pe)
    for c in range(16):
        np.testing.assert_array_equal(enc[:, c], p.values)


def test_encode_matches_loop_oracle(rng):
    p = make_prob(rng)
    pe = positional_encoding(4, 3, depth=8)
    enc = encode_map(p, pe)
    np.testing.assert_allclose(enc, broadcast_add_loops(p.values, pe.channels), atol=1e-12)


def test_encode_size_mismatch(rng):
    p = make_prob(rng)
    pe = positional_encoding(5, 3, depth=8)
    with pytest.raises(ProbMapError, match="axes"):
        encode_map(p, pe)


# ---------------------------------------------------------------- angle_spectrum

def test_single_antenna_flat_spectrum():
    cfg = RadarConfig(
        num_adc_samples=8, num_chirps=4, num_tx=1, num_rx=1,
        sample_rate=1e7, chirp_slope=3e13, carrier_freq=7.7e10,
    )
    cube = synth_frame(SceneSpec(targets=(Target(range_m=5.0),)), cfg)
    v = angle_spectrum(cube, cfg, RangeBinSet(bins=(0, 1)), "azimuth", angle_fft=1)
    assert v.values.shape == (2, 1)


def test_zero_cube_rows_flagged_empty(sim_config):
    cube = RadarCube(
        data=np.zeros((64, 16, 8), dtype=complex), frame_index=0, radar_id="horizontal"
    )
    v = angle_spectrum(cube, sim_config, RangeBinSet(bins=(2, 3)), "azimuth")
    assert not v.values.any()
    assert v.empty_rows == (True, True)


def test_angle_spectrum_is_doppler_mean_of_fft_magnitudes(sim_config, rng):
    shape = (64, 16, 8)
    data = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    cube = RadarCube(data=data, frame_index=0, radar_id="horizontal")
    bins = RangeBinSet(bins=(1, 5, 9))
    v = angle_spectrum(cube, sim_config, bins, "azimuth", angle_fft=16)
    sub = average_elevation(range_doppler_map(cube), sim_config).data[list(bins)]
    want = mean_axis1_loops(np.fft.fft(sub, n=16, axis=2))
    np.testing.assert_allclose(v.values, want, atol=1e-12)


def test_empty_bin_set_is_valid(sim_config):
    cube = RadarCube(
        data=np.zeros((64, 16, 8), dtype=complex), frame_index=0, radar_id="horizontal"
    )
    v = angle_spectrum(cube, sim_config, RangeBinSet(bins=()), "azimuth")
    assert v.values.shape[0] == 0


def test_axis_must_match_radar(sim_config):
    cube = RadarCube(
        data=np.zeros((64, 16, 8), dtype=complex), frame_index=0, radar_id="horizontal"
    )
    with pytest.raises(ProbMapError, match="azimuth"):
        angle_spectrum(cube, sim_config, RangeBinSet(bins=()), "elevation")


def test_rd_map_input_matches_cube_input(sim_config):
    scene = SceneSpec(targets=(Target(range_m=6.0, azimuth=0.3, elevation=-0.2),), snr_db=20)
    bins = RangeBinSet(bins=(3, 7, 12))
    for radar_id, axis in (("horizontal", "azimuth"), ("vertical", "elevation")):
        cube = synth_frame(scene, sim_config, radar_id=radar_id)
        rd = range_doppler_map(cube)
        assert rd.radar_id == radar_id
        from_map = angle_spectrum(rd, sim_config, bins, axis, angle_fft=16)
        from_cube = angle_spectrum(cube, sim_config, bins, axis, angle_fft=16)
        assert from_map.values.tobytes() == from_cube.values.tobytes()
        assert from_map.empty_rows == from_cube.empty_rows


def test_rd_map_axis_must_match_radar(sim_config):
    cube = RadarCube(
        data=np.zeros((64, 16, 8), dtype=complex), frame_index=0, radar_id="vertical"
    )
    with pytest.raises(ProbMapError, match="elevation"):
        angle_spectrum(range_doppler_map(cube), sim_config, RangeBinSet(bins=()), "azimuth")


def test_simulator_target_azimuth_argmax(sim_config):
    tgt = Target(range_m=6.0, azimuth=0.4)
    cube = synth_frame(SceneSpec(targets=(tgt,), snr_db=40), sim_config)
    angle_fft = 16
    rbin, _, az_bin, _ = expected_bins(tgt, sim_config, (64, 16, angle_fft, angle_fft))
    v = angle_spectrum(cube, sim_config, RangeBinSet(bins=(rbin,)), "azimuth", angle_fft=angle_fft)
    assert int(v.values[0].argmax()) == az_bin


# ---------------------------------------------------------------- end to end

def test_end_to_end_single_target_argmax(sim_config):
    # range chosen so the beat frequency lands on an exact range bin,
    # keeping spectral leakage away from the CFAR reference ring
    from radarpose.sim import SPEED_OF_LIGHT
    range_m = 18 * sim_config.sample_rate * SPEED_OF_LIGHT / (2 * sim_config.chirp_slope * 64)
    tgt = Target(range_m=range_m, azimuth=0.35, elevation=-0.2)
    scene = SceneSpec(targets=(tgt,), snr_db=40)
    cube_h = synth_frame(scene, sim_config, radar_id="horizontal")
    cube_v = synth_frame(scene, sim_config, radar_id="vertical")
    angle_fft = next_pow2(sim_config.num_virtual)
    params = CfarParams(guard=2, reference=4, pfa=1e-3)
    bins_h = select_range_bins(detect_2d(magnitude_map(range_doppler_map(cube_h)), params))
    bins_v = select_range_bins(detect_2d(magnitude_map(range_doppler_map(cube_v)), params))
    rbin, _, az_bin, el_bin = expected_bins(tgt, sim_config, (64, 16, angle_fft, angle_fft))
    assert rbin in list(bins_h) and rbin in list(bins_v)
    v_ra = normalize(angle_spectrum(cube_h, sim_config, bins_h, "azimuth", angle_fft=angle_fft))
    v_re = normalize(angle_spectrum(cube_v, sim_config, bins_v, "elevation", angle_fft=angle_fft))
    p = probability_map(v_ra, v_re)
    row = list(p.range_bins).index(rbin)
    got = np.unravel_index(p.values[row].argmax(), p.values[row].shape)
    assert got == (az_bin, el_bin)
    np.testing.assert_allclose(p.values[row].sum(), 1.0, atol=1e-9)
