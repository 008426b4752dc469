import numpy as np
import pytest

from radarpose.cfar import RangeBinSet
from radarpose.config import RadarConfig
from radarpose.probmap import angle_spectrum
from radarpose.sim import (
    SPEED_OF_LIGHT, SceneSpec, SimError, Target, expected_bins, scene_warnings, synth_frame,
)
from radarpose.spectral import magnitude_map, range_doppler_map


def range_for_bin(cfg, bin_index, n_fft):
    return bin_index * cfg.sample_rate * SPEED_OF_LIGHT / (2 * cfg.chirp_slope * n_fft)


def velocity_for_bin(cfg, offset, m_fft):
    t_c = cfg.chirp_interval * cfg.num_tx
    return offset / (m_fft * t_c) * SPEED_OF_LIGHT / (2 * cfg.carrier_freq)


def test_empty_scene_zero_cube(sim_config):
    cube = synth_frame(SceneSpec(), sim_config)
    assert not cube.data.any()
    assert scene_warnings(SceneSpec(), sim_config) == []


def test_same_seed_bit_identical(sim_config):
    scene = SceneSpec(targets=(Target(range_m=5.0),), snr_db=20, noise_seed=42)
    a = synth_frame(scene, sim_config)
    b = synth_frame(scene, sim_config)
    assert a.data.tobytes() == b.data.tobytes()


def test_different_seeds_differ(sim_config):
    t = (Target(range_m=5.0),)
    a = synth_frame(SceneSpec(targets=t, snr_db=20, noise_seed=1), sim_config)
    b = synth_frame(SceneSpec(targets=t, snr_db=20, noise_seed=2), sim_config)
    assert a.data.tobytes() != b.data.tobytes()


def test_superposition_exact(sim_config):
    t1, t2 = Target(range_m=4.0, azimuth=0.2), Target(range_m=9.0, radial_velocity=1.5)
    both = synth_frame(SceneSpec(targets=(t1, t2)), sim_config)
    single = (
        synth_frame(SceneSpec(targets=(t1,)), sim_config).data
        + synth_frame(SceneSpec(targets=(t2,)), sim_config).data
    )
    np.testing.assert_array_equal(both.data, single)


def phase_sum_reference(scene, cfg, radar_id):
    """Noise-free cube as the per-element sum of A * exp(2j*pi*(total phase))."""
    q_count = cfg.array_shape[1]
    n, m, v = np.indices((cfg.num_adc_samples, cfg.num_chirps, cfg.num_virtual))
    p, q = v // q_count, v % q_count
    t_c = cfg.chirp_interval * cfg.num_tx
    cube = np.zeros(n.shape, dtype=complex)
    for t in scene.targets:
        f_b = 2 * cfg.chirp_slope * t.range_m / SPEED_OF_LIGHT
        f_d = 2 * t.radial_velocity * cfg.carrier_freq / SPEED_OF_LIGHT
        a1, a2 = (t.azimuth, t.elevation) if radar_id == "horizontal" else (t.elevation, t.azimuth)
        phase = (f_b * n / cfg.sample_rate + f_d * t_c * m
                 + cfg.antenna_spacing * (p * np.sin(a1) + q * np.sin(a2)))
        cube += t.rcs_amplitude * np.exp(2j * np.pi * phase)
    return cube


@pytest.mark.parametrize("num_targets", [0, 1, 14])
@pytest.mark.parametrize("radar_id", ["horizontal", "vertical"])
@pytest.mark.parametrize("az,el", [(8, 1), (4, 2), (2, 4)])
def test_separable_synthesis_matches_phase_sum(az, el, radar_id, num_targets):
    cfg = RadarConfig(
        num_adc_samples=64, num_chirps=16, num_tx=2, num_rx=4,
        sample_rate=1e7, chirp_slope=3e13, carrier_freq=7.7e10,
        azimuth_antennas=az, elevation_antennas=el,
    )
    rng = np.random.default_rng(num_targets)
    scene = SceneSpec(targets=tuple(
        Target(
            range_m=rng.uniform(0.5, 20.0),
            radial_velocity=velocity_for_bin(cfg, rng.uniform(-7.0, 7.0), 16),
            azimuth=rng.uniform(-1.2, 1.2),
            elevation=rng.uniform(-1.2, 1.2),
            rcs_amplitude=rng.uniform(0.1, 3.0),
        ) for _ in range(num_targets)
    ))
    got = synth_frame(scene, cfg, radar_id=radar_id).data
    want = phase_sum_reference(scene, cfg, radar_id)
    assert got.shape == want.shape
    assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()


def test_noise_is_sigma_times_two_standard_normal_draws(sim_config):
    scene = SceneSpec(targets=(Target(range_m=5.0, rcs_amplitude=2.0),), snr_db=10, noise_seed=3)
    got = synth_frame(scene, sim_config, radar_id="vertical", frame_index=4).data
    rng = np.random.default_rng([3, 4, 1])
    sigma = np.sqrt(4.0 / 10.0 / 2.0)
    a = rng.standard_normal(got.shape)
    b = rng.standard_normal(got.shape)
    clean = synth_frame(SceneSpec(targets=scene.targets), sim_config, radar_id="vertical").data
    np.testing.assert_array_equal(got, clean + sigma * (a + 1j * b))


def test_expected_bins_direct_arithmetic():
    cfg = RadarConfig(
        num_adc_samples=64, num_chirps=16, num_tx=1, num_rx=4,
        sample_rate=1e7, chirp_slope=3e13, carrier_freq=7.7e10,
    )
    # slope 30 MHz/us, fs 10 MHz, 5 m -> round(6.4) = 6
    rbin, dbin, abin, ebin = expected_bins(Target(range_m=5.0), cfg, (64, 16, 8, 8))
    assert rbin == 6
    assert dbin == 8   # zero velocity sits at the center bin
    assert abin == 0   # broadside
    assert ebin == 0


def test_expected_bins_angle():
    cfg = RadarConfig(
        num_adc_samples=8, num_chirps=4, num_tx=1, num_rx=8,
        sample_rate=1e7, chirp_slope=3e13, carrier_freq=7.7e10,
    )
    t = Target(range_m=1.0, azimuth=np.arcsin(0.5))  # spacing*sin = 0.25 cycles
    assert expected_bins(t, cfg, (8, 4, 16, 16))[2] == 4
    t_neg = Target(range_m=1.0, azimuth=-np.arcsin(0.5))
    assert expected_bins(t_neg, cfg, (8, 4, 16, 16))[2] == 12  # wraps modulo 16


def test_single_target_range_fft_peak(sim_config):
    tgt = Target(range_m=range_for_bin(sim_config, 20, 64))
    cube = synth_frame(SceneSpec(targets=(tgt,)), sim_config)
    rd = range_doppler_map(cube)
    mag = magnitude_map(rd)
    rbin = expected_bins(tgt, sim_config, (64, 16, 8, 8))[0]
    assert int(mag.max(axis=1).argmax()) == rbin == 20


def test_round_trip_all_four_bins(sim_config):
    tgt = Target(
        range_m=range_for_bin(sim_config, 20, 64),
        radial_velocity=velocity_for_bin(sim_config, 3, 16),
        azimuth=0.3,
        elevation=-0.25,
    )
    scene = SceneSpec(targets=(tgt,), snr_db=30)
    angle_fft = 8
    rbin, dbin, az_bin, el_bin = expected_bins(tgt, sim_config, (64, 16, angle_fft, angle_fft))
    got = {}
    for radar_id, kind, angle_bin in (
        ("horizontal", "azimuth", az_bin), ("vertical", "elevation", el_bin)
    ):
        cube = synth_frame(scene, sim_config, radar_id=radar_id)
        mag = magnitude_map(range_doppler_map(cube))
        r_got, d_got = np.unravel_index(mag.argmax(), mag.shape)
        assert abs(int(r_got) - rbin) <= 1
        assert abs(int(d_got) - dbin) <= 1
        from radarpose.cfar import RangeBinSet
        v = angle_spectrum(
            cube, sim_config, RangeBinSet(bins=(int(r_got),)), kind, angle_fft=angle_fft
        )
        got[kind] = int(v.values[0].argmax())
        assert min(abs(got[kind] - angle_bin), angle_fft - abs(got[kind] - angle_bin)) <= 1


@pytest.mark.parametrize("az,el", [(4, 2), (2, 4)])
def test_planar_round_trip_angle_bins(az, el):
    # acceptance test 2 on non-ULA arrays: azimuth (horizontal radar) and
    # elevation (vertical radar) both lie along the P axis of the P x Q grid
    cfg = RadarConfig(
        num_adc_samples=64, num_chirps=16, num_tx=2, num_rx=4,
        sample_rate=1e7, chirp_slope=3e13, carrier_freq=7.7e10,
        azimuth_antennas=az, elevation_antennas=el,
    )
    angle_fft = 8
    rng = np.random.default_rng(2024)
    misses = 0
    for _ in range(40):
        tgt = Target(
            range_m=range_for_bin(cfg, rng.uniform(3.0, 27.0), 64),
            radial_velocity=velocity_for_bin(cfg, rng.uniform(-6.0, 6.0), 16),
            azimuth=rng.uniform(-0.55, 0.55),
            elevation=rng.uniform(-0.55, 0.55),
        )
        scene = SceneSpec(targets=(tgt,), snr_db=30.0, noise_seed=int(rng.integers(1 << 31)))
        _, _, az_bin, el_bin = expected_bins(tgt, cfg, (64, 16, angle_fft, angle_fft))
        for radar_id, kind, want in (
            ("horizontal", "azimuth", az_bin), ("vertical", "elevation", el_bin)
        ):
            rd = range_doppler_map(synth_frame(scene, cfg, radar_id=radar_id))
            mag = magnitude_map(rd)
            r = int(np.unravel_index(mag.argmax(), mag.shape)[0])
            v = angle_spectrum(rd, cfg, RangeBinSet(bins=(r,)), kind, angle_fft=angle_fft)
            got = int(v.values[0].argmax())
            if min(abs(got - want), angle_fft - abs(got - want)) > 1:
                misses += 1
                break
    assert misses <= 1


def test_aliasing_flagged(sim_config):
    far = Target(range_m=100.0)  # beat frequency beyond the sample rate
    assert any("aliases" in w for w in scene_warnings(SceneSpec(targets=(far,)), sim_config))
    fast = Target(range_m=5.0, radial_velocity=500.0)
    assert any("Doppler" in w for w in scene_warnings(SceneSpec(targets=(fast,)), sim_config))


def test_target_validation():
    with pytest.raises(SimError):
        Target(range_m=-1.0)
    with pytest.raises(SimError):
        Target(range_m=1.0, azimuth=2.0)


def test_scene_json_round_trip():
    text = """
    {"targets": [{"range": 5.0, "radial_velocity": 1.0, "azimuth": 0.2,
                  "elevation": -0.1, "rcs_amplitude": 2.0}],
     "snr_db": 25, "noise_seed": 7}
    """
    scene = SceneSpec.from_json(text)
    assert scene.targets[0].range_m == 5.0
    assert scene.targets[0].rcs_amplitude == 2.0
    assert scene.snr_db == 25
    assert scene.noise_seed == 7


def test_noise_floor_statistics(sim_config):
    # no targets: per-bin |FFT| of white noise has mean sigma_bin * sqrt(pi)/2
    snr_db = 10.0
    noise_power = 10 ** (-snr_db / 10.0)
    k = 64 * 16 * 8
    expected_mean = np.sqrt(k * noise_power) * np.sqrt(np.pi) / 2.0
    means = []
    for seed in range(100):
        scene = SceneSpec(snr_db=snr_db, noise_seed=seed)
        cube = synth_frame(scene, sim_config)
        spec = np.fft.fftn(cube.data, axes=(0, 1, 2))
        means.append(np.abs(spec).mean())
    assert abs(np.mean(means) - expected_mean) / expected_mean < 0.05
