"""Tests of the benchmark's own parts: input generator, oracle and tracer.

    python3 -m pytest benchmarks/test_benchmark.py
"""

import math
import sys
import time
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import oracle  # noqa: E402
import tracing  # noqa: E402
import workloads as W  # noqa: E402
from radarpose import adc, cli, sim  # noqa: E402
from radarpose.config import RadarConfig  # noqa: E402


def tiny(command: str, config: dict, frames: int = 2) -> W.Workload:
    return W.Workload(f"tiny_{command}", command, config, frames, "test")


@pytest.mark.parametrize("config", [W.SMALL, W.PLANAR], ids=["small", "planar"])
def test_generator_bytes_parse_back_to_its_cube(config):
    scene = W.make_scene(config, seed=3)
    for radar in ("horizontal", "vertical"):
        cubes = [W.frame_cube(scene, config, radar, f, seed=3) for f in range(2)]
        raw = b"".join(W.capture_bytes(c, config) for c in cubes)
        parsed = adc.parse_cubes(raw, adc.AdcLayout(), RadarConfig(**config), radar_id=radar)
        assert len(parsed) == 2
        for cube, got in zip(cubes, parsed):
            err = got.data - cube * W.ADC_SCALE
            # rounding to int16 moves each component by at most half a count
            assert np.abs(err.real).max() <= 0.5 + 1e-9
            assert np.abs(err.imag).max() <= 0.5 + 1e-9


@pytest.mark.parametrize("name", sorted(W.WORKLOADS))
@pytest.mark.parametrize("seed", [0, 1, 7])
def test_expected_bins_agree_with_simulator(name, seed):
    config = W.WORKLOADS[name].config
    radar_config = RadarConfig(**config)
    p, q = W.array_shape(config)
    lengths = (W.next_pow2(config["num_adc_samples"]), W.next_pow2(config["num_chirps"]),
               W.next_pow2(p), W.next_pow2(q))
    for t in W.make_scene(config, seed):
        target = sim.Target(range_m=t.range_m, radial_velocity=t.radial_velocity,
                            azimuth=t.azimuth, elevation=t.elevation, rcs_amplitude=t.amplitude)
        assert W.expected_bins(t, config, lengths) == sim.expected_bins(
            target, radar_config, lengths)
        assert abs(W.doppler_step(config, t.radial_velocity)) <= 0.4


def test_generator_matches_simulator_signal():
    """On frame 0 the generator and sim.synth_frame agree up to the generator's noise."""
    config = W.SMALL
    scene = W.make_scene(config, seed=5)
    spec = sim.SceneSpec(targets=tuple(
        sim.Target(range_m=t.range_m, radial_velocity=t.radial_velocity, azimuth=t.azimuth,
                   elevation=t.elevation, rcs_amplitude=t.amplitude) for t in scene))
    want = sim.synth_frame(spec, RadarConfig(**config), radar_id="vertical").data
    noisy = W.frame_cube(scene, config, "vertical", 0, seed=5)
    sigma = math.sqrt(10.0 ** (-W.SNR_DB / 10.0) / 2.0)
    assert (noisy - want).std() == pytest.approx(sigma * math.sqrt(2), rel=0.03)


def test_positional_encoding_oracle_matches_docstring_formula():
    got = oracle.positional_encoding(8, 4, 6)
    assert got.shape == (12, 8, 4)
    assert got[2, 5, 0] == pytest.approx(math.sin(5 / 10000 ** (2 / 6)))
    assert got[6 + 3, 1, 3] == pytest.approx(math.cos(3 / 10000 ** (2 / 6)))


def test_wrappers_restore_original_functions():
    tracer = tracing.Tracer()
    before = [(m, a, getattr(tracing._module(m), a)) for m, a, _, _ in tracing.TARGETS]
    tracer.install(0)
    assert all(getattr(tracing._module(m), a) is not f for m, a, f in before)
    with pytest.raises(RuntimeError):
        tracer.install(1)
    tracer.uninstall()
    assert all(getattr(tracing._module(m), a) is f for m, a, f in before)


def run_cli(wl, seed, tmp_path, tag, tracer=None):
    inputs = W.ensure_inputs(wl, seed, tmp_path / "inputs")
    out = tmp_path / tag
    out.mkdir()
    if tracer:
        tracer.install(1)
    try:
        assert cli.main(W.cli_argv(wl, inputs, out)) == cli.EXIT_OK
    finally:
        if tracer:
            tracer.uninstall()
    return out


@pytest.mark.parametrize("command,config", [
    ("probmap", W.SMALL), ("heatmap", W.PLANAR), ("simulate", W.SMALL),
])
def test_traced_and_untraced_runs_write_identical_checked_artifacts(command, config, tmp_path):
    wl = tiny(command, config)
    tracer = tracing.Tracer()
    plain = run_cli(wl, 2, tmp_path, "plain")
    traced = run_cli(wl, 2, tmp_path, "traced", tracer)
    assert oracle.artifact_digest(plain) == oracle.artifact_digest(traced)
    assert oracle.CHECKS[command](plain, wl, W.make_scene(config, 2)) == 0
    assert tracer.spans and all(s.run_id == 1 for s in tracer.spans)


def test_self_times_partition_the_invocation(tmp_path):
    wl = tiny("probmap", W.SMALL)
    tracer = tracing.Tracer()
    inputs = W.ensure_inputs(wl, 4, tmp_path / "inputs")
    tracer.install(1)
    start = time.perf_counter()
    try:
        cli.main(W.cli_argv(wl, inputs, tmp_path))
    finally:
        wall = time.perf_counter() - start
        tracer.uninstall()
    m = tracing.layer_metrics(tracer.spans, 1, tracer.counts[1], wall, wl.radar_frames)
    covered = sum(m[name] for name in tracing.TIME_METRICS) + m["cli.self_s"]
    assert covered == pytest.approx(wall, abs=1e-9)
    assert m["spectral.rd_calls_per_frame"] == 2.0
    assert m["tensorio.files"] == 2 * wl.frames
    assert m["cfar.range_bins_per_frame"] == 5.0
    assert all(v >= 0 for k, v in m.items() if k != "cli.self_s")


def test_oracle_rejects_corrupted_outputs(tmp_path):
    wl = tiny("probmap", W.SMALL)
    out = run_cli(wl, 2, tmp_path, "out")
    scene = W.make_scene(W.SMALL, 2)
    assert oracle.check_probmap(out, wl, scene) == 0
    enc = out / "pm.enc.f0001.tensor"
    raw = bytearray(enc.read_bytes())
    raw[-8:] = np.float64(7.0).tobytes()
    enc.write_bytes(bytes(raw))
    assert oracle.check_probmap(out, wl, scene) == 2
    (out / "pm.prob.f0000.tensor").unlink()
    assert oracle.check_probmap(out, wl, scene) == 4


def test_oracle_rejects_missed_scatterer(tmp_path):
    wl = tiny("probmap", W.SMALL)
    out = run_cli(wl, 2, tmp_path, "out")
    scene = W.make_scene(W.SMALL, 2)
    far = W.Scatterer("far", 40 * W.range_resolution(W.SMALL), 0.0, 0.0, 0.0, 1.0)
    assert oracle.check_probmap(out, wl, scene + [far]) == wl.radar_frames


def test_simulate_check_counts_frames(tmp_path):
    wl = tiny("simulate", W.SMALL, frames=3)
    out = run_cli(wl, 2, tmp_path, "out")
    scene = W.make_scene(W.SMALL, 2)
    assert oracle.check_simulate(out, wl, scene) == 0
    assert oracle.check_simulate(out, tiny("simulate", W.SMALL, frames=4), scene) == 8


def test_heatmap_doppler_bins_match_cli_sampling():
    from radarpose.spectral import doppler_sample_indices

    assert oracle.doppler_kept(64, 16, 0.5) == list(doppler_sample_indices(64, 16, 0.5))


def test_input_cache_reuses_and_evicts(tmp_path):
    wl = tiny("heatmap", W.PLANAR, frames=1)
    first = W.ensure_inputs(wl, 0, tmp_path)
    stamp = (first / "cap.h.bin").stat().st_mtime_ns
    assert W.ensure_inputs(wl, 0, tmp_path) == first
    assert (first / "cap.h.bin").stat().st_mtime_ns == stamp
    for seed in range(1, W.CACHE_ENTRIES + 1):
        W.ensure_inputs(wl, seed, tmp_path)
    assert len(list(tmp_path.iterdir())) == W.CACHE_ENTRIES
    assert not first.exists()
