import json
import threading
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from radarpose import adc, manifest, probmap, sim, spectral, tensorio
from radarpose.cli import EXIT_CONTRACT, EXIT_DATA, EXIT_OK, EXIT_USAGE, main
from radarpose.config import config_text, load_config
from radarpose.manifest import sha256_file
from radarpose.pose import DEFAULT_SIGMAS, JOINT_NAMES
from radarpose.tensorio import MAGIC, read_tensor, write_tensor

CONFIG = """
num_adc_samples = 32
num_chirps = 8
num_tx = 2
num_rx = 2
sample_rate = 1e7
chirp_slope = 3e13
carrier_freq = 7.7e10
frame_rate = 10
"""


@pytest.fixture
def cfg_file(tmp_path):
    path = tmp_path / "radar.cfg"
    path.write_text(CONFIG)
    return str(path)


def write_scene(tmp_path, targets=(), snr_db=None, seed=0, name="scene.json"):
    path = tmp_path / name
    path.write_text(json.dumps({
        "targets": list(targets), "snr_db": snr_db, "noise_seed": seed,
    }))
    return str(path)


def outputs_written(tmp_path, prefix="o"):
    return [p.name for p in tmp_path.iterdir() if p.name.startswith(prefix)]


def keypoint_doc(offsets=None):
    joints = []
    for i, name in enumerate(JOINT_NAMES):
        x, y = 10.0 + i, 20.0
        if offsets and name in offsets:
            x += offsets[name]
        joints.append({"name": name, "x": x, "y": y, "v": 1})
    return {"frame": 0, "joints": joints, "area": 100.0}


def test_simulate_empty_scene_writes_zeros(tmp_path, cfg_file):
    scene = write_scene(tmp_path)
    out = tmp_path / "cap.bin"
    assert main(["simulate", scene, "--config", cfg_file, "--output", str(out)]) == EXIT_OK
    assert set(out.read_bytes()) == {0}
    manifest = json.loads((tmp_path / "cap.bin.manifest.json").read_text())
    assert manifest["command"] == "simulate"
    assert str(out) in manifest["outputs"]


def test_simulate_deterministic_per_seed(tmp_path, cfg_file):
    scene = write_scene(tmp_path, targets=[{"range": 5.0, "azimuth": 0.2}], snr_db=20)
    out1, out2 = tmp_path / "a.bin", tmp_path / "b.bin"
    for out in (out1, out2):
        assert main([
            "simulate", scene, "--config", cfg_file, "--output", str(out), "--seed", "9",
        ]) == EXIT_OK
    assert sha256_file(out1) == sha256_file(out2)


def test_simulate_then_heatmap_peak(tmp_path, cfg_file):
    # on-bin target: range bin 10 of the 32-point FFT
    from radarpose.sim import SPEED_OF_LIGHT
    rng_m = 10 * 1e7 * SPEED_OF_LIGHT / (2 * 3e13 * 32)
    scene = write_scene(tmp_path, targets=[{"range": rng_m}])
    cap = tmp_path / "cap.bin"
    assert main(["simulate", scene, "--config", cfg_file, "--output", str(cap)]) == EXIT_OK
    out = tmp_path / "maps.tensor"
    assert main([
        "heatmap", str(cap), "--config", cfg_file, "--output", str(out), "--branch", "rd",
    ]) == EXIT_OK
    maps = read_tensor(out)
    assert maps.shape[0] == 1
    mag = np.abs(maps[0]).sum(axis=2)
    assert int(mag.max(axis=1).argmax()) == 10


def test_heatmap_fft_branch_shape(tmp_path, cfg_file):
    scene = write_scene(tmp_path, targets=[{"range": 4.0}])
    cap = tmp_path / "cap.bin"
    main(["simulate", scene, "--config", cfg_file, "--output", str(cap)])
    out = tmp_path / "maps.tensor"
    assert main([
        "heatmap", str(cap), "--config", cfg_file, "--output", str(out), "--branch", "fft",
    ]) == EXIT_OK
    # (frames, range, Doppler, azimuth) after elevation averaging
    assert read_tensor(out).shape == (1, 32, 8, 4)


def test_heatmap_zero_input_zero_tensor(tmp_path, cfg_file):
    scene = write_scene(tmp_path)
    cap = tmp_path / "cap.bin"
    main(["simulate", scene, "--config", cfg_file, "--output", str(cap)])
    out = tmp_path / "maps.tensor"
    main(["heatmap", str(cap), "--config", cfg_file, "--output", str(out)])
    assert not read_tensor(out).any()


PLANAR_CONFIG = """
num_adc_samples = 16
num_chirps = 16
num_tx = 4
num_rx = 3
sample_rate = 1e7
chirp_slope = 3e13
carrier_freq = 7.7e10
frame_rate = 10
azimuth_antennas = 4
elevation_antennas = 3
"""


def planar_heatmap(tmp_path, *flags):
    """2-frame 4x3 capture, its parsed cubes, and the heatmap tensor for flags."""
    cfg = tmp_path / "planar.cfg"
    cfg.write_text(PLANAR_CONFIG)
    scene = write_scene(tmp_path, targets=[{"range": 3.0, "azimuth": 0.3}], snr_db=10)
    cap = tmp_path / "cap.bin"
    assert main(["simulate", scene, "--config", str(cfg), "--output", str(cap),
                 "--frames", "2"]) == EXIT_OK
    out = tmp_path / "maps.tensor"
    assert main(["heatmap", str(cap), "--config", str(cfg), "--output", str(out),
                 *flags]) == EXIT_OK
    config = load_config(str(cfg))
    cubes = adc.parse_cubes(cap.read_bytes(), adc.AdcLayout(), config)
    return config, cubes, read_tensor(out)


def test_heatmap_fft_branch_is_elevation_averaged_4d_fft(tmp_path):
    config, cubes, maps = planar_heatmap(tmp_path, "--branch", "fft", "--doppler-keep", "4")
    idx = spectral.doppler_sample_indices(16, 4, 0.5)
    assert maps.shape == (2, 16, 4, 4)
    for cube, got in zip(cubes, maps):
        spec = spectral.fft4d(cube, config)
        want = np.fft.fftshift(spec.data.mean(axis=3), axes=1)[:, idx]
        np.testing.assert_allclose(got, want, rtol=1e-12)


def test_heatmap_rd_branch_samples_doppler(tmp_path):
    _, cubes, maps = planar_heatmap(tmp_path, "--branch", "rd", "--doppler-keep", "4")
    idx = spectral.doppler_sample_indices(16, 4, 0.5)
    want = np.stack([spectral.range_doppler_map(c).data[:, idx] for c in cubes])
    assert maps.shape == (2, 16, 4, 12)
    np.testing.assert_array_equal(maps, want)


@pytest.mark.parametrize("window", ["0", "1.5"])
def test_heatmap_doppler_window_outside_0_1_exits_4(tmp_path, cfg_file, capsys, window):
    cap = tmp_path / "cap.bin"
    cap.write_bytes(bytes(FRAME_BYTES))
    assert main([
        "heatmap", str(cap), "--config", cfg_file, "--output", str(tmp_path / "o.tensor"),
        "--doppler-keep", "2", "--doppler-window", window,
    ]) == EXIT_CONTRACT
    assert "velocity_window must be in (0, 1]" in capsys.readouterr().err
    assert outputs_written(tmp_path) == []


def test_truncated_capture_exits_3(tmp_path, cfg_file):
    cap = tmp_path / "cap.bin"
    cap.write_bytes(b"\x00" * 100)
    assert main([
        "heatmap", str(cap), "--config", cfg_file, "--output", str(tmp_path / "o.tensor"),
    ]) == EXIT_DATA


def test_bad_config_exits_2(tmp_path):
    bad = tmp_path / "bad.cfg"
    bad.write_text("num_tx = 0\n")
    cap = tmp_path / "cap.bin"
    cap.write_bytes(b"")
    assert main([
        "heatmap", str(cap), "--config", str(bad), "--output", str(tmp_path / "o.tensor"),
    ]) == EXIT_USAGE


def test_missing_subcommand_args_exit_2(tmp_path):
    assert main(["simulate"]) == EXIT_USAGE


@pytest.mark.parametrize("case", ["config_is_dir", "output_is_dir", "pred_is_dir"])
def test_os_errors_exit_3_without_traceback(tmp_path, cfg_file, capsys, case):
    cap = tmp_path / "cap.bin"
    cap.write_bytes(bytes(FRAME_BYTES))
    (tmp_path / "gt.json").write_text(json.dumps([keypoint_doc()]))
    a_dir = tmp_path / "a_dir"
    a_dir.mkdir()
    argv = {
        "config_is_dir": ["heatmap", str(cap), "--config", str(a_dir),
                          "--output", str(tmp_path / "o.tensor")],
        "output_is_dir": ["heatmap", str(cap), "--config", cfg_file, "--output", str(a_dir)],
        "pred_is_dir": ["eval", str(a_dir), str(tmp_path / "gt.json")],
    }[case]
    assert main(argv) == EXIT_DATA
    err = capsys.readouterr().err
    assert "data error" in err and "Traceback" not in err


def run_probmap(tmp_path, cfg_file, scene_targets, snr=30, frames=1):
    scene = write_scene(tmp_path, targets=scene_targets, snr_db=snr)
    cap = tmp_path / "cap.bin"
    assert main([
        "simulate", scene, "--config", cfg_file, "--output", str(cap),
        "--radar", "both", "--frames", str(frames),
    ]) == EXIT_OK
    prefix = tmp_path / "out"
    code = main([
        "probmap", str(tmp_path / "cap.h.bin"), str(tmp_path / "cap.v.bin"),
        "--config", cfg_file, "--output", str(prefix),
        "--cfar-guard", "2", "--cfar-ref", "4", "--pfa", "1e-3", "--pe-depth", "8",
    ])
    return code, prefix


def test_probmap_single_target_unit_sum(tmp_path, cfg_file):
    code, prefix = run_probmap(
        tmp_path, cfg_file, [{"range": 6.0, "azimuth": 0.3, "elevation": 0.1}]
    )
    assert code == EXIT_OK
    prob = read_tensor(f"{prefix}.prob.f0000.tensor")
    side = json.loads(Path(f"{prefix}.bins.f0000.json").read_text())
    assert prob.shape[1:] == (4, 4)
    assert len(side["range_bins"]) == prob.shape[0] > 0
    for r, empty in enumerate(side["empty_rows"]):
        if not empty:
            assert abs(prob[r].sum() - 1.0) < 1e-8
    enc = read_tensor(f"{prefix}.enc.f0000.tensor")
    assert enc.shape == (prob.shape[0], 16, 4, 4)


def test_probmap_zero_input_empty_bins(tmp_path, cfg_file):
    code, prefix = run_probmap(tmp_path, cfg_file, [], snr=None)
    assert code == EXIT_OK
    side = json.loads(Path(f"{prefix}.bins.f0000.json").read_text())
    assert side["range_bins"] == []
    assert read_tensor(f"{prefix}.prob.f0000.tensor").shape == (0, 4, 4)


def test_probmap_angle_fft_sets_both_angle_axes(tmp_path, sim_config):
    cfg = tmp_path / "radar8.cfg"
    cfg.write_text(config_text(sim_config))
    scene = write_scene(tmp_path, targets=[{"range": 6.0, "azimuth": 0.3}], snr_db=30)
    assert main(["simulate", scene, "--config", str(cfg), "--output", str(tmp_path / "cap.bin"),
                 "--radar", "both"]) == EXIT_OK
    argv = ["probmap", str(tmp_path / "cap.h.bin"), str(tmp_path / "cap.v.bin"),
            "--config", str(cfg)]
    assert main(argv + ["--output", str(tmp_path / "out"), "--angle-fft", "16"]) == EXIT_OK
    prob = read_tensor(tmp_path / "out.prob.f0000.tensor")
    side = json.loads((tmp_path / "out.bins.f0000.json").read_text())
    assert prob.shape[0] > 0 and prob.shape[1:] == (16, 16)
    assert read_tensor(tmp_path / "out.enc.f0000.tensor").shape == (prob.shape[0], 64, 16, 16)
    assert side["axes"] == {"azimuth": 16, "elevation": 16}


def test_probmap_too_short_angle_fft_exits_4_before_any_frame(
    tmp_path, sim_config, monkeypatch, capsys
):
    cfg = tmp_path / "radar8.cfg"
    cfg.write_text(config_text(sim_config))
    scene = write_scene(tmp_path, targets=[{"range": 6.0, "azimuth": 0.3}], snr_db=30)
    assert main(["simulate", scene, "--config", str(cfg), "--output", str(tmp_path / "cap.bin"),
                 "--radar", "both"]) == EXIT_OK
    calls = []
    monkeypatch.setattr(spectral, "range_doppler_map", lambda *a, **k: calls.append(a))
    # 4 bins cannot hold the 8 azimuth antennas
    assert main(["probmap", str(tmp_path / "cap.h.bin"), str(tmp_path / "cap.v.bin"),
                 "--config", str(cfg), "--output", str(tmp_path / "short"),
                 "--angle-fft", "4"]) == EXIT_CONTRACT
    assert "angle FFT length 4 < 8 antennas" in capsys.readouterr().err
    assert calls == []
    assert outputs_written(tmp_path, "short") == []


def test_probmap_frame_count_mismatch_exits_3(tmp_path, cfg_file, capsys):
    scene = write_scene(tmp_path, targets=[{"range": 5.0}])
    main(["simulate", scene, "--config", cfg_file, "--output", str(tmp_path / "cap.bin"),
          "--radar", "both", "--frames", "2"])
    h, v = tmp_path / "cap.h.bin", tmp_path / "cap.v.bin"
    whole = v.read_bytes()
    # a vertical capture truncated by 2 bytes, then one with a frame fewer
    for broken in (whole[:-2], whole[:len(whole) // 2]):
        v.write_bytes(broken)
        assert main([
            "probmap", str(h), str(v), "--config", cfg_file, "--output", str(tmp_path / "o"),
        ]) == EXIT_DATA
        assert outputs_written(tmp_path) == []
    assert f"truncated capture {v}: length" in capsys.readouterr().err


def test_probmap_capture_that_shrinks_mid_run_exits_3(tmp_path, cfg_file, monkeypatch, capsys):
    # frame 0 of both captures has been read when its map is encoded; cutting
    # the vertical capture to 1.5 frames then leaves frame 1 short
    original = probmap.encode_map
    v = tmp_path / "cap.v.bin"

    def shrinking(pmap, pe):
        if v.stat().st_size > FRAME_BYTES:
            with open(v, "r+b") as fh:
                fh.truncate(FRAME_BYTES + FRAME_BYTES // 2)
        return original(pmap, pe)

    monkeypatch.setattr(probmap, "encode_map", shrinking)
    code, _ = run_probmap(tmp_path, cfg_file, [{"range": 6.0}], frames=4)
    assert code == EXIT_DATA
    err = capsys.readouterr().err
    assert str(v) in err and "frame 1 " in err
    assert sorted(outputs_written(tmp_path, "out")) == [
        "out.bins.f0000.json", "out.enc.f0000.tensor", "out.prob.f0000.tensor",
    ]


def assert_manifest_digests_are_the_files(manifest_path):
    """Every digest a manifest records equals the SHA-256 of that file on disk."""
    doc = json.loads(Path(manifest_path).read_text())
    files = {**doc["inputs"], **doc["outputs"]}
    assert files
    for path, digest in files.items():
        assert digest == sha256_file(path), path
    assert doc["config_sha256"] is None or doc["config_sha256"] == sha256_file(
        Path(manifest_path).parent / "radar.cfg"
    )
    return doc


def simulate_both(tmp_path, cfg_file, frames=3):
    scene = write_scene(tmp_path, targets=[{"range": 6.0, "azimuth": 0.2}], snr_db=20)
    assert main(["simulate", scene, "--config", cfg_file, "--output", str(tmp_path / "cap.bin"),
                 "--radar", "both", "--frames", str(frames)]) == EXIT_OK
    return tmp_path / "cap.h.bin", tmp_path / "cap.v.bin"


def test_simulate_manifest_digests_are_the_files_written(tmp_path, cfg_file):
    h, v = simulate_both(tmp_path, cfg_file)
    doc = assert_manifest_digests_are_the_files(tmp_path / "cap.bin.manifest.json")
    assert sorted(doc["outputs"]) == sorted([str(h), str(v)])


def test_heatmap_manifest_digests_are_the_files_written(tmp_path, cfg_file):
    h, _ = simulate_both(tmp_path, cfg_file)
    out = tmp_path / "maps.tensor"
    assert main(["heatmap", str(h), "--config", cfg_file, "--output", str(out),
                 "--doppler-keep", "4"]) == EXIT_OK
    doc = assert_manifest_digests_are_the_files(tmp_path / "maps.tensor.manifest.json")
    assert list(doc["inputs"]) == [str(h)] and list(doc["outputs"]) == [str(out)]


def test_probmap_manifest_digests_are_the_files_written(tmp_path, cfg_file):
    code, prefix = run_probmap(tmp_path, cfg_file, [{"range": 6.0, "azimuth": 0.3}], frames=3)
    assert code == EXIT_OK
    doc = assert_manifest_digests_are_the_files(f"{prefix}.manifest.json")
    assert len(doc["inputs"]) == 2 and len(doc["outputs"]) == 9


def test_no_command_reads_an_output_back_to_hash_it(tmp_path, cfg_file, monkeypatch):
    hashed = []
    original = manifest.sha256_file

    def recording(path):
        hashed.append(str(path))
        return original(path)

    monkeypatch.setattr(manifest, "sha256_file", recording)
    scene = write_scene(tmp_path, targets=[{"range": 6.0, "azimuth": 0.2}], snr_db=20)
    h, v = str(tmp_path / "cap.h.bin"), str(tmp_path / "cap.v.bin")
    (tmp_path / "gt.json").write_text(json.dumps([keypoint_doc()]))
    (tmp_path / "pred.json").write_text(json.dumps([keypoint_doc({"head": 1.0})]))
    maps = str(tmp_path / "maps.tensor")
    runs = {
        "cap.bin": ["simulate", scene, "--config", cfg_file, "--output", str(tmp_path / "cap.bin"),
                    "--radar", "both", "--frames", "2"],
        "maps.tensor": ["heatmap", h, "--config", cfg_file, "--output", maps],
        "out": ["probmap", h, v, "--config", cfg_file, "--output", str(tmp_path / "out")],
        "fused.tensor": ["fuse", maps, maps, "--output", str(tmp_path / "fused.tensor")],
        "metrics.json": ["eval", str(tmp_path / "pred.json"), str(tmp_path / "gt.json"),
                         "--output", str(tmp_path / "metrics.json")],
    }
    for name, argv in runs.items():
        hashed.clear()
        assert main(argv) == EXIT_OK, name
        doc = assert_manifest_digests_are_the_files(tmp_path / f"{name}.manifest.json")
        assert set(doc["inputs"]) <= set(hashed), name
        assert not set(hashed) & set(doc["outputs"]), name


def test_probmap_computes_one_rd_map_per_cube(tmp_path, cfg_file, monkeypatch):
    calls = []
    original = spectral.range_doppler_map

    def counting(cube, *args, **kwargs):
        calls.append((cube.radar_id, cube.frame_index))
        return original(cube, *args, **kwargs)

    monkeypatch.setattr(spectral, "range_doppler_map", counting)
    monkeypatch.setattr(probmap, "range_doppler_map", counting)
    code, prefix = run_probmap(tmp_path, cfg_file, [{"range": 6.0, "azimuth": 0.3}], frames=3)
    assert code == EXIT_OK
    assert sorted(calls) == [(r, i) for r in ("horizontal", "vertical") for i in range(3)]
    tags = sorted(p.name.split(".")[-2] for p in tmp_path.glob("out.prob.*.tensor"))
    assert tags == ["f0000", "f0001", "f0002"]
    for i, tag in enumerate(tags):
        assert json.loads(Path(f"{prefix}.bins.{tag}.json").read_text())["frame"] == i


def fail_writes_of(monkeypatch, tag):
    """Make tensorio.write_tensor raise FileNotFoundError for frame ``tag``."""
    original = tensorio.write_tensor

    def failing(path, data):
        if f".{tag}." in str(path):
            raise FileNotFoundError(f"no room for {path}")
        original(path, data)

    monkeypatch.setattr(tensorio, "write_tensor", failing)


def fail_encode_at(monkeypatch, frame):
    """Make probmap.encode_map raise ProbMapError on its call for ``frame``."""
    original = probmap.encode_map
    calls = []

    def failing(*args):
        calls.append(None)
        if len(calls) == frame + 1:
            raise probmap.ProbMapError(f"frame {frame} cannot be encoded")
        return original(*args)

    monkeypatch.setattr(probmap, "encode_map", failing)


def test_probmap_failed_write_stops_at_that_frame(tmp_path, cfg_file, monkeypatch):
    fail_writes_of(monkeypatch, "f0001")
    code, _ = run_probmap(tmp_path, cfg_file, [{"range": 6.0}], frames=4)
    assert code == EXIT_DATA
    assert sorted(outputs_written(tmp_path, "out")) == [
        "out.bins.f0000.json", "out.enc.f0000.tensor", "out.prob.f0000.tensor",
    ]


def test_probmap_write_error_wins_over_a_later_frame_error(tmp_path, cfg_file, monkeypatch):
    # the write of frame 1 overlaps the compute of frame 2; written in turn,
    # frame 1's write fails first, so its data error is the one reported
    fail_writes_of(monkeypatch, "f0001")
    fail_encode_at(monkeypatch, 2)
    code, _ = run_probmap(tmp_path, cfg_file, [{"range": 6.0}], frames=4)
    assert code == EXIT_DATA
    assert sorted(outputs_written(tmp_path, "out")) == [
        "out.bins.f0000.json", "out.enc.f0000.tensor", "out.prob.f0000.tensor",
    ]


def test_probmap_compute_error_after_good_writes_keeps_them(tmp_path, cfg_file, monkeypatch):
    fail_encode_at(monkeypatch, 2)
    code, _ = run_probmap(tmp_path, cfg_file, [{"range": 6.0}], frames=4)
    assert code == EXIT_CONTRACT
    assert sorted(outputs_written(tmp_path, "out")) == sorted(
        f"out.{kind}.f000{i}.{ext}"
        for i in (0, 1)
        for kind, ext in (("bins", "json"), ("enc", "tensor"), ("prob", "tensor"))
    )


def test_probmap_output_in_missing_directory_exits_3(tmp_path, cfg_file):
    scene = write_scene(tmp_path, targets=[{"range": 6.0}])
    assert main(["simulate", scene, "--config", cfg_file, "--output", str(tmp_path / "cap.bin"),
                 "--radar", "both", "--frames", "2"]) == EXIT_OK
    assert main([
        "probmap", str(tmp_path / "cap.h.bin"), str(tmp_path / "cap.v.bin"),
        "--config", cfg_file, "--output", str(tmp_path / "missing" / "pm"),
    ]) == EXIT_DATA
    assert not (tmp_path / "missing").exists()


def test_probmap_writes_on_one_thread_and_leaves_none(tmp_path, cfg_file, monkeypatch):
    writers, counts = set(), set()
    original = tensorio.write_tensor

    def recording(path, data):
        writers.add(threading.get_ident())
        counts.add(threading.active_count())
        original(path, data)

    monkeypatch.setattr(tensorio, "write_tensor", recording)
    before = threading.active_count()
    code, _ = run_probmap(tmp_path, cfg_file, [{"range": 6.0}], frames=3)
    assert code == EXIT_OK
    assert len(writers) == 1 and threading.get_ident() not in writers
    # the writer and the FFT worker
    assert max(counts) <= before + 2
    assert threading.active_count() == before


def fail_rd_maps_of(monkeypatch, frame, radars):
    """Make spectral.range_doppler_map raise SpectralError on the cubes of
    ``radars`` in ``frame``."""
    original = spectral.range_doppler_map

    def failing(cube, *args, **kwargs):
        if cube.frame_index == frame and cube.radar_id in radars:
            raise spectral.SpectralError(f"{cube.radar_id} frame {frame} fails")
        return original(cube, *args, **kwargs)

    monkeypatch.setattr(spectral, "range_doppler_map", failing)


@pytest.mark.parametrize("radars, reported", [
    (("vertical",), "vertical frame 1 fails"),
    (("horizontal", "vertical"), "horizontal frame 1 fails"),
])
def test_probmap_rd_map_error_stops_at_that_frame_in_serial_order(
    tmp_path, cfg_file, monkeypatch, capsys, radars, reported
):
    fail_rd_maps_of(monkeypatch, 1, radars)
    before = threading.active_count()
    code, _ = run_probmap(tmp_path, cfg_file, [{"range": 6.0}], frames=3)
    assert code == EXIT_CONTRACT
    assert f"contract violation: {reported}\n" in capsys.readouterr().err
    assert sorted(outputs_written(tmp_path, "out")) == [
        "out.bins.f0000.json", "out.enc.f0000.tensor", "out.prob.f0000.tensor",
    ]
    assert threading.active_count() == before


# 64x16x8 cubes: one frame is 32 KiB of int16 and 128 KiB of complex128
CUBE_BYTES = 64 * 16 * 8 * 16
# one frame of the 32x8x4 captures CONFIG describes, as int16 re/im pairs
FRAME_BYTES = 32 * 8 * 4 * 4


def simulate_64_frames(tmp_path):
    """Config path and the argv simulating 64 frames of both radars at 64x16x8."""
    cfg = tmp_path / "radar.cfg"
    cfg.write_text(
        CONFIG.replace("num_adc_samples = 32", "num_adc_samples = 64")
        .replace("num_chirps = 8", "num_chirps = 16")
        .replace("num_rx = 2", "num_rx = 4")
    )
    scene = write_scene(tmp_path, targets=[{"range": 6.0}], snr_db=20)
    argv = ["simulate", scene, "--config", str(cfg), "--output", str(tmp_path / "cap.bin"),
            "--radar", "both", "--frames", "64"]
    return cfg, argv


def traced_peak(argv):
    """Exit code and tracemalloc peak bytes of one cli.main call."""
    tracemalloc.start()
    try:
        code = main(argv)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return code, peak


def test_simulate_memory_is_bounded_by_a_few_frames(tmp_path):
    _, argv = simulate_64_frames(tmp_path)
    # a one-frame run first, so lazy imports (numpy.random) are not traced
    assert main(argv[:-1] + ["1"]) == EXIT_OK
    code, peak = traced_peak(argv)
    assert code == EXIT_OK
    # one cube, its noise draws and int16 lanes, plus the one reused 1 MiB
    # buffer the manifest reads the scene and config through (the captures'
    # digests come from the frames as written); holding the whole capture as
    # cubes would take 2 x 64 cubes and their scaled copies
    assert peak < (1 << 20) + 8 * CUBE_BYTES


def test_heatmap_memory_is_bounded_by_output_and_a_few_frames(tmp_path):
    cfg, argv = simulate_64_frames(tmp_path)
    assert main(argv) == EXIT_OK
    out = tmp_path / "maps.tensor"
    code, peak = traced_peak(["heatmap", str(tmp_path / "cap.h.bin"), "--config", str(cfg),
                              "--output", str(out), "--branch", "rd"])
    assert code == EXIT_OK
    output_bytes = 64 * CUBE_BYTES
    assert read_tensor(out).nbytes == output_bytes
    # stacking a list of per-frame maps would add a second copy of the output,
    # and holding the capture 16 cubes' worth of int16
    assert peak < output_bytes + 8 * CUBE_BYTES


def test_probmap_memory_is_bounded_by_a_few_frames(tmp_path):
    cfg, argv = simulate_64_frames(tmp_path)
    assert main(argv) == EXIT_OK
    capture_bytes = sum((tmp_path / f"cap.{r}.bin").stat().st_size for r in "hv")
    assert capture_bytes == 2 * 64 * CUBE_BYTES // 4
    code, peak = traced_peak([
        "probmap", str(tmp_path / "cap.h.bin"), str(tmp_path / "cap.v.bin"),
        "--config", str(cfg), "--output", str(tmp_path / "out"), "--pe-depth", "8",
    ])
    assert code == EXIT_OK
    # one frame pair, its RD maps, FFT temporaries and the previous pair come
    # to about 9 cubes, alongside the writer thread's 1 MiB buffer hashing the
    # captures; holding both captures would add 32 cubes of int16, and parsing
    # them whole 2 x 64 cubes
    assert peak < (1 << 20) + 12 * CUBE_BYTES


def test_fuse_zero_identity_and_commutation(tmp_path, rng):
    a, z = tmp_path / "a.tensor", tmp_path / "z.tensor"
    x = rng.standard_normal((3, 4, 4))
    write_tensor(a, x)
    write_tensor(z, np.zeros((3, 4, 4)))
    out1, out2 = tmp_path / "o1.tensor", tmp_path / "o2.tensor"
    assert main(["fuse", str(a), str(z), "--output", str(out1)]) == EXIT_OK
    np.testing.assert_array_equal(read_tensor(out1), x)
    assert main(["fuse", str(z), str(a), "--output", str(out2)]) == EXIT_OK
    assert sha256_file(out1) == sha256_file(out2)


def test_fuse_random_pair_sum(tmp_path, rng):
    a, b = rng.standard_normal((2, 3)), rng.standard_normal((2, 3))
    write_tensor(tmp_path / "a.tensor", a)
    write_tensor(tmp_path / "b.tensor", b)
    out = tmp_path / "o.tensor"
    main(["fuse", str(tmp_path / "a.tensor"), str(tmp_path / "b.tensor"), "--output", str(out)])
    np.testing.assert_array_equal(read_tensor(out), a + b)


def test_fuse_shape_mismatch_exits_4(tmp_path):
    write_tensor(tmp_path / "a.tensor", np.zeros((2, 2)))
    write_tensor(tmp_path / "b.tensor", np.zeros((2, 3)))
    assert main([
        "fuse", str(tmp_path / "a.tensor"), str(tmp_path / "b.tensor"),
        "--output", str(tmp_path / "o.tensor"),
    ]) == EXIT_CONTRACT


def test_fuse_unsupported_tensor_version_exits_3(tmp_path, capsys):
    good = tmp_path / "a.tensor"
    write_tensor(good, np.zeros(3))
    raw = bytearray(good.read_bytes())
    raw[len(MAGIC)] = 2
    bad = tmp_path / "b.tensor"
    bad.write_bytes(bytes(raw))
    assert main(["fuse", str(good), str(bad), "--output", str(tmp_path / "o.tensor")]) == EXIT_DATA
    assert "unsupported version 2" in capsys.readouterr().err
    assert outputs_written(tmp_path, "o") == []


def test_eval_perfect_prediction(tmp_path):
    doc = [keypoint_doc()]
    for name in ("pred.json", "gt.json"):
        (tmp_path / name).write_text(json.dumps(doc))
    out = tmp_path / "metrics.json"
    assert main([
        "eval", str(tmp_path / "pred.json"), str(tmp_path / "gt.json"),
        "--output", str(out),
    ]) == EXIT_OK
    metrics = json.loads(out.read_text())
    assert metrics["AP"] == metrics["AP50"] == metrics["AP75"] == 1.0


def test_eval_known_oks_fixture(tmp_path):
    # displace the head joint to hit OKS near 0.62 and 0.82 in two frames;
    # those pass 3 and 7 of the ten thresholds, so AP = 0.5 while AP50 = 1
    area, sigma = 100.0, DEFAULT_SIGMAS[0]
    gt_frames, pred_frames = [], []
    for target_oks in (0.62, 0.82):
        d = float(np.sqrt(-2.0 * area * sigma ** 2 * np.log(target_oks)))
        gt = keypoint_doc()
        gt["joints"] = [dict(j, v=(1 if j["name"] == "head" else 0)) for j in gt["joints"]]
        pred = json.loads(json.dumps(gt))
        pred["joints"][0]["x"] += d
        gt_frames.append(gt)
        pred_frames.append(pred)
    (tmp_path / "gt.json").write_text(json.dumps(gt_frames))
    (tmp_path / "pred.json").write_text(json.dumps(pred_frames))
    out = tmp_path / "metrics.json"
    assert main([
        "eval", str(tmp_path / "pred.json"), str(tmp_path / "gt.json"),
        "--output", str(out),
    ]) == EXIT_OK
    metrics = json.loads(out.read_text())
    assert metrics["AP50"] == 1.0
    assert metrics["AP75"] == 0.5
    assert metrics["AP"] == 0.5


@pytest.mark.filterwarnings("error")  # numpy's RuntimeWarnings included
def test_eval_prediction_past_float_range_scores_that_joint_0(tmp_path):
    # the head's squared distance overflows float64; its OKS term is 0, as
    # for a head 1e6 px off
    gt = tmp_path / "gt.json"
    gt.write_text(json.dumps([keypoint_doc()]))
    metrics = {}
    for offset in (1e308, 1e6):
        pred = tmp_path / "pred.json"
        pred.write_text(json.dumps([keypoint_doc({"head": offset})]))
        out = tmp_path / f"metrics-{offset:g}.json"
        assert main(["eval", str(pred), str(gt), "--output", str(out)]) == EXIT_OK
        metrics[offset] = out.read_bytes()
    assert metrics[1e308] == metrics[1e6]
    assert json.loads(metrics[1e308])["per_frame_oks"] == [13 / 14]


def test_eval_without_output_prints_the_metrics_and_writes_no_manifest(tmp_path, capsys):
    pred, gt = write_head_only_pair(tmp_path, 1.0)
    out = tmp_path / "metrics.json"
    assert main(["eval", pred, gt, "--output", str(out)]) == EXIT_OK
    before = set(tmp_path.iterdir())
    assert main(["eval", pred, gt]) == EXIT_OK
    assert capsys.readouterr().out == out.read_text()
    assert set(tmp_path.iterdir()) == before


def write_head_only_pair(tmp_path, d, area=100.0):
    """pred/gt files of one frame whose only visible joint is the head, moved by d."""
    gt = keypoint_doc()
    gt["area"] = area
    gt["joints"] = [dict(j, v=(1 if j["name"] == "head" else 0)) for j in gt["joints"]]
    pred = json.loads(json.dumps(gt))
    pred["joints"][0]["x"] += d
    (tmp_path / "gt.json").write_text(json.dumps([gt]))
    (tmp_path / "pred.json").write_text(json.dumps([pred]))
    return str(tmp_path / "pred.json"), str(tmp_path / "gt.json")


def test_eval_oks_config_sets_named_sigmas_only(tmp_path):
    # OKS = exp(-d^2 / (2 area sigma^2)) with one visible joint: d chosen for
    # exp(-1) at sigma_head = 0.05, which the default 0.026 would not give
    area, sigma = 100.0, 0.05
    pred, gt = write_head_only_pair(tmp_path, float(np.sqrt(2.0 * area * sigma ** 2)), area)
    oks_cfg = tmp_path / "oks.cfg"
    oks_cfg.write_text("# head only\n\nsigma_head = 0.05\n")
    out = tmp_path / "metrics.json"
    assert main(["eval", pred, gt, "--oks-config", str(oks_cfg), "--output", str(out)]) == EXIT_OK
    (value,) = json.loads(out.read_text())["per_frame_oks"]
    assert value == pytest.approx(np.exp(-1.0), rel=1e-12)
    manifest = json.loads((tmp_path / "metrics.json.manifest.json").read_text())
    assert str(oks_cfg) in manifest["inputs"]
    assert main(["eval", pred, gt, "--output", str(out)]) == EXIT_OK
    (default,) = json.loads(out.read_text())["per_frame_oks"]
    assert default == pytest.approx(np.exp(-(sigma / DEFAULT_SIGMAS[0]) ** 2), rel=1e-12)


@pytest.mark.parametrize("text, message", [
    ("sigma_head = 0.05\nsigma_head = 0.06\n", "line 2: duplicate key 'sigma_head'"),
    ("sigma_neck = 0.05\nsigma_head 0.06\n", "line 2: expected 'key = value'"),
    ("sigma_nose = 0.05\n", "line 1: unknown key 'sigma_nose'"),
    ("sigma_head = wide\n", "line 1: bad value for 'sigma_head'"),
    ("sigma_head = nan\n", "sigmas must be 14 finite values > 0"),
    (json.dumps(list(DEFAULT_SIGMAS)), "line 1: expected 'key = value'"),
], ids=["duplicate", "no_equals", "unknown_key", "bad_value", "nan", "json_list"])
def test_eval_bad_oks_config_exits_3(tmp_path, capsys, text, message):
    pred, gt = write_head_only_pair(tmp_path, 1.0)
    oks_cfg = tmp_path / "oks.cfg"
    oks_cfg.write_text(text)
    assert main(["eval", pred, gt, "--oks-config", str(oks_cfg)]) == EXIT_DATA
    assert message in capsys.readouterr().err


def test_eval_missing_joint_exits_3(tmp_path):
    doc = keypoint_doc()
    doc["joints"] = doc["joints"][1:]
    (tmp_path / "pred.json").write_text(json.dumps([doc]))
    (tmp_path / "gt.json").write_text(json.dumps([keypoint_doc()]))
    assert main([
        "eval", str(tmp_path / "pred.json"), str(tmp_path / "gt.json"),
    ]) == EXIT_DATA


BIG = 10 ** 400  # a 401-digit JSON integer: finite as an int, too large for a float


def write_json(path, doc):
    """Write ``doc`` as JSON (json writes nan and inf as NaN and Infinity), or
    as it is if it is already text."""
    path.write_text(doc if isinstance(doc, str) else json.dumps(doc))


@pytest.mark.parametrize("doc, message", [
    ({"targets": 5}, "scene targets: expected a list"),
    ({"targets": [{"range": "far"}]}, "target 0 range: expected a finite number, got 'far'"),
    ({"targets": [{"range": -1}]}, "range must be > 0"),
    ({"targets": [{"range": 1.0, "azimuth": 2.0}]}, "azimuth and elevation must be within"),
    ({"noise_seed": -1}, "noise_seed must be >= 0"),
    ([], "scene: expected a JSON object"),
    ({"targets": [{"azimuth": 0.1}]}, "target 0: missing keys ['range']"),
    ({"noise_seed": 1.5}, "scene noise_seed: expected an integer, got 1.5"),
    ({"targets": [{"range": 1.0}], "snr_db": float("nan")}, "scene snr_db: expected a finite"),
    ({"targets": [{"range": float("inf")}]}, "target 0 range: expected a finite number"),
    ({"targets": [{"range": BIG}]}, "target 0 range: expected a finite number"),
    ({"targets": [{"range": 1.0}], "snr_db": BIG}, "scene snr_db: expected a finite number"),
    ({"targets": [{"range": 1.0, "rcs_amplitude": BIG}]}, "target 0 rcs_amplitude: expected"),
    ({"targets": [{"range": 1.0, "radial_velocity": BIG}]}, "target 0 radial_velocity: expected"),
    ({"target": [{"range": 3.0}]}, "scene: unknown key 'target'"),
    ({"targets": [{"range": 3.0, "azimuth_deg": 10}]}, "target 0: unknown key 'azimuth_deg'"),
    ('{"targets": [{"range": 3.0, "range": 4.0}]}', "scene: repeated keys ['range']"),
    ({"targets": [{"range": 1.0}], "snr_db": True}, "scene snr_db: expected a finite number"),
    ({"targets": [{"range": 1.0}], "snr_db": -4000}, "snr_db -4000 "),
    ({"targets": [{"range": 1.0}], "snr_db": -1e300}, "snr_db -1e+300 "),
    ({"targets": [{"range": 1.0}], "snr_db": 1e300}, "snr_db 1e+300 "),
    ({"targets": [{"range": 1.0, "rcs_amplitude": 1e200}], "snr_db": 10}, "rcs_amplitude 1e+200 "),
    # finite, but the beat or Doppler phase they give on a 32x8x4 config is not
    ({"targets": [{"range": 1e308}]}, "target 0 range: 1e+308 gives a phase that is not finite"),
    ({"targets": [{"range": 1e300}]}, "target 0 range: 1e+300 gives a phase that is not finite"),
    ({"targets": [{"range": 1.0, "radial_velocity": 1e308}]},
     "target 0 radial_velocity: 1e+308 gives a phase that is not finite"),
], ids=[f"doc{i}" for i in range(10)] + [
    "range_401_digits", "snr_db_401_digits", "rcs_amplitude_401_digits",
    "radial_velocity_401_digits", "key_target", "key_azimuth_deg", "repeated_key", "snr_db_true",
    "snr_db_-4000", "snr_db_-1e300", "snr_db_1e300", "rcs_amplitude_1e200_snr_db_10",
    "range_1e308", "range_1e300", "radial_velocity_1e308",
])
@pytest.mark.filterwarnings("error")  # numpy's RuntimeWarnings included
def test_simulate_malformed_scene_exits_3(tmp_path, cfg_file, capsys, doc, message):
    scene = tmp_path / "scene.json"
    write_json(scene, doc)
    assert main([
        "simulate", str(scene), "--config", cfg_file, "--output", str(tmp_path / "cap.bin"),
    ]) == EXIT_DATA
    err = capsys.readouterr().err
    assert "data error: " in err and message in err
    # reported as a scene fault, not as the int16 overflow a NaN would cause later
    assert "scale" not in err and "warning" not in err
    assert outputs_written(tmp_path, "cap") == []


def with_joint(**values):
    """A keypoint frame whose head joint takes ``values``."""
    doc = keypoint_doc()
    doc["joints"][0].update(values)
    return doc


def with_extra_joint(name):
    """A keypoint frame with one more joint called ``name`` at (0, 0)."""
    doc = keypoint_doc()
    doc["joints"].append({"name": name, "x": 0.0, "y": 0.0, "v": 1})
    return doc


@pytest.mark.parametrize("frames, message", [
    ([{"joints": 3, "area": 1}], "frame 0 joints: expected a list, got 3"),
    ([with_joint(name=5)], "frame 0 joint 0 name: expected a string, got 5"),
    ([with_joint(x="a")], "frame 0 joint head x: expected a finite number, got 'a'"),
    ([with_joint(v=2)], "frame 0 joint head v: expected 0 or 1, got 2"),
    ([dict(keypoint_doc(), area=0)], "frame 0 area: must be > 0"),
    (5, "expected a keypoint frame or a list of frames"),
    ([keypoint_doc(), keypoint_doc()], "frame count mismatch"),
    ([with_joint(x=float("nan"))], "frame 0 joint head x: expected a finite number, got nan"),
    ([with_joint(y=float("inf"))], "frame 0 joint head y: expected a finite number, got inf"),
    ([dict(keypoint_doc(), area=float("nan"))], "frame 0 area: expected a finite number"),
    ([dict(keypoint_doc(), area=float("inf"))], "frame 0 area: expected a finite number"),
    ([with_joint(v=0.9)], "frame 0 joint head v: expected an integer, got 0.9"),
    ([with_joint(v=True)], "frame 0 joint head v: expected an integer, got True"),
    ([with_joint(v="1")], "frame 0 joint head v: expected an integer, got '1'"),
    ([with_joint(x=True)], "frame 0 joint head x: expected a finite number, got True"),
    ([with_joint(x="12")], "frame 0 joint head x: expected a finite number, got '12'"),
    ([dict(keypoint_doc(), area="100")], "frame 0 area: expected a finite number, got '100'"),
    ([with_joint(x=BIG)], "frame 0 joint head x: expected a finite number"),
    ([dict(keypoint_doc(), area=BIG)], "frame 0 area: expected a finite number"),
    ([with_extra_joint("head")], "frame 0 joint head name: repeated joint 'head'"),
    ([with_extra_joint("nose")], "frame 0 joint 14 name: unknown joint 'nose'"),
    ([dict(keypoint_doc(), frame=1.5)], "frame 0 frame: expected an integer, got 1.5"),
    ([dict(keypoint_doc(), score=0.9)], "frame 0: unknown key 'score'"),
    (json.dumps([keypoint_doc()]).replace('"area": 100.0', '"area": 100.0, "area": 1.0'),
     "repeated keys ['area']"),
], ids=["joints_not_list", "name_not_str", "x_not_number", "v_2", "area_0", "json_number",
        "frame_count", "x_nan", "y_inf", "area_nan", "area_inf", "v_0_9", "v_true", "v_str",
        "x_true", "x_str", "area_str", "x_401_digits", "area_401_digits", "repeated_joint",
        "unknown_joint", "frame_float", "unknown_key", "repeated_key"])
def test_eval_malformed_frames_exit_3(tmp_path, capsys, frames, message):
    bad, good = tmp_path / "bad.json", tmp_path / "good.json"
    write_json(bad, frames)
    # a prediction whose head is 5 px off: a ground truth that dropped the
    # head would score OKS 1.0 against it
    write_json(good, [keypoint_doc({"head": 5.0})])
    for pred, gt in ((bad, good), (good, bad)):
        assert main(["eval", str(pred), str(gt), "--output", str(tmp_path / "m.json")]) == EXIT_DATA
        err = capsys.readouterr().err
        assert "data error: " in err and message in err
        assert outputs_written(tmp_path, "m") == []


def test_simulate_int16_overflow_exits_3_and_writes_nothing(tmp_path, cfg_file, capsys):
    # amplitude 40 at the default scale 1000 peaks at 40000 > 32767
    scene = write_scene(tmp_path, targets=[{"range": 5.0, "rcs_amplitude": 40}])
    before = set(tmp_path.iterdir())
    assert main([
        "simulate", scene, "--config", cfg_file, "--output", str(tmp_path / "cap.bin"),
        "--radar", "both",
    ]) == EXIT_DATA
    assert set(tmp_path.iterdir()) == before
    err = capsys.readouterr().err
    assert "frame 0: peak value 40000" in err and "--scale" in err
    assert main([
        "simulate", scene, "--config", cfg_file, "--output", str(tmp_path / "cap.bin"),
        "--radar", "both", "--scale", "500",
    ]) == EXIT_OK


def test_simulate_failing_frame_leaves_no_capture(tmp_path, cfg_file, monkeypatch):
    scene = write_scene(tmp_path, targets=[{"range": 5.0}], snr_db=20)
    original = sim.synth_frame

    def failing(spec, config, radar_id="horizontal", frame_index=0):
        if radar_id == "vertical" and frame_index == 2:
            raise sim.SimError("injected failure")
        return original(spec, config, radar_id=radar_id, frame_index=frame_index)

    monkeypatch.setattr(sim, "synth_frame", failing)
    (tmp_path / "cap.h.bin").write_bytes(b"old")
    before = {p: p.read_bytes() for p in tmp_path.iterdir()}
    assert main([
        "simulate", scene, "--config", cfg_file, "--output", str(tmp_path / "cap.bin"),
        "--radar", "both", "--frames", "4",
    ]) == EXIT_CONTRACT
    # no partial capture, and the capture that was there is untouched
    assert {p: p.read_bytes() for p in tmp_path.iterdir()} == before


def test_simulate_prints_each_alias_warning_once_per_run(tmp_path, capsys):
    cfg = tmp_path / "radar.cfg"
    cfg.write_text(CONFIG.replace("num_tx = 2", "num_tx = 1").replace("num_rx = 2", "num_rx = 4"))
    scene = write_scene(tmp_path, targets=[{"range": 100.0}])
    assert main([
        "simulate", scene, "--config", str(cfg), "--output", str(tmp_path / "cap.bin"),
        "--radar", "both", "--frames", "4",
    ]) == EXIT_OK
    lines = capsys.readouterr().err.splitlines()
    assert sum("beat frequency aliases" in line for line in lines) == 1


@pytest.mark.parametrize("flag, value", [
    ("--frames", "0"), ("--scale", "0"), ("--scale", "-1"), ("--scale", "nan"), ("--scale", "inf"),
])
def test_simulate_bad_frames_or_scale_exits_4(tmp_path, cfg_file, flag, value):
    scene = write_scene(tmp_path, targets=[{"range": 5.0}])
    assert main([
        "simulate", scene, "--config", cfg_file, "--output", str(tmp_path / "cap.bin"),
        flag, value,
    ]) == EXIT_CONTRACT
    assert outputs_written(tmp_path, "cap") == []


FRAME_BYTES = 32 * 8 * 4 * 4  # CONFIG: samples x chirps x virtual antennas x int16 re|im
FUZZ = settings(max_examples=40, deadline=None,
                suppress_health_check=[HealthCheck.function_scoped_fixture])


@FUZZ
@given(frames=st.integers(0, 2), extra=st.integers(-FRAME_BYTES + 1, FRAME_BYTES - 1),
       command=st.sampled_from(["heatmap", "probmap"]))
def test_misaligned_capture_exits_3(tmp_path, cfg_file, frames, extra, command):
    size = frames * FRAME_BYTES + extra
    assume(size == 0 or size > 0 and size % FRAME_BYTES)
    cap = tmp_path / "cap.bin"
    cap.write_bytes(np.random.default_rng(size).bytes(size))
    good = tmp_path / "good.bin"
    good.write_bytes(bytes(FRAME_BYTES))
    inputs = [str(cap)] if command == "heatmap" else [str(good), str(cap)]
    out = tmp_path / "o"
    assert main([command, *inputs, "--config", cfg_file, "--output", str(out)]) == EXIT_DATA
    assert outputs_written(tmp_path) == []


@FUZZ
@given(text=st.binary(max_size=200))
def test_malformed_config_exits_2_or_3(tmp_path, text):
    cfg = tmp_path / "bad.cfg"
    cfg.write_bytes(text)
    cap = tmp_path / "cap.bin"
    cap.write_bytes(bytes(FRAME_BYTES))
    code = main(["heatmap", str(cap), "--config", str(cfg), "--output", str(tmp_path / "o")])
    assert code in (EXIT_USAGE, EXIT_DATA)
    assert outputs_written(tmp_path) == []


@FUZZ
@given(shape=st.lists(st.one_of(st.integers(0, 3), st.integers(0, 2**64 - 1)), max_size=70),
       tag=st.integers(0, 2), payload=st.binary(max_size=40))
def test_malformed_tensor_exits_3(tmp_path, shape, tag, payload):
    count = int(np.prod(shape, dtype=object)) if shape else 1
    assume(tag == 2 or len(payload) != count * 8 * (1 + tag))
    bad = tmp_path / "bad.tensor"
    bad.write_bytes(MAGIC + bytes([1, len(shape)]) + b"".join(
        n.to_bytes(8, "little") for n in shape) + bytes([tag]) + payload)
    good = tmp_path / "good.tensor"
    write_tensor(good, np.zeros(3))
    code = main(["fuse", str(good), str(bad), "--output", str(tmp_path / "o.tensor")])
    assert code == EXIT_DATA
    assert outputs_written(tmp_path) == []


# JSON values of every kind: integers past 2**64 and past the float range,
# NaN and +-Infinity, and objects whose keys are often scene or keypoint keys
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.integers(-BIG, BIG) | st.floats()
    | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(
        st.sampled_from(["targets", "range", "snr_db", "joints", "name", "x", "v", "area"])
        | st.text(max_size=8), inner, max_size=4),
    max_leaves=12,
)
SCENE = {
    "targets": [{"range": 3.0, "radial_velocity": 0.5, "azimuth": 0.3, "elevation": -0.2,
                 "rcs_amplitude": 1.0}],
    "snr_db": 20.0, "noise_seed": 1,
}
SCENE_FIELDS = [("targets",), ("snr_db",), ("noise_seed",), ("targets", 0)] + [
    ("targets", 0, key) for key in SCENE["targets"][0]]
FRAME_FIELDS = [("joints",), ("area",), ("frame",), ("joints", 0)] + [
    ("joints", 0, key) for key in ("name", "x", "y", "v")]


def assert_json_inputs_exit_0_or_3(tmp_path, cfg_file, scene, frames):
    """simulate on ``scene``, and eval of ``frames`` against a valid ground
    truth, each exit 0 or 3; exit 3 leaves no capture, .part or metrics file."""
    write_json(tmp_path / "scene.json", scene)
    write_json(tmp_path / "pred.json", frames)
    write_json(tmp_path / "gt.json", [keypoint_doc()])
    for argv in (
        ["simulate", str(tmp_path / "scene.json"), "--config", cfg_file,
         "--output", str(tmp_path / "out.bin")],
        ["eval", str(tmp_path / "pred.json"), str(tmp_path / "gt.json"),
         "--output", str(tmp_path / "out.json")],
    ):
        code = main(argv)
        assert code in (EXIT_OK, EXIT_DATA)
        written = [tmp_path / name for name in outputs_written(tmp_path, "out")]
        assert code == EXIT_OK or written == []
        for path in written:  # tmp_path is shared by every example
            path.unlink()


@FUZZ
@given(doc=JSON_VALUES)
def test_arbitrary_json_scene_or_keypoints_exits_0_or_3(tmp_path, cfg_file, doc):
    assert_json_inputs_exit_0_or_3(tmp_path, cfg_file, doc, doc)


@FUZZ
@given(scene_field=st.sampled_from(SCENE_FIELDS), frame_field=st.sampled_from(FRAME_FIELDS),
       value=JSON_VALUES)
def test_json_field_replaced_exits_0_or_3(tmp_path, cfg_file, scene_field, frame_field, value):
    scene, frame = json.loads(json.dumps(SCENE)), keypoint_doc()
    for node, (*parents, last) in ((scene, scene_field), (frame, frame_field)):
        for key in parents:
            node = node[key]
        node[last] = value
    assert_json_inputs_exit_0_or_3(tmp_path, cfg_file, scene, [frame])
