"""Benchmark workloads and their seeded inputs.

Each workload fixes a radar config, a frame count and the CLI command the
benchmark times. Inputs come from a body-shaped scene of 14 point
scatterers drawn from the seed and are written in the raw-ADC capture
format by this module's own closed-form generator, so a change to
``radarpose.sim`` or ``radarpose.adc.serialize_*`` cannot change the inputs
the other workloads read.

Scene rules that keep every seed comparable and every check valid:

- Ranges sit exactly on range-FFT bins and the body spans the same five
  bins on every seed, so the detected range-bin count, and with it the
  output size, does not depend on the seed.
- Radial velocities keep |f_d * T_c| <= 0.4, inside the unambiguous Doppler
  range, so the closed-form Doppler bins hold.
- The chest, the strongest return, sits on a Doppler bin that
  ``heatmap --doppler-keep 16`` retains, so its peak survives sampling.
"""

from __future__ import annotations

import json
import math
import shutil
from dataclasses import dataclass
from pathlib import Path

import numpy as np

SPEED_OF_LIGHT = 299_792_458.0
ADC_SCALE = 3000.0      # scene amplitude -> int16 counts
LANES = 4               # default capture layout: 2 real then 2 imaginary int16
SNR_DB = 10.0           # per-sample SNR of the strongest return
PE_DEPTH = 32           # probmap default
HEATMAP_DOPPLER_KEEP = 16
HEATMAP_DOPPLER_WINDOW = 0.5
GENERATOR_VERSION = 1   # bump when the generated bytes change; keys the input cache
CACHE_ENTRIES = 8

SMALL = {
    "num_adc_samples": 64, "num_chirps": 16, "num_tx": 2, "num_rx": 4,
    "sample_rate": 1e7, "chirp_slope": 1.2e14, "carrier_freq": 7.7e10,
    "frame_rate": 10.0, "chirp_period": 1e-4,
}
LARGE = {
    "num_adc_samples": 256, "num_chirps": 64, "num_tx": 3, "num_rx": 4,
    "sample_rate": 1e7, "chirp_slope": 3e13, "carrier_freq": 7.7e10,
    "frame_rate": 10.0, "chirp_period": 1e-4,
}
PLANAR = dict(LARGE, azimuth_antennas=4, elevation_antennas=3)


@dataclass(frozen=True)
class Workload:
    name: str
    command: str          # probmap | heatmap | simulate
    config: dict
    frames: int
    why: str

    @property
    def radars(self) -> tuple[str, ...]:
        return ("horizontal",) if self.command == "heatmap" else ("horizontal", "vertical")

    @property
    def radar_frames(self) -> int:
        """Radar-frames one invocation completes (one radar x one frame index)."""
        return self.frames * len(self.radars)


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "probmap_large", "probmap", LARGE, 32,
            "ROADMAP large size, both radars: parse and the range-Doppler FFT dominate",
        ),
        Workload(
            "probmap_small", "probmap", SMALL, 256,
            "test scale, 256 frames: per-frame fixed costs, CFAR, tensor writes and hashing dominate",
        ),
        Workload(
            "heatmap_planar", "heatmap", PLANAR, 32,
            "4x3 planar array: the only path through fft4d, elevation averaging and Doppler sampling",
        ),
        Workload(
            "simulate_both", "simulate", LARGE, 8,
            "simulator and ADC serializer, large size: the only workload running sim and adc writes",
        ),
    )
}


# name, lateral x (m), vertical z (m), range offset (bins), amplitude, torso?
BODY = (
    ("chest", 0.00, 0.35, 0, 1.00, True),
    ("abdomen", 0.00, 0.10, 1, 0.60, True),
    ("pelvis", 0.00, -0.10, 2, 0.50, True),
    ("head", 0.00, 0.70, -1, 0.30, False),
    ("l_shoulder", -0.20, 0.45, 0, 0.30, False),
    ("r_shoulder", 0.20, 0.45, 0, 0.30, False),
    ("l_elbow", -0.30, 0.20, -1, 0.25, False),
    ("r_elbow", 0.30, 0.20, -1, 0.25, False),
    ("l_wrist", -0.35, 0.00, -2, 0.20, False),
    ("r_wrist", 0.35, 0.00, -2, 0.20, False),
    ("l_knee", -0.10, -0.50, 1, 0.25, False),
    ("r_knee", 0.10, -0.50, 1, 0.25, False),
    ("l_ankle", -0.10, -0.90, 2, 0.20, False),
    ("r_ankle", 0.10, -0.90, 2, 0.20, False),
)


@dataclass(frozen=True)
class Scatterer:
    name: str
    range_m: float
    radial_velocity: float
    azimuth: float    # radians
    elevation: float  # radians
    amplitude: float


def next_pow2(n: int) -> int:
    return 1 if n <= 1 else 1 << (n - 1).bit_length()


def array_shape(cfg: dict) -> tuple[int, int]:
    """(P, Q) virtual-array grid; virtual antenna v sits at p = v // Q, q = v % Q."""
    virtual = cfg["num_tx"] * cfg["num_rx"]
    return cfg.get("azimuth_antennas") or virtual, cfg.get("elevation_antennas", 1)


def slow_time_step(cfg: dict) -> float:
    """Time between chirps of one virtual antenna (one chirp index step)."""
    return cfg["chirp_period"] * cfg["num_tx"]


def range_resolution(cfg: dict) -> float:
    return SPEED_OF_LIGHT * cfg["sample_rate"] / (
        2.0 * cfg["chirp_slope"] * next_pow2(cfg["num_adc_samples"])
    )


def doppler_step(cfg: dict, velocity: float) -> float:
    """f_d * T_c, the Doppler phase advance per chirp index in cycles."""
    return 2.0 * velocity * cfg["carrier_freq"] / SPEED_OF_LIGHT * slow_time_step(cfg)


def velocity_for_step(cfg: dict, step: float) -> float:
    return step * SPEED_OF_LIGHT / (2.0 * cfg["carrier_freq"] * slow_time_step(cfg))


def make_scene(cfg: dict, seed: int) -> list[Scatterer]:
    """Body-shaped scene for one seed; the seed moves and turns the body."""
    rng = np.random.default_rng([GENERATOR_VERSION, seed])
    m_fft = next_pow2(cfg["num_chirps"])
    center_bin = int(rng.integers(10, 21))
    center_m = center_bin * range_resolution(cfg)
    body_az = rng.uniform(-0.4, 0.4)
    body_el = rng.uniform(-0.15, 0.15)
    # chest on an odd Doppler offset: heatmap --doppler-keep 16 keeps odd offsets
    chest_step = int(rng.choice([-5, -3, -1, 1, 3, 5])) / m_fft
    scene = []
    for name, x, z, offset, amp, torso in BODY:
        if name == "chest":
            step = chest_step
        elif torso:
            step = chest_step + rng.uniform(0.02, 0.1) * rng.choice([-1.0, 1.0])
        else:
            step = rng.uniform(-0.4, 0.4)
            amp = amp * rng.uniform(0.9, 1.1)
        scene.append(Scatterer(
            name=name,
            range_m=(center_bin + offset) * range_resolution(cfg),
            radial_velocity=velocity_for_step(cfg, step),
            azimuth=body_az + math.atan2(x, center_m),
            elevation=body_el + math.atan2(z, center_m),
            amplitude=amp,
        ))
    return scene


def expected_bins(t: Scatterer, cfg: dict, fft_lengths) -> tuple[int, int, int, int]:
    """Closed-form (range, centered Doppler, azimuth, elevation) peak bins."""
    n_fft, m_fft, a_fft, e_fft = fft_lengths
    beat = 2.0 * cfg["chirp_slope"] * t.range_m / SPEED_OF_LIGHT
    range_bin = round(beat * n_fft / cfg["sample_rate"]) % n_fft
    doppler_bin = (m_fft // 2 + round(doppler_step(cfg, t.radial_velocity) * m_fft)) % m_fft
    spacing = 0.5
    az_bin = round(a_fft * spacing * math.sin(t.azimuth)) % a_fft
    el_bin = round(e_fft * spacing * math.sin(t.elevation)) % e_fft
    return range_bin, doppler_bin, az_bin, el_bin


def frame_cube(scene, cfg: dict, radar: str, frame: int, seed: int) -> np.ndarray:
    """Noisy (sample, chirp, virtual antenna) cube in scene amplitude units.

    The target signal is separable per scatterer: a range phasor over
    samples, a Doppler phasor over chirps and a steering phasor over the
    virtual array, so the cube is one matrix product over scatterers.
    """
    n = np.arange(cfg["num_adc_samples"])
    m = np.arange(cfg["num_chirps"])
    p_count, q_count = array_shape(cfg)
    v = np.arange(p_count * q_count)
    p, q = v // q_count, v % q_count
    frame_time = frame * cfg["num_chirps"] * slow_time_step(cfg)
    rows_rm, rows_v = [], []
    for t in scene:
        beat = 2.0 * cfg["chirp_slope"] * t.range_m / SPEED_OF_LIGHT
        step = doppler_step(cfg, t.radial_velocity)
        a1, a2 = (t.azimuth, t.elevation) if radar == "horizontal" else (t.elevation, t.azimuth)
        # the target keeps moving between frames: its phase advances by f_d * frame time
        start = step / slow_time_step(cfg) * frame_time
        r = np.exp(2j * np.pi * beat * n / cfg["sample_rate"])
        d = np.exp(2j * np.pi * (step * m + start))
        rows_rm.append(t.amplitude * np.outer(r, d).ravel())
        rows_v.append(np.exp(2j * np.pi * 0.5 * (p * math.sin(a1) + q * math.sin(a2))))
    signal = np.asarray(rows_rm).T @ np.asarray(rows_v)
    sigma = math.sqrt(10.0 ** (-SNR_DB / 10.0) / 2.0) * max(t.amplitude for t in scene)
    rng = np.random.default_rng([GENERATOR_VERSION, seed, frame, radar == "vertical"])
    noise = rng.standard_normal((signal.size, 2)) @ np.array([sigma, 1j * sigma])
    cube = signal + noise.reshape(signal.shape)
    return cube.reshape(cfg["num_adc_samples"], cfg["num_chirps"], p_count * q_count)


def capture_bytes(cube: np.ndarray, cfg: dict) -> bytes:
    """One frame in the raw-ADC format, cube values scaled by ADC_SCALE.

    Stream order (chirp, tx, rx, sample) with virtual antenna
    v = tx * num_rx + rx; groups of LANES int16 hold LANES/2 real parts
    then the matching LANES/2 imaginary parts.
    """
    n, m, _ = cube.shape
    stream = cube.reshape(n, m, cfg["num_tx"], cfg["num_rx"]).transpose(1, 2, 3, 0)
    pairs = stream.reshape(-1, LANES // 2) * ADC_SCALE
    groups = np.empty((pairs.shape[0], LANES))
    groups[:, : LANES // 2] = pairs.real
    groups[:, LANES // 2:] = pairs.imag
    return np.rint(groups).astype("<i2").tobytes()


def config_text(cfg: dict) -> str:
    return "".join(f"{k} = {v}\n" for k, v in cfg.items())


def scene_json(scene, seed: int) -> str:
    return json.dumps({
        "targets": [
            {"range": t.range_m, "radial_velocity": t.radial_velocity,
             "azimuth": t.azimuth, "elevation": t.elevation, "rcs_amplitude": t.amplitude}
            for t in scene
        ],
        "snr_db": SNR_DB,
        "noise_seed": seed,
    }, indent=2) + "\n"


def write_capture(path: Path, scene, cfg: dict, radar: str, frames: int, seed: int) -> None:
    with open(path, "wb") as fh:
        for f in range(frames):
            fh.write(capture_bytes(frame_cube(scene, cfg, radar, f, seed), cfg))


def ensure_inputs(wl: Workload, seed: int, cache_root: Path) -> Path:
    """Directory holding the workload's inputs for ``seed``, generated once.

    Files: ``radar.cfg``; ``cap.h.bin``/``cap.v.bin`` with ``wl.frames``
    frames and ``warm.h.bin``/``warm.v.bin`` with one frame (probmap,
    heatmap); ``scene.json`` (simulate). The cache keeps the newest
    CACHE_ENTRIES directories.
    """
    key = cache_root / f"v{GENERATOR_VERSION}-{wl.name}-s{seed}"
    if (key / "done").is_file():
        key.touch()
        return key
    shutil.rmtree(key, ignore_errors=True)
    key.mkdir(parents=True)
    scene = make_scene(wl.config, seed)
    (key / "radar.cfg").write_text(config_text(wl.config))
    if wl.command == "simulate":
        (key / "scene.json").write_text(scene_json(scene, seed))
    else:
        for radar in wl.radars:
            tag = radar[0]
            write_capture(key / f"cap.{tag}.bin", scene, wl.config, radar, wl.frames, seed)
            write_capture(key / f"warm.{tag}.bin", scene, wl.config, radar, 1, seed)
    (key / "done").write_text("")
    entries = sorted(
        (d for d in cache_root.iterdir() if d.is_dir()), key=lambda d: d.stat().st_mtime
    )
    for stale in entries[:-CACHE_ENTRIES]:
        shutil.rmtree(stale, ignore_errors=True)
    return key


def cli_argv(wl: Workload, inputs: Path, out: Path, warm: bool = False) -> list[str]:
    """CLI arguments for one invocation writing under directory ``out``."""
    cfg = str(inputs / "radar.cfg")
    cap = "warm" if warm else "cap"
    if wl.command == "probmap":
        return ["probmap", str(inputs / f"{cap}.h.bin"), str(inputs / f"{cap}.v.bin"),
                "--config", cfg, "--output", str(out / "pm")]
    if wl.command == "heatmap":
        return ["heatmap", str(inputs / f"{cap}.h.bin"), "--config", cfg,
                "--output", str(out / "maps.tensor"), "--branch", "fft",
                "--doppler-keep", str(HEATMAP_DOPPLER_KEEP),
                "--doppler-window", str(HEATMAP_DOPPLER_WINDOW)]
    return ["simulate", str(inputs / "scene.json"), "--config", cfg,
            "--output", str(out / "cap.bin"), "--radar", "both",
            "--frames", "1" if warm else str(wl.frames), "--scale", str(ADC_SCALE)]
