"""Synthetic FMCW point-scatterer simulator with closed-form expected bins.

Idealized stop-and-hop model: per target the sample at (n, chirp m, virtual
antenna v) receives

    A * exp(j*2*pi * (f_b*n/f_s + f_d*m*T_c + spacing*(p*sin(a1) + q*sin(a2))))

with beat frequency f_b = 2*slope*range/c, Doppler f_d = 2*v_r*f_c/c, slow
time step T_c, and (p, q) the virtual antenna's position in the array grid.
a1 is the angle along the radar's P axis (``spectral.P_AXIS_ANGLE``); a2 is
the other angle.

The phase is a sum of a range, a Doppler and a steering term, so the
exponential factors into three 1-D phasors per target t:

    cube[n, m, v] = sum_t A_t * r_t[n] * d_t[m] * s_t[v]

This is the (N*M x T) . (T x V) matrix product of the range-Doppler phasors
r_t[n]*d_t[m] and the steering phasors s_t[v], built from 3*T short 1-D
exponentials instead of T complex exponentials over the whole N x M x V grid.
``synth_frame`` evaluates it one antenna column at a time, with the sum over
targets in scene order, so a scene's cube is bitwise the sum of its targets'
cubes. Noise is then added in place, sigma*a to the real and sigma*b to the
imaginary part, from two ``standard_normal`` draws (a first); this gives the
same values as adding sigma * (a + 1j*b) without the complex temporaries.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .adc import HORIZONTAL, RadarCube
from .config import RadarConfig
from .spectral import AZIMUTH, P_AXIS_ANGLE

SPEED_OF_LIGHT = 299_792_458.0


class SimError(ValueError):
    pass


class SceneError(ValueError):
    """Raised for scene documents of the wrong shape or value types."""


@dataclass(frozen=True)
class Target:
    range_m: float
    radial_velocity: float = 0.0
    azimuth: float = 0.0    # radians
    elevation: float = 0.0  # radians
    rcs_amplitude: float = 1.0

    def __post_init__(self):
        if self.range_m <= 0:
            raise SimError(f"range must be > 0, got {self.range_m}")
        if not (abs(self.azimuth) < math.pi / 2 and abs(self.elevation) < math.pi / 2):
            raise SimError("azimuth and elevation must be within (-pi/2, pi/2)")


def _number(value, what: str):
    finite = isinstance(value, (int, float)) and -math.inf < value < math.inf
    if isinstance(value, bool) or not finite:
        raise SceneError(f"{what} must be a finite number, got {value!r}")
    return value


def _target_from_json(index: int, doc) -> Target:
    if not isinstance(doc, dict) or "range" not in doc:
        raise SceneError(f"target {index} must be an object with a 'range', got {doc!r}")
    return Target(
        range_m=_number(doc["range"], f"target {index} range"),
        **{
            key: _number(doc[key], f"target {index} {key}")
            for key in ("radial_velocity", "azimuth", "elevation", "rcs_amplitude")
            if key in doc
        },
    )


@dataclass(frozen=True)
class SceneSpec:
    targets: tuple[Target, ...] = ()
    snr_db: float | None = None  # None disables noise
    noise_seed: int = 0

    def __post_init__(self):
        if self.noise_seed < 0:
            raise SimError(f"noise_seed must be >= 0, got {self.noise_seed}")

    @staticmethod
    def from_json(text: str) -> "SceneSpec":
        doc = json.loads(text)
        if not isinstance(doc, dict):
            raise SceneError(f"scene must be a JSON object, got {type(doc).__name__}")
        targets = doc.get("targets", [])
        if not isinstance(targets, list):
            raise SceneError(f"targets must be a list, got {type(targets).__name__}")
        snr_db = doc.get("snr_db")
        seed = doc.get("noise_seed", 0)
        if isinstance(seed, bool) or not isinstance(seed, int):
            raise SceneError(f"noise_seed must be an integer, got {seed!r}")
        # a value Target or SceneSpec rejects is a fault of the scene file
        try:
            return SceneSpec(
                targets=tuple(_target_from_json(i, t) for i, t in enumerate(targets)),
                snr_db=None if snr_db is None else _number(snr_db, "snr_db"),
                noise_seed=seed,
            )
        except SimError as exc:
            raise SceneError(str(exc)) from exc

    @staticmethod
    def load(path: str | Path) -> "SceneSpec":
        return SceneSpec.from_json(Path(path).read_text())


def _beat_freq(t: Target, config: RadarConfig) -> float:
    return 2.0 * config.chirp_slope * t.range_m / SPEED_OF_LIGHT


def _doppler_freq(t: Target, config: RadarConfig) -> float:
    return 2.0 * t.radial_velocity * config.carrier_freq / SPEED_OF_LIGHT


def _slow_time_step(config: RadarConfig) -> float:
    # one chirp index step spans all TX firings
    return config.chirp_interval * config.num_tx


def scene_warnings(scene: SceneSpec, config: RadarConfig) -> list[str]:
    """Targets whose beat or Doppler frequency aliases under ``config``.

    They depend on neither the radar nor the frame, so a capture needs them once.
    """
    warnings = []
    t_c = _slow_time_step(config)
    for idx, tgt in enumerate(scene.targets):
        if _beat_freq(tgt, config) >= config.sample_rate:
            warnings.append(f"target {idx}: beat frequency aliases (range too large)")
        if abs(_doppler_freq(tgt, config) * t_c) >= 0.5:
            warnings.append(f"target {idx}: Doppler aliases (velocity too large)")
    return warnings


def synth_frame(
    scene: SceneSpec,
    config: RadarConfig,
    radar_id: str = HORIZONTAL,
    frame_index: int = 0,
) -> RadarCube:
    """Generate one noisy frame; deterministic given (scene, config, seed).

    The noise RNG is seeded per (noise_seed, frame_index, radar) so every
    frame and radar draws an independent but reproducible stream.
    """
    n_count, m_count, v_count = config.num_adc_samples, config.num_chirps, config.num_virtual
    n = np.arange(n_count)
    m = np.arange(m_count)
    p, q = np.unravel_index(np.arange(v_count), config.array_shape)
    t_c = _slow_time_step(config)
    p_sees_azimuth = P_AXIS_ANGLE.get(radar_id) == AZIMUTH
    range_doppler, steering = [], []
    for tgt in scene.targets:
        f_b = _beat_freq(tgt, config)
        f_d = _doppler_freq(tgt, config)
        a1, a2 = (tgt.azimuth, tgt.elevation) if p_sees_azimuth else (tgt.elevation, tgt.azimuth)
        r = tgt.rcs_amplitude * np.exp(2j * np.pi * (f_b * n / config.sample_rate))
        d = np.exp(2j * np.pi * (f_d * t_c * m))
        range_doppler.append(np.outer(r, d).ravel())
        steering.append(
            np.exp(2j * np.pi * (config.antenna_spacing * (p * math.sin(a1) + q * math.sin(a2))))
        )
    # the (N*M x T) @ (T x V) product, one antenna column at a time with the
    # target sum in scene order: BLAS would reorder that sum, and a scene would
    # no longer be bitwise the sum of its targets' cubes
    columns = np.zeros((v_count, n_count * m_count), dtype=np.complex128)
    for v, column in enumerate(columns):
        for rd, s in zip(range_doppler, steering):
            column += rd * s[v]
    data = np.ascontiguousarray(columns.T).reshape(n_count, m_count, v_count)
    if scene.snr_db is not None:
        amp_ref = max((t.rcs_amplitude for t in scene.targets), default=1.0)
        noise_power = amp_ref ** 2 / 10.0 ** (scene.snr_db / 10.0)
        rng = np.random.default_rng(
            [scene.noise_seed, frame_index, 0 if radar_id == HORIZONTAL else 1]
        )
        sigma = math.sqrt(noise_power / 2.0)
        data.real += sigma * rng.standard_normal(data.shape)
        data.imag += sigma * rng.standard_normal(data.shape)
    return RadarCube(data=data, frame_index=frame_index, radar_id=radar_id)


def expected_bins(
    t: Target, config: RadarConfig, fft_lengths: tuple[int, int, int, int]
) -> tuple[int, int, int, int]:
    """Closed-form (range, Doppler, azimuth, elevation) peak bin indices.

    ``fft_lengths`` = (range FFT, Doppler FFT, azimuth FFT, elevation FFT).
    The Doppler index uses the zero-centered convention; angle bins wrap
    modulo their FFT length.
    """
    n_fft, m_fft, a_fft, e_fft = fft_lengths
    range_bin = round(_beat_freq(t, config) * n_fft / config.sample_rate) % n_fft
    doppler_raw = round(_doppler_freq(t, config) * _slow_time_step(config) * m_fft)
    doppler_bin = (m_fft // 2 + doppler_raw) % m_fft
    az_bin = round(a_fft * config.antenna_spacing * math.sin(t.azimuth)) % a_fft
    el_bin = round(e_fft * config.antenna_spacing * math.sin(t.elevation)) % e_fft
    return range_bin, doppler_bin, az_bin, el_bin
