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

This is the (N*M x T) . (T x V) matrix product of the range-Doppler (RD)
vectors r_t[n]*d_t[m] and the steering phasors s_t[v], built from 3*T short
1-D exponentials instead of T complex exponentials over the whole N x M x V
grid. The RD vectors depend on neither the radar nor the frame, so a run
computes them once (``range_doppler_vectors``) and shares them between its
radars; only the steering phasors are per radar. ``synth_frame`` evaluates
the product one antenna column at a time into a (V, N*M) buffer, with the
sum over targets in scene order, so a scene's cube is bitwise the sum of its
targets' cubes; the cube is that buffer viewed as (N, M, V), with no
transposed copy. Noise is then added in place, sigma*a to the real and
sigma*b to the imaginary part, from two whole-cube ``standard_normal``
streams (a first) drawn one after the other into one reused (N*M, V)
buffer; this gives the same values as adding sigma * (a + 1j*b), without
a complex temporary.
"""

from __future__ import annotations

import functools
import math
import typing
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .adc import HORIZONTAL, RadarCube
from .config import RadarConfig, load_json, read_json_object
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


@dataclass(frozen=True)
class SceneSpec:
    targets: tuple[Target, ...] = ()
    snr_db: float | None = None  # None disables noise
    noise_seed: int = 0

    def __post_init__(self):
        if self.noise_seed < 0:
            raise SimError(f"noise_seed must be >= 0, got {self.noise_seed}")
        # bounds every sample of a noise-free cube, so synth_frame's target sum stays finite
        if not math.isfinite(sum(abs(t.rcs_amplitude) for t in self.targets)):
            raise SimError("the targets' summed rcs_amplitude is not finite")
        self.noise_sigma  # computed here so that a scene whose noise level overflows is rejected

    @functools.cached_property
    def noise_sigma(self) -> float | None:
        """Standard deviation of the real and of the imaginary noise part."""
        if self.snr_db is None:
            return None
        amp_ref = max((t.rcs_amplitude for t in self.targets), default=1.0)
        try:
            sigma = math.sqrt(amp_ref ** 2 / 10.0 ** (self.snr_db / 10.0) / 2.0)
        except (OverflowError, ZeroDivisionError):
            sigma = math.inf
        if sigma < math.inf:
            return sigma
        raise SimError(f"snr_db {self.snr_db} with peak rcs_amplitude {amp_ref} "
                       "gives no finite noise level")

    @staticmethod
    def from_json(text: str) -> "SceneSpec":
        doc = load_json(text, "scene", SceneError)
        doc = read_json_object(doc, _SCENE_KEYS, "scene", SceneError)
        targets = [
            read_json_object(t, _TARGET_KEYS, f"target {i}", SceneError, required=("range",))
            for i, t in enumerate(doc.pop("targets", []))
        ]
        # a value Target or SceneSpec rejects is a fault of the scene file
        try:
            return SceneSpec(
                targets=tuple(Target(range_m=t.pop("range"), **t) for t in targets), **doc
            )
        except SimError as exc:
            raise SceneError(str(exc)) from exc

    @staticmethod
    def load(path: str | Path) -> "SceneSpec":
        return SceneSpec.from_json(Path(path).read_text())


# scene JSON keys and their types, from the dataclass hints ("range" is range_m)
_SCENE_KEYS = dict(typing.get_type_hints(SceneSpec), targets=list)
_TARGET_KEYS = typing.get_type_hints(Target)
_TARGET_KEYS["range"] = _TARGET_KEYS.pop("range_m")


def _beat_freq(t: Target, config: RadarConfig) -> float:
    return 2.0 * config.chirp_slope * t.range_m / SPEED_OF_LIGHT


def _doppler_freq(t: Target, config: RadarConfig) -> float:
    return 2.0 * t.radial_velocity * config.carrier_freq / SPEED_OF_LIGHT


def _slow_time_step(config: RadarConfig) -> float:
    # one chirp index step spans all TX firings
    return config.chirp_interval * config.num_tx


def scene_warnings(scene: SceneSpec, config: RadarConfig) -> list[str]:
    """Targets whose beat or Doppler frequency aliases under ``config``.

    They depend on neither the radar nor the frame, so a capture needs them
    once. A target whose beat phase over a chirp or Doppler phase over a
    frame is not finite under ``config`` raises SceneError instead, so it is
    rejected before any frame is synthesized.
    """
    warnings = []
    t_c = _slow_time_step(config)
    for idx, tgt in enumerate(scene.targets):
        f_b, f_d = _beat_freq(tgt, config), _doppler_freq(tgt, config)
        # synth_frame's largest phases, in cycles: 2*pi times each must be finite
        for key, value, cycles in (
            ("range", tgt.range_m, f_b / config.sample_rate * config.num_adc_samples),
            ("radial_velocity", tgt.radial_velocity, f_d * t_c * config.num_chirps),
        ):
            if not math.isfinite(2 * math.pi * cycles):
                raise SceneError(f"target {idx} {key}: {value} gives a phase that is not "
                                 "finite under the radar config")
        if f_b >= config.sample_rate:
            warnings.append(f"target {idx}: beat frequency aliases (range too large)")
        if abs(f_d * t_c) >= 0.5:
            warnings.append(f"target {idx}: Doppler aliases (velocity too large)")
    return warnings


def range_doppler_vectors(scene: SceneSpec, config: RadarConfig) -> np.ndarray:
    """The (T, N*M) RD vectors A_t * r_t[n] * d_t[m] of the scene's targets.

    They depend on neither the radar nor the frame, so a run computes them
    once and hands them to every ``synth_frame`` call.
    """
    n = np.arange(config.num_adc_samples)
    m = np.arange(config.num_chirps)
    t_c = _slow_time_step(config)
    vectors = np.empty((len(scene.targets), n.size * m.size), dtype=np.complex128)
    for row, tgt in zip(vectors, scene.targets):
        f_b = _beat_freq(tgt, config)
        f_d = _doppler_freq(tgt, config)
        r = tgt.rcs_amplitude * np.exp(2j * np.pi * (f_b * n / config.sample_rate))
        d = np.exp(2j * np.pi * (f_d * t_c * m))
        np.outer(r, d, out=row.reshape(n.size, m.size))
    return vectors


def frame_buffers(config: RadarConfig) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """What ``synth_frame`` writes one frame through: the (V, N*M) complex
    columns its cube views, one column's product temporary, and a (N*M, V)
    float64 buffer for the noise draws of one stream, free again once
    ``synth_frame`` returns."""
    nm_count, v_count = config.num_adc_samples * config.num_chirps, config.num_virtual
    return (
        np.empty((v_count, nm_count), dtype=np.complex128),
        np.empty(nm_count, dtype=np.complex128),
        np.empty((nm_count, v_count)),
    )


def synth_frame(
    scene: SceneSpec,
    config: RadarConfig,
    radar_id: str = HORIZONTAL,
    frame_index: int = 0,
    *,
    range_doppler: np.ndarray | None = None,
    buffers: tuple[np.ndarray, np.ndarray, np.ndarray] | None = None,
) -> RadarCube:
    """Generate one noisy frame; deterministic given (scene, config, seed).

    The noise RNG is seeded per (noise_seed, frame_index, radar) so every
    frame and radar draws an independent but reproducible stream.

    A run passes the scene's ``range_doppler_vectors`` and, per radar, one
    set of ``frame_buffers``, so a frame allocates nothing of its size. The
    cube then views ``buffers``, and the next call with them overwrites it.
    """
    n_count, m_count, v_count = config.num_adc_samples, config.num_chirps, config.num_virtual
    if range_doppler is None:
        range_doppler = range_doppler_vectors(scene, config)
    columns, product, noise = frame_buffers(config) if buffers is None else buffers
    p, q = np.unravel_index(np.arange(v_count), config.array_shape)
    p_sees_azimuth = P_AXIS_ANGLE.get(radar_id) == AZIMUTH
    steering = []
    for tgt in scene.targets:
        a1, a2 = (tgt.azimuth, tgt.elevation) if p_sees_azimuth else (tgt.elevation, tgt.azimuth)
        steering.append(
            np.exp(2j * np.pi * (config.antenna_spacing * (p * math.sin(a1) + q * math.sin(a2))))
        )
    # the (N*M x T) @ (T x V) product, one antenna column at a time with the
    # target sum in scene order: BLAS would reorder that sum, and a scene would
    # no longer be bitwise the sum of its targets' cubes
    columns.fill(0)
    for v, column in enumerate(columns):
        for rd, s in zip(range_doppler, steering):
            column += np.multiply(rd, s[v], out=product)
    sigma = scene.noise_sigma
    if sigma is not None:
        rng = np.random.default_rng(
            [scene.noise_seed, frame_index, 0 if radar_id == HORIZONTAL else 1]
        )
        # the whole real stream, then the whole imaginary one, in (n, m, v) order
        for part in (columns.real, columns.imag):
            rng.standard_normal(out=noise)
            noise *= sigma
            part += noise.T
    # a view: column v's element n*M + m is sample (n, m, v)
    data = columns.T.reshape(n_count, m_count, v_count)
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
