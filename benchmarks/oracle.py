"""Output checks for one CLI invocation, independent of radarpose's code.

Each check returns the number of radar-frames whose outputs fail it; a
missing or malformed file fails every frame it should have held. The
expected values come from the benchmark's closed-form scene
(``workloads.expected_bins``), never from the program under test.
"""

from __future__ import annotations

import hashlib
import json
import struct
from pathlib import Path

import numpy as np

import workloads as W

SUM_TOL = 1e-9      # unit-sum of a float64 probability row
RANK1_TOL = 1e-12   # |row - outer(row sums, column sums) / total|, values <= 1
PE_TOL = 1e-12      # (p + pe) - p against pe, values <= 2


def read_tensor(path: Path) -> np.ndarray:
    """Reader for the PRM3F tensor format: magic, version, ndim, u64 axes, tag, payload."""
    raw = path.read_bytes()
    if raw[:5] != b"PRM3F" or raw[5] != 1:
        raise ValueError(f"{path}: bad tensor header")
    ndim = raw[6]
    shape = struct.unpack_from(f"<{ndim}Q", raw, 7)
    off = 7 + 8 * ndim
    dtype = {0: "<f8", 1: "<c16"}[raw[off]]
    return np.frombuffer(raw, dtype=dtype, offset=off + 1).reshape(shape)


def positional_encoding(a_bins: int, e_bins: int, depth: int) -> np.ndarray:
    """(2*depth, A, E): channel 2i holds sin(p / 10000^(2i/depth)) of the
    azimuth bin p, channel 2i+1 the cosine; elevation channels follow."""
    out = np.empty((2 * depth, a_bins, e_bins))
    for i in range(depth // 2):
        w = 10000.0 ** (-2.0 * i / depth)
        az, el = np.arange(a_bins) * w, np.arange(e_bins) * w
        out[2 * i] = np.sin(az)[:, None]
        out[2 * i + 1] = np.cos(az)[:, None]
        out[depth + 2 * i] = np.sin(el)[None, :]
        out[depth + 2 * i + 1] = np.cos(el)[None, :]
    return out


def check_probmap(out: Path, wl: W.Workload, scene) -> int:
    """Per frame: unit-sum rank-1 rows, encoding = map + PE, all scatterers detected."""
    cfg = wl.config
    angle = W.next_pow2(cfg["num_tx"] * cfg["num_rx"])
    pe = positional_encoding(angle, angle, W.PE_DEPTH)
    n_fft = W.next_pow2(cfg["num_adc_samples"])
    wanted = {W.expected_bins(t, cfg, (n_fft, 1, 1, 1))[0] for t in scene}
    failed = 0
    for f in range(wl.frames):
        try:
            ok = _probmap_frame(out, f, pe, wanted)
        except (OSError, ValueError, KeyError, IndexError):
            ok = False
        failed += 0 if ok else len(wl.radars)
    return failed


def _probmap_frame(out: Path, f: int, pe: np.ndarray, wanted: set[int]) -> bool:
    tag = f"f{f:04d}"
    prob = read_tensor(out / f"pm.prob.{tag}.tensor")
    enc = read_tensor(out / f"pm.enc.{tag}.tensor")
    side = json.loads((out / f"pm.bins.{tag}.json").read_text())
    bins, empty = side["range_bins"], side["empty_rows"]
    if prob.shape != (len(bins),) + pe.shape[1:] or enc.shape != (len(bins),) + pe.shape:
        return False
    if len(empty) != len(bins) or side["frame"] != f:
        return False
    for row, is_empty in zip(prob, empty):
        if is_empty:
            continue
        total = row.sum()
        if abs(total - 1.0) > SUM_TOL:
            return False
        if np.abs(row - np.outer(row.sum(axis=1), row.sum(axis=0)) / total).max() > RANK1_TOL:
            return False
    if np.abs(enc - prob[:, None] - pe[None]).max(initial=0.0) > PE_TOL:
        return False
    detected = set(bins)
    return all(detected & {b - 1, b, b + 1} for b in wanted)


def doppler_kept(m_fft: int, keep: int, window_share: float) -> list[int]:
    """Centered Doppler bins ``heatmap --doppler-keep`` retains: ``keep`` bins
    at a uniform step across a window of round(share * M) bins about M // 2."""
    window = max(1, min(int(round(window_share * m_fft)), m_fft))
    step = window // keep
    start = m_fft // 2 - (keep * step) // 2 + step // 2
    return [start + step * i for i in range(keep)]


def check_heatmap(out: Path, wl: W.Workload, scene) -> int:
    """Per frame: the magnitude peak sits at the chest's closed-form bin."""
    cfg = wl.config
    p_count, q_count = W.array_shape(cfg)
    lengths = (W.next_pow2(cfg["num_adc_samples"]), W.next_pow2(cfg["num_chirps"]),
               W.next_pow2(p_count), W.next_pow2(q_count))
    kept = doppler_kept(lengths[1], W.HEATMAP_DOPPLER_KEEP, W.HEATMAP_DOPPLER_WINDOW)
    strongest = max(scene, key=lambda t: t.amplitude)
    r, d, a, _ = W.expected_bins(strongest, cfg, lengths)
    try:
        maps = read_tensor(out / "maps.tensor")
    except (OSError, ValueError, KeyError):
        return wl.frames
    if maps.shape != (wl.frames, lengths[0], len(kept), lengths[2]) or d not in kept:
        return wl.frames
    want = (r, kept.index(d), a)
    return sum(np.unravel_index(np.abs(m).argmax(), m.shape) != want for m in maps)


def decode_capture(raw: bytes, cfg: dict) -> np.ndarray:
    """Inverse of ``workloads.capture_bytes``: frames x (sample, chirp, virtual)."""
    n, m = cfg["num_adc_samples"], cfg["num_chirps"]
    tx, rx = cfg["num_tx"], cfg["num_rx"]
    groups = np.frombuffer(raw, dtype="<i2").reshape(-1, W.LANES).astype(np.float64)
    half = W.LANES // 2
    stream = (groups[:, :half] + 1j * groups[:, half:]).reshape(-1, m, tx, rx, n)
    return stream.transpose(0, 4, 1, 2, 3).reshape(-1, n, m, tx * rx)


def check_simulate(out: Path, wl: W.Workload, scene) -> int:
    """Per radar: the capture holds the requested frames, and each frame's
    strongest range bin (power summed over chirps and antennas) is the chest's."""
    cfg = wl.config
    frame_bytes = cfg["num_adc_samples"] * cfg["num_chirps"] * cfg["num_tx"] * cfg["num_rx"] * 4
    n_fft = W.next_pow2(cfg["num_adc_samples"])
    strongest = max(scene, key=lambda t: t.amplitude)
    chest_bin = W.expected_bins(strongest, cfg, (n_fft, 1, 1, 1))[0]
    failed = 0
    for tag in ("h", "v"):
        path = out / f"cap.{tag}.bin"
        if not path.is_file() or path.stat().st_size != wl.frames * frame_bytes:
            failed += wl.frames
            continue
        for cube in decode_capture(path.read_bytes(), cfg):
            power = (np.abs(np.fft.fft(cube, n=n_fft, axis=0)) ** 2).sum(axis=(1, 2))
            failed += int(power.argmax() != chest_bin)
    return failed


CHECKS = {"probmap": check_probmap, "heatmap": check_heatmap, "simulate": check_simulate}


def artifact_digest(out: Path) -> str:
    """SHA-256 over every artifact's relative name and bytes, manifests
    excluded (they carry a timestamp)."""
    h = hashlib.sha256()
    for path in sorted(out.rglob("*")):
        if path.is_file() and not path.name.endswith(".manifest.json"):
            h.update(path.relative_to(out).as_posix().encode() + b"\0")
            h.update(hashlib.sha256(path.read_bytes()).digest())
    return h.hexdigest()


def output_bytes(out: Path) -> int:
    return sum(p.stat().st_size for p in out.rglob("*") if p.is_file())
