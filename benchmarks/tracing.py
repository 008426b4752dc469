"""Traced runs: span-recording wrappers around the public functions the CLI
reaches, and per-module metrics derived from the spans.

A wrapper is installed at every name the CLI looks a function up by, so
``probmap.range_doppler_map`` (reached from ``probmap.angle_spectrum``) is
wrapped as well as ``spectral.range_doppler_map``, and ``cli.write_manifest``
as well as ``manifest.sha256_file``. Spans are kept in memory; the caller
writes them out when the run ends. Self time is a span's duration minus the
durations of its direct children.
"""

from __future__ import annotations

import functools
import math
import os
import time
from collections import Counter, defaultdict
from dataclasses import dataclass


@dataclass(frozen=True)
class Span:
    name: str
    start: float
    end: float
    parent: int   # index into the span list, -1 for a top-level call
    run_id: int


def _rd_flops(args, kwargs, result):
    """5 N log2 N per transform: range FFTs over every (chirp, antenna),
    then Doppler FFTs over every (range bin, antenna)."""
    _, m, v = args[0].data.shape
    n_fft, m_fft = result.fft_lengths
    return 5 * (n_fft * math.log2(n_fft) * m * v + m_fft * math.log2(m_fft) * n_fft * v)


def _fft4d_flops(args, kwargs, result):
    size = math.prod(result.fft_lengths)
    return 5 * size * math.log2(size)


def _counts_rd(counts, args, kwargs, result):
    counts["spectral.rd_calls"] += 1
    counts["spectral.fft_flops"] += _rd_flops(args, kwargs, result)


def _counts_fft4d(counts, args, kwargs, result):
    counts["spectral.fft_flops"] += _fft4d_flops(args, kwargs, result)


def _counts_parse(counts, args, kwargs, result):
    counts["adc.bytes_in"] += len(args[0])


def _counts_detect(counts, args, kwargs, result):
    counts["cfar.cells"] += result.mask.size
    counts["cfar.detections"] += int(result.mask.sum())


def _counts_bins(counts, args, kwargs, result):
    counts["cfar.range_bins"] += len(result)
    counts["cfar.maps"] += 1


def _counts_pmap(counts, args, kwargs, result):
    counts["probmap.empty_rows"] += sum(result.empty_rows)


def _counts_write(counts, args, kwargs, result):
    counts["tensorio.files"] += 1
    counts["tensorio.bytes_out"] += os.path.getsize(args[0])


def _counts_hash(counts, args, kwargs, result):
    counts["manifest.bytes_hashed"] += os.path.getsize(args[0])


def _counts_synth(counts, args, kwargs, result):
    counts["sim.frames"] += 1


# (module, attribute the CLI looks up, span name, count hook)
TARGETS = (
    ("adc", "parse_cubes", "adc.parse_cubes", _counts_parse),
    ("adc", "serialize_cubes", "adc.serialize_cubes", None),
    ("spectral", "range_doppler_map", "spectral.range_doppler_map", _counts_rd),
    ("probmap", "range_doppler_map", "spectral.range_doppler_map", _counts_rd),
    ("spectral", "magnitude_map", "spectral.magnitude_map", None),
    ("spectral", "fft4d", "spectral.fft4d", _counts_fft4d),
    ("spectral", "average_elevation", "spectral.average_elevation", None),
    ("spectral", "sample_doppler", "spectral.sample_doppler", None),
    ("cfar", "detect_2d", "cfar.detect_2d", _counts_detect),
    ("cfar", "select_range_bins", "cfar.select_range_bins", _counts_bins),
    ("probmap", "angle_spectrum", "probmap.angle_spectrum", None),
    ("probmap", "normalize", "probmap.normalize", None),
    ("probmap", "probability_map", "probmap.probability_map", _counts_pmap),
    ("probmap", "positional_encoding", "probmap.positional_encoding", None),
    ("probmap", "encode_map", "probmap.encode_map", None),
    ("tensorio", "write_tensor", "tensorio.write_tensor", _counts_write),
    ("cli", "write_manifest", "manifest.write_manifest", None),
    ("manifest", "sha256_file", "manifest.sha256_file", _counts_hash),
    ("sim", "synth_frame", "sim.synth_frame", _counts_synth),
)

# per-layer time metric -> span names whose self times it sums
TIME_METRICS = {
    "adc.parse_s": ("adc.parse_cubes",),
    "adc.serialize_s": ("adc.serialize_cubes",),
    "spectral.rd_fft_s": ("spectral.range_doppler_map",),
    "spectral.magnitude_s": ("spectral.magnitude_map",),
    "spectral.fft4d_s": ("spectral.fft4d",),
    "spectral.avg_elev_s": ("spectral.average_elevation",),
    "spectral.doppler_sample_s": ("spectral.sample_doppler",),
    "cfar.detect_s": ("cfar.detect_2d", "cfar.select_range_bins"),
    "probmap.angle_self_s": ("probmap.angle_spectrum",),
    "probmap.map_s": ("probmap.normalize", "probmap.probability_map"),
    "probmap.encode_s": ("probmap.positional_encoding", "probmap.encode_map"),
    "tensorio.write_s": ("tensorio.write_tensor",),
    "manifest.hash_s": ("manifest.sha256_file",),
    "manifest.write_s": ("manifest.write_manifest",),
    "sim.synth_s": ("sim.synth_frame",),
}

UNITS = {
    "adc.parse_mb_per_s": "MB/s", "adc.bytes_in": "bytes", "tensorio.bytes_out": "bytes",
    "manifest.bytes_hashed": "bytes", "spectral.fft_flops": "flop",
    "trace.overhead_frac": "ratio",
}


def unit(name: str) -> str:
    return UNITS.get(name, "s" if name.endswith("_s") else "count")


def _module(name: str):
    import importlib

    return importlib.import_module(f"radarpose.{name}")


class Tracer:
    """Records one span per wrapped call while installed.

    ``install`` replaces each target attribute with a wrapper and
    ``uninstall`` puts the original objects back, so untraced invocations
    run the unmodified functions.
    """

    def __init__(self):
        self.spans: list[Span] = []
        self.counts: dict[int, Counter] = defaultdict(Counter)
        self.run_id = 0
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def install(self, run_id: int) -> None:
        if self._saved:
            raise RuntimeError("tracer already installed")
        self.run_id = run_id
        for module_name, attr, span_name, count in TARGETS:
            module = _module(module_name)
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            setattr(module, attr, self._wrap(original, span_name, count))

    def uninstall(self) -> None:
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    def _wrap(self, fn, name, count):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = self._stack[-1] if self._stack else -1
            index = len(self.spans)
            self.spans.append(None)
            self._stack.append(index)
            start = time.perf_counter()
            try:
                return_value = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._stack.pop()
                self.spans[index] = Span(name, start, end, parent, self.run_id)
            if count is not None:
                count(self.counts[self.run_id], args, kwargs, return_value)
            return return_value

        return wrapper


def self_times(spans: list[Span], run_id: int) -> tuple[dict[str, float], float]:
    """Per-name summed self time of one run's spans, and the summed duration
    of its top-level spans. ``parent`` indexes the full span list."""
    child = [0.0] * len(spans)
    top = 0.0
    for s in spans:
        if s.run_id != run_id:
            continue
        if s.parent >= 0:
            child[s.parent] += s.end - s.start
        else:
            top += s.end - s.start
    totals: dict[str, float] = defaultdict(float)
    for i, s in enumerate(spans):
        if s.run_id == run_id:
            totals[s.name] += s.end - s.start - child[i]
    return totals, top


def layer_metrics(
    spans: list[Span], run_id: int, counts: Counter, wall: float, radar_frames: int
) -> dict:
    """Per-layer metrics of traced invocation ``run_id``, which took ``wall`` seconds.

    The time metrics plus ``cli.self_s`` add up to ``wall``: ``cli.self_s``
    is whatever the wrapped calls do not cover (argument parsing, JSON
    sidecars, stacking, glue).
    """
    totals, top = self_times(spans, run_id)
    out = {m: sum(totals.get(n, 0.0) for n in names) for m, names in TIME_METRICS.items()}
    out["cli.self_s"] = wall - top
    parse_s = out["adc.parse_s"]
    out["adc.bytes_in"] = counts["adc.bytes_in"]
    out["adc.parse_mb_per_s"] = counts["adc.bytes_in"] / 1e6 / parse_s if parse_s > 0 else 0.0
    out["spectral.rd_calls_per_frame"] = counts["spectral.rd_calls"] / radar_frames
    out["spectral.fft_flops"] = counts["spectral.fft_flops"]
    out["cfar.cells"] = counts["cfar.cells"]
    out["cfar.detections"] = counts["cfar.detections"]
    maps = counts["cfar.maps"]
    out["cfar.range_bins_per_frame"] = counts["cfar.range_bins"] / maps if maps else 0.0
    for name in ("probmap.empty_rows", "tensorio.files", "tensorio.bytes_out",
                 "manifest.bytes_hashed", "sim.frames"):
        out[name] = counts[name]
    return out
