"""Batch command-line front end for the radar pipeline.

Commands stage everything through files (raw ADC binary, the project tensor
format, JSON) so every boundary can be diffed against an oracle. Exit
codes: 0 success, 2 usage/config error, 3 data-format error, 4
numeric/contract violation.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import math
import os
import sys
import threading
from pathlib import Path

import numpy as np

from . import __version__, adc, cfar, fusion, probmap, sim, spectral, tensorio
from .config import ConfigError, load_config
from .manifest import write_manifest
from .pose import (
    OksParams, PoseError, ap_summary, load_keypoint_frames, load_oks_params, oks_per_frame,
)

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_DATA = 3
EXIT_CONTRACT = 4

DEFAULT_ADC_SCALE = 1000.0  # simulator amplitude -> int16 quantization scale


def _hashed(read, path):
    """``read(path, digest=...)`` and the hex SHA-256 of the bytes it read."""
    digest = hashlib.sha256()
    return read(path, digest=digest), digest.hexdigest()


def cmd_simulate(args) -> dict:
    config, config_sha256 = _hashed(load_config, args.config)
    if args.frames < 1:
        raise sim.SimError(f"--frames must be >= 1, got {args.frames}")
    if not 0 < args.scale < math.inf:
        raise sim.SimError(f"--scale must be finite and > 0, got {args.scale}")
    scene, scene_sha256 = _hashed(sim.SceneSpec.load, args.scene)
    if args.seed is not None:
        scene = sim.SceneSpec(targets=scene.targets, snr_db=scene.snr_db, noise_seed=args.seed)
    for w in sim.scene_warnings(scene, config):
        print(f"warning: {w}", file=sys.stderr)
    return {
        "config_sha256": config_sha256, "inputs": {args.scene: scene_sha256},
        "outputs": _write_captures(args, scene, config),
        "seed": scene.noise_seed,
        "extra": {"frames": args.frames, "scale": args.scale},
    }


def _write_captures(args, scene, config) -> dict[str, str]:
    """Write simulate's captures and return each path's SHA-256, taken from
    the frames as they are written.

    Frames stream into <output>.part files, committed only once every frame
    of every radar is written (``_committed``), so a failing run leaves none
    of its outputs. A horizontal error stops the worker before its next frame
    (``_each_radar``).
    """
    layout = adc.AdcLayout()
    outputs = _sim_outputs(args)
    # Every frame-sized buffer of the run is allocated on the main thread,
    # before the worker starts: the RD vectors both radars share and, per
    # radar, the buffers its frames are synthesized through and its int16
    # lanes. glibc gives the worker thread its own malloc arena, which keeps
    # the pages of freed frame-sized temporaries resident, so the worker
    # allocates nothing frame-sized.
    range_doppler = sim.range_doppler_vectors(scene, config)
    stop = threading.Event()

    def write_radar(radar_id, part, synth_buffers, lanes) -> str:
        # a frame is rounded through the float64 buffer its noise was drawn
        # in, so a radar holds one such buffer, not two
        block = synth_buffers[2].reshape(config.num_virtual, -1)
        digest = hashlib.sha256()
        # an overflowing --scale leaves inf or NaN, which the quantiser
        # reports as the frame's peak; numpy's errstate is per thread
        with open(part, "wb") as fh, np.errstate(over="ignore", invalid="ignore"):
            for i in range(args.frames):
                if stop.is_set():
                    break
                cube = sim.synth_frame(scene, config, radar_id=radar_id, frame_index=i,
                                       range_doppler=range_doppler, buffers=synth_buffers)
                np.multiply(cube.data, args.scale, out=cube.data)
                adc.quantize_frame(cube, layout, config, lanes[0], block)
                fh.write(lanes)
                digest.update(lanes)
        return digest.hexdigest()

    with _committed([path for _, path in outputs]) as parts, _one_thread() as worker:
        jobs = [(radar_id, part, sim.frame_buffers(config), adc.frame_lanes(layout, config))
                for (radar_id, _), part in zip(outputs, parts)]
        digests = _each_radar(worker, write_radar, jobs, stop)
    return {path: digest for (_, path), digest in zip(outputs, digests)}


@contextlib.contextmanager
def _committed(paths):
    """Yield one ``<path>.part`` per path in ``paths``, to be written in the
    block, and rename each onto its path, in order, once the block succeeds.
    Any error, in the block or a rename, removes every .part file and every
    path already renamed, so a failing command leaves none of its outputs."""
    parts = [f"{path}.part" for path in paths]
    renamed = []
    try:
        yield parts
        for part, path in zip(parts, paths):
            os.replace(part, path)
            renamed.append(path)
    except BaseException:
        for path in parts + renamed:
            Path(path).unlink(missing_ok=True)
        raise


def _one_thread():
    # imported here: concurrent.futures pulls in logging, about 5 ms of
    # start-up that the commands without threads do not need
    from concurrent.futures import ThreadPoolExecutor

    return ThreadPoolExecutor(max_workers=1)


def _each_radar(worker, job, radars, stop=None) -> list:
    """``job(*args)`` for each radar's ``args``, in radar order: the first
    (horizontal) radar's on this thread, the others' on the one-thread
    executor ``worker``. Errors come in serial order: the first radar's error
    sets ``stop``, waits for the worker and carries a worker error as its
    ``__cause__``."""
    first, *others = radars
    futures = [worker.submit(job, *args) for args in others]
    try:
        results = [job(*first)]
    except BaseException as exc:
        if stop is not None:
            stop.set()
        for error in filter(None, [future.exception() for future in futures]):
            raise exc from error
        raise
    return results + [future.result() for future in futures]


def _behind(executor, job, items) -> list:
    """``job(item)`` for each of ``items``, in order, each on the one-thread
    ``executor`` while this thread takes the next item, and the jobs'
    results. Job k is waited on before job k+1 is submitted and before any
    error from taking item k+1 escapes, so errors and side effects come as
    running each job in turn would bring them."""
    results, pending = [], None
    try:
        for item in items:
            if pending is not None:
                previous, pending = pending, None  # so finally does not wait on it twice
                results.append(previous.result())
            pending = executor.submit(job, item)
    finally:
        if pending is not None:
            results.append(pending.result())
    return results


def _read_ahead(executor, items):
    """Yield ``items`` in order while the one-thread ``executor`` takes the
    next: ``next(items)`` for item k+1 is submitted before item k is yielded.
    A consumer that stops at item k drops item k+1, or its error, as a
    serial run would never have taken it."""
    end = object()
    pending = executor.submit(next, items, end)
    while (item := pending.result()) is not end:
        pending = executor.submit(next, items, end)
        yield item


def _sim_outputs(args):
    if args.radar == "both":
        base = Path(args.output)
        return [
            ("horizontal", str(base.with_suffix(".h" + base.suffix))),
            ("vertical", str(base.with_suffix(".v" + base.suffix))),
        ]
    return [(args.radar, args.output)]


def cmd_heatmap(args) -> dict:
    """Stream the capture's maps into one tensor on two threads. This thread
    only computes and encodes frame k's map; the reader reads, hashes and
    parses frame k+1 (``_read_ahead``), and appends and hashes frame k-1's
    map (``_behind``). The tensor goes to <output>.part, which is closed once
    the reader has stopped and then committed (``_committed``)."""
    config, config_sha256 = _hashed(load_config, args.config)
    fft_branch = args.branch == "fft"
    # the fft branch reads elevation row 0 alone (``average_elevation``), so
    # only those antennas are parsed; the capture is still hashed whole
    antennas = spectral.elevation_row_zero(config) if fft_branch else slice(None)
    capture = hashlib.sha256()
    num_frames, cubes = adc.read_capture(args.adc, config, adc.HORIZONTAL, digest=capture,
                                         antennas=antennas)
    angle_fft = spectral.angle_fft_length(config)
    # the Doppler flags are checked before any frame is read, the window also
    # when sampling is off
    doppler_bins = spectral.next_pow2(config.num_chirps)
    spectral.doppler_sample_indices(doppler_bins, args.doppler_keep or 1, args.doppler_window)

    def maps(cubes):
        for cube in cubes:
            rd = spectral.range_doppler_map(cube)
            if args.doppler_keep:
                rd = spectral.sample_doppler(rd, args.doppler_keep, args.doppler_window)
            yield np.fft.fft(rd.data, n=angle_fft, axis=2) if fft_branch else rd.data

    digest = hashlib.sha256()

    def append(chunks) -> None:
        for chunk in chunks:
            fh.write(chunk)
            digest.update(chunk)

    with (_committed([args.output]) as (part,), open(part, "wb") as fh,
          _one_thread() as reader):
        chunks = tensorio.frame_chunks(num_frames, maps(_read_ahead(reader, cubes)))
        _behind(reader, append, chunks)
    return {
        "config_sha256": config_sha256, "inputs": {args.adc: capture.hexdigest()},
        "outputs": {args.output: digest.hexdigest()},
        "extra": {"branch": args.branch, "doppler_keep": args.doppler_keep,
                  "doppler_window": args.doppler_window},
    }


def _radar_vector(cubes, buffer, config, params, angle_fft) -> tuple:
    """Read one radar's next frame from ``cubes`` and return its frame index,
    angle and normalised angle vector. The RD map is computed into
    ``buffer`` and shared by CFAR detection and the angle spectrum."""
    # looked up per frame, so a wrapper installed on a module is called
    cube = next(cubes)
    rd = spectral.range_doppler_map(cube, out=buffer)
    bins = cfar.select_range_bins(cfar.detect_2d(spectral.magnitude_map(rd), params))
    angle = spectral.P_AXIS_ANGLE[rd.radar_id]
    spectrum = probmap.angle_spectrum(rd, config, bins, angle, angle_fft=angle_fft)
    return cube.frame_index, angle, probmap.normalize(spectrum)


def _probmap_frame(radars, fft, angle_fft, pe, args) -> list[tuple[str, object]]:
    """One frame pair's probmap outputs as (path, array or sidecar bytes)
    pairs. ``radars`` holds each radar's ``_radar_vector`` arguments, and
    the two-radar rule runs the vertical one on the worker ``fft``."""
    results = _each_radar(fft, _radar_vector, radars)
    frame_index = results[0][0]
    vectors = {angle: vector for _, angle, vector in results}
    pmap = probmap.probability_map(vectors[spectral.AZIMUTH], vectors[spectral.ELEVATION])
    encoded = probmap.encode_map(pmap, pe)
    sidecar = (json.dumps(
        {
            "frame": frame_index,
            "range_bins": list(pmap.range_bins),
            "empty_rows": list(pmap.empty_rows),
            "axes": dict.fromkeys(vectors, angle_fft),
            "pe_depth": args.pe_depth,
        },
        indent=2,
        sort_keys=True,
    ) + "\n").encode()
    prefix, tag = args.output, f"f{frame_index:04d}"
    return [
        (f"{prefix}.prob.{tag}.tensor", pmap.values),
        (f"{prefix}.enc.{tag}.tensor", encoded),
        (f"{prefix}.bins.{tag}.json", sidecar),
    ]


def _write_files(files: list[tuple[str, object]]) -> dict[str, str]:
    """Write (path, array or bytes) pairs in order, stopping at the first
    error, and return each path's SHA-256 of the bytes written. Runs on
    probmap's writer thread, so it only writes and hashes: every array it is
    handed was built on the main thread."""
    digests = {}
    for path, content in files:
        if isinstance(content, bytes):
            Path(path).write_bytes(content)
            digests[path] = hashlib.sha256(content).hexdigest()
        else:
            digests[path] = tensorio.write_tensor(path, content)
    return digests


def cmd_probmap(args) -> dict:
    config, config_sha256 = _hashed(load_config, args.config)
    angle_fft = spectral.angle_fft_length(config, args.angle_fft)
    # each capture is hashed from its frames as they are read, so it is read once
    capture_h, capture_v = hashlib.sha256(), hashlib.sha256()
    count_h, cubes_h = adc.read_capture(args.adc_h, config, adc.HORIZONTAL, digest=capture_h)
    count_v, cubes_v = adc.read_capture(args.adc_v, config, adc.VERTICAL, digest=capture_v)
    if count_h != count_v:
        raise adc.AdcError(
            f"frame count mismatch: horizontal has {count_h}, vertical has {count_v}"
        )
    params = cfar.CfarParams(guard=args.cfar_guard, reference=args.cfar_ref, pfa=args.pfa)
    pe = probmap.positional_encoding(angle_fft, angle_fft, args.pe_depth)
    # one RD map buffer per radar, allocated once, on this thread, and reused
    # by every frame
    rd_shape = spectral.range_doppler_shape(
        (config.num_adc_samples, config.num_chirps, config.num_virtual)
    )
    radars = [(cubes, np.empty(rd_shape, dtype=np.complex128), config, params, angle_fft)
              for cubes in (cubes_h, cubes_v)]
    # Two threads besides main. The FFT worker runs the vertical radar's
    # whole frame (read, RD map, CFAR, angle spectrum) while this thread runs
    # the horizontal one, then the map and its encoding. The writer writes
    # and hashes frame k's files while frame k+1 is computed (``_behind``).
    with _one_thread() as writer, _one_thread() as fft:
        frames = (_probmap_frame(radars, fft, angle_fft, pe, args) for _ in range(count_h))
        written = _behind(writer, _write_files, frames)
    outputs = {path: digest for digests in written for path, digest in digests.items()}
    return {
        "config_sha256": config_sha256,
        "inputs": {args.adc_h: capture_h.hexdigest(), args.adc_v: capture_v.hexdigest()},
        "outputs": outputs,
        "extra": {
            "cfar": {"guard": params.guard, "reference": params.reference, "pfa": params.pfa},
            "pe_depth": args.pe_depth,
            "angle_fft": angle_fft,
        },
    }


def cmd_fuse(args) -> dict:
    t1, sha1 = _hashed(tensorio.read_tensor, args.tensor1)
    t2, sha2 = _hashed(tensorio.read_tensor, args.tensor2)
    fused = fusion.fuse_add(fusion.FeatureTensor(values=t1), fusion.FeatureTensor(values=t2))
    with _committed([args.output]) as (part,):
        digest = tensorio.write_tensor(part, fused.values)
    return {
        "inputs": {args.tensor1: sha1, args.tensor2: sha2},
        "outputs": {args.output: digest},
    }


def cmd_eval(args) -> dict | None:
    preds, pred_sha256 = _hashed(load_keypoint_frames, args.pred)
    gts, gt_sha256 = _hashed(load_keypoint_frames, args.gt)
    inputs, params = {args.pred: pred_sha256, args.gt: gt_sha256}, OksParams()
    if args.oks_config:
        params, inputs[args.oks_config] = _hashed(load_oks_params, args.oks_config)
    values = oks_per_frame(preds, gts, params)
    report = ap_summary(values)
    report["per_frame_oks"] = values
    text = json.dumps(report, indent=2, sort_keys=True) + "\n"
    if not args.output:
        sys.stdout.write(text)
        return None
    data = text.encode()
    with _committed([args.output]) as (part,):
        Path(part).write_bytes(data)
    return {
        "inputs": inputs,
        "outputs": {args.output: hashlib.sha256(data).hexdigest()},
    }


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="radarpose",
        description="FMCW radar pipeline: simulate, transform, detect, encode, evaluate.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="synthesize a raw ADC capture from a scene")
    p.add_argument("scene", help="scene JSON file")
    p.add_argument("--config", required=True, help="radar key=value config file")
    p.add_argument("--output", required=True, help="raw ADC output path")
    p.add_argument("--radar", choices=["horizontal", "vertical", "both"], default="horizontal")
    p.add_argument("--frames", type=int, default=1)
    p.add_argument("--seed", type=int, default=None, help="override the scene noise seed")
    p.add_argument("--scale", type=float, default=DEFAULT_ADC_SCALE)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("heatmap", help="frequency-domain maps from a raw capture")
    p.add_argument("adc", help="raw ADC capture")
    p.add_argument("--config", required=True)
    p.add_argument("--output", required=True, help="tensor output path")
    p.add_argument("--branch", choices=["fft", "rd"], default="fft")
    p.add_argument("--doppler-keep", type=int, default=0, help="0 disables Doppler sampling")
    p.add_argument("--doppler-window", type=float, default=spectral.DEFAULT_VELOCITY_WINDOW)
    p.set_defaults(func=cmd_heatmap)

    p = sub.add_parser("probmap", help="probability maps + positional encoding")
    p.add_argument("adc_h", help="horizontal radar capture")
    p.add_argument("adc_v", help="vertical radar capture")
    p.add_argument("--config", required=True)
    p.add_argument("--output", required=True, help="output path prefix")
    p.add_argument("--cfar-guard", type=int, default=cfar.CfarParams.guard)
    p.add_argument("--cfar-ref", type=int, default=cfar.CfarParams.reference)
    p.add_argument("--pfa", type=float, default=cfar.CfarParams.pfa)
    p.add_argument("--pe-depth", type=int, default=probmap.PE_DEPTH)
    p.add_argument("--angle-fft", type=int, default=0, help="0 uses next pow2 of azimuth antennas")
    p.set_defaults(func=cmd_probmap)

    p = sub.add_parser("fuse", help="element-wise sum of two tensor files")
    p.add_argument("tensor1")
    p.add_argument("tensor2")
    p.add_argument("--output", required=True)
    p.set_defaults(func=cmd_fuse)

    p = sub.add_parser("eval", help="OKS / AP metrics from keypoint JSON files")
    p.add_argument("pred", help="predicted keypoints JSON")
    p.add_argument("gt", help="ground-truth keypoints JSON")
    p.add_argument("--oks-config", default=None, help="per-joint sigma overrides")
    p.add_argument("--output", default=None, help="metrics JSON path (stdout if omitted)")
    p.set_defaults(func=cmd_eval)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else 0
    try:
        # a command returns the manifest record of its run, or None if it wrote no file
        record = args.func(args)
        if record is not None:
            with _committed([f"{args.output}.manifest.json"]) as (part,):
                write_manifest(part, command=args.command, **record)
        return EXIT_OK
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (adc.AdcError, tensorio.TensorFormatError, PoseError, sim.SceneError,
            UnicodeDecodeError, OSError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except (cfar.CfarError, probmap.ProbMapError, fusion.FusionError,
            sim.SimError, spectral.SpectralError) as exc:
        print(f"contract violation: {exc}", file=sys.stderr)
        return EXIT_CONTRACT


if __name__ == "__main__":
    sys.exit(main())
