"""Batch command-line front end for the radar pipeline.

Commands stage everything through files (raw ADC binary, the project tensor
format, JSON) so every boundary can be diffed against an oracle. Exit
codes: 0 success, 2 usage/config error, 3 data-format error, 4
numeric/contract violation.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import sys
from pathlib import Path

import numpy as np

from . import __version__, adc, cfar, fusion, manifest, probmap, sim, spectral, tensorio
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


def _manifest_path(output: str) -> str:
    return str(output) + ".manifest.json"


def cmd_simulate(args) -> int:
    config = load_config(args.config)
    if args.frames < 1:
        raise sim.SimError(f"--frames must be >= 1, got {args.frames}")
    if not 0 < args.scale < math.inf:
        raise sim.SimError(f"--scale must be finite and > 0, got {args.scale}")
    scene = sim.SceneSpec.load(args.scene)
    if args.seed is not None:
        scene = sim.SceneSpec(targets=scene.targets, snr_db=scene.snr_db, noise_seed=args.seed)
    layout = adc.AdcLayout()
    outputs = _sim_outputs(args)
    for w in sim.scene_warnings(scene, config):
        print(f"warning: {w}", file=sys.stderr)
    # frames stream into <output>.part files, renamed only once every frame
    # of every radar is written, so a failing frame leaves no capture behind;
    # each capture's digest is taken from the frames as they are written
    parts = [f"{path}.part" for _, path in outputs]
    digests = {}
    try:
        for (radar_id, path), part in zip(outputs, parts):
            digest = hashlib.sha256()
            with open(part, "wb") as fh:
                for i in range(args.frames):
                    cube = sim.synth_frame(scene, config, radar_id=radar_id, frame_index=i)
                    # the cube's array is fresh and owned here: scale it in place
                    np.multiply(cube.data, args.scale, out=cube.data)
                    frame = adc.serialize_cubes([cube], layout, config)
                    fh.write(frame)
                    digest.update(frame)
            digests[path] = digest.hexdigest()
    except BaseException:
        for part in parts:
            Path(part).unlink(missing_ok=True)
        raise
    for (_, path), part in zip(outputs, parts):
        os.replace(part, path)
    write_manifest(
        _manifest_path(args.output),
        command="simulate",
        inputs={args.scene: None},
        outputs=digests,
        seed=scene.noise_seed,
        config_path=args.config,
        extra={"frames": args.frames, "scale": args.scale},
    )
    return EXIT_OK


def _sim_outputs(args):
    if args.radar == "both":
        base = Path(args.output)
        return [
            ("horizontal", str(base.with_suffix(".h" + base.suffix))),
            ("vertical", str(base.with_suffix(".v" + base.suffix))),
        ]
    return [(args.radar, args.output)]


def cmd_heatmap(args) -> int:
    config = load_config(args.config)
    num_frames, cubes = adc.read_capture(args.adc, config, adc.HORIZONTAL)
    fft_branch = args.branch == "fft"
    angle_fft = spectral.angle_fft_length(config)
    maps = None
    for i, cube in enumerate(cubes):
        # the fft branch averages elevation first, so the RD FFT runs on 1/Q of the cube
        rd = spectral.range_doppler_map(
            spectral.average_elevation(cube, config) if fft_branch else cube
        )
        if args.doppler_keep:
            rd = spectral.sample_doppler(rd, args.doppler_keep, args.doppler_window)
        frame = np.fft.fft(rd.data, n=angle_fft, axis=2) if fft_branch else rd.data
        if maps is None:
            maps = np.empty((num_frames,) + frame.shape, dtype=frame.dtype)
        maps[i] = frame
    digest = tensorio.write_tensor(args.output, maps)
    del maps  # the manifest hashes the capture next; the output need not stay in memory
    write_manifest(
        _manifest_path(args.output),
        command="heatmap",
        inputs={args.adc: None},
        outputs={args.output: digest},
        config_path=args.config,
        extra={"branch": args.branch},
    )
    return EXIT_OK


def _probmap_frame(
    cubes, buffers, fft, config, params, angle_fft, pe, args
) -> list[tuple[str, object]]:
    """One frame pair's probmap outputs as (path, array or sidecar bytes) pairs.

    The vertical cube's RD map is computed on the ``fft`` executor while the
    main thread computes the horizontal one, each into its radar's buffer.
    An error of the horizontal map is raised first, as in serial order.
    """
    frame_index, vectors = cubes[0].frame_index, {}
    # looked up when submitted, so a wrapper installed on the module is called
    vertical = fft.submit(spectral.range_doppler_map, cubes[1], out=buffers[1])
    horizontal = spectral.range_doppler_map(cubes[0], out=buffers[0])
    for rd in (horizontal, vertical.result()):
        bins = cfar.select_range_bins(cfar.detect_2d(spectral.magnitude_map(rd), params))
        angle = spectral.P_AXIS_ANGLE[rd.radar_id]
        spectrum = probmap.angle_spectrum(rd, config, bins, angle, angle_fft=angle_fft)
        vectors[angle] = probmap.normalize(spectrum)
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


def cmd_probmap(args) -> int:
    config = load_config(args.config)
    angle_fft = spectral.angle_fft_length(config, args.angle_fft)
    count_h, cubes_h = adc.read_capture(args.adc_h, config, adc.HORIZONTAL)
    count_v, cubes_v = adc.read_capture(args.adc_v, config, adc.VERTICAL)
    if count_h != count_v:
        raise adc.AdcError(
            f"frame count mismatch: horizontal has {count_h}, vertical has {count_v}"
        )
    params = cfar.CfarParams(guard=args.cfar_guard, reference=args.cfar_ref, pfa=args.pfa)
    pe = probmap.positional_encoding(angle_fft, angle_fft, args.pe_depth)
    # one RD map buffer per radar, allocated once and reused by every frame
    rd_shape = spectral.range_doppler_shape(
        (config.num_adc_samples, config.num_chirps, config.num_virtual)
    )
    buffers = [np.empty(rd_shape, dtype=np.complex128) for _ in range(2)]
    # imported here: concurrent.futures pulls in logging, about 10 ms of
    # start-up that no other command needs
    from concurrent.futures import ThreadPoolExecutor

    inputs, outputs = [args.adc_h, args.adc_v], {}
    # Two threads besides main: the FFT worker computes the vertical RD map
    # of the frame the main thread is on, and the writer runs one frame
    # behind: frame k's files are written and hashed while frame k+1 is
    # computed. Frame k's write is waited on before frame k+1's is submitted
    # and before any error of frame k+1 escapes, so the exit code and the
    # files on disk are those of writing each frame in turn. The writer's
    # first job hashes the input captures; frame 0's write queues behind it.
    with ThreadPoolExecutor(max_workers=1) as writer, ThreadPoolExecutor(max_workers=1) as fft:
        inputs_hashed = writer.submit(lambda: {p: manifest.sha256_file(p) for p in inputs})
        pending = None
        try:
            for cubes in zip(cubes_h, cubes_v):
                files = _probmap_frame(cubes, buffers, fft, config, params, angle_fft, pe, args)
                if pending is not None:
                    previous, pending = pending, None  # so finally does not wait on it twice
                    outputs.update(previous.result())
                pending = writer.submit(_write_files, files)
        finally:
            if pending is not None:
                outputs.update(pending.result())
    write_manifest(
        _manifest_path(args.output),
        command="probmap",
        inputs=inputs_hashed.result(),
        outputs=outputs,
        config_path=args.config,
        extra={
            "cfar": {"guard": params.guard, "reference": params.reference, "pfa": params.pfa},
            "pe_depth": args.pe_depth,
        },
    )
    return EXIT_OK


def cmd_fuse(args) -> int:
    t1 = tensorio.read_tensor(args.tensor1)
    t2 = tensorio.read_tensor(args.tensor2)
    fused = fusion.fuse_add(fusion.FeatureTensor(values=t1), fusion.FeatureTensor(values=t2))
    digest = tensorio.write_tensor(args.output, fused.values)
    write_manifest(
        _manifest_path(args.output),
        command="fuse",
        inputs={args.tensor1: None, args.tensor2: None},
        outputs={args.output: digest},
    )
    return EXIT_OK


def cmd_eval(args) -> int:
    preds = load_keypoint_frames(args.pred)
    gts = load_keypoint_frames(args.gt)
    params = load_oks_params(args.oks_config) if args.oks_config else OksParams()
    values = oks_per_frame(preds, gts, params)
    report = ap_summary(values)
    report["per_frame_oks"] = values
    text = json.dumps(report, indent=2, sort_keys=True) + "\n"
    if args.output:
        data = text.encode()
        Path(args.output).write_bytes(data)
        write_manifest(
            _manifest_path(args.output),
            command="eval",
            inputs=dict.fromkeys(
                [args.pred, args.gt] + ([args.oks_config] if args.oks_config else [])
            ),
            outputs={args.output: hashlib.sha256(data).hexdigest()},
        )
    else:
        sys.stdout.write(text)
    return EXIT_OK


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
        return args.func(args)
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
