"""Run one benchmark workload and print its metrics.

    python3 benchmarks/run.py --workload probmap_large --seed 1 --seconds 15 --trace 0

Run it from the repository root. It generates the workload's inputs from
the seed (cached under ``.bench_work/``), starts fresh worker processes
that drive ``radarpose.cli.main`` in-process, checks every invocation's
outputs, and prints as its last stdout line one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. ``--trace 0``
reports the end-to-end metrics; ``--trace 1`` runs traced and untraced
invocations alternately and reports the per-layer metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

import oracle
import workloads as W
from tracing import TIME_METRICS, Span, layer_metrics, unit

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".bench_work"
SETUP_SAMPLES = 5     # fresh workers timed for setup_s, the timed worker included
TIME_LIMIT_S = 170    # every worker must have ended by then
NOMINAL_CALIBRATION_S = 0.13  # typical worker.calibrate() time on the 2-core host the baseline was measured on


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


class Workers:
    """Starts worker processes one at a time and waits for each to end."""

    def __init__(self, wl, inputs: Path, run_dir: Path, deadline: float):
        self.wl, self.inputs, self.run_dir, self.deadline = wl, inputs, run_dir, deadline
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            [str(ROOT / "src")] + ([self.env["PYTHONPATH"]] if self.env.get("PYTHONPATH") else [])
        )

    def start(self, mode: str, tag: str, seconds: float = 0.0, trace: bool = False) -> dict:
        warm_dir = self.run_dir / f"warm-{tag}"
        warm_dir.mkdir()
        result = self.run_dir / f"result-{tag}.json"
        spec = {
            "mode": mode, "workload": self.wl.name, "inputs": str(self.inputs),
            "run_dir": str(self.run_dir), "seconds": seconds, "trace": trace,
            "warm_argv": W.cli_argv(self.wl, self.inputs, warm_dir, warm=True),
            "result": str(result),
        }
        subprocess.run(
            [sys.executable, str(HERE / "worker.py"), json.dumps(spec)],
            env=self.env, stdout=sys.stderr, check=True,
            timeout=max(1.0, self.deadline - time.monotonic()),
        )
        return json.loads(result.read_text())


def check_invocations(wl, scene, invocations) -> tuple[int, int, str]:
    """(attempted, failed, artifact digest) over every timed invocation.

    Invocations whose artifacts are byte-identical to the first share its
    verdict; every other one is checked on its own.
    """
    check = oracle.CHECKS[wl.command]
    verdicts = {}
    attempted = failed = 0
    for inv in invocations:
        attempted += wl.radar_frames
        if inv["dir"] is not None:
            verdicts[inv["digest"]] = check(Path(inv["dir"]), wl, scene)
        failed += wl.radar_frames if inv["rc"] != 0 else verdicts[inv["digest"]]
    return attempted, failed, invocations[0]["digest"]


def at_nominal_speed(seconds: float, calibration: float) -> float:
    """``seconds`` measured while the calibration kernel took ``calibration``
    seconds, rescaled to a host on which it takes NOMINAL_CALIBRATION_S."""
    return seconds * NOMINAL_CALIBRATION_S / calibration


def end_to_end(wl, setups, run, invocations) -> dict:
    rates = [wl.radar_frames / at_nominal_speed(i["wall"], i["calibration"])
             for i in invocations]
    return {
        "frames_per_s": (statistics.median(rates), "frames/s", len(rates)),
        "setup_s": (statistics.median(at_nominal_speed(*s) for s in setups), "s", len(setups)),
        "peak_rss_mb": (run["maxrss_bytes"] / 1e6, "MB", 1),
        "output_mb": (oracle.output_bytes(Path(invocations[0]["dir"])) / 1e6, "MB", 1),
    }


def raw_medians(wl, setups, invocations) -> str:
    fps = statistics.median(wl.radar_frames / i["wall"] for i in invocations)
    setup = statistics.median(s for s, _ in setups)
    calib = statistics.median(i["calibration"] for i in invocations)
    return (f"unscaled: frames_per_s {fps:.3f}, setup_s {setup:.4f}; "
            f"calibration kernel {calib:.4f} s (nominal {NOMINAL_CALIBRATION_S} s)")


def per_layer(wl, run, invocations) -> dict:
    spans = [Span(**s) for s in json.loads(Path(run["spans"]).read_text())]
    samples = []
    for inv in invocations:
        if not inv["traced"]:
            continue
        counts = Counter(run["counts"].get(str(inv["run_id"]), {}))
        m = layer_metrics(spans, inv["run_id"], counts, inv["wall"], wl.radar_frames)
        covered = sum(m[name] for name in TIME_METRICS) + m["cli.self_s"]
        if abs(covered - inv["wall"]) > 1e-6 * max(1.0, inv["wall"]):
            raise RuntimeError(f"self times cover {covered} s of a {inv['wall']} s invocation")
        samples.append(m)
    untraced = statistics.median(i["wall"] for i in invocations if not i["traced"])
    traced = statistics.median(i["wall"] for i in invocations if i["traced"])
    out = {name: (statistics.median(s[name] for s in samples), unit(name), len(samples))
           for name in samples[0]}
    out["trace.overhead_frac"] = (traced / untraced - 1.0, "ratio", len(samples))
    return out


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "radarpose" / "cli.py").is_file():
        print(f"error: no radarpose sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.workload not in W.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; one of {sorted(W.WORKLOADS)}",
              file=sys.stderr)
        return 2
    deadline = time.monotonic() + TIME_LIMIT_S
    wl = W.WORKLOADS[args.workload]
    inputs = W.ensure_inputs(wl, args.seed, WORK / "inputs")
    run_dir = WORK / "runs" / wl.name
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    workers = Workers(wl, inputs, run_dir, deadline)
    try:
        setups = [] if args.trace else [
            workers.start("setup", f"s{i}") for i in range(SETUP_SAMPLES - 1)
        ]
        run = workers.start("run", "run", seconds=args.seconds, trace=bool(args.trace))
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired) as exc:
        print(f"error: worker failed: {exc}", file=sys.stderr)
        return 1
    if "invocations" not in run:
        print(f"error: warm-up invocation exited with {run['warm_rc']}", file=sys.stderr)
        return 1
    invocations = run["invocations"]
    attempted, failed, digest = check_invocations(wl, W.make_scene(wl.config, args.seed),
                                                  invocations)
    print(f"workload {wl.name} seed {args.seed} trace {args.trace}: "
          f"{len(invocations)} invocations of {wl.radar_frames} radar-frames")
    print(f"artifact_sha256 {digest}")
    if args.trace:
        metrics = per_layer(wl, run, invocations)
    else:
        setups = [(w["setup_s"], w["setup_calibration"]) for w in setups + [run]]
        metrics = end_to_end(wl, setups, run, invocations)
        metrics["check_pass_ratio"] = (1.0 - failed / attempted, "ratio", attempted)
        print(raw_medians(wl, setups, invocations))
    shutil.rmtree(run_dir, ignore_errors=True)

    for name, (value, unit, n) in metrics.items():
        print(f"  {name:30s} {value:16.6f} {unit:9s} n={n}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit, _) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
