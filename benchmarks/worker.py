"""Benchmark worker: one fresh process that imports the CLI, warms it up and,
in ``run`` mode, times back-to-back invocations (a closed loop with one
client).

    python3 benchmarks/worker.py '<json spec>'

The spec gives ``mode`` (``setup`` or ``run``), ``warm_argv``, ``workload``,
``inputs``, ``run_dir``, ``seconds``, ``trace`` and ``result``, the path the
worker writes its JSON result to. ``radarpose`` must be importable (the
parent puts ``src`` on PYTHONPATH).

Nothing but the standard library is imported before set-up is timed, so
``setup_s`` includes the import of numpy that ``radarpose.cli`` pulls in.
"""

import dataclasses
import json
import resource
import shutil
import sys
import time
from pathlib import Path

MIN_INVOCATIONS = 3
MAX_INVOCATIONS = 500


def calibrate() -> float:
    """Seconds a fixed kernel takes right now.

    The kernel mixes what the CLI spends its time on: int16 de-interleave
    and FFTs in NumPy, then an interpreter-bound dict loop. The host's speed
    drifts by tens of percent over minutes; timing the kernel around each
    invocation lets the parent express times at one nominal speed.
    """
    import numpy as np

    raw = np.arange(1 << 20, dtype=np.int64).astype(np.int16)
    start = time.perf_counter()
    for _ in range(4):
        groups = raw.reshape(-1, 4).astype(np.float64)
        cube = (groups[:, :2] + 1j * groups[:, 2:]).reshape(-1, 64, 16, 8)
        np.abs(np.fft.fft(np.fft.fft(cube, axis=1), axis=2)).sum()
    table = {}
    for i in range(100_000):
        table[i % 1000] = table.get(i % 1000, 0) + i
    return time.perf_counter() - start


def main(spec: dict) -> None:
    t0 = time.perf_counter()
    from radarpose import cli

    warm_rc = cli.main(spec["warm_argv"])
    setup_s = time.perf_counter() - t0
    result = {"setup_s": setup_s, "setup_calibration": calibrate(), "warm_rc": warm_rc}
    if spec["mode"] == "run" and warm_rc == 0:
        result.update(timed_loop(cli, spec))
    result["maxrss_bytes"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024
    Path(spec["result"]).write_text(json.dumps(result))


def timed_loop(cli, spec: dict) -> dict:
    """Invoke the CLI until ``seconds`` have passed; in trace mode every
    second invocation runs with the tracer installed.

    Each invocation writes into its own directory. A directory whose
    artifacts hash the same as the first invocation's is deleted at once;
    the parent checks the first one and any that differ.
    """
    import oracle
    import workloads
    from tracing import Tracer

    wl = workloads.WORKLOADS[spec["workload"]]
    inputs, run_dir = Path(spec["inputs"]), Path(spec["run_dir"])
    tracer = Tracer() if spec["trace"] else None
    invocations = []
    min_count = 2 * MIN_INVOCATIONS if tracer else MIN_INVOCATIONS
    deadline = time.perf_counter() + spec["seconds"]
    first_digest = None
    k = 0
    while k < MAX_INVOCATIONS and (k < min_count or time.perf_counter() < deadline):
        out = run_dir / f"inv{k:03d}"
        out.mkdir()
        argv = workloads.cli_argv(wl, inputs, out)
        traced = tracer is not None and k % 2 == 1
        calibration_before = calibrate()
        if traced:
            tracer.install(k)
        start = time.perf_counter()
        try:
            rc = cli.main(argv)
        finally:
            wall = time.perf_counter() - start
            if traced:
                tracer.uninstall()
        calibration = (calibration_before + calibrate()) / 2
        digest = oracle.artifact_digest(out)
        if first_digest is None:
            first_digest = digest
        kept = k == 0 or digest != first_digest
        if not kept:
            shutil.rmtree(out)
        invocations.append({"run_id": k, "rc": rc, "wall": wall,
                            "calibration": calibration, "traced": traced,
                            "digest": digest, "dir": str(out) if kept else None})
        k += 1
    result = {"invocations": invocations}
    if tracer:
        spans_path = run_dir / "spans.json"
        spans_path.write_text(json.dumps([dataclasses.asdict(s) for s in tracer.spans]))
        result["spans"] = str(spans_path)
        result["counts"] = {str(k): dict(v) for k, v in tracer.counts.items()}
    return result


if __name__ == "__main__":
    main(json.loads(sys.argv[1]))
