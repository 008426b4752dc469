"""Reproducibility manifests written next to every CLI output."""

from __future__ import annotations

import datetime
import hashlib
import json
from pathlib import Path


def sha256_file(path: str | Path) -> str:
    """Hex SHA-256 of a file, read through one reused 1 MiB buffer."""
    h = hashlib.sha256()
    buf = bytearray(1 << 20)
    view = memoryview(buf)
    with open(path, "rb", buffering=0) as fh:
        while n := fh.readinto(buf):
            h.update(view[:n])
    return h.hexdigest()


def write_manifest(
    path: str | Path,
    command: str,
    inputs: dict[str, str | None],
    outputs: dict[str, str],
    seed: int | None = None,
    config_path: str | Path | None = None,
    extra: dict | None = None,
) -> None:
    """Record command, content digests, seed and tool version for one run.

    ``outputs`` maps each path to the hex SHA-256 of the bytes written there;
    ``inputs`` maps each path to its digest, or to None to hash the file from
    disk. The manifest carries the wall-clock timestamp, so it is excluded
    from byte-identity comparisons; the artifacts themselves are
    deterministic.
    """
    from . import __version__

    doc = {
        "command": command,
        "config_sha256": sha256_file(config_path) if config_path else None,
        "inputs": {
            str(p): sha256_file(p) if digest is None else digest for p, digest in inputs.items()
        },
        "outputs": {str(p): digest for p, digest in outputs.items()},
        "seed": seed,
        "tool_version": __version__,
        "timestamp_utc": datetime.datetime.now(datetime.timezone.utc).isoformat(),
    }
    if extra:
        doc.update(extra)
    Path(path).write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
