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
    inputs: list[str | Path],
    outputs: list[str | Path],
    seed: int | None = None,
    config_path: str | Path | None = None,
    extra: dict | None = None,
    digests: dict[str, str] | None = None,
) -> dict:
    """Record command, content digests, seed and tool version for one run.

    ``digests`` maps a path to the hex SHA-256 of the bytes the caller wrote
    or read there; every other file is hashed from disk. The manifest carries the wall-clock timestamp, so it is
    excluded from byte-identity comparisons; the artifacts themselves are
    deterministic.
    """
    from . import __version__

    known = digests or {}

    def digest(p):
        return known.get(str(p)) or sha256_file(p)

    doc = {
        "command": command,
        "config_sha256": sha256_file(config_path) if config_path else None,
        "inputs": {str(p): digest(p) for p in inputs},
        "outputs": {str(p): digest(p) for p in outputs},
        "seed": seed,
        "tool_version": __version__,
        "timestamp_utc": datetime.datetime.now(datetime.timezone.utc).isoformat(),
    }
    if extra:
        doc.update(extra)
    Path(path).write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    return doc
