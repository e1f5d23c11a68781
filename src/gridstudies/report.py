"""Run records: manifests (what ran, with which configuration, and what it
wrote), summary text and the study CSVs."""

from __future__ import annotations

import csv
import hashlib
import json
import os
from dataclasses import dataclass, field
from datetime import datetime, timezone

from . import __version__

TOOL_NAME = "gridstudies"
MANIFEST_NAME = "manifest.json"


def config_hash(config: dict) -> str:
    """Order-independent digest of a JSON-serializable configuration."""
    canonical = json.dumps(config, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()


@dataclass
class RunManifest:
    """Record of one study run, written next to its outputs.

    Emitted on success and on failure alike; a failed run carries the
    error text so the partial outputs can be interpreted.
    """

    config: dict
    seed: int
    elapsed_s: float = 0.0
    outputs: list = field(default_factory=list)   # (name, size) pairs
    error: str | None = None
    started_utc: str = ""

    def __post_init__(self):
        if not self.started_utc:
            self.started_utc = datetime.now(timezone.utc).isoformat()

    def add_output(self, path):
        self.outputs.append((os.path.basename(str(path)),
                             os.path.getsize(path)))

    def to_dict(self) -> dict:
        return {
            "tool": TOOL_NAME,
            "version": __version__,
            "config": self.config,
            "config_hash": config_hash(self.config),
            "seed": self.seed,
            "started_utc": self.started_utc,
            "elapsed_seconds": round(self.elapsed_s, 3),
            "outputs": [{"name": name, "bytes": size}
                        for name, size in self.outputs],
            "error": self.error,
        }


def write_manifest(out_dir, manifest: RunManifest) -> str:
    path = os.path.join(str(out_dir), MANIFEST_NAME)
    with open(path, "w") as fh:
        json.dump(manifest.to_dict(), fh, indent=2)
        fh.write("\n")
    return path


def read_manifest(out_dir) -> dict:
    with open(os.path.join(str(out_dir), MANIFEST_NAME)) as fh:
        return json.load(fh)


def summary_block(pairs) -> list:
    """'label = value' lines from (label, value) pairs; floats kept short."""
    lines = []
    for label, value in pairs:
        if isinstance(value, float):
            value = f"{value:g}"
        lines.append(f"{label} = {value}")
    return lines


def write_csv(path, header, rows) -> None:
    """Write a study CSV: every float cell as repr(float(v)), which reads
    back bit for bit; other cells as the csv module prints them."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows([repr(float(v)) if isinstance(v, float) else v
                          for v in row] for row in rows)


def write_text(path, lines) -> None:
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")
