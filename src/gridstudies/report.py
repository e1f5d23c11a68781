"""Run records: manifests (what ran, with which configuration, and what it
wrote), summary text and the study CSVs."""

from __future__ import annotations

import csv
import hashlib
import io
import json
import os
from datetime import datetime, timezone

import numpy as np

from . import __version__
from .record import field, record

TOOL_NAME = "gridstudies"
MANIFEST_NAME = "manifest.json"


def config_hash(config: dict) -> str:
    """Order-independent digest of a JSON-serializable configuration."""
    canonical = json.dumps(config, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()


@record
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


def summary_block(pairs) -> list:
    """'label = value' lines from (label, value) pairs; floats kept short."""
    lines = []
    for label, value in pairs:
        if isinstance(value, float):
            value = f"{value:g}"
        lines.append(f"{label} = {value}")
    return lines


# Rows formatted and written per block: enough that the per-block calls cost
# little, few enough that a block's floats and text (about 40 kB for 15
# columns) fit in memory the process already holds, which whole columns do not.
BLOCK_ROWS = 32


def _quoted(labels, alone: bool) -> dict:
    """Each distinct label once through csv.writer: its cell text by label.
    A lone empty field is quoted (csv's empty-row rule), so `alone` says
    whether the table has one column."""
    buf = io.StringIO()
    writer = csv.writer(buf)
    cells = {}
    for label in dict.fromkeys(labels):
        buf.seek(0)
        buf.truncate()
        writer.writerow([label] if alone else [label, None])
        cells[label] = buf.getvalue()[:-2 if alone else -3]
    return cells


def _cell_text(column, alone: bool):
    """A function from a slice of the column to its cells as text."""
    if isinstance(column, np.ndarray) and column.dtype.kind in "fiub":
        text = float.__repr__ if column.dtype.kind == "f" else int.__repr__
        return lambda part: map(text, part.tolist())
    cells = _quoted(column, alone)
    return lambda part: map(cells.__getitem__, part)


def write_columns(path, header, columns) -> None:
    """Write a study CSV from equal-length columns, a block of rows at a time.

    A float array prints each cell as repr(float(v)), which reads back bit
    for bit; an integer or boolean array as the int; any other sequence is
    a label column, each cell as csv.writer prints it.  Lines end in CR LF,
    so the bytes are those of csv.writer given the same cells."""
    if len(columns) != len(header):
        raise ValueError(f"header names {len(header)} columns, "
                         f"got {len(columns)}")
    lengths = {len(column) for column in columns}
    if len(lengths) > 1:
        raise ValueError(f"columns differ in length: {sorted(lengths)}")
    n_rows = lengths.pop() if lengths else 0
    texts = [_cell_text(column, len(columns) == 1) for column in columns]
    with open(path, "w", newline="") as fh:
        csv.writer(fh).writerow(header)
        for start in range(0, n_rows, BLOCK_ROWS):
            stop = start + BLOCK_ROWS
            cells = [text(column[start:stop])
                     for column, text in zip(columns, texts)]
            fh.write("\r\n".join(map(",".join, zip(*cells))))
            fh.write("\r\n")


def write_text(path, lines) -> None:
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")
