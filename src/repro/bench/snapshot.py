"""One-file benchmark snapshot, deterministic enough to commit.

``BENCH_smoke.json`` at the repo root is the committed smoke-scale
snapshot: every target's ``repro-bench/1`` document in one JSON file,
with the wall-clock-dependent fields stripped so two runs of the same
tree -- serial or parallel, laptop or CI -- produce byte-identical
output.  CI regenerates it on every push and fails if it drifts from
the committed file, which turns any behaviour change that moves a
benchmark counter into a reviewable diff; the unstripped per-target
documents are uploaded as a build artifact alongside.
"""

from __future__ import annotations

from pathlib import Path
from typing import Union

from .. import doc as _doc
from .schema import SCHEMA, STRIPPED_SHAPE, strip_wall_clock

#: schema tag of the combined snapshot document
SNAPSHOT_SCHEMA = "repro-bench-snapshot/1"

SHAPE = {
    "schema": str,
    "scale?": (str, None),
    "targets": {"*": STRIPPED_SHAPE},
}


def snapshot_doc(docs: dict[str, dict], scale: str) -> dict:
    """Combine per-target BENCH documents into one snapshot document."""
    return {
        "schema": SNAPSHOT_SCHEMA,
        "bench_schema": SCHEMA,
        "scale": scale,
        "targets": {
            name: strip_wall_clock(docs[name]) for name in sorted(docs)
        },
    }


def write_snapshot(docs: dict[str, dict], scale: str,
                   destination: Union[str, Path]) -> Path:
    """Write the combined snapshot as canonical JSON; returns the path."""
    return _doc.write(destination, _doc.pretty(snapshot_doc(docs, scale)))


def load_snapshot(path: Union[str, Path]) -> dict:
    """Load a snapshot document, checking its schema tag and shape."""
    return _doc.read(path, SNAPSHOT_SCHEMA, SHAPE)
