"""The ``repro-trace/1`` bundle: a byte-stable container for traces.

A bundle holds everything needed to re-simulate a recorded run:

* ``config`` -- the recording run's spec (workload/args for provenance)
  plus the fully resolved machine parameters and policy, so a replay can
  rebuild an identical kernel and then apply variant overrides;
* ``layout`` -- the post-setup virtual memory image (objects with
  per-page placement, address spaces with bindings, threads in spawn
  order, broadcast channels with base versions).  Ids are sequential on
  a fresh kernel, so recreating the layout in recorded order reproduces
  identical object/aspace/thread/Cpage identities;
* ``expected`` -- the recording run's final sim time, counter dict and
  executed-event count, which CI asserts against same-config replays;
* ``streams`` -- one ``(n_ops, 4)`` float64 array per thread encoding
  ``[kind, a, b, c]`` rows (see the ``K_*`` constants).

The on-disk format is deliberately *not* ``np.savez`` (zip members carry
timestamps, breaking byte-for-byte stability).  It is a magic string, an
8-byte little-endian header length, a canonical-JSON header, then the
raw little-endian array bytes.  Recording the same workload twice yields
identical files, which is what lets CI ``cmp`` trace artifacts.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional, Union

import numpy as np

from .. import doc as _doc

TRACE_SCHEMA = "repro-trace/1"
_MAGIC = b"REPROTRC1\n"
_STREAM_DTYPE = "<f8"
_STREAM_COLS = 4

#: the JSON header; the binary payload's own bounds are ``from_bytes``'s,
#: and ``layout`` is typed as ``replayer._rebuild_layout`` reads it
HEADER_SHAPE = {
    "schema": str,
    "config?": dict,
    "layout?": {
        "objects?": [{"oid": int, "label": str, "n_pages": int,
                      "cpage_start": int, "placement": [(int, None)]}],
        "aspaces?": [{"asid": int, "bindings": [{
            "vpage_start": int, "n_pages": int, "oid": int,
            "obj_page_start": int, "rights": int}]}],
        "channels?": [{"name": str, "base_version": int}],
        "threads?": [{"tid": int, "asid": int, "processor": int,
                      "name": str}],
    },
    "expected?": dict,
    "streams?": [{
        "thread?": int,
        "n_ops": int,
        "offset": int,
        "nbytes": int,
        "dtype?": str,
    }],
}

# -- op kinds (column 0 of a stream row) --------------------------------------
# [kind, a, b, c] with unused operands zero:
K_THINK = 0    # Compute: a = ns
K_READ = 1     # Read:    a = va, b = n words
K_WRITE = 2    # Write:   a = va, b = n words
K_RMW = 3      # TestAndSet/FetchAdd: a = va (one-word write run)
K_MIGRATE = 4  # Migrate: a = target processor
K_WAIT = 5     # WaitNewer: a = channel id, b = seen version
K_FIRE = 6     # Broadcast.fire between ops: a = channel id
K_DELAY = 7    # engine-level Delay: a = ns
K_GETTIME = 8  # GetTime (synchronous, zero cost)


class TraceError(_doc.DocError):
    """A malformed or unreadable trace bundle."""


class RecordError(TraceError):
    """The program did something the recorder cannot capture."""


class ReplayError(TraceError):
    """The requested replay is impossible or failed verification."""


@dataclass
class TraceBundle:
    """An in-memory ``repro-trace/1`` bundle."""

    config: dict
    layout: dict
    expected: dict
    streams: list = field(default_factory=list)
    #: the replayer's caches (``replayer._decoded_streams``): the decoded
    #: op streams with the key -- page size, stream identities -- they
    #: were decoded for, and fast mode's slot tables built from them
    _decoded: Optional[tuple] = field(
        default=None, init=False, repr=False, compare=False)
    _slots: Optional[list] = field(
        default=None, init=False, repr=False, compare=False)

    @property
    def n_threads(self) -> int:
        return len(self.streams)

    @property
    def n_ops(self) -> int:
        return sum(len(s) for s in self.streams)

    def __repr__(self) -> str:
        return (
            f"<TraceBundle {self.config.get('workload')!r} "
            f"threads={self.n_threads} ops={self.n_ops}>"
        )

    # -- serialization -------------------------------------------------------

    def to_bytes(self) -> bytes:
        streams_meta = []
        payloads = []
        offset = 0
        for i, arr in enumerate(self.streams):
            a = np.ascontiguousarray(arr, dtype=_STREAM_DTYPE)
            if a.ndim != 2 or a.shape[1] != _STREAM_COLS:
                raise TraceError(
                    f"stream {i}: expected (n, {_STREAM_COLS}) array, "
                    f"got shape {a.shape}"
                )
            raw = a.tobytes()
            streams_meta.append({
                "thread": i,
                "n_ops": int(a.shape[0]),
                "offset": offset,
                "nbytes": len(raw),
                "dtype": _STREAM_DTYPE,
            })
            payloads.append(raw)
            offset += len(raw)
        header = {
            "schema": TRACE_SCHEMA,
            "config": self.config,
            "layout": self.layout,
            "expected": self.expected,
            "streams": streams_meta,
        }
        header_bytes = _doc.compact(header).encode("utf-8")
        return b"".join([
            _MAGIC,
            struct.pack("<Q", len(header_bytes)),
            header_bytes,
            *payloads,
        ])

    @classmethod
    def from_bytes(cls, raw: bytes) -> "TraceBundle":
        if not raw.startswith(_MAGIC):
            raise TraceError("not a repro-trace bundle (bad magic)")
        pos = len(_MAGIC)
        if len(raw) < pos + 8:
            raise TraceError("truncated bundle header length")
        (header_len,) = struct.unpack_from("<Q", raw, pos)
        pos += 8
        if len(raw) < pos + header_len:
            raise TraceError("truncated bundle header")
        header = _doc.expect(
            _doc.parse(raw[pos: pos + header_len], "bundle header",
                       TraceError),
            "bundle header", TRACE_SCHEMA, HEADER_SHAPE, TraceError)
        payload_start = pos + header_len
        streams = []
        for i, meta in enumerate(header.get("streams", [])):
            start = payload_start + meta["offset"]
            end = start + meta["nbytes"]
            if meta["offset"] < 0 or end > len(raw):
                raise TraceError(
                    f"stream {i}: runs past the end of the bundle")
            try:
                dtype = np.dtype(meta.get("dtype", _STREAM_DTYPE))
                if dtype.kind not in "fiu":  # the decoder reads reals
                    raise TypeError(f"dtype {dtype.str!r} is not real")
                arr = np.frombuffer(raw[start:end], dtype=dtype).reshape(
                    meta["n_ops"], _STREAM_COLS)
            except (TypeError, ValueError) as exc:  # bad dtype or size
                raise TraceError(f"stream {i}: {exc}") from None
            streams.append(arr)
        return cls(
            config=header.get("config", {}),
            layout=header.get("layout", {}),
            expected=header.get("expected", {}),
            streams=streams,
        )

    def save(self, path: Union[str, Path]) -> Path:
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_bytes(self.to_bytes())
        return path

    @classmethod
    def load(cls, path: Union[str, Path]) -> "TraceBundle":
        raw = _doc.read_bytes(path, TraceError)
        try:
            return cls.from_bytes(raw)
        except TraceError as exc:
            raise TraceError(f"{path}: {exc}") from None


def save_trace(bundle: TraceBundle, path: Union[str, Path]) -> Path:
    return bundle.save(path)


def load_trace(path: Union[str, Path]) -> TraceBundle:
    return TraceBundle.load(path)
