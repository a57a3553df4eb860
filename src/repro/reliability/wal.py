"""Write-ahead log for the online engine's accepted mutations.

Every mutation an :class:`~repro.api.OnlineSession` *accepts* (applies
successfully) is logged as one framed record, so a crash loses at most the
op that was in flight — never an acknowledged one — and recovery replays
the tail onto the last checkpoint to rebuild exactly the pre-crash store.

Frame format — one record per line in segment files ``00000001.wal``, …::

    <length:08d><crc32:08x><payload-json>\\n

``length`` is the byte length of the ASCII JSON payload and ``crc32`` its
checksum, so a reader can detect a truncated or corrupted tail without
trusting line discipline: the first frame that fails length, terminator,
CRC or JSON validation ends the *valid prefix*; everything after it is the
*torn tail*, reported (and repaired away on open) rather than replayed.

Records:

* ``{"kind": "open", "base_seq": n, "config": {...}}`` — starts every
  fresh log (and every post-checkpoint truncation): ops with ``seq <= n``
  are covered by the checkpoint, and ``config`` is the
  :class:`~repro.api.SessionConfig` wire form recovery uses to rebuild a
  session when no checkpoint exists;
* ``{"kind": "op", "seq": n, "op": {...}}`` — one accepted
  :class:`~repro.api.MutationOp` in wire form, with a strictly-increasing
  sequence number.

Sync policies (the ``wal_sync`` knob of :mod:`repro.config`): ``always``
fsyncs per record, ``batch`` flushes to the OS per accepted mutation
batch, ``off`` leaves the Python buffer in charge.  Open/rotation control
records are always fsynced — they are rare and recovery anchors on them.
"""

from __future__ import annotations

import json
import os
import time
import zlib
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Tuple, Union

from .. import config as knobs
from ..exceptions import ConfigurationError
from ..obs import count_wal_bytes, count_wal_rotation, observe_wal_sync

__all__ = [
    "WAL_VERSION",
    "FRAME_HEADER_BYTES",
    "SEGMENT_SUFFIX",
    "WalState",
    "read_wal",
    "WriteAheadLog",
]

#: Version of the record schema; bumped on incompatible changes.
WAL_VERSION = 1

#: Bytes of the ASCII frame header (8-digit length + 8-hex-digit CRC32).
FRAME_HEADER_BYTES = 16

SEGMENT_SUFFIX = ".wal"

#: Op records per segment before the log rotates to a fresh file.
DEFAULT_SEGMENT_MAX_RECORDS = 4096


def _frame(payload: bytes) -> bytes:
    header = f"{len(payload):08d}{zlib.crc32(payload) & 0xFFFFFFFF:08x}"
    return header.encode("ascii") + payload + b"\n"


def _encode_record(record: Dict[str, object]) -> bytes:
    return json.dumps(record, separators=(",", ":")).encode("ascii")


def _fsync_file(handle) -> None:
    handle.flush()
    os.fsync(handle.fileno())


def _fsync_dir(path: Path) -> None:
    # Directory fsync makes renames/creates durable on POSIX; platforms
    # that refuse to open directories simply skip it.
    try:
        fd = os.open(path, os.O_RDONLY)
    except OSError:
        return
    try:
        os.fsync(fd)
    except OSError:
        pass
    finally:
        os.close(fd)


def _segments(directory: Path) -> List[Path]:
    return sorted(directory.glob(f"*{SEGMENT_SUFFIX}"))


def _parse_segment(data: bytes):
    """Parse one segment: ``(records, valid_prefix_bytes, torn_reason)``."""
    records: List[Dict[str, object]] = []
    offset = 0
    while offset < len(data):
        if len(data) - offset < FRAME_HEADER_BYTES + 1:
            return records, offset, "truncated frame header"
        header = data[offset:offset + FRAME_HEADER_BYTES]
        try:
            length = int(header[:8])
            crc = int(header[8:], 16)
        except ValueError:
            return records, offset, "unparseable frame header"
        end = offset + FRAME_HEADER_BYTES + length
        if end >= len(data):
            return records, offset, "truncated frame payload"
        payload = data[offset + FRAME_HEADER_BYTES:end]
        if data[end:end + 1] != b"\n":
            return records, offset, "missing frame terminator"
        if zlib.crc32(payload) & 0xFFFFFFFF != crc:
            return records, offset, "frame CRC mismatch"
        try:
            record = json.loads(payload.decode("ascii"))
        except (UnicodeDecodeError, ValueError):
            return records, offset, "frame payload is not valid JSON"
        if not isinstance(record, dict):
            return records, offset, "frame payload is not an object"
        records.append(record)
        offset = end + 1
    return records, offset, None


@dataclass
class WalState:
    """What a scan of a WAL directory found: the recoverable truth."""

    #: Session config wire form from the open record (``None`` if torn away).
    config: Optional[Dict[str, object]] = None
    #: Ops with ``seq <= base_seq`` are covered by the last checkpoint.
    base_seq: int = 0
    #: The valid-prefix op records, ``(seq, op_wire)`` in log order.
    ops: List[Tuple[int, Dict[str, object]]] = field(default_factory=list)
    #: Highest sequence number seen (``base_seq`` when no ops).
    last_seq: int = 0
    #: ``None`` for a clean log, else where and why the valid prefix ended.
    torn: Optional[Dict[str, object]] = None
    #: Segment file names, in order.
    segments: List[str] = field(default_factory=list)
    #: Whether any open record survived (False only for empty/fully-torn logs).
    has_open: bool = False


def _scan(directory: Path) -> WalState:
    state = WalState()
    segments = _segments(directory)
    state.segments = [segment.name for segment in segments]
    for position, segment in enumerate(segments):
        data = segment.read_bytes()
        records, valid_bytes, reason = _parse_segment(data)
        for record in records:
            kind = record.get("kind")
            if kind == "open" and not state.has_open:
                state.base_seq = int(record.get("base_seq", 0))
                state.last_seq = max(state.last_seq, state.base_seq)
                config = record.get("config")
                state.config = config if isinstance(config, dict) else None
                state.has_open = True
            elif kind == "op":
                seq = int(record.get("seq", 0))
                op = record.get("op")
                if isinstance(op, dict):
                    state.ops.append((seq, op))
                    state.last_seq = max(state.last_seq, seq)
            # Unknown record kinds are skipped for forward compatibility.
        if reason is not None:
            state.torn = {
                "segment": segment.name,
                "offset": valid_bytes,
                "reason": reason,
                "dropped_bytes": len(data) - valid_bytes,
                "dropped_segments": [s.name for s in segments[position + 1:]],
            }
            break
    return state


def read_wal(directory: Union[str, Path]) -> WalState:
    """Read-only scan of a WAL directory (valid prefix + torn-tail report)."""
    directory = Path(directory)
    if not directory.is_dir():
        raise ConfigurationError(f"no WAL directory at {directory}")
    return _scan(directory)


class WriteAheadLog:
    """Append-only durable log of accepted mutation ops.

    Opening an existing directory adopts its state: the valid prefix is
    kept, a torn tail (from a crash mid-frame) is truncated away and
    reported through :attr:`repaired`, and appends continue from the last
    good sequence number.  ``injector`` threads a
    :class:`~repro.reliability.FaultPlan` through every byte written.
    """

    def __init__(
        self,
        directory: Union[str, Path],
        *,
        sync: Optional[str] = "default",
        segment_max_records: int = DEFAULT_SEGMENT_MAX_RECORDS,
        config: Optional[Dict[str, object]] = None,
        injector=None,
    ):
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self.sync = knobs.resolve("wal_sync", sync)
        if segment_max_records < 1:
            raise ConfigurationError(
                f"segment_max_records must be positive, got {segment_max_records}"
            )
        self.segment_max_records = int(segment_max_records)
        self._injector = injector
        self._handle = None
        #: Torn-tail info repaired away on open (``None`` for a clean log).
        self.repaired: Optional[Dict[str, object]] = None

        state = _scan(self.directory)
        if state.torn is not None:
            self._repair(state.torn)
            self.repaired = state.torn
        self._config = state.config if state.config is not None else config
        self._base_seq = state.base_seq
        self._last_seq = state.last_seq

        segments = _segments(self.directory)
        if not segments or not state.has_open:
            # Fresh log (or one whose open record was torn away before any
            # op survived): drop empty leftovers and start at segment 1.
            for segment in segments:
                segment.unlink()
            self._segment_index = 0
            self._segment_records = 0
            self._open_segment(write_open=True)
        else:
            self._segment_index = int(segments[-1].stem)
            last_records, _, _ = _parse_segment(segments[-1].read_bytes())
            self._segment_records = sum(
                1 for record in last_records if record.get("kind") == "op"
            )
            self._handle = open(segments[-1], "ab")

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #
    @property
    def last_seq(self) -> int:
        """Sequence number of the last logged op."""
        return self._last_seq

    @property
    def base_seq(self) -> int:
        """Ops at or below this sequence are covered by the checkpoint."""
        return self._base_seq

    @property
    def config(self) -> Optional[Dict[str, object]]:
        """The session-config wire form recovery rebuilds a session from."""
        return self._config

    def stats(self) -> Dict[str, object]:
        """Observability document: lag, sizes, sync policy, repairs."""
        segments = _segments(self.directory)
        return {
            "sync": self.sync,
            "base_seq": self._base_seq,
            "last_seq": self._last_seq,
            # Ops logged since the last checkpoint = what replay would redo.
            "lag_records": self._last_seq - self._base_seq,
            "segments": len(segments),
            "bytes": sum(segment.stat().st_size for segment in segments),
            "repaired_tail": self.repaired,
        }

    # ------------------------------------------------------------------ #
    # Writing
    # ------------------------------------------------------------------ #
    def log_op(self, op_wire: Dict[str, object]) -> int:
        """Append one accepted op; returns its sequence number.

        Under ``sync="always"`` the record is fsynced before returning;
        under ``"batch"`` call :meth:`commit` at the batch boundary.
        """
        if self._handle is None:
            raise ConfigurationError("this write-ahead log is closed")
        seq = self._last_seq + 1
        payload = _encode_record({"kind": "op", "seq": seq, "op": op_wire})
        # On a failed write nothing (or a torn frame the reader drops)
        # landed, and the sequence number is not consumed.
        frame = _frame(payload)
        self._write(frame, site="wal.frame")
        count_wal_bytes(len(frame))
        self._last_seq = seq
        self._segment_records += 1
        if self.sync == "always":
            sync_started = time.perf_counter()
            _fsync_file(self._handle)
            observe_wal_sync(
                time.perf_counter() - sync_started, policy="always"
            )
        if self._segment_records >= self.segment_max_records:
            self._rotate()
        return seq

    def log_ops(self, op_wires) -> int:
        """Append a batch of accepted ops and commit once; returns last seq."""
        try:
            for op_wire in op_wires:
                self.log_op(op_wire)
        finally:
            self.commit()
        return self._last_seq

    def commit(self) -> None:
        """Batch boundary: under ``"batch"`` push buffered records to the OS."""
        if self._handle is not None and self.sync == "batch":
            flush_started = time.perf_counter()
            self._handle.flush()
            observe_wal_sync(
                time.perf_counter() - flush_started, policy="batch"
            )

    def truncate(self, config: Optional[Dict[str, object]] = None) -> None:
        """Reset the log after a committed checkpoint.

        Every logged op is now covered by the artifact, so all segments
        are deleted and a fresh one opens with ``base_seq = last_seq``.
        """
        if config is not None:
            self._config = config
        if self._handle is not None:
            self._handle.close()
            self._handle = None
        for segment in _segments(self.directory):
            segment.unlink()
        _fsync_dir(self.directory)
        self._base_seq = self._last_seq
        self._segment_index = 0
        self._segment_records = 0
        self._open_segment(write_open=True)

    def close(self) -> None:
        """Flush, fsync and close the current segment."""
        if self._handle is None:
            return
        _fsync_file(self._handle)
        self._handle.close()
        self._handle = None

    def __enter__(self) -> "WriteAheadLog":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ------------------------------------------------------------------ #
    # Internals
    # ------------------------------------------------------------------ #
    def _write(self, data: bytes, site: str) -> None:
        raise_after = None
        if self._injector is not None:
            data, raise_after = self._injector.intercept_write(site, data)
        self._handle.write(data)
        if raise_after is not None:
            # A torn write leaves its prefix visible on disk, like a real
            # crash mid-write would.
            self._handle.flush()
            raise raise_after

    def _open_segment(self, write_open: bool) -> None:
        self._segment_index += 1
        path = self.directory / f"{self._segment_index:08d}{SEGMENT_SUFFIX}"
        self._handle = open(path, "ab")
        self._segment_records = 0
        if write_open:
            payload = _encode_record({
                "kind": "open",
                "wal_version": WAL_VERSION,
                "base_seq": self._base_seq,
                "config": self._config,
            })
            self._write(_frame(payload), site="wal.control")
        # Control records and fresh files are rare: anchor them durably
        # regardless of the sync policy.
        _fsync_file(self._handle)
        _fsync_dir(self.directory)

    def _rotate(self) -> None:
        _fsync_file(self._handle)
        self._handle.close()
        self._open_segment(write_open=False)
        count_wal_rotation()

    def _repair(self, torn: Dict[str, object]) -> None:
        """Truncate the torn tail so appends continue after the valid prefix."""
        segment = self.directory / str(torn["segment"])
        with open(segment, "r+b") as handle:
            handle.truncate(int(torn["offset"]))
            _fsync_file(handle)
        for name in torn["dropped_segments"]:
            (self.directory / str(name)).unlink(missing_ok=True)
        _fsync_dir(self.directory)

    def __repr__(self) -> str:
        return (
            f"WriteAheadLog({str(self.directory)!r}, sync={self.sync!r}, "
            f"base_seq={self._base_seq}, last_seq={self._last_seq})"
        )
