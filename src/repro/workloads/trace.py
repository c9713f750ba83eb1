"""Trace-driven workloads: the ``.rtrace`` binary access-trace format.

Every workload the simulator runs natively is a hand-written synthetic
proxy.  This module makes memory-access *traces* first-class workloads
instead: any existing :class:`~repro.workloads.base.Workload` can be frozen
into a compact binary trace (:func:`record_trace`), traces can be generated
from statistical sharing profiles (:func:`synthesize_trace`), and a
:class:`TraceWorkload` streams a trace of millions of ops back through the
machine one decompressed chunk per thread at a time, so the trace is never
held in memory whole.

Format (``.rtrace``, version 1)
-------------------------------

Little-endian throughout.  A fixed header::

    offset  size  field
    0       4     magic ``b"RTRC"``
    4       1     format version (1)
    5       1     log2(cache-line size)
    6       2     thread count (u16)
    8       8     total op count (u64, patched on close)
    16      32    content digest (sha256, patched on close)
    48      4     metadata length (u32)
    52      n     metadata (canonical JSON, UTF-8)

followed by zlib-framed chunks.  Each frame is ``0xF7``, then varints for
thread id, op count, decompressed length and compressed length, then the
zlib payload.  A final ``0xF8`` end frame carries one varint op count per
thread, so a byte-cleanly truncated file is still detected.  Records inside
a frame are one head byte — ``kind | size_log2 << 3 | need_value << 5`` —
then per-kind varint fields; memory-op addresses are zigzag deltas against
the thread's previous address, which keeps hot loops to 2-3 bytes per op.

The content digest hashes each thread's *record bytes* (not the frames), so
it is independent of chunking: the same op streams always digest the same,
whatever ``chunk_ops`` wrote them.

Determinism contract
--------------------

Capture is a pure pass-through tap: the recorded run is bit-for-bit the
live run, and replaying the trace under the *same* protocol mode, machine
config and core model is cycle-for-cycle identical to the live workload
(the simulator is a deterministic function of the per-thread op streams
and the zeroed initial memory).  A trace freezes value-dependent control
flow — spinlock spins, CAS retries — exactly as they unfolded under the
capture mode, so replay under a *different* mode is a valid workload but
not a cycle-identity oracle; record one trace per mode when you need one.

Nothing in this codec touches ``pickle``: malformed input raises a
structured :class:`TraceFormatError`, never executes data.
"""

from __future__ import annotations

import hashlib
import json
import os
import zlib
from dataclasses import asdict, dataclass, field
from random import Random
from typing import Any, Dict, Iterator, List, Optional

from repro.common.errors import ConfigError, ReproError
from repro.cpu import ops
from repro.cpu.ops import (
    OP_COMPUTE,
    OP_FENCE,
    OP_LOAD,
    OP_RMW,
    OP_STORE,
    CasModify,
    FetchAddModify,
    Op,
)

__all__ = [
    "TraceFormatError", "TraceInfo", "TraceRef", "TraceWriter",
    "TraceWorkload", "SharingProfile",
    "record_trace", "synthesize_trace", "trace_info", "verify_trace",
    "read_trace", "iter_thread_ops", "trace_spec",
]

MAGIC = b"RTRC"
FORMAT_VERSION = 1
HEADER_SIZE = 52
_FRAME_MARKER = 0xF7
_END_MARKER = 0xF8

#: Record kind codes (3 bits of the head byte).
_K_LOAD, _K_STORE, _K_FETCH_ADD, _K_CAS, _K_COMPUTE, _K_FENCE = range(6)
_SIZE_LOG2 = {1: 0, 2: 1, 4: 2, 8: 3}

#: Structural sanity caps so corrupt varints cannot demand giant
#: allocations before the mismatch is noticed.
_MAX_FRAME_OPS = 1 << 24
_MAX_FRAME_BYTES = 1 << 28
_DEFAULT_CHUNK_OPS = 4096


class TraceFormatError(ReproError):
    """Malformed, truncated or mismatching ``.rtrace`` data."""


# --------------------------------------------------------------------------
# varint / zigzag primitives
# --------------------------------------------------------------------------

def _append_uvarint(buf: bytearray, value: int) -> None:
    while value > 0x7F:
        buf.append((value & 0x7F) | 0x80)
        value >>= 7
    buf.append(value)


def _zigzag(value: int) -> int:
    return value << 1 if value >= 0 else ((-value) << 1) - 1


def _read_uvarint(data, pos: int):
    """Decode an unsigned varint from ``data`` at ``pos``."""
    result = 0
    shift = 0
    n = len(data)
    while True:
        if pos >= n:
            raise TraceFormatError("truncated varint in trace frame")
        byte = data[pos]
        pos += 1
        result |= (byte & 0x7F) << shift
        if not byte & 0x80:
            return result, pos
        shift += 7
        if shift > 70:
            raise TraceFormatError("overlong varint in trace frame")


def _read_uvarint_stream(fh) -> int:
    result = 0
    shift = 0
    while True:
        byte = fh.read(1)
        if not byte:
            raise TraceFormatError("truncated trace: EOF inside frame header")
        b = byte[0]
        result |= (b & 0x7F) << shift
        if not b & 0x80:
            return result
        shift += 7
        if shift > 70:
            raise TraceFormatError("overlong varint in frame header")


# --------------------------------------------------------------------------
# record codec
# --------------------------------------------------------------------------

def _encode_op(buf: bytearray, op: Op, prev_addr: int) -> int:
    """Append ``op``'s record bytes to ``buf``; returns the new previous
    address for the thread's delta chain.  Raises :class:`TraceFormatError`
    for ops the format cannot express (RMW with an arbitrary modify
    callable, negative values)."""
    kind = op.kind
    if kind is OP_COMPUTE:
        if op.cycles < 0:
            raise TraceFormatError("COMPUTE with negative cycles")
        buf.append(_K_COMPUTE)
        _append_uvarint(buf, op.cycles)
        return prev_addr
    if kind is OP_FENCE:
        buf.append(_K_FENCE)
        return prev_addr
    size_bits = _SIZE_LOG2.get(op.size)
    if size_bits is None:
        raise TraceFormatError(f"unencodable access size {op.size}")
    need = 0x20 if op.need_value else 0
    if op.addr < 0:
        raise TraceFormatError(f"negative address {op.addr:#x}")
    delta = _zigzag(op.addr - prev_addr)
    if kind is OP_LOAD:
        buf.append(_K_LOAD | (size_bits << 3) | need)
        _append_uvarint(buf, delta)
    elif kind is OP_STORE:
        if op.value < 0:
            raise TraceFormatError("STORE with negative value")
        buf.append(_K_STORE | (size_bits << 3))
        _append_uvarint(buf, delta)
        _append_uvarint(buf, op.value)
    elif kind is OP_RMW:
        modify = op.modify
        if isinstance(modify, FetchAddModify):
            if modify.mask != (1 << (8 * op.size)) - 1:
                raise TraceFormatError(
                    "FETCH_ADD mask does not match the access size")
            buf.append(_K_FETCH_ADD | (size_bits << 3) | need)
            _append_uvarint(buf, delta)
            _append_uvarint(buf, _zigzag(modify.delta))
        elif isinstance(modify, CasModify):
            if modify.expect < 0 or modify.new < 0:
                raise TraceFormatError("CAS with negative operand")
            buf.append(_K_CAS | (size_bits << 3) | need)
            _append_uvarint(buf, delta)
            _append_uvarint(buf, modify.expect)
            _append_uvarint(buf, modify.new)
        else:
            raise TraceFormatError(
                "RMW with a non-standard modify callable is not "
                "trace-encodable (only fetch-add and CAS are)")
    else:  # pragma: no cover - OpKind is closed
        raise TraceFormatError(f"unencodable op kind {kind!r}")
    return op.addr


def _decode_ops(payload, n_ops: int, prev_addr: int):
    """Decode ``n_ops`` records from a decompressed frame payload.

    Returns ``(ops_list, new_prev_addr)``.  Every structural violation —
    unknown kind, a record cut short, trailing bytes, unaligned address —
    raises :class:`TraceFormatError`.

    One ``try`` covers the whole frame: reading past the payload's end
    surfaces as ``IndexError``.  A memory op's address delta usually fits
    one varint byte, which is read inline; the op constructors are called
    positionally.
    """
    out: List[Op] = []
    append = out.append
    read = _read_uvarint
    load, store, fetch_add, cas = ops.load, ops.store, ops.fetch_add, ops.cas
    pos = 0
    try:
        for _ in range(n_ops):
            head = payload[pos]
            if head & 0xC0:
                raise TraceFormatError(f"bad record head byte {head:#04x}")
            kind = head & 0x07
            if kind <= _K_CAS:
                delta = payload[pos + 1]
                if delta < 0x80:
                    pos += 2
                else:
                    delta, pos = read(payload, pos + 1)
                prev_addr += (delta >> 1) ^ -(delta & 1)  # unzigzag
                size = 1 << (head >> 3 & 0x03)
                need = (head & 0x20) != 0
                if kind == _K_LOAD:
                    append(load(prev_addr, size, need))
                elif kind == _K_STORE:
                    if need:
                        raise TraceFormatError(
                            "STORE record with need_value set")
                    value, pos = read(payload, pos)
                    append(store(prev_addr, value, size))
                elif kind == _K_FETCH_ADD:
                    add, pos = read(payload, pos)
                    append(fetch_add(prev_addr, (add >> 1) ^ -(add & 1),
                                     size, need))
                else:
                    expect, pos = read(payload, pos)
                    new, pos = read(payload, pos)
                    append(cas(prev_addr, expect, new, size, need))
            elif kind == _K_COMPUTE:
                if head & 0x38:
                    raise TraceFormatError("COMPUTE record with size/flag "
                                           "bits set")
                cycles, pos = read(payload, pos + 1)
                append(ops.compute(cycles))
            elif kind == _K_FENCE:
                if head & 0x38:
                    raise TraceFormatError("FENCE record with size/flag "
                                           "bits set")
                pos += 1
                append(ops.fence())
            else:
                raise TraceFormatError(f"unknown record kind {kind}")
    except IndexError:
        raise TraceFormatError(
            "frame payload shorter than its op count") from None
    except ValueError as exc:  # Op constructor validation (alignment...)
        raise TraceFormatError(f"invalid record: {exc}") from exc
    if pos != len(payload):
        raise TraceFormatError(
            f"{len(payload) - pos} trailing bytes in trace frame")
    return out, prev_addr


def _combine_digest(block_size_log2: int, num_threads: int,
                    thread_digests: List[bytes]) -> bytes:
    """Chunking-independent content digest over per-thread record bytes."""
    h = hashlib.sha256(b"rtrace-digest-v1")
    h.update(bytes([block_size_log2]))
    h.update(num_threads.to_bytes(2, "little"))
    for digest in thread_digests:
        h.update(digest)
    return h.digest()


# --------------------------------------------------------------------------
# header / info
# --------------------------------------------------------------------------

@dataclass
class TraceInfo:
    """Parsed ``.rtrace`` header (plus scan results when verified)."""

    path: str
    version: int
    block_size: int
    num_threads: int
    total_ops: int
    digest: str          #: content sha256 (hex)
    meta: Dict[str, Any] = field(default_factory=dict)
    #: Filled by :func:`verify_trace` / :func:`read_trace` full scans.
    per_thread_ops: Optional[List[int]] = None
    kind_counts: Optional[Dict[str, int]] = None

    def to_dict(self) -> Dict[str, Any]:
        d = {
            "path": self.path,
            "version": self.version,
            "block_size": self.block_size,
            "num_threads": self.num_threads,
            "total_ops": self.total_ops,
            "digest": self.digest,
            "meta": self.meta,
        }
        if self.per_thread_ops is not None:
            d["per_thread_ops"] = self.per_thread_ops
        if self.kind_counts is not None:
            d["kind_counts"] = self.kind_counts
        return d


def _read_header(fh, path: str) -> TraceInfo:
    raw = fh.read(HEADER_SIZE)
    if len(raw) < HEADER_SIZE:
        raise TraceFormatError(f"{path}: truncated trace header")
    if raw[0:4] != MAGIC:
        raise TraceFormatError(f"{path}: not an .rtrace file (bad magic)")
    version = raw[4]
    if version != FORMAT_VERSION:
        raise TraceFormatError(
            f"{path}: unsupported trace format version {version}")
    block_size_log2 = raw[5]
    if block_size_log2 > 16:
        raise TraceFormatError(
            f"{path}: implausible line size 2**{block_size_log2}")
    num_threads = int.from_bytes(raw[6:8], "little")
    if num_threads < 1:
        raise TraceFormatError(f"{path}: zero-thread trace")
    total_ops = int.from_bytes(raw[8:16], "little")
    digest = raw[16:48].hex()
    meta_len = int.from_bytes(raw[48:52], "little")
    if meta_len > _MAX_FRAME_BYTES:
        raise TraceFormatError(f"{path}: implausible metadata length")
    meta_raw = fh.read(meta_len)
    if len(meta_raw) < meta_len:
        raise TraceFormatError(f"{path}: truncated trace metadata")
    try:
        meta = json.loads(meta_raw.decode("utf-8")) if meta_len else {}
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise TraceFormatError(f"{path}: corrupt trace metadata") from exc
    if not isinstance(meta, dict):
        raise TraceFormatError(f"{path}: trace metadata is not an object")
    return TraceInfo(path=path, version=version,
                     block_size=1 << block_size_log2,
                     num_threads=num_threads, total_ops=total_ops,
                     digest=digest, meta=meta)


def _open_trace(path: str):
    """Open ``path`` for reading.  Every reader opens through here, so a
    missing or unreadable file (or a directory) is a
    :class:`TraceFormatError` like any other unusable trace."""
    try:
        return open(path, "rb")
    except OSError as exc:
        raise TraceFormatError(f"{path}: cannot read trace: {exc}") from exc


def trace_info(path) -> TraceInfo:
    """Parse just the header of ``path`` (no frame scan)."""
    path = os.fspath(path)
    with _open_trace(path) as fh:
        return _read_header(fh, path)


#: The zlib stream header :meth:`TraceWriter._flush` emits (deflate, 32 KiB
#: window, level 6).
_ZLIB_HEADER = b"\x78\x9c"


def _inflate(comp: bytes, path: str) -> bytes:
    """Decompress one frame, rejecting damage that still decodes.

    zlib's adler32 covers only the *decompressed* bytes, so flips in bits
    the decoder ignores would pass: the header's level bits, the padding
    after a leading stored block's 3-bit header, and the padding after
    the final block.  The writer's streams carry zeros (and its one
    header) there; anything else is corruption.  The stream must also end
    exactly at the frame's end."""
    inflater = zlib.decompressobj()
    try:
        payload = inflater.decompress(comp)
    except zlib.error as exc:
        raise TraceFormatError(
            f"{path}: corrupt trace frame: {exc}") from exc
    if not inflater.eof or inflater.unused_data:
        raise TraceFormatError(
            f"{path}: corrupt trace frame: zlib stream does not end at "
            "the frame boundary")
    if comp[:2] != _ZLIB_HEADER:
        raise TraceFormatError(
            f"{path}: corrupt trace frame: unexpected zlib header "
            f"{comp[:2].hex()}")
    first = comp[2]
    if not first & 0x06 and first >> 3:
        raise TraceFormatError(
            f"{path}: corrupt trace frame: nonzero stored-block padding")
    last = comp[-5]  # final deflate byte, just before the adler32
    if last:
        # Padding fills the bits above the stream's last bit, so it is all
        # zero exactly when clearing the byte's highest set bit changes
        # what the stream decodes to.
        altered = bytearray(comp)
        altered[-5] = last ^ (1 << (last.bit_length() - 1))
        try:
            same = zlib.decompress(bytes(altered)) == payload
        except zlib.error:
            same = False
        if same:
            raise TraceFormatError(
                f"{path}: corrupt trace frame: nonzero deflate padding")
    return payload


def _iter_frames(fh, path: str, num_threads: int, want_tid=None):
    """Yield ``(tid, n_ops, payload)`` for each frame, decompressing only
    frames matching ``want_tid`` (payload is ``None`` for skipped frames).
    The final item is ``(-1, 0, counts)`` for the end frame.  Raises
    :class:`TraceFormatError` on any structural violation, including EOF
    before the end frame."""
    while True:
        marker = fh.read(1)
        if not marker:
            raise TraceFormatError(
                f"{path}: truncated trace (missing end frame)")
        if marker[0] == _END_MARKER:
            counts = [_read_uvarint_stream(fh) for _ in range(num_threads)]
            if fh.read(1):
                raise TraceFormatError(f"{path}: trailing bytes after end "
                                       "frame")
            yield -1, 0, counts
            return
        if marker[0] != _FRAME_MARKER:
            raise TraceFormatError(
                f"{path}: bad frame marker {marker[0]:#04x}")
        tid = _read_uvarint_stream(fh)
        n_ops = _read_uvarint_stream(fh)
        raw_len = _read_uvarint_stream(fh)
        comp_len = _read_uvarint_stream(fh)
        if tid >= num_threads:
            raise TraceFormatError(f"{path}: frame for thread {tid} but "
                                   f"trace has {num_threads} threads")
        if n_ops > _MAX_FRAME_OPS or raw_len > _MAX_FRAME_BYTES \
                or comp_len > _MAX_FRAME_BYTES:
            raise TraceFormatError(f"{path}: implausible frame geometry")
        if want_tid is not None and tid != want_tid:
            fh.seek(comp_len, os.SEEK_CUR)
            yield tid, n_ops, None
            continue
        comp = fh.read(comp_len)
        if len(comp) < comp_len:
            raise TraceFormatError(f"{path}: truncated trace frame")
        payload = _inflate(comp, path)
        if len(payload) != raw_len:
            raise TraceFormatError(
                f"{path}: frame length mismatch (header says {raw_len} "
                f"bytes, payload has {len(payload)})")
        yield tid, n_ops, payload


# --------------------------------------------------------------------------
# writer
# --------------------------------------------------------------------------

class TraceWriter:
    """Streaming ``.rtrace`` writer: append ops per thread, frames flush as
    per-thread buffers fill, the header's op count and content digest are
    patched on :meth:`close`.  Memory stays bounded by ``chunk_ops`` per
    thread regardless of trace length."""

    def __init__(self, path, num_threads: int, block_size: int = 64,
                 meta: Optional[Dict[str, Any]] = None,
                 chunk_ops: int = _DEFAULT_CHUNK_OPS) -> None:
        if not 1 <= num_threads <= 0xFFFF:
            raise ConfigError(f"num_threads={num_threads} out of range")
        if block_size < 1 or block_size & (block_size - 1):
            raise ConfigError(f"block_size={block_size} is not a power of 2")
        if chunk_ops < 1:
            raise ConfigError("chunk_ops must be >= 1")
        self.path = os.fspath(path)
        self.num_threads = num_threads
        self.block_size = block_size
        self._block_size_log2 = block_size.bit_length() - 1
        self._chunk_ops = chunk_ops
        self._bufs = [bytearray() for _ in range(num_threads)]
        self._buf_ops = [0] * num_threads
        self._prev_addr = [0] * num_threads
        self._hashes = [hashlib.sha256() for _ in range(num_threads)]
        self._counts = [0] * num_threads
        self._closed = False
        meta_raw = json.dumps(meta or {}, sort_keys=True,
                              separators=(",", ":")).encode("utf-8")
        self._fh = open(self.path, "wb")
        header = bytearray(HEADER_SIZE)
        header[0:4] = MAGIC
        header[4] = FORMAT_VERSION
        header[5] = self._block_size_log2
        header[6:8] = num_threads.to_bytes(2, "little")
        # total_ops and digest stay zero until close()
        header[48:52] = len(meta_raw).to_bytes(4, "little")
        self._fh.write(bytes(header))
        self._fh.write(meta_raw)

    def append(self, tid: int, op: Op) -> None:
        if self._closed:
            raise TraceFormatError("append() on a closed TraceWriter")
        if not 0 <= tid < self.num_threads:
            raise ConfigError(f"tid {tid} out of range "
                              f"[0, {self.num_threads})")
        self._prev_addr[tid] = _encode_op(self._bufs[tid], op,
                                          self._prev_addr[tid])
        self._counts[tid] += 1
        self._buf_ops[tid] += 1
        if self._buf_ops[tid] >= self._chunk_ops:
            self._flush(tid)

    def extend(self, tid: int, op_iter) -> None:
        for op in op_iter:
            self.append(tid, op)

    def _flush(self, tid: int) -> None:
        buf = self._bufs[tid]
        if not buf:
            return
        raw = bytes(buf)
        self._hashes[tid].update(raw)
        comp = zlib.compress(raw, 6)
        frame = bytearray([_FRAME_MARKER])
        _append_uvarint(frame, tid)
        _append_uvarint(frame, self._buf_ops[tid])
        _append_uvarint(frame, len(raw))
        _append_uvarint(frame, len(comp))
        self._fh.write(bytes(frame))
        self._fh.write(comp)
        buf.clear()
        self._buf_ops[tid] = 0

    def close(self) -> TraceInfo:
        """Flush, write the end frame, patch header totals/digest."""
        if self._closed:
            raise TraceFormatError("close() on a closed TraceWriter")
        self._closed = True
        for tid in range(self.num_threads):
            self._flush(tid)
        end = bytearray([_END_MARKER])
        for count in self._counts:
            _append_uvarint(end, count)
        self._fh.write(bytes(end))
        total = sum(self._counts)
        digest = _combine_digest(self._block_size_log2, self.num_threads,
                                 [h.digest() for h in self._hashes])
        self._fh.seek(8)
        self._fh.write(total.to_bytes(8, "little"))
        self._fh.write(digest)
        self._fh.close()
        return trace_info(self.path)

    def abort(self) -> None:
        """Close the handle without finalizing (file stays invalid)."""
        if not self._closed:
            self._closed = True
            self._fh.close()

    def __enter__(self) -> "TraceWriter":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if exc_type is None:
            if not self._closed:
                self.close()
        else:
            self.abort()


# --------------------------------------------------------------------------
# readers
# --------------------------------------------------------------------------

def _scan(path, keep_ops: bool, verify: bool = True):
    """Full sequential scan shared by :func:`verify_trace` and
    :func:`read_trace`.  Bounded memory unless ``keep_ops``."""
    path = os.fspath(path)
    with _open_trace(path) as fh:
        info = _read_header(fh, path)
        n = info.num_threads
        prev_addr = [0] * n
        counts = [0] * n
        hashes = [hashlib.sha256() for _ in range(n)]
        kind_counts: Dict[str, int] = {}
        programs: List[List[Op]] = [[] for _ in range(n)]
        end_counts = None
        for tid, n_ops, payload in _iter_frames(fh, path, n):
            if tid < 0:
                end_counts = payload
                break
            decoded, prev_addr[tid] = _decode_ops(payload, n_ops,
                                                  prev_addr[tid])
            hashes[tid].update(payload)
            counts[tid] += n_ops
            for op in decoded:
                name = op.kind.name if op.kind is not OP_RMW else (
                    "FETCH_ADD" if isinstance(op.modify, FetchAddModify)
                    else "CAS")
                kind_counts[name] = kind_counts.get(name, 0) + 1
            if keep_ops:
                programs[tid].extend(decoded)
        if end_counts != counts:
            raise TraceFormatError(
                f"{path}: per-thread op counts {counts} do not match the "
                f"end frame {end_counts} (truncated or corrupt trace)")
        if sum(counts) != info.total_ops:
            raise TraceFormatError(
                f"{path}: header claims {info.total_ops} ops but frames "
                f"hold {sum(counts)}")
        if verify:
            digest = _combine_digest(info.block_size.bit_length() - 1, n,
                                     [h.digest() for h in hashes])
            if digest.hex() != info.digest:
                raise TraceFormatError(
                    f"{path}: content digest mismatch (file corrupt or "
                    "rewritten without re-finalizing)")
        info.per_thread_ops = counts
        info.kind_counts = dict(sorted(kind_counts.items()))
        return info, programs


def verify_trace(path) -> TraceInfo:
    """Streaming full-file check: structure, per-thread counts, header
    total and content digest.  Returns the enriched :class:`TraceInfo`."""
    info, _ = _scan(path, keep_ops=False)
    return info


def read_trace(path, verify: bool = True):
    """Materialize the whole trace: ``(TraceInfo, [ops per thread])``.

    For tests and small traces — for simulation-scale traces use
    :class:`TraceWorkload`, which streams."""
    return _scan(path, keep_ops=True, verify=verify)


def iter_thread_ops(path, tid: int, expect_digest: Optional[str] = None
                    ) -> Iterator[Op]:
    """Stream one thread's ops with bounded memory (one decompressed chunk
    at a time); frames of other threads are seek-skipped undecompressed."""
    path = os.fspath(path)
    with _open_trace(path) as fh:
        info = _read_header(fh, path)
        if expect_digest is not None and info.digest != expect_digest:
            raise TraceFormatError(
                f"{path}: trace digest {info.digest[:12]}… does not match "
                f"expected {expect_digest[:12]}… (file replaced?)")
        if not 0 <= tid < info.num_threads:
            raise ConfigError(f"tid {tid} out of range "
                              f"[0, {info.num_threads})")
        prev_addr = 0
        seen = 0
        for ftid, n_ops, payload in _iter_frames(fh, path,
                                                 info.num_threads,
                                                 want_tid=tid):
            if ftid < 0:
                if payload[tid] != seen:
                    raise TraceFormatError(
                        f"{path}: thread {tid} has {seen} ops but the end "
                        f"frame declares {payload[tid]}")
                return
            if payload is None:
                continue
            decoded, prev_addr = _decode_ops(payload, n_ops, prev_addr)
            seen += n_ops
            for op in decoded:  # not ``yield from``: cores send() results
                yield op


# --------------------------------------------------------------------------
# trace as a workload
# --------------------------------------------------------------------------

class TraceWorkload:
    """A recorded/synthesized trace, presented through the Workload
    protocol: ``thread_program(tid)`` streams ops straight off disk (one
    decompressed chunk in memory per thread), sent-back op results are
    ignored (the trace froze the control flow at capture time), and
    ``verify`` is a no-op — traces carry no expected-result predicate."""

    def __init__(self, path, expect_digest: Optional[str] = None) -> None:
        self.info = trace_info(path)
        if expect_digest is not None and self.info.digest != expect_digest:
            raise TraceFormatError(
                f"{self.info.path}: trace digest does not match the "
                "expected content digest (file replaced?)")
        self.path = self.info.path
        self.expect_digest = expect_digest
        self.num_threads = self.info.num_threads
        self.block_size = self.info.block_size
        self.meta = self.info.meta
        source = self.meta.get("source")
        self.tag = (source or {}).get("tag") or "trace"

    def thread_program(self, tid: int):
        return iter_thread_ops(self.path, tid,
                               expect_digest=self.expect_digest)

    def programs(self) -> list:
        return [self.thread_program(tid) for tid in range(self.num_threads)]

    def verify(self, image) -> None:
        return None


@dataclass(frozen=True)
class TraceRef:
    """Content-addressed trace reference carried by ``RunSpec.trace``.

    The digest is part of the spec's serialized form, so it feeds the
    engine's result-cache key: two specs replaying byte-identical traces
    share cache entries, and a trace file whose content changed can never
    satisfy a stale cached result (:meth:`programs` re-checks the digest
    at open)."""

    path: str
    digest: str

    @classmethod
    def of(cls, path) -> "TraceRef":
        info = trace_info(path)
        return cls(path=info.path, digest=info.digest)

    def programs(self, num_threads: int, block_size: int) -> list:
        """Open the trace and return one streaming program per thread.
        The file must still have this content digest (a silently swapped
        trace must fail loudly rather than replay the wrong ops),
        ``num_threads`` threads and ``block_size``-byte lines."""
        workload = TraceWorkload(self.path, expect_digest=self.digest)
        if workload.num_threads != num_threads:
            raise ConfigError(
                f"{self.path}: trace has {workload.num_threads} threads but "
                f"the spec expects {num_threads}")
        if workload.block_size != block_size:
            raise ConfigError(
                f"{self.path}: trace was captured at {workload.block_size}B "
                f"lines but the machine config uses {block_size}B")
        return workload.programs()


# --------------------------------------------------------------------------
# capture
# --------------------------------------------------------------------------

def _tap_program(program, writer: TraceWriter, tid: int):
    """Pure pass-through tap: forwards ops and results untouched while
    appending each op to ``writer`` — the tapped run is bit-for-bit the
    live run."""
    try:
        op = next(program)
    except StopIteration:
        return
    while True:
        writer.append(tid, op)
        result = yield op
        try:
            op = program.send(result)
        except StopIteration:
            return


def record_trace(spec, path, chunk_ops: int = _DEFAULT_CHUNK_OPS):
    """Run ``spec`` live with an op-stream tap and freeze the per-thread
    access streams into ``path``.  Returns ``(TraceInfo, RunRecord)`` — the
    run is :func:`~repro.harness.runner.execute_spec`'s own (same machine,
    instruments and verify; each core's program is wrapped in the tap), so
    the record is identical to what ``execute_spec`` produces for the same
    spec and callers can assert capture changed nothing.  A run or verify
    that raises aborts the trace, leaving ``path`` unfinalized.

    The capture mode/config land in the trace metadata: replay under the
    same mode is cycle-identical to this run; replay under another mode is
    a different (still deterministic) experiment.
    """
    # Imported lazily: harness.runner imports this module for TraceRef.
    from repro.harness.runner import _build_and_attach, _run_built

    if getattr(spec, "trace", None) is not None:
        raise ConfigError("record_trace needs a live workload spec, not a "
                          "trace-replay spec")
    meta = {"source": {
        "tag": spec.tag, "mode": spec.mode.value, "layout": spec.layout,
        "scale": spec.scale, "seed": spec.seed,
        "core_model": spec.core_model, "num_threads": spec.num_threads,
    }}
    with TraceWriter(path, num_threads=spec.num_threads,
                     block_size=spec.config.block_size, meta=meta,
                     chunk_ops=chunk_ops) as writer:
        machine = _build_and_attach(spec)
        try:
            for tid, core in enumerate(machine.cores):
                core.rebind_program(_tap_program(core.program, writer, tid))
            record = _run_built(spec, machine)
        finally:
            machine.close()
        return writer.close(), record


def trace_spec(path, mode=None, config=None, tag: Optional[str] = None,
               core_model: Optional[str] = None, ooo_window: int = 8):
    """Build a replay :class:`~repro.harness.runner.RunSpec` for ``path``.

    Thread count comes from the trace header; mode/core model default to
    the capture values in the trace metadata (falling back to MESI /
    in-order for traces without them).  Workload-shape fields that do not
    affect replay (layout, scale, seed) are left at their defaults so the
    spec digest depends only on what shapes the simulation: the trace
    content, mode, config and core model."""
    from repro.coherence.states import ProtocolMode
    from repro.common.config import SystemConfig
    from repro.harness.runner import RunSpec

    info = trace_info(path)
    source = info.meta.get("source")
    source = source if isinstance(source, dict) else {}
    if mode is None:
        mode = ProtocolMode(source.get("mode", ProtocolMode.MESI.value))
    elif isinstance(mode, str):
        mode = ProtocolMode(mode)
    if config is None:
        config = SystemConfig()
    if config.block_size != info.block_size:
        raise ConfigError(
            f"{info.path}: trace line size {info.block_size}B does not "
            f"match config.block_size={config.block_size}B")
    return RunSpec(
        tag=tag or source.get("tag") or "trace",
        mode=mode, config=config, num_threads=info.num_threads,
        core_model=core_model or source.get("core_model") or "inorder",
        ooo_window=ooo_window, verify=False,
        trace=TraceRef(path=info.path, digest=info.digest))


# --------------------------------------------------------------------------
# synthesis
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class SharingProfile:
    """Statistical sharing profile for :func:`synthesize_trace`.

    Describes an access population instead of a program: how many cache
    lines are falsely shared (distinct 8-byte per-thread slots on one
    line), truly shared (all threads hit the same word), or thread-private;
    the read/write mix; how sticky a thread's line reuse is
    (``locality``); and how much compute separates memory ops."""

    num_threads: int = 4
    ops_per_thread: int = 10_000
    fs_lines: int = 2
    ts_lines: int = 1
    private_lines: int = 8
    write_fraction: float = 0.5
    fs_fraction: float = 0.15
    ts_fraction: float = 0.05
    rmw_fraction: float = 0.3
    locality: float = 0.8
    compute_every: int = 8
    compute_cycles: int = 2
    seed: int = 0
    block_size: int = 64

    def __post_init__(self) -> None:
        if self.num_threads < 1:
            raise ConfigError("SharingProfile.num_threads must be >= 1")
        if self.ops_per_thread < 1:
            raise ConfigError("SharingProfile.ops_per_thread must be >= 1")
        if self.block_size < 8 or self.block_size & (self.block_size - 1):
            raise ConfigError("SharingProfile.block_size must be a power "
                              "of 2 >= 8")
        if self.fs_lines and self.num_threads > self.block_size // 8:
            raise ConfigError(
                f"{self.num_threads} threads cannot each own an 8-byte "
                f"slot on a {self.block_size}B falsely-shared line")
        if self.private_lines < 1:
            raise ConfigError("SharingProfile.private_lines must be >= 1")
        for name in ("write_fraction", "fs_fraction", "ts_fraction",
                     "rmw_fraction", "locality"):
            v = getattr(self, name)
            if not 0.0 <= v <= 1.0:
                raise ConfigError(f"SharingProfile.{name}={v} must be in "
                                  "[0, 1]")
        if self.fs_fraction + self.ts_fraction > 1.0:
            raise ConfigError("fs_fraction + ts_fraction must be <= 1")
        if (self.fs_fraction and not self.fs_lines) or \
                (self.ts_fraction and not self.ts_lines):
            raise ConfigError("nonzero fs/ts fraction needs fs/ts lines")


def synthesize_trace(profile: SharingProfile, path,
                     chunk_ops: int = _DEFAULT_CHUNK_OPS) -> TraceInfo:
    """Generate a deterministic trace from ``profile`` (same profile, same
    bytes).  Streams straight through a :class:`TraceWriter`, so synthesis
    memory is bounded regardless of ``ops_per_thread``."""
    bs = profile.block_size
    fs_base = 0x40000
    ts_base = fs_base + profile.fs_lines * bs
    priv_base = ts_base + profile.ts_lines * bs
    writer = TraceWriter(
        path, num_threads=profile.num_threads, block_size=bs,
        meta={"source": {"tag": "synth", "num_threads": profile.num_threads},
              "profile": asdict(profile)},
        chunk_ops=chunk_ops)
    try:
        for tid in range(profile.num_threads):
            rng = Random(profile.seed * 1_000_003 + tid)
            line = 0  # current private line for the locality chain
            tbase = priv_base + tid * profile.private_lines * bs
            for i in range(profile.ops_per_thread):
                if profile.compute_every and \
                        i % profile.compute_every == profile.compute_every - 1:
                    writer.append(tid, ops.compute(profile.compute_cycles))
                    continue
                r = rng.random()
                if r < profile.ts_fraction:
                    addr = ts_base + rng.randrange(profile.ts_lines) * bs
                    if rng.random() < profile.rmw_fraction:
                        writer.append(tid, ops.fetch_add(addr, 1, size=8))
                    elif rng.random() < profile.write_fraction:
                        writer.append(tid, ops.store(
                            addr, rng.getrandbits(32), size=8))
                    else:
                        writer.append(tid, ops.load(addr, size=8))
                    continue
                if r < profile.ts_fraction + profile.fs_fraction:
                    addr = (fs_base + rng.randrange(profile.fs_lines) * bs
                            + tid * 8)
                else:
                    if rng.random() >= profile.locality:
                        line = rng.randrange(profile.private_lines)
                    addr = (tbase + line * bs
                            + rng.randrange(bs // 8) * 8)
                if rng.random() < profile.write_fraction:
                    writer.append(tid, ops.store(addr, rng.getrandbits(32),
                                                 size=8))
                else:
                    writer.append(tid, ops.load(addr, size=8))
    except BaseException:
        writer.abort()
        raise
    return writer.close()
