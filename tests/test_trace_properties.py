"""Property tests for the ``.rtrace`` codec (:mod:`repro.workloads.trace`).

Four families of properties:

* **round-trip** — encode→decode is the identity on arbitrary op streams
  (kind, address, size, value/delta/operands, ``need_value`` all survive);
* **digest stability** — the content digest depends only on the per-thread
  op streams, not on chunking or append interleaving;
* **rejection** — every strict prefix of a valid file and every byte-level
  corruption outside the (unhashed) metadata region raises a structured
  :class:`TraceFormatError`; arbitrary garbage never parses.  The codec
  contains no ``pickle`` at all, so malformed input can only fail, never
  execute;
* **synthesis** — :func:`synthesize_trace` writes pinned bytes for fixed
  profiles, the same bytes as appending its decoded ops one by one, and
  never builds an op or goes through the per-op encoder to do it.
"""

import hashlib
import zlib

import pytest
from hypothesis import given, settings, strategies as st

from repro.common.errors import ConfigError
from repro.cpu import ops
from repro.cpu.ops import CasModify, FetchAddModify, Op, OpKind
from repro.workloads import trace
from repro.workloads.trace import (
    HEADER_SIZE,
    MAGIC,
    SharingProfile,
    TraceFormatError,
    TraceWriter,
    _decode_ops,
    _encode_op,
    iter_thread_ops,
    read_trace,
    synthesize_trace,
    trace_info,
    verify_trace,
)

# ------------------------------------------------------------- strategies

_SIZES = (1, 2, 4, 8)


def _aligned_addr(draw, size):
    return draw(st.integers(min_value=0, max_value=1 << 20)) * size


@st.composite
def _op(draw):
    size = draw(st.sampled_from(_SIZES))
    kind = draw(st.sampled_from(
        ["load", "store", "fetch_add", "cas", "compute", "fence"]))
    need = draw(st.booleans())
    if kind == "load":
        return ops.load(_aligned_addr(draw, size), size=size,
                        need_value=need)
    if kind == "store":
        value = draw(st.integers(min_value=0,
                                 max_value=(1 << (8 * size)) - 1))
        return ops.store(_aligned_addr(draw, size), value, size=size)
    if kind == "fetch_add":
        delta = draw(st.integers(min_value=-(1 << 16), max_value=1 << 16))
        return ops.fetch_add(_aligned_addr(draw, size), delta, size=size,
                             need_value=need)
    if kind == "cas":
        bound = (1 << (8 * size)) - 1
        expect = draw(st.integers(min_value=0, max_value=bound))
        new = draw(st.integers(min_value=0, max_value=bound))
        return ops.cas(_aligned_addr(draw, size), expect, new, size=size,
                       need_value=need)
    if kind == "compute":
        return ops.compute(draw(st.integers(min_value=0, max_value=10_000)))
    return ops.fence()


_streams = st.lists(st.lists(_op(), max_size=40), min_size=1, max_size=3)
_chunk_ops = st.integers(min_value=1, max_value=64)


def _write(path, streams, chunk_ops=16, block_size=64):
    writer = TraceWriter(path, num_threads=len(streams),
                         block_size=block_size, chunk_ops=chunk_ops)
    for tid, stream in enumerate(streams):
        for op in stream:
            writer.append(tid, op)
    return writer.close()


def _op_slots(op: Op) -> tuple:
    """Every slot of ``op`` with its type (so ``1`` is not ``True``), its
    ``modify`` as its type and fields."""
    values = []
    for name in Op.__slots__:
        value = getattr(op, name)
        if name == "modify" and value is not None:
            value = tuple(getattr(value, field)
                          for field in type(value).__slots__)
        values.append((type(getattr(op, name)), value))
    return tuple(values)


def _assert_same_op(a: Op, b: Op) -> None:
    assert type(a) is type(b) is Op
    assert _op_slots(a) == _op_slots(b)


# -------------------------------------------------------------- round-trip


@settings(max_examples=40, deadline=None)
@given(streams=_streams, chunk_ops=_chunk_ops)
def test_roundtrip_identity(tmp_path_factory, streams, chunk_ops):
    path = tmp_path_factory.mktemp("rt") / "t.rtrace"
    info = _write(path, streams, chunk_ops=chunk_ops)
    assert info.num_threads == len(streams)
    assert info.total_ops == sum(len(s) for s in streams)
    read_info, decoded = read_trace(path)
    assert read_info.digest == info.digest
    assert read_info.per_thread_ops == [len(s) for s in streams]
    for want, got in zip(streams, decoded):
        assert len(want) == len(got)
        for a, b in zip(want, got):
            _assert_same_op(a, b)


@settings(max_examples=25, deadline=None)
@given(streams=_streams, chunks=st.tuples(_chunk_ops, _chunk_ops))
def test_digest_independent_of_chunking(tmp_path_factory, streams, chunks):
    base = tmp_path_factory.mktemp("dg")
    a = _write(base / "a.rtrace", streams, chunk_ops=chunks[0])
    b = _write(base / "b.rtrace", streams, chunk_ops=chunks[1])
    assert a.digest == b.digest
    assert a.total_ops == b.total_ops


@settings(max_examples=25, deadline=None)
@given(streams=st.lists(st.lists(_op(), max_size=20), min_size=2,
                        max_size=3),
       seed=st.integers(min_value=0, max_value=1 << 16))
def test_digest_independent_of_append_interleaving(tmp_path_factory,
                                                   streams, seed):
    """Appending thread streams round-robin, shuffled, or sequentially must
    produce the same content digest: the digest hashes per-thread record
    bytes, never frame layout."""
    import random

    base = tmp_path_factory.mktemp("il")
    sequential = _write(base / "s.rtrace", streams, chunk_ops=5)
    writer = TraceWriter(base / "i.rtrace", num_threads=len(streams),
                         chunk_ops=5)
    pending = [(tid, list(stream)) for tid, stream in enumerate(streams)
               if stream]
    rng = random.Random(seed)
    while pending:
        tid, stream = pending[rng.randrange(len(pending))]
        writer.append(tid, stream.pop(0))
        pending = [(t, s) for t, s in pending if s]
    interleaved = writer.close()
    assert interleaved.digest == sequential.digest


#: Varint boundaries: the largest one-byte value and the smallest
#: two-byte one, both sides of the two/three-byte boundary, and 2**32 - 1.
_VARINT_EDGES = (0, 0x7F, 0x80, (1 << 14) - 1, 1 << 14, (1 << 14) + 1,
                 (1 << 32) - 1)


def _unzigzag(value):
    return (value >> 1) ^ -(value & 1)


def _varint_edge_stream():
    """All six record kinds.  Each memory op's address delta zigzags to a
    varint boundary, and so does every operand: store values, fetch-add
    deltas, CAS operands and compute cycles.  A store value must fit its
    access, so the boundary values are stored as 8-byte accesses."""
    stream = []
    addr = 1 << 36
    for index, edge in enumerate(_VARINT_EDGES):
        need = index % 2 == 0
        addr += _unzigzag(edge)
        stream.append(ops.load(addr, size=1, need_value=need))
        addr += _unzigzag(edge)
        stream.append(ops.store(addr, edge & 0xFF, size=1))
        addr -= addr % 8
        stream.append(ops.store(addr, edge, size=8))
        addr += _unzigzag(edge)
        stream.append(ops.fetch_add(addr, _unzigzag(edge), size=1,
                                    need_value=need))
        addr += _unzigzag(edge)
        stream.append(ops.cas(addr, edge, (1 << 32) - 1 - edge, size=1,
                              need_value=need))
        stream.append(ops.compute(edge))
        stream.append(ops.fence())
    for size in _SIZES:  # the size bits of the head byte
        stream.append(ops.load(addr - addr % 8, size=size))
    return stream


@pytest.mark.parametrize("chunk_ops", [1, 5, 64])
def test_roundtrip_at_varint_boundaries(tmp_path, chunk_ops):
    """Records whose deltas and values sit on varint boundaries decode to
    the ops that were written, through the materializing and the
    streaming reader alike."""
    stream = _varint_edge_stream()
    assert {op.kind for op in stream} == set(OpKind)
    path = tmp_path / "edges.rtrace"
    _write(path, [stream], chunk_ops=chunk_ops)
    _, (decoded,) = read_trace(path)
    streamed = list(iter_thread_ops(path, 0))
    assert len(decoded) == len(streamed) == len(stream)
    for want, got, got_streamed in zip(stream, decoded, streamed):
        _assert_same_op(want, got)
        _assert_same_op(want, got_streamed)


def test_kind_counts_name_every_record_kind(tmp_path):
    """``kind_counts`` (printed by ``repro trace-info``) names each record
    kind, RMWs split into FETCH_ADD and CAS, in name order."""
    path = tmp_path / "edges.rtrace"
    _write(path, [_varint_edge_stream()], chunk_ops=5)
    counts = verify_trace(path).kind_counts
    assert list(counts.items()) == [
        ("CAS", 7), ("COMPUTE", 7), ("FENCE", 7), ("FETCH_ADD", 7),
        ("LOAD", 11), ("STORE", 14)]
    assert read_trace(path)[0].kind_counts == counts
    _write(path, [[ops.load(0), ops.fetch_add(8)], [ops.compute(1)]])
    assert verify_trace(path).kind_counts == {
        "COMPUTE": 1, "FETCH_ADD": 1, "LOAD": 1}


@pytest.mark.parametrize("kind", ["load", "store", "fetch_add", "cas"])
def test_truncation_after_head_byte_raises(kind):
    """A frame payload that ends right after a memory op's head byte —
    where the decoder reads a one-byte address delta inline — raises,
    whether the head is the first record or follows a complete one."""
    op = {"load": ops.load(8, size=8),
          "store": ops.store(8, 1, size=8),
          "fetch_add": ops.fetch_add(8, 1, size=8),
          "cas": ops.cas(8, 0, 1, size=8)}[kind]
    payload = bytearray()
    prev = _encode_op(payload, op, 0)
    record = len(payload)
    _encode_op(payload, op, prev)
    assert payload[record + 1] == 0  # one-byte delta to the same address
    assert len(_decode_ops(bytes(payload), 2, 0)[0]) == 2
    with pytest.raises(TraceFormatError):
        _decode_ops(bytes(payload[:1]), 1, 0)
    with pytest.raises(TraceFormatError):
        _decode_ops(bytes(payload[:record + 1]), 2, 0)


# ------------------------------------------------------ differential decode


def _reference_read_uvarint(data, pos):
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


def _reference_decode_ops(payload, n_ops, prev_addr):
    """The record decoder before its varints were read inline and its ops
    built without constructor calls: one varint call per operand and per
    multi-byte delta, one constructor call per op.  It accepts a STORE
    wider than its access, which :func:`_decode_ops` rejects."""
    out = []
    append = out.append
    read = _reference_read_uvarint
    load, store, fetch_add, cas = ops.load, ops.store, ops.fetch_add, ops.cas
    pos = 0
    try:
        for _ in range(n_ops):
            head = payload[pos]
            if head & 0xC0:
                raise TraceFormatError(f"bad record head byte {head:#04x}")
            kind = head & 0x07
            if kind <= trace._K_CAS:
                delta = payload[pos + 1]
                if delta < 0x80:
                    pos += 2
                else:
                    delta, pos = read(payload, pos + 1)
                prev_addr += (delta >> 1) ^ -(delta & 1)  # unzigzag
                size = 1 << (head >> 3 & 0x03)
                need = (head & 0x20) != 0
                if kind == trace._K_LOAD:
                    append(load(prev_addr, size, need))
                elif kind == trace._K_STORE:
                    if need:
                        raise TraceFormatError(
                            "STORE record with need_value set")
                    value, pos = read(payload, pos)
                    append(store(prev_addr, value, size))
                elif kind == trace._K_FETCH_ADD:
                    add, pos = read(payload, pos)
                    append(fetch_add(prev_addr, (add >> 1) ^ -(add & 1),
                                     size, need))
                else:
                    expect, pos = read(payload, pos)
                    new, pos = read(payload, pos)
                    append(cas(prev_addr, expect, new, size, need))
            elif kind == trace._K_COMPUTE:
                if head & 0x38:
                    raise TraceFormatError("COMPUTE record with size/flag "
                                           "bits set")
                cycles, pos = read(payload, pos + 1)
                append(ops.compute(cycles))
            elif kind == trace._K_FENCE:
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
    except ValueError as exc:
        raise TraceFormatError(f"invalid record: {exc}") from exc
    if pos != len(payload):
        raise TraceFormatError(
            f"{len(payload) - pos} trailing bytes in trace frame")
    return out, prev_addr


def _decode_outcome(decode, payload, n_ops, prev_addr):
    """``(op slots, end address)``, or the :class:`TraceFormatError`
    raised; any other exception propagates and fails the test."""
    try:
        decoded, end = decode(payload, n_ops, prev_addr)
    except TraceFormatError as exc:
        return exc
    return [_op_slots(op) for op in decoded], end


def _too_wide_store(slots) -> bool:
    op = {name: value for name, (_, value) in zip(Op.__slots__, slots)}
    return op["kind"] is OpKind.STORE and op["value"] >> (8 * op["size"])


def _assert_decoders_agree(payload, n_ops, prev_addr):
    """Both decoders give the same ops and end address, or both raise.
    The one allowed difference: where the reference returns a STORE wider
    than its access, :func:`_decode_ops` raises."""
    payload = bytes(payload)
    want = _decode_outcome(_reference_decode_ops, payload, n_ops, prev_addr)
    got = _decode_outcome(_decode_ops, payload, n_ops, prev_addr)
    if isinstance(want, TraceFormatError):
        assert isinstance(got, TraceFormatError), got
    elif any(_too_wide_store(slots) for slots in want[0]):
        assert isinstance(got, TraceFormatError)
        assert "does not fit" in str(got)
    else:
        assert got == want


def _encode_stream(stream, prev_addr):
    payload = bytearray()
    for op in stream:
        prev_addr = _encode_op(payload, op, prev_addr)
    return payload


#: Byte-level damage: overwrite, insert or delete one byte (the position
#: is taken modulo the payload length).
_garbles = st.lists(st.tuples(st.sampled_from(["set", "insert", "delete"]),
                              st.integers(min_value=0, max_value=1 << 12),
                              st.integers(min_value=0, max_value=255)),
                    max_size=3)
_start_addrs = st.sampled_from([0, 8, 1 << 20, (1 << 36) + 3])


def _garble(payload, garbles):
    payload = bytearray(payload)
    for action, pos, byte in garbles:
        if action == "insert":
            payload.insert(pos % (len(payload) + 1), byte)
        elif payload and action == "set":
            payload[pos % len(payload)] = byte
        elif payload:
            del payload[pos % len(payload)]
    return payload


@settings(max_examples=150, deadline=None)
@given(streams=_streams, garbles=_garbles,
       n_delta=st.sampled_from([0, 0, 0, -1, 1]), start=_start_addrs)
def test_decoder_matches_reference_on_streams(streams, garbles, n_delta,
                                              start):
    for stream in streams:
        payload = _encode_stream(stream, start)
        _assert_decoders_agree(payload, len(stream), start)
        _assert_decoders_agree(_garble(payload, garbles),
                               max(0, len(stream) + n_delta), start)


@settings(max_examples=60, deadline=None)
@given(garbles=_garbles, n_delta=st.sampled_from([0, -1, 1]))
def test_decoder_matches_reference_at_varint_boundaries(garbles, n_delta):
    stream = _varint_edge_stream()
    payload = _encode_stream(stream, 0)
    _assert_decoders_agree(payload, len(stream), 0)
    _assert_decoders_agree(_garble(payload, garbles), len(stream) + n_delta,
                           0)


def _append_padded_uvarint(buf, value, pad):
    """``value`` as a varint with ``pad`` extra all-zero groups: ``pad=0``
    is the canonical encoding, ``1`` turns 0 into ``0x80 0x00``, and an
    encoding longer than eleven bytes is overlong."""
    groups = []
    while True:
        groups.append(value & 0x7F)
        value >>= 7
        if not value:
            break
    groups += [0] * pad
    for group in groups[:-1]:
        buf.append(group | 0x80)
    buf.append(groups[-1])


#: Every head byte a record can start with.
_VALID_HEADS = [kind | size_bits << 3 | need
                for kind in range(trace._K_FENCE + 1)
                for size_bits in range(4) for need in (0, 0x20)]
_FIELD_COUNTS = {trace._K_LOAD: 1, trace._K_STORE: 2, trace._K_FETCH_ADD: 2,
                 trace._K_CAS: 3, trace._K_COMPUTE: 1, trace._K_FENCE: 0}
_field_values = st.one_of(
    st.sampled_from(_VARINT_EDGES),
    st.integers(min_value=0, max_value=64).map(lambda n: n * 16),
    st.integers(min_value=0, max_value=1 << 70))


@st.composite
def _padded_record(draw):
    """One record, possibly with a head no record has, whose varints may
    be non-canonical or overlong and whose STORE value may not fit."""
    head = draw(st.one_of(st.sampled_from(_VALID_HEADS),
                          st.integers(min_value=0, max_value=255)))
    fields = _FIELD_COUNTS.get(head & 0x07, 1)
    record = bytearray([head])
    for _ in range(fields):
        _append_padded_uvarint(record, draw(_field_values),
                               draw(st.sampled_from([0, 0, 0, 1, 2, 4, 10])))
    return record


@settings(max_examples=200, deadline=None)
@given(records=st.lists(_padded_record(), max_size=8),
       n_delta=st.sampled_from([0, 0, 0, -1, 1]), start=_start_addrs)
def test_decoder_matches_reference_on_padded_varints(records, n_delta,
                                                     start):
    _assert_decoders_agree(b"".join(records),
                           max(0, len(records) + n_delta), start)


@settings(max_examples=100, deadline=None)
@given(payload=st.binary(max_size=64),
       n_ops=st.integers(min_value=0, max_value=20), start=_start_addrs)
def test_decoder_matches_reference_on_garbage(payload, n_ops, start):
    _assert_decoders_agree(payload, n_ops, start)


@pytest.mark.parametrize("kind", ["load", "store", "fetch_add", "cas"])
@pytest.mark.parametrize("size", [2, 4, 8])
def test_unaligned_record_raises(kind, size):
    """A memory record whose address is not a multiple of its size is
    rejected, whether its op is interned, built in place or constructed."""
    op = {"load": ops.load(size, size=size),
          "store": ops.store(size, 1, size=size),
          "fetch_add": ops.fetch_add(size, 1, size=size),
          "cas": ops.cas(size, 0, 1, size=size)}[kind]
    payload = bytearray()
    _encode_op(payload, op, 0)
    assert len(_decode_ops(bytes(payload), 1, 0)[0]) == 1
    with pytest.raises(TraceFormatError, match="unaligned access"):
        _decode_ops(bytes(payload), 1, 1)
    _assert_decoders_agree(payload, 1, 1)


def test_noncanonical_varints_decode_like_canonical_ones():
    """``0x80 0x00`` is a two-byte zero: the delta, the STORE value and the
    COMPUTE cycle count all accept it, as the reference does."""
    payload = bytes([trace._K_STORE | trace._SIZE_LOG2[8] << 3,
                     0x80, 0x00, 0x80, 0x00, trace._K_COMPUTE, 0x80, 0x00])
    decoded, end = _decode_ops(payload, 2, 64)
    assert end == 64
    _assert_same_op(decoded[0], ops.store(64, 0, size=8))
    _assert_same_op(decoded[1], ops.compute(0))
    _assert_decoders_agree(payload, 2, 64)


# ------------------------------------------------- STORE wider than access


def test_writer_rejects_store_wider_than_its_access(tmp_path):
    writer = TraceWriter(tmp_path / "x.rtrace", num_threads=1)
    with pytest.raises(TraceFormatError, match="does not fit"):
        writer.append(0, ops.store(0x40000, 1 << 40, 4))
    writer.append(0, ops.store(0x40000, (1 << 32) - 1, 4))
    writer.abort()


@pytest.mark.parametrize("size", _SIZES)
def test_decoder_rejects_store_wider_than_its_access(size):
    widest = ops.store(8, (1 << (8 * size)) - 1, size=size)
    payload = bytearray()
    _encode_op(payload, widest, 0)
    (decoded,), _ = _decode_ops(bytes(payload), 1, 0)
    _assert_same_op(decoded, widest)
    wide = bytearray([trace._K_STORE | trace._SIZE_LOG2[size] << 3, 16])
    trace._append_uvarint(wide, 1 << (8 * size))
    with pytest.raises(TraceFormatError, match="does not fit"):
        _decode_ops(bytes(wide), 1, 0)


def test_trace_with_too_wide_store_fails_verify_and_replay(tmp_path):
    """A well-formed file (valid frames, counts and digest) holding a STORE
    wider than its access is rejected by ``verify_trace`` and fails replay
    with a :class:`TraceFormatError` rather than inside the simulator."""
    from repro.harness.runner import execute_spec
    from repro.workloads.trace import trace_spec

    path = tmp_path / "wide.rtrace"
    record = bytearray([trace._K_STORE | trace._SIZE_LOG2[4] << 3])
    trace._append_uvarint(record, trace._zigzag(0x40000))
    trace._append_uvarint(record, 1 << 40)
    writer = TraceWriter(path, num_threads=1)
    writer._append_records(0, record, 1, 0x40000)
    writer.close()
    with pytest.raises(TraceFormatError, match="does not fit"):
        verify_trace(path)
    with pytest.raises(TraceFormatError, match="does not fit"):
        execute_spec(trace_spec(path))


# -------------------------------------------------------------- rejection


@settings(max_examples=25, deadline=None)
@given(streams=_streams, data=st.data())
def test_any_truncation_raises(tmp_path_factory, streams, data):
    """Every strict prefix of a valid trace is invalid: the end frame (and
    per-thread counts within it) make even frame-boundary cuts loud."""
    base = tmp_path_factory.mktemp("tr")
    path = base / "t.rtrace"
    _write(path, streams, chunk_ops=7)
    blob = path.read_bytes()
    cut = data.draw(st.integers(min_value=0, max_value=len(blob) - 1))
    trunc = base / "trunc.rtrace"
    trunc.write_bytes(blob[:cut])
    with pytest.raises(TraceFormatError):
        verify_trace(trunc)


@settings(max_examples=40, deadline=None)
@given(streams=_streams, data=st.data())
def test_any_corruption_outside_meta_raises(tmp_path_factory, streams,
                                            data):
    """Flipping any byte outside the (unhashed, informational) JSON
    metadata region must raise TraceFormatError: header fields are
    structurally checked, the digest covers all record bytes, zlib's
    checksum covers each frame, and the end frame pins per-thread counts."""
    base = tmp_path_factory.mktemp("cor")
    path = base / "t.rtrace"
    _write(path, streams, chunk_ops=7)
    blob = bytearray(path.read_bytes())
    meta_len = int.from_bytes(blob[48:52], "little")
    meta_lo, meta_hi = HEADER_SIZE, HEADER_SIZE + meta_len
    positions = [i for i in range(len(blob)) if not meta_lo <= i < meta_hi
                 and not 48 <= i < 52]
    pos = data.draw(st.sampled_from(positions))
    flip = data.draw(st.integers(min_value=1, max_value=255))
    blob[pos] ^= flip
    bad = base / "bad.rtrace"
    bad.write_bytes(bytes(blob))
    with pytest.raises(TraceFormatError):
        verify_trace(bad)


@pytest.mark.parametrize("stream", [
    [ops.load(0, 1), ops.load(0x49, 1), ops.load(0, 1),
     ops.fetch_add(0x20cc, 1), ops.load(0, 1)],
    # Incompressible record bytes: zlib emits a stored block.
    [ops.store(8 * i, (0x9E3779B97F4A7C15 * (i + 1)) % (1 << 64), size=8)
     for i in range(6)],
], ids=["fixed-block", "stored-block"])
def test_flips_zlib_ignores_still_raise(tmp_path, stream):
    """zlib checks its adler32 against the *decompressed* bytes only, so a
    flip in the header's level bits or in padding bits decodes to the same
    payload.  Every such flip inside a frame must still be rejected."""
    path = tmp_path / "t.rtrace"
    _write(path, [stream], chunk_ops=64)
    blob = path.read_bytes()
    start = blob.index(b"\x78\x9c", HEADER_SIZE)
    end = len(blob) - 2  # end frame: marker + one count varint
    comp = blob[start:end]
    payload = zlib.decompress(comp)
    ignored = 0
    for pos in range(len(comp)):
        for flip in range(1, 256):
            damaged = bytearray(comp)
            damaged[pos] ^= flip
            try:
                if zlib.decompress(bytes(damaged)) != payload:
                    continue
            except zlib.error:
                continue
            ignored += 1
            bad = tmp_path / "bad.rtrace"
            bad.write_bytes(blob[:start] + bytes(damaged) + blob[end:])
            with pytest.raises(TraceFormatError):
                verify_trace(bad)
    assert ignored  # the header's level bits alone give three


@settings(max_examples=30, deadline=None)
@given(blob=st.binary(max_size=200))
def test_garbage_never_parses(tmp_path_factory, blob):
    """Arbitrary bytes are rejected with a structured error (the codec has
    no pickle/eval path that random input could reach)."""
    path = tmp_path_factory.mktemp("gb") / "g.rtrace"
    path.write_bytes(blob)
    with pytest.raises(TraceFormatError):
        verify_trace(path)
    if len(blob) < HEADER_SIZE or blob[:4] != MAGIC:
        with pytest.raises(TraceFormatError):
            trace_info(path)


_READERS = {
    "trace_info": trace_info,
    "verify_trace": verify_trace,
    "read_trace": read_trace,
    "iter_thread_ops": lambda path: list(iter_thread_ops(path, 0)),
}


@pytest.mark.parametrize("reader", sorted(_READERS))
@pytest.mark.parametrize("target", ["missing", "directory"])
def test_unreadable_path_is_a_format_error(tmp_path, reader, target):
    """A path that cannot be opened as a file raises the structured
    error every other unusable trace does, not a raw ``OSError``."""
    path = tmp_path / "t.rtrace"
    if target == "directory":
        path.mkdir()
    with pytest.raises(TraceFormatError, match="cannot read trace"):
        _READERS[reader](path)


# ------------------------------------------------------ encoder rejection


def test_generic_rmw_is_unencodable(tmp_path):
    writer = TraceWriter(tmp_path / "x.rtrace", num_threads=1)
    with pytest.raises(TraceFormatError):
        writer.append(0, ops.rmw(0, lambda old: old ^ 1, size=4))
    writer.abort()


def test_fetch_add_with_foreign_mask_is_unencodable(tmp_path):
    writer = TraceWriter(tmp_path / "x.rtrace", num_threads=1)
    op = Op(OpKind.RMW, addr=8, size=4, modify=FetchAddModify(1, 0xFF))
    with pytest.raises(TraceFormatError):
        writer.append(0, op)
    writer.abort()


def test_negative_operands_are_unencodable(tmp_path):
    writer = TraceWriter(tmp_path / "x.rtrace", num_threads=1)
    with pytest.raises(TraceFormatError):
        writer.append(0, Op(OpKind.RMW, addr=8, size=4,
                            modify=CasModify(-1, 0)))
    writer.abort()


def test_closed_writer_rejects_appends(tmp_path):
    writer = TraceWriter(tmp_path / "x.rtrace", num_threads=1)
    writer.append(0, ops.load(0, size=4))
    writer.close()
    with pytest.raises(TraceFormatError):
        writer.append(0, ops.load(0, size=4))


def test_interned_constructors_are_pure():
    """Interning must never leak state across calls: equal arguments give
    equal (here: identical) ops, different arguments give different ops."""
    assert ops.load(64, size=8) is ops.load(64, size=8)
    assert ops.fetch_add(64, 2, size=8) is ops.fetch_add(64, 2, size=8)
    assert ops.compute(5) is ops.compute(5)
    assert ops.fence() is ops.fence()
    assert ops.load(64, size=8) is not ops.load(64, size=4)
    assert ops.fetch_add(64, 2) is not ops.fetch_add(64, 3)
    a = ops.fetch_add(8, 1, size=2)
    assert a.modify.mask == 0xFFFF and a.modify.delta == 1


# --------------------------------------------------------------- synthesis

#: Profiles that between them reach every record :func:`synthesize_trace`
#: writes: 1- to 3-byte address deltas, 5-byte store values, FETCH_ADD,
#: compute records with 1- and 2-byte cycle counts and none at all, 64 B
#: and 128 B lines, and 2 to 8 threads.
_SYNTH_PROFILES = {
    "default": SharingProfile(),
    "fetch-add-8t": SharingProfile(
        num_threads=8, ops_per_thread=1500, ts_fraction=0.4,
        fs_fraction=0.3, rmw_fraction=0.9, compute_every=0, seed=3),
    "wide-line-2t": SharingProfile(
        num_threads=2, ops_per_thread=3000, block_size=128,
        compute_cycles=300, seed=7),
    "private-only": SharingProfile(
        ops_per_thread=2500, fs_fraction=0.0, ts_fraction=0.0,
        private_lines=4096, locality=0.5, write_fraction=0.7, seed=11),
}

#: sha256 of the whole file (header, metadata, frames, end frame) per
#: ``(profile, chunk_ops)``.  A change to the synthesizer, the record
#: encoding or the framing that moves a single byte fails here.
_SYNTH_FILE_SHA256 = {
    ("default", 1):
        "115f630874fcdeaadef7c155f1e6463d0f5481c210a142d7be54debea68969d0",
    ("default", 7):
        "e5b92aede44801df1280d970d9331ea280f5e656c388ffcc4e4cb0221a69ec43",
    ("default", 4096):
        "6d6aac2547f83e34ba84b860f9b9e6f68e26506bba1b011252738cce3f90b9ad",
    ("fetch-add-8t", 1):
        "54d33651a2f9da0369eaa4638c576ec1abc0455af31e257ce36056088084bd14",
    ("fetch-add-8t", 7):
        "251f624e09cddf9db4b21bfa4860b17f226363ea582ff1d431658208df463412",
    ("fetch-add-8t", 4096):
        "e7bc080128c94b987455c1f05bd35bac9b5670b5946073cbf38ebdd8f0f98a49",
    ("wide-line-2t", 1):
        "9915fe098f0a6353dd5d86093a2fbb1488d89ea0f7ccb24aaca271a4d004864b",
    ("wide-line-2t", 7):
        "9ca040415a56b90c0b6d23b04696b06999aa6d6d1e7f5fbf2f4af7877dbecaa4",
    ("wide-line-2t", 4096):
        "4c0ea87dafb391c119c8634111031038b1cbc7a80f7dadf43150892b5df02475",
    ("private-only", 1):
        "f630709e7c0ecca61c972db7d6df4c493ad1a0c40156917ae53b99419cacbfac",
    ("private-only", 7):
        "4620c94d27abd2033f6cff21e907090276c82e6485f7d88c479ea7f6d280a137",
    ("private-only", 4096):
        "7d05784a1bc61d1ba0af04a8b19767e2f48ed18d7f1b2085ec6fe0737d985d17",
}


@pytest.mark.parametrize("name,chunk_ops", sorted(_SYNTH_FILE_SHA256))
def test_synthesized_bytes_are_pinned(tmp_path, name, chunk_ops):
    path = tmp_path / "synth.rtrace"
    synthesize_trace(_SYNTH_PROFILES[name], path, chunk_ops=chunk_ops)
    digest = hashlib.sha256(path.read_bytes()).hexdigest()
    assert digest == _SYNTH_FILE_SHA256[name, chunk_ops]


@pytest.mark.parametrize("chunk_ops", [1, 7, 4096])
@pytest.mark.parametrize("name", sorted(_SYNTH_PROFILES))
def test_synthesized_bytes_match_per_op_appends(tmp_path, name, chunk_ops):
    """Lockstep with the general encoder: decoding a synthesized trace and
    appending every op through :meth:`TraceWriter.append` (same metadata,
    same ``chunk_ops``, threads in order) rewrites the file byte for
    byte."""
    synth = tmp_path / "synth.rtrace"
    synthesize_trace(_SYNTH_PROFILES[name], synth, chunk_ops=chunk_ops)
    info, programs = read_trace(synth)
    again = tmp_path / "again.rtrace"
    writer = TraceWriter(again, num_threads=info.num_threads,
                         block_size=info.block_size, meta=info.meta,
                         chunk_ops=chunk_ops)
    for tid, program in enumerate(programs):
        for op in program:
            writer.append(tid, op)
    writer.close()
    assert again.read_bytes() == synth.read_bytes()


def test_synthesis_builds_no_ops(tmp_path, monkeypatch):
    """Synthesis encodes records directly: it constructs no :class:`Op` and
    calls neither :meth:`TraceWriter.append` nor ``_encode_op``."""
    def forbidden(*args, **kwargs):
        raise AssertionError("per-op path used during synthesis")

    path = tmp_path / "synth.rtrace"
    profile = _SYNTH_PROFILES["wide-line-2t"]
    with monkeypatch.context() as patch:
        patch.setattr(Op, "__init__", forbidden)
        patch.setattr(TraceWriter, "append", forbidden)
        patch.setattr(trace, "_encode_op", forbidden)
        info = synthesize_trace(profile, path, chunk_ops=7)
    assert info.total_ops == profile.num_threads * profile.ops_per_thread
    assert verify_trace(path).digest == info.digest


@pytest.mark.parametrize("field,value", [("compute_cycles", -1),
                                         ("compute_every", -8)])
def test_profile_rejects_negative_compute(field, value):
    with pytest.raises(ConfigError, match=field):
        SharingProfile(**{field: value})
