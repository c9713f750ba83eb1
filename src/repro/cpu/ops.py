"""Memory operations yielded by thread programs.

A thread program is a Python generator that yields :class:`Op` values and
receives the result of each operation back (the loaded value for LOAD, the
*old* value for RMW). This lets workloads implement real synchronisation —
spinlocks, CAS loops — whose control flow depends on loaded values, which a
static trace cannot express.

Access sizes are 1, 2, 4 or 8 bytes and naturally aligned, mirroring the two
spare header bits FSLite uses to encode the touched-byte count (Section V-A).

Ops are constructed once per executed instruction, on the innermost
simulation loop, so :class:`Op` is a ``__slots__`` class and the
``is_memory``/``is_write`` classifications are plain attributes computed at
construction rather than properties re-deriving them on every read.
"""

from __future__ import annotations

import enum
from typing import Callable, Optional


class OpKind(enum.Enum):
    LOAD = enum.auto()
    STORE = enum.auto()
    #: Atomic read-modify-write (CAS, fetch-add...). Needs write permission;
    #: returns the old value; the new value is ``modify(old)``.
    RMW = enum.auto()
    #: Advance the core's local clock without touching memory.
    COMPUTE = enum.auto()
    #: Ordering point; a timing no-op for in-order cores, drains the window
    #: on the out-of-order model.
    FENCE = enum.auto()


#: Module-level member bindings for the per-op paths (see
#: :mod:`repro.coherence.states` for why ``OpKind.LOAD`` reads are avoided).
OP_LOAD = OpKind.LOAD
OP_STORE = OpKind.STORE
OP_RMW = OpKind.RMW
OP_COMPUTE = OpKind.COMPUTE
OP_FENCE = OpKind.FENCE


class Op:
    """One operation of a thread program.

    ``is_memory`` and ``is_write`` are set once in ``__init__``; hot-path
    consumers (cores, L1 controllers) read them as plain attributes.  The
    parameters are ordered so the per-op constructors below pass a short
    positional prefix: a keyword call to a class costs ~300 ns more than a
    positional one on CPython 3.11.
    """

    __slots__ = ("kind", "addr", "size", "value", "cycles", "modify",
                 "need_value", "is_memory", "is_write")

    def __init__(self, kind: OpKind, addr: int = 0, size: int = 4,
                 value: int = 0, need_value: bool = True,
                 modify: Optional[Callable[[int], int]] = None,
                 cycles: int = 0) -> None:
        memory = (kind is OP_LOAD or kind is OP_STORE
                  or kind is OP_RMW)
        if memory:
            if size not in (1, 2, 4, 8):
                raise ValueError(f"bad access size {size}")
            if addr % size != 0:
                raise ValueError(
                    f"unaligned access: addr={addr:#x} size={size}")
            if kind is OP_RMW and modify is None:
                raise ValueError("RMW requires a modify function")
        self.kind = kind
        self.addr = addr
        self.size = size
        self.value = value
        self.cycles = cycles
        self.modify = modify
        #: Out-of-order hint: the program does not consume this op's result,
        #: so the core may issue past it.
        self.need_value = need_value
        self.is_memory = memory
        self.is_write = memory and kind is not OP_LOAD

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"Op({self.kind.name}, addr={self.addr:#x}, "
                f"size={self.size}, value={self.value})")


#: Interned LOAD ops.  Ops are immutable after construction (no consumer
#: writes a field, nothing keys on identity), and loads are by far the most
#: constructed kind — workloads re-touch the same addresses millions of
#: times.  Interning turns the dominant hot-path construction into a dict
#: hit.
_LOAD_CACHE: dict = {}
_LOAD_CACHE_MAX = 1 << 16


def load(addr: int, size: int = 4, need_value: bool = True) -> Op:
    key = (addr, size, need_value)
    op = _LOAD_CACHE.get(key)
    if op is None:
        if len(_LOAD_CACHE) >= _LOAD_CACHE_MAX:
            _LOAD_CACHE.clear()
        op = Op(OP_LOAD, addr, size, 0, need_value)
        _LOAD_CACHE[key] = op
    return op


def store(addr: int, value: int, size: int = 4) -> Op:
    return Op(OP_STORE, addr, size, value, False)


def rmw(addr: int, modify: Callable[[int], int], size: int = 4,
        need_value: bool = True) -> Op:
    return Op(OP_RMW, addr, size, 0, need_value, modify)


class FetchAddModify:
    """Fetch-and-add modify function (``(old + delta) & mask``).

    A ``__slots__`` class instead of a lambda so the trace encoder can read
    the delta back out.
    """

    __slots__ = ("delta", "mask")

    def __init__(self, delta: int, mask: int) -> None:
        self.delta = delta
        self.mask = mask

    def __call__(self, old: int) -> int:
        return (old + self.delta) & self.mask


class CasModify:
    """Compare-and-swap modify function (a class, like
    :class:`FetchAddModify`, so the trace encoder can read its fields)."""

    __slots__ = ("expect", "new")

    def __init__(self, expect: int, new: int) -> None:
        self.expect = expect
        self.new = new

    def __call__(self, old: int) -> int:
        return self.new if old == self.expect else old


#: Interned FETCH_ADD and COMPUTE ops, same rationale (and safety
#: argument: immutability, no identity keying) as ``_LOAD_CACHE``.  Counter
#: workloads fetch-add the same address millions of times, and trace replay
#: re-materialises every op from disk — interning makes both a dict hit.
#: CAS is left uninterned: its ``expect`` operand is usually a just-loaded
#: value, so keys would rarely repeat.
_FETCH_ADD_CACHE: dict = {}
_FETCH_ADD_CACHE_MAX = 1 << 14
_COMPUTE_CACHE: dict = {}
_COMPUTE_CACHE_MAX = 1 << 10


def fetch_add(addr: int, delta: int = 1, size: int = 4,
              need_value: bool = False) -> Op:
    """Atomic fetch-and-add (result wraps at the access size)."""
    key = (addr, delta, size, need_value)
    op = _FETCH_ADD_CACHE.get(key)
    if op is None:
        if len(_FETCH_ADD_CACHE) >= _FETCH_ADD_CACHE_MAX:
            _FETCH_ADD_CACHE.clear()
        mask = (1 << (8 * size)) - 1
        op = rmw(addr, FetchAddModify(delta, mask), size=size,
                 need_value=need_value)
        _FETCH_ADD_CACHE[key] = op
    return op


def cas(addr: int, expect: int, new: int, size: int = 4,
        need_value: bool = True) -> Op:
    """Compare-and-swap; the program checks the returned old value."""
    return rmw(addr, CasModify(expect, new), size=size,
               need_value=need_value)


def compute(cycles: int) -> Op:
    op = _COMPUTE_CACHE.get(cycles)
    if op is None:
        if len(_COMPUTE_CACHE) >= _COMPUTE_CACHE_MAX:
            _COMPUTE_CACHE.clear()
        op = Op(OP_COMPUTE)
        op.cycles = cycles
        op.need_value = False
        _COMPUTE_CACHE[cycles] = op
    return op


#: FENCE carries no operands at all — one shared instance suffices.
_FENCE = Op(OP_FENCE, need_value=False)


def fence() -> Op:
    return _FENCE
