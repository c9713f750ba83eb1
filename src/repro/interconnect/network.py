"""A latency-modelled interconnect with per-class traffic accounting.

Messages travel on virtual channels (request, forward, writeback, response).
Delivery on the *same* channel between the same (src, dst) pair is FIFO —
as in real on-chip networks — but messages on different channels can pass
each other, and larger messages incur a serialization delay. This is what
makes the protocol races of the paper's Section V-E (e.g. a one-flit
Inv_PRV overtaking a nine-flit Data_PRV) actually happen in simulation.

Hot-path layout: channel assignment, serialization delay and per-message
accounting are all per-``MessageType`` tables indexed by enum value and
built once, and when no observer is attached :meth:`Network.send` schedules
the destination handler directly — the post-send/post-deliver indirection
exists only while an observer (tracer, sanitizer, metrics sampler, episode
tracker; see :mod:`repro.obs`) is attached.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Tuple

from repro.common.errors import SimulationError
from repro.common.events import EventQueue
from repro.interconnect.message import (
    CLASS_BY_VALUE,
    MSG_CTRL_WB,
    MSG_PRV_WB,
    MSG_PUTM,
    SIZE_BY_VALUE,
    Message,
    MessageClass,
    MessageType,
)

#: Virtual-channel assignment. Writeback-ish messages (PUTM, PRV_WB,
#: CTRL_WB) share a channel so a core's dirty writeback can never be
#: overtaken by its later dataless termination response — the directory
#: relies on that ordering to avoid dropping privatized data.
_WB_TYPES = (MSG_PUTM, MSG_PRV_WB, MSG_CTRL_WB)


def _channel_of_type(mtype: MessageType) -> str:
    if mtype in _WB_TYPES:
        return "wb"
    mclass = CLASS_BY_VALUE[mtype._value_]
    if mclass is MessageClass.REQUEST:
        return "req"
    if mclass is MessageClass.INV_INTERVENTION:
        return "fwd"
    return "resp"


_CHANNEL_BY_VALUE: tuple = ("",) + tuple(
    _channel_of_type(mt) for mt in MessageType)

#: Link width in bytes per cycle (one flit).
_FLIT_BYTES = 8

#: Serialization delay per message type, derived from the size table.
_SER_DELAY_BY_VALUE: tuple = (0,) + tuple(
    max(0, SIZE_BY_VALUE[mt.value] - _FLIT_BYTES) // _FLIT_BYTES
    for mt in MessageType)


def channel_of(msg: Message) -> str:
    return _CHANNEL_BY_VALUE[msg.mtype._value_]


class NetworkStats:
    """Message counts and byte volume per traffic class.

    Internally accumulated per :class:`MessageType` in a flat list indexed
    by enum value (one C-level increment per message).  A message's size
    is fixed by its type, so byte volumes are those counts times
    ``SIZE_BY_VALUE``; the per-class dict views are assembled on demand.
    """

    __slots__ = ("_count_by_type",)

    def __init__(self) -> None:
        self._count_by_type: List[int] = [0] * (len(MessageType) + 1)

    def record(self, msg: Message) -> None:
        self._count_by_type[msg.mtype._value_] += 1

    def _bytes_by_type(self) -> List[int]:
        return [n * size for n, size in zip(self._count_by_type,
                                            SIZE_BY_VALUE)]

    def _by_class(self, per_type: List[int]) -> Dict[MessageClass, int]:
        out: Dict[MessageClass, int] = {}
        for mtype in MessageType:
            n = per_type[mtype._value_]
            if n:
                mclass = CLASS_BY_VALUE[mtype._value_]
                out[mclass] = out.get(mclass, 0) + n
        return out

    @property
    def count(self) -> Dict[MessageClass, int]:
        return self._by_class(self._count_by_type)

    @property
    def bytes(self) -> Dict[MessageClass, int]:
        return self._by_class(self._bytes_by_type())

    @property
    def total_messages(self) -> int:
        return sum(self._count_by_type)

    @property
    def total_bytes(self) -> int:
        return sum(self._bytes_by_type())

    def of_class(self, mclass: MessageClass) -> int:
        return self.count.get(mclass, 0)

    def count_of_type(self, mtype: MessageType) -> int:
        """Messages sent of one exact type (e.g. for asserting a protocol
        mode never used part of the vocabulary)."""
        return self._count_by_type[mtype._value_]

    def as_dict(self) -> Dict[str, int]:
        out = {f"msgs_{c.value}": n for c, n in sorted(
            self.count.items(), key=lambda kv: kv[0].value)}
        out["msgs_total"] = self.total_messages
        out["bytes_total"] = self.total_bytes
        return out


class Network:
    """Point-to-point network with uniform base latency plus serialization.

    Node ids: cores occupy ``0 .. num_cores-1``; directory/LLC slices occupy
    ``num_cores .. num_cores+num_slices-1``. Handlers are registered per
    node and invoked with the message when it arrives.
    """

    #: Link width in bytes per cycle (one flit).
    FLIT_BYTES = _FLIT_BYTES
    _SER_DELAY_BY_VALUE = _SER_DELAY_BY_VALUE

    def __init__(self, queue: EventQueue, latency: int,
                 ordered_source_min: Optional[int] = None) -> None:
        self._queue = queue
        self.latency = latency
        #: Nodes >= this id (the directory slices) emit fully ordered
        #: point-to-point traffic: a grant can never be overtaken by a later
        #: invalidation/intervention from the same slice. Directory
        #: protocols commonly assume an ordered forward network; the
        #: remaining (and handled) races come from third-party cores and
        #: crossing request/writeback traffic.
        self.ordered_source_min = ordered_source_min
        self._handlers: Dict[int, Callable[[Message], None]] = {}
        self.stats = NetworkStats()
        self._last_delivery: Dict[Tuple[int, int, str], int] = {}
        #: Observer callbacks (tracers, sanitizers, metrics samplers,
        #: episode trackers — anything implementing the
        #: :class:`repro.obs.Observer` protocol), registered through
        #: :meth:`attach_observer`.  While both lists are empty ``send``
        #: takes a fast path that schedules the destination handler with no
        #: extra indirection.
        self.post_send_hooks: list = []
        self.post_deliver_hooks: list = []
        self._hooked = False
        #: Fault-injection seam (:mod:`repro.faults`).  When set, every
        #: injected message passes through ``fault_seam(msg, extra_delay)``
        #: *before* it is scheduled or any post-send hook fires: the seam
        #: returns the (possibly increased) extra delay, or None to drop the
        #: message on the wire.  A dropped message is counted in the traffic
        #: stats (it was sent) but never delivered and never observed, so
        #: in-flight accounting by observers stays consistent.  None (the
        #: default) costs one attribute check per send.
        self.fault_seam: Optional[Callable[[Message, int],
                                           Optional[int]]] = None

    def register(self, node_id: int, handler: Callable[[Message], None]) -> None:
        if node_id in self._handlers:
            raise SimulationError(f"node {node_id} already registered")
        self._handlers[node_id] = handler

    def close(self) -> None:
        """Unregister every handler, observer hook and the fault seam (each
        is bound to an object that references this network).  Idempotent;
        a later :meth:`send` raises :class:`SimulationError`."""
        self._handlers.clear()
        self.post_send_hooks.clear()
        self.post_deliver_hooks.clear()
        self._hooked = False
        self.fault_seam = None

    def attach_observer(self, observer: object) -> None:
        """Register an observer (:class:`repro.obs.Observer` protocol).

        The observer's ``on_send(msg)`` method — when it defines one —
        fires whenever a message is injected, and ``on_deliver(msg)`` after
        the destination handler has processed a delivery.  Observers must
        not send messages themselves.  Multiple observers coexist; each
        callback fires in attach order.  While no observer is attached,
        :meth:`send` keeps its no-indirection fast path.
        """
        on_send = getattr(observer, "on_send", None)
        on_deliver = getattr(observer, "on_deliver", None)
        if on_send is not None:
            self.post_send_hooks.append(on_send)
        if on_deliver is not None:
            self.post_deliver_hooks.append(on_deliver)
        self._hooked = bool(self.post_send_hooks or self.post_deliver_hooks)

    def detach_observer(self, observer: object) -> None:
        """Unregister ``observer``'s callbacks (inverse of
        :meth:`attach_observer`; a no-op for callbacks never attached)."""
        on_send = getattr(observer, "on_send", None)
        on_deliver = getattr(observer, "on_deliver", None)
        if on_send is not None and on_send in self.post_send_hooks:
            self.post_send_hooks.remove(on_send)
        if on_deliver is not None and on_deliver in self.post_deliver_hooks:
            self.post_deliver_hooks.remove(on_deliver)
        self._hooked = bool(self.post_send_hooks or self.post_deliver_hooks)

    def send(self, msg: Message, extra_delay: int = 0) -> None:
        """Inject ``msg``; arrival after latency + serialization + extra."""
        handler = self._handlers.get(msg.dst)
        if handler is None:
            raise SimulationError(f"no handler registered for node {msg.dst}")
        value = msg.mtype._value_
        self.stats._count_by_type[value] += 1
        if self.fault_seam is not None:
            perturbed = self.fault_seam(msg, extra_delay)
            if perturbed is None:
                return  # injected message loss: counted, never delivered
            extra_delay = perturbed
        arrival = (self._queue._now + self.latency
                   + self._SER_DELAY_BY_VALUE[value] + extra_delay)
        if (self.ordered_source_min is not None
                and msg.src >= self.ordered_source_min):
            channel = "ordered"
        else:
            channel = _CHANNEL_BY_VALUE[value]
        key = (msg.src, msg.dst, channel)
        floor = self._last_delivery.get(key, -1)
        if arrival < floor:
            arrival = floor  # FIFO within a virtual channel
        self._last_delivery[key] = arrival
        if not self._hooked:
            # Fast path: no tracer/sanitizer attached — the scheduled event
            # invokes the destination handler directly, with no wrapper
            # call in between.
            self._queue.schedule_at(arrival, handler, msg)
            return
        self._queue.schedule_at(arrival, self._deliver, msg)
        for hook in self.post_send_hooks:
            hook(msg)

    def _deliver(self, msg: Message) -> None:
        self._handlers[msg.dst](msg)
        for hook in self.post_deliver_hooks:
            hook(msg)
