"""Coherence message types.

Message vocabulary covers the baseline MESI protocol plus the FSDetect and
FSLite extensions of the paper (Sections IV-V): REQ_MD piggybacking,
REP_MD / phantom metadata messages, and the privatization family
(TR_PRV, Data_PRV, GetCHK/GetXCHK, Ack_PRV, Inv_PRV, Prv_WB, Ctrl_WB,
UpgAck_PRV).
"""

from __future__ import annotations

import enum
from typing import Any, Dict, Optional


class MessageType(enum.Enum):
    # -- baseline requests (L1 -> directory) --------------------------------
    GET = enum.auto()            # read miss
    GETX = enum.auto()           # write miss (read-exclusive)
    UPGRADE = enum.auto()        # S -> M permission request
    PUTM = enum.auto()           # dirty writeback (also used for PRV blocks)

    # -- baseline directory -> L1 -------------------------------------------
    FWD_GET = enum.auto()        # intervention for a read
    FWD_GETX = enum.auto()       # intervention for a write
    INV = enum.auto()            # invalidation
    DATA = enum.auto()           # data response (shared)
    DATA_E = enum.auto()         # data response (exclusive)
    UPG_ACK = enum.auto()        # upgrade acknowledgement
    WB_ACK = enum.auto()         # writeback acknowledgement
    RECALL = enum.auto()         # inclusive-LLC recall of an owned block

    # -- baseline L1 -> directory / L1 ---------------------------------------
    INV_ACK = enum.auto()        # invalidation acknowledgement
    DATA_WB = enum.auto()        # owner's data copy to the directory
    XFER_ACK = enum.auto()       # ownership-transfer ack (FWD_GETX, no data)
    ACK_NO_DATA = enum.auto()    # owner silently dropped the block (clean E)
    DATA_TO_REQ = enum.auto()    # owner's data sent directly to the requestor

    # -- FSDetect metadata ----------------------------------------------------
    REP_MD = enum.auto()         # PAM-entry payload to the directory
    PHANTOM_MD = enum.auto()     # dataless "no metadata" notification

    # -- FSLite privatization -------------------------------------------------
    TR_PRV = enum.auto()         # trigger privatization (directory -> sharers)
    DATA_PRV = enum.auto()       # private copy of a privatized block
    UPG_ACK_PRV = enum.auto()    # upgrade ack that also privatizes
    GETCHK = enum.auto()         # first-touch read conflict check
    GETXCHK = enum.auto()        # first-touch write conflict check
    ACK_PRV = enum.auto()        # conflict check passed
    INV_PRV = enum.auto()        # terminate privatization
    PRV_WB = enum.auto()         # privatized copy returned on termination
    CTRL_WB = enum.auto()        # dataless termination response (race)


#: One module-level binding per member (see :mod:`repro.coherence.states`
#: for why the hot paths avoid ``MessageType.X`` reads).
MSG_GET = MessageType.GET
MSG_GETX = MessageType.GETX
MSG_UPGRADE = MessageType.UPGRADE
MSG_PUTM = MessageType.PUTM
MSG_FWD_GET = MessageType.FWD_GET
MSG_FWD_GETX = MessageType.FWD_GETX
MSG_INV = MessageType.INV
MSG_DATA = MessageType.DATA
MSG_DATA_E = MessageType.DATA_E
MSG_UPG_ACK = MessageType.UPG_ACK
MSG_WB_ACK = MessageType.WB_ACK
MSG_RECALL = MessageType.RECALL
MSG_INV_ACK = MessageType.INV_ACK
MSG_DATA_WB = MessageType.DATA_WB
MSG_XFER_ACK = MessageType.XFER_ACK
MSG_ACK_NO_DATA = MessageType.ACK_NO_DATA
MSG_DATA_TO_REQ = MessageType.DATA_TO_REQ
MSG_REP_MD = MessageType.REP_MD
MSG_PHANTOM_MD = MessageType.PHANTOM_MD
MSG_TR_PRV = MessageType.TR_PRV
MSG_DATA_PRV = MessageType.DATA_PRV
MSG_UPG_ACK_PRV = MessageType.UPG_ACK_PRV
MSG_GETCHK = MessageType.GETCHK
MSG_GETXCHK = MessageType.GETXCHK
MSG_ACK_PRV = MessageType.ACK_PRV
MSG_INV_PRV = MessageType.INV_PRV
MSG_PRV_WB = MessageType.PRV_WB
MSG_CTRL_WB = MessageType.CTRL_WB


class MessageClass(enum.Enum):
    """Traffic classes used for the paper's interconnect accounting."""

    REQUEST = "request"           # Get/GetX/Upgrade/GetCHK/GetXCHK
    INV_INTERVENTION = "inv_intervention"
    DATA = "data"
    CONTROL = "control"           # acks and other dataless messages
    METADATA = "metadata"         # REP_MD / PHANTOM_MD
    WRITEBACK = "writeback"


_CLASS_OF: Dict[MessageType, MessageClass] = {
    MSG_GET: MessageClass.REQUEST,
    MSG_GETX: MessageClass.REQUEST,
    MSG_UPGRADE: MessageClass.REQUEST,
    MSG_GETCHK: MessageClass.REQUEST,
    MSG_GETXCHK: MessageClass.REQUEST,
    MSG_FWD_GET: MessageClass.INV_INTERVENTION,
    MSG_FWD_GETX: MessageClass.INV_INTERVENTION,
    MSG_INV: MessageClass.INV_INTERVENTION,
    MSG_RECALL: MessageClass.INV_INTERVENTION,
    MSG_TR_PRV: MessageClass.INV_INTERVENTION,
    MSG_INV_PRV: MessageClass.INV_INTERVENTION,
    MSG_DATA: MessageClass.DATA,
    MSG_DATA_E: MessageClass.DATA,
    MSG_DATA_PRV: MessageClass.DATA,
    MSG_DATA_WB: MessageClass.DATA,
    MSG_DATA_TO_REQ: MessageClass.DATA,
    MSG_UPG_ACK: MessageClass.CONTROL,
    MSG_UPG_ACK_PRV: MessageClass.CONTROL,
    MSG_WB_ACK: MessageClass.CONTROL,
    MSG_INV_ACK: MessageClass.CONTROL,
    MSG_XFER_ACK: MessageClass.CONTROL,
    MSG_ACK_NO_DATA: MessageClass.CONTROL,
    MSG_ACK_PRV: MessageClass.CONTROL,
    MSG_CTRL_WB: MessageClass.CONTROL,
    MSG_REP_MD: MessageClass.METADATA,
    MSG_PHANTOM_MD: MessageClass.METADATA,
    MSG_PUTM: MessageClass.WRITEBACK,
    MSG_PRV_WB: MessageClass.WRITEBACK,
}

#: Message sizes in bytes: 8-byte control header; data messages carry a
#: 64-byte block; REP_MD carries the 16-byte read/write bit-vector payload
#: (Section IV, "REP_MD message carries the read and write bit-vectors as a
#: 16-byte payload").
_HEADER_BYTES = 8
_BLOCK_BYTES = 64
_MD_PAYLOAD_BYTES = 16


def _size_of(mtype: MessageType) -> int:
    if (_CLASS_OF[mtype] is MessageClass.DATA
            or mtype in (MSG_PUTM, MSG_PRV_WB)):
        return _HEADER_BYTES + _BLOCK_BYTES
    if mtype is MSG_REP_MD:
        return _HEADER_BYTES + _MD_PAYLOAD_BYTES
    return _HEADER_BYTES


#: Hot-path lookup tables indexed by ``MessageType.value`` (enum values are
#: ``auto()`` so they are 1..N; slot 0 is padding).  Indexing a list by an
#: int avoids the Python-level ``Enum.__hash__`` the per-message dict
#: lookups used to pay.  Hot paths read the index as ``mtype._value_``, the
#: member's plain instance attribute: ``.value`` is a property that runs
#: Python code on every read.
CLASS_BY_VALUE: tuple = (None,) + tuple(
    _CLASS_OF[mt] for mt in MessageType)
SIZE_BY_VALUE: tuple = (0,) + tuple(_size_of(mt) for mt in MessageType)


def table_by_value(routes: Dict[MessageType, Any]) -> tuple:
    """A tuple indexed by ``MessageType._value_`` (slot 0 padding) holding
    ``routes[mtype]``, or None for a type ``routes`` leaves out."""
    return (None,) + tuple(routes.get(mt) for mt in MessageType)


#: The FSLite-specific message vocabulary (for quick filtering).  Defined
#: here (the leaf module of the interconnect layer) so observers in
#: :mod:`repro.obs` and the tracer in :mod:`repro.system.tracing` can share
#: it without import cycles.
FSLITE_TYPES = frozenset({
    MSG_TR_PRV, MSG_DATA_PRV, MSG_UPG_ACK_PRV,
    MSG_GETCHK, MSG_GETXCHK, MSG_ACK_PRV,
    MSG_INV_PRV, MSG_PRV_WB, MSG_CTRL_WB,
    MSG_REP_MD, MSG_PHANTOM_MD,
})


class Message:
    """One interconnect message.

    ``payload`` is a grab-bag dict for protocol-specific fields: ``data``
    (bytearray), ``touched_mask`` (int byte mask of the triggering access),
    ``req_md`` (bool REQ_MD header bit), ``requestor`` (core id the response
    should unblock), ``read_bits``/``write_bits`` (REP_MD), ``solicited``
    (metadata accounting), ``dirty`` (writebacks).

    A ``__slots__`` class: the simulator allocates one per coherence
    message, so there is no ``__dict__`` and no dataclass overhead.
    """

    __slots__ = ("mtype", "src", "dst", "block_addr", "payload")

    def __init__(self, mtype: MessageType, src: int, dst: int,
                 block_addr: int,
                 payload: Optional[Dict[str, Any]] = None) -> None:
        self.mtype = mtype
        self.src = src
        self.dst = dst
        self.block_addr = block_addr
        self.payload = {} if payload is None else payload

    @property
    def mclass(self) -> MessageClass:
        return CLASS_BY_VALUE[self.mtype._value_]

    @property
    def size_bytes(self) -> int:
        return SIZE_BY_VALUE[self.mtype._value_]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Message({self.mtype.name}, {self.src}->{self.dst}, "
            f"blk={self.block_addr:#x})"
        )
