"""Coherence state enumerations.

Stable states only; in-flight transactions live in MSHRs (L1 side) and busy
contexts (directory side) rather than in transient line states, which keeps
the state machines small and the races explicit.

Each enum the per-access and per-message paths compare against is followed
by module-level constants bound to its members (``L1_PRV``, ``DIR_EM``,
``BUSY_FWD``, ``TERM_CONFLICT``...).  Reading ``L1State.PRV`` goes through
the enum metaclass on every evaluation and costs several times a plain
global load on CPython 3.10/3.11; the hot modules import the constants
instead.  They are the very member objects, so identity tests, reprs and
pickles are unchanged.
"""

from __future__ import annotations

import enum


class ProtocolMode(enum.Enum):
    """Which protocol the machine runs (the paper's three configurations)."""

    MESI = "mesi"          # improved non-blocking baseline
    FSDETECT = "fsdetect"  # detection only (reports, no repair)
    FSLITE = "fslite"      # detection + on-the-fly privatization

    @property
    def detects(self) -> bool:
        return self is not ProtocolMode.MESI

    @property
    def repairs(self) -> bool:
        return self is ProtocolMode.FSLITE


class L1State(enum.Enum):
    """Stable private-cache line states (MESI + the FSLite PRV state)."""

    I = enum.auto()
    S = enum.auto()
    E = enum.auto()
    M = enum.auto()
    PRV = enum.auto()

    @property
    def readable(self) -> bool:
        return self is not L1State.I

    @property
    def writable(self) -> bool:
        return self in (L1State.E, L1State.M)


L1_I = L1State.I
L1_S = L1State.S
L1_E = L1State.E
L1_M = L1State.M
L1_PRV = L1State.PRV


class DirState(enum.Enum):
    """Stable directory-entry states (cache-centric notation)."""

    #: No private copies; the LLC owns the block.
    I = enum.auto()
    #: One or more cores hold the block in S; LLC data is valid.
    S = enum.auto()
    #: One core owns the block in E or M; LLC data may be stale.
    EM = enum.auto()
    #: Privatized: multiple cores hold writable private copies (FSLite).
    PRV = enum.auto()


DIR_I = DirState.I
DIR_S = DirState.S
DIR_EM = DirState.EM
DIR_PRV = DirState.PRV


class BusyKind(enum.Enum):
    """Why a directory entry is transiently blocked."""

    FETCH = enum.auto()       # waiting for main memory
    FWD = enum.auto()         # intervention forwarded to the owner
    INV_COLLECT = enum.auto()  # collecting invalidation acks
    PRV_INIT = enum.auto()    # collecting TR_PRV metadata responses
    PRV_TERM = enum.auto()    # collecting Prv_WB termination responses
    RECALL = enum.auto()      # recalling private copies to evict the block


BUSY_FETCH = BusyKind.FETCH
BUSY_FWD = BusyKind.FWD
BUSY_INV_COLLECT = BusyKind.INV_COLLECT
BUSY_PRV_INIT = BusyKind.PRV_INIT
BUSY_PRV_TERM = BusyKind.PRV_TERM
BUSY_RECALL = BusyKind.RECALL


class TerminationCause(enum.Enum):
    """Why a privatized episode ended (Section V-C)."""

    CONFLICT = "conflict"
    LLC_EVICTION = "llc_eviction"
    SAM_EVICTION = "sam_eviction"
    EXTERNAL_SOCKET = "external_socket"
    INIT_ABORT = "init_abort"


TERM_CONFLICT = TerminationCause.CONFLICT
TERM_LLC_EVICTION = TerminationCause.LLC_EVICTION
TERM_SAM_EVICTION = TerminationCause.SAM_EVICTION
TERM_EXTERNAL_SOCKET = TerminationCause.EXTERNAL_SOCKET
TERM_INIT_ABORT = TerminationCause.INIT_ABORT
