"""The SAM half of the differential metadata oracle.

Detection metadata may forget accesses but never invent them: a SAM
entry's last writer must really have written the granule, and every core
it records as a reader must really have read it.  These tests corrupt a
finished machine's SAM entry and pin the exact divergences
:func:`repro.check.diff.differential_check` reports — kind, text and
order — because the repro text built from them feeds the campaign digest.
"""

import pytest

from repro.check.diff import Divergence, differential_check
from repro.check.fuzz import FuzzOp, fuzz_config
from repro.check.refmodel import run_reference
from repro.coherence.states import ProtocolMode

from test_diff import _detailed_machine

BLOCK = 0x40000
FSDETECT = ProtocolMode.FSDETECT

#: Core 0 writes then re-reads bytes 0-7, core 1 reads bytes 8-15 twice
#: and writes bytes 16-23; both evict, so each core's PAM reaches the SAM
#: of line 0.  Cores 2 and 3 never touch it.
SCHEDULE = [
    FuzzOp(0, "store", line=0, offset=0, size=8, value=0x11),
    FuzzOp(1, "load", line=0, offset=8, size=8),
    FuzzOp(1, "store", line=0, offset=16, size=8, value=0x22),
    FuzzOp(0, "load", line=0, offset=0, size=8),
    FuzzOp(1, "load", line=0, offset=8, size=8),
    FuzzOp(0, "evict", line=0),
    FuzzOp(1, "evict", line=0),
]


def _finished(reader_opt):
    """A finished FSDetect run of SCHEDULE, its reference, and the SAM
    entry of line 0 (checked clean before any corruption)."""
    config = fuzz_config(4).with_protocol(reader_metadata_opt=reader_opt)
    machine = _detailed_machine(SCHEDULE, FSDETECT, config, sanitize=False)
    ref = run_reference(SCHEDULE, 4, config)
    report = differential_check(machine, ref)
    assert report.ok, report.describe()
    entries = [sl.detector.sam.peek(BLOCK) for sl in machine.slices
               if BLOCK in sl.detector.sam]
    assert len(entries) == 1
    entry = entries[0]
    assert entry.reader_opt is reader_opt
    writers = entry.last_writer_map()
    assert writers[0] == 0 and writers[16] == 1
    return machine, ref, entry


def _set_writer(entry, granule, core):
    """Corrupt the entry: make ``core`` the last writer of ``granule``."""
    bit = 1 << granule
    entry.write_masks = [writes & ~bit for writes in entry.write_masks]
    entry.write_masks[core] |= bit
    entry.written |= bit


def _add_reader(entry, granule, core):
    """Corrupt the entry: record ``core`` as a reader of ``granule``
    (under reader_opt, as its one last reader)."""
    bit = 1 << granule
    if entry.reader_opt:
        entry.read_masks = [reads & ~bit for reads in entry.read_masks]
    entry.read_masks[core] |= bit
    entry.read_any |= bit


def _sam_divergences(machine, ref):
    return differential_check(
        machine, ref, check_memory=False, check_verdicts=False,
        check_mode_purity=False, check_counters=False).divergences


def test_bogus_full_mode_readers_are_reported_per_granule():
    machine, ref, entry = _finished(reader_opt=False)
    _add_reader(entry, 3, 2)    # core 0 read it; 2 never did
    _add_reader(entry, 20, 3)   # core 1 only wrote granule 20
    _add_reader(entry, 20, 0)
    got = _sam_divergences(machine, ref)
    assert got == [
        Divergence("sam", FSDETECT, BLOCK,
                   "granule 3: SAM readers [2] never read it"),
        Divergence("sam", FSDETECT, BLOCK,
                   "granule 20: SAM readers [0, 3] never read it"),
    ]
    assert [d.describe() for d in got] == [
        "sam [fsdetect] block 0x40000: granule 3: SAM readers [2] "
        "never read it",
        "sam [fsdetect] block 0x40000: granule 20: SAM readers [0, 3] "
        "never read it",
    ]


def test_bogus_last_reader_under_reader_opt_is_reported():
    machine, ref, entry = _finished(reader_opt=True)
    assert [reads >> 8 & 1 for reads in entry.read_masks] == [0, 1, 0, 0]
    _add_reader(entry, 8, 2)
    _add_reader(entry, 40, 0)
    assert _sam_divergences(machine, ref) == [
        Divergence("sam", FSDETECT, BLOCK,
                   "granule 8: SAM readers [2] never read it"),
        Divergence("sam", FSDETECT, BLOCK,
                   "granule 40: SAM readers [0] never read it"),
    ]


@pytest.mark.parametrize("reader_opt", [False, True])
def test_last_writer_that_never_wrote_is_reported_before_readers(
        reader_opt):
    machine, ref, entry = _finished(reader_opt)
    _set_writer(entry, 0, 1)   # core 0 wrote granule 0, core 1 never did
    _set_writer(entry, 8, 1)   # core 1 only read granule 8
    _add_reader(entry, 8, 3)
    got = _sam_divergences(machine, ref)
    assert got == [
        Divergence("sam", FSDETECT, BLOCK,
                   "granule 0: SAM last writer 1 never wrote it"),
        Divergence("sam", FSDETECT, BLOCK,
                   "granule 8: SAM last writer 1 never wrote it"),
        Divergence("sam", FSDETECT, BLOCK,
                   "granule 8: SAM readers [3] never read it"),
    ]
    assert got[0].describe() == (
        "sam [fsdetect] block 0x40000: granule 0: SAM last writer 1 "
        "never wrote it")
