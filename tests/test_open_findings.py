"""The open FSLite findings, pinned as strict expected failures.

Each test below is the repro a campaign rendered for one finding at the
benchmark's campaign sizes (fuzz 90 cases, chaos 45 cases per seed, both
with the differential oracle), shrunk by ddmin and pasted unchanged.  They
fail today because the bugs are real.  ``strict=True`` turns a fix into a
test failure: when one of these starts passing, delete its ``xfail``
marker so the repro becomes a regression test.
"""

import pytest

from repro.check.fuzz import FuzzOp, run_schedule
from repro.coherence.states import ProtocolMode
from repro.faults import FaultEvent, FaultPlan
from repro.faults.chaos import run_chaos_case


# Shrunk from a 30-op failing fuzz schedule.
# Failure: invariant/InvariantViolation
@pytest.mark.xfail(strict=True, raises=AssertionError, reason=(
    'fuzz seed 41 (90 cases, differential): prv-sam invariant - the '
    "directory's PRV sharer set [0, 2] names core 0, which no longer "
    'holds block 0x40040'))
def test_fuzz_repro_fslite_seed2867574406():
    schedule = [
        FuzzOp(0, 'store', line=1, offset=7, size=1, value=233),
        FuzzOp(3, 'store', line=2, offset=24, value=6683776915119183842),
        FuzzOp(2, 'load', line=1, offset=18, size=1),
        FuzzOp(1, 'pause', value=23),
        FuzzOp(0, 'store', offset=4, size=4, value=339941133),
        FuzzOp(1, 'load', line=1, offset=12, size=2),
        FuzzOp(1, 'load', offset=40),
        FuzzOp(3, 'store', line=1, offset=29, size=1, value=212),
        FuzzOp(2, 'evict', line=2),
        FuzzOp(2, 'store', offset=16, size=1),
        FuzzOp(2, 'load', line=2, offset=16),
        FuzzOp(0, 'evict', line=1),
        FuzzOp(0, 'store', line=2, size=2, value=9470),
        FuzzOp(2, 'load', offset=32),
        FuzzOp(2, 'load', line=2, offset=48),
        FuzzOp(2, 'store', line=1, offset=22, size=2, value=26481),
        FuzzOp(2, 'load', offset=56),
        FuzzOp(3, 'store', offset=28, size=1, value=187),
        FuzzOp(0, 'load', line=1, offset=56),
        FuzzOp(0, 'store', line=2, value=12553791353127575998),
        FuzzOp(3, 'rmw', line=1, offset=56, value=55899),
        FuzzOp(2, 'store', offset=20, size=2, value=10880),
        FuzzOp(2, 'store', line=2, offset=16, value=3535135270827087112),
        FuzzOp(0, 'load'),
        FuzzOp(0, 'store', offset=4, size=2, value=53570),
        FuzzOp(0, 'evict', line=1),
        FuzzOp(0, 'load', line=1),
        FuzzOp(2, 'evict', line=1),
        FuzzOp(2, 'load', line=1, offset=48),
        FuzzOp(2, 'rmw', line=1, offset=32, value=25636),
    ]
    report = run_schedule(
        schedule, mode=ProtocolMode.FSLITE, differential=True)
    assert report.ok, report.failure.describe()


# Shrunk from a 39-op failing fuzz schedule.
# Failure: invariant/InvariantViolation
@pytest.mark.xfail(strict=True, raises=AssertionError, reason=(
    'fuzz seed 52 (90 cases, differential): prv-sam invariant - the '
    "directory's PRV sharer set [1, 2] names core 1, which no longer "
    'holds block 0x40080'))
def test_fuzz_repro_fslite_seed297935182():
    schedule = [
        FuzzOp(2, 'evict'),
        FuzzOp(1, 'evict', line=1),
        FuzzOp(0, 'load', offset=4, size=4),
        FuzzOp(1, 'rmw', line=1, offset=12, size=4, value=161),
        FuzzOp(2, 'evict', line=1),
        FuzzOp(0, 'pause', value=5),
        FuzzOp(1, 'store', line=2, offset=8, size=4, value=2793641212),
        FuzzOp(3, 'evict', line=1),
        FuzzOp(2, 'rmw', offset=16, value=253),
        FuzzOp(3, 'evict', line=2),
        FuzzOp(2, 'load', offset=16, size=4),
        FuzzOp(1, 'store', offset=12, size=4, value=182695486),
        FuzzOp(1, 'evict', line=2),
        FuzzOp(0, 'pause', value=20),
        FuzzOp(3, 'rmw', line=2, offset=56, value=36868),
        FuzzOp(0, 'pause', value=7),
        FuzzOp(0, 'load', line=2, offset=3, size=1),
        FuzzOp(0, 'evict', line=2),
        FuzzOp(3, 'store', line=1, offset=26, size=2, value=32090),
        FuzzOp(0, 'load', size=4),
        FuzzOp(0, 'evict', line=1),
        FuzzOp(1, 'load', line=2, offset=8, size=4),
        FuzzOp(0, 'evict', line=1),
        FuzzOp(1, 'evict', line=2),
        FuzzOp(2, 'store', line=1, offset=18, size=2, value=53434),
        FuzzOp(0, 'rmw', line=2, offset=56, value=58541),
        FuzzOp(1, 'load', line=2, offset=32),
        FuzzOp(2, 'evict', line=1),
        FuzzOp(1, 'rmw', line=1, offset=8, value=223),
        FuzzOp(1, 'store', offset=8, size=2, value=10892),
        FuzzOp(2, 'store', line=1, offset=16, value=11041806661015165447),
        FuzzOp(2, 'evict'),
        FuzzOp(1, 'pause', value=23),
        FuzzOp(1, 'load', offset=40),
        FuzzOp(2, 'evict'),
        FuzzOp(2, 'load', offset=48),
        FuzzOp(1, 'evict', line=2),
        FuzzOp(2, 'rmw', line=2, offset=48, value=4177),
        FuzzOp(1, 'load', line=2, offset=8, size=4),
    ]
    report = run_schedule(
        schedule, mode=ProtocolMode.FSLITE, differential=True)
    assert report.ok, report.failure.describe()


# Shrunk from a failing chaos case (80-op schedule).
# Failure: final-image/mismatch
@pytest.mark.xfail(strict=True, raises=AssertionError, reason=(
    'chaos seed 14 (45 cases, differential): message faults leave a '
    'wrong final image (line 0 offset 32 reads 0x1cbec, expected '
    '0x1f76a)'))
def test_chaos_repro_fslite_seed1817245132():
    schedule = [
        FuzzOp(0, 'pause', value=2),
        FuzzOp(1, 'load', offset=40),
        FuzzOp(3, 'rmw', line=2, offset=40, value=39140),
        FuzzOp(0, 'rmw', line=2, offset=48, value=13808),
        FuzzOp(1, 'rmw', offset=48, value=58715),
        FuzzOp(1, 'load', offset=32),
        FuzzOp(3, 'load', line=1, offset=48),
        FuzzOp(1, 'rmw', offset=32, value=11134),
        FuzzOp(1, 'pause', value=21),
        FuzzOp(1, 'rmw', line=1, offset=32, value=450),
        FuzzOp(1, 'rmw', line=2, offset=56, value=30972),
        FuzzOp(0, 'rmw', line=2, offset=40, value=5542),
        FuzzOp(1, 'rmw', line=2, offset=40, value=4347),
        FuzzOp(2, 'pause', value=7),
        FuzzOp(1, 'load', line=1, offset=32),
        FuzzOp(2, 'load', offset=48),
        FuzzOp(2, 'load', line=2, offset=40),
        FuzzOp(1, 'rmw', offset=56, value=6091),
        FuzzOp(1, 'rmw', line=1, offset=48, value=11711),
        FuzzOp(1, 'load', offset=40),
        FuzzOp(1, 'rmw', offset=40, value=34154),
        FuzzOp(2, 'rmw', offset=32, value=58430),
        FuzzOp(2, 'rmw', line=2, offset=40, value=42454),
        FuzzOp(3, 'load', line=2, offset=56),
        FuzzOp(3, 'rmw', line=1, offset=40, value=30354),
        FuzzOp(1, 'rmw', line=2, offset=56, value=48948),
        FuzzOp(2, 'rmw', line=1, offset=32, value=7194),
        FuzzOp(2, 'pause', value=8),
        FuzzOp(2, 'load', line=2, offset=48),
        FuzzOp(0, 'load', offset=56),
        FuzzOp(0, 'rmw', line=2, offset=32, value=53188),
        FuzzOp(0, 'load', offset=56),
        FuzzOp(3, 'rmw', line=2, offset=56, value=355),
        FuzzOp(0, 'load', line=1, offset=56),
        FuzzOp(1, 'rmw', line=1, offset=48, value=33097),
        FuzzOp(2, 'pause', value=12),
        FuzzOp(3, 'load', line=1, offset=32),
        FuzzOp(0, 'load', line=1, offset=56),
        FuzzOp(0, 'rmw', offset=48, value=31313),
        FuzzOp(2, 'load', offset=32),
        FuzzOp(2, 'rmw', line=1, offset=40, value=22845),
        FuzzOp(3, 'rmw', offset=32, value=19237),
        FuzzOp(2, 'rmw', line=2, offset=48, value=9974),
        FuzzOp(2, 'load', line=1, offset=40),
        FuzzOp(0, 'rmw', offset=32, value=40073),
        FuzzOp(3, 'rmw', line=2, offset=32, value=26500),
        FuzzOp(2, 'pause', value=1),
        FuzzOp(3, 'rmw', line=2, offset=40, value=19070),
        FuzzOp(0, 'rmw', offset=48, value=49852),
        FuzzOp(1, 'rmw', line=2, offset=48, value=4035),
        FuzzOp(3, 'rmw', offset=48, value=5478),
        FuzzOp(0, 'rmw', line=2, offset=56, value=64294),
        FuzzOp(3, 'load', offset=32),
        FuzzOp(0, 'rmw', line=2, offset=48, value=44068),
        FuzzOp(0, 'rmw', offset=48, value=30895),
        FuzzOp(1, 'rmw', offset=48, value=13757),
        FuzzOp(0, 'rmw', offset=40, value=83),
        FuzzOp(0, 'rmw', line=2, offset=32, value=13025),
        FuzzOp(1, 'load', line=1, offset=32),
        FuzzOp(3, 'rmw', line=1, offset=40, value=23554),
        FuzzOp(0, 'load', line=1, offset=48),
        FuzzOp(0, 'rmw', offset=40, value=4776),
        FuzzOp(1, 'pause', value=14),
        FuzzOp(0, 'rmw', line=2, offset=56, value=38022),
        FuzzOp(2, 'pause', value=12),
        FuzzOp(1, 'load', offset=48),
        FuzzOp(3, 'rmw', line=2, offset=40, value=16598),
        FuzzOp(0, 'rmw', line=1, offset=48, value=40212),
        FuzzOp(1, 'pause', value=12),
        FuzzOp(3, 'rmw', line=2, offset=56, value=59468),
        FuzzOp(0, 'rmw', offset=56, value=32922),
        FuzzOp(0, 'rmw', line=1, offset=48, value=39282),
        FuzzOp(0, 'rmw', offset=40, value=39482),
        FuzzOp(3, 'load', line=2, offset=48),
        FuzzOp(0, 'load', line=1, offset=40),
        FuzzOp(0, 'load', line=2, offset=48),
        FuzzOp(3, 'load', offset=40),
        FuzzOp(3, 'rmw', line=1, offset=32, value=23346),
        FuzzOp(2, 'load', line=1, offset=56),
        FuzzOp(1, 'rmw', offset=40, value=45078),
    ]
    plan = FaultPlan(seed=1817245132, script=(FaultEvent('drop_req_md', 1), FaultEvent('drop_req_md', 3), FaultEvent('drop_req_md', 4), FaultEvent('drop_req_md', 6), FaultEvent('delay_md', 9),))
    report = run_chaos_case(
        schedule, mode=ProtocolMode.FSLITE, plan=plan, differential=True)
    assert report.ok, report.failure.describe()


# Shrunk from a failing chaos case (80-op schedule).
# Failure: final-image/mismatch
@pytest.mark.xfail(strict=True, raises=AssertionError, reason=(
    'chaos seed 27 (45 cases, differential): message faults leave a '
    'wrong final image (line 2 offset 40 reads 0x1ad9c, expected '
    '0x27f6e)'))
def test_chaos_repro_fslite_seed1086364575():
    schedule = [
        FuzzOp(0, 'rmw', line=2, offset=40, value=19292),
        FuzzOp(3, 'load', offset=48),
        FuzzOp(2, 'load', line=1, offset=40),
        FuzzOp(2, 'rmw', offset=32, value=62651),
        FuzzOp(0, 'load', line=2, offset=56),
        FuzzOp(1, 'rmw', line=1, offset=56, value=40489),
        FuzzOp(3, 'rmw', line=2, offset=32, value=1507),
        FuzzOp(0, 'rmw', line=1, offset=56, value=26341),
        FuzzOp(3, 'rmw', offset=56, value=21831),
        FuzzOp(0, 'load', line=1, offset=40),
        FuzzOp(1, 'rmw', line=2, offset=40, value=17209),
        FuzzOp(0, 'load', line=2, offset=40),
        FuzzOp(0, 'rmw', line=1, offset=40, value=41240),
        FuzzOp(3, 'load', line=1, offset=32),
        FuzzOp(2, 'rmw', line=1, offset=40, value=31826),
        FuzzOp(3, 'rmw', line=1, offset=40, value=11533),
        FuzzOp(0, 'pause', value=7),
        FuzzOp(0, 'rmw', line=1, offset=40, value=5783),
        FuzzOp(1, 'rmw', line=2, offset=56, value=36585),
        FuzzOp(0, 'rmw', offset=32, value=61941),
        FuzzOp(2, 'pause', value=21),
        FuzzOp(0, 'rmw', line=2, offset=56, value=12122),
        FuzzOp(1, 'rmw', line=2, offset=56, value=64631),
        FuzzOp(3, 'rmw', line=2, offset=48, value=4225),
        FuzzOp(2, 'load', line=1, offset=32),
        FuzzOp(2, 'rmw', offset=48, value=41964),
        FuzzOp(3, 'load', offset=48),
        FuzzOp(2, 'rmw', line=1, offset=40, value=64263),
        FuzzOp(1, 'rmw', offset=48, value=6448),
        FuzzOp(2, 'rmw', line=2, offset=48, value=13580),
        FuzzOp(3, 'rmw', line=1, offset=48, value=13889),
        FuzzOp(2, 'load', line=2, offset=48),
        FuzzOp(3, 'load', line=1, offset=48),
        FuzzOp(3, 'rmw', line=1, offset=56, value=34882),
        FuzzOp(1, 'rmw', line=2, offset=48, value=58398),
        FuzzOp(2, 'rmw', line=2, offset=56, value=29352),
        FuzzOp(1, 'rmw', line=2, offset=56, value=12538),
        FuzzOp(2, 'pause', value=18),
        FuzzOp(3, 'load', line=2, offset=32),
        FuzzOp(1, 'rmw', line=2, offset=48, value=16326),
        FuzzOp(3, 'load', line=1, offset=56),
        FuzzOp(1, 'rmw', line=1, offset=48, value=10455),
        FuzzOp(1, 'rmw', line=2, offset=56, value=45561),
        FuzzOp(0, 'rmw', line=2, offset=40, value=53714),
        FuzzOp(3, 'rmw', line=2, offset=40, value=32175),
        FuzzOp(2, 'load', line=2, offset=56),
        FuzzOp(0, 'rmw', offset=32, value=30190),
        FuzzOp(2, 'load', line=2, offset=32),
        FuzzOp(3, 'pause', value=4),
        FuzzOp(2, 'rmw', line=2, offset=40, value=32522),
        FuzzOp(2, 'rmw', line=1, offset=32, value=59994),
        FuzzOp(1, 'load', line=2, offset=48),
        FuzzOp(0, 'pause', value=1),
        FuzzOp(3, 'rmw', line=1, offset=40, value=44981),
        FuzzOp(3, 'rmw', line=2, offset=32, value=21634),
        FuzzOp(1, 'rmw', line=2, offset=32, value=44068),
        FuzzOp(3, 'rmw', line=2, offset=56, value=47762),
        FuzzOp(0, 'load', offset=32),
        FuzzOp(1, 'load', offset=40),
        FuzzOp(2, 'rmw', line=2, offset=32, value=61364),
        FuzzOp(0, 'rmw', line=2, offset=40, value=8782),
        FuzzOp(3, 'rmw', offset=32, value=36971),
        FuzzOp(1, 'load', offset=40),
        FuzzOp(0, 'rmw', line=2, offset=56, value=25862),
        FuzzOp(0, 'load', line=2, offset=56),
        FuzzOp(3, 'rmw', line=2, offset=56, value=6993),
        FuzzOp(3, 'rmw', line=1, offset=48, value=2169),
        FuzzOp(2, 'load', offset=40),
        FuzzOp(0, 'load', line=1, offset=32),
        FuzzOp(0, 'rmw', line=2, offset=48, value=49328),
        FuzzOp(1, 'rmw', offset=56, value=57355),
        FuzzOp(2, 'rmw', offset=32, value=65524),
        FuzzOp(0, 'pause', value=21),
        FuzzOp(0, 'rmw', line=2, offset=32, value=7495),
        FuzzOp(0, 'rmw', offset=48, value=35034),
        FuzzOp(3, 'rmw', line=2, offset=48, value=21358),
        FuzzOp(3, 'load', line=2, offset=32),
        FuzzOp(2, 'load', line=2, offset=40),
        FuzzOp(0, 'rmw', line=1, offset=48, value=10262),
        FuzzOp(3, 'rmw', line=1, offset=40, value=39980),
    ]
    plan = FaultPlan(seed=1086364575, script=(FaultEvent('drop_req_md', 0), FaultEvent('delay_md', 2), FaultEvent('delay_md', 5), FaultEvent('drop_req_md', 4), FaultEvent('delay_md', 15), FaultEvent('drop_req_md', 14), FaultEvent('delay_md', 25),))
    report = run_chaos_case(
        schedule, mode=ProtocolMode.FSLITE, plan=plan, differential=True)
    assert report.ok, report.failure.describe()


# Shrunk from a failing chaos case (80-op schedule).
# Failure: run/ProtocolError
@pytest.mark.xfail(strict=True, raises=AssertionError, reason=(
    'chaos seed 22 (45 cases, differential): a pressure-forced '
    "eviction's DATA_WB reaches the directory during "
    'BusyKind.INV_COLLECT (ProtocolError)'))
def test_chaos_repro_fslite_seed610844815():
    schedule = [
        FuzzOp(0, 'load', offset=40),
        FuzzOp(3, 'rmw', line=2, offset=32, value=35586),
        FuzzOp(3, 'rmw', line=2, offset=32, value=50979),
        FuzzOp(3, 'load', line=1, offset=40),
        FuzzOp(2, 'rmw', line=1, offset=48, value=42020),
        FuzzOp(3, 'rmw', line=1, offset=32, value=41748),
        FuzzOp(3, 'rmw', line=2, offset=48, value=61201),
        FuzzOp(0, 'rmw', line=2, offset=40, value=3381),
        FuzzOp(0, 'pause', value=15),
        FuzzOp(1, 'rmw', offset=56, value=19587),
        FuzzOp(0, 'pause', value=7),
        FuzzOp(2, 'rmw', line=2, offset=32, value=43335),
        FuzzOp(2, 'rmw', line=2, offset=56, value=23566),
        FuzzOp(3, 'rmw', line=1, offset=32, value=60788),
        FuzzOp(0, 'rmw', line=2, offset=32, value=9097),
        FuzzOp(3, 'rmw', line=2, offset=32, value=37869),
        FuzzOp(3, 'rmw', line=2, offset=32, value=50234),
        FuzzOp(3, 'rmw', offset=48, value=29166),
        FuzzOp(0, 'rmw', offset=48, value=33310),
        FuzzOp(0, 'rmw', offset=40, value=11503),
        FuzzOp(0, 'load', line=1, offset=40),
        FuzzOp(3, 'rmw', line=1, offset=40, value=31455),
        FuzzOp(1, 'load', offset=48),
        FuzzOp(0, 'pause', value=15),
        FuzzOp(1, 'pause', value=8),
        FuzzOp(1, 'load', line=2, offset=48),
        FuzzOp(2, 'pause', value=4),
        FuzzOp(1, 'load', offset=56),
        FuzzOp(1, 'rmw', line=1, offset=40, value=22934),
        FuzzOp(2, 'rmw', line=1, offset=40, value=19856),
        FuzzOp(3, 'pause', value=7),
        FuzzOp(3, 'load', line=1, offset=56),
        FuzzOp(1, 'rmw', line=2, offset=32, value=52467),
        FuzzOp(2, 'rmw', offset=48, value=9187),
        FuzzOp(1, 'rmw', offset=48, value=1725),
        FuzzOp(2, 'rmw', line=2, offset=48, value=58762),
        FuzzOp(1, 'rmw', line=1, offset=40, value=25538),
        FuzzOp(2, 'load', line=1, offset=32),
        FuzzOp(1, 'rmw', offset=32, value=8761),
        FuzzOp(3, 'load', offset=32),
        FuzzOp(2, 'load', line=2, offset=32),
        FuzzOp(0, 'rmw', line=1, offset=32, value=53090),
        FuzzOp(2, 'load', line=1, offset=32),
        FuzzOp(0, 'rmw', line=1, offset=32, value=10625),
        FuzzOp(3, 'load', line=2, offset=40),
        FuzzOp(2, 'load', offset=56),
        FuzzOp(2, 'load', offset=40),
        FuzzOp(3, 'rmw', line=1, offset=32, value=47428),
        FuzzOp(0, 'rmw', offset=56, value=27893),
        FuzzOp(3, 'rmw', line=1, offset=32, value=8828),
        FuzzOp(0, 'pause', value=12),
        FuzzOp(0, 'rmw', line=2, offset=56, value=22236),
        FuzzOp(3, 'load', offset=48),
        FuzzOp(2, 'pause', value=20),
        FuzzOp(0, 'rmw', line=2, offset=40, value=56102),
        FuzzOp(0, 'rmw', line=2, offset=40, value=26647),
        FuzzOp(1, 'rmw', line=1, offset=32, value=18168),
        FuzzOp(1, 'load', line=2, offset=48),
        FuzzOp(3, 'load', line=2, offset=56),
        FuzzOp(3, 'rmw', offset=56, value=43106),
        FuzzOp(2, 'load', offset=56),
        FuzzOp(1, 'load', line=2, offset=40),
        FuzzOp(2, 'rmw', offset=40, value=11005),
        FuzzOp(3, 'pause', value=5),
        FuzzOp(0, 'rmw', line=1, offset=56, value=60804),
        FuzzOp(1, 'rmw', offset=48, value=29508),
        FuzzOp(2, 'pause', value=21),
        FuzzOp(1, 'load', line=1, offset=40),
        FuzzOp(0, 'rmw', line=1, offset=56, value=6352),
        FuzzOp(0, 'pause', value=20),
        FuzzOp(3, 'pause', value=10),
        FuzzOp(3, 'load', line=2, offset=48),
        FuzzOp(2, 'rmw', line=2, offset=32, value=53824),
        FuzzOp(0, 'rmw', line=2, offset=56, value=62105),
        FuzzOp(3, 'rmw', line=2, offset=32, value=11882),
        FuzzOp(1, 'pause', value=8),
        FuzzOp(3, 'rmw', line=1, offset=32, value=14386),
        FuzzOp(1, 'load', line=2, offset=48),
        FuzzOp(2, 'rmw', line=2, offset=56, value=3023),
        FuzzOp(0, 'rmw', line=2, offset=48, value=15357),
    ]
    plan = FaultPlan(seed=610844815, state_period=24, script=(FaultEvent('l1_evict', 0),))
    report = run_chaos_case(
        schedule, mode=ProtocolMode.FSLITE, plan=plan, shrunken_sam=True, differential=True)
    assert report.ok, report.failure.describe()


# Shrunk from a failing chaos case (80-op schedule).
# Failure: run/ProtocolError
@pytest.mark.xfail(strict=True, raises=AssertionError, reason=(
    'chaos seed 56 (45 cases, differential): a pressure-forced '
    "eviction's DATA_WB reaches the directory during "
    'BusyKind.INV_COLLECT (ProtocolError)'))
def test_chaos_repro_fslite_seed2748874486():
    schedule = [
        FuzzOp(2, 'rmw', line=1, offset=56, value=35208),
        FuzzOp(3, 'load', line=2, offset=32),
        FuzzOp(1, 'rmw', line=2, offset=56, value=12945),
        FuzzOp(2, 'rmw', offset=40, value=20793),
        FuzzOp(3, 'rmw', offset=40, value=43108),
        FuzzOp(1, 'rmw', line=2, offset=48, value=24483),
        FuzzOp(3, 'rmw', offset=32, value=825),
        FuzzOp(1, 'rmw', line=2, offset=40, value=11314),
        FuzzOp(2, 'rmw', line=2, offset=48, value=41366),
        FuzzOp(2, 'rmw', line=1, offset=56, value=9401),
        FuzzOp(2, 'pause', value=14),
        FuzzOp(1, 'rmw', line=2, offset=56, value=7492),
        FuzzOp(1, 'rmw', line=2, offset=40, value=49294),
        FuzzOp(3, 'load', line=2, offset=32),
        FuzzOp(1, 'rmw', line=2, offset=48, value=55823),
        FuzzOp(1, 'rmw', line=2, offset=48, value=2087),
        FuzzOp(1, 'pause', value=8),
        FuzzOp(1, 'rmw', line=1, offset=56, value=8216),
        FuzzOp(1, 'rmw', line=1, offset=40, value=25705),
        FuzzOp(2, 'rmw', line=1, offset=56, value=61310),
        FuzzOp(3, 'rmw', line=2, offset=40, value=60953),
        FuzzOp(2, 'rmw', offset=32, value=40183),
        FuzzOp(1, 'load', line=1, offset=32),
        FuzzOp(1, 'rmw', line=2, offset=40, value=42486),
        FuzzOp(1, 'rmw', offset=40, value=45672),
        FuzzOp(0, 'rmw', offset=40, value=39886),
        FuzzOp(2, 'rmw', offset=56, value=4512),
        FuzzOp(0, 'rmw', offset=40, value=13981),
        FuzzOp(0, 'rmw', offset=40, value=6077),
        FuzzOp(3, 'rmw', line=2, offset=40, value=6639),
        FuzzOp(1, 'rmw', line=2, offset=56, value=57161),
        FuzzOp(1, 'rmw', line=2, offset=56, value=45059),
        FuzzOp(0, 'rmw', line=1, offset=32, value=42325),
        FuzzOp(1, 'load', offset=40),
        FuzzOp(0, 'rmw', offset=56, value=7266),
        FuzzOp(3, 'rmw', line=1, offset=48, value=9013),
        FuzzOp(2, 'rmw', offset=32, value=16871),
        FuzzOp(2, 'rmw', offset=40, value=14241),
        FuzzOp(2, 'rmw', line=2, offset=32, value=31934),
        FuzzOp(2, 'rmw', offset=32, value=25256),
        FuzzOp(1, 'rmw', offset=56, value=38369),
        FuzzOp(3, 'rmw', line=1, offset=56, value=38055),
        FuzzOp(3, 'rmw', line=1, offset=48, value=22490),
        FuzzOp(1, 'rmw', line=2, offset=56, value=43860),
        FuzzOp(3, 'rmw', line=1, offset=56, value=4225),
        FuzzOp(0, 'rmw', line=2, offset=32, value=26861),
        FuzzOp(2, 'pause', value=11),
        FuzzOp(3, 'rmw', line=1, offset=32, value=1574),
        FuzzOp(3, 'load', line=1, offset=48),
        FuzzOp(2, 'rmw', line=1, offset=56, value=51622),
        FuzzOp(2, 'pause', value=3),
        FuzzOp(0, 'rmw', offset=56, value=35360),
        FuzzOp(2, 'rmw', line=1, offset=40, value=18789),
        FuzzOp(1, 'load', line=1, offset=56),
        FuzzOp(0, 'load', offset=56),
        FuzzOp(2, 'rmw', offset=48, value=45021),
        FuzzOp(0, 'rmw', line=2, offset=56, value=29930),
        FuzzOp(3, 'rmw', line=1, offset=40, value=51945),
        FuzzOp(1, 'rmw', line=1, offset=56, value=46004),
        FuzzOp(3, 'pause', value=10),
        FuzzOp(3, 'pause', value=10),
        FuzzOp(2, 'rmw', line=1, offset=32, value=5033),
        FuzzOp(0, 'pause', value=4),
        FuzzOp(0, 'pause', value=4),
        FuzzOp(1, 'rmw', offset=56, value=599),
        FuzzOp(2, 'load', line=2, offset=32),
        FuzzOp(1, 'rmw', offset=32, value=43535),
        FuzzOp(1, 'load', line=2, offset=32),
        FuzzOp(2, 'pause', value=1),
        FuzzOp(1, 'rmw', offset=32, value=240),
        FuzzOp(2, 'load', line=2, offset=32),
        FuzzOp(3, 'load', line=1, offset=40),
        FuzzOp(2, 'rmw', line=2, offset=56, value=27923),
        FuzzOp(1, 'pause', value=22),
        FuzzOp(0, 'load', line=2, offset=40),
        FuzzOp(3, 'rmw', line=1, offset=32, value=51961),
        FuzzOp(0, 'rmw', line=2, offset=40, value=54198),
        FuzzOp(0, 'rmw', line=1, offset=32, value=29046),
        FuzzOp(3, 'rmw', line=2, offset=40, value=9859),
        FuzzOp(0, 'rmw', line=2, offset=32, value=42063),
    ]
    plan = FaultPlan(seed=2748874486, state_period=24, script=(FaultEvent('l1_evict', 0), FaultEvent('llc_evict', 0), FaultEvent('llc_evict', 1), FaultEvent('llc_evict', 3), FaultEvent('l1_evict', 6), FaultEvent('llc_evict', 6), FaultEvent('l1_evict', 7), FaultEvent('llc_evict', 7), FaultEvent('l1_evict', 8),))
    report = run_chaos_case(
        schedule, mode=ProtocolMode.FSLITE, plan=plan, shrunken_sam=True, differential=True)
    assert report.ok, report.failure.describe()
