"""Online protocol checking, random protocol testing, and differential
conformance against an atomic reference model.

Four tools live here:

* :mod:`repro.check.sanitizer` — an online invariant checker that observes
  a machine through the network's post-send/post-deliver hooks and, after
  every transition that leaves a block quiescent, asserts the stable-state
  invariants of the protocol (directory/L1 agreement, SWMR outside PRV,
  PAM/SAM consistency inside PRV, data-value checks, counter bounds,
  transient-context age limits).
* :mod:`repro.check.fuzz` — a random protocol tester that drives
  randomized per-line load/store/RMW/evict streams across the three
  protocol modes with the sanitizer enabled, and delta-debugs any failing
  schedule down to a minimal reproducing pytest case.  It also holds the
  campaign core the fuzz, diff and chaos campaigns share: the one
  schedule executor, case rotation, shrink session and repro renderer.
* :mod:`repro.check.refmodel` — a timing-agnostic, transient-state-free
  atomic machine: a second, independent implementation of the protocol's
  observable semantics (final memory image + ground-truth access sets)
  that consumes the same translated op schedules as the detailed
  simulator.
* :mod:`repro.check.diff` — the differential driver: replays any schedule
  on the detailed machine (every protocol mode) and on the atomic
  reference, comparing memory images, detection verdicts, metadata,
  counters and cross-mode agreement; ddmin-shrinks divergences and proves
  the oracle has teeth via the seeded mutations of
  :mod:`repro.check.mutations`.
"""

from repro.check.sanitizer import InvariantViolation, Sanitizer
from repro.check.mutations import MUTATIONS, mutation_context
from repro.check.fuzz import (
    CampaignResult,
    Case,
    Finding,
    FuzzFailure,
    FuzzOp,
    RunReport,
    ShrinkSession,
    execute,
    fuzz_campaign,
    fuzz_config,
    make_schedule,
    render_repro,
    run_schedule,
    schedule_to_ops,
    shrink_schedule,
)
from repro.check.refmodel import (
    AtomicMachine,
    RefResult,
    run_programs_atomic,
    run_reference,
)
from repro.check.diff import (
    DiffReport,
    Divergence,
    diff_campaign,
    diff_workload,
    differential_check,
    hunt_mutation_escape,
    mutation_escape_sweep,
    run_differential,
)

__all__ = [
    "InvariantViolation",
    "Sanitizer",
    "MUTATIONS",
    "mutation_context",
    "CampaignResult",
    "Case",
    "Finding",
    "FuzzFailure",
    "FuzzOp",
    "RunReport",
    "ShrinkSession",
    "execute",
    "fuzz_campaign",
    "fuzz_config",
    "make_schedule",
    "render_repro",
    "run_schedule",
    "schedule_to_ops",
    "shrink_schedule",
    "AtomicMachine",
    "RefResult",
    "run_programs_atomic",
    "run_reference",
    "DiffReport",
    "Divergence",
    "diff_campaign",
    "diff_workload",
    "differential_check",
    "hunt_mutation_escape",
    "mutation_escape_sweep",
    "run_differential",
]
