"""Fault plans: what to inject, where, and how often.

A :class:`FaultPlan` is to the injector what a :class:`RunSpec` is to the
engine — a frozen, serializable, digest-stable value describing one
deterministic perturbation of a run.  Rates are per *opportunity* (an
eligible message for message faults; every ``state_period``-th delivery
for state faults), and the fire/no-fire decision is the only thing the
plan's seed randomizes: *which* block a fired state fault targets is a
pure rotation over the resident blocks, so a recorded run can be replayed
exactly from its fired-fault script (``script=...``), which in turn makes
ddmin shrinking of fault plans sound.

The taxonomy follows the paper's "metadata is advisory" argument:

* **message** faults perturb metadata-class traffic where protocol-legal:
  drop unsolicited REP_MDs (solicited ones answer a TR_PRV and must
  arrive), duplicate REP_MD/PHANTOM_MD (ingestion is idempotent), delay
  metadata and CHK replies (FIFO floors keep per-channel ordering), and
  strip the piggybacked REQ_MD bit from invalidations/interventions.
* **metadata** (state) faults corrupt detection state directly: PAM bit
  clears, SAM entry invalidations, FC/IC/HC resets and saturation
  glitches, PMMC (pending-metadata) clears.
* **pressure** faults force resource evictions mid-episode: L1 victim
  evictions and directory/LLC evictions (which terminate privatized
  episodes through the paper's graceful paths); campaigns additionally
  shrink the SAM via config.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, fields
from typing import Any, Dict, List, Optional, Tuple

from repro.common.errors import ConfigError

#: Fault families driven by the chaos campaign (ISSUE taxonomy).
CHAOS_FAMILIES = ("message", "metadata", "pressure")

#: Message-perturbation fault kinds (decided inside the network seam).
MESSAGE_KINDS = ("drop_rep_md", "drop_req_md", "dup_md", "delay_md")

#: Metadata-state and resource-pressure fault kinds (decided at state
#: opportunities, i.e. every ``state_period``-th message delivery).
STATE_KINDS = ("pam_clear", "sam_invalidate", "counter_reset",
               "counter_saturate", "pmmc_clear", "l1_evict", "llc_evict")

ALL_KINDS = MESSAGE_KINDS + STATE_KINDS


@dataclass(frozen=True)
class FaultEvent:
    """One scripted fault: fire ``kind`` at its ``opportunity``-th eligible
    decision point.  Opportunity counters advance identically whether a
    plan is rate-driven or scripted, which is what makes replay exact."""

    kind: str
    opportunity: int

    def __post_init__(self) -> None:
        if self.kind not in ALL_KINDS:
            raise ConfigError(
                f"unknown fault kind {self.kind!r}; expected one of "
                f"{', '.join(ALL_KINDS)}")
        if self.opportunity < 0:
            raise ConfigError("fault opportunity must be >= 0")


@dataclass(frozen=True)
class FaultPlan:
    """Frozen description of one deterministic fault injection.

    Every ``<kind>`` field is a fire probability in [0, 1] evaluated at
    each of that kind's opportunities.  With ``script`` set, rates and
    ``seed`` are ignored: exactly the scripted ``(kind, opportunity)``
    pairs fire — the replay/shrink mode.
    """

    seed: int = 0
    # -- message-fault rates (per eligible message) ----------------------
    drop_rep_md: float = 0.0
    drop_req_md: float = 0.0
    dup_md: float = 0.0
    delay_md: float = 0.0
    #: Extra cycles a fired delay fault adds (always protocol-legal; the
    #: network's per-channel FIFO floors preserve ordering).
    delay_cycles: int = 32
    # -- metadata-state fault rates (per state opportunity) --------------
    pam_clear: float = 0.0
    sam_invalidate: float = 0.0
    counter_reset: float = 0.0
    counter_saturate: float = 0.0
    pmmc_clear: float = 0.0
    # -- resource-pressure fault rates (per state opportunity) -----------
    l1_evict: float = 0.0
    llc_evict: float = 0.0
    #: Message deliveries between state-fault opportunities.
    state_period: int = 64
    #: Scripted mode: exactly these events fire (replay / shrinking).
    script: Optional[Tuple[FaultEvent, ...]] = None

    def __post_init__(self) -> None:
        for kind in ALL_KINDS:
            rate = getattr(self, kind)
            if not 0.0 <= rate <= 1.0:
                raise ConfigError(
                    f"fault rate {kind}={rate!r} outside [0, 1]")
        if self.delay_cycles < 0:
            raise ConfigError("delay_cycles must be >= 0")
        if self.state_period < 1:
            raise ConfigError("state_period must be >= 1")
        if self.script is not None:
            object.__setattr__(self, "script", tuple(self.script))

    @property
    def scripted(self) -> bool:
        return self.script is not None

    def active_kinds(self) -> Tuple[str, ...]:
        """Kinds this plan can fire (rate > 0, or present in the script)."""
        if self.script is not None:
            present = {e.kind for e in self.script}
            return tuple(k for k in ALL_KINDS if k in present)
        return tuple(k for k in ALL_KINDS if getattr(self, k) > 0.0)

    # -- serialization (RunSpec pattern: digest-stable plain dicts) ------

    def to_dict(self) -> Dict[str, Any]:
        d: Dict[str, Any] = {}
        for f in fields(self):
            if f.name == "script":
                continue
            d[f.name] = getattr(self, f.name)
        # Only serialized when set, so rate-driven plans keep a stable
        # digest regardless of scripting support existing.
        if self.script is not None:
            d["script"] = [[e.kind, e.opportunity] for e in self.script]
        return d

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "FaultPlan":
        data = dict(data)
        script = data.pop("script", None)
        if script is not None:
            script = tuple(FaultEvent(kind, opp) for kind, opp in script)
        return cls(script=script, **data)

    def digest(self) -> str:
        """Stable content hash of the plan (identical across processes)."""
        payload = json.dumps(self.to_dict(), sort_keys=True,
                             separators=(",", ":"))
        return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:20]


def family_plan(family: str, seed: int = 0,
                intensity: float = 1.0) -> FaultPlan:
    """Preset :class:`FaultPlan` for one chaos fault family.

    ``intensity`` scales every rate (clamped to 1.0); the presets at
    intensity 1 are aggressive enough that a short stress schedule fires
    multiple faults per family, which is what the campaign's nonzero-
    degradation acceptance check needs.
    """

    def r(rate: float) -> float:
        return min(1.0, rate * intensity)

    if family == "message":
        return FaultPlan(seed=seed, drop_rep_md=r(0.6), drop_req_md=r(0.4),
                         dup_md=r(0.4), delay_md=r(0.4))
    if family == "metadata":
        return FaultPlan(seed=seed, pam_clear=r(0.6), sam_invalidate=r(0.6),
                         counter_reset=r(0.5), counter_saturate=r(0.4),
                         pmmc_clear=r(0.4), state_period=24)
    if family == "pressure":
        return FaultPlan(seed=seed, l1_evict=r(0.7), llc_evict=r(0.5),
                         state_period=24)
    raise ConfigError(
        f"unknown fault family {family!r}; expected one of "
        f"{', '.join(CHAOS_FAMILIES)}")


def render_plan(plan: FaultPlan) -> str:
    """Render a plan as constructor source (scripted plans render their
    script; rate fields render only when nonzero/non-default)."""
    args: List[str] = [f"seed={plan.seed}"]
    defaults = FaultPlan()
    for name in ("delay_cycles", "state_period"):
        if getattr(plan, name) != getattr(defaults, name):
            args.append(f"{name}={getattr(plan, name)}")
    if plan.script is not None:
        events = ", ".join(f"FaultEvent({e.kind!r}, {e.opportunity})"
                           for e in plan.script)
        args.append(f"script=({events}{',' if plan.script else ''})")
    else:
        for kind in plan.active_kinds():
            args.append(f"{kind}={getattr(plan, kind)}")
    return f"FaultPlan({', '.join(args)})"
