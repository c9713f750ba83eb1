"""The unified machine-observation protocol.

Everything that watches a running machine — the message tracer, the online
invariant sanitizer, the metrics time-series sampler, the episode tracker —
is an :class:`Observer`: construct it with the machine, then ``attach()``
before the run and ``detach()`` after (or use it as a context manager).

An observer declares interest by *defining methods*:

``on_send(msg)``
    fires when a message is injected into the interconnect;
``on_deliver(msg)``
    fires after the destination handler has processed a delivery;
``on_attach(machine)`` / ``on_detach(machine)``
    lifecycle extension points for state beyond the network callbacks
    (e.g. the episode tracker's directory-slice registration).

Only the methods a subclass actually defines are registered with the
network, and while no observer is attached :meth:`Network.send
<repro.interconnect.network.Network.send>` keeps its zero-indirection fast
path — observation is strictly pay-for-what-you-watch.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids import cycles
    from repro.system.builder import Machine


class Observer:
    """Base class for machine observers (attach/detach lifecycle).

    Subclasses may define ``on_send(msg)`` and/or ``on_deliver(msg)`` —
    whichever exist are hooked into the network — and may override
    :meth:`on_attach` / :meth:`on_detach` for extra wiring.  ``attach`` on
    an already-attached observer raises; ``detach`` is idempotent.
    """

    def __init__(self, machine: "Machine") -> None:
        self.machine = machine
        self._attached = False

    @property
    def attached(self) -> bool:
        return self._attached

    def attach(self) -> "Observer":
        if self._attached:
            raise RuntimeError(
                f"{type(self).__name__} already attached")
        network = self.machine.network
        network.attach_observer(self)
        try:
            self.on_attach(self.machine)
        except BaseException:
            network.detach_observer(self)
            raise
        self._attached = True
        return self

    def detach(self) -> None:
        if not self._attached:
            return
        self.machine.network.detach_observer(self)
        self.on_detach(self.machine)
        self._attached = False

    # -- extension points --------------------------------------------------

    def on_attach(self, machine: "Machine") -> None:
        """Called once during :meth:`attach`, after the network callbacks
        are registered.  Raise to abort the attach (callbacks are rolled
        back)."""

    def on_detach(self, machine: "Machine") -> None:
        """Called once during :meth:`detach`, after the network callbacks
        are removed."""

    # -- context manager ---------------------------------------------------

    def __enter__(self) -> "Observer":
        return self.attach()

    def __exit__(self, *exc) -> None:
        self.detach()
