"""Shared fixtures and helpers for the test suite."""

from __future__ import annotations

from repro.coherence.states import ProtocolMode
from repro.common.config import CacheConfig, SystemConfig
from repro.system.builder import Machine, build_machine
from repro.system.simulator import RunResult, Simulator, flush_machine_memory


def small_config(**overrides) -> SystemConfig:
    """A 4-core machine with small caches: fast and eviction-prone."""
    defaults = dict(
        num_cores=4,
        l1=CacheConfig(size_bytes=4 * 1024, associativity=4),
        llc=CacheConfig(size_bytes=256 * 1024, associativity=8,
                        tag_latency=2, data_latency=8),
        num_llc_slices=2,
        network_latency=8,
        memory_latency=60,
    )
    defaults.update(overrides)
    return SystemConfig(**defaults)


def run_programs(programs, mode=ProtocolMode.MESI, config=None,
                 core_model="inorder", sanitize=False, **kwargs):
    """Build a machine, attach programs, run, return (result, machine).

    With ``sanitize=True`` the online protocol sanitizer rides along and
    raises :class:`~repro.check.sanitizer.InvariantViolation` on the first
    broken invariant (plus a full sweep after the run drains).
    """
    config = config or small_config()
    machine = build_machine(config, mode)
    machine.attach_programs(programs, core_model=core_model, **kwargs)
    if not sanitize:
        result = Simulator(machine).run()
        return result, machine
    from repro.check.sanitizer import Sanitizer

    sanitizer = Sanitizer(machine).attach()
    try:
        result = Simulator(machine).run()
        sanitizer.check_all()
    finally:
        sanitizer.detach()
    return result, machine


#: Seed value that makes the failure-injecting executors below misbehave.
POISON_SEED = 999


def crashing_executor(spec):
    """Engine executor that crashes on poison specs.

    Module-level so it pickles into spawn workers (the tests directory is
    on ``sys.path``, which spawn children inherit).
    """
    from repro.harness.runner import execute_spec

    if spec.seed == POISON_SEED:
        raise RuntimeError("injected worker crash")
    return execute_spec(spec)


def dying_executor(spec):
    """Engine executor whose pool worker process dies on poison specs.

    ``os._exit`` skips every handler, so the pool sees a worker vanish
    mid-run rather than an exception.  In the parent process (the engine's
    retry) the poison spec runs normally.
    """
    import multiprocessing
    import os

    from repro.harness.runner import execute_spec

    if spec.seed == POISON_SEED and multiprocessing.parent_process():
        os._exit(1)
    return execute_spec(spec)


#: Environment variable naming the directory :func:`sleeping_executor`
#: writes its worker's pid into.
PID_DIR_ENV = "REPRO_TEST_PID_DIR"


def sleeping_executor(spec):
    """Engine executor that records its process id as a file in
    ``$REPRO_TEST_PID_DIR`` and then sleeps for a minute without running
    the spec: a pool worker busy with a long spec."""
    import os
    import time

    path = os.path.join(os.environ[PID_DIR_ENV], str(os.getpid()))
    with open(path + ".tmp", "w") as fh:
        fh.write(str(os.getpid()))
    os.replace(path + ".tmp", path)
    time.sleep(60)
    raise RuntimeError("sleeping_executor outlived its test")


class RecordingExecutor:
    """Engine executor that records every spec it executes, optionally
    injecting failures.

    ``fail_first`` raises on the first call only (the engine must retry);
    ``always_fail`` raises on every call.  The instance keeps shared state,
    so it is for in-process (``jobs=1``) engines — the spawn-safe failure
    injectors for worker processes are :func:`crashing_executor` /
    :func:`dying_executor` above.
    """

    def __init__(self, fail_first: bool = False,
                 always_fail: bool = False) -> None:
        self.calls: list = []
        self.fail_first = fail_first
        self.always_fail = always_fail

    def __call__(self, spec):
        from repro.harness.runner import execute_spec

        self.calls.append(spec)
        if self.always_fail or (self.fail_first and len(self.calls) == 1):
            raise RuntimeError("injected executor failure")
        return execute_spec(spec)


def memory_image(machine: Machine):
    return flush_machine_memory(machine)


def read_u(image, addr: int, size: int = 4, block_size: int = 64) -> int:
    block = addr & ~(block_size - 1)
    data = image.get(block, bytes(block_size))
    off = addr - block
    return int.from_bytes(data[off:off + size], "little")


class L1Harness:
    """One L1 controller driven directly: ``issue`` runs an op against it
    and ``inject`` delivers a scripted directory message, so a test can
    read the PAM bits and the requests a hit or miss leaves behind."""

    #: Node id of the scripted directory the controller talks to.
    DIR_NODE = 1

    def __init__(self, mode=ProtocolMode.FSLITE, granularity: int = 1):
        from repro.coherence.l1_controller import L1Controller
        from repro.common.events import EventQueue

        self.queue = EventQueue()
        self.config = SystemConfig(num_cores=1, num_llc_slices=1)
        if granularity != 1:
            self.config = self.config.with_protocol(
                tracking_granularity=granularity)
        self.sent: list = []
        outer = self

        class FakeNetwork:
            def register(self, node, handler):
                outer.deliver = handler

            def send(self, msg, extra_delay=0):
                outer.sent.append(msg)

        self.l1 = L1Controller(0, self.config, mode, self.queue,
                               FakeNetwork(), home_of=lambda b: self.DIR_NODE)
        self.completions: list = []

    def issue(self, op) -> None:
        self.l1.access(op, self.completions.append)
        self.queue.run()

    def inject(self, mtype, block: int, **payload) -> None:
        from repro.interconnect.message import Message

        self.deliver(Message(mtype, src=self.DIR_NODE, dst=0,
                             block_addr=block, payload=payload))
        self.queue.run()

    def sent_types(self) -> list:
        """The types of the messages sent since the last call."""
        types = [m.mtype for m in self.sent]
        self.sent.clear()
        return types

    def pam_bits(self, block: int):
        """``(read_bits, write_bits)`` of the block's PAM entry."""
        entry = self.l1.pam.get(block)
        return entry.read_bits, entry.write_bits
