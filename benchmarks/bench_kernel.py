"""Simulation-kernel microbenchmarks and cold-run macro timings.

Tracks the performance trajectory of the hot simulation loop — the event
queue, message construction/accounting, controller dispatch and the bitvec
helpers — plus the headline macro number: wall-clock seconds for *cold*
(cache-disabled) fig14 runs of the false-sharing workloads.

Usage (appends one labelled snapshot to the machine-readable trajectory)::

    python benchmarks/bench_kernel.py --label my-change
    python benchmarks/bench_kernel.py --quick --label ci --out BENCH_kernel.json

The default output is ``benchmarks/results/BENCH_kernel.json``; committed
snapshots let any PR demonstrate its before/after numbers.  Macro sections
also record the summed simulated cycles of every run — a cheap identity
check: an optimisation snapshot must reproduce the previous snapshot's
``cycles_checksum`` exactly (same seed, same cycles) or it changed
behaviour, not just speed.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import platform
import random
import sys
import time

try:
    import repro  # noqa: F401
except ImportError:  # script run without PYTHONPATH=src
    sys.path.insert(0, str(pathlib.Path(__file__).parent.parent / "src"))

from repro.coherence.states import ProtocolMode
from repro.common.bitvec import bit_count, iter_set_bits, mask_for_range
from repro.common.events import EventQueue
from repro.harness.runner import RunSpec, execute_spec
from repro.interconnect.message import Message, MessageType
from repro.interconnect.network import Network
from repro.system.builder import build_machine
from repro.workloads.registry import FS_WORKLOADS

DEFAULT_OUT = pathlib.Path(__file__).parent / "results" / "BENCH_kernel.json"


def _timed(fn, *args):
    start = time.perf_counter()
    result = fn(*args)
    return result, time.perf_counter() - start


# ------------------------------------------------------------------ micro

def bench_event_throughput(n: int) -> dict:
    """Schedule ``n`` events and drain the queue through ``step()``."""
    queue = EventQueue()
    fired = [0]

    def cb(_arg) -> None:
        fired[0] += 1

    def run() -> None:
        for i in range(n):
            queue.schedule(i % 97, cb)
        while queue.step():
            pass

    _, seconds = _timed(run)
    assert fired[0] == n
    return {"n": n, "seconds": seconds, "ops_per_sec": n / seconds}


def bench_message_churn(n: int) -> dict:
    """Construct messages and exercise the per-type class/size tables."""
    types = list(MessageType)
    total = 0

    def run() -> int:
        acc = 0
        for i in range(n):
            msg = Message(types[i % len(types)], src=0, dst=1,
                          block_addr=(i % 512) * 64)
            acc += msg.size_bytes
            acc += msg.mclass.value == "data"
        return acc

    total, seconds = _timed(run)
    assert total > 0
    return {"n": n, "seconds": seconds, "ops_per_sec": n / seconds}


def bench_network_fastpath(n: int) -> dict:
    """Send/deliver messages through a hook-free network (the fast path)."""
    queue = EventQueue()
    network = Network(queue, latency=3)
    delivered = [0]

    def handler(msg: Message) -> None:
        delivered[0] += 1

    network.register(0, handler)
    network.register(1, handler)
    types = (MessageType.GET, MessageType.DATA, MessageType.INV_ACK,
             MessageType.PUTM)

    def run() -> None:
        for i in range(n):
            network.send(Message(types[i % 4], src=i % 2, dst=1 - i % 2,
                                 block_addr=(i % 256) * 64))
            if i % 64 == 63:
                while queue.step():
                    pass
        while queue.step():
            pass

    _, seconds = _timed(run)
    assert delivered[0] == n
    return {"n": n, "seconds": seconds, "ops_per_sec": n / seconds}


def bench_controller_dispatch(n: int) -> dict:
    """Round-trip INV/INV_ACK dispatch through real L1+directory controllers.

    Invalidations for non-resident blocks are legal protocol traffic (stale
    sharer info), so this measures pure handle-message dispatch plus the
    network/event plumbing, with no cache-state churn.
    """
    from repro.common.config import CacheConfig, SystemConfig

    config = SystemConfig(
        num_cores=2,
        l1=CacheConfig(size_bytes=4 * 1024, associativity=4),
        llc=CacheConfig(size_bytes=64 * 1024, associativity=8),
        num_llc_slices=1)
    machine = build_machine(config, ProtocolMode.MESI)
    dir_node = machine.slices[0].node_id

    def run() -> None:
        for i in range(n):
            machine.network.send(Message(
                MessageType.INV, src=dir_node, dst=i % 2,
                block_addr=(i % 128) * 64, payload={"requestor": None}))
            if i % 32 == 31:
                while machine.queue.step():
                    pass
        while machine.queue.step():
            pass

    _, seconds = _timed(run)
    return {"n": n, "seconds": seconds, "ops_per_sec": n / seconds}


def bench_bitvec(n: int) -> dict:
    """bit_count / iter_set_bits / mask building over random 64-bit masks."""
    rng = random.Random(0)
    masks = [rng.getrandbits(64) for _ in range(256)]
    total = 0

    def run() -> int:
        acc = 0
        for i in range(n):
            mask = masks[i % 256]
            acc += bit_count(mask)
            if i % 16 == 0:
                for bit in iter_set_bits(mask):
                    acc += bit
                acc += bit_count(mask & mask_for_range(8, 16))
        return acc

    total, seconds = _timed(run)
    assert total > 0
    return {"n": n, "seconds": seconds, "ops_per_sec": n / seconds}


# ------------------------------------------------------------------ macro

def bench_fig14_cold(scale: float, modes) -> dict:
    """Cold (no cache, fresh machine) fig14 runs; the headline number."""
    per_run = {}
    cycles_checksum = 0
    start = time.perf_counter()
    for tag in FS_WORKLOADS:
        for mode in modes:
            spec = RunSpec(tag=tag, mode=mode, scale=scale)
            record, seconds = _timed(execute_spec, spec)
            per_run[f"{tag}/{mode.value}"] = round(seconds, 4)
            cycles_checksum += record.cycles
    total = time.perf_counter() - start
    return {"runs": len(per_run), "scale": scale,
            "seconds": round(total, 4), "per_run": per_run,
            "cycles_checksum": cycles_checksum}


# ------------------------------------------------------------------ driver

def run_suite(quick: bool = False) -> dict:
    micro_n = 50_000 if quick else 200_000
    scale = 0.3 if quick else 1.0
    micro = {
        "event_throughput": bench_event_throughput(micro_n),
        "message_churn": bench_message_churn(micro_n),
        "network_fastpath": bench_network_fastpath(micro_n // 2),
        "controller_dispatch": bench_controller_dispatch(micro_n // 4),
        "bitvec": bench_bitvec(micro_n),
    }
    macro = {
        "fig14_fslite_cold": bench_fig14_cold(scale, [ProtocolMode.FSLITE]),
        "fig14_full_cold": bench_fig14_cold(
            scale, [ProtocolMode.MESI, ProtocolMode.FSDETECT,
                    ProtocolMode.FSLITE]),
    }
    return {"micro": micro, "macro": macro, "quick": quick}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--label", default="local",
                        help="snapshot label recorded in the trajectory")
    parser.add_argument("--quick", action="store_true",
                        help="smaller iteration counts and scale=0.3 "
                             "(CI perf smoke)")
    parser.add_argument("--out", type=pathlib.Path, default=DEFAULT_OUT,
                        help=f"trajectory JSON path (default {DEFAULT_OUT})")
    args = parser.parse_args(argv)

    snapshot = run_suite(quick=args.quick)
    snapshot["label"] = args.label
    snapshot["python"] = platform.python_version()
    snapshot["timestamp"] = time.strftime("%Y-%m-%dT%H:%M:%S")

    data = {"schema": 1, "snapshots": []}
    if args.out.exists():
        data = json.loads(args.out.read_text())
    data["snapshots"].append(snapshot)
    args.out.parent.mkdir(parents=True, exist_ok=True)
    args.out.write_text(json.dumps(data, indent=1) + "\n")

    for name, res in snapshot["micro"].items():
        print(f"{name:22s} {res['ops_per_sec']:>12,.0f} ops/s "
              f"({res['seconds']:.3f}s / {res['n']:,})")
    for name, res in snapshot["macro"].items():
        print(f"{name:22s} {res['seconds']:>8.2f}s for {res['runs']} runs "
              f"(cycles_checksum {res['cycles_checksum']})")
    print(f"snapshot '{args.label}' appended to {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
