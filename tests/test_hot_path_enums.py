"""Guard: the per-op and per-message modules read no enum members at run
time.

On CPython 3.10/3.11 ``L1State.PRV`` goes through the enum metaclass on
every evaluation (about 5x a plain global load), ``member.value`` is a
property that runs Python code, and the three reads were the largest
per-hit cost left on the L1 hit path.  The hot modules therefore bind each
member once at module level (``L1_PRV``, ``MSG_GETX``, ``OP_LOAD``...) and
index per-type tables with ``mtype._value_``.  This test parses those
modules and fails on any function body that reads ``<HotEnum>.<MEMBER>`` or
``.value`` on a message type or op kind; module-level bindings (tables,
constants) stay allowed.
"""

import ast
import pathlib

import pytest

import repro
from repro.coherence import states
from repro.coherence.states import (BusyKind, DirState, L1State,
                                    TerminationCause)
from repro.cpu import ops
from repro.cpu.ops import OpKind
from repro.interconnect import message
from repro.interconnect.message import MessageType

SRC = pathlib.Path(repro.__file__).parent

#: Modules on the per-op / per-message paths.
HOT_MODULES = (
    "cpu/core.py",
    "cpu/ooo.py",
    "cpu/ops.py",
    "coherence/l1_controller.py",
    "coherence/directory.py",
    "interconnect/network.py",
    "interconnect/message.py",
    "workloads/trace.py",
)

#: Hot enum -> (module defining its constants, constant-name prefix).
HOT_ENUMS = {
    L1State: (states, "L1_"),
    DirState: (states, "DIR_"),
    BusyKind: (states, "BUSY_"),
    TerminationCause: (states, "TERM_"),
    MessageType: (message, "MSG_"),
    OpKind: (ops, "OP_"),
}
_MEMBERS = {cls.__name__: frozenset(cls.__members__) for cls in HOT_ENUMS}

#: Names and attributes that hold a MessageType or OpKind member.
_KIND_NAMES = frozenset({"mtype", "kind", "sent"})


def _holds_kind(node: ast.AST) -> bool:
    return ((isinstance(node, ast.Name) and node.id in _KIND_NAMES)
            or (isinstance(node, ast.Attribute)
                and node.attr in _KIND_NAMES))


def enum_reads_in_functions(source: str, filename: str = "<src>") -> list:
    """``file:line: expr`` for every enum-member or ``.value`` read inside
    a function or lambda body of ``source``."""
    found = set()
    for func in ast.walk(ast.parse(source, filename)):
        if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.Lambda)):
            continue
        for node in ast.walk(func):
            if not isinstance(node, ast.Attribute):
                continue
            base = node.value
            if (isinstance(base, ast.Name) and base.id in _MEMBERS
                    and node.attr in _MEMBERS[base.id]):
                found.add((node.lineno, f"{base.id}.{node.attr}"))
            elif node.attr == "value" and _holds_kind(base):
                found.add((node.lineno, f"{ast.unparse(base)}.value"))
    return [f"{filename}:{line}: {expr}" for line, expr in sorted(found)]


@pytest.mark.parametrize("relpath", HOT_MODULES)
def test_hot_module_reads_no_enum_members_in_functions(relpath):
    path = SRC / relpath
    reads = enum_reads_in_functions(path.read_text(), relpath)
    assert not reads, (
        "hot-path enum reads (use the module-level member constants and "
        "`._value_`):\n" + "\n".join(reads))


def test_guard_flags_member_and_value_reads():
    source = (
        "X = L1State.PRV\n"                # module level: allowed
        "def f(msg, op, line):\n"
        "    a = line.state is L1State.PRV\n"
        "    b = msg.mtype.value\n"
        "    c = op.kind.value\n"
        "    d = op.value\n"                # an Op's store value: allowed
        "    return MessageType.GETX\n"
    )
    assert enum_reads_in_functions(source) == [
        "<src>:3: L1State.PRV",
        "<src>:4: msg.mtype.value",
        "<src>:5: op.kind.value",
        "<src>:7: MessageType.GETX",
    ]


@pytest.mark.parametrize("cls", list(HOT_ENUMS), ids=lambda c: c.__name__)
def test_every_member_has_an_identical_constant(cls):
    """Each member is bound once, to the member object itself, so identity
    tests, reprs and pickles see exactly the enum."""
    module, prefix = HOT_ENUMS[cls]
    for name, member in cls.__members__.items():
        assert getattr(module, prefix + name) is member
        assert member._value_ == member.value
