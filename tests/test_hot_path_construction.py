"""Guard: the per-event paths build their objects positionally and read no
mode flags.

On CPython 3.10-3.13 calling a *class* with keyword arguments costs
~290-400 ns more than the same call with positional arguments (the
keywords are packed into a dict and unpacked again on the way to
``__init__``), while the same keywords on a plain function cost ~20-30
ns.  Every coherence message, miss, fill and memory op builds one or more
of the classes below, so those call sites pass positional arguments and
set rarely used fields after construction.  ``ProtocolMode.detects`` /
``.repairs`` are properties (~200-250 ns a read on 3.10/3.11); the
controllers bind them once in ``__init__``.

This test parses the hot modules and fails on a keyword call to a
per-event class or a ``.detects``/``.repairs`` read inside any function
body.  ``__init__`` bodies run once per machine and are exempt, as is
module-level code.
"""

import ast
import pathlib

import pytest

import repro
from test_hot_path_enums import HOT_MODULES

SRC = pathlib.Path(repro.__file__).parent

#: The per-op / per-message modules plus the detection and array modules
#: every miss runs through.
GUARDED_MODULES = HOT_MODULES + (
    "core/fsdetect.py",
    "core/sam.py",
    "memsys/cache_array.py",
    "memsys/write_buffer.py",
)

#: Classes constructed once (or more) per message, miss, fill or op.
PER_EVENT_CLASSES = frozenset({
    "Message", "Mshr", "BusyCtx", "L1Line", "LlcLine", "CacheEntry", "Op",
    "WriteBufferEntry", "PamEntry", "SamEntry", "DirEntryMeta",
    "TrueSharingConflict",
})

#: ``ProtocolMode`` properties that must be read once, in ``__init__``.
MODE_FLAGS = frozenset({"detects", "repairs"})


def _nodes_in_functions(node: ast.AST, in_function: bool = False):
    """Every node inside a function or lambda body of ``node``, skipping
    ``__init__`` bodies."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
            if child.name != "__init__":
                yield from _nodes_in_functions(child, True)
        elif isinstance(child, ast.Lambda):
            yield from _nodes_in_functions(child, True)
        else:
            if in_function:
                yield child
            yield from _nodes_in_functions(child, in_function)


def _called_name(call: ast.Call):
    func = call.func
    if isinstance(func, ast.Name):
        return func.id
    if isinstance(func, ast.Attribute):
        return func.attr
    return None


def slow_calls_in_functions(source: str, filename: str = "<src>") -> list:
    """``file:line: what`` for every keyword call to a per-event class and
    every mode-flag read inside a function body of ``source``."""
    found = set()
    for node in _nodes_in_functions(ast.parse(source, filename)):
        if isinstance(node, ast.Call) and node.keywords:
            name = _called_name(node)
            if name in PER_EVENT_CLASSES:
                found.add((node.lineno, f"{name}(...) with keywords"))
        elif (isinstance(node, ast.Attribute) and node.attr in MODE_FLAGS
              and isinstance(node.ctx, ast.Load)):
            found.add((node.lineno, f"{ast.unparse(node)} read"))
    return [f"{filename}:{line}: {what}" for line, what in sorted(found)]


@pytest.mark.parametrize("relpath", GUARDED_MODULES)
def test_hot_module_builds_per_event_objects_positionally(relpath):
    path = SRC / relpath
    found = slow_calls_in_functions(path.read_text(), relpath)
    assert not found, (
        "per-event keyword construction or mode-flag reads (pass "
        "arguments positionally; bind mode flags in __init__):\n"
        + "\n".join(found))


def test_guard_flags_keyword_construction_and_mode_flags():
    source = (
        "M = Message(T, src=0, dst=1, block_addr=0)\n"  # module: allowed
        "class C:\n"
        "    def __init__(self, mode):\n"
        "        self._detects = mode.detects\n"        # __init__: allowed
        "        self.q = Mshr(block_addr=0, sent=T, ops=[])\n"
        "    def f(self, op, **kw):\n"
        "        a = Message(T, 0, 1, 0, {})\n"          # positional: fine
        "        b = Message(T, src=0, dst=1, block_addr=0)\n"
        "        c = self.mode.detects\n"
        "        d = ops.Op(OP_LOAD, addr=0)\n"
        "        e = BusyCtx(K, 0, **kw)\n"
        "        g = self.pam.record_access(0, 1, is_write=True)\n"
        "        h = lambda m: m.repairs\n"
        "        i = self._detects\n"
        "        return CacheEntry(w, s)\n"
    )
    assert slow_calls_in_functions(source) == [
        "<src>:8: Message(...) with keywords",
        "<src>:9: self.mode.detects read",
        "<src>:10: Op(...) with keywords",
        "<src>:11: BusyCtx(...) with keywords",
        "<src>:13: m.repairs read",
    ]

