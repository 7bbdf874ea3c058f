"""The rule catalog.  Each rule encodes one contract this repo has
already paid to learn.

========  ====================================================================
RA01      Mutating filesystem calls must go through the ``repro.fsio`` seam.
RA02      A ``*.tmp`` write must sit in a ``try`` whose handler unlinks it.
RA03      Nothing order- or clock-nondeterministic may feed outputs:
          no unsorted set iteration, no wall-clock/unseeded randomness.
RA04      Data-plane failures raise the typed taxonomy, not bare
          ``RuntimeError``/``ValueError``.
RA05      Payload floats move through ``struct``/memcpy — never through a
          string round-trip.
RA06      ``SharedMemory`` attaches go through the tracker-suppressing
          helper in ``transport.py``.
========  ====================================================================

Scoping is by path segment (``module.in_dir("engine")``), not by import
graph, so the rules work identically on the real tree and on fixture
trees tests synthesize under a temp directory.
"""

from __future__ import annotations

import ast
from typing import Iterator, Optional, Set

from .core import Finding, SourceModule, call_name, rule

__all__ = ["RA01", "RA02", "RA03", "RA04", "RA05", "RA06"]


# -- shared helpers ----------------------------------------------------------

_WRITE_MODE_CHARS = set("wax+")


def _call_mode_arg(call: ast.Call) -> Optional[ast.expr]:
    """The ``mode`` argument of an ``open``-shaped call, if present."""
    if len(call.args) >= 2:
        return call.args[1]
    for kw in call.keywords:
        if kw.arg == "mode":
            return kw.value
    return None


def _is_write_mode(mode: Optional[ast.expr]) -> Optional[bool]:
    """True/False when the mode is statically known; ``None`` if dynamic."""
    if mode is None:
        return False  # open() defaults to "r"
    if isinstance(mode, ast.Constant) and isinstance(mode.value, str):
        return bool(_WRITE_MODE_CHARS & set(mode.value))
    return None


def _names_in(node: ast.AST) -> Set[str]:
    return {n.id for n in ast.walk(node) if isinstance(n, ast.Name)}


def _assigned_names(target: ast.expr) -> Set[str]:
    return {
        n.id
        for n in ast.walk(target)
        if isinstance(n, ast.Name) and isinstance(n.ctx, (ast.Store,))
    }


def _function_params(func: ast.FunctionDef | ast.AsyncFunctionDef) -> Set[str]:
    a = func.args
    names = {arg.arg for arg in a.posonlyargs + a.args + a.kwonlyargs}
    if a.vararg:
        names.add(a.vararg.arg)
    if a.kwarg:
        names.add(a.kwarg.arg)
    names.discard("self")
    names.discard("cls")
    return names


def _tainted_names(func: ast.FunctionDef | ast.AsyncFunctionDef) -> Set[str]:
    """Names derived from the function's parameters (fixpoint over simple
    assignments and ``for`` targets) — the values argument validation is
    allowed to reject with a bare ``ValueError``."""
    tainted = _function_params(func)
    changed = True
    while changed:
        changed = False
        for node in ast.walk(func):
            if isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
                value = node.value
                if value is None or not (_names_in(value) & tainted):
                    continue
                targets = (
                    node.targets if isinstance(node, ast.Assign) else [node.target]
                )
                for t in targets:
                    new = _assigned_names(t) - tainted
                    if new:
                        tainted |= new
                        changed = True
            elif isinstance(node, ast.For):
                if _names_in(node.iter) & tainted:
                    new = _assigned_names(node.target) - tainted
                    if new:
                        tainted |= new
                        changed = True
            elif isinstance(node, ast.NamedExpr):
                if _names_in(node.value) & tainted:
                    new = {node.target.id} - tainted
                    if new:
                        tainted |= new
                        changed = True
    return tainted


# -- RA01: fsio seam ---------------------------------------------------------

_RA01_OS_CALLS = {
    "os.replace": "fsio.replace",
    "os.rename": "fsio.replace",
    "os.fsync": "fsio.fsync",
    "os.unlink": "fsio.unlink",
    "os.remove": "fsio.unlink",
}


def _ra01_exempt(module: SourceModule) -> bool:
    # fsio.py IS the seam; repro/testing hosts the fault shims that
    # deliberately hit the real filesystem underneath it.
    return module.filename == "fsio.py" or module.in_dir("testing")


@rule(
    "RA01",
    "mutating filesystem calls must go through the repro.fsio seam",
    "The crash harness injects ENOSPC/torn-write/kill-9 faults at the "
    "fsio seam; a direct builtin write path is invisible to it, so its "
    "failure modes ship untested.",
)
def RA01(module: SourceModule) -> Iterator[Finding]:
    if _ra01_exempt(module):
        return
    for node in module.walk():
        if not isinstance(node, ast.Call):
            continue
        name = call_name(node.func)
        if name is None:
            continue
        if name in _RA01_OS_CALLS:
            yield module.finding(
                "RA01",
                node,
                f"direct {name}() bypasses the fsio seam — use "
                f"{_RA01_OS_CALLS[name]}() so fault injection can see it",
            )
        elif name == "open":
            writes = _is_write_mode(_call_mode_arg(node))
            if writes:
                yield module.finding(
                    "RA01",
                    node,
                    "write-mode open() bypasses the fsio seam — use "
                    "fsio.open_file() so fault injection can see it",
                )
            elif writes is None:
                yield module.finding(
                    "RA01",
                    node,
                    "open() with a dynamic mode cannot be proven read-only — "
                    "pass a literal mode or route through fsio.open_file()",
                )


# -- RA02: tmp hygiene -------------------------------------------------------


def _mentions_tmp_suffix(node: ast.AST) -> bool:
    for sub in ast.walk(node):
        if (
            isinstance(sub, ast.Constant)
            and isinstance(sub.value, str)
            and sub.value.endswith(".tmp")
        ):
            return True
    return False


def _unlinks_name(handler_body: list, name: str) -> bool:
    for stmt in handler_body:
        for node in ast.walk(stmt):
            if not isinstance(node, ast.Call):
                continue
            callee = call_name(node.func)
            if callee is None:
                continue
            # os.unlink(tmp) / fsio.unlink(tmp) / Path-style tmp.unlink()
            if callee.endswith("unlink") or callee.endswith("remove"):
                if callee.startswith(f"{name}."):
                    return True
                if any(
                    isinstance(a, ast.Name) and a.id == name for a in node.args
                ):
                    return True
    return False


@rule(
    "RA02",
    "a *.tmp write must sit in a try whose handler unlinks it",
    "PRs 6 and 8 each shipped fixes for .tmp files orphaned by a failed "
    "write: a stale manifest.json.tmp shadows the next commit, a "
    "truncated .idx.tmp can be promoted by a later rename.",
)
def RA02(module: SourceModule) -> Iterator[Finding]:
    for func in module.walk():
        if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        tmp_names: Set[str] = set()
        for node in ast.walk(func):
            if isinstance(node, ast.Assign) and _mentions_tmp_suffix(node.value):
                for t in node.targets:
                    tmp_names |= _assigned_names(t)
        if not tmp_names:
            continue
        for node in ast.walk(func):
            if not isinstance(node, ast.Call):
                continue
            callee = call_name(node.func)
            if callee is None or not (
                callee == "open" or callee.endswith("open_file") or callee.endswith(".open")
            ):
                continue
            used = {
                a.id
                for a in node.args
                if isinstance(a, ast.Name) and a.id in tmp_names
            }
            if not used:
                continue
            mode = _is_write_mode(_call_mode_arg(node))
            if mode is False:
                continue
            name = sorted(used)[0]
            protected = False
            for anc in module.ancestors(node):
                if anc is func:
                    break
                if isinstance(anc, ast.Try):
                    handler_bodies = [h.body for h in anc.handlers]
                    if anc.finalbody:
                        handler_bodies.append(anc.finalbody)
                    if any(_unlinks_name(b, name) for b in handler_bodies):
                        protected = True
                        break
            if not protected:
                yield module.finding(
                    "RA02",
                    node,
                    f"write to tmp path {name!r} is not guarded by a try "
                    f"whose handler unlinks it — a failed write would leave "
                    f"a stale/truncated .tmp on disk",
                )


# -- RA03: digest determinism ------------------------------------------------

_ORDER_INSENSITIVE_CONSUMERS = {
    "sorted",
    "len",
    "sum",
    "min",
    "max",
    "any",
    "all",
    "set",
    "frozenset",
}

_CLOCK_CALLS = {
    "time.time": "wall-clock time in outputs breaks run-to-run determinism",
    "datetime.now": "wall-clock timestamps break run-to-run determinism",
    "datetime.utcnow": "wall-clock timestamps break run-to-run determinism",
    "datetime.datetime.now": "wall-clock timestamps break run-to-run determinism",
    "datetime.datetime.utcnow": "wall-clock timestamps break run-to-run determinism",
}

#: Module-level random.* functions share interpreter-global state; only
#: seeded random.Random(seed) instances are reproducible.
_RANDOM_MODULE_FNS = {
    "random.random",
    "random.randint",
    "random.randrange",
    "random.uniform",
    "random.gauss",
    "random.normalvariate",
    "random.choice",
    "random.choices",
    "random.sample",
    "random.shuffle",
    "random.seed",
}


def _is_setlike(node: ast.AST, local_sets: Set[str]) -> bool:
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    if isinstance(node, ast.Call):
        name = call_name(node.func)
        if name in {"set", "frozenset"}:
            return True
        if name is not None and name.split(".")[-1] in {
            "intersection",
            "union",
            "difference",
            "symmetric_difference",
        }:
            # set operators on an already-set receiver; only treat as
            # set-like when the receiver is a known local set.
            recv = name.rsplit(".", 1)[0]
            return recv in local_sets
    if isinstance(node, ast.Name):
        return node.id in local_sets
    if isinstance(node, ast.BinOp) and isinstance(
        node.op, (ast.BitAnd, ast.BitOr, ast.Sub, ast.BitXor)
    ):
        return _is_setlike(node.left, local_sets) or _is_setlike(
            node.right, local_sets
        )
    return False


def _walk_scope(scope: ast.AST) -> Iterator[ast.AST]:
    """Walk ``scope`` without descending into nested function/class
    bodies, so one function's locals never leak into another's."""
    stack = list(ast.iter_child_nodes(scope))
    while stack:
        node = stack.pop()
        yield node
        if not isinstance(
            node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef, ast.Lambda)
        ):
            stack.extend(ast.iter_child_nodes(node))


def _local_set_names(scope: ast.AST) -> Set[str]:
    """Names bound to set-typed expressions within ``scope`` (one level of
    literal inference; no interprocedural tracking)."""
    names: Set[str] = set()
    for node in _walk_scope(scope):
        if isinstance(node, ast.Assign):
            if _is_setlike(node.value, names):
                for t in node.targets:
                    names |= _assigned_names(t)
        elif isinstance(node, ast.AnnAssign) and node.value is not None:
            if _is_setlike(node.value, names):
                names |= _assigned_names(node.target)
    return names


def _ra03_clock_exempt(module: SourceModule) -> bool:
    # CLI entry points stamp their reports with the recording time
    # on purpose; the records' *digests* never include it.
    return module.filename == "__main__.py" or module.in_dir("testing")


@rule(
    "RA03",
    "no unsorted set iteration / wall-clock / global randomness near outputs",
    "Digest audits pin every ingest path bit-identical; set iteration "
    "order varies with PYTHONHASHSEED across processes, and wall-clock "
    "or interpreter-global randomness varies across runs.",
)
def RA03(module: SourceModule) -> Iterator[Finding]:
    # (a) clocks and global randomness
    for node in module.walk():
        if not isinstance(node, ast.Call):
            continue
        name = call_name(node.func)
        if name is None:
            continue
        if name in _CLOCK_CALLS and not _ra03_clock_exempt(module):
            yield module.finding("RA03", node, f"{name}(): {_CLOCK_CALLS[name]}")
        elif name in _RANDOM_MODULE_FNS:
            yield module.finding(
                "RA03",
                node,
                f"{name}() uses interpreter-global random state — "
                "construct a seeded random.Random(seed) instance instead",
            )
        elif name == "random.Random" and not node.args and not node.keywords:
            yield module.finding(
                "RA03",
                node,
                "random.Random() without a seed draws entropy from the OS — "
                "pass an explicit seed",
            )

    # (b) unsorted set iteration, resolved against the enclosing scope's
    # locally-inferred set bindings
    set_cache: dict = {}
    for node in module.walk():
        iters: list = []
        if isinstance(node, ast.For):
            iters = [node.iter]
        elif isinstance(
            node, (ast.ListComp, ast.SetComp, ast.GeneratorExp, ast.DictComp)
        ):
            iters = [gen.iter for gen in node.generators]
        if not iters:
            continue
        scope = module.enclosing_function(node) or module.tree
        key = id(scope)
        if key not in set_cache:
            set_cache[key] = _local_set_names(scope)
        local_sets = set_cache[key]
        for it in iters:
            if not _is_setlike(it, local_sets):
                continue
            # Iteration whose *consumer* is order-insensitive is fine:
            # sorted({...}), sum(x for x in s), s2 = set(s), min(s)...
            parent = module.parent(node)
            if isinstance(parent, ast.Call) and call_name(parent.func) in (
                _ORDER_INSENSITIVE_CONSUMERS
            ):
                continue
            yield module.finding(
                "RA03",
                node,
                "iteration over a set is PYTHONHASHSEED-ordered — wrap "
                "the iterable in sorted() before it can feed a digest, "
                "report, or stored artifact",
            )


# -- RA04: typed errors ------------------------------------------------------

_BARE_ERRORS = {"RuntimeError", "ValueError"}

_TAXONOMY_HINT = (
    "the taxonomy here is ShardCrashError / JournalError / TransportError / "
    "CodecError / BatchIngestError / StaleStoreError"
)


def _ra04_in_scope(module: SourceModule) -> bool:
    if module.in_dir("testing"):
        return False
    return module.in_dir("engine", "storage") or module.filename == "transport.py"


@rule(
    "RA04",
    "data-plane failures raise the typed error taxonomy",
    "Callers route on ShardCrashError/JournalError/TransportError/"
    "CodecError/BatchIngestError; a bare RuntimeError or ValueError "
    "escaping the data plane is unroutable and unhandled.",
)
def RA04(module: SourceModule) -> Iterator[Finding]:
    if not _ra04_in_scope(module):
        return
    taint_cache: dict = {}
    for node in module.walk():
        if not isinstance(node, ast.Raise) or node.exc is None:
            continue
        exc = node.exc
        if isinstance(exc, ast.Call):
            exc_name = call_name(exc.func)
        elif isinstance(exc, ast.Name):
            exc_name = exc.id
        else:
            continue
        if exc_name not in _BARE_ERRORS:
            continue
        func = module.enclosing_function(node)
        if exc_name == "ValueError" and func is not None:
            # Argument validation is ValueError's legitimate job: exempt
            # raises in __init__/__post_init__ and raises guarded by a
            # test over a parameter(-derived) value.
            if func.name in {"__init__", "__post_init__"}:
                continue
            key = id(func)
            if key not in taint_cache:
                taint_cache[key] = _tainted_names(func)
            tainted = taint_cache[key]
            guarded = False
            for anc in module.ancestors(node):
                if anc is func:
                    break
                if isinstance(anc, ast.If) and (_names_in(anc.test) & tainted):
                    guarded = True
                    break
            if guarded:
                continue
        yield module.finding(
            "RA04",
            node,
            f"bare {exc_name} raised on the data plane — {_TAXONOMY_HINT}",
        )


# -- RA05: float bit-exactness -----------------------------------------------

_STRINGIFIERS = {"str", "repr", "format"}


def _is_string_producing(node: ast.AST) -> bool:
    if isinstance(node, ast.JoinedStr):
        return True
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return True
    if isinstance(node, ast.Call):
        name = call_name(node.func)
        if name in _STRINGIFIERS:
            return True
        if name is not None and name.endswith(".format"):
            return True
    if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Mod):
        return _is_string_producing(node.left)
    return False


def _ra05_in_scope(module: SourceModule) -> bool:
    return module.filename in {"codec.py", "journal.py", "transport.py"}


@rule(
    "RA05",
    "payload floats never round-trip through a string",
    "Replay and transport parity are pinned bit-identical (NaN payloads, "
    "-0.0, denormals); str()/repr() round-trips lose the distinction "
    "between NaN bit patterns and are locale/precision hazards — floats "
    "cross serialization boundaries via struct/memcpy only.",
)
def RA05(module: SourceModule) -> Iterator[Finding]:
    if not _ra05_in_scope(module):
        return
    for node in module.walk():
        if not isinstance(node, ast.Call):
            continue
        if call_name(node.func) == "float" and node.args:
            if _is_string_producing(node.args[0]):
                yield module.finding(
                    "RA05",
                    node,
                    "float(<string>) re-parse in a payload path — floats "
                    "must move through struct/memcpy to stay bit-exact",
                )


# -- RA06: shared-memory lifecycle -------------------------------------------

_ATTACH_HELPER = "attach_shared_memory"


def _in_attach_helper(module: SourceModule, node: ast.AST) -> bool:
    func = module.enclosing_function(node)
    return (
        func is not None
        and func.name == _ATTACH_HELPER
        and module.filename == "transport.py"
    )


@rule(
    "RA06",
    "SharedMemory attaches go through transport.attach_shared_memory",
    "CPython registers a segment with the resource tracker on attach as "
    "well as create (bpo-38119); an unsuppressed worker attach lets the "
    "tracker erase the parent's unlink entry and leak /dev/shm segments. "
    "transport.attach_shared_memory() is the one audited workaround.",
)
def RA06(module: SourceModule) -> Iterator[Finding]:
    for node in module.walk():
        if isinstance(node, ast.Call):
            name = call_name(node.func)
            if name is None or name.split(".")[-1] != "SharedMemory":
                continue
            create = None
            for kw in node.keywords:
                if kw.arg == "create":
                    if isinstance(kw.value, ast.Constant):
                        create = bool(kw.value.value)
                    break
            if create is True:
                continue  # creation registers correctly; only attach is unsafe
            if _in_attach_helper(module, node):
                continue
            yield module.finding(
                "RA06",
                node,
                "SharedMemory attach outside transport.attach_shared_memory() "
                "re-registers the segment with the shared resource tracker "
                "(bpo-38119) and can erase the owner's cleanup entry",
            )
        elif isinstance(node, (ast.Assign, ast.AugAssign)):
            targets = (
                node.targets if isinstance(node, ast.Assign) else [node.target]
            )
            for t in targets:
                tname = call_name(t) if isinstance(t, ast.Attribute) else None
                if tname == "resource_tracker.register" and not _in_attach_helper(
                    module, node
                ):
                    yield module.finding(
                        "RA06",
                        node,
                        "monkeypatching resource_tracker.register outside "
                        "transport.attach_shared_memory() — route the attach "
                        "through the one audited helper",
                    )
