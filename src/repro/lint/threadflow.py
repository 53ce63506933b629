"""Concurrency-context reachability for the CONC002–CONC005 rules.

PR 7 gave the campaign engine three genuinely concurrent contexts: the
deadline watchdog's daemon work thread, POSIX signal handlers installed
by :class:`~repro.core.supervise.ShutdownHandler`, and callables
submitted to thread pools.  Code reachable from those entry points runs
interleaved with the main context, so the shared-state and lock rules
need to know, per function, *which contexts can execute it*.

:class:`ConcurrencyModel` builds that view: a
:class:`~repro.lint.callgraph.ContextModel` whose entries are every
statically resolvable ``threading.Thread(target=...)`` /
``threading.Timer`` target, ``signal.signal(...)`` handler, and
callable submitted to a ``ThreadPoolExecutor``.  Targets resolve with
the shared :meth:`~repro.lint.callgraph.Program.resolve_callable`
(imports, the enclosing class, a local holding a single construction
such as ``handler = ShutdownHandler()``); a *nested* function passed as
a target is kept as a context *region* whose resolvable calls seed
reachability.  ``contexts_of(qualname)`` answers with a subset of
``{"thread", "signal"}``; the empty set means "main context only, as
far as the analysis can prove".  Dynamic (name-match) edges are
excluded: an over-approximated context would manufacture false
cross-context findings, and the CONC rules inherit the lint
subsystem's UNKNOWN-never-flags contract.

The model also centralizes the small lexicons the rules share: what
counts as a lock object, an Event, a mutating method, or a
deadline-arithmetic identifier.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass, field
from typing import Iterator

from repro.lint.callgraph import (
    ClassInfo,
    ContextModel,
    FunctionInfo,
    ModuleInfo,
    NestedRegion,
    Program,
    last_name,
    self_attr,
)

#: Constructors whose result runs a callable in a new thread.
THREAD_CONSTRUCTORS = frozenset({"threading.Thread", "threading.Timer"})

#: Constructors whose result is a *thread* pool (shared memory).  The
#: process-pool boundary is CONC001's business — workers there share
#: nothing, so their callables are not a concurrency context here.
_THREAD_POOL_CONSTRUCTORS = frozenset(
    {
        "concurrent.futures.ThreadPoolExecutor",
        "concurrent.futures.thread.ThreadPoolExecutor",
        "multiprocessing.dummy.Pool",
    }
)

_SUBMIT_METHODS = frozenset({"submit", "map"})

#: Constructors whose result is a lock (acquire/release discipline).
LOCK_CONSTRUCTORS = frozenset(
    {
        "threading.Lock",
        "threading.RLock",
        "threading.Condition",
        "threading.Semaphore",
        "threading.BoundedSemaphore",
        "multiprocessing.Lock",
        "multiprocessing.RLock",
    }
)

#: Constructors whose result is an Event (set/is_set are atomic and
#: the sanctioned cross-context signalling discipline).
EVENT_CONSTRUCTORS = frozenset({"threading.Event"})

#: Identifier lexicon for lock-like names (``self._lock``, ``io_mutex``).
LOCK_NAME_RE = re.compile(r"(^|_)(lock|mutex)$")

#: Identifier lexicon for deadline/timeout arithmetic (CONC005).
DEADLINE_NAME_RE = re.compile(
    r"(^|_)(deadline|deadlines|timeout|timeouts|expiry|expires|remaining)(_|$)"
)

#: Container methods that mutate their receiver in place.  A call to
#: one of these on shared state is a compound read-modify-write, never
#: atomic under the GIL's bytecode boundaries.
MUTATING_METHODS = frozenset(
    {
        "append", "extend", "insert", "pop", "remove", "clear", "add",
        "discard", "update", "setdefault", "popitem", "sort", "reverse",
        "appendleft", "popleft",
    }
)


def is_lock_expr(module: ModuleInfo, expr: ast.expr) -> bool:
    """Whether *expr* provably denotes a lock (constructor or lexicon)."""
    if isinstance(expr, ast.Call):
        return module.imports.resolve(expr.func) in LOCK_CONSTRUCTORS
    name = last_name(expr)
    return name is not None and bool(LOCK_NAME_RE.search(name))


def lock_key(expr: ast.expr) -> str:
    """Stable identity of a lock expression (``self._lock``, ``a_lock``)."""
    return ast.unparse(expr)


def _is_thread_pool(
    program: Program, module: ModuleInfo, fn: FunctionInfo | None, name: str
) -> bool:
    """Whether *name* is bound to a thread pool in the scope (a plain
    single-target assignment or a ``with ... as name``)."""
    return any(
        not b.unpacked
        and (b.kind == "with" or (b.kind == "assign" and len(b.node.targets) == 1))
        and isinstance(b.value, ast.Call)
        and module.imports.resolve(b.value.func) in _THREAD_POOL_CONSTRUCTORS
        for b in program.bindings(module, fn).get(name, ())
    )


class ConcurrencyModel(ContextModel):
    """Which concurrent contexts can execute each function.

    Entries are statically resolvable ``threading.Thread``/``Timer``
    targets, ``signal.signal`` handlers, and thread-pool submissions;
    reachability follows static call-graph edges only.
    """

    #: "main" is implicit: a function in neither context only runs in
    #: the main thread.
    CONTEXTS = ("thread", "signal")
    OUTSIDE = "main only"

    def entry_targets(
        self, module: ModuleInfo, fn: FunctionInfo | None, call: ast.Call
    ) -> Iterator[tuple[str, ast.expr]]:
        dotted = module.imports.resolve(call.func)
        if dotted in THREAD_CONSTRUCTORS:
            for kw in call.keywords:
                if kw.arg == "target" or (
                    dotted.endswith("Timer") and kw.arg == "function"
                ):
                    yield "thread", kw.value
                    return
            # Thread(group, target, ...) / Timer(interval, function, ...).
            if len(call.args) >= 2:
                yield "thread", call.args[1]
        elif dotted == "signal.signal":
            if len(call.args) >= 2:
                yield "signal", call.args[1]
                return
            for kw in call.keywords:
                if kw.arg == "handler":
                    yield "signal", kw.value
                    return
        elif (
            isinstance(call.func, ast.Attribute)
            and call.func.attr in _SUBMIT_METHODS
            and isinstance(call.func.value, ast.Name)
            and call.args
            and _is_thread_pool(self.program, module, fn, call.func.value.id)
        ):
            yield "thread", call.args[0]

    def signal_functions(self) -> list[FunctionInfo]:
        """Every indexed function reachable from a signal handler."""
        return [
            self.program.functions[q]
            for q in sorted(self._reachable["signal"])
            if q in self.program.functions
        ]

    def signal_regions(self) -> list[NestedRegion]:
        """Nested-def signal handlers (walked directly by CONC003)."""
        return [r for r in self.regions if r.context == "signal"]


@dataclass
class AttributeUse:
    """One access to ``self.<attr>`` inside a method."""

    attr: str
    method: FunctionInfo
    node: ast.AST
    #: "load", "store" (plain single-store), or a compound hazard:
    #: "augstore" (``+=``), "mutcall" (``.append(...)``), "substore"
    #: (``self.x[i] = ...``), "rmw" (``self.x = f(self.x)``).
    kind: str
    #: Lock keys of every ``with self.<lock>:`` enclosing the access.
    held_locks: tuple[str, ...] = ()

    @property
    def is_hazard(self) -> bool:
        """Compound (non-atomic) mutation; plain stores are GIL-atomic."""
        return self.kind in ("augstore", "mutcall", "substore", "rmw")


@dataclass
class ClassConcurrency:
    """Shared-state facts about one class for CONC002/ASYNC003."""

    cls: ClassInfo
    module: ModuleInfo
    uses: list[AttributeUse] = field(default_factory=list)
    #: attr -> canonical names of the constructors assigned to it.
    constructors: dict[str, set[str]] = field(default_factory=dict)

    def built_by(self, constructors: frozenset[str]) -> set[str]:
        """Attributes assigned from one of *constructors* (a lock, an
        Event, an asyncio primitive: objects with their own discipline)."""
        return {
            attr for attr, made in self.constructors.items() if made & constructors
        }


def _with_lock_keys(node: ast.AST) -> tuple[str, ...]:
    """Lock keys of every enclosing ``with`` whose item looks lock-like."""
    keys: list[str] = []
    current = getattr(node, "parent", None)
    while current is not None and not isinstance(
        current, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    ):
        if isinstance(current, (ast.With, ast.AsyncWith)):
            for item in current.items:
                expr = item.context_expr
                name = self_attr(expr)
                if name is not None and LOCK_NAME_RE.search(name):
                    keys.append(lock_key(expr))
                elif isinstance(expr, ast.Name) and LOCK_NAME_RE.search(expr.id):
                    keys.append(lock_key(expr))
        current = getattr(current, "parent", None)
    return tuple(keys)


def analyze_class(module: ModuleInfo, cls: ClassInfo) -> ClassConcurrency:
    """Collect every ``self.<attr>`` use and what each attribute is
    constructed from."""
    facts = ClassConcurrency(cls=cls, module=module)
    for method in cls.methods.values():
        for stmt in method.node.body:
            for node in ast.walk(stmt):
                _collect_use(module, facts, method, node)
    return facts


def _collect_use(
    module: ModuleInfo,
    facts: ClassConcurrency,
    method: FunctionInfo,
    node: ast.AST,
) -> None:
    if isinstance(node, ast.Assign):
        for target in node.targets:
            attr = self_attr(target)
            if attr is None:
                continue
            if isinstance(node.value, ast.Call):
                dotted = module.imports.resolve(node.value.func)
                if dotted is not None:
                    facts.constructors.setdefault(attr, set()).add(dotted)
            reads_self = any(
                self_attr(n) == attr for n in ast.walk(node.value)
            )
            facts.uses.append(
                AttributeUse(
                    attr=attr,
                    method=method,
                    node=target,
                    kind="rmw" if reads_self else "store",
                    held_locks=_with_lock_keys(node),
                )
            )
        return
    if isinstance(node, ast.AugAssign):
        attr = self_attr(node.target)
        if attr is not None:
            facts.uses.append(
                AttributeUse(
                    attr=attr,
                    method=method,
                    node=node.target,
                    kind="augstore",
                    held_locks=_with_lock_keys(node),
                )
            )
        return
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
        attr = self_attr(node.func.value)
        if attr is not None and node.func.attr in MUTATING_METHODS:
            facts.uses.append(
                AttributeUse(
                    attr=attr,
                    method=method,
                    node=node,
                    kind="mutcall",
                    held_locks=_with_lock_keys(node),
                )
            )
        return
    if isinstance(node, ast.Subscript) and isinstance(
        getattr(node, "ctx", None), (ast.Store, ast.Del)
    ):
        attr = self_attr(node.value)
        if attr is not None:
            facts.uses.append(
                AttributeUse(
                    attr=attr,
                    method=method,
                    node=node,
                    kind="substore",
                    held_locks=_with_lock_keys(node),
                )
            )
        return
    if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
        attr = self_attr(node)
        if attr is not None:
            facts.uses.append(
                AttributeUse(
                    attr=attr, method=method, node=node, kind="load"
                )
            )
