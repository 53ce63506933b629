"""Event-loop context reachability for the ASYNC001–ASYNC004 rules.

PR 10 gives the campaign engine an asyncio serving layer
(:mod:`repro.serve`): coroutines own the event loop, blocking
measurement work is offloaded to a thread-pool executor, and the two
worlds exchange results through futures.  The contracts that keep that
split correct — no blocking call on the loop, no dropped coroutine,
no unguarded state shared across the boundary, bounded queues — are
all *reachability* properties, so this module extends the PR-4 call
graph with an event-loop context model, the async sibling of
:mod:`repro.lint.threadflow`:

* :class:`AsyncFlowModel` — the shared
  :class:`~repro.lint.callgraph.ContextModel` skeleton with an asyncio
  entry classifier — labels every indexed function with the contexts
  that can execute it: ``"loop"`` (reachable from
  ``asyncio.run(...)``, task creation, ``start_server`` callbacks, or
  ``call_soon_threadsafe`` handoffs — all of which execute on the
  event-loop thread) and ``"executor"`` (reachable from a callable
  handed to ``loop.run_in_executor(...)`` or ``asyncio.to_thread``).
  The empty set means "never touched by async machinery, as far as
  the analysis can prove".
* The model also computes, per function, whether calling it *blocks
  the calling thread* (``time.sleep``, builtin ``open``, socket and
  subprocess calls, ``Future.result``, ``Lock.acquire``, or any
  transitively-blocking **sync** callee — an async callee blocks its
  own coroutine, which ASYNC001 flags at that site instead).

Precision rules, inherited from the rest of the lint subsystem:

* **UNKNOWN never flags.**  Unresolvable callables contribute no
  context and no blocking evidence.  Dynamic (method-name-match) call
  edges are excluded from reachability: an over-approximated context
  would manufacture false cross-context findings.
* To make ``self.<attr>.method()`` chains resolvable *without* dynamic
  edges, the model infers attribute types per class from ``__init__``
  evidence: ``self.x = Cls(...)``, ``self.x = param`` where the
  parameter is annotated with a program class, and the
  ``None if … else Cls(...)`` optional-dependency idiom.  The typed
  edges this produces are static facts (single assignment site), not
  name matches.
* Deferred bodies — nested ``def``s and ``lambda``s — are *excluded*
  from the blocking analysis (their calls do not execute when the
  enclosing function runs) but their resolvable calls do seed context
  reachability, mirroring how the call graph attributes them.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass
from typing import Iterator

from repro.lint.callgraph import (
    CallGraph,
    ClassInfo,
    ContextModel,
    FunctionInfo,
    ModuleInfo,
    Program,
    last_name,
    named_args,
    self_attr,
)
from repro.lint.threadflow import LOCK_NAME_RE

#: Calls whose first argument is a coroutine (or coroutine call) that
#: the event loop will execute.
_LOOP_FUNCTIONS = frozenset(
    {
        "asyncio.run",
        "asyncio.create_task",
        "asyncio.ensure_future",
        "asyncio.wait_for",
        "asyncio.shield",
    }
)

#: ``asyncio.gather(coro_a(), coro_b())`` — every argument runs on the loop.
_GATHER_FUNCTIONS = frozenset({"asyncio.gather"})

#: Server factories whose first argument is a per-connection callback
#: executed on the loop.
_SERVER_FUNCTIONS = frozenset({"asyncio.start_server", "asyncio.start_unix_server"})

#: ``asyncio.to_thread(fn, ...)`` — fn runs in an executor thread.
_TO_THREAD_FUNCTIONS = frozenset({"asyncio.to_thread"})

#: Method names that hand a callable to the loop from any thread; the
#: callable itself executes on the event-loop thread, which is exactly
#: why ASYNC003 treats this as the sanctioned cross-context handoff.
_LOOP_CALLBACK_METHODS = frozenset({"call_soon", "call_soon_threadsafe", "call_later"})

#: Method names that schedule a coroutine on the loop.  ``create_task``
#: and ``ensure_future`` are asyncio vocabulary regardless of receiver
#: (``loop.create_task``, ``tg.create_task``).
_TASK_METHODS = frozenset({"create_task", "ensure_future"})

#: ``loop.run_in_executor(executor, fn, *args)`` — fn (arg index 1)
#: runs in an executor thread.
_EXECUTOR_METHOD = "run_in_executor"

#: Constructors of asyncio synchronization/queue primitives.  These are
#: loop-confined objects with their own discipline; attributes holding
#: them are exempt from ASYNC003 (they *are* the sanctioned handoff).
ASYNC_PRIMITIVE_CONSTRUCTORS = frozenset(
    {
        "asyncio.Lock",
        "asyncio.Event",
        "asyncio.Condition",
        "asyncio.Semaphore",
        "asyncio.BoundedSemaphore",
        "asyncio.Queue",
        "asyncio.LifoQueue",
        "asyncio.PriorityQueue",
    }
)

#: Canonical dotted names whose call blocks the calling thread.
BLOCKING_CALLS = frozenset(
    {
        "time.sleep",
        "socket.create_connection",
        "socket.getaddrinfo",
        "socket.gethostbyname",
        "subprocess.run",
        "subprocess.call",
        "subprocess.check_call",
        "subprocess.check_output",
        "os.system",
        "os.waitpid",
        "urllib.request.urlopen",
        "shutil.copytree",
        "shutil.rmtree",
    }
)

#: Builtins whose call blocks on I/O.  Resolved by bare name, guarded
#: against local shadowing by the module symbol table.
BLOCKING_BUILTINS = frozenset({"open", "input"})

#: Receiver-name lexicon for ``.result()`` — concurrent futures block.
FUTURE_NAME_RE = re.compile(r"(^|_)(future|fut)s?$")

#: Receiver-name lexicon for ``.get()``/``.put()``/``.join()`` on
#: thread-side queues (``queue.Queue``); the no-argument forms block.
QUEUE_NAME_RE = re.compile(r"(^|_)(queue|q)$")


@dataclass(frozen=True)
class BlockingReason:
    """Why calling a function blocks the calling thread."""

    #: Human description of the root blocking site ("time.sleep").
    what: str
    #: ``rel:line`` of the root blocking call.
    where: str
    #: Qualname chain from the function to the root site ([] = direct).
    via: tuple[str, ...] = ()

    def render(self) -> str:
        if not self.via:
            return f"{self.what} ({self.where})"
        chain = " -> ".join(self.via)
        return f"{self.what} ({self.where}) via {chain}"


def is_awaited(call: ast.Call) -> bool:
    """Whether *call* is the direct operand of an ``await``."""
    return isinstance(getattr(call, "parent", None), ast.Await)


def blocking_call_reason(module: ModuleInfo, call: ast.Call) -> str | None:
    """Lexicon verdict: what a call blocks on, or None.

    Awaited calls never block the thread — the await *is* the yield
    point — so callers should filter with :func:`is_awaited` first.
    """
    dotted = module.imports.resolve(call.func)
    if dotted in BLOCKING_CALLS:
        return dotted
    func = call.func
    if isinstance(func, ast.Name):
        if (
            func.id in BLOCKING_BUILTINS
            and func.id not in module.functions
            and func.id not in module.imports.aliases
            and func.id not in module.module_level_names
        ):
            return f"builtin {func.id}()"
        return None
    if isinstance(func, ast.Attribute):
        name = last_name(func.value)
        if name is None:
            return None
        if func.attr == "acquire" and LOCK_NAME_RE.search(name):
            return f"{name}.acquire()"
        if func.attr == "result" and FUTURE_NAME_RE.search(name):
            return f"{name}.result()"
        if QUEUE_NAME_RE.search(name):
            # dict.get(key) takes arguments; queue.Queue.get() blocks
            # with none.  put()/join() have no dict homonym.
            if func.attr == "get" and not call.args and not call.keywords:
                return f"{name}.get()"
            if func.attr in ("put", "join"):
                return f"{name}.{func.attr}()"
    return None


def direct_calls(body: list[ast.stmt]) -> Iterator[ast.Call]:
    """Calls that execute when this body runs: deferred bodies skipped.

    Nested ``def``s and ``lambda``s are closures — creating one is not
    calling it — so their internal calls are excluded.  This is the
    precision counterpart of the call graph's over-approximation
    (which attributes nested calls to the enclosing function).
    """
    stack: list[ast.AST] = list(body)
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        if isinstance(node, ast.Call):
            yield node
        stack.extend(ast.iter_child_nodes(node))


class AsyncFlowModel(ContextModel):
    """Which async contexts can execute each function, program-wide."""

    #: "main" is implicit: a function in neither context never runs
    #: under the loop.
    CONTEXTS = ("loop", "executor")
    OUTSIDE = "outside async"

    def __init__(self, program: Program, callgraph: CallGraph) -> None:
        self.program = program
        #: (class qualname, attr) -> ClassInfo, from __init__ evidence.
        self.attr_types = self._infer_attr_types()
        #: qualname -> {callee qualname} resolved through typed attrs.
        self.typed_edges: dict[str, set[str]] = {}
        #: (scope qualname) -> [(call node, [targets])] — executing
        #: (non-deferred) calls only, statically + typed resolved.
        self.resolved_calls: dict[str, list[tuple[ast.Call, list[FunctionInfo]]]] = {}
        for module, fn, qualname, body in program.scopes():
            # Deferred bodies (nested defs, lambdas) still seed
            # reachability — the closure is invoked downstream in the
            # same logical task — just not the blocking analysis.
            targets_of: dict[int, list[FunctionInfo]] = {}
            for stmt in body:
                for call in ast.walk(stmt):
                    if isinstance(call, ast.Call):
                        targets = self.call_targets(module, fn, call)
                        targets_of[id(call)] = targets
                        for target in targets:
                            self.typed_edges.setdefault(qualname, set()).add(
                                target.qualname
                            )
            self.resolved_calls[qualname] = [
                (call, targets_of[id(call)]) for call in direct_calls(body)
            ]
        super().__init__(program, callgraph)
        self.blocking: dict[str, BlockingReason] = self._compute_blocking()

    # -- typed attribute resolution ------------------------------------

    def _infer_attr_types(self) -> dict[tuple[str, str], ClassInfo]:
        """``self.<attr>`` types provable from a class's ``__init__``.

        Evidence accepted: ``self.x = Cls(...)`` where ``Cls`` is a
        program class; ``self.x = param`` where the parameter is
        annotated with a program class; and the optional-dependency
        idiom ``self.x = None if cond else Cls(...)`` (either arm).
        A second, conflicting assignment to the same attribute voids
        the inference — UNKNOWN never flags.
        """
        types: dict[tuple[str, str], ClassInfo] = {}
        conflicted: set[tuple[str, str]] = set()
        for qualname in sorted(self.program.classes):
            cls = self.program.classes[qualname]
            module = self.program.modules.get(cls.rel)
            init = cls.methods.get("__init__")
            if module is None or init is None:
                continue
            params = self._annotated_params(module, init)
            for node in ast.walk(init.node):
                if not isinstance(node, ast.Assign) or len(node.targets) != 1:
                    continue
                attr = self_attr(node.targets[0])
                if attr is None:
                    continue
                key = (qualname, attr)
                inferred = self._value_class(module, params, node.value)
                if inferred is None:
                    conflicted.add(key)
                elif key in types and types[key] is not inferred:
                    conflicted.add(key)
                else:
                    types[key] = inferred
        for key in conflicted:
            types.pop(key, None)
        return types

    def _annotated_params(
        self, module: ModuleInfo, fn: FunctionInfo
    ) -> dict[str, ClassInfo]:
        """Parameters of *fn* annotated with a program class."""
        out: dict[str, ClassInfo] = {}
        for arg in named_args(fn.node):
            if arg.annotation is None:
                continue
            cls = self._class_of_annotation(module, arg.annotation)
            if cls is not None:
                out[arg.arg] = cls
        return out

    def _class_of_annotation(
        self, module: ModuleInfo, annotation: ast.expr
    ) -> ClassInfo | None:
        if isinstance(annotation, ast.Constant) and isinstance(
            annotation.value, str
        ):
            try:
                annotation = ast.parse(annotation.value, mode="eval").body
            except SyntaxError:
                return None
        # Optional[X] / X | None: the object, when present, is an X.
        if isinstance(annotation, ast.BinOp) and isinstance(
            annotation.op, ast.BitOr
        ):
            for side in (annotation.left, annotation.right):
                cls = self._class_of_annotation(module, side)
                if cls is not None:
                    return cls
            return None
        return self.program.class_of(module, annotation)

    def _value_class(
        self,
        module: ModuleInfo,
        params: dict[str, ClassInfo],
        value: ast.expr,
    ) -> ClassInfo | None:
        if isinstance(value, ast.Call):
            return self.program.class_of(module, value.func)
        if isinstance(value, ast.Name):
            return params.get(value.id)
        if isinstance(value, ast.IfExp):
            arms = [
                self._value_class(module, params, arm)
                for arm in (value.body, value.orelse)
                if not (isinstance(arm, ast.Constant) and arm.value is None)
            ]
            arms = [a for a in arms if a is not None]
            if len(arms) == 1:
                return arms[0]
        return None

    def attr_class(
        self, scope_fn: FunctionInfo | None, expr: ast.expr
    ) -> ClassInfo | None:
        """Static type of ``self.a.b.c`` through the inferred attr map."""
        chain: list[str] = []
        node = expr
        while isinstance(node, ast.Attribute):
            chain.append(node.attr)
            node = node.value
        if not (
            isinstance(node, ast.Name)
            and node.id == "self"
            and scope_fn is not None
            and scope_fn.class_name is not None
        ):
            return None
        module = self.program.modules.get(scope_fn.rel)
        if module is None:
            return None
        owner = module.classes.get(scope_fn.class_name)
        if owner is None:
            return None
        current = owner
        for attr in reversed(chain):
            nxt = self.attr_types.get((current.qualname, attr))
            if nxt is None:
                return None
            current = nxt
        return current

    # -- context-model hooks -------------------------------------------

    def call_targets(
        self, module: ModuleInfo, fn: FunctionInfo | None, call: ast.Call
    ) -> list[FunctionInfo]:
        """Static targets of one call; a provable receiver class (typed
        attribute chain, single-construction local) as fallback."""
        targets, dynamic = self.program.resolve_call(module, fn, call)
        if targets and not dynamic:
            return targets
        if isinstance(call.func, ast.Attribute):
            method = self.program.receiver_method(
                module, fn, call.func, self.attr_class
            )
            if method is not None:
                return [method]
        return []

    #: ``asyncio.run(main())`` passes a coroutine *call*: its targets run.
    entry_call = call_targets

    def edge_maps(self) -> tuple[dict[str, set[str]], ...]:
        """Static call-graph edges plus the typed edges."""
        return (self.callgraph.edges, self.typed_edges)

    def entry_targets(
        self, module: ModuleInfo, fn: FunctionInfo | None, call: ast.Call
    ) -> Iterator[tuple[str, ast.expr]]:
        """``(context, callable_expr)`` pairs a call hands to asyncio."""
        dotted = module.imports.resolve(call.func)
        if dotted in _LOOP_FUNCTIONS and call.args:
            yield "loop", call.args[0]
            return
        if dotted in _GATHER_FUNCTIONS:
            for arg in call.args:
                if not isinstance(arg, ast.Starred):
                    yield "loop", arg
            return
        if dotted in _SERVER_FUNCTIONS and call.args:
            yield "loop", call.args[0]
            return
        if dotted in _TO_THREAD_FUNCTIONS and call.args:
            yield "executor", call.args[0]
            return
        func = call.func
        if isinstance(func, ast.Attribute):
            if func.attr == _EXECUTOR_METHOD and len(call.args) >= 2:
                yield "executor", call.args[1]
            elif func.attr in _TASK_METHODS and call.args:
                yield "loop", call.args[0]
            elif func.attr in _LOOP_CALLBACK_METHODS and call.args:
                # call_later(delay, cb) — the callable is the second
                # argument; call_soon*(cb, ...) — the first.
                index = 1 if func.attr == "call_later" else 0
                if len(call.args) > index:
                    yield "loop", call.args[index]

    def is_coroutine(self, qualname: str) -> bool:
        fn = self.program.functions.get(qualname)
        return fn is not None and isinstance(fn.node, ast.AsyncFunctionDef)

    # -- blocking analysis ---------------------------------------------

    def _compute_blocking(self) -> dict[str, BlockingReason]:
        """Fixpoint: which functions block the thread that calls them.

        Seeds are direct lexicon hits in *sync* functions; blocking
        propagates backwards along sync-to-sync call edges only.
        Coroutines never mark their callers — awaiting one yields
        rather than blocks, and a blocking call *inside* a coroutine
        is ASYNC001's finding at that site.
        """
        blocking: dict[str, BlockingReason] = {}
        for qualname, fn in self.program.functions.items():
            if isinstance(fn.node, ast.AsyncFunctionDef):
                continue
            module = self.program.modules.get(fn.rel)
            if module is None:
                continue
            for call, _targets in self.resolved_calls[qualname]:
                what = blocking_call_reason(module, call)
                if what is not None:
                    blocking[qualname] = BlockingReason(
                        what=what,
                        where=f"{fn.rel}:{getattr(call, 'lineno', 0)}",
                    )
                    break
        changed = True
        while changed:
            changed = False
            for qualname, resolved in self.resolved_calls.items():
                fn = self.program.functions.get(qualname)
                if fn is None or isinstance(fn.node, ast.AsyncFunctionDef):
                    continue
                if qualname in blocking:
                    continue
                for call, targets in resolved:
                    if is_awaited(call):
                        continue
                    for target in targets:
                        reason = blocking.get(target.qualname)
                        if reason is None or self.is_coroutine(target.qualname):
                            continue
                        blocking[qualname] = BlockingReason(
                            what=reason.what,
                            where=reason.where,
                            via=(target.qualname,) + reason.via,
                        )
                        changed = True
                        break
                    if qualname in blocking:
                        break
        return blocking

    def blocking_reason_of(self, qualname: str) -> BlockingReason | None:
        """Why calling *qualname* blocks, or None if it provably may not."""
        return self.blocking.get(qualname)
