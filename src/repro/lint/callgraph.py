"""The analysis core shared by every whole-program rule and analyzer.

The per-file DET rules see one module at a time; the interprocedural
rules and the abstract interpreters built on them (``dataflow``,
``unitflow``, ``dtypeflow``, ``threadflow``, ``asyncflow``,
``perfflow``) need the same basic facts about the whole program.  Each
fact has exactly one implementation, here:

* :class:`Program` — every parsed module, its functions, classes, and
  import table, indexed so a dotted name (``repro.rng.RandomStream``)
  or a call expression can be resolved to its definition.  It also
  owns the **scope walk** (:meth:`Program.scopes`, one sorted order),
  the memoized per-scope **def-use map** (:meth:`Program.bindings`),
  and the **callable resolver** (:meth:`Program.resolve_callable`).
* :class:`CallGraph` — resolved call edges with a deterministic text
  rendering behind ``repro-cli lint --graph``.
* :func:`reachable` — the one closure over edge maps.
* :class:`ContextModel` — the skeleton of the concurrency and
  event-loop context models: entry points, nested-def regions,
  per-context reachability, ``contexts_of``.

Resolution is deliberately conservative and static:

* ``Name`` calls resolve through the module's import table or to a
  module-level definition.
* ``self.method()`` / ``cls.method()`` calls resolve within the
  enclosing class and its statically resolvable bases.
* Other attribute calls (``machine.run()``) resolve *dynamically*: the
  method name is matched against every class in the program that
  defines it.  Dynamic edges over-approximate — they are included for
  reachability questions (PURE001) and excluded from precision-
  sensitive checks (SEED001 call-site threading).

Anything that cannot be resolved is simply absent from the graph;
rules treat unresolved calls as unknown rather than guessing.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Iterable, Iterator, NamedTuple, Sequence


class ImportTable(ast.NodeVisitor):
    """Resolve local names to the canonical modules they denote.

    Handles ``import random``, ``import numpy as np``,
    ``from random import shuffle``, ``from numpy import random as nr``
    and the like, so rules can match calls by canonical dotted name
    (``numpy.random.seed``) regardless of aliasing.

    Defined here (the leaf of the lint package's import graph) and
    re-exported by :mod:`repro.lint.rules.base` — rule modules import
    this module, so it must not import the rules package back.
    """

    def __init__(self) -> None:
        self.aliases: dict[str, str] = {}  # local name -> canonical dotted

    def visit_Import(self, node: ast.Import) -> None:
        for alias in node.names:
            self.aliases[alias.asname or alias.name.split(".")[0]] = (
                alias.name if alias.asname else alias.name.split(".")[0]
            )
        self.generic_visit(node)

    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        if node.module and node.level == 0:
            for alias in node.names:
                self.aliases[alias.asname or alias.name] = (
                    f"{node.module}.{alias.name}"
                )
        self.generic_visit(node)

    def resolve(self, node: ast.AST) -> str | None:
        """Canonical dotted name of an expression, or ``None``.

        ``np.random.seed`` resolves to ``numpy.random.seed`` when
        ``np`` aliases ``numpy``; a bare ``shuffle`` resolves to
        ``random.shuffle`` when imported from :mod:`random`.
        """
        parts: list[str] = []
        while isinstance(node, ast.Attribute):
            parts.append(node.attr)
            node = node.value
        if not isinstance(node, ast.Name):
            return None
        root = self.aliases.get(node.id)
        if root is None:
            return None
        parts.append(root)
        return ".".join(reversed(parts))

    @classmethod
    def of(cls, tree: ast.AST) -> "ImportTable":
        """Build the import table of a parsed module."""
        table = cls()
        table.visit(tree)
        return table


#: Path components that anchor a module name.  ``.../src/repro/x.py``
#: becomes ``repro.x``; ``tests/test_x.py`` becomes ``tests.test_x``.
_ROOT_ANCHORS = ("src",)
_KEPT_ANCHORS = ("tests", "examples", "benchmarks")


def module_name(rel: str) -> str:
    """Derive a dotted module name from a posix path.

    The name only needs to be stable and to agree with how the tree
    imports itself (``repro.…``); files outside any recognized root
    fall back to their stem.
    """
    parts = [p for p in rel.strip("/").split("/") if p]
    stem = parts[-1][:-3] if parts[-1].endswith(".py") else parts[-1]
    dotted = parts[:-1] + ([] if stem == "__init__" else [stem])
    for anchor in _ROOT_ANCHORS:
        if anchor in dotted[:-1]:
            index = len(dotted) - 1 - dotted[::-1].index(anchor)
            tail = dotted[index + 1 :]
            if tail:
                return ".".join(tail)
    for anchor in _KEPT_ANCHORS:
        if anchor in dotted:
            index = len(dotted) - 1 - dotted[::-1].index(anchor)
            return ".".join(dotted[index:])
    return stem


def named_args(node: ast.FunctionDef | ast.AsyncFunctionDef) -> list[ast.arg]:
    """A def's named parameters (positional-only, regular, keyword-only)."""
    args = node.args
    return args.posonlyargs + args.args + args.kwonlyargs


def param_names(node: ast.FunctionDef | ast.AsyncFunctionDef) -> list[str]:
    """All declared parameter names of a def, in order."""
    args = node.args
    names = [a.arg for a in named_args(node)]
    if args.vararg is not None:
        names.append(args.vararg.arg)
    if args.kwarg is not None:
        names.append(args.kwarg.arg)
    return names


def self_attr(node: ast.AST) -> str | None:
    """``x`` when *node* is ``self.x``, else ``None``."""
    if (
        isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id == "self"
    ):
        return node.attr
    return None


@dataclass
class FunctionInfo:
    """One function or method definition."""

    qualname: str  # modname.func or modname.Class.method
    modname: str
    rel: str
    node: ast.FunctionDef | ast.AsyncFunctionDef
    class_name: str | None = None

    @property
    def name(self) -> str:
        return self.node.name

    @property
    def is_method(self) -> bool:
        return self.class_name is not None

    def params(self) -> list[str]:
        """All declared parameter names, in order (self/cls included)."""
        return param_names(self.node)

    def decorator_names(self) -> list[str]:
        """Trailing names of the decorators (``abstractmethod``, …)."""
        names = []
        for dec in self.node.decorator_list:
            name = last_name(dec.func if isinstance(dec, ast.Call) else dec)
            if name is not None:
                names.append(name)
        return names


@dataclass
class ClassInfo:
    """One class definition."""

    qualname: str
    modname: str
    rel: str
    node: ast.ClassDef
    methods: dict[str, FunctionInfo] = field(default_factory=dict)

    @property
    def name(self) -> str:
        return self.node.name

    def base_exprs(self) -> list[ast.expr]:
        return list(self.node.bases)

    def dataclass_decoration(self) -> ast.expr | None:
        """The ``@dataclass`` / ``@dataclass(...)`` decorator, if any."""
        for dec in self.node.decorator_list:
            target = dec.func if isinstance(dec, ast.Call) else dec
            if last_name(target) == "dataclass":
                return dec
        return None

    @property
    def is_dataclass(self) -> bool:
        return self.dataclass_decoration() is not None

    @property
    def is_frozen_dataclass(self) -> bool:
        dec = self.dataclass_decoration()
        if not isinstance(dec, ast.Call):
            return False
        return any(
            kw.arg == "frozen"
            and isinstance(kw.value, ast.Constant)
            and kw.value.value is True
            for kw in dec.keywords
        )


@dataclass
class ModuleInfo:
    """One parsed module and its top-level symbols."""

    rel: str
    modname: str
    tree: ast.Module
    lines: list[str]
    imports: ImportTable
    functions: dict[str, FunctionInfo] = field(default_factory=dict)
    classes: dict[str, ClassInfo] = field(default_factory=dict)
    module_level_names: set[str] = field(default_factory=set)

    def source_text(self, node: ast.AST) -> str:
        """Stripped source line a node sits on (empty when unknown)."""
        line = getattr(node, "lineno", 0)
        if 1 <= line <= len(self.lines):
            return self.lines[line - 1].strip()
        return ""

    @property
    def top_level(self) -> list[ast.stmt]:
        """The module scope's body: top-level statements minus defs."""
        return [
            stmt
            for stmt in self.tree.body
            if not isinstance(
                stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
            )
        ]


#: Pseudo-qualname suffix for module-level (top-level) code.
MODULE_SCOPE = "<module>"


class Scope(NamedTuple):
    """One analysis scope: a function or method body, or a module's
    top level (``fn is None``)."""

    module: ModuleInfo
    fn: FunctionInfo | None
    qualname: str
    body: list[ast.stmt]


class Binding(NamedTuple):
    """One name binding recorded by the def-use map."""

    #: The binding form: ``assign``, ``annassign``, ``augassign``,
    #: ``for``, ``with`` or ``comprehension``.
    kind: str
    #: The bound expression (``None`` for a bare annotation).
    value: ast.expr | None
    #: The binding statement, ``withitem`` or ``comprehension``.
    node: ast.AST
    #: Bound as one element of a tuple/list target.
    unpacked: bool


def collect_bindings(roots: Iterable[ast.AST]) -> dict[str, list[Binding]]:
    """The def-use map under *roots*: name -> bindings, in walk order.

    Flow-insensitive and nesting-blind: assignments inside nested defs
    and comprehensions bind into the enclosing scope's map, the
    over-approximation every analyzer accepts.  Analyzers pick the
    binding forms they trust with :func:`bound_values`.
    """
    bindings: dict[str, list[Binding]] = {}

    def record(kind, node, target, value, unpacked=False) -> None:
        if isinstance(target, ast.Name):
            bindings.setdefault(target.id, []).append(
                Binding(kind, value, node, unpacked)
            )
        elif isinstance(target, (ast.Tuple, ast.List)):
            for element in target.elts:
                record(kind, node, element, value, True)

    for root in roots:
        for node in ast.walk(root):
            if isinstance(node, ast.Assign):
                for target in node.targets:
                    record("assign", node, target, node.value)
            elif isinstance(node, ast.AnnAssign):
                record("annassign", node, node.target, node.value)
            elif isinstance(node, ast.AugAssign):
                record("augassign", node, node.target, node.value)
            elif isinstance(node, (ast.For, ast.AsyncFor)):
                record("for", node, node.target, node.iter)
            elif isinstance(node, ast.withitem) and node.optional_vars is not None:
                record("with", node, node.optional_vars, node.context_expr)
            elif isinstance(node, ast.comprehension):
                record("comprehension", node, node.target, node.iter)
    return bindings


def bound_values(
    bindings: dict[str, list[Binding]],
    kinds: frozenset[str] | None = None,
    unpacked: bool = True,
) -> dict[str, list[ast.expr]]:
    """name -> bound expressions, restricted to the binding *kinds*
    (all when ``None``) and, unless *unpacked*, to whole-target binds."""
    values: dict[str, list[ast.expr]] = {}
    for name, entries in bindings.items():
        exprs = [
            b.value
            for b in entries
            if b.value is not None
            and (kinds is None or b.kind in kinds)
            and (unpacked or not b.unpacked)
        ]
        if exprs:
            values[name] = exprs
    return values


def nested_defs(
    body: list[ast.stmt],
) -> dict[str, ast.FunctionDef | ast.AsyncFunctionDef]:
    """Name -> every ``def`` nested anywhere in *body*."""
    return {
        n.name: n
        for stmt in body
        for n in ast.walk(stmt)
        if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef))
    }


def last_name(expr: ast.expr) -> str | None:
    """Trailing identifier of an expression (``a.b.c`` -> ``c``)."""
    if isinstance(expr, ast.Attribute):
        return expr.attr
    if isinstance(expr, ast.Name):
        return expr.id
    return None


def reachable(
    roots: Iterable[str], *edge_maps: dict[str, set[str]]
) -> set[str]:
    """Qualnames reachable from *roots* along the union of *edge_maps*."""
    seen: set[str] = set()
    stack = list(roots)
    while stack:
        current = stack.pop()
        if current in seen:
            continue
        seen.add(current)
        for edges in edge_maps:
            stack.extend(edges.get(current, ()))
    return seen


#: Dotted spellings of ``functools.partial`` (unwrapped by the resolver).
_PARTIALS = frozenset({"functools.partial", "partial"})


class Program:
    """Symbol table over every module in one lint run."""

    def __init__(self) -> None:
        self.modules: dict[str, ModuleInfo] = {}  # rel -> module
        self.by_modname: dict[str, ModuleInfo] = {}
        self.functions: dict[str, FunctionInfo] = {}  # qualname ->
        self.classes: dict[str, ClassInfo] = {}
        self.methods_by_name: dict[str, list[FunctionInfo]] = {}
        self._scopes: list[Scope] | None = None
        self._bindings: dict[ast.AST, dict[str, list[Binding]]] = {}

    # -- construction --------------------------------------------------

    @classmethod
    def build(
        cls, parsed: Iterable[tuple[str, ast.Module, Sequence[str]]]
    ) -> "Program":
        """Index ``(rel, tree, lines)`` triples into a program."""
        program = cls()
        for rel, tree, lines in parsed:
            program._add_module(rel, tree, list(lines))
        return program

    def _add_module(self, rel: str, tree: ast.Module, lines: list[str]) -> None:
        module = ModuleInfo(
            rel=rel,
            modname=module_name(rel),
            tree=tree,
            lines=lines,
            imports=ImportTable.of(tree),
        )
        for stmt in tree.body:
            self._index_statement(module, stmt)
        self.modules[rel] = module
        # First module with a name wins; duplicates (same-stem fixture
        # files) stay addressable by rel.
        self.by_modname.setdefault(module.modname, module)

    def _index_statement(self, module: ModuleInfo, stmt: ast.stmt) -> None:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            info = FunctionInfo(
                qualname=f"{module.modname}.{stmt.name}",
                modname=module.modname,
                rel=module.rel,
                node=stmt,
            )
            module.functions[stmt.name] = info
            self.functions[info.qualname] = info
        elif isinstance(stmt, ast.ClassDef):
            cls_info = ClassInfo(
                qualname=f"{module.modname}.{stmt.name}",
                modname=module.modname,
                rel=module.rel,
                node=stmt,
            )
            for sub in stmt.body:
                if isinstance(sub, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    method = FunctionInfo(
                        qualname=f"{cls_info.qualname}.{sub.name}",
                        modname=module.modname,
                        rel=module.rel,
                        node=sub,
                        class_name=stmt.name,
                    )
                    cls_info.methods[sub.name] = method
                    self.functions[method.qualname] = method
                    self.methods_by_name.setdefault(sub.name, []).append(method)
            module.classes[stmt.name] = cls_info
            self.classes[cls_info.qualname] = cls_info
        elif isinstance(stmt, ast.Assign):
            for target in stmt.targets:
                if isinstance(target, ast.Name):
                    module.module_level_names.add(target.id)
        elif isinstance(stmt, ast.AnnAssign):
            if isinstance(stmt.target, ast.Name):
                module.module_level_names.add(stmt.target.id)
        elif isinstance(stmt, (ast.If, ast.Try)):
            # Conditional definitions (version guards, __main__ blocks).
            for sub in ast.iter_child_nodes(stmt):
                if isinstance(sub, ast.stmt):
                    self._index_statement(module, sub)

    # -- scopes and def-use -------------------------------------------

    def scopes(self) -> list[Scope]:
        """Every scope of every module, in the one sorted order.

        Modules by path; in each, the top level, then functions by
        name, then classes by name with their methods by name.  Nested
        defs are walked within their outermost enclosing scope.
        """
        if self._scopes is None:
            self._scopes = []
            for rel in sorted(self.modules):
                module = self.modules[rel]
                self._scopes.append(
                    Scope(
                        module,
                        None,
                        f"{module.modname}.{MODULE_SCOPE}",
                        module.top_level,
                    )
                )
                fns = [module.functions[name] for name in sorted(module.functions)]
                for class_name in sorted(module.classes):
                    methods = module.classes[class_name].methods
                    fns.extend(methods[name] for name in sorted(methods))
                self._scopes.extend(
                    Scope(module, fn, fn.qualname, list(fn.node.body))
                    for fn in fns
                )
        return self._scopes

    def modules_where(self, in_scope) -> Iterator[ModuleInfo]:
        """Modules whose path satisfies *in_scope*, sorted by path."""
        for rel in sorted(self.modules):
            if in_scope(rel):
                yield self.modules[rel]

    def bindings(
        self, module: ModuleInfo, fn: FunctionInfo | None
    ) -> dict[str, list[Binding]]:
        """The memoized def-use map of one scope (see
        :func:`collect_bindings`); a function's map covers its whole
        definition, the module's its top-level statements."""
        key = module.tree if fn is None else fn.node
        found = self._bindings.get(key)
        if found is None:
            roots = module.top_level if fn is None else [fn.node]
            found = self._bindings[key] = collect_bindings(roots)
        return found

    # -- resolution ----------------------------------------------------

    def resolve_dotted(self, dotted: str) -> FunctionInfo | ClassInfo | None:
        """Look a canonical dotted name up in the program."""
        hit = self.functions.get(dotted) or self.classes.get(dotted)
        if hit is not None:
            return hit
        # ``package.module.Class.method`` written as an attribute chain.
        if "." in dotted:
            head, _, tail = dotted.rpartition(".")
            owner = self.classes.get(head)
            if owner is not None:
                return owner.methods.get(tail)
        return None

    def class_mro(self, cls_info: ClassInfo) -> Iterator[ClassInfo]:
        """The class and its statically resolvable ancestors."""
        seen: set[str] = set()
        stack = [cls_info]
        while stack:
            current = stack.pop(0)
            if current.qualname in seen:
                continue
            seen.add(current.qualname)
            yield current
            module = self.modules.get(current.rel)
            if module is None:
                continue
            for base in current.base_exprs():
                resolved = self.class_of(module, base)
                if resolved is not None:
                    stack.append(resolved)

    def class_of(self, module: ModuleInfo, expr: ast.expr) -> ClassInfo | None:
        """The program class a (possibly dotted) name denotes in *module*."""
        if isinstance(expr, ast.Name) and expr.id in module.classes:
            return module.classes[expr.id]
        dotted = module.imports.resolve(expr)
        hit = self.resolve_dotted(dotted) if dotted is not None else None
        return hit if isinstance(hit, ClassInfo) else None

    def resolve_method(self, cls_info: ClassInfo, name: str) -> FunctionInfo | None:
        """Find *name* on a class or its resolvable ancestors."""
        for klass in self.class_mro(cls_info):
            method = klass.methods.get(name)
            if method is not None:
                return method
        return None

    def resolve_call(
        self,
        module: ModuleInfo,
        caller: FunctionInfo | None,
        call: ast.Call,
    ) -> tuple[list[FunctionInfo], bool]:
        """Targets of one call: ``(functions, dynamic)``.

        ``dynamic`` is True when the only evidence is a method-name
        match across the program (attribute call on a value of unknown
        type).  Class instantiations resolve to ``__init__``.
        """
        func = call.func
        # 1. A plain or dotted name resolvable through imports.
        dotted = module.imports.resolve(func)
        if dotted is not None:
            hit = self.resolve_dotted(dotted)
            if isinstance(hit, FunctionInfo):
                return [hit], False
            if isinstance(hit, ClassInfo):
                init = self.resolve_method(hit, "__init__")
                return ([init] if init is not None else []), False
        # 2. A module-local name.
        if isinstance(func, ast.Name):
            local_fn = module.functions.get(func.id)
            if local_fn is not None:
                return [local_fn], False
            local_cls = module.classes.get(func.id)
            if local_cls is not None:
                init = self.resolve_method(local_cls, "__init__")
                return ([init] if init is not None else []), False
            return [], False
        # 3. self.method() / cls.method() within a class body.
        if isinstance(func, ast.Attribute):
            base = func.value
            if (
                isinstance(base, ast.Name)
                and base.id in ("self", "cls")
                and caller is not None
                and caller.class_name is not None
            ):
                owner = module.classes.get(caller.class_name)
                if owner is not None:
                    method = self.resolve_method(owner, func.attr)
                    if method is not None:
                        return [method], False
            # 4. Dynamic: any class in the program defining this method.
            matches = self.methods_by_name.get(func.attr, [])
            return list(matches), True
        return [], False

    def local_instance_class(
        self, module: ModuleInfo, fn: FunctionInfo | None, name: str
    ) -> ClassInfo | None:
        """Class of a local of *fn* bound exactly once, to a construction."""
        if fn is None:
            return None
        values = [
            b.value
            for b in self.bindings(module, fn).get(name, ())
            if b.value is not None
        ]
        if len(values) == 1 and isinstance(values[0], ast.Call):
            return self.class_of(module, values[0].func)
        return None

    def receiver_method(
        self,
        module: ModuleInfo,
        fn: FunctionInfo | None,
        expr: ast.Attribute,
        attr_class,
    ) -> FunctionInfo | None:
        """The method ``receiver.name`` denotes, when the receiver's
        class is provable: ``self``/``cls`` inside a method, a local
        holding a single construction, or — through the caller's
        *attr_class(fn, receiver)* evidence — a typed attribute chain."""
        base = expr.value
        owner = None
        if isinstance(base, ast.Name):
            if (
                base.id in ("self", "cls")
                and fn is not None
                and fn.class_name is not None
            ):
                owner = module.classes.get(fn.class_name)
            else:
                owner = self.local_instance_class(module, fn, base.id)
        if owner is None:
            owner = attr_class(fn, base)
        return self.resolve_method(owner, expr.attr) if owner else None

    def resolve_callable(
        self,
        module: ModuleInfo,
        fn: FunctionInfo | None,
        expr: ast.expr,
        nested: dict[str, ast.FunctionDef | ast.AsyncFunctionDef],
        attr_class,
        call_targets,
    ) -> tuple[list[FunctionInfo], ast.FunctionDef | ast.AsyncFunctionDef | None]:
        """Resolve a callable expression to ``(functions, nested_def)``.

        ``functools.partial(f, ...)`` unwraps to ``f``; a name bound by
        a def nested in the scope (*nested*) comes back as the second
        element, since the symbol table does not index it; names
        resolve through imports and module-level defs; attributes
        through imports or :meth:`receiver_method` (with the caller's
        *attr_class* evidence).  A call expression (a coroutine handed
        to the loop) resolves through the caller's
        *call_targets(module, fn, call)*.  Anything else is unknown and
        resolves to nothing.
        """
        if isinstance(expr, ast.Call):
            if module.imports.resolve(expr.func) in _PARTIALS and expr.args:
                return self.resolve_callable(
                    module, fn, expr.args[0], nested, attr_class, call_targets
                )
            return call_targets(module, fn, expr), None
        if isinstance(expr, ast.Name):
            if expr.id in nested:
                return [], nested[expr.id]
            dotted = module.imports.resolve(expr)
            if dotted is not None:
                hit = self.resolve_dotted(dotted)
                if isinstance(hit, FunctionInfo):
                    return [hit], None
            local = module.functions.get(expr.id)
            return ([local] if local is not None else []), None
        if isinstance(expr, ast.Attribute):
            dotted = module.imports.resolve(expr)
            if dotted is not None:
                hit = self.resolve_dotted(dotted)
                return ([hit] if isinstance(hit, FunctionInfo) else []), None
            method = self.receiver_method(module, fn, expr, attr_class)
            return ([method] if method is not None else []), None
        return [], None


class CallGraph:
    """Resolved call edges over a :class:`Program`."""

    def __init__(self, program: Program) -> None:
        self.program = program
        self.edges: dict[str, set[str]] = {}
        self.dynamic_edges: dict[str, set[str]] = {}
        for module, fn, qualname, body in program.scopes():
            for stmt in body:
                for call in ast.walk(stmt):
                    if not isinstance(call, ast.Call):
                        continue
                    targets, dynamic = program.resolve_call(module, fn, call)
                    bucket = self.dynamic_edges if dynamic else self.edges
                    for target in targets:
                        bucket.setdefault(qualname, set()).add(target.qualname)

    def reachable(
        self, roots: Iterable[str], include_dynamic: bool = True
    ) -> set[str]:
        """Qualnames reachable from *roots* along resolved edges."""
        if include_dynamic:
            return reachable(roots, self.edges, self.dynamic_edges)
        return reachable(roots, self.edges)

    def render(self) -> str:
        """Deterministic text dump (``repro-cli lint --graph``)."""
        lines = []
        static_pairs = sorted(
            (caller, callee)
            for caller, callees in self.edges.items()
            for callee in callees
        )
        dynamic_pairs = sorted(
            (caller, callee)
            for caller, callees in self.dynamic_edges.items()
            for callee in callees
        )
        for caller, callee in static_pairs:
            lines.append(f"{caller} -> {callee}")
        for caller, callee in dynamic_pairs:
            lines.append(f"{caller} ~> {callee}  [dynamic]")
        lines.append(
            f"# {len(self.program.modules)} modules, "
            f"{len(self.program.functions)} functions, "
            f"{len(static_pairs)} static edges, "
            f"{len(dynamic_pairs)} dynamic edges"
        )
        return "\n".join(lines)


@dataclass(frozen=True)
class EntryPoint:
    """One resolved context entry: context plus where it was bound."""

    context: str
    qualname: str  # the resolved target function
    rel: str
    line: int


@dataclass
class NestedRegion:
    """A nested ``def`` handed to a context (thread target, handler).

    The symbol table does not index nested functions, so the region
    keeps the defining module/function and the AST node; rules walk the
    body directly and reachability seeds from its resolvable calls.
    """

    context: str
    module: ModuleInfo
    enclosing: FunctionInfo | None
    node: ast.FunctionDef | ast.AsyncFunctionDef


class ContextModel:
    """Which execution contexts can run each function, program-wide.

    The skeleton the concurrency and event-loop models share: every
    call that :meth:`entry_targets` classifies as handing a callable to
    a context is resolved with :meth:`Program.resolve_callable` (nested
    defs become :class:`NestedRegion` s), and each context's roots are
    closed over :meth:`edge_maps`.  ``contexts_of`` answers with a
    subset of ``CONTEXTS``; the empty set means no context reaches the
    function, as far as the analysis can prove.  Subclasses differ only
    in the entry classifier and in the evidence their call resolution
    accepts.
    """

    #: The contexts the model distinguishes.
    CONTEXTS: tuple[str, ...] = ()
    #: How :meth:`describe` names the empty context set.
    OUTSIDE = ""

    def __init__(self, program: Program, callgraph: CallGraph) -> None:
        self.program = program
        self.callgraph = callgraph
        self.entries: list[EntryPoint] = []
        self.regions: list[NestedRegion] = []
        for module, fn, _qualname, body in program.scopes():
            nested = None
            for stmt in body:
                for call in ast.walk(stmt):
                    if not isinstance(call, ast.Call):
                        continue
                    for context, target in self.entry_targets(module, fn, call):
                        if nested is None:
                            nested = nested_defs(body)
                        fns, nested_def = program.resolve_callable(
                            module, fn, target, nested, self.attr_class,
                            self.entry_call,
                        )
                        self.entries.extend(
                            EntryPoint(
                                context, f.qualname, module.rel, call.lineno
                            )
                            for f in fns
                        )
                        if nested_def is not None:
                            self.regions.append(
                                NestedRegion(context, module, fn, nested_def)
                            )
        self._reachable = {
            context: reachable(self._roots(context), *self.edge_maps())
            for context in self.CONTEXTS
        }

    def _roots(self, context: str) -> set[str]:
        """Entry qualnames plus the resolvable calls of nested regions."""
        roots = {e.qualname for e in self.entries if e.context == context}
        for region in self.regions:
            if region.context != context:
                continue
            for stmt in region.node.body:
                for node in ast.walk(stmt):
                    if isinstance(node, ast.Call):
                        roots.update(
                            t.qualname
                            for t in self.call_targets(
                                region.module, region.enclosing, node
                            )
                        )
        return roots

    # -- subclass hooks ------------------------------------------------

    def entry_targets(
        self, module: ModuleInfo, fn: FunctionInfo | None, call: ast.Call
    ) -> Iterator[tuple[str, ast.expr]]:
        """``(context, callable_expr)`` pairs *call* hands to a context."""
        raise NotImplementedError

    def call_targets(
        self, module: ModuleInfo, fn: FunctionInfo | None, call: ast.Call
    ) -> list[FunctionInfo]:
        """Targets of one call; dynamic (name-match) edges excluded."""
        targets, dynamic = self.program.resolve_call(module, fn, call)
        return [] if dynamic else targets

    def edge_maps(self) -> tuple[dict[str, set[str]], ...]:
        """The edges context reachability closes over."""
        return (self.callgraph.edges,)

    def attr_class(
        self, fn: FunctionInfo | None, expr: ast.expr
    ) -> ClassInfo | None:
        """Class of a receiver expression from model-specific evidence."""
        return None

    def entry_call(
        self, module: ModuleInfo, fn: FunctionInfo | None, call: ast.Call
    ) -> list[FunctionInfo]:
        """Functions an entry given as a *call* (a coroutine) runs."""
        return []

    # -- queries -------------------------------------------------------

    def contexts_of(self, qualname: str) -> frozenset[str]:
        """Contexts that can execute *qualname* (∅: none reaches it)."""
        return frozenset(
            context
            for context in self.CONTEXTS
            if qualname in self._reachable[context]
        )

    def describe(self, contexts: frozenset[str]) -> str:
        """``{loop, executor}``-style rendering for finding messages."""
        return "{" + (", ".join(sorted(contexts)) or self.OUTSIDE) + "}"
