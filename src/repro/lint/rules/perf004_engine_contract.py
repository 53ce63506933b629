"""PERF004 — engine-contract drift on a simulating structure.

Every structure that defines ``simulate`` (or ``simulate_mask``) owns
a piece of the two-engine contract: expose an
``engine="scalar"|"vector"`` knob, default to the vector engine, and
keep a scalar oracle path so the differential suite can compare the
engines bit-for-bit.  A structure that grows a ``simulate`` without
the knob is invisible to that suite — its one implementation is both
the product and its own oracle, which is how the pre-PR 6 divergences
shipped.

Three drift shapes flag, each provable from the signature and body:

* no ``engine`` parameter at all (a ``**kwargs`` signature is UNKNOWN
  and never flags, per the house contract);
* an ``engine`` parameter whose default is not ``"vector"`` — the
  fast engine must be what callers get without asking;
* an ``engine`` parameter the body never consults: no
  ``engine ==/!= "scalar"|"vector"`` guard, no ``require_engine``
  validation, and no forwarding of the knob to a callee — a knob
  wired to nothing.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.lint.callgraph import FunctionInfo, ModuleInfo, named_args
from repro.lint.perfflow import engine_guard
from repro.lint.rules.base import (
    Finding,
    ProgramContext,
    ProgramRule,
    register,
)
from repro.lint.rules.perf001_hot_loop import in_scope

_SIMULATE_NAMES = ("simulate", "simulate_mask")


@register
class EngineContractRule(ProgramRule):
    """simulate() must expose engine="vector" and keep a scalar oracle."""

    id = "PERF004"
    title = "simulate() drifts from the two-engine contract"
    severity = "error"
    tier = "perf"
    rationale = (
        "a structure whose simulate() lacks the engine knob, defaults "
        "to the scalar engine, or ignores the knob entirely cannot be "
        "differentially tested against a scalar oracle — the property "
        "that catches vector-kernel divergences before they ship"
    )
    hint = (
        'declare simulate(..., engine: str = "vector"), validate via '
        "vector.require_engine(engine), and either branch on "
        'engine == "scalar" to a per-event oracle or forward the knob '
        "to the structures that do"
    )

    def check_program(self, ctx: ProgramContext) -> Iterator[Finding]:
        for module, fn, _qualname, _body in ctx.program.scopes():
            if (
                fn is not None
                and fn.name in _SIMULATE_NAMES
                and fn.class_name is not None
                and in_scope(module.rel)
            ):
                yield from self._check_method(module, fn)

    def _check_method(
        self, module: ModuleInfo, method: FunctionInfo
    ) -> Iterator[Finding]:
        node = method.node
        what = f"{method.class_name}.{node.name}"
        args = node.args
        if not any(a.arg == "engine" for a in named_args(node)):
            if args.kwarg is not None or args.vararg is not None:
                return  # the knob may arrive through **kwargs: UNKNOWN
            yield self.finding_at(
                module.rel,
                node,
                f"{what} has no engine knob — the structure cannot be "
                "differentially tested against a scalar oracle",
                source_line=module.source_text(node),
            )
            return
        default = _engine_default(args)
        if default is _MISSING or not (
            isinstance(default, ast.Constant) and default.value == "vector"
        ):
            rendered = (
                "no default"
                if default is _MISSING
                else f"default {ast.unparse(default)}"
            )
            yield self.finding_at(
                module.rel,
                node,
                f"{what} declares the engine knob with {rendered} — the "
                'contract default is "vector" so callers get the fast '
                "engine without asking",
                source_line=module.source_text(node),
            )
        if not _consults_engine(node):
            yield self.finding_at(
                module.rel,
                node,
                f"{what} never consults its engine knob — no scalar "
                "guard, no require_engine, no forwarding; the knob is "
                "wired to nothing",
                source_line=module.source_text(node),
            )


class _Missing:
    pass


_MISSING = _Missing()


def _engine_default(args: ast.arguments):
    """The default expression bound to the ``engine`` parameter."""
    positional = args.posonlyargs + args.args
    defaults = args.defaults
    offset = len(positional) - len(defaults)
    for i, arg in enumerate(positional):
        if arg.arg == "engine":
            return defaults[i - offset] if i >= offset else _MISSING
    for arg, default in zip(args.kwonlyargs, args.kw_defaults):
        if arg.arg == "engine":
            return default if default is not None else _MISSING
    return _MISSING


def _consults_engine(node: ast.FunctionDef | ast.AsyncFunctionDef) -> bool:
    """Whether the body uses the knob: guard, validation, or forward."""
    for child in ast.walk(node):
        if isinstance(child, ast.Compare) and engine_guard(child) is not None:
            return True
        if not isinstance(child, ast.Call):
            continue
        reads_engine = any(
            isinstance(arg, ast.Name) and arg.id == "engine"
            for arg in child.args
        ) or any(
            isinstance(kw.value, ast.Name) and kw.value.id == "engine"
            for kw in child.keywords
        )
        if reads_engine:
            return True
    return False
