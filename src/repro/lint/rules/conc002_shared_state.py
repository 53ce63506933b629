"""CONC002 — shared mutable state without lock/Event/atomic-flag discipline.

The supervised executor (PR 7) runs genuinely concurrent code: watchdog
work threads, signal handlers, pool callables.  An attribute that one
context *compound-mutates* (``+=``, ``.append``, ``self.x[i] = …``,
``self.x = f(self.x)``) while another context touches it is a data
race: the GIL serializes bytecodes, not read-modify-write sequences,
so two contexts interleaving ``load / modify / store`` lose updates —
and which update is lost depends on scheduling, breaking bit-identical
reproduction in exactly the way nothing downstream can detect.

The rule builds the :class:`~repro.lint.threadflow.ConcurrencyModel`
(which contexts can execute each method, from statically resolved
``Thread(target=…)`` / ``signal.signal`` / thread-pool submissions)
and flags a compound mutation of ``self.<attr>`` when some *other*
method touching the same attribute runs under a provably different
context set.  Three disciplines silence it, because they are actually
safe:

* **Lock**: the mutation sits inside ``with self.<lock>:`` for a lock
  attribute (assigned from ``threading.Lock``/``RLock``/…).
* **Event**: the attribute is a ``threading.Event`` — ``set``/
  ``is_set`` are single bytecodes on the C object.
* **Atomic flag**: plain single stores (``self.done = True``) are one
  ``STORE_ATTR`` bytecode and never flagged; cross-context signalling
  via write-once flags is the codebase's sanctioned pattern.

Functions only reachable from the main context (the empty context set)
conflict with nothing; unresolvable thread targets contribute no
context, so UNKNOWN never flags.
"""

from __future__ import annotations

from typing import Iterator

from repro.lint.callgraph import ContextModel
from repro.lint.rules.base import (
    Finding,
    ProgramContext,
    ProgramRule,
    has_segment,
    register,
)
from repro.lint.threadflow import (
    EVENT_CONSTRUCTORS,
    LOCK_CONSTRUCTORS,
    AttributeUse,
    ClassConcurrency,
    ConcurrencyModel,
    analyze_class,
)


def in_scope(rel: str) -> bool:
    """Product source only: the concurrency contract binds ``repro/``
    modules; test helpers may race on purpose to provoke them."""
    return has_segment(rel, "repro") and not has_segment(rel, "tests")


def concurrency_model(ctx: ProgramContext) -> ConcurrencyModel:
    """The shared per-run thread/signal context model."""
    return ctx.shared(
        "concurrency-model",
        lambda: ConcurrencyModel(ctx.program, ctx.callgraph),
    )


@register
class SharedStateRule(ProgramRule):
    """Cross-context compound mutation needs a lock or an Event.

    ASYNC003 runs the same check over the event-loop model; the class
    attributes below are the only differences.
    """

    id = "CONC002"
    title = "shared state mutated across concurrency contexts"
    severity = "error"
    tier = "concurrency"
    rationale = (
        "the GIL serializes bytecodes, not read-modify-write sequences; "
        "an attribute compound-mutated in one context and touched in "
        "another loses updates depending on thread scheduling, which "
        "breaks bit-identical reproduction nondeterministically"
    )
    hint = (
        "guard the mutation with `with self._lock:`, make the attribute "
        "a threading.Event, or restructure to a single plain store "
        "(atomic flag) — see ShutdownHandler for the sanctioned patterns"
    )
    #: Attributes built from these carry their own discipline.
    exempt_constructors = LOCK_CONSTRUCTORS | EVENT_CONSTRUCTORS
    #: A context one side of a conflicting pair must involve (None: any).
    crossing: str | None = None
    #: How the message names the mutating side's context set.
    context_word = "context"
    #: The message's closing explanation.
    consequence = "the read-modify-write is not atomic under the GIL"

    def model(self, ctx: ProgramContext) -> ContextModel:
        return concurrency_model(ctx)

    def check_program(self, ctx: ProgramContext) -> Iterator[Finding]:
        model = self.model(ctx)
        for module in ctx.program.modules_where(in_scope):
            for class_name in sorted(module.classes):
                facts = analyze_class(module, module.classes[class_name])
                yield from self._check_class(model, facts)

    def _check_class(
        self, model: ContextModel, facts: ClassConcurrency
    ) -> Iterator[Finding]:
        exempt = facts.built_by(self.exempt_constructors)
        by_attr: dict[str, list[AttributeUse]] = {}
        for use in facts.uses:
            if use.method.qualname.endswith(".__init__"):
                # Pre-publication: __init__ completes before the object
                # can be handed to another context, so its writes
                # neither race nor witness a conflicting context.
                continue
            if use.attr not in exempt:
                by_attr.setdefault(use.attr, []).append(use)
        for attr in sorted(by_attr):
            uses = by_attr[attr]
            contexts = {
                use.method.qualname: model.contexts_of(use.method.qualname)
                for use in uses
            }
            if not any(contexts.values()):
                continue  # no concurrent context touches this attr
            for use in uses:
                if not use.is_hazard or use.held_locks:
                    continue
                mine = contexts[use.method.qualname]
                other = next(
                    (
                        u
                        for u in uses
                        if contexts[u.method.qualname] != mine
                        and (
                            self.crossing is None
                            or self.crossing
                            in (mine | contexts[u.method.qualname])
                        )
                    ),
                    None,
                )
                if other is None:
                    continue
                yield self.finding_at(
                    facts.module.rel,
                    use.node,
                    f"{use.method.qualname}() mutates self.{attr} "
                    f"({_KINDS[use.kind]}) in {self.context_word} "
                    f"{model.describe(mine)}, but "
                    f"{other.method.qualname}() touches it in context "
                    f"{model.describe(contexts[other.method.qualname])} — "
                    f"{self.consequence}",
                    source_line=facts.module.source_text(use.node),
                )


_KINDS = {
    "augstore": "augmented assignment",
    "mutcall": "in-place container mutation",
    "substore": "subscript store",
    "rmw": "self-referencing reassignment",
}
