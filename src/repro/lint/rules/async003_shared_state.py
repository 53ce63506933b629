"""ASYNC003 — state shared across loop/executor contexts without handoff.

The serving layer's split — coroutines on the event-loop thread,
measurement work in executor threads — reintroduces CONC002's data
race in async clothing: an attribute compound-mutated from an executor
thread while the loop (or the main thread) reads or mutates it loses
updates depending on scheduling.  The GIL serializes bytecodes, not
read-modify-write sequences.

The rule mirrors CONC002 over the
:class:`~repro.lint.asyncflow.AsyncFlowModel`'s contexts: a compound
mutation (``+=``, ``.append``, ``self.x[i] = …``, ``self.x = f(self.x)``)
of ``self.<attr>`` flags when another method touching the same
attribute runs under a provably *different* context set and one side
of the pair involves the event loop — executor-vs-plain-thread
sharing is CONC002's jurisdiction, and re-flagging it here would
double-report without adding the loop-specific remedy.  Sanctioned
handoffs silence it:

* **Lock discipline** — the mutation sits inside ``with self.<lock>:``.
* **asyncio primitives** — attributes holding ``asyncio.Lock`` /
  ``Queue`` / ``Event`` / … have their own loop-confined discipline.
* **call_soon_threadsafe** — a callable handed to the loop via
  ``call_soon_threadsafe`` *executes on the loop thread*; the model
  labels it ``loop`` context, so both sides agree and nothing flags.
* **threading.Event / plain stores** — inherited from threadflow's
  facts, same as CONC002.

Functions the async machinery never reaches conflict with nothing,
and unresolvable callables contribute no context: UNKNOWN never flags.
"""

from __future__ import annotations

from repro.lint.asyncflow import ASYNC_PRIMITIVE_CONSTRUCTORS
from repro.lint.callgraph import ContextModel
from repro.lint.rules.async001_blocking import asyncflow_model
from repro.lint.rules.base import ProgramContext, register
from repro.lint.rules.conc002_shared_state import SharedStateRule


@register
class AsyncSharedStateRule(SharedStateRule):
    """Cross loop/executor mutation needs a lock or an asyncio primitive."""

    id = "ASYNC003"
    title = "state shared between event-loop and executor contexts"
    severity = "error"
    tier = "async"
    rationale = (
        "an attribute compound-mutated from an executor thread while "
        "the event loop touches it loses updates depending on thread "
        "scheduling; the GIL does not make read-modify-write atomic"
    )
    hint = (
        "guard the mutation with `with self._lock:`, hand results "
        "across with `loop.call_soon_threadsafe(...)` or a future, or "
        "confine the state to one context"
    )
    exempt_constructors = (
        SharedStateRule.exempt_constructors | ASYNC_PRIMITIVE_CONSTRUCTORS
    )
    # The conflicting pair must cross the event-loop boundary:
    # executor-vs-plain-thread sharing is CONC002's jurisdiction.
    crossing = "loop"
    context_word = "async context"
    consequence = (
        "no lock, asyncio primitive, or call_soon_threadsafe handoff "
        "guards the read-modify-write"
    )

    def model(self, ctx: ProgramContext) -> ContextModel:
        return asyncflow_model(ctx)
