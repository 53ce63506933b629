"""Spans and counters around the public calls into each layer.

Nothing here changes the program: :func:`install` replaces public
functions and methods with wrappers that open a span, call the
original, and close the span.  Spans stay in memory
(:class:`Recorder`) and are written out once, when the sample ends.
:func:`summarize` turns a span list into the per-layer metrics.

A span is ``[name, start, end, parent, ident, thread, attrs]``: times
are ``time.perf_counter()`` seconds, ``parent`` is the index of the
enclosing span on the same thread (``-1`` for a root), ``ident`` is the
benchmark or request the work belongs to.
"""

from __future__ import annotations

import functools
import threading
import time
from collections import defaultdict
from pathlib import Path

NAME, START, END, PARENT, IDENT, THREAD, ATTRS = range(7)

EXPERIMENTS = (
    "fig1", "fig2", "fig3", "fig4", "fig5", "fig6", "fig7", "fig8",
    "table1", "significance", "headline", "extended",
)
PREDICTORS = (
    "GAs-2KB", "GAs-4KB", "GAs-8KB", "GAs-16KB", "L-TAGE",
    "tournament", "perceptron", "agree", "bimode", "gskew", "TAGE",
)
STRUCTURES = ("hybrid", "btb", "indirect", "caches")

#: Every per-layer metric, in report order, with its unit.
METRICS: dict[str, str] = {"startup.import_s": "s"}
METRICS.update({f"harness.{name}_s": "s" for name in EXPERIMENTS})
METRICS.update({
    "harness.export_s": "s",
    "trace.unattributed_s": "s",
    "trace.overhead_s": "s",
    "program.tracegen_s": "s",
    "toolchain.build_s": "s",
    "toolchain.builds": "count",
    "core.observe_one_s": "s",
    "core.layouts": "count",
    "machine.execute_calls": "count",
    "machine.execute_sims": "count",
    "machine.memo_hit_ratio": "ratio",
    "pmc.protocol_self_s": "s",
})
for _name in STRUCTURES:
    METRICS[f"uarch.{_name}_s"] = "s"
    METRICS[f"uarch.{_name}_ns_per_event"] = "ns"
METRICS["pintool.run_s"] = "s"
for _name in PREDICTORS:
    METRICS[f"pintool.{_name}_s"] = "s"
    METRICS[f"pintool.{_name}_ns_per_event"] = "ns"
METRICS.update({
    "model.fit_s": "s",
    "evaluate.self_s": "s",
    "mase.prepare_s": "s",
    "mase.run_s": "s",
    "mase.runs": "count",
    "store.save_s": "s",
    "store.bytes_written": "bytes",
    "journal.write_s": "s",
    "journal.writes": "count",
    "store.load_s": "s",
    "store.bytes_read": "bytes",
    "store.hits": "count",
    "store.misses": "count",
    "serve.server_p50_ms": "ms",
    "serve.server_p99_ms": "ms",
    "serve.front_end_ms": "ms",
    "serve.lab_lookup_s": "s",
    "persistence.dump_s": "s",
    "serve.coalesced": "count",
    "serve.rejected": "count",
    "serve.pool_saturation": "ratio",
})


class Recorder:
    """In-memory span list with a per-thread stack of open spans."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._lock = threading.Lock()
        self._local = threading.local()

    def _stack(self) -> list[int]:
        if not hasattr(self._local, "stack"):
            self._local.stack = []
        return self._local.stack

    def open(self, name: str, ident: str | None = None, **attrs) -> int:
        """Start a span; returns its index for :meth:`close`."""
        stack = self._stack()
        span = [name, time.perf_counter(), None, stack[-1] if stack else -1,
                ident, threading.get_ident(), attrs]
        with self._lock:  # server executor threads record concurrently
            self.spans.append(span)
            index = len(self.spans) - 1
        stack.append(index)
        return index

    def close(self, index: int, **attrs) -> None:
        """End span *index*, the innermost open span of this thread."""
        span = self.spans[index]
        span[END] = time.perf_counter()
        span[ATTRS].update(attrs)
        self._stack().pop()


def _wrap(recorder: Recorder, function, name, ident=None, before=None, after=None):
    """A wrapper recording one span per call of *function*.

    *ident(args)* names the benchmark or request; *before(args)* and
    *after(args, result)* return span attributes (events, bytes).
    """

    @functools.wraps(function)
    def wrapper(*args, **kwargs):
        index = recorder.open(
            name, ident(args) if ident else None, **(before(args) if before else {})
        )
        try:
            result = function(*args, **kwargs)
        except BaseException:
            recorder.close(index)
            raise
        recorder.close(index, **(after(args, result) if after else {}))
        return result

    return wrapper


def _patch(recorder: Recorder, owner, attr: str, name: str, **hooks) -> None:
    """Replace ``owner.attr`` (function, method or classmethod) by a wrapper."""
    descriptor = owner.__dict__.get(attr) if isinstance(owner, type) else None
    if isinstance(descriptor, classmethod):
        setattr(owner, attr, classmethod(
            _wrap(recorder, descriptor.__func__, name, **hooks)))
    else:
        setattr(owner, attr, _wrap(recorder, getattr(owner, attr), name, **hooks))


def _size(path) -> int:
    try:
        return Path(path).stat().st_size
    except OSError:
        return 0


def install(recorder: Recorder, serving: bool = False) -> None:
    """Wrap the public calls into every layer of ``repro``.

    *serving* also wraps the laboratory lookups a server request makes
    (elsewhere they are the whole workload body, not a layer).
    """
    import repro.cli as cli
    import repro.core.interferometer as interferometer
    import repro.harness.export as export
    import repro.serve as serve
    import repro.store as store
    import repro.workloads.suite as suite
    from repro.core.evaluate import PredictorEvaluator
    from repro.core.model import PerformanceModel
    from repro.harness.lab import Laboratory
    from repro.journal import SuiteJournal
    from repro.machine.core_model import XeonCoreModel
    from repro.mase.simulator import MaseSimulator
    from repro.pintool.brsim import PinTool
    from repro.toolchain.camino import Camino
    from repro.uarch.btb import BranchTargetBuffer
    from repro.uarch.caches import CacheHierarchy
    from repro.uarch.predictors.base import BranchPredictor
    from repro.uarch.predictors.indirect import LastTargetPredictor

    for name in EXPERIMENTS:
        cli.EXPERIMENTS[name] = _wrap(recorder, cli.EXPERIMENTS[name], f"harness.{name}")
    _patch(recorder, export, "export_experiments", "harness.export")
    _patch(recorder, suite, "generate_trace", "program.tracegen",
           before=lambda a: {"events": a[2]})
    _patch(recorder, Camino, "build", "toolchain.build")
    _patch(recorder, interferometer.Interferometer, "observe_one",
           "core.observe_one", ident=lambda a: a[1].name)
    _patch(recorder, interferometer, "measure_executable", "pmc.protocol")
    _patch(recorder, XeonCoreModel, "execute", "machine.execute")
    events = {"before": lambda a: {"events": len(a[1])}}
    # One class-level wrapper for every direction predictor: summarize()
    # files a span under uarch.hybrid by its class and under
    # pintool.<name> when a Pin tool run called it.
    _patch(recorder, BranchPredictor, "simulate", "predictor",
           before=lambda a: {"events": len(a[1]), "predictor": a[0].name,
                             "class": type(a[0]).__name__})
    _patch(recorder, BranchTargetBuffer, "simulate", "uarch.btb", **events)
    _patch(recorder, LastTargetPredictor, "simulate", "uarch.indirect", **events)
    _patch(recorder, CacheHierarchy, "simulate", "uarch.caches",
           before=lambda a: {"events": len(a[1]) + len(a[3])})
    _patch(recorder, PinTool, "run", "pintool.run")
    _patch(recorder, PerformanceModel, "from_observations", "model.fit")
    _patch(recorder, PredictorEvaluator, "evaluate", "evaluate")
    _patch(recorder, MaseSimulator, "prepare", "mase.prepare")
    _patch(recorder, MaseSimulator, "run", "mase.run")
    _patch(recorder, store.CampaignStore, "save", "store.save",
           after=lambda a, path: {"bytes": _size(path)})
    _patch(recorder, store.CampaignStore, "load", "store.load",
           before=lambda a: {"bytes": _size(a[0].path_for(a[1]))})
    _patch(recorder, store.StoreStats, "record_hit", "store.hit")
    _patch(recorder, store.StoreStats, "record_miss", "store.miss")
    _patch(recorder, SuiteJournal, "record_begin", "journal.write")
    _patch(recorder, SuiteJournal, "record_commit", "journal.write")
    if serving:
        lookup = {"ident": lambda a: a[1]}
        _patch(recorder, Laboratory, "observations", "lab.lookup", **lookup)
        _patch(recorder, Laboratory, "heap_observations", "lab.lookup", **lookup)
    dump = {"ident": lambda a: f"{a[0].benchmark}|{len(a[0])}"}
    _patch(recorder, serve, "dump_campaign", "persistence.dump", **dump)
    _patch(recorder, store, "dump_campaign", "persistence.dump", **dump)


def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the time its direct children cover."""
    covered = [0.0] * len(spans)
    for span in spans:
        if span[PARENT] >= 0:
            covered[span[PARENT]] += span[END] - span[START]
    return [span[END] - span[START] - covered[i] for i, span in enumerate(spans)]


def summarize(spans: list[list], window: tuple[float, float] | None = None) -> dict:
    """Per-layer metrics from one sample's spans.

    With *window*, only spans starting inside ``[start, end]`` count
    (the measured batch of a server sample).
    """
    selfs = self_times(spans)
    total: dict[str, float] = defaultdict(float)
    own: dict[str, float] = defaultdict(float)
    calls: dict[str, int] = defaultdict(int)
    events: dict[str, int] = defaultdict(int)
    attr_sum: dict[str, float] = defaultdict(float)
    parents = {span[PARENT] for span in spans}
    for i, (span, self_time) in enumerate(zip(spans, selfs)):
        if window is not None and not window[0] <= span[START] <= window[1]:
            continue
        attrs = span[ATTRS]
        names = [span[NAME]]
        if span[NAME] == "predictor":
            names = [] if attrs["class"] != "HybridPredictor" else ["uarch.hybrid"]
            if span[PARENT] >= 0 and spans[span[PARENT]][NAME] == "pintool.run":
                names.append(f"pintool.{attrs['predictor']}")
        for name in names:
            total[name] += span[END] - span[START]
            own[name] += self_time
            calls[name] += 1
            events[name] += attrs.get("events", 0)
            attr_sum[name] += attrs.get("bytes", 0)
        if span[NAME] == "machine.execute" and i in parents:
            # A memo hit returns without simulating any structure.
            calls["machine.sim"] += 1

    def per_event(name: str) -> float:
        return total[name] * 1e9 / events[name] if events[name] else 0.0

    out = {f"harness.{name}_s": total[f"harness.{name}"] for name in EXPERIMENTS}
    out.update({
        "harness.export_s": total["harness.export"],
        "trace.unattributed_s": own["run"],
        "program.tracegen_s": total["program.tracegen"],
        "toolchain.build_s": total["toolchain.build"],
        "toolchain.builds": calls["toolchain.build"],
        "core.observe_one_s": total["core.observe_one"],
        "core.layouts": calls["core.observe_one"],
        "machine.execute_calls": calls["machine.execute"],
        "machine.execute_sims": calls["machine.sim"],
        "machine.memo_hit_ratio": (
            1.0 - calls["machine.sim"] / calls["machine.execute"]
            if calls["machine.execute"] else 0.0
        ),
        "pmc.protocol_self_s": own["pmc.protocol"],
    })
    for name in STRUCTURES:
        out[f"uarch.{name}_s"] = total[f"uarch.{name}"]
        out[f"uarch.{name}_ns_per_event"] = per_event(f"uarch.{name}")
    out["pintool.run_s"] = total["pintool.run"]
    for name in PREDICTORS:
        out[f"pintool.{name}_s"] = total[f"pintool.{name}"]
        out[f"pintool.{name}_ns_per_event"] = per_event(f"pintool.{name}")
    out.update({
        "model.fit_s": total["model.fit"],
        "evaluate.self_s": own["evaluate"],
        "mase.prepare_s": total["mase.prepare"],
        "mase.run_s": total["mase.run"],
        "mase.runs": calls["mase.run"],
        "store.save_s": total["store.save"],
        "store.bytes_written": attr_sum["store.save"],
        "journal.write_s": total["journal.write"],
        "journal.writes": calls["journal.write"],
        "store.load_s": total["store.load"],
        "store.bytes_read": attr_sum["store.load"],
        "store.hits": calls["store.hit"],
        "store.misses": calls["store.miss"],
        "serve.lab_lookup_s": total["lab.lookup"],
        "persistence.dump_s": total["persistence.dump"],
    })
    return out
