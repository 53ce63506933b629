#!/usr/bin/env python3
"""Scalar-vs-vector simulation-kernel benchmark.

Every address-hashed structure in :mod:`repro.uarch` carries two
simulation engines: the per-event scalar loop (the differential
oracle) and the chunked numpy kernels of :mod:`repro.uarch.vector`.
This benchmark times both engines on campaign-shaped inputs and
verifies — on every row — that they produce identical counts, then
writes the results to ``BENCH_kernels.json``.

Workloads:

* direction predictors and the BTB over the concatenated per-layout
  branch streams of 445.gobmk (one stream per reordered executable,
  ``REPRO_SCALE`` layouts) — including TAGE, L-TAGE, the perceptron
  and gskew, whose bulk paths are fused per-event loops rather than
  numpy scans;
* the L1I cache over the concatenated ifetch streams;
* the indirect-target predictors over an interpreter-shaped program
  (the suite benchmarks have no indirect sites);
* an end-to-end interferometry campaign through
  :meth:`Interferometer.observe` (build, core model, PMC protocol),
  one fresh machine per engine so the memo cache cannot leak results
  across engines.

The BTB and L1I vector rows run the layouts as the core model does:
in lanes batches of :data:`repro.uarch.vector.LANE_ACCESSES`
accesses, one kernel call per batch.

Run:  python benchmarks/bench_kernels.py [--output PATH]
Exits 1 if any scalar/vector count diverges.

``--compare BASELINE.json`` additionally gates against a committed
report: any kernel family whose fresh speedup falls more than
``--max-regression`` (default 30%) below the committed speedup fails
the run.  Speedup ratios (scalar time / vector time on the same
machine) are far more stable across hosts than absolute ns/event, so
the gate travels to CI runners of different generations.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import numpy as np

from repro import telemetry
from repro.core.interferometer import Interferometer
from repro.harness.lab import get_lab
from repro.machine.config import XeonE5440Config
from repro.machine.core_model import XeonCoreModel
from repro.machine.system import XeonE5440
from repro.program.tracegen import generate_trace
from repro.toolchain.camino import Camino
from repro.uarch.btb import BranchTargetBuffer
from repro.uarch.caches import SetAssociativeCache
from repro.uarch.predictors.agree import AgreePredictor
from repro.uarch.predictors.bimodal import BimodalPredictor
from repro.uarch.predictors.bimode import BiModePredictor
from repro.uarch.predictors.gas import GAsPredictor
from repro.uarch.predictors.gshare import GsharePredictor
from repro.uarch.predictors.gskew import GskewPredictor
from repro.uarch.predictors.hybrid import HybridPredictor
from repro.uarch.predictors.indirect import IttageLitePredictor, LastTargetPredictor
from repro.uarch.predictors.pas import PAsPredictor
from repro.uarch.predictors.perceptron import PerceptronPredictor
from repro.uarch.predictors.tage import LTagePredictor, TagePredictor
from repro.uarch.predictors.tournament import TournamentPredictor
from repro.workloads.suite import get_benchmark

BENCHMARK = "445.gobmk"


def _load_interpreter_spec():
    """The interpreter-shaped spec from examples/indirect_interferometry."""
    import importlib.util

    path = Path(__file__).resolve().parent.parent / "examples" / "indirect_interferometry.py"
    spec = importlib.util.spec_from_file_location("indirect_example", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.build_interpreter()


def _campaign_streams(lab):
    """Per-layout branch and ifetch streams of the campaign benchmark,
    and how many layouts the core model runs as lanes of one call."""
    bm = get_benchmark(BENCHMARK)
    branch, ifetch = [], []
    for i in range(lab.scale.n_layouts):
        exe = lab.interferometer.build_executable(bm, i)
        branch.append((exe.branch_address_stream(), exe.trace.outcomes))
        ifetch.append(exe.ifetch_address_stream())
    return branch, ifetch, XeonCoreModel.layouts_per_batch(exe.trace)


def _indirect_streams(lab):
    """Per-layout (addresses, targets) streams of the interpreter spec."""
    spec = _load_interpreter_spec()
    toolchain = Camino()
    n_layouts = max(2, lab.scale.n_layouts // 5)
    n_events = lab.scale.trace_events * 5
    streams = []
    for i in range(n_layouts):
        trace = generate_trace(spec, seed=101 + i, n_events=n_events)
        exe = toolchain.build(spec, trace, layout_seed=1000 + i)
        streams.append((exe.branch_address_stream(), exe.trace.targets))
    return streams


def _time_engine(run) -> tuple[float, int]:
    """Best-of-2 wall time and the (identical) count of one engine."""
    best, count = float("inf"), 0
    for _ in range(2):
        start = telemetry.tick_seconds()
        count = run()
        best = min(best, telemetry.tick_seconds() - start)
    return best, count


def bench_row(name: str, n_events: int, scalar_run, vector_run) -> dict:
    """Time both engines over the same streams and compare their counts."""
    scalar_s, scalar_count = _time_engine(scalar_run)
    vector_s, vector_count = _time_engine(vector_run)
    row = {
        "kernel": name,
        "events": n_events,
        "scalar_count": scalar_count,
        "vector_count": vector_count,
        "diverged": scalar_count != vector_count,
        "scalar_ns_per_event": scalar_s / n_events * 1e9,
        "vector_ns_per_event": vector_s / n_events * 1e9,
        "scalar_events_per_sec": n_events / scalar_s,
        "vector_events_per_sec": n_events / vector_s,
        "speedup": scalar_s / vector_s,
    }
    print(
        f"  {name:<24s} {n_events:>9d} ev  "
        f"scalar {row['scalar_ns_per_event']:7.0f} ns/ev  "
        f"vector {row['vector_ns_per_event']:7.0f} ns/ev  "
        f"{row['speedup']:5.1f}x"
        + ("  ** DIVERGED **" if row["diverged"] else "")
    )
    return row


def _simulate_streams(structure, streams, warmup_fraction: float, engine: str) -> int:
    total = 0
    for addrs, outcomes in streams:
        total += structure.simulate(
            addrs, outcomes, warmup=int(len(addrs) * warmup_fraction), engine=engine
        )
    return total


def _lane_batches(streams: list, step: int) -> list[list]:
    """The streams cut into the core model's lanes batches."""
    return [streams[i : i + step] for i in range(0, len(streams), step)]


def _observe_campaign(lab, n_layouts: int, engine: str) -> int:
    """A whole campaign through :meth:`Interferometer.observe`.

    The build, the core model, the PMC protocol and the observation
    set are all timed.  ``engine="scalar"`` first fills the core
    model's memo with the scalar oracle's counts, layout by layout, so
    the campaign itself then only builds and measures.  Returns the
    sum of every counter reading, equal on both engines.
    """
    machine = XeonE5440(XeonE5440Config(), seed=lab.machine_seed)
    interferometer = Interferometer(machine, trace_events=lab.scale.trace_events)
    bm = get_benchmark(BENCHMARK)
    if engine == "scalar":
        for i in range(n_layouts):
            machine._core_model.execute(
                interferometer.build_executable(bm, i), engine="scalar"
            )
    observations = interferometer.observe(bm, n_layouts=n_layouts)
    return sum(
        sum(obs.measurement.counters.values()) for obs in observations.observations
    )


def compare_to_baseline(
    report: dict, baseline: dict, max_regression: float
) -> list[str]:
    """Kernel families whose speedup regressed past *max_regression*.

    Families are matched by row name; a family present in only one
    report is reported as drift, not a regression — renames and new
    kernels should not trip the gate, but they should be visible.
    """
    fresh = {r["kernel"]: r for r in report["rows"]}
    committed = {r["kernel"]: r for r in baseline["rows"]}
    failures: list[str] = []
    floor_note = []
    for name in sorted(set(fresh) ^ set(committed)):
        side = "fresh" if name in fresh else "baseline"
        floor_note.append(f"  (family {name!r} only in the {side} report)")
    for name in sorted(set(fresh) & set(committed)):
        was, now = committed[name]["speedup"], fresh[name]["speedup"]
        floor = was * (1.0 - max_regression)
        if now < floor:
            failures.append(
                f"{name}: speedup {now:.2f}x regressed below "
                f"{floor:.2f}x (committed {was:.2f}x, "
                f"-{(1 - now / was) * 100:.0f}%)"
            )
    for note in floor_note:
        print(note)
    return failures


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--output",
        type=Path,
        default=Path(__file__).resolve().parent.parent / "BENCH_kernels.json",
        help="where to write the JSON report",
    )
    parser.add_argument(
        "--compare",
        type=Path,
        default=None,
        metavar="BASELINE",
        help="committed BENCH_kernels.json to gate speedups against",
    )
    parser.add_argument(
        "--max-regression",
        type=float,
        default=0.30,
        help="per-family speedup regression tolerance (fraction, default 0.30)",
    )
    args = parser.parse_args()

    lab = get_lab()
    print(f"scale={lab.scale.name}: building {lab.scale.n_layouts} layouts of {BENCHMARK} ...")
    branch_streams, ifetch_streams, lanes = _campaign_streams(lab)
    n_branch = sum(len(a) for a, _ in branch_streams)
    indirect_streams = _indirect_streams(lab)
    n_indirect_events = sum(len(a) for a, _ in indirect_streams)
    n_indirect = sum(int(np.count_nonzero(t >= 0)) for _, t in indirect_streams)
    n_ifetch = sum(len(a) for a in ifetch_streams)
    print(
        f"streams: {n_branch} branch events, {n_ifetch} ifetch accesses, "
        f"{n_indirect} indirect branches (of {n_indirect_events} events)"
    )

    config = XeonE5440Config()
    predictors = {
        "bimodal-4096": lambda: BimodalPredictor(4096),
        "gshare-4096x12": lambda: GsharePredictor(4096, history_bits=12),
        "gas-4096x10": lambda: GAsPredictor(4096, history_bits=10),
        "pas-1024x16384": lambda: PAsPredictor(1024, 16384, history_bits=10),
        "agree-4096x8": lambda: AgreePredictor(4096, history_bits=8, bias_entries=2048),
        "bimode-4096x8": lambda: BiModePredictor(
            4096, history_bits=8, choice_entries=2048
        ),
        "tournament-alpha": lambda: TournamentPredictor(),
        "hybrid-xeon": lambda: HybridPredictor(
            bimodal_entries=config.bimodal_entries,
            global_entries=config.global_entries,
            history_bits=config.history_bits,
            chooser_entries=config.chooser_entries,
        ),
        # The extended zoo's and the Pin sweep's most expensive members,
        # at the geometries those experiments run.
        "gskew-2048x8": lambda: GskewPredictor(entries_per_bank=2048, history_bits=8),
        "perceptron-1024x12": lambda: PerceptronPredictor(1024, history_bits=12),
        "tage": lambda: TagePredictor(name="TAGE"),
        "ltage": LTagePredictor,
    }

    rows = []
    print("direction predictors:")
    for name, factory in predictors.items():
        structure = factory()
        rows.append(
            bench_row(
                name,
                n_branch,
                lambda: _simulate_streams(structure, branch_streams, 0.25, "scalar"),
                lambda: _simulate_streams(structure, branch_streams, 0.25, "vector"),
            )
        )

    # The LRU structures' vector rows run as the core model does: the
    # layouts in lanes batches, one kernel call per batch.
    print(f"btb ({lanes} layout lanes per call):")
    btb = BranchTargetBuffer(
        entries=config.btb_entries, associativity=config.btb_associativity
    )

    def btb_lanes():
        return sum(
            sum(btb.simulate_lanes(
                [addrs for addrs, _ in batch],
                [outcomes for _, outcomes in batch],
                [int(len(addrs) * 0.25) for addrs, _ in batch],
            ))
            for batch in _lane_batches(branch_streams, lanes)
        )

    rows.append(
        bench_row(
            "btb-xeon",
            n_branch,
            lambda: _simulate_streams(btb, branch_streams, 0.25, "scalar"),
            btb_lanes,
        )
    )

    print(f"caches ({lanes} layout lanes per call):")
    l1i = SetAssociativeCache(config.l1i)

    def l1i_lanes():
        return sum(
            int(np.count_nonzero(mask))
            for batch in _lane_batches(ifetch_streams, lanes)
            for mask in l1i.simulate_lanes(batch)
        )

    rows.append(
        bench_row(
            "l1i-cache",
            n_ifetch,
            lambda: sum(l1i.simulate(addrs, engine="scalar") for addrs in ifetch_streams),
            l1i_lanes,
        )
    )

    print("indirect-target predictors:")
    for name, factory in {
        "last-target-512": lambda: LastTargetPredictor(512),
        "ittage-lite-1024": lambda: IttageLitePredictor(1024, 512),
    }.items():
        structure = factory()
        rows.append(
            bench_row(
                name,
                n_indirect,
                lambda: _simulate_streams(structure, indirect_streams, 0.25, "scalar"),
                lambda: _simulate_streams(structure, indirect_streams, 0.25, "vector"),
            )
        )

    print("end-to-end campaign (Interferometer.observe: build, core model, PMC):")
    end_to_end = bench_row(
        "campaign-e2e",
        n_branch,
        lambda: _observe_campaign(lab, lab.scale.n_layouts, "scalar"),
        lambda: _observe_campaign(lab, lab.scale.n_layouts, "vector"),
    )

    diverged = any(r["diverged"] for r in rows) or end_to_end["diverged"]
    report = {
        "scale": lab.scale.name,
        "benchmark": BENCHMARK,
        "n_layouts": lab.scale.n_layouts,
        "branch_events": n_branch,
        "ifetch_accesses": n_ifetch,
        "indirect_branches": n_indirect,
        "rows": rows,
        "end_to_end": end_to_end,
        "diverged": diverged,
    }
    args.output.write_text(json.dumps(report, indent=2) + "\n")
    print(f"wrote {args.output}")
    if diverged:
        print("FAIL: scalar and vector engines diverged", file=sys.stderr)
        return 1
    best = max(r["speedup"] for r in rows)
    print(f"max kernel speedup: {best:.1f}x; end-to-end {end_to_end['speedup']:.1f}x")
    if args.compare is not None:
        baseline = json.loads(args.compare.read_text())
        failures = compare_to_baseline(report, baseline, args.max_regression)
        if failures:
            print(
                f"FAIL: {len(failures)} kernel famil"
                f"{'y' if len(failures) == 1 else 'ies'} regressed past "
                f"{args.max_regression * 100:.0f}% of the committed speedup:",
                file=sys.stderr,
            )
            for failure in failures:
                print(f"  {failure}", file=sys.stderr)
            return 1
        print(
            f"regression gate: all shared families within "
            f"{args.max_regression * 100:.0f}% of {args.compare}"
        )
    return 0


if __name__ == "__main__":
    os.environ.setdefault("REPRO_SCALE", "small")
    sys.exit(main())
