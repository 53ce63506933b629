"""Structural simulation of one core's address-hashed structures.

Given an executable's bound address streams, the core model runs the
hybrid branch predictor, the BTB, and the cache hierarchy to produce
*deterministic* microarchitectural event counts.  This is the honest
physical mechanism behind interferometry in this reproduction: nothing
injects layout-dependent randomness — different layouts simply produce
different table/set collisions.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro import units
from repro.machine.config import XeonE5440Config
from repro.program.tracegen import Trace
from repro.toolchain.executable import Executable
from repro.uarch import vector
from repro.uarch.btb import BranchTargetBuffer
from repro.uarch.caches import CacheHierarchy, HierarchyCounts
from repro.uarch.predictors.hybrid import HybridPredictor
from repro.uarch.predictors.indirect import LastTargetPredictor


@dataclass(frozen=True)
class StructuralCounts:
    """Deterministic event counts of one executable on the core model."""

    instructions: int
    branches: int
    mispredicts: int
    btb_misses: int
    indirect_mispredicts: int
    l1i_accesses: int
    l1i_misses: int
    l1d_accesses: int
    l1d_misses: int
    l2_misses: int

    @property
    def mpki(self) -> units.Mpki:
        """Branch mispredictions per kilo-instruction."""
        return units.mpki(self.mispredicts, self.instructions)

    @property
    def l1i_mpki(self) -> units.Mpki:
        """L1I misses per kilo-instruction."""
        return units.mpki(self.l1i_misses, self.instructions)

    @property
    def l1d_mpki(self) -> units.Mpki:
        """L1D misses per kilo-instruction."""
        return units.mpki(self.l1d_misses, self.instructions)

    @property
    def l2_mpki(self) -> units.Mpki:
        """L2 misses per kilo-instruction."""
        return units.mpki(self.l2_misses, self.instructions)


def _lane_accesses(trace: Trace) -> int:
    """What one layout of *trace* adds to a layout-lanes call.

    That is the longest of its LRU streams (instruction fetches, data
    references, taken branches), counted against
    :data:`~repro.uarch.vector.LANE_ACCESSES`.
    """
    return max(
        int(trace.iacc_event.size),
        int(trace.dacc_event.size),
        int(np.count_nonzero(trace.outcomes)),
        1,
    )


class XeonCoreModel:
    """One core's front-end and memory structures, with a result cache.

    Simulation is deterministic per executable fingerprint, so results
    are memoized (the paper likewise measures fixed counts per binary;
    only cycles are noisy).  :meth:`execute_many` fills the memo for a
    batch of layouts at once: their LRU structures (BTB, L1I, L1D, L2)
    run as layout lanes of one kernel call each.
    """

    def __init__(self, config: XeonE5440Config, cache_entries: int = 4096) -> None:
        self.config = config
        self._predictor = HybridPredictor(
            bimodal_entries=config.bimodal_entries,
            global_entries=config.global_entries,
            history_bits=config.history_bits,
            chooser_entries=config.chooser_entries,
        )
        self._btb = BranchTargetBuffer(
            entries=config.btb_entries, associativity=config.btb_associativity
        )
        self._target_predictor = LastTargetPredictor(entries=config.btb_entries)
        self._hierarchy = CacheHierarchy(config.l1i, config.l1d, config.l2)
        self._cache: OrderedDict[str, StructuralCounts] = OrderedDict()
        self._cache_entries = cache_entries

    @staticmethod
    def layouts_per_batch(trace: Trace) -> int:
        """How many layouts of *trace* one lanes call simulates together."""
        return max(1, vector.LANE_ACCESSES // _lane_accesses(trace))

    def execute(
        self, executable: Executable, engine: str = "vector"
    ) -> StructuralCounts:
        """Simulate *executable*; returns cached counts when available.

        *engine* selects the simulation implementation for every
        structure (see :mod:`repro.uarch.vector`); both engines produce
        identical counts, so the memo cache is shared between them.
        The vector engine is the one-layout case of :meth:`execute_many`.
        """
        vector.require_engine(engine)
        if engine == "vector":
            return self.execute_many([executable])[0]
        cached = self._lookup(executable.fingerprint)
        if cached is not None:
            return cached
        trace = executable.trace
        warmup = self._warmup(trace)
        btb_misses = self._btb.simulate(
            executable.branch_address_stream(), trace.outcomes, warmup=warmup, engine=engine
        )
        hierarchy = self._hierarchy.simulate(
            executable.ifetch_address_stream(),
            trace.iacc_event,
            executable.data_address_stream(),
            trace.dacc_event,
            warmup_event=warmup,
            engine=engine,
        )
        return self._finish(executable, warmup, btb_misses, hierarchy, engine)

    def execute_many(self, executables: Sequence[Executable]) -> list[StructuralCounts]:
        """Counts of every executable, simulating the unmemoized ones as lanes.

        Executables not in the memo are grouped so each group's LRU
        streams fit :data:`~repro.uarch.vector.LANE_ACCESSES`; within a
        group the BTB, L1I and L1D each run all layouts in one kernel
        call, then every layout's L2 fill stream is built from its own
        L1 misses and the L2 runs as lanes too.  The direction and
        indirect predictors run per layout.  Counts equal per-layout
        :meth:`execute` exactly: lanes never share a set.
        """
        counts: dict[str, StructuralCounts] = {}
        pending: dict[str, Executable] = {}
        for executable in executables:
            key = executable.fingerprint
            cached = self._lookup(key)
            if cached is None:
                pending.setdefault(key, executable)
            else:
                counts[key] = cached
        group: list[Executable] = []
        used = 0
        for executable in pending.values():
            size = _lane_accesses(executable.trace)
            if group and used + size > vector.LANE_ACCESSES:
                counts.update(self._simulate_lanes(group))
                group, used = [], 0
            group.append(executable)
            used += size
        if group:
            counts.update(self._simulate_lanes(group))
        return [counts[executable.fingerprint] for executable in executables]

    def _simulate_lanes(self, group: list[Executable]) -> dict[str, StructuralCounts]:
        """Simulate one group of layouts, memoize and return their counts."""
        traces = [executable.trace for executable in group]
        warmups = [self._warmup(trace) for trace in traces]
        btb_misses = self._btb.simulate_lanes(
            [executable.branch_address_stream() for executable in group],
            [trace.outcomes for trace in traces],
            warmups,
        )
        hierarchies = self._hierarchy.simulate_lanes(
            [executable.ifetch_address_stream() for executable in group],
            [trace.iacc_event for trace in traces],
            [executable.data_address_stream() for executable in group],
            [trace.dacc_event for trace in traces],
            warmups,
        )
        return {
            executable.fingerprint: self._finish(
                executable, warmup, btb, hierarchy, "vector"
            )
            for executable, warmup, btb, hierarchy in zip(
                group, warmups, btb_misses, hierarchies
            )
        }

    def _warmup(self, trace: Trace) -> int:
        return int(trace.n_events * self.config.warmup_fraction)

    def _lookup(self, key: str) -> StructuralCounts | None:
        cached = self._cache.get(key)
        if cached is not None:
            self._cache.move_to_end(key)
        return cached

    def _finish(
        self,
        executable: Executable,
        warmup: int,
        btb_misses: int,
        hierarchy: HierarchyCounts,
        engine: str,
    ) -> StructuralCounts:
        """Run the per-layout predictors, assemble and memoize the counts."""
        trace = executable.trace
        branch_addrs = executable.branch_address_stream()
        mispredicts = self._predictor.simulate(
            branch_addrs, trace.outcomes, warmup=warmup, engine=engine
        )
        if int(trace.targets.max(initial=-1)) >= 0:
            indirect_mispredicts = self._target_predictor.simulate(
                branch_addrs, trace.targets, warmup=warmup, engine=engine
            )
        else:
            indirect_mispredicts = 0
        counts = StructuralCounts(
            instructions=trace.total_instructions - trace.instructions_up_to(warmup),
            branches=trace.n_events - warmup,
            mispredicts=mispredicts,
            btb_misses=btb_misses,
            indirect_mispredicts=indirect_mispredicts,
            l1i_accesses=hierarchy.l1i_accesses,
            l1i_misses=hierarchy.l1i_misses,
            l1d_accesses=hierarchy.l1d_accesses,
            l1d_misses=hierarchy.l1d_misses,
            l2_misses=hierarchy.l2_misses,
        )
        self._cache[executable.fingerprint] = counts
        if len(self._cache) > self._cache_entries:
            self._cache.popitem(last=False)
        return counts
