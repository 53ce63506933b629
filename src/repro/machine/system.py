"""The machine facade: run executables, read counters.

:class:`XeonE5440` is the only object experiment code talks to.  Its
interface is deliberately shaped like the paper's measurement stack:
you *run* an executable pinned to a core and you get back counter
readings (at most two programmable events per run, plus the fixed
cycle and instruction counters) — you never get to peek at predictor
tables or cache sets.
"""

from __future__ import annotations

from typing import Mapping, Sequence

from repro.errors import MeasurementError
from repro.machine.config import XeonE5440Config
from repro.machine.core_model import StructuralCounts, XeonCoreModel
from repro.machine.counters import Counter
from repro.machine.timing import cycles_for_run, jittered_count
from repro.program.tracegen import Trace
from repro.toolchain.executable import Executable

#: The Xeon allows "up to two user-defined microarchitectural events to
#: be counted simultaneously" (§5.5).
MAX_PROGRAMMABLE_EVENTS = 2


class XeonE5440:
    """The reference machine.

    Parameters
    ----------
    config:
        Structure geometry and timing/noise parameters.
    seed:
        Machine identity: fixes the per-core frequency offsets and the
        measurement-noise sequence.  Two machines with the same seed are
        "identically configured Dell systems" (§5.4).
    """

    def __init__(self, config: XeonE5440Config | None = None, seed: int = 0) -> None:
        self.config = config if config is not None else XeonE5440Config()
        self.seed = seed
        self._core_model = XeonCoreModel(self.config)

    def layouts_per_batch(self, trace: Trace) -> int:
        """How many layouts of *trace* one :meth:`prepare` call should carry."""
        return self._core_model.layouts_per_batch(trace)

    def prepare(self, executables: Sequence[Executable]) -> None:
        """Simulate a batch of layouts ahead of their runs.

        The core model computes the deterministic counts of the whole
        batch together (as layout lanes) and memoizes them, so each
        later :meth:`run_once` of these executables only adds timing
        and noise.  Nothing is returned: counts are still read only
        through counters.
        """
        self._core_model.execute_many(executables)

    @property
    def n_cores(self) -> int:
        """Number of cores available for pinning."""
        return self.config.n_cores

    def run_once(
        self,
        executable: Executable,
        events: Sequence[Counter] = (),
        core: int = 0,
        run_key: str = "r0",
    ) -> Mapping[Counter, int]:
        """Execute once on *core*, counting up to two programmable events.

        Returns the fixed counters (cycles, instructions) plus the
        requested programmable events.  *run_key* distinguishes repeated
        runs of the same binary: noise differs per key but is fully
        reproducible.
        """
        if not 0 <= core < self.config.n_cores:
            raise MeasurementError(f"core {core} out of range [0, {self.config.n_cores})")
        programmable = [event for event in events if not Counter(event).is_fixed]
        if len(programmable) > MAX_PROGRAMMABLE_EVENTS:
            raise MeasurementError(
                f"the PMU supports {MAX_PROGRAMMABLE_EVENTS} programmable events "
                f"per run; got {len(programmable)}: {[e.value for e in programmable]}"
            )
        counts = self._core_model.execute(executable)
        full_key = f"{executable.fingerprint}/{run_key}"
        reading: dict[Counter, int] = {
            Counter.CYCLES: cycles_for_run(
                counts, executable.spec, self.config, self.seed, core, full_key
            ),
            Counter.INSTRUCTIONS: counts.instructions,
        }
        for event in programmable:
            reading[event] = jittered_count(
                self._event_value(counts, event),
                self.seed,
                full_key,
                event.value,
                self.config.noise,
            )
        return reading

    @staticmethod
    def _event_value(counts: StructuralCounts, event: Counter) -> int:
        if event is Counter.BRANCHES:
            return counts.branches
        if event is Counter.BRANCH_MISPREDICTS:
            return counts.mispredicts
        if event is Counter.L1I_MISSES:
            return counts.l1i_misses
        if event is Counter.L1D_MISSES:
            return counts.l1d_misses
        if event is Counter.L2_MISSES:
            return counts.l2_misses
        if event is Counter.BTB_MISSES:
            return counts.btb_misses
        if event is Counter.INDIRECT_MISPREDICTS:
            return counts.indirect_mispredicts
        raise MeasurementError(f"unknown programmable event {event!r}")

    # ------------------------------------------------------------------
    # Oracle access — for tests and validation only.  Real experiments
    # must go through run_once / measure_executable, as the paper's did
    # through perfex.
    # ------------------------------------------------------------------

    def _oracle_counts(self, executable: Executable) -> StructuralCounts:
        """Deterministic event counts (test/validation backdoor)."""
        return self._core_model.execute(executable)
