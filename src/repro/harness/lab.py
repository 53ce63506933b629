"""The laboratory: shared machines, scale configuration, and caches.

Scales trade fidelity for wall-clock time.  ``paper`` mirrors the
paper's 100-reordering campaigns; ``small`` (the default) keeps every
experiment's shape at ~40% of the sampling cost; ``ci`` is for fast
test runs.  Select with the ``REPRO_SCALE`` environment variable.
"""

from __future__ import annotations

import os
import threading
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Sequence

from repro import faults, telemetry
from repro.core.evaluate import PredictorEvaluation, PredictorEvaluator
from repro.core.interferometer import Interferometer
from repro.core.model import PerformanceModel
from repro.core.observations import Observation, ObservationSet
from repro.core.park import MachinePark
from repro.core.supervise import ShutdownHandler, Supervisor
from repro.errors import CampaignExecutionError, ConfigurationError, ModelError
from repro.faults import FailureReport, RetryPolicy
from repro.journal import JournalState, SuiteJournal
from repro.machine.system import XeonE5440
from repro.store import CampaignKey, CampaignStore, MeasureFn
from repro.uarch.predictors.gas import gas_hybrid_family
from repro.uarch.predictors.tage import LTagePredictor
from repro.workloads.suite import Benchmark, get_benchmark, mase_suite, spec2006


@dataclass(frozen=True)
class Scale:
    """Sampling sizes of one scale tier."""

    name: str
    n_layouts: int
    trace_events: int
    mase_trace_events: int
    mase_configs: int | None  # None = the full 145
    ltage_layouts: int

    def __post_init__(self) -> None:
        if self.n_layouts <= 3:
            raise ConfigurationError("need more than 3 layouts per campaign")


SCALES: dict[str, Scale] = {
    "ci": Scale("ci", n_layouts=10, trace_events=6000, mase_trace_events=4000,
                mase_configs=29, ltage_layouts=4),
    "small": Scale("small", n_layouts=40, trace_events=20000, mase_trace_events=6000,
                   mase_configs=None, ltage_layouts=12),
    "paper": Scale("paper", n_layouts=100, trace_events=20000, mase_trace_events=8000,
                   mase_configs=None, ltage_layouts=100),
}


def scale_from_env(default: str = "small") -> Scale:
    """Resolve the scale selected by ``REPRO_SCALE``."""
    name = os.environ.get("REPRO_SCALE", default)
    if name not in SCALES:
        raise ConfigurationError(
            f"unknown REPRO_SCALE {name!r}; choose from {sorted(SCALES)}"
        )
    return SCALES[name]


@dataclass(frozen=True)
class CampaignRecord:
    """Timing/provenance of one campaign the laboratory served."""

    benchmark: str
    heap: bool
    n_layouts: int
    measured: int
    seconds: float

    @property
    def layouts_per_second(self) -> float:
        """Measurement throughput (0 when nothing was measured)."""
        if self.measured == 0 or self.seconds <= 0:
            return 0.0
        return self.measured / self.seconds

    @property
    def source(self) -> str:
        """Where the campaign came from: ``cache`` or ``measured``."""
        return "cache" if self.measured == 0 else "measured"

    def render(self) -> str:
        """One progress line for CLI output."""
        kind = "heap campaign" if self.heap else "campaign"
        if self.measured == 0:
            return (
                f"{kind} {self.benchmark}: {self.n_layouts} layouts "
                f"from cache ({self.seconds:.2f}s)"
            )
        return (
            f"{kind} {self.benchmark}: {self.measured}/{self.n_layouts} "
            f"layouts measured in {self.seconds:.2f}s "
            f"({self.layouts_per_second:.1f} layouts/s)"
        )


class Laboratory:
    """Shared state for all experiment regenerators.

    Observation sets are cached per benchmark, so experiments that
    consume the same campaign (Fig. 1, Fig. 2, Fig. 6, Table 1, Figs.
    7-8) measure each layout exactly once per process — and, with a
    ``cache_dir``, exactly once across processes: campaigns are served
    from the disk-backed :class:`~repro.store.CampaignStore` keyed by
    (benchmark, scale, machine seed, heap flag, format version) before
    anything is measured.

    ``workers`` enables process-level fan-out of suite-wide campaigns
    through :class:`~repro.core.park.MachinePark`; results are
    bit-identical to serial runs (every observation is a pure function
    of machine config, machine seed, benchmark, and layout index).

    Fault tolerance: every campaign runs under a retry budget
    (``max_retries``, default ``REPRO_MAX_RETRIES`` or 2) with
    exponential backoff; transient failures — flaky counter reads that
    outlast the read-level re-reads, crashed workers, corrupt cache
    files — are retried, and because retries re-run the same pure
    function, recovered campaigns stay bit-identical.  All incidents
    accumulate in ``failure_report``; a campaign that exhausts its
    budget raises :class:`~repro.errors.CampaignExecutionError`.
    ``fail_fast`` aborts suite prefetches at the first such failure
    instead of continuing with the remaining campaigns.

    Supervision: ``deadline_seconds`` bounds every campaign execution
    (hung campaigns are killed, recorded as *timed_out*, and re-run
    under the retry budget); with a ``cache_dir`` the lab keeps a
    crash-safe :class:`~repro.journal.SuiteJournal` beside the store,
    and ``resume=True`` replays it (into ``resumed``) so an interrupted
    suite re-measures exactly the missing slices via the store's prefix
    machinery.  A :class:`~repro.core.supervise.ShutdownHandler` passed
    as ``shutdown`` is polled between campaigns: once a drain is
    requested, in-flight campaigns finish and nothing new starts.
    """

    def __init__(
        self,
        scale: Scale | None = None,
        machine_seed: int = 1,
        cache_dir: str | Path | None = None,
        workers: int = 0,
        max_retries: int | None = None,
        fail_fast: bool = False,
        deadline_seconds: float | None = None,
        resume: bool = False,
        shutdown: ShutdownHandler | None = None,
    ) -> None:
        if workers < 0:
            raise ConfigurationError(f"workers must be >= 0, got {workers}")
        if resume and cache_dir is None:
            raise ConfigurationError(
                "resume requires a cache_dir: the suite journal and the "
                "campaign store live there"
            )
        self.scale = scale if scale is not None else scale_from_env()
        self.machine_seed = machine_seed
        self.workers = workers
        self.retry_policy = RetryPolicy.from_env(max_retries, deadline_seconds)
        self.fail_fast = fail_fast
        self.shutdown = shutdown
        self.failure_report = FailureReport()
        self.journal = (
            None
            if cache_dir is None
            else SuiteJournal(Path(cache_dir) / "suite-journal.json")
        )
        #: Replayed journal state when resuming (None otherwise); the
        #: store's prefix machinery remains the data truth — the journal
        #: only reports what the interrupted run was doing.
        self.resumed: JournalState | None = None
        if self.journal is not None:
            if resume:
                self.resumed = self.journal.replay()
            else:
                # A fresh (non-resumed) suite starts with a clean
                # journal; the campaign store is untouched either way.
                self.journal.clear()
        self.machine = XeonE5440(seed=machine_seed)
        self.interferometer = Interferometer(
            self.machine, trace_events=self.scale.trace_events
        )
        self.heap_interferometer = Interferometer(
            self.machine, trace_events=self.scale.trace_events, randomize_heap=True
        )
        self.store = None if cache_dir is None else CampaignStore(cache_dir)
        self.suite = spec2006()
        self.mase_suite = mase_suite()
        self.campaign_log: list[CampaignRecord] = []
        #: Optional observer called after every campaign (CLI progress).
        self.on_campaign: Callable[[CampaignRecord], None] | None = None
        self._observations: dict[str, ObservationSet] = {}
        self._heap_observations: dict[str, ObservationSet] = {}
        # The campaign serving layer (repro.serve) calls observations()
        # from executor threads while the owning process may touch the
        # same memoization dicts from its main thread; the lock keeps
        # the dict updates race-free (ASYNC003's discipline).
        self._memory_lock = threading.Lock()
        self._evaluations: dict[str, PredictorEvaluation] = {}
        self._significant: list[str] | None = None

    def benchmark(self, name: str) -> Benchmark:
        """Look up a benchmark (suite member or MASE-only)."""
        return self.suite.get(name) or get_benchmark(name)

    # ------------------------------------------------------------------
    # Campaign plumbing: memory cache -> disk store -> interferometer.
    # ------------------------------------------------------------------

    def _interferometer_for(self, heap: bool) -> Interferometer:
        return self.heap_interferometer if heap else self.interferometer

    def _campaign_key(self, name: str, heap: bool) -> CampaignKey:
        """The store key of one benchmark's campaign at this lab's scale."""
        return CampaignKey.for_interferometer(self._interferometer_for(heap), name)

    def _record(
        self, name: str, heap: bool, measured: int, seconds: float
    ) -> None:
        record = CampaignRecord(
            benchmark=name,
            heap=heap,
            n_layouts=self.scale.n_layouts,
            measured=measured,
            seconds=seconds,
        )
        self.campaign_log.append(record)
        if self.on_campaign is not None:
            self.on_campaign(record)

    def _supervisor(self) -> Supervisor:
        """The shared supervised path, over this lab's current settings."""
        return Supervisor(
            self.retry_policy, self.failure_report, self.journal, self.shutdown
        )

    def _measure_campaign_once(self, name: str, heap: bool) -> ObservationSet:
        """Serve one campaign: disk store first, interferometer on miss."""
        start = telemetry.tick_seconds()
        result, measured = self._fetch(name, heap, self._measurer(name, heap))
        self._record(name, heap, measured, telemetry.tick_seconds() - start)
        return result

    def _measurer(self, name: str, heap: bool) -> MeasureFn:
        """Measure layouts of one campaign with this lab's interferometer."""
        interferometer = self._interferometer_for(heap)
        benchmark = self.benchmark(name)

        def measure(start_index: int, n: int) -> Sequence[Observation]:
            faults.hang_point(name)
            return interferometer.observe(
                benchmark, n_layouts=n, start_index=start_index
            ).observations

        return measure

    def _fetch(
        self,
        name: str,
        heap: bool,
        measure: MeasureFn,
        stored: ObservationSet | None = None,
    ) -> tuple[ObservationSet, int]:
        """One campaign through the store (if any); ``(result, measured)``.

        Without a store the whole campaign comes from *measure*.
        """
        measured = 0

        def counted(start_index: int, n: int) -> Sequence[Observation]:
            nonlocal measured
            fresh = measure(start_index, n)
            measured = len(fresh)
            return fresh

        if self.store is None:
            result = ObservationSet(benchmark=name)
            result.extend(counted(0, self.scale.n_layouts))
        else:
            result = self.store.get(
                self._campaign_key(name, heap),
                self.scale.n_layouts,
                counted,
                stored,
            )
        return result, measured

    def _campaign(self, name: str, heap: bool) -> ObservationSet:
        """One campaign, memoized in this process.

        A campaign not yet in memory runs through the shared
        :meth:`Supervisor.measure`: journaled, under the deadline and
        retry budget, with its incidents recorded; exhaustion raises
        :class:`~repro.errors.CampaignExecutionError` naming it.  It is
        measured by this lab's own interferometer, so the machine's
        memo is reused.
        """
        memory = self._heap_observations if heap else self._observations
        with self._memory_lock:
            cached = memory.get(name)
        if cached is None:
            cached = self._supervisor().measure(
                lambda: self._measure_campaign_once(name, heap),
                name, heap, 0, self.scale.n_layouts,
            )
            with self._memory_lock:
                memory[name] = cached
        return cached

    def observations(self, name: str) -> ObservationSet:
        """The code-reordering campaign for one benchmark (cached)."""
        return self._campaign(name, heap=False)

    def heap_observations(self, name: str) -> ObservationSet:
        """The code+heap randomization campaign (cached)."""
        return self._campaign(name, heap=True)

    def prefetch(
        self, names: Sequence[str] | None = None, heap: bool = False
    ) -> None:
        """Warm the campaign caches for several benchmarks at once.

        With ``workers == 0`` each campaign is served in turn through
        the ordinary supervised path.  Otherwise campaigns already in
        memory or fully present in the disk store are loaded in place;
        the rest fan out over ``workers`` processes through a
        single-machine :class:`MachinePark` carrying this laboratory's
        machine seed and configuration, so the fanned-out measurements
        are bit-identical to the serial path.  Partially stored
        campaigns are resumed: only the missing layout suffix is
        measured.  Either way a drain request stops new campaigns, and
        an exhausted campaign is recorded in ``failure_report`` and
        skipped (or raised, under ``fail_fast``).
        """
        names = list(self.suite) if names is None else list(names)
        memory = self._heap_observations if heap else self._observations
        missing = [n for n in dict.fromkeys(names) if n not in memory]
        supervisor = self._supervisor()
        if self.workers == 0:
            for name in missing:
                if supervisor.draining:
                    break  # nothing new starts
                try:
                    self._campaign(name, heap)
                except CampaignExecutionError:
                    # Recorded in failure_report; keep serving the rest
                    # of the suite unless the caller wants to stop.
                    if self.fail_fast:
                        raise
            return
        stored: dict[str, ObservationSet | None] = {}
        for name in missing:
            start = telemetry.tick_seconds()
            campaign = (
                None if self.store is None
                else self.store.load(self._campaign_key(name, heap))
            )
            if campaign is not None and len(campaign) >= self.scale.n_layouts:
                # Fully stored: serve it without measuring (a hit).
                result, _ = self._fetch(
                    name, heap, self._measurer(name, heap), campaign
                )
                with self._memory_lock:
                    memory[name] = result
                self._record(name, heap, 0, telemetry.tick_seconds() - start)
            else:
                stored[name] = campaign
        if not stored:
            return
        park = MachinePark(
            machine_seeds=[self.machine_seed],
            config=self.machine.config,
            trace_events=self.scale.trace_events,
            runs_per_group=self.interferometer.runs_per_group,
        )
        start = telemetry.tick_seconds()
        suffixes = park.observe_suite(
            list(stored),
            n_layouts=self.scale.n_layouts,
            randomize_heap=heap,
            workers=self.workers,
            start_indices={
                name: 0 if campaign is None else len(campaign)
                for name, campaign in stored.items()
            },
            retry_policy=supervisor.policy,
            report=supervisor.report,
            fail_fast=self.fail_fast,
            journal=supervisor.journal,
            shutdown=supervisor.shutdown,
        )
        per_campaign = (telemetry.tick_seconds() - start) / len(stored)
        for name, campaign in stored.items():
            suffix = suffixes.get(name)
            if suffix is None:
                # Failed after its full retry budget (the incident is
                # in failure_report) or never started (drained).  Cache
                # nothing — a short observation set must never
                # masquerade as a complete campaign.
                continue
            result, measured = self._fetch(
                name, heap, lambda start_index, n: suffix.observations, campaign
            )
            with self._memory_lock:
                memory[name] = result
            self._record(name, heap, measured, per_campaign)

    def model(self, name: str) -> PerformanceModel:
        """The CPI-on-MPKI model of one benchmark."""
        return PerformanceModel.from_observations(self.observations(name))

    def significant_benchmarks(self, alpha: float = 0.05) -> list[str]:
        """Benchmarks whose CPI/MPKI correlation passes the t-test (§6.4)."""
        if self._significant is None:
            names = []
            for name in self.suite:
                try:
                    if self.model(name).is_significant(alpha):
                        names.append(name)
                except ModelError:
                    # Zero-variance MPKI: no line can be fit, so the
                    # benchmark cannot be significant.  Anything else
                    # (measurement failures, bad configs) propagates —
                    # swallowing it would silently hide regressions.
                    continue
            self._significant = names
        return self._significant

    def evaluation(self, name: str) -> PredictorEvaluation:
        """The §7 predictor evaluation for one benchmark (cached).

        L-TAGE is expensive to simulate per layout; at reduced scales it
        is evaluated on the first ``ltage_layouts`` reorderings while
        the cheaper predictors use the full campaign (documented
        scale-reduction; at ``paper`` scale everything uses all 100).
        """
        cached = self._evaluations.get(name)
        if cached is not None:
            return cached
        observations = self.observations(name)
        benchmark = self.benchmark(name)
        fast = PredictorEvaluator(self.interferometer, gas_hybrid_family())
        evaluation = fast.evaluate(benchmark, observations)
        # L-TAGE on a layout subset.
        subset = ObservationSet(benchmark=name)
        subset.extend(observations.observations[: self.scale.ltage_layouts])
        slow = PredictorEvaluator(self.interferometer, [LTagePredictor()])
        ltage_eval = slow.evaluate(benchmark, subset)
        ltage_outcome = ltage_eval.outcomes[0]
        # Re-predict CPI with the *full* model for consistency.
        merged = PredictorEvaluation(
            benchmark=evaluation.benchmark,
            real_mean_mpki=evaluation.real_mean_mpki,
            real_mean_cpi=evaluation.real_mean_cpi,
            real_cpi_confidence=evaluation.real_cpi_confidence,
            outcomes=evaluation.outcomes
            + (
                type(ltage_outcome)(
                    predictor=ltage_outcome.predictor,
                    mean_mpki=ltage_outcome.mean_mpki,
                    predicted_cpi=evaluation.model.predict(ltage_outcome.mean_mpki),
                ),
            ),
            model=evaluation.model,
        )
        self._evaluations[name] = merged
        return merged


_GLOBAL_LAB: Laboratory | None = None


def get_lab() -> Laboratory:
    """The process-wide laboratory (created on first use)."""
    global _GLOBAL_LAB
    if _GLOBAL_LAB is None:
        _GLOBAL_LAB = Laboratory()
    return _GLOBAL_LAB


def reset_lab() -> None:
    """Drop the process-wide laboratory and its caches."""
    global _GLOBAL_LAB
    _GLOBAL_LAB = None
