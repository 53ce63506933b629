"""Sample-size escalation (§6.3).

"We sample a number of code reorderings in multiples of 100 until the
benchmark is able to reject the null hypothesis, or until by inspection
we determine that the benchmark is unlikely to reject the null
hypothesis with a much larger number of samples.  ...  We do not
discard any data: we use the data from each reordering."
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable

from repro.core.interferometer import Interferometer
from repro.core.model import PerformanceModel
from repro.core.observations import ObservationSet
from repro.errors import ConfigurationError
from repro.workloads.suite import Benchmark

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids an import cycle
    from repro.store import CampaignStore


def _escalate(
    interferometer: Interferometer,
    benchmark: Benchmark,
    store: "CampaignStore | None",
    batch: int,
    max_samples: int,
    done: Callable[[ObservationSet], bool],
) -> ObservationSet:
    """Grow one campaign in batches until ``done`` holds or the budget ends.

    ``done`` is asked about the cached prefix (when it has at least 3
    layouts) before anything new is measured, then after every batch.
    With a store, escalation resumes from whatever was already measured,
    persists every newly appended layout as soon as it completes, and
    is accounted by :meth:`CampaignStore.get` — a hit when nothing new
    was measured, else one miss; without one, it starts empty and keeps
    nothing.
    """
    observations = ObservationSet(benchmark=benchmark.name)
    # What was stored before escalating (empty when nothing was): the
    # sink rewrites the store file as layouts land, so the accounting
    # below must not reload it.
    stored = ObservationSet(benchmark=benchmark.name)
    sink = None
    if store is not None:
        from repro.store import CampaignKey

        key = CampaignKey.for_interferometer(interferometer, benchmark.name)
        loaded = store.load(key)
        if loaded is not None:
            stored = loaded
            observations.extend(stored.observations[:max_samples])
        sink = store.sink(key)
    finished = len(observations) >= 3 and done(observations)
    while not finished and len(observations) < max_samples:
        n_more = min(batch, max_samples - len(observations))
        interferometer.extend(benchmark, observations, n_more, sink=sink)
        finished = done(observations)
    if store is not None:
        store.get(
            key,
            len(observations),
            lambda start, n: observations.observations[start:],
            stored,
        )
    return observations


@dataclass(frozen=True)
class EscalationResult:
    """Outcome of an escalation campaign for one benchmark."""

    benchmark: str
    observations: ObservationSet
    significant: bool
    samples_used: int
    p_values: tuple[float, ...]

    @property
    def rounds(self) -> int:
        """How many sampling rounds were run."""
        return len(self.p_values)


class SampleEscalation:
    """Adds layouts in fixed batches until the t-test passes.

    Parameters
    ----------
    interferometer:
        The measurement driver.
    batch:
        Layouts added per round (100 in the paper).
    max_samples:
        Give-up threshold (300 in the paper: "a few require 300").
    alpha:
        Significance level.
    store:
        Optional campaign store: escalation resumes from the cached
        campaign and persists every appended layout incrementally.
    """

    def __init__(
        self,
        interferometer: Interferometer,
        batch: int = 100,
        max_samples: int = 300,
        alpha: float = 0.05,
        x_metric: str = "mpki",
        y_metric: str = "cpi",
        store: "CampaignStore | None" = None,
    ) -> None:
        if batch <= 0 or max_samples < batch:
            raise ConfigurationError(
                f"need 0 < batch <= max_samples, got batch={batch}, max={max_samples}"
            )
        self.interferometer = interferometer
        self.batch = batch
        self.max_samples = max_samples
        self.alpha = alpha
        self.x_metric = x_metric
        self.y_metric = y_metric
        self.store = store

    def _test_round(self, observations: ObservationSet) -> tuple[float, bool]:
        model = PerformanceModel.from_observations(
            observations, x_metric=self.x_metric, y_metric=self.y_metric
        )
        test = model.significance()
        return test.p_value, test.rejects_null(self.alpha)

    def run(self, benchmark: Benchmark) -> EscalationResult:
        """Escalate sampling for one benchmark; keep all data."""
        p_values: list[float] = []
        significant = False

        def test(observations: ObservationSet) -> bool:
            nonlocal significant
            p_value, significant = self._test_round(observations)
            p_values.append(p_value)
            return significant

        observations = _escalate(
            self.interferometer, benchmark, self.store, self.batch,
            self.max_samples, test,
        )
        return EscalationResult(
            benchmark=benchmark.name,
            observations=observations,
            significant=significant,
            samples_used=len(observations),
            p_values=tuple(p_values),
        )


@dataclass(frozen=True)
class PrecisionResult:
    """Outcome of a precision-targeted campaign."""

    benchmark: str
    observations: ObservationSet
    achieved: bool
    samples_used: int
    half_widths: tuple[float, ...]


class PrecisionEscalation:
    """Sample until the perfect-prediction PI is tight enough.

    A natural extension of §6.3: instead of stopping at bare statistical
    significance, stop when the quantity the study actually reports —
    the 95% prediction interval of CPI at 0 MPKI (Table 1's Low/High) —
    reaches a target relative half-width.
    """

    def __init__(
        self,
        interferometer: Interferometer,
        batch: int = 50,
        max_samples: int = 400,
        target_percent_half_width: float = 3.0,
        x0: float = 0.0,
        store: "CampaignStore | None" = None,
    ) -> None:
        if batch <= 0 or max_samples < batch:
            raise ConfigurationError(
                f"need 0 < batch <= max_samples, got batch={batch}, max={max_samples}"
            )
        if target_percent_half_width <= 0.0:
            raise ConfigurationError(
                f"target half-width must be positive, got {target_percent_half_width}"
            )
        self.interferometer = interferometer
        self.batch = batch
        self.max_samples = max_samples
        self.target_percent_half_width = target_percent_half_width
        self.x0 = x0
        self.store = store

    def _half_width_round(self, observations: ObservationSet) -> float:
        model = PerformanceModel.from_observations(observations)
        prediction = model.predict(self.x0)
        return prediction.prediction.percent_half_width

    def run(self, benchmark: Benchmark) -> PrecisionResult:
        """Sample until the PI at ``x0`` is tight enough, or give up."""
        half_widths: list[float] = []
        achieved = False

        def tight(observations: ObservationSet) -> bool:
            nonlocal achieved
            percent = self._half_width_round(observations)
            half_widths.append(percent)
            achieved = percent <= self.target_percent_half_width
            return achieved

        observations = _escalate(
            self.interferometer, benchmark, self.store, self.batch,
            self.max_samples, tight,
        )
        return PrecisionResult(
            benchmark=benchmark.name,
            observations=observations,
            achieved=achieved,
            samples_used=len(observations),
            half_widths=tuple(half_widths),
        )
