"""Branch predictor interface."""

from __future__ import annotations

from abc import ABC, abstractmethod

import numpy as np

from repro import units
from repro.errors import ConfigurationError
from repro.uarch.vector import require_engine


def require_power_of_two(value: int, what: str) -> int:
    """Validate that *value* is a positive power of two and return it."""
    if value <= 0 or (value & (value - 1)) != 0:
        raise ConfigurationError(f"{what} must be a positive power of two, got {value}")
    return value


class BranchPredictor(ABC):
    """A conditional branch direction predictor.

    Predictors are stateful; :meth:`reset` restores the power-on state so
    one instance can be reused across runs ("we control the initial
    conditions of the simulator", §7.2).  Bulk simulation goes through
    :meth:`simulate`, which offers two engines with bit-identical
    counts: ``"vector"`` (numpy kernels from :mod:`repro.uarch.vector`,
    via :meth:`_vector_mispredict_mask`, falling back to :meth:`_run`)
    and ``"scalar"`` (the per-event :meth:`predict_and_update` loop,
    kept as the differential-testing oracle).
    """

    #: Human-readable predictor name (e.g. ``"GAs-8KB"``).
    name: str = "predictor"

    @abstractmethod
    def reset(self) -> None:
        """Restore the power-on state."""

    @abstractmethod
    def predict_and_update(self, pc: int, outcome: int) -> bool:
        """Predict the branch at *pc*, then train with *outcome*.

        Returns True when the prediction was correct.
        """

    def storage_bits(self) -> int:
        """Approximate hardware budget of the prediction tables, in bits."""
        return 0

    def simulate(
        self,
        addresses: np.ndarray,
        outcomes: np.ndarray,
        warmup: int = 0,
        engine: str = "vector",
    ) -> int:
        """Run the predictor over a bound trace; return mispredictions.

        The predictor is reset, then the whole trace is executed; only
        mispredictions of events with index >= *warmup* are counted.
        The warm-up window plays the role SimPoint warming plays in the
        paper's simulations: our canonical traces are short slices, so
        counting cold-start transients would distort event rates.

        *engine* selects the implementation, never the semantics:
        ``"vector"`` uses the numpy batch kernels, ``"scalar"`` the
        per-event :meth:`predict_and_update` oracle loop; both produce
        identical counts (enforced by the differential test suite).
        """
        if warmup < 0:
            raise ConfigurationError(f"warmup must be >= 0, got {warmup}")
        require_engine(engine)
        self.reset()
        if engine == "scalar":
            return self._run_oracle(addresses, outcomes, warmup)
        mask = self._vector_mispredict_mask(addresses, outcomes)
        if mask is not None:
            return int(np.count_nonzero(mask[warmup:]))
        if warmup > 0:
            self._run(addresses[:warmup], outcomes[:warmup])
            return self._run(addresses[warmup:], outcomes[warmup:])
        return self._run(addresses, outcomes)

    def _run_oracle(
        self, addresses: np.ndarray, outcomes: np.ndarray, warmup: int
    ) -> int:
        """Reference per-event loop: the differential-testing oracle."""
        mispredicts = 0
        predict = self.predict_and_update
        for i, (pc, outcome) in enumerate(
            zip(addresses.tolist(), outcomes.tolist())
        ):
            if not predict(pc, outcome) and i >= warmup:
                mispredicts += 1
        return mispredicts

    def _vector_mispredict_mask(
        self, addresses: np.ndarray, outcomes: np.ndarray
    ) -> np.ndarray | None:
        """Full-trace mispredict mask from the vector kernels, or None.

        Subclasses with an array formulation return a bool array (one
        entry per event) and leave their tables in the post-trace
        state; returning None routes the vector engine through
        :meth:`_run`.
        """
        return None

    def _run(self, addresses: np.ndarray, outcomes: np.ndarray) -> int:
        """Execute a trace slice *without* resetting; return mispredictions.

        The default implementation calls :meth:`predict_and_update` per
        event; subclasses without a vector kernel override this with
        fused loops.
        """
        mispredicts = 0
        predict = self.predict_and_update
        # repro: allow-PERF001 per-event bulk fallback for the predictors without an array formulation — the perceptron's dot-product threshold training updates its weights along the event chain (ROADMAP item 1 tracks its conversion)
        for pc, outcome in zip(addresses.tolist(), outcomes.tolist()):
            if not predict(pc, outcome):
                mispredicts += 1
        return mispredicts

    def mpki(
        self,
        addresses: np.ndarray,
        outcomes: np.ndarray,
        instructions: int,
        warmup: int = 0,
    ) -> units.Mpki:
        """Convenience: mispredictions per kilo retired instruction."""
        if instructions <= 0:
            raise ConfigurationError(f"instructions must be positive, got {instructions}")
        mispredicts = self.simulate(addresses, outcomes, warmup=warmup)
        return units.mpki(mispredicts, instructions)

    def __repr__(self) -> str:
        return f"{type(self).__name__}(name={self.name!r})"
