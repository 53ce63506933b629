"""Supervised execution: the campaign runner, deadlines, breaker, shutdown.

The paper's campaigns run for days across four machines (§5.4); at that
horizon the interesting failures are not crashes (PR 2's territory) but
*silence* — a worker that never returns — and *termination* — an
operator or scheduler killing the process mid-suite.  This module holds
the one supervised campaign path and the mechanisms it composes:

* :class:`Supervisor` — what every campaign runs under (retry budget
  and deadline, incident report, suite journal, drain signal).  Its
  :meth:`~Supervisor.run` is the single retry loop shared by the
  :class:`~repro.harness.lab.Laboratory` and the
  :class:`~repro.core.park.MachinePark`, and its ``begin``/``commit``
  are the only writers of the journal.
* :func:`run_with_deadline` — a monotonic-clock watchdog for the serial
  path: the campaign runs in a daemon thread and a hang surfaces as a
  :class:`~repro.errors.CampaignTimeoutError` after ``deadline_seconds``
  instead of blocking forever.  (The pool path gets the same guarantee
  from ``future.result(timeout=...)`` plus killing the worker.)
* :class:`CircuitBreaker` — after K *consecutive* worker-pool failures
  (broken pool or deadline expiry) the suite stops re-creating pools
  and degrades the remainder to supervised serial execution; the trip
  reason is recorded in the :class:`~repro.faults.FailureReport`.
* :class:`ShutdownHandler` — SIGINT/SIGTERM become a *drain* request
  checked at safe points between campaigns: in-flight work completes
  and is journaled, nothing new starts, and the process exits with the
  documented partial-results code so ``--resume`` measures exactly the
  missing slices.

Everything here lives outside the measurement closure: supervision
decides *when and where* a campaign runs, never *what* it measures, so
recovered results stay bit-identical (each campaign is a pure function
of its key).
"""

from __future__ import annotations

import signal
import threading
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, TypeVar

from repro import telemetry
from repro.errors import (
    CampaignExecutionError,
    CampaignTimeoutError,
    ConfigurationError,
    ShutdownRequested,
    TransientError,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.faults import FailureReport, RetryPolicy
    from repro.journal import SuiteJournal

__all__ = [
    "DEFAULT_BREAKER_THRESHOLD",
    "CircuitBreaker",
    "ShutdownHandler",
    "Supervisor",
    "run_with_deadline",
]

T = TypeVar("T")

#: Consecutive worker-pool failures tolerated before the breaker trips
#: and the remainder of a suite degrades to supervised serial execution.
DEFAULT_BREAKER_THRESHOLD = 3


class _Outcome:
    """Result slot shared between the watchdog and its work thread."""

    __slots__ = ("value", "error", "done")

    def __init__(self) -> None:
        self.value: object = None
        self.error: BaseException | None = None
        self.done = False


def run_with_deadline(
    fn: Callable[[], T],
    deadline_seconds: float | None,
    describe: str = "task",
) -> T:
    """Run ``fn()`` under a wall-clock deadline (the serial watchdog).

    ``fn`` executes in a daemon thread while this thread watches a
    monotonic clock.  On expiry a
    :class:`~repro.errors.CampaignTimeoutError` is raised and the
    worker thread is *abandoned* — a truly hung function cannot be
    killed in-process, but a daemon thread dies with the process and
    injected hangs (:func:`repro.faults.hang`) are bounded by the
    plan's ``hang_seconds``.  With ``deadline_seconds=None`` the call
    is a plain ``fn()`` — zero supervision overhead.

    The abandoned thread's eventual result (or error) is discarded; the
    caller re-runs the same pure function under its retry budget, so
    recovery is bit-identical.
    """
    if deadline_seconds is None:
        return fn()
    if deadline_seconds <= 0:
        raise ConfigurationError(
            f"deadline_seconds must be > 0, got {deadline_seconds}"
        )
    outcome = _Outcome()

    def work() -> None:
        try:
            outcome.value = fn()
        except BaseException as exc:  # propagated below, never swallowed
            outcome.error = exc
        finally:
            outcome.done = True

    thread = threading.Thread(
        target=work, name=f"deadline-watchdog:{describe}", daemon=True
    )
    started = telemetry.tick_seconds()
    thread.start()
    remaining = deadline_seconds
    while remaining > 0:
        thread.join(remaining)
        if not thread.is_alive():
            break
        # join() can return early; re-check against the monotonic clock.
        remaining = deadline_seconds - (telemetry.tick_seconds() - started)
    if thread.is_alive() or not outcome.done:
        raise CampaignTimeoutError(
            f"{describe} exceeded its {deadline_seconds:g}s deadline; "
            "execution abandoned",
            benchmark=describe,
            deadline_seconds=deadline_seconds,
        )
    if outcome.error is not None:
        raise outcome.error
    return outcome.value  # type: ignore[return-value]


class CircuitBreaker:
    """Trip after K consecutive worker-pool failures.

    The parallel suite path re-creates its process pool after a break
    (a killed hung worker, a hard-crashed one) so healthy campaigns
    keep their parallelism — but a systematically failing environment
    would re-create pools forever.  The breaker counts *consecutive*
    pool failures; at ``threshold`` it trips, the suite stops paying
    pool-construction cost, and the remainder runs supervised-serially.
    A completed campaign resets the count (the pool is evidently
    functional); a tripped breaker stays tripped for the rest of the
    suite.
    """

    def __init__(self, threshold: int = DEFAULT_BREAKER_THRESHOLD) -> None:
        if threshold < 1:
            raise ConfigurationError(
                f"breaker threshold must be >= 1, got {threshold}"
            )
        self.threshold = threshold
        self.consecutive_failures = 0
        self.tripped = False
        self.reason: str | None = None

    def record_success(self) -> None:
        """A campaign completed in the pool: the failure streak resets."""
        if not self.tripped:
            self.consecutive_failures = 0

    def record_failure(self, kind: str) -> bool:
        """One worker-pool failure; returns True if the breaker is tripped."""
        self.consecutive_failures += 1
        if not self.tripped and self.consecutive_failures >= self.threshold:
            self.tripped = True
            self.reason = (
                f"{self.consecutive_failures} consecutive worker-pool "
                f"failure(s), last: {kind}; degrading the remaining "
                "campaigns to supervised serial execution"
            )
        return self.tripped


class ShutdownHandler:
    """Turn SIGINT/SIGTERM into a graceful drain request.

    While installed (as a context manager), the first signal only sets
    :attr:`requested`; supervisors poll it (or call :meth:`check`)
    between campaigns, finish what is in flight, flush the journal,
    and exit with the partial-results code.  A *second* signal restores
    the previous handlers and re-raises — the operator's escalation
    path when draining is not fast enough.

    Installation is a no-op outside the main thread (Python only
    delivers signals there); :meth:`request` provides the programmatic
    equivalent for tests and embedders.
    """

    def __init__(self) -> None:
        # An Event, not a bool: set()/is_set() are atomic on the C
        # object, so the signal context and any polling thread agree
        # without a lock (CONC002's sanctioned Event discipline).
        self._requested = threading.Event()
        self.signal_name: str | None = None
        self._previous: list[tuple[int, object]] = []

    @property
    def requested(self) -> bool:
        """True once a shutdown signal (or :meth:`request`) arrived."""
        return self._requested.is_set()

    def request(self, name: str = "request()") -> None:
        """Programmatically request a drain (what a signal would do)."""
        # Name first, then the event: a reader that observes the event
        # set is guaranteed to observe the name that caused it.
        if self.signal_name is None:
            self.signal_name = name
        self._requested.set()

    def check(self) -> None:
        """Raise :class:`~repro.errors.ShutdownRequested` if draining."""
        if self._requested.is_set():
            raise ShutdownRequested(
                f"graceful shutdown requested ({self.signal_name}); "
                "draining in-flight campaigns",
                signal_name=self.signal_name,
            )

    def _handle(self, signum: int, frame: object) -> None:
        if self._requested.is_set():
            # Second signal: the operator wants out *now*.  Restore the
            # previous handlers and re-deliver default behaviour.
            self._restore()
            # repro: allow-EXC001 the escalation path must abort the drain the way an unhandled signal would; KeyboardInterrupt is the documented contract for a second SIGINT
            raise KeyboardInterrupt(
                f"second {signal.Signals(signum).name}; aborting drain"
            )
        self.request(signal.Signals(signum).name)

    def _restore(self) -> None:
        # Swap the list out with one plain (GIL-atomic) store and walk
        # the local copy: the signal context and the main context can
        # both call _restore without a torn pop()-driven interleaving,
        # and a second restore sees an empty list (idempotent).
        previous = self._previous
        self._previous = []
        for signum, handler in reversed(previous):
            signal.signal(signum, handler)

    def __enter__(self) -> "ShutdownHandler":
        if threading.current_thread() is not threading.main_thread():
            return self
        installed: list[tuple[int, object]] = []
        try:
            for signum in (signal.SIGINT, signal.SIGTERM):
                installed.append((signum, signal.getsignal(signum)))
                signal.signal(signum, self._handle)
        except BaseException:
            # A partial install may not leak: put back whatever was
            # replaced before re-raising.
            for signum, handler in reversed(installed):
                signal.signal(signum, handler)
            raise
        # Publish with a single atomic store only once fully installed.
        self._previous = installed
        return self

    def __exit__(self, *exc_info: object) -> None:
        self._restore()


@dataclass
class Supervisor:
    """What every campaign of a suite runs under.

    ``policy`` holds the retry budget and the per-execution deadline,
    ``report`` collects the incidents, ``journal`` (optional) is the
    suite's write-ahead log and ``shutdown`` (optional) the drain
    signal.  The Laboratory's serial path and the MachinePark's serial
    and pool paths all go through one instance of this protocol.
    """

    policy: "RetryPolicy"
    report: "FailureReport"
    journal: "SuiteJournal | None" = None
    shutdown: ShutdownHandler | None = None

    @property
    def draining(self) -> bool:
        """True once a drain was requested: nothing new may start."""
        return self.shutdown is not None and self.shutdown.requested

    def begin(self, benchmark: str, heap: bool, start_index: int, stop: int) -> None:
        """Journal that layouts ``[start_index, stop)`` are about to run."""
        if self.journal is not None:
            self.journal.record_begin(benchmark, heap, start_index, stop)

    def commit(self, benchmark: str, heap: bool, stop: int) -> None:
        """Journal that the campaign is complete through *stop* layouts."""
        if self.journal is not None:
            self.journal.record_commit(benchmark, heap, stop)

    def run(self, fn: Callable[[], T], benchmark: str, heap: bool = False) -> T:
        """Run one campaign callable under the retry budget.

        Every execution runs under :func:`run_with_deadline` with the
        policy's deadline.  A transient failure re-runs the whole
        (pure) campaign after an exponential backoff; a deadline expiry
        is recorded as a *timed_out* incident and consumes one retry.
        Success after retries is recorded as *recovered*; exhaustion as
        *failed*, raising :class:`~repro.errors.CampaignExecutionError`
        naming the campaign instead of leaking a raw traceback.
        """
        attempts = 0
        slept = 0.0
        while True:
            try:
                result = run_with_deadline(
                    fn, self.policy.deadline_seconds, describe=benchmark
                )
                break
            except TransientError as exc:
                attempts += 1
                last_error = exc
                if isinstance(exc, CampaignTimeoutError):
                    self.report.record(
                        benchmark, "timed_out", attempts=attempts,
                        error=str(exc), heap=heap,
                    )
                if attempts > self.policy.max_retries:
                    self.report.record(
                        benchmark, "failed", attempts=attempts,
                        error=str(exc), heap=heap,
                    )
                    raise CampaignExecutionError(
                        f"campaign {benchmark!r} failed after {attempts} "
                        f"attempt(s): {exc}",
                        benchmark=benchmark,
                        attempts=attempts,
                    ) from exc
                slept += self.policy.sleep(attempts - 1, already_slept=slept)
        if attempts:
            self.report.record(
                benchmark,
                "recovered",
                attempts=attempts + 1,
                error=f"transient failure(s), last: {last_error}",
                heap=heap,
            )
        return result

    def measure(
        self,
        fn: Callable[[], T],
        benchmark: str,
        heap: bool,
        start_index: int,
        stop: int,
    ) -> T:
        """Journal ``begin``, :meth:`run`, then journal ``commit``."""
        self.begin(benchmark, heap, start_index, stop)
        result = self.run(fn, benchmark, heap)
        self.commit(benchmark, heap, stop)
        return result
