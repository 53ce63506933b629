"""Supervised execution: deadlines, circuit breaker, journal, shutdown.

The supervision layer decides *when and where* a campaign runs, never
*what* it measures, so every killed-and-retried, degraded, drained, or
resumed campaign must reproduce the exact bits a fault-free run would
have produced.  These tests assert that equality literally — including
across a ``kill -9`` and a ``--resume``.
"""

from __future__ import annotations

import contextlib
import json
import os
import signal
import subprocess
import sys
import textwrap
import threading
import time
from pathlib import Path

import pytest

from repro import faults, telemetry
from repro.core.park import MachinePark
from repro.core.supervise import (
    DEFAULT_BREAKER_THRESHOLD,
    CircuitBreaker,
    ShutdownHandler,
    run_with_deadline,
)
from repro.errors import (
    CampaignExecutionError,
    CampaignTimeoutError,
    ConfigurationError,
    ShutdownRequested,
)
from repro.faults import FailureReport, FaultPlan, RetryPolicy
from repro.harness.lab import Laboratory
from repro.journal import JournalEntry, SuiteJournal

from tests.test_faults import TINY, assert_bit_identical, park  # noqa: F401


#: A hang long enough that any test deadline sees a genuine hang, short
#: enough that abandoned watchdog threads cannot outlive the test run.
HANG = 3.0
DEADLINE = 0.4


class TestRunWithDeadline:
    def test_no_deadline_is_a_plain_call(self):
        calls = []

        def fn():
            calls.append(threading.current_thread())
            return 42

        assert run_with_deadline(fn, None) == 42
        # Zero supervision overhead: same thread, no watchdog.
        assert calls == [threading.main_thread()]

    def test_returns_value_within_deadline(self):
        assert run_with_deadline(lambda: "ok", 30.0) == "ok"

    def test_propagates_error_within_deadline(self):
        def boom():
            raise ConfigurationError("inner failure")

        with pytest.raises(ConfigurationError, match="inner failure"):
            run_with_deadline(boom, 30.0)

    def test_expiry_raises_campaign_timeout(self):
        start = telemetry.tick_seconds()
        with pytest.raises(CampaignTimeoutError) as err:
            run_with_deadline(
                lambda: time.sleep(HANG), DEADLINE, describe="456.hmmer"
            )
        elapsed = telemetry.tick_seconds() - start
        assert DEADLINE <= elapsed < HANG
        assert err.value.benchmark == "456.hmmer"
        assert err.value.deadline_seconds == pytest.approx(DEADLINE)
        assert "deadline" in str(err.value)

    def test_invalid_deadline_rejected(self):
        with pytest.raises(ConfigurationError):
            run_with_deadline(lambda: 1, 0.0)
        with pytest.raises(ConfigurationError):
            run_with_deadline(lambda: 1, -3.0)


class TestCircuitBreaker:
    def test_trips_after_threshold_consecutive_failures(self):
        breaker = CircuitBreaker(threshold=3)
        assert not breaker.record_failure("crash a")
        assert not breaker.record_failure("crash b")
        assert breaker.record_failure("timeout c")
        assert breaker.tripped
        assert "3 consecutive" in breaker.reason
        assert "timeout c" in breaker.reason

    def test_success_resets_the_streak(self):
        breaker = CircuitBreaker(threshold=2)
        breaker.record_failure("x")
        breaker.record_success()
        assert not breaker.record_failure("y")
        assert breaker.record_failure("z")

    def test_stays_tripped(self):
        breaker = CircuitBreaker(threshold=1)
        breaker.record_failure("x")
        breaker.record_success()
        assert breaker.tripped

    def test_threshold_validated(self):
        with pytest.raises(ConfigurationError):
            CircuitBreaker(threshold=0)

    def test_default_threshold(self):
        assert CircuitBreaker().threshold == DEFAULT_BREAKER_THRESHOLD


class TestShutdownHandler:
    def test_programmatic_request_and_check(self):
        handler = ShutdownHandler()
        assert not handler.requested
        handler.check()  # no-op before a request
        handler.request("test")
        assert handler.requested
        with pytest.raises(ShutdownRequested) as err:
            handler.check()
        assert err.value.signal_name == "test"

    def test_first_signal_requests_drain(self):
        before = signal.getsignal(signal.SIGTERM)
        with ShutdownHandler() as handler:
            os.kill(os.getpid(), signal.SIGTERM)
            # Signal delivery happens at the next bytecode boundary.
            deadline = telemetry.tick_seconds() + 5.0
            while not handler.requested:
                assert telemetry.tick_seconds() < deadline
            assert handler.signal_name == "SIGTERM"
        # The previous handler is restored on exit.
        assert signal.getsignal(signal.SIGTERM) == before

    def test_second_signal_escalates(self):
        handler = ShutdownHandler()
        with handler:
            handler.request("SIGINT")
            with pytest.raises(KeyboardInterrupt):
                handler._handle(signal.SIGINT, None)

    def test_install_outside_main_thread_is_noop(self):
        outcome = {}

        def body():
            with ShutdownHandler() as handler:
                outcome["installed"] = bool(handler._previous)

        thread = threading.Thread(target=body)
        thread.start()
        thread.join()
        assert outcome["installed"] is False


class TestShutdownWatchdogInterleaving:
    """The stress scenario: a drain request lands from other threads
    while the serial watchdog is timing out a hung campaign.  Neither
    side holds a lock the other needs — the Event-based handler and the
    join-polling watchdog must interleave freely — so the test asserts
    progress (everything finishes well under the hang bound, i.e. no
    deadlock) and that the measurement closure stayed untouched (a
    post-stress run exports bit-identical results)."""

    def test_drain_during_watchdog_expiry(self, park):
        baseline = park.observe_suite(["470.lbm"], n_layouts=3)
        handler = ShutdownHandler()
        errors: list[str] = []
        done: list[int] = []

        def requester() -> None:
            # Land the drain request mid-deadline, then hammer the
            # read paths the supervisors use while the watchdog is
            # still join-polling the hung work thread.
            time.sleep(DEADLINE / 2)
            handler.request("SIGTERM")
            for _ in range(200):
                if not handler.requested:
                    errors.append("request lost")
                    return
                try:
                    handler.check()
                except ShutdownRequested as exc:
                    if exc.signal_name != "SIGTERM":
                        errors.append(f"wrong name {exc.signal_name!r}")
                        return
                else:
                    errors.append("check() missed the drain")
                    return
            done.append(1)

        threads = [
            threading.Thread(target=requester, daemon=True) for _ in range(4)
        ]
        start = telemetry.tick_seconds()
        for thread in threads:
            thread.start()
        with pytest.raises(CampaignTimeoutError):
            run_with_deadline(
                lambda: time.sleep(HANG), DEADLINE, describe="stress"
            )
        for thread in threads:
            thread.join(HANG)
        elapsed = telemetry.tick_seconds() - start
        assert not any(thread.is_alive() for thread in threads)
        assert not errors
        assert len(done) == len(threads)
        # Progress, not deadlock: the watchdog expired on time and the
        # requesters drained their loops well under the hang bound.
        assert elapsed < HANG

        # The drain semantics survived the interleaving: nothing new
        # starts under the handler...
        assert park.observe_suite(
            ["470.lbm"], n_layouts=3, shutdown=handler
        ) == {}
        # ...and the stress left the measurement closure untouched.
        results = park.observe_suite(["470.lbm"], n_layouts=3)
        assert_bit_identical(baseline["470.lbm"], results["470.lbm"])


class TestSuiteJournal:
    def test_round_trip_and_replay(self, tmp_path):
        journal = SuiteJournal(tmp_path / "suite-journal.json")
        journal.record_begin("456.hmmer", False, 0, 4)
        journal.record_commit("456.hmmer", False, 4)
        journal.record_begin("470.lbm", False, 2, 4)

        fresh = SuiteJournal(journal.path)  # re-read from disk
        state = fresh.replay()
        assert state.committed_layouts("456.hmmer") == 4
        assert not state.interrupted("456.hmmer")
        assert state.committed_layouts("470.lbm") == 0
        assert state.interrupted("470.lbm")
        assert state.interrupted_campaigns == [("470.lbm", False)]
        assert "1 campaign(s) committed" in state.summary()
        assert "1 interrupted" in state.summary()

    def test_heap_and_code_campaigns_are_distinct(self, tmp_path):
        journal = SuiteJournal(tmp_path / "j.json")
        journal.record_begin("403.gcc", True, 0, 4)
        journal.record_commit("403.gcc", True, 4)
        state = journal.replay()
        assert state.committed_layouts("403.gcc", heap=True) == 4
        assert state.committed_layouts("403.gcc", heap=False) == 0

    def test_envelope_is_checksummed_and_stable(self, tmp_path):
        journal = SuiteJournal(tmp_path / "j.json")
        journal.record_begin("456.hmmer", False, 0, 4)
        payload = json.loads(journal.path.read_text())
        assert payload["format_version"] == 1
        assert "checksum" in payload
        # Byte stability: keys are sorted, no timestamps anywhere, so
        # identical histories serialize to identical bytes.
        journal_b = SuiteJournal(tmp_path / "k.json")
        journal_b.record_begin("456.hmmer", False, 0, 4)
        assert journal_b.path.read_text() == journal.path.read_text()

    def test_corrupt_journal_quarantined_and_treated_as_empty(self, tmp_path):
        journal = SuiteJournal(tmp_path / "j.json")
        journal.record_commit("456.hmmer", False, 4)
        journal.path.write_text(journal.path.read_text()[:25])

        fresh = SuiteJournal(journal.path)
        state = fresh.replay()
        assert state.committed_layouts("456.hmmer") == 0  # never trusted
        assert not journal.path.exists()
        assert sorted(tmp_path.glob("j.json.corrupt-*"))
        # The journal stays usable after quarantine.
        fresh.record_commit("470.lbm", False, 4)
        assert fresh.replay().committed_layouts("470.lbm") == 4

    def test_bad_version_rejected(self, tmp_path):
        path = tmp_path / "j.json"
        path.write_text(json.dumps(
            {"format_version": 99, "checksum": "x", "entries": []}
        ))
        assert SuiteJournal(path).replay().begun == {}
        assert sorted(tmp_path.glob("j.json.corrupt-*"))

    def test_clear(self, tmp_path):
        journal = SuiteJournal(tmp_path / "j.json")
        journal.record_begin("456.hmmer", False, 0, 4)
        journal.clear()
        assert not journal.path.exists()
        assert SuiteJournal(journal.path).replay().begun == {}

    def test_entry_validation(self):
        with pytest.raises(ConfigurationError):
            JournalEntry(
                event="abort", benchmark="x", heap=False,
                start_index=0, n_layouts=1,
            )
        with pytest.raises(ConfigurationError):
            JournalEntry(
                event="begin", benchmark="x", heap=False,
                start_index=5, n_layouts=4,
            )


class TestHangRecovery:
    """Injected hangs are killed by the supervisor and recovered
    bit-identically, in both the serial and the pool path."""

    def test_serial_watchdog_recovers_bit_identically(self, park):
        baseline = park.observe_suite(["456.hmmer", "470.lbm"], n_layouts=3)
        plan = FaultPlan(
            seed=1, hang_benchmarks=("456.hmmer",), hang_seconds=HANG
        )
        report = FailureReport()
        policy = RetryPolicy(
            max_retries=2, backoff_base=0.0, deadline_seconds=DEADLINE
        )
        start = telemetry.tick_seconds()
        with faults.injected(plan):
            results = park.observe_suite(
                ["456.hmmer", "470.lbm"], n_layouts=3,
                retry_policy=policy, report=report,
            )
        elapsed = telemetry.tick_seconds() - start
        assert report.ok
        assert [i.benchmark for i in report.timed_out] == ["456.hmmer"]
        assert [i.benchmark for i in report.recovered] == ["456.hmmer"]
        for name in baseline:
            assert_bit_identical(baseline[name], results[name])
        # The hang cost ~one deadline, not the full hang duration.
        assert elapsed < HANG

    def test_pool_worker_hang_killed_and_recovered(self, park):
        baseline = park.observe_suite(["456.hmmer", "470.lbm"], n_layouts=3)
        plan = FaultPlan(
            seed=1, hang_benchmarks=("456.hmmer",), hang_seconds=HANG
        )
        report = FailureReport()
        policy = RetryPolicy(
            max_retries=2, backoff_base=0.0, deadline_seconds=DEADLINE
        )
        with faults.injected(plan):
            results = park.observe_suite(
                ["456.hmmer", "470.lbm"], n_layouts=3, workers=2,
                retry_policy=policy, report=report,
            )
        assert report.ok
        assert report.breaker_tripped is None
        # One expiry in the pool, one in the serial re-run (the forced
        # hang fires once per process), then recovery.
        timed_out = [i.benchmark for i in report.timed_out]
        assert timed_out and set(timed_out) == {"456.hmmer"}
        assert [i.benchmark for i in report.recovered] == ["456.hmmer"]
        assert set(results) == {"456.hmmer", "470.lbm"}
        for name in baseline:
            assert_bit_identical(baseline[name], results[name])

    def test_unbounded_run_still_completes(self, park):
        """Without a deadline an injected hang merely stalls (bounded by
        hang_seconds) — results are unchanged."""
        baseline = park.observe_suite(["470.lbm"], n_layouts=3)
        plan = FaultPlan(
            seed=1, hang_benchmarks=("470.lbm",), hang_seconds=0.05
        )
        with faults.injected(plan):
            results = park.observe_suite(["470.lbm"], n_layouts=3)
        assert_bit_identical(baseline["470.lbm"], results["470.lbm"])

    def test_budget_exhaustion_records_failure(self, park):
        # worker_hang rate 1.0 hangs every execution; with a short
        # deadline and no retries the campaign fails structurally.
        plan = FaultPlan(seed=1, worker_hang=1.0, hang_seconds=HANG)
        report = FailureReport()
        policy = RetryPolicy(
            max_retries=0, backoff_base=0.0, deadline_seconds=DEADLINE
        )
        with faults.injected(plan):
            results = park.observe_suite(
                ["470.lbm"], n_layouts=3, retry_policy=policy,
                report=report,
            )
        assert results == {}
        assert not report.ok
        assert [i.benchmark for i in report.failed] == ["470.lbm"]
        assert [i.benchmark for i in report.timed_out] == ["470.lbm"]


class TestCircuitBreakerIntegration:
    def test_breaker_trips_and_degrades_remainder(self, park):
        baseline = park.observe_suite(["456.hmmer", "470.lbm"], n_layouts=3)
        plan = FaultPlan(
            seed=1, hang_benchmarks=("456.hmmer",), hang_seconds=HANG
        )
        report = FailureReport()
        policy = RetryPolicy(
            max_retries=2, backoff_base=0.0, deadline_seconds=DEADLINE
        )
        with faults.injected(plan):
            results = park.observe_suite(
                ["456.hmmer", "470.lbm"], n_layouts=3, workers=2,
                retry_policy=policy, report=report, breaker_threshold=1,
            )
        assert report.breaker_tripped is not None
        assert "serial" in report.breaker_tripped
        assert "TRIPPED" in report.render()
        assert bool(report)
        # The remainder still completed — serially — bit-identically.
        assert set(results) == {"456.hmmer", "470.lbm"}
        for name in baseline:
            assert_bit_identical(baseline[name], results[name])

    def test_serial_path_never_trips(self, park):
        plan = FaultPlan(
            seed=1, hang_benchmarks=("470.lbm",), hang_seconds=HANG
        )
        report = FailureReport()
        policy = RetryPolicy(
            max_retries=2, backoff_base=0.0, deadline_seconds=DEADLINE
        )
        with faults.injected(plan):
            park.observe_suite(
                ["470.lbm"], n_layouts=3, retry_policy=policy,
                report=report, breaker_threshold=1,
            )
        assert report.breaker_tripped is None


class TestDrain:
    def test_park_drains_between_campaigns(self, park):
        shutdown = ShutdownHandler()
        shutdown.request("SIGTERM")
        results = park.observe_suite(
            ["456.hmmer", "470.lbm"], n_layouts=3, shutdown=shutdown
        )
        assert results == {}  # nothing new starts once draining

    def test_lab_prefetch_drains(self, tmp_path):
        shutdown = ShutdownHandler()
        lab = Laboratory(
            scale=TINY, machine_seed=7, cache_dir=tmp_path, shutdown=shutdown
        )
        shutdown.request("SIGINT")
        lab.prefetch(["456.hmmer", "470.lbm"])
        assert lab.store.stats.layouts_measured == 0


class TestOneSupervisedPath:
    """The Laboratory and the MachinePark's serial path run campaigns
    through the same supervisor, so one injected plan must leave the
    same incidents on both.  (445.gobmk: no other test hangs it, so no
    abandoned watchdog thread reads against these plans.)"""

    @pytest.mark.parametrize(
        "spec, deadline, expected",
        [
            # With this seed one counter read outlasts its re-reads on
            # the first attempt only; the second attempt completes.
            (
                "seed=33,flaky_read=0.5,only_benchmarks=445.gobmk",
                None,
                [("recovered", 2)],
            ),
            (
                f"seed=1,hang_benchmarks=445.gobmk,hang_seconds={HANG}",
                DEADLINE,
                [("timed_out", 1), ("recovered", 2)],
            ),
            ("seed=3,flaky_read=1.0", None, [("failed", 3)]),
        ],
        ids=["transient", "deadline", "exhausted"],
    )
    def test_lab_and_park_record_the_same_incidents(
        self, spec, deadline, expected
    ):
        lab = Laboratory(
            scale=TINY, machine_seed=7, max_retries=2,
            deadline_seconds=deadline,
        )
        with faults.injected(FaultPlan.from_spec(spec)):
            with contextlib.suppress(CampaignExecutionError):
                lab.observations("445.gobmk")
        park = MachinePark(machine_seeds=[7], trace_events=TINY.trace_events)
        report = FailureReport()
        with faults.injected(FaultPlan.from_spec(spec)):
            park.observe_suite(
                ["445.gobmk"], n_layouts=TINY.n_layouts, workers=0,
                retry_policy=lab.retry_policy, report=report,
            )

        def seen(incidents):
            return [(i.status, i.attempts) for i in incidents]

        assert seen(lab.failure_report.incidents) == expected
        assert seen(report.incidents) == expected

    def test_serial_and_pooled_suites_journal_the_same_state(self, tmp_path):
        names = ["456.hmmer", "470.lbm"]
        states = []
        for workers in (0, 2):
            cache = tmp_path / f"workers-{workers}"
            Laboratory(
                scale=TINY, machine_seed=7, cache_dir=cache, workers=workers
            ).prefetch(names)
            states.append(SuiteJournal(cache / "suite-journal.json").replay())
        assert states[0] == states[1]
        assert states[0].committed_layouts("470.lbm") == TINY.n_layouts
        assert not states[0].interrupted_campaigns


class TestLaboratorySupervision:
    def test_deadline_timeout_recovered_bit_identically(self, monkeypatch):
        baseline = Laboratory(scale=TINY, machine_seed=7).observations(
            "456.hmmer"
        )
        lab = Laboratory(scale=TINY, machine_seed=7, deadline_seconds=DEADLINE)
        lab.retry_policy = RetryPolicy(
            max_retries=2, backoff_base=0.0, deadline_seconds=DEADLINE
        )
        original = Laboratory._measure_campaign_once
        hangs = iter([True, False])

        def hang_once(self, name, heap):
            if next(hangs):
                faults.hang(HANG)
            return original(self, name, heap)

        monkeypatch.setattr(Laboratory, "_measure_campaign_once", hang_once)
        recovered = lab.observations("456.hmmer")
        assert_bit_identical(baseline, recovered)
        statuses = [i.status for i in lab.failure_report.incidents]
        assert statuses == ["timed_out", "recovered"]

    def test_resume_requires_cache_dir(self):
        with pytest.raises(ConfigurationError, match="cache_dir"):
            Laboratory(scale=TINY, resume=True)

    def test_fresh_lab_clears_stale_journal(self, tmp_path):
        stale = SuiteJournal(tmp_path / "suite-journal.json")
        stale.record_begin("456.hmmer", False, 0, 4)
        lab = Laboratory(scale=TINY, machine_seed=7, cache_dir=tmp_path)
        assert lab.resumed is None
        assert not stale.path.exists()

    def test_resumed_lab_replays_journal(self, tmp_path):
        stale = SuiteJournal(tmp_path / "suite-journal.json")
        stale.record_begin("456.hmmer", False, 0, 4)
        lab = Laboratory(
            scale=TINY, machine_seed=7, cache_dir=tmp_path, resume=True
        )
        assert lab.resumed is not None
        assert lab.resumed.interrupted("456.hmmer")

    def test_serial_suite_is_journaled(self, tmp_path):
        lab = Laboratory(scale=TINY, machine_seed=7, cache_dir=tmp_path)
        lab.observations("470.lbm")
        state = SuiteJournal(tmp_path / "suite-journal.json").replay()
        assert state.committed_layouts("470.lbm") == TINY.n_layouts
        assert not state.interrupted("470.lbm")


_KILL_DRIVER = textwrap.dedent(
    """\
    import sys
    from repro.harness.lab import Laboratory, Scale

    TINY = Scale(name="tiny", n_layouts=4, trace_events=2500,
                 mase_trace_events=2000, mase_configs=5, ltage_layouts=4)
    lab = Laboratory(scale=TINY, machine_seed=7, cache_dir=sys.argv[1])
    print("READY", flush=True)
    lab.prefetch(["456.hmmer", "445.gobmk", "470.lbm"])
    print("DONE", flush=True)
    """
)


class TestKillResumeAcceptance:
    """The issue's acceptance scenario: ``kill -9`` mid-suite, then a
    ``--resume`` rerun — bit-identical to an uninterrupted run, with
    only the missing slices re-measured."""

    def test_sigkill_then_resume_is_bit_identical(self, tmp_path):
        names = ["456.hmmer", "445.gobmk", "470.lbm"]
        baseline_lab = Laboratory(scale=TINY, machine_seed=7)
        baseline = {name: baseline_lab.observations(name) for name in names}

        cache = tmp_path / "cache"
        cache.mkdir()
        import repro

        src_dir = Path(repro.__file__).resolve().parents[1]
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(src_dir), env.get("PYTHONPATH", "")) if p
        )
        proc = subprocess.Popen(
            [sys.executable, "-c", _KILL_DRIVER, str(cache)],
            stdout=subprocess.PIPE, env=env, text=True,
        )
        try:
            # SIGKILL as soon as the first campaign file lands: the
            # second campaign is then mid-flight (begun, not committed).
            deadline = telemetry.tick_seconds() + 120.0
            while telemetry.tick_seconds() < deadline:
                stored = [
                    p for p in sorted(cache.glob("*.json"))
                    if p.name != "suite-journal.json"
                ]
                if stored or proc.poll() is not None:
                    break
                time.sleep(0.02)
            assert proc.poll() is None, "driver finished before the kill"
            proc.kill()
        finally:
            proc.wait()

        journal = SuiteJournal(cache / "suite-journal.json")
        state = journal.replay()
        committed = [n for n in names if state.committed_layouts(n) > 0]
        assert committed, "nothing committed before the kill"
        assert len(committed) < len(names), "everything finished pre-kill"

        resumed = Laboratory(
            scale=TINY, machine_seed=7, cache_dir=cache, resume=True
        )
        assert resumed.resumed is not None
        resumed.prefetch(names)
        results = {name: resumed.observations(name) for name in names}
        for name in names:
            assert_bit_identical(baseline[name], results[name])
        # Only the missing slices were re-measured: everything the
        # interrupted run persisted was served from the store.
        total = len(names) * TINY.n_layouts
        measured = resumed.store.stats.layouts_measured
        assert measured < total
        assert measured <= (len(names) - len(committed)) * TINY.n_layouts


class TestCliSupervision:
    def test_bad_deadline_is_usage_error(self, capsys):
        from repro.cli import main

        assert main(["headline", "--deadline", "0"]) == 2
        assert "--deadline" in capsys.readouterr().err

    def test_resume_without_cache_dir_is_usage_error(self, capsys):
        from repro.cli import main

        assert main(["headline", "--resume", "--no-cache"]) == 2
        assert "--resume" in capsys.readouterr().err

    def test_help_documents_supervision(self, capsys):
        from repro.cli import main

        with pytest.raises(SystemExit):
            main(["--help"])
        text = capsys.readouterr().out
        assert "--deadline" in text
        assert "--resume" in text
        assert "graceful shutdown" in text
