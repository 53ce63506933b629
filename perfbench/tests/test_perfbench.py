"""Tests of the benchmark itself: inputs, correctness checks, span trees.

Run with ``python -m pytest perfbench/tests``.
"""

from __future__ import annotations

import json
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(HERE))

import inputs  # noqa: E402
import run as bench  # noqa: E402
import tracing  # noqa: E402

SEEDS = range(1, 21)
INPUT_KEYS = {"machine_seed", "benchmarks", "keys", "mix"}


@pytest.mark.parametrize("workload", inputs.WORKLOADS)
def test_same_seed_same_inputs(workload):
    assert inputs.draw(workload, 7) == inputs.draw(workload, 7)


def test_cli_inputs_ignore_the_seed():
    assert all(inputs.draw("cli-all-ci", seed) == {} for seed in SEEDS)


@pytest.mark.parametrize(
    "workload", ["campaign-small", "pin-sweep-small", "serve-warm"]
)
def test_seed_changes_inputs_but_not_their_size(workload):
    draws = [inputs.draw(workload, seed) for seed in SEEDS]
    assert len({json.dumps(d, sort_keys=True) for d in draws}) > 1
    assert len({d["machine_seed"] for d in draws}) > 1
    for draw in draws:
        assert set(draw) <= INPUT_KEYS
        assert draw["machine_seed"] in inputs.MACHINE_SEEDS
        assert len(draw["benchmarks"]) == len(draws[0]["benchmarks"])
        assert len(set(draw["benchmarks"])) == len(draw["benchmarks"])
    if workload == "serve-warm":
        assert len({json.dumps(d["mix"]) for d in draws}) == len(draws)
        for draw in draws:
            assert [len(m) for m in draw["mix"]] == [
                inputs.SERVE_REQUESTS_PER_CLIENT
            ] * inputs.SERVE_CLIENTS


def test_campaign_draw_spans_every_personality():
    for seed in SEEDS:
        chosen = set(inputs.draw("campaign-small", seed)["benchmarks"])
        for pool in inputs.CAMPAIGN_POOLS:
            assert len(chosen & set(pool)) == 1


@pytest.mark.parametrize("workload", ["campaign-small", "pin-sweep-small", "serve-warm"])
def test_seed_reaches_children_only_as_inputs(workload, tmp_path, monkeypatch):
    monkeypatch.setattr(bench, "WORK", tmp_path)
    specs = []
    for seed in (1, 2):
        run = bench.Run(workload, seed, 1, False, {})
        spec, _ = run.make_spec("sample")
        specs.append({k: v for k, v in spec.items() if k not in INPUT_KEYS | {"result"}})
    assert specs[0] == specs[1]


def test_reference_covers_every_drawable_input():
    reference = bench.load_reference()
    assert reference["cli-all-ci"].startswith("12:")
    for seed in range(1, 200):
        for workload in ("campaign-small", "pin-sweep-small"):
            drawn = inputs.draw(workload, seed)
            expected = bench.expected_digests(workload, drawn, reference)
            assert "<no reference>" not in expected.values()


def test_corrupted_reference_digest_is_a_mismatch():
    reference = bench.load_reference()
    good = {"exports": reference["cli-all-ci"]}
    expected = bench.expected_digests("cli-all-ci", {}, reference)
    assert bench.check_digests(expected, good) == []
    corrupted = {**reference, "cli-all-ci": "12:" + "0" * 64}
    expected = bench.expected_digests("cli-all-ci", {}, corrupted)
    assert len(bench.check_digests(expected, good)) == 1


def test_missing_output_is_a_mismatch():
    reference = bench.load_reference()
    drawn = inputs.draw("campaign-small", 3)
    expected = bench.expected_digests("campaign-small", drawn, reference)
    assert len(expected) == 3
    assert len(bench.check_digests(expected, {})) == 3
    assert bench.check_digests(expected, dict(expected)) == []


def test_corrupted_reference_fails_the_run(tmp_path, monkeypatch, capsys):
    """A real sample checked against a corrupted digest: exit 1, correct=false."""
    monkeypatch.setattr(bench, "WORK", tmp_path)
    reference = bench.load_reference()
    key = "1/462.libquantum"
    corrupted = {
        **reference,
        "campaign-small": {key: "f" * 64},
    }
    monkeypatch.setattr(bench, "load_reference", lambda: corrupted)
    monkeypatch.setattr(
        bench.inputs, "draw",
        lambda workload, seed: {"machine_seed": 1, "benchmarks": ["462.libquantum"]},
    )
    rc = bench.main(["--workload", "campaign-small", "--seed", "1", "--seconds", "1"])
    out = capsys.readouterr().out.strip().splitlines()
    result = json.loads(out[-1])
    assert rc == 1
    assert result["correct"] is False
    assert result["failed"] >= 1 and result["attempted"] >= result["failed"]
    assert set(result["metrics"]) == set(bench.END_TO_END)
    assert any(key in line and "FAILED" in line for line in out)


def _check_tree(spans):
    by_index = dict(enumerate(spans))
    for span in spans:
        parent = span[tracing.PARENT]
        if parent >= 0:
            outer = by_index[parent]
            assert outer[tracing.THREAD] == span[tracing.THREAD]
            assert outer[tracing.START] <= span[tracing.START]
            assert span[tracing.END] <= outer[tracing.END]
    assert all(s >= 0 for s in tracing.self_times(spans))


def test_self_time_is_never_negative_with_threads():
    recorder = tracing.Recorder()

    def leaf():
        time.sleep(0.001)

    wrapped_leaf = tracing._wrap(recorder, leaf, "leaf")

    def middle():
        wrapped_leaf()
        wrapped_leaf()

    wrapped_middle = tracing._wrap(recorder, middle, "middle")

    def worker():
        for _ in range(20):
            wrapped_middle()

    threads = [threading.Thread(target=worker) for _ in range(4)]
    root = recorder.open("run")
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=30)
    wrapped_middle()
    recorder.close(root)
    assert not any(thread.is_alive() for thread in threads)
    assert len(recorder.spans) == 1 + (4 * 20 + 1) * 3
    _check_tree(recorder.spans)
    selfs = tracing.self_times(recorder.spans)
    # Self times of a subtree add up to the root's duration.
    root_span = recorder.spans[root]
    in_root = [
        s for i, s in enumerate(selfs)
        if recorder.spans[i][tracing.THREAD] == root_span[tracing.THREAD]
    ]
    assert sum(in_root) == pytest.approx(
        root_span[tracing.END] - root_span[tracing.START]
    )


TRACED_CAMPAIGN = """
import json, sys
sys.path[:0] = [sys.argv[1], sys.argv[2]]
import tracing
recorder = tracing.Recorder()
tracing.install(recorder)
from repro.harness.lab import SCALES, Laboratory
lab = Laboratory(scale=SCALES["ci"], machine_seed=1)
root = recorder.open("run")
lab.model("462.libquantum")
lab.evaluation("462.libquantum")
recorder.close(root)
print(json.dumps(recorder.spans))
"""


def test_traced_campaign_span_tree_nests():
    out = subprocess.run(
        [sys.executable, "-c", TRACED_CAMPAIGN, str(bench.SRC), str(HERE)],
        capture_output=True, text=True, timeout=120, check=True,
    ).stdout
    spans = json.loads(out.splitlines()[-1])
    _check_tree(spans)
    metrics = tracing.summarize(spans)
    assert metrics["core.layouts"] == 10
    assert metrics["toolchain.builds"] > 10
    assert metrics["machine.execute_sims"] <= metrics["machine.execute_calls"]
    assert metrics["pintool.L-TAGE_s"] > 0 and metrics["pintool.GAs-2KB_s"] > 0
    assert metrics["uarch.caches_ns_per_event"] > 0
    assert metrics["trace.unattributed_s"] >= 0
