"""Tests for TAGE and L-TAGE."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.harness.lab import SCALES, Laboratory
from repro.uarch.predictors.bimodal import BimodalPredictor
from repro.uarch.predictors.tage import LTagePredictor, TagePredictor, _fold_step
from repro.uarch.vector import folded_histories
from repro.workloads.suite import get_benchmark


def _pattern_stream(pattern, repeats, pc=0x400040):
    outcomes = np.array(list(pattern) * repeats, dtype=np.uint8)
    addresses = np.full(outcomes.shape, pc, dtype=np.int64)
    return addresses, outcomes


def _fold_reference(history_bits, length, bits):
    """Fold the most recent *length* bits of history down to *bits*."""
    comp = 0
    for i, bit in enumerate(history_bits[-length:]):
        comp ^= bit << (i % bits)
    return comp & ((1 << bits) - 1)


class TestFoldedHistory:
    @pytest.mark.parametrize("length,bits", [(5, 4), (14, 9), (40, 10), (114, 10)])
    def test_incremental_matches_recompute(self, length, bits):
        """The O(1) incremental update equals folding from scratch."""
        rng = np.random.default_rng(0)
        folded = 0
        history = [0] * length  # oldest..newest padding
        for _ in range(400):
            new_bit = int(rng.integers(0, 2))
            evicted = history[-length]
            folded = _fold_step(folded, new_bit, evicted, length, bits)
            history.append(new_bit)
        # Reference: fold the last `length` bits.  The incremental
        # register applies a circular-shift variant of folding; verify
        # it is at least a *function* of exactly those bits by replaying.
        replay = 0
        tail = history[-length:]
        warm = [0] * length + tail
        for i in range(length, len(warm)):
            replay = _fold_step(replay, warm[i], warm[i - length], length, bits)
        assert replay == folded

    def test_mask_respected(self):
        folded = 0
        rng = np.random.default_rng(1)
        history = [0] * 20
        for _ in range(200):
            bit = int(rng.integers(0, 2))
            folded = _fold_step(folded, bit, history[-20], 20, 6)
            history.append(bit)
            assert 0 <= folded < (1 << 6)


def _replay_folds(outcomes, length, bits):
    """Per-event folds and the final fold from the incremental update."""
    history = [0] * length
    folded, before = 0, []
    for bit in outcomes.tolist():
        before.append(folded)
        folded = _fold_step(folded, bit, history[-length], length, bits)
        history.append(bit)
    return before, folded


class TestClosedFormFolds:
    """``folded_histories`` equals replaying the incremental register."""

    @pytest.mark.parametrize(
        "length,bits,n",
        [
            (40, 10, 500),  # length % bits == 0
            (114, 10, 500),
            (14, 9, 500),
            (5, 8, 300),  # length < bits
            (114, 11, 60),  # length > n
            (40, 10, 1),
            (40, 10, 0),  # empty stream
        ],
    )
    def test_matches_incremental_replay(self, length, bits, n):
        rng = np.random.default_rng(length * 1000 + bits + n)
        outcomes = rng.integers(0, 2, size=n).astype(np.uint8)
        before, final = _replay_folds(outcomes, length, bits)
        folds, carry = folded_histories(outcomes, length, bits)
        assert folds.tolist() == before
        assert carry == final

    @pytest.mark.parametrize("length,bits", [(0, 10), (40, 0)])
    def test_rejects_degenerate_registers(self, length, bits):
        with pytest.raises(ConfigurationError):
            folded_histories(np.ones(4, dtype=np.int64), length, bits)


class TestTage:
    def test_learns_long_pattern(self):
        addresses, outcomes = _pattern_stream([1, 1, 0, 1, 0, 0, 1, 0], 250)
        tage = TagePredictor().simulate(addresses, outcomes)
        bimodal = BimodalPredictor(4096).simulate(addresses, outcomes)
        assert tage < bimodal / 2

    def test_learns_bias_cheaply(self):
        addresses, outcomes = _pattern_stream([1], 500)
        assert TagePredictor().simulate(addresses, outcomes) < 5

    def test_reset(self):
        rng = np.random.default_rng(2)
        outcomes = (rng.random(400) < 0.6).astype(np.uint8)
        addresses = rng.integers(0x400000, 0x404000, 400)
        predictor = TagePredictor()
        assert predictor.simulate(addresses, outcomes) == predictor.simulate(
            addresses, outcomes
        )

    def test_history_lengths_must_increase(self):
        with pytest.raises(ValueError):
            TagePredictor(history_lengths=(10, 5))

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"history_lengths": ()},
            {"history_lengths": (0, 5)},
            {"tag_bits": 1},
            {"table_bits": 2, "history_lengths": (2, 4, 8, 16)},
        ],
    )
    def test_degenerate_geometry_rejected(self, kwargs):
        with pytest.raises(ConfigurationError):
            TagePredictor(**kwargs)

    def test_storage_bits_positive(self):
        assert TagePredictor().storage_bits() > 0


class TestLTage:
    def test_loop_predictor_captures_fixed_trip(self):
        """A constant-trip loop that bimodal mispredicts every trip and
        short-history TAGE struggles with: L-TAGE nails it."""
        trip = [1] * 30 + [0]  # 31-iteration loop, beyond short histories
        addresses, outcomes = _pattern_stream(trip, 60)
        ltage = LTagePredictor().simulate(addresses, outcomes)
        bimodal = BimodalPredictor(4096).simulate(addresses, outcomes)
        assert bimodal >= 55  # one miss per exit
        assert ltage < bimodal / 2

    def test_at_least_as_good_as_tage_on_loops(self):
        trip = [1] * 20 + [0]
        addresses, outcomes = _pattern_stream(trip, 50)
        ltage = LTagePredictor().simulate(addresses, outcomes)
        tage = TagePredictor().simulate(addresses, outcomes)
        assert ltage <= tage

    def test_name(self):
        assert LTagePredictor().name == "L-TAGE"

    def test_benchmark_accuracy_beats_hybrid(self, camino, perlbench):
        """L-TAGE should clearly beat the Xeon-style hybrid (§7.2.2)."""
        from repro.uarch.predictors.hybrid import HybridPredictor

        trace = perlbench.trace(3000)
        exe = camino.build(perlbench.spec, trace, layout_seed=0)
        addresses = exe.branch_address_stream()
        outcomes = exe.trace.outcomes
        warmup = len(outcomes) // 4
        ltage = LTagePredictor().simulate(addresses, outcomes, warmup=warmup)
        hybrid = HybridPredictor(2048, 4096, 8, 2048).simulate(
            addresses, outcomes, warmup=warmup
        )
        assert ltage < hybrid


@pytest.mark.parametrize("name", ["400.perlbench", "445.gobmk"])
def test_engines_agree_on_ci_campaign_layouts(name):
    """Scalar and fused L-TAGE agree on real reordered executables."""
    interferometer = Laboratory(scale=SCALES["ci"]).interferometer
    bm = get_benchmark(name)
    for index in range(3):
        exe = interferometer.build_executable(bm, index)
        addresses, outcomes = exe.branch_address_stream(), exe.trace.outcomes
        warmup = len(outcomes) // 4
        scalar, fused = LTagePredictor(), LTagePredictor()
        assert scalar.simulate(
            addresses, outcomes, warmup=warmup, engine="scalar"
        ) == fused.simulate(addresses, outcomes, warmup=warmup, engine="vector")
        assert vars(scalar) == vars(fused)
