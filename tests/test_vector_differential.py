"""Differential tests: the vector engine against the scalar oracle.

Every simulated structure offers two engines with one contract: the
numpy batch kernels (``engine="vector"``) must produce *bit-identical*
counts — and, where the structure keeps tables, bit-identical post-run
state — to the per-event scalar loops (``engine="scalar"``).  These
tests enforce that contract over hypothesis-chosen traces, including
the warmup edge cases (0, the full trace, past the end), empty
streams, all-not-taken traces, and indirect traces with no indirect
branches at all.
"""

from __future__ import annotations

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.interferometer import Interferometer
from repro.errors import ConfigurationError
from repro.harness.lab import SCALES
from repro.machine.config import XeonE5440Config
from repro.machine.core_model import XeonCoreModel
from repro.machine.system import XeonE5440
from repro.program.tracegen import generate_trace
from repro.toolchain.camino import Camino
from repro.uarch import vector
from repro.uarch.btb import BranchTargetBuffer
from repro.uarch.caches import (
    CacheConfig,
    CacheHierarchy,
    SetAssociativeCache,
    lru_access,
)
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
from repro.uarch.predictors.perfect import PerfectPredictor
from repro.uarch.predictors.static import (
    AlwaysNotTakenPredictor,
    AlwaysTakenPredictor,
)
from repro.uarch.predictors.tage import LTagePredictor, TagePredictor
from repro.uarch.predictors.tournament import TournamentPredictor
from repro.workloads.suite import get_benchmark

from tests.conftest import make_tiny_spec
from tests.test_indirect import make_dispatch_spec

# Small geometries on purpose: heavy aliasing exercises the carried
# state of every kernel much harder than the production sizes do.
PREDICTOR_FACTORIES = {
    "bimodal": lambda: BimodalPredictor(entries=128),
    "gshare": lambda: GsharePredictor(entries=256, history_bits=7),
    "gas": lambda: GAsPredictor(entries=256, history_bits=5),
    "hybrid": lambda: HybridPredictor(128, 512, 7, 128),
    "hybrid-uneven-chooser": lambda: HybridPredictor(128, 512, 7, 256),
    "agree": lambda: AgreePredictor(entries=256, history_bits=6, bias_entries=64),
    "pas": lambda: PAsPredictor(bht_entries=64, pht_entries=1024, history_bits=6),
    "tournament": lambda: TournamentPredictor(64, 6, 256, 7),
    "gskew": lambda: GskewPredictor(entries_per_bank=128, history_bits=6),
    "bimode": lambda: BiModePredictor(entries=256, history_bits=6, choice_entries=64),
    "perceptron": lambda: PerceptronPredictor(entries=64, history_bits=10),
    "tage": lambda: TagePredictor(table_bits=6, bimodal_bits=8),
    "ltage": lambda: LTagePredictor(table_bits=6, bimodal_bits=8, loop_entries=16),
    "always-taken": AlwaysTakenPredictor,
    "always-not-taken": AlwaysNotTakenPredictor,
    "perfect": PerfectPredictor,
}

CACHE_CONFIGS = {
    "direct-mapped": CacheConfig(1024, 32, 1, name="direct"),
    "two-way": CacheConfig(4096, 64, 2, name="two-way"),
    "eight-way": CacheConfig(32768, 64, 8, name="l1-like"),
}

_WARMUP_KINDS = ("zero", "third", "all", "past-end")


def _comparable_state(predictor) -> dict | None:
    """Predictor state when it is made of plain lists/tuples/ints, else None."""
    state = vars(predictor)
    if all(isinstance(v, (list, tuple, int, str, bool)) for v in state.values()):
        return state
    return None


def _make_trace(seed: int, n: int) -> tuple[np.ndarray, np.ndarray]:
    """A branch trace with clustered pcs and occasional >32-bit addresses."""
    rng = np.random.default_rng(seed)
    sites = rng.integers(0, 1 << 22, size=max(1, n // 8), dtype=np.int64) * 4
    if seed % 3 == 0:
        sites += np.int64(1) << 33
    addresses = sites[rng.integers(0, sites.size, size=n)]
    outcomes = (rng.random(n) < rng.random()).astype(np.int64)
    return addresses, outcomes


def _warmup(kind: str, n: int) -> int:
    return {"zero": 0, "third": n // 3, "all": n, "past-end": n + 7}[kind]


@pytest.mark.parametrize("name", sorted(PREDICTOR_FACTORIES))
@given(
    seed=st.integers(min_value=0, max_value=10_000),
    n=st.integers(min_value=0, max_value=400),
    warmup_kind=st.sampled_from(_WARMUP_KINDS),
)
@settings(max_examples=12, deadline=None)
def test_predictor_engines_bit_identical(name, seed, n, warmup_kind):
    """Vector and scalar engines agree on counts and table state."""
    addresses, outcomes = _make_trace(seed, n)
    warmup = _warmup(warmup_kind, n)
    scalar = PREDICTOR_FACTORIES[name]()
    vectored = PREDICTOR_FACTORIES[name]()
    count_s = scalar.simulate(addresses, outcomes, warmup=warmup, engine="scalar")
    count_v = vectored.simulate(addresses, outcomes, warmup=warmup, engine="vector")
    assert count_s == count_v
    state = _comparable_state(scalar)
    if state is not None:
        assert state == _comparable_state(vectored)


@pytest.mark.parametrize("name", sorted(CACHE_CONFIGS))
@given(seed=st.integers(min_value=0, max_value=10_000), n=st.integers(min_value=0, max_value=600))
@settings(max_examples=15, deadline=None)
def test_cache_engines_bit_identical(name, seed, n):
    """Vector and scalar cache simulation agree per access and on state."""
    rng = np.random.default_rng(seed)
    sequential = np.arange(n, dtype=np.int64) * 4 + int(rng.integers(0, 1 << 28))
    random = rng.integers(0, 1 << 34, size=n, dtype=np.int64)
    addresses = np.where(rng.random(n) < 0.5, sequential, random)
    scalar = SetAssociativeCache(CACHE_CONFIGS[name])
    vectored = SetAssociativeCache(CACHE_CONFIGS[name])
    mask_s = scalar.simulate_mask(addresses, engine="scalar")
    mask_v = vectored.simulate_mask(addresses, engine="vector")
    assert np.array_equal(mask_s, mask_v)
    assert scalar._sets == vectored._sets


@given(
    seed=st.integers(min_value=0, max_value=10_000),
    n=st.integers(min_value=0, max_value=500),
    warmup_kind=st.sampled_from(_WARMUP_KINDS),
)
@settings(max_examples=20, deadline=None)
def test_btb_engines_bit_identical(seed, n, warmup_kind):
    """Vector and scalar BTB simulation agree on misses and sets."""
    addresses, outcomes = _make_trace(seed, n)
    warmup = _warmup(warmup_kind, n)
    scalar = BranchTargetBuffer(entries=64, associativity=2)
    vectored = BranchTargetBuffer(entries=64, associativity=2)
    count_s = scalar.simulate(addresses, outcomes, warmup=warmup, engine="scalar")
    count_v = vectored.simulate(addresses, outcomes, warmup=warmup, engine="vector")
    assert count_s == count_v
    assert scalar._sets == vectored._sets


@pytest.mark.parametrize(
    "factory",
    [
        lambda: LastTargetPredictor(entries=64),
        lambda: IttageLitePredictor(entries=128, base_entries=32),
    ],
    ids=["last-target", "ittage-lite"],
)
@given(
    seed=st.integers(min_value=0, max_value=10_000),
    n=st.integers(min_value=0, max_value=400),
    warmup_kind=st.sampled_from(_WARMUP_KINDS),
)
@settings(max_examples=12, deadline=None)
def test_indirect_engines_bit_identical(factory, seed, n, warmup_kind):
    """Vector and scalar target predictors agree, incl. no-target traces."""
    addresses, _ = _make_trace(seed, n)
    rng = np.random.default_rng(seed + 1)
    targets = np.where(
        rng.random(n) < 0.4, rng.integers(0, 30, size=n), -1
    ).astype(np.int64)
    if seed % 5 == 0:
        targets[:] = -1  # a purely conditional trace never counts
    warmup = _warmup(warmup_kind, n)
    scalar, vectored = factory(), factory()
    count_s = scalar.simulate(addresses, targets, warmup=warmup, engine="scalar")
    count_v = vectored.simulate(addresses, targets, warmup=warmup, engine="vector")
    assert count_s == count_v
    assert vars(scalar) == vars(vectored)
    if (targets >= 0).sum() == 0:
        assert count_v == 0


@given(seed=st.integers(min_value=0, max_value=5_000))
@settings(max_examples=8, deadline=None)
def test_hierarchy_engines_bit_identical(seed):
    """The two-level hierarchy produces identical counts on both engines."""
    rng = np.random.default_rng(seed)
    n_i, n_d = int(rng.integers(1, 800)), int(rng.integers(1, 400))
    ifetch = rng.integers(0, 1 << 26, size=n_i, dtype=np.int64)
    data = rng.integers(0, 1 << 26, size=n_d, dtype=np.int64)
    i_ev = np.sort(rng.integers(0, 200, size=n_i)).astype(np.int64)
    d_ev = np.sort(rng.integers(0, 200, size=n_d)).astype(np.int64)
    configs = (
        CacheConfig(4096, 64, 2, name="i"),
        CacheConfig(4096, 64, 2, name="d"),
        CacheConfig(16384, 64, 4, name="l2"),
    )
    warmup = int(rng.integers(0, 200))
    counts = [
        CacheHierarchy(*configs).simulate(
            ifetch, i_ev, data, d_ev, warmup_event=warmup, engine=engine
        )
        for engine in ("scalar", "vector")
    ]
    assert counts[0] == counts[1]


class TestEdgeCases:
    """Deterministic corners the hypothesis sweeps may not always hit."""

    @pytest.mark.parametrize("name", sorted(PREDICTOR_FACTORIES))
    @pytest.mark.parametrize("engine", ["scalar", "vector"])
    def test_empty_stream(self, name, engine):
        empty = np.zeros(0, dtype=np.int64)
        predictor = PREDICTOR_FACTORIES[name]()
        assert predictor.simulate(empty, empty, warmup=0, engine=engine) == 0
        assert predictor.simulate(empty, empty, warmup=5, engine=engine) == 0

    @pytest.mark.parametrize("name", sorted(PREDICTOR_FACTORIES))
    def test_all_not_taken(self, name):
        addresses = (np.arange(200, dtype=np.int64) % 37) * 4
        outcomes = np.zeros(200, dtype=np.int64)
        for warmup in (0, 100, 200, 250):
            counts = {
                engine: PREDICTOR_FACTORIES[name]().simulate(
                    addresses, outcomes, warmup=warmup, engine=engine
                )
                for engine in ("scalar", "vector")
            }
            assert counts["scalar"] == counts["vector"]
        # Counting past the end of the trace counts nothing.
        assert (
            PREDICTOR_FACTORIES[name]().simulate(
                addresses, outcomes, warmup=200, engine="vector"
            )
            == 0
        )

    @pytest.mark.parametrize("name", sorted(PREDICTOR_FACTORIES))
    def test_negative_warmup_raises(self, name):
        empty = np.zeros(0, dtype=np.int64)
        with pytest.raises(ConfigurationError):
            PREDICTOR_FACTORIES[name]().simulate(empty, empty, warmup=-1)

    def test_btb_negative_warmup_raises(self):
        empty = np.zeros(0, dtype=np.int64)
        with pytest.raises(ConfigurationError):
            BranchTargetBuffer().simulate(empty, empty, warmup=-1)

    @pytest.mark.parametrize(
        "factory", [LastTargetPredictor, IttageLitePredictor]
    )
    def test_indirect_negative_warmup_raises(self, factory):
        empty = np.zeros(0, dtype=np.int64)
        with pytest.raises(ConfigurationError):
            factory().simulate(empty, empty, warmup=-1)

    def test_unknown_engine_rejected_everywhere(self):
        empty = np.zeros(0, dtype=np.int64)
        with pytest.raises(ConfigurationError):
            BimodalPredictor().simulate(empty, empty, engine="simd")
        with pytest.raises(ConfigurationError):
            BranchTargetBuffer().simulate(empty, empty, engine="simd")
        with pytest.raises(ConfigurationError):
            SetAssociativeCache(CACHE_CONFIGS["two-way"]).simulate_mask(
                empty, engine="simd"
            )
        with pytest.raises(ConfigurationError):
            LastTargetPredictor().simulate(empty, empty, engine="simd")

    def test_btb_empty_and_all_not_taken(self):
        empty = np.zeros(0, dtype=np.int64)
        addresses = np.arange(50, dtype=np.int64) * 4
        never = np.zeros(50, dtype=np.int64)
        for engine in ("scalar", "vector"):
            btb = BranchTargetBuffer(entries=16, associativity=2)
            assert btb.simulate(empty, empty, engine=engine) == 0
            assert btb.simulate(addresses, never, engine=engine) == 0


def test_core_model_engines_bit_identical():
    """End to end: the core model's counts match across engines."""
    spec = make_tiny_spec()
    trace = generate_trace(spec, seed=9, n_events=1500)
    executable = Camino().build(spec, trace, layout_seed=3)
    config = XeonE5440Config()
    results = [
        XeonCoreModel(config).execute(executable, engine=engine)
        for engine in ("scalar", "vector")
    ]
    assert results[0] == results[1]


# -- layout lanes ------------------------------------------------------


def _lane_streams(seed: int, lengths: list[int], n_sets: int, ways: int, wide: bool):
    """One access stream per lane, each reusing a small block pool.

    A pool a little larger than the cache mixes hits, conflict misses
    and MRU repeats; *wide* puts the blocks past 2**40 so 1-set tags
    need int64.
    """
    rng = np.random.default_rng(seed)
    streams = []
    for n in lengths:
        base = int(rng.integers(0, 1 << 20)) + ((1 << 40) if wide else 0)
        pool = base + rng.integers(0, 64 * n_sets * (ways + 2), size=max(1, n // 3))
        streams.append(pool[rng.integers(0, pool.size, size=n)].astype(np.int64))
    return streams


@given(
    seed=st.integers(min_value=0, max_value=10_000),
    lengths=st.lists(st.integers(min_value=0, max_value=300), min_size=1, max_size=5),
    geometry=st.sampled_from([(1, 1), (1, 4), (4, 1), (8, 2), (16, 4)]),
    wide=st.booleans(),
    chunk=st.sampled_from([7, 64, vector.CHUNK_EVENTS]),
)
@settings(max_examples=60, deadline=None)
def test_lru_lanes_match_per_lane_scalar(seed, lengths, geometry, wide, chunk):
    """Each lane equals a cold scalar replay of its stream alone.

    Lengths are ragged and may be 0; a small *chunk* makes the lanes
    carry their state across several kernel windows.
    """
    n_sets, ways = geometry
    shift = 6
    streams = _lane_streams(seed, lengths, n_sets, ways, wide)
    with mock.patch.object(vector, "CHUNK_EVENTS", chunk):
        masks, state = vector.lru_lanes(streams, shift, n_sets, ways)
    post = state.to_ways_lists()
    tag_shift = shift + n_sets.bit_length() - 1
    for lane, stream in enumerate(streams):
        sets: list[list[int]] = [[] for _ in range(n_sets)]
        expected = [
            lru_access(sets[(address >> shift) & (n_sets - 1)], address >> tag_shift, ways)
            for address in stream.tolist()
        ]
        assert masks[lane].tolist() == expected
        assert post[lane * n_sets : (lane + 1) * n_sets] == sets


def test_lean_tag_dtype_falls_back_to_int64():
    """Tags past int32 widen the carried state instead of wrapping."""
    assert vector.lean_tag_dtype((1 << 31) - 1) is np.int32
    assert vector.lean_tag_dtype(1 << 31) is np.int64
    state = vector.LruState(2, 2)
    assert state.tags.dtype == np.int32
    small = vector.lru_scan(state, np.array([0, 1]), np.array([5, 6]))
    assert state.tags.dtype == np.int32
    big = 1 << 40
    miss = vector.lru_scan(state, np.array([0, 0, 0, 1]), np.array([big, 5, big, 6]))
    assert state.tags.dtype == np.int64
    assert small.tolist() == [True, True]
    assert miss.tolist() == [True, False, False, False]
    assert state.to_ways_lists() == [[big, 5], [6]]


def _scalar_counts(executables):
    model = XeonCoreModel(XeonE5440Config())
    return [model.execute(executable, engine="scalar") for executable in executables]


@pytest.mark.parametrize(
    "name,randomize_heap",
    [("445.gobmk", False), ("429.mcf", True)],
    ids=["code-reordering", "heap-randomized"],
)
@pytest.mark.parametrize("budget", [vector.LANE_ACCESSES, 20_000], ids=["one-group", "groups"])
def test_execute_many_matches_scalar_on_ci_layouts(name, randomize_heap, budget):
    """Lanes counts equal the scalar oracle's, layout by layout.

    The small budget splits the batch into several lanes calls; a
    repeated executable is simulated once and answered twice.
    """
    scale = SCALES["ci"]
    interferometer = Interferometer(
        XeonE5440(), trace_events=scale.trace_events, randomize_heap=randomize_heap
    )
    benchmark = get_benchmark(name)
    batch = [interferometer.build_executable(benchmark, i) for i in range(scale.n_layouts)]
    batch.append(batch[0])
    with mock.patch.object(vector, "LANE_ACCESSES", budget):
        lanes = XeonCoreModel(XeonE5440Config()).execute_many(batch)
    assert lanes == _scalar_counts(batch)


def test_execute_many_matches_scalar_with_indirect_branches():
    """An interpreter-shaped program exercises the indirect predictor."""
    spec = make_dispatch_spec()
    trace = generate_trace(spec, seed=5, n_events=3000)
    camino = Camino()
    batch = [camino.build(spec, trace, layout_seed=seed) for seed in range(6)]
    lanes = XeonCoreModel(XeonE5440Config()).execute_many(batch)
    assert any(counts.indirect_mispredicts for counts in lanes)
    assert lanes == _scalar_counts(batch)
