"""Tests for the Camino toolchain: reordering, run-limit, building."""

from __future__ import annotations

import gc
import weakref

import pytest

from repro.program.tracegen import generate_trace
from repro.toolchain.camino import Camino, RunLimitPass
from repro.workloads.suite import get_benchmark

from tests.conftest import make_tiny_spec


@pytest.fixture(scope="module")
def spec():
    return make_tiny_spec()


class TestReordering:
    def test_seeded_reorder_deterministic(self, spec, camino):
        a = camino.reorder(spec, seed=5)
        b = camino.reorder(spec, seed=5)
        assert [(o.name, o.procedure_names) for o in a] == [
            (o.name, o.procedure_names) for o in b
        ]

    def test_different_seeds_differ(self, spec, camino):
        orderings = set()
        for seed in range(20):
            objs = camino.reorder(spec, seed=seed)
            orderings.add(tuple((o.name, o.procedure_names) for o in objs))
        assert len(orderings) > 10

    def test_reorder_permutes_within_files(self, spec, camino):
        base = {f.name: set(f.procedure_names) for f in spec.files}
        for obj in camino.reorder(spec, seed=3):
            assert set(obj.procedure_names) == base[obj.name]

    def test_reorder_preserves_file_set(self, spec, camino):
        objs = camino.reorder(spec, seed=3)
        assert {o.name for o in objs} == {f.name for f in spec.files}

    def test_base_objects_match_declaration(self, spec, camino):
        objs = camino.base_object_files(spec)
        assert [o.procedure_names for o in objs] == [f.procedure_names for f in spec.files]

    def test_layouts_differ_across_seeds(self, spec, camino):
        a = camino.link_layout(spec, seed=1)
        b = camino.link_layout(spec, seed=2)
        assert list(a.proc_base) != list(b.proc_base)

    def test_baseline_layout(self, spec, camino):
        layout = camino.link_layout(spec, seed=None)
        assert layout.link_order == tuple(
            name for f in spec.files for name in f.procedure_names
        )


class TestRunLimit:
    def test_limit_within_trace(self, tiny_trace):
        limit = RunLimitPass().choose_limit(tiny_trace)
        assert 0 < limit <= tiny_trace.n_events

    def test_limit_in_tail(self, tiny_trace):
        limit = RunLimitPass(tail_fraction=0.9).choose_limit(tiny_trace)
        # Either no candidate was found (full length) or the cutoff is
        # in the final 10% of the run.
        assert limit == tiny_trace.n_events or limit >= int(0.9 * tiny_trace.n_events)

    def test_limit_deterministic(self, tiny_trace):
        assert (
            RunLimitPass().choose_limit(tiny_trace)
            == RunLimitPass().choose_limit(tiny_trace)
        )

    def test_bad_tail_fraction(self, tiny_trace):
        from repro.errors import ConfigurationError

        with pytest.raises(ConfigurationError):
            RunLimitPass(tail_fraction=1.5).choose_limit(tiny_trace)


class TestBuild:
    def test_build_produces_executable(self, spec, tiny_trace, camino):
        exe = camino.build(spec, tiny_trace, layout_seed=1)
        assert exe.spec is spec
        assert exe.layout_seed == 1
        assert exe.heap_seed is None

    def test_run_limit_identical_across_layouts(self, spec, tiny_trace, camino):
        lengths = {
            camino.build(spec, tiny_trace, layout_seed=seed).trace.n_events
            for seed in range(5)
        }
        assert len(lengths) == 1  # the §5.7 invariant

    def test_instructions_identical_across_layouts(self, spec, tiny_trace, camino):
        instrs = {
            camino.build(spec, tiny_trace, layout_seed=seed).n_instructions
            for seed in range(5)
        }
        assert len(instrs) == 1

    def test_heap_randomization_changes_data_layout(self, spec, tiny_trace, camino):
        a = camino.build(spec, tiny_trace, layout_seed=1, heap_seed=10)
        b = camino.build(spec, tiny_trace, layout_seed=1, heap_seed=11)
        assert list(a.data_layout.object_base) != list(b.data_layout.object_base)

    def test_default_heap_deterministic(self, spec, tiny_trace, camino):
        a = camino.build(spec, tiny_trace, layout_seed=1)
        b = camino.build(spec, tiny_trace, layout_seed=2)
        assert list(a.data_layout.object_base) == list(b.data_layout.object_base)

    def test_baseline_build(self, spec, tiny_trace, camino):
        exe = camino.build(spec, tiny_trace, layout_seed=None)
        assert exe.layout_seed == -1

    def test_disable_run_limit(self, spec, tiny_trace, camino):
        exe = camino.build(spec, tiny_trace, layout_seed=1, apply_run_limit=False)
        assert exe.trace.n_events == tiny_trace.n_events


class TestRunLimitMemo:
    """Builds of one canonical trace share a single run-limited trace."""

    @pytest.fixture()
    def counted(self, monkeypatch):
        calls = []
        original = RunLimitPass.choose_limit

        def counting(self, trace):
            calls.append(trace.seed)  # not the trace: that would pin it
            return original(self, trace)

        monkeypatch.setattr(RunLimitPass, "choose_limit", counting)
        return calls

    def test_layouts_share_one_bound_trace(self, counted):
        bm = get_benchmark("445.gobmk")
        trace = generate_trace(bm.spec, seed=3, n_events=3000)
        camino = Camino()
        builds = [camino.build(bm.spec, trace, layout_seed=seed) for seed in range(4)]
        builds.append(camino.build(bm.spec, trace, layout_seed=9, heap_seed=4))
        assert builds[0].trace.n_events < trace.n_events  # the pass did cut
        assert all(exe.trace is builds[0].trace for exe in builds)
        assert counted == [3]

    def test_new_trace_replaces_the_entry(self, counted):
        bm = get_benchmark("445.gobmk")
        camino = Camino()
        first = generate_trace(bm.spec, seed=3, n_events=3000)
        camino.build(bm.spec, first, layout_seed=1)
        released = weakref.ref(first)
        del first
        second = generate_trace(bm.spec, seed=4, n_events=3000)
        exe = camino.build(bm.spec, second, layout_seed=1)
        gc.collect()
        assert released() is None  # nothing pins the old trace
        assert camino.build(bm.spec, second, layout_seed=2).trace is exe.trace
        assert counted == [3, 4]

    def test_fingerprints_and_instructions_unchanged(self):
        """A shared bound trace equals one cut afresh for every layout."""
        bm = get_benchmark("429.mcf")
        trace = generate_trace(bm.spec, seed=7, n_events=3000)
        shared = Camino()
        for seed in range(3):
            memoized = shared.build(bm.spec, trace, layout_seed=seed)
            fresh = Camino().build(bm.spec, trace, layout_seed=seed)
            limit = RunLimitPass().choose_limit(trace)
            cut = trace.truncated(limit)
            assert memoized.fingerprint == fresh.fingerprint
            assert memoized.trace.n_events == cut.n_events == limit
            for k in (0, 1, limit // 2, limit, limit + 5):
                assert memoized.trace.instructions_up_to(k) == cut.instructions_up_to(k)
