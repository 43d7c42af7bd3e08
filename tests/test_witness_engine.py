import random

import pytest
from hypothesis import given, settings

from esakia.constructions import (
    cone_witness,
    cover_downset,
    run_cover_engine,
    staged_topology,
)
from esakia.errors import ClimbOutsideSet, LimitHeightUnsupported, NotACover

from conftest import trees
from oracles import cone_feasible_set, fs, mask


def subbase_index(st, points) -> int:
    sets = st.subbase_sets(st.height)
    return sets.index(frozenset(points))


class TestConeWitness:
    def test_chain2_whole_space(self, zoo):
        st = staged_topology(zoo["chain2"])
        w = cone_witness(st, 0, 1, subbase_index(st, {0, 1}))
        assert (w.v, w.ys, w.zs) == (0, fs(), fs())

    def test_chain2_carved_top(self, zoo):
        st = staged_topology(zoo["chain2"])
        w = cone_witness(st, 0, 1, subbase_index(st, {1}))
        assert (w.v, w.ys, w.zs) == (0, fs(), fs(0))

    def test_base_case_at_own_level(self, zoo):
        st = staged_topology(zoo["chain2"])
        w = cone_witness(st, 1, 1, subbase_index(st, {1}))
        assert (w.v, w.ys, w.zs) == (1, fs(), fs())

    def test_precondition_checked(self, zoo):
        st = staged_topology(zoo["chain2"])
        with pytest.raises(ClimbOutsideSet):
            cone_witness(st, 1, 1, subbase_index(st, {0}))

    def test_level_beyond_height(self, zoo):
        st = staged_topology(zoo["chain2"])
        with pytest.raises(LimitHeightUnsupported):
            cone_witness(st, 0, 2, 0)

    @given(trees(max_n=5))
    @settings(max_examples=25, deadline=None)
    def test_witness_lies_in_exhaustive_feasible_set(self, p):
        st = staged_topology(p)
        for x in range(p.n):
            hx = st.profile.heights[x]
            for alpha in range(max(1, hx), st.height + 1):
                fx = st.climb_value(x, alpha)
                for idx, entry in enumerate(st.subbase_entries(alpha)):
                    if entry.mask >> fx & 1:
                        w = cone_witness(st, x, alpha, idx)
                        feasible = cone_feasible_set(st, x, alpha, entry.mask)
                        assert (w.v, mask(w.ys), mask(w.zs)) in feasible


class TestCoverDownset:
    def test_root_single_set(self, zoo):
        st = staged_topology(zoo["chain2"])
        c = [subbase_index(st, {0}), subbase_index(st, {1})]
        assert cover_downset(st, c, 0) == [c[0]]

    def test_successor_accumulates(self, zoo):
        st = staged_topology(zoo["chain2"])
        c = [subbase_index(st, {0}), subbase_index(st, {1})]
        assert cover_downset(st, c, 1) == sorted(c)

    def test_not_a_cover(self, zoo):
        st = staged_topology(zoo["chain2"])
        with pytest.raises(NotACover):
            cover_downset(st, [subbase_index(st, {0})], 1)


class TestCoverEngine:
    def test_chain2_golden_trace(self, zoo):
        st = staged_topology(zoo["chain2"])
        i_r, i_a = subbase_index(st, {0}), subbase_index(st, {1})
        run = run_cover_engine(st, [i_r, i_a])
        assert run.selected == tuple(sorted((i_r, i_a)))
        assert [s.frontier for s in run.states] == [fs(0), fs()]
        # the root's witness carves with the root itself, pulling in its
        # downset cover; the top point is its own base case
        assert run.point_data[0].u_index == i_a
        assert run.point_data[0].witness.zs == fs(0)
        assert run.point_data[1].witness.zs == fs()

    def test_full_carrier_member_selected_alone(self, zoo):
        st = staged_topology(zoo["chain2"])
        i_full = subbase_index(st, {0, 1})
        i_r = subbase_index(st, {0})
        assert run_cover_engine(st, [i_full, i_r]).selected == (i_full,)

    def test_not_a_cover(self, zoo):
        st = staged_topology(zoo["chain2"])
        with pytest.raises(NotACover):
            run_cover_engine(st, [subbase_index(st, {0})])

    @given(trees(max_n=5))
    @settings(max_examples=20, deadline=None)
    def test_seeded_covers_engine_invariants(self, p):
        st = staged_topology(p)
        if st.height == 0:
            return
        entries = st.subbase_entries(st.height)
        full_idx = next(i for i, e in enumerate(entries) if e.mask == p.full)
        rng = random.Random(str(sorted(p.covers)))
        for _ in range(10):
            k = rng.randrange(1, min(6, len(entries)) + 1)
            cov = sorted(rng.sample(range(len(entries)), k))
            union = 0
            for i in cov:
                union |= entries[i].mask
            if union != p.full:
                cov = sorted(set(cov) | {full_idx})
            run = run_cover_engine(st, cov)
            assert set(run.selected) <= set(cov)
            assert len(run.selected) <= len(cov)
            total = 0
            for i in run.selected:
                total |= entries[i].mask
            assert total == p.full
            # rounds bounded by height + 1 frontier advances
            assert len(run.states) <= st.height + 2
            # successor law recomputed from the trace
            for k2 in range(1, len(run.states)):
                prev = run.states[k2 - 1].frontier
                cur = run.states[k2].frontier
                for z in cur:
                    assert any(p.lt(y, z) for y in prev)
                    assert z not in prev
