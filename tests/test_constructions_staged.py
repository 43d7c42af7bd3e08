import itertools

import pytest
from hypothesis import given, settings

from esakia.constructions import (
    climb,
    downset_open_check,
    promoted_open_in_subbase,
    separation_witness,
    staged_topology,
)
from esakia.errors import (
    LimitHeightUnsupported,
    NotATree,
    NotComparablePrecondition,
    NotOpenAtLevel,
)
from esakia.posets import FinitePoset, is_tree
from esakia.topology import esakia_check, is_discrete, priestley_check

from conftest import trees
from oracles import fs


def all_choice_maps(p: FinitePoset):
    """Every admissible plus-choice assignment for a tree."""
    branching = [(x, p.upper_covers(x)) for x in range(p.n) if p.upper_covers(x)]
    keys = [x for x, _ in branching]
    for combo in itertools.product(*(kids for _, kids in branching)):
        yield dict(zip(keys, combo))


class TestStagedLevels:
    def test_chain2_golden(self, zoo):
        st = staged_topology(zoo["chain2"])
        assert st.p_sets[0] == fs(0)
        assert st.plus_choice == {0: 1}
        assert st.s_sets[1] == fs()
        assert set(st.subbase_sets(1)) == {fs(), fs(0), fs(0, 1), fs(1)}

    def test_vee_golden(self, zoo):
        st = staged_topology(zoo["vee"])
        assert st.p_sets[0] == fs(0) and st.plus_choice == {0: 1}
        assert st.s_sets[1] == fs(2)
        # families: singleton {b}, downset {r}, lifts of tau_0 carved by
        # subsets of {r, b}
        assert set(st.subbase_sets(1)) == {
            fs(), fs(0), fs(1), fs(2), fs(1, 2), fs(0, 1, 2)}

    def test_singleton_tree(self, zoo):
        st = staged_topology(zoo["one"])
        assert st.height == 0
        assert st.final.base == (fs(0),)
        assert st.subbase_sets(0) == []

    def test_choice_override(self, zoo):
        st = staged_topology(zoo["vee"], plus_choice={0: 2})
        assert st.s_sets[1] == fs(1)
        assert fs(2) not in st.s_sets[1]

    def test_bad_choice_rejected(self, zoo):
        with pytest.raises(ValueError):
            staged_topology(zoo["vee"], plus_choice={0: 0})

    def test_not_a_tree(self, zoo):
        with pytest.raises(NotATree):
            staged_topology(zoo["lam"])

    def test_levels_beyond_height_guarded(self, zoo):
        st = staged_topology(zoo["chain2"])
        with pytest.raises(LimitHeightUnsupported):
            st.subbase_entries(2)

    def test_exact_mode_on_small_trees(self, zoo):
        st = staged_topology(FinitePoset(4, frozenset({(0, 1), (1, 2), (1, 3)})))
        assert all(m == "exact" for m in st.v_modes.values())


class TestLevelDataDefinitions:
    @given(trees())
    @settings(max_examples=40, deadline=None)
    def test_covered_chosen_isolated(self, p):
        st = staged_topology(p)
        prof = st.profile
        for alpha in range(st.height):
            covered = frozenset(
                x for x in prof.level(alpha)
                if any(prof.heights[y] == alpha + 1 and p.lt(x, y)
                       for y in range(p.n)))
            assert st.p_sets[alpha] == covered
            for x in covered:
                xp = st.plus_choice[x]
                assert prof.heights[xp] == alpha + 1 and p.lt(x, xp)
            chosen = {st.plus_choice[x] for x in covered}
            assert st.s_sets[alpha + 1] == prof.level(alpha + 1) - chosen

    @given(trees(max_n=5))
    @settings(max_examples=25, deadline=None)
    def test_subbase_holds_exactly_the_three_families(self, p):
        st = staged_topology(p)
        for alpha in range(1, st.height + 1):
            produced = set()
            for x in st.s_sets[alpha]:
                produced.add(1 << x)
            for x in st.p_sets[alpha - 1]:
                produced.add(p.down_masks[x])
            opens = st.opens_masks(alpha - 1)
            ground = st.p_sets[alpha - 1] | st.s_sets[alpha]
            from esakia._bits import mask_of, subsets
            for v in opens:
                lift = v | (p.up_of_mask(v & st.slice_mask(alpha - 1))
                            & st.level_carrier_mask(alpha))
                for z in subsets(mask_of(ground)):
                    produced.add(lift & ~p.down_of_mask(z))
            assert produced == set(st.subbase_mask_set(alpha))


class TestStagedTopologyProperties:
    def test_chain2_final_discrete_esakia(self, zoo):
        st = staged_topology(zoo["chain2"])
        assert is_discrete(st.final)
        assert esakia_check(zoo["chain2"], st.final)

    @given(trees(max_n=6))
    @settings(max_examples=40, deadline=None)
    def test_final_is_discrete_priestley_esakia(self, p):
        st = staged_topology(p)
        assert is_discrete(st.final)
        assert priestley_check(p, st.final).holds
        assert esakia_check(p, st.final)

    @given(trees(max_n=4))
    @settings(max_examples=20, deadline=None)
    def test_every_choice_map_works(self, p):
        for choice in all_choice_maps(p):
            st = staged_topology(p, plus_choice=choice)
            assert is_discrete(st.final) and esakia_check(p, st.final)


class TestOpenPromotion:
    def test_chain2_promoted_root(self, zoo):
        st = staged_topology(zoo["chain2"])
        assert promoted_open_in_subbase(st, 0, 1, {0})

    def test_empty_set_promotes(self, zoo):
        st = staged_topology(zoo["chain2"])
        assert promoted_open_in_subbase(st, 0, 1, set())

    def test_not_open_at_level(self, zoo):
        st = staged_topology(zoo["chain2"])
        with pytest.raises(NotOpenAtLevel):
            promoted_open_in_subbase(st, 0, 1, {1})

    def test_level_order_validated(self, zoo):
        st = staged_topology(zoo["chain2"])
        with pytest.raises(ValueError):
            promoted_open_in_subbase(st, 1, 1, {0})

    @given(trees(max_n=6))
    @settings(max_examples=30, deadline=None)
    def test_holds_for_all_level_pairs(self, p):
        st = staged_topology(p)
        for alpha in range(1, st.height + 1):
            for beta in range(alpha):
                for m in sorted(st.opens_masks(beta)):
                    u = frozenset(i for i in range(p.n) if m >> i & 1)
                    assert promoted_open_in_subbase(st, beta, alpha, u)


class TestClimb:
    def test_chain2(self, zoo):
        st = staged_topology(zoo["chain2"])
        assert climb(st, 0).values == (0, 1)
        assert climb(st, 0).value(1) == 1

    def test_vee_base_case_leaf(self, zoo):
        st = staged_topology(zoo["vee"])
        assert climb(st, 2).values == (2,)
        assert climb(st, 0).values == (0, 1)

    def test_respects_choice(self, zoo):
        st = staged_topology(zoo["vee"], plus_choice={0: 2})
        assert climb(st, 0).values == (0, 2)

    @given(trees())
    @settings(max_examples=40, deadline=None)
    def test_laws(self, p):
        st = staged_topology(p)
        prof = st.profile
        for x in range(p.n):
            c = climb(st, x)
            assert c.values[0] == x
            for k in range(len(c.values) - 1):
                assert p.leq(c.values[k], c.values[k + 1])
            for k, alpha in enumerate(range(c.start_level, st.height + 1)):
                f = c.values[k]
                # maximal within the level-alpha carrier
                assert not p.up_masks[f] & prof.le_mask(alpha) & ~(1 << f)
                # never lands on an isolated singleton
                if alpha > c.start_level:
                    assert f not in st.s_sets.get(alpha, frozenset())


class TestSeparation:
    def test_chain2_golden(self, zoo):
        st = staged_topology(zoo["chain2"])
        assert separation_witness(st, 1, 0) == fs(1)

    def test_vee_siblings(self, zoo):
        st = staged_topology(zoo["vee"])
        assert separation_witness(st, 1, 2) == fs(1)
        assert separation_witness(st, 2, 1) == fs(2)

    def test_comparable_rejected(self, zoo):
        st = staged_topology(zoo["chain2"])
        with pytest.raises(NotComparablePrecondition):
            separation_witness(st, 0, 1)
        with pytest.raises(NotComparablePrecondition):
            separation_witness(st, 0, 0)

    @given(trees())
    @settings(max_examples=40, deadline=None)
    def test_all_pairs_verified(self, p):
        st = staged_topology(p)
        t = st.final
        for x in range(p.n):
            for y in range(p.n):
                if not p.leq(x, y):
                    u = separation_witness(st, x, y)
                    assert x in u and y not in u
                    m = sum(1 << z for z in u)
                    assert p.is_upset_mask(m)
                    assert t.is_open_mask(m) and t.is_open_mask(t.full ^ m)


class TestDownsetOpen:
    def test_named_cases(self, zoo):
        for name in ("one", "chain2", "vee", "chain4", "broom"):
            if is_tree(zoo[name]):
                assert downset_open_check(staged_topology(zoo[name]))

    @given(trees())
    @settings(max_examples=40, deadline=None)
    def test_random_trees(self, p):
        assert downset_open_check(staged_topology(p))
