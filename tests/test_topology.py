import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from esakia.errors import OversizeSubbase
from esakia.posets import FinitePoset, upsets_of
from esakia.topology import (
    FiniteTopology,
    clopen_upsets,
    esakia_check,
    generate_base,
    is_discrete,
    priestley_check,
    union_closure,
)

from conftest import posets
from oracles import all_opens, closed_base, downset_open_for_all_opens, fs, mask, unions


def discrete_on(n: int) -> FiniteTopology:
    return generate_base([fs(x) for x in range(n)], n)


class TestGenerateBase:
    def test_intersections_appear(self):
        t = generate_base([fs(0), fs(0, 1), fs(1, 2), fs(2)], 3)
        assert fs(1) in t.base  # {0,1} ∩ {1,2}

    def test_empty_subbase(self):
        t = generate_base([], 2)
        assert t.base == (fs(0, 1),)

    def test_empty_set_subbase(self):
        # ∅ is open but the least neighbourhood of no point, so the least
        # base leaves it out
        t = generate_base([fs()], 2)
        assert t.subbase == (fs(),)
        assert t.base == (fs(0, 1),)
        assert t.is_open_mask(0)

    def test_oversize(self):
        sets = [fs(i) for i in range(21)]
        with pytest.raises(OversizeSubbase):
            generate_base(sets, 21)

    def test_duplicates_dont_trip_the_cap(self):
        sets = [fs(i % 4) for i in range(40)]
        t = generate_base(sets, 4)
        assert len(t.subbase) == 4

    def test_cap_lifted_internally(self):
        # the cap guards generate_base only: a topology built from its
        # subbase directly, as the staged final is, has none
        sets = tuple(fs(i) for i in range(21))
        t = FiniteTopology(21, sets)
        assert is_discrete(t) and t.base == sets

    @given(posets(max_n=6), st.integers(0, 2**20))
    @settings(max_examples=40, deadline=None)
    def test_base_is_the_least_base(self, p, seed):
        # the base holds exactly the members of the intersection closure
        # that are ⊆-minimal at one of their points, and generates the same
        # opens
        rng = random.Random(seed)
        sub = [frozenset(x for x in range(p.n) if rng.random() < 0.5)
               for _ in range(rng.randrange(5))]
        t = generate_base(sub, p.n)
        closure = closed_base(t)
        minimal = {b for b in closure for x in range(p.n) if b >> x & 1 and not any(
            c >> x & 1 and c != b and not c & ~b for c in closure)}
        base = [mask(b) for b in t.base]
        assert base == sorted(minimal)
        assert unions(base) == unions(closure)


class TestIsOpen:
    def test_discrete(self):
        assert discrete_on(3).is_open_mask(mask(fs(0, 2)))

    def test_indiscrete(self):
        t = generate_base([], 2)
        assert not t.is_open_mask(mask(fs(0)))
        assert t.is_open_mask(mask(fs())) and t.is_open_mask(mask(fs(0, 1)))

    def test_points_past_the_carrier_are_not_open(self):
        assert not discrete_on(2).is_open_mask(0b100)

    def test_pointwise_decision_on_unclosed_subbase(self):
        # subbase given directly, not intersection-closed: point 1's least
        # neighbourhood {1} is the meet of both members, neither of them
        t = FiniteTopology(3, (fs(0, 1), fs(1, 2)))
        assert t.neighbourhoods == (0b011, 0b010, 0b110)
        assert t.is_open_mask(0b010) and not t.is_open_mask(0b001)
        assert t.is_open_mask(0b011) and t.is_open_mask(0b110)
        assert t.base == (fs(1), fs(0, 1), fs(1, 2))

    @given(posets(max_n=6), st.integers(0, 2**20))
    @settings(max_examples=40, deadline=None)
    def test_agrees_with_all_opens_oracle(self, p, seed):
        rng = random.Random(seed)
        sub = [frozenset(x for x in range(p.n) if rng.random() < 0.5)
               for _ in range(rng.randrange(5))]
        t = generate_base(sub, p.n)
        opens = all_opens(t)
        for m in range(1 << p.n):
            assert t.is_open_mask(m) == (m in opens)

    def test_oracle_agreement_at_ten_points(self):
        rng = random.Random(10)
        for _ in range(3):
            sub = [frozenset(x for x in range(10) if rng.random() < 0.4)
                   for _ in range(4)]
            t = generate_base(sub, 10)
            opens = all_opens(t)
            for m in range(1 << 10):
                assert t.is_open_mask(m) == (m in opens)


class TestUnionClosure:
    def test_every_union_of_the_generators(self):
        assert union_closure([0b10, 0b01]) == [0, 1, 2, 3]

    @pytest.mark.parametrize("seed", range(20))
    def test_ascending_and_equal_to_all_unions(self, seed):
        rng = random.Random(f"unions:{seed}")
        gens = [rng.randrange(1 << 9) for _ in range(rng.randrange(8))]
        gens += gens[:2]  # repeated generators add nothing
        assert union_closure(gens) == sorted(unions(gens))


class TestDiscrete:
    def test_cases(self):
        assert is_discrete(discrete_on(1))
        assert not is_discrete(generate_base([], 2))
        assert is_discrete(discrete_on(3))


class TestClopenUpsets:
    def test_discrete_chain2(self):
        p = FinitePoset(2, frozenset({(0, 1)}))
        assert clopen_upsets(p, discrete_on(2)) == [fs(), fs(1), fs(0, 1)]

    def test_indiscrete(self):
        p = FinitePoset(2, frozenset({(0, 1)}))
        assert clopen_upsets(p, generate_base([], 2)) == [fs(), fs(0, 1)]

    def test_discrete_vee(self, zoo):
        assert clopen_upsets(zoo["vee"], discrete_on(3)) == \
            [fs(), fs(1), fs(2), fs(1, 2), fs(0, 1, 2)]

    @given(posets(max_n=6))
    @settings(max_examples=30, deadline=None)
    def test_discrete_gives_all_upsets(self, p):
        assert tuple(clopen_upsets(p, discrete_on(p.n))) == upsets_of(p)


class TestSeparationChecks:
    def test_discrete_always_priestley(self, zoo):
        for p in zoo.values():
            rep = priestley_check(p, discrete_on(p.n))
            assert rep.holds
            for (x, y), u in rep.witnesses.items():
                assert x in u and y not in u

    def test_indiscrete_fails_with_pair(self, zoo):
        rep = priestley_check(zoo["anti2"], generate_base([], 2))
        assert not rep.holds and set(rep.failures) == {(0, 1), (1, 0)}

    def test_esakia_discrete(self, zoo):
        for p in zoo.values():
            assert esakia_check(p, discrete_on(p.n))

    def test_esakia_fails_on_priestley_failure(self, zoo):
        assert not esakia_check(zoo["anti2"], generate_base([], 2))

    @given(posets(max_n=5), st.integers(0, 2**20))
    @settings(max_examples=40, deadline=None)
    def test_priestley_implies_discrete(self, p, seed):
        rng = random.Random(seed)
        sub = [frozenset(x for x in range(p.n) if rng.random() < 0.5)
               for _ in range(rng.randrange(6))]
        t = generate_base(sub, p.n)
        if priestley_check(p, t).holds:
            assert is_discrete(t)

    @given(posets(max_n=5), st.integers(0, 2**20))
    @settings(max_examples=40, deadline=None)
    def test_esakia_base_reduction_matches_all_opens(self, p, seed):
        rng = random.Random(seed)
        sub = [frozenset(x for x in range(p.n) if rng.random() < 0.5)
               for _ in range(rng.randrange(6))]
        t = generate_base(sub, p.n)
        base_only = all(t.is_open_mask(p.down_of_mask(mask(b))) for b in t.base)
        assert base_only == downset_open_for_all_opens(p, t)
