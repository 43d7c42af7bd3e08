import random

import pytest
from hypothesis import given, settings

from esakia.errors import CarrierTooLarge, NotACover
from esakia.generators import enumerate_posets
from esakia.posets import (
    FinitePoset,
    interval_complement_order_open,
    order_open_family,
    order_open_masks,
    order_subcover,
)

from conftest import posets
from oracles import antichain_poset, chain_poset, fs, order_open_fixpoint


class TestOrderOpenFamily:
    def test_singleton(self):
        assert order_open_family(FinitePoset(1, frozenset())) == [fs(), fs(0)]

    def test_chain2_all_subsets(self):
        fam = order_open_family(chain_poset(2))
        assert len(fam) == 4

    def test_antichain2_all_subsets(self):
        assert len(order_open_family(antichain_poset(2))) == 4

    def test_family_saturates_to_powerset(self):
        # On a finite carrier every subset is a finite intersection of
        # singleton complements, so the least family is the full powerset.
        for n in range(1, 7):
            for p in enumerate_posets(n):
                assert order_open_masks(p) == order_open_fixpoint(p)
                assert order_open_masks(p) == frozenset(range(1 << p.n))

    def test_cap(self):
        big = FinitePoset(17, frozenset())
        with pytest.raises(CarrierTooLarge):
            order_open_family(big)


class TestIntervalComplements:
    def test_chain2_upset_complement(self):
        assert interval_complement_order_open(chain_poset(2), fs(1), fs())

    def test_empty_pair(self):
        assert interval_complement_order_open(chain_poset(3), fs(), fs())

    def test_chain3_band(self):
        assert interval_complement_order_open(chain_poset(3), fs(0), fs(2))

    def test_point_outside_carrier(self):
        with pytest.raises(ValueError):
            interval_complement_order_open(chain_poset(2), fs(2), fs())
        with pytest.raises(ValueError):
            interval_complement_order_open(chain_poset(2), fs(), fs(0, 5))

    @given(posets(max_n=4))
    @settings(max_examples=30, deadline=None)
    def test_exhaustive_small(self, p):
        for ym in range(1 << p.n):
            for zm in range(1 << p.n):
                ys = frozenset(i for i in range(p.n) if ym >> i & 1)
                zs = frozenset(i for i in range(p.n) if zm >> i & 1)
                assert interval_complement_order_open(p, ys, zs)


class TestOrderSubcover:
    def test_greedy_picks_largest(self):
        out = order_subcover(chain_poset(2), [fs(0), fs(1), fs(0, 1)])
        assert out == [fs(0, 1)]

    def test_whole_carrier(self):
        p = chain_poset(3)
        assert order_subcover(p, [fs(0, 1, 2)]) == [fs(0, 1, 2)]

    def test_not_a_cover(self):
        with pytest.raises(NotACover):
            order_subcover(chain_poset(2), [fs(0)])

    def test_point_outside_carrier(self):
        with pytest.raises(ValueError):
            order_subcover(chain_poset(2), [fs(0, 1), fs(2)])

    def test_members_validated(self):
        # every subset of a finite poset is order-open, so members inside
        # the carrier are always accepted
        p = chain_poset(2)
        out = order_subcover(p, [fs(1), fs(0)])
        assert out == [fs(1), fs(0)] or out == [fs(0), fs(1)]

    def test_seeded_covers_always_succeed(self):
        rng = random.Random(7)
        for n in range(1, 7):
            p = chain_poset(n)
            full = (1 << n) - 1
            for _ in range(25):
                masks = [rng.randrange(1 << n) for _ in range(5)] + [full]
                cover = [frozenset(i for i in range(n) if m >> i & 1) for m in masks]
                chosen = order_subcover(p, cover)
                assert frozenset().union(*chosen) == frozenset(range(n))
                assert len(chosen) <= len(cover)
