"""Cross-checks of the least-neighbourhood decisions against the paths they
replace: openness and discreteness by whole-base scan, level opens as unions
of every base element, the final base as the intersection closure of the top
subbase, and the restricted-level rule as the union closure of the whole
level base."""

import random
from functools import lru_cache

import pytest

from esakia._bits import points_of
from esakia.constructions import root_topology_check, staged_topology
from esakia.generators import enumerate_posets, random_tree
from esakia.posets import is_root_system, is_tree
from esakia.topology import (
    FiniteTopology,
    esakia_check,
    intersection_closure,
    is_discrete,
    priestley_check,
    union_closure,
)

from oracles import all_opens, downset_open_for_all_opens, is_open_by_base_scan


@lru_cache(maxsize=None)
def classes_upto(n: int):
    return tuple(p for k in range(1, n + 1) for p in enumerate_posets(k))


def trees_upto(n: int):
    return [p for p in classes_upto(n) if is_tree(p)]


def assert_matches_base_scan(t: FiniteTopology):
    for m in range(1 << t.carrier_size):
        assert t.is_open_mask(m) == is_open_by_base_scan(t, m), (t, m)
    assert is_discrete(t) == all(
        is_open_by_base_scan(t, 1 << x) for x in range(t.carrier_size))


def level_topology(st, alpha: int) -> FiniteTopology:
    base = tuple(points_of(m) for m, _ in st.base_entries(alpha))
    return FiniteTopology(st.tree.n, (), base)


class TestOpennessAgainstBaseScan:
    def test_root_systems_upto_seven(self):
        roots = [p for p in classes_upto(7) if is_root_system(p)]
        assert len(roots) == 199
        for p in roots:
            assert_matches_base_scan(root_topology_check(p))

    def test_staged_finals_upto_seven(self):
        for p in trees_upto(7):
            assert_matches_base_scan(staged_topology(p).final)

    @pytest.mark.parametrize("seed", range(40))
    def test_seeded_raw_bases(self, seed):
        # bases given directly, mostly not intersection-closed: points may
        # have several minimal members, or none
        rng = random.Random(f"raw:{seed}")
        n = rng.randrange(1, 9)
        base = tuple(frozenset(x for x in range(n) if rng.random() < 0.4)
                     for _ in range(rng.randrange(7)))
        t = FiniteTopology(n, (), base)
        assert_matches_base_scan(t)
        minimal = set()
        for x, nbs in enumerate(t.neighbourhoods):
            containing = [b for b in t.base_masks if b >> x & 1]
            expected = {b for b in containing
                        if not any(c != b and not c & ~b for c in containing)}
            assert set(nbs) == expected and len(nbs) == len(expected)
            minimal |= expected
        assert t.minimal_base_masks() == minimal

    def test_mask_beyond_carrier_is_not_open(self):
        t = FiniteTopology(2, (), (frozenset({0}), frozenset({1})))
        assert t.is_open_mask(0b11) and not t.is_open_mask(0b100)

    @pytest.mark.parametrize("seed", range(20))
    def test_esakia_on_minimal_members_matches_all_opens(self, seed):
        rng = random.Random(f"esakia:{seed}")
        p = next(q for q in rng.sample(classes_upto(5), 40) if q.n >= 3)
        base = tuple(frozenset(x for x in range(p.n) if rng.random() < 0.5)
                     for _ in range(rng.randrange(1, 7)))
        t = FiniteTopology(p.n, (), base + (frozenset(range(p.n)),))
        all_downsets_open = downset_open_for_all_opens(p, t)
        assert all(t.is_open_mask(p.down_of_mask(b))
                   for b in t.minimal_base_masks()) == all_downsets_open
        assert esakia_check(p, t) == (priestley_check(p, t).holds and all_downsets_open)


class TestStagedLevelsAgainstOracles:
    @staticmethod
    def check_levels(p):
        st = staged_topology(p)
        for alpha in st.levels():
            assert st.opens_masks(alpha) == all_opens(level_topology(st, alpha)), alpha
        top = [e.mask for e in st.subbase_entries(st.height)]
        assert sorted(st.final.base_masks) == sorted(intersection_closure(top, p.full))

    def test_all_trees_upto_seven(self):
        trees = trees_upto(7)
        assert len(trees) == 85
        for p in trees:
            self.check_levels(p)

    @pytest.mark.parametrize("n", [8, 10, 12])
    def test_seeded_random_trees(self, n):
        for seed in range(3):
            self.check_levels(random_tree(seed, n))

    @pytest.mark.parametrize("cap", [1, 2, 3, 4, 6, 8, 16])
    def test_restricted_rule_matches_whole_base_closure(self, cap):
        # a level is restricted exactly when the union closure over every
        # base element refuses the cap
        for p in trees_upto(6):
            st = staged_topology(p, v_cap=cap)
            for alpha in range(1, st.height + 1):
                whole = union_closure([m for m, _ in st.base_entries(alpha)], cap=cap)
                assert (st.opens_masks(alpha) is None) == (whole is None), (p, alpha)
