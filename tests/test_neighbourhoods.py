"""Cross-checks of the least-neighbourhood decisions against the paths they
replace: openness and discreteness by scanning the intersection closure of
the subbase, level opens and bases as the unions and intersections of each
level's subbase (every level discrete), the level open rule "inside the
level carrier" as a scan of the level base, and the clopen-upset family, the
Priestley report and the Esakia verdict read from the least clopen upsets
as the scans over every upset."""

import random
from functools import lru_cache

import pytest

from esakia._bits import bits
from esakia.constructions import gallery, root_subbase, root_topology_check, staged_topology
from esakia.generators import enumerate_posets, random_root_system, random_tree
from esakia.posets import is_root_system, is_tree
from esakia.topology import (
    FiniteTopology,
    clopen_upsets,
    esakia_check,
    is_discrete,
    least_neighbourhoods,
    priestley_check,
)

from oracles import (
    clopen_upsets_by_scan,
    closed_base,
    downset_open_for_all_opens,
    esakia_by_scan,
    intersection_closure,
    is_open_by_base_scan,
    mask,
    priestley_by_scan,
    unions,
)


@lru_cache(maxsize=None)
def classes_upto(n: int):
    return tuple(p for k in range(1, n + 1) for p in enumerate_posets(k))


def trees_upto(n: int):
    return [p for p in classes_upto(n) if is_tree(p)]


def least_members(base: list[int], carrier: int) -> dict[int, int]:
    """Per point of carrier, the ⊆-least element of a closed base holding it."""
    out = {}
    for x in bits(carrier):
        containing = [b for b in base if b >> x & 1]
        least = min(containing, key=int.bit_count)
        assert all(not least & ~b for b in containing)
        out[x] = least
    return out


def assert_matches_base_scan(t: FiniteTopology):
    base = closed_base(t)
    for m in range(1 << t.carrier_size):
        assert t.is_open_mask(m) == is_open_by_base_scan(base, m), (t, m)
    assert is_discrete(t) == all(
        is_open_by_base_scan(base, 1 << x) for x in range(t.carrier_size))
    least = least_members(base, t.full)
    assert t.neighbourhoods == tuple(least[x] for x in range(t.carrier_size))
    assert [mask(b) for b in t.base] == sorted(set(least.values()))


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
    def test_seeded_subbases(self, seed):
        # subbases given directly, mostly not intersection-closed: a point's
        # least neighbourhood may be no subbase member, or the whole carrier
        rng = random.Random(f"raw:{seed}")
        n = rng.randrange(1, 9)
        sub = tuple(frozenset(x for x in range(n) if rng.random() < 0.4)
                    for _ in range(rng.randrange(7)))
        assert_matches_base_scan(FiniteTopology(n, sub))

    def test_mask_beyond_carrier_is_not_open(self):
        t = FiniteTopology(2, (frozenset({0}), frozenset({1})))
        assert t.is_open_mask(0b11) and not t.is_open_mask(0b100)

    @pytest.mark.parametrize("seed", range(20))
    def test_esakia_on_least_neighbourhoods_matches_all_opens(self, seed):
        rng = random.Random(f"esakia:{seed}")
        p = next(q for q in rng.sample(classes_upto(5), 40) if q.n >= 3)
        sub = tuple(frozenset(x for x in range(p.n) if rng.random() < 0.5)
                    for _ in range(rng.randrange(1, 7)))
        t = FiniteTopology(p.n, sub)
        all_downsets_open = downset_open_for_all_opens(p, t)
        assert all(t.is_open_mask(p.down_of_mask(nb))
                   for nb in set(t.neighbourhoods)) == all_downsets_open
        assert esakia_check(p, t) == (priestley_check(p, t).holds and all_downsets_open)


def assert_matches_clopen_scans(p, t: FiniteTopology):
    rep, ref = priestley_check(p, t), priestley_by_scan(p, t)
    assert rep.holds == ref.holds, (p, t)
    assert list(rep.witnesses.items()) == list(ref.witnesses.items()), (p, t)
    assert rep.failures == ref.failures, (p, t)
    # one witness set per point x, shared by every pair (x, y)
    for x in range(p.n):
        assert len({id(w) for (x2, _), w in rep.witnesses.items() if x2 == x}) <= 1
    assert clopen_upsets(p, t) == clopen_upsets_by_scan(p, t), (p, t)
    assert esakia_check(p, t) == esakia_by_scan(p, t), (p, t)


class TestLeastClopenUpsetsAgainstScans:
    def test_seeded_subbases_on_every_class_upto_five(self):
        # twelve random subbases per class: almost all non-discrete, so the
        # failures and the clopen family below the powerset are exercised
        universe = classes_upto(5)
        assert len(universe) == 87
        discrete = 0
        for k, p in enumerate(universe):
            rng = random.Random(f"clopen:{k}")
            for _ in range(12):
                sub = tuple(frozenset(x for x in range(p.n) if rng.random() < 0.5)
                            for _ in range(rng.randrange(7)))
                t = FiniteTopology(p.n, sub)
                discrete += is_discrete(t)
                assert_matches_clopen_scans(p, t)
        assert discrete < len(universe) * 12 // 4

    def test_root_systems_and_staged_finals_upto_seven(self):
        for p in classes_upto(7):
            if is_root_system(p):
                assert_matches_clopen_scans(p, root_topology_check(p))
            if is_tree(p):
                assert_matches_clopen_scans(p, staged_topology(p).final)


class TestStagedLevelsAgainstOracles:
    @staticmethod
    def check_levels(p):
        st = staged_topology(p)
        for alpha in st.levels():
            carrier = st.level_carrier_mask(alpha)
            masks = [e.mask for e in st.subbase_entries(alpha)]
            # every level is discrete: N[x] == {x} on the level carrier
            nbhds = least_neighbourhoods(masks, carrier)
            assert all(nbhds[x] == 1 << x for x in bits(carrier)), alpha
            assert all(st.is_open_at_level(alpha, 1 << x) for x in bits(carrier)), alpha
            closure = intersection_closure(masks, carrier)
            assert sorted(m for m, _ in st.base_entries(alpha)) == sorted(closure), alpha
            assert st.opens_masks(alpha) == unions(closure), alpha
        top = tuple(e.points for e in st.subbase_entries(st.height))
        assert st.final == FiniteTopology(p.n, top)

    def test_all_trees_upto_seven(self):
        trees = trees_upto(7)
        assert len(trees) == 85
        for p in trees:
            self.check_levels(p)

    @pytest.mark.parametrize("n", [8, 10, 12])
    def test_seeded_random_trees(self, n):
        for seed in range(3):
            self.check_levels(random_tree(seed, n))

    @pytest.mark.parametrize("n", range(2, 8))
    def test_each_point_is_the_intersection_the_proof_names(self, n):
        # the discreteness proof of staged_topology, case by case, under
        # the default choice of covers and under the last upper cover
        for p in trees_upto(n):
            if p.n != n:
                continue
            last = {x: p.upper_covers(x)[-1] for x in range(n) if p.upper_covers(x)}
            for st in (staged_topology(p), staged_topology(p, plus_choice=last)):
                prof = st.profile
                for alpha in range(st.height):
                    members = st.subbase_mask_set(alpha + 1)
                    le_next = st.level_carrier_mask(alpha + 1)

                    def lift(v):
                        return v | (p.up_of_mask(v & st.slice_mask(alpha)) & le_next)

                    for x in bits(le_next):
                        if x in st.s_sets[alpha + 1]:
                            named = [1 << x]
                        elif prof.heights[x] <= alpha and x not in st.p_sets[alpha]:
                            named = [lift(1 << x)]
                        elif prof.heights[x] == alpha:
                            named = [p.down_masks[x], lift(1 << x)]
                        else:
                            y = p.lower_covers(x)[0]
                            assert st.plus_choice[y] == x
                            siblings = [s for s in p.upper_covers(y) if s != x]
                            assert set(siblings) <= st.s_sets[alpha + 1]
                            z = (1 << y) | sum(1 << s for s in siblings)
                            named = [lift(1 << y) & ~p.down_of_mask(z)]
                        meet = le_next
                        for m in named:
                            assert m in members, (p, alpha, x, m)
                            meet &= m
                        assert meet == 1 << x, (p, alpha, x)

    def test_open_rule_matches_level_base_scan(self):
        # "inside the level carrier" decides openness as a scan of the
        # intersection closure of the level subbase does, on every mask
        for p in trees_upto(6):
            st = staged_topology(p)
            for alpha in st.levels():
                carrier = st.level_carrier_mask(alpha)
                base = intersection_closure(
                    [e.mask for e in st.subbase_entries(alpha)], carrier)
                for m in range(1 << p.n):
                    expected = not m & ~carrier and is_open_by_base_scan(base, m)
                    assert st.is_open_at_level(alpha, m) == expected, (p, alpha, m)


class TestLargeRootSystems:
    # past the public subbase cap: the topology is built from the subbase
    # directly and decided from its least neighbourhoods alone
    @staticmethod
    def check(p):
        t = FiniteTopology(p.n, root_subbase(p).sets)
        assert is_discrete(t)
        assert all(t.is_open_mask(p.down_of_mask(nb)) for nb in t.neighbourhoods)

    def test_figure2_ten_to_thirty(self):
        for n in range(10, 31):
            self.check(gallery("figure2", n))

    @pytest.mark.parametrize("n", [12, 25, 50, 100, 200])
    def test_random_root_systems(self, n):
        for seed in range(3):
            self.check(random_root_system(seed, n))
