import pytest

from esakia.duality import canonical_key, poset_isomorphism
from esakia.errors import SizeCap
from esakia.generators import (
    enumerate_posets,
    random_forest,
    random_poset,
    random_root_system,
    random_tree,
)
from esakia.posets import FinitePoset, is_forest, is_root_system, is_tree

from oracles import class_count_by_min_perm, labeled_poset_count


class TestEnumeration:
    def test_tiny_counts(self):
        assert len(list(enumerate_posets(1))) == 1
        assert len(list(enumerate_posets(2))) == 2
        assert len(list(enumerate_posets(3))) == 5

    def test_counts_match_independent_min_perm_oracle(self):
        for n in range(1, 5):
            assert len(list(enumerate_posets(n))) == class_count_by_min_perm(n)

    def test_classes_match_the_key_dictionary_oracle(self):
        # compared by the permutation-scan key, not the key under test
        from oracles import classes_by_key_dictionary, scan_key
        for n in range(1, 7):
            ours = sorted(scan_key(p) for p in enumerate_posets(n))
            assert ours == sorted(scan_key(p) for p in classes_by_key_dictionary(n))

    def test_no_duplicate_classes(self):
        classes = list(enumerate_posets(5))
        keys = {canonical_key(p) for p in classes}
        assert len(keys) == len(classes) == 63

    def test_representatives_are_canonical(self):
        from esakia.duality import canonical_form
        for n in range(1, 8):
            for p in enumerate_posets(n):
                assert canonical_form(p) == p

    def test_cap(self):
        with pytest.raises(SizeCap):
            list(enumerate_posets(9))
        with pytest.raises(ValueError):
            list(enumerate_posets(0))

    def test_labeled_totals_by_automorphism_sum(self):
        # independent cross-check: sum over classes of n!/|Aut| equals the
        # labeled count from the pair-state backtracking oracle
        import math
        from oracles import automorphism_count
        for n in range(1, 6):
            total = sum(math.factorial(n) // automorphism_count(p)
                        for p in enumerate_posets(n))
            assert total == labeled_poset_count(n)

    def test_seven_points(self):
        # A000112: 2045 classes, pairwise non-isomorphic by the scan key;
        # A001035: 6129859 labelled posets = sum of 7!/|Aut| over the classes
        import math
        from oracles import automorphisms_by_backtracking, scan_key
        seven = list(enumerate_posets(7))
        assert len(seven) == len({scan_key(p) for p in seven}) == 2045
        assert sum(math.factorial(7) // len(automorphisms_by_backtracking(p))
                   for p in seven) == 6129859

    def test_augmentation_keeps_one_orbit_of_maximal_points(self):
        # crowns(2, 3): all five maximal points share a colour but fall in
        # two orbits; exactly one orbit, the same under every relabelling,
        # extends canonically
        import random
        from esakia.duality import Labelling
        from esakia.generators import _extends_canonically
        from oracles import crowns
        p = crowns(2, 3)
        kept_sizes = set()
        for seed in range(3):
            perm = random.Random(seed).sample(range(p.n), p.n)
            q = FinitePoset(p.n, frozenset((perm[a], perm[b]) for a, b in p.covers))
            lab = Labelling.of(q)
            maximal = [x for x in range(q.n) if not lab.ups[x]]
            kept = [v for v in maximal if _extends_canonically(lab, maximal, v)]
            assert len({lab.orbits()[v] for v in kept}) == 1
            assert len(kept) == sum(lab.orbits()[x] == lab.orbits()[kept[0]] for x in range(q.n))
            kept_sizes.add(len(kept))
        assert len(kept_sizes) == 1

    def test_backtracking_automorphism_count_matches_scan(self):
        from oracles import automorphism_count, automorphisms_by_backtracking
        for n in range(1, 6):
            for p in enumerate_posets(n):
                assert len(automorphisms_by_backtracking(p)) == automorphism_count(p)


class TestRandomGenerators:
    def test_single_element_tree(self):
        p = random_tree(1, 1)
        assert p.n == 1 and is_tree(p)

    def test_determinism(self):
        assert random_tree(9, 7) == random_tree(9, 7)
        assert random_poset(9, 7, 0.4) == random_poset(9, 7, 0.4)
        assert random_root_system(9, 7) == random_root_system(9, 7)

    def test_seed_changes_output(self):
        assert any(random_tree(s, 6) != random_tree(s + 1, 6) for s in range(5))

    def test_kinds_by_construction(self):
        for s in range(25):
            assert is_tree(random_tree(s, 6))
            assert is_forest(random_forest(s, 6))
            assert is_root_system(random_root_system(s, 6))

    def test_random_poset_is_valid(self):
        for s in range(25):
            p = random_poset(s, 6, 0.5)
            assert p.n == 6  # constructor validated the Hasse form

    def test_relabelled_duplicates_are_isomorphic(self):
        # the enumerator's classes are pairwise non-isomorphic
        classes = list(enumerate_posets(4))
        for i, p in enumerate(classes):
            for q in classes[i + 1:]:
                assert poset_isomorphism(p, q) is None
