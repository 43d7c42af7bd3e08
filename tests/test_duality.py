import random

from hypothesis import given, settings
from hypothesis import strategies as st

from esakia.algebra import upset_algebra, validate_lattice
from esakia.duality import (
    Labelling,
    canonical_form,
    canonical_key,
    double_dual_lattice,
    double_dual_poset,
    horn_verify,
    lattice_isomorphism,
    poset_isomorphism,
)
from esakia.posets import FinitePoset, is_root_system

from conftest import posets
from oracles import (
    all_isomorphisms_brute,
    antichain_poset,
    automorphisms_by_backtracking,
    chain_poset,
    classes_by_key_dictionary,
    crowns,
)


def relabeled(p: FinitePoset, perm: list[int]) -> FinitePoset:
    return FinitePoset(p.n, frozenset((perm[a], perm[b]) for a, b in p.covers))


class TestPosetIsomorphism:
    def test_identity(self, zoo):
        iso = poset_isomorphism(zoo["vee"], zoo["vee"])
        assert iso is not None and iso.backward[iso.forward[0]] == 0

    def test_chain_vs_antichain_absent(self):
        assert poset_isomorphism(chain_poset(2), antichain_poset(2)) is None

    def test_relabelled_vee_found(self, zoo):
        q = relabeled(zoo["vee"], [2, 0, 1])
        iso = poset_isomorphism(zoo["vee"], q)
        assert iso is not None
        for x in range(3):
            for y in range(3):
                assert zoo["vee"].leq(x, y) == q.leq(iso.forward[x], iso.forward[y])

    @given(posets(max_n=5), posets(max_n=5))
    @settings(max_examples=60, deadline=None)
    def test_agrees_with_permutation_scan(self, p, q):
        found = poset_isomorphism(p, q)
        brute = all_isomorphisms_brute(p, q)
        assert (found is not None) == bool(brute)
        if found is not None:
            assert list(found.forward) in [list(b) for b in brute]

    @given(posets(max_n=5), posets(max_n=5))
    @settings(max_examples=40, deadline=None)
    def test_symmetric_in_success(self, p, q):
        assert (poset_isomorphism(p, q) is None) == (poset_isomorphism(q, p) is None)


class TestLatticeIsomorphism:
    def test_identity(self):
        lat = upset_algebra(chain_poset(2)).lattice
        iso = lattice_isomorphism(lat, lat)
        assert iso is not None

    def test_three_chain_vs_boolean_absent(self):
        c4 = validate_lattice([[min(a, b) for b in range(4)] for a in range(4)],
                              [[max(a, b) for b in range(4)] for a in range(4)])
        b4 = upset_algebra(antichain_poset(2)).lattice
        assert lattice_isomorphism(c4, b4) is None

    def test_shuffled_boolean_found(self):
        b4 = upset_algebra(antichain_poset(2)).lattice
        perm = [3, 1, 2, 0]
        meet = [[perm[b4.meet[perm[a]][perm[b]]] for b in range(4)] for a in range(4)]
        join = [[perm[b4.join[perm[a]][perm[b]]] for b in range(4)] for a in range(4)]
        shuffled = validate_lattice(meet, join)
        iso = lattice_isomorphism(shuffled, b4)
        assert iso is not None
        for x in range(4):
            for y in range(4):
                assert iso.forward[shuffled.meet[x][y]] == \
                    b4.meet[iso.forward[x]][iso.forward[y]]


class TestDoubleDuals:
    def test_point(self):
        iso = double_dual_poset(FinitePoset(1, frozenset()))
        assert iso.forward == (0,)

    def test_vee_canonical_map(self, zoo):
        double_dual_poset(zoo["vee"])

    def test_lattice_small_cases(self):
        for lat in (validate_lattice([[0, 0], [0, 1]], [[0, 1], [1, 1]]),
                    validate_lattice([[min(a, b) for b in range(3)] for a in range(3)],
                                     [[max(a, b) for b in range(3)] for a in range(3)]),
                    upset_algebra(antichain_poset(2)).lattice):
            double_dual_lattice(lat)

    def test_heyting_implication_preserved(self, zoo):
        double_dual_lattice(upset_algebra(zoo["vee"]))

    @given(posets(max_n=5))
    @settings(max_examples=50, deadline=None)
    def test_both_duals_on_random_posets(self, p):
        double_dual_poset(p)
        double_dual_lattice(upset_algebra(p))


class TestHorn:
    def test_named_cases(self, zoo):
        assert horn_verify(zoo["lam"]) is True
        assert horn_verify(zoo["vee"]) is False
        assert horn_verify(zoo["one"]) is True

    @given(posets(max_n=5))
    @settings(max_examples=50, deadline=None)
    def test_agreement_everywhere(self, p):
        assert horn_verify(p) == is_root_system(p)


class TestCanonicalForm:
    @given(posets(max_n=5), st.data())
    @settings(max_examples=60, deadline=None)
    def test_invariant_under_relabelling(self, p, data):
        perm = data.draw(st.permutations(range(p.n)))
        q = relabeled(p, list(perm))
        assert canonical_key(p) == canonical_key(q)
        assert canonical_form(p) == canonical_form(q)

    def test_distinguishes_nonisomorphic(self):
        assert canonical_key(chain_poset(3)) != canonical_key(antichain_poset(3))

    def test_form_is_isomorphic_to_input(self, zoo):
        for p in zoo.values():
            assert poset_isomorphism(p, canonical_form(p)) is not None


class TestCanonicalLabellingOnEveryClass:
    """Every class with n <= 6 (the scan oracle's enumerator), each under
    three seeded relabellings."""

    @staticmethod
    def relabellings(p: FinitePoset, n_class: int):
        rng = random.Random(f"canonical:{p.n}:{n_class}")
        return [relabeled(p, rng.sample(range(p.n), p.n)) for _ in range(3)]

    def test_key_is_a_complete_invariant(self):
        for n in range(1, 7):
            keys = []
            for i, p in enumerate(classes_by_key_dictionary(n)):
                copies = [p] + self.relabellings(p, i)
                assert len({canonical_key(q) for q in copies}) == 1
                keys.append(canonical_key(p))
            assert len(set(keys)) == len(keys)

    def test_form_is_an_isomorphic_fixed_point(self):
        for n in range(1, 7):
            for i, p in enumerate(classes_by_key_dictionary(n)):
                forms = set()
                for q in self.relabellings(p, i):
                    form = canonical_form(q)
                    assert poset_isomorphism(q, form) is not None
                    assert canonical_form(form) == form
                    forms.add(form)
                assert len(forms) == 1

    def test_found_automorphisms_generate_the_group(self):
        for n in range(1, 7):
            for i, p in enumerate(classes_by_key_dictionary(n)):
                for q in self.relabellings(p, i):
                    lab = Labelling.of(q)
                    group = {tuple(range(n))}
                    frontier = list(group)
                    while frontier:
                        g = frontier.pop()
                        for h in lab.leaf[2]:
                            gh = tuple(h[g[x]] for x in range(n))
                            if gh not in group:
                                group.add(gh)
                                frontier.append(gh)
                    assert group == set(automorphisms_by_backtracking(q))

    def test_crowns_whose_cells_are_not_orbits(self):
        # a 2-crown beside a 4-crown: one colour per level, two orbits each,
        # so leaves differ and only the least one is canonical
        p = crowns(2, 4)
        form = canonical_form(p)
        aut = automorphisms_by_backtracking(p)
        for q in self.relabellings(p, 0):
            assert canonical_key(q) == canonical_key(p)
            assert canonical_form(q) == form
        lab = Labelling.of(p)
        assert len(set(lab.colors)) == 2
        assert lab.orbits() == [min(g[x] for g in aut) for x in range(p.n)]

    def test_antichain_is_polynomial(self):
        # orbit pruning and jumps: 64! orderings, one search
        assert canonical_key(antichain_poset(64)) == (64, 0)
