import pytest
from hypothesis import given, settings

from esakia.algebra import (
    gamma,
    is_godel,
    lattice_of_sets,
    prime_filters,
    spectrum,
    upset_algebra,
    validate_lattice,
)
from esakia.errors import NotALattice, NotDistributive
from esakia.posets import FinitePoset, is_root_system, upsets_of

from conftest import posets
from oracles import (
    fs,
    heyting_complete,
    implication_by_max_scan,
    mask,
    prime_filters_brute,
)


def chain_lattice(n: int):
    return validate_lattice(
        [[min(a, b) for b in range(n)] for a in range(n)],
        [[max(a, b) for b in range(n)] for a in range(n)])


def boolean2x2():
    return upset_algebra(FinitePoset(2, frozenset())).lattice


def diamond_m3_tables():
    n = 5  # bottom 0, atoms 1..3, top 4

    def mt(a, b):
        if a == b:
            return a
        if a == 0 or b == 0:
            return 0
        if a == 4:
            return b
        if b == 4:
            return a
        return 0

    def jt(a, b):
        if a == b:
            return a
        if a == 4 or b == 4:
            return 4
        if a == 0:
            return b
        if b == 0:
            return a
        return 4

    return ([[mt(a, b) for b in range(n)] for a in range(n)],
            [[jt(a, b) for b in range(n)] for a in range(n)])


class TestValidateLattice:
    def test_boolean_two(self):
        lat = validate_lattice([[0, 0], [0, 1]], [[0, 1], [1, 1]])
        assert (lat.bottom, lat.top) == (0, 1)

    def test_one_element(self):
        lat = validate_lattice([[0]], [[0]])
        assert lat.bottom == lat.top == 0

    def test_diamond_not_distributive(self):
        with pytest.raises(NotDistributive) as e:
            validate_lattice(*diamond_m3_tables())
        a, b, c = e.value.witness
        assert len({a, b, c}) == 3

    def test_broken_axiom_named(self):
        # both tables are max: meet absorption is the first axiom to fail
        with pytest.raises(NotALattice) as e:
            validate_lattice([[0, 1], [1, 1]], [[0, 1], [1, 1]])
        assert e.value.axiom == "meet-absorption"

    def test_broken_idempotence_named(self):
        with pytest.raises(NotALattice) as e:
            validate_lattice([[1, 0], [0, 1]], [[0, 1], [1, 1]])
        assert e.value.axiom == "meet-idempotence" and e.value.witness == (0,)

    def test_carrier_cap(self):
        n = 129
        with pytest.raises(NotALattice) as e:
            validate_lattice([[min(a, b) for b in range(n)] for a in range(n)],
                             [[max(a, b) for b in range(n)] for a in range(n)])
        assert e.value.axiom == "carrier-cap"


class TestHeytingComplete:
    def test_boolean_negation(self):
        h = heyting_complete(validate_lattice([[0, 0], [0, 1]], [[0, 1], [1, 1]]))
        assert h.implies[1][0] == 0

    def test_residuation_identities(self):
        lat = chain_lattice(4)
        h = heyting_complete(lat)
        for b in range(4):
            assert h.implies[b][b] == lat.top
        for c in range(4):
            assert h.implies[lat.top][c] == c

    def test_vee_upset_algebra_by_bruteforce_max(self, zoo):
        lat = upset_algebra(zoo["vee"]).lattice
        h = heyting_complete(lat)
        els = upsets_of(zoo["vee"])
        i1, i2 = els.index(fs(1)), els.index(fs(2))
        assert els[h.implies[i1][i2]] == fs(2)

    @given(posets(max_n=5))
    @settings(max_examples=30, deadline=None)
    def test_agrees_with_max_scan_oracle(self, p):
        lat = upset_algebra(p).lattice
        h = heyting_complete(lat)
        for b in range(lat.n):
            for c in range(lat.n):
                assert h.implies[b][c] == implication_by_max_scan(lat, b, c)

    @given(posets(max_n=5))
    @settings(max_examples=30, deadline=None)
    def test_residuation_all_triples(self, p):
        lat = upset_algebra(p).lattice
        h = heyting_complete(lat)
        for a in range(lat.n):
            for b in range(lat.n):
                for c in range(lat.n):
                    assert lat.leq(lat.meet[a][b], c) == lat.leq(a, h.implies[b][c])


class TestGodel:
    def test_chain_algebras_always(self):
        for n in range(1, 6):
            assert is_godel(heyting_complete(chain_lattice(n))).holds

    def test_lam_upset_algebra(self, zoo):
        assert is_godel(upset_algebra(zoo["lam"])).holds

    def test_vee_counterexample(self, zoo):
        els = upsets_of(zoo["vee"])
        check = is_godel(upset_algebra(zoo["vee"]))
        assert not check.holds
        x, y = check.counterexample
        assert {els[x], els[y]} == {fs(1), fs(2)}


class TestPrimeFilters:
    def test_two_by_two(self):
        lat = boolean2x2()
        assert [sorted(f.members) for f in prime_filters(lat)] == [[1, 3], [2, 3]]

    def test_three_chain(self):
        lat = chain_lattice(3)
        assert [sorted(f.members) for f in prime_filters(lat)] == [[2], [1, 2]]

    def test_one_element_none(self):
        assert prime_filters(validate_lattice([[0]], [[0]])) == []

    @given(posets(max_n=5))
    @settings(max_examples=30, deadline=None)
    def test_matches_definition_oracle(self, p):
        lat = upset_algebra(p).lattice
        ours = [mask(f.members) for f in prime_filters(lat)]
        assert ours == prime_filters_brute(lat)


class TestSpectrum:
    def test_two_by_two_gives_antichain(self):
        sp = spectrum(boolean2x2())
        assert sp.n == 2 and sp.covers == frozenset()

    def test_three_chain_gives_two_chain(self):
        sp = spectrum(chain_lattice(3))
        assert sp.n == 2 and sp.covers == frozenset({(0, 1)})

    def test_boolean_two_gives_point(self):
        sp = spectrum(chain_lattice(2))
        assert sp.n == 1


class TestUpsetAlgebra:
    def test_chain2_gives_three_chain(self, zoo):
        lat = upset_algebra(zoo["chain2"]).lattice
        assert lat.n == 3 and lat.join_irreducibles == (1, 2)

    def test_antichain2_gives_boolean(self, zoo):
        lat = upset_algebra(zoo["anti2"]).lattice
        assert lat.n == 4 and len(lat.join_irreducibles) == 2

    def test_vee_implication_formula(self, zoo):
        els = upsets_of(zoo["vee"])
        h = upset_algebra(zoo["vee"])
        assert els[h.implies[els.index(fs(1))][els.index(fs(2))]] == fs(2)

    @given(posets(max_n=5))
    @settings(max_examples=30, deadline=None)
    def test_tables_pass_validation(self, p):
        lat = upset_algebra(p).lattice
        revalidated = validate_lattice(lat.meet, lat.join)
        assert (revalidated.bottom, revalidated.top) == (lat.bottom, lat.top)


class TestGamma:
    def test_atom_of_two_by_two(self):
        lat = boolean2x2()
        els = upsets_of(FinitePoset(2, frozenset()))
        a = els.index(fs(0))
        assert gamma(lat, a) == fs(0)

    def test_bounds(self):
        lat = boolean2x2()
        assert gamma(lat, lat.top) == fs(0, 1)
        assert gamma(lat, lat.bottom) == fs()

    @given(posets(max_n=5))
    @settings(max_examples=30, deadline=None)
    def test_bounded_lattice_embedding(self, p):
        lat = upset_algebra(p).lattice
        seen = {}
        for a in range(lat.n):
            g = gamma(lat, a)
            assert g not in seen.values() or lat.n == 1
            seen[a] = g
        for a in range(lat.n):
            for b in range(lat.n):
                assert seen[lat.meet[a][b]] == seen[a] & seen[b]
                assert seen[lat.join[a][b]] == seen[a] | seen[b]


class TestLatticeOfSets:
    def test_upset_family(self, zoo):
        lat = lattice_of_sets(upsets_of(zoo["vee"]))
        assert lat.n == 5

    def test_not_closed(self):
        with pytest.raises(NotALattice):
            lattice_of_sets([fs(0), fs(1)])


class TestHornOnAlgebraSide:
    @given(posets(max_n=5))
    @settings(max_examples=40, deadline=None)
    def test_godel_iff_root_system(self, p):
        assert is_godel(upset_algebra(p)).holds == is_root_system(p)


class TestImplicationAgreement:
    def test_exhaustive_small_classes(self):
        from esakia.generators import enumerate_posets
        for n in range(1, 7):
            for p in enumerate_posets(n):
                h = upset_algebra(p)
                assert heyting_complete(h.lattice).implies == h.implies

    def test_sampled_seven_element_posets(self):
        from esakia.generators import random_poset
        for s in range(8):
            p = random_poset(s, 7, 0.35)
            h = upset_algebra(p)
            assert heyting_complete(h.lattice).implies == h.implies

    def test_gamma_embedding_exhaustive(self):
        from esakia.generators import enumerate_posets
        for n in range(1, 7):
            for p in enumerate_posets(n):
                lat = upset_algebra(p).lattice
                images = [gamma(lat, a) for a in range(lat.n)]
                assert len(set(images)) == lat.n
                for a in range(lat.n):
                    for b in range(lat.n):
                        assert images[lat.meet[a][b]] == images[a] & images[b]
                        assert images[lat.join[a][b]] == images[a] | images[b]
