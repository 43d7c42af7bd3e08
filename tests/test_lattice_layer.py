"""Cross-checks of the numpy lattice layer against the scans it replaced:
meet/join tables by dict lookup, order masks by meet-row scans, and
join-irreducibles by folding joins over each strict downset.  The tuple
views `meet`/`join` and `leq` are checked against the same references.
`lattice_of_sets` maps results back to indices through a dense lookup or,
for wide families, by binary search; every closed and unclosed family is
also shifted onto the binary-search path and compared.  Spectrum labels and
prime filters are checked against the bit scans of the up masks, and the
spectrum path (lower-cover counts, generator rows) against the down-mask
test, the up-mask generator order and a spectrum built from `leq` pair by
pair."""

import random

import numpy as np
import pytest

from esakia._bits import mask_of
from esakia.algebra import BLOCK, gamma, lattice_of_sets, prime_filters, spectrum, upset_algebra
from esakia.constructions import gallery, root_topology_check
from esakia.duality import poset_isomorphism
from esakia.errors import NotALattice
from esakia.generators import enumerate_posets, random_root_system
from esakia.posets import is_root_system, upsets_of
from esakia.topology import clopen_upsets

from oracles import (
    join_irreducibles_by_down_masks,
    join_irreducibles_by_fold,
    lattice_tables_by_lookup,
    order_masks_by_scan,
    prime_filters_by_bit_scan,
    spectrum_by_pairwise_leq,
    spectrum_generators_by_up_masks,
    spectrum_labels_by_bit_scan,
)


@pytest.fixture
def searches(monkeypatch):
    """The calls lattice_of_sets makes to np.searchsorted, recorded."""
    calls = []
    real = np.searchsorted

    def spy(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(np, "searchsorted", spy)
    return calls


def assert_matches_scans(lat, ref):
    """lat against the dict-lookup lattice ref of the same family."""
    assert lat.meet == tuple(map(tuple, ref.meet_array.tolist()))
    assert lat.join == tuple(map(tuple, ref.join_array.tolist()))
    # every entry is one of n shared Python ints
    assert {type(v) for row in lat.meet + lat.join for v in row} == {int}
    assert len({id(v) for row in lat.meet + lat.join for v in row}) == lat.n
    assert all(lat.leq(a, b) == (lat.meet[a][b] == a)
               for a in range(lat.n) for b in range(lat.n))
    up, down = order_masks_by_scan(lat)
    assert lat.up_masks == up
    assert lat.join_irreducibles == join_irreducibles_by_fold(lat)
    assert lat.spectrum_generators == tuple(sorted(lat.join_irreducibles, key=up.__getitem__))


def outcome(build, sets):
    """The lattice build returns, or the (axiom, witness) of its NotALattice."""
    try:
        return build(sets)
    except NotALattice as e:
        return e.axiom, e.witness


def assert_same_outcome(sets):
    got = outcome(lattice_of_sets, sets)
    ref = outcome(lattice_tables_by_lookup, sets)
    assert got == ref
    if not isinstance(got, tuple):
        assert_matches_scans(got, ref)
    return got


def assert_binary_search_agrees(sets, searches):
    """sets searches exactly when 1 << width > k * k, width the top mask's
    bit length.  Shifted up until it does, and past 64 bits, the family gives
    the unshifted tables or names the shifted missing mask."""
    masks = {mask_of(s) for s in sets}
    k, width = len(masks), max(masks).bit_length()
    searches.clear()
    got = outcome(lattice_of_sets, sets)
    assert bool(searches) == (1 << width > k * k)
    if width == 0:
        return  # no shift widens the family {∅}
    for by in (max(0, (k * k).bit_length() - width), 64):
        searches.clear()
        wide = outcome(lattice_of_sets, [{x + by for x in s} for s in sets])
        assert 1 << (width + by) > k * k and searches
        if isinstance(got, tuple):
            assert wide == (got[0], tuple(m << by for m in got[1]))
        else:
            assert wide == got


def closed_family(gens) -> list[frozenset[int]]:
    """The family of point sets generated by gens under union and intersection."""
    out = {frozenset(g) for g in gens}
    while True:
        more = {a & b for a in out for b in out} | {a | b for a in out for b in out}
        if more <= out:
            return sorted(out, key=sorted)
        out |= more


def fan_clopens(n: int) -> list[frozenset[int]]:
    p = gallery("figure2", n)
    return clopen_upsets(p, root_topology_check(p))


def classes_upto(n: int):
    return [p for k in range(1, n + 1) for p in enumerate_posets(k)]


class TestAgainstScans:
    def test_upset_algebras_upto_six(self):
        classes = classes_upto(6)
        assert len(classes) == 405
        for p in classes:
            lat = upset_algebra(p).lattice
            ref = lattice_tables_by_lookup(upsets_of(p))
            assert lat == ref
            assert_matches_scans(lat, ref)

    def test_clopen_lattices_of_root_systems_upto_seven(self, searches):
        roots = [p for p in classes_upto(7) if is_root_system(p)]
        assert len(roots) == 199
        for p in roots:
            family = clopen_upsets(p, root_topology_check(p))
            assert_same_outcome(family)
            assert_binary_search_agrees(family, searches)

    @pytest.mark.parametrize("n,k", [(7, 385), (8, 769)])
    def test_fans_over_several_row_blocks(self, n, k, searches):
        family = fan_clopens(n)
        lat = assert_same_outcome(family)
        assert lat.n == k and k * k > 2 * BLOCK
        assert_binary_search_agrees(family, searches)
        assert poset_isomorphism(spectrum(lat), gallery("figure2", n)) is not None

    def test_spectrum_round_trip_builds_no_tuple_tables(self):
        lat = lattice_of_sets(fan_clopens(8))
        assert poset_isomorphism(spectrum(lat), gallery("figure2", 8)) is not None
        assert "meet" not in vars(lat) and "join" not in vars(lat)
        # nor the packed up masks of every element
        assert "up_masks" not in vars(lat)

    @pytest.mark.parametrize("top", [63, 64, 100])
    def test_points_at_and_past_64_bits(self, top):
        # masks that fit 64 bits are uint64, wider ones Python ints
        rng = random.Random(f"wide:{top}")
        gens = [{top}] + [{x for x in range(top - 8, top) if rng.random() < 0.5} | {rng.randrange(4)}
                          for _ in range(4)]
        lat = assert_same_outcome(closed_family(gens))
        assert lat.n > 8

    @pytest.mark.parametrize("sets", [
        [],
        [{0}, {1}],
        [set(), {0}, {1}],
        [{64}, {65}],
        [set(), {64}, {65}, {63, 64, 65}],
        [{0, 100}, {1, 100}, {100}],
    ])
    def test_unclosed_families_name_the_same_mask(self, sets, searches):
        assert isinstance(assert_same_outcome(sets), tuple)
        if sets:
            assert_binary_search_agrees(sets, searches)

    @pytest.mark.parametrize("seed", range(30))
    def test_seeded_random_families(self, seed, searches):
        rng = random.Random(f"family:{seed}")
        width = rng.choice([6, 70])
        sets = [{x for x in range(width) if rng.random() < 0.3} for _ in range(rng.randrange(1, 9))]
        for family in (sets, closed_family(sets[:4])):
            assert_same_outcome(family)
            assert_binary_search_agrees(family, searches)

    def test_fan_missing_one_member(self, searches):
        # the missing mask is first met in a later row block or, for either
        # of the top two members, only among the joins
        family = sorted(fan_clopens(8), key=mask_of)
        for drop in (300, 500, len(family) - 2, len(family) - 1):
            unclosed = family[:drop] + family[drop + 1:]
            got = assert_same_outcome(unclosed)
            assert got == ("family-not-closed", (mask_of(family[drop]),))
            assert_binary_search_agrees(unclosed, searches)

    @pytest.mark.parametrize("low,lookup", [
        (7, (np.uint16, np.int16)),  # top mask width 16: uint16 masks
        (8, (np.intp, np.int16)),    # width 17: intp masks
        (10, None),                  # width 19: 1 << 19 > 512 * 512, binary search
    ])
    def test_mask_width_boundaries(self, low, lookup, searches, monkeypatch):
        # the powerset of the 9 points low..low+8, k = 512 members
        taken = []
        real = np.take

        def spy(a, indices, *args, **kwargs):
            taken.append((indices.dtype, a.dtype))
            return real(a, indices, *args, **kwargs)

        monkeypatch.setattr(np, "take", spy)
        family = [{low + i for i in range(9) if m >> i & 1} for m in range(512)]
        assert_same_outcome(family)
        assert bool(searches) == (lookup is None)
        assert set(taken) == ({tuple(map(np.dtype, lookup))} if lookup else set())
        for drop in (1, 300, 511):
            missing = family[:drop] + family[drop + 1:]
            got = assert_same_outcome(missing)
            assert got[0] == "family-not-closed"

    @pytest.mark.parametrize("top,searched", [(4, False), (5, True)])
    @pytest.mark.parametrize("closed", [True, False])
    def test_lookup_rule_boundary(self, top, searched, closed, searches):
        # k = 4 members whose top mask has bit length top: the dense lookup
        # takes 1 << 4 == 4 * 4 entries, and binary search takes over at 5
        if closed:
            sets = [set(range(top - i, top)) for i in range(4)]
        else:
            sets = [{top - 1}, {top - 2}, {top - 3}, set(range(top))]
        got = assert_same_outcome(sets)
        assert isinstance(got, tuple) != closed
        assert bool(searches) == searched


class TestSpectrumLabels:
    """Spectrum labels and prime filters, read off the meet rows, against
    the bit scans of the up masks."""

    @staticmethod
    def assert_matches_bit_scans(lat):
        assert spectrum(lat).labels == spectrum_labels_by_bit_scan(lat)
        assert [f.members for f in prime_filters(lat)] == prime_filters_by_bit_scan(lat)

    def test_root_systems_upto_seven(self):
        for p in classes_upto(7):
            if is_root_system(p):
                self.assert_matches_bit_scans(lattice_of_sets(clopen_upsets(p, root_topology_check(p))))

    def test_upset_lattices_upto_five(self):
        for p in classes_upto(5):
            self.assert_matches_bit_scans(upset_algebra(p).lattice)

    def test_eleven_point_fan(self):
        self.assert_matches_bit_scans(lattice_of_sets(fan_clopens(8)))


def spectrum_families(group: str) -> list:
    """Families whose lattices the spectrum path is checked on: the upsets
    of every poset class with n <= 6 (405), the clopen upsets of
    random_root_system(s, 8..11) for s < 30 (120) and of figure2(2..8) (7)."""
    if group == "upsets":
        return [upsets_of(p) for p in classes_upto(6)]
    if group == "roots":
        systems = [random_root_system(s, n) for s in range(30) for n in range(8, 12)]
    else:
        systems = [gallery("figure2", n) for n in range(2, 9)]
    return [clopen_upsets(p, root_topology_check(p)) for p in systems]


class TestSpectrumPathAgainstOracles:
    """Join-irreducibles by lower-cover counts, generators ordered by their
    packed rows, filters and the spectrum read off the generator rows,
    against the packed-mask forms they replaced and the join fold."""

    @pytest.mark.parametrize("group,count", [("upsets", 405), ("roots", 120), ("fans", 7)])
    def test_families(self, group, count):
        families = spectrum_families(group)
        assert len(families) == count
        for family in families:
            lat = lattice_of_sets(family)
            ji = join_irreducibles_by_down_masks(lat)
            assert lat.join_irreducibles == ji == join_irreducibles_by_fold(lat)
            assert lat.spectrum_generators == spectrum_generators_by_up_masks(lat)
            assert lat.spectrum_filters == tuple(
                tuple(b for b in range(lat.n) if lat.leq(g, b)) for g in lat.spectrum_generators)
            got, ref = spectrum(lat), spectrum_by_pairwise_leq(lat)
            assert (got.n, got.covers, got.labels) == (ref.n, ref.covers, ref.labels)

    def test_one_element_lattice(self):
        lat = lattice_of_sets([set()])
        assert lat.join_irreducibles == lat.spectrum_generators == ()
        assert spectrum(lat).n == 0 and gamma(lat, 0) == frozenset()

    def test_gamma_reads_the_generator_rows(self):
        # gamma needs no packed order masks of the whole lattice
        lat = lattice_of_sets(fan_clopens(5))
        got = [gamma(lat, a) for a in range(lat.n)]
        assert "up_masks" not in vars(lat)
        gens = spectrum_generators_by_up_masks(lat)
        assert got == [frozenset(i for i, g in enumerate(gens) if lat.leq(g, a))
                       for a in range(lat.n)]
