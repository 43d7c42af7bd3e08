import pytest
from hypothesis import given, settings

from esakia.algebra import lattice_of_sets, spectrum
from esakia.constructions import gallery, root_subbase, root_topology_check
from esakia.duality import poset_isomorphism
from esakia.errors import NotARootSystem, OversizeSubbase, UnknownName
from esakia.posets import FinitePoset, disjoint_union, is_root_system, is_tree, order_dual
from esakia.topology import clopen_upsets, esakia_check, is_discrete

from conftest import forests
from oracles import chain_poset, antichain_poset, fs


class TestRootSubbase:
    def test_three_chain_golden(self):
        sub = root_subbase(chain_poset(3))
        assert [sorted(s) for s in sub.sets] == [[0], [0, 1], [1, 2], [2]]

    def test_singleton_empty(self):
        assert root_subbase(FinitePoset(1, frozenset())).sets == ()

    def test_vee_rejected(self, zoo):
        with pytest.raises(NotARootSystem):
            root_subbase(zoo["vee"])

    def test_antichain_gets_component_carriers(self):
        sub = root_subbase(antichain_poset(2))
        assert [sorted(s) for s in sub.sets] == [[0], [1]]

    def test_lam_complements_are_in_component(self, zoo):
        sub = root_subbase(zoo["lam"])
        assert fs(1) in sub.sets and fs(0, 2) in sub.sets

    def test_disconnected_complements_stay_in_component(self, zoo):
        p = disjoint_union(zoo["lam"], chain_poset(2))
        sub = root_subbase(p)
        # complement of down(1) inside the first component only
        assert fs(0, 2) in sub.sets
        # both component carriers appended
        assert fs(0, 1, 2) in sub.sets and fs(3, 4) in sub.sets


class TestRootTopology:
    def test_three_chain_discrete(self):
        topo = root_topology_check(chain_poset(3))
        assert is_discrete(topo)

    def test_lam_esakia(self, zoo):
        topo = root_topology_check(zoo["lam"])
        assert esakia_check(zoo["lam"], topo)

    def test_antichain_components_supply_singletons(self):
        assert is_discrete(root_topology_check(antichain_poset(2)))

    def test_gallery_truncations(self):
        for n in range(1, 5):
            p = gallery("figure2", n)
            assert is_root_system(p)
            topo = root_topology_check(p)
            assert is_discrete(topo) and esakia_check(p, topo)

    def test_public_cap_boundary(self):
        # figure 2 with k spokes has 2k + 4 subbase sets: 20 at 11 points,
        # 22 at 12, past the public cap
        p = gallery("figure2", 8)
        assert p.n == 11 and is_discrete(root_topology_check(p))
        p = gallery("figure2", 9)
        assert p.n == 12
        with pytest.raises(OversizeSubbase):
            root_topology_check(p)

    @given(forests(max_n=6))
    @settings(max_examples=40, deadline=None)
    def test_spectrum_roundtrip_on_random_root_systems(self, f):
        p = order_dual(f)
        topo = root_topology_check(p)
        lat = lattice_of_sets(clopen_upsets(p, topo))
        assert poset_isomorphism(spectrum(lat), p) is not None


class TestGallery:
    def test_figure1_shapes(self):
        assert gallery("figure1", 1).n == 2
        g = gallery("figure1", 2)
        assert g.n == 3 and is_tree(g)
        g5 = gallery("figure1", 5)
        assert is_tree(g5) and len(g5.maximal_elements()) == 2

    def test_figure2_shape(self):
        g = gallery("figure2", 3)
        assert g.n == 6 and is_root_system(g) and not is_tree(g)
        top = g.labels.index("top")
        assert len(g.lower_covers(top)) == 4

    def test_unknown_name(self):
        with pytest.raises(UnknownName):
            gallery("figure9", 1)

    def test_n_validated(self):
        with pytest.raises(ValueError):
            gallery("figure1", 0)
