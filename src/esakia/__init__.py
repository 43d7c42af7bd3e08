"""Finite-scale toolkit for Priestley/Esakia duality: spectra of finite
Heyting algebras, subbase topologies on trees and root systems, and
brute-force verification of the constructive steps."""

from .algebra import (
    FiniteLattice,
    GodelCheck,
    HeytingAlgebra,
    PrimeFilter,
    gamma,
    is_godel,
    lattice_of_sets,
    prime_filters,
    spectrum,
    upset_algebra,
    validate_lattice,
)
from .constructions import (
    Climb,
    ConeWitness,
    CoverEngineRun,
    CoverState,
    RootSubbase,
    StagedTopology,
    SubbaseEntry,
    SubbaseSource,
    climb,
    cone_witness,
    cover_downset,
    downset_open_check,
    gallery,
    promoted_open_in_subbase,
    root_subbase,
    root_topology_check,
    run_cover_engine,
    separation_witness,
    staged_topology,
)
from .documents import (
    Report,
    Verdict,
    emit_poset,
    export_dot,
    lattice_to_document,
    parse_lattice,
    parse_poset,
    poset_to_document,
    topology_to_document,
)
from .duality import (
    LatticeIso,
    PosetIso,
    canonical_form,
    canonical_key,
    double_dual_lattice,
    double_dual_poset,
    horn_verify,
    lattice_isomorphism,
    poset_isomorphism,
)
from .generators import (
    enumerate_posets,
    random_forest,
    random_poset,
    random_root_system,
    random_tree,
)
from .posets import (
    FinitePoset,
    GapReport,
    HeightProfile,
    bounded_upset,
    chain_inf,
    chain_sup,
    disjoint_union,
    downset,
    from_relation,
    has_enough_gaps,
    heights,
    immediate_predecessor,
    interval_complement_order_open,
    is_forest,
    is_root_system,
    is_tree,
    is_well_ordered,
    order_dual,
    order_subcover,
    upset,
    upsets_of,
)
from .topology import (
    FiniteTopology,
    PriestleyReport,
    clopen_upsets,
    esakia_check,
    generate_base,
    is_discrete,
    priestley_check,
)

__all__ = [name for name in dir() if not name.startswith("_")]
