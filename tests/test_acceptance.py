"""Acceptance suite: exhaustive finite-scale verification of every in-scope
construction, one criterion per test, one printed pass/fail line each.

All tolerances are exact (boolean properties of finite structures)."""

import itertools
import math
import random
from functools import lru_cache

from esakia.algebra import is_godel, lattice_of_sets, spectrum, upset_algebra
from esakia.constructions import (
    climb,
    cone_witness,
    downset_open_check,
    promoted_open_in_subbase,
    run_cover_engine,
    root_topology_check,
    separation_witness,
    staged_topology,
)
from esakia.duality import (
    double_dual_lattice,
    double_dual_poset,
    poset_isomorphism,
)
from esakia.generators import enumerate_posets
from esakia.posets import (
    interval_complement_order_open,
    is_root_system,
    is_tree,
    order_open_masks,
    order_subcover,
)
from esakia.topology import is_discrete

from oracles import (
    automorphism_count,
    class_count_by_min_perm,
    clopen_upsets_by_scan,
    cone_feasible_set,
    esakia_by_scan,
    labeled_poset_count,
    mask,
    order_open_fixpoint,
    priestley_by_scan,
)

CLASS_COUNTS = (1, 2, 5, 16, 63, 318)
LABELED_COUNTS = (1, 3, 19, 219, 4231, 130023)


def _line(num: int, ok: bool, text: str):
    print(f"criterion {num:02d} {'PASS' if ok else 'FAIL'}: {text}")
    assert ok, f"criterion {num} failed: {text}"


@lru_cache(maxsize=None)
def classes_upto(n: int):
    return tuple(p for k in range(1, n + 1) for p in enumerate_posets(k))


@lru_cache(maxsize=None)
def trees_upto(n: int):
    return tuple(p for p in classes_upto(n) if is_tree(p))


@lru_cache(maxsize=None)
def root_systems_upto(n: int):
    return tuple(p for p in classes_upto(n) if is_root_system(p))


@lru_cache(maxsize=None)
def staged_of(p):
    return staged_topology(p)


def all_choice_maps(p):
    branching = [(x, p.upper_covers(x)) for x in range(p.n) if p.upper_covers(x)]
    keys = [x for x, _ in branching]
    for combo in itertools.product(*(kids for _, kids in branching)):
        yield dict(zip(keys, combo))


def test_criterion_01_duality_round_trip():
    universe = classes_upto(6)
    assert len(universe) == sum(CLASS_COUNTS)
    ok = True
    for p in universe:
        double_dual_poset(p)              # raises DualityFailure on any defect
        double_dual_lattice(upset_algebra(p))
    _line(1, ok, f"canonical double duals hold on all {len(universe)} classes (n <= 6)")


def test_criterion_02_godel_root_system_correspondence():
    universe = classes_upto(6)
    ok = all(is_godel(upset_algebra(p)).holds == is_root_system(p) for p in universe)
    _line(2, ok, f"Gödel equation matches the root-system recognizer on {len(universe)} classes")


def test_criterion_03_root_system_topologies():
    systems = root_systems_upto(7)
    ok = True
    for p in systems:
        topo = root_topology_check(p)     # verifies Esakia + discreteness
        ok = ok and priestley_by_scan(p, topo).holds and is_discrete(topo)
        ok = ok and esakia_by_scan(p, topo)
        lat = lattice_of_sets(clopen_upsets_by_scan(p, topo))
        ok = ok and poset_isomorphism(spectrum(lat), p) is not None
    _line(3, ok, f"downset subbase yields discrete Esakia spaces with spectrum "
                 f"round-trip on all {len(systems)} root systems (n <= 7)")


def test_criterion_04_staged_topologies():
    checked = 0
    ok = True

    def check(p, st):
        good = is_discrete(st.final)
        good = good and priestley_by_scan(p, st.final).holds
        good = good and esakia_by_scan(p, st.final)
        for alpha in range(1, st.height + 1):
            for beta in range(alpha):
                for m in sorted(st.opens_masks(beta)):
                    u = frozenset(i for i in range(p.n) if m >> i & 1)
                    good = good and promoted_open_in_subbase(st, beta, alpha, u)
        return good

    for p in trees_upto(7):
        ok = ok and check(p, staged_of(p))
        checked += 1
    for p in trees_upto(5):
        for choice in all_choice_maps(p):
            ok = ok and check(p, staged_topology(p, plus_choice=choice))
            checked += 1
    _line(4, ok, f"staged topologies discrete/Priestley/Esakia with open promotion "
                 f"at every level pair ({checked} builds, n <= 7 plus all choices n <= 5)")


def test_criterion_05_climb_laws():
    ok = True
    count = 0
    for p in trees_upto(7):
        st = staged_of(p)
        prof = st.profile
        for x in range(p.n):
            c = climb(st, x)
            for k in range(len(c.values) - 1):
                ok = ok and p.leq(c.values[k], c.values[k + 1])
            for k, alpha in enumerate(range(c.start_level, st.height + 1)):
                f = c.values[k]
                ok = ok and not p.up_masks[f] & prof.le_mask(alpha) & ~(1 << f)
                if alpha > c.start_level:
                    ok = ok and f not in st.s_sets.get(alpha, frozenset())
            count += 1
    _line(5, ok, f"climb is order-preserving, lands on level maxima, and avoids "
                 f"isolated singletons for {count} origins across trees n <= 7")


def test_criterion_06_cone_witnesses_against_oracle():
    ok = True
    checked = 0
    for p in trees_upto(5):
        st = staged_of(p)
        for x in range(p.n):
            hx = st.profile.heights[x]
            for alpha in range(max(1, hx), st.height + 1):
                fx = st.climb_value(x, alpha)
                for idx, entry in enumerate(st.subbase_entries(alpha)):
                    if not entry.mask >> fx & 1:
                        continue
                    w = cone_witness(st, x, alpha, idx)  # re-verifies invariants
                    feasible = cone_feasible_set(st, x, alpha, entry.mask)
                    ok = ok and (w.v, mask(w.ys), mask(w.zs)) in feasible
                    checked += 1
    _line(6, ok, f"{checked} proof-guided witnesses verified and contained in "
                 f"the exhaustive feasible sets (trees n <= 5)")


def test_criterion_07_compactness_engine():
    ok = True
    runs = 0
    for p in trees_upto(5):
        st = staged_of(p)
        if st.height == 0:
            continue  # the singleton tree has no subbase covers
        entries = st.subbase_entries(st.height)
        full_idx = next(i for i, e in enumerate(entries) if e.mask == p.full)
        rng = random.Random(f"acceptance7:{sorted(p.covers)}")
        seen = 0
        attempts = 0
        while seen < 500 and attempts < 20000:
            attempts += 1
            k = rng.randrange(1, 7)
            cov = sorted(rng.sample(range(len(entries)), min(k, len(entries))))
            union = 0
            for i in cov:
                union |= entries[i].mask
            if union != p.full:
                if len(cov) < 6:
                    cov = sorted(set(cov) | {full_idx})
                else:
                    continue
            seen += 1
            run = run_cover_engine(st, cov)
            ok = ok and len(run.states) - 1 <= st.height + 1
            total = 0
            for i in run.selected:
                total |= entries[i].mask
            ok = ok and total == p.full and len(run.selected) <= len(cov)
            for k2 in range(1, len(run.states)):
                prev, cur = run.states[k2 - 1].frontier, run.states[k2].frontier
                ok = ok and all(any(p.lt(y, z) for y in prev) and z not in prev
                                for z in cur)
            runs += 1
        assert seen == 500 or st.height == 0
    _line(7, ok, f"{runs} engine runs terminate within height+1 rounds with "
                 f"verified covers and the successor law at every step")


def test_criterion_08_separation_and_downset_openness():
    ok = True
    pairs = 0
    for p in trees_upto(7):
        st = staged_of(p)
        t = st.final
        for x in range(p.n):
            for y in range(p.n):
                if not p.leq(x, y):
                    u = separation_witness(st, x, y)  # verified clopen upset
                    m = sum(1 << z for z in u)
                    ok = ok and x in u and y not in u
                    ok = ok and p.is_upset_mask(m)
                    ok = ok and t.is_open_mask(m) and t.is_open_mask(t.full ^ m)
                    pairs += 1
        ok = ok and downset_open_check(st)
    _line(8, ok, f"{pairs} separation witnesses verified clopen upsets and "
                 f"downsets stay open across all trees n <= 7")


def test_criterion_09_order_open_machinery():
    ok = True
    for p in classes_upto(6):
        ok = ok and order_open_masks(p) == order_open_fixpoint(p)
        for ym in range(1 << p.n):
            ys = frozenset(i for i in range(p.n) if ym >> i & 1)
            for zm in range(1 << p.n):
                zs = frozenset(i for i in range(p.n) if zm >> i & 1)
                ok = ok and interval_complement_order_open(p, ys, zs)
    covers_run = 0
    for n in range(1, 7):
        reps = [p for p in classes_upto(6) if p.n == n]
        rng = random.Random(f"acceptance9:{n}")
        for k in range(200):
            p = reps[k % len(reps)]
            full = (1 << n) - 1
            masks = [rng.randrange(1 << n) for _ in range(rng.randrange(1, 7))]
            masks.append(full)
            cover = [frozenset(i for i in range(n) if m >> i & 1) for m in masks]
            chosen = order_subcover(p, cover)
            ok = ok and frozenset().union(*chosen) == frozenset(range(n))
            covers_run += 1
    _line(9, ok, f"the order-open family equals the oracle fixpoint and interval "
                 f"complements are order-open exhaustively (n <= 6), and "
                 f"{covers_run} seeded order-open covers reduced to finite subcovers")


def test_criterion_10_enumerator_sanity():
    ours = tuple(len(list(enumerate_posets(n))) for n in range(1, 7))
    ok = ours == CLASS_COUNTS
    labeled = tuple(labeled_poset_count(n) for n in range(1, 7))
    ok = ok and labeled == LABELED_COUNTS
    minperm = tuple(class_count_by_min_perm(n) for n in range(1, 6))
    ok = ok and minperm == CLASS_COUNTS[:5]
    # n = 6: the backtracking oracle fixes the labeled total; the class list
    # is pairwise non-isomorphic and its automorphism-weighted size matches
    six = list(enumerate_posets(6))
    for i, p in enumerate(six):
        for q in six[i + 1:]:
            ok = ok and poset_isomorphism(p, q) is None
    total = sum(math.factorial(6) // automorphism_count(p) for p in six)
    ok = ok and total == labeled[5]
    _line(10, ok, f"class counts {ours} match the pair-state backtracking oracle "
                  f"(labeled {labeled}, min-perm dedup {minperm}, n=6 cross-check)")
