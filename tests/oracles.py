"""Independent brute-force oracles used to compute expected values.

Everything here deliberately avoids the production code paths it checks:
labeled-poset enumeration backtracks over pair states, canonical keys and
forms scan every colour-respecting ordering (the class enumerator built on
them deduplicates a level in one key dictionary), automorphisms are counted
by plain permutation scan and by colour-pruned backtracking, prime filters are
found by filtering all upsets through the definition, lattice tables come
from a dict lookup per pair, order masks from scanning meet rows,
join-irreducibles from folding joins over strict downsets and from the
one-lower-cover test on the scanned down masks, spectrum generators ordered
by their up masks, spectra from asking `leq` pair by pair, spectrum labels
and prime-filter members from the bits of the up masks, Heyting implication
from folding joins over join-irreducibles or from a maximum scan, openness
oracles close the subbase under intersections and scan that whole base or
materialize full open-set families, clopen upsets, Priestley witnesses and
the Esakia check filter every upset of the poset, the order-open family is a
worklist fixpoint, and witness feasibility is an exhaustive scan.
"""

import functools
import itertools

import numpy as np

from esakia._bits import bits, full_mask, mask_of, points_of, subsets
from esakia.algebra import FiniteLattice, HeytingAlgebra
from esakia.errors import CarrierTooLarge, NoMaximum, NotALattice
from esakia.posets import ORDER_OPEN_CAP, FinitePoset, from_relation, upset_masks
from esakia.topology import PriestleyReport


def labeled_posets(n: int):
    """Yield the reflexive up-mask tables of every partial order on 0..n-1.

    Backtracks over unordered pairs in lexicographic order, assigning <, >,
    or incomparable, and propagates transitive closure; an assignment is
    rejected when closure would retroactively relate an earlier pair.
    """
    pairs = [(i, j) for j in range(n) for i in range(j)]
    pair_idx = {pr: k for k, pr in enumerate(pairs)}
    up = [1 << i for i in range(n)]
    down = [1 << i for i in range(n)]
    out = []

    def key(a, b):
        return (a, b) if a < b else (b, a)

    def relate(a, b, k):
        """Try closing a < b; return the undo list or None if it would
        touch a pair decided before step k."""
        new = [(x, y) for x in bits(down[a]) for y in bits(up[b])
               if not up[x] >> y & 1]
        if any(pair_idx[key(x, y)] < k for x, y in new):
            return None
        for x, y in new:
            up[x] |= 1 << y
            down[y] |= 1 << x
        return new

    def undo(new):
        for x, y in new:
            up[x] ^= 1 << y
            down[y] ^= 1 << x

    def rec(k: int):
        if k == len(pairs):
            out.append(tuple(up))
            return
        i, j = pairs[k]
        has_ij = up[i] >> j & 1
        has_ji = up[j] >> i & 1
        if not has_ij and not has_ji:
            rec(k + 1)
            for a, b in ((i, j), (j, i)):
                applied = relate(a, b, k)
                if applied is not None:
                    rec(k + 1)
                    undo(applied)
        else:
            rec(k + 1)  # the pair was forced earlier; only that branch exists
        return

    rec(0)
    return out


def _min_perm_encoding(up: tuple[int, ...]) -> tuple:
    """Canonical encoding by minimizing over all permutations (small n)."""
    n = len(up)
    best = None
    for perm in itertools.permutations(range(n)):
        enc = 0
        for i, x in enumerate(perm):
            row = 0
            for k, y in enumerate(perm):
                if x != y and up[x] >> y & 1:
                    row |= 1 << k
            enc = enc << n | row
        if best is None or enc < best:
            best = enc
    return (n, best)


def labeled_poset_count(n: int) -> int:
    return len(labeled_posets(n))


def class_count_by_min_perm(n: int) -> int:
    """Isomorphism classes by full-permutation canonicalization (n <= 5)."""
    return len({_min_perm_encoding(up) for up in labeled_posets(n)})


def poset_from_up(up: tuple[int, ...]) -> FinitePoset:
    n = len(up)
    return from_relation(n, [(x, y) for x in range(n) for y in bits(up[x])])


def automorphism_count(p: FinitePoset) -> int:
    count = 0
    for perm in itertools.permutations(range(p.n)):
        if all(p.leq(x, y) == p.leq(perm[x], perm[y])
               for x in range(p.n) for y in range(p.n)):
            count += 1
    return count


def color_partition_by_profiles(p: FinitePoset) -> list[int]:
    """Iterated invariant refinement: start from up/down set and cover-degree
    profiles, refine by the sorted colour tuples above and below each point
    (the refinement the permutation scan was built on)."""
    def compress(vals):
        order = {v: i for i, v in enumerate(sorted(set(vals)))}
        return [order[v] for v in vals]

    cur = compress([
        (p.down_masks[x].bit_count(), p.up_masks[x].bit_count(),
         len(p.lower_covers(x)), len(p.upper_covers(x)))
        for x in range(p.n)
    ])
    while True:
        raw = [
            (cur[x],
             tuple(sorted(cur[y] for y in bits(p.up_masks[x] ^ (1 << x)))),
             tuple(sorted(cur[y] for y in bits(p.down_masks[x] ^ (1 << x)))))
            for x in range(p.n)
        ]
        nxt = compress(raw)
        if len(set(nxt)) == len(set(cur)):
            return nxt
        cur = nxt


def _color_classes(p: FinitePoset) -> list[list[int]]:
    colors = color_partition_by_profiles(p)
    return [[x for x in range(p.n) if colors[x] == c] for c in sorted(set(colors))]


def least_encoding_by_scan(p: FinitePoset) -> tuple[int, list[int]]:
    """Least strict-order-matrix encoding over every ordering that lists the
    colour classes in order, with the first ordering that reaches it."""
    best = best_order = None
    for perms in itertools.product(*(itertools.permutations(g) for g in _color_classes(p))):
        order = [x for grp in perms for x in grp]
        enc = 0
        for x in order:
            row = 0
            for j, y in enumerate(order):
                if x != y and p.leq(x, y):
                    row |= 1 << j
            enc = enc << p.n | row
        if best is None or enc < best:
            best, best_order = enc, order
    return best, best_order


def scan_key(p: FinitePoset) -> tuple[int, int]:
    return (p.n, least_encoding_by_scan(p)[0])


def scan_form(p: FinitePoset) -> FinitePoset:
    pos = {x: i for i, x in enumerate(least_encoding_by_scan(p)[1])}
    return FinitePoset(p.n, frozenset((pos[lo], pos[hi]) for lo, hi in p.covers))


@functools.lru_cache(maxsize=None)
def classes_by_key_dictionary(n: int) -> tuple[FinitePoset, ...]:
    """One scan-canonical poset per class: every class of n - 1 points
    extended by a maximal point over each downset, deduplicated by
    ``scan_key`` in one dictionary per level."""
    if n == 1:
        return (FinitePoset(1, frozenset()),)
    found: dict[tuple[int, int], FinitePoset] = {}
    for parent in classes_by_key_dictionary(n - 1):
        for up in upset_masks(parent):
            dm = parent.full ^ up
            tops = [x for x in bits(dm) if not (parent.up_masks[x] & dm & ~(1 << x))]
            cand = FinitePoset(n, parent.covers | frozenset((m, n - 1) for m in tops))
            key = scan_key(cand)
            if key not in found:
                found[key] = scan_form(cand)
    return tuple(found[k] for k in sorted(found))


def automorphisms_by_backtracking(p: FinitePoset) -> list[tuple[int, ...]]:
    """Every automorphism of p as its tuple of images: images assigned point
    by point within the colour classes of ``color_partition_by_profiles``,
    each checked against the order on the points already assigned."""
    colors = color_partition_by_profiles(p)
    image = [0] * p.n
    used = [False] * p.n
    found = []

    def rec(x: int):
        if x == p.n:
            found.append(tuple(image))
            return
        for y in range(p.n):
            if used[y] or colors[y] != colors[x]:
                continue
            if all(p.leq(x, z) == p.leq(y, image[z]) and p.leq(z, x) == p.leq(image[z], y)
                   for z in range(x)):
                image[x], used[y] = y, True
                rec(x + 1)
                used[y] = False

    rec(0)
    return found


def all_isomorphisms_brute(p: FinitePoset, q: FinitePoset):
    """Every order isomorphism p -> q by plain permutation scan."""
    if p.n != q.n:
        return []
    return [perm for perm in itertools.permutations(range(p.n))
            if all(p.leq(x, y) == q.leq(perm[x], perm[y])
                   for x in range(p.n) for y in range(p.n))]


def prime_filters_brute(lat) -> list[int]:
    """Prime-filter member masks straight from the definition, filtering
    every upset of the lattice order."""
    lp = from_relation(lat.n, [(a, b) for a in range(lat.n)
                               for b in range(lat.n) if lat.leq(a, b)])
    full = full_mask(lat.n)
    found = []
    for um in upset_masks(lp):
        if um == 0 or um == full:
            continue
        members = list(bits(um))
        if any(not um >> lat.meet[a][b] & 1 for a in members for b in members):
            continue
        prime = all(
            um >> a & 1 or um >> b & 1
            for a in range(lat.n) for b in range(lat.n)
            if um >> lat.join[a][b] & 1)
        if prime:
            found.append(um)
    return sorted(found)


def lattice_tables_by_lookup(sets) -> FiniteLattice:
    """lattice_of_sets with every meet and join looked up in a dict from
    mask to index; a missing result raises the first one, meets first."""
    masks = sorted({mask_of(s) for s in sets})
    index = {m: i for i, m in enumerate(masks)}
    k = len(masks)
    if k == 0:
        raise NotALattice("empty-family", ())
    try:
        meet = tuple(tuple(index[masks[a] & masks[b]] for b in range(k)) for a in range(k))
        join = tuple(tuple(index[masks[a] | masks[b]] for b in range(k)) for a in range(k))
    except KeyError as e:
        raise NotALattice("family-not-closed", (e.args[0],)) from e
    bot = masks[0]
    top = masks[-1]
    if any(bot & ~m or m & ~top for m in masks):
        raise NotALattice("family-not-closed", ())
    return FiniteLattice(k, np.array(meet), np.array(join), index[bot], index[top])




def order_masks_by_scan(lat) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """(up masks, down masks) of every element, scanning its meet row."""
    up = tuple(mask_of(b for b in range(lat.n) if lat.meet[a][b] == a)
               for a in range(lat.n))
    down = tuple(mask_of(b for b in range(lat.n) if lat.meet[a][b] == b)
                 for a in range(lat.n))
    return up, down


def join_irreducibles_by_fold(lat) -> tuple[int, ...]:
    """Elements that are not the join of their strict lower set, folding the
    join table over each strict downset of the scanned order."""
    _, down = order_masks_by_scan(lat)
    out = []
    for a in range(lat.n):
        if a == lat.bottom:
            continue
        acc = lat.bottom
        for b in bits(down[a] ^ (1 << a)):
            acc = lat.join[acc][b]
        if acc != a:
            out.append(a)
    return tuple(out)


def join_irreducibles_by_down_masks(lat) -> tuple[int, ...]:
    """The one-lower-cover test on the scanned down masks: a is
    join-irreducible iff its strict downset is some element's downset."""
    _, down = order_masks_by_scan(lat)
    principal = set(down)
    return tuple(a for a in range(lat.n) if down[a] ^ (1 << a) in principal)


def spectrum_generators_by_up_masks(lat) -> tuple[int, ...]:
    """Join-irreducibles of the down-mask test, sorted by their up masks."""
    return tuple(sorted(join_irreducibles_by_down_masks(lat), key=lat.up_masks.__getitem__))


def spectrum_labels_by_bit_scan(lat) -> tuple[str, ...]:
    """Spectrum labels: each generator's filter members, read by walking the
    bits of its up mask."""
    return tuple("{" + ",".join(map(str, bits(lat.up_masks[g]))) + "}"
                 for g in spectrum_generators_by_up_masks(lat))


def prime_filters_by_bit_scan(lat) -> list[frozenset[int]]:
    """Prime-filter members in spectrum order, from the bits of each
    generator's up mask."""
    return [points_of(lat.up_masks[g]) for g in spectrum_generators_by_up_masks(lat)]


def spectrum_by_pairwise_leq(lat) -> FinitePoset:
    """The spectrum with filter i below filter j iff lat.leq(g_j, g_i),
    asked pair by pair, labelled by the bit scans of the up masks."""
    gens = spectrum_generators_by_up_masks(lat)
    k = len(gens)
    pairs = [(i, j) for i in range(k) for j in range(k) if lat.leq(gens[j], gens[i])]
    return from_relation(k, pairs, spectrum_labels_by_bit_scan(lat))


def implication_by_max_scan(lat, b: int, c: int) -> int:
    """max {a : a∧b <= c} by scanning for the element dominating the set."""
    s = [a for a in range(lat.n) if lat.leq(lat.meet[a][b], c)]
    maxes = [m for m in s if all(lat.leq(a, m) for a in s)]
    assert len(maxes) == 1, "candidate set must have a unique maximum"
    return maxes[0]


def heyting_complete(lat: FiniteLattice) -> HeytingAlgebra:
    """Adjoin the implication: implies[b][c] = max {a : a∧b <= c}.

    The candidate set is a join-closed downset, so its maximum is the join of
    the join-irreducibles it contains; membership of the result is re-checked
    and NoMaximum raised on failure (unreachable for valid input).
    """
    n = lat.n
    ji = lat.join_irreducibles
    rows = []
    for b in range(n):
        row = []
        for c in range(n):
            acc = lat.bottom
            for a in ji:
                if lat.leq(lat.meet[a][b], c):
                    acc = lat.join[acc][a]
            if not lat.leq(lat.meet[acc][b], c):
                raise NoMaximum(f"no maximum for {b} -> {c}")
            row.append(acc)
        rows.append(tuple(row))
    return HeytingAlgebra(lat, tuple(rows))


def intersection_closure(masks: list[int], full: int) -> list[int]:
    """All intersections of finite subfamilies (empty subfamily -> full),
    deduplicated, by worklist over pairwise intersections with generators."""
    seen = {full}
    out = [full]
    work = []
    for m in masks:
        if m not in seen:
            seen.add(m)
            out.append(m)
            work.append(m)
    gens = list(dict.fromkeys(masks))
    while work:
        u = work.pop()
        for g in gens:
            v = u & g
            if v not in seen:
                seen.add(v)
                out.append(v)
                work.append(v)
    return out


def closed_base(t) -> list[int]:
    """The base a topology's subbase generates: every finite intersection of
    subbase members."""
    return intersection_closure(list(t.subbase_masks), t.full)


def is_open_by_base_scan(base: list[int], m: int) -> bool:
    """Openness by scanning a whole base: m is open iff the base elements
    inside m cover it."""
    remaining = m
    for b in base:
        if b & m and not (b & ~m):
            remaining &= ~b
            if not remaining:
                return True
    return not remaining


def unions(masks) -> set[int]:
    """Every union of a subfamily of masks."""
    ops = {0}
    for m in masks:
        ops |= {m | o for o in ops}
    return ops


def all_opens(t) -> set[int]:
    """Full open-set family: every union of the closed base."""
    return unions(closed_base(t))


def downset_open_for_all_opens(p: FinitePoset, t) -> bool:
    return all(t.is_open_mask(p.down_of_mask(u)) for u in all_opens(t))


def clopen_upsets_by_scan(p: FinitePoset, t) -> list[frozenset[int]]:
    """Every upset of p that is open with open complement, ascending by mask."""
    if p.n != t.carrier_size:
        raise ValueError("carrier sizes differ")
    return [points_of(m) for m in upset_masks(p)
            if t.is_open_mask(m) and t.is_open_mask(t.full ^ m)]


def priestley_by_scan(p: FinitePoset, t) -> PriestleyReport:
    """Per pair x ≰ y, the first clopen upset by mask holding x and not y,
    or a failure when none does."""
    clopens = [mask_of(u) for u in clopen_upsets_by_scan(p, t)]
    witnesses = {}
    failures = []
    for x in range(p.n):
        for y in range(p.n):
            if x != y and not p.leq(x, y):
                for m in clopens:
                    if m >> x & 1 and not m >> y & 1:
                        witnesses[(x, y)] = points_of(m)
                        break
                else:
                    failures.append((x, y))
    return PriestleyReport(not failures, witnesses, tuple(failures))


def esakia_by_scan(p: FinitePoset, t) -> bool:
    """Priestley separation by the clopen scan plus openness of the downset
    of every least neighbourhood."""
    if not priestley_by_scan(p, t).holds:
        return False
    return all(t.is_open_mask(p.down_of_mask(nb)) for nb in set(t.neighbourhoods))


def order_open_fixpoint(p: FinitePoset) -> frozenset[int]:
    """Least family containing singleton complements, closed under the two
    blur operators, finite intersections and arbitrary unions, as masks.

    Materialized as an explicit worklist fixpoint over the powerset; exact by
    construction and capped at carriers of 16 points.  On a finite carrier
    the fixpoint saturates to the full powerset (every subset is a finite
    intersection of singleton complements), which the loop detects early.
    """
    if p.n > ORDER_OPEN_CAP:
        raise CarrierTooLarge(f"order-open family capped at {ORDER_OPEN_CAP} points")
    full = p.full
    fam = {full, 0}
    fam.update(full ^ (1 << x) for x in range(p.n))
    target = 1 << p.n
    work = list(fam)
    while work and len(fam) < target:
        u = work.pop()
        fresh = [full ^ p.up_of_mask(full ^ u), full ^ p.down_of_mask(full ^ u)]
        for w in list(fam):
            fresh.append(u & w)
            fresh.append(u | w)
        for v in fresh:
            if v not in fam:
                fam.add(v)
                work.append(v)
                if len(fam) >= target:
                    break
    return frozenset(fam)


def cone_feasible_set(st, x: int, alpha: int, target_mask: int) -> set:
    """All (v, ys, zs) triples satisfying the witness constraints, found by
    exhaustive scan."""
    tree = st.tree
    prof = st.profile
    hx = prof.heights[x]
    le_a = prof.le_mask(alpha)
    lt_a = prof.le_mask(alpha - 1) if alpha >= 1 else 0
    feasible = set()
    for v in bits(tree.down_masks[x]):
        y_ground = prof.above_mask(hx) & tree.up_masks[v] & le_a
        z_ground = lt_a & tree.up_masks[v]
        for ym in subsets(y_ground):
            up_y = tree.up_of_mask(ym) & le_a
            for zm in subsets(z_ground):
                cone = (tree.up_masks[v] & le_a) & ~(up_y | tree.down_of_mask(zm))
                if not cone & ~target_mask:
                    feasible.add((v, ym, zm))
    return feasible


def chain_poset(n: int) -> FinitePoset:
    return FinitePoset(n, frozenset((i, i + 1) for i in range(n - 1)))


def crowns(*sizes: int) -> FinitePoset:
    """Disjoint k-crowns: minimal points a_0..a_{k-1} and maximal points
    b_0..b_{k-1} with a_i < b_i and a_i < b_{i+1 mod k}.  Every point has
    two covers, so colour refinement leaves one cell per level however
    the crowns differ."""
    covers, base = set(), 0
    for k in sizes:
        for i in range(k):
            covers.update({(base + i, base + k + i), (base + i, base + k + (i + 1) % k)})
        base += 2 * k
    return FinitePoset(base, frozenset(covers))


def antichain_poset(n: int) -> FinitePoset:
    return FinitePoset(n, frozenset())


def mask(points) -> int:
    return mask_of(points)


def fs(*points) -> frozenset[int]:
    return frozenset(points)
