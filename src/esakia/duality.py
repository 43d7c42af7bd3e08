"""The two finite dual equivalences, isomorphism search, and canonical forms.

Double-dual checks verify the canonical maps themselves (x -> the filter of
upsets containing x, and a -> gamma(a)); generic isomorphism search is a
separate diagnostic.
"""

from dataclasses import dataclass
from functools import cached_property

from ._bits import bits, mask_of
from .algebra import (
    FiniteLattice,
    HeytingAlgebra,
    gamma,
    is_godel,
    prime_filters,
    spectrum,
    upset_algebra,
    upset_masks,
)
from .errors import ConstructionCheckFailure, DualityFailure, HornMismatch
from .posets import FinitePoset, from_relation, is_root_system


@dataclass(frozen=True)
class PosetIso:
    forward: tuple[int, ...]
    backward: tuple[int, ...]


@dataclass(frozen=True)
class LatticeIso:
    forward: tuple[int, ...]
    backward: tuple[int, ...]


def _backward(forward: tuple[int, ...]) -> tuple[int, ...]:
    back = [0] * len(forward)
    for i, v in enumerate(forward):
        back[v] = i
    return tuple(back)


# -- invariant refinement and canonical forms -------------------------------

def _compress(vals: list) -> list[int]:
    order = {v: i for i, v in enumerate(sorted(set(vals)))}
    return [order[v] for v in vals]


def _refine(colors: list[int], k: int, ups: list[list[int]],
            downs: list[list[int]]) -> tuple[list[int], int]:
    """Split the k cells of ``colors`` by the multisets of colours strictly
    above and strictly below each point until no cell splits.

    The parts of a cell keep its place in the order of cells, so the result
    is an ordered partition that refines ``colors``; colours stay 0..k-1.
    A multiset is read as the base-2**w number whose digit c counts colour c
    (every count is below n < 2**w)."""
    n = len(colors)
    w = n.bit_length()
    while k < n:
        pw = [1 << w * c for c in range(k)]
        half = w * k
        raw = [(colors[x] << half | sum([pw[colors[y]] for y in ups[x]])) << half
               | sum([pw[colors[y]] for y in downs[x]]) for x in range(n)]
        distinct = sorted(set(raw))
        if len(distinct) == k:
            break
        rank = {v: i for i, v in enumerate(distinct)}
        colors = [rank[v] for v in raw]
        k = len(distinct)
    return colors, k


def _orbits(n: int, gens) -> list[int]:
    """The least point of each point's orbit under the group the point maps
    ``gens`` generate."""
    rep = list(range(n))

    def find(x):
        while rep[x] != x:
            rep[x] = x = rep[rep[x]]
        return x

    for g in gens:
        for x, y in enumerate(g):
            a, b = find(x), find(y)
            if a != b:
                rep[max(a, b)] = min(a, b)
    return [find(x) for x in range(n)]


class Labelling:
    """Canonical labelling of a poset, given as each point's strict up and
    down lists and its cover pairs, by individualization-refinement (McKay &
    Piperno, *Practical graph isomorphism II*, 2014).

    ``profile`` ranks each point by (strict downset size, strict upset size,
    lower cover degree, upper cover degree), and ``colors`` refines it with
    ``_refine`` into the root's ordered colour partition, so a point of
    greater profile has a greater colour.  ``leaf`` searches the tree whose
    nodes individualize, in turn, each point of the first cell with more than
    one point and refine; a node whose partition is discrete is a leaf, read
    as the strict-order-matrix encoding of its ordering (row i holds bit j
    iff the i-th point is strictly below the j-th, the first row most
    significant).  The least encoding over all leaves is an isomorphism
    invariant, so it is the canonical key, and its ordering the canonical
    labelling.

    Two leaves with equal encodings differ by an automorphism.  The search
    compares each leaf with the first and the least leaf found, keeps every
    automorphism this finds, and uses them twice: a child whose point shares
    an orbit with an explored sibling under the automorphisms that fix the
    node's individualized points is skipped, and a leaf equal to a kept leaf
    sends the search back to their deepest common node, since the subtree it
    is in is the image of one already searched.  The automorphisms found this
    way generate the whole automorphism group (McKay 1981), so ``orbits``
    are the automorphism orbits.  An n-antichain costs O(n^2) nodes.
    """

    def __init__(self, ups: list[list[int]], downs: list[list[int]], covers):
        n = len(ups)
        lower, upper = [0] * n, [0] * n
        for lo, hi in covers:
            upper[lo] += 1
            lower[hi] += 1
        self.n, self.ups, self.downs, self.covers = n, ups, downs, covers
        self.profile = _compress([(len(downs[x]), len(ups[x]), lower[x], upper[x])
                                  for x in range(n)])

    @classmethod
    def of(cls, p: FinitePoset) -> "Labelling":
        return cls([list(bits(m ^ (1 << x))) for x, m in enumerate(p.up_masks)],
                   [list(bits(m ^ (1 << x))) for x, m in enumerate(p.down_masks)],
                   p.covers)

    @cached_property
    def colors(self) -> list[int]:
        return _refine(self.profile, len(set(self.profile)), self.ups, self.downs)[0]

    @cached_property
    def leaf(self) -> tuple[int, list[int], list[list[int]]]:
        """(least encoding, its ordering of the points, automorphisms found)."""
        n, ups, downs = self.n, self.ups, self.downs
        kept = []  # the first leaf and the least leaf, as (encoding, order, path)
        gens: list[list[int]] = []

        def visit(colors: list[int], k: int, path: list[int]) -> int:
            # Returns the depth at which the search resumes: len(path) when
            # the subtree was searched, less after a leaf equal to a kept one.
            depth = len(path)
            if k == n:
                order = [0] * n
                for x, c in enumerate(colors):
                    order[c] = x
                enc = 0
                for x in order:
                    row = 0
                    for y in ups[x]:
                        row |= 1 << colors[y]
                    enc = enc << n | row
                if not kept:
                    kept[:] = [(enc, order, path)] * 2
                    return depth
                if enc < kept[1][0]:
                    kept[1] = (enc, order, path)
                    return depth
                equal = next((leaf for leaf in kept if leaf[0] == enc), None)
                if equal is None:
                    return depth
                gen = [0] * n
                for x0, x in zip(equal[1], order):
                    gen[x0] = x
                gens.append(gen)
                return next(i for i, (a, b) in enumerate(zip(equal[2], path)) if a != b)
            sizes = [0] * k
            for c in colors:
                sizes[c] += 1
            target = next(c for c in range(k) if sizes[c] > 1)
            tried: list[int] = []
            orbit, seen_gens = None, -1
            for v in [x for x in range(n) if colors[x] == target]:
                if tried:
                    if seen_gens != len(gens):
                        orbit = _orbits(n, [g for g in gens if all(g[u] == u for u in path)])
                        seen_gens = len(gens)
                    if orbit[v] in {orbit[t] for t in tried}:
                        continue
                tried.append(v)
                child = [c + 1 if c > target or (c == target and x != v) else c
                         for x, c in enumerate(colors)]
                resume = visit(*_refine(child, k + 1, ups, downs), path + [v])
                if resume < depth:
                    return resume
            return depth

        visit(self.colors, len(set(self.colors)), [])
        enc, order, _ = kept[1]
        return enc, order, gens

    def orbits(self) -> list[int]:
        """The least point of each point's automorphism orbit."""
        return _orbits(self.n, self.leaf[2])

    def canonical_covers(self) -> frozenset[tuple[int, int]]:
        """The cover pairs, relabelled by their positions in the least leaf."""
        pos = [0] * self.n
        for i, x in enumerate(self.leaf[1]):
            pos[x] = i
        return frozenset((pos[lo], pos[hi]) for lo, hi in self.covers)


def _color_partition(p: FinitePoset) -> list[int]:
    """Iterated invariant refinement: rank each point by its strict up/down
    set sizes and cover degrees, then refine by the colour multisets strictly
    above and below each point until no cell splits (``_refine``)."""
    return Labelling.of(p).colors


def canonical_key(p: FinitePoset) -> tuple[int, int]:
    """``(n, e)``: e is the least strict-order-matrix encoding over the
    leaves of the individualization-refinement search (``Labelling``), equal
    on isomorphic posets and different on non-isomorphic ones."""
    return (p.n, Labelling.of(p).leaf[0])


def canonical_form(p: FinitePoset) -> FinitePoset:
    """The canonically labelled representative of p's isomorphism class: p
    relabelled by the ordering of its least leaf, a fixed point of this map."""
    return FinitePoset(p.n, Labelling.of(p).canonical_covers())


# -- isomorphism search ------------------------------------------------------

def poset_isomorphism(p: FinitePoset, q: FinitePoset) -> PosetIso | None:
    """Backtracking with invariant pruning; None certifies absence."""
    if p.n != q.n:
        return None
    cp, cq = _color_partition(p), _color_partition(q)
    if sorted(cp) != sorted(cq):
        return None
    cand = {x: [y for y in range(q.n) if cq[y] == cp[x]] for x in range(p.n)}
    order = sorted(range(p.n), key=lambda x: (len(cand[x]), x))
    mapping: dict[int, int] = {}
    used: set[int] = set()

    def rec(k: int) -> bool:
        if k == p.n:
            return True
        x = order[k]
        for y in cand[x]:
            if y in used:
                continue
            if all(p.leq(x, x2) == q.leq(y, y2) and p.leq(x2, x) == q.leq(y2, y)
                   for x2, y2 in mapping.items()):
                mapping[x] = y
                used.add(y)
                if rec(k + 1):
                    return True
                del mapping[x]
                used.remove(y)
        return False

    if not rec(0):
        return None
    forward = tuple(mapping[x] for x in range(p.n))
    return PosetIso(forward, _backward(forward))


def _lat(a) -> FiniteLattice:
    return a.lattice if isinstance(a, HeytingAlgebra) else a


def _ji_poset(lat: FiniteLattice) -> tuple[FinitePoset, tuple[int, ...]]:
    ji = lat.join_irreducibles
    pairs = [(i, j) for i in range(len(ji)) for j in range(len(ji))
             if lat.leq(ji[i], ji[j])]
    return from_relation(len(ji), pairs), ji


def lattice_isomorphism(a, b) -> LatticeIso | None:
    """Distributive lattices are isomorphic iff their join-irreducible
    subposets are; the witness is the lift of that poset isomorphism."""
    la, lb = _lat(a), _lat(b)
    if la.n != lb.n:
        return None
    pa, ja = _ji_poset(la)
    pb, jb = _ji_poset(lb)
    iso = poset_isomorphism(pa, pb)
    if iso is None:
        return None
    forward = []
    for x in range(la.n):
        acc = lb.bottom
        for i, j in enumerate(ja):
            if la.leq(j, x):
                acc = lb.join[acc][jb[iso.forward[i]]]
        forward.append(acc)
    if sorted(forward) != list(range(la.n)):
        raise ConstructionCheckFailure("join-irreducible lift is not a bijection")
    for x in range(la.n):
        for y in range(la.n):
            if forward[la.meet[x][y]] != lb.meet[forward[x]][forward[y]]:
                raise ConstructionCheckFailure("lift does not preserve meet")
            if forward[la.join[x][y]] != lb.join[forward[x]][forward[y]]:
                raise ConstructionCheckFailure("lift does not preserve join")
    return LatticeIso(tuple(forward), _backward(tuple(forward)))


# -- the two double duals ----------------------------------------------------

def double_dual_poset(p: FinitePoset) -> PosetIso:
    """Verify x -> {upsets containing x} is an isomorphism onto the spectrum
    of the upset algebra of p; raises DualityFailure otherwise (bug signal)."""
    lat = upset_algebra(p).lattice
    elems = upset_masks(p)
    filters = {f.members: i for i, f in enumerate(prime_filters(lat))}
    sp = spectrum(lat)
    if sp.n != p.n:
        raise DualityFailure("spectrum size differs from the carrier")
    forward = []
    for x in range(p.n):
        fx = frozenset(i for i, m in enumerate(elems) if m >> x & 1)
        if fx not in filters:
            raise DualityFailure(f"canonical image of {x} is not a prime filter")
        forward.append(filters[fx])
    if sorted(forward) != list(range(p.n)):
        raise DualityFailure("canonical map is not a bijection")
    for x in range(p.n):
        for y in range(p.n):
            if p.leq(x, y) != sp.leq(forward[x], forward[y]):
                raise DualityFailure("canonical map does not preserve the order both ways")
    return PosetIso(tuple(forward), _backward(tuple(forward)))


def double_dual_lattice(a) -> LatticeIso:
    """Verify gamma is an isomorphism onto the upset algebra of the spectrum;
    implication is checked too when the input carries one."""
    lat = _lat(a)
    sp = spectrum(lat)
    target = upset_algebra(sp)
    elems = upset_masks(sp)
    index = {m: i for i, m in enumerate(elems)}
    if target.n != lat.n:
        raise DualityFailure("upset algebra of the spectrum has the wrong size")
    forward = []
    for x in range(lat.n):
        m = mask_of(gamma(lat, x))
        if m not in index:
            raise DualityFailure(f"gamma({x}) is not an upset of the spectrum")
        forward.append(index[m])
    if sorted(forward) != list(range(lat.n)):
        raise DualityFailure("gamma is not a bijection")
    tl = target.lattice
    if forward[lat.bottom] != tl.bottom or forward[lat.top] != tl.top:
        raise DualityFailure("gamma does not preserve the bounds")
    for x in range(lat.n):
        for y in range(lat.n):
            if forward[lat.meet[x][y]] != tl.meet[forward[x]][forward[y]]:
                raise DualityFailure("gamma does not preserve meet")
            if forward[lat.join[x][y]] != tl.join[forward[x]][forward[y]]:
                raise DualityFailure("gamma does not preserve join")
    if isinstance(a, HeytingAlgebra):
        for x in range(lat.n):
            for y in range(lat.n):
                if forward[a.implies[x][y]] != target.implies[forward[x]][forward[y]]:
                    raise DualityFailure("gamma does not preserve implication")
    return LatticeIso(tuple(forward), _backward(tuple(forward)))


def horn_verify(p: FinitePoset) -> bool:
    """Assert the Gödel equation on the upset algebra agrees with the
    root-system recognizer and return the shared verdict."""
    godel = is_godel(upset_algebra(p)).holds
    root = is_root_system(p)
    if godel != root:
        raise HornMismatch(f"Gödel={godel} but root-system={root}")
    return godel
