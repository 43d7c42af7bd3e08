"""The two finite dual equivalences, isomorphism search, and canonical forms.

Double-dual checks verify the canonical maps themselves (x -> the filter of
upsets containing x, and a -> gamma(a)); generic isomorphism search is a
separate diagnostic.
"""

import itertools
from dataclasses import dataclass
from functools import lru_cache

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


def _color_partition(p: FinitePoset) -> list[int]:
    """Iterated invariant refinement: start from up/down set and cover-degree
    profiles, refine by the color multisets above and below each element."""
    cur = _compress([
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
        nxt = _compress(raw)
        if len(set(nxt)) == len(set(cur)):
            return nxt
        cur = nxt


def _orderings(p: FinitePoset):
    colors = _color_partition(p)
    classes: dict[int, list[int]] = {}
    for x, c in enumerate(colors):
        classes.setdefault(c, []).append(x)
    grouped = [classes[c] for c in sorted(classes)]
    for perms in itertools.product(*(itertools.permutations(g) for g in grouped)):
        yield [x for grp in perms for x in grp]


def _least_encoding(p: FinitePoset) -> tuple[int, list[int]]:
    """Minimum strict-order-matrix encoding over color-respecting orderings,
    with the first ordering that reaches it."""
    best = None
    best_order = None
    for order in _orderings(p):
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


@lru_cache(maxsize=None)
def canonical_key(p: FinitePoset) -> tuple[int, int]:
    """Minimum strict-order-matrix encoding over color-respecting orderings."""
    return (p.n, _least_encoding(p)[0])


def canonical_form(p: FinitePoset) -> FinitePoset:
    """The canonically labelled representative of p's isomorphism class."""
    pos = {x: i for i, x in enumerate(_least_encoding(p)[1])}
    return FinitePoset(p.n, frozenset((pos[lo], pos[hi]) for lo, hi in p.covers))


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
