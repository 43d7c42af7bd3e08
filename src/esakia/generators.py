"""Poset generators: exhaustive isomorphism-class enumeration at small sizes
and seeded random posets, trees, and root systems."""

import random
from functools import lru_cache

from ._bits import bits
from .duality import Labelling
from .errors import SizeCap
from .posets import FinitePoset, from_relation, order_dual, upset_masks

ENUMERATION_CAP = 8


def _extends_canonically(lab: Labelling, maximal: list[int], v: int) -> bool:
    """Whether the maximal point v lies in the automorphism orbit of the
    canonically last maximal point.  That point has the greatest profile and
    the greatest root colour among maximal points, so these settle most
    candidates before the refinement or the search is run."""
    def greatest(colors):
        return colors[v] == max(colors[x] for x in maximal)

    if not (greatest(lab.profile) and greatest(lab.colors)):
        return False
    last = next(x for x in reversed(lab.leaf[1]) if x in maximal)
    return last == v or (orbit := lab.orbits())[last] == orbit[v]


@lru_cache(maxsize=None)
def _classes(n: int) -> tuple[FinitePoset, ...]:
    """The canonical forms of the n-point posets, sorted by canonical key.

    Canonical augmentation (McKay, *Isomorph-free exhaustive generation*,
    1998): each class Q of n - 1 points is extended by a new maximal point v
    over each downset of Q, and the candidate P is kept only if v lies in the
    automorphism orbit of P's canonically last maximal point.  Deleting that
    point from any n-point poset leaves a class of n - 1 points, so every
    class is reached, and from one parent only; two kept siblings are
    isomorphic iff their downsets share an orbit of Aut(Q), which the
    parent's key set removes.
    """
    if n == 1:
        return (FinitePoset(1, frozenset()),)
    v = n - 1
    found = []
    for parent in _classes(v):
        q = Labelling.of(parent)
        covers = list(parent.covers)
        keys = set()
        for up_set in upset_masks(parent):
            down = parent.full ^ up_set
            below = list(bits(down))
            ups = [u + [v] if down >> x & 1 else u for x, u in enumerate(q.ups)]
            ups.append([])
            tops = [x for x in below if not parent.up_masks[x] & down & ~(1 << x)]
            lab = Labelling(ups, q.downs + [below], covers + [(x, v) for x in tops])
            if not _extends_canonically(lab, [x for x in range(n) if not ups[x]], v):
                continue
            key = lab.leaf[0]
            if key not in keys:
                keys.add(key)
                found.append((key, FinitePoset(n, lab.canonical_covers())))
    found.sort(key=lambda kp: kp[0])
    return tuple(p for _, p in found)


def enumerate_posets(n: int):
    """Yield one representative per isomorphism class of n-element posets,
    n <= ENUMERATION_CAP, in canonical-key order.  Each is its own
    ``canonical_form``; the classes are built once each by canonical
    augmentation (``_classes``)."""
    if n < 1:
        raise ValueError("n must be at least 1")
    if n > ENUMERATION_CAP:
        raise SizeCap(f"class enumeration capped at {ENUMERATION_CAP} elements")
    yield from _classes(n)


def random_poset(seed: int, n: int, edge_density: float = 0.3) -> FinitePoset:
    """Random DAG on 0..n-1 (edges i<j with the given density), closed and
    reduced to Hasse form; deterministic in the seed."""
    if n < 1:
        raise ValueError("n must be at least 1")
    rng = random.Random(f"poset:{seed}:{n}:{edge_density}")
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)
             if rng.random() < edge_density]
    up = [1 << i for i in range(n)]
    for i in reversed(range(n)):
        for a, b in pairs:
            if a == i:
                up[i] |= up[b]
    rel = [(i, j) for i in range(n) for j in bits(up[i])]
    return from_relation(n, rel)


def random_tree(seed: int, n: int) -> FinitePoset:
    """Each non-root element gets a uniformly chosen parent among the earlier
    elements; element 0 is the root."""
    if n < 1:
        raise ValueError("n must be at least 1")
    rng = random.Random(f"tree:{seed}:{n}")
    covers = frozenset((rng.randrange(i), i) for i in range(1, n))
    return FinitePoset(n, covers)


def random_forest(seed: int, n: int) -> FinitePoset:
    """Each element past the first either starts a new component or attaches
    below a uniformly chosen earlier element."""
    if n < 1:
        raise ValueError("n must be at least 1")
    rng = random.Random(f"forest:{seed}:{n}")
    covers = set()
    for i in range(1, n):
        r = rng.randrange(i + 1)
        if r != i:
            covers.add((r, i))
    return FinitePoset(n, frozenset(covers))


def random_root_system(seed: int, n: int) -> FinitePoset:
    """Order dual of a random forest; a root system by construction."""
    return order_dual(random_forest(seed, n))

