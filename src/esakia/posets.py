"""Finite posets from Hasse covers, order primitives, and structural recognizers.

Point sets over a poset carrier are plain ``frozenset[int]`` values; the
bitmask tables cached on :class:`FinitePoset` are the internal fast path.
"""

from collections.abc import Iterable
from dataclasses import dataclass, field
from functools import cached_property

from ._bits import bits, full_mask, mask_of, points_of
from .errors import (
    CarrierTooLarge,
    CycleError,
    EmptyChain,
    NonHasseEdge,
    NotAChain,
    NotACover,
    NotATree,
)

ORDER_OPEN_CAP = 16


def _default_labels(n: int) -> tuple[str, ...]:
    return tuple(str(i) for i in range(n))


@dataclass(frozen=True)
class FinitePoset:
    """A finite poset given by its Hasse covers (lower -> upper).

    The order is the reflexive-transitive closure of the covers.  Construction
    rejects cyclic cover sets and redundant (non-Hasse) edges, so a given
    order has exactly one accepted presentation.
    """

    n: int
    covers: frozenset[tuple[int, int]]
    labels: tuple[str, ...] = field(default=())

    def __post_init__(self):
        if self.labels == ():
            object.__setattr__(self, "labels", _default_labels(self.n))
        if len(self.labels) != self.n or len(set(self.labels)) != self.n:
            raise ValueError("labels must be unique and match the carrier size")
        for lo, hi in self.covers:
            if not (0 <= lo < self.n and 0 <= hi < self.n):
                raise ValueError(f"cover ({lo},{hi}) out of range")
            if lo == hi:
                raise CycleError(f"self-loop at {lo}")
        self._validate_hasse()

    # -- derived structure ------------------------------------------------

    @cached_property
    def up_masks(self) -> tuple[int, ...]:
        """up_masks[x] is the bitmask of the principal upset of x."""
        children = [[] for _ in range(self.n)]
        indeg = [0] * self.n
        for lo, hi in self.covers:
            children[lo].append(hi)
            indeg[hi] += 1
        order = [x for x in range(self.n) if indeg[x] == 0]
        seen = 0
        up = [0] * self.n
        i = 0
        while i < len(order):
            x = order[i]
            i += 1
            seen += 1
            for y in children[x]:
                indeg[y] -= 1
                if indeg[y] == 0:
                    order.append(y)
        if seen != self.n:
            raise CycleError("cover relation contains a cycle")
        for x in reversed(order):
            m = 1 << x
            for y in children[x]:
                m |= up[y]
            up[x] = m
        return tuple(up)

    @cached_property
    def down_masks(self) -> tuple[int, ...]:
        down = [1 << x for x in range(self.n)]
        for x in range(self.n):
            for y in bits(self.up_masks[x] ^ (1 << x)):
                down[y] |= 1 << x
        return tuple(down)

    @property
    def full(self) -> int:
        return full_mask(self.n)

    def _validate_hasse(self):
        up = self.up_masks  # raises CycleError on cycles
        down = self.down_masks
        for lo, hi in self.covers:
            between = up[lo] & down[hi] & ~(1 << lo) & ~(1 << hi)
            if between:
                raise NonHasseEdge(f"cover ({lo},{hi}) is implied through {min(bits(between))}")

    # -- elementwise order ------------------------------------------------

    def leq(self, x: int, y: int) -> bool:
        return bool(self.up_masks[x] >> y & 1)

    def lt(self, x: int, y: int) -> bool:
        return x != y and self.leq(x, y)

    def comparable(self, x: int, y: int) -> bool:
        return self.leq(x, y) or self.leq(y, x)

    def up_of_mask(self, m: int) -> int:
        r = 0
        for x in bits(m):
            r |= self.up_masks[x]
        return r

    def down_of_mask(self, m: int) -> int:
        r = 0
        for x in bits(m):
            r |= self.down_masks[x]
        return r

    def is_chain_mask(self, m: int) -> bool:
        xs = sorted(bits(m), key=lambda x: self.down_masks[x].bit_count())
        return all(self.leq(xs[i], xs[i + 1]) for i in range(len(xs) - 1))

    def is_upset_mask(self, m: int) -> bool:
        return self.up_of_mask(m) == m

    def lower_covers(self, x: int) -> list[int]:
        return sorted(lo for lo, hi in self.covers if hi == x)

    def upper_covers(self, x: int) -> list[int]:
        return sorted(hi for lo, hi in self.covers if lo == x)

    def minimal_elements(self) -> frozenset[int]:
        return frozenset(x for x in range(self.n) if self.down_masks[x] == 1 << x)

    def maximal_elements(self) -> frozenset[int]:
        return frozenset(x for x in range(self.n) if self.up_masks[x] == 1 << x)

    @cached_property
    def component_masks(self) -> tuple[int, ...]:
        """Connected components of the comparability graph, by least element."""
        parent = list(range(self.n))

        def find(a):
            while parent[a] != a:
                parent[a] = parent[parent[a]]
                a = parent[a]
            return a

        for lo, hi in self.covers:
            parent[find(lo)] = find(hi)
        groups: dict[int, int] = {}
        for x in range(self.n):
            r = find(x)
            groups[r] = groups.get(r, 0) | (1 << x)
        return tuple(sorted(groups.values(), key=lambda m: m & -m))


def from_relation(n: int, leq_pairs: Iterable[tuple[int, int]],
                  labels: tuple[str, ...] = ()) -> FinitePoset:
    """Build a poset from an arbitrary (pre-validated) order relation.

    Cover edges are the transitive reduction of the strict part.
    """
    up = [1 << x for x in range(n)]
    for x, y in leq_pairs:
        up[x] |= 1 << y
    down = [1 << y for y in range(n)]
    for x in range(n):
        for y in bits(up[x] ^ (1 << x)):
            down[y] |= 1 << x
    covers = set()
    for x in range(n):
        for y in bits(up[x] ^ (1 << x)):
            between = up[x] & down[y] & ~(1 << x) & ~(1 << y)
            if not between:
                covers.add((x, y))
    return FinitePoset(n, frozenset(covers), labels)


def check_points(p: FinitePoset, s: Iterable[int]) -> int:
    """Validate a point set over p's carrier and return it as a mask."""
    m = mask_of(s)
    if m & ~p.full:
        raise ValueError("point set exceeds the carrier")
    return m


# -- basic operations -----------------------------------------------------

def upset(p: FinitePoset, s: Iterable[int]) -> frozenset[int]:
    """All points above some member of s."""
    return points_of(p.up_of_mask(check_points(p, s)))


def downset(p: FinitePoset, s: Iterable[int]) -> frozenset[int]:
    """All points below some member of s."""
    return points_of(p.down_of_mask(check_points(p, s)))


def immediate_predecessor(p: FinitePoset, x: int, y: int) -> bool:
    """True iff x < y with nothing strictly between."""
    if not p.lt(x, y):
        return False
    between = p.up_masks[x] & p.down_masks[y] & ~(1 << x) & ~(1 << y)
    return between == 0


@dataclass(frozen=True)
class GapReport:
    """Enough-gaps verdict with one adjacent witness pair per comparable pair."""

    holds: bool
    witnesses: dict[tuple[int, int], tuple[int, int]]


def has_enough_gaps(p: FinitePoset) -> GapReport:
    """Every finite poset has enough gaps; witnesses use the smallest indices.

    For each x < y the witness is the first (x', y') in ascending index order
    with x <= x', y' <= y and x' an immediate predecessor of y'.
    """
    witnesses = {}
    for x in range(p.n):
        for y in bits(p.up_masks[x] ^ (1 << x)):
            found = None
            for xp in bits(p.up_masks[x] & p.down_masks[y]):
                for yp in bits(p.up_masks[xp] & p.down_masks[y]):
                    if immediate_predecessor(p, xp, yp):
                        found = (xp, yp)
                        break
                if found:
                    break
            assert found is not None, "finite posets always have enough gaps"
            witnesses[(x, y)] = found
    return GapReport(True, witnesses)


def _chain_extremum(p: FinitePoset, c: Iterable[int], top: bool) -> int:
    cm = check_points(p, c)
    xs = sorted(bits(cm))
    if not xs:
        raise EmptyChain("sup/inf of the empty chain")
    for i in range(len(xs)):
        for j in range(i + 1, len(xs)):
            if not p.comparable(xs[i], xs[j]):
                raise NotAChain(xs[i], xs[j])
    best = xs[0]
    for x in xs[1:]:
        if (p.leq(best, x) if top else p.leq(x, best)):
            best = x
    return best


def chain_sup(p: FinitePoset, c: Iterable[int]) -> int:
    """Maximum of a nonempty chain (its supremum in a finite poset)."""
    return _chain_extremum(p, c, True)


def chain_inf(p: FinitePoset, c: Iterable[int]) -> int:
    """Minimum of a nonempty chain."""
    return _chain_extremum(p, c, False)


# -- recognizers ----------------------------------------------------------

def is_forest(p: FinitePoset) -> bool:
    """True iff every principal downset is a chain (disjoint union of trees)."""
    return all(p.is_chain_mask(p.down_masks[x]) for x in range(p.n))


def is_tree(p: FinitePoset) -> bool:
    """True iff p is rooted and every principal downset is a chain."""
    return p.n >= 1 and is_forest(p) and len(p.component_masks) == 1


def is_root_system(p: FinitePoset) -> bool:
    """True iff the order dual is a forest (every principal upset a chain)."""
    return all(p.is_chain_mask(p.up_masks[x]) for x in range(p.n))


def is_well_ordered(p: FinitePoset) -> bool:
    """Always true here: a finite poset cannot contain an infinite
    descending chain, so the recognizer is total and trivially satisfied."""
    return True


# -- heights --------------------------------------------------------------

@dataclass(frozen=True)
class HeightProfile:
    """Per-element heights of a forest. In a tree h(x) = |downset(x)| - 1."""

    heights: tuple[int, ...]
    max_height: int

    @cached_property
    def level_masks(self) -> tuple[int, ...]:
        ms = [0] * (self.max_height + 1)
        for x, h in enumerate(self.heights):
            ms[h] |= 1 << x
        return tuple(ms)

    @cached_property
    def le_masks(self) -> tuple[int, ...]:
        ms = []
        acc = 0
        for m in self.level_masks:
            acc |= m
            ms.append(acc)
        return tuple(ms)

    def level(self, alpha: int) -> frozenset[int]:
        if alpha > self.max_height:
            return frozenset()
        return points_of(self.level_masks[alpha])

    def at_most(self, alpha: int) -> frozenset[int]:
        return points_of(self.le_mask(alpha))

    def le_mask(self, alpha: int) -> int:
        if alpha >= self.max_height:
            return self.le_masks[self.max_height]
        return self.le_masks[alpha]

    def above_mask(self, alpha: int) -> int:
        """Mask of elements with height strictly greater than alpha."""
        return self.le_masks[self.max_height] & ~self.le_mask(alpha)


def heights(p: FinitePoset) -> HeightProfile:
    """Height profile of a tree or forest (per component, roots at 0)."""
    if not is_forest(p):
        raise NotATree("heights are defined for trees and forests only")
    hs = tuple(p.down_masks[x].bit_count() - 1 for x in range(p.n))
    return HeightProfile(hs, max(hs, default=0))


def bounded_upset(p: FinitePoset, profile: HeightProfile, s: Iterable[int],
                  alpha: int) -> frozenset[int]:
    """Points of height at most alpha lying above some member of s."""
    return points_of(p.up_of_mask(check_points(p, s)) & profile.le_mask(alpha))


# -- constructions on posets ----------------------------------------------

def order_dual(p: FinitePoset) -> FinitePoset:
    return FinitePoset(p.n, frozenset((hi, lo) for lo, hi in p.covers), p.labels)


def disjoint_union(p: FinitePoset, q: FinitePoset) -> FinitePoset:
    covers = set(p.covers)
    covers.update((lo + p.n, hi + p.n) for lo, hi in q.covers)
    labels = list(p.labels)
    used = set(labels)
    for lab in q.labels:
        new = lab
        k = 2
        while new in used:
            new = f"{lab}_{k}"
            k += 1
        used.add(new)
        labels.append(new)
    return FinitePoset(p.n + q.n, frozenset(covers), tuple(labels))


# -- upset enumeration ----------------------------------------------------

def antichain_masks(p: FinitePoset):
    """Yield every antichain of p as a mask (incremental backtracking)."""

    def rec(start: int, cur: int, forbidden: int):
        yield cur
        for x in range(start, p.n):
            if not forbidden >> x & 1:
                yield from rec(x + 1, cur | 1 << x,
                               forbidden | p.up_masks[x] | p.down_masks[x])

    yield from rec(0, 0, 0)


def upset_masks(p: FinitePoset) -> tuple[int, ...]:
    """All upsets of p as masks, ascending; in bijection with antichains."""
    return tuple(sorted(p.up_of_mask(a) for a in antichain_masks(p)))


def upsets_of(p: FinitePoset) -> tuple[frozenset[int], ...]:
    return tuple(points_of(m) for m in upset_masks(p))


# -- order-open machinery --------------------------------------------------

def order_open_masks(p: FinitePoset) -> frozenset[int]:
    """Least family containing singleton complements, closed under the two
    blur operators, finite intersections and arbitrary unions, as masks.

    On a finite carrier every subset is a finite intersection of singleton
    complements, so the family is the full powerset of 2^n members; its
    output is capped at carriers of 16 points.
    """
    if p.n > ORDER_OPEN_CAP:
        raise CarrierTooLarge(
            f"order-open family has 2^{p.n} members; capped at {ORDER_OPEN_CAP} points")
    return frozenset(range(1 << p.n))


def order_open_family(p: FinitePoset) -> list[frozenset[int]]:
    """The order-open sets, sorted by mask value."""
    return [points_of(m) for m in sorted(order_open_masks(p))]


def interval_complement_order_open(p: FinitePoset, ys: Iterable[int],
                                   zs: Iterable[int]) -> bool:
    """Whether the complement of upset(ys) ∩ downset(zs) is order-open.

    Every subset of a finite carrier is order-open, so this holds for all
    point sets ys, zs of p; points outside the carrier raise ValueError.
    """
    check_points(p, ys)
    check_points(p, zs)
    return True


def order_subcover(p: FinitePoset, cover: list[frozenset[int]]) -> list[frozenset[int]]:
    """Greedy finite subcover of an order-open cover (largest set first,
    then smallest index; members contributing no new points are skipped).

    Every subset of a finite carrier is order-open, so members are only
    checked to lie inside the carrier."""
    masks = [check_points(p, s) for s in cover]
    union = 0
    for m in masks:
        union |= m
    if union != p.full:
        raise NotACover("cover does not exhaust the carrier")
    chosen = []
    covered = 0
    for i in sorted(range(len(masks)), key=lambda i: (-masks[i].bit_count(), i)):
        if masks[i] & ~covered:
            chosen.append(i)
            covered |= masks[i]
            if covered == p.full:
                break
    return [cover[i] for i in chosen]
