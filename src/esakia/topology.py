"""Finite topologies presented by subbases, with openness/compactness/
separation decision procedures.

A topology is held as its subbase plus one derived table: each point's
least open neighbourhood N[x], the intersection of the subbase members
containing x (the full carrier when none does).  A finite topology is fixed
by that table (Alexandrov 1937; McCord 1966): a set is open iff it holds
the neighbourhood of each of its points, so no base closure or open-set
family is ever materialized here.
"""

from dataclasses import dataclass
from functools import cached_property

from ._bits import full_mask, mask_of, points_of
from .errors import NotACover, OversizeSubbase
from .posets import FinitePoset, upset_masks

# Public subbases are refused above this many distinct sets: `verify` and
# `topologize` go on to enumerate the upsets and the clopen-upset lattice,
# which grow exponentially with the number of points.
PUBLIC_SUBBASE_CAP = 20


def least_neighbourhoods(masks, carrier: int) -> tuple[int, ...]:
    """Per point below carrier.bit_length(), the intersection of carrier and
    every mask containing the point (0 for a point outside carrier)."""
    table = []
    for x in range(carrier.bit_length()):
        nb = carrier if carrier >> x & 1 else 0
        for m in masks:
            if m >> x & 1:
                nb &= m
        table.append(nb)
    return tuple(table)


@dataclass(frozen=True)
class FiniteTopology:
    carrier_size: int
    subbase: tuple[frozenset[int], ...]

    @cached_property
    def subbase_masks(self) -> tuple[int, ...]:
        return tuple(mask_of(s) for s in self.subbase)

    @property
    def full(self) -> int:
        return full_mask(self.carrier_size)

    @cached_property
    def neighbourhoods(self) -> tuple[int, ...]:
        """Per point x, N[x]: the least open set containing x."""
        return least_neighbourhoods(self.subbase_masks, self.full)

    @cached_property
    def base(self) -> tuple[frozenset[int], ...]:
        """The least base: the distinct least neighbourhoods, by mask."""
        return tuple(points_of(m) for m in sorted(set(self.neighbourhoods)))

    def is_open_mask(self, m: int) -> bool:
        """m is open iff it holds N[x] for each of its points x; the points
        of an N[x] found inside m need no test of their own."""
        if m >> self.carrier_size:
            return False
        nbhds = self.neighbourhoods
        rest = m
        while rest:
            nb = nbhds[(rest & -rest).bit_length() - 1]
            if nb & ~m:
                return False
            rest &= ~nb
        return True


def union_closure(masks: list[int], cap: int | None = None) -> list[int] | None:
    """All unions of subfamilies (empty -> 0), deduplicated.

    Only added unions are refused: the result is None when a union that is
    neither 0 nor a generator would take the family past cap distinct sets.
    0 and the generators are never refused, so a union-closed family comes
    back whole whatever its size.
    """
    seen = {0}
    out = [0]
    work = []
    gens = list(dict.fromkeys(masks))
    for m in gens:
        if m not in seen:
            seen.add(m)
            out.append(m)
            work.append(m)
    while work:
        u = work.pop()
        for g in gens:
            v = u | g
            if v not in seen:
                if cap is not None and len(seen) >= cap:
                    return None
                seen.add(v)
                out.append(v)
                work.append(v)
    return out


def generate_base(subbase: list[frozenset[int]], carrier_size: int) -> FiniteTopology:
    """Topology generated by a subbase, its members deduplicated in order.

    Subbases over PUBLIC_SUBBASE_CAP distinct sets are refused with
    OversizeSubbase.
    """
    masks = list(dict.fromkeys(mask_of(s) for s in subbase))
    if any(m >> carrier_size for m in masks):
        raise ValueError("subbase member exceeds the carrier")
    if len(masks) > PUBLIC_SUBBASE_CAP:
        raise OversizeSubbase(
            f"{len(masks)} subbase sets exceed the cap of {PUBLIC_SUBBASE_CAP}")
    return FiniteTopology(carrier_size, tuple(points_of(m) for m in masks))


def is_open(t: FiniteTopology, s) -> bool:
    """True iff s holds the least neighbourhood of each of its points."""
    m = mask_of(s)
    if m & ~t.full:
        raise ValueError("point set exceeds the carrier")
    return t.is_open_mask(m)


def is_discrete(t: FiniteTopology) -> bool:
    """Every point is its own least neighbourhood."""
    return all(nb == 1 << x for x, nb in enumerate(t.neighbourhoods))


def subbase_subcover(t: FiniteTopology, cover: list[int]) -> list[int]:
    """Greedy subcover from subbase indices: largest set first, then lowest
    index; indices contributing no new points are skipped."""
    masks = [t.subbase_masks[i] for i in cover]
    union = 0
    for m in masks:
        union |= m
    if union != t.full:
        raise NotACover("indexed subbase sets do not cover the carrier")
    chosen = []
    covered = 0
    for k in sorted(range(len(cover)), key=lambda k: (-masks[k].bit_count(), cover[k])):
        if masks[k] & ~covered:
            chosen.append(cover[k])
            covered |= masks[k]
            if covered == t.full:
                break
    return chosen


def clopen_upsets(p: FinitePoset, t: FiniteTopology) -> list[frozenset[int]]:
    """All upsets of p that are open with open complement, ascending by mask."""
    if p.n != t.carrier_size:
        raise ValueError("carrier sizes differ")
    out = []
    for m in upset_masks(p):
        if t.is_open_mask(m) and t.is_open_mask(t.full ^ m):
            out.append(points_of(m))
    return out


@dataclass(frozen=True)
class PriestleyReport:
    """Separation verdict: a clopen-upset witness per pair x ≰ y, or the
    pairs that cannot be separated."""

    holds: bool
    witnesses: dict[tuple[int, int], frozenset[int]]
    failures: tuple[tuple[int, int], ...]


def priestley_check(p: FinitePoset, t: FiniteTopology) -> PriestleyReport:
    if p.n != t.carrier_size:
        raise ValueError("carrier sizes differ")
    clopens = [mask_of(u) for u in clopen_upsets(p, t)]
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


def esakia_check(p: FinitePoset, t: FiniteTopology) -> bool:
    """Priestley separation plus openness of the downset of every least
    neighbourhood (every open is a union of them, and downsets commute with
    unions, so they suffice)."""
    if not priestley_check(p, t).holds:
        return False
    return all(t.is_open_mask(p.down_of_mask(nb)) for nb in set(t.neighbourhoods))
