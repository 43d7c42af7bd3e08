"""Finite topologies presented by subbases, with openness/compactness/
separation decision procedures.

A topology is held as its subbase plus one derived table: each point's
least open neighbourhood N[x], the intersection of the subbase members
containing x (the full carrier when none does).  A finite topology is fixed
by that table (Alexandrov 1937; McCord 1966): a set is open iff it holds
the neighbourhood of each of its points, so no base closure or open-set
family is ever materialized here.  Against a poset, the clopen upsets are
read the same way from each point's least clopen upset C[x].
"""

from dataclasses import dataclass
from functools import cached_property

from ._bits import bits, full_mask, mask_of, points_of
from .errors import OversizeSubbase
from .posets import FinitePoset

# Public subbases are refused above this many distinct sets.  The cap no
# longer guards memory: `verify` gates its spectrum round trip, which
# materializes the clopen-upset lattice, on algebra.UPSET_CAP instead.  It
# stays because the root-systems workload of perfbench/ counts its
# OversizeSubbase refusals.
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


def union_closure(masks: list[int]) -> list[int]:
    """All unions of subfamilies (empty -> 0), deduplicated, ascending.

    Closes one generator at a time: the unions of the first i + 1
    generators are those of the first i, each with and without g_i.
    """
    out = {0}
    for g in masks:
        out |= {u | g for u in out}
    return sorted(out)


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


def is_discrete(t: FiniteTopology) -> bool:
    """Every point is its own least neighbourhood."""
    return all(nb == 1 << x for x, nb in enumerate(t.neighbourhoods))


def least_clopen_upsets(p: FinitePoset, t: FiniteTopology) -> tuple[int, ...]:
    """Per point x, C[x]: the least clopen upset of p holding x.

    Clopen upsets are closed under intersection, so C[x] is the least set
    holding x that is closed under three steps from each member z: to ↑z
    (an upset), to N[z] (open), and to every w with z ∈ N[w] (open
    complement: N[w] meets the set).  That is everything reachable from x
    along the steps, closed here by Warshall's algorithm on bitmasks.
    """
    if p.n != t.carrier_size:
        raise ValueError("carrier sizes differ")
    nbhds = t.neighbourhoods
    reach = [p.up_masks[z] | nbhds[z] | mask_of(w for w, nb in enumerate(nbhds) if nb >> z & 1)
             for z in range(p.n)]
    for k in range(p.n):
        for x in range(p.n):
            if reach[x] >> k & 1:
                reach[x] |= reach[k]
    return tuple(reach)


def clopen_upsets(p: FinitePoset, t: FiniteTopology) -> list[frozenset[int]]:
    """All upsets of p that are open with open complement, ascending by mask:
    the unions of the least clopen upsets C[x], since each clopen upset is
    the union of the C[x] of its points."""
    return [points_of(m) for m in union_closure(least_clopen_upsets(p, t))]


@dataclass(frozen=True)
class PriestleyReport:
    """Separation verdict: a clopen-upset witness per pair x ≰ y, or the
    pairs that cannot be separated."""

    holds: bool
    witnesses: dict[tuple[int, int], frozenset[int]]
    failures: tuple[tuple[int, int], ...]


def priestley_check(p: FinitePoset, t: FiniteTopology) -> PriestleyReport:
    """Every clopen upset holding x contains C[x], so x ≰ y is separated iff
    y ∉ C[x], and C[x] is then the first separating clopen upset by mask."""
    least = list(enumerate(least_clopen_upsets(p, t)))
    witnesses = {}
    for x, c in least:  # one witness set per x, shared by its pairs
        witnesses.update(dict.fromkeys([(x, y) for y in bits(p.full & ~p.up_masks[x] & ~c)],
                                       points_of(c)))
    failures = tuple((x, y) for x, c in least for y in bits(c & ~p.up_masks[x]))
    return PriestleyReport(not failures, witnesses, failures)


def esakia_check(p: FinitePoset, t: FiniteTopology) -> bool:
    """Priestley separation plus open downsets of opens, which on a finite
    carrier is discreteness.

    Suppose y ∈ N[x] with y ≠ x.  If x ≰ y, a clopen upset holding x is open,
    so it holds N[x] ∋ y and cannot separate x from y.  If x < y, the
    complement of a clopen upset holding y but not x is open and holds x, so
    it holds y; then y ≰ x is not separated.  So Priestley forces N[x] = {x}
    everywhere.  Conversely, on a discrete space every set is open, ↑x
    separates each x ≰ y, and every downset is open.
    """
    if p.n != t.carrier_size:
        raise ValueError("carrier sizes differ")
    return is_discrete(t)
