"""Finite topologies presented by subbases, with openness/compactness/
separation decision procedures.

A topology is held as subbase + derived base (all finite intersections of
subbase members, the empty intersection being the full carrier).  Open-set
families are never materialized here.  A finite topology is fixed by each
point's least open neighbourhood (Alexandrov 1937; McCord 1966), so openness,
discreteness and the Esakia check read a per-point table of the ⊆-minimal
base elements containing the point, built once per topology.
"""

from dataclasses import dataclass
from functools import cached_property

from ._bits import full_mask, mask_of, points_of
from .errors import NotACover, OversizeSubbase
from .posets import FinitePoset, upset_masks

PUBLIC_SUBBASE_CAP = 20


@dataclass(frozen=True)
class FiniteTopology:
    carrier_size: int
    subbase: tuple[frozenset[int], ...]
    base: tuple[frozenset[int], ...]

    @cached_property
    def subbase_masks(self) -> tuple[int, ...]:
        return tuple(mask_of(s) for s in self.subbase)

    @cached_property
    def base_masks(self) -> tuple[int, ...]:
        return tuple(mask_of(b) for b in self.base)

    @property
    def full(self) -> int:
        return full_mask(self.carrier_size)

    @cached_property
    def neighbourhoods(self) -> tuple[tuple[int, ...], ...]:
        """Per point, the ⊆-minimal base elements containing it.

        On an intersection-closed base that is one set, the least open
        neighbourhood N[x]; a raw base may give a point several.  Scanning
        the base by size, a set is minimal for x when no minimal set of x
        found so far lies inside it.
        """
        masks = sorted(dict.fromkeys(self.base_masks), key=int.bit_count)
        table = []
        for x in range(self.carrier_size):
            bit = 1 << x
            mins = []
            for b in masks:
                if b & bit:
                    for nb in mins:
                        if not nb & ~b:
                            break
                    else:
                        mins.append(b)
            table.append(tuple(mins))
        return tuple(table)

    def minimal_base_masks(self) -> set[int]:
        """The base elements minimal at some point: every base element is a
        union of them."""
        return {nb for nbs in self.neighbourhoods for nb in nbs}

    def is_open_mask(self, m: int) -> bool:
        """m is open iff each of its points has a minimal base element inside
        m; the points of such an element need no test of their own."""
        if m >> self.carrier_size:
            return False
        nbhds = self.neighbourhoods
        rest = m
        while rest:
            x = (rest & -rest).bit_length() - 1
            for nb in nbhds[x]:
                if not nb & ~m:
                    rest &= ~nb
                    break
            else:
                return False
        return True


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


def union_closure(masks: list[int], cap: int | None = None) -> list[int] | None:
    """All unions of subfamilies (empty -> 0), deduplicated; None when the
    closure would exceed cap distinct sets."""
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


def generate_base(subbase: list[frozenset[int]], carrier_size: int,
                  max_subbase: int | None = PUBLIC_SUBBASE_CAP) -> FiniteTopology:
    """Topology from a subbase: base = all finite intersections, deduplicated.

    The public entry point refuses subbases over 20 distinct sets (the
    closure can be exponential in the subbase on large carriers); internal
    construction paths lift the cap, their carriers being small.
    """
    full = full_mask(carrier_size)
    masks = []
    seen = set()
    for s in subbase:
        m = mask_of(s)
        if m & ~full:
            raise ValueError("subbase member exceeds the carrier")
        if m not in seen:
            seen.add(m)
            masks.append(m)
    if max_subbase is not None and len(masks) > max_subbase:
        raise OversizeSubbase(f"{len(masks)} subbase sets exceed the cap of {max_subbase}")
    base = sorted(intersection_closure(masks, full))
    return FiniteTopology(carrier_size,
                          tuple(points_of(m) for m in masks),
                          tuple(points_of(m) for m in base))


def is_open(t: FiniteTopology, s) -> bool:
    """True iff every point of s has a base witness inside s."""
    m = mask_of(s)
    if m & ~t.full:
        raise ValueError("point set exceeds the carrier")
    return t.is_open_mask(m)


def is_discrete(t: FiniteTopology) -> bool:
    """Every singleton is a base element, hence each point's only minimal one."""
    return all(nbs == (1 << x,) for x, nbs in enumerate(t.neighbourhoods))


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
    """Priestley separation plus openness of the downset of every minimal
    base element (every open is a union of them, and downsets commute with
    unions, so they suffice)."""
    if not priestley_check(p, t).holds:
        return False
    return all(t.is_open_mask(p.down_of_mask(b)) for b in t.minimal_base_masks())
