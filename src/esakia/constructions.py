"""The two Esakia-topology constructions on finite posets and their
verification machinery: the downset subbase on root systems, the staged
level-by-level topologies on trees, the climbing function, cone-witness
extraction, the frontier-based finite-subcover engine, separation-witness
synthesis, downset-openness checks, and the figure gallery.

Limit-ordinal branches of the source constructions are unreachable at finite
height; requesting one raises LimitHeightUnsupported instead of being
silently skipped.
"""

from dataclasses import dataclass

from ._bits import bits, mask_of, points_of, subsets
from .errors import (
    ClimbOutsideSet,
    ConstructionCheckFailure,
    LimitHeightUnsupported,
    NonTermination,
    NotACover,
    NotARootSystem,
    NotATree,
    NotComparablePrecondition,
    NotOpenAtLevel,
    UnknownName,
)
from .posets import FinitePoset, HeightProfile, heights, is_root_system, is_tree
from .topology import FiniteTopology, generate_base, is_discrete


# -- root-system construction ------------------------------------------------

@dataclass(frozen=True)
class RootSubbase:
    """Per-component downsets of elements with an immediate successor and
    their in-component complements; component carriers appended when the
    root system is disconnected."""

    carrier: FinitePoset
    sets: tuple[frozenset[int], ...]


def root_subbase(p: FinitePoset) -> RootSubbase:
    if not is_root_system(p):
        raise NotARootSystem("order dual is not a forest")
    comps = p.component_masks
    sets: list[frozenset[int]] = []
    for comp in comps:
        gens = [x for x in sorted(bits(comp)) if p.up_masks[x] != 1 << x]
        sets.extend(points_of(p.down_masks[x]) for x in gens)
        sets.extend(points_of(comp & ~p.down_masks[x]) for x in gens)
    if len(comps) > 1:
        sets.extend(points_of(comp) for comp in comps)
    return RootSubbase(p, tuple(sets))


def root_topology_check(p: FinitePoset) -> FiniteTopology:
    """Generate the root-system topology and verify it is discrete, which on
    a finite carrier is Esakia (see topology.esakia_check)."""
    topo = generate_base(list(root_subbase(p).sets), p.n)
    if not is_discrete(topo):
        raise ConstructionCheckFailure("root-system topology failed the Esakia checks")
    return topo


# -- staged construction on trees ---------------------------------------------

@dataclass(frozen=True)
class SubbaseSource:
    """How a staged subbase set arose: an isolated singleton, a principal
    downset, or a lifted lower-level open carved by finitely many downsets."""

    kind: str  # "singleton" | "downset" | "lift"
    element: int | None = None
    v_mask: int | None = None
    z_set: frozenset[int] | None = None


@dataclass(frozen=True)
class SubbaseEntry:
    points: frozenset[int]
    mask: int
    sources: tuple[SubbaseSource, ...]

    def first_lift(self) -> SubbaseSource | None:
        for s in self.sources:
            if s.kind == "lift":
                return s
        return None


class StagedTopology:
    """Per-level artifacts of the staged construction on a finite tree.

    Levels run from 0 (the root alone) to the tree height; each successor
    level's subbase holds the three families (isolated singletons, downsets
    of covered level elements, and lifted-and-carved lower opens), with
    provenance retained per deduplicated set.  Every level is discrete (see
    staged_topology), so its opens are all subsets of its carrier and every
    level is listed in v_modes as "exact".
    """

    def __init__(self, tree, profile, plus_choice, p_sets, s_sets, entries,
                 bases, final):
        self.tree: FinitePoset = tree
        self.profile: HeightProfile = profile
        self.plus_choice: dict[int, int] = plus_choice
        self.p_sets: dict[int, frozenset[int]] = p_sets
        self.s_sets: dict[int, frozenset[int]] = s_sets
        self._entries: dict[int, list[SubbaseEntry]] = entries
        self._bases: dict[int, list[tuple[int, tuple[int, ...]]]] = bases
        self._opens: dict[int, frozenset[int]] = {
            a: frozenset(subsets(profile.le_mask(a))) for a in self.levels()}
        self.v_modes: dict[int, str] = {a: "exact" for a in range(1, profile.max_height + 1)}
        self.final: FiniteTopology = final
        self._climbs: dict[int, tuple[int, ...]] = {}
        self._mask_sets: dict[int, frozenset[int]] = {
            a: frozenset(e.mask for e in es) for a, es in entries.items()}

    @property
    def height(self) -> int:
        return self.profile.max_height

    def levels(self) -> range:
        return range(self.height + 1)

    def level_carrier_mask(self, alpha: int) -> int:
        return self.profile.le_mask(alpha)

    def slice_mask(self, alpha: int) -> int:
        if alpha > self.height:
            return 0
        return self.profile.level_masks[alpha]

    def subbase_entries(self, alpha: int) -> list[SubbaseEntry]:
        self._check_level(alpha)
        return self._entries[alpha]

    def subbase_sets(self, alpha: int) -> list[frozenset[int]]:
        return [e.points for e in self.subbase_entries(alpha)]

    def subbase_mask_set(self, alpha: int) -> frozenset[int]:
        self._check_level(alpha)
        return self._mask_sets[alpha]

    def base_entries(self, alpha: int) -> list[tuple[int, tuple[int, ...]]]:
        """Level base as (mask, subbase-index decomposition), smallest first."""
        self._check_level(alpha)
        return self._bases[alpha]

    def opens_masks(self, alpha: int) -> frozenset[int]:
        """All level-alpha opens: every subset of the level carrier."""
        self._check_level(alpha)
        return self._opens[alpha]

    def is_open_at_level(self, alpha: int, mask: int) -> bool:
        """The level is discrete, so mask is open iff it lies in the carrier."""
        self._check_level(alpha)
        return not mask & ~self.level_carrier_mask(alpha)

    def _check_level(self, alpha: int):
        if not 0 <= alpha <= self.height:
            raise LimitHeightUnsupported(
                f"level {alpha} outside the finite range 0..{self.height}")

    # climbing function ------------------------------------------------

    def climb_values(self, x: int) -> tuple[int, ...]:
        if x not in self._climbs:
            f = x
            vals = [x]
            for alpha in range(self.profile.heights[x], self.height):
                if f in self.p_sets.get(alpha, frozenset()):
                    f = self.plus_choice[f]
                vals.append(f)
            self._climbs[x] = tuple(vals)
        return self._climbs[x]

    def climb_value(self, x: int, alpha: int) -> int:
        hx = self.profile.heights[x]
        if alpha < hx:
            raise ValueError(f"climb of {x} starts at level {hx}")
        self._check_level(alpha)
        return self.climb_values(x)[alpha - hx]


def staged_topology(p: FinitePoset, plus_choice: dict[int, int] | None = None) -> StagedTopology:
    """Build the level topologies of a finite tree.

    Per successor level: covered level elements get a chosen upper cover
    (smallest index unless plus_choice overrides), the uncovered new points
    become isolated singletons, and the subbase gains the three families.
    Each level's base is the intersection closure of its subbase, with the
    subbase indices of one decomposition per element, and the final
    topology is generated by the top level's subbase.

    Every level is discrete, so its opens are all subsets of its carrier
    and the lifted family ranges over every subset of the level below.  By
    induction from the one-point level 0: if level alpha is discrete, each
    point of level alpha+1 is a finite intersection of subbase members,
    where lift(v) = v ∪ (↑(v ∩ slice alpha) up to height alpha+1):
    - a new isolated point x is its own singleton member;
    - a point x below slice alpha has lift({x}) = {x};
    - an uncovered point x of slice alpha has lift({x}) = {x};
    - a covered point x of slice alpha is ↓x ∩ lift({x});
    - a chosen cover x = y⁺ is lift({y}) ∖ ↓({y} ∪ the isolated siblings
      of x), as every other upper cover of y is isolated.
    A finite space whose points are open is discrete (Alexandrov 1937).
    """
    if not is_tree(p):
        raise NotATree("staged construction requires a tree")
    prof = heights(p)
    h = prof.max_height
    root = next(iter(prof.level(0)))

    p_sets: dict[int, frozenset[int]] = {}
    s_sets: dict[int, frozenset[int]] = {}
    choice: dict[int, int] = {}
    entries: dict[int, list[SubbaseEntry]] = {0: []}
    bases: dict[int, list[tuple[int, tuple[int, ...]]]] = {0: [(1 << root, ())]}

    for alpha in range(h):
        next_level = alpha + 1
        le_next = prof.le_mask(next_level)
        cur_slice = prof.level_masks[alpha]
        covered = sorted(x for x in bits(cur_slice) if p.upper_covers(x))
        p_sets[alpha] = frozenset(covered)
        plus_here = {}
        for x in covered:
            children = p.upper_covers(x)
            want = plus_choice.get(x) if plus_choice else None
            if want is not None:
                if want not in children:
                    raise ValueError(f"{want} is not an upper cover of {x}")
                plus_here[x] = want
            else:
                plus_here[x] = children[0]
        choice.update(plus_here)
        s_here = frozenset(bits(prof.level_masks[next_level])) - set(plus_here.values())
        s_sets[next_level] = s_here

        level_entries: dict[int, list[SubbaseSource]] = {}
        order: list[int] = []

        def add(mask: int, src: SubbaseSource):
            if mask not in level_entries:
                level_entries[mask] = []
                order.append(mask)
            level_entries[mask].append(src)

        for x in sorted(s_here):
            add(1 << x, SubbaseSource("singleton", element=x))
        for x in covered:
            add(p.down_masks[x], SubbaseSource("downset", element=x))

        ground = sorted(p_sets[alpha] | s_here)
        ground_mask = mask_of(ground)
        carved = [(points_of(z), p.down_of_mask(z)) for z in subsets(ground_mask)]
        for v in subsets(prof.le_mask(alpha)):
            lift = v | (p.up_of_mask(v & cur_slice) & le_next)
            for z_set, z_down in carved:
                add(lift & ~z_down, SubbaseSource("lift", v_mask=v, z_set=z_set))

        entry_list = [SubbaseEntry(points_of(m), m, tuple(level_entries[m]))
                      for m in order]
        entries[next_level] = entry_list

        base_prov: dict[int, tuple[int, ...]] = {le_next: ()}
        work = []
        for i, e in enumerate(entry_list):
            if e.mask not in base_prov:
                base_prov[e.mask] = (i,)
                work.append(e.mask)
        while work:
            u = work.pop(0)
            for i, e in enumerate(entry_list):
                v = u & e.mask
                if v not in base_prov:
                    base_prov[v] = base_prov[u] + (i,)
                    work.append(v)
        bases[next_level] = sorted(
            ((m, prov) for m, prov in base_prov.items()),
            key=lambda it: (it[0].bit_count(), it[0]))

    final = FiniteTopology(p.n, tuple(e.points for e in entries[h]))
    st = StagedTopology(p, prof, choice, p_sets, s_sets, entries, bases, final)
    for x in range(p.n):  # fill the climb table: instances stay immutable
        st.climb_values(x)
    return st


def promoted_open_in_subbase(st: StagedTopology, beta: int, alpha: int,
                             u) -> bool:
    """Whether the level-beta open u, lifted to level alpha, is a subbase
    member there: u ∪ (points of height ≤ alpha above u's top slice)."""
    if not 0 <= beta < alpha or alpha > st.height:
        raise ValueError("need 0 <= beta < alpha <= height")
    m = mask_of(u)
    if not st.is_open_at_level(beta, m):
        raise NotOpenAtLevel(f"{sorted(u)} is not open at level {beta}")
    tree = st.tree
    promoted = m | (tree.up_of_mask(m & st.slice_mask(beta)) & st.level_carrier_mask(alpha))
    return promoted in st.subbase_mask_set(alpha)


# -- climbing function --------------------------------------------------------

@dataclass(frozen=True)
class Climb:
    """Values of the climbing function from the origin's level to the top:
    at each successor step a covered element is replaced by its chosen upper
    cover, anything else stays put."""

    origin: int
    start_level: int
    values: tuple[int, ...]

    def value(self, alpha: int) -> int:
        if alpha < self.start_level or alpha - self.start_level >= len(self.values):
            raise ValueError(f"level {alpha} outside {self.start_level}..top")
        return self.values[alpha - self.start_level]


def climb(st: StagedTopology, x: int) -> Climb:
    if not 0 <= x < st.tree.n:
        raise ValueError("element out of range")
    return Climb(x, st.profile.heights[x], st.climb_values(x))


# -- cone witnesses -----------------------------------------------------------

@dataclass(frozen=True)
class ConeWitness:
    """A generator v with finite prune sets: every point of height <= level
    above v avoiding upward-prunes ys and downward-prunes zs lands in the
    target subbase set."""

    v: int
    ys: frozenset[int]
    zs: frozenset[int]
    level: int


def _choose_base(st: StagedTopology, level: int, point: int, v_mask: int):
    for bm, prov in st.base_entries(level):
        if bm >> point & 1 and not bm & ~v_mask:
            return prov
    raise ConstructionCheckFailure(
        f"no base element of level {level} fits {point} inside the open")


def _cone(st: StagedTopology, x: int, alpha: int, entry: SubbaseEntry):
    tree = st.tree
    hx = st.profile.heights[x]
    if alpha == hx:
        return x, 0, 0
    prev = alpha - 1
    src = entry.first_lift()
    if src is None:
        raise ConstructionCheckFailure(
            "a subbase set containing the climbed point must have a lift source")
    f_prev = st.climb_value(x, prev)
    if not src.v_mask >> f_prev & 1:
        raise ConstructionCheckFailure("climbed point escaped the lift's open")
    prov = _choose_base(st, prev, f_prev, src.v_mask)
    parts = [_cone(st, x, prev, st.subbase_entries(prev)[i]) for i in prov]
    if parts:
        v = parts[0][0]
        for cand, _, _ in parts[1:]:
            if tree.leq(v, cand):
                v = cand
        y_star = 0
        z_star = 0
        for _, ym, zm in parts:
            y_star |= ym
            z_star |= zm
        y_star &= tree.up_masks[v]
        z_star &= tree.up_masks[v]
    else:
        v, y_star, z_star = x, 0, 0
    zbar_mask = mask_of(src.z_set)
    ys = y_star | (st.slice_mask(alpha) & zbar_mask & tree.up_masks[v])
    zs = z_star | (st.slice_mask(prev) & tree.down_of_mask(zbar_mask) & tree.up_masks[v])
    return v, ys, zs


def cone_witness(st: StagedTopology, x: int, alpha: int, u_index: int) -> ConeWitness:
    """Witness extraction by the level recursion: decompose the target set
    through its lift source, recurse through a base decomposition of the
    lower open, take the maximum of the produced generators, and refit the
    prune sets above it.  All witness invariants are re-verified."""
    tree = st.tree
    hx = st.profile.heights[x]
    st._check_level(alpha)
    if alpha < hx:
        raise ValueError(f"level must be at least {hx}")
    entry = st.subbase_entries(alpha)[u_index]
    fx = st.climb_value(x, alpha)
    if not entry.mask >> fx & 1:
        raise ClimbOutsideSet(f"climb of {x} at level {alpha} misses the set")
    v, ys, zs = _cone(st, x, alpha, entry)
    _verify_cone(st, x, alpha, entry.mask, v, ys, zs)
    return ConeWitness(v, points_of(ys), points_of(zs), alpha)


def _verify_cone(st: StagedTopology, x: int, alpha: int, target: int,
                 v: int, ys: int, zs: int):
    tree = st.tree
    hx = st.profile.heights[x]
    hv = st.profile.heights[v]
    le_a = st.level_carrier_mask(alpha)
    if not tree.leq(v, x):
        raise ConstructionCheckFailure("witness generator must sit below x")
    assert hv == 0 or hv >= 1  # finite heights are zero or successors
    if ys & ~(st.profile.above_mask(hx) & tree.up_masks[v] & le_a):
        raise ConstructionCheckFailure("upward prunes escape their bound")
    if alpha > 0 and zs & ~(st.profile.le_mask(alpha - 1) & tree.up_masks[v]):
        raise ConstructionCheckFailure("downward prunes escape their bound")
    if alpha == 0 and zs:
        raise ConstructionCheckFailure("downward prunes escape their bound")
    cone = (tree.up_masks[v] & le_a) \
        & ~((tree.up_of_mask(ys) & le_a) | tree.down_of_mask(zs))
    if cone & ~target:
        raise ConstructionCheckFailure("pruned cone is not inside the target set")


# -- finite-subcover engine ----------------------------------------------------

@dataclass(frozen=True)
class PointData:
    """Per-point engine inputs: the chosen cover member containing the
    climbed point, its witness, and a finite family covering the downset."""

    u_index: int
    witness: ConeWitness
    downset_cover: tuple[int, ...]


@dataclass(frozen=True)
class CoverState:
    alpha: int
    frontier: frozenset[int]
    selected: tuple[int, ...]


@dataclass(frozen=True)
class CoverEngineRun:
    states: tuple[CoverState, ...]
    point_data: dict[int, PointData]
    selected: tuple[int, ...]


def _cover_masks(st: StagedTopology, cover: list[int]) -> list[int]:
    entries = st.subbase_entries(st.height)
    masks = []
    for i in cover:
        if not 0 <= i < len(entries):
            raise ValueError(f"subbase index {i} out of range")
        masks.append(entries[i].mask)
    union = 0
    for m in masks:
        union |= m
    if union != st.tree.full:
        raise NotACover("supplied subbase sets do not cover the tree")
    return masks


def cover_downset(st: StagedTopology, cover: list[int], x: int) -> list[int]:
    """Finite subfamily covering the principal downset of x, by walking the
    root path and taking the first cover member containing each point."""
    masks = _cover_masks(st, cover)
    chosen = set()
    for e in bits(st.tree.down_masks[x]):
        for pos, m in enumerate(masks):
            if m >> e & 1:
                chosen.add(cover[pos])
                break
    return sorted(chosen)


def run_cover_engine(st: StagedTopology, cover: list[int]) -> CoverEngineRun:
    """Frontier recursion extracting a finite subcover.

    Round zero seeds the frontier with the root and selects nothing.  Each
    round selects the chosen cover member of every frontier point plus the
    downset covers of its downward prunes, then advances the frontier to the
    minimal unretired upward prunes.  Stops when the frontier empties (or
    folds into earlier frontiers); the selection is verified to cover.
    """
    tree = st.tree
    masks = _cover_masks(st, cover)
    h = st.height
    top_entries = st.subbase_entries(h)

    point_data: dict[int, PointData] = {}
    for x in range(tree.n):
        fx = st.climb_value(x, h)
        pos = next(k for k, m in enumerate(masks) if m >> fx & 1)
        witness = cone_witness(st, x, h, cover[pos])
        down_cov = tuple(cover_downset(st, cover, z) for z in sorted(witness.zs))
        flat = tuple(sorted({i for grp in down_cov for i in grp}))
        point_data[x] = PointData(cover[pos], witness, flat)

    root = next(iter(st.profile.level(0)))
    frontier = frozenset({root})
    earlier: list[frozenset[int]] = []
    selected: set[int] = set()
    states = [CoverState(0, frontier, ())]
    budget = h + tree.n
    for _ in range(budget):
        if not frontier:
            break
        earlier.append(frontier)
        candidates = set()
        retired = frozenset().union(*earlier)
        for y in frontier:
            data = point_data[y]
            selected.add(data.u_index)
            selected.update(data.downset_cover)
            for z in data.witness.ys:
                if tree.leq(y, z) and not any(
                        tree.lt(z, w) for f in earlier for w in f):
                    candidates.add(z)
        nxt = frozenset(
            z for z in candidates
            if not any(c != z and tree.lt(c, z) for c in candidates))
        _check_round(st, frontier, nxt, earlier, selected, masks, cover)
        states.append(CoverState(len(states), nxt, tuple(sorted(selected))))
        if nxt <= retired:
            frontier = frozenset()
            break
        frontier = nxt
    else:
        raise NonTermination(f"engine still running after {budget} rounds")

    total = 0
    for i in selected:
        total |= top_entries[i].mask
    if total != tree.full:
        raise ConstructionCheckFailure("engine selection does not cover the tree")
    return CoverEngineRun(tuple(states), point_data, tuple(sorted(selected)))


def _check_round(st, frontier, nxt, earlier, selected, masks, cover):
    tree = st.tree
    for a in nxt:
        for b in nxt:
            if a != b and tree.leq(a, b):
                raise ConstructionCheckFailure("frontier is not an antichain")
    up_f = tree.up_of_mask(mask_of(frontier))
    if mask_of(nxt) & ~(up_f & ~mask_of(frontier)):
        raise ConstructionCheckFailure("successor law violated")
    for f in earlier:
        for a in nxt:
            for b in f:
                if tree.lt(a, b):
                    raise ConstructionCheckFailure("frontier descends under an earlier one")
    covered = 0
    sel_masks = {i: m for i, m in zip(cover, masks)}
    for i in selected:
        covered |= sel_masks[i]
    if (tree.full & ~tree.up_of_mask(mask_of(nxt))) & ~covered:
        raise ConstructionCheckFailure("selection misses points off the frontier's upset")


# -- separation and downset openness -------------------------------------------

def separation_witness(st: StagedTopology, x: int, y: int) -> frozenset[int]:
    """A clopen upset of the final topology containing x and missing y,
    built by the level recursion on shadows (a point's shadow at a level is
    itself or its parent); verified clopen and upward closed before return."""
    tree = st.tree
    if tree.leq(x, y):
        raise NotComparablePrecondition(f"{x} <= {y}")

    prof = st.profile

    def shadow(z: int, level: int) -> int:
        if prof.heights[z] <= level:
            return z
        return tree.lower_covers(z)[0]

    def sep(level: int, a: int, b: int) -> int:
        prev = level - 1
        abar, bbar = shadow(a, prev), shadow(b, prev)
        if not tree.leq(abar, bbar):
            v = sep(prev, abar, bbar)
            return v | (tree.up_of_mask(v & st.slice_mask(prev))
                        & st.level_carrier_mask(level))
        if b in st.p_sets.get(prev, frozenset()) or b in st.s_sets.get(level, frozenset()):
            return st.level_carrier_mask(level) & ~tree.down_masks[b]
        if a not in st.s_sets.get(level, frozenset()):
            raise ConstructionCheckFailure("separating point must be isolated here")
        return 1 << a

    result = sep(st.height, x, y)
    t = st.final
    if not (result >> x & 1) or result >> y & 1:
        raise ConstructionCheckFailure("witness misplaces the pair")
    if not tree.is_upset_mask(result):
        raise ConstructionCheckFailure("witness is not an upset")
    if not t.is_open_mask(result) or not t.is_open_mask(t.full ^ result):
        raise ConstructionCheckFailure("witness is not clopen")
    return points_of(result)


def downset_open_check(st: StagedTopology) -> bool:
    """Downsets of all final opens are open (checked on the least
    neighbourhoods, of which every open is a union), and the principal
    downset of every non-maximal point is itself a final subbase member."""
    tree = st.tree
    t = st.final
    if not all(t.is_open_mask(tree.down_of_mask(nb)) for nb in set(t.neighbourhoods)):
        return False
    top_masks = st.subbase_mask_set(st.height)
    for x in range(tree.n):
        if tree.up_masks[x] != 1 << x and tree.down_masks[x] not in top_masks:
            return False
    return True


# -- gallery -------------------------------------------------------------------

def gallery(name: str, n: int) -> FinitePoset:
    """Finite truncations of the two illustrative posets: a descending chain
    with a side leaf at the bottom (a tree), and a fan with one doubled
    spoke (a root system)."""
    if n < 1:
        raise ValueError("n must be at least 1")
    if name == "figure1":
        labels = [f"x{n - 1 - i}" for i in range(n)] + ["y"]
        covers = {(i, i + 1) for i in range(n - 1)} | {(0, n)}
        return FinitePoset(n + 1, frozenset(covers), tuple(labels))
    if name == "figure2":
        labels = ["inf", "x", "top"] + [f"y{i}" for i in range(1, n + 1)]
        covers = {(0, 1), (1, 2)} | {(3 + i, 2) for i in range(n)}
        return FinitePoset(n + 3, frozenset(covers), tuple(labels))
    raise UnknownName(name)
