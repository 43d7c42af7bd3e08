"""Finite bounded distributive lattices, Heyting algebras, and prime-filter
machinery (spectra, the gamma embedding, the Gödel equation).

A `FiniteLattice` holds meet and join as k x k numpy index arrays.  The
k x k steps run on numpy, a block of rows (about BLOCK table entries) at a
time, so temporaries stay small.  `lattice_of_sets` ANDs and ORs the
ascending masks (uint64, or Python ints in object arrays past 64 bits) and
writes the index of each result into the arrays, read from a dense
mask-to-index lookup when it has at most k^2 entries and found by binary
search otherwise; on the lookup path masks up to 16 bits are uint16 and
the lookup is int16 whenever k <= 2^15.  The spectrum path reads the meet
array and builds no per-element Python ints: join-irreducibles come from a
lower-cover count over the comparison meet == column index, and only the
generators' meet rows are packed, to order the generators; the prime
filters, their labels, the spectrum order and `gamma` are read off those
rows.  The up and down masks of every element, which `leq` reads a bit of,
are packed from the meet rows only when a caller reads single entries, as
are the tuple-of-tuples views `meet`/`join`, whose entries share k int
objects.
"""

from dataclasses import dataclass
from functools import cached_property
from itertools import islice

import numpy as np

from ._bits import mask_of, points_of
from .errors import NoMaximum, NotALattice, NotDistributive
from .posets import FinitePoset, antichain_masks, from_relation, upset_masks

TABLE_CAP = 128
UPSET_CAP = 1 << 10  # upsets of a poset document turned into tables
BLOCK = 1 << 16  # table entries computed per block of rows

Table = tuple[tuple[int, ...], ...]


def _row_blocks(k: int):
    """Slices of row indices covering 0..k-1, about BLOCK entries each."""
    step = max(1, BLOCK // k)
    return (slice(lo, min(lo + step, k)) for lo in range(0, k, step))


def _packed_rows(flags: np.ndarray) -> list[int]:
    """Each row of a boolean matrix as an int mask (column j = bit j)."""
    packed = np.packbits(flags, axis=1, bitorder="little")
    raw, width = packed.tobytes(), packed.shape[1]
    return [int.from_bytes(raw[i:i + width], "little") for i in range(0, len(raw), width)]


def _index_dtype(k: int):
    """The narrowest signed dtype used here that holds -1..k-1."""
    return np.int16 if k <= 1 << 15 else np.int32


def _tuple_rows(table: np.ndarray, ids: np.ndarray) -> Table:
    """The rows of a k x k index array as tuples of the int objects gathered
    from ids, an object array of the ints 0..k-1."""
    rows = []
    for block in _row_blocks(len(table)):
        rows.extend(map(tuple, ids[table[block]].tolist()))
    return tuple(rows)


@dataclass(frozen=True, eq=False)
class FiniteLattice:
    """Bounded distributive lattice over 0..n-1 whose meet and join tables
    are n x n numpy index arrays (read-only).

    The order is derived from meet: a <= b iff meet[a][b] == a, which `leq`
    reads as bit b of up_masks[a].  `meet` and `join` are tuple-of-tuples
    views of the arrays, built on first use.  Equality compares n, the
    bounds and the tables.
    """

    n: int
    meet_array: np.ndarray
    join_array: np.ndarray
    bottom: int
    top: int

    def __post_init__(self):
        self.meet_array.setflags(write=False)
        self.join_array.setflags(write=False)

    def __eq__(self, other):
        if not isinstance(other, FiniteLattice):
            return NotImplemented
        return ((self.n, self.bottom, self.top) == (other.n, other.bottom, other.top)
                and np.array_equal(self.meet_array, other.meet_array)
                and np.array_equal(self.join_array, other.join_array))

    @cached_property
    def _ids(self) -> np.ndarray:
        """The ints 0..n-1 as an object array: both tuple views gather their
        entries from it, so they share n int objects."""
        return np.array(range(self.n), dtype=object)

    @cached_property
    def meet(self) -> Table:
        return _tuple_rows(self.meet_array, self._ids)

    @cached_property
    def join(self) -> Table:
        return _tuple_rows(self.join_array, self._ids)

    def _packed_order(self, own_index: bool) -> tuple[int, ...]:
        """Per element a, the mask of the b with meet[a][b] == a (own_index:
        b above a) or meet[a][b] == b (b below a), packed from the meet rows
        a block at a time."""
        ar = np.arange(self.n)
        masks = []
        for rows in _row_blocks(self.n):
            target = ar[rows, None] if own_index else ar
            masks.extend(_packed_rows(self.meet_array[rows] == target))
        return tuple(masks)

    @cached_property
    def up_masks(self) -> tuple[int, ...]:
        return self._packed_order(own_index=True)

    @cached_property
    def down_masks(self) -> tuple[int, ...]:
        return self._packed_order(own_index=False)

    def leq(self, a: int, b: int) -> bool:
        return self.up_masks[a] >> b & 1 == 1

    @cached_property
    def join_irreducibles(self) -> tuple[int, ...]:
        """Elements with exactly one lower cover, ascending.

        With cnt[a] = |↓a|, a is join-irreducible iff some b <= a has
        cnt[b] == cnt[a] - 1: then ↓b is the strict downset of a, which is
        principal exactly when a has one lower cover (the bottom has none).
        In a finite distributive lattice these are exactly the join-prime
        elements, hence the prime-filter generators.
        """
        below = self.meet_array == np.arange(self.n, dtype=self.meet_array.dtype)  # [a, b]: b <= a
        cnt = np.add.reduce(below.view(np.uint8), axis=1, dtype=_index_dtype(self.n + 1))
        below &= cnt == (cnt - 1)[:, None]
        return tuple(np.flatnonzero(below.any(axis=1)).tolist())

    @cached_property
    def _generator_rows(self) -> tuple[np.ndarray, np.ndarray, tuple[int, ...]]:
        """(gens, rows, ups): the join-irreducibles g ordered by the mask of
        the filter ↑g, the boolean rows g ∧ b == g of their meet rows, and
        those rows packed as masks.  Only the generators' rows are read."""
        ji = np.array(self.join_irreducibles, dtype=np.intp)
        rows = self.meet_array[ji] == ji[:, None]
        ups = _packed_rows(rows)
        order = np.array(sorted(range(len(ji)), key=ups.__getitem__), dtype=np.intp)
        return ji[order], rows[order], tuple(ups[i] for i in order.tolist())

    @cached_property
    def spectrum_generators(self) -> tuple[int, ...]:
        """Join-irreducibles ordered by the mask of the filter they generate."""
        return tuple(self._generator_rows[0].tolist())

    @cached_property
    def spectrum_filters(self) -> tuple[tuple[int, ...], ...]:
        """For each spectrum generator g, the members of the prime filter ↑g,
        ascending: the b with g∧b = g, read off the generators' meet rows in
        one numpy pass."""
        gens, flags, _ = self._generator_rows
        rows, cols = np.nonzero(flags)
        ends = np.searchsorted(rows, np.arange(1, len(gens) + 1)).tolist()
        cols = cols.tolist()
        return tuple(tuple(cols[lo:hi]) for lo, hi in zip([0] + ends, ends))


def check_upset_cap(p: FinitePoset) -> None:
    """Refuse p before any table is built when it has more than UPSET_CAP
    upsets: NotALattice("carrier-cap", (k, UPSET_CAP)), where k counts the
    upsets only up to UPSET_CAP + 1.  The cap admits the 1024 upsets of the
    10-point antichain; each further antichain point doubles k, so the
    k x k tables and the k^2 n implication loop of `dual` grow fourfold."""
    k = sum(1 for _ in islice(antichain_masks(p), UPSET_CAP + 1))
    if k > UPSET_CAP:
        raise NotALattice("carrier-cap", (k, UPSET_CAP))


def _as_table(rows) -> Table:
    return tuple(tuple(int(v) for v in row) for row in rows)


def validate_lattice(meet, join) -> FiniteLattice:
    """Check every bounded-distributive-lattice axiom on the given tables.

    Raises NotALattice(axiom, witness) or NotDistributive(a, b, c) naming the
    first violation.  Carriers are capped at 128 so the n^2 tables and n^3
    scans stay small.
    """
    meet_t, join_t = _as_table(meet), _as_table(join)
    n = len(meet_t)
    if n == 0 or len(join_t) != n or any(len(r) != n for r in meet_t + join_t):
        raise NotALattice("shape", (n,))
    if n > TABLE_CAP:
        raise NotALattice("carrier-cap", (n, TABLE_CAP))
    if any(not 0 <= v < n for row in meet_t + join_t for v in row):
        raise NotALattice("range", ())
    m = np.array(meet_t, dtype=np.int64)
    j = np.array(join_t, dtype=np.int64)
    ar = np.arange(n)

    def first_bad(bad, axiom):
        if bad.any():
            raise NotALattice(axiom, tuple(int(v) for v in np.argwhere(bad)[0]))

    for table, name in ((m, "meet"), (j, "join")):
        first_bad(table[ar, ar] != ar, f"{name}-idempotence")
        first_bad(table != table.T, f"{name}-commutativity")
        first_bad(table[table, :] != table[:, table], f"{name}-associativity")
    first_bad(m[ar[:, None], j] != ar[:, None], "meet-absorption")
    first_bad(j[ar[:, None], m] != ar[:, None], "join-absorption")

    bottoms = [a for a in range(n) if (m[a, :] == a).all()]
    tops = [a for a in range(n) if (j[a, :] == a).all()]
    if len(bottoms) != 1 or len(tops) != 1:
        raise NotALattice("bounds", (len(bottoms), len(tops)))

    lhs = m[:, j]
    rhs = j[m[:, :, None], m[:, None, :]]
    bad = lhs != rhs
    if bad.any():
        a, b, c = np.argwhere(bad)[0]
        raise NotDistributive(int(a), int(b), int(c))
    return FiniteLattice(n, m, j, bottoms[0], tops[0])


@dataclass(frozen=True)
class HeytingAlgebra:
    lattice: FiniteLattice
    implies: Table

    @property
    def n(self) -> int:
        return self.lattice.n


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


@dataclass(frozen=True)
class GodelCheck:
    holds: bool
    counterexample: tuple[int, int] | None


def is_godel(h: HeytingAlgebra) -> GodelCheck:
    """Check (x -> y) ∨ (y -> x) = 1 for all pairs, first violation wins."""
    lat, imp = h.lattice, h.implies
    for x in range(lat.n):
        for y in range(lat.n):
            if lat.join[imp[x][y]][imp[y][x]] != lat.top:
                return GodelCheck(False, (x, y))
    return GodelCheck(True, None)


@dataclass(frozen=True)
class PrimeFilter:
    members: frozenset[int]


def prime_filters(lat: FiniteLattice) -> list[PrimeFilter]:
    """All prime filters: the principal upsets of join-irreducible elements,
    canonically sorted by member mask."""
    return [PrimeFilter(frozenset(m)) for m in lat.spectrum_filters]


def spectrum(lat: FiniteLattice) -> FinitePoset:
    """Poset of prime filters under inclusion.

    Filter i is below filter j iff generator j is below generator i, i.e.
    g_i is in ↑g_j: read off the generator x generator block of the
    generators' meet rows.
    """
    gens, rows, _ = lat._generator_rows
    names = list(map(str, range(lat.n)))
    labels = tuple("{" + ",".join(map(names.__getitem__, m)) + "}" for m in lat.spectrum_filters)
    below, above = np.nonzero(rows[:, gens].T)
    return from_relation(len(gens), zip(below.tolist(), above.tolist()), labels)


def upset_algebra(p: FinitePoset) -> HeytingAlgebra:
    """Heyting algebra of all upsets of p (the discrete-space clopen upsets),
    with implication U -> V = {x : U ∩ upset(x) ⊆ V}."""
    elems = upset_masks(p)
    index = {m: i for i, m in enumerate(elems)}
    k = len(elems)
    lat = lattice_of_sets(points_of(m) for m in elems)
    imp_rows = []
    for a in range(k):
        row = []
        for b in range(k):
            m = 0
            for x in range(p.n):
                if not (p.up_masks[x] & elems[a]) & ~elems[b]:
                    m |= 1 << x
            row.append(index[m])
        imp_rows.append(tuple(row))
    return HeytingAlgebra(lat, tuple(imp_rows))


def upset_algebra_elements(p: FinitePoset) -> tuple[frozenset[int], ...]:
    """Carrier of upset_algebra(p) as point sets, in element-index order."""
    return tuple(points_of(m) for m in upset_masks(p))


def _index_table(arr: np.ndarray, op) -> np.ndarray:
    """The k x k int32 array of index(arr[a] op arr[b]) over the ascending,
    distinct masks arr; NotALattice names the first result (row-major) that
    is no mask of arr.

    Every result lies below 1 << width, width the bit length of the top
    mask.  When 1 << width <= k * k, a dense lookup lut[mask] = index (-1
    off the family) maps the results back, and is no larger than the table
    being built; the masks are then uint16 up to 16 bits (intp past that)
    and the lookup int16 when it holds every index, so each block is
    computed and gathered in narrow types.  Wider families, every one past
    64 bits among them, are mapped back by binary search.
    """
    k = len(arr)
    table = np.empty((k, k), dtype=np.int32)
    width = int(arr[-1]).bit_length()
    if 1 << width <= k * k:
        arr = arr.astype(np.uint16 if width <= 16 else np.intp)
        lut = np.full(1 << width, -1, dtype=_index_dtype(k))
        lut[arr] = np.arange(k)
    else:
        lut = None
    for block in _row_blocks(k):
        vals = op(arr[block, None], arr)
        if lut is not None:
            idx = np.take(lut, vals)
            missing = idx < 0
        else:
            idx = np.searchsorted(arr, vals)
            np.minimum(idx, k - 1, out=idx)
            missing = arr[idx] != vals
        if missing.any():
            raise NotALattice("family-not-closed", (int(vals.flat[np.argmax(missing)]),))
        table[block] = idx
    return table


def lattice_of_sets(sets) -> FiniteLattice:
    """Lattice of a finite family of point sets closed under union and
    intersection, ordered by inclusion (element order: ascending mask).

    Masks are held as uint64 when the largest fits 64 bits and as Python
    ints (numpy object arrays) otherwise.  Each AND/OR result is mapped back
    to its index through a dense lookup when the top mask's bit length w
    has 1 << w <= k * k, and by binary search otherwise (see `_index_table`).
    A family that is not closed raises NotALattice("family-not-closed") with
    the first missing mask, meets before joins, in row-major order, on
    either path.
    """
    masks = sorted({mask_of(s) for s in sets})
    k = len(masks)
    if k == 0:
        raise NotALattice("empty-family", ())
    arr = np.array(masks, dtype=np.uint64 if masks[-1] >> 64 == 0 else object)
    meet = _index_table(arr, np.bitwise_and)
    join = _index_table(arr, np.bitwise_or)
    # The bounds need no check: a family closed under binary intersection
    # holds the intersection of all its members, a subset of every member and
    # hence the least mask, masks[0]; by the same argument for unions the
    # union of all members is masks[-1].
    return FiniteLattice(k, meet, join, 0, k - 1)


def gamma(lat: FiniteLattice, a: int) -> frozenset[int]:
    """Spectrum indices of the prime filters containing a."""
    if not 0 <= a < lat.n:
        raise ValueError("element out of range")
    return frozenset(i for i, up in enumerate(lat._generator_rows[2]) if up >> a & 1)
