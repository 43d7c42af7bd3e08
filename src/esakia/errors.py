"""Exception types shared across the toolkit."""


class EsakiaError(Exception):
    """Base class for all toolkit errors."""


# --- poset layer ---

class CycleError(EsakiaError):
    """Cover relation contains a cycle (or a self-loop)."""


class NonHasseEdge(EsakiaError):
    """An input cover edge is implied by others (not in the transitive reduction)."""


class NotAChain(EsakiaError):
    """A set expected to be a chain contains two incomparable elements."""

    def __init__(self, a: int, b: int):
        super().__init__(f"elements {a} and {b} are incomparable")
        self.pair = (a, b)


class EmptyChain(EsakiaError):
    """sup/inf of the empty chain was requested."""


class NotATree(EsakiaError):
    """Operation requires a tree (or a forest) and the input is not one."""


class NotARootSystem(EsakiaError):
    """Operation requires a root system and the input is not one."""


class CarrierTooLarge(EsakiaError):
    """Exact powerset-scale oracle requested on a carrier above its hard cap."""


# --- topology layer ---

class OversizeSubbase(EsakiaError):
    """Subbase over the public cap of distinct sets: the spectrum round trip
    of `verify` materializes the clopen-upset lattice, which grows
    exponentially with the number of points."""


class NotACover(EsakiaError):
    """A family expected to cover the carrier does not."""


class NotOpenAtLevel(EsakiaError):
    """A set is not open in the staged topology at the requested level."""


# --- algebra layer ---

class NotALattice(EsakiaError):
    """A lattice axiom fails; carries the axiom name and a witness tuple."""

    def __init__(self, axiom: str, witness: tuple):
        super().__init__(f"{axiom} fails at {witness}")
        self.axiom = axiom
        self.witness = witness


class NotDistributive(EsakiaError):
    """Distributivity fails at the witness triple."""

    def __init__(self, a: int, b: int, c: int):
        super().__init__(f"a∧(b∨c) ≠ (a∧b)∨(a∧c) at ({a}, {b}, {c})")
        self.witness = (a, b, c)


class NoMaximum(EsakiaError):
    """{a : a∧b ≤ c} has no maximum (unreachable for valid distributive input)."""


# --- duality layer ---

class DualityFailure(EsakiaError):
    """A canonical double-dual map failed to be an isomorphism (bug signal)."""


class HornMismatch(EsakiaError):
    """Gödel-equation check and root-system check disagreed (bug signal)."""


# --- constructions layer ---

class LimitHeightUnsupported(EsakiaError):
    """A limit-ordinal branch was requested; finite heights never reach one."""


class ClimbOutsideSet(EsakiaError):
    """Witness extraction precondition failed: the climbed element is not in U."""


class NotComparablePrecondition(EsakiaError):
    """Separation requires x ≰ y but x ≤ y was supplied."""


class NonTermination(EsakiaError):
    """Cover engine exceeded its round budget (bug guard)."""


class ConstructionCheckFailure(EsakiaError):
    """A property the construction guarantees failed to verify (bug signal)."""


# --- documents / cli layer ---

class ParseError(EsakiaError):
    """Malformed toolkit document."""


class UnknownName(EsakiaError):
    """Unknown gallery figure name."""


class SizeCap(EsakiaError):
    """Enumeration requested beyond the supported size."""
