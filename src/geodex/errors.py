"""Exception types raised across the toolkit.

Every error that a caller can meaningfully catch has its own class; generic
programmer errors (bad argument shapes and the like) stay ValueError/TypeError.
"""


class GeodexError(Exception):
    """Base class for all toolkit-specific errors."""


# --- command line ---------------------------------------------------------

class BadInputFile(GeodexError):
    """An input file is missing or unreadable, or its content is malformed."""


class BadOption(GeodexError):
    """A command-line option value is malformed or out of range."""


# --- permutation groups ---------------------------------------------------

class MalformedPermutation(GeodexError):
    """Image list is not a bijection of {0, ..., degree-1}."""


class MixedDegree(GeodexError):
    """Generators of different degrees were combined."""


class PointOutOfRange(GeodexError):
    """A point lies outside {0, ..., degree-1}."""


class NotASubgroup(GeodexError):
    """An element of the claimed subgroup fails membership in the group."""


class GroupTooLarge(GeodexError):
    """Group order exceeds the element-enumeration cap."""


class NotInvariant(GeodexError):
    """A generator does not permute the cells of the given partition."""


# --- graphs ---------------------------------------------------------------

class LoopEdge(GeodexError):
    """An edge joins a vertex to itself."""


class VertexOutOfRange(GeodexError):
    """An edge endpoint lies outside {0, ..., n-1}."""


class Disconnected(GeodexError):
    """Operation requires a connected graph."""


class NotRegular(GeodexError):
    """Operation requires a regular graph."""


class NotCubic(GeodexError):
    """LCF decoding did not produce a cubic graph."""


class BadHeader(GeodexError):
    """graph6/sparse6 text is not well-formed."""


class TruncatedPayload(GeodexError):
    """graph6/sparse6 payload is shorter than the vertex count demands."""


# --- symmetry -------------------------------------------------------------

class GraphTooLarge(GeodexError):
    """Graph exceeds the automorphism-search vertex cap."""


class NotAutomorphisms(GeodexError):
    """A supplied group generator is not an automorphism of the graph."""


class NotVertexTransitive(GeodexError):
    """Operation requires a vertex-transitive action."""


class NotTransitive(GeodexError):
    """Operation requires a transitive group."""


class ValencyNotPrimePowerPlusOne(GeodexError):
    """Valency is not q+1 for a prime power q."""


class PreconditionUnverified(GeodexError):
    """A stated hypothesis of the requested check could not be verified."""

    def __init__(self, premise: str, detail: str = ""):
        self.premise = premise
        self.detail = detail
        message = premise if not detail else f"{premise}: {detail}"
        super().__init__(message)


# --- quotients ------------------------------------------------------------

class NormalityFails(GeodexError):
    """N is not normal in G."""


class NTransitive(GeodexError):
    """N is transitive, so the quotient collapses to a single vertex."""


class NotACycle(GeodexError):
    """The supplied block sequence is not a cycle of the quotient graph."""


class CycleTooLong(GeodexError):
    """Cycle length is at least the girth of the cover; the profile is vacuous."""


# --- atlas ----------------------------------------------------------------

class UnknownName(GeodexError):
    """No catalog entry under this name."""


class UnsupportedQ(GeodexError):
    """No field table / construction for this prime power."""


class UnsupportedP(GeodexError):
    """Unsupported prime parameter."""


class GInH(GeodexError):
    """Coset graph element g lies in H."""


class NotSelfPaired(GeodexError):
    """HgH is not equal to Hg^{-1}H, so the coset graph would be directed."""


class NotGenerated(GeodexError):
    """H together with g does not generate G (coset graph disconnected)."""
