"""Exact permutation groups with deterministic stabilizer chains.

Points are 0-indexed integers.  The product ``p * q`` means "apply p, then q"
(right action), so ``(p * q)(x) == q(p(x))``.  Cycle notation is accepted only
at parse boundaries; everywhere else a permutation is its image sequence.

A ``Permutation`` holds its images as a tuple, and every generator that is
printed or written to JSON is one.  Inside this module a *raw* permutation of
degree at most 256 is a ``bytes`` object of length degree, one image per
byte: composing is ``bytes.translate`` and inverting ``bytes.maketrans``, both
in C, and a ``bytes`` object caches its hash, which the class sets and
processed-pair memos look up.  A byte holds only the points 0..255, so a raw
permutation of a larger degree stays an image tuple, composed through
``operator.itemgetter``.  ``_form`` picks the form from the degree alone, and
every entry that takes outside image sequences (a chain build, ``in``,
``contains_raw``, a normal closure) converts them with ``_raw`` once.  Bytes
and tuples of the same images sort alike, so every least element and sorted
list is the same on either form.

A product p * q is ``apply(p, table(q))``, where ``table(q)`` is q's
*right-operand table*: q padded with the identity to the 256 bytes that
``bytes.translate`` reads, or the image tuple itself.  Whatever multiplies by
the same q many times builds its table once.  A chain takes ``apply`` and
``table`` from its degree when it is made and stores every transversal
inverse as its table, so a sift step is one ``bytes.translate`` with no
Python frame; closing a level builds one table per acting generator, listing
the elements one per transversal element, and a conjugation loop one per
conjugator and one per conjugated element.

Groups are represented by a base and strong generating set.  ``build_group``
builds one at once with a deterministic Schreier-Sims procedure: base points
are taken from an optional hint first and otherwise as the smallest point
moved by the offending residue, so the same generator list always produces
the same chain.  The automorphism search knows a base and strong generating
set already (its branch vertices, and the generators each level found) and
the order (from its own orbits); it hands them to ``group_from_levels``,
whose group builds its chain from those levels only on first use, by one
orbit walk per level (``_Chain.from_levels``), checking the order then.
``order()`` never builds a chain.

Each chain level stores its transversal together with the inverse of every
transversal element (``inverse[q]`` is the inverse of ``transversal[q]``), so
sifting and Schreier generators never invert.  A chain built with base hint
(p0, ..., pk) holds, in its levels from j on, a chain for the stabilizer of
p0..p(j-1); so one build of a pointwise stabilizer memoizes, per group, the
stabilizer of every prefix of its de-duplicated point tuple, and a later
tuple's build starts from the stabilizer of its longest memoized prefix.

A chain also records its *walk list*: generators that each enlarged the
group made by those before them.  It generates the same group.  A
Schreier-Sims chain walks the generators that enlarged the group when they
were added, in order; a chain read off the search's levels walks its strong
generators, deepest level first (on Foster's Aut all 4 generators, on
PG(2,5)'s all 8).  Every question whose answer does not depend on the generating
set walks it: orbits, abelianness, conjugacy classes and a normality test.
The chain of a pointwise stabilizer is built from the generators in their
listed order, which skips those the walk omits, and takes a search group's
top levels first.  What returns generators (a group, a normal closure, a
restriction, an induced action) keeps the caller's list.

Minimal normal subgroups are normal closures of class representatives of
prime order only: by Cauchy's theorem each minimal normal subgroup holds an
element of prime order, and is the normal closure of any of its nontrivial
elements.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass, field
from operator import itemgetter
from typing import NamedTuple

from .errors import (
    GroupTooLarge,
    MalformedPermutation,
    MixedDegree,
    NotASubgroup,
    NotInvariant,
    PointOutOfRange,
)

#: Hard cap on explicit element enumeration (conjugacy classes, socle search).
ENUMERATION_CAP = 10**6


# ---------------------------------------------------------------------------
# raw permutation helpers (internal hot path: no validation, no wrappers)
# ---------------------------------------------------------------------------

#: Largest degree whose raw permutations are bytes; above it they are tuples.
_BYTES_DEGREE = 256
_ID = bytes(range(256))


class _Form(NamedTuple):
    """How raw permutations of one degree are made, multiplied and inverted.

    ``apply(p, table(q))`` is ``p * q``: ``table(q)`` is q's right-operand
    table, and code that multiplies by the same q many times builds it once.
    """

    raw: Callable  # image sequence -> raw permutation
    apply: Callable  # (raw p, table of q) -> raw p * q
    table: Callable  # raw q -> its right-operand table
    inverse: Callable  # raw p -> raw p^-1


def _bytes_inverse(p):
    n = len(p)
    return bytes.maketrans(p, _ID[:n])[:n]


def _tuple_inverse(p):
    inv = [0] * len(p)
    for i, j in enumerate(p):
        inv[j] = i
    return tuple(inv)


# a bytes table is q padded with the identity to the 256 bytes that
# bytes.translate reads; an image tuple is its own table
_BYTES = _Form(bytes, bytes.translate, lambda q: q + _ID[len(q):], _bytes_inverse)
_TUPLES = _Form(tuple, lambda p, table: itemgetter(*p)(table), lambda q: q, _tuple_inverse)


def _form(degree: int) -> _Form:
    """The form of raw permutations of ``degree``: bytes up to
    ``_BYTES_DEGREE``, image tuples above it."""
    return _BYTES if degree <= _BYTES_DEGREE else _TUPLES


def _raw(images):
    """The raw form of an image sequence: bytes up to degree 256, else a tuple."""
    return _form(len(images)).raw(images)


def _compose(p, q):
    """Apply p, then q."""
    form = _form(len(p))
    return form.apply(p, form.table(q))


def _inverse(p):
    return _form(len(p)).inverse(p)


def _conjugate(x, table, gi):
    """g^-1 * x * g, from the right-operand tables ``x`` of x and ``table`` of
    g, and the inverse ``gi`` of g."""
    apply = _form(len(gi)).apply
    return apply(apply(gi, x), table)


def _orbit(gens, seeds) -> set[int]:
    """Closure of the point set ``seeds`` under the image sequences ``gens``."""
    out = set(seeds)
    queue = list(out)
    while queue:
        p = queue.pop()
        for g in gens:
            q = g[p]
            if q not in out:
                out.add(q)
                queue.append(q)
    return out


@dataclass(frozen=True)
class Permutation:
    """A permutation of {0, ..., degree-1} stored as its image tuple."""

    images: tuple[int, ...]

    def __post_init__(self):
        images = tuple(self.images)
        object.__setattr__(self, "images", images)
        n = len(images)
        seen = [False] * n
        for i in images:
            if not isinstance(i, int) or not 0 <= i < n or seen[i]:
                raise MalformedPermutation(f"not a bijection of 0..{n - 1}: {images}")
            seen[i] = True

    @classmethod
    def identity(cls, degree: int) -> Permutation:
        return cls(tuple(range(degree)))

    @classmethod
    def from_cycles(cls, cycles, degree: int) -> Permutation:
        """Build from disjoint-or-not cycles, applied left to right."""
        images = list(range(degree))
        for cycle in cycles:
            if any(not 0 <= p < degree for p in cycle):
                raise PointOutOfRange(f"cycle point outside 0..{degree - 1}: {cycle}")
            prior = list(images)
            mapping = {cycle[i]: cycle[(i + 1) % len(cycle)] for i in range(len(cycle))}
            for i in range(degree):
                images[i] = mapping.get(prior[i], prior[i])
        return cls(tuple(images))

    @property
    def degree(self) -> int:
        return len(self.images)

    def __call__(self, point: int) -> int:
        return self.images[point]

    def __mul__(self, other: Permutation) -> Permutation:
        if len(self.images) != len(other.images):
            raise MixedDegree("cannot compose permutations of different degrees")
        return Permutation(_compose(_raw(self.images), _raw(other.images)))

    def inverse(self) -> Permutation:
        return Permutation(_inverse(_raw(self.images)))

    def is_identity(self) -> bool:
        return all(i == j for i, j in enumerate(self.images))

    def order(self) -> int:
        result = 1
        for cycle in self.cycles():
            result = math.lcm(result, len(cycle))
        return result

    def cycles(self) -> list[tuple[int, ...]]:
        """Nontrivial cycles, each starting at its smallest point."""
        seen = set()
        out = []
        for i in range(len(self.images)):
            if i in seen or self.images[i] == i:
                continue
            cycle = [i]
            j = self.images[i]
            while j != i:
                seen.add(j)
                cycle.append(j)
                j = self.images[j]
            out.append(tuple(cycle))
        return out

    def cycle_string(self) -> str:
        cycles = self.cycles()
        if not cycles:
            return "()"
        return "".join("(" + " ".join(map(str, c)) + ")" for c in cycles)

    def __repr__(self) -> str:
        return f"Permutation({self.cycle_string()}, degree={self.degree})"


def parse_cycle_string(text: str, degree: int) -> Permutation:
    """Parse "(0 1 2)(3 4)" (commas or spaces inside cycles) into a Permutation.

    This is the CLI/file boundary form; library code passes image tuples.
    """
    s = text.strip()
    if s in ("()", ""):
        return Permutation.identity(degree)
    if not (s.startswith("(") and s.endswith(")")):
        raise MalformedPermutation(f"not cycle notation: {text!r}")
    cycles = []
    for part in s[1:-1].split(")("):
        points = [tok for tok in part.replace(",", " ").split() if tok]
        try:
            cycle = [int(tok) for tok in points]
        except ValueError as exc:
            raise MalformedPermutation(f"bad cycle entry in {text!r}") from exc
        if len(set(cycle)) != len(cycle):
            raise MalformedPermutation(f"repeated point in cycle {part!r}")
        if cycle:
            cycles.append(cycle)
    return Permutation.from_cycles(cycles, degree)


# ---------------------------------------------------------------------------
# stabilizer chain
# ---------------------------------------------------------------------------

class _Level:
    __slots__ = ("point", "gens", "transversal", "inverse", "processed")

    def __init__(self, point: int, identity, identity_table, gens=()):
        self.point = point
        self.gens = list(gens)  # strong generators installed at this level
        # transversal[q] = t with t[point] == q; inverse[q] is the table of
        # t's inverse
        self.transversal = {point: identity}
        self.inverse = {point: identity_table}
        self.processed = set()  # (orbit point, raw generator) pairs already closed


class _Chain:
    """Base + strong generating set, built incrementally and deterministically.

    Level i holds the strong generators known to fix base[0..i-1]; the set
    acting at level i is the union of the generators of levels >= i.  After
    every public mutation the full strong-generating property holds: each
    basic orbit is closed under its level's acting set and every Schreier
    generator sifts to the identity.  At every level, ``inverse`` has the
    keys of ``transversal`` and ``inverse[q]`` is the right-operand table of
    the inverse of ``transversal[q]``.

    The chain takes ``apply`` and ``table`` from its degree's form when it is
    made, so ``apply(g, table(q))`` is ``g * q``.
    """

    def __init__(self, degree: int, base_hint=()):
        self.degree = degree
        form = _form(degree)
        self.apply = form.apply
        self.table = form.table
        self.identity = form.raw(range(degree))
        self.levels = []
        self.walk = []  # the generators that enlarged the group, in order
        for b in base_hint:
            if not 0 <= b < degree:
                raise PointOutOfRange(f"base point {b} outside 0..{degree - 1}")
            if all(lvl.point != b for lvl in self.levels):
                self._add_level(b)

    @classmethod
    def from_levels(cls, degree: int, levels, order: int) -> _Chain:
        """The chain on ``levels``, top-down, whose points are a base and
        whose generators a strong generating set for a group of ``order``
        elements: each level's generators fix the points above it, and those
        of a level and every deeper one make the stabilizer of those points.

        Deepest level first, a level whose transversal holds its point alone
        is filled by one walk of its point's orbit under
        ``gens_from_level(k)``.  A level of a complete chain has closed its
        orbit already, and one of length 1 has its point fixed by every
        acting generator, so neither is walked again.  Levels whose orbit has
        length 1 are left out, as Schreier-Sims leaves them out.  Raises
        AssertionError unless the orbit lengths multiply to ``order``.  The
        walk list is the strong generators, deepest level first.
        """
        chain = cls(degree)
        apply, table = chain.apply, chain.table
        tables = {}
        acting = []  # gens_from_level(k) of the level being walked
        kept = []
        for lvl in reversed(levels):
            acting = lvl.gens + acting
            point, transversal, inverse = lvl.point, lvl.transversal, lvl.inverse
            if len(transversal) == 1 and any(g[point] != point for g in acting):
                for g in acting:
                    if g not in tables:
                        tables[g] = table(g)
                pairs = [(g, tables[g]) for g in acting]
                queue = [point]
                for p in queue:  # walked while it grows
                    t = transversal[p]
                    for g, g_table in pairs:
                        q = g[p]
                        if q not in transversal:
                            transversal[q] = t_q = apply(t, g_table)
                            inverse[q] = table(_inverse(t_q))
                            queue.append(q)
            if len(transversal) > 1:
                kept.append(lvl)
        chain.levels = kept[::-1]
        chain.walk = [g for lvl in kept for g in lvl.gens]
        if chain.order() != order:
            raise AssertionError(f"stabilizer chain has order {chain.order()}, expected {order}")
        return chain

    def _add_level(self, point: int) -> None:
        self.levels.append(_Level(point, self.identity, self.table(self.identity)))

    def sift(self, g, start: int = 0):
        """Strip g through the chain; return (residue, first failing level)."""
        apply = self.apply
        levels = self.levels
        for i in range(start, len(levels)):
            lvl = levels[i]
            p = g[lvl.point]
            if p == lvl.point:
                continue
            t_inv = lvl.inverse.get(p)
            if t_inv is None:
                return g, i
            g = apply(g, t_inv)
        return g, len(levels)

    def contains(self, g) -> bool:
        residue, _ = self.sift(g)
        return residue == self.identity

    def order(self) -> int:
        result = 1
        for lvl in self.levels:
            result *= len(lvl.transversal)
        return result

    def gens_from_level(self, k: int) -> list:
        return [g for lvl in self.levels[k:] for g in lvl.gens]

    def add_generator(self, g, target=None) -> bool:
        """Grow the chain by g; False (and no change) when g is already in it.

        ``target``, when given, is the order of the group the chain's
        generators make, known in advance: the chain is complete once its
        order reaches it (``_reestablish``)."""
        if g == self.identity or self.contains(g):
            return False
        self.walk.append(g)
        self._append(g, 0)
        self._reestablish(target)
        return True

    def _complete(self, target) -> bool:
        return target is not None and self.order() == target

    def _append(self, g, k: int) -> None:
        if k == len(self.levels):
            # a residue that sifted through every level fixes every base
            # point; one that does not means corrupted transversals, and
            # installing it could grow the chain forever
            point = min(p for p in range(self.degree) if g[p] != p)
            if any(lvl.point == point for lvl in self.levels):
                raise AssertionError("residue moves a base point")
            self._add_level(point)
        self.levels[k].gens.append(g)

    def _reestablish(self, target=None) -> None:
        """Walk the levels deepest-first until every one is closed and sifted.

        Installing a residue at level k dirties levels <= k, so the walk jumps
        down to k and then climbs back up; fully processed levels are cheap to
        revisit thanks to the per-level processed-pair memo.  Every install
        either grows a basic orbit or adds a level with a new point (``_append``
        refuses anything else), so the walk ends after at most
        degree * (degree + 1) installs.

        The walk also stops once the order reaches ``target``.  Each basic
        orbit grown so far lies inside the true basic orbit of the group at
        that level, so their product reaches the group's order only when every
        one is whole; from then on no orbit grows and every Schreier generator
        left sifts to the identity, so stopping leaves the chain as it is.
        """
        i = len(self.levels) - 1
        while i >= 0 and not self._complete(target):
            installed_at = self._process_level(i, target)
            if installed_at is None:
                i -= 1
            else:
                i = installed_at

    def _process_level(self, i: int, target=None):
        """Close the basic orbit at level i and sift its Schreier generators.

        Installs the first non-member residue at its sift level k > i and
        returns k; returns None once the level is fully processed, or once
        the chain's order reaches ``target``.
        """
        lvl = self.levels[i]
        gens = self.gens_from_level(i)
        apply, table = self.apply, self.table
        tables = {s: table(s) for s in gens}
        processed = lvl.processed
        transversal = lvl.transversal
        inverse = lvl.inverse
        pending = [
            (p, s) for p in list(transversal) for s in gens if (p, s) not in processed
        ]
        while pending:
            p, s = pending.pop()
            if (p, s) in processed:
                continue
            processed.add((p, s))
            q = s[p]
            t_ps = apply(transversal[p], tables[s])
            t_q_inv = inverse.get(q)
            if t_q_inv is None:
                transversal[q] = t_ps
                inverse[q] = table(_inverse(t_ps))
                if self._complete(target):
                    return None
                pending.extend((q, g) for g in gens if (q, g) not in processed)
            else:
                schreier = apply(t_ps, t_q_inv)
                if schreier != self.identity:
                    residue, k = self.sift(schreier, i + 1)
                    if residue != self.identity:
                        self._append(residue, k)
                        return k
        return None


def _build_chain(degree: int, gens, base_hint=(), target=None) -> _Chain:
    """The chain of the image sequences ``gens``, each converted by ``_raw``.

    ``target`` is the order of the group ``gens`` make, when it is known
    from a chain already checked; the build then stops as soon as the order
    reaches it, with the chain it would have ended with.
    """
    chain = _Chain(degree, base_hint)
    raw_gens = [_raw(g) for g in gens]
    for g in raw_gens:
        chain.add_generator(g, target)
    for g in raw_gens:
        assert chain.contains(g), "stabilizer chain failed to absorb a generator"
    return chain


# ---------------------------------------------------------------------------
# groups
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PermGroup:
    """A finite permutation group on {0, ..., degree-1} with ``_order``
    elements.

    Its stabilizer chain is ``_cache["chain"]``.  A group from
    ``group_from_levels`` holds its base points and strong generators as
    ``_cache["levels"]`` instead, and builds its chain from them on first use
    (``_Chain.from_levels``), raising AssertionError if the chain's order is
    not ``_order``.
    """

    degree: int
    generators: tuple[Permutation, ...]
    _order: int = field(compare=False, repr=False, hash=False)
    _cache: dict = field(default_factory=dict, compare=False, repr=False, hash=False)

    @property
    def _chain(self) -> _Chain:
        chain = self._cache.get("chain")
        if chain is None:
            form = _form(self.degree)
            identity = form.raw(range(self.degree))
            identity_table = form.table(identity)
            levels = [
                _Level(point, identity, identity_table, map(form.raw, gens))
                for point, gens in self._cache["levels"]
            ]
            chain = _Chain.from_levels(self.degree, levels, self._order)
            self._cache["chain"] = chain
        return chain

    def order(self) -> int:
        return self._order

    def __contains__(self, perm: Permutation) -> bool:
        if perm.degree != self.degree:
            return False
        return self._chain.contains(_raw(perm.images))

    def contains_raw(self, images) -> bool:
        """Membership of an image sequence (tuple, list or raw)."""
        return self._chain.contains(_raw(images))

    def base(self) -> tuple[int, ...]:
        return tuple(lvl.point for lvl in self._chain.levels)

    def basic_orbit_sizes(self) -> tuple[int, ...]:
        return tuple(len(lvl.transversal) for lvl in self._chain.levels)

    def walk(self) -> list:
        """Raw images (bytes up to degree 256, else tuples) of generators
        that each enlarged the group made by those before them, making the
        same group.  A group built from its generators walks a subsequence of
        them; one from ``group_from_levels`` walks all of them, its strong
        generators, deepest level first.  (A stabilizer read off another
        group's chain walks all its strong generators, deepest level first,
        and not each of those need enlarge the group.)"""
        return self._chain.walk

    # -- element access ----------------------------------------------------

    def elements(self) -> list[Permutation]:
        return [Permutation(t) for t in self.raw_elements()]

    def raw_elements(self) -> list:
        """All elements as raw images (bytes up to degree 256, else tuples),
        deterministically ordered.

        Raises GroupTooLarge above ENUMERATION_CAP elements.
        """
        if "elements" in self._cache:
            return self._cache["elements"]
        if self.order() > ENUMERATION_CAP:
            raise GroupTooLarge(f"order {self.order()} exceeds cap {ENUMERATION_CAP}")
        chain = self._chain
        apply, table = chain.apply, chain.table
        out = [chain.identity]
        for lvl in reversed(chain.levels):
            tables = [table(lvl.transversal[p]) for p in sorted(lvl.transversal)]
            out = [apply(deep, t) for t in tables for deep in out]
        assert len(out) == self.order()
        self._cache["elements"] = out
        return out

    # -- orbits ------------------------------------------------------------

    def orbit(self, point: int) -> frozenset[int]:
        if not 0 <= point < self.degree:
            raise PointOutOfRange(f"point {point} outside 0..{self.degree - 1}")
        return frozenset(_orbit(self.walk(), (point,)))

    def is_transitive(self) -> bool:
        """True iff the points 0..degree-1 form one orbit."""
        return len(self.orbit(0)) == self.degree

    def is_abelian(self) -> bool:
        gens = self.walk()
        return all(
            _compose(a, b) == _compose(b, a)
            for i, a in enumerate(gens)
            for b in gens[i + 1:]
        )

    # -- serialization -----------------------------------------------------

    def to_json(self) -> dict:
        return {
            "degree": self.degree,
            "generators": [list(g.images) for g in self.generators],
        }

    def __repr__(self) -> str:
        return f"PermGroup(degree={self.degree}, order={self.order()}, ngens={len(self.generators)})"


def build_group(generators, *, degree: int | None = None) -> PermGroup:
    """Build a group (with verified stabilizer chain) from a generator list.

    ``generators`` may contain Permutation objects or plain image sequences.
    An explicit ``degree`` is required when the list is empty.
    """
    perms = []
    for g in generators:
        if not isinstance(g, Permutation):
            g = Permutation(tuple(g))
        perms.append(g)
    degrees = {g.degree for g in perms}
    if len(degrees) > 1:
        raise MixedDegree(f"generator degrees differ: {sorted(degrees)}")
    if degrees:
        inferred = degrees.pop()
        if degree is not None and degree != inferred:
            raise MixedDegree(f"stated degree {degree} != generator degree {inferred}")
        degree = inferred
    if degree is None:
        raise MixedDegree("empty generator list needs an explicit degree")
    if degree < 1:
        raise PointOutOfRange("degree must be at least 1")
    perms = [g for g in perms if not g.is_identity()]
    chain = _build_chain(degree, [g.images for g in perms])
    return PermGroup(degree, tuple(perms), chain.order(), {"chain": chain})


def group_from_json(data: dict) -> PermGroup:
    """Inverse of PermGroup.to_json; generator entries may be cycle strings.
    JSON's true and false are no degrees or points, though Python reads them
    as 1 and 0, so a boolean degree or image raises TypeError."""
    degree = data["degree"]
    if type(degree) is bool:
        raise TypeError("a group's degree must be an integer, not a boolean")
    gens = []
    for entry in data.get("generators", []):
        if isinstance(entry, str):
            gens.append(parse_cycle_string(entry, degree))
            continue
        images = tuple(entry)
        if any(type(x) is bool for x in images):
            raise TypeError("permutation images must be integers, not booleans")
        gens.append(Permutation(images))
    return build_group(gens, degree=degree)


def group_from_levels(degree: int, levels, order: int) -> PermGroup:
    """The group of ``order`` elements with a known base and strong
    generating set: ``levels`` lists, top-down, each base point with the
    image sequences of the strong generators installed at it.  Each of
    those fixes the points above it, and those of a level and every deeper
    one make the stabilizer of those points.

    The generators are the levels', top-down.  The group keeps ``levels``
    and builds its chain from them on first use (``_Chain.from_levels``),
    which asserts that their orbits multiply to ``order``; ``order()``
    never builds it.
    """
    gens = tuple(Permutation(g) for _, level_gens in levels for g in level_gens)
    return PermGroup(degree, gens, order, {"levels": levels})


def _group_from_chain(degree: int, raw_gens, chain: _Chain) -> PermGroup:
    return PermGroup(degree, tuple(Permutation(g) for g in raw_gens), chain.order(), {"chain": chain})


# ---------------------------------------------------------------------------
# module-level operations
# ---------------------------------------------------------------------------

def orbits(group: PermGroup) -> list[tuple[int, ...]]:
    """Orbit partition of all points, sorted by minimum."""
    gens = group.walk()
    seen = set()
    cells = []
    for p in range(group.degree):
        if p in seen:
            continue
        cell = _orbit(gens, (p,))
        seen |= cell
        cells.append(tuple(sorted(cell)))
    return cells


def pointwise_stabilizer(group: PermGroup, points) -> PermGroup:
    """Subgroup fixing every point of ``points`` (in order).

    Stabilizers are memoized in ``group._cache`` per prefix of the
    de-duplicated point tuple, and every build memoizes each prefix it
    passes, so the memoized prefixes of a tuple are its first j for some j.
    A new tuple's chain is built below the longest one, from that
    stabilizer's strong generators, not from the whole group.
    """
    pts = tuple(dict.fromkeys(points))  # first occurrences, in order
    for p in pts:
        if not 0 <= p < group.degree:
            raise PointOutOfRange(f"point {p} outside 0..{group.degree - 1}")
    if not pts:
        return group
    cache = group._cache
    key = ("stabilizer", pts)
    if key in cache:
        return cache[key]
    j = len(pts) - 1
    while j and ("stabilizer", pts[:j]) not in cache:
        j -= 1
    below = cache[("stabilizer", pts[:j])] if j else group
    # ``below``'s chain is built and checked here, so its order is known and
    # the build may stop once it is reached.  The build takes the generators
    # in their listed order, and one in the group made by those before it is
    # sifted and skipped.  A search group's walk lists its deepest levels
    # first, each generator enlarging the chain being built; listed
    # top-down, the first ones reach most of the order (K32,32's
    # transitivity_degrees took 0.77 s from the walk, 0.34 s from the
    # generators)
    order = below._chain.order()
    chain = _build_chain(
        group.degree, [g.images for g in below.generators], base_hint=pts[j:], target=order
    )
    for i in range(1, len(pts) - j + 1):
        # the chain's levels below the first i new base points are a chain of
        # their own, with every orbit closed already
        order //= len(chain.levels[i - 1].transversal)
        sub = _Chain.from_levels(group.degree, chain.levels[i:], order)
        gens = chain.gens_from_level(i)
        cache[("stabilizer", pts[: j + i])] = _group_from_chain(group.degree, gens, sub)
    return cache[key]


def normal_test_and_closure(group: PermGroup, subgroup) -> tuple[bool, PermGroup]:
    """(is H normal in G, normal closure of H in G).

    ``subgroup`` is a PermGroup or an iterable of Permutation.  Raises
    NotASubgroup when some element of H fails membership in G.
    """
    if isinstance(subgroup, PermGroup):
        perms = subgroup.generators
        degree = subgroup.degree
    else:
        perms = [g if isinstance(g, Permutation) else Permutation(tuple(g)) for g in subgroup]
        degree = perms[0].degree if perms else group.degree
    if degree != group.degree:
        raise MixedDegree("subgroup degree differs from group degree")
    h_gens = [_raw(g.images) for g in perms]
    for g in h_gens:
        if not group.contains_raw(g):
            raise NotASubgroup(f"element {Permutation(g).cycle_string()} is not in G")

    # one chain: H's chain tests normality and, unless H is normal (then it is
    # already the closure's), grows into the closure's
    chain = _build_chain(group.degree, h_gens)
    table = chain.table
    g_walk = [(table(g), _inverse(g)) for g in group.walk()]
    h_tables = [table(h) for h in chain.walk]
    if all(chain.contains(_conjugate(h, g, gi)) for h in h_tables for g, gi in g_walk):
        return True, _group_from_chain(group.degree, h_gens, chain)

    # the closure's generators are printed (a quasiprimitivity witness, a
    # minimal normal subgroup), so they are the conjugates by every generator
    # of G in order, not by the walk list
    g_raw = [_raw(g.images) for g in group.generators]
    g_gens = [(table(g), _inverse(g)) for g in g_raw]
    closure_gens = list(h_gens)
    queue = list(h_gens)
    while queue:
        x = table(queue.pop())
        for g, gi in g_gens:
            c = _conjugate(x, g, gi)
            if chain.add_generator(c):
                closure_gens.append(c)
                queue.append(c)
    return False, _group_from_chain(group.degree, closure_gens, chain)


def conjugacy_class_representatives(group: PermGroup) -> list[Permutation]:
    """One representative per conjugacy class (the lexicographically least element)."""
    if "class_reps" in group._cache:
        return group._cache["class_reps"]
    elements = group.raw_elements()  # GroupTooLarge above ENUMERATION_CAP
    table = group._chain.table
    gens = [(table(g), _inverse(g)) for g in group.walk()]
    unseen = set(elements)
    reps = []
    for e in elements:  # deterministic: enumeration order
        if e not in unseen:
            continue
        cls = {e}
        queue = [e]
        while queue:
            x = table(queue.pop())
            for g, gi in gens:
                y = _conjugate(x, g, gi)
                if y not in cls:
                    cls.add(y)
                    queue.append(y)
        unseen -= cls
        reps.append(Permutation(min(cls)))
    group._cache["class_reps"] = reps
    return reps


def is_subgroup_of(sub: PermGroup, group: PermGroup) -> bool:
    return sub.degree == group.degree and all(
        group.contains_raw(g.images) for g in sub.generators
    )


def same_group(a: PermGroup, b: PermGroup) -> bool:
    return a.order() == b.order() and is_subgroup_of(a, b)


def _is_prime(k: int) -> bool:
    return k > 1 and all(k % d for d in range(2, math.isqrt(k) + 1))


def normal_structure(group: PermGroup) -> tuple[list[PermGroup], PermGroup]:
    """(minimal normal subgroups, socle).

    Every minimal normal subgroup M holds an element of prime order (Cauchy),
    so a conjugate of it among the class representatives, and M is the
    normal closure of each of its nontrivial elements: the minimal normal
    subgroups are the inclusion-minimal closures of prime-order
    representatives.  Each M is named by the closure of its first
    nontrivial representative in listing order, prime or not, so its
    generator list does not depend on which classes were closed.
    """
    if "normal_structure" in group._cache:
        return group._cache["normal_structure"]
    if group.order() == 1:
        result = ([], build_group([], degree=group.degree))
        group._cache["normal_structure"] = result
        return result

    reps = conjugacy_class_representatives(group)
    closures: list[tuple[Permutation, PermGroup]] = []
    for rep in reps:
        if not _is_prime(rep.order()):
            continue
        _, closure = normal_test_and_closure(group, [rep])
        if not any(same_group(closure, c) for _, c in closures):
            closures.append((rep, closure))
    minimal = []
    for rep, c in closures:
        if any(other.order() < c.order() and is_subgroup_of(other, c) for _, other in closures):
            continue
        first = next(r for r in reps if not r.is_identity() and c.contains_raw(r.images))
        if first != rep:
            _, c = normal_test_and_closure(group, [first])
        minimal.append(c)
    minimal.sort(key=lambda g: (g.order(), tuple(p.images for p in g.generators)))
    socle_gens = [g for m in minimal for g in m.generators]
    socle = build_group(socle_gens, degree=group.degree)
    result = (minimal, socle)
    group._cache["normal_structure"] = result
    return result


def is_semiregular(group: PermGroup) -> bool:
    """True iff every point stabilizer is trivial, i.e. (orbit-stabilizer)
    every orbit has |G| points."""
    order = group.order()
    return all(len(cell) == order for cell in orbits(group))


def restriction(group: PermGroup, points) -> tuple[PermGroup, bool]:
    """Action of ``group`` on an invariant point set, relabeled to 0..k-1.

    Returns (restricted group, faithful flag); ``points`` keeps its order as
    the relabeling.  The action is faithful iff its image is as large as G.
    """
    pts = list(points)
    index = {p: i for i, p in enumerate(pts)}
    if len(index) != len(pts):
        raise PointOutOfRange("restriction points must be distinct")
    gens = []
    for g in group.generators:
        images = [0] * len(pts)
        for p in pts:
            q = g.images[p]
            if q not in index:
                raise PointOutOfRange(f"point set is not invariant: {p} -> {q}")
            images[index[p]] = index[q]
        gens.append(Permutation(tuple(images)))
    restricted = build_group(gens, degree=max(1, len(pts)))
    return restricted, restricted.order() == group.order()


def induced_action(group: PermGroup, blocks) -> tuple[PermGroup, PermGroup]:
    """Action of G on the cells of a G-invariant partition.

    Returns (quotient_group acting on cell indices, kernel acting on points).
    ``blocks`` must partition {0, ..., degree-1}; cell order is preserved.
    """
    cells = [tuple(sorted(c)) for c in blocks]
    n = group.degree
    block_of = [-1] * n
    for idx, cell in enumerate(cells):
        for p in cell:
            if not 0 <= p < n:
                raise PointOutOfRange(f"block point {p} outside 0..{n - 1}")
            if block_of[p] != -1:
                raise ValueError(f"point {p} appears in two cells")
            block_of[p] = idx
    if any(b == -1 for b in block_of):
        raise ValueError("blocks must cover every point")

    b = len(cells)
    cell_sets = [frozenset(c) for c in cells]
    quotient_gens = []
    combined_gens = []
    for g in group.generators:
        images = [-1] * b
        for idx, cell in enumerate(cells):
            target = block_of[g.images[cell[0]]]
            if any(block_of[g.images[p]] != target for p in cell):
                raise NotInvariant(
                    f"generator {g.cycle_string()} splits cell {cells[idx]}"
                )
            if len(cell) != len(cell_sets[target]):
                raise NotInvariant(
                    f"generator {g.cycle_string()} maps cell {cells[idx]} onto a smaller cell"
                )
            images[idx] = target
        quotient_gens.append(tuple(images))
        combined_gens.append(tuple(g.images) + tuple(n + i for i in images))

    quotient = build_group([Permutation(q) for q in quotient_gens], degree=b)
    # kernel = pointwise stabilizer of the cell-index points in the combined action
    combined_chain = _build_chain(n + b, combined_gens, base_hint=range(n, n + b))
    kept = min(b, len(combined_chain.levels))
    kernel_raw = [g[:n] for g in combined_chain.gens_from_level(kept)]
    kernel = build_group([Permutation(k) for k in kernel_raw], degree=n)
    assert quotient.order() * kernel.order() == group.order()
    return quotient, kernel
