"""Named graphs, finite fields, incidence geometries, coset graphs, and the
catalog.

Every catalog record carries expected invariants; the cheap ones (valency,
girth, diameter, intersection array) are re-verified when the record is
built, the group-theoretic ones on demand via ``NamedGraphRecord.validate``
or ``NamedGraphRecord.mismatches``.  The catalog holds named graphs and four
parameterized families, K{n},{n}, C{n}, PG(2,q) and W(q), whose rows are
closed forms in the parameter.
"""

from __future__ import annotations

import json
import math
import os
import pathlib
import re
from dataclasses import asdict, dataclass
from importlib import resources

from . import graph as graphmod
from . import perm as permmod
from . import symmetry as symmod
from .errors import (
    BadInputFile,
    GeodexError,
    GInH,
    GraphTooLarge,
    NotASubgroup,
    NotGenerated,
    NotSelfPaired,
    UnknownName,
    UnsupportedP,
    UnsupportedQ,
)
from .graph import Graph, build_graph
from .perm import PermGroup, Permutation, build_group


class AtlasValidationError(GeodexError):
    """A catalog record failed to reproduce one of its expected invariants."""


# ---------------------------------------------------------------------------
# finite fields
# ---------------------------------------------------------------------------

# fixed irreducible polynomials, coefficients from the constant term up
_IRREDUCIBLE = {
    (2, 2): (1, 1, 1),        # x^2 + x + 1
    (2, 3): (1, 1, 0, 1),     # x^3 + x + 1
    (2, 4): (1, 1, 0, 0, 1),  # x^4 + x + 1
    (3, 2): (2, 1, 1),        # x^2 + x + 2
}

_MAX_Q = 16


@dataclass(frozen=True)
class FiniteField:
    """GF(p^e) for q <= 16, backed by exhaustively verified element tables.

    Elements are integers 0..q-1 encoding coefficient vectors base p
    (element sum c_i x^i maps to sum c_i p^i); 0 and 1 are the field's zero
    and one.
    """

    p: int
    e: int
    q: int
    add_table: tuple[tuple[int, ...], ...]
    mul_table: tuple[tuple[int, ...], ...]

    def add(self, a: int, b: int) -> int:
        return self.add_table[a][b]

    def mul(self, a: int, b: int) -> int:
        return self.mul_table[a][b]

    def neg(self, a: int) -> int:
        return next(b for b in range(self.q) if self.add_table[a][b] == 0)

    def sub(self, a: int, b: int) -> int:
        return self.add(a, self.neg(b))

    def inv(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError("0 has no inverse")
        return next(b for b in range(self.q) if self.mul_table[a][b] == 1)

    def elements(self) -> range:
        return range(self.q)


def _coeffs(value: int, p: int, e: int) -> list[int]:
    out = []
    for _ in range(e):
        out.append(value % p)
        value //= p
    return out


def _encode(coeffs, p: int) -> int:
    value = 0
    for c in reversed(coeffs):
        value = value * p + c
    return value


def _poly_mul_mod(a, b, modulus, p):
    prod = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                prod[i + j] = (prod[i + j] + ai * bj) % p
    deg = len(modulus) - 1
    for i in range(len(prod) - 1, deg - 1, -1):
        if prod[i]:
            lead = prod[i]
            for j, mj in enumerate(modulus):
                prod[i - deg + j] = (prod[i - deg + j] - lead * mj) % p
    return [c % p for c in prod[:deg]] + [0] * max(0, deg - len(prod))


def _verify_field(field: FiniteField) -> None:
    q = field.q
    add, mul = field.add_table, field.mul_table
    for a in range(q):
        if sorted(add[a]) != list(range(q)):
            raise AssertionError("addition is not a group operation")
        if a and sorted(mul[a][1:]) != list(range(1, q)) or mul[a][0] != 0:
            raise AssertionError("multiplication is broken")
    for a in range(q):
        for b in range(q):
            if add[a][b] != add[b][a] or mul[a][b] != mul[b][a]:
                raise AssertionError("commutativity fails")
            for c in range(q):
                if add[add[a][b]][c] != add[a][add[b][c]]:
                    raise AssertionError("additive associativity fails")
                if mul[mul[a][b]][c] != mul[a][mul[b][c]]:
                    raise AssertionError("multiplicative associativity fails")
                if mul[a][add[b][c]] != add[mul[a][b]][mul[a][c]]:
                    raise AssertionError("distributivity fails")


_FIELD_CACHE: dict[int, FiniteField] = {}


def finite_field(q: int) -> FiniteField:
    """GF(q) for a prime power q <= 16 (UnsupportedQ otherwise)."""
    if q in _FIELD_CACHE:
        return _FIELD_CACHE[q]
    if not 2 <= q <= _MAX_Q:
        raise UnsupportedQ(f"no field table for q={q}")
    pf = symmod._prime_power(q)
    if pf is None:
        raise UnsupportedQ(f"{q} is not a prime power")
    p, e = pf
    if e == 1:
        add = tuple(tuple((a + b) % p for b in range(p)) for a in range(p))
        mul = tuple(tuple((a * b) % p for b in range(p)) for a in range(p))
    else:
        modulus = _IRREDUCIBLE[(p, e)]
        add = tuple(
            tuple(
                _encode([(x + y) % p for x, y in zip(_coeffs(a, p, e), _coeffs(b, p, e))], p)
                for b in range(q)
            )
            for a in range(q)
        )
        mul = tuple(
            tuple(
                _encode(_poly_mul_mod(_coeffs(a, p, e), _coeffs(b, p, e), modulus, p), p)
                for b in range(q)
            )
            for a in range(q)
        )
    field = FiniteField(p, e, q, add, mul)
    _verify_field(field)
    _FIELD_CACHE[q] = field
    return field


# ---------------------------------------------------------------------------
# incidence geometries
# ---------------------------------------------------------------------------

def _normalize(vec, field: FiniteField):
    """Scale a nonzero vector so its first nonzero coordinate is 1."""
    for c in vec:
        if c:
            scale = field.inv(c)
            return tuple(field.mul(scale, x) for x in vec)
    raise ValueError("zero vector has no projective representative")


def _projective_points(dim: int, field: FiniteField) -> list[tuple[int, ...]]:
    points = set()
    for value in range(1, field.q**dim):
        vec = tuple(_coeffs(value, field.q, dim))
        points.add(_normalize(vec, field))
    return sorted(points)


_PG2_SUPPORTED = (2, 3, 4, 5, 7, 8, 9)


def pg2_incidence(q: int) -> Graph:
    """Point-line incidence graph of the projective plane PG(2, q).

    Vertices 0..N-1 are the points (sorted normalized triples), N..2N-1 the
    lines; valency q+1, girth 6, diameter 3.
    """
    if q not in _PG2_SUPPORTED:
        raise UnsupportedQ(f"pg2_incidence supports q in {_PG2_SUPPORTED}")
    field = finite_field(q)
    points = _projective_points(3, field)
    n = len(points)
    assert n == q * q + q + 1
    edges = []
    for i, x in enumerate(points):
        for j, a in enumerate(points):
            total = 0
            for xc, ac in zip(x, a):
                total = field.add(total, field.mul(xc, ac))
            if total == 0:
                edges.append((i, n + j))
    return build_graph(2 * n, edges)


_SP4_SUPPORTED = (2, 3, 4)


def symplectic_quadrangle(q: int) -> Graph:
    """Incidence graph of the symplectic generalized quadrangle W(q).

    Points are all projective points of PG(3, q); lines are the totally
    isotropic lines of the alternating form x0 y1 - x1 y0 + x2 y3 - x3 y2.
    2 (q+1)(q^2+1) vertices, valency q+1, girth 8, diameter 4.
    """
    if q not in _SP4_SUPPORTED:
        raise UnsupportedQ(f"symplectic_quadrangle supports q in {_SP4_SUPPORTED}")
    field = finite_field(q)
    points = _projective_points(4, field)
    index = {pt: i for i, pt in enumerate(points)}
    n = len(points)
    assert n == (q + 1) * (q * q + 1)

    def form(x, y):
        term = lambda a, b: field.mul(a, b)
        v = field.sub(term(x[0], y[1]), term(x[1], y[0]))
        w = field.sub(term(x[2], y[3]), term(x[3], y[2]))
        return field.add(v, w)

    # two points span at most one line, so a pair already on a line found
    # earlier is skipped: each line is spanned once, not once per point pair
    lines = []
    joined = [set() for _ in range(n)]
    for i, u in enumerate(points):
        for j in range(i + 1, n):
            v = points[j]
            if j in joined[i] or form(u, v):
                continue
            cell = set()
            for a in field.elements():
                for b in field.elements():
                    if a == 0 and b == 0:
                        continue
                    vec = tuple(
                        field.add(field.mul(a, uc), field.mul(b, vc))
                        for uc, vc in zip(u, v)
                    )
                    cell.add(_normalize(vec, field))
            line = {index[pt] for pt in cell}
            lines.append(line)
            for pt in line:
                joined[pt] |= line
    lines = sorted(lines, key=sorted)
    assert len(lines) == (q + 1) * (q * q + 1)
    edges = [(pt, n + li) for li, cell in enumerate(lines) for pt in cell]
    return build_graph(n + len(lines), edges)


# ---------------------------------------------------------------------------
# coset graphs
# ---------------------------------------------------------------------------

def coset_graph(group: PermGroup, subgroup: PermGroup, g: Permutation) -> Graph:
    """Cos(G, H, HgH): right cosets of H, with Hx ~ Hy iff x y^{-1} in HgH.

    Requires g outside H, HgH self-paired, and <H, g> = G.
    """
    if not permmod.is_subgroup_of(subgroup, group):
        raise NotASubgroup("H is not a subgroup of G")
    if g not in group:
        raise NotASubgroup("g is not an element of G")
    if g in subgroup:
        raise GInH("g lies in H")
    h_elems = subgroup.raw_elements()
    g_raw = permmod._raw(g.images)
    double_coset = {
        permmod._compose(permmod._compose(h1, g_raw), h2)
        for h1 in h_elems
        for h2 in h_elems
    }
    if permmod._inverse(g_raw) not in double_coset:
        raise NotSelfPaired("HgH differs from Hg^{-1}H")
    generated = build_group(list(subgroup.generators) + [g], degree=group.degree)
    if generated.order() != group.order():
        raise NotGenerated("<H, g> is a proper subgroup of G")

    reps = _coset_reps(group, h_elems)
    n = len(reps)
    edges = []
    for i in range(n):
        for j in range(i + 1, n):
            if permmod._compose(reps[i], permmod._inverse(reps[j])) in double_coset:
                edges.append((i, j))
    graph = build_graph(n, edges)
    assert graph.connected
    return graph


def _coset_reps(group: PermGroup, h_elems) -> list:
    """Canonical representatives (minimum raw element) of the right cosets Hx."""
    reps = set()
    for x in group.raw_elements():
        reps.add(min(permmod._compose(h, x) for h in h_elems))
    return sorted(reps)


def coset_action(group: PermGroup, subgroup: PermGroup) -> PermGroup:
    """Right-multiplication action of G on the right cosets of H."""
    h_elems = subgroup.raw_elements()
    reps = _coset_reps(group, h_elems)
    index = {r: i for i, r in enumerate(reps)}
    gens = []
    for g in group.generators:
        g_raw = permmod._raw(g.images)
        images = [0] * len(reps)
        for r, i in index.items():
            moved = permmod._compose(r, g_raw)
            images[i] = index[min(permmod._compose(h, moved) for h in h_elems)]
        gens.append(Permutation(tuple(images)))
    return build_group(gens, degree=max(1, len(reps)))


# ---------------------------------------------------------------------------
# the Heisenberg cover instance
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class HeisenbergExample:
    """Cayley graph of the extraspecial group of order p^3 and exponent p
    whose central quotient is the complete graph on p^2 vertices."""

    graph: Graph
    center: PermGroup
    expected_quotient: Graph
    regular_group: PermGroup


def heisenberg_example(p: int) -> HeisenbergExample:
    """The order-p^3 Cayley cover of K_{p^2} (odd prime p <= 7).

    The group is <a, b, c | a^p = b^p = c^p = 1, [a,b] = c, c central>; the
    connection set takes one inverse-closed representative a^x b^y c^{xy/2}
    of every nontrivial coset of the center, so the graph has valency
    p^2 - 1, girth 3, and the quotient by the center is K_{p^2}.
    """
    if p not in (3, 5, 7):
        raise UnsupportedP("p must be an odd prime at most 7")
    n = p**3

    def idx(x, y, z):
        return (x * p + y) * p + z

    def unpack(i):
        return i // (p * p), (i // p) % p, i % p

    def mul(a, b):
        x1, y1, z1 = a
        x2, y2, z2 = b
        return ((x1 + x2) % p, (y1 + y2) % p, (z1 + z2 + x1 * y2) % p)

    def rho(el) -> Permutation:
        return Permutation(tuple(idx(*mul(unpack(i), el)) for i in range(n)))

    inv2 = (p + 1) // 2  # 1/2 mod p
    connection = [
        (x, y, (x * y * inv2) % p)
        for x in range(p)
        for y in range(p)
        if (x, y) != (0, 0)
    ]
    vertices = range(n)
    edges = []
    for i in vertices:
        v = unpack(i)
        for s in connection:
            edges.append((i, idx(*mul(s, v))))  # y = s x, so y x^{-1} = s
    graph = build_graph(n, edges)
    center = build_group([rho((0, 0, 1))], degree=n)
    regular = build_group([rho((1, 0, 0)), rho((0, 1, 0)), rho((0, 0, 1))], degree=n)
    expected = build_graph(
        p * p, [(i, j) for i in range(p * p) for j in range(i + 1, p * p)]
    )
    return HeisenbergExample(graph, center, expected, regular)


# ---------------------------------------------------------------------------
# the catalog
# ---------------------------------------------------------------------------

def _check(failures: list[str], label: str, want, got) -> None:
    if want != got:
        failures.append(f"{label}: expected {want}, got {got}")


@dataclass(frozen=True)
class ExpectedInvariants:
    valency: int | None = None
    girth: int | None = None
    diameter: int | None = None
    intersection_array: str | None = None
    aut_order: int | None = None
    arc_degree: int | None = None
    geodesic_degree: int | None = None

    def to_json(self) -> dict:
        return asdict(self)


@dataclass(frozen=True)
class NamedGraphRecord:
    name: str
    graph: Graph
    expected: ExpectedInvariants
    source: str
    aliases: tuple[str, ...] = ()
    notes: str = ""

    def mismatches(self, full: bool = False) -> list[str]:
        """Every expected invariant that the graph does not reproduce, as
        ``"label: expected X, got Y"``.

        Cheap graph invariants are always checked; ``full`` adds the
        automorphism-group order and the transitivity degrees.
        """
        exp = self.expected
        failures: list[str] = []
        if exp.valency is not None:
            _check(failures, "valency", exp.valency, self.graph.valency)
        if exp.girth is not None:
            _check(failures, "girth", exp.girth, graphmod.girth(self.graph))
        if exp.diameter is not None:
            _check(failures, "diameter", exp.diameter, graphmod.diameter(self.graph))
        if exp.intersection_array is not None:
            arr = graphmod.intersection_array(self.graph)
            got = str(arr) if arr else None
            _check(failures, "intersection_array", exp.intersection_array, got)
        if full:
            aut = symmod.automorphism_group(self.graph)
            if exp.aut_order is not None:
                _check(failures, "aut_order", exp.aut_order, aut.order())
            if exp.arc_degree is not None or exp.geodesic_degree is not None:
                report = symmod.transitivity_degrees(self.graph, aut)
                if exp.arc_degree is not None:
                    _check(failures, "arc_degree", exp.arc_degree, report.arc_degree)
                if exp.geodesic_degree is not None:
                    got = report.geodesic_degree
                    _check(failures, "geodesic_degree", exp.geodesic_degree, got)
        return failures

    def validate(self, full: bool = False) -> None:
        """Raise AtlasValidationError on the first of ``mismatches(full)``."""
        failures = self.mismatches(full)
        if failures:
            raise AtlasValidationError(f"{self.name}: {failures[0]}")

    def to_json(self) -> dict:
        return {
            "name": self.name,
            "graph": self.graph.to_json(),
            "expected": self.expected.to_json(),
            "source": self.source,
            "aliases": list(self.aliases),
            "notes": self.notes,
        }


def _load_data_file(filename: str, keys: tuple[str, ...]) -> dict:
    """Parsed JSON object of an embedded data file, read from
    ``GEODEX_DATA_DIR`` instead of the package when that variable is set.

    Raises BadInputFile, naming the path, when the file is missing or
    unreadable, is not JSON, or is not an object holding every one of ``keys``.
    """
    override = os.environ.get("GEODEX_DATA_DIR")
    if override:
        path = pathlib.Path(override, filename)
    else:
        path = resources.files("geodex.data").joinpath(filename)
    try:
        data = json.loads(path.read_text("utf-8"))
    except (OSError, ValueError, RecursionError) as exc:  # JSONDecodeError is a ValueError
        raise BadInputFile(f"cannot read {path}: {exc}") from exc
    if not isinstance(data, dict) or any(key not in data for key in keys):
        raise BadInputFile(f"{path}: expected a JSON object with keys {', '.join(keys)}")
    return data


def _data_graph(filename: str) -> Graph:
    return graphmod.graph_from_json(_load_data_file(filename, ("n", "edges")))


def _petersen() -> Graph:
    edges = [(i, (i + 1) % 5) for i in range(5)]
    edges += [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    edges += [(i, i + 5) for i in range(5)]
    return build_graph(10, edges)


def _cycle_array(n: int) -> str:
    d = n // 2
    b = [2] + [1] * (d - 1)
    c = [1] * (d - 1) + [2 if n % 2 == 0 else 1]
    return "{" + ",".join(map(str, b)) + ";" + ",".join(map(str, c)) + "}"


_CATALOG: dict[str, dict] = {
    "petersen": {
        "builder": _petersen,
        "source": "embedded edge list (outer pentagon, inner pentagram, spokes)",
        "expected": ExpectedInvariants(3, 5, 2, "{3,2;1,1}", 120, 3, 2),
    },
    "heawood": {
        "builder": lambda: graphmod.lcf_decode([5, -5], 7),
        "source": "LCF [5,-5]^7",
        "aliases": ("delta-3-2",),
        "expected": ExpectedInvariants(3, 6, 3, "{3,2,2;1,1,3}", 336, 4, 3),
    },
    "tutte-coxeter": {
        "builder": lambda: graphmod.lcf_decode([-13, -9, 7, -7, 9, 13], 5),
        "source": "LCF [-13,-9,7,-7,9,13]^5",
        "aliases": ("tuttes-8-cage", "delta-4-2"),
        "expected": ExpectedInvariants(3, 8, 4, "{3,2,2,2;1,1,1,3}", 1440, 5, 4),
    },
    "desargues": {
        "builder": lambda: graphmod.lcf_decode([5, -5, 9, -9], 5),
        "source": "LCF [5,-5,9,-9]^5",
        "expected": ExpectedInvariants(3, 6, 5, "{3,2,2,1,1;1,1,2,2,3}", 240, 3, 5),
    },
    "foster": {
        "builder": lambda: graphmod.lcf_decode([17, -9, 37, -37, 9, -17], 15),
        "source": "LCF [17,-9,37,-37,9,-17]^15",
        "expected": ExpectedInvariants(
            3, 10, 8, "{3,2,2,2,2,1,1,1;1,1,1,1,2,2,2,3}", 4320, 5, 8
        ),
    },
    "biggs-smith": {
        "builder": lambda: _data_graph("biggs_smith.json"),
        "source": "embedded edge list (data/biggs_smith.json)",
        "expected": ExpectedInvariants(
            3, 9, 7, "{3,2,2,2,1,1,1;1,1,1,1,1,1,3}", 2448, 4, 7
        ),
    },
    "hexagon-q2": {
        "builder": lambda: _data_graph("hexagon_q2.json"),
        "source": "embedded edge list (data/hexagon_q2.json)",
        "aliases": ("delta-5-2", "delta-6-2", "tutte-12-cage"),
        "expected": ExpectedInvariants(
            3, 12, 6, "{3,2,2,2,2,2;1,1,1,1,1,3}", 12096, None, None
        ),
        "notes": "edge- but not vertex-transitive, so no transitivity degrees",
    },
}

_ALIASES = {
    alias: name
    for name, entry in _CATALOG.items()
    for alias in entry.get("aliases", ())
}


def _check_family_size(name: str, n: int) -> None:
    if n > symmod.AUTOMORPHISM_VERTEX_CAP:
        raise GraphTooLarge(
            f"{name} has {n} vertices, past the search cap {symmod.AUTOMORPHISM_VERTEX_CAP}"
        )


def _knn_record(a: int, b: int) -> NamedGraphRecord:
    if a != b or a < 2:
        raise UnknownName(f"only balanced K{{n,n}} with n >= 2, not K{a},{b}")
    _check_family_size(f"K{a},{a}", 2 * a)
    return NamedGraphRecord(
        name=f"k{a},{a}",
        graph=build_graph(2 * a, [(i, a + j) for i in range(a) for j in range(a)]),
        expected=ExpectedInvariants(
            valency=a,
            girth=4,
            diameter=2,
            intersection_array=f"{{{a},{a - 1};1,{a}}}",
            aut_order=2 * math.factorial(a) ** 2,
            arc_degree=3 if a >= 3 else 2,
            geodesic_degree=2,
        ),
        source="complete bipartite construction",
    )


def _cycle_record(n: int) -> NamedGraphRecord:
    if n < 3:
        raise UnknownName(f"cycles need at least 3 vertices, not C{n}")
    _check_family_size(f"C{n}", n)
    return NamedGraphRecord(
        name=f"c{n}",
        graph=build_graph(n, [(i, (i + 1) % n) for i in range(n)]),
        expected=ExpectedInvariants(
            valency=2,
            girth=n,
            diameter=n // 2,
            intersection_array=_cycle_array(n),
            aut_order=2 * n,
            arc_degree=n // 2,
            geodesic_degree=n // 2,
        ),
        source="cycle construction",
        notes="arc degree reported at the valency-2 cap (cycles are "
        "s-arc transitive for every s)",
    )


def _pg2_record(q: int) -> NamedGraphRecord:
    graph = pg2_incidence(q)  # UnsupportedQ before the row needs q = p^e
    return NamedGraphRecord(
        name=f"pg(2,{q})",
        graph=graph,
        expected=ExpectedInvariants(
            valency=q + 1,
            girth=6,
            diameter=3,
            intersection_array=f"{{{q + 1},{q},{q};1,1,{q + 1}}}",
            # PGammaL(3,q), and a polarity swapping points and lines
            aut_order=2 * q**3 * (q**3 - 1) * (q**2 - 1) * finite_field(q).e,
        ),
        source=f"point-line incidence graph of PG(2,{q})",
    )


def _w_record(q: int) -> NamedGraphRecord:
    graph = symplectic_quadrangle(q)  # UnsupportedQ before the row needs q = p^e
    return NamedGraphRecord(
        name=f"w({q})",
        graph=graph,
        expected=ExpectedInvariants(
            valency=q + 1,
            girth=8,
            diameter=4,
            intersection_array=f"{{{q + 1},{q},{q},{q};1,1,1,{q + 1}}}",
            # PGammaSp(4,q); W(q) is self-dual exactly for even q
            aut_order=q**4 * (q**2 - 1) * (q**4 - 1) * finite_field(q).e * (2 - q % 2),
        ),
        source=f"point-line incidence graph of the symplectic quadrangle W({q})",
    )


#: the parameterized families: (pattern over a lowercased name, record builder
#: called with the pattern's integers).  The patterns match ASCII digits only:
#: str.isdigit accepts a superscript two, which int() then rejects.
_FAMILIES = (
    (re.compile(r"k([0-9]+),([0-9]+)"), _knn_record),
    (re.compile(r"c([0-9]+)"), _cycle_record),
    (re.compile(r"pg\(2,([0-9]+)\)"), _pg2_record),
    (re.compile(r"w\(([0-9]+)\)"), _w_record),
)


def _family_parameter(digits: str) -> int:
    """A family parameter read from its ASCII digits.

    Every family has at least as many vertices as its parameter, so a
    parameter with more digits than the search cap is refused before int():
    int() would raise ValueError past 4300 digits, and the build would run
    unbounded.
    """
    digits = digits.lstrip("0") or "0"
    if len(digits) > len(str(symmod.AUTOMORPHISM_VERTEX_CAP)):
        raise GraphTooLarge(
            f"a family parameter of {len(digits)} digits is past the search cap "
            f"{symmod.AUTOMORPHISM_VERTEX_CAP}"
        )
    return int(digits)


def atlas_list() -> list[str]:
    """The named graphs, then "K3,3" and "C6", one member each of the
    K{n},{n} and C{n} families.

    The PG(2,q) and W(q) families are not listed: PG(2,2) and W(2) are
    Heawood and Tutte-Coxeter, and a sweep over this list (claim 8) would
    pay W(3)'s automorphism search, dearer than every listed graph's.
    """
    return sorted(_CATALOG) + ["K3,3", "C6"]


def atlas_get(name: str) -> NamedGraphRecord:
    """Fetch a catalog record, with its cheap invariants validated.

    Accepts, in any case and with surrounding space ignored, the canonical
    names, their recorded aliases, and the family forms "K{n},{n}" (n >= 2),
    "C{n}" (n >= 3), "PG(2,q)" (q in 2, 3, 4, 5, 7, 8, 9) and "W(q)" (q in
    2, 3, 4), the parameters written in ASCII digits.  Raises UnknownName
    for any other name, UnsupportedQ for a PG(2,q) or W(q) that has no
    construction, GraphTooLarge for a family member with more vertices than
    the search cap (K{n},{n} for n > 256, C{n} for n > 512), checked before
    it is built, and AtlasValidationError if the graph fails a cheap
    invariant of its row.
    """
    key = name.strip().lower()
    key = _ALIASES.get(key, key)
    if key in _CATALOG:
        entry = _CATALOG[key]
        record = NamedGraphRecord(
            name=key,
            graph=entry["builder"](),
            expected=entry["expected"],
            source=entry["source"],
            aliases=tuple(entry.get("aliases", ())),
            notes=entry.get("notes", ""),
        )
    else:
        for pattern, build in _FAMILIES:
            match = pattern.fullmatch(key)
            if match:
                record = build(*map(_family_parameter, match.groups()))
                break
        else:
            raise UnknownName(f"no catalog entry named {name!r}")
    record.validate(full=False)
    return record
