"""Finite simple undirected graphs and their exact invariants.

Vertices are 0-indexed; the vertex order is canonical-by-input and never
silently relabeled.  Distance-based operations require connectivity and raise
Disconnected otherwise.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import reduce
from itertools import chain
from operator import add, itemgetter, or_

from .errors import (
    BadHeader,
    Disconnected,
    LoopEdge,
    NotCubic,
    NotRegular,
    TruncatedPayload,
    VertexOutOfRange,
)


@dataclass(frozen=True)
class Graph:
    """Immutable graph as a tuple of sorted neighbor tuples."""

    adjacency: tuple[tuple[int, ...], ...]
    _cache: dict = field(default_factory=dict, compare=False, repr=False, hash=False)

    @property
    def n(self) -> int:
        return len(self.adjacency)

    @property
    def m(self) -> int:
        return sum(len(nbrs) for nbrs in self.adjacency) // 2

    def degree(self, u: int) -> int:
        return len(self.adjacency[u])

    def degrees(self) -> tuple[int, ...]:
        return tuple(len(nbrs) for nbrs in self.adjacency)

    def is_regular(self) -> bool:
        return len(set(self.degrees())) <= 1

    @property
    def valency(self) -> int:
        degs = set(self.degrees())
        if len(degs) != 1:
            raise NotRegular(f"degrees vary: {sorted(degs)}")
        return degs.pop()

    def edges(self) -> list[tuple[int, int]]:
        return [(u, v) for u in range(self.n) for v in self.adjacency[u] if u < v]

    def has_edge(self, u: int, v: int) -> bool:
        return v in self.neighbor_sets()[u]

    def neighbor_sets(self) -> tuple[frozenset[int], ...]:
        if "adjsets" not in self._cache:
            self._cache["adjsets"] = tuple(frozenset(nbrs) for nbrs in self.adjacency)
        return self._cache["adjsets"]

    @property
    def connected(self) -> bool:
        if "connected" not in self._cache:
            if self.n == 0:
                self._cache["connected"] = False
            else:
                seen = _bfs_reach(self.adjacency, 0)
                self._cache["connected"] = len(seen) == self.n
        return self._cache["connected"]

    def to_json(self) -> dict:
        return {"n": self.n, "edges": [[u, v] for u, v in self.edges()]}

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, m={self.m})"


def _bfs_reach(adjacency, root) -> set[int]:
    seen = {root}
    order = [root]
    for u in order:
        for v in adjacency[u]:
            if v not in seen:
                seen.add(v)
                order.append(v)
    return seen


def build_graph(n: int, edges) -> Graph:
    """Build a simple graph from an edge list (deduplicated, symmetrized)."""
    if n < 0:
        raise VertexOutOfRange("vertex count must be nonnegative")
    nbrs = [set() for _ in range(n)]
    for edge in edges:
        u, v = edge
        if not (0 <= u < n and 0 <= v < n):
            raise VertexOutOfRange(f"edge {{{u},{v}}} outside 0..{n - 1}")
        if u == v:
            raise LoopEdge(f"loop at vertex {u}")
        nbrs[u].add(v)
        nbrs[v].add(u)
    graph = Graph(tuple(tuple(sorted(s)) for s in nbrs))
    graph.connected  # computed and cached at build
    return graph


def graph_from_json(data: dict) -> Graph:
    """The graph of ``{"n": ..., "edges": [[u, v], ...]}``.  JSON's true and
    false are no vertex counts or vertices, though Python reads them as 1
    and 0, so a boolean ``n`` or endpoint raises TypeError."""
    n, edges = data["n"], data["edges"]
    if type(n) is bool or any(type(x) is bool for edge in edges for x in edge):
        raise TypeError("vertex counts and vertices must be integers, not booleans")
    return build_graph(n, edges)


# ---------------------------------------------------------------------------
# distances
# ---------------------------------------------------------------------------

def distances(graph: Graph, u: int) -> tuple[int, ...]:
    """Distance vector from u (a row of the cached distance matrix);
    requires a connected graph."""
    if not 0 <= u < graph.n:
        raise VertexOutOfRange(f"vertex {u} outside 0..{graph.n - 1}")
    return tuple(distance_matrix(graph)[u])


def _distance_row(adjacency, u: int) -> list[int]:
    """Distances from u, -1 where unreachable: a BFS whose queue is the list
    of vertices in the order reached, walked while it grows."""
    dist = [-1] * len(adjacency)
    dist[u] = 0
    order = [u]
    push = order.append
    for x in order:
        d = dist[x] + 1
        for y in adjacency[x]:
            if dist[y] < 0:
                dist[y] = d
                push(y)
    return dist


#: ``_lane_table`` grows balls by neighbor columns up to this least degree
_LANE_COLUMNS = 32


def _lane_table(adjacency) -> tuple[bytes, ...]:
    """All-pairs distances of a connected graph of diameter at most 255,
    bit-parallel, one ``bytes`` row per vertex.

    Vertex u's ball is an int with one byte lane per vertex, 1 where that
    vertex lies inside.  A round ORs every ball with its neighbors' balls,
    which grows it by one radius, so d(u, v) is the number of rounds in
    which v is outside u's ball.  Once R rounds have filled every ball, row
    u is R in every lane minus the sum of u's balls before that; no lane
    exceeds R <= 255, so no lane carries into the next, and one
    ``to_bytes`` reads the row out.

    A round grows the balls by neighbor columns: column i, built once, is
    an ``itemgetter`` over every vertex's i-th neighbor, and one
    ``map(or_, ...)`` per column ORs its gather of the balls in, for the
    slots every vertex has; a ``reduce`` per vertex folds in only the slots
    past the least degree d.  Each column nests one more ``map`` in every
    ball's path, and past about 32 of them one ``reduce`` per vertex costs
    less (K128,128 and K256,256 build a quarter to a half slower by
    columns), so columns run when d <= 32 (``_LANE_COLUMNS``), and a denser
    graph folds every slot per vertex.
    """
    n = len(adjacency)
    ones = int.from_bytes(b"\x01" * n, "little")
    balls = [1 << (8 * u) for u in range(n)]
    sums = [0] * n
    least = min(map(len, adjacency))
    if least > _LANE_COLUMNS:
        least = 0  # no columns: every slot is folded per vertex
    columns = [itemgetter(*[nbrs[i] for nbrs in adjacency]) for i in range(least)]
    rest = [nbrs[least:] for nbrs in adjacency]
    folded = any(rest)
    rounds = 0
    while min(balls) != ones:  # no ball exceeds ones, and a full one equals it
        sums = list(map(add, sums, balls))
        grown = balls
        for column in columns:
            grown = map(or_, grown, column(balls))
        balls = (
            [reduce(or_, map(balls.__getitem__, nbrs), ball) for ball, nbrs in zip(grown, rest)]
            if folded
            else list(grown)
        )
        rounds += 1
    full = rounds * ones
    return tuple((full - s).to_bytes(n, "little") for s in sums)


def _distance_table(graph: Graph) -> tuple:
    """The rows of ``distance_matrix``, by BFS or by ``_lane_table``.

    The lane build costs a round per unit of diameter D, and a round ORs
    an n-byte int per vertex and neighbor slot, by one ``map`` per column
    of neighbors (about two BFS rows' worth on C256), so it wins only when
    D is small against n.  Vertex 0's eccentricity e bounds D by 2e, and
    lanes run when 10e <= n, so D <= n/5, and when 2e <= 255, so every
    distance fits a byte lane.  BFS rows become bytes
    unless a distance passes 255, and tuples then.
    """
    adjacency = graph.adjacency
    n = graph.n
    first = _distance_row(adjacency, 0)
    e = max(first)
    if 10 * e <= n and 2 * e <= 255:
        return _lane_table(adjacency)
    rows = [first] + [_distance_row(adjacency, u) for u in range(1, n)]
    try:
        return tuple(map(bytes, rows))
    except ValueError:
        return tuple(map(tuple, rows))


def distance_matrix(graph: Graph) -> tuple:
    """All-pairs distances (cached), one row per vertex; requires a connected
    graph.  Each row is ``bytes`` while every distance fits a byte, at any
    vertex count, and a tuple of ints once the diameter passes 255."""
    if "distmat" not in graph._cache:
        if not graph.connected:
            raise Disconnected("distance matrix undefined on a disconnected graph")
        graph._cache["distmat"] = _distance_table(graph)
    return graph._cache["distmat"]


def diameter(graph: Graph) -> int:
    """The greatest distance (cached).  The distances that occur are 0..D
    with no gap, so on byte rows D is vertex 0's eccentricity raised while
    the next value occurs, each test one byte search of the joined rows."""
    if "diameter" not in graph._cache:
        rows = distance_matrix(graph)
        if isinstance(rows[0], bytes):
            flat = b"".join(rows)
            d = max(rows[0])
            while d < 255 and d + 1 in flat:
                d += 1
        else:
            d = max(map(max, rows))
        graph._cache["diameter"] = d
    return graph._cache["diameter"]


# ---------------------------------------------------------------------------
# girth
# ---------------------------------------------------------------------------

def girth(graph: Graph) -> int | None:
    """Length of a shortest cycle, or None for a forest (cached).

    A BFS from each root bounds the girth by dist[x] + dist[y] + 1 for every
    edge {x, y} with dist[y] >= dist[x], which leaves out the tree edge to
    x's parent one level up: the tree paths from x and y meet at their
    lowest common ancestor and close a cycle no longer than that.  From a root on a
    shortest cycle some such edge gives exactly the girth, so the least
    bound over all roots is the girth.  Every bound from a vertex x at
    level dx is at least 2dx + 1, and at least 2dx + 2 on a bipartite graph,
    where no edge lies inside a level; the BFS stops at the first x whose
    least bound cannot beat the best.  All roots share one ``dist`` list,
    and each BFS resets only the vertices it reached, so a graph of many
    small components costs time linear in its size.
    """
    if "girth" in graph._cache:
        return graph._cache["girth"]
    least = 2 if bipartition(graph) is not None else 1
    best = None
    adjacency = graph.adjacency
    dist = [-1] * graph.n
    for root in range(graph.n):
        dist[root] = 0
        order = [root]
        for x in order:
            dx = dist[x]
            if best is not None and 2 * dx + least >= best:
                break
            for y in adjacency[x]:
                dy = dist[y]
                if dy < 0:
                    dist[y] = dx + 1
                    order.append(y)
                elif dy >= dx and (best is None or dx + dy + 1 < best):
                    best = dx + dy + 1
        for x in order:
            dist[x] = -1
    graph._cache["girth"] = best
    return best


def shortest_cycle_through_edge(graph: Graph, u: int, v: int) -> list[int] | None:
    """Shortest cycle containing edge {u, v}, or None if the edge is a bridge."""
    if not graph.has_edge(u, v):
        raise VertexOutOfRange(f"{{{u},{v}}} is not an edge")
    parent = [-1] * graph.n
    parent[u] = u
    order = [u]
    for x in order:
        if parent[v] >= 0:
            break
        for y in graph.adjacency[x]:
            if parent[y] < 0 and (x, y) != (u, v):
                parent[y] = x
                order.append(y)
    if parent[v] < 0:
        return None
    path = [v]
    while path[-1] != u:
        path.append(parent[path[-1]])
    return path[::-1]


# ---------------------------------------------------------------------------
# arcs and geodesics
# ---------------------------------------------------------------------------

def _check_level(s: int) -> None:
    if s < 1:
        raise ValueError("s must be at least 1")


def _arcs(graph: Graph, s: int):
    """s-arcs in lexicographic order (depth-first over sorted neighbors)."""
    _check_level(s)
    adjacency = graph.adjacency
    for u in range(graph.n):
        stack = [(u,)]
        while stack:
            arc = stack.pop()
            if len(arc) == s + 1:
                yield arc
                continue
            prev = arc[-2] if len(arc) >= 2 else -1
            for w in reversed(adjacency[arc[-1]]):
                if w != prev:
                    stack.append(arc + (w,))


def enumerate_arcs(graph: Graph, s: int) -> list[tuple[int, ...]]:
    """All s-arcs: walks with consecutive adjacency and no immediate backtrack."""
    return list(_arcs(graph, s))


def first_arc(graph: Graph, s: int) -> tuple[int, ...] | None:
    """Lexicographically least s-arc, or None."""
    return next(_arcs(graph, s), None)


def count_arcs(graph: Graph, s: int) -> int:
    """Number of s-arcs via dynamic programming on directed edges.

    The per-graph memo ``graph._cache["arcs"]`` keeps the total of every
    level counted so far beside the generator that holds the last level's
    count per directed edge: a level already counted is looked up, and a
    deeper one continues from the last.
    """
    _check_level(s)
    if "arcs" not in graph._cache:
        graph._cache["arcs"] = ([], _arc_totals(graph.adjacency))
    totals, deeper = graph._cache["arcs"]
    while len(totals) < s:
        totals.append(next(deeper))
    return totals[s - 1]


def _arc_totals(adjacency):
    """The number of s-arcs for s = 1, 2, ...

    Directed edges are listed by tail, and ``counts[e]`` is the number of
    s-arcs that end with e.  An (s+1)-arc ending with (v, w) extends an
    s-arc ending with (u, v) for u != w: all the s-arcs into v, less those
    ending with the reverse edge (w, v).
    """
    arcs = [(v, w) for v, nbrs in enumerate(adjacency) for w in nbrs]
    index = {arc: e for e, arc in enumerate(arcs)}
    reverse = [index[w, v] for v, w in arcs]
    tails = [v for v, _ in arcs]
    starts = [0]
    for nbrs in adjacency:
        starts.append(starts[-1] + len(nbrs))
    blocks = list(zip(starts, starts[1:]))  # each vertex's edges out
    counts = [1] * len(arcs)
    while True:
        yield sum(counts)
        back = [counts[r] for r in reverse]  # back[e]: the count of e's reverse
        into = [sum(back[a:b]) for a, b in blocks]  # s-arcs ending at each vertex
        counts = [into[v] - c for v, c in zip(tails, back)]


def _geodesics(graph: Graph, s: int):
    """s-geodesics in lexicographic order.

    Descends the BFS level structure with backtracking: a branch can dead-end
    on a vertex with no neighbor in the next level, so greedy descent alone
    would be wrong.  There are none past the diameter.
    """
    _check_level(s)
    if s > diameter(graph):
        return
    dist = distance_matrix(graph)
    adjacency = graph.adjacency
    for u in range(graph.n):
        du = dist[u]
        stack = [(u,)]
        while stack:
            path = stack.pop()
            if len(path) == s + 1:
                yield path
                continue
            depth = len(path)
            for w in reversed(adjacency[path[-1]]):
                if du[w] == depth:
                    stack.append(path + (w,))


def enumerate_geodesics(graph: Graph, s: int) -> list[tuple[int, ...]]:
    """All s-geodesics: s-arcs whose endpoints are at distance exactly s."""
    return list(_geodesics(graph, s))


def first_geodesic(graph: Graph, s: int) -> tuple[int, ...] | None:
    """Lexicographically least s-geodesic, or None."""
    return next(_geodesics(graph, s), None)


def count_geodesics(graph: Graph, s: int) -> int:
    """Number of s-geodesics; 0 past the diameter.

    The first call counts every level up to the diameter and keeps the list
    in the per-graph memo ``graph._cache["geodesics"]``.
    """
    _check_level(s)
    if s > diameter(graph):
        return 0
    if "geodesics" not in graph._cache:
        graph._cache["geodesics"] = _geodesic_totals(graph)
    return graph._cache["geodesics"][s - 1]


def _geodesic_totals(graph: Graph) -> list[int]:
    """The number of s-geodesics for s = 1..diameter, in one breadth-first
    pass per vertex u: the geodesics from u to a vertex y at distance d
    extend those from u to y's neighbors at distance d - 1."""
    dist = distance_matrix(graph)
    adjacency = graph.adjacency
    totals = [0] * diameter(graph)
    for u in range(graph.n):
        du = dist[u]
        level = {u: 1}
        for depth in range(1, len(totals) + 1):
            nxt: dict[int, int] = {}
            for x, c in level.items():
                for y in adjacency[x]:
                    if du[y] == depth:
                        nxt[y] = nxt.get(y, 0) + c
            if not nxt:
                break
            totals[depth - 1] += sum(nxt.values())
            level = nxt
    return totals


# ---------------------------------------------------------------------------
# intersection parameters
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class IntersectionArray:
    """Global array {b_0, ..., b_{d-1}; c_1, ..., c_d} of a distance-regular graph."""

    b: tuple[int, ...]
    c: tuple[int, ...]

    def __str__(self) -> str:
        return "{" + ",".join(map(str, self.b)) + ";" + ",".join(map(str, self.c)) + "}"

    @property
    def diameter(self) -> int:
        return len(self.c)


def intersection_array(graph: Graph) -> IntersectionArray | None:
    """The intersection array (cached), or None when the graph is not distance-regular."""
    if not graph.is_regular():
        raise NotRegular("intersection array requires a regular graph")
    if "intersection_array" not in graph._cache:
        graph._cache["intersection_array"] = _intersection_array(graph)
    return graph._cache["intersection_array"]


def _intersection_array(graph: Graph) -> IntersectionArray | None:
    """Every vertex pair's counts at once, by lane arithmetic over the
    distance table.

    The table becomes one int with a lane of ``width`` bytes per vertex
    pair (w, u) holding d(u, w), ``width`` being the least whose lanes hold
    D + 1 and the valency k.  Let X hold d(u, x) in lane (w, u), for x the
    j-th neighbor of w.  Lane (w, u) of (table + ones) - X is
    d(u, w) - d(u, x) + 1: 0, 1 or 2 as x lies farther from u, as far, or
    nearer, and no lane borrows from the next.  Summed over j, the 2-bits
    give 2C and the whole differences A + 2C, where lane (w, u) of A holds
    a(u, w) and of C holds c(u, w).  Vertex 0's row of A and C gives
    (a_d, c_d) for each of its levels d.  The graph is distance-regular iff
    every lane at distance d holds a_d and c_d, one ``translate`` of the
    table per lane byte, and then b_d = k - a_d - c_d.  Vertex 0's pairs at
    its eccentricity e have b = 0, so a row reaching past e breaks b_e = 0
    at e, and the lanes past e need no table entry.
    """
    rows = distance_matrix(graph)
    adjacency = graph.adjacency
    n, k = len(adjacency), len(adjacency[0])
    span = diameter(graph) + 1
    width = 1
    while 256**width <= max(span, k):
        width += 1
    # the rows end to end: bytes while every distance fits a byte
    flat = tuple(chain.from_iterable(rows)) if span > 256 else b"".join(rows)
    pairs = _lanes(flat, range(span), width)
    size = n * width
    row_lanes = [pairs[i : i + size] for i in range(0, n * size, size)]
    ones = int.from_bytes((b"\x01" + bytes(width - 1)) * (n * n), "little")
    twos = ones << 1
    up = int.from_bytes(pairs, "little") + ones
    total = c2 = 0
    for column in zip(*adjacency):
        x = int.from_bytes(b"".join(map(row_lanes.__getitem__, column)), "little")
        total += x
        c2 += (up - x) & twos
    a_lanes = (k * up - total - c2).to_bytes(n * size, "little")
    c_lanes = (c2 >> 1).to_bytes(n * size, "little")
    first = rows[0]
    levels = [first.index(d) * width for d in range(max(first) + 1)]
    a = [int.from_bytes(a_lanes[i : i + width], "little") for i in levels]
    c = [int.from_bytes(c_lanes[i : i + width], "little") for i in levels]
    pad = [0] * (span - len(levels))  # any value: see the docstring
    if a_lanes != _lanes(flat, a + pad, width) or c_lanes != _lanes(flat, c + pad, width):
        return None
    return IntersectionArray(tuple(map(k.__sub__, map(add, a[:-1], c))), tuple(c[1:]))


def _lanes(keys, table, width: int) -> bytes | bytearray:
    """The bytes whose lane j, width bytes little-endian, holds
    table[keys[j]].

    Byte i of every lane is one ``translate`` of keys as bytes, which holds
    distances up to 255; keys as a tuple, past that, are looked up one by
    one.  A byte that is 0 in every table entry is left 0.
    """
    if width == 1:
        return keys.translate(bytes(table).ljust(256, b"\0"))
    out = bytearray(len(keys) * width)
    for i in range(width):
        plane = [v >> 8 * i & 255 for v in table]
        if not any(plane):
            continue
        if isinstance(keys, bytes):
            out[i::width] = keys.translate(bytes(plane).ljust(256, b"\0"))
        else:
            out[i::width] = bytes(map(plane.__getitem__, keys))
    return out


# ---------------------------------------------------------------------------
# structural probes
# ---------------------------------------------------------------------------

def bipartition(graph: Graph) -> tuple[tuple[int, ...], tuple[int, ...]] | None:
    """2-coloring classes (first class holds the least vertex of each component)."""
    adjacency = graph.adjacency
    color = [-1] * graph.n
    for root in range(graph.n):
        if color[root] >= 0:
            continue
        color[root] = 0
        order = [root]
        for x in order:
            other = 1 - color[x]
            for y in adjacency[x]:
                if color[y] < 0:
                    color[y] = other
                    order.append(y)
                elif color[y] != other:
                    return None
    part0 = tuple(v for v in range(graph.n) if color[v] == 0)
    part1 = tuple(v for v in range(graph.n) if color[v] == 1)
    return part0, part1


@dataclass(frozen=True)
class ShapeInfo:
    bipartition: tuple[tuple[int, ...], tuple[int, ...]] | None
    complete_multipartite: bool
    parts: tuple[tuple[int, ...], ...] | None

    @property
    def bipartite(self) -> bool:
        return self.bipartition is not None


def classify_shape(graph: Graph) -> ShapeInfo:
    """Bipartiteness (with the 2-coloring) and complete-multipartite structure.

    Vertices are grouped by neighbor set.  The graph is complete multipartite
    iff every class P with neighbor set N has |N| + |P| = n: no vertex
    neighbors itself, so P and N are disjoint, and then N is everything
    outside P.  The classes, each listed from its least vertex, are the
    parts.
    """
    classes: dict[frozenset[int], list[int]] = {}
    for v, nbrs in enumerate(graph.neighbor_sets()):
        classes.setdefault(nbrs, []).append(v)
    is_cm = all(len(nbrs) + len(part) == graph.n for nbrs, part in classes.items())
    return ShapeInfo(
        bipartition=bipartition(graph),
        complete_multipartite=is_cm,
        parts=tuple(map(tuple, classes.values())) if is_cm else None,
    )


# ---------------------------------------------------------------------------
# LCF notation
# ---------------------------------------------------------------------------

def lcf_decode(offsets, repeat: int) -> Graph:
    """Cubic graph from LCF notation: a Hamiltonian n-cycle plus chords
    i -> i + offsets[i mod len(offsets)] (mod n), n = repeat * len(offsets)."""
    offsets = list(offsets)
    if not offsets or repeat < 1:
        raise NotCubic("need a nonempty offset list and repeat >= 1")
    n = len(offsets) * repeat
    if n < 4:
        raise NotCubic(f"{n} vertices cannot form a cubic graph")
    edges = [(i, (i + 1) % n) for i in range(n)]
    for i in range(n):
        off = offsets[i % len(offsets)]
        if off % n == 0:
            raise NotCubic(f"offset {off} at vertex {i} yields a loop")
        if off % n in (1, n - 1):
            raise NotCubic(f"offset {off} at vertex {i} duplicates a cycle edge")
        edges.append((i, (i + off) % n))
    graph = build_graph(n, edges)
    if any(d != 3 for d in graph.degrees()):
        raise NotCubic("chord multiset collides: result is not cubic")
    return graph


def lcf_parse(text: str) -> tuple[list[int], int]:
    """Parse an LCF spec string like "[17,-9,37,-37,9,-17]^15"."""
    s = text.strip()
    if "^" not in s or not s.startswith("["):
        raise ValueError(f"not an LCF spec: {text!r}")
    body, _, exponent = s.partition("^")
    body = body.strip()
    if not body.endswith("]"):
        raise ValueError(f"not an LCF spec: {text!r}")
    offsets = [int(tok) for tok in body[1:-1].replace(" ", "").split(",") if tok]
    return offsets, int(exponent)


# ---------------------------------------------------------------------------
# graph6 / sparse6 codecs
# ---------------------------------------------------------------------------

_G6_MIN, _G6_MAX = 63, 126


def _g6_encode_n(n: int) -> str:
    if n < 0:
        raise BadHeader("negative vertex count")
    if n <= 62:
        return chr(n + 63)
    if n <= 258047:
        return "~" + "".join(chr(((n >> shift) & 63) + 63) for shift in (12, 6, 0))
    if n <= 68719476735:
        return "~~" + "".join(
            chr(((n >> shift) & 63) + 63) for shift in (30, 24, 18, 12, 6, 0)
        )
    raise BadHeader("vertex count too large for graph6")


def _g6_decode_n(data: str) -> tuple[int, str]:
    if not data:
        raise BadHeader("empty graph6 string")
    if data[0] != "~":
        return ord(data[0]) - 63, data[1:]
    if len(data) >= 2 and data[1] != "~":
        if len(data) < 4:
            raise TruncatedPayload("truncated 3-byte vertex count")
        chunk, rest = data[1:4], data[4:]
    else:
        if len(data) < 8:
            raise TruncatedPayload("truncated 6-byte vertex count")
        chunk, rest = data[2:8], data[8:]
    n = 0
    for ch in chunk:
        n = (n << 6) | (ord(ch) - 63)
    return n, rest


def _strip_header(text: str, kind: str) -> str:
    header = f">>{kind}<<"
    if text.startswith(header):
        return text[len(header):]
    return text


def graph6_encode(graph: Graph) -> str:
    """Encode as graph6 (column-major upper-triangle bit stream)."""
    n = graph.n
    adjsets = graph.neighbor_sets()
    bits = []
    for j in range(1, n):
        for i in range(j):
            bits.append(1 if i in adjsets[j] else 0)
    while len(bits) % 6:
        bits.append(0)
    payload = []
    for k in range(0, len(bits), 6):
        value = 0
        for bit in bits[k:k + 6]:
            value = (value << 1) | bit
        payload.append(chr(value + 63))
    return _g6_encode_n(n) + "".join(payload)


def graph6_decode(text: str) -> Graph:
    """Decode a graph6 string (optional ">>graph6<<" header allowed)."""
    s = _strip_header(text.strip(), "graph6")
    if s.startswith(":"):
        raise BadHeader("sparse6 payload passed to graph6_decode")
    for ch in s:
        if not _G6_MIN <= ord(ch) <= _G6_MAX:
            raise BadHeader(f"invalid graph6 character {ch!r}")
    n, rest = _g6_decode_n(s)
    nbits = n * (n - 1) // 2
    need = (nbits + 5) // 6
    if len(rest) < need:
        raise TruncatedPayload(f"need {need} payload characters, got {len(rest)}")
    if len(rest) > need:
        raise BadHeader("trailing characters after graph6 payload")
    bits = []
    for ch in rest:
        value = ord(ch) - 63
        bits.extend((value >> shift) & 1 for shift in (5, 4, 3, 2, 1, 0))
    edges = []
    k = 0
    for j in range(1, n):
        for i in range(j):
            if bits[k]:
                edges.append((i, j))
            k += 1
    return build_graph(n, edges)


def sparse6_decode(text: str) -> Graph:
    """Decode a sparse6 string (":" prefix, optional ">>sparse6<<" header)."""
    s = _strip_header(text.strip(), "sparse6")
    if not s.startswith(":"):
        raise BadHeader("sparse6 strings start with ':'")
    s = s[1:]
    for ch in s:
        if not _G6_MIN <= ord(ch) <= _G6_MAX:
            raise BadHeader(f"invalid sparse6 character {ch!r}")
    n, rest = _g6_decode_n(s)
    k = max(1, (n - 1).bit_length())
    bits = []
    for ch in rest:
        value = ord(ch) - 63
        bits.extend((value >> shift) & 1 for shift in (5, 4, 3, 2, 1, 0))
    edges = []
    v = 0
    pos = 0
    while pos + 1 + k <= len(bits):
        b = bits[pos]
        x = 0
        for bit in bits[pos + 1:pos + 1 + k]:
            x = (x << 1) | bit
        pos += 1 + k
        if b:
            v += 1
        if x >= n or v >= n:
            break
        if x > v:
            v = x
        else:
            edges.append((x, v))  # x == v is a loop: build_graph raises LoopEdge
    return build_graph(n, edges)


def decode(text: str) -> Graph:
    """Decode either format, keying off the ':' prefix / headers."""
    s = text.strip()
    if s.startswith(">>sparse6<<") or _strip_header(s, "graph6").startswith(":"):
        return sparse6_decode(s)
    return graph6_decode(s)

