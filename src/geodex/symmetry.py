"""Automorphism search, isomorphism testing, and transitivity/primitivity
deciders for finite graphs with explicit permutation groups.

The automorphism engine is a backtracking search over partial vertex maps,
pruned by equitable-partition colors and full distance consistency against
every mapped vertex.  Each search follows a plan its caller builds once per
set of mapped sources: the order in which the vertices are mapped, each
one's anchor, color and distances to the vertices mapped before it.  Up to
256 vertices the distance rows are bytes, and a candidate's check is one
``bytes.translate`` of the mapped vertices' images through its row, compared
with the plan's bytes.  It fixes its base by refinement alone: each level refines its parent's colors, seeded with the
parent's branch vertex's distances (the partitions are those of refining
the whole individualized prefix from scratch, but the color ids differ, so
a tie between largest cells may name another cell), and branches on the
least vertex of a largest non-singleton cell.  It then settles
the levels deepest first, as nauty does (McKay & Piperno, *Practical graph
isomorphism II*, 2014), and uses every automorphism it has found.  One
orbit partition holds the orbits of all generators found so far; the ones found
below a level fix its prefix, so a target in the branch vertex's class, or
in a refuted target's, is skipped without a search.  At every level each
search runs from its target back to the branch vertex, which the deeper
generators fix, and inside it a failed candidate refutes its whole orbit
under the known generators that fix the node's target path.
It reads |Aut| off its own levels: each one ends with the branch vertex's
class as its full orbit under the stabilizer of the points fixed before
it, and the last level's partition is discrete, so |Aut| is the product
of those orbit lengths.  The branch vertices are a base, and the generators
found at a level and below make the stabilizer of the points fixed before
it, so the group it returns reads its stabilizer chain off those levels on
first use (``perm.group_from_levels``), with no Schreier-Sims run, and raises
AssertionError if the chain's orbits do not multiply to that product.
The isomorphism test first compares the multisets of the two graphs'
per-row distance counts (how many vertices lie at each distance from a
vertex), an invariant that tells most non-isomorphic pairs with equal
degrees apart.
Past that, it runs the same search from one root
vertex to each target in its cell, but first individualizes both and refines
them against one trace (McKay, *Practical graph isomorphism*, 1981): a target
whose refinement differs at any round is refuted without a search, and a
surviving one is searched under the refined colors.  Transitivity at level s
is decided by orbit-size arithmetic (group order over tuple-stabilizer order
against the total tuple count), never by listing tuple orbits.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import asdict, dataclass
from operator import itemgetter

from . import graph as graphmod
from . import perm as permmod
from .errors import (
    Disconnected,
    GraphTooLarge,
    NotAutomorphisms,
    NotTransitive,
    NotVertexTransitive,
    PreconditionUnverified,
    ValencyNotPrimePowerPlusOne,
)
from .graph import Graph
from .perm import PermGroup

#: automorphism/isomorphism search refuses graphs larger than this
AUTOMORPHISM_VERTEX_CAP = 512


# ---------------------------------------------------------------------------
# colorings
# ---------------------------------------------------------------------------

def _refine(adjacency, colors, trace=None):
    """Equitable refinement with canonical (label-independent) color ids.

    From one cell (``[0] * n``) the first pass splits the vertices by degree.
    Starting colors may be any sortable values, such as the integers of
    ``_individualize``.

    With a ``trace`` list, every round leaves a label-independent record:
    round 0 is the sorted starting colors, and each later round its sorted
    distinct signatures, which name the new color ids.  A round the list
    does not hold yet is appended to it; a round it holds is compared, and the
    refinement returns None at the first round that differs.  Refining two
    colorings against one trace thus either refutes every isomorphism that
    maps one coloring onto the other, or gives them corresponding color ids.

    Without a trace, refinement returns as soon as a round makes the
    partition discrete: a discrete partition is equitable, and its colors are
    0..n-1, which a further round would map each to itself.  A traced
    refinement still makes that confirming round, since its record compares
    the two graphs' edges under the color map, and that refutes targets.
    """
    if trace is not None and not _traced(trace, 0, sorted(colors)):
        return None
    ncolors = len(set(colors))
    rounds = 0
    while True:
        color_of = colors.__getitem__
        sigs = [(c, tuple(sorted(map(color_of, nbrs)))) for c, nbrs in zip(colors, adjacency)]
        keys = sorted(set(sigs))
        ids = {sig: i for i, sig in enumerate(keys)}
        colors = list(map(ids.__getitem__, sigs))
        rounds += 1
        if trace is not None and not _traced(trace, rounds, keys):
            return None
        if len(ids) == ncolors or (trace is None and len(ids) == len(colors)):
            return colors
        ncolors = len(ids)


def _traced(trace, i, record) -> bool:
    """Append round i's record to the trace, or compare it with the one held."""
    if i < len(trace):
        return trace[i] == record
    trace.append(record)
    return True


def _cells(colors) -> dict[int, list[int]]:
    """The vertices of each color, in ascending order."""
    cells: dict[int, list[int]] = {}
    for u, c in enumerate(colors):
        cells.setdefault(c, []).append(u)
    return cells


def _individualize(adjacency, colors, row, span, trace=None):
    """``colors`` refined with the vertex whose distance row is ``row``
    individualized (McKay, 1981): vertex u starts at ``c * span + row[u]``
    for its color c, where ``span`` exceeds every distance, an integer that
    sorts as the pair (c, d) does, so color ids stay label-independent.
    Individualizing a vertex forces the distance partition from it, so
    seeding with its distances reaches the same stable partition in fewer
    rounds.  With a ``trace``, as ``_refine``."""
    return _refine(adjacency, [c * span + d for c, d in zip(colors, row)], trace)


# ---------------------------------------------------------------------------
# the backtracking search
# ---------------------------------------------------------------------------

def _distance_probe(graph: Graph):
    """(targets, select, rows) over ``graph``'s distance table: ``targets``
    is an empty vertex sequence to append to, and ``select(rows[t])`` gives
    t's distances to the vertices in ``targets``, in order.

    Up to 256 vertices the table's rows are ``bytes``; ``rows`` pads each to
    256 (cached in ``graph._cache``, so each search of a graph reuses it),
    and ``select`` is one ``bytes.translate`` of the bytearray of targets
    through it.  Above, ``rows`` is the table and ``select`` one
    ``itemgetter`` over the targets, which gives a bare int for a single
    target and needs at least one (``()`` stands for none); both sides of a
    comparison come from ``select`` over equally many targets, so they agree
    in type.
    """
    if graph.n > permmod._BYTES_DEGREE:
        targets = []

        def select(row):
            return itemgetter(*targets)(row) if targets else ()

        return targets, select, graphmod.distance_matrix(graph)
    rows = graph._cache.get("probe_rows")
    if rows is None:
        pad = bytes(permmod._BYTES_DEGREE - graph.n)
        rows = graph._cache["probe_rows"] = [row + pad for row in graphmod.distance_matrix(graph)]
    targets = bytearray()
    return targets, targets.translate, rows


def _extension_plan(graph: Graph, colors, sources):
    """The steps of every search that maps ``sources`` first.

    The plan maps ``sources``, then one vertex per search depth: a
    most-constrained vertex (most mapped neighbors, lowest index on ties),
    so refutations close cycles as early as possible, which keeps the search
    shallow even on highly regular graphs.  The choice depends only on which
    sources are mapped, never on their targets, so one plan serves every
    search that maps the same sources, as ``are_isomorphic``'s targets do.

    Each vertex u has one step (u, anchor, color, want), in the order it is
    mapped: ``anchor`` is the position in the plan of u's first mapped
    neighbor (None for a source), ``color`` is ``colors[u]`` and ``want``
    u's distances to the vertices before it, as ``_distance_probe`` selects
    them.

    ``buckets[c]`` is a heap of the vertices pushed when their count reached
    c; counts only grow, so an entry is current iff its vertex is unplaced
    and its count is still c.  ``top`` is the largest count reached; it
    steps down past emptied buckets, and the least current vertex of its
    bucket is the argmax.
    """
    adjacency = graph.adjacency
    position = [-1] * graph.n
    nbr_count = [0] * graph.n
    buckets: list[list[int]] = [[]]
    top = 0
    push, pop = heapq.heappush, heapq.heappop
    placed, select, rows = _distance_probe(graph)
    steps = []

    def place(u, anchor) -> None:
        nonlocal top
        steps.append((u, anchor, colors[u], select(rows[u])))
        position[u] = len(placed)
        placed.append(u)
        for w in adjacency[u]:
            if position[w] < 0:
                c = nbr_count[w] = nbr_count[w] + 1
                if c == len(buckets):
                    buckets.append([])
                push(buckets[c], w)
                if c > top:
                    top = c

    for q in sources:
        place(q, None)
    while top:
        bucket = buckets[top]
        if not bucket:
            top -= 1
            continue
        u = pop(bucket)
        if position[u] >= 0 or nbr_count[u] != top:
            continue
        for anchor in adjacency[u]:
            if position[anchor] >= 0:
                break
        place(u, position[anchor])
    return tuple(steps)


def _search_map(g1, g2, plan, colors2, images, known=()):
    """One color/distance-consistent isomorphism g1 -> g2 that maps the
    sources of ``plan`` (``_extension_plan`` of g1) to ``images``, or None.
    Both graphs must be connected and have the same number of vertices.

    Backtracking maps the plan's vertices in order, each to a neighbor of
    its anchor's image.  The images are kept in the plan's order, so a
    target t is consistent with a step (u, anchor, color, want) iff t has
    ``color`` in ``colors2`` and t's distances to the images equal ``want``:
    one ``bytes.translate`` of the images through t's row up to 256
    vertices (``_distance_probe``).  A target already used is at distance 0
    from itself, where u is at distance at least 1 from every other vertex,
    so the same check refuses it.  Each source's image passes the same
    check before the search starts.

    The backtrack is a loop over a stack of frames (candidates iterator,
    fixing, start, refuted), one per open node above the one it searches.
    A child starts from its parent's ``fixing`` and ``start`` with nothing
    refuted; when it runs out of candidates, the parent's frame is popped
    and the parent's candidate fails.  No recursion follows the plan's
    depth, which reaches 512 at the vertex cap.

    ``known`` holds automorphisms of g2 (image sequences) that preserve
    ``colors2``.  At a node whose candidate t fails, every candidate in t's
    orbit under the known automorphisms fixing the node's whole target path
    is skipped: such an a maps t to a neighbor of the anchor's image with t's
    color and t's distances to the path, and a∘ψ extends the path with a(t)
    exactly when ψ extends it with t, so a(t) fails too.  The fixing list is
    filtered from the parent node's, and only at a node where a candidate
    fails, so a search that never backtracks pays nothing for it.  Skipping
    only drops candidates that would fail, so the map returned is the one
    found without ``known``.

    The search is complete: None means that no color-preserving isomorphism
    extends the sources' map.  That is what lets ``automorphism_group`` take
    a level's class of the branch vertex as the full orbit, and so count
    |Aut| without a stabilizer chain.
    """
    adj2 = g2.adjacency
    targets, select, rows2 = _distance_probe(g2)
    for (_, _, color, want), t in zip(plan, images):
        if colors2[t] != color or select(rows2[t]) != want:
            return None
        targets.append(t)

    # the node being searched lives in locals, and ``frames`` holds
    # (candidates, fixing, start, refuted) of each open node above it;
    # ``fixing`` holds the known automorphisms that fix targets[:start]
    frames = []
    fixing, start = list(known), 0
    depth = len(targets)
    while depth < len(plan):
        # a child starts from its parent's fixing and start, nothing refuted
        _, anchor, color, want = plan[depth]
        candidates, refuted = iter(adj2[targets[anchor]]), ()
        while True:
            for t in candidates:
                if colors2[t] == color and t not in refuted and select(rows2[t]) == want:
                    break
            else:
                # none left: back to the parent, whose candidate fails
                if not frames:
                    return None
                candidates, fixing, start, refuted = frames.pop()
                t = targets.pop()
                depth -= 1
                _, _, color, want = plan[depth]
                if fixing and start < depth:
                    path = targets[start:]
                    fixing = [a for a in fixing if all(a[p] == p for p in path)]
                    start = depth
                if fixing:
                    refuted = permmod._orbit(fixing, (t,)).union(refuted)
                continue
            break
        frames.append((candidates, fixing, start, refuted))
        targets.append(t)
        depth += 1

    mapping = [-1] * g1.n
    for (u, _, _, _), t in zip(plan, targets):
        mapping[u] = t
    result = tuple(mapping)
    adjsets2 = g2.neighbor_sets()
    for u in range(g1.n):
        for w in g1.adjacency[u]:
            if result[w] not in adjsets2[result[u]]:
                raise AssertionError("search produced a non-isomorphism")
    return result


def _check_search_cap(n: int) -> None:
    if n > AUTOMORPHISM_VERTEX_CAP:
        raise GraphTooLarge(f"{n} vertices exceeds the search cap {AUTOMORPHISM_VERTEX_CAP}")


def _base_levels(graph: Graph):
    """(fixed prefix, refined colors, sorted branch cell, branch vertex) per
    level, top-down, until the refined partition is discrete.

    The first level refines from one cell.  Each later level individualizes
    its parent's branch vertex v in its parent's stable colors
    (``_individualize``, with the diameter plus one as the span).  The
    partition is the one that individualizing the whole prefix and refining
    from the degree-level colors would give: an equitable partition with v as a
    singleton already splits by distance from v, so both are the coarsest
    equitable partition below the degree-level colors with the prefix
    individualized.  Only the color ids differ, and with them which of two
    largest cells the tie-break names.

    Each level branches on the least vertex of a largest non-singleton cell
    (lowest color on ties), the cell rule of McKay & Piperno (2014).  A small cell
    left over by refinement is often a union of fixed points of the prefix
    stabilizer: on PG(2,q), once a point and three lines through it are
    fixed, so is every line through it, yet refinement keeps the rest in one
    cell, and every search into that cell fails.  The largest cell avoids them there (PG(2,5)
    and W(4) at catalog labels settle with no failing search).  The base
    depends only on refinement, never on what a search finds.
    """
    dist = graphmod.distance_matrix(graph)
    span = graphmod.diameter(graph) + 1
    level_colors = _refine(graph.adjacency, [0] * graph.n)
    levels = []
    fixed: tuple[int, ...] = ()
    while True:
        candidates = [
            (-len(cell), c, cell) for c, cell in _cells(level_colors).items() if len(cell) > 1
        ]
        if not candidates:
            return levels
        _, _, branch = min(candidates, key=lambda item: item[:2])
        v = branch[0]  # cells list their vertices in ascending order
        levels.append((fixed, level_colors, branch, v))
        fixed += (v,)
        level_colors = _individualize(graph.adjacency, level_colors, dist[v], span)


def automorphism_group(graph: Graph) -> PermGroup:
    """Full automorphism group via individualization plus backtracking.

    The base comes first (``_base_levels``); then the levels are settled
    deepest first, as nauty does.  One partition of the points holds the
    orbits of every generator found in the call, the deeper levels' and this
    level's; its classes only merge, so one partition serves the whole
    call.  At each level it finds one automorphism per new orbit point of
    the branch vertex v, skipping a target whose class holds v or a point
    refuted at this level.  Every generator in the partition fixes this level's prefix, so
    v's class lies inside v's orbit under the prefix stabilizer, and a
    skipped target was reached already or could only have been refuted
    too.  Every point of the branch cell is thus reached, found, or refuted
    with its class, so v's class ends as the orbit of v under the
    automorphisms fixing the prefix; once the refined partition is discrete
    only the identity is left.  The group's order is the product of the
    lengths of those classes.

    Every level searches from each target w back to v and keeps the inverse
    of the map it finds: the deeper generators fix the prefix and v, the
    root of that search's target path, and keep the level colors, so
    ``_search_map`` prunes by them; each search maps its own sources, so it
    builds its own plan.  Below the first generator found, every deeper
    level measured an orbit of length 1, so the stabilizer of the prefix
    and v is trivial and nothing prunes: at most one automorphism fixing
    the prefix maps v to w, and the search from w finds its inverse or
    refutes w, as a search from v to w would.  The generators are returned
    in top-down level order.

    The branch vertices, top-down, are a base, and each level's generators
    are strong generators installed at it: they fix the prefix, and with
    the deeper levels' they make its stabilizer.  The group is made from
    those levels (``perm.group_from_levels``), and its stabilizer chain is
    read off them on first use (``base()``, ``walk()``, ``in``,
    ``raw_elements()``, a stabilizer): one orbit walk per level, leaving out
    the levels whose orbit has length 1, asserting that the orbit lengths
    multiply to the product.
    Raises GraphTooLarge above AUTOMORPHISM_VERTEX_CAP vertices.
    """
    _check_search_cap(graph.n)
    if not graph.connected:
        raise Disconnected("automorphism search requires a connected graph")

    # the orbits of every generator found so far: each point's class, and
    # each class's points; a merge relabels the smaller class
    class_of = list(range(graph.n))
    members = [[p] for p in range(graph.n)]

    deeper: list[tuple[int, ...]] = []  # generators of the levels settled so far
    per_level: list[tuple[int, list[tuple[int, ...]]]] = []  # (v, its level's generators)
    order = 1
    for fixed, level_colors, branch, v in reversed(_base_levels(graph)):
        level_gens: list[tuple[int, ...]] = []
        refuted: list[int] = []
        for w in branch:
            c = class_of[w]
            if c == class_of[v] or any(class_of[r] == c for r in refuted):
                continue
            # from w back to v, pruned by the deeper generators, which fix
            # the prefix and v
            plan = _extension_plan(graph, level_colors, fixed + (w,))
            found = _search_map(graph, graph, plan, level_colors, fixed + (v,), deeper)
            if found is None:
                refuted.append(w)
                continue
            found = permmod._tuple_inverse(found)
            level_gens.append(found)
            for p, q in enumerate(found):
                a, b = class_of[p], class_of[q]
                if a != b:
                    if len(members[a]) < len(members[b]):
                        a, b = b, a
                    for x in members[b]:
                        class_of[x] = a
                    members[a] += members[b]
                    members[b] = []
        # v's class is its orbit under every generator found
        order *= len(members[class_of[v]])
        deeper += level_gens
        per_level.append((v, level_gens))
    return permmod.group_from_levels(graph.n, per_level[::-1], order)


def are_isomorphic(g1: Graph, g2: Graph):
    """A vertex bijection g1 -> g2 (as an image tuple), or None.

    Connected graphs whose diameters or multisets of per-row distance
    counts differ are not isomorphic, and are rejected before any root target is refined.
    Otherwise a root of g1 in a smallest degree-level cell is
    individualized once (``_individualize``), and its trace recorded; each
    target t of g2 in that cell is individualized against the trace and
    skipped at the first round that differs, since no isomorphism maps the
    root to it.  Every surviving target is searched with one plan, built at
    the first.  Refined colors only rule out maps that are no isomorphism,
    so the search returns the same first map it would find from the
    degree-level colors.

    Works for disconnected inputs by matching components.  Raises
    GraphTooLarge when either graph has more than AUTOMORPHISM_VERTEX_CAP
    vertices.
    """
    _check_search_cap(max(g1.n, g2.n))
    if g1.n != g2.n or g1.m != g2.m:
        return None
    if sorted(g1.degrees()) != sorted(g2.degrees()):
        return None
    if g1.n == 0:
        return ()
    if not g1.connected or not g2.connected:
        if g1.connected != g2.connected:
            return None
        return _match_components(g1, g2)

    # color ids are assigned in sorted-signature order at every stage, which
    # is label-independent, so isomorphic graphs get corresponding ids; on
    # non-isomorphic inputs ids may coincide spuriously, and the search then
    # simply fails on the real constraints
    colors1 = _refine(g1.adjacency, [0] * g1.n)
    colors2 = _refine(g2.adjacency, [0] * g2.n)
    if sorted(colors1) != sorted(colors2):
        return None
    cell_of = _cells(colors2)
    # branch on a smallest cell for the fewest root candidates
    root = min(range(g1.n), key=lambda u: (len(cell_of.get(colors1[u], ())), colors1[u], u))
    dist1, dist2 = graphmod.distance_matrix(g1), graphmod.distance_matrix(g2)
    # equal diameters give both tables the same row type; then the multiset
    # of per-row distance counts is an isomorphism invariant
    if graphmod.diameter(g1) != graphmod.diameter(g2):
        return None
    span = graphmod.diameter(g1) + 1
    if sorted(list(map(row.count, range(span))) for row in dist1) != sorted(
        list(map(row.count, range(span))) for row in dist2
    ):
        return None
    trace: list = []
    root_colors = _individualize(g1.adjacency, colors1, dist1[root], span, trace)
    plan = None
    for t in cell_of.get(colors1[root], ()):
        target_colors = _individualize(g2.adjacency, colors2, dist2[t], span, trace)
        if target_colors is None:
            continue  # refuted: no isomorphism maps root to t
        if plan is None:
            plan = _extension_plan(g1, root_colors, (root,))
        found = _search_map(g1, g2, plan, target_colors, (t,))
        if found is not None:
            return found
    return None


def _components(graph: Graph) -> list[list[int]]:
    seen: set[int] = set()
    comps = []
    for root in range(graph.n):
        if root in seen:
            continue
        comp = sorted(graphmod._bfs_reach(graph.adjacency, root))
        seen.update(comp)
        comps.append(comp)
    return comps


def _subgraph(graph: Graph, vertices: list[int]) -> Graph:
    """The subgraph induced on a union of components, relabeled in order."""
    index = {v: i for i, v in enumerate(vertices)}
    return graphmod.build_graph(
        len(vertices), [(index[u], index[w]) for u in vertices for w in graph.adjacency[u] if u < w]
    )


def _match_components(g1: Graph, g2: Graph):
    """Isomorphism between disconnected graphs by greedy component matching.

    Greedy is complete here: isomorphism between components is an equivalence
    relation, so any isomorphic partner is as good as any other.
    """
    verts1 = _components(g1)
    verts2 = _components(g2)
    comps1 = [_subgraph(g1, c) for c in verts1]
    comps2 = [_subgraph(g2, c) for c in verts2]
    unused = list(range(len(comps2)))
    mapping = [-1] * g1.n
    for i, sub1 in enumerate(comps1):
        for j in list(unused):
            sub_map = are_isomorphic(sub1, comps2[j])
            if sub_map is not None:
                for a, b in enumerate(sub_map):
                    mapping[verts1[i][a]] = verts2[j][b]
                unused.remove(j)
                break
        else:
            return None
    return tuple(mapping)


# ---------------------------------------------------------------------------
# transitivity
# ---------------------------------------------------------------------------

def validate_automorphisms(graph: Graph, group: PermGroup) -> None:
    """Raise NotAutomorphisms unless every generator preserves adjacency."""
    if group.degree != graph.n:
        raise NotAutomorphisms(
            f"group degree {group.degree} does not match {graph.n} vertices"
        )
    adjsets = graph.neighbor_sets()
    for g in group.generators:
        images = g.images
        for u, v in graph.edges():
            if images[v] not in adjsets[images[u]]:
                raise NotAutomorphisms(
                    f"generator {g.cycle_string()} breaks edge {{{u},{v}}}"
                )


def _level_transitive(group: PermGroup, path, i: int, total: int) -> bool:
    """True iff G is transitive on the ``total`` level-i tuples, of which
    ``path[:i+1]`` is one (orbit-stabilizer).

    An orbit size divides |G|, so no stabilizer is built when ``total`` does
    not (this covers ``total == 0``, where ``path`` may be None).  Otherwise
    one build for the whole path memoizes the stabilizer of every prefix.
    """
    order = group.order()
    if total == 0 or order % total:
        return False
    permmod.pointwise_stabilizer(group, path)
    return order == total * permmod.pointwise_stabilizer(group, path[: i + 1]).order()


def is_s_arc_transitive(graph: Graph, group: PermGroup, s: int) -> bool:
    """G transitive on the s-arcs (decided by orbit-size arithmetic)."""
    validate_automorphisms(graph, group)
    return _level_transitive(group, graphmod.first_arc(graph, s), s, graphmod.count_arcs(graph, s))


def is_s_geodesic_transitive(graph: Graph, group: PermGroup, s: int) -> bool:
    """G transitive on i-geodesics for every i <= s; False past the diameter,
    where there are no s-geodesics."""
    validate_automorphisms(graph, group)
    if s > graphmod.diameter(graph):
        return False
    path = graphmod.first_geodesic(graph, s)
    return all(
        _level_transitive(group, path, i, graphmod.count_geodesics(graph, i))
        for i in range(1, s + 1)
    )


@dataclass(frozen=True)
class TransitivityReport:
    """Largest arc- and geodesic-transitivity levels of (graph, group)."""

    arc_degree: int
    geodesic_degree: int
    geodesic_transitive: bool
    b_s_shortcut_used: bool
    shortcut_level: int | None = None
    arc_degree_capped: bool = False

    def to_json(self) -> dict:
        return asdict(self)


def transitivity_degrees(graph: Graph, group: PermGroup) -> TransitivityReport:
    """Ascending scan of both transitivity levels.

    Once level s is geodesic transitive and the globally defined b_s is at
    most 1, the graph is geodesic transitive outright and deeper levels are
    skipped (recorded in b_s_shortcut_used).
    """
    validate_automorphisms(graph, group)
    if not group.is_transitive():
        raise NotVertexTransitive("transitivity degrees need a vertex-transitive group")

    d = graphmod.diameter(graph)

    # cycles are s-arc transitive for every s under the dihedral group, so
    # the scan for valency <= 2 is capped at the diameter; otherwise it ends
    # at the latest once the s-arcs outnumber the group.  Every level reads
    # a prefix of one arc that reaches the last level.
    capped = graph.valency <= 2 if graph.is_regular() else False
    counts = []
    while (len(counts) < d) if capped else (not counts or counts[-1] <= group.order()):
        counts.append(graphmod.count_arcs(graph, len(counts) + 1))
    arc = graphmod.first_arc(graph, len(counts)) if counts else None
    arc_degree = 0
    while arc_degree < len(counts) and _level_transitive(
        group, arc, arc_degree + 1, counts[arc_degree]
    ):
        arc_degree += 1

    array = graphmod.intersection_array(graph) if graph.is_regular() else None
    geodesic = graphmod.first_geodesic(graph, d) if d else None
    geodesic_degree = 0
    geodesic_transitive = False
    shortcut_used = False
    shortcut_level = None
    for i in range(1, d + 1):
        if not _level_transitive(group, geodesic, i, graphmod.count_geodesics(graph, i)):
            break
        geodesic_degree = i
        if array is not None and (array.b[i] if i < array.diameter else 0) <= 1:
            geodesic_degree = d
            geodesic_transitive = True
            shortcut_used = True
            shortcut_level = i
            break
    if geodesic_degree == d:
        geodesic_transitive = True
    return TransitivityReport(
        arc_degree=arc_degree,
        geodesic_degree=geodesic_degree,
        geodesic_transitive=geodesic_transitive,
        b_s_shortcut_used=shortcut_used,
        shortcut_level=shortcut_level,
        arc_degree_capped=capped,
    )


# ---------------------------------------------------------------------------
# block systems and primitivity
# ---------------------------------------------------------------------------

def minimal_block_system(group: PermGroup, alpha: int, beta: int):
    """Finest G-congruence merging alpha and beta (as a block list)."""
    gens = group.walk()
    parent = list(range(group.degree))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    root_beta = find(beta)
    parent[root_beta] = find(alpha)
    queue = [beta]
    while queue:
        gamma = queue.pop()
        rep = find(gamma)
        for g in gens:
            d, e = g[gamma], g[rep]
            rd, re = find(d), find(e)
            if rd != re:
                parent[rd] = re
                queue.append(rd)
    cells = _cells([find(p) for p in range(group.degree)])
    return sorted((tuple(c) for c in cells.values()), key=lambda c: c[0])


def block_systems(group: PermGroup) -> list[tuple[tuple[int, ...], ...]]:
    """All distinct minimal nontrivial block systems of a transitive group."""
    if not group.is_transitive():
        raise NotTransitive("block systems need a transitive action")
    n = group.degree
    # the finest system merging 0 and beta depends only on beta's
    # G_0-orbit; suborbits are sorted by minimum, so {0} comes first
    suborbits = permmod.orbits(permmod.pointwise_stabilizer(group, [0]))
    systems = set()
    for beta, *_ in suborbits[1:]:
        blocks = minimal_block_system(group, 0, beta)
        if 1 < len(blocks[0]) < n:
            systems.add(tuple(blocks))
    return sorted(systems, key=lambda s: (len(s[0]), s))


def is_primitive(group: PermGroup) -> bool:
    return not block_systems(group)


@dataclass(frozen=True)
class QuasiprimitivityReport:
    quasiprimitive: bool
    witness: PermGroup | None  # an intransitive nontrivial normal subgroup

    def to_json(self) -> dict:
        return {
            "quasiprimitive": self.quasiprimitive,
            "witness": None if self.witness is None else self.witness.to_json(),
        }


def quasiprimitivity(group: PermGroup) -> QuasiprimitivityReport:
    """Every nontrivial normal subgroup transitive?  It suffices to test the
    minimal normal subgroups: orbits only coarsen in overgroups."""
    if not group.is_transitive():
        raise NotTransitive("quasiprimitivity needs a transitive action")
    minimals, _ = permmod.normal_structure(group)
    for m in minimals:
        if not m.is_transitive():
            return QuasiprimitivityReport(False, m)
    return QuasiprimitivityReport(True, None)


# ---------------------------------------------------------------------------
# bipartite analysis
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BipartiteSetting:
    delta1: tuple[int, ...]
    delta2: tuple[int, ...]
    g_plus: PermGroup
    biprimitive: bool
    biquasiprimitive: bool


@dataclass(frozen=True)
class ActionClass:
    """Primitivity ladder of (G, V) plus the bipartite data when applicable."""

    transitive: bool
    primitive: bool
    quasiprimitive: bool
    quasiprimitive_witness: PermGroup | None
    bipartite_setting: BipartiteSetting | None
    socle_tag: str | None
    x_omega: tuple[PermGroup, tuple[int, ...]] | None
    x_faithful: bool | None

    def to_json(self) -> dict:
        bip = self.bipartite_setting
        return {
            "transitive": self.transitive,
            "primitive": self.primitive,
            "quasiprimitive": self.quasiprimitive,
            "witness": None
            if self.quasiprimitive_witness is None
            else self.quasiprimitive_witness.to_json(),
            "biprimitive": None if bip is None else bip.biprimitive,
            "biquasiprimitive": None if bip is None else bip.biquasiprimitive,
            "socle_tag": self.socle_tag,
        }


def _is_simple(group: PermGroup) -> bool:
    if group.order() == 1:
        return False
    minimals, _ = permmod.normal_structure(group)
    return len(minimals) == 1 and minimals[0].order() == group.order()


def _socle_tag(x: PermGroup) -> str:
    minimals, socle = permmod.normal_structure(x)
    if not minimals:
        return "other"
    abelian = socle.is_abelian()
    regular = socle.is_transitive() and socle.order() == x.degree
    if abelian and regular:
        return "abelian-regular"
    # a minimal normal subgroup of order |x| is x, whose structure is cached
    m = x if minimals[0].order() == x.order() else minimals[0]
    if len(minimals) == 1 and not abelian and _is_simple(m):
        return "simple"
    if not abelian and regular:
        return "nonabelian-regular"
    if minimals and all(not m.is_abelian() for m in minimals):
        return "product-of-simples"
    return "other"


def bi_analysis(graph: Graph, group: PermGroup) -> ActionClass:
    """Primitivity/quasiprimitivity of G on V plus, when the graph is
    bipartite, the bipart stabilizer G+ with its (bi)primitivity flags."""
    validate_automorphisms(graph, group)
    if not graph.connected:
        raise Disconnected("bipartite analysis needs a connected graph")
    if not group.is_transitive():
        raise NotTransitive("bipartite analysis needs a vertex-transitive group")

    primitive = is_primitive(group)
    quasi = quasiprimitivity(group)

    setting = None
    parts = graphmod.bipartition(graph)
    if parts is not None:
        delta1, delta2 = parts
        _, g_plus = permmod.induced_action(group, [delta1, delta2])
        # G is transitive on V, so G+ is transitive on each bipart
        x1, faithful1 = permmod.restriction(g_plus, delta1)
        x2, _ = permmod.restriction(g_plus, delta2)
        biprimitive = is_primitive(x1) and is_primitive(x2)
        minimals, _ = permmod.normal_structure(group)
        orbit_counts = [len(permmod.orbits(m)) for m in minimals]
        biquasi = bool(minimals) and all(c <= 2 for c in orbit_counts) and any(
            c == 2 for c in orbit_counts
        )
        setting = BipartiteSetting(delta1, delta2, g_plus, biprimitive, biquasi)

    x_omega = None
    x_faithful = None
    socle_tag = None
    if quasi.quasiprimitive:
        x_omega = (group, tuple(range(graph.n)))
        x_faithful = True
        socle_tag = _socle_tag(group)
    elif setting is not None and setting.biquasiprimitive:
        x_omega = (x1, setting.delta1)
        x_faithful = faithful1
        socle_tag = _socle_tag(x1)

    return ActionClass(
        transitive=True,
        primitive=primitive,
        quasiprimitive=quasi.quasiprimitive,
        quasiprimitive_witness=quasi.witness,
        bipartite_setting=setting,
        socle_tag=socle_tag,
        x_omega=x_omega,
        x_faithful=x_faithful,
    )


# ---------------------------------------------------------------------------
# stabilizer structure (4-arc transitive graphs)
# ---------------------------------------------------------------------------

def _prime_power(q: int) -> tuple[int, int] | None:
    """(p, f) with q = p^f for a prime p, or None."""
    if q < 2:
        return None
    for p in range(2, q + 1):
        if p * p > q:
            return (q, 1)
        if q % p == 0:
            f = 0
            rest = q
            while rest % p == 0:
                rest //= p
                f += 1
            return (p, f) if rest == 1 else None
    return None


def _gl2_order(q: int) -> int:
    return (q * q - 1) * (q * q - q)


def _pgl2_order(q: int) -> int:
    return q**3 - q


@dataclass(frozen=True)
class WeissReport:
    """Vertex-stabilizer order checked against the admissible shapes for
    highly arc-transitive graphs, plus the b_0 b_1 ... b_s divisibility."""

    s: int
    valency: int
    q: int
    p: int
    f: int
    stabilizer_order: int
    b_levels: tuple[int | None, ...]
    product: int | None
    product_terms: int
    divides: bool | None
    kernel_order: int
    kernel_is_p_group: bool
    case: str | None
    matched: bool | None
    parameter: int | None

    def to_json(self) -> dict:
        return asdict(self)


def weiss_divisibility_check(graph: Graph, group: PermGroup, s: int) -> WeissReport:
    """Stabilizer arithmetic for an s-arc transitive graph, s >= 4.

    Verifies s-arc transitivity first (PreconditionUnverified otherwise),
    reports |G_u|, the product of the leading b_i, its divisibility into
    |G_u|, whether the kernel of G_uv on the neighborhood of v is a p-group,
    and the match against the admissible stabilizer orders
    (s=4: q^2 ((q-1)/(3,q-1)) |PGL(2,q)| |o| with |o| dividing (3,q-1) f;
    s=5: q^3 |GL(2,q)| e with e | f and p = 2;
    s=7: q^5 |GL(2,q)| e with e | f and p = 3).
    """
    if s < 4:
        raise PreconditionUnverified("s >= 4", f"got s={s}")
    validate_automorphisms(graph, group)
    k = graph.valency  # NotRegular on irregular graphs
    pf = _prime_power(k - 1)
    if pf is None:
        raise ValencyNotPrimePowerPlusOne(f"valency {k} is not q+1 for a prime power q")
    q = k - 1
    p, f = pf
    arc = graphmod.first_arc(graph, s)
    if not _level_transitive(group, arc, s, graphmod.count_arcs(graph, s)):
        raise PreconditionUnverified(
            "s-arc transitivity",
            f"(G,{s})-arc transitivity does not hold (diameter {graphmod.diameter(graph)})",
        )

    # the arc's chain memoized G_u for its first vertex u
    u, v = arc[0], arc[1]
    gu = permmod.pointwise_stabilizer(group, [u]).order()

    array = graphmod.intersection_array(graph)
    b_levels: list[int | None] = []
    if array is None:
        b_levels = [None] * (s + 1)
    else:
        for i in range(s + 1):
            b_levels.append(array.b[i] if i < array.diameter else 0)
    product = None
    terms = 0
    for b in b_levels:
        if b is None or b <= 0:
            break
        product = b if product is None else product * b
        terms += 1
    divides = None if product is None else gu % product == 0

    # kernel of G_uv acting on the neighborhood of v, for the edge (u, v)
    kernel = permmod.pointwise_stabilizer(group, [u, v] + list(graph.adjacency[v]))
    korder = kernel.order()
    kernel_is_p = korder == 1 or _is_power_of(korder, p)

    case = None
    matched = None
    parameter = None
    if s == 4:
        case = "s4"
        base = q * q * ((q - 1) // math.gcd(3, q - 1)) * _pgl2_order(q)
        matched, parameter = _match_extension(gu, base, math.gcd(3, q - 1) * f)
    elif s == 5:
        case = "s5"
        base = q**3 * _gl2_order(q)
        matched, parameter = _match_extension(gu, base, f)
        matched = matched and p == 2
    elif s == 7:
        case = "s7"
        base = q**5 * _gl2_order(q)
        matched, parameter = _match_extension(gu, base, f)
        matched = matched and p == 3

    return WeissReport(
        s=s,
        valency=k,
        q=q,
        p=p,
        f=f,
        stabilizer_order=gu,
        b_levels=tuple(b_levels),
        product=product,
        product_terms=terms,
        divides=divides,
        kernel_order=korder,
        kernel_is_p_group=kernel_is_p,
        case=case,
        matched=matched,
        parameter=parameter,
    )


def _is_power_of(value: int, p: int) -> bool:
    while value % p == 0:
        value //= p
    return value == 1


def _match_extension(gu: int, base: int, divisor_bound: int) -> tuple[bool, int | None]:
    """gu == base * e for an integer e >= 1 dividing divisor_bound?"""
    if base <= 0 or gu % base:
        return False, None
    e = gu // base
    return divisor_bound % e == 0, e
