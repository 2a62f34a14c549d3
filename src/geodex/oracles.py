"""Independent brute-force references for the verification suite.

Everything here is deliberately naive: an orbit-stabilizer count of
automorphisms whose orbit tests are a vertex-by-vertex permutation backtrack
that checks only degrees and adjacency among mapped vertices, DFS cycle
scans, Floyd-Warshall distances, plain multiplication closure (optionally
abandoned as soon as it holds more elements than a size cap), and
conjugation by every element of a listed group.  These implementations share
no code paths with the production engines they check.
"""

from __future__ import annotations

import itertools

from .graph import Graph


def brute_force_automorphism_count(graph: Graph) -> int:
    """Count automorphisms by orbit-stabilizer: |Aut| is the product over
    k = 0, ..., n-1 of the orbit length of k under the automorphisms that fix
    0, ..., k-1.

    With 0..k-1 fixed, each target t >= k is in the orbit of k when some
    automorphism extends the partial map i -> i (i < k), k -> t.  That is
    decided by a plain vertex-by-vertex backtrack that stops at its first
    full map: vertex u is mapped to each unused target in ``range(n)``
    order, and a partial map is dropped as soon as an edge or a non-edge
    among its mapped vertices is broken.  The only invariant used is the
    degree: u is mapped only to targets of the same degree, which no
    automorphism can break.  No colours, distances or search order are used.
    """
    n = graph.n
    adjsets = graph.neighbor_sets()
    degree = [len(nbrs) for nbrs in adjsets]
    image = [0] * n
    used = [False] * n

    def extends(u: int, t: int) -> bool:
        """Whether some automorphism extends image[:u] by u -> t."""
        if used[t] or degree[t] != degree[u]:
            return False
        nbrs = adjsets[u]
        tnbrs = adjsets[t]
        for q in range(u):
            if (q in nbrs) != (image[q] in tnbrs):
                return False
        if u + 1 == n:
            return True
        image[u] = t
        used[t] = True
        found = False
        for w in range(n):
            if extends(u + 1, w):
                found = True
                break
        used[t] = False
        return found

    order = 1
    for k in range(n):
        order *= sum(extends(k, t) for t in range(k, n))
        image[k] = k
        used[k] = True
    return order


def naive_girth(graph: Graph) -> int | None:
    """Shortest cycle length by DFS over all cycles (None for forests).

    Each cycle is found from its least vertex; the search prunes paths that
    are already as long as the current best.
    """
    n = graph.n
    adjacency = graph.adjacency
    best: int | None = None
    for root in range(n):
        stack = [(root, w, {root, w}) for w in adjacency[root] if w > root]
        while stack:
            prev, cur, seen = stack.pop()
            if best is not None and len(seen) >= best:
                continue
            for w in adjacency[cur]:
                if w == root and prev != root:
                    if best is None or len(seen) < best:
                        best = len(seen)
                elif w > root and w not in seen:
                    stack.append((cur, w, seen | {w}))
    return best


def floyd_warshall(graph: Graph):
    """All-pairs distances (None for unreachable) by the cubic recurrence."""
    n = graph.n
    inf = float("inf")
    dist = [[0 if i == j else inf for j in range(n)] for i in range(n)]
    for u, v in graph.edges():
        dist[u][v] = dist[v][u] = 1
    for k in range(n):
        dk = dist[k]
        for i in range(n):
            dik = dist[i][k]
            if dik == inf:
                continue
            di = dist[i]
            for j in range(n):
                alt = dik + dk[j]
                if alt < di[j]:
                    di[j] = alt
    return dist


def naive_diameter(graph: Graph) -> int:
    dist = floyd_warshall(graph)
    flat = [d for row in dist for d in row]
    if any(d == float("inf") for d in flat):
        raise ValueError("disconnected")
    return int(max(flat))


def recursive_arcs(graph: Graph, s: int) -> list[tuple[int, ...]]:
    """All s-arcs by plain recursion."""
    out: list[tuple[int, ...]] = []

    def extend(path):
        if len(path) == s + 1:
            out.append(tuple(path))
            return
        for w in graph.adjacency[path[-1]]:
            if len(path) < 2 or w != path[-2]:
                extend(path + [w])

    for u in range(graph.n):
        extend([u])
    return out


def geodesics_by_filter(graph: Graph, s: int) -> list[tuple[int, ...]]:
    """All s-geodesics: recursive s-arcs filtered by Floyd-Warshall distance."""
    dist = floyd_warshall(graph)
    return [arc for arc in recursive_arcs(graph, s) if dist[arc[0]][arc[-1]] == s]


def _tuple_product(e, g):
    """e, then g, on image tuples."""
    return tuple(map(g.__getitem__, e))


def _closure(gens, identity, product, cap: int | None = None) -> set | None:
    """Every product of ``gens``, by breadth-first multiplication from
    ``identity``, where ``product(e, g)`` is e, then g; None as soon as the
    set holds more than ``cap``."""
    limit = float("inf") if cap is None else cap
    elements = {identity}
    if len(elements) > limit:
        return None
    frontier = list(elements)
    while frontier:
        fresh = []
        for e in frontier:
            for g in gens:
                prod = product(e, g)
                if prod not in elements:
                    elements.add(prod)
                    if len(elements) > limit:
                        return None
                    fresh.append(prod)
        frontier = fresh
    return elements


def _generated(elements, n: int) -> set:
    """The subgroup generated by ``elements``: the closure of those that each
    fall outside the closure of the ones kept before them."""
    kept = []
    identity = tuple(range(n))
    closure = {identity}
    for x in elements:
        if x not in closure:
            kept.append(x)
            closure = _closure(kept, identity, _tuple_product)
    return closure


def multiplication_closure_order(generators, cap: int | None = None) -> int | None:
    """Group order by closing the generator set under multiplication.

    With ``cap``, gives up and returns None as soon as more than ``cap``
    elements are found (the identity counts), so the order is known to
    exceed ``cap``; at most ``cap + 1`` elements are ever held.

    Up to 256 points an element is bytes, one image per byte, and e, then g
    is one ``bytes.translate`` of e through g's images padded with the
    identity to the 256 bytes of a translation table.
    """
    images = [tuple(g.images) for g in generators]
    n = len(images[0]) if images else 0
    if n <= 256:
        pad = bytes(range(n, 256))
        tables = [bytes(g) + pad for g in images]
        elements = _closure(tables, bytes(range(n)), bytes.translate, cap)
    else:
        elements = _closure(images, tuple(range(n)), _tuple_product, cap)
    return None if elements is None else len(elements)


def minimal_normal_subgroups(generators, cap: int) -> list[frozenset] | None:
    """The minimal normal subgroups as sets of image tuples, smallest first;
    None when the group has more than ``cap`` elements.

    The group is listed by multiplication closure.  The class of x is
    {g^-1 x g} over every element g, and its normal closure is the subgroup
    it generates.  The inclusion-minimal closures of nontrivial classes are
    returned.
    """
    gens = [tuple(g.images) for g in generators]
    n = len(gens[0]) if gens else 0
    identity = tuple(range(n))
    elements = _closure(gens, identity, _tuple_product, cap)
    if elements is None:
        return None
    pairs = [(g, tuple(sorted(range(n), key=g.__getitem__))) for g in elements]
    unseen = set(elements) - {identity}
    closures = set()
    while unseen:
        x = min(unseen)
        # apply g^-1, then x, then g
        cls = {tuple(g[x[g_inv[i]]] for i in range(n)) for g, g_inv in pairs}
        unseen -= cls
        closures.add(frozenset(_generated(sorted(cls), n)))
    minimal = [c for c in closures if not any(other < c for other in closures)]
    return sorted(minimal, key=lambda c: (len(c), sorted(c)))


def all_labeled_connected_graphs(max_n: int):
    """Every labeled connected graph with 1..max_n vertices (2^C(n,2) scans)."""
    from .graph import build_graph

    for n in range(1, max_n + 1):
        pairs = list(itertools.combinations(range(n), 2))
        for mask in range(1 << len(pairs)):
            edges = [pairs[i] for i in range(len(pairs)) if mask >> i & 1]
            graph = build_graph(n, edges)
            if graph.connected:
                yield graph
