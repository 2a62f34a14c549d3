"""The automorphism/isomorphism backtrack against a reference copy of its
earlier form, and against networkx; the deepest-first level order against
the top-down pass, and its one search rule against the earlier two-rule
loop; searches pruned by known automorphisms against the same searches
unpruned; the order it counts and the chain it reads off its levels
against a Schreier-Sims chain; the plans its
callers build (one per set of mapped sources, none kept in a graph); and
its set-up (extension plan, individualization, refinement,
distances) against reference copies and the Floyd-Warshall oracle."""

from __future__ import annotations

import functools
import random
import sys
from operator import itemgetter
from unittest import mock

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from geodex import graph as graphmod
from geodex import oracles
from geodex import symmetry as S
from geodex import verify
from geodex.atlas import atlas_get, atlas_list, pg2_incidence, symplectic_quadrangle
from geodex.graph import build_graph
from geodex.perm import Permutation, build_group


@functools.lru_cache(maxsize=64)
def _reference_distances(graph):
    return oracles.floyd_warshall(graph)


def _search(g1, g2, colors1, colors2, seeds, known=()):
    """``_search_map`` from seed pairs (source, target): the plan of the
    seeds' sources under ``colors1``, and the sources' images."""
    plan = S._extension_plan(g1, colors1, [u for u, _ in seeds])
    return S._search_map(g1, g2, plan, colors2, [t for _, t in seeds], known)


def _reference_search_map(g1, g2, colors1, colors2, seeds):
    """The search as it was before its extension order was computed once:
    a per-node argmax over every vertex, kept as the reference.  Its
    distances come from the Floyd-Warshall oracle, not the library's BFS."""
    n = g1.n
    if g2.n != n:
        return None
    adj1, adj2 = g1.adjacency, g2.adjacency
    dist1, dist2 = _reference_distances(g1), _reference_distances(g2)

    mapping = [-1] * n
    used = [False] * g2.n
    mapped: list[int] = []
    nbr_mapped = [0] * n  # per source vertex: how many neighbors are mapped

    def assign(u, t) -> bool:
        if mapping[u] != -1:
            return mapping[u] == t
        if used[t] or colors1[u] != colors2[t]:
            return False
        d1u = dist1[u]
        d2t = dist2[t]
        for q in mapped:
            if d1u[q] != d2t[mapping[q]]:
                return False
        mapping[u] = t
        used[t] = True
        mapped.append(u)
        for w in adj1[u]:
            nbr_mapped[w] += 1
        return True

    def unassign_to(size) -> None:
        while len(mapped) > size:
            u = mapped.pop()
            used[mapping[u]] = False
            mapping[u] = -1
            for w in adj1[u]:
                nbr_mapped[w] -= 1

    for u, t in seeds:
        if not assign(u, t):
            return None

    def extend() -> bool:
        if len(mapped) == n:
            return True
        u = -1
        best = 0
        for v in range(n):
            if mapping[v] == -1 and nbr_mapped[v] > best:
                best = nbr_mapped[v]
                u = v
        anchor = next(q for q in adj1[u] if mapping[q] != -1)
        checkpoint = len(mapped)
        for t in adj2[mapping[anchor]]:
            if assign(u, t):
                if extend():
                    return True
                unassign_to(checkpoint)
        return False

    if not extend():
        return None
    result = tuple(mapping)
    adjsets2 = g2.neighbor_sets()
    for u in range(n):
        for w in adj1[u]:
            if result[w] not in adjsets2[result[u]]:
                raise AssertionError("search produced a non-isomorphism")
    return result


@st.composite
def connected_graphs(draw, max_n=10):
    """A random spanning tree plus random extra edges."""
    n = draw(st.integers(min_value=1, max_value=max_n))
    edges = {(draw(st.integers(0, v - 1)), v) for v in range(1, n)}
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    if pairs:
        edges |= draw(st.sets(st.sampled_from(pairs)))
    return build_graph(n, edges)


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(connected_graphs(), st.data())
def test_search_matches_reference(graph, data):
    n = graph.n
    images = data.draw(st.permutations(range(n)))
    copy = build_graph(n, [(images[u], images[v]) for u, v in graph.edges()])
    if data.draw(st.booleans()):
        # one color-matched pair between the graph and its copy, as are_isomorphic seeds
        g2 = copy
        colors1 = S._refine(graph.adjacency, [0] * n)
        colors2 = S._refine(copy.adjacency, [0] * n)
        u = data.draw(st.integers(0, n - 1))
        cell = [t for t in range(n) if colors2[t] == colors1[u]]
        seeds = [(u, data.draw(st.sampled_from(cell)))]
    else:
        # fixed points plus one pair inside the refined cell of v, as automorphism_group seeds
        g2 = graph
        fixed = data.draw(st.lists(st.integers(0, n - 1), unique=True, max_size=n - 1))
        work = S._refine(graph.adjacency, [0] * n)
        for shift, f in enumerate(fixed, n):
            work[f] = shift
        colors1 = colors2 = S._refine(graph.adjacency, work)
        v = data.draw(st.sampled_from([u for u in range(n) if u not in fixed]))
        cell = [w for w in range(n) if colors1[w] == colors1[v]]
        seeds = [(f, f) for f in fixed] + [(v, data.draw(st.sampled_from(cell)))]
    want = _reference_search_map(graph, g2, colors1, colors2, seeds)
    assert _search(graph, g2, colors1, colors2, seeds) == want


@pytest.fixture
def order_builds(monkeypatch):
    """A list that gains the mapped sources of every extension-plan build."""
    builds = []
    original = S._extension_plan

    def counted(graph, colors, sources):
        builds.append(tuple(sources))
        return original(graph, colors, sources)

    monkeypatch.setattr(S, "_extension_plan", counted)
    return builds


#: every key ``graph._cache`` may hold: invariants of the graph, and the
#: padded distance rows of ``symmetry._distance_probe``, never a search plan
GRAPH_INVARIANTS = {
    "adjsets", "arcs", "connected", "diameter", "distmat", "geodesics", "girth",
    "intersection_array", "probe_rows",
}


def test_one_extension_order_per_level(order_builds, monkeypatch):
    calls = []
    original = S._search_map

    def counted(g1, g2, plan, colors2, images, known=()):
        calls.append((plan, tuple(images), [tuple(g) for g in known]))
        return original(g1, g2, plan, colors2, images, known)

    monkeypatch.setattr(S, "_search_map", counted)
    for name, order in (("foster", 4320), ("hexagon-q2", 12096)):
        graph = atlas_get(name).graph  # a fresh graph with an empty cache
        calls.clear()
        order_builds.clear()
        group = S.automorphism_group(graph)
        assert group.order() == order
        gens = [g.images for g in group.generators]
        levels = {fixed + (v,): branch for fixed, _, branch, v in S._base_levels(graph)}
        # every search builds its own plan, just before it runs: its sources
        # are the prefix plus the target, its images the prefix plus the
        # branch vertex
        assert len(order_builds) == len(calls)
        for sources, (plan, images, known) in zip(order_builds, calls):
            assert tuple(u for u, _, _, _ in plan[: len(images)]) == sources
            assert sources[:-1] == images[:-1] and sources[-1] in levels[images]
            assert sources[-1] != images[-1]
            # ``known`` is the deeper levels' generators: every generator
            # found fixes its level's prefix and moves the branch vertex
            assert sorted(known) == sorted(g for g in gens if all(g[p] == p for p in images))
        # the deepest levels search before any generator is found
        empty = [not known for _, _, known in calls]
        assert empty[0] and not empty[-1] and empty == sorted(empty, reverse=True)
        # ``calls`` keeps every plan alive, so no two share an id
        assert len({id(plan) for plan, _, _ in calls}) == len(calls)
        assert set(graph._cache) <= GRAPH_INVARIANTS  # no plan is kept
    # hexagon-q2's deepest level searches twice, with two plans
    deepest = [images for _, images, known in calls if not known]
    assert len(deepest) > len(set(deepest))


@pytest.fixture
def searches(monkeypatch):
    """A list that gains the seed pairs of every ``_search_map`` call."""
    calls = []
    original = S._search_map

    def counted(g1, g2, plan, colors2, images, known=()):
        calls.append([(u, t) for (u, _, _, _), t in zip(plan, images)])  # sources, images
        return original(g1, g2, plan, colors2, images, known)

    monkeypatch.setattr(S, "_search_map", counted)
    return calls


@pytest.fixture
def traced_refinements(monkeypatch):
    """A list that gains one entry per ``_refine`` call made with a trace."""
    calls = []
    original = S._refine

    def counted(adjacency, colors, trace=None):
        if trace is not None:
            calls.append(len(adjacency))
        return original(adjacency, colors, trace)

    monkeypatch.setattr(S, "_refine", counted)
    return calls


def test_one_extension_order_per_isomorphism_test(order_builds, searches, traced_refinements):
    foster = atlas_get("foster").graph
    images = list(range(foster.n))
    random.Random(90).shuffle(images)
    relabeled = build_graph(foster.n, [(images[u], images[v]) for u, v in foster.edges()])
    assert S.are_isomorphic(atlas_get("foster").graph, relabeled) is not None
    assert order_builds == [(0,)]
    # swapping two edges makes a 9-cycle, which changes the distance profile:
    # the pair is rejected before any root target is refined or searched
    swapped = build_graph(foster.n, set(foster.edges()) - {(0, 1), (2, 3)} | {(0, 2), (1, 3)})
    assert graphmod.girth(swapped) == 9
    searches.clear()
    traced_refinements.clear()
    assert S.are_isomorphic(atlas_get("foster").graph, swapped) is None
    assert traced_refinements == []
    assert searches == []


@pytest.mark.parametrize("name", ["foster", "hexagon-q2", "W(3)"])
def test_searches_keep_no_plan_in_the_graph(name):
    base = atlas_get(name).graph
    graph = build_graph(base.n, base.edges())  # an empty cache
    relabeled = _relabeled(base, name)
    S.automorphism_group(graph)
    assert S.are_isomorphic(graph, relabeled) is not None
    assert S.are_isomorphic(relabeled, graph) is not None
    for g in (graph, relabeled):
        assert g._cache and set(g._cache) <= GRAPH_INVARIANTS


def _shrikhande():
    """Cayley graph of Z4 x Z4 on {±(1,0), ±(0,1), ±(1,1)}."""
    steps = [(1, 0), (0, 1), (1, 1)]
    return build_graph(16, {
        (4 * a + b, 4 * ((a + da) % 4) + (b + db) % 4)
        for a in range(4) for b in range(4) for da, db in steps
    })


def _rook_4x4():
    """K4 x K4: cells of a 4x4 board, adjacent when in one row or column."""
    return build_graph(16, [
        (u, v) for u in range(16) for v in range(u + 1, 16)
        if (u // 4 == v // 4) != (u % 4 == v % 4)
    ])


def test_equal_distance_profiles_reach_the_search(searches, traced_refinements):
    # both are srg(16, 6, 2, 2): same degrees, same distance profile, and the
    # distance partition from any vertex is already equitable, so no root
    # target is refuted before its search
    shrikhande, rook = _shrikhande(), _rook_4x4()
    assert _sorted_row_profile(shrikhande) == _sorted_row_profile(rook)
    assert S.are_isomorphic(shrikhande, rook) is None
    assert len(traced_refinements) == 1 + 16
    assert sorted(t for (_, t), in searches) == list(range(16))
    nx = pytest.importorskip("networkx")
    hx = [nx.Graph(list(g.edges())) for g in (shrikhande, rook)]
    assert not nx.is_isomorphic(*hx)


def _sorted_row_profile(graph):
    """The distance profile as it was compared before it counted distances
    per row: the multiset of sorted distance rows, kept as the reference."""
    return sorted(map(sorted, graphmod.distance_matrix(graph)))


def _assert_profile_gate_matches_reference(g1, g2, traced_refinements):
    """``are_isomorphic(g1, g2)`` (g1 connected) refines its root iff the pair
    passes the checks before the profile and the reference profiles agree."""
    traced_refinements.clear()
    S.are_isomorphic(g1, g2)
    before_profile = (
        g1.n == g2.n
        and g1.m == g2.m
        and g2.connected
        and sorted(g1.degrees()) == sorted(g2.degrees())
        and sorted(S._refine(g1.adjacency, [0] * g1.n))
        == sorted(S._refine(g2.adjacency, [0] * g2.n))
    )
    want = before_profile and _sorted_row_profile(g1) == _sorted_row_profile(g2)
    assert bool(traced_refinements) == want


@settings(
    max_examples=200,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.function_scoped_fixture],
)
@given(connected_graphs(max_n=12), st.data())
def test_distance_counts_reject_the_pairs_sorted_rows_reject(traced_refinements, graph, data):
    n = graph.n
    others = [
        _relabel(graph, data.draw(st.permutations(range(n)))),
        data.draw(connected_graphs(max_n=12)),
    ]
    edges = sorted(graph.edges())
    if len(edges) >= 2:
        pair = st.lists(st.sampled_from(edges), min_size=2, max_size=2, unique=True)
        (a, b), (c, d) = data.draw(pair)
        if data.draw(st.booleans()):
            c, d = d, c
        swapped = _swap(graph, a, b, c, d)
        if swapped is not None:
            others.append(_relabel(swapped, data.draw(st.permutations(range(n)))))
    for other in others:
        _assert_profile_gate_matches_reference(graph, other, traced_refinements)


@pytest.mark.parametrize("name", atlas_list())
def test_distance_counts_reject_the_pairs_sorted_rows_reject_on_catalog(traced_refinements, name):
    graph = atlas_get(name).graph
    rng = random.Random(name)
    edges = sorted(graph.edges())
    for _ in range(4):
        images = list(range(graph.n))
        rng.shuffle(images)
        _assert_profile_gate_matches_reference(graph, _relabel(graph, images), traced_refinements)
        (a, b), (c, d) = rng.sample(edges, 2)
        swapped = _swap(graph, a, b, c, d)
        if swapped is not None and swapped.connected:
            _assert_profile_gate_matches_reference(graph, swapped, traced_refinements)


# ---------------------------------------------------------------------------
# root targets refuted by refinement
# ---------------------------------------------------------------------------

def _reference_are_isomorphic(g1, g2):
    """The isomorphism test of a connected g1 as it was before refinement
    refuted root targets: every target in the root's cell is searched, with
    the degree-level colors."""
    if g1.n != g2.n or g1.m != g2.m or not g2.connected:
        return None
    if sorted(g1.degrees()) != sorted(g2.degrees()):
        return None
    colors1 = S._refine(g1.adjacency, [0] * g1.n)
    colors2 = S._refine(g2.adjacency, [0] * g2.n)
    if sorted(colors1) != sorted(colors2):
        return None
    cell_of: dict[int, list[int]] = {}
    for t, c in enumerate(colors2):
        cell_of.setdefault(c, []).append(t)
    root = min(range(g1.n), key=lambda u: (len(cell_of.get(colors1[u], ())), colors1[u], u))
    for t in cell_of.get(colors1[root], ()):
        found = _reference_search_map(g1, g2, colors1, colors2, [(root, t)])
        if found is not None:
            return found
    return None


def _relabel(graph, images):
    return build_graph(graph.n, [(images[u], images[v]) for u, v in graph.edges()])


def _swap(graph, a, b, c, d):
    """Edges {a,b} and {c,d} replaced by {a,c} and {b,d}, which keeps every
    degree, or None when that is no simple graph with the same edge count."""
    if len({a, b, c, d}) < 4 or graph.has_edge(a, c) or graph.has_edge(b, d):
        return None
    edges = set(graph.edges()) - {(min(a, b), max(a, b)), (min(c, d), max(c, d))}
    return build_graph(graph.n, edges | {(min(a, c), max(a, c)), (min(b, d), max(b, d))})


@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(connected_graphs(max_n=12), st.data())
def test_pruned_root_loop_matches_reference(graph, data):
    n = graph.n
    relabeled = _relabel(graph, data.draw(st.permutations(range(n))))
    edges = sorted(graph.edges())
    others = [relabeled]
    if len(edges) >= 2:
        pair = st.lists(st.sampled_from(edges), min_size=2, max_size=2, unique=True)
        (a, b), (c, d) = data.draw(pair)
        if data.draw(st.booleans()):
            c, d = d, c
        swapped = _swap(graph, a, b, c, d)
        if swapped is not None:
            others.append(_relabel(swapped, data.draw(st.permutations(range(n)))))
    for other in others:
        assert S.are_isomorphic(graph, other) == _reference_are_isomorphic(graph, other)


@pytest.mark.parametrize("name", ["petersen", "heawood", "desargues", "tutte-coxeter"])
def test_pruned_root_loop_matches_reference_on_catalog(name):
    rng = random.Random(name)
    base = atlas_get(name).graph
    edges = sorted(base.edges())
    for _ in range(2):
        images = list(range(base.n))
        rng.shuffle(images)
        swapped = None
        while swapped is None:
            (a, b), (c, d) = rng.sample(edges, 2)
            swapped = _swap(base, a, b, c, d)
        for other in (_relabel(base, images), _relabel(swapped, images)):
            assert S.are_isomorphic(base, other) == _reference_are_isomorphic(base, other)


def _distance_seed(graph, colors, v):
    return list(zip(colors, graphmod.distance_matrix(graph)[v]))


def _partition(colors):
    cells: dict = {}
    for u, c in enumerate(colors):
        cells.setdefault(c, set()).add(u)
    return {frozenset(cell) for cell in cells.values()}


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(connected_graphs(max_n=12), st.data())
def test_traced_refinement_is_label_independent(graph, data):
    n = graph.n
    images = data.draw(st.permutations(range(n)))
    relabeled = _relabel(graph, images)
    v = data.draw(st.integers(0, n - 1))
    base = S._refine(graph.adjacency, [0] * n)
    seed = _distance_seed(graph, base, v)

    trace: list = []
    colors = S._refine(graph.adjacency, seed, trace)
    # a trace changes nothing about the colors it records
    assert colors == S._refine(graph.adjacency, seed)

    # sigma(v) in sigma(g) leaves the same trace, with corresponding colors
    relabeled_base = S._refine(relabeled.adjacency, [0] * n)
    relabeled_seed = _distance_seed(relabeled, relabeled_base, images[v])
    relabeled_trace: list = []
    relabeled_colors = S._refine(relabeled.adjacency, relabeled_seed, relabeled_trace)
    assert relabeled_trace == trace
    assert all(relabeled_colors[images[u]] == colors[u] for u in range(n))
    # refined against the recorded trace, it passes and leaves the trace as it was
    recorded = list(trace)
    assert S._refine(relabeled.adjacency, relabeled_seed, trace) == relabeled_colors
    assert trace == recorded

    # distances reach the partition of individualizing v and refining
    individualized = list(base)
    individualized[v] = n
    assert _partition(colors) == _partition(S._refine(graph.adjacency, individualized))


def _tuple_individualize(adjacency, colors, row, trace=None):
    """Individualization as the isomorphism test seeded it before one rule
    served both entry points: (color, distance) pairs, kept as the reference."""
    return S._refine(adjacency, list(zip(colors, row)), trace)


def _assert_individualize_matches_tuple_seeds(g1, g2, colors1, colors2):
    """Equal colors, id for id, from every vertex of g1 and g2, and the same
    trace verdict for every (root of g1, target of g2) pair."""
    span = max(graphmod.diameter(g1), graphmod.diameter(g2)) + 1
    for graph, colors in ((g1, colors1), (g2, colors2)):
        dist = graphmod.distance_matrix(graph)
        for v in range(graph.n):
            want = _tuple_individualize(graph.adjacency, colors, dist[v])
            assert S._individualize(graph.adjacency, colors, dist[v], span) == want
    dist1, dist2 = graphmod.distance_matrix(g1), graphmod.distance_matrix(g2)
    for root in range(g1.n):
        trace: list = []
        want_trace: list = []
        S._individualize(g1.adjacency, colors1, dist1[root], span, trace)
        _tuple_individualize(g1.adjacency, colors1, dist1[root], want_trace)
        for t in range(g2.n):
            got = S._individualize(g2.adjacency, colors2, dist2[t], span, trace)
            want = _tuple_individualize(g2.adjacency, colors2, dist2[t], want_trace)
            assert got == want
            assert len(trace) == len(want_trace)


@settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(connected_graphs(max_n=10), st.data())
def test_individualize_matches_tuple_seeds(graph, data):
    n = graph.n
    other = data.draw(st.sampled_from([
        _relabel(graph, data.draw(st.permutations(range(n)))),
        data.draw(connected_graphs(max_n=10)),
    ]))
    if data.draw(st.booleans()):
        colors1 = S._refine(graph.adjacency, [0] * n)
        colors2 = S._refine(other.adjacency, [0] * other.n)
    else:
        colors1 = data.draw(st.lists(st.integers(0, 3), min_size=n, max_size=n))
        colors2 = data.draw(st.lists(st.integers(0, 3), min_size=other.n, max_size=other.n))
    _assert_individualize_matches_tuple_seeds(graph, other, colors1, colors2)


def test_individualize_matches_tuple_seeds_on_shrikhande_and_rook():
    shrikhande, rook = _shrikhande(), _rook_4x4()
    colors = [0] * 16
    for g1, g2 in ((shrikhande, rook), (rook, shrikhande), (shrikhande, shrikhande)):
        _assert_individualize_matches_tuple_seeds(g1, g2, colors, colors)


# ---------------------------------------------------------------------------
# differential tests against networkx
# ---------------------------------------------------------------------------

def _from_nx(hx):
    return build_graph(hx.number_of_nodes(), list(hx.edges()))


@pytest.mark.parametrize("degree,n", [(3, 10), (3, 14), (4, 11), (3, 20), (5, 12)])
def test_isomorphism_agrees_with_networkx(degree, n):
    nx = pytest.importorskip("networkx")
    rng = random.Random(degree * 100 + n)
    for seed in range(4):
        hx = nx.random_regular_graph(degree, n, seed=1000 * n + seed)
        g = _from_nx(hx)
        # yes: a relabeling
        images = list(range(n))
        rng.shuffle(images)
        relabeled = nx.relabel_nodes(hx, dict(enumerate(images)))
        copy = _from_nx(relabeled)
        found = S.are_isomorphic(g, copy)
        assert nx.is_isomorphic(hx, relabeled)
        assert found is not None and sorted(found) == list(range(n))
        assert all(copy.has_edge(found[u], found[v]) for u, v in g.edges())
        # no: one edge swap, which keeps the degree sequence
        swapped = hx.copy()
        nx.double_edge_swap(swapped, nswap=1, max_tries=1000, seed=seed)
        assert sorted(d for _, d in swapped.degree()) == sorted(d for _, d in hx.degree())
        assert not nx.is_isomorphic(hx, swapped)
        assert S.are_isomorphic(g, _from_nx(swapped)) is None


def _vertex_transitive_graphs(nx):
    integer = nx.convert_node_labels_to_integers
    return {
        "petersen": nx.petersen_graph(),
        "C12": nx.cycle_graph(12),
        "K6": nx.complete_graph(6),
        "K4,4": nx.complete_bipartite_graph(4, 4),
        "Q3": integer(nx.hypercube_graph(3)),
        "prism6": nx.circular_ladder_graph(6),
        "octahedron": nx.octahedral_graph(),
        "icosahedron": nx.icosahedral_graph(),
        "truncated tetrahedron": nx.truncated_tetrahedron_graph(),
        "circulant(12; 1, 5)": nx.circulant_graph(12, [1, 5]),
        "circulant(11; 1, 3)": nx.circulant_graph(11, [1, 3]),
    }


def test_automorphism_count_agrees_with_networkx():
    nx = pytest.importorskip("networkx")
    from networkx.algorithms.isomorphism import GraphMatcher

    for name, hx in _vertex_transitive_graphs(nx).items():
        want = sum(1 for _ in GraphMatcher(hx, hx).isomorphisms_iter())
        assert S.automorphism_group(_from_nx(hx)).order() == want, name


# ---------------------------------------------------------------------------
# levels refined from their parent, against refinement from scratch
# ---------------------------------------------------------------------------

@st.composite
def trees(draw, max_n=14):
    """A random tree: each vertex after the first hangs from an earlier one."""
    n = draw(st.integers(min_value=1, max_value=max_n))
    return build_graph(n, {(draw(st.integers(0, v - 1)), v) for v in range(1, n)})


def _cells(colors):
    """The partition a coloring induces, as sorted vertex lists, ids ignored."""
    cells: dict[int, list[int]] = {}
    for u, c in enumerate(colors):
        cells.setdefault(c, []).append(u)
    return sorted(cells.values())


def _reference_level_partition(graph, prefix):
    """A level's partition as it was computed before levels were refined
    from their parent: the degree-level colors with every prefix point given
    a fresh unique color, refined from scratch."""
    work = S._refine(graph.adjacency, [0] * graph.n)
    for shift, f in enumerate(prefix, graph.n):
        work[f] = shift
    return _cells(S._refine(graph.adjacency, work))


def _assert_levels_match_refinement_from_scratch(graph):
    levels = S._base_levels(graph)
    prefix: tuple[int, ...] = ()
    for fixed, colors, branch, v in levels:
        assert fixed == prefix
        cells = _cells(colors)
        assert cells == _reference_level_partition(graph, fixed)
        assert branch in cells and len(branch) == max(map(len, cells)) > 1
        assert v == min(branch)
        prefix = fixed + (v,)
    # the levels end where the individualized prefix refines to singletons
    assert len(_reference_level_partition(graph, prefix)) == graph.n


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(st.one_of(connected_graphs(max_n=14), trees()))
def test_level_partitions_match_refinement_from_scratch(graph):
    _assert_levels_match_refinement_from_scratch(graph)


@pytest.mark.parametrize("name", atlas_list())
def test_level_partitions_match_refinement_from_scratch_on_catalog(name):
    _assert_levels_match_refinement_from_scratch(atlas_get(name).graph)


@pytest.mark.parametrize("name", ["foster", "PG(2,4)", "W(3)"])
def test_level_partitions_match_refinement_from_scratch_on_relabelings(name):
    base = {
        "foster": lambda: atlas_get("foster").graph,
        "PG(2,4)": lambda: pg2_incidence(4),
        "W(3)": lambda: symplectic_quadrangle(3),
    }[name]()
    rng = random.Random(name)
    for _ in range(2):
        images = list(range(base.n))
        rng.shuffle(images)
        _assert_levels_match_refinement_from_scratch(_relabel(base, images))


# ---------------------------------------------------------------------------
# levels settled deepest first, against the top-down pass, and searches
# pruned by known automorphisms, against the same searches unpruned
# ---------------------------------------------------------------------------

def _reference_automorphism_group(graph):
    """``automorphism_group`` as it was before its levels were settled deepest
    first: each level in turn, top-down, with a candidate skipped only when
    its orbit under that level's own generators meets a refuted point.  It
    takes the library's levels, so it checks the settling order, not the
    refinement (``test_level_partitions_match_refinement_from_scratch`` checks
    that)."""
    gens_raw = []
    order = 1
    for fixed, level_colors, branch, v in S._base_levels(graph):
        level_gens = []
        reached = {v}
        failed: set[int] = set()
        for w in branch:
            if w == v or w in reached:
                continue
            orbit_w = S.permmod._orbit(level_gens, (w,))
            if orbit_w & failed:
                failed |= orbit_w
                continue
            found = _search(
                graph, graph, level_colors, level_colors, [(f, f) for f in fixed] + [(v, w)]
            )
            if found is not None:
                level_gens.append(found)
                reached = S.permmod._orbit(level_gens, (v,))
            else:
                failed |= orbit_w
        gens_raw.extend(level_gens)
        order *= len(reached)
    return gens_raw, order


def _unpruned_automorphism_group(graph):
    """``automorphism_group`` with every search run without the known
    automorphisms: the same settling, with no pruning inside a search."""
    original = S._search_map

    def unpruned(g1, g2, plan, colors2, images, known=()):
        return original(g1, g2, plan, colors2, images)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(S, "_search_map", unpruned)
        return S.automorphism_group(graph)


def _assert_same_group_as_reference(graph):
    # the top-down pass cannot use the deeper levels' generators, so it finds
    # other ones: the groups must be equal
    want_gens, want_order = _reference_automorphism_group(graph)
    group = S.automorphism_group(graph)
    assert group.order() == want_order
    reference = build_group([Permutation(g) for g in want_gens], degree=graph.n)
    assert reference.order() == want_order
    assert all(g in reference for g in group.generators)
    assert all(Permutation(g) in group for g in want_gens)
    # pruning inside a search never changes the map it returns
    unpruned = _unpruned_automorphism_group(graph)
    assert group.generators == unpruned.generators
    assert group.order() == unpruned.order()
    assert group.base() == unpruned.base()
    assert group.basic_orbit_sizes() == unpruned.basic_orbit_sizes()
    assert group.walk() == unpruned.walk()


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(connected_graphs(max_n=12))
def test_deepest_first_matches_top_down(graph):
    _assert_same_group_as_reference(graph)


@pytest.mark.parametrize("name", atlas_list())
def test_deepest_first_matches_top_down_on_catalog(name):
    base = atlas_get(name).graph
    rng = random.Random(name)
    for _ in range(2):
        images = list(range(base.n))
        rng.shuffle(images)
        _assert_same_group_as_reference(_relabel(base, images))


@pytest.mark.parametrize("name", ["PG(2,4)", "W(3)"])
def test_deepest_first_matches_top_down_on_relabelings(name):
    base = pg2_incidence(4) if name == "PG(2,4)" else symplectic_quadrangle(3)
    rng = random.Random(name)
    for _ in range(2):
        images = list(range(base.n))
        rng.shuffle(images)
        _assert_same_group_as_reference(_relabel(base, images))


def _two_rule_automorphism_group(graph):
    """``automorphism_group`` as it was before every level searched back to
    its branch vertex: below the first generator found, a level searched
    forward from the branch vertex v to each target with one plan, built at
    its first search, and only the levels above searched from each target
    back to v.  It reads each level's order off an orbit closure, and hands
    its levels to ``perm.group_from_levels`` as the search does."""
    class_of = list(range(graph.n))
    members = [[p] for p in range(graph.n)]
    deeper = []
    per_level = []
    order = 1
    for fixed, level_colors, branch, v in reversed(S._base_levels(graph)):
        level_gens = []
        refuted = []
        forward = None
        for w in branch:
            c = class_of[w]
            if c == class_of[v] or any(class_of[r] == c for r in refuted):
                continue
            if deeper:
                plan = S._extension_plan(graph, level_colors, fixed + (w,))
                found = S._search_map(graph, graph, plan, level_colors, fixed + (v,), deeper)
                if found is not None:
                    found = S.permmod._tuple_inverse(found)
            else:
                if forward is None:
                    forward = S._extension_plan(graph, level_colors, fixed + (v,))
                found = S._search_map(graph, graph, forward, level_colors, fixed + (w,))
            if found is None:
                refuted.append(w)
                continue
            level_gens.append(found)
            for p, q in enumerate(found):
                a, b = class_of[p], class_of[q]
                if a != b:
                    for x in members[b]:
                        class_of[x] = a
                    members[a] += members[b]
                    members[b] = []
        order *= len(S.permmod._orbit(deeper + level_gens, (v,)))
        deeper += level_gens
        per_level.append((v, level_gens))
    return S.permmod.group_from_levels(graph.n, per_level[::-1], order)


@pytest.mark.parametrize("name", atlas_list() + ["PG(2,4)", "PG(2,5)", "W(3)"])
def test_one_rule_matches_two_rules(name):
    # below the first generator found, the prefix and the branch vertex have
    # a trivial stabilizer, so searching back from each target refutes the
    # same targets and finds the inverse of each forward map
    base = atlas_get(name).graph
    for graph in (base, _relabeled(base, 1), _relabeled(base, 2)):
        group = S.automorphism_group(graph)
        want = _two_rule_automorphism_group(graph)
        assert group.generators == want.generators
        assert group.order() == want.order()
        assert group.base() == want.base()
        assert group.basic_orbit_sizes() == want.basic_orbit_sizes()
        assert group.walk() == want.walk()


def test_deeper_generators_skip_failing_searches(monkeypatch):
    # W(3)'s first branch cell holds points and lines, which refinement cannot
    # split; orbits under the deeper levels' generators skip searches that
    # map a point onto a line.  At the constructor's labels both passes fail
    # once; on this seeded relabeling the top-down pass fails 4 times.
    base = symplectic_quadrangle(3)
    images = list(range(base.n))
    random.Random(2).shuffle(images)
    w3 = _relabel(base, images)
    original = S._search_map
    failures = []

    def counted(g1, g2, plan, colors2, images, known=()):
        found = original(g1, g2, plan, colors2, images, known)
        failures.append(found is None)
        return found

    monkeypatch.setattr(S, "_search_map", counted)
    _reference_automorphism_group(w3)
    top_down = sum(failures)
    failures.clear()
    assert S.automorphism_group(w3).order() == 51840
    assert (top_down, sum(failures)) == (4, 1)


@pytest.mark.parametrize("name, order", [("PG(2,5)", 744000), ("W(4)", 3916800)])
def test_largest_cell_branching_has_no_failing_search(monkeypatch, name, order):
    # once a point and three lines through it are fixed, PGL(2,q) on the
    # pencil fixes every line of it, but refinement keeps the others in one
    # small cell, where every search fails; on these graphs a largest cell
    # is never such a leftover
    graph = atlas_get(name).graph
    original = S._search_map
    failures = []

    def counted(g1, g2, plan, colors2, images, known=()):
        found = original(g1, g2, plan, colors2, images, known)
        failures.append(found is None)
        return found

    monkeypatch.setattr(S, "_search_map", counted)
    assert S.automorphism_group(graph).order() == order
    assert sum(failures) == 0


def _level_searches(graph):
    """(colors, seeds, known) of every level's search from each target of its
    branch cell back to the branch vertex, as ``automorphism_group`` seeds
    them, with ``known`` every generator of the graph's group that fixes the
    level's prefix and branch vertex (the deeper levels' among them)."""
    gens = [g.images for g in S.automorphism_group(graph).generators]
    for fixed, colors, branch, v in S._base_levels(graph):
        known = [g for g in gens if all(g[p] == p for p in fixed + (v,))]
        for w in branch:
            yield colors, [(f, f) for f in fixed] + [(w, v)], known


def _assert_pruned_searches_match_unpruned(graph, searches=None):
    for colors, seeds, known in searches or _level_searches(graph):
        want = _search(graph, graph, colors, colors, seeds)
        assert _search(graph, graph, colors, colors, seeds, known) == want


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(connected_graphs(max_n=12))
def test_pruned_search_matches_unpruned(graph):
    _assert_pruned_searches_match_unpruned(graph)


@pytest.mark.parametrize("name", atlas_list())
def test_pruned_search_matches_unpruned_on_catalog(name):
    _assert_pruned_searches_match_unpruned(_relabeled(atlas_get(name).graph, name))


def test_pruned_search_matches_unpruned_on_w3_point_to_line_targets(monkeypatch):
    # W(3)'s first branch cell holds its 40 points and 40 lines; no
    # automorphism maps a line to a point, and each such search exhausts its
    # tree unless the automorphisms fixing the branch vertex prune it
    w3 = _relabeled(symplectic_quadrangle(3), 3)
    fixed, colors, branch, v = S._base_levels(w3)[0]
    side = next(part for part in graphmod.bipartition(w3) if v not in part)
    assert set(side) <= set(branch)
    searches = [s for s in _level_searches(w3) if s[1][-1][0] in side and s[1][-1][1] == v]
    assert len(searches) == 40 and all(s[2] for s in searches)

    checks = []
    original = S._distance_probe

    def counted(graph):
        targets, select, rows = original(graph)

        def counted_select(row):
            checks.append(None)
            return select(row)

        return targets, counted_select, rows

    monkeypatch.setattr(S, "_distance_probe", counted)
    pruned = unpruned = 0
    for colors, seeds, known in searches:
        plan = S._extension_plan(w3, colors, [u for u, _ in seeds])
        images = [t for _, t in seeds]
        checks.clear()
        assert S._search_map(w3, w3, plan, colors, images) is None
        unpruned += len(checks)
        checks.clear()
        assert S._search_map(w3, w3, plan, colors, images, known) is None
        pruned += len(checks)
    assert pruned * 5 < unpruned


# ---------------------------------------------------------------------------
# |Aut| and its stabilizer chain from the search's own levels, against a
# Schreier-Sims chain built from the same generators
# ---------------------------------------------------------------------------

def _assert_order_matches_chain(graph):
    """The chain read off the search's levels against ``build_group``'s
    Schreier-Sims chain of the same generators: equal orders, each chain
    holding the other's strong generators, and level k's generators fixing
    ``base()[:k]``.  The base is the branch vertices whose orbit under the
    generators that fix the points before them has more than one point,
    and those orbits are the basic orbits, and a pointwise stabilizer is
    the reference's.  Returns how many levels were left out for an orbit
    of length 1."""
    group = S.automorphism_group(graph)
    reference = build_group(group.generators, degree=graph.n)
    assert group.order() == reference.order()
    chain, ref_chain = group._chain, reference._chain
    assert all(ref_chain.contains(g) for g in chain.gens_from_level(0))
    assert all(chain.contains(g) for g in ref_chain.gens_from_level(0))
    base = group.base()
    for k, lvl in enumerate(chain.levels):
        assert all(g[p] == p for g in lvl.gens for p in base[:k])
    gens = [g.images for g in group.generators]
    levels = S._base_levels(graph)
    want = []
    for fixed, _, _, v in levels:
        fixing = [g for g in gens if all(g[p] == p for p in fixed)]
        orbit = S.permmod._orbit(fixing, (v,))
        if len(orbit) > 1:
            want.append((v, len(orbit)))
    assert list(zip(base, group.basic_orbit_sizes())) == want
    # a stabilizer's chain is built from the group's generators, so it does
    # not depend on how the group's own chain was made
    points = (0, graph.n - 1)
    got = S.permmod.pointwise_stabilizer(group, points)
    expected = S.permmod.pointwise_stabilizer(reference, points)
    assert (got.generators, got.order()) == (expected.generators, expected.order())
    return len(levels) - len(want)


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(connected_graphs(max_n=12))
def test_search_order_matches_chain(graph):
    _assert_order_matches_chain(graph)


@pytest.mark.parametrize("name", atlas_list())
def test_search_order_matches_chain_on_catalog(name):
    base = atlas_get(name).graph
    for graph in (base, _relabeled(base, 1), _relabeled(base, 2)):
        _assert_order_matches_chain(graph)


@pytest.mark.parametrize("name", ["PG(2,3)", "PG(2,4)", "PG(2,5)", "W(3)"])
def test_search_order_matches_chain_on_families(name):
    base = atlas_get(name).graph
    for graph in (base, _relabeled(base, 1), _relabeled(base, 2)):
        _assert_order_matches_chain(graph)


def test_search_order_matches_chain_on_claim_10_corpus():
    graphs = list(verify._automorphism_corpus())
    assert len(graphs) == 1060
    for graph in graphs:
        _assert_order_matches_chain(graph)


def test_levels_with_orbits_of_length_one_are_left_out():
    # the Frucht graph is cubic with a trivial automorphism group: refinement
    # keeps one cell, so the search branches once, on an orbit of length 1,
    # and the chain has no level, as a Schreier-Sims chain would have none
    frucht = graphmod.lcf_decode([-5, -2, -4, 2, 5, -2, 2, 5, -2, -5, 4, 2], 1)
    for graph in (frucht, _relabeled(frucht, 1)):
        assert len(S._base_levels(graph)) == 1
        assert _assert_order_matches_chain(graph) == 1
        group = S.automorphism_group(graph)
        assert (group.order(), group.base(), group.walk()) == (1, (), [])


def test_undercounted_level_fails_at_the_chain_build(monkeypatch, chain_builds):
    # drop one point from every class of vertex 0 whose length the search
    # reads as a level's orbit: Petersen's first level then counts 9 of its
    # 10 points.  ``len`` is looked up in the module's globals before the
    # builtins, and only ``automorphism_group``'s own calls are shrunk.  The
    # chain read off the levels walks 10 points and fails on the product,
    # with no Schreier-Sims build
    count = len

    def shrunk(obj):
        out = count(obj)
        caller = sys._getframe(1).f_code
        if caller is S.automorphism_group.__code__ and out > 1 and 0 in obj:
            out -= 1
        return out

    monkeypatch.setattr(S, "len", shrunk, raising=False)
    group = S.automorphism_group(atlas_get("petersen").graph)
    monkeypatch.delattr(S, "len")
    assert group.order() == 108
    with pytest.raises(AssertionError, match="order 120, expected 108"):
        group.base()
    assert chain_builds == []


# ---------------------------------------------------------------------------
# per-level set-up against reference copies of its earlier forms
# ---------------------------------------------------------------------------

def _reference_extension_order(adjacency, sources):
    """The extension order as an argmax over every vertex per depth."""
    n = len(adjacency)
    placed = [False] * n
    nbr_count = [0] * n
    for q in sources:
        placed[q] = True
        for w in adjacency[q]:
            nbr_count[w] += 1
    order = []
    for _ in range(n - len(sources)):
        u, best = -1, 0
        for v in range(n):
            if not placed[v] and nbr_count[v] > best:
                u, best = v, nbr_count[v]
        order.append((u, next(q for q in adjacency[u] if placed[q])))
        placed[u] = True
        for w in adjacency[u]:
            nbr_count[w] += 1
    return tuple(order)


def _reference_refine(adjacency, colors, trace=None):
    """Equitable refinement with each signature built by a generator."""
    n = len(adjacency)
    if trace is not None and not S._traced(trace, 0, sorted(colors)):
        return None
    ncolors = len(set(colors))
    rounds = 0
    while True:
        sigs = [
            (colors[u], tuple(sorted(colors[w] for w in adjacency[u])))
            for u in range(n)
        ]
        keys = sorted(set(sigs))
        ids = {sig: i for i, sig in enumerate(keys)}
        colors = [ids[sig] for sig in sigs]
        rounds += 1
        if trace is not None and not S._traced(trace, rounds, keys):
            return None
        if len(ids) == ncolors:
            return colors
        ncolors = len(ids)


def _assert_plan_matches_reference(graph, colors, sources):
    """The plan's (vertex, anchor) steps are the argmax order; every step
    holds its vertex's color and its distances to the vertices before it."""
    steps = S._extension_plan(graph, colors, sources)
    assert tuple(u for u, _, _, _ in steps[: len(sources)]) == tuple(sources)
    assert sorted(u for u, _, _, _ in steps) == list(range(graph.n))
    assert all(anchor is None for _, anchor, _, _ in steps[: len(sources)])
    order = tuple((u, steps[anchor][0]) for u, anchor, _, _ in steps[len(sources):])
    assert order == _reference_extension_order(graph.adjacency, sources)
    dist = _reference_distances(graph)
    for i, (u, _, color, want) in enumerate(steps):
        assert color == colors[u]
        assert list(want) == [dist[u][q] for q, _, _, _ in steps[:i]]


@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(connected_graphs(max_n=12), st.data())
def test_extension_order_matches_argmax(graph, data):
    sources = data.draw(st.lists(st.integers(0, graph.n - 1), min_size=1, unique=True))
    colors = data.draw(st.lists(st.integers(0, 3), min_size=graph.n, max_size=graph.n))
    _assert_plan_matches_reference(graph, colors, sources)


@pytest.mark.parametrize("name", ["foster", "hexagon-q2", "petersen"])
def test_extension_order_matches_argmax_on_catalog(name):
    graph = atlas_get(name).graph
    colors = S._refine(graph.adjacency, [0] * graph.n)
    rng = random.Random(name)
    for k in (1, 2, 3, 5, 8, 10):
        _assert_plan_matches_reference(graph, colors, rng.sample(range(graph.n), k))


@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(connected_graphs(max_n=12), st.data())
def test_refine_matches_reference(graph, data):
    n = graph.n
    colors = data.draw(st.lists(st.integers(0, 3), min_size=n, max_size=n))
    if data.draw(st.booleans()):
        # (color, distance) pairs, as the isomorphism test seeds its roots
        v = data.draw(st.integers(0, n - 1))
        colors = list(zip(colors, graphmod.distance_matrix(graph)[v]))
    assert S._refine(graph.adjacency, colors) == _reference_refine(graph.adjacency, colors)
    trace: list = []
    want_trace: list = []
    assert S._refine(graph.adjacency, colors, trace) == _reference_refine(
        graph.adjacency, colors, want_trace
    )
    assert trace == want_trace


def _path(n):
    return build_graph(n, [(i, i + 1) for i in range(n - 1)])


def _cycle(n):
    return build_graph(n, [(i, (i + 1) % n) for i in range(n)])


@settings(max_examples=150, deadline=None)
@given(connected_graphs(max_n=14))
def test_distance_matrix_matches_floyd_warshall(graph):
    assert [list(row) for row in graphmod.distance_matrix(graph)] == oracles.floyd_warshall(graph)


@pytest.fixture
def lane_builds(monkeypatch):
    """A list that gains the vertex count of every bit-parallel table build."""
    builds = []
    original = graphmod._lane_table

    def counted(adjacency):
        builds.append(len(adjacency))
        return original(adjacency)

    monkeypatch.setattr(graphmod, "_lane_table", counted)
    return builds


@pytest.mark.parametrize(
    "graph",
    [_path(40), _cycle(33), _cycle(40), _path(255), _path(256), _path(257), _cycle(256), _cycle(257)],
    ids=["P40", "C33", "C40", "P255", "P256", "P257", "C256", "C257"],
)
def test_distance_matrix_matches_floyd_warshall_past_diameter_15(graph, lane_builds):
    assert graphmod.diameter(graph) > 15
    want = oracles.floyd_warshall(graph)
    assert [list(row) for row in graphmod.distance_matrix(graph)] == want
    # a long diameter sends the table to BFS rows; the bit-parallel build
    # must agree too, up to P256's distance 255, the most a byte lane holds
    assert lane_builds == []
    if graphmod.diameter(graph) <= 255:
        assert [list(row) for row in graphmod._lane_table(graph.adjacency)] == want


def _knn(n):
    return build_graph(2 * n, [(i, n + j) for i in range(n) for j in range(n)])


@pytest.mark.parametrize(
    "name", ["foster", "pg2-4", "w3", "k16,16", "k150,150", "k200,200", "k256,256"]
)
def test_distance_matrix_matches_floyd_warshall_on_short_diameters(name, lane_builds):
    # vertex 0's eccentricity is at most n/10: the table is built bit-parallel,
    # above 256 vertices too, and its rows are bytes, as every distance fits
    base = {
        "foster": lambda: atlas_get("foster").graph,
        "pg2-4": lambda: pg2_incidence(4),
        "w3": lambda: symplectic_quadrangle(3),
        "k16,16": lambda: _knn(16),
        "k150,150": lambda: _knn(150),
        "k200,200": lambda: _knn(200),
        "k256,256": lambda: _knn(256),
    }[name]()
    graph = build_graph(base.n, base.edges())  # an empty cache
    lane_builds.clear()
    rows = graphmod.distance_matrix(graph)
    assert [list(row) for row in rows] == oracles.floyd_warshall(graph)
    assert lane_builds == [graph.n]
    assert {type(row) for row in rows} == {bytes}


def _relabeled(graph, seed):
    images = list(range(graph.n))
    random.Random(seed).shuffle(images)
    return build_graph(graph.n, [(images[u], images[v]) for u, v in graph.edges()])


@pytest.mark.parametrize("name", ["foster", "pg2-4", "w3"])
def test_search_matches_reference_on_relabelings(name):
    # graphs large enough that the distance check compares long byte strings
    base = {
        "foster": lambda: atlas_get("foster").graph,
        "pg2-4": lambda: pg2_incidence(4),
        "w3": lambda: symplectic_quadrangle(3),
    }[name]()
    for seed in (1, 2):
        graph = _relabeled(base, seed)
        # the two deepest levels of the automorphism search, every target of
        # their branch cells
        for fixed, colors, branch, v in S._base_levels(graph)[-2:]:
            for w in branch:
                seeds = [(f, f) for f in fixed] + [(v, w)]
                want = _reference_search_map(graph, graph, colors, colors, seeds)
                assert _search(graph, graph, colors, colors, seeds) == want
    # root 0 of the catalog graph to targets 0, 1 and 2 of the last relabeling,
    # each individualized as are_isomorphic does.  On W(3) two of them are
    # lines, which no isomorphism maps a point to, so those searches exhaust
    # the whole tree
    trace: list = []
    dist1, dist2 = graphmod.distance_matrix(base), graphmod.distance_matrix(graph)
    span = graphmod.diameter(base) + 1
    colors1 = S._individualize(base.adjacency, [0] * base.n, dist1[0], span, trace)
    for t in range(3):
        colors2 = S._individualize(graph.adjacency, [0] * graph.n, dist2[t], span, trace)
        if colors2 is not None:
            want = _reference_search_map(base, graph, colors1, colors2, [(0, t)])
            assert _search(base, graph, colors1, colors2, [(0, t)]) == want


def _prism(n):
    """C_n x K2: two n-cycles joined by a perfect matching."""
    return build_graph(2 * n, [
        edge for i in range(n)
        for edge in ((i, (i + 1) % n), (n + i, n + (i + 1) % n), (i, n + i))
    ])


@pytest.mark.parametrize("name, order", [("C300", 600), ("C130 x K2", 520)])
def test_search_above_256_vertices(name, order):
    # above 256 vertices a distance check selects with itemgetter, and the
    # first source of every plan has no earlier vertex to select
    base = _cycle(300) if name == "C300" else _prism(130)
    assert base.n > 256
    for seed in (1, 2):
        graph = _relabeled(base, seed)
        group = S.automorphism_group(graph)
        assert group.order() == order
        assert group.base()  # builds the chain, which asserts the same order
        adjsets = graph.neighbor_sets()
        for g in group.generators:
            assert all(g.images[v] in adjsets[g.images[u]] for u, v in graph.edges())
        for g1, g2 in ((base, graph), (graph, base)):
            found = S.are_isomorphic(g1, g2)
            assert found is not None and sorted(found) == list(range(g1.n))
            assert all(g2.has_edge(found[u], found[v]) for u, v in g1.edges())


def _star(n):
    return build_graph(n, [(0, i) for i in range(1, n)])


def _circulant(n, degree):
    """Vertex i joined to i ± 1, ..., i ± degree/2 (mod n)."""
    return build_graph(
        n, [(i, (i + k) % n) for i in range(n) for k in range(1, degree // 2 + 1)]
    )


def _complete_bipartite(a, b):
    return build_graph(a + b, [(i, a + j) for i in range(a) for j in range(b)])


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(connected_graphs(max_n=16), st.integers(0, 4))
def test_lane_table_matches_floyd_warshall(graph, columns):
    # any mix of degrees, with the neighbor columns capped anywhere from
    # none (every slot folded per vertex) up to the least degree
    want = oracles.floyd_warshall(graph)
    with mock.patch.object(graphmod, "_LANE_COLUMNS", columns):
        assert [list(row) for row in graphmod._lane_table(graph.adjacency)] == want


@pytest.mark.parametrize(
    "graph, columns",
    [
        (build_graph(1, []), 0),
        (_path(2), 1),
        (_path(12), 1),
        (_star(9), 1),
        (_prism(3), 3),
        (_circulant(80, 32), 32),
        (_circulant(80, 34), 0),
        (_complete_bipartite(32, 32), 32),
        (_complete_bipartite(33, 33), 0),
        (_complete_bipartite(32, 33), 32),
        (_complete_bipartite(33, 34), 0),
    ],
    ids=["K1", "P2", "P12", "star9", "prism3", "C80(16)", "C80(17)", "K32,32", "K33,33",
         "K32,33", "K33,34"],
)
def test_lane_table_forms_on_both_sides_of_the_column_rule(graph, columns, monkeypatch):
    # up to least degree 32 the balls grow by one neighbor column per slot
    # every vertex has, with the slots past it folded per vertex; above it,
    # every slot is folded per vertex
    built = []

    def counted(*items):
        built.append(len(items))
        return itemgetter(*items)

    monkeypatch.setattr(graphmod, "itemgetter", counted)
    rows = graphmod._lane_table(graph.adjacency)
    assert [list(row) for row in rows] == oracles.floyd_warshall(graph)
    assert built == [graph.n] * columns


def _frame_depth():
    depth, frame = 0, sys._getframe()
    while frame is not None:
        depth, frame = depth + 1, frame.f_back
    return depth


def test_search_on_c512_runs_within_a_hundred_frames():
    # C512's plans are 512 vertices deep; the backtrack is a loop over a
    # frame stack, so neither search recurses per plan depth
    c512 = _cycle(512)
    relabeled = _relabeled(c512, 512)
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(_frame_depth() + 100)
    try:
        group = S.automorphism_group(relabeled)
        found = S.are_isomorphic(c512, relabeled)
    finally:
        sys.setrecursionlimit(limit)
    assert group.order() == 1024
    assert found is not None and sorted(found) == list(range(512))
    assert all(relabeled.has_edge(found[u], found[v]) for u, v in c512.edges())


class _CountedAdjacency(tuple):
    """An adjacency tuple that counts the passes a refinement makes over it."""

    passes = 0

    def __iter__(self):
        self.passes += 1
        return super().__iter__()


@pytest.mark.parametrize("name", ["foster", "W(3)"])
def test_untraced_refinement_stops_at_a_discrete_partition(name):
    # the last base level's individualization makes the partition discrete;
    # the traced refinement confirms it with one more round, which the
    # untraced one skips, and both give the same colors
    graph = atlas_get(name).graph
    _, colors, _, v = S._base_levels(graph)[-1]
    row = graphmod.distance_matrix(graph)[v]
    span = graphmod.diameter(graph) + 1
    trace: list = []
    traced = S._individualize(graph.adjacency, colors, row, span, trace)
    adjacency = _CountedAdjacency(graph.adjacency)
    untraced = S._individualize(adjacency, colors, row, span)
    assert sorted(untraced) == list(range(graph.n))
    assert untraced == traced
    assert len(trace) >= 3  # the start, a round to discrete, the confirming round
    assert adjacency.passes == len(trace) - 2
