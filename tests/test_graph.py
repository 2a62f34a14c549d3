from __future__ import annotations

import functools
import itertools
import math
import random
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from geodex import graph as G
from geodex.errors import (
    Disconnected,
    GraphTooLarge,
    LoopEdge,
    NotCubic,
    NotRegular,
    VertexOutOfRange,
)
from geodex.oracles import geodesics_by_filter, naive_diameter, naive_girth, recursive_arcs


@st.composite
def _connected_graphs(draw, max_n=10):
    """A random spanning tree plus random extra edges."""
    n = draw(st.integers(min_value=1, max_value=max_n))
    edges = {(draw(st.integers(0, v - 1)), v) for v in range(1, n)}
    pairs = list(itertools.combinations(range(n), 2))
    if pairs:
        edges |= draw(st.sets(st.sampled_from(pairs)))
    return G.build_graph(n, edges)


@st.composite
def _graphs(draw, max_n=9):
    """Any simple graph, edgeless and disconnected ones included."""
    n = draw(st.integers(min_value=0, max_value=max_n))
    pairs = list(itertools.combinations(range(n), 2))
    return G.build_graph(n, draw(st.sets(st.sampled_from(pairs))) if pairs else ())


class TestBuildGraph:
    def test_k2(self):
        g = G.build_graph(2, [(0, 1)])
        assert g.n == 2 and g.m == 1 and g.connected

    def test_c6(self, c6):
        assert c6.n == 6 and c6.m == 6 and c6.connected
        assert c6.valency == 2

    def test_loops_rejected(self):
        with pytest.raises(LoopEdge):
            G.build_graph(3, [(1, 1)])

    def test_range_checked(self):
        with pytest.raises(VertexOutOfRange):
            G.build_graph(3, [(0, 3)])

    def test_duplicate_edges_merged(self):
        g = G.build_graph(3, [(0, 1), (1, 0), (0, 1)])
        assert g.m == 1

    def test_foster_is_cubic(self, foster):
        assert foster.n == 90 and foster.m == 135
        assert foster.valency == 3 and foster.connected

    def test_json_round_trip(self, petersen):
        assert G.graph_from_json(petersen.to_json()).adjacency == petersen.adjacency


class TestDistances:
    def test_c6_diameter(self, c6):
        assert G.diameter(c6) == 3
        assert G.distances(c6, 0) == (0, 1, 2, 3, 2, 1)

    def test_disconnected_rejected(self):
        g = G.build_graph(4, [(0, 1), (2, 3)])
        with pytest.raises(Disconnected):
            G.distances(g, 0)
        with pytest.raises(Disconnected):
            G.diameter(g)

    def test_foster_diameter(self, foster):
        assert G.diameter(foster) == 8

    def test_biggs_smith_diameter(self, ctx):
        assert G.diameter(ctx.graph("biggs-smith")) == 7

    @pytest.mark.parametrize(
        ("n", "row_type"),
        [(8, bytes), (256, bytes), (257, bytes), (512, tuple)],
        ids=["C8", "C256", "C257", "C512"],
    )
    def test_row_types(self, n, row_type):
        # a row is bytes while every distance fits a byte; distances() is a tuple
        cycle = G.build_graph(n, [(i, (i + 1) % n) for i in range(n)])
        assert {type(row) for row in G.distance_matrix(cycle)} == {row_type}
        assert G.distances(cycle, 0) == tuple(G.distance_matrix(cycle)[0])
        assert type(G.distances(cycle, 0)) is tuple

    def test_table_cap_is_checked_before_any_row(self, monkeypatch):
        def unbuilt(graph):
            pytest.fail("a row was built past the cap")

        n = G.DISTANCE_TABLE_VERTEX_CAP + 1
        path = G.build_graph(n, [(i, i + 1) for i in range(n - 1)])
        monkeypatch.setattr(G, "_distance_table", unbuilt)
        with pytest.raises(GraphTooLarge, match=f"^{n} vertices exceeds the distance-table cap"):
            G.distance_matrix(path)
        with pytest.raises(GraphTooLarge):
            G.diameter(path)
        # a disconnected graph has no table at any size: Disconnected first
        with pytest.raises(Disconnected):
            G.distance_matrix(G.build_graph(n, [(i, i + 1) for i in range(n - 2)]))

    def test_table_cap_is_inclusive(self, monkeypatch):
        monkeypatch.setattr(G, "DISTANCE_TABLE_VERTEX_CAP", 8)
        assert G.diameter(G.build_graph(8, [(i, (i + 1) % 8) for i in range(8)])) == 4
        with pytest.raises(GraphTooLarge):
            G.diameter(G.build_graph(9, [(i, (i + 1) % 9) for i in range(9)]))


class TestGirth:
    def test_c6(self, c6):
        assert G.girth(c6) == 6

    def test_foster(self, foster):
        assert G.girth(foster) == 10

    def test_tutte_coxeter(self, ctx):
        assert G.girth(ctx.graph("tutte-coxeter")) == 8

    def test_forest_rejected(self):
        assert G.girth(G.build_graph(4, [(0, 1), (1, 2), (2, 3)])) is None

    def test_every_labeled_graph_up_to_5_vertices(self):
        # forests and disconnected graphs included
        count = 0
        for n in range(1, 6):
            pairs = list(itertools.combinations(range(n), 2))
            for mask in range(1 << len(pairs)):
                g = G.build_graph(n, [p for i, p in enumerate(pairs) if mask >> i & 1])
                assert G.girth(g) == naive_girth(g), g.edges()
                count += 1
        assert count == 1099

    def test_shortest_cycle_through_edge(self, ctx):
        tc = ctx.graph("tutte-coxeter")
        cycle = G.shortest_cycle_through_edge(tc, 0, tc.adjacency[0][0])
        assert len(cycle) == 8
        bridge = G.build_graph(5, [(0, 1), (1, 2), (2, 0), (2, 3), (3, 4), (4, 2)])
        assert G.shortest_cycle_through_edge(bridge, 0, 1) == [0, 2, 1] or len(
            G.shortest_cycle_through_edge(bridge, 0, 1)
        ) == 3

    @pytest.mark.parametrize(
        "graph",
        [
            *(G.build_graph(2 * a, [(i, a + j) for i in range(a) for j in range(a)]) for a in (2, 3, 4, 5)),
            *(G.build_graph(n, [(i, (i + 1) % n) for i in range(n)]) for n in (4, 6, 8, 10, 12)),
            G.build_graph(7, [(0, 1), (0, 2), (1, 3), (1, 4), (2, 5), (2, 6)]),
            # a 4-cycle beside a triangle: not bipartite, girth 3
            G.build_graph(7, [(0, 1), (1, 2), (2, 3), (3, 0), (4, 5), (5, 6), (6, 4)]),
        ],
        ids=["K2,2", "K3,3", "K4,4", "K5,5", "C4", "C6", "C8", "C10", "C12", "tree", "C4+C3"],
    )
    def test_bipartite_early_stop_matches_naive_oracle(self, graph):
        # on a bipartite graph the BFS stops a level earlier (every bound is
        # even); the girth must not change
        assert G.girth(graph) == naive_girth(graph)

    def test_against_naive_oracle(self):
        import random

        rng = random.Random(555)
        for _ in range(40):
            n = rng.randrange(3, 13)
            edges = [
                (i, j)
                for i in range(n)
                for j in range(i + 1, n)
                if rng.random() < 0.3
            ]
            g = G.build_graph(n, edges)
            assert G.girth(g) == naive_girth(g)
            if g.connected:
                assert G.diameter(g) == naive_diameter(g)

    @pytest.mark.parametrize("triangle", [False, True], ids=["P20000", "P20000+K3"])
    def test_acyclic_components_are_not_searched(self, triangle):
        # a BFS from every root of a path walks the whole path: quadratic,
        # about a minute for 20,000 vertices; a tree component is skipped
        n = 20000
        edges = [(i, i + 1) for i in range(n - 1)]
        if triangle:
            edges += [(n, n + 1), (n + 1, n + 2), (n + 2, n)]
        graph = G.build_graph(n + 3 * triangle, edges)
        start = time.perf_counter()
        assert G.girth(graph) == (3 if triangle else None)
        assert time.perf_counter() - start < 1.0


def _relabeled(graph, seed):
    images = list(range(graph.n))
    random.Random(seed).shuffle(images)
    return G.build_graph(graph.n, [(images[u], images[v]) for u, v in graph.edges()])


def _girth_cases():
    """Distance-regular graphs: the catalog, cycles, K{n,n}, PG(2,q), W(q)
    and seeded relabelings of the catalog."""
    from geodex.atlas import atlas_get, atlas_list

    names = [*atlas_list(), *(f"PG(2,{q})" for q in (2, 3, 4, 5)), "W(2)", "W(3)"]
    names += [f"C{n}" for n in range(3, 13)] + [f"K{a},{a}" for a in range(2, 7)]
    graphs = {name: atlas_get(name).graph for name in names}
    for seed, name in enumerate(atlas_list()):
        graphs[f"{name} relabeled"] = _relabeled(graphs[name], 900 + seed)
    return graphs


class TestGirthOffTheArray:
    @pytest.mark.parametrize(
        ("b", "c", "girth"),
        [
            ((), (), None),  # K1
            ((1,), (1,), None),  # K2
            ((2,), (1,), 3),  # K3
            ((5,), (1,), 3),  # K6
            ((2, 1), (1, 2), 4),  # C4
            ((2, 1), (1, 1), 5),  # C5
            ((2, 1, 1, 1, 1), (1, 1, 1, 1, 2), 10),  # C10
            ((2, 1, 1, 1, 1), (1, 1, 1, 1, 1), 11),  # C11
            ((4, 3), (1, 4), 4),  # K4,4
            ((3, 2), (1, 1), 5),  # Petersen
            ((3, 2, 2, 2, 2, 1, 1, 1), (1, 1, 1, 1, 2, 2, 2, 3), 10),  # Foster
            ((3, 2, 2, 2, 1, 1, 1), (1, 1, 1, 1, 1, 1, 3), 9),  # Biggs-Smith
        ],
        ids=["K1", "K2", "K3", "K6", "C4", "C5", "C10", "C11", "K4,4", "Petersen", "Foster",
             "Biggs-Smith"],
    )
    def test_hand_written_arrays(self, b, c, girth):
        assert G.IntersectionArray(b, c).girth == girth

    def test_cached_array_gives_the_bfs_girth(self):
        for name, graph in _girth_cases().items():
            fresh = G.Graph(graph.adjacency)
            array = G.intersection_array(fresh)
            assert array is not None, name
            bfs = G._bfs_girth(G.Graph(graph.adjacency))
            assert G.girth(fresh) == array.girth == bfs == naive_girth(graph), name

    def test_read_only_off_a_cached_array(self, monkeypatch, ctx):
        calls = []
        bfs = G._bfs_girth
        monkeypatch.setattr(G, "_bfs_girth", lambda graph: calls.append(graph) or bfs(graph))
        # no array cached: the BFS, and girth computes no array
        petersen = G.Graph(ctx.graph("petersen").adjacency)
        assert G.girth(petersen) == 5
        assert len(calls) == 1 and "intersection_array" not in petersen._cache
        # a cached array: no BFS
        petersen = G.Graph(ctx.graph("petersen").adjacency)
        G.intersection_array(petersen)
        assert G.girth(petersen) == 5 and len(calls) == 1
        # not distance-regular (a one-edge swap of Foster, whose array is
        # None): the cached None leaves the BFS, with the BFS's answer
        swapped = _one_edge_swap(ctx.graph("foster"))
        assert G.intersection_array(swapped) is None
        assert G.girth(swapped) == naive_girth(swapped)
        assert len(calls) == 2

    def test_atlas_get_runs_no_girth_bfs(self, monkeypatch):
        from geodex.atlas import atlas_get, atlas_list

        calls = []
        monkeypatch.setattr(G, "_bfs_girth", lambda graph: calls.append(graph))
        for name in [*atlas_list(), "PG(2,3)", "W(2)", "C9", "K4,4"]:
            atlas_get(name)
        assert calls == []


class TestArcs:
    def test_k2_arcs(self):
        k2 = G.build_graph(2, [(0, 1)])
        assert len(G.enumerate_arcs(k2, 1)) == 2

    def test_c6_3_arcs(self, c6):
        arcs = G.enumerate_arcs(c6, 3)
        assert len(arcs) == 12
        assert G.count_arcs(c6, 3) == 12

    def test_petersen_2_arcs(self, petersen):
        assert len(G.enumerate_arcs(petersen, 2)) == 60
        assert G.count_arcs(petersen, 2) == 60

    def test_matches_recursive_oracle(self, petersen, k33):
        for g in (petersen, k33):
            for s in (1, 2, 3, 4):
                assert sorted(G.enumerate_arcs(g, s)) == sorted(recursive_arcs(g, s))
                assert G.count_arcs(g, s) == len(recursive_arcs(g, s))

    def test_first_arc_is_least(self, petersen, foster):
        # enumeration is lexicographic and first_arc is its head
        for g in (petersen, foster):
            for s in (1, 2, 3, 4):
                arcs = G.enumerate_arcs(g, s)
                assert arcs == sorted(arcs)
                assert G.first_arc(g, s) == arcs[0]

    def test_no_arc(self):
        k2 = G.build_graph(2, [(0, 1)])
        assert G.first_arc(k2, 2) is None
        assert G.enumerate_arcs(k2, 2) == []


class TestGeodesics:
    def test_c6_3_geodesics(self, c6):
        geos = G.enumerate_geodesics(c6, 3)
        assert len(geos) == 12
        assert sorted(geos) == sorted(G.enumerate_arcs(c6, 3))

    def test_petersen_2_geodesics(self, petersen):
        geos = G.enumerate_geodesics(petersen, 2)
        assert len(geos) == 60
        assert set(geos) <= set(G.enumerate_arcs(petersen, 2))

    def test_foster_5_geodesics(self, foster):
        # 90 * 3 * 2 * 2 * 2 * 2 from the leading intersection parameters
        assert G.count_geodesics(foster, 5) == 4320
        assert len(G.enumerate_geodesics(foster, 5)) == 4320

    def test_s_beyond_diameter(self, petersen):
        assert G.enumerate_geodesics(petersen, 3) == []
        assert G.count_geodesics(petersen, 3) == 0
        assert G.first_geodesic(petersen, 3) is None

    def test_matches_filter_oracle(self, petersen, c6, k33):
        for g in (petersen, c6, k33):
            for s in range(1, G.diameter(g) + 1):
                assert sorted(G.enumerate_geodesics(g, s)) == sorted(
                    geodesics_by_filter(g, s)
                )

    def test_first_geodesic_is_geodesic(self, petersen, foster):
        # enumeration is lexicographic and first_geodesic is its head
        for g in (petersen, foster):
            for s in range(1, G.diameter(g) + 1):
                geos = G.enumerate_geodesics(g, s)
                assert geos == sorted(geos)
                assert G.first_geodesic(g, s) == geos[0]



def _reference_intersection_array(graph):
    """The intersection array by an O(n m) walk over the distance table:
    against each row, every vertex at distance d counts its neighbors at
    distance d (a) and d + 1 (b), with c = degree - a - b.  Each level must
    hold one triple in every row, and every row must give row 0's levels."""
    adjacency = graph.adjacency
    reference = None
    for row in G.distance_matrix(graph):
        levels = [None] * (max(row) + 1)
        for v, d in enumerate(row):
            a = b = 0
            for w in adjacency[v]:
                dw = row[w]
                if dw == d:
                    a += 1
                elif dw > d:
                    b += 1
            triple = (a, b, len(adjacency[v]) - a - b)
            if levels[d] is None:
                levels[d] = triple
            elif levels[d] != triple:
                return None
        if reference is None:
            reference = levels
        elif levels != reference:
            return None
    b = tuple(level[1] for level in reference[:-1])
    c = tuple(level[2] for level in reference[1:])
    return G.IntersectionArray(b, c)


def _prism():
    # K3 x K2 is vertex-transitive, but vertex 0's first layer holds its
    # triangle neighbors (a = 1) and its rung neighbor (a = 0)
    return G.build_graph(
        6, [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3), (0, 3), (1, 4), (2, 5)]
    )


def _crossed_q3():
    # Q3 with the rungs at 2 and 3 crossed: regular and connected, not
    # distance-regular
    return G.build_graph(
        8, [(0, 1), (1, 2), (2, 3), (3, 0), (4, 5), (5, 6), (6, 7), (7, 4),
            (0, 4), (1, 5), (2, 7), (3, 6)]
    )


def _hexagonal_prism():
    # C6 x K2: cubic, bipartite and vertex-transitive, not distance-regular.
    # Bipartite, so a = 0 for every pair: only the c counts reject it
    return G.build_graph(
        12,
        [(i, (i + 1) % 6) for i in range(6)]
        + [(6 + i, 6 + (i + 1) % 6) for i in range(6)]
        + [(i, 6 + i) for i in range(6)],
    )


def _shrikhande():
    # Cayley on Z4 x Z4 with connection set ±(1,0), ±(0,1), ±(1,1):
    # srg(16,6,2,2), distance-regular but not distance-transitive
    return G.build_graph(
        16,
        [
            (4 * x + y, 4 * ((x + dx) % 4) + (y + dy) % 4)
            for x in range(4)
            for y in range(4)
            for dx, dy in ((1, 0), (0, 1), (1, 1))
        ],
    )


def _cycle(n):
    return G.build_graph(n, [(i, (i + 1) % n) for i in range(n)])


def _knn(n):
    return G.build_graph(2 * n, [(i, n + j) for i in range(n) for j in range(n)])


def _one_edge_swap(graph):
    """Edges {u, v} and {x, y} replaced by {u, x} and {v, y}: the first pair,
    taking {u, v} as the least edge, that keeps the graph simple and
    connected.  Every degree is kept."""
    edges = graph.edges()
    u, v = edges[0]
    for x, y in edges[1:]:
        if len({u, v, x, y}) < 4 or graph.has_edge(u, x) or graph.has_edge(v, y):
            continue
        swapped = G.build_graph(graph.n, set(edges) - {(u, v), (x, y)} | {(u, x), (v, y)})
        if swapped.connected:
            return swapped
    raise AssertionError("no one-edge swap keeps the graph connected")


def _catalog(name):
    from geodex.atlas import atlas_get

    return lambda: atlas_get(name).graph


def _array_cases():
    from geodex.atlas import atlas_list

    cases = {name: _catalog(name) for name in atlas_list()}
    cases.update({f"PG(2,{q})": _catalog(f"PG(2,{q})") for q in (2, 3, 4, 5, 7, 8)})
    cases.update({f"W({q})": _catalog(f"W({q})") for q in (2, 3, 4)})
    # K200,200 has byte rows on 400 vertices and byte lanes (valency 200);
    # K256,256's valency 256 needs two-byte lanes
    cases.update({f"K{n},{n}": functools.partial(_knn, n) for n in (2, 3, 127, 128, 200, 256)})
    # C510 to C512 have diameters 255 and 256: two-byte lanes, and distances
    # past a byte on C512
    for n in [*range(3, 13), 255, 256, 257, 510, 511, 512]:
        cases[f"C{n}"] = functools.partial(_cycle, n)
    cases.update(
        K1=lambda: G.build_graph(1, []),
        K2=lambda: G.build_graph(2, [(0, 1)]),
        shrikhande=_shrikhande,
        prism=_prism,
        hexagonal_prism=_hexagonal_prism,
        crossed_q3=_crossed_q3,
    )
    return cases


_ARRAY_CASES = _array_cases()


def _reference_arc_count(graph, s):
    """The number of s-arcs by a fresh dynamic programme over directed
    edges: at each level, edge (v, w) gets the counts of the edges (u, v)
    with u != w."""
    counts = {(u, v): 1 for u in range(graph.n) for v in graph.adjacency[u]}
    for _ in range(s - 1):
        nxt = dict.fromkeys(counts, 0)
        for (u, v), c in counts.items():
            for w in graph.adjacency[v]:
                if w != u:
                    nxt[(v, w)] += c
        counts = nxt
    return sum(counts.values())


def _reference_geodesic_count(graph, s):
    """The number of s-geodesics by a fresh s-level walk from every vertex
    down the layers of its distance row; 0 past the diameter."""
    if s > G.diameter(graph):
        return 0
    dist = G.distance_matrix(graph)
    total = 0
    for u in range(graph.n):
        du = dist[u]
        level = {u: 1}
        for depth in range(1, s + 1):
            nxt = {}
            for x, c in level.items():
                for y in graph.adjacency[x]:
                    if du[y] == depth:
                        nxt[y] = nxt.get(y, 0) + c
            level = nxt
        total += sum(level.values())
    return total


def _count_cases():
    from geodex.atlas import atlas_list

    cases = {name: _catalog(name) for name in atlas_list()}
    for n in [*range(3, 13), 300]:
        cases[f"C{n}"] = functools.partial(_cycle, n)
    return cases


_COUNT_CASES = _count_cases()


def _levels(graph):
    """s = 1 up to two past the diameter; on a large cycle, only the first
    levels and those around the diameter."""
    d = G.diameter(graph)
    if graph.n > 200:
        return [1, 2, 3, d - 1, d, d + 1, d + 2]
    return list(range(1, d + 3))


def _assert_memoized_counts(graph, levels):
    """Ask the levels in ascending, descending and repeated order, each run
    on one fresh graph object, against the references."""
    fresh = G.build_graph(graph.n, graph.edges())
    want = {s: (_reference_arc_count(fresh, s), _reference_geodesic_count(fresh, s)) for s in levels}
    assert want[max(levels)][1] == 0  # past the diameter
    ascending = sorted(levels)
    for order in (ascending, ascending[::-1], ascending + ascending[::-1] + ascending):
        once = G.build_graph(graph.n, graph.edges())
        for s in order:
            assert (G.count_arcs(once, s), G.count_geodesics(once, s)) == want[s], s


class TestMemoizedCounts:
    """The per-graph memos of arc and geodesic counts against the per-level
    dynamic programmes they replace."""

    @pytest.mark.parametrize("name", sorted(_COUNT_CASES))
    def test_matches_per_level_counts(self, name):
        graph = _COUNT_CASES[name]()
        _assert_memoized_counts(graph, _levels(graph))

    @settings(max_examples=60, deadline=None)
    @given(_connected_graphs(), st.data())
    def test_random_connected_graphs(self, graph, data):
        levels = _levels(graph)
        _assert_memoized_counts(graph, levels)
        # any order, with repeats, on one graph object
        order = data.draw(st.lists(st.sampled_from(levels), max_size=12))
        for s in order:
            assert G.count_arcs(graph, s) == _reference_arc_count(graph, s)
            assert G.count_geodesics(graph, s) == _reference_geodesic_count(graph, s)

    def test_memo_grows_on_demand(self):
        graph = _cycle(8)
        assert G.count_arcs(graph, 3) == 16
        totals, _ = graph._cache["arcs"]
        assert totals == [16, 16, 16]
        assert G.count_arcs(graph, 2) == 16 and len(totals) == 3
        assert G.count_arcs(graph, 6) == 16 and len(totals) == 6
        assert G.count_geodesics(graph, 9) == 0 and "geodesics" not in graph._cache
        assert G.count_geodesics(graph, 1) == 16
        # two geodesics from each vertex to its antipode
        assert graph._cache["geodesics"] == [16, 16, 16, 16]


class TestIntersectionData:
    def test_c6_array(self, c6):
        assert str(G.intersection_array(c6)) == "{2,1,1;1,1,2}"

    def test_petersen_array(self, petersen):
        assert str(G.intersection_array(petersen)) == "{3,2;1,1}"

    def test_foster_array(self, foster):
        assert str(G.intersection_array(foster)) == "{3,2,2,2,2,1,1,1;1,1,1,1,2,2,2,3}"

    def test_sum_rule_and_counts(self, foster):
        # k_i b_i = k_{i+1} c_{i+1} on vertex 0's layer sizes k_i, and each
        # layer-i vertex has a_i = 3 - b_i - c_i neighbors in its own layer
        array = G.intersection_array(foster)
        b, c = array.b + (0,), (0,) + array.c
        dist = G.distances(foster, 0)
        sizes = [dist.count(i) for i in range(max(dist) + 1)]
        assert len(sizes) == array.diameter + 1
        for i, size in enumerate(sizes):
            layer = [v for v in range(foster.n) if dist[v] == i]
            inner = sum(dist[w] == i for v in layer for w in foster.adjacency[v])
            assert inner == size * (3 - b[i] - c[i])
            if i < array.diameter:
                assert sizes[i + 1] * c[i + 1] == size * b[i]

    def test_irregular_rejected(self):
        path = G.build_graph(3, [(0, 1), (1, 2)])
        with pytest.raises(NotRegular):
            G.intersection_array(path)
        # regularity is checked first: an irregular disconnected graph is
        # NotRegular, a regular one Disconnected
        star_and_triangle = G.build_graph(7, [(0, 1), (0, 2), (0, 3), (4, 5), (5, 6), (6, 4)])
        with pytest.raises(NotRegular):
            G.intersection_array(star_and_triangle)
        two_triangles = G.build_graph(6, [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3)])
        with pytest.raises(Disconnected):
            G.intersection_array(two_triangles)

    def test_array_computed_once_per_graph(self, monkeypatch):
        from geodex import symmetry
        from geodex.atlas import atlas_get

        calls = []
        original = G._intersection_array

        def counted(graph):
            calls.append(graph)
            return original(graph)

        monkeypatch.setattr(G, "_intersection_array", counted)
        foster = atlas_get("foster").graph  # validation reads the array
        aut = symmetry.automorphism_group(foster)
        symmetry.transitivity_degrees(foster, aut)
        symmetry.weiss_divisibility_check(foster, aut, 5)
        assert calls == [foster]

    def test_not_distance_regular(self):
        assert G.intersection_array(_prism()) is None
        assert G.intersection_array(_crossed_q3()) is None
        assert G.intersection_array(_hexagonal_prism()) is None

    def test_distance_regular_without_distance_transitivity(self):
        assert str(G.intersection_array(_shrikhande())) == "{6,3;1,2}"

    @pytest.mark.parametrize("name", sorted(_ARRAY_CASES))
    def test_matches_reference_walk(self, name):
        graph = _ARRAY_CASES[name]()
        want = _reference_intersection_array(G.build_graph(graph.n, graph.edges()))
        # an empty cache: a catalog graph already holds its validated array
        assert G.intersection_array(G.build_graph(graph.n, graph.edges())) == want

    @pytest.mark.parametrize("name", ["foster", "hexagon-q2"])
    def test_one_edge_swap_is_not_distance_regular(self, name):
        from geodex.atlas import atlas_get

        swapped = _one_edge_swap(atlas_get(name).graph)
        assert swapped.is_regular() and swapped.connected
        assert _reference_intersection_array(swapped) is None
        assert G.intersection_array(G.build_graph(swapped.n, swapped.edges())) is None


class TestShapes:
    def test_k33_shape(self, k33):
        shape = G.classify_shape(k33)
        assert shape.bipartite
        assert shape.complete_multipartite
        assert sorted(len(p) for p in shape.parts) == [3, 3]

    def test_petersen_shape(self, petersen):
        shape = G.classify_shape(petersen)
        assert not shape.bipartite
        assert not shape.complete_multipartite

    def test_foster_shape(self, foster):
        shape = G.classify_shape(foster)
        assert shape.bipartite
        assert sorted(len(p) for p in shape.bipartition) == [45, 45]
        assert not shape.complete_multipartite

    def test_complete_graph_is_multipartite(self):
        k4 = G.build_graph(4, [(i, j) for i in range(4) for j in range(i + 1, 4)])
        shape = G.classify_shape(k4)
        assert shape.complete_multipartite
        assert len(shape.parts) == 4

    @staticmethod
    def _reference(graph):
        """(complete multipartite, parts) by brute force: the graph is
        complete multipartite iff non-adjacency of distinct vertices is
        transitive, and its parts are then the classes of that relation."""
        n = graph.n
        apart = [[u == v or not graph.has_edge(u, v) for v in range(n)] for u in range(n)]
        for u, v, w in itertools.product(range(n), repeat=3):
            if apart[u][v] and apart[v][w] and not apart[u][w]:
                return False, None
        parts = {tuple(v for v in range(n) if apart[u][v]) for u in range(n)}
        return True, tuple(sorted(parts))

    def _check(self, graph):
        shape = G.classify_shape(graph)
        assert (shape.complete_multipartite, shape.parts) == self._reference(graph)
        assert shape.bipartition == G.bipartition(graph)

    @settings(max_examples=300, deadline=None)
    @given(_graphs())
    def test_matches_brute_force(self, graph):
        self._check(graph)

    @pytest.mark.parametrize("n", [0, 1, 2, 5, 9])
    def test_edgeless_and_complete(self, n):
        edgeless = G.build_graph(n, [])
        complete = G.build_graph(n, itertools.combinations(range(n), 2))
        for graph in (edgeless, complete):
            self._check(graph)
        assert G.classify_shape(edgeless).parts == ((tuple(range(n)),) if n else ())
        assert G.classify_shape(complete).parts == tuple((v,) for v in range(n))

    @pytest.mark.parametrize("seed", range(20))
    def test_relabeled_complete_multipartite(self, seed):
        rng = random.Random(seed)
        sizes = [rng.randint(1, 4) for _ in range(rng.randint(1, 5))]
        labels = [i for i, size in enumerate(sizes) for _ in range(size)]
        n = len(labels)
        images = list(range(n))
        rng.shuffle(images)
        part_of = {images[u]: labels[u] for u in range(n)}
        graph = G.build_graph(
            n, [(u, v) for u, v in itertools.combinations(range(n), 2) if part_of[u] != part_of[v]]
        )
        self._check(graph)
        shape = G.classify_shape(graph)
        assert shape.complete_multipartite
        assert sorted(map(len, shape.parts)) == sorted(sizes)
        # an edge inside a part of three or more breaks the structure (one
        # inside a part of two splits it into two parts)
        big = next((part for part in shape.parts if len(part) > 2), None)
        if big is not None:
            broken = G.build_graph(n, graph.edges() + [big[:2]])
            self._check(broken)
            assert not G.classify_shape(broken).complete_multipartite


class TestLCF:
    def test_k4(self):
        k4 = G.lcf_decode([2], 4)
        assert k4.n == 4 and k4.m == 6

    def test_heawood(self):
        heawood = G.lcf_decode([5, -5], 7)
        assert heawood.n == 14
        assert G.girth(heawood) == 6

    def test_foster_row(self):
        foster = G.lcf_decode([17, -9, 37, -37, 9, -17], 15)
        assert (foster.n, G.girth(foster), G.diameter(foster)) == (90, 10, 8)

    def test_bad_offsets(self):
        with pytest.raises(NotCubic):
            G.lcf_decode([1], 6)
        with pytest.raises(NotCubic):
            G.lcf_decode([6], 6)
        with pytest.raises(NotCubic):
            G.lcf_decode([2, 3], 3)

    def test_parse_spec_string(self):
        offsets, repeat = G.lcf_parse("[17,-9,37,-37,9,-17]^15")
        assert offsets == [17, -9, 37, -37, 9, -17]
        assert repeat == 15


class TestAgainstNetworkx:
    """girth, diameter and intersection arrays against networkx on seeded
    random inputs, forests and disconnected graphs included."""

    @staticmethod
    def _inputs(nx):
        for seed in range(16):
            rng = random.Random(seed)
            n = rng.randrange(2, 30)
            yield nx.gnp_random_graph(n, rng.choice((0.03, 0.08, 0.15, 0.3)), seed=seed)
            d = rng.choice((2, 3, 4))
            n = rng.randrange(d + 1, 31)
            yield nx.random_regular_graph(d, n + (n * d) % 2, seed=seed)
        yield nx.path_graph(9)
        yield nx.star_graph(6)
        yield nx.balanced_tree(2, 3)

    def test_girth(self):
        nx = pytest.importorskip("networkx")
        forests = 0
        for hx in self._inputs(nx):
            g = G.build_graph(hx.number_of_nodes(), list(hx.edges()))
            want = nx.girth(hx)
            if want == math.inf:
                forests += 1
                assert G.girth(g) is None, list(hx.edges())
            else:
                assert G.girth(g) == want, list(hx.edges())
        assert forests >= 5

    def test_diameter(self):
        nx = pytest.importorskip("networkx")
        disconnected = 0
        for hx in self._inputs(nx):
            g = G.build_graph(hx.number_of_nodes(), list(hx.edges()))
            if nx.is_connected(hx):
                assert G.diameter(g) == nx.diameter(hx), list(hx.edges())
            else:
                disconnected += 1
                with pytest.raises(Disconnected):
                    G.diameter(g)
        assert disconnected >= 5

    def test_intersection_array(self):
        nx = pytest.importorskip("networkx")
        named = [
            nx.dodecahedral_graph(),
            nx.icosahedral_graph(),
            nx.hypercube_graph(5),
            nx.hoffman_singleton_graph(),
        ]
        # valency 3 and up: networkx refuses any graph of diameter above
        # 8 log2(n) / 3, a bound that long cycles break
        regular = []
        for seed in range(24):
            rng = random.Random(seed)
            d = rng.choice((3, 4, 5))
            n = rng.randrange(d + 1, 31)
            regular.append(nx.random_regular_graph(d, n + (n * d) % 2, seed=seed))
        distance_regular = 0
        for hx in regular + named:
            hx = nx.convert_node_labels_to_integers(hx)
            g = G.build_graph(hx.number_of_nodes(), list(hx.edges()))
            array = G.intersection_array(g)
            if nx.is_distance_regular(hx):
                distance_regular += 1
                b, c = nx.intersection_array(hx)
                assert (array.b, array.c) == (tuple(b), tuple(c)), list(hx.edges())
            else:
                assert array is None, list(hx.edges())
        assert distance_regular >= len(named)
