from __future__ import annotations

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from geodex import graph as G
from geodex import perm
from geodex import symmetry as S
from geodex.oracles import (
    multiplication_closure_order,
    naive_diameter,
    naive_girth,
)
from geodex.perm import Permutation, build_group

_settings = settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


@st.composite
def graphs(draw, max_n=12):
    n = draw(st.integers(min_value=1, max_value=max_n))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    edges = draw(st.sets(st.sampled_from(pairs)) if pairs else st.just(set()))
    return G.build_graph(n, edges)


@st.composite
def permutation_lists(draw, max_degree=8, max_gens=3):
    n = draw(st.integers(min_value=1, max_value=max_degree))
    count = draw(st.integers(min_value=0, max_value=max_gens))
    gens = [Permutation(tuple(draw(st.permutations(range(n))))) for _ in range(count)]
    return n, gens


@_settings
@given(graphs(max_n=16))
def test_girth_and_diameter_match_oracles(graph):
    assert G.girth(graph) == naive_girth(graph)
    if graph.connected:
        assert G.diameter(graph) == naive_diameter(graph)


@_settings
@given(graphs(max_n=10), st.integers(min_value=1, max_value=4))
def test_geodesics_are_arcs(graph, s):
    if not graph.connected:
        return
    if s > G.diameter(graph):
        return
    arcs = set(G.enumerate_arcs(graph, s))
    geos = G.enumerate_geodesics(graph, s)
    assert set(geos) <= arcs
    assert len(geos) == G.count_geodesics(graph, s)
    # under girth >= 2s every s-arc is an s-geodesic
    girth = G.girth(graph)
    if girth is not None and girth >= 2 * s:
        assert set(geos) == arcs


@_settings
@given(graphs(max_n=16))
def test_graph6_round_trip(graph):
    assert G.graph6_decode(G.graph6_encode(graph)).adjacency == graph.adjacency


@_settings
@given(permutation_lists())
def test_group_order_matches_closure(params):
    n, gens = params
    group = build_group(gens, degree=n)
    assert group.order() == multiplication_closure_order(gens)


@_settings
@given(permutation_lists(max_degree=7), st.data())
def test_orbit_stabilizer(params, data):
    n, gens = params
    group = build_group(gens, degree=n)
    k = data.draw(st.integers(min_value=1, max_value=min(3, n)))
    points = data.draw(st.lists(st.integers(0, n - 1), min_size=k, max_size=k, unique=True))
    stab = perm.pointwise_stabilizer(group, points)
    orbit = {tuple(points)}
    stack = [tuple(points)]
    raw = [g.images for g in group.generators]
    while stack:
        t = stack.pop()
        for g in raw:
            img = tuple(g[x] for x in t)
            if img not in orbit:
                orbit.add(img)
                stack.append(img)
    assert len(orbit) * stab.order() == group.order()


@_settings
@given(permutation_lists(max_degree=7))
def test_normal_closure_properties(params):
    n, gens = params
    group = build_group(gens, degree=n)
    if not gens:
        return
    sub = build_group([gens[0]], degree=n)
    is_normal, closure = perm.normal_test_and_closure(group, sub)
    assert perm.is_subgroup_of(sub, closure)
    again, _ = perm.normal_test_and_closure(group, closure)
    assert again  # the closure is normal
    if is_normal:
        assert perm.same_group(closure, sub)


@_settings
@given(permutation_lists(max_degree=6))
def test_induced_action_order_product(params):
    n, gens = params
    group = build_group(gens, degree=n)
    blocks = perm.orbits(group)
    quotient, kernel = perm.induced_action(group, blocks)
    assert quotient.order() * kernel.order() == group.order()


def test_intersection_parameter_identities(ctx):
    for name in ("petersen", "heawood", "tutte-coxeter", "desargues", "foster"):
        graph = ctx.graph(name)
        valency = graph.valency
        dist = G.distances(graph, 0)
        sizes = [dist.count(i) for i in range(max(dist) + 1)]
        array = G.intersection_array(graph)
        b, c = array.b + (0,), (0,) + array.c
        assert len(sizes) == array.diameter + 1
        for i, size in enumerate(sizes):
            layer = [v for v in range(graph.n) if dist[v] == i]
            inner = sum(dist[w] == i for v in layer for w in graph.adjacency[v])
            assert inner == size * (valency - b[i] - c[i])
            if i < array.diameter:
                assert sizes[i + 1] * c[i + 1] == size * b[i]


def test_transitivity_verdicts_representative_independent(ctx):
    import random

    rng = random.Random(5150)
    graph = ctx.graph("heawood")
    aut = ctx.aut("heawood")
    for s in (1, 2, 3, 4, 5):
        arcs = G.enumerate_arcs(graph, s)
        total = len(arcs)
        expected = S.is_s_arc_transitive(graph, aut, s)
        for _ in range(4):
            rep = arcs[rng.randrange(total)]
            stab = perm.pointwise_stabilizer(aut, rep)
            assert (aut.order() == total * stab.order()) == expected
