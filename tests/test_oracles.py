"""The oracles of claim 10 against their plain forms: the orbit-stabilizer
automorphism count against a backtrack with one leaf per automorphism and
against testing every permutation, and the capped closure against the
uncapped one."""

from __future__ import annotations

import itertools
import random

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from geodex import oracles, verify
from geodex.graph import build_graph
from geodex.perm import Permutation


def _count_by_all_permutations(graph):
    """Automorphisms by testing every permutation of the vertices."""
    adjsets = graph.neighbor_sets()
    edges = graph.edges()
    count = 0
    for perm in itertools.permutations(range(graph.n)):
        for u, v in edges:
            if perm[v] not in adjsets[perm[u]]:
                break
        else:
            count += 1
    return count


def _count_by_leaves(graph):
    """Automorphisms as the leaves of a plain permutation backtrack.

    Vertex 0, then 1, and so on is mapped to each unused target in
    ``range(n)`` order; a partial map is dropped as soon as an edge or a
    non-edge among its mapped vertices is broken.  No degrees are used, so
    every automorphism is one leaf.
    """
    n = graph.n
    adjsets = graph.neighbor_sets()
    image = [0] * n
    used = [False] * n

    def extend(u):
        if u == n:
            return 1
        nbrs = adjsets[u]
        count = 0
        for t in range(n):
            if used[t]:
                continue
            tnbrs = adjsets[t]
            for q in range(u):
                if (q in nbrs) != (image[q] in tnbrs):
                    break
            else:
                image[u] = t
                used[t] = True
                count += extend(u + 1)
                used[t] = False
        return count

    return extend(0)


def _assert_three_counts_agree(graph):
    want = _count_by_all_permutations(graph)
    assert _count_by_leaves(graph) == want, graph.edges()
    assert oracles.brute_force_automorphism_count(graph) == want, graph.edges()


def test_backtrack_count_on_every_labeled_graph_up_to_5():
    graphs = list(oracles.all_labeled_connected_graphs(5))
    assert len(graphs) == 1 + 1 + 4 + 38 + 728
    for graph in graphs:
        _assert_three_counts_agree(graph)


def test_backtrack_count_on_relabeled_atlas_graphs_up_to_6():
    nx = pytest.importorskip("networkx")
    rng = random.Random(6)
    checked = 0
    for hx in nx.graph_atlas_g()[1:]:
        n = hx.number_of_nodes()
        if n > 6:
            break
        if not nx.is_connected(hx):
            continue
        for _ in range(3):
            images = list(range(n))
            rng.shuffle(images)
            _assert_three_counts_agree(
                build_graph(n, [(images[u], images[v]) for u, v in hx.edges()])
            )
        checked += 1
    assert checked == 1 + 1 + 2 + 6 + 21 + 112


def test_backtrack_count_on_the_claim_10_corpus_up_to_7():
    graphs = [g for g in verify._automorphism_corpus() if g.n <= 7]
    assert len(graphs) == verify.CONNECTED_GRAPHS_UP_TO_7
    for graph in graphs:
        _assert_three_counts_agree(graph)


def test_backtrack_count_of_the_empty_and_one_vertex_graphs():
    for n in (0, 1):
        graph = build_graph(n, [])
        _assert_three_counts_agree(graph)
        assert oracles.brute_force_automorphism_count(graph) == 1


_BUILT = {
    "K8": (8, list(itertools.combinations(range(8), 2))),
    "cube": (8, [(0, 1), (1, 2), (2, 3), (3, 0), (4, 5), (5, 6), (6, 7), (7, 4),
                 (0, 4), (1, 5), (2, 6), (3, 7)]),
}


@pytest.mark.parametrize(
    "name, order",
    [("K8", 40320), ("cube", 48), ("k4,4", 1152), ("petersen", 120),
     ("heawood", 336), ("desargues", 240)],
)
def test_backtrack_count_of_named_graphs(ctx, name, order):
    graph = build_graph(*_BUILT[name]) if name in _BUILT else ctx.graph(name)
    assert oracles.brute_force_automorphism_count(graph) == order


def test_capped_closure_on_claim_10_cases(monkeypatch):
    calls = []
    original = oracles.multiplication_closure_order

    def recorded(gens, cap=None):
        result = original(gens, cap)
        calls.append((gens, cap, result))
        return result

    monkeypatch.setattr(oracles, "multiplication_closure_order", recorded)
    assert verify._group_order_oracle_failures() == []
    assert len(calls) == 46
    skipped = []
    for gens, cap, result in calls:
        full = original(gens)
        assert cap == 10**4
        assert result == (None if full > cap else full)
        if result is None:
            skipped.append(full)
    # S8, S8 and A8, as before the cap
    assert sorted(skipped) == [20160, 40320, 40320]


@st.composite
def _generator_sets(draw):
    n = draw(st.integers(min_value=1, max_value=7))
    count = draw(st.integers(min_value=0, max_value=3))
    gens = [Permutation(tuple(draw(st.permutations(range(n))))) for _ in range(count)]
    return gens


@settings(max_examples=80, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(_generator_sets(), st.integers(min_value=0, max_value=6000))
def test_capped_closure_is_none_exactly_above_the_cap(gens, cap):
    full = oracles.multiplication_closure_order(gens)
    assert oracles.multiplication_closure_order(gens, cap) == (None if full > cap else full)
    assert oracles.multiplication_closure_order(gens, full) == full
    assert oracles.multiplication_closure_order(gens, full - 1) is None



@pytest.mark.parametrize("n", [1, 2, 255, 256, 257, 300])
def test_closure_across_the_byte_boundary(n):
    # the dihedral group of the n-gon: bytes up to 256 points, tuples above
    rotation = Permutation(tuple((i + 1) % n for i in range(n)))
    reflection = Permutation(tuple((-i) % n for i in range(n)))
    order = {1: 1, 2: 2}.get(n, 2 * n)
    assert oracles.multiplication_closure_order([rotation, reflection]) == order
    assert oracles.multiplication_closure_order([rotation, reflection], order - 1) is None
    assert oracles.multiplication_closure_order([rotation], n) == n

def _assert_normal_structure_matches_oracle(group):
    from geodex import perm

    want = oracles.minimal_normal_subgroups(group.generators, 10**4)
    minimal, socle = perm.normal_structure(group)
    assert [m.order() for m in minimal] == [len(m) for m in want]
    assert {frozenset(map(tuple, m.raw_elements())) for m in minimal} == set(want)
    assert socle.order() == len(oracles._generated(sorted(set().union(*want)), group.degree))


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(_generator_sets())
def test_minimal_normal_subgroups_against_the_library(gens):
    from geodex.perm import build_group

    group = build_group(gens, degree=gens[0].degree if gens else 1)
    _assert_normal_structure_matches_oracle(group)


@pytest.mark.parametrize("name", ["K3,3", "C6", "C8", "K4,4", "heawood"])
def test_minimal_normal_subgroups_of_aut_and_its_biparts(ctx, name):
    from geodex import perm
    from geodex.graph import bipartition

    group = ctx.aut(name)
    _assert_normal_structure_matches_oracle(group)
    _, g_plus = perm.induced_action(group, list(bipartition(ctx.graph(name))))
    for part in bipartition(ctx.graph(name)):
        _assert_normal_structure_matches_oracle(perm.restriction(g_plus, part)[0])


def test_minimal_normal_subgroups_above_the_cap():
    s5 = [Permutation((1, 2, 3, 4, 0)), Permutation((1, 0, 2, 3, 4))]
    assert oracles.minimal_normal_subgroups(s5, 119) is None
    assert [len(m) for m in oracles.minimal_normal_subgroups(s5, 120)] == [60]
