from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from geodex import graph as graphmod
from geodex import perm
from geodex import symmetry as S
from geodex.atlas import atlas_get, atlas_list, pg2_incidence
from geodex.errors import (
    Disconnected,
    GraphTooLarge,
    NotAutomorphisms,
    NotTransitive,
    NotVertexTransitive,
    PreconditionUnverified,
    ValencyNotPrimePowerPlusOne,
)
from geodex.graph import build_graph, diameter, girth, lcf_decode
from geodex.oracles import brute_force_automorphism_count, geodesics_by_filter, recursive_arcs
from geodex.perm import Permutation, build_group


def cyc(degree, *cycles):
    return Permutation.from_cycles(cycles, degree)


class TestAutomorphismGroup:
    def test_c6_dihedral(self, c6):
        assert S.automorphism_group(c6).order() == 12

    def test_petersen(self, petersen_aut):
        assert petersen_aut.order() == 120

    def test_foster(self, foster_aut):
        assert foster_aut.order() == 4320

    def test_brute_force_agreement_small(self):
        rng = random.Random(2024)
        for _ in range(40):
            n = rng.randrange(1, 7)
            edges = [
                (i, j)
                for i in range(n)
                for j in range(i + 1, n)
                if rng.random() < 0.5
            ]
            g = build_graph(n, edges)
            if not g.connected:
                continue
            assert S.automorphism_group(g).order() == brute_force_automorphism_count(g)

    def test_all_generators_are_automorphisms(self, foster, foster_aut):
        S.validate_automorphisms(foster, foster_aut)

    def test_disconnected_rejected(self):
        with pytest.raises(Disconnected):
            S.automorphism_group(build_graph(4, [(0, 1), (2, 3)]))
        # a graph with no vertices is not connected
        with pytest.raises(Disconnected):
            S.automorphism_group(build_graph(0, []))

    def test_cap(self, petersen, monkeypatch):
        monkeypatch.setattr(S, "AUTOMORPHISM_VERTEX_CAP", 5)
        with pytest.raises(GraphTooLarge):
            S.automorphism_group(petersen)

    def test_isomorphism_cap(self, petersen, monkeypatch):
        monkeypatch.setattr(S, "AUTOMORPHISM_VERTEX_CAP", 5)
        with pytest.raises(GraphTooLarge):
            S.are_isomorphic(petersen, petersen)

    def test_one_distance_row_per_vertex(self, monkeypatch):
        # every question reads the one cached distance matrix of the graph,
        # built once (by BFS rows or bit-parallel) with one row per vertex
        tables = []
        original = graphmod._distance_table

        def counted(graph):
            tables.append(original(graph))
            return tables[-1]

        monkeypatch.setattr(graphmod, "_distance_table", counted)
        foster = atlas_get("foster").graph
        aut = S.automorphism_group(foster)
        S.transitivity_degrees(foster, aut)
        S.weiss_divisibility_check(foster, aut, 5)
        assert len(tables) == 1 and len(tables[0]) == foster.n

    @pytest.mark.parametrize("n", [256, 257, 512])
    def test_cycles_either_side_of_byte_rows(self, n):
        # C256 and C257 straddle the 256 vertices up to which the search
        # pads byte rows for one translate, and C512's diameter 256 gives
        # tuple rows; Aut(C_n) is dihedral of order 2n
        cycle = graphmod.build_graph(n, [(i, (i + 1) % n) for i in range(n)])
        assert S.automorphism_group(cycle).order() == 2 * n
        images = list(range(n))
        random.Random(n).shuffle(images)
        relabeled = graphmod.build_graph(n, [(images[u], images[v]) for u, v in cycle.edges()])
        found = S.are_isomorphic(cycle, relabeled)
        assert sorted(found) == list(range(n))
        assert all(relabeled.has_edge(found[u], found[v]) for u, v in cycle.edges())

    def test_semisymmetric_hexagon(self, ctx):
        aut = ctx.aut("hexagon-q2")
        assert aut.order() == 12096
        assert sorted(len(o) for o in perm.orbits(aut)) == [63, 63]

    def test_foster_chain_structure(self, foster_aut):
        # brute-force chain verification: the order factors over the basic
        # orbits, the leading orbit is the whole vertex set, and level-i
        # generators fix the base prefix
        sizes = foster_aut.basic_orbit_sizes()
        product = 1
        for size in sizes:
            product *= size
        assert product == 4320
        assert sizes[0] == 90
        base = foster_aut.base()
        for i, level in enumerate(foster_aut._chain.levels):
            for g in level.gens:
                assert all(g[b] == b for b in base[:i])


class TestIsomorphism:
    def test_relabelled_c6(self, c6):
        relabel = [3, 5, 1, 0, 4, 2]
        h = build_graph(6, [(relabel[u], relabel[v]) for u, v in c6.edges()])
        mapping = S.are_isomorphic(c6, h)
        assert mapping is not None
        adjsets = h.neighbor_sets()
        for u, v in c6.edges():
            assert mapping[v] in adjsets[mapping[u]]

    def test_c6_vs_k33(self, c6, k33):
        assert S.are_isomorphic(c6, k33) is None

    def test_heawood_constructions_agree(self):
        assert S.are_isomorphic(lcf_decode([5, -5], 7), pg2_incidence(2)) is not None

    def test_disconnected_pairs(self):
        g1 = build_graph(6, [(0, 1), (1, 2), (3, 4)])
        g2 = build_graph(6, [(5, 3), (3, 1), (0, 2)])
        assert S.are_isomorphic(g1, g2) is not None
        g3 = build_graph(6, [(0, 1), (2, 3), (4, 5)])
        assert S.are_isomorphic(g1, g3) is None

    def test_cubic_pair_across_the_byte_row_diameter(self):
        # both cubic on 510 vertices, so degrees and colour refinement agree:
        # a necklace of 125 diamonds (K4 less an edge) joined by bridges and
        # capped at each end by a K4 with one edge subdivided has diameter
        # past 255 and tuple rows; the prism C255 x K2 has byte rows
        edges = []
        for i in range(125):
            a, b, c, d = range(4 * i, 4 * i + 4)
            edges += [(a, b), (a, c), (b, c), (b, d), (c, d)]
            if i:
                edges.append((4 * i - 1, a))
        for end, x in ((0, 500), (499, 505)):
            a, b, c, d = range(x + 1, x + 5)
            edges += [(end, x), (x, a), (x, b), (a, c), (a, d), (b, c), (b, d), (c, d)]
        necklace = build_graph(510, edges)
        prism = build_graph(
            510,
            [(i, (i + 1) % 255) for i in range(255)]
            + [(255 + i, 255 + (i + 1) % 255) for i in range(255)]
            + [(i, 255 + i) for i in range(255)],
        )
        assert set(necklace.degrees()) == set(prism.degrees()) == {3}
        assert necklace.m == prism.m
        assert diameter(necklace) > 255 >= diameter(prism)
        assert type(graphmod.distance_matrix(necklace)[0]) is tuple
        assert type(graphmod.distance_matrix(prism)[0]) is bytes
        assert S.are_isomorphic(necklace, prism) is None
        assert S.are_isomorphic(prism, necklace) is None
        # the same pair as components, each beside one edge
        with_edge = [build_graph(512, list(g.edges()) + [(510, 511)]) for g in (necklace, prism)]
        assert S.are_isomorphic(*with_edge) is None


class TestArcTransitivity:
    def test_c6(self, c6):
        aut = S.automorphism_group(c6)
        assert S.is_s_arc_transitive(c6, aut, 1)

    def test_foster_gap(self, foster, foster_aut):
        assert S.is_s_arc_transitive(foster, foster_aut, 5)
        assert not S.is_s_arc_transitive(foster, foster_aut, 6)

    def test_k33_not_4_arc_transitive(self, k33):
        aut = S.automorphism_group(k33)
        assert S.is_s_arc_transitive(k33, aut, 3)
        assert not S.is_s_arc_transitive(k33, aut, 4)

    def test_non_automorphisms_rejected(self, c6):
        bogus = build_group([cyc(6, (0, 1))])
        with pytest.raises(NotAutomorphisms):
            S.is_s_arc_transitive(c6, bogus, 1)

    def test_representative_independence(self, petersen, petersen_aut):
        from geodex.graph import count_arcs, enumerate_arcs

        rng = random.Random(11)
        for s in (1, 2, 3, 4):
            arcs = enumerate_arcs(petersen, s)
            total = count_arcs(petersen, s)
            verdicts = set()
            for _ in range(5):
                rep = arcs[rng.randrange(len(arcs))]
                stab = perm.pointwise_stabilizer(petersen_aut, rep)
                verdicts.add(petersen_aut.order() == total * stab.order())
            assert len(verdicts) == 1
            assert verdicts.pop() == S.is_s_arc_transitive(petersen, petersen_aut, s)


class TestGeodesicTransitivity:
    def test_c6_level_3(self, c6):
        aut = S.automorphism_group(c6)
        assert S.is_s_geodesic_transitive(c6, aut, 3)

    def test_foster_full(self, foster, foster_aut):
        assert S.is_s_geodesic_transitive(foster, foster_aut, 8)

    def test_foster_level_6_vs_arcs(self, foster, foster_aut):
        # the motivating gap: geodesic transitivity beyond arc transitivity
        assert S.is_s_geodesic_transitive(foster, foster_aut, 6)
        assert not S.is_s_arc_transitive(foster, foster_aut, 6)

    def test_s_beyond_diameter(self, petersen, petersen_aut):
        assert S.is_s_geodesic_transitive(petersen, petersen_aut, 3) is False

    @pytest.mark.parametrize("name", atlas_list())
    def test_no_geodesics_past_the_diameter(self, ctx, name):
        graph, aut = ctx.graph(name), ctx.aut(name)
        s = diameter(graph) + 1
        assert S.is_s_geodesic_transitive(graph, aut, s) is False
        assert graphmod.count_geodesics(graph, s) == 0
        assert graphmod.first_geodesic(graph, s) is None


class TestTransitivityDegrees:
    def test_petersen_shortcut(self, petersen, petersen_aut):
        report = S.transitivity_degrees(petersen, petersen_aut)
        assert report.arc_degree == 3
        assert report.geodesic_degree == 2
        assert report.geodesic_transitive
        assert report.b_s_shortcut_used and report.shortcut_level == 2

    def test_foster_degrees(self, foster, foster_aut):
        report = S.transitivity_degrees(foster, foster_aut)
        assert (report.arc_degree, report.geodesic_degree) == (5, 8)

    def test_biggs_smith_degrees(self, ctx):
        graph = ctx.graph("biggs-smith")
        report = S.transitivity_degrees(graph, ctx.aut("biggs-smith"))
        assert (report.arc_degree, report.geodesic_degree) == (4, 7)

    def test_needs_vertex_transitive(self):
        path = build_graph(3, [(0, 1), (1, 2)])
        aut = S.automorphism_group(path)
        with pytest.raises(NotVertexTransitive):
            S.transitivity_degrees(path, aut)

    def test_downward_closure(self, ctx):
        # arc and geodesic levels are downward closed on every catalog row
        for name in ("petersen", "heawood", "tutte-coxeter", "desargues"):
            graph = ctx.graph(name)
            aut = ctx.aut(name)
            report = S.transitivity_degrees(graph, aut)
            for s in range(1, report.arc_degree + 1):
                assert S.is_s_arc_transitive(graph, aut, s)
            top = min(report.geodesic_degree, diameter(graph))
            assert S.is_s_geodesic_transitive(graph, aut, top)


def _tuple_orbit_size(group, rep) -> int:
    """Size of the orbit of ``rep`` by closing it under the generators."""
    gens = [g.images for g in group.generators]
    orbit = {rep}
    stack = [rep]
    while stack:
        t = stack.pop()
        for g in gens:
            image = tuple(g[x] for x in t)
            if image not in orbit:
                orbit.add(image)
                stack.append(image)
    return len(orbit)


def _oracle_transitive(group, tuples) -> bool:
    return bool(tuples) and _tuple_orbit_size(group, tuples[0]) == len(tuples)


def _leading(levels) -> int:
    """Number of leading True entries."""
    return next((i for i, ok in enumerate(levels) if not ok), len(levels))


class TestLevelsAgainstOrbitOracle:
    @pytest.mark.parametrize("name", ["C6", "K4", "K3,3", "Q3", "petersen", "heawood", "K2"])
    def test_every_level(self, name, ctx):
        graph = {
            "C6": lambda: build_graph(6, [(i, (i + 1) % 6) for i in range(6)]),
            "K4": lambda: build_graph(4, [(i, j) for i in range(4) for j in range(i)]),
            "K3,3": lambda: build_graph(6, [(i, j) for i in range(3) for j in range(3, 6)]),
            "Q3": lambda: build_graph(8, [(i, i ^ b) for i in range(8) for b in (1, 2, 4)]),
            "petersen": lambda: ctx.graph("petersen"),
            "heawood": lambda: ctx.graph("heawood"),
            "K2": lambda: build_graph(2, [(0, 1)]),
        }[name]()
        aut = S.automorphism_group(graph)
        # Aut and seeded vertex-transitive subgroups on two random elements
        # (one per order), so that the levels fail at different depths
        rng = random.Random(5)
        elements = aut.raw_elements()
        groups = {aut.order(): aut}
        for _ in range(40):
            sub = build_group([Permutation(rng.choice(elements)) for _ in range(2)], degree=graph.n)
            if sub.is_transitive():
                groups.setdefault(sub.order(), sub)
        d = diameter(graph)
        for group in groups.values():
            arcs = [_oracle_transitive(group, recursive_arcs(graph, s)) for s in range(1, 6)]
            geos = [_oracle_transitive(group, geodesics_by_filter(graph, i)) for i in range(1, d + 1)]
            for s, want in enumerate(arcs, 1):
                assert S.is_s_arc_transitive(graph, group, s) == want
            for s in range(1, d + 1):
                assert S.is_s_geodesic_transitive(graph, group, s) == all(geos[:s])
            report = S.transitivity_degrees(graph, group)
            if graph.valency <= 2:
                assert report.arc_degree == min(d, _leading(arcs))
            else:
                assert not all(arcs)  # the oracle range covers the first failure
                assert report.arc_degree == _leading(arcs)
            assert report.geodesic_degree == _leading(geos)
            assert report.geodesic_transitive == all(geos)


class TestOneChainPerQuestion:
    """Schreier-Sims builds per question, on a fresh Foster group."""

    @pytest.fixture
    def group(self, foster_aut, chain_builds):
        group = build_group(foster_aut.generators)
        chain_builds.clear()
        return group

    def test_transitivity_degrees(self, foster, group, chain_builds):
        report = S.transitivity_degrees(foster, group)
        assert (report.arc_degree, report.geodesic_degree) == (5, 8)
        assert len(chain_builds) <= 2  # one arc chain, one geodesic chain

    def test_geodesic_levels_share_one_chain(self, foster, group, chain_builds):
        assert S.is_s_geodesic_transitive(foster, group, 8)
        assert len(chain_builds) == 1

    def test_weiss_reads_g_u_from_the_arc_chain(self, foster, group, chain_builds):
        report = S.weiss_divisibility_check(foster, group, 5)
        assert report.stabilizer_order == 48
        assert len(chain_builds) == 2  # the 5-arc chain and the kernel chain


class TestBlocksAndPrimitivity:
    def test_c4_blocks(self):
        c4 = build_group([cyc(4, (0, 1, 2, 3))])
        systems = S.block_systems(c4)
        assert ((0, 2), (1, 3)) in systems
        assert not S.is_primitive(c4)

    def test_s4_primitive(self):
        s4 = build_group([cyc(4, (0, 1, 2, 3)), cyc(4, (0, 1))])
        assert S.is_primitive(s4)

    def test_foster_blocks_of_size_3(self, foster_aut):
        systems = S.block_systems(foster_aut)
        assert any(len(system[0]) == 3 for system in systems)
        assert not S.is_primitive(foster_aut)

    def test_needs_transitive(self):
        g = build_group([cyc(4, (0, 1))])
        with pytest.raises(NotTransitive):
            S.block_systems(g)

    def test_suborbit_representatives_match_every_beta(self, ctx):
        c4 = build_group([cyc(4, (0, 1, 2, 3))])
        graph = ctx.graph("tutte-coxeter")
        delta1, delta2 = graphmod.bipartition(graph)
        _, g_plus = perm.induced_action(ctx.aut("tutte-coxeter"), [delta1, delta2])
        x1, _ = perm.restriction(g_plus, delta1)
        for group in (ctx.aut("foster"), x1, c4):
            assert S.block_systems(group) == _block_systems_every_beta(group)

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_suborbit_representatives_match_every_beta_random(self, data):
        n = data.draw(st.integers(min_value=1, max_value=9))
        count = data.draw(st.integers(min_value=1, max_value=3))
        gens = [Permutation(tuple(data.draw(st.permutations(range(n))))) for _ in range(count)]
        group = build_group(gens, degree=n)
        x, _ = perm.restriction(group, sorted(group.orbit(0)))  # transitive
        assert S.block_systems(x) == _block_systems_every_beta(x)


def _block_systems_every_beta(group):
    """Reference: the minimal system merging 0 with every other beta."""
    systems = set()
    for beta in range(1, group.degree):
        blocks = S.minimal_block_system(group, 0, beta)
        if 1 < len(blocks[0]) < group.degree:
            systems.add(tuple(blocks))
    return sorted(systems, key=lambda s: (len(s[0]), s))


class TestQuasiprimitivity:
    def test_c5(self):
        c5 = build_group([cyc(5, (0, 1, 2, 3, 4))])
        assert S.quasiprimitivity(c5).quasiprimitive

    def test_s4(self):
        s4 = build_group([cyc(4, (0, 1, 2, 3)), cyc(4, (0, 1))])
        assert S.quasiprimitivity(s4).quasiprimitive

    def test_foster_witness(self, foster_aut):
        report = S.quasiprimitivity(foster_aut)
        assert not report.quasiprimitive
        assert report.witness is not None and report.witness.order() == 3
        assert len(perm.orbits(report.witness)) == 30

    def test_primitive_implies_quasiprimitive(self):
        for gens in (
            [cyc(4, (0, 1, 2, 3)), cyc(4, (0, 1))],
            [cyc(5, (0, 1, 2, 3, 4)), cyc(5, (1, 2, 3, 4))],
        ):
            group = build_group(gens)
            if S.is_primitive(group):
                assert S.quasiprimitivity(group).quasiprimitive


class TestBiAnalysis:
    def test_c6(self, c6):
        action = S.bi_analysis(c6, S.automorphism_group(c6))
        setting = action.bipartite_setting
        assert setting is not None
        assert setting.g_plus.order() == 6
        assert len(setting.delta1) == len(setting.delta2) == 3
        assert setting.biprimitive

    def test_heawood(self, ctx):
        action = S.bi_analysis(ctx.graph("heawood"), ctx.aut("heawood"))
        setting = action.bipartite_setting
        assert ctx.aut("heawood").order() == 336
        assert setting.g_plus.order() == 168
        assert setting.biquasiprimitive
        assert action.socle_tag == "simple"
        assert action.x_faithful
        x, omega = action.x_omega
        assert x.order() == 168 and len(omega) == 7
        minimals, _ = perm.normal_structure(x)
        assert len(minimals) == 1 and minimals[0].order() == 168

    def test_k33_flags_computed(self, k33):
        action = S.bi_analysis(k33, S.automorphism_group(k33))
        setting = action.bipartite_setting
        assert setting.g_plus.order() == 36
        assert setting.biprimitive
        assert isinstance(setting.biquasiprimitive, bool)
        json_report = action.to_json()
        assert set(json_report) >= {
            "primitive",
            "quasiprimitive",
            "biprimitive",
            "biquasiprimitive",
            "socle_tag",
            "witness",
        }

    def test_k33_bipart_restriction(self, k33):
        # G+ = S3 x S3 and one factor fixes a bipart pointwise, so G+ acts
        # unfaithfully there; the restriction is S3 on 3 points
        delta1, delta2 = graphmod.bipartition(k33)
        _, g_plus = perm.induced_action(S.automorphism_group(k33), [delta1, delta2])
        x, faithful = perm.restriction(g_plus, delta1)
        assert x.order() == 6
        assert not faithful
        assert S.is_primitive(x)
        assert S.quasiprimitivity(x).quasiprimitive

    @pytest.mark.parametrize(
        "name",
        ["heawood", "tutte-coxeter", "desargues", "foster", "k3,3", "c6", "k4,4", "c8"],
    )
    def test_primitive_bipart_action_is_quasiprimitive(self, ctx, name):
        parts = graphmod.bipartition(ctx.graph(name))
        _, g_plus = perm.induced_action(ctx.aut(name), parts)
        for delta in parts:
            x, _ = perm.restriction(g_plus, delta)
            if S.is_primitive(x):
                assert S.quasiprimitivity(x).quasiprimitive

    def test_petersen_quasiprimitive_simple_socle(self, petersen, petersen_aut):
        action = S.bi_analysis(petersen, petersen_aut)
        assert action.quasiprimitive
        assert action.bipartite_setting is None
        assert action.socle_tag == "simple"

    def test_simple_group_listed_once(self, ctx, monkeypatch):
        # Aut(Biggs-Smith) is PSL(2,17); its one minimal normal subgroup is
        # the whole group, so its 2448 elements are listed once, not twice
        listed = []
        original = perm.PermGroup.raw_elements

        def counted(self):
            if "elements" not in self._cache:
                listed.append(self.order())
            return original(self)

        monkeypatch.setattr(perm.PermGroup, "raw_elements", counted)
        group = build_group(ctx.aut("biggs-smith").generators)
        action = S.bi_analysis(ctx.graph("biggs-smith"), group)
        assert action.socle_tag == "simple"
        assert sum(listed) == 2448

    def test_biprimitive_implies_biquasiprimitive(self, ctx, c6, k33):
        for name_graph in (("heawood", None), (None, c6), (None, k33)):
            name, graph = name_graph
            graph = ctx.graph(name) if name else graph
            aut = ctx.aut(name) if name else S.automorphism_group(graph)
            action = S.bi_analysis(graph, aut)
            setting = action.bipartite_setting
            if setting is not None and setting.biprimitive:
                # C6's dihedral group has a 3-orbit minimal normal subgroup,
                # exactly the paper's reason the implication needs G itself
                # to be scrutinized; record the computed flags instead of
                # asserting the implication blindly
                assert isinstance(setting.biquasiprimitive, bool)


class TestWeiss:
    def test_foster_s5(self, foster, foster_aut):
        report = S.weiss_divisibility_check(foster, foster_aut, 5)
        assert report.stabilizer_order == 48
        assert report.product == 48 and report.divides
        assert report.case == "s5" and report.matched and report.parameter == 1
        assert report.q == 2 and report.p == 2 and report.f == 1
        assert report.kernel_is_p_group

    def test_heawood_s4(self, ctx):
        report = S.weiss_divisibility_check(ctx.graph("heawood"), ctx.aut("heawood"), 4)
        assert report.stabilizer_order == 24
        assert report.case == "s4" and report.matched and report.parameter == 1

    def test_petersen_unverified(self, petersen, petersen_aut):
        with pytest.raises(PreconditionUnverified):
            S.weiss_divisibility_check(petersen, petersen_aut, 4)

    def test_valency_gate(self):
        # valency 7 means q = 6, not a prime power
        k77 = build_graph(14, [(i, 7 + j) for i in range(7) for j in range(7)])
        aut = S.automorphism_group(k77)
        with pytest.raises(ValencyNotPrimePowerPlusOne):
            S.weiss_divisibility_check(k77, aut, 4)

    def test_s_below_4_rejected(self, foster, foster_aut):
        with pytest.raises(PreconditionUnverified):
            S.weiss_divisibility_check(foster, foster_aut, 3)


class TestGirthBoundInvariant:
    def test_arc_transitive_implies_girth_bound(self, ctx):
        # s-arc transitivity at level s forces girth >= 2s - 2
        for name in ("petersen", "heawood", "tutte-coxeter", "foster"):
            graph = ctx.graph(name)
            aut = ctx.aut(name)
            s = S.transitivity_degrees(graph, aut).arc_degree
            assert girth(graph) >= 2 * s - 2
