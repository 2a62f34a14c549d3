from __future__ import annotations

import pytest

from geodex import perm
from geodex import quotient as Q
from geodex import symmetry as S
from geodex.atlas import atlas_get, heisenberg_example
from geodex.errors import (
    CycleTooLong,
    NormalityFails,
    NotAutomorphisms,
    NotACycle,
    NTransitive,
    PreconditionUnverified,
)
from geodex.graph import build_graph, shortest_cycle_through_edge
from geodex.perm import Permutation, build_group


def cyc(degree, *cycles):
    return Permutation.from_cycles(cycles, degree)


@pytest.fixture(scope="module")
def c6_antipodal():
    c6 = build_graph(6, [(i, (i + 1) % 6) for i in range(6)])
    aut = S.automorphism_group(c6)
    n = build_group([cyc(6, (0, 3), (1, 4), (2, 5))])
    return c6, aut, n


class TestNormalQuotient:
    def test_c6_antipodal_quotient(self, c6_antipodal):
        c6, aut, n = c6_antipodal
        result = Q.normal_quotient(c6, aut, n)
        assert result.orbit_count == 3
        assert result.quotient.m == 3  # a triangle
        assert result.is_cover
        assert result.girth_pair == (6, 3)
        assert result.kernel_order * result.induced.order() == aut.order()

    def test_foster_quotient(self, foster, foster_aut, foster_n, foster_quotient, ctx):
        result = foster_quotient
        assert result.orbit_count == 30
        assert result.is_cover
        assert result.girth_pair == (10, 8)
        assert result.induced.order() == 1440
        assert result.kernel_order == 3
        # cover arithmetic: |V| = orbit count x common orbit size
        sizes = {len(c) for c in result.orbit_partition}
        assert sizes == {3} and foster.n == 30 * 3
        iso = S.are_isomorphic(result.quotient, ctx.graph("tutte-coxeter"))
        assert iso is not None
        # the induced group is (isomorphic to) the quadrangle's full group
        tc_aut = ctx.aut("tutte-coxeter")
        assert tc_aut.order() == 1440

    def test_heisenberg_quotient(self):
        example = heisenberg_example(3)
        result = Q.normal_quotient(example.graph, example.regular_group, example.center)
        assert result.is_cover
        assert result.girth_pair == (3, 3)
        assert S.are_isomorphic(result.quotient, example.expected_quotient) is not None

    def test_normality_enforced(self, c6_antipodal):
        c6, aut, _ = c6_antipodal
        reflection = build_group([cyc(6, (1, 5), (2, 4))])
        with pytest.raises(NormalityFails):
            Q.normal_quotient(c6, aut, reflection)

    def test_transitive_n_rejected(self, c6_antipodal):
        c6, aut, _ = c6_antipodal
        rotation = build_group([cyc(6, tuple(range(6)))])
        with pytest.raises(NTransitive):
            Q.normal_quotient(c6, aut, rotation)

    def test_quotient_connected_and_girth_monotone(self, foster_quotient):
        assert foster_quotient.quotient.connected
        g_cover, g_quot = foster_quotient.girth_pair
        assert g_quot <= g_cover

    def test_induced_group_acts_on_quotient(self, foster_quotient):
        # the induced G/N action consists of automorphisms of the quotient,
        # and by its order it is the quadrangle's full group
        S.validate_automorphisms(foster_quotient.quotient, foster_quotient.induced)
        aut = S.automorphism_group(foster_quotient.quotient)
        assert aut.order() == foster_quotient.induced.order() == 1440


class TestGirthBoundCheck:
    def test_level_window(self):
        for g in range(3, 61):
            s = Q.girth_window_level(g)
            assert g in (2 * s - 2, 2 * s - 1)

    def test_foster_instance(self, foster, foster_quotient):
        report = Q.girth_bound_check(foster, foster_quotient, 6)
        assert (report.lower, report.quotient_girth, report.cover_girth) == (8, 8, 10)
        assert report.bounds_hold
        assert report.verdict == "holds"
        assert report.quotient_arc_transitive_prev  # 5-arc transitive
        assert not report.quotient_arc_transitive_s  # but not 6

    def test_one_validation_and_two_chains(self, foster, foster_aut, foster_n, chain_builds, monkeypatch):
        validations = []
        original = S.validate_automorphisms

        def counted(graph, group):
            validations.append(graph)
            return original(graph, group)

        result = Q.normal_quotient(foster, build_group(foster_aut.generators), foster_n)
        monkeypatch.setattr(S, "validate_automorphisms", counted)
        chain_builds.clear()
        report = Q.girth_bound_check(foster, result, 6)
        assert report.verdict == "holds"
        # the cover's 6-geodesic chain and one quotient chain for 5- and 6-arcs
        assert len(chain_builds) <= 2
        assert validations == [foster, result.quotient]

    def test_quotient_without_s_arcs(self):
        # K2 by the trivial group: 1-arc transitive, and there are no 2-arcs
        k2 = build_graph(2, [(0, 1)])
        result = Q.normal_quotient(k2, S.automorphism_group(k2), build_group([], degree=2))
        report = Q.girth_bound_check(k2, result, 2)
        assert report.quotient_arc_transitive_prev
        assert not report.quotient_arc_transitive_s
        assert report.verdict == "premise-violation"

    def test_graph_must_be_the_cover(self, petersen, foster_quotient):
        with pytest.raises(PreconditionUnverified) as err:
            Q.girth_bound_check(petersen, foster_quotient, 6)
        assert err.value.premise == "graph"

    def test_s7_excluded(self, foster, foster_quotient):
        report = Q.girth_bound_check(foster, foster_quotient, 7)
        assert report.verdict == "excluded-s7"

    def test_c6_trivial_window(self, c6_antipodal):
        c6, aut, n = c6_antipodal
        result = Q.normal_quotient(c6, aut, n)
        report = Q.girth_bound_check(c6, result, 2)
        assert (report.lower, report.quotient_girth, report.cover_girth) == (0, 3, 6)
        assert report.bounds_hold
        # girth 6 is not 2s-2 or 2s-1 for s=2, so the hypothesis stack fails
        assert report.verdict == "premise-violation"
        assert not report.premises["girth_matches"]

    def test_non_cover_rejected(self):
        # C4 quotiented by its antipodal center collapses onto K2, which
        # halves the valency, so the result is not a cover
        c4 = build_graph(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
        aut = S.automorphism_group(c4)
        center = build_group([cyc(4, (0, 2), (1, 3))])
        result = Q.normal_quotient(c4, aut, center)
        assert not result.is_cover
        assert result.girth_pair == (4, None)
        assert result.multi_edge_pairs == 1  # all four edges collapse onto one pair
        with pytest.raises(PreconditionUnverified):
            Q.girth_bound_check(c4, result, 2)


class TestLiftCycleProfile:
    def test_foster_eight_cycles(self, foster, foster_quotient):
        quotient = foster_quotient.quotient
        cycle = shortest_cycle_through_edge(quotient, 0, quotient.adjacency[0][0])
        assert len(cycle) == 8
        profile = Q.lift_cycle_profile(foster, foster_quotient, cycle)
        assert profile.s == 6
        assert profile.verdict == "holds"
        assert all(profile.cover_distances[i] == i for i in range(6))
        assert profile.endpoint_distance >= 10 - 8 + 1
        assert profile.lifted_arc[-1] != profile.lifted_arc[0]
        # quotient distances climb to floor(k/2)
        assert profile.quotient_distances[:5] == (0, 1, 2, 3, 4)

    def test_cells_accepted_in_place_of_indices(self, foster, foster_quotient):
        quotient = foster_quotient.quotient
        cycle = shortest_cycle_through_edge(quotient, 2, quotient.adjacency[2][0])
        cells = [foster_quotient.orbit_partition[b] for b in cycle]
        profile = Q.lift_cycle_profile(foster, foster_quotient, cells)
        assert profile.verdict == "holds"

    def test_c6_premise_violation(self, c6_antipodal):
        c6, aut, n = c6_antipodal
        result = Q.normal_quotient(c6, aut, n)
        profile = Q.lift_cycle_profile(c6, result, [0, 1, 2])
        # girth 6 forces s = 4 > diameter 3: the hypothesis stack fails
        assert profile.verdict == "premise-violation"
        assert profile.s == 4

    def test_graph_must_be_the_cover(self, petersen, foster_quotient):
        quotient = foster_quotient.quotient
        cycle = shortest_cycle_through_edge(quotient, 0, quotient.adjacency[0][0])
        with pytest.raises(PreconditionUnverified) as err:
            Q.lift_cycle_profile(petersen, foster_quotient, cycle)
        assert err.value.premise == "graph"

    def test_heisenberg_cycle_too_long(self):
        example = heisenberg_example(3)
        result = Q.normal_quotient(example.graph, example.regular_group, example.center)
        with pytest.raises(CycleTooLong):
            Q.lift_cycle_profile(example.graph, result, [0, 1, 2])

    def test_not_a_cycle(self, foster, foster_quotient):
        with pytest.raises(NotACycle):
            Q.lift_cycle_profile(foster, foster_quotient, [0, 1])
        quotient = foster_quotient.quotient
        non_adjacent = [0, quotient.adjacency[0][0]]
        third = next(
            v
            for v in range(quotient.n)
            if v not in non_adjacent and v not in quotient.adjacency[non_adjacent[1]]
        )
        with pytest.raises(NotACycle):
            Q.lift_cycle_profile(foster, foster_quotient, non_adjacent + [third])


class TestVerifyReduction:
    def test_foster_exception(self, foster, foster_aut, foster_n):
        verdict = Q.verify_reduction(foster, foster_aut, foster_n, 6)
        assert verdict.case == "foster-exception"
        assert verdict.evidence["semiregular"]
        assert verdict.evidence["orbit_count"] == 30
        assert verdict.evidence["is_cover"]
        assert verdict.evidence["girth_pair"] == [10, 8]
        assert verdict.evidence["quotient_is_tutte_coxeter"]
        assert verdict.to_json()["case"] == "foster-exception"

    def test_foster_wrong_s(self, foster, foster_aut, foster_n):
        with pytest.raises(PreconditionUnverified) as err:
            Q.verify_reduction(foster, foster_aut, foster_n, 5)
        assert "girth" in str(err.value)

    def test_petersen_shallow(self, petersen, petersen_aut):
        n = build_group([cyc(10, (0, 1, 2, 3, 4), (5, 6, 7, 8, 9))])
        with pytest.raises(PreconditionUnverified) as err:
            Q.verify_reduction(petersen, petersen_aut, n, 5)
        assert "diameter" in str(err.value)

    def test_trivial_n_rejected(self, foster, foster_aut):
        trivial = build_group([], degree=90)
        with pytest.raises(PreconditionUnverified) as err:
            Q.verify_reduction(foster, foster_aut, trivial, 6)
        assert "nontrivial" in str(err.value)

    def test_one_normality_test(self, foster, foster_aut, foster_n, chain_builds, monkeypatch):
        tests = []
        original = perm.normal_test_and_closure

        def counted(group, subgroup):
            tests.append(subgroup)
            return original(group, subgroup)

        group = build_group(foster_aut.generators)
        foster_n.order()  # N's own chain is not part of the question
        monkeypatch.setattr(perm, "normal_test_and_closure", counted)
        chain_builds.clear()
        verdict = Q.verify_reduction(foster, group, foster_n, 6)
        assert verdict.case == "foster-exception"
        assert tests == [foster_n]
        # the 6-geodesic chain, the normality chain and three in induced_action
        assert len(chain_builds) == 5

    def test_one_validation(self, foster, foster_aut, foster_n, monkeypatch):
        validations = []
        original = S.validate_automorphisms

        def counted(graph, group):
            validations.append(graph)
            return original(graph, group)

        monkeypatch.setattr(S, "validate_automorphisms", counted)
        verdict = Q.verify_reduction(foster, foster_aut, foster_n, 6)
        assert verdict.case == "foster-exception"
        assert validations == [foster]

    def test_foreign_group_still_rejected(self, foster, foster_n):
        # the one validation is the s-geodesic premise's, before the quotient
        swap = build_group([Permutation.from_cycles([(0, 1)], 90)])
        with pytest.raises(NotAutomorphisms):
            Q.verify_reduction(foster, swap, foster_n, 6)

    def test_non_normal_n_rejected(self, foster, foster_aut):
        stabilizer = perm.pointwise_stabilizer(foster_aut, [0])
        with pytest.raises(PreconditionUnverified) as err:
            Q.verify_reduction(foster, foster_aut, stabilizer, 6)
        assert err.value.premise == "N normal in G"

    def test_transitive_n_rejected(self, foster, foster_aut):
        with pytest.raises(PreconditionUnverified) as err:
            Q.verify_reduction(foster, foster_aut, foster_aut, 6)
        assert err.value.premise == "N intransitive"

    def test_two_orbit_refusal(self, foster, foster_aut):
        # a normal subgroup with exactly two orbits: the index-2 preimage of
        # the bipartition stabilizer intersected down to... use the kernel of
        # the action on the bipartition, then find a normal subgroup with two
        # orbits; the derived order-1080 subgroup of G+ fixing each side works
        from geodex.graph import bipartition

        parts = bipartition(foster)
        _, g_plus = perm.induced_action(foster_aut, list(parts))
        # g_plus has the two sides as orbits
        assert len(perm.orbits(g_plus)) == 2
        verdict = Q.verify_reduction(foster, foster_aut, g_plus, 6)
        assert verdict.case == "precondition-failed"
        assert verdict.evidence["premise"] == "orbit-count"
