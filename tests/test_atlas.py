from __future__ import annotations

import math

import pytest

from geodex import atlas as A
from geodex import perm
from geodex import symmetry as S
from geodex.errors import (
    ContainsIdentity,
    GInH,
    NotGenerated,
    NotGenerating,
    NotInverseClosed,
    NotSelfPaired,
    UnknownName,
    UnsupportedP,
    UnsupportedQ,
)
from geodex.graph import (
    count_arcs,
    diameter,
    girth,
    intersection_array,
    is_generalized_polygon,
    lcf_decode,
)
from geodex.perm import Permutation, build_group


def cyc(degree, *cycles):
    return Permutation.from_cycles(cycles, degree)


class TestFiniteField:
    @pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9, 11, 13, 16])
    def test_field_constructs_and_verifies(self, q):
        field = A.finite_field(q)
        assert field.q == q
        # inverses exist for all nonzero elements
        for a in range(1, q):
            assert field.mul(a, field.inv(a)) == 1

    def test_unsupported(self):
        with pytest.raises(UnsupportedQ):
            A.finite_field(6)
        with pytest.raises(UnsupportedQ):
            A.finite_field(32)

    def test_gf9_polynomial_choice(self):
        # x^2 + x + 2 over GF(3): x * x = -x - 2 = 2x + 1, encoded 3*2+1
        field = A.finite_field(9)
        x = 3  # the element with coefficient vector (0, 1)
        assert field.mul(x, x) == field.add(field.mul(2, x), 1)


class TestCatalog:
    def test_foster_record(self):
        record = A.atlas_get("foster")
        assert record.graph.n == 90
        assert record.expected.aut_order == 4320
        assert record.expected.intersection_array == "{3,2,2,2,2,1,1,1;1,1,1,1,2,2,2,3}"

    def test_biggs_smith_record(self):
        record = A.atlas_get("biggs-smith")
        assert record.graph.n == 102
        assert girth(record.graph) == 9

    def test_c6_record(self):
        record = A.atlas_get("C6")
        assert girth(record.graph) == 6

    def test_aliases(self):
        assert A.atlas_get("tuttes-8-cage").name == "tutte-coxeter"
        assert A.atlas_get("delta-4-2").name == "tutte-coxeter"
        assert A.atlas_get("tutte-12-cage").name == "hexagon-q2"
        assert A.atlas_get("delta-6-2").name == "hexagon-q2"

    def test_unknown_names(self):
        with pytest.raises(UnknownName):
            A.atlas_get("nonesuch")
        with pytest.raises(UnknownName):
            A.atlas_get("K2,3")
        with pytest.raises(UnknownName):
            A.atlas_get("C2")

    def test_knn_expected_values(self):
        record = A.atlas_get("K4,4")
        assert record.expected.aut_order == 2 * math.factorial(4) ** 2
        assert record.expected.intersection_array == "{4,3;1,4}"

    @pytest.mark.parametrize("name", ["petersen", "heawood", "tutte-coxeter", "desargues", "k3,3", "c6"])
    def test_full_validation_small(self, name):
        A.atlas_get(name).validate(full=True)

    @pytest.mark.parametrize("name", ["foster", "biggs-smith", "hexagon-q2"])
    def test_full_validation_large(self, name):
        A.atlas_get(name).validate(full=True)

    def test_validation_catches_lies(self):
        import dataclasses

        record = A.atlas_get("petersen")
        lying = dataclasses.replace(
            record, expected=dataclasses.replace(record.expected, girth=6, aut_order=60)
        )
        with pytest.raises(A.AtlasValidationError, match="^petersen: girth: expected 6, got 5$"):
            lying.validate()
        # every lie is listed, the group-theoretic ones only in a full check
        assert lying.mismatches() == ["girth: expected 6, got 5"]
        assert lying.mismatches(full=True) == [
            "girth: expected 6, got 5",
            "aut_order: expected 60, got 120",
        ]

    def test_hexagon_from_env_dir(self, tmp_path, monkeypatch):
        import json

        record = A.atlas_get("hexagon-q2")
        path = tmp_path / "hexagon_q2.json"
        path.write_text(json.dumps(record.graph.to_json()))
        monkeypatch.setenv("GEODEX_DATA_DIR", str(tmp_path))
        again = A.atlas_get("hexagon-q2")
        assert again.graph.adjacency == record.graph.adjacency


class TestGeometries:
    @pytest.mark.parametrize("q", [2, 3, 4])
    def test_pg2_rows(self, q):
        graph = A.pg2_incidence(q)
        assert graph.n == 2 * (q * q + q + 1)
        assert graph.valency == q + 1
        assert str(intersection_array(graph)) == f"{{{q + 1},{q},{q};1,1,{q + 1}}}"
        assert is_generalized_polygon(graph, 3)

    def test_pg2_heawood(self):
        assert S.are_isomorphic(A.pg2_incidence(2), lcf_decode([5, -5], 7)) is not None

    @pytest.mark.parametrize("q", [5, 7, 8, 9])
    def test_pg2_larger_fields(self, q):
        graph = A.pg2_incidence(q)
        assert graph.n == 2 * (q * q + q + 1)
        assert graph.valency == q + 1
        assert girth(graph) == 6 and diameter(graph) == 3

    def test_pg2_unsupported(self):
        with pytest.raises(UnsupportedQ):
            A.pg2_incidence(6)
        with pytest.raises(UnsupportedQ):
            A.pg2_incidence(11)

    @pytest.mark.parametrize("q", [2, 3])
    def test_quadrangle_rows(self, q):
        graph = A.symplectic_quadrangle(q)
        assert graph.n == 2 * (q + 1) * (q * q + 1)
        assert str(intersection_array(graph)) == f"{{{q + 1},{q},{q},{q};1,1,1,{q + 1}}}"
        assert is_generalized_polygon(graph, 4)

    def test_quadrangle_is_tutte_coxeter(self, ctx):
        iso = S.are_isomorphic(A.symplectic_quadrangle(2), ctx.graph("tutte-coxeter"))
        assert iso is not None

    def test_quadrangle_unsupported(self):
        with pytest.raises(UnsupportedQ):
            A.symplectic_quadrangle(5)

    def test_geometry_automorphism_orders(self):
        # 2 |PGL(3,3)| with the point-line duality; |PSp(4,3)| . 2 without one
        assert S.automorphism_group(A.pg2_incidence(3)).order() == 11232
        w3_aut = S.automorphism_group(A.symplectic_quadrangle(3))
        assert w3_aut.order() == 51840
        assert sorted(len(o) for o in perm.orbits(w3_aut)) == [40, 40]


def _cyclic_elements(n):
    g = cyc(n, tuple(range(n)))
    elements = [Permutation.identity(n)]
    cur = g
    while not cur.is_identity():
        elements.append(cur)
        cur = cur * g
    return g, elements


class TestCayley:
    def test_z5_pentagon(self):
        g, elements = _cyclic_elements(5)
        graph = A.cayley_graph(elements, [g, g.inverse()])
        assert graph.n == 5 and graph.valency == 2 and girth(graph) == 5

    def test_z6_circulant(self):
        table = [[(a + b) % 6 for b in range(6)] for a in range(6)]
        graph = A.cayley_graph_from_table(table, [1, 5, 3])
        assert graph.n == 6 and graph.valency == 3 and girth(graph) == 4

    def test_identity_rejected(self):
        g, elements = _cyclic_elements(5)
        with pytest.raises(ContainsIdentity):
            A.cayley_graph(elements, [Permutation.identity(5), g])

    def test_inverse_closure_required(self):
        g, elements = _cyclic_elements(5)
        with pytest.raises(NotInverseClosed):
            A.cayley_graph(elements, [g])

    def test_generation_required(self):
        g, elements = _cyclic_elements(6)
        sq = g * g
        with pytest.raises(NotGenerating):
            A.cayley_graph(elements, [sq, sq.inverse()])

    def test_heisenberg_small_connection_set(self):
        # the order-27 group with connection set {a, a^2, b, b^2}
        p = 3
        n = 27

        def mul(x, y):
            return ((x[0] + y[0]) % p, (x[1] + y[1]) % p, (x[2] + y[2] + x[0] * y[1]) % p)

        def idx(e):
            return (e[0] * p + e[1]) * p + e[2]

        elements = []
        for x in range(p):
            for y in range(p):
                for z in range(p):
                    el = (x, y, z)
                    elements.append(
                        Permutation(tuple(idx(mul(f, el)) for f in
                                          [( i // 9, (i // 3) % 3, i % 3) for i in range(n)]))
                    )
        a = (1, 0, 0)
        b = (0, 1, 0)
        conn = []
        for el in (a, (2, 0, 0), b, (0, 2, 0)):
            conn.append(Permutation(tuple(idx(mul((i // 9, (i // 3) % 3, i % 3), el)) for i in range(n))))
        graph = A.cayley_graph(elements, conn)
        assert graph.n == 27 and graph.valency == 4 and girth(graph) == 3

    def test_vertex_transitive_by_construction(self):
        g, elements = _cyclic_elements(8)
        graph = A.cayley_graph(elements, [g, g.inverse(), g * g * g * g])
        action = A.right_regular_action(elements, [g])
        S.validate_automorphisms(graph, action)
        assert action.is_transitive()


class TestCosetGraph:
    def test_s4_mod_s3_is_k4(self):
        s4 = build_group([cyc(4, (0, 1, 2, 3)), cyc(4, (0, 1))])
        s3 = build_group([cyc(4, (0, 1, 2)), cyc(4, (0, 1))])
        graph = A.coset_graph(s4, s3, cyc(4, (2, 3)))
        assert graph.n == 4 and graph.m == 6

    def test_g_in_h_rejected(self):
        s4 = build_group([cyc(4, (0, 1, 2, 3)), cyc(4, (0, 1))])
        s3 = build_group([cyc(4, (0, 1, 2)), cyc(4, (0, 1))])
        with pytest.raises(GInH):
            A.coset_graph(s4, s3, cyc(4, (0, 1)))

    def test_generation_required(self):
        s4 = build_group([cyc(4, (0, 1, 2, 3)), cyc(4, (0, 1))])
        c3 = build_group([cyc(4, (0, 1, 2))])
        # an involution keeps HgH self-paired, but <C3, (0 1)(2 3)> is only A4
        with pytest.raises(NotGenerated):
            A.coset_graph(s4, c3, cyc(4, (0, 1), (2, 3)))

    def test_not_self_paired(self):
        # V4 is normal in S4, so V4 g V4 = V4 g, which misses g^{-1} when g
        # is a 3-cycle
        s4 = build_group([cyc(4, (0, 1, 2, 3)), cyc(4, (0, 1))])
        v4 = build_group([cyc(4, (0, 1), (2, 3)), cyc(4, (0, 2), (1, 3))])
        with pytest.raises(NotSelfPaired):
            A.coset_graph(s4, v4, cyc(4, (0, 1, 2)))

    def test_s5_degree_ten_instance(self):
        s5 = build_group([cyc(5, (0, 1, 2, 3, 4)), cyc(5, (0, 1))])
        h = build_group([cyc(5, (0, 1, 2)), cyc(5, (0, 1)), cyc(5, (3, 4))])
        assert h.order() == 12
        g = cyc(5, (2, 3))
        graph = A.coset_graph(s5, h, g)
        assert graph.n == 10
        assert graph.connected
        # G acts arc-transitively by right multiplication
        action = A.coset_action(s5, h)
        S.validate_automorphisms(graph, action)
        rep = (0, graph.adjacency[0][0])
        stab = perm.pointwise_stabilizer(action, rep)
        assert action.order() // stab.order() == count_arcs(graph, 1)


class TestHeisenberg:
    def test_p3_instance(self):
        example = A.heisenberg_example(3)
        assert example.graph.n == 27
        assert example.graph.valency == 8
        assert girth(example.graph) == 3
        assert example.center.order() == 3
        assert example.expected_quotient.n == 9

    def test_p5_instance(self):
        from geodex import quotient as Q

        example = A.heisenberg_example(5)
        assert example.graph.n == 125
        result = Q.normal_quotient(example.graph, example.regular_group, example.center)
        assert result.is_cover
        assert S.are_isomorphic(result.quotient, example.expected_quotient) is not None

    def test_p2_rejected(self):
        with pytest.raises(UnsupportedP):
            A.heisenberg_example(2)
