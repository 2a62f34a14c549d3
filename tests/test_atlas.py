from __future__ import annotations

import math

import pytest

from geodex import atlas as A
from geodex import perm
from geodex import symmetry as S
from geodex.errors import (
    GInH,
    GraphTooLarge,
    NotGenerated,
    NotSelfPaired,
    UnknownName,
    UnsupportedP,
    UnsupportedQ,
)
from geodex.graph import count_arcs, girth, lcf_decode
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
        # family parameters are ASCII digits: str.isdigit accepts a
        # superscript two, which int() rejects
        for name in ("nonesuch", "K2,3", "C2", "c\u00b2", "k\u00b2,\u00b2", "pg(3,2)", "w(2"):
            with pytest.raises(UnknownName):
                A.atlas_get(name)

    @pytest.mark.parametrize(
        "name",
        ["c" + "1" * 5000, "k" + "9" * 5000 + ",3", "pg(2," + "7" * 5000 + ")",
         "c513", "k257,257", "c0010000"],
    )
    def test_family_size_refused_before_build(self, monkeypatch, name):
        # past 4300 digits int() raises ValueError; past the search cap the
        # build would run unbounded.  Both are refused before any build.
        def no_build(*args):
            raise AssertionError("built a graph past the cap")

        monkeypatch.setattr(A, "build_graph", no_build)
        monkeypatch.setattr(A, "pg2_incidence", no_build)
        with pytest.raises(GraphTooLarge):
            A.atlas_get(name)

    def test_family_size_at_the_cap(self):
        assert A.atlas_get("C512").graph.n == 512
        assert A.atlas_get("c" + "0" * 5000 + "6").name == "c6"

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

    def test_failures_keep_the_order_of_the_labels(self):
        # the array is computed before the girth, which reads it, but a row
        # that lies on every cheap invariant lists them in the label order
        import dataclasses

        record = A.atlas_get("foster")
        lying = dataclasses.replace(
            record,
            expected=A.ExpectedInvariants(4, 8, 7, "{3;1}"),
        )
        assert lying.mismatches() == [
            "valency: expected 4, got 3",
            "girth: expected 8, got 10",
            "diameter: expected 7, got 8",
            "intersection_array: expected {3;1}, got {3,2,2,2,2,1,1,1;1,1,1,1,2,2,2,3}",
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
    """The PG(2,q) and W(q) families of the catalog."""

    @pytest.mark.parametrize("q", [2, 3, 4])
    def test_pg2_rows(self, q):
        record = A.atlas_get(f"PG(2,{q})")
        assert record.name == f"pg(2,{q})"
        assert record.graph.n == 2 * (q * q + q + 1)
        assert record.expected.valency == q + 1
        assert record.expected.intersection_array == f"{{{q + 1},{q},{q};1,1,{q + 1}}}"
        assert (record.expected.girth, record.expected.diameter) == (6, 3)
        assert record.mismatches() == []

    def test_pg2_heawood(self):
        assert S.are_isomorphic(A.atlas_get("pg(2,2)").graph, lcf_decode([5, -5], 7)) is not None

    @pytest.mark.parametrize("q", [5, 7, 8, 9])
    def test_pg2_larger_fields(self, q):
        record = A.atlas_get(f"pg(2,{q})")
        assert record.graph.n == 2 * (q * q + q + 1)
        assert record.expected.intersection_array == f"{{{q + 1},{q},{q};1,1,{q + 1}}}"
        assert record.mismatches() == []

    def test_pg2_unsupported(self):
        with pytest.raises(UnsupportedQ):
            A.atlas_get("PG(2,6)")
        with pytest.raises(UnsupportedQ):
            A.atlas_get("PG(2,11)")

    @pytest.mark.parametrize("q", [2, 3, 4])
    def test_quadrangle_rows(self, q):
        record = A.atlas_get(f"W({q})")
        assert record.name == f"w({q})"
        assert record.graph.n == 2 * (q + 1) * (q * q + 1)
        assert record.expected.valency == q + 1
        assert record.expected.intersection_array == f"{{{q + 1},{q},{q},{q};1,1,1,{q + 1}}}"
        assert (record.expected.girth, record.expected.diameter) == (8, 4)
        assert record.mismatches() == []

    def test_quadrangle_is_tutte_coxeter(self, ctx):
        iso = S.are_isomorphic(A.atlas_get("w(2)").graph, ctx.graph("tutte-coxeter"))
        assert iso is not None

    def test_quadrangle_unsupported(self):
        with pytest.raises(UnsupportedQ):
            A.atlas_get("W(5)")

    @pytest.mark.parametrize(
        "name, order",
        [("pg(2,2)", 336), ("pg(2,3)", 11232), ("pg(2,4)", 241920), ("pg(2,5)", 744000),
         ("w(2)", 1440), ("w(3)", 51840), ("w(4)", 3916800)],
    )
    def test_closed_form_automorphism_orders(self, name, order):
        # 2 |PGammaL(3,q)| with a polarity; |PGammaSp(4,q)|, doubled by a
        # duality for even q.  PG(2,4) is the first with a field automorphism.
        record = A.atlas_get(name)
        assert record.expected.aut_order == order
        assert record.mismatches(full=True) == []

    def test_geometry_automorphism_orders(self):
        # the search's own orders, and W(3)'s Aut fixes each bipart: W(3) is
        # not self-dual
        assert S.automorphism_group(A.atlas_get("pg(2,3)").graph).order() == 11232
        w3_aut = S.automorphism_group(A.atlas_get("w(3)").graph)
        assert w3_aut.order() == 51840
        assert sorted(len(o) for o in perm.orbits(w3_aut)) == [40, 40]

    def test_families_stay_off_the_list(self):
        # claim 8 and the benchmark's set-up sweep this list: no W(3) search
        assert A.atlas_list() == [
            "biggs-smith", "desargues", "foster", "heawood", "hexagon-q2",
            "petersen", "tutte-coxeter", "K3,3", "C6",
        ]


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
