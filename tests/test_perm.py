from __future__ import annotations

import os
import subprocess
import sys
import textwrap
from operator import itemgetter

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import geodex
from geodex import atlas as A
from geodex import perm
from geodex.errors import (
    GroupTooLarge,
    MalformedPermutation,
    MixedDegree,
    NotASubgroup,
    NotInvariant,
    PointOutOfRange,
)
from geodex.oracles import multiplication_closure_order
from geodex.perm import Permutation, build_group


def cyc(degree, *cycles):
    return Permutation.from_cycles(cycles, degree)


@st.composite
def permutation_pairs(draw, max_degree=12):
    n = draw(st.integers(min_value=1, max_value=max_degree))
    p = tuple(draw(st.permutations(range(n))))
    q = tuple(draw(st.permutations(range(n))))
    return p, q


class TestKernels:
    """The raw-permutation kernels against their naive definitions."""

    # degree 1 stays bytes at threshold 1: the tuple path starts at degree 2
    # there (at 257 in use), as itemgetter needs two keys to return a tuple
    @settings(max_examples=200, deadline=None)
    @given(permutation_pairs(), st.sampled_from([perm._BYTES_DEGREE, 1]))
    @example(((0,), (0,)), 1)
    @example(((1, 0), (1, 0)), 1)
    @example(((0, 1), (1, 0)), perm._BYTES_DEGREE)
    def test_compose_inverse_conjugate(self, pair, threshold):
        p, q = pair
        n = len(p)
        q_inv = tuple(q.index(i) for i in range(n))
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(perm, "_BYTES_DEGREE", threshold)
            rp, rq, rq_inv = perm._raw(p), perm._raw(q), perm._raw(q_inv)
            assert type(rp) is (bytes if n <= threshold else tuple)
            assert tuple(perm._compose(rp, rq)) == tuple(q[p[i]] for i in range(n))
            assert tuple(perm._inverse(rp)) == tuple(p.index(i) for i in range(n))
            # q^-1 * p * q, applied left to right, from the right-operand
            # tables of p and q: 256 bytes, or the image tuple itself
            form = perm._form(n)
            p_table, q_table = form.table(rp), form.table(rq)
            assert len(q_table) == (256 if n <= threshold else n)
            assert form.apply(rp, q_table) == perm._compose(rp, rq)
            conjugate = perm._conjugate(p_table, q_table, rq_inv)
            assert tuple(conjugate) == tuple(q[p[q_inv[i]]] for i in range(n))

    def test_chain_stores_inverse_transversals(self, foster_aut):
        group = build_group(foster_aut.generators)
        identity = tuple(range(group.degree))
        for lvl in group._chain.levels:
            assert lvl.inverse.keys() == lvl.transversal.keys()
            for q, t in lvl.transversal.items():
                assert t[lvl.point] == q
                assert tuple(perm._compose(t, lvl.inverse[q])) == identity


class TestPermutation:
    def test_rejects_non_bijection(self):
        with pytest.raises(MalformedPermutation):
            Permutation((0, 0, 1))
        with pytest.raises(MalformedPermutation):
            Permutation((0, 2))

    def test_composition_order(self):
        # apply left factor first
        a = cyc(3, (0, 1))
        b = cyc(3, (1, 2))
        assert (a * b)(0) == b(a(0)) == 2

    def test_inverse_and_order(self):
        g = cyc(6, (0, 1, 2), (3, 4))
        assert (g * g.inverse()).is_identity()
        assert g.order() == 6

    def test_cycle_string_round_trip(self):
        g = cyc(7, (0, 3, 5), (1, 2))
        parsed = perm.parse_cycle_string(g.cycle_string(), 7)
        assert parsed == g
        assert perm.parse_cycle_string("()", 4).is_identity()

    def test_from_cycles_range_check(self):
        with pytest.raises(PointOutOfRange):
            cyc(3, (0, 5))


class TestBuildGroup:
    def test_trivial_group_needs_degree(self):
        g = build_group([], degree=5)
        assert g.order() == 1
        assert g.degree == 5
        with pytest.raises(MixedDegree):
            build_group([])

    def test_cyclic_group(self):
        g = build_group([cyc(5, (0, 1, 2, 3, 4))])
        assert g.order() == 5

    def test_mixed_degrees_rejected(self):
        with pytest.raises(MixedDegree):
            build_group([cyc(3, (0, 1)), cyc(4, (0, 1))])

    def test_symmetric_group_chain(self):
        s6 = build_group([cyc(6, tuple(range(6))), cyc(6, (0, 1))])
        assert s6.order() == 720
        # order equals the product of the basic orbit sizes
        product = 1
        for size in s6.basic_orbit_sizes():
            product *= size
        assert product == 720
        # every generator passes membership sifting
        assert all(g in s6 for g in s6.generators)

    def test_m11(self):
        m11 = build_group(
            [cyc(11, tuple(range(11))), cyc(11, (2, 6, 10, 7), (3, 9, 4, 5))]
        )
        assert m11.order() == 7920
        assert m11.order() == multiplication_closure_order(m11.generators)

    def test_order_matches_closure_oracle(self):
        import random

        rng = random.Random(4242)
        for _ in range(60):
            n = rng.randrange(1, 8)
            gens = []
            for _ in range(rng.randrange(0, 4)):
                images = list(range(n))
                rng.shuffle(images)
                gens.append(Permutation(tuple(images)))
            group = build_group(gens, degree=n)
            assert group.order() == multiplication_closure_order(gens)

    def test_elements_enumeration(self, monkeypatch):
        s4 = build_group([cyc(4, (0, 1, 2, 3)), cyc(4, (0, 1))])
        elements = s4.elements()
        assert len(elements) == 24
        assert len(set(elements)) == 24
        tiny = build_group([cyc(3, (0, 1, 2))])
        monkeypatch.setattr(perm, "ENUMERATION_CAP", 2)
        with pytest.raises(GroupTooLarge):
            tiny.raw_elements()

    def test_json_round_trip(self):
        s3 = build_group([cyc(3, (0, 1, 2)), cyc(3, (0, 1))])
        data = s3.to_json()
        again = perm.group_from_json(data)
        assert again.order() == 6
        # cycle-notation strings allowed at the parse boundary
        assert perm.group_from_json(
            {"degree": 3, "generators": ["(0 1 2)", "(0 1)"]}
        ).order() == 6

    def test_corrupted_chain_raises_instead_of_looping(self):
        # with every transversal inverse replaced by the transversal itself,
        # sifting leaves residues that move base points; installing them as
        # new levels grew the chain without end
        code = textwrap.dedent(
            """
            from geodex import atlas, perm, symmetry

            foster = atlas.atlas_get("foster").graph
            gens = symmetry.automorphism_group(foster).generators
            perm._inverse = lambda g: g
            perm.build_group(gens, degree=foster.n)
            """
        )
        src = os.path.dirname(os.path.dirname(os.path.abspath(geodex.__file__)))
        env = dict(os.environ, PYTHONPATH=src)
        proc = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=30
        )
        assert proc.returncode != 0
        assert "AssertionError: residue moves a base point" in proc.stderr


class TestOrbits:
    def test_trivial_group_singletons(self):
        g = build_group([], degree=5)
        assert perm.orbits(g) == [(0,), (1,), (2,), (3,), (4,)]

    def test_two_cycles(self):
        g = build_group([cyc(6, (0, 1, 2), (3, 4, 5))])
        assert perm.orbits(g) == [(0, 1, 2), (3, 4, 5)]

    def test_foster_normal_orbits(self, foster_n):
        cells = perm.orbits(foster_n)
        assert len(cells) == 30
        assert all(len(c) == 3 for c in cells)
        # independent flood fill over the generator images
        gens = [g.images for g in foster_n.generators]
        seen = set()
        count = 0
        for p in range(90):
            if p in seen:
                continue
            cell = {p}
            stack = [p]
            while stack:
                x = stack.pop()
                for g in gens:
                    if g[x] not in cell:
                        cell.add(g[x])
                        stack.append(g[x])
            seen |= cell
            count += 1
        assert count == 30


class TestPointwiseStabilizer:
    def test_empty_tuple_returns_group(self):
        s4 = build_group([cyc(4, (0, 1, 2, 3)), cyc(4, (0, 1))])
        assert perm.pointwise_stabilizer(s4, []) is s4

    def test_regular_action_trivial_stabilizer(self):
        c5 = build_group([cyc(5, (0, 1, 2, 3, 4))])
        assert perm.pointwise_stabilizer(c5, [0]).order() == 1

    def test_orbit_stabilizer_identity(self):
        import random

        rng = random.Random(99)
        s5 = build_group([cyc(5, (0, 1, 2, 3, 4)), cyc(5, (0, 1))])
        for _ in range(20):
            tup = rng.sample(range(5), rng.randrange(1, 4))
            stab = perm.pointwise_stabilizer(s5, tup)
            # orbit of the tuple by explicit closure
            orbit = {tuple(tup)}
            stack = [tuple(tup)]
            gens = [g.images for g in s5.generators]
            while stack:
                t = stack.pop()
                for g in gens:
                    img = tuple(g[x] for x in t)
                    if img not in orbit:
                        orbit.add(img)
                        stack.append(img)
            assert len(orbit) * stab.order() == 120

    def test_memoized_stabilizer_matches_fresh_build(self, foster, foster_aut, chain_builds):
        from geodex.graph import first_geodesic

        group = build_group(foster_aut.generators)
        a = foster.adjacency[0][0]
        b = next(x for x in foster.adjacency[a] if x != 0)
        for points in ([0], [0, a], [0, a, b], [a, 0, b]):
            first = perm.pointwise_stabilizer(group, points)
            # repeated points fall on the same entry as their de-duplication
            assert perm.pointwise_stabilizer(group, points + points) is first
            fresh = perm.pointwise_stabilizer(build_group(foster_aut.generators), points)
            assert first is not fresh
            assert first.order() == fresh.order()
            assert perm.same_group(first, fresh)
            assert all(g(p) == p for g in first.generators for p in points)

        # one call on an 8-geodesic memoizes the stabilizer of every prefix
        geodesic = list(first_geodesic(foster, 8))
        fresh = [
            perm.pointwise_stabilizer(build_group(foster_aut.generators), geodesic[:j])
            for j in range(1, len(geodesic) + 1)
        ]
        group = build_group(foster_aut.generators)
        chain_builds.clear()
        perm.pointwise_stabilizer(group, geodesic)
        assert len(chain_builds) == 1
        for j, want in enumerate(fresh, 1):
            got = perm.pointwise_stabilizer(group, geodesic[:j])
            assert got.order() == want.order()
            assert perm.same_group(got, want)
            assert all(g(p) == p for g in got.generators for p in geodesic[:j])
        assert len(chain_builds) == 1  # every prefix was a memo hit
        assert fresh[-1].order() == 1

    def test_repeated_points_share_the_first_occurrence_entry(self, foster_aut, chain_builds):
        group = build_group(foster_aut.generators)
        chain_builds.clear()
        first = perm.pointwise_stabilizer(group, [5, 0, 5, 7, 0, 7])
        assert len(chain_builds) == 1
        # memo keys are the de-duplicated points in first-occurrence order,
        # one per prefix
        keys = sorted(k[1] for k in group._cache if k[0] == "stabilizer")
        assert keys == [(5,), (5, 0), (5, 0, 7)]
        assert perm.pointwise_stabilizer(group, (5, 0, 7)) is first
        assert perm.pointwise_stabilizer(group, iter([5, 5, 0, 7, 7])) is first
        assert perm.pointwise_stabilizer(group, [5, 0, 5]) is group._cache[("stabilizer", (5, 0))]
        assert len(chain_builds) == 1  # every later call was a memo hit
        assert all(g(p) == p for g in first.generators for p in (0, 5, 7))
        # a point out of range is refused on a memo hit too
        with pytest.raises(PointOutOfRange):
            perm.pointwise_stabilizer(group, [5, 0, 7, 5, group.degree])

    def test_stabilizers_built_below_a_memoized_prefix_match_fresh_chains(
        self, ctx, monkeypatch
    ):
        # a tuple whose first points are memoized builds its chain from the
        # longest such prefix's stabilizer, over the points past it only;
        # every prefix's order and orbits must be those of a chain built
        # from the whole group
        hints = []
        original = perm._build_chain

        def recorded(degree, gens, base_hint=(), target=None):
            hints.append(tuple(base_hint))
            return original(degree, gens, base_hint, target)

        monkeypatch.setattr(perm, "_build_chain", recorded)
        for name, catalog_group in _catalog_groups(ctx):
            group = build_group(catalog_group.generators, degree=catalog_group.degree)
            n = group.degree
            memoized = {()}
            for points in ((0, n - 1, n // 2), (0, n - 1, 1, n - 2), (0, n // 3, 2)):
                points = tuple(dict.fromkeys(points))
                shared = max(j for j in range(len(points) + 1) if points[:j] in memoized)
                hints.clear()
                perm.pointwise_stabilizer(group, points)
                assert hints == ([points[shared:]] if shared < len(points) else []), name
                memoized.update(points[:j] for j in range(len(points) + 1))
                for j in range(1, len(points) + 1):
                    got = perm.pointwise_stabilizer(group, points[:j])
                    fresh = original(n, group.walk(), base_hint=points[:j])
                    want_order = 1
                    for lvl in fresh.levels[j:]:
                        want_order *= len(lvl.transversal)
                    gens = fresh.gens_from_level(j)
                    want_orbits = sorted({tuple(sorted(perm._orbit(gens, (p,)))) for p in range(n)})
                    assert got.order() == want_order, (name, points[:j])
                    assert perm.orbits(got) == want_orbits, (name, points[:j])

    def test_prefix_stabilizers_keep_the_closed_orbits(self, monkeypatch):
        # each prefix stabilizer's chain is made by ``_Chain.from_levels``
        # from the build's own levels below its points: no orbit is walked
        # again, so no product or table is made.  A group from the search
        # reads its own chain off its levels with walks that do make them.
        from geodex.atlas import atlas_get
        from geodex.graph import first_geodesic
        from geodex.symmetry import automorphism_group

        reads = []
        original = perm._Chain.from_levels.__func__

        def counted(cls, degree, levels, order):
            form = perm._form(degree)
            made = []

            def apply(p, t):
                made.append(p)
                return form.apply(p, t)

            def table(q):
                made.append(q)
                return form.table(q)

            levels = list(levels)
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(perm, "_form", lambda d: form._replace(apply=apply, table=table))
                chain = original(cls, degree, levels, order)
            reads.append((len(made), levels, chain))
            return chain

        built = []
        build = perm._build_chain

        def recorded(*args, **kwargs):
            built.append(build(*args, **kwargs))
            return built[-1]

        monkeypatch.setattr(perm._Chain, "from_levels", classmethod(counted))
        monkeypatch.setattr(perm, "_build_chain", recorded)
        for name, s in (("foster", 8), ("W(3)", 4), ("PG(2,4)", 3)):
            graph = atlas_get(name).graph
            group = automorphism_group(graph)
            group.base()
            [(made, _, _)] = reads
            assert made > 0, name
            reads.clear()
            path = first_geodesic(graph, s)
            perm.pointwise_stabilizer(group, path)
            [chain] = built
            assert len(reads) == len(path)
            for i, (made, levels, sub) in enumerate(reads, 1):
                assert made == 0, (name, i)
                assert all(a is b for a, b in zip(levels, chain.levels[i:])), (name, i)
                assert len(levels) == len(chain.levels) - i
                stabilizer = perm.pointwise_stabilizer(group, path[:i])
                assert stabilizer._chain is sub
                assert stabilizer.order() == sub.order()
                assert all(len(lvl.transversal) > 1 for lvl in sub.levels)
            reads.clear()
            built.clear()

    def test_petersen_two_geodesic_stabilizer(self, petersen, petersen_aut):
        from geodex.graph import first_geodesic

        rep = first_geodesic(petersen, 2)
        stab = perm.pointwise_stabilizer(petersen_aut, rep)
        assert petersen_aut.order() == 120
        assert stab.order() == 2

    def test_chain_stopped_at_the_known_order_is_the_full_chain(self, ctx, monkeypatch):
        # pointwise_stabilizer stops its build once the order reaches the
        # group's; every level, transversal, inverse, strong generator and
        # the walk must be those of the build run to the end, for fewer sifts
        sifts = []
        original = perm._Chain.sift

        def counted(chain, g, start=0):
            sifts.append(g)
            return original(chain, g, start)

        def build(group, points, target=None):
            sifts.clear()
            chain = perm._build_chain(group.degree, group.walk(), base_hint=points, target=target)
            levels = [(lvl.point, lvl.transversal, lvl.inverse, lvl.gens) for lvl in chain.levels]
            return (levels, chain.walk), len(sifts)

        monkeypatch.setattr(perm._Chain, "sift", counted)
        full_sifts = stopped_sifts = 0
        for name, group in _catalog_groups(ctx):
            n = group.degree
            for points in ((0,), (n - 1, 0), (n // 2, 1, n - 2)):
                full, count = build(group, points)
                full_sifts += count
                stopped, count = build(group, points, group.order())
                stopped_sifts += count
                assert stopped == full, (name, points)
        assert stopped_sifts < full_sifts


class TestNormalStructure:
    def test_s3_normal_subgroups(self):
        s3 = build_group([cyc(3, (0, 1, 2)), cyc(3, (0, 1))])
        a3 = build_group([cyc(3, (0, 1, 2))])
        is_normal, closure = perm.normal_test_and_closure(s3, a3)
        assert is_normal and perm.same_group(closure, a3)
        flip = build_group([cyc(3, (0, 1))])
        is_normal, closure = perm.normal_test_and_closure(s3, flip)
        assert not is_normal
        assert closure.order() == 6

    def test_not_a_subgroup(self):
        c4 = build_group([cyc(4, (0, 1, 2, 3))])
        with pytest.raises(NotASubgroup):
            perm.normal_test_and_closure(c4, [cyc(4, (0, 1))])

    def test_normal_closure_builds_one_chain(self, foster_aut, foster_n, chain_builds):
        group = build_group(foster_aut.generators)
        chain_builds.clear()
        is_normal, closure = perm.normal_test_and_closure(group, foster_n)
        assert is_normal and perm.same_group(closure, foster_n)
        assert len(chain_builds) == 1

    def test_minimal_normals_s3(self):
        s3 = build_group([cyc(3, (0, 1, 2)), cyc(3, (0, 1))])
        minimals, socle = perm.normal_structure(s3)
        assert [m.order() for m in minimals] == [3]
        assert socle.order() == 3

    def test_minimal_normals_cyclic(self):
        c5 = build_group([cyc(5, (0, 1, 2, 3, 4))])
        minimals, socle = perm.normal_structure(c5)
        assert len(minimals) == 1 and minimals[0].order() == 5
        assert socle.order() == 5

    def test_foster_normal_subgroup(self, foster_aut, foster_n):
        is_normal, closure = perm.normal_test_and_closure(foster_aut, foster_n)
        assert is_normal
        assert perm.same_group(closure, foster_n)

    def test_closure_minimality_small(self):
        # on every group of modest order the closures are normal, contain H,
        # and the reported minimal normal subgroups are inclusion-minimal
        s4 = build_group([cyc(4, (0, 1, 2, 3)), cyc(4, (0, 1))])
        minimals, _ = perm.normal_structure(s4)
        assert [m.order() for m in minimals] == [4]  # the Klein subgroup
        for m in minimals:
            is_normal, closure = perm.normal_test_and_closure(s4, m)
            assert is_normal and perm.same_group(closure, m)

    def test_closures_in_s4_hit_known_normal_lattice(self):
        # the normal subgroups of S4 are 1, V4, A4, S4; each closure must be
        # the least of them containing its seed
        s4 = build_group([cyc(4, (0, 1, 2, 3)), cyc(4, (0, 1))])
        for seed, want in [
            ((0, 1), 24),           # transpositions generate S4
            (((0, 1), (2, 3)), 4),  # double transpositions generate V4
            ((0, 1, 2), 12),        # 3-cycles generate A4
            ((0, 1, 2, 3), 24),     # 4-cycles are odd
        ]:
            cycles = seed if isinstance(seed[0], tuple) else (seed,)
            _, closure = perm.normal_test_and_closure(s4, [cyc(4, *cycles)])
            assert closure.order() == want


# The class walk and normal structure as they were before the walk list and
# the prime-order closures: every element is conjugated by every generator,
# and every nontrivial class representative is closed.  They work on image
# tuples with itemgetter, whatever the library's raw form, and their answers
# must match the library's byte for byte.

def _tuple_compose(p, q):
    # itemgetter returns a scalar for one key
    return itemgetter(*p)(q) if len(p) > 1 else tuple(q[i] for i in p)


def _tuple_inverse(p):
    return tuple(p.index(i) for i in range(len(p)))


def _tuple_conjugate(x, g, gi):
    return _tuple_compose(_tuple_compose(gi, x), g)


def _reference_class_reps(group):
    elements = [tuple(e) for e in group.raw_elements()]
    gens = [(g.images, _tuple_inverse(g.images)) for g in group.generators]
    unseen = set(elements)
    reps = []
    for e in elements:
        if e not in unseen:
            continue
        cls = {e}
        queue = [e]
        while queue:
            x = queue.pop()
            for g, gi in gens:
                y = _tuple_conjugate(x, g, gi)
                if y not in cls:
                    cls.add(y)
                    queue.append(y)
        unseen -= cls
        reps.append(min(cls))
    return reps


def _reference_closure(group, x):
    gens = [(g.images, _tuple_inverse(g.images)) for g in group.generators]
    closure = [x]
    chain = perm._build_chain(group.degree, closure)
    queue = [x]
    while queue:
        y = queue.pop()
        for g, gi in gens:
            c = _tuple_conjugate(y, g, gi)
            if not chain.contains(perm._raw(c)):
                closure.append(c)
                chain.add_generator(perm._raw(c))
                queue.append(c)
    return perm._group_from_chain(group.degree, closure, chain)


def _reference_normal_structure(group):
    """(class reps, minimal normal generator lists, socle generators).

    The representatives are closed from the least up, so the first to reach
    a minimal normal subgroup M is the least nontrivial element of M, which
    names it."""
    reps = _reference_class_reps(group)
    identity = tuple(range(group.degree))
    closures = []
    for rep in sorted(reps):
        if rep == identity:
            continue
        closure = _reference_closure(group, rep)
        if not any(perm.same_group(closure, c) for c in closures):
            closures.append(closure)
    minimal = [
        c
        for c in closures
        if not any(o.order() < c.order() and perm.is_subgroup_of(o, c) for o in closures)
    ]
    minimal.sort(key=lambda g: (g.order(), tuple(p.images for p in g.generators)))
    socle = [p.images for m in minimal for p in m.generators]
    return reps, [[p.images for p in m.generators] for m in minimal], socle


def _library_normal_structure(group):
    reps = [r.images for r in perm.conjugacy_class_representatives(group)]
    minimal, socle = perm.normal_structure(group)
    return reps, [[p.images for p in m.generators] for m in minimal], [
        p.images for p in socle.generators
    ]


@st.composite
def generator_sets(draw, max_degree=8):
    """Generator lists of degree <= max_degree; a permutation may move only a
    prefix of the points, so that small and intransitive groups are common."""
    n = draw(st.integers(min_value=1, max_value=max_degree))
    gens = []
    for _ in range(draw(st.integers(min_value=0, max_value=4))):
        k = draw(st.integers(min_value=1, max_value=n))
        moved = tuple(draw(st.permutations(range(k))))
        gens.append(Permutation(moved + tuple(range(k, n))))
    return n, gens


def _catalog_groups(ctx):
    """Aut of every catalog graph, and the bipart restrictions of its G+."""
    from geodex.atlas import atlas_list
    from geodex.graph import bipartition

    for name in atlas_list():
        group = ctx.aut(name)
        yield name, group
        parts = bipartition(ctx.graph(name))
        if parts is not None:
            _, g_plus = perm.induced_action(group, list(parts))
            for i, part in enumerate(parts):
                yield f"{name} bipart {i}", perm.restriction(g_plus, part)[0]


class TestWalkList:
    """The walk list: generators that each enlarged the group, in order."""

    @staticmethod
    def _check(group):
        walk = [tuple(w) for w in group.walk()]
        gens = iter(g.images for g in group.generators)
        assert all(w in gens for w in walk)  # a subsequence
        TestWalkList._check_enlarging(group, walk)

    @staticmethod
    def _check_enlarging(group, walk):
        closure = [Permutation(w) for w in walk]
        assert multiplication_closure_order(closure) == group.order()
        for i in range(len(walk)):
            assert multiplication_closure_order(closure[: i + 1]) > (
                multiplication_closure_order(closure[:i]) if i else 1
            )

    @settings(max_examples=120, deadline=None)
    @given(generator_sets())
    def test_subsequence_generating_the_group(self, case):
        n, gens = case
        group = build_group(gens, degree=n)
        if group.order() <= 2 * 10**4:
            self._check(group)

    def test_normal_closures(self):
        s5 = build_group([cyc(5, (0, 1, 2, 3, 4)), cyc(5, (0, 1))])
        for seed in (cyc(5, (0, 1)), cyc(5, (0, 1, 2)), cyc(5, (0, 1), (2, 3))):
            _, closure = perm.normal_test_and_closure(s5, [seed, seed])
            self._check(closure)

    def test_catalog_walk_lengths(self, ctx):
        # a group from the search walks all its generators, its strong
        # generators, deepest level first: generators -> walk is Foster
        # 4 -> 4, Biggs-Smith 3 -> 3, Tutte-Coxeter 4 -> 4, hexagon-q2 4 -> 4
        names = ("foster", "biggs-smith", "tutte-coxeter", "hexagon-q2")
        lengths = {
            name: (len(ctx.aut(name).generators), len(ctx.aut(name).walk())) for name in names
        }
        assert lengths == {
            "foster": (4, 4),
            "biggs-smith": (3, 3),
            "tutte-coxeter": (4, 4),
            "hexagon-q2": (4, 4),
        }
        for name in names:
            group = ctx.aut(name)
            base = group.base()

            def level(images):
                # a strong generator's level is the first base point it moves
                return next(k for k, p in enumerate(base) if images[p] != p)

            walk = [tuple(w) for w in group.walk()]
            gens = [g.images for g in group.generators]
            # the generators are listed top-down; sorting is stable
            assert walk == sorted(gens, key=level, reverse=True), name
            self._check_enlarging(group, walk)


class TestNormalStructureReference:
    """The class walk and the prime-order closures against the reference."""

    # PSL(2,7) and A6, whose least nontrivial elements are not the first
    # prime-order class representatives: their minimal normal subgroup is
    # renamed
    @settings(max_examples=150, deadline=None)
    @given(generator_sets())
    @example((7, [Permutation((0, 4, 1, 6, 5, 2, 3)), Permutation((3, 2, 6, 4, 0, 5, 1))]))
    @example((6, [Permutation((0, 1, 4, 2, 3, 5)), Permutation((1, 2, 5, 4, 3, 0))]))
    def test_random_groups(self, case):
        n, gens = case
        group = build_group(gens, degree=n)
        if group.order() <= 2 * 10**4:
            assert _library_normal_structure(group) == _reference_normal_structure(group)

    def test_catalog_groups(self, ctx):
        for name, group in _catalog_groups(ctx):
            fresh = build_group(group.generators)
            want = _reference_normal_structure(fresh)
            assert _library_normal_structure(fresh) == want, name

    def test_renaming_keeps_the_least_element(self, ctx):
        # a catalog group with a minimal normal subgroup whose least element
        # has composite order, so no prime-order closure is named by it and
        # its closure is recomputed (hexagon-q2's bipart 1, of order 12096)
        def least_orders(group):
            _, minimal, _ = _reference_normal_structure(group)
            return [Permutation(gens[0]).order() for gens in minimal]

        group = next(
            group
            for _, group in _catalog_groups(ctx)
            if not all(map(perm._is_prime, least_orders(group)))
        )
        assert _library_normal_structure(group) == _reference_normal_structure(group)

    def test_names_do_not_depend_on_the_base(self, ctx):
        # one group under two bases: Aut's chain read off the search's
        # levels, and one rebuilt from the same generators with the points
        # hinted in reverse; the element listing follows the base, the
        # names of the minimal normal subgroups must not
        def named(group):
            minimal, socle = perm.normal_structure(group)
            return [[p.images for p in m.generators] for m in minimal], [
                p.images for p in socle.generators
            ]

        for name in ("desargues", "heawood", "hexagon-q2", "tutte-coxeter", "K3,3"):
            aut = ctx.aut(name)
            raw = [perm._raw(g.images) for g in aut.generators]
            hint = range(aut.degree - 1, -1, -1)
            other = perm._group_from_chain(
                aut.degree, raw, perm._build_chain(aut.degree, raw, base_hint=hint)
            )
            assert other.base() != aut.base(), name
            assert named(other) == named(aut), name

    def test_foster_work(self, foster_aut, chain_builds, monkeypatch):
        chain_builds.clear()
        group = build_group(foster_aut.generators)
        conjugations = []
        original = perm._conjugate

        def counted(x, g, gi):
            conjugations.append(x)
            return original(x, g, gi)

        monkeypatch.setattr(perm, "_conjugate", counted)
        reps = perm.conjugacy_class_representatives(group)
        # each element is conjugated once by each entry of the walk list
        assert len(conjugations) == group.order() * len(group.walk()) == 4320 * 2
        assert len(chain_builds) == 1  # the walk list cost no second build
        monkeypatch.setattr(perm, "_conjugate", original)

        closures = []
        closure_fn = perm.normal_test_and_closure

        def counted_closure(g, sub):
            closures.append(sub)
            return closure_fn(g, sub)

        monkeypatch.setattr(perm, "normal_test_and_closure", counted_closure)
        minimal, _ = perm.normal_structure(group)
        # the 6 prime-order representatives of 19 nontrivial ones, and no
        # renaming: Foster's first class in its Z3 has order 3
        primes = [r for r in reps if perm._is_prime(r.order())]
        assert len(reps) - 1 == 19
        assert [s[0] for s in closures] == primes and len(primes) == 6
        assert [m.order() for m in minimal] == [3]


class TestLazyChain:
    """A group from the automorphism search knows its order from the
    search's orbits, and reads its chain off the search's levels on first
    use: one orbit walk per level, with no Schreier-Sims build."""

    ACCESSORS = {
        "base": lambda g: g.base(),
        "walk": lambda g: g.walk(),
        "in": lambda g: g.generators[0] in g,
        "raw_elements": lambda g: g.raw_elements(),
    }

    @pytest.mark.parametrize("name", ["petersen", "foster"])
    @pytest.mark.parametrize("accessor", sorted(ACCESSORS))
    def test_first_use_builds_one_chain(self, name, accessor, chain_builds, monkeypatch):
        from geodex.atlas import atlas_get
        from geodex.symmetry import _base_levels, automorphism_group

        reads = []
        original = perm._Chain.from_levels.__func__

        def counted(cls, degree, levels, order):
            reads.append(degree)
            return original(cls, degree, levels, order)

        monkeypatch.setattr(perm._Chain, "from_levels", classmethod(counted))
        graph = atlas_get(name).graph
        group = automorphism_group(graph)
        assert group.order() == atlas_get(name).expected.aut_order
        assert repr(group).startswith("PermGroup(")  # reads the order only
        assert reads == [] and chain_builds == []
        self.ACCESSORS[accessor](group)
        for use in self.ACCESSORS.values():
            use(group)
        assert reads == [group.degree]  # one chain, read off the levels
        assert chain_builds == []  # and no Schreier-Sims build
        # every level of these graphs' searches measured an orbit of more
        # than one point, so the base is the branch vertices
        assert group.base() == tuple(v for *_, v in _base_levels(graph))
        eager = build_group(group.generators)
        assert group.order() == eager.order()
        assert all(eager.contains_raw(g) for g in group.walk())
        assert all(group.contains_raw(g) for g in eager.walk())
        assert sorted(group.raw_elements()) == sorted(eager.raw_elements())
        assert chain_builds == [group.degree]  # build_group's own

    def test_built_chain_matches_the_counted_order(self):
        from geodex.atlas import atlas_get
        from geodex.symmetry import automorphism_group

        group = automorphism_group(atlas_get("hexagon-q2").graph)
        assert group._chain.order() == group.order() == 12096
        # the branch vertices, each with its orbit under the generators
        # found at its level and below
        assert group.base() == (0, 5, 16)
        assert group.basic_orbit_sizes() == (63, 48, 4)
        for k, lvl in enumerate(group._chain.levels):
            gens = group._chain.gens_from_level(k)
            assert len(perm._orbit(gens, (lvl.point,))) == len(lvl.transversal)


class TestSemiregular:
    def test_regular_cyclic(self):
        c5 = build_group([cyc(5, (0, 1, 2, 3, 4))])
        assert perm.is_semiregular(c5)

    def test_s3_not_semiregular(self):
        s3 = build_group([cyc(3, (0, 1, 2)), cyc(3, (0, 1))])
        assert not perm.is_semiregular(s3)

    def test_foster_normal_semiregular(self, foster_n):
        assert perm.is_semiregular(foster_n)


class TestInducedAction:
    def test_singleton_blocks(self):
        s4 = build_group([cyc(4, (0, 1, 2, 3)), cyc(4, (0, 1))])
        quotient, kernel = perm.induced_action(s4, [(0,), (1,), (2,), (3,)])
        assert quotient.order() == 24
        assert kernel.order() == 1

    def test_c4_halving(self):
        c4 = build_group([cyc(4, (0, 1, 2, 3))])
        quotient, kernel = perm.induced_action(c4, [(0, 2), (1, 3)])
        assert quotient.order() == 2
        assert kernel.order() == 2

    def test_not_invariant(self):
        s3 = build_group([cyc(3, (0, 1, 2)), cyc(3, (0, 1))])
        with pytest.raises(NotInvariant):
            perm.induced_action(s3, [(0, 1), (2,)])

    def test_foster_block_action(self, foster_aut, foster_n):
        blocks = perm.orbits(foster_n)
        quotient, kernel = perm.induced_action(foster_aut, blocks)
        assert quotient.order() == 1440
        assert kernel.order() == 3
        assert quotient.order() * kernel.order() == foster_aut.order()
        # the kernel contains N
        assert perm.is_subgroup_of(foster_n, kernel)


class TestRestriction:
    def test_faithful_restriction(self):
        g = build_group([cyc(6, (0, 1, 2), (3, 4, 5))])
        restricted, faithful = perm.restriction(g, [0, 1, 2])
        assert restricted.order() == 3
        assert faithful

    def test_unfaithful_restriction(self):
        g = build_group([cyc(6, (0, 1, 2)), cyc(6, (3, 4, 5))])
        restricted, faithful = perm.restriction(g, [0, 1, 2])
        assert restricted.order() == 3
        assert not faithful

    @settings(max_examples=80, deadline=None)
    @given(st.data())
    def test_faithful_iff_trivial_pointwise_stabilizer(self, data):
        n = data.draw(st.integers(min_value=1, max_value=9))
        count = data.draw(st.integers(min_value=0, max_value=3))
        gens = [Permutation(tuple(data.draw(st.permutations(range(n))))) for _ in range(count)]
        group = build_group(gens, degree=n)
        orbit = sorted(group.orbit(data.draw(st.integers(min_value=0, max_value=n - 1))))
        _, faithful = perm.restriction(group, orbit)
        assert faithful == (perm.pointwise_stabilizer(group, orbit).order() == 1)

    def test_non_invariant_rejected(self):
        g = build_group([cyc(4, (0, 1, 2, 3))])
        with pytest.raises(PointOutOfRange):
            perm.restriction(g, [0, 1])


# ---------------------------------------------------------------------------
# the two raw forms: bytes up to degree 256, image tuples above
# ---------------------------------------------------------------------------

def _on_both_paths(answer):
    """``answer()`` with raw permutations as bytes, and again with the bytes
    threshold lowered to 1, so that every degree from 2 up takes the tuple
    path.  (Degree 1 stays bytes: itemgetter needs two keys to return a
    tuple, and in use the tuple path starts at degree 257.)"""
    results = []
    for threshold in (perm._BYTES_DEGREE, 1):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(perm, "_BYTES_DEGREE", threshold)
            results.append(answer())
    return results


def _group_values(gens, degree, partitions=()):
    """Everything the structure layer reads off a group built from ``gens``,
    with raw sequences as tuples."""
    group = build_group(gens, degree=degree)
    points = list(reversed(range(degree)))
    perm.pointwise_stabilizer(group, points)  # memoizes every prefix
    values = {
        "base": group.base(),
        "basic orbit sizes": group.basic_orbit_sizes(),
        "walk": [tuple(w) for w in group.walk()],
        "stabilizer orders": [
            perm.pointwise_stabilizer(group, points[:k]).order() for k in range(1, degree + 1)
        ],
    }
    if group.order() > 2 * 10**4:
        return values
    minimal, socle = perm.normal_structure(group)
    values["elements"] = [tuple(e) for e in group.raw_elements()]
    values["class reps"] = [r.images for r in perm.conjugacy_class_representatives(group)]
    values["minimal normal"] = [[g.images for g in m.generators] for m in minimal]
    values["socle order"] = socle.order()
    actions = []
    for cells in [perm.orbits(m) for m in minimal] + list(partitions):
        quotient, kernel = perm.induced_action(group, cells)
        actions.append(
            (
                [g.images for g in quotient.generators],
                quotient.order(),
                [g.images for g in kernel.generators],
                kernel.order(),
            )
        )
    values["induced actions"] = actions
    return values


class TestRawPaths:
    """The bytes path and the tuple path give the same values."""

    @settings(max_examples=80, deadline=None)
    @given(generator_sets(max_degree=9))
    def test_random_groups(self, case):
        n, gens = case
        on_bytes, on_tuples = _on_both_paths(lambda: _group_values(gens, n))
        assert on_bytes == on_tuples

    def test_catalog_groups(self, ctx):
        from geodex.graph import bipartition

        cases = []
        for name, group in _catalog_groups(ctx):
            parts = bipartition(ctx.graph(name)) if " bipart " not in name else None
            cases.append((name, group.generators, group.degree, [list(parts)] if parts else []))
        for name, gens, degree, partitions in cases:
            on_bytes, on_tuples = _on_both_paths(lambda: _group_values(gens, degree, partitions))
            assert on_bytes == on_tuples, name
            assert on_bytes["elements"], name  # every catalog group is listed

    def test_membership_and_coset_graphs(self):
        # fixed answers, which both paths must give
        def answers():
            s5 = build_group([cyc(5, (0, 1, 2, 3, 4)), cyc(5, (0, 1))])
            a5 = build_group([cyc(5, (0, 1, 2)), cyc(5, (2, 3, 4))])
            h = build_group([cyc(5, (0, 1, 2)), cyc(5, (0, 1)), cyc(5, (3, 4))])
            g, t, c = cyc(5, (2, 3)), cyc(5, (0, 1)), cyc(5, (0, 1, 2))
            membership = (
                g in s5, g in a5, c in a5, cyc(6, (0, 1)) in s5,
                a5.contains_raw((1, 2, 0, 3, 4)), a5.contains_raw([1, 2, 0, 3, 4]),
                a5.contains_raw([1, 0, 2, 3, 4]), s5.contains_raw(perm._raw(t.images)),
                perm.is_subgroup_of(a5, s5), perm.is_subgroup_of(s5, a5),
                perm.normal_test_and_closure(s5, a5)[0],
                perm.normal_test_and_closure(s5, [t, (1, 0, 2, 3, 4)])[1].order(),
                (g * c).images, c.inverse().images,
            )
            cosets = A.coset_graph(s5, h, g).edges()
            action = [p.images for p in A.coset_action(s5, h).generators]
            return membership, cosets, action

        on_bytes, on_tuples = _on_both_paths(answers)
        assert on_bytes == on_tuples
        membership, cosets, action = on_bytes
        assert membership == (
            True, False, True, False, True, True, False, True, True, False, True, 120,
            (1, 2, 3, 0, 4), (2, 0, 1, 3, 4),
        )
        assert cosets == [
            (0, 1), (0, 2), (0, 3), (0, 4), (0, 6), (0, 7), (1, 2), (1, 3), (1, 5),
            (1, 6), (1, 8), (2, 4), (2, 5), (2, 7), (2, 8), (3, 4), (3, 5), (3, 6),
            (3, 9), (4, 5), (4, 7), (4, 9), (5, 8), (5, 9), (6, 7), (6, 8), (6, 9),
            (7, 8), (7, 9), (8, 9),
        ]
        assert action == [(6, 7, 0, 8, 1, 2, 9, 3, 4, 5), (0, 1, 2, 6, 7, 8, 3, 4, 5, 9)]


def _cycle_aut(n):
    from geodex.graph import build_graph
    from geodex.symmetry import automorphism_group

    return automorphism_group(build_graph(n, [(i, (i + 1) % n) for i in range(n)]))


class TestRawFormBoundary:
    @pytest.mark.parametrize("n, form, minimal", [(256, bytes, [2]), (257, tuple, [257])])
    def test_cycle_automorphism_groups(self, n, form, minimal):
        group = _cycle_aut(n)
        assert group.order() == 2 * n
        assert group.base() == (0, 1) and group.basic_orbit_sizes() == (n, 2)
        assert type(group._chain.identity) is form
        assert all(type(w) is form for w in group.walk())
        assert [m.order() for m in perm.normal_structure(group)[0]] == minimal
        assert all(type(e) is form for e in group.raw_elements())

    def test_induced_action_across_the_boundary(self, monkeypatch):
        group = _cycle_aut(200)
        assert type(group._chain.identity) is bytes
        forms = {}
        original = perm._build_chain

        def recorded(degree, gens, base_hint=()):
            chain = original(degree, gens, base_hint)
            forms[degree] = type(chain.identity)
            return chain

        monkeypatch.setattr(perm, "_build_chain", recorded)
        quotient, kernel = perm.induced_action(group, [(i, i + 100) for i in range(100)])
        # the action on the 200 points and 100 pairs is one chain of 300 points
        assert forms == {100: bytes, 300: tuple, 200: bytes}
        assert (quotient.degree, quotient.order()) == (100, 200)
        assert (kernel.degree, kernel.order()) == (200, 2)
        assert [g.images for g in kernel.generators] == [
            tuple(range(100, 200)) + tuple(range(100))
        ]


# ---------------------------------------------------------------------------
# the chain's right-operand tables against plain _compose
# ---------------------------------------------------------------------------

def _compose_listing(chain):
    """Every product of one transversal element per level, deepest level
    innermost, in the order ``raw_elements`` lists them, multiplied by
    ``_compose``."""
    out = [chain.identity]
    for lvl in reversed(chain.levels):
        transversal = [lvl.transversal[p] for p in sorted(lvl.transversal)]
        out = [perm._compose(deep, t) for t in transversal for deep in out]
    return out


def _compose_class_reps(group):
    """The least element of each conjugacy class in listing order, with
    every conjugate g^-1 x g by a walk generator g made by ``_compose``."""
    walk = [(g, perm._inverse(g)) for g in group.walk()]
    seen = set()
    reps = []
    for e in group.raw_elements():
        if e in seen:
            continue
        cls = {e}
        queue = [e]
        while queue:
            x = queue.pop()
            for g, gi in walk:
                y = perm._compose(perm._compose(gi, x), g)
                if y not in cls:
                    cls.add(y)
                    queue.append(y)
        seen |= cls
        reps.append(min(cls))
    return reps


def _table_checks(gens, degree):
    """(raw form, transversal products sifting to the identity, listing
    equal to the _compose one, class representatives equal to the _compose
    ones) for the group of ``gens``."""
    group = build_group(gens, degree=degree)
    chain = group._chain
    listing = _compose_listing(chain)
    stripped = (chain.identity, len(chain.levels))
    reps = [r.images for r in perm.conjugacy_class_representatives(group)]
    return (
        type(chain.identity),
        all(chain.sift(e) == stripped for e in listing),
        group.raw_elements() == listing,
        reps == [tuple(r) for r in _compose_class_reps(group)],
    )


class TestChainTables:
    """Sifting, element listing and conjugation through prebuilt tables give
    what plain ``_compose`` gives, on bytes and on image tuples."""

    @settings(max_examples=80, deadline=None)
    @given(generator_sets(max_degree=7))
    def test_random_groups(self, case):
        n, gens = case
        on_bytes, on_tuples = _on_both_paths(lambda: _table_checks(gens, n))
        assert on_bytes == (bytes, True, True, True)
        assert on_tuples == (bytes if n == 1 else tuple, True, True, True)

    def test_catalog_groups(self, foster_aut, petersen_aut):
        m11 = [cyc(11, tuple(range(11))), cyc(11, (2, 6, 10, 7), (3, 9, 4, 5))]
        for gens, degree in [(foster_aut.generators, 90), (petersen_aut.generators, 10), (m11, 11)]:
            on_bytes, on_tuples = _on_both_paths(lambda: _table_checks(gens, degree))
            assert on_bytes == (bytes, True, True, True)
            assert on_tuples == (tuple, True, True, True)

    def test_c300(self):
        # above degree 256 the tables are the image tuples on either path
        group = _cycle_aut(300)
        on_bytes, on_tuples = _on_both_paths(lambda: _table_checks(group.generators, 300))
        assert on_bytes == on_tuples == (tuple, True, True, True)
