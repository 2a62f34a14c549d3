"""Normal quotient graphs, cover verification, and the reduction pipeline
for geodesic-transitive graphs of near-extremal girth.

The quotient of a graph under an intransitive normal subgroup N has the
N-orbits as vertices, adjacent when some edge joins them (multiplicities are
dropped; a diagnostic count is kept).  The pipeline entry point
``verify_reduction`` verifies the full hypothesis stack and classifies the
instance into the girth-preserved case, the single exceptional cover, or a
counterexample candidate with evidence.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field

from . import atlas as atlasmod
from . import graph as graphmod
from . import perm as permmod
from . import symmetry as symmod
from .errors import (
    CycleTooLong,
    NormalityFails,
    NotACycle,
    NTransitive,
    PreconditionUnverified,
)
from .graph import Graph
from .perm import PermGroup


@dataclass(frozen=True)
class QuotientResult:
    """Quotient of ``graph`` by the orbits of ``normal_subgroup`` under ``group``."""

    graph: Graph
    group: PermGroup
    normal_subgroup: PermGroup
    orbit_partition: tuple[tuple[int, ...], ...]
    quotient: Graph
    induced: PermGroup
    kernel: PermGroup
    is_cover: bool
    girth_pair: tuple[int | None, int | None]
    multi_edge_pairs: int
    _cache: dict = field(default_factory=dict, compare=False, repr=False, hash=False)

    @property
    def orbit_count(self) -> int:
        return len(self.orbit_partition)

    @property
    def kernel_order(self) -> int:
        return self.kernel.order()

    def to_json(self) -> dict:
        return {
            "orbit_count": self.orbit_count,
            "orbit_partition": [list(c) for c in self.orbit_partition],
            "quotient": self.quotient.to_json(),
            "induced_order": self.induced.order(),
            "kernel_order": self.kernel_order,
            "is_cover": self.is_cover,
            "girth_pair": list(self.girth_pair),
            "multi_edge_pairs": self.multi_edge_pairs,
        }


def normal_quotient(graph: Graph, group: PermGroup, normal_subgroup: PermGroup) -> QuotientResult:
    """Quotient graph on the N-orbits with the induced G/N action.

    Requires N normal in G <= Aut(graph) and N intransitive.
    """
    symmod.validate_automorphisms(graph, group)
    return _build_quotient(graph, group, normal_subgroup)


def _build_quotient(graph: Graph, group: PermGroup, normal_subgroup: PermGroup) -> QuotientResult:
    """``normal_quotient`` for a group already validated on ``graph``."""
    is_normal, _ = permmod.normal_test_and_closure(group, normal_subgroup)
    if not is_normal:
        raise NormalityFails("N is not normal in G")
    blocks = permmod.orbits(normal_subgroup)
    if len(blocks) <= 1:
        raise NTransitive("N is transitive: the quotient is a single vertex")

    block_of = [0] * graph.n
    for idx, cell in enumerate(blocks):
        for v in cell:
            block_of[v] = idx
    pair_edges: dict[tuple[int, int], int] = {}
    for u, v in graph.edges():
        bu, bv = block_of[u], block_of[v]
        if bu != bv:
            key = (bu, bv) if bu < bv else (bv, bu)
            pair_edges[key] = pair_edges.get(key, 0) + 1
    quotient = graphmod.build_graph(len(blocks), pair_edges.keys())
    multi = sum(1 for c in pair_edges.values() if c > 1)

    induced, kernel = permmod.induced_action(group, blocks)
    qdeg = quotient.degrees()
    is_cover = all(
        graph.degree(v) == qdeg[block_of[v]] for v in range(graph.n)
    )
    return QuotientResult(
        graph=graph,
        group=group,
        normal_subgroup=normal_subgroup,
        orbit_partition=tuple(blocks),
        quotient=quotient,
        induced=induced,
        kernel=kernel,
        is_cover=is_cover,
        girth_pair=(graphmod.girth(graph), graphmod.girth(quotient)),
        multi_edge_pairs=multi,
    )


def _cached_geodesic_transitive(result: QuotientResult, s: int) -> bool:
    key = ("sgt", s)
    if key not in result._cache:
        result._cache[key] = symmod.is_s_geodesic_transitive(result.graph, result.group, s)
    return result._cache[key]


# ---------------------------------------------------------------------------
# girth bounds of the quotient
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GirthBoundReport:
    """Quotient-girth window 2s-4 <= g_quotient <= g_cover plus the
    (s-1)-transitivity of the quotient under the induced group."""

    s: int
    lower: int
    quotient_girth: int | None
    cover_girth: int | None
    bounds_hold: bool
    premises: dict
    quotient_arc_transitive_prev: bool | None
    quotient_arc_transitive_s: bool | None
    verdict: str  # holds | violated | premise-violation | excluded-s7

    def to_json(self) -> dict:
        return asdict(self)


def girth_window_level(girth: int) -> int:
    """The level s whose girth window {2s-2, 2s-1} holds ``girth``."""
    return girth // 2 + 1


def girth_bound_check(graph: Graph, result: QuotientResult, s: int) -> GirthBoundReport:
    """Check 2s-4 <= girth(quotient) <= girth(graph) and that the quotient is
    (s-1)-arc transitive but not s-arc transitive under the induced group.

    The window is reported even when the hypothesis stack fails; the verdict
    then says premise-violation.  s = 7 is flagged as excluded.
    """
    if graph != result.graph:
        raise PreconditionUnverified("graph", "graph is not the graph of the quotient result")
    if not result.is_cover:
        raise PreconditionUnverified("cover", "quotient is not a cover")
    if s < 2:
        raise PreconditionUnverified("s >= 2", f"got s={s}")
    if s > graph.n:
        # past n the window's lower end 2s-4 exceeds n >= girth, so no answer
        # is lost, and first_arc's DFS stack would hold O(s^2) ints
        raise PreconditionUnverified("s <= n", f"got s={s} on a cover of {graph.n} vertices")
    g_cover, g_quot = result.girth_pair
    premises = {
        "cover": True,
        "girth_matches": g_cover in (2 * s - 2, 2 * s - 1),
        "geodesic_transitive": _cached_geodesic_transitive(result, s),
    }
    lower = 2 * s - 4
    bounds_hold = (
        g_quot is not None
        and g_cover is not None
        and lower <= g_quot <= g_cover
    )
    # both levels read prefixes of one arc, so they share one chain; with no s-arc
    # (valency 1), level s fails on its zero count and level s-1 reads an (s-1)-arc
    quotient, induced = result.quotient, result.induced
    symmod.validate_automorphisms(quotient, induced)
    arc = graphmod.first_arc(quotient, s) or graphmod.first_arc(quotient, s - 1)
    prev_arc = symmod._level_transitive(induced, arc, s - 1, graphmod.count_arcs(quotient, s - 1))
    arc_s = symmod._level_transitive(induced, arc, s, graphmod.count_arcs(quotient, s))
    if s == 7:
        verdict = "excluded-s7"
    elif not all(premises.values()):
        verdict = "premise-violation"
    elif bounds_hold and prev_arc and not arc_s:
        verdict = "holds"
    else:
        verdict = "violated"
    return GirthBoundReport(
        s=s,
        lower=lower,
        quotient_girth=g_quot,
        cover_girth=g_cover,
        bounds_hold=bounds_hold,
        premises=premises,
        quotient_arc_transitive_prev=prev_arc,
        quotient_arc_transitive_s=arc_s,
        verdict=verdict,
    )


# ---------------------------------------------------------------------------
# lifted cycles
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LiftProfile:
    """Distances along the lift of a short quotient cycle.

    For a k-cycle of the quotient with k < girth(cover), the greedy lift is a
    k-arc (u_1, ..., u_k, u_1') with u_1' in the start block but distinct from
    u_1; the profile records d(u_1, u_i) and the quotient distances from the
    start block.
    """

    blocks: tuple[int, ...]
    lifted_arc: tuple[int, ...]
    s: int
    cover_distances: tuple[int, ...]
    endpoint_distance: int
    quotient_distances: tuple[int, ...]
    checks: dict
    verdict: str  # holds | violated | premise-violation

    def to_json(self) -> dict:
        return asdict(self)


def _normalize_cycle(result: QuotientResult, cycle) -> list[int]:
    blocks = []
    for item in cycle:
        if isinstance(item, int):
            idx = item
        else:
            cell = tuple(sorted(item))
            try:
                idx = result.orbit_partition.index(cell)
            except ValueError:
                raise NotACycle(f"{cell} is not an orbit of N") from None
        if not 0 <= idx < result.orbit_count:
            raise NotACycle(f"block index {idx} out of range")
        blocks.append(idx)
    return blocks


def lift_cycle_profile(graph: Graph, result: QuotientResult, cycle) -> LiftProfile:
    """Lift a quotient k-cycle (k < girth) greedily and verify the distance
    profile d(u_1, u_i) = i-1 for i <= s and d(u_1, u_k) >= girth - k + 1.

    ``cycle`` is a sequence of block indices or orbit cells.  The level s is
    the one forced by the cover girth (girth = 2s-2 or 2s-1); when no
    admissible s exists the verdict is premise-violation.
    """
    if graph != result.graph:
        raise PreconditionUnverified("graph", "graph is not the graph of the quotient result")
    if not result.is_cover:
        raise PreconditionUnverified("cover", "quotient is not a cover")
    blocks = _normalize_cycle(result, cycle)
    k = len(blocks)
    if k < 3 or len(set(blocks)) != k:
        raise NotACycle("block sequence must be a cycle of distinct blocks")
    qadj = result.quotient.neighbor_sets()
    for i in range(k):
        if blocks[(i + 1) % k] not in qadj[blocks[i]]:
            raise NotACycle(
                f"blocks {blocks[i]} and {blocks[(i + 1) % k]} are not adjacent"
            )
    g_cover = result.girth_pair[0]
    if g_cover is None or k >= g_cover:
        raise CycleTooLong(f"cycle length {k} is not below the cover girth {g_cover}")

    s = girth_window_level(g_cover)
    premise_ok = _cached_geodesic_transitive(result, s)

    # greedy lift; the cover property gives each vertex a neighbor in every
    # adjacent block (lowest index is taken at each step)
    cells = [frozenset(c) for c in result.orbit_partition]
    adjsets = graph.neighbor_sets()
    arc = [min(result.orbit_partition[blocks[0]])]
    for cell in [cells[b] for b in blocks[1:]] + [cells[blocks[0]]]:
        steps = adjsets[arc[-1]] & cell
        if not steps:
            raise PreconditionUnverified(
                "cover regularity", f"vertex {arc[-1]} has no neighbor in {sorted(cell)}"
            )
        arc.append(min(steps))

    dist_u1 = graphmod.distances(graph, arc[0])
    cover_distances = tuple(dist_u1[v] for v in arc[:k])
    endpoint_distance = dist_u1[arc[k - 1]]
    qdist = graphmod.distances(result.quotient, blocks[0])
    quotient_distances = tuple(qdist[b] for b in blocks)

    r = k // 2
    checks = {
        "closing_vertex_distinct": arc[-1] != arc[0],
        "s_in_range": s <= k,
        "geodesic_prefix": all(
            cover_distances[i] == i for i in range(min(s, k))
        ),
        "endpoint_bound": endpoint_distance >= g_cover - k + 1,
        "quotient_prefix": all(
            quotient_distances[i] == i for i in range(min(r + 1, k))
        ),
        "quotient_antipode": (
            quotient_distances[r + 1] == (r - 1 if k % 2 == 0 else r)
            if r + 1 < k
            else True
        ),
    }
    if not premise_ok:
        verdict = "premise-violation"
    elif all(checks.values()):
        verdict = "holds"
    else:
        verdict = "violated"
    return LiftProfile(
        blocks=tuple(blocks),
        lifted_arc=tuple(arc),
        s=s,
        cover_distances=cover_distances,
        endpoint_distance=endpoint_distance,
        quotient_distances=quotient_distances,
        checks=checks,
        verdict=verdict,
    )


# ---------------------------------------------------------------------------
# the reduction pipeline
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ReductionVerdict:
    case: str  # girth-preserved | foster-exception | counterexample-candidate | precondition-failed
    evidence: dict
    quotient_result: QuotientResult | None = None

    def to_json(self) -> dict:
        return {"case": self.case, "evidence": self.evidence}


def verify_reduction(graph: Graph, group: PermGroup, normal_subgroup: PermGroup, s: int) -> ReductionVerdict:
    """Full reduction pipeline for a (G,s)-geodesic transitive graph of girth
    2s-2 or 2s-1 (5 <= s <= 8) and a nontrivial normal N with >= 3 orbits.

    Premise failures raise PreconditionUnverified naming the first failing
    premise, except the two-orbit case which returns the dedicated
    precondition-failed verdict (that case belongs to bipartite analysis).
    Outcomes: the quotient preserves the girth (with diameter > s and the
    induced group still s-geodesic transitive), or the cover is the single
    known exception, or everything is reported as a counterexample candidate.
    """
    if not graph.connected:
        raise PreconditionUnverified("connected", "graph is disconnected")
    if not 5 <= s <= 8:
        raise PreconditionUnverified("5 <= s <= 8", f"got s={s}")
    diam = graphmod.diameter(graph)
    if s > diam:
        raise PreconditionUnverified("s <= diameter", f"diameter {diam} < {s}")
    g = graphmod.girth(graph)
    if g not in (2 * s - 2, 2 * s - 1):
        raise PreconditionUnverified(
            "girth in {2s-2, 2s-1}",
            f"girth {g} not in {{{2 * s - 2}, {2 * s - 1}}}",
        )
    if not symmod.is_s_geodesic_transitive(graph, group, s):
        raise PreconditionUnverified(
            "s-geodesic transitivity", f"(G,{s})-geodesic transitivity fails"
        )
    if normal_subgroup.order() == 1:
        raise PreconditionUnverified("N nontrivial", "N is the trivial group")
    try:
        # is_s_geodesic_transitive above has validated G on the graph
        result = _build_quotient(graph, group, normal_subgroup)
    except NormalityFails:
        raise PreconditionUnverified("N normal in G", "conjugation check failed") from None
    except NTransitive:
        raise PreconditionUnverified("N intransitive", "N is transitive") from None
    n_orbits = result.orbit_partition
    if len(n_orbits) == 2:
        return ReductionVerdict(
            case="precondition-failed",
            evidence={
                "premise": "orbit-count",
                "detail": "N has exactly 2 orbits; the bipartite analysis applies",
                "orbit_count": 2,
            },
        )

    shape = graphmod.classify_shape(graph)
    if shape.complete_multipartite:
        raise PreconditionUnverified(
            "not complete multipartite", "graph is complete multipartite"
        )

    evidence: dict = {
        "s": s,
        "girth": g,
        "orbit_count": len(n_orbits),
        "orbit_sizes": sorted({len(c) for c in n_orbits}),
        "semiregular": permmod.is_semiregular(normal_subgroup),
    }
    evidence["is_cover"] = result.is_cover
    evidence["girth_pair"] = list(result.girth_pair)
    evidence["kernel_order"] = result.kernel_order
    evidence["induced_order"] = result.induced.order()

    if not evidence["semiregular"] or not result.is_cover:
        return ReductionVerdict("counterexample-candidate", evidence, result)

    quotient_diam = graphmod.diameter(result.quotient)
    evidence["quotient_diameter"] = quotient_diam
    if result.girth_pair[1] == g and quotient_diam > s:
        quotient_sgt = symmod.is_s_geodesic_transitive(result.quotient, result.induced, s)
        evidence["quotient_s_geodesic_transitive"] = quotient_sgt
        if quotient_sgt:
            return ReductionVerdict("girth-preserved", evidence, result)
        return ReductionVerdict("counterexample-candidate", evidence, result)

    # girth dropped (or the diameter did): the only admissible instance is the
    # exceptional 3-fold cover of the generalized quadrangle of order 2
    foster = atlasmod.atlas_get("foster").graph
    tutte_coxeter = atlasmod.atlas_get("tutte-coxeter").graph
    iso_cover = symmod.are_isomorphic(graph, foster)
    iso_quotient = symmod.are_isomorphic(result.quotient, tutte_coxeter)
    evidence["cover_is_foster"] = iso_cover is not None
    evidence["quotient_is_tutte_coxeter"] = iso_quotient is not None
    if iso_cover is not None and iso_quotient is not None and (s, g) == (6, 10):
        evidence["triple"] = [s, "tutte-coxeter", g]
        evidence["cover_isomorphism"] = list(iso_cover)
        evidence["quotient_isomorphism"] = list(iso_quotient)
        return ReductionVerdict("foster-exception", evidence, result)
    return ReductionVerdict("counterexample-candidate", evidence, result)
