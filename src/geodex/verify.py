"""Machine verification of the concrete claims behind the toolkit.

Each claim is a function on a shared (lazily cached) context that returns a
ClaimResult; ``run_all`` powers both ``geodex verify paper`` and the
acceptance test module.  Claims carry their stated wall-clock budgets and
fail when those are exceeded.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass

from . import atlas as atlasmod
from . import graph as graphmod
from . import oracles
from . import perm as permmod
from . import quotient as quotientmod
from . import symmetry as symmod
from .atlas import _check
from .graph import Graph
from .perm import PermGroup, Permutation


@dataclass(frozen=True)
class ClaimResult:
    criterion: int
    name: str
    passed: bool
    detail: str
    elapsed: float
    budget: float | None = None

    @property
    def within_budget(self) -> bool:
        return self.budget is None or self.elapsed <= self.budget

    @property
    def ok(self) -> bool:
        return self.passed and self.within_budget

    def line(self) -> str:
        status = "PASS" if self.ok else "FAIL"
        budget = f" (budget {self.budget:.0f}s)" if self.budget else ""
        return f"[{status}] {self.criterion:>2}. {self.name}: {self.detail} [{self.elapsed:.1f}s{budget}]"

    def to_json(self) -> dict:
        return {
            "criterion": self.criterion,
            "name": self.name,
            "passed": self.passed,
            "detail": self.detail,
            "elapsed": round(self.elapsed, 3),
            "budget": self.budget,
            "ok": self.ok,
        }


class VerificationContext:
    """Shared lazily computed graphs and groups for the claim functions."""

    def __init__(self):
        self._cache: dict = {}

    def graph(self, name: str) -> Graph:
        key = ("graph", name)
        if key not in self._cache:
            self._cache[key] = atlasmod.atlas_get(name).graph
        return self._cache[key]

    def aut(self, name: str) -> PermGroup:
        key = ("aut", name)
        if key not in self._cache:
            self._cache[key] = symmod.automorphism_group(self.graph(name))
        return self._cache[key]

    def foster_minimal_normal(self) -> PermGroup:
        if "foster_N" not in self._cache:
            minimals, _ = permmod.normal_structure(self.aut("foster"))
            candidates = [m for m in minimals if m.order() == 3]
            assert candidates, "Aut(foster) lost its order-3 minimal normal subgroup"
            self._cache["foster_N"] = candidates[0]
        return self._cache["foster_N"]

    def foster_quotient(self) -> quotientmod.QuotientResult:
        if "foster_quotient" not in self._cache:
            self._cache["foster_quotient"] = quotientmod.normal_quotient(
                self.graph("foster"), self.aut("foster"), self.foster_minimal_normal()
            )
        return self._cache["foster_quotient"]


#: every claim, in definition order (which is criterion order)
ALL_CLAIMS: list = []


def _claim(criterion, name, budget=None):
    def wrap(fn):
        fn._criterion = criterion
        fn._name = name
        fn._budget = budget
        ALL_CLAIMS.append(fn)
        return fn

    return wrap


# ---------------------------------------------------------------------------
# claims
# ---------------------------------------------------------------------------

@_claim(1, "Foster graph invariant row", budget=60.0)
def claim_foster_row(ctx: VerificationContext) -> list[str]:
    return atlasmod.atlas_get("foster").mismatches(full=True)  # fresh build, full cost counted


@_claim(2, "Biggs-Smith graph invariant row", budget=120.0)
def claim_biggs_smith_row(ctx: VerificationContext) -> list[str]:
    return atlasmod.atlas_get("biggs-smith").mismatches(full=True)


@_claim(3, "generalized polygon rows", budget=60.0)
def claim_generalized_polygons(ctx: VerificationContext) -> list[str]:
    # the cheap fields of the family rows: a full check would add W(3)'s
    # automorphism search, which costs more than all the other rows together
    failures: list[str] = []
    for name in ("pg(2,2)", "pg(2,3)", "pg(2,4)", "w(2)", "w(3)"):
        failures += [f"{name} {m}" for m in atlasmod.atlas_get(name).mismatches()]
    return failures


@_claim(4, "reduction pipeline on the exceptional cover", budget=120.0)
def claim_reduction_everything(ctx: VerificationContext) -> list[str]:
    failures: list[str] = []
    graph = ctx.graph("foster")
    aut = ctx.aut("foster")
    n = ctx.foster_minimal_normal()
    verdict = quotientmod.verify_reduction(graph, aut, n, 6)
    _check(failures, "case", "foster-exception", verdict.case)
    _check(failures, "cover flag", True, verdict.evidence.get("is_cover"))
    _check(failures, "girth pair", [10, 8], verdict.evidence.get("girth_pair"))
    _check(failures, "semiregular", True, verdict.evidence.get("semiregular"))
    _check(failures, "orbit count", 30, verdict.evidence.get("orbit_count"))
    _check(
        failures,
        "quotient isomorphic to the quadrangle",
        True,
        verdict.evidence.get("quotient_is_tutte_coxeter"),
    )
    return failures


@_claim(5, "quotient girth window and arc transitivity", budget=60.0)
def claim_girth_bounds(ctx: VerificationContext) -> list[str]:
    failures: list[str] = []
    result = ctx.foster_quotient()
    report = quotientmod.girth_bound_check(ctx.graph("foster"), result, 6)
    _check(failures, "lower bound", 8, report.lower)
    _check(failures, "quotient girth", 8, report.quotient_girth)
    _check(failures, "cover girth", 10, report.cover_girth)
    _check(failures, "bounds hold", True, report.bounds_hold)
    _check(failures, "verdict", "holds", report.verdict)
    _check(failures, "induced order", 1440, result.induced.order())
    _check(failures, "quotient 5-arc transitive", True, report.quotient_arc_transitive_prev)
    return failures


@_claim(6, "lifted 8-cycle distance profiles", budget=120.0)
def claim_lift_profiles(ctx: VerificationContext) -> list[str]:
    failures: list[str] = []
    result = ctx.foster_quotient()
    quotient = result.quotient
    rng = random.Random(20240 + 6)
    edges = quotient.edges()
    cycles = []
    seen = set()
    while len(cycles) < 20:
        u, v = edges[rng.randrange(len(edges))]
        cycle = graphmod.shortest_cycle_through_edge(quotient, u, v)
        if cycle is None or len(cycle) != 8:
            continue
        key = frozenset(cycle)
        rotation = rng.randrange(8)
        cycle = cycle[rotation:] + cycle[:rotation]
        if key in seen:
            continue
        seen.add(key)
        cycles.append(cycle)
    for idx, cycle in enumerate(cycles):
        profile = quotientmod.lift_cycle_profile(ctx.graph("foster"), result, cycle)
        if profile.s != 6:
            failures.append(f"cycle {idx}: derived s={profile.s}")
        if not all(profile.cover_distances[i] == i for i in range(6)):
            failures.append(f"cycle {idx}: prefix distances {profile.cover_distances}")
        if profile.endpoint_distance < 3:
            failures.append(f"cycle {idx}: endpoint distance {profile.endpoint_distance}")
        if profile.verdict != "holds":
            failures.append(f"cycle {idx}: verdict {profile.verdict}")
    return failures


@_claim(7, "stabilizer divisibility and admissible orders", budget=60.0)
def claim_stabilizer_arithmetic(ctx: VerificationContext) -> list[str]:
    failures: list[str] = []
    report = symmod.weiss_divisibility_check(ctx.graph("foster"), ctx.aut("foster"), 5)
    _check(failures, "foster b-product", 48, report.product)
    _check(failures, "foster |G_u|", 48, report.stabilizer_order)
    _check(failures, "foster divisibility", True, report.divides)
    _check(failures, "foster case", "s5", report.case)
    _check(failures, "foster matched", True, report.matched)
    _check(failures, "foster q", 2, report.q)
    _check(failures, "foster e", 1, report.parameter)

    heawood = symmod.weiss_divisibility_check(ctx.graph("heawood"), ctx.aut("heawood"), 4)
    _check(failures, "heawood |G_u|", 24, heawood.stabilizer_order)
    _check(failures, "heawood case", "s4", heawood.case)
    _check(failures, "heawood matched", True, heawood.matched)
    _check(failures, "heawood q", 2, heawood.q)
    return failures


@_claim(8, "arc/geodesic equivalence under large girth", budget=180.0)
def claim_equivalence_suite(ctx: VerificationContext) -> list[str]:
    failures: list[str] = []
    for name in atlasmod.atlas_list():
        graph = ctx.graph(name)
        aut = ctx.aut(name)
        girth = graphmod.girth(graph)
        if aut.is_transitive():
            s_max = symmod.transitivity_degrees(graph, aut).arc_degree
        else:
            s_max = girth // 2
        for s in range(1, max(s_max, 1) + 1):
            if girth < 2 * s:
                continue
            arc = symmod.is_s_arc_transitive(graph, aut, s)
            geo = symmod.is_s_geodesic_transitive(graph, aut, s)
            if arc != geo:
                failures.append(f"{name}, s={s}: arc={arc} geodesic={geo}")
    return failures


@_claim(9, "imprimitivity of the exceptional cover's group", budget=60.0)
def claim_foster_imprimitive(ctx: VerificationContext) -> list[str]:
    failures: list[str] = []
    aut = ctx.aut("foster")
    _check(failures, "primitive", False, symmod.is_primitive(aut))
    systems = symmod.block_systems(aut)
    if not any(len(system[0]) == 3 for system in systems):
        failures.append("no block system with cells of size 3")
    report = symmod.quasiprimitivity(aut)
    _check(failures, "quasiprimitive", False, report.quasiprimitive)
    witness_order = report.witness.order() if report.witness else None
    _check(failures, "witness order", 3, witness_order)
    return failures


#: connected graphs on 1..7 vertices, one per isomorphism class
CONNECTED_GRAPHS_UP_TO_7 = 996


@_claim(10, "oracle equivalence", budget=300.0)
def claim_oracle_equivalence(ctx: VerificationContext) -> list[str]:
    failures: list[str] = []
    # automorphism orders against the orbit-stabilizer count
    small = 0
    for idx, graph in enumerate(_automorphism_corpus()):
        small += graph.n <= 7
        brute = oracles.brute_force_automorphism_count(graph)
        fast = symmod.automorphism_group(graph).order()
        if brute != fast:
            failures.append(f"aut corpus #{idx} (n={graph.n}): {fast} != brute {brute}")
    # a truncated data file must fail the claim, not shrink it
    _check(failures, "connected graphs on <= 7 vertices", CONNECTED_GRAPHS_UP_TO_7, small)
    failures.extend(_geodesic_oracle_failures(ctx))
    failures.extend(_group_order_oracle_failures())
    return failures


def _automorphism_corpus():
    """All connected graphs on <= 7 vertices, one per isomorphism class in
    the order of Read & Wilson's *An Atlas of Graphs* (the embedded
    ``connected_graphs_7.json``), then a seeded random 8-vertex sample and
    four named 8-vertex graphs."""
    for code in atlasmod._load_data_file("connected_graphs_7.json", ("graph6",))["graph6"]:
        yield graphmod.graph6_decode(code)

    rng = random.Random(8151)
    produced = 0
    while produced < 60:
        n = 8
        edges = [
            (i, j)
            for i in range(n)
            for j in range(i + 1, n)
            if rng.random() < rng.choice((0.25, 0.4, 0.6))
        ]
        graph = graphmod.build_graph(n, edges)
        if graph.connected:
            yield graph
            produced += 1
    cube = graphmod.build_graph(
        8,
        [(0, 1), (1, 2), (2, 3), (3, 0), (4, 5), (5, 6), (6, 7), (7, 4),
         (0, 4), (1, 5), (2, 6), (3, 7)],
    )
    yield cube
    yield graphmod.build_graph(8, [(i, j) for i in range(8) for j in range(i + 1, 8)])
    yield atlasmod.atlas_get("k4,4").graph
    yield atlasmod.atlas_get("c8").graph


def _geodesic_oracle_failures(ctx: VerificationContext) -> list[str]:
    failures = []
    names = ["petersen", "heawood", "tutte-coxeter", "desargues", "k3,3", "c6"]
    graphs = [ctx.graph(name) for name in names]
    rng = random.Random(30151)
    for _ in range(12):
        n = rng.randrange(6, 13)
        edges = [
            (i, j)
            for i in range(n)
            for j in range(i + 1, n)
            if rng.random() < 0.35
        ]
        graph = graphmod.build_graph(n, edges)
        if graph.connected:
            graphs.append(graph)
            names.append(f"random(n={n})")
    for name, graph in zip(names, graphs):
        for s in range(1, graphmod.diameter(graph) + 1):
            brute = oracles.geodesics_by_filter(graph, s)
            fast = graphmod.enumerate_geodesics(graph, s)
            if sorted(brute) != sorted(fast):
                failures.append(f"{name} s={s}: geodesic lists differ")
            if graphmod.count_geodesics(graph, s) != len(brute):
                failures.append(f"{name} s={s}: geodesic count differs")
    return failures


def _group_order_oracle_failures() -> list[str]:
    failures = []
    cases: list[tuple[str, list[Permutation]]] = [
        ("C5", [Permutation.from_cycles([(0, 1, 2, 3, 4)], 5)]),
        ("S4", [Permutation.from_cycles([(0, 1, 2, 3)], 4), Permutation.from_cycles([(0, 1)], 4)]),
        ("S6", [Permutation.from_cycles([tuple(range(6))], 6), Permutation.from_cycles([(0, 1)], 6)]),
        ("A5", [Permutation.from_cycles([(0, 1, 2)], 5), Permutation.from_cycles([(2, 3, 4)], 5)]),
        ("D12", [Permutation.from_cycles([tuple(range(12))], 12), Permutation(tuple(reversed(range(12))))]),
        ("M11", [
            Permutation.from_cycles([tuple(range(11))], 11),
            Permutation.from_cycles([(2, 6, 10, 7), (3, 9, 4, 5)], 11),
        ]),
    ]
    rng = random.Random(777)
    for idx in range(40):
        n = rng.randrange(2, 9)
        gens = []
        for _ in range(rng.randrange(1, 4)):
            images = list(range(n))
            rng.shuffle(images)
            gens.append(Permutation(tuple(images)))
        cases.append((f"random#{idx}", gens))
    cap = 10**4
    for name, gens in cases:
        brute = oracles.multiplication_closure_order(gens, cap=cap)
        fast = permmod.build_group(gens, degree=gens[0].degree).order()
        if brute is None:
            # the closure gave up, so the order is known only to exceed the cap
            if fast <= cap:
                failures.append(f"{name}: chain order {fast} but closure exceeds {cap}")
        elif fast != brute:
            failures.append(f"{name}: chain order {fast} != closure {brute}")
    return failures


@_claim(11, "central Cayley cover of the complete graph", budget=60.0)
def claim_heisenberg(ctx: VerificationContext) -> list[str]:
    failures: list[str] = []
    example = atlasmod.heisenberg_example(3)
    _check(failures, "vertices", 27, example.graph.n)
    _check(failures, "girth", 3, graphmod.girth(example.graph))
    result = quotientmod.normal_quotient(
        example.graph, example.regular_group, example.center
    )
    _check(failures, "cover", True, result.is_cover)
    _check(failures, "quotient order", 9, result.quotient.n)
    iso = symmod.are_isomorphic(result.quotient, example.expected_quotient)
    _check(failures, "quotient is complete", True, iso is not None)
    return failures


def run_claim(fn, ctx: VerificationContext) -> ClaimResult:
    start = time.perf_counter()
    try:
        failures = fn(ctx)
    except Exception as exc:  # a crash is a failed claim, not a crashed run
        failures = [f"raised {type(exc).__name__}: {exc}"]
    elapsed = time.perf_counter() - start
    detail = "ok" if not failures else "; ".join(failures)
    return ClaimResult(
        criterion=fn._criterion,
        name=fn._name,
        passed=not failures,
        detail=detail,
        elapsed=elapsed,
        budget=fn._budget,
    )


def run_all(stream=None) -> list[ClaimResult]:
    """Run every claim, optionally streaming one ledger line per claim."""
    ctx = VerificationContext()
    results = []
    for fn in ALL_CLAIMS:
        result = run_claim(fn, ctx)
        results.append(result)
        if stream is not None:
            print(result.line(), file=stream, flush=True)
    return results
