"""Inputs, questions and answer checks for the three benchmark workloads.

A workload is built from a seed by ``build(name, seed)``; building it is the
benchmark's set-up.  It returns a ``Workload`` whose ``questions`` are asked
in order, once per pass.  Each question builds fresh ``Graph`` and
``PermGroup`` objects from plain edge and generator lists, so no cache filled
by one pass can serve the next: every pass costs what a user pays for one
answer.  A question returns the list of its wrong answers (empty when every
answer is right) and may raise; the caller counts both as failed.

The library is always reached through module attributes (``symmetry.x``,
never ``from ... import x``) so that the traced run's wrappers see every call.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
from dataclasses import dataclass, field
from typing import Callable

from geodex import atlas, cli, perm, quotient, symmetry
from geodex import graph as graphmod

WORKLOADS = ("paper", "search", "groups")

# Every question kind, in report order, with the workload that asks it.
KINDS = {
    "suite": "paper",
    "aut": "search",
    "iso_yes": "search",
    "iso_no": "search",
    "transitivity": "groups",
    "structure": "groups",
}

CLAIM_COUNT = 11


def _pg2(q):
    return lambda: atlas.pg2_incidence(q)


def _atlas(name):
    return lambda: atlas.atlas_get(name).graph


SOURCES = {
    "foster": _atlas("foster"),
    "biggs-smith": _atlas("biggs-smith"),
    "hexagon-q2": _atlas("hexagon-q2"),
    "tutte-coxeter": _atlas("tutte-coxeter"),
    "heawood": _atlas("heawood"),
    "pg2-4": _pg2(4),
    "pg2-5": _pg2(5),
    "w3": lambda: atlas.symplectic_quadrangle(3),
}

AUT_ORDER = {
    "foster": 4320,
    "biggs-smith": 2448,
    "hexagon-q2": 12096,
    "tutte-coxeter": 1440,
    "heawood": 336,
    "pg2-4": 241920,
    "pg2-5": 744000,
    "w3": 51840,
}

# (arc degree, geodesic degree)
DEGREES = {
    "foster": (5, 8),
    "biggs-smith": (4, 7),
    "tutte-coxeter": (5, 4),
    "heawood": (4, 3),
    "pg2-4": (4, 3),
    "pg2-5": (4, 3),
}

# Aut(Foster) has one minimal normal subgroup, of order 3, whose quotient is
# the Tutte-Coxeter graph (the paper's exception).  Aut(Biggs-Smith) is
# PSL(2,17), simple.  Aut(Tutte-Coxeter) is Aut(S6) with socle A6, which has
# the two bipartition halves as orbits.  hexagon-q2 is not vertex-transitive;
# its group has the single minimal normal subgroup of order 6048.
STRUCTURE = {
    "foster": {
        "minimal_orders": [3],
        "quasiprimitive": False,
        "covers": {3: (10, 8)},
        "reduction": "foster-exception",
    },
    "biggs-smith": {"minimal_orders": [2448], "quasiprimitive": True},
    "tutte-coxeter": {"minimal_orders": [360], "quasiprimitive": False},
    "hexagon-q2": {"minimal_orders": [6048], "quasiprimitive": None},
}

# Graph lists per workload size; for search, graph -> relabelings (aut) or
# pairs of each kind (iso).  W(3) and PG(2,q) iso pairs are left out: one
# W(3) yes pair takes ~13 s and their no pairs 80-230 s.  The cost of a search
# question depends on the labeling (W(3) aut: 0.09-5.5 s), so each graph gets
# many relabelings and every pass asks all of them; the summed pass then
# varies little from seed to seed.  W(3) aut and hexagon-q2 no pairs cost
# 0.45 s and 2.2 s on average, against 0.03-0.4 s for the rest, so they get
# fewer.
SIZES = {
    "full": {
        "aut": {"foster": 12, "biggs-smith": 12, "hexagon-q2": 12, "pg2-4": 12, "pg2-5": 12,
                "w3": 4},
        "iso_pairs": {"foster": 12, "biggs-smith": 12, "hexagon-q2": 2},
        "transitivity": ("foster", "biggs-smith", "tutte-coxeter", "heawood", "pg2-4", "pg2-5"),
        "structure": ("foster", "biggs-smith", "tutte-coxeter", "hexagon-q2"),
    },
    "tiny": {
        "aut": {"heawood": 1, "tutte-coxeter": 1},
        "iso_pairs": {"heawood": 1},
        "transitivity": ("heawood",),
        "structure": ("tutte-coxeter",),
    },
}


@dataclass(frozen=True)
class Question:
    kind: str
    label: str
    ask: Callable[[], list]


@dataclass
class Workload:
    name: str
    questions: list
    # paper only: per-claim elapsed seconds of every suite run, by criterion
    claim_times: dict = field(default_factory=dict)


class SetupError(Exception):
    """The generated inputs do not have the certified properties."""


def build(name: str, seed: int, size: str = "full") -> Workload:
    """Generate a workload's inputs from ``seed``."""
    builders = {"paper": _build_paper, "search": _build_search, "groups": _build_groups}
    return builders[name](random.Random(seed), SIZES[size])


def _check(failures: list, label: str, want, got) -> None:
    if want != got:
        failures.append(f"{label}: expected {want!r}, got {got!r}")


# ---------------------------------------------------------------------------
# paper: the north-star command, run in-process
# ---------------------------------------------------------------------------

def _build_paper(rng, size) -> Workload:
    # The suite fixes its own seeds and builds its own graphs.  Set-up builds
    # and validates the atlas catalog the suite reads from.
    for name in atlas.atlas_list():
        atlas.atlas_get(name)
    workload = Workload("paper", [])
    workload.questions.append(Question("suite", "verify paper", lambda: _ask_suite(workload)))
    return workload


def _ask_suite(workload: Workload) -> list:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(["verify", "paper", "--format", "json"])
    report = json.loads(out.getvalue())
    failures: list = []
    _check(failures, "exit code", 0, code)
    _check(failures, "ok", True, report["ok"])
    claims = report["claims"]
    _check(failures, "claims", CLAIM_COUNT, len(claims))
    for claim in claims:
        if not claim["ok"]:
            failures.append(f"claim {claim['criterion']}: {claim['detail']}")
        workload.claim_times.setdefault(claim["criterion"], []).append(claim["elapsed"])
    return failures


# ---------------------------------------------------------------------------
# search: automorphism groups and isomorphism on seeded relabelings
# ---------------------------------------------------------------------------

def relabeling(n: int, rng) -> list:
    """A seeded random permutation of range(n), as an image list."""
    images = list(range(n))
    rng.shuffle(images)
    return images


def relabel(n: int, edges, rng) -> list:
    images = relabeling(n, rng)
    return [(images[u], images[v]) for u, v in edges]


def one_edge_swap(graph, rng) -> list:
    """Edges of ``graph`` with edges {a,b}, {c,d} replaced by {a,c}, {b,d}.

    The swap keeps every degree, so degree refinement cannot tell the result
    from the original.
    """
    edges = graph.edges()
    while True:
        (a, b), (c, d) = rng.sample(edges, 2)
        if rng.random() < 0.5:
            c, d = d, c
        if len({a, b, c, d}) == 4 and not graph.has_edge(a, c) and not graph.has_edge(b, d):
            removed = {frozenset((a, b)), frozenset((c, d))}
            return [e for e in edges if frozenset(e) not in removed] + [(a, c), (b, d)]


def distance_profile(graph) -> list:
    """Sorted per-vertex distance distributions: an isomorphism invariant
    computed by BFS alone, without the automorphism search."""
    return sorted(
        tuple(sorted(graphmod.distances(graph, u))) for u in range(graph.n)
    )


def _certify_distinct(original, swapped) -> None:
    # Both invariants are always computed, so set-up does the same work
    # whichever of them tells the graphs apart.
    if not swapped.connected:
        raise SetupError("one-edge swap disconnected the graph")
    girths = graphmod.girth(original), graphmod.girth(swapped)
    profiles = distance_profile(original), distance_profile(swapped)
    if girths[0] == girths[1] and profiles[0] == profiles[1]:
        raise SetupError("swap keeps girth and distance profile; non-isomorphism not certified")


def _build_search(rng, size) -> Workload:
    questions = []
    bases = {name: SOURCES[name]() for name in dict.fromkeys([*size["aut"], *size["iso_pairs"]])}
    for name, relabelings in size["aut"].items():
        base = bases[name]
        for _ in range(relabelings):
            edges = relabel(base.n, base.edges(), rng)
            questions.append(Question("aut", name, _aut_question(base.n, edges, AUT_ORDER[name])))
    for name, pairs in size["iso_pairs"].items():
        base = bases[name]
        for _ in range(pairs):
            edges = relabel(base.n, base.edges(), rng)
            questions.append(Question("iso_yes", name, _iso_question(base, edges, True)))
            swapped = one_edge_swap(base, rng)
            _certify_distinct(base, graphmod.build_graph(base.n, swapped))
            edges = relabel(base.n, swapped, rng)
            questions.append(Question("iso_no", name, _iso_question(base, edges, False)))
    return Workload("search", questions)


def _aut_question(n, edges, order):
    def ask():
        group = symmetry.automorphism_group(graphmod.build_graph(n, edges))
        failures: list = []
        _check(failures, "|Aut|", order, group.order())
        return failures

    return ask


def _iso_question(base, edges, isomorphic: bool):
    n, base_edges = base.n, base.edges()

    def ask():
        g1 = graphmod.build_graph(n, base_edges)
        g2 = graphmod.build_graph(n, edges)
        found = symmetry.are_isomorphic(g1, g2)
        if not isomorphic:
            return [] if found is None else ["non-isomorphic pair reported isomorphic"]
        if found is None:
            return ["isomorphic pair reported non-isomorphic"]
        if sorted(found) != list(range(n)):
            return ["returned map is not a bijection"]
        targets = g2.neighbor_sets()
        if any(found[v] not in targets[found[u]] for u, v in base_edges):
            return ["returned map does not preserve every edge"]
        return []

    return ask


# ---------------------------------------------------------------------------
# groups: questions on a given group, as with a --group file
# ---------------------------------------------------------------------------

def _build_groups(rng, size) -> Workload:
    # The search runs on the catalog labels, so set-up cost does not depend on
    # the seed; the seed relabels each graph and conjugates its generators.
    inputs = {}
    for name in dict.fromkeys(size["transitivity"] + size["structure"]):
        base = SOURCES[name]()
        group = symmetry.automorphism_group(base)
        if group.order() != AUT_ORDER[name]:
            raise SetupError(f"{name}: |Aut| {group.order()} != {AUT_ORDER[name]}")
        images = relabeling(base.n, rng)
        edges = [(images[u], images[v]) for u, v in base.edges()]
        generators = [_conjugate(g.images, images) for g in group.generators]
        inputs[name] = (base.n, edges, generators)
    questions = [
        Question("transitivity", name, _transitivity_question(*inputs[name], DEGREES[name]))
        for name in size["transitivity"]
    ]
    questions += [
        Question("structure", name, _structure_question(*inputs[name], STRUCTURE[name]))
        for name in size["structure"]
    ]
    return Workload("groups", questions)


def _conjugate(perm_images, images) -> tuple:
    """The permutation x -> perm(x) written in the relabeled points."""
    out = [0] * len(images)
    for x, y in enumerate(perm_images):
        out[images[x]] = images[y]
    return tuple(out)


def _transitivity_question(n, edges, generators, degrees):
    def ask():
        graph = graphmod.build_graph(n, edges)
        group = perm.build_group(generators, degree=n)
        report = symmetry.transitivity_degrees(graph, group)
        weiss = symmetry.weiss_divisibility_check(graph, group, report.arc_degree)
        failures: list = []
        _check(failures, "(arc, geodesic) degree", degrees,
               (report.arc_degree, report.geodesic_degree))
        _check(failures, "Weiss divides", True, weiss.divides)
        _check(failures, "Weiss matched", True, weiss.matched)
        return failures

    return ask


def _structure_question(n, edges, generators, expected):
    def ask():
        graph = graphmod.build_graph(n, edges)
        group = perm.build_group(generators, degree=n)
        failures: list = []
        minimals, _ = perm.normal_structure(group)
        _check(failures, "minimal normal orders", expected["minimal_orders"],
               sorted(m.order() for m in minimals))
        transitive = group.is_transitive()
        _check(failures, "vertex-transitive", expected["quasiprimitive"] is not None, transitive)
        if transitive:
            action = symmetry.bi_analysis(graph, group)
            _check(failures, "quasiprimitive", expected["quasiprimitive"], action.quasiprimitive)
        covers = expected.get("covers", {})
        for normal in minimals:
            if len(perm.orbits(normal)) < 3:
                continue
            result = quotient.normal_quotient(graph, group, normal)
            label = f"N of order {normal.order()}"
            _check(failures, f"{label}: cover, girth pair",
                   (True, covers.get(normal.order())), (result.is_cover, result.girth_pair))
            cover_girth = result.girth_pair[0]
            if result.is_cover and cover_girth is not None:
                # the level the CLI derives from the cover girth
                s = (cover_girth + 2) // 2 if cover_girth % 2 == 0 else (cover_girth + 1) // 2
                bound = quotient.girth_bound_check(graph, result, s)
                _check(failures, f"{label}: girth window", "holds", bound.verdict)
            if "reduction" in expected:
                verdict = quotient.verify_reduction(graph, group, normal, 6)
                _check(failures, f"{label}: reduction", expected["reduction"], verdict.case)
        return failures

    return ask
