"""Command-line front end.

Subcommands: atlas, analyze, aut, transitivity, quotient, verify.  Exit code
0 on success, 1 on failed verification, toolkit errors or a reader that
closed stdout early, 2 on usage errors (argparse's convention).
``--format json`` switches every report, including errors, to
machine-readable JSON.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import atlas as atlasmod
from . import graph as graphmod
from . import perm as permmod
from . import quotient as quotientmod
from . import symmetry as symmod
from . import verify as verifymod
from .errors import BadInputFile, BadOption, GeodexError, MixedDegree, NotAutomorphisms
from .graph import Graph
from .perm import PermGroup


def _read_file(path: str) -> str:
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise BadInputFile(f"cannot read {path}: {exc}") from exc


def _malformed(path: str, exc: Exception) -> BadInputFile:
    detail = f"missing field {exc}" if isinstance(exc, KeyError) else str(exc)
    return BadInputFile(f"{path}: {detail}")


def _load_graph_file(path: str, searched: bool = False) -> Graph:
    """The graph a file describes.  When ``searched`` (the command will run
    the automorphism search), a JSON file's integer ``n``, an LCF spec's
    vertex count or a sparse6 header's n above the search cap raises
    GraphTooLarge before any vertex is built, so a huge ``n`` allocates
    nothing.  (A graph6 payload is as long as its n demands, so its size
    bounds the build.)"""
    stripped = _read_file(path).strip()
    try:
        if stripped.startswith("{"):
            data = json.loads(stripped)
            n = data.get("n") if isinstance(data, dict) else None
            if searched and type(n) is int:
                symmod._check_search_cap(n)
            return graphmod.graph_from_json(data)
        if stripped.startswith("["):
            offsets, repeat = graphmod.lcf_parse(stripped)
            if searched:
                symmod._check_search_cap(len(offsets) * repeat)
            return graphmod.lcf_decode(offsets, repeat)
        line = (stripped.splitlines() or [""])[0]
        sparse6 = graphmod._strip_header(line, "sparse6")
        if searched and sparse6.startswith(":"):
            symmod._check_search_cap(graphmod._g6_decode_n(sparse6[1:])[0])
        return graphmod.decode(line)
    except (KeyError, TypeError, ValueError, RecursionError) as exc:
        raise _malformed(path, exc) from exc


def _resolve_graph(args, searched: bool = False) -> tuple[str, Graph]:
    if getattr(args, "atlas", None):
        record = atlasmod.atlas_get(args.atlas)
        return record.name, record.graph
    return args.graph, _load_graph_file(args.graph, searched)


def _load_group_file(path: str, n: int, mismatch=NotAutomorphisms) -> PermGroup:
    """The group a JSON file describes.  A file whose integer ``degree``
    differs from ``n`` raises ``mismatch`` before any permutation is built, so
    a huge ``degree`` allocates nothing."""
    text = _read_file(path)
    try:
        data = json.loads(text)
        degree = data.get("degree") if isinstance(data, dict) else None
        if type(degree) is int and degree != n:
            raise mismatch(f"group degree {degree} does not match {n} vertices")
        return permmod.group_from_json(data)
    except (KeyError, TypeError, ValueError, RecursionError) as exc:
        raise _malformed(path, exc) from exc


def _resolve_group(args, graph: Graph) -> PermGroup:
    if getattr(args, "group", None):
        group = _load_group_file(args.group, graph.n)
        symmod.validate_automorphisms(graph, group)
        return group
    return symmod.automorphism_group(graph)


def _emit(args, payload: dict, text_lines) -> None:
    if args.format == "json":
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        for line in text_lines:
            print(line)


def _analyze_payload(name: str, graph: Graph) -> dict:
    payload: dict = {
        "name": name,
        "n": graph.n,
        "m": graph.m,
        "connected": graph.connected,
        "regular": graph.is_regular(),
        "degrees": sorted(set(graph.degrees())),
    }
    shape = graphmod.classify_shape(graph)
    payload["bipartite"] = shape.bipartite
    payload["complete_multipartite"] = shape.complete_multipartite
    # the array first: the girth of a distance-regular graph is read off it
    arrayed = graph.connected and graph.is_regular()
    if arrayed:
        array = graphmod.intersection_array(graph)
    if graph.connected:
        payload["diameter"] = graphmod.diameter(graph)
    payload["girth"] = graphmod.girth(graph)
    if arrayed:
        payload["intersection_array"] = str(array) if array else None
    return payload


def cmd_atlas(args) -> int:
    if args.action == "list":
        names = atlasmod.atlas_list()
        _emit(args, {"catalog": names}, names)
        return 0
    record = atlasmod.atlas_get(args.name)
    if args.format == "graph6":
        print(graphmod.graph6_encode(record.graph))
        return 0
    payload = record.to_json()
    lines = [
        f"{record.name}: {record.graph.n} vertices, {record.graph.m} edges",
        f"source: {record.source}",
    ]
    if record.aliases:
        lines.append("aliases: " + ", ".join(record.aliases))
    if record.notes:
        lines.append(f"notes: {record.notes}")
    for key, value in record.expected.to_json().items():
        if value is not None:
            lines.append(f"expected {key}: {value}")
    _emit(args, payload, lines)
    return 0


def cmd_analyze(args) -> int:
    name, graph = _resolve_graph(args)
    payload = _analyze_payload(name, graph)
    lines = [f"{key}: {value}" for key, value in payload.items()]
    _emit(args, payload, lines)
    return 0


def cmd_aut(args) -> int:
    name, graph = _resolve_graph(args, searched=True)
    group = symmod.automorphism_group(graph)
    payload = {
        "name": name,
        "order": group.order(),
        "degree": group.degree,
        "base": list(group.base()),
        "basic_orbit_sizes": list(group.basic_orbit_sizes()),
        "generators": [g.cycle_string() for g in group.generators],
    }
    lines = [
        f"automorphism group of {name}: order {group.order()}",
        f"base: {payload['base']}",
        f"basic orbit sizes: {payload['basic_orbit_sizes']}",
        "generators:",
    ] + [f"  {s}" for s in payload["generators"]]
    _emit(args, payload, lines)
    return 0


def cmd_transitivity(args) -> int:
    name, graph = _resolve_graph(args, searched=not args.group)
    group = _resolve_group(args, graph)
    report = symmod.transitivity_degrees(graph, group)
    action = symmod.bi_analysis(graph, group)
    payload = {"name": name, "group_order": group.order()}
    payload.update(report.to_json())
    payload.update(action.to_json())
    lines = [
        f"{name} under a group of order {group.order()}:",
        f"  arc degree: {report.arc_degree}"
        + (" (valency-2 cap)" if report.arc_degree_capped else ""),
        f"  geodesic degree: {report.geodesic_degree}"
        + (" = diameter (geodesic transitive)" if report.geodesic_transitive else ""),
        f"  b_s shortcut used: {report.b_s_shortcut_used}"
        + (f" at level {report.shortcut_level}" if report.b_s_shortcut_used else ""),
        f"  primitive: {action.primitive}, quasiprimitive: {action.quasiprimitive}",
    ]
    if action.bipartite_setting is not None:
        bip = action.bipartite_setting
        lines.append(
            f"  bipartite: |G+| = {bip.g_plus.order()}, biprimitive: {bip.biprimitive},"
            f" biquasiprimitive: {bip.biquasiprimitive}"
        )
    if action.socle_tag is not None:
        lines.append(f"  socle tag: {action.socle_tag}")
    _emit(args, payload, lines)
    return 0


def _auto_index(spec: str) -> int:
    """k of ``auto[:k]``; a bare ``auto`` (or ``auto:``) means 0.

    normal_structure lists at most ENUMERATION_CAP elements, so a k with more
    digits than the cap is past every candidate list: it is refused on its
    digit string, before int() (which raises ValueError past 4300 digits).
    """
    text = spec.partition(":")[2] or "0"
    if not text.isdecimal():
        raise BadOption(f"--normal {spec}: k must be a non-negative integer")
    digits = text.lstrip("0") or "0"
    if len(digits) > len(str(permmod.ENUMERATION_CAP)):
        raise BadOption(
            f"--normal auto:k: a k of {len(digits)} digits is past every candidate"
            f" list (at most {permmod.ENUMERATION_CAP} elements are listed)"
        )
    return int(digits)


def cmd_quotient(args) -> int:
    name, graph = _resolve_graph(args, searched=not args.group)
    group = _resolve_group(args, graph)
    if args.normal == "auto" or args.normal.startswith("auto:"):
        index = _auto_index(args.normal)
        minimals, _ = permmod.normal_structure(group)
        candidates = [m for m in minimals if len(permmod.orbits(m)) >= 3]
        if not candidates:
            raise GeodexError("no minimal normal subgroup with at least 3 orbits")
        if index >= len(candidates):
            raise BadOption(
                f"--normal {args.normal}: only {len(candidates)} minimal normal"
                " subgroup(s) with at least 3 orbits (k counts from 0)"
            )
        normal = candidates[index]
    else:
        normal = _load_group_file(args.normal, graph.n, MixedDegree)
    result = quotientmod.normal_quotient(graph, group, normal)
    payload = result.to_json()
    payload["name"] = name
    lines = [
        f"quotient of {name} by a normal subgroup of order {normal.order()}:",
        f"  orbits: {result.orbit_count}, cover: {result.is_cover}",
        f"  girth pair: {result.girth_pair}",
        f"  induced group order: {result.induced.order()}, kernel order: {result.kernel_order}",
    ]
    s = args.s
    if s is None:
        g = result.girth_pair[0]
        if g is not None:
            s = quotientmod.girth_window_level(g)
    if s is not None and result.is_cover:
        bound = quotientmod.girth_bound_check(graph, result, s)
        payload["girth_bound_check"] = bound.to_json()
        lines.append(
            f"  girth window (s={s}): {bound.lower} <= {bound.quotient_girth}"
            f" <= {bound.cover_girth} -> {bound.verdict}"
        )
    _emit(args, payload, lines)
    return 0


def cmd_verify(args) -> int:
    stream = sys.stdout if args.format != "json" else None
    results = verifymod.run_all(stream=stream)
    ok = all(r.ok for r in results)
    if args.format == "json":
        print(json.dumps({"ok": ok, "claims": [r.to_json() for r in results]}, indent=2))
    else:
        print(f"{sum(r.ok for r in results)}/{len(results)} claims verified")
    return 0 if ok else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="geodex",
        description="transitivity, primitivity and normal-quotient analysis "
        "for finite graphs with explicit permutation groups",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=("text", "json"), default="text", help="output format")
    sub = parser.add_subparsers(dest="command", required=True)

    p_atlas = sub.add_parser("atlas", help="named graph catalog")
    atlas_sub = p_atlas.add_subparsers(dest="action", required=True)
    atlas_sub.add_parser("list", help="list catalog names", parents=[common])
    p_get = atlas_sub.add_parser("get", help="fetch a record")
    p_get.add_argument(
        "--format", choices=("text", "json", "graph6"), default="text", help="output format"
    )
    p_get.add_argument("name")

    def graph_source(p):
        src = p.add_mutually_exclusive_group(required=True)
        src.add_argument("--atlas", help="catalog name")
        src.add_argument("--graph", help="edge-list JSON, LCF spec, or graph6 file")

    p_analyze = sub.add_parser("analyze", help="girth/diameter/array report", parents=[common])
    graph_source(p_analyze)

    p_aut = sub.add_parser("aut", help="automorphism group", parents=[common])
    graph_source(p_aut)

    p_trans = sub.add_parser(
        "transitivity", help="transitivity and primitivity report", parents=[common]
    )
    graph_source(p_trans)
    p_trans.add_argument("--group", help="group JSON file (default: full automorphism group)")

    p_quot = sub.add_parser(
        "quotient", help="normal quotient and girth window", parents=[common]
    )
    graph_source(p_quot)
    p_quot.add_argument("--group", help="group JSON file (default: full automorphism group)")
    p_quot.add_argument(
        "--normal", required=True,
        help="normal subgroup JSON file, or auto[:k] for the k-th minimal normal subgroup",
    )
    p_quot.add_argument("--s", type=int, help="geodesic level (default from the girth)")

    p_verify = sub.add_parser(
        "verify", help="run the claim-verification suite", parents=[common]
    )
    p_verify.add_argument("target", choices=("paper",))
    return parser


_HANDLERS = {
    "atlas": cmd_atlas,
    "analyze": cmd_analyze,
    "aut": cmd_aut,
    "transitivity": cmd_transitivity,
    "quotient": cmd_quotient,
    "verify": cmd_verify,
}


def _run(args) -> int:
    try:
        return _HANDLERS[args.command](args)
    except GeodexError as exc:
        if getattr(args, "format", "text") == "json":
            print(json.dumps({"error": type(exc).__name__, "message": str(exc)}))
        else:
            print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _run(args)
    except BrokenPipeError:
        # the reader closed stdout early: exit quietly, with stdout pointed at
        # devnull so that the flush at interpreter exit cannot raise again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1


if __name__ == "__main__":
    sys.exit(main())
