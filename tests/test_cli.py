from __future__ import annotations

import contextlib
import io
import json
import os
import subprocess
import sys
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import geodex
from geodex import cli, symmetry
from geodex import graph as G


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_atlas_list(capsys):
    code, out, _ = run(capsys, "atlas", "list")
    assert code == 0
    assert "foster" in out and "biggs-smith" in out


def test_atlas_get_text(capsys):
    code, out, _ = run(capsys, "atlas", "get", "foster")
    assert code == 0
    assert "90 vertices" in out
    assert "LCF" in out


def test_atlas_get_graph6_round_trip(capsys, petersen):
    code, out, _ = run(capsys, "atlas", "get", "petersen", "--format", "graph6")
    assert code == 0
    assert G.graph6_decode(out.strip()).adjacency == petersen.adjacency


@pytest.mark.parametrize(
    "argv",
    [
        ("atlas", "list"),
        ("analyze", "--atlas", "petersen"),
        ("aut", "--atlas", "petersen"),
        ("transitivity", "--atlas", "petersen"),
        ("quotient", "--atlas", "foster", "--normal", "auto"),
        ("verify", "paper"),
    ],
)
def test_graph6_only_for_atlas_get(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        cli.main([*argv, "--format", "graph6"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "--format" in err and "graph6" in err


def test_analyze_foster_row(capsys):
    code, out, _ = run(capsys, "analyze", "--atlas", "foster", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["girth"] == 10
    assert payload["diameter"] == 8
    assert payload["intersection_array"] == "{3,2,2,2,2,1,1,1;1,1,1,1,2,2,2,3}"


def test_analyze_graph_file(capsys, tmp_path, petersen):
    path = tmp_path / "petersen.json"
    path.write_text(json.dumps(petersen.to_json()))
    code, out, _ = run(capsys, "analyze", "--graph", str(path), "--format", "json")
    assert code == 0
    assert json.loads(out)["girth"] == 5


def test_analyze_lcf_file(capsys, tmp_path):
    path = tmp_path / "heawood.lcf"
    path.write_text("[5,-5]^7")
    code, out, _ = run(capsys, "analyze", "--graph", str(path), "--format", "json")
    assert code == 0
    assert json.loads(out)["girth"] == 6


def test_analyze_graph6_file(capsys, tmp_path, petersen):
    path = tmp_path / "petersen.g6"
    path.write_text(G.graph6_encode(petersen) + "\n")
    code, out, _ = run(capsys, "analyze", "--graph", str(path), "--format", "json")
    assert code == 0
    assert json.loads(out)["girth"] == 5


@pytest.mark.parametrize(
    "edges,girth",
    [
        ([[0, 1], [1, 2], [2, 0]], 3),  # a triangle and an isolated vertex
        ([[0, 1], [2, 3]], None),  # a forest of two edges
    ],
)
def test_analyze_girth_of_disconnected_graph(capsys, tmp_path, edges, girth):
    path = tmp_path / "disconnected.json"
    path.write_text(json.dumps({"n": 4, "edges": edges}))
    code, out, _ = run(capsys, "analyze", "--graph", str(path), "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["connected"] is False
    assert payload["girth"] == girth
    assert "diameter" not in payload and "intersection_array" not in payload


def test_aut_json(capsys):
    code, out, _ = run(capsys, "aut", "--atlas", "petersen", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["order"] == 120


def test_transitivity_report(capsys):
    code, out, _ = run(capsys, "transitivity", "--atlas", "petersen", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["arc_degree"] == 3
    assert payload["geodesic_degree"] == 2
    assert payload["primitive"] is True
    assert payload["socle_tag"] == "simple"


def test_transitivity_with_group_file(capsys, tmp_path, c6):
    from geodex.symmetry import automorphism_group

    group = automorphism_group(c6)
    gpath = tmp_path / "dihedral.json"
    gpath.write_text(json.dumps(group.to_json()))
    path = tmp_path / "c6.json"
    path.write_text(json.dumps(c6.to_json()))
    code, out, _ = run(
        capsys, "transitivity", "--graph", str(path), "--group", str(gpath),
        "--format", "json",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["geodesic_degree"] == 3
    assert payload["biprimitive"] is True


def test_quotient_auto(capsys):
    code, out, _ = run(
        capsys, "quotient", "--atlas", "foster", "--normal", "auto", "--format", "json"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["orbit_count"] == 30
    assert payload["is_cover"] is True
    assert payload["girth_pair"] == [10, 8]
    assert payload["girth_bound_check"]["verdict"] == "holds"


def test_quotient_normal_file(capsys, tmp_path, foster_n):
    npath = tmp_path / "n.json"
    npath.write_text(json.dumps(foster_n.to_json()))
    code, out, _ = run(
        capsys, "quotient", "--atlas", "foster", "--normal", str(npath),
        "--format", "json",
    )
    assert code == 0
    assert json.loads(out)["kernel_order"] == 3


def test_unknown_atlas_name_text(capsys):
    code, out, err = run(capsys, "atlas", "get", "nonesuch")
    assert code == 1
    assert "UnknownName" in err


def test_unknown_atlas_name_json(capsys):
    # a superscript digit passes str.isdigit but not int(): still an unknown name
    for name in ("nonesuch", "c\u00b2", "k\u00b2,\u00b2"):
        code, out, err = run(capsys, "atlas", "get", name, "--format", "json")
        assert code == 1 and err == "", name
        payload = json.loads(out)
        assert payload["error"] == "UnknownName", name


def test_huge_family_parameter_json(capsys):
    # 5000 digits: past int()'s conversion limit, refused on the digit string
    code, out, err = run(capsys, "atlas", "get", "c" + "1" * 5000, "--format", "json")
    assert code == 1 and err == ""
    assert json.loads(out)["error"] == "GraphTooLarge"


def test_usage_error_exit_code(capsys):
    with pytest.raises(SystemExit) as err:
        cli.main(["analyze"])  # missing graph source
    assert err.value.code == 2


def test_deterministic_output(capsys):
    _, first, _ = run(capsys, "transitivity", "--atlas", "heawood", "--format", "json")
    _, second, _ = run(capsys, "transitivity", "--atlas", "heawood", "--format", "json")
    assert first == second


_HUGE_AUTO = "auto:" + "1" * 5000  # past int()'s 4300-digit limit


@pytest.mark.parametrize(
    "spec", ["auto:x", "auto:-1", "auto:1.0", pytest.param(_HUGE_AUTO, id="auto:5000-digits")]
)
def test_quotient_auto_index_malformed(capsys, spec):
    code, out, err = run(
        capsys, "quotient", "--atlas", "foster", "--normal", spec, "--format", "json"
    )
    assert code == 1 and err == ""
    assert json.loads(out)["error"] == "BadOption"


def test_quotient_auto_index_out_of_range(capsys):
    # foster has exactly one minimal normal subgroup with at least 3 orbits
    code, out, _ = run(
        capsys, "quotient", "--atlas", "foster", "--normal", "auto:5", "--format", "json"
    )
    assert code == 1
    payload = json.loads(out)
    assert payload["error"] == "BadOption"
    assert "only 1" in payload["message"]


def test_quotient_s_past_vertex_count(capsys):
    # Foster has 90 vertices: no girth window exists at s = 91, and the check
    # refuses it before building an arc of that length
    code, out, err = run(
        capsys, "quotient", "--atlas", "foster", "--normal", "auto", "--s", "91",
        "--format", "json",
    )
    assert code == 1 and err == ""
    payload = json.loads(out)
    assert payload["error"] == "PreconditionUnverified"
    assert "s <= n" in payload["message"]


def test_missing_graph_file(capsys, tmp_path):
    path = tmp_path / "absent.json"
    code, out, _ = run(capsys, "analyze", "--graph", str(path), "--format", "json")
    assert code == 1
    assert json.loads(out)["error"] == "BadInputFile"


def test_edge_list_without_edges(capsys, tmp_path):
    path = tmp_path / "no-edges.json"
    path.write_text(json.dumps({"n": 3}))
    code, out, _ = run(capsys, "analyze", "--graph", str(path), "--format", "json")
    assert code == 1
    payload = json.loads(out)
    assert payload["error"] == "BadInputFile"
    assert "edges" in payload["message"]
    code, out, err = run(capsys, "analyze", "--graph", str(path))
    assert code == 1
    assert out == ""
    assert "BadInputFile" in err


@pytest.mark.parametrize(
    "text",
    ['{"n": 3, "edges": [[false, true], [true, 2]]}', '{"n": true, "edges": []}'],
    ids=["endpoints", "n"],
)
def test_boolean_vertices_are_refused(capsys, tmp_path, text):
    # Python reads JSON's false and true as 0 and 1: without the check the
    # first file is the path 0-1-2, whose |Aut| is 2
    path = tmp_path / "booleans.json"
    path.write_text(text)
    code, out, err = run(capsys, "aut", "--graph", str(path), "--format", "json")
    assert code == 1 and err == ""
    assert json.loads(out)["error"] == "BadInputFile"


@pytest.mark.parametrize("option", ["--group", "--normal"])
@pytest.mark.parametrize(
    "payload",
    [
        {"degree": 10, "generators": [[True, False, 2, 3, 4, 5, 6, 7, 8, 9]]},
        {"degree": True, "generators": []},
    ],
    ids=["images", "degree"],
)
def test_boolean_group_entries_are_refused(capsys, tmp_path, option, payload):
    # without the check the images are the swap (0 1), and the degree is 1,
    # which a type(degree) is int pre-check lets through
    path = tmp_path / "booleans.json"
    path.write_text(json.dumps(payload))
    command = "transitivity" if option == "--group" else "quotient"
    code, out, err = run(
        capsys, command, "--atlas", "petersen", option, str(path), "--format", "json"
    )
    assert code == 1 and err == ""
    assert json.loads(out)["error"] == "BadInputFile"


def test_missing_group_file(capsys, tmp_path):
    path = tmp_path / "absent.json"
    code, out, _ = run(
        capsys, "transitivity", "--atlas", "petersen", "--group", str(path),
        "--format", "json",
    )
    assert code == 1
    assert json.loads(out)["error"] == "BadInputFile"


def test_group_file_without_degree(capsys, tmp_path):
    path = tmp_path / "no-degree.json"
    path.write_text(json.dumps({"generators": []}))
    code, out, _ = run(
        capsys, "transitivity", "--atlas", "petersen", "--group", str(path),
        "--format", "json",
    )
    assert code == 1
    assert json.loads(out)["error"] == "BadInputFile"


def test_huge_group_degree_is_refused_before_building(capsys, tmp_path):
    # a degree of 10^9 would otherwise build identities of 10^9 points
    path = tmp_path / "huge.json"
    path.write_text(json.dumps({"degree": 10**9, "generators": ["(0 1)"]}))
    run(capsys, "atlas", "get", "petersen")  # load the catalog before measuring
    tracemalloc.start()
    try:
        code, out, err = run(
            capsys, "transitivity", "--atlas", "petersen", "--group", str(path),
            "--format", "json",
        )
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code == 1 and err == ""
    assert json.loads(out) == {
        "error": "NotAutomorphisms",
        "message": "group degree 1000000000 does not match 10 vertices",
    }
    assert peak < 2**20


def test_huge_normal_degree_is_refused_before_building(capsys, tmp_path):
    # the --normal file gets the same check as --group, with the error that
    # a normal subgroup of another degree has always raised
    path = tmp_path / "huge.json"
    path.write_text(json.dumps({"degree": 10**9, "generators": ["(0 1)"]}))
    run(capsys, "atlas", "get", "petersen")  # load the catalog before measuring
    tracemalloc.start()
    try:
        code, out, err = run(
            capsys, "quotient", "--atlas", "petersen", "--normal", str(path),
            "--format", "json",
        )
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code == 1 and err == ""
    assert json.loads(out) == {
        "error": "MixedDegree",
        "message": "group degree 1000000000 does not match 10 vertices",
    }
    assert peak < 2**20


@pytest.mark.parametrize(
    "spec, n",
    [
        (json.dumps({"n": 300000, "edges": []}), 300000),
        ("[5,-5]^150000", 300000),
        (":~~??@HN_", 300000),  # a 6-byte sparse6 vertex count and no edges
    ],
    ids=["json", "lcf", "sparse6"],
)
@pytest.mark.parametrize(
    "command",
    [["aut"], ["transitivity"], ["quotient", "--normal", "auto"]],
    ids=["aut", "transitivity", "quotient"],
)
def test_huge_graph_file_is_refused_before_building(capsys, tmp_path, spec, n, command):
    # a command that runs the automorphism search reads the vertex count
    # first, so 300,000 vertices fail at once instead of after building them
    path = tmp_path / "huge.txt"
    path.write_text(spec)
    tracemalloc.start()
    try:
        code, out, err = run(capsys, *command, "--graph", str(path), "--format", "json")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code == 1 and err == ""
    assert json.loads(out) == {
        "error": "GraphTooLarge",
        "message": f"{n} vertices exceeds the search cap 512",
    }
    assert peak < 2**20


def test_graph_file_is_not_capped_without_a_search(capsys, tmp_path, monkeypatch):
    # analyze and a --group question run no search, so the cap does not apply
    monkeypatch.setattr(symmetry, "AUTOMORPHISM_VERTEX_CAP", 5)
    graph = tmp_path / "c6.json"
    graph.write_text(json.dumps({"n": 6, "edges": [[i, (i + 1) % 6] for i in range(6)]}))
    group = tmp_path / "rotation.json"
    group.write_text(json.dumps({"degree": 6, "generators": ["(0 1 2 3 4 5)"]}))
    code, out, _ = run(capsys, "analyze", "--graph", str(graph), "--format", "json")
    assert code == 0 and json.loads(out)["n"] == 6
    code, out, _ = run(
        capsys, "transitivity", "--graph", str(graph), "--group", str(group), "--format", "json"
    )
    assert code == 0 and json.loads(out)["group_order"] == 6
    code, out, _ = run(capsys, "aut", "--graph", str(graph), "--format", "json")
    assert code == 1 and json.loads(out)["error"] == "GraphTooLarge"


def test_analyze_past_the_distance_table_cap(capsys, tmp_path):
    # a 20,000-vertex path: the all-pairs table would take gigabytes, so it
    # is refused before any row is built; its girth alone is linear
    n = 20000
    path = tmp_path / "p20000.json"
    path.write_text(json.dumps({"n": n, "edges": [[i, i + 1] for i in range(n - 1)]}))
    code, out, err = run(capsys, "analyze", "--graph", str(path), "--format", "json")
    assert code == 1 and err == ""
    assert json.loads(out) == {
        "error": "GraphTooLarge",
        "message": f"{n} vertices exceeds the distance-table cap {G.DISTANCE_TABLE_VERTEX_CAP}",
    }
    # a forest of paths is disconnected: no table, and no girth
    path.write_text(json.dumps({"n": n, "edges": [[i, i + 1] for i in range(n - 1) if i % 1000 != 999]}))
    code, out, _ = run(capsys, "analyze", "--graph", str(path), "--format", "json")
    assert code == 0 and json.loads(out)["girth"] is None


def test_atlas_get_with_empty_data_dir(tmp_path):
    # a fresh process, so an escaping exception would print a traceback
    src = os.path.dirname(os.path.dirname(os.path.abspath(geodex.__file__)))
    env = dict(os.environ, PYTHONPATH=src, GEODEX_DATA_DIR=str(tmp_path))
    proc = subprocess.run(
        [sys.executable, "-m", "geodex.cli", "atlas", "get", "biggs-smith", "--format", "json"],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert proc.returncode == 1
    assert proc.stderr == ""
    (line,) = proc.stdout.splitlines()
    payload = json.loads(line)
    assert payload["error"] == "BadInputFile"
    assert str(tmp_path / "biggs_smith.json") in payload["message"]


def test_closed_pipe_exits_quietly():
    # 145 kB of JSON overflows the pipe buffer, so the writer is still
    # printing when the reader closes after one line
    src = os.path.dirname(os.path.dirname(os.path.abspath(geodex.__file__)))
    with subprocess.Popen(
        [sys.executable, "-m", "geodex.cli", "atlas", "get", "k60,60", "--format", "json"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        env=dict(os.environ, PYTHONPATH=src),
    ) as proc:
        assert proc.stdout.readline() == "{\n"
        proc.stdout.close()
        assert proc.wait(timeout=60) == 1
        assert proc.stderr.read() == ""


@pytest.mark.parametrize(
    "content",
    [
        "{", "[1, 2]", json.dumps({"n": 3}), json.dumps({"edges": []}),
        pytest.param("[" * 100_000 + "]" * 100_000, id="deeply nested"),
    ],
)
def test_atlas_get_with_bad_data_file(capsys, tmp_path, monkeypatch, content):
    path = tmp_path / "biggs_smith.json"
    path.write_text(content)
    monkeypatch.setenv("GEODEX_DATA_DIR", str(tmp_path))
    code, out, _ = run(capsys, "atlas", "get", "biggs-smith", "--format", "json")
    assert code == 1
    payload = json.loads(out)
    assert payload["error"] == "BadInputFile"
    assert str(path) in payload["message"]


# ---------------------------------------------------------------------------
# fuzzed argv and input files
# ---------------------------------------------------------------------------

_ints = st.integers(-2, 10)
_junk = st.one_of(st.none(), st.booleans(), st.floats(allow_nan=False), st.text(max_size=3))


@st.composite
def _graph_texts(draw):
    """Graph-file contents: JSON edge lists with bad counts, loops,
    out-of-range or ill-typed entries, broken JSON, LCF and graph6 garbage."""
    kind = draw(st.sampled_from(["json", "broken json", "lcf", "graph6", "text"]))
    if kind == "json":
        data = {}
        if draw(st.booleans()):
            data["n"] = draw(st.one_of(st.integers(-2, 9), _junk))
        if draw(st.booleans()):
            entry = st.one_of(st.lists(_ints, max_size=3), _junk)
            data["edges"] = draw(st.lists(entry, max_size=12))
        return json.dumps(data)
    if kind == "broken json":
        return "{" + draw(st.text(max_size=20))
    if kind == "lcf":
        return "[" + draw(st.text(alphabet="0123456789-,]^ ", max_size=12))
    if kind == "graph6":
        return draw(st.sampled_from(["", ">>graph6<<", ":", ">>sparse6<<:"])) + draw(
            st.text(alphabet=[chr(c) for c in range(60, 127)], max_size=16)
        )
    return draw(st.text(max_size=30))


@st.composite
def _group_texts(draw):
    """Group-file contents: wrong degrees, non-bijections, bad cycle strings
    and broken JSON."""
    if draw(st.booleans()):
        return draw(st.sampled_from(["{", "[", ""])) + draw(st.text(max_size=20))
    data = {}
    if draw(st.booleans()):
        data["degree"] = draw(st.one_of(st.integers(-1, 10), _junk))
    entry = st.one_of(
        st.integers(1, 9).flatmap(lambda k: st.permutations(range(k))),
        st.lists(_ints, max_size=6),
        st.text(alphabet="()0123456789, ", max_size=12),
        _junk,
    )
    data["generators"] = draw(st.lists(entry, max_size=3))
    return json.dumps(data)


_ERROR_KEYS = {"error", "message"}


@settings(max_examples=120, deadline=None)
@given(st.data())
def test_fuzzed_cli_inputs(tmp_path_factory, data):
    draw = data.draw
    folder = tmp_path_factory.mktemp("fuzz", numbered=True)
    graph_file, group_file, normal_file = (folder / name for name in ("g", "h", "n"))
    graph_file.write_text(draw(_graph_texts()), encoding="utf-8")
    group_file.write_text(draw(_group_texts()), encoding="utf-8")
    normal_file.write_text(draw(_group_texts()), encoding="utf-8")

    command = draw(st.sampled_from(["analyze", "aut", "transitivity", "quotient", "atlas", "verify"]))
    if command == "atlas":
        argv = ["atlas"] + draw(st.sampled_from([["list"], ["get", "petersen"], ["get", "no-such"], []]))
    elif command == "verify":
        # a target, not an option: "-h" would print the help and exit 0
        target = st.text(min_size=1, max_size=5).filter(lambda t: t != "paper" and t[0] != "-")
        argv = ["verify", draw(target)]
    else:
        source = draw(st.sampled_from(["--atlas", "--graph"]))
        value = draw(st.sampled_from(["petersen", "heawood", "K3,3", "C6", "no-such"]))
        argv = [command, source, str(graph_file) if source == "--graph" else value]
        if command in ("transitivity", "quotient") and draw(st.booleans()):
            argv += ["--group", str(group_file)]
        if command == "quotient":
            normal = draw(st.sampled_from(["auto", "auto:1", "auto:x", _HUGE_AUTO, "file"]))
            argv += ["--normal", str(normal_file) if normal == "file" else normal]
            if draw(st.booleans()):
                argv += ["--s", str(draw(st.integers(-2, 6)))]
    fmt = draw(st.sampled_from(["text", "json", "json", "graph6", None]))
    if fmt is not None:
        argv += ["--format", fmt]
    if draw(st.integers(0, 9)) == 0:
        argv.append(draw(st.sampled_from(["--bogus", "extra", "--graph"])))

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse's usage errors
            code = exc.code
    out, err = out.getvalue(), err.getvalue()
    assert code in (0, 1, 2), argv
    assert "Traceback" not in err, argv
    if code == 2:
        assert out == "" and err.startswith("usage:"), argv
    elif fmt == "json":
        payload = json.loads(out)  # exactly one document
        assert isinstance(payload, dict)
        assert (set(payload) == _ERROR_KEYS) == (code == 1), argv
        assert err == "", argv
    elif code == 1:
        assert out == "" and err.startswith("error: "), argv


@pytest.mark.parametrize("flag", ["--graph", "--group"])
def test_deeply_nested_json_is_a_bad_input_file(capsys, tmp_path, flag):
    nested = tmp_path / "nested.json"
    depth = 100_000
    nested.write_text('{"n": ' + "[" * depth + "]" * depth + "}")
    graph = tmp_path / "c6.json"
    graph.write_text(json.dumps({"n": 6, "edges": [[i, (i + 1) % 6] for i in range(6)]}))
    if flag == "--graph":
        argv = ["transitivity", "--graph", str(nested)]
    else:
        argv = ["transitivity", "--graph", str(graph), "--group", str(nested)]
    code, out, err = run(capsys, *argv, "--format", "json")
    assert code == 1 and err == ""
    assert json.loads(out)["error"] == "BadInputFile"
