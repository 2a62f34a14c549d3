from __future__ import annotations

import dataclasses
import json
import os
import subprocess
import sys
import textwrap

import pytest

import geodex
from geodex import atlas, cli, verify
from geodex.graph import build_graph


def _fake_claim(criterion, name, failures, budget=None):
    def fn(ctx):
        return list(failures)

    fn._criterion = criterion
    fn._name = name
    fn._budget = budget
    return fn


def test_run_claim_reports_failures():
    ctx = verify.VerificationContext()
    good = verify.run_claim(_fake_claim(1, "good", []), ctx)
    assert good.ok and good.detail == "ok"
    bad = verify.run_claim(_fake_claim(2, "bad", ["x: expected 1, got 2"]), ctx)
    assert not bad.ok and "expected 1" in bad.detail


def test_run_claim_turns_crashes_into_failures():
    def boom(ctx):
        raise RuntimeError("kaput")

    boom._criterion = 3
    boom._name = "boom"
    boom._budget = None
    result = verify.run_claim(boom, verify.VerificationContext())
    assert not result.passed
    assert "RuntimeError" in result.detail


def test_budget_enforcement():
    import time

    def slow(ctx):
        time.sleep(0.05)
        return []

    slow._criterion = 4
    slow._name = "slow"
    slow._budget = 0.01
    result = verify.run_claim(slow, verify.VerificationContext())
    assert result.passed and not result.within_budget and not result.ok


def test_cli_verify_exit_codes(monkeypatch, capsys):
    monkeypatch.setattr(verify, "ALL_CLAIMS", [_fake_claim(1, "ok-claim", [])])
    assert cli.main(["verify", "paper"]) == 0
    out = capsys.readouterr().out
    assert "[PASS]" in out and "1/1" in out

    monkeypatch.setattr(
        verify, "ALL_CLAIMS", [_fake_claim(1, "bad-claim", ["broken"])]
    )
    assert cli.main(["verify", "paper"]) == 1
    assert "[FAIL]" in capsys.readouterr().out


def test_cli_verify_json(monkeypatch, capsys):
    monkeypatch.setattr(verify, "ALL_CLAIMS", [_fake_claim(7, "ok-claim", [])])
    assert cli.main(["verify", "paper", "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["ok"] is True
    assert payload["claims"][0]["criterion"] == 7


def test_claims_register_in_criterion_order():
    assert [fn._criterion for fn in verify.ALL_CLAIMS] == list(range(1, 12))


def test_claim_1_reads_the_catalog_row(monkeypatch):
    foster = atlas._CATALOG["foster"]
    lie = dataclasses.replace(foster["expected"], aut_order=4321)
    monkeypatch.setitem(foster, "expected", lie)
    result = verify.run_claim(verify.claim_foster_row, verify.VerificationContext())
    assert not result.passed
    assert result.detail == "aut_order: expected 4321, got 4320"


def test_claim_3_reads_the_family_rows(monkeypatch):
    # a wrong closed form for one member of one family fails the claim, which
    # names the graph and the field
    def lying_w(q):
        record = atlas._w_record(q)
        if q != 3:
            return record
        return dataclasses.replace(
            record, expected=dataclasses.replace(record.expected, diameter=5)
        )

    families = tuple(
        (pattern, lying_w if build is atlas._w_record else build)
        for pattern, build in atlas._FAMILIES
    )
    monkeypatch.setattr(atlas, "_FAMILIES", families)
    result = verify.run_claim(verify.claim_generalized_polygons, verify.VerificationContext())
    assert not result.passed
    assert result.detail == "raised AtlasValidationError: w(3): diameter: expected 5, got 4"


def test_corpus_is_the_connected_atlas_graphs_in_order():
    nx = pytest.importorskip("networkx")
    want = [
        build_graph(hx.number_of_nodes(), hx.edges()).adjacency
        for hx in nx.graph_atlas_g()[1:]
        if nx.is_connected(hx)
    ]
    assert len(want) == verify.CONNECTED_GRAPHS_UP_TO_7
    corpus = list(verify._automorphism_corpus())
    assert [graph.adjacency for graph in corpus[: len(want)]] == want
    assert all(graph.n == 8 for graph in corpus[len(want):])


def test_corpus_without_networkx():
    code = textwrap.dedent(
        """
        import json, sys

        sys.modules["networkx"] = None
        from geodex import cli, verify  # cli imports every module

        print(json.dumps([[g.n, g.edges()] for g in verify._automorphism_corpus()]))
        """
    )
    src = os.path.dirname(os.path.dirname(os.path.abspath(geodex.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    blocked = [(n, [tuple(e) for e in edges]) for n, edges in json.loads(proc.stdout)]
    assert len(blocked) == 1060
    assert blocked == [(g.n, g.edges()) for g in verify._automorphism_corpus()]


def test_truncated_corpus_fails_claim_10(tmp_path, monkeypatch):
    codes = atlas._load_data_file("connected_graphs_7.json", ("graph6",))["graph6"]
    path = tmp_path / "connected_graphs_7.json"
    path.write_text(json.dumps({"graph6": codes[:-1]}))
    monkeypatch.setenv("GEODEX_DATA_DIR", str(tmp_path))
    result = verify.run_claim(verify.claim_oracle_equivalence, verify.VerificationContext())
    assert not result.passed
    assert result.detail == "connected graphs on <= 7 vertices: expected 996, got 995"


@pytest.mark.parametrize("content", [None, "not json", json.dumps({"graph": []})])
def test_unreadable_corpus_fails_claim_10(tmp_path, monkeypatch, content):
    if content is not None:
        (tmp_path / "connected_graphs_7.json").write_text(content)
    monkeypatch.setenv("GEODEX_DATA_DIR", str(tmp_path))
    result = verify.run_claim(verify.claim_oracle_equivalence, verify.VerificationContext())
    assert not result.passed
    assert result.detail.startswith("raised BadInputFile")


def test_wrong_automorphism_order_fails_claim_10(monkeypatch):
    from geodex import oracles, symmetry

    idx = 500
    target = list(verify._automorphism_corpus())[idx]
    order = oracles.brute_force_automorphism_count(target)
    search = symmetry.automorphism_group

    class OffByOne:
        def __init__(self, group):
            self.group = group

        def order(self):
            return self.group.order() + 1

    def mutated(graph):
        group = search(graph)
        if (graph.n, graph.edges()) == (target.n, target.edges()):
            return OffByOne(group)
        return group

    monkeypatch.setattr(symmetry, "automorphism_group", mutated)
    result = verify.run_claim(verify.claim_oracle_equivalence, verify.VerificationContext())
    assert not result.passed
    assert result.detail == f"aut corpus #{idx} (n={target.n}): {order + 1} != brute {order}"


def test_group_above_the_closure_cap_is_checked_by_claim_10(monkeypatch):
    from geodex import oracles

    # a closure that gives up on every case: only the chain orders of the
    # S8, S8 and A8 cases exceed the cap, so every other case must be named
    monkeypatch.setattr(oracles, "multiplication_closure_order", lambda gens, cap=None: None)
    failures = verify._group_order_oracle_failures()
    assert len(failures) == 46 - 3
    assert failures[0] == "C5: chain order 5 but closure exceeds 10000"
