from __future__ import annotations

import random

import pytest

from hypothesis import given, settings
from hypothesis import strategies as st

from geodex import graph as G
from geodex.errors import BadHeader, LoopEdge, TruncatedPayload


def test_k2_encodes_to_known_string():
    assert G.graph6_encode(G.build_graph(2, [(0, 1)])) == "A_"


def test_empty_and_singleton():
    assert G.graph6_decode(G.graph6_encode(G.build_graph(1, []))).n == 1
    assert G.graph6_decode("?").n == 0


def test_petersen_round_trip(petersen):
    text = G.graph6_encode(petersen)
    assert G.graph6_decode(text).adjacency == petersen.adjacency


def test_header_allowed(petersen):
    text = ">>graph6<<" + G.graph6_encode(petersen)
    assert G.graph6_decode(text).adjacency == petersen.adjacency


def test_random_round_trips():
    rng = random.Random(808)
    for _ in range(60):
        n = rng.randrange(0, 24)
        edges = [
            (i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < 0.4
        ]
        g = G.build_graph(n, edges)
        assert G.graph6_decode(G.graph6_encode(g)).adjacency == g.adjacency


def test_large_n_prefix():
    n = 100
    g = G.build_graph(n, [(i, i + 1) for i in range(n - 1)])
    text = G.graph6_encode(g)
    assert text.startswith("~")
    assert G.graph6_decode(text).adjacency == g.adjacency


def test_bad_header():
    with pytest.raises(BadHeader):
        G.graph6_decode("garbage\x01")


def test_truncated_payload():
    good = G.graph6_encode(G.build_graph(10, [(0, 1), (2, 3)]))
    with pytest.raises(TruncatedPayload):
        G.graph6_decode(good[:-1])


def test_trailing_junk_rejected():
    good = G.graph6_encode(G.build_graph(4, [(0, 1)]))
    with pytest.raises(BadHeader):
        G.graph6_decode(good + "AA")


def test_graph6_agrees_with_networkx():
    nx = pytest.importorskip("networkx")
    rng = random.Random(909)
    for _ in range(40):
        n = rng.randrange(1, 20)
        edges = [
            (i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < 0.35
        ]
        g = G.build_graph(n, edges)
        hx = nx.empty_graph(n)
        hx.add_edges_from(edges)
        reference = nx.to_graph6_bytes(hx, header=False).decode().strip()
        assert G.graph6_encode(g) == reference
        assert G.graph6_decode(reference).adjacency == g.adjacency


def test_sparse6_decode_against_networkx():
    nx = pytest.importorskip("networkx")
    rng = random.Random(910)
    for _ in range(40):
        n = rng.randrange(1, 25)
        edges = [
            (i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < 0.2
        ]
        hx = nx.empty_graph(n)
        hx.add_edges_from(edges)
        text = nx.to_sparse6_bytes(hx, header=False).decode().strip()
        g = G.sparse6_decode(text)
        assert g.adjacency == G.build_graph(n, edges).adjacency
        assert G.decode(text).adjacency == g.adjacency


def test_decode_dispatch(petersen):
    assert G.decode(G.graph6_encode(petersen)).adjacency == petersen.adjacency



# vertex counts 0-200 with every 2^k and 2^k +- 1 among them: sparse6 packs
# vertex numbers in ceil(log2 n) bits and pads specially when n = 2^k
_CODEC_SIZES = sorted(
    {0, 1, 200} | {m for k in range(8) for m in (2**k - 1, 2**k, 2**k + 1)}
    | set(random.Random(911).sample(range(2, 200), 12))
)


def _random_edges(rng, n):
    density = rng.choice([0.0, 0.02, 0.1, 0.5])
    edges = {(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < density}
    if n >= 3 and rng.random() < 0.5:
        # vertex n-2 has an edge and n-1 none: the case of sparse6's 0-bit pad
        edges = {(i, j) for i, j in edges if j < n - 1} | {(0, n - 2)}
    return sorted(edges)


@pytest.mark.parametrize("n", _CODEC_SIZES)
def test_codecs_against_networkx_by_size(n):
    nx = pytest.importorskip("networkx")
    rng = random.Random(n)
    for _ in range(4):
        edges = _random_edges(rng, n)
        hx = nx.empty_graph(n)
        hx.add_edges_from(edges)
        g = G.build_graph(n, edges)
        sparse = nx.to_sparse6_bytes(hx, header=False)
        assert G.sparse6_decode(sparse.decode()).edges() == sorted(
            nx.from_sparse6_bytes(sparse.strip()).edges()
        ) == edges
        graph6 = nx.to_graph6_bytes(hx, header=False).decode().strip()
        assert G.graph6_encode(g) == graph6
        assert G.graph6_decode(graph6).adjacency == g.adjacency


def test_sparse6_loop_raises():
    nx = pytest.importorskip("networkx")
    hx = nx.MultiGraph()
    hx.add_nodes_from(range(4))
    hx.add_edges_from([(1, 1), (0, 2)])
    text = nx.to_sparse6_bytes(hx, header=False).decode()
    with pytest.raises(LoopEdge):
        G.sparse6_decode(text)


@settings(max_examples=300, deadline=None)
@given(st.integers(min_value=0, max_value=200), st.binary(max_size=24))
def test_sparse6_payloads_against_networkx(n, payload):
    """Any payload: the same edges as networkx, and LoopEdge where it has a loop."""
    nx = pytest.importorskip("networkx")
    from networkx.readwrite.graph6 import n_to_data

    text = ":" + "".join(chr(d + 63) for d in n_to_data(n)) + "".join(
        chr(63 + b % 64) for b in payload
    )
    reference = nx.from_sparse6_bytes(text.encode())
    edges = {(min(u, v), max(u, v)) for u, v in reference.edges()}
    if any(u == v for u, v in edges):
        with pytest.raises(LoopEdge):
            G.sparse6_decode(text)
    else:
        assert G.sparse6_decode(text).edges() == sorted(edges)
