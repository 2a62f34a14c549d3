from __future__ import annotations

import pytest

from geodex import verify
from geodex.graph import build_graph


@pytest.fixture(scope="session")
def ctx() -> verify.VerificationContext:
    """Shared cache of atlas graphs and their automorphism groups."""
    return verify.VerificationContext()


@pytest.fixture(scope="session")
def petersen(ctx):
    return ctx.graph("petersen")


@pytest.fixture(scope="session")
def petersen_aut(ctx):
    return ctx.aut("petersen")


@pytest.fixture(scope="session")
def c6():
    return build_graph(6, [(i, (i + 1) % 6) for i in range(6)])


@pytest.fixture(scope="session")
def k33():
    return build_graph(6, [(i, j) for i in range(3) for j in range(3, 6)])


@pytest.fixture(scope="session")
def foster(ctx):
    return ctx.graph("foster")


@pytest.fixture(scope="session")
def foster_aut(ctx):
    return ctx.aut("foster")


@pytest.fixture(scope="session")
def foster_n(ctx):
    return ctx.foster_minimal_normal()


@pytest.fixture(scope="session")
def foster_quotient(ctx):
    return ctx.foster_quotient()


@pytest.fixture
def chain_builds(monkeypatch):
    """A list that gains one entry per Schreier-Sims chain build."""
    from geodex import perm

    builds = []
    original = perm._build_chain

    def counted(*args, **kwargs):
        builds.append(args[0])
        return original(*args, **kwargs)

    monkeypatch.setattr(perm, "_build_chain", counted)
    return builds
