"""Shared, session-scoped group fixtures so expensive tables are built once."""

from __future__ import annotations

import json
from pathlib import Path

import pytest
from hypothesis import strategies as st

from sylowcover import (
    alternating_group,
    build_family,
    enumerate_group,
    load_fixture,
    symmetric_group,
)
from sylowcover.perm import Permutation

from paper_checks import centralizer

REPO_ROOT = Path(__file__).resolve().parent.parent
FIXTURE_DIR = REPO_ROOT / "fixtures"


@pytest.fixture(scope="module", autouse=True)
def _module_centralizers():
    """The centralizer cache holds its groups, so it is emptied after each test module."""
    yield
    centralizer.cache_clear()


@pytest.fixture(scope="session")
def s4():
    return symmetric_group(4)


@pytest.fixture(scope="session")
def s3():
    return symmetric_group(3)


@pytest.fixture(scope="session")
def a4():
    return alternating_group(4)


@pytest.fixture(scope="session")
def s8():
    return symmetric_group(8)


@pytest.fixture(scope="session")
def a8():
    return alternating_group(8)


@pytest.fixture(scope="session")
def a9():
    return alternating_group(9)


@pytest.fixture(scope="session")
def s9():
    return symmetric_group(9)


@pytest.fixture(scope="session")
def g108():
    return load_fixture(FIXTURE_DIR / "g108.json")


@pytest.fixture(scope="session")
def frobenius21():
    return load_fixture(FIXTURE_DIR / "frobenius21.json")


@pytest.fixture(scope="session")
def sl28():
    return build_family("SL2", {"q": 8})


@pytest.fixture(scope="session")
def sl217_sub68_path(tmp_path_factory):
    """A matrix fixture file of C17 : C4 in SL(2,17), from a transvection and diag(4, 13).

    GF(17)^2 has 288 nonzero vectors, past the permutation degree bound, so
    this group keeps matrix arithmetic (``MatrixOps``) where the committed
    matrix inputs run as permutations of their vectors.
    """
    path = tmp_path_factory.mktemp("fixtures") / "sl217_sub68.json"
    path.write_text(json.dumps({"kind": "matrix", "q": 17, "dim": 2, "generators": [[1, 1, 0, 1], [4, 0, 0, 13]]}))
    return path


@pytest.fixture(scope="session")
def sl217_sub68(sl217_sub68_path):
    return load_fixture(sl217_sub68_path)


@pytest.fixture(scope="session")
def gl34():
    return build_family("GL", {"n": 3, "q": 4})


@pytest.fixture(scope="session")
def gl24():
    return build_family("GL", {"n": 2, "q": 4})


@pytest.fixture(scope="session")
def c6():
    """C2 x C3 as a permutation group; a direct product with nontrivial parts."""
    return enumerate_group(
        [Permutation.from_cycles(5, [(1, 2)]), Permutation.from_cycles(5, [(3, 4, 5)])],
        name="C6",
    )


def index_closure(group, seed) -> frozenset[int]:
    """The subgroup generated by seed indices: breadth-first over positive
    words through the index table's ``mul``, every seed a generator."""
    members = {group.identity}
    queue = [group.identity]
    gens = []
    for s in seed:
        if s not in members:
            gens.append(s)
            members.add(s)
            queue.append(s)
    for x in queue:
        for g in gens:
            y = group.mul(x, g)
            if y not in members:
                members.add(y)
                queue.append(y)
    return frozenset(members)


@st.composite
def permutation_groups(draw):
    """Generator lists of 2 or 3 random permutations of degree 2..8."""
    degree = draw(st.integers(min_value=2, max_value=8))
    count = draw(st.integers(min_value=2, max_value=3))
    return [draw(st.permutations(range(degree))) for _ in range(count)]
