"""The vector route against matrix arithmetic, key for key.

A matrix group whose nonzero vectors number at most ``perm.MAX_DEGREE`` runs
as the permutation group of v -> M*v on them (``linear.VectorOps``).  Each
group here is rebuilt on matrix keys by ``MatrixOps`` from the same
generators, and every element, render, p-element scan, Sylow subgroup, class
triple and witness must agree index for index."""

import pytest

from sylowcover import (
    DomainError,
    Field,
    SquareMatrix,
    build_family,
    decide_redundant_bruteforce,
    enumerate_sylows,
    find_sylow,
    load_fixture,
    make_field,
)
from sylowcover.groups import FiniteGroup
from sylowcover.linear import MatrixOps, VectorOps
from sylowcover.numtheory import factorization

from conftest import FIXTURE_DIR

CASES = {
    "sl23_matrix": lambda: load_fixture(FIXTURE_DIR / "sl23_matrix.json"),
    "GL(2,4)": lambda: build_family("GL", {"n": 2, "q": 4}),
    "SL(2,8)": lambda: build_family("SL2", {"q": 8}),
    "GL(3,3)": lambda: build_family("GL", {"n": 3, "q": 3}),
    "GL(1,2)": lambda: build_family("GL", {"n": 1, "q": 2}),
    "GL(1,9)": lambda: build_family("GL", {"n": 1, "q": 9}),
}


@pytest.fixture(scope="module", params=list(CASES))
def pair(request):
    """The group on the vector route and its reference on matrix keys."""
    group = CASES[request.param]()
    assert type(group.ops) is VectorOps
    ops = group.ops
    assert ops.degree == ops.field.q**ops.dim - 1
    matrix_keys = [group.element(g).key for g in group.generators]
    return group, FiniteGroup(MatrixOps.for_shape(ops.field, ops.dim), matrix_keys)


def test_every_element_matches_the_matrix_table(pair):
    group, reference = pair
    assert group.order == reference.order
    for i in range(group.order):
        element = group.element(i)
        assert type(element) is SquareMatrix
        assert element == reference.element(i), i
        # one ops object per shape, whatever the element
        assert element.group_ops() is group.ops and element._arithmetic() is reference.ops, i
        assert group.render(i) == reference.render(i), i
        assert group.index_of(element) == i


def test_every_sylow_datum_matches_the_matrix_table(pair):
    group, reference = pair
    for p, _ in factorization(reference.order):
        assert group.p_elements(p) == reference.p_elements(p), p
        assert find_sylow(group, p).indices == find_sylow(reference, p).indices, p
        system, expected = enumerate_sylows(group, p), enumerate_sylows(reference, p)
        assert system.nu == expected.nu, p
        assert system.classes == expected.classes, p
        # the order is a class function: one representative per p-class
        representatives = [x for x, _, _ in expected.classes]
        assert list(map(group.element_order, representatives)) == list(map(reference.element_order, representatives))
        assert [s.indices for s in system.sylows] == [s.indices for s in expected.sylows], p
        report = decide_redundant_bruteforce(group, p)
        assert report.witness == decide_redundant_bruteforce(reference, p).witness, p
        assert report.witness is None or report.witness.endswith(f"over GF({group.ops.field.q})")


def test_index_of_refuses_a_non_member_and_a_wrong_shape():
    sl23 = load_fixture(FIXTURE_DIR / "sl23_matrix.json")
    gf3 = make_field(3)
    with pytest.raises(DomainError, match="not a member"):
        sl23.index_of(SquareMatrix(gf3, [[2, 0], [0, 1]]))
    with pytest.raises(DomainError, match="2x2 matrix over GF\\(3\\)"):
        sl23.index_of(SquareMatrix.identity(gf3, 3))
    with pytest.raises(DomainError, match="2x2 matrix over GF\\(3\\)"):
        sl23.index_of(SquareMatrix.identity(make_field(5), 2))


def test_the_route_turns_at_255_points():
    gl216 = build_family("GL", {"n": 2, "q": 16})
    assert type(gl216.ops) is VectorOps and gl216.ops.degree == 255
    assert gl216.order == 255 * 240
    sl217 = build_family("SL2", {"q": 17})
    assert type(sl217.ops) is MatrixOps
    assert type(sl217.element(1)) is SquareMatrix and sl217.order == 17 * 288
    for i in range(0, sl217.order, 97):
        assert sl217.element(i).group_ops() is sl217.ops and sl217.element(i)._arithmetic() is sl217.ops, i


@pytest.mark.parametrize("q", [16, 17])
def test_a_directly_built_field_shares_the_shape(q):
    # the ops of a shape are keyed by q, not by the field object
    direct, cached = Field(q), make_field(q)
    a, b = SquareMatrix(direct, [[1, 1], [0, 1]]), SquareMatrix(cached, [[1, 0], [1, 1]])
    assert a.group_ops() is b.group_ops() and a._arithmetic() is b._arithmetic()
    assert a * b == SquareMatrix(cached, [[cached.add(1, 1), 1], [1, 1]])
