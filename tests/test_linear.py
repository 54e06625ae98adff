import pytest
from hypothesis import assume, given, settings, strategies as st

from sylowcover import (
    DomainError,
    HypothesisFailed,
    SquareMatrix,
    build_family,
    enumerate_group,
    enumerate_sylows,
    find_sylow,
    is_two_power_neighbor,
    make_field,
    theorem_51_decide,
    theorem_D_decide,
)
from sylowcover.linear import gl_order, psl_order, sl_order
from sylowcover.perm import Permutation

from paper_checks import (
    centralizer, full_subgroup, gl_wreath_checks, is_abelian, maximal_subgroups_of_p_group,
    sl2_structure_checks, wreath_cpcp,
)


def test_order_formulas():
    assert gl_order(2, 4) == 180
    assert sl_order(2, 5) == 120
    assert psl_order(2, 7) == 168
    assert gl_order(3, 4) == 181440


def test_build_sl25():
    assert build_family("SL2", {"q": 5}).order == 120


def test_build_psl27():
    assert build_family("PSL2", {"q": 7}).order == 168


def test_build_gl24(gl24):
    assert gl24.order == 180


def test_singular_matrix_rejected():
    f = make_field(5)
    with pytest.raises(DomainError):
        SquareMatrix(f, [[1, 2], [2, 4]])


def test_matrix_inverse():
    f = make_field(7)
    m = SquareMatrix(f, [[1, 3], [2, 5]])
    product = m * m.inverse()
    assert product == SquareMatrix.identity(f, 2)


def test_inverse_and_determinant_share_one_elimination(gl24):
    # every element of GL(2,4): M * M^-1 = 1, and det(M^-1) = det(M)^-1
    f = make_field(4)
    for i in range(gl24.order):
        m = gl24.element(i)
        assert m * m.inverse() == SquareMatrix.identity(f, 2)
        assert f.mul(m.det(), m.inverse().det()) == 1


def test_mixed_matrix_shapes_rejected():
    a = SquareMatrix.identity(make_field(3), 2)
    for other in (SquareMatrix.identity(make_field(5), 2), SquareMatrix.identity(make_field(3), 3)):
        with pytest.raises(DomainError):
            a * other
        with pytest.raises(DomainError):
            enumerate_group([a, other])


@given(
    st.lists(st.integers(0, 4), min_size=4, max_size=4),
    st.lists(st.integers(0, 4), min_size=4, max_size=4),
)
@settings(max_examples=60)
def test_determinant_multiplicative(a_entries, b_entries):
    f = make_field(5)
    try:
        a = SquareMatrix(f, a_entries)
        b = SquareMatrix(f, b_entries)
    except DomainError:
        assume(False)
        return
    assert (a * b).det() == f.mul(a.det(), b.det())


def test_element_order_of_diagonal_in_sl24():
    f = make_field(4)
    group = build_family("SL2", {"q": 4})
    w = f.generator
    m = SquareMatrix(f, [[w, 0], [0, f.inv(w)]])
    assert group.element_order(group.index_of(m)) == 3


def test_psl_action_kernel_is_center():
    # elements of SL(2,5) acting trivially on the projective line are exactly +-I
    from sylowcover.fields import make_field as mf
    from sylowcover.linear import _projective_action, _projective_points

    f = mf(5)
    sl = build_family("SL2", {"q": 5})
    psl = build_family("PSL2", {"q": 5})
    assert sl.order == psl.order * 2
    points = _projective_points(f)
    trivial = []
    for i in range(sl.order):
        perm = _projective_action(sl.element(i), points, f)
        if all(perm(j) == j for j in range(len(points))):
            trivial.append(sl.element(i))
    minus_one = SquareMatrix(f, [[4, 0], [0, 4]])
    assert trivial == [SquareMatrix.identity(f, 2), minus_one] or set(trivial) == {
        SquareMatrix.identity(f, 2), minus_one
    }


def test_two_power_neighbor_classification():
    assert is_two_power_neighbor(9) == "2^3+1"
    assert is_two_power_neighbor(16) == "2^4"
    assert is_two_power_neighbor(7) == "2^3-1"
    assert is_two_power_neighbor(11) is None
    assert is_two_power_neighbor(2) == "2^1"
    assert is_two_power_neighbor(3) == "2^1+1"
    with pytest.raises(DomainError):
        is_two_power_neighbor(1)


def test_theorem_D_examples():
    assert not theorem_D_decide("SL2", 9, 2).redundant
    assert theorem_D_decide("PSL2", 11, 2).redundant
    v8 = theorem_D_decide("SL2", 8, 2)
    assert not v8.redundant and "trivially" in v8.reason
    assert not theorem_D_decide("SL2", 7, 3).redundant
    assert theorem_D_decide("SL2", 13, 2).redundant


def test_theorem_D_rejects_bad_input():
    with pytest.raises(DomainError):
        theorem_D_decide("GL2", 9, 2)
    with pytest.raises(Exception):
        theorem_D_decide("SL2", 6, 2)  # 6 is not a prime power


def test_theorem_51_examples():
    assert theorem_51_decide(3, 4, 3).redundant
    assert not theorem_51_decide(2, 4, 3).redundant
    assert theorem_51_decide(3, 13, 3).redundant  # 3 || 12
    with pytest.raises(HypothesisFailed):
        theorem_51_decide(3, 19, 3)  # 9 | 18
    with pytest.raises(HypothesisFailed):
        theorem_51_decide(2, 5, 2)  # p must be odd
    with pytest.raises(HypothesisFailed):
        theorem_51_decide(5, 4, 3)  # n > p


def test_sl2_structure_checks_q11():
    report = sl2_structure_checks(11)
    assert report["centralizer_divisibility_checked"]
    assert report["nu2_sl"] == report["nu2_psl"] == 55
    # 11 = +-3 (mod 8): the normalizer index is 3 even below the asserted range
    assert report["sl_normalizer_index"] == 3


def test_sl17_sylow_is_generalized_quaternion():
    group = build_family("SL2", {"q": 17})
    sylow = find_sylow(group, 2)
    assert sylow.order == 32
    involutions = [x for x in sylow.indices if group.element_order(x) == 2]
    assert len(involutions) == 1  # the hallmark of generalized quaternion groups


def test_sl2q_maximal_2_power_element_is_self_centralizing():
    # for q = 17 = 2^4 + 1, an element of order 16 has centralizer <x>
    group = build_family("SL2", {"q": 17})
    x = next(i for i in range(group.order) if group.element_order(i) == 16)
    assert centralizer(group, x).order == 16


def test_sl211_two_element_centralizers():
    group = build_family("SL2", {"q": 11})
    for x in group.p_elements(2):
        order = centralizer(group, x).order
        assert order % 10 == 0 or order % 12 == 0


def test_norm_indices_sl11():
    group = build_family("SL2", {"q": 11})
    system = enumerate_sylows(group, 2)
    assert system.normalizer_order == 3 * system.sylow.order == 24


def test_wreath_direct_construction():
    group = wreath_cpcp(3)
    assert group.order == 81
    report = gl_wreath_checks(3, 7)  # GL(3,7) is far beyond the cap
    assert report["group"] == "C3 wr C3"
    assert report["sylow_order"] == 81
    assert report["exponent"] == 9
    assert report["abelian_maximal_count"] == 1
    assert report["maximal_subgroup_count"] == 4


def test_gl_wreath_checks_c5_wr_c5():
    # GL(5,11) is far beyond the cap; C5 wr C5 has 15,625 elements, and its
    # Frattini subgroup is formed from |P| * (|S| + 1) keys, not |P|^2
    report = gl_wreath_checks(5, 11)
    assert report["group"] == "C5 wr C5"
    assert report["sylow_order"] == 5**6
    assert report["exponent"] == 25
    assert report["maximal_subgroup_count"] == 6
    assert report["abelian_maximal_count"] == 1


def test_maximal_subgroups_when_the_first_generator_lies_in_the_frattini_subgroup():
    # the Heisenberg group mod 3, as the maps (x, y) -> (x + a, y + b*x + c) on
    # the 9 points 3x + y, listed with its central translation first: its
    # greedy generating set then starts with an element of the Frattini
    # subgroup, whose commutators are all trivial, so P' needs the others
    def affine(image):
        return Permutation([3 * u + v for u, v in (image(x, y) for x in range(3) for y in range(3))])

    central = affine(lambda x, y: (x, (y + 1) % 3))
    shift = affine(lambda x, y: ((x + 1) % 3, y))
    shear = affine(lambda x, y: (x, (y + x) % 3))
    group = enumerate_group([central, shift, shear], order=27)
    sub = full_subgroup(group)
    assert len(sub.generating_indices()) == 3
    maximal = maximal_subgroups_of_p_group(group, sub, 3)
    assert len(maximal) == 4 and all(m.order == 9 and is_abelian(m) for m in maximal)
    assert all(group.index_of(central) in m for m in maximal)


def test_gl_wreath_checks_rejects_bad_parameters():
    with pytest.raises(HypothesisFailed):
        gl_wreath_checks(3, 19)  # 9 divides 18
    with pytest.raises(HypothesisFailed):
        gl_wreath_checks(2, 5)


def test_matrix_group_p_elements(gl24):
    system = enumerate_sylows(gl24, 3)
    assert system.sylow.order == 9
    assert set(system.multiplicity) == set(gl24.p_elements(3))


def test_theorem_d_matches_brute_force_q16_q17():
    from sylowcover import decide_redundant_bruteforce
    from sylowcover.numtheory import factorization

    for q in (16, 17):
        for tag in ("SL2", "PSL2"):
            group = build_family(tag, {"q": q})
            for p, _ in factorization(group.order):
                brute = decide_redundant_bruteforce(group, p).verdict
                fast = theorem_D_decide(tag, q, p).redundant
                assert (brute == "redundant") == fast, f"{tag} q={q} p={p}"


def test_sl2_structure_checks_above_13():
    report17 = sl2_structure_checks(17)
    assert report17["sl_normalizer_index"] == 1
    assert report17["psl_normalizer_index"] == 1
    assert report17["nu2_sl"] == report17["nu2_psl"]
    assert not report17["centralizer_divisibility_checked"]  # 17 = 2^4 + 1
    report19 = sl2_structure_checks(19)
    assert report19["sl_normalizer_index"] == 3
    assert report19["psl_normalizer_index"] == 3
    assert report19["nu2_sl"] == report19["nu2_psl"]
    assert report19["centralizer_divisibility_checked"]
