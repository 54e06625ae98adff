import contextlib
import io
import json

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from sylowcover import ClosureBudgetExceeded, DomainError, build_family, load_fixture
from sylowcover.cli import EXIT_BAD_INPUT, EXIT_BUDGET, EXIT_OK, main
from sylowcover.fixtures import FAMILIES, FAMILY_NAMES, family_params

SMALLEST = [("Sn", {"n": 3}), ("An", {"n": 4}), ("SL2", {"q": 3}), ("PSL2", {"q": 4}),
            ("GL", {"n": 2, "q": 2})]


def test_family_names_come_from_the_table():
    assert FAMILY_NAMES == tuple(FAMILIES) == tuple(name for name, _ in SMALLEST)


@pytest.mark.parametrize("name, params", SMALLEST)
def test_family_label_and_order_match_the_built_group(name, params):
    family = FAMILIES[name]
    group = build_family(name, params)
    assert family.describe(params) == group.describe()
    assert family.order(**params) == group.order


@pytest.mark.parametrize("name, params", [
    ("Sn", {}),
    ("Sn", {"n": 0}),
    ("Sn", {"n": "5"}),
    ("Sn", {"n": True}),
    ("An", {"n": 2}),
    ("SL2", {"q": 1}),
    ("GL", {"n": 2}),
    ("GL", {"n": 0, "q": 3}),
    ("Dn", {"n": 4}),
    (None, {"n": 4}),
    ("Sn", [4]),
])
def test_family_params_rejects_malformed_input(name, params):
    with pytest.raises(DomainError):
        family_params(name, params)


MALFORMED_FIXTURES = [
    {"kind": "permutation"},
    [1, 2],
    "permutation",
    {"kind": "permutation", "degree": "x", "generators": [[1, 0]]},
    {"kind": "permutation", "degree": 2.0, "generators": [[1, 0]]},
    {"kind": "permutation", "degree": 2, "generators": [[1, 300]]},
    {"kind": "permutation", "degree": 2, "generators": [[1.5, 0]]},
    {"kind": "permutation", "degree": 2, "generators": [1, 0]},
    {"kind": "permutation", "degree": 2, "generators": "10"},
    {"kind": "permutation", "degree": 2, "generators": [[1, 0]], "name": ["g"]},
    {"kind": "matrix", "q": "3", "dim": 2, "generators": [[1, 1, 0, 1]]},
    {"kind": "matrix", "q": 3, "dim": None, "generators": [[1, 1, 0, 1]]},
    {"kind": "matrix", "q": 3, "dim": 2, "generators": [[[1, 1], 0]]},
    {"kind": "matrix", "q": 10**30 + 57, "dim": 2, "generators": [[1, 1, 0, 1]]},
    {"kind": "matrix", "q": 3, "dim": 0, "generators": [[]]},
    {"kind": "family", "name": "Sn", "params": {"n": 10**12}},
    {"kind": "coset"},
]


@pytest.mark.parametrize("data", MALFORMED_FIXTURES)
def test_malformed_fixture_exits_2_with_one_line(capsys, tmp_path, data):
    fixture = tmp_path / "bad.json"
    fixture.write_text(json.dumps(data))
    with pytest.raises(DomainError):
        load_fixture(fixture)
    assert main(["decide", "--fixture", str(fixture), "--p", "2"]) == EXIT_BAD_INPUT
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err.startswith("error: ") and out.err.count("\n") == 1


json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False) | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=12,
)
small_ints = st.integers(min_value=-1, max_value=9)
# objects shaped like fixtures, so the fuzz reaches the per-kind checks
fixture_like = st.fixed_dictionaries(
    {"kind": st.sampled_from(["permutation", "matrix", "family", "other"]) | json_values},
    optional={
        "degree": small_ints | json_values,
        "q": small_ints | json_values,
        "dim": small_ints | json_values,
        "name": st.sampled_from(["Sn", "An", "SL2", "PSL2", "GL", "g"]) | json_values,
        "params": st.dictionaries(st.sampled_from(["n", "q"]), small_ints | json_values, max_size=2)
        | json_values,
        "generators": st.lists(st.lists(small_ints | json_values, max_size=5), max_size=3)
        | json_values,
    },
)


def test_unreadable_fixture_exits_2_with_one_line(capsys, tmp_path):
    undecodable = tmp_path / "latin1.json"
    undecodable.write_bytes(b'{"kind": "permutation", "name": "\xe9"}')
    for path in (tmp_path, undecodable):
        assert main(["decide", "--fixture", str(path), "--p", "2"]) == EXIT_BAD_INPUT
        out = capsys.readouterr()
        assert out.out == ""
        assert out.err.startswith("error: ") and out.err.count("\n") == 1


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(data=fixture_like | json_values)
def test_fuzzed_fixture_exits_0_2_or_3(tmp_path_factory, data):
    fixture = tmp_path_factory.mktemp("fuzz") / "fixture.json"
    fixture.write_text(json.dumps(data))
    try:
        load_fixture(fixture, cap=2000)
    except (DomainError, ClosureBudgetExceeded):
        pass
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["decide", "--fixture", str(fixture), "--p", "2", "--budget", "2000"])
    assert code in (EXIT_OK, EXIT_BAD_INPUT, EXIT_BUDGET)
    if code != EXIT_OK:
        assert out.getvalue() == ""
        assert err.getvalue().startswith("error: ") and err.getvalue().count("\n") == 1
