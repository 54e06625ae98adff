import pytest

from sylowcover import DomainError, build_family
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
