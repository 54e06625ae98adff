"""Differential oracle: sympy's permutation groups against the engine.

sympy shares no code with sylowcover.  For random permutation groups of
degree at most 8 this compares:

- the order;
- nu_p = |G : N_G(P)|, from sympy's Sylow subgroup and a normalizer found by
  sympy's subgroup search;
- the number of p-elements, counted over sympy's elements by cycle type;
- the verdict of ``decide --method auto`` and ``--method brute``, against the
  one read off the multiplicities of sympy's Sylow conjugates.
"""

from __future__ import annotations

import contextlib
import io
import json
from collections import Counter

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from sylowcover import load_fixture
from sylowcover.cli import EXIT_OK, main

from conftest import permutation_groups
from oracles import compose, inverse, is_p_power_order

sympy_perm = pytest.importorskip("sympy.combinatorics")


def _sympy_answers(gens: list[list[int]], p: int) -> dict:
    group = sympy_perm.PermutationGroup([sympy_perm.Permutation(g) for g in gens])
    sylow = group.sylow_subgroup(p)
    sylow_gens = sylow.generators
    if sylow.order() == 1:
        normalizer = group  # subgroup_search cannot take a trivial subgroup's generators
    else:
        normalizer = group.subgroup_search(
            lambda g: all(sylow.contains(g**-1 * h * g) for h in sylow_gens)
        )
    # the Sylow conjugates, as sets of image tuples, for the multiplicities
    base = frozenset(tuple(x.array_form) for x in sylow.generate())
    orbit = [base]
    seen = {base}
    for sub in orbit:
        for g in gens:
            g = tuple(g)
            conj = frozenset(compose(compose(inverse(g), x), g) for x in sub)
            if conj not in seen:
                seen.add(conj)
                orbit.append(conj)
    counts = Counter(x for sub in orbit for x in sub)
    return {
        "order": int(group.order()),
        "nu": int(group.order() // normalizer.order()),
        "orbit": len(orbit),
        "p_elements": sum(is_p_power_order(tuple(x.array_form), p) for x in group.generate()),
        "verdict": "not-redundant" if 1 in counts.values() else "redundant",
    }


def _engine(argv: list[str]) -> dict:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main([*argv, "--format", "json"]) == EXIT_OK
    return json.loads(out.getvalue())


@settings(max_examples=15, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(gens=permutation_groups(), p=st.sampled_from([2, 3, 5, 7]))
def test_engine_agrees_with_sympy(tmp_path_factory, gens, p):
    fixture = tmp_path_factory.mktemp("oracle") / "group.json"
    fixture.write_text(json.dumps({"kind": "permutation", "degree": len(gens[0]), "generators": gens}))
    common = ["--fixture", str(fixture), "--p", str(p)]
    expected = _sympy_answers(gens, p)
    assert expected["nu"] == expected["orbit"]
    brute = _engine(["decide", "--method", "brute", *common])
    auto = _engine(["decide", "--method", "auto", *common])
    assert brute["order"] == auto["order"] == expected["order"]
    assert brute["nu_p"] == expected["nu"]
    assert len(load_fixture(fixture).p_elements(p)) == expected["p_elements"]
    assert brute["verdict"] == auto["verdict"] == expected["verdict"]
