"""The permutation normalizer kernel, ``PermutationOps.normalizing_keys``, against its definition.

The kernel drops a key g before any exact test when g does not carry each
H-orbit on points onto an H-orbit of the same size, then tests g^-1*h*g in H
for each generator h.  These tests compare it, on permutation groups and on a
matrix group run as permutations of its vectors (``VectorOps``, which
inherits the kernel), with the set {g : {g^-1*h*g : h in H} = H} computed
through the index table, and count how many keys reach the exact test.
"""

import random
from itertools import chain, combinations

import pytest

from sylowcover import alternating_group, build_family, symmetric_group
from sylowcover.linear import VectorOps
from sylowcover.numtheory import factorization
from sylowcover.perm import PermutationOps
from sylowcover.sylow import find_sylow

GROUPS = {
    "A7": lambda: alternating_group(7),
    "S6": lambda: symmetric_group(6),
    "PSL(2,11)": lambda: build_family("PSL2", {"q": 11}),
    "GL(2,4)": lambda: build_family("GL", {"n": 2, "q": 4}),
}


def orbit_sizes(group, sub):
    """The size of each point's H-orbit, {h(i) : h in H}, from every member of H."""
    keys = [group.keys[h] for h in sub.indices]
    return [len({k[i] for k in keys}) for i in range(group.ops.degree)]


def first_subgroup(group, wanted):
    """The first <a, b> over index pairs a < b (a = b for cyclic ones) that ``wanted`` accepts."""
    indices = range(1, group.order)
    for a, b in chain(zip(indices, indices), combinations(indices, 2)):
        sub = group.subgroup_closure([a, b])
        if wanted(sub):
            return sub
    raise AssertionError("no such subgroup")


def subgroups(group):
    """Each Sylow subgroup, the trivial group, one with mixed orbit sizes and a proper transitive one."""
    subs = {f"sylow {p}": find_sylow(group, p) for p, _ in factorization(group.order)}
    subs["trivial"] = group.trivial_subgroup()
    subs["mixed"] = first_subgroup(group, lambda sub: len(set(orbit_sizes(group, sub))) > 1)
    subs["transitive"] = first_subgroup(
        group, lambda sub: sub.order < group.order and orbit_sizes(group, sub)[0] == group.ops.degree
    )
    return subs


@pytest.fixture(scope="module", params=list(GROUPS))
def group(request):
    return GROUPS[request.param]()


def test_normalizing_keys_are_the_definition_in_candidate_order(group):
    assert type(group.ops) in (PermutationOps, VectorOps)
    keys = group.keys
    candidates = random.Random(group.order).sample(range(group.order), group.order)
    subs = subgroups(group)
    for name, sub in subs.items():
        members = sub.member_set()
        normalizes = {
            g for g in range(group.order)
            if {group.mul(group.mul(group.inv(g), h), g) for h in sub.indices} == members
        }
        got = group.ops.normalizing_keys(
            {keys[h] for h in sub.indices}, [keys[h] for h in sub.generating_indices()], [keys[g] for g in candidates]
        )
        assert list(got) == [keys[g] for g in candidates if g in normalizes], name
    # the orbit-size check runs where H's orbits differ in size and is
    # skipped where they do not: both branches are met
    assert {len(set(orbit_sizes(group, sub))) > 1 for sub in subs.values()} == {False, True}


class CountingSet(set):
    """A set that counts its membership tests."""

    calls = 0

    def __contains__(self, key):
        self.calls += 1
        return super().__contains__(key)


@pytest.mark.parametrize("p, tested", [(7, 5040), (5, 1440), (3, 181440)])
def test_only_keys_keeping_orbit_sizes_reach_the_exact_test(a9, p, tested):
    # P at p = 7 moves 7 of A_9's 9 points and at p = 5 moves 5: a key that
    # normalizes P maps the moved points onto themselves, which 7! * 2! / 2 and
    # 5! * 4! / 2 even permutations do; P at p = 3 is transitive, so every key
    # is tested
    sylow = find_sylow(a9, p)
    gens = [a9.keys[h] for h in sylow.generating_indices()]
    members = CountingSet(a9.keys[h] for h in sylow.indices)
    normalizer = list(a9.ops.normalizing_keys(members, gens, a9.keys))
    assert len(normalizer) == a9.normalizer(sylow).order
    if len(gens) == 1:
        assert members.calls == tested
    else:
        # the first generator meets every key; the others only its survivors
        assert p == 3 and tested <= members.calls < 2 * tested
