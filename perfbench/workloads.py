"""Seeded inputs for the benchmark workloads.

Every workload is a list of CLI commands (``Case``), each carrying what the
answer check needs.  For ``small-auto`` the seed relabels the points of the
random fixture groups and draws the family inputs and the command order; the
brute-force workloads are fixed.  The program only ever sees argv and the
fixture files written here.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from math import factorial, gcd
from pathlib import Path
from typing import Optional

WORKLOADS = ("perm-brute", "matrix-brute", "small-auto")

# Groups of the two brute-force workloads, as (family, params).
PERM_BRUTE_GROUPS = [
    ("An", {"n": 9}),
    ("Sn", {"n": 8}),
    ("An", {"n": 8}),
    ("PSL2", {"q": 25}),
    ("PSL2", {"q": 27}),
    ("PSL2", {"q": 49}),
]
MATRIX_BRUTE_GROUPS = [
    ("SL2", {"q": 13}),
    ("SL2", {"q": 17}),
    ("SL2", {"q": 19}),
    ("GL", {"n": 2, "q": 7}),
    ("GL", {"n": 2, "q": 9}),
    ("GL", {"n": 3, "q": 3}),
]

# (descriptor, p) -> (nu_p, verdict) for every brute-force case.  Values agree
# with the Sylow-count formulas for SL(2,q) (q+1 at the characteristic,
# q(q+-1)/2 for odd p dividing q-+1) and, for the permutation groups, with a
# sympy conjugation orbit of ``sylow_subgroup``.
PINNED_BRUTE = {
    ("A_9", 2): (2835, "redundant"),
    ("A_9", 3): (1120, "not-redundant"),
    ("A_9", 5): (756, "not-redundant"),
    ("A_9", 7): (4320, "not-redundant"),
    ("S_8", 2): (315, "not-redundant"),
    ("S_8", 3): (280, "not-redundant"),
    ("S_8", 5): (336, "not-redundant"),
    ("S_8", 7): (960, "not-redundant"),
    ("A_8", 2): (315, "not-redundant"),
    ("A_8", 3): (280, "not-redundant"),
    ("A_8", 5): (336, "not-redundant"),
    ("A_8", 7): (960, "not-redundant"),
    ("PSL(2,25)", 2): (975, "redundant"),
    ("PSL(2,25)", 3): (325, "not-redundant"),
    ("PSL(2,25)", 5): (26, "not-redundant"),
    ("PSL(2,25)", 13): (300, "not-redundant"),
    ("PSL(2,27)", 2): (819, "redundant"),
    ("PSL(2,27)", 3): (28, "not-redundant"),
    ("PSL(2,27)", 7): (351, "not-redundant"),
    ("PSL(2,27)", 13): (378, "not-redundant"),
    ("PSL(2,49)", 2): (3675, "redundant"),
    ("PSL(2,49)", 3): (1225, "not-redundant"),
    ("PSL(2,49)", 5): (1176, "not-redundant"),
    ("PSL(2,49)", 7): (50, "not-redundant"),
    ("SL(2,13)", 2): (91, "redundant"),
    ("SL(2,13)", 3): (91, "not-redundant"),
    ("SL(2,13)", 7): (78, "not-redundant"),
    ("SL(2,13)", 13): (14, "not-redundant"),
    ("SL(2,17)", 2): (153, "not-redundant"),
    ("SL(2,17)", 3): (136, "not-redundant"),
    ("SL(2,17)", 17): (18, "not-redundant"),
    ("SL(2,19)", 2): (285, "redundant"),
    ("SL(2,19)", 3): (190, "not-redundant"),
    ("SL(2,19)", 5): (171, "not-redundant"),
    ("SL(2,19)", 19): (20, "not-redundant"),
    ("GL(2,7)", 2): (21, "not-redundant"),
    ("GL(2,7)", 3): (28, "not-redundant"),
    ("GL(2,7)", 7): (8, "not-redundant"),
    ("GL(2,9)", 2): (45, "not-redundant"),
    ("GL(2,9)", 3): (10, "not-redundant"),
    ("GL(2,9)", 5): (36, "not-redundant"),
    ("GL(3,3)", 2): (351, "not-redundant"),
    ("GL(3,3)", 3): (52, "not-redundant"),
    ("GL(3,3)", 13): (144, "not-redundant"),
}

# The committed fixtures that are not permutation groups, so sympy cannot
# check them: fixture stem -> (order, {p: (nu_p, p-element count, verdict)}).
PINNED_FIXTURES = {
    "sl23_matrix": (24, {2: (1, 8, "not-redundant"), 3: (4, 9, "not-redundant")}),
    "sl28": (504, {
        2: (9, 64, "not-redundant"),
        3: (28, 225, "not-redundant"),
        7: (36, 217, "not-redundant"),
    }),
}

# small-auto generator parameters.  Random groups are drawn by rejection
# until every order band holds its quota.  The groups themselves come from
# one fixed draw (POOL_SEED): when each seed drew its own groups, the work per
# sweep varied by up to 20 % between seeds.  The run's seed conjugates each
# group by a random relabelling of its points, which changes every generator
# and element key but not the group's structure, so the work stays the same.
POOL_SEED = "small-auto:pool"
RANDOM_DEGREES = (4, 8)
RANDOM_GENERATORS = (2, 3)
RANDOM_MAX_ORDER = 1500
ORDER_BANDS = [  # (lowest order, highest order, fixtures)
    (4, 11, 50),
    (12, 23, 50),
    (24, 59, 45),
    (60, 119, 25),
    (120, 239, 30),
    (240, 479, 15),
    (480, 959, 12),
    (960, RANDOM_MAX_ORDER, 8),
]
FAMILY_DECIDES = 300  # closed-form family inputs mixed into each sweep
EXACT_COVER_MAX_NU = 64  # the CLI's limit for --mode exact

PRIMES = [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37]


@dataclass
class Case:
    """One CLI command and what its answer is checked against."""

    argv: list[str]
    kind: str  # "brute", "family", "fixture-decide" or "fixture-cover"
    p: int
    family: Optional[str] = None
    params: dict = field(default_factory=dict)
    fixture: Optional[str] = None  # path relative to the workload directory
    mode: Optional[str] = None  # cover mode


def prime_factors(n: int) -> list[int]:
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.append(n)
    return out


def family_order(family: str, params: dict) -> int:
    if family == "Sn":
        return factorial(params["n"])
    if family == "An":
        return factorial(params["n"]) // 2
    q = params["q"]
    if family == "SL2":
        return q * (q * q - 1)
    if family == "PSL2":
        return q * (q * q - 1) // gcd(2, q - 1)
    n = params["n"]
    order = 1
    for i in range(n):
        order *= q**n - q**i
    return order


def family_descriptor(family: str, params: dict) -> str:
    if family in ("Sn", "An"):
        return f"{family[0]}_{params['n']}"
    if family in ("SL2", "PSL2"):
        return f"{family[:-1]}(2,{params['q']})"
    return f"GL({params['n']},{params['q']})"


def family_argv(family: str, params: dict) -> list[str]:
    argv = ["--family", family]
    for key in ("n", "q"):
        if key in params:
            argv += [f"--{key}", str(params[key])]
    return argv


def _brute_cases(groups) -> list[Case]:
    """One case per (group, p), round-robin over the groups: the k-th prime of
    every group, then the (k+1)-th.  Cases of similar cost are thus spread
    over the sweep instead of sharing one few-second stretch of host speed."""
    primes = [prime_factors(family_order(family, params)) for family, params in groups]
    cases = []
    for k in range(max(len(ps) for ps in primes)):
        for (family, params), ps in zip(groups, primes):
            if k < len(ps):
                argv = ["decide", "--method", "brute", "--format", "json", "--p", str(ps[k])]
                cases.append(Case(argv + family_argv(family, params), "brute", ps[k], family, params))
    return cases


# -- small-auto ------------------------------------------------------------


def _closure_order(gens: list[tuple[int, ...]], cap: int) -> Optional[int]:
    """Order of the generated group, or None once it exceeds cap."""
    degree = len(gens[0])
    # x.translate(table) maps each image x[j] to g[x[j]]
    tables = [bytes(g) + bytes(range(degree, 256)) for g in gens]
    identity = bytes(range(degree))
    seen = {identity}
    frontier = [identity]
    for x in frontier:
        for table in tables:
            y = x.translate(table)
            if y not in seen:
                if len(seen) >= cap:
                    return None
                seen.add(y)
                frontier.append(y)
    return len(seen)


def _random_generators(rng: random.Random) -> list[tuple[int, ...]]:
    """2-3 random permutations of degree 4-8 that preserve a random structure.

    The structure is an orbit partition (intransitive), a block system
    (imprimitive, relabelled) or none (transitive, degree <= 6), so that most
    draws give small groups rather than S_d or A_d.
    """
    d = rng.randint(*RANDOM_DEGREES)
    k = rng.randint(*RANDOM_GENERATORS)
    block_sizes = [b for b in (2, 3, 4) if d % b == 0 and d // b >= 2]
    shape = rng.choice(("intransitive", "imprimitive", "transitive"))
    if shape == "transitive" and d <= 6:
        gens = []
        for _ in range(k):
            img = list(range(d))
            rng.shuffle(img)
            gens.append(tuple(img))
        return gens
    if shape == "imprimitive" and block_sizes:
        b = rng.choice(block_sizes)
        m = d // b
        relabel = list(range(d))
        rng.shuffle(relabel)
        gens = []
        for _ in range(k):
            outer = list(range(m))
            rng.shuffle(outer)
            img = [0] * d
            for blk in range(m):
                inner = list(range(b))
                rng.shuffle(inner)
                for j in range(b):
                    img[relabel[blk * b + j]] = relabel[outer[blk] * b + inner[j]]
            gens.append(tuple(img))
        return gens
    points = list(range(d))
    rng.shuffle(points)
    orbits = []
    while points:
        size = rng.randint(1, min(5, len(points)))
        orbits.append(points[:size])
        points = points[size:]
    gens = []
    for _ in range(k):
        img = [0] * d
        for orbit in orbits:
            shuffled = orbit[:]
            rng.shuffle(shuffled)
            for src, dst in zip(orbit, shuffled):
                img[src] = dst
        gens.append(tuple(img))
    return gens


def _random_fixtures(rng: random.Random) -> list[tuple[list[tuple[int, ...]], int]]:
    quotas = [quota for _, _, quota in ORDER_BANDS]
    out = []
    while any(quotas):
        gens = _random_generators(rng)
        order = _closure_order(gens, RANDOM_MAX_ORDER)
        if order is None:
            continue
        for band, (low, high, _) in enumerate(ORDER_BANDS):
            if low <= order <= high and quotas[band]:
                quotas[band] -= 1
                out.append((gens, order))
    return out


def _relabel(gens: list[tuple[int, ...]], rng: random.Random) -> list[tuple[int, ...]]:
    """The generators conjugated by a random permutation s of the points."""
    s = list(range(len(gens[0])))
    rng.shuffle(s)
    out = []
    for g in gens:
        img = [0] * len(g)
        for i, gi in enumerate(g):
            img[s[i]] = s[gi]  # s g s^-1 sends s(i) to s(g(i))
        out.append(tuple(img))
    return out


def _theorem_51_inputs() -> list[dict]:
    """(n, q) for GL with p odd, p | q-1, p^2 not dividing q-1 and 1 < n <= p."""
    out = []
    for q in range(3, 65):
        if len(prime_factors(q)) != 1:
            continue
        for p in (3, 5, 7):
            if (q - 1) % p == 0 and (q - 1) % (p * p) != 0:
                for n in range(2, p + 1):
                    out.append({"n": n, "q": q, "p": p})
    return out


def _family_cases(rng: random.Random) -> list[Case]:
    prime_powers = [q for q in range(4, 129) if len(prime_factors(q)) == 1]
    gl_inputs = _theorem_51_inputs()
    cases = []
    for i in range(FAMILY_DECIDES):
        family = ("Sn", "An", "SL2", "PSL2", "GL")[i % 5]
        if family == "Sn":
            params = {"n": rng.randint(2, 40)}
            p = rng.choice([p for p in PRIMES if p <= params["n"]])
        elif family == "An":
            params = {"n": rng.randint(6, 40)}
            p = rng.choice([p for p in PRIMES if p <= params["n"]])
        elif family == "GL":
            choice = dict(rng.choice(gl_inputs))
            p = choice.pop("p")
            params = choice
        else:
            params = {"q": rng.choice(prime_powers)}
            p = rng.choice(prime_factors(family_order(family, params)))
        argv = ["decide", "--format", "json", "--p", str(p)] + family_argv(family, params)
        cases.append(Case(argv, "family", p, family, params))
    return cases


def _fixture_cases(rel: str, order: int, g108: bool) -> list[list[Case]]:
    units = []
    for p in prime_factors(order):
        common = ["--fixture", rel, "--p", str(p), "--format", "json"]
        unit = [Case(["decide"] + common, "fixture-decide", p, fixture=rel)]
        # nu_p is unknown until the reference run; exact mode is switched to
        # greedy there when nu_p exceeds the exact-search limit
        unit.append(Case(["cover", "--mode", "exact"] + common, "fixture-cover", p, fixture=rel, mode="exact"))
        if g108 and p == 2:
            unit.append(Case(["cover", "--mode", "greedy"] + common, "fixture-cover", p, fixture=rel, mode="greedy"))
        units.append(unit)
    return units


def prepare(workload: str, seed: int, root: Path, workdir: Path, limit: Optional[int] = None) -> list[Case]:
    """Write the workload's input files under workdir and return its commands.

    The brute-force workloads are fixed case lists in a fixed order, so the
    seed changes nothing there.  Fixture paths in
    the commands are relative to workdir, which is the working directory
    while they run.  ``limit`` cuts the case set down for
    the harness self-test: the ``limit`` smallest groups of a brute-force
    workload, or ``limit`` random fixtures and family inputs of small-auto
    (the committed fixtures always stay).
    """
    if workload in ("perm-brute", "matrix-brute"):
        groups = PERM_BRUTE_GROUPS if workload == "perm-brute" else MATRIX_BRUTE_GROUPS
        if limit is not None:
            groups = sorted(groups, key=lambda g: family_order(*g))[:limit]
        return _brute_cases(groups)
    if workload != "small-auto":
        raise ValueError(f"unknown workload {workload!r}; choose one of {WORKLOADS}")
    rng = random.Random(f"{workload}:{seed}")
    fixture_dir = workdir / "fixtures"
    fixture_dir.mkdir(parents=True, exist_ok=True)
    units: list[list[Case]] = []
    for src in sorted((root / "fixtures").glob("*.json")):
        rel = f"fixtures/{src.name}"
        (workdir / rel).write_bytes(src.read_bytes())
        data = json.loads(src.read_text())
        if src.stem in PINNED_FIXTURES:
            order = PINNED_FIXTURES[src.stem][0]
        else:
            order = _closure_order([tuple(g) for g in data["generators"]], RANDOM_MAX_ORDER)
        units += _fixture_cases(rel, order, src.stem == "g108")
    for i, (gens, order) in enumerate(_random_fixtures(random.Random(POOL_SEED))[:limit]):
        gens = _relabel(gens, rng)
        rel = f"fixtures/random{i:03d}.json"
        payload = {
            "kind": "permutation",
            "name": f"random{i:03d}",
            "degree": len(gens[0]),
            "generators": [list(g) for g in gens],
        }
        (workdir / rel).write_text(json.dumps(payload))
        units += _fixture_cases(rel, order, False)
    units += [[case] for case in _family_cases(rng)[:limit]]
    rng.shuffle(units)
    return [case for unit in units for case in unit]
