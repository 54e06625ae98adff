"""Loading groups from JSON fixture files, and the table of group families.

Fixture schema (one JSON object per file; unknown keys are ignored so files
can carry provenance notes):

    {"kind": "permutation", "degree": n, "generators": [[img0, ...], ...]}
    {"kind": "matrix", "q": prime power, "dim": n,
     "generators": [[entries row-major] or [[row], ...], ...]}
    {"kind": "family", "name": "Sn"|"An"|"SL2"|"PSL2"|"GL", "params": {...}}

Permutation images are 0-based; matrix entries are field encodings in
[0, q) (base-p digits of the polynomial representative, constant term
first).  The families are S_n, A_n, SL(2,q), PSL(2,q) and GL(n,q); there is
no SL(n,q) for n >= 3.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import partial
from math import factorial, inf, lgamma, log, log10
from pathlib import Path
from typing import Callable, Optional

from .errors import DomainError
from .fields import make_field
from .groups import FiniteGroup, enumerate_group
from .linear import SquareMatrix, _gl_group, _log10_gl_order, _psl2_group, _sl2_group, gl_order, psl_order, sl_order
from .perm import MAX_DEGREE, Permutation


def symmetric_group(n: int, cap: Optional[int] = None) -> FiniteGroup:
    if not 1 <= n <= MAX_DEGREE:
        raise DomainError(f"n must be in 1..{MAX_DEGREE}, got {n}")
    if n == 1:
        gens = [Permutation.identity(1)]
    else:
        gens = [Permutation.from_cycles(n, [(1, 2)]), Permutation.from_cycles(n, [tuple(range(1, n + 1))])]
    return enumerate_group(gens, name=f"S_{n}", cap=cap, order=factorial(n))


def alternating_group(n: int, cap: Optional[int] = None) -> FiniteGroup:
    if not 3 <= n <= MAX_DEGREE:
        raise DomainError(f"n must be in 3..{MAX_DEGREE}, got {n}")
    if n % 2 == 1:
        cycle = tuple(range(1, n + 1))
    else:
        cycle = tuple(range(2, n + 1))
    gens = [Permutation.from_cycles(n, [(1, 2, 3)]), Permutation.from_cycles(n, [cycle])]
    return enumerate_group(gens, name=f"A_{n}", cap=cap, order=factorial(n) // 2)


def _log10_factorial(n: int) -> float:
    """log10 n!; past the float range (n about 1.8e308) lgamma overflows, and inf stands for it."""
    try:
        return lgamma(n + 1) / log(10)
    except OverflowError:
        return inf


@dataclass(frozen=True)
class Family:
    """One family of groups, described once.

    ``params`` maps each integer parameter to its least allowed value;
    ``label`` formats the group's name from them, ``order`` gives |G| without
    building the group, ``log10_order`` estimates log10 |G| cheaply, and
    ``build`` enumerates it (keyword arguments: the params and ``cap``).  A
    built group carries the label as its name.
    """

    params: dict[str, int]
    label: str
    order: Callable[..., int]
    log10_order: Callable[..., float]
    build: Callable[..., FiniteGroup]

    def describe(self, params: dict[str, int]) -> str:
        return self.label.format(**params)


# math.factorial takes no keyword arguments, hence the lambdas
FAMILIES: dict[str, Family] = {
    "Sn": Family({"n": 1}, "S_{n}", lambda n: factorial(n), _log10_factorial, symmetric_group),
    "An": Family({"n": 3}, "A_{n}", lambda n: factorial(n) // 2, lambda n: _log10_factorial(n) - log10(2),
                 alternating_group),
    "SL2": Family({"q": 2}, "SL(2,{q})", partial(sl_order, 2), lambda q: log10(sl_order(2, q)), _sl2_group),
    "PSL2": Family({"q": 2}, "PSL(2,{q})", partial(psl_order, 2), lambda q: log10(psl_order(2, q)), _psl2_group),
    "GL": Family({"n": 1, "q": 2}, "GL({n},{q})", gl_order, _log10_gl_order, _gl_group),
}
FAMILY_NAMES = tuple(FAMILIES)


def family_params(name: object, params: object) -> dict[str, int]:
    """The parameters of family ``name`` taken from ``params``, checked.

    Each must be an int no smaller than the family's least value; keys the
    family does not use are ignored.  Raises DomainError otherwise.
    """
    family = FAMILIES.get(name) if isinstance(name, str) else None
    if family is None:
        raise DomainError(f"unknown family {name!r}; choose one of {FAMILY_NAMES}")
    if not isinstance(params, dict):
        raise DomainError(f"family {name} params must be an object, got {params!r}")
    checked = {}
    for key, least in family.params.items():
        value = params.get(key)
        if type(value) is not int or value < least:
            raise DomainError(f"family {name} requires an integer {key} >= {least}, got {value!r}")
        checked[key] = value
    return checked


def build_family(name: str, params: dict, cap: Optional[int] = None) -> FiniteGroup:
    checked = family_params(name, params)
    return FAMILIES[name].build(cap=cap, **checked)


def _int_field(data: dict, key: str) -> int:
    value = data.get(key)
    if type(value) is not int:
        raise DomainError(f"fixture field {key!r} must be an integer, got {value!r}")
    return value


def _generator_lists(data: dict) -> list[list]:
    gens = data.get("generators")
    if not isinstance(gens, list) or not all(isinstance(g, list) for g in gens):
        raise DomainError(f"fixture field 'generators' must be a list of lists, got {gens!r}")
    return gens


def _check_int_entries(entries: list) -> None:
    # a permutation lists images; a matrix lists entries, flat or by rows
    if entries and all(isinstance(row, list) for row in entries):
        entries = [e for row in entries for e in row]
    if not all(type(e) is int for e in entries):
        raise DomainError(f"generator entries must be integers, got {entries!r}")


def load_fixture(path: str | Path, cap: Optional[int] = None) -> FiniteGroup:
    """Load a fixture file; any malformed content raises DomainError."""
    path = Path(path)
    try:
        data = json.loads(path.read_text())
    except FileNotFoundError:
        raise DomainError(f"fixture file not found: {path}")
    except OSError as exc:
        raise DomainError(f"cannot read fixture file {path}: {exc.strerror}")
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise DomainError(f"fixture file {path} is not valid JSON: {exc}")
    if not isinstance(data, dict):
        raise DomainError(f"fixture file {path} must hold a JSON object, got {type(data).__name__}")
    kind = data.get("kind")
    if kind == "family":
        return build_family(data.get("name"), data.get("params", {}), cap=cap)
    if kind not in ("permutation", "matrix"):
        raise DomainError(f"fixture kind must be permutation, matrix, or family; got {kind!r}")
    name = data.get("name", path.stem)
    if not isinstance(name, str):
        raise DomainError(f"fixture field 'name' must be a string, got {name!r}")
    if kind == "permutation":
        degree = _int_field(data, "degree")
        gens = []
        for images in _generator_lists(data):
            _check_int_entries(images)
            gens.append(Permutation(images))
        if any(g.degree != degree for g in gens):
            raise DomainError(f"generator degree disagrees with the declared degree {degree}")
        return enumerate_group(gens, name=name, cap=cap)
    field = make_field(_int_field(data, "q"))
    dim = _int_field(data, "dim")
    gens = []
    for entries in _generator_lists(data):
        _check_int_entries(entries)
        matrix = SquareMatrix(field, entries)
        if matrix.dim != dim:
            raise DomainError(f"generator dimension disagrees with the declared dim {dim}")
        gens.append(matrix)
    return enumerate_group(gens, name=name, cap=cap)
