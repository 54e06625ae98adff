"""Answer checks for every benchmark command.

The closed forms below are written from the paper's statements, not taken
from sylowcover, so that a family verdict is checked by a second route:

- Theorem C: S_n never has a redundant Sylow p-subgroup; an element whose
  cycle type has one p^i-cycle per unit of the i-th base-p digit of n lies
  in a unique one.
- Theorem B: A_n (n >= max(6, p)) is redundant only for p = 2, read off the
  binary digits of n.
- Theorem D: SL(2,q) and PSL(2,q) are redundant exactly when p = 2, q is
  odd and q is none of 2^k, 2^k + 1, 2^k - 1.
- Theorem 5.1: GL(n,q) with p odd, p | q-1, p^2 not dividing q-1 and
  1 < n <= p is redundant exactly when n = p.

Each check returns None when the answer is right and a one-line reason
otherwise.
"""

from __future__ import annotations

import json
from typing import Optional

from workloads import PINNED_BRUTE, Case, family_descriptor, family_order


def _digits(n: int, p: int) -> list[int]:
    out = []
    while n:
        out.append(n % p)
        n //= p
    return out


def _is_two_power_neighbor(q: int) -> bool:
    return any(q in (2**k, 2**k + 1, 2**k - 1) for k in range(q.bit_length() + 1))


def closed_form_verdict(family: str, params: dict, p: int) -> Optional[str]:
    """The verdict a closed form gives, or None when no hypothesis holds."""
    redundant: Optional[bool] = None
    if family == "Sn" and params["n"] >= 2:
        redundant = False
    elif family == "An" and params["n"] >= max(6, p):
        n = params["n"]
        if p != 2:
            redundant = False
        elif n % 2 == 1:
            redundant = sum(_digits(n, 2)[1:]) % 2 == 1
        else:
            digits = _digits(n, 2)
            r = next(i for i, a in enumerate(digits) if a)
            redundant = r >= 2 and r % 2 == 0 and sum(digits[r:]) % 2 == 1
    elif family in ("SL2", "PSL2"):
        q = params["q"]
        redundant = p == 2 and q % 2 == 1 and not _is_two_power_neighbor(q)
    elif family == "GL":
        n, q = params["n"], params["q"]
        if p != 2 and (q - 1) % p == 0 and (q - 1) % (p * p) != 0 and 1 < n <= p:
            redundant = n == p
    if redundant is None:
        return None
    return "redundant" if redundant else "not-redundant"


def _cycle_lengths(cycle_string: str) -> list[int]:
    """Cycle lengths of a rendering such as ``(1,2,3)(4,5)``; fixed points omitted."""
    if cycle_string == "()":
        return []
    return [len(c.split(",")) for c in cycle_string[1:-1].split(")(")]


def _check_family_witness(family: str, params: dict, p: int, witness: Optional[str]) -> Optional[str]:
    n = params["n"]
    if witness is None:
        return "a not-redundant S_n/A_n answer must name a witness"
    lengths = _cycle_lengths(witness)
    if sum(lengths) > n:
        return f"witness {witness} moves more than {n} points"
    if family == "Sn" or p != 2:
        expected = sorted(p**i for i, a in enumerate(_digits(n, p)) for _ in range(a) if i > 0)
        if sorted(lengths) != expected:
            return f"witness {witness} does not have the base-{p} cycle type of {n}"
        return None
    # A_n, p = 2: an even 2-element with at most two fixed points and
    # pairwise distinct cycle lengths above one (the Theorem C shape)
    if any(length & (length - 1) for length in lengths):
        return f"witness {witness} is not a 2-element"
    if sum(length - 1 for length in lengths) % 2:
        return f"witness {witness} is odd"
    if n - sum(lengths) > 2 or len(set(lengths)) != len(lengths):
        return f"witness {witness} does not lie in a unique Sylow 2-subgroup"
    return None


def _witness_error(report: dict) -> Optional[str]:
    if report["verdict"] == "redundant" and report["witness"] is not None:
        return "a redundant verdict carries no witness"
    if report["method"] == "brute-force" and report["verdict"] == "not-redundant" and not report["witness"]:
        return "a not-redundant brute-force answer names a witness"
    return None


def check_family_report(case: Case, report: dict, brute: bool) -> Optional[str]:
    family, params, p = case.family, case.params, case.p
    if report["group"] != family_descriptor(family, params):
        return f"group {report['group']!r} != {family_descriptor(family, params)!r}"
    order = family_order(family, params)
    if report["order"] != order:
        return f"order {report['order']} != {order}"
    if report["p"] != p:
        return f"p {report['p']} != {p}"
    expected = closed_form_verdict(family, params, p)
    if expected is not None and report["verdict"] != expected:
        return f"verdict {report['verdict']} contradicts the closed form ({expected})"
    if _witness_error(report):
        return _witness_error(report)
    if brute:
        nu, verdict = PINNED_BRUTE[(family_descriptor(family, params), p)]
        if report["method"] != "brute-force":
            return f"method {report['method']!r} != 'brute-force'"
        if report["nu_p"] != nu or report["verdict"] != verdict:
            return f"(nu_p, verdict) ({report['nu_p']}, {report['verdict']}) != pinned ({nu}, {verdict})"
        if nu % p != 1 or order % nu:
            return f"nu_p {nu} is not 1 mod {p} or does not divide {order}"
        return None
    methods = {"Sn": "theorem-C-witness", "An": "theorem-B", "SL2": "theorem-D",
               "PSL2": "theorem-D", "GL": "theorem-5.1"}
    if report["method"] != methods[family]:
        return f"method {report['method']!r} != {methods[family]!r}"
    if expected is None:
        return f"no closed form covers {family} {params} at p={p}; the input pool is wrong"
    if report["nu_p"] is not None:
        return "closed-form answers carry no nu_p"
    if family in ("Sn", "An") and report["verdict"] == "not-redundant":
        return _check_family_witness(family, params, p, report["witness"])
    return None


def check_fixture_decide(report: dict, ref: dict, order: int) -> Optional[str]:
    if report["order"] != order:
        return f"order {report['order']} != reference {order}"
    if report["verdict"] != ref["verdict"] or report["verdict"] != ref["brute_verdict"]:
        return (f"verdict {report['verdict']} != reference {ref['verdict']} "
                f"/ brute force {ref['brute_verdict']}")
    if report["nu_p"] is not None and report["nu_p"] != ref["nu"]:
        return f"nu_p {report['nu_p']} != reference {ref['nu']}"
    if report["method"] == "brute-force" and report["nu_p"] is None:
        return "brute-force answer without nu_p"
    return _witness_error(report)


def check_fixture_cover(case: Case, payload: dict, ref: dict) -> Optional[str]:
    nu = ref["nu"]
    if payload["nu_p"] != nu or payload["p_element_count"] != ref["p_elements"]:
        return (f"(nu_p, p-elements) ({payload['nu_p']}, {payload['p_element_count']}) "
                f"!= reference ({nu}, {ref['p_elements']})")
    chosen = payload["chosen"]
    if payload["size"] != len(chosen) or len(set(chosen)) != len(chosen):
        return "cover size disagrees with its distinct chosen indices"
    if not all(0 <= i < nu for i in chosen):
        return "chosen index outside the Sylow list"
    # all Sylow subgroups are conjugate, so one is needed in every cover
    # exactly when they all are, i.e. exactly when the group is not redundant
    needs_all = ref["verdict"] == "not-redundant"
    if case.mode == "exact":
        if payload["exact"] is not True:
            return "exact cover search was not proven minimal"
        if (payload["size"] == nu) != needs_all:
            return f"minimal cover size {payload['size']} contradicts verdict {ref['verdict']}"
        if case.fixture.endswith("g108.json") and case.p == 2 and payload["size"] != 9:
            return f"g108 minimal 2-cover is {payload['size']}, expected 9"
    else:
        if needs_all and payload["size"] != nu:
            return f"greedy cover of a not-redundant group has size {payload['size']} < {nu}"
        if case.fixture.endswith("g108.json") and case.p == 2 and payload["size"] > 12:
            return f"g108 greedy 2-cover is {payload['size']}, expected at most 12"
    return None


def check(case: Case, code: int, stdout: str, refs: dict) -> Optional[str]:
    """None when the command exited 0 and its answer is right, else a reason."""
    if code != 0:
        return f"exit code {code}"
    try:
        data = json.loads(stdout)
        if not isinstance(data, dict):
            return "output is not a JSON object"
        if case.kind == "brute":
            return check_family_report(case, data, brute=True)
        if case.kind == "family":
            return check_family_report(case, data, brute=False)
        ref = refs[case.fixture]
        if case.kind == "fixture-decide":
            return check_fixture_decide(data, ref["p"][str(case.p)], ref["order"])
        return check_fixture_cover(case, data, ref["p"][str(case.p)])
    except (ValueError, KeyError, TypeError) as exc:
        return f"unreadable output: {exc!r}"


def pinned_reference(order: int, by_prime: dict) -> dict:
    """A reference entry in the shape reference.py produces, from pinned values."""
    return {
        "order": order,
        "p": {
            str(p): {"nu": nu, "p_elements": count, "verdict": verdict, "brute_verdict": verdict}
            for p, (nu, count, verdict) in by_prime.items()
        },
    }
