"""Command-line interface: decide, cover, and verify.

decide  resolves one group and prints a DecisionReport.  In auto mode the
        closed-form family deciders run first, then the cheap structural
        criteria (cyclic quotient, then trivial intersections), and brute
        force settles whatever remains.
cover   searches for a small collection of Sylow p-subgroups covering the
        p-elements (greedy or exact branch-and-bound).
verify  sweeps a parameter range and cross-checks the closed-form deciders
        against brute force (the Sylow system's class view), and for S_n at
        p = 2 the class view's verdict and witness against its orbit view,
        exiting nonzero on any disagreement.

Exit codes: 0 success, 1 verification disagreement, 2 malformed input,
3 enumeration budget exceeded.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
import time
from typing import NamedTuple, Optional

from .criteria import run_structural_criteria
from .errors import ClosureBudgetExceeded, DomainError, HypothesisFailed, SylowCoverError
from .fixtures import FAMILIES, FAMILY_NAMES, build_family, family_params, load_fixture
from .groups import FiniteGroup, _check_cap
from .linear import theorem_51_decide, theorem_D_decide
from .numtheory import is_prime
from .report import CriterionOutcome, DecisionReport
from .perm import cycle_notation
from .symmetric import theorem_B_decide, theorem_C_decide, type_cycles, unique_sylow_witness
from .sylow import decide_redundant_bruteforce, enumerate_sylows, minimal_cover

EXIT_OK = 0
EXIT_DISAGREEMENT = 1
EXIT_BAD_INPUT = 2
EXIT_BUDGET = 3


class Answer(NamedTuple):
    """What one answer source settles; the fields of a DecisionReport it fills."""

    verdict: str
    method: str
    witness: Optional[str] = None
    nu_p: Optional[int] = None


def family_fast_decision(name: str, params: dict, p: int, cap: Optional[int] = None) -> Optional[Answer]:
    """Closed-form answer for a family input, or None when none applies.

    ``params`` must already be checked by ``family_params``.  An S_n or A_n
    witness renders up to n points, so an n past the enumeration cap is
    refused first; the report prints |G|, so a decided |G| too long to print
    is refused before |G| is formed or a witness rendered.
    """
    if name in ("Sn", "An"):
        _check_cap(params["n"], cap)
    if name == "Sn":
        if params["n"] < 2:
            return None
        redundant, method = False, "theorem-C-witness"
    elif name == "An":
        try:
            redundant, method = theorem_B_decide(params["n"], p, "An"), "theorem-B"
        except DomainError:
            return None
    elif name in ("SL2", "PSL2"):
        redundant, method = theorem_D_decide(name, params["q"], p).redundant, "theorem-D"
    else:
        try:
            redundant, method = theorem_51_decide(params["n"], params["q"], p).redundant, "theorem-5.1"
        except HypothesisFailed:
            return None
    family, digits = FAMILIES[name], getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if digits and family.log10_order(**params) >= digits:
        raise DomainError(f"|{family.describe(params)}| has more than {digits} digits to print")
    parts = None if redundant or name not in ("Sn", "An") else unique_sylow_witness(params["n"], p, name)
    witness = cycle_notation(type_cycles(parts)) if parts else None
    return Answer("redundant" if redundant else "not-redundant", method, witness)


def _criteria_answer(group: FiniteGroup, p: int) -> tuple[Optional[Answer], list[CriterionOutcome]]:
    """The structural criteria's answer (None when all are inconclusive) and every outcome.

    A deciding criterion's evidence holds its witness and, where it built the
    Sylow system, nu_p: ti-sylow does, cyclic-quotient builds none.
    """
    verdict, outcomes = run_structural_criteria(group, p)
    if verdict is None:
        return None, outcomes
    decisive = outcomes[-1]
    witness, nu_p = decisive.evidence.get("witness"), decisive.evidence.get("nu_p")
    return Answer(verdict, f"criterion:{decisive.name}", witness, nu_p), outcomes


def _brute_answer(group: FiniteGroup, p: int) -> Answer:
    report = decide_redundant_bruteforce(group, p)
    return Answer(report.verdict, report.method, report.witness, report.nu_p)


def _resolve_group_args(args) -> tuple[Optional[str], dict]:
    """Returns (family_name, checked params) for family input, or (None, {}) for fixtures."""
    if args.fixture and args.family:
        raise DomainError("give either --family or --fixture, not both")
    if args.fixture:
        return None, {}
    if not args.family:
        raise DomainError("one of --family or --fixture is required")
    return args.family, family_params(args.family, vars(args))


def _build_group(args, family: Optional[str], params: dict) -> FiniteGroup:
    if family is not None:
        return build_family(family, params, cap=args.budget)
    return load_fixture(args.fixture, cap=args.budget)


def cmd_decide(args) -> tuple[int, str]:
    family, params = _resolve_group_args(args)
    # one clock for every answer source, group build included
    start = time.perf_counter()
    answer, outcomes = None, []
    if family is not None and args.method in ("auto", "fast"):
        answer = family_fast_decision(family, params, args.p, args.budget)
    if answer is not None:
        group_name, order = FAMILIES[family].describe(params), FAMILIES[family].order(**params)
    elif args.method == "fast":
        raise DomainError(
            "no closed-form decider applies to this input; rerun with --method auto or brute"
        )
    else:
        group = _build_group(args, family, params)
        group_name, order = group.describe(), group.order
        if args.method == "auto":
            answer, outcomes = _criteria_answer(group, args.p)
        if answer is None:
            answer = _brute_answer(group, args.p)
    report = DecisionReport(
        group=group_name,
        order=order,
        p=args.p,
        **answer._asdict(),
        criteria=outcomes,
        elapsed_ms=(time.perf_counter() - start) * 1000.0,
    )
    if args.format == "json":
        return EXIT_OK, report.to_json()
    return EXIT_OK, report.to_text()


def cmd_cover(args) -> tuple[int, str]:
    family, params = _resolve_group_args(args)
    start = time.perf_counter()
    group = _build_group(args, family, params)
    descriptor = group.describe()
    system = enumerate_sylows(group, args.p)
    result = minimal_cover(system, mode=args.mode, budget=args.budget)
    elapsed = (time.perf_counter() - start) * 1000.0
    payload = {
        "group": descriptor,
        "p": args.p,
        "nu_p": system.nu,
        "p_element_count": len(system.p_elements),
        "mode": args.mode,
        "size": result.size,
        "exact": result.exact,
        "chosen": list(result.chosen),
        "elapsed_ms": elapsed,
    }
    if args.format == "json":
        return EXIT_OK, json.dumps(payload, indent=2)
    lines = [
        f"group:  {descriptor} (order {group.order})",
        f"p:      {args.p}   nu_p: {system.nu}   p-elements: {len(system.p_elements)}",
        f"cover:  {result.size} Sylow {args.p}-subgroups ({'proven minimal' if result.exact else 'upper bound'})",
        f"chosen: {list(result.chosen)}",
        f"elapsed: {elapsed:.1f} ms",
    ]
    return EXIT_OK, "\n".join(lines)


def _verify_case(name: str, params: dict, p: int, budget: Optional[int]) -> dict:
    row: dict = {"family": name, **params, "p": p}
    fast = family_fast_decision(name, params, p, budget)
    row["fast"] = fast.verdict if fast is not None else None
    group = build_family(name, params, cap=budget)
    brute = _brute_answer(group, p)
    row["brute"] = brute.verdict
    row["nu_p"] = brute.nu_p
    row["agree"] = row["fast"] is None or row["fast"] == brute.verdict
    if name == "Sn" and p == 2:
        # the orbit view of brute force's system, a second route to its class-view answer
        system = enumerate_sylows(group, p)
        witnesses = system.unique_witnesses()
        predicted = {
            x for x in system.p_elements
            if theorem_C_decide(group.element(x).cycle_type())
        }
        row["witness_sets_match"] = predicted == set(witnesses)
        orbit_answer = ("not-redundant", group.render(witnesses[0])) if witnesses else ("redundant", None)
        row["agree"] = row["agree"] and row["witness_sets_match"] and orbit_answer == (brute.verdict, brute.witness)
    return row


def _int_list(flag: str, text: str) -> list[int]:
    try:
        return [int(s) for s in text.split(",")]
    except ValueError:
        raise DomainError(f"{flag} must be comma-separated integers, got {text!r}") from None


def _primes(args) -> list[int]:
    """The primes a command runs at: --p, or the entries of verify's --p-list."""
    verify = args.command == "verify"
    p_values = _int_list("--p-list", args.p_list) if verify and args.p_list is not None else [args.p]
    if p_values == [None]:
        raise DomainError(f"{args.command} requires --p" + (" or --p-list" if verify else ""))
    for p in p_values:
        if not is_prime(p):
            raise DomainError(f"p must be prime, got {p}")
    return p_values


def cmd_verify(args, p_values: list[int]) -> tuple[int, str]:
    if args.family not in FAMILIES:
        raise DomainError(f"unknown family {args.family!r}; choose one of {FAMILY_NAMES}")
    family = FAMILIES[args.family]
    if "q" in family.params:
        # field-size sweep; any other parameter (GL's n) is fixed by its flag
        if not args.q_list:
            raise DomainError(f"verify --family {args.family} requires --q-list")
        q_values = _int_list("--q-list", args.q_list)
        cases = [family_params(args.family, {**vars(args), "q": q}) for q in q_values]
    else:
        if args.max_n is None:
            raise DomainError(f"verify --family {args.family} requires --max-n")
        # S_1 is trivial, so the degree sweep starts at 2 at the earliest
        low = max(family.params["n"], 2)
        if args.max_n < low:
            raise DomainError(f"verify --family {args.family} starts at n = {low}: --max-n {args.max_n} leaves no case")
        # lazy: the sweep stops at the first group past the cap however large --max-n is
        cases = ({"n": n} for n in range(low, args.max_n + 1))
    rows = [_verify_case(args.family, params, p, args.budget) for params in cases for p in p_values]
    all_agree = all(row["agree"] for row in rows)
    if args.format == "json":
        return (EXIT_OK if all_agree else EXIT_DISAGREEMENT), json.dumps(rows, indent=2)
    header = f"{'case':<22} {'fast':<16} {'brute':<16} {'nu_p':>8}  agree"
    lines = [header, "-" * len(header)]
    for row in rows:
        case = "".join(
            f"{key}={row[key]} " for key in ("n", "q", "p") if key in row and row[key] is not None
        )
        case = f"{row['family']} {case.strip()}"
        extra = "" if row.get("witness_sets_match") is None else (
            " +witness-sets" if row["witness_sets_match"] else " WITNESS-SET-MISMATCH"
        )
        lines.append(
            f"{case:<22} {row['fast'] or '-':<16} {row['brute']:<16} {row['nu_p']:>8}  "
            f"{'yes' if row['agree'] else 'NO'}{extra}"
        )
    lines.append("result: " + ("all cases agree" if all_agree else "DISAGREEMENT FOUND"))
    return (EXIT_OK if all_agree else EXIT_DISAGREEMENT), "\n".join(lines)


class _OneLineParser(argparse.ArgumentParser):
    """Reports a usage error as one line on stderr, without the usage block.

    ``add_subparsers`` builds the subcommand parsers with this class too.
    """

    def error(self, message: str):
        self.exit(EXIT_BAD_INPUT, f"{self.prog}: error: {message}\n")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: parse_args leaves it unchanged."""
    parser = _OneLineParser(
        prog="sylowcover",
        description="Decide whether a finite group has a redundant Sylow p-subgroup.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p_: argparse.ArgumentParser, with_method: bool = False, with_mode: bool = False):
        p_.add_argument("--family", help=f"group family: {', '.join(FAMILY_NAMES)}")
        p_.add_argument("--n", type=int, help="degree (Sn/An) or dimension (GL)")
        p_.add_argument("--q", type=int, help="field size for SL2/PSL2/GL")
        p_.add_argument("--fixture", help="path to a JSON group fixture")
        p_.add_argument("--p", type=int, help="the prime p")
        p_.add_argument("--budget", type=int, default=None,
                        help="enumeration cap (and exact-cover node limit); "
                             "SYLOWCOVER_BUDGET overrides the default")
        p_.add_argument("--threads", type=int, default=1,
                        help="accepted and checked (must be at least 1) but has no effect: "
                             "every command runs on one thread")
        p_.add_argument("--format", choices=("json", "text"), default="text")
        if with_method:
            p_.add_argument("--method", choices=("auto", "brute", "fast"), default="auto")
        if with_mode:
            p_.add_argument("--mode", choices=("exact", "greedy"), default="greedy")

    decide = sub.add_parser("decide", help="decide redundancy for one group")
    add_common(decide, with_method=True)
    cover = sub.add_parser("cover", help="search for a small Sylow cover of the p-elements")
    add_common(cover, with_mode=True)
    verify = sub.add_parser("verify", help="cross-check fast deciders against brute force")
    add_common(verify)
    verify.add_argument("--max-n", type=int, help="largest n for Sn/An sweeps")
    verify.add_argument("--q-list", help="comma-separated field sizes for SL2/PSL2/GL sweeps")
    verify.add_argument("--p-list", help="comma-separated primes")
    return parser


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.threads is not None and args.threads < 1:
        parser.exit(EXIT_BAD_INPUT, "error: --threads must be at least 1\n")
    try:
        p_values = _primes(args)
        if args.command == "decide":
            code, output = cmd_decide(args)
        elif args.command == "cover":
            code, output = cmd_cover(args)
        else:
            code, output = cmd_verify(args, p_values)
    except ClosureBudgetExceeded as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_BUDGET
    except SylowCoverError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_BAD_INPUT
    # single atomic write so partial output never leaks on failure paths
    sys.stdout.write(output + "\n")
    return code


def entry() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    entry()
