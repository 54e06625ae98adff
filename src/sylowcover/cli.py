"""Command-line interface: decide, cover, and verify.

decide  resolves one group and prints a DecisionReport.  In auto mode the
        closed-form family deciders run first, then the cheap structural
        criteria (cyclic quotient, small Sylow count, trivial intersections),
        and brute force settles whatever remains.
cover   searches for a small collection of Sylow p-subgroups covering the
        p-elements (greedy or exact branch-and-bound).
verify  sweeps a parameter range and cross-checks the closed-form deciders
        against brute force, exiting nonzero on any disagreement.

Exit codes: 0 success, 1 verification disagreement, 2 malformed input,
3 enumeration budget exceeded.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
import time
from typing import Optional

from .criteria import run_structural_criteria
from .errors import ClosureBudgetExceeded, DomainError, HypothesisFailed, SylowCoverError
from .fixtures import FAMILIES, FAMILY_NAMES, build_family, family_params, load_fixture
from .groups import FiniteGroup
from .linear import theorem_51_decide, theorem_D_decide
from .report import DecisionReport
from .symmetric import theorem_B_decide, theorem_C_decide, unique_sylow_witness
from .sylow import decide_redundant_bruteforce, enumerate_sylows, minimal_cover

EXIT_OK = 0
EXIT_DISAGREEMENT = 1
EXIT_BAD_INPUT = 2
EXIT_BUDGET = 3


def family_fast_decision(name: str, params: dict, p: int) -> Optional[DecisionReport]:
    """Closed-form decision for a family input, or None when none applies.

    ``params`` must already be checked by ``family_params``.
    """
    start = time.perf_counter()
    family = FAMILIES[name]

    def report(verdict: str, method: str, witness: Optional[str]) -> DecisionReport:
        return DecisionReport(
            group=family.describe(params),
            order=family.order(**params),
            p=p,
            verdict=verdict,
            method=method,
            witness=witness,
            nu_p=None,
            criteria=[],
            elapsed_ms=(time.perf_counter() - start) * 1000.0,
        )

    if name == "Sn":
        n = params["n"]
        if n < 2:
            return None
        witness = unique_sylow_witness(n, p, "Sn")
        return report("not-redundant", "theorem-C-witness", witness.cycle_string())
    if name == "An":
        n = params["n"]
        try:
            redundant = theorem_B_decide(n, p, "An")
        except DomainError:
            return None
        if redundant:
            return report("redundant", "theorem-B", None)
        witness = unique_sylow_witness(n, p, "An")
        return report("not-redundant", "theorem-B", witness.cycle_string() if witness else None)
    if name in ("SL2", "PSL2"):
        verdict = theorem_D_decide(name, params["q"], p)
        return report("redundant" if verdict.redundant else "not-redundant", "theorem-D", None)
    if name == "GL":
        try:
            verdict = theorem_51_decide(params["n"], params["q"], p)
        except HypothesisFailed:
            return None
        return report("redundant" if verdict.redundant else "not-redundant", "theorem-5.1", None)
    return None


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
    report: Optional[DecisionReport] = None
    if family is not None and args.method in ("auto", "fast"):
        report = family_fast_decision(family, params, args.p)
    if report is None:
        if args.method == "fast":
            raise DomainError(
                "no closed-form decider applies to this input; rerun with --method auto or brute"
            )
        start = time.perf_counter()
        group = _build_group(args, family, params)
        verdict, outcomes = None, []
        if args.method == "auto":
            verdict, outcomes = run_structural_criteria(group, args.p)
        if verdict is not None:
            decisive = outcomes[-1]
            # small-nu and ti-sylow build the Sylow system and report its nu_p;
            # cyclic-quotient builds none, and the group is fresh, so nu_p is null
            report = DecisionReport(
                group=group.describe(),
                order=group.order,
                p=args.p,
                verdict=verdict,
                method=f"criterion:{decisive.name}",
                witness=decisive.evidence.get("witness") if verdict == "not-redundant" else None,
                nu_p=decisive.evidence.get("nu_p"),
                criteria=outcomes,
                elapsed_ms=0.0,
            )
        else:
            report = decide_redundant_bruteforce(group, args.p)
            report.criteria = outcomes
        # every path that builds a group is timed from before the build
        report.elapsed_ms = (time.perf_counter() - start) * 1000.0
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
    fast = family_fast_decision(name, params, p)
    row["fast"] = fast.verdict if fast is not None else None
    group = build_family(name, params, cap=budget)
    brute = decide_redundant_bruteforce(group, p)
    row["brute"] = brute.verdict
    row["nu_p"] = brute.nu_p
    row["agree"] = row["fast"] is None or row["fast"] == brute.verdict
    if name == "Sn" and p == 2:
        system = enumerate_sylows(group, p)
        predicted = {
            x for x in system.p_elements
            if theorem_C_decide(group.element(x).cycle_type())
        }
        row["witness_sets_match"] = predicted == set(system.unique_witnesses())
        row["agree"] = row["agree"] and row["witness_sets_match"]
    return row


def _int_list(flag: str, text: str) -> list[int]:
    try:
        return [int(s) for s in text.split(",")]
    except ValueError:
        raise DomainError(f"{flag} must be comma-separated integers, got {text!r}") from None


def cmd_verify(args) -> tuple[int, str]:
    if args.family not in FAMILIES:
        raise DomainError(f"unknown family {args.family!r}; choose one of {FAMILY_NAMES}")
    family = FAMILIES[args.family]
    p_values = [args.p] if args.p_list is None else _int_list("--p-list", args.p_list)
    if any(pv is None for pv in p_values):
        raise DomainError("verify requires --p or --p-list")
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
        cases = [{"n": n} for n in range(low, args.max_n + 1)]
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
        if args.command != "verify" and args.p is None:
            raise DomainError(f"{args.command} requires --p")
        if args.command == "decide":
            code, output = cmd_decide(args)
        elif args.command == "cover":
            code, output = cmd_cover(args)
        else:
            code, output = cmd_verify(args)
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
