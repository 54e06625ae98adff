import importlib.util
import json
import math
import os
import resource
import subprocess
import sys
import time
from pathlib import Path

import pytest

from sylowcover import cli, sylow
from sylowcover.cli import EXIT_BAD_INPUT, EXIT_BUDGET, EXIT_DISAGREEMENT, EXIT_OK, main
from sylowcover.groups import FiniteGroup
from sylowcover.report import DecisionReport

REPO_ROOT = Path(__file__).resolve().parent.parent
FIXTURES = REPO_ROOT / "fixtures"


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def decide_json(capsys, *argv):
    code, out, _ = run(capsys, "decide", *argv, "--format", "json")
    assert code == EXIT_OK
    return DecisionReport.from_json(out)


def test_decide_family_an9(capsys):
    report = decide_json(capsys, "--family", "An", "--n", "9", "--p", "2")
    assert report.verdict == "redundant"
    assert report.method == "theorem-B"


def test_decide_family_sl2_q9(capsys):
    report = decide_json(capsys, "--family", "SL2", "--q", "9", "--p", "2")
    assert report.verdict == "not-redundant"
    assert report.method == "theorem-D"


def test_decide_fixture_g108(capsys):
    report = decide_json(capsys, "--fixture", str(FIXTURES / "g108.json"), "--p", "2")
    assert report.verdict == "redundant"
    assert report.method == "brute-force"
    assert report.nu_p == 27
    assert [c.name for c in report.criteria] == ["cyclic-quotient", "ti-sylow"]


def test_decide_family_sn_witness(capsys):
    report = decide_json(capsys, "--family", "Sn", "--n", "8", "--p", "2")
    assert report.method == "theorem-C-witness"
    assert report.witness == "(1,2,3,4,5,6,7,8)"


MERSENNE_61 = 2**61 - 1


@pytest.mark.parametrize("argv, verdict", [
    (["--family", "Sn", "--n", "8", "--p", str(MERSENNE_61)], "not-redundant"),
    (["--fixture", str(FIXTURES / "g108.json"), "--p", str(MERSENNE_61)], "not-redundant"),
    # q = 2^61 - 1 is adjacent to a power of two, so SL(2, q) is not redundant at p = 2
    (["--family", "SL2", "--q", str(MERSENNE_61), "--p", "2"], "not-redundant"),
])
def test_large_primes_are_answered_at_once(capsys, argv, verdict):
    start = time.perf_counter()
    report = decide_json(capsys, *argv)
    assert time.perf_counter() - start < 1.0
    assert report.verdict == verdict


def test_prime_past_the_miller_rabin_bound_is_refused(capsys):
    code, out, err = run(capsys, "decide", "--family", "Sn", "--n", "8", "--p", str(2**89 - 1))
    assert code == EXIT_BAD_INPUT
    assert out == "" and err.startswith("error: ") and err.count("\n") == 1


def test_sn_closed_form_past_degree_255(capsys):
    # 300 = 256 + 32 + 8 + 4; no permutation of 300 points is formed
    report = decide_json(capsys, "--family", "Sn", "--n", "300", "--p", "2", "--method", "fast")
    cycles = report.witness[1:-1].split(")(")
    assert [len(c.split(",")) for c in cycles] == [256, 32, 8, 4]
    assert cycles[-1] == "297,298,299,300"


@pytest.mark.parametrize("argv", [
    ["--family", "Sn", "--n", "100000000", "--p", "2"],
    ["--family", "An", "--n", "1000000000000", "--p", "2"],
    ["--family", "Sn", "--n", "101", "--p", "3", "--budget", "100"],
    ["--family", "Sn", "--n", "12", "--p", "2", "--method", "brute"],
    ["--family", "An", "--n", "11", "--p", "3", "--method", "brute"],
])
def test_over_cap_sn_an_exit_3_at_once(capsys, argv):
    start = time.perf_counter()
    code, out, err = run(capsys, "decide", *argv)
    assert time.perf_counter() - start < 1.0
    assert code == EXIT_BUDGET
    assert out == "" and err.startswith("error: ") and err.count("\n") == 1


def test_closed_form_order_too_long_to_print_is_bad_input(capsys):
    # |A_2096| has over 6000 digits, more than Python converts to a string by default
    code, out, err = run(capsys, "decide", "--family", "An", "--n", "2096", "--p", "2")
    assert code == EXIT_BAD_INPUT
    assert out == "" and err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize("family", ["Sn", "An"])
def test_sn_an_order_past_the_float_range_is_bad_input(capsys, family):
    # lgamma cannot take an n this large; a budget as large lets it past the cap
    n = str(10**400)
    code, out, err = run(capsys, "decide", "--family", family, "--n", n, "--p", "2", "--budget", n)
    assert code == EXIT_BAD_INPUT
    assert out == "" and err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize("method", ["auto", "brute"])
def test_gl_1_2_is_the_trivial_group(capsys, method):
    # no transvection and no stretch: the identity is its generator
    report = decide_json(capsys, "--family", "GL", "--n", "1", "--q", "2", "--p", "3", "--method", method)
    assert (report.order, report.verdict) == (1, "not-redundant")
    if method == "brute":
        assert report.nu_p == 1


def test_closed_form_witnesses_match_the_element_rendering():
    from sylowcover.perm import cycle_notation
    from sylowcover.symmetric import canonical_element_of_type, type_cycles, unique_sylow_witness

    for n in range(2, 256):
        for p in (2, 3, 5, 7):
            for family in ("Sn", "An") if n >= 6 else ("Sn",):
                parts = unique_sylow_witness(n, p, family)
                if parts is not None:
                    expected = canonical_element_of_type(n, parts).cycle_string()
                    assert cycle_notation(type_cycles(parts)) == expected, (n, p, family)


def test_decide_auto_uses_criteria_for_fixture(capsys):
    report = decide_json(capsys, "--fixture", str(FIXTURES / "sl28.json"), "--p", "2")
    assert report.method in ("criterion:cyclic-quotient", "criterion:ti-sylow")
    assert report.verdict == "not-redundant"
    assert report.witness is not None


def test_criterion_reports_carry_nu_p_when_the_criterion_built_the_system(capsys):
    # ti-sylow reads the Sylow system; cyclic-quotient decides without one
    report = decide_json(capsys, "--fixture", str(FIXTURES / "sl28.json"), "--p", "2")
    assert (report.method, report.nu_p) == ("criterion:ti-sylow", 9)
    report = decide_json(capsys, "--fixture", str(FIXTURES / "g108.json"), "--p", "3")
    assert (report.method, report.nu_p) == ("criterion:cyclic-quotient", None)


def test_decide_matrix_fixture(capsys):
    report = decide_json(capsys, "--fixture", str(FIXTURES / "sl23_matrix.json"), "--p", "2")
    assert report.order == 24
    assert report.verdict == "not-redundant"  # the quaternion Sylow subgroup is normal


def test_decide_method_brute(capsys):
    code, out, _ = run(capsys, "decide", "--family", "An", "--n", "5", "--p", "2",
                       "--method", "brute", "--format", "json")
    assert code == EXIT_OK
    report = DecisionReport.from_json(out)
    assert report.method == "brute-force"
    assert report.verdict == "not-redundant"
    assert report.nu_p == 5


def test_decide_method_fast_fails_for_fixture(capsys):
    code, _, err = run(capsys, "decide", "--fixture", str(FIXTURES / "g108.json"),
                       "--p", "2", "--method", "fast")
    assert code == EXIT_BAD_INPUT
    assert "closed-form" in err


def test_decide_auto_falls_back_for_small_n(capsys):
    report = decide_json(capsys, "--family", "An", "--n", "5", "--p", "3")
    assert report.verdict == "not-redundant"
    assert report.method.startswith("criterion:") or report.method == "brute-force"


def test_decide_text_output(capsys):
    code, out, _ = run(capsys, "decide", "--family", "Sn", "--n", "4", "--p", "2")
    assert code == EXIT_OK
    assert "verdict: not-redundant" in out


def test_missing_p_is_bad_input(capsys):
    code, _, err = run(capsys, "decide", "--family", "Sn", "--n", "4")
    assert code == EXIT_BAD_INPUT
    assert "--p" in err


def test_missing_group_source(capsys):
    code, _, err = run(capsys, "decide", "--p", "2")
    assert code == EXIT_BAD_INPUT


def test_both_group_sources_rejected(capsys):
    code, _, err = run(capsys, "decide", "--family", "Sn", "--n", "4",
                       "--fixture", str(FIXTURES / "g108.json"), "--p", "2")
    assert code == EXIT_BAD_INPUT


def test_unknown_family(capsys):
    code, _, err = run(capsys, "decide", "--family", "Dn", "--n", "4", "--p", "2")
    assert code == EXIT_BAD_INPUT


def test_missing_fixture_file(capsys):
    code, _, err = run(capsys, "decide", "--fixture", "no-such-file.json", "--p", "2")
    assert code == EXIT_BAD_INPUT


def test_budget_exceeded_exit_code(capsys):
    code, _, err = run(capsys, "decide", "--family", "Sn", "--n", "8", "--p", "2",
                       "--method", "brute", "--budget", "100")
    assert code == EXIT_BUDGET


def test_budget_env_var(capsys, monkeypatch):
    monkeypatch.setenv("SYLOWCOVER_BUDGET", "100")
    code, _, _ = run(capsys, "decide", "--family", "Sn", "--n", "8", "--p", "2",
                     "--method", "brute")
    assert code == EXIT_BUDGET
    monkeypatch.setenv("SYLOWCOVER_BUDGET", "50000")
    code, _, _ = run(capsys, "decide", "--family", "Sn", "--n", "8", "--p", "2",
                     "--method", "brute")
    assert code == EXIT_OK


def test_budget_env_var_leaves_the_cover_node_limit(capsys, monkeypatch):
    # SYLOWCOVER_BUDGET sets only the enumeration cap; --budget also sets the
    # exact-cover node limit, and 200 nodes cannot prove g108's cover of 9
    argv = ["cover", "--fixture", str(FIXTURES / "g108.json"), "--p", "2", "--mode", "exact", "--format", "json"]
    monkeypatch.setenv("SYLOWCOVER_BUDGET", "200")
    code, out, _ = run(capsys, *argv)
    assert code == EXIT_OK
    assert json.loads(out)["exact"] is True
    monkeypatch.delenv("SYLOWCOVER_BUDGET")
    code, out, _ = run(capsys, *argv, "--budget", "200")
    assert code == EXIT_OK
    assert json.loads(out)["exact"] is False
    assert json.loads(out)["size"] == 9


def test_cover_greedy_g108(capsys):
    code, out, _ = run(capsys, "cover", "--fixture", str(FIXTURES / "g108.json"),
                       "--p", "2", "--format", "json")
    assert code == EXIT_OK
    payload = json.loads(out)
    assert payload["nu_p"] == 27
    assert payload["size"] <= 12


def test_cover_exact_g108(capsys):
    code, out, _ = run(capsys, "cover", "--fixture", str(FIXTURES / "g108.json"),
                       "--p", "2", "--mode", "exact", "--format", "json")
    payload = json.loads(out)
    assert payload["size"] == 9
    assert payload["exact"] is True


def test_cover_exact_s4(capsys):
    code, out, _ = run(capsys, "cover", "--family", "Sn", "--n", "4", "--p", "2",
                       "--mode", "exact", "--format", "json")
    payload = json.loads(out)
    assert payload["size"] == 3 and payload["exact"] is True


def test_cover_normal_sylow(capsys):
    code, out, _ = run(capsys, "cover", "--family", "An", "--n", "4", "--p", "2",
                       "--format", "json")
    payload = json.loads(out)
    assert payload["size"] == 1


def test_verify_sn(capsys):
    code, out, _ = run(capsys, "verify", "--family", "Sn", "--p", "2", "--max-n", "6",
                       "--format", "json")
    assert code == EXIT_OK
    rows = json.loads(out)
    assert all(row["agree"] for row in rows)
    assert all(row.get("witness_sets_match") for row in rows)


def test_verify_sn_exits_1_when_the_orbit_disagrees_with_the_class_route(monkeypatch, capsys):
    # the identity's class gets a wrong multiplicity; the verdict stays
    # not-redundant, so only the orbit's lowest witness can catch it
    classes = sylow.SylowSystem.classes.func

    def corrupted(system):
        (x, size, m), *rest = classes(system)
        return [(x, size, 2 if m == 1 else 1), *rest]

    monkeypatch.setattr(sylow.SylowSystem, "classes", property(corrupted))
    code, out, _ = run(capsys, "verify", "--family", "Sn", "--p", "2", "--max-n", "4",
                       "--format", "json")
    assert code == EXIT_DISAGREEMENT
    rows = json.loads(out)
    assert [row["fast"] == row["brute"] for row in rows] == [True] * 3
    assert all(row["witness_sets_match"] and not row["agree"] for row in rows)


def test_verify_sn_builds_one_normalizer_per_group(monkeypatch, capsys):
    # the class view (brute force) and the orbit view share one system
    calls = []
    normalizer = FiniteGroup.normalizer

    def counted(group, subgroup):
        calls.append(group.order)
        return normalizer(group, subgroup)

    monkeypatch.setattr(FiniteGroup, "normalizer", counted)
    code, out, _ = run(capsys, "verify", "--family", "Sn", "--p", "2", "--max-n", "8",
                       "--format", "json")
    assert code == EXIT_OK and len(json.loads(out)) == 7
    assert calls == [math.factorial(n) for n in range(2, 9)]


def test_verify_sl2(capsys):
    code, out, _ = run(capsys, "verify", "--family", "SL2", "--q-list", "5,7,9",
                       "--p", "2", "--format", "json")
    assert code == EXIT_OK
    rows = json.loads(out)
    assert [row["brute"] for row in rows] == ["not-redundant"] * 3


def test_verify_requires_range(capsys):
    code, _, err = run(capsys, "verify", "--family", "Sn", "--p", "2")
    assert code == EXIT_BAD_INPUT


def test_threads_flag_accepted(capsys):
    code, out, _ = run(capsys, "decide", "--family", "Sn", "--n", "4", "--p", "2",
                       "--threads", "4", "--format", "json")
    assert code == EXIT_OK


def test_json_reports_round_trip_through_cli(capsys):
    report = decide_json(capsys, "--family", "Sn", "--n", "5", "--p", "2")
    assert DecisionReport.from_json(report.to_json()) == report


def test_auto_routing_agrees_with_brute_force(capsys):
    cases = [
        ("--fixture", str(FIXTURES / "g108.json")),
        ("--fixture", str(FIXTURES / "sl28.json")),
        ("--fixture", str(FIXTURES / "frobenius21.json")),
        ("--family", "Sn", "--n", "6"),
        ("--family", "An", "--n", "6"),
    ]
    for source in cases:
        auto = decide_json(capsys, *source, "--p", "2")
        brute = decide_json(capsys, *source, "--p", "2", "--method", "brute")
        assert auto.verdict == brute.verdict, source


def test_successive_calls_share_no_state(capsys):
    # the parser is built once per process; parsed options must not carry over
    _, out, _ = run(capsys, "cover", "--family", "Sn", "--n", "4", "--p", "2",
                    "--mode", "exact", "--format", "json")
    assert json.loads(out)["mode"] == "exact"
    _, out, _ = run(capsys, "cover", "--family", "Sn", "--n", "4", "--p", "2", "--format", "json")
    assert json.loads(out)["mode"] == "greedy"


@pytest.mark.parametrize("argv", [
    ["decide", "--family", "Sn", "--n", "-1", "--p", "2"],
    ["decide", "--family", "SL2", "--q", "1", "--p", "2"],
    ["decide", "--family", "GL", "--n", "0", "--q", "3", "--p", "3"],
    ["verify", "--family", "Sn", "--max-n", "4", "--p-list", "2,x"],
    ["verify", "--family", "SL2", "--q-list", "3,y", "--p", "2"],
    ["decide", "--fixture", "FAMILY_WITHOUT_PARAMS", "--p", "2"],
    # sweeps with no case
    ["verify", "--family", "An", "--p", "2", "--max-n", "2"],
    ["verify", "--family", "Sn", "--p", "2", "--max-n", "1"],
])
def test_malformed_family_input_is_bad_input(capsys, tmp_path, argv):
    fixture = tmp_path / "family.json"
    fixture.write_text(json.dumps({"kind": "family", "name": "Sn", "params": {}}))
    argv = [str(fixture) if arg == "FAMILY_WITHOUT_PARAMS" else arg for arg in argv]
    code, out, err = run(capsys, *argv)
    assert code == EXIT_BAD_INPUT
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize("method", ["brute", "auto"])
def test_elapsed_ms_includes_group_build(capsys, monkeypatch, method):
    build_family = cli.build_family

    def slow_build(*args, **kwargs):
        time.sleep(0.05)
        return build_family(*args, **kwargs)

    monkeypatch.setattr(cli, "build_family", slow_build)
    # no closed form applies to A_5 at p = 3, so auto builds the group too
    report = decide_json(capsys, "--family", "An", "--n", "5", "--p", "3", "--method", method)
    assert report.elapsed_ms >= 50


def test_benchmark_tracer_finds_every_traced_name(capsys):
    # the tracer wraps names where cli and the engine look them up, and raises
    # KeyError for one that is gone; a call path that bypasses a wrapped name
    # would leave its metric at 0 without any error, so every span must fire
    spec = importlib.util.spec_from_file_location("tracer", REPO_ROOT / "perfbench" / "tracer.py")
    tracer_module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer_module)
    tracer = tracer_module.Tracer()
    g108 = str(FIXTURES / "g108.json")
    commands = [
        ["decide", "--family", "PSL2", "--q", "7", "--p", "2", "--method", "brute", "--format", "json"],
        ["decide", "--fixture", g108, "--p", "2", "--format", "json"],
        ["cover", "--fixture", g108, "--p", "2", "--mode", "exact"],
        ["decide", "--fixture", str(FIXTURES / "sl23_matrix.json"), "--p", "2"],
        ["decide", "--family", "Sn", "--n", "9", "--p", "2"],
        ["decide", "--family", "An", "--n", "9", "--p", "2"],
        ["decide", "--family", "SL2", "--q", "9", "--p", "2"],
        ["decide", "--family", "GL", "--n", "3", "--q", "7", "--p", "3"],
    ]
    try:
        tracer.install()
        patched = list(tracer._patches)
        for argv in commands:
            assert cli.main(argv) == EXIT_OK, argv
    finally:
        tracer.uninstall()
    capsys.readouterr()
    assert all(owner.__dict__[attr] is original for owner, attr, original in patched)
    # no pipeline path calls FiniteGroup.subgroup_closure, so its span reads 0
    fired = {span[0] for span in tracer.spans}
    assert set(tracer_module.SPAN_METRICS) - fired == {"groups.subgroup_closure"}
    for name in ("perm.mul_calls", "linear.mul_calls", "sylow.find_sylow_calls",
                 "sylow.enumerate_sylows_calls", "criteria.runs"):
        assert tracer.counts[name] > 0, name


@pytest.mark.parametrize("argv", [
    ["decide", "--family", "Sn", "--n", "x", "--p", "2"],
    ["decide", "--format", "xml"],
    ["cover", "--mode", "fastest"],
    ["decide", "--bogus"],
    ["frobnicate"],
    [],
])
def test_usage_errors_are_one_line(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == EXIT_BAD_INPUT
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err.count("\n") == 1 and ": error: " in out.err
    assert "usage:" not in out.err


def test_usage_error_names_the_subcommand(capsys):
    with pytest.raises(SystemExit):
        main(["decide", "--family", "Sn", "--n", "x", "--p", "2"])
    assert capsys.readouterr().err == "sylowcover decide: error: argument --n: invalid int value: 'x'\n"


@pytest.mark.parametrize("argv", [
    # Theorem 5.1 decides both (p exactly divides q - 1 and n = p), and |G|
    # has far more digits than Python prints
    ["--family", "GL", "--n", "101", "--q", "607", "--p", "101"],
    ["--family", "GL", "--n", "1009", "--q", "10091", "--p", "1009"],
])
def test_gl_closed_form_order_too_long_to_print_is_bad_input(capsys, argv):
    start = time.perf_counter()
    code, out, err = run(capsys, "decide", *argv)
    assert time.perf_counter() - start < 1.0
    assert code == EXIT_BAD_INPUT
    assert out == "" and err.startswith("error: ") and err.count("\n") == 1


def test_gl_past_the_cap_without_a_closed_form_is_over_budget(capsys):
    # Theorem 5.1 needs an odd p, so GL(200,3) is built, and refused at once
    code, out, err = run(capsys, "decide", "--family", "GL", "--n", "200", "--q", "3", "--p", "2")
    assert code == EXIT_BUDGET
    assert out == "" and err.count("\n") == 1


def test_verify_sweeps_degrees_lazily():
    # a list of 10^8 cases would not fit in the 2 GB the child may map; the
    # sweep stops at S_7, the first group past the cap of 1000
    def limit_memory():
        resource.setrlimit(resource.RLIMIT_AS, (2 * 10**9, 2 * 10**9))

    start = time.perf_counter()
    child = subprocess.run(
        [sys.executable, "-m", "sylowcover.cli", "verify", "--family", "Sn", "--p", "2",
         "--max-n", "100000000", "--budget", "1000"],
        capture_output=True, text=True, preexec_fn=limit_memory, timeout=60,
        env={**os.environ, "PYTHONPATH": str(REPO_ROOT / "src")},
    )
    # interpreter start-up and import included
    assert time.perf_counter() - start < 2.0
    assert child.returncode == EXIT_BUDGET
    assert child.stdout == "" and child.stderr.startswith("error: ") and child.stderr.count("\n") == 1


@pytest.mark.parametrize("argv", [
    ["decide", "--family", "An", "--n", "9", "--p", "4"],
    ["decide", "--family", "An", "--n", "9", "--p", "4", "--method", "brute"],
    ["decide", "--family", "GL", "--n", "3", "--q", "4", "--p", "9", "--method", "fast"],
    ["decide", "--family", "An", "--n", "9", "--p", "1", "--method", "fast"],
    ["decide", "--fixture", str(FIXTURES / "g108.json"), "--p", "6"],
    ["cover", "--family", "Sn", "--n", "5", "--p", "4"],
    ["verify", "--family", "Sn", "--max-n", "5", "--p", "4"],
    ["verify", "--family", "SL2", "--q-list", "5,7", "--p-list", "2,3,4"],
])
def test_non_prime_p_is_refused_before_any_group_is_built(capsys, monkeypatch, argv):
    def no_build(*args, **kwargs):
        raise AssertionError("a group was built")

    monkeypatch.setattr(cli, "build_family", no_build)
    monkeypatch.setattr(cli, "load_fixture", no_build)
    code, out, err = run(capsys, *argv)
    assert code == EXIT_BAD_INPUT
    bad = argv[argv.index("--p-list" if "--p-list" in argv else "--p") + 1].split(",")[-1]
    assert out == "" and err == f"error: p must be prime, got {bad}\n"
