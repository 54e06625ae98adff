"""sylowcover benchmark: drives the real CLI in-process and checks every answer.

    python3 perfbench/run.py --workload perm-brute --seed 1 --seconds 60 --trace 0

Runs from any working directory; it builds sylowcover from ``src/`` of the
checkout that holds this file and reads and writes only inside that checkout
(``.bench_out/``).  One process, one thread: each command is one call of
``sylowcover.cli.main(argv)`` with stdout captured, timed from outside.  A
sweep runs the workload's fixed case set once; sweeps repeat while another
one fits in ``--seconds`` (at least one always runs), the time left gives the
cheapest commands more tries, and each command is timed by its best try.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` runs one plain
sweep and one traced sweep and reports the per-layer metrics of the traced
one (see tracer.py), its overhead, and writes the spans to ``.bench_out/``.
The last line of stdout is the JSON result; the lines before it print every
metric by name and unit.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

from checks import check, pinned_reference
from workloads import EXACT_COVER_MAX_NU, PINNED_FIXTURES, WORKLOADS, prepare

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".bench_out"
SETUP_REPEATS = 2  # fresh-process set-ups before and after the sweeps
SETUP_SPACING = 12  # and one between passes, at most every --seconds / 12
CHILD_TIMEOUT_S = 150


def load_cli():
    """Import sylowcover from this checkout's src/, never from elsewhere."""
    src = ROOT / "src"
    if not (src / "sylowcover" / "__init__.py").is_file():
        raise SystemExit(f"error: no sylowcover package under {src}")
    sys.path.insert(0, str(src))
    from sylowcover import cli

    if Path(cli.__file__).resolve().parent != src / "sylowcover":
        raise SystemExit(f"error: imported sylowcover from {cli.__file__}, not {src}")
    return cli


def setup_times(args, tag: str, repeats: int = SETUP_REPEATS) -> list[float]:
    """Wall time of fresh processes that import sylowcover and write the inputs."""
    times = []
    for i in range(repeats):
        workdir = OUT / f"setup-{os.getpid()}-{tag}{i}"
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
               "--seed", str(args.seed), "--setup-only", str(workdir)]
        if args.limit is not None:
            cmd += ["--limit", str(args.limit)]
        start = time.perf_counter()
        proc = subprocess.Popen(cmd)
        # wait() with a timeout polls, sleeping up to 50 ms between polls,
        # which rounded every set-up up to the next poll; without one it
        # blocks in waitpid and returns as the child ends
        timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            code = proc.wait()
        finally:
            timer.cancel()
            timer.join()
            if proc.poll() is None:  # interrupted: stop the child too
                proc.kill()
                proc.wait()
        times.append(time.perf_counter() - start)
        if code != 0:
            raise subprocess.CalledProcessError(code, cmd)
        shutil.rmtree(workdir, ignore_errors=True)
    return times


def references(cases, workdir: Path) -> dict:
    """Reference answers for the fixture cases, computed before any timing."""
    refs = {}
    requests: dict[str, list[int]] = {}
    for case in cases:
        if case.fixture is None:
            continue
        stem = Path(case.fixture).stem
        if stem in PINNED_FIXTURES:
            refs[case.fixture] = pinned_reference(*PINNED_FIXTURES[stem])
        elif case.p not in requests.setdefault(case.fixture, []):
            requests[case.fixture].append(case.p)
    if requests:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve().parent / "reference.py"), str(workdir)],
            input=json.dumps(requests), capture_output=True, text=True, check=True,
            timeout=CHILD_TIMEOUT_S,
        )
        refs.update(json.loads(proc.stdout))
    for case in cases:
        if case.mode == "exact" and refs[case.fixture]["p"][str(case.p)]["nu"] > EXACT_COVER_MAX_NU:
            case.mode = "greedy"
            case.argv[case.argv.index("exact")] = "greedy"
    return refs


def sweep(cli, cases, refs, tracer=None) -> tuple[list[float], list[str]]:
    """Run every case once; returns per-command seconds and failure reasons."""
    latencies = []
    failures = []
    for i, case in enumerate(cases):
        if tracer is not None:
            tracer.command = i
        out, err = io.StringIO(), io.StringIO()
        reason = None
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            start = time.perf_counter()
            try:
                code = cli.main(case.argv)
            except SystemExit as exc:
                code = exc.code
            except Exception as exc:  # a crash is a failed command, not a failed run
                code, reason = None, f"raised {exc!r}"
            latencies.append(time.perf_counter() - start)
        if reason is None:
            reason = check(case, code, out.getvalue(), refs)
        if reason is not None:
            failures.append(f"{' '.join(case.argv)}: {reason} {err.getvalue().strip()}")
        # each CLI call is its own process for a user, so no garbage carries over
        gc.collect()
    return latencies, failures


def _beta_cf(a: float, b: float, x: float) -> float:
    """Continued fraction of the incomplete beta function (modified Lentz)."""
    tiny = 1e-300
    c, d = 1.0, 1.0 - (a + b) * x / (a + 1.0)
    d = 1.0 / (d if abs(d) > tiny else tiny)
    h = d
    for m in range(1, 10_000):
        for aa in (m * (b - m) * x / ((a + 2 * m - 1) * (a + 2 * m)),
                   -(a + m) * (a + b + m) * x / ((a + 2 * m) * (a + 2 * m + 1))):
            d = 1.0 + aa * d
            d = 1.0 / (d if abs(d) > tiny else tiny)
            c = 1.0 + aa / c
            c = c if abs(c) > tiny else tiny
            h *= d * c
        if abs(d * c - 1.0) < 1e-13:
            return h
    raise ArithmeticError("incomplete beta did not converge")


def _beta_cdf(a: float, b: float, x: float) -> float:
    if x <= 0.0:
        return 0.0
    if x >= 1.0:
        return 1.0
    front = math.exp(math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
                     + a * math.log(x) + b * math.log1p(-x))
    if x < (a + 1.0) / (a + b + 2.0):
        return front * _beta_cf(a, b, x) / a
    return 1.0 - front * _beta_cf(b, a, 1.0 - x) / b


def percentile(values: list[float], p: float) -> float:
    """Harrell-Davis estimate of the p-quantile.

    A Beta((n+1)p, (n+1)(1-p))-weighted mean of the order statistics.  With
    the 20-odd commands of a brute-force sweep the sample median is one
    command's time; this estimate averages its neighbours too, so it varies
    far less from run to run.  Weights beyond 12 standard deviations of the
    Beta distribution are below 1e-30 and skipped.
    """
    xs = sorted(values)
    n = len(xs)
    a, b = p * (n + 1), (1 - p) * (n + 1)
    sd = math.sqrt(p * (1 - p) / (n + 2))
    lo = max(0, math.floor((p - 12 * sd) * n))
    hi = min(n, math.ceil((p + 12 * sd) * n))
    cdf = [_beta_cdf(a, b, i / n) for i in range(lo, hi + 1)]
    return sum(xs[lo + i] * (cdf[i + 1] - cdf[i]) for i in range(hi - lo))


def end_to_end(cli, cases, refs, args):
    # the host's speed drifts over seconds, so set-up is sampled across the run
    setup = setup_times(args, "a")
    tries: list[list[float]] = [[] for _ in cases]
    sweeps, attempted, failures = 0, 0, []
    start = last_setup = time.perf_counter()
    while True:
        elapsed = time.perf_counter() - start
        if sweeps == 0 or elapsed + elapsed / sweeps <= args.seconds:
            chosen = list(range(len(cases)))
            sweeps += 1
        else:
            # The rest of the run, too short for another sweep, gives the
            # cheapest commands more tries: the median lies among them, and a
            # perm-brute sweep fits only two or three times in a run.  Each
            # pass takes at most half the time left, so the cheapest commands
            # get the most passes.
            chosen, cost = [], 0.0
            for i in sorted(range(len(cases)), key=lambda i: min(tries[i])):
                cost += 1.5 * min(tries[i])  # gc.collect() and the check cost extra
                if cost > (args.seconds - elapsed) / 2:
                    break
                chosen.append(i)
            if not chosen:
                break
        times, failed = sweep(cli, [cases[i] for i in chosen], refs)
        for i, t in zip(chosen, times):
            tries[i].append(t)
        attempted += len(chosen)
        failures += failed
        if time.perf_counter() - last_setup >= args.seconds / SETUP_SPACING:
            setup += setup_times(args, f"p{attempted}-", 1)
            last_setup = time.perf_counter()
    setup += setup_times(args, "b")
    # Each command's best time.  Other load on the host only ever adds time,
    # and its slow phases last seconds, so the best of several tries spread
    # over the run is what repeats from run to run.
    best_ms = [min(own) * 1000.0 for own in tries]
    metrics = {
        "setup_s": (statistics.median(setup), "s"),
        "wall_s": (sum(best_ms) / 1000.0, "s"),
        "case_ms_p50": (percentile(best_ms, 0.5), "ms"),
        "case_ms_p90": (percentile(best_ms, 0.9), "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    counts = sorted(len(own) for own in tries)
    best_of = f"each its best of {counts[0]}-{counts[-1]} tries ({sweeps} sweeps)"
    notes = {
        "setup_s": f"median of {len(setup)} fresh-process set-ups",
        "wall_s": f"sum over {len(cases)} commands, {best_of}",
        "case_ms_p50": f"n={len(best_ms)} commands, {best_of}",
        "case_ms_p90": f"n={len(best_ms)}, {len(best_ms) - int(0.9 * len(best_ms))} beyond",
    }
    return metrics, notes, attempted, failures


def traced(cli, cases, refs, workload: str, seed: int):
    from tracer import Tracer

    plain, failures = sweep(cli, cases, refs)
    tracer = Tracer()
    tracer.install()
    try:
        times, failed = sweep(cli, cases, refs, tracer)
    finally:
        tracer.uninstall()
    failures += failed
    metrics = tracer.metrics()
    metrics["trace.overhead_ratio"] = (sum(times) / sum(plain), "ratio")
    spans = OUT / f"spans-{workload}-seed{seed}.jsonl"
    tracer.write(spans)
    notes = {"trace.overhead_ratio": f"traced wall_s {sum(times):.3f} s / plain {sum(plain):.3f} s",
             "spans": f"{len(tracer.spans)} spans in {spans.relative_to(ROOT)}"}
    return metrics, notes, len(plain) + len(times), failures


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=60.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--limit", type=int, help="cut-down case set for the harness self-test")
    parser.add_argument("--setup-only", type=Path, metavar="DIR",
                        help="only import sylowcover and write the inputs to DIR (set-up timing)")
    args = parser.parse_args()

    cli = load_cli()
    if args.setup_only is not None:
        prepare(args.workload, args.seed, ROOT, args.setup_only, args.limit)
        return 0

    workdir = OUT / f"{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True)
    cases = prepare(args.workload, args.seed, ROOT, workdir, args.limit)
    refs = references(cases, workdir)
    # the harness's own objects stay out of the collections the commands pay for
    gc.collect()
    gc.freeze()
    os.chdir(workdir)
    try:
        if args.trace:
            metrics, notes, attempted, failures = traced(cli, cases, refs, args.workload, args.seed)
        else:
            metrics, notes, attempted, failures = end_to_end(cli, cases, refs, args)
    finally:
        os.chdir(ROOT)
        shutil.rmtree(workdir)

    for reason in failures[:20]:
        print(f"FAILED {reason}", file=sys.stderr)
    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}: "
          f"{attempted} commands, {len(failures)} failed")
    for name, (value, unit) in metrics.items():
        note = f"  ({notes[name]})" if name in notes else ""
        print(f"  {name:<44} {value:>14.6g} {unit}{note}")
    if not args.trace:
        print(f"  {'failed_ratio':<44} {len(failures) / attempted:>14.6g} ratio")
    if "spans" in notes:
        print(f"  {notes['spans']}")
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
