"""Per-layer spans and counters, installed around sylowcover from outside.

Wrappers replace each traced function where its callers look it up: on the
class for ``FiniteGroup`` methods and the two key-level ``mul`` methods, and
in every module that imported a function by name.  A span records
(name, start, end, parent span, command); spans stay in memory until the run
ends.  A layer's self time is the time of its spans minus the time of their
direct child spans, so the self times of all layers plus the harness add up
to the traced wall time.  ``mul`` calls are counted, not timed: a span per
product would cost more than the product.
"""

from __future__ import annotations

import functools
import json
import time
from collections import defaultdict
from pathlib import Path

# span name -> metric name of its self time
SPAN_METRICS = {
    "groups.build": "groups.build_s",
    "groups.p_elements": "groups.p_elements_s",
    "groups.normalizer": "groups.normalizer_s",
    "groups.subgroup_closure": "groups.subgroup_closure_s",
    "groups.largest_normal_p_subgroup": "groups.largest_normal_p_subgroup_s",
    "linear.closed_form": "linear.closed_form_s",
    "symmetric.closed_form": "symmetric.closed_form_s",
    "sylow.find_sylow": "sylow.find_sylow_s",
    "sylow.enumerate_sylows": "sylow.enumerate_sylows_self_s",
    "sylow.decide_redundant_bruteforce": "sylow.decide_redundant_bruteforce_self_s",
    "sylow.minimal_cover": "sylow.minimal_cover_s",
    "criteria.run_structural_criteria": "criteria.run_structural_criteria_self_s",
    "fixtures.load_fixture": "fixtures.load_fixture_self_s",
    "fixtures.build_family": "fixtures.build_family_self_s",
    "report.to_json": "report.to_json_s",
    "cli.main": "cli.main_self_s",
}
COUNT_METRICS = (
    "groups.elements",
    "groups.mul_calls",
    "groups.p_elements_calls",
    "groups.subgroup_closure_calls",
    "perm.mul_calls",
    "linear.mul_calls",
    "sylow.find_sylow_calls",
    "sylow.enumerate_sylows_calls",
    "sylow.nu_total",
    "sylow.cover_nodes",
    "criteria.runs",
    "criteria.decisive_runs",
)


class Tracer:
    """Owns the spans and counters of one traced sweep."""

    def __init__(self) -> None:
        self.spans: list = []
        self.counts = dict.fromkeys(COUNT_METRICS, 0)
        self.command = -1
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- wrappers ----------------------------------------------------------

    def _span(self, name: str, fn, after=None):
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (name, start, end, parent, self.command)
            if after is not None:
                after(args, result)
            return result

        return wrapper

    def _counter(self, name: str, fn):
        """Counts calls of a two-argument method such as `mul`."""
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(owner, a, b):
            counts[name] += 1
            return fn(owner, a, b)

        return wrapper

    def _patch(self, owner, attr: str, wrapper) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, wrapper)

    def install(self) -> None:
        from sylowcover import cli, criteria, fixtures, groups, linear, perm, report, sylow

        counts = self.counts
        fg = groups.FiniteGroup

        def built(args, _):
            counts["groups.elements"] += args[0].order

        def enumerated(_, system):
            counts["sylow.enumerate_sylows_calls"] += 1
            counts["sylow.nu_total"] += system.nu

        def covered(_, result):
            counts["sylow.cover_nodes"] += result.nodes

        def criteria_ran(_, result):
            counts["criteria.runs"] += 1
            counts["criteria.decisive_runs"] += result[0] is not None

        def counted(name):
            def after(args, result):
                counts[name] += 1
            return after

        self._patch(fg, "__init__", self._span("groups.build", fg.__init__, built))
        self._patch(fg, "mul", self._counter("groups.mul_calls", fg.mul))
        self._patch(fg, "p_elements", self._span(
            "groups.p_elements", fg.p_elements, counted("groups.p_elements_calls")))
        self._patch(fg, "normalizer", self._span("groups.normalizer", fg.normalizer))
        self._patch(fg, "subgroup_closure", self._span(
            "groups.subgroup_closure", fg.subgroup_closure, counted("groups.subgroup_closure_calls")))
        self._patch(fg, "largest_normal_p_subgroup", self._span(
            "groups.largest_normal_p_subgroup", fg.largest_normal_p_subgroup))
        self._patch(perm.PermutationOps, "mul", self._counter("perm.mul_calls", perm.PermutationOps.mul))
        self._patch(linear.MatrixOps, "mul", self._counter("linear.mul_calls", linear.MatrixOps.mul))

        find_sylow = self._span("sylow.find_sylow", sylow.find_sylow, counted("sylow.find_sylow_calls"))
        enumerate_sylows = self._span("sylow.enumerate_sylows", sylow.enumerate_sylows, enumerated)
        bruteforce = self._span("sylow.decide_redundant_bruteforce", sylow.decide_redundant_bruteforce)
        build_family = self._span("fixtures.build_family", fixtures.build_family)
        # largest_normal_p_subgroup imports find_sylow from sylow at call time
        for module, attr, wrapper in (
            (sylow, "find_sylow", find_sylow),
            (criteria, "find_sylow", find_sylow),
            (sylow, "enumerate_sylows", enumerate_sylows),
            (criteria, "enumerate_sylows", enumerate_sylows),
            (cli, "enumerate_sylows", enumerate_sylows),
            (sylow, "decide_redundant_bruteforce", bruteforce),
            (cli, "decide_redundant_bruteforce", bruteforce),
            (cli, "minimal_cover", self._span("sylow.minimal_cover", cli.minimal_cover, covered)),
            (cli, "run_structural_criteria", self._span(
                "criteria.run_structural_criteria", cli.run_structural_criteria, criteria_ran)),
            (cli, "load_fixture", self._span("fixtures.load_fixture", cli.load_fixture)),
            (cli, "build_family", build_family),
            (fixtures, "build_family", build_family),
            (cli, "theorem_D_decide", self._span("linear.closed_form", cli.theorem_D_decide)),
            (cli, "theorem_51_decide", self._span("linear.closed_form", cli.theorem_51_decide)),
            (cli, "theorem_B_decide", self._span("symmetric.closed_form", cli.theorem_B_decide)),
            (cli, "unique_sylow_witness", self._span("symmetric.closed_form", cli.unique_sylow_witness)),
            (report.DecisionReport, "to_json", self._span("report.to_json", report.DecisionReport.to_json)),
            (cli, "main", self._span("cli.main", cli.main)),
        ):
            self._patch(module, attr, wrapper)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- results -----------------------------------------------------------

    def self_times(self) -> dict[str, float]:
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        totals: dict[str, float] = defaultdict(float)
        for i, (name, start, end, _, _) in enumerate(self.spans):
            totals[name] += end - start - child_time[i]
        return totals

    def metrics(self) -> dict[str, tuple[float, str]]:
        """Every per-layer metric as name -> (value, unit)."""
        selfs = self.self_times()
        out: dict[str, tuple[float, str]] = {
            metric: (selfs.get(span, 0.0), "s") for span, metric in SPAN_METRICS.items()
        }
        for name in COUNT_METRICS:
            if name != "criteria.decisive_runs":
                out[name] = (self.counts[name], "count")
        runs = self.counts["criteria.runs"]
        out["criteria.decisive_ratio"] = (
            self.counts["criteria.decisive_runs"] / runs if runs else 0.0, "ratio")
        return out

    def write(self, path: Path) -> None:
        """Spans as JSON lines: name, start and end in seconds, parent, command."""
        path.parent.mkdir(parents=True, exist_ok=True)
        origin = self.spans[0][1] if self.spans else 0.0
        with path.open("w") as out:
            for name, start, end, parent, command in self.spans:
                out.write(json.dumps([name, start - origin, end - origin, parent, command]) + "\n")
