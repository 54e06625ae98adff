"""Harness self-test for the benchmark.

    python3 perfbench/selftest.py

Runs every workload on a cut-down case set (``--limit``) and asserts that:

- no command fails and the result is correct;
- the end-to-end run prints every ``end_to_end`` metric of BENCHMARK.json,
  with its unit, and ``failed_ratio``;
- two traced runs with the same seed print every ``per_layer`` metric with
  its unit and give identical counts;
- each workload bypasses the layers it is meant to bypass: no matrix
  products on perm-brute, no structural criteria on the brute-force
  workloads, and cover-search nodes only on small-auto.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())
LIMITS = {"perm-brute": 2, "matrix-brute": 2, "small-auto": 12}
SEED = 7


def run(workload: str, trace: int) -> tuple[str, dict]:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(SEED),
         "--seconds", "1", "--trace", str(trace), "--limit", str(LIMITS[workload])],
        capture_output=True, text=True, check=True, timeout=170,
    )
    lines = proc.stdout.strip().splitlines()
    return "\n".join(lines[:-1]), json.loads(lines[-1])


def check_metrics(workload: str, text: str, result: dict, spec: list[dict]) -> None:
    assert result["correct"] and result["failed"] == 0, f"{workload}: {result}"
    assert result["attempted"] >= 1, workload
    metrics = result["metrics"]
    assert set(metrics) == {m["name"] for m in spec}, f"{workload}: {sorted(metrics)}"
    for m in spec:
        assert metrics[m["name"]]["unit"] == m["unit"], f"{workload}: unit of {m['name']}"
        assert any(line.split()[:1] == [m["name"]] and line.split()[2] == m["unit"]
                   for line in text.splitlines()), f"{workload}: {m['name']} not printed"


def main() -> int:
    for workload in LIMITS:
        text, result = run(workload, 0)
        check_metrics(workload, text, result, SPEC["end_to_end"])
        assert "failed_ratio" in text, workload

        text, first = run(workload, 1)
        check_metrics(workload, text, first, SPEC["per_layer"])
        _, second = run(workload, 1)
        counts = {name: m["value"] for name, m in first["metrics"].items() if m["unit"] == "count"}
        again = {name: m["value"] for name, m in second["metrics"].items() if m["unit"] == "count"}
        assert counts == again, f"{workload}: counts differ between traced runs"

        brute = workload != "small-auto"
        if workload == "perm-brute":
            assert counts["linear.mul_calls"] == 0, counts
        assert (counts["criteria.runs"] == 0) == brute, counts
        assert (counts["sylow.cover_nodes"] > 0) != brute, counts
        print(f"{workload}: ok ({result['attempted']} commands; counts repeat exactly)")
    print("selftest passed")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
