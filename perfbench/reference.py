"""Reference answers for the permutation fixtures of ``small-auto``.

Run as a child process, before any timing, so that sympy's import and memory
stay out of the measured process:

    python3 perfbench/reference.py WORKDIR < requests.json > answers.json

The request is a JSON object mapping fixture paths (relative to WORKDIR) to
lists of primes.  For each (fixture, p) the answer holds:

- ``order``, ``nu`` and ``p_elements`` from sympy: the order from
  Schreier-Sims, nu_p as the conjugation orbit of ``sylow_subgroup(p)``, and
  the p-elements as the union of that orbit (every p-element lies in a
  Sylow p-subgroup);
- ``verdict``, from the same orbit: not-redundant exactly when some
  p-element lies in only one Sylow p-subgroup;
- ``brute_verdict``, from sylowcover's own ``decide --method brute``.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
from collections import Counter
from pathlib import Path


def sylow_orbit(gens: list[list[int]], sylow_elements) -> list[frozenset]:
    """All conjugates of one Sylow subgroup, each as a set of image tuples."""
    base = frozenset(tuple(x.array_form) for x in sylow_elements)
    seen = {base}
    orbit = [base]
    for sub in orbit:
        for g in gens:
            # g x g^-1 in image notation: point g[i] goes to g[x[i]]
            image = []
            for x in sub:
                y = [0] * len(g)
                for i, xi in enumerate(x):
                    y[g[i]] = g[xi]
                image.append(tuple(y))
            conj = frozenset(image)
            if conj not in seen:
                seen.add(conj)
                orbit.append(conj)
    return orbit


def fixture_answers(workdir: Path, rel: str, primes: list[int]) -> dict:
    from sympy.combinatorics import Permutation, PermutationGroup

    from sylowcover import cli

    gens = json.loads((workdir / rel).read_text())["generators"]
    group = PermutationGroup([Permutation(g) for g in gens])
    out = {"order": int(group.order()), "p": {}}
    for p in primes:
        orbit = sylow_orbit(gens, group.sylow_subgroup(p).generate())
        counts = Counter(x for sub in orbit for x in sub)
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = cli.main(["decide", "--method", "brute", "--format", "json",
                             "--fixture", str(workdir / rel), "--p", str(p)])
        if code != 0:
            raise RuntimeError(f"brute decide of {rel} at p={p} exited {code}")
        out["p"][str(p)] = {
            "nu": len(orbit),
            "p_elements": len(counts),
            "verdict": "not-redundant" if 1 in counts.values() else "redundant",
            "brute_verdict": json.loads(buf.getvalue())["verdict"],
        }
    return out


def main() -> int:
    workdir = Path(sys.argv[1])
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    requests = json.load(sys.stdin)
    answers = {rel: fixture_answers(workdir, rel, primes) for rel, primes in requests.items()}
    sys.stdout.write(json.dumps(answers))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
