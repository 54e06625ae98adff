"""Machine-readable decision and criterion reports.

These are the wire formats of the command-line tool: a report serializes to
JSON and parses back to an equal object.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any, Optional

from .errors import DomainError

VERDICTS = ("redundant", "not-redundant")
CRITERION_VERDICTS = ("implies-redundant", "implies-not-redundant", "inconclusive")


@dataclass
class CriterionOutcome:
    """Result of one redundancy criterion on one group."""

    name: str
    applicable: bool
    verdict: str
    evidence: dict[str, Any] = field(default_factory=dict)

    def __post_init__(self):
        if self.verdict not in CRITERION_VERDICTS:
            raise DomainError(f"bad criterion verdict {self.verdict!r}")
        if not self.applicable and self.verdict != "inconclusive":
            raise DomainError("an inapplicable criterion cannot carry a verdict")

    def to_dict(self) -> dict[str, Any]:
        """The fields in declaration order."""
        return dict(vars(self))

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "CriterionOutcome":
        return cls(
            name=data["name"],
            applicable=data["applicable"],
            verdict=data["verdict"],
            evidence=data.get("evidence", {}),
        )


@dataclass
class DecisionReport:
    """Verdict on whether a group has a redundant Sylow p-subgroup."""

    group: str
    order: int
    p: int
    verdict: str
    method: str
    witness: Optional[str]
    nu_p: Optional[int]
    criteria: list[CriterionOutcome]
    elapsed_ms: float

    def __post_init__(self):
        if self.verdict not in VERDICTS:
            raise DomainError(f"bad verdict {self.verdict!r}")
        if self.witness is not None and self.verdict != "not-redundant":
            raise DomainError("a witness element implies the verdict not-redundant")
        if self.method == "brute-force" and self.nu_p is None:
            raise DomainError("brute-force reports must carry nu_p")

    def to_dict(self) -> dict[str, Any]:
        """The fields in declaration order, criteria as dicts."""
        return {**vars(self), "criteria": [c.to_dict() for c in self.criteria]}

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2)

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "DecisionReport":
        required = {key: data[key] for key in ("group", "order", "p", "verdict", "method", "elapsed_ms")}
        return cls(
            **required,
            witness=data.get("witness"),
            nu_p=data.get("nu_p"),
            criteria=[CriterionOutcome.from_dict(c) for c in data.get("criteria", [])],
        )

    @classmethod
    def from_json(cls, text: str) -> "DecisionReport":
        return cls.from_dict(json.loads(text))

    def to_text(self) -> str:
        lines = [
            f"group:   {self.group} (order {self.order})",
            f"p:       {self.p}",
            f"verdict: {self.verdict}",
            f"method:  {self.method}",
        ]
        if self.nu_p is not None:
            lines.append(f"nu_p:    {self.nu_p}")
        if self.witness is not None:
            lines.append(f"witness: {self.witness} (lies in a unique Sylow {self.p}-subgroup)")
        for c in self.criteria:
            status = c.verdict if c.applicable else "hypotheses not met"
            lines.append(f"criterion {c.name}: {status}")
        lines.append(f"elapsed: {self.elapsed_ms:.1f} ms")
        return "\n".join(lines)
