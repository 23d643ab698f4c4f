"""Check results and verification reports shared by the library and the CLI."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Tuple


@dataclass(frozen=True)
class CheckResult:
    """Outcome of one verified identity.

    expected_discrepancy marks a mismatch that is a documented property of
    the source material rather than a defect; such cases do not fail a run.
    """

    check_id: str
    holds: bool
    inputs: Tuple[Tuple[str, str], ...] = ()
    lhs: str = ""
    rhs: str = ""
    notes: str = ""
    expected_discrepancy: bool = False

    @property
    def ok(self) -> bool:
        return self.holds or self.expected_discrepancy

    def as_dict(self) -> Dict:
        data = {
            "id": self.check_id,
            "inputs": {key: value for key, value in self.inputs},
            "holds": self.holds,
        }
        if self.lhs:
            data["lhs"] = self.lhs
        if self.rhs:
            data["rhs"] = self.rhs
        if self.notes:
            data["notes"] = self.notes
        if self.expected_discrepancy:
            data["expected_discrepancy"] = True
        return data


@dataclass
class VerificationReport:
    suite: str
    config: Dict[str, int] = field(default_factory=dict)
    cases: List[CheckResult] = field(default_factory=list)

    def add(self, result: CheckResult) -> None:
        self.cases.append(result)

    def extend(self, results) -> None:
        self.cases.extend(results)

    def sort(self) -> None:
        self.cases.sort(key=lambda c: c.check_id)

    @property
    def passed(self) -> int:
        return sum(1 for c in self.cases if c.holds)

    @property
    def expected(self) -> int:
        return sum(1 for c in self.cases if not c.holds and c.expected_discrepancy)

    @property
    def failed(self) -> int:
        return sum(1 for c in self.cases if not c.ok)

    @property
    def all_ok(self) -> bool:
        """No unexpected failure, and at least one case: an empty sweep
        checks nothing, so it is not a pass."""
        return bool(self.cases) and self.failed == 0

    def as_dict(self) -> Dict:
        return {
            "suite": self.suite,
            "config": dict(self.config),
            "cases": [c.as_dict() for c in self.cases],
            "summary": {
                "total": len(self.cases),
                "passed": self.passed,
                "expected_discrepancies": self.expected,
                "failed": self.failed,
            },
        }

    def render_text(self) -> str:
        lines = [f"suite: {self.suite}"]
        if self.config:
            settings = ", ".join(f"{k}={v}" for k, v in sorted(self.config.items()))
            lines.append(f"config: {settings}")
        for case in self.cases:
            if case.holds:
                status = "ok"
            elif case.expected_discrepancy:
                status = "expected-discrepancy"
            else:
                status = "FAIL"
            line = f"  [{status}] {case.check_id}"
            if case.notes:
                line += f"  ({case.notes})"
            lines.append(line)
            if not case.ok and case.lhs:
                lines.append(f"      lhs: {case.lhs}")
                lines.append(f"      rhs: {case.rhs}")
        lines.append(
            f"summary: {len(self.cases)} checks, {self.passed} passed, "
            f"{self.expected} expected discrepancies, {self.failed} failed"
        )
        return "\n".join(lines)
