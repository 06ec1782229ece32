"""Pass/fail reports collected by the verification suites."""
from __future__ import annotations

from dataclasses import dataclass, field


@dataclass
class Check:
    name: str
    ok: bool
    detail: str = ""

    def line(self) -> str:
        status = "ok" if self.ok else "FAIL"
        return f"{status}\t{self.name}" + (f"\t{self.detail}" if self.detail else "")


@dataclass
class Report:
    """An ordered list of named checks; a report passes if every check does."""

    title: str
    checks: list[Check] = field(default_factory=list)

    def add(self, name: str, ok: bool, detail: str = "") -> None:
        self.checks.append(Check(name, bool(ok), detail))

    def extend(self, other: "Report") -> None:
        self.checks.extend(other.checks)

    @property
    def passed(self) -> bool:
        return all(c.ok for c in self.checks)

    @property
    def failures(self) -> list[Check]:
        return [c for c in self.checks if not c.ok]

    def summary(self) -> str:
        n_fail = len(self.failures)
        return f"{self.title}: {len(self.checks) - n_fail}/{len(self.checks)} checks passed"
