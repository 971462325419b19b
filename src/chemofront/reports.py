"""Machine-checkable inequality reports shared by the diagnostic modules."""

from __future__ import annotations

from dataclasses import asdict, dataclass, field


@dataclass(frozen=True)
class Check:
    """One literal `lhs <= rhs + slack` comparison with a claim tag."""

    name: str
    claim: str
    lhs: float
    rhs: float
    slack: float

    @property
    def passed(self) -> bool:
        return self.lhs <= self.rhs + self.slack

    def to_dict(self) -> dict:
        return {**asdict(self), "pass": self.passed}


@dataclass
class BoundsReport:
    checks: list[Check] = field(default_factory=list)

    def add(self, name: str, claim: str, lhs: float, rhs: float, slack: float = 0.0) -> Check:
        check = Check(name=name, claim=claim, lhs=float(lhs), rhs=float(rhs), slack=float(slack))
        self.checks.append(check)
        return check

    def __getitem__(self, name: str) -> Check:
        for check in self.checks:
            if check.name == name:
                return check
        raise KeyError(name)

    @property
    def all_passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def failures(self) -> list[Check]:
        return [c for c in self.checks if not c.passed]

    def to_dict(self) -> dict:
        return {"checks": [c.to_dict() for c in self.checks], "all_passed": self.all_passed}
