"""Pass/fail validation reports with violation witnesses.

A report never hides failures behind an exception: validators return the
violating witnesses so callers (and certificates) can show exactly what
broke.  A list cut at a validator's witness cap is marked truncated.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .rationals import rat_json


@dataclass(frozen=True)
class Violation:
    rule: str
    witness: tuple
    message: str

    def to_json(self) -> dict:
        return {
            "rule": self.rule,
            "witness": [_jsonable(w) for w in self.witness],
            "message": self.message,
        }


@dataclass(frozen=True)
class ValidationReport:
    subject: str
    checked: tuple[str, ...]
    violations: tuple[Violation, ...] = field(default_factory=tuple)
    # the validator stopped at its witness cap: more violations exist
    truncated: bool = False

    @property
    def ok(self) -> bool:
        return not self.violations

    def require(self) -> "ValidationReport":
        if not self.ok:
            first = self.violations[0]
            raise ValueError(
                f"{self.subject}: {len(self.violations)} violation(s); "
                f"first: {first.rule} {first.message}"
            )
        return self

    def to_json(self) -> dict:
        out = {
            "subject": self.subject,
            "checked": list(self.checked),
            "ok": self.ok,
            "violations": [v.to_json() for v in self.violations],
        }
        if self.truncated:  # only a capped report says so
            out["truncated"] = True
        return out


def _jsonable(value):
    from fractions import Fraction

    if isinstance(value, (int, Fraction)) and not isinstance(value, bool):
        return rat_json(value)
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    return value
