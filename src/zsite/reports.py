"""Shared report plumbing for all checkers.

Every check in this package returns data, never raises, for anything that is
a *verdict* (law broken, witness found, instance unverifiable).  Exceptions
are reserved for malformed inputs: unknown ids, type errors, blown budgets.
A Finding is one verdict row; a Report is an ordered, deduplicated bundle of
rows with a stable serialization, so identical inputs always render to
identical bytes.
"""

from __future__ import annotations

from .records import Value

# Finding kinds.  STRUCTURAL and LAW make a report failing; the other kinds
# are informational and leave `ok` untouched.
STRUCTURAL = "structural"
LAW = "law"
UNVERIFIABLE = "unverifiable"
SKIPPED = "skipped"
INFO = "info"

_FAILING_KINDS = frozenset({STRUCTURAL, LAW})
_KIND_ORDER = {STRUCTURAL: 0, LAW: 1, UNVERIFIABLE: 2, SKIPPED: 3, INFO: 4}


class Finding(Value):
    """One verdict row: which rule, on what witnesses, with a readable detail."""

    def __init__(self, kind: str, rule: str, witnesses: tuple[str, ...], detail: str):
        vars(self).update(kind=kind, rule=rule, witnesses=witnesses, detail=detail)

    def _values(self) -> tuple:
        # spelled out: Report.collect hashes every finding
        return (self.kind, self.rule, self.witnesses, self.detail)

    def to_json_dict(self) -> dict:
        return {
            "kind": self.kind,
            "rule": self.rule,
            "witnesses": list(self.witnesses),
            "detail": self.detail,
        }

    def render(self) -> str:
        where = ", ".join(self.witnesses) if self.witnesses else "-"
        return f"[{self.kind}] {self.rule} ({where}): {self.detail}"


def _finding_key(f: Finding) -> tuple:
    return (_KIND_ORDER.get(f.kind, 9), f.rule, f.witnesses, f.detail)


class Report(Value):
    """Ordered bundle of findings for one checked subject."""

    def __init__(self, subject: str, findings: tuple[Finding, ...] = ()):
        vars(self).update(subject=subject, findings=findings)

    @classmethod
    def collect(cls, subject: str, findings) -> "Report":
        rows = sorted(set(findings), key=_finding_key)
        return cls(subject=subject, findings=tuple(rows))

    @property
    def ok(self) -> bool:
        return not any(f.kind in _FAILING_KINDS for f in self.findings)

    @property
    def unverifiable(self) -> tuple[Finding, ...]:
        return tuple(f for f in self.findings if f.kind == UNVERIFIABLE)

    def failures(self) -> tuple[Finding, ...]:
        return tuple(f for f in self.findings if f.kind in _FAILING_KINDS)

    def merged_with(self, other: "Report") -> "Report":
        return Report.collect(self.subject, self.findings + other.findings)

    def render(self) -> str:
        head = f"{self.subject}: {'ok' if self.ok else 'FAIL'}"
        if not self.findings:
            return head
        body = "\n".join("  " + f.render() for f in self.findings)
        return head + "\n" + body


def structural(rule: str, witnesses, detail: str) -> Finding:
    return Finding(STRUCTURAL, rule, tuple(str(w) for w in witnesses), detail)


def law(rule: str, witnesses, detail: str) -> Finding:
    return Finding(LAW, rule, tuple(str(w) for w in witnesses), detail)


def unverifiable(rule: str, witnesses, detail: str) -> Finding:
    return Finding(UNVERIFIABLE, rule, tuple(str(w) for w in witnesses), detail)


def skipped(rule: str, witnesses, detail: str) -> Finding:
    return Finding(SKIPPED, rule, tuple(str(w) for w in witnesses), detail)


def info(rule: str, witnesses, detail: str) -> Finding:
    return Finding(INFO, rule, tuple(str(w) for w in witnesses), detail)
