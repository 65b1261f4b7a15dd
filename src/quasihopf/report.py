"""Check reports: deterministic lists of {id, status, details} items."""

from __future__ import annotations

import json
from dataclasses import dataclass, field


@dataclass(frozen=True)
class ReportItem:
    id: str
    status: str  # "pass" | "fail"
    details: str = ""

    @property
    def ok(self) -> bool:
        return self.status == "pass"


@dataclass
class Report:
    title: str = ""
    items: list[ReportItem] = field(default_factory=list)

    def add(self, check_id: str, ok: bool, details: str = "") -> bool:
        self.items.append(ReportItem(check_id, "pass" if ok else "fail", details))
        return ok

    def extend(self, other: "Report") -> None:
        self.items.extend(other.items)

    @property
    def ok(self) -> bool:
        return all(item.ok for item in self.items)

    def require(self, message: str) -> "Report":
        """self when ok; otherwise raise VerificationFailure(message, self)."""
        if not self.ok:
            raise VerificationFailure(message, self)
        return self

    def failures(self) -> list[ReportItem]:
        return [item for item in self.items if not item.ok]

    def render_text(self) -> str:
        lines = []
        if self.title:
            lines.append(f"== {self.title}")
        for item in self.items:
            mark = "PASS" if item.ok else "FAIL"
            line = f"[{mark}] {item.id}"
            if item.details:
                line += f"  ({item.details})"
            lines.append(line)
        lines.append(f"{'OK' if self.ok else 'FAILED'}: {sum(i.ok for i in self.items)}/{len(self.items)} checks passed")
        return "\n".join(lines)

    def to_json_obj(self):
        return [{"id": i.id, "status": i.status, "details": i.details} for i in self.items]

    def render_json(self) -> str:
        return json.dumps({"title": self.title, "ok": self.ok, "items": self.to_json_obj()},
                          indent=2, sort_keys=True)


class VerificationFailure(Exception):
    """A required exact identity did not hold."""

    def __init__(self, message: str, report: Report | None = None):
        super().__init__(message)
        self.report = report
