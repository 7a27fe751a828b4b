"""Check records and their serializations.

Machine-readable records go to stdout as tab-separated lines

    check_id <TAB> subject <TAB> verdict <TAB> residual <TAB> anchor

in a fixed order, so repeated runs are byte-identical.  The verdict
vocabulary deliberately separates "this identity failed" (``fail``, the
only verdict that affects the exit code) from descriptive outcomes such
as ``not-associated`` or a candidate classification.
"""

from __future__ import annotations

from .exprs import Value


class Record(Value):
    """One check; no field may hold a tab or a newline."""

    __slots__ = _fields = ("check_id", "subject", "verdict", "residual", "anchor")

    def __init__(self, check_id: str, subject: str, verdict: str, residual: str, anchor: str) -> None:
        for name, value in zip(self._fields, (check_id, subject, verdict, residual, anchor)):
            if "\t" in value or "\n" in value:
                raise ValueError(f"record field {name} contains a separator")
            object.__setattr__(self, name, value)

    def tsv(self) -> str:
        return "\t".join(self._key())


class Report:
    def __init__(self, command: str) -> None:
        self.command = command
        self.records: list[Record] = []

    def add(self, check_id: str, subject: str, verdict: str, residual: str, anchor: str) -> None:
        self.records.append(Record(check_id, subject, verdict, residual, anchor))

    def any_failed(self) -> bool:
        return any(r.verdict == "fail" for r in self.records)

    def tsv(self) -> str:
        return "".join(r.tsv() + "\n" for r in self.records)

    def to_json(self) -> str:
        import json  # only --json-out writes JSON

        payload = {
            "command": self.command,
            "records": [dict(zip(Record._fields, r._key())) for r in self.records],
        }
        return json.dumps(payload, indent=2, sort_keys=True) + "\n"

    def summary(self) -> str:
        counts: dict[str, int] = {}
        for r in self.records:
            counts[r.verdict] = counts.get(r.verdict, 0) + 1
        head = f"{self.command}: {len(self.records)} checks (" + ", ".join(
            f"{v} {k}" for k, v in sorted(counts.items())
        ) + ")"
        lines = [head]
        for r in self.records:
            if r.verdict == "fail":
                lines.append(f"  FAIL {r.check_id}: {r.residual}")
        return "\n".join(lines)
