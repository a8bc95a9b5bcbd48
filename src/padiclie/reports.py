"""Structured run reports: JSON as the source of truth, CSV as a
projection, and a content digest that ignores timing so identical
configurations produce identical digests.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
from dataclasses import dataclass, field
from typing import Any

SCHEMA_VERSION = 1

REPORT_SCHEMA = {
    "type": "object",
    "required": ["schema_version", "command", "config", "cases", "passed", "anomalies", "digest"],
    "properties": {
        "schema_version": {"type": "integer"},
        "command": {"type": "string"},
        "config": {"type": "object"},
        "cases": {"type": "array", "items": {"type": "object"}},
        "passed": {"type": "boolean"},
        "anomalies": {"type": "array", "items": {"type": "string"}},
        "timing_seconds": {"type": "number"},
        "digest": {"type": "string"},
    },
}


def _canonical(obj: Any) -> Any:
    """Make values JSON-stable: fractions to strings, tuples to lists."""
    from fractions import Fraction

    if isinstance(obj, Fraction):
        return f"{obj.numerator}/{obj.denominator}"
    if isinstance(obj, dict):
        return {str(k): _canonical(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_canonical(v) for v in obj]
    return obj


@dataclass
class Report:
    command: str
    config: dict
    cases: list[dict] = field(default_factory=list)
    anomalies: list[str] = field(default_factory=list)
    passed: bool = True
    timing_seconds: float = 0.0

    def add_case(self, **fields) -> None:
        self.cases.append(_canonical(fields))
        if fields.get("passed") is False:
            self.passed = False

    def add_anomaly(self, message: str) -> None:
        self.anomalies.append(message)

    def digest(self) -> str:
        payload = {
            "schema_version": SCHEMA_VERSION,
            "command": self.command,
            "config": _canonical(self.config),
            "cases": self.cases,
            "anomalies": self.anomalies,
            "passed": self.passed,
        }
        blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(blob.encode()).hexdigest()

    def to_json(self) -> dict:
        return {
            "schema_version": SCHEMA_VERSION,
            "command": self.command,
            "config": _canonical(self.config),
            "cases": self.cases,
            "passed": self.passed,
            "anomalies": self.anomalies,
            "timing_seconds": round(self.timing_seconds, 6),
            "digest": self.digest(),
        }

    def dumps(self) -> str:
        return json.dumps(self.to_json(), sort_keys=True, indent=2)

    def to_csv(self) -> str:
        """Flatten the case records into a CSV table (sorted column union)."""
        columns: list[str] = []
        for case in self.cases:
            for key in case:
                if key not in columns:
                    columns.append(key)
        buf = io.StringIO()
        writer = csv.DictWriter(buf, fieldnames=sorted(columns))
        writer.writeheader()
        for case in self.cases:
            writer.writerow({k: _flat(v) for k, v in case.items()})
        return buf.getvalue()


def _flat(v: Any) -> Any:
    if isinstance(v, (dict, list)):
        return json.dumps(v, sort_keys=True)
    return v


# Python types of the JSON types that REPORT_SCHEMA names (bool is an int)
_JSON_TYPES = {"integer": int, "number": (int, float), "string": str, "boolean": bool,
               "array": list, "object": dict}


def merge_reports(reports: list[dict]) -> Report:
    """Deterministic merge of serialized reports, keyed by command then
    digest; configs are kept per part.  A part that is not a JSON object,
    or has a field of another JSON type than ``REPORT_SCHEMA`` gives it,
    raises ``ValueError``."""
    for r in reports:
        if not isinstance(r, dict):
            raise ValueError(f"report part is a {type(r).__name__}, not a JSON object")
        for key, spec in REPORT_SCHEMA["properties"].items():
            if key in r and not isinstance(r[key], _JSON_TYPES[spec["type"]]):
                raise ValueError(f"report part field {key!r} is not a JSON {spec['type']}")
    parts = sorted(reports, key=lambda r: (r.get("command", ""), r.get("digest", "")))
    merged = Report(
        command="report-merge",
        config={"parts": [r.get("digest", "") for r in parts]},
    )
    for r in parts:
        merged.cases.extend(r.get("cases", []))
        merged.anomalies.extend(r.get("anomalies", []))
        if not r.get("passed", True):
            merged.passed = False
        merged.timing_seconds += r.get("timing_seconds", 0.0)
    return merged
