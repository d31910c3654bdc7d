"""Correctness gate: every check row passes and headline results match reference.json.

An operation is one report check row or one reference comparison.  A task
that raises counts every operation it would have had as failed.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path

REFERENCE_PATH = Path(__file__).resolve().parent / "reference.json"

# |value - ref| <= RTOL * |ref|, elementwise for ladders
RTOL = 1e-6


def load_reference(path: Path = REFERENCE_PATH) -> dict:
    return json.loads(path.read_text())


@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0
    misses: list[str] = field(default_factory=list)

    def add(self, ok: bool, what: str):
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.misses.append(what)


def _close(value, ref) -> bool:
    if isinstance(ref, list):
        return (
            isinstance(value, list)
            and len(value) == len(ref)
            and all(_close(v, r) for v, r in zip(value, ref))
        )
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return False
    return math.isfinite(value) and abs(value - ref) <= RTOL * abs(ref)


def verify(tally: Tally, name: str, report, reference: dict, compare: bool):
    """Count the report's check rows and, when compare is set, its headline values.

    report is a cli.Report, or None when the task raised.
    """
    ref = reference[name]
    keys = list(ref["results"]) if compare else []
    if report is None:
        for i in range(ref["checks"]):
            tally.add(False, f"{name}: check row {i} not reached")
        for key in keys:
            tally.add(False, f"{name}: {key} not reached")
        return
    if len(report.checks) != ref["checks"]:
        tally.add(False, f"{name}: {len(report.checks)} check rows, expected {ref['checks']}")
    for row in report.checks:
        tally.add(row["pass"], f"{name}: check {row['anchor']} value={row['value']!r} threshold={row['threshold']!r}")
    for key in keys:
        value = report.results.get(key)
        tally.add(_close(value, ref["results"][key]), f"{name}: {key}={value!r} reference={ref['results'][key]!r}")
