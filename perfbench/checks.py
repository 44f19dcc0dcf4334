"""Output checks for the benchmark: reference tables and paper invariants.

A faster program must not pass by returning a worse routing, so every
pass's outputs are checked before its time counts:

* ``whatif`` evaluates fixed routings, so its ECMP/Base ratios must
  match the reference both ways, within LP tolerance.
* COYOTE's oracle ratios (and Algorithm 1's ECMP ratio) are one-sided:
  a better optimum passes, a worse one fails.
* Stretch is not what COYOTE optimizes, so it is compared with the
  reference only while the cell's oracle ratios are unchanged; a better
  optimum may move it.
* Paper invariants, checked from outside: every oracle ratio is at least
  1 (the within-DAG optimum is the normalizer), COYOTE is never worse
  than the ECMP it falls back to, and Base is optimal for the base
  matrix, so its ratio at margin 1 is exactly 1.

The reference (``reference.json``) was recorded with
``record_reference.py`` from the same code whose speed the benchmark
first measured.
"""

from __future__ import annotations

import json
from pathlib import Path

#: Relative tolerance on a ratio (the LPs solve to 1e-9).
TOL = 1e-6

REFERENCE_PATH = Path(__file__).resolve().parent / "reference.json"

#: How each output column is compared with the reference.
EQUAL, LOWER, STRETCH = "equal", "lower", "stretch"
RULES = {
    "stretch": {"COYOTE-obl": STRETCH, "COYOTE-pk": STRETCH},
    "local-search": {"ECMP": LOWER, "COYOTE": LOWER},
    "whatif": {"ECMP": EQUAL, "Base": EQUAL},
}

#: Columns that are oracle ratios, hence at least 1.
RATIO_COLUMNS = {
    "stretch": (),
    "local-search": ("ECMP", "COYOTE"),
    "whatif": ("ECMP", "Base"),
}


def load_reference(path: Path = REFERENCE_PATH) -> dict:
    return json.loads(path.read_text())


def reference_rows(reference: dict, workload: str, instance: int, seeded: bool) -> dict:
    tables = reference["workloads"][workload]
    label = str(instance) if seeded else "-"
    if label not in tables:
        raise KeyError(f"reference.json has no {workload} table for instance {label}")
    return tables[label]


def _slack(reference: float) -> float:
    return TOL * max(1.0, abs(reference))


def check_rows(workload: str, rows: dict, expected: dict) -> list[tuple[str, str, str]]:
    """Every problem as ``(row, column, message)``; empty when all pass."""
    problems: list[tuple[str, str, str]] = []
    for key, want in expected.items():
        got = rows.get(key)
        if got is None:
            problems.append((key, "*", "row missing"))
            continue
        problems += _check_robust(key, got.get("robust", []), want.get("robust", []))
        improved = any(
            g < w - _slack(w) for g, w in zip(got.get("robust", []), want.get("robust", []))
        )
        for column, rule in RULES[workload].items():
            if column not in got:
                if column in want:
                    problems.append((key, column, "value missing"))
                continue
            value, ref = got[column], want[column]
            if rule == EQUAL and abs(value - ref) > _slack(ref):
                problems.append((key, column, f"{value!r} differs from reference {ref!r}"))
            elif rule == LOWER and value > ref + _slack(ref):
                problems.append((key, column, f"{value!r} is worse than reference {ref!r}"))
            elif rule == STRETCH and not improved and abs(value - ref) > _slack(ref):
                problems.append(
                    (key, column, f"stretch {value!r} moved from {ref!r} at an unchanged optimum")
                )
        for column in RATIO_COLUMNS[workload]:
            if column in got and got[column] < 1.0 - TOL:
                problems.append((key, column, f"oracle ratio {got[column]!r} below 1"))
        if workload == "local-search" and got.get("ECMP/COYOTE", 1.0) < 1.0 - TOL:
            problems.append((key, "ECMP/COYOTE", "COYOTE is worse than its ECMP fallback"))
        if workload == "whatif" and key.endswith("/m=1") and "Base" in got:
            if abs(got["Base"] - 1.0) > TOL:
                problems.append((key, "Base", f"Base is {got['Base']!r} at margin 1, not 1"))
    return problems


def _check_robust(key: str, got: list[float], want: list[float]) -> list[tuple[str, str, str]]:
    if len(got) != len(want):
        return [(key, "robust", f"{len(got)} robust optimizations, reference has {len(want)}")]
    problems = []
    for value, ref in zip(got, want):
        if value < 1.0 - TOL:
            problems.append((key, "robust", f"COYOTE oracle ratio {value!r} below 1"))
        elif value > ref + _slack(ref):
            problems.append((key, "robust", f"COYOTE oracle ratio {value!r} worse than {ref!r}"))
    return problems
