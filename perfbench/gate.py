"""Correctness checks of one benchmark run.

Each check returns a list of problems; an empty list means it passed.
Store digests are compared only between outputs made by the same code in
the same invocation, never against a digest kept across commits.
"""

from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path

RTOL = 1e-6


def tree_digest(root: Path) -> str:
    """SHA-256 over every file's relative path and bytes, in path order."""
    root = Path(root)
    h = hashlib.sha256()
    for path in sorted(p for p in root.rglob("*") if p.is_file()):
        h.update(path.relative_to(root).as_posix().encode() + b"\0")
        h.update(path.read_bytes())
    return h.hexdigest()


def store_objectives(results_dir: Path) -> dict[str, tuple[str, float | None]]:
    """(status, objective) of every store under ``results_dir``, by run id."""
    out = {}
    for meta_path in sorted(Path(results_dir).glob("*/run.meta")):
        meta = json.loads(meta_path.read_text())
        out[meta["run_id"]] = (meta["status"], meta.get("objective"))
    return out


def status_problems(runs: dict[str, tuple[str, float | None]], expected: list[str]) -> list[str]:
    problems = []
    if sorted(runs) != sorted(expected):
        problems.append(f"runs {sorted(runs)} differ from the scenario table {sorted(expected)}")
    problems += [f"run {r}: status {s}" for r, (s, _) in sorted(runs.items()) if s != "optimal"]
    return problems


def objective_problems(got: dict[str, float], reference: dict[str, float] | None, rtol: float = RTOL) -> list[str]:
    """Objectives must match the reference within ``rtol`` relative.

    ``reference`` is None for seeds without recorded values; then only the
    objectives' presence and finiteness are checked.
    """
    problems = [f"run {r}: objective {v!r}" for r, v in sorted(got.items()) if v is None or not math.isfinite(v)]
    if reference is None or problems:
        return problems
    if sorted(got) != sorted(reference):
        return [f"runs {sorted(got)} differ from the reference runs {sorted(reference)}"]
    for run_id, ref in sorted(reference.items()):
        if abs(got[run_id] - ref) > rtol * max(1.0, abs(ref)):
            problems.append(f"run {run_id}: objective {got[run_id]!r} != reference {ref!r}")
    return problems


def agreement_problems(a: dict[str, float], b: dict[str, float], what: str, rtol: float = RTOL) -> list[str]:
    """Two sets of objectives from different paths must agree within ``rtol``."""
    if sorted(a) != sorted(b):
        return [f"{what}: runs {sorted(a)} != {sorted(b)}"]
    return [
        f"{what}: run {r}: {a[r]!r} != {b[r]!r}"
        for r in sorted(a)
        if abs(a[r] - b[r]) > rtol * max(1.0, abs(a[r]))
    ]


def digest_problems(digests: dict[str, str], what: str) -> list[str]:
    """Every labelled digest must be the same."""
    if len(set(digests.values())) <= 1:
        return []
    return [f"{what} differ: " + ", ".join(f"{k}={v[:12]}" for k, v in sorted(digests.items()))]


def size_problems(rows: int, cols: int, expected_rows: int, expected_cols: int) -> list[str]:
    problems = []
    if rows != expected_rows:
        problems.append(f"model has {rows} rows, count_rows gives {expected_rows}")
    if cols != expected_cols:
        problems.append(f"model has {cols} columns, count_columns gives {expected_cols}")
    return problems
