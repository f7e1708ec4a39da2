"""Correctness checks on one experiment record.

A row fails when it did not complete, when an error is not finite, when e_u
grows with M_u, when the fine reference changed during the sweep, or, where
the reference applies, when e_u or an e_c differs from the recorded value by
more than REL_TOL relative.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

from workloads import DEFAULT_SEED

REL_TOL = 1e-6
REFERENCE = Path(__file__).resolve().parent / "reference.json"
E_C_KEYS = ("m10", "m20", "m30", "m40")


def load_reference() -> dict:
    return json.loads(REFERENCE.read_text()) if REFERENCE.exists() else {}


def reference_applies(rec: dict) -> bool:
    """The reference was recorded at DEFAULT_SEED; workloads whose inputs do
    not depend on the seed (structured partitions) share it at every seed."""
    return rec["seed"] == DEFAULT_SEED or not rec["seeded"]


def _errors(row) -> list:
    return [row["e_u"], *(row["e_c"].get(k) for k in E_C_KEYS)]


def failed_rows(rec: dict, reference: dict | None) -> tuple[int, int, list]:
    """(attempted, failed, reasons) for one experiment record."""
    expected = rec["expected_rows"]
    rows = rec.get("rows")
    if "error" in rec or rows is None:
        return expected, expected, [rec.get("error", "no report").strip().splitlines()[-1]]
    bad, reasons = set(), []

    def fail(i, why):
        bad.add(i)
        reasons.append(f"Mu={rows[i]['Mu']} Mc={rows[i]['Mc']}: {why}")

    for i, row in enumerate(rows):
        if row.get("error"):
            fail(i, row["error"])
        elif not all(v is not None and math.isfinite(v) for v in _errors(row)):
            fail(i, "non-finite error")
    if not rec.get("fine_hash_unchanged"):
        for i in range(len(rows)):
            fail(i, "fine reference changed during the sweep")

    e_u = {}
    for row in rows:
        if row["e_u"] is not None and math.isfinite(row["e_u"]):
            e_u[row["Mu"]] = row["e_u"]
    mus = sorted(e_u)
    for lo, hi in zip(mus, mus[1:]):
        if e_u[hi] > e_u[lo]:
            for i, row in enumerate(rows):
                if row["Mu"] == hi:
                    fail(i, f"e_u grows from M_u={lo} to M_u={hi}")

    if reference is not None and reference_applies(rec):
        want = {(r["Mu"], r["Mc"]): r for r in reference["rows"]}
        for i, row in enumerate(rows):
            ref = want.get((row["Mu"], row["Mc"]))
            if ref is None:
                fail(i, "row missing from the reference")
            elif not all(a is not None and math.isclose(a, b, rel_tol=REL_TOL)
                         for a, b in zip(_errors(row), _errors(ref))):
                fail(i, "errors differ from the reference")
    failed = len(bad) + max(expected - len(rows), 0)
    if len(rows) < expected:
        reasons.append(f"{expected - len(rows)} rows missing")
    return max(expected, len(rows)), failed, reasons
