"""Record the error rows that the benchmark's correctness check compares to.

    python3 perfbench/record_reference.py [workload ...]

Runs each workload once, untraced, at DEFAULT_SEED and writes the raw e_u and
e_c values of every row to reference.json.  Re-record only when a change is
meant to alter the errors, and say so in that change.
"""

from __future__ import annotations

import json
import sys

from checks import REFERENCE, failed_rows, load_reference
from run import OUT, run_child
from workloads import DEFAULT_SEED, WORKLOADS


def main(argv) -> int:
    OUT.mkdir(exist_ok=True)
    reference = load_reference()
    for name in argv or sorted(WORKLOADS):
        rec, _ = run_child(name, DEFAULT_SEED, False, timeout=600)
        attempted, failed, why = failed_rows(rec, None)
        if failed:
            print(f"{name}: {failed} of {attempted} rows failed: {why}", file=sys.stderr)
            return 1
        reference[name] = {"seed": DEFAULT_SEED,
                           "rows": [{k: r[k] for k in ("Mu", "Mc", "e_u", "e_c")}
                                    for r in rec["rows"]]}
        print(f"{name}: {attempted} rows recorded")
    REFERENCE.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
