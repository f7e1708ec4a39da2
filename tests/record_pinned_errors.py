"""Rewrite tests/pinned_errors.json from the runs of the acceptance tests
(criteria 4 and 5 and the desk runs of criteria 8 and 9).

    PYTHONPATH=src python tests/record_pinned_errors.py

A change that moves the published errors on purpose runs this and lists the
rows it moved, before and after.
"""

import json

from test_acceptance import (PINNED, desk_studies, full_space_errors,
                             pinned_values, reference_study)

if __name__ == "__main__":
    values = pinned_values(full_space_errors(), reference_study(), desk_studies())
    runs = (f"{json.dumps(run)}: [\n" + ",\n".join(f"  {json.dumps(r)}" for r in rows)
            + "\n ]" for run, rows in values.items())
    PINNED.write_text("{\n " + ",\n ".join(runs) + "\n}\n")
    print(f"wrote {sum(map(len, values.values()))} rows of {len(values)} runs "
          f"to {PINNED.name}")
