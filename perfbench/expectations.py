"""Stored expected outputs and the check of one CLI record against them.

`expected.json` holds, per workload and input label, the fields of the
`--json` run record that must not depend on the seed, plus an optional
`known_defect` note.  For the adversarial inputs the fields are the true
answers, so those inputs fail until the defect they target is fixed; they
are counted as failed, never skipped.  `make_expected.py` writes the file
and `test_expected.py` checks it against independent oracles.
"""

from __future__ import annotations

import json
import os

PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "expected.json")

# run-record fields that legitimately differ between seeds or versions
VOLATILE = {"input", "seed", "engine_version"}


def load() -> dict:
    with open(PATH, encoding="utf-8") as fh:
        return json.load(fh)


def known_defects(workload: str) -> set[str]:
    return {label for label, exp in load()[workload].items() if exp.get("known_defect")}


def mismatch(record: dict, expected: dict) -> str | None:
    """None when every stored field matches, else the names that differ."""
    fields = expected["fields"]
    bad = sorted(k for k in fields if record.get(k) != fields[k])
    extra = sorted(k for k in record if k not in fields and k not in VOLATILE)
    if bad or extra:
        return "mismatch in " + ", ".join(bad + [f"unexpected field {k}" for k in extra])
    return None
