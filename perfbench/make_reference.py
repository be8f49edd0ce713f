"""Regenerate ``survey7_reference.json``, the survey7 oracle.

Run from the repository root at the commit whose answers are the reference:

    python3 perfbench/make_reference.py

Each of the 73 seven-triangle disks is keyed by a hash of its canonical form,
which does not depend on labels, and maps to the outcome of `decide` without
hints, the group order when one was enumerated, the Chern coefficients, and
the name of the exception raised, if any.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import workloads  # noqa: E402


def main() -> int:
    mods = workloads.modules()
    maps, texts = workloads.Survey7().build(mods)
    table = {}
    for map_, text in zip(maps, texts):
        key = workloads.form_key(mods.enumerator.canonical_form(map_))
        table[key] = workloads.reference_entry(workloads.survey_item(mods, text))
    if len(table) != workloads.SURVEY_CLASSES:
        print(f"expected {workloads.SURVEY_CLASSES} disks, got {len(table)}", file=sys.stderr)
        return 1
    text = json.dumps(dict(sorted(table.items())), indent=1) + "\n"
    workloads.REFERENCE.write_text(text, encoding="utf-8")
    print(f"wrote {len(table)} entries to {workloads.REFERENCE}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
