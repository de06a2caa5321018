#!/usr/bin/env python
"""Regenerate the fault/degradation record golden file.

Run after an *intentional* change to ``details["faults"]`` or
``details["degradation"]``::

    PYTHONPATH=src python tests/faults/make_golden.py
"""

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[2] / "src"))
sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

from faults.test_fault_records import CASES, GOLDEN, records  # noqa: E402


def main() -> None:
    GOLDEN.parent.mkdir(exist_ok=True)
    doc = {name: records(name) for name in sorted(CASES)}
    GOLDEN.write_text(json.dumps(doc, indent=1) + "\n")
    print(f"wrote {GOLDEN} ({len(doc)} cases)")


if __name__ == "__main__":
    main()
