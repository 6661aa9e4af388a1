"""Rewrite reference.json from one seed-0 op of each workload.

    python3 benchmarks/make_reference.py

Run it only when a change is meant to alter the stored results, and say so
where the change is described.
"""

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import workloads  # noqa: E402
from marginalrg import config  # noqa: E402


def main():
    flow = config.load_config(str(ROOT / workloads.CANONICAL)).flow
    stored = {
        name: workloads.reference_values(name, flow, op(flow), ROOT)
        for name, op in workloads.OPS.items()
    }
    workloads.REFERENCE.write_text(json.dumps(stored, indent=2) + "\n")


if __name__ == "__main__":
    main()
