"""Rewrite reference.json: each workload's output digests at the default seed.

    python3 perfbench/reference.py

Run it only in a change that is meant to alter outputs, and say so; the
benchmark fails every default-seed job whose bytes differ from these.
"""

from __future__ import annotations

import json
import sys

from run import HERE, run_workload
from workloads import DEFAULT_SEED, WORKLOADS


def main() -> int:
    refs = {}
    for name, workload in sorted(WORKLOADS.items()):
        result = run_workload(workload, DEFAULT_SEED, 0.0, False, None)
        problems = [j["problem"] for j in result["jobs"] if j["problem"]]
        if problems:
            print(f"{name}: {problems[0]}", file=sys.stderr)
            return 1
        refs[name] = result["jobs"][0]["digests"]
        print(f"{name}: {len(result['jobs'])} identical jobs")
    (HERE / "reference.json").write_text(json.dumps(refs, indent=1, sort_keys=True) + "\n",
                                         encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
