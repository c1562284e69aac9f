"""Pin the correctness table: run every workload once at unjittered inputs
and write expected.json.

    python3 perfbench/pin.py

Run it only on a commit whose outputs later commits must reproduce.
"""
from __future__ import annotations

import json
import sys
import tempfile

import check
import workloads
from tracing import Tracer


def main() -> int:
    table = {}
    with tempfile.TemporaryDirectory(dir=workloads.ROOT) as workdir:
        for name, run in workloads.WORKLOADS.items():
            p = workloads.Pass(Tracer(enabled=False), None, workdir)
            run(p)
            if p.errors:
                print("\n".join(p.errors), file=sys.stderr)
                return 1
            table[name] = check.normalise(p.records)
            print(f"{name}: {len(p.records)} records", file=sys.stderr)
    # one record per line
    with open(check.EXPECTED_PATH, "w") as fh:
        fh.write("{\n")
        for i, (name, records) in enumerate(sorted(table.items())):
            fh.write(f" {json.dumps(name)}: {{\n")
            fh.write(",\n".join(f"  {json.dumps(k)}: {json.dumps(v, sort_keys=True)}"
                                 for k, v in sorted(records.items())))
            fh.write("\n }" + ("," if i + 1 < len(table) else "") + "\n")
        fh.write("}\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
