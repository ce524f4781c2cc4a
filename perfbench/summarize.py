"""Median and quartiles of each metric over several result files.

    python3 perfbench/summarize.py perfbench/out/*.json

Groups the files that ``run.py`` wrote by workload and trace mode and prints,
for every metric, its median, first and third quartile (as
``statistics.quantiles(values, n=4)`` gives them) and the quartile spread as
a share of the median.  An end-to-end metric whose spread is wider than its
bound in BENCHMARK.json is flagged, and so is a set of files that does not
come from one version of the code.  Exits 1 when anything is flagged.
"""

from __future__ import annotations

import json
import os
import statistics
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def summarize(paths: list[str]) -> list[str]:
    """Print the table; return the flags raised."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bounds = {m["name"]: m["bound"] for m in json.load(fh)["end_to_end"]}
    groups: dict[tuple, list[dict]] = {}
    for path in paths:
        with open(path, encoding="utf-8") as fh:
            record = json.load(fh)
        groups.setdefault((record["workload"], record["trace"]), []).append(record)

    flags = []
    codes = {r["machine"]["code_sha256"] for rs in groups.values() for r in rs}
    if len(codes) > 1:
        flags.append(f"files come from {len(codes)} versions of the code")
    for (workload, trace), records in sorted(groups.items()):
        failed = sum(r["result"]["failed"] for r in records)
        attempted = sum(r["result"]["attempted"] for r in records)
        incorrect = sum(not r["result"]["correct"] for r in records)
        print(f"{workload} trace={trace}: {len(records)} runs, seeds "
              f"{sorted(r['seed'] for r in records)}, {failed} of {attempted} "
              f"episodes failed, {incorrect} runs failed a check")
        if incorrect:
            flags.append(f"{workload} trace={trace}: {incorrect} runs incorrect")
        print(f"  {'metric':32} {'median':>12} {'q1':>12} {'q3':>12} "
              f"{'spread':>8}  unit")
        for name, entry in records[0]["result"]["metrics"].items():
            values = [r["result"]["metrics"][name]["value"] for r in records]
            median = statistics.median(values)
            if len(values) > 1:
                q1, _, q3 = statistics.quantiles(values, n=4)
            else:
                q1 = q3 = values[0]
            spread = (q3 - q1) / abs(median) if median else 0.0
            mark = ""
            if name in bounds and spread > bounds[name]:
                mark = f"  FLAG: spread above bound {bounds[name]}"
                flags.append(f"{workload} {name}: spread {spread:.3f} "
                             f"above bound {bounds[name]}")
            print(f"  {name:32} {median:12.6g} {q1:12.6g} {q3:12.6g} "
                  f"{spread:8.4f}  {entry['unit']}{mark}")
    for flag in flags:
        print(f"FLAG: {flag}")
    return flags


if __name__ == "__main__":
    if len(sys.argv) < 2:
        raise SystemExit("usage: summarize.py RESULT.json...")
    sys.exit(1 if summarize(sys.argv[1:]) else 0)
