"""Compare two sets of benchmark records metric by metric.

Usage, from the root of a checkout::

    python3 perfbench/compare.py BASE_DIR_OR_FILES... -- NEW_DIR_OR_FILES...

Each side is a list of record files (or directories of them) written by
``perfbench/run.py`` under ``.perfbench_results/``.  For every workload and
metric it prints both sides' medians and quartiles and the change of the
median.  It refuses (exit 2) to compare records whose kernel tiers differ:
the numpy and pure-Python tiers are different programs for timing purposes.
"""

from __future__ import annotations

import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path


def _records(paths: list[str]) -> list[dict]:
    files: list[Path] = []
    for name in paths:
        path = Path(name)
        files.extend(sorted(path.glob("*-trace[01].json")) if path.is_dir() else [path])
    return [json.loads(file.read_text()) for file in files]


def _by_metric(records: list[dict]) -> dict[tuple[str, int, str], list[float]]:
    values: dict[tuple[str, int, str], list[float]] = defaultdict(list)
    for record in records:
        for name, entry in record["result"]["metrics"].items():
            values[(record["workload"], record["trace"], name)].append(entry["value"])
    return values


def _summary(values: list[float]) -> str:
    if len(values) < 2:
        return f"{values[0]:.6g}"
    q1, median, q3 = statistics.quantiles(values, n=4)
    return f"{median:.6g} [{q1:.6g}, {q3:.6g}]"


def main(argv: list[str]) -> int:
    if "--" not in argv:
        print(__doc__, file=sys.stderr)
        return 2
    split = argv.index("--")
    base, new = _records(argv[:split]), _records(argv[split + 1:])
    if not base or not new:
        print("error: each side needs at least one record", file=sys.stderr)
        return 2
    tiers = {record["environment"]["kernel_tier"] for record in base + new}
    if len(tiers) > 1:
        print(f"error: refusing to compare records of different kernel tiers "
              f"{sorted(tiers)}", file=sys.stderr)
        return 2
    base_values, new_values = _by_metric(base), _by_metric(new)
    for key in sorted(base_values.keys() & new_values.keys()):
        workload, trace, name = key
        before, after = base_values[key], new_values[key]
        base_median = statistics.median(before)
        change = (statistics.median(after) / base_median - 1) if base_median else 0.0
        print(f"{workload:<12} {trace} {name:<32} {_summary(before):>34}  ->  "
              f"{_summary(after):>34}  ({change:+.1%})")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
