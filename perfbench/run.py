"""Run one benchmark workload and print its metrics.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload fit_25k --seed 1 --seconds 6 --trace 0

Prints each metric by name with its unit, then, as the last line, one
JSON object ``{"correct", "attempted", "failed", "metrics"}``.  ``--trace
0`` reports the end-to-end metrics, ``--trace 1`` the per-layer ones of a
traced run.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import signal
import sys
from pathlib import Path

WORKLOADS = ("fit_25k", "apply_200k", "serve_mixed")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = Path(__file__).resolve().parent.parent / "src"
    if not (src / "repro" / "__init__.py").is_file():
        print(f"error: the program's sources are missing ({src}/repro)",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))

    from common import scrub_repro_env

    # Turn SIGTERM into an exception so cleanup (stopping the server
    # process of serve_mixed) runs when the run is cut short.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    removed_env = scrub_repro_env()
    if args.workload == "fit_25k":
        from fit_25k import run
    elif args.workload == "apply_200k":
        from apply_200k import run
    else:
        from serve_mixed import run
    run(args, removed_env)
    return 0


if __name__ == "__main__":
    sys.exit(main())
