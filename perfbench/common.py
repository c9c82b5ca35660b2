"""Shared plumbing: environment pinning, inputs, statistics, results."""

from __future__ import annotations

import json
import os
import platform
import resource
import statistics
import sys
import time
from collections.abc import Callable, Sequence
from pathlib import Path

#: Root of the checkout the benchmark runs in (this file's grandparent).
ROOT = Path(__file__).resolve().parent.parent
#: Everything a run leaves behind: result files, traces, scratch inputs.
OUT_DIR = ROOT / ".perfbench_results"

#: Every generated pair uses fixed-length rows (the paper's Figure 4a).
ROW_LENGTH = 28
#: Set-up is repeated this many times per run; ``setup_s`` is the median.
#: Two, not more: a 200,000-row set-up takes about 10 s on a 2-core host,
#: and the full suite (22 runs of each workload) must finish within an hour.
SETUP_REPEATS = 2
#: Discovery samples this many candidate pairs in every fit, the measured
#: one and the set-up fits of the apply and serve models alike.
SAMPLE_SIZE = 200
#: Ground-truth transformations per generated pair.  Each gives a fixed
#: output length; with the generator's default of 3 the seed alone swung
#: the target n-gram count, and with it fit time and memory, by up to 2x
#: (quartile spread over seeds 1-10: 23% and 29% of the median).  Ten
#: average it out, and each still covers about 10% of the rows, above the
#: 5% support the join keeps.
TRANSFORMATIONS = 10
#: A fit or apply whose joined pairs score below this precision or recall
#: against the diagonal gold counts as a failed operation.
QUALITY_FLOOR = 0.95
#: Both CSV files of a pair have an ``id`` and a ``value`` column; the join
#: key is ``value``.
COLUMNS = {"source_column": "value", "target_column": "value"}
#: The manifest naming every metric a run prints.
MANIFEST = ROOT / "BENCHMARK.json"


def scrub_repro_env() -> list[str]:
    """Unset every ``REPRO_*`` variable; the program runs on its defaults."""
    removed = sorted(name for name in os.environ if name.startswith("REPRO_"))
    for name in removed:
        del os.environ[name]
    return removed


def environment(stage_rows: dict[str, int]) -> dict:
    """What a result depends on besides the code: cores, versions, tier.

    ``stage_rows`` maps each stage to the input size its worker count is
    tuned on, so the record shows the worker count that actually ran.
    """
    from repro import kernels
    from repro.parallel.executor import env_default_workers, tuned_num_workers

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": kernels.numpy_version(),
        "kernel_tier": kernels.active_tier(),
        "workers": {
            stage: tuned_num_workers(env_default_workers(), rows)
            for stage, rows in stage_rows.items()
        },
    }


def table_pair(num_rows: int, seed: int):
    """The workload's synthetic pair; gold is the diagonal (row i ~ row i)."""
    from repro.datasets.synthetic import SyntheticConfig, generate_table_pair

    pair, _ = generate_table_pair(
        SyntheticConfig(num_rows=num_rows, min_length=ROW_LENGTH,
                        max_length=ROW_LENGTH,
                        num_transformations=TRANSFORMATIONS, seed=seed)
    )
    return pair


def write_pair(pair, directory: Path, rows: int | None = None) -> tuple[Path, Path]:
    """Write the pair's key columns (first *rows* rows) as two CSV files.

    Only ``id`` and ``value``: the generator's rule column is gold.
    """
    from repro.table import io as table_io
    from repro.table.table import Table

    directory.mkdir(parents=True, exist_ok=True)
    paths = []
    for side, table in (("source", pair.source), ("target", pair.target)):
        if rows is not None:
            table = table.head(rows)
        path = directory / (f"{side}.csv" if rows is None else f"{side}-{rows}.csv")
        table_io.write_csv(
            Table({"id": list(table["id"]), "value": list(table["value"])}), path)
        paths.append(path)
    return paths[0], paths[1]


def fit_csv(source: Path, target: Path, model: Path):
    """What ``python -m repro fit`` does: read both CSVs, fit, save."""
    from repro.core.config import DiscoveryConfig
    from repro.join.pipeline import JoinPipeline
    from repro.table import io as table_io

    pipeline = JoinPipeline(discovery_config=DiscoveryConfig(sample_size=SAMPLE_SIZE))
    fitted = pipeline.fit(table_io.read_csv(source), table_io.read_csv(target),
                          **COLUMNS)
    fitted.save(model)
    return fitted


def diagonal_prf(pairs: Sequence[tuple[int, int]], num_rows: int):
    from repro.evaluation import prf

    return prf(pairs, [(row, row) for row in range(num_rows)])


def timed_setups(setup: Callable[[], object],
                 repeats: int = SETUP_REPEATS) -> tuple[object, float]:
    """Run *setup* *repeats* times; keep the last, report the median."""
    seconds = []
    result = None
    for _ in range(repeats):
        if result is not None and hasattr(result, "close"):
            result.close()
        started = time.perf_counter()
        result = setup()
        seconds.append(time.perf_counter() - started)
    return result, statistics.median(seconds)


def repeat_for(seconds: float, operation: Callable[[], None]
               ) -> tuple[list[float], list[float]]:
    """Run *operation* until *seconds* have passed (at least once).

    Returns each call's wall time and this process's CPU time.
    """
    walls, cpus = [], []
    deadline = time.perf_counter() + seconds
    while not walls or time.perf_counter() < deadline:
        started, cpu = time.perf_counter(), time.process_time()
        operation()
        walls.append(time.perf_counter() - started)
        cpus.append(time.process_time() - cpu)
    return walls, cpus


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile (``q`` in [0, 1])."""
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, max(0, round(q * len(ordered)) - 1))]


def peak_rss_mb() -> float:
    """High-water resident set of this process (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def end_to_end(*, setup_s: float, wall_ms_per_krow: float, cpu_ms_per_krow: float,
               precision: float, recall: float, peak_rss: float,
               ok_ratio: float) -> dict:
    """The end-to-end metrics, the same set for every workload."""
    return {
        "setup_s": metric(setup_s, "s"),
        "wall_ms_per_krow": metric(wall_ms_per_krow, "ms"),
        "cpu_ms_per_krow": metric(cpu_ms_per_krow, "ms"),
        "join_precision": metric(precision, "ratio"),
        "join_recall": metric(recall, "ratio"),
        "peak_rss_mb": metric(peak_rss, "MB"),
        "ok_ratio": metric(ok_ratio, "ratio"),
    }


def check_manifest(trace: int, metrics: dict) -> None:
    """Fail unless *metrics* are exactly the manifest's, in its units."""
    manifest = json.loads(MANIFEST.read_text())
    wanted = {entry["name"]: entry["unit"]
              for entry in manifest["per_layer" if trace else "end_to_end"]}
    got = {name: entry["unit"] for name, entry in metrics.items()}
    if got != wanted:
        missing = sorted(set(wanted) - set(got))
        extra = sorted(set(got) - set(wanted))
        units = sorted(name for name in set(got) & set(wanted)
                       if got[name] != wanted[name])
        raise RuntimeError(f"metrics differ from {MANIFEST.name}: missing "
                           f"{missing}, not listed {extra}, wrong unit {units}")


def emit(args, env: dict, removed_env: list[str], result: dict,
         details: dict) -> None:
    """Print every metric by name, store the full record, print the result.

    The last line of standard output is the JSON result object; the record
    under ``.perfbench_results/`` adds the environment and the details.
    """
    check_manifest(args.trace, result["metrics"])
    for name, entry in result["metrics"].items():
        print(f"  {name:<34} {entry['value']:>16.6g} {entry['unit']}")
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": env,
        "unset_repro_env": removed_env,
        "result": result,
        "details": details,
    }
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    path = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=2, sort_keys=True))
    print(f"record: {path.relative_to(ROOT)}")
    sys.stdout.flush()
    print(json.dumps(result))


def finish_traced(args, env: dict, removed_env: list[str], layers) -> None:
    """Write the Chrome traces, print the self-time tables, emit the result.

    A traced run's operations are its output checks: each must hold.
    """
    traces = []
    for suffix, tracer in (("", layers.tracer), ("-serve", layers.serve_tracer)):
        path = OUT_DIR / f"trace-{args.workload}-seed{args.seed}{suffix}.json"
        tracer.write_chrome_trace(path)
        traces.append(path.name)
        print(tracer.table())
    metrics = layers.finish()
    checks = layers.checks
    for name, ok in checks.items():
        print(f"check {name}: {'ok' if ok else 'FAILED'}")
    failed = sum(not ok for ok in checks.values())
    result = {"correct": failed == 0, "attempted": len(checks),
              "failed": failed, "metrics": metrics}
    emit(args, env, removed_env, result,
         {**layers.details, "checks": checks, "chrome_traces": traces})
