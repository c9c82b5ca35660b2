"""apply_200k: the ``repro apply`` path, in-process, over a 200,000-row pair.

One pass loads the saved model, reads both CSV files, joins with
``JoinPipeline.apply`` and writes the joined CSV — the work of ``python -m
repro apply``.  The model is fitted during set-up, through the ``repro
fit`` path, on the first 2,000 rows, so matching and discovery are
bypassed: the pass is large-batch apply (``model``, ``join``,
``kernels``), one cold target index, and CSV parsing (``table``).  It runs
the same ``join_values`` layer as ``serve_mixed``, on one huge cold batch
instead of many small warm ones.
"""

from __future__ import annotations

import gc
import statistics
import time

from common import (
    COLUMNS,
    OUT_DIR,
    QUALITY_FLOOR,
    diagonal_prf,
    emit,
    end_to_end,
    environment,
    finish_traced,
    fit_csv,
    peak_rss_mb,
    repeat_for,
    table_pair,
    timed_setups,
    write_pair,
)
from layers import Layers
from spans import Tracer

ROWS = 200_000
FIT_ROWS = 2_000
MODEL = "apply"


class Inputs:
    """The files one pass reads, and the model, written by set-up."""

    def __init__(self, seed: int) -> None:
        self.dir = OUT_DIR / f"apply_200k-seed{seed}"
        self.models = self.dir / "models"
        self.models.mkdir(parents=True, exist_ok=True)
        self.model = self.models / f"{MODEL}.json"
        self.output = self.dir / "joined.csv"
        pair = table_pair(ROWS, seed)
        self.source, self.target = write_pair(pair, self.dir)
        self.fit_source, self.fit_target = write_pair(pair, self.dir, FIT_ROWS)
        self.fitted = fit_csv(self.fit_source, self.fit_target, self.model)


def apply_pass(inputs: Inputs) -> list[tuple[int, int]]:
    """What ``repro apply`` does, through the same public functions."""
    from repro.join.pipeline import JoinPipeline
    from repro.model.artifact import TransformationModel
    from repro.table import io as table_io

    model = TransformationModel.load(inputs.model)
    source = table_io.read_csv(inputs.source)
    target = table_io.read_csv(inputs.target)
    applied = JoinPipeline(materialize=True).apply(model, source, target, **COLUMNS)
    table_io.write_csv(applied.joined_table, inputs.output)
    return applied.join.pairs


def run(args, removed_env: list[str]) -> None:
    env = environment({"apply": ROWS})
    if args.trace:
        _run_traced(args, env, removed_env)
        return
    inputs, setup_s = timed_setups(lambda: Inputs(args.seed))

    first: list[list[tuple[int, int]]] = []
    differing = 0

    def one_pass() -> None:
        nonlocal differing
        pairs = apply_pass(inputs)
        if not first:
            first.append(pairs)
        elif pairs != first[0]:
            differing += 1

    # A fresh ``repro apply`` process carries no set-up garbage; collect it
    # so the first pass is not charged for it.
    gc.collect()
    walls, cpus = repeat_for(args.seconds, one_pass)
    score = diagonal_prf(first[0], ROWS)
    failed = differing
    if min(score.precision, score.recall) < QUALITY_FLOOR:
        failed = len(walls)
    metrics = end_to_end(
        setup_s=setup_s,
        wall_ms_per_krow=statistics.median(walls) * 1e6 / ROWS,
        cpu_ms_per_krow=statistics.median(cpus) * 1e6 / ROWS,
        precision=score.precision,
        recall=score.recall,
        peak_rss=peak_rss_mb(),
        ok_ratio=1 - failed / len(walls),
    )
    result = {"correct": failed == 0, "attempted": len(walls),
              "failed": failed, "metrics": metrics}
    emit(args, env, removed_env, result,
         {"pass_seconds": walls, "pass_cpu_seconds": cpus,
          "failed_ratio": failed / len(walls), "joined_pairs": len(first[0])})


def _run_traced(args, env, removed_env) -> None:
    from repro import kernels

    layers = Layers()
    tracer = layers.tracer
    with layers.traced(), tracer.span("setup"):
        inputs = Inputs(args.seed)
    layers.fit(inputs.fitted, inputs.fit_source, inputs.fit_target)

    started = time.perf_counter()
    untraced = apply_pass(inputs)
    untraced_s = time.perf_counter() - started
    with layers.traced(), tracer.span("apply") as apply_span:
        traced = apply_pass(inputs)
    python_tracer = Tracer()
    with kernels.use_tier("python"), layers.traced(python_tracer):
        python_pairs = apply_pass(inputs)
    score = diagonal_prf(traced, ROWS)
    layers.checks["traced_equals_untraced"] = traced == untraced
    layers.checks["traced_join_quality"] = min(score.precision,
                                                score.recall) >= QUALITY_FLOOR
    layers.checks["python_tier_pairs_identical"] = python_pairs == untraced
    layers.join(tracer, python_tracer, len(traced))
    layers.serve_probe(inputs.fitted, inputs.models, MODEL, inputs.fit_source,
                       inputs.fit_target, args.seed)
    layers.details.update({"untraced_pass_s": untraced_s,
                           "traced_pass_s": apply_span.seconds})
    finish_traced(args, env, removed_env, layers)
