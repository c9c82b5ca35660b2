"""fit_25k: the ``repro fit`` path on a 25,000-row pair.

The paper's Figure 4a path at the size the matching roadmap targets.  One
operation reads both CSV files, runs ``JoinPipeline.fit`` and saves the
model — the work of ``python -m repro fit``.  Row matching and the
coverage walk do nearly all of it; the CSV read and the save are tiny.
Each fitted model is applied to the same pair afterwards, untimed, and its
joined pairs are scored against the diagonal gold.
"""

from __future__ import annotations

import statistics

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

ROWS = 25_000
MODEL = "fit"
#: Set-up (generate the pair, write two CSV files) takes about 0.6 s, so
#: it is repeated more often than the common default for a steadier median.
SETUP_REPEATS = 5


class Inputs:
    """The pair in memory and as the CSV files one fit reads."""

    def __init__(self, seed: int) -> None:
        self.dir = OUT_DIR / f"fit_25k-seed{seed}"
        self.models = self.dir / "models"
        self.models.mkdir(parents=True, exist_ok=True)
        self.model = self.models / f"{MODEL}.json"
        self.pair = table_pair(ROWS, seed)
        self.source, self.target = write_pair(self.pair, self.dir)

    def fit(self):
        return fit_csv(self.source, self.target, self.model)


def _joined(model, pair) -> list[tuple[int, int]]:
    from repro.join.pipeline import JoinPipeline

    return JoinPipeline().apply(model, pair.source, pair.target, **COLUMNS).join.pairs


def _fingerprint(model) -> tuple:
    return ([str(t) for t in model.transformations], model.coverage_counts,
            model.num_candidate_pairs)


def run(args, removed_env: list[str]) -> None:
    env = environment({"matching": ROWS, "discovery": ROWS, "apply": ROWS})
    if args.trace:
        _run_traced(args, env, removed_env)
        return
    inputs, setup_s = timed_setups(lambda: Inputs(args.seed), SETUP_REPEATS)

    models = []
    walls, cpus = repeat_for(args.seconds, lambda: models.append(inputs.fit()))
    failed = 0
    scores = []
    for model in models:
        score = diagonal_prf(_joined(model, inputs.pair), ROWS)
        scores.append(score)
        if (_fingerprint(model) != _fingerprint(models[0])
                or min(score.precision, score.recall) < QUALITY_FLOOR):
            failed += 1
    metrics = end_to_end(
        setup_s=setup_s,
        wall_ms_per_krow=statistics.median(walls) * 1e6 / ROWS,
        cpu_ms_per_krow=statistics.median(cpus) * 1e6 / ROWS,
        precision=min(s.precision for s in scores),
        recall=min(s.recall for s in scores),
        peak_rss=peak_rss_mb(),
        ok_ratio=1 - failed / len(models),
    )
    result = {"correct": failed == 0, "attempted": len(models),
              "failed": failed, "metrics": metrics}
    emit(args, env, removed_env, result,
         {"fit_seconds": walls, "fit_cpu_seconds": cpus,
          "failed_ratio": failed / len(models),
          "cover_size": len(models[0].transformations)})


def _run_traced(args, env, removed_env) -> None:
    from repro import kernels
    from repro.model.artifact import TransformationModel

    layers = Layers()
    tracer = layers.tracer
    with layers.traced(), tracer.span("setup"):
        inputs = Inputs(args.seed)
    with layers.traced(), tracer.span("fit") as fit_span:
        model = inputs.fit()
    layers.fit(model, inputs.source, inputs.target)

    # The saved artifact, loaded back, joins the pair: the join step.
    with layers.traced(), tracer.span("score"):
        joined = _joined(TransformationModel.load(inputs.model), inputs.pair)
    python_tracer = Tracer()
    with kernels.use_tier("python"), layers.traced(python_tracer):
        python_joined = _joined(model, inputs.pair)
    score = diagonal_prf(joined, ROWS)
    layers.checks["traced_join_quality"] = min(score.precision,
                                                score.recall) >= QUALITY_FLOOR
    layers.checks["python_tier_pairs_identical"] = python_joined == joined
    layers.join(tracer, python_tracer, len(joined))
    layers.serve_probe(model, inputs.models, MODEL, inputs.source, inputs.target,
                       args.seed)
    # A second, untraced 25k fit would push this run past its time limit;
    # the overhead is the cost of the wrapped calls (see Layers.finish).
    layers.details["traced_fit_s"] = fit_span.seconds
    finish_traced(args, env, removed_env, layers)
