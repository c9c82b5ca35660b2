"""Per-layer figures of a traced run: the same set for every workload.

Every workload fits a model through the ``repro fit`` path (CSV read,
``JoinPipeline.fit``, model save), joins with it, and serves it: fit_25k
in its measured operation, apply_200k and serve_mixed in their set-up.
So every layer the benchmark names — ``matching``, ``core``, ``kernels``,
``parallel``, ``model``, ``join``, ``table``, ``serve`` — is called in
every traced run, and each per-layer metric is measured in each.  The
figures cover the whole traced run, set-up included; which workload a
layer's figure should move on is in ``perfbench/README.md``.

Two tracers keep the serving replay's spans apart from the workload's own:
``tracer`` holds set-up and the operation, ``serve_tracer`` the replay of
planned requests through an in-process ``ServeEngine``.
"""

from __future__ import annotations

import os
from pathlib import Path

from common import COLUMNS, SAMPLE_SIZE, metric
from serveplan import Plan, replay
from spans import Tracer, patched, wrapper_cost

#: Discovery stages (``DiscoveryStats.stage_seconds``) behind each core span.
STAGES = {
    "core.generation": ("placeholder_generation", "unit_extraction",
                        "duplicate_removal"),
    "core.coverage": ("applying_transformations",),
    "core.cover_selection": ("cover_selection",),
}
#: Requests the serve probe of fit_25k and apply_200k replays.
PROBE_REQUESTS = 64
#: Rows of the pair the serve probe's requests draw on.
PROBE_ROWS = 2_000


def targets() -> list[tuple]:
    """Every wrapped public function, with its span name."""
    from repro.core.discovery import TransformationDiscovery
    from repro.join.joiner import TransformationJoiner
    from repro.matching import row_matcher
    from repro.matching.index import InvertedIndex
    from repro.matching.row_matcher import NGramRowMatcher
    from repro.model.artifact import TransformationModel
    from repro.serve import engine as engine_module
    from repro.serve import registry as registry_module
    from repro.serve.engine import ServeEngine
    from repro.serve.registry import ModelRegistry
    from repro.table import io as table_io

    return [
        (NGramRowMatcher, "match", "matching"),
        (InvertedIndex, "build", "matching.index_build"),
        (InvertedIndex, "source_grams", "matching.source_count"),
        (InvertedIndex, "representatives_from", "matching.select"),
        (row_matcher, "emit_candidate_pairs", "matching.emit"),
        (TransformationDiscovery, "discover", "core.discover"),
        (TransformationModel, "save", "model.save"),
        (TransformationModel, "load", "model.load"),
        (table_io, "read_csv", "table.read_csv"),
        (table_io, "write_csv", "table.write_csv"),
        (TransformationJoiner, "build_target_index", "join.target_index"),
        (TransformationJoiner, "join_values", "join.join_values"),
        (ServeEngine, "join", "serve.engine_join"),
        (engine_module, "target_values_key", "serve.target_key"),
        (registry_module, "target_values_key", "serve.target_key"),
        (ModelRegistry, "joiner_for", "serve.joiner_lookup"),
        (ModelRegistry, "target_index_for", "serve.index_lookup"),
    ]


def stage_seconds(stats, span: str) -> float:
    return sum(stats.stage_seconds.get(stage, 0.0) for stage in STAGES[span])


class Layers:
    """One traced run's spans, output checks and per-layer metrics."""

    def __init__(self) -> None:
        self.tracer = Tracer()
        self.serve_tracer = Tracer()
        self.checks: dict[str, bool] = {}
        self.metrics: dict[str, dict] = {}
        self.details: dict = {}

    def traced(self, tracer: Tracer | None = None):
        """Wrap every layer's public functions, recording into *tracer*."""
        return patched(tracer or self.tracer, targets())

    def _total(self, name: str) -> float:
        return sum(self.tracer.durations(name)) + sum(self.serve_tracer.durations(name))

    # ------------------------------------------------------------------ #
    # matching, core, kernels (coverage), parallel: the traced fit
    # ------------------------------------------------------------------ #
    def fit(self, model, source_csv: Path, target_csv: Path) -> None:
        """Figures of the one fit the traced run made, and its re-runs.

        The traced fit's candidate pairs are re-discovered with the
        pure-Python kernel tier and with ``nproc`` workers, and its rows
        re-matched with ``nproc`` workers; each re-run must give the same
        cover or candidates.
        """
        from repro import kernels
        from repro.core.config import DiscoveryConfig
        from repro.core.discovery import TransformationDiscovery
        from repro.matching.row_matcher import MatchingConfig, NGramRowMatcher
        from repro.parallel.executor import tuned_num_workers
        from repro.table import io as table_io

        tracer = self.tracer
        discover_span = next(s for s in tracer.spans if s.name == "core.discover")
        discovery = model.discovery
        stats = discovery.stats
        offset = discover_span.start
        for span in STAGES:
            seconds = stage_seconds(stats, span)
            tracer.add(span, offset, seconds, discover_span)
            offset += seconds
        candidates = tracer.results["matching"]
        index = tracer.results["matching.index_build"]

        def discover(**config):
            return TransformationDiscovery(
                DiscoveryConfig(sample_size=SAMPLE_SIZE, **config)
            ).discover(candidates)

        with tracer.span("kernels.python_discover"), kernels.use_tier("python"):
            python_tier = discover()
        self.checks["python_tier_cover_identical"] = python_tier.cover == discovery.cover

        nproc = os.cpu_count() or 1
        source = table_io.read_csv(source_csv)
        target = table_io.read_csv(target_csv)
        with tracer.span("parallel.match") as parallel_match:
            sharded_pairs = NGramRowMatcher(MatchingConfig(num_workers=nproc)).match(
                source, target, **COLUMNS)
        self.checks["parallel_pairs_identical"] = (
            [(p.source_row, p.target_row) for p in sharded_pairs]
            == [(p.source_row, p.target_row) for p in candidates])
        with tracer.span("parallel.discover"):
            sharded = discover(num_workers=nproc)
        self.checks["parallel_cover_identical"] = sharded.cover == discovery.cover
        self.details["parallel_workers"] = tuned_num_workers(nproc, len(source))
        self.details["fit_rows"] = len(source)

        coverage_s = stage_seconds(stats, "core.coverage")
        gold_candidates = sum(p.source_row == p.target_row for p in candidates)
        self.metrics.update({
            "matching.index_build_s": metric(
                tracer.median("matching.index_build", self_time=True), "s"),
            "matching.source_count_s": metric(
                tracer.median("matching.source_count"), "s"),
            "matching.select_s": metric(tracer.median("matching.select"), "s"),
            "matching.emit_s": metric(tracer.median("matching.emit"), "s"),
            "matching.target_ngrams": metric(index.num_ngrams, "count"),
            "matching.stop_grams_pruned": metric(index.num_pruned_ngrams, "count"),
            "matching.candidates": metric(len(candidates), "count"),
            "matching.candidate_precision": metric(
                gold_candidates / len(candidates), "ratio"),
            "core.discover_s": metric(discover_span.seconds, "s"),
            "core.generation_s": metric(stage_seconds(stats, "core.generation"), "s"),
            "core.coverage_s": metric(coverage_s, "s"),
            "core.cover_selection_s": metric(
                stage_seconds(stats, "core.cover_selection"), "s"),
            "core.unique_ratio": metric(
                stats.unique_transformations / stats.generated_transformations,
                "ratio"),
            "core.unit_cache_hit_ratio": metric(stats.cache_hit_ratio, "ratio"),
            "core.applications": metric(stats.applications, "count"),
            "core.cover_size": metric(len(discovery.cover), "count"),
            "kernels.coverage_py_over_np": metric(
                stage_seconds(python_tier.stats, "core.coverage") / coverage_s,
                "ratio"),
            "parallel.matching_speedup": metric(
                tracer.median("matching") / parallel_match.seconds, "ratio"),
            "parallel.coverage_speedup": metric(
                coverage_s / stage_seconds(sharded.stats, "core.coverage"), "ratio"),
        })

    # ------------------------------------------------------------------ #
    # join and kernels (join): the workload's join step
    # ------------------------------------------------------------------ #
    def join(self, tracer: Tracer, python_tracer: Tracer, pairs: float) -> None:
        """Join figures from *tracer*; the same step re-run on the Python tier
        recorded in *python_tracer* gives the kernel ratio."""
        join_values_s = tracer.median("join.join_values", self_time=True)
        self.metrics.update({
            "join.target_index_s": metric(tracer.median("join.target_index"), "s"),
            "join.join_values_s": metric(join_values_s, "s"),
            "join.pairs": metric(pairs, "count"),
            "kernels.join_py_over_np": metric(
                python_tracer.median("join.join_values", self_time=True)
                / join_values_s, "ratio"),
        })

    # ------------------------------------------------------------------ #
    # serve: requests replayed through an in-process engine
    # ------------------------------------------------------------------ #
    def serve(self, plan: Plan, models: Path, model: str, count: int) -> list[int]:
        """Replay the first *count* planned requests, traced; serve figures.

        Returns each response's joined-pair count.
        """
        with self.traced(self.serve_tracer):
            ok, joined = replay(plan, models, model, count, self.serve_tracer)
        self.checks["traced_replay_matches"] = ok
        tracer = self.serve_tracer
        self.metrics.update({
            "serve.engine_join_s": metric(tracer.median("serve.engine_join"), "s"),
            "serve.target_key_s": metric(tracer.median("serve.target_key"), "s"),
            "serve.joiner_lookup_s": metric(tracer.median("serve.joiner_lookup"), "s"),
            "serve.index_lookup_s": metric(
                tracer.median("serve.index_lookup", self_time=True), "s"),
            "serve.encode_s": metric(tracer.median("serve.encode"), "s"),
            "serve.batch_wait_s": metric(
                tracer.median("serve.engine_join", self_time=True), "s"),
        })
        return joined

    def serve_probe(self, model, models: Path, name: str, source_csv: Path,
                    target_csv: Path, seed: int) -> None:
        """Serve ``PROBE_REQUESTS`` requests drawn from the pair's first rows."""
        from repro.table import io as table_io

        sources = list(table_io.read_csv(source_csv)["value"])[:PROBE_ROWS]
        hot = list(table_io.read_csv(target_csv)["value"])[:PROBE_ROWS]
        plan = Plan(sources, hot, model.joiner(), seed, PROBE_REQUESTS)
        self.serve(plan, models, name, PROBE_REQUESTS)

    # ------------------------------------------------------------------ #
    # model, table, overhead
    # ------------------------------------------------------------------ #
    def finish(self) -> dict[str, dict]:
        """Add the model, table and overhead figures; return every metric."""
        spans = len(self.tracer.spans) + len(self.serve_tracer.spans)
        self.metrics.update({
            "model.save_s": metric(self._total("model.save"), "s"),
            "model.load_s": metric(self._total("model.load"), "s"),
            "table.read_csv_s": metric(self._total("table.read_csv"), "s"),
            "table.write_csv_s": metric(self._total("table.write_csv"), "s"),
            "trace.overhead_s": metric(spans * wrapper_cost(), "s"),
        })
        self.details["spans"] = spans
        return self.metrics
