"""Stop-gram cap calibration — the recall/runtime trade-off of pruning.

``MatchingConfig.stop_gram_cap`` drops the posting arrays of n-grams that
occur in more than ``cap`` target rows.  Such n-grams behave like stop words:
their Rscore is so low that they are rarely representatives, but their
posting lists are the longest in the index, so capping them bounds both
memory and the worst-case candidate scan.  The open ROADMAP item asks what a
reasonable default is; this sweep answers it with numbers.

For every rung of the synthetic ladder and every cap the sweep reports:

* ``pruned``    — n-grams whose postings were dropped,
* ``pairs``     — candidate pairs emitted (pruning can only remove pairs),
* ``cand_rec``  — candidate recall against the exact (cap = 0) matcher,
* ``gold_rec``  — recall of the golden matching among the candidates (the
  number that matters for the end-to-end join),
* ``time_s`` / ``speedup`` — matching wall clock vs. the exact matcher.

Observed result (synthetic ladder, row length 28, see
``benchmarks/results/stop_gram_cap.txt``): even a cap of 4 prunes only a few
hundred n-grams, candidate and golden recall hold at exactly 1.0 for *every*
cap, and the wall clock is flat (±7 %) — representatives are by construction
the *rarest* n-grams, so the pruned stop-grams are never scanned on this
workload, and matching time is dominated by representative scoring, not
posting scans.  The default therefore stays **0 (off, exact Algorithm 1)**:
there is nothing to win on well-behaved data, and exactness keeps the
matcher byte-comparable to the reference spec.  For memory-bound or
adversarial deployments (columns dominated by shared boilerplate n-grams)
``cap = 64`` is the documented setting — on this ladder it is lossless while
still bounding every posting array.

Run with ``PYTHONPATH=src python -m pytest benchmarks/bench_stop_gram_cap.py -s``.
"""

from __future__ import annotations

import json
import time

from conftest import RESULTS_DIR, bench_scale, write_report

from repro.datasets.synthetic import SyntheticConfig, generate_table_pair
from repro.evaluation.report import format_table
from repro.matching.index import InvertedIndex
from repro.matching.row_matcher import MatchingConfig, emit_candidate_pairs

#: Row-frequency caps swept (0 = pruning off, the exact matcher).
CAPS = (0, 4, 16, 64, 256)

#: Synthetic ladder rungs (scaled by REPRO_BENCH_SCALE).
RUNGS = (2000, 5000)


def sweep_rung(num_rows: int, seed: int = 0) -> list[dict]:
    """Sweep every cap at one ladder rung; returns one report row per cap."""
    pair, _ = generate_table_pair(
        SyntheticConfig(num_rows=num_rows, min_length=28, max_length=28, seed=seed),
        name=f"stop-gram-{num_rows}",
    )
    source_values = list(pair.source["value"])
    target_values = list(pair.target["value"])
    golden = set(pair.golden_pairs)

    baseline_pairs: set[tuple[int, int]] | None = None
    baseline_seconds = 0.0
    rows: list[dict] = []
    for cap in CAPS:
        config = MatchingConfig(stop_gram_cap=cap)
        # The exact composition of NGramRowMatcher.match_values, inlined so
        # one index build serves both the timing and the pruned-gram count.
        started = time.perf_counter()
        index = InvertedIndex.build(
            target_values,
            min_size=config.min_ngram,
            max_size=config.max_ngram,
            lowercase=config.lowercase,
            stop_gram_cap=cap,
        )
        per_row_grams, source_frequency = index.source_grams(source_values)
        representatives = index.representatives_from(
            per_row_grams, source_frequency
        )
        candidates = emit_candidate_pairs(
            source_values,
            target_values,
            index,
            representatives,
            config.max_candidates_per_row,
        )
        elapsed = time.perf_counter() - started

        candidate_set = {(p.source_row, p.target_row) for p in candidates}
        if cap == 0:
            baseline_pairs = candidate_set
            baseline_seconds = elapsed
        assert baseline_pairs is not None
        # Pruning can only drop candidates, never invent them.
        assert candidate_set <= baseline_pairs
        rows.append(
            {
                "rows": num_rows,
                "cap": cap,
                "pruned": index.num_pruned_ngrams,
                "pairs": len(candidate_set),
                "cand_rec": (
                    len(candidate_set & baseline_pairs) / len(baseline_pairs)
                    if baseline_pairs
                    else 1.0
                ),
                "gold_rec": (
                    len(candidate_set & golden) / len(golden) if golden else 1.0
                ),
                "time_s": elapsed,
                "speedup": baseline_seconds / elapsed if elapsed > 0 else 0.0,
            }
        )
    return rows


def test_stop_gram_cap_calibration():
    """Regenerate the stop-gram cap calibration report."""
    scale = bench_scale(default=1.0)
    rows: list[dict] = []
    for rung in RUNGS:
        rows.extend(sweep_rung(max(50, int(rung * scale))))

    write_report(
        "stop_gram_cap",
        format_table(rows, title="stop-gram cap calibration (synthetic ladder)"),
    )
    RESULTS_DIR.mkdir(parents=True, exist_ok=True)
    (RESULTS_DIR / "stop_gram_cap.json").write_text(
        json.dumps({"caps": list(CAPS), "rows": rows}, indent=2) + "\n",
        encoding="utf-8",
    )

    # The calibration contract behind the documented default: pruning must
    # never invent pairs (asserted per cap above), and the golden matching
    # must survive the documented memory-bound setting (cap = 64).
    for row in rows:
        if row["cap"] >= 64:
            assert row["gold_rec"] >= 0.99, row
