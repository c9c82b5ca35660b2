"""Process-sharded execution of the matching/coverage/apply hot paths.

Rows are independent in all three hot stages of the pipeline, so this
package shards them across a process pool while keeping results
byte-identical to the serial engines (which remain the executable spec):

* :mod:`repro.parallel.executor` — the :class:`ShardedExecutor`: one pool
  per run, read-only state (packed index, frozen unit trie) shared
  copy-on-write under fork or pickled once per worker under spawn, guided
  shard sizing with a work-stealing task queue, deterministic in-order
  merges;
* :mod:`repro.parallel.coverage` — row-sharded batched coverage (identical
  covered rows always, identical cache statistics from a cold cache —
  workers never see a computer's warmed persistent cache);
* :mod:`repro.parallel.setsim` — source-row-sharded set-similarity
  matching (identical pairs and pruning statistics; the n-gram matcher
  runs serially);
* :mod:`repro.parallel.transform` — source-row-sharded batch
  transformation for the apply-only path of the artifact layer (identical
  outputs, ascending row order per transformation).

The knobs are ``DiscoveryConfig.num_workers``,
``MatchingConfig.num_workers`` and ``TransformationJoiner``'s
``num_workers`` (1 = serial, 0 = all cores; defaults honour the
``REPRO_NUM_WORKERS`` environment variable), surfaced on the CLI as
``--num-workers`` and on the perf harness as ``--workers``.  Every one of
them resolves through :func:`~repro.parallel.executor.tuned_num_workers`,
so "all cores" consistently honours the small-input fast path.

Failures inside the sharded paths surface as the typed taxonomy of
:mod:`repro.parallel.errors` (:class:`ShardError`,
:class:`WorkerCrashError`, :class:`ShardTimeoutError`); by default the
executor recovers from them transparently — bounded in-pool retries, then
a serial inline fallback that recomputes only the failed shards — so the
merged result stays byte-identical even on a flaky pool.
"""

from repro.parallel.errors import (
    DeadlineExceededError,
    ShardError,
    ShardTimeoutError,
    WorkerCrashError,
)
from repro.parallel.executor import (
    ShardedExecutor,
    default_start_method,
    env_default_workers,
    map_sharded,
    resolve_num_workers,
    shard_plan,
    tuned_num_workers,
    worker_state,
)

__all__ = [
    "DeadlineExceededError",
    "ShardError",
    "ShardTimeoutError",
    "ShardedExecutor",
    "WorkerCrashError",
    "default_start_method",
    "env_default_workers",
    "map_sharded",
    "resolve_num_workers",
    "shard_plan",
    "tuned_num_workers",
    "worker_state",
]
