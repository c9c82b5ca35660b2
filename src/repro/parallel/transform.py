"""Process-sharded batch transformation (the apply-only path).

The apply kernel of :mod:`repro.model.apply` walks the frozen unit-prefix
trie once per source row, and every structure it touches — the unit-output
memo, the split caches, the accumulated output prefixes — is per-row, so
sharding rows across processes cannot change any output.  The
:class:`~repro.core.coverage.PackedTrie` is compiled once in the parent and
shared with the workers through the
:class:`~repro.parallel.executor.ShardedExecutor` (copy-on-write under
fork, pickled once per worker under spawn); each task is a ``(start,
stop)`` row range.

The merge is order-preserving: shard results come back in ascending shard
order and each transformation's ``(row, output)`` list is extended shard by
shard, so the merged per-transformation outputs are in the same ascending
row order as the serial kernel — byte-identical results, any worker count.

:func:`sharded_join` shards the numpy tier's fused join kernel
(:func:`~repro.kernels.apply.join_trie_rows`) the same way: the state also
carries the kernel's trie tables and the target's
:class:`~repro.kernels.apply.JoinTable`, and each shard returns its
(transformation, row, target row) triples as three int arrays — no
transformed string crosses a process boundary.  The joiner orders the
concatenated triples, so the shard order does not matter.
"""

from __future__ import annotations

from collections.abc import Sequence
from typing import Any

from repro.core.coverage import PackedTrie
from repro.model.apply import transform_trie_rows
from repro.parallel.executor import (
    DEFAULT_MAX_SHARD_RETRIES,
    ShardedExecutor,
    worker_state,
)


class TransformShardState:
    """Read-only state shared with transform workers: values + frozen trie
    (or, for a join, the kernel's trie tables) + the join's target table.

    ``deadline`` is an optional ``time.monotonic()`` timestamp computed in
    the parent; ``CLOCK_MONOTONIC`` is system-wide, so workers compare it
    against their own clock to stop cooperatively at the next block
    boundary (see :func:`~repro.model.apply.transform_trie_rows`).
    """

    __slots__ = ("values", "trie", "deadline", "table")

    def __init__(
        self,
        values: list[str],
        trie: Any,
        deadline: float | None = None,
        table: Any = None,
    ) -> None:
        self.values = values
        self.trie = trie
        self.deadline = deadline
        self.table = table

    def __getstate__(self):
        return (self.values, self.trie, self.deadline, self.table)

    def __setstate__(self, state) -> None:
        self.values, self.trie, self.deadline, self.table = state


def _transform_worker(start: int, stop: int) -> dict[int, list[tuple[int, str]]]:
    """Transform the shared values in ``[start, stop)`` (global row ids)."""
    state: TransformShardState = worker_state()
    return transform_trie_rows(
        state.values[start:stop], start, state.trie, deadline=state.deadline
    )


def _join_worker(start: int, stop: int) -> tuple[Any, Any, Any]:
    """Join the shared values in ``[start, stop)`` (global row ids)."""
    from repro.kernels.apply import join_trie_rows

    state: TransformShardState = worker_state()
    return join_trie_rows(
        state.values[start:stop],
        start,
        state.trie,
        state.table,
        deadline=state.deadline,
    )


def sharded_transform(
    values: Sequence[str],
    trie: PackedTrie,
    *,
    num_workers: int,
    start_method: str | None = None,
    task_timeout: float | None = None,
    max_shard_retries: int = DEFAULT_MAX_SHARD_RETRIES,
    serial_fallback: bool = True,
    deadline: float | None = None,
) -> dict[int, list[tuple[int, str]]]:
    """Apply the trie's transformations to *values*, sharded by row.

    Returns the same mapping as
    :func:`~repro.model.apply.transform_trie_rows` over all rows —
    byte-identical to the serial kernel.  ``task_timeout``/
    ``max_shard_retries``/``serial_fallback`` configure the executor's
    recovery behaviour; ``deadline`` (a monotonic timestamp) is honoured
    cooperatively inside every worker, raising
    :class:`~repro.parallel.errors.DeadlineExceededError` at the next
    block boundary once expired.
    """
    state = TransformShardState(list(values), trie, deadline)
    outputs: dict[int, list[tuple[int, str]]] = {}
    executor = ShardedExecutor(
        state,
        num_workers=num_workers,
        start_method=start_method,
        task_timeout=task_timeout,
        max_shard_retries=max_shard_retries,
        serial_fallback=serial_fallback,
    )
    with executor:
        for shard_outputs in executor.map_shards(
            _transform_worker, len(state.values)
        ):
            for index, pairs in shard_outputs.items():
                existing = outputs.get(index)
                if existing is None:
                    outputs[index] = pairs
                else:
                    existing.extend(pairs)
    return outputs


def sharded_join(
    values: Sequence[str],
    tables: Any,
    table: Any,
    *,
    deadline: float | None = None,
    **executor_options: Any,
) -> tuple[Any, Any, Any]:
    """The fused join kernel over *values*, sharded by row.

    *tables* are the kernel's trie tables
    (:func:`~repro.kernels.apply.trie_spans`) and *table* the target's
    :class:`~repro.kernels.apply.JoinTable`; *executor_options*
    (``num_workers``, ``task_timeout``, ``max_shard_retries``, ...) go to
    the :class:`~repro.parallel.executor.ShardedExecutor`.  Returns the
    triples of :func:`~repro.kernels.apply.join_trie_rows` over all rows;
    the deadline works as in :func:`sharded_transform`.
    """
    from repro.kernels.apply import concatenate_triples

    state = TransformShardState(list(values), tables, deadline, table)
    with ShardedExecutor(state, **executor_options) as executor:
        shards = executor.map_shards(_join_worker, len(state.values))
    return concatenate_triples(shards)


__all__ = ["TransformShardState", "sharded_join", "sharded_transform"]
