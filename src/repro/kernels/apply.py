"""Fused apply-and-probe join kernel.

:func:`join_trie_rows` is the numpy-tier implementation of the joiner's
apply-then-probe step: it applies every transformation of a frozen unit
trie to a batch of source values and equi-joins the outputs against a
target column, without building a single transformed string.  It returns
every (transformation, source row, target row) triple where the
transformation maps the source value to exactly the target value; the
joiner orders and de-duplicates them (:func:`first_matches`) into the
spec's pairs, order and first-match attribution.

* **Code points and spans.** Source values are the coverage kernel's
  padded ``uint32`` code-point arrays (:class:`~repro.kernels.coverage.
  _Sources`), with the literal pool appended, so the output of every
  Literal, Substr and single-character Split/SplitSubstr unit is a span
  ``(offset, length)`` of one array, found by the same per-(delimiter,
  row) boundary arithmetic.  TwoCharSplitSubstr, multi-character split
  delimiters and units that override ``apply()`` are applied per item in
  Python, with the spec's semantics, and their outputs appended to the
  array, so they are spans too.
* **Levels.** The walk is level-synchronous: each (node, row) item of a
  trie depth expands through the CSR arrays into its (edge, row) items at
  once.  An item carries its output prefix as a 64-bit polynomial hash and
  a length, never as a string: appending a span is ``H(x‖y) = H(x)·B^|y| +
  H(y)`` (arithmetic mod 2^64, B odd), and every span's hash comes from one
  prefix sum of ``c[j]·B^-j`` over the code array.
* **Probe and verify.** Items at nodes where transformations end are
  probed against the target's :class:`JoinTable` (built once per
  :class:`~repro.matching.index.ValueIndex`): the key folds the length
  into the hash, and candidates must match key and length.  Every
  candidate is then verified code point by code point, walking the
  item's parent pointers back through the levels, so a hash collision
  can cost time but can never create a pair.
* **Blocks and deadlines.** Rows are walked in blocks of at most
  :data:`_BLOCK_ROWS` rows and about :data:`_BLOCK_CODES` code points, so
  peak memory does not grow with the batch; a deadline is checked before
  each block and raises instead of returning a prefix.

Batches smaller than :data:`_APPLY_MIN_ROWS` rows cannot amortize the
array setup; the joiner walks them, and everything under the pure-Python
tier, with the per-row spec walker of :mod:`repro.model.apply`.
"""

from __future__ import annotations

from time import monotonic
from typing import TYPE_CHECKING, Any, Sequence

from repro.kernels import numpy_or_none
from repro.kernels.coverage import (
    _SOURCE_PAD,
    _TARGET_PAD,
    _chunks,
    _encode,
    _ranges,
    _Sources,
    _TrieSpans,
)

if TYPE_CHECKING:
    from repro.core.coverage import PackedTrie

#: Batches smaller than this take the per-row walker: a serve-style
#: micro-batch cannot amortize the per-block array setup.
_APPLY_MIN_ROWS = 64

#: Rows and code points per block; bound the kernel's working memory.
#: Results do not depend on them.
_BLOCK_ROWS = 1 << 14
_BLOCK_CODES = 1 << 20

#: The polynomial hash base (odd, so invertible mod 2^64) and its inverse.
_BASE = 0x9E3779B97F4A7C15
_BASE_INVERSE = pow(_BASE, -1, 1 << 64)
#: Multipliers of the key: the length fold and the murmur3 finalizer.
_LENGTH_MIX = 0xD6E8FEB86659FD93
_MIX1 = 0xFF51AFD7ED558CCD
_MIX2 = 0xC4CEB9FE1A85EC53


def _powers(np: Any, base: int, count: int) -> Any:
    """``base^k`` mod 2^64 for k below *count*, as ``uint64``, by doubling."""
    powers = np.ones(max(count, 1), dtype=np.uint64)
    filled = 1
    while filled < count:
        take = min(filled, count - filled)
        step = np.uint64(pow(base, filled, 1 << 64))
        np.multiply(powers[:take], step, out=powers[filled : filled + take])
        filled += take
    return powers


class _SpanHashes:
    """The polynomial hash of any span of one code array.

    ``sums[j]`` is the sum of ``codes[i] * B^-i`` for ``i < j``, so a span
    ``[a, b)`` hashes to ``(sums[b] - sums[a]) * B^(b - 1)``.
    """

    def __init__(self, np: Any, codes: Any) -> None:
        self.np = np
        self.power = _powers(np, _BASE, len(codes) + 1)
        self.sums = np.zeros(len(codes) + 1, dtype=np.uint64)
        np.cumsum(
            codes * _powers(np, _BASE_INVERSE, len(codes))[: len(codes)],
            out=self.sums[1:],
        )

    def __call__(self, offset: Any, length: Any) -> Any:
        end = offset + length
        return (self.sums[end] - self.sums[offset]) * self.power[
            self.np.maximum(end - 1, 0)
        ]


def _keys(np: Any, hashes: Any, lengths: Any) -> Any:
    """Probe keys: the hash with the length folded in, then mixed so the
    top bits (the table's bucket) spread even for short values."""
    key = hashes ^ lengths.astype(np.uint64) * np.uint64(_LENGTH_MIX)
    key ^= key >> np.uint64(33)
    key *= np.uint64(_MIX1)
    key ^= key >> np.uint64(33)
    key *= np.uint64(_MIX2)
    key ^= key >> np.uint64(33)
    return key


def _blocks(np: Any, lengths: Any) -> list[tuple[int, int]]:
    """``(lo, hi)`` row blocks of at most :data:`_BLOCK_ROWS` rows and
    about :data:`_BLOCK_CODES` code points (a longer row is its own block)."""
    ends = np.cumsum(lengths + 1)
    count = len(lengths)
    bounds = [0]
    while bounds[-1] < count:
        lo = bounds[-1]
        budget = (int(ends[lo - 1]) if lo else 0) + _BLOCK_CODES
        hi = int(np.searchsorted(ends, budget, side="right"))
        bounds.append(min(max(hi, lo + 1), lo + _BLOCK_ROWS, count))
    return list(zip(bounds, bounds[1:]))


class JoinTable:
    """The target column as the join kernel probes it.

    ``codes``/``starts``/``lengths`` are the padded code points of every
    value (for verification); ``keys`` are the values' probe keys sorted,
    ``rows`` their row ids (ascending within a key), and ``directory`` the
    first position of each bucket of ``2^(bit_length(n) + 1)`` buckets on
    the keys' top bits, so a probe reads one short range.
    """

    __slots__ = ("codes", "starts", "lengths", "keys", "rows", "directory", "shift")

    def __init__(self, values: Sequence[str]) -> None:
        np = numpy_or_none()
        assert np is not None, "the join table requires the numpy tier"
        self.codes, self.starts, self.lengths = _encode(np, values, _TARGET_PAD)
        keys = np.zeros(len(values), dtype=np.uint64)
        for lo, hi in _blocks(np, self.lengths):
            base = int(self.starts[lo])
            top = int(self.starts[hi - 1] + self.lengths[hi - 1])
            keys[lo:hi] = _SpanHashes(np, self.codes[base:top])(
                self.starts[lo:hi] - base, self.lengths[lo:hi]
            )
        keys = _keys(np, keys, self.lengths)
        self.rows = np.argsort(keys, kind="stable")
        self.keys = keys[self.rows]
        bits = len(values).bit_length() + 1
        self.shift = np.uint64(64 - bits)
        self.directory = np.searchsorted(
            (self.keys >> self.shift).astype(np.int64), np.arange((1 << bits) + 1)
        )

    @property
    def num_rows(self) -> int:
        """Number of target rows."""
        return len(self.lengths)

    def probe(self, np: Any, keys: Any, lengths: Any) -> tuple[Any, Any]:
        """``(query, row)`` candidates: every target row whose key and
        length equal query *query*'s, rows ascending per query."""
        bucket = (keys >> self.shift).astype(np.int64)
        first = self.directory[bucket]
        count = self.directory[bucket + 1] - first
        query = np.repeat(np.arange(len(keys)), count)
        slot = _ranges(np, first, count)
        keep = self.keys[slot] == keys[query]
        query = query[keep]
        row = self.rows[slot[keep]]
        keep = self.lengths[row] == lengths[query]
        return query[keep], row[keep]


def trie_spans(trie: "PackedTrie") -> _TrieSpans:
    """The kernel's per-trie tables; build once per trie and reuse."""
    np = numpy_or_none()
    assert np is not None, "the join kernel requires the numpy tier"
    return _TrieSpans(np, trie)


class _Walk(_Sources):
    """One block of source rows walked level by level against the table."""

    def __init__(
        self, np: Any, tables: _TrieSpans, sources: Sequence[str], table: JoinTable
    ) -> None:
        super().__init__(np, tables, sources)
        self.table = table
        self.hashes = _SpanHashes(np, self.codes)
        self.slow_memo: dict[tuple[int, int], tuple[int, int] | None] = {}
        #: The block row of each item of the current depth.
        self.item_rows = np.arange(self.rows)
        #: Per depth: each item's parent (an index into the previous
        #: depth), its last span's offset and length, and its output length.
        self.levels: list[tuple[Any, Any, Any, Any]] = []

    def _slow(self, edges: Any, rows: Any) -> tuple[Any, Any, Any]:
        """``(valid, offset, length)`` of slow-unit items, applying each
        (unit, row) once and appending its output to :attr:`codes`."""
        np = self.np
        units = self.tables.units
        memo = self.slow_memo
        valid = np.zeros(len(edges), dtype=bool)
        offset = np.zeros(len(edges), dtype=np.int64)
        length = np.zeros(len(edges), dtype=np.int64)
        outputs: list[str] = []
        end = len(self.codes)
        for item, (edge, row) in enumerate(zip(edges.tolist(), rows.tolist())):
            unit = units[edge]
            key = (id(unit), row)
            if key in memo:
                span = memo[key]
            else:
                output = unit.apply(self.sources[row])
                span = None
                if output is not None:
                    span = (end, len(output))
                    end += len(output) + 1
                    outputs.append(output)
                memo[key] = span
            if span is not None:
                valid[item] = True
                offset[item], length[item] = span
        if outputs:
            self.codes = np.concatenate(
                [self.codes, _encode(np, outputs, _SOURCE_PAD)[0]]
            )
            self.hashes = _SpanHashes(np, self.codes)
        return valid, offset, length

    def _expand(
        self, node: Any, hashes: Any, lengths: Any, lo: int, hi: int
    ) -> tuple[Any, ...]:
        """The (child, parent, offset, span length) of every item of the
        frontier slice ``[lo, hi)`` whose edge's unit applies to its row,
        with the children's hashes and output lengths."""
        np = self.np
        tables = self.tables
        count = tables.edge_count[node[lo:hi]]
        edge = _ranges(np, tables.node_edges[node[lo:hi]], count)
        parent = np.repeat(np.arange(lo, hi), count)
        row = self.item_rows[parent]
        valid, offset, length = self.spans(edge, row)
        if tables.has_slow:
            slow = np.flatnonzero(tables.slow[edge])
            if len(slow):
                valid[slow], offset[slow], length[slow] = self._slow(
                    edge[slow], row[slow]
                )
        keep = np.flatnonzero(valid)
        edge, parent, offset, length = (
            edge[keep], parent[keep], offset[keep], length[keep]
        )
        child_hashes = hashes[parent] * self.hashes.power[length] + self.hashes(
            offset, length
        )
        return (
            tables.child[edge],
            parent,
            offset,
            length,
            child_hashes,
            lengths[parent] + length,
        )

    def _verify(self, depth: int, item: Any, target_row: Any) -> Any:
        """Whether each candidate item's output equals its target row's
        value, span by span back to the root (lengths already match)."""
        np = self.np
        codes = self.codes
        target = self.table.codes
        at = self.table.starts[target_row]
        ok = np.ones(len(item), dtype=bool)
        for level in range(depth, 0, -1):
            parent, offset, span, length = self.levels[level]
            offset = offset[item]
            span = span[item]
            start = at + length[item] - span
            for lo, hi in _chunks(np, span):
                count = span[lo:hi]
                differ = (
                    codes[_ranges(np, offset[lo:hi], count)]
                    != target[_ranges(np, start[lo:hi], count)]
                )
                ok[np.repeat(np.arange(lo, hi), count)[differ]] = False
            item = parent[item]
        return ok

    def _probe(
        self, depth: int, node: Any, hashes: Any, lengths: Any
    ) -> tuple[Any, ...]:
        """``(transformation, row, target row)`` of this depth's items at
        terminal nodes whose output is a target value."""
        np = self.np
        tables = self.tables
        item = np.flatnonzero(tables.terminal_count[node])
        query, target_row = self.table.probe(
            np, _keys(np, hashes[item], lengths[item]), lengths[item]
        )
        item = item[query]
        ok = self._verify(depth, item, target_row)
        item = item[ok]
        count = tables.terminal_count[node[item]]
        return (
            tables.terminals[_ranges(np, tables.node_terminals[node[item]], count)],
            np.repeat(self.item_rows[item], count),
            np.repeat(target_row[ok], count),
        )

    def run(self) -> list[tuple[Any, ...]]:
        """Every (transformation, block row, target row) triple, in parts."""
        np = self.np
        rows = self.rows
        node = np.full(rows, self.tables.root, dtype=np.int64)
        hashes = np.zeros(rows, dtype=np.uint64)
        lengths = np.zeros(rows, dtype=np.int64)
        self.levels = [(None, None, None, lengths)]
        found: list[tuple[Any, ...]] = []
        depth = 0
        while len(node):
            found.append(self._probe(depth, node, hashes, lengths))
            parts = [
                self._expand(node, hashes, lengths, lo, hi)
                for lo, hi in _chunks(np, self.tables.edge_count[node])
            ]
            node, parent, offset, span, hashes, lengths = (
                np.concatenate([part[field] for part in parts]) for field in range(6)
            )
            self.item_rows = self.item_rows[parent]
            self.levels.append((parent, offset, span, lengths))
            depth += 1
        return found


def join_trie_rows(
    values: Sequence[str],
    row_offset: int,
    tables: _TrieSpans,
    table: JoinTable,
    *,
    deadline: float | None = None,
) -> tuple[Any, Any, Any]:
    """Every ``(transformation, source row, target row)`` triple of
    *values* against *table*, as three ``int64`` arrays in no set order.

    *tables* come from :func:`trie_spans`; source rows are numbered from
    *row_offset*.  ``deadline`` (a ``time.monotonic()`` timestamp) is
    checked before every block and raises
    :class:`~repro.parallel.errors.DeadlineExceededError` once passed.
    """
    np = numpy_or_none()
    assert np is not None, "the join kernel requires the numpy tier"
    from repro.parallel.errors import DeadlineExceededError  # noqa: PLC0415

    lengths = np.fromiter(map(len, values), dtype=np.int64, count=len(values))
    parts: list[tuple[Any, ...]] = []
    for lo, hi in _blocks(np, lengths):
        if deadline is not None and monotonic() >= deadline:
            raise DeadlineExceededError(
                f"join deadline expired after {lo} of {len(values)} rows"
            )
        for index, row, target_row in _Walk(np, tables, values[lo:hi], table).run():
            parts.append((index, row + (row_offset + lo), target_row))
    return concatenate_triples(parts)


def concatenate_triples(parts: Sequence[tuple[Any, ...]]) -> tuple[Any, Any, Any]:
    """The three arrays of *parts* (triples of arrays) concatenated."""
    np = numpy_or_none()
    assert np is not None, "the join kernel requires the numpy tier"
    empty = np.zeros(0, np.int64)
    index, row, target_row = (
        np.concatenate([empty, *(part[field] for part in parts)])
        for field in range(3)
    )
    return index, row, target_row


def first_matches(
    index: Any, row: Any, target_row: Any, num_targets: int
) -> tuple[Any, Any, Any]:
    """The triples in the spec's order, each (row, target row) pair once.

    The reference join loops over transformations, then source rows, then
    target rows, and keeps a pair's first match: a lexsort by (index, row,
    target row) and each pair's first occurrence give the same sequence.
    """
    np = numpy_or_none()
    assert np is not None, "first_matches requires the numpy tier"
    order = np.lexsort((target_row, row, index))
    index, row, target_row = index[order], row[order], target_row[order]
    first = np.unique(row * max(num_targets, 1) + target_row, return_index=True)[1]
    first.sort()
    return index[first], row[first], target_row[first]


__all__ = [
    "JoinTable",
    "concatenate_triples",
    "first_matches",
    "join_trie_rows",
    "trie_spans",
    "_APPLY_MIN_ROWS",
]
