"""Interned n-gram kernels of the packed row matcher (numpy tier).

The pure-Python :class:`~repro.matching.index.InvertedIndex` keys its
postings by gram string: every row is sliced into every n-gram of every
size, and each gram is hashed into a dict once per row.  This module is its
numpy twin.  Each column is encoded once into an array of code points, and
each n-gram position gets an integer id — the gram's lexicographic rank
among the distinct grams of its size:

* size-1 ids are the ranks of the code points in the column's sorted
  alphabet;
* the size-*n* id at position *p* is the rank of the key
  ``id[n-1][p] * K + char_rank[p+n-1]`` (*K* the alphabet size) among the
  sorted distinct keys of size *n*.  A gram is its (n-1)-prefix plus one
  character, so ranking these keys orders grams of one size exactly as
  Python compares the strings, code point by code point.

Everything downstream is array work on those ids:

* target row frequencies are a ``bincount``, and the postings are CSR: one
  offsets array and one row array over all sizes, each gram's rows sorted
  ascending (:func:`build_gram_table`);
* source grams are mapped into the target's id space with ``searchsorted``
  on the same keys, so grams absent from the target drop out without
  hashing — and, since the grams of a size extend the grams one shorter,
  a position whose prefix is absent is dropped for every larger size
  (:func:`count_source_grams`);
* the representative of each (row, size) is the highest Rscore with ties
  to the smallest id, which is the lexicographically smallest gram — the
  spec's tie rule (:func:`select_representatives`);
* candidate emission expands the representatives' posting ranges and keeps
  each (source, target) row pair's first occurrence
  (:func:`candidate_rows`).

Each function produces exactly the values of the string path in
:mod:`repro.matching.index` — the same grams, frequencies,
representatives and candidate pairs in the same order — which stays the
executable spec.  Values are lower-cased with ``str.lower()`` (which may
change a value's length) and row lengths come from ``len()``, never from
numpy's string lengths, which drop trailing NULs; the ``utf-32`` encoding
with ``surrogatepass`` keeps lone surrogates one code point each, as in
the ``str`` itself.
"""

from __future__ import annotations

from array import array
from collections.abc import Sequence
from dataclasses import dataclass
from typing import Any

from repro.kernels import numpy_or_none

#: Postings are int32, as in the string path's ``array("i")``.  With the
#: target's text length and row count below this bound every int64 key
#: product fits: gram ids times the alphabet size stay below 2**52, and
#: gram ids or rows times a row or id count below 2**62 (a source column
#: of 2**31 rows would not fit in memory as a list of ``str``).
_MAX_COUNT = 2**31


@dataclass
class GramTable:
    """The interned n-gram index of a target column.

    Global gram ids number the sizes ``min_size..max_size`` consecutively:
    the size-*n* grams hold ids ``base[n - min_size]`` up to (excluding)
    ``base[n - min_size + 1]``, in lexicographic order.
    """

    min_size: int
    max_size: int
    lowercase: bool
    #: The lower-cased (when asked) target values, joined: grams decode
    #: from it as ``text[first[gid]:first[gid] + size]``.
    text: str
    #: Cumulative row lengths: row *r* spans ``text[ends[r-1]:ends[r]]``.
    row_ends: Any
    #: ``keys[n - 1]`` holds the sorted distinct keys of size *n*
    #: (``keys[0]`` is the sorted alphabet of code points).
    keys: list[Any]
    base: Any
    #: Rows containing each gram (exact even for pruned stop-grams).
    frequency: Any
    #: CSR postings: gram *g*'s rows are ``rows[offsets[g]:offsets[g+1]]``.
    offsets: Any
    rows: Any
    #: Text position of each gram's first occurrence.
    first: Any
    num_pruned: int

    @property
    def num_ids(self) -> int:
        return int(self.base[-1])


@dataclass
class SourceGrams:
    """The source grams that occur in the target, deduplicated per row.

    Parallel arrays of (source row, global target gram id), sorted by row,
    then id — and so, within a row, by n-gram size.
    """

    rows: Any
    ids: Any


@dataclass
class Representatives:
    """Every source row's representative grams, as global target ids.

    ``rows`` ascends and, within a row, ``ids`` follow n-gram size — the
    order in which candidate emission scans their postings.
    """

    table: GramTable
    rows: Any
    ids: Any


def _numpy() -> Any:
    np = numpy_or_none()
    assert np is not None, "the n-gram kernels require the numpy tier"
    return np


def _encode(np: Any, values: Sequence[str], lowercase: bool) -> tuple[str, Any, Any]:
    """``(text, code_points, row_ends)`` of a column, each value lower-cased
    first when *lowercase*."""
    if lowercase:
        values = [value.lower() for value in values]
    lengths = np.fromiter(map(len, values), dtype=np.int64, count=len(values))
    text = "".join(values)
    codes = np.frombuffer(
        text.encode("utf-32-le", "surrogatepass"), dtype="<u4"
    ).astype(np.int64)
    return text, codes, np.cumsum(lengths)


def _positions(np: Any, row_ends: Any) -> tuple[Any, Any]:
    """Each text position's row, and the characters left in its row."""
    lengths = np.diff(row_ends, prepend=0)
    row_of = np.repeat(np.arange(len(row_ends), dtype=np.int64), lengths)
    remaining = np.repeat(row_ends, lengths) - np.arange(len(row_of))
    return row_of, remaining


def _starts(np: Any, ordered: Any) -> Any:
    """Indices where a new value begins in the sorted array *ordered*."""
    new = np.ones(len(ordered), dtype=bool)
    np.not_equal(ordered[1:], ordered[:-1], out=new[1:])
    return np.flatnonzero(new)


def _rank(np: Any, key: Any) -> tuple[Any, Any, Any, Any]:
    """Dense ranks of *key* among its distinct values.

    Returns ``(ranks, distinct, order, starts)``: *distinct* is sorted,
    *order* sorts *key*, and ``starts[r]`` is where rank *r* begins in
    ``key[order]``.
    """
    order = np.argsort(key)
    ordered = key[order]
    starts = _starts(np, ordered)
    step = np.zeros(len(key), dtype=np.int64)
    step[starts[1:]] = 1
    ranks = np.empty(len(key), dtype=np.int64)
    ranks[order] = np.cumsum(step)
    return ranks, ordered[starts], order, starts


def _lookup(np: Any, keys: Any, queries: Any) -> Any:
    """Index of each query in the sorted array *keys*, or -1 when absent.

    Sorting the queries first keeps ``searchsorted`` cache-friendly.
    """
    found = np.full(len(queries), -1, dtype=np.int64)
    if not len(keys) or not len(queries):
        return found
    order = np.argsort(queries)
    ordered = queries[order]
    at = np.searchsorted(keys, ordered)
    at[at == len(keys)] = 0
    hit = keys[at] == ordered
    found[order[hit]] = at[hit]
    return found


def _pairs(np: Any, major: Any, minor: Any, radix: int) -> tuple[Any, Any]:
    """The distinct (major, minor) pairs, sorted by major, then minor
    (``0 <= minor < radix``)."""
    ordered = np.sort(major * radix + minor)
    pairs = ordered[_starts(np, ordered)]
    pair_major = pairs // radix
    return pair_major, pairs - pair_major * radix


def build_gram_table(
    values: Sequence[str],
    *,
    min_size: int,
    max_size: int,
    lowercase: bool,
    stop_gram_cap: int,
) -> GramTable | None:
    """Intern every n-gram of *values* (row ids are positions in the list).

    Returns ``None`` for a column too large for int32 postings; the caller
    then builds the string index instead.
    """
    np = _numpy()
    text, codes, row_ends = _encode(np, values, lowercase)
    num_rows = len(values)
    if max(len(codes), num_rows) >= _MAX_COUNT:
        return None
    row_of, remaining = _positions(np, row_ends)
    positions = np.arange(len(codes), dtype=np.int64)

    char_rank, alphabet, order, starts = _rank(np, codes)
    keys = [alphabet]
    gram_ids = char_rank
    counts: list[int] = []
    frequency: list[Any] = []
    rows: list[Any] = []
    first: list[Any] = []
    for size in range(1, max_size + 1):
        if size > 1:
            keep = remaining[positions] >= size
            positions = positions[keep]
            if not len(positions):
                break
            key = gram_ids[keep] * len(alphabet) + char_rank[positions + size - 1]
            gram_ids, distinct_keys, order, starts = _rank(np, key)
            keys.append(distinct_keys)
        if size < min_size:
            continue
        # Postings in (gram, row) order; a gram's frequency is its row count.
        gram_of, row = _pairs(np, gram_ids, row_of[positions], max(num_rows, 1))
        counts.append(len(keys[-1]))
        frequency.append(np.bincount(gram_of, minlength=counts[-1]))
        rows.append(row)
        first.append(
            np.minimum.reduceat(positions[order], starts) if len(starts) else starts
        )
    counts += [0] * (max_size - min_size + 1 - len(counts))
    base = np.zeros(len(counts) + 1, dtype=np.int64)
    np.cumsum(counts, out=base[1:])
    frequencies = _concat(np, frequency, np.int64)
    postings = _concat(np, rows, np.int32)
    lengths = frequencies
    num_pruned = 0
    if stop_gram_cap > 0:
        stop = frequencies > stop_gram_cap
        num_pruned = int(stop.sum())
        postings = postings[np.repeat(~stop, frequencies)]
        lengths = np.where(stop, 0, frequencies)
    offsets = np.zeros(len(lengths) + 1, dtype=np.int64)
    np.cumsum(lengths, out=offsets[1:])
    return GramTable(
        min_size=min_size,
        max_size=max_size,
        lowercase=lowercase,
        text=text,
        row_ends=row_ends,
        keys=keys,
        base=base,
        frequency=frequencies,
        offsets=offsets,
        rows=postings,
        first=_concat(np, first, np.int64),
        num_pruned=num_pruned,
    )


def _concat(np: Any, parts: list[Any], dtype: Any) -> Any:
    if not parts:
        return np.zeros(0, dtype=dtype)
    return np.concatenate(parts).astype(dtype, copy=False)


def count_source_grams(
    table: GramTable, values: Sequence[str]
) -> tuple[SourceGrams, Any]:
    """The kept source grams, and their source-side row frequencies (a
    ``bincount`` indexed by global gram id)."""
    np = _numpy()
    _, codes, row_ends = _encode(np, values, table.lowercase)
    row_of, remaining = _positions(np, row_ends)
    alphabet = table.keys[0]
    char_rank = _lookup(np, alphabet, codes)
    positions = np.flatnonzero(char_rank >= 0)
    gram_ids = char_rank[positions]
    rows: list[Any] = []
    ids: list[Any] = []
    for size in range(1, min(table.max_size, len(table.keys)) + 1):
        if size > 1:
            keep = remaining[positions] >= size
            positions = positions[keep]
            last = char_rank[positions + size - 1]
            known = last >= 0
            positions = positions[known]
            key = gram_ids[keep][known] * len(alphabet) + last[known]
            gram_ids = _lookup(np, table.keys[size - 1], key)
            found = gram_ids >= 0
            positions = positions[found]
            gram_ids = gram_ids[found]
        if size >= table.min_size:
            rows.append(row_of[positions])
            ids.append(gram_ids + table.base[size - table.min_size])
    pair_rows, pair_ids = _pairs(
        np, _concat(np, rows, np.int64), _concat(np, ids, np.int64),
        max(table.num_ids, 1),
    )
    frequency = np.bincount(pair_ids, minlength=table.num_ids)
    return SourceGrams(rows=pair_rows, ids=pair_ids), frequency


def select_representatives(
    table: GramTable, kept: SourceGrams, source_frequency: Any
) -> Representatives:
    """Each source row's highest-Rscore gram of every size.

    The score is the spec's float64 expression ``(1.0/sf) * (1.0/tf)``;
    comparing integer products instead could split ties that round to the
    same float.  Among a row's tied grams of one size the smallest id — the
    lexicographically smallest gram — wins.
    """
    np = _numpy()
    rows, ids = kept.rows, kept.ids
    if not len(ids):
        return Representatives(table=table, rows=rows, ids=ids)
    score = (1.0 / source_frequency[ids]) * (1.0 / table.frequency[ids])
    # One group per (row, size); kept pairs are sorted by (row, id).
    group = rows * len(table.base) + np.searchsorted(table.base, ids, side="right")
    starts = _starts(np, group)
    best = np.repeat(
        np.maximum.reduceat(score, starts), np.diff(starts, append=len(score))
    )
    winners = np.flatnonzero(score == best)
    winners = winners[_starts(np, group[winners])]
    return Representatives(table=table, rows=rows[winners], ids=ids[winners])


def candidate_rows(
    representatives: Representatives,
    max_candidates_per_row: int,
    num_target_rows: int,
) -> tuple[list[int], list[int]]:
    """``(source_rows, target_rows)`` of the candidate pairs, in emission order.

    A source row scans its representatives' postings in order and keeps
    each target row's first occurrence, up to *max_candidates_per_row*
    (0 = all).  A posting list holds distinct rows, so the first ``cap``
    rows of each list are all the cap can ever reach.
    """
    np = _numpy()
    table = representatives.table
    starts = table.offsets[representatives.ids]
    lengths = table.offsets[representatives.ids + 1] - starts
    if max_candidates_per_row:
        lengths = np.minimum(lengths, max_candidates_per_row)
    owner = np.repeat(np.arange(len(lengths)), lengths)
    entry = np.arange(len(owner)) + (starts - np.cumsum(lengths) + lengths)[owner]
    source_rows = representatives.rows[owner]
    target_rows = table.rows[entry].astype(np.int64)
    pair_keys = source_rows * max(num_target_rows, 1) + target_rows
    order = np.argsort(pair_keys, kind="stable")
    first = np.zeros(len(order), dtype=bool)
    first[order[_starts(np, pair_keys[order])]] = True
    source_rows = source_rows[first]
    target_rows = target_rows[first]
    if max_candidates_per_row:
        row_starts = _starts(np, source_rows)
        rank = np.arange(len(source_rows)) - np.repeat(
            row_starts, np.diff(row_starts, append=len(source_rows))
        )
        within = rank < max_candidates_per_row
        source_rows = source_rows[within]
        target_rows = target_rows[within]
    return source_rows.tolist(), target_rows.tolist()


def _gram_sizes(np: Any, table: GramTable, ids: Any) -> Any:
    return np.searchsorted(table.base, ids, side="right") - 1 + table.min_size


def representative_strings(
    representatives: Representatives, num_source_rows: int
) -> list[list[str]]:
    """The representatives as gram strings, one list per source row."""
    np = _numpy()
    table = representatives.table
    text = table.text
    result: list[list[str]] = [[] for _ in range(num_source_rows)]
    starts = table.first[representatives.ids]
    ends = starts + _gram_sizes(np, table, representatives.ids)
    for row, start, end in zip(
        representatives.rows.tolist(), starts.tolist(), ends.tolist()
    ):
        result[row].append(text[start:end])
    return result


def string_tables(table: GramTable) -> tuple[dict[str, array], dict[str, int]]:
    """The string path's ``(postings, frequency)`` dicts of *table*.

    Grams are inserted in the order the string path first meets them: by
    row, then size, then position in the row.  Stop-grams keep their
    frequency but get no postings.
    """
    np = _numpy()
    text = table.text
    ids = np.arange(table.num_ids)
    sizes = _gram_sizes(np, table, ids)
    first_row = np.searchsorted(table.row_ends, table.first, side="right")
    starts = table.first.tolist()
    ends = (table.first + sizes).tolist()
    counts = table.frequency.tolist()
    offsets = table.offsets.tolist()
    rows = table.rows.tolist()
    postings: dict[str, array] = {}
    frequency: dict[str, int] = {}
    for gram_id in np.lexsort((table.first, sizes, first_row)).tolist():
        gram = text[starts[gram_id]:ends[gram_id]]
        frequency[gram] = counts[gram_id]
        start, stop = offsets[gram_id], offsets[gram_id + 1]
        if stop > start:
            postings[gram] = array("i", rows[start:stop])
    return postings, frequency
