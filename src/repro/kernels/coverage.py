"""Level-synchronous numpy kernel for the batched coverage walk.

:func:`walk_trie_rows_numpy` is the numpy-tier implementation of
:func:`repro.core.coverage._walk_trie_rows`: same signature, same return
value, byte-identical covered rows *and* statistics.  The pure-Python
walker stays the executable spec; this kernel makes the spec's per-(edge,
row) classifications in array form, one trie depth at a time for all rows
of a block, with no Python loop per node or per row.

* **Code points.** Sources and targets are flat ``uint32`` code-point
  arrays (UTF-32 with ``surrogatepass``, so lone surrogates are ordinary
  code points), each row followed by one pad value that is not a code
  point.  Sources and targets pad with different values, so a compare that
  runs past the end of either side always fails.  Literal texts live in a
  pool appended to the source array, so literals and source slices are
  both *spans* ``(offset, length)`` of the same array.
* **Levels.** The frontier is a set of (node, row, prefix) items.  Each
  level expands them through the CSR layout of
  :class:`~repro.core.coverage.TrieArrays` into (edge, row, prefix) items,
  in chunks of at most :data:`_CHUNK_ITEMS`, and classifies every item as
  the spec does: *skipped* (a required anchor is absent, the unit does not
  apply, or its output is not in the target), *failed* (the output is in
  the target but not at the prefix) or *descend* (to the child node, with
  the prefix advanced by the output length).  Skipped and failed items
  weigh their edge's subtree size, exactly the spec's tallies.
* **Root.** Non-empty literal root edges are reached sparsely: the anchor
  texts found in each target give the (edge, row) items, and every other
  (literal edge, row) pair is skipped in bulk.  All other root edges meet
  every row.
* **Anchors and required sets.** Anchor presence comes from one walk of
  the anchor trie (the ``goto`` table of the Aho-Corasick automaton) from
  every target position at once; a (required sets + 1) x rows table then
  answers every required-set check with one gather (row 0 means no
  requirement).
* **Splits.** The positions of every single-character delimiter in the
  sources, grouped by (delimiter, row), give any piece's start, end and
  existence (the delimiter occurs at least ``max(1, k)`` times) by index
  arithmetic.
* **Containment.** A span that fails the positional compare is *failed*
  when it occurs in the target and *skipped* otherwise.  The kernel keeps,
  per source position, the length of the longest prefix of the source
  suffix that occurs in the row's target (matching statistics), computed
  lazily and only up to the longest length asked, from candidate pairs
  (source position, target position with the same first code point) found
  in a target index sorted by (row, code point).
* **Slow units.** TwoCharSplitSubstr, fallback units and split units with
  multi-character delimiters are applied per item in Python, with the
  spec's semantics, inside the same level pass.

The walk ignores the warm non-covering sets: an entry is added only when a
unit's output is ``None`` or not in the target, a pure function of (unit,
row), so consulting it never changes a classification.  Blocks are the
spec's ``_WALK_BLOCK_ROWS`` rows, and a deadline is checked between them,
so ``rows_processed`` and the covered prefix match the spec.  Memory grows
with the block and chunk sizes and with the total length of a block's
values, never with the longest value alone.
"""

from __future__ import annotations

from time import monotonic
from typing import TYPE_CHECKING, Any, Sequence

from repro.kernels import numpy_or_none

if TYPE_CHECKING:
    from repro.core.coverage import PackedTrie
    from repro.core.pairs import RowPair
    from repro.core.units import TransformationUnit

#: Expanded (edge, row) items and containment candidate pairs per chunk;
#: bounds the kernel's working memory.  Results do not depend on it.
_CHUNK_ITEMS = 1 << 18

#: Pad values after each source (and literal) and each target row.  Neither
#: is a code point, and they differ, so no compare matches past a row end.
_SOURCE_PAD = 0xFFFFFFFF
_TARGET_PAD = 0xFFFFFFFE


def _encode(np: Any, values: Sequence[str], pad: int) -> tuple[Any, Any, Any]:
    """``(codes, starts, lengths)``: *values* as one padded code-point array."""
    count = len(values)
    lengths = np.fromiter(map(len, values), dtype=np.int64, count=count)
    codes = np.frombuffer(
        "".join(values).encode("utf-32-le", "surrogatepass"), dtype="<u4"
    )
    starts = np.cumsum(lengths + 1) - lengths - 1
    flat = np.full(len(codes) + count, pad, dtype=np.uint32)
    flat[np.arange(len(codes)) + np.repeat(np.arange(count), lengths)] = codes
    return flat, starts, lengths


def _code_table(np: Any, values: dict[int, int]) -> Any:
    """A table from code point to value, -1 for none.  Index it with
    ``np.minimum(code, len(table) - 1)``: the last slot is always -1."""
    table = np.full(max(values, default=-1) + 2, -1, dtype=np.int64)
    table[list(values)] = list(values.values())
    return table


def _chunks(np: Any, counts: Any) -> list[tuple[int, int]]:
    """``(lo, hi)`` ranges of *counts* summing to about
    :data:`_CHUNK_ITEMS` each (a single large count is its own range)."""
    ends = np.cumsum(counts)
    total = int(ends[-1]) if len(ends) else 0
    cuts = np.searchsorted(ends, np.arange(_CHUNK_ITEMS, total, _CHUNK_ITEMS))
    bounds = sorted({0, len(counts), *cuts.tolist()})
    return list(zip(bounds, bounds[1:]))


def _ranges(np: Any, firsts: Any, counts: Any) -> Any:
    """Concatenated ``range(first, first + count)`` over the pairs."""
    total = int(counts.sum())
    return np.arange(total) + np.repeat(firsts - (np.cumsum(counts) - counts), counts)


class _TrieSpans:
    """The trie's CSR arrays and its edges' span arguments, shared by the
    coverage and apply kernels.

    Literal, Substr and single-character Split/SplitSubstr edges are *span*
    edges: their output is a span of the block's code array (see
    :meth:`_Sources.spans`).  The other edges are *slow*: the kernels apply
    their units per item in Python.
    """

    def __init__(self, np: Any, trie: "PackedTrie") -> None:
        from repro.core.coverage import (
            EDGE_FIELDS,
            _OP_LITERAL,
            _OP_SPLIT,
            _OP_SPLITSUBSTR,
            _OP_SUBSTR,
        )

        arrays = trie.arrays
        self.units = arrays.units
        node_edges = np.asarray(arrays.node_edges, dtype=np.int64)
        node_terminals = np.asarray(arrays.node_terminals, dtype=np.int64)
        self.node_edges = node_edges[:-1]
        self.edge_count = np.diff(node_edges)
        self.node_terminals = node_terminals[:-1]
        self.terminal_count = np.diff(node_terminals)
        self.terminals = np.asarray(arrays.terminals, dtype=np.int64)
        self.root = len(self.node_edges) - 1
        table = np.asarray(arrays.edges, dtype=np.int64).reshape(-1, EDGE_FIELDS)
        op, self.child, self.subtree, req, arg0, arg1, arg2, arg3 = (
            np.ascontiguousarray(column) for column in table.T
        )
        self.req = req + 1
        single = np.array([len(d) == 1 for d in arrays.delimiters] + [True])
        literal = op == _OP_LITERAL
        split = (op == _OP_SPLIT) | (op == _OP_SPLITSUBSTR)
        span = (op == _OP_SUBSTR) | (split & single[np.where(split, arg0, -1)])
        self.slow = ~(literal | span)
        self.has_slow = bool(self.slow.any())
        # Span arguments; a literal reads as a whole-source span whose
        # offset and length are replaced from the literal pool.
        self.delimiter = np.where(span & split, arg0, -1)
        self.piece = arg1 * span
        self.start = arg2 * span
        self.end = np.where(span, arg3, -1)
        self.literal = literal
        # Anchor text id of each non-empty literal edge, else -1.
        self.text_id = np.where(literal & (arg0 >= 0), arg0, -1)
        texts = trie.anchor_texts
        text_lengths = np.fromiter(map(len, texts), dtype=np.int64, count=len(texts))
        text_offsets = np.cumsum(text_lengths + 1) - text_lengths - 1
        self.literal_offset = np.append(text_offsets, 0)[self.text_id]
        self.literal_length = arg1 * literal
        self.literal_pool = _encode(np, texts, _SOURCE_PAD)[0]
        # Delimiter ids by code point (single-character delimiters only).
        self.delimiter_lookup = _code_table(
            np,
            {ord(d): i for i, d in enumerate(arrays.delimiters) if len(d) == 1},
        )
        self.num_delimiters = len(arrays.delimiters)


class _Tables(_TrieSpans):
    """Per-walk numpy views of the trie: the shared span tables plus the
    coverage walk's root split and anchor metadata."""

    def __init__(self, np: Any, trie: "PackedTrie") -> None:
        super().__init__(np, trie)
        texts = trie.anchor_texts
        # The root, split three ways: non-empty literal edges by anchor text
        # id; fixed-length slices (Substr, SplitSubstr) grouped by the piece
        # they slice and then by slice start; every other edge.
        first = int(self.node_edges[self.root])
        root_edges = np.arange(first, first + int(self.edge_count[self.root]))
        root_literal = self.text_id[root_edges] >= 0
        root_slice = self.end[root_edges] >= 0
        self.root_other = root_edges[~root_literal & ~root_slice]
        groups: dict[tuple[int, int], list[int]] = {}
        for edge in root_edges[root_slice].tolist():
            key = (int(self.delimiter[edge]), int(self.piece[edge]))
            groups.setdefault(key, []).append(edge)
        self.root_slices: list[tuple[Any, ...]] = []
        for (delimiter, piece), members in groups.items():
            edges = np.asarray(members)
            edges = edges[np.argsort(self.start[edges], kind="stable")]
            starts, firsts, which = np.unique(
                self.start[edges], return_index=True, return_inverse=True
            )
            lengths = self.end[edges] - self.start[edges]
            self.root_slices.append(
                (delimiter, piece, starts, firsts, edges, which, lengths)
            )
        literal_edges = root_edges[root_literal]
        self.root_literal_edge = np.full(len(texts), -1, dtype=np.int64)
        self.root_literal_edge[self.text_id[literal_edges]] = literal_edges
        self.root_literal_total = int(self.subtree[literal_edges].sum())
        # Required sets: each text's sets (CSR) and every set's size.
        req_sets = trie.req_sets
        self.num_reqs = len(req_sets)
        self.req_size = np.fromiter(map(len, req_sets), np.int64, len(req_sets))
        req_texts = np.fromiter(
            (text for req_set in req_sets for text in req_set),
            np.int64,
            int(self.req_size.sum()),
        )
        req_ids = np.repeat(np.arange(len(req_sets)), self.req_size)
        order = np.argsort(req_texts, kind="stable")
        self.text_reqs = req_ids[order]
        text_counts = np.bincount(req_texts, minlength=len(texts))
        self.text_req_first = np.cumsum(text_counts) - text_counts
        self.text_req_count = text_counts
        # The anchor trie (the automaton's goto table) keyed by
        # (state << 32 | code point), and the text spelled by each state.
        goto = trie.automaton[0]
        keys = [
            state << 32 | ord(char)
            for state, moves in enumerate(goto)
            for char in moves
        ]
        moves_to = [target for moves in goto for target in moves.values()]
        order = np.argsort(np.asarray(keys, dtype=np.int64))
        self.anchor_keys = np.asarray(keys, dtype=np.int64)[order]
        self.anchor_next = np.asarray(moves_to, dtype=np.int64)[order]
        self.anchor_first = _code_table(
            np, {ord(char): state for char, state in goto[0].items()}
        )
        self.state_text = np.full(len(goto), -1, dtype=np.int64)
        for text_id, text in enumerate(texts):
            state = 0
            for char in text:
                state = goto[state][char]
            self.state_text[state] = text_id


class _Sources:
    """One block of source values as code points, with the split tables
    that give every span edge's output as a span of :attr:`codes`."""

    def __init__(self, np: Any, tables: _TrieSpans, sources: Sequence[str]) -> None:
        self.np = np
        self.tables = tables
        self.sources = sources
        self.rows = len(sources)
        source, self.source_start, self.source_length = _encode(
            np, sources, _SOURCE_PAD
        )
        self.source_size = len(source)
        self.source_rows = np.repeat(np.arange(self.rows), self.source_length + 1)
        self.codes = np.concatenate([source, tables.literal_pool])
        self._split_tables()

    def _split_tables(self) -> None:
        """Piece boundaries of every (delimiter, row) whose source contains
        the delimiter: the row start - 1, each delimiter position, the row
        end.  Piece *k* is ``boundaries[j + k] + 1 : boundaries[j + k + 1]``
        with ``j = boundary_first[delimiter * rows + row]``, and exists when
        ``delimiter_count[...] >= max(1, k)``."""
        np = self.np
        lookup = self.tables.delimiter_lookup
        rows = self.rows
        source = self.codes[: self.source_size]
        delimiter = lookup[np.minimum(source, len(lookup) - 1)]
        hits = np.flatnonzero(delimiter >= 0)
        delimiter = delimiter[hits]
        # Positions ascend, so a stable sort by delimiter alone groups them
        # by (delimiter, row); narrow keys take numpy's radix sort.
        narrow = np.min_scalar_type(self.tables.num_delimiters)
        order = np.argsort(delimiter.astype(narrow), kind="stable")
        hits = hits[order]
        key = delimiter[order] * rows + self.source_rows[hits]
        self.delimiter_count = np.bincount(
            key, minlength=self.tables.num_delimiters * rows
        )
        opens = np.diff(key, prepend=-1) != 0
        group = np.cumsum(opens) - 1
        lead = np.flatnonzero(opens) + 2 * np.arange(int(opens.sum()))
        boundaries = np.empty(len(hits) + 2 * len(lead), dtype=np.int64)
        boundaries[np.arange(len(hits)) + 2 * group + 1] = hits
        row = self.source_rows[hits[opens]]
        boundaries[lead] = self.source_start[row] - 1
        boundaries[lead + self.delimiter_count[key[opens]] + 1] = (
            self.source_start[row] + self.source_length[row]
        )
        self.boundaries = boundaries
        self.boundary_first = np.zeros(len(self.delimiter_count), dtype=np.int64)
        self.boundary_first[key[opens]] = lead

    def spans(self, edge: Any, row: Any) -> tuple[Any, Any, Any]:
        """``(valid, offset, length)``: where each span edge applies to its
        row, and its output as a span of :attr:`codes`."""
        np = self.np
        tables = self.tables
        # The piece a span slices: the whole source, or a split piece.
        piece_start = self.source_start[row]
        piece_end = piece_start + self.source_length[row]
        valid = np.ones(len(edge), dtype=bool)
        delimiter = tables.delimiter[edge]
        split = np.flatnonzero(delimiter >= 0)
        if len(split):
            key = delimiter[split] * self.rows + row[split]
            piece = tables.piece[edge[split]]
            exists = self.delimiter_count[key] >= np.maximum(piece, 1)
            valid[split] = exists
            split = split[exists]
            bound = self.boundary_first[key[exists]] + piece[exists]
            piece_start[split] = self.boundaries[bound] + 1
            piece_end[split] = self.boundaries[bound + 1]
        start = tables.start[edge]
        end = tables.end[edge]
        valid &= piece_end - piece_start >= end
        offset = piece_start + start
        length = np.where(end < 0, piece_end - piece_start, end - start)
        literal = tables.literal[edge]
        offset = np.where(
            literal, self.source_size + tables.literal_offset[edge], offset
        )
        length = np.where(literal, tables.literal_length[edge], length)
        return valid, offset, length


class _Block(_Sources):
    """One block of rows walked level by level."""

    tables: _Tables

    def __init__(
        self,
        np: Any,
        tables: _Tables,
        pairs: "Sequence[RowPair]",
        use_cache: bool,
    ) -> None:
        super().__init__(np, tables, [pair.source for pair in pairs])
        self.use_cache = use_cache
        self.targets = [pair.target for pair in pairs]
        self.target, self.target_start, self.target_length = _encode(
            np, self.targets, _TARGET_PAD
        )
        self.target_rows = np.repeat(np.arange(self.rows), self.target_length)
        self.target_positions = np.flatnonzero(self.target != _TARGET_PAD)
        self._anchor_tables()
        # Matching statistics, filled lazily (see _match_lengths).
        self.match_length = np.zeros(self.source_size, dtype=np.int64)
        self.match_cap = np.zeros(self.source_size, dtype=np.int64)
        self.scratch_longest = np.zeros(self.source_size, dtype=np.int64)
        self.scratch_claim = np.zeros(self.source_size, dtype=np.int64)
        self.target_index: tuple[Any, Any] | None = None
        self.slow_memo: dict[tuple[int, int], str | None] = {}

    # ------------------------------------------------------------------ #
    # Per-block tables
    # ------------------------------------------------------------------ #
    def _anchor_tables(self) -> None:
        """Which anchor texts each target contains, and the viability of
        every required set per row."""
        np = self.np
        tables = self.tables
        rows = self.rows
        target = self.target
        found_rows: list[Any] = []
        found_texts: list[Any] = []
        # Walk the anchor trie from every target position at once; the
        # first move reads a table, the rest search the sorted moves.
        first = tables.anchor_first
        state = first[np.minimum(target[self.target_positions], len(first) - 1)]
        move = state >= 0
        position = self.target_positions[move] + 1
        row = self.target_rows[move]
        state = state[move]
        keys = tables.anchor_keys
        while len(position):
            text = tables.state_text[state]
            spelled = text >= 0
            found_rows.append(row[spelled])
            found_texts.append(text[spelled])
            key = state << 32 | target[position].astype(np.int64)
            index = np.minimum(np.searchsorted(keys, key), len(keys) - 1)
            move = keys[index] == key
            position = position[move] + 1
            row = row[move]
            state = tables.anchor_next[index[move]]
        present = np.sort(
            np.concatenate([np.zeros(0, np.int64), *found_texts]) * rows
            + np.concatenate([np.zeros(0, np.int64), *found_rows])
        )
        present = present[np.diff(present, prepend=-1) != 0]
        self.present_text = present // rows
        self.present_row = present % rows
        # A required set holds for a row when all its texts are present:
        # count the present texts of each (set, row) and compare sizes.
        counts = tables.text_req_count[self.present_text]
        req = tables.text_reqs[_ranges(np, tables.text_req_first[self.present_text], counts)]
        keys_req = req * rows + np.repeat(self.present_row, counts)
        keys_req, hits = np.unique(keys_req, return_counts=True)
        viable = keys_req[hits == tables.req_size[keys_req // rows]]
        self.viable = np.zeros((tables.num_reqs + 1, rows), dtype=bool)
        self.viable[0] = True
        self.viable.reshape(-1)[viable + rows] = True

    # ------------------------------------------------------------------ #
    # Classification
    # ------------------------------------------------------------------ #
    def _common_prefix(self, offset: Any, at: Any, cap: Any) -> Any:
        """Length of the common prefix of ``codes[offset:]`` and
        ``target[at:]``, counted up to *cap*."""
        np = self.np
        codes = self.codes
        target = self.target
        common = np.zeros(len(offset), dtype=np.int64)
        index = np.flatnonzero(cap > 0)
        offset = offset[index]
        at = at[index]
        cap = cap[index]
        step = 0
        while len(index):
            equal = codes[offset] == target[at]
            common[index[~equal]] = step
            step += 1
            going = equal & (cap > step)
            common[index[equal & ~going]] = step
            index = index[going]
            offset = offset[going] + 1
            at = at[going] + 1
            cap = cap[going]
        return common

    def _match_lengths(self, offset: Any, length: Any) -> Any:
        """The matching statistic at each source position, exact up to
        *length*: it is at least *length* exactly when the span occurs in
        the row's target."""
        np = self.np
        queried = offset
        unknown = (length > self.match_cap[offset]) & (
            self.match_length[offset] == self.match_cap[offset]
        )
        if unknown.any():
            # One query per position, with the longest length asked there:
            # the scratch arrays pick it without sorting.
            offset = offset[unknown]
            length = length[unknown]
            longest = self.scratch_longest
            np.maximum.at(longest, offset, length)
            keep = np.flatnonzero(longest[offset] == length)
            longest[offset] = 0
            claim = self.scratch_claim
            claim[offset[keep]] = keep
            keep = keep[claim[offset[keep]] == keep]
            self._match_statistics(offset[keep], length[keep])
        return self.match_length[queried]

    def _match_statistics(self, positions: Any, caps: Any) -> None:
        """Longest prefix (up to *caps*) of each source suffix that occurs in
        the row's target."""
        np = self.np
        codes = self.codes
        target = self.target
        if self.target_index is None:
            keys = self.target_rows << 32 | target[self.target_positions].astype(
                np.int64
            )
            order = np.argsort(keys)
            self.target_index = (keys[order], self.target_positions[order])
        index_keys, index_positions = self.target_index
        keys = self.source_rows[positions] << 32 | codes[positions].astype(np.int64)
        first = np.searchsorted(index_keys, keys, side="left")
        counts = np.searchsorted(index_keys, keys, side="right") - first
        best = np.zeros(len(positions), dtype=np.int64)
        for lo, hi in _chunks(np, counts):
            count = counts[lo:hi]
            query = np.repeat(np.arange(lo, hi), count)
            at = index_positions[_ranges(np, first[lo:hi], count)] + 1
            # The first code points are equal by construction.
            common = 1 + self._common_prefix(
                positions[query] + 1, at, caps[query] - 1
            )
            np.maximum.at(best, query, common)
        self.match_length[positions] = np.minimum(best, caps)
        self.match_cap[positions] = caps

    def _slow(self, edges: Any, rows: Any, prefixes: Any) -> tuple[Any, Any]:
        """Classify slow-unit items in Python: ``(classes, new prefixes)``
        with class 0 skipped, 1 failed, 2 descend."""
        np = self.np
        units = self.tables.units
        memo = self.slow_memo
        classes = np.zeros(len(edges), dtype=np.int8)
        advanced = prefixes.copy()
        for item, (edge, row, prefix) in enumerate(
            zip(edges.tolist(), rows.tolist(), prefixes.tolist())
        ):
            unit = units[edge]
            key = (id(unit), row)
            if key in memo:
                output = memo[key]
            else:
                output = unit.apply(self.sources[row])
                if output and output not in self.targets[row]:
                    output = None
                memo[key] = output
            if output is None:
                continue
            if not output:
                classes[item] = 2
            elif self.targets[row].startswith(output, prefix):
                classes[item] = 2
                advanced[item] = prefix + len(output)
            else:
                classes[item] = 1
        return classes, advanced

    def classify(
        self, edges: Any, rows: Any, prefixes: Any
    ) -> tuple[int, int, Any, Any, Any]:
        """``(skipped, failed, child, row, prefix)`` for (edge, row, prefix)
        items: the subtree weights skipped and failed, and the descents."""
        np = self.np
        tables = self.tables
        subtree = tables.subtree[edges]
        alive = self.viable[tables.req[edges], rows]
        descend: list[Any] = []
        advanced: list[Any] = []
        failed = 0
        if tables.has_slow:
            slow = tables.slow[edges]
            picked = np.flatnonzero(slow & alive)
            if len(picked):
                classes, moved = self._slow(
                    edges[picked], rows[picked], prefixes[picked]
                )
                failed += int(subtree[picked[classes == 1]].sum())
                descend.append(picked[classes == 2])
                advanced.append(moved[classes == 2])
            alive &= ~slow
        item = np.flatnonzero(alive)
        edge = edges[item]
        row = rows[item]
        valid, offset, length = self.spans(edge, row)
        # Empty outputs pass through; the rest must match at the prefix.
        empty = np.flatnonzero(valid & (length == 0))
        check = np.flatnonzero(valid & (length > 0))
        prefix = prefixes[item]
        matched = (
            self._common_prefix(
                offset[check],
                self.target_start[row[check]] + prefix[check],
                length[check],
            )
            == length[check]
        )
        missed = check[~matched]
        if self.use_cache:
            # Present but misplaced fails; absent skips.  Literals are
            # always present (their own anchor is a required text).
            span = missed[~tables.literal[edge[missed]]]
            absent = span[
                self._match_lengths(offset[span], length[span]) < length[span]
            ]
            failed += int(subtree[item[missed]].sum() - subtree[item[absent]].sum())
        else:
            # Skips count as misses too: no need to tell them apart.
            failed += int(subtree[item[missed]].sum())
        moved = np.concatenate([empty, check[matched]])
        descend.append(item[moved])
        advanced.append(prefix[moved] + length[moved])
        down = np.concatenate(descend)
        skipped = int(subtree.sum()) - failed - int(subtree[down].sum())
        return (
            skipped,
            failed,
            tables.child[edges[down]],
            rows[down],
            np.concatenate(advanced),
        )

    def _root_slices(self) -> tuple[int, int, Any, Any, Any]:
        """Classify every root slice over every row, as :meth:`classify`
        does.

        A group's piece is found once for all rows, the common prefix with
        the target and the matching statistic once per (start, row) — in
        one batch for all groups — and each slice then compares its length
        with them.
        """
        np = self.np
        tables = self.tables
        rows = self.rows
        groups = [self._slice_items(*group) for group in tables.root_slices]
        empty = [np.zeros(0, dtype=np.int64)]
        offset, at, cap = (
            np.concatenate(empty + [group[field] for group in groups])
            for field in range(3)
        )
        common = self._common_prefix(offset, at, cap)
        if self.use_cache:
            matched = self._match_lengths(offset, cap)
        skipped = failed = 0
        children: list[Any] = []
        descended: list[Any] = []
        prefixes: list[Any] = []
        end = 0
        for _, _, _, edges, which, lengths, alive, num_starts, start_index, row in (
            groups
        ):
            begin, end = end, end + len(row)
            found = np.zeros((num_starts, rows), dtype=np.int64)
            found[start_index, row] = common[begin:end]
            down = alive & (found[which] >= lengths[:, None])
            alive &= ~down
            if self.use_cache:
                found[start_index, row] = matched[begin:end]
                alive &= found[which] >= lengths[:, None]
            num_down = np.count_nonzero(down, axis=1)
            num_failed = np.count_nonzero(alive, axis=1)
            subtree = tables.subtree[edges]
            skipped += int(((rows - num_down - num_failed) * subtree).sum())
            failed += int((num_failed * subtree).sum())
            member, down_row = np.nonzero(down)
            children.append(tables.child[edges[member]])
            descended.append(down_row)
            prefixes.append(lengths[member])
        return (
            skipped,
            failed,
            np.concatenate(empty + children),
            np.concatenate(empty + descended),
            np.concatenate(empty + prefixes),
        )

    def _slice_items(
        self,
        delimiter: int,
        piece: int,
        starts: Any,
        firsts: Any,
        edges: Any,
        which: Any,
        lengths: Any,
    ) -> tuple[Any, ...]:
        """The (start, row) spans one root group compares — source
        offset, target offset, longest slice length — then the group's
        slices and the (slice, row) items that pass the required-set check
        and fit in the piece.

        *edges* are the group's slices sorted by start, *starts* the
        distinct starts, *firsts* where each begins in *edges*, and *which*
        the start of each edge.
        """
        np = self.np
        rows = self.rows
        piece_start = self.source_start.copy()
        piece_end = piece_start + self.source_length
        exists = np.ones(rows, dtype=bool)
        if delimiter >= 0:
            key = delimiter * rows + np.arange(rows)
            exists = self.delimiter_count[key] >= max(piece, 1)
            row = np.flatnonzero(exists)
            bound = self.boundary_first[key[row]] + piece
            piece_start[row] = self.boundaries[bound] + 1
            piece_end[row] = self.boundaries[bound + 1]
        piece_length = np.where(exists, piece_end - piece_start, -1)
        alive = self.viable[self.tables.req[edges]] & (
            piece_length >= (starts[which] + lengths)[:, None]
        )
        start_index, row = np.nonzero(np.logical_or.reduceat(alive, firsts, axis=0))
        return (
            piece_start[row] + starts[start_index],
            self.target_start[row],
            np.maximum.reduceat(lengths, firsts)[start_index],
            edges,
            which,
            lengths,
            alive,
            len(starts),
            start_index,
            row,
        )

    # ------------------------------------------------------------------ #
    # The walk
    # ------------------------------------------------------------------ #
    def walk(self) -> tuple[int, int, int, Any, Any]:
        """``(skipped, failed, reached, covered nodes, covered rows)``:
        skipped and failed subtree weights, the terminals reached (misses
        and applications alike in the spec) and the (node, row) pairs whose
        prefix is the whole target."""
        np = self.np
        tables = self.tables
        rows = self.rows
        skipped = failed = reached = 0
        covered_nodes: list[Any] = []
        covered_rows: list[Any] = []
        descents: list[tuple[Any, ...]] = []

        def settle(result: tuple[int, int, Any, Any, Any]) -> None:
            nonlocal skipped, failed
            skipped += result[0]
            failed += result[1]
            descents.append(result[2:])

        # Root: dense edges meet every row; literal edges only the rows
        # whose target contains their text; the rest are skipped in bulk.
        all_rows = np.arange(rows)
        root_terminals = int(tables.terminal_count[tables.root])
        if root_terminals:
            reached += root_terminals * rows
            empty = all_rows[self.target_length == 0]
            covered_nodes.append(np.full(len(empty), tables.root))
            covered_rows.append(empty)
        settle(self._root_slices())
        other = tables.root_other
        step = max(1, _CHUNK_ITEMS // max(rows, 1))
        for lo in range(0, len(other), step):
            edges = other[lo : lo + step]
            settle(
                self.classify(
                    np.repeat(edges, rows),
                    np.tile(all_rows, len(edges)),
                    np.zeros(len(edges) * rows, dtype=np.int64),
                )
            )
        literal_edge = tables.root_literal_edge[self.present_text]
        hit = literal_edge >= 0
        literal_edge = literal_edge[hit]
        skipped += tables.root_literal_total * rows - int(
            tables.subtree[literal_edge].sum()
        )
        settle(
            self.classify(
                literal_edge,
                self.present_row[hit],
                np.zeros(len(literal_edge), dtype=np.int64),
            )
        )

        while descents:
            node = np.concatenate([d[0] for d in descents])
            row = np.concatenate([d[1] for d in descents])
            prefix = np.concatenate([d[2] for d in descents])
            descents = []
            terminal_count = tables.terminal_count[node]
            reached += int(terminal_count.sum())
            done = (terminal_count > 0) & (prefix == self.target_length[row])
            covered_nodes.append(node[done])
            covered_rows.append(row[done])
            count = tables.edge_count[node]
            for lo, hi in _chunks(np, count):
                chunk_count = count[lo:hi]
                settle(
                    self.classify(
                        _ranges(np, tables.node_edges[node[lo:hi]], chunk_count),
                        np.repeat(row[lo:hi], chunk_count),
                        np.repeat(prefix[lo:hi], chunk_count),
                    )
                )
        return (
            skipped,
            failed,
            reached,
            np.concatenate([np.zeros(0, np.int64), *covered_nodes]),
            np.concatenate([np.zeros(0, np.int64), *covered_rows]),
        )


def walk_trie_rows_numpy(
    pairs: "Sequence[RowPair]",
    row_offset: int,
    trie: "PackedTrie",
    non_covering_units: "Sequence[set[TransformationUnit]]",
    use_cache: bool,
    deadline: float | None = None,
) -> tuple[dict[int, list[int]], int, int, int, int]:
    """The numpy-tier twin of :func:`repro.core.coverage._walk_trie_rows`.

    ``non_covering_units`` is accepted for the shared signature and never
    read (see the module docstring).
    """
    np = numpy_or_none()
    assert np is not None, "the coverage kernel requires the numpy tier"
    from repro.core.coverage import _WALK_BLOCK_ROWS

    num_rows = len(pairs)
    hits = misses = applications = rows_processed = 0
    nodes: list[Any] = []
    rows: list[Any] = []
    if num_rows:
        tables = _Tables(np, trie)
        for block_start in range(0, num_rows, _WALK_BLOCK_ROWS):
            if deadline is not None and block_start and monotonic() >= deadline:
                break
            block = pairs[block_start : block_start + _WALK_BLOCK_ROWS]
            rows_processed = block_start + len(block)
            skipped, failed, reached, block_nodes, block_rows_covered = _Block(
                np, tables, block, use_cache
            ).walk()
            if use_cache:
                hits += skipped
            else:
                misses += skipped
            misses += failed + reached
            applications += reached
            nodes.append(block_nodes)
            rows.append(block_rows_covered + row_offset + block_start)
    covered: dict[int, list[int]] = {}
    if nodes:
        node = np.concatenate(nodes)
        row = np.concatenate(rows)
        count = tables.terminal_count[node]
        terminal = tables.terminals[_ranges(np, tables.node_terminals[node], count)]
        keys = np.sort(terminal << 32 | np.repeat(row, count))
        terminal = keys >> 32
        row = keys & 0xFFFFFFFF
        firsts = np.flatnonzero(np.diff(terminal, prepend=-1))
        bounds = firsts.tolist() + [len(row)]
        row_ids = row.tolist()
        for index, begin, end in zip(terminal[firsts].tolist(), bounds, bounds[1:]):
            covered[index] = row_ids[begin:end]
    return covered, hits, misses, applications, rows_processed


__all__ = ["walk_trie_rows_numpy"]
