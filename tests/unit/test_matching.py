"""Unit tests for the row-matching substrate (repro.matching)."""

from __future__ import annotations

import pytest

from repro import kernels
from repro.core.pairs import RowPair
from repro.matching import index as index_module
from repro.matching import row_matcher
from repro.matching.index import InvertedIndex
from repro.matching.ngrams import character_ngrams, ngrams_in_range, unique_ngrams
from repro.matching.row_matcher import (
    GoldenRowMatcher,
    MatchingConfig,
    NGramRowMatcher,
    choose_source_column,
)
from repro.matching.scoring import inverse_row_frequency, representative_score
from repro.table.table import Table


class TestNgrams:
    def test_character_ngrams(self):
        assert character_ngrams("abcd", 2) == ["ab", "bc", "cd"]

    def test_lowercasing(self):
        assert character_ngrams("AbC", 2) == ["ab", "bc"]
        assert character_ngrams("AbC", 2, lowercase=False) == ["Ab", "bC"]

    def test_short_text(self):
        assert character_ngrams("ab", 4) == []

    def test_unique_ngrams(self):
        assert unique_ngrams("aaaa", 2) == {"aa"}

    def test_ngrams_in_range(self):
        grams = list(ngrams_in_range("abcd", 2, 3))
        assert "ab" in grams and "abc" in grams and "abcd" not in grams

    def test_invalid_sizes(self):
        with pytest.raises(ValueError):
            character_ngrams("abc", 0)
        with pytest.raises(ValueError):
            list(ngrams_in_range("abc", 3, 2))


class TestInvertedIndex:
    def test_build_and_lookup(self):
        index = InvertedIndex.build(["hello world", "hello there"], min_size=4, max_size=6)
        assert index.num_rows == 2
        assert list(index.rows_containing("hello")) == [0, 1]
        assert list(index.rows_containing("world")) == [0]
        assert list(index.rows_containing("zzzz")) == []

    def test_postings_are_packed_and_not_copied(self):
        index = InvertedIndex.build(["abcd", "xabc", "abcx"], min_size=3, max_size=3)
        postings = index.rows_containing("abc")
        # Sorted ascending, and the same object on every call (no copies).
        assert list(postings) == sorted(postings)
        assert index.rows_containing("abc") is postings

    def test_row_frequency(self):
        index = InvertedIndex.build(["abcd", "abce", "abxx"], min_size=2, max_size=3)
        assert index.row_frequency("ab") == 3
        assert index.row_frequency("abc") == 2
        assert index.row_frequency("zz") == 0

    def test_case_insensitive_by_default(self):
        index = InvertedIndex.build(["Hello"], min_size=4, max_size=5)
        assert list(index.rows_containing("HELLO")) == [0]

    def test_contains(self):
        index = InvertedIndex.build(["abcd"], min_size=2, max_size=2)
        assert "ab" in index
        assert "zz" not in index
        assert 42 not in index

    def test_num_ngrams_counts_distinct(self):
        index = InvertedIndex.build(["aaaa"], min_size=2, max_size=2)
        assert index.num_ngrams == 1

    def test_invalid_sizes(self):
        with pytest.raises(ValueError):
            InvertedIndex(min_size=0, max_size=3)
        with pytest.raises(ValueError):
            InvertedIndex(min_size=4, max_size=2)
        with pytest.raises(ValueError):
            InvertedIndex(min_size=2, max_size=3, stop_gram_cap=-1)

    def test_out_of_order_add_rejected(self):
        index = InvertedIndex(min_size=2, max_size=2)
        index.add(0, "ab")
        index.add(1, "cd")
        with pytest.raises(ValueError):
            index.add(0, "ef")
        with pytest.raises(ValueError):
            # Repeating a row id would silently double-count postings.
            index.add(1, "ab")

    def test_stop_gram_pruning_drops_postings_keeps_frequencies(self):
        rows = ["abcd", "abce", "abcf", "abzz"]
        index = InvertedIndex.build(rows, min_size=2, max_size=3, stop_gram_cap=2)
        # "ab" occurs in 4 rows (> cap): postings dropped, frequency kept.
        assert list(index.rows_containing("ab")) == []
        assert index.row_frequency("ab") == 4
        assert "ab" in index
        assert index.num_pruned_ngrams > 0
        # "abc" occurs in 3 rows (> cap) and is pruned too; "bz" survives.
        assert list(index.rows_containing("bz")) == [3]

    def test_add_after_pruning_keeps_frequencies_exact(self):
        index = InvertedIndex.build(
            ["abc", "abd", "abe"], min_size=2, max_size=2, stop_gram_cap=2
        )
        assert list(index.rows_containing("ab")) == []
        assert index.row_frequency("ab") == 3
        index.add(3, "abz")
        # A pruned stop-gram stays pruned and its frequency keeps counting.
        assert list(index.rows_containing("ab")) == []
        assert index.row_frequency("ab") == 4
        assert list(index.rows_containing("bz")) == [3]

    def test_representatives_match_scoring_definition(self):
        source = ["abcd", "abce"]
        target = ["abcd", "qqqq"]
        index = InvertedIndex.build(target, min_size=3, max_size=4)
        reps = index.representatives(source)
        # Row 0: "abc"/"bcd" of size 3 ("abc" scores 1/2*1, "bcd" 1*1 — "bcd"
        # wins), "abcd" of size 4 (scores 1*1).
        assert reps[0] == ["bcd", "abcd"]
        # Row 1: only "abc" co-occurs at size 3, nothing at size 4.
        assert reps[1] == ["abc"]

    def test_representatives_break_ties_lexicographically(self):
        # Both "abcd" and "bcde" occur once in source and once in target:
        # equal Rscore, so the lexicographically smallest wins.
        index = InvertedIndex.build(["abcdexx", "yyyyyyy"], min_size=4, max_size=4)
        reps = index.representatives(["abcde"])
        assert reps[0] == ["abcd"]


class TestValueIndex:
    def test_build_and_probe(self):
        from repro.matching.index import ValueIndex

        index = ValueIndex.build(["a", "b", "a", "c"])
        assert index.num_rows == 4
        assert index.num_values == 3
        assert list(index.rows_for("a")) == [0, 2]
        assert list(index.rows_for("missing")) == []
        assert "b" in index
        assert 7 not in index

    def test_lowercase_mode(self):
        from repro.matching.index import ValueIndex

        index = ValueIndex.build(["Ada", "ada"], lowercase=True)
        assert list(index.rows_for("ADA")) == [0, 1]


class TestScoring:
    def test_irf_is_inverse_of_row_count(self):
        index = InvertedIndex.build(["abcd", "abce", "abcf", "xyzw"], min_size=3, max_size=4)
        assert inverse_row_frequency("abc", index) == pytest.approx(1 / 3)
        assert inverse_row_frequency("xyzw", index) == 1.0
        assert inverse_row_frequency("none", index) == 0.0

    def test_rscore_product(self):
        source = InvertedIndex.build(["abcd", "abce"], min_size=3, max_size=4)
        target = InvertedIndex.build(["abcd", "qqqq"], min_size=3, max_size=4)
        assert representative_score("abcd", source, target) == pytest.approx(1.0)
        assert representative_score("abc", source, target) == pytest.approx(0.5)
        assert representative_score("qqqq", source, target) == 0.0

    def test_rare_ngrams_score_higher(self):
        rows = ["university of alberta " + suffix for suffix in ["aa", "bb", "cc"]]
        source = InvertedIndex.build(rows, min_size=2, max_size=4)
        target = InvertedIndex.build(rows, min_size=2, max_size=4)
        common = representative_score("university"[:4], source, target)
        rare = representative_score("aa", source, target)
        assert rare > common


class TestMatchingConfig:
    def test_defaults_follow_paper(self):
        config = MatchingConfig()
        assert config.min_ngram == 4
        assert config.max_ngram == 20

    def test_validation(self):
        with pytest.raises(ValueError):
            MatchingConfig(min_ngram=0)
        with pytest.raises(ValueError):
            MatchingConfig(min_ngram=5, max_ngram=4)
        with pytest.raises(ValueError):
            MatchingConfig(max_candidates_per_row=-1)


class TestNGramRowMatcher:
    def test_matches_reformatted_names(self, staff_tables):
        source, target = staff_tables
        matcher = NGramRowMatcher()
        pairs = matcher.match(
            source, target, source_column="Name", target_column="Name"
        )
        found = {(p.source_row, p.target_row) for p in pairs}
        expected = {(i, i) for i in range(source.num_rows)}
        assert expected <= found

    def test_returns_row_pair_objects_with_text(self, staff_tables):
        source, target = staff_tables
        pairs = NGramRowMatcher().match(
            source, target, source_column="Name", target_column="Name"
        )
        for pair in pairs:
            assert isinstance(pair, RowPair)
            assert pair.source == source["Name"][pair.source_row]
            assert pair.target == target["Name"][pair.target_row]

    def test_no_duplicates(self, staff_tables):
        source, target = staff_tables
        pairs = NGramRowMatcher().match(
            source, target, source_column="Name", target_column="Name"
        )
        keys = [(p.source_row, p.target_row) for p in pairs]
        assert len(keys) == len(set(keys))

    def test_candidate_cap(self):
        source_values = ["common text alpha", "common text beta"]
        target_values = ["common text one", "common text two", "common text three"]
        capped = NGramRowMatcher(MatchingConfig(min_ngram=4, max_ngram=6, max_candidates_per_row=1))
        pairs = capped.match_values(source_values, target_values)
        per_source: dict[int, int] = {}
        for pair in pairs:
            per_source[pair.source_row] = per_source.get(pair.source_row, 0) + 1
        assert all(count <= 1 for count in per_source.values())

    def test_disjoint_columns_produce_no_pairs(self):
        pairs = NGramRowMatcher(MatchingConfig(min_ngram=4, max_ngram=8)).match_values(
            ["aaaaaa", "bbbbbb"], ["cccccc", "dddddd"]
        )
        assert pairs == []


class TestMatchPasses:
    """The four passes of ``match_values`` are the spans a traced benchmark
    run wraps: each must run exactly once per match, on both tiers."""

    @pytest.mark.parametrize("tier", ["python", "numpy"])
    @pytest.mark.parametrize("num_workers", [1, 2])
    def test_each_pass_runs_once_per_match(self, monkeypatch, tier, num_workers):
        if tier == "numpy" and kernels.numpy_or_none() is None:
            pytest.skip("numpy tier not active")
        calls: dict[str, int] = {}

        def spy(name, function):
            def counted(*args, **kwargs):
                calls[name] = calls.get(name, 0) + 1
                return function(*args, **kwargs)

            return counted

        build = InvertedIndex.__dict__["build"]
        monkeypatch.setattr(
            InvertedIndex, "build", classmethod(spy("build", build.__func__))
        )
        for name in ("source_grams", "representatives_from"):
            monkeypatch.setattr(
                InvertedIndex, name, spy(name, InvertedIndex.__dict__[name])
            )
        monkeypatch.setattr(
            row_matcher,
            "emit_candidate_pairs",
            spy("emit", row_matcher.emit_candidate_pairs),
        )
        # The matcher never needs the string tables of a numpy-built index.
        monkeypatch.setattr(
            index_module, "string_tables", spy("string_tables", index_module.string_tables)
        )
        matcher = NGramRowMatcher(
            MatchingConfig(min_ngram=3, max_ngram=6, num_workers=num_workers,
                           min_rows_per_worker=0)
        )
        with kernels.use_tier(tier):
            pairs = matcher.match_values(
                ["Rafiei, Davood", "Bowling, Michael"],
                ["D Rafiei", "M Bowling", "S Gosgnach"],
            )
        assert [(p.source_row, p.target_row) for p in pairs] == [(0, 0), (1, 1)]
        assert calls == {
            "build": 1, "source_grams": 1, "representatives_from": 1, "emit": 1,
        }


class TestGoldenRowMatcher:
    def test_replays_ground_truth(self, staff_tables):
        source, target = staff_tables
        golden = [(i, i) for i in range(source.num_rows)]
        pairs = GoldenRowMatcher(golden).match(
            source, target, source_column="Name", target_column="Name"
        )
        assert [(p.source_row, p.target_row) for p in pairs] == golden
        assert pairs[0].source == "Rafiei, Davood"

    def test_out_of_range_pair_rejected(self, staff_tables):
        source, target = staff_tables
        with pytest.raises(IndexError):
            GoldenRowMatcher([(99, 0)]).match(
                source, target, source_column="Name", target_column="Name"
            )


class TestChooseSourceColumn:
    def test_longer_column_is_source(self):
        long = Table({"c": ["a very long description here"]})
        short = Table({"c": ["short"]})
        assert choose_source_column(long, short, "c", "c") is True
        assert choose_source_column(short, long, "c", "c") is False
