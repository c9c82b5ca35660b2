"""The level-synchronous coverage kernel against the spec walker.

:func:`repro.kernels.coverage.walk_trie_rows_numpy` must return
:func:`repro.core.coverage._walk_trie_rows_python`'s exact tuple — covered
rows per transformation in ascending order, cache hits, cache misses,
applications and rows processed — on any input.  The cases lean on what
a code-point kernel can get wrong: lone surrogates, NULs, combining and
right-to-left marks, astral characters, empty and 10,000-character values,
multi-character delimiters, TwoCharSplitSubstr, long transformations, the
cache switch, row offsets, an expired deadline over several blocks, and
warm non-covering sets.

One case runs on the spec alone, on every tier: a walk with warm sets
equals a walk with cold ones.  That invariant is what lets the kernel
ignore the sets.
"""

from __future__ import annotations

import random
from time import monotonic

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import kernels
from repro.core.config import DiscoveryConfig
from repro.core.coverage import (
    CoverageComputer,
    _build_unit_trie,
    _walk_trie_rows_python,
)
from repro.core.discovery import TransformationDiscovery
from repro.core.generation import TransformationGenerator
from repro.core.pairs import RowPair, pairs_from_strings
from repro.core.skeletons import SkeletonBuilder
from repro.core.transformation import Transformation
from repro.core.units import (
    Literal,
    Split,
    SplitSubstr,
    Substr,
    TwoCharSplitSubstr,
)

NUMPY_TIER = kernels.numpy_or_none() is not None
needs_numpy = pytest.mark.skipif(
    not NUMPY_TIER,
    reason="numpy tier not active (numpy missing or REPRO_KERNELS=python)",
)

#: Lone surrogate, NUL, combining acute, right-to-left mark, astral emoji.
HOSTILE = "\udcff\x00\u0301\u200f\U0001f600"
ALPHABET = "abxy19 ,-:" + HOSTILE
DELIMITERS = [",", " ", "-", "::", ", ", "\udcff", "\U0001f600"]

CELL = st.text(alphabet=ALPHABET, max_size=16)

UNITS = st.one_of(
    st.builds(Literal, st.text(alphabet=ALPHABET, max_size=3)),
    st.integers(0, 6).flatmap(
        lambda start: st.builds(Substr, st.just(start), st.integers(start + 1, 12))
    ),
    st.builds(Split, st.sampled_from(DELIMITERS), st.integers(1, 3)),
    st.integers(0, 3).flatmap(
        lambda start: st.builds(
            SplitSubstr,
            st.sampled_from(DELIMITERS),
            st.integers(1, 3),
            st.just(start),
            st.integers(start + 1, start + 4),
        )
    ),
    st.lists(st.sampled_from(DELIMITERS), min_size=2, max_size=2, unique=True).flatmap(
        lambda pair: st.builds(
            TwoCharSplitSubstr,
            st.just(pair[0]),
            st.just(pair[1]),
            st.integers(1, 3),
            st.just(0),
            st.integers(1, 3),
        )
    ),
)

TRANSFORMATIONS = st.lists(
    st.builds(Transformation, st.lists(UNITS, min_size=1, max_size=7)),
    max_size=12,
)


@st.composite
def _cases(draw):
    """Rows and transformations, with some targets produced by the
    transformations so that rows get covered."""
    transformations = draw(TRANSFORMATIONS)
    sources = draw(st.lists(CELL, max_size=12))
    pairs = []
    for source in sources:
        target = None
        if transformations and draw(st.booleans()):
            target = draw(st.sampled_from(transformations)).apply(source)
        if target is None:
            target = draw(CELL)
        pairs.append(RowPair(source=source, target=target))
    return pairs, transformations + _generated(pairs)


def _generated(pairs, limit=60):
    """The discovery generator's transformations for the first rows."""
    config = DiscoveryConfig()
    skeletons = SkeletonBuilder(config)
    generator = TransformationGenerator(config)
    found: dict[Transformation, None] = {}
    for pair in pairs[:3]:
        for transformation in generator.from_row(
            pair.source, skeletons.build(pair.source, pair.target)
        ):
            found.setdefault(transformation, None)
            if len(found) >= limit:
                return list(found)
    return list(found)


def _walks(pairs, transformations, *, row_offset=0, use_cache=True,
           deadline=None, non_covering=None):
    """(kernel, spec) results of the same walk, each on its own copy of
    the per-row sets."""
    from repro.kernels.coverage import walk_trie_rows_numpy

    trie = _build_unit_trie(transformations)
    if non_covering is None:
        non_covering = [set() for _ in pairs]
    spec = _walk_trie_rows_python(
        pairs, row_offset, trie, [set(s) for s in non_covering], use_cache,
        deadline,
    )
    kernel = walk_trie_rows_numpy(
        pairs, row_offset, trie, [set(s) for s in non_covering], use_cache,
        deadline,
    )
    return kernel, spec


@needs_numpy
@settings(deadline=None, max_examples=150)
@given(
    case=_cases(),
    row_offset=st.sampled_from([0, 7]),
    use_cache=st.booleans(),
)
def test_coverage_walker_identical(case, row_offset, use_cache):
    pairs, transformations = case
    kernel, spec = _walks(
        pairs, transformations, row_offset=row_offset, use_cache=use_cache
    )
    assert kernel == spec


@needs_numpy
@settings(deadline=None, max_examples=40)
@given(case=_cases(), data=st.data())
def test_warm_sets_do_not_change_the_kernel(case, data):
    """Sets warmed by ``coverage_of`` are read by the spec and ignored by
    the kernel; the results agree."""
    pairs, transformations = case
    computer = CoverageComputer(pairs, num_workers=1)
    if transformations:
        for transformation in data.draw(
            st.lists(st.sampled_from(transformations), max_size=6)
        ):
            computer.coverage_of(transformation)
    kernel, spec = _walks(
        pairs, transformations, non_covering=computer._non_covering_units
    )
    assert kernel == spec


@settings(deadline=None, max_examples=60)
@given(case=_cases(), use_cache=st.booleans(), data=st.data())
def test_spec_warm_walk_equals_cold_walk(case, use_cache, data):
    """The spec walker gives the same tuple from warm and cold sets: an
    entry only records an outcome the walk would compute anyway."""
    pairs, transformations = case
    computer = CoverageComputer(pairs, num_workers=1)
    if transformations:
        for transformation in data.draw(
            st.lists(st.sampled_from(transformations), max_size=6)
        ):
            computer.coverage_of(transformation)
    trie = _build_unit_trie(transformations)
    warm = _walk_trie_rows_python(
        pairs, 0, trie, computer._non_covering_units, use_cache
    )
    cold = _walk_trie_rows_python(
        pairs, 0, trie, [set() for _ in pairs], use_cache
    )
    assert warm == cold


LONG_TRANSFORMATIONS = [
    Transformation([Substr(0, 3), Literal("-"), Split(",", 2)]),
    Transformation([Split(",", 1)]),
    Transformation([Split(",", 2)]),
    Transformation([Literal("b"), Split(",", 1)]),
    Transformation([SplitSubstr(",", 2, 0, 5), Substr(0, 5)]),
    Transformation([Substr(0, 4), Substr(4, 9), Substr(9, 12)]),
    Transformation([TwoCharSplitSubstr(",", "::", 2, 0, 3), Literal("")]),
    Transformation([Split("::", 1), Literal("x"), Split("::", 2)]),
]


@needs_numpy
def test_long_and_empty_values():
    """Values past any width cap, including runs of one character that
    match almost everywhere, next to empty values."""
    rng = random.Random(7)
    text = "".join(rng.choice("ab,:" + HOSTILE) for _ in range(10_000))
    run = "a" * 5_000
    rows = [
        (text, text[3:4000]),
        (text, text[:3] + "-" + text[3:]),
        (run + "," + run, run + run),
        (run + "," + run, "b" + run),
        (run + "::" + run, run + "x" + run),
        ("", ""),
        ("abc", ""),
        ("", "abc"),
        ("abc,def", "abc-def"),
    ]
    pairs = pairs_from_strings(rows)
    for use_cache in (True, False):
        kernel, spec = _walks(pairs, LONG_TRANSFORMATIONS, use_cache=use_cache)
        assert kernel == spec
    assert spec[0]  # some rows are covered


@needs_numpy
def test_multi_character_delimiters_and_long_transformations():
    first_piece = Split("::", 1)
    long_one = Transformation([
        TwoCharSplitSubstr("::", ",", 2, 0, 2),
        Literal("|"),
        first_piece,
        Literal("|"),
        TwoCharSplitSubstr(" ", "-", 2, 0, 2),
        Literal("|"),
        Split("-", 2),
        Literal("|"),
        SplitSubstr("::", 2, 0, 2),
        Literal("|"),
        first_piece,
    ])
    transformations = [
        long_one,
        Transformation([Split(", ", 2), Split("::", 3)]),
        Transformation([SplitSubstr("::", 2, 0, 1), Literal("|"), first_piece]),
        Transformation([Substr(0, 2)]),
    ]
    sources = ["ab::cd, ef-gh", "x::y, zz-w", "ab::cd", "no delimiters"]
    rows = [(source, long_one.apply(source) or "no") for source in sources]
    pairs = pairs_from_strings(rows)
    for row_offset in (0, 3):
        for use_cache in (True, False):
            kernel, spec = _walks(
                pairs, transformations, row_offset=row_offset,
                use_cache=use_cache,
            )
            assert kernel == spec
    assert spec[0][0] == [3, 4]  # the 11-unit transformation covers rows


@needs_numpy
def test_empty_row_lists():
    transformations = [Transformation([Substr(0, 1)])]
    kernel, spec = _walks([], transformations)
    assert kernel == spec == ({}, 0, 0, 0, 0)
    kernel, spec = _walks(pairs_from_strings([("a", "a")]), [])
    assert kernel == spec


@needs_numpy
def test_expired_deadline_cuts_at_the_same_block():
    """An expired deadline over more than one block walks exactly the first
    block, as the spec does."""
    rows = [(f"Name{i}, First{i}", f"F{i} Name{i}") for i in range(1_500)]
    pairs = pairs_from_strings(rows)
    transformations = _generated(pairs)
    kernel, spec = _walks(pairs, transformations, deadline=monotonic() - 1.0)
    assert kernel == spec
    assert spec[4] == 1_024


@pytest.mark.parametrize(
    "rows",
    [
        [
            ("Smith\udcff, John1", "J1 Smith\udcff"),
            ("Doe, Jane2", "J2 Doe"),
            ("Roe\U0001f600, Rick3", "R3 Roe\U0001f600"),
        ],
        [
            ("a\x00b, c\u0301d", "c\u0301d a\x00b"),
            ("\u200fe, f", "f \u200fe"),
        ],
    ],
)
def test_discovery_with_hostile_characters_agrees_across_tiers(rows):
    """Discovery on lone surrogates and other hostile characters gives the
    same cover and statistics on every available tier."""
    results = []
    tiers = ["python"] + (["numpy"] if NUMPY_TIER else [])
    for tier in tiers:
        with kernels.use_tier(tier):
            result = TransformationDiscovery().discover_from_strings(rows)
        stats = result.stats
        results.append((
            [(c.transformation, c.covered_rows) for c in result.cover],
            stats.cache_hits,
            stats.cache_misses,
            stats.applications,
        ))
    assert results[0][0]
    assert all(result == results[0] for result in results)
