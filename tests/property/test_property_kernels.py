"""Kernel tier equivalence: every vectorized path must be byte-identical.

The numpy tier of :mod:`repro.kernels` is an *implementation* of the serial
Python walkers, never a reinterpretation — so equality here is exact, not
approximate, at three levels:

* **op level** — every py/np dual in :mod:`repro.kernels.bitset` computes
  equal values on randomized inputs;
* **walker level** — the per-row apply walker is pinned to
  ``Transformation.apply`` row by row (the fused join kernel and the
  coverage kernel have their own differential suites,
  ``test_property_join_kernel.py`` and ``test_property_coverage_kernel.py``);
* **engine level** — ``CoverageComputer`` produces identical coverage
  under ``use_tier("python")`` and ``use_tier("numpy")`` across worker
  counts {1, 2, 3}.  The n-gram matching kernels have their own
  differential suite, ``test_property_ngram_kernel.py``.

numpy-vs-python cases skip themselves when the numpy tier is not active;
the CI forced-fallback leg (``REPRO_KERNELS=python``) still runs the
tier-independent cases — dispatch plumbing — so the override path is
exercised, not just the tier it selects.
"""

from __future__ import annotations

import string

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import kernels
from repro.core.coverage import (
    CoverageComputer,
    _build_unit_trie,
    _walk_trie_rows_python,
)
from repro.core.pairs import pairs_from_strings
from repro.core.transformation import Transformation
from repro.core.units import Literal, Split, SplitSubstr, Substr
from repro.kernels import bitset
from repro.model.apply import _transform_trie_rows_python

NUMPY_TIER = kernels.numpy_or_none() is not None
needs_numpy = pytest.mark.skipif(
    not NUMPY_TIER,
    reason="numpy tier not active (numpy missing or REPRO_KERNELS=python)",
)

WORKER_COUNTS = (1, 2, 3)

CELL = st.text(
    alphabet=string.ascii_lowercase + string.digits + " ,-.", max_size=14
)

UNITS = st.one_of(
    st.builds(Literal, st.text(alphabet="ab, ", min_size=0, max_size=3)),
    st.builds(
        Substr,
        st.integers(min_value=0, max_value=6),
        st.integers(min_value=7, max_value=12),
    ),
    st.builds(Split, st.sampled_from([",", " ", "-"]), st.integers(1, 3)),
    st.builds(
        SplitSubstr,
        st.sampled_from([",", " "]),
        st.integers(1, 2),
        st.integers(0, 2),
        st.integers(3, 5),
    ),
)

TRANSFORMATIONS = st.lists(
    st.builds(Transformation, st.lists(UNITS, min_size=1, max_size=4)),
    min_size=0,
    max_size=12,
)

STRING_PAIRS = st.lists(st.tuples(CELL, CELL), min_size=0, max_size=10)


# --------------------------------------------------------------------------
# Op level: the py/np duals of repro.kernels.bitset.
# --------------------------------------------------------------------------


ROW_SETS = st.lists(
    st.lists(st.integers(min_value=0, max_value=1200), max_size=40).map(
        lambda rows: sorted(set(rows))
    ),
    max_size=8,
)


@needs_numpy
@given(row_sets=ROW_SETS)
def test_bitset_duals(row_sets):
    masks_py = [bitset.mask_from_rows_py(rows) for rows in row_sets]
    masks_np = [bitset.mask_from_rows_np(rows) for rows in row_sets]
    assert masks_py == masks_np
    for rows, mask in zip(row_sets, masks_py):
        assert bitset.rows_from_mask_py(mask) == rows
        assert bitset.rows_from_mask_np(mask) == rows
    assert bitset.union_masks_np(masks_py) == bitset.union_masks_py(masks_py)
    assert bitset.popcounts_np(masks_py) == bitset.popcounts_py(masks_py)


@given(row_sets=ROW_SETS)
def test_bitset_dispatchers_roundtrip_on_active_tier(row_sets):
    # Runs on whichever tier is active — the forced-fallback leg covers the
    # python dispatch, the default leg the numpy dispatch.
    masks = [bitset.mask_from_rows(rows) for rows in row_sets]
    for rows, mask in zip(row_sets, masks):
        assert bitset.rows_from_mask(mask) == rows
        assert mask.bit_count() == len(rows)
    assert bitset.popcounts(masks) == [mask.bit_count() for mask in masks]
    union = bitset.union_masks(masks)
    expected = 0
    for mask in masks:
        expected |= mask
    assert union == expected


# --------------------------------------------------------------------------
# Walker level: the block walkers against the serial reference walks.
# --------------------------------------------------------------------------


@settings(deadline=None, max_examples=60)
@given(
    values=st.lists(CELL, max_size=12),
    transformations=TRANSFORMATIONS,
    row_offset=st.sampled_from([0, 5]),
)
def test_apply_walker_pinned_to_apply(values, transformations, row_offset):
    from time import monotonic

    from repro.model.apply import transform_trie_rows

    trie = _build_unit_trie(transformations)
    outputs = _transform_trie_rows_python(values, row_offset, trie)
    # The deadline-bounded walk goes block by block: same outputs.
    assert transform_trie_rows(
        values, row_offset, trie, deadline=monotonic() + 3600
    ) == outputs
    # Entry (index, row, output) exists iff transformations[index].apply of
    # that row's value returns output (None = row absent).
    for index, transformation in enumerate(transformations):
        produced = dict(outputs.get(index, []))
        for slot, value in enumerate(values):
            expected = transformation.apply(value)
            assert produced.get(row_offset + slot) == expected


# --------------------------------------------------------------------------
# Engine level: tiers × worker counts, and the sharded index build.
# --------------------------------------------------------------------------


@needs_numpy
@settings(deadline=None, max_examples=10)
@given(
    string_pairs=st.lists(st.tuples(CELL, CELL), min_size=1, max_size=8),
    transformations=TRANSFORMATIONS,
    num_workers=st.sampled_from(WORKER_COUNTS),
)
def test_coverage_computer_tier_equivalence(
    string_pairs, transformations, num_workers
):
    """CoverageComputer: python tier serial == numpy tier at any worker
    count (min_rows_per_worker=0 forces real pools for workers > 1)."""
    pairs = pairs_from_strings(string_pairs)

    def masks(tier):
        with kernels.use_tier(tier):
            computer = CoverageComputer(
                pairs, num_workers=num_workers, min_rows_per_worker=0
            )
            results = computer.coverage_of_all(list(transformations))
        return [result.covered_mask for result in results], (
            computer.stats.cache_hits,
            computer.stats.cache_misses,
            computer.stats.applications,
        )

    assert masks("numpy") == masks("python")


@settings(deadline=None, max_examples=25)
@given(
    string_pairs=STRING_PAIRS,
    transformations=TRANSFORMATIONS,
    use_cache=st.booleans(),
)
def test_walker_dispatch_matches_reference_on_active_tier(
    string_pairs, transformations, use_cache
):
    """_walk_trie_rows (the tier dispatcher every engine calls) equals the
    reference walk on whichever tier this process resolved — under
    REPRO_KERNELS=python this pins the forced fallback to the spec."""
    from repro.core.coverage import _walk_trie_rows

    pairs = pairs_from_strings(string_pairs)
    trie = _build_unit_trie(transformations)
    reference = _walk_trie_rows_python(
        pairs, 0, trie, [set() for _ in pairs], use_cache
    )
    dispatched = _walk_trie_rows(
        pairs, 0, trie, [set() for _ in pairs], use_cache
    )
    assert dispatched == reference
