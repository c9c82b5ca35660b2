"""Differential suite: the interned n-gram kernels against the string spec.

Under the numpy tier, :class:`~repro.matching.index.InvertedIndex` interns
every gram to an integer id (:mod:`repro.kernels.ngrams`) and the packed
matcher runs on those ids.  The string-keyed pure-Python path is the
executable spec, so every observable value must be equal, not close:

* the matcher's candidate pairs — same pairs, same order;
* ``representatives``, ``num_ngrams`` and ``num_pruned_ngrams``;
* ``row_frequency``, ``rows_containing`` and ``in`` on sampled grams, and
  the insertion order of the lazily built string tables.

Inputs are hostile on purpose: lone surrogates, NULs (trailing ones too),
combining and right-to-left marks, astral-plane characters, characters
whose ``lower()`` changes the length, 10,000-character values, empty values
and columns, rows shorter than ``min_ngram``, grams repeated within a row,
and a two-letter alphabet that makes Rscore ties the common case.

The numpy-vs-python cases skip themselves when the numpy tier is not
active; under ``REPRO_KERNELS=python`` the suite still pins the active tier
to the seed's reference matcher.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import kernels
from repro.matching.index import InvertedIndex
from repro.matching.ngrams import unique_ngrams_by_size
from repro.matching.reference import ReferenceRowMatcher
from repro.matching.row_matcher import MatchingConfig, NGramRowMatcher

NUMPY_TIER = kernels.numpy_or_none() is not None
needs_numpy = pytest.mark.skipif(
    not NUMPY_TIER,
    reason="numpy tier not active (numpy missing or REPRO_KERNELS=python)",
)

HOSTILE = [
    "a", "b", "A", "B", " ", "\u00e9",
    "\x00",  # NUL
    "\ud800", "\udfff",  # lone surrogates
    "\U0001f600", "\U00010400",  # astral plane (the second lower-cases)
    "\u0301",  # combining acute accent
    "\u200f", "\u202e",  # right-to-left mark and override
    "\u0130",  # capital I with dot: lower() is two characters
    "\u03a3", "\u00df",  # capital sigma, sharp s
]

VALUE = st.builds(
    lambda text, nuls: text + "\x00" * nuls,
    st.text(alphabet=st.sampled_from(HOSTILE), max_size=12),
    st.integers(min_value=0, max_value=2),
)
#: Two letters: nearly every representative is decided by a tie.
TIGHT_VALUE = st.text(alphabet="ab", max_size=8)

COLUMN = st.lists(VALUE, max_size=8)
TIGHT_COLUMN = st.lists(TIGHT_VALUE, max_size=8)


@st.composite
def configs(draw) -> MatchingConfig:
    min_ngram = draw(st.integers(min_value=1, max_value=3))
    return MatchingConfig(
        min_ngram=min_ngram,
        max_ngram=min_ngram + draw(st.integers(min_value=0, max_value=4)),
        lowercase=draw(st.booleans()),
        stop_gram_cap=draw(st.sampled_from([0, 0, 1, 2, 3])),
        max_candidates_per_row=draw(st.sampled_from([0, 0, 1, 2])),
        num_workers=1,
    )


def on_tier(tier, function, *args):
    with kernels.use_tier(tier):
        return function(*args)


def match(config, source, target):
    return NGramRowMatcher(config).match_values(source, target)


def build(config, target):
    return InvertedIndex.build(
        target,
        min_size=config.min_ngram,
        max_size=config.max_ngram,
        lowercase=config.lowercase,
        stop_gram_cap=config.stop_gram_cap,
    )


def sample_grams(config, *columns):
    """Every gram of the columns, plus a few that occur nowhere."""
    grams = {"zz", "\ud800\ud800", "a" * config.max_ngram}
    for column in columns:
        for text in column:
            for per_size in unique_ngrams_by_size(
                text, config.min_ngram, config.max_ngram, lowercase=config.lowercase
            ):
                grams.update(per_size)
    return sorted(grams)


def index_view(config, source, target):
    """Everything observable about one index build, as plain values."""
    index = build(config, target)
    view = {
        "representatives": index.representatives(source),
        "num_rows": index.num_rows,
        "num_ngrams": index.num_ngrams,
        "num_pruned_ngrams": index.num_pruned_ngrams,
    }
    # Nothing above builds a numpy-built index's string tables; the
    # string queries below do.
    assert index._lazy == (kernels.active_tier() == "numpy")
    grams = sample_grams(config, source, target)
    view["row_frequency"] = [index.row_frequency(gram) for gram in grams]
    view["rows_containing"] = [list(index.rows_containing(gram)) for gram in grams]
    view["contains"] = [gram in index for gram in grams]
    view["frequency_order"] = list(index._frequency.items())
    view["postings_order"] = [
        (gram, list(rows)) for gram, rows in index._postings.items()
    ]
    return view


def assert_tiers_agree(config, source, target):
    expected = on_tier("python", match, config, source, target)
    assert on_tier("numpy", match, config, source, target) == expected
    assert on_tier("numpy", index_view, config, source, target) == on_tier(
        "python", index_view, config, source, target
    )


@needs_numpy
@settings(deadline=None, max_examples=300)
@given(source=COLUMN, target=COLUMN, config=configs())
def test_hostile_strings(source, target, config):
    assert_tiers_agree(config, source, target)


@needs_numpy
@settings(deadline=None, max_examples=200)
@given(source=TIGHT_COLUMN, target=TIGHT_COLUMN, config=configs())
def test_rscore_ties(source, target, config):
    assert_tiers_agree(config, source, target)


@needs_numpy
@settings(deadline=None, max_examples=100)
@given(
    source=st.lists(st.sampled_from(["aaaa", "abab", "aaab", "ba", ""]), max_size=6),
    target=st.lists(st.sampled_from(["aaaaaa", "ababab", "baaa", "a", ""]), max_size=6),
    config=configs(),
)
def test_repeated_grams_and_short_rows(source, target, config):
    assert_tiers_agree(config, source, target)


@needs_numpy
@pytest.mark.parametrize(
    "source, target",
    [
        ([], []),
        (["abc"], []),
        ([], ["abc"]),
        (["", ""], ["", "", ""]),
        (["a", "b"], ["ab", "ba"]),  # every row shorter than min_ngram
        (["\x00\x00\x00\x00"], ["x\x00\x00\x00\x00", "\x00\x00\x00"]),
    ],
)
@pytest.mark.parametrize("stop_gram_cap", [0, 1])
def test_degenerate_columns(source, target, stop_gram_cap):
    config = MatchingConfig(min_ngram=3, max_ngram=5, stop_gram_cap=stop_gram_cap)
    assert_tiers_agree(config, source, target)


@needs_numpy
def test_rscore_compares_floats_not_frequency_products():
    """1*25 == 5*5, but (1/1)*(1/25) < (1/5)*(1/5) in float64: the spec
    picks "bb" for source row 0, where a tie on the integer product would
    pick the smaller gram "aa"."""
    source = ["aa-bb"] + ["bb"] * 4
    target = ["aa"] * 25 + ["bb"] * 5
    config = MatchingConfig(min_ngram=2, max_ngram=2)
    with kernels.use_tier("python"):
        assert build(config, target).representatives(source)[0] == ["bb"]
    assert_tiers_agree(config, source, target)


@needs_numpy
@pytest.mark.parametrize("cap", [0, 2])
def test_ten_thousand_character_values(cap):
    pattern = "Ab\u0130\x00\ud800\U0001f600c"
    long_value = (pattern * 1500)[:10_000]
    source = [long_value, long_value[::-1], "xyz" + long_value[:50]]
    target = [long_value[17:], "abi\u0307", long_value[:9_000] + "\x00", ""]
    config = MatchingConfig(
        min_ngram=2, max_ngram=6, max_candidates_per_row=cap, stop_gram_cap=cap
    )
    assert_tiers_agree(config, source, target)


@settings(deadline=None, max_examples=150)
@given(source=COLUMN, target=COLUMN, config=configs())
def test_active_tier_matches_reference(source, target, config):
    """Whichever tier this process resolved equals the seed's matcher (which
    has no stop-gram pruning, so the cap is off here)."""
    config = MatchingConfig(
        min_ngram=config.min_ngram,
        max_ngram=config.max_ngram,
        lowercase=config.lowercase,
        max_candidates_per_row=config.max_candidates_per_row,
        num_workers=1,
    )
    assert match(config, source, target) == ReferenceRowMatcher(
        config
    ).match_values(source, target)
