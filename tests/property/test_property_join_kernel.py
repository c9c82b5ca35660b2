"""The fused apply-and-probe join kernel against the join spec.

``TransformationJoiner.join_values`` runs the fused kernel of
:mod:`repro.kernels.apply` under the numpy tier (batches of 64 rows or
more) and the per-row walker otherwise; either way its pairs, their order
and ``matched_by`` must equal ``join_values_reference``, the
one-transformation-at-a-time loop.  The cases lean on what a hashing,
code-point kernel can get wrong: lone surrogates, NULs, combining and
right-to-left marks, astral characters, 10,000-character values, empty
outputs, empty targets, duplicate target values, every unit opcode
(multi-character delimiters and an ``apply()``-overriding unit included),
case folding, batches either side of the 64-row cutoff, several row
blocks, two workers, expired deadlines and hash keys that all collide.

Every case runs on the active tier, so the forced pure-Python CI leg
checks the per-row path against the same spec; the cases that call the
kernel directly skip themselves there.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from time import monotonic

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import kernels
from repro.core.transformation import Transformation
from repro.core.units import (
    Literal,
    Split,
    SplitSubstr,
    Substr,
    TwoCharSplitSubstr,
)
from repro.join.joiner import TransformationJoiner
from repro.parallel.errors import DeadlineExceededError

NUMPY_TIER = kernels.numpy_or_none() is not None
needs_numpy = pytest.mark.skipif(
    not NUMPY_TIER,
    reason="numpy tier not active (numpy missing or REPRO_KERNELS=python)",
)

#: Lone surrogate, NUL, combining acute, right-to-left mark, astral emoji.
HOSTILE = "\udcff\x00\u0301\u200f\U0001f600"
ALPHABET = "abAB19 ,-:" + HOSTILE
DELIMITERS = [",", " ", "-", "::", ", ", "\udcff", "\U0001f600"]

CELL = st.text(alphabet=ALPHABET, max_size=14)


@dataclass(frozen=True)
class ReversedSubstr(Substr):
    """A unit overriding ``apply()``: the trie keeps its semantics."""

    def apply(self, source: str) -> str | None:
        output = super().apply(source)
        return None if output is None else output[::-1]


UNITS = st.one_of(
    st.builds(Literal, st.text(alphabet=ALPHABET, max_size=3)),
    st.integers(0, 5).flatmap(
        lambda start: st.builds(Substr, st.just(start), st.integers(start + 1, 10))
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
    st.integers(0, 3).flatmap(
        lambda start: st.builds(
            ReversedSubstr, st.just(start), st.integers(start + 1, 8)
        )
    ),
)

TRANSFORMATIONS = st.lists(
    st.builds(Transformation, st.lists(UNITS, min_size=1, max_size=5)),
    min_size=1,
    max_size=10,
)


@st.composite
def _cases(draw):
    """``(transformations, sources, targets)``: sources cycled to a batch
    size either side of the kernel cutoff; targets mixing transformation
    outputs (so rows join), empty and duplicate values and noise."""
    transformations = draw(TRANSFORMATIONS)
    cells = draw(st.lists(CELL, min_size=1, max_size=10))
    size = draw(st.sampled_from([1, 63, 64, 100]))
    sources = [cells[row % len(cells)] for row in range(size)]
    targets = draw(st.lists(CELL, max_size=4))
    for cell in cells:
        if draw(st.booleans()):
            output = draw(st.sampled_from(transformations)).apply(cell)
            if output is not None:
                targets.append(output)
                if draw(st.booleans()):
                    targets.append(output)
    if draw(st.booleans()):
        targets.append("")
    return transformations, sources, draw(st.permutations(targets))


def _joined(result):
    return result.pairs, result.matched_by


def _check(transformations, sources, targets, **options):
    joiner = TransformationJoiner(transformations, **options)
    expected = _joined(joiner.join_values_reference(sources, targets))
    assert _joined(joiner.join_values(sources, targets)) == expected
    return expected


@settings(deadline=None, max_examples=150)
@given(case=_cases(), case_insensitive=st.booleans())
def test_join_values_matches_reference(case, case_insensitive):
    transformations, sources, targets = case
    _check(transformations, sources, targets, case_insensitive=case_insensitive)


@settings(deadline=None, max_examples=40)
@given(case=_cases())
def test_empty_target(case):
    transformations, sources, _ = case
    assert _check(transformations, sources, []) == ([], {})


def _large_case(seed, rows=5_000, long_rows=3):
    """A 5,000-row batch over hostile text with a few 10,000-character
    values, and every opcode."""
    rng = random.Random(seed)

    def cell():
        return "".join(rng.choice(ALPHABET) for _ in range(rng.randint(0, 14)))

    sources = [cell() for _ in range(rows)]
    for row in rng.sample(range(rows), long_rows):
        sources[row] = "".join(rng.choice(ALPHABET) for _ in range(10_000))
    transformations = [
        Transformation([Substr(0, 3), Literal("-"), Split(" ", 2)]),
        Transformation([Split(",", 1)]),
        Transformation([SplitSubstr("::", 2, 0, 2), Literal("\U0001f600")]),
        Transformation([TwoCharSplitSubstr(",", " ", 2, 0, 2)]),
        Transformation([ReversedSubstr(1, 5)]),
        Transformation([Split("\udcff", 2), Substr(0, 9_000)]),
        Transformation([Literal("x"), Substr(0, 2)]),
    ]
    targets = [cell() for _ in range(rows // 10)]
    for source in rng.sample(sources, rows // 5):
        output = rng.choice(transformations).apply(source)
        if output is not None:
            targets.append(output)
    rng.shuffle(targets)
    return transformations, sources, targets


@pytest.mark.parametrize("seed", [1, 2])
def test_large_batch_with_long_values(seed):
    pairs, _ = _check(*_large_case(seed))
    assert len(pairs) > 1_000


@needs_numpy
def test_many_small_blocks(monkeypatch):
    """Blocks of a few rows and code points: the same join."""
    from repro.kernels import apply as join_kernel

    monkeypatch.setattr(join_kernel, "_BLOCK_ROWS", 7)
    monkeypatch.setattr(join_kernel, "_BLOCK_CODES", 50)
    pairs, _ = _check(*_large_case(3, rows=600, long_rows=2))
    assert pairs


def test_two_workers():
    """Sharded over a real two-worker pool: the same join."""
    pairs, _ = _check(
        *_large_case(4, rows=2_000, long_rows=1),
        num_workers=2,
        min_rows_per_worker=0,
    )
    assert pairs


@needs_numpy
def test_forced_collisions(monkeypatch):
    """Every key collides: verification alone keeps the pairs exact."""
    from repro.kernels import apply as join_kernel

    np = kernels.numpy_or_none()
    monkeypatch.setattr(
        join_kernel, "_keys", lambda np_, hashes, lengths: np.zeros_like(hashes)
    )
    transformations, sources, targets = _large_case(5, rows=300, long_rows=1)
    pairs, _ = _check(transformations, sources, targets[:200])
    assert pairs


@needs_numpy
def test_kernel_deadline_raises():
    from repro.core.coverage import _build_unit_trie
    from repro.kernels.apply import JoinTable, join_trie_rows, trie_spans

    transformations, sources, targets = _large_case(6, rows=200, long_rows=0)
    trie = _build_unit_trie(transformations)
    with pytest.raises(DeadlineExceededError):
        join_trie_rows(
            sources, 0, trie_spans(trie), JoinTable(targets),
            deadline=monotonic() - 1,
        )


@pytest.mark.parametrize("rows", [63, 64, 5_000])
def test_expired_deadline_raises(rows):
    transformations, sources, targets = _large_case(7, rows=rows, long_rows=0)
    joiner = TransformationJoiner(transformations)
    with pytest.raises(DeadlineExceededError):
        joiner.join_values(sources, targets, deadline=monotonic() - 1)
