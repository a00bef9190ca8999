"""Levenshtein distance/similarity, checked against a full-matrix DP."""

import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from codemapper import similarity
from codemapper.similarity import levenshtein_distance, levenshtein_similarity

# Small alphabets make matches dense, which exercises the carry chains of the
# bit-parallel kernel; "\n" and a non-BMP character check that it works on
# code points, not bytes or UTF-16 units.
DENSE_ALPHABETS = ("ab", "ab\n", "a\U0001f600", "abc \n\U0001f600")


def classic_dp(a: str, b: str) -> int:
    """Full-matrix reference implementation."""
    rows = [[0] * (len(b) + 1) for _ in range(len(a) + 1)]
    for i in range(len(a) + 1):
        rows[i][0] = i
    for j in range(len(b) + 1):
        rows[0][j] = j
    for i in range(1, len(a) + 1):
        for j in range(1, len(b) + 1):
            cost = 0 if a[i - 1] == b[j - 1] else 1
            rows[i][j] = min(
                rows[i - 1][j] + 1, rows[i][j - 1] + 1, rows[i - 1][j - 1] + cost
            )
    return rows[-1][-1]


def test_identity():
    assert levenshtein_similarity("abc", "abc") == 1.0


def test_empty_versus_nonempty():
    assert levenshtein_similarity("", "abc") == 0.0


def test_both_empty():
    assert levenshtein_similarity("", "") == 1.0


def test_kitten_sitting():
    assert levenshtein_distance("kitten", "sitting") == 3
    assert levenshtein_similarity("kitten", "sitting") == pytest.approx(1 - 3 / 7)


@given(st.text(max_size=40), st.text(max_size=40))
def test_matches_reference_dp(a, b):
    assert levenshtein_distance(a, b) == classic_dp(a, b)


@given(
    st.sampled_from(DENSE_ALPHABETS).flatmap(
        lambda alphabet: st.tuples(
            st.text(alphabet=alphabet, max_size=150),
            st.text(alphabet=alphabet, max_size=150),
        )
    )
)
def test_kernel_matches_reference_dp_dense(pair):
    # Up to 150 characters, so the bit-vectors cross the 64- and 128-bit
    # word boundaries.
    a, b = pair
    expected = classic_dp(a, b)
    assert similarity._kernel(a, b) == expected
    assert levenshtein_distance(a, b) == expected


@pytest.mark.parametrize("length", [1, 63, 64, 65, 128, 129])
def test_kernel_at_word_boundaries(length):
    rng = random.Random(length)
    pattern = "".join(rng.choice("ab\n") for _ in range(length))
    for other_length in sorted({0, 1, length // 2, length - 1, length}):
        other = "".join(rng.choice("ab\n") for _ in range(other_length))
        expected = classic_dp(pattern, other)
        assert similarity._kernel(pattern, other) == expected
        assert similarity._kernel(other, pattern) == expected


@given(st.text(max_size=30), st.text(max_size=30))
def test_metric_axioms(a, b):
    d = levenshtein_distance(a, b)
    assert d == levenshtein_distance(b, a)
    assert abs(len(a) - len(b)) <= d <= max(len(a), len(b))
    assert (d == 0) == (a == b)


@given(st.text(max_size=30), st.text(max_size=30))
def test_similarity_in_unit_interval(a, b):
    assert 0.0 <= levenshtein_similarity(a, b) <= 1.0


def test_unicode_codepoints_not_bytes():
    # A 2-codepoint change on non-ASCII identifiers counts 2, regardless of
    # UTF-8 byte width.
    assert levenshtein_distance("naïve_π", "naïve_µx") == 2
