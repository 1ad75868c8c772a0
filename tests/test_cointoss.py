"""Reduction-function unit tests.

Worked examples are checked against a bit-by-bit reference implementation
that scans the binary decompositions directly, independent of the bit-trick
path used by the real function.
"""

import pytest
from hypothesis import given, strategies as st

from wfcolor import cointoss
from wfcolor.cointoss import (
    check_chain_coloring,
    check_contraction,
    check_logstar_decay,
    cv_reduce,
    logstar_steps,
)


def ceil_log2(v: int) -> int:
    """Smallest L with 2**L >= v, by exact integer search."""
    length = 0
    while (1 << length) < v:
        length += 1
    return length


def reference_reduce(x: int, y: int) -> int:
    """Scan bits from position 0 upward; stop at the first disagreement or at
    the shorter length, whichever comes first."""
    i = 0
    stop = min(len(bin(x)) - 2 if x else 0, len(bin(y)) - 2 if y else 0)
    while i < stop and (x >> i) & 1 == (y >> i) & 1:
        i += 1
    return 2 * i + ((x >> i) & 1)


def reference_logstar(x: int) -> int:
    steps = 0
    while x >= 10:
        x = 2 * ceil_log2(x + 1) + 1
        steps += 1
    return steps


def test_cv_reduce_examples():
    assert cv_reduce(6, 5) == 0  # 110 vs 101 differ at bit 0, bit is 0
    assert cv_reduce(5, 5) == 6  # no disagreement, falls back to the length
    assert cv_reduce(12, 4) == 7  # lengths 4 vs 3, first disagreement at 3
    assert cv_reduce(5, 2) == 1
    assert cv_reduce(6, 5) != cv_reduce(5, 2)  # chain-coloring witness


def test_cv_reduce_rejects_negatives():
    with pytest.raises(ValueError):
        cv_reduce(-1, 3)


@given(st.integers(min_value=0, max_value=2**64), st.integers(min_value=0, max_value=2**64))
def test_cv_reduce_matches_reference(x, y):
    assert cv_reduce(x, y) == reference_reduce(x, y)


@given(st.integers(min_value=0, max_value=2**64), st.integers(min_value=0, max_value=2**64))
def test_cv_reduce_range(x, y):
    assert cv_reduce(x, y) <= 2 * x.bit_length() + 1


def test_logstar_examples():
    assert logstar_steps(9) == 0
    assert logstar_steps(10**9) == 3  # 1e9 -> 61 -> 13 -> 9
    assert logstar_steps(2**63) == reference_logstar(2**63) == 4


def test_logstar_rejects_zero():
    with pytest.raises(ValueError):
        logstar_steps(0)


@given(st.integers(min_value=1, max_value=2**63))
def test_logstar_matches_reference(x):
    assert logstar_steps(x) == reference_logstar(x)


def test_contraction_small_range():
    checked, bad = check_contraction(limit=256)
    assert checked == sum(255 - y for y in range(10, 256))
    assert bad == []


def test_chain_coloring_small_range():
    checked, bad = check_chain_coloring(limit=64)
    assert checked == sum((63 - y) * y for y in range(1, 63))
    assert bad == []


def test_logstar_decay_suite():
    checked, issues = check_logstar_decay()
    assert checked > 0
    assert issues == []


def _mod16(x: int, y: int) -> int:
    """A wrong reduction: it keeps x's low four bits and ignores y."""
    return x % 16


def test_contraction_reports_each_pair_a_wrong_reduction_fails(monkeypatch):
    monkeypatch.setattr(cointoss, "cv_reduce", _mod16)
    checked, bad = check_contraction(limit=32)
    assert checked == sum(31 - y for y in range(10, 32))
    assert bad == [(x, y) for y in range(10, 32) for x in range(y + 1, 32) if x % 16 >= y]


def test_chain_coloring_reports_each_middle_a_wrong_reduction_fails(monkeypatch):
    # f(y + 16, y) = f(y, 0) = y for every y < 16, and for no larger y below 32
    monkeypatch.setattr(cointoss, "cv_reduce", _mod16)
    checked, bad = check_chain_coloring(limit=32)
    assert checked == sum((31 - y) * y for y in range(1, 31))
    assert bad == [(y + 16, y, 0) for y in range(1, 16)]


def test_logstar_decay_reports_a_decrease_and_a_large_top(monkeypatch):
    monkeypatch.setattr(cointoss, "logstar_steps", lambda x: 9 if x in (1, 2**63) else 0)
    checked, issues = check_logstar_decay()
    assert checked == 4096 + 65
    assert issues == ["logstar_steps decreased at x=2"] * 2 + ["logstar_steps(2**63) = 9 > 5"]


@given(
    st.integers(min_value=10, max_value=2**40),
    st.integers(min_value=10, max_value=2**40),
)
def test_contraction_property(x, y):
    if x > y:
        assert cv_reduce(x, y) < y
