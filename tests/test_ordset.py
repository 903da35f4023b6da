"""Finite ordered index sets: positional access, slicing, alignment."""

import itertools
import re
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

import polygrid
from polygrid.ordset import CAP, OrdSet, aligned, capped, rset


def test_of_sorts_input():
    a = OrdSet.of([11, 3, 8])
    assert a.elems == (3, 8, 11)
    assert a.otp == 3


def test_of_rejects_duplicates():
    with pytest.raises(ValueError):
        OrdSet.of([3, 3, 8])


def test_index_positions():
    a = OrdSet.of([3, 8, 11])
    assert a.at(0) == 3
    assert a.at(1) == 8
    assert a.at(2) == 11


def test_index_out_of_range():
    a = OrdSet.of([3, 8, 11])
    with pytest.raises(IndexError):
        a.at(3)


def test_slice_by_positions():
    a = OrdSet.of([3, 8, 11])
    assert a.select(OrdSet.of([0, 2])) == OrdSet.of([3, 11])
    assert a.select(OrdSet.of([])) == OrdSet.of([])


def test_aligned_example():
    a = OrdSet.of([1, 3, 5])
    b = OrdSet.of([2, 3, 7])
    assert aligned(a, b)
    assert rset(a, b) == OrdSet.of([1])


def test_aligned_needs_equal_otp():
    assert not aligned(OrdSet.of([1, 3]), OrdSet.of([1, 3, 5]))


def test_aligned_rejects_position_mismatch():
    # 3 sits at position 1 in a but position 0 in b
    a = OrdSet.of([1, 3, 5])
    b = OrdSet.of([3, 4, 7])
    assert not aligned(a, b)


def test_rset_requires_alignment():
    with pytest.raises(ValueError):
        rset(OrdSet.of([1, 3, 5]), OrdSet.of([3, 4, 7]))


def test_slice_of_rset_is_intersection():
    # exhaustively over equal-size subset pairs of {0..9}
    universe = range(10)
    for n in (1, 2, 3):
        for xs in itertools.combinations(universe, n):
            for ys in itertools.combinations(universe, n):
                a, b = OrdSet.of(xs), OrdSet.of(ys)
                if not aligned(a, b):
                    continue
                r = rset(a, b)
                assert a.select(r) == a.intersect(b)
                assert b.select(r) == a.intersect(b)


def test_union_intersect():
    a = OrdSet.of([1, 4])
    b = OrdSet.of([2, 4])
    assert a.intersect(b) == OrdSet.of([4])
    assert 4 in a and 3 not in a


def test_json_round_trip():
    a = OrdSet.of([5, 0, 9])
    assert OrdSet.from_json(a.to_json()) == a
    assert a.to_json() == [0, 5, 9]


@given(st.integers(0, 5), st.integers(0, 25), st.integers(1, 2 ** 20))
def test_capped_powers_agree_with_exact_arithmetic(base, exponent, bound):
    got = capped((base ** j for j in range(exponent + 1)), bound)
    exact = base ** exponent
    if exact <= bound:
        assert got == exact
    else:  # the first power past the bound, never much further
        assert bound < got <= base * bound


def test_capped_stops_at_the_first_count_past_the_bound():
    assert capped(2 ** j for j in range(10 ** 9 + 1)) == 2 * CAP
    assert capped(iter(())) == 0
    assert capped([3, 5, 5], 5) == 5
    assert capped([3, 6, 7], 5) == 6


def test_cap_is_defined_on_one_line():
    src = Path(polygrid.__file__).parent
    lines = [line for path in sorted(src.glob("*.py"))
             for line in path.read_text().splitlines()
             if re.search(r"2\s*\*\*\s*20\b", line)]
    assert lines == ["CAP = 2 ** 20"]
