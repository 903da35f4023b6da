"""Finite ordered index sets: positional access, slicing, alignment."""

import itertools
import json
import re
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import polygrid
from polygrid.ordset import CAP, OrdSet, aligned, capped, rset
from reference import intersect, select


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
    assert select(a, OrdSet.of([0, 2])) == OrdSet.of([3, 11])
    assert select(a, OrdSet.of([])) == OrdSet.of([])


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
                assert select(a, r) == intersect(a, b)
                assert select(b, r) == intersect(a, b)


def test_union_intersect():
    a = OrdSet.of([1, 4])
    b = OrdSet.of([2, 4])
    assert intersect(a, b) == OrdSet.of([4])
    assert 4 in a and 3 not in a


def test_json_round_trip():
    a = OrdSet.of([5, 0, 9])
    assert OrdSet.from_json(a.to_json()) == a
    assert a.to_json() == [0, 5, 9]


_naturals = st.lists(st.integers(0, 40), unique=True, max_size=8)


@settings(max_examples=200)
@given(_naturals, _naturals, st.data())
def test_ordset_postconditions(xs, ys, data):
    a, b = OrdSet.of(xs), OrdSet.of(ys)
    assert a.elems == tuple(sorted(xs)) and a.otp == len(a) == len(xs)
    # a(eta) has exactly eta predecessors in a
    assert all(sum(y < a.at(eta) for y in a) == eta for eta in range(a.otp))
    positions = data.draw(st.lists(st.integers(0, a.otp - 1))) if xs else []
    assert select(a, positions).elems == tuple(
        a.at(eta) for eta in sorted(set(positions)))
    both = intersect(a, b)
    assert set(both) == set(a) & set(b) and both == OrdSet.of(both)
    assert OrdSet.from_json(json.loads(json.dumps(a.to_json()))) == a


@given(st.lists(st.integers(-3, 12), max_size=6))
def test_constructor_accepts_exactly_increasing_naturals(xs):
    if all(x >= 0 for x in xs) and all(x < y for x, y in zip(xs, xs[1:])):
        assert OrdSet(tuple(xs)).elems == tuple(xs)
    else:
        with pytest.raises(ValueError):
            OrdSet(tuple(xs))


@settings(max_examples=200)
@given(_naturals, st.data())
def test_rset_postcondition_generated(xs, data):
    # b keeps a's element 2x at the shared positions and takes the odd
    # 2x + 1 elsewhere, so the two are aligned and share exactly those
    a = OrdSet.of(2 * x for x in xs)
    shared = data.draw(st.lists(st.booleans(), min_size=len(xs),
                                max_size=len(xs)))
    b = OrdSet(tuple(x + (not keep) for x, keep in zip(a, shared)))
    assert aligned(a, b) and aligned(b, a)
    r = rset(a, b)
    assert r.elems == tuple(i for i, keep in enumerate(shared) if keep)
    assert select(a, r) == select(b, r) == intersect(a, b)


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
