"""Fiber colorings, the recursion, finite Ramsey thresholds, product bounds."""

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polygrid import antiramsey
from polygrid.antiramsey import (
    Arena,
    BudgetError,
    TupleColor,
    _c_full,
    _descend,
    _search_bad,
    c1,
    c_full,
    check_difference_lemma,
    cn,
    find_bad_coloring,
    m_seq,
    ramsey_m_star,
    star,
    verify_product_bound,
)
from polygrid.ordset import OrdSet, ParameterError

ID1 = Arena(size=10, dim=1, mode="identity")
ID2 = Arena(size=10, dim=2, mode="identity")


def _cn_oracle(arena: Arena, elems: tuple[int, ...]) -> int:
    # straight-line re-implementation of the recursion, no shared code paths
    xs = list(elems)
    while len(xs) > 2:
        beta = xs[-1]
        xs = sorted(arena.embed(beta, x) for x in xs[:-1])
    return c1(arena, xs[0], xs[1])


# the distinguished element and the set color as two separate recursions,
# the reference definition of _descend; c1 is read from the module, so
# that a patched pair coloring reaches both sides
def _set_color_ref(arena: Arena, elems: tuple[int, ...], level: int) -> int:
    if level == 1:
        return antiramsey.c1(arena, elems[0], elems[1])
    beta = elems[-1]
    image = tuple(sorted(arena.embed(beta, x) for x in elems[:-1]))
    return _set_color_ref(arena, image, level - 1)


def _distinguished_ref(arena: Arena, elems: tuple[int, ...], level: int) -> int:
    if level == 1:
        return elems[0]
    beta = elems[-1]
    pairs = sorted((arena.embed(beta, x), x) for x in elems[:-1])
    inner = _distinguished_ref(arena, tuple(v for v, _ in pairs), level - 1)
    return next(x for v, x in pairs if v == inner)


# ---------------------------------------------------------------------------
# fibers and the recursion


def test_c1_identity_values():
    assert c1(ID1, 2, 9) == 2
    assert c1(ID1, 0, 1) == 0


def test_c1_precondition():
    with pytest.raises(ValueError):
        c1(ID1, 9, 2)
    with pytest.raises(ValueError):
        c1(ID1, 3, 3)


def test_c1_injective_per_fiber_seeded():
    arena = Arena(size=8, dim=1, mode="seeded", seed=11)
    for beta in range(1, 8):
        vals = [c1(arena, a, beta) for a in range(beta)]
        assert len(set(vals)) == beta


def test_cn_identity_values():
    assert cn(ID1, OrdSet.of([2, 9])) == 2
    assert cn(ID2, OrdSet.of([2, 5, 9])) == 2


def test_cn_arity_error():
    with pytest.raises(ValueError):
        cn(ID1, OrdSet.of([1, 2, 3]))


def test_cn_matches_independent_recursion():
    # all triples from {0..7}, identity and seeded arenas
    for arena in (
        Arena(size=8, dim=2, mode="identity"),
        Arena(size=8, dim=2, mode="seeded", seed=3),
        Arena(size=8, dim=2, mode="seeded", seed=17),
    ):
        for triple in itertools.combinations(range(8), 3):
            assert cn(arena, OrdSet.of(triple)) == _cn_oracle(arena, triple)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_descend_matches_two_recursions(n):
    for arena in (Arena(size=9, dim=n, mode="identity"),
                  Arena(size=9, dim=n, mode="seeded", seed=4),
                  Arena(size=8, dim=n, mode="seeded", seed=31)):
        for elems in itertools.combinations(range(arena.size), n + 1):
            assert _descend(arena, elems, n) == (
                _distinguished_ref(arena, elems, n),
                _set_color_ref(arena, elems, n))


def test_star_values():
    assert star(ID1, OrdSet.of([4, 7])) == 4
    assert star(ID2, OrdSet.of([2, 5, 9])) == 2


def test_star_membership_and_not_max():
    # ph.refute asserts its probe slot lies below n on the strength of this
    for n in (1, 2, 3):
        for arena in (Arena(size=10, dim=n, mode="identity"),
                      Arena(size=8, dim=n, mode="seeded", seed=5)):
            for elems in itertools.combinations(range(arena.size), n + 1):
                s = star(arena, OrdSet(elems))
                assert s in elems
                assert s != max(elems)


# ---------------------------------------------------------------------------
# the compound coloring


def test_c_full_examples():
    assert c_full(ID1, (3, 3)) == TupleColor(2, 0)
    assert c_full(ID1, (3, 7)) == TupleColor(0, 3)
    assert c_full(ID1, (7, 3)) == TupleColor(1, 3)


def test_c_full_diagonal_iff_repeat():
    for vec in itertools.product(range(5), repeat=3):
        col = c_full(Arena(size=5, dim=2, mode="identity"), vec)
        assert (col == TupleColor(3, 0)) == (len(set(vec)) < 3)


def test_c_full_slot_is_star_position():
    arena = Arena(size=8, dim=2, mode="seeded", seed=9)
    for vec in itertools.permutations(range(8), 3):
        col = c_full(arena, vec)
        assert col.slot < 3
        a = OrdSet.of(vec)
        assert vec[col.slot] == star(arena, a)


@st.composite
def arenas_and_tuples(draw):
    n = draw(st.integers(1, 3))
    size = draw(st.integers(n + 2, 8))
    if draw(st.booleans()):
        arena = Arena(size=size, dim=n, mode="identity")
    else:
        arena = Arena(size=size, dim=n, mode="seeded",
                      seed=draw(st.integers(0, 50)))
    vec = st.tuples(*[st.integers(0, size - 1)] * (n + 1))
    return arena, draw(st.lists(vec, min_size=1, max_size=12))


@settings(max_examples=150, deadline=None)
@given(arenas_and_tuples())
def test_c_full_memo_matches_cn_and_star(case):
    arena, vecs = case
    n = arena.dim

    def expected(vec):
        if len(set(vec)) < n + 1:
            return TupleColor(n + 1, 0)
        a = OrdSet.of(vec)
        return TupleColor(vec.index(star(arena, a)), cn(arena, a))

    for vec in vecs:
        assert c_full(arena, vec) == expected(vec)
    for vec in vecs:
        assert c_full(arena, list(vec)) == expected(vec)
    # a filled memo still rejects bad tuples, on every call
    too_long = tuple(range(n + 2))
    outside = tuple(range(n)) + (arena.size,)
    # repeats collapse to one color, but only inside the arena
    above = (arena.size,) * (n + 1)
    below = (-1,) * (n + 1)
    for bad in (too_long, too_long[:-2], outside, outside, above, above,
                below, below):
        with pytest.raises(ValueError):
            c_full(arena, bad)


# ---------------------------------------------------------------------------
# Ramsey thresholds


def test_ramsey_m_star_one_color():
    assert ramsey_m_star(1, 1) == 3


def test_ramsey_m_star_two_colors():
    assert ramsey_m_star(1, 2) == 6


def test_ramsey_budget_error():
    with pytest.raises(BudgetError) as exc:
        ramsey_m_star(2, 2, budget=2_000)
    assert exc.value.nodes_used >= 2_000
    assert exc.value.best_lower_bound is not None


def test_bad_coloring_below_threshold():
    col = find_bad_coloring(1, 5, 2)
    assert col is not None
    # no monochromatic triple, re-checked directly
    for triple in itertools.combinations(range(5), 3):
        seen = {col[pair] for pair in itertools.combinations(triple, 2)}
        assert len(seen) > 1
    assert find_bad_coloring(1, 6, 2) is None


def _brute_force_bad(col: dict, n: int, m: int, k: int) -> bool:
    # every (n+1)-subset colored below k, no (n+2)-subset monochromatic
    if sorted(col) != list(itertools.combinations(range(m), n + 1)):
        return False
    if any(not 0 <= c < k for c in col.values()):
        return False
    for big in itertools.combinations(range(m), n + 2):
        if len({col[e] for e in itertools.combinations(big, n + 1)}) == 1:
            return False
    return True


@pytest.mark.parametrize("n, m, k, nodes, found", [
    (1, 5, 2, 71, True),
    (1, 6, 2, 987, False),
    (1, 8, 3, 87_726, True),
    (2, 6, 2, 260, True),
    (2, 7, 2, 22_647, True),
])
def test_search_bad_node_counts_pinned(n, m, k, nodes, found):
    # the search order is fixed: pruning may get cheaper, never different
    col, used = _search_bad(n, m, k, 2_000_000)
    assert used == nodes
    assert (col is not None) == found
    if found:
        assert _brute_force_bad(col, n, m, k)


@pytest.mark.parametrize("n, k, budget, nodes, best, died", [
    (1, 3, 10_000, 10_001, 7, 8),
    (1, 3, 25_000, 25_001, 7, 8),
    (1, 3, 40_000, 40_001, 7, 8),
    (1, 3, 60_000, 60_001, 7, 8),
    (2, 2, 10_000, 10_001, 6, 7),
    (2, 2, 25_000, 25_001, 7, 8),
    (2, 2, 40_000, 40_001, 7, 8),
    (2, 2, 60_000, 60_001, 7, 8),
])
def test_threshold_budget_error_pinned(monkeypatch, n, k, budget, nodes, best,
                                       died):
    # the census workload's ramsey jobs across their budget range
    monkeypatch.setattr(antiramsey, "_threshold_cache", {})
    with pytest.raises(BudgetError) as exc:
        ramsey_m_star(n, k, budget)
    assert (exc.value.nodes_used, exc.value.best_lower_bound,
            exc.value.exhausted_at) == (nodes, best, died)


@pytest.mark.parametrize("n, m, k", [
    *((1, m, k) for m in range(2, 6) for k in (1, 2)),
    (1, 4, 3),
    (1, 6, 2),  # m*(1, 2) = 6: the one case here where k > 1 finds none
    *((2, m, 2) for m in range(3, 6)),
    (2, 5, 1),
])
def test_find_bad_coloring_matches_brute_force(n, m, k):
    # None exactly when no k-coloring of the (n+1)-subsets of {0..m-1} is bad
    edges = list(itertools.combinations(range(m), n + 1))
    some_bad = any(
        _brute_force_bad(dict(zip(edges, cols)), n, m, k)
        for cols in itertools.product(range(k), repeat=len(edges)))
    col = find_bad_coloring(n, m, k)
    assert (col is not None) == some_bad
    if col is not None:
        assert _brute_force_bad(col, n, m, k)


@pytest.mark.parametrize("call", [
    lambda: ramsey_m_star(1, 2, budget=-1),
    lambda: find_bad_coloring(1, 5, 2, budget=-5),
])
def test_negative_budget_is_a_parameter_error(call):
    with pytest.raises(ParameterError):
        call()


def test_threshold_cache_keeps_the_budget(monkeypatch):
    # a threshold found under a large budget is no answer for a small one
    monkeypatch.setattr(antiramsey, "_threshold_cache", {})
    assert ramsey_m_star(1, 2) == 6
    with pytest.raises(BudgetError):
        ramsey_m_star(1, 2, budget=20)
    assert ramsey_m_star(1, 2) == 6


def test_m_seq_values():
    assert m_seq(1, 0) == 1
    assert m_seq(1, 1) == 6
    assert m_seq(1, 2) == 12


# ---------------------------------------------------------------------------
# the product bound


def test_product_bound_singletons():
    ok, census = verify_product_bound(ID1, [OrdSet.of([4]), OrdSet.of([7])], 0)
    assert ok
    assert census == {TupleColor(0, 4)}


def test_product_bound_k1():
    sides = [OrdSet.of(range(6)), OrdSet.of(range(6))]
    ok, census = verify_product_bound(ID1, sides, 1)
    assert ok
    assert len(census) >= 2


def test_product_bound_k2_identity():
    arena = Arena(size=24, dim=1, mode="identity")
    sides = [OrdSet.of(range(12)), OrdSet.of(range(12, 24))]
    ok, census = verify_product_bound(arena, sides, 2)
    assert ok
    assert len(census) > 2


@settings(max_examples=40, deadline=None)
@given(st.sampled_from([(1, 0), (1, 1), (1, 2), (2, 0), (2, 1)]),
       st.booleans(), st.data())
def test_product_census_matches_unmemoized_colors(nk, seeded, data):
    # the census reads the memo inline; it must count what _c_full gives
    # each tuple, whether the memo starts empty or partly filled
    n, k = nk
    need = m_seq(n, k)
    size = data.draw(st.integers(max(need, 2), need + 6))
    arena = (Arena(size=size, dim=n, mode="seeded",
                   seed=data.draw(st.integers(0, 99)))
             if seeded else Arena(size=size, dim=n, mode="identity"))
    sides = [OrdSet.of(data.draw(st.lists(st.integers(0, size - 1),
                                          min_size=need, max_size=need,
                                          unique=True)))
             for _ in range(n + 1)]
    vecs = list(itertools.product(*(a.elems for a in sides)))
    for vec in data.draw(st.lists(st.sampled_from(vecs), max_size=20)):
        c_full(arena, vec)
    ok, census = verify_product_bound(arena, sides, k)
    assert census == {_c_full(arena, vec) for vec in vecs}
    assert ok == (len(census) > k)
    assert all(_c_full(arena, vec) == col
               for vec, col in arena._colors.items())
    # the memo now holds the whole product, and a second census reads only it
    assert verify_product_bound(arena, sides, k) == (ok, census)


def test_product_bound_size_guard():
    with pytest.raises(ValueError):
        verify_product_bound(ID1, [OrdSet.of([1]), OrdSet.of([2])], 1)


# ---------------------------------------------------------------------------
# the difference lemma


def test_difference_lemma_identity_small():
    report = check_difference_lemma(Arena(size=6, dim=1, mode="identity"))
    assert report.ok
    assert report.eligible_pairs > 0


def test_difference_pairs_share_max():
    # eligibility forces max(a) = max(b): the removed element is never max
    arena = Arena(size=6, dim=2, mode="seeded", seed=2)
    count = 0
    for a in itertools.combinations(range(6), 3):
        for b in itertools.combinations(range(6), 3):
            sa, sb = OrdSet.of(a), OrdSet.of(b)
            ra, rb = star(arena, sa), star(arena, sb)
            if ra == rb:
                continue
            if set(a) - {ra} != set(b) - {rb}:
                continue
            count += 1
            assert max(a) == max(b)
            assert cn(arena, sa) != cn(arena, sb)
    assert count > 0


def _difference_scan_ref(arena: Arena):
    # every pair of (n+1)-sets, grouped as the old scan grouped them
    n = arena.dim
    groups: dict = {}
    for comb in itertools.combinations(range(arena.size), n + 1):
        s = _distinguished_ref(arena, comb, n)
        groups.setdefault(tuple(x for x in comb if x != s), []).append(comb)
    pairs, violations = 0, []
    for members in groups.values():
        colored = [(a, _set_color_ref(arena, a, n)) for a in members]
        for (a, ca), (b, cb) in itertools.combinations(colored, 2):
            pairs += 1
            if ca == cb:
                violations.append((a, b, ca))
    return pairs, violations


@pytest.mark.parametrize("broken", [False, True])
@pytest.mark.parametrize("n, size, mode, seed", [
    (1, 9, "identity", None),
    (2, 8, "seeded", 2),
    (2, 9, "identity", None),
    (3, 8, "seeded", 7),
])
def test_difference_report_matches_reference_scan(monkeypatch, broken, n,
                                                  size, mode, seed):
    if broken:
        # a pair coloring that is not injective in alpha gives violations,
        # so that their order is compared too
        monkeypatch.setattr(antiramsey, "c1", lambda arena, a, b: (a + b) % 3)
    report = check_difference_lemma(Arena(size=size, dim=n, mode=mode,
                                          seed=seed))
    pairs, violations = _difference_scan_ref(
        Arena(size=size, dim=n, mode=mode, seed=seed))
    assert report.eligible_pairs == pairs > 0
    assert report.violations == violations
    assert bool(violations) == broken


# ---------------------------------------------------------------------------
# serialization


def test_arena_round_trip():
    arena = Arena(size=8, dim=2, mode="seeded", seed=21)
    again = Arena.from_json(arena.to_json())
    for triple in itertools.combinations(range(8), 3):
        assert cn(arena, OrdSet.of(triple)) == cn(again, OrdSet.of(triple))
