"""Fiber colorings, the recursion, finite Ramsey thresholds, product bounds."""

import hashlib
import itertools
from dataclasses import fields

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polygrid import antiramsey
from polygrid.antiramsey import (
    Arena,
    BudgetError,
    TupleColor,
    _descend,
    _search_bad,
    c_full,
    check_difference_lemma,
    m_seq,
    product_census,
    ramsey_m_star,
    recurrence_bound,
    threshold,
    verify_product_bound,
)
from polygrid.ordset import OrdSet, ParameterError
from reference import c1, cn, embed, find_bad_coloring, star

ID1 = Arena(size=10, dim=1, mode="identity")
ID2 = Arena(size=10, dim=2, mode="identity")


def _cn_oracle(arena: Arena, elems: tuple[int, ...]) -> int:
    # straight-line re-implementation of the recursion, no shared code paths
    xs = list(elems)
    while len(xs) > 2:
        beta = xs[-1]
        xs = sorted(embed(arena, beta, x) for x in xs[:-1])
    return c1(arena, xs[0], xs[1])


# the distinguished element and the set color as two separate recursions,
# the reference definition of _descend
def _set_color_ref(arena: Arena, elems: tuple[int, ...], level: int) -> int:
    if level == 1:
        return c1(arena, elems[0], elems[1])
    beta = elems[-1]
    image = tuple(sorted(embed(arena, beta, x) for x in elems[:-1]))
    return _set_color_ref(arena, image, level - 1)


def _distinguished_ref(arena: Arena, elems: tuple[int, ...], level: int) -> int:
    if level == 1:
        return elems[0]
    beta = elems[-1]
    pairs = sorted((embed(arena, beta, x), x) for x in elems[:-1])
    inner = _distinguished_ref(arena, tuple(v for v, _ in pairs), level - 1)
    return next(x for v, x in pairs if v == inner)


# ---------------------------------------------------------------------------
# fibers and the recursion


def test_c1_identity_values():
    assert c1(ID1, 2, 9) == 2
    assert c1(ID1, 0, 1) == 0


def test_c1_injective_per_fiber_seeded():
    arena = Arena(size=8, dim=1, mode="seeded", seed=11)
    for beta in range(1, 8):
        vals = [c1(arena, a, beta) for a in range(beta)]
        assert len(set(vals)) == beta


def test_cn_identity_values():
    assert cn(ID1, OrdSet.of([2, 9])) == 2
    assert cn(ID2, OrdSet.of([2, 5, 9])) == 2


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


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 3), st.data())
def test_c_full_identity_closed_form(n, data):
    # identity embeddings fix every set and the identity pair coloring is
    # the smaller element, so c_full of a tuple with no repeat is (index
    # of its minimum, its minimum), and of a tuple with a repeat (n+1, 0)
    size = data.draw(st.integers(n + 2, 12))
    vec = data.draw(st.tuples(*[st.integers(0, size - 1)] * (n + 1)))
    low = min(vec)
    closed = (TupleColor(vec.index(low), low) if len(set(vec)) == n + 1
              else TupleColor(n + 1, 0))
    assert c_full(Arena(size=size, dim=n, mode="identity"), vec) == closed


def test_c_full_slot_is_star_position():
    arena = Arena(size=8, dim=2, mode="seeded", seed=9)
    for vec in itertools.permutations(range(8), 3):
        col = c_full(arena, vec)
        assert col.slot < 3
        a = OrdSet.of(vec)
        assert vec[col.slot] == star(arena, a)


@pytest.mark.parametrize("n, size, seed, digest", [
    (1, 12, 1, "4b1b3593cfe8aebb"),
    (2, 9, 2, "2526837d2e646cb7"),
])
def test_seeded_arena_colors_pinned(n, size, seed, digest):
    # the difference lemma and the census tests hold on the identity
    # coloring too; this pins what a seeded arena's drawn embeddings and
    # pair colorings give every (n+1)-tuple (the identity arena of the
    # same size differs on 114 and 474 of them)
    arena = Arena(size=size, dim=n, mode="seeded", seed=seed)
    colors = [tuple(c_full(arena, vec))
              for vec in itertools.product(range(size), repeat=n + 1)]
    assert hashlib.sha256(repr(colors).encode()).hexdigest()[:16] == digest


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

    too_long = tuple(range(n + 2))
    # the head of a stored row with a last entry outside the arena
    outside = tuple(range(n)) + (arena.size,)
    negative = tuple(range(n)) + (-1,)
    # repeats collapse to one color, but only inside the arena
    above = (arena.size,) * (n + 1)
    below = (-1,) * (n + 1)

    def rejects_unstored(arena):
        # a bad tuple raises on every call, and no row gains an entry
        before = {head: dict(row) for head, row in arena._rows.items()}
        for bad in ((), too_long, too_long[:-2], outside, negative, above,
                    below):
            for _ in range(2):
                with pytest.raises(ValueError):
                    c_full(arena, bad)
        assert arena._rows == before

    # a twin with empty rows
    rejects_unstored(Arena(arena.size, n, arena.mode, arena.seed))
    for vec in vecs:
        assert c_full(arena, vec) == expected(vec)
    for vec in vecs:
        assert c_full(arena, list(vec)) == expected(vec)
    # a census fills the row that outside and negative reach
    product_census(arena, [(x,) for x in too_long[:-1]])
    assert arena._rows
    rejects_unstored(arena)  # filled rows


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


@pytest.mark.parametrize("budget", [0, 10_000, 25_000, 40_000, 60_000])
def test_threshold_1_3_is_exact_at_every_budget(monkeypatch, budget):
    # the census workload's (1, 3) ramsey jobs across their budget range, and
    # budget 0: the certificate's 17 meets the recurrence's, so no search runs
    monkeypatch.setattr(antiramsey, "_search_bad", None)
    assert ramsey_m_star(1, 3, budget) == 17
    assert threshold(1, 3, budget) == (17, "certificate", 17, "recurrence",
                                       antiramsey._gf16_coloring())


@pytest.mark.parametrize("n, k, budget, nodes, best, died", [
    (2, 2, 10_000, 10_001, 12, 13),
    (2, 2, 25_000, 25_001, 12, 13),
    (2, 2, 40_000, 40_001, 12, 13),
    (2, 2, 60_000, 60_001, 12, 13),
])
def test_threshold_budget_error_pinned(n, k, budget, nodes, best,
                                       died):
    # the census workload's (2, 2) ramsey jobs across their budget range:
    # the whole budget goes to the gap's first point, m = 13
    with pytest.raises(BudgetError) as exc:
        ramsey_m_star(n, k, budget)
    assert (exc.value.nodes_used, exc.value.best_lower_bound,
            exc.value.exhausted_at) == (nodes, best, died)
    rec = exc.value.record
    assert (rec.lower, rec.lower_source, rec.upper, rec.upper_source) == (
        13, "certificate", 21, "recurrence")
    assert _brute_force_bad(rec.bad, 2, 12, 2)


def test_recurrence_bound_values():
    assert [recurrence_bound(1, k) for k in range(1, 6)] == [3, 6, 17, 66, 327]
    assert recurrence_bound(2, 2) == 21
    assert recurrence_bound(2, 1) == 4
    # no upper side where neither recurrence applies
    assert recurrence_bound(2, 3) is None
    assert recurrence_bound(3, 2) is None


@pytest.mark.parametrize("n, k", [(1, 1), (1, 2), (2, 1)])
def test_recurrence_bound_meets_the_search(n, k):
    # exact by search alone: a bad coloring at m - 1 and none at m
    m = recurrence_bound(n, k)
    assert _search_bad(n, m - 1, k, 10**6)[0] is not None
    assert _search_bad(n, m, k, 10**6)[0] is None


def test_gap_search_raises_the_lower_side():
    # (1, 4): no certificate, so the search climbs from m = 3 and its best
    # coloring is the record's lower side, below the recurrence's 66
    with pytest.raises(BudgetError) as exc:
        ramsey_m_star(1, 4, 5_000)
    rec = exc.value.record
    assert (rec.lower_source, rec.upper, rec.upper_source) == (
        "search", 66, "recurrence")
    assert rec.lower == exc.value.exhausted_at == exc.value.best_lower_bound + 1
    assert _brute_force_bad(rec.bad, 1, rec.lower - 1, 4)


def test_a_certificate_that_fails_its_recheck_raises(monkeypatch):
    monkeypatch.setattr(antiramsey, "_R443_AT_12", 0)  # all one color
    with pytest.raises(RuntimeError, match="fails its re-check"):
        ramsey_m_star(2, 2, 100)


def _search_bad_reference(n, m, k, budget):
    # the closing-group search that _search_bad replaced: each (n+2)-subset
    # is filed under its last edge as the bit mask of its other edges, and
    # a color is tried against every group filed under the current edge
    edges = list(itertools.combinations(range(m), n + 1))
    index = {e: i for i, e in enumerate(edges)}
    closing = [[] for _ in edges]
    for big in itertools.combinations(range(m), n + 2):
        sub = sorted(index[e] for e in itertools.combinations(big, n + 1))
        closing[sub[-1]].append(sum(1 << i for i in sub[:-1]))
    masks = [0] * k
    last = len(edges)
    colors = [0] * last
    nodes = 0
    choices = [range(min(k, used + 1)) for used in range(k + 1)]
    if not edges:
        return {}, nodes
    tries = [None] * last
    used = [0] * last
    pos = u = 0
    colors_left = iter(choices[0])
    groups = closing[0]
    while True:
        for c in colors_left:
            nodes += 1
            if nodes > budget:
                raise BudgetError(
                    f"bad-coloring search exceeded {budget} nodes at m={m}",
                    nodes_used=nodes, best_lower_bound=None, exhausted_at=m)
            mask = masks[c]
            for group in groups:
                if mask & group == group:
                    break
            else:
                colors[pos] = c
                masks[c] = mask | 1 << pos
                tries[pos] = colors_left
                used[pos] = u
                pos += 1
                if pos == last:
                    return {e: colors[i] for i, e in enumerate(edges)}, nodes
                if c == u:
                    u += 1
                colors_left = iter(choices[u])
                groups = closing[pos]
                break
        else:
            if pos == 0:
                return None, nodes
            pos -= 1
            masks[colors[pos]] ^= 1 << pos
            colors_left = tries[pos]
            u = used[pos]
            groups = closing[pos]


def _outcome(search, n, m, k, budget):
    try:
        return search(n, m, k, budget)
    except BudgetError as exc:
        return ("budget", exc.nodes_used, exc.best_lower_bound,
                exc.exhausted_at, str(exc))


@pytest.mark.parametrize("n, m, k", [
    (n, m, k) for n in (1, 2, 3) for m in range(10 if n == 1 else 8)
    for k in range(5)])
def test_search_bad_matches_closing_group_search(n, m, k):
    # same coloring and node count, or the same budget verdict; the
    # reference's unlimited run is its run at every budget >= its node count
    full = _outcome(_search_bad_reference, n, m, k, 10**9)
    nodes = full[1]
    for budget in sorted({0, 1, 2, 37, nodes, nodes - 1} - {-1}):
        expected = (full if budget >= nodes else
                    _outcome(_search_bad_reference, n, m, k, budget))
        assert _outcome(_search_bad, n, m, k, budget) == expected, budget


def test_bad_coloring_at_threshold_is_not_searched_again():
    # the record holds the coloring that a fresh search finds at m* - 1
    for n, k in [(1, 1), (1, 2), (2, 1)]:
        rec = threshold(n, k, 5_000)
        assert rec.bad == _search_bad(n, rec.lower - 1, k, 5_000)[0]


def test_wide_palette_budget_error_pinned():
    # values taken once from the closing-group search this replaced, which
    # took 4.6 s to exhaust the budget on a 2-vCPU machine (0.3 s now)
    with pytest.raises(BudgetError) as exc:
        ramsey_m_star(1, 50)
    assert (exc.value.nodes_used, exc.value.best_lower_bound,
            exc.value.exhausted_at) == (2_000_001, 55, 56)


@pytest.mark.parametrize("n, m, k", [
    *((1, m, k) for m in range(2, 6) for k in (1, 2)),
    (1, 4, 3),
    (1, 6, 2),  # m*(1, 2) = 6: the one case here where k > 1 finds none
    *((2, m, 2) for m in range(3, 6)),
    (2, 5, 1),
    # fewer than n + 1 points: no edges, so the empty coloring is bad
    (1, 1, 2),
    (2, 2, 2),
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
    lambda: threshold(1, 5, budget=-5),
])
def test_negative_budget_is_a_parameter_error(call):
    with pytest.raises(ParameterError):
        call()


def test_each_threshold_call_keeps_its_budget():
    # a threshold found under a large budget is no answer for a small one
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
    # the census reads the rows inline; it must count what c_full gives
    # each tuple, whether the rows start empty or partly filled
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
        product_census(arena, [(x,) for x in vec])
    ok, census = verify_product_bound(arena, sides, k)
    assert census == {c_full(arena, vec) for vec in vecs}
    assert ok == (len(census) > k)
    _assert_rows_agree(arena)
    # the rows are the arena's one store of colors
    assert vars(arena).keys() - {f.name for f in fields(arena)} <= {
        "_tables", "_rows", "_palette"}
    # the rows now hold the whole product, and a second census reads only them
    assert verify_product_bound(arena, sides, k) == (ok, census)


def _inside(vec, size):
    return all(0 <= x < size for x in vec)


def _assert_rows_agree(arena):
    """Every stored color is what c_full gives its tuple, and every
    stored head and x lies inside the arena."""
    for head, row in arena._rows.items():
        assert len(head) == arena.dim
        assert _inside(head, arena.size) and _inside(row, arena.size)
        assert all(c_full(arena, head + (x,)) == col
                   for x, col in row.items())


@settings(max_examples=40, deadline=None)
@given(st.sampled_from([(1, 0), (1, 1), (1, 2), (2, 0), (2, 1)]),
       st.booleans(), st.data())
def test_row_census_matches_per_tuple_colors(nk, seeded, data):
    # censuses read per-head rows that the censuses before them on the
    # same arena filled in part; each must equal the census taken tuple
    # by tuple with c_full.  k = 0 gives sides of one element each.
    n, k = nk
    need = m_seq(n, k)
    size = data.draw(st.integers(max(need, 2), need + 6))
    arena = (Arena(size=size, dim=n, mode="seeded",
                   seed=data.draw(st.integers(0, 99)))
             if seeded else Arena(size=size, dim=n, mode="identity"))
    side = st.lists(st.integers(0, size - 1), min_size=need, max_size=need,
                    unique=True)

    def census_per_tuple(sides):
        return {c_full(arena, vec)
                for vec in itertools.product(*(a.elems for a in sides))}

    for _ in range(data.draw(st.integers(1, 4))):
        sides = [OrdSet.of(data.draw(side)) for _ in range(n + 1)]
        ok, census = verify_product_bound(arena, sides, k)
        assert census == census_per_tuple(sides)
        assert ok == (len(census) > k)


def test_product_bound_size_guard():
    with pytest.raises(ValueError):
        verify_product_bound(ID1, [OrdSet.of([1]), OrdSet.of([2])], 1)


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 2), st.booleans(), st.data())
def test_product_census_matches_per_tuple_colors(n, seeded, data):
    # the kernel takes sides of any length and checks nothing itself: over
    # rows that censuses of single tuples filled in part, it must give the
    # colors c_full gives each tuple of the product
    size = data.draw(st.integers(2, 12))
    arena = (Arena(size=size, dim=n, mode="seeded",
                   seed=data.draw(st.integers(0, 99)))
             if seeded else Arena(size=size, dim=n, mode="identity"))
    entry = st.integers(0, size - 1)
    side = st.lists(entry, min_size=1, max_size=size, unique=True).map(
        lambda xs: tuple(sorted(xs)))

    def census_per_tuple(sides):
        return {c_full(arena, vec) for vec in itertools.product(*sides)}

    for vec in data.draw(st.lists(st.tuples(*[entry] * (n + 1)),
                                  max_size=20)):
        product_census(arena, [(x,) for x in vec])
    for _ in range(data.draw(st.integers(1, 3))):
        sides = [data.draw(side) for _ in range(n + 1)]
        assert product_census(arena, sides) == census_per_tuple(sides)
        _assert_rows_agree(arena)
    # one entry of one side moved outside the arena: the census raises
    # ValueError, as c_full does, and the rows keep no tuple that
    # reaches outside
    bad = data.draw(st.integers(0, n))
    out = data.draw(st.sampled_from([-1, size, size + 5]))
    sides[bad] = tuple(sorted(sides[bad][1:] + (out,)))
    with pytest.raises(ValueError, match="outside arena"):
        product_census(arena, sides)
    _assert_rows_agree(arena)
    # and the rows still serve a census inside the arena
    sides = [data.draw(side) for _ in range(n + 1)]
    assert product_census(arena, sides) == census_per_tuple(sides)


def test_product_census_edges():
    # an empty side makes an empty product; a wrong arity raises as c_full
    assert product_census(ID1, [(), (1, 2)]) == set()
    assert product_census(ID1, [(1, 2), ()]) == set()
    with pytest.raises(ValueError, match="need a tuple of length 2"):
        product_census(ID1, [(1,), (2,), (3,)])
    with pytest.raises(ValueError, match="need a tuple of length 2"):
        product_census(ID1, [(1, 2)])


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
def test_difference_report_matches_reference_scan(broken, n, size, mode,
                                                  seed):
    if not broken:
        arena = Arena(size=size, dim=n, mode=mode, seed=seed)
    else:
        # a pair table that is not injective in alpha gives violations, so
        # that their order is compared too; a seeded arena carries it,
        # with identity embeddings for mode "identity" and drawn ones else
        arena = Arena(size=size, dim=n, mode="seeded", seed=seed or 0)
        embed_tab = (arena._tables[0] if mode == "seeded"
                     else [tuple(range(beta)) for beta in range(size)])
        arena.__dict__["_tables"] = (embed_tab, [
            tuple((a + beta) % 3 for a in range(beta))
            for beta in range(size)])
    report = check_difference_lemma(arena)
    pairs, violations = _difference_scan_ref(arena)
    assert report.eligible_pairs == pairs > 0
    assert report.violations == violations
    assert bool(violations) == broken


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 3), st.integers(0, 10 ** 6), st.data())
def test_difference_lemma_holds_on_seeded_arenas(n, seed, data):
    size = data.draw(st.integers(n + 2, 12))
    report = check_difference_lemma(Arena(size=size, dim=n, mode="seeded",
                                          seed=seed))
    assert report.ok and report.eligible_pairs > 0
