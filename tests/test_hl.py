"""Grid search, the subtree derivation, and the sideways construction."""

import functools
import itertools
from collections import Counter
from dataclasses import fields, replace
from random import Random
from typing import Callable, Optional, Sequence

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from polygrid import ParameterError, hl
from polygrid.antiramsey import Arena, c_full
from polygrid.hl import (
    NAMED_KINDS,
    TOP_KINDS,
    HLWitness,
    LevelColoring,
    _heads_from,
    _trim,
    check_surrogate_size,
    cone_grid,
    derive_strong_subtrees,
    s_member,
    search_grid,
    sideways_lift,
    surrogate_color,
    surrogate_fn,
    surrogate_product,
    verify_hl_witness,
)
from polygrid.ordset import OrdSet
from polygrid.trees import (
    GridWitness,
    TreeShape,
    Word,
    all_nodes,
    branches,
    is_strong_subtree,
    validate_grid_witness,
    words,
)
from reference import sideways_build


def level_table(pattern, k=2, depth=4):
    # d=1 coloring reading its color off the height
    table = {}
    for length in range(depth + 1):
        for w in words(k, length):
            table[(w,)] = pattern[length]
    return LevelColoring(k=k, d=1, depth=depth, r=2, kind="table", table=table)


# ---------------------------------------------------------------------------
# the surrogate


def test_surrogate_constant_any_cut():
    gamma = LevelColoring(k=2, d=2, depth=4, r=3, kind="constant", value=2)
    xs = ((0, 0, 0, 0), (1, 1, 1, 1))
    for L in range(1, 5):
        assert surrogate_color(gamma, xs, L) == 2


def test_surrogate_tie_breaks_low():
    gamma = level_table([0, 1, 0, 1, 0])
    x = ((0, 0, 0, 0),)
    assert surrogate_color(gamma, x, 4) == 0


def test_surrogate_majority():
    gamma = level_table([1, 1, 0, 1, 0])
    x = ((0, 0, 0, 0),)
    assert surrogate_color(gamma, x, 4) == 1


def test_surrogate_depth_guard():
    gamma = level_table([0, 1, 0, 1, 0])
    with pytest.raises(ValueError):
        surrogate_color(gamma, ((0, 0, 0, 0),), 5)


# ---------------------------------------------------------------------------
# the color memo


@st.composite
def level_colorings(draw):
    kind = draw(st.sampled_from(NAMED_KINDS + ("table",)))
    d = 1 if kind == "adversarial" else draw(st.integers(1, 3))
    k = draw(st.integers(2, 3))
    depth = draw(st.integers(1, 3))
    r = 2 if kind == "adversarial" else draw(st.integers(2, 3))
    seed = draw(st.integers(0, 2 ** 16))
    roots: tuple = ()
    table: dict = {}
    if kind == "planted-grid":
        roots = tuple(
            tuple(draw(st.lists(st.integers(0, k - 1), max_size=depth)))
            for _ in range(d))
    if kind == "table":
        # every level tuple to the depth, colored from the seed
        if k ** (depth * d) > 729:
            depth -= 1
        rng = Random(seed)
        for m in range(depth + 1):
            for combo in itertools.product(words(k, m), repeat=d):
                table[combo] = rng.randrange(r)
    return LevelColoring(k=k, d=d, depth=depth, r=r, kind=kind,
                         value=draw(st.integers(0, r - 1)), seed=seed,
                         roots=roots, table=table)


def level_words(gamma, m):
    word = st.tuples(*[st.integers(0, gamma.k - 1)] * m)
    return st.tuples(*[word] * gamma.d)


def bad_tuples(gamma):
    """One tuple per check the color path makes, each of which raises."""
    k, d, depth = gamma.k, gamma.d, gamma.depth
    out = [
        ((),) * (d + 1),  # wrong length
        ((0,) * (depth + 1),) * d,  # height above depth
        ((k,),) * d,  # a letter out of range
        ((-1,),) * d,
    ]
    if d > 1:
        out.append(((),) * (d - 1))  # wrong length
        out.append(((),) + ((0,),) * (d - 1))  # mixed heights
    return out


def _assert_raises_unstored(gamma, nodes):
    for _ in range(2):
        with pytest.raises(ValueError):
            gamma.color(nodes)
    assert nodes not in gamma._colors


@settings(max_examples=200, deadline=None)
@given(level_colorings(), st.booleans(), st.data())
def test_color_memo_matches_unmemoized_path(gamma, prefill, data):
    tuples = data.draw(st.lists(
        st.integers(0, gamma.depth).flatmap(lambda m: level_words(gamma, m)),
        min_size=1, max_size=20))
    if prefill:
        for ws in tuples[::2]:
            gamma.color(ws)
    fresh = LevelColoring.from_json(gamma.to_json())
    for nodes in bad_tuples(gamma):
        _assert_raises_unstored(fresh, nodes)  # on an empty memo
    for ws in tuples + tuples:
        assert gamma.color(ws) == fresh._color(ws)
    assert all(fresh._color(ws) == c
               for ws, c in gamma._colors.items())
    for nodes in bad_tuples(gamma):
        _assert_raises_unstored(gamma, nodes)  # on a filled memo
    if gamma.kind == "table":
        # a table miss, before and after the instance colors other tuples
        missing = next(iter(reversed(gamma.table)))
        partial = LevelColoring.from_json(gamma.to_json())
        del partial.table[missing]
        _assert_raises_unstored(partial, missing)
        for ws in tuples:
            if ws != missing:
                partial.color(ws)
        _assert_raises_unstored(partial, missing)
    # the surrogate reads the memo through color; it must take the
    # majority of what the unmemoized path gives, ties to the least color
    xs = data.draw(level_words(gamma, gamma.depth))
    L = data.draw(st.integers(1, gamma.depth))
    counts = Counter(fresh._color(tuple(x[:m] for x in xs))
                     for m in range(L))
    best = max(counts.values())
    assert surrogate_color(gamma, xs, L) == min(
        j for j, n in counts.items() if n == best)
    # the tuple memo is the instance's one store
    assert vars(gamma).keys() - {f.name for f in fields(gamma)} == {"_colors"}


@settings(max_examples=150, deadline=None)
@given(level_colorings(), st.booleans(), st.data())
def test_surrogate_colors_each_truncation_once(gamma, half, data):
    # from a fresh memo or one holding every other truncation of xs, the
    # surrogate calls color once per truncation, in level order
    xs = data.draw(level_words(gamma, gamma.depth))
    L = data.draw(st.integers(1, gamma.depth))
    truncations = [tuple(x[:m] for x in xs) for m in range(L)]
    if half:
        for key in truncations[::2]:
            gamma.color(key)
    calls = []

    def recording(words):
        calls.append(words)
        return LevelColoring.color(gamma, words)

    gamma.color = recording  # shadows the method on this instance only
    got = surrogate_color(gamma, xs, L)
    assert calls == truncations
    counts = Counter(map(gamma._color, truncations))
    best = max(counts.values())
    assert got == min(j for j, n in counts.items() if n == best)
    del gamma.color
    # a bad tuple raises as color does; nothing that raised is stored
    k, d, depth = gamma.k, gamma.d, gamma.depth
    for bad in (((0,) * depth,) * (d + 1), ((0,) * depth,) * (d - 1)):
        before = dict(gamma._colors)
        with pytest.raises(ValueError):
            surrogate_color(gamma, bad, L)
        assert gamma._colors == before
    for letter in (k, -1):
        bad = ((letter,) * depth,) * d
        before = dict(gamma._colors)
        if L > 1:
            with pytest.raises(ValueError):
                surrogate_color(gamma, bad, L)
        # only the empty truncation, which colors, may have been added
        assert gamma._colors.keys() - before.keys() <= {((),) * d}


@st.composite
def _branch_sets(draw, gamma):
    """Unsorted lists of branches, one per coordinate, of length L - 1 to
    L + 1 for L = gamma.depth; on the small alphabets drawn here they
    share prefixes, and may repeat."""
    L = gamma.depth
    branch = st.integers(max(0, L - 1), L + 1).flatmap(
        lambda n: st.tuples(*[st.integers(0, gamma.k - 1)] * n))
    return [draw(st.lists(branch, min_size=1, max_size=4))
            for _ in range(gamma.d)]


def _per_tuple_error(gamma, sets):
    """The message of the error the per-tuple vote raises on the
    product, on an instance with an empty memo."""
    fresh = LevelColoring.from_json(gamma.to_json())
    with pytest.raises(ValueError) as err:
        for xs in itertools.product(*sets):
            surrogate_color(fresh, xs, fresh.depth)
    return str(err.value)


@settings(max_examples=200, deadline=None)
@given(level_colorings(), st.booleans(), st.data())
def test_surrogate_product_is_the_per_tuple_vote(gamma, prefill, data):
    L = gamma.depth
    sets = data.draw(_branch_sets(gamma))
    product = list(itertools.product(*sets))
    truncations = {tuple(x[:m] for x in xs) for xs in product
                   for m in range(L)}
    if prefill:
        for key in sorted(truncations)[::2]:
            gamma.color(key)
    missing = truncations - gamma._colors.keys()
    calls = []

    def recording(m, keys):
        calls.append((m, list(keys)))
        return LevelColoring._level_colors(gamma, m, keys)

    gamma._level_colors = recording  # shadows the method on this instance
    got = surrogate_product(gamma, sets)
    del gamma._level_colors
    # the truncations the memo lacked, each colored once, in one kernel
    # call per level, levels ascending
    colored = [key for _, keys in calls for key in keys]
    assert sorted(colored) == sorted(missing)
    assert all(len(w[0]) == m for m, keys in calls for w in keys)
    heights = [m for m, _ in calls]
    assert heights == sorted(set(heights))
    fresh = LevelColoring.from_json(gamma.to_json())
    assert got == [surrogate_color(fresh, xs, L) for xs in product]
    # a short branch, a letter out of range where a truncation reads it,
    # or a wrong number of sets: the per-tuple vote's error, and nothing
    # colored or stored
    k, d = gamma.k, gamma.d
    bad = [sets + [sets[0]], sets[:-1]]
    if L > 1:
        bad.append([[(0,) * (L - 2)] + s for s in sets])
        bad.append([s + [(k,) * L] for s in sets])
        bad.append([[(0,) * (L - 2) + (-1,)]] + sets[1:])
    for bad_sets in bad:
        expected = _per_tuple_error(gamma, bad_sets)
        before = dict(gamma._colors)
        with pytest.raises(ValueError) as err:
            surrogate_product(gamma, bad_sets)
        assert str(err.value) == expected
        assert gamma._colors == before
    # a letter past the truncations is never read
    if d == 1:
        long = [[(0,) * (L - 1) + (k,)]]
        assert surrogate_product(gamma, long) == [
            surrogate_color(gamma, long[0], L)]
    assert surrogate_product(gamma, [[]] * d) == []


@st.composite
def every_kind(draw):
    """A coloring of any kind, TOP_KINDS included, and a table key that
    each fresh instance loses after construction (None if it loses none)."""
    kind = draw(st.sampled_from(TOP_KINDS + ("other",)))
    if kind == "other":
        gamma = draw(level_colorings())
    else:
        gamma = LevelColoring(k=draw(st.integers(2, 3)),
                              d=draw(st.integers(1, 2)),
                              depth=draw(st.integers(1, 3)),
                              r=draw(st.integers(1, 3)), kind=kind,
                              seed=draw(st.integers(0, 2 ** 16)))
    missing = None
    if gamma.kind == "table" and draw(st.booleans()):
        missing = draw(st.sampled_from(sorted(gamma.table)))
    return gamma, missing


def _outcome(fn, *args):
    """fn(*args), or the message of the ValueError it raises."""
    try:
        return fn(*args)
    except ValueError as err:
        return f"ValueError: {err}"


@settings(max_examples=300, deadline=None)
@given(every_kind(), st.data())
def test_level_kernel_matches_color(case, data):
    gamma, missing = case

    def fresh():
        out = LevelColoring.from_json(gamma.to_json())
        if missing is not None:
            del out.table[missing]
        return out

    # one level's tuples, through color and through the kernel; the
    # kernel raises what color raises first and stores nothing
    m = (len(missing[0]) if missing is not None
         else data.draw(st.integers(0, gamma.depth)))
    keys = data.draw(st.lists(level_words(gamma, m), min_size=1, max_size=6))
    if missing is not None:
        keys.insert(data.draw(st.integers(0, len(keys))), missing)
    ref = fresh()
    want = _outcome(lambda: [ref.color(w) for w in keys])
    kernel = fresh()
    before = dict(kernel._colors)
    assert _outcome(kernel._level_colors, m, keys) == want
    assert kernel._colors == before
    # the kernel behind surrogate_product: the per-tuple vote or its
    # error, and nothing stored from the level that raised or above it
    L = gamma.depth
    sets = data.draw(_branch_sets(gamma))
    if missing is not None and len(missing[0]) < L:
        sets = [s + [w + (0,) * (L - 1 - len(w))]
                for s, w in zip(sets, missing)]
    product = list(itertools.product(*sets))
    ref = fresh()
    want = _outcome(lambda: [surrogate_color(ref, xs, L) for xs in product])
    g = fresh()
    before = dict(g._colors)
    assert _outcome(surrogate_product, g, sets) == want
    if isinstance(want, str):
        raising = min(h for h in range(L) for xs in product
                      if isinstance(_outcome(ref.color,
                                             tuple(x[:h] for x in xs)), str))
        added = g._colors.keys() - before.keys()
        assert all(len(w[0]) < raising for w in added)
    # surrogate_fn cuts each branch once; it must equal surrogate_color
    # without a table, tuple by tuple, errors and short branches included
    if L > 1:
        product.append(((0,) * (L - 2),) + product[0][1:])
    fn, ref = surrogate_fn(fresh()), fresh()
    for xs in product + product:
        assert _outcome(fn, xs) == _outcome(surrogate_color, ref, xs, L)


# ---------------------------------------------------------------------------
# grid search


def per_tuple(fn):
    """The cone colorer search_grid takes, from a coloring of branch
    tuples: fn on every tuple of the cones' product, in product order."""
    return lambda cones: [fn(xs) for xs in itertools.product(*cones)]


def test_search_constant_full_sets():
    shapes = [TreeShape(2, 2), TreeShape(2, 2)]
    w = search_grid(per_tuple(lambda xs: 0), shapes, density_depth=2, cap=4)
    assert w is not None
    assert w.roots == ((), ())
    assert all(len(Y) == 4 for Y in w.branch_sets)
    assert w.color == 0


def test_search_first_letter():
    shapes = [TreeShape(2, 2)]
    w = search_grid(per_tuple(lambda xs: xs[0][0]), shapes, density_depth=2,
                    cap=4)
    assert w is not None
    assert w.roots[0] == (0,)
    assert sorted(w.branch_sets[0]) == [(0, 0), (0, 1)]
    assert w.color == 0


def test_search_defeated_by_product_bound():
    arena = Arena(size=24, dim=1, mode="identity")
    shapes = [TreeShape(12, 1), TreeShape(12, 1)]
    enums = [
        {y: i for i, y in enumerate(branches(shapes[0]))},
        {y: 12 + i for i, y in enumerate(branches(shapes[1]))},
    ]

    def coded(xs):
        # c_full pulled back along the injective branch enumerations
        col = c_full(arena, tuple(enums[i][y] for i, y in enumerate(xs)))
        return col.slot * 10_000 + col.value

    # the only depth-1 dense grid is the full 12x12 product, and the
    # product bound forces more than two colors on it
    product = itertools.product(*(branches(s) for s in shapes))
    assert len({coded(xs) for xs in product}) > 2
    assert search_grid(per_tuple(coded), shapes, density_depth=1,
                       cap=12) is None


@pytest.mark.parametrize("ks", [(3, 2), (2, 3)], ids=["k3-k2", "k2-k3"])
def test_search_refuses_shapes_of_different_k(ks):
    # a k=3 witness over a k=2 tree would be neither dense nor valid
    shapes = [TreeShape(k, 2) for k in ks]
    with pytest.raises(ValueError, match="share their k and depth"):
        search_grid(per_tuple(lambda xs: 0), shapes, 2, 4)


@pytest.mark.parametrize("cap", [0, -3])
def test_search_refuses_a_cap_below_one(cap):
    # no root fits such a cap; an empty search would read as "no grid"
    with pytest.raises(ParameterError, match="cap >= 1"):
        search_grid(per_tuple(lambda xs: 0), [TreeShape(2, 2)], 1, cap)


def test_search_drops_more_branches_than_the_recursion_limit():
    # color 0 on the even-parity branches: the search drops the 1,024
    # others one by one, one state deeper each time
    def parity(xs):
        return sum(xs[0]) % 2

    w = search_grid(per_tuple(parity), [TreeShape(2, 11)], density_depth=1,
                    cap=8)
    assert w is not None and w.color == 0
    assert validate_grid_witness(w, parity)[0]


# The product-scan search that the bit-mask kernel replaced, kept as its
# reference: tuples of words as states, a color call per tuple scanned.


def _dense_feasible(pool: Sequence[Word], t: Word, D: int, cap: int, k: int) -> bool:
    need = k ** (D - len(t))
    if need > cap:
        return False
    prefixes = {y[:D] for y in pool if y[: len(t)] == t}
    return len(prefixes) >= need


def _trim_to_cap(pool: Sequence[Word], t: Word, D: int, cap: int) -> Optional[list[Word]]:
    """Drop lex-largest branches whose depth-D prefix stays covered.

    The pool's branches are distinct.  One reverse pass with running
    prefix counts: once a branch is dropped, every branch after it is the
    last of its prefix, and counts only fall, so the drops come in
    reverse order and none is revisited."""
    excess = len(pool) - cap
    if excess <= 0:
        return list(pool)
    counts = Counter(y[:D] for y in pool)
    dropped: set[int] = set()
    for i in range(len(pool) - 1, -1, -1):
        prefix = pool[i][:D]
        if counts[prefix] > 1:
            counts[prefix] -= 1
            dropped.add(i)
            if len(dropped) == excess:
                return [y for i, y in enumerate(pool) if i not in dropped]
    return None


def _mono_family(
    gamma_branch: Callable[[tuple[Word, ...]], int],
    pools: tuple[tuple[Word, ...], ...],
    j: int,
    ts: Sequence[Word],
    D: int,
    cap: int,
    k: int,
) -> Optional[list[list[Word]]]:
    """Largest-first backtracking for an all-j family of dense branch sets.

    Any monochromatic family is contained in some leaf of the recursion
    (a bad tuple forces one of its entries out), so failure here is a
    proof of absence, not a search artifact.
    """
    seen: set[tuple[tuple[Word, ...], ...]] = set()

    def bad_tuple(state: tuple[tuple[Word, ...], ...]):
        for combo in itertools.product(*state):
            if gamma_branch(combo) != j:
                return combo
        return None

    def solve(state: tuple[tuple[Word, ...], ...]):
        if state in seen:
            return None
        seen.add(state)
        offender = bad_tuple(state)
        if offender is None:
            out = []
            for pool, t in zip(state, ts):
                trimmed = _trim_to_cap(pool, t, D, cap)
                if trimmed is None:
                    return None
                out.append(trimmed)
            return out
        for i in range(len(state)):
            shrunk = tuple(y for y in state[i] if y != offender[i])
            if not _dense_feasible(shrunk, ts[i], D, cap, k):
                continue
            nxt = state[:i] + (shrunk,) + state[i + 1:]
            got = solve(nxt)
            if got is not None:
                return got
        return None

    return solve(pools)


def _search_grid_reference(
    gamma_branch: Callable[[tuple[Word, ...]], int],
    shapes: Sequence[TreeShape],
    density_depth: int,
    cap: int,
) -> Optional[GridWitness]:
    """Backtracking search for a monochromatic somewhere-dense grid.

    Root tuples enumerate in shortlex product order, proper roots only
    (height below the density depth, so no vacuous one-branch cones);
    colors ascend; within those the largest monochromatic family wins, so
    a constant coloring yields the full branch sets.  Failure is None.
    """
    d = len(shapes)
    depth = shapes[0].depth
    if any(s.depth != depth for s in shapes):
        raise ValueError("trees must share a depth")
    if not 1 <= density_depth <= depth:
        raise ParameterError(f"need 1 <= density depth <= {depth}")
    pools = [branches(s) for s in shapes]  # in node_key order: lexicographic

    cache: dict[tuple[Word, ...], int] = {}

    def gb(combo: tuple[Word, ...]) -> int:
        got = cache.get(combo)
        if got is None:
            got = gamma_branch(combo)
            cache[combo] = got
        return got

    root_lists = [
        [t for t in all_nodes(s, density_depth - 1)
         if _dense_feasible(pools[i], t, density_depth, cap, s.k)]
        for i, s in enumerate(shapes)
    ]
    for ts in itertools.product(*root_lists):
        through = tuple(
            tuple(y for y in pools[i] if y[: len(ts[i])] == ts[i])
            for i in range(d)
        )
        colors = sorted({gb(c) for c in itertools.product(*through)})
        for j in colors:
            fam = _mono_family(
                gb, through, j, ts, density_depth, cap, shapes[0].k
            )
            if fam is not None:
                return GridWitness(
                    k=shapes[0].k,
                    depth=depth,
                    roots=tuple(ts),
                    branch_sets=tuple(tuple(y) for y in fam),
                    density_depth=density_depth,
                    color=j,
                )
    return None


@st.composite
def _table_searches(draw):
    """A drawn table coloring, read off branch tuples directly or through
    the surrogate of a level table, with a density depth and a cap: the
    cone colorer under test and the per-tuple coloring it must agree
    with.  A level table's kernel and per-tuple vote read two instances,
    so neither sees colors the other memoized."""
    d = draw(st.integers(1, 3))
    k = draw(st.integers(2, 3))
    depth = draw(st.integers(1, 4))
    while k ** (d * depth) > 81:
        depth -= 1
    r = draw(st.integers(1, 3))
    rng = Random(draw(st.integers(0, 2 ** 16)))
    # a bias toward color 0 leaves large monochromatic families to find
    bias = draw(st.sampled_from((0.0, 0.5, 0.9)))

    def draw_color():
        return 0 if rng.random() < bias else rng.randrange(r)

    shapes = [TreeShape(k, depth)] * d
    if draw(st.booleans()):
        table = {xs: draw_color() for xs in
                 itertools.product(*(branches(s) for s in shapes))}
        fn = table.__getitem__
        colorer = per_tuple(fn)
    else:
        levels = {xs: draw_color() for m in range(depth + 1)
                  for xs in itertools.product(words(k, m), repeat=d)}

        def level_table():
            return LevelColoring(k=k, d=d, depth=depth, r=r, kind="table",
                                 table=levels)
        fn = surrogate_fn(level_table())
        colorer = functools.partial(surrogate_product, level_table())
    D = draw(st.integers(1, depth))
    return colorer, fn, shapes, D, draw(st.integers(1, 12))


@settings(max_examples=300, deadline=None)
@given(_table_searches())
def test_search_matches_the_product_scan(case):
    colorer, fn, shapes, D, cap = case
    assert search_grid(colorer, shapes, D, cap) == _search_grid_reference(
        fn, shapes, D, cap)


def _dense_subsets(cone, t, D, k):
    # every subset of the cone that meets each depth-D extension of t
    need = k ** (D - len(t))
    for n in range(need, len(cone) + 1):
        for Y in itertools.combinations(cone, n):
            if len({y[:D] for y in Y}) == need:
                yield Y


def _mono_family_exists(fn, shapes, D, cap):
    """Brute force: some admissible root tuple, color and dense subsets
    of the cones on whose product fn is constant."""
    k, depth = shapes[0].k, shapes[0].depth
    roots = [t for m in range(D) if k ** (D - m) <= cap for t in words(k, m)]
    for ts in itertools.product(roots, repeat=len(shapes)):
        cones = [[t + w for w in words(k, depth - len(t))] for t in ts]
        families = [list(_dense_subsets(c, t, D, k)) for c, t in zip(cones, ts)]
        for Ys in itertools.product(*families):
            if len({fn(xs) for xs in itertools.product(*Ys)}) == 1:
                return True
    return False


@st.composite
def _tiny_searches(draw):
    d = draw(st.integers(1, 2))
    depth = draw(st.integers(1, 3 if d == 1 else 2))
    shapes = [TreeShape(2, depth)] * d
    r = draw(st.integers(1, 3))
    table = {xs: draw(st.integers(0, r - 1)) for xs in
             itertools.product(*(branches(s) for s in shapes))}
    D = draw(st.integers(1, depth))
    return table.__getitem__, shapes, D, draw(st.integers(1, 8))


@settings(max_examples=300, deadline=None)
@given(_tiny_searches())
def test_search_failure_proves_absence(case):
    fn, shapes, D, cap = case
    w = search_grid(per_tuple(fn), shapes, D, cap)
    assert (w is not None) == _mono_family_exists(fn, shapes, D, cap)
    if w is not None:
        assert validate_grid_witness(w, fn)[0]
        assert all(len(Y) <= cap for Y in w.branch_sets)


def _trim_reference(pool, D, cap):
    """The quadratic loop that the linear trim replaced: recount the
    prefixes, drop the last branch whose prefix another branch covers,
    repeat until the cap is met."""
    kept = list(pool)
    while len(kept) > cap:
        counts = Counter(y[:D] for y in kept)
        victim = next((y for y in reversed(kept) if counts[y[:D]] > 1), None)
        if victim is None:
            return None
        kept.remove(victim)
    return kept


@st.composite
def _trim_cases(draw):
    """What the search trims: a lexicographic set dense above a root of
    height below D, through a cone of at most cap depth-D prefixes."""
    k = draw(st.integers(2, 3))
    depth = draw(st.integers(1, 4))
    D = draw(st.integers(1, depth))
    t = tuple(draw(st.lists(st.integers(0, k - 1), max_size=D - 1)))
    cone = [t + w for w in words(k, depth - len(t))]
    block = k ** (depth - D)
    # one branch of each prefix class, and any others
    keep = {draw(st.integers(c, c + block - 1))
            for c in range(0, len(cone), block)}
    keep |= {p for p in range(len(cone)) if draw(st.booleans())}
    cap = draw(st.integers(len(cone) // block, len(keep) + 1))
    return cone, sorted(keep), block, D, cap


@settings(max_examples=200, deadline=None)
@given(_trim_cases())
def test_trim_to_cap_matches_the_quadratic_loop(case):
    cone, bits, block, D, cap = case
    assert [cone[p] for p in _trim(bits, block, cap)] == _trim_reference(
        [cone[p] for p in bits], D, cap)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.lists(st.integers(0, 5), min_size=1, unique=True),
                max_size=3), st.data())
def test_heads_from_is_the_product_from_start(lists, data):
    # the grid walk resumes a child's head scan at its parent's offending
    # head, which the child's own bit lists may lack
    lists = [sorted(row) for row in lists]
    start = data.draw(st.tuples(*[st.integers(0, 6)] * len(lists)))
    assert list(_heads_from(lists, start)) == [
        h for h in itertools.product(*lists) if h >= start]


def test_walk_pops_a_state_reached_two_ways_once(monkeypatch):
    # two cones of two branches, each one prefix class (block 2), every
    # tuple colored 1, so no all-0 family: dropping branch 0 of the first
    # cone and then of the second, or the other way round, reaches the one
    # state that holds branch 1 of each.  The walk pops the full state, the
    # two one-drop states and their common child once: 4 pops, one per
    # state, where pushing a child already seen pops that child twice
    popped = []
    heads_from = hl._heads_from

    def counting(lists, start):
        popped.append(start)
        return heads_from(lists, start)

    monkeypatch.setattr(hl, "_heads_from", counting)
    rows = {(0,): [1, 1], (1,): [1, 1]}
    assert hl._mono_family(rows, 0, (0b11, 0b11), 2) is None
    assert len(popped) == 4


@pytest.mark.parametrize("depth, spreads, ok", [
    # level keys plus prefix letters: sum over m < depth of
    # 2^(sum of min(m, s)) + sum of m * 2^min(m, s)
    (13, [13], True),  # 98,305 built entries
    (16, [16], True),  # 983,041
    (17, [17], False),  # 2,097,153
    (510, [3], True),  # 1,042,409
    (512, [3], False),  # 1,050,593
    (20000, [3], False),  # 1,600,079,969
    (10, [10, 10], True),  # 2^20 branch tuples: at the cap; 365,913
    (7, [7, 7, 7], False),  # 2^21 branch tuples
    (8, [0, 0, 0], True),  # roots at the density depth: one tuple; 92
    (12, [5, 5, 5], True),  # 2^15 tuples; 239,727
    (11, [10, 10], False),  # 2^20 tuples, 1,434,969 built entries
])
def test_surrogate_size_guard(depth, spreads, ok):
    gamma = LevelColoring(k=2, d=len(spreads), depth=depth, r=2,
                          kind="constant")
    if ok:
        check_surrogate_size(gamma, spreads)
    else:
        with pytest.raises(ParameterError, match="cap"):
            check_surrogate_size(gamma, spreads)


@pytest.mark.parametrize("kind", TOP_KINDS)
def test_top_kinds_color_only_their_depth(kind):
    # the forcing oracles' kinds: a tuple below the depth raises on every
    # call, since the memo never stores it, and no surrogate reads them
    gamma = LevelColoring(k=2, d=2, depth=2, r=3, kind=kind, seed=4)
    for m in (0, 1):
        for combo in itertools.product(words(2, m), repeat=2):
            for _ in range(2):
                with pytest.raises(ValueError, match="must reach depth 2"):
                    gamma.color(combo)
    with pytest.raises(ValueError, match="expected 2 words"):
        gamma.color(((0, 1),))
    for combo in itertools.product(words(2, 2), repeat=2):
        assert gamma.color(combo) in range(3)
        if kind == "first-letter":
            assert gamma.color(combo) == combo[0][0] % 3
    with pytest.raises(ParameterError, match="no surrogate"):
        check_surrogate_size(gamma, [2, 2])


# ---------------------------------------------------------------------------
# cone grids and the derivation


def test_cone_grid_constant():
    gamma = LevelColoring(k=2, d=2, depth=4, r=2, kind="constant", value=1)
    w = cone_grid(gamma, [(), ()], 2)
    assert w is not None
    assert w.color == 1
    assert all(len(Y) == 4 for Y in w.branch_sets)


def test_cone_grid_rejects_mixed_cone():
    gamma = LevelColoring(k=2, d=1, depth=8, r=2, kind="adversarial")
    assert cone_grid(gamma, [()], 2) is None


def test_derive_constant_full():
    gamma = LevelColoring(k=2, d=2, depth=4, r=2, kind="constant", value=0)
    w = cone_grid(gamma, [(), ()], 2)
    res = derive_strong_subtrees(gamma, w, 2)
    assert res.full
    assert res.height == 2
    assert res.witness.levels == OrdSet.of([0, 1])
    assert verify_hl_witness(gamma, res.witness)


def test_derive_level_parity_uses_even_levels():
    gamma = LevelColoring(k=2, d=1, depth=4, r=2, kind="level-parity", value=0)
    w = cone_grid(gamma, [()], 2)
    assert w is not None and w.color == 0
    res = derive_strong_subtrees(gamma, w, 2)
    assert res.full
    assert res.witness.levels == OrdSet.of([0, 2])
    assert verify_hl_witness(gamma, res.witness)


def test_derive_planted_grid():
    gamma = LevelColoring(
        k=2, d=2, depth=6, r=2, kind="planted-grid", value=1,
        seed=5, roots=((0,), (1,)),
    )
    w = cone_grid(gamma, [(0,), (1,)], 2)
    assert w is not None and w.color == 1
    res = derive_strong_subtrees(gamma, w, 2)
    assert res.full
    assert verify_hl_witness(gamma, res.witness)


def test_derive_adversarial_goes_partial():
    gamma = LevelColoring(k=2, d=1, depth=8, r=2, kind="adversarial")
    w = cone_grid(gamma, [()], 1)
    assert w is not None and w.color == 0
    res = derive_strong_subtrees(gamma, w, 2)
    assert not res.full
    assert res.height == 1
    assert res.failed_stage == 1
    assert res.reason
    assert res.witness is not None  # the partial part is still a witness
    assert verify_hl_witness(gamma, res.witness)


def test_derive_without_a_branch_through_the_root():
    gamma = LevelColoring(k=2, d=1, depth=4, r=2, kind="constant", value=0)
    w = GridWitness(k=2, depth=3, roots=((1,),),
                    branch_sets=(((0, 0, 0), (0, 1, 1)),), density_depth=1,
                    color=0)
    res = derive_strong_subtrees(gamma, w, 2)
    assert (res.full, res.failed_stage, res.witness, res.reason) == (
        False, 0, None, "no branch through the coordinate-0 root")


# ---------------------------------------------------------------------------
# witness verification


def test_verify_flags_sibling_swap():
    # word-sensitive coloring: first letter decides at heights >= 1
    table = {}
    for length in range(3):
        for w in words(2, length):
            table[(w,)] = w[0] if w else 0
    gamma = LevelColoring(k=2, d=1, depth=2, r=2, kind="table", table=table)

    good = HLWitness(2, 2, OrdSet.of([1]), ((frozenset({(0,)}),),), color=0)
    assert verify_hl_witness(gamma, good)
    swapped = HLWitness(2, 2, OrdSet.of([1]), ((frozenset({(1,)}),),),
                        color=0)
    assert not verify_hl_witness(gamma, swapped)


def test_verify_height_one():
    gamma = LevelColoring(k=2, d=2, depth=3, r=2, kind="constant", value=0)
    sub0, sub1 = (frozenset({(1,)}),), (frozenset({(0,)}),)
    w = HLWitness(2, 3, OrdSet.of([1]), (sub0, sub1), 0)
    assert verify_hl_witness(gamma, w)
    wrong = HLWitness(2, 3, OrdSet.of([1]), (sub0, sub1), 1)
    assert not verify_hl_witness(gamma, wrong)


def test_hl_witness_needs_one_node_set_per_level():
    # the constructor rejects a witness with no level and a coordinate
    # with one node set too many or too few
    levels = OrdSet.of([1, 3])
    sets = (frozenset({(0,)}), frozenset({(0, 0, 0), (0, 1, 0)}))
    HLWitness(2, 4, levels, (sets, sets), 0)
    with pytest.raises(ValueError, match="^witness needs at least one level$"):
        HLWitness(2, 4, OrdSet.of([]), ((), ()), 0)
    for wrong in (sets[:1], sets + sets[1:]):
        with pytest.raises(ValueError,
                           match="^one node set per level required$"):
            HLWitness(2, 4, levels, (sets, wrong), 0)


@pytest.mark.parametrize("check, fake, message", [
    ("validate_grid_witness", lambda w, gamma: (False, {}),
     "the cone grid fails its re-check"),
    ("verify_hl_witness", lambda gamma, w: False,
     "the derived HL witness fails its re-check"),
])
def test_failed_recheck_raises(monkeypatch, check, fake, message):
    # the cone grid and the derivation each raise when their re-check,
    # made to fail, says no, rather than hand back what they built
    gamma = LevelColoring(k=2, d=2, depth=4, r=2, kind="constant", value=0)
    assert derive_strong_subtrees(gamma, cone_grid(gamma, [(), ()], 2),
                                  2).full
    monkeypatch.setattr(hl, check, fake)
    with pytest.raises(RuntimeError, match=f"^{message}$"):
        derive_strong_subtrees(gamma, cone_grid(gamma, [(), ()], 2), 2)


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 2), st.integers(2, 3), st.integers(1, 3),
       st.integers(0, 2 ** 16), st.data())
def test_validate_grid_witness_rejects_one_corruption(d, depth, r, seed,
                                                      data):
    # a found grid passes; recoloring one of its tuples fails the color
    # comparison alone, and emptying one prefix class through a root fails
    # that coordinate's density alone
    gamma = LevelColoring(k=2, d=d, depth=depth, r=r, kind="seeded",
                          seed=seed)
    density = data.draw(st.integers(1, depth))
    w = search_grid(functools.partial(surrogate_product, gamma),
                    [TreeShape(2, depth)] * d, density, cap=8)
    assume(w is not None)
    color = surrogate_fn(gamma)
    ok, report = validate_grid_witness(w, color)
    assert ok and report["color_failures"] == 0

    bad = data.draw(st.sampled_from(list(itertools.product(*w.branch_sets))))
    ok, report = validate_grid_witness(
        w, lambda xs: w.color + 1 if xs == bad else color(xs))
    assert not ok
    assert report["color_failures"] == 1 and all(report["density"])

    i = data.draw(st.integers(0, d - 1))
    root, ys = w.roots[i], w.branch_sets[i]
    cls = data.draw(st.sampled_from(sorted(
        {y[:density] for y in ys if y[:len(root)] == root})))
    kept = tuple(y for y in ys if y[:density] != cls)
    thinned = replace(w, branch_sets=(*w.branch_sets[:i], kept,
                                      *w.branch_sets[i + 1:]))
    ok, report = validate_grid_witness(thinned, color)
    assert not ok
    assert report["density"] == [j != i for j in range(d)]
    assert report["color_failures"] == 0


@settings(max_examples=40, deadline=None)
@given(level_colorings(), st.integers(1, 3), st.data())
def test_verify_hl_witness_rejects_one_corruption(gamma, h, data):
    # a derived witness passes; each corruption fails one check, and a copy
    # of verify_hl_witness without that check accepts it or raises
    density = data.draw(st.integers(1, gamma.depth))
    grid = cone_grid(gamma, [()] * gamma.d, density)
    assume(grid is not None)
    w = derive_strong_subtrees(gamma, grid, h).witness
    assume(w is not None)
    assert verify_hl_witness(gamma, w)

    # wrong d or k
    assert not verify_hl_witness(gamma, replace(
        w, subtrees=w.subtrees + w.subtrees[:1]))
    assert not verify_hl_witness(gamma, replace(w, k=w.k + 1))

    # the top level moved past the coloring's depth, its nodes extended by
    # letter 0, so that the subtrees stay strong in a deeper tree
    top = w.levels.otp - 1
    past = gamma.depth + 1
    moved = replace(
        w, depth=past, levels=OrdSet.of(w.levels.elems[:top] + (past,)),
        subtrees=tuple(
            sets[:top] + (frozenset(t + (0,) * (past - len(t))
                                    for t in sets[top]),)
            for sets in w.subtrees))
    assert all(is_strong_subtree(moved.levels, sets, TreeShape(w.k, past))
               for sets in moved.subtrees)
    assert not verify_hl_witness(gamma, moved)

    # one node dropped: a subtree that is not strong, whose level products
    # still have the witness color
    j = data.draw(st.integers(0, w.d - 1))
    m = data.draw(st.integers(0, top))
    sets = list(w.subtrees[j])
    sets[m] -= {data.draw(st.sampled_from(sorted(sets[m])))}
    assert not verify_hl_witness(gamma, replace(
        w, subtrees=(*w.subtrees[:j], tuple(sets), *w.subtrees[j + 1:])))

    # one color flipped
    assert not verify_hl_witness(gamma, replace(
        w, color=(w.color + 1) % gamma.r))


def test_coloring_round_trips():
    colorings = [
        LevelColoring(k=2, d=1, depth=4, r=3, kind="level-parity", value=1),
        LevelColoring(k=2, d=2, depth=3, r=2, kind="seeded", seed=9),
        level_table([1, 1, 0, 1, 0]),
        LevelColoring(
            k=2, d=2, depth=4, r=2, kind="planted-grid", value=0,
            seed=2, roots=((1,), ()),
        ),
    ]
    for gamma in colorings:
        data, text = gamma.to_json(), repr(gamma)
        again = LevelColoring.from_json(data)
        for m in (0, 1, 2):
            for combo in itertools.product(words(2, m), repeat=gamma.d):
                assert gamma.color(combo) == again.color(combo)
        # the filled color memo is not part of the value
        assert gamma._colors
        assert gamma.to_json() == data
        assert repr(gamma) == text
        assert gamma == again == LevelColoring.from_json(data)


# ---------------------------------------------------------------------------
# the sideways family


def test_s_member_examples():
    left = (0, 0, 0, 0)
    right = (1, 1, 1, 1)
    mixed = (0, 1, 0, 1)
    for n in range(4):
        assert s_member(n, left)
        assert not s_member(n, right)
    assert s_member(0, mixed)
    assert not s_member(1, mixed)


def test_s_member_depth_guard():
    with pytest.raises(ValueError):
        s_member(2, (0, 1))


def test_s_family_meets_and_misses_every_cone():
    # every cone of height <= D-2 contains branches in and out of S_n
    shape = TreeShape(2, 6)
    bs = branches(shape)
    for h in range(5):
        for w in words(2, h):
            through = [y for y in bs if y[:h] == w]
            for n in range(h, 5):
                assert any(s_member(n, y) for y in through)
                assert any(not s_member(n, y) for y in through)


def test_sideways_constant_jmap():
    color = sideways_build(lambda xs: 0, 1)
    shape = TreeShape(2, 3)
    for x0, x1 in itertools.product(branches(shape), repeat=2):
        assert color((x0, x1)) == (0 if x1[0] == 0 else 1)


def test_sideways_leftmost_always_zero():
    def jmap(xs):
        return (xs[0][0] + xs[0][1]) % 2

    color = sideways_build(jmap, 1)
    shape = TreeShape(2, 4)
    left = (0, 0, 0, 0)
    for x0 in branches(shape):
        assert color((x0, left)) == 0


def test_sideways_depth_guard():
    # the jmap range 0..j_bound-1 is nonempty and below the branch depth
    for j_bound in (0, 5):
        with pytest.raises(ParameterError, match="< branch depth 4$"):
            sideways_lift(lambda xs: 0, d=1, j_bound=j_bound, depth=4)


def test_sideways_checks_jmap_range():
    # a negative value at the first prefix, before any row is built
    lift = sideways_lift(lambda xs: -1, d=1, j_bound=2, depth=4)
    with pytest.raises(ParameterError, match="jmap value -1 outside 0..1"):
        lift(branches(TreeShape(2, 4)))


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_sideways_lift_is_the_per_tuple_lift(data):
    # over a whole product the per-prefix rows, flattened, give the
    # per-tuple colors in product order, with one jmap call per d-prefix
    # and one shared row object per jmap value
    d = data.draw(st.integers(0, 2))
    k = data.draw(st.integers(2, 3))
    depth = data.draw(st.integers(2, 4 if d < 2 else 3))
    j_bound = data.draw(st.integers(1, depth - 1))
    table = data.draw(st.dictionaries(st.integers(0, k - 1),
                                      st.integers(0, j_bound - 1)))
    calls = []

    def jmap(prefix):
        calls.append(prefix)
        return table.get(prefix[0][-1], 0) if prefix else len(table) % j_bound

    side = branches(TreeShape(k, depth))
    fn = sideways_build(jmap, d)
    want = [fn(xs) for xs in itertools.product(side, repeat=d + 1)]
    calls.clear()
    rows = sideways_lift(jmap, d, j_bound, depth)(side)
    assert [c for row in rows for c in row] == want
    assert len(set(map(id, rows))) <= j_bound
    assert calls == list(itertools.product(side, repeat=d))


def test_sideways_lift_checks_like_the_per_tuple_lift():
    with pytest.raises(ParameterError, match="branch depth"):
        sideways_lift(lambda xs: 0, d=1, j_bound=4, depth=4)
    with pytest.raises(ParameterError, match="d >= 0"):
        sideways_lift(lambda xs: 0, d=-1, j_bound=1, depth=4)
    side = branches(TreeShape(2, 4))
    # the first prefix maps inside the range, a later one outside it
    lift = sideways_lift(lambda xs: xs[0][0] * 5, d=1, j_bound=2, depth=4)
    with pytest.raises(ParameterError, match="jmap value 5 outside 0..1"):
        lift(side)
