"""Tree shapes, strong subtrees, and depth-bounded density notions."""

import itertools
from random import Random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from polygrid import ParameterError
from polygrid.ordset import OrdSet
from polygrid.trees import (
    GridWitness,
    TreeShape,
    all_nodes,
    branches,
    fpg_witness_sets,
    is_ddf_to_depth,
    is_dense_above,
    is_level_tuple,
    is_strong_subtree,
    node_key,
    validate_grid_witness,
    word_from_str,
    word_to_str,
)
from reference import is_u_set

T2 = TreeShape(k=2, depth=3)


# ---------------------------------------------------------------------------
# basic enumeration


def test_node_height_and_prefix():
    # a node is its word: its height is the length, shortlex comes first
    assert node_key((0, 1)) == (2, (0, 1))
    assert sorted([(1,), (0, 1), (), (0,)], key=node_key) == [
        (), (0,), (1,), (0, 1)]


def test_branch_count():
    assert len(branches(T2)) == 8
    assert len(all_nodes(T2)) == 1 + 2 + 4 + 8


def test_is_level_tuple():
    assert is_level_tuple(((0,), (1,)))
    assert not is_level_tuple(((0,), ()))


# ---------------------------------------------------------------------------
# strong subtrees


def test_strong_subtree_root_singleton():
    assert is_strong_subtree(OrdSet.of([0]), (frozenset({()}),), T2)


def test_strong_subtree_two_levels():
    deep = TreeShape(k=2, depth=4)
    sets = (frozenset({(0,)}), frozenset({(0, 0, 0), (0, 1, 0)}))
    assert is_strong_subtree(OrdSet.of([1, 3]), sets, deep)


def test_strong_subtree_missing_successor():
    deep = TreeShape(k=2, depth=4)
    # two nodes above (0,0), none above (0,1)
    sets = (frozenset({(0,)}), frozenset({(0, 0, 0), (0, 0, 1)}))
    assert not is_strong_subtree(OrdSet.of([1, 3]), sets, deep)


def test_strong_subtree_wrong_height():
    assert not is_strong_subtree(OrdSet.of([1]), (frozenset({()}),), T2)
    # a level past the tree depth
    assert not is_strong_subtree(OrdSet.of([3]), (frozenset({(0, 0, 0)}),),
                                 TreeShape(2, 2))


def test_strong_subtree_letter_out_of_range():
    assert not is_strong_subtree(OrdSet.of([1]), (frozenset({(2,)}),), T2)


def test_strong_subtree_needs_one_node_set_per_level():
    # the two-level strong subtree above, with a node set or a level too
    # few, or a node set too many, is none, and neither is no level at all
    deep = TreeShape(k=2, depth=4)
    sets = (frozenset({(0,)}), frozenset({(0, 0, 0), (0, 1, 0)}))
    assert not is_strong_subtree(OrdSet.of([1, 3]), sets[:1], deep)
    assert not is_strong_subtree(OrdSet.of([1]), sets, deep)
    assert not is_strong_subtree(OrdSet.of([1, 3]), sets + sets[1:], deep)
    assert not is_strong_subtree(OrdSet.of([]), (), deep)


# ---------------------------------------------------------------------------
# density to a cut-off depth


def test_dense_above_full_set():
    assert is_dense_above(T2, branches(T2), (), 3)


def test_dense_above_examples():
    Y = [(0, 0, 0), (0, 1, 0), (0, 0, 1), (0, 1, 1)]
    assert is_dense_above(T2, Y, (0,), 2)
    assert not is_dense_above(T2, Y, (), 1)


def test_dense_above_rejects_foreign_letters():
    # the letter 2 must not stand in for the missing (1,) at k = 2
    with pytest.raises(ParameterError, match="letters must lie in 0..1"):
        is_dense_above(TreeShape(2, 1), [(0,), (2,)], (), 1)
    shapes = [TreeShape(2, 1), TreeShape(2, 1)]
    Z = {((0,), (0,)), ((0,), (1,)), ((1,), (0,)), ((1,), (2,))}
    with pytest.raises(ParameterError, match="letters must lie in 0..1"):
        is_ddf_to_depth(shapes, Z, 1, mcap=1)
    w = GridWitness(k=2, depth=1, roots=((),), branch_sets=(((0,), (2,)),),
                    density_depth=1, color=0)
    with pytest.raises(ParameterError, match="letters must lie in 0..1"):
        validate_grid_witness(w, lambda xs: 0)


def test_dense_above_depth_guard():
    with pytest.raises(ParameterError):
        is_dense_above(T2, branches(T2), (), 4)


@st.composite
def density_cases(draw):
    shape = TreeShape(draw(st.integers(2, 3)), draw(st.integers(1, 4)))
    D = draw(st.integers(0, shape.depth))
    t = tuple(draw(st.lists(st.integers(0, shape.k - 1), max_size=D)))
    bs = branches(shape)
    drawn = draw(st.sets(st.sampled_from(bs), max_size=6))
    # a sparse set, or a full one with a few branches taken out
    Y = drawn if draw(st.booleans()) else set(bs) - drawn
    return shape, sorted(Y), t, D


@settings(max_examples=150, deadline=None)
@given(density_cases())
def test_dense_above_matches_its_definition(case):
    # every extension of t up to height D is a prefix of some branch
    shape, Y, t, D = case
    want = all(
        any(y[: len(s)] == s for y in Y)
        for m in range(len(t), D + 1)
        for s in (t + e for e in itertools.product(range(shape.k),
                                                   repeat=m - len(t)))
    )
    assert is_dense_above(shape, Y, t, D) == want


# ---------------------------------------------------------------------------
# u-sets and dense filtrations


def test_u_set_examples():
    Y_left = [(0, 0, 0)]
    Y_both = [(0, 0, 0), (1, 1, 1)]
    cones = [(0,), (1,)]
    assert is_u_set(Y_left, [])
    assert not is_u_set(Y_left, cones)
    assert is_u_set(Y_both, cones)


def test_ddf_full_product():
    shapes = [TreeShape(2, 2), TreeShape(2, 2)]
    Z = set(itertools.product(branches(shapes[0]), branches(shapes[1])))
    assert is_ddf_to_depth(shapes, Z, 2, mcap=2)


def test_ddf_skewed_fibers():
    shapes = [TreeShape(2, 2), TreeShape(2, 2)]
    Z = {
        (x, y)
        for x in branches(shapes[0])
        for y in branches(shapes[1])
        if y[0] == 0
    }
    assert not is_ddf_to_depth(shapes, Z, 1, mcap=2)


def test_ddf_nested_construction():
    # Z = union over n of {x_n} x Y_{n+1} with nested dense fibers
    shapes = [TreeShape(2, 2), TreeShape(2, 2)]
    xs = branches(shapes[0])
    ys = branches(shapes[1])  # 00, 01, 10, 11 in order
    nested = [
        set(ys),
        {ys[1], ys[2], ys[3]},
        {ys[1], ys[2]},
        {ys[1], ys[2]},
    ]
    for Y in nested:
        assert is_dense_above(shapes[1], Y, (), 1)
    Z = {(x, y) for n, x in enumerate(xs) for y in nested[n]}
    assert is_ddf_to_depth(shapes, Z, 1, mcap=2)


def test_ddf_checks_every_coordinate_up_front():
    # the projection is not dense, so the recursion would stop before it
    # reached the last coordinate's branches; they are checked first
    shapes = [TreeShape(2, 2), TreeShape(2, 2)]
    x = branches(shapes[0])[0]
    Z = {(x, y) for y in branches(shapes[1])} | {(x, (0,))}
    with pytest.raises(ParameterError, match="full-depth nodes only"):
        is_ddf_to_depth(shapes, Z, 2, mcap=2)
    with pytest.raises(ParameterError, match="exceeds tree depth"):
        is_ddf_to_depth(shapes, Z, 3, mcap=2)


def _ddf_reference(shapes, zs, D, mcap):
    """The per-combination loop that _ddf's one map over fiber meets
    replaced, kept as its reference: every intersection of at most mcap
    fibers, in sorted order, must reach every depth-D node."""
    if len(shapes) == 1:
        return len({z[0][:D] for z in zs}) == shapes[0].k ** D
    fib = {}
    for z in zs:
        fib.setdefault(z[:-1], set()).add(z[-1])
    if not _ddf_reference(shapes[:-1], list(fib), D, mcap):
        return False
    keys = sorted(fib)
    for size in range(1, mcap + 1):
        for combo in itertools.combinations(keys, size):
            meet = set.intersection(*(fib[x] for x in combo))
            if len({y[:D] for y in meet}) != shapes[-1].k ** D:
                return False
    return True


@st.composite
def ddf_cases(draw):
    """Subsets Z of small products: the full product less a few tuples, or
    each tuple kept with a drawn probability."""
    d = draw(st.integers(1, 3))
    depth = draw(st.integers(1, 3))
    k = draw(st.integers(2, 3)) if 3 ** (d * depth) <= 729 else 2
    shapes = [TreeShape(k, depth)] * d
    full = list(itertools.product(*(branches(s) for s in shapes)))
    if draw(st.booleans()):
        drop = draw(st.sets(st.sampled_from(full), max_size=6))
        Z = [z for z in full if z not in drop]
    else:
        rng = Random(draw(st.integers(0, 2 ** 16)))
        keep = draw(st.sampled_from((0.5, 0.8, 0.95)))
        Z = [z for z in full if rng.random() < keep]
    D = draw(st.integers(0, depth))
    return shapes, Z, D, draw(st.integers(1, 3))


@settings(max_examples=150, deadline=None)
@given(ddf_cases())
def test_ddf_matches_the_per_combination_loop(case):
    shapes, Z, D, mcap = case
    assert (is_ddf_to_depth(shapes, Z, D, mcap)
            == _ddf_reference(shapes, Z, D, mcap))


@st.composite
def repeated_fiber_cases(draw):
    """Subsets Z whose fibers repeat: each head of the first d - 1
    coordinates gets one of 1-3 fixed last-coordinate sets, or the full
    product loses tuples in one fiber only."""
    d = draw(st.integers(2, 3))
    depth = draw(st.integers(1, 3 if d == 2 else 2))
    # at most 16 heads, so the reference's C(16, 4) meets stay cheap
    k = draw(st.integers(2, 3)) if depth * (d - 1) <= 2 else 2
    shapes = [TreeShape(k, depth)] * d
    heads = list(itertools.product(*(branches(s) for s in shapes[:-1])))
    last = branches(shapes[-1])
    if draw(st.booleans()):
        fiber = st.sets(st.sampled_from(last), min_size=1)
        sets = draw(st.lists(st.one_of(st.just(set(last)), fiber),
                             min_size=1, max_size=3))
        rng = Random(draw(st.integers(0, 2 ** 16)))
        Z = [h + (y,) for h in heads for y in rng.choice(sets)]
    else:
        head = draw(st.sampled_from(heads))
        drop = draw(st.sets(st.sampled_from(last), min_size=1))
        Z = [h + (y,) for h in heads for y in last
             if h != head or y not in drop]
    D = draw(st.integers(0, depth))
    return shapes, Z, D, draw(st.integers(1, 4))


@settings(max_examples=150, deadline=None)
@given(repeated_fiber_cases())
def test_ddf_meets_each_distinct_fiber_once(case):
    # the kernel meets distinct fiber masks only; with many equal fibers
    # its verdict must still be the per-combination loop's
    shapes, Z, D, mcap = case
    assert (is_ddf_to_depth(shapes, Z, D, mcap)
            == _ddf_reference(shapes, Z, D, mcap))


def test_fpg_witness_sets_inside_z():
    shapes = [TreeShape(2, 2), TreeShape(2, 2)]
    Z = set(itertools.product(branches(shapes[0]), branches(shapes[1])))
    cones = [[(0,), (1,)], [(1,)]]
    got = fpg_witness_sets(shapes, Z, cones)
    assert got is not None
    for i, Y in enumerate(got):
        assert is_u_set(Y, cones[i])
    for combo in itertools.product(*got):
        assert combo in Z


def _meets_inside(shapes, Z, families) -> bool:
    """Brute force: some tuple of branch sets, one per tree, meets every
    cone of its family and has its product inside Z."""
    subsets = [[Y for r in range(len(bs) + 1)
                for Y in itertools.combinations(bs, r)]
               for bs in map(branches, shapes)]
    return any(
        all(is_u_set(Y, fam) for Y, fam in zip(Ys, families))
        and all(combo in Z for combo in itertools.product(*Ys))
        for Ys in itertools.product(*subsets))


def test_fpg_witness_sets_none_iff_no_set_meets_the_cones():
    # one tree: every subset Z of its four branches against every family
    # of at most two cones; some cone outside Z is a None
    shape = TreeShape(2, 2)
    ys = branches(shape)
    cones = all_nodes(shape, 2)
    families = [f for r in range(3) for f in itertools.combinations(cones, r)]
    nones = 0
    for mask in range(1 << len(ys)):
        Z = {(y,) for i, y in enumerate(ys) if mask >> i & 1}
        for fam in families:
            got = fpg_witness_sets([shape], Z, [fam])
            assert (got is None) == (not _meets_inside([shape], Z, [fam]))
            nones += got is None
    assert nones


_T22 = TreeShape(2, 2)
_PAIRS = list(itertools.product(branches(_T22), repeat=2))
_CONES = all_nodes(_T22, 2)


@settings(max_examples=150, deadline=None)
@given(st.sets(st.sampled_from(_PAIRS)),
       st.lists(st.sampled_from(_CONES), max_size=2),
       st.lists(st.sampled_from(_CONES), max_size=2))
@example(set(), [()], [()])
@example(set(), [()], [])
@example(set(), [], [(1,)])
def test_fpg_witness_sets_none_through_the_projection(Z, fam0, fam1):
    # two trees: a cone the first coordinates of Z miss has no witness,
    # and the projection's None is the answer; any witness found is one.
    # An empty family is met by the empty set, whose empty product lies
    # inside any Z, so then a witness always exists
    shapes, families = [_T22, _T22], [fam0, fam1]
    got = fpg_witness_sets(shapes, Z, families)
    if not (fam0 and fam1):
        assert got is not None
        assert all(is_u_set(Y, fam) for Y, fam in zip(got, families))
        assert set(itertools.product(*got)) <= Z
        assert _meets_inside(shapes, Z, families)
    elif not is_u_set({z[0] for z in Z}, fam0):
        assert got is None
        assert not _meets_inside(shapes, Z, families)
    elif got is not None:
        assert all(is_u_set(Y, fam) for Y, fam in zip(got, families))
        assert set(itertools.product(*got)) <= Z


# ---------------------------------------------------------------------------
# serialization


def test_word_strings():
    assert word_to_str((0, 1, 1)) == "011"
    assert word_to_str(tuple(range(10))) == "0123456789"
    # a letter outside 0-9 has no one-digit form: (0, -1, 2) would read
    # back as "0-12"
    for bad in [(0, -1, 2), (10,), (1, 10)]:
        with pytest.raises(ParameterError, match="letters 0-9"):
            word_to_str(bad)
    assert word_from_str("011") == (0, 1, 1)
    assert word_from_str("") == ()
    # int() reads Arabic-Indic digits; it rejects the superscript two
    for bad in ["\u0661\u0661", "1\u00b2", "1 "]:
        with pytest.raises(ValueError, match="ASCII digits"):
            word_from_str(bad)
