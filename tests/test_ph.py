"""Cofinal functions, F*, and the constructive partition-hypothesis refutation."""

import dataclasses
import hashlib
import itertools
import tracemalloc
from random import Random

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from polygrid import ParameterError, ph
from polygrid.antiramsey import Arena, TupleColor, c_full
from polygrid.ordset import CAP as TABLE_CAP
from polygrid.ph import (
    CofinalCheck,
    CofinalFn,
    _SeededRows,
    _window_fits,
    fstar,
    is_cofinal,
    is_sigma_seq,
    is_subseq,
    make_cofinal,
    refute,
    sigma_pair,
    verify_refutation,
)
from reference import cofinal_from_formula

M = 16


def _max_fn(bound=M, arity=2):
    return cofinal_from_formula(bound, arity, lambda xs: max(xs))


def _max_len_fn(bound=M, arity=2):
    return cofinal_from_formula(bound, arity, lambda xs: max(xs) + len(xs))


def _table(F):
    """F's values keyed by tuple, every row read through F.rows."""
    domain = range(F.entry_bound)
    return {p + (c,): v for length in range(F.arity)
            for p in itertools.product(domain, repeat=length)
            for c, v in enumerate(F.rows[p])}


def _proper_subsequences(ys):
    """All nonempty proper subsequences, deduplicated, in sorted order."""
    out = set()
    for r in range(1, len(ys)):
        out.update(itertools.combinations(ys, r))
    return sorted(out)


def _below(fx, fy, strict):
    return fx < fy if strict else fx <= fy


def _reference_cofinal(F, strict):
    """The definition read literally: every singleton dominated, and every
    proper subsequence of every tuple (strictly) below it."""
    if any(not x <= F((x,)) for x in range(F.entry_bound)):
        return False
    return all(
        _below(F(xs), F(ys), strict)
        for length in range(2, F.arity + 1)
        for ys in itertools.product(range(F.entry_bound), repeat=length)
        for xs in _proper_subsequences(ys)
    )


def _is_violation(F, strict, counterexample):
    """The reported pair really breaks the property it names."""
    kind, xs, ys = counterexample
    if kind == "domination":
        return len(xs) == 1 and xs == ys and not xs[0] <= F(xs)
    return (kind == ("strict-monotone" if strict else "monotone")
            and xs in _proper_subsequences(ys)
            and not _below(F(xs), F(ys), strict))


# ---------------------------------------------------------------------------
# the subsequence order


def test_is_subseq():
    assert is_subseq((0,), (0, 6))
    assert is_subseq((6,), (0, 6))
    assert not is_subseq((6, 0), (0, 6))
    assert is_subseq((), (0, 6))


def test_sigma_seq_shape():
    assert is_sigma_seq(((0,), (0, 6)))
    assert not is_sigma_seq(((6, 0), (0, 6)))  # entry 0 not a subsequence
    assert not is_sigma_seq(((0, 1), (0, 1, 2)))  # entry lengths off


# ---------------------------------------------------------------------------
# cofinality


def test_max_is_cofinal():
    chk = is_cofinal(_max_fn(), strict=False)
    assert chk.ok


def test_max_not_strict():
    chk = is_cofinal(_max_fn(), strict=True)
    assert not chk.ok
    assert chk.counterexample is not None


def test_max_plus_length_strictly_cofinal():
    chk = is_cofinal(_max_len_fn(bound=M - 4), strict=True)
    assert chk.ok


def test_constant_zero_not_cofinal():
    F = cofinal_from_formula(M, 2, lambda xs: 0)
    chk = is_cofinal(F, strict=False)
    assert not chk.ok
    # the one-entry clause fails at x = 1
    assert chk.counterexample is not None


@st.composite
def _small_tables(draw):
    """Tables over entry bounds 1-5 and arities 1-3: max plus a multiple of
    the length (cofinal, strictly so for a positive multiple), with a few
    entries shifted so that many of them fail."""
    bound = draw(st.integers(1, 5))
    arity = draw(st.integers(1, 3))
    slope = draw(st.integers(0, 2))
    keys = [xs for length in range(1, arity + 1)
            for xs in itertools.product(range(bound), repeat=length)]
    table = {xs: max(xs) + slope * len(xs) for xs in keys}
    for xs in draw(st.lists(st.sampled_from(keys), max_size=3)):
        table[xs] += draw(st.integers(-2, 2))
    return cofinal_from_formula(bound, arity, table.__getitem__)


@settings(max_examples=400, deadline=None)
@given(_small_tables(), st.booleans())
def test_is_cofinal_matches_reference(F, strict):
    # the deletion check may report a different first violation than a
    # sweep over all subsequences; the verdict must agree, and the pair
    # it reports must be a real violation
    chk = is_cofinal(F, strict=strict)
    assert chk.ok == _reference_cofinal(F, strict)
    if chk.ok:
        assert chk.counterexample is None
    else:
        assert _is_violation(F, strict, chk.counterexample)


def _deletion_scan(F, strict):
    """The per-tuple deletion scan that is_cofinal's length-at-a-time
    comparison replaced, kept as its reference: it walks the tuples of
    each length in product order and each tuple's deletion positions in
    order, and names the first violation."""
    table = _table(F)
    for x in range(F.entry_bound):
        if not x <= table[(x,)]:
            return CofinalCheck(False, ("domination", (x,), (x,)))
    for length in range(2, F.arity + 1):
        for ys in itertools.product(range(F.entry_bound), repeat=length):
            fy = table[ys]
            for i in range(length):
                xs = ys[:i] + ys[i + 1:]
                fx = table[xs]
                if strict and not fx < fy:
                    return CofinalCheck(False, ("strict-monotone", xs, ys))
                if not strict and not fx <= fy:
                    return CofinalCheck(False, ("monotone", xs, ys))
    return CofinalCheck(True)


def _planted(bound, arity, slope, plants):
    """max plus slope times the length, then each (ys, i, drop) of
    `plants` sets ys to drop below the value of its deletion at i (a
    singleton to drop below its entry)."""
    table = {xs: max(xs) + slope * len(xs)
             for length in range(1, arity + 1)
             for xs in itertools.product(range(bound), repeat=length)}
    for ys, i, drop in plants:
        below = ys[0] if len(ys) == 1 else table[ys[:i] + ys[i + 1:]]
        table[ys] = below - drop
    return cofinal_from_formula(bound, arity, table.__getitem__)


@pytest.mark.parametrize("bound", range(1, 7))
@pytest.mark.parametrize("arity", range(1, 4))
def test_is_cofinal_names_the_scans_first_violation(bound, arity):
    # a violation planted at the first and at the last tuple of each
    # length, at each deletion position, breaking the strict order alone
    # (drop 0) or both orders (drop 1)
    for length in range(1, arity + 1):
        first, last = (0,) * length, (bound - 1,) * length
        for ys in (first, last, first[:-1] + last[-1:]):
            for i in range(length):
                for drop in (0, 1):
                    for slope in (0, 1, 2):
                        F = _planted(bound, arity, slope, [(ys, i, drop)])
                        for strict in (False, True):
                            assert (is_cofinal(F, strict=strict)
                                    == _deletion_scan(F, strict))


@st.composite
def _planted_tables(draw):
    bound = draw(st.integers(1, 6))
    arity = draw(st.integers(1, 3))
    plant = st.integers(1, arity).flatmap(lambda length: st.tuples(
        st.tuples(*[st.integers(0, bound - 1)] * length),
        st.integers(0, length - 1), st.integers(-1, 2)))
    return _planted(bound, arity, draw(st.integers(0, 2)),
                    draw(st.lists(plant, max_size=3)))


@settings(max_examples=200, deadline=None)
@given(_planted_tables(), st.booleans())
def test_is_cofinal_equals_the_deletion_scan(F, strict):
    assert is_cofinal(F, strict=strict) == _deletion_scan(F, strict)


# ---------------------------------------------------------------------------
# F* and the sigma pair


def test_fstar_values():
    sigma = ((0,), (0, 6))
    assert fstar(_max_fn(), sigma) == (0, 6)
    assert fstar(_max_len_fn(), sigma) == (1, 8)


def test_fstar_single_entry():
    F = _max_fn(arity=1)
    assert fstar(F, ((3,),)) == (F((3,)),)


def test_fstar_rejects_bad_sigma():
    with pytest.raises(ValueError):
        fstar(_max_fn(), ((6, 0), (0, 6)))


def test_sigma_pair_example():
    F = cofinal_from_formula(M, 2, lambda xs: 5 if xs == (0,) else max(xs))
    s0, s1 = sigma_pair(F, 0)
    assert s0 == ((0,), (0, 6))
    assert s1 == ((6,), (0, 6))


def test_sigma_pair_differs_only_at_istar():
    F = _max_len_fn(bound=M - 6)
    for i_star in (0, 1):
        s0, s1 = sigma_pair(F, i_star)
        assert is_sigma_seq(s0) and is_sigma_seq(s1)
        for i in range(2):
            if i == i_star:
                assert s0[i] != s1[i]
            else:
                assert s0[i] == s1[i]


def test_sigma_pair_overflow():
    F = cofinal_from_formula(M, 2, lambda xs: M - 1)
    with pytest.raises(ValueError):
        sigma_pair(F, 0)


# ---------------------------------------------------------------------------
# refutation


def test_refute_max_plus_length():
    arena = Arena(size=64, dim=1, mode="identity")
    F = _max_len_fn(bound=58)
    r = refute(F, arena)
    assert r.ok
    assert r.color_a != r.color_b
    assert c_full(arena, fstar(F, r.sigma_a)) == r.color_a
    assert c_full(arena, fstar(F, r.sigma_b)) == r.color_b
    assert verify_refutation(F, arena, r)


def test_refute_rejects_non_strict():
    arena = Arena(size=64, dim=1, mode="identity")
    with pytest.raises(ValueError, match="^not strictly cofinal"):
        refute(_max_fn(bound=64), arena)


def test_generated_cofinal_functions_refute():
    arena = Arena(size=64, dim=1, mode="identity")
    for seed in range(5):
        gen = make_cofinal(64, 2, seed)
        assert is_cofinal(gen.fn, strict=True).ok
        r = refute(gen.fn, arena)
        assert r.ok
        assert verify_refutation(gen.fn, arena, r)


@pytest.mark.parametrize("entry_bound, arena_seed, table_seed", [
    (16, 2, 2), (24, 12, 0), (32, 17, 1)])
def test_refute_returns_the_probe_when_the_pair_agrees(entry_bound,
                                                       arena_seed,
                                                       table_seed):
    # the divergent pair's two colors agree, so the probe is the chain
    # that differs from the pair's first
    arena = Arena(entry_bound, 2, "seeded", arena_seed)
    F = make_cofinal(entry_bound, 3, table_seed, spread=2).fn
    r = refute(F, arena)
    assert r.sigma_a == r.probe
    assert r.color_a != r.color_b
    assert verify_refutation(F, arena, r)
    assert not verify_refutation(F, arena, dataclasses.replace(r, ok=False))


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 2), st.sampled_from([16, 24]), st.booleans(),
       st.integers(0, 99), st.data())
def test_c_full_refute_and_verify_keep_no_colors(n, entry_bound, seeded,
                                                 seed, data):
    # only product_census stores colors in an arena: c_full keeps nothing,
    # for a good tuple or a bad one, and neither does refute followed by
    # its re-check, so the re-check computes every color it compares
    arena = (Arena(entry_bound, n, "seeded", seed) if seeded
             else Arena(entry_bound, n, "identity"))
    entry = st.integers(-2, entry_bound + 1)
    for vec in data.draw(st.lists(st.lists(entry, min_size=n, max_size=n + 2),
                                  max_size=12)):
        if len(vec) == n + 1 and all(0 <= x < entry_bound for x in vec):
            assert isinstance(c_full(arena, vec), TupleColor)
        else:
            with pytest.raises(ValueError):
                c_full(arena, vec)
    F = make_cofinal(entry_bound, n + 1, seed, spread=2).fn
    assert verify_refutation(F, arena, refute(F, arena))
    assert not arena._rows and not arena._palette


def test_refute_rejects_an_arena_of_another_dimension():
    with pytest.raises(ValueError, match="^arena dimension 2 does not match"):
        refute(make_cofinal(16, 2, 0).fn, Arena(16, 2))


@pytest.mark.parametrize("slot, patch, fact", [
    (2, {}, "distinguished element is the maximum"),
    (0, {"sigma_pair": lambda pair: lambda F, i: pair(F, i)[::-1]},
     "no jump at the slot"),
    (0, {"sigma_pair": lambda pair: lambda F, i: pair(F, i + 1)},
     "images differ off the slot"),
    (1, {"fstar": lambda fstar: lambda F, s: fstar(F, s)[::-1]},
     "image not increasing"),
], ids=["slot-at-maximum", "reversed-pair", "pair-at-next-slot",
        "reversed-images"])
def test_refute_raises_when_a_pair_fact_fails(monkeypatch, slot, patch, fact):
    # each fact follows from the entry check and sigma_pair, so only a
    # broken collaborator reaches the raise: the probe's color slot is
    # forced, and sigma_pair or fstar is wrapped to break one fact
    F = make_cofinal(24, 3, 0, spread=2).fn
    monkeypatch.setattr(ph, "c_full", lambda arena, xs: TupleColor(slot, 0))
    for name, wrap in patch.items():
        monkeypatch.setattr(ph, name, wrap(getattr(ph, name)))
    with pytest.raises(AssertionError, match=f"^divergent pair: .*{fact}"):
        refute(F, Arena(24, 2))


def test_refute_raises_on_three_equal_colors(monkeypatch):
    # with the difference check in place, no pair and probe can have three
    # equal colors, so refute ends in its two returns
    monkeypatch.setattr(ph, "c_full", lambda arena, xs: TupleColor(0, 0))
    with pytest.raises(AssertionError,
                       match="^difference property violated by the arena$"):
        refute(make_cofinal(16, 2, 0).fn, Arena(16, 1))


@settings(max_examples=40, deadline=None)
@given(st.sampled_from([(1, 10, 64, 8), (2, 12, 40, 8), (3, 12, 14, 4)]),
       st.data(), st.integers(0, 2 ** 16))
def test_make_cofinal_is_strictly_cofinal(shape, data, seed):
    # make_cofinal returns its tables unchecked: the repair alone must make
    # each one strictly cofinal under the all-subsequence definition (arity
    # 3 keeps to small bounds and spreads, where tables fit and are cheap)
    arity, low, high, max_spread = shape
    entry_bound = data.draw(st.integers(low, high))
    spread = data.draw(st.integers(1, max_spread))
    try:
        gen = make_cofinal(entry_bound, arity, seed, spread=spread)
    except ParameterError:
        assume(False)
    assert _reference_cofinal(gen.fn, strict=True)


@pytest.mark.parametrize("entry_bound, arity, seed, spread, skips, digest", [
    (64, 2, 0, 8, 0, "fc09129302c98422"),
    (16, 2, 0, 8, 4, "c4d2d32b825f54e4"),
    (17, 2, 7, 8, 2, "a5d7e2b1c3a51295"),
    (18, 3, 1, 8, 7, "f9dc254d1bd3469f"),
    (17, 3, 14, 8, 1, "4bdccd2b2d3f615b"),
    (24, 3, 1, 8, 0, "b70fc8710c4797d9"),
    (32, 3, 2, 3, 0, "e026fe1fe68a4b12"),
    (16, 3, 1, 8, 33, "c09d8548118eba17"),
])
def test_make_cofinal_output_pinned(entry_bound, arity, seed, spread,
                                    skips, digest):
    # digests of the tables and skip counts as built by the earlier repair
    # floor over all proper subsequences, followed by a strict check of
    # each candidate (the last case: by the whole-table build of
    # _reference_make_cofinal); the window-first build must give the same
    # bytes
    gen = make_cofinal(entry_bound, arity, seed, spread=spread)
    blob = repr((sorted(_table(gen.fn).items()), gen.skips)).encode()
    assert gen.skips == skips
    assert hashlib.sha256(blob).hexdigest()[:16] == digest


def test_make_cofinal_out_of_attempts():
    # at entry bound 4 every refutation window overflows the bound
    with pytest.raises(ParameterError, match="after 3 attempts"):
        make_cofinal(4, 2, 0, max_attempts=3)


def _reference_make_cofinal(entry_bound, arity, seed, spread=8,
                            max_attempts=64):
    """Build each attempt's whole table with rng.randint, then check its
    window: (table, skips), or None when out of attempts."""
    skips = 0
    for attempt in range(max_attempts):
        rng = Random(f"cofinal:{seed}:{attempt}")
        table = {}
        for length in range(1, arity + 1):
            for xs in itertools.product(range(entry_bound), repeat=length):
                raw = max(xs) + rng.randint(1, spread)
                floor = 0
                if length > 1:
                    floor = 1 + max(table[xs[:i] + xs[i + 1:]]
                                    for i in range(length))
                table[xs] = max(raw, floor)
        fn = cofinal_from_formula(entry_bound, arity, table.__getitem__)
        if not _window_fits(fn, entry_bound):
            skips += 1
            continue
        return _table(fn), skips
    return None


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 6), st.integers(1, 3), st.integers(0, 2 ** 16),
       st.integers(1, 8), st.integers(1, 8))
def test_make_cofinal_matches_reference(entry_bound, arity, seed, spread,
                                        max_attempts):
    # entry bounds 0 and 1 reach the out-of-domain errors of the window
    want = _reference_make_cofinal(entry_bound, arity, seed, spread,
                                   max_attempts)
    try:
        gen = make_cofinal(entry_bound, arity, seed, spread, max_attempts)
    except ParameterError:
        assert want is None
        return
    assert want == (_table(gen.fn), gen.skips)


def test_make_cofinal_out_of_attempts_at_arity_three():
    # the whole-table build took 64 tables to reach this; (16, 3, seed=1),
    # accepted after 33 skips, is pinned above
    with pytest.raises(ParameterError, match="after 64 attempts"):
        make_cofinal(16, 3, 0)


class _ReadRecorder(CofinalFn):
    def __call__(self, xs):
        self.read.append(tuple(xs))
        return super().__call__(xs)


@pytest.mark.parametrize("entry_bound, arity, seed, skips", [
    (16, 2, 0, 4), (18, 3, 1, 7), (17, 3, 14, 1), (16, 3, 1, 33),
])
def test_skipped_attempt_holds_only_its_window_rows(entry_bound, arity,
                                                    seed, skips):
    # a row is computed from the row of each one-element deletion of its
    # prefix, so the rows a window needs are those of every subsequence
    # of the prefixes it reads at
    for attempt in range(skips):
        F = _ReadRecorder(entry_bound, arity, _SeededRows(
            entry_bound, Random(f"cofinal:{seed}:{attempt}"), 8))
        F.read = []
        assert not _window_fits(F, entry_bound)
        want = {sub for xs in F.read for r in range(len(xs))
                for sub in itertools.combinations(xs[:-1], r)}
        assert set(F.rows) == want
        assert len(want) < sum(entry_bound ** j for j in range(arity))


def test_make_cofinal_and_refute_memory_is_bounded():
    # (40, 3) holds 65,640 entries; copied into a dict keyed by tuple,
    # make_cofinal plus refute peaked at 7.6-7.8 MiB under tracemalloc
    # over seeds 0-3, and with the rows filled in place at 2.3 MiB
    arena = Arena(size=40, dim=2, mode="identity")
    tracemalloc.start()
    try:
        assert refute(make_cofinal(40, 3, 0).fn, arena).ok
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2 ** 20


def test_filled_table_keeps_no_spent_draws():
    # (80, 3) holds 518,480 entries; with every seeded draw kept for the
    # life of the table, make_cofinal plus refute peaked at 17.4-17.5 MiB
    # under tracemalloc over seeds 0-3, and at 13.4-13.5 MiB with only
    # the draws of rows not yet computed kept
    arena = Arena(size=80, dim=2, mode="identity")
    tracemalloc.start()
    try:
        F = make_cofinal(80, 3, 0).fn
        assert refute(F, arena).ok
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 15.5 * 2 ** 20
    assert not F.rows.pending  # every row is computed, so none waits


def test_is_cofinal_on_a_filled_table_copies_no_length():
    # (48, 3) holds 112,944 entries; with every value of a length copied
    # into one list and compared blockwise, one check peaked at 1.74 MiB
    # under tracemalloc (7.98 MiB at (80, 3)); row by row, under 2 KiB
    F = make_cofinal(48, 3, 0).fn
    assert is_cofinal(F, strict=True).ok  # computes every row
    tracemalloc.start()
    try:
        assert is_cofinal(F, strict=True).ok
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 0.25 * 2 ** 20


@pytest.mark.parametrize("entry_bound, arity, entries", [
    (64, 4, 64 + 64 ** 2 + 64 ** 3 + 64 ** 4),
    (2, 20, 2 ** 21 - 2),
    (10 ** 9, 1, 10 ** 9),
])
def test_make_cofinal_refuses_tables_over_cap(entry_bound, arity, entries):
    assert entries > TABLE_CAP
    with pytest.raises(ParameterError, match="cap"):
        make_cofinal(entry_bound, arity, 0)


def test_refutation_json_round_trip_fields():
    arena = Arena(size=64, dim=1, mode="identity")
    F = _max_len_fn(bound=58)
    r = refute(F, arena)
    blob = r.to_json()
    assert blob["ok"] is True
    assert blob["method"] == "constructed"
    assert blob["sigma_a"] != blob["sigma_b"]


# ---------------------------------------------------------------------------
# the refutation re-check rejects


def _definition_verdict(F, arena, r):
    """verify_refutation's verdict read off the definition: both chains
    are increasing chains of F's domain, colored as reported, and the two
    colors differ."""
    colors = []
    for sigma in (r.sigma_a, r.sigma_b):
        if not is_sigma_seq(sigma) or len(sigma) > F.arity or any(
                not 0 <= x < F.entry_bound for xs in sigma for x in xs):
            return False
        values = tuple(F(xs) for xs in sigma)
        if max(values) >= arena.size:
            return False
        colors.append(c_full(arena, values))
    return (colors[0] == r.color_a and colors[1] == r.color_b
            and colors[0] != colors[1])


@st.composite
def corrupted_refutations(draw):
    """A valid refutation of a seeded table at n = 1 or 2, corrupted in
    one place: a color flipped, both chains made equal, or one chain
    value moved."""
    n = draw(st.sampled_from((1, 2)))
    entry_bound = draw(st.integers(32, 64) if n == 1 else st.integers(24, 32))
    seed = draw(st.integers(0, 2 ** 16))
    try:
        F = make_cofinal(entry_bound, n + 1, seed).fn
    except ParameterError:
        assume(False)
    mode = draw(st.sampled_from(("identity", "seeded")))
    arena = Arena(size=entry_bound, dim=n, mode=mode, seed=seed)
    r = refute(F, arena)
    assert verify_refutation(F, arena, r)
    how = draw(st.sampled_from(("color_a", "color_b", "equal", "equal+color",
                                "move")))
    if how in ("color_a", "color_b"):
        c = getattr(r, how)
        flipped = draw(st.sampled_from((c._replace(value=c.value + 1),
                                        c._replace(slot=(c.slot + 1) % 3))))
        bad = dataclasses.replace(r, **{how: flipped})
    elif how.startswith("equal"):
        bad = dataclasses.replace(r, sigma_b=r.sigma_a)
        if how == "equal+color":
            bad = dataclasses.replace(bad, color_b=r.color_a)
    else:
        side = draw(st.sampled_from(("sigma_a", "sigma_b")))
        sigma = [list(xs) for xs in getattr(r, side)]
        i = draw(st.integers(0, len(sigma) - 1))
        j = draw(st.integers(0, len(sigma[i]) - 1))
        value = draw(st.integers(0, entry_bound).filter(
            lambda v: v != sigma[i][j]))
        sigma[i][j] = value
        bad = dataclasses.replace(r, **{side: tuple(map(tuple, sigma))})
    return F, arena, bad, how


@settings(max_examples=150, deadline=None)
@given(corrupted_refutations())
def test_verify_refutation_rejects_one_corruption(case):
    F, arena, bad, how = case
    want = _definition_verdict(F, arena, bad)
    if how != "move":  # a move can leave the report valid
        assert not want
    assert verify_refutation(F, arena, bad) is want
