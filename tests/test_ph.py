"""Cofinal functions, F*, and the constructive partition-hypothesis refutation."""

import pytest

from polygrid.antiramsey import Arena, c_full
from polygrid.ph import (
    CofinalFn,
    NoAdmissibleTable,
    fstar,
    is_cofinal,
    is_sigma_seq,
    is_subseq,
    make_cofinal,
    refute,
    sigma_pair,
    verify_refutation,
)

M = 16


def _max_fn(bound=M, arity=2):
    return CofinalFn.from_formula(bound, arity, lambda xs: max(xs))


def _max_len_fn(bound=M, arity=2):
    return CofinalFn.from_formula(bound, arity, lambda xs: max(xs) + len(xs))


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
    F = CofinalFn.from_formula(M, 2, lambda xs: 0)
    chk = is_cofinal(F, strict=False)
    assert not chk.ok
    # the one-entry clause fails at x = 1
    assert chk.counterexample is not None


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
    F = CofinalFn.from_formula(M, 2, lambda xs: 5 if xs == (0,) else max(xs))
    s0, s1 = sigma_pair(F, 0, n=1)
    assert s0 == ((0,), (0, 6))
    assert s1 == ((6,), (0, 6))


def test_sigma_pair_differs_only_at_istar():
    F = _max_len_fn(bound=M - 6)
    for i_star in (0, 1):
        s0, s1 = sigma_pair(F, i_star, n=1)
        assert is_sigma_seq(s0) and is_sigma_seq(s1)
        for i in range(2):
            if i == i_star:
                assert s0[i] != s1[i]
            else:
                assert s0[i] == s1[i]


def test_sigma_pair_overflow():
    F = CofinalFn.from_formula(M, 2, lambda xs: M - 1)
    with pytest.raises(ValueError):
        sigma_pair(F, 0, n=1)


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
    with pytest.raises(ValueError):
        refute(_max_fn(bound=64), arena)


def test_generated_cofinal_functions_refute():
    arena = Arena(size=64, dim=1, mode="identity")
    for seed in range(5):
        gen = make_cofinal(64, 2, seed)
        assert is_cofinal(gen.fn, strict=True).ok
        r = refute(gen.fn, arena)
        assert r.ok
        assert verify_refutation(gen.fn, arena, r)


def test_make_cofinal_out_of_attempts():
    # at entry bound 4 every refutation window overflows the bound
    with pytest.raises(NoAdmissibleTable, match="after 3 attempts"):
        make_cofinal(4, 2, 0, max_attempts=3)


def test_refutation_json_round_trip_fields():
    arena = Arena(size=64, dim=1, mode="identity")
    F = _max_len_fn(bound=58)
    r = refute(F, arena)
    blob = r.to_json()
    assert blob["ok"] is True
    assert blob["method"] == "constructed"
    assert blob["sigma_a"] != blob["sigma_b"]
