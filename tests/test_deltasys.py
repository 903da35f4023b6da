"""Uniform n-dimensional systems: verification, extraction, derivation."""

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polygrid.deltasys import (
    Family,
    UniformCertificate,
    Violation,
    agreement,
    derive_subfamily,
    extract_uniform,
    make_planted_family,
    restrict,
    verify_uniform,
)
from polygrid.ordset import OrdSet, aligned, rset


def identity_family(size: int, n: int) -> Family:
    H = OrdSet.of(range(size))
    umap = {b: OrdSet.of(b) for b in itertools.combinations(range(size), n)}
    return Family(n, H, umap)


def min_family(size: int) -> Family:
    H = OrdSet.of(range(size))
    umap = {
        b: OrdSet.of([min(b)]) for b in itertools.combinations(range(size), 2)
    }
    return Family(2, H, umap)


# ---------------------------------------------------------------------------
# verification


def test_identity_certificate():
    cert = verify_uniform(identity_family(5, 2))
    assert isinstance(cert, UniformCertificate)
    assert cert.rho == 2
    for m in [(), (0,), (1,), (0, 1)]:
        assert cert.patterns[m] == OrdSet.of(m)
    assert cert.is_full
    assert cert.lattice_ok()


def test_min_family_certificate():
    cert = verify_uniform(min_family(5))
    assert isinstance(cert, UniformCertificate)
    assert cert.rho == 1
    assert cert.patterns[(0,)] == OrdSet.of([0])
    assert cert.patterns[(1,)] == OrdSet.of([])
    assert cert.patterns[(0, 1)] == OrdSet.of([0])
    assert cert.patterns[()] == OrdSet.of([])


def test_perturbed_family_names_pair():
    fam = identity_family(5, 2)
    bad = dict(fam.umap)
    bad[(1, 3)] = OrdSet.of([1, 4])
    out = verify_uniform(Family(2, fam.indices, bad))
    assert isinstance(out, Violation)
    assert (1, 3) in out.pair


def test_otp_violation():
    fam = identity_family(4, 2)
    bad = dict(fam.umap)
    bad[(2, 3)] = OrdSet.of([2])
    out = verify_uniform(Family(2, fam.indices, bad))
    assert isinstance(out, Violation)
    assert out.kind == "order-type"


def test_unrealized_patterns_undetermined():
    # |H| = n leaves every non-full pattern unrealized
    fam = identity_family(2, 2)
    cert = verify_uniform(fam)
    assert isinstance(cert, UniformCertificate)
    assert not cert.is_full
    assert ((0,) in cert.undetermined()) and ((1,) in cert.undetermined())


def _reference_verify(fam: Family):
    """verify_uniform read straight off the definition, through OrdSet
    aligned and rset: (kind, pair) of the first violation, or the table of
    determined patterns."""
    keys = fam.keys()
    rho = fam.umap[keys[0]].otp
    for b in keys:
        if fam.umap[b].otp != rho:
            return "order-type", (keys[0], b)
    patterns = {tuple(range(fam.dim)): OrdSet(tuple(range(rho)))}
    for a, b in itertools.combinations(keys, 2):
        oa, ob = OrdSet(a), OrdSet(b)
        if not aligned(oa, ob):
            continue
        m = rset(oa, ob).elems
        ua, ub = fam.umap[a], fam.umap[b]
        if not aligned(ua, ub):
            return "fiber-alignment", (a, b)
        r = rset(ua, ub)
        if patterns.setdefault(m, r) != r:
            return "pattern-mismatch", (a, b)
    for m0, m1 in itertools.combinations_with_replacement(sorted(patterns), 2):
        meet = tuple(sorted(set(m0) & set(m1)))
        if meet in patterns and set(patterns[meet].elems) != (
                set(patterns[m0].elems) & set(patterns[m1].elems)):
            return "lattice", (m0, m1)
    return patterns


@st.composite
def _small_families(draw):
    dim = draw(st.integers(1, 2))
    size = draw(st.integers(dim, 5))
    rho = draw(st.integers(0, 3))
    umap = {}
    for b in itertools.combinations(range(size), dim):
        # mostly order type rho from a cramped pool, so that pairs collide
        width = rho if draw(st.integers(0, 9)) else draw(st.integers(0, 3))
        umap[b] = OrdSet.of(draw(st.sets(st.integers(0, 5),
                                         min_size=width, max_size=width)))
    return Family(dim, OrdSet.of(range(size)), umap)


@settings(max_examples=300, deadline=None)
@given(_small_families())
def test_verify_uniform_matches_definition(fam):
    want = _reference_verify(fam)
    got = verify_uniform(fam)
    if isinstance(want, tuple):
        assert isinstance(got, Violation)
        assert (got.kind, got.pair) == want
    else:
        assert isinstance(got, UniformCertificate)
        assert {m: r for m, r in got.patterns.items() if r is not None} == want


_increasing = st.lists(st.integers(0, 12), max_size=6, unique=True).map(
    lambda xs: tuple(sorted(xs)))


@settings(max_examples=500, deadline=None)
@given(_increasing, _increasing)
def test_agreement_matches_aligned_and_rset(a, b):
    oa, ob = OrdSet(a), OrdSet(b)
    if aligned(oa, ob):
        assert agreement(a, b) == rset(oa, ob).elems
    else:
        assert agreement(a, b) is None


def test_aligned_slice_law_on_fibers():
    fam = identity_family(6, 2)
    for a, b in itertools.combinations(fam.keys(), 2):
        ua, ub = fam.umap[a], fam.umap[b]
        if not aligned(ua, ub):
            continue
        assert ua.select(rset(ua, ub)) == ua.intersect(ub)


# ---------------------------------------------------------------------------
# extraction


def test_extract_identity_first_h():
    fam = identity_family(8, 2)
    res = extract_uniform(fam, 4, lambda b: 0)
    assert res.ok
    assert res.indices == OrdSet.of([0, 1, 2, 3])
    assert isinstance(res.certificate, UniformCertificate)


def test_extract_small_h_fails():
    fam = identity_family(3, 2)
    res = extract_uniform(fam, 5, lambda b: 0)
    assert not res.ok
    assert res.failure["reason"] == "candidate pool smaller than h"


def test_extract_needs_constant_g():
    # distinct g values on every pair block any H' of size 3
    fam = identity_family(6, 2)
    marks = {b: i for i, b in enumerate(fam.keys())}
    res = extract_uniform(fam, 3, lambda b: marks[b])
    assert not res.ok
    # the scan over h-subsets grows no partial set to report
    assert res.method == "exhaustive"
    assert "best_partial" not in res.failure


def test_exhaustive_fallback_reports_greedy_best_partial():
    # C(60, 3) subsets: greedy runs first, and every pair is its own label
    # class, so greedy's best is one pair; the fallback scan runs out
    fam = identity_family(60, 2)
    marks = {b: i for i, b in enumerate(fam.keys())}
    res = extract_uniform(fam, 3, marks, budget=100)
    assert not res.ok
    assert (res.method, res.failure["reason"]) == ("exhaustive", "budget")
    best = res.failure["best_partial"]
    assert len(best) == 2
    assert isinstance(verify_uniform(restrict(fam, OrdSet.of(best))),
                      UniformCertificate)


def test_extract_round_trip():
    fam = identity_family(8, 2)
    res = extract_uniform(fam, 4, lambda b: 0)
    sub = restrict(fam, res.indices)
    cert = verify_uniform(sub)
    assert isinstance(cert, UniformCertificate)
    assert cert.is_full


def test_extract_planted_instance():
    fam, g, planted = make_planted_family(40, 8, 2, seed=1)
    res = extract_uniform(fam, 5, g)
    assert res.ok
    sub = restrict(fam, res.indices)
    cert = verify_uniform(sub)
    assert isinstance(cert, UniformCertificate)
    assert cert.is_full
    vals = {g[b] if not callable(g) else g(b) for b in sub.keys()}
    assert len(vals) == 1


def test_extract_matches_exhaustive_small():
    # canonization and pure exhaustive search agree on success/failure
    def exhaustive(fam, h, g):
        labels = {b: g(b) for b in fam.keys()}
        for pick in itertools.combinations(fam.indices.elems, h):
            sub = restrict(fam, OrdSet.of(pick))
            if len({labels[b] for b in sub.keys()}) > 1:
                continue
            cert = verify_uniform(sub)
            if isinstance(cert, UniformCertificate) and cert.is_full:
                return True
        return False

    cases = []
    cases.append((identity_family(6, 2), 4, lambda b: 0))
    cases.append((min_family(6), 4, lambda b: 0))
    fam = identity_family(6, 2)
    bad = dict(fam.umap)
    bad[(1, 3)] = OrdSet.of([1, 4])
    cases.append((Family(2, fam.indices, bad), 5, lambda b: 0))
    cases.append((identity_family(5, 1), 3, lambda b: sum(b) % 2))
    for fam, h, g in cases:
        res = extract_uniform(fam, h, g)
        assert res.ok == exhaustive(fam, h, g)


# ---------------------------------------------------------------------------
# derivation


def test_derive_root_family():
    fam = identity_family(5, 2)
    cert = verify_uniform(fam)
    sub = derive_subfamily(fam, cert, 0)
    assert sub.dim == 0
    assert sub.umap[()] == OrdSet.of([])


def test_derive_identity_m1():
    fam = identity_family(5, 2)
    cert = verify_uniform(fam)
    sub = derive_subfamily(fam, cert, 1)
    for alpha in range(4):  # last index never leads a pair
        assert sub.umap[(alpha,)] == OrdSet.of([alpha])


def test_derive_min_family():
    fam = min_family(5)
    cert = verify_uniform(fam)
    # u_{(a0,)} = slice(u_b, r_{(0,)}) = {min(b)} = {a0}
    sub = derive_subfamily(fam, cert, 1)
    assert sub.umap[(1,)] == OrdSet.of([1])


def test_derive_detects_dependence():
    # a fiber perturbed after certification makes the slice depend on b
    fam = identity_family(5, 2)
    cert = verify_uniform(fam)
    bad = dict(fam.umap)
    bad[(1, 3)] = OrdSet.of([0, 3])
    with pytest.raises(ValueError):
        derive_subfamily(Family(2, fam.indices, bad), cert, 1)


# ---------------------------------------------------------------------------
# serialization


def test_family_round_trip():
    fam = min_family(4)
    again = Family.from_json(fam.to_json())
    assert again.dim == fam.dim
    assert again.indices == fam.indices
    assert again.umap == fam.umap


def test_certificate_round_trip():
    cert = verify_uniform(identity_family(5, 2))
    again = UniformCertificate.from_json(cert.to_json())
    assert again.rho == cert.rho
    assert again.patterns == cert.patterns
