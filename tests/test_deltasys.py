"""Uniform n-dimensional systems: verification, extraction, derivation."""

import itertools

import pytest

from polygrid.deltasys import (
    Family,
    UniformCertificate,
    Violation,
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
