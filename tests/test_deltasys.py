"""Uniform n-dimensional systems: verification and extraction."""

import hashlib
import itertools
import json
import sys
from random import Random
from types import MappingProxyType

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polygrid.deltasys import (
    Family,
    UniformCertificate,
    Violation,
    _lattice_failure,
    agreement,
    check_dimension,
    extract_uniform,
    make_planted_family,
    restrict,
    verify_uniform,
)
from polygrid.ordset import OrdSet, ParameterError, aligned, rset
from reference import family_json, intersect, select


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


def zeros(fam: Family) -> dict:
    """One label, 0, on every key of the family."""
    return dict.fromkeys(fam.umap, 0)


def is_full(cert: UniformCertificate) -> bool:
    """Every agreement pattern is realized, so each has its position set."""
    return None not in cert.patterns.values()


# ---------------------------------------------------------------------------
# verification


def test_identity_certificate():
    cert = verify_uniform(identity_family(5, 2))
    assert isinstance(cert, UniformCertificate)
    assert cert.rho == 2
    for m in [(), (0,), (1,), (0, 1)]:
        assert cert.patterns[m] == OrdSet.of(m)
    assert is_full(cert)
    assert _lattice_failure({m: r.elems for m, r in cert.patterns.items()}) is None


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


def test_lattice_violation_is_named():
    # fiber-aligned, one fiber pattern per key pattern, but the meet of
    # patterns (0,) and () is not the intersection of their fiber sets
    umap = {(0, 1): [0], (0, 2): [1], (0, 3): [2], (1, 2): [2],
            (1, 3): [1], (2, 3): [0]}
    out = verify_uniform(Family(2, OrdSet.of(range(4)),
                                {b: OrdSet.of(u) for b, u in umap.items()}))
    assert isinstance(out, Violation)
    assert out.kind == "lattice"
    assert out.pair == ((), (0,))
    assert out.info == {"meet": (), "r_meet": (0,)}


def test_unrealized_patterns_undetermined():
    # |H| = n leaves every non-full pattern unrealized
    fam = identity_family(2, 2)
    cert = verify_uniform(fam)
    assert isinstance(cert, UniformCertificate)
    assert not is_full(cert)
    assert cert.patterns[(0,)] is None and cert.patterns[(1,)] is None


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
        assert select(ua, rset(ua, ub)) == intersect(ua, ub)


@st.composite
def _families_total_or_partial(draw):
    dim = draw(st.integers(0, 3))
    size = draw(st.integers(0, 6))
    keys = list(itertools.combinations(range(size), dim))
    if draw(st.booleans()):
        keys = draw(st.lists(st.sampled_from(keys), unique=True)) if keys else []
    return Family(dim, OrdSet.of(range(size)),
                  {b: OrdSet.of(b) for b in keys})


def _total_by_definition(fam: Family) -> bool:
    return all(b in fam.umap
               for b in itertools.combinations(fam.indices.elems, fam.dim))


@settings(max_examples=200, deadline=None)
@given(_families_total_or_partial())
def test_is_total_matches_definition(fam):
    assert fam.is_total() == _total_by_definition(fam)


@settings(max_examples=30, deadline=None)
@given(st.integers(1, 3), st.integers(0, 2), st.data())
def test_is_total_on_derived_families(dim, extra, data):
    # restrict builds its family unchecked, from the checked one
    fam = identity_family(2 * dim + extra, dim)
    sub = data.draw(st.sets(st.sampled_from(fam.indices.elems)))
    sub = restrict(fam, OrdSet.of(sub))
    assert sub.is_total() and _total_by_definition(sub)


def test_restrict_rejects_a_partial_family():
    fam = Family(1, OrdSet.of(range(3)), {(0,): OrdSet.of([0]),
                                          (1,): OrdSet.of([1])})
    with pytest.raises(ValueError, match=r"family is not total at \(2,\)"):
        restrict(fam, OrdSet.of([1, 2]))


_BAD_KEYS = {
    "not increasing": (lambda b, top: b[::-1], "need an increasing"),
    "wrong length": (lambda b, top: b + (top,), "need an increasing"),
    "outside the indices": (lambda b, top: b[:-1] + (top,),
                            "outside the family"),
}


@settings(max_examples=100, deadline=None)
@given(st.integers(2, 3), st.integers(0, 3), st.sampled_from(sorted(_BAD_KEYS)),
       st.data())
def test_family_from_json_rejects_bad_keys(dim, extra, flaw, data):
    size = dim + extra
    data_json = family_json(identity_family(size, dim))
    assert Family.from_json(data_json).is_total()
    b = data.draw(st.sampled_from(list(itertools.combinations(range(size), dim))))
    corrupt, message = _BAD_KEYS[flaw]
    data_json["umap"][",".join(map(str, corrupt(b, size)))] = [0]
    with pytest.raises(ValueError, match=message):
        Family.from_json(data_json)


# ---------------------------------------------------------------------------
# extraction


def test_extract_identity_first_h():
    fam = identity_family(8, 2)
    res = extract_uniform(fam, 4, zeros(fam))
    assert res.ok
    assert res.indices == OrdSet.of([0, 1, 2, 3])
    assert isinstance(res.certificate, UniformCertificate)


def test_extract_small_h_fails():
    fam = identity_family(3, 2)
    res = extract_uniform(fam, 5, zeros(fam))
    assert not res.ok
    assert res.failure["reason"] == "candidate pool smaller than h"


def test_extract_needs_constant_g():
    # distinct g values on every pair block any H' of size 3
    fam = identity_family(6, 2)
    marks = {b: i for i, b in enumerate(fam.keys())}
    res = extract_uniform(fam, 3, marks)
    assert not res.ok
    assert (res.method, res.failure["reason"]) == ("exhaustive",
                                                   "no subset works")


def _random_fiber_family() -> Family:
    rng = Random(0)
    umap = {b: OrdSet.of(rng.sample(range(80), 2))
            for b in itertools.combinations(range(40), 2)}
    return Family(2, OrdSet.of(range(40)), umap)


def test_exhaustive_fallback_gets_the_whole_budget():
    # random fibers, one label: the search tries budget + 1 indices before
    # it stops, so every node of the budget is spent
    fam = _random_fiber_family()
    res = extract_uniform(fam, 12, zeros(fam), budget=3000)
    assert not res.ok
    assert (res.method, res.failure["reason"]) == ("exhaustive", "budget")
    assert res.nodes_used == 3001


def test_exhaustive_fallback_reports_greedy_best_partial():
    # random fibers: the search runs out of its budget of indices tried
    # and reports the largest index set it admitted, which is uniform with
    # one label (keys through index 2 carry another)
    fam = _random_fiber_family()
    labels = {b: int(2 in b) for b in fam.umap}
    res = extract_uniform(fam, 12, labels, budget=3000)
    assert not res.ok
    assert (res.method, res.failure["reason"], res.nodes_used) == (
        "exhaustive", "budget", 3001)
    sub = restrict(fam, OrdSet.of(res.failure["best_partial"]))
    assert len(sub.indices) > fam.dim
    assert isinstance(verify_uniform(sub), UniformCertificate)
    assert len({labels[b] for b in sub.umap}) == 1


def test_extract_round_trip():
    fam = identity_family(8, 2)
    res = extract_uniform(fam, 4, zeros(fam))
    sub = restrict(fam, res.indices)
    cert = verify_uniform(sub)
    assert isinstance(cert, UniformCertificate)
    assert is_full(cert)


def test_extract_planted_instance():
    fam, g, planted = make_planted_family(40, 8, 2, seed=1)
    res = extract_uniform(fam, 5, g)
    assert res.ok
    sub = restrict(fam, res.indices)
    cert = verify_uniform(sub)
    assert isinstance(cert, UniformCertificate)
    assert is_full(cert)
    assert len({g[b] for b in sub.keys()}) == 1


@st.composite
def _planted_params(draw):
    num_indices = draw(st.integers(0, 12))
    planted = draw(st.integers(0, num_indices))
    n = draw(st.integers(1, 3))
    return num_indices, planted, n, draw(st.integers(0, 2 ** 16))


@settings(max_examples=100, deadline=None)
@given(_planted_params())
def test_planted_family_shape(params):
    num_indices, planted_size, n, seed = params
    fam, g, planted = make_planted_family(num_indices, planted_size, n, seed)
    # the planted index set is the first draw of the seeded stream
    want = Random(f"plant:{seed}").sample(range(num_indices), planted_size)
    assert planted == OrdSet.of(want)
    assert fam.is_total() and set(g) == set(fam.umap)
    base = num_indices + 10
    pool = set(range(base + 2, base + n + 6))
    for b, u in fam.umap.items():
        if set(b) <= set(planted.elems):
            assert u.elems == b + (base, base + 1) and g[b] == 7
        else:
            assert u.otp == n + 2 and set(u.elems) <= pool
            assert g[b] in range(6)


def test_planted_family_passes_the_checked_constructor():
    # make_planted_family skips the key check; its keys would pass it
    fam, _, _ = make_planted_family(30, 6, 3, seed=2)
    assert Family(fam.dim, fam.indices, fam.umap) == fam


@pytest.mark.parametrize("h", [3, 5, 9])  # 9 > the 8 indices
def test_extract_reads_mapping_labels_in_place(h):
    fam, g, _ = make_planted_family(8, 4, 2, seed=3)
    # any mapping is read as it is, a read-only view too
    assert extract_uniform(fam, h, g) == extract_uniform(
        fam, h, MappingProxyType(g))
    partial = dict(g)
    del partial[(2, 5)]
    with pytest.raises(ParameterError, match=r"labels miss key \(2, 5\)"):
        extract_uniform(fam, h, partial)


def test_extract_dimension_zero_labels():
    fam = Family(0, OrdSet((0, 1, 2)), {(): OrdSet((4,))})
    assert extract_uniform(fam, 2, {(): "x"}).g_value == "x"
    with pytest.raises(ParameterError, match="labels miss key"):
        extract_uniform(fam, 2, {})


def test_planted_noise_covers_every_pair():
    # at n = 3 the pool has 7 elements: C(7, 5) sets times 6 labels
    fam, g, planted = make_planted_family(40, 8, 3, seed=5)
    noise = {(fam.umap[b].elems, g[b]) for b in fam.umap
             if not set(b) <= set(planted.elems)}
    assert len(noise) == 21 * 6 == 126


@pytest.mark.parametrize("num_indices, n", [(21, 21), (24, 24), (1000, 1000)])
def test_planted_dimension_cap(num_indices, n):
    # one key, but its certificate would tabulate 2^n > 2^20 patterns, and
    # the noise pool C(n + 4, 2) * 6 sets of n + 2 elements
    with pytest.raises(ParameterError, match=f"dimension {n} .*over the cap"):
        make_planted_family(num_indices, 0, n, seed=0)
    check_dimension(20)  # 2^20 patterns is at the cap, not over it


@pytest.mark.parametrize("num_indices, planted, n, seed, digest", [
    (40, 8, 2, 1, "4de65b7172c04f0d"),
    (60, 12, 3, 7, "764f2fdc079ca786"),
    (200, 12, 2, 0, "f3570fc42e38c63d"),
    (9, 9, 1, 3, "5e88ec7b91821186"),
])
def test_planted_family_pinned(num_indices, planted, n, seed, digest):
    fam, g, _ = make_planted_family(num_indices, planted, n, seed)
    labels = {",".join(map(str, b)): v for b, v in sorted(g.items())}
    blob = json.dumps([family_json(fam), labels], sort_keys=True).encode()
    assert hashlib.sha256(blob).hexdigest()[:16] == digest


def _least_witness(fam: Family, h: int, labels):
    """The exhaustive scan `extract_uniform` must agree with: the first
    h-subset in lexicographic order with one label on its keys that
    `verify_uniform` accepts, as (indices, certificate, label), or None."""
    for pick in itertools.combinations(fam.indices.elems, h):
        sub = restrict(fam, OrdSet(pick))
        vals = {labels[b] for b in sub.umap}
        if len(vals) > 1:
            continue
        cert = verify_uniform(sub)
        if isinstance(cert, UniformCertificate):
            return sub.indices, cert, vals.pop()
    return None


def _assert_least_witness(fam: Family, h: int, labels) -> None:
    res = extract_uniform(fam, h, labels)
    want = _least_witness(fam, h, labels)
    assert res.ok == (want is not None)
    if res.ok:
        assert (res.indices, res.certificate, res.g_value) == want


# the search workload's sizes: every field of the result the delta-extract
# artifact records, with the certificate by digest
@pytest.mark.parametrize("num_indices, planted, n, h, indices, nodes, digest", [
    (150, 12, 2, 5, (13, 17, 28, 30, 51), 2994, "07e397e5e3cade3a"),
    (150, 12, 2, 6, (13, 17, 28, 30, 51, 92), 2288, "07e397e5e3cade3a"),
    (60, 12, 3, 5, (4, 7, 12, 23, 26), 4524, "f3064c56f6141961"),
    (60, 12, 3, 6, (4, 7, 12, 23, 26, 27), 3513, "9afbf9f9e1ab1b59"),
    (40, 8, 2, 5, (4, 7, 12, 23, 26), 93, "07e397e5e3cade3a"),
    (40, 8, 2, 6, (4, 7, 12, 23, 26, 27), 68, "07e397e5e3cade3a"),
])
def test_extract_pinned_at_search_sizes(num_indices, planted, n, h, indices,
                                        nodes, digest):
    fam, g, _ = make_planted_family(num_indices, planted, n, seed=1)
    res = extract_uniform(fam, h, g)
    assert (res.indices.elems, res.method, res.nodes_used, res.g_value) == (
        indices, "exhaustive", nodes, 7)
    blob = json.dumps(res.certificate.to_json(), sort_keys=True).encode()
    assert hashlib.sha256(blob).hexdigest()[:16] == digest


def test_extract_matches_exhaustive_small():
    cases = []
    cases.append((identity_family(6, 2), 4, lambda b: 0))
    cases.append((min_family(6), 4, lambda b: 0))
    fam = identity_family(6, 2)
    bad = dict(fam.umap)
    bad[(1, 3)] = OrdSet.of([1, 4])
    cases.append((Family(2, fam.indices, bad), 5, lambda b: 0))
    cases.append((identity_family(5, 1), 3, lambda b: sum(b) % 2))
    # consistent patterns that break the lattice clause on all 4 indices
    fibers = [(2,), (0,), (4,), (4,), (0,), (2,)]
    lattice = Family(2, OrdSet.of(range(4)), {
        b: OrdSet(u) for b, u in zip(itertools.combinations(range(4), 2),
                                     fibers)})
    assert verify_uniform(lattice).kind == "lattice"
    cases += [(lattice, 4, lambda b: 0), (lattice, 3, lambda b: 0)]
    for fam, h, g in cases:
        _assert_least_witness(fam, h, {b: g(b) for b in fam.umap})


@st.composite
def _extraction_inputs(draw):
    dim = draw(st.integers(1, 3))
    size = draw(st.integers(dim, 9))
    h = draw(st.integers(min(dim + 1, size), size))
    keys = list(itertools.combinations(range(size), dim))
    if draw(st.integers(0, 3)):
        # fibers from a pool a little wider than the keys, so that aligned
        # pairs and repeated fibers are common; some families offer one
        # fiber of another order type
        pool = range(draw(st.integers(dim, dim + 3)))
        choices = list(itertools.combinations(pool, dim))
        choices += [tuple(pool)[:dim - 1]] * draw(st.integers(0, 1))
        fibers = draw(st.lists(st.sampled_from(choices), min_size=len(keys),
                               max_size=len(keys)))
    else:
        fibers = keys
    labels = draw(st.lists(st.integers(0, draw(st.integers(0, 2))),
                           min_size=len(keys), max_size=len(keys)))
    fam = Family(dim, OrdSet.of(range(size)),
                 {b: OrdSet(u) for b, u in zip(keys, fibers)})
    return fam, h, dict(zip(keys, labels))


@settings(max_examples=300, deadline=None)
@given(_extraction_inputs())
def test_extract_is_the_least_witness(inputs):
    _assert_least_witness(*inputs)


@pytest.mark.parametrize("num_indices, n, h", [(30, 2, 1), (20, 3, 1),
                                               (20, 3, 2)])
def test_extract_rejects_h_below_dimension(num_indices, n, h):
    fam, g, _ = make_planted_family(num_indices, 12, n, seed=0)
    with pytest.raises(ParameterError, match=f"h = {h} .*dimension {n}"):
        extract_uniform(fam, h, g)


def test_extract_keeps_its_own_stack():
    # one admitted index is one frame on the search's stack, not a call
    fam = identity_family(210, 1)
    depth, frame = 0, sys._getframe()
    while frame is not None:
        depth, frame = depth + 1, frame.f_back
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(depth + 50)
    try:
        res = extract_uniform(fam, 200, zeros(fam))
    finally:
        sys.setrecursionlimit(limit)
    assert res.ok and res.indices.elems == tuple(range(200))


# ---------------------------------------------------------------------------
# serialization


def test_family_round_trip():
    fam = min_family(4)
    again = Family.from_json(family_json(fam))
    assert again.dim == fam.dim
    assert again.indices == fam.indices
    assert again.umap == fam.umap


@settings(max_examples=100, deadline=None)
@given(st.one_of(_small_families(), _families_total_or_partial()))
def test_family_json_round_trip_generated(fam):
    assert Family.from_json(json.loads(json.dumps(family_json(fam)))) == fam


@st.composite
def _certificates(draw):
    dim, rho = draw(st.integers(0, 3)), draw(st.integers(0, 4))
    positions = st.lists(st.booleans(), min_size=rho, max_size=rho).map(
        lambda bits: OrdSet(tuple(i for i, bit in enumerate(bits) if bit)))
    patterns = {m: draw(st.none() | positions)
                for size in range(dim + 1)
                for m in itertools.combinations(range(dim), size)}
    return UniformCertificate(dim, rho, patterns)


@settings(max_examples=100, deadline=None)
@given(_certificates())
def test_certificate_json_round_trip_generated(cert):
    again = UniformCertificate.from_json(json.loads(json.dumps(cert.to_json())))
    assert again == cert


def test_certificate_round_trip():
    cert = verify_uniform(identity_family(5, 2))
    again = UniformCertificate.from_json(cert.to_json())
    assert again.rho == cert.rho
    assert again.patterns == cert.patterns
