"""Acceptance gate: ten criteria, one test and one reported line each.

Every criterion test times itself against its pinned wall-clock bound and
prints a single PASS line with the measured numbers (visible under pytest
-s or in failure output).  test_criterion_01_recheck_rejects shows that
criterion 01's independent re-check can say no.
"""

import itertools
import time
from random import Random

from polygrid import cli
from polygrid.antiramsey import (
    Arena,
    BudgetError,
    _c_full,
    c_full,
    check_difference_lemma,
    is_bad_coloring,
    m_seq,
    ramsey_m_star,
    threshold,
    verify_product_bound,
)
from polygrid.deltasys import (
    Family,
    UniformCertificate,
    extract_uniform,
    make_planted_family,
    restrict,
    verify_uniform,
)
from polygrid.forcing import run_pipeline
from polygrid.hl import (
    LevelColoring,
    cone_grid,
    derive_strong_subtrees,
    s_member,
    sideways_lift,
    verify_hl_witness,
)
from polygrid.ordset import OrdSet
from polygrid.ph import fstar, is_cofinal, make_cofinal, refute, verify_refutation
from polygrid.trees import (
    TreeShape,
    all_nodes,
    branches,
    fpg_witness_sets,
    is_ddf_to_depth,
    is_dense_above,
)
from reference import find_bad_coloring, is_u_set


class _Clock:
    def __init__(self, bound_s: float):
        self.bound = bound_s
        self.t0 = time.monotonic()

    def done(self, n: int, detail: str) -> None:
        elapsed = time.monotonic() - self.t0
        assert elapsed < self.bound, (
            f"criterion {n} exceeded its {self.bound}s bound: {elapsed:.1f}s"
        )
        print(f"[criterion {n:02d}] PASS {detail} ({elapsed:.1f}s < {self.bound:.0f}s)")


def _is_bad_pair_coloring(col: dict, m: int, k: int) -> bool:
    """Every pair of [m] colored in 0..k-1, and no triple monochromatic;
    read off the definition, without the search code."""
    pairs = list(itertools.combinations(range(m), 2))
    if sorted(col) != pairs or any(
            col[p] not in range(k) for p in pairs):
        return False
    return all(len({col[p] for p in itertools.combinations(triple, 2)}) > 1
               for triple in itertools.combinations(range(m), 3))


def _is_bad_triple_coloring(col: dict, m: int, k: int) -> bool:
    """Every triple of [m] colored in 0..k-1, and no 4-set monochromatic;
    read off the definition, without the program's code."""
    triples = list(itertools.combinations(range(m), 3))
    if sorted(col) != triples or any(col[t] not in range(k) for t in triples):
        return False
    return all(len({col[t] for t in itertools.combinations(quad, 3)}) > 1
               for quad in itertools.combinations(range(m), 4))


def _gf16() -> dict:
    """The bad coloring at 16 behind m*(1, 3) = 17, found with no search."""
    return threshold(1, 3, budget=0).bad


def _record(n: int, k: int):
    """The bound record of a threshold that the budget leaves open."""
    try:
        ramsey_m_star(n, k, budget=0)
    except BudgetError as exc:
        return exc.record
    raise AssertionError(f"m*({n}, {k}) settled at budget 0")


def test_criterion_01_ramsey_oracle():
    clock = _Clock(60)
    assert ramsey_m_star(1, 1) == 3
    assert ramsey_m_star(1, 2) == 6
    # witness bad coloring of [5]^2
    bad = find_bad_coloring(1, 5, 2)
    assert _is_bad_pair_coloring(bad, 5, 2)
    # and no bad coloring survives at 6
    assert find_bad_coloring(1, 6, 2) is None
    # m*(1, 3) = 17 at any budget: the bad 3-coloring of [16]^2 that the
    # threshold holds, re-checked here
    assert ramsey_m_star(1, 3, budget=0) == 17
    assert _is_bad_pair_coloring(_gf16(), 16, 3)
    # m*(2, 2) is open between the certificate's 13 and the recurrence's 21:
    # the bad 2-coloring of [12]^3 behind the lower side, re-checked here
    rec = _record(2, 2)
    assert (rec.lower, rec.upper) == (13, 21)
    assert _is_bad_triple_coloring(rec.bad, 12, 2)
    clock.done(1, "ramsey_m_star(1,1)=3, (1,2)=6, (1,3)=17; bad [5]^2, "
                  "[16]^2 and [12]^3 witnesses checked")


def _flips(col: dict, k: int):
    """col with one entry changed, every way."""
    for e, c in col.items():
        for other in range(k):
            if other != c:
                yield {**col, e: other}


def test_criterion_01_recheck_rejects():
    # the found coloring is the pentagon and its complement; flipping any
    # one pair closes a monochromatic triangle, and color 2 is no color of
    # a 2-coloring, nor is a missing pair colored
    bad = find_bad_coloring(1, 5, 2)
    assert _is_bad_pair_coloring(bad, 5, 2)
    for p in bad:
        assert not _is_bad_pair_coloring({**bad, p: 1 - bad[p]}, 5, 2)
    assert not _is_bad_pair_coloring({**bad, (0, 1): 2}, 5, 2)
    assert not _is_bad_pair_coloring(
        {p: c for p, c in bad.items() if p != (0, 1)}, 5, 2)
    # the (1, 3) certificate: each color class is a Clebsch graph, where two
    # non-adjacent points have two common neighbours, so every recoloring
    # of one pair closes a triangle; both checkers say so
    gf16 = _gf16()
    for flipped in _flips(gf16, 3):
        assert not _is_bad_pair_coloring(flipped, 16, 3)
        assert not is_bad_coloring(flipped, 1, 16, 3)
    # the (2, 2) certificate: the two checkers agree on every flip, and
    # all but two of the 220 flips close a monochromatic 4-set
    r443 = _record(2, 2).bad
    verdicts = [(_is_bad_triple_coloring(flipped, 12, 2),
                 is_bad_coloring(flipped, 2, 12, 2))
                for flipped in _flips(r443, 2)]
    assert verdicts.count((False, False)) == 218
    assert verdicts.count((True, True)) == 2


def test_criterion_02_difference_lemma():
    clock = _Clock(60)
    arenas = [("identity", None)] + [("seeded", s) for s in (1, 2, 3)]
    pairs = 0
    for n in (1, 2, 3):
        for mode, seed in arenas:
            arena = Arena(size=8, dim=n, mode=mode, seed=seed or 0)
            report = check_difference_lemma(arena)
            assert report.ok, f"violations at n={n} {mode}:{seed}"
            assert report.eligible_pairs > 0
            pairs += report.eligible_pairs
    clock.done(2, f"0 violations over {pairs} eligible pairs, n in 1..3, M=8")


def test_criterion_03_product_bound():
    clock = _Clock(120)
    assert m_seq(1, 1) == 6 and m_seq(1, 2) == 12
    # exhaustive k=1: all ordered pairs of 6-subsets of {0..9}
    arena = Arena(size=10, dim=1, mode="identity")
    subs = [OrdSet.of(c) for c in itertools.combinations(range(10), 6)]
    checked = 0
    for A0 in subs:
        for A1 in subs:
            ok, census = verify_product_bound(arena, [A0, A1], 1)
            assert ok and len(census) >= 2
            checked += 1
    # sampled k=2: 1000 seeded pairs of 12-subsets of {0..23}
    arena24 = Arena(size=24, dim=1, mode="identity")
    for t in range(1000):
        rng = Random(f"acceptance:c3:{t}")
        A0 = OrdSet.of(rng.sample(range(24), 12))
        A1 = OrdSet.of(rng.sample(range(24), 12))
        ok, census = verify_product_bound(arena24, [A0, A1], 2)
        assert ok and len(census) >= 3
    # seeded arenas at n = 1 and 2 and an identity arena at n = 2: the
    # embedding tables and the recursion, each census re-checked tuple by
    # tuple with _c_full on a twin arena whose rows stay empty.  A seeded
    # census that equals the identity arena's may not have read the tables.
    cases = [(1, 1, 12, "seeded", s, 100) for s in (1, 2)]
    cases += [(2, 1, 16, "seeded", s, 20) for s in (1, 2)]
    cases.append((2, 1, 16, "identity", None, 20))
    seeded = deep = apart = 0
    for n, k, size, mode, seed, products in cases:
        arena = Arena(size=size, dim=n, mode=mode, seed=seed)
        twin = Arena(size=size, dim=n, mode=mode, seed=seed)
        plain = Arena(size=size, dim=n, mode="identity")
        side = m_seq(n, k)
        for t in range(products):
            rng = Random(f"acceptance:c3:{mode}:{seed}:{n}:{t}")
            sets = [OrdSet.of(rng.sample(range(size), side))
                    for _ in range(n + 1)]
            ok, census = verify_product_bound(arena, sets, k)
            assert ok and len(census) > k
            assert census == {
                _c_full(twin, vec)
                for vec in itertools.product(*(a.elems for a in sets))}
            if mode == "seeded":
                apart += census != verify_product_bound(plain, sets, k)[1]
        assert not twin._rows
        seeded += products if mode == "seeded" else 0
        deep += products if n >= 2 else 0
    assert seeded >= 200 and deep >= 60 and apart >= seeded // 2
    clock.done(3, f"censuses >= 2 on {checked} exhaustive 6x6 pairs, "
                  f">= 3 on 1000 seeded 12x12 pairs; {seeded} products on "
                  f"seeded arenas ({apart} apart from identity) and {deep} "
                  "at n = 2, each re-checked per tuple")


def _identity_family(size, n):
    return Family(
        n,
        OrdSet.of(range(size)),
        {b: OrdSet.of(b) for b in itertools.combinations(range(size), n)},
    )


def test_criterion_04_delta_systems():
    clock = _Clock(120)
    # exact certificates on the two model families
    cert = verify_uniform(_identity_family(5, 2))
    assert isinstance(cert, UniformCertificate) and cert.rho == 2
    for m in [(), (0,), (1,), (0, 1)]:
        assert cert.patterns[m] == OrdSet.of(m)
    mins = Family(
        2,
        OrdSet.of(range(5)),
        {b: OrdSet.of([min(b)])
         for b in itertools.combinations(range(5), 2)},
    )
    cert = verify_uniform(mins)
    assert isinstance(cert, UniformCertificate) and cert.rho == 1
    for m in [(), (0,), (1,), (0, 1)]:
        want = OrdSet.of([0]) if 0 in m else OrdSet.of([])
        assert cert.patterns[m] == want

    # planted recovery at full scale with a round-trip-verified certificate
    fam, g, planted = make_planted_family(200, 12, 2, seed=42)
    res = extract_uniform(fam, 6, g)
    assert res.ok and res.indices.otp >= 6
    sub = restrict(fam, res.indices)
    recheck = verify_uniform(sub)
    assert isinstance(recheck, UniformCertificate)
    assert None not in recheck.patterns.values()
    assert recheck.patterns == res.certificate.patterns
    assert len({g[b] for b in sub.keys()}) == 1

    # on |H| <= 8 the search agrees with pure exhaustive enumeration
    def exhaustive_ok(fam, h, labels):
        for pick in itertools.combinations(fam.indices.elems, h):
            sub = restrict(fam, OrdSet.of(pick))
            if len({labels[b] for b in sub.keys()}) > 1:
                continue
            if isinstance(verify_uniform(sub), UniformCertificate):
                return True
        return False

    def zeros(fam):
        return dict.fromkeys(fam.umap, 0)

    small_cases = []
    for size in (4, 6, 8):
        fam = _identity_family(size, 2)
        small_cases.append((fam, 4, zeros(fam)))
        fam = _identity_family(size, 1)
        small_cases.append((fam, 3, {b: b[0] % 2 for b in fam.umap}))
        umap = {b: OrdSet.of([min(b)])
                for b in itertools.combinations(range(size), 2)}
        fam = Family(2, OrdSet.of(range(size)), umap)
        small_cases.append((fam, size - 1, zeros(fam)))
        broken = {b: OrdSet.of(b)
                  for b in itertools.combinations(range(size), 2)}
        broken[(1, 3)] = OrdSet.of([0, 2])
        fam = Family(2, OrdSet.of(range(size)), broken)
        small_cases.append((fam, size - 1, zeros(fam)))
    agreements = 0
    for fam, h, labels in small_cases:
        got = extract_uniform(fam, h, labels)
        assert got.ok == exhaustive_ok(fam, h, labels)
        agreements += 1
    clock.done(4, f"exact certificates, planted 200/12 recovery |H'|=6, "
                  f"{agreements} exhaustive agreements")


def test_criterion_05_pipeline_soundness():
    clock = _Clock(30 * 75)
    runs = 0
    for d in (1, 2, 3):
        for seed in range(25):
            t0 = time.monotonic()
            oracle = LevelColoring(
                k=2, d=d, depth=2, r=2, kind="oracle-seeded", seed=seed
            )
            res = run_pipeline(oracle, density_depth=3, width=8)
            assert res.ok, f"pipeline failed at d={d} seed={seed}"
            w = res.witness
            shapes = w.shapes()
            for i, Y in enumerate(w.branch_sets):
                assert len(Y) == 8
                assert is_dense_above(shapes[i], Y, w.roots[i], 3)
            for combo in itertools.product(*w.branch_sets):
                cut = tuple(x[: oracle.depth] for x in combo)
                assert oracle.color(cut) == w.color
            assert time.monotonic() - t0 < 30, f"slow run d={d} seed={seed}"
            runs += 1
    clock.done(5, f"{runs}/75 witnesses, monochromatic by construction and "
                  f"re-validated, d in {{1,2,3}}, K=8, D'=3")


def test_criterion_06_ph_refutation():
    clock = _Clock(60)
    arena = Arena(size=64, dim=1, mode="identity")
    good = 0
    for seed in range(100):
        gen = make_cofinal(64, 2, seed)
        assert is_cofinal(gen.fn, strict=True).ok
        r = refute(gen.fn, arena)
        assert r.ok, f"no refutation at seed {seed}"
        # re-verify the two sigmas from scratch
        ca = c_full(arena, fstar(gen.fn, r.sigma_a))
        cb = c_full(arena, fstar(gen.fn, r.sigma_b))
        assert ca != cb
        assert (ca, cb) == (r.color_a, r.color_b)
        assert verify_refutation(gen.fn, arena, r)
        good += 1
    clock.done(6, f"{good}/100 seeded cofinal F refuted and re-verified, M=64")


def test_criterion_07_sideways_containment():
    clock = _Clock(120)
    shape0 = TreeShape(2, 4)
    shape1 = TreeShape(2, 4)
    bs0 = branches(shape0)
    bs1 = branches(shape1)
    # Any grid monochromatic for the sideways lift with projection value j has
    # Y_1 inside the maximal set {y : s_member(j, y) == (color == 0)}, so
    # density of Y_1 above t forces density of the maximal set: scanning the
    # maximal set per (t, j, color) covers every candidate grid.
    cells = 0
    realized = 0
    for t in all_nodes(shape1, 3):
        for j in (0, 1):
            for c in (0, 1):
                Ymax = [y for y in bs1 if s_member(j, y) == (c == 0)]
                dense = is_dense_above(shape1, Ymax, t, 3)
                want = j < len(t) and t[j] == (0 if c == 0 else 1)
                assert dense == want
                cells += 1
                if not dense:
                    continue
                # containment invariant: jmap value below the root height
                assert j < len(t)
                # and the grid it describes really is monochromatic: the
                # two shapes are equal, so bs0 holds Ymax, and the lift's
                # rows over bs0, one per x0, give color c to each y in Ymax
                rows = sideways_lift(
                    lambda xs, jj=j: jj, d=1, j_bound=2, depth=4
                )(bs0)
                assert len(rows) == len(bs0)
                for row in rows:
                    assert {col for y, col in zip(bs0, row)
                            if y in Ymax} == {c}
                realized += 1
    clock.done(7, f"{cells} (root, j, color) cells scanned, "
                  f"{realized} monochromatic grids realized, all with j < height")


def test_criterion_08_hl_derivation():
    clock = _Clock(60)
    N = 8
    colorings: list[tuple[LevelColoring, list]] = []
    for d, r, v in [(1, 2, 0), (1, 2, 1), (2, 2, 0), (2, 2, 1),
                    (1, 3, 2), (2, 3, 1)]:
        gamma = LevelColoring(k=2, d=d, depth=N, r=r, kind="constant", value=v)
        colorings.append((gamma, [()] * d))
    for d, v in [(1, 0), (1, 1), (2, 0), (2, 1)]:
        gamma = LevelColoring(
            k=2, d=d, depth=N, r=2, kind="level-parity", value=v
        )
        colorings.append((gamma, [()] * d))
    for seed in range(5):
        g1 = LevelColoring(
            k=2, d=1, depth=N, r=2, kind="planted-grid",
            value=seed % 2, seed=seed, roots=((0,),),
        )
        colorings.append((g1, [(0,)]))
        g2 = LevelColoring(
            k=2, d=2, depth=N, r=2, kind="planted-grid",
            value=1 - seed % 2, seed=seed, roots=((0,), (1,)),
        )
        colorings.append((g2, [(0,), (1,)]))
    assert len(colorings) == 20

    full = 0
    for gamma, roots in colorings:
        # height-2 derivation consumes stems two letters past the roots,
        # so the cone grid has to be dense to depth 2
        grid = cone_grid(gamma, roots, 2)
        assert grid is not None
        res = derive_strong_subtrees(gamma, grid, 2)
        assert res.full, f"partial on {gamma.kind} d={gamma.d}"
        assert res.height == 2
        assert verify_hl_witness(gamma, res.witness)
        full += 1

    adversarial = LevelColoring(k=2, d=1, depth=N, r=2, kind="adversarial")
    grid = cone_grid(adversarial, [()], 1)
    assert grid is not None
    res = derive_strong_subtrees(adversarial, grid, 2)
    assert not res.full
    assert res.failed_stage == 1
    assert res.reason  # it says so
    clock.done(8, f"{full}/20 full height-2 witnesses verified, "
                  "adversarial instance reported partial")


def test_criterion_09_ddf_fpg_bridge():
    clock = _Clock(120)
    shapes = [TreeShape(2, 2), TreeShape(2, 2)]
    tuples = list(itertools.product(branches(shapes[0]), branches(shapes[1])))
    cones = [all_nodes(s, 2) for s in shapes]
    families = []
    for size0 in range(3):
        for size1 in range(3):
            for f0 in itertools.combinations(cones[0], size0):
                for f1 in itertools.combinations(cones[1], size1):
                    families.append((f0, f1))
    passing = 0
    witnessed = 0
    for mask in range(1 << 16):
        Z = {tuples[i] for i in range(16) if mask >> i & 1}
        if not is_ddf_to_depth(shapes, Z, 2, mcap=2):
            continue
        passing += 1
        for fam in families:
            got = fpg_witness_sets(shapes, Z, fam)
            assert got is not None
            for i, Y in enumerate(got):
                assert is_u_set(Y, fam[i])
            for combo in itertools.product(*got):
                assert combo in Z
            witnessed += 1
    assert passing >= 1
    clock.done(9, f"{passing} filtration sets x {len(families)} cone families "
                  f"= {witnessed} witnessed products inside Z")


_DRIVERS = [
    ["ramsey", "--n", "1", "--k", "1"],
    ["difference-check", "--n", "1", "--size", "6", "--mode", "seeded",
     "--seed", "2"],
    ["product-bound", "--n", "1", "--k", "1", "--size", "8", "--samples",
     "25", "--seed", "3"],
    ["ph-refute", "--entry-bound", "64", "--seed", "5"],
    ["delta-extract", "--num-indices", "40", "--planted", "8", "--h", "5",
     "--seed", "1"],
    ["force-pipeline", "--d", "1", "--k", "2", "--depth-oracle", "2",
     "--density", "3", "--branches", "8", "--seed", "7"],
    ["hl-derive", "--coloring", "planted-grid", "--d", "1", "--depth", "8",
     "--roots", "0", "--density", "2", "--seed", "4"],
    ["grid-search", "--coloring", "seeded", "--d", "1", "--depth", "3",
     "--density", "2", "--cap", "8", "--seed", "6"],
    ["sideways-build", "--depth", "4", "--j-bound", "2"],
    ["ddf-check", "--d", "2", "--k", "2", "--depth", "2", "--density", "2",
     "--mcap", "2"],
]


def test_criterion_10_determinism(tmp_path):
    clock = _Clock(120)
    compared = 0
    for i, args in enumerate(_DRIVERS):
        dirs = []
        for tag in ("a", "b"):
            out = tmp_path / f"{i}{tag}"
            out.mkdir()
            code = cli.main([args[0], "--out", str(out), *args[1:]])
            assert code == 0, f"driver {args[0]} exited {code}"
            dirs.append(out)
        names = sorted(p.name for p in dirs[0].iterdir())
        assert names == sorted(p.name for p in dirs[1].iterdir())
        assert names, f"driver {args[0]} wrote nothing"
        for name in names:
            a = (dirs[0] / name).read_bytes()
            b = (dirs[1] / name).read_bytes()
            assert a == b, f"artifact {name} of {args[0]} differs across reruns"
            compared += 1
    clock.done(10, f"{compared} artifacts byte-identical across seeded reruns")
