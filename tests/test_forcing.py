"""The finite Cohen-style poset, dense-set plumbing, and the pipeline."""

import importlib.util
import itertools
import json
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polygrid import ParameterError, cli, forcing
from polygrid.deltasys import Family, extract_uniform
from polygrid.forcing import (
    ORACLE_KINDS,
    Condition,
    decide_color,
    leq,
    matrix_tags,
    meet_dense,
    run_pipeline,
)
from polygrid.hl import LevelColoring
from polygrid.ordset import OrdSet
from polygrid.trees import is_dense_above, word_from_str, word_to_str


def cond(assign, k=2, d=1):
    return Condition(k, d, tuple(sorted(assign.items())))


# ---------------------------------------------------------------------------
# the order


def test_leq_reflexive():
    p = cond({0: ((0,),)})
    assert leq(p, p)


def test_leq_example():
    p = cond({0: ((),)})
    q = cond({0: ((1,),), 3: ((0,),)})
    assert leq(q, p)
    assert not leq(p, q)


def test_leq_incomparable_nodes():
    p = cond({0: ((0,),)})
    q = cond({0: ((1,),)})
    assert not leq(q, p)
    # conditions over different k or d never compare
    assert not leq(cond({0: ((0,),)}, k=3), p)
    assert not leq(cond({0: ((0,), (0,))}, d=2), p)


def _all_conditions(depth=2, indices=(0, 1)):
    ws = [()]
    for length in range(1, depth + 1):
        ws.extend(itertools.product(range(2), repeat=length))
    opts = [None] + [(w,) for w in ws]
    out = []
    for rows in itertools.product(opts, repeat=len(indices)):
        assign = {a: r for a, r in zip(indices, rows) if r is not None}
        out.append(cond(assign))
    return out


def test_order_axioms_exhaustive():
    conds = _all_conditions(depth=1)
    for p in conds:
        assert leq(p, p)
    for p, q in itertools.product(conds, repeat=2):
        if leq(p, q) and leq(q, p):
            assert p == q
    for p, q, r in itertools.product(conds, repeat=3):
        if leq(p, q) and leq(q, r):
            assert leq(p, r)


# the order laws again, on generated conditions wider and deeper than the
# exhaustive sets above


@st.composite
def _conditions(draw, k, d):
    word = st.lists(st.integers(0, k - 1), max_size=4).map(tuple)
    rows = st.dictionaries(st.integers(0, 5), st.tuples(*[word] * d),
                           max_size=4)
    return cond(draw(rows), k, d)


def _weaken(draw, r):
    # a condition r refines: some of r's rows, each word cut to a prefix
    assign = {}
    for alpha, row in r.rows:
        if draw(st.booleans()):
            assign[alpha] = tuple(w[:draw(st.integers(0, len(w)))]
                                  for w in row)
    return cond(assign, r.k, r.d)


@settings(max_examples=60, deadline=None)
@given(st.integers(2, 3), st.integers(1, 3), st.data())
def test_leq_laws_generated(k, d, data):
    r = data.draw(_conditions(k, d))
    q = _weaken(data.draw, r)
    p = _weaken(data.draw, q)
    assert leq(r, r) and leq(q, q) and leq(p, p)
    assert leq(r, q) and leq(q, p)
    assert leq(r, p)  # transitivity along the chain r <= q <= p


# ---------------------------------------------------------------------------
# validation at the boundary


@pytest.mark.parametrize("make", [
    lambda: Condition(2, 1, ((0, ((2,),)),)),            # letter outside 0..k-1
    lambda: Condition(2, 1, ((3, ((0,),)), (1, ((),)))),  # rows unsorted
    lambda: Condition(2, 1, ((1, ((),)), (1, ((0,),)))),  # row repeated
    lambda: Condition(2, 1, ((-1, ((),)),)),              # negative row
    lambda: Condition(2, 2, ((0, ((0,),)),)),             # row too narrow
    lambda: Condition(1, 1, ()),                          # k below 2
    lambda: cond({0: ((0, 3),)}),                         # letter 3 in a word
    lambda: cond({0: ((0,), (1,), ())}, d=2),             # row too wide
    lambda: cond({0: ((0,),)}).with_slot(0, 0, (0, 2)),
    lambda: cond({0: ((0,),)}).with_slot(0, 1, (0,)),
    lambda: cond({0: ((0,),)}).with_slot(0, -1, (0,)),
    lambda: cond({0: ((0,),)}).with_slot(-2, 0, (0,)),
])
def test_bad_condition_rejected(make):
    with pytest.raises(ValueError):
        make()


def test_derived_conditions_match_validated_ones():
    p = cond({2: ((0, 1), ()), 7: ((1,), (0,))}, d=2)
    q = p.with_slot(5, 1, (1, 1)).with_slot(2, 1, (0,))
    want = cond({2: ((0, 1), (0,)), 5: ((), (1, 1)), 7: ((1,), (0,))}, d=2)
    assert q == want and hash(q) == hash(want)
    assert q.row(5) == ((), (1, 1)) and q.row(3) is None
    assert p.row(5) is None  # the source is left as it was
    r, _ = decide_color(q, OrdSet.of([5, 9]), _first_letter(d=2))
    assert r == cond({2: ((0, 1), (0,)), 5: ((0, 0), (1, 1)),
                      7: ((1,), (0,)), 9: ((), (0, 0))}, d=2)


# ---------------------------------------------------------------------------
# deciding colors


def _first_letter(d=1, depth=2):
    return LevelColoring(
        k=2, d=d, depth=depth, r=2, kind="first-letter"
    )


def test_decide_color_constant():
    oracle = LevelColoring(
        k=2, d=1, depth=2, r=3, kind="constant", value=2
    )
    q, j = decide_color(Condition.empty(2, 1), OrdSet.of([4]), oracle)
    assert j == 2
    assert q.row(4) == ((0, 0),)


def test_decide_color_respects_forced_prefix():
    p = cond({4: ((1,),)})
    q, j = decide_color(p, OrdSet.of([4]), _first_letter())
    assert j == 1
    assert q.row(4) == ((1, 0),)
    assert leq(q, p)


def test_decide_color_deep_slot_untouched():
    p = cond({4: ((1, 0, 1),)})
    q, j = decide_color(p, OrdSet.of([4]), _first_letter())
    assert q == p
    assert j == 1


@st.composite
def _oracles_for(draw, k, d):
    depth = draw(st.integers(1, 3))
    kind = draw(st.sampled_from(["constant", "first-letter",
                                 "oracle-seeded"]))
    r = draw(st.integers(1, 3))
    return LevelColoring(k=k, d=d, depth=depth, r=r, kind=kind,
                         value=draw(st.integers(0, r - 1)),
                         seed=draw(st.integers(0, 9)))


@settings(max_examples=60, deadline=None)
@given(st.integers(2, 3), st.integers(1, 3), st.data())
def test_decide_color_generated(k, d, data):
    # row indices 0..7, p's own rows often, against rows drawn from 0..5:
    # some named rows exist and some are fresh
    p = data.draw(_conditions(k, d))
    index = st.one_of(st.sampled_from([alpha for alpha, _ in p.rows] or [0]),
                      st.integers(0, 7))
    a = OrdSet(tuple(sorted(data.draw(st.sets(index, min_size=d,
                                              max_size=d)))))
    oracle = data.draw(_oracles_for(k, d))
    q, color = decide_color(p, a, oracle)
    assert leq(q, p)
    assert Condition(q.k, q.d, q.rows) == q
    named = dict(zip(a.elems, range(d)))
    short = False
    for alpha, new in q.rows:
        old = p.row(alpha)
        assert old is not None or alpha in named  # only named rows are new
        for i in range(d):
            w = old[i] if old is not None else ()
            if named.get(alpha) == i:
                assert len(new[i]) >= oracle.depth and new[i][:len(w)] == w
                assert new[i] == w or len(w) < oracle.depth
                short |= len(w) < oracle.depth
            else:
                assert new[i] == w
    assert (q is p) == (not short)
    assert color == oracle.color(tuple(
        q.row(alpha)[i][:oracle.depth] for i, alpha in enumerate(a.elems)))


# ---------------------------------------------------------------------------
# meeting dense sets


def test_meet_dense_empty_schedule():
    start = Condition.empty(2, 1)
    assert list(meet_dense([], start)) == [start]


def test_meet_dense_one_step():
    start = Condition.empty(2, 1)
    chain = list(meet_dense([(0, 0, (0,))], start))
    assert len(chain) == 2
    assert chain[1].row(0) == ((0,),)


def test_meet_dense_rejects_non_extension():
    start = cond({0: ((0,),)})
    with pytest.raises(ValueError, match="write 0:0:'1' did not extend"):
        list(meet_dense([(0, 0, (1,))], start))


# ---------------------------------------------------------------------------
# tags


def test_matrix_tags_prefix_free_completions():
    tags = matrix_tags(2, 8)
    assert tags[0] == ()
    assert all(t[-1] != 0 for t in tags[1:])
    assert len(set(tags)) == 8
    # first k**m tags are exactly the words of length <= m
    assert all(len(t) <= 1 for t in tags[:2])
    assert all(len(t) <= 2 for t in tags[:4])
    assert all(len(t) <= 3 for t in tags)
    # leftmost completions to a common depth stay distinct
    done = {t + (0,) * (3 - len(t)) for t in tags}
    assert len(done) == 8


# ---------------------------------------------------------------------------
# the pipeline


def _external_check(witness, oracle):
    shapes = witness.shapes()
    for i, Y in enumerate(witness.branch_sets):
        assert is_dense_above(
            shapes[i], Y, witness.roots[i], witness.density_depth
        )
    for combo in itertools.product(*witness.branch_sets):
        words = tuple(x[: oracle.depth] for x in combo)
        assert oracle.color(words) == witness.color


def test_pipeline_constant_d1():
    oracle = LevelColoring(
        k=2, d=1, depth=2, r=2, kind="constant", value=1
    )
    res = run_pipeline(oracle, density_depth=3, width=4)
    assert res.ok and res.failure_code is None
    assert res.witness.color == 1
    assert len(res.witness.branch_sets[0]) == 4
    _external_check(res.witness, oracle)


def test_pipeline_first_letter_root():
    oracle = _first_letter()
    res = run_pipeline(oracle, density_depth=3, width=4)
    assert res.ok
    w = res.witness
    assert w.roots[0][0] == w.color
    _external_check(w, oracle)


def test_pipeline_seeded_d2():
    oracle = LevelColoring(
        k=2, d=2, depth=2, r=2, kind="oracle-seeded", seed=7
    )
    res = run_pipeline(oracle, density_depth=3, width=8)
    assert res.ok
    w = res.witness
    assert all(len(Y) == 8 for Y in w.branch_sets)
    assert w.density_depth == 3
    _external_check(w, oracle)
    # one tag step per matrix entry outside the separator column
    assert len(res.transcript["stages"]) == 2 * 7


def test_pipeline_chain_replays():
    oracle = LevelColoring(
        k=2, d=2, depth=2, r=2, kind="oracle-seeded", seed=7
    )
    res = run_pipeline(oracle, density_depth=3, width=8)
    assert res.ok
    t = res.transcript
    p = Condition.empty(2, 2)
    for step in t["chain"]:
        q = p
        for alpha, i, word in step:
            q = q.with_slot(alpha, i, word_from_str(word))
        assert leq(q, p)
        p = q
    # every matrix entry carries its coordinate's start word plus its tag
    for i, column in enumerate(t["matrix"]):
        for alpha, tag in zip(column, t["tags"]):
            assert p.row(alpha)[i] == word_from_str(t["start_words"][i] + tag)
    # the witness branches are the leftmost completions of those slots
    for i, Y in enumerate(res.witness.branch_sets):
        assert sorted(Y) == sorted(
            p.row(alpha)[i] + (0,) * (res.witness.depth - len(p.row(alpha)[i]))
            for alpha in t["matrix"][i])


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_pipeline_chain_has_no_idle_decide_steps(data):
    k = data.draw(st.integers(2, 3), label="k")
    d = data.draw(st.integers(1, 3), label="d")
    depth = data.draw(st.integers(1, 2), label="depth")
    width = data.draw(st.integers(1, 4), label="width")
    buffer = data.draw(st.integers(1, 2), label="buffer")
    kind = data.draw(st.sampled_from(["constant", "first-letter", "seeded"]))
    reach = max(m for m in range(3) if k ** m <= width)
    density = depth + data.draw(st.integers(0, reach), label="density")
    oracle = LevelColoring(k=k, d=d, depth=depth, r=2, kind=ORACLE_KINDS[kind],
                           seed=data.draw(st.integers(0, 9), label="seed"))
    res = run_pipeline(oracle, density_depth=density, width=width,
                       buffer=buffer)
    t = res.transcript
    # the separators' decide step, then one tag step per stage
    assert len(t["chain"]) == 1 + len(t["stages"])
    assert all(t["chain"])
    conds = [Condition.empty(k, d)]
    for step in t["chain"]:
        q = conds[-1]
        for alpha, i, word in step:
            q = q.with_slot(alpha, i, word_from_str(word))
        assert leq(q, conds[-1]) and q != conds[-1]
        conds.append(q)
    # before each stage's tag, the decide step of every cross tuple of the
    # matrix filled so far would return its input
    matrix = t["matrix"]
    for q, stage in zip(conds[1:], t["stages"]):
        i, col = stage["stage"]
        pools = [matrix[j][: col + 1] if j < i else matrix[j][:col]
                 for j in range(d)]
        for combo in itertools.product(*pools):
            assert decide_color(q, OrdSet(tuple(sorted(combo))), oracle)[0] is q
    # the per-stage invariants the pipeline holds by construction: each tag
    # step adds a new row, and after it every cross tuple of the matrix
    # filled so far has the run's color at the oracle depth, and the
    # condition extends the condition that decides the tuple
    empty = Condition.empty(k, d)
    for before, q, stage in zip(conds[1:], conds[2:], t["stages"]):
        i, col = stage["stage"]
        assert stage["fresh"] == matrix[i][col]
        assert before.row(stage["fresh"]) is None
        pools = [matrix[j][: col + 1] if j <= i else matrix[j][:col]
                 for j in range(d)]
        for combo in itertools.product(*pools):
            decided = decide_color(empty, OrdSet(tuple(sorted(combo))), oracle)
            assert leq(q, decided[0])
            cut = tuple(q.row(combo[j])[j][:depth] for j in range(d))
            assert oracle.color(cut) == t["color"]
    # last, so that a run breaking an invariant above names it
    assert res.ok


def test_readme_chain_replay_snippet(tmp_path):
    # the README's replay code, run as written on a fresh transcript
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("### The force-pipeline transcript", 1)[1]
    code = section.split("```python\n", 1)[1].split("```", 1)[0]
    oracle = LevelColoring(
        k=2, d=2, depth=2, r=2, kind="oracle-seeded", seed=4
    )
    blob = json.loads(json.dumps(
        run_pipeline(oracle, density_depth=3, width=4).transcript))
    scope = {"blob": blob}
    exec(code, scope)
    p = scope["p"]
    for i, column in enumerate(blob["matrix"]):
        for alpha, tag in zip(column, blob["tags"]):
            assert p.row(alpha)[i] == word_from_str(
                blob["start_words"][i] + tag)
    # the quoted chain, up to its "...", begins the chain in the compact
    # JSON of the command it names
    excerpt = section.split("```json\n", 1)[1].split("...", 1)[0]
    assert excerpt.startswith('"chain":[[[0,0,"00"],')
    argv = ["force-pipeline", "--d", "2", "--branches", "8",
            "--out", str(tmp_path)]
    assert cli.main(argv) == 0
    text = (tmp_path / "force-pipeline.json").read_text()
    assert text[text.index('"chain":'):].startswith(excerpt)


def test_pipeline_theta_cap_failure_code():
    oracle = LevelColoring(k=2, d=1, depth=2, r=2, kind="oracle-seeded")
    res = run_pipeline(oracle, density_depth=3, width=8, theta_start=4,
                       theta_cap=4)
    assert not res.ok
    assert res.failure_code == "theta-cap"


@pytest.mark.parametrize("k,d,depth,kind,width,buffer,density,theta,route", [
    (2, 1, 2, "constant", 4, 1, 4, 16, "exhaustive"),
    (2, 1, 3, "first-letter", 2, 2, 4, 5, "exhaustive"),
    (2, 2, 2, "seeded", 2, 1, 3, 8, "exhaustive"),
    (3, 2, 1, "first-letter", 3, 1, 2, 32, "exhaustive"),
    (2, 3, 2, "seeded", 1, 1, 2, 32, "exhaustive"),
])
def test_pipeline_indices_are_the_least_delta_witness(
        k, d, depth, kind, width, buffer, density, theta, route):
    # the Delta-system stage the pipeline replaces by its closed form:
    # decide every d-subset of the block from the empty condition, label it
    # by its collapsed rows, color and domain pattern, and extract
    oracle = LevelColoring(k=k, d=d, depth=depth, r=2, kind=ORACLE_KINDS[kind],
                           value=1, seed=5)
    h_target = d * (width * buffer + 1)
    umap, labels = {}, {}
    for a in itertools.combinations(range(theta), d):
        q_a, color = decide_color(Condition.empty(k, d), OrdSet(a), oracle)
        dom = tuple(alpha for alpha, _ in q_a.rows)
        umap[a] = OrdSet(dom)
        labels[a] = (tuple(row for _, row in q_a.rows), color,
                     tuple(dom.index(x) for x in a))
    assert len(set(labels.values())) == 1
    assert all(u.elems == a for a, u in umap.items())
    fam = Family(d, OrdSet(tuple(range(theta))), umap)
    res = extract_uniform(fam, h_target, labels)
    assert res.ok and res.method == route
    assert res.indices.elems == tuple(range(h_target))

    rows, color, pattern = res.g_value
    t = run_pipeline(oracle, density_depth=density, width=width,
                     buffer=buffer, theta_start=theta).transcript
    assert t["theta"] == theta
    assert t["rounds"][-1] == {"theta": theta, "extracted": True,
                               "method": "identity"}
    assert t["indices"] == list(res.indices.elems)
    assert t["color"] == color
    assert t["pattern"] == list(pattern)
    assert t["start_words"] == [word_to_str(rows[pattern[i]][i])
                                for i in range(d)]


def test_pipeline_transcript_deterministic():
    oracle = LevelColoring(
        k=2, d=1, depth=2, r=2, kind="oracle-seeded", seed=3
    )
    a = run_pipeline(oracle, density_depth=3, width=4)
    b = run_pipeline(oracle, density_depth=3, width=4)
    assert a.transcript == b.transcript


# ---------------------------------------------------------------------------
# serialization


@st.composite
def _oracles(draw):
    r = draw(st.integers(1, 4))
    return LevelColoring(
        k=draw(st.integers(2, 3)), d=draw(st.integers(1, 2)),
        depth=draw(st.integers(1, 2)), r=r,
        kind=draw(st.sampled_from(list(ORACLE_KINDS.values()))),
        value=draw(st.integers(0, r - 1)),
        seed=draw(st.integers(0, 10 ** 6)))


@settings(max_examples=60, deadline=None)
@given(_oracles())
def test_oracle_json_round_trip_generated(oracle):
    again = LevelColoring.from_json(json.loads(json.dumps(oracle.to_json())))
    assert again.to_json() == oracle.to_json()
    words = list(itertools.product(range(oracle.k), repeat=oracle.depth))
    for combo in itertools.product(words, repeat=oracle.d):
        assert again.color(combo) == oracle.color(combo)


def _load_checks():
    path = Path(__file__).resolve().parents[1] / "bench" / "checks.py"
    spec = importlib.util.spec_from_file_location("bench_checks", path)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


@pytest.mark.parametrize("name", sorted(ORACLE_KINDS))
@pytest.mark.parametrize("k, d, depth, r, seed", [
    (2, 1, 1, 2, 0),
    (2, 2, 2, 3, 5),
    (3, 2, 1, 2, 7),
    (2, 3, 2, 4, 11),
    (3, 1, 3, 3, 2),
])
def test_oracle_matches_the_bench_rebuild(tmp_path, monkeypatch, name, k, d,
                                          depth, r, seed):
    # the coloring force-pipeline hands the pipeline, against the one that
    # bench/checks.py rebuilds, independently, from the recorded oracle
    seen = []
    real = forcing.run_pipeline

    def spy(oracle, *args, **kwargs):
        seen.append(oracle)
        return real(oracle, *args, **kwargs)

    monkeypatch.setattr(forcing, "run_pipeline", spy)
    argv = ["force-pipeline", "--oracle", name, "--k", str(k), "--d", str(d),
            "--depth-oracle", str(depth), "--density", str(depth),
            "--branches", "1", "--buffer", "1", "--colors", str(r),
            "--value", str(r - 1), "--seed", str(seed), "--out", str(tmp_path)]
    assert cli.main(argv) == 0
    (oracle,) = seen
    recorded = json.loads((tmp_path / "force-pipeline.json").read_text())
    rebuilt = _load_checks().oracle_coloring(recorded["oracle"])
    level = list(itertools.product(range(k), repeat=depth))
    for combo in itertools.product(level, repeat=d):
        assert oracle.color(combo) == rebuilt(combo)


@pytest.mark.parametrize("k, d, depth", [
    (4, 3, 4),  # 4^12, about 16.7M entries
    (2, 1, 21),  # one doubling past the cap of 2^20
    (2, 1, 10 ** 9),  # the count is never formed in full
])
def test_seeded_oracle_table_cap(k, d, depth):
    with pytest.raises(ParameterError, match="over the cap"):
        LevelColoring(k=k, d=d, depth=depth, r=2, kind="oracle-seeded")


def test_oracle_round_trip():
    oracle = LevelColoring(
        k=2, d=2, depth=2, r=3, kind="oracle-seeded", seed=21
    )
    again = LevelColoring.from_json(oracle.to_json())
    ws = list(itertools.product(range(2), repeat=2))
    for pair in itertools.product(ws, repeat=2):
        assert oracle.color(pair) == again.color(pair)
