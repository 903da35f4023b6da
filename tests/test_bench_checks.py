"""The benchmark's verdict checks must reject a corrupted artifact.

bench/checks.py re-reads each job's artifact and raises CheckFailed on a
verdict contrary to the known answer.  For the census subcommands whose
check reads one field of the artifact, this test runs a job from the
benchmark's own generator, requires its real artifact to pass, and then
requires one corrupted field to fail: a census of only k colors, a
reported difference violation, a Ramsey lower bound that reaches m*.
For the grid searches it corrupts the grid witness that the check
re-checks: one branch word changed so that density fails, or the color.
The sideways table and the ph-refute artifact get one corruption of what
their checks read: a flipped table entry, the second color set equal to
the first, or a refutation marked unverified.
The re-check's rebuild of a level coloring must also agree with the
program's own colors.
"""

import importlib.util
import itertools
import json
import sys
from collections import Counter
from pathlib import Path
from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polygrid import cli
from polygrid.hl import LevelColoring
from polygrid.trees import words

_BENCH = Path(__file__).resolve().parents[1] / "bench"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"bench_{name}",
                                                  _BENCH / f"{name}.py")
    mod = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = mod  # dataclasses look their module up
    spec.loader.exec_module(mod)
    return mod


checks = _load("checks")
workloads = _load("workloads")


def _census_job(kind_name, seed=1):
    (kind,) = [kind for kind in workloads.CENSUS if kind.name == kind_name]
    argv, _, expect = kind.gen(Random(seed), 0.0)
    return workloads.Job(0, kind.name, tuple(argv), expect)


def _search_job(kind_name):
    (kind,) = [kind for kind in workloads.WORKLOADS["search"]()
               if kind.name == kind_name]
    argv, _, expect = kind.gen(Random(1), 0.0)
    return workloads.Job(0, kind.name, tuple(argv), expect)


def _set(blob, path, value):
    *parents, last = path
    for key in parents:
        blob = blob[key]
    blob[last] = value


@pytest.mark.parametrize("kind, seed, path, corrupt", [
    ("product-bound/sampled-k1", 1, ["min_census"], lambda job: job.expect["k"]),
    ("product-bound/sampled-k2", 1, ["min_census"], lambda job: job.expect["k"]),
    ("difference-check", 1, ["violations"],
     lambda job: [[[0, 1], [0, 2], [0, 0]]]),
    # seed 1 draws (1, 3), exact at exit 0; seed 0 draws (2, 2), exit 2
    ("ramsey", 1, ["m_star"], lambda job: job.expect["m_star"] - 1),
    ("ramsey", 0, ["budget", "best_lower_bound"],
     lambda job: job.expect["m_star"]),
], ids=["product-bound-k1", "product-bound-k2", "difference-check", "ramsey",
        "ramsey-budget"])
def test_check_rejects_one_corrupted_field(tmp_path, kind, seed, path, corrupt):
    job = _census_job(kind, seed)
    rc = cli.main([*job.argv, "--out", str(tmp_path)])
    checks.check(job, rc, tmp_path)
    artifact = tmp_path / f"{job.subcommand}.json"
    blob = json.loads(artifact.read_text())
    _set(blob, path, corrupt(job))
    artifact.write_text(json.dumps(blob))
    with pytest.raises(checks.CheckFailed):
        checks.check(job, rc, tmp_path)


def _lose_a_class(blob, key):
    """Replace a branch that alone holds its depth-D prefix class by
    another branch of its set, so that the class is empty."""
    grid = blob[key]
    D = grid["density_depth"]
    ys = grid["branch_sets"][0]
    classes = Counter(y[:D] for y in ys)
    (lone, *_) = [i for i, y in enumerate(ys) if classes[y[:D]] == 1]
    ys[lone] = next(y for y in ys if y[:D] != ys[lone][:D])


def _flip_color(blob, key):
    blob[key]["color"] = (blob[key]["color"] + 1) % blob["coloring"]["r"]


@pytest.mark.parametrize("kind, key", [
    ("grid-search", "witness"), ("hl-derive", "grid")])
@pytest.mark.parametrize("corrupt, what", [
    (_lose_a_class, "not dense"), (_flip_color, "recolors away")])
def test_grid_recheck_rejects_a_corrupted_witness(tmp_path, kind, key,
                                                  corrupt, what):
    job = _search_job(kind)
    rc = cli.main([*job.argv, "--out", str(tmp_path)])
    checks.check(job, rc, tmp_path)
    artifact = tmp_path / f"{job.subcommand}.json"
    blob = json.loads(artifact.read_text())
    corrupt(blob, key)
    artifact.write_text(json.dumps(blob))
    with pytest.raises(checks.CheckFailed, match=what):
        checks.check(job, rc, tmp_path)


def _flip_an_entry(blob):
    key = next(iter(blob["table"]))
    blob["table"][key] = 1 - blob["table"][key]


def _equal_colors(blob):
    blob["color_b"] = blob["color_a"]


def _unverified(blob):
    blob["verified"] = False


@pytest.mark.parametrize("job, corrupt, what", [
    (lambda: _census_job("sideways-build"), _flip_an_entry, "colored"),
    (lambda: _search_job("ph-refute/n1"), _equal_colors,
     "the two colors agree"),
    (lambda: _search_job("ph-refute/n1"), _unverified, "not verified"),
], ids=["sideways-entry", "ph-refute-colors", "ph-refute-verified"])
def test_recheck_rejects_a_corrupted_table_or_refutation(tmp_path, job,
                                                         corrupt, what):
    job = job()
    rc = cli.main([*job.argv, "--out", str(tmp_path)])
    assert rc == 0
    checks.check(job, rc, tmp_path)
    artifact = tmp_path / f"{job.subcommand}.json"
    blob = json.loads(artifact.read_text())
    corrupt(blob)
    artifact.write_text(json.dumps(blob))
    with pytest.raises(checks.CheckFailed, match=what):
        checks.check(job, rc, tmp_path)


@settings(max_examples=100, deadline=None)
@given(st.sampled_from(["constant", "level-parity", "seeded", "planted-grid"]),
       st.integers(1, 2), st.integers(1, 3), st.integers(2, 3), st.data())
def test_level_coloring_matches_the_artifact_rebuild(kind, d, depth, r, data):
    # the re-check rebuilds a coloring from its artifact alone; every level
    # tuple must get the same color from both, through the level kernel
    root = st.lists(st.integers(0, 1), max_size=depth)
    roots = (tuple(tuple(data.draw(root)) for _ in range(d))
             if kind == "planted-grid" else ())
    gamma = LevelColoring(k=2, d=d, depth=depth, r=r, kind=kind,
                          value=data.draw(st.integers(0, r - 1)),
                          seed=data.draw(st.integers(0, 2 ** 16)), roots=roots)
    blob = gamma.to_json()
    for m in range(depth + 1):
        keys = list(itertools.product(words(2, m), repeat=d))
        assert gamma._level_colors(m, keys) == [
            checks.level_color(blob, key) for key in keys]
