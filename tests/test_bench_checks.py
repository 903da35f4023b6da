"""The benchmark's verdict checks must reject a corrupted artifact.

bench/checks.py re-reads each job's artifact and raises CheckFailed on a
verdict contrary to the known answer.  For the census subcommands whose
check reads one field of the artifact, this test runs a job from the
benchmark's own generator, requires its real artifact to pass, and then
requires one corrupted field to fail: a census of only k colors, a
reported difference violation, a Ramsey lower bound that reaches m*.
"""

import importlib.util
import json
import sys
from pathlib import Path
from random import Random

import pytest

from polygrid import cli

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


def _census_job(kind_name):
    (kind,) = [kind for kind in workloads.CENSUS if kind.name == kind_name]
    argv, _, expect = kind.gen(Random(1), 0.0)
    return workloads.Job(0, kind.name, tuple(argv), expect)


def _set(blob, path, value):
    *parents, last = path
    for key in parents:
        blob = blob[key]
    blob[last] = value


@pytest.mark.parametrize("kind, path, corrupt", [
    ("product-bound/sampled-k1", ["min_census"], lambda job: job.expect["k"]),
    ("product-bound/sampled-k2", ["min_census"], lambda job: job.expect["k"]),
    ("difference-check", ["violations"],
     lambda job: [[[0, 1], [0, 2], [0, 0]]]),
    ("ramsey", ["budget", "best_lower_bound"],
     lambda job: job.expect["m_star"]),
], ids=["product-bound-k1", "product-bound-k2", "difference-check", "ramsey"])
def test_check_rejects_one_corrupted_field(tmp_path, kind, path, corrupt):
    job = _census_job(kind)
    rc = cli.main([*job.argv, "--out", str(tmp_path)])
    checks.check(job, rc, tmp_path)
    artifact = tmp_path / f"{job.subcommand}.json"
    blob = json.loads(artifact.read_text())
    _set(blob, path, corrupt(job))
    artifact.write_text(json.dumps(blob))
    with pytest.raises(checks.CheckFailed):
        checks.check(job, rc, tmp_path)
