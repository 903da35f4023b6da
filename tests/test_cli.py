"""The batch runner: config parsing, exit codes, artifact determinism."""

import contextlib
import hashlib
import io
import itertools
import json
import os
import shlex
import subprocess
import sys
import tempfile
import tracemalloc
from collections import Counter
from pathlib import Path
from random import Random
from typing import NamedTuple

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from polygrid import ParameterError, antiramsey, cli, hl, trees
from polygrid.deltasys import Family
from polygrid.ordset import OrdSet
from reference import family_json, sideways_build


def run(tmp_path, command, *args):
    return cli.main([command, "--out", str(tmp_path), *args])


def artifact_digests(out: Path) -> dict[str, str]:
    """File name -> sha256 prefix of each artifact in out, every one a
    compact JSON artifact: of its content in the indent=2 form its digest
    was pinned in."""
    digests = {}
    for path in out.iterdir():
        assert path.suffix == ".json", path.name
        data = path.read_bytes()
        content = json.loads(data)
        assert data == _dumped(content)
        pinned = json.dumps(content, sort_keys=True, indent=2) + "\n"
        digests[path.name] = hashlib.sha256(pinned.encode()).hexdigest()[:16]
    return digests


# ---------------------------------------------------------------------------
# config parsing


def test_parse_basic():
    cfg = cli.parse_config(["ramsey", "--n", "1", "--k", "2"])
    assert cfg.command == "ramsey"
    assert cfg.params["n"] == 1
    assert cfg.params["k"] == 2


def test_parse_help_is_none(capsys):
    assert cli.parse_config(["--help"]) is None
    assert "subcommands" in capsys.readouterr().out


def test_main_help_prints_usage(capsys):
    assert cli.main(["--help"]) == 0
    assert capsys.readouterr().out == cli._usage() + "\n"


def test_config_file_flag_override(tmp_path):
    f = tmp_path / "run.cfg"
    f.write_text("k=1\nseed=5\n# comment line\n")
    cfg = cli.parse_config(["ramsey", "--config", str(f), "--k", "2"])
    assert cfg.params["k"] == 2
    assert cfg.seed == 5


def test_unknown_key_rejected():
    with pytest.raises(ParameterError):
        cli.parse_config(["ramsey", "--frobnicate", "1"])


def test_unknown_subcommand_rejected():
    with pytest.raises(ParameterError):
        cli.parse_config(["transmogrify"])


def test_non_integer_rejected():
    with pytest.raises(ParameterError):
        cli.parse_config(["ramsey", "--n", "one"])


def test_usage_exit_code():
    assert cli.main(["ramsey", "--frobnicate", "1"]) == 64
    assert cli.main(["transmogrify"]) == 64


@pytest.mark.parametrize("args", [
    ["ramsey", "--threads", "1"],
    ["ph-refute", "--sample", "5"],
    ["product-bound", "--samples", "-1"],
    ["ddf-check", "--d", "0"],
    ["ddf-check", "--depth", "2", "--density", "3"],
    ["ddf-check", "--mcap", "0"],
    ["ph-refute", "--entry-bound", "4"],  # no cofinal table fits the bound
    ["ph-refute", "--n", "0"],
    ["ph-refute", "--n", "-1"],
    ["ph-refute", "--spread", "0"],
    ["force-pipeline", "--k", "1"],
    ["force-pipeline", "--d", "0"],
    ["force-pipeline", "--oracle", "bogus"],
    ["force-pipeline", "--oracle", "table"],  # no flag supplies a table
    ["force-pipeline", "--oracle", "level-parity"],
    ["force-pipeline", "--oracle", "constant", "--value", "2"],
    ["force-pipeline", "--colors", "0"],
    ["force-pipeline", "--depth-oracle", "0"],
    ["force-pipeline", "--density", "1"],  # below the oracle depth
    ["force-pipeline", "--branches", "0"],
    ["force-pipeline", "--buffer", "-1"],
    ["force-pipeline", "--d", "1", "--branches", "4", "--theta", "0"],
    ["force-pipeline", "--d", "1", "--branches", "4", "--theta", "-3"],
    # a seeded oracle over 4^12 word tuples is over the table cap
    ["force-pipeline", "--k", "4", "--d", "3", "--depth-oracle", "4",
     "--density", "4", "--branches", "1", "--buffer", "1"],
    # 64 + 64^2 + 64^3 + 64^4 = 17.0M table entries, over the table cap
    ["ph-refute", "--entry-bound", "64", "--n", "3"],
    ["delta-extract", "--h", "0"],
    ["delta-extract", "--n", "0"],
    ["delta-extract", "--planted", "50", "--num-indices", "20"],
    ["delta-extract", "--planted", "-1"],
    ["delta-extract", "--num-indices", "-3"],
    ["ramsey", "--n", "0"],
    ["ramsey", "--k", "0"],
    ["ramsey", "--budget", "-5"],  # --budget 0 is a budget verdict, exit 2
    ["difference-check", "--mode", "bogus"],
    ["difference-check", "--size", "1"],
    ["difference-check", "--n", "0"],
    ["product-bound", "--n", "0"],
    ["ddf-check", "--k", "1"],
    ["sideways-build", "--k", "1"],
    ["hl-derive", "--height", "0"],
    ["delta-verify", "--family", "unsorted.json"],  # indices [3, 1, 2]
    ["hl-derive", "--roots", "5"],  # a letter outside 0..k-1
    ["sideways-build", "--d", "0", "--jmap", "first-letter"],
    # branches with letter 10, which has no digit-string form
    ["sideways-build", "--k", "11", "--depth", "2", "--j-bound", "1"],
    # branch letter 2 in a binary tree
    ["ddf-check", "--d", "1", "--depth", "2", "--density", "2",
     "--zfile", "z.json"],
    # labels for key 0 only
    ["delta-extract", "--family", "partial.json", "--h", "2"],
    # no cone grid for this coloring; the height is still checked first
    ["hl-derive", "--coloring", "seeded", "--height", "0"],
    ["hl-derive", "--coloring", "seeded", "--height", "-1"],
    # a table with no entry for the root
    ["grid-search", "--coloring", "table", "--table", "partial.table",
     "--depth", "2", "--density", "1"],
    # a total table whose colors all lie outside 0..r-1
    ["grid-search", "--coloring", "table", "--table", "five.table",
     "--depth", "2", "--density", "1"],
    ["hl-derive", "--coloring", "table", "--table", "five.table",
     "--depth", "2", "--density", "1"],
    # digit strings where lists of words belong
    ["ddf-check", "--d", "2", "--depth", "1", "--density", "1",
     "--mcap", "1", "--zfile", "flat.json"],
    # h below the dimension: no key lies inside an h-set
    ["delta-extract", "--num-indices", "30", "--h", "1"],
    ["delta-extract", "--num-indices", "20", "--n", "3", "--h", "2"],
    # k^(density - depth) has over 4,300 digits; it is never written out
    ["force-pipeline", "--density", "20000"],
    ["force-pipeline", "--density", "1000000000"],
    # every label is the list [0], which is not a JSON scalar
    ["delta-extract", "--family", "lists.json", "--h", "3"],
    # each would enumerate over 2^20 tuples or keys before any check
    ["sideways-build", "--depth", "12"],  # 2^24 pairs of branches
    ["ddf-check", "--depth", "12"],  # 2^24 pairs of branches
    ["ddf-check", "--d", "12"],  # 2^24 tuples of 12 branches
    ["delta-extract", "--n", "12"],  # C(200, 12) keys
    # empty reservoirs: no tag row above any separator
    ["force-pipeline", "--buffer", "0", "--branches", "2"],
    # no branches (-1 crashed when the density needs no tags)
    ["force-pipeline", "--branches", "0", "--density", "2"],
    ["force-pipeline", "--branches", "-1", "--density", "2"],
    # a certificate of dimension 24 would tabulate 2^24 patterns
    ["delta-extract", "--n", "24"],
    ["delta-extract", "--num-indices", "24", "--n", "24", "--h", "24",
     "--planted", "0"],
    ["delta-extract", "--family", "dim24.json", "--h", "24"],
    ["delta-verify", "--family", "dim24.json"],
    # censuses over 2^20 products or sets
    ["product-bound", "--size", "40"],  # C(40, 6)^2 = 1.5e13 products
    ["product-bound", "--size", "13"],  # C(13, 6)^2 = 2,944,656 products
    ["product-bound", "--size", "13", "--samples", "1048577"],
    ["difference-check", "--n", "3", "--size", "200"],  # C(200, 4) sets
    ["difference-check", "--size", "1449"],  # C(1449, 2) = 1,049,076 sets
    ["difference-check", "--size", "2000"],  # C(2000, 2) = 1,999,000 sets
    # surrogate kernels that would build over 2^20 level keys and prefix
    # letters: 2^20 branches of depth 20, 8 cone branches of depth 20000
    ["grid-search", "--depth", "20"],
    ["hl-derive", "--depth", "20000"],
    # just over: 2,097,153 and 1,050,593 entries
    ["grid-search", "--depth", "17"],
    ["hl-derive", "--depth", "512"],
    ["grid-search", "--d", "3", "--depth", "7"],  # 2^21 branch tuples
    # no root fits a cap below one; that is not a "no grid" verdict
    ["grid-search", "--cap", "0"],
    ["grid-search", "--cap", "-3"],
    ["grid-search", "--coloring", "first-letter"],  # top height only
    # a superscript two passes str.isdigit, but int() rejects it
    ["hl-derive", "--coloring", "planted-grid", "--roots", "\u00b2"],
    ["grid-search", "--coloring", "planted-grid", "--roots", "\u00b2"],
    ["delta-extract", "--budget", "-1"],  # --budget 0 is exit 2
    # input files with digits other than ASCII 0-9, which int() reads:
    # Arabic-Indic one-one, keys " 0" and "+0", a superscript two
    ["ddf-check", "--d", "1", "--depth", "2", "--density", "1",
     "--mcap", "2", "--zfile", "arabic.json"],
    ["delta-verify", "--family", "space.json"],
    ["delta-verify", "--family", "plus.json"],
    ["grid-search", "--coloring", "table", "--table", "super.table",
     "--depth", "2", "--density", "1"],
    # a key "01", read as (1,), would drop the entry of key "1"
    ["delta-verify", "--family", "zero.json"],
    ["delta-verify", "--family", "zero-label.json"],
    # an arena too small for any side, checked before the threshold search
    # that m_seq runs for these (n, k)
    ["product-bound", "--n", "2", "--k", "2", "--size", "1"],
    ["product-bound", "--n", "9", "--k", "9", "--size", "0", "--samples",
     "0"],
])
def test_bad_parameter_is_usage_error(tmp_path, monkeypatch, capsys, args):
    # a bad flag or input file must not read as a result: exit 64, one
    # usage line on stderr and nothing written
    monkeypatch.chdir(tmp_path)
    Path("unsorted.json").write_text(json.dumps(
        {"dim": 1, "indices": [3, 1, 2],
         "umap": {"1": [1], "2": [2], "3": [3]}}))
    Path("z.json").write_text(json.dumps([["00"], ["01"], ["11"], ["22"]]))
    Path("partial.json").write_text(json.dumps(
        {"family": {"dim": 1, "indices": [0, 1, 2, 3],
                    "umap": {str(i): [i] for i in range(4)}},
         "labels": {"0": 1}}))
    table = {"k": 2, "d": 1, "depth": 2, "r": 2, "kind": "table"}
    Path("partial.table").write_text(json.dumps(
        {**table, "table": {"0": 0, "1": 0}}))
    Path("five.table").write_text(json.dumps(
        {**table, "table": dict.fromkeys(
            ["", "0", "1", "00", "01", "10", "11"], 5)}))
    Path("flat.json").write_text(json.dumps(["01", "10"]))
    Path("arabic.json").write_text(json.dumps(
        [["\u0661\u0661"], ["00"], ["01"], ["10"]]))
    for name, key in [("space", " 0"), ("plus", "+0")]:
        Path(f"{name}.json").write_text(json.dumps(
            {"dim": 1, "indices": [0, 1, 2],
             "umap": {key: [0], "1": [1], "2": [2]}}))
    zero = {"dim": 1, "indices": [0, 1, 2],
            "umap": {"0": [0], "1": [1], "2": [2]}}
    Path("zero-label.json").write_text(json.dumps(
        {"family": zero, "labels": {"0": 0, "1": 1, "2": 2, "01": 5}}))
    zero["umap"]["01"] = [5]
    Path("zero.json").write_text(json.dumps(zero))
    Path("super.table").write_text(json.dumps(
        {**table, "table": dict.fromkeys(
            ["", "0", "1", "00", "01", "10", "1\u00b2"], 0)}))
    pairs = list(itertools.combinations(range(5), 2))
    Path("lists.json").write_text(json.dumps(
        {"family": family_json(Family(2, OrdSet.of(range(5)),
                                      {b: OrdSet.of(b) for b in pairs})),
         "labels": {f"{a},{b}": [0] for a, b in pairs}}))
    top = tuple(range(24))
    Path("dim24.json").write_text(json.dumps(
        family_json(Family(24, OrdSet(top), {top: OrdSet(top)}))))
    out = tmp_path / "out"
    assert run(out, *args) == 64
    assert not out.exists()
    err = capsys.readouterr().err
    assert err.startswith("usage error: ") and err.count("\n") == 1
    if args == ["product-bound", "--samples", "-1"]:
        assert err == ("usage error: --samples must be >= 0 "
                       "(0 enumerates every product)\n")


@pytest.mark.parametrize("command", ["grid-search", "hl-derive"])
@pytest.mark.parametrize("kind", [{"kind": "first-letter"},
                                  {"kind": "oracle-seeded", "seed": 3}])
def test_table_file_of_a_top_height_kind_is_usage_error(tmp_path, command,
                                                        kind):
    # the surrogate vote reads every height, so a --table file whose kind
    # colors only the top height is refused: exit 64, nothing written
    path = tmp_path / "top.table"
    path.write_text(json.dumps({"k": 2, "d": 1, "depth": 2, "r": 2, **kind}))
    out = tmp_path / "out"
    assert run(out, command, "--coloring", "table", "--table", str(path)) == 64
    assert not out.exists()


@pytest.mark.parametrize("args, code", [
    (["grid-search", "--depth", "16"], 0),  # 983,041 built entries
    (["hl-derive", "--depth", "511"], 0),  # 1,046,497 built entries
    # roots at the density depth: one cone tuple, not 2^21; the stems
    # grown past it have no branch in the grid, so the derivation is partial
    (["hl-derive", "--d", "3", "--depth", "8", "--density", "7",
      "--roots", "0000000,0000000,0000000"], 1),
    (["grid-search", "--depth", "14"], 0),  # 212,993 built entries
])
def test_surrogate_just_under_the_cap_runs(tmp_path, args, code):
    assert run(tmp_path, *args) == code
    assert (tmp_path / f"{args[0]}.json").exists()


@pytest.mark.parametrize("check", ["grid", "hl"])
def test_witness_recheck_failure_exits_70(tmp_path, monkeypatch, capsys,
                                          check):
    # hl-derive with one witness re-check made to fail: the re-check is a
    # raise, so the job exits 70 and writes nothing
    if check == "grid":
        monkeypatch.setattr(hl, "validate_grid_witness",
                            lambda w, gamma: (False, {}))
    else:
        monkeypatch.setattr(hl, "verify_hl_witness", lambda gamma, w: False)
    out = tmp_path / "out"
    assert run(out, "hl-derive") == 70
    assert "fails its re-check" in capsys.readouterr().err
    assert not out.exists()


def test_module_entry_point():
    # `python -m polygrid.cli` runs main and exits with its code
    src = Path(cli.__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": str(src)}
    proc = subprocess.run([sys.executable, "-m", "polygrid.cli"], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("usage: polygrid <subcommand>")
    proc = subprocess.run([sys.executable, "-m", "polygrid.cli", "nosuch"],
                          env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 64
    assert "unknown subcommand" in proc.stderr


# one argv per subcommand family, seeded where the subcommand draws
_HASH_SEED_ARGVS = [
    ["grid-search", "--coloring", "seeded", "--d", "2", "--depth", "3",
     "--cap", "8", "--seed", "3"],
    ["hl-derive", "--coloring", "level-parity", "--height", "2"],
    ["force-pipeline", "--d", "2", "--branches", "8"],
    ["sideways-build", "--d", "2", "--depth", "3", "--j-bound", "2"],
    ["delta-extract", "--num-indices", "40", "--planted", "8", "--h", "4"],
    ["product-bound", "--k", "2", "--size", "24", "--samples", "50",
     "--seed", "5"],
    ["difference-check", "--n", "2", "--size", "8", "--mode", "seeded",
     "--seed", "7"],
    ["ph-refute", "--entry-bound", "32"],
    ["ramsey", "--n", "1", "--k", "2"],
]


def test_artifacts_do_not_depend_on_the_hash_seed(tmp_path):
    # exit code, stdout and artifact bytes agree under two string hash
    # seeds; the two runs of an argv go side by side
    src = Path(cli.__file__).resolve().parents[1]
    for i, argv in enumerate(_HASH_SEED_ARGVS):
        outs = {seed: tmp_path / f"{i}-{seed}" for seed in ("0", "12345")}
        procs = {seed: subprocess.Popen(
            [sys.executable, "-m", "polygrid.cli", *argv, "--out", str(out)],
            env={**os.environ, "PYTHONPATH": str(src),
                 "PYTHONHASHSEED": seed},
            stdout=subprocess.PIPE, stderr=subprocess.PIPE)
            for seed, out in outs.items()}
        seen = []
        for seed, proc in procs.items():
            stdout, stderr = proc.communicate(timeout=60)
            assert proc.returncode == 0, (argv, stderr)
            seen.append((stdout, {p.name: p.read_bytes()
                                  for p in outs[seed].iterdir()}))
        assert seen[0] == seen[1], argv
        assert seen[0][1], argv


# one cheap run per subcommand, from which the sweep varies one flag
_SWEEP_BASE = {
    "ramsey": ["--k", "1"],
    "difference-check": ["--size", "6"],
    "product-bound": ["--size", "6"],
    "ph-refute": ["--entry-bound", "16"],
    "delta-verify": ["--family", "fam.json"],
    "delta-extract": ["--num-indices", "20", "--planted", "6", "--h", "3"],
    "force-pipeline": ["--d", "1", "--branches", "4"],
    "hl-derive": ["--depth", "4", "--density", "2"],
    "grid-search": ["--depth", "3", "--density", "2"],
    "sideways-build": [],
    "ddf-check": [],
}


def _write_sweep_family() -> None:
    """The fam.json that the delta-verify base run reads from the cwd."""
    fam = Family(1, OrdSet.of(range(3)),
                 {(i,): OrdSet.of([i]) for i in range(3)})
    Path("fam.json").write_text(json.dumps(family_json(fam)))


def _sweep_cases():
    for cmd, base in _SWEEP_BASE.items():
        schema = {**cli._COMMON, **cli._COMMANDS[cmd][0]}
        for key, (typ, _) in schema.items():
            if typ is int:
                for value in ("-1", "0"):
                    yield [cmd, *base, f"--{key}", value]
            elif key in ("mode", "oracle", "coloring", "jmap"):
                yield [cmd, *base, f"--{key}", "bogus"]


def test_flag_sweep_keeps_exit_code_contract(tmp_path, monkeypatch, capsys):
    # each int flag at -1 and at 0, each kind flag naming no kind: a verdict
    # or a usage error, never a crash, and a usage error writes nothing
    assert set(_SWEEP_BASE) == set(cli._COMMANDS)
    monkeypatch.chdir(tmp_path)
    _write_sweep_family()
    for i, argv in enumerate(_sweep_cases()):
        out = tmp_path / f"out{i}"
        rc = run(out, *argv)
        assert rc in (0, 1, 2, 64), argv
        assert "Traceback" not in capsys.readouterr().err, argv
        if rc == 64:
            assert not out.exists(), argv


# what a run of each subcommand leaves: its JSON artifact, and the
# pipeline's witness when it found one; the theta-cap run finds none, and
# a usage error leaves no directory
@pytest.mark.parametrize("argv, code, names", [
    *(([cmd, *base], 0, [f"{cmd}.json"]) for cmd, base in _SWEEP_BASE.items()
      if cmd != "force-pipeline"),
    (["force-pipeline", *_SWEEP_BASE["force-pipeline"]], 0,
     ["force-pipeline-witness.json", "force-pipeline.json"]),
    (["force-pipeline", "--d", "1", "--theta", "4", "--theta-cap", "4"], 2,
     ["force-pipeline.json"]),
    (["ramsey", "--n", "0"], 64, None),
])
def test_a_run_writes_its_json_artifacts_and_nothing_else(
        tmp_path, monkeypatch, argv, code, names):
    monkeypatch.chdir(tmp_path)
    _write_sweep_family()
    out = tmp_path / "out"
    assert run(out, *argv) == code
    if names is None:
        assert not out.exists()
    else:
        assert sorted(p.name for p in out.iterdir()) == names


def test_internal_fault_exits_70(monkeypatch, capsys):
    def broken(cfg):
        raise RuntimeError("boom")

    schema, _ = cli._COMMANDS["ramsey"]
    monkeypatch.setitem(cli._COMMANDS, "ramsey", (schema, broken))
    assert cli.main(["ramsey"]) == 70
    err = capsys.readouterr().err
    assert "Traceback" in err and "RuntimeError: boom" in err


def test_outdir_env(tmp_path, monkeypatch):
    monkeypatch.setenv(cli.OUTDIR_ENV, str(tmp_path))
    cfg = cli.parse_config(["ramsey"])
    assert cfg.outdir == tmp_path


# ---------------------------------------------------------------------------
# exit codes and artifacts


def test_ramsey_exit_and_artifacts(tmp_path, capsys):
    assert run(tmp_path, "ramsey", "--n", "1", "--k", "1") == 0
    assert capsys.readouterr().out.strip() == "3"
    blob = json.loads((tmp_path / "ramsey.json").read_text())
    assert (blob["n"], blob["k"], blob["m_star"], blob["m_k"]) == (1, 1, 3, 6)
    assert blob["seed"] == 0


def test_ramsey_budget_exit(tmp_path):
    assert run(tmp_path, "ramsey", "--n", "2", "--k", "2",
               "--budget", "1000") == 2
    blob = json.loads((tmp_path / "ramsey.json").read_text())
    assert blob["ok"] is False
    assert blob["budget"]["best_lower_bound"] >= 1


@pytest.mark.parametrize("budget", [0, 1, 10_000, 60_000])
def test_ramsey_1_3_is_exact_by_certificate(tmp_path, monkeypatch, capsys,
                                            budget):
    # 17 from the GF(16) coloring and the recurrence, with no search node
    monkeypatch.setattr(antiramsey, "_search_bad", None)
    assert run(tmp_path, "ramsey", "--n", "1", "--k", "3",
               "--budget", str(budget)) == 0
    assert capsys.readouterr().out == "17\n"
    blob = json.loads((tmp_path / "ramsey.json").read_text())
    # an exit-0 artifact has the members it had before bound records
    assert sorted(blob) == ["bad_coloring", "bad_coloring_at", "k", "m_k",
                            "m_star", "n", "ok", "seed"]
    assert (blob["m_star"], blob["m_k"], blob["bad_coloring_at"]) == (17, 34, 16)
    assert len(blob["bad_coloring"]) == 120


def test_ramsey_one_color_needs_no_search(tmp_path, monkeypatch, capsys):
    # m*(n, 1) = n + 2: the recurrence meets the base, even at budget 0
    monkeypatch.setattr(antiramsey, "_search_bad", None)
    assert run(tmp_path, "ramsey", "--n", "2", "--k", "1",
               "--budget", "0") == 0
    assert capsys.readouterr().out == "4\n"


@pytest.mark.parametrize("budget", [0, 7, 25_000])
def test_ramsey_2_2_record(tmp_path, budget):
    # the whole budget goes to m = 13, above the certificate at 12
    assert run(tmp_path, "ramsey", "--n", "2", "--k", "2",
               "--budget", str(budget)) == 2
    blob = json.loads((tmp_path / "ramsey.json").read_text())
    assert (blob["budget"]["nodes_used"], blob["budget"]["best_lower_bound"],
            blob["budget"]["exhausted_at"]) == (budget + 1, 12, 13)
    rec = blob["record"]
    assert {key: rec[key] for key in ("lower", "lower_source", "upper",
                                      "upper_source", "bad_coloring_at")} == {
        "lower": 13, "lower_source": "certificate", "upper": 21,
        "upper_source": "recurrence", "bad_coloring_at": 12}
    bad = {tuple(map(int, key.split(","))): c
           for key, c in rec["bad_coloring"].items()}
    assert antiramsey.is_bad_coloring(bad, 2, 12, 2)


def test_ramsey_deep_search_is_budget(tmp_path):
    # C(24, 21) = 2,024 edges: a search one frame per edge passed the
    # recursion limit here
    assert run(tmp_path, "ramsey", "--n", "20", "--budget", "2000") == 2
    blob = json.loads((tmp_path / "ramsey.json").read_text())
    assert blob["budget"]["nodes_used"] == 2001
    assert blob["budget"]["exhausted_at"] == 24


@pytest.mark.parametrize("args, count", [
    (["product-bound", "--size", "8"], 28 ** 2),  # C(8, 6)^2 products
    (["product-bound", "--size", "8", "--samples", "25"], 25),
    (["difference-check", "--size", "8"], 28),  # C(8, 2) sets
])
def test_census_runs_at_the_cap(tmp_path, monkeypatch, args, count):
    # at the cap the census runs; one below, it exits 64 and writes nothing
    monkeypatch.setattr(cli, "CAP", count)
    assert run(tmp_path / "at", *args) == 0
    monkeypatch.setattr(cli, "CAP", count - 1)
    assert run(tmp_path / "over", *args) == 64
    assert not (tmp_path / "over").exists()


def test_difference_check(tmp_path):
    assert run(tmp_path, "difference-check", "--n", "1", "--size", "6",
               "--mode", "identity") == 0
    blob = json.loads((tmp_path / "difference-check.json").read_text())
    assert blob["violations"] == []
    assert blob["eligible_pairs"] > 0


def test_product_bound_exhaustive(tmp_path):
    assert run(tmp_path, "product-bound", "--n", "1", "--k", "1",
               "--size", "7") == 0
    blob = json.loads((tmp_path / "product-bound.json").read_text())
    assert blob["violations"] == 0
    assert blob["min_census"] >= 2


def test_product_bound_says_no_on_a_constant_coloring(tmp_path, monkeypatch):
    # no arena fails the bound at the side size m_seq gives, so the
    # coloring of fresh arenas is made constant: every product has one
    # color, and each is counted as a violation
    monkeypatch.setattr(antiramsey, "c_full",
                        lambda arena, vec: antiramsey.TupleColor(0, 0))
    arena = antiramsey.Arena(size=8, dim=1)
    side = OrdSet.of(range(antiramsey.m_seq(1, 1)))
    assert antiramsey.verify_product_bound(arena, [side, side], 1) == (
        False, {antiramsey.TupleColor(0, 0)})
    assert run(tmp_path, "product-bound", "--k", "1", "--size", "8") == 1
    blob = json.loads((tmp_path / "product-bound.json").read_text())
    assert (blob["pairs"], blob["violations"], blob["min_census"]) == (
        784, 784, 1)


# artifact digests of the census that drew each product's sets, in order,
# from one Random per run and colored each product tuple by tuple
@pytest.mark.parametrize("argv, json_digest", [
    (["--k", "1", "--size", "12", "--samples", "40", "--seed", "1"],
     "4d8f85e1809a7ede"),
    (["--k", "1", "--size", "12", "--samples", "40", "--seed", "2"],
     "3c180811881c50cf"),
    (["--k", "2", "--size", "24", "--samples", "30", "--seed", "1"],
     "db924c24344f5431"),
    (["--k", "2", "--size", "24", "--samples", "30", "--seed", "2"],
     "f4949bc22a84e761"),
    # sets drawn by Random.sample's set branch
    (["--k", "1", "--size", "200", "--samples", "50", "--seed", "9"],
     "824324f31bed0154"),
    # sides of one element
    (["--k", "0", "--size", "5", "--samples", "7", "--seed", "4"],
     "53717d6106276b75"),
    (["--k", "1", "--size", "8"], "dde1073e4aee9e5d"),
])
def test_product_bound_pinned(tmp_path, argv, json_digest):
    assert run(tmp_path, "product-bound", "--n", "1", *argv) == 0
    assert artifact_digests(tmp_path) == {"product-bound.json": json_digest}


@pytest.mark.parametrize("n, k, size, samples, seed", [
    (1, 0, 5, 7, 4),  # sides of one element
    (1, 1, 12, 40, 1),
    (1, 2, 24, 30, 2),
    (1, 1, 200, 50, 9),  # sides drawn by Random.sample's set branch
    (2, 0, 6, 12, 3),
    (2, 1, 16, 8, 1),
])
def test_product_bound_sampled_stream(tmp_path, monkeypatch, n, k, size,
                                      samples, seed):
    # the artifact's census, recomputed from its argv: product t takes the
    # next n + 1 sides of one Random per run, and every tuple is colored
    # on its own by c_full, which keeps nothing
    drawn = []
    census = antiramsey.product_census

    def recorded(arena, sides):
        drawn.append(tuple(sides))
        return census(arena, sides)

    monkeypatch.setattr(antiramsey, "product_census", recorded)
    assert run(tmp_path, "product-bound", "--n", str(n), "--k", str(k),
               "--size", str(size), "--samples", str(samples),
               "--seed", str(seed)) == 0
    blob = json.loads((tmp_path / "product-bound.json").read_text())
    m = antiramsey.m_seq(n, k)
    draw = cli._sampler(Random(f"product-bound:{seed}"), size, m)
    stream = [tuple(draw() for _ in range(n + 1)) for _ in range(samples)]
    assert drawn == stream
    arena = antiramsey.Arena(size=size, dim=n, mode="identity")
    censuses = [len({antiramsey.c_full(arena, vec)
                     for vec in itertools.product(*sides)})
                for sides in stream]
    assert blob["min_census"] == min(censuses)
    assert blob["violations"] == sum(c <= k for c in censuses) == 0


def test_product_bound_exhaustive_n2(tmp_path, monkeypatch):
    # every product of three 12-subsets of 13, in product order
    drawn = []
    census = antiramsey.product_census

    def recorded(arena, sides):
        drawn.append(tuple(sides))
        return census(arena, sides)

    monkeypatch.setattr(antiramsey, "product_census", recorded)
    assert run(tmp_path, "product-bound", "--n", "2", "--k", "1",
               "--size", "13", "--samples", "0") == 0
    sides = list(itertools.combinations(range(13), 12))
    assert drawn == list(itertools.product(sides, repeat=3))
    blob = json.loads((tmp_path / "product-bound.json").read_text())
    assert (blob["pairs"], blob["violations"], blob["min_census"]) == (
        2197, 0, 31)
    assert artifact_digests(tmp_path) == {
        "product-bound.json": "d1f4fc0c48d16896"}


def test_product_bound_n2_k2_is_budget(tmp_path, capsys):
    # m_seq(2, 2) needs a threshold search past the default budget: exit 2,
    # the budget line on stdout and no census artifact
    assert run(tmp_path, "product-bound", "--n", "2", "--k", "2",
               "--size", "40", "--samples", "3") == 2
    assert capsys.readouterr().out == (
        "product-bound: threshold search for (n=2, k=2) exhausted its "
        "budget: bad colorings found through m=12, died at m=13\n")
    assert not (tmp_path / "product-bound.json").exists()


def test_product_bound_n1_k3_sizes_by_the_exact_threshold(tmp_path, capsys):
    # m_seq(1, 3) = 2 * 17 with no search: a usage error at the default
    # size, and at size 34 the one product of the full sides
    assert run(tmp_path / "small", "product-bound", "--n", "1",
               "--k", "3") == 64
    assert "side size 34 does not fit" in capsys.readouterr().err
    assert not (tmp_path / "small").exists()
    assert run(tmp_path, "product-bound", "--n", "1", "--k", "3",
               "--size", "34", "--samples", "0") == 0
    blob = json.loads((tmp_path / "product-bound.json").read_text())
    assert (blob["side_size"], blob["pairs"], blob["violations"]) == (34, 1, 0)
    assert blob["min_census"] > 3


def test_product_bound_draws_lazily(tmp_path):
    # 20,000 samples: drawing every product into a list before the census
    # peaked at 7.7 MiB under tracemalloc; drawing each when the census
    # reaches it holds one product at a time (0.15 MiB)
    tracemalloc.start()
    try:
        assert run(tmp_path, "product-bound", "--k", "1", "--size", "12",
                   "--samples", "20000") == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 ** 20


@st.composite
def _sample_args(draw):
    n = draw(st.integers(1, 120) | st.sampled_from([500, 1000, 10 ** 6]))
    k = draw(st.integers(0, n if n <= 120 else 40))
    return draw(st.integers(0, 2 ** 32)), n, k


@settings(max_examples=300, deadline=None)
@given(_sample_args())
# Random.sample switches from its pool to its set branch past n = 21
# (k <= 5), 85 (k = 6..21) and 277 (k = 22..85)
@example((1, 21, 5))
@example((1, 22, 5))
@example((2, 85, 6))
@example((2, 86, 6))
@example((3, 85, 21))
@example((3, 86, 21))
@example((4, 277, 22))
@example((4, 278, 22))
def test_sorted_sample_is_random_sample(args):
    # three draws from one sampler: each equals the sorted sample of a
    # twin Random and leaves the same state
    seed, n, k = args
    twin, rng = Random(seed), Random(seed)
    draw = cli._sampler(rng, n, k)
    for _ in range(3):
        assert draw() == tuple(sorted(twin.sample(range(n), k)))
        assert rng.getstate() == twin.getstate()


def test_ph_refute(tmp_path):
    assert run(tmp_path, "ph-refute", "--entry-bound", "64", "--seed", "3") == 0
    blob = json.loads((tmp_path / "ph-refute.json").read_text())
    assert blob["ok"] is True
    assert blob["verified"] is True


def test_ph_refute_largest_table_under_cap(tmp_path):
    # 80 + 80^2 + 80^3 = 518,480 entries; the bytes are those of the
    # whole-table generator
    assert run(tmp_path, "ph-refute", "--entry-bound", "80", "--n", "2") == 0
    assert artifact_digests(tmp_path) == {
        "ph-refute.json": "ea8d2f22538b830c"}


def test_readme_command_lines_run(tmp_path, monkeypatch):
    # the README's invocations, run as written from the directory that
    # holds the fam.json that delta-verify reads; together they name
    # every subcommand
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("\n## Command line\n", 1)[1]
    block = section.split("```sh\n", 1)[1].split("```", 1)[0]
    lines = [shlex.split(line, comments=True) for line in block.splitlines()]
    fam = Family(2, OrdSet.of(range(5)),
                 {b: OrdSet.of(b) for b in itertools.combinations(range(5), 2)})
    (tmp_path / "fam.json").write_text(json.dumps(family_json(fam)))
    monkeypatch.chdir(tmp_path)
    for argv in lines:
        assert argv[0] == "polygrid"
        assert run(tmp_path, *argv[1:]) == 0, argv
    assert sorted(argv[1] for argv in lines) == sorted(cli._COMMANDS)


def test_delta_verify_roundtrip(tmp_path):
    fam = Family(
        2,
        OrdSet.of(range(5)),
        {b: OrdSet.of(b) for b in itertools.combinations(range(5), 2)},
    )
    path = tmp_path / "fam.json"
    path.write_text(json.dumps(family_json(fam)))
    assert run(tmp_path, "delta-verify", "--family", str(path)) == 0
    blob = json.loads((tmp_path / "delta-verify.json").read_text())
    assert blob["uniform"] is True
    assert blob["certificate"]["rho"] == 2


def test_delta_verify_violation(tmp_path):
    umap = {b: OrdSet.of(b) for b in itertools.combinations(range(5), 2)}
    umap[(1, 3)] = OrdSet.of([1, 4])
    fam = Family(2, OrdSet.of(range(5)), umap)
    path = tmp_path / "fam.json"
    path.write_text(json.dumps(family_json(fam)))
    assert run(tmp_path, "delta-verify", "--family", str(path)) == 1
    blob = json.loads((tmp_path / "delta-verify.json").read_text())
    assert blob["uniform"] is False


def test_delta_verify_lattice_violation(tmp_path):
    # every key pattern has one fiber pattern, but the meet of (0,) and
    # () breaks the lattice clause
    path = tmp_path / "fam.json"
    path.write_text(json.dumps({"dim": 2, "indices": [0, 1, 2, 3], "umap": {
        "0,1": [0], "0,2": [1], "0,3": [2], "1,2": [2], "1,3": [1],
        "2,3": [0]}}))
    assert run(tmp_path, "delta-verify", "--family", str(path)) == 1
    blob = json.loads((tmp_path / "delta-verify.json").read_text())
    assert blob["uniform"] is False
    assert blob["violation"]["kind"] == "lattice"
    assert blob["violation"]["pair"] == [[], [0]]


def _uniform_family_and_certificate(tmp_path):
    """A uniform family file and the certificate delta-verify stores for it."""
    fam = Family(
        2,
        OrdSet.of(range(5)),
        {b: OrdSet.of(b) for b in itertools.combinations(range(5), 2)},
    )
    path = tmp_path / "fam.json"
    path.write_text(json.dumps(family_json(fam)))
    first = tmp_path / "first"
    assert run(first, "delta-verify", "--family", str(path)) == 0
    cert = json.loads((first / "delta-verify.json").read_text())["certificate"]
    return path, cert


@pytest.mark.parametrize("change, code", [
    (None, 0),
    ({"rho": 3}, 1),
    ({"patterns": {"": [], "0": [1], "0,1": [0, 1], "1": [1]}}, 1),
])
def test_delta_verify_against_stored_certificate(tmp_path, change, code):
    # the stored certificate is compared with the recomputed one: equal
    # exits 0, a changed order type or pattern set exits 1
    fam_path, cert = _uniform_family_and_certificate(tmp_path)
    cert.update(change or {})
    cert_path = tmp_path / "cert.json"
    cert_path.write_text(json.dumps(cert))
    out = tmp_path / "out"
    assert run(out, "delta-verify", "--family", str(fam_path),
               "--certificate", str(cert_path)) == code
    blob = json.loads((out / "delta-verify.json").read_text())
    assert blob["uniform"] is True
    assert blob["matches_stored"] is (code == 0)


@pytest.mark.parametrize("text", ['{"dim": 2, "rho": 2}', "not json",
                                  '{"dim": 2, "rho": 2, "patterns": {"x": []}}',
                                  '{"dim": 2, "rho": 2, "patterns": {"01": []}}'])
def test_delta_verify_malformed_certificate_is_usage_error(tmp_path, text):
    fam_path, _ = _uniform_family_and_certificate(tmp_path)
    cert_path = tmp_path / "cert.json"
    cert_path.write_text(text)
    out = tmp_path / "out"
    assert run(out, "delta-verify", "--family", str(fam_path),
               "--certificate", str(cert_path)) == 64
    assert not out.exists()


@pytest.mark.parametrize("command", ["delta-verify", "delta-extract"])
@pytest.mark.parametrize("key", ["2,1", "1", "0,1,2", "0,9"])
def test_delta_family_bad_key_is_usage_error(tmp_path, command, key):
    # a key that is not increasing, has the wrong length or lies outside
    # the indices is caught at load: exit 64, nothing written
    umap = {",".join(map(str, b)): list(b)
            for b in itertools.combinations(range(4), 2)}
    umap[key] = [0, 1]
    path = tmp_path / "fam.json"
    path.write_text(json.dumps({"dim": 2, "indices": [0, 1, 2, 3],
                                "umap": umap}))
    extra = ["--h", "2"] if command == "delta-extract" else []
    out = tmp_path / "out"
    assert run(out, command, "--family", str(path), *extra) == 64
    assert not out.exists()
    # the same file without the bad key runs
    del umap[key]
    path.write_text(json.dumps({"dim": 2, "indices": [0, 1, 2, 3],
                                "umap": umap}))
    assert run(out, command, "--family", str(path), *extra) == 0


def test_delta_extract_planted(tmp_path):
    assert run(tmp_path, "delta-extract", "--num-indices", "40",
               "--planted", "8", "--h", "5", "--seed", "1") == 0
    blob = json.loads((tmp_path / "delta-extract.json").read_text())
    assert blob["ok"] is True
    assert len(blob["indices"]) == 5
    assert blob["revalidated"] is True


def test_delta_extract_tiny_h_fails(tmp_path):
    assert run(tmp_path, "delta-extract", "--num-indices", "4",
               "--planted", "2", "--h", "6") == 1
    blob = json.loads((tmp_path / "delta-extract.json").read_text())
    assert blob["ok"] is False


def test_force_pipeline_and_determinism(tmp_path):
    a = tmp_path / "a"
    b = tmp_path / "b"
    a.mkdir()
    b.mkdir()
    args = ["--d", "1", "--k", "2", "--depth-oracle", "2",
            "--density", "3", "--branches", "4", "--seed", "7"]
    assert cli.main(["force-pipeline", "--out", str(a), *args]) == 0
    assert cli.main(["force-pipeline", "--out", str(b), *args]) == 0
    for name in ("force-pipeline.json", "force-pipeline-witness.json"):
        assert (a / name).read_bytes() == (b / name).read_bytes()


@pytest.mark.parametrize("argv, digests", [
    # the force-pipeline run of criterion 10 (determinism)
    (["--d", "1", "--k", "2", "--depth-oracle", "2", "--density", "3",
      "--branches", "8", "--seed", "7"],
     ("1a1aa1576519cd51", "9bd7f42243d846e7")),
    (["--d", "2", "--branches", "8"],
     ("7efcfa64757c9b49", "78a72e1097b3dc68")),
    (["--d", "3", "--branches", "8"],
     ("c3dbf78598465a90", "00efcb09726c4d91")),
])
def test_force_pipeline_pinned(tmp_path, argv, digests):
    # the witness digests date from when grid witnesses held Node objects;
    # the transcript's were re-pinned when the chain lost the decide steps
    # that left the condition unchanged, again when the stage entries lost
    # the fields of the per-stage checks, and again when the transcript
    # gained its failure code
    assert run(tmp_path, "force-pipeline", *argv) == 0
    got = artifact_digests(tmp_path)
    names = ("force-pipeline.json", "force-pipeline-witness.json")
    assert got == dict(zip(names, digests))


def test_force_pipeline_seeded_oracle_below_cap(tmp_path):
    # 4^9 = 262,144 word tuples: tabulated up front, under the cap
    assert run(tmp_path, "force-pipeline", "--k", "4", "--d", "3",
               "--depth-oracle", "3", "--density", "3", "--branches", "1",
               "--buffer", "1") == 0
    assert (tmp_path / "force-pipeline-witness.json").exists()


def test_force_pipeline_buffer_zero_at_width_one(tmp_path):
    # one branch per coordinate needs no reservoir row
    assert run(tmp_path, "force-pipeline", "--buffer", "0", "--branches", "1",
               "--density", "2") == 0


def test_force_pipeline_theta_cap_is_budget(tmp_path):
    assert run(tmp_path, "force-pipeline", "--d", "1", "--theta", "4",
               "--theta-cap", "4") == 2
    blob = json.loads((tmp_path / "force-pipeline.json").read_text())
    assert blob["rounds"] == [{"extracted": False, "method": "pool",
                               "theta": 4}]


def test_force_pipeline_records_the_failure_code(tmp_path):
    # null for a run that exits 0, "theta-cap" for one stopped at the cap;
    # both transcripts carry the run's d, k and seed
    assert run(tmp_path / "ok", "force-pipeline", "--d", "1",
               "--branches", "4") == 0
    assert run(tmp_path / "cap", "force-pipeline", "--d", "1", "--theta", "4",
               "--theta-cap", "4") == 2
    for name, code in (("ok", None), ("cap", "theta-cap")):
        out = tmp_path / name
        blob = json.loads((out / "force-pipeline.json").read_text())
        assert blob["failure_code"] == code
        assert (blob["d"], blob["k"], blob["seed"]) == (1, 2, 0)


def test_hl_derive_full(tmp_path):
    assert run(tmp_path, "hl-derive", "--coloring", "constant",
               "--depth", "4", "--density", "2") == 0
    blob = json.loads((tmp_path / "hl-derive.json").read_text())
    assert blob["full"] is True


def test_hl_derive_adversarial_partial(tmp_path):
    assert run(tmp_path, "hl-derive", "--coloring", "adversarial",
               "--depth", "8", "--density", "1") == 1
    blob = json.loads((tmp_path / "hl-derive.json").read_text())
    assert blob["full"] is False
    assert blob["height"] == 1


def test_hl_derive_takes_the_roots_of_a_loaded_planted_grid(tmp_path):
    # without --roots, a planted-grid record loaded with --table derives
    # at its own roots, as the named coloring does at the same --roots
    table = tmp_path / "planted.json"
    table.write_text(json.dumps({
        "k": 2, "d": 2, "depth": 6, "r": 2, "kind": "planted-grid",
        "value": 1, "seed": 5, "roots": ["0", "1"]}))
    flags = ["--d", "2", "--depth", "6", "--density", "3", "--seed", "5"]
    assert run(tmp_path / "loaded", "hl-derive", "--coloring", "table",
               "--table", str(table), *flags) == 0
    assert run(tmp_path / "named", "hl-derive", "--coloring", "planted-grid",
               "--roots", "0,1", "--value", "1", *flags) == 0
    assert ((tmp_path / "loaded" / "hl-derive.json").read_bytes()
            == (tmp_path / "named" / "hl-derive.json").read_bytes())


def test_grid_search(tmp_path):
    assert run(tmp_path, "grid-search", "--coloring", "constant",
               "--depth", "3", "--density", "2") == 0
    blob = json.loads((tmp_path / "grid-search.json").read_text())
    assert blob["validation"]["ok"] is True


def test_sideways_build(tmp_path):
    assert run(tmp_path, "sideways-build", "--depth", "4",
               "--j-bound", "2") == 0
    table = json.loads((tmp_path / "sideways-build.json").read_text())["table"]
    assert set(table.values()) == {0, 1}


# artifact digests of the per-tuple build that named every branch of every
# tuple; naming each branch once must give the same bytes.  The rows cover
# each (d, k, depth) that bench/workloads.py draws sideways tables from;
# the depth 5 and 6 rows were pinned from the writer that checked the
# order of every key
@pytest.mark.parametrize("d, k, depth, jmap, json_digest", [
    (1, 2, 4, "constant", "e888a4e301141be4"),
    (1, 2, 4, "first-letter", "ca55ffd7a644a982"),
    (1, 2, 5, "constant", "5272c661dae77c0f"),
    (1, 2, 5, "first-letter", "ee281e7dd550ce97"),
    (1, 2, 6, "constant", "760a5ac49de3cdee"),
    (1, 2, 6, "first-letter", "d32156d1c5c3e6cf"),
    (1, 3, 4, "constant", "7a528e08a4f06346"),
    (1, 3, 4, "first-letter", "ad6db3e33b45d8b1"),
    (2, 2, 4, "constant", "06b01ee4986e6a97"),
    (2, 2, 4, "first-letter", "d6e830a391dfee1d"),
    (2, 2, 5, "constant", "d4d33d38afdd7662"),
    (2, 2, 5, "first-letter", "05b9ec3143e58a49"),
])
def test_sideways_build_pinned(tmp_path, d, k, depth, jmap, json_digest):
    value = ["--value", "1"] if jmap == "constant" else []
    assert run(tmp_path, "sideways-build", "--d", str(d), "--k", str(k),
               "--depth", str(depth), "--jmap", jmap, *value) == 0
    assert artifact_digests(tmp_path) == {"sideways-build.json": json_digest}


# exit codes, output and artifact digests of the lift that called the
# jmap once per tuple; the jmap error still comes before the letter one
@pytest.mark.parametrize("argv, code, printed, json_digest", [
    (["--d", "0"], 0, "16 tuples, census 0:8, 1:8", "d3f1cbcac2bb417f"),
    (["--d", "0", "--depth", "5", "--j-bound", "3", "--value", "2"], 0,
     "32 tuples, census 0:16, 1:16", "3a8cebf5c76791fa"),
    (["--d", "0", "--value", "-1"], 64, "jmap value -1 outside 0..1", None),
    (["--d", "1", "--value", "2"], 64, "jmap value 2 outside 0..1", None),
    (["--d", "2", "--depth", "3", "--value", "5"], 64,
     "jmap value 5 outside 0..1", None),
    (["--d", "1", "--k", "11", "--depth", "2", "--j-bound", "1",
      "--value", "3"], 64, "jmap value 3 outside 0..0", None),
])
def test_sideways_build_edges(tmp_path, capsys, argv, code, printed,
                              json_digest):
    assert run(tmp_path, "sideways-build", *argv) == code
    out, err = capsys.readouterr()
    if code:
        assert out == "" and printed in err
        assert not any(tmp_path.iterdir())
        return
    assert out == f"sideways-build: {printed}\n"
    assert artifact_digests(tmp_path) == {"sideways-build.json": json_digest}


def _sideways_reference(out: Path, d, k, depth, j_bound, jmap, value,
                        seed) -> str:
    """The dict-built sideways construction: name every branch of every
    tuple, hold the whole table, write it with json.dumps.  Returns the
    line printed."""
    if jmap == "constant":
        fn = sideways_build(lambda xs: value, d)
    else:
        fn = sideways_build(lambda xs: xs[0][0] % j_bound, d)
    side = trees.branches(trees.TreeShape(k, depth))
    table = {"|".join(trees.word_to_str(x) for x in combo): fn(combo)
             for combo in itertools.product(side, repeat=d + 1)}
    census = Counter(table.values())
    (out / "sideways-build.json").write_bytes(_dumped({
        "d": d, "k": k, "depth": depth, "j_bound": j_bound, "jmap": jmap,
        "seed": seed, "table": table}))
    return (f"sideways-build: {len(table)} tuples, census "
            + ", ".join(f"{c}:{census[c]}" for c in sorted(census)) + "\n")


# shapes of at most 4,096 tuples
_SIDEWAYS_SHAPES = [(d, k, depth) for d in range(3) for k in (2, 3)
                    for depth in range(2, 9)
                    if k ** (depth * (d + 1)) <= 4096]


@st.composite
def _sideways_args(draw):
    d, k, depth = draw(st.sampled_from(_SIDEWAYS_SHAPES))
    j_bound = draw(st.integers(1, depth - 1))
    jmap = draw(st.sampled_from(["constant", "first-letter"] if d else
                                ["constant"]))
    value = draw(st.integers(0, j_bound - 1))
    return d, k, depth, j_bound, jmap, value, draw(st.integers(0, 99))


@settings(max_examples=40, deadline=None)
@given(_sideways_args())
@example((1, 10, 2, 1, "first-letter", 0, 0))  # letters 0-9 on both sides
@example((0, 10, 3, 2, "constant", 1, 5))
def test_sideways_build_matches_the_dict_built_table(args):
    d, k, depth, j_bound, jmap, value, seed = args
    argv = ["--d", str(d), "--k", str(k), "--depth", str(depth),
            "--j-bound", str(j_bound), "--jmap", jmap, "--value", str(value),
            "--seed", str(seed)]
    with tempfile.TemporaryDirectory() as got, \
            tempfile.TemporaryDirectory() as want:
        printed = io.StringIO()
        with contextlib.redirect_stdout(printed):
            assert run(Path(got), "sideways-build", *argv) == 0
        line = _sideways_reference(Path(want), d, k, depth, j_bound, jmap,
                                   value, seed)
        assert printed.getvalue() == line
        assert ([p.name for p in Path(got).iterdir()]
                == ["sideways-build.json"])
        assert ((Path(got) / "sideways-build.json").read_bytes()
                == (Path(want) / "sideways-build.json").read_bytes())


def test_sideways_build_memory_is_bounded(tmp_path):
    # 2^16 tuples: holding the table as a dict and encoding it peaked at
    # 10.9 MiB under tracemalloc; streaming it by rows holds the shared
    # rows, one formatted copy of each and one row's text (0.2 MiB)
    tracemalloc.start()
    try:
        assert run(tmp_path, "sideways-build", "--d", "1", "--depth", "8") == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 3 * 2 ** 20


@pytest.mark.parametrize("argv, code, json_digest", [
    # no monochromatic grid: exit 1
    (["grid-search", "--d", "2", "--depth", "3", "--density", "2",
      "--cap", "28", "--r", "3", "--coloring", "seeded",
      "--seed", "779960332"], 1, "176728f58288e1f0"),
    (["grid-search", "--d", "2", "--depth", "3", "--density", "2",
      "--cap", "16", "--coloring", "seeded", "--seed", "11"],
     0, "481d8837e2398339"),
    (["grid-search", "--d", "2", "--depth", "4", "--density", "2",
      "--cap", "16", "--coloring", "planted-grid", "--roots", "0,1",
      "--value", "1", "--seed", "5"],
     0, "b7f8714222a2b3b0"),
    (["grid-search", "--depth", "4", "--density", "2", "--r", "3",
      "--coloring", "level-parity", "--value", "1"],
     0, "693d5f157792a223"),
    (["grid-search", "--depth", "6", "--density", "2",
      "--coloring", "adversarial"],
     0, "501d83bbbae09b32"),
    (["grid-search", "--d", "3", "--depth", "2", "--density", "1",
      "--cap", "8", "--r", "3", "--coloring", "constant", "--value", "2"],
     0, "1337eccfb1f94e15"),
    (["hl-derive", "--d", "2", "--depth", "8", "--density", "3",
      "--height", "3", "--r", "3", "--coloring", "constant", "--value", "2"],
     0, "c9ba4757d1e3d15a"),
    (["hl-derive", "--depth", "10", "--density", "2", "--height", "2",
      "--coloring", "level-parity", "--value", "1"],
     0, "4293aa0b5cf7bb20"),
    (["hl-derive", "--d", "2", "--depth", "8", "--density", "3",
      "--height", "2", "--coloring", "planted-grid", "--roots", "0,1",
      "--value", "1", "--seed", "7"],
     0, "95856aa8b7b99b5e"),
    # the derivation goes partial: exit 1
    (["hl-derive", "--depth", "8", "--density", "1", "--height", "2",
      "--coloring", "adversarial"],
     1, "2dce38c83684f52e"),
    # no cone grid: exit 1
    (["hl-derive", "--d", "2", "--depth", "6", "--density", "2",
      "--height", "2", "--coloring", "seeded", "--seed", "3"],
     1, "53223bc0840cebfa"),
    # "." and an empty segment both name the root
    (["hl-derive", "--d", "2", "--depth", "5", "--density", "3",
      "--roots", ".,0"], 0, "e737d922876d510d"),
    (["hl-derive", "--d", "2", "--depth", "5", "--density", "3",
      "--roots", ",0"], 0, "e737d922876d510d"),
])
def test_hl_artifacts_pinned(tmp_path, argv, code, json_digest):
    # digests of the artifacts written before level colorings were memoized
    assert run(tmp_path, *argv) == code
    assert artifact_digests(tmp_path) == {f"{argv[0]}.json": json_digest}


def _outcome(out: Path, argv: list[str]) -> tuple[int, dict]:
    rc = run(out, *argv)
    files = {p.name: p.read_bytes() for p in out.iterdir()} if out.exists() else {}
    return rc, files


@pytest.mark.parametrize("first, second", [
    (["ramsey", "--k", "2"], ["ramsey", "--k", "2", "--budget", "0"]),
    (["product-bound", "--k", "2", "--size", "12"],
     ["ramsey", "--k", "2", "--budget", "20"]),
])
def test_same_argv_same_artifacts_within_a_process(tmp_path, first, second):
    # an earlier run must not change a later one
    run(tmp_path / "first", *first)
    after = _outcome(tmp_path / "after", second)
    fresh = _outcome(tmp_path / "fresh", second)
    assert after == fresh
    assert fresh[0] == 2 and "ramsey.json" in fresh[1]


def test_ddf_check(tmp_path):
    assert run(tmp_path, "ddf-check", "--d", "2", "--k", "2",
               "--depth", "2", "--density", "2", "--mcap", "2") == 0
    blob = json.loads((tmp_path / "ddf-check.json").read_text())
    assert blob["ok"] is True


def test_ddf_check_reads_a_zfile(tmp_path):
    # both branches of a depth-1 binary tree
    zfile = tmp_path / "z.json"
    zfile.write_text(json.dumps([["0"], ["1"]]))
    out = tmp_path / "out"
    assert run(out, "ddf-check", "--d", "1", "--depth", "1",
               "--density", "1", "--zfile", str(zfile)) == 0
    blob = json.loads((out / "ddf-check.json").read_text())
    assert blob["ok"] is True
    assert blob["size"] == 2


def test_ddf_check_zfile_letters_are_checked_with_the_branch_sets(
        tmp_path, capsys):
    # letter 2 in a binary tree: the density check's own branch-set check
    # refuses it, before anything is written
    zfile = tmp_path / "z.json"
    zfile.write_text(json.dumps([["00"], ["02"]]))
    out = tmp_path / "out"
    assert run(out, "ddf-check", "--d", "1", "--depth", "2",
               "--density", "1", "--zfile", str(zfile)) == 64
    assert capsys.readouterr().err == (
        "usage error: branch letters must lie in 0..1\n")
    assert not out.exists()


# ---------------------------------------------------------------------------
# the artifact writer


def _dumped(payload) -> bytes:
    return (json.dumps(payload, sort_keys=True, separators=(",", ":"),
                       default=str) + "\n").encode()


class _Point(NamedTuple):
    x: object
    y: object


class _Opaque:
    """A value that only default=str can encode."""

    def __init__(self, tag: int):
        self.tag = tag

    def __str__(self) -> str:
        return f"<opaque {self.tag}>"


_scalars = st.one_of(
    st.none(), st.booleans(), st.integers(),
    st.floats(allow_nan=True, allow_infinity=True), st.text(max_size=6),
    st.builds(_Opaque, st.integers(0, 9)))
_values = st.recursive(_scalars, lambda inner: st.one_of(
    st.lists(inner, max_size=5),
    st.lists(inner, max_size=5).map(tuple),
    st.builds(_Point, inner, inner),
    # keys arrive in drawn order, not sorted
    st.dictionaries(st.text(max_size=4), inner, max_size=5),
    st.dictionaries(st.integers(), inner, max_size=5),
), max_leaves=25)


# a member length of thousands of entries
_LONG = 4096


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(_values, st.integers(0, 3 * _LONG),
       st.sampled_from(["ahead", "zz-after"]))
def test_writer_bytes_equal_json_dumps(value, filler, key):
    # up to 3 * _LONG filler ints, encoded in the same one call as the
    # drawn value, which sorts before or after the filler
    payload = {"filler": list(range(filler)), key: value}
    with tempfile.TemporaryDirectory() as tmp:
        cfg = cli.RunConfig("ramsey", {}, Path(tmp), 0)
        cli._write_artifacts(cfg, payload)
        assert (Path(tmp) / "ramsey.json").read_bytes() == _dumped(payload)


class _Unprintable:
    def __str__(self) -> str:
        raise RuntimeError("no text")


@pytest.mark.parametrize("bad, error", [
    (_Unprintable(), RuntimeError),
    ({1: 0, "a": 0}, TypeError),  # int and str keys do not sort
])
def test_writer_leaves_no_json_when_encoding_fails(tmp_path, bad, error):
    # the bad value sorts after a long member, and the payload is encoded
    # in one call before the file is opened, so no file is left behind
    cfg = cli.RunConfig("ramsey", {}, tmp_path, 0)
    payload = {"a": list(range(3 * _LONG)), "z": bad}
    with pytest.raises(error):
        cli._write_artifacts(cfg, payload)
    assert list(tmp_path.iterdir()) == []


def test_writer_leaves_no_json_when_a_streamed_row_fails(tmp_path,
                                                        monkeypatch):
    # the sideways table streams into the open file; a row that fails to
    # format after the earlier rows were written (its last color is None)
    # is a fault, exit 70, and leaves no JSON file
    lift = hl.sideways_lift

    def broken_lift(*args):
        rows = lift(*args)
        return lambda side: [*rows(side)[:-1], [0] * (len(side) - 1) + [None]]

    monkeypatch.setattr(hl, "sideways_lift", broken_lift)
    with contextlib.redirect_stderr(io.StringIO()) as err:
        assert run(tmp_path, "sideways-build") == 70
    assert "TypeError" in err.getvalue()
    assert list(tmp_path.iterdir()) == []


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_writer_table_bytes_equal_json_dumps_of_the_dict(data):
    # digit-string names of one length in increasing order, d coordinates,
    # rows shared among prefixes and payload keys that sort before "table"
    # give the bytes of json.dumps over the whole dict table
    d = data.draw(st.integers(0, 2))
    width = data.draw(st.integers(1, 3))
    names = sorted(data.draw(st.sets(
        st.text("0123456789", min_size=width, max_size=width),
        min_size=1, max_size=4)))
    payload = {"d": d, **data.draw(st.dictionaries(
        st.sampled_from(["a", "depth", "j_bound", "jmap", "k", "seed"]),
        st.none() | st.integers() | st.text(max_size=3), max_size=3))}
    shared = data.draw(st.lists(
        st.lists(st.integers(), min_size=len(names), max_size=len(names)),
        min_size=1, max_size=3))
    prefixes = ["".join(p) for p in itertools.product(
        [name + "|" for name in names], repeat=d)]
    rows = [shared[data.draw(st.integers(0, len(shared) - 1))]
            for _ in prefixes]
    table = {p + n: c for p, row in zip(prefixes, rows)
             for n, c in zip(names, row)}
    with tempfile.TemporaryDirectory() as tmp:
        cfg = cli.RunConfig("sideways-build", {}, Path(tmp), 0)
        cli._write_artifacts(cfg, cli._sideways_chunks(payload, names, rows))
        assert ((Path(tmp) / "sideways-build.json").read_bytes()
                == _dumped({**payload, "table": table}))


def test_writer_encodes_large_members_as_json_dumps_does(tmp_path):
    # members of thousands of entries, keyed and ordered as json.dumps keys
    # and orders them: numeric keys sort as numbers before they become
    # strings
    rng = Random(0)
    keys = [i / 2 for i in range(2 * _LONG + 3)]
    rng.shuffle(keys)
    payload = {
        "floats": {k: [k, str(k)] for k in keys},
        "ints": {int(k * 2): None for k in keys},
        "nested": [{"b": (i, _Opaque(i)), "a": i}
                   for i in range(_LONG + 1)],
        "tuple": tuple(range(3 * _LONG)),
        "words": {f"w{k}": k for k in keys[:_LONG + 1]},
        "small": {"z": 1, "a": 2},
    }
    cfg = cli.RunConfig("ramsey", {}, tmp_path, 0)
    cli._write_artifacts(cfg, payload)
    assert (tmp_path / "ramsey.json").read_bytes() == _dumped(payload)


def test_writer_memory_is_bounded(tmp_path):
    # 2^16 entries (1.4 MB of text): under tracemalloc, json.dumps over
    # the whole table, held as a dict, peaked at 8.6 MiB; the streamed
    # run, which holds the shared rows, one formatted copy of each and one
    # row's text, at 0.11 MiB
    limit = 2 ** 20

    def peak(call) -> int:
        tracemalloc.start()
        try:
            call()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    streamed = peak(lambda: cli.main(["sideways-build", "--d", "1",
                                      "--depth", "8",
                                      "--out", str(tmp_path)]))
    data = (tmp_path / "sideways-build.json").read_bytes()
    content = json.loads(data)
    assert len(content["table"]) == 2 ** 16
    whole = peak(lambda: _dumped(content))
    assert whole > limit > streamed
    assert data == _dumped(content)


# a sideways table of 2^14 entries, streamed in 128 rows
_STREAMED = ["sideways-build", "--d", "1", "--depth", "7"]


# one argv per subcommand, then an exit-1 artifact, an exit-2 artifact and
# the streamed table
@pytest.mark.parametrize("argv, code", [
    (["ramsey", "--k", "1"], 0),
    (["difference-check", "--n", "2", "--size", "8"], 0),
    (["product-bound", "--k", "1", "--size", "8"], 0),
    (["ph-refute", "--entry-bound", "24", "--spread", "2"], 0),
    (["delta-verify", "--family", "{family}"], 0),
    (["delta-extract", "--num-indices", "40", "--planted", "8", "--h", "5",
      "--seed", "1"], 0),
    (["force-pipeline", "--d", "2", "--branches", "8"], 0),
    (["hl-derive", "--coloring", "level-parity", "--depth", "6"], 0),
    (["grid-search", "--d", "2", "--depth", "3", "--density", "2", "--cap",
      "16", "--coloring", "seeded", "--seed", "11"], 0),
    (["sideways-build", "--depth", "4", "--j-bound", "2"], 0),
    (["ddf-check", "--d", "2", "--depth", "2", "--density", "2"], 0),
    (["hl-derive", "--coloring", "adversarial", "--depth", "8",
      "--density", "1"], 1),
    (["force-pipeline", "--d", "1", "--theta", "4", "--theta-cap", "4"], 2),
    (_STREAMED, 0),
])
def test_artifacts_are_canonical_compact_json(tmp_path, argv, code):
    # every JSON artifact is the one-line compact, sorted encoding of what
    # it holds, so that loading and dumping it again gives its bytes
    fam = Family(2, OrdSet.of(range(5)), {
        b: OrdSet.of(b) for b in itertools.combinations(range(5), 2)})
    family = tmp_path / "fam.json"
    family.write_text(json.dumps(family_json(fam)))
    out = tmp_path / "out"
    argv = [a.format(family=family) for a in argv]
    assert run(out, *argv) == code
    written = sorted(out.glob("*.json"))
    assert written
    for path in written:
        text = path.read_text()
        assert text == json.dumps(json.loads(text), sort_keys=True,
                                  separators=(",", ":")) + "\n"
    if argv == _STREAMED:
        table = json.loads((out / "sideways-build.json").read_text())["table"]
        assert len(table) > 4096
