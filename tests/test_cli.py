"""The batch runner: config parsing, exit codes, artifact determinism."""

import hashlib
import itertools
import json
from pathlib import Path

import pytest

from polygrid import ParameterError, antiramsey, cli
from polygrid.deltasys import Family
from polygrid.ordset import OrdSet


def run(tmp_path, command, *args):
    return cli.main([command, "--out", str(tmp_path), *args])


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
])
def test_bad_parameter_is_usage_error(tmp_path, monkeypatch, args):
    # a bad flag or input file must not read as a result: exit 64 and
    # write nothing
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
    out = tmp_path / "out"
    assert run(out, *args) == 64
    assert not out.exists()


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
    fam = Family(1, OrdSet.of(range(3)),
                 {(i,): OrdSet.of([i]) for i in range(3)})
    Path("fam.json").write_text(json.dumps(fam.to_json()))
    for i, argv in enumerate(_sweep_cases()):
        out = tmp_path / f"out{i}"
        rc = run(out, *argv)
        assert rc in (0, 1, 2, 64), argv
        assert "Traceback" not in capsys.readouterr().err, argv
        if rc == 64:
            assert not out.exists(), argv


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
    assert blob["m_star"] == 3
    assert blob["seed"] == 0
    assert (tmp_path / "ramsey.csv").read_text().splitlines()[1] == "1,1,3,6"


def test_ramsey_budget_exit(tmp_path):
    assert run(tmp_path, "ramsey", "--n", "2", "--k", "2",
               "--budget", "1000") == 2
    blob = json.loads((tmp_path / "ramsey.json").read_text())
    assert blob["ok"] is False
    assert blob["budget"]["best_lower_bound"] >= 1


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


def test_ph_refute(tmp_path):
    assert run(tmp_path, "ph-refute", "--entry-bound", "64", "--seed", "3") == 0
    blob = json.loads((tmp_path / "ph-refute.json").read_text())
    assert blob["ok"] is True
    assert blob["verified"] is True


def test_ph_refute_largest_table_under_cap(tmp_path):
    # 80 + 80^2 + 80^3 = 518,480 entries; the bytes are those of the
    # whole-table generator
    assert run(tmp_path, "ph-refute", "--entry-bound", "80", "--n", "2") == 0
    digests = {p.name: hashlib.sha256(p.read_bytes()).hexdigest()[:16]
               for p in tmp_path.iterdir()}
    assert digests == {"ph-refute.json": "ea8d2f22538b830c",
                       "ph-refute.csv": "af23f4e0e26630ca"}


def test_delta_verify_roundtrip(tmp_path):
    fam = Family(
        2,
        OrdSet.of(range(5)),
        {b: OrdSet.of(b) for b in itertools.combinations(range(5), 2)},
    )
    path = tmp_path / "fam.json"
    path.write_text(json.dumps(fam.to_json()))
    assert run(tmp_path, "delta-verify", "--family", str(path)) == 0
    blob = json.loads((tmp_path / "delta-verify.json").read_text())
    assert blob["uniform"] is True
    assert blob["certificate"]["rho"] == 2


def test_delta_verify_violation(tmp_path):
    umap = {b: OrdSet.of(b) for b in itertools.combinations(range(5), 2)}
    umap[(1, 3)] = OrdSet.of([1, 4])
    fam = Family(2, OrdSet.of(range(5)), umap)
    path = tmp_path / "fam.json"
    path.write_text(json.dumps(fam.to_json()))
    assert run(tmp_path, "delta-verify", "--family", str(path)) == 1
    blob = json.loads((tmp_path / "delta-verify.json").read_text())
    assert blob["uniform"] is False


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
    for name in ("force-pipeline.json", "force-pipeline-witness.json",
                 "force-pipeline.csv"):
        assert (a / name).read_bytes() == (b / name).read_bytes()


@pytest.mark.parametrize("argv, digests", [
    # the force-pipeline run of criterion 10 (determinism)
    (["--d", "1", "--k", "2", "--depth-oracle", "2", "--density", "3",
      "--branches", "8", "--seed", "7"],
     ("21ddaef0711c112f", "9bd7f42243d846e7", "2bf8405d40f53f93")),
    (["--d", "2", "--branches", "8"],
     ("9b94ea58ea0d58be", "78a72e1097b3dc68", "0d142ee398c06af1")),
    (["--d", "3", "--branches", "8"],
     ("6a4976e6a44b01e5", "00efcb09726c4d91", "a8154eab81c6bfc2")),
])
def test_force_pipeline_pinned(tmp_path, argv, digests):
    # digests of the artifacts written while grid witnesses held Node objects
    assert run(tmp_path, "force-pipeline", *argv) == 0
    got = {p.name: hashlib.sha256(p.read_bytes()).hexdigest()[:16]
           for p in tmp_path.iterdir()}
    names = ("force-pipeline.json", "force-pipeline-witness.json",
             "force-pipeline.csv")
    assert got == dict(zip(names, digests))


def test_force_pipeline_seeded_oracle_below_cap(tmp_path):
    # 4^9 = 262,144 word tuples: tabulated up front, under the cap
    assert run(tmp_path, "force-pipeline", "--k", "4", "--d", "3",
               "--depth-oracle", "3", "--density", "3", "--branches", "1",
               "--buffer", "1") == 0
    assert (tmp_path / "force-pipeline-witness.json").exists()


def test_force_pipeline_theta_cap_is_budget(tmp_path):
    assert run(tmp_path, "force-pipeline", "--d", "1", "--theta", "4",
               "--theta-cap", "4") == 2
    blob = json.loads((tmp_path / "force-pipeline.json").read_text())
    assert blob["rounds"] == [{"extracted": False, "method": "pool",
                               "theta": 4}]


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


def test_grid_search(tmp_path):
    assert run(tmp_path, "grid-search", "--coloring", "constant",
               "--depth", "3", "--density", "2") == 0
    blob = json.loads((tmp_path / "grid-search.json").read_text())
    assert blob["validation"]["ok"] is True


def test_sideways_build(tmp_path):
    assert run(tmp_path, "sideways-build", "--depth", "4",
               "--j-bound", "2") == 0
    rows = (tmp_path / "sideways-build.csv").read_text().splitlines()
    assert rows[0] == "color,count"
    counts = {int(r.split(",")[0]): int(r.split(",")[1]) for r in rows[1:]}
    assert set(counts) == {0, 1}


# artifact digests of the per-tuple build that named every branch of every
# tuple; naming each branch once must give the same bytes
@pytest.mark.parametrize("d, k, depth, jmap, json_digest, csv_digest", [
    (1, 2, 4, "constant", "e888a4e301141be4", "a3bc78006f6fbb68"),
    (1, 2, 4, "first-letter", "ca55ffd7a644a982", "a3bc78006f6fbb68"),
    (1, 3, 4, "constant", "7a528e08a4f06346", "cfe440d9e14c793d"),
    (1, 3, 4, "first-letter", "ad6db3e33b45d8b1", "cfe440d9e14c793d"),
    (2, 2, 4, "constant", "06b01ee4986e6a97", "75d5ea03ce076f17"),
    (2, 2, 4, "first-letter", "d6e830a391dfee1d", "75d5ea03ce076f17"),
    (2, 2, 5, "constant", "d4d33d38afdd7662", "1a8839d51021ce3b"),
    (2, 2, 5, "first-letter", "05b9ec3143e58a49", "1a8839d51021ce3b"),
])
def test_sideways_build_pinned(tmp_path, d, k, depth, jmap, json_digest,
                               csv_digest):
    value = ["--value", "1"] if jmap == "constant" else []
    assert run(tmp_path, "sideways-build", "--d", str(d), "--k", str(k),
               "--depth", str(depth), "--jmap", jmap, *value) == 0
    digests = {p.name: hashlib.sha256(p.read_bytes()).hexdigest()[:16]
               for p in tmp_path.iterdir()}
    assert digests == {"sideways-build.json": json_digest,
                       "sideways-build.csv": csv_digest}


@pytest.mark.parametrize("argv, code, json_digest, csv_digest", [
    # no monochromatic grid: exit 1 and a JSON artifact only
    (["grid-search", "--d", "2", "--depth", "3", "--density", "2",
      "--cap", "28", "--r", "3", "--coloring", "seeded",
      "--seed", "779960332"], 1, "176728f58288e1f0", None),
    (["grid-search", "--d", "2", "--depth", "3", "--density", "2",
      "--cap", "16", "--coloring", "seeded", "--seed", "11"],
     0, "481d8837e2398339", "c95f8cbb66c86566"),
    (["grid-search", "--d", "2", "--depth", "4", "--density", "2",
      "--cap", "16", "--coloring", "planted-grid", "--roots", "0,1",
      "--value", "1", "--seed", "5"],
     0, "b7f8714222a2b3b0", "6abdf860fde9f5d7"),
    (["grid-search", "--depth", "4", "--density", "2", "--r", "3",
      "--coloring", "level-parity", "--value", "1"],
     0, "693d5f157792a223", "97d69e09a469e7b1"),
    (["grid-search", "--depth", "6", "--density", "2",
      "--coloring", "adversarial"],
     0, "501d83bbbae09b32", "407440d2268b3bf0"),
    (["grid-search", "--d", "3", "--depth", "2", "--density", "1",
      "--cap", "8", "--r", "3", "--coloring", "constant", "--value", "2"],
     0, "1337eccfb1f94e15", "c39c057f0d879a24"),
    (["hl-derive", "--d", "2", "--depth", "8", "--density", "3",
      "--height", "3", "--r", "3", "--coloring", "constant", "--value", "2"],
     0, "c9ba4757d1e3d15a", "d97d5d1dadc95da6"),
    (["hl-derive", "--depth", "10", "--density", "2", "--height", "2",
      "--coloring", "level-parity", "--value", "1"],
     0, "4293aa0b5cf7bb20", "2dd5419810bcf514"),
    (["hl-derive", "--d", "2", "--depth", "8", "--density", "3",
      "--height", "2", "--coloring", "planted-grid", "--roots", "0,1",
      "--value", "1", "--seed", "7"],
     0, "95856aa8b7b99b5e", "f42939f4ae333956"),
    # the derivation goes partial: exit 1 with both artifacts
    (["hl-derive", "--depth", "8", "--density", "1", "--height", "2",
      "--coloring", "adversarial"],
     1, "2dce38c83684f52e", "59011c6ad2bae4df"),
    # no cone grid: exit 1 and a JSON artifact only
    (["hl-derive", "--d", "2", "--depth", "6", "--density", "2",
      "--height", "2", "--coloring", "seeded", "--seed", "3"],
     1, "53223bc0840cebfa", None),
])
def test_hl_artifacts_pinned(tmp_path, argv, code, json_digest, csv_digest):
    # digests of the artifacts written before level colorings were memoized
    assert run(tmp_path, *argv) == code
    digests = {p.name: hashlib.sha256(p.read_bytes()).hexdigest()[:16]
               for p in tmp_path.iterdir()}
    want = {f"{argv[0]}.json": json_digest}
    if csv_digest is not None:
        want[f"{argv[0]}.csv"] = csv_digest
    assert digests == want


def _outcome(out: Path, argv: list[str]) -> tuple[int, dict]:
    rc = run(out, *argv)
    files = {p.name: p.read_bytes() for p in out.iterdir()} if out.exists() else {}
    return rc, files


@pytest.mark.parametrize("first, second", [
    (["ramsey", "--k", "1"], ["ramsey", "--k", "1", "--budget", "0"]),
    (["product-bound", "--k", "2", "--size", "12"],
     ["ramsey", "--k", "2", "--budget", "20"]),
])
def test_same_argv_same_artifacts_within_a_process(tmp_path, monkeypatch,
                                                   first, second):
    # the threshold cache must not let an earlier run change a later one
    monkeypatch.setattr(antiramsey, "_threshold_cache", {})
    run(tmp_path / "first", *first)
    after = _outcome(tmp_path / "after", second)
    monkeypatch.setattr(antiramsey, "_threshold_cache", {})
    fresh = _outcome(tmp_path / "fresh", second)
    assert after == fresh
    assert fresh[0] == 2 and "ramsey.json" in fresh[1]


def test_ddf_check(tmp_path):
    assert run(tmp_path, "ddf-check", "--d", "2", "--k", "2",
               "--depth", "2", "--density", "2", "--mcap", "2") == 0
    blob = json.loads((tmp_path / "ddf-check.json").read_text())
    assert blob["ok"] is True
