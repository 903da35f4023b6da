"""The batch runner: config parsing, exit codes, artifact determinism."""

import itertools
import json

import pytest

from polygrid import cli
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
    with pytest.raises(cli.UsageError):
        cli.parse_config(["ramsey", "--frobnicate", "1"])


def test_unknown_subcommand_rejected():
    with pytest.raises(cli.UsageError):
        cli.parse_config(["transmogrify"])


def test_non_integer_rejected():
    with pytest.raises(cli.UsageError):
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
])
def test_bad_parameter_is_usage_error(tmp_path, args):
    # a bad flag must not read as a result: exit 64 and write nothing
    assert run(tmp_path, *args) == 64
    assert not list(tmp_path.iterdir())


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


def test_ddf_check(tmp_path):
    assert run(tmp_path, "ddf-check", "--d", "2", "--k", "2",
               "--depth", "2", "--density", "2", "--mcap", "2") == 0
    blob = json.loads((tmp_path / "ddf-check.json").read_text())
    assert blob["ok"] is True
