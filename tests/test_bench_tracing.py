"""The benchmark's tracing wrappers must find every name they patch.

bench/tracing.py wraps module functions and class methods by name from
outside the program; deleting or renaming one of them breaks the traced
benchmark.  This test installs the wrappers on the package, runs one job
through the traced entry point, and checks that restore() puts back every
original binding.  A delta-extract job checks that the extraction route
is counted under a name the tracer registers in advance, and one small
job per check kernel (the cofinality check, the surrogate vote, the DDF
check) checks that each kernel is still reached under its traced name, and
a force-pipeline job checks that each forcing row records one call.
"""

import importlib.util
from pathlib import Path
from types import SimpleNamespace

from polygrid import antiramsey, cli, deltasys, forcing, hl, ordset, ph, trees

_TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"
_MODULES = (antiramsey, cli, deltasys, forcing, hl, ordset, ph, trees)


def _load_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", _TRACING)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def _bindings() -> dict:
    """Every module attribute and every attribute of a module's classes."""
    out = {}
    for mod in _MODULES:
        for name, val in vars(mod).items():
            out[mod.__name__, name] = val
            if isinstance(val, type):
                for attr, member in vars(val).items():
                    out[mod.__name__, name, attr] = member
    return out


def test_bench_tracing_installs_and_restores(tmp_path):
    tracing = _load_tracing()
    pkg = SimpleNamespace(**{m.__name__.rsplit(".", 1)[1]: m for m in _MODULES})
    before = _bindings()
    tracer = tracing.Tracer()
    traced_main = tracing.install(tracer, pkg)
    try:
        assert ph.c_full is not before["polygrid.ph", "c_full"]
        argv = ["difference-check", "--size", "6", "--out", str(tmp_path)]
        assert traced_main(argv) == 0
    finally:
        tracer.restore()
    assert tracer.stats["antiramsey.check_difference_lemma"][0] == 1
    assert tracer.stats["cli.main"][0] == 1
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[key] is val for key, val in before.items())


def test_bench_tracing_counts_the_extraction_route(tmp_path):
    tracing = _load_tracing()
    pkg = SimpleNamespace(**{m.__name__.rsplit(".", 1)[1]: m for m in _MODULES})
    tracer = tracing.Tracer()
    traced_main = tracing.install(tracer, pkg)
    try:
        argv = ["delta-extract", "--num-indices", "20", "--planted", "6",
                "--h", "3", "--out", str(tmp_path)]
        assert traced_main(argv) == 0
    finally:
        tracer.restore()
    assert tracer.counts["deltasys.extract.exhaustive"] == 1
    assert tracer.stats["deltasys.extract_uniform"][0] == 1


def test_bench_tracing_reaches_the_check_kernels(tmp_path):
    tracing = _load_tracing()
    pkg = SimpleNamespace(**{m.__name__.rsplit(".", 1)[1]: m for m in _MODULES})
    tracer = tracing.Tracer()
    traced_main = tracing.install(tracer, pkg)
    try:
        for argv in (["ph-refute", "--entry-bound", "12", "--n", "2",
                      "--spread", "2"],
                     ["grid-search", "--coloring", "seeded", "--depth", "3",
                      "--density", "2", "--cap", "8"],
                     ["ddf-check", "--d", "2", "--depth", "2",
                      "--density", "1", "--mcap", "2"]):
            assert traced_main(argv + ["--out", str(tmp_path)]) == 0
    finally:
        tracer.restore()
    assert tracer.stats["ph.is_cofinal"][0] >= 1
    assert tracer.stats["trees.is_ddf_to_depth"][0] >= 1
    assert tracer.counts["hl.surrogate_color.calls"] > 0
    assert tracer.counts["hl.LevelColoring.color.calls"] > 0


def test_bench_tracing_counts_one_pipeline_fold(tmp_path):
    # the pipeline decides once and folds its whole schedule once, so each
    # of its traced rows records exactly one call per job
    tracing = _load_tracing()
    pkg = SimpleNamespace(**{m.__name__.rsplit(".", 1)[1]: m for m in _MODULES})
    tracer = tracing.Tracer()
    traced_main = tracing.install(tracer, pkg)
    try:
        argv = ["force-pipeline", "--d", "2", "--branches", "4",
                "--out", str(tmp_path)]
        assert traced_main(argv) == 0
    finally:
        tracer.restore()
    for name in ("run_pipeline", "meet_dense", "decide_color"):
        assert tracer.stats[f"forcing.{name}"][0] == 1, name
    assert tracer.counts["forcing.ColoringOracle.color.calls"] > 0


def test_bench_tracing_counts_cofinal_attempts(tmp_path):
    # seed 0 at entry bound 16 skips 4 attempts: each attempt builds one
    # CofinalFn, so the accept ratio is one accepted table in five built
    tracing = _load_tracing()
    pkg = SimpleNamespace(**{m.__name__.rsplit(".", 1)[1]: m for m in _MODULES})
    tracer = tracing.Tracer()
    traced_main = tracing.install(tracer, pkg)
    try:
        argv = ["ph-refute", "--entry-bound", "16", "--n", "1", "--seed", "0",
                "--out", str(tmp_path)]
        assert traced_main(argv) == 0
    finally:
        tracer.restore()
    assert tracer.counts["ph.CofinalFn.built"] == 5
    assert tracer.counts["ph.make_cofinal.accepted"] == 1
