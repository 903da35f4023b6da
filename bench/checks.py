"""Verdict checks: allowed exit codes, known answers and witness re-checks.

Each job kind has the exit codes it may return and the answer it must
reach.  Every positive grid witness is re-checked here from its artifact
alone: a short density count (distinct depth-D prefixes through each root)
and a recoloring of every tuple with the coloring rebuilt from the
artifact's own description.  Nothing here imports polygrid.
"""

from __future__ import annotations

import itertools
import json
from pathlib import Path
from random import Random

EXIT_USAGE = 64


class CheckFailed(Exception):
    """A verdict contrary to the known answer or a failed re-check."""


def _load(out: Path, name: str) -> dict:
    path = out / name
    if not path.is_file():
        raise CheckFailed(f"missing artifact {name}")
    return json.loads(path.read_text())


def _word(s: str) -> tuple[int, ...]:
    return tuple(int(ch) for ch in s)


def _flag(job, name: str, default: str) -> str:
    argv = list(job.argv)
    flag = "--" + name
    return argv[argv.index(flag) + 1] if flag in argv else default


def _require(cond: bool, what: str) -> None:
    if not cond:
        raise CheckFailed(what)


# ---------------------------------------------------------------------------
# colorings rebuilt from artifacts


def oracle_coloring(data: dict):
    """Branch-tuple coloring of a forcing oracle: the color of the words
    cut at the oracle depth."""
    k, d, depth, r = data["k"], data["d"], data["depth"], data["num_colors"]
    kind = data["kind"]
    if kind == "constant":
        return lambda words: data["value"]
    if kind == "first-letter":
        return lambda words: words[0][0] % r
    if kind != "seeded":
        raise CheckFailed(f"no rebuild for oracle kind {kind!r}")
    rng = Random(f"oracle:{data['seed']}:{k}:{d}:{depth}")
    level = list(itertools.product(range(k), repeat=depth))
    table = {combo: rng.randrange(r)
             for combo in itertools.product(level, repeat=d)}
    return lambda words: table[tuple(w[:depth] for w in words)]


def level_color(data: dict, words: tuple[tuple[int, ...], ...]) -> int:
    kind, r, value = data["kind"], data["r"], data.get("value", 0)
    height = len(words[0])
    if kind == "constant":
        return value
    if kind == "level-parity":
        return (height + value) % r
    noise = Random(f"levelcoloring:{data.get('seed', 0)}:{words}")
    if kind == "seeded":
        return noise.randrange(r)
    if kind == "planted-grid":
        roots = [_word(s) for s in data["roots"]]
        if all(w[:len(t)] == t[:len(w)] for t, w in zip(roots, words)):
            return value
        return noise.choice([c for c in range(r) if c != value])
    raise CheckFailed(f"no rebuild for level coloring kind {kind!r}")


def surrogate_coloring(data: dict):
    """Majority over the level truncations below the coloring depth, ties
    to the least color."""
    depth = data["depth"]

    def color(words):
        votes: dict[int, int] = {}
        for m in range(depth):
            c = level_color(data, tuple(w[:m] for w in words))
            votes[c] = votes.get(c, 0) + 1
        top = max(votes.values())
        return min(c for c, v in votes.items() if v == top)

    return color


def recheck_grid(witness: dict, color) -> None:
    k, depth, dens = witness["k"], witness["depth"], witness["density_depth"]
    roots = [_word(s) for s in witness["roots"]]
    sets = [[_word(s) for s in ys] for ys in witness["branch_sets"]]
    _require(len(roots) == len(sets), "one branch set per root")
    for root, ys in zip(roots, sets):
        _require(all(len(y) == depth and all(c < k for c in y) for y in ys),
                 "branches must be full-depth words over the alphabet")
        prefixes = {y[:dens] for y in ys if y[:len(root)] == root}
        _require(len(prefixes) == k ** (dens - len(root)),
                 f"not dense to depth {dens} above {root}")
    for combo in itertools.product(*sets):
        _require(color(combo) == witness["color"],
                 f"tuple {combo} recolors away from {witness['color']}")


# ---------------------------------------------------------------------------
# per-subcommand verdicts


def _product_bound(job, rc, out):
    _require(rc == 0, f"exit {rc}")
    data = _load(out, "product-bound.json")
    _require(data["violations"] == 0, "violations reported")
    _require(data["min_census"] > job.expect["k"], "census at most k colors")


def _difference(job, rc, out):
    _require(rc == 0, f"exit {rc}")
    _require(_load(out, "difference-check.json")["violations"] == [],
             "difference lemma violated")


def _ramsey(job, rc, out):
    data = _load(out, "ramsey.json")
    m_star = job.expect["m_star"]
    if rc == 2:
        best = data["budget"]["best_lower_bound"]
        _require(best is not None and best <= m_star - 1,
                 f"lower bound {best} above m*-1 = {m_star - 1}")
    else:
        _require(rc == 0 and data["m_star"] == m_star,
                 f"exit {rc}, threshold {data.get('m_star')}, known {m_star}")


def _sideways(job, rc, out):
    _require(rc == 0, f"exit {rc}")
    data = _load(out, "sideways-build.json")
    d, k, depth, jb = data["d"], data["k"], data["depth"], data["j_bound"]
    _require(len(data["table"]) == k ** (depth * (d + 1)), "table not total")
    value = int(_flag(job, "value", "0"))
    for key, color in data["table"].items():
        words = key.split("|")
        j = value if data["jmap"] == "constant" else int(words[0][0]) % jb
        _require(color == (0 if words[d][j] == "0" else 1),
                 f"entry {key} colored {color}")


def _force_pipeline(job, rc, out):
    _require(rc == 0, f"exit {rc}")
    transcript = _load(out, "force-pipeline.json")
    recheck_grid(_load(out, "force-pipeline-witness.json"),
                 oracle_coloring(transcript["oracle"]))


def _ph_refute(job, rc, out):
    if rc == EXIT_USAGE:
        return
    _require(rc == 0, f"exit {rc}")
    data = _load(out, "ph-refute.json")
    _require(data["ok"] and data["verified"], "refutation not verified")
    _require(data["color_a"] != data["color_b"], "the two colors agree")


def _grid_search(job, rc, out):
    _require(rc == job.expect["exit"],
             f"exit {rc}, pinned verdict {job.expect['exit']}")
    data = _load(out, "grid-search.json")
    if rc == 0:
        recheck_grid(data["witness"], surrogate_coloring(data["coloring"]))


def _delta_extract(job, rc, out):
    _require(rc == 0, f"exit {rc}")
    data = _load(out, "delta-extract.json")
    _require(len(data["indices"]) == job.expect["h"], "|H'| != h")
    _require(data["revalidated"] is True, "not revalidated")


def _hl_derive(job, rc, out):
    _require(rc == 0, f"exit {rc}")
    data = _load(out, "hl-derive.json")
    _require(data["full"] is True, "derivation not full")
    recheck_grid(data["grid"], surrogate_coloring(data["coloring"]))


def _ddf(job, rc, out):
    _require(rc == 0, f"exit {rc}")
    _require(_load(out, "ddf-check.json")["ok"] is True, "not a DDF")


CHECKS = {
    "product-bound": _product_bound,
    "difference-check": _difference,
    "ramsey": _ramsey,
    "sideways-build": _sideways,
    "force-pipeline": _force_pipeline,
    "ph-refute": _ph_refute,
    "grid-search": _grid_search,
    "delta-extract": _delta_extract,
    "hl-derive": _hl_derive,
    "ddf-check": _ddf,
}


def check(job, rc, out: Path) -> None:
    """Raise CheckFailed unless the job's verdict and witnesses hold."""
    CHECKS[job.subcommand](job, rc, out)
