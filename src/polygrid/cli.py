"""Batch experiment runner: one subcommand per module operation family.

Configuration comes from plain key=value files plus flags (flags win,
unknown keys are rejected), all randomness flows from --seed, and every
run writes diffable artifacts: witness JSON plus a CSV summary, no
timestamps, keys sorted.  Exit statuses are part of the contract:
0 success, 1 declared failure, 2 budget exhaustion, 64 usage error (a
ParameterError, raised before any artifact is written), 70 internal error.
"""

from __future__ import annotations

import csv
import itertools
import json
import os
import sys
import traceback
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from random import Random
from typing import Callable, Iterable, Optional, Sequence

from . import antiramsey, deltasys, forcing, hl, ph, trees
from .ordset import OrdSet, ParameterError

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_BUDGET = 2
EXIT_USAGE = 64
EXIT_SOFTWARE = 70

OUTDIR_ENV = "POLYGRID_OUT"

_REQUIRED = object()

Schema = dict[str, tuple[type, object]]  # key -> (type, default)

_COMMON: Schema = {
    "config": (str, ""),
    "out": (str, ""),
    "seed": (int, 0),
}


@dataclass
class RunConfig:
    command: str
    params: dict[str, object]
    outdir: Path
    seed: int


# subcommand -> (its parameter schema, its handler)
_COMMANDS: dict[str, tuple[Schema, Callable[[RunConfig], int]]] = {}


def _command(name: str, schema: Schema):
    """Register the decorated handler as subcommand `name`."""
    def register(handler: Callable[[RunConfig], int]):
        _COMMANDS[name] = (schema, handler)
        return handler
    return register


def _usage() -> str:
    lines = ["usage: polygrid <subcommand> [--key value ...]", "subcommands:"]
    for name in sorted(_COMMANDS):
        keys = " ".join(f"--{k}" for k in sorted(_COMMANDS[name][0]))
        lines.append(f"  {name}: {keys}")
    lines.append("common flags: --config FILE --out DIR --seed N")
    lines.append(f"default output directory: ${OUTDIR_ENV} or the cwd")
    return "\n".join(lines)


def _read_input(raw: str, what: str) -> str:
    """Text of an input file named on the command line."""
    path = Path(raw)
    if not path.is_file():
        raise ParameterError(f"{what} file {raw!r} not found")
    return path.read_text()


def _load_input(raw: str, what: str, parse: Callable[[object], object]):
    """parse() applied to the JSON of an input file named on the command
    line; a file that is not JSON, or that parse() rejects, is a
    ParameterError."""
    text = _read_input(raw, what)
    try:
        return parse(json.loads(text))
    except (ValueError, KeyError, TypeError, AttributeError) as exc:
        raise ParameterError(f"{what} file {raw!r}: {exc!r}") from None


def _family_from(data: dict) -> tuple[deltasys.Family, dict]:
    """A family file: the family (bare or under "family") and its labels."""
    fam = deltasys.Family.from_json(data.get("family", data))
    labels = {deltasys._key_from_str(key): val
              for key, val in data.get("labels", {}).items()}
    return fam, labels


def parse_config(argv: Sequence[str]) -> Optional[RunConfig]:
    """Subcommand plus flags, with an optional key=value config file.

    File values apply first, flags override, unknown keys are rejected.
    Returns None when help was requested.
    """
    if not argv or argv[0] in ("-h", "--help", "help"):
        print(_usage())
        return None
    cmd = argv[0]
    if cmd not in _COMMANDS:
        raise ParameterError(f"unknown subcommand {cmd!r}")
    schema = {**_COMMON, **_COMMANDS[cmd][0]}

    flags: dict[str, str] = {}
    i = 1
    while i < len(argv):
        tok = argv[i]
        if not tok.startswith("--"):
            raise ParameterError(f"expected a --flag, got {tok!r}")
        if i + 1 >= len(argv):
            raise ParameterError(f"flag {tok} needs a value")
        flags[tok[2:]] = argv[i + 1]
        i += 2

    merged: dict[str, str] = {}
    cfg_file = flags.get("config", "")
    if cfg_file:
        for raw in _read_input(cfg_file, "config").splitlines():
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ParameterError(f"malformed config line {line!r}")
            key, _, val = line.partition("=")
            merged[key.strip()] = val.strip()
    merged.update(flags)
    merged.pop("config", None)

    params: dict[str, object] = {}
    for key, raw in merged.items():
        if key not in schema:
            raise ParameterError(f"unknown key {key!r} for subcommand {cmd}")
        typ, _ = schema[key]
        if typ is int:
            try:
                params[key] = int(raw)
            except ValueError:
                raise ParameterError(f"value {raw!r} for --{key} is not an integer")
        else:
            params[key] = raw
    for key, (typ, default) in schema.items():
        if key == "config" or key in params:
            continue
        if default is _REQUIRED:
            raise ParameterError(f"--{key} is required for {cmd}")
        params[key] = default

    outdir = Path(str(params.pop("out")) or os.environ.get(OUTDIR_ENV, "."))
    seed = int(params.pop("seed"))
    return RunConfig(cmd, params, outdir, seed)


def _write_artifacts(cfg: RunConfig, payload: dict,
                     rows: Sequence[dict] = (), suffix: str = "") -> None:
    """Write payload to <command><suffix>.json and, when rows are given,
    a CSV headed by the first row's keys to <command><suffix>.csv."""
    cfg.outdir.mkdir(parents=True, exist_ok=True)
    stem = f"{cfg.command}{suffix}"
    text = json.dumps(payload, sort_keys=True, indent=2, default=str) + "\n"
    (cfg.outdir / f"{stem}.json").write_text(text)
    if rows:
        with open(cfg.outdir / f"{stem}.csv", "w", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(rows[0])
            writer.writerows(row.values() for row in rows)


def _parse_words(raw: str, d: int) -> list[tuple[int, ...]]:
    """Comma-separated digit strings; '.' or an empty segment is the root."""
    if not raw:
        return [()] * d
    parts = raw.split(",")
    if len(parts) != d:
        raise ParameterError(f"expected {d} comma-separated words, got {len(parts)}")
    out = []
    for part in parts:
        if part in (".", ""):
            out.append(())
        elif part.isdigit():
            out.append(trees.word_from_str(part))
        else:
            raise ParameterError(f"bad word {part!r}: digit strings only")
    return out


# ---------------------------------------------------------------------------
# handlers


@_command("ramsey", {
    "n": (int, 1),
    "k": (int, 2),
    "budget": (int, antiramsey.DEFAULT_BUDGET),
})
def _run_ramsey(cfg: RunConfig) -> int:
    n, k, budget = cfg.params["n"], cfg.params["k"], cfg.params["budget"]
    try:
        m_star = antiramsey.ramsey_m_star(n, k, budget)
        m_k = antiramsey.m_seq(n, k, budget)
    except antiramsey.BudgetError as exc:
        _write_artifacts(cfg, {
            "n": n, "k": k, "seed": cfg.seed, "ok": False,
            "budget": {
                "message": str(exc),
                "nodes_used": exc.nodes_used,
                "best_lower_bound": exc.best_lower_bound,
                "exhausted_at": exc.exhausted_at,
            },
        })
        print(f"ramsey: budget exhausted: {exc}")
        return EXIT_BUDGET
    bad = antiramsey.find_bad_coloring(n, m_star - 1, k, budget)
    _write_artifacts(cfg, {
        "n": n, "k": k, "seed": cfg.seed, "ok": True,
        "m_star": m_star, "m_k": m_k,
        "bad_coloring_at": m_star - 1,
        "bad_coloring": None if bad is None else {
            ",".join(map(str, key)): val for key, val in sorted(bad.items())
        },
    }, [{"n": n, "k": k, "m_star": m_star, "m_k": m_k}])
    print(m_star)
    return EXIT_OK


@_command("difference-check", {
    "n": (int, 1),
    "size": (int, 8),
    "mode": (str, "identity"),
})
def _run_difference(cfg: RunConfig) -> int:
    p = cfg.params
    arena = antiramsey.Arena(size=p["size"], dim=p["n"], mode=p["mode"],
                             seed=cfg.seed)
    rep = antiramsey.check_difference_lemma(arena)
    _write_artifacts(cfg, {
        "n": p["n"], "size": p["size"], "mode": p["mode"], "seed": cfg.seed,
        "eligible_pairs": rep.eligible_pairs,
        "violations": [
            [list(a), list(b), list(c)] for a, b, c in rep.violations
        ],
    }, [{"mode": p["mode"], "seed": cfg.seed, "n": p["n"], "size": p["size"],
         "eligible_pairs": rep.eligible_pairs,
         "violations": len(rep.violations)}])
    print(f"difference-check: {rep.eligible_pairs} pairs, "
          f"{len(rep.violations)} violations")
    return EXIT_OK if rep.ok else EXIT_FAIL


@_command("product-bound", {
    "n": (int, 1),
    "k": (int, 1),
    "size": (int, 10),
    "samples": (int, 0),
})
def _run_product_bound(cfg: RunConfig) -> int:
    p = cfg.params
    n, k, size, samples = p["n"], p["k"], p["size"], p["samples"]
    if samples < 0:
        raise ParameterError("--samples must be >= 0 (0 enumerates every pair)")
    try:
        m = antiramsey.m_seq(n, k)
    except antiramsey.BudgetError as exc:
        print(f"product-bound: {exc}")
        return EXIT_BUDGET
    if m > size:
        raise ParameterError(f"side size {m} does not fit in an arena of {size}")
    if samples == 0 and n != 1:
        raise ParameterError("exhaustive pair enumeration is only wired for n=1")
    arena = antiramsey.Arena(size=size, dim=n, mode="identity")
    pairs: Iterable[tuple[OrdSet, ...]]
    if samples == 0:
        subsets = [OrdSet(c) for c in
                   itertools.combinations(range(size), m)]
        pairs = itertools.product(subsets, repeat=2)
        n_pairs = len(subsets) ** 2
    else:
        pairs = []
        for t in range(samples):
            rng = Random(f"product-bound:{cfg.seed}:{t}")
            pairs.append(tuple(
                OrdSet(tuple(sorted(rng.sample(range(size), m))))
                for _ in range(n + 1)
            ))
        n_pairs = samples
    violations = 0
    min_census = None
    for sets in pairs:
        ok, census = antiramsey.verify_product_bound(arena, sets, k)
        if not ok:
            violations += 1
        if min_census is None or len(census) < min_census:
            min_census = len(census)
    mode = "exhaustive" if samples == 0 else f"seeded:{samples}"
    _write_artifacts(cfg, {
        "n": n, "k": k, "size": size, "mode": mode, "seed": cfg.seed,
        "side_size": m, "pairs": n_pairs, "violations": violations,
        "min_census": min_census,
    }, [{"n": n, "k": k, "size": size, "mode": mode, "pairs": n_pairs,
         "violations": violations, "min_census": min_census}])
    print(f"product-bound: {n_pairs} products, min census {min_census}, "
          f"{violations} violations")
    return EXIT_OK if violations == 0 else EXIT_FAIL


@_command("ph-refute", {
    "entry-bound": (int, 64),
    "n": (int, 1),
    "spread": (int, 8),
})
def _run_ph_refute(cfg: RunConfig) -> int:
    p = cfg.params
    arena = antiramsey.Arena(size=p["entry-bound"], dim=p["n"],
                             mode="identity")
    gen = ph.make_cofinal(p["entry-bound"], p["n"] + 1, cfg.seed,
                          spread=p["spread"])
    ref = ph.refute(gen.fn, arena)
    verified = ph.verify_refutation(gen.fn, arena, ref)
    payload = ref.to_json()
    payload.update({"seed": cfg.seed, "skips": gen.skips,
                    "verified": verified})
    _write_artifacts(cfg, payload, [{
        "n": p["n"], "entry_bound": p["entry-bound"], "seed": cfg.seed,
        "method": ref.method, "ok": ref.ok, "verified": verified}])
    print(f"ph-refute: method {ref.method}, verified {verified}")
    return EXIT_OK if ref.ok and verified else EXIT_FAIL


@_command("delta-verify", {
    "family": (str, _REQUIRED),
    "certificate": (str, ""),
})
def _run_delta_verify(cfg: RunConfig) -> int:
    p = cfg.params
    fam, _ = _load_input(str(p["family"]), "family", _family_from)
    outcome = deltasys.verify_uniform(fam)
    if isinstance(outcome, deltasys.Violation):
        _write_artifacts(cfg, {
            "uniform": False, "seed": cfg.seed,
            "violation": outcome.to_json(),
        }, [{"uniform": False, "kind": outcome.kind}])
        print(f"delta-verify: violation ({outcome.kind})")
        return EXIT_FAIL
    matches = None
    cert_file = str(p["certificate"])
    if cert_file:
        stored = _load_input(cert_file, "certificate",
                             deltasys.UniformCertificate.from_json)
        matches = (stored.dim == outcome.dim and stored.rho == outcome.rho
                   and stored.patterns == outcome.patterns)
    _write_artifacts(cfg, {
        "uniform": True, "seed": cfg.seed,
        "certificate": outcome.to_json(),
        "matches_stored": matches,
    }, [{"uniform": True, "kind": "certificate"}])
    print("delta-verify: uniform"
          + ("" if matches is None else f", matches stored: {matches}"))
    return EXIT_OK if matches in (None, True) else EXIT_FAIL


@_command("delta-extract", {
    "num-indices": (int, 200),
    "planted": (int, 12),
    "n": (int, 2),
    "h": (int, 6),
    "budget": (int, 200_000),
    "family": (str, ""),
})
def _run_delta_extract(cfg: RunConfig) -> int:
    p = cfg.params
    fam_file = str(p["family"])
    if fam_file:
        fam, labels = _load_input(fam_file, "family", _family_from)
        labels = labels or (lambda b: 0)
    else:
        fam, labels, _ = deltasys.make_planted_family(
            p["num-indices"], p["planted"], p["n"], cfg.seed)
    res = deltasys.extract_uniform(fam, p["h"], labels, budget=p["budget"])
    if not res.ok:
        reason = (res.failure or {}).get("reason", "")
        _write_artifacts(cfg, {
            "ok": False, "seed": cfg.seed, "method": res.method,
            "nodes_used": res.nodes_used, "failure": res.failure,
        }, [{"ok": False, "method": res.method, "h": p["h"],
             "reason": reason}])
        print(f"delta-extract: failed ({reason})")
        return EXIT_BUDGET if reason == "budget" else EXIT_FAIL
    sub = deltasys.restrict(fam, res.indices)
    recheck = deltasys.verify_uniform(sub)
    sound = (isinstance(recheck, deltasys.UniformCertificate)
             and recheck.patterns == res.certificate.patterns)
    _write_artifacts(cfg, {
        "ok": True, "seed": cfg.seed, "method": res.method,
        "nodes_used": res.nodes_used,
        "indices": list(res.indices.elems),
        "g_value": res.g_value,
        "certificate": res.certificate.to_json(),
        "revalidated": sound,
    }, [{"ok": True, "method": res.method, "h": p["h"], "reason": ""}])
    print(f"delta-extract: |H'| = {res.indices.otp} via {res.method}, "
          f"revalidated {sound}")
    return EXIT_OK if sound else EXIT_FAIL


@_command("force-pipeline", {
    "d": (int, 2),
    "k": (int, 2),
    "depth-oracle": (int, 2),
    "density": (int, 3),
    "branches": (int, 8),
    "buffer": (int, 4),
    "oracle": (str, "seeded"),
    "colors": (int, 2),
    "value": (int, 0),
    "theta": (int, 64),
    "theta-cap": (int, 2 ** 14),
})
def _run_force_pipeline(cfg: RunConfig) -> int:
    p = cfg.params
    oracle = forcing.ColoringOracle(
        k=p["k"], d=p["d"], depth=p["depth-oracle"],
        num_colors=p["colors"], kind=p["oracle"], value=p["value"],
        seed=cfg.seed,
    )
    res = forcing.run_pipeline(
        oracle, p["density"], p["branches"], buffer=p["buffer"],
        theta_start=p["theta"], theta_cap=p["theta-cap"],
    )
    res.transcript["seed"] = cfg.seed
    _write_artifacts(cfg, res.transcript, [{
        "d": p["d"], "k": p["k"], "seed": cfg.seed, "ok": res.ok,
        "theta": res.theta, "color": res.color,
        "failure": res.failure or ""}])
    if res.witness is not None:
        _write_artifacts(cfg, res.witness.to_json(), suffix="-witness")
    print(f"force-pipeline: ok={res.ok} theta={res.theta} color={res.color}"
          + (f" failure={res.failure}" if res.failure else ""))
    if res.ok:
        return EXIT_OK
    return EXIT_BUDGET if res.failure_code == "theta-cap" else EXIT_FAIL


def _coloring_from(cfg: RunConfig) -> hl.LevelColoring:
    """The --coloring named on the command line."""
    p = cfg.params
    kind = str(p["coloring"])
    if kind == "table":
        tfile = str(p["table"])
        if not tfile:
            raise ParameterError("--table FILE is required for the table kind")
        return _load_input(tfile, "table", hl.LevelColoring.from_json)
    roots: tuple[tuple[int, ...], ...] = ()
    if kind == "planted-grid":
        raw = str(p["roots"])
        if not raw:
            raise ParameterError("--roots is required for planted-grid")
        roots = tuple(_parse_words(raw, p["d"]))
    return hl.LevelColoring(
        k=p["k"], d=p["d"], depth=p["depth"], r=p["r"], kind=kind,
        value=p["value"], seed=cfg.seed, roots=roots,
    )


_COLORING_SCHEMA: Schema = {
    "d": (int, 1),
    "k": (int, 2),
    "r": (int, 2),
    "coloring": (str, "constant"),
    "value": (int, 0),
    "roots": (str, ""),
    "table": (str, ""),
}


@_command("hl-derive", {
    **_COLORING_SCHEMA,
    "depth": (int, 8),
    "density": (int, 3),
    "height": (int, 2),
})
def _run_hl_derive(cfg: RunConfig) -> int:
    p = cfg.params
    gamma = _coloring_from(cfg)
    if str(p["roots"]):
        roots = [tuple(w) for w in _parse_words(str(p["roots"]), gamma.d)]
    elif gamma.kind == "planted-grid":
        roots = list(gamma.roots)
    else:
        roots = [()] * gamma.d
    hl.check_witness_height(p["height"])
    grid = hl.cone_grid(gamma, roots, p["density"])
    if grid is None:
        _write_artifacts(cfg, {
            "ok": False, "seed": cfg.seed, "coloring": gamma.to_json(),
            "reason": "no constant-color cone grid at the given roots",
        })
        print("hl-derive: no cone grid")
        return EXIT_FAIL
    res = hl.derive_strong_subtrees(gamma, grid, p["height"])
    payload = res.to_json()
    payload.update({"seed": cfg.seed, "coloring": gamma.to_json(),
                    "grid": grid.to_json()})
    _write_artifacts(cfg, payload, [{
        "kind": gamma.kind, "d": gamma.d, "k": gamma.k, "depth": gamma.depth,
        "height": res.height, "full": res.full,
        "failed_stage": "" if res.failed_stage is None else res.failed_stage}])
    print(f"hl-derive: full={res.full} height={res.height}"
          + (f" reason={res.reason}" if res.reason else ""))
    return EXIT_OK if res.full else EXIT_FAIL


@_command("grid-search", {
    **_COLORING_SCHEMA,
    "depth": (int, 4),
    "density": (int, 2),
    "cap": (int, 64),
})
def _run_grid_search(cfg: RunConfig) -> int:
    p = cfg.params
    gamma = _coloring_from(cfg)
    shapes = [trees.TreeShape(gamma.k, gamma.depth)] * gamma.d
    fn = hl.surrogate_fn(gamma)
    witness = hl.search_grid(fn, shapes, p["density"], p["cap"])
    if witness is None:
        _write_artifacts(cfg, {
            "found": False, "seed": cfg.seed, "coloring": gamma.to_json(),
        })
        print("grid-search: no monochromatic grid")
        return EXIT_FAIL
    ok, report = trees.validate_grid_witness(witness, fn)
    _write_artifacts(cfg, {
        "found": True, "seed": cfg.seed, "coloring": gamma.to_json(),
        "witness": witness.to_json(),
        "validation": {"ok": ok, "tuples": report["tuples"],
                       "color_failures": report["color_failures"]},
    }, [{"kind": gamma.kind, "d": gamma.d, "density": p["density"],
         "cap": p["cap"], "color": witness.color, "validated": ok}])
    print(f"grid-search: found color {witness.color}, validated {ok}")
    return EXIT_OK if ok else EXIT_FAIL


@_command("sideways-build", {
    "d": (int, 1),
    "k": (int, 2),
    "depth": (int, 4),
    "j-bound": (int, 2),
    "jmap": (str, "constant"),
    "value": (int, 0),
})
def _run_sideways(cfg: RunConfig) -> int:
    p = cfg.params
    d, k, depth, j_bound = p["d"], p["k"], p["depth"], p["j-bound"]
    kind = str(p["jmap"])
    if kind == "constant":
        jmap: Callable = lambda xs: p["value"]
    elif kind == "first-letter" and d >= 1:
        jmap = lambda xs: xs[0][0] % j_bound
    else:
        raise ParameterError(f"no jmap kind {kind!r} for --d {d}")
    fn = hl.sideways_build(jmap, d, j_bound, depth)
    side = trees.branches(trees.TreeShape(k, depth))
    # colors before names, so that a bad jmap value is reported ahead of a
    # letter >= 10, as a walk in tuple order would
    colors = [fn(combo) for combo in itertools.product(side, repeat=d + 1)]
    names = [trees.word_to_str(x) for x in side]
    table = dict(zip(
        map("|".join, itertools.product(names, repeat=d + 1)), colors))
    census = Counter(table.values())
    _write_artifacts(cfg, {
        "d": d, "k": k, "depth": depth, "j_bound": j_bound,
        "jmap": kind, "seed": cfg.seed, "table": table,
    }, [{"color": c, "count": census[c]} for c in sorted(census)])
    print(f"sideways-build: {len(table)} tuples, census "
          + ", ".join(f"{c}:{census[c]}" for c in sorted(census)))
    return EXIT_OK


def _z_from(data: list, k: int) -> list[tuple[trees.Word, ...]]:
    """A z file: one list of branch words per tuple, letters in 0..k-1
    (checked here, once, rather than in the density checks)."""
    Z = []
    for entry in data:
        if not isinstance(entry, list) or any(
                not isinstance(s, str) for s in entry):
            raise ValueError(f"z entry {entry!r} is not a list of words")
        z = tuple(map(trees.word_from_str, entry))
        for x in z:
            if any(c >= k for c in x):
                raise ValueError(f"branch {x} has a letter outside 0..{k - 1}")
        Z.append(z)
    return Z


@_command("ddf-check", {
    "d": (int, 2),
    "k": (int, 2),
    "depth": (int, 2),
    "density": (int, 2),
    "mcap": (int, 2),
    "zfile": (str, ""),
})
def _run_ddf_check(cfg: RunConfig) -> int:
    p = cfg.params
    shapes = [trees.TreeShape(p["k"], p["depth"])] * p["d"]
    zfile = str(p["zfile"])
    if zfile:
        Z = _load_input(zfile, "z", lambda data: _z_from(data, p["k"]))
    else:
        Z = list(itertools.product(*(trees.branches(s) for s in shapes)))
    ok = trees.is_ddf_to_depth(shapes, Z, p["density"], p["mcap"])
    _write_artifacts(cfg, {
        "d": p["d"], "k": p["k"], "depth": p["depth"],
        "density": p["density"], "mcap": p["mcap"], "seed": cfg.seed,
        "size": len(Z), "ok": ok,
    }, [{"d": p["d"], "k": p["k"], "depth": p["depth"],
         "density": p["density"], "mcap": p["mcap"], "size": len(Z),
         "ok": ok}])
    print(f"ddf-check: {len(Z)} tuples, ok={ok}")
    return EXIT_OK if ok else EXIT_FAIL


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = list(sys.argv[1:] if argv is None else argv)
    try:
        cfg = parse_config(args)
        if cfg is None:
            return EXIT_OK
        return _COMMANDS[cfg.command][1](cfg)
    except ParameterError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except antiramsey.BudgetError as exc:
        print(f"budget exhausted: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except Exception:
        # a fault of the program, not a verdict: never exit 1 for it
        traceback.print_exc()
        return EXIT_SOFTWARE


if __name__ == "__main__":
    sys.exit(main())
