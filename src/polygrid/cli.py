"""Batch experiment runner: one subcommand per module operation family.

Configuration comes from plain key=value files plus flags (flags win,
unknown keys are rejected), all randomness flows from --seed, and every
run writes diffable artifacts: one JSON file per verdict, no timestamps,
keys sorted.  Exit statuses are part of the contract:
0 success, 1 declared failure, 2 budget exhaustion, 64 usage error (a
ParameterError, raised before any artifact is written), 70 internal error.
"""

from __future__ import annotations

import functools
import itertools
import json
import math
import os
import sys
import traceback
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from random import Random
from typing import Callable, Iterable, Iterator, Optional, Sequence

from . import antiramsey, deltasys, forcing, hl, ph, trees
from .ordset import CAP, ParameterError, capped

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
    deltasys.check_dimension(fam.dim)
    labels = {}
    for key, val in data.get("labels", {}).items():
        if not isinstance(val, (int, float, str, type(None))):
            raise ParameterError(f"label of key {key!r} is not a JSON scalar")
        labels[deltasys._key_from_str(key)] = val
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


# json.dumps(value, sort_keys=True, separators=(",", ":"), default=str):
# CPython runs its C encoder only for a whole encode() with no indent, never
# for iterencode(), so each chunk of an artifact is one encode() call
_dumps = json.JSONEncoder(sort_keys=True, separators=(",", ":"),
                          default=str).encode


def _sideways_chunks(payload: dict, names: list[str],
                     rows: list[list[int]]) -> Iterator[str]:
    """The chunks of _dumps(payload) with the sideways table as its member
    "table", one chunk per row, without the table's text ever being held.
    The row of each prefix, names joined by "|" over payload["d"]
    coordinates in product order, holds the colors of prefix + name.

    The bytes are those of _dumps over the whole table because the names
    are digit strings of one length in increasing order, so no key needs
    escaping and the keys come sorted; every payload key sorts before
    "table"; and payload and names are not empty.  Each distinct row
    object is formatted once and written for each of its prefixes with
    one join; rows holds every row, so no id is reused."""
    # reopen the payload's closing brace for the table
    yield _dumps(payload)[:-1] + ',"table":{'
    prefixes = map("".join, itertools.product(
        [name + "|" for name in names], repeat=payload["d"]))
    cells: dict[int, list[str]] = {}  # id(row) -> '<name>":<color>' cells
    sep = ""
    for prefix, row in zip(prefixes, rows, strict=True):
        if id(row) not in cells:
            cells[id(row)] = [f'{name}":{color:d}' for name, color
                              in zip(names, row, strict=True)]
        head = '"' + prefix
        yield sep + head + ("," + head).join(cells[id(row)])
        sep = ","
    yield "}}"


def _write_artifacts(cfg: RunConfig, payload: dict | Iterator[str],
                     suffix: str = "") -> None:
    """Write payload, or the JSON chunks handed in its place, to
    <command><suffix>.json, with a closing newline.

    A payload is encoded in one call, json.dumps(payload, sort_keys=True,
    separators=(",", ":"), default=str), before the file is opened: it is
    already held as Python objects larger than its text.  Only the
    sideways table, which can outgrow memory, comes as chunks, streamed
    one row at a time.  A failure while the chunks are written leaves no
    JSON file."""
    cfg.outdir.mkdir(parents=True, exist_ok=True)
    path = cfg.outdir / f"{cfg.command}{suffix}.json"
    chunks = payload if isinstance(payload, Iterator) else [_dumps(payload)]
    try:
        with open(path, "w") as fh:
            fh.writelines(chunks)
            fh.write("\n")
    except BaseException:
        path.unlink(missing_ok=True)
        raise


def _parse_words(raw: str, d: int) -> list[tuple[int, ...]]:
    """Comma-separated ASCII digit strings; '.' or an empty segment is the
    root."""
    parts = raw.split(",")
    if len(parts) != d:
        raise ParameterError(f"expected {d} comma-separated words, got {len(parts)}")
    try:
        return [trees.word_from_str("" if part == "." else part)
                for part in parts]
    except ValueError as exc:
        raise ParameterError(f"bad --roots: {exc}") from None


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
        rec = antiramsey.threshold(n, k, budget)
    except antiramsey.BudgetError as exc:
        rec = exc.record
        _write_artifacts(cfg, {
            "n": n, "k": k, "seed": cfg.seed, "ok": False,
            "budget": {
                "message": str(exc),
                "nodes_used": exc.nodes_used,
                "best_lower_bound": exc.best_lower_bound,
                "exhausted_at": exc.exhausted_at,
            },
            "record": {
                "lower": rec.lower, "lower_source": rec.lower_source,
                "upper": rec.upper, "upper_source": rec.upper_source,
                "bad_coloring_at": rec.lower - 1,
                "bad_coloring": _coloring_json(rec.bad),
            },
        })
        print(f"ramsey: budget exhausted: {exc}")
        return EXIT_BUDGET
    _write_artifacts(cfg, {
        "n": n, "k": k, "seed": cfg.seed, "ok": True,
        "m_star": rec.lower, "m_k": (n + 1) * rec.lower,
        "bad_coloring_at": rec.lower - 1,
        "bad_coloring": _coloring_json(rec.bad),
    })
    print(rec.lower)
    return EXIT_OK


def _coloring_json(col: antiramsey.Coloring) -> dict[str, int]:
    """A coloring keyed by its comma-joined subsets, in subset order."""
    return {",".join(map(str, key)): val for key, val in sorted(col.items())}


@_command("difference-check", {
    "n": (int, 1),
    "size": (int, 8),
    "mode": (str, "identity"),
})
def _run_difference(cfg: RunConfig) -> int:
    p = cfg.params
    arena = antiramsey.Arena(size=p["size"], dim=p["n"], mode=p["mode"],
                             seed=cfg.seed)
    # C(size, j) grows with j up to min(n + 1, size - n - 1)
    top = min(p["n"] + 1, p["size"] - p["n"] - 1)
    if capped(math.comb(p["size"], j) for j in range(top + 1)) > CAP:
        raise ParameterError(
            f"the {p['n'] + 1}-subsets of {p['size']} would exceed the cap "
            f"of {CAP} sets")
    rep = antiramsey.check_difference_lemma(arena)
    _write_artifacts(cfg, {
        "n": p["n"], "size": p["size"], "mode": p["mode"], "seed": cfg.seed,
        "eligible_pairs": rep.eligible_pairs,
        "violations": [
            [list(a), list(b), list(c)] for a, b, c in rep.violations
        ],
    })
    print(f"difference-check: {rep.eligible_pairs} pairs, "
          f"{len(rep.violations)} violations")
    return EXIT_OK if rep.ok else EXIT_FAIL


def _sampler(rng: Random, n: int, k: int) -> Callable[[], tuple[int, ...]]:
    """A draw function: each call returns tuple(sorted(rng.sample(range(n),
    k))), read from the same stream, and leaves rng as that sample would.

    A population past Random.sample's own pool-or-set switch is left to
    rng.sample.  A smaller one is drawn by Random.sample's pool method
    inlined, with its _randbelow as getrandbits rejection (as
    ph._SeededRows._draw inlines randint) and each step's bit length
    worked out once: a fresh pool, each pick swapped to the end of the
    items not yet picked."""
    if not 0 <= k <= n:
        raise ValueError("Sample larger than population or is negative")
    setsize = 21  # Random.sample's own switch
    if k > 5:
        setsize += 4 ** math.ceil(math.log(k * 3, 4))
    if n > setsize:
        return lambda: tuple(sorted(rng.sample(range(n), k)))
    getrandbits = rng.getrandbits
    steps = [(left - 1, left.bit_length()) for left in range(n, n - k, -1)]
    everyone = list(range(n))

    def draw_pool() -> tuple[int, ...]:
        pool = everyone[:]
        for end, bits in steps:
            j = getrandbits(bits)
            while j > end:
                j = getrandbits(bits)
            pool[j], pool[end] = pool[end], pool[j]
        return tuple(sorted(pool[n - k:]))
    return draw_pool


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
        raise ParameterError(
            "--samples must be >= 0 (0 enumerates every product)")
    # the arena checks --size and --n before the threshold search runs
    arena = antiramsey.Arena(size=size, dim=n, mode="identity")
    m = antiramsey.m_seq(n, k)
    if m > size:
        raise ParameterError(f"side size {m} does not fit in an arena of {size}")
    # C(size, j)^(n+1) grows with j up to min(m, size - m)
    n_products = samples or capped(math.comb(size, j) ** (n + 1)
                                   for j in range(min(m, size - m) + 1))
    if n_products > CAP:
        raise ParameterError(
            f"the census would exceed the cap of {CAP} products")
    # the parameters are checked above, so each product goes to the census
    # as plain sorted tuples
    products: Iterable[Sequence[tuple[int, ...]]]
    if samples == 0:
        products = itertools.product(itertools.combinations(range(size), m),
                                     repeat=n + 1)
    else:  # one stream, each product drawn when the census reaches it
        draw = _sampler(Random(f"product-bound:{cfg.seed}"), size, m)
        products = ([draw() for _ in range(n + 1)] for _ in range(samples))
    census = functools.partial(antiramsey.product_census, arena)
    # census size -> how many products have it
    sizes = Counter(map(len, map(census, products)))
    violations = sum(times for colors, times in sizes.items() if colors <= k)
    min_census = min(sizes)
    mode = "exhaustive" if samples == 0 else f"seeded:{samples}"
    _write_artifacts(cfg, {
        "n": n, "k": k, "size": size, "mode": mode, "seed": cfg.seed,
        "side_size": m, "pairs": n_products, "violations": violations,
        "min_census": min_census,
    })
    print(f"product-bound: {n_products} products, min census {min_census}, "
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
    _write_artifacts(cfg, payload)
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
        })
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
    })
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
        labels = labels or dict.fromkeys(fam.umap, 0)
    else:
        fam, labels, _ = deltasys.make_planted_family(
            p["num-indices"], p["planted"], p["n"], cfg.seed)
    res = deltasys.extract_uniform(fam, p["h"], labels, budget=p["budget"])
    if not res.ok:
        reason = (res.failure or {}).get("reason", "")
        _write_artifacts(cfg, {
            "ok": False, "seed": cfg.seed, "method": res.method,
            "nodes_used": res.nodes_used, "failure": res.failure,
        })
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
    })
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
    kind = forcing.ORACLE_KINDS.get(p["oracle"])
    if kind is None:
        raise ParameterError(f"unknown oracle kind {p['oracle']!r}")
    oracle = hl.LevelColoring(
        k=p["k"], d=p["d"], depth=p["depth-oracle"], r=p["colors"],
        kind=kind, value=p["value"], seed=cfg.seed,
    )
    res = forcing.run_pipeline(
        oracle, p["density"], p["branches"], buffer=p["buffer"],
        theta_start=p["theta"], theta_cap=p["theta-cap"],
    )
    res.transcript.update({"seed": cfg.seed,
                           "failure_code": res.failure_code})
    _write_artifacts(cfg, res.transcript)
    if res.witness is not None:
        _write_artifacts(cfg, res.transcript["witness"], suffix="-witness")
    print(f"force-pipeline: ok={res.ok} theta={res.theta} color={res.color}"
          + (f" failure={res.failure}" if res.failure else ""))
    if res.ok:
        return EXIT_OK
    return EXIT_BUDGET if res.failure_code == "theta-cap" else EXIT_FAIL


def _coloring_from(cfg: RunConfig) -> hl.LevelColoring:
    """The --coloring named on the command line."""
    p = cfg.params
    kind = str(p["coloring"])
    if kind not in hl.NAMED_KINDS + ("table",):
        raise ParameterError(f"unknown coloring kind {kind!r}")
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
    # the cone grid's branches differ below the roots, to the density depth
    hl.check_surrogate_size(gamma, [p["density"] - len(r) for r in roots])
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
    _write_artifacts(cfg, payload)
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
    hl.check_surrogate_size(gamma, [gamma.depth] * gamma.d)
    shapes = [trees.TreeShape(gamma.k, gamma.depth)] * gamma.d
    witness = hl.search_grid(functools.partial(hl.surrogate_product, gamma),
                             shapes, p["density"], p["cap"])
    if witness is None:
        _write_artifacts(cfg, {
            "found": False, "seed": cfg.seed, "coloring": gamma.to_json(),
        })
        print("grid-search: no monochromatic grid")
        return EXIT_FAIL
    # the per-tuple vote re-checks what the level-by-level kernel built
    ok, report = trees.validate_grid_witness(witness, hl.surrogate_fn(gamma))
    _write_artifacts(cfg, {
        "found": True, "seed": cfg.seed, "coloring": gamma.to_json(),
        "witness": witness.to_json(),
        "validation": {"ok": ok, "tuples": report["tuples"],
                       "color_failures": report["color_failures"]},
    })
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
    lift = hl.sideways_lift(jmap, d, j_bound, depth)
    shape = trees.TreeShape(k, depth)
    if capped(k ** j for j in range(depth * (d + 1) + 1)) > CAP:
        raise ParameterError(
            f"a sideways table of {d + 1}-tuples of branches would exceed "
            f"the cap of {CAP} tuples")
    side = trees.branches(shape)
    # rows before names, so that a bad jmap value is reported ahead of a
    # letter >= 10, as a walk in tuple order would
    rows = lift(side)
    names = [trees.word_to_str(x) for x in side]
    # the colors of each distinct row, once per prefix that holds it
    census: Counter = Counter()
    distinct = {id(row): row for row in rows}
    for key, uses in Counter(map(id, rows)).items():
        for color, count in Counter(distinct[key]).items():
            census[color] += count * uses
    # every name has depth digits and branches() lists words in order, so
    # the keys come sorted, and the table streams from its rows
    _write_artifacts(cfg, _sideways_chunks({
        "d": d, "k": k, "depth": depth, "j_bound": j_bound,
        "jmap": kind, "seed": cfg.seed,
    }, names, rows))
    print(f"sideways-build: {len(rows) * len(names)} tuples, census "
          + ", ".join(f"{c}:{census[c]}" for c in sorted(census)))
    return EXIT_OK


def _z_from(data: list) -> list[tuple[trees.Word, ...]]:
    """A z file: one list of branch words per tuple.  Their letters are
    checked by the density check, as every branch set is."""
    Z = []
    for entry in data:
        if not isinstance(entry, list) or any(
                not isinstance(s, str) for s in entry):
            raise ValueError(f"z entry {entry!r} is not a list of words")
        Z.append(tuple(map(trees.word_from_str, entry)))
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
        Z = _load_input(zfile, "z", _z_from)
    else:
        if capped(p["k"] ** j for j in range(p["depth"] * p["d"] + 1)) > CAP:
            raise ParameterError(
                f"the full product of {p['d']} trees would exceed the cap "
                f"of {CAP} tuples")
        Z = list(itertools.product(*(trees.branches(s) for s in shapes)))
    ok = trees.is_ddf_to_depth(shapes, Z, p["density"], p["mcap"])
    _write_artifacts(cfg, {
        "d": p["d"], "k": p["k"], "depth": p["depth"],
        "density": p["density"], "mcap": p["mcap"], "seed": cfg.seed,
        "size": len(Z), "ok": ok,
    })
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
        # a verdict, on stdout like the others
        print(f"{args[0]}: {exc}")
        return EXIT_BUDGET
    except Exception:
        # a fault of the program, not a verdict: never exit 1 for it
        traceback.print_exc()
        return EXIT_SOFTWARE


if __name__ == "__main__":
    sys.exit(main())
