"""Workload definitions: seeded job lists of `polygrid` argv.

A workload is a mix of job kinds.  Each kind draws its parameters from the
ranges documented below and reports an *input key*: the flags the
computation actually reads, so that two jobs whose argv differ only in an
ignored flag (for example `--seed` under the identity arena) count as the
same input.  Every job of a run has a distinct input key, and the warm-up
inputs used for set-up are disjoint from all of them, so a cache keyed on
inputs cannot turn a run into lookups.

Job counts per kind are fixed fractions of the run's job count, and within
a kind the dominant cost parameter is stratified (job j of n draws from the
j-th of n equal slices of its range), so job times spread over the same
range on every seed while the inputs themselves change with the seed.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path
from random import Random
from typing import Callable

BENCH_DIR = Path(__file__).resolve().parent

# mean job time at reference speed (see calibrate in run.py) on a 2-vCPU
# x86-64 machine with Python 3.11; the run's job count is --seconds divided
# by this, and never below MIN_JOBS
NOMINAL_JOB_S = {"census": 0.040, "pipeline": 0.134, "search": 0.060}
MIN_JOBS = 100

# seeds handed to the program by timed jobs; warm-ups use seed 0
SEED_RANGE = (1, 2 ** 31 - 1)


@dataclass(frozen=True)
class Job:
    index: int
    kind: str
    argv: tuple[str, ...]
    expect: dict  # kind-specific known answer (grid-search pinned verdict)

    @property
    def subcommand(self) -> str:
        return self.argv[0]


Draw = tuple[list[str], tuple, dict]


@dataclass(frozen=True)
class Kind:
    """One job kind: its share of the run, its generator and its warm-up.

    `gen(rng, u)` returns (argv, input key, expectation); u in [0, 1) is the
    stratified position in the kind's cost range.  `fixed` overrides the
    share with an absolute count (for kinds with very few distinct inputs).
    """

    name: str
    share: float
    gen: Callable[[Random, float], Draw]
    warmup: list[str]
    fixed: int | None = None


def _flags(sub: str, **kw) -> list[str]:
    argv = [sub]
    for key, val in kw.items():
        argv += ["--" + key.replace("_", "-"), str(val)]
    return argv


def _seed(rng: Random) -> int:
    return rng.randint(*SEED_RANGE)


def _span(u: float, lo: int, hi: int) -> int:
    """The integer at quantile u of lo..hi inclusive."""
    return lo + min(int(u * (hi - lo + 1)), hi - lo)


# ---------------------------------------------------------------------------
# census: the coloring layer (antiramsey)


def _pb_sampled(k: int, sizes: tuple[int, int]):
    def gen(rng: Random, u: float) -> Draw:
        size = rng.randint(*sizes)
        samples = _span(u, 100, 300)
        seed = _seed(rng)
        argv = _flags("product-bound", n=1, k=k, size=size, samples=samples,
                      seed=seed)
        return argv, ("pb", k, size, samples, seed), {"k": k}
    return gen


def _pb_exhaustive(rng: Random, u: float) -> Draw:
    size = 8 if u < 0.5 else 9
    return (_flags("product-bound", n=1, k=1, size=size, samples=0),
            ("pb-exh", size), {"k": 1})


def _difference(rng: Random, u: float) -> Draw:
    n = _span(u, 1, 3)
    size = rng.randint(8, 16)
    if rng.random() < 0.5:
        return (_flags("difference-check", n=n, size=size, mode="identity"),
                ("diff", n, size, "identity"), {})
    seed = _seed(rng)
    return (_flags("difference-check", n=n, size=size, mode="seeded",
                   seed=seed),
            ("diff", n, size, "seeded", seed), {})


M_STAR = {(1, 3): 17, (2, 2): 13}


def _ramsey(rng: Random, u: float) -> Draw:
    n, k = rng.choice(sorted(M_STAR))
    budget = _span(u, 10_000, 60_000)
    return (_flags("ramsey", n=n, k=k, budget=budget), ("ramsey", n, k, budget),
            {"m_star": M_STAR[(n, k)]})


# (d, k, depth) by table size: 256, 1024, 4096 twice, 6561 and 32768 tuples
_SIDEWAYS_SHAPES = [(1, 2, 4), (1, 2, 5), (1, 2, 6), (2, 2, 4), (1, 3, 4),
                    (2, 2, 5)]


def _sideways(rng: Random, u: float) -> Draw:
    d, k, depth = _SIDEWAYS_SHAPES[_span(u, 0, len(_SIDEWAYS_SHAPES) - 1)]
    j_bound = rng.randint(1, depth - 1)
    if rng.random() < 0.5:
        value = rng.randrange(j_bound)
        argv = _flags("sideways-build", d=d, k=k, depth=depth,
                      j_bound=j_bound, jmap="constant", value=value)
        key = ("side", d, k, depth, j_bound, "constant", value)
    else:
        argv = _flags("sideways-build", d=d, k=k, depth=depth,
                      j_bound=j_bound, jmap="first-letter")
        key = ("side", d, k, depth, j_bound, "first-letter")
    return argv, key, {}


CENSUS = [
    Kind("product-bound/sampled-k2", 0.26, _pb_sampled(2, (20, 26)),
         _flags("product-bound", n=1, k=2, size=19, samples=20, seed=0)),
    Kind("product-bound/sampled-k1", 0.24, _pb_sampled(1, (10, 14)),
         _flags("product-bound", n=1, k=1, size=9, samples=20, seed=0)),
    Kind("product-bound/exhaustive", 0.0, _pb_exhaustive,
         _flags("product-bound", n=1, k=1, size=7, samples=0), fixed=2),
    Kind("difference-check", 0.22, _difference,
         _flags("difference-check", n=2, size=7, mode="seeded", seed=0)),
    Kind("ramsey", 0.14, _ramsey, _flags("ramsey", n=1, k=3, budget=5000)),
    Kind("sideways-build", 0.12, _sideways,
         _flags("sideways-build", d=1, depth=3, j_bound=2, jmap="first-letter")),
]


# ---------------------------------------------------------------------------
# pipeline: the forcing layer


def _oracle(rng: Random, p_seeded: float = 0.7) -> tuple[list[str], tuple]:
    """Oracle flags and their input-key part: seeded mostly, else
    first-letter or constant (whose colors ignore --seed)."""
    x = rng.random()
    if x < p_seeded:
        seed = _seed(rng)
        return ["--oracle", "seeded", "--seed", str(seed)], ("seeded", seed)
    if x < (1 + p_seeded) / 2:
        return ["--oracle", "first-letter"], ("first-letter",)
    value = rng.randrange(2)
    return ["--oracle", "constant", "--value", str(value)], ("constant", value)


def _fp_d1(rng: Random, u: float) -> Draw:
    branches = _span(u, 8, 16)
    density = rng.randint(3, 4)
    oflags, okey = _oracle(rng)
    argv = _flags("force-pipeline", d=1, branches=branches,
                  density=density) + oflags
    return argv, ("fp", 1, 2, branches, density, 4, 64) + okey, {}


# extract_uniform scans every h-subset of the theta indices when there are
# at most this many of them, instead of taking the identity path
EXHAUSTIVE_LIMIT = 20_000


def _first_theta(d: int, branches: int, buffer: int, theta: int) -> tuple[int, int]:
    """(theta, h_target) of the pipeline's first extraction round: theta
    doubles until it reaches h_target = d * (branches * buffer + 1)."""
    h = d * (branches * buffer + 1)
    while theta < h:
        theta *= 2
    return theta, h


def _exhaustive_route(d: int, branches: int, buffer: int, theta: int) -> bool:
    theta, h = _first_theta(d, branches, buffer, theta)
    return math.comb(theta, h) <= EXHAUSTIVE_LIMIT


# d=2 on the identity path, ordered by the number of decide calls,
# C(theta, 2).  A start theta just at or above h_target would send
# extraction down the exhaustive route over C(h, 2) keys (5 to 25 s at
# these sizes); those inputs belong to no job.
_D2_IDENTITY = sorted(
    ((k, b, buf, t) for k in (2, 3) for b in (8, 9) for buf in (2, 3, 4)
     for t in range(32, 65) if not _exhaustive_route(2, b, buf, t)),
    key=lambda c: (_first_theta(2, c[1], c[2], c[3])[0], c),
)


def _fp_d2(rng: Random, u: float) -> Draw:
    k, branches, buffer, theta = _D2_IDENTITY[_span(u, 0, len(_D2_IDENTITY) - 1)]
    oflags, okey = _oracle(rng)
    argv = _flags("force-pipeline", d=2, k=k, branches=branches, buffer=buffer,
                  theta=theta) + oflags
    return argv, ("fp", 2, k, branches, 3, buffer, theta) + okey, {}


# d=3, buffer 2, on the identity path, ordered by the number of decide
# calls C(theta, 3).  At branches 3 and 4 the exhaustive route verifies a
# 1330- or 2925-key family (10 s and more), so its start thetas (21-25 and
# 27-30) belong to no job.
_D3_IDENTITY = sorted(
    ((b, t) for b in (2, 3, 4) for t in range(16, 33)
     if not _exhaustive_route(3, b, 2, t)),
    key=lambda bt: (_first_theta(3, bt[0], 2, bt[1])[0], bt),
)


def _fp_d3_identity(rng: Random, u: float) -> Draw:
    branches, theta = _D3_IDENTITY[_span(u, 0, len(_D3_IDENTITY) - 1)]
    oflags, okey = _oracle(rng)
    argv = _flags("force-pipeline", d=3, branches=branches, buffer=2,
                  theta=theta) + oflags
    return argv, ("fp", 3, 2, branches, 3, 2, theta) + okey, {}


def _fp_d3_exhaustive(rng: Random, u: float) -> Draw:
    theta = _span(u, 16, 20)
    oflags, okey = _oracle(rng)
    argv = _flags("force-pipeline", d=3, branches=2, buffer=2,
                  theta=theta) + oflags
    return argv, ("fp", 3, 2, 2, 3, 2, theta) + okey, {}


def _fp_wide(rng: Random, u: float) -> Draw:
    oflags, okey = _oracle(rng, p_seeded=0.8)
    argv = _flags("force-pipeline", d=2, branches=16, density=4) + oflags
    return argv, ("fp", 2, 2, 16, 4, 4, 64) + okey, {}


PIPELINE = [
    Kind("force-pipeline/d1", 0.30, _fp_d1,
         _flags("force-pipeline", d=1, branches=4, density=2, seed=0)),
    Kind("force-pipeline/d2", 0.42, _fp_d2,
         _flags("force-pipeline", d=2, branches=2, buffer=2, theta=16, seed=0)),
    Kind("force-pipeline/d3-identity", 0.22, _fp_d3_identity,
         _flags("force-pipeline", d=3, branches=1, buffer=2, density=2,
                theta=16, seed=0)),
    Kind("force-pipeline/d3-exhaustive", 0.03, _fp_d3_exhaustive,
         _flags("force-pipeline", d=3, branches=1, buffer=1, density=2,
                theta=8, seed=0)),
    Kind("force-pipeline/d2-wide", 0.03, _fp_wide,
         _flags("force-pipeline", d=2, branches=4, density=3, buffer=1,
                theta=16, seed=0)),
]


# ---------------------------------------------------------------------------
# search: ph, hl, deltasys and trees


def _ph(n: int, bounds: tuple[int, int]):
    def gen(rng: Random, u: float) -> Draw:
        eb = _span(u, *bounds)
        seed = _seed(rng)
        return (_flags("ph-refute", n=n, entry_bound=eb, seed=seed),
                ("ph", n, eb, seed), {})
    return gen


def load_grid_pool() -> list[dict]:
    """Grid-search inputs with their pinned verdicts (see make_reference.py)."""
    data = json.loads((BENCH_DIR / "reference.json").read_text())
    return data["grid_search"]


def _grid_search(pool: list[dict]):
    ordered = sorted(pool, key=lambda e: (e["ms"], e["argv"]))

    def gen(rng: Random, u: float) -> Draw:
        # pick near quantile u of the pool's recorded cost
        pos = _span(u, 0, len(ordered) - 1)
        entry = ordered[min(len(ordered) - 1, max(0, pos + rng.randint(-2, 2)))]
        return (list(entry["argv"]), ("grid",) + tuple(entry["argv"]),
                {"exit": entry["exit"]})
    return gen


def _delta_extract(rng: Random, u: float) -> Draw:
    if u < 0.75:
        n, num = 2, _span(u / 0.75, 40, 150)
    else:
        n, num = 3, _span((u - 0.75) / 0.25, 40, 60)
    h = rng.randint(5, 6)
    seed = _seed(rng)
    argv = _flags("delta-extract", n=n, num_indices=num, h=h, seed=seed)
    return argv, ("delta", n, num, h, seed), {"h": h}


def _word(rng: Random, length: int) -> str:
    return "".join(str(rng.randrange(2)) for _ in range(length)) or "."


def _hl_derive(rng: Random, u: float) -> Draw:
    """Parameters on which the derivation is full by construction.

    Stage n grows stems one letter past the stage-(n-1) level, and the cone
    grid holds every extension only up to the density depth, so density
    must reach the last stem: root height + h - 1 for colorings constant on
    consecutive levels, and (h - 1) * r for level parity with r colors,
    whose color classes recur every r levels.  Draws whose cone grid has
    more than 512 tuples (0.4 s and up) are redrawn.
    """
    d = _span(u, 1, 3)
    while True:
        depth = rng.randint(8, 12)
        height = rng.randint(2, 3)
        kind = rng.choice(("planted-grid", "level-parity", "constant"))
        flags = dict(coloring=kind, d=d, depth=depth, height=height)
        root_len = 0
        key_extra: tuple = ()
        if kind == "level-parity":
            r = rng.randint(2, 3)
            flags.update(r=r, value=rng.randrange(r), density=(height - 1) * r)
        elif kind == "constant":
            r = rng.randint(2, 3)
            flags.update(r=r, value=rng.randrange(r),
                         density=height + rng.randint(0, 1))
        else:
            root_len = rng.randint(0, 2)
            roots = [_word(rng, root_len) for _ in range(d)]
            seed = _seed(rng)
            flags.update(roots=",".join(roots), value=rng.randrange(2),
                         density=root_len + height - 1 + rng.randint(0, 1),
                         seed=seed)
            key_extra = (seed,)
        if 2 ** ((flags["density"] - root_len) * d) <= 512:
            break
    argv = _flags("hl-derive", **flags)
    key = ("hl",) + tuple(argv[1:]) + key_extra
    return argv, key, {}


_DDF = sorted(
    [(d, depth, dens, mcap)
     for d in (2, 3) for depth in (2, 3) for dens in range(1, depth + 1)
     for mcap in (1, 2, 3)],
    key=lambda c: (c[0] * c[1], c[3], c),
)


def _ddf(rng: Random, u: float) -> Draw:
    d, depth, dens, mcap = _DDF[_span(u, 0, len(_DDF) - 1)]
    return (_flags("ddf-check", d=d, depth=depth, density=dens, mcap=mcap),
            ("ddf", d, depth, dens, mcap), {})


def _search_kinds() -> list[Kind]:
    return [
        Kind("ph-refute/n1", 0.26, _ph(1, (32, 64)),
             _flags("ph-refute", n=1, entry_bound=24, seed=0)),
        Kind("ph-refute/n2", 0.04, _ph(2, (16, 32)),
             _flags("ph-refute", n=2, entry_bound=12, spread=2, seed=0)),
        Kind("grid-search", 0.24, _grid_search(load_grid_pool()),
             _flags("grid-search", coloring="seeded", d=1, depth=3, density=2,
                    cap=8, seed=0)),
        Kind("delta-extract", 0.16, _delta_extract,
             _flags("delta-extract", n=2, num_indices=30, h=4, seed=0)),
        Kind("hl-derive", 0.22, _hl_derive,
             _flags("hl-derive", coloring="level-parity", d=1, depth=6,
                    height=2)),
        Kind("ddf-check", 0.08, _ddf,
             _flags("ddf-check", d=2, depth=1, density=1, mcap=1)),
    ]


WORKLOADS: dict[str, Callable[[], list[Kind]]] = {
    "census": lambda: CENSUS,
    "pipeline": lambda: PIPELINE,
    "search": _search_kinds,
}


def job_count(workload: str, seconds: float) -> int:
    return max(MIN_JOBS, round(seconds / NOMINAL_JOB_S[workload]))


def _allocate(kinds: list[Kind], n: int) -> list[int]:
    """Per-kind counts: fixed ones first, the rest split by share with
    largest remainders, so the counts sum to n."""
    rest = n - sum(k.fixed or 0 for k in kinds)
    total = sum(k.share for k in kinds if k.fixed is None)
    raw = [rest * k.share / total if k.fixed is None else 0.0 for k in kinds]
    counts = [k.fixed if k.fixed is not None else int(x)
              for k, x in zip(kinds, raw)]
    spare = n - sum(counts)
    order = sorted((i for i, k in enumerate(kinds) if k.fixed is None),
                   key=lambda i: (counts[i] - raw[i], i))
    for i in order[:spare]:
        counts[i] += 1
    return counts


def warmup_jobs(workload: str) -> list[list[str]]:
    return [list(k.warmup) for k in WORKLOADS[workload]()]


def build_jobs(workload: str, seed: int, n: int) -> list[Job]:
    """The run's job list: deterministic in (workload, seed, n)."""
    kinds = WORKLOADS[workload]()
    warmups = [list(k.warmup) for k in kinds]
    rng = Random(f"polygrid-bench:{workload}:{seed}")
    seen: set = set()
    drawn: list[tuple[str, list[str], dict]] = []
    for kind, count in zip(kinds, _allocate(kinds, n)):
        for j in range(count):
            u = (j + rng.random()) / count
            for attempt in range(400):
                argv, key, expect = kind.gen(rng, u)
                if key not in seen and argv not in warmups:
                    break
                # redraw within the job's slice; once the slice's inputs
                # run out (long runs), anywhere in the kind's range
                u = (j + rng.random()) / count if attempt < 50 else rng.random()
            else:
                raise RuntimeError(
                    f"{kind.name}: {count} jobs exhaust its distinct inputs; "
                    "use fewer --seconds")
            seen.add(key)
            drawn.append((kind.name, argv, expect))
    rng.shuffle(drawn)
    return [Job(i, name, tuple(argv), expect)
            for i, (name, argv, expect) in enumerate(drawn)]
