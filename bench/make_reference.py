"""Pin the verdicts of the grid-search input pool in reference.json.

    python3 bench/make_reference.py

The grid search is exhaustive, so whether a monochromatic grid exists is a
fact about its input.  This script draws the pool of grid-search inputs the
search workload samples from, runs each once through `polygrid.cli.main`,
and records its exit code (0 found, 1 none) and wall time.  Inputs slower
than MAX_MS are left out of the pool, so that no single job sets a
percentile; the count left out is recorded.  Run it again only when the
pool itself should change: the pinned verdicts are what later versions of
the program are checked against.
"""

from __future__ import annotations

import io
import json
import shutil
import time
from contextlib import redirect_stderr, redirect_stdout
from random import Random

from run import WORK, call, git_commit, import_program
from workloads import BENCH_DIR, SEED_RANGE

POOL_SIZE = 320
MAX_MS = 1500.0

# (d, depths, densities) per dimension; d=2 at depth 5 only with density 3
_SHAPES = {1: ((3, 4, 5), (2, 3)), 2: ((3, 4, 5), (2, 3)), 3: ((3,), (2, 3))}


def candidates(rng: Random):
    while True:
        if rng.random() < 0.3:
            # three colors, density 2 and the smallest cap: the class where
            # a seeded coloring most often admits no grid at all
            d, depth, density, cap, r = rng.randint(1, 2), rng.randint(3, 4), 2, 8, 3
        else:
            d = rng.choice((1, 1, 2, 2, 2, 3))
            depths, densities = _SHAPES[d]
            depth = rng.choice(depths)
            density = 3 if (d, depth) == (2, 5) else rng.choice(densities)
            cap = rng.randint(8, 32)
            r = rng.randint(2, 3)
        argv = ["grid-search", "--d", str(d), "--depth", str(depth),
                "--density", str(density), "--cap", str(cap), "--r", str(r)]
        if rng.random() < 0.75:
            argv += ["--coloring", "seeded", "--seed",
                     str(rng.randint(*SEED_RANGE))]
        else:
            argv += ["--coloring", "level-parity", "--value",
                     str(rng.randrange(r))]
        yield argv


def main() -> int:
    pkg = import_program()
    rng = Random("polygrid-bench:grid-pool")
    workdir = WORK / "reference"
    pool, seen, slow = [], set(), 0
    sink = io.StringIO()
    try:
        with redirect_stdout(sink), redirect_stderr(sink):
            for argv in candidates(rng):
                if len(pool) == POOL_SIZE:
                    break
                if tuple(argv) in seen:
                    continue
                seen.add(tuple(argv))
                t0 = time.perf_counter()
                rc, error = call(pkg.cli.main, argv, workdir)
                ms = (time.perf_counter() - t0) * 1e3
                if error is not None or rc not in (0, 1):
                    raise SystemExit(f"{argv}: {error or rc}")
                if ms > MAX_MS:
                    slow += 1
                    continue
                pool.append({"argv": argv, "exit": rc, "ms": round(ms, 1)})
                sink.seek(0)
                sink.truncate()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    ref = {
        "about": "pinned grid-search verdicts; regenerate with "
                 "bench/make_reference.py",
        "program_commit": git_commit(),
        "max_ms": MAX_MS,
        "left_out_slow": slow,
        "grid_search": sorted(pool, key=lambda e: e["argv"]),
    }
    (BENCH_DIR / "reference.json").write_text(json.dumps(ref, indent=1) + "\n")
    found = sum(e["exit"] == 0 for e in pool)
    print(f"{len(pool)} inputs pinned ({found} found, {len(pool) - found} none),"
          f" {slow} left out as slower than {MAX_MS:.0f} ms")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
