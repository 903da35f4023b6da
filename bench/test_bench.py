"""Self-test of the benchmark: every count repeats exactly.

    python3 -m pytest bench/test_bench.py -q

Runs each workload twice in trace mode at the same seed, each run in its
own process, and requires every count (calls, nodes, conditions built,
extraction paths, artifact bytes) and the digest of all artifacts to be
identical.  A small job count keeps it to about a minute; the jobs come
from the same generators the full runs use.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
JOBS = 24
SEED = 7


def traced_record(workload: str) -> dict:
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed",
         str(SEED), "--trace", "1", "--jobs", str(JOBS)],
        cwd=ROOT, capture_output=True, text=True, timeout=600, check=True)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"], proc.stdout
    path = ROOT / ".bench_out" / f"{workload}-seed{SEED}-trace1.json"
    record = json.loads(path.read_text())
    counts = {name: m["value"] for name, m in result["metrics"].items()
              if m["unit"] in ("count", "bytes")}
    return {"counts": counts, "wrapped": record["counts"],
            "calls": record["calls"], "digest": record["digest"],
            "exits": [job[4] for job in record["jobs"]]}


@pytest.mark.parametrize("workload", ["census", "pipeline", "search"])
def test_counts_repeat_exactly(workload):
    first = traced_record(workload)
    second = traced_record(workload)
    assert first["counts"], "no count metrics reported"
    for part in ("counts", "wrapped", "calls", "digest", "exits"):
        assert first[part] == second[part], part
