"""polygrid benchmark: closed-loop CLI workloads with one client.

    python3 bench/run.py --workload census --seed 1 --seconds 15 --trace 0

Each run is one fresh process.  It imports `polygrid.cli` from `src/` and
runs one untimed warm-up job per job kind (the set-up), then calls
`polygrid.cli.main(argv)` for each job of the workload one after another,
with no threads.  The job argv lists are built from `--seed` alone (see
workloads.py); the program sees only the argv.  After the loop every
verdict is checked (see checks.py).

`--trace 0` reports the end-to-end metrics, measured with no wrappers
installed.  `--trace 1` runs the same jobs untraced and then traced, with
wrappers installed from outside the program (see tracing.py), and reports
the per-layer metrics.  The last line of standard output is one JSON
object: {"correct", "attempted", "failed", "metrics"}.  A run record with
the environment, the job mix, order statistics and every failing job's
argv is written to `.bench_out/`.  Exits non-zero, printing no result,
when the checkout has no polygrid sources.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from pathlib import Path
from types import SimpleNamespace

from checks import CheckFailed, check
from tracing import Tracer, install
from workloads import WORKLOADS, Job, build_jobs, job_count, warmup_jobs

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
OUT = ROOT / ".bench_out"

SETUP_SAMPLES = 5
CAL_REF_S = 1.2e-3  # calibration chunk time that defines reference speed
CAL_WINDOW = 5  # chunks on each side of a job that set its speed factor
CAL_SETUP = 50  # chunks after set-up
MODULES = ("antiramsey", "cli", "deltasys", "forcing", "hl", "ordset", "ph",
           "trees")
SUBCOMMANDS = ("product-bound", "difference-check", "ramsey",
               "sideways-build", "force-pipeline", "ph-refute", "grid-search",
               "delta-extract", "hl-derive", "ddf-check")
DECIDED = (0, 1)


@dataclass
class Result:
    job: Job
    rc: int | None
    error: str | None
    seconds: float  # wall time of main(argv)
    out: Path
    speed: float = 1.0  # factor from wall time to reference-speed time
    problem: str | None = None  # why the job failed, if it did


def import_program() -> SimpleNamespace:
    """Import polygrid from this checkout's src/, nowhere else."""
    if not (SRC / "polygrid" / "cli.py").is_file():
        raise SystemExit(f"bench: no polygrid sources under {SRC}")
    sys.path.insert(0, str(SRC))
    mods = {m: importlib.import_module(f"polygrid.{m}") for m in MODULES}
    where = Path(mods["cli"].__file__).resolve()
    if SRC.resolve() not in where.parents:
        raise SystemExit(f"bench: polygrid imported from {where}, not {SRC}")
    return SimpleNamespace(**mods)


def call(main, argv: list[str], out: Path) -> tuple[int | None, str | None]:
    """One job: main(argv) with its output directory; an exception becomes
    a failed job carrying the exception's last traceback line."""
    try:
        return main(argv + ["--out", str(out)]), None
    except Exception:
        return None, traceback.format_exc().strip().splitlines()[-1]


class _Pair:
    __slots__ = ("a", "b")

    def __init__(self, a: int, b: int):
        self.a, self.b = a, b


def _mix(x: int, y: int) -> int:
    return (x * 31 + y) % 1009


_STRIDED = list(range(140_000))


def calibrate() -> float:
    """Time one fixed chunk of interpreter work, about 1 ms: dict and
    tuple operations, small calls and object construction, and a strided
    walk over a list.  The chunk never changes, so its duration tracks the
    speed the shared machine gives this process right now.  The three parts
    slow down by different amounts when the machine is busy, as the
    program's own functions do; their sum follows the mix."""
    t0 = time.perf_counter()
    table: dict = {}
    for i in range(1400):
        key = (i % 97, i % 89)
        table[key] = table.get(key, 0) + i * 3 % 7
    acc = 0
    for i in range(800):
        p = _Pair(i, i + 1)
        acc = _mix(acc, p.a) + _mix(p.b, acc)
    total = 0
    for x in _STRIDED[::7]:
        total += x
    return time.perf_counter() - t0


def speed_factors(chunks: list[float]) -> list[float]:
    """Per-job factor CAL_REF_S / (median chunk time near the job): a
    job's wall time times its factor is its time at reference speed."""
    out = []
    for i in range(len(chunks)):
        near = chunks[max(0, i - CAL_WINDOW): i + CAL_WINDOW + 1]
        out.append(CAL_REF_S / statistics.median(near))
    return out


def setup(workload: str, workdir: Path) -> tuple[float, SimpleNamespace]:
    """Import the program and run one warm-up job per job kind; returns
    the set-up time at reference speed."""
    t0 = time.perf_counter()
    pkg = import_program()
    sink = io.StringIO()
    with redirect_stdout(sink), redirect_stderr(sink):
        for i, argv in enumerate(warmup_jobs(workload)):
            rc, error = call(pkg.cli.main, argv, workdir / f"warmup{i}")
            if error is not None or rc not in (0, 1, 2):
                raise SystemExit(f"bench: warm-up {argv} failed: {error or rc}")
    elapsed = time.perf_counter() - t0
    speed = CAL_REF_S / statistics.median(calibrate() for _ in range(CAL_SETUP))
    return elapsed * speed, pkg


def setup_probe(workload: str) -> float:
    """set-up time of a fresh interpreter running this script"""
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
         "--setup-probe"],
        cwd=ROOT, capture_output=True, text=True, timeout=120, check=True)
    return float(proc.stdout.strip().splitlines()[-1])


def run_loop(main, jobs: list[Job], workdir: Path,
             tracer: Tracer | None = None) -> list[Result]:
    """Closed loop, one client: each job starts when the previous one has
    returned.  A calibration chunk runs before each job."""
    results = []
    chunks = []
    sink = io.StringIO()
    clock = time.perf_counter
    with redirect_stdout(sink), redirect_stderr(sink):
        for job in jobs:
            out = workdir / f"j{job.index:04d}"
            gc.collect()
            chunks.append(calibrate())
            if tracer is not None:
                tracer.job = job.index
            t0 = clock()
            rc, error = call(main, list(job.argv), out)
            results.append(Result(job, rc, error, clock() - t0, out))
            sink.seek(0)
            sink.truncate()
    for r, speed in zip(results, speed_factors(chunks)):
        r.speed = speed
    return results


def judge(results: list[Result]) -> None:
    """Fill in Result.problem: raised, disallowed exit, wrong verdict or a
    failed re-check."""
    for r in results:
        if r.error is not None:
            r.problem = f"raised {r.error}"
            continue
        try:
            check(r.job, r.rc, r.out)
        except CheckFailed as exc:
            r.problem = str(exc)


def digest(results: list[Result]) -> tuple[str, int]:
    """sha256 over every artifact, in job order, and their total size."""
    h = hashlib.sha256()
    size = 0
    for r in results:
        if not r.out.is_dir():
            continue
        for path in sorted(r.out.iterdir()):
            data = path.read_bytes()
            size += len(data)
            h.update(f"{r.job.index}/{path.name}\0{len(data)}\0".encode())
            h.update(data)
    return h.hexdigest(), size


def percentile(sorted_xs: list[float], pct: int) -> tuple[int, float]:
    """Nearest-rank percentile: (index, value) of the ceil(pct/100 * n)-th
    smallest sample."""
    i = max(0, -(-pct * len(sorted_xs) // 100) - 1)
    return i, sorted_xs[i]


def ref_seconds(r: Result) -> float:
    return r.seconds * r.speed


def order_stats(results: list[Result]) -> dict:
    ranked = sorted(results, key=ref_seconds)
    xs = [ref_seconds(r) for r in ranked]
    out = {"n": len(xs)}
    for label, pct in (("p50", 50), ("p90", 90)):
        i, _ = percentile(xs, pct)
        out[label] = {
            "rank": i + 1,
            "beyond": len(xs) - i - 1,
            "neighbours": [[j + 1, xs[j], ranked[j].job.kind]
                           for j in range(max(0, i - 1), min(len(xs), i + 2))],
        }
    return out


def kind_table(results: list[Result]) -> dict:
    table: dict[str, dict] = {}
    for r in results:
        row = table.setdefault(r.job.kind, {"jobs": 0, "seconds": 0.0,
                                             "exits": {}})
        row["jobs"] += 1
        row["seconds"] += ref_seconds(r)
        code = "raised" if r.rc is None else str(r.rc)
        row["exits"][code] = row["exits"].get(code, 0) + 1
    total = sum(ref_seconds(r) for r in results) or 1.0
    for row in table.values():
        row["time_share"] = row["seconds"] / total
    return dict(sorted(table.items()))


def rate(results: list[Result]) -> float:
    """Jobs per second of job time at reference speed."""
    return len(results) / sum(ref_seconds(r) for r in results)


def end_to_end(results: list[Result], setups: list[float],
               peak_kib: int) -> dict:
    xs = sorted(ref_seconds(r) for r in results)
    n = len(xs)
    return {
        "setup_s": (statistics.median(setups), "s"),
        "jobs_per_s": (rate(results), "1/s"),
        "job_s.p50": (statistics.median(xs), "s"),
        "job_s.p90": (percentile(xs, 90)[1], "s"),
        "decided_share": (sum(r.rc in DECIDED for r in results) / n, "ratio"),
        "peak_rss_mb": (peak_kib / 1024, "MiB"),
    }


def _ramsey_artifacts(results: list[Result]) -> tuple[int, int]:
    """Search nodes and best lower bounds summed over the ramsey artifacts."""
    nodes = best = 0
    for r in results:
        path = r.out / "ramsey.json"
        if r.job.subcommand == "ramsey" and path.is_file():
            budget = json.loads(path.read_text()).get("budget") or {}
            nodes += budget.get("nodes_used") or 0
            best += budget.get("best_lower_bound") or 0
    return nodes, best


# wrapped function -> the aggregates reported for it
TIMED_FIELDS = {
    "antiramsey.c_full": ("calls", "self_s", "us_per_call"),
    "antiramsey.verify_product_bound": ("self_s",),
    "antiramsey.check_difference_lemma": ("self_s",),
    "antiramsey.ramsey_m_star": ("self_s",),
    "ph.make_cofinal": ("self_s",),
    "ph.is_cofinal": ("calls", "self_s"),
    "ph.refute": ("self_s",),
    "ph.verify_refutation": ("self_s",),
    "forcing.run_pipeline": ("self_s",),
    "forcing.decide_color": ("calls", "self_s", "us_per_call"),
    "forcing.meet_dense": ("self_s",),
    "deltasys.extract_uniform": ("calls", "self_s"),
    "deltasys.verify_uniform": ("calls", "self_s"),
    "hl.search_grid": ("self_s",),
    "hl.derive_strong_subtrees": ("self_s",),
    "hl.cone_grid": ("self_s",),
    "trees.is_dense_above": ("calls", "self_s"),
    "trees.validate_grid_witness": ("self_s",),
    "trees.is_ddf_to_depth": ("self_s",),
}
COUNTED = ("ph.CofinalFn.calls", "forcing.conditions_built",
           "forcing.Condition.with_slot.calls",
           "forcing.ColoringOracle.color.calls", "deltasys.extract.identity",
           "deltasys.extract.greedy", "deltasys.extract.exhaustive",
           "deltasys.extract.nodes", "hl.surrogate_color.calls",
           "hl.LevelColoring.color.calls", "ordset.OrdSet.built",
           "ordset.aligned.calls", "ordset.rset.calls")


def per_layer(tracer: Tracer, results: list[Result], artifact_bytes: int,
              ramsey: tuple[int, int], untraced_rate: float,
              traced_rate: float) -> dict:
    """Per-layer metrics of the traced loop.  Times here are wall seconds
    of the traced run, not reference-speed seconds."""
    stats, counts = tracer.stats, tracer.counts
    m: dict[str, tuple[float, str]] = {}
    for sub in SUBCOMMANDS:
        m[f"cli.{sub}.s"] = (sum(r.seconds for r in results
                                 if r.job.subcommand == sub), "s")
    m["cli.self_s"] = (stats["cli.main"][1], "s")
    m["cli.artifact_bytes"] = (artifact_bytes, "bytes")
    for name, fields in TIMED_FIELDS.items():
        c, s = stats[name]
        values = {"calls": (c, "count"), "self_s": (s, "s"),
                  "us_per_call": (s / c * 1e6 if c else 0.0, "us")}
        for field in fields:
            m[f"{name}.{field}"] = values[field]
    nodes, best = ramsey
    ramsey_s = stats["antiramsey.ramsey_m_star"][1]
    m["antiramsey.ramsey.nodes"] = (nodes, "count")
    m["antiramsey.ramsey.nodes_per_s"] = (nodes / ramsey_s if ramsey_s else 0.0,
                                          "1/s")
    m["antiramsey.ramsey.best_lower_bound"] = (best, "count")
    built = counts["ph.CofinalFn.built"]
    m["ph.make_cofinal.accept_ratio"] = (
        counts["ph.make_cofinal.accepted"] / built if built else 0.0, "ratio")
    for name in COUNTED:
        m[name] = (counts[name], "count")
    job_total = sum(r.seconds for r in results)
    m["trace.accounted_share"] = (
        sum(s for _, s in stats.values()) / job_total, "ratio")
    m["trace.overhead_ratio"] = (traced_rate / untraced_rate, "ratio")
    return m


def environment() -> dict:
    return {
        "python": platform.python_version(),
        "platform": platform.platform(),
        "nproc": os.cpu_count(),
        "commit": git_commit(),
    }


def git_commit() -> str:
    """HEAD of the checkout, read from .git without running git (the
    benchmark may run in an export that has no .git)."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def report(record: dict) -> None:
    """Human-readable summary, printed before the result line."""
    print(f"workload {record['workload']} seed {record['seed']} trace "
          f"{record['trace']}: {record['attempted']} jobs, "
          f"{record['wall_s']:.2f} s wall, {record['ref_s']:.2f} s at "
          f"reference speed (factor {record['speed']:.3f}), "
          f"{record['env']['python']}, nproc "
          f"{record['env']['nproc']}, commit {record['env']['commit'][:12]}")
    for kind, row in record["kinds"].items():
        print(f"  kind {kind}: {row['jobs']} jobs, "
              f"{100 * row['time_share']:.1f}% of job time, exits {row['exits']}")
    for label, stat in record["order_stats"].items():
        if label == "n":
            continue
        near = ", ".join(f"#{rank} {sec * 1e3:.1f} ms ({kind})"
                         for rank, sec, kind in stat["neighbours"])
        print(f"  job_s.{label}: rank {stat['rank']} of "
              f"{record['order_stats']['n']}, {stat['beyond']} beyond; {near}")
    print(f"  failed_share {record['failed_share']:.4f}, decided_share "
          f"{record['decided_share']:.4f}, artifacts "
          f"{record['artifact_bytes']} bytes, sha256 {record['digest'][:16]}")
    for f in record["failures"]:
        print(f"  FAILED job {f['index']} [{f['kind']}]: {f['problem']}: "
              f"polygrid {' '.join(f['argv'])}")
    for name, (value, unit) in record["metrics"].items():
        print(f"  metric {name} = {value:.6g} {unit}")
    print(f"  record {record['path']}")


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=15.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--jobs", type=int, default=0,
                    help="job count (default: from --seconds)")
    ap.add_argument("--setup-probe", action="store_true",
                    help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    workdir = WORK / f"{args.workload}-{os.getpid()}"
    try:
        setup_s, pkg = setup(args.workload, workdir)
        if args.setup_probe:
            print(setup_s)
            return 0
        n = args.jobs or job_count(args.workload, args.seconds)
        jobs = build_jobs(args.workload, args.seed, n)
        setups = [setup_s]
        if not args.trace:
            setups += [setup_probe(args.workload)
                       for _ in range(SETUP_SAMPLES - 1)]
        results = run_loop(pkg.cli.main, jobs, workdir)
        peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        tracer = None
        if args.trace:
            untraced_rate = rate(results)
            untraced_exits = [r.rc for r in results]
            for r in results:
                shutil.rmtree(r.out, ignore_errors=True)
            tracer = Tracer()
            traced_main = install(tracer, pkg)
            try:
                results = run_loop(traced_main, jobs, workdir, tracer)
            finally:
                tracer.restore()
        judge(results)
        if tracer is not None:
            for r, rc in zip(results, untraced_exits):
                if r.problem is None and r.rc != rc:
                    r.problem = f"exit {r.rc} traced, {rc} untraced"
        sha, size = digest(results)
        ramsey = _ramsey_artifacts(results)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    if tracer is None:
        metrics = end_to_end(results, setups, peak_kib)
    else:
        metrics = per_layer(tracer, results, size, ramsey, untraced_rate,
                            rate(results))
    failures = [r for r in results if r.problem is not None]
    # a job that raised failed, but produced no wrong answer
    wrong = [r for r in failures if r.error is None]
    OUT.mkdir(exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    record = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "seconds": args.seconds, "env": environment(),
        "attempted": len(results),
        "wall_s": sum(r.seconds for r in results),
        "ref_s": sum(ref_seconds(r) for r in results),
        "speed": statistics.median(r.speed for r in results),
        "setup_samples": setups,
        "kinds": kind_table(results),
        "order_stats": order_stats(results),
        "failed_share": len(failures) / len(results),
        "decided_share": sum(r.rc in DECIDED for r in results) / len(results),
        "failures": [{"index": r.job.index, "kind": r.job.kind,
                      "argv": list(r.job.argv), "problem": r.problem}
                     for r in failures],
        "digest": sha, "artifact_bytes": size,
        "jobs": [[r.job.index, r.job.kind, r.seconds, r.speed, r.rc]
                 for r in results],
        "metrics": metrics, "path": str((OUT / f"{tag}.json").relative_to(ROOT)),
    }
    if tracer is not None:
        record["counts"] = dict(sorted(tracer.counts.items()))
        record["calls"] = {k: v[0] for k, v in sorted(tracer.stats.items())}
        (OUT / f"{tag}-spans.json").write_text(json.dumps(
            {"columns": ["job", "name", "start", "end"],
             "spans": tracer.spans}))
    (OUT / f"{tag}.json").write_text(json.dumps(record, indent=1) + "\n")
    report(record)
    print(json.dumps({
        "correct": not wrong,
        "attempted": len(results),
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
