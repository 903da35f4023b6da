"""Per-layer tracing installed from outside the program.

Wrappers replace module attributes and class methods for the duration of
a traced loop.  A timed wrapper keeps an aggregate (calls, self time) per
name, computed with a per-call stack: self time is a call's duration minus
the durations of the timed calls made inside it.  A counted wrapper only
counts.  Spans are kept only per job and per layer entry (a timed call
whose caller belongs to another layer), never per call, because the inner
functions run millions of times per run.
"""

from __future__ import annotations

import time
from typing import Callable


class Tracer:
    def __init__(self):
        self.stats: dict[str, list] = {}  # name -> [calls, self_s]
        self.counts: dict[str, int] = {}
        self.spans: list[tuple[int, str, float, float]] = []
        self.job = -1
        self._stack: list[list] = []  # [start, child_s, layer]
        self._undo: list[tuple[object, str, object]] = []

    def timed(self, name: str, fn: Callable,
              on_return: Callable[[object], None] | None = None) -> Callable:
        stat = self.stats.setdefault(name, [0, 0.0])
        layer = name.split(".", 1)[0]
        stack, spans, clock = self._stack, self.spans, time.perf_counter

        def wrapper(*args, **kwargs):
            frame = [clock(), 0.0, layer]
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                total = end - frame[0]
                stat[0] += 1
                stat[1] += total - frame[1]
                if stack:
                    parent = stack[-1]
                    parent[1] += total
                    if parent[2] != layer:
                        spans.append((self.job, name, frame[0], end))
                else:
                    spans.append((self.job, name, frame[0], end))
            if on_return is not None:
                on_return(result)
            return result

        return wrapper

    def counted(self, name: str, fn: Callable) -> Callable:
        counts = self.counts
        counts.setdefault(name, 0)

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def bump(self, name: str, by: int = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + by

    def patch(self, owners, attr: str, make: Callable[[Callable], Callable]) -> None:
        """Replace owner.attr with make(original) on every owner that binds
        the same original object (modules that imported it by name)."""
        original = getattr(owners[0], attr)
        wrapped = make(original)
        for owner in owners:
            if getattr(owner, attr) is not original:
                raise RuntimeError(f"{owner!r}.{attr} is not the shared original")
            self._undo.append((owner, attr, owner.__dict__[attr]))
            setattr(owner, attr, wrapped)

    def restore(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)


def install(tracer: Tracer, pkg) -> Callable:
    """Wrap the program's layer functions; returns the traced `cli.main`.

    `pkg` is a namespace holding the imported polygrid modules.  Names are
    patched in every module that binds them: ph imports c_full, forcing
    imports extract_uniform and validate_grid_witness, hl imports
    validate_grid_witness and deltasys imports aligned and rset by name.
    """
    ar, ph, fo, de, hl, tr, os_ = (pkg.antiramsey, pkg.ph, pkg.forcing,
                                   pkg.deltasys, pkg.hl, pkg.trees, pkg.ordset)

    def timed(name, on_return=None):
        return lambda fn: tracer.timed(name, fn, on_return)

    def counted(name):
        return lambda fn: tracer.counted(name, fn)

    def extract_path(res) -> None:
        tracer.bump(f"deltasys.extract.{res.method}")
        tracer.bump("deltasys.extract.nodes", res.nodes_used)

    for name in ("identity", "greedy", "exhaustive", "nodes"):
        tracer.bump(f"deltasys.extract.{name}", 0)
    tracer.bump("ph.make_cofinal.accepted", 0)

    tracer.patch([ar, ph], "c_full", timed("antiramsey.c_full"))
    for fn in ("verify_product_bound", "check_difference_lemma",
               "ramsey_m_star"):
        tracer.patch([ar], fn, timed(f"antiramsey.{fn}"))
    tracer.patch([ph], "make_cofinal", timed(
        "ph.make_cofinal", lambda _: tracer.bump("ph.make_cofinal.accepted")))
    for fn in ("is_cofinal", "refute", "verify_refutation"):
        tracer.patch([ph], fn, timed(f"ph.{fn}"))
    tracer.patch([ph.CofinalFn], "__call__", counted("ph.CofinalFn.calls"))
    tracer.patch([ph.CofinalFn], "__init__", counted("ph.CofinalFn.built"))
    for fn in ("run_pipeline", "decide_color", "meet_dense"):
        tracer.patch([fo], fn, timed(f"forcing.{fn}"))
    tracer.patch([fo.Condition], "__post_init__",
                 counted("forcing.conditions_built"))
    tracer.patch([fo.Condition], "with_slot",
                 counted("forcing.Condition.with_slot.calls"))
    tracer.patch([fo.ColoringOracle], "color",
                 counted("forcing.ColoringOracle.color.calls"))
    tracer.patch([de, fo], "extract_uniform",
                 timed("deltasys.extract_uniform", extract_path))
    tracer.patch([de], "verify_uniform", timed("deltasys.verify_uniform"))
    for fn in ("search_grid", "derive_strong_subtrees", "cone_grid"):
        tracer.patch([hl], fn, timed(f"hl.{fn}"))
    tracer.patch([hl], "surrogate_color", counted("hl.surrogate_color.calls"))
    tracer.patch([hl.LevelColoring], "color",
                 counted("hl.LevelColoring.color.calls"))
    tracer.patch([tr], "is_dense_above", timed("trees.is_dense_above"))
    tracer.patch([tr, fo, hl], "validate_grid_witness",
                 timed("trees.validate_grid_witness"))
    tracer.patch([tr], "is_ddf_to_depth", timed("trees.is_ddf_to_depth"))
    tracer.patch([os_.OrdSet], "__post_init__", counted("ordset.OrdSet.built"))
    tracer.patch([os_, de], "aligned", counted("ordset.aligned.calls"))
    tracer.patch([os_, de], "rset", counted("ordset.rset.calls"))
    return tracer.timed("cli.main", pkg.cli.main)
