"""Subsequence-monotone index functions and constant-color refutations.

A cofinal function dominates its singleton inputs and is monotone under
the subsequence order; the strict variant grows along proper subsequences.
Composing one with an increasing chain of index tuples and feeding the
result to the compound coloring can never be constant: the module builds,
for any strict cofinal table, two chains whose compound colors differ.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from random import Random
from typing import Optional, Sequence

from .antiramsey import Arena, TupleColor, c_full

SeqTuple = tuple[int, ...]
Sigma = tuple[SeqTuple, ...]


def is_subseq(xs: Sequence[int], ys: Sequence[int]) -> bool:
    """True iff xs embeds into ys preserving order (not necessarily contiguous)."""
    it = iter(ys)
    return all(any(x == y for y in it) for x in xs)


def proper_subsequences(ys: SeqTuple) -> list[SeqTuple]:
    """All nonempty proper subsequences, deduplicated, deterministic order."""
    out = set()
    for r in range(1, len(ys)):
        out.update(itertools.combinations(ys, r))
    return sorted(out)


class CofinalFn:
    """Table-backed total map on nonempty tuples over {0..entry_bound-1}
    of length <= arity.  Values are plain naturals; they are range-checked
    against an arena only at the point where they get colored."""

    def __init__(self, entry_bound: int, arity: int, table: dict[SeqTuple, int]):
        if arity < 1:
            raise ValueError("arity must be >= 1")
        self.entry_bound = entry_bound
        self.arity = arity
        self.table = dict(table)
        for length in range(1, arity + 1):
            for xs in itertools.product(range(entry_bound), repeat=length):
                if xs not in self.table:
                    raise ValueError(f"table is not total: missing {xs}")

    def __call__(self, xs: Sequence[int]) -> int:
        t = tuple(xs)
        if not 1 <= len(t) <= self.arity:
            raise ValueError(f"tuple length {len(t)} outside 1..{self.arity}")
        if any(not 0 <= x < self.entry_bound for x in t):
            raise ValueError(f"entry outside 0..{self.entry_bound - 1}: {t}")
        return self.table[t]

    @classmethod
    def from_formula(cls, entry_bound: int, arity: int, fn) -> "CofinalFn":
        table = {}
        for length in range(1, arity + 1):
            for xs in itertools.product(range(entry_bound), repeat=length):
                table[xs] = fn(xs)
        return cls(entry_bound, arity, table)


@dataclass
class CofinalCheck:
    ok: bool
    counterexample: Optional[tuple[str, SeqTuple, SeqTuple]] = None


def is_cofinal(F: CofinalFn, strict: bool = False) -> CofinalCheck:
    """Verify domination on singletons and (strict) subsequence monotonicity
    over the whole finite domain; first violation is returned."""
    for x in range(F.entry_bound):
        if not x <= F((x,)):
            return CofinalCheck(False, ("domination", (x,), (x,)))
    for length in range(2, F.arity + 1):
        for ys in itertools.product(range(F.entry_bound), repeat=length):
            fy = F(ys)
            for xs in proper_subsequences(ys):
                fx = F(xs)
                if strict and not fx < fy:
                    return CofinalCheck(False, ("strict-monotone", xs, ys))
                if not strict and not fx <= fy:
                    return CofinalCheck(False, ("monotone", xs, ys))
    return CofinalCheck(True)


def is_sigma_seq(sigma: Sigma) -> bool:
    """Entry i has length i+1 and each entry is a subsequence of the next."""
    for i, xs in enumerate(sigma):
        if len(xs) != i + 1:
            return False
    return all(
        is_subseq(sigma[i], sigma[i + 1]) for i in range(len(sigma) - 1)
    )


def fstar(F: CofinalFn, sigma: Sigma) -> SeqTuple:
    """Apply F entrywise along a chain."""
    if not is_sigma_seq(sigma):
        raise ValueError("sigma is not an increasing chain")
    return tuple(F(xs) for xs in sigma)


def sigma_pair(F: CofinalFn, i_star: int,
               n: int | None = None) -> tuple[Sigma, Sigma]:
    """Two chains that agree except at position i_star, where the second
    jumps past everything F reaches on the shared prefix.

    With alpha = F((0..i_star)) + 1, both chains walk the initial segments,
    the second swaps position i_star for one ending in alpha, and both
    continue through (0..i_star, alpha, alpha+1, ...).
    """
    if n is None:
        n = F.arity - 1
    if n != F.arity - 1:
        raise ValueError(f"n={n} does not match the table arity {F.arity}")
    if not 0 <= i_star <= n:
        raise ValueError(f"slot {i_star} outside 0..{n}")
    prefix = tuple(range(i_star + 1))
    alpha = F(prefix) + 1
    top = alpha + max(0, n - i_star - 1)
    if top >= F.entry_bound:
        raise ValueError(
            f"arena too small: divergent pair needs entries up to {top}, "
            f"bound is {F.entry_bound}")
    sigma0 = [tuple(range(i + 1)) for i in range(i_star + 1)]
    sigma1 = list(sigma0)
    sigma1[i_star] = tuple(range(i_star)) + (alpha,)
    for ell in range(n - i_star):
        shared = prefix + tuple(alpha + j for j in range(ell + 1))
        sigma0.append(shared)
        sigma1.append(shared)
    return tuple(sigma0), tuple(sigma1)


# ---------------------------------------------------------------------------
# seeded generation


class NoAdmissibleTable(ValueError):
    """make_cofinal found no table whose refutation window fits the
    entry bound within its attempts."""


@dataclass
class GeneratedCofinal:
    fn: CofinalFn
    seed: int
    skips: int


def make_cofinal(entry_bound: int, arity: int, seed: int,
                 spread: int = 8, max_attempts: int = 64) -> GeneratedCofinal:
    """Seeded strict cofinal table: max entry plus a positive seeded bump,
    then a monotone repair pass by tuple length.

    Candidates whose refutation window would push colored values past the
    entry bound are skipped (counted); each candidate is validated with the
    strict check before being returned.
    """
    n = arity - 1
    skips = 0
    for attempt in range(max_attempts):
        rng = Random(f"cofinal:{seed}:{attempt}")
        table: dict[SeqTuple, int] = {}
        for length in range(1, arity + 1):
            for xs in itertools.product(range(entry_bound), repeat=length):
                raw = max(xs) + rng.randint(1, spread)
                floor = 0
                if length > 1:
                    floor = 1 + max(table[sub] for sub in proper_subsequences(xs))
                table[xs] = max(raw, floor)
        fn = CofinalFn(entry_bound, arity, table)
        if not _window_fits(fn, entry_bound):
            skips += 1
            continue
        if not is_cofinal(fn, strict=True).ok:
            skips += 1
            continue
        return GeneratedCofinal(fn=fn, seed=seed, skips=skips)
    raise NoAdmissibleTable(
        f"no admissible cofinal table after {max_attempts} attempts "
        f"(entry bound {entry_bound}, arity {arity}, seed {seed})")


def _window_fits(F: CofinalFn, bound: int) -> bool:
    """All values the refutation can feed to a coloring stay below bound."""
    n = F.arity - 1
    try:
        probes = [_canonical_probe(n)]
        for i_star in range(n + 1):
            s0, s1 = sigma_pair(F, i_star)
            probes.extend([s0, s1])
        return all(v < bound for sigma in probes for v in fstar(F, sigma))
    except ValueError:
        return False


def _canonical_probe(n: int) -> Sigma:
    return tuple(tuple(range(i + 1)) for i in range(n + 1))


# ---------------------------------------------------------------------------
# refutation


@dataclass
class Refutation:
    ok: bool
    method: str
    sigma_a: Sigma
    sigma_b: Sigma
    color_a: TupleColor
    color_b: TupleColor
    probe: Sigma
    probe_color: TupleColor
    transcript: dict = field(default_factory=dict)

    def to_json(self) -> dict:
        return {
            "ok": self.ok,
            "method": self.method,
            "sigma_a": [list(t) for t in self.sigma_a],
            "sigma_b": [list(t) for t in self.sigma_b],
            "color_a": list(self.color_a),
            "color_b": list(self.color_b),
            "probe": [list(t) for t in self.probe],
            "probe_color": list(self.probe_color),
            "transcript": self.transcript,
        }


def _colored(arena: Arena, values: SeqTuple) -> TupleColor:
    if any(v >= arena.size for v in values):
        raise ValueError(
            f"arena too small: coloring values {values} against size {arena.size}")
    return c_full(arena, values)


def refute(F: CofinalFn, arena: Arena) -> Refutation:
    """Exhibit two chains whose composed colors differ.

    Probes the canonical chain first.  Its color slot lies below the
    dimension, and the divergent pair at that slot settles it: either the
    pair's two colors differ, or the pair disagrees with the probe.
    """
    n = F.arity - 1
    if arena.dim != n:
        raise ValueError(f"arena dimension {arena.dim} does not match n={n}")
    pre = is_cofinal(F, strict=True)
    if not pre.ok:
        raise ValueError(f"not strictly cofinal: {pre.counterexample}")
    probe = _canonical_probe(n)
    pv = fstar(F, probe)
    v = _colored(arena, pv)
    # the probe's values increase strictly, so the slot is the rank of the
    # distinguished element, which is pulled back from below the maximum
    assert v.slot < n, "distinguished element is the maximum"
    s0, s1 = sigma_pair(F, v.slot)
    w0, w1 = fstar(F, s0), fstar(F, s1)
    # structural assertions: the difference hypothesis holds by construction
    assert all(w0[i] < w0[i + 1] for i in range(n)), "image not increasing"
    assert all(w1[i] < w1[i + 1] for i in range(n)), "image not increasing"
    assert all(w0[i] == w1[i] for i in range(n + 1) if i != v.slot)
    assert w0[v.slot] < w1[v.slot]
    v0 = _colored(arena, w0)
    v1 = _colored(arena, w1)
    if v0.slot == v.slot == v1.slot:
        assert v0.value != v1.value, "difference property violated by the arena"
    transcript = {
        "probe_values": list(pv),
        "pair_values": [list(w0), list(w1)],
        "slot": v.slot,
    }
    if v0 != v1:
        return Refutation(True, "constructed", s0, s1, v0, v1, probe, v, transcript)
    if v != v0:
        return Refutation(True, "constructed", probe, s0, v, v0, probe, v, transcript)
    raise AssertionError("divergent pair produced three equal colors")


def verify_refutation(F: CofinalFn, arena: Arena, r: Refutation) -> bool:
    """Independent re-check of a refutation report from its chains alone."""
    if not r.ok:
        return False
    ca = _colored(arena, fstar(F, r.sigma_a))
    cb = _colored(arena, fstar(F, r.sigma_b))
    return ca == r.color_a and cb == r.color_b and ca != cb
