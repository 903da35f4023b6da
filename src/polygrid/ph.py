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
from operator import add, le, lt
from random import Random
from typing import Optional, Sequence

from .antiramsey import Arena, TupleColor, c_full
from .ordset import CAP, ParameterError, capped

SeqTuple = tuple[int, ...]
Sigma = tuple[SeqTuple, ...]


def is_subseq(xs: Sequence[int], ys: Sequence[int]) -> bool:
    """True iff xs embeds into ys preserving order (not necessarily contiguous)."""
    it = iter(ys)
    return all(any(x == y for y in it) for x in xs)


def _in_domain(xs: Sequence[int], entry_bound: int, arity: int) -> SeqTuple:
    """xs as a tuple; ValueError unless it is a nonempty tuple over
    0..entry_bound-1 of length at most arity."""
    t = tuple(xs)
    if not 1 <= len(t) <= arity:
        raise ValueError(f"tuple length {len(t)} outside 1..{arity}")
    if any(not 0 <= x < entry_bound for x in t):
        raise ValueError(f"entry outside 0..{entry_bound - 1}: {t}")
    return t


class CofinalFn:
    """Total map on nonempty tuples over {0..entry_bound-1} of length
    <= arity, held as rows: rows[p][c] is the value at p + (c,), one row
    of entry_bound values per prefix p shorter than arity.  Values are
    plain naturals; they are range-checked against an arena only at the
    point where they get colored.  Takes ownership of `rows` (they are
    not copied); a mapping may also compute each row on its first read
    (see _SeededRows)."""

    def __init__(self, entry_bound: int, arity: int,
                 rows: dict[SeqTuple, list[int]]):
        if arity < 1:
            raise ValueError("arity must be >= 1")
        self.entry_bound = entry_bound
        self.arity = arity
        self.rows = rows

    def __call__(self, xs: Sequence[int]) -> int:
        t = _in_domain(xs, self.entry_bound, self.arity)
        return self.rows[t[:-1]][t[-1]]


@dataclass
class CofinalCheck:
    ok: bool
    counterexample: Optional[tuple[str, SeqTuple, SeqTuple]] = None


def is_cofinal(F: CofinalFn, strict: bool = False) -> CofinalCheck:
    """Verify domination on singletons and (strict) subsequence monotonicity
    over the whole finite domain; the first violation, in product order
    of the longer tuple and then by deletion position, is returned.  Both
    orders are transitive and every proper subsequence is reached by
    one-element deletions, so only those are compared.

    Each row is read once, prefixes by length and then in product order.
    The row of p holds the values of p + (c,): deleting c leaves p, and
    deleting entry i of p leaves entry c of the row of p without it.  Only
    a row that fails is scanned entry by entry, to name the violation.
    """
    rows, domain = F.rows, range(F.entry_bound)
    below = lt if strict else le
    first = rows[()]
    if not all(map(le, domain, first)):
        x = next(x for x in domain if not x <= first[x])
        return CofinalCheck(False, ("domination", (x,), (x,)))
    kind = "strict-monotone" if strict else "monotone"
    for length in range(1, F.arity):
        for p in itertools.product(domain, repeat=length):
            row = rows[p]
            ok = below(rows[p[:-1]][p[-1]], min(row))
            for i in range(length):
                ok = ok and all(map(below, rows[p[:i] + p[i + 1:]], row))
            if ok:
                continue
            for c, y in enumerate(row):
                ys = p + (c,)
                for i in range(length + 1):
                    xs = ys[:i] + ys[i + 1:]
                    if not below(rows[xs[:-1]][xs[-1]], y):
                        return CofinalCheck(False, (kind, xs, ys))
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


def sigma_pair(F: CofinalFn, i_star: int) -> tuple[Sigma, Sigma]:
    """Two chains that agree except at position i_star, where the second
    jumps past everything F reaches on the shared prefix.

    With alpha = F((0..i_star)) + 1, both chains walk the initial segments,
    the second swaps position i_star for one ending in alpha, and both
    continue through (0..i_star, alpha, alpha+1, ...).
    """
    n = F.arity - 1
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


@dataclass
class GeneratedCofinal:
    fn: CofinalFn
    skips: int


class _SeededRows(dict):
    """The rows of one attempt's table, each computed on its first read,
    so the refutation window is checked before the rest of the table
    exists.

    The repair rule: xs gets max(xs) plus its seeded bump, lifted above
    each one-element deletion, hence (by induction) above every proper
    subsequence.  The bumps are drawn from `rng` in product order, length
    by length (the order the whole table was once drawn in), as far as
    the rows computed so far need them.
    """

    def __init__(self, entry_bound: int, rng: Random, spread: int):
        super().__init__()
        self.entry_bound = entry_bound
        self.rng = rng
        self.spread = spread
        self.drawn = 0
        self.pending: dict[int, list[int]] = {}

    def _draw(self, stop: int) -> list[int]:
        """Draw bumps `drawn`..`stop` by rng.randint(1, spread) and return
        the last row's; the rows before it wait in `pending`.  randint(1,
        spread) is 1 + rng._randbelow(spread), which redraws getrandbits(k)
        until it is below spread; inlined here, it reads the same stream."""
        bumps, spread, eb = [], self.spread, self.entry_bound
        getrandbits, k = self.rng.getrandbits, spread.bit_length()
        for _ in range(stop - self.drawn):
            r = getrandbits(k)
            while r >= spread:
                r = getrandbits(k)
            bumps.append(r + 1)
        for i in range(0, len(bumps) - eb, eb):
            self.pending[self.drawn + i] = bumps[i:i + eb]
        self.drawn = stop
        return bumps[len(bumps) - eb:]

    def __missing__(self, prefix: SeqTuple) -> list[int]:
        """Values of prefix + (c,), c = 0..entry_bound-1.  Deleting c
        leaves the prefix; deleting entry i of the prefix leaves entry c
        of the row of the prefix without it."""
        eb = self.entry_bound
        # the row's first bump follows eb + ... + eb^len(prefix) bumps of
        # shorter tuples and eb per earlier row of its length: eb times
        # the prefix read as a bijective base-eb numeral
        start = 0
        for x in prefix:
            start = start * eb + x + 1
        start *= eb
        bumps = self.pending.pop(start, None) or self._draw(start + eb)
        if not prefix:
            row = list(map(add, range(eb), bumps))
        else:
            top = max(prefix)
            raw = [top + b for b in bumps[:top + 1]]
            raw += map(add, range(top + 1, eb), bumps[top + 1:])
            low = self[prefix[1:]]  # entrywise max of the deletion rows
            for i in range(1, len(prefix)):
                low = [a if a > b else b for a, b in
                       zip(low, self[prefix[:i] + prefix[i + 1:]])]
            at = self[prefix[:-1]][prefix[-1]]  # the prefix's own value
            row = [r if r > a and r > at else (a if a > at else at) + 1
                   for r, a in zip(raw, low)]
        self[prefix] = row
        return row


def make_cofinal(entry_bound: int, arity: int, seed: int,
                 spread: int = 8, max_attempts: int = 64) -> GeneratedCofinal:
    """Seeded strict cofinal table: max entry plus a positive seeded bump,
    then a repair by length that lifts each tuple above its one-element
    deletions (see _SeededRows).  So the table is strictly cofinal by
    construction and is not re-checked here; `refute` checks its input
    once.  Each attempt is a CofinalFn over fresh rows; attempts whose
    refutation window would push colored values past the entry bound are
    skipped (counted) after computing the window's rows alone.  The
    accepted table holds only those too; the first read of each other row
    (in `is_cofinal`, for one) computes it.
    Raises ParameterError for tables over CAP entries (before any draw),
    for spread < 1, and when no attempt fits.
    """
    # entry_bound + entry_bound^2 + ... + entry_bound^arity entries
    eb = max(entry_bound, 0)
    entries = itertools.accumulate(eb ** j for j in range(1, arity + 1))
    if capped(entries) > CAP:
        raise ParameterError(
            f"a cofinal table over entry bound {entry_bound} and arity "
            f"{arity} would exceed the cap of {CAP} entries")
    if spread < 1:  # the inlined draw would never end at spread 0
        raise ParameterError("spread must be >= 1")
    for attempt in range(max_attempts):  # each earlier one was skipped
        rng = Random(f"cofinal:{seed}:{attempt}")
        fn = CofinalFn(entry_bound, arity,
                       _SeededRows(entry_bound, rng, spread))
        if _window_fits(fn, entry_bound):
            return GeneratedCofinal(fn=fn, skips=attempt)
    raise ParameterError(
        f"no admissible cofinal table after {max_attempts} attempts "
        f"(entry bound {entry_bound}, arity {arity}, seed {seed})")


def _window_fits(F: CofinalFn, bound: int) -> bool:
    """All values the refutation can feed to a coloring stay below bound.
    F is read only at the window's tuples, so a seeded table computes only
    the rows that hold them (and the rows those are repaired against)."""
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
    v = c_full(arena, pv)
    i = v.slot
    s0, s1 = sigma_pair(F, i)
    w0, w1 = fstar(F, s0), fstar(F, s1)
    # each follows from the entry check and from how sigma_pair builds the pair
    facts = {
        "distinguished element is the maximum": i < n,
        "image not increasing": all([*w] == sorted(set(w)) for w in (w0, w1)),
        "images differ off the slot": w0[:i] + w0[i + 1:] == w1[:i] + w1[i + 1:],
        "no jump at the slot": w0[i] < w1[i],
    }
    failed = [fact for fact, holds in facts.items() if not holds]
    if failed:
        raise AssertionError("divergent pair: " + "; ".join(failed))
    v0, v1 = c_full(arena, w0), c_full(arena, w1)
    # so the three colors are not all equal: v0 != v1 or v != v0
    if v0.slot == i == v1.slot and v0.value == v1.value:
        raise AssertionError("difference property violated by the arena")
    transcript = {
        "probe_values": list(pv),
        "pair_values": [list(w0), list(w1)],
        "slot": i,
    }
    if v0 != v1:
        return Refutation(True, "constructed", s0, s1, v0, v1, probe, v, transcript)
    return Refutation(True, "constructed", probe, s0, v, v0, probe, v, transcript)


def verify_refutation(F: CofinalFn, arena: Arena, r: Refutation) -> bool:
    """Independent re-check of a refutation report from its chains alone.
    Both colors are computed afresh by c_full, which keeps nothing, so the
    check never reads a color that refute computed."""
    if not r.ok:
        return False
    try:
        ca = c_full(arena, fstar(F, r.sigma_a))
        cb = c_full(arena, fstar(F, r.sigma_b))
    except ValueError:
        return False
    return ca == r.color_a and cb == r.color_b and ca != cb
