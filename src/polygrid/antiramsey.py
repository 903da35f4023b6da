"""Recursive set colorings with prescribed collision behavior.

A coloring arena fixes, for every beta below the arena size, an injection
of {0..beta-1} into the arena (the embedding family) and an injective pair
coloring with fibers indexed by the larger element.  The dimension-n color
of an (n+1)-set recurses through the embeddings, and so does the choice of
its distinguished element; the compound coloring c_full of a tuple pairs
the two.  The key property is that two sets differing only at their
distinguished element get different colors.
On top sit the Ramsey thresholds used to size product censuses, each held
as a bound record whose sides come from search, certificate or recurrence.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from functools import cached_property
from operator import itemgetter
from random import Random
from typing import NamedTuple, Sequence

from .ordset import OrdSet, ParameterError


class TupleColor(NamedTuple):
    """Color of an enumerated tuple: distinguishing slot plus set color.

    Tuples with a repeated entry all get slot n+1 and value 0.
    """

    slot: int
    value: int


class BudgetError(RuntimeError):
    """Search budget exhausted; carries the best bounds found so far, and
    for a threshold search its bound record."""

    def __init__(self, message: str, *, nodes_used: int, best_lower_bound: int | None,
                 exhausted_at: int | None, record: ThresholdRecord | None = None):
        super().__init__(message)
        self.nodes_used = nodes_used
        self.best_lower_bound = best_lower_bound
        self.exhausted_at = exhausted_at
        self.record = record


@dataclass(frozen=True)
class Arena:
    """Finite stand-in {0..size-1} for the ordinal levels of the recursion.

    mode "identity" embeds by the identity and colors pairs by the smaller
    element; mode "seeded" draws the embedding and pair-coloring injections
    from a named deterministic generator.
    """

    size: int
    dim: int
    mode: str = "identity"
    seed: int | None = None

    def __post_init__(self):
        if self.size < 2:
            raise ParameterError("arena size must be >= 2")
        if self.dim < 1:
            raise ParameterError("dimension must be >= 1")
        if self.mode not in ("identity", "seeded"):
            raise ParameterError(f"unknown mode {self.mode!r}")
        if self.mode == "seeded" and self.seed is None:
            raise ParameterError("seeded mode needs a seed")

    @cached_property
    def _tables(self) -> tuple[list[tuple[int, ...]], list[tuple[int, ...]]]:
        rng = Random(f"arena:{self.seed}:{self.size}")
        embed_tab: list[tuple[int, ...]] = []
        pair_tab: list[tuple[int, ...]] = []
        for beta in range(self.size):
            embed_tab.append(tuple(rng.sample(range(self.size), beta)))
            pair_tab.append(tuple(rng.sample(range(self.size), beta)))
        return embed_tab, pair_tab

    @cached_property
    def _rows(self) -> dict[tuple[int, ...], dict[int, TupleColor]]:
        """The colors of the product censuses taken on the arena, one row
        per head: a head (the first dim entries of a tuple) maps x to
        c_full of head + (x,).  Only product_census writes it, each color
        through c_full after its checks, so every head has length dim and
        every stored tuple lies in the arena.  Equal colors in the rows are
        one object (see _palette)."""
        return {}

    @cached_property
    def _palette(self) -> dict[TupleColor, TupleColor]:
        """Each color of the rows, keyed by itself: a census set then
        finds a repeated color by identity, before comparing."""
        return {}


def _descend(arena: Arena, elems: Sequence[int], level: int) -> tuple[int, int]:
    """(distinguished element, set color) of a sorted (level+1)-set of the
    arena.  Each level pulls the set below its maximum back through the
    embedding at the maximum, and the last pair takes the pair coloring.
    Checks nothing: its callers pass sets inside the arena.

    On an identity arena every embedding fixes the set and the pair
    coloring is the smaller element, so both are the minimum."""
    if arena.mode == "identity":
        return elems[0], elems[0]
    embed_tab, pair_tab = arena._tables
    if level == 1:
        return elems[0], pair_tab[elems[1]][elems[0]]
    row = embed_tab[elems[-1]]
    back = {row[x]: x for x in elems[:-1]}  # row is injective
    inner, color = _descend(arena, sorted(back), level - 1)
    return back[inner], color


def c_full(arena: Arena, vec: Sequence[int]) -> TupleColor:
    """Compound color of an enumerated tuple: (slot of the distinguished
    element, set color); tuples with repeats collapse to (n+1, 0).
    Keeps nothing: every call colors its tuple afresh."""
    vec = tuple(vec)
    n = arena.dim
    if len(vec) != n + 1:
        raise ValueError(f"need a tuple of length {n + 1}, got {len(vec)}")
    elems = tuple(sorted(vec))
    # before the repeat test, so that a repeat outside the arena raises too
    if elems[0] < 0 or elems[-1] >= arena.size:
        raise ValueError(f"entries of {vec} outside arena of size {arena.size}")
    if len(set(elems)) != len(elems):
        return TupleColor(n + 1, 0)
    s, color = _descend(arena, elems, n)
    return TupleColor(vec.index(s), color)


# ---------------------------------------------------------------------------
# Ramsey thresholds as bound records


DEFAULT_BUDGET = 2_000_000

Coloring = dict[tuple[int, ...], int]


class ThresholdRecord(NamedTuple):
    """What is known of a threshold m*(n, k): lower <= m* <= upper, where
    upper None means no upper side.  Each side names its source: "search",
    "certificate" or "recurrence".  bad is a k-coloring of the
    (n+1)-subsets of {0..lower-2} with no monochromatic (n+2)-subset, the
    proof of the lower side."""

    lower: int
    lower_source: str
    upper: int | None
    upper_source: str | None
    bad: Coloring


def recurrence_bound(n: int, k: int) -> int | None:
    """An upper bound on m*(n, k) by recurrence, or None.

    - m*(n, 1) = n + 2: one color makes any n + 2 points monochromatic.
    - n = 1: m*(1, k) <= k (m*(1, k-1) - 1) + 2.  Among that many points,
      a point v has k (m*(1, k-1) - 1) + 1 others, so one color c joins v
      to m*(1, k-1) of them.  A pair of those in color c closes a c-triangle
      with v; otherwise they are colored with k - 1 colors, and so hold a
      monochromatic triangle.  From 3 at k = 1: 6, 17, 66, 327.
    - k = 2: m*(n, 2) = R(n+2, n+2; n+1), where R(s, t; r) is the least N
      such that every red/blue coloring of the r-subsets of N points has s
      points with all r-subsets red or t points with all r-subsets blue.
      R(s, t; 1) = s + t - 1 by pigeonhole, R(r, t; r) = t, R(s, r; r) = s,
      and R(s, t; r) <= R(a, b; r-1) + 1 with a = R(s-1, t; r) and
      b = R(s, t-1; r) (Erdos & Rado, Proc. LMS 1952): color each
      (r-1)-subset of the points other than a point v as its union with v;
      they hold a points whose (r-1)-subsets all went red, and inside those
      s - 1 red points (red with v too) or t blue ones, or the same with
      the colors swapped.  This gives 21 at (2, 2).  Evaluated for n <= 2
      only: at n = 3 the bound has thousands of digits, and from n = 4 the
      recursion does not end in reasonable time.
    - Otherwise there is no upper side.
    """
    if k == 1:
        return n + 2
    if n == 1:
        m = 3
        for j in range(2, k + 1):
            m = j * (m - 1) + 2
        return m
    if k == 2 and n == 2:
        return _two_color(n + 2, n + 2, n + 1)
    return None


def _two_color(s: int, t: int, r: int) -> int:
    """The bound on R(s, t; r) that recurrence_bound proves."""
    if r == 1:
        return s + t - 1
    if s == r:
        return t
    if t == r:
        return s
    return _two_color(_two_color(s - 1, t, r), _two_color(s, t - 1, r),
                      r - 1) + 1


def is_bad_coloring(col: Coloring, n: int, m: int, k: int) -> bool:
    """Whether col colors each (n+1)-subset of {0..m-1} (sorted tuples),
    and nothing else, with one of 0..k-1 and leaves no (n+2)-subset
    monochromatic."""
    if (col.keys() != set(itertools.combinations(range(m), n + 1))
            or not set(col.values()) <= set(range(k))):
        return False
    # the colors of the (n+1)-subsets of each (n+2)-subset in turn, read
    # n + 2 at a time: a monochromatic subset reads as one color repeated
    faces = itertools.chain.from_iterable(map(
        itertools.combinations, itertools.combinations(range(m), n + 2),
        itertools.repeat(n + 1)))
    colors = map(col.__getitem__, faces)
    return {(c,) * (n + 2) for c in range(k)}.isdisjoint(
        zip(*[colors] * (n + 2)))


def _gf16_coloring() -> Coloring:
    """The Greenwood-Gleason 3-coloring of the pairs of 16 points (Canad.
    J. Math. 7, 1955): the points are GF(16) = GF(2)[x]/(x^4 + x + 1) as
    4-bit integers, and {a, b} gets the discrete log of a + b (xor) to the
    base x, mod 3.  Each color class is a Clebsch graph, so no triangle is
    monochromatic and m*(1, 3) >= 17."""
    log = {}
    a = 1
    for e in range(15):
        log[a] = e
        a <<= 1
        if a & 16:
            a ^= 0b10011  # x^4 = x + 1
    return {(a, b): log[a ^ b] % 3
            for a, b in itertools.combinations(range(16), 2)}


# Bit i is the color of the i-th triple of {0..11} in lexicographic order:
# a 2-coloring with no monochromatic 4-set, so m*(2, 2) >= 13 (and
# R(4, 4; 3) = 13, McKay & Radziszowski, SODA 1991).  Found by a seeded
# WalkSAT-style search (Random(0) draws the start; each step takes a
# random monochromatic 4-set and flips one of its triples, at random with
# probability 0.2, else one that leaves the fewest monochromatic 4-sets);
# it stopped after 5,171 steps, 0.46 s.
_R443_AT_12 = 0x2a0e296e25c4dac57eccc5bd94a553da46af2222df4b514dc4c95aa


def _certificate(n: int, k: int) -> tuple[int, Coloring] | None:
    """(m, a bad coloring of m points) for the thresholds it settles from
    below, rebuilt on each call; None for the others."""
    if (n, k) == (1, 3):
        return 16, _gf16_coloring()
    if (n, k) == (2, 2):
        return 12, {e: _R443_AT_12 >> i & 1 for i, e
                    in enumerate(itertools.combinations(range(12), 3))}
    return None


def _search_bad(
    n: int, m: int, k: int, budget: int
) -> tuple[Coloring | None, int]:
    """Backtracking core; returns (coloring or None, nodes used).

    Hyperedges are assigned in lexicographic order with color-symmetry
    canonization (a fresh color may appear only after all smaller ones);
    a branch dies as soon as some (n+2)-subset goes monochromatic.
    Every color tried costs one budget node.
    """
    edges = list(itertools.combinations(range(m), n + 1))
    if not edges:
        return {}, 0
    # An (n+2)-subset {x} | e with x < e[0] can only close at its last edge
    # e, and its other edges are {x} | f for the n-subsets f (faces) of e.
    # Bit x of links[f][c] is set while edge {x} | f, x < f[0], has color c,
    # so c closes a monochromatic subset at e iff the AND of links[f][c]
    # over the faces of e is nonzero.  Coloring e sets bit e[0] of its tail
    # e[1:].  Faces containing 0 link nothing and are no edge's tail, so
    # they share one list that stays empty.
    empty = [0] * min(k, len(edges))
    links = {f: empty[:] for f in itertools.combinations(range(1, m), n)}
    face_links, width = links.get, max(n + 1, 3)
    plan = []
    for e in edges:
        # the faces of e in lexicographic order, so its tail comes last
        faces = list(map(face_links, itertools.combinations(e, n),
                         itertools.repeat(empty)))
        # the test reads three faces (repeated for n < 2), the rest for n >= 3
        f0, f1, f2, *rest = (faces * 3)[:width]
        plan.append((f0, f1, f2, rest, faces[-1], 1 << e[0]))
    last = len(edges)
    colors = [0] * last
    # colors 0..top-1 are open to the current edge; opens[pos] keeps top
    opens = [0] * last
    nodes = pos = c = 0
    top = min(k, 1)
    f0, f1, f2, rest, tail, bit = plan[0]
    while True:
        while c < top:
            nodes += 1
            if nodes > budget:
                raise BudgetError(
                    f"bad-coloring search exceeded {budget} nodes at m={m}",
                    nodes_used=nodes, best_lower_bound=None, exhausted_at=m)
            closes = f0[c] & f1[c] & f2[c]
            if closes and rest:
                for f in rest:
                    closes &= f[c]
            if not closes:
                break
            c += 1
        else:  # every color failed: back to the previous edge
            if pos == 0:
                return None, nodes
            pos -= 1
            f0, f1, f2, rest, tail, bit = plan[pos]
            c, top = colors[pos], opens[pos]
            tail[c] ^= bit
            c += 1
            continue
        tail[c] |= bit
        colors[pos], opens[pos] = c, top
        pos += 1
        if pos == last:
            return {e: colors[i] for i, e in enumerate(edges)}, nodes
        if c + 1 == top < k:
            top += 1  # c was a fresh color, so c + 1 opens
        c = 0
        f0, f1, f2, rest, tail, bit = plan[pos]


def threshold(n: int, k: int, budget: int = DEFAULT_BUDGET) -> ThresholdRecord:
    """The bound record of m*, the least m such that every k-coloring of
    the (n+1)-subsets of {0..m-1} admits a monochromatic (n+2)-subset.

    The lower side starts at a re-checked certificate, or at n + 2 (the
    search colors the one edge of n + 1 points without a node), and the
    upper side at recurrence_bound.  The search runs only in the gap: a bad
    coloring at m = lower raises the lower side, until the sides meet or
    the search exhausts m, and the record returned is then exact.  A
    BudgetError carries the record as it stood.  Nothing is kept between
    calls."""
    if n < 1 or k < 1 or budget < 0:
        raise ParameterError("need n >= 1, k >= 1 and budget >= 0")
    upper = recurrence_bound(n, k)
    upper_source = None if upper is None else "recurrence"
    cert = _certificate(n, k)
    if cert is None:
        m, lower_source, bad = n + 2, "search", {tuple(range(n + 1)): 0}
    else:
        m, lower_source, bad = cert[0] + 1, "certificate", cert[1]
        if not is_bad_coloring(bad, n, cert[0], k):
            raise RuntimeError(
                f"the certificate for m*({n}, {k}) fails its re-check")
    spent = 0
    while upper is None or m < upper:
        try:
            found, used = _search_bad(n, m, k, budget - spent)
        except BudgetError as exc:
            raise BudgetError(
                f"threshold search for (n={n}, k={k}) exhausted its budget: "
                f"bad colorings found through m={m - 1}, died at m={m}",
                nodes_used=spent + exc.nodes_used,
                best_lower_bound=m - 1, exhausted_at=m,
                record=ThresholdRecord(m, lower_source, upper, upper_source,
                                       bad)) from None
        spent += used
        if found is None:
            upper, upper_source = m, "search"
            break
        m, lower_source, bad = m + 1, "search", found
    return ThresholdRecord(m, lower_source, upper, upper_source, bad)


def ramsey_m_star(n: int, k: int, budget: int = DEFAULT_BUDGET) -> int:
    """m*(n, k): the lower side of its exact threshold record."""
    return threshold(n, k, budget).lower


def m_seq(n: int, k: int) -> int:
    """Product side length guaranteeing more than k compound colors."""
    if k == 0:
        return 1
    return (n + 1) * ramsey_m_star(n, k)


def verify_product_bound(arena: Arena, sets: Sequence[OrdSet],
                         k: int) -> tuple[bool, set[TupleColor]]:
    """Census the compound coloring over a full product of (n+1) sets sized
    at the guaranteed side length: the set of colors that appear, and
    whether there are more than k of them."""
    n = arena.dim
    if len(sets) != n + 1:
        raise ValueError(f"need {n + 1} sets, got {len(sets)}")
    need = m_seq(n, k)
    for a in sets:
        if a.otp != need:
            raise ValueError(f"side sets must have size {need}, got {a.otp}")
    census = product_census(arena, [a.elems for a in sets])
    return len(census) > k, census


def product_census(arena: Arena,
                   sides: Sequence[tuple[int, ...]]) -> set[TupleColor]:
    """The c_full colors on the product of sides, sorted element tuples.

    The one writer of the arena's rows.  No check of its own: a tuple the
    rows lack is colored by c_full, which checks it before it is stored,
    so a product that reaches outside the arena or has the wrong arity
    raises ValueError as c_full does."""
    *heads, last = sides
    if not last:
        return set()
    rows, palette = arena._rows, arena._palette  # read inline
    # one color, not a tuple of them, from a last side of one element
    pick = itemgetter(*last)
    try:
        return _census(rows, heads, pick, len(last))
    except KeyError:  # color the misses and store them, then census again
        for head in itertools.product(*heads):
            row = rows.get(head, {})
            for x in last:
                if x not in row:
                    col = c_full(arena, head + (x,))  # raises before a store
                    rows.setdefault(head, row)[x] = palette.setdefault(col, col)
        return _census(rows, heads, pick, len(last))


def _census(rows: dict, heads: list[tuple[int, ...]], pick: itemgetter,
            width: int) -> set[TupleColor]:
    """The colors that rows give the product of heads and the last side:
    one row lookup per head tuple and one itemgetter call per row, with
    no tuple built per product tuple.  KeyError at the first miss."""
    picked = map(pick, map(rows.__getitem__, itertools.product(*heads)))
    return set(picked if width == 1 else itertools.chain.from_iterable(picked))


# ---------------------------------------------------------------------------
# difference property


@dataclass
class DifferenceReport:
    eligible_pairs: int
    violations: list[tuple[tuple[int, ...], tuple[int, ...], int]] = field(
        default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations


def check_difference_lemma(arena: Arena) -> DifferenceReport:
    """Group the (n+1)-sets by what is left after deleting the distinguished
    element: any two sets in a group are an eligible pair, whose colors
    must differ."""
    n = arena.dim
    groups: dict[tuple[int, ...], list[tuple[tuple[int, ...], int]]] = {}
    for comb in itertools.combinations(range(arena.size), n + 1):
        s, color = _descend(arena, comb, n)
        i = comb.index(s)
        groups.setdefault(comb[:i] + comb[i + 1:], []).append((comb, color))
    report = DifferenceReport(eligible_pairs=0)
    for colored in groups.values():
        report.eligible_pairs += len(colored) * (len(colored) - 1) // 2
        if len({c for _, c in colored}) < len(colored):  # some pair collides
            report.violations += [(a, b, ca) for (a, ca), (b, cb)
                                  in itertools.combinations(colored, 2)
                                  if ca == cb]
    return report
