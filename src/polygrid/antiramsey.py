"""Recursive set colorings with prescribed collision behavior.

A coloring arena fixes, for every beta below the arena size, an injection
of {0..beta-1} into the arena (the embedding family) and an injective pair
coloring with fibers indexed by the larger element.  The dimension-n set
coloring cn recurses through the embeddings; its key property is that two
sets differing only at their distinguished element get different colors.
On top sit the exact Ramsey thresholds used to size product censuses.
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
    """Search budget exhausted; carries the best bounds found so far."""

    def __init__(self, message: str, *, nodes_used: int, best_lower_bound: int | None,
                 exhausted_at: int | None):
        super().__init__(message)
        self.nodes_used = nodes_used
        self.best_lower_bound = best_lower_bound
        self.exhausted_at = exhausted_at


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
        """The c_full memo, filled lazily, one row per head: a head (the
        first dim entries of a tuple) maps x to c_full of head + (x,).
        Only c_full writes it, so every head has length dim and every
        stored tuple lies in the arena.  Equal colors in the rows are one
        object (see _palette)."""
        return {}

    @cached_property
    def _palette(self) -> dict[TupleColor, TupleColor]:
        """Each color of the rows, keyed by itself: a census set then
        finds a repeated color by identity, before comparing."""
        return {}

    def embed(self, beta: int, alpha: int) -> int:
        """The beta-th injection applied to alpha; requires alpha < beta."""
        if not 0 <= alpha < beta < self.size:
            raise ValueError(f"need 0 <= alpha < beta < size, got {alpha}, {beta}")
        if self.mode == "identity":
            return alpha
        return self._tables[0][beta][alpha]


def c1(arena: Arena, alpha: int, beta: int) -> int:
    """Injective-in-alpha color of the pair {alpha, beta}, alpha < beta."""
    if not 0 <= alpha < beta < arena.size:
        raise ValueError(f"need 0 <= alpha < beta < size, got {alpha}, {beta}")
    if arena.mode == "identity":
        return alpha
    return arena._tables[1][beta][alpha]


def _validate_set(arena: Arena, elems: tuple[int, ...]) -> None:
    if len(elems) != arena.dim + 1:
        raise ValueError(f"need a set of size {arena.dim + 1}, got {len(elems)}")
    if elems[-1] >= arena.size:
        raise ValueError(f"element {elems[-1]} outside arena of size {arena.size}")


def _descend(arena: Arena, elems: tuple[int, ...], level: int) -> tuple[int, int]:
    """(distinguished element, set color) of a sorted (level+1)-set, by one
    recursion through the embedding at its maximum."""
    if level == 1:
        return elems[0], c1(arena, elems[0], elems[1])
    beta = elems[-1]
    back = {arena.embed(beta, x): x for x in elems[:-1]}  # embed is injective
    inner, color = _descend(arena, tuple(sorted(back)), level - 1)
    return back[inner], color


def cn(arena: Arena, a: OrdSet) -> int:
    """Dimension-n recursive color of an (n+1)-sized set."""
    _validate_set(arena, a.elems)
    return _descend(arena, a.elems, arena.dim)[1]


def star(arena: Arena, a: OrdSet) -> int:
    """The member whose replacement is guaranteed to change the color.

    Dimension one distinguishes the minimum; higher dimensions pull the
    recursive choice back through the embedding at the maximum.
    """
    _validate_set(arena, a.elems)
    return _descend(arena, a.elems, arena.dim)[0]


def c_full(arena: Arena, vec: Sequence[int]) -> TupleColor:
    """Compound color of an enumerated tuple: (slot of the distinguished
    element, set color); tuples with repeats collapse to (n+1, 0).

    Colors are memoized per arena in its rows; a tuple that raises is
    never stored, so it raises again on every call."""
    key = tuple(vec)
    head = key[:-1]
    row = arena._rows.get(head)  # no row has the head of a bad-length tuple
    if row is not None:
        col = row.get(key[-1])
        if col is not None:  # a stored color is never None
            return col
    col = _c_full(arena, key)  # checks before anything is stored
    col = arena._palette.setdefault(col, col)
    if row is None:
        row = arena._rows[head] = {}
    row[key[-1]] = col
    return col


def _c_full(arena: Arena, vec: tuple[int, ...]) -> TupleColor:
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
# exact Ramsey thresholds


DEFAULT_BUDGET = 2_000_000

# m* and the bad coloring at m* - 1, keyed on the budget too, so that a hit
# is exactly what a fresh search with that budget returns
_threshold_cache: dict[tuple[int, int, int],
                       tuple[int, dict[tuple[int, ...], int]]] = {}


def _search_bad(
    n: int, m: int, k: int, budget: int
) -> tuple[dict[tuple[int, ...], int] | None, int]:
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
    plan = []
    for e in edges:
        faces = [links.get(e[:j] + e[j + 1:], empty) for j in range(n + 1)]
        # the test reads three faces (repeated for n < 2), the rest for n >= 3
        f0, f1, f2, *rest = (faces * 3)[:max(n + 1, 3)]
        plan.append((f0, f1, f2, rest, faces[0], 1 << e[0]))
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


def find_bad_coloring(
    n: int, m: int, k: int, budget: int = DEFAULT_BUDGET
) -> dict[tuple[int, ...], int] | None:
    """A k-coloring of the (n+1)-subsets of {0..m-1} with no monochromatic
    (n+2)-subset, or None once the exhaustive search proves none exists.
    At m = m* - 1 it is the coloring a threshold search with this budget
    already found."""
    if budget < 0:
        raise ParameterError("need budget >= 0")
    hit = _threshold_cache.get((n, k, budget))
    if hit and m == hit[0] - 1:
        return dict(hit[1])
    result, _ = _search_bad(n, m, k, budget)
    return result


def ramsey_m_star(n: int, k: int, budget: int = DEFAULT_BUDGET) -> int:
    """Least m such that every k-coloring of the (n+1)-subsets of {0..m-1}
    admits a monochromatic (n+2)-subset.  Verified by exhausting the bad
    colorings of m after exhibiting one at m-1."""
    if n < 1 or k < 1 or budget < 0:
        raise ParameterError("need n >= 1, k >= 1 and budget >= 0")
    key = (n, k, budget)
    if key in _threshold_cache:
        return _threshold_cache[key][0]
    spent = 0
    # below n+2 every coloring is vacuously bad; at m = n+1 the search
    # gives the one edge color 0
    best, best_bad = n + 1, {tuple(range(n + 1)): 0}
    m = n + 2
    while True:
        try:
            bad, used = _search_bad(n, m, k, budget - spent)
        except BudgetError as exc:
            raise BudgetError(
                f"threshold search for (n={n}, k={k}) exhausted its budget: "
                f"bad colorings found through m={best}, died at m={m}",
                nodes_used=spent + exc.nodes_used,
                best_lower_bound=best, exhausted_at=m) from None
        spent += used
        if bad is None:
            _threshold_cache[key] = m, best_bad
            return m
        best, best_bad = m, bad
        m += 1


def m_seq(n: int, k: int, budget: int = DEFAULT_BUDGET) -> int:
    """Product side length guaranteeing more than k compound colors."""
    if k == 0:
        return 1
    return (n + 1) * ramsey_m_star(n, k, budget)


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

    No check of its own: a tuple the rows lack goes through c_full, which
    checks it before storing it, so a product that reaches outside the
    arena or has the wrong arity raises ValueError as c_full does."""
    *heads, last = sides
    if not last:
        return set()
    rows = arena._rows  # read inline
    # one color, not a tuple of them, from a last side of one element
    pick = itemgetter(*last)
    try:
        return _census(rows, heads, pick, len(last))
    except KeyError:  # fill the misses through c_full: it counts, checks, stores
        for head in itertools.product(*heads):
            row = rows.get(head, ())
            for x in last:
                if x not in row:
                    c_full(arena, head + (x,))
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
