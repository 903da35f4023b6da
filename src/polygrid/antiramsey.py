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
    def _colors(self) -> dict[tuple[int, ...], TupleColor]:
        """c_full memo, filled lazily: a job may color only a few tuples."""
        return {}

    def embed(self, beta: int, alpha: int) -> int:
        """The beta-th injection applied to alpha; requires alpha < beta."""
        if not 0 <= alpha < beta < self.size:
            raise ValueError(f"need 0 <= alpha < beta < size, got {alpha}, {beta}")
        if self.mode == "identity":
            return alpha
        return self._tables[0][beta][alpha]

    def to_json(self) -> dict:
        data = {"size": self.size, "dim": self.dim, "mode": self.mode}
        if self.seed is not None:
            data["seed"] = self.seed
        return data

    @classmethod
    def from_json(cls, data: dict) -> "Arena":
        return cls(data["size"], data["dim"], data.get("mode", "identity"),
                   data.get("seed"))


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

    Colors are memoized per arena; a tuple that raises is never stored,
    so it raises again on every call."""
    key = tuple(vec)
    memo = arena._colors
    col = memo.get(key)
    if col is None:
        col = memo[key] = _c_full(arena, key)
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

# keyed on the budget too, so that a hit is exactly what a fresh search
# with that budget returns
_threshold_cache: dict[tuple[int, int, int], int] = {}


def _search_bad(
    n: int, m: int, k: int, budget: int
) -> tuple[dict[tuple[int, ...], int] | None, int]:
    """Backtracking core; returns (coloring or None, nodes used).

    Hyperedges are assigned in lexicographic order with color-symmetry
    canonization (a fresh color may appear only after all smaller ones);
    a branch dies as soon as some (n+2)-subset goes monochromatic.
    Every assignment costs one budget node.
    """
    edges = list(itertools.combinations(range(m), n + 1))
    index = {e: i for i, e in enumerate(edges)}
    # Each (n+2)-subset is filed under its last edge, as the bit mask of its
    # other edges: edges are assigned in order, so only that edge can
    # complete it.  Bit i of masks[c] is set while edge i has color c.
    closing: list[list[int]] = [[] for _ in edges]
    for big in itertools.combinations(range(m), n + 2):
        sub = sorted(index[e] for e in itertools.combinations(big, n + 1))
        closing[sub[-1]].append(sum(1 << i for i in sub[:-1]))
    masks = [0] * k
    last = len(edges)
    colors = [0] * last
    nodes = 0
    # the colors open to an edge once `used` colors have appeared
    choices = [range(min(k, used + 1)) for used in range(k + 1)]

    def dfs(pos: int, used: int) -> bool:
        nonlocal nodes
        if pos == last:
            return True
        groups = closing[pos]
        for c in choices[used]:
            nodes += 1
            if nodes > budget:
                raise BudgetError(
                    f"bad-coloring search exceeded {budget} nodes at m={m}",
                    nodes_used=nodes, best_lower_bound=None, exhausted_at=m)
            mask = masks[c]
            for group in groups:
                if mask & group == group:
                    break  # c would close a monochromatic (n+2)-subset
            else:
                colors[pos] = c
                masks[c] = mask | 1 << pos
                if dfs(pos + 1, used + 1 if c == used else used):
                    return True
                masks[c] = mask
        return False

    if dfs(0, 0):
        return {e: colors[i] for i, e in enumerate(edges)}, nodes
    return None, nodes


def find_bad_coloring(
    n: int, m: int, k: int, budget: int = DEFAULT_BUDGET
) -> dict[tuple[int, ...], int] | None:
    """A k-coloring of the (n+1)-subsets of {0..m-1} with no monochromatic
    (n+2)-subset, or None once the exhaustive search proves none exists."""
    if budget < 0:
        raise ParameterError("need budget >= 0")
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
        return _threshold_cache[key]
    spent = 0
    best = n + 1  # below n+2 every coloring is vacuously bad
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
            _threshold_cache[key] = m
            return m
        best = m
        m += 1


def m_seq(n: int, k: int, budget: int = DEFAULT_BUDGET) -> int:
    """Product side length guaranteeing more than k compound colors."""
    if k == 0:
        return 1
    return (n + 1) * ramsey_m_star(n, k, budget)


def verify_product_bound(
    arena: Arena, sets: Sequence[OrdSet], k: int, budget: int = DEFAULT_BUDGET
) -> tuple[bool, set[TupleColor]]:
    """Census the compound coloring over a full product of (n+1) sets sized
    at the guaranteed side length: the set of colors that appear, and
    whether there are more than k of them."""
    n = arena.dim
    if len(sets) != n + 1:
        raise ValueError(f"need {n + 1} sets, got {len(sets)}")
    need = m_seq(n, k, budget)
    for a in sets:
        if a.otp != need:
            raise ValueError(f"side sets must have size {need}, got {a.otp}")
    sides = [a.elems for a in sets]
    memo = arena._colors  # read inline
    try:
        census = set(map(memo.__getitem__, itertools.product(*sides)))
    except KeyError:  # fill the misses, which c_full counts and checks
        census = {memo.get(vec) or c_full(arena, vec)
                  for vec in itertools.product(*sides)}
    return len(census) > k, census


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
