"""Reference definitions that only the tests call.

Each states plainly, one set, tuple or key at a time, a notion that the
package computes inside a larger routine, and the tests hold the two side
by side.  Where a definition backs library code it goes through that
code, so its tests still reach it: cn and star read the recursion
antiramsey._descend, find_bad_coloring is the backtracker
antiramsey._search_bad, and embed and c1 read the arena's tables.  None
of them checks its arguments; the library code does that where input
enters it.
"""

import itertools
from typing import Callable, Iterable

from polygrid.antiramsey import (
    DEFAULT_BUDGET, Arena, Coloring, _descend, _search_bad)
from polygrid.deltasys import Family
from polygrid.hl import s_member
from polygrid.ordset import OrdSet
from polygrid.ph import CofinalFn
from polygrid.trees import Word


def embed(arena: Arena, beta: int, alpha: int) -> int:
    """The beta-th injection of the arena applied to alpha < beta."""
    if arena.mode == "identity":
        return alpha
    return arena._tables[0][beta][alpha]


def c1(arena: Arena, alpha: int, beta: int) -> int:
    """Injective-in-alpha color of the pair {alpha, beta}, alpha < beta."""
    if arena.mode == "identity":
        return alpha
    return arena._tables[1][beta][alpha]


def cn(arena: Arena, a: OrdSet) -> int:
    """Dimension-n recursive color of an (n+1)-sized set."""
    return _descend(arena, a.elems, arena.dim)[1]


def star(arena: Arena, a: OrdSet) -> int:
    """The member whose replacement is guaranteed to change the color.

    Dimension one distinguishes the minimum; higher dimensions pull the
    recursive choice back through the embedding at the maximum.
    """
    return _descend(arena, a.elems, arena.dim)[0]


def find_bad_coloring(n: int, m: int, k: int,
                      budget: int = DEFAULT_BUDGET) -> Coloring | None:
    """A k-coloring of the (n+1)-subsets of {0..m-1} with no monochromatic
    (n+2)-subset, or None once the exhaustive search proves none exists."""
    return _search_bad(n, m, k, budget)[0]


def select(a: OrdSet, positions: Iterable[int]) -> OrdSet:
    """The subset of a at the given positions: {a(eta) : eta in I}."""
    return OrdSet(tuple(a.at(eta) for eta in sorted(set(positions))))


def intersect(a: OrdSet, b: OrdSet) -> OrdSet:
    """The common elements of two sets."""
    return OrdSet(tuple(x for x in a.elems if x in set(b.elems)))


def cofinal_from_formula(entry_bound: int, arity: int,
                         fn: Callable[[tuple[int, ...]], int]) -> CofinalFn:
    """The CofinalFn whose value at each tuple is fn of the tuple."""
    domain = range(entry_bound)
    rows = {p: [fn(p + (c,)) for c in domain] for length in range(arity)
            for p in itertools.product(domain, repeat=length)}
    return CofinalFn(entry_bound, arity, rows)


def is_u_set(Y: Iterable[Word], cones: Iterable[Word]) -> bool:
    """Some member of Y passes through every listed clopen cone root."""
    ys = list(Y)
    return all(any(y[:len(u)] == u for y in ys) for u in cones)


def sideways_build(jmap: Callable[[tuple[Word, ...]], int],
                   d: int) -> Callable[[tuple[Word, ...]], int]:
    """The sideways lift, one (d+1)-tuple of branches at a time: color 0
    iff the last branch lies in S_j for j the jmap value of the first d."""
    return lambda xs: 0 if s_member(jmap(tuple(xs[:d])), xs[d]) else 1


def family_json(fam: Family) -> dict:
    """The JSON form that Family.from_json reads."""
    return {
        "dim": fam.dim,
        "indices": list(fam.indices.elems),
        "umap": {",".join(map(str, b)): list(u.elems)
                 for b, u in sorted(fam.umap.items())},
    }
