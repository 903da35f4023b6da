"""Finitely branching tree truncations, strong subtrees and density checks.

Trees are perfect k-branching trees truncated at depth N.  A node is a
word over {0..k-1}, a tuple of ints whose height is its length; a branch
is a node of full length N.  In a tuple of nodes from a product of trees,
a node's coordinate is its position in the tuple.  Everything is
explicit and finite: density is "to depth D", a strong subtree is a level
set with one node set per level, and the distributive-dense-filtration
(DDF) check truncates fiber intersections at a cap.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Callable, Iterable, Optional, Sequence

from .ordset import OrdSet, ParameterError


@dataclass(frozen=True)
class TreeShape:
    """Branching degree k >= 2 and depth N >= 1."""

    k: int
    depth: int

    def __post_init__(self):
        if self.k < 2:
            raise ParameterError(f"branching degree must be >= 2, got {self.k}")
        if self.depth < 1:
            raise ParameterError(f"depth must be >= 1, got {self.depth}")


Word = tuple[int, ...]


def node_key(t: Word) -> tuple[int, Word]:
    """Shortlex order: by height, then lexicographically."""
    return (len(t), t)


def words(k: int, length: int) -> list[Word]:
    return list(itertools.product(range(k), repeat=length))


def all_nodes(shape: TreeShape, max_height: int | None = None) -> list[Word]:
    """All nodes of height <= max_height, in shortlex order."""
    top = shape.depth if max_height is None else max_height
    if top > shape.depth:
        raise ValueError(f"level {top} out of range for depth {shape.depth}")
    out: list[Word] = []
    for m in range(top + 1):
        out.extend(words(shape.k, m))
    return out


def branches(shape: TreeShape) -> list[Word]:
    return words(shape.k, shape.depth)


def is_level_tuple(nodes: Sequence[Word]) -> bool:
    # one C-level pass; an empty tuple has no height
    return len(set(map(len, nodes))) == 1


# ---------------------------------------------------------------------------
# strong subtrees


def is_strong_subtree(levels: OrdSet, level_sets: Sequence[frozenset[Word]],
                      shape: TreeShape) -> bool:
    """Check the inductive definition clause by clause.

    level_sets[m] holds the subtree's nodes at tree height levels.at(m).
    Level 0 is a singleton at height a(0); each later level set consists of
    exactly one node at the right height above each immediate successor of
    each node on the previous level.  No level, or a node set count other
    than the level count, is no strong subtree.
    """
    a = levels
    if a.otp == 0 or a.otp != len(level_sets):
        return False
    if a.at(a.otp - 1) > shape.depth or len(level_sets[0]) != 1:
        return False
    for m in range(a.otp):
        for t in level_sets[m]:
            if len(t) != a.at(m):
                return False
            if any(c >= shape.k or c < 0 for c in t):
                return False
    for m in range(1, a.otp):
        prev_height = a.at(m - 1)
        needed = {
            p + (c,)
            for p in level_sets[m - 1]
            for c in range(shape.k)
        }
        got = [t[: prev_height + 1] for t in level_sets[m]]
        if len(got) != len(needed) or set(got) != needed:
            return False
    return True


# ---------------------------------------------------------------------------
# density


def _check_branch_set(shape: TreeShape, Y: Iterable[Word]) -> list[Word]:
    ys = list(Y)
    for y in ys:
        if len(y) != shape.depth:
            raise ParameterError("branch sets hold full-depth nodes only")
    # a foreign letter would stand in for a missing one in the prefix count
    if not set(range(shape.k)).issuperset(itertools.chain.from_iterable(ys)):
        raise ParameterError(f"branch letters must lie in 0..{shape.k - 1}")
    return ys


def is_dense_above(shape: TreeShape, Y: Iterable[Word], t: Word, D: int) -> bool:
    """Every node extending t with height <= D is a prefix of some branch.

    It suffices to cover the depth-D extensions of t, and those are counted
    by distinct depth-D prefixes of branches through t.
    """
    _check_density_depth(shape, t, D)
    return _dense_above(shape, _check_branch_set(shape, Y), t, D)


def _check_density_depth(shape: TreeShape, t: Word, D: int) -> None:
    if D > shape.depth:
        raise ParameterError(f"density depth {D} exceeds tree depth {shape.depth}")
    if len(t) > D:
        raise ParameterError(f"root height {len(t)} exceeds density depth {D}")


def _dense_above(shape: TreeShape, ys: Iterable[Word], t: Word, D: int) -> bool:
    """is_dense_above with its arguments already checked."""
    h = len(t)
    prefixes = {y[:D] for y in ys if y[:h] == t}
    return len(prefixes) == shape.k ** (D - h)


# ---------------------------------------------------------------------------
# dense filtrations and the finite FPG bridge


def _fibers(Z: Iterable[tuple[Word, ...]]) -> dict[tuple[Word, ...], set[Word]]:
    out: dict[tuple[Word, ...], set[Word]] = {}
    for z in Z:
        out.setdefault(z[:-1], set()).add(z[-1])
    return out


def is_ddf_to_depth(
    shapes: Sequence[TreeShape],
    Z: Iterable[tuple[Word, ...]],
    D: int,
    mcap: int,
) -> bool:
    """Recursive dense-filtration check with fiber intersections capped.

    Dimension one asks for density to depth D in the whole tree; higher
    dimensions drop the last coordinate, recurse, and require every
    intersection of at most mcap fiber sets to be dense to depth D.
    Each coordinate is checked once, here: every fiber meet is a subset
    of its branches.
    """
    if mcap < 1:
        raise ParameterError("mcap must be >= 1")
    d = len(shapes)
    if d < 1:
        raise ParameterError("need at least one tree")
    zs = list(Z)
    for z in zs:
        if len(z) != d:
            raise ParameterError("tuple arity does not match the tree list")
    for i, shape in enumerate(shapes):
        _check_density_depth(shape, (), D)
        _check_branch_set(shape, (z[i] for z in zs))
    return _ddf(shapes, zs, D, mcap)


def _ddf(
    shapes: Sequence[TreeShape],
    zs: list[tuple[Word, ...]],
    D: int,
    mcap: int,
) -> bool:
    """Fibers as bit masks over the last coordinate's branches, met only
    as distinct masks (a repeated fiber meets to itself), one more fiber
    per level; a meet is dense iff it meets every depth-D prefix class."""
    if len(shapes) == 1:
        return _dense_above(shapes[0], {z[0] for z in zs}, (), D)
    bit, fib = {}, {}  # branch -> its bit, head -> its fiber's mask
    for z in zs:
        y, head = z[-1], z[:-1]
        fib[head] = fib.get(head, 0) | (
            bit.get(y) or bit.setdefault(y, 1 << len(bit)))
    classes: dict[Word, int] = {}
    for y, b in bit.items():
        classes[y[:D]] = classes.get(y[:D], 0) | b
    if (len(classes) < shapes[-1].k ** D
            or not _ddf(shapes[:-1], list(fib), D, mcap)):
        return False
    meets = new = fibers = set(fib.values())
    for size in range(mcap):
        if size:
            new = {m & x for m in new for x in fibers} - meets
            meets = meets | new
        if not all(all(map(m.__and__, classes.values())) for m in new):
            return False
    return True


def fpg_witness_sets(
    shapes: Sequence[TreeShape],
    Z: Iterable[tuple[Word, ...]],
    cone_families: Sequence[Iterable[Word]],
) -> Optional[tuple[frozenset[Word], ...]]:
    """Build finite cone-meeting sets whose product sits inside Z.

    Follows the filtration recursion: solve the projection first, then take
    the intersection of the fibers over its product and pick one branch per
    cone from that intersection.  When some family is empty, its set is
    empty, so the product is empty and inside any Z, and every other
    coordinate picks from all of its tree's branches.  Returns None when
    some cone cannot be met, which on filtration-checked input does not
    happen for families of size at most the fiber cap.
    """
    zs = list(Z)
    d = len(shapes)
    cone_families = [list(fam) for fam in cone_families]

    def pick_per_cone(pool: set[Word], cones: Iterable[Word]) -> Optional[frozenset[Word]]:
        chosen = set()
        for u in sorted(cones, key=node_key):
            hits = [y for y in pool if y[: len(u)] == u]
            if not hits:
                return None
            chosen.add(min(hits, key=node_key))
        return frozenset(chosen)

    if not all(cone_families):
        picks = [pick_per_cone(set(branches(shape)), fam)
                 for shape, fam in zip(shapes, cone_families)]
        return None if None in picks else tuple(picks)
    if d == 1:
        got = pick_per_cone({z[0] for z in zs}, cone_families[0])
        return None if got is None else (got,)

    fib = _fibers(zs)
    head = fpg_witness_sets(shapes[:-1], list(fib.keys()), cone_families[:-1])
    if head is None:
        return None
    pool = set(branches(shapes[-1]))
    for x in itertools.product(*head):
        pool &= fib.get(x, set())
    got = pick_per_cone(pool, cone_families[-1])
    return None if got is None else head + (got,)


# ---------------------------------------------------------------------------
# grid witnesses

def word_to_str(w: Word) -> str:
    s = "".join(map(str, w))
    if len(s) != len(w):  # a letter above 9 or below 0 takes two characters
        raise ParameterError("digit-string serialization needs letters 0-9")
    return s


def word_from_str(s: str) -> Word:
    if s and not (s.isascii() and s.isdigit()):  # not '²' or '١'
        raise ValueError(f"word {s!r} is not a string of ASCII digits")
    return tuple(map(int, s))


@dataclass(frozen=True)
class GridWitness:
    """A monochromatic somewhere-dense grid: roots, branch sets, color.

    branch_sets[i] is sorted; density_depth bounds the depth to which each
    set is dense above its root; color is whatever the producing coloring
    emits (kept JSON compatible).
    """

    k: int
    depth: int
    roots: tuple[Word, ...]
    branch_sets: tuple[tuple[Word, ...], ...]
    density_depth: int
    color: object

    @property
    def d(self) -> int:
        return len(self.roots)

    def shapes(self) -> tuple[TreeShape, ...]:
        return (TreeShape(self.k, self.depth),) * self.d

    def to_json(self) -> dict:
        return {
            "k": self.k,
            "depth": self.depth,
            "density_depth": self.density_depth,
            "color": self.color,
            "roots": [word_to_str(t) for t in self.roots],
            "branch_sets": [
                [word_to_str(y) for y in ys] for ys in self.branch_sets
            ],
        }


def validate_grid_witness(
    w: GridWitness, gamma: Callable[[tuple[Word, ...]], object]
) -> tuple[bool, dict]:
    """Re-check a grid witness from scratch: density plus constant color.

    gamma colors full branch tuples; every tuple over the product of the
    witness sets must agree with the recorded color.
    """
    report: dict = {"density": [], "color_failures": 0, "tuples": 0}
    ok = True
    shapes = w.shapes()
    for i in range(w.d):
        dense = is_dense_above(shapes[i], w.branch_sets[i], w.roots[i], w.density_depth)
        report["density"].append(dense)
        ok = ok and dense
    for combo in itertools.product(*w.branch_sets):
        report["tuples"] += 1
        if gamma(combo) != w.color:
            report["color_failures"] += 1
            ok = False
    return ok, report
