"""Level colorings, the grid search, and the grid-to-strong-subtree step.

A LevelColoring colors same-height tuples of words.  Tuples of branches get a
surrogate color by majority vote over their level truncations, the search
hunts for a monochromatic somewhere-dense grid under a branch coloring,
and the derivation replays the subtree construction stage by stage against
a validated grid witness, reporting partial progress as a value rather
than an error.  The sideways construction lifts a d-dimensional branch
coloring to a (d+1)-dimensional 2-coloring through the clopen family
S_n = {x : x takes the leftmost step at level n}, tabulated over a whole
product at once.
"""

from __future__ import annotations

import itertools
import operator
from bisect import bisect_left
from dataclasses import dataclass, field
from functools import cached_property
from random import Random
from typing import Callable, Optional, Sequence

from .ordset import CAP, OrdSet, ParameterError, capped
from .trees import (
    GridWitness,
    TreeShape,
    Word,
    all_nodes,
    is_level_tuple,
    is_strong_subtree,
    node_key,
    validate_grid_witness,
    word_from_str,
    word_to_str,
    words,
)

NAMED_KINDS = ("constant", "level-parity", "seeded", "planted-grid", "adversarial")
TOP_KINDS = ("first-letter", "oracle-seeded")


@dataclass
class LevelColoring:
    """A total coloring of same-height word tuples up to depth.

    d is the number of coordinate trees and r the number of colors.  The
    named kinds: "constant" is the value everywhere; "level-parity" colors
    by (height + value) mod r, so each color's levels are cofinal;
    "seeded" hashes the tuple; "planted-grid" gives color `value` exactly
    on tuples whose coordinates are all comparable with the planted roots
    and seeded noise from the other colors elsewhere; "adversarial" (d=1,
    r=2) gives color 0 on the leftmost branch at even heights and on
    first-letter-1 words at odd heights, so zero-colored levels of the two
    never meet; "table" is an explicit lookup of every such tuple.  The
    TOP_KINDS color only height-depth tuples: "first-letter" by the first
    word's first letter mod r, "oracle-seeded" by a table drawn up front.
    """

    k: int
    d: int
    depth: int
    r: int
    kind: str
    value: int = 0
    seed: int = 0
    roots: tuple[Word, ...] = ()
    table: dict[tuple[Word, ...], int] = field(default_factory=dict)

    def __post_init__(self):
        if self.k < 2 or self.d < 1 or self.depth < 1:
            raise ParameterError("need k >= 2, d >= 1, depth >= 1")
        if self.r < 1:
            raise ParameterError("need at least one color")
        if self.kind not in NAMED_KINDS + ("table",) + TOP_KINDS:
            raise ParameterError(f"unknown coloring kind {self.kind!r}")
        if self.kind in ("constant", "planted-grid", "level-parity"):
            if not 0 <= self.value < self.r:
                raise ParameterError(f"value {self.value} outside 0..{self.r - 1}")
        if self.kind == "planted-grid":
            if self.r < 2:
                raise ParameterError("planted-grid noise needs a second color")
            if len(self.roots) != self.d:
                raise ParameterError(f"need {self.d} planted roots")
            for w in self.roots:
                if len(w) > self.depth or any(not 0 <= c < self.k for c in w):
                    raise ParameterError(f"bad planted root {w}")
        if self.kind == "adversarial" and (self.d != 1 or self.r != 2):
            raise ParameterError("the adversarial instance is d=1, r=2")
        if self.kind == "table":
            self._check_table()
        if self.kind == "oracle-seeded":
            entries = (self.k ** j for j in range(self.depth * self.d + 1))
            if capped(entries) > CAP:
                raise ParameterError(
                    f"a seeded oracle would tabulate {self.k}^"
                    f"{self.depth * self.d} entries, over the cap of {CAP}")
            rng = Random(f"oracle:{self.seed}:{self.k}:{self.d}:{self.depth}")
            level = list(itertools.product(range(self.k), repeat=self.depth))
            memo = self._colors
            for combo in itertools.product(level, repeat=self.d):
                memo[combo] = rng.randrange(self.r)

    def _check_table(self) -> None:
        """Every key is a level tuple of height <= depth with letters in
        0..k-1 and every value a color in 0..r-1; with as many keys as
        level tuples, none is missing."""
        for key, c in self.table.items():
            if (len(key) != self.d or not is_level_tuple(key)
                    or len(key[0]) > self.depth
                    or any(not 0 <= x < self.k for w in key for x in w)):
                raise ParameterError(f"bad coloring table key {key}")
            if not isinstance(c, int) or not 0 <= c < self.r:
                raise ParameterError(f"table color {c} outside 0..{self.r - 1}")
        size = len(self.table)
        levels = (self.k ** (self.d * j) for j in range(self.depth + 1))
        if capped(itertools.accumulate(levels), size) != size:
            raise ParameterError(
                f"coloring table has {size} entries, not one per "
                f"level tuple to depth {self.depth}")

    @cached_property
    def _colors(self) -> dict[tuple[Word, ...], int]:
        """Color memo keyed on the tuple of words, filled lazily (an
        oracle-seeded table fills it whole at construction).  The
        key is all the checks read, so a hit is exact while the fields
        stay as constructed; a tuple that raises is never stored."""
        return {}

    def color(self, words: tuple[Word, ...]) -> int:
        """The color of a same-height tuple, memoized per instance; a
        tuple that raises is never stored, so it raises on every call."""
        memo = self._colors
        got = memo.get(words)
        if got is None:
            got = memo[words] = self._color(words)
        return got

    def _color(self, words: tuple[Word, ...]) -> int:
        if len(words) != self.d:
            raise ValueError(f"expected {self.d} words, got {len(words)}")
        if not is_level_tuple(words):
            raise ValueError("level colorings apply to same-height tuples")
        m = len(words[0])
        if m > self.depth:
            raise ValueError(f"height {m} exceeds depth {self.depth}")
        if not set().union(*words).issubset(range(self.k)):
            raise ValueError("letters out of range")
        return self._level_colors(m, [words])[0]

    def _level_colors(self, m: int, keys: list[tuple[Word, ...]]) -> list[int]:
        """The colors of height-m tuples that color's checks would pass,
        computed without them and stored nowhere; the kind is read once,
        and constant and level-parity colors once per call."""
        kind, r, value = self.kind, self.r, self.value
        if kind == "constant":
            return [value] * len(keys)
        if kind == "level-parity":
            return [(m + value) % r] * len(keys)
        if kind == "seeded":
            return [Random(f"levelcoloring:{self.seed}:{words}").randrange(r)
                    for words in keys]
        if kind == "planted-grid":
            # value where every word is comparable with its root
            others = [c for c in range(r) if c != value]
            return [value if all(w[:len(t)] == t[:len(w)]
                                 for t, w in zip(self.roots, words)) else
                    Random(f"levelcoloring:{self.seed}:{words}").choice(others)
                    for words in keys]
        if kind == "adversarial":
            # color 0: the leftmost branch at even heights, first letter 1
            # at odd ones
            zero = (0,) * m if m % 2 == 0 else None
            return [0 if w == zero or m % 2 and w[0] == 1 else 1
                    for (w,) in keys]
        if m < self.depth and kind in TOP_KINDS:
            raise ValueError(f"words must reach depth {self.depth}")
        if kind == "first-letter":
            return [words[0][0] % r for words in keys]
        # an oracle-seeded table is drawn into the memo at construction
        table = self._colors if kind == "oracle-seeded" else self.table
        colors = list(map(table.get, keys))
        if None in colors:
            words = keys[colors.index(None)]
            raise ValueError(f"coloring table has no entry for {words}")
        return colors

    def to_json(self) -> dict:
        data = {
            "k": self.k,
            "d": self.d,
            "depth": self.depth,
            "r": self.r,
            "kind": self.kind,
        }
        if self.kind in ("constant", "level-parity", "planted-grid"):
            data["value"] = self.value
        if self.kind in ("seeded", "planted-grid", "oracle-seeded"):
            data["seed"] = self.seed
        if self.kind == "planted-grid":
            data["roots"] = [word_to_str(w) for w in self.roots]
        if self.kind == "table":
            data["table"] = {
                "|".join(word_to_str(w) for w in key): c
                for key, c in sorted(self.table.items())
            }
        return data

    @classmethod
    def from_json(cls, data: dict) -> "LevelColoring":
        table = {}
        for key, c in data.get("table", {}).items():
            table[tuple(word_from_str(s) for s in key.split("|"))] = c
        return cls(
            k=data["k"],
            d=data["d"],
            depth=data["depth"],
            r=data["r"],
            kind=data["kind"],
            value=data.get("value", 0),
            seed=data.get("seed", 0),
            roots=tuple(word_from_str(s) for s in data.get("roots", [])),
            table=table,
        )


def surrogate_color(gamma: LevelColoring, xs: Sequence[Word], L: int,
                    cuts: Optional[dict[Word, list[Word]]] = None) -> int:
    """Most frequent color among the level-m truncations, m < L.

    Ties break to the least color index.  This stands in for membership
    of the level set in an ultrafilter; it keeps none of the filter
    properties, which is why the derivation downstream may go partial.
    cuts, if given, maps branches to their first L truncations and gains
    the branches of xs it lacks; it must be used with one L only.
    """
    if not 1 <= L <= gamma.depth:
        raise ValueError(f"need 1 <= L <= {gamma.depth}, got {L}")
    if any(len(x) < L - 1 for x in xs):
        raise ValueError("branches too short for the requested truncations")
    cuts = {} if cuts is None else cuts
    rows = [cuts.get(x) or cuts.setdefault(x, [x[:m] for m in range(L)])
            for x in xs]
    # with no words, every level's truncation is the empty tuple
    keys = list(zip(*rows)) if xs else [()] * L
    colors = list(map(gamma.color, keys))
    counts = list(map(colors.count, range(gamma.r)))
    return counts.index(max(counts))


def surrogate_fn(gamma: LevelColoring) -> Callable[[tuple[Word, ...]], int]:
    """The branch coloring induced by majority to the full depth; each
    branch it meets is cut into its truncations once per function."""
    cuts: dict[Word, list[Word]] = {}
    return lambda xs: surrogate_color(gamma, xs, gamma.depth, cuts)


def _positions(indices: Sequence[Sequence[int]], sizes: Sequence[int]):
    """For each tuple of product(*indices), in product order, its position
    in the product order of ranges of the given sizes."""
    scaled, stride = [], 1
    for idx, n in zip(reversed(indices), reversed(sizes)):
        scaled.append([i * stride for i in idx])
        stride *= n
    if len(scaled) == 1:
        return scaled[0]
    return map(sum, itertools.product(*reversed(scaled)))


def surrogate_product(
    gamma: LevelColoring, sets: Sequence[Sequence[Word]]
) -> list[int]:
    """surrogate_color(gamma, xs, gamma.depth) for every xs in
    product(*sets), in product order, one level at a time.

    The branches are checked once, before any coloring: the arity, a
    length of at least L - 1 for L = gamma.depth, and the letters the
    truncations read.  Tuples that share a prefix share every truncation
    color up to it, so at level m each distinct tuple of m-prefixes is
    colored once, the memo's misses in one unchecked kernel call, and its
    color is added to its parent's vote counts, packed one bit field per
    color into an int.  A branch tuple takes the vote at its tuple of
    (L-1)-prefixes.
    """
    if not all(sets):
        return []
    top = gamma.depth - 1
    if min(map(len, itertools.chain.from_iterable(sets)), default=top) < top:
        raise ValueError("branches too short for the requested truncations")
    if len(sets) != gamma.d:
        raise ValueError(f"expected {gamma.d} words, got {len(sets)}")
    # per coordinate: its distinct m-prefixes for each m <= top, each
    # prefix's parent index one level down, and each branch's top prefix
    prefixes, parents, tops = [], [], []
    for xs in sets:
        index: dict[Word, int] = {}
        tops.append([index.setdefault(x[:top], len(index)) for x in xs])
        levels, ups = [list(index)], []
        for _ in range(top):
            index = {}
            ups.append([index.setdefault(w[:-1], len(index))
                        for w in levels[-1]])
            levels.append(list(index))
        prefixes.append(levels[::-1])
        parents.append(ups[::-1])
    letters = set(itertools.chain.from_iterable(
        w for p in prefixes for w in p[top]))
    if not letters.issubset(range(gamma.k)):
        raise ValueError("letters out of range")
    memo = gamma._colors
    bits = gamma.depth.bit_length()  # a count reaches at most L
    unit = [1 << bits * c for c in range(gamma.r)]
    counts = [0]
    for m in range(top + 1):
        keys = list(itertools.product(*(p[m] for p in prefixes)))
        colors = list(map(memo.get, keys))
        if None in colors:
            misses = [key for key, c in zip(keys, colors) if c is None]
            memo.update(zip(misses, gamma._level_colors(m, misses)))
            colors = list(map(memo.__getitem__, keys))
        up = (_positions([u[m - 1] for u in parents],
                         [len(p[m - 1]) for p in prefixes])
              if m else [0])
        counts = list(map(operator.add, map(counts.__getitem__, up),
                          map(unit.__getitem__, colors)))
    mask = (1 << bits) - 1
    vote = {}
    for packed in set(counts):
        tally = [packed >> bits * c & mask for c in range(gamma.r)]
        vote[packed] = tally.index(max(tally))
    votes = list(map(vote.__getitem__, counts))
    return list(map(votes.__getitem__,
                    _positions(tops, [len(p[top]) for p in prefixes])))


def check_surrogate_size(gamma: LevelColoring, spreads: Sequence[int]) -> None:
    """Refuse, before any coloring, a surrogate run over the product of
    branch sets whose i-th set differs only in the first spreads[i]
    letters, if it would build more than CAP entries: branch tuples, or
    what surrogate_product builds, the level keys it colors plus the
    letters of the distinct prefixes it slices, counting k^min(m, s) of
    each coordinate's m-prefixes at each level m < depth.  The vote
    reads every height, so the TOP_KINDS are refused too."""
    if gamma.kind in TOP_KINDS:
        raise ParameterError(f"no surrogate for top-height kind {gamma.kind!r}")
    k, depth = gamma.k, gamma.depth
    built = itertools.accumulate(
        k ** sum(min(m, s) for s in spreads)
        + sum(m * k ** min(m, s) for s in spreads) for m in range(depth))
    if (capped(k ** j for j in range(sum(spreads) + 1)) > CAP
            or capped(built) > CAP):
        raise ParameterError(
            f"a surrogate coloring of depth-{depth} branches that differ in "
            f"their first {', '.join(map(str, spreads))} letters would "
            f"exceed the cap of {CAP} tuples or built entries")


# ---------------------------------------------------------------------------
# grid search


def _bits(m: int) -> list[int]:
    """The indices of the set bits of m, ascending."""
    return [i for i, c in enumerate(bin(m)[:1:-1]) if c == "1"]


def _trim(bits: list[int], block: int, cap: int) -> list[int]:
    """Drop lex-largest branches whose depth-D prefix stays covered.

    bits are a dense set's cone indices, ascending, and each depth-D
    prefix class is a run of `block` indices.  One reverse pass: a branch
    goes while the cap is exceeded and the branch below it shares its
    class; a drop never changes that for a lower branch.  The set has at
    most cap classes, so the cap is always met."""
    excess = len(bits) - cap
    kept = []
    for i in range(len(bits) - 1, -1, -1):
        if excess > 0 and i and bits[i - 1] // block == bits[i] // block:
            excess -= 1
        else:
            kept.append(bits[i])
    return kept[::-1]


def _heads_from(lists: list[list[int]], start: tuple[int, ...]):
    """The heads of product(*lists) from start on, in product order;
    start itself need not be a head."""
    if not lists:
        return [()]
    parts = []
    for j, row in enumerate(lists):
        at = bisect_left(row, start[j])
        # agree with start before j and pass it at j; at the last
        # coordinate, meet it too
        hit = at < len(row) and row[at] == start[j]
        last = j == len(lists) - 1
        parts.append(itertools.product(*[(x,) for x in start[:j]],
                                       row[at + (hit and not last):],
                                       *lists[j + 1:]))
        if not hit:
            break
    return itertools.chain.from_iterable(reversed(parts))


def _mono_family(
    rows: dict[tuple[int, ...], list], j: int, state: tuple[int, ...],
    block: int,
) -> Optional[tuple[int, ...]]:
    """Largest-first backtracking for an all-j family of dense sets.

    A state holds one mask per cone.  The first bad tuple in product
    order comes from the first head whose last-cone mask meets the mask
    of its row's colors other than j; dropping one of its entries keeps
    a state dense iff that entry's prefix class keeps a branch.  A drop
    only shrinks masks, so the heads before the offending one stay clean
    and a child resumes its scan there, with its front masks' bit lists
    carried along.  The depth-first walk keeps its own stack, as a
    search may drop thousands of branches in a row.  No state is on the
    stack twice: a child is pushed only if unseen, and siblings drop bits
    in different coordinates, so no later sibling is in a child's subtree.
    Any monochromatic family is contained in some leaf of the walk (a bad
    tuple forces one of its entries out), so failure here is a proof of
    absence, not a search artifact.
    """
    seen: set[tuple[int, ...]] = set()
    not_j: dict[tuple[int, ...], int] = {}  # filled as the walk reaches heads
    run = (1 << block) - 1  # one prefix class, at index 0
    n = len(state) - 1  # the front coordinates, which make up a head
    stack = [(state, [_bits(m) for m in state[:n]], (0,) * n)]
    while stack:
        state, lists, start = stack.pop()
        seen.add(state)
        last = state[n]
        for head in _heads_from(lists, start):
            if head not in not_j:
                not_j[head] = int("".join(["0" if c == j else "1"
                                           for c in reversed(rows[head])]), 2)
            bad = last & not_j[head]
            if bad:
                break
        else:
            return state
        offender = head + ((bad & -bad).bit_length() - 1,)
        # pushed last-first, so the first coordinate's drop is tried first
        for i in reversed(range(n + 1)):
            p = offender[i]
            shrunk = state[i] & ~(1 << p)
            child = state[:i] + (shrunk,) + state[i + 1:]
            if shrunk >> (p - p % block) & run and child not in seen:
                kept = lists
                if i < n:
                    at = bisect_left(lists[i], p)
                    kept = lists[:i] + [lists[i][:at] + lists[i][at + 1:]]
                    kept += lists[i + 1:]
                stack.append((child, kept, head))
    return None


def search_grid(
    color_cones: Callable[[list[list[Word]]], Sequence[int]],
    shapes: Sequence[TreeShape],
    density_depth: int,
    cap: int,
) -> Optional[GridWitness]:
    """Backtracking search for a monochromatic somewhere-dense grid.

    color_cones maps a list of branch lists to the colors of their
    product, in product order (for a level coloring, surrogate_product).
    Root tuples enumerate in shortlex product order, proper roots only
    (height below the density depth D, so no vacuous one-branch cones)
    whose k^(D - |t|) prefixes fit in the cap; pools are full trees, so
    that is the whole admissibility test.  Colors ascend; within those
    the largest monochromatic family wins, trimmed to the cap, so a
    constant coloring yields the full branch sets.  Failure is None, and
    proves that no such grid exists.
    """
    k, depth = shapes[0].k, shapes[0].depth
    if any((s.k, s.depth) != (k, depth) for s in shapes):
        raise ValueError("trees must share their k and depth")
    if not 1 <= density_depth <= depth:
        raise ParameterError(f"need 1 <= density depth <= {depth}")
    if cap < 1:
        raise ParameterError(f"need cap >= 1, got {cap}")
    block = k ** (depth - density_depth)  # cone branches per prefix
    roots = [t for t in all_nodes(shapes[0], density_depth - 1)
             if k ** (density_depth - len(t)) <= cap]
    for ts in itertools.product(roots, repeat=len(shapes)):
        # a cone: the branches through its root, lexicographic
        cones = [[t + w for w in words(k, depth - len(t))] for t in ts]
        # one coloring pass, in product order: each head (indices into
        # all cones but the last) maps to its row of colors over the last
        colors = color_cones(cones)
        n = len(cones[-1])
        heads = itertools.product(*(range(len(c)) for c in cones[:-1]))
        rows = {h: colors[i:i + n]
                for h, i in zip(heads, range(0, len(colors), n))}
        full = tuple((1 << len(c)) - 1 for c in cones)
        for j in sorted(set(colors)):
            state = _mono_family(rows, j, full, block)
            if state is not None:
                return GridWitness(
                    k=k,
                    depth=depth,
                    roots=ts,
                    branch_sets=tuple(
                        tuple(cone[p] for p in _trim(_bits(m), block, cap))
                        for cone, m in zip(cones, state)),
                    density_depth=density_depth,
                    color=j,
                )
    return None


# ---------------------------------------------------------------------------
# HL witnesses and the derivation


@dataclass(frozen=True)
class HLWitness:
    """A level set and one strong subtree per coordinate, all over it:
    subtrees[i][m] holds coordinate i's nodes at height levels.at(m)."""

    k: int
    depth: int
    levels: OrdSet
    subtrees: tuple[tuple[frozenset[Word], ...], ...]
    color: int

    def __post_init__(self):
        if self.levels.otp == 0:
            raise ValueError("witness needs at least one level")
        if any(len(sets) != self.levels.otp for sets in self.subtrees):
            raise ValueError("one node set per level required")

    @property
    def d(self) -> int:
        return len(self.subtrees)

    def to_json(self) -> dict:
        return {
            "k": self.k,
            "depth": self.depth,
            "levels": list(self.levels.elems),
            "color": self.color,
            "subtrees": [
                [sorted(map(word_to_str, level)) for level in sets]
                for sets in self.subtrees
            ],
        }


def verify_hl_witness(gamma: LevelColoring, w: HLWitness) -> bool:
    """Each subtree is strong and every level-product tuple has w.color."""
    if w.d != gamma.d or w.k != gamma.k:
        return False
    if w.levels.at(w.levels.otp - 1) > gamma.depth:
        return False
    shape = TreeShape(w.k, w.depth)
    if not all(is_strong_subtree(w.levels, sets, shape)
               for sets in w.subtrees):
        return False
    for m in range(w.levels.otp):
        for combo in itertools.product(*(sets[m] for sets in w.subtrees)):
            if gamma.color(combo) != w.color:
                return False
    return True


@dataclass
class DeriveResult:
    """Outcome of the stagewise derivation; partial progress is a value."""

    full: bool
    witness: Optional[HLWitness]
    height: int
    failed_stage: Optional[int] = None
    reason: Optional[str] = None

    def to_json(self) -> dict:
        return {
            "full": self.full,
            "height": self.height,
            "failed_stage": self.failed_stage,
            "reason": self.reason,
            "witness": self.witness.to_json() if self.witness else None,
        }


def _least_through(Y: Sequence[Word], prefix: Word) -> Optional[Word]:
    for y in Y:
        if y[: len(prefix)] == prefix:
            return y
    return None


def check_witness_height(h: int) -> None:
    """The derivation's height parameter, checkable before any search."""
    if h < 1:
        raise ParameterError("witness height must be >= 1")


def derive_strong_subtrees(
    gamma: LevelColoring, w: GridWitness, h: int
) -> DeriveResult:
    """Replay the subtree construction to height h against a grid witness.

    Stage 0 follows the least branch through each grid root; stage n
    follows the least branch through each immediate successor of the
    previous level's nodes.  Each stage needs a level at which every
    tuple over the current branch families has the witness color; without
    the ultrafilter there is no guarantee one exists below the depth cap,
    so the result records how far the construction got.  Full results are
    re-checked against verify_hl_witness before being returned.
    """
    check_witness_height(h)
    if (gamma.d, gamma.k) != (w.d, w.k):
        raise ValueError("coloring and grid witness disagree on shape")
    j = w.color
    Ys = [sorted(Y, key=node_key) for Y in w.branch_sets]
    chains: list[list[Word]] = []
    for i in range(w.d):
        pick = _least_through(Ys[i], w.roots[i])
        if pick is None:
            return DeriveResult(
                False, None, 0, failed_stage=0,
                reason=f"no branch through the coordinate-{i} root",
            )
        chains.append([pick])

    levels: list[int] = []
    level_sets: list[list[frozenset[Word]]] = [[] for _ in range(w.d)]

    def packaged() -> Optional[HLWitness]:
        if not levels:
            return None
        return HLWitness(k=w.k, depth=w.depth, levels=OrdSet(tuple(levels)),
                         subtrees=tuple(map(tuple, level_sets)), color=j)

    floor = max(len(t) for t in w.roots)
    for n in range(h):
        lo = floor if n == 0 else levels[-1] + 1
        found = None
        for L in range(lo, w.depth + 1):
            if all(
                gamma.color(tuple(z[:L] for z in combo)) == j
                for combo in itertools.product(*chains)
            ):
                found = L
                break
        if found is None:
            return DeriveResult(
                False, packaged(), len(levels), failed_stage=n,
                reason=(
                    f"no level in {lo}..{w.depth} colors every tuple {j}"
                ),
            )
        levels.append(found)
        for i in range(w.d):
            level_sets[i].append(
                frozenset(z[:found] for z in chains[i])
            )
        if n == h - 1:
            break
        for i in range(w.d):
            grown: list[Word] = []
            for s in sorted(level_sets[i][-1], key=node_key):
                for c in range(w.k):
                    stem = s + (c,)
                    pick = _least_through(Ys[i], stem)
                    if pick is None:
                        return DeriveResult(
                            False, packaged(), len(levels),
                            failed_stage=n + 1,
                            reason=(
                                f"coordinate {i} has no branch through "
                                f"{word_to_str(stem)}"
                            ),
                        )
                    grown.append(pick)
            chains[i] = grown

    witness = packaged()
    if witness is None or not verify_hl_witness(gamma, witness):
        raise RuntimeError("the derived HL witness fails its re-check")
    return DeriveResult(True, witness, h)


def cone_grid(
    gamma: LevelColoring, roots: Sequence[Word], density_depth: int
) -> Optional[GridWitness]:
    """Build the leftmost dense grid through the given roots and keep it
    only if the surrogate coloring is constant on it.

    Y_i holds, for every depth-density_depth extension of roots[i], its
    leftmost completion; this is the minimal dense set through the root
    and keeps validation cheap at any depth.
    """
    if not 1 <= density_depth <= gamma.depth:
        raise ParameterError(f"need 1 <= density depth <= {gamma.depth}")
    if len(roots) != gamma.d:
        raise ParameterError(f"need {gamma.d} roots")
    if any(len(r) > density_depth for r in roots):
        raise ParameterError("roots must not exceed the density depth")
    if any(not 0 <= c < gamma.k for r in roots for c in r):
        raise ParameterError(f"root letters must lie in 0..{gamma.k - 1}")
    sets = []
    for r in roots:
        tails = itertools.product(range(gamma.k), repeat=density_depth - len(r))
        sets.append(
            tuple(r + e + (0,) * (gamma.depth - density_depth) for e in tails)
        )
    colors = set(surrogate_product(gamma, sets))
    if len(colors) != 1:
        return None
    w = GridWitness(
        k=gamma.k,
        depth=gamma.depth,
        roots=tuple(roots),
        branch_sets=tuple(sets),
        density_depth=density_depth,
        color=colors.pop(),
    )
    # re-checked tuple by tuple, independently of the kernel
    if not validate_grid_witness(w, surrogate_fn(gamma))[0]:
        raise RuntimeError("the cone grid fails its re-check")
    return w


# ---------------------------------------------------------------------------
# the sideways construction


def s_member(n: int, x: Word) -> bool:
    """x is in S_n iff it takes the leftmost step at level n."""
    if n + 1 > len(x):
        raise ValueError(
            f"branch of height {len(x)} does not reach level {n + 1}"
        )
    return x[n] == 0


def _check_sideways(d: int, j_bound: int, depth: int) -> None:
    if d < 0:
        raise ParameterError("need d >= 0")
    if not 1 <= j_bound < depth:
        raise ParameterError(
            f"need 1 <= jmap range {j_bound} < branch depth {depth}")


def _jmap_value(jmap: Callable[[tuple[Word, ...]], int],
                prefix: tuple[Word, ...], j_bound: int) -> int:
    j = jmap(prefix)
    if not 0 <= j < j_bound:
        raise ParameterError(f"jmap value {j} outside 0..{j_bound - 1}")
    return j


def sideways_lift(
    jmap: Callable[[tuple[Word, ...]], int], d: int, j_bound: int, depth: int
) -> Callable[[Sequence[Word]], list[list[int]]]:
    """Lift a d-dimensional branch coloring jmap into {0..j_bound-1} to a
    2-coloring of (d+1)-tuples of branches: prefix + (x,) gets color 0 iff
    x lies in S_j for j = jmap(prefix).  The lift is a function of a list
    of branches, `side`, that returns one row per d-prefix of
    product(side, repeat=d), in prefix order, where a prefix's row holds
    the colors of prefix + (x,) for x in side.  The jmap and its range
    check run once per d-prefix, in prefix order, and the S_j membership
    row of `side` once per j: prefixes with one jmap value share one row
    object."""
    _check_sideways(d, j_bound, depth)

    def rows(side: Sequence[Word]) -> list[list[int]]:
        by_j: dict[int, list[int]] = {}
        out: list[list[int]] = []
        for prefix in itertools.product(side, repeat=d):
            j = _jmap_value(jmap, prefix, j_bound)
            row = by_j.get(j)
            if row is None:
                row = by_j[j] = [0 if s_member(j, x) else 1 for x in side]
            out.append(row)
        return out

    return rows
