"""Finite-condition forcing over products of branching trees.

A condition pins down, for finitely many rows, one word per coordinate
tree.  Extension deepens words and adds rows.  The pipeline decides an
oracle, a `hl.LevelColoring` of the tuples at its depth, on the separator
rows, takes a large index set on which the decided data agree, lays out a
tag matrix to spread K completions per coordinate with one tag step per
entry, and emits a dense monochromatic grid witness that is re-validated
from scratch.

Deciding by the leftmost route makes the proof's Delta-system step the
identity (see `run_pipeline`), so the index set is taken in closed form,
and so is every stage after it.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Iterable, Iterator, Optional

# unused here; kept so that tracers patching forcing.extract_uniform, and
# forcing.ColoringOracle.color (every LevelColoring.color call), find them
from .deltasys import extract_uniform  # noqa: F401
from .hl import LevelColoring
from .hl import LevelColoring as ColoringOracle  # noqa: F401
from .ordset import OrdSet, ParameterError, capped
from .trees import (
    GridWitness,
    Word,
    validate_grid_witness,
    word_to_str,
)

Row = tuple[Word, ...]


@dataclass(frozen=True)
class Condition:
    """Finitely many rows, each holding one word per coordinate tree.

    Conditions built by the constructor are validated in full.
    Conditions derived from valid ones (`with_slot`, `decide_color`) skip
    that pass: they check only what they write.
    """

    k: int
    d: int
    rows: tuple[tuple[int, Row], ...]
    # row index -> row, for O(1) `row`; never mutated after construction
    _index: dict[int, Row] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.k < 2 or self.d < 1:
            raise ValueError("need k >= 2 and d >= 1")
        prev = -1
        for alpha, row in self.rows:
            if alpha <= prev or alpha < 0:
                raise ValueError("row indices must be distinct naturals, sorted")
            prev = alpha
            if len(row) != self.d:
                raise ValueError(f"row {alpha} needs {self.d} words")
            for w in row:
                if any(not 0 <= c < self.k for c in w):
                    raise ValueError(f"letters must lie in 0..{self.k - 1}")
        object.__setattr__(self, "_index", dict(self.rows))

    @classmethod
    def _derived(cls, k: int, d: int, index: dict[int, Row]) -> "Condition":
        """Unchecked constructor for a condition derived from valid ones;
        takes ownership of index."""
        q = object.__new__(cls)
        object.__setattr__(q, "k", k)
        object.__setattr__(q, "d", d)
        object.__setattr__(q, "rows", tuple(sorted(index.items())))
        object.__setattr__(q, "_index", index)
        return q

    @classmethod
    def empty(cls, k: int, d: int) -> "Condition":
        return cls(k, d, ())

    def row(self, alpha: int) -> Optional[Row]:
        return self._index.get(alpha)

    def with_slot(self, alpha: int, i: int, word: Word) -> "Condition":
        """Replace one slot; the row is created with empty words if new."""
        if alpha < 0:
            raise ValueError(f"row index {alpha} is not a natural")
        if not 0 <= i < self.d:
            raise ValueError(f"coordinate {i} outside 0..{self.d - 1}")
        if any(not 0 <= c < self.k for c in word):
            raise ValueError(f"letters must lie in 0..{self.k - 1}")
        index = dict(self._index)
        row = list(index.get(alpha, ((),) * self.d))
        row[i] = word
        index[alpha] = tuple(row)
        return Condition._derived(self.k, self.d, index)


def _prefix(a: Word, b: Word) -> bool:
    return b[: len(a)] == a


def leq(q: Condition, p: Condition) -> bool:
    """q refines p: more rows allowed, each kept word only grows."""
    if (q.k, q.d) != (p.k, p.d):
        return False
    qd = q._index
    for alpha, row in p.rows:
        qrow = qd.get(alpha)
        if qrow is None:
            return False
        if qrow is not row and any(
                not _prefix(w, qw) for w, qw in zip(row, qrow)):
            return False
    return True


# ---------------------------------------------------------------------------
# oracles


# --oracle name -> LevelColoring kind; the transcript records the name
ORACLE_KINDS = {"constant": "constant", "first-letter": "first-letter",
                "seeded": "oracle-seeded"}


def oracle_json(oracle: LevelColoring) -> dict:
    """The transcript's record of an oracle: its LevelColoring record under
    its --oracle name, with r as num_colors; other kinds are no oracle."""
    names = {kind: name for name, kind in ORACLE_KINDS.items()}
    if oracle.kind not in names:
        raise ParameterError(f"unknown oracle kind {oracle.kind!r}")
    data = oracle.to_json()
    data.update(num_colors=data.pop("r"), kind=names[oracle.kind])
    return data


def decide_color(
    p: Condition, a: OrdSet, oracle: LevelColoring
) -> tuple[Condition, int]:
    """Extend p so the oracle color of the rows named by a is determined.

    Row a(i) supplies coordinate i.  Each such slot grows to the oracle
    depth by the leftmost route (letter 0); fresh rows start with empty
    words elsewhere.  Slots already deep enough are left alone, and p
    itself is returned when none grows.  `run_pipeline` takes its first
    h_target indices in closed form because of this leftmost route.
    """
    if a.otp != p.d:
        raise ValueError(f"need {p.d} row indices, got {a.otp}")
    depth = oracle.depth
    index: Optional[dict[int, Row]] = None
    picked: list[Word] = []
    # the indices are distinct, so each row is written at most once
    for i, alpha in enumerate(a.elems):
        row = p._index.get(alpha)
        w = row[i] if row is not None else ()
        if len(w) < depth:
            w = w + (0,) * (depth - len(w))
            if index is None:
                index = dict(p._index)
            grown = list(row) if row is not None else [()] * p.d
            grown[i] = w
            index[alpha] = tuple(grown)
        picked.append(w[:depth])
    q = p if index is None else Condition._derived(p.k, p.d, index)
    return q, oracle.color(tuple(picked))


# ---------------------------------------------------------------------------
# meeting dense sets


def meet_dense(writes: Iterable[tuple[int, int, Word]],
               start: Condition) -> Iterator[Condition]:
    """Fold (row, coordinate, word) slot writes from start, checking that
    each one extends the condition before it; yields the descending chain,
    start first, one condition at a time, so a caller may keep only the
    last."""
    q = start
    yield q
    for alpha, i, word in writes:
        r = q.with_slot(alpha, i, word)
        if not leq(r, q):
            raise ValueError(f"write {alpha}:{i}:{word_to_str(word)!r} did "
                             "not extend the condition")
        yield r
        q = r


# ---------------------------------------------------------------------------
# the pipeline


def matrix_tags(k: int, count: int) -> list[Word]:
    """The empty word, then words with nonzero last letter in shortlex order.

    Leftmost completions of distinct tags never collide, and the first
    k**m tags are exactly those of length <= m, so a tag budget of
    k**(target - oracle depth) suffices for density.
    """
    tags: list[Word] = [()]
    length = 1
    while len(tags) < count:
        for w in itertools.product(range(k), repeat=length):
            if w[-1] != 0:
                tags.append(w)
                if len(tags) == count:
                    break
        length += 1
    return tags


def _slot_changes(p: Condition, q: Condition) -> list[list]:
    """The slots where q differs from p, as [row, coordinate, word] entries
    in row then coordinate order; replaying them on p gives q when q only
    rewrites slots and adds rows."""
    out: list[list] = []
    for alpha, row in q.rows:
        old = p._index.get(alpha)
        if old is row:
            continue
        for i, w in enumerate(row):
            if old is None or old[i] != w:
                out.append([alpha, i, word_to_str(w)])
    return out


@dataclass
class PipelineResult:
    """failure_code is one of theta-cap, revalidation."""

    ok: bool
    witness: Optional[GridWitness]
    color: Optional[int]
    theta: int
    transcript: dict
    failure: Optional[str] = None
    failure_code: Optional[str] = None


def run_pipeline(
    oracle: LevelColoring,
    density_depth: int,
    width: int,
    buffer: int = 4,
    theta_start: int = 64,
    theta_cap: int = 2 ** 14,
) -> PipelineResult:
    """Drive the full forcing argument at desk scale.

    Stages: double theta until the index block holds h_target indices and
    take the first h_target; cut separator indices delta_i with a
    K*buffer reservoir above each and decide their color; fill a d x K
    tag matrix column by column, stage (i, col) tagging row delta_i + col
    with start word i plus tag col; read off the K leftmost completions
    per coordinate as branch sets.  One `decide_color` call starts the
    chain, one `meet_dense` call folds the tag writes, and the grid witness
    is re-validated from scratch before return.  The oracle is a
    LevelColoring of an ORACLE_KINDS kind whose depth is the oracle depth;
    a branch tuple takes the color of its truncation to that depth.

    The first h_target indices are the least set on which the decided
    condition, color and domain pattern agree: `decide_color` takes the
    leftmost route, so from the empty condition every d-subset a decides
    the all-zero start words and one color, with domain a.  Every tagged
    slot extends its start word, so every cross tuple of the matrix has
    that color and the condition extends its decided condition; a
    reservoir row is new to the condition when it is tagged.  Raises
    ParameterError for arguments outside their domain.
    """
    k, d = oracle.k, oracle.d
    if width < 1:
        raise ParameterError("width must be >= 1")
    if density_depth < oracle.depth:
        raise ParameterError("density depth must be at least the oracle depth")
    tags_needed = (k ** j for j in range(density_depth - oracle.depth + 1))
    if capped(tags_needed, width) > width:
        raise ParameterError(
            f"width {width} cannot reach density depth {density_depth}: "
            f"need at least {k}^{density_depth - oracle.depth} tags"
        )
    if buffer < 0 or (buffer == 0 and width > 1):
        raise ParameterError(
            "buffer must be >= 1 (>= 0 at width 1): the tag rows above a "
            "separator come from its reservoir of width * buffer rows")
    if theta_start < 1:
        raise ParameterError("theta start must be >= 1")
    block = width * buffer
    h_target = d * (block + 1)
    transcript: dict = {
        "k": k,
        "d": d,
        "oracle": oracle_json(oracle),
        "density_depth": density_depth,
        "width": width,
        "buffer": buffer,
        "h_target": h_target,
        "rounds": [],
    }

    theta = theta_start
    while theta < h_target:
        transcript["rounds"].append(
            {"theta": theta, "extracted": False, "method": "pool"}
        )
        if theta >= theta_cap:
            return PipelineResult(
                False, None, None, theta, transcript,
                failure="extraction failed at the theta cap",
                failure_code="theta-cap",
            )
        theta *= 2
    transcript["rounds"].append(
        {"theta": theta, "extracted": True, "method": "identity"}
    )

    # lexicographically least separators with a full reservoir above each;
    # matrix[i] is delta_i and the first width - 1 rows of its reservoir
    deltas = [i * (block + 1) for i in range(d)]
    empty = Condition.empty(k, d)
    decided, star_color = decide_color(empty, OrdSet(tuple(deltas)), oracle)
    s_words = [(0,) * oracle.depth] * d
    transcript["theta"] = theta
    transcript["indices"] = list(range(h_target))
    transcript["color"] = star_color
    transcript["pattern"] = list(range(d))
    transcript["start_words"] = [word_to_str(w) for w in s_words]

    matrix = [[delta + c for c in range(width)] for delta in deltas]
    tags = matrix_tags(k, width)
    transcript["deltas"] = deltas
    transcript["tags"] = [word_to_str(t) for t in tags]
    transcript["matrix"] = matrix

    writes, stage_log = [], []
    for col in range(1, width):
        for i in range(d):
            writes.append((matrix[i][col], i, s_words[i] + tags[col]))
            stage_log.append({"stage": [i, col], "fresh": matrix[i][col],
                              "tag": word_to_str(tags[col])})
    transcript["stages"] = stage_log
    # the decided condition's slots, then one list of slot changes per tag
    # write; only the last two conditions of the fold stay alive
    transcript["chain"] = chain = [_slot_changes(empty, decided)]
    current = decided
    for p, current in itertools.pairwise(meet_dense(writes, decided)):
        chain.append(_slot_changes(p, current))

    full_depth = max(density_depth, oracle.depth + max(len(t) for t in tags))
    branch_sets = []
    for i in range(d):
        ys = []
        for alpha in matrix[i]:
            w = current.row(alpha)[i]
            ys.append(w + (0,) * (full_depth - len(w)))
        branch_sets.append(tuple(sorted(ys)))
    witness = GridWitness(
        k=k,
        depth=full_depth,
        roots=tuple(s_words),
        branch_sets=tuple(branch_sets),
        density_depth=density_depth,
        color=star_color,
    )
    ok, report = validate_grid_witness(
        witness, lambda xs: oracle.color(tuple(x[:oracle.depth] for x in xs)))
    transcript["validation"] = {
        "ok": ok,
        "density": report["density"],
        "tuples": report["tuples"],
        "color_failures": report["color_failures"],
    }
    transcript["witness"] = witness.to_json()
    if not ok:
        return PipelineResult(
            False, witness, star_color, theta, transcript,
            failure="witness failed revalidation",
            failure_code="revalidation",
        )
    return PipelineResult(True, witness, star_color, theta, transcript)
