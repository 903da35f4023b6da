"""Finite-condition forcing over products of branching trees.

A condition pins down, for finitely many rows, one word per coordinate
tree.  Extension deepens words and adds rows.  The pipeline decides an
oracle coloring on the separator rows, takes a large index set on which
the decided data agree, lays out a tag matrix to spread K completions per
coordinate with one tag step per entry, and emits a dense monochromatic
grid witness that is re-validated from scratch.

Deciding by the leftmost route makes the proof's Delta-system step the
identity (see `run_pipeline`), so the index set is taken in closed form.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from random import Random
from typing import Callable, Optional, Sequence

# unused here; kept so that tracers patching forcing.extract_uniform find it
from .deltasys import extract_uniform  # noqa: F401
from .ordset import OrdSet, ParameterError
from .trees import (
    GridWitness,
    Word,
    validate_grid_witness,
    word_from_str,
    word_to_str,
)

Row = tuple[Word, ...]

# most entries a seeded oracle may tabulate up front (k ** (depth * d))
SEEDED_TABLE_CAP = 2 ** 20


@dataclass(frozen=True)
class Condition:
    """Finitely many rows, each holding one word per coordinate tree.

    Conditions built from outside input (the constructor, `of`,
    `from_json`) are validated in full.  Conditions derived from valid ones
    (`with_slot`, `decide_color`, `join`) skip that pass: they check only
    what they write.
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

    @classmethod
    def of(cls, k: int, d: int, assign: dict[int, Row]) -> "Condition":
        return cls(k, d, tuple(sorted(assign.items())))

    def row(self, alpha: int) -> Optional[Row]:
        return self._index.get(alpha)

    def as_dict(self) -> dict[int, Row]:
        return dict(self._index)

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

    def to_json(self) -> dict:
        return {
            "k": self.k,
            "d": self.d,
            "rows": {str(a): [word_to_str(w) for w in r] for a, r in self.rows},
        }

    @classmethod
    def from_json(cls, data: dict) -> "Condition":
        assign = {
            int(a): tuple(word_from_str(s) for s in r)
            for a, r in data["rows"].items()
        }
        return cls.of(data["k"], data["d"], assign)


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


def compatible(p: Condition, q: Condition) -> bool:
    if (q.k, q.d) != (p.k, p.d):
        return False
    qd = q._index
    for alpha, row in p.rows:
        other = qd.get(alpha)
        if other is None or other is row:
            continue
        for w, v in zip(row, other):
            if not (_prefix(w, v) or _prefix(v, w)):
                return False
    return True


def join(p: Condition, q: Condition) -> Condition:
    """Least common extension: per slot the longer word wins."""
    if not compatible(p, q):
        raise ValueError("conditions are incompatible")
    assign = p.as_dict()
    for alpha, row in q.rows:
        if alpha not in assign:
            assign[alpha] = row
        else:
            assign[alpha] = tuple(
                w if len(w) >= len(v) else v for w, v in zip(assign[alpha], row)
            )
    return Condition._derived(p.k, p.d, assign)


# ---------------------------------------------------------------------------
# oracles


@dataclass
class ColoringOracle:
    """Colors d-tuples of depth-`depth` words; deeper input is truncated.

    kind "constant" ignores input, "first-letter" reads the first letter of
    the first coordinate, "seeded" tabulates a pseudorandom color for every
    input (at most SEEDED_TABLE_CAP of them), "table" uses an explicit
    mapping.
    """

    k: int
    d: int
    depth: int
    num_colors: int
    kind: str
    value: int = 0
    seed: int = 0
    table: dict[tuple[Word, ...], int] = field(default_factory=dict)

    def __post_init__(self):
        if self.k < 2 or self.d < 1:
            raise ParameterError("need k >= 2 and d >= 1")
        if self.depth < 1:
            raise ParameterError("oracle depth must be >= 1")
        if self.num_colors < 1:
            raise ParameterError("need at least one color")
        if self.kind not in ("constant", "first-letter", "seeded", "table"):
            raise ParameterError(f"unknown oracle kind {self.kind!r}")
        if self.kind == "constant" and not 0 <= self.value < self.num_colors:
            raise ParameterError(f"value must lie in 0..{self.num_colors - 1}")
        if self.kind == "table" and not self.table:
            raise ParameterError("the table kind needs a table")
        if self.kind == "seeded" and not self.table:
            entries = 1
            for _ in range(self.depth * self.d):  # stops once past the cap
                entries *= self.k
                if entries > SEEDED_TABLE_CAP:
                    raise ParameterError(
                        f"a seeded oracle would tabulate {self.k}^"
                        f"{self.depth * self.d} entries, over the cap of "
                        f"{SEEDED_TABLE_CAP}")
            rng = Random(f"oracle:{self.seed}:{self.k}:{self.d}:{self.depth}")
            words = list(itertools.product(range(self.k), repeat=self.depth))
            for combo in itertools.product(words, repeat=self.d):
                self.table[combo] = rng.randrange(self.num_colors)

    def color(self, words: Sequence[Word]) -> int:
        if len(words) != self.d:
            raise ValueError(f"expected {self.d} words")
        cut = tuple(w[: self.depth] for w in words)
        if any(len(w) != self.depth for w in cut):
            raise ValueError(f"words must reach depth {self.depth}")
        if self.kind == "constant":
            return self.value
        if self.kind == "first-letter":
            return cut[0][0] % self.num_colors
        got = self.table.get(cut)
        if got is None:
            raise ValueError(f"oracle table has no entry for {cut}")
        return got

    def to_json(self) -> dict:
        data = {
            "k": self.k,
            "d": self.d,
            "depth": self.depth,
            "num_colors": self.num_colors,
            "kind": self.kind,
        }
        if self.kind == "constant":
            data["value"] = self.value
        if self.kind == "seeded":
            data["seed"] = self.seed
        if self.kind == "table":
            data["table"] = {
                "|".join(word_to_str(w) for w in combo): c
                for combo, c in sorted(self.table.items())
            }
        return data

    @classmethod
    def from_json(cls, data: dict) -> "ColoringOracle":
        table = {}
        for key, c in data.get("table", {}).items():
            combo = tuple(word_from_str(s) for s in key.split("|"))
            table[combo] = c
        return cls(
            k=data["k"],
            d=data["d"],
            depth=data["depth"],
            num_colors=data["num_colors"],
            kind=data["kind"],
            value=data.get("value", 0),
            seed=data.get("seed", 0),
            table=table,
        )


def decide_color(
    p: Condition, a: OrdSet, oracle: ColoringOracle
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
# dense steps


@dataclass
class DenseStep:
    """A named dense-set descriptor: how to meet it and how to recognize
    membership afterwards."""

    name: str
    extend: Callable[[Condition], Condition]
    member: Callable[[Condition], bool]


def meet_dense(schedule: Sequence[DenseStep], start: Condition) -> list[Condition]:
    """Fold the schedule from start, validating order and membership at
    each step; returns the whole descending chain, start included."""
    chain = [start]
    for step in schedule:
        r = step.extend(chain[-1])
        if not leq(r, chain[-1]):
            raise ValueError(f"step {step.name!r} did not extend the condition")
        if not step.member(r):
            raise ValueError(f"step {step.name!r} missed its dense set")
        chain.append(r)
    return chain


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
    """failure_code is one of theta-cap, reservoir, drift, revalidation."""

    ok: bool
    witness: Optional[GridWitness]
    color: Optional[int]
    theta: int
    indices: Optional[OrdSet]
    transcript: dict
    failure: Optional[str] = None
    failure_code: Optional[str] = None


def run_pipeline(
    oracle: ColoringOracle,
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
    tag matrix column by column, one tag step per entry, re-checking the
    color of every new cross tuple and that the condition extends every
    cross tuple's decided condition; read off the K leftmost completions
    per coordinate as branch sets.  The grid witness is re-validated from
    scratch before return.

    The first h_target indices are the least set on which the decided
    condition, color and domain pattern agree: `decide_color` takes the
    leftmost route, so from the empty condition every d-subset a decides
    the all-zero start words and one color, with domain a.  Raises
    ParameterError for arguments outside their domain.
    """
    k, d = oracle.k, oracle.d
    if density_depth < oracle.depth:
        raise ParameterError("density depth must be at least the oracle depth")
    need = 1
    for _ in range(density_depth - oracle.depth):  # stops once past width
        need *= k
        if need > width:
            raise ParameterError(
                f"width {width} cannot reach density depth {density_depth}: "
                f"need at least {k}^{density_depth - oracle.depth} tags"
            )
    if buffer < 0:
        raise ParameterError("buffer must be >= 0")
    if theta_start < 1:
        raise ParameterError("theta start must be >= 1")
    block = width * buffer
    h_target = d * (block + 1)
    transcript: dict = {
        "k": k,
        "d": d,
        "oracle": oracle.to_json(),
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
                False, None, None, theta, None, transcript,
                failure="extraction failed at the theta cap",
                failure_code="theta-cap",
            )
        theta *= 2
    transcript["rounds"].append(
        {"theta": theta, "extracted": True, "method": "identity"}
    )

    chosen = OrdSet(tuple(range(h_target)))
    s_words = [(0,) * oracle.depth] * d
    star_color = oracle.color(tuple(s_words))
    transcript["theta"] = theta
    transcript["indices"] = list(chosen.elems)
    transcript["color"] = star_color
    transcript["pattern"] = list(range(d))
    transcript["start_words"] = [word_to_str(w) for w in s_words]

    # lexicographically least separators with a full reservoir above each
    deltas = [i * (block + 1) for i in range(d)]
    reservoirs = [list(range(delta + 1, delta + block + 1)) for delta in deltas]
    transcript["deltas"] = deltas

    tags = matrix_tags(k, width)
    transcript["tags"] = [word_to_str(t) for t in tags]

    base = Condition.empty(k, d)
    delta_set = OrdSet(tuple(deltas))
    current = meet_dense([DenseStep(
        name=f"decide:{','.join(map(str, deltas))}",
        extend=lambda q: decide_color(q, delta_set, oracle)[0],
        member=lambda q: all(
            len((q.row(deltas[m]) or ((),) * d)[m]) >= oracle.depth
            for m in range(d)
        ),
    )], base)[-1]
    # one list of slot changes per dense step, replayed from base
    chain: list[list[list]] = [_slot_changes(base, current)]

    # No cross tuple of the matrix needs a decide step of its own: a sorted
    # tuple names row matrix[j][c] for coordinate j, and that slot reached
    # the oracle depth when the row entered (the separators above, a fresh
    # row by its tag, which extends the start word).  The monotone check
    # below confirms this for every cross tuple.
    matrix: list[list[int]] = [[deltas[i]] for i in range(d)]
    used: list[int] = [0] * d  # next reservoir index per coordinate
    decided_cache: dict[tuple[int, ...], Condition] = {}
    stage_log = []
    for col in range(1, width):
        for i in range(d):
            tagged = s_words[i] + tags[col]
            fresh = None
            attempts = 0
            while used[i] < len(reservoirs[i]):
                gamma = reservoirs[i][used[i]]
                used[i] += 1
                attempts += 1
                candidate = current.with_slot(gamma, i, tagged)
                if compatible(candidate, current):
                    fresh = gamma
                    break
            if fresh is None:
                return PipelineResult(
                    False, None, None, theta, chosen, transcript,
                    failure=f"reservoir {i} exhausted at column {col}",
                    failure_code="reservoir",
                )
            tag_step = DenseStep(
                name=f"tag:{fresh}:{i}:{word_to_str(tags[col])}",
                extend=lambda q, a=fresh, ii=i, w=tagged: q.with_slot(a, ii, w),
                member=lambda q, a=fresh, ii=i, w=tagged: (
                    (q.row(a) or ((),) * d)[ii] == w
                ),
            )
            prev, current = current, meet_dense([tag_step], current)[-1]
            chain.append(_slot_changes(prev, current))
            # the tagged condition may only differ from prev at (fresh, i)
            before, after = prev._index, current._index
            assert set(after) == set(before) | {fresh}
            assert all(after[x] == before[x] for x in before if x != fresh)
            assert after[fresh][i] == s_words[i] + tags[col]
            matrix[i].append(fresh)

            checked = 0
            mismatches = 0
            cross_pools = [
                matrix[j][: col + 1] if j != i else [fresh] for j in range(d)
            ]
            for combo in itertools.product(*cross_pools):
                words = tuple(
                    current.row(combo[j])[j][: oracle.depth] for j in range(d)
                )
                checked += 1
                if oracle.color(words) != star_color:
                    mismatches += 1
            # monotone recursion hypothesis: current extends q_a for every
            # completed tuple over the matrix columns filled so far
            monotone_ok = True
            full_pools = [matrix[j] for j in range(d)]
            for combo in itertools.product(*full_pools):
                key = tuple(sorted(combo))
                if key not in decided_cache:
                    decided_cache[key] = decide_color(base, OrdSet(key), oracle)[0]
                if not leq(current, decided_cache[key]):
                    monotone_ok = False
            stage_log.append(
                {
                    "stage": [i, col],
                    "fresh": fresh,
                    "reservoir_attempts": attempts,
                    "tag": word_to_str(tags[col]),
                    "checked": checked,
                    "mismatches": mismatches,
                    "monotone": monotone_ok,
                }
            )
            if mismatches or not monotone_ok:
                return PipelineResult(
                    False, None, None, theta, chosen, transcript,
                    failure=f"color drift at stage ({i}, {col})",
                    failure_code="drift",
                )
    transcript["matrix"] = matrix
    transcript["stages"] = stage_log
    transcript["chain"] = chain

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
    ok, report = validate_grid_witness(witness, oracle.color)
    transcript["validation"] = {
        "ok": ok,
        "density": report["density"],
        "tuples": report["tuples"],
        "color_failures": report["color_failures"],
    }
    transcript["witness"] = witness.to_json()
    if not ok:
        return PipelineResult(
            False, witness, star_color, theta, chosen, transcript,
            failure="witness failed revalidation",
            failure_code="revalidation",
        )
    return PipelineResult(True, witness, star_color, theta, chosen, transcript)
