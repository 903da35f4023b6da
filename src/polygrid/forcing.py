"""Finite-condition forcing over products of branching trees.

A condition pins down, for finitely many rows, one word per coordinate
tree.  Extension deepens words and adds rows.  The pipeline drives an
oracle coloring through decide steps, extracts a large index set on which
the decided data agree, lays out a tag matrix to spread K completions per
coordinate while meeting the scheduled dense sets, and emits a dense
monochromatic grid witness that is re-validated from scratch.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from random import Random
from typing import Callable, Optional, Sequence

from .deltasys import Family, extract_uniform
from .ordset import OrdSet
from .trees import (
    GridWitness,
    Node,
    validate_grid_witness,
    word_from_str,
    word_to_str,
)

Word = tuple[int, ...]
Row = tuple[Word, ...]
# domain relabeled to an initial segment; entry ell is the row at ell
CollapsedCondition = tuple[Row, ...]


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

    def domain(self) -> tuple[int, ...]:
        return tuple(alpha for alpha, _ in self.rows)

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


def collapse(p: Condition) -> CollapsedCondition:
    """Row values in domain order, indices relabeled to 0..len-1."""
    return tuple(r for _, r in p.rows)


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
    input, "table" uses an explicit mapping.
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
        if self.depth < 1:
            raise ValueError("oracle depth must be >= 1")
        if self.num_colors < 1:
            raise ValueError("need at least one color")
        if self.kind not in ("constant", "first-letter", "seeded", "table"):
            raise ValueError(f"unknown oracle kind {self.kind!r}")
        if self.kind == "seeded" and not self.table:
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
    p: Condition, a: OrdSet, oracle: ColoringOracle, theta: Optional[int] = None
) -> tuple[Condition, int]:
    """Extend p so the oracle color of the rows named by a is determined.

    Row a(i) supplies coordinate i.  Each such slot grows to the oracle
    depth by the leftmost route (letter 0); fresh rows start with empty
    words elsewhere.  Slots already deep enough are left alone, and p
    itself is returned when none grows.
    """
    if a.otp != p.d:
        raise ValueError(f"need {p.d} row indices, got {a.otp}")
    if theta is not None and any(alpha >= theta for alpha in a):
        raise ValueError(f"row indices {a.elems} not all below theta={theta}")
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
    if q is p:
        return []
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
    extract_budget: int = 400_000,
) -> PipelineResult:
    """Drive the full forcing argument at desk scale.

    Stages: decide the oracle color for every d-subset of a theta-sized
    index block; extract an index set on which the collapsed decided
    condition, the color, and the domain pattern agree (doubling theta on
    failure); read the coordinate start words off the collapsed condition;
    cut separator indices delta_i with a K*buffer reservoir above each;
    fill a d x K tag matrix column by column, meeting every decide dense
    set and re-checking every cross tuple; read off the K leftmost
    completions per coordinate as branch sets.  The resulting grid witness
    is re-validated from scratch before return.
    """
    k, d = oracle.k, oracle.d
    if density_depth < oracle.depth:
        raise ValueError("density depth must be at least the oracle depth")
    need = k ** (density_depth - oracle.depth)
    if width < need:
        raise ValueError(
            f"width {width} cannot reach density depth {density_depth}: "
            f"need at least {need} tags"
        )
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
    chosen: Optional[OrdSet] = None
    star_label = None
    while True:
        if theta >= h_target:
            base = Condition.empty(k, d)
            umap: dict[tuple[int, ...], OrdSet] = {}
            labels: dict[tuple[int, ...], tuple] = {}
            for a in itertools.combinations(range(theta), d):
                q_a, j_a = decide_color(base, OrdSet(a), oracle, theta=theta)
                dom = q_a.domain()
                pattern = tuple(dom.index(x) for x in a)
                umap[a] = OrdSet(dom)
                labels[a] = (collapse(q_a), j_a, pattern)
            fam = Family(d, OrdSet(tuple(range(theta))), umap)
            res = extract_uniform(fam, h_target, labels, budget=extract_budget)
            transcript["rounds"].append(
                {"theta": theta, "extracted": res.ok, "method": res.method}
            )
            if res.ok:
                chosen = res.indices
                star_label = res.g_value
                break
        else:
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

    qbar_star, star_color, r_star = star_label
    transcript["theta"] = theta
    transcript["indices"] = list(chosen.elems)
    transcript["color"] = star_color
    transcript["pattern"] = list(r_star)

    s_words = [qbar_star[r_star[i]][i] for i in range(d)]
    transcript["start_words"] = [word_to_str(w) for w in s_words]

    # lexicographically least separators with a full reservoir above each
    deltas = [chosen.at(i * (block + 1)) for i in range(d)]
    reservoirs = [
        list(chosen.elems[i * (block + 1) + 1: (i + 1) * (block + 1)])
        for i in range(d)
    ]
    transcript["deltas"] = deltas

    tags = matrix_tags(k, width)
    transcript["tags"] = [word_to_str(t) for t in tags]

    base = Condition.empty(k, d)
    # one list of slot changes per dense step, replayed from base
    chain: list[list[list]] = []

    def record(seg: list[Condition]) -> None:
        chain.extend(_slot_changes(p, q) for p, q in zip(seg, seg[1:]))

    def decide_step(a: OrdSet) -> DenseStep:
        return DenseStep(
            name=f"decide:{','.join(map(str, a.elems))}",
            extend=lambda q: decide_color(q, a, oracle)[0],
            member=lambda q: all(
                len((q.row(a.at(m)) or ((),) * d)[m]) >= oracle.depth
                for m in range(d)
            ),
        )

    delta_set = OrdSet(tuple(deltas))
    seg = meet_dense([decide_step(delta_set)], base)
    record(seg)
    current = seg[-1]

    matrix: list[list[int]] = [[deltas[i]] for i in range(d)]
    used: list[int] = [0] * d  # next reservoir index per coordinate
    decided_cache: dict[tuple[int, ...], Condition] = {}
    stage_log = []
    for col in range(1, width):
        for i in range(d):
            pools = [
                matrix[j][: col + 1] if j < i else matrix[j][:col]
                for j in range(d)
            ]
            steps = [
                decide_step(OrdSet(tuple(sorted(combo))))
                for combo in itertools.product(*pools)
            ]
            seg = meet_dense(steps, current)
            record(seg)
            q_star = seg[-1]

            tagged = s_words[i] + tags[col]
            fresh = None
            attempts = 0
            while used[i] < len(reservoirs[i]):
                gamma = reservoirs[i][used[i]]
                used[i] += 1
                attempts += 1
                candidate = q_star.with_slot(gamma, i, tagged)
                if compatible(candidate, q_star):
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
            seg = meet_dense([tag_step], q_star)
            record(seg)
            current = seg[-1]
            # the tagged condition may only differ from q_star at (fresh, i)
            before = q_star._index
            after = current._index
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
            ys.append(Node(i, w + (0,) * (full_depth - len(w))))
        branch_sets.append(tuple(sorted(ys, key=lambda y: y.word)))
    roots = tuple(Node(i, s_words[i]) for i in range(d))
    witness = GridWitness(
        k=k,
        depth=full_depth,
        roots=roots,
        branch_sets=tuple(branch_sets),
        density_depth=density_depth,
        color=star_color,
    )

    def gamma(branches: tuple[Node, ...]) -> int:
        return oracle.color(tuple(b.word for b in branches))

    ok, report = validate_grid_witness(witness, gamma)
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
