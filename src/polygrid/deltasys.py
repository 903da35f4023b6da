"""Uniform higher-dimensional sunflower detection and extraction.

A family attaches a finite set u_b to every n-sized subset b of an index
set.  Uniformity asks for a single order type and, for every agreement
pattern m, a single position set r_m governing how u_a and u_b overlap
whenever a and b are aligned with agreement exactly m; the patterns must
respect intersection.  The extractor hunts for a sub-index-set on which
the restricted family is uniform and a supplied label is constant.
"""

from __future__ import annotations

import itertools
import math
from bisect import bisect_left
from dataclasses import dataclass, field
from operator import itemgetter, lt
from random import Random
from typing import Mapping, Optional, Union

# aligned and rset are the reference definitions `agreement` computes; they
# stay bound here because bench/tracing.py counts their calls in this module
from .ordset import OrdSet, ParameterError, aligned, rset  # noqa: F401

Key = tuple[int, ...]


@dataclass
class Family:
    """dim-sized index subsets mapped to their attached sets.

    umap keys are increasing tuples over the index set; a family may be
    partial near the top of the index set (derived families are), totality
    is checked where an operation needs it.  The constructor checks the
    keys once; restrictions and derivations skip that (`_derived`).
    """

    dim: int
    indices: OrdSet
    umap: dict[Key, OrdSet]

    def __post_init__(self):
        if self.dim < 0:
            raise ValueError("dimension must be >= 0")
        members = set(self.indices.elems)
        keys = self.umap.keys()
        # one C-speed pass per check; the loop only names the first bad key
        if (set(map(len, keys)) <= {self.dim}
                and all(all(map(lt, map(itemgetter(i), keys),
                                map(itemgetter(i + 1), keys)))
                        for i in range(self.dim - 1))
                and members.issuperset(itertools.chain.from_iterable(keys))):
            return
        for b in keys:
            if len(b) != self.dim or any(x >= y for x, y in zip(b, b[1:])):
                raise ValueError(f"bad key {b}: need an increasing {self.dim}-tuple")
            if not set(b) <= members:
                raise ValueError(f"key {b} uses indices outside the family")

    @classmethod
    def _derived(cls, dim: int, indices: OrdSet, umap: dict) -> "Family":
        """Unchecked constructor for a family derived from a checked one."""
        fam = object.__new__(cls)
        fam.dim, fam.indices, fam.umap = dim, indices, umap
        return fam

    def is_total(self) -> bool:
        # exact: the keys are distinct increasing dim-tuples of indices
        return len(self.umap) == math.comb(len(self.indices.elems), self.dim)

    def keys(self) -> list[Key]:
        return sorted(self.umap.keys())

    def to_json(self) -> dict:
        return {
            "dim": self.dim,
            "indices": list(self.indices.elems),
            "umap": {
                ",".join(map(str, b)): list(u.elems)
                for b, u in sorted(self.umap.items())
            },
        }

    @classmethod
    def from_json(cls, data: dict) -> "Family":
        umap = {
            _key_from_str(key): OrdSet(tuple(vals))
            for key, vals in data["umap"].items()
        }
        return cls(data["dim"], OrdSet(tuple(data["indices"])), umap)


def _key_from_str(s: str) -> Key:
    return tuple(int(x) for x in s.split(",")) if s else ()


def restrict(fam: Family, sub: OrdSet) -> Family:
    """Restriction to a smaller index set; keys must all be present."""
    if not set(sub.elems) <= set(fam.indices.elems):
        raise ValueError("restriction indices must come from the family")
    try:
        return Family._derived(fam.dim, sub, {
            b: fam.umap[b] for b in itertools.combinations(sub.elems, fam.dim)})
    except KeyError as exc:
        raise ValueError(f"family is not total at {exc.args[0]}") from None


@dataclass
class UniformCertificate:
    """Order type rho plus one position set per agreement pattern.

    patterns maps each subset m of {0..dim-1} (as a sorted tuple) to the
    OrdSet r_m, or to None when no aligned pair realizes m at this size.
    """

    dim: int
    rho: int
    patterns: dict[Key, Optional[OrdSet]]

    @property
    def is_full(self) -> bool:
        return all(v is not None for v in self.patterns.values())

    def undetermined(self) -> list[Key]:
        return sorted(m for m, v in self.patterns.items() if v is None)

    def to_json(self) -> dict:
        return {
            "dim": self.dim,
            "rho": self.rho,
            "patterns": {
                ",".join(map(str, m)): (None if v is None else v.to_json())
                for m, v in self.patterns.items()
            },
        }

    @classmethod
    def from_json(cls, data: dict) -> "UniformCertificate":
        patterns = {
            _key_from_str(key): (None if v is None else OrdSet.from_json(v))
            for key, v in data["patterns"].items()
        }
        return cls(data["dim"], data["rho"], patterns)


@dataclass
class Violation:
    kind: str
    pair: tuple[Key, Key]
    info: dict = field(default_factory=dict)

    def to_json(self) -> dict:
        return {"kind": self.kind, "pair": [list(self.pair[0]), list(self.pair[1])],
                "info": {k: str(v) for k, v in self.info.items()}}


VerifyOutcome = Union[UniformCertificate, Violation]


def _lattice_failure(
    patterns: Mapping[Key, Optional[OrdSet]],
) -> Optional[tuple[Key, Key, Key]]:
    """First (m0, m1, meet) among determined patterns whose determined meet
    is not the intersection of their position sets; None if there is none."""
    det = {m: v for m, v in patterns.items() if v is not None}
    for m0, m1 in itertools.combinations_with_replacement(sorted(det), 2):
        meet = tuple(sorted(set(m0) & set(m1)))
        if meet in det and set(det[meet].elems) != (
                set(det[m0].elems) & set(det[m1].elems)):
            return m0, m1, meet
    return None


def agreement(a: Key, b: Key) -> Optional[Key]:
    """rset(a, b) as a tuple of positions for increasing tuples a and b,
    or None when they are not aligned; `ordset.aligned` and `ordset.rset`
    are the reference definitions.

    One merge pass over both tuples: a common element at equal positions
    joins the agreement, a common element at different positions means
    the tuples are not aligned.
    """
    n = len(a)
    if n != len(b):
        return None
    m = []
    i = j = 0
    while i < n and j < n:
        x, y = a[i], b[j]
        if x < y:
            i += 1
        elif y < x:
            j += 1
        elif i != j:
            return None
        else:
            m.append(i)
            i += 1
            j += 1
    return tuple(m)


def _all_patterns(dim: int) -> list[Key]:
    return sorted(itertools.chain.from_iterable(
        itertools.combinations(range(dim), r) for r in range(dim + 1)))


def verify_uniform(fam: Family) -> VerifyOutcome:
    """Check the three uniformity clauses over every aligned pair.

    Returns the certificate, with undetermined entries for patterns no
    aligned pair realizes, or the first violation found.
    """
    if not fam.is_total():
        raise ParameterError("verification needs a total family")
    keys = fam.keys()
    if not keys:
        raise ParameterError("empty family")
    rho = fam.umap[keys[0]].otp
    for b in keys:
        if fam.umap[b].otp != rho:
            return Violation("order-type", (keys[0], b),
                             {"expected": rho, "got": fam.umap[b].otp})
    found: dict[Key, Key] = {}
    witnesses: dict[Key, tuple[Key, Key]] = {}
    elems = {b: u.elems for b, u in fam.umap.items()}
    for a, b in itertools.combinations(keys, 2):
        m = agreement(a, b)
        if m is None:
            continue
        ua, ub = elems[a], elems[b]
        r = agreement(ua, ub)
        if r is None:
            return Violation("fiber-alignment", (a, b),
                             {"u_a": ua, "u_b": ub})
        seen = found.get(m)
        if seen is None:
            found[m] = r
            witnesses[m] = (a, b)
        elif seen != r:
            return Violation("pattern-mismatch", (a, b),
                             {"pattern": m, "expected": seen,
                              "got": r, "first_witness": witnesses[m]})
    # distinct keys never agree in full, so the full pattern is rho's
    cert = _certificate_from_patterns(fam.dim, rho, found)
    bad = _lattice_failure(cert.patterns)
    if bad is not None:
        m0, m1, meet = bad
        return Violation("lattice", (m0, m1),
                         {"meet": meet, "r_meet": cert.patterns[meet].elems})
    return cert


def _certificate_from_patterns(dim: int, rho: int,
                               patterns: Mapping[Key, Key]) -> UniformCertificate:
    table: dict[Key, Optional[OrdSet]] = {m: None for m in _all_patterns(dim)}
    table.update((m, OrdSet(r)) for m, r in patterns.items())
    table[tuple(range(dim))] = OrdSet(tuple(range(rho)))
    return UniformCertificate(dim, rho, table)


# ---------------------------------------------------------------------------
# extraction


@dataclass
class ExtractResult:
    ok: bool
    indices: Optional[OrdSet]
    certificate: Optional[UniformCertificate]
    g_value: object
    method: str
    nodes_used: int
    failure: Optional[dict] = None


def _normalize_labels(fam: Family, g) -> dict[Key, object]:
    if callable(g):
        return {b: g(b) for b in fam.umap}
    try:
        return {b: g[b] for b in fam.umap}
    except KeyError as exc:
        raise ParameterError(f"labels miss key {exc.args[0]}") from None


def _index_pattern(b: Key, u: Key) -> Key:
    """Positions of b's members inside u, or -1 for members not in u: one
    merge pass over both increasing tuples, none if their ranges are apart."""
    if not u or not b or b[-1] < u[0] or u[-1] < b[0]:
        return (-1,) * len(b)
    out, j, n = [], 0, len(u)
    for x in b:
        j = bisect_left(u, x, j)
        out.append(j if j < n and u[j] == x else -1)
    return tuple(out)


class _Grower:
    """Incremental consistency state for one candidate index list."""

    def __init__(self, fam: Family, labels: Mapping[Key, object], budget: int):
        self.fam = fam
        self.labels = labels
        self.budget = budget
        self.nodes = 0
        self.members: list[int] = []
        self.keys: list[Key] = []
        self.patterns: dict[Key, Key] = {}
        self.g_value: object = None

    def _pair_ok(self, a: Key, b: Key) -> bool:
        self.nodes += 1
        if self.nodes > self.budget:
            raise BudgetUp()
        m = agreement(a, b)
        if m is None:
            return True
        r = agreement(self.fam.umap[a].elems, self.fam.umap[b].elems)
        if r is None:
            return False
        seen = self.patterns.get(m)
        if seen is None:
            self.patterns[m] = r
            return True
        return seen == r

    def try_add(self, gamma: int) -> bool:
        trial = sorted(self.members + [gamma])
        fresh = [b for b in itertools.combinations(trial, self.fam.dim)
                 if gamma in b]
        if fresh:
            rho = self.fam.umap[(self.keys or fresh)[0]].otp
            if any(self.fam.umap[b].otp != rho for b in fresh):
                return False
            want = self.g_value if self.keys else self.labels[fresh[0]]
            if any(self.labels[b] != want for b in fresh):
                return False
        saved = dict(self.patterns)
        all_keys = self.keys + fresh
        for b in fresh:
            for a in all_keys:
                if a == b:
                    continue
                lo, hi = (a, b) if a < b else (b, a)
                if not self._pair_ok(lo, hi):
                    self.patterns = saved
                    return False
        self.members = trial
        self.keys = all_keys
        if self.g_value is None and fresh:
            self.g_value = self.labels[fresh[0]]
        return True


class BudgetUp(Exception):
    pass


EXHAUSTIVE_LIMIT = 20_000


def extract_uniform(fam: Family, h: int, g, budget: int = 200_000) -> ExtractResult:
    """Find h indices on which the restriction is uniform and g constant.

    Small instances run the exhaustive scan over index combinations in
    lexicographic order, so the least witness is returned.  Large instances
    first try the identity fast path (families with u_b = b are uniform
    outright), then greedy growth inside label-and-shape classes, with the
    exhaustive scan as a budgeted fallback.
    """
    if not fam.is_total():
        raise ParameterError("extraction needs a total family")
    if h < 1:
        raise ParameterError("h must be >= 1")
    labels = _normalize_labels(fam, g)
    n_idx = len(fam.indices.elems)
    if h > n_idx:
        return ExtractResult(False, None, None, None, "none", 0,
                             {"reason": "candidate pool smaller than h",
                              "pool": n_idx, "h": h})
    if math.comb(n_idx, h) <= EXHAUSTIVE_LIMIT:
        return _exhaustive(fam, h, labels, budget)

    fast = _identity_fast_path(fam, h, labels)
    if fast is not None:
        return fast

    res = _greedy(fam, h, labels, budget)
    if res.ok:
        return res
    fallback = _exhaustive(fam, h, labels, budget, base_nodes=res.nodes_used)
    if not fallback.ok:
        # the scan grows no partial set; report the largest greedy one
        fallback.failure["best_partial"] = res.failure["best_partial"]
    return fallback


def _identity_fast_path(fam: Family, h: int,
                        labels: Mapping[Key, object]) -> Optional[ExtractResult]:
    """Families with u_b = b everywhere and one label are uniform on any
    index subset with r_m = m; the first h indices are the least witness."""
    vals = set(labels.values())
    if len(vals) != 1 or any(u.elems != b for b, u in fam.umap.items()):
        return None
    chosen = OrdSet(fam.indices.elems[:h])
    dim = fam.dim
    patterns = {m: m for m in _all_patterns(dim) if h >= 2 * dim - len(m)}
    cert = _certificate_from_patterns(dim, dim, patterns)
    return ExtractResult(True, chosen, cert, vals.pop(), "identity", 0)


def _greedy(fam: Family, h: int, labels: Mapping[Key, object],
            budget: int) -> ExtractResult:
    umap = fam.umap
    classes: dict[tuple, list[Key]] = {}
    for b in sorted(umap):
        u = umap[b].elems
        t = (len(u), repr(labels[b]), _index_pattern(b, u))
        classes.setdefault(t, []).append(b)
    order = sorted(classes, key=lambda t: (-len(classes[t]), repr(t)))
    nodes = 0
    best: list[int] = []
    for t in order:
        grower = _Grower(fam, labels, budget - nodes)
        pool = sorted({i for b in classes[t] for i in b})
        try:
            for gamma in pool:
                grower.try_add(gamma)
                if len(grower.members) == h:
                    break
        except BudgetUp:
            nodes += grower.nodes
            return ExtractResult(False, None, None, None, "greedy", nodes,
                                 {"reason": "budget", "best_partial": best})
        nodes += grower.nodes
        if len(grower.members) > len(best):
            best = list(grower.members)
        if len(grower.members) == h:
            rho = fam.umap[grower.keys[0]].otp if grower.keys else 0
            cert = _certificate_from_patterns(fam.dim, rho, grower.patterns)
            return ExtractResult(True, OrdSet(tuple(grower.members)), cert,
                                 grower.g_value, "greedy", nodes)
    return ExtractResult(False, None, None, None, "greedy", nodes,
                         {"reason": "no class grew to h", "best_partial": best})


def _exhaustive(fam: Family, h: int, labels: Mapping[Key, object],
                budget: int, base_nodes: int = 0) -> ExtractResult:
    nodes = base_nodes
    for combo in itertools.combinations(fam.indices.elems, h):
        nodes += 1
        if nodes > budget:
            return ExtractResult(False, None, None, None, "exhaustive", nodes,
                                 {"reason": "budget"})
        sub = OrdSet(combo)
        sub_fam = restrict(fam, sub)
        lab_vals = {labels[b] for b in sub_fam.umap}
        if len(lab_vals) > 1:
            continue
        outcome = verify_uniform(sub_fam)
        if isinstance(outcome, UniformCertificate):
            return ExtractResult(True, sub, outcome, lab_vals.pop() if lab_vals
                                 else None, "exhaustive", nodes)
    return ExtractResult(False, None, None, None, "exhaustive", nodes,
                         {"reason": "no subset works"})


# ---------------------------------------------------------------------------
# derivation and planted instances


def derive_subfamily(fam: Family, cert: UniformCertificate, m: int) -> Family:
    """Project a certified uniform family down to dimension m by slicing
    every attached set along the pattern of the initial segment {0..m-1}.

    The result must not depend on which superset key is used; a dependence
    is reported with both witnesses.  Keys near the top of the index set
    with no extension are absent from the derived family.
    """
    if not 0 <= m < fam.dim:
        raise ValueError(f"need 0 <= m < {fam.dim}")
    if not cert.is_full:
        raise ValueError(f"certificate undetermined at {cert.undetermined()}")
    r_m = cert.patterns[tuple(range(m))]
    derived: dict[Key, OrdSet] = {}
    witness: dict[Key, Key] = {}
    for b in fam.keys():
        a = b[:m]
        sl = fam.umap[b].select(r_m.elems)
        if a not in derived:
            derived[a] = sl
            witness[a] = b
        elif derived[a] != sl:
            raise ValueError(
                f"choice-dependent derivation at {a}: {witness[a]} gives "
                f"{derived[a].elems}, {b} gives {sl.elems}")
    return Family._derived(m, fam.indices, derived)


def make_planted_family(num_indices: int, planted_size: int, n: int,
                        seed: int) -> tuple[Family, dict[Key, int], OrdSet]:
    """A noisy family hiding one uniform subfamily on a seeded index set.

    Planted keys get u_b = b plus a fixed two-element tail (uniform, label
    7); everything else gets a uniform (n+2)-subset of a deliberately
    cramped pool of n+4 elements, so that noise classes collapse under
    pairwise checks, and a uniform label 0..5.  There are only C(n+4, 2)*6
    such (set, label) pairs, so they are built once and every key draws
    one, in combinations order, from the same seeded stream that placed
    the planted indices (planted keys ignore their draw).
    """
    if n < 1:
        raise ParameterError("n must be >= 1")
    if not 0 <= planted_size <= num_indices:
        raise ParameterError("need 0 <= planted size <= number of indices")
    rng = Random(f"plant:{seed}")
    indices = OrdSet(tuple(range(num_indices)))
    planted = OrdSet.of(rng.sample(range(num_indices), planted_size))
    base = num_indices + 10
    tail = (base, base + 1)
    rho = n + 2
    pool = range(base + 2, base + 2 + rho + 2)
    noise = [(u, label)
             for u in map(OrdSet, itertools.combinations(pool, rho))
             for label in range(6)]
    keys = list(itertools.combinations(range(num_indices), n))
    draws = rng.choices(noise, k=len(keys))
    umap: dict[Key, OrdSet] = dict(zip(keys, map(itemgetter(0), draws)))
    glabels: dict[Key, int] = dict(zip(keys, map(itemgetter(1), draws)))
    for b in itertools.combinations(planted.elems, n):
        umap[b] = OrdSet(b + tail)
        glabels[b] = 7
    return Family(n, indices, umap), glabels, planted
