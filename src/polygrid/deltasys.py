"""Uniform higher-dimensional sunflower detection and extraction.

A family attaches a finite set u_b to every n-sized subset b of an index
set.  Uniformity asks for a single order type and, for every agreement
pattern m, a single position set r_m governing how u_a and u_b overlap
whenever a and b are aligned with agreement exactly m; the patterns must
respect intersection.  The extractor returns the least index set, in
lexicographic order, on which the restricted family is uniform and a
supplied label is constant, by one backtracking search over indices.
"""

from __future__ import annotations

import itertools
import math
from collections import defaultdict
from dataclasses import dataclass, field
from operator import itemgetter
from random import Random
from typing import Mapping, Optional, Union

# aligned and rset are the reference definitions `agreement` computes; they
# stay bound here because bench/tracing.py counts their calls in this module
from .ordset import (  # noqa: F401
    CAP, OrdSet, ParameterError, aligned, capped, rset)

Key = tuple[int, ...]


@dataclass
class Family:
    """dim-sized index subsets mapped to their attached sets.

    umap keys are increasing tuples over the index set; a family may be
    partial, totality is checked where an operation needs it.  The
    constructor checks the keys once; restrictions skip that (`_derived`).
    """

    dim: int
    indices: OrdSet
    umap: dict[Key, OrdSet]

    def __post_init__(self):
        if self.dim < 0:
            raise ValueError("dimension must be >= 0")
        members = set(self.indices.elems)
        for b in self.umap:
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

    @classmethod
    def from_json(cls, data: dict) -> "Family":
        umap = {
            _key_from_str(key): OrdSet(tuple(vals))
            for key, vals in data["umap"].items()
        }
        return cls(data["dim"], OrdSet(tuple(data["indices"])), umap)


def _key_from_str(s: str) -> Key:
    """Comma-separated canonical decimals (ASCII digits, no leading zero,
    so that no two strings name one key); "" is the dimension-0 key."""
    parts = s.split(",") if s else []
    if not all(x.isascii() and x.isdigit() and str(int(x)) == x
               for x in parts):
        raise ValueError(f"key {s!r} is not comma-separated canonical "
                         "decimals")
    return tuple(map(int, parts))


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


def _lattice_failure(patterns: Mapping[Key, Key]) -> Optional[tuple[Key, Key, Key]]:
    """First (m0, m1, meet) among determined patterns whose determined meet
    is not the intersection of their position sets; None if there is none."""
    for m0, m1 in itertools.combinations_with_replacement(sorted(patterns), 2):
        meet = tuple(sorted(set(m0) & set(m1)))
        if meet in patterns and set(patterns[meet]) != (
                set(patterns[m0]) & set(patterns[m1])):
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
    bad = _lattice_failure(found)
    if bad is not None:
        m0, m1, meet = bad
        return Violation("lattice", (m0, m1), {"meet": meet, "r_meet": found[meet]})
    return _certificate(fam.dim, rho, found)


def _certificate(dim: int, rho: int,
                 patterns: Mapping[Key, Key]) -> UniformCertificate:
    """The certificate of the patterns aligned pairs determine.

    Distinct keys never agree in full, so the full pattern is rho's; its
    positions contain every other pattern's, so it passes the lattice
    clause with any of them and the checks leave it out.
    """
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


class _Ends(dict):
    """ends[prefix][label] holds, as a bit mask over positions in idx, the
    last indices y of the keys prefix + (y,) that have that label.  A
    prefix's row is filled on first use, from the keys of the total family
    that extend it by an index above its last."""

    def __init__(self, idx: tuple[int, ...], labels: Mapping):
        super().__init__()
        self.idx, self.labels = idx, labels
        self.pos = {x: i for i, x in enumerate(idx)}

    def __missing__(self, prefix: Key) -> dict[object, int]:
        idx, labels = self.idx, self.labels
        row = self[prefix] = defaultdict(int)
        for i in range(self.pos[prefix[-1]] + 1 if prefix else 0, len(idx)):
            row[labels[prefix + (idx[i],)]] |= 1 << i
        return row


def extract_uniform(fam: Family, h: int, labels: Mapping,
                    budget: int = 200_000) -> ExtractResult:
    """The least h indices on which the restriction is uniform and the
    labels, a mapping from each key to its label, are constant: the first
    h-subset in lexicographic order with one label on its keys that
    `verify_uniform` accepts.

    The search adds indices in increasing order and backtracks.  Each
    clause (one label, one order type, aligned fibers, one position set
    per pattern, the lattice clause) holds on every subset of a set it
    holds on, so no witness extends a failed prefix.  A node is one index
    tried; past `budget` nodes the search stops with reason "budget".  A
    failure reports the first largest index set admitted, `best_partial`.
    """
    if not fam.is_total():
        raise ParameterError("extraction needs a total family")
    dim = fam.dim
    if h < max(1, dim):  # below dim, no key lies inside an h-set
        raise ParameterError(
            f"h = {h} must be >= 1 and >= the family's dimension {dim}")
    if budget < 0:
        raise ParameterError(f"budget = {budget} must be >= 0")
    idx = fam.indices.elems
    umap = fam.umap
    if not umap.keys() <= labels.keys():
        missing = next(b for b in umap if b not in labels)
        raise ParameterError(f"labels miss key {missing}")
    # index sets are bit masks over positions in idx; the candidates for
    # the next index, whose closing keys must all have the witness's
    # label, narrow by one intersection with an _Ends row per admitted index
    ends = _Ends(idx, labels)
    if h > len(idx):
        return ExtractResult(False, None, None, None, "none", 0,
                             {"reason": "candidate pool smaller than h",
                              "pool": len(idx), "h": h})
    if dim == 0:  # the one key () lies in every index set
        cert = _certificate(0, umap[()].otp, {})
        return ExtractResult(True, OrdSet(idx[:h]), cert, labels[()],
                             "exhaustive", 0)

    def heads(prefix: Key) -> int:
        """The y of first keys prefix + (y,) with h - dim more y' above y
        in y's label class, which a witness needs."""
        out = 0
        for ys in ends[prefix].values():
            for _ in range(h - dim):
                ys ^= 1 << ys.bit_length() >> 1  # the top one, if any
            out |= ys
        return out

    keys: list[Key] = []
    patterns: dict[Key, Key] = {}
    lab = None
    best: Key = ()
    nodes = 0
    # a frame per admitted index: the index set so far, the untried
    # candidates for the next index and how many of them a witness needs,
    # and what admitting the index added to keys and patterns
    frames = [[(), (1 << len(idx)) - 1, h, 0, []]]
    while frames:
        frame = frames[-1]
        chosen, rest, need, nkeys, added = frame
        if rest.bit_count() < need:
            frames.pop()
            del keys[nkeys:]
            for m in added:
                del patterns[m]
            continue
        low = rest & -rest
        frame[1] = rest = rest ^ low
        x = idx[low.bit_length() - 1]
        nodes += 1
        if nodes > budget:
            return ExtractResult(False, None, None, None, "exhaustive", nodes,
                                 {"reason": "budget", "best_partial": list(best)})
        grown = chosen + (x,)
        k = len(grown)
        need = h - k
        fresh: list[Key] = []
        nxt = rest
        if k == dim - 1:
            nxt, need = heads(grown), 1
        elif k == dim:
            # the first key fixes the label; later keys close on each of
            # its (dim-1)-subsets
            fresh = [grown]
            lab = labels[grown]
            nxt = -(low << 1)
            for p in itertools.combinations(grown, dim - 1):
                nxt &= ends[p].get(lab, 0)
        elif k > dim:
            fresh = [c + (x,) for c in itertools.combinations(chosen, dim - 1)]
            # the new prefixes are the (dim-1)-sets that end in x
            for c in itertools.combinations(chosen, dim - 2) if dim > 1 else ():
                nxt &= ends[c + (x,)].get(lab, 0)
        if nxt.bit_count() < need:
            continue
        added = _close_keys(fresh, keys, umap, patterns)
        if added is None:
            continue
        frames.append([grown, nxt, need, len(keys), added])
        keys.extend(fresh)
        if k > len(best):
            best = grown
            if k == h:
                rho = len(umap[grown[:dim]].elems)
                return ExtractResult(True, OrdSet(grown),
                                     _certificate(dim, rho, patterns), lab,
                                     "exhaustive", nodes)
    return ExtractResult(False, None, None, None, "exhaustive", nodes,
                         {"reason": "no subset works", "best_partial": list(best)})


def _close_keys(fresh: list[Key], keys: list[Key], umap: Mapping[Key, OrdSet],
                patterns: dict[Key, Key]) -> Optional[list[Key]]:
    """Check every aligned pair a fresh key makes with an earlier key
    (aligned fibers, the pattern so far), then the lattice clause; return
    the new patterns, or None with them undone.  Aligned fibers share an
    order type and aligned pairs connect all keys of a set of more than
    dim indices, so the order type needs no check of its own."""
    added: list[Key] = []
    pairs = ((a, b) for i, b in enumerate(fresh)
             for a in itertools.chain(keys, fresh[:i]))
    for a, b in pairs:
        m = agreement(a, b)
        if m is None:
            continue
        r = agreement(umap[a].elems, umap[b].elems)
        if r is None or patterns.get(m, r) != r:
            break
        if m not in patterns:
            patterns[m] = r
            added.append(m)
    else:
        if not added or _lattice_failure(patterns) is None:
            return added
    for m in added:
        del patterns[m]
    return None


# ---------------------------------------------------------------------------
# planted instances


def check_dimension(dim: int) -> None:
    """Refuse a dimension whose 2^dim patterns exceed CAP: a certificate
    tabulates every one of them."""
    if capped(2 ** j for j in range(dim + 1)) > CAP:
        raise ParameterError(
            f"dimension {dim} has 2^{dim} patterns, over the cap of {CAP}")


def make_planted_family(num_indices: int, planted_size: int, n: int,
                        seed: int) -> tuple[Family, dict[Key, int], OrdSet]:
    """A noisy family hiding one uniform subfamily on a seeded index set.

    Planted keys get u_b = b plus a fixed two-element tail (uniform, label
    7); everything else gets a uniform (n+2)-subset of a deliberately
    cramped pool of n+4 elements, so that noise classes collapse under
    pairwise checks, and a uniform label 0..5.  There are only C(n+4, 2)*6
    such (set, label) pairs, so they are built once and every key draws
    one, in combinations order, from the same seeded stream that placed
    the planted indices (planted keys ignore their draw).  Raises
    ParameterError, before any draw, for more than CAP keys or patterns.
    """
    if n < 1:
        raise ParameterError("n must be >= 1")
    check_dimension(n)
    if not 0 <= planted_size <= num_indices:
        raise ParameterError("need 0 <= planted size <= number of indices")
    # C(num_indices, j) grows with j up to min(n, num_indices - n)
    if capped(math.comb(num_indices, j)
              for j in range(min(n, num_indices - n) + 1)) > CAP:
        raise ParameterError(
            f"a planted family of the {n}-subsets of {num_indices} "
            f"indices would exceed the cap of {CAP} keys")
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
    # keys are combinations of range(num_indices): valid by construction
    return Family._derived(n, indices, umap), glabels, planted
