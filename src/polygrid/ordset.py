"""Finite strictly increasing sets of naturals with positional indexing.

The core value type for everything downstream: a set a is read as the
function eta -> a(eta) listing its elements in increasing order, so
subsets of positions can be pulled back to subsets of elements.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator

# the most entries one run may tabulate or enumerate
CAP = 2 ** 20


class ParameterError(ValueError):
    """A value from outside the program (a flag, an input file) outside
    its domain, rejected by the code that owns the parameter.  The CLI
    exits 64 on it; checks on internal invariants raise plain ValueError."""


def capped(counts: Iterable[int], bound: int = CAP) -> int:
    """The last of a nondecreasing run of partial counts, or the first one
    past bound.  Stops there, so a lazily generated run (say, a generator
    of powers k ** j) never forms a count much past the bound.  An empty
    run counts 0."""
    count = 0
    for count in counts:
        if count > bound:
            break
    return count


@dataclass(frozen=True)
class OrdSet:
    """Immutable strictly increasing tuple of naturals."""

    elems: tuple[int, ...] = ()

    def __post_init__(self):
        for x in self.elems:
            if not isinstance(x, int) or x < 0:
                raise ValueError(f"not a natural: {x!r}")
        if any(a >= b for a, b in zip(self.elems, self.elems[1:])):
            raise ValueError(f"not strictly increasing: {self.elems}")

    @classmethod
    def of(cls, xs: Iterable[int]) -> "OrdSet":
        """Build from any iterable of distinct naturals, sorting first."""
        t = tuple(sorted(xs))
        if len(t) != len(set(t)):
            raise ValueError("duplicate elements")
        return cls(t)

    @property
    def otp(self) -> int:
        return len(self.elems)

    def at(self, eta: int) -> int:
        """The unique element with exactly eta predecessors in the set."""
        if not 0 <= eta < len(self.elems):
            raise IndexError(f"position {eta} out of range for otp {len(self.elems)}")
        return self.elems[eta]

    def __contains__(self, x: int) -> bool:
        return x in self.elems

    def __iter__(self) -> Iterator[int]:
        return iter(self.elems)

    def __len__(self) -> int:
        return len(self.elems)

    def to_json(self) -> list[int]:
        return list(self.elems)

    @classmethod
    def from_json(cls, data: list[int]) -> "OrdSet":
        return cls(tuple(data))


def aligned(a: OrdSet, b: OrdSet) -> bool:
    """Same order type, and every common element occupies the same position."""
    if a.otp != b.otp:
        return False
    pos_b = {v: i for i, v in enumerate(b.elems)}
    for i, v in enumerate(a.elems):
        j = pos_b.get(v)
        if j is not None and j != i:
            return False
    return True


def rset(a: OrdSet, b: OrdSet) -> OrdSet:
    """Positions where two aligned sets carry the same element.

    Postcondition (tested): the elements of a at those positions, those
    of b at those positions and the common elements of a and b agree.
    """
    if not aligned(a, b):
        raise ValueError("sets are not aligned")
    return OrdSet(tuple(i for i in range(a.otp) if a.elems[i] == b.elems[i]))
