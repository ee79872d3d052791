"""Bounded view of a set of naturals with three-valued membership.

A LazySet knows a sorted list of members and the bound `complete_below` up to
which that list is exhaustive, so membership at or below the bound is a lookup
in a set of the members, built on the first lookup. EXACT sets additionally
carry a total membership predicate, which answers every query above the bound;
PREFIX sets answer True for listed members there and unknown (None) otherwise.
Reading the members up to a bound completes an EXACT set to that bound first,
so no reader has to grow a set before it reads. Known members may legitimately
sit above the bound: generated fixtures keep all their elements even past the
evaluation horizon, because discarding them would only discard sound witnesses.
"""

from __future__ import annotations

import bisect
from itertools import compress
from typing import Callable, Collection, Sequence

from ..errors import ResourceError

# the evaluation horizon when none is given, and the caps on what one evaluation
# or one search may build
DEFAULT_HORIZON = 100_000
MAX_ELEMENTS = 2_000_000
SUBSET_CAP = 200_000


def over_cap(count: int | None = None) -> ResourceError:
    """The refusal of a set over MAX_ELEMENTS members; count is their number when known."""
    many = f"more than {MAX_ELEMENTS}" if count is None else count
    return ResourceError(
        f"evaluation produced {many} elements, over the cap {MAX_ELEMENTS}; lower the horizon")


class LazySet:
    __slots__ = ("expr", "_members", "_member_set", "complete_below", "pred", "finite")

    def __init__(self, expr, members: Sequence[int], complete_below: int,
                 pred: Callable[[int], bool] | None = None):
        """members are ascending and distinct; a list is kept as it is, not copied."""
        if len(members) > MAX_ELEMENTS:
            raise over_cap(len(members))
        self.expr = expr
        self._members = members if isinstance(members, list) else list(members)
        self._member_set: set[int] | None = None
        self.complete_below = complete_below
        self.pred = pred
        self.finite = False

    @classmethod
    def of_finite(cls, expr, members: Collection[int]) -> LazySet:
        """The finite EXACT set of exactly these members, complete up to the largest."""
        ls = cls(expr, sorted(set(members)), 0)
        ls.finite = True
        ls.complete_below = ls.max_known()
        ls.pred = ls.member_set().__contains__
        return ls

    @classmethod
    def of_marks(cls, expr, marks: bytes, complete_below: int,
                 pred: Callable[[int], bool] | None = None) -> LazySet:
        """The set of the n with marks[n - 1] == 1; the cap is met before any member is listed."""
        count = marks.count(1)
        if count > MAX_ELEMENTS:
            raise over_cap(count)
        return cls(expr, list(compress(range(1, len(marks) + 1), marks)), complete_below, pred)

    @property
    def is_exact(self) -> bool:
        return self.pred is not None

    def contains(self, n: int) -> bool | None:
        """True/False when decidable, None when unknown."""
        if n < 1:
            return False
        if n <= self.complete_below:
            # inline, not through member_set: this is the hot path
            members = self._member_set
            if members is None:
                members = self.member_set()
            return n in members
        if self.pred is not None:
            return bool(self.pred(n))
        return True if n in self.member_set() else None

    def member_set(self) -> set[int]:
        """The listed members as a set, built on the first lookup: many sets are only
        ever listed. Callers do not write to it."""
        if self._member_set is None:
            self._member_set = set(self._members)
        return self._member_set

    def elements(self, bound: int | None = None) -> list[int]:
        """The members up to bound: every one for an EXACT set, whose list first grows
        to bound, and the listed ones for a PREFIX set. With no bound, every listed
        member, also those past complete_below. The list may be the set's own, so
        callers do not write to it."""
        if bound is None:
            return self._members
        self.extend_to(bound)
        idx = bisect.bisect_right(self._members, bound)
        return self._members if idx == len(self._members) else self._members[:idx]

    def member_marks(self, top: int) -> bytearray:
        """One byte per n in [0, top], index n for n: marks[n] is 1 exactly when
        contains(n) is True. The member list is read, never grown: an infinite EXACT
        set asks its predicate above its bound, in one pass."""
        exact = self.pred is not None and not self.finite
        lim = min(top, self.complete_below) if exact else top
        marks = bytearray(top + 1)
        for n in self.elements(lim):
            marks[n] = 1
        if exact:
            marks[lim + 1:] = bytes(map(self.pred, range(lim + 1, top + 1)))
        return marks

    def extend_to(self, bound: int) -> None:
        """Grow the enumeration of an EXACT set so completeness reaches `bound`."""
        if bound <= self.complete_below or self.pred is None:
            return
        if self.finite:
            # the member list already is the whole set
            self.complete_below = bound
            return
        pred = self.pred
        fresh = [n for n in range(self.complete_below + 1, bound + 1) if pred(n)]
        if len(self._members) + len(fresh) > MAX_ELEMENTS:
            raise ResourceError(
                f"enumerating {self.describe_short()} to {bound} exceeds the "
                f"element cap {MAX_ELEMENTS}")
        self.member_set().update(fresh)
        self._members = sorted(self._member_set)
        self.complete_below = bound

    def max_known(self) -> int:
        return self._members[-1] if self._members else 0

    def count_known(self) -> int:
        return len(self._members)

    def describe_short(self) -> str:
        from .nodes import unparse
        return unparse(self.expr)

    def __repr__(self) -> str:
        head = ",".join(str(m) for m in self._members[:8])
        more = ",..." if len(self._members) > 8 else ""
        return f"LazySet({self.describe_short()}: {{{head}{more}}} {'EXACT' if self.is_exact else 'PREFIX'})"
