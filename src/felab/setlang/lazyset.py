"""Bounded view of a set of naturals with three-valued membership.

A LazySet holds a table of marks, marks[n] for n up to the table's top, which no
evaluation grows past its horizon, and the sorted tuple `past` of the members it
lists past the top; membership up to the bound `complete_below` is decided.
EXACT sets carry a total membership predicate, which answers past the top;
PREFIX sets answer True for listed members above the bound and unknown (None)
otherwise. Every member a set knows past its table is listed, but for one kind:
a set with a `stride` lists none up to its bound, where its members are the
multiples of the stride that its predicate accepts (see evaluate's dilation).
Members are listed only when a reader asks, and reading them up to a bound
completes an EXACT set to it first. Generated fixtures keep their members past
the horizon: they are sound witnesses.
"""

from __future__ import annotations

import bisect
import math
from itertools import compress, islice, takewhile
from typing import Callable, Collection, Iterator, Sequence

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
    __slots__ = ("expr", "marks", "top", "past", "stride", "_members", "complete_below", "pred",
                 "finite")

    def __init__(self, expr, marks: bytearray | Sequence[int], complete_below: int,
                 pred: Callable[[int], bool] | None = None, past: Sequence[int] = (),
                 stride: int = 0):
        """The set of the n with marks[n] == 1 (marks[0] is 0) and of the ascending
        members past, all past the table. Given ascending distinct members for marks
        instead, those up to complete_below make the table and the rest are listed.
        The cap is met by counting: nothing is listed until a reader asks."""
        if not isinstance(marks, bytearray):
            cut = bisect.bisect_right(marks, complete_below)
            table = bytearray(complete_below + 1)
            for n in islice(marks, cut):
                table[n] = 1
            marks, past = table, marks[cut:]
        count = marks.count(1) + len(past)
        if count > MAX_ELEMENTS:
            raise over_cap(count)
        self.expr, self.marks, self.top, self.past = expr, marks, len(marks) - 1, tuple(past)
        self.complete_below, self.pred, self.stride = complete_below, pred, stride
        self.finite, self._members = False, ()  # a tuple until listed

    @classmethod
    def of_finite(cls, expr, members: Collection[int], top: float = math.inf) -> LazySet:
        """The finite EXACT set of exactly these members, complete up to the largest;
        its table stops at top, past which the members are listed."""
        listed = sorted(set(members))
        cut = bisect.bisect_right(listed, top)
        return cls(expr, listed, listed[cut - 1] if cut else 0).as_finite()

    def as_finite(self) -> LazySet:
        """Mark this set finite, its table cut at its last member: complete up to the
        largest member, and its predicate a lookup among them."""
        self.top = max(self.marks.rfind(1), 0)
        del self.marks[self.top + 1:]
        self.finite, self.complete_below = True, self.max_known()
        self.pred = frozenset(self.elements()).__contains__
        return self

    @property
    def is_exact(self) -> bool:
        return self.pred is not None

    def contains(self, n: int) -> bool | None:
        """True/False when decidable, None when unknown."""
        if n < 1:
            return False
        if n <= self.top:
            return self.marks[n] == 1
        if self.pred is not None:
            return bool(self.pred(n))
        i = bisect.bisect_left(self.past, n)
        if i < len(self.past) and self.past[i] == n:
            return True
        return False if n <= self.complete_below else None

    def elements(self, bound: int | None = None) -> list[int]:
        """The members up to bound: every one for an EXACT set, which first grows to
        bound, and the known ones for a PREFIX set; with no bound, every member the set
        knows. The list is kept, so callers do not write to it."""
        if bound is not None:
            self.extend_to(bound)
        if not isinstance(self._members, list):
            self._members = list(self.iter_members())
        if bound is None:
            return self._members
        return self._members[:bisect.bisect_right(self._members, bound)]

    def iter_members(self, bound: float = math.inf, after: int = 0) -> Iterator[int]:
        """The members the set knows in (after, bound], read lazily with the set left as
        it is: the table's, those at the multiples of the stride up to complete_below,
        then the listed ones."""
        yield from compress(range(after + 1, min(bound, self.top) + 1), self.marks[after + 1:])
        if self.stride:
            s = self.stride
            yield from filter(self.pred, range(max(after, self.top) // s * s + s,
                                               min(bound, self.complete_below) + 1, s))
        yield from takewhile(bound.__ge__, self.past[bisect.bisect_right(self.past, after):])

    def member_marks(self, top: int) -> bytearray:
        """One byte per n in [0, top], index n for n: marks[n] is 1 exactly when
        contains(n) is True. A copy of the table, grown to top as contains answers;
        a set with a stride first tables what it walks up to top, once for every reader."""
        if self.stride:
            self._grow(min(top, self.complete_below))
        marks = self.marks[:top + 1]
        if top > self.top:
            if self.pred is not None and not self.finite:
                marks += bytes(map(self.pred, range(self.top + 1, top + 1)))
            else:
                marks.extend(bytes(top - self.top))
                for n in takewhile(top.__ge__, self.past):
                    marks[n] = 1
        return marks

    def _grow(self, top: int) -> None:
        # table an infinite EXACT set up to top by its predicate, asked only at the
        # multiples of its stride, where all its members past the table lie
        if top > self.top:
            s = self.stride or 1
            first = (self.top // s + 1) * s
            self.marks.extend(bytes(top - self.top))
            self.marks[first::s] = bytes(map(self.pred, range(first, top + 1, s)))
            self.top, self.past = top, self.past[bisect.bisect_right(self.past, top):]

    def extend_to(self, bound: int) -> None:
        """Grow an EXACT set so completeness reaches bound: its table, when that reaches
        the old bound, else its listed members. A finite set knows all its members."""
        if bound <= self.complete_below or self.pred is None:
            return
        if not self.finite:
            if self.top >= self.complete_below:
                self._grow(bound)
            else:
                fresh = filter(self.pred, range(self.complete_below + 1, bound + 1))
                self.past = tuple(sorted({*self.iter_members(after=self.top), *fresh}))
                self.stride = 0
            if isinstance(self._members, list):
                self._members = list(self.iter_members())
        if self.count_known() > MAX_ELEMENTS:
            raise ResourceError(f"enumerating {self.describe_short()} to {bound} exceeds the "
                                f"element cap {MAX_ELEMENTS}")
        self.complete_below = bound

    def max_known(self) -> int:
        return self.past[-1] if self.past else max(self.marks.rfind(1), 0)

    def count_known(self) -> int:
        return self.marks.count(1) + sum(1 for _ in self.iter_members(after=self.top))

    def describe_short(self) -> str:
        from .nodes import unparse
        return unparse(self.expr)

    def __repr__(self) -> str:
        members = self.elements()
        head = ",".join(str(m) for m in members[:8])
        more = ",..." if len(members) > 8 else ""
        return f"LazySet({self.describe_short()}: {{{head}{more}}} {'EXACT' if self.is_exact else 'PREFIX'})"
