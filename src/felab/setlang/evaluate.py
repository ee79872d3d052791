"""Evaluator: turns set expressions into LazySets up to an evaluation horizon.

Completeness bounds propagate so that every verdict downstream can tell
verified facts from horizon artifacts: quotient divides the bound, shift
subtracts, dilation multiplies, unions and intersections take the weakest
child bound, and divisor closures of unbounded sets promise nothing.

Each kind of set has one rule. A set {n : omega(n) in S} (see
analysis.level_set_of) is listed from the shared Omega table, complete to the
horizon, without evaluating its children, so "quotient divides the bound"
holds for the other sets only; with no positive level in S it is {1} or empty,
so finite. A set made from one child (dilate, quot, shift, down) is finite
when the child is, and exact only when the child is. Every finite set comes
from LazySet.of_finite, and every table of marks (up, complements, Omega-levels,
unpinned closures) is counted and listed by LazySet.of_marks.
"""

from __future__ import annotations

import bisect
from itertools import islice

from .. import arith
from ..errors import InputError, ResourceError
from . import analysis, nodes
from .lazyset import DEFAULT_HORIZON, MAX_ELEMENTS, SUBSET_CAP, LazySet, over_cap

# an unpinned closure is built up to this window first. Within it fs(exgamma())
# has 5173054 members, fs(fastgrowth()) 3200003 and fs(sidon()) all 8000000,
# so each exceeds MAX_ELEMENTS there (fs of primeseq meets the sieve cap first)
_CLOSURE_WINDOW = 4 * MAX_ELEMENTS
_FLIP = bytes.maketrans(b"\x00\x01", b"\x01\x00")


def evaluate(expr: nodes.SetExpr, horizon: int = DEFAULT_HORIZON) -> LazySet:
    """Evaluate a set expression to a LazySet complete up to the horizon where it can be."""
    if horizon < 1:
        raise InputError(f"horizon must be >= 1, got {horizon}")
    return _eval(expr, horizon)


def _eval(expr: nodes.SetExpr, h: int) -> LazySet:
    if isinstance(expr, nodes.AllNat):
        return LazySet(expr, range(1, h + 1), h, pred=lambda n: True)
    if isinstance(expr, nodes.Primes):
        return LazySet(expr, arith.primes_upto(h), h, pred=arith.is_prime)
    if isinstance(expr, (nodes.Level, nodes.Union, nodes.Inter, nodes.Quot)):
        levels = analysis.level_set_of(expr)
        if levels is not None:
            return _eval_levels(expr, levels, h)
    if isinstance(expr, nodes.Mult):
        k = expr.k
        return LazySet(expr, range(k, h + 1, k), h, pred=lambda n: n % k == 0)
    if isinstance(expr, nodes.Ap):
        a, d = expr.a, expr.d
        members = range(a, h + 1, d)
        return LazySet(expr, members, h, pred=lambda n: n >= a and (n - a) % d == 0)
    if isinstance(expr, nodes.Explicit):
        return LazySet.of_finite(expr, expr.elems)
    if isinstance(expr, nodes.Union):
        return _eval_union(expr, h)
    if isinstance(expr, nodes.Inter):
        return _eval_inter(expr, h)
    if isinstance(expr, nodes.Compl):
        return complement(_eval(expr.arg, h), expr, h)
    if isinstance(expr, nodes.Dilate):
        kid, k = _eval(expr.arg, h), expr.k
        return _of_child(expr, kid, [k * m for m in kid.elements()],
                         k * kid.complete_below + k - 1,
                         lambda n, p=kid.pred: n % k == 0 and p(n // k))
    if isinstance(expr, nodes.Quot):
        kid, n = _eval(expr.arg, h), expr.n
        return _of_child(expr, kid, [m // n for m in kid.elements() if m % n == 0],
                         kid.complete_below // n, lambda m, p=kid.pred: p(n * m))
    if isinstance(expr, nodes.Shift):
        kid, t = _eval(expr.arg, h), expr.t
        return _of_child(expr, kid, [m - t for m in kid.elements() if m > t],
                         max(kid.complete_below - t, 0), lambda m, p=kid.pred: p(m + t))
    if isinstance(expr, nodes.Up):
        return _eval_up(expr, h)
    if isinstance(expr, nodes.Down):
        kid = _eval(expr.arg, h)
        divs = set()
        for m in kid.elements():
            divs.update(arith.divisors(m))
        # a divisor closure promises nothing past what it lists
        return _of_child(expr, kid, sorted(divs), 0, None)
    if isinstance(expr, (nodes.Fs, nodes.Fp)):
        return _eval_fsfp(expr, h)
    if isinstance(expr, nodes.Pseudo):
        from .. import constructions

        kids = [_eval(c, h) for c in expr.chain]
        return LazySet.of_finite(expr, constructions.pseudointersection(kids, expr.count, h))
    if isinstance(expr, nodes.Construct):
        from .. import constructions

        return constructions.build_fixture(expr, h)
    raise InputError(f"cannot evaluate node {type(expr).__name__}")


def _of_child(expr: nodes.SetExpr, kid: LazySet, members: list[int], bound: int,
              pred) -> LazySet:
    """A set made from one child: finite when the child is; otherwise complete to
    bound, and exact (with pred) only when the child is exact."""
    if kid.finite:
        return LazySet.of_finite(expr, members)
    return LazySet(expr, members, bound, pred=pred if kid.pred is not None else None)


def _eval_levels(expr: nodes.SetExpr, levels: frozenset[int], h: int) -> LazySet:
    """{n : omega(n) in levels}, complete to h: one pass over the shared Omega table,
    whatever the expression's children (a quotient's bound is not divided). With
    no positive level it is {1} or empty, so finite; a horizon past the sieve cap
    is refused all the same."""
    if not any(levels):
        if h > arith.DEFAULT_SIEVE_CAP:
            arith.ensure_sieve(h)
        return LazySet.of_finite(expr, (1,) if levels else ())
    table = memoryview(arith.omega_upto(h))[1:h + 1].tobytes()
    marks = table.translate(bytes(i in levels for i in range(256)))
    return LazySet.of_marks(expr, marks, h, pred=lambda m: arith.omega(m) in levels)


def _eval_union(expr: nodes.Union, h: int) -> LazySet:
    kids = [_eval(a, h) for a in expr.args]
    members = set()
    for kid in kids:
        members.update(kid.elements())
    if all(kid.finite for kid in kids):
        return LazySet.of_finite(expr, members)
    pred = None
    if all(kid.pred is not None for kid in kids):
        preds = tuple(kid.pred for kid in kids)
        pred = lambda n: any(p(n) for p in preds)
    # a finite kid knows all its members, so it limits nothing below h
    bound = min(h if kid.finite else kid.complete_below for kid in kids)
    return LazySet(expr, sorted(members), bound, pred=pred)


def _eval_inter(expr: nodes.Inter, h: int) -> LazySet:
    kids = [_eval(a, h) for a in expr.args]
    # the smallest finite kid if there is one, else the smallest kid
    base = min(kids, key=lambda k: (not k.finite, k.count_known()))
    others = [k for k in kids if k is not base]
    # a kid with a predicate decides membership everywhere, one without only to its bound
    bound = min((k.complete_below for k in kids if k.pred is None), default=h)
    base.extend_to(bound)
    elems = base.elements()
    # up to every other kid's bound, each decides by its list: one set intersection
    cut = bisect.bisect_right(elems, min(o.complete_below for o in others))
    members = sorted(set(islice(elems, cut)).intersection(*(o.elements() for o in others)))
    undecided = False
    for x in islice(elems, cut, None):
        verdicts = [o.contains(x) for o in others]
        if any(v is False for v in verdicts):
            continue
        if all(v is True for v in verdicts):
            members.append(x)
        else:
            undecided = True
    if base.finite and not undecided:
        return LazySet.of_finite(expr, members)
    pred = None
    if all(kid.pred is not None for kid in kids):
        preds = tuple(kid.pred for kid in kids)
        pred = lambda n: all(p(n) for p in preds)
    return LazySet(expr, members, bound, pred=pred)


def complement(kid: LazySet, expr, h: int) -> LazySet:
    """Complement of kid, complete to h if kid is EXACT, else to kid's bound: the
    flipped marks of kid's members. kid is never extended: the set A-IP*
    complements is shared with every other checker.
    """
    p = kid.pred
    bound = h if p is not None else min(kid.complete_below, h)
    marks = kid.member_marks(bound)[1:].translate(_FLIP)
    return LazySet.of_marks(expr, marks, bound, pred=None if p is None else lambda n: not p(n))


def _eval_up(expr: nodes.Up, h: int) -> LazySet:
    kid = _eval(expr.arg, h)
    elems = kid.elements(h)
    # every multiple of the least element is a member: refuse before the marks exist
    if elems and h // elems[0] > MAX_ELEMENTS:
        raise over_cap()
    marks = bytearray(h)  # marks[n - 1] for n
    minimal = []  # the members no smaller member divides; their multiples are the set
    for a in elems:
        if not marks[a - 1]:
            marks[a - 1::a] = b"\x01" * (h // a)
            minimal.append(a)
    pred = None
    if kid.finite:
        # every member is listed, also those past h, so no n needs its divisors
        for a in kid.elements()[len(elems):]:
            if all(a % b for b in minimal):
                minimal.append(a)
        pred = lambda n: any(n % a == 0 for a in minimal)
    elif kid.pred is not None:
        p = kid.pred
        pred = lambda n: any(p(d) for d in arith.divisors(n))
    return LazySet.of_marks(expr, marks, min(kid.complete_below, h), pred=pred)


def _eval_fsfp(expr, h: int) -> LazySet:
    from .. import constructions

    additive = isinstance(expr, nodes.Fs)
    seq = expr.seq
    if isinstance(seq, nodes.ExplicitSeq):
        _check_pinned(len(seq.values))
        terms, pinned = list(seq.values), True
    else:
        terms, pinned = constructions.sequence_terms(seq.rule, seq.params, h, _check_pinned)
    if pinned:
        return LazySet.of_finite(expr, _closure_all(terms, additive))
    # over the cap within the window, a larger h is refused before its table exists;
    # the window's table is dropped once its marks are counted
    if h > _CLOSURE_WINDOW and (
            _closure_upto(terms, _CLOSURE_WINDOW, additive).count(1) > MAX_ELEMENTS):
        raise over_cap()
    return LazySet.of_marks(expr, _closure_upto(terms, h, additive), h)


def _check_pinned(count: int) -> None:
    if 2 ** count > SUBSET_CAP:
        raise ResourceError(f"closure of {count} pinned terms exceeds the subset cap "
                            f"{SUBSET_CAP}; use an unpinned sequence or fewer terms")


def _closure_all(terms, additive: bool) -> set[int]:
    """The sums (or products) of the nonempty sets of distinct terms."""
    closure: set[int] = set()
    for t in terms:
        closure |= {c + t if additive else c * t for c in closure}
        closure.add(t)
    return closure


def _closure_upto(terms, h: int, additive: bool) -> bytearray:
    """Marks of the sums (or products) <= h of distinct ascending terms: marks[n - 1]
    is 1 when n is one, as LazySet.of_marks reads them.

    reach[v] marks the v reached so far, starting from the empty sum 0 (or the
    empty product 1). Each term ORs the old table into itself shifted (or
    scaled) by the term; both slices are read before the write, so a term is
    used at most once, and the OR runs on whole ints at C speed.
    """
    reach = bytearray(h + 1)
    reach[0 if additive else 1] = 1
    for t in terms:
        # a term only lands on cells >= t, so once those are all marked no
        # later term adds anything
        if t > h or reach.find(0, t) < 0:
            break
        cells = slice(t, None) if additive else slice(t, None, t)
        old = reach[:h + 1 - t] if additive else reach[1:h // t + 1]
        merged = int.from_bytes(old, "little") | int.from_bytes(reach[cells], "little")
        reach[cells] = merged.to_bytes(len(old), "little")
    if not additive:
        # the closure only grows, so the final size decides the cap
        if reach.count(1) > SUBSET_CAP:
            raise ResourceError(
                f"product closure exceeds the subset cap {SUBSET_CAP}; lower the horizon")
        reach[1] = 1 in terms
    del reach[0]
    return reach
