"""Evaluator: turns set expressions into LazySets up to an evaluation horizon.

Completeness bounds propagate so that every verdict downstream can tell
verified facts from horizon artifacts: quotient divides the bound, shift
subtracts, dilation multiplies, unions and intersections take the weakest
child bound, and divisor closures of unbounded sets promise nothing.

Each kind of set has one rule. A set {n : omega(n) in S} (see
analysis.level_set_of) is read from the shared Omega table, complete to the
horizon, without evaluating its children, so "quotient divides the bound"
holds for the other sets only; with no positive level in S it is {1} or empty,
so finite. A set made from one child (dilate, quot, shift, down) is finite
when the child is, and exact only when the child is. Every set but a listed
fixture or divisor closure is built as a table of marks by bytes operations on
its children's tables, no longer than the horizon, and counted, not listed.
"""

from __future__ import annotations

import math
from itertools import compress

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
    if isinstance(expr, (nodes.AllNat, nodes.Mult, nodes.Ap)):
        # N is ap(1,1) and mult(k) is ap(k,k): one strided write
        a, d = ((1, 1) if isinstance(expr, nodes.AllNat) else (expr.k, expr.k)
                if isinstance(expr, nodes.Mult) else (expr.a, expr.d))
        count = len(range(a, h + 1, d))
        if count > MAX_ELEMENTS:
            raise over_cap(count)  # before the table exists
        marks = bytearray(h + 1)
        marks[a::d] = b"\x01" * count
        pred = ((lambda n: True) if a == d == 1 else (lambda n: n % d == 0) if a == d
                else lambda n: n >= a and (n - a) % d == 0)
        return LazySet(expr, marks, h, pred=pred)
    if isinstance(expr, nodes.Primes):
        return LazySet(expr, arith.ensure_sieve(h).prime_marks[:h + 1], h, pred=arith.is_prime)
    if isinstance(expr, (nodes.Level, nodes.Union, nodes.Inter, nodes.Quot)):
        levels = analysis.level_set_of(expr)
        if levels is not None:
            return _eval_levels(expr, levels, h)
    if isinstance(expr, nodes.Explicit):
        return LazySet.of_finite(expr, expr.elems, h)
    if isinstance(expr, (nodes.Union, nodes.Inter)):
        return _eval_boolean(expr, h)
    if isinstance(expr, nodes.Compl):
        return complement(_eval(expr.arg, h), expr, h)
    if isinstance(expr, nodes.Dilate):
        kid, k = _eval(expr.arg, h), expr.k
        top = min(h, k * kid.top + k - 1)
        marks = bytearray(top + 1)
        marks[k::k] = kid.marks[1:top // k + 1]
        # an EXACT kid whose table reaches its bound has no member past the table up to
        # it, so the dilation's members past its own table up to its bound are the
        # multiples of k its predicate accepts, no more of them than the kid's table holds
        walk = kid.pred is not None and not kid.finite and kid.top == kid.complete_below
        return _of_child(expr, kid, marks, top // k, lambda m: k * m,
                         k * kid.complete_below + k - 1,
                         lambda n, p=kid.pred: n % k == 0 and p(n // k), k if walk else 0)
    if isinstance(expr, nodes.Quot):
        # n·m past the kid's table lies past its walk too, if it has one
        kid, n = _eval(expr.arg, h), expr.n
        return _of_child(expr, kid, kid.marks[::n], kid.top, lambda m: 0 if m % n else m // n,
                         kid.complete_below // n, lambda m, p=kid.pred: p(n * m),
                         kid.stride // math.gcd(kid.stride, n))
    if isinstance(expr, nodes.Shift):
        kid, t = _eval(expr.arg, h), expr.t
        marks = kid.marks[t:] or bytearray(1)
        marks[0] = 0
        # a shift off the kid's stride lists what the kid walks
        return _of_child(expr, kid, marks, kid.top, lambda m: m - t,
                         max(kid.complete_below - t, 0), lambda m, p=kid.pred: p(m + t),
                         0 if kid.stride and t % kid.stride else kid.stride)
    if isinstance(expr, nodes.Up):
        return _eval_up(expr, h)
    if isinstance(expr, nodes.Down):
        kid = _eval(expr.arg, h)
        divs = set()
        for m in kid.iter_members():
            divs.update(arith.divisors(m))
        # a divisor closure promises nothing past what it lists
        if kid.finite:
            return LazySet.of_finite(expr, divs, h)
        return LazySet(expr, sorted(divs), 0)
    if isinstance(expr, (nodes.Fs, nodes.Fp)):
        return _eval_fsfp(expr, h)
    if isinstance(expr, nodes.Pseudo):
        from .. import constructions

        kids = [_eval(c, h) for c in expr.chain]
        return LazySet.of_finite(expr, constructions.pseudointersection(kids, expr.count, h), h)
    if isinstance(expr, nodes.Construct):
        from .. import constructions

        return constructions.build_fixture(expr, h)
    raise InputError(f"cannot evaluate node {type(expr).__name__}")


def _of_child(expr: nodes.SetExpr, kid: LazySet, marks: bytearray, cut: int, image,
              bound: int, pred, stride: int) -> LazySet:
    """A set made from one child: the table marks, and past it the images (those
    above 0) of the child's members past cut, or with a stride only of those the
    child lists past its own walk. Finite when the child is; otherwise complete to
    bound, and exact, with pred answering at the multiples of stride up to bound,
    only when the child is."""
    past = [y for y in map(image, kid.past if stride else kid.iter_members(after=cut)) if y > 0]
    if kid.finite:
        return LazySet(expr, marks, 0, past=past).as_finite()
    if kid.pred is None:
        return LazySet(expr, marks, bound, past=past)
    return LazySet(expr, marks, bound, pred, past, stride)


def _eval_levels(expr: nodes.SetExpr, levels: frozenset[int], h: int) -> LazySet:
    """{n : omega(n) in levels}, complete to h: one pass over the shared Omega table,
    whatever the expression's children (a quotient's bound is not divided). With
    no positive level it is {1} or empty, so finite; a horizon past the sieve cap
    is refused all the same."""
    if not any(levels):
        if h > arith.DEFAULT_SIEVE_CAP:
            arith.ensure_sieve(h)
        return LazySet.of_finite(expr, (1,) if levels else ())
    marks = bytearray(memoryview(arith.omega_upto(h))[:h + 1])
    marks = marks.translate(bytes(i in levels for i in range(256)))
    marks[0] = 0
    return LazySet(expr, marks, h, pred=lambda m: arith.omega(m) in levels)


def _eval_boolean(expr: nodes.Union | nodes.Inter, h: int) -> LazySet:
    """A union (OR) or intersection (AND) of its kids' tables up to its bound or h
    (when all kids are finite, up to the greatest table), listing what lies past."""
    union = isinstance(expr, nodes.Union)
    kids = [_eval(a, h) for a in expr.args]
    if union:
        # a finite kid knows all its members, so it limits nothing below h
        bound = min(h if kid.finite else kid.complete_below for kid in kids)
    else:
        # a kid with a predicate decides membership everywhere, one without only to its bound
        bound = min((k.complete_below for k in kids if k.pred is None), default=h)
    finite = all(kid.finite for kid in kids)
    top = max(kid.top for kid in kids) if finite else min(bound, h)
    merged = int.from_bytes(kids[0].member_marks(top), "little")
    for kid in kids[1:]:
        table = int.from_bytes(kid.member_marks(top), "little")
        merged = merged | table if union else merged & table
    marks = bytearray(merged.to_bytes(top + 1, "little"))
    preds = tuple(kid.pred for kid in kids)
    pred = None if None in preds else (
        (lambda n: any(p(n) for p in preds)) if union else (lambda n: all(p(n) for p in preds)))
    if union:
        past = sorted(set().union(*(kid.iter_members(after=top) for kid in kids)))
    else:
        # past the table every member lies in one kid: a finite one if there is one,
        # else one without a predicate, which lists its members up to its bound
        base = min(kids, key=lambda k: (not k.finite, k.pred is not None, k.count_known()))
        past, undecided = [], False
        for x in base.iter_members(after=top):
            verdicts = [k.contains(x) for k in kids if k is not base]
            if all(v is True for v in verdicts):
                past.append(x)
            undecided = undecided or False not in verdicts and None in verdicts
        finite = base.finite and not undecided
    if finite:
        return LazySet(expr, marks, 0, past=past).as_finite()
    return LazySet(expr, marks, bound, pred=pred, past=past)


def complement(kid: LazySet, expr, h: int) -> LazySet:
    """Complement of kid, complete to h if kid is EXACT, else to kid's bound: the
    flipped marks of kid's members. kid is never extended: the set A-IP*
    complements is shared with every other checker.
    """
    p = kid.pred
    bound = h if p is not None else min(kid.complete_below, h)
    marks = kid.member_marks(bound).translate(_FLIP)
    marks[0] = 0
    return LazySet(expr, marks, bound, pred=None if p is None else lambda n: not p(n))


def _eval_up(expr: nodes.Up, h: int) -> LazySet:
    kid = _eval(expr.arg, h)
    elems = kid.elements(h)
    # every multiple of the least element is a member: refuse before the marks exist
    if elems and h // elems[0] > MAX_ELEMENTS:
        raise over_cap()
    marks = bytearray(h + 1)
    minimal = []  # the members no smaller member divides; their multiples are the set
    for a in elems:
        if not marks[a]:
            marks[a::a] = b"\x01" * (h // a)
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
    bound, past = min(kid.complete_below, h), []
    if pred is None:
        # past its bound a set without a predicate lists its members, not its non-members
        past = list(compress(range(bound + 1, h + 1), marks[bound + 1:]))
        del marks[bound + 1:]
    return LazySet(expr, marks, bound, pred=pred, past=past)


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
        return LazySet.of_finite(expr, _closure_all(terms, additive), h)
    # over the cap within the window, a larger h is refused before its table exists;
    # the window's table is dropped once its marks are counted
    if h > _CLOSURE_WINDOW and (
            _closure_upto(terms, _CLOSURE_WINDOW, additive).count(1) > MAX_ELEMENTS):
        raise over_cap()
    return LazySet(expr, _closure_upto(terms, h, additive), h)


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
    """Marks of the sums (or products) <= h of distinct ascending terms: marks[n]
    is 1 when n is one, as a LazySet reads them.

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
    reach[0] = 0
    return reach
