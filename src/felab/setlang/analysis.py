"""Structural analyses of set expressions.

These inspect the expression tree, never the evaluated elements, so their
conclusions hold for the full infinite set and can back exact refutations:
a cover of the set by factor-count levels, a proof that the set misses every
multiple of some m, and an eventual period of the membership pattern. The
exact level set of a set also lets evaluation list it from the Omega table.
"""

from __future__ import annotations

import math

from .. import arith
from ..errors import ResourceError
from . import nodes

_PERIOD_CAP = 10_000_000


def levels_of(expr: nodes.SetExpr) -> frozenset[int] | None:
    """A finite set S with expr contained in the union of levels S, or None."""
    return _levels(expr, exact=False)


def level_set_of(expr: nodes.SetExpr) -> frozenset[int] | None:
    """The set S with expr equal to {n : omega(n) in S}, or None.

    Omega is completely additive, so n lies in quot(A, d) exactly when
    omega(n) + omega(d) is a level of A. None also when the Omega of a divisor
    cannot be counted (it lies past the deterministic primality range).
    """
    try:
        return _levels(expr, exact=True)
    except ResourceError:
        return None


def _levels(expr: nodes.SetExpr, exact: bool) -> frozenset[int] | None:
    if isinstance(expr, nodes.Level):
        return frozenset((expr.n,))
    if isinstance(expr, nodes.Primes):
        return frozenset((1,))
    if isinstance(expr, (nodes.Union, nodes.Inter)):
        sets = [_levels(a, exact) for a in expr.args]
        if isinstance(expr, nodes.Union):
            return None if None in sets else frozenset().union(*sets)
        # an intersection lies in the levels of any covered operand
        known = [s for s in sets if s is not None]
        if not known or (exact and len(known) < len(sets)):
            return None
        return known[0].intersection(*known[1:])
    if isinstance(expr, nodes.Quot):
        levels = _levels(expr.arg, exact)
        if levels is None:
            return None
        shift = arith.omega(expr.n)
        return frozenset(s - shift for s in levels if s >= shift)
    if exact:
        return None
    if isinstance(expr, nodes.Explicit):
        return frozenset(arith.omega(e) for e in expr.elems)
    if isinstance(expr, nodes.Dilate):
        cover = levels_of(expr.arg)
        if cover is None:
            return None
        shift = arith.omega(expr.k)
        return frozenset(s + shift for s in cover)
    if isinstance(expr, nodes.Fp):
        count = _pinned_prime_count(expr.seq)
        if count is not None:
            return frozenset(range(1, count + 1))
        return None
    return None


def _pinned_prime_count(seq) -> int | None:
    """Length of a pinned all-prime sequence, else None."""
    if isinstance(seq, nodes.ExplicitSeq):
        if all(arith.is_prime(v) for v in seq.values):
            return len(seq.values)
        return None
    if isinstance(seq, nodes.NamedSeq) and seq.rule == "primeseq" and len(seq.params) == 2:
        return seq.params[1]  # the parser admits (variant, count) only with a count
    return None


def level_deltas(cover: frozenset[int]) -> frozenset[int]:
    """All differences of level indices achievable inside the cover."""
    return frozenset(a - b for a in cover for b in cover)


def empty_meet_mult(expr: nodes.SetExpr, m: int) -> bool | None:
    """Does expr miss every positive multiple of m? True/False when provable."""
    if isinstance(expr, nodes.AllNat):
        return False
    if isinstance(expr, nodes.Primes):
        return None if m == 1 else (False if arith.is_prime(m) else True)
    if isinstance(expr, nodes.Level):
        return arith.omega(m) > expr.n
    if isinstance(expr, nodes.Mult):
        return False
    if isinstance(expr, nodes.Ap):
        return expr.a % math.gcd(expr.d, m) != 0
    if isinstance(expr, nodes.Explicit):
        return all(e % m for e in expr.elems)
    if isinstance(expr, nodes.Union):
        parts = [empty_meet_mult(a, m) for a in expr.args]
        if all(p is True for p in parts):
            return True
        if any(p is False for p in parts):
            return False
        return None
    if isinstance(expr, nodes.Inter):
        if any(empty_meet_mult(a, m) is True for a in expr.args):
            return True
        return None
    if isinstance(expr, nodes.Compl):
        if _contains_mult(expr.arg, m):
            return True
        if isinstance(expr.arg, nodes.Explicit):
            return False
        return None
    if isinstance(expr, nodes.Dilate):
        return empty_meet_mult(expr.arg, m // math.gcd(m, expr.k))
    if isinstance(expr, nodes.Quot):
        return empty_meet_mult(expr.arg, expr.n * m)
    return None


def _contains_mult(expr: nodes.SetExpr, m: int) -> bool:
    """Provably contains every positive multiple of m (False = not provable)."""
    if isinstance(expr, nodes.AllNat):
        return True
    if isinstance(expr, nodes.Mult):
        return m % expr.k == 0
    if isinstance(expr, nodes.Ap):
        return m % expr.d == 0 and expr.a % expr.d == 0 and m >= expr.a
    if isinstance(expr, nodes.Union):
        return any(_contains_mult(a, m) for a in expr.args)
    if isinstance(expr, nodes.Inter):
        return all(_contains_mult(a, m) for a in expr.args)
    if isinstance(expr, nodes.Dilate):
        return m % expr.k == 0 and _contains_mult(expr.arg, m // expr.k)
    if isinstance(expr, nodes.Up):
        return _contains_mult(expr.arg, m)
    return False


def period_of(expr: nodes.SetExpr) -> tuple[int, int] | None:
    """(preperiod, period) with membership(n) == membership(n + period) for n > preperiod."""
    if isinstance(expr, nodes.AllNat):
        return (0, 1)
    if isinstance(expr, nodes.Mult):
        return (0, expr.k)
    if isinstance(expr, nodes.Ap):
        return (expr.a - 1, expr.d)
    if isinstance(expr, nodes.Explicit):
        return (max(expr.elems), 1)
    if isinstance(expr, (nodes.Union, nodes.Inter)):
        pre, per = 0, 1
        for a in expr.args:
            sub = period_of(a)
            if sub is None:
                return None
            pre = max(pre, sub[0])
            per = per * sub[1] // math.gcd(per, sub[1])
            if per > _PERIOD_CAP:
                return None
        return (pre, per)
    if isinstance(expr, nodes.Compl):
        return period_of(expr.arg)
    if isinstance(expr, nodes.Dilate):
        sub = period_of(expr.arg)
        if sub is None or sub[1] * expr.k > _PERIOD_CAP:
            return None
        return (expr.k * sub[0] + expr.k - 1, expr.k * sub[1])
    if isinstance(expr, nodes.Quot):
        sub = period_of(expr.arg)
        if sub is None:
            return None
        return (sub[0] // expr.n, sub[1] // math.gcd(sub[1], expr.n))
    if isinstance(expr, nodes.Shift):
        sub = period_of(expr.arg)
        if sub is None:
            return None
        return (max(sub[0] - expr.t, 0), sub[1])
    return None
