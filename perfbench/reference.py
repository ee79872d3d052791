"""Definition-level reference semantics for the benchmark's correctness checks.

Nothing here imports felab. Membership follows the definitions of the
expression language directly: Omega by trial division, divisibility, subset
sums and products by search. The expected verdict of an ``fe``/``me`` query
follows felab's documented decision order (level-delta rule, residue rule,
least dilation), each step computed from those definitions. Certificates are
re-checked against the definitions themselves.

Trees are the tuples built in ``workloads.py``. ``Unsupported`` marks a node
this reference does not model (the fixture catalog); callers then fall back
to structural checks.
"""

from __future__ import annotations

import itertools
import math
from functools import lru_cache


class Unsupported(Exception):
    """The reference has no definition for this node."""


@lru_cache(maxsize=None)
def omega(n: int) -> int:
    """Prime factors of n counted with multiplicity, by trial division."""
    count, d = 0, 2
    while d * d <= n:
        while n % d == 0:
            n //= d
            count += 1
        d += 1
    return count + (1 if n > 1 else 0)


def is_prime(n: int) -> bool:
    return n >= 2 and omega(n) == 1


def divisors(n: int) -> list[int]:
    out = set()
    d = 1
    while d * d <= n:
        if n % d == 0:
            out.update((d, n // d))
        d += 1
    return sorted(out)


# ---------------------------------------------------------------------------
# sequences and closures
# ---------------------------------------------------------------------------

def _primes_from(index_start: int, stride: int):
    i = 0
    for n in itertools.count(2):
        if is_prime(n):
            if i >= index_start and (i - index_start) % stride == 0:
                yield n
            i += 1


def _exgamma():
    total = 0
    for n in itertools.count(1):
        a = next(m for m in itertools.count(total + 1) if m % n == 0)
        yield a
        total += a


def _fastgrowth():
    total = 0
    for n in itertools.count(1):
        a = 1 if n == 1 else n + total + 1
        yield a
        total += a


def _sidon():
    terms: list[int] = []
    diffs: set[int] = set()
    for c in itertools.count(1):
        new = {c - t for t in terms}
        if len(new) == len(terms) and not new & diffs:
            diffs |= new
            terms.append(c)
            yield c


def _stream(seq):
    rule = seq[0]
    if rule == "primeseq":
        variant = seq[1]
        return _primes_from(1 if variant == "even" else 0, 1 if variant == "all" else 2)
    return {"exgamma": _exgamma, "fastgrowth": _fastgrowth, "sidon": _sidon}[rule]()


def seq_terms(seq, bound: int) -> list[int]:
    """Terms of a sequence that are <= bound (all of them when it is pinned)."""
    if seq[0] == "list":
        return [t for t in seq[1] if t <= bound]
    count = _pinned_count(seq)
    out = []
    for t in _stream(seq):
        if t > bound or (count is not None and len(out) == count):
            break
        out.append(t)
    return out


def _pinned_count(seq) -> int | None:
    if seq[0] == "list":
        return len(seq[1])
    if seq[0] == "primeseq":
        return seq[2] if len(seq) > 2 else None
    return seq[1] if len(seq) > 1 else None


@lru_cache(maxsize=256)
def _subset_sums(seq, bound: int) -> int:
    bits = 1
    for t in seq_terms(seq, bound):
        bits |= bits << t
    return bits & ((1 << (bound + 1)) - 1)


def _is_subset_product(n: int, terms: list[int]) -> bool:
    """Is n the product of a nonempty set of distinct terms?"""
    if n == 1:
        return 1 in terms
    cands = [t for t in terms if t > 1 and n % t == 0]

    def rec(rest: int, i: int) -> bool:
        if rest == 1:
            return True
        return any(rest % cands[j] == 0 and rec(rest // cands[j], j + 1)
                   for j in range(i, len(cands)))
    return rec(n, 0)


# ---------------------------------------------------------------------------
# membership
# ---------------------------------------------------------------------------

def member(node, n: int) -> bool:
    """Is the natural n in the set the tree denotes?"""
    if n < 1:
        return False
    kind = node[0]
    if kind == "N":
        return True
    if kind == "primes":
        return is_prime(n)
    if kind == "odd":
        return n % 2 == 1
    if kind == "mult":
        return n % node[1] == 0
    if kind == "ap":
        return n >= node[1] and (n - node[1]) % node[2] == 0
    if kind == "level":
        return omega(n) == node[1]
    if kind == "set":
        return n in node[1]
    if kind == "union":
        return any(member(a, n) for a in node[1:])
    if kind == "inter":
        return all(member(a, n) for a in node[1:])
    if kind == "compl":
        return not member(node[1], n)
    if kind == "dilate":
        return n % node[1] == 0 and member(node[2], n // node[1])
    if kind == "quot":
        return member(node[1], node[2] * n)
    if kind == "shift":
        return member(node[1], n + node[2])
    if kind == "up":
        return any(member(node[1], d) for d in divisors(n))
    if kind == "down":
        return any(e % n == 0 for e in finite_elements(node[1]))
    if kind == "fs":
        return bool(_subset_sums(node[1], n) >> n & 1)
    if kind == "fp":
        return _is_subset_product(n, seq_terms(node[1], n))
    if kind == "pseudo":
        return n in _pseudo_values(node)
    raise Unsupported(kind)


@lru_cache(maxsize=64)
def _pseudo_values(node) -> tuple[int, ...]:
    count, chain = node[1], node[2:]
    values, prev = [], 0
    for i in range(count):
        prev = next(x for x in itertools.count(prev + 1) if member(chain[i], x))
        values.append(prev)
    return tuple(values)


def finite_elements(node) -> list[int]:
    """Every member of a finite set; Unsupported for sets not known to be finite."""
    kind = node[0]
    if kind == "set":
        return list(node[1])
    if kind == "pseudo":
        return list(_pseudo_values(node))
    if kind in ("fs", "fp") and _pinned_count(node[1]) is not None:
        terms = seq_terms(node[1], 10 ** 18)
        out = set()
        for r in range(1, len(terms) + 1):
            for combo in itertools.combinations(terms, r):
                out.add(sum(combo) if kind == "fs" else math.prod(combo))
        return sorted(out)
    if kind == "down":
        return sorted({d for e in finite_elements(node[1]) for d in divisors(e)})
    if kind == "union":
        return sorted({x for a in node[1:] for x in finite_elements(a)})
    raise Unsupported(kind)


def is_finite(node) -> bool:
    try:
        finite_elements(node)
    except Unsupported:
        return False
    return True


# ---------------------------------------------------------------------------
# the facts fe/me verdicts rest on
# ---------------------------------------------------------------------------

def level_cover(node) -> frozenset[int] | None:
    """Levels a level-union target lives on; None for any other target."""
    if node[0] == "level":
        return frozenset((node[1],))
    if node[0] == "primes":
        return frozenset((1,))
    if node[0] == "union":
        covers = [level_cover(a) for a in node[1:]]
        if all(c is not None for c in covers):
            return frozenset().union(*covers)
    return None


def _period(node) -> tuple[int, int]:
    """(preperiod, period) of a periodic tree; Unsupported otherwise."""
    kind = node[0]
    if kind == "mult":
        return 0, node[1]
    if kind == "ap":
        return node[1], node[2]
    if kind == "compl":
        return _period(node[1])
    if kind in ("union", "inter"):
        pre, per = 0, 1
        for a in node[1:]:
            p, q = _period(a)
            pre, per = max(pre, p), math.lcm(per, q)
        return pre, per
    raise Unsupported(kind)


def misses_multiples(node, m: int) -> bool:
    """True when the set contains no positive multiple of m."""
    if is_finite(node):
        return all(e % m for e in finite_elements(node))
    cover = level_cover(node)
    if cover is not None:
        # the multiples of m reach every level from omega(m) upward
        return omega(m) > max(cover)
    if node[0] == "up":
        return False
    pre, per = _period(node)
    return not any(member(node, m * j) for j in range(1, pre // m + per + 2))


def provably_misses(node, m: int) -> bool:
    """felab's documented structural rule for "B misses every multiple of m".

    It is sound but not complete: an intersection counts only when one of its
    operands misses the multiples on its own, so ``inter(mult(8),compl(mult(4)))``
    is empty without this rule proving it. The expected verdicts use this rule;
    certificates are re-checked with ``misses_multiples``.
    """
    kind = node[0]
    if kind == "set":
        return all(e % m for e in node[1])
    if kind in ("mult", "up", "fs"):
        return False
    if kind == "ap":
        return node[1] % math.gcd(node[2], m) != 0
    if kind == "level":
        return omega(m) > node[1]
    if kind == "primes":
        return m > 1 and not is_prime(m)
    if kind == "union":
        return all(provably_misses(a, m) for a in node[1:])
    if kind == "inter":
        return any(provably_misses(a, m) for a in node[1:])
    if kind == "compl":
        return _provably_holds_multiples(node[1], m)
    raise Unsupported(kind)


def _provably_holds_multiples(node, m: int) -> bool:
    kind = node[0]
    if kind == "N":
        return True
    if kind == "mult":
        return m % node[1] == 0
    if kind == "ap":
        return m % node[2] == 0 and node[1] % node[2] == 0 and m >= node[1]
    if kind == "union":
        return any(_provably_holds_multiples(a, m) for a in node[1:])
    if kind == "inter":
        return all(_provably_holds_multiples(a, m) for a in node[1:])
    return False


def elements_upto(node, bound: int) -> list[int]:
    if node[0] == "set":
        return [e for e in node[1] if e <= bound]
    return [n for n in range(1, bound + 1) if member(node, n)]


def least_dilation(fam, B, k_max: int) -> int | None:
    """Least k with every k*f in B; a finite B bounds k by its own largest member."""
    if is_finite(B):
        elems = set(finite_elements(B))
        top = max(elems) // fam[0]
        cands = sorted(b // fam[0] for b in elems if b % fam[0] == 0 and b // fam[0] <= top)
        return next((k for k in cands if all(k * f in elems for f in fam)), None)
    return next((k for k in range(1, k_max + 1) if all(member(B, k * f) for f in fam)), None)


def expect_fe(A, B, horizon: int, prefix: int, k_max: int) -> dict:
    """Expected status (and least dilation, when proved) of `felab fe A B`."""
    elems = elements_upto(A, horizon)
    fam = tuple(finite_elements(A)[:prefix]) if A[0] == "set" else tuple(elems[:prefix])
    cover = level_cover(B)
    if cover is not None:
        deltas = {a - b for a in cover for b in cover}
        levels = sorted({omega(c) for c in elems})
        if any(oj - oi not in deltas for oi, oj in itertools.combinations(levels, 2)):
            return {"status": "refuted", "family": fam}
    if any(provably_misses(B, f) for f in fam):
        return {"status": "refuted", "family": fam}
    k = least_dilation(fam, B, k_max)
    if k is not None:
        return {"status": "proved", "k": k, "family": fam}
    return {"status": "refuted" if is_finite(B) else "bounded", "family": fam}


def expect_me(A, B, m: int, horizon: int, k_max: int) -> dict:
    """Expected status of `felab me A B --m m` for m >= 2 and a finite A."""
    pool = elements_upto(A, horizon)
    worst, exhausted = None, False
    subsets = 0
    for sub in itertools.combinations(pool, m):
        subsets += 1
        k = least_dilation(sub, B, k_max)
        if k is None:
            if is_finite(B) or any(provably_misses(B, f) for f in sub):
                return {"status": "refuted"}
            exhausted = True
        elif worst is None or k > worst[0]:
            worst = (k, sub)
    if exhausted:
        return {"status": "bounded"}
    return {"status": "proved", "k": worst[0], "family": worst[1], "subsets": subsets}


def has_run(is_member, lo: int, hi: int, n: int) -> bool:
    """Does [lo, hi] hold n consecutive members?"""
    run = 0
    for x in range(lo, hi + 1):
        run = run + 1 if is_member(x) else 0
        if run >= n:
            return True
    return False
