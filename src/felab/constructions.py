"""Deterministic generators for the fixture catalog.

Every construction resolves its "pick any such ..." freedom to the minimal
admissible choice, so resolving the same parameters twice yields identical
output. Generators return plain ints/tuples; build_fixture wraps the results
into LazySets for the expression language.
"""

from __future__ import annotations

import bisect
import itertools
from typing import Iterator, Sequence

from . import arith
from .errors import InputError, ResourceError
from .record import record
from .setlang import nodes
from .setlang.evaluate import _closure_all, evaluate
from .setlang.lazyset import DEFAULT_HORIZON, MAX_ELEMENTS, SUBSET_CAP, LazySet, over_cap

_COUNT_CAP = 10_000


def _check_count(count: int, what: str = "count") -> None:
    if count < 1:
        raise InputError(f"{what} must be >= 1, got {count}")
    if count > _COUNT_CAP:
        raise ResourceError(f"{what} {count} exceeds the generator cap {_COUNT_CAP}")


class _IncreasingStream:
    """Memoized view of a strictly increasing integer generator."""

    def __init__(self, it: Iterator[int]):
        self._it = it
        self.terms: list[int] = []

    def _grow(self) -> None:
        self.terms.append(next(self._it))

    def get(self, i: int) -> int:
        """The term at index i (from 0)."""
        while len(self.terms) <= i:
            self._grow()
        return self.terms[i]

    def take(self, count: int) -> list[int]:
        """The first count terms."""
        if count:
            self.get(count - 1)
        return self.terms[:count]

    def upto(self, bound: int) -> list[int]:
        """All terms <= bound; generates one term past the bound to be sure."""
        while not self.terms or self.terms[-1] <= bound:
            self._grow()
        return self.terms[:bisect.bisect_right(self.terms, bound)]

    def range_pred(self):
        """Total membership test for the full infinite range, extending on demand."""
        def pred(n: int) -> bool:
            while not self.terms or self.terms[-1] < n:
                self._grow()
            return self.terms[bisect.bisect_left(self.terms, n)] == n
        return pred


def _exgamma_stream() -> Iterator[int]:
    total, n = 0, 1
    while True:
        a = (total // n + 1) * n
        yield a
        total += a
        n += 1


def _fastgrowth_stream() -> Iterator[int]:
    total, n = 0, 1
    while True:
        a = 1 if n == 1 else n + total + 1
        yield a
        total += a
        n += 1


def _sidon_stream() -> Iterator[int]:
    """The greedy minimal increasing sequence whose pairwise differences are all distinct."""
    # Bit sets, relative to the newest term c: bit i of back is set when c - i is a
    # term, of diffs when i is a difference of two terms (0 too), of bad when c + i
    # cannot join. The candidates above c that c excludes are exactly c + diffs.
    back, diffs, bad, c = 1, 0, 0, 1
    while True:
        yield c
        diffs |= back
        bad |= diffs
        step = (~bad & (bad + 1)).bit_length() - 1  # bad's lowest clear bit
        back = back << step | 1
        bad >>= step
        c += step


_SEQ_STREAMS = {
    "exgamma": _exgamma_stream,
    "fastgrowth": _fastgrowth_stream,
    "sidon": _sidon_stream,
}
# rule -> (usage, parameter kinds) of a named sequence fs(rule(...)) / fp(rule(...));
# the kinds pattern is checked by nodes.NamedSeq, as FIXTURES' is by nodes.Construct
SEQUENCE_RULES = {
    "exgamma": ("exgamma([count])", "n?"),
    "fastgrowth": ("fastgrowth([count])", "n?"),
    "sidon": ("sidon([count])", "n?"),
    "primeseq": ("primeseq(all|odd|even[,count])", "wn?"),
}


def sequence_terms(rule: str, params: tuple, horizon: int,
                   vet=lambda count: None) -> tuple[list[int], bool]:
    """Terms of a named sequence: (prefix of length count, True) or (terms <= horizon,
    False). A count passes _check_count, then vet, before any term is generated."""
    if rule != "primeseq":
        return _stream_terms(_IncreasingStream(_SEQ_STREAMS[rule]()), params, horizon, vet)
    variant, *count = params
    if variant not in ("all", "odd", "even"):
        raise InputError("primeseq needs a variant: all, odd or even")
    stride = 1 if variant == "all" else 2
    offset = 1 if variant == "even" else 0
    if count:
        _check_count(count[0])
        vet(count[0])
        return arith.first_primes(stride * count[0])[offset::stride][:count[0]], True
    return arith.primes_upto(horizon)[offset::stride], False


def _stream_terms(stream: _IncreasingStream, params: tuple, horizon: int,
                  vet=lambda count: None) -> tuple[list[int], bool]:
    """A stream's first count terms (params == (count,)), or its terms up to the horizon."""
    if params:
        _check_count(params[0])
        vet(params[0])
        return stream.take(params[0]), True
    return stream.upto(horizon), False


def sidon_level_union_expr(count: int, side: int) -> nodes.SetExpr:
    """Expression for the union of levels at even (side 0) or odd (side 1) positions."""
    if side not in (0, 1):
        raise InputError(f"side must be 0 or 1, got {side}")
    seq = sequence_terms("sidon", (count,), 0)[0]
    chosen = seq[side::2]
    if not chosen:
        raise InputError(f"count {count} leaves side {side} empty")
    if len(chosen) == 1:
        return nodes.Level(chosen[0])
    return nodes.Union(tuple(nodes.Level(n) for n in chosen))


@record
class ThickFixture:
    """Blocks of consecutive runs plus the one dodged multiple of each run length."""

    blocks: tuple[tuple[int, ...], ...]
    avoided: tuple[int, ...]

    @property
    def members(self) -> tuple[int, ...]:
        return tuple(x for block in self.blocks for x in block)


def thick_auto_nmax(horizon: int) -> int:
    """Largest n_max whose final block still fits below the horizon (at least 1)."""
    n_max, end = 1, 2  # block 1 is (2,)
    # block n + 1 starts just past the next multiple of n after the end of block n
    while (end := (end // n_max + 1) * n_max + n_max + 1) <= horizon:
        n_max += 1
    return n_max


def gen_thick_nonmaxstar(n_max: int) -> ThickFixture:
    """Runs of every length up to n_max, skipping one designated multiple of each n."""
    _check_count(n_max, "n_max")
    count = n_max * (n_max + 1) // 2  # block n holds n members
    if count > MAX_ELEMENTS:
        raise over_cap(count)
    blocks: list[tuple[int, ...]] = []
    avoided: list[int] = []
    a = 1
    for n in range(1, n_max + 1):
        block = tuple(range(a + 1, a + n + 1))
        blocks.append(block)
        a = (block[-1] // n + 1) * n
        avoided.append(a)
    return ThickFixture(tuple(blocks), tuple(avoided))


def thick_fixture(params: tuple, horizon: int) -> ThickFixture:
    """construct(thick_nonmaxstar[,n_max]): n_max as given, else the largest that fits."""
    return gen_thick_nonmaxstar(params[0] if params else thick_auto_nmax(horizon))


def equal_exponent_pred(n: int) -> bool:
    """True when n >= 2 and every prime in its factorization carries the same exponent."""
    if n < 2:
        return False
    exps = {e for _, e in arith.factorize(n)}
    return len(exps) == 1


def gen_equal_exponent(H: int) -> list[int]:
    """All n <= H whose prime exponents are all equal: the r**e with r >= 2 squarefree
    and e >= 1, read from a squarefree sieve."""
    if H > arith.DEFAULT_SIEVE_CAP:
        arith.ensure_sieve(H)  # refused past the sieve cap, as every sieve-backed set is
    sf = bytearray([1]) * (H + 1)
    for p in arith.primes_upto(arith.integer_nth_root(H, 2)):
        sf[p * p::p * p] = bytes(H // (p * p))
    squarefree = list(itertools.compress(range(2, H + 1), sf[2:]))
    powers = [r ** e for e in range(2, H.bit_length())
              for r in squarefree[:bisect.bisect_right(squarefree, arith.integer_nth_root(H, e))]]
    return sorted(squarefree + powers)


def gen_mj_funcs(h_max: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Function tables f(i) = p**2 * q and g(i) = p * q**2 over prime pairs (p_2i, p_2i+1)."""
    _check_count(h_max, "h_max")
    ps = arith.first_primes(2 * h_max + 1)
    f = tuple(ps[2 * i - 1] ** 2 * ps[2 * i] for i in range(1, h_max + 1))
    g = tuple(ps[2 * i - 1] * ps[2 * i] ** 2 for i in range(1, h_max + 1))
    return f, g


def gen_fp_prime_subset(index_rule="odd", count: int | None = None) -> tuple[int, ...]:
    """The primes chosen by index parity or explicit indices, whose subset products are
    construct(fp_primes, ...)."""
    def vet(k: int) -> None:
        if (1 << k) - 1 > SUBSET_CAP:
            raise ResourceError(f"closure of {k} primes exceeds the subset cap {SUBSET_CAP}")

    if not isinstance(index_rule, (tuple, list)):
        if count is None:
            raise InputError("count is required with a parity rule")
        _check_count(count)
        if index_rule not in ("odd", "even", "all"):
            raise InputError(f"index rule must be odd, even, all, or [i1,i2,...], got {index_rule!r}")
        return tuple(sequence_terms("primeseq", (index_rule, count), 0, vet)[0])
    sel = sorted(set(index_rule))
    if not sel:
        raise InputError("explicit index list must be nonempty")
    if sel[0] < 1:
        raise InputError(f"prime indices must be >= 1, got {sel[0]}")
    vet(len(sel))
    ps = arith.first_primes(sel[-1])
    return tuple(ps[i - 1] for i in sel)


def gen_prophier(prime_sets: Sequence[Sequence[int]], exponents: Sequence[int],
                 counts: Sequence[int], H: int) -> list[int]:
    """Products <= H of per-block distinct primes, block i contributing counts[i] primes at power exponents[i]."""
    if not prime_sets:
        raise InputError("at least one prime block is required")
    if not (len(prime_sets) == len(exponents) == len(counts)):
        raise InputError("prime_sets, exponents, and counts must have equal length")
    if H < 1:
        raise InputError(f"horizon must be >= 1, got {H}")
    blocks = []
    for s in prime_sets:
        blk = tuple(sorted(set(s)))
        if not blk:
            raise InputError("prime blocks must be nonempty")
        for p in blk:
            if not arith.is_prime(p):
                raise InputError(f"block element {p} is not prime")
        blocks.append(blk)
    for k in exponents:
        if k < 1:
            raise InputError(f"exponents must be >= 1, got {k}")
    for i, n in enumerate(counts):
        if n < 1:
            raise InputError(f"counts must be >= 1, got {n}")
        if n > len(blocks[i]):
            raise InputError(f"block {i + 1} holds {len(blocks[i])} primes but count {n} are requested")
    for i in range(len(blocks)):
        for j in range(i + 1, len(blocks)):
            si, sj = set(blocks[i]), set(blocks[j])
            if si & sj and si != sj:
                raise InputError("prime blocks must be pairwise disjoint or identical")

    out: set[int] = set()
    # the blocks are disjoint or identical, so one set of used primes serves them all
    used: set[int] = set()

    def rec(i: int, val: int) -> None:
        if i == len(blocks):
            out.add(val)
            return
        pool = [p for p in blocks[i] if p not in used]
        for combo in itertools.combinations(pool, counts[i]):
            v = val
            for p in combo:
                v *= p ** exponents[i]
                if v > H:
                    break
            if v > H:
                continue
            used.update(combo)
            rec(i + 1, v)
            used.difference_update(combo)

    rec(0, 1)
    return sorted(out)


def gen_levelfix(positions: Sequence[int], primes: Sequence[int], n: int, H: int) -> list[int]:
    """Products <= H of n sorted primes whose positions[j]-th factor equals primes[j]."""
    positions = tuple(positions)
    primes = tuple(primes)
    if n < 1:
        raise InputError(f"factor count must be >= 1, got {n}")
    if H < 1:
        raise InputError(f"horizon must be >= 1, got {H}")
    if len(positions) != len(primes) or not positions:
        raise InputError("positions and primes must be nonempty and equally long")
    if list(positions) != sorted(set(positions)) or positions[0] < 1 or positions[-1] > n:
        raise InputError(f"positions must be strictly increasing within 1..{n}")
    if list(primes) != sorted(primes):
        raise InputError("pinned primes must be sorted ascending")
    for p in primes:
        if not arith.is_prime(p):
            raise InputError(f"pinned value {p} is not prime")
    fixed = dict(zip(positions, primes))
    pool = arith.primes_upto(H)
    out: list[int] = []

    def rec(idx: int, prev: int, val: int) -> None:
        if idx > n:
            out.append(val)
            return
        rest = n - idx
        if idx in fixed:
            q = fixed[idx]
            if q >= prev and val * q ** (rest + 1) <= H:
                rec(idx + 1, q, val * q)
            return
        for q in pool[bisect.bisect_left(pool, prev):]:
            if val * q ** (rest + 1) > H:
                break
            rec(idx + 1, q, val * q)

    rec(1, 2, 1)
    return sorted(out)


def pseudointersection(chain: Sequence[LazySet], count: int, H: int) -> tuple[int, ...]:
    """Value n is the least element of the n-th chain set above all earlier values.

    The chain is verified decreasing on [1, H] first; the result leaves each
    chain set only finitely often by construction (the first n-1 values). When a
    chain set has no member up to H above the last value, fewer values come back.
    """
    sets = list(chain)
    if not sets:
        raise InputError("pseudointersection needs at least one chain set")
    _check_count(count)
    if count > len(sets):
        raise InputError(f"chain provides {len(sets)} sets but {count} values were requested")
    # marks[i][x] is 1 when x <= H belongs to set i + 1; one AND-NOT per link finds
    # the least x of set i + 2 that set i + 1 decides against
    marks = [sets[0].member_marks(H)]
    for i, s in enumerate(sets[1:]):
        s.extend_to(H)
        marks.append(s.member_marks(H))
        decided = H if sets[i].is_exact else min(sets[i].complete_below, H)
        stray = (int.from_bytes(marks[i + 1][:decided + 1], "little")
                 & ~int.from_bytes(marks[i][:decided + 1], "little"))
        if stray:
            x = (stray & -stray).bit_length() // 8
            raise InputError(
                f"chain is not decreasing: {x} belongs to set {i + 2} but not to set {i + 1}")
    sets[0].extend_to(H)
    values = [0]
    for m in marks[:count]:
        x = m.find(1, values[-1] + 1)
        if x < 0:
            break
        values.append(x)
    return tuple(values[1:])


def _fx_stream(rule: str, exact: bool):
    """Builder for a named sequence: its first count terms, or its terms up to the horizon."""
    def build(params, horizon, expr):
        stream = _IncreasingStream(_SEQ_STREAMS[rule]())
        terms, pinned = _stream_terms(stream, params, horizon)
        if pinned:
            return LazySet.of_finite(expr, terms, horizon)
        return LazySet(expr, terms, horizon, pred=stream.range_pred() if exact else None)
    return build


def _fx_finite(gen):
    """Builder for finitely many members gen(params, horizon), tabled up to the horizon."""
    return lambda params, horizon, expr: LazySet.of_finite(expr, gen(params, horizon), horizon)


def _fx_sidon_levels(params, horizon, expr):
    """The level union itself: its LazySet carries that expression, which fe_refute_level reads."""
    return evaluate(sidon_level_union_expr(*params), horizon)


# name -> (usage line, parameter kinds, builder(params, horizon, expr) -> LazySet).
# The kinds are a regular expression over one letter per parameter (n natural,
# w word, l [list]); nodes.Construct rejects any other shape, so a builder only
# checks values. Builders call generators by module-level name at call time, so
# a wrapper installed on the module attribute (a tracer, a profiler) sees them.
FIXTURES = {
    "exgamma": ("construct(exgamma[,count]) - sum-dominating sequence with n dividing the n-th term",
                "n?", _fx_stream("exgamma", exact=True)),
    "fastgrowth": ("construct(fastgrowth[,count]) - sum-dominating sequence for subset-sum sets",
                   "n?", _fx_stream("fastgrowth", exact=True)),
    "sidon": ("construct(sidon[,count]) - greedy distinct-difference sequence",
              "n?", _fx_stream("sidon", exact=False)),
    "thick_nonmaxstar": ("construct(thick_nonmaxstar[,n_max]) - runs of every length dodging one "
                         "multiple of each n", "n?",
                         _fx_finite(lambda p, h: thick_fixture(p, h).members)),
    "equal_exponent": ("construct(equal_exponent) - numbers whose prime exponents are all equal",
                       "", lambda params, horizon, expr: LazySet(
                           expr, gen_equal_exponent(horizon), horizon, pred=equal_exponent_pred)),
    "fp_primes": ("construct(fp_primes,odd|even|all,count) or construct(fp_primes,[i1,...]) - "
                  "subset products of selected primes", "l|wn",
                  _fx_finite(lambda p, h: _closure_all(gen_fp_prime_subset(*p), additive=False))),
    "prophier": ("construct(prophier,[p,...],k,n[,[p,...],k,n]...) - distinct-prime products, "
                 "one power per block", "(lnn)+",
                 _fx_finite(lambda p, h: gen_prophier(p[0::3], p[1::3], p[2::3], h))),
    "levelfix": ("construct(levelfix,[pos,...],[prime,...],n) - sorted n-factor products with "
                 "pinned factors", "lln",
                 _fx_finite(lambda p, h: gen_levelfix(*p, h))),
    "sidon_levels": ("construct(sidon_levels,count,side) - union of levels at alternating "
                     "distinct-difference indices", "nn", _fx_sidon_levels),
}


def build_fixture(expr: nodes.Construct, horizon: int = DEFAULT_HORIZON) -> LazySet:
    """Resolve a construct(...) node, whose name nodes.Construct has checked, to its LazySet."""
    return FIXTURES[expr.name][2](expr.params, horizon, expr)
