"""Integer kernel: prime sieve, factorization, divisors, antichains, CRT.

Everything here works on plain Python ints (so 64-bit-plus values are fine) and
is deterministic: the same inputs always produce the same outputs.
"""

from __future__ import annotations

import itertools
import math
from array import array

from .errors import InputError, ResourceError

DEFAULT_SIEVE_CAP = 20_000_000

# Miller-Rabin witness bases, and after each the least odd composite that passes it and
# every base before it (OEIS A014233): below that bound, the bases so far settle n.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_PASSED_BY = (2047, 1373653, 25326001, 3215031751, 2152302898747, 3474749660383,
                 341550071728321, 341550071728321, 3825123056546413051, 3825123056546413051,
                 3825123056546413051, 318665857834031151167461, 3317044064679887385961981)
_MR_EXACT_BELOW = _MR_PASSED_BY[-1]  # where all the bases together stop being enough

# candidates one antichain search may try before it gives up
_ANTICHAIN_STEP_CAP = 1_000_000


class Sieve:
    """Smallest-prime-factor table for [2, limit], and beside it prime_marks, one
    byte per n in [0, limit] that is 1 exactly when n is prime."""

    def __init__(self, limit: int):
        if limit < 2:
            raise InputError(f"sieve limit must be >= 2, got {limit}")
        self.limit = limit
        self.table, self.prime_marks = self._build(limit)

    @staticmethod
    def _build(limit: int) -> tuple[array, bytearray]:
        spf = array("I", range(limit + 1))
        spf[1] = 0
        prime = bytearray(b"\x01") * (limit + 1)
        prime[:2] = b"\x00\x00"
        # every composite j has spf(j)**2 <= j, so the primes up to the root
        # mark all composites; going from the largest down, the least writes last.
        # Slices of at most 2**16 slots keep the fill arrays small beside the tables.
        for p in range(math.isqrt(limit), 1, -1):
            if all(p % d for d in range(2, math.isqrt(p) + 1)):
                fill = array("I", [p]) * min((limit - p * p) // p + 1, 1 << 16)
                zeros = bytes(len(fill))
                for lo in range(p * p, limit + 1, len(fill) * p):
                    slots = min(len(fill), (limit - lo) // p + 1)
                    spf[lo:lo + slots * p:p] = fill[:slots]
                    prime[lo:lo + slots * p:p] = zeros[:slots]
        return spf, prime

    def is_prime(self, n: int) -> bool:
        return n >= 2 and n <= self.limit and self.table[n] == n


_sieve: Sieve | None = None
# omega(n) at index n, for n from 0; omega < 25 below the sieve cap fits a byte
_omega_table = array("B", [0, 0])


def ensure_sieve(limit: int) -> Sieve:
    """Return the shared sieve, growing it as needed."""
    global _sieve
    limit = max(limit, 2)
    if limit > DEFAULT_SIEVE_CAP:
        raise ResourceError(
            f"sieve limit {limit} exceeds cap {DEFAULT_SIEVE_CAP}; lower the horizon")
    if _sieve is None or _sieve.limit < limit:
        # grow geometrically so ascending requests amortize to one build
        have = _sieve.limit if _sieve is not None else 0
        target = min(DEFAULT_SIEVE_CAP, max(limit, 2 * have, 1 << 16))
        _sieve = Sieve(target)
    return _sieve


def _mr_is_prime(n: int) -> bool:
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a, passed_by in zip(_MR_BASES, _MR_PASSED_BY):
        x = pow(a, d, n)
        if x not in (1, n - 1):
            for _ in range(s - 1):
                x = x * x % n
                if x == n - 1:
                    break
            else:
                return False
        if n < passed_by:
            return True
    return True


def is_prime(n: int) -> bool:
    if _sieve is not None and n <= _sieve.limit:
        return _sieve.is_prime(n)
    if n <= 10_000:
        return ensure_sieve(10_000).is_prime(n)
    if n >= _MR_EXACT_BELOW:
        raise ResourceError(f"{n} lies beyond the deterministic primality range")
    return _mr_is_prime(n)


def _brent_rho(n: int) -> int:
    """Deterministic Brent cycle-finding; returns a nontrivial factor of composite odd n."""
    c = 1
    while True:
        y, m, g, r, q = 2, 128, 1, 1, 1
        x = ys = y
        while g == 1:
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                for _ in range(min(m, r - k)):
                    y = (y * y + c) % n
                    q = q * abs(x - y) % n
                g = math.gcd(q, n)
                k += m
            r *= 2
        if g == n:
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = math.gcd(abs(x - ys), n)
        if g != n:
            return g
        c += 1  # rare: retry with the next polynomial


def _factor_large(n: int, out: dict[int, int]) -> dict[int, int]:
    """out with the prime factors of n > 1, which has none below 101, counted in."""
    if _mr_is_prime(n):
        out[n] = out.get(n, 0) + 1
        return out
    d = _brent_rho(n)
    _factor_large(d, out)
    return _factor_large(n // d, out)


# What these leave above the sieve has no prime factor below 101.
_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47,
                 53, 59, 61, 67, 71, 73, 79, 83, 89, 97)


def _strip_small_primes(n: int, pairs: list | None = None) -> tuple[int, int]:
    """Divide _SMALL_PRIMES out of n in order until what is left fits the sieve; return
    how many prime factors that took and what is left, appending (p, e) to pairs if given."""
    if _sieve is None or not 1 <= n <= _sieve.limit:
        if n < 1:
            raise InputError(f"factorize expects n >= 1, got {n}")
        if n >= _MR_EXACT_BELOW:
            raise ResourceError(f"{n} lies beyond the deterministic primality range")
        if _sieve is None or _sieve.limit < 100_000:  # past that, ensure_sieve is a no-op
            ensure_sieve(min(n, 100_000))
    limit, count = _sieve.limit, 0
    for p in _SMALL_PRIMES:
        if n <= limit:
            break
        if n % p == 0:
            e = 0
            while n % p == 0:
                n //= p
                e += 1
            count += e
            if pairs is not None:
                pairs.append((p, e))
    return count, n


def factorize(n: int) -> list[tuple[int, int]]:
    """Prime factorization as sorted (prime, exponent) pairs; factorize(1) == []."""
    _, n = _strip_small_primes(n, pairs := [])
    if n > _sieve.limit:
        return pairs + sorted(_factor_large(n, {}).items())
    # the smallest prime factor of what is left never decreases
    t = _sieve.table
    while n > 1:
        p = t[n]
        e = 0
        while n % p == 0:
            n //= p
            e += 1
        pairs.append((p, e))
    return pairs


def omega(n: int) -> int:
    """Number of prime factors counted with multiplicity; omega(1) == 0."""
    count = 0
    if _sieve is None or not 1 <= n <= _sieve.limit:
        count, n = _strip_small_primes(n)
        if n > _sieve.limit:
            if n < 101 ** 3:  # its prime factors are at least 101, so it has one or two
                return count + (1 if _mr_is_prime(n) else 2)
            return count + sum(_factor_large(n, {}).values())
    t = _sieve.table
    while n > 1:
        n //= t[n]
        count += 1
    return count


def omega_upto(limit: int) -> array:
    """The process-wide table of omega(n), grown from the shared sieve to reach
    limit; it may be longer than asked for, and callers never write to it."""
    om = _omega_table
    if len(om) <= limit:
        t = ensure_sieve(limit).table
        start = len(om)
        om.frombytes(bytes(limit + 1 - start))
        for n in range(start, limit + 1):
            om[n] = om[n // t[n]] + 1
    return om


def primes_upto(limit: int) -> list[int]:
    """Primes <= limit, listed from the shared sieve's prime marks no further than limit."""
    marks = ensure_sieve(limit).prime_marks
    return list(itertools.compress(range(limit + 1), marks[:limit + 1]))


def first_primes(count: int) -> list[int]:
    """The first `count` primes, p_1 = 2 onward."""
    if count < 1:
        raise InputError(f"prime count must be >= 1, got {count}")
    bound = max(30, count * 20)
    while True:
        ps = primes_upto(bound)
        if len(ps) >= count:
            return ps[:count]
        bound *= 4


def divisors(n: int) -> list[int]:
    """All divisors of n, ascending, multiplied out from its factorization."""
    if n < 1:
        raise InputError(f"divisors expects n >= 1, got {n}")
    divs = [1]
    for p, e in factorize(n):
        divs = [d * p ** i for i in range(e + 1) for d in divs]
    return sorted(divs)


def _check_set(S) -> list[int]:
    elems = sorted(set(S))
    if not elems:
        raise InputError("expected a nonempty set of naturals")
    if elems[0] < 1:
        raise InputError(f"set elements must be >= 1, got {elems[0]}")
    return elems


def is_strong_antichain(S) -> bool:
    """Pairwise coprime check; 1 is rejected because it divides everything."""
    elems = _check_set(S)
    if elems[0] == 1:
        raise InputError("1 cannot belong to a strong antichain")
    return all(math.gcd(a, b) == 1 for a, b in itertools.combinations(elems, 2))


def extract_strong_antichain(A, s: int, H: int) -> list[int] | None:
    """Lexicographically least size-s pairwise-coprime subset of A within [2, H], or None.

    The search walks bit sets of pool indices: one per prime, marking the members
    it divides, and one per node, marking the candidates coprime to every member
    chosen so far, so it never tests a candidate that shares a prime with one.
    It still counts a step for every candidate a plain scan would test, coprime or
    not, and raises a resource error once the count passes _ANTICHAIN_STEP_CAP.
    """
    if s < 1:
        raise InputError(f"antichain size must be >= 1, got {s}")
    pool = sorted(x for x in set(A) if 2 <= x <= H)
    primes = [[p for p, _ in factorize(x)] for x in pool]
    multiples: dict[int, list[int]] = {}  # prime -> indices of the members it divides
    for i, ps in enumerate(primes):
        for p in ps:
            multiples.setdefault(p, []).append(i)
    divides: dict[int, int] = {}  # prime -> bit i set when it divides pool[i]

    def bits(p: int) -> int:
        # built on first use from a byte array, so a large pool costs linear time
        if p not in divides:
            table = bytearray(multiples[p][-1] // 8 + 1)
            for i in multiples[p]:
                table[i >> 3] |= 1 << (i & 7)
            divides[p] = int.from_bytes(table, "little")
        return divides[p]

    chosen: list[int] = []
    steps = 0

    def count(more: int) -> None:
        # the plain scan's count only grows, so a check after a bulk add raises
        # exactly when the scan would have raised somewhere inside it
        nonlocal steps
        steps += more
        if steps > _ANTICHAIN_STEP_CAP:
            raise ResourceError(
                f"antichain search over {len(pool)} candidates exceeds the step cap "
                f"{_ANTICHAIN_STEP_CAP}")

    def rec(free: int, pos: int) -> bool:
        # free: the indices from pos on that are coprime to every chosen member
        if len(chosen) == s:
            return True
        last = len(pool) - (s - len(chosen))  # the scan tests no index past this
        while free:
            j = (free & -free).bit_length() - 1
            if j > last:
                break
            count(j - pos + 1)
            chosen.append(pool[j])
            shared = 0
            for p in primes[j]:
                shared |= bits(p)
            if rec(free & ~shared, j + 1):
                return True
            chosen.pop()
            free &= free - 1
            pos = j + 1
        if pos <= last:
            count(last - pos + 1)
        return False

    try:
        return chosen if rec((1 << len(pool)) - 1, 0) else None
    finally:
        del rec  # it refers to itself, a cycle that would hold pool and primes until a collection


def crt_solve(congruences) -> int | None:
    """Smallest positive x with x = a_i (mod m_i) for all i; None if inconsistent.

    Moduli need not be pairwise coprime; pairs are merged via gcd compatibility.
    """
    congs = list(congruences)
    if not congs:
        raise InputError("crt_solve needs at least one congruence")
    r, m = 0, 1
    for a, n in congs:
        if n < 1:
            raise InputError(f"modulus must be >= 1, got {n}")
        a %= n
        g = math.gcd(m, n)
        if (a - r) % g != 0:
            return None
        lcm = m // g * n
        # shift r by a multiple of m landing in a's class mod n
        t = ((a - r) // g * pow(m // g, -1, n // g)) % (n // g)
        r = r + m * t
        m = lcm
        r %= m
    return r if r > 0 else m


def nth_power_completion(d: int, n: int) -> int:
    """Least l with d*l a perfect n-th power: raise each exponent to the next multiple of n."""
    if d < 1:
        raise InputError(f"expected d >= 1, got {d}")
    if n < 2:
        raise InputError(f"power index must be >= 2, got {n}")
    l = 1
    for p, e in factorize(d):
        l *= p ** ((n - e % n) % n)
    return l


def integer_nth_root(x: int, n: int) -> int:
    """Floor of the n-th root, exact integer arithmetic."""
    if x < 0 or n < 1:
        raise InputError("integer_nth_root needs x >= 0, n >= 1")
    if x == 0:
        return 0
    r = int(round(x ** (1.0 / n)))
    while r ** n > x:
        r -= 1
    while (r + 1) ** n <= x:
        r += 1
    return r
