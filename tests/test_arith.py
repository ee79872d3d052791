"""Number-theory helpers: sieve, factorization, closures, antichains, CRT."""

import itertools
import math
from array import array

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from felab import arith
from felab.errors import InputError, ResourceError
from felab.setlang.evaluate import evaluate
from felab.setlang.parser import parse


# ---------------------------------------------------------------------------
# sieve and factorization
# ---------------------------------------------------------------------------

def _trial_spf(limit):
    """Smallest-prime-factor table by trial division, 0 at 0 and 1 like the sieve's."""
    return [0, 0] + [next((d for d in range(2, math.isqrt(n) + 1) if n % d == 0), n)
                     for n in range(2, limit + 1)]


def _naive_factorize(n):
    pairs, d = [], 2
    while d * d <= n:
        e = 0
        while n % d == 0:
            n //= d
            e += 1
        if e:
            pairs.append((d, e))
        d += 1
    return pairs + [(n, 1)] * (n > 1)


def _naive_omega(n):
    return sum(e for _, e in _naive_factorize(n))


def _naive_divisors(n):
    low = [d for d in range(1, math.isqrt(n) + 1) if n % d == 0]
    return sorted(set(low) | {n // d for d in low})


def test_sieve_spf_matches_trial_division():
    ref = _trial_spf(270_000)
    # 1 << 16 is the size ensure_sieve builds first;
    # 270000 fills the slices of 2 and 3 in several pieces
    for limit in [*range(2, 601), 1 << 16, 131072, 270_000]:
        sieve = arith.Sieve(limit)
        assert sieve.table.tolist() == ref[:limit + 1]
        # the prime marks are written in the same slices: 1 exactly where spf(n) = n
        assert sieve.prime_marks == bytes(n >= 2 and ref[n] == n for n in range(limit + 1))


def test_primes_upto_cuts_at_limit():
    assert arith.primes_upto(20) == [2, 3, 5, 7, 11, 13, 17, 19]
    # the shared sieve may be larger than the request; the cut must still hold
    arith.ensure_sieve(100_000)
    assert arith.primes_upto(10)[-1] == 7
    assert arith.primes_upto(2) == [2]


def test_primes_upto_on_a_large_shared_sieve():
    arith.ensure_sieve(10**6)
    for n in (0, 1, 2, 3, 4, 30, 97, 1000):
        assert arith.primes_upto(n) == [p for p in range(2, n + 1)
                                        if all(p % d for d in range(2, p))]


def test_first_primes_and_nth_prime():
    assert arith.first_primes(10) == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]
    assert arith.first_primes(1)[-1] == 2
    assert arith.first_primes(100)[-1] == 541
    with pytest.raises(InputError):
        arith.first_primes(0)


def test_factorize_small_and_edge():
    assert arith.factorize(1) == []
    assert arith.factorize(2) == [(2, 1)]
    assert arith.factorize(360) == [(2, 3), (3, 2), (5, 1)]
    with pytest.raises(InputError):
        arith.factorize(0)


@given(st.integers(min_value=1, max_value=10**6))
def test_factorize_reconstructs(n):
    prod = 1
    for p, e in arith.factorize(n):
        assert arith.is_prime(p)
        assert e >= 1
        prod *= p**e
    assert prod == n


def test_factorize_beyond_sieve_uses_rho():
    p, q = 1_000_003, 1_000_033
    assert arith.factorize(p * q) == [(p, 1), (q, 1)]
    big = 2**31 - 1
    assert arith.factorize(big) == [(big, 1)]


def test_factorize_rejects_beyond_deterministic_range():
    with pytest.raises(ResourceError):
        arith.factorize(arith._MR_EXACT_BELOW)


def test_miller_rabin_rejects_the_least_strong_pseudoprimes():
    """Each bound of _MR_PASSED_BY below the last is composite and passes the bases
    before it, so the test must reach a further base; 318665857834031151167461 passes
    every prime base up to 37."""
    psi12 = 318665857834031151167461
    assert not arith.is_prime(psi12)
    assert arith.factorize(psi12) == [(399165290221, 1), (798330580441, 1)]
    assert arith.omega(psi12) == 2
    for psi in arith._MR_PASSED_BY[:-1]:
        assert not arith._mr_is_prime(psi), psi
    s = arith.Sieve(200_000)
    assert all(arith._mr_is_prime(n) == s.is_prime(n) for n in range(200_001))


def test_is_prime_agrees_with_sieve():
    s = arith.Sieve(2000)
    for n in range(2, 2001):
        assert arith.is_prime(n) == s.is_prime(n)
    assert not arith.is_prime(1)
    assert arith.is_prime(2**61 - 1)


def test_omega_counts_with_multiplicity():
    assert arith.omega(1) == 0
    assert arith.omega(2) == 1
    assert arith.omega(12) == 3
    assert arith.omega(2**10) == 10


def test_omega_upto_matches_pointwise():
    table = arith.omega_upto(3000)
    for n in range(1, 3001):
        assert table[n] == arith.omega(n)


def test_omega_upto_is_one_shared_table(monkeypatch):
    monkeypatch.setattr(arith, "_omega_table", array("B", [0, 0]))
    table = arith.omega_upto(3000)
    assert arith.omega_upto(1000) is table and len(table) == 3001
    assert arith.omega_upto(5000) is table and len(table) == 5001
    assert all(table[n] == arith.omega(n) for n in range(1, 5001))


@given(st.integers(min_value=1, max_value=20000), st.integers(min_value=1, max_value=20000))
def test_omega_is_fully_additive(a, b):
    assert arith.omega(a * b) == arith.omega(a) + arith.omega(b)


# ---------------------------------------------------------------------------
# divisors and closures
# ---------------------------------------------------------------------------

def test_divisors_sorted_and_complete():
    assert arith.divisors(1) == [1]
    assert arith.divisors(28) == [1, 2, 4, 7, 14, 28]
    for n in range(1, 300):
        ds = arith.divisors(n)
        assert ds == sorted(ds)
        assert ds == [d for d in range(1, n + 1) if n % d == 0]


def test_divisors_and_omega_match_naive_around_the_sieve(monkeypatch):
    """From no sieve at all, then inside, at and just past each limit the shared
    sieve reaches, and on numbers only Brent rho splits."""
    monkeypatch.setattr(arith, "_sieve", None)
    assert arith.omega(720) == 7 and arith.divisors(720) == _naive_divisors(720)
    for grow in (None, 100_000):
        if grow:
            arith.ensure_sieve(grow)
        top = arith._sieve.limit
        for n in [*range(1, 200), *range(top - 100, top + 100)]:
            assert arith.omega(n) == _naive_omega(n), n
            assert arith.divisors(n) == _naive_divisors(n), n
    p, q = 1_000_003, 1_000_033
    assert arith.omega(p * q) == 2 and arith.omega(4 * p * q * q) == 5
    assert arith.divisors(p * q) == [1, p, q, p * q]
    assert arith.divisors(2 * p * p) == [1, 2, p, 2 * p, p * p, 2 * p * p]


def test_omega_above_the_sieve_matches_naive(monkeypatch):
    """Each way omega finishes above the sieve: on the table after the small-prime
    strip, with one primality test below 101**3, and with Brent rho at or above it."""
    def next_prime(n):
        return next(m for m in itertools.count(n + 1) if _naive_omega(m) == 1)

    cube = 101 ** 3
    p, q = 1_000_003, 1_000_033
    for limit in (65536, 100_000, 131072):
        monkeypatch.setattr(arith, "_sieve", None)
        assert arith.ensure_sieve(limit).limit == limit
        hand = [cube, 101 * 103 * 107, 99991 * 99989,
                next(m for m in range(cube - 1, 0, -1) if _naive_omega(m) == 1),
                2 * next_prime(limit), 97 ** 4 * 101, p * q, 4 * p * q * q]
        # s*s*r lies above the limit and below 101**3 with r prime: every small prime s
        # must be stripped, or what is left goes to the primality test as two factors
        hand += [s * s * next_prime(max(100, limit // (s * s))) for s in arith._SMALL_PRIMES]
        for n in [*range(limit + 1, limit + 2001), *hand]:
            assert arith.omega(n) == _naive_omega(n), (limit, n)
            assert arith.factorize(n) == _naive_factorize(n), (limit, n)
        # only the first call above 65536 grows the sieve, to the size factorize asks for
        assert arith._sieve.limit == max(limit, 131072 if limit < 100_000 else limit)
    with pytest.raises(InputError, match="factorize expects n >= 1, got 0"):
        arith.omega(0)
    with pytest.raises(ResourceError, match="beyond the deterministic primality range"):
        arith.omega(arith._MR_EXACT_BELOW)


def _closure(kind: str, S, H: int) -> list[int]:
    """The up or down node of the set language over {S}, cut at H."""
    text = "%s({%s})" % (kind, ",".join(str(x) for x in sorted(S)))
    return evaluate(parse(text), H).elements(H)


def test_up_closure():
    assert _closure("up", {2, 3}, 12) == [2, 3, 4, 6, 8, 9, 10, 12]
    assert _closure("up", {5}, 4) == []


def test_down_closure():
    assert _closure("down", {12}, 100) == [1, 2, 3, 4, 6, 12]
    assert _closure("down", {6, 10}, 5) == [1, 2, 3, 5]


def test_closures_are_inverse_galois_on_samples():
    H = 60
    for S in ({2, 9}, {7}, {3, 4, 5}):
        up = _closure("up", S, H)
        assert all(any(x % s == 0 for s in S) for x in up)
        down = _closure("down", S, H)
        assert all(any(s % x == 0 for s in S) for x in down)


# ---------------------------------------------------------------------------
# antichains
# ---------------------------------------------------------------------------

def test_strong_antichain_is_pairwise_coprime():
    assert arith.is_strong_antichain({3, 5, 7, 11})
    assert arith.is_strong_antichain({4, 9, 25})
    assert not arith.is_strong_antichain({6, 10})
    with pytest.raises(InputError):
        arith.is_strong_antichain({1, 3})


def test_extract_strong_antichain_lex_least():
    assert arith.extract_strong_antichain(range(2, 50), 4, 50) == [2, 3, 5, 7]
    assert arith.extract_strong_antichain({4, 6, 9, 10, 25, 49}, 3, 100) == [4, 9, 25]
    assert arith.extract_strong_antichain({6, 10, 15}, 2, 100) is None
    assert arith.extract_strong_antichain({8, 9}, 2, 8) is None  # 9 beyond the bound


def test_extract_strong_antichain_step_cap():
    # 1500 even numbers share the factor 2: the search tries about 1.1M
    # (first, second) candidates before it could report None
    with pytest.raises(ResourceError, match="step cap"):
        arith.extract_strong_antichain(range(2, 3002, 2), 2, 3002)


def _plain_antichain_scan(A, s, H, cap):
    """The search as a plain scan: every candidate from the start index on is one
    step, coprime or not, tested by gcd against the members chosen so far.
    Returns the antichain, None, or "cap" where the scan would raise."""
    pool = sorted(x for x in set(A) if 2 <= x <= H)
    chosen, steps = [], 0

    def rec(start):
        nonlocal steps
        if len(chosen) == s:
            return True
        for idx in range(start, len(pool)):
            if len(pool) - idx < s - len(chosen):
                return False
            steps += 1
            if steps > cap:
                raise ResourceError("step cap")
            if all(math.gcd(pool[idx], x) == 1 for x in chosen):
                chosen.append(pool[idx])
                if rec(idx + 1):
                    return True
                chosen.pop()
        return False

    try:
        return chosen if rec(0) else None
    except ResourceError:
        return "cap"


@settings(max_examples=300)
@given(st.lists(st.integers(min_value=2, max_value=4999), max_size=30),
       st.integers(min_value=1, max_value=5), st.sampled_from([5, 20, 100, 1000]))
def test_extract_strong_antichain_matches_the_plain_scan(pool, s, cap):
    """Same antichain, and a step-cap error on exactly the inputs where the plain
    scan would raise one."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(arith, "_ANTICHAIN_STEP_CAP", cap)
        try:
            got = arith.extract_strong_antichain(pool, s, 5000)
        except ResourceError:
            got = "cap"
    assert got == _plain_antichain_scan(pool, s, 5000, cap)


@st.composite
def _pools_and_sizes(draw):
    """A pool from [2, 400] and s in [2, 5]; half of the pools share one of the
    first s - 1 primes with every member, so that no s members are pairwise
    coprime and the search fails however long the pool."""
    s = draw(st.integers(min_value=2, max_value=5))
    primorial = (2, 6, 30, 210)[s - 2]
    hits = [x for x in range(2, 401) if math.gcd(x, primorial) > 1]
    pool = draw(st.one_of(st.sets(st.integers(min_value=2, max_value=400), max_size=60),
                          st.sets(st.sampled_from(hits), min_size=20, max_size=120)))
    return sorted(pool), s


@settings(max_examples=200, deadline=None)
@given(_pools_and_sizes(), st.integers(min_value=50, max_value=5000))
def test_a_failing_search_fails_on_every_prefix(pool_and_s, cap):
    """When the search over a whole pool ends under the step cap without an
    antichain, so does the search over each of its ascending prefixes: NMAX*
    relies on this to settle a pool with one search."""
    pool, s = pool_and_s
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(arith, "_ANTICHAIN_STEP_CAP", cap)
        try:
            whole = arith.extract_strong_antichain(pool, s, 400)
        except ResourceError:
            return
        if whole is None:
            for n in range(len(pool)):
                assert arith.extract_strong_antichain(pool[:n], s, 400) is None


@given(st.sets(st.integers(min_value=2, max_value=120), min_size=1, max_size=14),
       st.integers(min_value=1, max_value=4))
def test_extract_antichain_result_is_valid_and_least(pool, s):
    got = arith.extract_strong_antichain(pool, s, 120)
    if got is None:
        return
    assert len(got) == s
    assert arith.is_strong_antichain(got)
    assert set(got) <= set(pool)
    # no valid choice can precede the reported one lexicographically
    smaller = [x for x in sorted(pool) if x < got[0]]
    for x in smaller:
        rest = [y for y in pool if y > x and math.gcd(x, y) == 1]
        assert arith.extract_strong_antichain(rest, s - 1, 120) is None or s == 1


# ---------------------------------------------------------------------------
# CRT
# ---------------------------------------------------------------------------

def test_crt_basic():
    assert arith.crt_solve([(2, 3), (3, 5), (2, 7)]) == 23
    assert arith.crt_solve([(0, 4)]) == 4  # smallest positive representative
    assert arith.crt_solve([(1, 2), (0, 4)]) is None
    assert arith.crt_solve([(2, 6), (8, 9)]) == 8
    assert arith.crt_solve([(5, 6), (8, 9)]) == 17
    with pytest.raises(InputError):
        arith.crt_solve([])


@given(st.lists(st.tuples(st.integers(min_value=0, max_value=50),
                          st.integers(min_value=1, max_value=30)),
                min_size=1, max_size=4))
def test_crt_solution_satisfies_all(congs):
    x = arith.crt_solve(congs)
    if x is None:
        return
    assert x >= 1
    for a, m in congs:
        assert x % m == a % m


# ---------------------------------------------------------------------------
# powers
# ---------------------------------------------------------------------------

def test_nth_power_completion_examples():
    assert arith.nth_power_completion(8, 2) == 2
    assert arith.nth_power_completion(12, 2) == 3
    assert arith.nth_power_completion(1, 5) == 1
    assert arith.nth_power_completion(360, 3) == 75


@given(st.integers(min_value=1, max_value=5000), st.integers(min_value=2, max_value=4))
def test_nth_power_completion_minimal(d, n):
    l = arith.nth_power_completion(d, n)
    root = arith.integer_nth_root(d * l, n)
    assert root**n == d * l
    # exponents of l stay below n, which forces minimality
    assert all(e < n for _, e in arith.factorize(l)) or l == 1


def test_integer_nth_root():
    assert arith.integer_nth_root(0, 3) == 0
    assert arith.integer_nth_root(26, 3) == 2
    assert arith.integer_nth_root(27, 3) == 3
    assert arith.integer_nth_root(10**18, 2) == 10**9
    big = 31**17
    assert arith.integer_nth_root(big, 17) == 31
    assert arith.integer_nth_root(big - 1, 17) == 30


@settings(max_examples=60)
@given(st.integers(min_value=0, max_value=10**12), st.integers(min_value=1, max_value=6))
def test_integer_nth_root_floor_property(x, n):
    r = arith.integer_nth_root(x, n)
    assert r**n <= x < (r + 1) ** n
