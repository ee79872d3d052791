"""Generators for the named families and fixtures: pinned prefixes and defining laws."""

import itertools

import pytest
from hypothesis import given
from hypothesis import strategies as st

from felab import arith
from felab.constructions import (FIXTURES, SEQUENCE_RULES, build_fixture,
                                 _IncreasingStream, _sidon_stream, gen_equal_exponent,
                                 gen_fp_prime_subset, gen_levelfix, gen_mj_funcs,
                                 gen_prophier, gen_thick_nonmaxstar,
                                 equal_exponent_pred, pseudointersection,
                                 sequence_terms, sidon_level_union_expr,
                                 thick_auto_nmax)
from felab.errors import InputError, ParseError, ResourceError
from felab.setlang import nodes
from felab.setlang.evaluate import evaluate
from felab.setlang.parser import parse


# ---------------------------------------------------------------------------
# sum-dominating sequences
# ---------------------------------------------------------------------------

def test_exgamma_prefix():
    assert sequence_terms("exgamma", (10,), 0) == ([1, 2, 6, 12, 25, 48, 98, 200, 396, 790], True)
    assert sequence_terms("exgamma", (30,), 0)[0][-1] == 830258580


def test_exgamma_laws():
    seq, _ = sequence_terms("exgamma", (200,), 0)
    total = 0
    for n, a in enumerate(seq, start=1):
        assert a % n == 0, f"index {n} does not divide its term"
        assert a > total, f"term {a} fails to dominate the earlier sum {total}"
        assert a - n <= total, f"term {a} is not the least valid multiple of {n}"
        total += a


def test_fastgrowth_prefix_and_law():
    assert sequence_terms("fastgrowth", (8,), 0) == ([1, 4, 9, 19, 39, 79, 159, 319], True)
    total = 0
    for n, a in enumerate(sequence_terms("fastgrowth", (100,), 0)[0], start=1):
        assert a == (1 if n == 1 else n + total + 1)
        total += a


def test_sidon_prefix_and_distinct_differences():
    seq = sequence_terms("sidon", (10,), 0)[0]
    assert seq == [1, 2, 4, 8, 13, 21, 31, 45, 66, 81]
    long = sequence_terms("sidon", (40,), 0)[0]
    diffs = [b - a for i, a in enumerate(long) for b in long[i + 1:]]
    assert len(diffs) == len(set(diffs))
    assert sequence_terms("sidon", (5,), 0) == ([1, 2, 4, 8, 13], True)


def test_sidon_is_greedy_minimal():
    seq = sequence_terms("sidon", (25,), 0)[0]
    diffs = set()
    for i, a in enumerate(seq):
        prior = seq[:i]
        # every smaller candidate above the previous term repeats a difference
        lo = prior[-1] + 1 if prior else 1
        for cand in range(lo, a):
            assert any(cand - t in diffs for t in prior)
        diffs.update(a - t for t in prior)


def _plain_sidon_scan(bound):
    """The greedy distinct-difference sequence as a plain scan: each candidate is
    tested against every earlier term."""
    terms, diffs = [], set()
    for cand in range(1, bound + 1):
        if not any(cand - t in diffs for t in terms):
            diffs.update(cand - t for t in terms)
            terms.append(cand)
    return terms


def test_sidon_stream_matches_the_plain_scan():
    # the first 161 terms are those <= 100000; islice stops a stream that stalls
    got = list(itertools.islice(_sidon_stream(), 162))
    assert got[:161] == _plain_sidon_scan(100_000) and got[161] > 100_000


def test_increasing_stream_get_and_take_agree():
    """A stream read term by term and one read by prefixes hold the same terms."""
    by_get, by_take = _IncreasingStream(_sidon_stream()), _IncreasingStream(_sidon_stream())
    assert [by_get.get(i) for i in range(40)] == by_take.take(40) == by_get.take(40)
    assert by_take.take(0) == [] and by_take.get(39) == by_get.terms[39]
    assert by_take.take(50)[40:] == [by_get.get(i) for i in range(40, 50)]


def test_sequence_terms_named_rules():
    assert sequence_terms("exgamma", (6,), 10**9) == ([1, 2, 6, 12, 25, 48], True)
    terms, pinned = sequence_terms("fastgrowth", (), 400)
    assert (terms, pinned) == ([1, 4, 9, 19, 39, 79, 159, 319], False)
    assert sequence_terms("primeseq", ("odd", 6), 0)[0] == [2, 5, 11, 17, 23, 31]
    assert sequence_terms("primeseq", ("even", 6), 0)[0] == [3, 7, 13, 19, 29, 37]
    assert sequence_terms("primeseq", ("all", 4), 0)[0] == [2, 3, 5, 7]
    terms, pinned = sequence_terms("primeseq", ("odd",), 50)
    assert not pinned and terms == [2, 5, 11, 17, 23, 31, 41, 47]


@pytest.mark.parametrize("rule,params", [
    ("nope", ()), ("primeseq", ()), ("primeseq", ("prime",)),
    ("exgamma", (3, 4)), ("exgamma", ("x",)), ("sidon", (0,)),
])
def test_sequence_terms_rejects(rule, params):
    # an unknown rule or a malformed shape is refused by the parser (its error
    # texts are in test_setlang); the values of primeseq(prime) and sidon(0)
    # parse and are refused here
    text = f"fs({rule}({','.join(map(str, params))}))"
    if params in (("prime",), (0,)):
        seq = parse(text).seq
        with pytest.raises(InputError):
            sequence_terms(seq.rule, seq.params, 100)
    else:
        with pytest.raises(ParseError):
            parse(text)


def test_count_cap():
    with pytest.raises(ResourceError):
        sequence_terms("exgamma", (10_001,), 0)
    with pytest.raises(InputError):
        sequence_terms("exgamma", (0,), 0)


# ---------------------------------------------------------------------------
# interleaved level unions
# ---------------------------------------------------------------------------

def test_sidon_level_union_expr():
    assert sidon_level_union_expr(5, 0) == nodes.Union(
        (nodes.Level(1), nodes.Level(4), nodes.Level(13)))
    assert sidon_level_union_expr(5, 1) == nodes.Union(
        (nodes.Level(2), nodes.Level(8)))
    assert sidon_level_union_expr(1, 0) == nodes.Level(1)
    with pytest.raises(InputError):
        sidon_level_union_expr(1, 1)
    with pytest.raises(InputError):
        sidon_level_union_expr(3, 2)


def test_sidon_level_union_sides_are_disjoint():
    A0 = evaluate(sidon_level_union_expr(5, 0), 3000)
    A1 = evaluate(sidon_level_union_expr(5, 1), 3000)
    for n in range(1, 3001):
        assert not (A0.contains(n) and A1.contains(n))


# ---------------------------------------------------------------------------
# run-of-every-length fixture
# ---------------------------------------------------------------------------

def test_thick_fixture_shape():
    fx = gen_thick_nonmaxstar(4)
    assert fx.blocks == ((2,), (4, 5), (7, 8, 9), (13, 14, 15, 16))
    assert fx.avoided == (3, 6, 12, 20)
    assert fx.members == (2, 4, 5, 7, 8, 9, 13, 14, 15, 16)


def test_thick_fixture_laws():
    fx = gen_thick_nonmaxstar(25)
    members = set(fx.members)
    prev_end = 1
    for n, (block, dodge) in enumerate(zip(fx.blocks, fx.avoided), start=1):
        assert len(block) == n
        assert list(block) == list(range(block[0], block[0] + n))  # consecutive run
        assert block[0] > prev_end  # blocks strictly separated
        assert dodge % n == 0 and dodge > block[-1]
        assert dodge not in members
        # the dodged multiple is the first multiple of n after its block
        assert dodge - n <= block[-1]
        prev_end = dodge


def test_thick_auto_nmax():
    """The largest n whose block ends at or below h, and at least 1: the least n
    whose next block, n + 1, ends past h."""
    assert thick_auto_nmax(16) == 4
    assert thick_auto_nmax(15) == 3
    ends = [block[-1] for block in gen_thick_nonmaxstar(200).blocks]
    assert ends[-1] > 5000
    for h in range(1, 5001):
        assert thick_auto_nmax(h) == next(n for n in range(1, 200) if ends[n] > h)
    fx = gen_thick_nonmaxstar(thick_auto_nmax(100_000))
    assert fx.blocks[-1][-1] <= 100_000
    assert gen_thick_nonmaxstar(thick_auto_nmax(100_000) + 1).blocks[-1][-1] > 100_000


# ---------------------------------------------------------------------------
# equal-exponent numbers
# ---------------------------------------------------------------------------

def test_equal_exponent_examples():
    assert equal_exponent_pred(36) is True      # 2^2 * 3^2
    assert equal_exponent_pred(12) is False     # 2^2 * 3
    assert equal_exponent_pred(30) is True      # squarefree
    assert equal_exponent_pred(8) is True       # single prime power
    assert equal_exponent_pred(1) is False
    assert gen_equal_exponent(36)[:12] == [2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 13, 14]


def test_equal_exponent_at_horizon_one():
    """Below 2 the listing is simply empty, as every other set evaluates at horizon 1."""
    assert gen_equal_exponent(1) == []
    A = evaluate(parse("construct(equal_exponent)"), 1)
    assert A.elements() == [] and A.complete_below == 1 and A.contains(4) is True


def test_equal_exponent_listing_matches_pred():
    H = 5000
    assert gen_equal_exponent(H) == [n for n in range(2, H + 1) if equal_exponent_pred(n)]


def test_equal_exponent_generator_matches_the_predicate():
    """The squarefree sieve lists what the predicate accepts, at every small horizon and
    at two past the default sieve size; past the sieve cap it refuses, as every
    sieve-backed set does."""
    for H in [*range(401), 65536, 100_000]:
        assert gen_equal_exponent(H) == [n for n in range(2, H + 1) if equal_exponent_pred(n)]
    with pytest.raises(ResourceError, match=f"sieve limit {arith.DEFAULT_SIEVE_CAP + 1} exceeds cap"):
        gen_equal_exponent(arith.DEFAULT_SIEVE_CAP + 1)


@given(st.integers(min_value=2, max_value=10**6))
def test_equal_exponent_pred_law(n):
    exps = {e for _, e in arith.factorize(n)}
    assert equal_exponent_pred(n) == (len(exps) == 1)


# ---------------------------------------------------------------------------
# paired function tables
# ---------------------------------------------------------------------------

def test_mj_funcs_tables():
    f, g = gen_mj_funcs(4)
    assert f == (45, 539, 2873, 8303)
    assert g == (75, 847, 3757, 10051)


def test_mj_funcs_laws():
    f, g = gen_mj_funcs(8)
    ps = arith.first_primes(17)
    for i in range(1, 9):
        p, q = ps[2 * i - 1], ps[2 * i]
        assert f[i - 1] == p * p * q and g[i - 1] == p * q * q
        assert sorted(dict(arith.factorize(f[i - 1])).values()) == [1, 2]
        assert g[i - 1] % f[i - 1] != 0 and f[i - 1] % g[i - 1] != 0


# ---------------------------------------------------------------------------
# subset products of selected primes
# ---------------------------------------------------------------------------

def _fp_primes(*params):
    return build_fixture(nodes.Construct("fp_primes", params)).elements()


def test_fp_prime_subset_small():
    assert gen_fp_prime_subset("odd", 3) == (2, 5, 11)
    assert _fp_primes("odd", 3) == [2, 5, 10, 11, 22, 55, 110]


def test_fp_prime_subset_six():
    members = _fp_primes("odd", 6)
    assert len(members) == 63
    assert max(members) == 2 * 5 * 11 * 17 * 23 * 31 == 1333310
    base = set(gen_fp_prime_subset("odd", 6))
    for m in members:
        assert all(p in base and e == 1 for p, e in arith.factorize(m))


def test_fp_prime_subset_explicit_indices():
    assert gen_fp_prime_subset((2, 4)) == (3, 7)
    assert _fp_primes((2, 4)) == [3, 7, 21]


@pytest.mark.parametrize("word", ["odd", "even", "all"])
def test_fp_primes_lists_the_subset_products_of_primeseq(word):
    """construct(fp_primes,W,n) is fp(primeseq(W,n)): the same primes, from the same rule."""
    for n in range(1, 18):
        fixture = evaluate(parse(f"construct(fp_primes,{word},{n})"), 1000)
        closure = evaluate(parse(f"fp(primeseq({word},{n}))"), 1000)
        assert fixture.elements() == closure.elements()
    with pytest.raises(ResourceError) as exc:
        gen_fp_prime_subset(word, 18)
    assert str(exc.value) == "closure of 18 primes exceeds the subset cap 200000"


def test_fp_prime_subset_rejects():
    with pytest.raises(InputError):
        gen_fp_prime_subset("odd")
    with pytest.raises(InputError):
        gen_fp_prime_subset(())
    with pytest.raises(InputError):
        gen_fp_prime_subset((0, 2))
    with pytest.raises(InputError):
        gen_fp_prime_subset("backwards", 3)


# ---------------------------------------------------------------------------
# hierarchical products and pinned-factor levels
# ---------------------------------------------------------------------------

def test_prophier_single_block():
    got = gen_prophier([[2, 3, 5]], [2], [2], 1000)
    assert got == [36, 100, 225]


def test_prophier_identical_blocks_share_primes():
    got = gen_prophier([[2, 3, 5], [2, 3, 5]], [1, 2], [1, 1], 1000)
    assert got == [12, 18, 20, 45, 50, 75]


def test_prophier_disjoint_blocks():
    got = gen_prophier([[2, 3], [5, 7]], [1, 1], [1, 1], 1000)
    assert got == [10, 14, 15, 21]


def test_prophier_rejects():
    with pytest.raises(InputError):
        gen_prophier([], [], [], 10)
    with pytest.raises(InputError):
        gen_prophier([[4]], [1], [1], 10)
    with pytest.raises(InputError):
        gen_prophier([[2, 3], [3, 5]], [1, 1], [1, 1], 10)  # overlapping, not identical
    with pytest.raises(InputError):
        gen_prophier([[2, 3]], [1], [3], 10)  # more primes than the block holds


def test_levelfix_basic():
    got = gen_levelfix([1], [2], 2, 100)
    assert got == [2 * q for q in arith.primes_upto(50)]
    # all three factors pinned: a single product
    assert gen_levelfix([1, 2, 3], [2, 3, 5], 3, 100) == [30]
    # least factor pinned to 3 forces all factors >= 3
    for m in gen_levelfix([1], [3], 2, 400):
        fac = arith.factorize(m)
        assert sum(e for _, e in fac) == 2
        assert min(p for p, _ in fac) == 3


def test_levelfix_matches_brute():
    H = 2000

    def brute(ps_fixed, n):
        out = []
        for m in range(2, H + 1):
            fac = sorted([p for p, e in arith.factorize(m) for _ in range(e)])
            if len(fac) == n and all(fac[pos - 1] == q for pos, q in ps_fixed):
                out.append(m)
        return out

    assert gen_levelfix([2], [7], 3, H) == brute([(2, 7)], 3)
    assert gen_levelfix([1, 3], [2, 5], 3, H) == brute([(1, 2), (3, 5)], 3)


def test_levelfix_rejects():
    with pytest.raises(InputError):
        gen_levelfix([], [], 2, 100)
    with pytest.raises(InputError):
        gen_levelfix([3], [2], 2, 100)  # position beyond the factor count
    with pytest.raises(InputError):
        gen_levelfix([1, 2], [5, 3], 3, 100)  # pinned primes out of order
    with pytest.raises(InputError):
        gen_levelfix([1], [6], 2, 100)


# ---------------------------------------------------------------------------
# chain transversal
# ---------------------------------------------------------------------------

def _sets(*texts, horizon=200):
    return [evaluate(parse(t), horizon) for t in texts]


def test_pseudointersection_basic():
    assert pseudointersection(_sets("mult(2)", "mult(4)", "mult(12)"), 3, 200) == (2, 4, 12)


def test_pseudointersection_escape_counts():
    chain = _sets("N", "mult(2)", "mult(6)", "mult(30)")
    res = pseudointersection(chain, 4, 200)
    assert res == (1, 2, 6, 30)
    Y = set(res)
    for i, X in enumerate(chain, start=1):
        outside = [y for y in Y if X.contains(y) is False]
        assert len(outside) < i


def test_pseudointersection_partial():
    # the second set has nothing above 2, so only one of the two values comes back
    assert pseudointersection(_sets("{2}", "{2}"), 2, 200) == (2,)


def test_pseudointersection_rejects():
    with pytest.raises(InputError):
        pseudointersection(_sets("mult(2)", "N"), 2, 200)  # not decreasing
    with pytest.raises(InputError):
        pseudointersection(_sets("N"), 2, 200)  # more values than sets
    with pytest.raises(InputError):
        pseudointersection([], 1, 200)


# ---------------------------------------------------------------------------
# fixture catalog
# ---------------------------------------------------------------------------

def test_build_fixture_exgamma():
    A = build_fixture(nodes.Construct("exgamma", (6,)))
    assert A.elements() == [1, 2, 6, 12, 25, 48]
    assert A.is_exact and A.finite


def test_build_fixture_defaults_to_horizon():
    A = build_fixture(nodes.Construct("fastgrowth", ()), 1000)
    assert A.elements() == [1, 4, 9, 19, 39, 79, 159, 319, 639]
    assert A.contains(640) is False  # exact via the growth law


def test_build_fixture_thick_auto():
    A = build_fixture(nodes.Construct("thick_nonmaxstar", ()), 100)
    fx = gen_thick_nonmaxstar(thick_auto_nmax(100))
    assert tuple(A.elements()) == fx.members


def test_build_fixture_rejects():
    levels = sidon_level_union_expr(4, 0)
    A = build_fixture(nodes.Construct("sidon_levels", (4, 0)))
    assert A.expr == levels == nodes.Union((nodes.Level(1), nodes.Level(4)))
    assert A.elements() == evaluate(levels).elements()
    with pytest.raises(InputError) as exc:
        nodes.Construct("no_such_fixture", ())
    assert "unknown fixture 'no_such_fixture'" in str(exc.value)
    assert len(FIXTURES) == 9


def test_every_catalog_name_and_sequence_rule_parses():
    valid = {"exgamma": "8", "fastgrowth": "", "sidon": "10", "thick_nonmaxstar": "5",
             "equal_exponent": "", "fp_primes": "odd,4", "prophier": "[2,3,5],2,1,[7,11],1,2",
             "levelfix": "[1],[2],3", "sidon_levels": "6,1"}
    assert set(valid) == set(FIXTURES)
    for name, params in valid.items():
        text = f"construct({name}{',' if params else ''}{params})"
        assert nodes.unparse(parse(text)) == text
    rules = {"exgamma": "", "fastgrowth": "3", "sidon": "", "primeseq": "odd,5"}
    assert set(rules) == set(SEQUENCE_RULES)
    for rule, params in rules.items():
        assert nodes.unparse(parse(f"fp({rule}({params}))")) == f"fp({rule}({params}))"


def test_fixture_evaluates_through_expressions():
    A = evaluate(parse("construct(equal_exponent)"), 2000)
    for n in range(2, 500):
        assert A.contains(n) == equal_exponent_pred(n)
    B = evaluate(parse("construct(sidon_levels,5,1)"), 2000)
    assert B.contains(6) is True     # two factors
    assert B.contains(2) is False    # one factor sits on the other side
    assert B.contains(256) is True   # eight factors
