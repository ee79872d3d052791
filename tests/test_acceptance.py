"""Acceptance gate: the ten shipped criteria, one reported line each."""

from __future__ import annotations

import itertools
import json
import math
import os
import random
import shutil
import subprocess
import sys
import contextlib
import io

import pytest

import conftest
from felab import arith, cli, constructions, embed, largeness
from felab.embed import FeRefutation, FeWitness
from felab.errors import FelabError
from felab.setlang import analysis
from felab.setlang.evaluate import evaluate
from felab.setlang.nodes import Explicit
from felab.setlang.parser import parse

H = 10_000


def ev(text, horizon=H):
    return evaluate(parse(text), horizon)


def criterion(num, title):
    """Record one pass/fail line per criterion for the terminal summary."""
    def deco(fn):
        def wrapper():
            try:
                fn()
            except BaseException:
                conftest.record_criterion(num, "FAIL", title)
                raise
            conftest.record_criterion(num, "PASS", title)
        wrapper.__name__ = fn.__name__
        wrapper.__doc__ = fn.__doc__
        return wrapper
    return deco


# ---------------------------------------------------------------------------
# 1. the direct witness search and the finite-intersection oracle agree
# ---------------------------------------------------------------------------

C1_CORPUS = [
    "N", "odd", "primes", "mult(2)", "mult(3)", "mult(6)", "mult(7)",
    "ap(2,5)", "ap(3,4)", "ap(1,9)", "level(1)", "level(2)", "level(3)",
    "{1,2,3,4,5,6,7,8,9,10,11,12}", "{2,3,5,7,11,13,17,19,23}",
    "{6,12,18,24,30,36,42,48}", "{1,4,9,16,25,36,49,64,81,100}",
    "union(mult(4),mult(9))", "inter(mult(2),ap(1,3))", "compl(mult(2))",
    "dilate(3,ap(2,5))", "quot(mult(12),4)", "shift(mult(5),2)",
    "up({6,10,15})", "down({360})", "fp([2,3,5])", "fs([1,4,9])",
    "fs(fastgrowth())", "fs(exgamma())",
]


@criterion(1, "witness search == finite-intersection oracle on 1050 seeded instances")
def test_c01_witness_oracle_equivalence():
    sets = {s: ev(s, 3000) for s in C1_CORPUS}
    rng = random.Random(20260813)
    tally = {}
    checked = 0
    for _ in range(1050):
        fam = tuple(sorted(rng.sample(range(1, 61), rng.randint(1, 6))))
        text = rng.choice(C1_CORPUS)
        outcomes = []
        for fn in (embed.fe_witness, embed.fe_fip_oracle):
            try:
                outcomes.append(("result", fn(fam, sets[text], 400).to_json()))
            except FelabError as exc:
                outcomes.append((type(exc).__name__, str(exc)))
        assert outcomes[0] == outcomes[1], (fam, text, outcomes)
        kind = outcomes[0][1].get("kind", "witness") \
            if outcomes[0][0] == "result" else outcomes[0][0]
        tally[kind] = tally.get(kind, 0) + 1
        checked += 1
    assert checked >= 1000
    # the seeded corpus must exercise all outcome classes, not one degenerate branch
    assert tally.get("witness", 0) >= 300
    assert tally.get("finite-target", 0) + tally.get("exhausted", 0) >= 400
    assert tally.get("PrecisionError", 0) >= 1


# ---------------------------------------------------------------------------
# 2. singleton dilation reduces to divisibility
# ---------------------------------------------------------------------------

@criterion(2, "singleton {m} maps into {n} iff m | n, with k = n/m (all m,n <= 200)")
def test_c02_singleton_divisibility_exhaustive():
    pairs = 0
    for n in range(1, 201):
        target = evaluate(Explicit((n,)), 500)
        for m in range(1, 201):
            res = embed.fe_witness((m,), target, 10 ** 6)
            if n % m == 0:
                assert isinstance(res, FeWitness) and res.k == n // m, (m, n, res)
            else:
                assert isinstance(res, FeRefutation) and res.exact, (m, n, res)
            pairs += 1
    assert pairs == 40_000


# ---------------------------------------------------------------------------
# 3. every quotient set embeds back into its source with witness <= n
# ---------------------------------------------------------------------------

C3_TEMPLATES = [
    "mult(%d)", "ap(%d,7)", "union(mult(%d),mult(11))", "dilate(2,mult(%d))",
    "inter(mult(2),mult(%d))", "level(2)", "level(3)", "up({%d,9})",
    "compl(ap(1,%d))", "shift(mult(%d),1)",
]


@criterion(3, "quot(B,n) prefix-embeds into B, witness <= n, on 100 corpus sets")
def test_c03_quotient_embeds_into_source():
    rng = random.Random(97)
    done = 0
    tries = 0
    smaller = 0
    while done < 100 and tries < 400:
        tries += 1
        tpl = rng.choice(C3_TEMPLATES)
        text = tpl % rng.randint(2, 12) if "%d" in tpl else tpl
        n = rng.randint(1, 12)
        B = ev(text, 6000)
        A = ev("quot(%s,%d)" % (text, n), 6000)
        known = A.elements()
        if not known:
            continue
        p = min(4, len(known))
        v, _ = embed.fe_prefix_check(A, B, p, 12)
        assert v.status == "proved", (text, n, v)
        w = v.certificate["witness"]["k"]
        assert w <= n, (text, n, w)
        # the canonical dilation n itself must also verify, member by member
        fam = tuple(known[:p])
        assert all(B.contains(n * x) is True for x in fam), (text, n)
        smaller += w < n
        done += 1
    assert done == 100
    assert 0 < smaller < 100  # both a-smaller-witness and the canonical case occur


# ---------------------------------------------------------------------------
# 4. the strictly decreasing chain and its refutation log
# ---------------------------------------------------------------------------

CHAIN_LEVELS = [
    (1, 2, 3, 4, 5, 6, 7, 8),
    (2, 3, 5, 7, 8, 9, 11, 12),
    (3, 5, 7, 8, 11, 13, 17, 19),
    (5, 7, 8, 11, 13, 17, 19, 20),
    (7, 8, 11, 13, 17, 19, 20, 23),
    (8, 11, 13, 17, 19, 20, 23, 25),
]


@criterion(4, "chain depth=5 per_level=8: strict nesting + refutations re-verified")
def test_c04_decreasing_chain():
    chain = embed.decreasing_chain(5, 8)
    assert list(chain.levels) == CHAIN_LEVELS
    for n in range(5):
        # displayed elements come from the parent's accepted stream, and the
        # construction drops the parent's minimum, so minima strictly increase
        assert set(chain.levels[n + 1]) <= set(chain.extended[n])
        assert chain.extended[n + 1][0] > chain.extended[n][0]
    assert len(chain.refutations) == 5
    for n, ref in enumerate(chain.refutations):
        assert isinstance(ref, FeRefutation) and ref.exact
        assert ref.family == chain.blocked[n]
        target = evaluate(Explicit(tuple(chain.extended[n + 1])), H)
        res = embed.fe_witness(chain.blocked[n], target, 10 ** 6)
        assert isinstance(res, FeRefutation) and res.exact
        assert res.kind == "finite-target"
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(["chain", "5", "8", "--verify", "--json"])
    assert code == 0
    payload = json.loads(buf.getvalue())
    assert payload["verified_refutations"] == 5
    assert [tuple(lv) for lv in payload["result"]["levels"]] == CHAIN_LEVELS


# ---------------------------------------------------------------------------
# 5. cross-level pairs of one level union never embed into the other
# ---------------------------------------------------------------------------

@criterion(5, "all cross-level pairs of each sidon level union are exactly refuted")
def test_c05_sidon_level_unions_cross_refuted():
    A0 = ev("construct(sidon_levels,5,0)")
    A1 = ev("construct(sidon_levels,5,1)")
    lv0 = sorted(analysis.levels_of(A0.expr))
    lv1 = sorted(analysis.levels_of(A1.expr))
    assert lv0 == [1, 4, 13] and lv1 == [2, 8]
    om = arith.omega_upto(H)
    members = {k: [] for k in lv0 + lv1}
    for n in range(1, H + 1):
        if om[n] in members:
            members[om[n]].append(n)

    def refute_all(source_levels, target):
        count = 0
        for la, lb in itertools.combinations(source_levels, 2):
            for a in members[la]:
                for b in members[lb]:
                    pair = (a, b) if a < b else (b, a)
                    r = embed.fe_refute_level(pair, target)
                    if r is None or not r.exact:
                        pytest.fail("pair %s not refuted" % (pair,))
                    count += 1
        return count

    n0 = refute_all(lv0, A1)
    n1 = refute_all(lv1, A0)
    expected0 = sum(len(members[a]) * len(members[b])
                    for a, b in itertools.combinations(lv0, 2))
    expected1 = len(members[2]) * len(members[8])
    assert (n0, n1) == (expected0, expected1)
    assert n0 + n1 > 2_000_000  # genuinely exhaustive at this horizon


# ---------------------------------------------------------------------------
# 6. the fixture verdict matrix
# ---------------------------------------------------------------------------

@criterion(6, "fixture verdict matrix at H=10^4 (7 rows, exact verdict match)")
def test_c06_fixture_verdict_matrix():
    # sum-dominating divisible sequence: universally divisible, no pair sums
    EG = ev("construct(exgamma,30)")
    elems = EG.elements()
    assert len(elems) == 30 and elems[-1] == 830258580
    v = largeness.max_check(EG, 30, H=H)
    assert v.status == "proved"
    for n, w in v.certificate["witnesses"].items():
        assert w % n == 0 and w in set(elems)
    v = largeness.ip_search(EG, 2, H=H)
    assert v.status == "bounded" and v.direction == "against"
    assert v.certificate["exhausted"] is True
    eset = set(elems)
    assert not any(a + b in eset for a, b in itertools.combinations(elems, 2))

    # products of alternate primes: multiplicative IP, blocked by an antichain
    FPX = ev("construct(fp_primes,odd,6)")
    v = largeness.ip_search(FPX, 4, H=H, mode="multiplicative")
    assert v.status == "proved"
    seq = v.certificate["sequence"]
    assert len(seq) == 4
    for r in range(1, 5):
        for combo in itertools.combinations(seq, r):
            assert FPX.contains(math.prod(combo)) is True
    v = largeness.nmax_refute(FPX, 4, H=H)
    assert v.status == "refuted"
    anti = v.certificate["antichain"]
    assert anti == [3, 7, 13, 19]
    assert all(math.gcd(a, b) == 1 for a, b in itertools.combinations(anti, 2))
    assert all(e % c for e in FPX.elements() for c in anti)

    # equal-exponent numbers: universally divisible, no multiplicative J hit
    EE = ev("construct(equal_exponent)")
    v = largeness.max_check(EE, 20, H=H)
    assert v.status == "proved"
    for n, w in v.certificate["witnesses"].items():
        assert w % n == 0 and EE.contains(w) is True
    f, g = constructions.gen_mj_funcs(4)
    assert tuple(f) == (45, 539, 2873, 8303) and tuple(g) == (75, 847, 3757, 10051)
    v = largeness.j_check(EE, (f, g), 5000, 4, mode="multiplicative")
    assert v.status == "bounded" and v.direction == "against"
    assert v.certificate["exhausted_a"] == 5000

    # odd numbers: shift-covering holds, universal divisibility fails at 2
    ODD = ev("odd")
    v = largeness.a_pcws_check(ODD, 1, 50, H=H)
    assert v.status == "proved"
    shifts, lo, hi = v.certificate["F"], v.certificate["run"][0], v.certificate["run"][1]
    assert hi - lo + 1 >= 50
    assert all(any(ODD.contains(x + t) is True for t in shifts) for x in range(lo, hi + 1))
    v = largeness.max_check(ODD, 50, H=H)
    assert v.status == "refuted" and v.certificate["n0"] == 2

    # subset sums of a fast-growing sequence: additive IP, short runs only
    FS = ev("fs(fastgrowth())")
    v = largeness.ip_search(FS, 8, H=H)
    assert v.status == "proved"
    seq = v.certificate["sequence"]
    assert seq == [1, 4, 9, 19, 39, 79, 159, 319]
    for r in range(1, 9):
        for combo in itertools.combinations(seq, r):
            assert FS.contains(sum(combo)) is True
    v = largeness.a_pcws_check(FS, 3, 19, H=H)
    assert v.status == "bounded" and v.direction == "against"
    assert v.certificate["max_run"] == 18

    # interval-rich set that still dodges one multiple of every generator
    TH = ev("construct(thick_nonmaxstar,20)")
    v = largeness.a_thick_check(TH, 20, H=H)
    assert v.status == "proved"
    lo, hi = v.certificate["run"]
    assert hi - lo + 1 == 20
    assert all(TH.contains(x) is True for x in range(lo, hi + 1))
    v = largeness.maxstar_check(TH, 20, H=H)
    assert v.status == "refuted"
    missing = v.certificate["missing_multiple"]
    assert sorted(missing) == list(range(1, 21))
    for a, miss in missing.items():
        assert miss % a == 0 and TH.contains(miss) is False

    # congruence-built run inside the multiples-closure of a coprime set
    x = largeness.crt_thickness_demo({3, 5, 7, 11}, 4)
    assert x == 788 and 1 <= x <= 3 * 5 * 7 * 11
    UP = ev("up({3,5,7,11})")
    for j, c in enumerate(sorted({3, 5, 7, 11}), start=1):
        assert (x + j) % c == 0
        assert UP.contains(x + j) is True


# ---------------------------------------------------------------------------
# 7. the exact divisor-poset atlas
# ---------------------------------------------------------------------------

@criterion(7, "poset atlas n=12: all 4096 subsets audited, zero violations")
def test_c07_atlas_exhaustive():
    report = largeness.poset_atlas(12)
    d = report.to_json()
    assert d["n"] == 12
    assert d["exhaustive"] is True
    assert d["subsets_checked"] == 4096
    assert d["violations"] == []
    assert d["up_closed_count"] == d["brute_up_count"]


# ---------------------------------------------------------------------------
# 8. arithmetic invariants
# ---------------------------------------------------------------------------

@criterion(8, "prime-count additivity (a,b <= 1000) + n-th power completions (d <= 10^4)")
def test_c08_arithmetic_invariants():
    om = arith.omega_upto(1_000_000)
    # tie the sieve array to the public point function before trusting it
    assert all(om[n] == arith.omega(n) for n in range(1, 2001))
    for a in range(1, 1001):
        oa = om[a]
        for b in range(1, 1001):
            assert om[a * b] == oa + om[b], (a, b)
    for d in range(1, 10_001):
        for n in (2, 3, 4):
            l = arith.nth_power_completion(d, n)
            root = arith.integer_nth_root(d * l, n)
            assert root ** n == d * l, (d, n, l)
            assert all(e < n for _, e in arith.factorize(l)), (d, n, l)


# ---------------------------------------------------------------------------
# 9. pseudointersection of the divisibility-avoiding chain
# ---------------------------------------------------------------------------

@criterion(9, "pseudointersection of 12 nested sets escapes X_n fewer than n times")
def test_c09_pseudointersection_chain():
    chain = []
    for n in range(1, 13):
        body = ",".join("mult(%d)" % k for k in range(2, n + 2))
        text = "compl(union(%s))" % body if n > 1 else "compl(mult(2))"
        chain.append(ev(text, 100_000))
    # all 12 values: no chain set ran out below the horizon
    values = constructions.pseudointersection(chain, 12, 100_000)
    assert values == (1, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
    for idx, X in enumerate(chain, start=1):
        escaped = sum(1 for y in values if X.contains(y) is not True)
        assert escaped < idx, (idx, escaped)


# ---------------------------------------------------------------------------
# 10. determinism of the JSON reports
# ---------------------------------------------------------------------------

C10_BATTERY = [
    (["check", "a-ip", "primes", "--L", "2", "--horizon", "2000", "--json"], 0),
    (["check", "max", "level(2)", "--horizon", "20000", "--json"], 1),
    (["check", "a-thick", "construct(thick_nonmaxstar,20)", "--n", "20",
      "--horizon", "10000", "--json"], 0),
    (["fe", "{6,8}", "union(level(2),level(5))", "--horizon", "5000", "--json"], 1),
    (["fe", "{2,3}", "mult(6)", "--horizon", "5000", "--json"], 0),
    (["me", "{2,3}", "mult(6)", "--m", "1", "--json"], 0),
    (["chain", "5", "8", "--verify", "--json"], 0),
    (["diagram", "odd", "--horizon", "2000", "--json"], 0),
    (["atlas", "12", "--json"], 0),
    (["construct", "exgamma", "12", "--json"], 0),
    (["parse", "inter(mult(6),compl(level(3)))", "--json"], 0),
]


@criterion(10, "two independent CLI runs produce byte-identical JSON")
def test_c10_json_determinism():
    exe = shutil.which("felab")
    if exe:
        command, base_env = [exe], dict(os.environ)
    else:  # a plain checkout has no console script
        command, base_env = [sys.executable, "-m", "felab"], conftest.module_env()

    def run_all(hashseed):
        env = dict(base_env)
        env["PYTHONHASHSEED"] = hashseed
        outputs = []
        for argv, expected in C10_BATTERY:
            proc = subprocess.run([*command, *argv], capture_output=True, env=env,
                                  timeout=120)
            assert proc.returncode == expected, (argv, proc.returncode, proc.stderr)
            json.loads(proc.stdout)  # every report is well-formed JSON
            outputs.append(proc.stdout)
        return outputs

    first = run_all("0")
    second = run_all("1")
    assert first == second
