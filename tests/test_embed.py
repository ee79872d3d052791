"""Dilation embeddings: witness search, the quotient oracle, refuters, chains."""

import itertools
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from felab import embed
from felab.embed import (FeRefutation, FeWitness, decreasing_chain,
                         fe_fip_oracle, fe_prefix_check, fe_refute_level,
                         fe_refute_residue, fe_witness, me_check, mthick_check)
from felab.errors import InapplicableError, InputError, PrecisionError, ResourceError
from felab.setlang.evaluate import evaluate
from felab.setlang.lazyset import DEFAULT_HORIZON
from felab.setlang.parser import parse


def ev(text, horizon=DEFAULT_HORIZON):
    return evaluate(parse(text), horizon)


@pytest.fixture(scope="module")
def fs_exgamma():
    return ev("fs(exgamma())", horizon=2000)


# ---------------------------------------------------------------------------
# witness search and the quotient-set oracle
# ---------------------------------------------------------------------------

def test_witness_on_multiples():
    B3 = ev("mult(3)")
    r = fe_witness([1, 2], B3, 100)
    assert r == FeWitness(k=3, family=(1, 2), images=(3, 6))
    assert fe_fip_oracle([1, 2], B3, 100) == r


def test_witness_on_finite_target():
    fin = ev("{4,6,8,9,12}")
    r = fe_witness([2, 3], fin, 100)
    assert isinstance(r, FeWitness) and r.k == 2
    assert r.images == (4, 6)
    assert fe_fip_oracle([2, 3], fin, 100) == r


def test_finite_target_refutation_is_exact():
    fin2 = ev("{4,10,14}")
    r = fe_witness([2, 3], fin2, 100)
    assert isinstance(r, FeRefutation) and r.kind == "finite-target"
    assert r.detail["bound"] == 7 and r.exact
    assert fe_fip_oracle([2, 3], fin2, 100) == r


@pytest.mark.parametrize("route", [fe_witness, fe_fip_oracle])
def test_finite_target_honours_k_max(route):
    """Only candidates k <= k_max are tried; the refutation is exact only if none lies beyond."""
    far = ev("{500}")
    assert route([1], far, 10) == FeRefutation("exhausted", (1,), {"k_max": 10})
    assert route([1], far, 500) == FeWitness(500, (1,), (500,))
    for k_max in (1, 2, 10_000):
        r = route([2], ev("{3}"), k_max)
        assert r.kind == "finite-target" and r.exact


def test_exhaustion_is_inexact():
    odds = ev("ap(1,2)")
    r = fe_witness([1, 2], odds, 50)
    assert isinstance(r, FeRefutation) and r.kind == "exhausted" and not r.exact
    assert fe_fip_oracle([1, 2], odds, 50) == r


def test_witness_validates_input():
    B = ev("N")
    with pytest.raises(InputError):
        fe_witness([], B, 10)
    with pytest.raises(InputError):
        fe_witness([0, 2], B, 10)
    # k_max is validated where it is given (fe_prefix_check, me_check, felab fe):
    # here a k_max of 0 tries no k
    assert fe_witness([1], B, 0) == FeRefutation("exhausted", (1,), {"k_max": 0})


def test_precision_errors_agree_between_routes(fs_exgamma):
    errs = []
    for fn in (fe_witness, fe_fip_oracle):
        with pytest.raises(PrecisionError) as exc:
            fn((1, 704), fs_exgamma, 10)
        errs.append((str(exc.value), exc.value.required_horizon))
    assert errs[0] == errs[1]
    assert errs[0][1] == 6336


def test_a_precision_hint_names_a_horizon_the_cli_accepts_or_says_none_is_known():
    """A hint names a horizon above the one used and up to the sieve cap (the largest
    --horizon the CLI accepts); otherwise it says that no horizon is known to settle it."""
    none_known = "(no horizon up to the cap 20000000 is known to settle it)"
    undecided = embed._Undecided()
    undecided.add(5001, 20_000_000)
    err = undecided.error()
    assert err.required_horizon == 20_000_000
    assert str(err).endswith("(rerun with horizon >= 20000000)")
    # fe "{4,8}" "fp(primeseq(all))" --kmax 2600000 leaves the point 8 * 2600000 unknown
    undecided.add(2_600_000, 20_800_000)
    err = undecided.error()
    assert str(err).endswith(none_known) and err.required_horizon is None
    with pytest.raises(PrecisionError, match=r"\(rerun with horizon >= 120\)$"):
        embed.prefix_of(ev("fp(primeseq(odd))", 60), 50, 60)
    # me needs its subsets listed up to the horizon it was given, which a larger one
    # does not settle: quot(fp(primeseq(odd)),2) is listed only below 50 at horizon 100
    with pytest.raises(PrecisionError) as exc:
        me_check(ev("quot(fp(primeseq(odd)),2)", 100), ev("N", 100), 1, 100)
    assert str(exc.value).endswith(none_known) and exc.value.required_horizon is None
    # a divisor closure of an infinite set is complete below 0 at every horizon
    with pytest.raises(PrecisionError) as exc:
        embed.prefix_of(ev("down(union({12},mult(1001)))", 1000), 5, 1000)
    assert str(exc.value).endswith(none_known) and exc.value.required_horizon is None


def test_single_elements_embed_iff_divisible():
    for m in range(1, 40):
        for n in range(1, 40):
            r = fe_witness([m], ev("{%d}" % n), 10_000)
            if n % m == 0:
                assert isinstance(r, FeWitness) and r.k == n // m
            else:
                assert isinstance(r, FeRefutation) and r.exact


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_witness_and_oracle_agree_on_random_instances(data):
    fam = data.draw(st.lists(st.integers(min_value=1, max_value=30),
                             min_size=1, max_size=5, unique=True))
    text = data.draw(st.sampled_from([
        "mult(2)", "mult(6)", "ap(3,9)", "ap(1,2)", "level(2)",
        "union(mult(4),mult(10))", "{6,12,18,24,36,72}", "down({720})",
        "inter(mult(2),mult(3))", "up({30})", "fs(exgamma())", "fp(primeseq(odd))",
    ]))
    B = ev(text, horizon=5000)

    def decide(route):
        try:
            return route(fam, B, 400)
        except PrecisionError as exc:
            return str(exc), exc.required_horizon

    a = decide(fe_witness)
    assert a == decide(fe_fip_oracle)
    if isinstance(a, FeWitness):
        assert a.k <= 400
        assert all(B.contains(a.k * f) is True for f in fam)
        # least witness: every smaller k fails outright, or is unknown in a PREFIX target
        for k in range(1, a.k):
            answers = [B.contains(k * f) for f in fam]
            assert False in answers or (not B.is_exact and None in answers)


_EXACT_SETS = st.one_of(
    st.sampled_from(["N", "primes", "level(2)", "compl(level(1))", "up({6,10,15})"]),
    st.builds("mult({})".format, st.integers(1, 12)),
    st.builds("compl(mult({}))".format, st.integers(2, 12)),
    st.builds("union(mult({}),ap({},{}))".format, st.integers(2, 12), st.integers(1, 20),
              st.integers(2, 12)),
)


@settings(max_examples=100, deadline=None)
@given(_EXACT_SETS, st.integers(min_value=1, max_value=6), st.integers(min_value=6, max_value=3000))
def test_mthick_proves_the_least_witness_of_the_run(text, n, H):
    A = ev(text, horizon=1000)
    v = mthick_check(A, n, H)
    w = fe_witness(range(1, n + 1), A, H // n)
    if isinstance(w, FeWitness):
        assert v.status == "proved" and v.certificate["k"] == w.k
    else:
        assert w.kind == "exhausted"
        assert v.status == "bounded" and v.certificate == {"exhausted_k": H // n}


# ---------------------------------------------------------------------------
# exact refuters
# ---------------------------------------------------------------------------

def test_level_refuter_certificate():
    c = fe_refute_level(range(1, 101), ev("level(2)"))
    assert c is not None and c.kind == "level-certificate"
    assert c.detail["pair"] == [1, 2]
    assert c.detail["delta"] == 1 and c.detail["target_levels"] == [2]


def test_level_refuter_needs_a_level_cover(fs_exgamma):
    with pytest.raises(InapplicableError):
        fe_refute_level(range(1, 101), fs_exgamma)


def test_level_refuter_none_when_deltas_match():
    # both sides sit in a single level, dilation by a prime bridges them
    assert fe_refute_level(ev("level(2)").elements(100), ev("level(2)")) is None


def test_residue_refuter():
    c = fe_refute_residue([2], ev("ap(1,2)"))
    assert c is not None and c.kind == "residue-certificate"
    assert c.detail["modulus"] == 2
    assert fe_refute_residue([3], ev("mult(3)")) is None


# ---------------------------------------------------------------------------
# prefix embedding verdicts
# ---------------------------------------------------------------------------

def test_prefix_check_proved():
    v, _ = fe_prefix_check(ev("mult(2)"), ev("mult(6)"))
    assert v.status == "proved"
    assert v.certificate["witness"]["k"] == 3
    assert v.bounds == {"prefix": 16, "k_max": 1_000_000}


def test_prefix_check_residue_refuted():
    v, _ = fe_prefix_check(ev("N"), ev("ap(1,2)"), k_max=1000)
    assert v.status == "refuted"
    assert v.certificate["refutation"]["kind"] == "residue-certificate"
    assert v.exit_code == 1


def test_prefix_check_level_refuted():
    v, _ = fe_prefix_check(ev("N"), ev("primes"), k_max=500)
    assert v.status == "refuted"
    assert v.certificate["refutation"]["kind"] == "level-certificate"


def test_prefix_check_finite_refuted():
    v, _ = fe_prefix_check(ev("{3,5}"), ev("fp([2,5,11])"), k_max=20)
    assert v.status == "refuted"
    assert v.certificate["refutation"]["kind"] == "finite-target"


def test_prefix_check_bounded(fs_exgamma):
    v, _ = fe_prefix_check(ev("{1,704}"), fs_exgamma, k_max=2)
    assert v.status == "bounded" and v.direction == "against"
    assert v.bounds == {"prefix": 16, "k_max": 2}
    assert v.certificate["refutation"]["kind"] == "exhausted"
    assert v.exit_code == 2


def test_prefix_check_validates():
    with pytest.raises(InputError):
        fe_prefix_check(ev("N"), ev("N"), p=0)


# ---------------------------------------------------------------------------
# bounded-family embedding
# ---------------------------------------------------------------------------

def test_me_check_pairs_into_multiples():
    v = me_check(ev("{2,3}"), ev("mult(6)"), 2)
    assert v.status == "proved"
    assert v.certificate["worst_witness"]["k"] == 6


def test_me_check_divisibility_shadow():
    v = me_check(ev("{4,9}"), ev("{8,18,27}"), 1)
    assert v.status == "proved"
    assert v.certificate["divides_into"] == {4: 8, 9: 18}
    v = me_check(ev("{5}"), ev("{8,18}"), 1)
    assert v.status == "refuted"
    # a finite target's multiple beyond k_max leaves the verdict bounded
    v = me_check(ev("{1}"), ev("{500}"), 1, k_max=10)
    assert v.status == "bounded" and v.bounds["k_max"] == 10
    assert me_check(ev("{1}"), ev("{500}"), 1, k_max=500).status == "proved"
    assert me_check(ev("{2}"), ev("{3}"), 1, k_max=1).status == "refuted"


def test_me_check_residue_reason(monkeypatch):
    scans = []
    scan = embed._least_dilation
    monkeypatch.setattr(embed, "_least_dilation",
                        lambda fam, *args: scans.append(tuple(fam)) or scan(fam, *args))
    for A, B in (("{2}", "ap(1,2)"), ("{2}", "{5,7,9}")):
        v = me_check(ev(A), ev(B), 1)
        assert v.status == "refuted"
        assert v.certificate["reason"] == "target provably misses every multiple of 2"
    # the residue certificate comes before any k scan, on a finite or a PREFIX target too
    for A, B in (("{2,3,5,7}", "compl(mult(2))"), ("{2,3}", "{5,7,9}"),
                 ("{2,4}", "inter(fs(sidon()),ap(1,2))")):
        v = me_check(ev(A), ev(B), 2)
        assert v.status == "refuted"
        assert v.certificate["refutation"] == {
            "kind": "residue-certificate", "family": list(ev(A).elements()[:2]),
            "detail": {"modulus": 2}}
    assert scans == []


def test_me_check_bounded(fs_exgamma):
    v = me_check(ev("{1,704}"), fs_exgamma, 2, H=2000, k_max=2)
    assert v.status == "bounded" and v.direction == "against"
    assert v.certificate["refutation"]["kind"] == "exhausted"


def test_me_check_validates():
    with pytest.raises(InputError):
        me_check(ev("N"), ev("N"), 0)


# ---------------------------------------------------------------------------
# dilated-run reach
# ---------------------------------------------------------------------------

def test_mthick_on_everything():
    v = mthick_check(ev("N"), 5)
    assert v.status == "proved" and v.certificate["k"] == 1


def test_mthick_on_evens():
    v = mthick_check(ev("mult(2)"), 3)
    assert v.status == "proved" and v.certificate["k"] == 2
    assert v.certificate["multiples"] == [2, 4, 6]


def test_mthick_bounded_on_odds():
    v = mthick_check(ev("ap(1,2)"), 2, H=500)
    assert v.status == "bounded" and v.direction == "against"
    assert v.bounds == {"horizon": 500, "n": 2}
    assert v.certificate == {"exhausted_k": 250}


# ---------------------------------------------------------------------------
# shrinking chain with dodged pairs
# ---------------------------------------------------------------------------

FROZEN_LEVELS = [
    (1, 2, 3, 4, 5, 6, 7, 8),
    (2, 3, 5, 7, 8, 9, 11, 12),
    (3, 5, 7, 8, 11, 13, 17, 19),
    (5, 7, 8, 11, 13, 17, 19, 20),
    (7, 8, 11, 13, 17, 19, 20, 23),
    (8, 11, 13, 17, 19, 20, 23, 25),
]


@pytest.fixture(scope="module")
def chain58():
    return decreasing_chain(5, 8)


def test_chain_frozen_levels(chain58):
    assert list(chain58.levels) == FROZEN_LEVELS
    assert chain58.blocked == ((1, 2), (1, 3), (2, 3), (1, 4), (2, 4))


def test_chain_refutations_are_exact(chain58):
    assert len(chain58.refutations) == 5
    for n, r in enumerate(chain58.refutations):
        assert isinstance(r, FeRefutation) and r.exact
        assert r.family == chain58.blocked[n]


def test_chain_nesting(chain58):
    for n in range(5):
        assert set(chain58.levels[n + 1]) <= set(chain58.extended[n])


def test_chain_blocked_pairs_have_no_witness(chain58):
    # re-verify independently against a generous extension of each next level
    for n, pair in enumerate(chain58.blocked):
        target = ev("{%s}" % ",".join(map(str, chain58.extended[n + 1])))
        r = fe_witness(pair, target, 10_000)
        assert isinstance(r, FeRefutation) and r.exact


def test_chain_json_roundtrip(chain58):
    payload = chain58.to_json()
    assert json.loads(json.dumps(payload, sort_keys=True)) == payload


def test_chain_validates():
    with pytest.raises(InputError):
        decreasing_chain(3, 2)
    with pytest.raises(ResourceError, match="width cap"):
        decreasing_chain(3, embed._CHAIN_WIDTH_CAP + 1)


def _greedy_levels(depth, extended):
    """The chain rebuilt by brute force: level n + 1 keeps level n's second member,
    then each later one with which no blocked pair embeds at any k."""
    colex = sorted(itertools.combinations(range(1, depth + 3), 2), key=lambda p: p[::-1])
    levels = [list(range(1, len(extended[0]) + 1))]
    for n in range(depth):
        parent = levels[n]
        blocked = colex[:n + 1] + [tuple(parent[:2])]
        kept = [parent[1]]
        for x in parent[2:]:
            inside = set(kept) | {x}
            if not any(k * a in inside and k * b in inside
                       for a, b in blocked for k in range(1, x // a + 1)):
                kept.append(x)
        levels.append(kept)
    return colex[:depth], levels


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 8), st.integers(3, 12))
def test_chain_matches_the_greedy_reference(depth, width):
    res = decreasing_chain(depth, width)
    pairs, levels = _greedy_levels(depth, res.extended)
    assert [tuple(lvl[:len(ext)]) for lvl, ext in zip(levels, res.extended)] == list(res.extended)
    shown = [lvl[:width] for lvl in levels]
    assert res.to_json() == {
        "levels": shown,
        "blocked_pairs": [list(p) for p in pairs],
        "refutations": [{"kind": "finite-target", "family": list(p),
                         "detail": {"bound": shown[n + 1][-1] // p[0]}}
                        for n, p in enumerate(pairs)]}


# ---------------------------------------------------------------------------
# verdict serialization determinism
# ---------------------------------------------------------------------------

def test_verdict_json_deterministic():
    a = mthick_check(ev("ap(1,2)"), 2, H=500).to_json()
    b = mthick_check(ev("ap(1,2)"), 2, H=500).to_json()
    assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)
    assert a["status"] == "bounded" and a["direction"] == "against"
