"""Largeness-property deciders, the implication diagram, and the poset atlas."""

import gc
import math
import types

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from felab import arith, largeness
from felab.constructions import gen_mj_funcs
from felab.embed import (FeWitness, _least_dilation, _one_by_one, decreasing_chain,
                         fe_refute_level, prefix_of)
from felab.errors import InapplicableError, InputError, ResourceError
from felab.largeness import (CHECKERS, AtlasReport, PropertyParams, _add_funcs, a_pcws_check,
                             a_thick_check, crt_thickness_demo, diagram_report,
                             ip_search, ip_star_check, j_check, m_pcws_check,
                             max_check, maxstar_check, nmax_refute,
                             nmaxstar_check, poset_atlas)
from felab.setlang import analysis
from felab.setlang.evaluate import evaluate
from felab.setlang.lazyset import DEFAULT_HORIZON, LazySet
from felab.setlang.parser import parse
from felab.verdicts import Verdict


def ev(text, horizon=DEFAULT_HORIZON):
    return evaluate(parse(text), horizon)


@pytest.fixture(scope="module")
def N():
    return ev("N")


@pytest.fixture(scope="module")
def odds():
    return ev("ap(1,2)")


@pytest.fixture(scope="module")
def evens():
    return ev("mult(2)")


@pytest.fixture(scope="module")
def FG():
    return ev("fs(fastgrowth())", horizon=10_000)


@pytest.fixture(scope="module")
def FP6():
    return ev("fp(primeseq(odd,6))")


# ---------------------------------------------------------------------------
# runs of consecutive integers
# ---------------------------------------------------------------------------

def test_a_thick(N, evens):
    v = a_thick_check(N, 10)
    assert v.is_proved and v.certificate["m"] == 0
    v = a_thick_check(evens, 2)
    assert v.status == "refuted" and v.certificate["period"] == 2
    v = a_thick_check(ev("construct(thick_nonmaxstar,8)"), 6)
    assert v.is_proved
    # finite sparse set: no 3-run anywhere, and finiteness makes that decidable
    v = a_thick_check(ev("construct(exgamma,12)"), 3)
    assert v.status == "refuted"


def test_a_thick_run_is_genuine():
    A = ev("construct(thick_nonmaxstar,8)")
    v = a_thick_check(A, 6)
    m = v.certificate["m"]
    assert v.certificate["run"] == [m + 1, m + 6]
    assert all(A.contains(x) is True for x in range(m + 1, m + 7))


# ---------------------------------------------------------------------------
# shifted runs (piecewise variants)
# ---------------------------------------------------------------------------

def test_a_pcws_basics(N, odds):
    v = a_pcws_check(odds, 1, 4000)
    assert v.is_proved and v.certificate["m"] == 0
    v = a_pcws_check(N, 0, 10)
    assert v.is_proved and v.certificate["F"] == [0]


def test_a_pcws_subset_sum_threshold(FG):
    v = a_pcws_check(FG, 3, 18, 10_000)
    assert v.is_proved
    v19 = a_pcws_check(FG, 3, 19, 10_000)
    assert v19.status == "bounded" and v19.direction == "against"
    assert v19.certificate["max_run"] == 18
    v0 = a_pcws_check(FG, 0, 3, 10_000)
    assert v0.status == "bounded" and v0.certificate["max_run"] == 2


def test_m_pcws(N):
    v = m_pcws_check(N, 1, 5)
    assert v.is_proved and v.certificate["k"] == 1
    v = m_pcws_check(ev("mult(6)"), 6, 6)
    assert v.is_proved and v.certificate["k"] == 1
    v = m_pcws_check(ev("level(2)"), 4, 2)
    assert v.is_proved and v.certificate["k"] == 1
    assert v.certificate["shift_for"] == {1: 4, 2: 2}
    # known to 100 only: unknown answers above it are skipped, not taken as members
    v = m_pcws_check(ev("union(fp(fastgrowth()),{300,900,1200})", 100), 2, 3, 1000)
    assert v.is_proved and v.certificate["k"] == 150
    assert v.certificate["shift_for"] == {1: 2, 2: 1, 3: 2}


def test_m_pcws_certificate_verifies():
    A = ev("level(2)")
    v = m_pcws_check(A, 4, 2)
    k = v.certificate["k"]
    table = v.certificate["shift_for"]
    assert sorted(table) == [1, 2]  # one divisor per run position
    for i, t in table.items():
        assert 1 <= t <= 4
        assert A.contains(t * k * i) is True


# ---------------------------------------------------------------------------
# finite-sums / finite-products seeds
# ---------------------------------------------------------------------------

def test_ip_additive(N):
    v = ip_search(ev("mult(3)"), 2, mode="additive")
    assert v.is_proved
    assert v.certificate["sequence"] == [3, 6]
    assert v.certificate["values"] == [3, 6, 9]
    v = ip_search(ev("construct(exgamma,25)"), 2, 10_000, "additive")
    assert v.status == "bounded" and v.direction == "against"


def test_ip_multiplicative(FP6):
    v = ip_search(FP6, 3, mode="multiplicative")
    assert v.is_proved and v.certificate["sequence"] == [2, 5, 11]


def test_ip_certificate_closure_verifies(FP6):
    v = ip_search(FP6, 3, mode="multiplicative")
    seq = v.certificate["sequence"]
    vals = set(v.certificate["values"])
    import itertools
    for r in range(1, len(seq) + 1):
        for combo in itertools.combinations(seq, r):
            prod = 1
            for c in combo:
                prod *= c
            assert prod in vals
            assert FP6.contains(prod) is True


def test_ip_star(N, evens, FG):
    v = ip_star_check(ev("compl(mult(3))"), 2)
    assert v.status == "refuted"
    assert v.certificate["complement_witness"]["sequence"] == [3, 6]
    v = ip_star_check(N, 2)
    assert v.status == "bounded" and v.direction == "for"
    v = ip_star_check(evens, 1)
    assert v.status == "refuted" and v.certificate["complement_witness"]["sequence"] == [1]
    with pytest.raises(InapplicableError):
        ip_star_check(FG, 2)


def _outcome(name, A, params):
    try:
        return CHECKERS[name](A, params).to_json()
    except InapplicableError as exc:
        return {"inapplicable": str(exc)}


@pytest.mark.parametrize("text", ["quot(ap(8000,1),2)", "shift(ap(5100,1),200)",
                                  "union({4500},quot(ap(8000,1),2))"])
def test_checkers_answer_alike_before_and_after_a_diagram(text):
    """Sets listed only below the horizon: a checker's answer does not depend on
    whether the checkers before it in a diagram have completed the set."""
    params = PropertyParams(horizon=5000)
    grown = ev(text, 5000)
    diagram_report(grown, params)
    for name in CHECKERS:
        assert _outcome(name, ev(text, 5000), params) == _outcome(name, grown, params), name


def test_ip_star_leaves_its_set_alone():
    """The dual check reads A's members and predicate; it does not grow A."""
    A = ev("quot(compl(mult(8)),2)", horizon=5000)  # compl(mult(4)), complete to 2500
    before = A.elements()
    v = ip_star_check(A, 2, 5000)
    assert v.status == "refuted" and v.certificate["complement_witness"]["sequence"] == [4, 8]
    assert A.complete_below == 2500 and A.elements() == before


# ---------------------------------------------------------------------------
# finite families of functions
# ---------------------------------------------------------------------------

def test_j_additive(N, evens):
    v = j_check(evens, ((2, 2, 2, 2), (4, 4, 4, 4)), 10, 4, "additive")
    assert v.is_proved and v.certificate["a"] == 2 and v.certificate["indices"] == [1]
    v = j_check(N, ((1, 2, 3, 4),), 5, 4, "additive")
    assert v.is_proved and v.certificate["a"] == 1


def test_j_multiplicative_scan_exhausts():
    EE = ev("construct(equal_exponent)")
    v = j_check(EE, gen_mj_funcs(4), 500, 4, "multiplicative")
    assert v.status == "bounded" and v.direction == "against"
    assert v.certificate["exhausted_a"] == 500


# ---------------------------------------------------------------------------
# divisor reach and dilation reach
# ---------------------------------------------------------------------------

def test_max_check(N, odds):
    v = max_check(ev("construct(exgamma,30)"), 20, 1_000_000)
    assert v.is_proved and len(v.certificate["witnesses"]) == 20
    v = max_check(odds, 2)
    assert v.status == "refuted" and v.certificate["n0"] == 2
    v = max_check(N, 50)
    assert v.is_proved
    # known to 100 only: the multiples of 5 from 105 to 495 are unknown, 500 is a member
    v = max_check(ev("union(fp(fastgrowth()),{500})", 100), 6, 1000)
    assert v.is_proved
    assert v.certificate["witnesses"] == {1: 1, 2: 4, 3: 9, 4: 4, 5: 500, 6: 36}


@pytest.mark.parametrize("k, H", [(7, 60), (1000, 5000), (10**6, 100_000)])
def test_dilations_answer_past_their_table_by_stride(k, H):
    """dilate(k,N) keeps a table to H and answers up to its bound k·H + k - 1 by its
    predicate, stepping over the non-multiples of k: the least multiple of m in it
    is lcm(m, k), past H or not, and its first members are k, 2k and 3k."""
    A = ev(f"dilate({k},N)", H)
    assert A.top == H and A.complete_below == k * H + k - 1
    witnesses = max_check(A, 20, H).certificate["witnesses"]
    assert witnesses == {m: math.lcm(m, k) for m in range(1, 21)}
    assert prefix_of(A, 3, H) == (k, 2 * k, 3 * k)


def test_max_witnesses_verify():
    A = ev("construct(exgamma,30)")
    v = max_check(A, 20, 1_000_000)
    witnesses = v.certificate["witnesses"]
    assert sorted(witnesses) == list(range(1, 21))
    for n, mult in witnesses.items():
        assert mult % n == 0
        assert A.contains(mult) is True


def test_maxstar_check(N, evens):
    v = maxstar_check(evens, 5)
    assert v.is_proved and v.certificate["a"] == 2
    v = maxstar_check(ev("construct(thick_nonmaxstar,8)"), 8)
    assert v.status == "refuted" and v.certificate["missing_multiple"][2] == 6
    v = maxstar_check(N, 5)
    assert v.is_proved and v.certificate["a"] == 1


def test_maxstar_refutation_verifies():
    A = ev("construct(thick_nonmaxstar,8)")
    v = maxstar_check(A, 8)
    missing = v.certificate["missing_multiple"]
    assert sorted(missing) == list(range(1, 9))  # one witness per bound
    for a, miss in missing.items():
        assert miss % a == 0
        assert A.contains(miss) is False


# ---------------------------------------------------------------------------
# coprime antichains
# ---------------------------------------------------------------------------

def test_nmax(N, odds, FP6):
    v = nmax_refute(FP6, 4)
    assert v.status == "refuted" and v.certificate["antichain"] == [3, 7, 13, 19]
    v = nmax_refute(N, 4, 10_000)
    assert v.status == "bounded" and v.direction == "for"
    v = nmax_refute(odds, 3, 100)
    assert v.status == "bounded" and v.direction == "for"
    assert v.certificate["absent_primes"] == [2]


def test_nmax_antichain_misses_the_set(FP6):
    v = nmax_refute(FP6, 4)
    C = v.certificate["antichain"]
    import math
    for i, a in enumerate(C):
        for b in C[i + 1:]:
            assert math.gcd(a, b) == 1
    # every member of the divisor closure of the set avoids up(C)
    for m in FP6.elements(2000):
        assert all(m % c for c in C)


def test_nmaxstar(odds):
    v = nmaxstar_check(ev("up({3,5,7,11})"), 4, 5_000)
    assert v.is_proved and v.certificate["antichain"] == [3, 5, 7, 11]
    v = nmaxstar_check(odds, 2, 1_000)
    assert v.status == "bounded" and v.direction == "against"
    v = nmaxstar_check(ev("union(up({3,5}),{4,9,49})"), 2, 5_000)
    assert v.is_proved and v.certificate["antichain"] == [3, 5]


# ---------------------------------------------------------------------------
# residue-system demo
# ---------------------------------------------------------------------------

def test_crt_thickness_demo():
    assert crt_thickness_demo({3, 5, 7}, 3) == 53
    assert crt_thickness_demo({2, 3}, 2) == 1
    assert crt_thickness_demo({5}, 1) == 4
    with pytest.raises(InputError):
        crt_thickness_demo({4, 6}, 2)


def test_crt_thickness_demo_divisibilities():
    import math
    C = [3, 5, 7, 11]
    x = crt_thickness_demo(set(C), 4)
    assert x == 788
    lcm = math.lcm(*C)
    assert 1 <= x <= lcm
    for j, c in enumerate(sorted(C), start=1):
        assert (x + j) % c == 0


# ---------------------------------------------------------------------------
# the full property diagram
# ---------------------------------------------------------------------------

PROVED_ON_N = ("A-thick", "M-thick", "A-pcws", "M-pcws", "A-IP", "M-IP",
               "A-J", "M-J", "MAX", "MAX*", "NMAX*")


@pytest.fixture(scope="module")
def report_N(N):
    return diagram_report(N, PropertyParams(horizon=10_000))


def test_diagram_on_everything(report_N):
    d = dict(report_N.entries)
    for name in PROVED_ON_N:
        assert d[name].is_proved, name
    assert d["A-IP*"].status == "bounded" and d["A-IP*"].direction == "for"
    assert d["NMAX"].status == "bounded" and d["NMAX"].direction == "for"
    assert all(a["status"] == "pass" for a in report_N.audits)


def test_diagram_json_order(report_N):
    j = report_N.to_json()
    names = [p["name"] for p in j["properties"]]
    assert names[:13] == list(CHECKERS)[:13] == [
        "A-thick", "M-thick", "A-pcws", "M-pcws", "A-IP", "M-IP", "A-IP*",
        "A-J", "M-J", "MAX", "NMAX", "MAX*", "NMAX*"]
    assert names[13:] == ["A-central", "A-central*", "M-central", "M-central*"]
    for p in j["properties"][13:]:
        assert p["verdict"] == "out-of-scope"


def test_diagram_on_odds(odds):
    rep = diagram_report(odds, PropertyParams(horizon=10_000))
    d = dict(rep.entries)
    assert d["A-thick"].status == "refuted"
    assert d["A-pcws"].is_proved
    assert d["MAX"].status == "refuted"
    assert all(a["status"] in ("pass", "skipped") for a in rep.audits)


def test_diagram_audits_have_details(report_N):
    for a in report_N.audits:
        assert set(a) == {"implication", "status", "detail"}


PARAMS_JSON = {"horizon": 100000, "run_length": 10, "t_max": 3, "ip_len": 3, "j_a_max": 500,
               "j_h_max": 4, "divisor_n": 20, "star_a_max": 20, "antichain_s": 4}


def test_property_params_defaults_and_json():
    assert PropertyParams().to_json() == PARAMS_JSON
    assert list(PropertyParams().to_json()) == list(PARAMS_JSON)
    p = PropertyParams(horizon=500, antichain_s=3)
    assert p.to_json() == {**PARAMS_JSON, "horizon": 500, "antichain_s": 3}
    assert p == PropertyParams(500, 10, 3, 3, 500, 4, 20, 20, 3)
    assert hash(p) == hash(PropertyParams(500, antichain_s=3))


def test_records_share_one_json_rule():
    """A record without its own to_json writes its fields in order, tuples as lists;
    Verdict and ChainResult keep theirs, which drop or rename fields."""
    assert FeWitness(3, (1, 2), (3, 6)).to_json() == {"k": 3, "family": [1, 2], "images": [3, 6]}
    ref = fe_refute_level([2, 4], ev("union(level(1),level(3))", 1000))
    assert ref.to_json() == {
        "kind": "level-certificate", "family": [2, 4],
        "detail": {"pair": [2, 4], "delta": 1, "target_levels": [1, 3],
                   "achievable_deltas": [-2, 0, 2]}}
    assert AtlasReport(15, False, 10, 11, None, 4097, ("x",)).to_json() == {
        "n": 15, "exhaustive": False, "up_closed_count": 10, "down_closed_count": 11,
        "brute_up_count": None, "subsets_checked": 4097, "violations": ["x"]}
    assert list(PropertyParams().to_json().items()) == list(PARAMS_JSON.items())
    assert Verdict.proved({"m": 1}).to_json() == {
        "status": "proved", "certificate": {"m": 1}, "bounds": {}}
    chain = decreasing_chain(2, 4).to_json()
    assert list(chain) == ["levels", "blocked_pairs", "refutations"]
    assert chain["blocked_pairs"] == [[1, 2], [1, 3]]


@pytest.mark.parametrize("field, bad, least", [
    ("horizon", 0, 1), ("run_length", 0, 1), ("star_a_max", -2, 1), ("antichain_s", 1, 2)])
def test_property_params_reject_small_bounds(field, bad, least):
    with pytest.raises(InputError, match=f"^{field} must be >= {least}, got {bad}$"):
        PropertyParams(**{field: bad})


# ---------------------------------------------------------------------------
# divisor-closure atlas over small supports
# ---------------------------------------------------------------------------

def test_atlas_small_exhaustive():
    rep = poset_atlas(6)
    assert rep.violations == ()
    assert rep.brute_up_count == rep.up_closed_count
    assert rep.exhaustive and rep.subsets_checked == 64
    assert rep.to_json() == {
        "n": 6, "exhaustive": True, "up_closed_count": rep.up_closed_count,
        "down_closed_count": rep.down_closed_count, "brute_up_count": rep.brute_up_count,
        "subsets_checked": 64, "violations": []}


def test_atlas_twelve():
    rep = poset_atlas(12)
    assert rep.violations == () and rep.subsets_checked == 4096
    assert rep.exhaustive


def test_atlas_large_support_is_sampled():
    rep = poset_atlas(20)
    assert not rep.exhaustive
    assert rep.violations == ()
    assert rep.subsets_checked < 2 ** 20


def test_atlas_exhaustive_override():
    rep = poset_atlas(14, exhaustive=True)
    assert rep.exhaustive and rep.subsets_checked == 2 ** 14
    assert rep.violations == ()


def test_atlas_caps_support():
    with pytest.raises(ResourceError):
        poset_atlas(21, exhaustive=True)


def test_atlas_rejects_bad_support():
    with pytest.raises(InputError):
        poset_atlas(0)


# ---------------------------------------------------------------------------
# the candidate loops against their plain forms: one list or generator per
# candidate, as the checkers were first written
# ---------------------------------------------------------------------------

class _Recorded(LazySet):
    """A LazySet that records the argument of every contains call, in order."""

    __slots__ = ("calls",)

    def contains(self, n):
        self.calls.append(n)
        return super().contains(n)


def _recorded(A):
    R = _Recorded(A.expr, A.elements(), A.complete_below, A.pred)
    R.finite, R.calls = A.finite, []
    return R


def _plain_ip_search(A, L, horizon, mode):
    elems = A.elements(horizon)
    additive = mode == "additive"
    attempts, truncated, chosen = 0, False, []

    def rec(start, vals):
        nonlocal attempts, truncated
        if len(chosen) == L:
            return True
        top = max(vals, default=0)
        for idx in range(start, len(elems)):
            x = elems[idx]
            if vals and (top + x if additive else top * x) > horizon:
                break
            if attempts >= largeness.SUBSET_CAP:
                truncated = True
                return False
            attempts += 1
            fresh = [v + x if additive else v * x for v in vals]
            if all(f <= horizon and A.contains(f) is True for f in fresh):
                chosen.append(x)
                if rec(idx + 1, vals + fresh + [x]):
                    return True
                chosen.pop()
                if truncated:
                    return False
        return False

    bounds = {"horizon": horizon, "L": L, "mode": mode}
    if rec(0, []):
        values = [chosen[0]]
        for x in chosen[1:]:
            values += [v + x if additive else v * x for v in values] + [x]
        return Verdict.proved({"sequence": list(chosen), "values": sorted(set(values))}, bounds)
    return Verdict.bounded("against", bounds, {"candidates": len(elems), "attempts": attempts,
                                               "exhausted": not truncated})


def _plain_j_check(A, funcs, a_max, h_max, mode):
    tables = [tuple(f[:h_max]) for f in funcs]
    additive = mode == "additive"
    size = 1 << h_max
    combo = []
    for f in tables:
        acc = [0 if additive else 1] * size
        for mask in range(1, size):
            low = mask & -mask
            acc[mask] = acc[mask ^ low] + f[low.bit_length() - 1] if additive \
                else acc[mask ^ low] * f[low.bit_length() - 1]
        combo.append(acc)
    bounds = {"a_max": a_max, "h_max": h_max, "mode": mode, "tables": len(tables)}
    for a in range(1, a_max + 1):
        for mask in range(1, size):
            landing = [a + c[mask] if additive else a * c[mask] for c in combo]
            if all(A.contains(v) is True for v in landing):
                indices = [i + 1 for i in range(h_max) if mask >> i & 1]
                return Verdict.proved({"a": a, "indices": indices, "values": landing}, bounds)
    return Verdict.bounded("against", bounds, {"exhausted_a": a_max})


def _plain_a_pcws(A, t_max, n, horizon):
    bounds = {"horizon": horizon, "t_max": t_max, "n": n}
    shifts = range(t_max + 1)
    run = best = best_end = 0
    for x in range(1, horizon + 1):
        if any(A.contains(x + t) is True for t in shifts):
            run += 1
            if run > best:
                best, best_end = run, x
            if run >= n:
                return Verdict.proved(
                    {"F": list(shifts), "m": x - n, "run": [x - n + 1, x]}, bounds)
        else:
            run = 0
    detail = {"max_run": best}
    if best:
        detail["at"] = best_end - best
    return Verdict.bounded("against", bounds, detail)


def _plain_nmaxstar(A, s, horizon):
    bounds = {"horizon": horizon, "s": s}
    pool, target, top = [], max(64, 8 * s), horizon // 2
    for c in range(2, top + 1):
        if all(A.contains(v) is True for v in range(c, horizon + 1, c)):
            pool.append(c)
        if len(pool) >= target or (c == top and len(pool) >= s):
            try:
                C = arith.extract_strong_antichain(pool, s, horizon)
            except ResourceError:
                return Verdict.bounded("against", bounds, {
                    "dilation_generators": pool[:32], "antichain_search_capped": True})
            if C is not None:
                return Verdict.proved({"antichain": C, "strength": s}, bounds)
            target *= 2
    return Verdict.bounded("against", bounds, {"dilation_generators": pool[:32]})


def _plain_a_thick(A, n, horizon):
    """The two-pass A-thick: scan [1, horizon], then read a finite set's member list
    from its start, or rescan a periodic set's window from 1."""
    bounds = {"horizon": horizon, "n": n}
    run = best = best_end = 0
    undecided = False
    for x in range(1, horizon + 1):
        c = A.contains(x)
        if c is True:
            run += 1
            if run > best:
                best, best_end = run, x
            if run >= n:
                return Verdict.proved({"m": x - n, "run": [x - n + 1, x]}, bounds)
        else:
            undecided = undecided or c is None
            run = 0
    if A.finite:
        elems, run = A.elements(), 1
        for prev, cur in zip(elems, elems[1:]):
            run = run + 1 if cur == prev + 1 else 1
            if run >= n:
                return Verdict.bounded("against", bounds, {"run_beyond_horizon": cur - n})
        return Verdict.refuted({"reason": "finite set", "members": len(elems)}, bounds)
    period = analysis.period_of(A.expr) if A.is_exact else None
    if period is not None and sum(period) + n <= largeness._PERIOD_WINDOW_CAP:
        window, run = sum(period) + n, 0
        for x in range(1, window + 1):
            run = run + 1 if A.contains(x) is True else 0
            if run >= n:
                return Verdict.bounded("against", bounds,
                                       {"run_beyond_horizon": x - n, "window": window})
        return Verdict.refuted(
            {"preperiod": period[0], "period": period[1], "window": window}, bounds)
    detail = {"max_run": best}
    if best:
        detail["at"] = best_end - best
    if undecided:
        detail["undecided_points"] = True
    return Verdict.bounded("against", bounds, detail)


# finite, periodic and prefix-only sets (an unpinned closure answers None above
# its enumeration, a divisor closure of an infinite set above 0), and sets complete
# only below the horizon they are evaluated at, 60 or 400
_LOOP_SETS = st.tuples(st.one_of(
    st.sampled_from(["N", "primes", "level(2)", "up({6,10,15})"]),
    st.sampled_from(["fs(fastgrowth())", "fp(primeseq(odd))", "fs(sidon())"]),
    st.sets(st.integers(1, 300), min_size=1, max_size=40).map(
        lambda s: "{" + ",".join(map(str, sorted(s))) + "}"),
    st.builds("mult({})".format, st.integers(1, 12)),
    st.builds("compl(mult({}))".format, st.integers(2, 12)),
    st.builds("union(mult({}),ap({},{}))".format, st.integers(2, 12), st.integers(1, 20),
              st.integers(2, 12)),
    st.builds("quot(mult({}),{})".format, st.integers(1, 12), st.integers(2, 6)),
    st.builds("shift(mult({}),{})".format, st.integers(1, 12), st.integers(1, 50)),
    st.builds("shift(quot(level(2),2),{})".format, st.integers(1, 50)),
    st.builds("down({{{},{}}})".format, st.integers(1, 300), st.integers(1, 300)),
    st.builds("down(union({{{}}},mult({})))".format, st.integers(1, 300), st.integers(2, 12)),
    st.builds("quot(union(compl(mult({})),ap({},{})),{})".format, st.integers(2, 12),
              st.integers(1, 20), st.integers(2, 12), st.integers(2, 4)),
), st.sampled_from([60, 400]))


def _both(A, new, plain):
    """Run the checker and its plain form on recorded copies of A: (json, calls) each."""
    results = []
    for run in (new, plain):
        R = _recorded(A)
        try:
            out = run(R).to_json()
        except ResourceError as exc:
            out = f"cap: {exc}"
        results.append((out, R.calls))
    return results


# 1 and the 16 candidates 3, 5, ..., 33 after it, of which only 33 sums into the set
_HIT_AT_16 = "{" + ",".join(map(str, [*range(1, 34, 2), 34])) + "}"


@settings(max_examples=200, deadline=None)
@given(_LOOP_SETS, st.integers(1, 4), st.sampled_from(["additive", "multiplicative"]),
       st.integers(20, 400), st.integers(15, 400))
# 2 + 59 = 61 lies above the enumeration: unknown, so 59 is refused and [5, 17] proved
@example(("fp(primeseq(odd))", 60), 2, "additive", 400, 400)
# the root's candidates, until one leaves its successor no candidate (nor do later ones)
@example(("primes", 5000), 2, "multiplicative", 5000, 100_000)
# dense windows that pass nothing, until the cap
@example(("shift(mult(3),2)", 400), 2, "additive", 400, 1000)
# 1 + 33 = 34 passes at the 16th candidate after 1, the last of a first window; a cap
# of 16 ends the search one candidate short of it
@example((_HIT_AT_16, 60), 2, "additive", 60, 400)
@example((_HIT_AT_16, 60), 2, "additive", 60, 16)
# dense windows that pass candidates deeper in the search
@example(("fp(primeseq(odd))", 400), 3, "additive", 400, 100_000)
@example(("level(2)", 400), 3, "multiplicative", 400, 400)
# sparse windows: few candidates over a long span of cells
@example(("ap(5,1000)", 20000), 2, "additive", 20000, 400)
@example(("construct(sidon)", 20000), 3, "additive", 20000, 400)
@example(("dilate(1000,odd)", 20000), 2, "additive", 20000, 400)
@example((f"dilate(1000,{_HIT_AT_16})", 40000), 2, "additive", 40000, 400)
# 1 is a member, in both modes
@example(("union({1},shift(mult(3),2))", 400), 3, "additive", 400, 400)
@example(("union({1},dilate(2,odd))", 400), 3, "multiplicative", 400, 400)
def test_ip_search_matches_the_plain_scan(set_at, L, mode, H, cap):
    # a cap of at least 2^4 - 1 lets every L run, and a low one truncates the search
    A = ev(*set_at)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(largeness, "SUBSET_CAP", cap)
        assert ip_search(A, L, H, mode).to_json() == _plain_ip_search(A, L, H, mode).to_json()


def _live_recs():
    """The recursive helpers of ip_search and the antichain search still alive."""
    names = ("ip_search.<locals>.rec", "extract_strong_antichain.<locals>.rec")
    return [f for f in gc.get_objects()
            if isinstance(f, types.FunctionType) and f.__qualname__ in names]


def test_the_recursive_searches_leave_no_cycle():
    """ip_search and the antichain search free their recursive helper when they
    return, instead of leaving it in a reference cycle with itself (and with the
    tables it reads) until the collector runs: a batch process then peaks lower."""
    A, B = ev("dilate(2,odd)", 5000), ev("up({6,10,15})", 5000)
    gc.collect()
    gc.disable()
    try:
        assert ip_search(A, 3, 5000).status == "bounded"
        assert arith.extract_strong_antichain(B.elements(5000), 4, 5000) is None
        assert _live_recs() == []
    finally:
        gc.enable()


@settings(max_examples=200, deadline=None)
@given(_LOOP_SETS, st.sampled_from(["additive", "multiplicative"]), st.integers(1, 4),
       st.integers(1, 30), st.integers(1, 400), st.data())
def test_j_check_matches_the_plain_scan(set_at, mode, h_max, a_max, cap, data):
    A = ev(*set_at)
    tables = data.draw(st.one_of(
        st.just(_add_funcs(h_max)), st.just(gen_mj_funcs(h_max)),
        st.lists(st.lists(st.integers(1, 40), min_size=h_max, max_size=h_max),
                 min_size=1, max_size=3)))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(largeness, "SUBSET_CAP", cap)
        if a_max * ((1 << h_max) - 1) > cap:
            with pytest.raises(ResourceError, match="search-step cap"):
                j_check(A, tables, a_max, h_max, mode)
            return
        new, plain = _both(A, lambda R: j_check(R, tables, a_max, h_max, mode),
                           lambda R: _plain_j_check(R, tables, a_max, h_max, mode))
    assert new == plain


@settings(max_examples=200, deadline=None)
@given(_LOOP_SETS, st.integers(0, 4), st.integers(1, 12), st.integers(12, 400))
# complete below H: to 30, to 0 (a divisor closure of an infinite set) and, listed, to 60
@example(("quot(mult(10),2)", 60), 3, 10, 400)
@example(("down(union({12},mult(1001)))", 60), 2, 4, 400)
@example(("fp(primeseq(odd))", 60), 1, 6, 400)
@example(("{1}", 60), 4, 1, 60)
def test_a_pcws_matches_the_plain_scan(set_at, t_max, n, H):
    A = ev(*set_at)
    assert a_pcws_check(A, t_max, n, H).to_json() == _plain_a_pcws(A, t_max, n, H).to_json()


@settings(max_examples=300, deadline=None)
@given(_LOOP_SETS, st.integers(2, 4), st.one_of(st.just(5), st.integers(4, 400)))
# finite runs that end at the horizon and cross it, and a periodic window that passes it
@example(("{3,4,5,9}", 60), 3, 5)
@example(("{1,2,3,9,10,11,12}", 60), 4, 5)
@example(("union(mult(7),ap(1,7))", 60), 2, 5)
# the run [29, 31] crosses the bound 30: two listed members, then the predicate's
@example(("quot(union(ap(58,30),ap(60,30),ap(62,30)),2)", 60), 3, 400)
# the first run, [7, 9], ends at the last point it can: one before the window 10, which
# is H here and lies below H next
@example(("union(mult(7),shift(mult(7),6),shift(mult(7),5))", 60), 3, 10)
@example(("union(mult(7),shift(mult(7),6),shift(mult(7),5))", 60), 3, 400)
def test_a_thick_matches_the_two_pass_scan(set_at, n, H):
    A = ev(*set_at)
    assert a_thick_check(A, n, H).to_json() == _plain_a_thick(A, n, H).to_json()


def test_a_thick_single_member_runs():
    # with n = 1 a finite set's first member is its first run, within the horizon or past it
    assert a_thick_check(ev("{5,9}"), 1, 8).certificate == {"m": 4, "run": [5, 5]}
    for text in ("{5}", "{5,9}"):
        v = a_thick_check(ev(text), 1, 3)
        assert v.status == "bounded" and v.certificate == {"run_beyond_horizon": 4}


@settings(max_examples=100, deadline=None)
@given(_LOOP_SETS, st.integers(2, 4), st.integers(4, 400))
@example(("quot(mult(10),2)", 60), 2, 400)
@example(("down(union({12},mult(1001)))", 60), 2, 400)
@example(("fp(primeseq(odd))", 60), 3, 400)
@example(("{1}", 60), 2, 60)
# the first prefix proves; the whole pool holds no antichain; the first prefix
# fails and the 128-prefix proves [6, 35, 143, 437]; the search is capped
@example(("N", 400), 4, 400)
@example(("up({6,10,15})", 5000), 4, 5000)
@example(("union(mult(6),mult(35),mult(143),mult(437))", 5000), 4, 5000)
@example(("mult(2)", 6000), 4, 6000)
# the 128-prefix proves [10, 303], though the whole pool holds the smaller [6, 1001]
@example(("up({6,10,303,1001})", 5000), 2, 5000)
def test_nmaxstar_matches_the_plain_scan(set_at, s, H):
    A = ev(*set_at)
    assert nmaxstar_check(A, s, H).to_json() == _plain_nmaxstar(A, s, H).to_json()


def _antichain_searches(monkeypatch, text, H, s=4):
    """The pool sizes NMAX* hands the antichain search on text at H, in call order."""
    sizes, search = [], arith.extract_strong_antichain

    def counted(pool, s, H):
        sizes.append(len(pool))
        return search(pool, s, H)
    monkeypatch.setattr(arith, "extract_strong_antichain", counted)
    nmaxstar_check(ev(text, H), s, H)
    return sizes


def test_nmaxstar_searches_no_pool_twice(monkeypatch):
    """mult(39)'s pool stops growing at 64 generators, well below H // 2: it is
    searched once, not again when the collection reaches H // 2."""
    assert _antichain_searches(monkeypatch, "mult(39)", 5000) == [64]


def test_nmaxstar_settles_a_pool_without_antichain_in_two_searches(monkeypatch):
    """The first prefix, then the whole pool, whose failure settles every prefix
    between them; a proved set stops at the first prefix without collecting more."""
    assert _antichain_searches(monkeypatch, "up({6,10,15})", 5000) == [64, 666]
    assert _antichain_searches(monkeypatch, "N", 131072) == [64]


def _walked_max(A, N, H):
    """MAX as the embed kernel walked it: at most 2048 multiples of each n, then
    the members up to H (completing A there) and the listed ones past it."""
    bounds = {"N": N, "horizon": H}
    elems = None
    witnesses = {}
    for m in range(1, N + 1):
        k = _least_dilation((m,), A.contains, _one_by_one(range(1, min(H // m, 2048) + 1)))
        if k is None and elems is None:
            elems = A.elements(H)
            elems = elems + A.elements()[len(elems):]
        w = k * m if k is not None else next((e for e in elems if e % m == 0), None)
        if w is None:
            if A.finite:
                return Verdict.refuted({"n0": m, "reason": "finite set has no multiple"}, bounds)
            if analysis.empty_meet_mult(A.expr, m) is True:
                return Verdict.refuted(
                    {"n0": m, "reason": "set provably misses every multiple"}, bounds)
            return Verdict.bounded("against", bounds, {"n0": m, "witnessed_up_to": m - 1})
        witnesses[m] = w
    return Verdict.proved({"witnesses": witnesses}, bounds)


def _walked_maxstar(A, a_max, H):
    """MAX* asking contains of each multiple of a in turn, up to the first that is
    not a known member."""
    bounds = {"a_max": a_max, "horizon": H}
    missing, undecided = {}, {}
    for a in range(1, a_max + 1):
        gap = next(((v, c) for v in range(a, H + 1, a) if (c := A.contains(v)) is not True),
                   None)
        if gap is None:
            return Verdict.proved({"a": a, "multiples_checked": H // a}, bounds)
        v, c = gap
        (missing if c is False else undecided)[a] = v
    if undecided:
        return Verdict.bounded("against", bounds,
                               {"missing_multiple": missing, "undecided_multiple": undecided})
    return Verdict.refuted({"missing_multiple": missing}, bounds)


# the horizon H, the divisor bound N and the dilation cap a_max, both within H
_MAX_BOUNDS = st.integers(1, 400).flatmap(
    lambda H: st.tuples(st.just(H), st.integers(1, H), st.integers(1, H)))


@settings(max_examples=200, deadline=None)
@given(_LOOP_SETS, _MAX_BOUNDS)
@example(("quot(mult(10),2)", 60), (400, 400, 400))
@example(("down(union({12},mult(1001)))", 60), (400, 20, 20))
@example(("fp(primeseq(odd))", 60), (400, 400, 20))
@example(("{1}", 60), (60, 20, 20))
# members listed past H, every n up to H a member, and a least member past the
# kernel's 2048 steps
@example(("construct(thick_nonmaxstar,8)", 20), (20, 20, 20))
@example(("compl(mult(6000))", 5000), (5000, 5000, 20))
@example(("mult(4100)", 5000), (5000, 20, 20))
def test_max_and_maxstar_match_the_plain_walks(set_at, bounds):
    H, N, a_max = bounds
    # each on a fresh set: the walk completes A to H when the kernel gives up
    assert max_check(ev(*set_at), N, H).to_json() == _walked_max(ev(*set_at), N, H).to_json()
    assert (maxstar_check(ev(*set_at), a_max, H).to_json()
            == _walked_maxstar(ev(*set_at), a_max, H).to_json())


@settings(max_examples=200, deadline=None)
@given(_LOOP_SETS.flatmap(lambda s: st.tuples(st.just(s), st.integers(0, 2 * s[1]))))
@example((("quot(mult(10),2)", 60), 120))
@example((("down(union({12},mult(1001)))", 60), 100))
@example((("fp(primeseq(odd))", 60), 120))
@example((("{1}", 60), 0))
def test_member_marks_agree_with_contains(case):
    set_at, top = case
    A = ev(*set_at)
    before = (list(A.elements()), A.complete_below)
    marks = A.member_marks(top)
    assert len(marks) == top + 1
    assert [n for n in range(top + 1) if marks[n]] == [
        n for n in range(top + 1) if A.contains(n) is True]
    if not A.finite:
        # the table grows no member list
        assert (A.elements(), A.complete_below) == before


def _plain_nmax(A, s, H):
    """NMAX by factorizing every member up to the bound it reads."""
    complete_to = H if A.is_exact else min(H, A.complete_below)
    members = A.elements(complete_to)
    bounds = {"horizon": H, "s": s, "members_complete_below": complete_to}
    used = {p for e in members if e > 1 for p, _ in arith.factorize(e)}
    absent = [p for p in arith.primes_upto(H) if p not in used][:s]
    if len(absent) == s:
        return Verdict.refuted(
            {"antichain": absent, "strength": s, "members_checked": len(members)}, bounds)
    return Verdict.bounded("for", bounds, {"absent_primes": absent})


@settings(max_examples=200, deadline=None)
@given(_LOOP_SETS, st.integers(2, 6), st.integers(4, 400))
# a finite divisor closure, and one of an infinite set: complete below 0, so every
# prime up to H is absent
@example(("down({12,18})", 60), 4, 60)
@example(("down(union({12},mult(5)))", 60), 4, 60)
# 1 divides nothing but itself, so the first s primes are absent
@example(("{1}", 60), 6, 400)
# listed only below 60, which is less than H
@example(("fp(primeseq(odd))", 60), 4, 400)
def test_nmax_matches_the_plain_bookkeeping(set_at, s, H):
    A = ev(*set_at)
    assert nmax_refute(A, s, H).to_json() == _plain_nmax(A, s, H).to_json()


def test_j_search_steps_are_capped_before_any_table(N):
    # the default bounds take 500 * 15 steps, well inside the cap
    assert j_check(N, _add_funcs(4), 500, 4).is_proved
    with pytest.raises(ResourceError, match="search-step cap"):
        j_check(N, _add_funcs(4), 10 ** 14, 4)
    with pytest.raises(ResourceError, match="index subsets exceed the cap"):
        j_check(N, _add_funcs(10 ** 14), 1, 10 ** 14)
    with pytest.raises(ResourceError, match="combinations exceed the subset cap"):
        ip_search(N, 10 ** 14)
