"""Bounded checkers for the largeness hierarchy on sets of naturals.

Every checker returns a three-valued Verdict whose certificate can be
re-verified independently. Proved always means a concrete finite witness was
found and checked. Refuted is only issued when membership is decidable over
the whole region the claim quantifies over: an exact periodic structure, a
finite set whose members are all known, or a residue argument on the
expression. Everything else is BoundedEvidence with the search bounds spelled
out. The checkers take their bounds as given: PropertyParams validates them,
and a checker refuses only bounds that exceed the horizon or a search cap.

diagram_report bundles thirteen property checkers over one set, records the
dual (*) checks, marks the order-theoretic properties that have no finite
shadow as out of scope, and audits the implications that must hold between
the produced verdicts. poset_atlas leaves bounded territory entirely: on the
divisor poset of {1..n} it enumerates every up-closed and down-closed subset
and verifies the finite characterizations of the dilation properties exactly.
"""

from __future__ import annotations

import bisect
from itertools import islice

from . import arith
from .constructions import gen_mj_funcs
from .embed import _least_dilation, _one_by_one, mthick_check
from .errors import InapplicableError, InputError, ResourceError
from .record import record
from .setlang import analysis, nodes
from .setlang.evaluate import complement
from .setlang.lazyset import DEFAULT_HORIZON, SUBSET_CAP, LazySet
from .verdicts import Verdict

_PERIOD_WINDOW_CAP = 2_000_000
_J_MASK_CAP = 1 << 20
_ATLAS_MAX_N = 20
_ATLAS_EXHAUSTIVE_N = 14
_ATLAS_SAMPLE = 4_096
_ATLAS_FAMILY_CAP = 2_000_000
_IP_WINDOW = 16  # the IP search's first window, in candidates
_IP_SPARSE = 32  # the cells per candidate past which a window tests candidates, not cells


# ---------------------------------------------------------------------------
# interval properties (runs of consecutive integers and their shifted covers)
# ---------------------------------------------------------------------------

def a_thick_check(A: LazySet, n: int, H: int = DEFAULT_HORIZON) -> Verdict:
    """Find n consecutive members; refute only when finiteness or periodic structure decides it."""
    if n > H:
        raise InputError(f"run length {n} exceeds horizon {H}")
    bounds = {"horizon": H, "n": n}
    # the first run of a finite set ends by its largest member, and that of a
    # periodic exact set within a window that holds a whole period past the
    # preperiod, so the scan stops there, also when that is past H
    period = analysis.period_of(A.expr) if A.is_exact and not A.finite else None
    window = None
    if period is not None and period[0] + period[1] + n <= _PERIOD_WINDOW_CAP:
        window = period[0] + period[1] + n
    top = A.max_known() if A.finite else window or H
    # one table answers every point; a finite set's members past its table are listed
    marks = A.member_marks(A.top if A.finite else top)
    m = marks.find(b"\x01" * n)
    if m >= 0:
        return _thick_run(m + n - 1, n, H, bounds, window)
    if A.finite:
        # a run at the table's end goes on among the listed members
        run, last = A.top - marks.rfind(0), A.top
        for x in A.past:
            run, last = run + 1 if x == last + 1 else 1, x
            if run >= n:
                return _thick_run(x, n, H, bounds, window)
        return Verdict.refuted({"reason": "finite set", "members": A.count_known()}, bounds)
    if window is not None:
        return Verdict.refuted(
            {"preperiod": period[0], "period": period[1], "window": window}, bounds)
    detail = _longest_run(marks, n)
    # past its bound a set without a predicate answers only for its listed members
    if A.pred is None and 0 in marks[A.complete_below + 1:]:
        detail["undecided_points"] = True
    return Verdict.bounded("against", bounds, detail)


def _longest_run(marks: bytes, n: int) -> dict:
    """The longest run of 1s in marks, which holds no run of n, found by bisecting on
    whether a run of r occurs, and the index before the first such run (the `at` of
    a verdict on a table indexed by n)."""
    best = bisect.bisect_left(range(n), True, key=lambda r: b"\x01" * r not in marks) - 1
    return {"max_run": best, "at": marks.find(b"\x01" * best) - 1} if best else {"max_run": 0}


def _thick_run(x: int, n: int, H: int, bounds: dict, window: int | None) -> Verdict:
    """The verdict on the first run of n members, which ends at x."""
    if x > H:
        # a run exists, but only beyond the requested horizon
        detail = {"run_beyond_horizon": x - n}
        if window is not None:
            detail["window"] = window
        return Verdict.bounded("against", bounds, detail)
    return Verdict.proved({"m": x - n, "run": [x - n + 1, x]}, bounds)


def a_pcws_check(A: LazySet, t_max: int, n: int, H: int = DEFAULT_HORIZON) -> Verdict:
    """Find a run of n in the union of the downward shifts A-t, t = 0..t_max.

    The union grows with the shift family, so searching with the full family
    {0..t_max} decides the existence question for every subfamily bound.
    """
    if n > H or t_max > H:
        raise InputError(f"bounds (t_max={t_max}, n={n}) exceed horizon {H}")
    bounds = {"horizon": H, "t_max": t_max, "n": n}
    # past the largest member of a finite set no x is covered
    top = min(H, A.max_known()) if A.finite else H
    marks = A.member_marks(top + t_max)
    # covered[x] is 1 when some x + t is a member: one OR of whole ints per shift
    covered = 0
    for t in range(t_max + 1):
        covered |= int.from_bytes(marks[t:top + 1 + t], "little")
    covered = (covered & ~1).to_bytes(top + 1, "little")
    m = covered.find(b"\x01" * n) - 1
    if m >= 0:
        return Verdict.proved({"F": list(range(t_max + 1)), "m": m, "run": [m + 1, m + n]},
                              bounds)
    return Verdict.bounded("against", bounds, _longest_run(covered, n))


def m_pcws_check(A: LazySet, t_max: int, n: int, H: int = DEFAULT_HORIZON) -> Verdict:
    """Find k with k*{1..n} inside the union of the quotients A/t, t = 1..t_max."""
    if n > H or t_max > H:
        raise InputError(f"bounds (t_max={t_max}, n={n}) exceed horizon {H}")
    bounds = {"horizon": H, "t_max": t_max, "n": n}
    divisors = range(1, t_max + 1)
    k_top = H // n

    def divisor_for(v: int) -> int | None:
        return next((t for t in divisors if A.contains(t * v) is True), None)

    # t*k*n is a member, so a finite set rules out every k past its largest over n
    k_last = min(k_top, A.max_known() // n) if A.finite else k_top
    k = _least_dilation(range(1, n + 1), lambda v: divisor_for(v) is not None,
                        _one_by_one(range(1, k_last + 1)))
    if k is None:
        return Verdict.bounded("against", bounds, {"exhausted_k": k_top})
    table = {i: divisor_for(k * i) for i in range(1, n + 1)}
    return Verdict.proved({"F": list(divisors), "k": k, "shift_for": table}, bounds)


# ---------------------------------------------------------------------------
# combination-closure properties (subset sums / subset products)
# ---------------------------------------------------------------------------

def ip_search(A: LazySet, L: int, H: int = DEFAULT_HORIZON,
              mode: str = "additive") -> Verdict:
    """Lexicographically least x_1 < ... < x_L whose nonempty combinations stay in A."""
    if L > SUBSET_CAP.bit_length() or (1 << L) - 1 > SUBSET_CAP:
        raise ResourceError(
            f"2^{L}-1 combinations exceed the subset cap {SUBSET_CAP}")
    bounds = {"horizon": H, "L": L, "mode": mode}
    elems = A.elements(H)
    additive = mode == "additive"
    marks = A.member_marks(H)  # marks[n] is 1 for a member n
    attempts = 0
    truncated = False
    chosen: list[int] = []

    def passing(vals: list[int], pos: int, q: int) -> list[int]:
        """The indices in [pos, q) of the x whose combinations with vals are all members."""
        lo, hi = elems[pos], elems[q - 1] + 1
        if hi - lo > _IP_SPARSE * (q - pos):
            # few candidates over a long span: test them, not the cells between
            hits = range(pos, q)
            for v in vals:
                hits = ([i for i in hits if marks[elems[i] + v]] if additive
                        else [i for i in hits if marks[elems[i] * v]])
            return hits
        # one byte per n in [lo, hi): x itself, then x + v or x * v for each v
        live = int.from_bytes(marks[lo:hi], "little")
        for v in vals:
            live &= int.from_bytes(
                marks[lo + v:hi + v] if additive else marks[lo * v:hi * v:v], "little")
            if not live:
                return []
        ok = live.to_bytes(hi - lo, "little")
        return [i for i in range(pos, q) if ok[elems[i] - lo]]

    def spend(tries: int) -> bool:
        """Count tries attempts as a one-by-one scan would, or end the search past the cap."""
        nonlocal attempts, truncated
        if attempts + tries > SUBSET_CAP:
            attempts, truncated = SUBSET_CAP, True
            return False
        attempts += tries
        return True

    def rec(start: int, end: int, vals: list[int]) -> list[int] | None:
        if len(chosen) == L:
            return vals
        pos, width = start, _IP_WINDOW
        while pos < end:
            # a window of candidates, doubling while none passes; with no
            # combination yet every candidate passes
            q = min(end, pos + width, pos + SUBSET_CAP - attempts + 1)
            hits = passing(vals, pos, q) if vals else range(pos, q)
            for idx in hits:
                if not spend(idx + 1 - pos):
                    return None
                x = elems[idx]
                fresh = vals + [v + x if additive else v * x for v in vals] + [x]
                # x's successors end where top+x or top*x, the largest combination, passes H
                top = max(fresh)
                cut = bisect.bisect_right(elems, H - top if additive else H // top, idx + 1)
                if cut == idx + 1 and len(chosen) + 1 < L:
                    # no later x leaves its successor a candidate either
                    spend(end - idx - 1)
                    return None
                chosen.append(x)
                if (found := rec(idx + 1, cut, fresh)) is not None:
                    return found
                # past the cap every later spend fails, so the search unwinds
                chosen.pop()
                pos = idx + 1
            if not spend(q - pos):
                return None
            pos, width = q, _IP_WINDOW if hits else 2 * width
        return None

    try:
        values = rec(0, len(elems), [])
    finally:
        del rec  # it refers to itself, a cycle that would hold the marks until a collection
    if values is not None:
        return Verdict.proved(
            {"sequence": list(chosen), "values": sorted(set(values))}, bounds)
    return Verdict.bounded(
        "against", bounds,
        {"candidates": len(elems), "attempts": attempts,
         "exhausted": not truncated})


def ip_star_check(A: LazySet, L: int, H: int = DEFAULT_HORIZON) -> Verdict:
    """Dual check: a combination witness inside the complement refutes the star property."""
    if not A.is_exact:
        raise InapplicableError(
            "the dual check needs a total membership predicate for the complement")
    comp = complement(A, nodes.Compl(A.expr), H)
    r = ip_search(comp, L, H, "additive")
    bounds = {"horizon": H, "L": L}
    if r.is_proved:
        return Verdict.refuted({"complement_witness": r.certificate}, bounds)
    return Verdict.bounded("for", bounds, {"complement_search": r.certificate})


def j_check(A: LazySet, funcs, a_max: int, h_max: int,
            mode: str = "additive") -> Verdict:
    """Find a and a nonempty H' in 1..h_max landing every table of funcs in A simultaneously."""
    if h_max > _J_MASK_CAP.bit_length() or 1 << h_max > _J_MASK_CAP:
        raise ResourceError(f"2^{h_max} index subsets exceed the cap {_J_MASK_CAP}")
    size = 1 << h_max
    if a_max * (size - 1) > SUBSET_CAP:
        raise ResourceError(f"{a_max} base values times {size - 1} index subsets "
                            f"exceed the search-step cap {SUBSET_CAP}")
    additive = mode == "additive"
    combo = []
    for f in funcs:
        acc = [0 if additive else 1] * size
        for mask in range(1, size):
            low = mask & -mask
            v = f[low.bit_length() - 1]
            prev = acc[mask ^ low]
            acc[mask] = prev + v if additive else prev * v
        combo.append(acc)
    bounds = {"a_max": a_max, "h_max": h_max, "mode": mode, "tables": len(funcs)}
    contains = A.contains
    # columns[mask]: each table's combination over the index set mask
    columns = list(zip(*combo))
    for a in range(1, a_max + 1):
        for mask in range(1, size):
            for c in columns[mask]:
                if contains(a + c if additive else a * c) is not True:
                    break
            else:
                indices = [i + 1 for i in range(h_max) if mask >> i & 1]
                landing = [a + c if additive else a * c for c in columns[mask]]
                return Verdict.proved(
                    {"a": a, "indices": indices, "values": landing}, bounds)
    return Verdict.bounded("against", bounds, {"exhausted_a": a_max})


# ---------------------------------------------------------------------------
# divisibility properties (the dilation order on sets)
# ---------------------------------------------------------------------------

def max_check(A: LazySet, N: int, H: int = DEFAULT_HORIZON) -> Verdict:
    """Every n <= N must divide some member; refute only with provable emptiness."""
    if N > H:
        raise InputError(f"divisor bound {N} exceeds horizon {H}")
    bounds = {"N": N, "horizon": H}
    marks = A.member_marks(H)
    witnesses: dict[int, int] = {}
    for m in range(1, N + 1):
        # the least member multiple up to H, else the least one the set knows past H
        # (sound witnesses too), unless the set provably misses every multiple
        k = marks[m::m].find(1) + 1
        if k:
            witnesses[m] = k * m
            continue
        if not A.finite and analysis.empty_meet_mult(A.expr, m) is True:
            return Verdict.refuted(
                {"n0": m, "reason": "set provably misses every multiple"}, bounds)
        w = next((e for e in A.iter_members(after=H) if e % m == 0), None)
        if w is None:
            if A.finite:
                return Verdict.refuted(
                    {"n0": m, "reason": "finite set has no multiple"}, bounds)
            return Verdict.bounded(
                "against", bounds, {"n0": m, "witnessed_up_to": m - 1})
        witnesses[m] = w
    return Verdict.proved({"witnesses": witnesses}, bounds)


def maxstar_check(A: LazySet, a_max: int, H: int = DEFAULT_HORIZON) -> Verdict:
    """Find a whose every multiple up to the horizon belongs to A."""
    if a_max > H:
        raise InputError(f"dilation cap {a_max} exceeds horizon {H}")
    bounds = {"a_max": a_max, "horizon": H}
    marks = A.member_marks(H)
    missing: dict[int, int] = {}
    undecided: dict[int, int] = {}
    for a in range(1, a_max + 1):
        # the least multiple of a that is not a known member, and A's answer there
        k = marks[a::a].find(0) + 1
        if not k:
            return Verdict.proved(
                {"a": a, "multiples_checked": H // a}, bounds)
        (missing if A.contains(k * a) is False else undecided)[a] = k * a
    if undecided:
        return Verdict.bounded(
            "against", bounds,
            {"missing_multiple": missing, "undecided_multiple": undecided})
    return Verdict.refuted({"missing_multiple": missing}, bounds)


def nmax_refute(A: LazySet, s: int, H: int = DEFAULT_HORIZON) -> Verdict:
    """Seek s pairwise-coprime numbers none of which divides any member."""
    complete_to = H if A.is_exact else min(H, A.complete_below)
    marks = A.member_marks(complete_to)
    bounds = {"horizon": H, "s": s, "members_complete_below": complete_to}
    # p divides no listed member exactly when its stride over the marks holds no 1
    absent = list(islice((p for p in arith.primes_upto(H) if 1 not in marks[p::p]), s))
    if len(absent) == s:
        return Verdict.refuted(
            {"antichain": absent, "strength": s, "members_checked": marks.count(1)},
            bounds)
    return Verdict.bounded("for", bounds, {"absent_primes": absent})


def nmaxstar_check(A: LazySet, s: int, H: int = DEFAULT_HORIZON) -> Verdict:
    """Seek a pairwise-coprime C whose dilations up to the horizon all lie in A."""
    bounds = {"horizon": H, "s": s}
    # Generators are collected in ascending order and searched in growing
    # prefixes (first, 2·first, 4·first, ..., then the whole pool), so a proof
    # gives the lexicographically least antichain of the first prefix that holds
    # one; a smaller one may use a later generator.
    # The cap at horizon//2 keeps the evidence honest: every accepted generator
    # has at least two of its dilations verified, never just itself.
    # A search that hits its step cap ends the check with bounded evidence.
    marks = A.member_marks(H)
    gens = (c for c in range(2, H // 2 + 1) if 0 not in marks[c::c])
    first = max(64, 8 * s)
    pool = list(islice(gens, first))  # the rest only once this prefix has failed
    try:
        C = arith.extract_strong_antichain(pool, s, H) if len(pool) >= s else None
        if C is None and len(pool) == first:
            pool += gens
            if len(pool) > first:
                C = _least_prefix_antichain(pool, first, s, H)
    except ResourceError:
        return Verdict.bounded("against", bounds, {
            "dilation_generators": pool[:32], "antichain_search_capped": True})
    if C is not None:
        return Verdict.proved({"antichain": C, "strength": s}, bounds)
    return Verdict.bounded(
        "against", bounds, {"dilation_generators": pool[:32]})


def _least_prefix_antichain(pool: list[int], first: int, s: int, H: int) -> list[int] | None:
    """The antichain of the least prefix 2·first, 4·first, ... or pool itself
    that holds one, as searching them in turn would give it, or its ResourceError.

    The whole pool is searched first, and when that search ends under the step
    cap without an antichain, no prefix is searched: a prefix's indices are the
    pool's first n, and its primes' bit sets are the pool's masked to n bits, so
    a failing prefix search visits a subset of the failing pool search's nodes.
    At each node it counts max(0, last - pos + 1) steps, and last only grows
    with n, so its count stays within the pool's and the cap fires on none.
    """
    try:
        whole = arith.extract_strong_antichain(pool, s, H)
    except ResourceError as capped:
        whole = capped
    if whole is None:
        return None
    n = 2 * first
    while n < len(pool):
        C = arith.extract_strong_antichain(pool[:n], s, H)
        if C is not None:
            return C
        n *= 2
    if isinstance(whole, ResourceError):
        raise whole
    return whole


def crt_thickness_demo(C, n: int) -> int:
    """Interval start x such that each of x+1 .. x+n is divisible by one element of C."""
    elems = sorted(set(int(c) for c in C))
    if not elems or not arith.is_strong_antichain(elems):
        raise InputError(f"need a pairwise-coprime set of numbers >= 2, got {sorted(C)}")
    if not 1 <= n <= len(elems):
        raise InputError(f"run length must be within 1..{len(elems)}, got {n}")
    x = arith.crt_solve([(-m, elems[m - 1]) for m in range(1, n + 1)])
    if x is None:
        raise AssertionError("coprime congruence system must be solvable")
    for m in range(1, n + 1):
        if (x + m) % elems[m - 1]:
            raise AssertionError(f"{elems[m - 1]} does not divide {x + m}")
    return x


# ---------------------------------------------------------------------------
# the combined report
# ---------------------------------------------------------------------------

@record
class PropertyParams:
    """Bounds for one report run, the one place they are validated; the checkers
    read their horizon here."""

    horizon: int = DEFAULT_HORIZON
    run_length: int = 10
    t_max: int = 3
    ip_len: int = 3
    j_a_max: int = 500
    j_h_max: int = 4
    divisor_n: int = 20
    star_a_max: int = 20
    antichain_s: int = 4

    def __post_init__(self):
        for name in self._fields:
            value, least = getattr(self, name), 2 if name == "antichain_s" else 1
            if value < least:
                raise InputError(f"{name} must be >= {least}, got {value}")


def _add_funcs(h_max: int) -> tuple[range, range]:
    """The additive J tables f(i) = i and g(i) = 2i for i <= h_max, lazy for j_check's caps."""
    return range(1, h_max + 1), range(2, 2 * h_max + 1, 2)


# Each entry calls its checker by module-level name at call time, so a wrapper
# installed on the module attribute (a tracer, a profiler) sees every call.
CHECKERS = {
    "A-thick": lambda A, p: a_thick_check(A, p.run_length, p.horizon),
    "M-thick": lambda A, p: mthick_check(A, p.run_length, p.horizon),
    "A-pcws": lambda A, p: a_pcws_check(A, p.t_max, p.run_length, p.horizon),
    "M-pcws": lambda A, p: m_pcws_check(A, p.t_max, p.run_length, p.horizon),
    "A-IP": lambda A, p: ip_search(A, p.ip_len, p.horizon, "additive"),
    "M-IP": lambda A, p: ip_search(A, p.ip_len, p.horizon, "multiplicative"),
    "A-IP*": lambda A, p: ip_star_check(A, p.ip_len, p.horizon),
    "A-J": lambda A, p: j_check(
        A, _add_funcs(p.j_h_max), p.j_a_max, p.j_h_max, "additive"),
    "M-J": lambda A, p: j_check(
        A, gen_mj_funcs(p.j_h_max), p.j_a_max, p.j_h_max, "multiplicative"),
    "MAX": lambda A, p: max_check(A, p.divisor_n, p.horizon),
    "NMAX": lambda A, p: nmax_refute(A, p.antichain_s, p.horizon),
    "MAX*": lambda A, p: maxstar_check(A, p.star_a_max, p.horizon),
    "NMAX*": lambda A, p: nmaxstar_check(A, p.antichain_s, p.horizon),
}
OUT_OF_SCOPE = ("A-central", "A-central*", "M-central", "M-central*")
_OUT_OF_SCOPE_REASON = (
    "defined through idempotent elements of a compactified semigroup; "
    "no finite fragment of the set decides it")


@record
class LargenessReport:
    """Fixed-order verdicts for one set plus the cross-property audits."""

    entries: tuple[tuple[str, object], ...]
    out_of_scope: tuple[str, ...]
    audits: tuple[dict, ...]
    params: PropertyParams

    def to_json(self) -> dict:
        props = []
        for name, value in self.entries:
            if isinstance(value, Verdict):
                vj = value.to_json()
                entry = {"name": name, "verdict": vj.pop("status"), **vj}
            else:
                entry = {"name": name, "verdict": "inapplicable",
                         "reason": value["inapplicable"]}
            props.append(entry)
        for name in self.out_of_scope:
            props.append({"name": name, "verdict": "out-of-scope",
                          "reason": _OUT_OF_SCOPE_REASON})
        return {"properties": props, "audits": list(self.audits),
                "params": self.params.to_json()}


def _audit_thick_pcws(A, premise, params) -> tuple[str, dict]:
    w = a_pcws_check(A, 0, params.run_length, params.horizon)
    return "pass" if w.is_proved else "fail", {"pcws_status": w.status}


def _audit_maxstar_max(A, premise, params) -> tuple[str, dict]:
    a = premise.certificate["a"]
    N = max(1, params.horizon // a)
    w = max_check(A, N, params.horizon)
    return "pass" if w.is_proved else "fail", {"a": a, "N": N, "max_status": w.status}


def _audit_nmaxstar_thick(A, premise, params) -> tuple[str, dict]:
    C = list(premise.certificate["antichain"])
    x = crt_thickness_demo(C, len(C))
    checks = [A.contains(x + m) for m in range(1, len(C) + 1)]
    detail = {"antichain": C, "m": x, "run": [x + 1, x + len(C)]}
    if any(c is False for c in checks):
        status = "fail"
        detail["missing"] = [x + m for m, c in enumerate(checks, start=1)
                             if c is False]
    elif all(c is True for c in checks):
        status = "pass"
    else:
        status = "skipped"
        detail["reason"] = "interval reaches beyond the decidable range"
    return status, detail


def diagram_report(A: LazySet, params: PropertyParams) -> LargenessReport:
    """Run every property checker on one set and audit the implications."""
    entries: list[tuple[str, object]] = []
    for name, check in CHECKERS.items():
        try:
            entries.append((name, check(A, params)))
        except InapplicableError as exc:
            entries.append((name, {"inapplicable": str(exc)}))
    produced = dict(entries)
    audits = []
    # built per call, so each audit is read by module-level name at call time, as
    # CHECKERS does: (implication, the checker that proves its premise, the audit)
    for implication, premise, audit in (
            ("A-thick(n) => A-pcws(t_max=0, n)", "A-thick", _audit_thick_pcws),
            ("MAX*(a) => MAX up to horizon//a", "MAX*", _audit_maxstar_max),
            ("NMAX* antichain => interval inside its dilation cover", "NMAX*",
             _audit_nmaxstar_thick)):
        v = produced[premise]
        status, detail = (audit(A, v, params) if isinstance(v, Verdict) and v.is_proved
                          else ("skipped", {"reason": "premise not proved"}))
        audits.append({"implication": implication, "status": status, "detail": detail})
    return LargenessReport(tuple(entries), OUT_OF_SCOPE, tuple(audits), params)


# ---------------------------------------------------------------------------
# the exact finite atlas of the divisor poset
# ---------------------------------------------------------------------------

@record
class AtlasReport:
    """Exact enumeration results for the divisor poset on {1..n}."""

    n: int
    exhaustive: bool
    up_closed_count: int
    down_closed_count: int
    brute_up_count: int | None
    subsets_checked: int
    violations: tuple[str, ...]


def poset_atlas(n: int, exhaustive: bool | None = None) -> AtlasReport:
    """Enumerate the up/down-closed subsets of the divisor poset and verify
    the finite characterizations of the dilation properties on every subset
    (exhaustively for small n or on request, on a deterministic sample above)."""
    if n < 1:
        raise InputError(f"universe bound must be >= 1, got {n}")
    if n > _ATLAS_MAX_N:
        raise ResourceError(f"divisor poset atlas is capped at n={_ATLAS_MAX_N}")
    full = (1 << n) - 1
    mult_mask = [0] * (n + 1)
    div_mask = [0] * (n + 1)
    for a in range(1, n + 1):
        for b in range(a, n + 1, a):
            mult_mask[a] |= 1 << (b - 1)
            div_mask[b] |= 1 << (a - 1)

    up_closed: list[int] = []

    def rec_up(lo: int, mask: int) -> None:
        if len(up_closed) > _ATLAS_FAMILY_CAP:
            raise ResourceError(
                f"more than {_ATLAS_FAMILY_CAP} up-closed sets at n={n}")
        up_closed.append(mask)
        for c in range(lo, n + 1):
            if not mask >> (c - 1) & 1:
                rec_up(c + 1, mask | mult_mask[c])

    down_closed: list[int] = []

    def rec_down(hi: int, mask: int) -> None:
        down_closed.append(mask)
        for c in range(hi, 0, -1):
            if not mask >> (c - 1) & 1:
                rec_down(c - 1, mask | div_mask[c])

    rec_up(1, 0)
    rec_down(n, 0)
    down_set = set(down_closed)
    violations: list[str] = []
    if {full ^ u for u in up_closed} != down_set:
        violations.append("complement bijection between the two families fails")

    brute = None
    if exhaustive is None:
        exhaustive = n <= _ATLAS_EXHAUSTIVE_N
    if exhaustive:
        brute = 0
        for mask in range(full + 1):
            m, ok = mask, True
            while m:
                low = m & -m
                m ^= low
                if mult_mask[low.bit_length()] & ~mask:
                    ok = False
                    break
            if ok:
                brute += 1
        if brute != len(up_closed):
            violations.append(
                f"up-closed counts disagree: enumerated {len(up_closed)}, "
                f"brute-force {brute}")

    # one bit per subset: does it contain a nonempty up-closed set? Seeded from
    # the enumerated family, then closed under supersets, so this side never
    # consults the per-element arithmetic used below.
    has_up = 0
    for u in up_closed:
        if u:
            has_up |= 1 << u
    for b in range(n):
        # mask selecting positions whose index-bit b is 0, built by doubling;
        # overshoot past 2^n is harmless (the AND trims it, shifts stay inside)
        lower = (1 << (1 << b)) - 1
        span = 2 << b
        total = 1 << n
        while span < total:
            lower |= lower << span
            span <<= 1
        has_up |= (has_up & lower) << (1 << b)

    if exhaustive:
        masks = range(full + 1)
    else:
        stride = max(1, (full + 1) // _ATLAS_SAMPLE)
        masks = sorted(set(range(0, full + 1, stride)) | {0, full})
    checked = 0
    for A_mask in masks:
        checked += 1
        bits = [a for a in range(1, n + 1) if A_mask >> (a - 1) & 1]
        not_A = ~A_mask
        A_down = 0
        for a in bits:
            A_down |= div_mask[a]
        # (i) contained in no proper down-closed set <=> downward closure is full
        if A_down != full:
            if A_down not in down_set:
                violations.append(
                    f"downward closure {A_down:#x} of {A_mask:#x} missing "
                    f"from the enumeration")
        else:
            for D in down_closed:
                if D != full and A_mask & ~D == 0:
                    violations.append(
                        f"{A_mask:#x} sits inside proper down-closed {D:#x} "
                        f"though its downward closure is full")
                    break
        # (ii) contains a nonempty up-closed set <=> contains a full dilation set
        lhs = has_up >> A_mask & 1 == 1
        rhs = any(mult_mask[a] & not_A == 0 for a in bits)
        if lhs != rhs:
            violations.append(
                f"up-closed-content mismatch on {A_mask:#x}: family says "
                f"{lhs}, dilation witness says {rhs}")
        # (iii) duality: dilation witness in A <=> complement misses a divisor chain
        comp = full ^ A_mask
        comp_down = 0
        m = comp
        while m:
            low = m & -m
            m ^= low
            comp_down |= div_mask[low.bit_length()]
        if rhs != (comp_down != full):
            violations.append(
                f"duality mismatch on {A_mask:#x}: witness {rhs}, complement "
                f"closure {'full' if comp_down == full else 'proper'}")
    return AtlasReport(
        n, exhaustive, len(up_closed), len(down_closed), brute, checked,
        tuple(violations))
