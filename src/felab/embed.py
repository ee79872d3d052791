"""Finite embeddability under dilation: witnesses, exact refuters, chains.

A family F embeds into B at dilation k when every k*f is a member of B.
Positive answers carry the least verified k. Negative answers are either
exact (finite target exhausted, a level certificate, a residue certificate)
or bounded (k-range exhausted with membership still decidable everywhere).
Unknown membership at a needed point raises a precision error instead of
guessing in either direction.
"""

from __future__ import annotations

import bisect
import itertools
import math

from . import arith
from .constructions import _IncreasingStream
from .errors import InapplicableError, InputError, PrecisionError, ResourceError
from .record import record
from .setlang import analysis, nodes
from .setlang.lazyset import DEFAULT_HORIZON, SUBSET_CAP, LazySet
from .verdicts import Verdict

# the prefix length and the largest dilation of fe and me when none is given
DEFAULT_PREFIX = 16
DEFAULT_K_MAX = 1_000_000
_CHAIN_SCAN_CAP = 200_000
# on a 2-core host a chain of depth 100 takes 0.13 s at width 8 and 2.7 s at width
# 5000 (5.5 s at 10000): each level costs time and memory linear in its width
_CHAIN_DEPTH_CAP = 100
_CHAIN_WIDTH_CAP = 5_000


@record
class FeWitness:
    """Dilation factor k with every k*f verified inside the target."""

    k: int
    family: tuple[int, ...]
    images: tuple[int, ...]


@record
class FeRefutation:
    """Why no dilation works: kind names the argument, detail re-verifies it."""

    kind: str
    family: tuple[int, ...]
    detail: dict

    @property
    def exact(self) -> bool:
        return self.kind != "exhausted"


def _check_family(F) -> tuple[int, ...]:
    fam = tuple(sorted(set(F)))
    if not fam:
        raise InputError("family must be nonempty")
    if fam[0] < 1:
        raise InputError(f"family elements must be naturals >= 1, got {fam[0]}")
    return fam


class _Undecided:
    """The k left alive only by unknown answers, kept as the four values their
    PrecisionError names: how many, the first and the last k, and the largest
    unknown point. Its size does not grow with the number of k."""

    count = first = last = worst = 0

    def add(self, k: int, point: int) -> None:
        self.first = self.first or k
        self.count += 1
        self.last = k
        self.worst = max(self.worst, point)

    def error(self) -> PrecisionError:
        return PrecisionError(
            f"membership unknown for {self.count} candidate dilations "
            f"(first k={self.first}, last k={self.last})",
            required_horizon=self.worst,
        )


def _least_dilation(fam, contains, blocks, undecided: _Undecided | None = None) -> int | None:
    """Least k, block by block, with contains(k*a) True for every a in fam.

    Within a block each member a strikes out the k it refutes (contains False)
    and the first k left with every answer True wins. A block of one k tests
    that k's images in family order; one block of every k intersects the
    quotient sets B/a. The k of a block left alive only by unknown answers go
    to `undecided`, ascending in k, each with its largest unknown point.
    """
    for block in blocks:
        live, unknown = block, {}  # unknown[k]: the largest point left unknown for k
        for a in fam:
            kept = []
            for k in live:
                r = contains(k * a)
                if r is not False:
                    kept.append(k)
                    if r is None:
                        unknown[k] = max(unknown.get(k, 0), k * a)
            live = kept
            if not live:
                break
        else:
            for k in live:
                if k not in unknown:
                    return k
            if undecided is not None:
                for k in live:
                    undecided.add(k, unknown[k])
    return None


def _one_by_one(ks):
    """Blocks of one k each: the k-major scan that stops at the first witness."""
    return ((k,) for k in ks)


def _k_candidates(B: LazySet, fam: tuple[int, ...], k_max: int) -> tuple[list[int] | range, bool]:
    """The k <= k_max worth testing, and whether they are all that could work (finite B only)."""
    if not B.finite:
        return range(1, k_max + 1), False
    # the only possible witnesses, ascending: the quotients of B's multiples of fam[0]
    ks = [b // fam[0] for b in B.elements() if b % fam[0] == 0]
    cut = bisect.bisect_right(ks, k_max)
    return ks[:cut], cut == len(ks)


def _fe_search(F, B: LazySet, k_max: int, blocks) -> FeWitness | FeRefutation:
    fam = _check_family(F)
    ks, closed = _k_candidates(B, fam, k_max)
    undecided = _Undecided()
    k = _least_dilation(fam, B.contains, blocks(ks), undecided)
    if k is not None:
        return FeWitness(k, fam, tuple(k * f for f in fam))
    if closed:
        return FeRefutation("finite-target", fam, {"bound": B.max_known() // fam[0]})
    if undecided.count:
        raise undecided.error()
    return FeRefutation("exhausted", fam, {"k_max": k_max})


def fe_witness(F, B: LazySet, k_max: int) -> FeWitness | FeRefutation:
    """Least verified k <= k_max with k*F inside B, else a refutation (scans k by k)."""
    return _fe_search(F, B, k_max, _one_by_one)


def fe_fip_oracle(F, B: LazySet, k_max: int) -> FeWitness | FeRefutation:
    """Same decision as fe_witness via intersecting the quotient sets B/a (one block of all k)."""
    return _fe_search(F, B, k_max, lambda ks: (ks,))


def fe_prefix_check(A: LazySet, B: LazySet, p: int = DEFAULT_PREFIX, k_max: int = DEFAULT_K_MAX,
                    horizon: int = DEFAULT_HORIZON) -> tuple[Verdict, dict]:
    """Embed A's first p elements into B, refuting exactly when possible.

    Also returns what it found: the prefix `family`, the `level` certificate (or
    the InapplicableError), the `residue` one and, if it scanned k, fe_witness's result.
    """
    if k_max < 1:
        raise InputError(f"k_max must be >= 1, got {k_max}")
    fam = prefix_of(A, p, horizon)
    found: dict = {"family": fam}
    try:
        # any member makes a sound level certificate, so the listed ones up to the
        # horizon do: completing A to it could pass the element cap for nothing
        found["level"] = fe_refute_level(A.iter_members(horizon), B)
    except InapplicableError as exc:
        found["level"] = exc
    found["residue"] = fe_refute_residue(fam, B)
    bounds = {"prefix": p, "k_max": k_max}
    # sound structural refuters are cheap; consult them before scanning dilations
    for cert in (found["level"], found["residue"]):
        if isinstance(cert, FeRefutation):
            return Verdict.refuted({"refutation": cert.to_json()}, bounds), found
    res = found["witness"] = fe_witness(fam, B, k_max)
    if isinstance(res, FeWitness):
        return Verdict.proved({"witness": res.to_json()}, bounds), found
    if res.exact:
        return Verdict.refuted({"refutation": res.to_json()}, bounds), found
    return Verdict.bounded("against", bounds, {"refutation": res.to_json()}), found


def prefix_of(A: LazySet, p: int, horizon: int = DEFAULT_HORIZON) -> tuple[int, ...]:
    """A's first p members up to complete_below, past which a listed member may follow
    unlisted ones; an EXACT enumeration grows once if too few are known."""
    if p < 1:
        raise InputError(f"prefix length must be >= 1, got {p}")
    known = list(itertools.islice(A.iter_members(A.complete_below), p))
    if len(known) < p:
        if A.finite:
            if not known:
                raise InputError("prefix of an empty set is undefined")
            return tuple(known)
        if A.is_exact:
            known = A.elements(max(A.complete_below * 2, horizon))
        if len(known) < p:
            raise PrecisionError(
                f"only {len(known)} elements of {A.describe_short()} are known; "
                f"cannot take a {p}-element prefix",
                required_horizon=max(A.complete_below * 2, horizon), horizon=horizon)
    return tuple(known[:p])


def me_check(A: LazySet, B: LazySet, m: int, H: int = DEFAULT_HORIZON,
             k_max: int = DEFAULT_K_MAX) -> Verdict:
    """All m-subsets of A within the horizon embed into B."""
    if m < 1:
        raise InputError(f"subset cardinality must be >= 1, got {m}")
    if k_max < 1:
        raise InputError(f"k_max must be >= 1, got {k_max}")
    if H > A.complete_below and not A.is_exact:
        raise PrecisionError(f"enumeration of {A.describe_short()} is only complete below "
                             f"{A.complete_below}", required_horizon=H, horizon=H)
    pool = A.elements(H)
    if len(pool) < m:
        raise InputError(
            f"A has only {len(pool)} elements within horizon {H}, need {m}")
    if m == 1:
        return _me_divisibility(pool, B, H, k_max)
    total = math.comb(len(pool), m)
    if total > SUBSET_CAP:
        raise ResourceError(
            f"{total} subsets of size {m} exceed the cap {SUBSET_CAP}; "
            f"rerun with a smaller horizon")
    bounds = {"horizon": H, "k_max": k_max, "m": m}
    worst: FeWitness | None = None
    exhausted: FeRefutation | None = None
    for sub in itertools.combinations(pool, m):
        # the cheap sound refuter first, as in fe_prefix_check
        res = fe_refute_residue(sub, B) or fe_witness(sub, B, k_max)
        if isinstance(res, FeRefutation):
            if res.exact:
                return Verdict.refuted({"refutation": res.to_json()}, bounds)
            exhausted = exhausted or res
        elif worst is None or res.k > worst.k:
            worst = res
    if exhausted is not None:
        return Verdict.bounded("against", bounds, {"refutation": exhausted.to_json()})
    return Verdict.proved({"subsets": total, "worst_witness": worst.to_json()}, bounds)


def _me_divisibility(pool, B: LazySet, horizon: int, k_max: int) -> Verdict:
    """Each single element must divide something in B (shadow of the closure test)."""
    table = {}
    for a in pool:
        res = fe_refute_residue((a,), B) or fe_witness((a,), B, k_max)
        if isinstance(res, FeWitness):
            table[a] = res.images[0]
        elif res.exact:
            reason = ("no multiple in the finite target" if res.kind == "finite-target"
                      else f"target provably misses every multiple of {a}")
            return Verdict.refuted({"element": a, "reason": reason}, {"horizon": horizon, "m": 1})
        else:
            return Verdict.bounded("against", {"horizon": horizon, "m": 1, "k_max": k_max},
                                   {"element": a})
    return Verdict.proved({"divides_into": table}, {"horizon": horizon, "m": 1})


def fe_refute_level(members, B: LazySet) -> FeRefutation | None:
    """Exact refutation from factor-count bookkeeping, for level-covered targets:
    two of the members whose levels differ by no difference of target levels."""
    cover = analysis.levels_of(B.expr)
    if cover is None:
        raise InapplicableError(
            f"target {B.describe_short()} is not covered by finitely many levels")
    deltas = analysis.level_deltas(cover)
    by_level: dict[int, int] = {}
    for c in members:
        o = arith.omega(c)
        if o not in by_level:
            by_level[o] = c
    levels = sorted(by_level)
    for i, oi in enumerate(levels):
        for oj in levels[i + 1:]:
            if oj - oi not in deltas:
                ci, cj = by_level[oi], by_level[oj]
                return FeRefutation(
                    "level-certificate", (ci, cj),
                    {"pair": [ci, cj], "delta": oj - oi,
                     "target_levels": sorted(cover), "achievable_deltas": sorted(deltas)})
    return None


def fe_refute_residue(F, B: LazySet) -> FeRefutation | None:
    """Exact refutation when the target provably misses every multiple of some member."""
    fam = _check_family(F)
    for m in fam:
        if analysis.empty_meet_mult(B.expr, m) is True:
            return FeRefutation("residue-certificate", fam, {"modulus": m})
    return None


@record
class ChainResult:
    """Strictly shrinking levels, the pairs each level dodges, and the proofs."""

    levels: tuple[tuple[int, ...], ...]
    blocked: tuple[tuple[int, int], ...]
    refutations: tuple[FeRefutation, ...]
    extended: tuple[tuple[int, ...], ...]

    def to_json(self) -> dict:
        return {
            "levels": [list(l) for l in self.levels],
            "blocked_pairs": [list(p) for p in self.blocked],
            "refutations": [r.to_json() for r in self.refutations],
        }


def _colex_pairs(count: int) -> list[tuple[int, int]]:
    pairs = ((low, top) for top in itertools.count(2) for low in range(1, top))
    return list(itertools.islice(pairs, count))


def decreasing_chain(depth: int, per_level: int) -> ChainResult:
    """Build the shrinking chain; every dodged pair is exactly refuted against the next level."""
    if per_level < 3:
        raise InputError(f"per_level must be >= 3, got {per_level}")
    if depth < 0:
        raise InputError(f"depth must be >= 0, got {depth}")
    if depth > _CHAIN_DEPTH_CAP:
        raise ResourceError(f"depth {depth} exceeds the chain cap {_CHAIN_DEPTH_CAP}")
    if per_level > _CHAIN_WIDTH_CAP:
        raise ResourceError(
            f"per_level {per_level} exceeds the chain width cap {_CHAIN_WIDTH_CAP}")
    pairs = _colex_pairs(depth)
    levels = [_IncreasingStream(itertools.count(1))]
    for n in range(depth):
        parent = levels[n]
        a0, a1 = parent.get(0), parent.get(1)
        # every pair is ascending: the colex pairs by construction, (a0, a1) as a level is
        blocked = pairs[:n + 1] + [(a0, a1)]

        def gen(parent=parent, blocked=blocked, a1=a1):
            aset = {a1}
            yield a1
            idx, scanned = 2, 0
            while True:
                x = parent.get(idx)
                idx += 1
                scanned += 1
                if scanned > _CHAIN_SCAN_CAP:
                    raise ResourceError(
                        f"chain level scanned {_CHAIN_SCAN_CAP} candidates without "
                        f"filling {per_level} slots")
                # the accepted members dodge every pair and x exceeds them all, so x
                # completes an embedding k*(a, b) only as x = k*b with k*a accepted
                if any(x % b == 0 and x // b * a in aset for a, b in blocked):
                    continue
                aset.add(x)
                yield x

        levels.append(_IncreasingStream(gen()))
    displayed = [tuple(lvl.take(per_level)) for lvl in levels]
    refutations = []
    for n in range(depth):
        finite_view = LazySet.of_finite(nodes.Explicit(displayed[n + 1]), displayed[n + 1])
        res = fe_witness(pairs[n], finite_view, finite_view.max_known())
        if not isinstance(res, FeRefutation):
            raise AssertionError(
                f"chain invariant broken: pair {pairs[n]} embeds into level {n + 1}")
        refutations.append(res)
    return ChainResult(
        tuple(displayed), tuple(pairs), tuple(refutations),
        tuple(tuple(lvl.terms) for lvl in levels))


def mthick_check(A: LazySet, n: int, H: int = DEFAULT_HORIZON) -> Verdict:
    """Search a dilation k with k*{1..n} inside A, k*n within the horizon."""
    k_top = H // n
    k = _least_dilation(range(1, n + 1), A.contains, _one_by_one(range(1, k_top + 1)))
    if k is not None:
        return Verdict.proved({"k": k, "multiples": [k * i for i in range(1, n + 1)]},
                              {"horizon": H, "n": n})
    return Verdict.bounded("against", {"horizon": H, "n": n},
                           {"exhausted_k": k_top})
