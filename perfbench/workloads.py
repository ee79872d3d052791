"""Seeded inputs for the three benchmark workloads.

Set expressions are built as small tuple trees, for example
``("union", ("level", 2), ("level", 5))``, so that the reference in
``reference.py`` can read them without going through felab's parser.
``text`` renders a tree in felab's expression syntax.

Every workload is a stream of rounds. A round holds one input from each of
the workload's classes (a class may appear more than once). Each class has a
fixed shape, and the seed only picks parameters that barely change its cost.
That keeps the cost of a round, its order statistics and its mix of verdicts
about the same from one seed to the next. ``round_inputs(name, seed, r)``
depends only on its arguments.
"""

from __future__ import annotations

import random

FE_HORIZON = 20_000
FE_KMAX = 2_000
DIAGRAM_HORIZON = 5_000
EVAL_HORIZON = 100_000
EVAL_RUN = 3


def text(node) -> str:
    """felab syntax for a tuple tree."""
    kind, args = node[0], node[1:]
    if kind in ("N", "primes", "odd"):
        return kind
    if kind == "set":
        return "{" + ",".join(map(str, args[0])) + "}"
    if kind == "list":
        return "[" + ",".join(map(str, args[0])) + "]"
    if kind in ("fs", "fp", "up", "down", "compl"):
        return f"{kind}({text(args[0])})"
    if kind in ("union", "inter"):
        return f"{kind}({','.join(text(a) for a in args)})"
    if kind == "dilate":
        return f"dilate({args[0]},{text(args[1])})"
    if kind in ("quot", "shift"):
        return f"{kind}({text(args[0])},{args[1]})"
    if kind == "pseudo":
        return f"pseudo({args[0]},{','.join(text(a) for a in args[1:])})"
    # mult, ap, level, construct and the named sequences take plain parameters
    return f"{kind}({','.join(map(str, args))})"


def _distinct(rng: random.Random, lo: int, hi: int, count: int) -> tuple[int, ...]:
    return tuple(sorted(rng.sample(range(lo, hi + 1), count)))


def _pinned(node):
    """A class without parameters: where the seed's choice moved a class's cost
    several-fold (mult(4) against mult(5) in a diagram, for one), it is pinned."""
    return lambda rng: node


def _two_levels(rng: random.Random, lo: int, hi: int):
    a, b = _distinct(rng, lo, hi, 2)
    return ("union", ("level", a), ("level", b))


# ---------------------------------------------------------------------------
# fe_mix: one fresh `felab fe` / `felab me` process per query
# ---------------------------------------------------------------------------

def _fe(A, B) -> dict:
    return {"cmd": "fe", "A": A, "B": B}


SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53)
SEMIPRIMES = (4, 6, 9, 10, 14, 15, 21, 22, 25, 26, 33, 34, 35, 38, 39, 46, 49, 51, 55, 57, 58)

# Each class always ends in the same verdict (the comment after its name), so
# the share of decided verdicts is the same for every seed: 12 of 13 per round.


def _fe_explicit_mult(rng):  # proved
    return _fe(("set", _distinct(rng, 2, 24, 3)), ("mult", rng.randint(2, 24)))


def _fe_mult_ap(rng):  # proved: k = d*j works
    d = rng.randint(3, 12)
    return _fe(("mult", rng.randint(2, 6)), ("ap", d * rng.randint(1, 3), d))


def _fe_primes_compl(rng):  # refuted: the prefix holds the prime p, whose multiples B misses
    return _fe(("primes",), ("compl", ("mult", rng.choice(SMALL_PRIMES))))


def _fe_level_level(rng):  # proved: some k has omega(k) = (target level) - j
    return _fe(("level", rng.randint(2, 3)), _two_levels(rng, 2, 6))


def _fe_spread_level(rng):  # refuted by the level-delta rule: A spans many levels
    A = rng.choice([("mult", rng.randint(2, 9)), ("ap", rng.randint(1, 9), rng.randint(2, 9))])
    return _fe(A, _two_levels(rng, 1, 7))


def _fe_ap_compl(rng):  # refuted: B misses the multiples of one prefix element
    a, d = rng.randint(2, 12), rng.randint(2, 12)
    return _fe(("ap", a, d), ("compl", ("mult", a + d * rng.randint(0, 15))))


def _fe_explicit_inter(rng):  # proved: k = lcm(a, b) works
    return _fe(("set", _distinct(rng, 1, 20, 3)),
               ("inter", ("mult", rng.randint(2, 12)), ("mult", rng.randint(2, 12))))


def _fe_explicit_fs(rng):  # proved: A is three of the summands, so k = 1 works
    terms = _distinct(rng, 1, 40, rng.randint(4, 6))
    return _fe(("set", tuple(sorted(rng.sample(terms, 3)))), ("fs", ("list", terms)))


def _fe_no_dilation(rng):  # bounded: k*u and 2k*u cannot both be r mod d, yet nothing refutes it
    d = rng.choice((3, 5, 7, 11, 13))
    u = rng.choice([x for x in range(1, 21) if x % d])
    return _fe(("set", (u, 2 * u)), ("ap", rng.randint(1, d - 1), d))


def _me_small(rng):  # proved: every pair of semiprimes embeds
    A = ("set", tuple(sorted(rng.sample(SEMIPRIMES, 5))))
    B = rng.choice([("mult", rng.randint(2, 12)), _two_levels(rng, 2, 5)])
    return {"cmd": "me", "A": A, "B": B, "m": 2}


# proved, after the oracle has scanned every k <= FE_KMAX; this slow query runs
# three times per round, so that the tail percentile (about the eleventh
# slowest sample) falls among its samples
_FE_UP = _pinned(_fe(("mult", 3), ("up", ("set", (6, 10, 15)))))
FE_CLASSES = (_fe_explicit_mult, _fe_mult_ap, _fe_primes_compl, _fe_level_level,
              _fe_spread_level, _fe_ap_compl, _fe_explicit_inter, _FE_UP, _FE_UP, _FE_UP,
              _fe_explicit_fs, _fe_no_dilation, _me_small)


def fe_argv(q: dict) -> list[str]:
    argv = [q["cmd"], text(q["A"]), text(q["B"])]
    if q["cmd"] == "me":
        argv += ["--m", str(q["m"])]
    return argv + ["--horizon", str(FE_HORIZON), "--kmax", str(FE_KMAX), "--json"]


# ---------------------------------------------------------------------------
# diagram_batch: one `felab diagram --batch` process per round
# ---------------------------------------------------------------------------

def _dg_shift(rng):
    return ("shift", ("mult", rng.randint(3, 5)), rng.randint(1, 2))


def _dg_down(rng):
    return ("down", ("set", _distinct(rng, 60, 400, 2)))


def _dg_fs(rng):
    return ("fs", ("list", _distinct(rng, 1, 30, 5)))


def _dg_pseudo(rng):
    k = rng.randint(2, 3)
    return ("pseudo", 3, ("N",), ("mult", k), ("mult", k * k))


def _dg_construct(rng):
    return ("construct", rng.choice(["exgamma", "sidon", "fastgrowth"]))


def _dg_explicit(rng):
    return ("union", ("set", _distinct(rng, 2, 60, 6)), ("set", _distinct(rng, 61, 99, 3)))


# Seven lines cost less than quot(mult(10),2) (five cheap ones, the union of
# levels and the first line, which also pays start-up) and seven cost more,
# which holds the median on the quot line. The slow up line runs three times
# per round, so that the tail percentile (about the eleventh slowest sample)
# falls among its samples.
_DG_UP = _pinned(("up", ("set", (6, 10, 15))))
DIAGRAM_CLASSES = (
    _pinned(("level", 2)), _pinned(("union", ("level", 1), ("level", 3))),
    _pinned(("inter", ("mult", 6), ("compl", ("level", 3)))), _dg_shift,
    _pinned(("dilate", 2, ("odd",))), _pinned(("quot", ("mult", 10), 2)),
    _DG_UP, _DG_UP, _DG_UP, _dg_down, _dg_fs,
    _pinned(("fp", ("primeseq", "odd"))), _dg_pseudo, _dg_construct, _dg_explicit)


def diagram_argv(batch_file: str) -> list[str]:
    return ["diagram", "--batch", batch_file, "--horizon", str(DIAGRAM_HORIZON), "--json"]


# ---------------------------------------------------------------------------
# eval_batch: one `felab check a-thick --batch` process per round
# ---------------------------------------------------------------------------

def _ev_compl_shift(rng):
    return ("compl", ("shift", ("mult", rng.randint(3, 5)), rng.randint(1, 2)))


def _ev_quot_dilate(rng):
    # the complement's density sets the size of the member lists, so it is pinned
    k = rng.randint(2, 4)
    return ("quot", ("dilate", k * rng.randint(2, 3), ("compl", ("mult", 5))), k)


def _ev_union_shift(rng):
    return ("union", ("level", rng.randint(2, 3)), ("shift", ("primes",), rng.randint(1, 2)))


def _ev_inter_compl(rng):
    return ("inter", ("compl", ("mult", rng.randint(3, 5))), ("ap", 1, 2))


def _ev_nested_compl(rng):
    return ("compl", ("compl", ("compl", ("mult", rng.randint(5, 9)))))


def _ev_shift_quot_level(rng):
    return ("shift", ("quot", ("level", 2), 2), rng.randint(1, 6))


def _ev_fp_pinned(rng):
    return ("fp", ("primeseq", "all", rng.randint(6, 9)))


def _ev_pseudo(rng):
    k = rng.randint(2, 3)
    return ("pseudo", 4, ("N",), ("mult", k), ("mult", k * k), ("mult", k ** 3))


def _ev_construct(rng):
    return ("construct", "sidon_levels", 6, rng.randint(0, 1))


# A round's lines, in order. The median and the tail percentile are order
# statistics, so each should fall inside a run of lines of equal cost, not on
# the edge between two classes. Ten lines cost less than the quot/dilate lines
# and ten cost more, which puts the median among the four quot/dilate lines;
# the five horizon-wide scans of shift(quot(level(2),2),t) and the sidon sum
# set are the second to fourteenth slowest samples, which holds the tail
# (about the eleventh slowest) among them.
_EVAL_LOW = (_ev_union_shift, _ev_nested_compl, _ev_fp_pinned, _ev_pseudo, _ev_construct)
EVAL_CLASSES = ((_ev_compl_shift,) + _EVAL_LOW + _EVAL_LOW + (_ev_quot_dilate,) * 4
                + (_ev_inter_compl, _pinned(("fs", ("exgamma",))), _pinned(("fs", ("sidon",))),
                   _pinned(("fp", ("primeseq", "odd"))))
                + (_ev_shift_quot_level,) * 5)


def eval_argv(batch_file: str) -> list[str]:
    return ["check", "a-thick", "--n", str(EVAL_RUN), "--batch", batch_file, "--json"]


# ---------------------------------------------------------------------------

# Seconds one round takes on the reference CPU of run.py (both runs of every
# query), measured when the benchmark was defined. A run of --seconds S does
# round(S / ROUND_REF_S) rounds, at least one, whatever the speed of the
# program or the host, so two runs with the same S measure the same work and
# the order statistics fall on the same samples.
ROUND_REF_S = {"fe_mix": 7.1, "diagram_batch": 7.8, "eval_batch": 28.7}
CLASSES = {"fe_mix": FE_CLASSES, "diagram_batch": DIAGRAM_CLASSES, "eval_batch": EVAL_CLASSES}
HORIZONS = {"fe_mix": FE_HORIZON, "diagram_batch": DIAGRAM_HORIZON, "eval_batch": EVAL_HORIZON}


def rounds_for(workload: str, seconds: float) -> int:
    return max(1, round(seconds / ROUND_REF_S[workload]))


def round_inputs(workload: str, seed: int, r: int) -> list:
    """Round r of a workload: one input per class, in class order.

    The order is fixed so that the costs a batch process pays once (start-up,
    sieve growth) land on the same class in every round. fe_mix yields query
    dicts; the batch workloads yield expression trees.
    """
    rng = random.Random(f"{workload}:{seed}:{r}")
    return [make(rng) for make in CLASSES[workload]]
