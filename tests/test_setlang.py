"""Expression language: parsing, evaluation semantics, structural analyses."""

import functools
import importlib.util
import inspect
import json
import tracemalloc
from itertools import filterfalse
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from felab import arith, cli, constructions, embed, largeness
from felab.constructions import FIXTURES
from felab.errors import InputError, ParseError, PrecisionError, ResourceError
import felab.setlang.evaluate as evaluator
from felab.setlang import lazyset, nodes
from felab.setlang.analysis import (_contains_mult, empty_meet_mult, level_deltas,
                                    level_set_of, levels_of, period_of)
from felab.setlang.evaluate import evaluate
from felab.setlang.lazyset import MAX_ELEMENTS, LazySet
from felab.setlang.nodes import unparse
from felab.setlang.parser import parse

HORIZON = 2000


def _load_perfbench(name):
    """A benchmark module, read only: reference.py is felab-free, definition-level
    membership of tuple trees, and workloads.py renders those trees as text."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


reference = _load_perfbench("reference")
workloads = _load_perfbench("workloads")


def ev(text, horizon=HORIZON):
    return evaluate(parse(text), horizon)


def test_the_package_does_not_shadow_its_submodules():
    """felab.setlang re-exports nothing, so a dotted import of a submodule binds
    the module, not the function of the same name."""
    assert inspect.ismodule(evaluator) and evaluator.evaluate is evaluate


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def test_parse_primitives():
    assert parse("N") == nodes.AllNat()
    assert parse("primes") == nodes.Primes()
    assert parse("odd") == nodes.Ap(1, 2)
    assert parse("level(3)") == nodes.Level(3)
    assert parse("mult(7)") == nodes.Mult(7)
    assert parse("{1,2,30}") == nodes.Explicit((1, 2, 30))


def test_parse_combinators_and_whitespace():
    got = parse(" union( mult(2) , level(3) ) ")
    assert got == nodes.Union((nodes.Mult(2), nodes.Level(3)))
    assert parse("quot(shift(up({6}),2),3)") == nodes.Quot(
        nodes.Shift(nodes.Up(nodes.Explicit((6,))), 2), 3)
    assert parse("fs([1,4,9])") == nodes.Fs(nodes.ExplicitSeq((1, 4, 9)))
    assert parse("fp(primeseq(odd,6))") == nodes.Fp(
        nodes.NamedSeq("primeseq", ("odd", 6)))
    assert parse("pseudo(2,N,mult(2))") == nodes.Pseudo(
        2, (nodes.AllNat(), nodes.Mult(2)))
    assert parse("construct(fp_primes,odd,6)") == nodes.Construct(
        "fp_primes", ("odd", 6))


@pytest.mark.parametrize("bad", [
    "", "union(N)", "mult()", "mult(0)", "level(-1)", "{}",
    "oops(3)", "N extra", "ap(1)", "construct(unknown)", "fs({1,2})",
    "quot(N,0)", "pseudo(0,N)", "дилате(2,N)",
])
def test_parse_rejects(bad):
    with pytest.raises((ParseError, InputError)):
        parse(bad)


def test_parse_error_carries_position():
    with pytest.raises(ParseError) as exc:
        parse("union(mult(2),")
    assert exc.value.line == 1


_USAGE = {name: row[0] for name, row in FIXTURES.items()}


@pytest.mark.parametrize("text, col, msg", [
    ("pseudo(3)", 1, "pseudo needs at least one chain member"),
    ("union()", 7, "expected a set expression, found ')'"),
    ("mult(2,3)", 7, "expected ')', found ','"),
    ("fs(foo())", 4, "expected a sequence: [n1,n2,...] or a named rule, found 'foo'"),
    ("construct(nope)", 1, "unknown fixture 'nope'"),
    # one malformed parameter shape for each fixture and sequence rule
    ("construct(exgamma,x)", 1, "bad parameters for exgamma; usage: " + _USAGE["exgamma"]),
    ("construct(sidon_levels,3)", 1,
     "bad parameters for sidon_levels; usage: " + _USAGE["sidon_levels"]),
    ("construct(thick_nonmaxstar,x)", 1,
     "bad parameters for thick_nonmaxstar; usage: " + _USAGE["thick_nonmaxstar"]),
    ("construct(equal_exponent,2)", 1,
     "bad parameters for equal_exponent; usage: " + _USAGE["equal_exponent"]),
    ("construct(fp_primes,3)", 1, "bad parameters for fp_primes; usage: " + _USAGE["fp_primes"]),
    ("construct(prophier,[2,3],1)", 1, "bad parameters for prophier; usage: " + _USAGE["prophier"]),
    ("construct(levelfix,[1],3)", 1, "bad parameters for levelfix; usage: " + _USAGE["levelfix"]),
    ("fs(sidon(x))", 1, "bad parameters for sidon; usage: sidon([count])"),
    ("fs(exgamma(3,4))", 1, "bad parameters for exgamma; usage: exgamma([count])"),
    ("fs(primeseq())", 1, "bad parameters for primeseq; usage: primeseq(all|odd|even[,count])"),
    ("up(fp(primeseq(odd,x)))", 4,
     "bad parameters for primeseq; usage: primeseq(all|odd|even[,count])"),
    ("mult(" + "9" * 5000 + ")", 6, "5000 digits are too many"),
    # a tab and an information separator are whitespace; the non-ASCII letter is not
    ("mult(\t\x1c2)\u00e9", 10, "unexpected character '\u00e9'"),
])
def test_parse_error_text_and_column(text, col, msg):
    with pytest.raises(ParseError) as exc:
        parse(text)
    assert (exc.value.line, exc.value.col) == (1, col)
    assert str(exc.value) == f"line 1, col {col}: {msg}"


@pytest.mark.parametrize("text, msg", [
    ("construct(exgamma,0)", "count must be >= 1, got 0"),
    ("fs(primeseq(prime))", "primeseq needs a variant: all, odd or even"),
    ("construct(sidon_levels,4,3)", "side must be 0 or 1, got 3"),
])
def test_parameters_are_checked_when_evaluated(text, msg):
    assert unparse(parse(text)) == text
    with pytest.raises(InputError) as exc:
        ev(text)
    assert str(exc.value) == msg


# unparse/parse round trip over random trees ---------------------------------

_scalars = st.integers(min_value=1, max_value=50)
_leaf = st.one_of(
    st.just(nodes.AllNat()),
    st.just(nodes.Primes()),
    st.builds(nodes.Level, st.integers(min_value=0, max_value=9)),
    st.builds(nodes.Mult, _scalars),
    st.builds(nodes.Ap, _scalars, _scalars),
    st.builds(nodes.Explicit, st.lists(
        st.integers(min_value=1, max_value=99), min_size=1, max_size=5,
        unique=True).map(lambda v: tuple(sorted(v)))),
    st.builds(nodes.Fs, st.builds(nodes.ExplicitSeq, st.lists(
        st.integers(min_value=1, max_value=40), min_size=1, max_size=4,
        unique=True).map(lambda v: tuple(sorted(v))))),
)


def _extend(children):
    pair = st.lists(children, min_size=2, max_size=3).map(tuple)
    return st.one_of(
        st.builds(nodes.Union, pair),
        st.builds(nodes.Inter, pair),
        st.builds(nodes.Compl, children),
        st.builds(nodes.Dilate, _scalars, children),
        st.builds(nodes.Quot, children, _scalars),
        st.builds(nodes.Shift, children, st.integers(min_value=0, max_value=20)),
        st.builds(nodes.Up, children),
        st.builds(nodes.Down, children),
    )


_tree = st.recursive(_leaf, _extend, max_leaves=8)


@given(_tree)
def test_unparse_parse_roundtrip(tree):
    assert parse(unparse(tree)) == tree


# one tree per node kind, nested where the kind allows it
EVERY_KIND = (
    "N", "primes", "level(0)", "mult(3)", "ap(1,2)", "{2,5}", "union(mult(2),level(1))",
    "inter(compl(mult(4)),ap(1,2))", "dilate(2,primes)", "shift(quot(level(2),2),3)",
    "up({6,10})", "down({12})", "fs([1,2,4])", "fp(primeseq(odd))",
    "pseudo(3,N,mult(2),mult(4))", "construct(sidon_levels,6,1)",
)


def _kinds(node) -> set:
    out = {type(node)}
    for name in node._fields:
        value = getattr(node, name)
        for child in value if isinstance(value, tuple) else (value,):
            if hasattr(child, "_fields"):
                out |= _kinds(child)
    return out


def test_every_node_kind_roundtrips_with_equal_hash():
    seen = set()
    for text in EVERY_KIND:
        tree = parse(text)
        again = parse(unparse(tree))
        assert again == tree and hash(again) == hash(tree), text
        seen |= _kinds(tree)
    assert seen == {c for c in vars(nodes).values()
                    if isinstance(c, type) and hasattr(c, "_fields")}


def test_node_records_compare_within_a_kind_and_are_frozen():
    assert nodes.Mult(3) == nodes.Mult(k=3)
    assert nodes.Mult(3) != nodes.Level(3)
    assert nodes.Up(nodes.Mult(2)) != nodes.Down(nodes.Mult(2))
    assert repr(nodes.Mult(3)) == "Mult(k=3)"
    node = nodes.Shift(nodes.AllNat(), 2)
    with pytest.raises(AttributeError):
        node.t = 3
    with pytest.raises(AttributeError):
        del node.arg
    with pytest.raises(AttributeError):
        node.extra = 1
    assert node == nodes.Shift(nodes.AllNat(), 2)
    with pytest.raises(TypeError):
        nodes.Mult(3, k=3)
    with pytest.raises(TypeError):
        nodes.Ap(1)


@pytest.mark.parametrize("build", [
    lambda: nodes.Level(-1), lambda: nodes.Mult(0), lambda: nodes.Ap(0, 1),
    lambda: nodes.Ap(1, 0), lambda: nodes.Explicit(()), lambda: nodes.Explicit((3, 2)),
    lambda: nodes.Union((nodes.AllNat(),)), lambda: nodes.Inter((nodes.AllNat(),)),
    lambda: nodes.Dilate(0, nodes.AllNat()), lambda: nodes.Quot(nodes.AllNat(), 0),
    lambda: nodes.Shift(nodes.AllNat(), -1), lambda: nodes.ExplicitSeq((0, 1)),
    lambda: nodes.NamedSeq("nope", ()), lambda: nodes.Pseudo(0, (nodes.AllNat(),)),
    lambda: nodes.Pseudo(1, ()), lambda: nodes.Construct("nope", ()),
])
def test_node_validation_raises_input_error(build):
    with pytest.raises(InputError):
        build()


# ---------------------------------------------------------------------------
# evaluation semantics
# ---------------------------------------------------------------------------

def brute(text, H):
    """Definite members of the expression within [1, H], by direct semantics."""
    A = ev(text, horizon=max(H, 100))
    return [n for n in range(1, H + 1) if A.contains(n) is True]


def test_primitive_membership():
    N = ev("N")
    assert N.is_exact and N.contains(1) is True and N.contains(0) is False
    P = ev("primes")
    assert [n for n in range(1, 30) if P.contains(n) is True] == \
        [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]
    assert ev("level(2)").contains(6) is True
    assert ev("level(2)").contains(8) is False
    assert ev("mult(4)").contains(8) is True
    assert ev("ap(3,5)").contains(13) is True
    assert ev("ap(3,5)").contains(12) is False


def test_boolean_combinator_laws():
    H = 300
    assert brute("union(mult(2),mult(3))", H) == sorted(
        set(brute("mult(2)", H)) | set(brute("mult(3)", H)))
    assert brute("inter(mult(2),mult(3))", H) == brute("mult(6)", H)
    assert brute("compl(mult(2))", H) == brute("odd", H)
    assert brute("compl(compl(level(2)))", H) == brute("level(2)", H)


def test_dilate_quot_shift_up_down():
    H = 200
    assert brute("dilate(3,ap(1,2))", H) == [3 * k for k in brute("ap(1,2)", H) if 3 * k <= H]
    assert brute("quot(mult(6),2)", H) == brute("mult(3)", H)
    assert brute("shift(mult(5),2)", H) == [n for n in range(1, H + 1) if n % 5 == 3]
    assert brute("up({6,35})", 40) == [
        n for n in range(1, 41) if n % 6 == 0 or n % 35 == 0]
    assert brute("down({60})", 70) == [1, 2, 3, 4, 5, 6, 10, 12, 15, 20, 30, 60]


def test_quot_dilate_galois():
    # x in quot(A,n) iff n*x in A, for an exact A
    A = ev("union(mult(4),level(3))")
    Q = ev("quot(union(mult(4),level(3)),6)")
    for x in range(1, 200):
        assert Q.contains(x) == A.contains(6 * x)


def test_fs_fp_of_explicit_sequences():
    fs = ev("fs([1,4,9])")
    assert fs.elements() == [1, 4, 5, 9, 10, 13, 14]
    assert fs.is_exact and fs.finite
    fp = ev("fp([2,5,11])")
    assert fp.elements() == [2, 5, 10, 11, 22, 55, 110]
    assert fp.contains(110) is True and fp.contains(4) is False


def test_fs_of_named_rule_is_prefix_class():
    A = ev("fs(fastgrowth())", horizon=2000)
    assert not A.is_exact
    assert A.contains(1) is True
    assert A.contains(2) is False  # below the completeness bound, absent
    assert A.contains(A.complete_below + 1) in (True, None)
    # no member list of a PREFIX set is complete past its bound, so me refuses it
    with pytest.raises(PrecisionError):
        embed.me_check(A, ev("N"), 1, 10**9)


_RULES = {
    "primeseq(all)": ("primeseq", "all"),
    "primeseq(odd)": ("primeseq", "odd"),
    "primeseq(even)": ("primeseq", "even"),
    "exgamma()": ("exgamma",),
    "fastgrowth()": ("fastgrowth",),
    "sidon()": ("sidon",),
}


@pytest.mark.parametrize("H", [1, 2, 3, 97, 600])
@pytest.mark.parametrize("rule", sorted(_RULES))
@pytest.mark.parametrize("op", ["fs", "fp"])
def test_unpinned_closure_matches_reference(op, rule, H):
    """The closure of an unpinned sequence lists exactly the reference members up to H."""
    A = ev(f"{op}({rule})", horizon=H)
    tree = (op, _RULES[rule])
    assert A.elements() == [n for n in range(1, H + 1) if reference.member(tree, n)]
    assert A.complete_below == H and not A.is_exact


def test_unpinned_fp_holds_one_only_as_a_term():
    assert ev("fp(exgamma())").contains(1) is True
    assert ev("fp(fastgrowth())").contains(1) is True
    assert ev("fp(primeseq(all))").contains(1) is False


def test_unpinned_fp_subset_cap():
    with pytest.raises(ResourceError, match="product closure exceeds the subset cap"):
        ev("fp(primeseq(all))", horizon=400_000)


_PINNED_CAP = "exceeds the subset cap 200000; use an unpinned sequence or fewer terms"


@pytest.mark.parametrize("text, error, msg", [
    ("fs(sidon(20000))", ResourceError, "count 20000 exceeds the generator cap 10000"),
    ("fs(primeseq(prime,600))", InputError, "primeseq needs a variant: all, odd or even"),
    ("fs(sidon(600))", ResourceError, "closure of 600 pinned terms " + _PINNED_CAP),
    ("fp(primeseq(odd,18))", ResourceError, "closure of 18 pinned terms " + _PINNED_CAP),
    ("fs([" + ",".join(map(str, range(1, 19))) + "])", ResourceError,
     "closure of 18 pinned terms " + _PINNED_CAP),
])
def test_pinned_closure_cap_comes_before_generation(monkeypatch, text, error, msg):
    """A pinned count passes the generator's own checks, then the subset cap, and
    only then are its terms generated."""
    def generate(*args):
        raise AssertionError("terms generated before the count was checked")

    monkeypatch.setattr(constructions._IncreasingStream, "take", generate)
    monkeypatch.setattr(arith, "first_primes", generate)
    with pytest.raises(error) as exc:
        ev(text)
    assert str(exc.value) == msg


def test_pinned_closure_at_the_subset_cap():
    """2^17 subsets of 17 pinned terms fit under the cap; 18 terms are refused."""
    powers = [2 ** i for i in range(18)]
    A = ev("fs([%s])" % ",".join(map(str, powers[:17])))
    assert A.finite and A.elements() == list(range(1, 2 ** 17))
    with pytest.raises(ResourceError) as exc:
        ev("fs([%s])" % ",".join(map(str, powers)))
    assert str(exc.value) == "closure of 18 pinned terms " + _PINNED_CAP


@pytest.mark.parametrize("finite", ["level(0)", "{2,5}", "dilate(3,{2,5})"])
def test_union_with_a_finite_part_keeps_the_prefix_bound(finite):
    """A finite kid knows all its members, so only the PREFIX kid limits the
    union's completeness, and nmax reads every member of that prefix."""
    A = ev(f"union({finite},construct(sidon))")
    assert not A.is_exact
    assert A.complete_below == ev("construct(sidon)").complete_below == HORIZON
    verdict = largeness.nmax_refute(A, 4, HORIZON)
    assert verdict.bounds["members_complete_below"] == HORIZON
    assert not any(e % p == 0 for p in verdict.certificate["antichain"] for e in A.elements())


def test_level_zero_refuses_a_horizon_past_the_sieve_cap():
    """level(0) is {1} without a table, yet refused past the sieve cap like every level."""
    with pytest.raises(ResourceError, match=f"sieve limit {arith.DEFAULT_SIEVE_CAP + 1} exceeds cap"):
        ev("level(0)", horizon=arith.DEFAULT_SIEVE_CAP + 1)


def test_a_set_without_positive_levels_builds_no_sieve(monkeypatch, capsys):
    """{1} below the sieve cap needs no sieve: the largest horizon builds none and
    answers as a small one does (past the cap it is refused, as the test above shows)."""
    builds, build = [], arith.Sieve._build
    monkeypatch.setattr(arith, "_sieve", None)
    monkeypatch.setattr(arith.Sieve, "_build",
                        staticmethod(lambda limit: builds.append(limit) or build(limit)))
    argv = ["check", "a-thick", "level(0)", "--n", "1", "--json", "--horizon"]
    assert cli.main(argv + [str(arith.DEFAULT_SIEVE_CAP)]) == 0
    big = json.loads(capsys.readouterr().out)
    assert builds == []
    assert cli.main(argv + ["1000"]) == 0
    small = json.loads(capsys.readouterr().out)
    assert big["verdict"]["certificate"] == small["verdict"]["certificate"] == {
        "m": 0, "run": [1, 1]}
    assert big["verdict"]["status"] == "proved"


def _plain_complement(kid, expr, h):
    """The complement as a filterfalse scan: kid's member set up to its bound, then
    kid's predicate up to h."""
    bound = min(kid.complete_below, h)
    members = list(filterfalse(set(kid.elements(bound)).__contains__, range(1, bound + 1)))
    pred = None
    if kid.pred is not None:
        p = kid.pred
        members += filterfalse(p, range(bound + 1, h + 1))
        bound, pred = h, lambda n: not p(n)
    return LazySet(expr, members, bound, pred=pred)


# finite, PREFIX, complete only below h, and Omega-level children
_COMPL_KIDS = ("{2,5,9}", "level(0)", "construct(thick_nonmaxstar,8)", "fs(sidon())",
               "fp(primeseq(odd))", "down(union({12},mult(1001)))", "quot(mult(10),2)",
               "shift(quot(level(2),2),3)", "level(2)", "union(level(1),level(3))",
               "up({6,10,15})")


@pytest.mark.parametrize("h", [60, 400])
@pytest.mark.parametrize("text", _COMPL_KIDS)
def test_complement_matches_the_filterfalse_scan(text, h, monkeypatch):
    """The same members, bound and predicate on [1, 2h] as the plain scan, and,
    under a cap of 50 members, the same inputs refused."""
    def build(complement):
        kid = ev(text, h)
        with monkeypatch.context() as mp:
            for module in (lazyset, evaluator):
                mp.setattr(module, "MAX_ELEMENTS", cap)
            try:
                A = complement(kid, nodes.Compl(kid.expr), h)
            except ResourceError:
                return "refused"
        return (A.elements(), A.complete_below,
                A.pred and [A.pred(n) for n in range(1, 2 * h + 1)])

    for cap in (MAX_ELEMENTS, 50):
        assert build(evaluator.complement) == build(_plain_complement)


@pytest.mark.parametrize("depth", [99, 98])
def test_nested_compl_at_parser_cap(depth):
    """99 and 98 complements around mult(3) (100 and 99 calls, the parser's cap
    and one below) are the non-multiples and the multiples of 3, also above H."""
    H = 20_000
    A = ev("compl(" * depth + "mult(3)" + ")" * depth, horizon=H)
    inside = (lambda n: n % 3 != 0) if depth % 2 else (lambda n: n % 3 == 0)
    assert A.elements() == [n for n in range(1, H + 1) if inside(n)]
    assert A.complete_below == H
    assert all(A.contains(n) is inside(n) for n in range(H - 50, H + 51))


def test_pseudo_chain_values():
    Y = ev("pseudo(3,N,mult(2),mult(6))")
    assert Y.elements() == [1, 2, 6]
    with pytest.raises(InputError):
        ev("pseudo(2,mult(2),N)")  # not decreasing


def test_exactness_flags():
    assert ev("N").is_exact
    assert ev("inter(compl(mult(2)),primes)").is_exact
    assert ev("construct(exgamma,10)").is_exact  # finite fixture is fully known
    assert not ev("fs(fastgrowth())").is_exact


def test_contains_below_completeness_is_decided():
    A = ev("fs(fastgrowth())", horizon=3000)
    for n in range(1, A.complete_below + 1):
        assert A.contains(n) is not None


def test_elements_monotone_in_bound():
    A = ev("union(primes,mult(10))")
    small = A.elements(100)
    big = A.elements(500)
    assert small == [x for x in big if x <= 100]


def test_finite_evaluation_is_exact_everywhere():
    A = ev("inter({2,4,8,16},mult(4))")
    assert A.finite and A.is_exact
    assert A.elements() == [4, 8, 16]
    assert A.contains(32) is False  # beyond extent but the set is fully known


def test_empty_intersection_is_legal_and_empty():
    A = ev("inter(mult(2),ap(1,2))")
    assert A.elements(500) == []


# ---------------------------------------------------------------------------
# structural analyses
# ---------------------------------------------------------------------------

def test_levels_of_covers():
    assert levels_of(parse("level(4)")) == frozenset({4})
    assert levels_of(parse("union(level(2),level(5))")) == frozenset({2, 5})
    assert levels_of(parse("primes")) == frozenset({1})
    assert levels_of(parse("{4,6,9}")) == frozenset({2})
    assert levels_of(parse("mult(2)")) is None
    assert levels_of(parse("N")) is None


def test_level_deltas():
    assert level_deltas(frozenset({2, 5})) == frozenset({-3, 0, 3})
    assert level_deltas(frozenset({1})) == frozenset({0})


def test_empty_meet_mult():
    assert empty_meet_mult(parse("odd"), 2) is True
    assert empty_meet_mult(parse("odd"), 3) is False
    assert empty_meet_mult(parse("mult(4)"), 2) is False
    assert empty_meet_mult(parse("compl(mult(3))"), 3) is True
    assert empty_meet_mult(parse("inter(primes,N)"), 6) is True
    assert empty_meet_mult(parse("fs(fastgrowth())"), 5) is None


def test_period_of():
    assert period_of(parse("mult(6)")) == (0, 6)
    assert period_of(parse("odd")) == (0, 2)
    assert period_of(parse("union(mult(2),mult(3))")) == (0, 6)
    assert period_of(parse("primes")) is None
    assert period_of(parse("compl(mult(5))")) == (0, 5)


def test_period_of_really_is_a_period():
    for text in ("mult(6)", "odd", "union(mult(4),ap(2,6))", "inter(mult(2),compl(mult(6)))"):
        res = period_of(parse(text))
        assert res is not None
        pre, per = res
        A = ev(text, horizon=3 * (pre + per) + 60)
        for n in range(pre + 1, pre + per + 30):
            assert A.contains(n) == A.contains(n + per)


# tuple trees as in perfbench/workloads.py, over the nodes the analyses read
_small = st.integers(min_value=1, max_value=6)
_tuple_leaf = st.one_of(
    st.sampled_from([("N",), ("primes",), ("odd",)]),
    st.builds(lambda n: ("level", n), st.integers(min_value=0, max_value=4)),
    st.builds(lambda k: ("mult", k), st.integers(min_value=1, max_value=12)),
    st.builds(lambda a, d: ("ap", a, d), st.integers(min_value=1, max_value=10),
              st.integers(min_value=1, max_value=10)),
    st.lists(st.integers(min_value=1, max_value=60), min_size=1, max_size=4,
             unique=True).map(lambda v: ("set", tuple(sorted(v)))),
    st.builds(lambda v, c: ("fp", ("primeseq", v, *c)), st.sampled_from(["all", "odd", "even"]),
              st.lists(st.integers(min_value=1, max_value=4), max_size=1)),
    st.lists(st.integers(min_value=2, max_value=30), min_size=1, max_size=3,
             unique=True).map(lambda v: ("fp", ("list", tuple(sorted(v))))),
)


def _tuple_extend(kids):
    args = st.lists(kids, min_size=2, max_size=3)
    return st.one_of(
        args.map(lambda a: ("union", *a)),
        args.map(lambda a: ("inter", *a)),
        kids.map(lambda a: ("compl", a)),
        st.builds(lambda k, a: ("dilate", k, a), _small, kids),
        st.builds(lambda a, n: ("quot", a, n), kids, _small),
        st.builds(lambda a, t: ("shift", a, t), kids, st.integers(min_value=0, max_value=10)),
        kids.map(lambda a: ("up", a)),
    )


_WINDOW = 120


@settings(max_examples=300, deadline=None)
@given(st.recursive(_tuple_leaf, _tuple_extend, max_leaves=6),
       st.integers(min_value=1, max_value=12))
def test_structural_analyses_agree_with_the_reference(tree, m):
    """Every definite answer of an analysis holds for the reference membership on a window."""
    expr = parse(workloads.text(tree))
    member = functools.lru_cache(maxsize=None)(lambda n: reference.member(tree, n))
    period = period_of(expr)
    if period is not None:
        pre, per = period
        assert all(member(n) == member(n + per) for n in range(pre + 1, pre + 1 + _WINDOW))
    multiples = range(m, _WINDOW + 1, m)
    if empty_meet_mult(expr, m) is True:
        assert not any(member(x) for x in multiples)
    if _contains_mult(expr, m):
        assert all(member(x) for x in multiples)
    cover = levels_of(expr)
    if cover is not None:
        assert all(reference.omega(n) in cover for n in range(1, _WINDOW + 1) if member(n))


def _check_above_bound(tree, h, points):
    """contains of the set evaluated at h matches the reference membership at
    every point above the set's bound."""
    A = evaluate(parse(workloads.text(tree)), h)
    above = [n for n in points if n > A.complete_below]
    assert [A.contains(n) for n in above] == [reference.member(tree, n) for n in above]


_finite_sets = st.lists(st.integers(min_value=2, max_value=300), min_size=1, max_size=4,
                        unique=True).map(lambda v: ("set", tuple(sorted(v))))


@settings(max_examples=300, deadline=None)
@given(_finite_sets, st.sampled_from([None, "compl", "quot", "shift", "dilate"]),
       st.integers(min_value=2, max_value=7), st.sampled_from([20, 60]))
def test_up_of_a_finite_set_agrees_with_the_reference(F, wrap, k, h):
    """up of a finite set answers from its minimal members, also those past the
    horizon, under each one-child node above it."""
    tree = {None: ("up", F), "compl": ("compl", ("up", F)), "quot": ("quot", ("up", F), k),
            "shift": ("shift", ("up", F), k), "dilate": ("dilate", k, ("up", F))}[wrap]
    _check_above_bound(tree, h, range(1, 2500))


_UP = ("up", ("set", (6, 10, 15)))


@pytest.mark.parametrize("tree, h, points", [
    (_UP, 20, range(1, 400)),
    # a minimal member past the horizon, which the listed marks do not hold
    (("up", ("set", (6, 50000))), 20000,
     [20001, 20004, 49999, 50000, 50001, 100000, 150000, 150001]),
    (("up", ("set", (2, 30001))), 20000, [30001, 60002, 90003, 90005]),
    (("compl", ("up", ("set", (4, 6)))), 20, range(1, 400)),
    (("quot", _UP, 2), 20, range(1, 400)),
    (("shift", _UP, 7), 20, range(1, 400)),
    (("dilate", 3, _UP), 20, range(1, 400)),
    (("up", ("inter", ("mult", 2), ("set", (3, 5)))), 20, range(1, 400)),  # up of the empty set
    (("up", ("set", (4, 6, 8, 12, 30))), 20, range(1, 400)),  # members that are not minimal
])
def test_up_of_a_finite_set_hand_cases(tree, h, points):
    _check_above_bound(tree, h, points)


@settings(max_examples=300, deadline=None)
@given(st.recursive(_tuple_leaf, _tuple_extend, max_leaves=6), st.sampled_from([20, 60]))
def test_evaluator_agrees_with_the_reference(tree, h):
    """Every definite contains answer up to twice the horizon, and the member list up to
    complete_below, match the reference membership."""
    A = evaluate(parse(workloads.text(tree)), h)
    member = functools.lru_cache(maxsize=None)(lambda n: reference.member(tree, n))
    for n in range(1, 2 * h + 1):
        answer = A.contains(n)
        assert answer is None or answer == member(n), n
    bound = A.complete_below
    assert A.elements(bound) == [n for n in range(1, bound + 1) if member(n)]


# sets without a predicate (an unpinned closure is listed only to the horizon)
# and explicit sets with members past it, under the one-child nodes, complements
# and dilations by up to 10^6, whose bounds lie far past any table
_table_tree = st.recursive(
    st.one_of(st.sampled_from([("fs", ("sidon",)), ("fp", ("primeseq", "odd"))]),
              st.lists(st.integers(min_value=1, max_value=3000), min_size=1, max_size=4,
                       unique=True).map(lambda v: ("set", tuple(sorted(v)))),
              _tuple_leaf),
    lambda kids: st.one_of(
        kids.map(lambda a: ("compl", a)),
        st.builds(lambda k, a: ("dilate", k, a),
                  st.one_of(_small, st.integers(min_value=7, max_value=10**6)), kids),
        st.builds(lambda a, n: ("quot", a, n), kids, _small),
        st.builds(lambda a, t: ("shift", a, t), kids, st.integers(min_value=0, max_value=40)),
        st.lists(kids, min_size=2, max_size=2).map(lambda a: ("union", *a)),
        st.lists(kids, min_size=2, max_size=2).map(lambda a: ("inter", *a))),
    max_leaves=3)


@settings(max_examples=300, deadline=None)
@given(_table_tree, st.sampled_from([20, 60]))
@example(("dilate", 10**6, ("N",)), 20)
@example(("quot", ("fs", ("sidon",)), 3), 60)
@example(("shift", ("fp", ("primeseq", "odd")), 7), 60)
@example(("compl", ("fs", ("sidon",))), 20)
@example(("dilate", 3, ("set", (5, 2999))), 20)
@example(("union", ("set", (4, 2500)), ("dilate", 999999, ("odd",))), 60)
# members past the table that are not multiples of the dilation's k
@example(("shift", ("dilate", 3, ("N",)), 2), 20)
@example(("quot", ("dilate", 6, ("N",)), 4), 20)
# dilations by 10^6 off their stride, united, and dilated again: listed, not walked
@example(("union", ("shift", ("dilate", 10**6, ("N",)), 1), ("mult", 3)), 60)
@example(("quot", ("shift", ("dilate", 10**6, ("N",)), 1), 7), 60)
@example(("union", ("dilate", 10**6, ("N",)), ("dilate", 10**6, ("N",))), 20)
@example(("dilate", 3, ("dilate", 10**6, ("N",))), 20)
@example(("inter", ("N",), ("dilate", 10**6, ("N",))), 20)
def test_tables_agree_with_the_reference(tree, h):
    """Every definite contains answer on [1, 3h], and the members up to the bound or
    3h, match the reference membership, also where a set's table stops short of its
    bound or its members lie past the horizon, and so does member_marks. A set that
    walks its predicate past its table at the multiples of a stride walks no more
    points than the horizon."""
    A = evaluate(parse(workloads.text(tree)), h)
    assert not A.stride or A.complete_below // A.stride - A.top // A.stride <= h
    member = functools.lru_cache(maxsize=None)(lambda n: reference.member(tree, n))
    # member_marks may table what a stride walks, but changes nothing the set knows
    known = list(A.iter_members())
    marks = A.member_marks(3 * h)
    assert list(A.iter_members()) == known
    for n in range(1, 3 * h + 1):
        answer = A.contains(n)
        assert answer is None or answer == member(n), n
        assert marks[n] == (answer is True), n
    bound = min(A.complete_below, 3 * h)
    listed = [n for n in range(1, bound + 1) if member(n)]
    # read lazily, and listed once the set has grown to the bound
    assert list(A.iter_members(bound)) == listed
    assert A.elements(bound) == listed
    assert all(member(n) for n in A.elements())


def test_a_table_never_grows_past_the_horizon():
    """A dilation by 10^6 and a member at 10^15 cost a table of the horizon, not of
    their bound: evaluation stays within a few MiB, and contains still answers past it."""
    h = 100_000
    for text, big in (("dilate(1000000,N)", 7 * 10**6), ("union({1000000000000000},mult(7))",
                                                          10**15)):
        tracemalloc.start()
        try:
            A = evaluate(parse(text), h)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2**20, (text, peak)
        assert len(A.marks) <= h + 1
        assert A.contains(big) is True and A.contains(big + 2) is False


# children complete to different bounds: h // d, h - t, a finite set's largest
# member, and h for an unpinned closure, which is PREFIX, as is its quotient
_bounded_kid = st.one_of(
    st.builds(lambda k, d: ("quot", ("mult", k), d), st.integers(1, 12), st.integers(2, 6)),
    st.builds(lambda k, t: ("shift", ("mult", k), t), st.integers(1, 12), st.integers(1, 30)),
    st.builds(lambda t: ("shift", ("quot", ("level", 2), 2), t), st.integers(1, 30)),
    _finite_sets,
    _finite_sets.map(lambda F: ("down", F)),
    st.just(("fp", ("primeseq", "odd"))),
    st.builds(lambda d: ("quot", ("fp", ("primeseq", "odd")), d), st.integers(2, 5)),
    st.sampled_from([("N",), ("odd",), ("compl", ("mult", 3))]),
)


@settings(max_examples=300, deadline=None)
@given(st.lists(_bounded_kid, min_size=2, max_size=3), st.sampled_from([60, 200]))
def test_intersections_of_kids_with_different_bounds_agree_with_the_reference(kids, h):
    """An intersection decides the base kid's members below every other kid's bound
    by their lists and the rest by contains: its member list and every definite
    contains answer up to three times the horizon match the reference membership."""
    tree = ("inter", *kids)
    A = evaluate(parse(workloads.text(tree)), h)
    member = functools.lru_cache(maxsize=None)(lambda n: reference.member(tree, n))
    bound = A.complete_below
    assert A.elements(bound) == [n for n in range(1, bound + 1) if member(n)]
    assert all(member(n) for n in A.elements())
    for n in range(1, 3 * h + 1):
        answer = A.contains(n)
        assert answer is None or answer == member(n), n


@st.composite
def _pseudo_tree(draw):
    """pseudo over a decreasing chain of infinite sets: N first or not, then quotients
    by w (a divisor of a, so never empty) or shifts by w of ap(a, d), each d dividing
    the next. Such a set is listed only up to h // w or h - w, short of the horizon h."""
    kind, w = draw(st.sampled_from(["quot", "shift"])), draw(st.integers(1, 40))
    a = draw(st.integers(1, 150)) * (w if kind == "quot" else 1)
    ds = [draw(st.integers(1, 6))]
    for _ in range(draw(st.integers(0, 3))):
        ds.append(ds[-1] * draw(st.integers(1, 3)))
    chain = [("N",)] * draw(st.booleans()) + [(kind, ("ap", a, d), w) for d in ds]
    return ("pseudo", draw(st.integers(1, len(chain))), *chain)


@settings(max_examples=200, deadline=None)
@given(_pseudo_tree(), st.sampled_from([60, 200]))
def test_pseudo_agrees_with_the_reference(tree, h):
    """A pseudointersection reads every member of its chain sets up to the horizon,
    so it lists exactly the reference values up to h."""
    A = evaluate(parse(workloads.text(tree)), h)
    assert A.elements() == [v for v in reference.finite_elements(tree) if v <= h]


def test_level_set_of_is_exact_where_levels_of_only_covers():
    assert level_set_of(parse("level(3)")) == frozenset({3})
    assert level_set_of(parse("quot(union(level(2),level(3)),2)")) == frozenset({1, 2})
    assert level_set_of(parse("inter(primes,union(level(1),level(3)))")) == frozenset({1})
    assert level_set_of(parse("quot(level(2),4)")) == frozenset({0})
    assert level_set_of(parse("quot(level(1),4)")) == frozenset()
    for text in ("inter(level(2),mult(2))", "dilate(2,level(1))", "{4,6,9}"):
        assert levels_of(parse(text)) == frozenset({2})
        assert level_set_of(parse(text)) is None
    assert level_set_of(parse("union(level(2),mult(2))")) is None


# pure level-set trees: levels, primes, and their unions, intersections and quotients
_level_leaf = st.one_of(st.just(("primes",)),
                        st.builds(lambda n: ("level", n), st.integers(min_value=0, max_value=6)))


def _level_extend(kids):
    args = st.lists(kids, min_size=2, max_size=3)
    return st.one_of(
        args.map(lambda a: ("union", *a)),
        args.map(lambda a: ("inter", *a)),
        st.builds(lambda a, n: ("quot", a, n), kids, st.integers(min_value=1, max_value=12)),
    )


@settings(max_examples=200, deadline=None)
@given(st.recursive(_level_leaf, _level_extend, max_leaves=5), st.sampled_from([20, 60, 500]))
@example(("quot", ("level", 2), 4), 60)
@example(("inter", ("level", 1), ("level", 2)), 60)
@example(("quot", ("union", ("level", 2), ("level", 3)), 2), 20)
def test_level_sets_agree_with_the_reference(tree, h):
    """A set of Omega-levels S lists the reference members up to h, answers contains
    up to 3h as the reference does, and is complete to h when S holds a positive
    level; it is finite exactly when S has no positive level ({1} or empty)."""
    expr = parse(workloads.text(tree))
    levels = level_set_of(expr)
    A = evaluate(expr, h)
    member = functools.lru_cache(maxsize=None)(lambda n: reference.member(tree, n))
    for n in range(1, 3 * h + 1):
        assert A.contains(n) == member(n) == (reference.omega(n) in levels), n
    assert A.is_exact and A.finite == (not any(levels))
    if any(levels):
        assert A.complete_below == h
    assert A.elements(h) == [n for n in range(1, h + 1) if member(n)]


def test_level_set_is_complete_where_the_children_were_not():
    A = ev("quot(level(2),2)", horizon=1000)
    assert A.complete_below == 1000 and A.elements() == arith.primes_upto(1000)
    B = ev("quot(level(2),4)", horizon=1000)  # {1}: level 0 alone is finite
    assert (B.finite, B.complete_below, B.elements()) == (True, 1, [1])
    C = ev("inter(level(1),level(2))", horizon=1000)  # no level: empty
    assert (C.finite, C.complete_below, C.elements()) == (True, 0, [])


def test_level_zero_sets_past_the_sieve_cap_are_refused():
    """{1} and the empty set need no table, but a horizon past the sieve cap is
    refused as for any level."""
    for text in ("level(0)", "quot(level(2),4)", "inter(level(1),level(2))"):
        with pytest.raises(ResourceError, match="exceeds cap"):
            ev(text, horizon=arith.DEFAULT_SIEVE_CAP + 1)


@pytest.mark.parametrize("argv, code, text", [
    (["fe", "inter(level(1),level(2))", "N"], 3, "prefix of an empty set is undefined"),
    (["check", "a-thick", "quot(level(2),4)", "--json"], 1, '"reason": "finite set"'),
    (["fe", "{2,3}", "inter(level(1),level(2))", "--json"], 1, '"kind": "finite-target"'),
], ids=["fe-empty-prefix", "a-thick-finite-set", "fe-finite-target"])
def test_level_zero_sets_get_exact_answers(argv, code, text, capsys):
    """{1} and the empty set are finite, so each of these is decided at any horizon."""
    assert cli.main(argv + ["--horizon", "2000"]) == code
    out, err = capsys.readouterr()
    assert text in out + err


def test_element_cap_applies_to_the_level_set_built(monkeypatch):
    """The cap counts the level set itself, not the children it is no longer built from."""
    h = 5000
    small = ev("union(level(1),level(2))", horizon=h).count_known()
    monkeypatch.setattr(lazyset, "MAX_ELEMENTS", small)
    # the union alone is over the cap, its quotient by 2 (levels 1 and 2) is not
    with pytest.raises(ResourceError, match="over the cap"):
        ev("union(level(2),level(3))", horizon=h)
    assert ev("quot(union(level(2),level(3)),2)", horizon=h).count_known() == small
    # level(6) is under the cap, its quotient by 8 (level 3) is not
    monkeypatch.setattr(lazyset, "MAX_ELEMENTS", ev("level(6)", horizon=h).count_known())
    with pytest.raises(ResourceError, match=r"evaluation produced \d+ elements, over the cap"):
        ev("quot(level(6),8)", horizon=h)


def test_quotient_by_a_number_past_the_primality_range_is_refused():
    """Omega of such a divisor cannot be counted, so the quotient is built from its
    operand and only a membership query that needs that Omega is refused."""
    p = 3317044064679887385962123  # the least prime the Miller-Rabin bases pass beyond the range
    assert p > arith._MR_EXACT_BELOW
    for text in (f"quot(level(2),{p})", f"union(level(2),quot(level(3),{p}))"):
        assert level_set_of(parse(text)) is None
    Q = ev(f"quot(level(2),{p})")
    assert (Q.complete_below, Q.elements()) == (0, [])
    with pytest.raises(ResourceError, match="beyond the deterministic primality range"):
        Q.contains(1)
    # a union that a sibling operand decides never asks for it
    U = ev(f"union(N,quot(level(2),{p}))")
    assert U.contains(1) is True and U.contains(3 * HORIZON) is True


@pytest.mark.parametrize("members", [(5,), (3, 6), (1, 2, 3, 9, 10, 11, 12), (2, 4, 6, 8, 40),
                                     (7, 300)])
@pytest.mark.parametrize("H", [3, 12, 60, 400])
def test_pcws_checks_stop_at_a_finite_sets_largest_member(members, H):
    """On a finite set the A-pcws scan stops at its largest member and M-pcws at that
    over n; the same members as an infinite EXACT set take the full scan to H and agree."""
    expr = parse("{" + ",".join(map(str, members)) + "}")
    finite = LazySet.of_finite(expr, members)
    full = LazySet(expr, members, H, pred=set(members).__contains__)
    assert finite.finite and not full.finite
    for t_max, n in ((0, 1), (1, 1), (1, 2), (3, 3), (2, 4)):
        if n > H or t_max > H:
            continue
        for check in (largeness.a_pcws_check, largeness.m_pcws_check):
            assert check(finite, t_max, n, H).to_json() == check(full, t_max, n, H).to_json()


# ---------------------------------------------------------------------------
# resource behavior
# ---------------------------------------------------------------------------

def test_member_cap_enforced():
    with pytest.raises(ResourceError):
        evaluate(parse("N"), MAX_ELEMENTS + 1)


def test_closure_past_the_window_is_refused_on_its_count_there(monkeypatch):
    """Past the window an unpinned closure is refused when its marks within the
    window already exceed the cap; a sparse one is listed to the horizon."""
    sparse = ev("fp(exgamma())", horizon=1000).elements()
    for module in (lazyset, evaluator):
        monkeypatch.setattr(module, "MAX_ELEMENTS", 50)
    monkeypatch.setattr(evaluator, "_CLOSURE_WINDOW", 200)
    with pytest.raises(ResourceError, match="produced more than 50 elements, over the cap 50"):
        ev("fs(sidon())", horizon=1000)
    A = ev("fp(exgamma())", horizon=1000)
    assert A.complete_below == 1000 and A.elements() == sparse and len(sparse) <= 50


def _strictly_ascending(xs) -> bool:
    return all(a < b for a, b in zip(xs, xs[1:]))


@settings(max_examples=200, deadline=None)
@given(_tree)
def test_member_lists_are_strictly_ascending(tree):
    """LazySet keeps the member list it is handed, so each rule hands it ascending
    and distinct members."""
    assert _strictly_ascending(evaluate(tree, HORIZON).elements())


# every catalog fixture, pinned and unpinned where it takes a count
_FIXTURE_TEXTS = (
    "construct(exgamma,8)", "construct(exgamma)", "construct(fastgrowth)",
    "construct(fastgrowth,6)", "construct(sidon,10)", "construct(sidon)",
    "construct(thick_nonmaxstar,5)", "construct(thick_nonmaxstar)", "construct(equal_exponent)",
    "construct(fp_primes,odd,4)", "construct(fp_primes,[1,3,5])",
    "construct(prophier,[2,3,5],2,1,[7,11],1,2)", "construct(levelfix,[1],[2],3)",
    "construct(sidon_levels,6,1)",
)


def test_fixture_member_lists_are_strictly_ascending():
    assert {parse(text).name for text in _FIXTURE_TEXTS} == set(FIXTURES)
    for text in _FIXTURE_TEXTS:
        assert _strictly_ascending(ev(text).elements()), text


def test_fs_length_cap():
    seq = "[" + ",".join(str(10**k) for k in range(1, 30)) + "]"
    with pytest.raises((ResourceError, InputError)):
        evaluate(parse(f"fs({seq})"), 10**40)


@settings(max_examples=40, deadline=None)
@given(_tree, st.integers(min_value=1, max_value=120))
def test_membership_never_lies_below_bound(tree, n):
    """Random trees: membership at or below the completeness bound is decided."""
    A = evaluate(tree, HORIZON)
    if n <= A.complete_below:
        assert A.contains(n) is not None


@settings(max_examples=300, deadline=None)
@given(_tree)
def test_member_list_agrees_with_predicate_below_bound(tree):
    """EXACT sets: contains() reads the member list at or below complete_below,
    so the list must match the predicate there, also after elements grows it. Checked
    from 1 up and in the 400 numbers just below the bound, where an off-by-one
    bound shows."""
    A = evaluate(tree, HORIZON)
    if not A.is_exact:
        return
    for _ in range(2):
        top = A.complete_below
        ns = sorted({*range(1, min(top, 400) + 1), *range(max(top - 400, 1), top + 1)})
        listed = set(A.elements(top))
        assert [n for n in ns if A.pred(n)] == [n for n in ns if n in listed]
        A.elements(top + min(top, 400))
