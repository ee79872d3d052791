"""AST for the set-expression language.

Nodes are frozen records (felab.record) so they hash, compare structurally, and
survive round-tripping through unparse/parse unchanged.
"""

from __future__ import annotations

import re

from ..errors import InputError
from ..record import record


class SetExpr:
    """Base class for set expressions."""

    __slots__ = ()


class SeqSpec:
    """Base class for sequence specifications used by fs/fp."""

    __slots__ = ()


def _need(cond: bool, msg: str) -> None:
    if not cond:
        raise InputError(msg)


def _check_params(name: str, params: tuple, table: dict) -> None:
    """Match the params' kinds (n natural, w word, l list) to the pattern of table[name]."""
    usage, kinds = table[name][:2]
    shape = "".join("l" if isinstance(p, tuple) else "w" if isinstance(p, str) else "n"
                    for p in params)
    _need(re.fullmatch(kinds, shape) is not None, f"bad parameters for {name}; usage: {usage}")


@record
class AllNat(SetExpr):
    pass


@record
class Primes(SetExpr):
    pass


@record
class Level(SetExpr):
    n: int

    def __post_init__(self):
        _need(self.n >= 0, f"level index must be >= 0, got {self.n}")


@record
class Mult(SetExpr):
    k: int

    def __post_init__(self):
        _need(self.k >= 1, f"mult step must be >= 1, got {self.k}")


@record
class Ap(SetExpr):
    """Arithmetic progression {a, a+d, a+2d, ...}."""

    a: int
    d: int

    def __post_init__(self):
        _need(self.a >= 1, f"ap start must be >= 1, got {self.a}")
        _need(self.d >= 1, f"ap step must be >= 1, got {self.d}")


@record
class Explicit(SetExpr):
    elems: tuple[int, ...]

    def __post_init__(self):
        _need(len(self.elems) >= 1, "explicit set must be nonempty")
        _need(min(self.elems) >= 1, "explicit set elements must be >= 1")
        _need(list(self.elems) == sorted(set(self.elems)),
              "explicit set elements must be strictly increasing")


@record
class Union(SetExpr):
    args: tuple[SetExpr, ...]

    def __post_init__(self):
        _need(len(self.args) >= 2, "union needs at least two operands")


@record
class Inter(SetExpr):
    args: tuple[SetExpr, ...]

    def __post_init__(self):
        _need(len(self.args) >= 2, "inter needs at least two operands")


@record
class Compl(SetExpr):
    arg: SetExpr


@record
class Dilate(SetExpr):
    k: int
    arg: SetExpr

    def __post_init__(self):
        _need(self.k >= 1, f"dilate factor must be >= 1, got {self.k}")


@record
class Quot(SetExpr):
    arg: SetExpr
    n: int

    def __post_init__(self):
        _need(self.n >= 1, f"quot divisor must be >= 1, got {self.n}")


@record
class Shift(SetExpr):
    """Downward shift A - t (elements <= t vanish)."""

    arg: SetExpr
    t: int

    def __post_init__(self):
        _need(self.t >= 0, f"shift amount must be >= 0, got {self.t}")


@record
class Up(SetExpr):
    arg: SetExpr


@record
class Down(SetExpr):
    arg: SetExpr


@record
class ExplicitSeq(SeqSpec):
    values: tuple[int, ...]

    def __post_init__(self):
        _need(len(self.values) >= 1, "sequence must be nonempty")
        _need(min(self.values) >= 1, "sequence terms must be >= 1")
        _need(list(self.values) == sorted(set(self.values)),
              "sequence terms must be strictly increasing")


@record
class NamedSeq(SeqSpec):
    rule: str
    params: tuple

    def __post_init__(self):
        from ..constructions import SEQUENCE_RULES  # a top-level import would be circular
        _need(self.rule in SEQUENCE_RULES, f"unknown sequence rule {self.rule!r}")
        _check_params(self.rule, self.params, SEQUENCE_RULES)


@record
class Fs(SetExpr):
    seq: SeqSpec


@record
class Fp(SetExpr):
    seq: SeqSpec


@record
class Pseudo(SetExpr):
    """Greedy pseudointersection: count elements drawn from a decreasing chain."""

    count: int
    chain: tuple[SetExpr, ...]

    def __post_init__(self):
        _need(self.count >= 1, f"pseudo count must be >= 1, got {self.count}")
        _need(len(self.chain) >= 1, "pseudo needs at least one chain member")


@record
class Construct(SetExpr):
    name: str
    params: tuple

    def __post_init__(self):
        from ..constructions import FIXTURES  # a top-level import would be circular
        _need(self.name in FIXTURES, f"unknown fixture {self.name!r}")
        _check_params(self.name, self.params, FIXTURES)


# The call syntax: each call node's fields, in declaration order, as kinds
# nat, expr, seq, name (a bare word) or param (natural, word or [list]). A "+"
# prefix means one or more items, a "*" prefix zero or more, each after a comma.
# A call is written as its class name in lower case.
SYNTAX = {
    Level: ("nat",), Mult: ("nat",), Ap: ("nat", "nat"),
    Union: ("+expr",), Inter: ("+expr",), Compl: ("expr",),
    Dilate: ("nat", "expr"), Quot: ("expr", "nat"), Shift: ("expr", "nat"),
    Up: ("expr",), Down: ("expr",), Fs: ("seq",), Fp: ("seq",),
    Pseudo: ("nat", "*expr"), Construct: ("name", "*param"),
}


def unparse(node) -> str:
    """Canonical text for an AST; parse(unparse(t)) == t."""
    if isinstance(node, AllNat):
        return "N"
    if isinstance(node, Primes):
        return "primes"
    if isinstance(node, Explicit):
        return "{" + ",".join(str(e) for e in node.elems) + "}"
    if isinstance(node, ExplicitSeq):
        return "[" + ",".join(str(v) for v in node.values) + "]"
    if isinstance(node, NamedSeq):
        return f"{node.rule}({','.join(_unparse_param(p) for p in node.params)})"
    args = []
    for field, kind in zip(node._fields, SYNTAX[type(node)]):
        value = getattr(node, field)
        items = value if kind[0] in "+*" else (value,)
        write = unparse if kind.lstrip("+*") in ("expr", "seq") else _unparse_param
        args += [write(item) for item in items]
    return f"{type(node).__name__.lower()}({','.join(args)})"


def _unparse_param(p) -> str:
    if isinstance(p, tuple):
        return "[" + ",".join(str(v) for v in p) + "]"
    return str(p)
