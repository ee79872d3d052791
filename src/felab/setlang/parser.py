"""Recursive-descent parser for the set-expression language.

Grammar (whitespace-insensitive):

    expr    := name "(" args ")" | "N" | "primes" | "odd" | "{" natlist "}"
    name    := mult|level|ap|union|inter|compl|dilate|quot|shift|up|down
             | fs|fp|pseudo|construct
    seq     := "[" natlist "]" | rulename "(" args ")"

"odd" is sugar for ap(1,2). Arities and parameter kinds are fixed per name and
checked here, so evaluation never sees a malformed tree. Constructor calls nest
at most 100 deep.
"""

from __future__ import annotations

import re

from ..errors import InputError, ParseError
from . import nodes
from .nodes import (AllNat, Ap, Compl, Construct, Dilate, Explicit, ExplicitSeq,
                    Fp, Fs, Inter, Level, Mult, NamedSeq, Primes, Pseudo, Quot,
                    SetExpr, Shift, Union, Up, Down)

# Deepest nesting of constructor calls; keeps parsing and every later
# recursive walk of the tree far from Python's recursion limit.
_MAX_DEPTH = 100

_TOKEN_RE = re.compile(r"\s*(?:(?P<nat>\d+)|(?P<ident>[A-Za-z_][A-Za-z0-9_]*)|(?P<punct>[(){}\[\],]))")


class _Tokens:
    def __init__(self, text: str):
        self.text = text
        self.items: list[tuple[str, str, int]] = []
        pos = 0
        while pos < len(text):
            m = _TOKEN_RE.match(text, pos)
            if m is None:
                stripped = text[pos:].lstrip()
                if not stripped:
                    break
                at = len(text) - len(stripped)
                self._fail(f"unexpected character {stripped[0]!r}", at)
            if m.group("nat") is not None:
                self.items.append(("nat", m.group("nat"), m.start("nat")))
            elif m.group("ident") is not None:
                self.items.append(("ident", m.group("ident"), m.start("ident")))
            elif m.group("punct") is not None:
                self.items.append(("punct", m.group("punct"), m.start("punct")))
            pos = m.end()
        self.items.append(("eof", "", len(text)))
        self.i = 0
        self.depth = 0

    def _fail(self, msg: str, at: int):
        before = self.text[:at]
        line = before.count("\n") + 1
        col = at - (before.rfind("\n") + 1) + 1
        raise ParseError(msg, pos=at, line=line, col=col)

    def peek(self) -> tuple[str, str, int]:
        return self.items[self.i]

    def next(self) -> tuple[str, str, int]:
        tok = self.items[self.i]
        self.i += 1
        return tok

    def expect_punct(self, ch: str) -> None:
        kind, val, at = self.next()
        if kind != "punct" or val != ch:
            self._fail(f"expected {ch!r}, found {val or 'end of input'!r}", at)

    def error(self, msg: str):
        _, val, at = self.peek()
        self._fail(msg + (f", found {val!r}" if val else ", found end of input"), at)


def parse(text: str) -> SetExpr:
    """Parse one set expression; raises ParseError with position on bad input."""
    toks = _Tokens(text)
    expr = _parse_expr(toks)
    kind, val, at = toks.peek()
    if kind != "eof":
        toks._fail(f"trailing input starting at {val!r}", at)
    return expr


_COMBINATORS = ("mult", "level", "ap", "union", "inter", "compl", "dilate",
                "quot", "shift", "up", "down", "fs", "fp", "pseudo", "construct")


def _parse_expr(toks: _Tokens) -> SetExpr:
    kind, val, at = toks.peek()
    if kind == "punct" and val == "{":
        vals = _parse_natlist(toks, "{", "}")
        try:
            return Explicit(tuple(sorted(set(vals))))
        except InputError as exc:
            toks._fail(str(exc), at)
    if kind != "ident":
        toks.error("expected a set expression")
    toks.next()
    if val == "N":
        return AllNat()
    if val == "primes":
        return Primes()
    if val == "odd":
        return Ap(1, 2)
    if val not in _COMBINATORS:
        toks._fail(f"unknown set constructor {val!r}", at)
    if toks.depth == _MAX_DEPTH:
        toks._fail(f"expression nested deeper than {_MAX_DEPTH} constructor calls", at)
    toks.expect_punct("(")
    toks.depth += 1
    try:
        node = _parse_call(toks, val)
    except InputError as exc:  # node validation errors get positions attached
        toks._fail(str(exc), at)
    toks.depth -= 1
    toks.expect_punct(")")
    return node


def _parse_call(toks: _Tokens, name: str) -> SetExpr:
    if name == "mult":
        return Mult(_parse_nat(toks))
    if name == "level":
        return Level(_parse_nat(toks))
    if name == "ap":
        a = _parse_nat(toks)
        toks.expect_punct(",")
        return Ap(a, _parse_nat(toks))
    if name in ("union", "inter"):
        args = [_parse_expr(toks)]
        while _at_comma(toks):
            toks.next()
            args.append(_parse_expr(toks))
        return (Union if name == "union" else Inter)(tuple(args))
    if name == "compl":
        return Compl(_parse_expr(toks))
    if name == "dilate":
        k = _parse_nat(toks)
        toks.expect_punct(",")
        return Dilate(k, _parse_expr(toks))
    if name == "quot":
        arg = _parse_expr(toks)
        toks.expect_punct(",")
        return Quot(arg, _parse_nat(toks))
    if name == "shift":
        arg = _parse_expr(toks)
        toks.expect_punct(",")
        return Shift(arg, _parse_nat(toks))
    if name == "up":
        return Up(_parse_expr(toks))
    if name == "down":
        return Down(_parse_expr(toks))
    if name in ("fs", "fp"):
        seq = _parse_seq(toks)
        return (Fs if name == "fs" else Fp)(seq)
    if name == "pseudo":
        count = _parse_nat(toks)
        chain = []
        while _at_comma(toks):
            toks.next()
            chain.append(_parse_expr(toks))
        return Pseudo(count, tuple(chain))
    if name == "construct":
        fixture = _parse_ident(toks)
        params = []
        while _at_comma(toks):
            toks.next()
            params.append(_parse_param(toks))
        return Construct(fixture, tuple(params))
    raise AssertionError(name)


def _parse_seq(toks: _Tokens):
    kind, val, at = toks.peek()
    if kind == "punct" and val == "[":
        return ExplicitSeq(tuple(_parse_natlist(toks, "[", "]")))
    if kind == "ident" and val in nodes.SEQUENCE_RULES:
        toks.next()
        toks.expect_punct("(")
        params = []
        k2, v2, _ = toks.peek()
        if not (k2 == "punct" and v2 == ")"):
            params.append(_parse_param(toks))
            while _at_comma(toks):
                toks.next()
                params.append(_parse_param(toks))
        toks.expect_punct(")")
        return NamedSeq(val, tuple(params))
    toks.error("expected a sequence: [n1,n2,...] or a named rule")


def _parse_param(toks: _Tokens):
    kind, val, _ = toks.peek()
    if kind == "nat":
        return _parse_nat(toks)
    if kind == "ident":
        toks.next()
        return val
    if kind == "punct" and val == "[":
        return tuple(_parse_natlist(toks, "[", "]"))
    toks.error("expected a parameter (natural, word, or [list])")


def _parse_natlist(toks: _Tokens, open_ch: str, close_ch: str) -> list[int]:
    toks.expect_punct(open_ch)
    out = [_parse_nat(toks)]
    while _at_comma(toks):
        toks.next()
        out.append(_parse_nat(toks))
    toks.expect_punct(close_ch)
    return out


def _parse_nat(toks: _Tokens) -> int:
    kind, val, _ = toks.peek()
    if kind != "nat":
        toks.error("expected a natural number")
    toks.next()
    return int(val)


def _parse_ident(toks: _Tokens) -> str:
    kind, val, _ = toks.peek()
    if kind != "ident":
        toks.error("expected a name")
    toks.next()
    return val


def _at_comma(toks: _Tokens) -> bool:
    kind, val, _ = toks.peek()
    return kind == "punct" and val == ","
