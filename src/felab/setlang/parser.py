"""Recursive-descent parser for the set-expression language.

Grammar (whitespace-insensitive):

    expr    := name "(" args ")" | "N" | "primes" | "odd" | "{" natlist "}"
    name    := a class of nodes.SYNTAX, in lower case; args follow its row
    seq     := "[" natlist "]" | rulename "(" args ")"

"odd" is sugar for ap(1,2). Arities and argument kinds are fixed per name by
nodes.SYNTAX, and the parameter kinds of each fixture and sequence rule by
constructions.FIXTURES and SEQUENCE_RULES. Shapes are checked here, as the tree
is built, so evaluation never sees a malformed tree; it checks only values
(counts, words, primality). Constructor calls nest at most 100 deep.
"""

from __future__ import annotations

import re

from ..errors import InputError, ParseError
from .nodes import SYNTAX, AllNat, Ap, Explicit, ExplicitSeq, NamedSeq, Primes, SetExpr

# Deepest nesting of constructor calls; keeps parsing and every later
# recursive walk of the tree far from Python's recursion limit.
_MAX_DEPTH = 100

# one token per match; whitespace before a token is skipped, and any other
# character is the bad group, which the tokenizer reports
_TOKEN_RE = re.compile(r"\s*(?:(?P<nat>\d+)|(?P<ident>[A-Za-z_][A-Za-z0-9_]*)"
                       r"|(?P<punct>[(){}\[\],])|(?P<bad>\S))")


class _Tokens:
    def __init__(self, text: str):
        self.text = text
        self.items: list[tuple[str, str, int]] = []
        for m in _TOKEN_RE.finditer(text):
            kind = m.lastgroup
            if kind == "bad":
                self._fail(f"unexpected character {m[kind]!r}", m.start(kind))
            self.items.append((kind, m[kind], m.start(kind)))
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


CALLS = {cls.__name__.lower(): cls for cls in SYNTAX}


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
    cls = CALLS.get(val)
    if cls is None:
        toks._fail(f"unknown set constructor {val!r}", at)
    if toks.depth == _MAX_DEPTH:
        toks._fail(f"expression nested deeper than {_MAX_DEPTH} constructor calls", at)
    toks.expect_punct("(")
    toks.depth += 1
    try:
        node = _parse_call(toks, cls)
    except InputError as exc:  # node validation errors get positions attached
        toks._fail(str(exc), at)
    toks.depth -= 1
    toks.expect_punct(")")
    return node


def _parse_call(toks: _Tokens, cls) -> SetExpr:
    """The arguments of one call, read by the kinds of its SYNTAX row."""
    values = []
    for i, kind in enumerate(SYNTAX[cls]):
        item = _ITEMS[kind.lstrip("+*")]
        if i and kind[0] != "*":
            toks.expect_punct(",")
        if kind[0] not in "+*":
            values.append(item(toks))
            continue
        items = [item(toks)] if kind[0] == "+" else []
        while _at_comma(toks):
            toks.next()
            items.append(item(toks))
        values.append(tuple(items))
    return cls(*values)


def _parse_seq(toks: _Tokens):
    kind, val, at = toks.peek()
    if kind == "punct" and val == "[":
        return ExplicitSeq(tuple(_parse_natlist(toks, "[", "]")))
    from ..constructions import SEQUENCE_RULES  # a top-level import would be circular
    if kind == "ident" and val in SEQUENCE_RULES:
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
    kind, val, at = toks.peek()
    if kind != "nat":
        toks.error("expected a natural number")
    try:
        n = int(val)
    except ValueError:  # more digits than int() converts
        toks._fail(f"{len(val)} digits are too many", at)
    toks.next()
    return n


def _parse_ident(toks: _Tokens) -> str:
    kind, val, _ = toks.peek()
    if kind != "ident":
        toks.error("expected a name")
    toks.next()
    return val


def _at_comma(toks: _Tokens) -> bool:
    kind, val, _ = toks.peek()
    return kind == "punct" and val == ","


_ITEMS = {"nat": _parse_nat, "expr": _parse_expr, "seq": _parse_seq, "name": _parse_ident,
          "param": _parse_param}
