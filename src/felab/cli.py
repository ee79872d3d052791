"""Command-line front end: parse expressions, run checkers, emit tables or JSON.

Exit codes follow the verdict contract (0 proved, 1 refuted, 2 bounded);
errors map to 3 (input/parse/inapplicable), 4 (resource), 5 (precision),
and a stdout closed by its reader to 141.
All JSON output is sorted and timestamp-free, so identical invocations
produce byte-identical bytes.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import arith, constructions, embed, largeness
from .errors import FelabError, InapplicableError, InputError, ResourceError
from .setlang import nodes
from .setlang.evaluate import evaluate
from .setlang.lazyset import DEFAULT_HORIZON, LazySet
from .setlang.nodes import unparse
from .setlang.parser import parse


# ---------------------------------------------------------------------------
# expression input, including @file explicit-set loading
# ---------------------------------------------------------------------------

def _read_lines(path: str, kind: str) -> list[str]:
    """The lines of a UTF-8 set or batch file; one that cannot be read is an input error."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.readlines()
    except (OSError, UnicodeDecodeError) as exc:
        raise InputError(f"cannot read {kind} file {path}: {exc}") from exc


def read_set_file(path: str) -> tuple[int, ...]:
    """Explicit set file: one decimal natural per line, sorted, '#' comments."""
    values: list[int] = []
    for lineno, raw in enumerate(_read_lines(path, "set"), start=1):
        text = raw.split("#", 1)[0].strip()
        if not text:
            continue
        if not text.isdecimal():
            raise InputError(f"{path}:{lineno}: expected a decimal natural, got {text!r}")
        try:
            values.append(int(text))
        except ValueError as exc:  # more digits than int() converts
            raise InputError(f"{path}:{lineno}: {len(text)} digits are too many") from exc
    if not values:
        raise InputError(f"set file {path} holds no values")
    if any(b <= a for a, b in zip(values, values[1:])):
        raise InputError(f"set file {path} must be strictly increasing")
    if values[0] < 1:
        raise InputError(f"set file {path} must hold naturals >= 1")
    return tuple(values)


def _expr_node(text: str) -> nodes.SetExpr:
    text = text.strip()
    if text.startswith("@"):
        return nodes.Explicit(read_set_file(text[1:]))
    return parse(text)


def _eval_expr(text: str, horizon: int) -> tuple[nodes.SetExpr, LazySet]:
    node = _expr_node(text)
    return node, evaluate(node, horizon)


# ---------------------------------------------------------------------------
# output
# ---------------------------------------------------------------------------

def _scalar(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if value is None:
        return "null"
    if isinstance(value, (dict, list)):  # only an empty one is printed inline
        return json.dumps(value)
    return str(value)


def _kv_lines(obj, indent: int = 0):
    pad = "  " * indent
    if isinstance(obj, dict):
        for key in sorted(obj):
            val = obj[key]
            if isinstance(val, (dict, list)) and val:
                yield f"{pad}{key}:"
                yield from _kv_lines(val, indent + 1)
            else:
                yield f"{pad}{key}: {_scalar(val)}"
    elif isinstance(obj, list):
        if all(isinstance(v, (int, str, bool, type(None))) for v in obj):
            yield f"{pad}{' '.join(_scalar(v) for v in obj)}"
        else:
            for val in obj:
                if isinstance(val, (dict, list)) and val:
                    yield f"{pad}-"
                    yield from _kv_lines(val, indent + 1)
                else:
                    yield f"{pad}- {_scalar(val)}"


def _print_json(payload: dict) -> None:
    print(json.dumps(payload, sort_keys=True, indent=2))


def _print_jsonl(payload: dict) -> None:
    print(json.dumps(payload, sort_keys=True, separators=(",", ":")))


def _show(args, payload: dict, table) -> int:
    """Print the payload as JSON or as the lines of table(payload); return its exit code."""
    if args.json:
        _print_json(payload)
    else:
        for line in table(payload):
            print(line)
    return payload["exit"]


def _verdict_lines(head: list[str], v: dict):
    yield from head
    yield f"status: {v['status']}"
    if "direction" in v:
        yield f"direction: {v['direction']}"
    if v["certificate"]:
        yield "certificate:"
        yield from _kv_lines(v["certificate"], 1)
    if v["bounds"]:
        yield "bounds:"
        yield from _kv_lines(v["bounds"], 1)


# ---------------------------------------------------------------------------
# check
# ---------------------------------------------------------------------------

# the bound flags of check and diagram: (flag, PropertyParams field, help)
_BOUND_FLAGS = (
    ("--n", "run_length", "run length"),
    ("--t", "t_max", "largest shift"),
    ("--L", "ip_len", "generator count"),
    ("--N", "divisor_n", "divisor count"),
    ("--s", "antichain_s", "antichain size"),
    ("--a-max", "j_a_max", "largest base value scanned"),
    ("--h-max", "j_h_max", "largest index for function tables"),
)


def _property_params(args, star_a_max: int | None) -> largeness.PropertyParams:
    """The bound flags over PropertyParams' defaults, validated before any evaluation."""
    given = {field: getattr(args, flag[2:].replace("-", "_")) for flag, field, _ in _BOUND_FLAGS}
    given["star_a_max"] = star_a_max
    given["horizon"] = args.horizon
    return largeness.PropertyParams(
        **{field: value for field, value in given.items() if value is not None})


def _batch_lines(path: str) -> list[str]:
    lines = [ln.strip() for ln in _read_lines(path, "batch")]
    return [ln for ln in lines if ln and not ln.startswith("#")]


def _run_expressions(args, run_one, table) -> int:
    """Run one expression (table or JSON) or every line of --batch (JSON lines).

    run_one(text) returns the payload, which carries its exit code; a batch line
    that raises prints an error line and the batch exits with the worst code.
    """
    if args.batch is not None:
        if args.expression is not None:
            raise InputError("give either an expression or --batch, not both")
        worst = 0
        for text in _batch_lines(args.batch):
            try:
                payload = run_one(text)
            except FelabError as exc:
                payload = {"expression": text, "error": str(exc), "exit": exc.exit_code}
            _print_jsonl(payload)
            worst = max(worst, payload["exit"])
        return worst
    if args.expression is None:
        raise InputError("an expression is required (or use --batch FILE)")
    return _show(args, run_one(args.expression), table)


def cmd_check(args) -> int:
    # --a-max caps both the J base values and the MAX* generators here
    params = _property_params(args, args.a_max)
    names = {name.lower(): name for name in largeness.CHECKERS}
    prop = args.property.lower()
    if prop not in names:
        raise InputError(
            "unknown property %r; choose from: %s" % (args.property, " ".join(sorted(names))))
    check = largeness.CHECKERS[names[prop]]

    def run_one(text: str) -> dict:
        node, A = _eval_expr(text, args.horizon)
        verdict = check(A, params)
        return {
            "command": "check",
            "property": prop,
            "expression": unparse(node),
            "horizon": args.horizon,
            "verdict": verdict.to_json(),
            "exit": verdict.exit_code,
        }

    return _run_expressions(args, run_one, lambda p: _verdict_lines(
        [f"property: {prop}", f"expression: {p['expression']}"], p["verdict"]))


# ---------------------------------------------------------------------------
# fe / me
# ---------------------------------------------------------------------------

def cmd_fe(args) -> int:
    node_a, A = _eval_expr(args.expr_a, args.horizon)
    node_b, B = _eval_expr(args.expr_b, args.horizon)
    verdict, found = embed.fe_prefix_check(A, B, args.prefix, args.kmax, args.horizon)

    # cross-check the two decision routes; cap the probe so a certificate
    # refutation is not followed by a full-length scan, and treat matching
    # errors as agreement. The decider's own scan, if it ran to the probe's
    # k_max, is the witness route.
    probe_kmax = min(args.kmax, args.horizon)

    def _route(fn):
        try:
            return ("witness", fn(found["family"], B, probe_kmax).to_json())
        except FelabError as exc:
            return (type(exc).__name__, str(exc))

    reuse = "witness" in found and probe_kmax == args.kmax
    witness_route = ("witness", found["witness"].to_json()) if reuse else _route(embed.fe_witness)
    agreement = witness_route == _route(embed.fe_fip_oracle)

    level, residue = found["level"], found["residue"]
    refuters = {"level": {"inapplicable": str(level)} if isinstance(level, InapplicableError)
                else level and level.to_json(),
                "residue": residue and residue.to_json()}

    payload = {
        "command": "fe",
        "A": unparse(node_a),
        "B": unparse(node_b),
        "horizon": args.horizon,
        "verdict": verdict.to_json(),
        "oracle_agreement": agreement,
        "refuters": refuters,
        "exit": verdict.exit_code,
    }
    return _show(args, payload, lambda p: [
        *_verdict_lines([f"A: {p['A']}", f"B: {p['B']}"], p["verdict"]),
        f"oracle agreement: {'yes' if agreement else 'NO'}", "refuters:", *_kv_lines(refuters, 1)])


def cmd_me(args) -> int:
    node_a, A = _eval_expr(args.expr_a, args.horizon)
    node_b, B = _eval_expr(args.expr_b, args.horizon)
    verdict = embed.me_check(A, B, args.m, args.horizon, args.kmax)
    payload = {
        "command": "me",
        "A": unparse(node_a),
        "B": unparse(node_b),
        "m": args.m,
        "horizon": args.horizon,
        "verdict": verdict.to_json(),
        "exit": verdict.exit_code,
    }
    return _show(args, payload, lambda p: _verdict_lines(
        [f"A: {p['A']}", f"B: {p['B']}", f"m: {args.m}"], p["verdict"]))


# ---------------------------------------------------------------------------
# diagram
# ---------------------------------------------------------------------------

def cmd_diagram(args) -> int:
    params = _property_params(args, args.star_a_max)

    def run_one(text: str) -> dict:
        node, A = _eval_expr(text, args.horizon)
        report = largeness.diagram_report(A, params)
        return {
            "command": "diagram",
            "expression": unparse(node),
            "report": report.to_json(),
            "exit": 0,
        }

    def table(payload: dict):
        yield f"expression: {payload['expression']}"
        yield f"horizon: {params.horizon}"
        for row in payload["report"]["properties"]:
            status = row["verdict"]
            extra = ""
            if status in ("proved", "refuted", "bounded"):
                tail = {k: v for k, v in row.items() if k not in ("name", "verdict")}
                extra = " " + json.dumps(tail, sort_keys=True, separators=(",", ":"))
            elif "reason" in row:
                extra = " " + json.dumps(row["reason"])
            yield f"{row['name']:<10} {status}{extra}"
        for audit in payload["report"]["audits"]:
            yield (f"audit [{audit['implication']}]: {audit['status']} "
                   + json.dumps(audit["detail"], sort_keys=True, separators=(",", ":")))

    return _run_expressions(args, run_one, table)


# ---------------------------------------------------------------------------
# construct / chain / atlas / parse
# ---------------------------------------------------------------------------

def _emit_set_file(path: str, expr_text: str, horizon: int, values) -> None:
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(f"# {expr_text} horizon={horizon}\n")
            for v in values:
                fh.write(f"{v}\n")
    except OSError as exc:
        raise InputError(f"cannot write set file {path}: {exc}") from exc


def cmd_construct(args) -> int:
    expr_text = "construct(%s)" % ",".join([args.name] + list(args.params))
    node = _expr_node(expr_text)
    # the thick fixture, built once, lists its members (ascending and distinct) and blocks
    fx = (constructions.thick_fixture(node.params, args.horizon)
          if args.name == "thick_nonmaxstar" else None)
    members = fx.members if fx is not None else evaluate(node, args.horizon).elements()
    payload: dict[str, object] = {
        "command": "construct",
        "name": args.name,
        "params": list(args.params),
        "expression": unparse(node),
        "count": len(members),
        "members": list(members),
        "exit": 0,
    }
    if fx is not None:
        payload["blocks"] = [list(b) for b in fx.blocks]
        payload["avoided"] = list(fx.avoided)
    if args.emit is not None:
        _emit_set_file(args.emit, payload["expression"], args.horizon, members)
        payload["emitted"] = args.emit

    def table(payload: dict):
        if args.emit is not None:
            yield f"wrote {len(members)} values to {args.emit}"
        else:
            yield " ".join(str(m) for m in members)
        if "blocks" in payload:
            for n, block in enumerate(payload["blocks"], start=1):
                yield f"block {n}: {' '.join(str(x) for x in block)}"
            yield "avoided: " + " ".join(str(x) for x in payload["avoided"])

    return _show(args, payload, table)


def cmd_chain(args) -> int:
    result = embed.decreasing_chain(args.depth, args.per_level)
    verified = None
    if args.verify:
        # from the definition, not the dilation kernel that logged the refutation:
        # k*(a, b) lies in a level exactly when some member x has b | x and (x/b)*a
        # is a member too
        verified = 0
        for (a, b), level, ref in zip(result.blocked, result.levels[1:], result.refutations):
            members = set(level)
            if ref.family != (a, b) or any(
                    x % b == 0 and x // b * a in members for x in level):
                print(f"re-check failed for pair {list(ref.family)} at level "
                      f"{verified + 1}", file=sys.stderr)
                return 1
            verified += 1
    payload = {
        "command": "chain",
        "depth": args.depth,
        "per_level": args.per_level,
        "result": result.to_json(),
        "verified_refutations": verified,
        "exit": 0,
    }

    def table(payload: dict):
        for n, level in enumerate(result.levels):
            yield f"A_{n}: {' '.join(str(x) for x in level)}"
        for n, (pair, ref) in enumerate(zip(result.blocked, result.refutations)):
            yield (f"A_{n + 1} dodges pair {{{pair[0]},{pair[1]}}}: "
                   + json.dumps(ref.to_json(), sort_keys=True, separators=(",", ":")))
        if verified is not None:
            yield f"verified {verified}/{len(result.refutations)} refutations"

    return _show(args, payload, table)


def cmd_atlas(args) -> int:
    report = largeness.poset_atlas(args.n, exhaustive=True if args.exhaustive else None)
    payload = {"command": "atlas", "report": report.to_json(),
               "exit": 0 if not report.violations else 1}
    return _show(args, payload, lambda p: [
        *_kv_lines(p["report"]), "duality check: " + ("PASS" if not report.violations else "FAIL")])


def _ast_json(node) -> object:
    if hasattr(node, "_fields"):
        out: dict[str, object] = {"kind": type(node).__name__}
        for name in node._fields:
            out[name] = _ast_json(getattr(node, name))
        return out
    if isinstance(node, tuple):
        return [_ast_json(x) for x in node]
    return node


def _ast_lines(node, indent: int = 0):
    pad = "  " * indent
    scalars = []
    children = []
    for name in node._fields:
        val = getattr(node, name)
        if hasattr(val, "_fields"):
            children.append(val)
        elif isinstance(val, tuple) and val and hasattr(val[0], "_fields"):
            children.extend(val)
        else:
            scalars.append(f"{name}={val if not isinstance(val, tuple) else list(val)}")
    head = type(node).__name__
    yield pad + head + ((" " + " ".join(scalars)) if scalars else "")
    for child in children:
        yield from _ast_lines(child, indent + 1)


def cmd_parse(args) -> int:
    node = _expr_node(args.expression)
    payload = {"command": "parse", "text": unparse(node), "ast": _ast_json(node), "exit": 0}
    return _show(args, payload, lambda p: [f"text: {p['text']}", *_ast_lines(node)])


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------

class _Parser(argparse.ArgumentParser):
    def error(self, message):
        """Usage errors exit 3 like other input errors: 2 is the bounded verdict."""
        self.exit(InputError.exit_code, f"{self.format_usage()}{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--horizon", type=int, default=DEFAULT_HORIZON,
                        help=f"evaluation horizon (default {DEFAULT_HORIZON})")
    common.add_argument("--json", action="store_true", help="print the report as JSON")

    bounds = argparse.ArgumentParser(add_help=False)
    for flag, _, help_text in _BOUND_FLAGS:
        bounds.add_argument(flag, type=int, default=None, help=help_text)

    top = _Parser(
        prog="felab",
        description="Bounded-scale deciders for dilation-based set embeddability "
                    "and largeness properties of sets of naturals.")
    sub = top.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("check", parents=[common, bounds],
                       help="run one largeness property checker")
    p.add_argument("property")
    p.add_argument("expression", nargs="?", default=None)
    p.add_argument("--batch", default=None,
                   help="file of expressions, one per line; prints JSON lines")
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("fe", parents=[common],
                       help="dilation embeddability of A's prefix into B")
    p.add_argument("expr_a")
    p.add_argument("expr_b")
    p.add_argument("--prefix", type=int, default=embed.DEFAULT_PREFIX, help="prefix length of A")
    p.add_argument("--kmax", type=int, default=embed.DEFAULT_K_MAX, help="largest dilation tried")
    p.set_defaults(func=cmd_fe)

    p = sub.add_parser("me", parents=[common],
                       help="embed every m-subset of A into B")
    p.add_argument("expr_a")
    p.add_argument("expr_b")
    p.add_argument("--m", type=int, required=True, help="subset cardinality")
    p.add_argument("--kmax", type=int, default=embed.DEFAULT_K_MAX, help="largest dilation tried")
    p.set_defaults(func=cmd_me)

    p = sub.add_parser("diagram", parents=[common, bounds],
                       help="full largeness report for one set")
    p.add_argument("expression", nargs="?", default=None)
    p.add_argument("--star-a-max", dest="star_a_max", type=int, default=None,
                   help="largest generator for the starred divisor check")
    p.add_argument("--batch", default=None,
                   help="file of expressions, one per line; prints JSON lines")
    p.set_defaults(func=cmd_diagram)

    p = sub.add_parser("construct", parents=[common],
                       help="list a catalog fixture")
    p.add_argument("name")
    p.add_argument("params", nargs="*")
    p.add_argument("--emit", default=None, help="write an explicit set file")
    p.set_defaults(func=cmd_construct)

    p = sub.add_parser("chain", parents=[common],
                       help="strictly decreasing embeddability chain")
    p.add_argument("depth", type=int)
    p.add_argument("per_level", type=int)
    p.add_argument("--verify", action="store_true",
                   help="re-check every logged refutation")
    p.set_defaults(func=cmd_chain)

    p = sub.add_parser("atlas", parents=[common],
                       help="exact divisor-poset audit on {1..n}")
    p.add_argument("n", type=int)
    p.add_argument("--exhaustive", action="store_true",
                   help="audit all 2^n subsets regardless of size")
    p.set_defaults(func=cmd_atlas)

    p = sub.add_parser("parse", parents=[common],
                       help="dump the syntax tree of an expression")
    p.add_argument("expression")
    p.set_defaults(func=cmd_parse)
    return top


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        try:
            # the invocation settings are validated here, once
            if args.horizon < 1:
                raise InputError(f"horizon must be >= 1, got {args.horizon}")
            if args.horizon > arith.DEFAULT_SIEVE_CAP:
                # the largest horizon at which level and primes can be evaluated
                raise ResourceError(
                    f"horizon {args.horizon} exceeds the cap {arith.DEFAULT_SIEVE_CAP}")
            if getattr(args, "kmax", 0) > arith.DEFAULT_SIEVE_CAP:
                # fe and me scan every k up to it, so it is capped like the horizon
                raise ResourceError(f"kmax {args.kmax} exceeds the cap {arith.DEFAULT_SIEVE_CAP}")
            code = args.func(args)
        except FelabError as exc:
            print(f"error: {exc}", file=sys.stderr)
            code = exc.exit_code
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # the reader closed stdout early: point it at devnull so the flush at
        # exit cannot fail again, and end with the status SIGPIPE would give
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 141


if __name__ == "__main__":
    sys.exit(main())
