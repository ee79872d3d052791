"""Run the felab CLI with a timed span around each public function of its layers.

    python3 perfbench/tracer.py OUT.json felab-arguments...

felab must be importable (the benchmark puts the checkout's ``src`` on
PYTHONPATH). The CLI's stdout and exit code are those of a plain run.

Every public function of the layer modules is replaced, under each name that
binds it in any felab module, by a wrapper that times the call and notes its
parent span. ``cli`` binds ``evaluate`` and ``parse`` by name and
``largeness`` binds ``mthick_check`` by name, so patching only the defining
module would miss those calls. A few private functions that mark a layer
boundary are wrapped too (the sieve build, the JSON printers, the diagram
audits), and so are the public methods of ``LazySet``.

Spans are folded into totals per (parent, name) as they close, so memory
stays flat however many membership tests a query makes. When the CLI
returns, the totals are written to OUT.json.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time
from collections import defaultdict

LAYER_MODULES = (
    "felab.arith", "felab.setlang.parser", "felab.setlang.nodes",
    "felab.setlang.evaluate", "felab.setlang.lazyset", "felab.setlang.analysis",
    "felab.constructions", "felab.embed", "felab.largeness", "felab.cli",
)
PRIVATE_BOUNDARIES = {
    "felab.cli": ("_print_json", "_print_jsonl"),
    "felab.largeness": ("_audit_thick_pcws", "_audit_maxstar_max", "_audit_nmaxstar_thick"),
}
# checkers whose mode argument splits one function into two layer metrics
MODE_ARG = {"largeness.ip_search": 3, "largeness.j_check": 4}
LARGE_FACTORIZE = 100_000


def layer_of(module: str) -> str:
    """'felab.setlang.evaluate' -> 'setlang'."""
    return module.split(".")[1]


class Tracer:
    def __init__(self):
        self.stack: list[list] = []  # [name, start, time covered by children]
        self.spans: dict[tuple, list] = {}  # (parent, name) -> [count, total, self, none]
        self.raised: dict[tuple, int] = defaultdict(int)
        self.counters: dict[str, int] = defaultdict(int)
        self.embed_depth = 0

    def wrap(self, name: str, fn, before=None, after=None):
        stack, spans, clock = self.stack, self.spans, time.perf_counter
        mode_at = MODE_ARG.get(name)
        in_embed = name.startswith("embed.")

        @functools.wraps(fn)
        def span(*args, **kwargs):
            label = name
            if mode_at is not None:
                label = f"{name}[{args[mode_at] if len(args) > mode_at else kwargs['mode']}]"
            token = before(args) if before is not None else None
            if in_embed:
                self.embed_depth += 1
            frame = [label, clock(), 0.0]
            stack.append(frame)
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as exc:
                self.raised[(label, type(exc).__name__)] += 1
                raise
            finally:
                dur = clock() - frame[1]
                stack.pop()
                parent = stack[-1][0] if stack else None
                if stack:
                    stack[-1][2] += dur
                rec = spans.get((parent, label))
                if rec is None:
                    rec = spans[(parent, label)] = [0, 0.0, 0.0, 0]
                rec[0] += 1
                rec[1] += dur
                rec[2] += dur - frame[2]
                if result is None:
                    rec[3] += 1
                if in_embed:
                    self.embed_depth -= 1
                if after is not None:
                    after(args, token)
        return span

    # -- hooks that count what the span totals cannot -------------------------

    def _count_large(self, args):
        if args[0] > LARGE_FACTORIZE:
            self.counters["arith.factorize_large_calls"] += 1

    def _sieve_limit(self, args):
        self.counters["arith.sieve_limit_max"] = max(self.counters["arith.sieve_limit_max"], args[0])

    def _contains_in_embed(self, args):
        if self.embed_depth:
            self.counters["embed.contains"] += 1

    def _members_before(self, args):
        return len(args[0]._members) if hasattr(args[0], "_members") else 0

    def _members_after(self, args, before):
        self.counters["setlang.members_materialised"] += len(args[0]._members) - before

    def _request(self, args, token):
        self.counters["requests"] += 1

    def install(self) -> None:
        """Wrap the layer functions in place; call once, after importing felab.cli."""
        replace: dict[int, object] = {}
        for modname in LAYER_MODULES:
            mod = sys.modules[modname]
            layer = layer_of(modname)
            for attr, fn in list(vars(mod).items()):
                if (inspect.isfunction(fn) and fn.__module__ == modname
                        and not inspect.isgeneratorfunction(fn)
                        and (not attr.startswith("_") or attr in PRIVATE_BOUNDARIES.get(modname, ()))):
                    name = f"{layer}.{attr}"
                    before = self._count_large if name == "arith.factorize" else None
                    after = self._request if attr in ("_print_json", "_print_jsonl") else None
                    replace[id(fn)] = self.wrap(name, fn, before, after)
        self._wrap_classes()
        for modname, mod in list(sys.modules.items()):
            if modname == "felab" or modname.startswith("felab."):
                for attr, value in list(vars(mod).items()):
                    if id(value) in replace and inspect.isfunction(value):
                        setattr(mod, attr, replace[id(value)])

    def _wrap_classes(self) -> None:
        from felab.arith import Sieve
        from felab.setlang.lazyset import LazySet

        build = Sieve.__dict__["_build"].__func__
        Sieve._build = staticmethod(self.wrap("arith.sieve_build", build, self._sieve_limit))
        for attr, fn in list(vars(LazySet).items()):
            if not inspect.isfunction(fn) or (attr.startswith("_") and attr != "__init__"):
                continue
            before = after = None
            if attr == "contains":
                before = self._contains_in_embed
            elif attr in ("__init__", "extend_to"):
                before, after = self._members_before, self._members_after
            setattr(LazySet, attr, self.wrap(f"setlang.LazySet.{attr}", fn, before, after))

    def to_json(self) -> dict:
        return {
            "spans": [[p, n, *rec] for (p, n), rec in sorted(self.spans.items(), key=str)],
            "raised": [[n, e, c] for (n, e), c in sorted(self.raised.items())],
            "counters": dict(sorted(self.counters.items())),
        }


def main(argv: list[str]) -> int:
    out, cli_args = argv[0], argv[1:]
    import felab.cli

    tracer = Tracer()
    tracer.install()
    try:
        return felab.cli.main(cli_args)
    finally:
        with open(out, "w", encoding="utf-8") as fh:
            json.dump(tracer.to_json(), fh)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
