"""List the names defined in src/felab that no code in src/felab uses.

    python3 tools/unused_names.py

A name is a top-level function, class or constant of a module under
``src/felab``, or a method (not a dunder) of one of its classes. It counts as
used when some node in ``src/felab`` outside its own definition reads it: a
``Name`` or an ``Attribute`` for a top-level name, an ``Attribute`` for a
method. Strings, docstrings and imports do not count, and names are matched by
their bare spelling, so an attribute ``x.contains`` uses every method called
``contains``. Next to each unused name the script prints the
files under ``tests/``, ``tools/`` and ``perfbench/`` that use it.

It then lists the names that a module under ``tests/`` or ``tools/`` imports
and never reads (as a ``Name``, in that module).

Names in ``KEEP`` are listed with their reason. A ``KEEP`` entry that names no
unused definition (``src`` now reads the name, or no longer defines it) is
listed as stale. The exit code is 1 if any other name, any stale entry or any
unread import is listed, else 0. Standard library only.
"""

from __future__ import annotations

import ast
import sys
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "felab"
OUTSIDE = ("tests", "tools", "perfbench")
IMPORTS_CHECKED = ("tests", "tools")

# name -> why it stays although nothing in src uses it
KEEP = {
    "nth_power_completion": "criterion C08 checks the n-th power completions of the kernel",
}


def _dunder(name: str) -> bool:
    return name.startswith("__") and name.endswith("__")


def definitions(tree: ast.Module):
    """(qualified name, bare name, defining node, whether a method) for the
    top-level names and the methods of a module."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.name, node.name, node, False
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if (isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
                            and not _dunder(item.name)):
                        yield f"{node.name}.{item.name}", item.name, item, True
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                if isinstance(target, ast.Name) and not _dunder(target.id):
                    yield target.id, target.id, node, False


def reads(node: ast.AST) -> tuple[Counter, Counter]:
    """How often each bare name is read below node, as a Name and as an Attribute."""
    names: Counter = Counter()
    attrs: Counter = Counter()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and not isinstance(sub.ctx, ast.Store):
            names[sub.id] += 1
        elif isinstance(sub, ast.Attribute) and not isinstance(sub.ctx, ast.Store):
            attrs[sub.attr] += 1
    return names, attrs


def read_count(counts: tuple[Counter, Counter], name: str, method: bool) -> int:
    names, attrs = counts
    return attrs[name] + (0 if method else names[name])


def unread_imports(tree: ast.Module) -> list[tuple[int, str]]:
    """(line, name) of each name the module imports and never reads."""
    names, _ = reads(tree)
    out = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                bound = alias.asname or alias.name.split(".")[0]
                if names[bound] == 0:
                    out.append((node.lineno, bound))
    return out


def parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def main() -> int:
    trees = {path: parse(path) for path in sorted(SRC.rglob("*.py"))}
    src: tuple[Counter, Counter] = (Counter(), Counter())
    for tree in trees.values():
        for total, part in zip(src, reads(tree)):
            total.update(part)
    users: dict[str, set[str]] = {}
    for top in OUTSIDE:
        for path in sorted((ROOT / top).rglob("*.py")):
            names, attrs = reads(parse(path))
            for name in names + attrs:
                users.setdefault(name, set()).add(str(path.relative_to(ROOT)))
    unkept = 0
    unused: set[str] = set()
    for path, tree in trees.items():
        module = ".".join(path.relative_to(SRC.parent).with_suffix("").parts)
        for qualname, name, node, method in definitions(tree):
            if read_count(src, name, method) > read_count(reads(node), name, method):
                continue
            where = ", ".join(sorted(users.get(name, ()))) or "nothing"
            note = f"kept: {KEEP[name]}" if name in KEEP else "unused"
            print(f"{module}.{qualname}: {note}; outside src used by {where}")
            unkept += name not in KEEP
            unused.add(name)
    stale = sorted(KEEP.keys() - unused)
    for name in stale:
        print(f"KEEP.{name}: stale, no unused definition of it in src")
    print(f"{unkept} unused names outside KEEP, {len(stale)} stale KEEP entries")
    unread = 0
    for top in IMPORTS_CHECKED:
        for path in sorted((ROOT / top).rglob("*.py")):
            for line, name in unread_imports(parse(path)):
                print(f"{path.relative_to(ROOT)}:{line}: imports {name}, never read")
                unread += 1
    print(f"{unread} unread imports in {', '.join(IMPORTS_CHECKED)}")
    return 1 if unkept or stale or unread else 0


if __name__ == "__main__":
    sys.exit(main())
