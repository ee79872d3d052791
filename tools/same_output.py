"""Compare what two felab trees print for a fixed battery of commands.

    python3 tools/same_output.py OLD NEW

OLD and NEW are checkouts (each with a ``src/felab`` package), for example a
copy of the parent commit made with ``git archive`` and the working tree.
Every command of the battery runs through ``python -m felab`` with the tree's
``src`` first on PYTHONPATH, once under PYTHONHASHSEED 1 and once under 2, in
a scratch working directory and without FELAB_CACHE, which an OLD tree from
before the on-disk sieve cache was removed still reads. Every difference in
stdout, stderr or exit code is printed, between the two trees and between the
two hash seeds of one tree. The exit code is 1 if there was any difference.

The battery, read from this checkout:
- round 0, seed 1 of the three benchmark workloads (``perfbench/workloads.py``),
- the C10 battery (``C10_BATTERY`` in ``tests/test_acceptance.py``),
- every ``check`` property (``felab.largeness.CHECKERS`` of NEW) on a few
  expressions, as JSON, as a table and as ``--batch``,
- ``check a-thick`` on unpinned ``fs``/``fp`` closures and on 30 nested
  complements, and ``check a-ip*`` on a set whose complement it builds, at
  horizon 20000,
- ``parse`` of nested expressions over every kind of syntax-tree node, as a
  table and as JSON, and of texts with tabs, newlines, an information separator
  (whitespace to the tokenizer) and non-ASCII characters, accepted and refused,
- ``construct`` of every catalog fixture with valid parameters, at horizon 2000,
  ``construct fp_primes`` with a bad word, with count 0 and with count 18 (over
  the subset cap), and ``construct thick_nonmaxstar`` with and without n_max at
  horizons 50 and 5000,
- ``parse`` and ``check max`` of malformed expressions (one malformed parameter
  shape for each fixture and sequence rule among them) and of parameters whose
  values are refused, and a few other error paths of ``check``, ``diagram`` and
  ``chain``,
- ``fe``, ``check`` and ``diagram`` commands that count prime factors of
  numbers above the shared sieve (``arith.omega`` past 100000),
- ``fe`` cross-checks decided by a refuter, by the witness route, and with
  ``--horizon`` below ``--kmax``, and ``fe``/``me`` with a ``--kmax`` below 1,
- ``check nmax*`` at horizon 5000 on the sets whose coprime-antichain searches
  cost most, on one that ends at the search's step cap, and with ``--s`` 2 and 6,
  on pools that are proved only past the first prefix of 64 generators (also
  where the whole pool holds a smaller antichain) and on one that stops growing
  at 64, and ``mult(2)`` at horizon 6000 (capped), ``up({6,10,15})`` at 20000 and
  ``N`` at 131072 (proved at the first prefix),
- the greedy Sidon sequence: ``check a-thick fs(sidon())`` at horizons 100000
  and 1000000, ``construct sidon 300``, and the closure of 600 pinned terms,
  refused at the subset cap,
- ``check a-thick`` on a shifted quotient of a level at the default horizon,
  which counts prime factors of every n in (100000, 200012],
- the candidate loops of A-IP, M-IP, A-IP*, A-J, M-J, A-pcws and NMAX* at
  horizon 5000 on the sets whose searches run longest or to the step cap, and
  the three combination searches again with ``--L`` 2 and 5,
- the three combination searches at horizons 100000 and 1000000 on sparse sets
  (``construct(sidon)``, ``ap(5,1000)``, ``dilate(1000,odd)``), on sets whose
  multiplicative searches run long (``dilate(2,odd)``, ``level(4)``,
  ``primes``) and on ``N``, which proves at once,
- the two places that validate bounds: every bound flag (``cli._BOUND_FLAGS``
  of NEW) at 0 on ``check`` and ``diagram``, ``--horizon 0`` on every
  subcommand, ``--json`` alone, ``--format json`` (an unknown option since
  ``--json`` became the only format switch: an OLD tree that had it exits 0
  there, NEW exits 3, a documented difference), and a run length past the
  horizon, which the A-thick checker itself refuses,
- the sets built as finite by their constructor (``level(0)``, a dilated finite
  set, a union with a finite part, ``fp_primes``) under ``diagram``, ``fe``,
  ``me``, ``check a-ip*`` and ``check nmax``, ``check nmax`` and ``check
  a-thick`` on the union of ``level(0)`` with a set that has no predicate
  (``construct(sidon)``), ``check a-thick`` on ``level(0)`` at a horizon past
  the sieve cap, ``check a-thick`` on
  ``construct(equal_exponent)`` at a horizon where it stays under the element
  cap, and ``parse`` of a natural longer than ``int()`` converts,
- ``check a-thick`` at horizon 5 with ``--n`` 2, 3 and 4 on periodic sets whose
  window passes the horizon and on finite sets whose runs cross it,
- ``chain 100 40``, ``chain 30 200`` and ``chain 100 2000 --verify --json``,
- ``diagram`` on sets where every audit passes (``N``), where the NMAX* audit
  fails (``compl(mult(4))``) and where every audit is skipped (``{5}``), at
  horizon 5000,
- a proved ``check m-ip``, and ``check max*`` on a set without a predicate that
  has both missing and undecided multiples,
- ``check a-thick``, ``diagram`` and ``fe`` on quotients, unions and
  intersections of Omega-levels, among them sets of level 0 alone and empty
  ones and ``construct(sidon_levels,...)``, and the quotient of a union of
  levels at horizon 5000000, which the element cap refused before such sets
  were listed from the Omega table (a documented difference),
- ``fe`` and ``me`` with a set of level 0 alone (``{1}``) and an empty level
  set as A and as B,
- ``check a-thick`` on a quotient of a level by a prime past the deterministic
  primality range, alone and in a union with N,
- ``check a-thick`` on unpinned closures at horizon 9000000, past the window in
  which they are counted first: ``fs(exgamma())``, refused there, and
  ``fp(exgamma())``, which answers,
- ``check a-pcws`` and ``check m-pcws`` on a finite set at horizon 1000000,
- ``construct thick_nonmaxstar`` at horizon 400000, and with n_max 3000, which
  is over the element cap,
- ``check a-ip`` with ``--cache`` on a scratch directory, an unknown option
  since the sieve cache was removed: an OLD tree that had the cache exits 0
  there, NEW exits 3 (a documented difference),
- the records' JSON and tables: ``atlas 6``, ``fe`` refuted by a level
  certificate and by a residue certificate, each as a table and as JSON, and
  ``me --m 2`` proved, refuted and bounded,
- ``check a-thick`` and ``diagram`` on ``pseudo(3,{2},{2},{2})``, a chain that
  runs out after one value,
- ``check a-thick`` on ``fs`` of 17 pinned terms, at the subset cap, and of 18,
  over it,
- ``construct thick_nonmaxstar 300`` as JSON and with ``--emit`` into the
  scratch directory,
- the reads of sets complete only below the horizon, at horizon 5000:
  ``check max`` and ``diagram`` on ``quot(ap(8000,1),2)``, ``check max`` on a
  ``pseudo`` chain through a shifted ``ap`` and ``fe --prefix 1`` of a union
  with a member far past the horizon (an OLD tree that read only the listed
  members answers these three wrongly, a documented difference), and ``check
  max`` and ``fe`` on ``quot(mult(2),2)`` at horizon 3000000, which the walk and
  the prefix decide without completing the set past the element cap,
- ``check a-thick --n 1`` on ``construct(equal_exponent)`` at horizon 1, which
  an OLD tree refused (a documented difference),
- sets of each node kind of the eventually periodic fragment (``N``, ``mult``,
  ``ap``, ``{…}``, ``union``, ``inter``, ``compl``, ``dilate``, ``quot``,
  ``shift`` and ``up`` of a finite set, also one with a member past the
  horizon), as targets of ``fe`` and ``me`` and under ``check max`` and
  ``diagram`` at horizon 5000, and ``check
  max`` on a union that lists members past its bound at horizon 100,
- ``fe`` on a target whose membership stays unknown for 995000 dilations,
- the distinct ``eval_batch`` lines of seeds 1-3, rounds 0-2, as ``check a-thick
  --batch`` with ``--n`` 2, 3 and 5 at horizons 60, 5000 and the default,
- intersections whose children are complete to different bounds (quotients,
  shifts, finite sets, divisor closures and ``fp(primeseq(odd))``), as ``check
  a-thick --batch`` and ``diagram --batch --horizon 2000``, and ``fe`` with a
  precision hint past the horizon cap or at the horizon used, which say that no
  horizon is known to settle them (a documented difference),
- ``construct equal_exponent`` at horizons 1, 2, 36, 5000 and 100000, and
  ``check nmax`` with ``--s`` 2, 4 and 6 at horizons 60 and 5000 on sets
  listed only up to a bound (``fp(primeseq(odd))``, ``fs(fastgrowth())``),
  finite sets (``{1}``, ``{2,3,5,7}``, ``down({234,320})``) and exact infinite
  ones (``N``, ``level(2)``, ``dilate(2,odd)``, ``up({6,10,15})``),
- ``me`` on a set listed only below the horizon it was given, whose precision
  hint says that no horizon is known to settle it, and ``fe`` and ``me`` with a
  ``--kmax`` past the cap of ``--horizon``, which NEW refuses with exit 4 (both
  documented differences),
- the checkers that read one table of a set's members (``check a-pcws``,
  ``max``, ``max*``, ``nmax*`` and ``nmax``) at horizons 60 and 5000 on sets
  complete below the horizon, listed only to a bound, listed past it, and
  finite, and ``check a-thick`` and ``check a-ip*`` on complements of such
  sets at horizons 60, 5000 and the default,
- ``me --m 1`` where membership stays unknown, which NEW refuses with exit 5
  where OLD answered bounded, ``check a-thick`` on a complement over the element
  cap at the largest horizon, whose message NEW gives with the count (both
  documented differences), and ``check a-thick level(0)`` at the largest
  horizon,
- the sets read as tables of marks: the ``eval_batch`` lines of seed 1, round 0
  as ``check a-thick --batch`` at horizons 1, 2, 3 and 97; ``check a-thick``
  where the first run crosses the bound of a set complete below the horizon or
  lies in a periodic window past the horizon; ``dilate``, ``quot`` and ``shift``
  of sets without a predicate and of finite sets with members past the horizon,
  complements of sets without a predicate, and divisor closures, unions and
  intersections of dilations, whose members past the table their predicate
  answers, under ``check a-thick`` and ``diagram``; ``pseudo`` chains that are
  not decreasing; ``construct`` listings at horizon 100000 as JSON; ``check
  a-thick odd`` at the largest horizon, over the element cap; and ``check max``
  and ``fe`` on dilations whose witnesses lie past the horizon, also by 10^6
  under a shift off the dilation's stride, a union, an intersection and a
  second dilation, at horizon 100000.

Standard library only.
"""

from __future__ import annotations

import ast
import difflib
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SEEDS = ("1", "2")
TIMEOUT_S = 600
CHECK_EXPRS = ("N", "odd", "up({6,10,15})", "level(2)", "fs(sidon())")
CHECK_HORIZON = "2000"
CLOSURE_EXPRS = ("fp(primeseq(all))", "fp(exgamma())", "fp(fastgrowth())", "fs(sidon())",
                 "fs(exgamma())", "compl(" * 30 + "mult(3)" + ")" * 30)
CLOSURE_HORIZON = "20000"
PARSE_EXPRS = ("pseudo(3,N,mult(2),mult(4))", "fs([1,2,4])", "fp(primeseq(odd))",
               "construct(sidon_levels,6,1)", "shift(quot(level(2),2),3)",
               "union(inter(compl(primes),ap(1,2)),dilate(2,{3,5}),up(level(0)))",
               "down(fp(exgamma()))")
# whitespace the tokenizer skips, and characters it refuses or reads as digits
SPACED_EXPRS = ("union(mult(2),\tlevel(3))", "union(mult(2),\n  level(3))", "mult(\t\x1c2)",
                "level(\u0663)", "union(N,\n\x1c\u00e9)", "mult(2)\t\u00b2", "\t\n")
# rejected by the parser: bad syntax, unknown names, and a malformed parameter
# shape for every fixture and sequence rule
BAD_EXPRS = ("pseudo(3)", "union()", "mult(2,3)", "fs(foo())", "construct(nope)",
             "construct(exgamma,x)", "construct(sidon_levels,3)", "construct(thick_nonmaxstar,x)",
             "construct(equal_exponent,2)", "construct(fp_primes,3)", "construct(prophier,[2,3],1)",
             "construct(levelfix,[1],3)", "fs(sidon(x))", "fs(exgamma(3,4))", "fs(primeseq())",
             "fp(primeseq(odd,x))",
             # parsed, and rejected for their values when evaluated
             "construct(exgamma,0)", "fs(primeseq(prime))", "construct(sidon_levels,4,3)")
CONSTRUCT_ARGS = (("exgamma", "8"), ("fastgrowth",), ("sidon", "10"), ("sidon",),
                  ("thick_nonmaxstar",), ("thick_nonmaxstar", "5"), ("equal_exponent",),
                  ("fp_primes", "odd", "4"), ("fp_primes", "[1,3,5]"),
                  ("prophier", "[2,3,5]", "2", "1", "[7,11]", "1", "2"),
                  ("levelfix", "[1]", "[2]", "3"), ("sidon_levels", "6", "1"))
CONSTRUCT_HORIZON = "2000"
NMAXSTAR_EXPRS = ("up({6,10,15})", "quot(mult(10),2)", "inter(mult(6),compl(level(3)))",
                  "mult(2)", "union(up({3,5}),{4,9,49})",
                  "union(mult(6),mult(35),mult(143),mult(437))", "mult(39)")
NMAXSTAR_HORIZON = "5000"
LOOP_EXPRS = ("dilate(2,odd)", "shift(mult(3),2)", "fp(primeseq(odd))", "level(2)",
              "construct(sidon)")
LOOP_PROPS = ("a-ip", "m-ip", "a-ip*", "a-j", "m-j", "a-pcws", "nmax*")
LOOP_HORIZON = "5000"
IP_EXPRS = ("construct(sidon)", "ap(5,1000)", "dilate(1000,odd)", "dilate(2,odd)", "level(4)",
            "primes", "N")
IP_HORIZONS = ("100000", "1000000")
FINITE_EXPRS = ("level(0)", "dilate(3,{2,5})", "union(level(0),mult(2))",
                "construct(fp_primes,odd,4)")
RUN_EXPRS = ("union(mult(7),shift(mult(7),1))", "ap(3,7)", "compl(mult(3))",
             "{1,2,3,9,10,11,12}", "inter(mult(6),compl(level(3)))")
AUDIT_EXPRS = ("N", "compl(mult(4))", "{5}")
# sets of Omega-levels: positive levels, level 0 alone ({1}) and none (empty)
LEVEL_EXPRS = ("quot(level(2),2)", "quot(union(level(2),level(3)),2)",
               "inter(primes,union(level(1),level(3)))", "union(level(1),level(2),level(4))",
               "inter(union(level(2),level(3)),quot(level(4),3))", "quot(level(2),4)",
               "union(level(0),quot(level(3),8))", "inter(level(1),level(2))",
               "quot(level(1),4)", "construct(sidon_levels,6,1)", "construct(sidon_levels,4,0)")
# level 0 alone ({1}) and no level (empty)
ZERO_LEVEL_EXPRS = ("quot(level(2),4)", "inter(level(1),level(2))")
# each node kind of the eventually periodic fragment, whose membership above the
# bound is read through the predicate
PERIODIC_EXPRS = ("N", "mult(6)", "ap(4,6)", "union(mult(4),ap(3,10),{1,7})",
                  "inter(compl(mult(3)),ap(1,2))", "compl(up({4,6}))", "dilate(3,up({6,10,15}))",
                  "quot(up({6,10,15}),2)", "shift(up({6,10,15}),7)", "up({6,10,15})",
                  "up({6,50000})", "union(dilate(2,N),mult(3))")
PERIODIC_HORIZON = "5000"
THICK_SEEDS, THICK_ROUNDS, THICK_NS = (1, 2, 3), (0, 1, 2), ("2", "3", "5")
THICK_HORIZONS = (("--horizon", "60"), ("--horizon", "5000"), ())
INTER_EXPRS = ("inter(quot(mult(3),2),shift(mult(2),5))",
               "inter({3,6,9,10,11,12,13,15,18,60},quot(mult(3),2),fp(primeseq(odd)))",
               "inter(fp(primeseq(odd)),shift(quot(level(2),2),3))",
               "inter(down({60,84}),quot(fp(primeseq(odd)),3))",
               "inter(quot(fp(primeseq(odd)),3),shift(mult(5),7))",
               "inter(N,quot(mult(4),3),shift(odd,9))",
               "inter(compl(mult(3)),quot(mult(2),4),shift(quot(level(2),2),1))",
               "inter(shift(compl(mult(7)),4),quot(compl(mult(5)),3))",
               "inter(down({720,1001}),shift(N,30))",
               "inter(quot(fp(primeseq(odd)),2),odd)")
# complete below the horizon (to half of it, to a tenth, to 0), listed only to a
# bound, listed past the horizon, finite
MARKS_EXPRS = ("quot(mult(10),2)", "quot(mult(10),10)", "shift(quot(level(2),2),3)",
               "down(union({12},mult(1001)))", "fp(primeseq(odd))",
               "construct(thick_nonmaxstar,8)", "{1}")
MARKS_PROPS = ("a-pcws", "max", "max*", "nmax*", "nmax")
COMPL_EXPRS = ("compl(fp(primeseq(odd)))", "compl({5,9})", "compl(quot(mult(7),3))")
# runs that cross a bound below the horizon, or lie in a periodic window past it
CROSS_RUNS = (("shift(union(mult(3),ap(47,1)),2)", "50", "5"),
              ("quot(union(mult(5),ap(80,1)),2)", "60", "4"),
              ("ap(30,1)", "20", "3"), ("inter(ap(25,1),compl(mult(7)))", "20", "3"))
# sets without a predicate and finite sets with members past the horizon, made
# into others by one child
TABLE_EXPRS = ("dilate(3,fs(sidon()))", "quot(fp(primeseq(odd)),3)", "shift(fs(sidon()),4)",
               "dilate(7,{3,20,500})", "quot({6,60,600,6000},3)", "shift({5,90,91,92,200},3)",
               "compl(fs(sidon()))", "compl(quot(fp(primeseq(odd)),2))",
               "union(dilate(5,{2,40}),shift(fp(primeseq(odd)),1))",
               "inter(dilate(2,fs(sidon())),compl({4,6}))",
               # dilations, whose members past the table the predicate answers
               "down(dilate(3,N))", "down(quot(dilate(6,N),4))", "union(fs(sidon()),dilate(2,N))",
               "inter(dilate(2,N),dilate(3,N))", "union(dilate(1000,N),fs(sidon()))")
WIDE_DILATIONS = ("union(shift(dilate(1000000,N),1),mult(3))", "shift(dilate(1000000,N),1)",
                  "union(dilate(1000000,N),dilate(1000000,N))", "dilate(3,dilate(1000000,N))",
                  "inter(N,dilate(1000000,N))", "quot(shift(dilate(1000000,N),1),7)")
NMAX_EXPRS = ("fp(primeseq(odd))", "down({234,320})", "fs(fastgrowth())", "{1}", "{2,3,5,7}",
              "N", "level(2)", "dilate(2,odd)", "up({6,10,15})")


def c10_battery() -> list[list[str]]:
    """The argv lists of C10_BATTERY, read without importing the test module."""
    tree = ast.parse((ROOT / "tests" / "test_acceptance.py").read_text(encoding="utf-8"))
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                getattr(t, "id", None) == "C10_BATTERY" for t in node.targets):
            return [argv for argv, _ in ast.literal_eval(node.value)]
    raise SystemExit("C10_BATTERY not found in tests/test_acceptance.py")


def table_keys(tree: Path, module: str, table: str) -> list[str]:
    """The keys of a name table of the tree (a dict's keys, or the first item of
    each row of a tuple), read in a child process."""
    code = (f"from {module} import {table}; "
            f"print(' '.join(k if isinstance(k, str) else k[0] for k in {table}))")
    proc = subprocess.run([sys.executable, "-c", code], env=felab_env(tree, "1"),
                          capture_output=True, text=True, check=True)
    return proc.stdout.split()


def battery(new: Path, scratch: Path) -> list[list[str]]:
    sys.path.insert(0, str(ROOT / "perfbench"))
    import workloads as wl

    def batch_file(name: str, lines) -> str:
        path = scratch / name
        path.write_text("".join(line + "\n" for line in lines), encoding="utf-8")
        return str(path)

    cmds = [wl.fe_argv(q) for q in wl.round_inputs("fe_mix", 1, 0)]
    cmds.append(wl.diagram_argv(batch_file(
        "diagram_batch.txt", map(wl.text, wl.round_inputs("diagram_batch", 1, 0)))))
    cmds.append(wl.eval_argv(batch_file(
        "eval_batch.txt", map(wl.text, wl.round_inputs("eval_batch", 1, 0)))))
    cmds += c10_battery()
    exprs = batch_file("check_exprs.txt", CHECK_EXPRS)
    for prop in map(str.lower, table_keys(new, "felab.largeness", "CHECKERS")):
        for expr in CHECK_EXPRS:
            cmds.append(["check", prop, expr, "--horizon", CHECK_HORIZON, "--json"])
        cmds.append(["check", prop, "odd", "--horizon", CHECK_HORIZON])
        cmds.append(["check", prop, "--batch", exprs, "--horizon", CHECK_HORIZON])
    for expr in CLOSURE_EXPRS:
        cmds.append(["check", "a-thick", expr, "--horizon", CLOSURE_HORIZON, "--json"])
    for expr in PARSE_EXPRS:
        cmds += [["parse", expr], ["parse", expr, "--json"]]
    cmds += [["parse", expr, "--json"] for expr in SPACED_EXPRS]
    missing = set(table_keys(new, "felab.constructions", "FIXTURES")) - {a[0] for a in CONSTRUCT_ARGS}
    if missing:
        raise SystemExit(f"CONSTRUCT_ARGS has no parameters for {sorted(missing)}")
    for args in CONSTRUCT_ARGS:
        cmds += [["construct", *args, "--horizon", CONSTRUCT_HORIZON],
                 ["construct", *args, "--horizon", CONSTRUCT_HORIZON, "--json"]]
    cmds += [["construct", "fp_primes", *args] for args in (("backwards", "3"), ("odd", "0"),
                                                            ("even", "18"))]
    cmds += [["construct", "thick_nonmaxstar", *n_max, "--horizon", h, "--json"]
             for h in ("50", "5000") for n_max in ((), ("7",))]
    for expr in BAD_EXPRS:
        cmds += [["parse", expr], ["check", "max", expr, "--horizon", CHECK_HORIZON]]
    cmds += [
        ["check", "a-ip*", "inter(compl(mult(4)),ap(1,2))", "--horizon", CLOSURE_HORIZON,
         "--json"],
        ["diagram", "up({6,10,15})", "--horizon", CHECK_HORIZON],
        ["diagram", "odd", "--horizon", CHECK_HORIZON, "--star-a-max", "5", "--json"],
        ["check", "huge", "N"],
        ["check", "max", "N", "--batch", exprs],
        ["check", "max"],
        ["diagram", "--batch", exprs + ".missing"],
        ["check", "a-pcws", "N", "--t", "0"],
        ["chain", "5", "8", "--verify", "--kmax", "1"],
        # Omega above the sieve
        ["fe", "mult(5)", "level(3)", "--json"],
        ["fe", "primes", "union(level(2),level(4))", "--kmax", "20000", "--json"],
        ["check", "a-thick", "shift(quot(level(2),2),3)", "--n", "3", "--json"],
        ["diagram", "level(2)", "--horizon", "20000", "--json"],
        # the fe cross-check, and k_max below 1
        ["fe", "{6,8}", "union(level(2),level(5))", "--horizon", "5000", "--json"],
        ["fe", "{2,3}", "mult(6)", "--kmax", "1000", "--json"],
        ["fe", "{2,3}", "mult(6)", "--horizon", "50", "--kmax", "100", "--json"],
        ["fe", "primes", "compl(mult(2))", "--kmax", "-3", "--json"],
        ["me", "{2,3}", "mult(6)", "--m", "1", "--kmax", "0", "--json"],
        # the coprime-antichain search: costly, capped, and s other than 4
        *(["check", "nmax*", expr, "--horizon", NMAXSTAR_HORIZON, "--json"]
          for expr in NMAXSTAR_EXPRS),
        ["check", "nmax*", "up({6,10,21,385})", "--horizon", NMAXSTAR_HORIZON, "--s", "2",
         "--json"],
        ["check", "nmax*", "N", "--horizon", NMAXSTAR_HORIZON, "--s", "6", "--json"],
        ["check", "nmax*", "up({6,10,303,1001})", "--horizon", NMAXSTAR_HORIZON, "--s", "2",
         "--json"],
        # a capped search, a pool without an antichain, and a proof at the first prefix
        ["check", "nmax*", "mult(2)", "--horizon", "6000", "--json"],
        ["check", "nmax*", "up({6,10,15})", "--horizon", "20000", "--json"],
        ["check", "nmax*", "N", "--horizon", "131072", "--json"],
        # the greedy Sidon stream, and a pinned closure refused before its terms exist
        *(["check", "a-thick", "fs(sidon())", "--horizon", h, "--json"]
          for h in ("100000", "1000000")),
        ["construct", "sidon", "300"],
        ["check", "a-thick", "fs(sidon(600))"],
        # Omega over (100000, 200012] at the default horizon
        ["check", "a-thick", "shift(quot(level(2),2),6)", "--json"],
    ]
    for expr in LOOP_EXPRS:
        for prop in LOOP_PROPS:
            cmds.append(["check", prop, expr, "--horizon", LOOP_HORIZON, "--json"])
        for prop in LOOP_PROPS[:3]:
            cmds += [["check", prop, expr, "--horizon", LOOP_HORIZON, "--L", L, "--json"]
                     for L in ("2", "5")]
    cmds += [["check", prop, expr, "--horizon", h, "--json"]
             for prop in LOOP_PROPS[:3] for expr in IP_EXPRS for h in IP_HORIZONS]
    for flag in table_keys(new, "felab.cli", "_BOUND_FLAGS"):
        cmds += [["check", "max", "N", flag, "0"], ["diagram", "N", flag, "0"]]
    cmds.append(["diagram", "N", "--star-a-max", "0"])
    for cmd in (["check", "max", "N"], ["fe", "N", "N"], ["me", "N", "N", "--m", "1"],
                ["diagram", "N"], ["construct", "exgamma"], ["chain", "3", "4"],
                ["atlas", "3"], ["parse", "N"]):
        cmds.append([*cmd, "--horizon", "0"])
    cmds += [["check", "max", "ap(1,2)", "--json"],
             ["diagram", "odd", "--horizon", CHECK_HORIZON, "--json"],
             ["check", "max", "ap(1,2)", "--format", "json"],
             ["check", "a-thick", "N", "--n", "20", "--horizon", "10"]]
    cmds += [["diagram", expr, "--horizon", CHECK_HORIZON] for expr in FINITE_EXPRS]
    cmds += [["fe", "{2}", "dilate(3,{2,5})"], ["fe", "{1,3}", "union(level(0),level(1))"],
             ["me", "{2,3}", "dilate(2,{2,3,4,6})", "--m", "1"],
             ["check", "a-ip*", "compl(union(level(0),mult(2)))", "--horizon", "3000"],
             ["check", "nmax", "union(level(0),mult(2))", "--horizon", "3000"],
             ["check", "nmax", "union(level(0),construct(sidon))", "--horizon", "3000"],
             ["check", "a-thick", "union(level(0),construct(sidon))", "--horizon", "3000"],
             ["check", "a-thick", "level(0)", "--horizon", "30000000"],
             ["check", "a-thick", "construct(equal_exponent)", "--horizon", "3000000"],
             ["parse", "mult(" + "9" * 5000 + ")"]]
    cmds += [["check", "a-thick", expr, "--horizon", "5", "--n", n, "--json"]
             for expr in RUN_EXPRS for n in ("2", "3", "4")]
    cmds += [["chain", "100", "40"], ["chain", "30", "200"],
             ["chain", "100", "2000", "--verify", "--json"]]
    cmds += [["diagram", expr, "--horizon", "5000"] for expr in AUDIT_EXPRS]
    cmds += [["check", "m-ip", "fp(primeseq(odd,6))", "--L", "3", "--json"],
             ["check", "max*", "inter(quot(fs(sidon()),3),compl({7,14}))", "--horizon", "2000",
              "--a-max", "6", "--json"]]
    for expr in LEVEL_EXPRS:
        cmds += [["check", "a-thick", expr, "--json"],
                 ["diagram", expr, "--horizon", "5000", "--json"],
                 ["fe", "{2,3}", expr, "--horizon", "20000", "--kmax", "2000", "--json"]]
    past_mr = "quot(level(2),3317044064679887385962123)"
    cmds += [["check", "a-thick", "quot(union(level(2),level(3)),2)", "--horizon", "5000000"],
             ["check", "a-thick", past_mr], ["check", "a-thick", f"union(N,{past_mr})"],
             *(["check", prop, "{5}", "--horizon", "1000000", "--json"]
               for prop in ("a-pcws", "m-pcws"))]
    for expr in ZERO_LEVEL_EXPRS:
        cmds += [["fe", expr, "N", "--json"], ["fe", "{1}", expr, "--json"],
                 ["me", expr, "mult(2)", "--m", "1", "--json"],
                 ["me", "{1,2}", expr, "--m", "1", "--json"]]
    cmds += [["check", "a-thick", expr, "--horizon", "9000000"]
             for expr in ("fs(exgamma())", "fp(exgamma())")]
    cmds += [["construct", "thick_nonmaxstar", "--horizon", "400000", "--json"],
             ["construct", "thick_nonmaxstar", "3000"],
             ["check", "a-ip", "primes", "--L", "2", "--horizon", "2000",
              "--cache", str(scratch / "sieves")]]
    for cmd in (["atlas", "6"], ["fe", "{2,4}", "union(level(1),level(3))"],
                ["fe", "{2,3}", "compl(mult(2))"]):
        cmds += [cmd, [*cmd, "--json"]]
    cmds += [["me", "{1,2,3}", target, "--m", "2", "--horizon", "1000", "--kmax", "50", "--json"]
             for target in ("N", "compl(mult(2))", "primes")]
    cmds += [["check", "a-thick", "pseudo(3,{2},{2},{2})", "--json"],
             ["diagram", "pseudo(3,{2},{2},{2})", "--horizon", "5000", "--json"]]
    cmds += [["check", "a-thick", "fs([%s])" % ",".join(str(2 ** i) for i in range(count))]
             for count in (17, 18)]
    cmds += [["construct", "thick_nonmaxstar", "300", "--json"],
             ["construct", "thick_nonmaxstar", "300", "--emit", str(scratch / "thick.set")]]
    cmds += [["check", "max", "quot(ap(8000,1),2)", "--horizon", "5000", "--json"],
             ["diagram", "quot(ap(8000,1),2)", "--horizon", "5000", "--json"],
             ["check", "max", "pseudo(2,N,shift(ap(5100,1),200))", "--horizon", "5000", "--json"],
             ["fe", "union({1000000},quot(ap(8000,1),2))", "mult(7)", "--prefix", "1",
              "--horizon", "5000", "--json"],
             ["check", "max", "quot(mult(2),2)", "--horizon", "3000000", "--json"],
             ["fe", "quot(mult(2),2)", "mult(3)", "--horizon", "3000000", "--json"],
             ["check", "a-thick", "construct(equal_exponent)", "--horizon", "1", "--n", "1",
              "--json"]]
    h = PERIODIC_HORIZON
    for expr in PERIODIC_EXPRS:
        cmds += [["fe", "mult(5)", expr, "--horizon", h, "--kmax", "20000", "--json"],
                 ["me", "{2,3,5,7}", expr, "--m", "2", "--horizon", h, "--kmax", "2000", "--json"],
                 ["check", "max", expr, "--horizon", h, "--json"],
                 ["diagram", expr, "--horizon", h, "--json"]]
    cmds += [["check", "max", "union(dilate(2,N),mult(3))", "--horizon", "100", "--json"],
             ["fe", "{4,8}", "fp(primeseq(all))", "--horizon", "20000", "--json"]]
    thick = batch_file("thick_lines.txt", dict.fromkeys(
        wl.text(t) for seed in THICK_SEEDS for r in THICK_ROUNDS
        for t in wl.round_inputs("eval_batch", seed, r)))
    cmds += [["check", "a-thick", "--n", n, "--batch", thick, *h]
             for n in THICK_NS for h in THICK_HORIZONS]
    inter = batch_file("inter_exprs.txt", INTER_EXPRS)
    cmds += [["check", "a-thick", "--batch", inter],
             ["diagram", "--batch", inter, "--horizon", "2000"],
             ["fe", "{4,8}", "fp(primeseq(all))", "--horizon", "20", "--kmax", "2600000"],
             ["fe", "down(union({12},mult(1001)))", "{1,2,3,4,6}", "--horizon", "1000",
              "--prefix", "5"]]
    cmds += [["construct", "equal_exponent", "--horizon", h, "--json"]
             for h in ("1", "2", "36", "5000", "100000")]
    cmds += [["check", "nmax", expr, "--s", s, "--horizon", h, "--json"]
             for expr in NMAX_EXPRS for s in ("2", "4", "6") for h in ("60", "5000")]
    cmds += [["me", "quot(fp(primeseq(odd)),2)", "N", "--m", "1", "--horizon", "100"],
             ["fe", "{2,3}", "mult(6)", "--kmax", "20000001", "--json"],
             ["me", "{4,8}", "N", "--m", "1", "--kmax", "20000001", "--json"]]
    cmds += [["check", prop, expr, "--horizon", h, "--json"]
             for prop in MARKS_PROPS for expr in MARKS_EXPRS for h in ("60", "5000")]
    cmds += [["check", prop, expr, *h, "--json"] for prop in ("a-thick", "a-ip*")
             for expr in COMPL_EXPRS for h in THICK_HORIZONS]
    cmds += [["me", "{4}", "fp(primeseq(all))", "--m", "1", "--horizon", "200", "--kmax", "1000",
              "--json"],
             ["check", "a-thick", "compl(mult(100))", "--horizon", "20000000"],
             ["check", "a-thick", "level(0)", "--n", "1", "--horizon", "20000000"]]
    lines = batch_file("eval_lines.txt", map(wl.text, wl.round_inputs("eval_batch", 1, 0)))
    cmds += [["check", "a-thick", "--batch", lines, "--horizon", h, "--n", n, "--json"]
             for h in ("1", "2", "3", "97") for n in ("1", "2", "3") if int(n) <= int(h)]
    cmds += [["check", "a-thick", expr, "--horizon", h, "--n", n, "--json"]
             for expr, h, n in CROSS_RUNS]
    for expr in TABLE_EXPRS:
        cmds += [["check", "a-thick", expr, "--horizon", "60", "--n", "3", "--json"],
                 ["diagram", expr, "--horizon", "60", "--json"]]
    cmds += [["check", "a-thick", chain, "--horizon", "50"]
             for chain in ("pseudo(2,mult(4),mult(2))", "pseudo(3,N,fs(sidon()),mult(3))",
                           "pseudo(2,quot(fp(primeseq(odd)),3),N)")]
    cmds += [["construct", *args, "--horizon", "100000", "--json"]
             for args in (("exgamma",), ("sidon",), ("sidon_levels", "6", "0"))]
    cmds += [["check", "a-thick", "odd", "--horizon", "20000000"],
             ["check", "max", "union(dilate(2,N),mult(3))", "--horizon", "100", "--N", "97",
              "--json"],
             ["check", "max", "dilate(1000000,N)", "--horizon", "100000", "--json"],
             ["fe", "dilate(1000000,N)", "mult(3)", "--horizon", "100000", "--json"]]
    # dilations by 10^6 under a shift off their stride, a union, an intersection and
    # another dilation, whose members past the table are listed, not walked
    cmds += [[*cmd, expr, *args, "--horizon", "100000", "--json"] for expr in WIDE_DILATIONS
             for cmd, args in ((("check", "max"), ("--N", "97")), (("check", "max"), ("--N", "2")),
                               (("check", "a-thick"), ("--n", "3")), (("fe",), ("mult(3)",)))]
    return cmds


def felab_env(tree: Path, seed: str) -> dict:
    env = {k: v for k, v in os.environ.items() if k != "FELAB_CACHE"}
    env["PYTHONPATH"] = os.pathsep.join(
        [str(tree / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    env["PYTHONHASHSEED"] = seed
    return env


def run(tree: Path, seed: str, argv: list[str], cwd: Path) -> tuple[int, str, str]:
    proc = subprocess.run([sys.executable, "-m", "felab", *argv], cwd=cwd,
                          env=felab_env(tree, seed), capture_output=True, text=True,
                          timeout=TIMEOUT_S)
    return proc.returncode, proc.stdout, proc.stderr


def differences(left: tuple, right: tuple, names: tuple[str, str]) -> list[str]:
    out = []
    if left[0] != right[0]:
        out.append(f"  exit code: {left[0]} ({names[0]}) != {right[0]} ({names[1]})")
    for stream, a, b in (("stdout", left[1], right[1]), ("stderr", left[2], right[2])):
        if a != b:
            diff = difflib.unified_diff(a.splitlines(), b.splitlines(), names[0], names[1],
                                        lineterm="", n=1)
            out.append(f"  {stream}:")
            out += ["    " + line for line in list(diff)[:40]]
    return out


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    old, new = (Path(a).resolve() for a in argv)
    for tree in (old, new):
        if not (tree / "src" / "felab").is_dir():
            print(f"no src/felab under {tree}", file=sys.stderr)
            return 2
    with tempfile.TemporaryDirectory(prefix="same-output-") as tmp:
        scratch = Path(tmp)
        cmds = battery(new, scratch)
        found = 0
        for argv_ in cmds:
            results = {(tree, seed): run(tree, seed, argv_, scratch)
                       for tree in (old, new) for seed in SEEDS}
            # a tree that prints the same under both seeds needs one cross-tree diff
            lines = differences(results[old, SEEDS[0]], results[new, SEEDS[0]], ("OLD", "NEW"))
            for tree, label in ((old, "OLD"), (new, "NEW")):
                lines += differences(results[tree, SEEDS[0]], results[tree, SEEDS[1]],
                                     (f"{label} seed {SEEDS[0]}", f"{label} seed {SEEDS[1]}"))
            if lines:
                found += 1
                print("DIFFERENT: felab " + " ".join(argv_))
                print("\n".join(lines))
        print(f"{len(cmds)} commands, {found} with differences")
    return 1 if found else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
