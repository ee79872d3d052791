"""End-to-end command-line behavior: exit codes, formats, schemas, determinism."""

import contextlib
import hashlib
import importlib.util
import io
import json
import os
import resource
import subprocess
import sys
import time
from importlib import resources as importlib_resources
from pathlib import Path

import jsonschema
import pytest
from referencing import Registry, Resource

import conftest
from felab import arith, cli, constructions, embed
from felab.largeness import CHECKERS
from felab.setlang.evaluate import evaluate
from felab.setlang.parser import parse


def run(argv, capsys):
    code = cli.main(argv)
    out, err = capsys.readouterr()
    return code, out, err


def run_json(argv, capsys):
    code, out, err = run(argv + ["--json"], capsys)
    assert err == ""
    return code, json.loads(out)


# ---------------------------------------------------------------------------
# schema registry
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def registry():
    root = importlib_resources.files("felab") / "schemas"
    pairs = []
    for entry in root.iterdir():
        if entry.name.endswith(".json"):
            doc = json.loads(entry.read_text(encoding="utf-8"))
            pairs.append((doc["$id"], Resource.from_contents(doc)))
    return Registry().with_resources(pairs)


def validate(registry, name, payload):
    root = importlib_resources.files("felab") / "schemas" / f"{name}.schema.json"
    schema = json.loads(root.read_text(encoding="utf-8"))
    jsonschema.Draft202012Validator(schema, registry=registry).validate(payload)


# ---------------------------------------------------------------------------
# check
# ---------------------------------------------------------------------------

def test_check_refuted(registry, capsys):
    code, payload = run_json(["check", "max", "ap(1,2)"], capsys)
    assert code == 1
    assert payload["verdict"]["status"] == "refuted"
    assert payload["verdict"]["certificate"]["n0"] == 2
    assert payload["exit"] == 1
    validate(registry, "check", payload)


def test_check_proved(registry, capsys):
    code, payload = run_json(["check", "a-thick", "N", "--horizon", "5000"], capsys)
    assert code == 0 and payload["verdict"]["status"] == "proved"
    assert payload["horizon"] == 5000
    validate(registry, "check", payload)


def test_check_bounded(registry, capsys):
    code, payload = run_json(["check", "nmax", "N", "--horizon", "10000"], capsys)
    assert code == 2
    assert payload["verdict"]["status"] == "bounded"
    assert payload["verdict"]["direction"] == "for"
    validate(registry, "check", payload)


def test_check_table(capsys):
    code, out, err = run(["check", "max", "ap(1,2)"], capsys)
    assert code == 1 and err == ""
    assert "property: max" in out
    assert "status: refuted" in out
    assert "certificate:" in out


def test_check_property_is_case_insensitive(capsys):
    code, out, _ = run(["check", "MAX", "ap(1,2)"], capsys)
    assert code == 1


def test_check_unknown_property(capsys):
    code, out, err = run(["check", "huge", "N"], capsys)
    assert code == 3
    assert "unknown property" in err


def test_check_parse_error(capsys):
    code, out, err = run(["check", "max", "mult("], capsys)
    assert code == 3 and "error:" in err


def test_check_bad_horizon(capsys):
    code, out, err = run(["check", "max", "N", "--horizon", "0"], capsys)
    assert code == 3 and "horizon" in err


def test_check_expression_and_batch_conflict(tmp_path, capsys):
    batch = tmp_path / "exprs.txt"
    batch.write_text("N\n")
    code, out, err = run(["check", "max", "N", "--batch", str(batch)], capsys)
    assert code == 3 and "not both" in err


def test_check_batch_worst_exit(tmp_path, capsys):
    batch = tmp_path / "exprs.txt"
    batch.write_text("# three runs\nN\nap(1,2)\nmult(\n")
    code, out, err = run(["check", "max", "--batch", str(batch),
                          "--horizon", "5000"], capsys)
    assert code == 3
    lines = [json.loads(ln) for ln in out.splitlines()]
    assert len(lines) == 3
    assert lines[0]["exit"] == 0 and lines[1]["exit"] == 1
    assert "error" in lines[2] and lines[2]["exit"] == 3
    assert all("\n" not in json.dumps(l) for l in lines)


# each bound flag one below its least value, and --horizon 0 on every subcommand:
# PropertyParams and cli.main reject them before any expression is evaluated
_BELOW_LEAST = [[flag, "1" if flag == "--s" else "0"] for flag, _, _ in cli._BOUND_FLAGS]
_SUBCOMMANDS = (["check", "max", "N"], ["fe", "N", "N"], ["me", "N", "N", "--m", "1"],
                ["diagram", "N"], ["construct", "exgamma"], ["chain", "3", "4"], ["atlas", "3"],
                ["parse", "N"])


@pytest.mark.parametrize("argv", [
    ["check", "a-thick", "--batch", "{batch}", "--s", "1"],
    *(["check", "max", "N", *bad] for bad in _BELOW_LEAST),
    *(["diagram", "N", *bad] for bad in _BELOW_LEAST),
    ["diagram", "N", "--star-a-max", "0"],
    *([*cmd, "--horizon", "0"] for cmd in _SUBCOMMANDS),
])
def test_check_bound_flags_fail_before_any_expression(argv, tmp_path, capsys):
    batch = tmp_path / "exprs.txt"
    batch.write_text("N\nodd\n")
    code, out, err = run([a.format(batch=batch) for a in argv], capsys)
    assert code == 3 and out == ""
    assert len(err.splitlines()) == 1 and err.startswith("error: ")


@pytest.mark.parametrize("cmd", [["fe", "{4,8}", "fp(primeseq(all))"],
                                 ["me", "{4,8}", "N", "--m", "1"]])
def test_kmax_past_the_cap_fails_before_any_expression(cmd, capsys, monkeypatch):
    """fe and me scan every k up to --kmax, so a --kmax past the cap of --horizon
    ends in exit 4 and one error line before any set is evaluated."""
    monkeypatch.setattr(cli, "_eval_expr", lambda *a: pytest.fail("a set was evaluated"))
    code, out, err = run([*cmd, "--kmax", "20000001"], capsys)
    assert (code, out) == (4, "")
    assert err == f"error: kmax 20000001 exceeds the cap {arith.DEFAULT_SIEVE_CAP}\n"


# ---------------------------------------------------------------------------
# check agrees with the matching diagram row
# ---------------------------------------------------------------------------

AGREE_EXPRS = ("N", "odd", "up({6,10,15})")


@pytest.fixture(scope="module")
def diagram_rows():
    """The diagram rows of an expression at horizon 2000, one diagram run each."""
    cache = {}

    def rows(expr, *flags):
        key = (expr, *flags)
        if key not in cache:
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                assert cli.main(["diagram", expr, "--horizon", "2000", "--json", *flags]) == 0
            props = json.loads(buf.getvalue())["report"]["properties"]
            cache[key] = {row["name"]: row for row in props}
        return cache[key]

    return rows


def _same_as_row(code, out, err, row):
    if row["verdict"] == "inapplicable":
        assert code == 3 and out == "" and err == f"error: {row['reason']}\n"
        return
    assert err == ""
    payload = json.loads(out)
    expected = {"status": row["verdict"], "certificate": row["certificate"],
                "bounds": row["bounds"]}
    if "direction" in row:
        expected["direction"] = row["direction"]
    assert payload["verdict"] == expected
    assert code == payload["exit"]


def test_check_max_completes_the_set_as_diagram_does(capsys):
    """quot(ap(8000,1),2) lists no member up to 2500, where its list is complete;
    MAX finds 4000 for n = 1 whether or not A-IP grew the set before it."""
    expr = "quot(ap(8000,1),2)"
    code, out, err = run(["check", "max", expr, "--horizon", "5000", "--json"], capsys)
    assert cli.main(["diagram", expr, "--horizon", "5000", "--json"]) == 0
    row = next(r for r in json.loads(capsys.readouterr().out)["report"]["properties"]
               if r["name"] == "MAX")
    assert row["verdict"] == "proved" and row["certificate"]["witnesses"]["1"] == 4000
    _same_as_row(code, out, err, row)


def test_pseudo_reads_past_the_listed_members(capsys):
    """The second chain set lists nothing up to 4800; its least member above 1 is 4900."""
    chain = "pseudo(2,N,shift(ap(5100,1),200))"
    assert evaluate(parse(chain), 5000).elements() == [1, 4900]
    code, payload = run_json(["check", "max", chain, "--horizon", "5000"], capsys)
    assert code == 1
    assert payload["verdict"]["certificate"] == {"n0": 3, "reason": "finite set has no multiple"}


def test_fe_prefix_reads_past_the_listed_members(capsys):
    """The union lists 1000000 but is complete only to 2500; its least member is 4000."""
    code, payload = run_json(["fe", "union({1000000},quot(ap(8000,1),2))", "mult(7)",
                              "--prefix", "1", "--horizon", "5000"], capsys)
    assert code == 0 and payload["verdict"]["certificate"]["witness"]["family"] == [4000]


@pytest.mark.parametrize("name", CHECKERS)
def test_check_agrees_with_diagram_row(name, diagram_rows, capsys):
    for expr in AGREE_EXPRS:
        code, out, err = run(["check", name.lower(), expr, "--horizon", "2000", "--json"],
                             capsys)
        _same_as_row(code, out, err, diagram_rows(expr)[name])


def test_check_a_ip_star_inapplicable_like_diagram(diagram_rows, capsys):
    row = diagram_rows("fs(sidon())")["A-IP*"]
    assert row["verdict"] == "inapplicable"
    code, out, err = run(["check", "a-ip*", "fs(sidon())", "--horizon", "2000", "--json"],
                         capsys)
    _same_as_row(code, out, err, row)


@pytest.mark.parametrize("expr", AGREE_EXPRS)
def test_check_a_max_caps_max_star_like_diagram(expr, diagram_rows, capsys):
    code, out, err = run(["check", "max*", expr, "--horizon", "2000", "--json",
                          "--a-max", "5"], capsys)
    row = diagram_rows(expr, "--star-a-max", "5")["MAX*"]
    assert row["bounds"]["a_max"] == 5
    _same_as_row(code, out, err, row)


# ---------------------------------------------------------------------------
# fe / me
# ---------------------------------------------------------------------------

def test_fe_proved(registry, capsys):
    code, payload = run_json(["fe", "{2,3}", "mult(6)"], capsys)
    assert code == 0
    assert payload["verdict"]["status"] == "proved"
    assert payload["verdict"]["certificate"]["witness"]["k"] == 6
    assert payload["oracle_agreement"] is True
    validate(registry, "fe", payload)


def test_fe_table_mentions_oracle(capsys):
    code, out, _ = run(["fe", "{2,3}", "mult(6)"], capsys)
    assert code == 0
    assert "oracle agreement: yes" in out


def test_fe_level_refuted(registry, capsys):
    code, payload = run_json(
        ["fe", "{6,8}", "union(level(2),level(5))", "--horizon", "5000"], capsys)
    assert code == 1
    assert payload["verdict"]["certificate"]["refutation"]["kind"] == "level-certificate"
    assert payload["refuters"]["level"] is not None
    validate(registry, "fe", payload)


@pytest.mark.parametrize("a, b, kmax, code, kind", [
    ("{1}", "{500}", 10, 2, "exhausted"),
    ("{1,2}", "{3,4}", 3, 2, "exhausted"),
    ("{1,2}", "{3,4}", 4, 1, "finite-target"),
    ("{2}", "{3}", 1, 1, "residue-certificate"),
    ("{2}", "{3}", 1_000_000, 1, "residue-certificate"),
])
def test_fe_finite_target_refutations_respect_kmax(a, b, kmax, code, kind, registry, capsys):
    got, payload = run_json(["fe", a, b, "--kmax", str(kmax)], capsys)
    assert got == code
    assert payload["verdict"]["certificate"]["refutation"]["kind"] == kind
    assert payload["verdict"]["bounds"]["k_max"] == kmax
    validate(registry, "fe", payload)


def test_fe_finite_target_witness_within_kmax(capsys):
    code, payload = run_json(["fe", "{1}", "{500}", "--kmax", "500"], capsys)
    assert code == 0
    assert payload["verdict"]["certificate"]["witness"]["k"] == 500


def test_fe_precision_exit(capsys):
    code, out, err = run(["fe", "{1,704}", "fs(exgamma())",
                          "--kmax", "10", "--horizon", "2000"], capsys)
    assert code == 5 and "error:" in err


@pytest.mark.parametrize("argv", [
    ["fe", "{4}"], ["me", "{4,8}", "--m", "2"], ["me", "{4}", "--m", "1"],
], ids=["fe", "me-pairs", "me-elements"])
def test_unknown_membership_at_a_needed_point_exits_5(argv, capsys):
    """fp(primeseq(all)) at horizon 200 leaves 4k unknown for 950 of the 1000 k: no
    route calls the scan bounded, single elements (me --m 1) included."""
    code, out, err = run([*argv[:2], "fp(primeseq(all))", *argv[2:],
                          "--horizon", "200", "--kmax", "1000", "--json"], capsys)
    assert code == 5 and out == ""
    assert err.startswith("error: membership unknown for 950 candidate dilations")
    assert err.count("\n") == 1


@pytest.mark.parametrize("argv, witness_kmax, level", [
    # a refuter decides, so only the cross-check scans
    (["fe", "{6,8}", "union(level(2),level(5))", "--horizon", "5000"], [5000], "certificate"),
    # the decider's scan runs to the probe's k_max and serves as the witness route
    (["fe", "{2,3}", "mult(6)", "--kmax", "1000"], [1000], "inapplicable"),
    # the probe stops at the horizon, below --kmax
    (["fe", "{2,3}", "mult(6)", "--horizon", "50", "--kmax", "100"], [100, 50], "inapplicable"),
], ids=["refuter", "witness-route", "probe-below-kmax"])
def test_fe_asks_each_question_once(argv, witness_kmax, level, monkeypatch, capsys):
    calls = []
    for name in ("prefix_of", "fe_refute_level", "fe_refute_residue", "fe_witness"):
        def counted(*args, _fn=getattr(embed, name), _name=name):
            calls.append((_name, args[2]) if _name == "fe_witness" else _name)
            return _fn(*args)
        monkeypatch.setattr(embed, name, counted)
    code, payload = run_json(argv, capsys)
    for name in ("prefix_of", "fe_refute_level", "fe_refute_residue"):
        assert calls.count(name) == 1, (name, calls)
    assert [c[1] for c in calls if isinstance(c, tuple)] == witness_kmax
    assert payload["oracle_agreement"] is True
    refuters = payload["refuters"]
    assert refuters["residue"] is None
    if level == "certificate":
        assert code == 1 and refuters["level"]["kind"] == "level-certificate"
        assert payload["verdict"]["certificate"]["refutation"] == refuters["level"]
    else:
        assert code == 0 and set(refuters["level"]) == {"inapplicable"}
        assert payload["verdict"]["certificate"]["witness"]["k"] == 6


@pytest.mark.parametrize("argv", [
    ["fe", "primes", "compl(mult(2))", "--kmax", "-3"],
    ["me", "{2,3}", "mult(6)", "--m", "1", "--kmax", "0"],
], ids=["fe", "me"])
def test_kmax_below_one_exits_3(argv, capsys):
    code, out, err = run(argv, capsys)
    assert code == 3 and out == ""
    assert "k_max must be >= 1" in err


def test_me_proved(registry, capsys):
    code, payload = run_json(["me", "{2,3}", "mult(6)", "--m", "2"], capsys)
    assert code == 0
    assert payload["m"] == 2
    assert payload["verdict"]["certificate"]["worst_witness"]["k"] == 6
    validate(registry, "me", payload)


def test_me_requires_m(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["me", "N", "N"])
    assert exc.value.code == 3
    capsys.readouterr()


@pytest.mark.parametrize("argv, expected", [
    (["check", "max", "N", "--horizon", "x"], 3), ([], 3), (["--help"], 0),
    (["chain", "--help"], 0)])
def test_usage_errors_exit_3_and_help_exits_0(argv, expected, capsys):
    """2 is the bounded verdict, so argparse's own usage errors must not use it."""
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    out, err = capsys.readouterr()
    assert exc.value.code == expected
    assert ("error:" in err) == (expected == 3) and ("usage:" in out + err)


# ---------------------------------------------------------------------------
# diagram
# ---------------------------------------------------------------------------

def test_diagram_json(registry, capsys):
    code, payload = run_json(["diagram", "N", "--horizon", "10000"], capsys)
    assert code == 0
    rows = payload["report"]["properties"]
    assert [r["name"] for r in rows][:4] == ["A-thick", "M-thick", "A-pcws", "M-pcws"]
    assert len(rows) == 17
    audits = payload["report"]["audits"]
    assert audits and all(a["status"] == "pass" for a in audits)
    validate(registry, "diagram", payload)


def test_diagram_table(capsys):
    code, out, _ = run(["diagram", "ap(1,2)", "--horizon", "10000"], capsys)
    assert code == 0
    assert "A-thick" in out and "refuted" in out
    assert "audit [" in out


def test_diagram_override_flag(registry, capsys):
    code, payload = run_json(
        ["diagram", "mult(2)", "--horizon", "5000", "--n", "3"], capsys)
    assert code == 0
    assert payload["report"]["params"]["run_length"] == 3
    validate(registry, "diagram", payload)


# ---------------------------------------------------------------------------
# construct
# ---------------------------------------------------------------------------

def test_construct_table(capsys):
    code, out, _ = run(["construct", "exgamma", "6"], capsys)
    assert code == 0
    assert out.splitlines()[0] == "1 2 6 12 25 48"


def test_construct_thick_blocks(registry, capsys):
    code, payload = run_json(["construct", "thick_nonmaxstar", "4"], capsys)
    assert code == 0
    assert payload["blocks"] == [[2], [4, 5], [7, 8, 9], [13, 14, 15, 16]]
    assert payload["avoided"] == [3, 6, 12, 20]
    validate(registry, "construct", payload)


def test_construct_builds_the_thick_fixture_once(monkeypatch, capsys):
    calls = []
    build = constructions.gen_thick_nonmaxstar

    def counted(n_max):
        calls.append(n_max)
        return build(n_max)

    monkeypatch.setattr(constructions, "gen_thick_nonmaxstar", counted)
    code, payload = run_json(["construct", "thick_nonmaxstar", "5"], capsys)
    assert code == 0 and calls == [5]
    assert payload["members"] == [x for block in payload["blocks"] for x in block]
    assert payload["count"] == 15


def test_construct_unknown_name(capsys):
    code, out, err = run(["construct", "mystery"], capsys)
    assert code == 3 and "unknown fixture" in err


def test_construct_emit_roundtrip(tmp_path, registry, capsys):
    dest = tmp_path / "fp.set"
    code, payload = run_json(
        ["construct", "fp_primes", "odd", "6", "--emit", str(dest)], capsys)
    assert code == 0 and payload["emitted"] == str(dest)
    validate(registry, "construct", payload)
    text = dest.read_text()
    assert text.startswith("#")
    code2, parsed = run_json(["parse", "@" + str(dest)], capsys)
    assert code2 == 0
    assert parsed["ast"]["kind"] == "Explicit"
    assert parsed["ast"]["elems"] == payload["members"]
    assert len(payload["members"]) == 63


@pytest.mark.parametrize("argv, content", [
    (["parse", "@{path}"], b"2\n\xb2\n"),
    (["check", "max", "--batch", "{path}"], b"N\n\xff\n"),
    (["parse", "@{path}"], "2\n\u00b2\n".encode()),
    (["parse", "@{path}"], b"1" * 5000 + b"\n"),
    (["construct", "exgamma", "3", "--emit", "{path}"], None),
], ids=["set-file-not-utf8", "batch-file-not-utf8", "set-file-superscript-digit",
        "set-file-5000-digits", "emit-into-missing-dir"])
def test_unreadable_and_unwritable_paths_exit_3(argv, content, tmp_path, capsys):
    path = tmp_path / "input"
    if content is None:
        path = tmp_path / "missing" / "x.txt"
    else:
        path.write_bytes(content)
    code, out, err = run([a.format(path=path) for a in argv], capsys)
    assert code == 3 and out == ""
    assert err.startswith("error: ") and len(err.splitlines()) == 1 and str(path) in err


@pytest.mark.parametrize("argv, count", [
    (["construct", "thick_nonmaxstar", "10000"], 50_005_000),
    (["check", "a-thick", "construct(thick_nonmaxstar)", "--horizon", "20000000"], 10_001_628),
], ids=["n_max-10000", "auto-n_max-at-the-horizon-cap"])
def test_thick_fixture_over_the_cap_exits_4_before_it_is_built(argv, count, capsys):
    """Block n holds n members, so n_max(n_max + 1)/2 over the element cap is refused
    at once, not after the members are listed."""
    start = time.perf_counter()
    code, out, err = run(argv, capsys)
    assert time.perf_counter() - start < 1
    assert code == 4 and out == ""
    assert err == f"error: evaluation produced {count} elements, over the cap 2000000; " \
                  "lower the horizon\n"


def test_set_file_rejects_unsorted(tmp_path, capsys):
    bad = tmp_path / "bad.set"
    bad.write_text("5\n3\n")
    code, out, err = run(["parse", "@" + str(bad)], capsys)
    assert code == 3 and "strictly increasing" in err


def test_set_file_rejects_nonnumeric(tmp_path, capsys):
    bad = tmp_path / "bad.set"
    bad.write_text("2\nthree\n")
    code, out, err = run(["parse", "@" + str(bad)], capsys)
    assert code == 3 and "decimal natural" in err


def test_set_file_requires_values(tmp_path, capsys):
    bad = tmp_path / "empty.set"
    bad.write_text("# nothing here\n")
    code, out, err = run(["parse", "@" + str(bad)], capsys)
    assert code == 3 and "no values" in err


# ---------------------------------------------------------------------------
# chain / atlas / parse
# ---------------------------------------------------------------------------

# sha256 of `chain 5 8 --verify --json` stdout as printed while the re-check
# still took its k_max from a --kmax option; it now covers each whole level
CHAIN_5_8_SHA256 = "10072292d56044127f2686314cd7b931d3d46cb83b50156db55cd18b019570d9"


def test_chain_verify(registry, capsys):
    code, out, err = run(["chain", "5", "8", "--verify"], capsys)
    assert code == 0 and err == ""
    assert "verified 5/5 refutations" in out
    code, out, err = run(["chain", "5", "8", "--verify", "--json"], capsys)
    assert code == 0 and err == ""
    assert hashlib.sha256(out.encode()).hexdigest() == CHAIN_5_8_SHA256
    payload = json.loads(out)
    assert payload["verified_refutations"] == 5
    assert payload["result"]["levels"][0] == [1, 2, 3, 4, 5, 6, 7, 8]
    validate(registry, "chain", payload)
    with pytest.raises(SystemExit) as exc:
        cli.main(["chain", "5", "8", "--verify", "--kmax", "1"])
    assert exc.value.code == 3


@pytest.mark.parametrize("level, family", [((2, 3, 4, 5), (1, 2)), ((2, 3, 5, 7), (1, 3))],
                         ids=["level-holds-2*(1,2)", "family-is-not-the-pair"])
def test_chain_verify_rechecks_from_the_definition(level, family, monkeypatch, capsys):
    """--verify does not trust the logged refutation: a first level that holds
    2*(1, 2) = {2, 4}, or a refutation of another pair, fails the re-check."""
    chain = embed.decreasing_chain(2, 4)
    first = embed.FeRefutation("finite-target", family, {"bound": max(level)})
    bad = embed.ChainResult((chain.levels[0], level, *chain.levels[2:]), chain.blocked,
                            (first, *chain.refutations[1:]), chain.extended)
    monkeypatch.setattr(embed, "decreasing_chain", lambda depth, per_level: bad)
    code, out, err = run(["chain", "2", "4", "--verify"], capsys)
    assert (code, out) == (1, "")
    assert err == f"re-check failed for pair {list(family)} at level 1\n"


def test_atlas_exit_and_duality(registry, capsys):
    code, out, _ = run(["atlas", "12"], capsys)
    assert code == 0
    assert "duality check: PASS" in out
    code, payload = run_json(["atlas", "12"], capsys)
    assert payload["report"]["violations"] == []
    assert payload["report"]["subsets_checked"] == 4096
    validate(registry, "atlas", payload)


def test_atlas_resource_cap(capsys):
    code, out, err = run(["atlas", "21"], capsys)
    assert code == 4 and "error:" in err


@pytest.mark.parametrize("argv", [
    ["check", "a-ip", "N", "--L", "100000000000000"],
    ["diagram", "N", "--L", "100000000000000"],
    ["check", "a-j", "N", "--h-max", "100000000000000"],
    ["check", "a-j", "{5}", "--a-max", "100000000000000"],
    ["chain", "100000000", "4"],
    ["chain", "3", "100000000"],
    *(["check", "a-thick", e, "--horizon", "100000000000000"]
      for e in ("odd", "mult(3)", "up({7})", "fs(exgamma())", "up({1000000000})",
                "fp(exgamma())")),
    ["check", "a-thick", "compl({5})", "--horizon", "100000000000"],
    ["check", "a-thick", "N", "--horizon", "100000000000000000000"],
    ["check", "a-pcws", "{5}", "--horizon", "100000000000000"],
    # the divisor lies past the deterministic primality range
    ["check", "a-thick", "quot(level(2),3317044064679887385962123)"],
    # at the horizon cap, past the element cap
    *(["check", "a-thick", e, "--horizon", "20000000"]
      for e in ("odd", "mult(3)", "up({7})", "fs(exgamma())", "compl({5})")),
], ids=["a-ip-L", "diagram-L", "a-j-h-max", "a-j-a-max", "chain-depth", "chain-width",
        "odd", "mult", "up", "fs", "up-sparse", "fp", "compl", "N", "a-pcws", "quot-past-mr",
        "odd-at-cap", "mult-at-cap", "up-at-cap", "fs-at-cap", "compl-at-cap"])
def test_huge_search_bounds_exit_4(argv, capsys):
    """L, h_max, the J step count, the chain depth and width, the horizon and the members
    of an evaluated set meet their caps before anything of that size is built."""
    code, out, err = run(argv, capsys)
    assert code == 4 and out == ""
    assert err.startswith("error: ") and len(err.splitlines()) == 1


def test_union_decided_without_a_quotient_past_the_primality_range(capsys):
    """Omega of that divisor cannot be counted (``quot-past-mr`` above exits 4), but N
    decides every point of the union, so the quotient is never asked."""
    argv = ["check", "a-thick", "union(N,quot(level(2),3317044064679887385962123))"]
    code, out, err = run(argv, capsys)
    assert code == 0 and err == "" and "status: proved" in out


def test_parse_ast(registry, capsys):
    code, payload = run_json(["parse", "union(mult(2),level(3))"], capsys)
    assert code == 0
    assert payload["text"] == "union(mult(2),level(3))"
    ast = payload["ast"]
    assert ast["kind"] == "Union"
    assert [a["kind"] for a in ast["args"]] == ["Mult", "Level"]
    validate(registry, "parse", payload)


def test_parse_table_tree(capsys):
    code, out, _ = run(["parse", "dilate(3,up({6}))"], capsys)
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "text: dilate(3,up({6}))"
    assert lines[1].startswith("Dilate")
    assert lines[2].strip().startswith("Up")


@pytest.mark.parametrize("depth", [100, 101, 2000])
def test_parse_nesting_cap(depth, capsys):
    text = "compl(" * depth + "N" + ")" * depth
    code, out, err = run(["parse", text], capsys)
    if depth <= 100:
        assert code == 0 and err == "" and out.startswith("text: compl(")
    else:
        assert code == 3 and out == ""
        assert err.splitlines() == [
            "error: line 1, col 601: expression nested deeper than 100 constructor calls"]


# ---------------------------------------------------------------------------
# determinism, and no sieve on disk
# ---------------------------------------------------------------------------

def test_identical_runs_are_byte_identical(capsys):
    argv = ["check", "m-ip", "fp(primeseq(odd,6))", "--L", "3", "--json"]
    code1, out1, _ = run(argv, capsys)
    code2, out2, _ = run(argv, capsys)
    assert (code1, out1) == (code2, out2)
    assert code1 == 0


@pytest.mark.parametrize("argv, expected", [
    (["parse", "inter(mult(6),compl(level(3)))", "--json"], 0),
    (["parse", "mult("], 3),
])
def test_module_entry_point_matches_main(argv, expected, tmp_path, capsys):
    code, out, err = run(argv, capsys)
    proc = subprocess.run([sys.executable, "-m", "felab", *argv], capture_output=True,
                          env=conftest.module_env(), cwd=tmp_path, timeout=60)
    assert (proc.returncode, proc.stdout, proc.stderr) == (code, out.encode(), err.encode())
    assert code == expected
    assert (err == "") if code == 0 else err.startswith("error: ")


def test_cli_import_stays_light_and_loads_every_layer():
    """A fresh `import felab.cli` leaves out the modules that dominated its
    start-up, and still loads every layer module the benchmark's tracer wraps."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracer", path)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    # -S: no site hooks, so only what felab itself imports is counted
    proc = subprocess.run(
        [sys.executable, "-S", "-c", "import sys, felab.cli; print(*sorted(sys.modules))"],
        capture_output=True, text=True, env=conftest.module_env(), timeout=60, check=True)
    loaded = set(proc.stdout.split())
    assert not loaded & {"dataclasses", "inspect", "hashlib"}
    assert set(tracer.LAYER_MODULES) <= loaded


def test_src_defines_no_unused_names():
    """tools/unused_names.py exits 0: every name src defines is used in src or kept
    for a stated reason, so a helper left behind by a change fails the suite."""
    tool = Path(__file__).resolve().parents[1] / "tools" / "unused_names.py"
    proc = subprocess.run([sys.executable, str(tool)], capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stdout + proc.stderr


def test_a_stale_keep_entry_fails_the_unused_names_tool(capsys, monkeypatch):
    """A KEEP entry for a name src reads is listed as stale and makes the tool exit 1,
    so the table cannot go on excusing a name that no longer needs it."""
    tool = Path(__file__).resolve().parents[1] / "tools" / "unused_names.py"
    spec = importlib.util.spec_from_file_location("unused_names", tool)
    unused_names = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(unused_names)
    monkeypatch.setitem(unused_names.KEEP, "evaluate", "read by src")
    assert unused_names.main() == 1
    assert "KEEP.evaluate: stale, no unused definition of it in src\n" in capsys.readouterr().out


def test_a_long_undecided_scan_needs_little_memory(tmp_path):
    """fe keeps four values of its undecided dilations, not one entry per k: under
    an address-space limit that a record of all 995000 of them passes, the scan
    still ends with exit 5 and one error line, not a MemoryError traceback."""
    limit = 128 << 20

    def cap_memory():  # runs in the child only
        resource.setrlimit(resource.RLIMIT_AS, (limit, limit))

    proc = subprocess.run(
        [sys.executable, "-m", "felab", "fe", "{4,8}", "fp(primeseq(all))",
         "--horizon", "20000", "--json"],
        capture_output=True, text=True, env=conftest.module_env(), cwd=tmp_path, timeout=120,
        preexec_fn=cap_memory)
    assert (proc.returncode, proc.stdout) == (5, "")
    assert proc.stderr == ("error: membership unknown for 995000 candidate dilations "
                           "(first k=5001, last k=1000000) (rerun with horizon >= 8000000)\n")


@pytest.mark.parametrize("unbuffered", [False, True])
def test_closed_stdout_exits_141(unbuffered, tmp_path):
    """A reader that closed stdout gets the SIGPIPE status and no traceback."""
    env = conftest.module_env()
    env.pop("PYTHONUNBUFFERED", None)
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    r, w = os.pipe()
    os.close(r)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "felab", "parse", "union(mult(2),level(3))", "--json"],
            stdout=w, stderr=subprocess.PIPE, env=env, cwd=tmp_path, timeout=60)
    finally:
        os.close(w)
    assert proc.returncode == 141
    assert b"Traceback" not in proc.stderr and b"BrokenPipeError" not in proc.stderr


def test_nmaxstar_antichain_search_capped(capsys):
    """A search past the antichain step cap ends bounded, not in an unbounded run."""
    start = time.perf_counter()
    code, payload = run_json(["check", "nmax*", "union(up({3,5}),{4,9,49})",
                              "--horizon", "5000"], capsys)
    assert time.perf_counter() - start < 10
    assert code == 2
    assert payload["verdict"]["certificate"]["antichain_search_capped"] is True


def test_nmaxstar_proof_is_valid_though_not_least_overall(capsys):
    """The proved antichain is least among the generators collected so far only:
    [6, 385] is smaller but 385 lies past the first 64 generators. What it proves
    still holds: pairwise coprime, and every dilation up to H inside A."""
    expr, H = "up({6,10,21,385})", 5000
    code, payload = run_json(["check", "nmax*", expr, "--horizon", str(H), "--s", "2"], capsys)
    assert code == 0
    C = payload["verdict"]["certificate"]["antichain"]
    assert C == [10, 21] and arith.is_strong_antichain(C)
    A = evaluate(parse(expr), H)
    assert all(A.contains(v) is True for c in C for v in range(c, H + 1, c))


def test_json_is_the_only_format_switch(capsys):
    """--format is gone: it is an unknown option, refused like every usage error."""
    with pytest.raises(SystemExit) as exc:
        cli.main(["check", "max", "ap(1,2)", "--format", "json"])
    out, err = capsys.readouterr()
    assert exc.value.code == 3 and out == ""
    assert err.splitlines() == [cli.build_parser().format_usage().strip(),
                                "felab: error: unrecognized arguments: --format json"]


def test_sieve_is_never_read_or_written_on_disk(tmp_path, monkeypatch, capsys):
    """The sieve is built in memory only: --cache is an unknown option, which
    exits 3 like every usage error, and FELAB_CACHE in the environment is ignored."""
    cache = tmp_path / "sieves"
    argv = ["check", "a-ip", "primes", "--L", "2", "--horizon", "2000"]
    with pytest.raises(SystemExit) as exc:
        cli.main(argv + ["--cache", str(cache)])
    out, err = capsys.readouterr()
    assert exc.value.code == 3 and out == "" and "unrecognized arguments: --cache" in err
    monkeypatch.setenv("FELAB_CACHE", str(cache))
    monkeypatch.setattr(arith, "_sieve", None)  # so the run builds a sieve
    code, _, err = run(argv, capsys)
    assert code == 0 and err == ""
    assert not cache.exists()
