"""Verdict and certificate checks for one query's output.

Each check takes the query's input and the text felab printed, and returns a
``Checked``: whether the output is right, how many verdicts it held and how
many of them were decided (proved or refuted). ``fe``/``me`` outputs are
compared with the expected verdict from ``reference.py``, and every
certificate is re-checked against the reference. For ``diagram`` rows and
``check`` lines, where no cheap expected verdict exists, the checks cover the
JSON shape, the exit code and the audits, plus the run certificates that the
reference can re-check.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import reference as ref
import workloads as wl

EXIT = {"proved": 0, "refuted": 1, "bounded": 2}
PROPERTIES = ("A-thick", "M-thick", "A-pcws", "M-pcws", "A-IP", "M-IP", "A-IP*",
              "A-J", "M-J", "MAX", "NMAX", "MAX*", "NMAX*")
OUT_OF_SCOPE = ("A-central", "A-central*", "M-central", "M-central*")
DIAGRAM_RUN = 10  # felab's default run length for the diagram's A-thick and M-thick rows
FE_PREFIX = 16  # felab fe's default --prefix; the queries do not pass one


@dataclass(frozen=True)
class Checked:
    ok: bool
    verdicts: int = 0
    decided: int = 0
    why: str = ""


def _fail(why: str) -> Checked:
    return Checked(False, why=why)


def _all_members(node, values) -> bool | None:
    """True/False by the reference; None when it does not model the node."""
    try:
        return all(ref.member(node, v) for v in values)
    except ref.Unsupported:
        return None


# ---------------------------------------------------------------------------
# fe / me
# ---------------------------------------------------------------------------

class FeReference:
    """Expected verdicts of fe/me queries, each computed once per run."""

    def __init__(self):
        self._cache: dict[str, dict] = {}

    def expect(self, q: dict) -> dict:
        key = json.dumps(wl.fe_argv(q))
        if key not in self._cache:
            if q["cmd"] == "fe":
                self._cache[key] = ref.expect_fe(q["A"], q["B"], wl.FE_HORIZON, FE_PREFIX, wl.FE_KMAX)
            else:
                self._cache[key] = ref.expect_me(q["A"], q["B"], q["m"], wl.FE_HORIZON, wl.FE_KMAX)
        return self._cache[key]

    def check(self, q: dict, stdout: str, returncode: int | None) -> Checked:
        try:
            payload = json.loads(stdout)
            verdict = payload["verdict"]
            status = verdict["status"]
        except (ValueError, KeyError, TypeError):
            return _fail(f"malformed output (exit {returncode})")
        if payload.get("command") != q["cmd"] or status not in EXIT:
            return _fail("wrong command or status")
        if payload.get("exit") != EXIT[status] or returncode != EXIT[status]:
            return _fail(f"exit {returncode} for {status}")
        want = self.expect(q)
        if status != want["status"]:
            return _fail(f"{status}, reference says {want['status']}")
        cert = verdict.get("certificate", {})
        if q["cmd"] == "fe":
            if payload.get("oracle_agreement") is not True:
                return _fail("witness and oracle routes disagree")
            why = _fe_certificate(q, status, cert, want)
        else:
            why = _me_certificate(q, status, cert, want)
        if why:
            return _fail(why)
        return Checked(True, 1, int(status != "bounded"))


def _witness(q, w, k: int, fam) -> str:
    if w.get("k") != k or tuple(w.get("family", ())) != tuple(fam):
        return f"witness {w.get('k')} on {w.get('family')}, reference finds k={k} on {list(fam)}"
    images = [k * f for f in fam]
    if w.get("images") != images or not _all_members(q["B"], images):
        return "witness images are not all in B"
    return ""


def _refutation(q, r: dict) -> str:
    kind, detail, fam = r.get("kind"), r.get("detail", {}), r.get("family", [])
    B = q["B"]
    if kind == "level-certificate":
        ci, cj = detail["pair"]
        cover = ref.level_cover(B)
        if cover is None or not (ref.member(q["A"], ci) and ref.member(q["A"], cj)):
            return "level certificate on a target or pair it does not apply to"
        delta = ref.omega(cj) - ref.omega(ci)
        if delta != detail["delta"] or delta in {a - b for a in cover for b in cover}:
            return "level certificate does not re-check"
        return ""
    if kind == "residue-certificate":
        m = detail["modulus"]
        if m not in fam or not ref.misses_multiples(B, m):
            return f"residue certificate: B meets the multiples of {m}"
        return ""
    if kind == "finite-target":
        if not ref.is_finite(B) or ref.least_dilation(tuple(fam), B, wl.FE_KMAX) is not None:
            return "finite-target refutation, but a dilation exists"
        return ""
    return f"unexpected refutation kind {kind!r}"


def _fe_certificate(q, status: str, cert: dict, want: dict) -> str:
    if status == "proved":
        return _witness(q, cert.get("witness", {}), want["k"], want["family"])
    if status == "refuted":
        return _refutation(q, cert.get("refutation", {}))
    r = cert.get("refutation", {})
    if r.get("kind") != "exhausted" or r.get("detail", {}).get("k_max") != wl.FE_KMAX:
        return "bounded verdict without an exhausted k range"
    return ""


def _me_certificate(q, status: str, cert: dict, want: dict) -> str:
    if status == "proved":
        if cert.get("subsets") != want["subsets"]:
            return f"{cert.get('subsets')} subsets, reference counts {want['subsets']}"
        return _witness(q, cert.get("worst_witness", {}), want["k"], want["family"])
    if status == "refuted":
        return _refutation(q, cert.get("refutation", {}))
    return ""


# ---------------------------------------------------------------------------
# diagram / check a-thick
# ---------------------------------------------------------------------------

def _run_certificate(node, run, n: int) -> str:
    lo, hi = run
    if hi - lo + 1 != n:
        return f"run {run} is not {n} long"
    if _all_members(node, range(lo, hi + 1)) is False:
        return f"run {run} leaves the set"
    return ""


def check_diagram(node, line: str) -> Checked:
    try:
        payload = json.loads(line)
        rows = payload["report"]["properties"]
        audits = payload["report"]["audits"]
    except (ValueError, KeyError, TypeError):
        return _fail("malformed diagram line")
    if payload.get("command") != "diagram" or payload.get("exit") != 0:
        return _fail(f"diagram line with exit {payload.get('exit')}")
    if tuple(r.get("name") for r in rows) != PROPERTIES + OUT_OF_SCOPE:
        return _fail("property rows out of order")
    if any(a.get("status") == "fail" for a in audits):
        return _fail("an implication audit failed")
    decided = 0
    for row in rows[:len(PROPERTIES)]:
        status = row.get("verdict")
        if status not in ("proved", "refuted", "bounded", "inapplicable"):
            return _fail(f"row {row.get('name')} has verdict {status!r}")
        decided += status in ("proved", "refuted")
        cert = row.get("certificate", {})
        why = ""
        if row["name"] == "A-thick" and status == "proved":
            why = _run_certificate(node, cert["run"], DIAGRAM_RUN)
        elif row["name"] == "M-thick" and status == "proved":
            k = cert["k"]
            if cert["multiples"] != [k * i for i in range(1, DIAGRAM_RUN + 1)] \
                    or _all_members(node, cert["multiples"]) is False:
                why = "M-thick multiples do not re-check"
        if why:
            return _fail(why)
    return Checked(True, len(PROPERTIES), decided)


def check_eval(node, line: str) -> Checked:
    try:
        payload = json.loads(line)
        verdict = payload["verdict"]
        status = verdict["status"]
    except (ValueError, KeyError, TypeError):
        return _fail("malformed check line")
    if payload.get("command") != "check" or payload.get("property") != "a-thick":
        return _fail("wrong command or property")
    if status not in EXIT or payload.get("exit") != EXIT[status]:
        return _fail(f"exit {payload.get('exit')} for {status}")
    cert = verdict.get("certificate", {})
    why = ""
    if status == "proved":
        why = _run_certificate(node, cert["run"], wl.EVAL_RUN)
    elif status == "refuted":
        why = _no_run(node, cert)
    if why:
        return _fail(why)
    return Checked(True, 1, int(status != "bounded"))


def _no_run(node, cert: dict) -> str:
    """Re-check an a-thick refutation: no run of EVAL_RUN members anywhere."""
    try:
        if "window" in cert:
            window = cert["window"]
            if ref.has_run(lambda x: ref.member(node, x), 1, window, wl.EVAL_RUN):
                return f"a run lies inside the refuted window {window}"
            pre, per = cert["preperiod"], cert["period"]
            if any(ref.member(node, x) != ref.member(node, x + per)
                   for x in range(pre + 1, pre + per + 1)):
                return f"membership is not periodic with period {per}"
        else:
            elems = set(ref.finite_elements(node))
            if ref.has_run(elems.__contains__, 1, max(elems), wl.EVAL_RUN):
                return "the finite set holds a run"
    except ref.Unsupported:
        pass
    return ""
