"""felab benchmark: seeded workloads run through the real ``felab`` CLI.

    python3 perfbench/run.py --workload fe_mix --seed 1 --seconds 20 --trace 0

Run it from the root of a checkout. It needs only the standard library and
the checkout's ``src`` tree, which it puts on PYTHONPATH for every felab
process it starts. It writes scratch files to ``.perfbench-*`` in the checkout
root and removes them when it ends.

Workloads (see ``workloads.py``). Each is a closed loop with one client: one
felab process at a time, the next query sent when the last one has finished.

- ``fe_mix``: one fresh ``felab fe``/``felab me`` process per query, 13
  queries per round, at horizon 20000 with dilations up to 2000.
- ``diagram_batch``: one ``felab diagram --batch`` process per round of
  15 expressions, at horizon 5000.
- ``eval_batch``: one ``felab check a-thick --n 3 --batch`` process per round
  of 24 expressions, at the default horizon 100000.

A round holds one input per workload class. Every query of a round runs twice,
under PYTHONHASHSEED 1 and 2, and both stdouts must be byte-identical. A run
does as many rounds as take ``--seconds`` on the reference CPU at the speed
felab had when the benchmark was defined (``workloads.ROUND_REF_S``), so runs
of the same length always measure the same work.

The host's speed drifts, so a fixed pure-Python calibration loop runs before
and after every felab process and between the lines of a batch process (with
felab stopped meanwhile), and all times below are wall times rescaled to a
reference CPU on which that loop takes 10 ms (see ``CAL_REF_S``). The whole
run is pinned to one CPU. The provenance line has the calibration's median and
the raw median and tail.

With ``--trace 0`` the run reports the end-to-end metrics:

- ``setup_s``: median wall time of a fresh process that imports felab.cli.
- ``queries_per_s``: query executions per second of felab time: finished
  executions over the sum of their times.
- ``query_p50_ms``: median time per query: process wall time in fe_mix, the
  gap between JSON lines (stdout unbuffered) in the batch workloads.
- ``query_tail_ms``: the highest whole percentile with at least 10 samples
  beyond it. The percentile and the sample count are printed on the
  ``provenance`` line.
- ``peak_rss_mb``: the largest peak resident set (VmHWM) of any felab query
  process.
- ``decided_frac``: proved or refuted verdicts over all verdicts (diagram:
  over the 13 property rows of each expression).
- ``ok_frac``: share of query executions that passed every check. A query
  fails on a wrong exit code or verdict, a certificate that does not
  re-check, output that is malformed or differs between its two runs, or a
  time limit.

With ``--trace 1`` the run repeats round 0. Each query runs once plainly and
once under ``tracer.py``, and the run reports the per-layer metrics of
``layers.py``, including ``trace.overhead_frac``.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``. The line before it starts with
``provenance`` and records the git sha (when the checkout has one), a digest
of ``src``, the Python version, ``nproc``, the seed, the horizon, the query
counts and the tail percentile.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import select
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path

import checks
import layers
import workloads as wl

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
# felab's entry point. At exit the process writes its own peak resident set
# (VmHWM, in KiB) to the file named by its first argument: the ru_maxrss that
# wait4 reports would include the benchmark's own memory, which a forked child
# holds until it execs.
CLI = """import atexit, sys
def peak(path=sys.argv.pop(1)):
    with open("/proc/self/status") as status, open(path, "w") as out:
        out.write(next(line for line in status if line.startswith("VmHWM:")).split()[1])
atexit.register(peak)
from felab.cli import main
sys.exit(main())"""
HASH_SEEDS = ("1", "2")
SETUP_RUNS = 11
QUERY_LIMIT_S = 30.0  # fe_mix: a query process running longer is killed
LINE_LIMIT_S = 60.0  # batch workloads: longest wait for the next JSON line
LAST_ROUND_START_S = 100.0  # no round starts later than this into the run
DEADLINE_S = 150.0  # any felab process still running then is killed
TAIL_BEYOND = 10
# On a shared host the CPU's speed can drift by 15-30% over seconds to minutes,
# for felab and for any other Python code alike. Every query is bracketed by
# runs of a fixed pure-Python loop (``calibrate``), and its time is rescaled to
# a reference CPU on which that loop takes CAL_REF_S: a time t measured while
# the loop took c seconds is reported as t * CAL_REF_S / c, with c the median
# of the calibrations around the query. The raw wall-clock figures are on the
# provenance line.
CAL_REF_S = 0.010
CAL_LOOP = 30_000
CAL_REPEATS = 3
CAL_NEIGHBOURS = 2
# settings of the calling shell that would change what a felab process does
INHERIT_NOT = {"PYTHONPATH", "PYTHONHASHSEED", "PYTHONDEVMODE", "PYTHONWARNINGS",
               "PYTHONPROFILEIMPORTTIME", "FELAB_CACHE"}


@dataclass
class Proc:
    """One finished felab process."""

    returncode: int | None  # None when it was killed at a time limit
    stdout: bytes
    wall: float  # not counting the pauses for calibration
    cal_span: tuple[int, int]  # the calibrations taken just before and just after it
    line_gaps: list[float] = field(default_factory=list)
    line_spans: list[tuple[int, int]] = field(default_factory=list)  # calibrations per line


@dataclass
class Sample:
    """One query execution: its time and whether it passed every check."""

    seconds: float | None  # wall time as measured; None when it never finished
    ok: bool
    verdicts: int = 0
    decided: int = 0
    cal_span: tuple[int, int] = (0, 0)


def calibrate() -> float:
    """Seconds a fixed pure-Python job takes now (the median of three): integer
    arithmetic, a list and a dict of about a megabyte each, and a sort."""
    times = []
    for _ in range(CAL_REPEATS):
        start = time.perf_counter()
        xs = [(i * 2654435761) % 1_000_003 for i in range(CAL_LOOP)]
        counts = {}
        for x in xs:
            counts[x] = counts.get(x, 0) + 1
        sorted(counts)
        times.append(time.perf_counter() - start)
    return statistics.median(times)


class Runner:
    """Starts felab processes one at a time, reaps each one and calibrates
    between them."""

    def __init__(self, workdir: Path, started: float):
        self.workdir = workdir
        self.started = started
        self.peak_rss_mb = 0.0
        self.cals: list[float] = []
        env = {k: v for k, v in os.environ.items() if k not in INHERIT_NOT}
        self.env = dict(env, PYTHONPATH=str(SRC), PYTHONUNBUFFERED="1")

    def run(self, args: list[str], hash_seed: str, limit: float, per_line: bool = False) -> Proc:
        """Run `python3 args...`; kill it past `limit` (per line when per_line)."""
        env = dict(self.env, PYTHONHASHSEED=hash_seed)
        if not self.cals:
            self.cals.append(calibrate())
        cal_before = len(self.cals) - 1
        start = time.perf_counter()
        deadline = self.started + DEADLINE_S
        with open(self.workdir / "stderr.txt", "wb") as err:
            proc = subprocess.Popen([sys.executable, *args], stdout=subprocess.PIPE,
                                    stderr=err, env=env, cwd=self.workdir)
        out, gaps, spans, killed, paused = bytearray(), [], [], False, 0.0
        last = start
        fd = proc.stdout.fileno()
        try:
            while True:
                wait = min(last + limit, deadline) - time.perf_counter()
                if wait <= 0:
                    killed = True
                    break
                if not select.select([fd], [], [], wait)[0]:
                    continue
                chunk = os.read(fd, 1 << 16)
                if not chunk:
                    break
                now = time.perf_counter()
                lines = chunk.count(b"\n")
                for _ in range(lines):
                    gaps.append(now - last)
                    last = now
                if not per_line:
                    last = start
                elif lines:
                    cal_before_lines = len(self.cals) - 1
                    pause = self._calibrate_paused(proc.pid)
                    spans += [(cal_before_lines, len(self.cals) - 1)] * lines
                    last += pause
                    paused += pause
                out += chunk
            status = self._reap(proc.pid, 0.0 if killed else deadline)
        except BaseException:
            self._reap(proc.pid, 0.0)
            raise
        finally:
            proc.stdout.close()
        killed = killed or status is None
        proc.returncode = -signal.SIGKILL if killed else os.waitstatus_to_exitcode(status)
        wall = time.perf_counter() - start - paused
        self.cals.append(calibrate())
        return Proc(None if killed else proc.returncode, bytes(out), wall,
                    (cal_before, len(self.cals) - 1), gaps, spans)

    def _calibrate_paused(self, pid: int) -> float:
        """Calibrate between two lines of a batch process, with the process
        stopped meanwhile; the seconds it was stopped."""
        start = time.perf_counter()
        os.kill(pid, signal.SIGSTOP)
        try:
            self.cals.append(calibrate())
        finally:
            os.kill(pid, signal.SIGCONT)
        return time.perf_counter() - start

    def _reap(self, pid: int, deadline: float) -> int | None:
        """Wait for pid until the deadline, then kill it; its status, or None."""
        while time.perf_counter() < deadline:
            done, status = os.waitpid(pid, os.WNOHANG)
            if done:
                return status
            time.sleep(0.0005)
        os.kill(pid, signal.SIGKILL)
        os.waitpid(pid, 0)
        return None

    def scale(self, cal_span: tuple[int, int]) -> float:
        """CAL_REF_S over the median of the calibrations around a process or a
        batch line: the two that bracket it and CAL_NEIGHBOURS more on each side."""
        lo, hi = cal_span
        return CAL_REF_S / statistics.median(
            self.cals[max(0, lo - CAL_NEIGHBOURS):hi + 1 + CAL_NEIGHBOURS])

    def scaled(self, procs: list[Proc]) -> float:
        """Total wall time of procs, rescaled to the reference CPU."""
        return sum(p.wall * self.scale(p.cal_span) for p in procs)

    def scaled_samples(self, samples: list[Sample]) -> list[float]:
        """The times of the samples that finished, rescaled to the reference CPU."""
        return [s.seconds * self.scale(s.cal_span) for s in samples if s.seconds is not None]

    def felab(self, argv: list[str], hash_seed: str, limit: float, per_line: bool = False,
              trace_to: Path | None = None) -> Proc:
        if trace_to is not None:
            return self.run([str(HERE / "tracer.py"), str(trace_to), *argv], hash_seed, limit,
                            per_line)
        peak_file = self.workdir / "peak.txt"
        peak_file.unlink(missing_ok=True)
        proc = self.run(["-c", CLI, str(peak_file), *argv], hash_seed, limit, per_line)
        if peak_file.is_file():
            self.peak_rss_mb = max(self.peak_rss_mb, int(peak_file.read_text()) / 1024)
        return proc

    def stderr_tail(self) -> str:
        return (self.workdir / "stderr.txt").read_text(errors="replace")[-300:]


# ---------------------------------------------------------------------------
# set-up
# ---------------------------------------------------------------------------

def check_checkout() -> None:
    if not (SRC / "felab" / "cli.py").is_file():
        sys.exit(f"error: {SRC / 'felab' / 'cli.py'} not found; run from a felab checkout")


def measure_setup(runner: Runner) -> tuple[list[Proc], list[Proc]]:
    """SETUP_RUNS bare interpreters and as many `import felab.cli` processes."""
    probe = runner.run(["-c", "import felab.cli; print(felab.cli.__file__)"], "1", QUERY_LIMIT_S)
    where = probe.stdout.decode().strip()
    if probe.returncode != 0 or not Path(where).resolve().is_relative_to(SRC.resolve()):
        sys.exit(f"error: felab.cli does not import from {SRC}: {where or runner.stderr_tail()}")
    bare, imports = [], []
    for _ in range(SETUP_RUNS):
        bare.append(runner.run(["-c", "pass"], "1", QUERY_LIMIT_S))
        imports.append(runner.run(["-c", "import felab.cli"], "1", QUERY_LIMIT_S))
    return bare, imports


def setup_times(runner: Runner, bare: list[Proc], imports: list[Proc]) -> dict:
    """Median rescaled wall times of a bare interpreter and of `import felab.cli`."""
    def median(procs):
        return statistics.median(p.wall * runner.scale(p.cal_span) for p in procs)
    return {"interpreter_s": median(bare), "import_total_s": median(imports)}


# ---------------------------------------------------------------------------
# rounds
# ---------------------------------------------------------------------------

class Workload:
    """Runs rounds of one workload and checks every output."""

    def __init__(self, name: str, seed: int, runner: Runner):
        self.name, self.seed, self.runner = name, seed, runner
        self.fe_ref = checks.FeReference()
        self.samples: list[Sample] = []
        self.busy = 0.0  # seconds of felab process time, as measured
        self.distinct = 0
        self.traces: list[Path] = []
        self.plain: list[Proc] = []
        self.traced: list[Proc] = []

    def round(self, r: int, traced: bool = False) -> None:
        items = wl.round_inputs(self.name, self.seed, r)
        if self.name == "fe_mix":
            for q in items:
                self._pair(wl.fe_argv(q), traced, lambda out, code, q=q: [
                    self.fe_ref.check(q, out.decode(errors="replace"), code)])
        else:
            path = self.runner.workdir / f"batch-{r}.txt"
            path.write_text("".join(wl.text(e) + "\n" for e in items))
            argv = (wl.diagram_argv if self.name == "diagram_batch" else wl.eval_argv)(path.name)
            check = checks.check_diagram if self.name == "diagram_batch" else checks.check_eval
            self._pair(argv, traced, lambda out, code: _check_lines(items, out, check),
                       per_line=True)
        self.distinct += len(items)

    def _pair(self, argv, traced: bool, check, per_line: bool = False) -> None:
        """Run one query (or batch) twice and record a sample per query it holds."""
        runs = []
        for i, hash_seed in enumerate(HASH_SEEDS):
            trace_to = None
            if traced and i == 1:
                trace_to = self.runner.workdir / f"trace-{len(self.traces)}.json"
                self.traces.append(trace_to)
            limit = LINE_LIMIT_S if per_line else QUERY_LIMIT_S
            proc = self.runner.felab(argv, hash_seed, limit, per_line, trace_to)
            self.busy += proc.wall
            if traced:
                (self.plain if i == 0 else self.traced).append(proc)
            runs.append(proc)
        first = check(runs[0].stdout, runs[0].returncode)
        for proc in runs:
            same = proc.stdout == runs[0].stdout and proc.returncode == runs[0].returncode
            times = proc.line_gaps if per_line else [proc.wall]
            spans = proc.line_spans if per_line else [proc.cal_span]
            results = first if same else _split_mismatch(first, runs[0].stdout, proc.stdout)
            for j, res in enumerate(results):
                seconds = times[j] if j < len(times) else None
                ok = res.ok and seconds is not None
                if not ok:
                    print(f"failed: felab {' '.join(argv)} (query {j + 1}): "
                          f"{res.why or 'time limit'}", file=sys.stderr)
                span = spans[j] if j < len(spans) else proc.cal_span
                self.samples.append(Sample(seconds, ok, res.verdicts, res.decided, span))


def _check_lines(items, out: bytes, check) -> list[checks.Checked]:
    lines = out.decode(errors="replace").splitlines()
    return [check(node, lines[i]) if i < len(lines) else checks.Checked(False, why="no output")
            for i, node in enumerate(items)]


def _split_mismatch(first, a: bytes, b: bytes) -> list[checks.Checked]:
    """Results of a rerun whose stdout differs: fail exactly the lines that differ."""
    la, lb = a.splitlines(), b.splitlines()
    if len(first) == 1:
        return [checks.Checked(False, why="stdout differs between runs")]
    return [res if i < len(la) and i < len(lb) and la[i] == lb[i]
            else checks.Checked(False, why="stdout differs between runs")
            for i, res in enumerate(first)]


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------

def tail_percentile(values: list[float], beyond: int = TAIL_BEYOND) -> tuple[int, float, int]:
    """(p, value, samples beyond): the highest whole percentile p < 100 with at
    least `beyond` samples above its nearest-rank position, else the median."""
    xs = sorted(values)
    n = len(xs)
    for p in range(99, 49, -1):
        rank = math.ceil(p * n / 100)
        if n - rank >= beyond:
            return p, xs[rank - 1], n - rank
    rank = max(1, math.ceil(n / 2))
    return 50, xs[rank - 1], n - rank


def end_to_end(w: Workload, setup: dict) -> tuple[dict, dict]:
    raw = [s.seconds for s in w.samples if s.seconds is not None] or [0.0]
    times = w.runner.scaled_samples(w.samples) or [0.0]
    p, tail, beyond = tail_percentile(times)
    verdicts = sum(s.verdicts for s in w.samples)
    metrics = {
        "setup_s": (setup["import_total_s"], "s"),
        "queries_per_s": (len(times) / sum(times), "1/s"),
        "query_p50_ms": (statistics.median(times) * 1000, "ms"),
        "query_tail_ms": (tail * 1000, "ms"),
        "peak_rss_mb": (w.runner.peak_rss_mb, "MiB"),
        "decided_frac": (sum(s.decided for s in w.samples) / max(verdicts, 1), "ratio"),
        "ok_frac": (sum(s.ok for s in w.samples) / len(w.samples), "ratio"),
    }
    return metrics, {"tail_percentile": p, "tail_samples_beyond": beyond, "samples": len(times),
                     "raw_query_p50_ms": round(statistics.median(raw) * 1000, 3),
                     "raw_query_tail_ms": round(tail_percentile(raw)[1] * 1000, 3)}


def git_sha() -> str | None:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    loose = ROOT / ".git" / ref[5:]
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    return None


def src_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "felab").rglob("*")):
        if path.is_file() and path.suffix in (".py", ".json"):
            h.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


# ---------------------------------------------------------------------------

def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(wl.CLASSES))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def pin_to_one_cpu() -> None:
    """Run this process and every felab process it starts on one CPU, so that
    the calibrations measure the CPU the queries run on."""
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})


def main(argv=None) -> int:
    args = parse_args(argv)
    check_checkout()
    pin_to_one_cpu()
    started = time.perf_counter()
    workdir = Path(tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT))
    try:
        runner = Runner(workdir, started)
        setup_procs = measure_setup(runner)
        work = Workload(args.workload, args.seed, runner)
        planned = wl.rounds_for(args.workload, args.seconds)
        r = 0
        while r < planned and (r == 0 or time.perf_counter() - started < LAST_ROUND_START_S):
            work.round(0 if args.trace else r, traced=bool(args.trace))
            r += 1
        setup = setup_times(runner, *setup_procs)
        if args.trace:
            traces = [json.loads(p.read_text()) for p in work.traces if p.is_file()]
            queries = len(work.samples) // len(HASH_SEEDS)
            metrics = layers.per_layer(traces, queries, setup,
                                       runner.scaled(work.traced) / runner.scaled(work.plain) - 1)
            detail = {}
        else:
            metrics, detail = end_to_end(work, setup)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    failed = sum(not s.ok for s in work.samples)
    provenance = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "horizon": wl.HORIZONS[args.workload], "rounds": r,
        "distinct_queries": work.distinct, "query_executions": len(work.samples),
        "felab_busy_s": round(work.busy, 3), **detail,
        "calibration_ms": round(statistics.median(runner.cals) * 1000, 3),
        "calibration_ref_ms": CAL_REF_S * 1000,
        "git_sha": git_sha(), "src_sha256": src_digest(),
        "python": platform.python_version(), "nproc": os.cpu_count(),
        "cpus_used": sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
    }
    print("provenance " + json.dumps(provenance, sort_keys=True))
    for name, (value, unit) in metrics.items():
        print(f"{name:<40} {value:>14.6g} {unit}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(work.samples),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
