"""Tests of the benchmark itself: inputs, tail rule, reference, trace ranking.

    python3 -m pytest perfbench -q

The last two tests start felab processes from the checkout's ``src``.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from collections import defaultdict
from pathlib import Path

import pytest

import layers
import reference as ref
import run
import workloads as wl


def _round_bytes(workload: str, seed: int, r: int) -> bytes:
    items = wl.round_inputs(workload, seed, r)
    if workload == "fe_mix":
        return json.dumps([wl.fe_argv(q) for q in items]).encode()
    return "".join(wl.text(e) + "\n" for e in items).encode()


@pytest.mark.parametrize("workload", sorted(wl.CLASSES))
def test_same_seed_same_inputs(workload):
    for r in range(3):
        assert _round_bytes(workload, 7, r) == _round_bytes(workload, 7, r)
    assert _round_bytes(workload, 7, 0) != _round_bytes(workload, 8, 0)
    assert _round_bytes(workload, 7, 0) != _round_bytes(workload, 7, 1)


def test_tail_is_highest_percentile_with_ten_beyond():
    assert run.tail_percentile([float(x) for x in range(1, 101)]) == (90, 90.0, 10)
    assert run.tail_percentile([float(x) for x in range(1, 41)]) == (75, 30.0, 10)
    # 25 samples: p60 sits at rank 15 with 10 beyond; p61 would leave only 9
    assert run.tail_percentile([float(x) for x in range(1, 26)]) == (60, 15.0, 10)
    # too few samples for any percentile to have 10 beyond: report the median
    assert run.tail_percentile([3.0, 1.0, 2.0]) == (50, 2.0, 1)


def test_scale_uses_the_calibrations_around_a_process(tmp_path):
    runner = run.Runner(tmp_path, 0.0)
    runner.cals = [0.01, 0.01, 0.02, 0.02, 0.04, 0.04, 0.04, 0.08]
    # process between calibrations 3 and 4: the window is calibrations 1 to 6
    assert runner.scale((3, 4)) == pytest.approx(run.CAL_REF_S / 0.03)
    assert runner.scale((0, 1)) == pytest.approx(run.CAL_REF_S / 0.015)


def test_reference_hand_cases():
    assert ref.omega(360) == 6
    assert ref.omega(1) == 0 and ref.omega(97) == 1
    assert ref.divisors(12) == [1, 2, 3, 4, 6, 12]
    six_eight = ref.expect_fe(("set", (6, 8)), ("union", ("level", 2), ("level", 5)), 20_000, 16, 2_000)
    assert six_eight["status"] == "refuted"
    two_three = ref.expect_fe(("set", (2, 3)), ("mult", 6), 20_000, 16, 2_000)
    assert two_three == {"status": "proved", "k": 6, "family": (2, 3)}
    # no k puts both 1*k and 2*k in 1 + 3Z, and nothing structural refutes it
    assert ref.expect_fe(("set", (1, 2)), ("ap", 1, 3), 20_000, 16, 2_000)["status"] == "bounded"
    assert ref.member(("up", ("set", (6, 10, 15))), 45)
    assert not ref.member(("up", ("set", (6, 10, 15))), 49)
    assert ref.member(("fp", ("primeseq", "odd")), 2 * 5 * 11)
    assert not ref.member(("fp", ("primeseq", "odd")), 3)
    assert ref.finite_elements(("fs", ("list", (1, 2, 4)))) == [1, 2, 3, 4, 5, 6, 7]
    # empty, but only the definition sees it: the structural rule stays silent
    empty = ("inter", ("mult", 8), ("compl", ("mult", 4)))
    assert ref.misses_multiples(empty, 1) and not ref.provably_misses(empty, 1)


# ---------------------------------------------------------------------------
# traced runs, against the source tree
# ---------------------------------------------------------------------------

ONE_QUERY = {
    "fe_mix": wl.fe_argv({"cmd": "fe", "A": ("mult", 3), "B": ("up", ("set", (6, 10, 15)))}),
    "diagram_batch": wl.diagram_argv("batch.txt"),
    "eval_batch": wl.eval_argv("batch.txt"),
}
# queries whose top two layers lead the third by a wide margin under both tools
BATCH_LINE = {"diagram_batch": "dilate(2,odd)", "eval_batch": "inter(compl(mult(4)),ap(1,2))"}

PROFILE = """
import cProfile, contextlib, io, sys
from felab.cli import main
prof = cProfile.Profile()
with contextlib.redirect_stdout(io.StringIO()):
    prof.runcall(main, sys.argv[2:])
prof.dump_stats(sys.argv[1])
"""


def _felab(tmp_path: Path, args: list[str]) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=str(run.SRC), PYTHONHASHSEED="1")
    return subprocess.run([sys.executable, *args], cwd=tmp_path, env=env,
                          capture_output=True, timeout=300)


def _traced(tmp_path: Path, workload: str, name: str) -> dict:
    out = tmp_path / name
    _felab(tmp_path, [str(run.HERE / "tracer.py"), str(out), *ONE_QUERY[workload]])
    return json.loads(out.read_text())


def _layer_of_file(path: str) -> str | None:
    parts = Path(path).parts
    if "felab" not in parts:
        return None
    layer = Path(*parts[parts.index("felab") + 1:]).parts[0].removesuffix(".py")
    return layer if layer in layers.LAYERS else None


def _profiled_layers(tmp_path: Path, workload: str) -> dict:
    """cProfile self time per layer; time in builtins goes to the calling layer."""
    import pstats

    out = tmp_path / "prof.out"
    _felab(tmp_path, ["-c", PROFILE, str(out), *ONE_QUERY[workload]])
    totals = defaultdict(float)
    for func, (_, _, tt, _, callers) in pstats.Stats(str(out)).stats.items():
        layer = _layer_of_file(func[0])
        if layer is not None:
            totals[layer] += tt
            continue
        for caller, (_, _, caller_tt, _) in callers.items():
            caller_layer = _layer_of_file(caller[0])
            if caller_layer is not None:
                totals[caller_layer] += caller_tt
    return totals


def _top_two(by_layer: dict) -> list[str]:
    return sorted(by_layer, key=by_layer.get, reverse=True)[:2]


@pytest.mark.parametrize("workload", sorted(ONE_QUERY))
def test_trace_ranks_layers_like_cprofile(tmp_path, workload):
    if workload in BATCH_LINE:
        (tmp_path / "batch.txt").write_text(BATCH_LINE[workload] + "\n")
    traced = layers.Totals([_traced(tmp_path, workload, "trace.json")]).layer_self()
    assert _top_two(traced) == _top_two(_profiled_layers(tmp_path, workload))


def test_traced_call_counts_repeat(tmp_path):
    runs = [layers.per_layer([_traced(tmp_path, "fe_mix", f"t{i}.json")], 1,
                             {"interpreter_s": 0.0, "import_total_s": 0.0}, 0.0)
            for i in range(2)]
    counts = [{k: v for k, (v, unit) in r.items() if unit == "count"} for r in runs]
    assert counts[0] == counts[1]
    assert counts[0]["arith.divisors_calls"] > 0
