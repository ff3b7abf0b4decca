"""Self-tests of the benchmark.  Run: ``python3 -m pytest -q perfbench``."""

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import run  # noqa: E402
import tracing  # noqa: E402
from workloads import WORKLOADS, Tally  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


# ------------------------------------------------------------------ #
# self-time arithmetic
# ------------------------------------------------------------------ #
def test_self_time_of_nested_spans():
    spans = [
        ["system.repair", 0.0, 10.0, -1],
        ["repair.split_search", 1.0, 4.0, 0],
        ["simnet.solve", 1.5, 2.0, 1],
        ["simnet.solve", 2.5, 3.5, 1],
        ["gf.combine", 5.0, 9.0, 0],
        ["gf.matmul", 6.0, 7.0, 4],
        ["simnet.solve", 9.5, 9.75, 0],
    ]
    s = tracing.summarize(spans)
    assert s["system.repair"]["self_s"] == pytest.approx(10.0 - 3.0 - 4.0 - 0.25)
    assert s["repair.split_search"]["self_s"] == pytest.approx(3.0 - 1.5)
    assert s["repair.split_search"]["probes"] == 2  # the third solve is not a probe
    assert s["gf.combine"]["self_s"] == pytest.approx(3.0)
    assert s["simnet.solve"] == {"calls": 3, "total_s": pytest.approx(1.75),
                                 "self_s": pytest.approx(1.75), "probes": 0}
    total_self = sum(row["self_s"] for row in s.values())
    assert total_self == pytest.approx(10.0)  # self times tile the root span


def test_tracer_records_only_inside_timed_calls_and_restores_bindings():
    import numpy as np
    import repro.ec.rs as rs_mod
    import repro.gf.matrix as matrix_mod
    from repro.ec.rs import RSCode

    original = matrix_mod.gf_matmul
    code = RSCode(4, 2)
    data = np.arange(4 * 64, dtype=np.uint8).reshape(4, 64)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert rs_mod.gf_matmul is not original  # the by-name import is rebound too
        code.encode(data)  # outside a timed call: nothing recorded
        assert tracer.spans == []
        tally = Tally(tracer)
        tally.call("write", code.encode, data)
    finally:
        tracer.uninstall()
    assert matrix_mod.gf_matmul is original and rs_mod.gf_matmul is original
    names = [row[0] for row in tracer.spans]
    assert names == ["ec.encode", "gf.matmul"]
    assert tracer.spans[1][3] == 0  # gf.matmul's parent is ec.encode
    assert tracer.counts["gf.matmul.mb"] == pytest.approx(data.nbytes / tracing.MB)
    doc = tracer.chrome_trace()
    assert [e["name"] for e in doc["traceEvents"]] == names
    assert all(e["ph"] == "X" and e["dur"] >= 0 for e in doc["traceEvents"])


# ------------------------------------------------------------------ #
# metric names and BENCHMARK.json
# ------------------------------------------------------------------ #
def test_every_metric_name_matches_the_pattern():
    names = ([m["name"] for m in SPEC["end_to_end"]] + [m["name"] for m in SPEC["per_layer"]]
             + [w["name"] for w in SPEC["workloads"]])
    assert len(names) == len(set(names))
    for name in names:
        assert NAME.fullmatch(name), name


def test_every_declared_workload_is_implemented_and_traced():
    assert list(run.WORKLOAD_NAMES) == list(WORKLOADS)
    assert set(tracing.REQUIRED_SPANS) == set(WORKLOADS)
    span_names = {name for name, _, _ in tracing.TARGETS}
    for spans in tracing.REQUIRED_SPANS.values():
        assert set(spans) <= span_names


def test_round_ref_averages_per_input_medians_over_the_mean_reference():
    rounds = []
    for r, wall, ref in [(0, 2.0, 0.1), (1, 6.0, 0.3), (0, 4.0, 0.2), (0, 9.0, 0.2)]:
        tally = Tally()
        tally.wall_s = wall
        rounds.append(run.Round(r, ref, 50.0 + wall, tally, {"makespan_s": 1.0, "wire_mb": 2.0}, {}))
    m = run.e2e_metrics([0.3, 0.1, 0.2], rounds)
    # input 0 repeats three times but weighs as much as input 1
    assert m["round_ref"] == pytest.approx((4.0 + 6.0) / 2 / 0.2)
    assert m["setup_s"] == pytest.approx(0.2)
    assert m["peak_rss_mb"] == 59.0  # the highest round peak
    # the simulated metrics sum the first run of each input set
    assert (m["repair_makespan_s"], m["repair_wire_mb"]) == (2.0, 4.0)
    assert set(m) == set(run.E2E_UNITS)


# ------------------------------------------------------------------ #
# failure counting
# ------------------------------------------------------------------ #
def test_failures_are_counted_not_swallowed():
    t = Tally()

    def boom():
        raise IOError("node gone")

    assert t.call("read", boom, mb=1.0) is None
    assert (t.attempted, t.failed, t.wrong) == (1, 1, 0)
    assert t.call("write", lambda: "ok") == "ok"
    assert t.call("serve", boom, ops=0) is None  # a batch call that raised
    assert (t.attempted, t.failed) == (3, 2)
    t.attempted += 10  # the batch's own ops, counted by the caller
    t.check(True, "fine")
    t.check(False, "a wrong byte")  # of an op already counted
    assert (t.attempted, t.failed, t.wrong) == (13, 3, 1)
    t.read_back(b"abc", b"abd", "a verifying read")
    assert (t.attempted, t.failed, t.wrong) == (14, 4, 2)
    assert len(t.errors) == 4 and "wrong bytes" in t.errors[-1]
    assert set(t.phases) == {"read", "write", "serve"}


# ------------------------------------------------------------------ #
# shortened runs, end to end
# ------------------------------------------------------------------ #
@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_shortened_traced_run_verifies_bytes(workload):
    proc = _bench("--workload", workload, "--seed", "7", "--seconds", "0.1", "--trace", "1")
    assert proc.returncode == 0, proc.stderr
    res = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    assert res["correct"] and res["failed"] == 0 and res["attempted"] >= 1
    assert set(res["metrics"]) == set(run.LAYER_UNITS)
    assert res["metrics"]["trace.coverage_ratio"]["value"] > 0.9


def test_shortened_untraced_run_reports_every_end_to_end_metric():
    proc = _bench("--workload", "repair-churn", "--seed", "3", "--seconds", "0.1", "--trace", "0")
    assert proc.returncode == 0, proc.stderr
    res = json.loads(proc.stdout.strip().splitlines()[-1])
    assert res["correct"] and res["failed"] == 0
    assert set(res["metrics"]) == set(run.E2E_UNITS)
    assert all(m["value"] > 0 for m in res["metrics"].values())


def test_a_span_with_zero_calls_fails_the_run(monkeypatch, capsys):
    monkeypatch.setitem(tracing.REQUIRED_SPANS, "repair-churn",
                        tracing.REQUIRED_SPANS["repair-churn"] + ("gf.plane",))
    code = run.main(["--workload", "repair-churn", "--seed", "1", "--seconds", "0.1",
                     "--trace", "1"])
    out = capsys.readouterr()
    assert code == 1
    assert json.loads(out.out.strip().splitlines()[-1])["correct"] is False
    assert "gf.plane" in out.err


def test_a_wrong_byte_fails_the_run(monkeypatch, capsys):
    from repro.system.coordinator import Coordinator

    honest = Coordinator.read

    def flipped(self, name):
        data = bytearray(honest(self, name))
        data[len(data) // 2] ^= 1
        return bytes(data)

    monkeypatch.setattr(Coordinator, "read", flipped)
    code = run.main(["--workload", "repair-wide", "--seed", "1", "--seconds", "0.1",
                     "--trace", "0"])
    out = capsys.readouterr()
    assert code == 1
    res = json.loads(out.out.strip().splitlines()[-1])
    assert res["correct"] is False and res["failed"] >= 1
    assert "wrong bytes" in out.err


def test_without_program_sources_it_exits_nonzero(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = _bench("--workload", "repair-churn", "--seed", "1", "--seconds", "1",
                  "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
