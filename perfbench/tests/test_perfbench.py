"""Self-tests for the benchmark, at a tiny scale.

Run with ``python3 -m pytest perfbench/tests -q`` from the root of a
checkout. Each end-to-end test runs ``run.py`` the way a user does.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

import compare
import run as bench
from spans import Recorder, Span, layer_self_times, self_times
from workloads import ReportJson, Run

BENCH = Path(bench.__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
SCALES = {"report-json": 0.02, "report-html": 0.1, "serve-stream": 0.1, "matrix-sweep": 0.05}


def _cmd(workload: str, trace: int, scale: float, seed: int = 3) -> list[str]:
    return [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
            "--seconds", "0", "--trace", str(trace), "--scale", str(scale)]


def _run(workload: str, trace: int, scale: float) -> tuple[list[str], dict]:
    p = subprocess.run(_cmd(workload, trace, scale), capture_output=True, text=True, timeout=170)
    assert p.returncode == 0, p.stderr[-3000:]
    lines = p.stdout.strip().splitlines()
    return lines, json.loads(lines[-1])


def test_benchmark_json_names_what_run_py_emits():
    assert [w["name"] for w in SPEC["workloads"]] == bench.WORKLOAD_NAMES
    assert [(m["name"], m["unit"]) for m in SPEC["end_to_end"]] == bench.E2E
    assert [m["name"] for m in SPEC["per_layer"]] == bench.PER_LAYER
    assert SPEC["command"] == ["python3", "perfbench/run.py"]


@pytest.mark.parametrize("workload", bench.WORKLOAD_NAMES)
def test_every_end_to_end_metric_has_unit_and_sample_count(workload):
    lines, result = _run(workload, 0, SCALES[workload])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    want = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == want
    for name in want:
        assert result["metrics"][name]["value"] > 0
        line = next(x for x in lines if x.startswith(f"metric {name} "))
        assert int(line.rsplit("n=", 1)[1]) >= 1
    assert any(x.startswith("env: ") and '"cpu_count"' in x for x in lines)


@pytest.mark.parametrize("workload", bench.WORKLOAD_NAMES)
def test_every_per_layer_metric_has_its_unit(workload):
    lines, result = _run(workload, 1, SCALES[workload])
    assert result["correct"], [x for x in lines if x.startswith("FAILED")]
    want = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == want
    assert any(x.startswith("unaccounted_s is ") for x in lines)


def test_self_time_subtracts_the_union_of_children():
    spans = [
        Span(0, "root", 0.0, 10.0, None),
        Span(1, "a", 1.0, 4.0, 0),
        Span(2, "b", 3.0, 6.0, 0),  # overlaps a: the union [1, 6] counts once
        Span(3, "c", 2.0, 3.0, 1),
        Span(4, "d", 9.0, 12.0, 0),  # clipped to the parent's end
        Span(5, "a", 7.0, 8.0, 0),
    ]
    own = self_times(spans)
    assert own[0] == pytest.approx(10.0 - 5.0 - 1.0 - 1.0)
    assert own[1] == pytest.approx(2.0)
    assert own[2] == pytest.approx(3.0)
    assert own[3] == pytest.approx(1.0)
    assert own[4] == pytest.approx(3.0)
    assert layer_self_times(spans)["a"] == pytest.approx(3.0)


def test_recorded_layers_add_up_to_the_root():
    rec = Recorder()
    inner = rec.wrap("inner", lambda: time.sleep(0.01))
    with rec.span("root"):
        with rec.span("outer"):
            inner()
            time.sleep(0.005)
        inner()
    root = next(s for s in rec.spans if s.name == "root")
    assert sum(layer_self_times(rec.spans).values()) == pytest.approx(root.duration, rel=1e-9)
    assert layer_self_times(rec.spans)["inner"] >= 0.02


def test_a_corrupted_output_byte_counts_in_failed(tmp_path):
    wl = ReportJson(ROOT, tmp_path, seed=3, scale=0.01)
    (tmp_path / "tmp").mkdir()
    wl.setup()
    wl.reference()
    real = wl.outputs
    calls = []

    def corrupt_first_cold(stdout):
        out = real(stdout)
        calls.append(1)
        if len(calls) == 2:  # the populate call is first, then the first cold call
            b = bytearray(out["stdout"])
            b[len(b) // 2] ^= 0x01
            out["stdout"] = bytes(b)
        return out

    wl.outputs = corrupt_first_cold
    run = Run()
    wl.measure(run, 0.0)
    assert run.failed == 1
    assert run.failures and run.failures[0].startswith("cold: output differs")
    assert len(run.samples["cold"]) == 2  # the failed call's time is kept


def _shm_segments() -> set[str]:
    return {p.name for p in Path("/dev/shm").glob("mg-*")}


def _pids_mentioning(text: str) -> list[int]:
    out = []
    for d in Path("/proc").iterdir():
        if not d.name.isdigit():
            continue
        try:
            cmd = (d / "cmdline").read_bytes()
        except OSError:
            continue
        if text.encode() in cmd:
            out.append(int(d.name))
    return out


#: runs argv[1:] as a child subreaper, then prints how many of its
#: descendants were still there (running or unreaped) when it exited
_SUBREAPER = """
import subprocess, sys
from procs import become_subreaper, own_children
assert become_subreaper()
rc = subprocess.run(sys.argv[1:], stdout=subprocess.DEVNULL).returncode
print(rc, len(own_children()))
"""


@pytest.mark.parametrize("workload,scale", [("serve-stream", 0.1), ("report-json", 0.2)])
@pytest.mark.parametrize("trace", [0, 1])
def test_no_process_outlives_the_run(workload, scale, trace):
    env = dict(os.environ, PYTHONPATH=str(BENCH))
    p = subprocess.run([sys.executable, "-c", _SUBREAPER, *_cmd(workload, trace, scale)],
                       capture_output=True, text=True, timeout=170, env=env)
    assert p.stdout.split() == ["0", "0"], p.stderr[-3000:]


@pytest.mark.parametrize("workload,scale", [("serve-stream", 0.1), ("report-json", 0.2)])
def test_children_and_shm_segments_are_cleaned_up(workload, scale):
    before = _shm_segments()
    p = subprocess.Popen(_cmd(workload, 0, scale), stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    work = ROOT / ".perfbench-work" / f"{workload}-{p.pid}"
    seen = set()
    while p.poll() is None:
        seen.update(_pids_mentioning(str(work)))
        time.sleep(0.05)
    out, err = p.communicate(timeout=170)
    assert p.returncode == 0, err[-3000:]
    assert seen, "the run started no child process"
    assert _pids_mentioning(str(work)) == []
    assert not work.exists()
    assert _shm_segments() <= before


def test_a_checkout_without_the_program_fails_without_a_result(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    p = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "report-json", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170,
    )
    assert p.returncode != 0
    assert p.stdout.strip() == ""


def test_compare_refuses_different_core_counts():
    base = {"env": {"cpu_count": 2, "workload": "report-json", "scale": 1.0},
            "result": {"metrics": {"cold_s": {"value": 1.0, "unit": "s"}}}}
    new = json.loads(json.dumps(base))
    new["env"]["cpu_count"] = 4
    with pytest.raises(ValueError, match="cpu_count"):
        compare.compare(base, new, {})
    new["env"]["cpu_count"] = 2
    new["result"]["metrics"]["cold_s"]["value"] = 1.5
    lines, worse = compare.compare(base, new, {"cold_s": ("lower", 0.2)})
    assert worse == 1 and "WORSE" in lines[0]
