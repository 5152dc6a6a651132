"""Smoke test of the benchmark at tiny sizes: python3 -m pytest -q bench/test_smoke.py"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
import run  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _bench(args, cwd=ROOT, script=BENCH / "run.py"):
    return subprocess.run([sys.executable, str(script), *args], cwd=cwd, capture_output=True,
                          text=True, timeout=170)


def test_spec_lists_the_workloads():
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOADS)
    assert SPEC["command"][1:] == ["bench/run.py"]


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", list(run.WORKLOADS))
def test_tiny_workload_reports_every_metric(workload, trace):
    proc = _bench(["--workload", workload, "--seed", "1", "--seconds", "1",
                   "--trace", str(trace), "--tiny"])
    assert proc.returncode == 0, proc.stdout + proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 2
    spec = SPEC["per_layer" if trace else "end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {m["name"]: m["unit"] for m in spec}
    assert all(isinstance(v["value"], (int, float)) for v in result["metrics"].values())
    if trace:
        spans = BENCH / "out" / f"spans-{workload}-seed1.jsonl"
        names = {json.loads(line)["name"] for line in spans.read_text().splitlines()}
        assert {"cli.main", "harness.run_experiment", "engine.run_ndar"} <= names
        assert ("simulator.simulate" in names) == (workload == "qaoa-18")


def test_seed_derives_instance_and_loop_seeds():
    wl = run.WORKLOADS["qaoa-18"]
    assert "instance.seed = 29\n" in run.config_text(wl, 0, False)
    text = run.config_text(wl, 5, False)
    assert "instance.seed = 34\n" in text and "ndar.seed = 5\n" in text


def test_output_check_catches_a_broken_run(tmp_path):
    out = tmp_path / "out"
    (out / "runs").mkdir(parents=True)
    (out / "trajectory.csv").write_text(
        "iter_index,mean_best_cut,sem_best_cut,mean_ratio,sem_ratio,mean_cumulative_ratio\n"
        "0,4,0,1,0,1\n")
    (out / "meta.txt").write_text("e_sa_cut = 4\nbrute_force_cut = 4\n")
    header = "iter_index,best_cut,best_energy,cumulative_best_cut,attractor_energy,best_hamming_weight\n"
    (out / "runs" / "run_000.csv").write_text(header + "0,4,-4,4,0,1\n")
    assert run.check_output(out, iters=1, runs=1) == ([], {"final_mean_ratio": 1.0, "e_sa_cut": 4.0})
    (out / "runs" / "run_000.csv").write_text(header + "0,5,-4,5,0,1\n")
    problems, _ = run.check_output(out, iters=2, runs=2)
    assert len(problems) == 4  # rows, run files, energy != -cut, cut above brute force


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = _bench(["--workload", "qaoa-18", "--seed", "0", "--seconds", "1", "--trace", "0"],
                  cwd=tmp_path, script=tmp_path / "bench" / "run.py")
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
