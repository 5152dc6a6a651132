"""Experiment harness: config parsing, deterministic outputs, reports, CLI."""

import os
import re
import stat
import subprocess
import sys
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import ndar
from ndar import ConfigError, ExperimentConfig, aggregate, maxcut_to_ising
from ndar import harness
from ndar.cli import main
from ndar.harness import (build_sampler, grid_search, load_instance, params_search, report,
                          run_experiment)
from ndar.ising import TripleView
from ndar.simulator import GRID_STEPS_CAP
from oracles import optimize_params

SMOKE = """\
# small throwaway experiment
instance.family = unweighted-sparse
instance.n = 12
instance.density = 0.4
instance.seed = 3

sampler.kind = classical-bernoulli
sampler.q = 0.9
ndar.shots = 120
ndar.iters = 4
ndar.seed = 5
sa.reads = 8
sa.sweeps = 60
runs = 3
"""


def write_config(tmp_path, text, name="exp.cfg"):
    p = tmp_path / name
    p.write_text(text)
    return p


def read_meta(out):
    return dict(line.split(" = ", 1) for line in (out / "meta.txt").read_text().splitlines())


def snapshot(root):
    return {str(p.relative_to(root)): p.read_bytes()
            for p in sorted(root.rglob("*")) if p.is_file()}


def test_config_defaults_and_values(tmp_path):
    cfg = ExperimentConfig.from_file(write_config(tmp_path, SMOKE))
    assert cfg.family == "unweighted-sparse" and cfg.n == 12
    assert cfg.q == 0.9 and cfg.shots == 120 and cfg.runs == 3
    assert cfg.t1 == 180.0 and cfg.t_delay == 0.0  # defaults
    assert cfg.sa_beta_min == 0.01 and cfg.sa_beta_max == 10.0


def test_config_overrides(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    path = write_config(tmp_path, SMOKE + "output_dir = from_config\n")
    cfg = replace(ExperimentConfig.from_file(path), seed=99)
    assert cfg.seed == 99 and cfg.output_dir == "from_config"
    # --out wins over output_dir in run and params-search; without it, output_dir is used
    assert main(["run", "--config", str(path), "--out", "from_flag"]) == 0
    assert main(["params-search", "--config", str(path), "--out", "from_flag"]) == 0
    assert not Path("from_config").exists()
    assert sorted(p.name for p in Path("from_flag").iterdir()) == [
        "cost_dist.csv", "hamming_dist.csv", "landscape.csv", "meta.txt", "runs",
        "trajectory.csv"]
    assert main(["run", "--config", str(path)]) == 0
    assert main(["params-search", "--config", str(path)]) == 0
    assert (Path("from_config") / "meta.txt").is_file()
    assert (Path("from_config") / "landscape.csv").is_file()


@pytest.mark.parametrize("mutation, fragment", [
    ("unknown.key = 1", "unknown key"),
    ("runs = 3", "duplicate key"),
    ("just a line", "expected 'key = value'"),
    ("ndar.patience = soon", "cannot parse"),
    ("sampler.fresh_circuit = yes", "cannot parse"),
    ("ndar.record_distributions = false", "unknown key"),
    ("sampler.gammas = a,b", "cannot parse"),
])
def test_config_rejects_malformed_lines(tmp_path, mutation, fragment):
    path = write_config(tmp_path, SMOKE + mutation + "\n")
    with pytest.raises(ConfigError, match=fragment):
        ExperimentConfig.from_file(path)


def test_config_cross_field_rules(tmp_path):
    with pytest.raises(ConfigError, match="exactly one"):
        ExperimentConfig(instance_file="x", family="unweighted-sparse", n=4, q=0.9)
    with pytest.raises(ConfigError, match="exactly one"):
        ExperimentConfig(q=0.9)
    with pytest.raises(ConfigError, match="instance.n"):
        ExperimentConfig(family="unweighted-sparse", q=0.9)
    with pytest.raises(ConfigError, match="family"):
        ExperimentConfig(family="mystery", n=4, q=0.9)
    with pytest.raises(ConfigError, match="sampler.q"):
        ExperimentConfig(family="unweighted-sparse", n=4)
    with pytest.raises(ConfigError, match="together"):
        ExperimentConfig(family="unweighted-sparse", n=4, sampler_kind="qaoa",
                         gammas=(0.1,), betas=None)
    with pytest.raises(ConfigError, match="runs"):
        ExperimentConfig(family="unweighted-sparse", n=4, q=0.9, runs=0)
    with pytest.raises(ConfigError, match="not found"):
        ExperimentConfig.from_file(tmp_path / "missing.cfg")


def test_run_experiment_outputs(tmp_path):
    cfg = ExperimentConfig.from_file(write_config(tmp_path, SMOKE))
    out = tmp_path / "out"
    summary = run_experiment(cfg, out_dir=out)
    assert (out / "trajectory.csv").is_file()
    assert (out / "meta.txt").is_file()
    assert (out / "cost_dist.csv").is_file()
    assert (out / "hamming_dist.csv").is_file()
    run_files = sorted((out / "runs").iterdir())
    assert [p.name for p in run_files] == ["run_000.csv", "run_001.csv", "run_002.csv"]

    lines = (out / "trajectory.csv").read_text().splitlines()
    assert lines[0] == ("iter_index,mean_best_cut,sem_best_cut,mean_ratio,"
                        "sem_ratio,mean_cumulative_ratio")
    assert len(lines) == 1 + 4

    run_lines = run_files[0].read_text().splitlines()
    assert run_lines[0] == ("iter_index,best_cut,best_energy,cumulative_best_cut,"
                            "attractor_energy,best_hamming_weight")
    assert len(run_lines) == 1 + 4

    meta = read_meta(out)
    assert meta["n"] == "12" and meta["runs"] == "3"
    assert meta["sampler.kind"] == "classical-bernoulli"
    assert float(meta["e_sa_cut"]) == summary["e_sa_cut"] > 0
    assert meta["brute_force_cut"] != "-"  # n = 12 is within the exact cap
    assert summary["final_mean_ratio"] == pytest.approx(
        float(lines[-1].split(",")[3]), abs=1e-9)


def test_meta_records_fresh_circuit_and_patience(tmp_path):
    # both change results, so two runs that differ only in one must differ in meta.txt
    circuit = ("instance.family = unweighted-sparse\ninstance.n = 6\nsampler.kind = "
               "random-circuit\nndar.shots = 50\nndar.iters = 2\nruns = 1\nsa.sweeps = 10\n")
    metas = {}
    for fresh in ("false", "true"):
        cfg = ExperimentConfig.from_file(write_config(
            tmp_path, circuit + f"sampler.fresh_circuit = {fresh}\n", f"rc_{fresh}.cfg"))
        run_experiment(cfg, out_dir=tmp_path / fresh)
        metas[fresh] = read_meta(tmp_path / fresh)
        assert metas[fresh]["sampler.fresh_circuit"] == fresh
        assert metas[fresh]["ndar.patience"] == "-"
    assert [k for k in metas["true"] if metas["true"][k] != metas["false"][k]] == [
        "sampler.fresh_circuit"]

    stop = tmp_path / "stop"
    run_experiment(ExperimentConfig.from_file(write_config(
        tmp_path, SMOKE + "ndar.patience = 2\n", "stop.cfg")), out_dir=stop)
    meta = read_meta(stop)
    assert meta["ndar.patience"] == "2"
    assert meta["sampler.fresh_circuit"] == "-"  # only the random circuit draws circuits


@pytest.mark.parametrize("kind", ["classical-bernoulli", "qaoa"])
def test_run_reads_edges_and_couplings_as_arrays_only(tmp_path, monkeypatch, kind):
    def refuse(view, *args):
        raise AssertionError("an edge or coupling view was iterated")

    monkeypatch.setattr(TripleView, "__iter__", refuse)
    monkeypatch.setattr(TripleView, "__getitem__", refuse)
    text = SMOKE.replace("sampler.kind = classical-bernoulli", f"sampler.kind = {kind}")
    cfg = ExperimentConfig.from_file(write_config(tmp_path, text))
    summary = run_experiment(cfg, out_dir=tmp_path / "out")
    assert summary["e_sa_cut"] > 0 and (tmp_path / "out" / "meta.txt").is_file()


def test_qaoa_experiment_simulates_its_state_once(tmp_path, monkeypatch):
    calls = []
    simulate = ndar.engine.simulate

    def counting(circuit):
        calls.append(circuit)
        return simulate(circuit)

    monkeypatch.setattr(ndar.engine, "simulate", counting)
    text = SMOKE.replace("sampler.kind = classical-bernoulli", "sampler.kind = qaoa")
    cfg = ExperimentConfig.from_file(write_config(tmp_path, text))
    assert cfg.runs == 3
    out = tmp_path / "out"
    run_experiment(cfg, out_dir=out)
    assert len(calls) == 1
    # a run that simulates its own state writes the same cuts as the shared one
    model = maxcut_to_ising(load_instance(cfg))
    seed = ndar.derive_seed(cfg.seed, harness._STREAM_RUN, 2)
    alone = ndar.run_ndar(model, build_sampler(cfg, model), replace(cfg.ndar, master_seed=seed))
    rows = (out / "runs" / "run_002.csv").read_text().splitlines()[1:]
    assert [float(r.split(",")[1]) for r in rows] == [rec.best_cut for rec in alone.trace]
    assert len(calls) == 2


def test_trajectory_recomputable_from_run_files(tmp_path):
    cfg = ExperimentConfig.from_file(write_config(tmp_path, SMOKE))
    out = tmp_path / "out"
    run_experiment(cfg, out_dir=out)
    meta = read_meta(out)
    sa_cut = float(meta["e_sa_cut"])
    per_run = []
    for p in sorted((out / "runs").iterdir()):
        rows = [ln.split(",") for ln in p.read_text().splitlines()[1:]]
        per_run.append([float(r[1]) for r in rows])
    cuts = np.array(per_run)
    cum = np.maximum.accumulate(cuts, axis=1)
    for k, line in enumerate((out / "trajectory.csv").read_text().splitlines()[1:]):
        vals = [float(v) for v in line.split(",")]
        assert vals[0] == k
        assert vals[1] == pytest.approx(cuts[:, k].mean(), abs=1e-9)
        assert vals[3] == pytest.approx((cuts[:, k] / sa_cut).mean(), abs=1e-9)
        assert vals[5] == pytest.approx((cum[:, k] / sa_cut).mean(), abs=1e-9)
    # cumulative column inside each run file is the running max of best_cut
    rows = [ln.split(",") for ln in
            sorted((out / "runs").iterdir())[0].read_text().splitlines()[1:]]
    running = -np.inf
    for r in rows:
        running = max(running, float(r[1]))
        assert float(r[3]) == running
        assert float(r[1]) == -float(r[2])


def test_outputs_byte_identical_across_reruns_and_threads(tmp_path):
    path = write_config(tmp_path, SMOKE)
    dirs = [tmp_path / f"d{k}" for k in range(3)]
    cfg = ExperimentConfig.from_file(path)
    run_experiment(cfg, out_dir=dirs[0])
    run_experiment(cfg, out_dir=dirs[1])
    run_experiment(cfg, out_dir=dirs[2])
    base = snapshot(dirs[0])
    assert base == snapshot(dirs[1])
    assert base == snapshot(dirs[2])


@pytest.mark.parametrize("family", ["weighted-dense", "unweighted-sparse"])
def test_outputs_byte_identical_across_openblas_thread_counts(tmp_path, family):
    # +-1 and integer weights make every BLAS sum exact, whatever its blocking; the
    # sparse graph's annealer classes hold many spins, so its field updates sum products
    path = write_config(tmp_path, f"""\
instance.family = {family}
instance.n = 150
instance.seed = 5
sampler.kind = classical-bernoulli
sampler.q = 0.9
ndar.shots = 4000
ndar.iters = 3
sa.reads = 40
sa.sweeps = 30
runs = 2
""")
    src = str(Path(ndar.__file__).resolve().parents[1])
    dirs = []
    for threads in ("1", "2"):
        env = {**os.environ, "OPENBLAS_NUM_THREADS": threads,
               "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}
        dirs.append(tmp_path / f"blas{threads}")
        subprocess.run([sys.executable, "-m", "ndar.cli", "run", "--config", str(path),
                        "--out", str(dirs[-1])], env=env, check=True, capture_output=True,
                       timeout=300)
    assert snapshot(dirs[0]) == snapshot(dirs[1])


def test_aggregate_guards_and_sem():
    with pytest.raises(ConfigError, match="reference cut is zero"):
        aggregate([[3.0, 4.0, 4.0]], 0.0)
    rows = aggregate([[3.0, 4.0, 4.0]], 10.0)
    assert all(r.sem_best_cut == 0.0 and r.sem_ratio == 0.0 for r in rows)  # single run
    assert [r.iter_index for r in rows] == [0, 1, 2]


def test_aggregate_carries_stopped_runs_forward():
    # the first run stops after two iterations, the second after four, the third after three
    rows = aggregate([[3.0, 5.0], [1.0, 2.0, 4.0, 3.0], [2.0, 6.0, 1.0]], 10.0)
    assert [r.iter_index for r in rows] == [0, 1, 2, 3]
    assert [r.mean_best_cut for r in rows] == [2.0, 13.0 / 3.0, 10.0 / 3.0, 14.0 / 3.0]
    assert rows[3].mean_cumulative_ratio == pytest.approx((5.0 + 4.0 + 6.0) / 30.0)


def test_report_text_and_svg(tmp_path):
    cfg = ExperimentConfig.from_file(write_config(tmp_path, SMOKE))
    out = tmp_path / "out"
    run_experiment(cfg, out_dir=out)
    text = report(out)
    assert "final mean ratio" in text and "E_SA" in text
    assert "single run" not in text
    text = report(out, svg=True)
    for name in ("ratio_trajectory.svg", "cost_dist.svg", "hamming_dist.svg"):
        assert (out / name).is_file(), name
        assert (out / name).read_text().startswith("<svg")
    with pytest.raises(ConfigError, match="missing trajectory.csv"):
        report(tmp_path / "nowhere")
    (tmp_path / "hollow").mkdir()
    (tmp_path / "hollow" / "stray.txt").write_text("x")
    with pytest.raises(ConfigError, match="stray.txt"):
        report(tmp_path / "hollow")


@pytest.mark.parametrize("text, fragment", [
    ("", "empty CSV"),
    (",".join(harness._TRAJECTORY_COLUMNS) + "\n0,1,0,1\n", "corrupt CSV row"),
    ("iter,cut\n0,1\n", "corrupt trajectory.csv"),
], ids=["empty", "ragged", "wrong-header"])
def test_report_refuses_a_broken_trajectory(tmp_path, text, fragment):
    (tmp_path / "trajectory.csv").write_text(text)
    with pytest.raises(ConfigError, match=fragment):
        report(tmp_path)


def test_charts_refuse_nothing_to_draw(tmp_path):
    from ndar import svgplot
    with pytest.raises(ValueError, match="at least one series"):
        svgplot.line_chart(tmp_path / "l.svg", "t", "x", "y", [])
    with pytest.raises(ValueError, match="at least one group"):
        svgplot.histogram_chart(tmp_path / "h.svg", "t", "x", "count", [])
    assert not list(tmp_path.iterdir())


def test_report_svg_reads_the_distributions_only_up_to_run_1(tmp_path, monkeypatch):
    cfg = ExperimentConfig.from_file(write_config(tmp_path, SMOKE))
    out = tmp_path / "out"
    run_experiment(cfg, out_dir=out)
    consumed = {}
    csv_rows = harness._csv_rows

    def counting_rows(path):
        for row in csv_rows(path):
            consumed.setdefault(Path(path).name, []).append(row)
            yield row

    monkeypatch.setattr(harness, "_csv_rows", counting_rows)
    report(out, svg=True)
    for name in ("cost_dist.csv", "hamming_dist.csv"):
        _, *rows = (line.split(",") for line in (out / name).read_text().splitlines())
        assert {row[0] for row in rows} == {"0", "1", "2"}  # three runs, run-major
        run0 = [row for row in rows if row[0] == "0"]
        # the header, every row of run 0, and the first row of run 1, which ends the scan
        assert consumed[name][1:] == run0 + [rows[len(run0)]]
        assert rows[len(run0)][0] == "1"


def test_histogram_bars_are_capped(tmp_path):
    from ndar import svgplot
    cap = svgplot.MAX_BARS
    frame = 2 + 2  # background, plot frame, and a legend swatch per group

    def rects(groups):
        svgplot.histogram_chart(tmp_path / "h.svg", "t", "x", "count", groups)
        return (tmp_path / "h.svg").read_text().count("<rect")

    at_cap = [{"label": f"iteration {j}", "centers": [0.5 * k for k in range(cap)],
               "counts": [j + 1] * cap} for j in range(2)]
    assert rects(at_cap) == frame + 2 * cap  # one bar per center, as without a cap
    many = [{"label": "iteration 0", "centers": list(range(10 * cap)), "counts": [1] * (10 * cap)},
            {"label": "iteration 9", "centers": [0.5, 7.0 * cap], "counts": [3, 4]}]
    assert rects(many) <= frame + 2 * cap
    binned = svgplot._binned(many, 0.0, 10 * cap - 1.0)
    assert [sum(g["counts"]) for g in binned] == [10 * cap, 7]
    assert len(binned[0]["centers"]) == cap
    assert set(binned[1]["centers"]) <= set(binned[0]["centers"])  # the groups share the bins


def test_report_flags_single_run(tmp_path):
    text = SMOKE.replace("runs = 3", "runs = 1")
    cfg = ExperimentConfig.from_file(write_config(tmp_path, text))
    out = tmp_path / "one"
    run_experiment(cfg, out_dir=out)
    assert "single run, sem = 0" in report(out)


def test_params_search_matches_grid_minimum(tmp_path):
    text = """\
instance.family = weighted-dense
instance.n = 6
instance.seed = 2
sampler.kind = qaoa
sampler.grid_steps = 5
sampler.gamma_min = -0.9
sampler.gamma_max = 0.9
sampler.beta_min = -0.5
sampler.beta_max = 0.5
"""
    cfg = ExperimentConfig.from_file(write_config(tmp_path, text))
    out = tmp_path / "scan"
    best, best_val = params_search(cfg, out_dir=out)
    model = maxcut_to_ising(load_instance(cfg))
    assert best == optimize_params(model, (-0.9, 0.9), (-0.5, 0.5), steps=5)
    rows = (out / "landscape.csv").read_text().splitlines()
    assert rows[0] == "gamma,beta,expectation"
    assert len(rows) == 1 + 25
    assert min(float(r.split(",")[2]) for r in rows[1:]) == pytest.approx(best_val, abs=1e-9)
    # the harness sampler builder lands on the same angles
    spec = build_sampler(cfg, model)
    assert spec.params == best
    with pytest.raises(ConfigError, match="grid"):
        grid_search(model, ExperimentConfig(family="weighted-dense", n=6, sampler_kind="qaoa",
                                            grid_steps=0))


def test_cli_gen_instance_and_run(tmp_path, capsys):
    inst = tmp_path / "g.txt"
    assert main(["gen-instance", "--family", "unweighted-sparse", "--n", "10",
                 "--density", "0.5", "--seed", "2", "--out", str(inst)]) == 0
    assert "edges" in capsys.readouterr().out
    text = SMOKE.replace("instance.family = unweighted-sparse", f"instance.file = {inst}")
    text = "\n".join(ln for ln in text.splitlines()
                     if not ln.startswith(("instance.n", "instance.density", "instance.seed")))
    cfg_path = write_config(tmp_path, text)
    out = tmp_path / "cli_out"
    assert main(["run", "--config", str(cfg_path), "--out", str(out)]) == 0
    captured = capsys.readouterr().out
    assert "final mean ratio" in captured
    assert (out / "trajectory.csv").is_file()
    assert main(["report", str(out)]) == 0
    assert "final mean ratio" in capsys.readouterr().out


def test_cli_seed_override_changes_outputs(tmp_path):
    path = write_config(tmp_path, SMOKE)
    a, b = tmp_path / "a", tmp_path / "b"
    assert main(["run", "--config", str(path), "--out", str(a), "--seed", "5"]) == 0
    assert main(["run", "--config", str(path), "--out", str(b), "--seed", "6"]) == 0
    meta_a = read_meta(a)
    meta_b = read_meta(b)
    assert meta_a["experiment_seed"] == "5" and meta_b["experiment_seed"] == "6"
    assert (a / "trajectory.csv").read_bytes() != (b / "trajectory.csv").read_bytes()
    # the config-file seed is 5, so run a must equal a run without the flag
    c = tmp_path / "c"
    assert main(["run", "--config", str(path), "--out", str(c)]) == 0
    assert (a / "trajectory.csv").read_bytes() == (c / "trajectory.csv").read_bytes()


def test_cli_sa_baseline_and_params_search(tmp_path, capsys):
    path = write_config(tmp_path, SMOKE)
    assert main(["sa-baseline", "--config", str(path)]) == 0
    assert "E_SA cut" in capsys.readouterr().out
    qtext = """\
instance.family = weighted-dense
instance.n = 5
instance.seed = 1
sampler.kind = qaoa
sampler.grid_steps = 4
"""
    qpath = write_config(tmp_path, qtext, name="q.cfg")
    assert main(["params-search", "--config", str(qpath), "--out", str(tmp_path / "ps")]) == 0
    assert "best gamma" in capsys.readouterr().out


WEAK_SA = """\
instance.family = weighted-dense
instance.n = 40
instance.seed = 2
sampler.kind = classical-bernoulli
sampler.q = 0.9
ndar.shots = 20
ndar.iters = 1
runs = 1
sa.reads = 1
sa.sweeps = 2
"""


def test_cli_sa_baseline_reports_the_run_e_sa(tmp_path, capsys):
    # a weak annealer makes E_SA depend on its seed, so a seed mismatch between commands shows
    path = write_config(tmp_path, WEAK_SA)
    cuts = set()
    for k, extra in enumerate(([], ["--seed", "3"], ["--seed", "4"])):
        out = tmp_path / f"run{k}"
        assert main(["run", "--config", str(path), "--out", str(out), *extra]) == 0
        capsys.readouterr()
        meta = read_meta(out)
        assert main(["sa-baseline", "--config", str(path), *extra]) == 0
        assert f"E_SA cut = {meta['e_sa_cut']} (" in capsys.readouterr().out
        cuts.add(meta["e_sa_cut"])
    assert len(cuts) == 3  # --seed reaches the annealer


def test_cli_error_exit_codes(tmp_path, capsys):
    assert main(["run", "--config", str(tmp_path / "none.cfg")]) == 2
    assert "config error" in capsys.readouterr().err
    bad = write_config(tmp_path, SMOKE + "mystery = 1\n", name="bad.cfg")
    assert main(["run", "--config", str(bad)]) == 2
    capsys.readouterr()
    assert main(["report", str(tmp_path / "missing_dir")]) == 2
    capsys.readouterr()
    # a qubit count beyond the statevector cap maps to the resource exit code
    big = write_config(tmp_path, """\
instance.family = unweighted-sparse
instance.n = 30
instance.seed = 0
sampler.kind = qaoa
sampler.gammas = 0.4
sampler.betas = 0.2
ndar.shots = 10
ndar.iters = 1
sa.reads = 2
sa.sweeps = 10
runs = 1
""", name="big.cfg")
    assert main(["run", "--config", str(big), "--out", str(tmp_path / "big_out")]) == 3
    assert "resource limit" in capsys.readouterr().err
    # an output directory under a regular file cannot be made: an i/o error, nothing written
    path = write_config(tmp_path, SMOKE, name="smoke.cfg")
    (tmp_path / "plain").write_text("x")
    before = snapshot(tmp_path)
    assert main(["run", "--config", str(path), "--out", str(tmp_path / "plain" / "sub")]) == 2
    assert "i/o error" in capsys.readouterr().err
    assert snapshot(tmp_path) == before and sorted(p.name for p in tmp_path.iterdir()) == [
        "bad.cfg", "big.cfg", "plain", "smoke.cfg"]


def test_node_cap_refuses_huge_graphs_before_allocating(tmp_path, capsys):
    huge = tmp_path / "huge.txt"
    huge.write_text("100000000 0\n")
    # the header decides: no edge line after an over-cap header is read
    long = tmp_path / "long.txt"
    long.write_text("5000 100000\n" + "0 1 1\n" * 100000)
    sources = (f"instance.file = {huge}\n", f"instance.file = {long}\n",
               "instance.family = unweighted-sparse\ninstance.n = 1000000\n")
    for k, source in enumerate(sources):
        path = write_config(tmp_path, source + "sampler.q = 0.9\n", name=f"huge{k}.cfg")
        tracemalloc.start()
        try:
            code = main(["run", "--config", str(path), "--out", str(tmp_path / "out")])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 3
        assert "node cap" in capsys.readouterr().err
        assert peak < 1 << 20


OVER_CAP = """\
instance.family = unweighted-sparse
instance.n = 23
instance.seed = 0
sampler.kind = qaoa
sampler.grid_steps = 2
ndar.shots = 10
ndar.iters = 1
runs = 1
"""


@pytest.mark.parametrize("angles", ["", "sampler.gammas = 0.4\nsampler.betas = 0.2\n"])
def test_over_cap_qaoa_fails_before_the_baselines(tmp_path, capsys, monkeypatch, angles):
    def forbidden(*args, **kwargs):
        raise AssertionError("the annealer ran before the qubit cap was checked")

    monkeypatch.setattr(harness, "sa_solve", forbidden)
    monkeypatch.setattr(harness, "brute_force_best", forbidden)
    path = write_config(tmp_path, OVER_CAP + angles)
    assert main(["run", "--config", str(path), "--out", str(tmp_path / "out")]) == 3
    assert "resource limit" in capsys.readouterr().err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["exp.cfg"]


def test_params_search_runs_beyond_the_qubit_cap(tmp_path, capsys):
    # the grid search builds no 2^n state, so the qubit cap binds samplers only
    text = OVER_CAP.replace("instance.n = 23", "instance.n = 80").replace(
        "sampler.grid_steps = 2", "sampler.grid_steps = 5")
    path = write_config(tmp_path, text)
    out = tmp_path / "scan"
    assert main(["params-search", "--config", str(path), "--out", str(out)]) == 0
    assert "best gamma" in capsys.readouterr().out
    rows = (out / "landscape.csv").read_text().splitlines()
    assert rows[0] == "gamma,beta,expectation" and len(rows) == 1 + 25


@pytest.mark.parametrize("command", ["run", "params-search"])
def test_huge_grid_fails_before_allocating(tmp_path, capsys, monkeypatch, command):
    def forbidden(*args, **kwargs):
        raise AssertionError("the annealer ran before the grid size was checked")

    monkeypatch.setattr(harness, "sa_solve", forbidden)
    text = OVER_CAP.replace("instance.n = 23", "instance.n = 12").replace(
        "sampler.grid_steps = 2", "sampler.grid_steps = 1000000000")
    path = write_config(tmp_path, text)
    tracemalloc.start()
    try:
        code = main([command, "--config", str(path), "--out", str(tmp_path / "out")])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 3
    assert f"capped at {GRID_STEPS_CAP} steps" in capsys.readouterr().err
    assert peak < 1 << 20
    assert sorted(p.name for p in tmp_path.iterdir()) == ["exp.cfg"]


@pytest.mark.parametrize("key", ["ndar.shots", "ndar.iters", "ndar.patience"])
def test_bad_ndar_values_fail_before_the_baselines(tmp_path, capsys, monkeypatch, key):
    def forbidden(*args, **kwargs):
        raise AssertionError("the annealer or the loop ran before the loop settings were checked")

    monkeypatch.setattr(harness, "sa_solve", forbidden)
    monkeypatch.setattr(harness, "run_ndar", forbidden)
    text = re.sub(rf"^{re.escape(key)} = .*\n", "", SMOKE, flags=re.M) + f"{key} = 0\n"
    path = write_config(tmp_path, text)
    assert main(["run", "--config", str(path), "--out", str(tmp_path / "out")]) == 2
    assert "must be >= 1" in capsys.readouterr().err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["exp.cfg"]


@pytest.mark.parametrize("kind, settings, key, code", [
    ("classical-bernoulli", "ndar.shots = 0", "ndar.shots", 2),
    ("classical-bernoulli", "ndar.iters = 0", "ndar.iters", 2),
    ("classical-bernoulli", "ndar.patience = 0", "ndar.patience", 2),
    ("classical-bernoulli", "sampler.q = 1.5", "sampler.q", 2),
    ("qaoa", "sampler.q = 5", "sampler.q", 2),
    ("random-circuit", "sampler.q = -1", "sampler.q", 2),
    ("classical-bernoulli", "sampler.depth = 0", "sampler.depth", 2),
    ("qaoa", "sampler.depth = 0", "sampler.depth", 2),
    ("classical-bernoulli", "sampler.t1 = 0", "sampler.t1", 2),
    ("classical-bernoulli", "sampler.t_delay = -1", "sampler.t_delay", 2),
    ("qaoa", "sampler.gammas = 0.1\nsampler.betas = 0.1,0.2", "sampler.gammas", 2),
    ("classical-bernoulli", "sa.beta_min = 0", "sa.beta_min", 2),
    ("classical-bernoulli", "sa.beta_min = 20", "sa.beta_min", 2),
    ("qaoa", "sampler.grid_steps = 0", "sampler.grid_steps", 2),
    ("classical-bernoulli", "sampler.grid_steps = 0", "sampler.grid_steps", 2),
    ("classical-bernoulli", "sampler.grid_steps = 1000", "sampler.grid_steps", 3),
    ("classical-bernoulli", "sampler.gamma_min = nan", "sampler.gamma_min", 2),
    ("qaoa", "sampler.gamma_min = 9e307", "sampler.gamma_min", 2),
    ("classical-bernoulli", "ndar.seed = -1", "ndar.seed", 2),
    ("classical-bernoulli", "sa.seed = -1", "sa.seed", 2),
])
def test_every_command_refuses_a_bad_value_and_names_its_key(tmp_path, capsys, kind, settings,
                                                             key, code):
    keys = [line.split(" = ")[0] for line in settings.splitlines()] + ["sampler.kind"]
    text = "".join(line + "\n" for line in SMOKE.splitlines() if line.split(" = ")[0] not in keys)
    path = write_config(tmp_path, f"{text}sampler.kind = {kind}\n{settings}\n")
    for command in ("run", "sa-baseline", "params-search"):
        args = [command, "--config", str(path)]
        if command != "sa-baseline":
            args += ["--out", str(tmp_path / "out")]
        assert main(args) == code, command
        assert key in capsys.readouterr().err, command
    assert sorted(p.name for p in tmp_path.iterdir()) == ["exp.cfg"]


def test_a_seed_flag_does_not_skip_parsing_ndar_seed(tmp_path, capsys):
    path = write_config(tmp_path, SMOKE.replace("ndar.seed = 5", "ndar.seed = abc"))
    out = ["--out", str(tmp_path / "out")]
    for args in (["run", *out], ["run", *out, "--seed", "5"], ["sa-baseline", "--seed", "5"],
                 ["params-search", *out]):
        assert main([args[0], "--config", str(path), *args[1:]]) == 2, args
        assert "'ndar.seed': cannot parse 'abc'" in capsys.readouterr().err, args
    assert sorted(p.name for p in tmp_path.iterdir()) == ["exp.cfg"]


@pytest.mark.parametrize("command", ["run", "params-search"])
def test_a_landscape_that_is_not_finite_is_refused(tmp_path, capsys, monkeypatch, command):
    # J = 8.5e307, so 2 * gamma * J overflows at the default bounds gamma = +-pi/2
    def forbidden(*args, **kwargs):
        raise AssertionError("the annealer ran on angles from a landscape that is not finite")

    monkeypatch.setattr(harness, "sa_solve", forbidden)
    (tmp_path / "g.txt").write_text("3 2\n0 1 1.7e308\n1 2 1\n")
    text = f"instance.file = {tmp_path / 'g.txt'}\nsampler.kind = qaoa\n"
    path = write_config(tmp_path, text)
    assert main([command, "--config", str(path), "--out", str(tmp_path / "out")]) == 2
    assert "landscape not finite over gamma in (-1.57" in capsys.readouterr().err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["exp.cfg", "g.txt"]


@pytest.mark.parametrize("command", ["run", "sa-baseline"])
@pytest.mark.parametrize("key", ["sa.reads", "sa.sweeps"])
def test_oversized_annealer_fails_before_the_instance_is_built(tmp_path, capsys, monkeypatch,
                                                               key, command):
    def forbidden(*args, **kwargs):
        raise AssertionError("the instance was built before the annealer budget was checked")

    monkeypatch.setattr(harness, "gen_weighted_dense", forbidden)
    text = ("instance.family = weighted-dense\ninstance.n = 300\nsampler.q = 0.9\n"
            f"{key} = 2000000000\n")
    args = [command, "--config", str(write_config(tmp_path, text))]
    if command == "run":
        args += ["--out", str(tmp_path / "out")]
    tracemalloc.start()
    try:
        code = main(args)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 3
    assert "resource limit" in capsys.readouterr().err
    assert peak < 1 << 20
    assert sorted(p.name for p in tmp_path.iterdir()) == ["exp.cfg"]


@pytest.mark.parametrize("command", ["run", "sa-baseline", "params-search"])
@pytest.mark.parametrize("key", ["ndar.shots", "runs", "sampler.depth"])
def test_oversized_loop_settings_fail_before_the_instance_is_built(tmp_path, capsys,
                                                                   monkeypatch, key, command):
    def forbidden(*args, **kwargs):
        raise AssertionError("the instance was built before the size budget was checked")

    monkeypatch.setattr(harness, "gen_weighted_dense", forbidden)
    text = ("instance.family = weighted-dense\ninstance.n = 300\nsampler.q = 0.9\n"
            f"{key} = 2000000000\n")
    args = [command, "--config", str(write_config(tmp_path, text))]
    if command != "sa-baseline":
        args += ["--out", str(tmp_path / "out")]
    tracemalloc.start()
    try:
        code = main(args)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 3
    assert "exceeds the cap" in capsys.readouterr().err
    assert peak < 1 << 20
    assert sorted(p.name for p in tmp_path.iterdir()) == ["exp.cfg"]


def test_edgeless_graph_fails_before_any_ndar_run(tmp_path, capsys, monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("an NDAR run started on a zero reference cut")

    monkeypatch.setattr(harness, "run_ndar", forbidden)
    path = write_config(tmp_path, SMOKE.replace("instance.density = 0.4", "instance.density = 0.0"))
    assert main(["run", "--config", str(path), "--out", str(tmp_path / "out")]) == 2
    assert "reference cut is zero" in capsys.readouterr().err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["exp.cfg"]


def test_readme_config_example_parses(tmp_path):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    blocks = re.findall(r"^```\n(.*?)^```$", readme, flags=re.M | re.S)
    example = [b for b in blocks if "instance.family = " in b]
    assert len(example) == 1
    cfg = ExperimentConfig.from_file(write_config(tmp_path, example[0]))
    assert cfg.family == "unweighted-sparse" and cfg.n == 80 and cfg.instance_seed == 1
    assert cfg.sampler_kind == "classical-bernoulli" and cfg.q == 0.95
    assert (cfg.shots, cfg.iters, cfg.seed, cfg.runs) == (1000, 12, 0, 10)
    assert cfg.output_dir == "results"


def test_failed_run_leaves_the_output_directory_as_it_was(tmp_path, monkeypatch):
    path = write_config(tmp_path, SMOKE)
    out = tmp_path / "out"
    run_experiment(ExperimentConfig.from_file(path), out_dir=out)
    before = snapshot(out)
    write_lines = harness._write_lines

    def failing_meta(target, lines):
        if target.name == "meta.txt":
            raise OSError("disk full")
        write_lines(target, lines)

    monkeypatch.setattr(harness, "_write_lines", failing_meta)
    other_seed = replace(ExperimentConfig.from_file(path), seed=6)
    for target in (out, tmp_path / "fresh"):
        with pytest.raises(OSError, match="disk full"):
            run_experiment(other_seed, out_dir=target)
    assert snapshot(out) == before
    assert not (tmp_path / "fresh" / "trajectory.csv").exists()
    assert sorted(p.name for p in tmp_path.iterdir()) == ["exp.cfg", "out"]
    # a later run that succeeds replaces the earlier result in the existing directory
    monkeypatch.setattr(harness, "_write_lines", write_lines)
    run_experiment(other_seed, out_dir=out)
    run_experiment(other_seed, out_dir=tmp_path / "fresh")
    assert snapshot(out) == snapshot(tmp_path / "fresh") != before


def test_run_into_an_existing_directory_removes_the_earlier_run(tmp_path):
    out = tmp_path / "out"
    run_experiment(ExperimentConfig.from_file(write_config(tmp_path, SMOKE)), out_dir=out)
    report(out, svg=True)  # the figures of the earlier run go with it
    assert (out / "runs" / "run_002.csv").is_file() and (out / "cost_dist.csv").is_file()
    (out / "landscape.csv").write_text("kept\n")
    one_run = SMOKE.replace("runs = 3", "runs = 1")
    cfg = ExperimentConfig.from_file(write_config(tmp_path, one_run, "one.cfg"))
    run_experiment(cfg, out_dir=out)
    run_experiment(cfg, out_dir=tmp_path / "fresh")
    assert snapshot(out) == {**snapshot(tmp_path / "fresh"), "landscape.csv": b"kept\n"}
    assert sorted(p.name for p in (out / "runs").iterdir()) == ["run_000.csv"]
    assert not any(out.glob("*.svg"))


def test_a_run_that_fails_part_way_leaves_no_trace(tmp_path, monkeypatch):
    path = write_config(tmp_path, SMOKE)
    out = tmp_path / "out"
    run_experiment(ExperimentConfig.from_file(path), out_dir=out)
    before = snapshot(out)
    run_ndar = harness.run_ndar
    calls = []

    def fails_on_run_1(*args, **kwargs):
        calls.append(None)
        if len(calls) == 2:
            raise RuntimeError("run 1 failed")
        return run_ndar(*args, **kwargs)

    monkeypatch.setattr(harness, "run_ndar", fails_on_run_1)
    other_seed = replace(ExperimentConfig.from_file(path), seed=6)
    for target in (out, tmp_path / "fresh"):
        calls.clear()
        with pytest.raises(RuntimeError, match="run 1 failed"):
            run_experiment(other_seed, out_dir=target)
        assert len(calls) == 2
    assert snapshot(out) == before
    assert sorted(p.name for p in tmp_path.iterdir()) == ["exp.cfg", "out"]


def test_experiment_memory_does_not_grow_with_runs(tmp_path):
    # normal weights make nearly every sampled energy distinct, so a run has about one
    # cost_dist.csv row per shot and iteration; written as each run ends, the rows of all
    # runs are never held at once
    n = 30
    rng = np.random.default_rng(0)
    edges = [f"{i} {j} {rng.normal():.17g}" for i in range(n) for j in range(i + 1, n)]
    (tmp_path / "g.txt").write_text(f"{n} {len(edges)}\n" + "\n".join(edges) + "\n")

    def peak(runs):
        cfg = ExperimentConfig(instance_file=str(tmp_path / "g.txt"), q=0.5, shots=10000,
                               iters=2, runs=runs, sa_reads=4, sa_sweeps=20)
        tracemalloc.start()
        try:
            run_experiment(cfg, out_dir=tmp_path / f"out{runs}")
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    one, four = peak(1), peak(4)
    assert four < 1.5 * one, (one, four)


def test_config_table_leaves_defaults_to_the_dataclass(tmp_path):
    import dataclasses
    required = "instance.family = unweighted-sparse\ninstance.n = 12\nsampler.q = 0.9\n"
    cfg = ExperimentConfig.from_file(write_config(tmp_path, required))
    assert cfg == ExperimentConfig(family="unweighted-sparse", n=12, q=0.9)
    assert sorted(f for f, _ in harness._CONFIG_KEYS.values()) == sorted(
        f.name for f in dataclasses.fields(ExperimentConfig))


def test_run_help_states_each_key_default_cap_and_column_once(tmp_path, capsys):
    import dataclasses
    from ndar.annealing import SA_SPIN_BUDGET, SA_SWEEPS_CAP
    from ndar.circuits import DEPTH_CAP
    from ndar.engine import SAMPLER_KINDS, SHOTS_CAP
    from ndar.ising import NODE_CAP
    with pytest.raises(SystemExit):
        main(["run", "--help"])
    assert harness.run_epilog() in capsys.readouterr().out
    keys_section, files_section = harness.run_epilog().split("\noutput files:\n")
    lines = dict(re.findall(r"^  (\S+) +(.*)$", keys_section, re.MULTILINE))
    assert list(lines) == list(harness._CONFIG_KEYS)
    # a key line is its field's help text, then the default as meta.txt writes it, if any
    for f in dataclasses.fields(ExperimentConfig):
        default = "" if f.default is None else f" (default {harness._fmt(f.default)})"
        assert lines[f.metadata["key"]] == f.metadata["help"] + default
    caps = {"instance.n": NODE_CAP, "sampler.depth": DEPTH_CAP,
            "sampler.grid_steps": GRID_STEPS_CAP, "ndar.shots": SHOTS_CAP,
            "sa.reads": SA_SPIN_BUDGET, "sa.sweeps": SA_SWEEPS_CAP, "runs": harness.RUNS_CAP}
    for key, cap in caps.items():
        assert f"at most {cap}" in lines[key]
    assert all(name in lines["instance.family"] for name in harness.FAMILIES)
    assert all(kind in lines["sampler.kind"] for kind in SAMPLER_KINDS)
    # a file line names its columns as its writer wrote them in a run directory
    out = tmp_path / "out"
    run_experiment(ExperimentConfig.from_file(write_config(tmp_path, SMOKE)), out)
    files = dict(re.findall(r"^  (\S+) +(\S+)", files_section, re.MULTILINE))
    assert files.pop("meta.txt") and (out / "meta.txt").is_file()
    assert files == {
        "trajectory.csv": ",".join(harness._TRAJECTORY_COLUMNS),
        "runs/run_XXX.csv": ",".join(harness._RUN_COLUMNS),
        "cost_dist.csv": ",".join(harness._COST_COLUMNS),
        "hamming_dist.csv": ",".join(harness._HAMMING_COLUMNS)}
    written = [(re.sub(r"run_\d{3}", "run_XXX", str(p.relative_to(out))), p)
               for p in out.rglob("*.csv")]
    assert {name for name, _ in written} == set(files)
    for name, p in written:
        assert p.read_text().splitlines()[0] == files[name]


def test_fresh_output_directory_gets_the_mode_of_a_plain_mkdir(tmp_path):
    path = write_config(tmp_path, SMOKE)
    old = os.umask(0o022)
    try:
        run_experiment(ExperimentConfig.from_file(path), out_dir=tmp_path / "out")
        (tmp_path / "probe").mkdir()
    finally:
        os.umask(old)
    mode = stat.S_IMODE((tmp_path / "out").stat().st_mode)
    assert mode == stat.S_IMODE((tmp_path / "probe").stat().st_mode) == 0o755


def test_missing_output_dir_is_config_error(tmp_path):
    cfg = ExperimentConfig.from_file(write_config(tmp_path, SMOKE))
    with pytest.raises(ConfigError, match="output"):
        run_experiment(cfg)


def test_out_dot_writes_into_the_cwd(tmp_path, monkeypatch, capsys):
    path = write_config(tmp_path, SMOKE)
    assert main(["run", "--config", str(path), "--out", str(tmp_path / "ref")]) == 0
    ref = snapshot(tmp_path / "ref")
    monkeypatch.chdir(tmp_path)
    # an unset output directory is refused by run, and params-search then writes nothing
    for empty in ([], ["--out", ""]):
        assert main(["run", "--config", str(path), *empty]) == 2
        assert "no output directory" in capsys.readouterr().err
        assert main(["params-search", "--config", str(path), *empty]) == 0
        assert not (tmp_path / "landscape.csv").exists()
    assert main(["params-search", "--config", str(path), "--out", "."]) == 0
    assert len((tmp_path / "landscape.csv").read_text().splitlines()) == 401
    # a rerun replaces the run's files in the cwd and keeps the others
    for _ in range(2):
        assert main(["run", "--config", str(path), "--out", "."]) == 0
        assert {k: v for k, v in snapshot(tmp_path).items() if k in ref} == ref
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(
        ["exp.cfg", "ref", "landscape.csv", *(name for name in ref if "/" not in name), "runs"])
