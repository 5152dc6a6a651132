"""End-to-end acceptance checks.

Each test enforces one advertised guarantee at its stated tolerance and budget
and reports a PASS/FAIL line in the terminal summary (see conftest).
"""

import math
import tempfile
import time

import numpy as np
from conftest import record_criterion
from oracles import (all_bitstrings, build_qaoa_circuit, density_matrix_reference,
                     gauge_transform, optimize_params, qaoa_expectation)

from ndar import (DampingSpec, IsingModel, NdarConfig, QaoaParams, SaConfig, SamplerSpec,
                  apply_decay, born_tree, brute_force_best, build_random_circuit,
                  derive_seed, energies, energy, gen_unweighted, gen_weighted_dense,
                  maxcut_to_ising, run_ndar, sa_solve, sample, simulate)
from ndar.cli import main
from ndar.engine import KIND_CLASSICAL_BERNOULLI
from ndar.harness import FAMILY_UNWEIGHTED, FAMILY_WEIGHTED, ExperimentConfig, run_experiment


def _finish(name, problems, detail, elapsed, budget=None):
    if budget is not None and elapsed >= budget:
        problems.append(f"runtime {elapsed:.1f}s exceeds {budget:.0f}s budget")
    ok = not problems
    record_criterion(name, ok, detail + f" ({elapsed:.1f}s)")
    assert ok, "; ".join(problems)


def _random_model(rng, n):
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    keep = [p for p in pairs if rng.random() < 0.6]
    return IsingModel(n, tuple(rng.normal(size=n)),
                      tuple((i, j, float(rng.normal())) for i, j in keep),
                      float(rng.normal()))


def test_gauge_invariance_suite():
    t0 = time.perf_counter()
    problems = []
    rng = np.random.default_rng(1001)
    for m in range(50):
        n = int(rng.integers(2, 11))
        model = _random_model(rng, n)
        X = all_bitstrings(n)
        spectrum = np.sort(energies(model, X))
        zeros = np.zeros(n, dtype=np.uint8)
        for _ in range(20):
            y = rng.integers(0, 2, n).astype(np.uint8)
            t = gauge_transform(model, y)
            if not np.array_equal(np.sort(energies(t, X)), spectrum):
                problems.append(f"model {m}: spectrum multiset changed under mask {y}")
            if energy(t, zeros) != energy(model, y):
                problems.append(f"model {m}: attractor identity broken under mask {y}")
    _finish("gauge invariance (50 models x 20 masks, exact)", problems,
            f"{len(problems)} violations", time.perf_counter() - t0, budget=10.0)


def test_damping_channel_equivalence():
    t0 = time.perf_counter()
    problems = []
    shots = 1_000_000
    gammas = (0.1, 0.3, 0.5, 0.9)
    worst_analytic = 0.0
    worst_sigma = 0.0
    for k in range(20):
        n = 1 + k % 4
        circuit = build_random_circuit(n, 4, seed=2000 + k)
        gamma = gammas[k % len(gammas)]
        psi = simulate(circuit)
        ref = density_matrix_reference(circuit, gamma)

        # analytic cross-check: push |amp|^2 through the per-bit decay matrix
        t1 = np.array([[1.0, gamma], [0.0, 1.0 - gamma]])
        T = np.eye(1)
        for _ in range(n):
            T = np.kron(T, t1)
        analytic = T @ (np.abs(psi) ** 2)
        err = float(np.max(np.abs(analytic - ref)))
        worst_analytic = max(worst_analytic, err)
        if err > 1e-10:
            problems.append(f"circuit {k}: analytic mismatch {err:.2e}")

        tree = born_tree(np.abs(psi) ** 2)
        rows = apply_decay(sample(tree, shots, seed=3000 + k), gamma, seed=4000 + k)
        counts = np.bincount(rows @ (1 << np.arange(n)), minlength=1 << n)
        for z in range(1 << n):
            sd = math.sqrt(ref[z] * (1.0 - ref[z]) * shots)
            dev = abs(counts[z] - ref[z] * shots)
            if sd == 0.0:
                if dev != 0.0:
                    problems.append(f"circuit {k} outcome {z}: impossible outcome sampled")
            else:
                worst_sigma = max(worst_sigma, dev / sd)
                if dev > 5.0 * sd:
                    problems.append(f"circuit {k} outcome {z}: {dev / sd:.1f} sigma")
    _finish("damping channel vs Kraus oracle (20 circuits)", problems,
            f"max analytic err {worst_analytic:.1e}, max {worst_sigma:.2f} sigma at 1e6 shots",
            time.perf_counter() - t0, budget=60.0)


def test_qaoa_closed_form_and_covariance():
    t0 = time.perf_counter()
    problems = []
    single = IsingModel(1, (1.0,), ())
    worst = 0.0
    for gamma in np.linspace(-math.pi / 2, math.pi / 2, 20):
        for beta in np.linspace(-math.pi / 4, math.pi / 4, 20):
            got = qaoa_expectation(single, QaoaParams((float(gamma),), (float(beta),)))
            worst = max(worst, abs(got + math.sin(2 * beta) * math.sin(2 * gamma)))
    if worst > 1e-12:
        problems.append(f"closed-form deviation {worst:.2e} > 1e-12")

    rng = np.random.default_rng(1003)
    worst_tv = 0.0
    for n in (4, 6, 8):
        model = _random_model(rng, n)
        params = QaoaParams((0.45,), (0.2,))
        p0 = np.abs(simulate(build_qaoa_circuit(model, params))) ** 2
        idx = np.arange(1 << n)
        for _ in range(3):
            y = rng.integers(0, 2, n).astype(np.uint8)
            pt = np.abs(simulate(build_qaoa_circuit(gauge_transform(model, y), params))) ** 2
            yidx = int(y @ (1 << np.arange(n)))
            tv = 0.5 * float(np.abs(pt - p0[idx ^ yidx]).sum())
            worst_tv = max(worst_tv, tv)
            if tv > 1e-10:
                problems.append(f"n={n}: TV {tv:.2e} under mask {y}")
    _finish("QAOA closed form (20x20 grid) and sampling covariance", problems,
            f"grid err {worst:.1e}, max TV {worst_tv:.1e}", time.perf_counter() - t0)


_RATIOS: dict = {}


def _classical_ratio(family, n, density, inst_seed, q, shots, iters):
    key = (family, n, inst_seed, q, shots, iters)
    if key not in _RATIOS:
        cfg = ExperimentConfig(family=family, n=n, density=density, instance_seed=inst_seed,
                               sampler_kind=KIND_CLASSICAL_BERNOULLI, q=q, shots=shots,
                               iters=iters, seed=0, runs=10)
        with tempfile.TemporaryDirectory() as d:
            _RATIOS[key] = run_experiment(cfg, out_dir=d)["final_mean_ratio"]
    return _RATIOS[key]


def test_classical_ndar_80_node_ratios():
    t0 = time.perf_counter()
    problems = []
    ru = _classical_ratio(FAMILY_UNWEIGHTED, 80, 0.3, 1, 0.95, 1000, 12)
    if ru < 0.94:
        problems.append(f"unweighted ratio {ru:.4f} < 0.94")
    rw = _classical_ratio(FAMILY_WEIGHTED, 80, 0.3, 5, 0.95, 1000, 12)
    if rw < 0.82:
        problems.append(f"weighted ratio {rw:.4f} < 0.82")
    _finish("classical 80-node mean final ratio", problems,
            f"unweighted {ru:.4f} >= 0.94, weighted {rw:.4f} >= 0.82",
            time.perf_counter() - t0, budget=120.0)


def test_classical_ndar_300_node_ratios():
    t0 = time.perf_counter()
    problems = []
    ru = _classical_ratio(FAMILY_UNWEIGHTED, 300, 0.3, 2, 0.95, 10000, 20)
    if ru < 0.94:
        problems.append(f"unweighted ratio {ru:.4f} < 0.94")
    rw = _classical_ratio(FAMILY_WEIGHTED, 300, 0.3, 3, 0.95, 10000, 25)
    if rw < 0.65:
        problems.append(f"weighted ratio {rw:.4f} < 0.65")
    _finish("classical 300-node mean final ratio", problems,
            f"unweighted {ru:.4f} >= 0.94, weighted {rw:.4f} >= 0.65",
            time.perf_counter() - t0, budget=900.0)


def test_suppression_ordering():
    t0 = time.perf_counter()
    problems = []
    details = []
    for family, inst_seed in ((FAMILY_UNWEIGHTED, 1), (FAMILY_WEIGHTED, 5)):
        rs = [_classical_ratio(family, 80, 0.3, inst_seed, q, 1000, 12)
              for q in (0.95, 0.90, 0.85)]
        details.append(f"{family}: " + " >= ".join(f"{r:.3f}" for r in rs))
        if not rs[0] >= rs[1] >= rs[2]:
            problems.append(f"{family}: ratios not monotone in q: {rs}")
    _finish("ratio ordering r(0.95) >= r(0.90) >= r(0.85)", problems,
            "; ".join(details), time.perf_counter() - t0)


def test_quantum_ndar_damping_trend():
    t0 = time.perf_counter()
    problems = []
    model = maxcut_to_ising(gen_unweighted(14, 0.8, seed=29))
    params = optimize_params(model)
    finals = {}
    flat_detail = ""
    for k, t_delay in enumerate((0.0, 50.0, 100.0)):
        damping = DampingSpec(t_delay, 180.0)
        sampler = SamplerSpec("qaoa", params=params, damping=damping)
        firsts, lasts = [], []
        for r in range(10):
            cfg = NdarConfig(shots=1000, max_iters=8, master_seed=derive_seed(0, k, r))
            res = run_ndar(model, sampler, cfg)
            firsts.append(res.trace[0].best_cut)
            lasts.append(res.trace[-1].best_cut)
        finals[t_delay] = float(np.mean(lasts))
        if t_delay == 0.0:
            diffs = np.array(lasts) - np.array(firsts)
            sem = diffs.std(ddof=1) / math.sqrt(diffs.size)
            flat = abs(diffs.mean()) <= sem if sem > 0 else diffs.mean() == 0.0
            flat_detail = f"flat drift {diffs.mean():+.3f} vs sem {sem:.3f}"
            if not flat:
                problems.append(f"noiseless trajectory drifts: {flat_detail}")
    for t_delay, want in ((0.0, 0.0), (50.0, 0.243), (100.0, 0.426)):
        got = DampingSpec(t_delay, 180.0).gamma_damp
        if abs(got - want) > 1e-3:
            problems.append(f"gamma({t_delay}) = {got:.6f}, expected ~{want}")
    if not finals[100.0] > finals[0.0]:
        problems.append(f"no strict separation: {finals[100.0]} vs {finals[0.0]}")
    _finish("damped QAOA beats noiseless at n=14", problems,
            f"final cuts: gamma=0 -> {finals[0.0]:.2f}, 0.243 -> {finals[50.0]:.2f}, "
            f"0.426 -> {finals[100.0]:.2f}; {flat_detail}",
            time.perf_counter() - t0, budget=600.0)


def test_sa_finds_brute_force_optimum():
    t0 = time.perf_counter()
    problems = []
    rng = np.random.default_rng(808)
    hits = 0
    for k in range(20):
        n = int(rng.integers(8, 17))
        if k % 3 == 0:
            model = maxcut_to_ising(gen_unweighted(n, 0.5, seed=k))
        elif k % 3 == 1:
            model = maxcut_to_ising(gen_weighted_dense(n, seed=k))
        else:
            model = _random_model(rng, n)
        _, exact = brute_force_best(model)
        _, found = sa_solve(model, SaConfig(seed=k))
        hits += found == exact
    if hits < 18:
        problems.append(f"only {hits}/20 models solved to optimality")
    _finish("simulated annealing finds the exact optimum", problems,
            f"{hits}/20 models at defaults (>= 18 needed)",
            time.perf_counter() - t0, budget=60.0)


def test_run_outputs_are_deterministic(tmp_path):
    t0 = time.perf_counter()
    problems = []
    cfg_path = tmp_path / "exp.cfg"
    cfg_path.write_text("""\
instance.family = weighted-dense
instance.n = 40
instance.seed = 2
sampler.kind = classical-bernoulli
sampler.q = 0.93
ndar.shots = 400
ndar.iters = 6
ndar.seed = 7
sa.reads = 20
sa.sweeps = 200
runs = 6
""")
    outs = [tmp_path / f"o{k}" for k in range(3)]
    for out, threads in zip(outs, ("1", "1", "3")):
        code = main(["run", "--config", str(cfg_path), "--out", str(out),
                     "--threads", threads])
        if code != 0:
            problems.append(f"run into {out} exited {code}")
    if not problems:
        names = sorted(str(p.relative_to(outs[0])) for p in outs[0].rglob("*") if p.is_file())
        if not names:
            problems.append("no output files written")
        for other in outs[1:]:
            for name in names:
                if (outs[0] / name).read_bytes() != (other / name).read_bytes():
                    problems.append(f"{name} differs between {outs[0]} and {other}")
    _finish("byte-identical reruns, including --threads 3", problems,
            f"{len(list(outs[0].rglob('*.csv')))} CSVs compared across 3 executions",
            time.perf_counter() - t0)
