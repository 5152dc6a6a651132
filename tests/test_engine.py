"""Adaptive remapping loop invariants, sampler plumbing, and seeding."""

import dataclasses
import tracemalloc

import numpy as np
import pytest

from ndar import (DampingSpec, IsingModel, NdarConfig, QaoaParams, ResourceLimitError,
                  SamplerSpec, apply_decay, born_tree, brute_force_best, derive_seed, energies,
                  energy, gen_unweighted, gen_weighted_dense, maxcut_to_ising, run_ndar, sample,
                  simulate)
from ndar import engine, ising, simulator
from ndar.engine import SHOTS_CAP, _STREAM_DECAY, _STREAM_SAMPLE, _select_best
from oracles import (apply_mask, born_table, build_qaoa_circuit, classical_bernoulli_sample,
                     gauge_transform, sample_table)

Q95 = SamplerSpec("classical-bernoulli", q=0.95)


def small_model(n=8, density=0.5, seed=2):
    return maxcut_to_ising(gen_unweighted(n, density, seed))


def test_derive_seed_is_deterministic_and_path_sensitive():
    assert derive_seed(7, 0, 3) == derive_seed(7, 0, 3)
    assert derive_seed(7, 0, 3) != derive_seed(7, 1, 3)
    assert derive_seed(7, 0, 3) != derive_seed(7, 3, 0)
    assert derive_seed(7) != derive_seed(8)
    assert 0 <= derive_seed(0, 10, 0) < 2 ** 64


def all_ones(rows, n):
    """The classical sampler's source rows: a read-only all-ones view."""
    return np.broadcast_to(np.uint8(1), (rows, n))


@pytest.mark.parametrize("n, q, rows", [(7, 0.0, 436), (30, 0.3, 1000), (101, 0.5, 11),
                                        (300, 0.95, 436), (300, 1.0, 4), (7, 0.95, 3)])
def test_decayed_all_ones_is_the_classical_bernoulli_draw(n, q, rows):
    # bit for bit and on generator state, so run_ndar keeps the old classical stream
    rng_ref, rng = np.random.default_rng(n), np.random.default_rng(n)
    assert np.array_equal(apply_decay(all_ones(rows, n), q, rng),
                          classical_bernoulli_sample(n, q, rows, rng_ref))
    assert rng.bit_generator.state == rng_ref.bit_generator.state


def test_bernoulli_matches_decayed_all_ones_distribution():
    # suppressing each bit with prob q is the same channel as full decay with gamma = q
    n, shots, q = 4, 100000, 0.6
    probs = np.array([q ** (n - bin(z).count("1")) * (1 - q) ** bin(z).count("1")
                      for z in range(1 << n)])
    weights = 1 << np.arange(n)
    counts = np.bincount(apply_decay(all_ones(shots, n), q, seed=12) @ weights,
                         minlength=1 << n)
    chi2 = float((((counts - shots * probs) ** 2) / (shots * probs)).sum())
    assert chi2 < 37.7  # 99.9th percentile at 15 dof


def test_select_best_tie_rules():
    X = np.array([[1, 1, 0], [0, 1, 1], [0, 1, 0], [1, 0, 0]], dtype=np.uint8)
    E = np.array([5.0, 5.0, 5.0, 5.0])
    # weight ties at 1 between rows 2 and 3; bit 0 decides: 010 before 100
    assert _select_best(X, E) == 2
    assert _select_best(X, np.array([5.0, 5.0, 5.0, 4.0])) == 3
    assert _select_best(X, np.array([5.0, 4.0, 4.0, 5.0])) == 2  # weight 1 beats weight 2


def test_sampler_spec_validation():
    with pytest.raises(ValueError):
        SamplerSpec("unknown")
    with pytest.raises(ValueError):
        SamplerSpec("qaoa")  # params required
    with pytest.raises(ValueError):
        SamplerSpec("classical-bernoulli")  # q required
    with pytest.raises(ValueError):
        SamplerSpec("classical-bernoulli", q=1.5)
    with pytest.raises(ValueError):
        SamplerSpec("random-circuit", depth=0)
    # q and depth are checked whatever the kind reads
    with pytest.raises(ValueError, match="q must"):
        SamplerSpec("qaoa", params=QaoaParams((0.1,), (0.2,)), q=5.0)
    with pytest.raises(ValueError, match="depth"):
        SamplerSpec("classical-bernoulli", q=0.5, depth=0)
    spec = SamplerSpec("random-circuit", depth=3, fresh_circuit=True)
    assert spec.damping.gamma_damp == 0.0


def test_ndar_config_validation():
    with pytest.raises(ValueError):
        NdarConfig(shots=0, max_iters=5)
    with pytest.raises(ValueError):
        NdarConfig(shots=10, max_iters=0)
    with pytest.raises(ValueError):
        NdarConfig(shots=10, max_iters=5, patience=0)
    with pytest.raises(ValueError, match="master_seed"):
        NdarConfig(shots=10, max_iters=5, master_seed=-1)


def test_shots_cap_is_a_resource_limit():
    with pytest.raises(ResourceLimitError):
        NdarConfig(shots=SHOTS_CAP + 1, max_iters=1)
    assert NdarConfig(shots=SHOTS_CAP, max_iters=1).shots == SHOTS_CAP


def assert_same_result(a, b):
    assert len(a.trace) == len(b.trace)
    for x, y in zip(a.trace, b.trace):
        for field in dataclasses.fields(x):
            u, v = getattr(x, field.name), getattr(y, field.name)
            assert np.array_equal(u, v) if isinstance(u, np.ndarray) else u == v, field.name
    assert np.array_equal(a.best_bits_original_frame, b.best_bits_original_frame)
    assert a.best_energy_overall == b.best_energy_overall
    assert np.array_equal(a.final_mask, b.final_mask)
    assert len(a.distributions) == len(b.distributions)
    for (j, (u, c), w), (k, (v, d), x) in zip(a.distributions, b.distributions):
        assert j == k
        assert all(np.array_equal(*pair) for pair in ((u, v), (c, d), (w, x)))


@pytest.mark.parametrize("sampler", [
    Q95,
    SamplerSpec("classical-bernoulli", q=0.5),
    SamplerSpec("qaoa", params=QaoaParams((0.4,), (0.3,)), damping=DampingSpec(100.0, 180.0)),
    SamplerSpec("random-circuit", depth=3, damping=DampingSpec(60.0, 180.0), fresh_circuit=True),
], ids=["classical-0.95", "classical-0.5", "qaoa-damped", "random-circuit-damped"])
def test_chunked_iterations_equal_one_whole_batch(monkeypatch, sampler):
    # 203 shots are one chunk by default. Blocks of 63 entries are 7 rows of 9 bits, which
    # the rule rounds down to 6: 7 rows would hold an odd count of bits and shift every
    # later Bernoulli and decay draw. In chunks of 6 rows the last has 5
    model0 = small_model(9, 0.5, seed=3)
    cfg = NdarConfig(shots=203, max_iters=5, master_seed=4)
    whole = run_ndar(model0, sampler, cfg)
    monkeypatch.setattr(ising, "_BLOCK_ENTRIES", 7 * 9)
    assert ising.block_rows(9) == 6
    assert_same_result(run_ndar(model0, sampler, cfg), whole)


def test_block_rows_are_even_and_cover_2_to_the_17_entries():
    assert [ising.block_rows(n) for n in (18, 300, 301, 1024)] == [7280, 436, 434, 128]
    assert ising.block_rows(1 << 17) == ising.block_rows(1 << 18) == 2


@pytest.mark.parametrize("sampler, master_seed, trees, moves", [
    (SamplerSpec("qaoa", params=QaoaParams((0.4,), (0.3,)), damping=DampingSpec(100.0, 180.0)),
     4, 1, 1),
    (SamplerSpec("qaoa", params=QaoaParams((0.4,), (0.3,)), damping=DampingSpec(400.0, 180.0)),
     12, 1, 4),
    (SamplerSpec("random-circuit", depth=3, damping=DampingSpec(60.0, 180.0)), 4, 1, None),
    (SamplerSpec("random-circuit", depth=3, damping=DampingSpec(60.0, 180.0)), 5, 1, None),
    (SamplerSpec("random-circuit", depth=3, damping=DampingSpec(60.0, 180.0),
                 fresh_circuit=True), 4, 5, None),
], ids=["qaoa-attractor-wins", "qaoa-frame-always-moves", "reused-random-circuit-4",
        "reused-random-circuit-5", "fresh-random-circuit"])
def test_born_tree_is_built_once_per_state(monkeypatch, sampler, master_seed, trees, moves):
    built, draws = [], []

    def counting_tree(state):
        built.append(state.size)
        return born_tree(state)

    def counting_sample(tree, shots, seed, mask=0):
        draws.append(shots)
        return sample(tree, shots, seed, mask)

    monkeypatch.setattr(ising, "_BLOCK_ENTRIES", 6 * 9)
    monkeypatch.setattr(engine, "born_tree", counting_tree)
    monkeypatch.setattr(engine, "sample", counting_sample)
    model0 = small_model(9, 0.5, seed=3)
    cfg = NdarConfig(shots=203, max_iters=5, master_seed=master_seed)
    result = run_ndar(model0, sampler, cfg)
    # one tree per QAOA run, which builds its own when none is passed, and one per
    # drawn random circuit
    assert built == [1 << 9] * trees
    # 203 shots in chunks of 6 rows are 34 draws per iteration
    assert draws == ([6] * 33 + [5]) * 5
    if sampler.kind == "qaoa":
        # the frame moves after every iteration whose best sample is not the all-zeros
        # attractor, and every frame is drawn from the one tree
        assert sum(rec.best_bits.any() for rec in result.trace[:-1]) == moves
        assert_matches_reference(model0, sampler, cfg)


@pytest.mark.parametrize("sampler", [
    SamplerSpec("qaoa", params=QaoaParams((0.4,), (0.3,)), damping=DampingSpec(400.0, 180.0)),
    SamplerSpec("random-circuit", depth=2, fresh_circuit=True,
                damping=DampingSpec(60.0, 180.0)),
], ids=["qaoa", "fresh-random-circuit"])
def test_circuit_runs_hold_one_tree_and_the_scratch(sampler):
    n = 18
    model0 = small_model(n, 0.5, seed=3)
    cfg = NdarConfig(shots=2000, max_iters=3, master_seed=12)
    tree = engine.qaoa_tree(model0, sampler) if sampler.kind == "qaoa" else None
    energies(model0, np.zeros((1, n), dtype=np.uint8))  # caches the model's matrices
    tracemalloc.start()
    try:
        result = run_ndar(model0, sampler, cfg, tree=tree)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    if sampler.kind == "qaoa":
        assert result.trace[0].best_bits.any()  # so a moved frame was sampled
    state = 0 if sampler.kind == "qaoa" else 16 << n  # a random circuit's state
    # the state, which holds its own tree, the scratch and 1 MiB for a chunk's samples and
    # energies; |amplitude|^2 beside the state, or a previous circuit's tree, exceeds it
    assert peak <= state + 16 * simulator._SCRATCH + (1 << 20)


def test_qaoa_tree_is_built_in_its_state():
    n = 18
    model0 = small_model(n, 0.5, seed=3)
    sampler = SamplerSpec("qaoa", params=QaoaParams((0.4,), (0.3,)))
    tracemalloc.start()
    try:
        tree = engine.qaoa_tree(model0, sampler)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert sum(level.size for level in tree) == (2 << n) - 1
    # the state and the scratch; |amplitude|^2 beside the state exceeds it
    assert peak <= 16 * (1 << n) + 16 * simulator._SCRATCH + (1 << 20)


def test_dense_300_iteration_memory_is_bounded():
    model0 = maxcut_to_ising(gen_weighted_dense(300, seed=5))
    cfg = NdarConfig(shots=10000, max_iters=1, master_seed=2)
    run_ndar(model0, Q95, cfg)  # caches the model's matrices outside the measurement
    tracemalloc.start()
    try:
        run_ndar(model0, Q95, cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # one (2048, 300) chunk's Bernoulli words alone would be 2.3 MiB
    assert peak < 2 << 20


def test_trace_invariants_hold_exactly():
    model0 = small_model(10, 0.5, seed=4)
    cfg = NdarConfig(shots=300, max_iters=8, master_seed=3)
    result = run_ndar(model0, Q95, cfg)
    zeros = np.zeros(10, dtype=np.uint8)
    assert len(result.trace) == 8
    assert result.trace[0].attractor_energy == energy(model0, zeros)
    mask = zeros
    for j, rec in enumerate(result.trace):
        assert rec.iter_index == j
        assert rec.best_cut == -rec.best_energy
        mask = apply_mask(mask, rec.best_bits)
        assert np.array_equal(rec.cumulative_mask, mask)
        # the cumulative mask is the accepted bitstring in the original frame
        assert energy(model0, rec.cumulative_mask) == rec.best_energy
        if j + 1 < len(result.trace):
            assert result.trace[j + 1].attractor_energy == rec.best_energy
    assert np.array_equal(result.final_mask, mask)
    assert result.best_energy_overall == min(r.best_energy for r in result.trace)
    assert energy(model0, result.best_bits_original_frame) == result.best_energy_overall
    for _, (_, counts), weights in result.distributions:
        assert counts.sum() == weights.sum() == 300
    assert_distributions_match(result, reference_ndar(model0, Q95, cfg))


def test_all_zero_sampler_freezes_at_attractor():
    model0 = small_model(7, 0.6, seed=6)
    frozen = SamplerSpec("classical-bernoulli", q=1.0)
    result = run_ndar(model0, frozen, NdarConfig(shots=20, max_iters=5, master_seed=1))
    e0 = energy(model0, np.zeros(7, dtype=np.uint8))
    for rec in result.trace:
        assert rec.best_energy == e0
        assert rec.attractor_energy == e0
        assert not rec.best_bits.any()
        assert not rec.cumulative_mask.any()


def test_reaches_optimum_on_small_instances():
    model0 = small_model(10, 0.5, seed=1)
    _, best = brute_force_best(model0)
    hits = 0
    for master in range(10):
        cfg = NdarConfig(shots=500, max_iters=15, master_seed=master)
        if run_ndar(model0, Q95, cfg).best_energy_overall == best:
            hits += 1
    assert hits >= 9


def test_map_to_original_frame_round_trip():
    # the map from frame bits to the original frame is the XOR with the cumulative mask
    rng = np.random.default_rng(9)
    x, mask = rng.integers(0, 2, 12).astype(np.uint8), rng.integers(0, 2, 12).astype(np.uint8)
    y = apply_mask(mask, x)
    assert np.array_equal(y, np.bitwise_xor(x, mask))
    assert np.array_equal(apply_mask(mask, y), x)


def test_run_is_deterministic_in_master_seed():
    model0 = small_model(9, 0.4, seed=8)
    cfg = NdarConfig(shots=200, max_iters=6, master_seed=42)
    a = run_ndar(model0, Q95, cfg)
    b = run_ndar(model0, Q95, cfg)
    assert all(np.array_equal(x.best_bits, y.best_bits) for x, y in zip(a.trace, b.trace))
    assert [r.best_energy for r in a.trace] == [r.best_energy for r in b.trace]
    c = run_ndar(model0, Q95, NdarConfig(shots=200, max_iters=6, master_seed=43))
    assert [r.best_energy for r in a.trace] != [r.best_energy for r in c.trace]


def test_patience_stops_after_stalls():
    model0 = small_model(7, 0.6, seed=6)
    frozen = SamplerSpec("classical-bernoulli", q=1.0)  # never improves after iteration 0
    result = run_ndar(model0, frozen,
                      NdarConfig(shots=10, max_iters=50, master_seed=0, patience=3))
    assert len(result.trace) == 4


def test_patience_counts_from_the_first_lowest_record():
    # 4 shots at q = 0.9 improve in steps, so the run stalls, improves and only then stops
    model0 = small_model(12, 0.5, seed=2)
    result = run_ndar(model0, SamplerSpec("classical-bernoulli", q=0.9),
                      NdarConfig(shots=4, max_iters=30, master_seed=11, patience=2))
    e = [rec.best_energy for rec in result.trace]
    stalls = [j - e.index(min(e[:j + 1])) for j in range(len(e))]
    assert stalls == [0, 0, 1, 0, 1, 0, 1, 2]
    assert e[1] == e[2] and e[5] == e[6]  # a tie with the best is a stall, not an improvement
    assert result.best_energy_overall == e[5]
    assert np.array_equal(result.best_bits_original_frame, result.trace[5].cumulative_mask)


def test_qaoa_sampler_end_to_end():
    model0 = small_model(6, 0.7, seed=3)
    sampler = SamplerSpec("qaoa", params=QaoaParams((0.4,), (0.2,)),
                          damping=DampingSpec(100.0, 180.0))
    cfg = NdarConfig(shots=200, max_iters=5, master_seed=5)
    result = run_ndar(model0, sampler, cfg)
    again = run_ndar(model0, sampler, cfg)
    assert [r.best_energy for r in result.trace] == [r.best_energy for r in again.trace]
    for j, rec in enumerate(result.trace):
        assert energy(model0, rec.cumulative_mask) == rec.best_energy
        if j:
            assert rec.attractor_energy == result.trace[j - 1].best_energy
    # the damped attractor pull should not leave the best above the start
    assert result.best_energy_overall <= result.trace[0].best_energy


def test_random_circuit_sampler_fresh_flag_changes_draws():
    model0 = small_model(6, 0.5, seed=9)
    cfg = NdarConfig(shots=150, max_iters=4, master_seed=2)
    reused = run_ndar(model0, SamplerSpec("random-circuit", depth=3), cfg)
    fresh = run_ndar(model0, SamplerSpec("random-circuit", depth=3, fresh_circuit=True), cfg)
    assert len(reused.trace) == len(fresh.trace) == 4
    diffs = sum(not np.array_equal(a.best_bits, b.best_bits)
                for a, b in zip(reused.trace, fresh.trace))
    assert diffs >= 1
    for rec in reused.trace:
        assert energy(model0, rec.cumulative_mask) == rec.best_energy


def reference_ndar(model0, sampler, config):
    """Test oracle: the loop that gauge-transforms the model each iteration and scores there.

    QAOA simulates the circuit of each transformed model. Returns one (iter_index,
    best_bits, best_energy, cumulative_mask, attractor_energy, energy_histogram,
    hamming_histogram) tuple per iteration.
    """
    n = model0.n
    model, mask, zeros = model0, np.zeros(n, dtype=np.uint8), np.zeros(n, dtype=np.uint8)
    trace = []
    for j in range(config.max_iters):
        seed = derive_seed(config.master_seed, _STREAM_SAMPLE, j)
        if sampler.kind == "qaoa":
            psi = simulate(build_qaoa_circuit(model, sampler.params))
            X = sample_table(born_table(np.abs(psi) ** 2), config.shots, seed)
            X = apply_decay(X, sampler.damping.gamma_damp,
                            derive_seed(config.master_seed, _STREAM_DECAY, j))
        else:
            X = classical_bernoulli_sample(n, sampler.q, config.shots, seed)
        E = energies(model, X)
        y = X[_select_best(X, E)].copy()
        mask = apply_mask(mask, y)
        vals, counts = np.unique(E, return_counts=True)
        trace.append((j, y, energy(model, y), mask, energy(model, zeros),
                      tuple(zip(vals.tolist(), counts.tolist())),
                      tuple(np.bincount(X.sum(axis=1), minlength=n + 1).tolist())))
        model = gauge_transform(model, y)
    return trace


def assert_distributions_match(result, expected):
    """The run keeps the oracle's histograms of iteration 0 and of its own last iteration."""
    last = len(result.trace) - 1
    picks = [expected[0]] + ([expected[last]] if last else [])
    assert len(result.distributions) == len(picks)
    for (j, (values, counts), weights), ref in zip(result.distributions, picks):
        assert j == ref[0]
        assert tuple(zip(values.tolist(), counts.tolist())) == ref[5]
        assert tuple(weights.tolist()) == ref[6]


def assert_matches_reference(model0, sampler, cfg):
    result = run_ndar(model0, sampler, cfg)
    expected = reference_ndar(model0, sampler, cfg)
    assert len(result.trace) == len(expected)
    for rec, (j, y, e, mask, e_attr, _, _) in zip(result.trace, expected):
        assert rec.iter_index == j
        assert np.array_equal(rec.best_bits, y)
        assert rec.best_energy == e and rec.best_cut == -e
        assert np.array_equal(rec.cumulative_mask, mask)
        assert rec.attractor_energy == e_attr
    assert np.array_equal(result.final_mask, expected[-1][3])
    assert result.best_energy_overall == min(t[2] for t in expected)
    assert_distributions_match(result, expected)


def test_mask_loop_matches_gauge_transform_loop_dense_300():
    # n = 300 with thousands of shots takes the blocked BLAS path in energies
    model0 = maxcut_to_ising(gen_weighted_dense(300, seed=5))
    cfg = NdarConfig(shots=3000, max_iters=4, master_seed=11)
    assert_matches_reference(model0, Q95, cfg)


def test_mask_loop_matches_gauge_transform_loop_qaoa():
    sampler = SamplerSpec("qaoa", params=QaoaParams((0.4,), (0.3,)),
                          damping=DampingSpec(100.0, 180.0))
    cfg = NdarConfig(shots=400, max_iters=6, master_seed=12)
    assert_matches_reference(small_model(10, 0.6, seed=7), sampler, cfg)


@pytest.mark.parametrize("q", [0.0, 1.0])
def test_mask_loop_matches_gauge_transform_loop_classical_at_the_ends(q):
    # q = 0 skips the decay draw and scores the all-ones view itself; q = 1 flips every bit
    cfg = NdarConfig(shots=500, max_iters=3, master_seed=13)
    assert_matches_reference(small_model(9, 0.5, seed=4), SamplerSpec("classical-bernoulli", q=q),
                             cfg)


def test_patience_stopped_run_keeps_its_own_last_distribution():
    # the run of test_patience_counts_from_the_first_lowest_record stops at iteration 7;
    # the oracle runs on to max_iters, and its iteration 7 is the one the run stopped at
    model0 = small_model(12, 0.5, seed=2)
    sampler = SamplerSpec("classical-bernoulli", q=0.9)
    cfg = NdarConfig(shots=4, max_iters=30, master_seed=11, patience=2)
    result = run_ndar(model0, sampler, cfg)
    assert [j for j, _, _ in result.distributions] == [0, 7] and len(result.trace) == 8
    assert_distributions_match(result, reference_ndar(model0, sampler, cfg))


def test_kept_distributions_do_not_grow_with_iterations():
    # normal weights at q = 0.5: nearly every shot has an energy of its own, so each energy
    # histogram holds about one entry per shot
    rng = np.random.default_rng(1)
    iu, ju = np.triu_indices(30, 1)
    model0 = IsingModel(30, tuple(rng.normal(size=30)),
                        np.column_stack((iu, ju, rng.normal(size=iu.size))))
    sampler = SamplerSpec("classical-bernoulli", q=0.5)
    run_ndar(model0, sampler, NdarConfig(shots=10, max_iters=1))  # caches the model's matrices
    held, peak = {}, {}
    for iters in (1, 2, 5):
        tracemalloc.start()
        try:
            result = run_ndar(model0, sampler, NdarConfig(shots=20000, max_iters=iters))
            held[iters], peak[iters] = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert [j for j, _, _ in result.distributions] == sorted({0, iters - 1})
        del result
    # the result holds two histograms from the second iteration on, so what a run holds
    # once it returns stops growing there, and the most it holds at once stays near one
    # iteration's; keeping every iteration's histograms would give 2.5x and 4x
    assert held[5] < 1.5 * held[2]
    assert peak[5] < 1.5 * peak[1]
