"""Simulated-annealing reference solver behavior."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ndar import (IsingModel, MaxCutInstance, ResourceLimitError, SaConfig, brute_force_best,
                  energy, gen_unweighted, gen_weighted_dense, maxcut_to_ising, sa_solve)
from ndar import annealing
from ndar.annealing import _ceil_float32, color_classes
from ndar.ising import lex_first
from oracles import bits_to_str


def per_spin_sa_solve(model, config):
    """The annealer one spin at a time, on the same draws: each flip updates every field and
    the energy at once, where sa_solve delays field updates and recomputes energies."""
    n = model.n
    rng = np.random.default_rng(config.seed)
    reads = config.num_reads
    jm = model.terms[1]
    h = model.h
    order, bounds = color_classes(jm)
    classes = [order[a:b] for a, b in zip(bounds[:-1], bounds[1:])]

    spins = (1.0 - 2.0 * rng.integers(0, 2, size=(reads, n))).astype(np.float64)
    local = spins @ jm + h
    e = spins @ h + 0.5 * np.einsum("ij,ij->i", spins, spins @ jm)

    best_e = e.copy()
    best_spins = spins.copy()
    betas = np.geomspace(config.beta_min, config.beta_max, config.sweeps_per_read)
    for beta in betas:
        perm = rng.permutation(len(classes))
        thresholds = np.log1p(-rng.random((reads, n))) / (2.0 * beta)
        for c in perm:
            for i in classes[c]:
                acc = np.flatnonzero(spins[:, i] * local[:, i] >= thresholds[:, i])
                e[acc] -= 2.0 * spins[acc, i] * local[acc, i]
                spins[acc, i] *= -1.0
                local[acc, :] += (2.0 * spins[acc, i])[:, None] * jm[i, :][None, :]
        improved = e < best_e
        if np.any(improved):
            best_e[improved] = e[improved]
            best_spins[improved] = spins[improved]

    k = lex_first(np.flatnonzero(best_e == best_e.min()), lambda c, i: best_spins[c, i] < 0, n)
    winner = ((1.0 - best_spins[k]) / 2.0).astype(np.uint8)
    return winner, energy(model, winner)


def normal_complete_model(n, seed):
    """Normal fields and couplings rounded to multiples of 1/256, so every sum is exact."""
    rng = np.random.default_rng(seed)
    iu, ju = np.triu_indices(n, k=1)
    couplings = np.column_stack((iu, ju, np.round(rng.normal(size=iu.size) * 256) / 256))
    return IsingModel(n, tuple(np.round(rng.normal(size=n) * 256) / 256), couplings, offset=0.25)


def large_field_model(excess, n=24):
    """Integer weights and one large field, with sum |h| + 2 sum |J| = 2^24 + excess."""
    rng = np.random.default_rng(11)
    iu, ju = np.triu_indices(n, k=1)
    w = rng.integers(-3, 4, size=iu.size).astype(np.float64)
    h = rng.integers(-5, 6, size=n).astype(np.float64)
    h[0] = 0.0
    h[0] = 2.0 ** 24 - np.abs(h).sum() - 2.0 * np.abs(w).sum() + excess
    return IsingModel(n, tuple(h), np.column_stack((iu, ju, w)))


def assert_proper_coloring(jm, order, bounds):
    n = jm.shape[0]
    assert sorted(order.tolist()) == list(range(n))  # every spin in exactly one class
    assert bounds[0] == 0 and bounds[-1] == n and np.all(np.diff(bounds) > 0)
    for a, b in zip(bounds[:-1], bounds[1:]):
        cls = order[a:b]
        assert np.all(np.diff(cls) > 0)  # each class in index order
        assert not np.any(jm[np.ix_(cls, cls)]), f"coupled spins share class {cls.tolist()}"


def test_single_edge_ground_state_and_tie():
    model = maxcut_to_ising(MaxCutInstance(2, ((0, 1, 1.0),)))
    bits, e = sa_solve(model, SaConfig(num_reads=8, sweeps_per_read=20, seed=0))
    assert e == -1.0
    assert bits_to_str(bits) == "01"  # degenerate with 10; lexicographic pick


def test_two_disjoint_edges_lexicographic_among_minima():
    model = maxcut_to_ising(MaxCutInstance(4, ((0, 1, 1.0), (2, 3, 1.0))))
    bits, e = sa_solve(model, SaConfig(num_reads=64, sweeps_per_read=50, seed=1))
    assert e == -2.0
    assert bits_to_str(bits) == "0101"


def test_flat_landscape_returns_offset():
    model = IsingModel(12, (0.0,) * 12, (), offset=4.5)
    bits, e = sa_solve(model, SaConfig(num_reads=4, sweeps_per_read=5, seed=2))
    assert e == 4.5
    assert bits.shape == (12,)


def test_returned_energy_is_exact_recompute():
    model = maxcut_to_ising(gen_weighted_dense(20, seed=5))
    bits, e = sa_solve(model, SaConfig(num_reads=10, sweeps_per_read=100, seed=3))
    assert e == energy(model, bits)


def test_matches_brute_force_on_small_models():
    hits = 0
    for k in range(6):
        n = 6 + k
        model = maxcut_to_ising(gen_unweighted(n, 0.5, seed=k) if k % 2 == 0
                                else gen_weighted_dense(n, seed=k))
        _, exact = brute_force_best(model)
        _, found = sa_solve(model, SaConfig(num_reads=16, sweeps_per_read=150, seed=k))
        hits += found == exact
    assert hits == 6


def test_offset_shifts_energy_but_not_search():
    base = maxcut_to_ising(gen_weighted_dense(15, seed=7))
    shifted = IsingModel(base.n, base.h, base.couplings, base.offset + 100.0)
    cfg = SaConfig(num_reads=6, sweeps_per_read=80, seed=4)
    bits_a, e_a = sa_solve(base, cfg)
    bits_b, e_b = sa_solve(shifted, cfg)
    assert np.array_equal(bits_a, bits_b)
    assert e_b == e_a + 100.0


def test_determinism():
    model = maxcut_to_ising(gen_unweighted(18, 0.4, seed=6))
    cfg = SaConfig(num_reads=8, sweeps_per_read=60, seed=9)
    bits_a, e_a = sa_solve(model, cfg)
    bits_b, e_b = sa_solve(model, cfg)
    assert np.array_equal(bits_a, bits_b) and e_a == e_b


def test_more_effort_never_hurts_on_average():
    model = maxcut_to_ising(gen_weighted_dense(30, seed=8))
    lazy, keen = [], []
    for seed in range(30):
        lazy.append(sa_solve(model, SaConfig(num_reads=1, sweeps_per_read=10, seed=seed))[1])
        keen.append(sa_solve(model, SaConfig(num_reads=8, sweeps_per_read=200, seed=seed))[1])
    assert np.mean(keen) <= np.mean(lazy)
    assert min(keen) <= min(lazy)


def test_oversized_effort_fails_before_allocating():
    import tracemalloc
    model = maxcut_to_ising(gen_weighted_dense(300, seed=0))
    model.terms  # cached outside the measurement
    tracemalloc.start()
    try:
        for config in (SaConfig(num_reads=annealing.SA_SPIN_BUDGET // 300 + 1),
                       SaConfig(sweeps_per_read=annealing.SA_SWEEPS_CAP + 1)):
            with pytest.raises(ResourceLimitError):
                sa_solve(model, config)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
    sa_solve(model, SaConfig(num_reads=1, sweeps_per_read=1))  # within the budget


def test_working_arrays_peak_under_30_bytes_per_read_and_spin():
    import tracemalloc
    model = maxcut_to_ising(gen_weighted_dense(300, seed=0))
    assert model.terms[0].dtype == np.float32  # cached outside the measurement, as is the matrix
    reads = 2000
    tracemalloc.start()
    try:
        sa_solve(model, SaConfig(num_reads=reads, sweeps_per_read=1))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the figure in SA_SPIN_BUDGET's comment (27 here); a float64 copy of the spins or fields
    # alive through the sweep would exceed it
    assert peak < 30 * reads * model.n


def test_small_model_working_arrays_peak_under_30_bytes_per_read_and_spin():
    import tracemalloc
    model = maxcut_to_ising(gen_unweighted(18, 0.8, seed=29))
    assert model.terms[0].dtype == np.float32  # cached outside the measurement, as is the matrix
    reads = 20000
    tracemalloc.start()
    try:
        sa_solve(model, SaConfig(num_reads=reads, sweeps_per_read=2))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the figure in SA_SPIN_BUDGET's comment holds at n = 18 too (28 here); a float64 copy
    # of the spins, fields or thresholds alive through the sweep would exceed it
    assert peak < 30 * reads * model.n


def test_config_validation():
    with pytest.raises(ValueError):
        SaConfig(num_reads=0)
    with pytest.raises(ValueError):
        SaConfig(sweeps_per_read=0)
    with pytest.raises(ValueError):
        SaConfig(beta_min=0.0)
    with pytest.raises(ValueError):
        SaConfig(beta_min=5.0, beta_max=1.0)
    with pytest.raises(ValueError, match="beta_max < inf"):
        SaConfig(beta_max=math.inf)
    with pytest.raises(ValueError, match="seed"):
        SaConfig(seed=-1)


@pytest.mark.parametrize("model, config", [
    (maxcut_to_ising(gen_weighted_dense(30, seed=0)), SaConfig(20, 200, seed=1)),
    (maxcut_to_ising(gen_weighted_dense(30, seed=4)), SaConfig(1, 50, seed=2)),
    (normal_complete_model(25, seed=3), SaConfig(16, 100, seed=3)),
    (maxcut_to_ising(gen_weighted_dense(300, seed=3)), SaConfig(100, 4, seed=5)),
    (maxcut_to_ising(gen_weighted_dense(22, seed=6)), SaConfig(30, 120, seed=9)),
], ids=["dense-30", "dense-30-one-read", "normal-complete-25", "dense-300", "dense-22"])
def test_colored_sweeps_match_the_per_spin_loop_on_complete_graphs(model, config):
    # one class per spin: each class's fields take the sweep's earlier flips, one row at a time
    order, bounds = color_classes(model.terms[1])
    assert np.array_equal(order, np.arange(model.n)) and bounds.size == model.n + 1
    bits, e = sa_solve(model, config)
    expected_bits, expected_e = per_spin_sa_solve(model, config)
    assert np.array_equal(bits, expected_bits)
    assert e == expected_e


@pytest.mark.parametrize("model, config", [
    (maxcut_to_ising(gen_unweighted(40, 0.1, seed=1)), SaConfig(12, 100, seed=4)),
    (maxcut_to_ising(gen_unweighted(18, 0.8, seed=29)), SaConfig(100, 200, seed=6)),
    (maxcut_to_ising(gen_unweighted(300, 0.3, seed=2)), SaConfig(100, 5, seed=7)),
], ids=["sparse-40", "qaoa-18", "sparse-300"])
def test_colored_sweeps_match_the_per_spin_loop_on_incomplete_graphs(model, config):
    _, bounds = color_classes(model.terms[1])
    assert 1 < bounds.size - 1 < model.n
    bits, e = sa_solve(model, config)
    expected_bits, expected_e = per_spin_sa_solve(model, config)
    assert np.array_equal(bits, expected_bits)
    assert e == expected_e


def edgeless_model(n, seed):
    """Fields that are multiples of 1/256 and no coupling: all n spins form one class."""
    rng = np.random.default_rng(seed)
    return IsingModel(n, tuple(np.round(rng.normal(size=n) * 256) / 256), ())


@pytest.mark.parametrize("model, config", [
    (maxcut_to_ising(gen_unweighted(32, 0.3, seed=1)), SaConfig(40, 100, seed=3)),
    (maxcut_to_ising(gen_unweighted(33, 0.3, seed=1)), SaConfig(40, 100, seed=3)),
    (edgeless_model(40, seed=5), SaConfig(20, 60, seed=4)),
], ids=["unweighted-32", "unweighted-33", "edgeless-40"])
def test_sweeps_on_both_sides_of_32_spins_match_the_per_spin_loop(model, config):
    bits, e = sa_solve(model, config)
    expected_bits, expected_e = per_spin_sa_solve(model, config)
    assert np.array_equal(bits, expected_bits)
    assert e == expected_e


def test_one_working_matrix():
    import tracemalloc
    model = edgeless_model(300, seed=0)
    assert model.terms[1].dtype == np.float32  # cached outside the measurement
    tracemalloc.start()
    try:
        sa_solve(model, SaConfig(num_reads=2, sweeps_per_read=2))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the color-ordered couplings, scaled to -2J in place; a second n x n array beside them
    # would exceed the bound
    assert peak < 1.6 * model.n ** 2 * 4


F32_MAX = float(np.finfo(np.float32).max)
F32_TINY = float(np.finfo(np.float32).smallest_subnormal)


@settings(derandomize=True, database=None, deadline=None, max_examples=300)
@given(st.one_of(st.floats(max_value=0.0), st.floats(-1e-36, 0.0),
                 st.floats(-1e40, -1e37)))
@example(-0.75)  # exactly a float32
@example(-0.0)
@example(-(1.0 + 2.0 ** -24))  # halfway between -1 and the float32 below it
@example(-(2.0 ** -149) * 1.5)  # halfway between two subnormal float32 values
@example(-F32_TINY / 2)  # halfway between -0 and the least subnormal
@example(-F32_MAX * (1 + 2.0 ** -25))  # below -FLT_MAX, nearer it than -inf
@example(-1e300)
@example(-np.inf)
def test_thresholds_rounded_to_float32_decide_every_comparison_as_float64_does(t):
    t = np.float64(t)  # so that a float32 compared with t is widened, not t narrowed
    c = _ceil_float32(np.array([t]))[0]
    with np.errstate(over="ignore"):
        assert c.dtype == np.float32 and c >= t
        assert c == -np.inf or np.nextafter(c, np.float32(-np.inf)) < t  # the least such
        near = [np.float32(t), c, np.float32(-0.0), np.float32(0.0), np.float32(-np.inf)]
        for direction in (np.float32(-np.inf), np.float32(np.inf)):
            g = np.float32(t)
            for _ in range(3):
                g = np.nextafter(g, direction)
                near.append(g)
    for g in near:
        assert (g >= t) == (g >= c), (t, g, c)


@pytest.mark.parametrize("model", [
    maxcut_to_ising(gen_unweighted(300, 0.3, seed=2)),
    maxcut_to_ising(gen_unweighted(40, 0.1, seed=1)),
    maxcut_to_ising(gen_unweighted(18, 0.8, seed=29)),
    maxcut_to_ising(gen_weighted_dense(12, seed=0)),
    IsingModel(7, (0.5,) * 7, ()),
    maxcut_to_ising(MaxCutInstance(6, tuple((i, i + 1, 1.0) for i in range(5)))),
], ids=["sparse-300", "sparse-40", "qaoa-18", "complete-12", "uncoupled-7", "path-6"])
def test_coloring_is_proper(model):
    jm = model.terms[1]
    order, bounds = color_classes(jm)
    assert_proper_coloring(jm, order, bounds)
    if not model.couplings:
        assert bounds.tolist() == [0, model.n]
        return
    # a mutant that moves a spin into the class of a spin it is coupled to is caught
    labels = np.empty(model.n, dtype=np.int64)
    labels[order] = np.repeat(np.arange(bounds.size - 1), np.diff(bounds))
    i, j = np.argwhere(np.triu(jm != 0.0))[0]
    labels[j] = labels[i]
    _, labels = np.unique(labels, return_inverse=True)  # drop a class left empty
    bounds = np.concatenate(([0], np.cumsum(np.bincount(labels))))
    with pytest.raises(AssertionError, match="coupled spins share class"):
        assert_proper_coloring(jm, np.argsort(labels, kind="stable"), bounds)


@pytest.mark.parametrize("n", [24, 40])
@pytest.mark.parametrize("excess, float32", [(0, True), (1, False)],
                         ids=["at-the-float32-bound", "one-unit-past-it"])
def test_large_fields_match_the_per_spin_loop_on_both_sides_of_the_float32_bound(excess,
                                                                                 float32, n):
    model = large_field_model(excess, n)
    assert (model.terms[0].dtype == np.float32) == float32
    config = SaConfig(16, 50, seed=8)
    bits, e = sa_solve(model, config)
    expected_bits, expected_e = per_spin_sa_solve(model, config)
    assert np.array_equal(bits, expected_bits)
    assert e == expected_e


def test_weights_inexact_in_binary_take_the_float64_path():
    g = gen_unweighted(30, 0.3, seed=3)
    model = IsingModel(g.n, (0.1,) * g.n, [(i, j, 0.1) for i, j, _ in g.edges])
    assert model.terms[0].dtype == np.float64
    config = SaConfig(12, 80, seed=2)
    bits, e = sa_solve(model, config)
    assert e == energy(model, bits)
    bits_again, e_again = sa_solve(model, config)
    assert np.array_equal(bits, bits_again) and e == e_again


class CountingGenerator:
    """A default_rng stand-in that records its calls; uniforms can be pinned to one value."""

    def __init__(self, seed, uniform=None):
        self._rng = np.random.default_rng(seed)
        self.uniform = uniform
        self.calls = []

    def integers(self, low, high, size):
        self.calls.append(("integers", size))
        return self._rng.integers(low, high, size=size)

    def permutation(self, k):
        self.calls.append(("permutation", k))
        return self._rng.permutation(k)

    def random(self, size):
        self.calls.append(("random", size))
        u = self._rng.random(size)
        return u if self.uniform is None else np.full_like(u, self.uniform)


def test_each_sweep_proposes_each_spin_once_per_read(monkeypatch):
    g = gen_unweighted(24, 0.3, seed=4)
    base = maxcut_to_ising(g)
    _, bounds = color_classes(base.terms[1])
    assert 1 < bounds.size - 1 < base.n
    reads, n = 7, base.n
    config = SaConfig(num_reads=reads, sweeps_per_read=4, seed=3)
    gen = CountingGenerator(config.seed)
    monkeypatch.setattr(annealing.np.random, "default_rng", lambda seed: gen)
    sa_solve(base, config)
    # the initial spins, then per sweep one order of the classes and one uniform per read and spin
    assert gen.calls == [("integers", (reads, n))] + [
        ("permutation", bounds.size - 1), ("random", (reads, n))] * config.sweeps_per_read

    # all spins start at +1 against fields of +100, which outweigh the couplings, so all
    # -1 is the unique ground state. u just below 1 accepts every proposal at beta = 0.01,
    # so a spin proposed k times in the sweep ends at (-1)^k, and every read reaches the
    # ground state (all tie for lex_first) exactly when each of its spins is proposed once
    gen = CountingGenerator(config.seed, uniform=np.nextafter(1.0, 0.0))
    gen.integers = lambda low, high, size: np.zeros(size, dtype=np.int64)
    monkeypatch.setattr(annealing.np.random, "default_rng", lambda seed: gen)
    ties = []
    monkeypatch.setattr(annealing, "lex_first",
                        lambda cand, bit, n: ties.append(cand.tolist()) or lex_first(cand, bit, n))
    model = IsingModel(n, (100.0,) * n, base.couplings)
    bits, _ = sa_solve(model, SaConfig(num_reads=reads, sweeps_per_read=1, seed=3))
    assert ties == [list(range(reads))]
    assert bits.all()
