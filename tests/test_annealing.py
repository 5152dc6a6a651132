"""Simulated-annealing reference solver behavior."""

import numpy as np
import pytest

from ndar import (IsingModel, MaxCutInstance, SaConfig, brute_force_best, energy,
                  gen_unweighted, gen_weighted_dense, maxcut_to_ising, sa_solve)
from ndar import annealing
from ndar.annealing import color_classes
from ndar.ising import lex_first
from oracles import bits_to_str


def per_spin_sa_solve(model, config):
    """The per-spin sweep that colored sweeps replaced: one spin for all reads per step."""
    n = model.n
    rng = np.random.default_rng(config.seed)
    reads = config.num_reads
    jm = model.coupling_matrix
    h = model._fields

    spins = (1.0 - 2.0 * rng.integers(0, 2, size=(reads, n))).astype(np.float64)
    local = spins @ jm + h
    e = spins @ h + 0.5 * np.einsum("ij,ij->i", spins, spins @ jm)

    best_e = e.copy()
    best_spins = spins.copy()
    betas = np.geomspace(config.beta_min, config.beta_max, config.sweeps_per_read)
    for beta in betas:
        for i in rng.permutation(n):
            de = -2.0 * spins[:, i] * local[:, i]
            accept = de <= 0.0
            uphill = ~accept
            if np.any(uphill):
                accept[uphill] = rng.random(int(uphill.sum())) < np.exp(-beta * de[uphill])
            acc = np.flatnonzero(accept)
            if acc.size:
                spins[acc, i] *= -1.0
                e[acc] += de[acc]
                local[acc, :] += (2.0 * spins[acc, i])[:, None] * jm[i, :][None, :]
        improved = e < best_e
        if np.any(improved):
            best_e[improved] = e[improved]
            best_spins[improved] = spins[improved]

    k = lex_first(np.flatnonzero(best_e == best_e.min()), lambda c, i: best_spins[c, i] < 0, n)
    winner = ((1.0 - best_spins[k]) / 2.0).astype(np.uint8)
    return winner, energy(model, winner)


def normal_complete_model(n, seed):
    rng = np.random.default_rng(seed)
    iu, ju = np.triu_indices(n, k=1)
    couplings = np.column_stack((iu, ju, rng.normal(size=iu.size)))
    return IsingModel(n, tuple(rng.normal(size=n)), couplings, offset=0.25)


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


def test_config_validation():
    with pytest.raises(ValueError):
        SaConfig(num_reads=0)
    with pytest.raises(ValueError):
        SaConfig(sweeps_per_read=0)
    with pytest.raises(ValueError):
        SaConfig(beta_min=0.0)
    with pytest.raises(ValueError):
        SaConfig(beta_min=5.0, beta_max=1.0)


@pytest.mark.parametrize("model, config", [
    (maxcut_to_ising(gen_weighted_dense(30, seed=0)), SaConfig(20, 200, seed=1)),
    (maxcut_to_ising(gen_weighted_dense(30, seed=4)), SaConfig(1, 50, seed=2)),
    (normal_complete_model(25, seed=3), SaConfig(16, 100, seed=3)),
    (maxcut_to_ising(gen_weighted_dense(300, seed=3)), SaConfig(100, 4, seed=5)),
], ids=["dense-30", "dense-30-one-read", "normal-complete-25", "dense-300"])
def test_colored_sweeps_match_the_per_spin_loop_on_complete_graphs(model, config):
    # one class per spin: the class order is the old spin order and the draws are the same
    order, bounds = color_classes(model.coupling_matrix)
    assert np.array_equal(order, np.arange(model.n)) and bounds.size == model.n + 1
    bits, e = sa_solve(model, config)
    expected_bits, expected_e = per_spin_sa_solve(model, config)
    assert np.array_equal(bits, expected_bits)
    assert e == expected_e


@pytest.mark.parametrize("model", [
    maxcut_to_ising(gen_unweighted(300, 0.3, seed=2)),
    maxcut_to_ising(gen_unweighted(40, 0.1, seed=1)),
    maxcut_to_ising(gen_unweighted(18, 0.8, seed=29)),
    maxcut_to_ising(gen_weighted_dense(12, seed=0)),
    IsingModel(7, (0.5,) * 7, ()),
    maxcut_to_ising(MaxCutInstance(6, tuple((i, i + 1, 1.0) for i in range(5)))),
], ids=["sparse-300", "sparse-40", "qaoa-18", "complete-12", "uncoupled-7", "path-6"])
def test_coloring_is_proper(model):
    jm = model.coupling_matrix
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


class CountingGenerator:
    """A default_rng stand-in that records the initial spins and the draws of each sweep."""

    def __init__(self, seed):
        self._rng = np.random.default_rng(seed)
        self.initial = None
        self.draws = 0
        self.draws_at_sweep_start = []
        self.permutation_sizes = []

    def integers(self, *args, **kwargs):
        self.initial = self._rng.integers(*args, **kwargs)
        return self.initial

    def permutation(self, k):
        self.draws_at_sweep_start.append(self.draws)
        self.permutation_sizes.append(k)
        return self._rng.permutation(k)

    def random(self, size):
        self.draws += size
        return self._rng.random(size)


def test_each_sweep_proposes_each_spin_once_per_read(monkeypatch):
    # |h_i| exceeds the sum of spin i's couplings, so a proposal is downhill exactly when
    # spin i points along its field, and at beta = 10 every uphill proposal is drawn for
    # and rejected: a sweep draws once per proposal of a spin already aligned
    g = gen_unweighted(24, 0.3, seed=4)
    base = maxcut_to_ising(g)
    h = tuple(float(v) for v in np.random.default_rng(0).choice([-100.0, 100.0], size=base.n))
    model = IsingModel(base.n, h, base.couplings)
    order, bounds = color_classes(model.coupling_matrix)
    assert 1 < bounds.size - 1 < model.n
    config = SaConfig(num_reads=7, sweeps_per_read=4, beta_min=10.0, beta_max=10.0, seed=3)
    gen = CountingGenerator(config.seed)
    monkeypatch.setattr(annealing.np.random, "default_rng", lambda seed: gen)
    bits, _ = sa_solve(model, config)

    assert gen.permutation_sizes == [bounds.size - 1] * config.sweeps_per_read
    aligned = ((1 - 2 * gen.initial) * np.array(h) < 0).sum()
    per_sweep = np.diff(gen.draws_at_sweep_start + [gen.draws]).tolist()
    assert per_sweep == [aligned] + [config.num_reads * model.n] * (config.sweeps_per_read - 1)
    assert np.array_equal(bits, (np.array(h) > 0).astype(np.uint8))
