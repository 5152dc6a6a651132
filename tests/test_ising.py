"""Model, energy, gauge transform, and instance generator behavior."""

import re

import numpy as np
import pytest

from ndar import ising
from ndar import (NODE_CAP, IsingModel, MaxCutInstance, ResourceLimitError, as_bits,
                  brute_force_best, edge_density, energies, energy, gen_unweighted,
                  gen_weighted_dense, maxcut_to_ising, read_instance, write_instance)
from ndar.ising import TripleView, cost_blocks, lex_first
from oracles import (all_bitstrings, apply_mask, bits_to_str, cost_diagonal, cut_value,
                     gauge_transform, hamming_weight, write_instance_from_tuples)


def slow_energy(model: IsingModel, x) -> float:
    """Independent double-loop evaluator, deliberately naive."""
    s = [1 - 2 * int(b) for b in x]
    total = model.offset
    for i in range(model.n):
        total += model.h[i] * s[i]
    for i, j, w in model.couplings:
        total += w * s[i] * s[j]
    return total


def random_model(rng, n, with_fields=True) -> IsingModel:
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    keep = [p for p in pairs if rng.random() < 0.6]
    couplings = tuple((i, j, float(rng.normal())) for i, j in keep)
    h = tuple(float(rng.normal()) for _ in range(n)) if with_fields else (0.0,) * n
    return IsingModel(n, h, couplings, float(rng.normal()))


def random_int_model(rng, n) -> IsingModel:
    """Small integer weights keep every float sum exact regardless of order."""
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    keep = [p for p in pairs if rng.random() < 0.6]
    couplings = tuple((i, j, float(rng.integers(-3, 4))) for i, j in keep)
    h = tuple(float(rng.integers(-3, 4)) for _ in range(n))
    return IsingModel(n, h, couplings, float(rng.integers(-3, 4)))


def random_mask(rng, n):
    return rng.integers(0, 2, n).astype(np.uint8)


def test_energy_direct_example():
    model = IsingModel(2, (1.0, -1.0), ((0, 1, 2.0),))
    assert energy(model, "00") == 2.0


def test_energy_matches_double_loop_oracle():
    rng = np.random.default_rng(7)
    model = random_int_model(rng, 6)
    for x in all_bitstrings(6):
        assert energy(model, x) == slow_energy(model, x)
    dense = random_model(rng, 6)
    for x in all_bitstrings(6):
        assert energy(dense, x) == pytest.approx(slow_energy(dense, x), rel=1e-12, abs=1e-12)


def test_energies_batch_matches_scalar_path():
    rng = np.random.default_rng(8)
    model = random_model(rng, 7)
    X = all_bitstrings(7)
    batch = energies(model, X)
    assert batch.shape == (128,)
    for k in (0, 1, 63, 127):
        assert batch[k] == pytest.approx(energy(model, X[k]), abs=1e-12)


def test_energy_complement_symmetry_without_fields():
    rng = np.random.default_rng(9)
    model = random_model(rng, 6, with_fields=False)
    for x in all_bitstrings(6)[:16]:
        assert energy(model, x) == energy(model, 1 - x)


def test_energy_length_mismatch_raises():
    model = IsingModel(3, (0.0, 0.0, 0.0), ())
    with pytest.raises(ValueError):
        energy(model, "01")
    with pytest.raises(ValueError, match=r"expected a \(shots, 3\) bit matrix, got shape \(2, 4\)"):
        energies(model, np.zeros((2, 4), dtype=np.uint8))


def test_gauge_identity_mask_is_noop():
    rng = np.random.default_rng(10)
    model = random_model(rng, 5)
    same = gauge_transform(model, np.zeros(5, dtype=np.uint8))
    assert same == model


def test_gauge_sign_rule_example():
    model = IsingModel(2, (1.0, -2.0), ((0, 1, 3.0),), offset=0.25)
    flipped = gauge_transform(model, (1, 0))
    assert tuple(flipped.h) == (-1.0, -2.0)
    assert flipped.couplings == ((0, 1, -3.0),)
    assert flipped.offset == 0.25


def test_gauge_preserves_energy_spectrum_multiset():
    rng = np.random.default_rng(11)
    for _ in range(5):
        model = random_model(rng, 8)
        X = all_bitstrings(8)
        spectrum = np.sort(energies(model, X))
        transformed = gauge_transform(model, random_mask(rng, 8))
        assert np.array_equal(np.sort(energies(transformed, X)), spectrum)


def test_gauge_pointwise_covariance_exhaustive():
    rng = np.random.default_rng(12)
    model = random_model(rng, 7)
    X = all_bitstrings(7)
    for _ in range(4):
        y = random_mask(rng, 7)
        lhs = energies(gauge_transform(model, y), X)
        rhs = energies(model, np.bitwise_xor(X, y))
        assert np.array_equal(lhs, rhs)


def test_gauge_attractor_identity_exact():
    rng = np.random.default_rng(13)
    zeros = np.zeros(9, dtype=np.uint8)
    for _ in range(10):
        model = random_model(rng, 9)
        y = random_mask(rng, 9)
        assert energy(gauge_transform(model, y), zeros) == energy(model, y)


def test_gauge_double_transform_identity_fieldwise():
    rng = np.random.default_rng(14)
    model = random_model(rng, 8)
    y = random_mask(rng, 8)
    back = gauge_transform(gauge_transform(model, y), y)
    assert back == model


def test_apply_mask_examples_and_involution():
    assert np.array_equal(apply_mask("0000", "1010"), as_bits("1010"))
    assert np.array_equal(apply_mask("1010", "1010"), as_bits("0000"))
    rng = np.random.default_rng(15)
    x, y = random_mask(rng, 12), random_mask(rng, 12)
    assert np.array_equal(apply_mask(y, apply_mask(y, x)), x)
    with pytest.raises(ValueError):
        apply_mask("10", "100")


def test_compose_masks_group_properties():
    # composing two masks is the same XOR as applying one
    assert bits_to_str(apply_mask("1100", "0110")) == "1010"
    rng = np.random.default_rng(16)
    a, b, c = random_mask(rng, 10), random_mask(rng, 10), random_mask(rng, 10)
    assert np.array_equal(apply_mask(a, a), np.zeros(10, dtype=np.uint8))
    assert np.array_equal(apply_mask(np.zeros(10, dtype=np.uint8), a), a)
    assert np.array_equal(apply_mask(apply_mask(a, b), b), a)
    assert np.array_equal(apply_mask(a, b), apply_mask(b, a))
    assert np.array_equal(apply_mask(apply_mask(a, b), c), apply_mask(a, apply_mask(b, c)))


def test_hamming_weight_examples():
    assert hamming_weight("0000") == 0
    assert hamming_weight("1111") == 4
    assert hamming_weight("1010") == 2


def test_maxcut_single_edge_values():
    g = MaxCutInstance(2, ((0, 1, 1.0),))
    model = maxcut_to_ising(g)
    assert cut_value(g, "01") == 1.0 and energy(model, "01") == -1.0
    assert cut_value(g, "00") == 0.0 and energy(model, "00") == 0.0


def test_maxcut_triangle_encoding():
    g = MaxCutInstance(3, ((0, 1, 1.0), (0, 2, 1.0), (1, 2, 1.0)))
    model = maxcut_to_ising(g)
    assert all(w == 0.5 for _, _, w in model.couplings)
    assert model.offset == -1.5
    assert all(h == 0.0 for h in model.h)
    _, best = brute_force_best(model)
    assert best == -2.0
    assert cut_value(g, "001") == 2.0
    assert cut_value(g, "000") == 0.0
    for x in all_bitstrings(3):
        assert cut_value(g, x) == cut_value(g, 1 - x)


def test_fields_are_one_read_only_float64_array():
    given = np.array([1.0, -2.0, 0.5])
    model = IsingModel(3, given, ((0, 1, 1.0),))
    assert type(model.h) is np.ndarray and model.h.dtype == np.float64
    with pytest.raises(ValueError):
        model.h[0] = 7.0
    given[0] = 7.0  # the model holds its own copy
    assert model.h.tolist() == [1.0, -2.0, 0.5]


def test_models_from_lists_tuples_and_arrays_are_equal_and_hash_equal():
    couplings = ((0, 1, 1.5), (1, 2, -0.5))
    models = [IsingModel(3, h, couplings, 0.25)
              for h in ([1.0, 0.0, -2.0], (1.0, -0.0, -2.0), np.array([1.0, 0.0, -2.0]))]
    for model in models:
        assert model == models[0] and hash(model) == hash(models[0])
        assert {models[0]: 1}[model] == 1
    different = [IsingModel(3, [1.0, 0.0, -2.5], couplings, 0.25),
                 IsingModel(3, [1.0, 0.0, -2.0], couplings[:1], 0.25),
                 IsingModel(3, [1.0, 0.0, -2.0], couplings, 0.5),
                 IsingModel(4, [1.0, 0.0, -2.0, 0.0], couplings, 0.25)]
    assert all(other != models[0] for other in different)
    assert models[0] != (3, (1.0, 0.0, -2.0), couplings, 0.25)


def test_maxcut_model_equals_the_model_built_from_tuples():
    g = gen_weighted_dense(9, seed=4)
    expected = IsingModel(g.n, (0.0,) * g.n, tuple((i, j, w / 2) for i, j, w in g.edges),
                          -0.5 * sum(w for _, _, w in g.edges))
    model = maxcut_to_ising(g)
    assert model == expected and hash(model) == hash(expected)


def test_terms_take_float32_exactly_where_the_sums_are_exact():
    model = maxcut_to_ising(gen_weighted_dense(30, seed=1))
    h, J = model.terms
    assert h.dtype == J.dtype == np.float32
    assert np.array_equal(h, model.h) and np.array_equal(J, model.coupling_matrix)
    tenths = IsingModel(3, (0.1, 0.2, 0.3), ((0, 1, 0.1), (1, 2, -0.7)))
    h, J = tenths.terms
    assert h is tenths.h and J is tenths.coupling_matrix


def test_maxcut_duality_on_80_node_instance():
    g = gen_unweighted(80, 0.3, seed=7)
    model = maxcut_to_ising(g)
    rng = np.random.default_rng(17)
    for _ in range(1000):
        x = rng.integers(0, 2, 80).astype(np.uint8)
        assert energy(model, x) + cut_value(g, x) == 0.0


def test_edge_density_examples():
    k4 = MaxCutInstance(4, tuple((i, j, 1.0) for i in range(4) for j in range(i + 1, 4)))
    assert edge_density(k4) == 1.0
    assert edge_density(MaxCutInstance(5, ())) == 0.0
    assert 948 / (80 * 79 / 2) == pytest.approx(0.3, abs=1e-12)


def test_gen_unweighted_limits_and_determinism():
    assert gen_unweighted(6, 0.0, 1).edges == ()
    assert len(gen_unweighted(6, 1.0, 1).edges) == 15
    assert gen_unweighted(20, 0.4, 5) == gen_unweighted(20, 0.4, 5)
    assert gen_unweighted(20, 0.4, 5) != gen_unweighted(20, 0.4, 6)
    for seed in range(8):
        d = edge_density(gen_unweighted(80, 0.3, seed))
        assert 0.25 <= d <= 0.35
    with pytest.raises(ValueError):
        gen_unweighted(10, 1.5, 0)
    with pytest.raises(ValueError):
        gen_unweighted(1, 0.5, 0)


def test_gen_weighted_dense_properties():
    g = gen_weighted_dense(300, seed=3)
    assert len(g.edges) == 300 * 299 // 2
    weights = np.array([w for _, _, w in g.edges])
    assert set(np.unique(weights)) == {-1.0, 1.0}
    assert abs(weights.mean()) < 0.05
    assert gen_weighted_dense(12, 9) == gen_weighted_dense(12, 9)
    with pytest.raises(ValueError, match="n must be >= 2"):
        gen_weighted_dense(1, 0)


def test_brute_force_single_edge_lexicographic_tie():
    model = maxcut_to_ising(MaxCutInstance(2, ((0, 1, 1.0),)))
    bits, best = brute_force_best(model)
    # 01 and 10 are degenerate; lexicographic order (bit 0 first) prefers 01
    assert best == -1.0
    assert bits_to_str(bits) == "01"


def test_brute_force_matches_slow_scan():
    rng = np.random.default_rng(18)
    model = random_int_model(rng, 10)
    best_bits, best_e = brute_force_best(model)
    scanned = min(
        (slow_energy(model, x), tuple(x)) for x in all_bitstrings(10))
    assert best_e == scanned[0]
    assert tuple(best_bits) == scanned[1]
    assert energy(model, best_bits) == best_e


def traced_peak(fn):
    import tracemalloc
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_chunked_scans_match_one_block(monkeypatch):
    # blocks of 2^3 push the stream and brute force's tie scan across many block borders
    rng = np.random.default_rng(19)
    models = [random_int_model(rng, 9)] + [maxcut_to_ising(gen_unweighted(9, 0.5, s))
                                           for s in range(3)]
    monkeypatch.setattr(ising, "_COST_BLOCK_BITS", 3)
    for model in models:
        X = all_bitstrings(9)
        assert [block.size for block in cost_blocks(model)] == [8] * 64
        assert np.array_equal(cost_diagonal(model), energies(model, X))
        # MaxCut models tie x with its complement in another block; bit 0 first decides
        scanned = min((slow_energy(model, x), tuple(x)) for x in X)
        bits, e = brute_force_best(model)
        assert (e, tuple(bits)) == scanned


def unchunked_brute_force_index(model):
    """The tie-break over every tied index at once, which the per-block rule replaced."""
    diag = cost_diagonal(model)
    return lex_first(np.flatnonzero(diag == diag.min()), lambda c, i: (c >> i) & 1, model.n)


def test_blockwise_tie_break_matches_the_unchunked_rule(monkeypatch):
    rng = np.random.default_rng(23)
    models = [IsingModel(10, (0.0,) * 10, ()), IsingModel(9, (0.0,) * 8 + (1.0,), ()),
              maxcut_to_ising(gen_unweighted(10, 0.0, 0)), random_int_model(rng, 10)]
    models += [maxcut_to_ising(gen_unweighted(10, d, s)) for s, d in enumerate((0.2, 0.5, 0.9))]
    monkeypatch.setattr(ising, "_COST_BLOCK_BITS", 3)
    for model in models:
        bits, _ = brute_force_best(model)
        index = int(bits.astype(np.int64) @ (1 << np.arange(model.n, dtype=np.int64)))
        assert index == unchunked_brute_force_index(model)


def test_all_tie_brute_force_holds_a_few_blocks():
    model = IsingModel(20, (0.0,) * 20, ())  # all 2^20 strings tie
    bits, _ = brute_force_best(model)
    assert not bits.any()
    # the stream's three blocks, and the candidates, one bit column and a mask of one
    # block; the unchunked rule holds 2^20 int64 candidates (8 MB) and a bit array as large
    assert traced_peak(lambda: brute_force_best(model)) < 1 << 20


def test_brute_force_at_n_20_keeps_nothing_after_it_returns():
    import tracemalloc
    model = maxcut_to_ising(gen_unweighted(20, 0.5, 4))
    tracemalloc.start()
    try:
        bits, e = brute_force_best(model)
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert e == energy(model, bits) == min(cost_diagonal(model))
    # the returned bits and the model's cached coupling matrix; a cached 2^20 diagonal
    # would keep 8 MiB
    assert kept < 64 << 10 and peak < 1 << 20


def test_cost_blocks_are_capped_before_allocating():
    model = IsingModel(25, (0.0,) * 25, ())

    def refused(fn):
        with pytest.raises(ResourceLimitError):
            fn()

    assert traced_peak(lambda: refused(lambda: next(cost_blocks(model)))) < 64 << 10
    assert traced_peak(lambda: refused(lambda: brute_force_best(model))) < 64 << 10


def dyadic_model(rng, n, density=0.6) -> IsingModel:
    """Fields in 1/16 and couplings in 1/8 steps (the float32 rule holds), offset not dyadic."""
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < density]
    couplings = tuple((i, j, float(rng.integers(-64, 65)) / 8) for i, j in pairs)
    h = tuple(float(rng.integers(-64, 65)) / 16 for _ in range(n))
    return IsingModel(n, h, couplings, float(rng.normal()) * 10)


@pytest.mark.parametrize("bits", [None, 3, 1], ids=["blocks-default", "blocks-2^3", "blocks-2^1"])
def test_cost_blocks_are_bit_equal_to_energies_under_the_float32_rule(monkeypatch, bits):
    if bits:
        monkeypatch.setattr(ising, "_COST_BLOCK_BITS", bits)
    rng = np.random.default_rng(31)
    models = [dyadic_model(rng, n) for n in range(1, 15)]
    models += [dyadic_model(rng, 9, density=0.0), maxcut_to_ising(gen_weighted_dense(12, 2))]
    for model in models:
        assert model.terms[0].dtype == np.float32
        expected = energies(model, all_bitstrings(model.n))
        assert np.array_equal(cost_diagonal(model).view(np.int64), expected.view(np.int64)), model.n


def test_cost_blocks_off_the_float32_rule_agree_to_rounding():
    n = 12
    couplings = tuple((i, j, 0.1) for i in range(n) for j in range(i + 1, n) if (i + j) % 3)
    model = IsingModel(n, (0.1,) * n, couplings, 0.3)
    assert model.terms[0].dtype == np.float64
    expected = energies(model, all_bitstrings(n))
    assert np.allclose(cost_diagonal(model), expected, rtol=1e-12, atol=1e-12)
    bits, e = brute_force_best(model)
    assert e == energy(model, bits)


def test_cost_blocks_and_brute_force_scan_no_bit_rows(monkeypatch):
    def forbidden(*args):
        raise AssertionError("the 2^n energies were scanned from bit rows")

    rows = []

    def counted(idx, n):
        rows.append(len(idx))
        return index_bits(idx, n)

    model = dyadic_model(np.random.default_rng(32), 14)
    expected = energies(model, all_bitstrings(14))
    index_bits = ising._index_bits
    monkeypatch.setattr(ising, "energies", forbidden)
    monkeypatch.setattr(ising, "_index_bits", counted)
    assert np.array_equal(cost_diagonal(model), expected)
    assert rows == [1 << 6, 1 << 2]  # spin tables of the first six and the last two spins
    bits, e = brute_force_best(model)
    assert e == expected.min() and rows[-1] == 1  # the winner's bits


def test_cost_blocks_peak_at_n_18():
    # the stream's three 2^12-entry blocks and its tables; the whole 2 MiB diagonal, as
    # built from blocks of index bits through `energies`, peaked at 4.7 MiB
    model = maxcut_to_ising(gen_unweighted(18, 0.8, 29))

    def drain():
        for _ in cost_blocks(model):
            pass

    assert traced_peak(drain) < 128 << 10


def test_index_bits_peak_on_one_block():
    idx = np.arange(1 << 18, dtype=np.int64)
    bits = ising._index_bits(idx, 18)
    assert np.array_equal(bits[:, 17], idx >> 17) and np.array_equal(bits[5], [1, 0, 1] + [0] * 15)
    # the 4.5 MiB of bits and a 1 MiB uint32 copy of the indices; shifting the indices
    # against an int64 bit ramp makes a 36 MiB temporary and peaks at 40.5 MiB
    assert traced_peak(lambda: ising._index_bits(idx, 18)) < 8 * 2**20


def test_energies_peak_on_a_dense_300_node_batch():
    model = maxcut_to_ising(gen_weighted_dense(300, 1))
    X = np.random.default_rng(1).integers(0, 2, (10_000, 300), dtype=np.uint8)
    energies(model, X[:1])  # the cached coupling matrices stay out of the measurement
    # S and S @ J in float32 are 12 MB each; in float64 the peak is 48 MB
    assert traced_peak(lambda: energies(model, X)) < 30e6


def test_dense_300_model_build_peak():
    # the edge and coupling arrays and their validation temporaries; with a tuple of
    # (int, int, float) tuples next to each object's arrays the peak is 14.1 MiB
    assert traced_peak(lambda: maxcut_to_ising(gen_weighted_dense(300, 3))) < 8 * 2**20


def test_brute_force_refuses_large_n():
    with pytest.raises(ResourceLimitError):
        brute_force_best(IsingModel(25, (0.0,) * 25, ()))


def test_model_validation():
    with pytest.raises(ValueError):
        IsingModel(2, (0.0,), ())  # h length
    with pytest.raises(ValueError):
        IsingModel(2, (0.0, 0.0), ((0, 0, 1.0),))  # self-loop
    with pytest.raises(ValueError):
        IsingModel(2, (0.0, 0.0), ((1, 0, 1.0),))  # not i < j
    with pytest.raises(ValueError):
        IsingModel(2, (0.0, 0.0), ((0, 1, 1.0), (0, 1, 2.0)))  # duplicate
    with pytest.raises(ValueError):
        IsingModel(2, (0.0, 0.0), ((0, 2, 1.0),))  # index range
    with pytest.raises(ValueError):
        IsingModel(2, (np.inf, 0.0), ())
    for offset in (np.nan, np.inf):
        with pytest.raises(ValueError, match="offset must be finite"):
            IsingModel(2, (0.0, 0.0), (), offset)
    with pytest.raises(ValueError, match=r"triples, got shape \(2, 2\)"):
        IsingModel(3, (0.0,) * 3, np.array([[0, 1], [1, 2]]))
    with pytest.raises(ValueError):
        MaxCutInstance(1, ())


def test_validation_rejects_non_integer_indices():
    with pytest.raises(ValueError, match="non-integer index"):
        MaxCutInstance(3, ((0.5, 2, 1.0),))
    with pytest.raises(ValueError, match="non-integer index"):
        IsingModel(3, (0.0,) * 3, ((0, np.nan, 1.0),))
    with pytest.raises(ValueError, match="triples"):
        MaxCutInstance(3, ((0, 1, 1.0), (1, 2)))
    # integer-valued floats and (m, 3) arrays are canonicalized to (int, int, float)
    g = MaxCutInstance(3, np.array([[0.0, 2.0, 1.0], [1.0, 2.0, -2.0]]))
    assert g.edges == ((0, 2, 1.0), (1, 2, -2.0))
    assert all(type(v) is t for e in g.edges for v, t in zip(e, (int, int, float)))


def test_as_bits_coercion_and_errors():
    assert np.array_equal(as_bits("0110"), np.array([0, 1, 1, 0], dtype=np.uint8))
    assert np.array_equal(as_bits([True, False]), np.array([1, 0], dtype=np.uint8))
    with pytest.raises(ValueError):
        as_bits("0120")
    with pytest.raises(ValueError):
        as_bits([0.5, 1.0])
    with pytest.raises(ValueError):
        as_bits("01", n=3)
    with pytest.raises(ValueError, match="non-digit characters"):
        as_bits("01a")
    with pytest.raises(ValueError, match=r"one-dimensional, got shape \(2, 2\)"):
        as_bits([[0, 1], [1, 0]])
    # integral floats are bits
    bits = as_bits([0.0, 1.0])
    assert bits.dtype == np.uint8 and np.array_equal(bits, [0, 1])


def test_instance_file_roundtrip(tmp_path):
    g = gen_weighted_dense(9, seed=4)
    path = tmp_path / "inst.txt"
    write_instance(g, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "9 36"
    pairs = [tuple(map(int, ln.split()[:2])) for ln in lines[1:]]
    assert pairs == sorted(pairs)
    assert read_instance(path) == g


def test_node_cap_bounds_instances_and_generators():
    assert MaxCutInstance(NODE_CAP, ()).n == NODE_CAP
    for make in (lambda n: MaxCutInstance(n, ()), lambda n: gen_unweighted(n, 0.5, 0),
                 lambda n: gen_weighted_dense(n, 0)):
        with pytest.raises(ResourceLimitError, match="node cap"):
            make(NODE_CAP + 1)


def test_instance_file_rejects_bad_content(tmp_path):
    bad = tmp_path / "bad.txt"
    bad.write_text("2 1\n0 0 1.0\n")
    with pytest.raises(ValueError):
        read_instance(bad)
    bad.write_text("2 2\n0 1 1.0\n1 0 2.0\n")
    with pytest.raises(ValueError):
        read_instance(bad)  # duplicate after normalization
    bad.write_text("2 3\n0 1 1.0\n")
    with pytest.raises(ValueError):
        read_instance(bad)  # edge count mismatch
    # too many edges: both passes stop one edge line beyond the header's count, where
    # reading all 300,000 lines took 1.3 s and a 42 MiB peak
    bad.write_text("1024 1\n" + "0 1 1\n" * 300000)

    def refused():
        with pytest.raises(ValueError, match="header promises 1 edges, file has more"):
            read_instance(bad)

    assert traced_peak(refused) < 4 << 20  # the text after the header is 1.7 MiB
    # the inline-'#' scan reads the text after the header in blocks, where reading it
    # whole peaked at 11.4 MiB on these 5.7 MiB
    bad.write_text("1024 1\n" + "0 1 1\n" * 1000000)
    assert traced_peak(refused) < 1 << 20
    bad.write_text("oops\n")
    with pytest.raises(ValueError):
        read_instance(bad)
    bad.write_text("\n# only comments\n   \n#\n")
    with pytest.raises(ValueError, match="empty instance file"):
        read_instance(bad)
    bad.write_text("a b\n0 1 1.0\n")
    with pytest.raises(ValueError, match="header must hold two integers, got 'a b'"):
        read_instance(bad)


def test_instance_file_errors_name_the_line_of_the_file(tmp_path):
    bad = tmp_path / "bad.txt"
    bad.write_text("# c\n\n2 2\n0 1 1\n# c2\n1 x 1\n")
    with pytest.raises(ValueError, match=re.escape(f"{bad}:6: malformed edge '1 x 1'")):
        read_instance(bad)
    bad.write_text("# c\n\n2 1\n\n0 1\n")
    with pytest.raises(ValueError, match=re.escape(f"{bad}:5: expected 'i j w', got '0 1'")):
        read_instance(bad)


def test_instance_file_edge_values_parse_as_the_line_loop_parses_them(tmp_path):
    path = tmp_path / "g.txt"
    for text in ("3 1\n1e3 1 1\n", "3 1\n1.5 1 1\n", "3 1\n0 1 1 # c\n", "3 2\n0 1 1 1 2 1\n",
                 "3 1\n0 1 0x10\n", "3 1\n0 1 nan\n", "3 1\n99999999999999999999 1 1\n"):
        path.write_text(text)
        with pytest.raises(ValueError, match=re.escape(f"{path}")):
            read_instance(path)
    path.write_text("# c\n\n  # d\n4 3\n# e\n2 0 0.1\n\t\n1 3 -2.5e-3\n  #f\n0 1 +7\n")
    assert read_instance(path).edges == ((0, 2, 0.1), (1, 3, -0.0025), (0, 1, 7.0))
    # the line loop is the reference on weights that need every digit
    iu, ju = np.triu_indices(40, 1)
    w = np.random.default_rng(3).normal(size=iu.size)
    g = MaxCutInstance(40, np.column_stack((iu, ju, w)))
    write_instance(g, path)
    assert read_instance(path) == g == MaxCutInstance(
        40, ising._read_edge_lines(path, 1, len(g.edges)))


@pytest.mark.parametrize("block", [7, 8, 11, 16])
def test_inline_hash_scan_sees_lines_across_block_ends(tmp_path, monkeypatch, block):
    import io
    monkeypatch.setattr(ising, "_SCAN_BLOCK", block)
    for pad in range(block + 1):  # moves the block ends through the lines below
        head = "# c\n" + "\n" * pad
        # one '#' per comment line, with and without a last newline
        for text in ("0 1\n  # d\n#\n", "0 1\n  # d", "\t#e\n1 2\n#"):
            assert not ising._needs_line_loop(io.StringIO(head + text)), (pad, text)
        # a '#' after an edge, a second '#' on a comment line, a line over twice the block
        for text in ("0 1 #\n", "1 2\n0 1 #", "# c # d\n", "0 1 " + "1" * 2 * block):
            assert ising._needs_line_loop(io.StringIO(head + text)), (pad, text)
    path = tmp_path / "g.txt"
    path.write_text("# c\n3 2\n  # d\n0 1 1\n# e\n1 2 -2\n")
    assert read_instance(path) == MaxCutInstance(3, ((0, 1, 1.0), (1, 2, -2.0)))
    path.write_text("3 1\n0 1 1 # e\n")
    with pytest.raises(ValueError, match=re.escape(f"{path}:2: expected 'i j w'")):
        read_instance(path)


def test_node_cap_instance_file_reads_in_one_pass(tmp_path, monkeypatch):
    import time
    path = tmp_path / "k.txt"
    g = gen_weighted_dense(NODE_CAP, 1)
    write_instance(g, path)

    def forbidden(*args):
        raise AssertionError("the node-cap file took the line loop")

    monkeypatch.setattr(ising, "_read_edge_lines", forbidden)
    start = time.perf_counter()
    assert read_instance(path) == g
    # about 0.15 s, and 32 MiB; the line loop takes about 1 s and peaks at 178 MiB
    assert time.perf_counter() - start < 0.6
    assert traced_peak(lambda: read_instance(path)) < 48 * 2**20


def test_instance_file_normalizes_reversed_indices(tmp_path):
    path = tmp_path / "rev.txt"
    path.write_text("3 2\n2 0 1.5\n1 2 -1\n")
    g = read_instance(path)
    assert g.edges == ((0, 2, 1.5), (1, 2, -1.0))


def test_triple_view_acts_as_its_tuple():
    triples = ((0, 2, 1.0), (1, 2, -2.0))
    g = MaxCutInstance(3, triples)
    same = MaxCutInstance(3, np.array([[0, 2, 1], [1, 2, -2]]))
    other = MaxCutInstance(3, triples[:1])
    assert isinstance(g.edges, TripleView) and len(g.edges) == 2 and g.edges
    assert g.edges == triples and triples == g.edges and g.edges == same.edges
    assert g.edges != other.edges and g.edges != triples[:1] and g.edges != list(triples)
    assert hash(g.edges) == hash(same.edges) == hash(triples)
    assert g == same and hash(g) == hash(same) and {g: 1}[same] == 1
    assert g.edges[-1] == (1, 2, -2.0) and g.edges[:1] == triples[:1]
    arr = np.asarray(g.edges)
    assert arr.shape == (2, 3) and arr.dtype == np.float64
    assert np.array_equal(arr, [[0, 2, 1], [1, 2, -2]])
    with pytest.raises(ValueError):
        g.edges.arrays[2][0] = 5.0
    # the triples live in three arrays, so no (m, 3) array can be shared without a copy
    with pytest.raises(ValueError, match="no \\(m, 3\\) array to share"):
        g.edges.__array__(copy=False)
    if np.lib.NumpyVersion(np.__version__) >= "2.0.0":  # numpy 1 passes no copy argument
        with pytest.raises(ValueError, match="no \\(m, 3\\) array to share"):
            np.array(g.edges, copy=False)
    empty = MaxCutInstance(3, ()).edges
    assert len(empty) == 0 and not empty and empty == () and hash(empty) == hash(())
    assert np.asarray(empty).shape == (0, 3)


@pytest.mark.parametrize("n", [30, 300, 1024])
@pytest.mark.parametrize("make", [lambda n: gen_unweighted(n, 0.3, 7),
                                  lambda n: gen_weighted_dense(n, 7)],
                         ids=["unweighted-sparse", "weighted-dense"])
def test_instance_writer_matches_the_tuple_writer(tmp_path, make, n):
    g = make(n)
    write_instance(g, tmp_path / "arrays.txt")
    write_instance_from_tuples(g, tmp_path / "tuples.txt")
    assert (tmp_path / "arrays.txt").read_bytes() == (tmp_path / "tuples.txt").read_bytes()


def test_instance_writer_matches_the_tuple_writer_on_long_weights(tmp_path):
    # 12 significant digits, weights that need repr, and both signs of zero
    weights = np.random.default_rng(2).uniform(-1e3, 1e3, 45)
    weights[:15] = [float(f"{w:.12g}") for w in weights[:15]]
    weights[15:20] = [0.1 + 0.2, -0.0, 0.0, 1e-300, 123456789012.0]
    iu, ju = np.triu_indices(10, k=1)
    order = np.random.default_rng(3).permutation(iu.size)
    g = MaxCutInstance(10, np.column_stack((iu, ju, weights))[order])
    write_instance(g, tmp_path / "arrays.txt")
    write_instance_from_tuples(g, tmp_path / "tuples.txt")
    assert (tmp_path / "arrays.txt").read_bytes() == (tmp_path / "tuples.txt").read_bytes()
