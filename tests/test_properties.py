"""Property tests: exact identities and oracles checked on generated models and inputs."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ndar import (IsingModel, MaxCutInstance, all_bitstrings, brute_force_best, energies, energy,
                  gauge_transform, maxcut_to_ising, read_instance, write_instance)
from ndar.ising import _canonical_triples, lex_first

# fixed example streams keep the suite reproducible; no example database is written
examples = settings(derandomize=True, database=None, deadline=None, max_examples=60)


@st.composite
def edge_lists(draw, n, weights):
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    keep = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    return tuple((i, j, draw(weights)) for (i, j), k in zip(pairs, keep) if k)


@st.composite
def ising_models(draw, max_n=7):
    n = draw(st.integers(1, max_n))
    value = st.floats(-10.0, 10.0, allow_nan=False)
    h = tuple(draw(st.lists(value, min_size=n, max_size=n)))
    return IsingModel(n, h, draw(edge_lists(n, value)), draw(value))


@st.composite
def maxcut_instances(draw, weights, max_n=8):
    n = draw(st.integers(2, max_n))
    return MaxCutInstance(n, draw(edge_lists(n, weights)))


@st.composite
def bit_rows(draw, n):
    return np.array(draw(st.lists(st.lists(st.integers(0, 1), min_size=n, max_size=n),
                                  min_size=1, max_size=12)), dtype=np.uint8)


@examples
@given(st.data())
def test_gauge_transform_frame_identity(data):
    m = data.draw(ising_models())
    y = data.draw(bit_rows(m.n))[0]
    X = data.draw(bit_rows(m.n))
    assert np.array_equal(energies(gauge_transform(m, y), X), energies(m, X ^ y))


@examples
@given(st.data())
def test_lex_first_is_the_minimum_over_bit_tuples(data):
    n = data.draw(st.integers(1, 6))
    # few distinct rows, so equal rows and long shared prefixes are common
    X = data.draw(bit_rows(n))
    cand = np.array(data.draw(st.permutations(range(len(X)))), dtype=np.int64)
    cand = cand[:data.draw(st.integers(1, len(cand)))]
    expected = min(cand.tolist(), key=lambda c: tuple(X[c]))
    assert lex_first(cand, lambda c, i: X[c, i], n) == expected
    # index bits, read as brute force reads them, give the same order
    idx = X.astype(np.int64) @ (1 << np.arange(n, dtype=np.int64))
    assert lex_first(idx[cand], lambda c, i: (c >> i) & 1, n) == idx[expected]


@examples
@given(maxcut_instances(st.integers(-2, 3).map(float)))
def test_brute_force_matches_the_minimum_over_all_bitstrings(g):
    # every MaxCut model ties x with its complement, so the tie rule always decides
    model = maxcut_to_ising(g)
    bits, e = brute_force_best(model)
    scanned = min((energy(model, x), tuple(x)) for x in all_bitstrings(model.n))
    assert (e, tuple(bits.tolist())) == scanned


@examples
@given(maxcut_instances(st.one_of(st.floats(allow_nan=False, allow_infinity=False),
                                  st.floats(-1e6, 1e6).map(lambda w: float(f"{w:.12g}"))),
                        max_n=12))
def test_instance_file_round_trip(tmp_path_factory, g):
    path = tmp_path_factory.mktemp("inst") / "g.txt"
    write_instance(g, path)
    assert read_instance(path) == g
    # a weight that 12 significant digits carry exactly is written as it always was
    for line, (_, _, w) in zip(path.read_text().splitlines()[1:], sorted(g.edges)):
        if float(f"{w:.12g}") == w:
            assert line.split()[2] == f"{w:.12g}"


def loop_canonical_triples(triples, n, what):
    """The per-triple validation loop that the vectorized check replaced."""
    out = []
    for t in triples:
        if len(t) != 3:
            raise ValueError(f"{what} entries must be (i, j, value) triples, got {t!r}")
        i, j, w = int(t[0]), int(t[1]), float(t[2])
        if i == j:
            raise ValueError(f"{what} ({i}, {j}) is a self-loop")
        if not (0 <= i < n and 0 <= j < n):
            raise ValueError(f"{what} ({i}, {j}) has an index outside [0, {n})")
        if i > j:
            raise ValueError(f"{what} ({i}, {j}) must be ordered i < j")
        if not np.isfinite(w):
            raise ValueError(f"{what} ({i}, {j}) has non-finite value {w}")
        out.append((i, j, w))
    if out:
        keys = np.array([i * n + j for i, j, _ in out], dtype=np.int64)
        if np.unique(keys).size != keys.size:
            raise ValueError(f"duplicate {what} pair")
    return tuple(out)


def assert_validation_matches_the_loop(triples, n):
    try:
        expected = loop_canonical_triples(triples, n, "edge")
    except ValueError:
        with pytest.raises(ValueError):
            _canonical_triples(triples, n, "edge")
        return
    got, (i, j, w) = _canonical_triples(triples, n, "edge")
    assert got == expected
    assert all(type(v) is t for e in got for v, t in zip(e, (int, int, float)))
    assert tuple(zip(i.tolist(), j.tolist(), w.tolist())) == got


@examples
@given(st.data())
def test_vectorized_validation_matches_the_loop(data):
    n = data.draw(st.integers(2, 6))
    value = st.one_of(st.integers(-3, 3), st.floats(allow_nan=False, allow_infinity=False))
    triples = list(data.draw(st.permutations(data.draw(edge_lists(n, value)))))
    assert_validation_matches_the_loop(triples, n)
    if not triples:
        return
    # each fault in turn, planted in one drawn triple
    k = data.draw(st.integers(0, len(triples) - 1))
    i, j, w = triples[k]
    bad_value = data.draw(st.sampled_from([np.nan, np.inf, -np.inf]))
    for fault in ((j, i, w), (i, i, w), (i, j + n, w), (i - n, j, w), (i, j, bad_value)):
        assert_validation_matches_the_loop(triples[:k] + [fault] + triples[k + 1:], n)
    assert_validation_matches_the_loop(triples + [(i, j, -w)], n)
