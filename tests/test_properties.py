"""Property tests: exact identities and oracles checked on generated models and inputs."""

import dataclasses
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ndar import (NODE_CAP, ConfigError, DampingSpec, ExperimentConfig, IsingModel,
                  MaxCutInstance, NdarConfig, QaoaParams, SamplerSpec, brute_force_best, energies,
                  energy, gen_weighted_dense, maxcut_to_ising, read_instance, run_ndar,
                  write_instance)
from ndar import cli, harness
from ndar.annealing import SA_SPIN_BUDGET, SA_SWEEPS_CAP
from ndar.circuits import DEPTH_CAP
from ndar.cli import main
from ndar.engine import SHOTS_CAP
from ndar.harness import _CONFIG_KEYS, RUNS_CAP
from ndar.ising import _canonical_triples, lex_first
from ndar.simulator import ANGLE_BOUND, GRID_STEPS_CAP
from oracles import all_bitstrings, gauge_transform

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


def float64_path(model):
    """A copy of the model whose energies take the float64 path."""
    copy = dataclasses.replace(model)
    copy.__dict__["terms"] = (model.h, model.coupling_matrix)
    return copy


def assert_exact_float32_energies(model, X):
    """energies takes the float32 path and returns the bits of the float64 path."""
    assert model.terms[0].dtype == np.float32
    batch = energies(model, X)
    assert batch.dtype == np.float64
    assert batch.tobytes() == energies(float64_path(model), X).tobytes()
    return batch


@st.composite
def dyadic_models(draw, max_n=7):
    """Weights and fields k 2^-p with small integers k, and a nonzero offset of any kind."""
    n = draw(st.integers(1, max_n))
    p = draw(st.sampled_from([0, 1, 2, 5, 12, 40]))
    value = st.integers(-64, 64).map(lambda k: k * 2.0 ** -p)
    h = tuple(draw(st.lists(value, min_size=n, max_size=n)))
    offset = draw(st.floats(-10.0, 10.0).filter(bool))
    return IsingModel(n, h, draw(edge_lists(n, value)), offset)


@examples
@given(st.data())
def test_float32_energies_are_exact_on_dyadic_models(data):
    model = data.draw(dyadic_models())
    X = data.draw(bit_rows(model.n))
    batch = assert_exact_float32_energies(model, X)
    assert batch.tolist() == [energy(model, x) for x in X]


def test_float32_energies_are_exact_on_a_dense_300_node_batch():
    model = maxcut_to_ising(gen_weighted_dense(300, 5))
    X = np.random.default_rng(5).integers(0, 2, (3000, 300), dtype=np.uint8)
    batch = assert_exact_float32_energies(model, X)
    assert batch[:100].tolist() == [energy(model, x) for x in X[:100]]


@pytest.mark.parametrize("scale", [1.0, 2.0 ** -3])
def test_a_model_at_the_float32_bound_qualifies(scale):
    # sum |h| + 2 sum |J| = 2^24 u with u = scale: the largest total the rule accepts
    at_bound = IsingModel(3, (scale, -scale, 0.0), ((0, 1, (2.0 ** 23 - 2) * scale),
                                                   (1, 2, scale)), 0.25)
    fields_at_bound = IsingModel(2, ((2.0 ** 24 - 1) * scale, scale), ())
    for model in (at_bound, fields_at_bound):
        batch = assert_exact_float32_energies(model, all_bitstrings(model.n))
        assert batch.tolist() == [energy(model, x) for x in all_bitstrings(model.n)]


@pytest.mark.parametrize("model", [
    IsingModel(3, (0.0, 0.1, 0.0), ((0, 1, 0.1), (1, 2, -0.2))),
    IsingModel(4, tuple(np.random.default_rng(3).normal(size=4)),
               tuple((i, j, float(w)) for (i, j), w in zip(
                   ((0, 1), (0, 2), (1, 3), (2, 3)), np.random.default_rng(4).normal(size=4)))),
    IsingModel(2, (2.0 ** 24, 1.0), ()),  # sum |h| = 2^24 + 1 units of 1
    IsingModel(2, (2.0 ** 23, 0.5), ()),  # 2^24 + 1 units of 1/2, under 2^24 units of 1
    IsingModel(3, (0.0,) * 3, ((0, 1, 2.0 ** 22), (1, 2, 0.5))),  # 2 sum |J| = 2^24 + 2 halves
    # sum |h| = 2 and 2 sum |J| = 2^24: each alone within 2^24 units of 1, together not
    IsingModel(3, (1.0, -1.0, 0.0), ((0, 1, 2.0 ** 23 - 1), (1, 2, 1.0))),
    IsingModel(2, (2.0 ** 200, 0.0), ()),  # a multiple of 2^200, beyond the float32 range
    IsingModel(2, (2.0 ** -127, 0.0), ()),  # a unit below the smallest normal float32
], ids=["tenths", "gaussian", "fields-over", "finer-unit-over", "couplings-over",
        "fields-plus-couplings-over", "huge", "tiny-unit"])
def test_models_outside_the_float32_rule_take_the_float64_path(model):
    assert model.terms[0].dtype == np.float64
    X = all_bitstrings(model.n)
    assert energies(model, X).tobytes() == energies(float64_path(model), X).tobytes()


@st.composite
def samplers(draw):
    damping = DampingSpec(draw(st.sampled_from([0.0, 40.0, 400.0])), 180.0)
    kind = draw(st.sampled_from(["qaoa", "random-circuit", "classical-bernoulli"]))
    if kind == "qaoa":
        angle = st.floats(-1.5, 1.5)
        return SamplerSpec(kind, params=QaoaParams((draw(angle),), (draw(angle),)),
                           damping=damping)
    if kind == "random-circuit":
        return SamplerSpec(kind, depth=draw(st.integers(1, 3)), damping=damping,
                           fresh_circuit=draw(st.booleans()))
    return SamplerSpec(kind, q=draw(st.floats(0.0, 1.0)), damping=damping)


@examples
@given(ising_models(max_n=8), samplers(), st.integers(1, 16), st.integers(1, 6),
       st.one_of(st.none(), st.integers(1, 3)), st.integers(0, 2**32))
def test_mask_bookkeeping_holds_exactly(model, sampler, shots, iters, patience, seed):
    result = run_ndar(model, sampler, NdarConfig(shots, iters, seed, patience=patience))
    mask = np.zeros(model.n, dtype=np.uint8)
    attractor = energy(model, mask)
    for j, rec in enumerate(result.trace):
        assert rec.iter_index == j
        assert np.array_equal(rec.cumulative_mask, mask ^ rec.best_bits)
        assert rec.best_energy == energy(model, rec.cumulative_mask)
        assert rec.attractor_energy == attractor
        mask, attractor = rec.cumulative_mask, rec.best_energy
    assert 1 <= len(result.trace) <= iters
    e = [rec.best_energy for rec in result.trace]
    # j - b(j), where b(j) is the first record with the lowest energy among records 0..j
    stalls = [j - e.index(min(e[:j + 1])) for j in range(len(e))]
    assert patience is None or max(stalls[:-1], default=0) < patience
    if len(e) < iters:
        assert stalls[-1] == patience
    assert np.array_equal(result.final_mask, mask)
    lowest = min(rec.best_energy for rec in result.trace)
    assert result.best_energy_overall == lowest
    first = next(rec for rec in result.trace if rec.best_energy == lowest)
    assert np.array_equal(result.best_bits_original_frame, first.cumulative_mask)


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
    got = _canonical_triples(triples, n, "edge")
    i, j, w = got.arrays
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


finite = st.floats(allow_nan=False, allow_infinity=False)
angle = st.floats(-ANGLE_BOUND, ANGLE_BOUND)
# text that survives the parser's strip and holds no line break or comment marker
plain_text = st.text("abcXYZ019._-/", min_size=1, max_size=12)
# keys whose values decide whether the config is valid, drawn by hand below
_STRUCTURAL = {"instance.file", "instance.family", "instance.n", "sampler.kind", "sampler.q",
               "sampler.gammas", "sampler.betas", "runs"}
# the valid values of the keys that the config's domain objects check. The other keys take
# any value of their type; the instance keys are checked when the instance is built
_VALID = {
    "sampler.q": st.floats(0.0, 1.0),
    "sampler.depth": st.integers(1, DEPTH_CAP),
    "sampler.grid_steps": st.integers(1, GRID_STEPS_CAP),
    "sampler.gamma_min": angle,
    "sampler.gamma_max": angle,
    "sampler.beta_min": angle,
    "sampler.beta_max": angle,
    "sampler.t_delay": st.floats(0.0, allow_infinity=False),
    "sampler.t1": st.floats(0.0, exclude_min=True, allow_infinity=False),
    "ndar.shots": st.integers(1, SHOTS_CAP),
    "ndar.iters": st.integers(1, 10**9),
    "ndar.seed": st.integers(0, 10**9),
    "ndar.patience": st.integers(1, 10**9),
    # sa.reads within its budget for every instance.n (see test_harness for beyond)
    "sa.reads": st.integers(1, SA_SPIN_BUDGET // NODE_CAP),
    "sa.sweeps": st.integers(1, SA_SWEEPS_CAP),
    # at most the default sa.beta_max, and at least the default or any drawn sa.beta_min
    "sa.beta_min": st.floats(0.0, 10.0, exclude_min=True),
    "sa.beta_max": st.floats(10.0, allow_infinity=False),
    "sa.seed": st.integers(0, 10**9),
}


@st.composite
def typed_value(draw, cast):
    """(text, parsed value) for one config value of the given parser type."""
    if cast is int:
        v = draw(st.integers(-10**9, 10**9))
        return str(v), v
    if cast is float:
        v = draw(finite)
        return repr(v), v
    if cast is bool:
        text = draw(st.sampled_from(["true", "false", "True", "FALSE", "tRuE"]))
        return text, text.lower() == "true"
    if cast is tuple:
        v = tuple(draw(st.lists(finite, min_size=1, max_size=4)))
        return ",".join(map(repr, v)), v
    v = draw(plain_text)
    return v, v


@st.composite
def valid_config_entries(draw):
    """A valid config as {key: (text, parsed value)}."""
    entries = {}
    if draw(st.booleans()):
        entries["instance.file"] = draw(typed_value(str))
    else:
        family = draw(st.sampled_from(["unweighted-sparse", "weighted-dense"]))
        entries["instance.family"] = (family, family)
        entries["instance.n"] = draw(typed_value(int))
    kind = draw(st.sampled_from(["classical-bernoulli", "qaoa", "random-circuit", None]))
    if kind is not None:
        entries["sampler.kind"] = (kind, kind)
    if kind in ("classical-bernoulli", None) or draw(st.booleans()):
        q = draw(_VALID["sampler.q"])
        entries["sampler.q"] = (repr(q), q)
    if draw(st.booleans()):
        p = draw(st.integers(1, 4))
        for key in ("sampler.gammas", "sampler.betas"):
            v = tuple(draw(st.lists(finite, min_size=p, max_size=p)))
            entries[key] = (",".join(map(repr, v)), v)
    if draw(st.booleans()):
        runs = draw(st.integers(1, 1000))
        entries["runs"] = (str(runs), runs)
    for key, (_, cast) in _CONFIG_KEYS.items():
        if key in _STRUCTURAL or not draw(st.booleans()):
            continue
        if key in _VALID:
            v = draw(_VALID[key])
            entries[key] = (repr(v), v)
        else:
            entries[key] = draw(typed_value(cast))
    return entries


def config_text(draw, entries):
    """Render the entries in a drawn order, with drawn padding, comments and blank lines."""
    pad = st.sampled_from(["", " ", "  ", "\t"])
    lines = []
    for key in draw(st.permutations(sorted(entries))):
        if draw(st.booleans()):
            lines.append(draw(st.sampled_from(["", "# a comment", "   # indented = comment"])))
        lines.append(f"{draw(pad)}{key}{draw(pad)}={draw(pad)}{entries[key][0]}{draw(pad)}")
    return "\n".join(lines) + "\n"


@examples
@given(st.data())
def test_valid_config_files_fill_the_fields_the_table_names(tmp_path_factory, data):
    entries = data.draw(valid_config_entries())
    path = tmp_path_factory.mktemp("cfg") / "exp.cfg"
    path.write_text(config_text(data.draw, entries))
    cfg = ExperimentConfig.from_file(path)
    defaults = {f.name: f.default for f in dataclasses.fields(ExperimentConfig)}
    for key, (field, _) in _CONFIG_KEYS.items():
        expected = entries[key][1] if key in entries else defaults[field]
        assert getattr(cfg, field) == expected, key


@examples
@given(st.data())
def test_unknown_keys_and_malformed_values_exit_with_code_2(tmp_path_factory, data):
    entries = data.draw(valid_config_entries())
    typed = [key for key, (_, cast) in _CONFIG_KEYS.items() if cast is not str]
    if data.draw(st.booleans()):
        key = data.draw(st.sampled_from(typed))
        cast = _CONFIG_KEYS[key][1]
        bad = {int: st.sampled_from(["1.5", "ten", "0x10", "", "1e3"]),
               float: st.sampled_from(["one", "1,5", "", "--1"]),
               bool: st.sampled_from(["yes", "1", "", "on"]),
               tuple: st.sampled_from(["", "a,b", "0.1,,0.2", "0.1;0.2"])}[cast]
        entries[key] = (data.draw(bad), None)
        message = f"config key {key!r}: cannot parse"
    else:
        unknown = data.draw(st.text("abcdefgh._", min_size=1, max_size=10).filter(
            lambda k: k not in _CONFIG_KEYS))
        entries[unknown] = ("1", None)
        message = f"unknown key {unknown!r}"
    root = tmp_path_factory.mktemp("bad")
    path = root / "exp.cfg"
    path.write_text(config_text(data.draw, entries))
    with pytest.raises(ConfigError, match=re.escape(message)):
        ExperimentConfig.from_file(path)
    assert main(["run", "--config", str(path), "--out", str(root / "out")]) == 2
    assert not (root / "out").exists()


# values the config refuses for every sampler kind, among them sampler.q and sampler.depth,
# which only one kind reads, and shot, sweep and run counts beyond their caps; a value of
# sampler.gammas or sampler.betas is refused when the other is unset or of another length
_INVALID = {
    "ndar.shots": ["0", str(SHOTS_CAP + 1)],
    "ndar.iters": ["0"],
    "ndar.patience": ["0"],
    "ndar.seed": ["-1"],
    "sampler.kind": ["mystery"],
    "sampler.q": ["1.5", "-0.25"],
    "sampler.depth": ["0"],
    "sampler.t1": ["0", "nan"],
    "sampler.t_delay": ["-1"],
    "sampler.gammas": ["0.1"],
    "sampler.betas": ["0.1,0.2"],
    "sampler.grid_steps": ["0", "1000"],
    "sampler.gamma_min": ["nan", "9e307"],
    "sampler.beta_max": ["inf", "-1e300"],
    "sa.reads": ["0"],
    "sa.sweeps": ["0", str(SA_SWEEPS_CAP + 1)],
    "sa.beta_min": ["0", "20"],
    "sa.seed": ["-1"],
    "runs": ["0", str(RUNS_CAP + 1)],
}


@st.composite
def config_entries(draw):
    """(config as {key: (text, parsed value or None)}, whether a drawn value may be refused)."""
    entries = draw(valid_config_entries())
    bad = draw(st.lists(st.sampled_from(sorted(_INVALID)), max_size=3, unique=True))
    for key in bad:
        entries[key] = (draw(st.sampled_from(_INVALID[key])), None)
    return entries, bool(bad)


class ReachedTheAnnealer(Exception):
    """Raised in place of the first annealing run: the config passed every check."""


def reach_the_annealer(*args, **kwargs):
    raise ReachedTheAnnealer


# what the instance loader returns while the subcommands are compared
_STAND_IN = gen_weighted_dense(4, 0)


@examples
@given(st.data())
def test_run_sa_baseline_and_params_search_refuse_the_same_configs(tmp_path_factory, data):
    # each subcommand loads a small stand-in instance and stops at its first annealing run,
    # which params-search never starts; what a config gives must not depend on the command
    root = tmp_path_factory.mktemp("agree")
    path = root / "exp.cfg"
    entries, maybe_refused = data.draw(config_entries())
    path.write_text(config_text(data.draw, entries))
    codes = {}
    with pytest.MonkeyPatch.context() as mp:
        for module in (harness, cli):
            mp.setattr(module, "load_instance", lambda config: _STAND_IN)
            mp.setattr(module, "sa_solve", reach_the_annealer)
        for command in ("run", "sa-baseline", "params-search"):
            args = [command, "--config", str(path)]
            if command != "sa-baseline":
                args += ["--out", str(root / command)]
            try:
                codes[command] = main(args)
            except ReachedTheAnnealer:
                codes[command] = 0
    assert len(set(codes.values())) == 1, codes
    assert maybe_refused or codes["run"] == 0, codes
    assert not (root / "run").exists()
