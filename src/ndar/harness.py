"""Experiment orchestration: config files, multi-run aggregation, CSV and figure output."""

from __future__ import annotations

import itertools
import math
import os
import shutil
from contextlib import contextmanager
from dataclasses import dataclass, field, fields, replace
from pathlib import Path

import numpy as np

from . import svgplot
from .annealing import SA_SPIN_BUDGET, SA_SWEEPS_CAP, SaConfig, check_effort, sa_solve
from .circuits import DEPTH_CAP, DampingSpec, QaoaParams, check_qubits
from .engine import (KIND_CLASSICAL_BERNOULLI, KIND_QAOA, KIND_RANDOM_CIRCUIT, SAMPLER_KINDS,
                     SHOTS_CAP, NdarConfig, NdarResult, SamplerSpec, check_q_and_depth,
                     derive_seed, qaoa_tree, run_ndar)
from .errors import ConfigError, ResourceLimitError
from .ising import (BRUTE_FORCE_CAP, NODE_CAP, MaxCutInstance, brute_force_best, edge_density,
                    gen_unweighted, gen_weighted_dense, maxcut_to_ising, read_instance)
from .simulator import ANGLE_BOUND, GRID_STEPS_CAP, check_grid, grid_scan

FAMILY_UNWEIGHTED = "unweighted-sparse"
FAMILY_WEIGHTED = "weighted-dense"

# instance family -> its generator of (n, density, seed); only unweighted-sparse reads density
FAMILIES = {FAMILY_UNWEIGHTED: gen_unweighted,
            FAMILY_WEIGHTED: lambda n, density, seed: gen_weighted_dense(n, seed)}

# most independent NDAR runs per experiment; a run's files are written as it ends
RUNS_CAP = 1 << 10

# harness-level seed streams, distinct from the engine's per-iteration tags
_STREAM_RUN = 10
_STREAM_SA = 11


def _key(name: str, parse, default=None, *, help: str):
    """A config field: the file key that sets it, the parser of its text, its default, and
    its line in `ndar run --help` (run_epilog)."""
    return field(default=default, metadata={"key": name, "parse": parse, "help": help})


# the tail of each grid bound's help text
_GRID = f"of the grid, within +-2^{math.log2(ANGLE_BOUND):g}"


def _fmt(v) -> str:
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, float):
        return f"{v:.12g}"
    return str(v)


def _parse_kv_file(path) -> dict[str, str]:
    p = Path(path)
    if not p.is_file():
        raise ConfigError(f"config file not found: {path}")
    out: dict[str, str] = {}
    for lineno, raw in enumerate(p.read_text(encoding="utf-8").splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value', got {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in _CONFIG_KEYS:
            raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
        if key in out:
            raise ConfigError(f"{path}:{lineno}: duplicate key {key!r}")
        out[key] = value
    return out


def _conv(key, raw, cast):
    try:
        if cast is bool:
            low = raw.lower()
            if low not in ("true", "false"):
                raise ValueError
            return low == "true"
        if cast is tuple:
            return tuple(float(part) for part in raw.split(","))
        return cast(raw)
    except ValueError:
        raise ConfigError(f"config key {key!r}: cannot parse {raw!r} as {cast.__name__}") from None


@contextmanager
def _naming_keys(names: str):
    """Name the config keys in a domain type's error; a ValueError becomes a ConfigError."""
    try:
        yield
    except ValueError as exc:
        raise ConfigError(f"{names}: {exc}") from None
    except ResourceLimitError as exc:
        raise ResourceLimitError(f"{names}: {exc}") from None


@dataclass(frozen=True)
class ExperimentConfig:
    """Typed view of one experiment: instance source, sampler, loop and baseline settings.

    Every key is checked here, when the config is read, whatever the subcommand and the
    sampler kind. The domain objects are built once: `damping`, `sampler` (None for QAOA
    without angles), `ndar` and `sa`. Only instance keys and n-dependent caps wait for n.
    """

    instance_file: str | None = _key("instance.file", str, help="edge-list file, or instead:")
    family: str | None = _key("instance.family", str, help=" | ".join(FAMILIES))
    n: int | None = _key("instance.n", int, help=f"generated node count, at most {NODE_CAP}")
    density: float = _key("instance.density", float, 0.3,
                          help="edge probability, unweighted-sparse only")
    instance_seed: int = _key("instance.seed", int, 0, help="generator seed")
    sampler_kind: str = _key("sampler.kind", str, KIND_CLASSICAL_BERNOULLI,
                             help=" | ".join(SAMPLER_KINDS))
    q: float | None = _key("sampler.q", float,
                           help="bit-suppress probability in [0, 1] (classical-bernoulli)")
    depth: int = _key("sampler.depth", int, 2, help=f"random circuit layers, at most {DEPTH_CAP}")
    fresh_circuit: bool = _key("sampler.fresh_circuit", bool, False,
                               help="redraw the random circuit each iteration")
    gammas: tuple[float, ...] | None = _key("sampler.gammas", tuple,
                                            help="comma-separated angles; unset, grid-searched")
    betas: tuple[float, ...] | None = _key("sampler.betas", tuple, help="as many as sampler.gammas")
    grid_steps: int = _key("sampler.grid_steps", int, 20,
                           help=f"grid points per axis, at most {GRID_STEPS_CAP}")
    gamma_min: float = _key("sampler.gamma_min", float, -math.pi / 2.0, help=f"first gamma {_GRID}")
    gamma_max: float = _key("sampler.gamma_max", float, math.pi / 2.0, help=f"last gamma {_GRID}")
    beta_min: float = _key("sampler.beta_min", float, -math.pi / 4.0, help=f"first beta {_GRID}")
    beta_max: float = _key("sampler.beta_max", float, math.pi / 4.0, help=f"last beta {_GRID}")
    t_delay: float = _key("sampler.t_delay", float, 0.0, help="delay before measurement, in us")
    t1: float = _key("sampler.t1", float, 180.0, help="relaxation time, in us")
    shots: int = _key("ndar.shots", int, 1000, help=f"samples per iteration, at most {SHOTS_CAP}")
    iters: int = _key("ndar.iters", int, 12, help="iterations per run")
    seed: int = _key("ndar.seed", int, 0, help="experiment seed")
    patience: int | None = _key("ndar.patience", int, help="stop a run after this many stalled "
                                "iterations; trajectory.csv carries its best cut forward")
    sa_reads: int = _key("sa.reads", int, SaConfig.num_reads,
                         help=f"annealer restarts; reads x n at most {SA_SPIN_BUDGET}")
    sa_sweeps: int = _key("sa.sweeps", int, SaConfig.sweeps_per_read,
                          help=f"sweeps per read, at most {SA_SWEEPS_CAP}")
    sa_beta_min: float = _key("sa.beta_min", float, SaConfig.beta_min, help="beta ramp start")
    sa_beta_max: float = _key("sa.beta_max", float, SaConfig.beta_max, help="beta ramp end")
    sa_seed: int | None = _key("sa.seed", int, help="annealer seed; unset, derived from ndar.seed")
    runs: int = _key("runs", int, 10, help=f"independent NDAR runs, at most {RUNS_CAP}")
    output_dir: str | None = _key("output_dir", str, help="where to write results (or pass --out)")

    def __post_init__(self):
        if (self.instance_file is None) == (self.family is None):
            raise ConfigError("set exactly one of instance.file or instance.family")
        if self.family is not None:
            if self.family not in FAMILIES:
                raise ConfigError(f"unknown instance family {self.family!r}")
            if self.n is None:
                raise ConfigError("generated instances need instance.n")
        if (self.gammas is None) != (self.betas is None):
            raise ConfigError("set sampler.gammas and sampler.betas together")
        if self.runs < 1:
            raise ConfigError("runs must be >= 1")
        if self.runs > RUNS_CAP:
            raise ResourceLimitError(f"{self.runs} runs exceeds the cap {RUNS_CAP}")
        with _naming_keys("sampler.q, sampler.depth"):  # QAOA without angles has no sampler yet
            check_q_and_depth(self.q, self.depth)
        # the annealer's budget before any instance exists; sa_solve checks a file's n once it
        # is read, and an n that no generator accepts fails there with its own message
        n = self.n if self.family is not None else 1
        check_effort(self.sa_reads, self.sa_sweeps, min(max(n, 1), NODE_CAP))
        # params-search scans the grid whatever the sampler kind
        with _naming_keys("sampler.grid_steps, sampler.gamma_min/max, sampler.beta_min/max"):
            check_grid(self.grid_steps, (self.gamma_min, self.gamma_max),
                       (self.beta_min, self.beta_max))
        with _naming_keys("sampler.t_delay, sampler.t1"):
            damping = DampingSpec(self.t_delay, self.t1)
        kind = self.sampler_kind
        with _naming_keys("sampler.kind, sampler.q, sampler.depth, sampler.gammas/betas"):
            params = None if self.gammas is None else QaoaParams(self.gammas, self.betas)
            sampler = None if kind == KIND_QAOA and params is None else SamplerSpec(
                kind, params if kind == KIND_QAOA else None, self.depth,
                self.q if kind == KIND_CLASSICAL_BERNOULLI else None, damping, self.fresh_circuit)
        with _naming_keys("ndar.shots, ndar.iters, ndar.seed, ndar.patience"):
            ndar = NdarConfig(self.shots, self.iters, self.seed, self.patience)
        # an unset sa.seed derives from ndar.seed, so all commands agree
        seed = self.sa_seed if self.sa_seed is not None else derive_seed(self.seed, _STREAM_SA, 0)
        with _naming_keys("sa.reads, sa.sweeps, sa.beta_min/max, sa.seed"):
            sa = SaConfig(self.sa_reads, self.sa_sweeps, self.sa_beta_min, self.sa_beta_max, seed)
        for name, value in ("damping", damping), ("sampler", sampler), ("ndar", ndar), ("sa", sa):
            object.__setattr__(self, name, value)

    @classmethod
    def from_file(cls, path) -> "ExperimentConfig":
        kv = _parse_kv_file(path)
        return cls(**{name: _conv(key, kv[key], cast)
                      for key, (name, cast) in _CONFIG_KEYS.items() if key in kv})


# config key -> (ExperimentConfig field, parser)
_CONFIG_KEYS = {f.metadata["key"]: (f.name, f.metadata["parse"])
                for f in fields(ExperimentConfig)}


def load_instance(config: ExperimentConfig) -> MaxCutInstance:
    """Materialize the instance from a file or from the named generator family."""
    if config.instance_file is not None:
        return read_instance(config.instance_file)
    return FAMILIES[config.family](config.n, config.density, config.instance_seed)


def build_sampler(config: ExperimentConfig, model) -> SamplerSpec:
    """The config's sampler; QAOA angles fall back to a grid search on the original model.

    Circuit samplers refuse models beyond the qubit cap here, before any statevector exists.
    """
    if config.sampler_kind != KIND_CLASSICAL_BERNOULLI:
        check_qubits(model.n)
    if config.sampler is not None:
        return config.sampler
    params, _, _ = grid_search(model, config)
    return SamplerSpec(KIND_QAOA, params=params, damping=config.damping)


def grid_search(model, config: ExperimentConfig):
    """The configured grid_scan; returns (best params, best value, landscape rows)."""
    return grid_scan(model, (config.gamma_min, config.gamma_max),
                     (config.beta_min, config.beta_max), config.grid_steps)


@dataclass(frozen=True)
class AggregateRow:
    """Across-run statistics for one iteration; sem is sample std over sqrt(runs)."""

    iter_index: int
    mean_best_cut: float
    sem_best_cut: float
    mean_ratio: float
    sem_ratio: float
    mean_cumulative_ratio: float


def _sem(values: np.ndarray) -> float:
    if values.size < 2:
        return 0.0
    return float(values.std(ddof=1) / math.sqrt(values.size))


def _check_reference_cut(sa_cut: float) -> None:
    if sa_cut == 0.0:
        raise ConfigError("reference cut is zero; ratios are undefined for this instance")


def aggregate(run_cuts: list[list[float]], sa_cut: float) -> list[AggregateRow]:
    """Fold per-run lists of best cuts into per-iteration rows; ratios divide by E_SA.

    A run that `patience` stopped early counts with its cumulative best cut at every
    iteration after its last, up to the length of the longest run.
    """
    _check_reference_cut(sa_cut)
    iters = max(len(c) for c in run_cuts)
    cuts = np.array([c + [max(c)] * (iters - len(c)) for c in run_cuts])
    cum = np.maximum.accumulate(cuts, axis=1)
    rows = []
    for j in range(iters):
        rows.append(AggregateRow(
            iter_index=j,
            mean_best_cut=float(cuts[:, j].mean()),
            sem_best_cut=_sem(cuts[:, j]),
            mean_ratio=float((cuts[:, j] / sa_cut).mean()),
            sem_ratio=_sem(cuts[:, j] / sa_cut),
            mean_cumulative_ratio=float((cum[:, j] / sa_cut).mean()),
        ))
    return rows


# the top-level files a run writes and the figures `report(svg=True)` draws from them,
# meta.txt first so a half-replaced `out` never looks complete
_RUN_FILES = ("meta.txt", "trajectory.csv", "cost_dist.csv", "hamming_dist.csv",
              "ratio_trajectory.svg", "cost_dist.svg", "hamming_dist.svg")

# trajectory.csv's columns, as run_experiment writes them and report reads them
_TRAJECTORY_COLUMNS = tuple(f.name for f in fields(AggregateRow))
# the columns of runs/run_XXX.csv, cost_dist.csv and hamming_dist.csv, in their writers' order
_RUN_COLUMNS = ("iter_index", "best_cut", "best_energy", "cumulative_best_cut",
                "attractor_energy", "best_hamming_weight")
_COST_COLUMNS = ("run_index", "iter_index", "energy", "count")
_HAMMING_COLUMNS = ("run_index", "iter_index", "weight", "count")


def run_epilog() -> str:
    """The `ndar run --help` epilog: each config key with its help text and default, and the
    columns of each output file."""
    keys = [f"  {f.metadata['key']:<24}{f.metadata['help']}"
            + ("" if f.default is None else f" (default {_fmt(f.default)})")
            for f in fields(ExperimentConfig)]
    files = [f"  {name:<18}{','.join(columns)}{note}" for name, columns, note in (
        ("trajectory.csv", _TRAJECTORY_COLUMNS, ""), ("runs/run_XXX.csv", _RUN_COLUMNS, ""),
        ("cost_dist.csv", _COST_COLUMNS, "  (first and last iteration)"),
        ("hamming_dist.csv", _HAMMING_COLUMNS, "  (first and last iteration)"))]
    return "\n".join([
        "config file keys (flat `key = value` lines, `#` comments):", *keys,
        "keys are checked when the config is read, by every command; the instance and n caps "
        "come later",
        "", "output files:", *files,
        "  meta.txt          instance, sampler, annealer, and reference-cut facts", ""])


def _open(path):
    return open(path, "w", encoding="utf-8", newline="\n")


def _write_lines(path, lines) -> None:
    with _open(path) as fh:
        fh.write("\n".join(lines) + "\n")


def _write_run(d: Path, r: int, res: NdarResult, cost, ham) -> list[float]:
    """Write run r's trace to d/runs and its histograms to the open distribution files;
    returns its per-iteration best cuts."""
    cuts = [rec.best_cut for rec in res.trace]
    with _open(d / "runs" / f"run_{r:03d}.csv") as fh:
        fh.write(",".join(_RUN_COLUMNS) + "\n")
        fh.writelines(f"{rec.iter_index},{_fmt(rec.best_cut)},{_fmt(rec.best_energy)},"
                      f"{_fmt(cum)},{_fmt(rec.attractor_energy)},{int(rec.best_bits.sum())}\n"
                      for rec, cum in zip(res.trace, itertools.accumulate(cuts, max)))
    for j, (values, counts), weights in res.distributions:
        cost.writelines(f"{r},{j},{_fmt(e)},{c}\n"
                        for e, c in zip(values.tolist(), counts.tolist()))
        ham.writelines(f"{r},{j},{w},{c}\n" for w, c in enumerate(weights.tolist()) if c)
    return cuts


def _write_meta(d: Path, config: ExperimentConfig, graph: MaxCutInstance, sampler: SamplerSpec,
                sa_energy: float, bf_energy) -> None:
    """Write d/meta.txt, the file whose presence marks a run directory complete."""
    meta = [
        ("instance", config.instance_file or config.family),
        ("n", graph.n),
        ("edges", len(graph.edges)),
        ("realized_density", edge_density(graph)),
        ("instance_seed", "-" if config.instance_file else config.instance_seed),
        ("experiment_seed", config.seed),
        ("runs", config.runs),
        ("shots", config.shots),
        ("iters", config.iters),
        ("ndar.patience", "-" if config.ndar.patience is None else config.ndar.patience),
        ("sampler.kind", sampler.kind),
        ("sampler.q", "-" if sampler.q is None else sampler.q),
        ("sampler.depth", sampler.depth if sampler.kind == KIND_RANDOM_CIRCUIT else "-"),
        ("sampler.fresh_circuit",
         sampler.fresh_circuit if sampler.kind == KIND_RANDOM_CIRCUIT else "-"),
        ("sampler.gammas", ",".join(_fmt(g) for g in sampler.params.gammas) if sampler.params else "-"),
        ("sampler.betas", ",".join(_fmt(b) for b in sampler.params.betas) if sampler.params else "-"),
        ("sampler.t_delay", sampler.damping.t_delay),
        ("sampler.t1", sampler.damping.t1),
        ("sampler.gamma_damp", sampler.damping.gamma_damp),
        ("sa.reads", config.sa.num_reads),
        ("sa.sweeps", config.sa.sweeps_per_read),
        ("sa.beta_min", config.sa.beta_min),
        ("sa.beta_max", config.sa.beta_max),
        ("sa.seed", config.sa.seed),
        ("e_sa_cut", -sa_energy),
        ("e_sa_energy", sa_energy),
        ("brute_force_energy", "-" if bf_energy is None else bf_energy),
        ("brute_force_cut", "-" if bf_energy is None else -bf_energy),
    ]
    _write_lines(d / "meta.txt", [f"{k} = {_fmt(v)}" for k, v in meta])


def _publish(tmp: Path, out: Path) -> None:
    """Move a finished run directory to `out` in one rename.

    An existing `out` keeps the files that do not belong to a run (e.g. landscape.csv):
    the earlier run's files and figures go, meta.txt first, then the new files move in,
    meta.txt last.
    """
    if not out.exists():
        os.rename(tmp, out)
        return
    for name in _RUN_FILES:
        (out / name).unlink(missing_ok=True)
    (out / "runs").mkdir(exist_ok=True)
    for old in (out / "runs").glob("run_*.csv"):
        old.unlink()
    for path in sorted(tmp.rglob("*"), key=lambda p: p.name == "meta.txt"):
        if path.is_file():
            os.replace(path, out / path.relative_to(tmp))


def _out_path(config: ExperimentConfig, out_dir) -> Path | None:
    """out_dir, else output_dir, as a Path; None when unset or "" (Path("") would be ".")."""
    raw = out_dir if out_dir is not None else config.output_dir
    return None if raw in (None, "") else Path(raw)


def run_experiment(config: ExperimentConfig, out_dir=None) -> dict:
    """Run the full experiment and write its output files; returns a summary dict.

    Output layout: runs/run_XXX.csv per-run traces, cost_dist.csv and hamming_dist.csv
    holding the first- and last-iteration histograms of every run, trajectory.csv (one
    AggregateRow per iteration), and meta.txt (instance, sampler, and baseline facts).
    Each run's files are written as it ends, and only its best cuts are kept. Files are
    byte-identical across re-executions. A run that fails leaves `out` as it was; a new
    `out` appears whole, but writing into an existing `out` is not atomic (see _publish):
    the earlier run's files are replaced, other files stay.
    """
    out = _out_path(config, out_dir)
    if out is None:
        raise ConfigError("no output directory: set output_dir or pass --out")
    graph = load_instance(config)
    model = maxcut_to_ising(graph)

    # the sampler comes first, so an over-cap circuit fails before the baselines run
    sampler = build_sampler(config, model)

    _, sa_energy = sa_solve(model, config.sa)
    sa_cut = -sa_energy
    # a zero reference cut (an edgeless graph, say) fails here, not after every NDAR run
    _check_reference_cut(sa_cut)

    bf_energy = None
    if model.n <= BRUTE_FORCE_CAP:
        _, bf_energy = brute_force_best(model)

    # a crash must not leave a directory that looks like a result, so files go to a
    # hidden sibling that moves to `out` only once meta.txt is written
    out.parent.mkdir(parents=True, exist_ok=True)
    # a plain mkdir, unlike mkdtemp's 0700, gives `out` the mode out.mkdir() would
    tmp = out.parent / f".{out.name}.{os.urandom(8).hex()}.partial"
    tmp.mkdir()
    try:
        (tmp / "runs").mkdir()
        # every run samples the one QAOA state, so its tree is built once per experiment
        tree = qaoa_tree(model, sampler) if sampler.kind == KIND_QAOA else None
        with _open(tmp / "cost_dist.csv") as cost, _open(tmp / "hamming_dist.csv") as ham:
            cost.write(",".join(_COST_COLUMNS) + "\n")
            ham.write(",".join(_HAMMING_COLUMNS) + "\n")
            cuts = [_write_run(tmp, r, run_ndar(model, sampler, replace(
                config.ndar, master_seed=derive_seed(config.seed, _STREAM_RUN, r)), tree=tree),
                cost, ham) for r in range(config.runs)]
        rows = aggregate(cuts, sa_cut)
        _write_lines(tmp / "trajectory.csv", [",".join(_TRAJECTORY_COLUMNS)] + [
            ",".join([str(r.iter_index)] + [_fmt(getattr(r, c)) for c in _TRAJECTORY_COLUMNS[1:]])
            for r in rows])
        _write_meta(tmp, config, graph, sampler, sa_energy, bf_energy)
        _publish(tmp, out)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    final = rows[-1]
    return {
        "out_dir": str(out),
        "n": graph.n,
        "e_sa_cut": sa_cut,
        "runs": config.runs,
        "final_mean_best_cut": final.mean_best_cut,
        "final_mean_ratio": final.mean_ratio,
        "final_sem_ratio": final.sem_ratio,
        "final_mean_cumulative_ratio": final.mean_cumulative_ratio,
    }


def _csv_rows(path):
    """Yield a CSV file's header, then its non-empty rows, each split on commas; a row
    whose column count differs from the header's is refused."""
    with open(path, encoding="utf-8") as fh:
        lines = (line.rstrip("\n") for line in fh)
        header = next(lines, None)
        if header is None:
            raise ConfigError(f"empty CSV: {path}")
        header = header.split(",")
        yield header
        for row in (line.split(",") for line in lines if line):
            if len(row) != len(header):
                raise ConfigError(f"corrupt CSV row in {path}: {row}")
            yield row


def report(run_dir, svg: bool = False) -> str:
    """Summarize a finished experiment directory; optionally emit SVG figures into it."""
    d = Path(run_dir)
    traj = d / "trajectory.csv"
    if not traj.is_file():
        listing = sorted(p.name for p in d.iterdir()) if d.is_dir() else "no such directory"
        raise ConfigError(f"missing trajectory.csv in {run_dir}; contents: {listing}")
    header, *rows = _csv_rows(traj)
    if tuple(header) != _TRAJECTORY_COLUMNS or not rows:
        raise ConfigError(f"corrupt trajectory.csv in {run_dir}")
    data = {name: [float(row[k]) for row in rows] for k, name in enumerate(header)}
    meta: dict[str, str] = {}
    if (d / "meta.txt").is_file():
        for line in (d / "meta.txt").read_text(encoding="utf-8").splitlines():
            if " = " in line:
                key, val = line.split(" = ", 1)
                meta[key] = val
    runs = int(meta.get("runs", "0"))
    last = rows[-1]
    lines = [f"experiment: {d}"]
    if meta:
        lines.append(f"instance: {meta.get('instance')} (n = {meta.get('n')}, "
                     f"edges = {meta.get('edges')}), sampler: {meta.get('sampler.kind')}")
        lines.append(f"reference cut E_SA = {meta.get('e_sa_cut')}")
    suffix = " (single run, sem = 0)" if runs == 1 else ""
    lines.append(f"iterations: {len(rows)}, final mean best cut = {last[1]} (sem {last[2]})")
    lines.append(f"final mean ratio = {last[3]} +/- {last[4]}{suffix}")
    lines.append(f"final mean cumulative ratio = {last[5]}")
    if svg:
        series = [
            {"label": "per-iteration ratio", "xs": data["iter_index"], "ys": data["mean_ratio"],
             "yerr": data["sem_ratio"]},
            {"label": "cumulative ratio", "xs": data["iter_index"],
             "ys": data["mean_cumulative_ratio"]},
        ]
        svgplot.line_chart(d / "ratio_trajectory.svg", "best-found cut relative to E_SA",
                           "iteration", "ratio", series)
        lines.append(f"wrote {d / 'ratio_trajectory.svg'}")
        for stem, xname, title in (("cost_dist", "energy", "sampled energies, run 0"),
                                   ("hamming_dist", "weight", "sampled Hamming weights, run 0")):
            path = d / f"{stem}.csv"
            if not path.is_file():
                continue
            dist = _csv_rows(path)
            next(dist)  # the header
            run0: dict[str, tuple[list[float], list[int]]] = {}  # iteration -> centers, counts
            for row in dist:  # runs in order (_write_run), so run 0 ends at the first other row
                if row[0] != "0":
                    break
                centers, counts = run0.setdefault(row[1], ([], []))
                centers.append(float(row[2]))
                counts.append(int(row[3]))
            dist.close()
            groups = [{"label": f"iteration {it}", "centers": run0[it][0], "counts": run0[it][1]}
                      for it in sorted(run0, key=int)]
            if groups:
                svgplot.histogram_chart(d / f"{stem}.svg", title, xname, "count", groups)
                lines.append(f"wrote {d / (stem + '.svg')}")
    return "\n".join(lines)


def params_search(config: ExperimentConfig, out_dir=None) -> tuple[QaoaParams, float]:
    """Grid-search QAOA angles for the configured instance; writes the landscape CSV."""
    model = maxcut_to_ising(load_instance(config))
    best, best_val, rows = grid_search(model, config)
    out = _out_path(config, out_dir)
    if out is not None:
        out.mkdir(parents=True, exist_ok=True)
        _write_lines(out / "landscape.csv", ["gamma,beta,expectation"] + [
            ",".join(_fmt(v) for v in row) for row in rows])
    return best, best_val

