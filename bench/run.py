#!/usr/bin/env python3
"""Benchmark of complete `ndar run` experiments on the paper's workloads.

    python3 bench/run.py --workload classical-dense-300 --seed 0 --seconds 40 --trace 0

Run from the repository root. Every repeat is one `ndar.cli.main(["run", ...])`
in a fresh Python process with PYTHONPATH=src (bench/child.py), and its output
directory is checked. --trace 0 prints the end-to-end metrics; --trace 1 makes
one untraced and one traced repeat (plus a traced --threads 1 repeat when the
workload runs a thread pool) and prints the per-layer metrics. The last line
of stdout is one JSON object with the keys correct, attempted, failed and
metrics; the exit code is 1 when any output check failed. Spans and results
are written under bench/out/.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"

sys.path.insert(0, str(BENCH))
import tracing  # noqa: E402

# set-up probes before every repeat, so they sample the whole run
SETUP_PROBES = 3
MIN_REPEATS = 2
# a whole invocation ends within 180 s; children get what is left of this
TIME_LIMIT_S = 170.0


@dataclass(frozen=True)
class Workload:
    why: str
    threads: int
    instance_seed: int  # instance.seed at --seed 0; --seed s uses instance_seed + s
    keys: dict
    tiny: dict  # overrides that shrink the workload for the smoke test


WORKLOADS = {
    "classical-dense-300": Workload(
        why="the paper's hardest classical case; ising and engine do the work, "
            "simulator none; the only workload with a thread pool",
        threads=2, instance_seed=3,
        keys={"instance.family": "weighted-dense", "instance.n": 300,
              "sampler.kind": "classical-bernoulli", "sampler.q": 0.95,
              "ndar.shots": 10000, "ndar.iters": 25, "runs": 2, "sa.sweeps": 100},
        tiny={"instance.n": 30, "ndar.shots": 200, "ndar.iters": 4, "sa.sweeps": 10,
              "sa.reads": 10}),
    "anneal-sparse-300": Workload(
        why="annealing does most of the work; single-threaded baseline; a third of the "
            "couplings, so gauge cost drops while dense energies cost stays",
        threads=1, instance_seed=2,
        keys={"instance.family": "unweighted-sparse", "instance.n": 300,
              "instance.density": 0.3, "sampler.kind": "classical-bernoulli",
              "sampler.q": 0.95, "ndar.shots": 10000, "ndar.iters": 20, "runs": 1,
              "sa.sweeps": 300},
        tiny={"instance.n": 30, "ndar.shots": 200, "ndar.iters": 4, "sa.sweeps": 10,
              "sa.reads": 10}),
    "qaoa-18": Workload(
        why="simulator does most of the work: the grid search evaluates one model at many "
            "angles, the loop many gauge frames at fixed angles",
        threads=1, instance_seed=29,
        keys={"instance.family": "unweighted-sparse", "instance.n": 18,
              "instance.density": 0.8, "sampler.kind": "qaoa", "sampler.grid_steps": 5,
              "sampler.t_delay": 100, "sampler.t1": 180, "ndar.shots": 1000,
              "ndar.iters": 8, "runs": 2},
        tiny={"instance.n": 8, "sampler.grid_steps": 3, "ndar.shots": 100,
              "ndar.iters": 4, "sa.sweeps": 10, "sa.reads": 10}),
}

END_TO_END_UNITS = {"experiment_s": "s", "setup_s": "s", "peak_rss_mb": "MB",
                    "final_mean_ratio": "ratio", "e_sa_cut": "cut", "ok_frac": "ratio"}


def config_text(wl: Workload, seed: int, tiny: bool) -> str:
    keys = {**wl.keys, **(wl.tiny if tiny else {}),
            "instance.seed": wl.instance_seed + seed, "ndar.seed": seed}
    return "".join(f"{k} = {v}\n" for k, v in keys.items())


class Clock:
    """Time left before the invocation must end."""

    def __init__(self):
        self.t0 = time.monotonic()

    def elapsed(self) -> float:
        return time.monotonic() - self.t0

    def left(self) -> float:
        return TIME_LIMIT_S - self.elapsed()


def child(mode: str, spec: dict, clock: Clock) -> tuple[dict | None, str]:
    """Run bench/child.py; returns (its JSON result or None, error text)."""
    env = dict(os.environ)
    env.pop("NDAR_THREADS", None)  # it would override --threads
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    timeout = clock.left()
    if timeout <= 1.0:
        return None, "no time left"
    try:
        proc = subprocess.run([sys.executable, str(BENCH / "child.py"), mode, json.dumps(spec)],
                              cwd=ROOT, env=env, capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        return None, f"timed out after {timeout:.0f} s"
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return None, f"exit code {proc.returncode}: {proc.stderr.strip()[-2000:]}"
    return json.loads(lines[-1]), ""


def _read_csv(path: Path) -> tuple[list[str], list[dict]]:
    lines = path.read_text(encoding="utf-8").splitlines()
    header = lines[0].split(",")
    return header, [dict(zip(header, ln.split(","))) for ln in lines[1:] if ln]


def check_output(out: Path, iters: int, runs: int) -> tuple[list[str], dict]:
    """Output checks of one finished run directory; returns (problems, result values)."""
    problems = []
    try:
        _, traj = _read_csv(out / "trajectory.csv")
        meta = dict(line.split(" = ", 1)
                    for line in (out / "meta.txt").read_text(encoding="utf-8").splitlines())
        values = {"final_mean_ratio": float(traj[-1]["mean_ratio"]),
                  "e_sa_cut": float(meta["e_sa_cut"])}
        if len(traj) != iters:
            problems.append(f"trajectory.csv has {len(traj)} rows, expected {iters}")
        names = sorted(p.name for p in (out / "runs").iterdir())
        if names != [f"run_{r:03d}.csv" for r in range(runs)]:
            problems.append(f"runs/ holds {names}, expected run_000..run_{runs - 1:03d}")
        bf = None if meta["brute_force_cut"] == "-" else float(meta["brute_force_cut"])
        if bf is not None and values["e_sa_cut"] > bf:
            problems.append(f"e_sa_cut {values['e_sa_cut']} exceeds brute_force_cut {bf}")
        for name in names:
            for row in _read_csv(out / "runs" / name)[1]:
                cut, e = float(row["best_cut"]), float(row["best_energy"])
                if e != -cut:
                    problems.append(f"{name} iter {row['iter_index']}: best_energy {e} != -best_cut")
                if bf is not None and max(cut, float(row["cumulative_best_cut"])) > bf:
                    problems.append(f"{name} iter {row['iter_index']}: cut above brute_force_cut {bf}")
    except (OSError, ValueError, KeyError, IndexError) as exc:
        return [f"unreadable output: {exc!r}"], {}
    return problems, values


def dir_digest(path: Path) -> str:
    h = hashlib.sha256()
    for p in sorted(path.rglob("*")):
        if p.is_file():
            h.update(str(p.relative_to(path)).encode() + b"\0" + p.read_bytes() + b"\0")
    return h.hexdigest()


def dir_bytes(path: Path) -> int:
    return sum(p.stat().st_size for p in path.rglob("*") if p.is_file())


class Session:
    """Repeats of one workload at one seed, with their output checks."""

    def __init__(self, name: str, seed: int, tiny: bool, work: Path, clock: Clock):
        self.wl = WORKLOADS[name]
        self.name = name
        self.work = work
        self.clock = clock
        self.config = work / "experiment.cfg"
        self.config.write_text(config_text(self.wl, seed, tiny), encoding="utf-8")
        keys = {**self.wl.keys, **(self.wl.tiny if tiny else {})}
        self.iters, self.runs = keys["ndar.iters"], keys["runs"]
        self.tiny = tiny
        self.repeats: list[dict] = []
        self.problems: list[str] = []
        self.digest = None

    def repeat(self, threads: int | None = None, spans: Path | None = None) -> dict:
        k = len(self.repeats)
        out = self.work / f"repeat_{k}"
        spec = {"config": str(self.config), "out": str(out),
                "threads": threads or self.wl.threads, "spans": str(spans) if spans else None,
                "workload": self.name, "repeat": k}
        res, err = child("run", spec, self.clock)
        rec = {"repeat": k, "out": out, **(res or {})}
        problems = [err]
        if res is not None:
            problems, values = check_output(out, self.iters, self.runs)
            rec.update(values)
            digest = dir_digest(out)
            self.digest = self.digest or digest
            if digest != self.digest:
                problems.append("run directory differs from the first repeat's")
        rec["ok"] = not problems
        self.problems += [f"repeat {k}: {p}" for p in problems]
        self.repeats.append(rec)
        return rec

    def setup_probes(self) -> list[float]:
        times = []
        for _ in range(SETUP_PROBES):
            res, err = child("setup", {"config": str(self.config)}, self.clock)
            if res is None:
                self.problems.append(f"setup: {err}")
                break
            times.append(res["setup_s"])
        return times

    @property
    def failed(self) -> int:
        return sum(not r["ok"] for r in self.repeats)


def measure(s: Session, seconds: float) -> dict:
    """End-to-end metrics: set-up probes and repeats until `seconds` are used."""
    setups = []
    last = 0.0
    while not s.problems and (len(s.repeats) < MIN_REPEATS
                              or s.clock.elapsed() + last <= min(seconds, TIME_LIMIT_S - 10)):
        t = time.monotonic()
        setups += s.setup_probes()
        s.repeat()
        last = time.monotonic() - t
    good = [r for r in s.repeats if r["ok"]]
    if not good or not setups:
        return {}
    times = [r["experiment_s"] for r in good]
    print(f"experiment_s samples ({len(times)}): " + " ".join(f"{t:.4f}" for t in times))
    print(f"setup_s samples ({len(setups)}): " + " ".join(f"{t:.4f}" for t in setups))
    values = {
        "experiment_s": statistics.median(times),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": statistics.median(r["maxrss_kb"] / 1024.0 for r in good),
        "final_mean_ratio": good[0]["final_mean_ratio"],
        "e_sa_cut": good[0]["e_sa_cut"],
        "ok_frac": 1.0 - s.failed / len(s.repeats),
    }
    return {k: (v, END_TO_END_UNITS[k]) for k, v in values.items()}


def load_spans(path: Path, repeat: int) -> list[dict]:
    if not path.is_file():
        return []
    with open(path, encoding="utf-8") as fh:
        return [s for s in map(json.loads, fh) if s["repeat"] == repeat]


def trace(s: Session, spans_path: Path) -> dict:
    """Per-layer metrics: an untraced repeat, a traced one, and a traced --threads 1 one."""
    spans_path.unlink(missing_ok=True)
    plain = s.repeat()
    traced = s.repeat(spans=spans_path)
    single = s.repeat(threads=1, spans=spans_path) if s.wl.threads > 1 else None
    if s.problems:
        return {}
    spans = load_spans(spans_path, traced["repeat"])
    metrics = tracing.layer_metrics(
        spans, untraced_s=plain["experiment_s"], output_bytes=dir_bytes(traced["out"]),
        absent_targets=len(traced["absent"]),
        threads1_spans=load_spans(spans_path, single["repeat"]) if single else None)
    present = tracing.present_layers(spans)
    print(f"experiment_s untraced {plain['experiment_s']:.4f} s, traced {traced['experiment_s']:.4f} s"
          + (f", traced at --threads 1 {single['experiment_s']:.4f} s" if single else ""))
    print(f"spans: {len(spans)} in repeat {traced['repeat']}, written to {spans_path}")
    print("absent layers: " + (", ".join(l for l in tracing.LAYERS if l not in present) or "none"))
    print("absent targets: " + (", ".join(traced["absent"]) or "none"))
    if not s.tiny:  # the design claims hold at full size only
        for line in design_checks(s.name, metrics, present):
            print(line)
    return metrics


def design_checks(name: str, m: dict, present: set[str]) -> list[str]:
    """The workload-design claims of the README, tested on one traced repeat."""
    v = {k: val for k, (val, _) in m.items()}
    checks = []
    if name == "anneal-sparse-300":
        checks.append(("annealing.sa_solve_s over half of experiment_s", v["annealing.share"] > 0.5))
    if name == "qaoa-18":
        checks.append(("simulator spans over half of experiment_s", v["simulator.share"] > 0.5))
    if name == "classical-dense-300":
        run_total = v["engine.run_ndar_s"] * v["engine.run_ndar.calls"]
        engine = (v["engine.self_s"] + v["engine.bernoulli_s"]) / run_total if run_total else 0.0
        checks.append(("ising plus engine over half of the NDAR phase",
                       v["ising.ndar_share"] + engine > 0.5))
    if name.startswith(("classical", "anneal")):
        checks.append(("no simulator span", "simulator" not in present))
    return [f"design check: {'PASS' if ok else 'FAIL'} {what}" for what, ok in checks]


def openblas_threads() -> str:
    """OpenBLAS thread count as numpy's bundled library reports it, not overridden."""
    import numpy
    libs = glob.glob(str(Path(numpy.__file__).parent.parent / "numpy.libs" / "*openblas*"))
    for path in libs:
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.argtypes, fn.restype = [], ctypes.c_int
                return str(fn())
    return os.environ.get("OPENBLAS_NUM_THREADS", "unknown")


def environment(seed: int) -> dict:
    import numpy
    head = "unknown"
    if (ROOT / ".git").exists():  # git would otherwise look above the checkout
        try:
            head = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                  text=True, timeout=10).stdout.strip() or head
        except (OSError, subprocess.TimeoutExpired):
            pass
    src_lines = sum(len(p.read_text(encoding="utf-8").splitlines()) for p in SRC.rglob("*.py"))
    return {"git_head": head, "python": platform.python_version(), "numpy": numpy.__version__,
            "nproc": len(os.sched_getaffinity(0)), "openblas_threads": openblas_threads(),
            "seed": seed, "src_lines": src_lines}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, default=0, help="derives instance.seed and ndar.seed")
    p.add_argument("--seconds", type=float, default=40.0, help="measuring time of --trace 0")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--tiny", action="store_true", help="shrink the workload (smoke test)")
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be >= 0")
    if not (SRC / "ndar" / "__init__.py").is_file():
        print(f"no ndar package under {SRC}", file=sys.stderr)
        return 2

    clock = Clock()
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    work = OUT / f"work-{tag}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        s = Session(args.workload, args.seed, args.tiny, work, clock)
        metrics = trace(s, OUT / f"spans-{args.workload}-seed{args.seed}.jsonl") if args.trace \
            else measure(s, args.seconds)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    env = environment(args.seed)
    correct = not s.problems and bool(metrics)
    for problem in s.problems:
        print(f"CHECK FAILED: {problem}")
    for name, (value, unit) in metrics.items():
        print(f"{name:36s} {value:.6g} {unit}")
    print("env: " + json.dumps(env))
    result = {"correct": correct, "attempted": max(len(s.repeats), 1),
              "failed": s.failed if s.repeats else 1,
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}
    (OUT / f"result-{tag}.json").write_text(
        json.dumps({**result, "workload": args.workload, "env": env}, indent=1) + "\n",
        encoding="utf-8")
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
