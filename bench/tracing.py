"""Spans around the calls between ndar's modules, and the per-layer metrics built from them.

The tracer records spans from outside the package: it replaces module-level
names that callers look up at call time (``ndar.harness.sa_solve``,
``ndar.engine.energies``, ...) with wrappers, so ``src/`` stays untouched. A
name that no longer exists is reported as an absent target; a layer whose
code never runs in the traced process (for instance because it moved into a
worker process) simply records no spans and is reported as absent.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import statistics
import threading
import time
from collections import defaultdict


def _rows(args, result):
    return {"rows": int(len(result))}


def _sim_bytes(args, result):
    circuit = args[0]
    # every gate reads and writes the whole complex128 statevector once
    return {"gates": len(circuit.gates), "bytes": len(circuit.gates) * 2 * 16 * (1 << circuit.n)}


def _gates(args, result):
    return {"gates": len(result.gates)}


def _spin_updates(args, result):
    model, cfg = args[0], args[1]
    return {"spin_updates": cfg.num_reads * cfg.sweeps_per_read * model.n}


def _grid_points(args, result):
    return {"points": len(result[2])}


# (span name, patch points as (module, attribute), work counter, record thread CPU time)
TARGETS = (
    ("harness.run_experiment", (("ndar.cli", "run_experiment"),), None, False),
    ("ising.generate", (("ndar.harness", "gen_weighted_dense"),
                        ("ndar.harness", "gen_unweighted")), None, False),
    ("ising.maxcut_to_ising", (("ndar.harness", "maxcut_to_ising"),), None, False),
    ("annealing.sa_solve", (("ndar.harness", "sa_solve"),), _spin_updates, False),
    ("ising.brute_force", (("ndar.harness", "brute_force_best"),), None, False),
    ("harness.grid_search", (("ndar.harness", "grid_search"),), _grid_points, False),
    ("simulator.qaoa_expectation", (("ndar.harness", "qaoa_expectation"),), None, False),
    ("engine.run_ndar", (("ndar.harness", "run_ndar"),), None, True),
    ("ising.gauge_transform", (("ndar.engine", "gauge_transform"),), None, False),
    ("ising.energies", (("ndar.engine", "energies"), ("ndar.simulator", "energies")), _rows, False),
    ("engine.bernoulli", (("ndar.engine", "classical_bernoulli_sample"),), None, False),
    ("circuits.build_qaoa", (("ndar.engine", "build_qaoa_circuit"),
                             ("ndar.simulator", "build_qaoa_circuit")), _gates, False),
    ("simulator.simulate", (("ndar.engine", "simulate"), ("ndar.simulator", "simulate")),
     _sim_bytes, False),
    ("simulator.sample", (("ndar.engine", "sample"),), None, False),
    ("simulator.apply_decay", (("ndar.engine", "apply_decay"),), None, False),
)

LAYERS = ("cli", "harness", "ising", "annealing", "engine", "circuits", "simulator")
SAMPLER_SPANS = ("engine.bernoulli", "simulator.sample")


class Tracer:
    """Collects spans in memory; the caller writes them out when the run ends."""

    def __init__(self):
        self.spans: list[dict] = []
        self.absent: list[str] = []
        self._lock = threading.Lock()
        self._next_id = 0
        self._stacks: dict[int, list[int]] = {}
        self._threads: dict[int, int] = {}
        self._main = threading.get_ident()
        self._t0 = time.perf_counter()

    def install(self) -> None:
        for name, points, work, cpu in TARGETS:
            for module_name, attr in points:
                self.wrap(module_name, attr, name, work, cpu)

    def wrap(self, module_name: str, attr: str, name: str, work=None, cpu: bool = False) -> None:
        try:
            module = importlib.import_module(module_name)
            fn = getattr(module, attr)
        except (ImportError, AttributeError):
            self.absent.append(f"{module_name}.{attr}")
            return

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with self.span(name, cpu) as rec:
                result = fn(*args, **kwargs)
                if work is not None:
                    try:
                        rec.update(work(args, result))
                    except (AttributeError, IndexError, TypeError):
                        rec["work_unreadable"] = True
                return result

        setattr(module, attr, wrapper)

    @contextlib.contextmanager
    def span(self, name: str, cpu: bool = False):
        tid = threading.get_ident()
        with self._lock:
            stack = self._stacks.setdefault(tid, [])
            # a pool thread's outermost span belongs to the span the main thread waits in
            outer = stack or self._stacks.get(self._main) or [None]
            rec = {"id": self._next_id, "name": name, "parent": outer[-1],
                   "thread": self._threads.setdefault(tid, len(self._threads))}
            self._next_id += 1
            stack.append(rec["id"])
        cpu0 = time.thread_time() if cpu else 0.0
        rec["start"] = time.perf_counter() - self._t0
        try:
            yield rec
        finally:
            rec["end"] = time.perf_counter() - self._t0
            if cpu:
                rec["cpu"] = time.thread_time() - cpu0
            with self._lock:
                stack.pop()
                self.spans.append(rec)


def _union_length(intervals) -> float:
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def _ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


def _ndar_phase_s(spans) -> float:
    """Wall time from the first engine.run_ndar start to the last one's end."""
    runs = [s for s in spans if s["name"] == "engine.run_ndar"]
    if not runs:
        return 0.0
    return max(s["end"] for s in runs) - min(s["start"] for s in runs)


def present_layers(spans) -> set[str]:
    return {s["name"].split(".", 1)[0] for s in spans}


def layer_metrics(spans, *, untraced_s: float, output_bytes: int, absent_targets: int,
                  threads1_spans=None) -> dict[str, tuple[float, str]]:
    """Per-layer metrics of one traced repeat, as name -> (value, unit).

    A layer with no spans reports 0 for its times and counts. thread_speedup
    compares the NDAR phase of `threads1_spans` (a repeat at --threads 1) with
    that of `spans`; it is 0 when no such repeat was made.
    """
    by_name = defaultdict(list)
    children = defaultdict(list)
    for s in spans:
        by_name[s["name"]].append(s)
        children[s["parent"]].append(s)

    def dur(s):
        return s["end"] - s["start"]

    def total(name):
        return sum(dur(s) for s in by_name[name])

    def calls(name):
        return len(by_name[name])

    def work(name, key):
        return sum(s.get(key, 0) for s in by_name[name])

    def self_s(name):
        return sum(dur(s) - _union_length((c["start"], c["end"]) for c in children[s["id"]])
                   for s in by_name[name])

    def layer_union(layer, within=None):
        chosen = [s for s in spans if s["name"].startswith(layer + ".")
                  and (within is None or s["parent"] in within)]
        per_thread = defaultdict(list)
        for s in chosen:
            per_thread[s["thread"]].append((s["start"], s["end"]))
        return sum(_union_length(v) for v in per_thread.values())

    experiment = total("cli.main")
    runs = by_name["engine.run_ndar"]
    run_ids = {s["id"] for s in runs}
    run_total = total("engine.run_ndar")
    starts = defaultdict(list)
    for s in spans:
        if s["name"] in SAMPLER_SPANS and s["parent"] in run_ids:
            starts[s["parent"]].append(s["start"])
    iters = []
    for v in starts.values():
        v.sort()
        iters += [b - a for a, b in zip(v, v[1:])]
    if len(iters) >= 2:
        deciles = statistics.quantiles(iters, n=10)
        iter_p50, iter_p90 = deciles[4], deciles[8]
    else:
        iter_p50 = iter_p90 = iters[0] if iters else 0.0
    phase = _ndar_phase_s(spans)
    phase1 = _ndar_phase_s(threads1_spans) if threads1_spans else 0.0

    return {
        "ising.build_s": (total("ising.generate") + total("ising.maxcut_to_ising"), "s"),
        "ising.gauge_transform_s": (total("ising.gauge_transform"), "s"),
        "ising.gauge_transform.calls": (calls("ising.gauge_transform"), "count"),
        "ising.energies_s": (total("ising.energies"), "s"),
        "ising.energies.rows_per_s": (_ratio(work("ising.energies", "rows"),
                                             total("ising.energies")), "1/s"),
        "ising.brute_force_s": (total("ising.brute_force"), "s"),
        "ising.ndar_share": (_ratio(layer_union("ising", run_ids), run_total), "ratio"),
        "engine.run_ndar_s": (_ratio(run_total, len(runs)), "s"),
        "engine.run_ndar.calls": (len(runs), "count"),
        "engine.self_s": (self_s("engine.run_ndar"), "s"),
        "engine.iter_s.p50": (iter_p50, "s"),
        "engine.iter_s.p90": (iter_p90, "s"),
        "engine.bernoulli_s": (total("engine.bernoulli"), "s"),
        "engine.run_ndar.wait_frac": (
            1.0 - _ratio(sum(s["cpu"] for s in runs), run_total) if runs else 0.0, "ratio"),
        "simulator.qaoa_expectation_s": (_ratio(total("simulator.qaoa_expectation"),
                                                calls("simulator.qaoa_expectation")), "s"),
        "simulator.qaoa_expectation.calls": (calls("simulator.qaoa_expectation"), "count"),
        "simulator.simulate_s": (total("simulator.simulate"), "s"),
        "simulator.simulate.calls": (calls("simulator.simulate"), "count"),
        "simulator.simulate.bytes_computed": (work("simulator.simulate", "bytes"), "bytes"),
        "simulator.simulate.gb_per_s": (_ratio(work("simulator.simulate", "bytes") / 1e9,
                                               total("simulator.simulate")), "GB/s"),
        "simulator.sample_s": (total("simulator.sample"), "s"),
        "simulator.apply_decay_s": (total("simulator.apply_decay"), "s"),
        "simulator.share": (_ratio(layer_union("simulator"), experiment), "ratio"),
        "circuits.build_qaoa_s": (total("circuits.build_qaoa"), "s"),
        "circuits.gates": (work("circuits.build_qaoa", "gates"), "count"),
        "annealing.sa_solve_s": (total("annealing.sa_solve"), "s"),
        "annealing.spin_updates_per_s": (_ratio(work("annealing.sa_solve", "spin_updates"),
                                                total("annealing.sa_solve")), "1/s"),
        "annealing.share": (_ratio(total("annealing.sa_solve"), experiment), "ratio"),
        "harness.grid_search_s": (total("harness.grid_search"), "s"),
        "harness.grid_points": (work("harness.grid_search", "points"), "count"),
        "harness.self_s": (self_s("harness.run_experiment"), "s"),
        "harness.output_bytes": (output_bytes, "bytes"),
        "harness.thread_speedup": (_ratio(phase1, phase) if phase1 else 0.0, "ratio"),
        "cli.overhead_s": (experiment - total("harness.run_experiment"), "s"),
        "trace.overhead_s": (experiment - untraced_s, "s"),
        "trace.absent_targets": (absent_targets, "count"),
    }
