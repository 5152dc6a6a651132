"""Run directories of small experiments against committed SHA-256 digests.

Each digest covers the sorted relative paths and bytes of one run directory, as the
benchmark's `dir_digest` does. A change that keeps every random stream keeps them all;
a change that alters a stream updates tests/golden_runs.json in the same commit, by
running this file as a script: `PYTHONPATH=src python tests/test_golden.py`.
"""

import hashlib
import json
import os
from pathlib import Path

import pytest

from ndar import ExperimentConfig, run_experiment

GOLDEN = Path(__file__).resolve().with_name("golden_runs.json")

# an instance off the float32 rule of energies and the annealer: weights in tenths
TENTHS = "tenths.txt"
_EDGES = [(i, j) for i in range(10) for j in range(i + 1, 10) if (3 * i + 5 * j) % 4]
TENTHS_TEXT = f"10 {len(_EDGES)}\n" + "".join(
    f"{i} {j} {(-1) ** (i + j) * ((7 * i + 3 * j) % 19 + 1) / 10}\n" for i, j in _EDGES)

SMALL = "ndar.shots = 2000\nndar.iters = 3\nruns = 2\nsa.reads = 8\nsa.sweeps = 20\n"
QAOA = "sampler.kind = qaoa\nsampler.gammas = 0.4\nsampler.betas = 0.3\nsampler.t_delay = 100\n"
CIRCUIT = "sampler.kind = random-circuit\nsampler.t_delay = 60\n"

CONFIGS = {
    "classical-weighted-dense":
        "instance.family = weighted-dense\ninstance.n = 60\nsampler.q = 0.9\n" + SMALL,
    "classical-sparse-patience":
        "instance.family = unweighted-sparse\ninstance.n = 40\nsampler.q = 0.8\n"
        "ndar.shots = 300\nndar.iters = 40\nndar.patience = 2\nruns = 2\n"
        "sa.reads = 8\nsa.sweeps = 20\n",
    "classical-file-tenths": f"instance.file = {TENTHS}\nsampler.q = 0.7\n" + SMALL,
    # an odd n, and shots that span several chunks of 434 and of 2048 rows
    "classical-dense-301-chunks":
        "instance.family = weighted-dense\ninstance.n = 301\nsampler.q = 0.9\n"
        "ndar.shots = 5000\nndar.iters = 2\nruns = 1\nsa.reads = 8\nsa.sweeps = 20\n",
    "qaoa-grid-search":
        "instance.family = unweighted-sparse\ninstance.n = 10\nsampler.kind = qaoa\n"
        "sampler.grid_steps = 8\nsampler.t_delay = 100\n" + SMALL,
    "qaoa-p3":
        "instance.family = unweighted-sparse\ninstance.n = 10\nsampler.kind = qaoa\n"
        "sampler.gammas = 0.4,0.2,0.7\nsampler.betas = 0.3,0.1,0.5\nsampler.t_delay = 100\n"
        + SMALL,
    "qaoa-file-tenths": f"instance.file = {TENTHS}\n" + QAOA + SMALL,
    "random-circuit-reused":
        "instance.family = unweighted-sparse\ninstance.n = 10\n" + CIRCUIT + SMALL,
    "random-circuit-fresh-depth-3":
        "instance.family = unweighted-sparse\ninstance.n = 10\n" + CIRCUIT
        + "sampler.depth = 3\nsampler.fresh_circuit = true\n" + SMALL,
    # few shots and little damping: the frame moves after 26 of run 0's 30 iterations
    "qaoa-long":
        "instance.family = unweighted-sparse\ninstance.n = 14\ninstance.density = 0.5\n"
        "sampler.kind = qaoa\nsampler.gammas = 0.4\nsampler.betas = 0.3\nsampler.t_delay = 20\n"
        "ndar.shots = 50\nndar.iters = 30\nruns = 2\nsa.reads = 8\nsa.sweeps = 20\n",
}


def dir_digest(path: Path) -> str:
    h = hashlib.sha256()
    for p in sorted(path.rglob("*")):
        if p.is_file():
            h.update(str(p.relative_to(path)).encode() + b"\0" + p.read_bytes() + b"\0")
    return h.hexdigest()


def run_digest(name: str) -> str:
    """Digest of the run directory of CONFIGS[name], run in the working directory, where
    meta.txt then records the instance file by its relative name."""
    Path(TENTHS).write_text(TENTHS_TEXT)
    Path(f"{name}.cfg").write_text(CONFIGS[name])
    run_experiment(ExperimentConfig.from_file(f"{name}.cfg"), name)
    return dir_digest(Path(name))


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_run_directory_matches_its_golden_digest(tmp_path, monkeypatch, name):
    monkeypatch.chdir(tmp_path)
    assert run_digest(name) == json.loads(GOLDEN.read_text())[name]


if __name__ == "__main__":
    import tempfile
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        digests = {name: run_digest(name) for name in sorted(CONFIGS)}
    GOLDEN.write_text(json.dumps(digests, indent=2) + "\n")
