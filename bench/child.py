"""One measured process of the benchmark; run.py starts it with PYTHONPATH=src.

    python3 bench/child.py setup '{"config": "x.cfg"}'
    python3 bench/child.py run '{"config": "x.cfg", "out": "dir", "threads": 2,
                                 "spans": null, "workload": "w", "repeat": 0}'

`setup` times `import ndar` plus `load_instance` plus `maxcut_to_ising`.
`run` times one `ndar.cli.main(["run", ...])`; with a spans path it first
wraps the layer boundaries (tracing.py) and appends the spans to that file.
The last line of stdout is a JSON object with the measurements.
"""

from __future__ import annotations

import contextlib
import io
import json
import resource
import sys
import time
from pathlib import Path


def setup(spec: dict) -> dict:
    t0 = time.perf_counter()
    import ndar  # noqa: F401  (the import is what is timed)
    import_s = time.perf_counter() - t0
    from ndar.harness import ExperimentConfig, load_instance
    from ndar.ising import maxcut_to_ising
    cfg = ExperimentConfig.from_file(spec["config"])
    t1 = time.perf_counter()
    model = maxcut_to_ising(load_instance(cfg))
    build_s = time.perf_counter() - t1
    return {"setup_s": import_s + build_s, "import_s": import_s, "build_s": build_s,
            "n": model.n, "couplings": len(model.couplings)}


def run(spec: dict) -> dict:
    import ndar.cli
    tracer = None
    if spec.get("spans"):
        sys.path.insert(0, str(Path(__file__).resolve().parent))
        from tracing import Tracer
        tracer = Tracer()
        tracer.install()
    argv = ["run", "--config", spec["config"], "--out", spec["out"],
            "--threads", str(spec["threads"])]
    report = io.StringIO()
    with contextlib.redirect_stdout(report):
        with (tracer.span("cli.main") if tracer else contextlib.nullcontext()):
            t0 = time.perf_counter()
            rc = ndar.cli.main(argv)
            experiment_s = time.perf_counter() - t0
    out = {"rc": rc, "experiment_s": experiment_s,
           "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss}
    if tracer is not None:
        with open(spec["spans"], "a", encoding="utf-8") as fh:
            for s in tracer.spans:
                fh.write(json.dumps({**s, "workload": spec["workload"],
                                     "repeat": spec["repeat"]}) + "\n")
        out["absent"] = tracer.absent
    return out


if __name__ == "__main__":
    mode, spec = sys.argv[1], json.loads(sys.argv[2])
    result = {"setup": setup, "run": run}[mode](spec)
    print(json.dumps(result))
