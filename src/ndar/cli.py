"""Command-line entry points: instance generation, experiments, baselines, reports."""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace

from .annealing import sa_solve
from .errors import ConfigError, ResourceLimitError
from .harness import (FAMILIES, ExperimentConfig, load_instance, params_search, report,
                      run_epilog, run_experiment)
from .ising import edge_density, maxcut_to_ising, write_instance


def _cmd_gen_instance(args) -> int:
    g = FAMILIES[args.family](args.n, args.density, args.seed)
    write_instance(g, args.out)
    print(f"wrote {args.out}: n = {g.n}, edges = {len(g.edges)}, "
          f"density = {edge_density(g):.12g}")
    return 0


def _read_config(args) -> ExperimentConfig:
    """The config file with every key parsed, then --seed, when given, as ndar.seed."""
    cfg = ExperimentConfig.from_file(args.config)
    return cfg if args.seed is None else replace(cfg, seed=args.seed)


def _cmd_run(args) -> int:
    cfg = _read_config(args)
    summary = run_experiment(cfg, args.out)
    print(report(summary["out_dir"], svg=args.svg))
    return 0


def _cmd_sa_baseline(args) -> int:
    cfg = _read_config(args)
    model = maxcut_to_ising(load_instance(cfg))
    _, energy_value = sa_solve(model, cfg.sa)
    print(f"n = {model.n}, reads = {cfg.sa.num_reads}, sweeps = {cfg.sa.sweeps_per_read}")
    print(f"E_SA cut = {-energy_value:.12g} (energy {energy_value:.12g})")
    return 0


def _cmd_params_search(args) -> int:
    cfg = ExperimentConfig.from_file(args.config)
    best, best_val = params_search(cfg, args.out)
    print(f"best gamma = {best.gammas[0]:.12g}, beta = {best.betas[0]:.12g}, "
          f"expectation = {best_val:.12g}")
    return 0


def _cmd_report(args) -> int:
    print(report(args.run_dir, svg=args.svg))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ndar",
        description="Noise-directed adaptive remapping experiments on Ising/MaxCut instances.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-instance", help="generate a benchmark graph and write it to a file")
    p.add_argument("--family", required=True, choices=list(FAMILIES))
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--density", type=float, default=0.3)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_gen_instance)

    p = sub.add_parser("run", help="run a configured experiment and write CSV outputs",
                       epilog=run_epilog(), formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--config", required=True)
    p.add_argument("--out", default=None, help="output directory (overrides output_dir)")
    p.add_argument("--seed", type=int, default=None, help="override ndar.seed")
    p.add_argument("--threads", default=None,
                   help="has no effect: runs execute one after another")
    p.add_argument("--svg", action="store_true", help="also emit SVG figures")
    p.set_defaults(func=_cmd_run)

    p = sub.add_parser("sa-baseline", help="run only the simulated-annealing reference")
    p.add_argument("--config", required=True)
    p.add_argument("--seed", type=int, default=None, help="override ndar.seed")
    p.set_defaults(func=_cmd_sa_baseline)

    p = sub.add_parser(
        "params-search",
        help="grid-search single-layer QAOA angles for an instance and write landscape.csv",
        description="Grid-search single-layer QAOA angles over the sampler.* grid keys. Each "
                    "point is the closed-form p = 1 expectation, which builds no statevector, "
                    "so the qubit cap does not apply: any graph within the node cap is scanned.")
    p.add_argument("--config", required=True)
    p.add_argument("--out", default=None, help="directory for landscape.csv")
    p.set_defaults(func=_cmd_params_search)

    p = sub.add_parser("report", help="summarize a finished run directory")
    p.add_argument("run_dir")
    p.add_argument("--svg", action="store_true", help="also emit SVG figures")
    p.set_defaults(func=_cmd_report)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except ResourceLimitError as exc:
        print(f"resource limit: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
