"""Command-line experiment runner.

Subcommands: error-map, simulate, oned, order, ground-state, decompose,
check.  Each run reads an optional JSON config, applies flag overrides,
and writes CSV/JSON outputs to the chosen directory.  The exit code is
0 on success, 1 when a check fails, and 2 with one "error:" line when a run
stops on bad input or on a search or relaxation that did not converge.
"""

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from . import continuum, experiments, lattice, solver
from .serialize import write_json


def _load_config(path):
    if path is None:
        return {}
    with open(path, "r", encoding="utf-8") as fh:
        try:
            config = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ValueError(f"config {path} is not valid JSON: {exc}") from None
    if not isinstance(config, dict):
        raise ValueError(f"config {path} must hold a JSON object, not {type(config).__name__}")
    return config


def _apply_overrides(config, args):
    config = dict(config)
    if getattr(args, "seed", None) is not None:
        config["seed"] = args.seed
    if getattr(args, "n", None) is not None:
        config["n"] = args.n
    if getattr(args, "q", None) is not None:
        config["q"] = args.q
    if getattr(args, "family", None) is not None:
        kind = {"h": "horizontal", "v": "vertical", "d": "dilational", "s": "shear", "box": "box-grid"}[args.family]
        config["families"] = [kind]
    return config


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="growlat", description=__doc__)
    parser.add_argument("--config", type=Path, default=None, help="JSON config file")
    parser.add_argument("--out", type=Path, default=Path("runs"), help="output directory")
    parser.add_argument("--seed", type=int, default=None, help="random seed override")
    sub = parser.add_subparsers(dest="command", required=True)

    p_map = sub.add_parser("error-map", help="ground state + fractional-error map of a named growth case")
    p_map.add_argument("example", choices=sorted(experiments.EXAMPLE_GROWTH))

    p_sim = sub.add_parser("simulate", help="run a named homogenisation simulation")
    p_sim.add_argument("simulation", choices=list(experiments.SIMULATIONS))
    p_sim.add_argument("--n", type=int, default=None, help="lattice side count override")
    p_sim.add_argument("--q", type=int, default=None, help="spring profile exponent override")
    p_sim.add_argument("--family", choices=["h", "v", "d", "s", "box"], default=None)
    # accepted and ignored, so that command lines still passing it (bench/workloads.py) keep parsing
    p_sim.add_argument("--no-convergence", action="store_true", help=argparse.SUPPRESS)

    p_oned = sub.add_parser("oned", help="1-D chain vs continuum convergence")
    p_oned.add_argument("--q", type=int, default=None)

    p_order = sub.add_parser("order", help="lattice order and witness partition")

    p_ground = sub.add_parser("ground-state", help="ground state of the configured lattice")

    p_dec = sub.add_parser("decompose", help="energy-deformation decomposition of the configured lattice")
    p_dec.add_argument("--choice", type=int, choices=range(3), default=None,
                       help="partition choice index for the square lattice (0, 1 or 2)")

    p_check = sub.add_parser("check", help="analytic identity suites")
    p_check.add_argument("--perturb-g2", type=float, default=0.0,
                         help="negative control: offset added to one growth-tensor entry")

    args = parser.parse_args(argv)
    out = args.out
    try:
        config = _apply_overrides(_load_config(args.config), args)
        if args.command == "check":
            reader = experiments.ConfigReader(config, "check")
            reader.close()
        elif args.command in ("order", "ground-state", "decompose"):
            lat = experiments.configured_lattice(config, args.command)
        out.mkdir(parents=True, exist_ok=True)
        if args.command == "error-map":
            summary = experiments.run_example_error_map(args.example, out, config)
            g = np.asarray(summary["growth_tensor"])
            print(f"{args.example}: G = {np.array2string(g, precision=6)}")
            for key, frac in summary["exceed_fraction"].items():
                print(f"  |error| > {key}: {frac:.4f} of the sampled domain")
        elif args.command == "simulate":
            summary = experiments.run_simulation(args.simulation, out, config)
            for label, fit in summary.get("fits", {}).items():
                print(f"{args.simulation} [{label}]: {fit['parameters']}  "
                      f"mse(sum)={fit['relative_mse_sum']:.4g}  max|err|={fit['max_fractional_error']:.4g}")
            if "surface" in summary:
                print(f"sweep over {len(summary['surface'])} interval combinations written")
        elif args.command == "oned":
            summary = experiments.run_oned(out, config)
            for res in summary["results"]:
                print(f"F={res['f']}: continuum={res['continuum']:.8g}  "
                      f"final error={res['errors'][-1]:.3g}  observed rate~{res['rate']:.2f}")
        elif args.command == "order":
            result = lattice.lattice_order(lat.connectivity)
            payload = {"order": result.order, "classes": [list(map(list, cls)) for cls in result.classes]}
            write_json(out / "order.json", payload)
            print(f"order = {result.order}; witness partition: {result.classes}")
        elif args.command == "ground-state":
            gs = continuum.ground_state(lat)
            payload = {
                "config": {"rest": lat.rest, "growth": lat.growth, "q": lat.law.q, "p": lat.law.p},
                "growth_tensor": gs.f.tolist(),
                "energy": gs.energy,
                "grad_norm": gs.grad_norm,
            }
            write_json(out / "ground_state.json", payload)
            print(f"G = {np.array2string(gs.f, precision=6)}  energy = {gs.energy:.8g}")
        elif args.command == "decompose":
            if args.choice is not None:
                partition = continuum.square_partition_choices()[args.choice]
            else:
                partition = None
            dec = continuum.decompose(lat, partition)
            payload = dec.to_json_dict()
            payload["config"] = {"rest": lat.rest, "growth": lat.growth, "q": lat.law.q, "p": lat.law.p}
            write_json(out / "decomposition.json", payload)
            print(json.dumps(payload["partition"]))
            for k, g in enumerate(payload["growth_tensors"]):
                print(f"G_{k + 1} = {g}")
        elif args.command == "check":
            report = experiments.run_checks(out, perturb_g2=args.perturb_g2, seed=reader.seed)
            for name, check in report["checks"].items():
                status = "PASS" if check["ok"] else "FAIL"
                extra = f" (worst residual {check['worst_residual']:.3e})" if "worst_residual" in check else ""
                print(f"{status} {name}{extra}")
            if not report["ok"]:
                return 1
    except (ValueError, OSError, continuum.GroundStateError, solver.ConvergenceError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
