"""Named experiment runs: ground-state error maps, homogenisation
simulations, 1-D convergence, and the analytic identity check suite.

Every run writes plot-ready CSV files plus a summary JSON that embeds the
resolved configuration, so outputs are reproducible bit-for-bit from
(config, seed).
"""

import math
from pathlib import Path

import numpy as np

from . import continuum, homogenize, lattice, solver
from .serialize import write_csv, write_json

SQRT2 = math.sqrt(2.0)

# growth factors (g1, g2, g+, g-) of the named ground-state examples on the
# rest-free square lattice (1, 1, sqrt2, sqrt2)
EXAMPLE_GROWTH = {
    "ex4": (1.0, 1.0, 0.9, 0.9),
    "ex5": (1.0, 1.0, 1.1, 1.1),
    "ex6": (1.0, 1.0, 0.9, math.sqrt(2.0 - 0.81)),
    "ex7": (1.0, 1.0, 0.9, 1.1),
}

SIMULATIONS = ("sim1", "sim2", "sim2-sweep", "sim3", "sim4")
# the top-level config keys each simulation and command reads; CLI flags set
# seed, n, q and families, and seed counts as read everywhere, as --seed is global
_COMMON = {"seed", "n", "q", "p", "families", "solver", "count"}
_CONFIG_KEYS = {"sim1": _COMMON | {"family_overrides", "high"}, "sim2-sweep": _COMMON | {"deltas_hv", "deltas_d"},
                **dict.fromkeys(("sim2", "sim3", "sim4"), _COMMON | {"family_overrides", "growth_interval"}),
                "error-map": {"seed", "q", "p", "grid_counts"}, "check": {"seed"},
                "oned": {"seed", "q", "p", "profile", "rest", "f_values", "ns", "solver"},
                **dict.fromkeys(("order", "ground-state", "decompose"), {"seed", "q", "p", "lattice"})}


def check_config_keys(config: dict, name: str):
    """Raise ValueError naming the top-level config keys that the simulation
    or command `name` does not read."""
    if unknown := sorted(set(config) - _CONFIG_KEYS[name]):
        raise ValueError(f"unknown config keys {unknown} for {name}; it reads {sorted(_CONFIG_KEYS[name])}")


def _law(config):
    return lattice.SpringLaw(q=int(config.get("q", 2)), p=float(config.get("p", 0.0)))


def _solver_opts(config):
    s = config.get("solver", {})
    unknown = sorted(set(s) - {"gtol_rel"})
    if unknown:
        raise ValueError(f"unknown solver settings {unknown}; the only one is 'gtol_rel'")
    return solver.SolverOptions(gtol_rel=float(s.get("gtol_rel", solver.SolverOptions.gtol_rel)))


def run_example_error_map(name: str, out_dir, config: dict | None = None) -> dict:
    """Ground state and fractional-error map of one named growth case."""
    if name not in EXAMPLE_GROWTH:
        raise ValueError(f"unknown example {name!r}; choose from {sorted(EXAMPLE_GROWTH)}")
    config = dict(config or {})
    check_config_keys(config, "error-map")
    law = _law(config)
    counts = config.get("grid_counts", (46, 46, 41))
    thresholds = (0.10, 0.20) if name == "ex7" else (0.10,)

    initial = lattice.square_lattice(law=law)
    grown = lattice.apply_growth(initial, EXAMPLE_GROWTH[name])
    emap = continuum.fractional_error_map(initial, grown, counts=counts, thresholds=thresholds)

    out = Path(out_dir)
    emap.to_csv(out / f"{name}_error_map.csv")
    summary = {
        "config": {
            "example": name,
            "growth": EXAMPLE_GROWTH[name],
            "rest": initial.rest,
            "q": law.q,
            "p": law.p,
            "grid_counts": counts,
            "thresholds": thresholds,
        },
        "growth_tensor": emap.growth_tensor.tolist(),
        "ground_state_energy": continuum.cauchy_born_energy(grown, emap.growth_tensor),
        "exceed_fraction": {f"{t:.2f}": emap.exceed_fraction(t) for t in thresholds},
    }
    write_json(out / f"{name}_summary.json", summary)
    return summary


def _fit_summary(fit):
    return {
        "parameters": fit.parameters,
        "relative_mse_mean": fit.relative_mse,
        "relative_mse_sum": fit.mse_sum,
        "max_fractional_error": fit.max_abs_error,
        "n_used": fit.n_used,
        "jacobian_rank": fit.rank,
        "excluded_samples": list(fit.excluded),
        "growth_tensors": fit.groups if fit.groups and "G_1" in fit.groups else None,
    }


def _sim_scenario(name, config):
    """Connectivity, rest spec, growth scenario, and ansatz of a simulation."""
    co = lattice.square_connectivity()
    seed = int(config.get("seed", 0))
    rest_hom = (1.0, 1.0, SQRT2, SQRT2)
    if name == "sim1":
        return co, rest_hom, lattice.checkerboard_growth(float(config.get("high", 1.2)), seed=seed), \
            homogenize.GrowthAnsatz("isotropic", "rotated-diagonal")
    if name in ("sim2", "sim2-sweep"):
        iv = tuple(config.get("growth_interval", (0.8, 1.2)))
        return co, rest_hom, lattice.uniform_growth((iv,) * 4, seed=seed), \
            homogenize.GrowthAnsatz("isotropic", "isotropic")
    if name == "sim3":
        rest = (1.0, 1.0, 1.25, 1.25)
        iv = tuple(config.get("growth_interval", (0.8, 1.2)))
        return co, rest, lattice.uniform_growth((iv,) * 4, seed=seed), \
            homogenize.GrowthAnsatz("isotropic", "isotropic")
    if name == "sim4":
        rest = ((0.8, 1.2), (0.8, 1.2), (0.8 * SQRT2, 1.2 * SQRT2), (0.8 * SQRT2, 1.2 * SQRT2))
        iv = tuple(config.get("growth_interval", (0.8, 1.2)))
        return co, rest, lattice.uniform_growth((iv,) * 4, seed=seed), \
            homogenize.GrowthAnsatz("isotropic", "isotropic")
    raise ValueError(f"unknown simulation {name!r}")


def run_simulation(name: str, out_dir, config: dict | None = None) -> dict:
    """Run one named homogenisation simulation and write its outputs.

    The config's "families" picks the deformation families, and its
    "family_overrides" may set "count", "lam_max" and "lam_shear" for all
    of them.  Any other override key, and any top-level key the simulation
    does not read, raises ValueError."""
    if name not in SIMULATIONS:
        raise ValueError(f"unknown simulation {name!r}; choose from {SIMULATIONS}")
    config = dict(config or {})
    check_config_keys(config, name)
    overrides = config.get("family_overrides", {})
    if unknown := sorted(set(overrides) - {"count", "lam_max", "lam_shear"}):
        raise ValueError(f"unknown family_overrides keys {unknown}; "
                         "the allowed keys are 'count', 'lam_max' and 'lam_shear'")
    out = Path(out_dir)
    law = _law(config)
    opts = _solver_opts(config)
    if name == "sim2-sweep":
        return _run_sim2_sweep(out, config, law, opts)

    co, rest, scenario, ansatz = _sim_scenario(name, config)
    n = int(config.get("n", 16))
    default_lam = 1.25 if name == "sim1" else 1.5
    default_shear = 0.25 if name == "sim1" else 0.5
    families = config.get("families", ["dilational", "shear"])

    resolved = {
        "simulation": name,
        "n": n,
        "q": law.q,
        "p": law.p,
        "seed": int(config.get("seed", 0)),
        "rest": rest,
        "scenario_kind": scenario.kind,
        "families": families,
    }
    summary = {"config": resolved, "fits": {}}

    sample = lattice.build_sample(co, n, rest, scenario, law)
    if name == "sim4":  # the ungrown sample, whose rest lengths sim4 fits
        initial_sample = lattice.build_sample(co, n, rest, lattice.no_growth(co, seed=scenario.seed), law)

    for fam_kind in families:
        family = homogenize.DeformationFamily(
            kind=fam_kind,
            lam_max=float(overrides.get("lam_max", default_lam)),
            lam_shear=float(overrides.get("lam_shear", default_shear)),
            count=int(overrides.get("count", config.get("count", 60))),
        )
        lams, fs = homogenize.sample_family(family)
        tag = f"{name}_{fam_kind}"
        params = np.reshape(lams, (len(lams), -1))  # one column per parameter of the family
        columns = ["lam1", "lam2", "lam3"] if family.kind == "box-grid" else ["lambda"]

        if name == "sim4":
            init_targets = homogenize.measured_energies(initial_sample, fs, opts)
            rest_fit = homogenize.fit_rest_lengths(fs, init_targets, law, co)
            representative = homogenize.fitted_representative(rest_fit, co, law)
            summary["fits"][f"{fam_kind}_rest"] = _fit_summary(rest_fit)
            write_csv(out / f"{tag}_rest_curves.csv", columns + ["true_energy", "fractional_error"],
                      [*params.T, init_targets, rest_fit.errors])
        else:
            representative = lattice.HomogeneousLattice(co, rest, (), law)
        dec = continuum.decompose(representative, continuum.square_partition_choices()[0])

        targets = homogenize.measured_energies(sample, fs, opts)
        fit = homogenize.fit_growth(dec, fs, targets, ansatz)
        summary["fits"][fam_kind] = _fit_summary(fit)
        model = np.where(np.isfinite(fit.errors), targets * (1.0 - fit.errors), np.nan)
        write_csv(out / f"{tag}_curves.csv", columns + ["true_energy", "homogenized_energy", "fractional_error"],
                  [*params.T, targets, model, fit.errors])

    write_json(out / f"{name}_summary.json", summary)
    return summary


def _run_sim2_sweep(out, config, law, opts):
    """Sweep of homogenised growth factors over growth-interval half-widths."""
    co = lattice.square_connectivity()
    rest = (1.0, 1.0, SQRT2, SQRT2)
    seed = int(config.get("seed", 0))
    n = int(config.get("n", 16))
    deltas_hv = list(config.get("deltas_hv", (0.0, 0.2, 0.4)))
    deltas_d = list(config.get("deltas_d", (0.0, 0.2, 0.4)))
    count = int(config.get("count", 21))
    family = homogenize.DeformationFamily("dilational", lam_max=1.5, count=count)
    lams, fs = homogenize.sample_family(family)
    dec = continuum.decompose(
        lattice.HomogeneousLattice(co, rest, (), law), continuum.square_partition_choices()[0]
    )
    ansatz = homogenize.GrowthAnsatz("isotropic", "isotropic")
    deltas = [(dhv, dd) for dhv in deltas_hv for dd in deltas_d]
    fits = []
    for dhv, dd in deltas:
        iv_hv = (1.0 - dhv, 1.0 + dhv)
        iv_d = (1.0 - dd, 1.0 + dd)
        scenario = lattice.uniform_growth((iv_hv, iv_hv, iv_d, iv_d), seed=seed)
        sample = lattice.build_sample(co, n, rest, scenario, law)
        targets = homogenize.measured_energies(sample, fs, opts)
        fits.append(homogenize.fit_growth(dec, fs, targets, ansatz))
    write_csv(out / "sim2_sweep.csv",
              ["delta_hv", "delta_d", "gamma_1", "gamma_2", "mse_mean", "max_fractional_error"],
              [[dhv for dhv, _ in deltas], [dd for _, dd in deltas],
               *([fit.parameters[k] for fit in fits] for k in ("gamma_1", "gamma_2")),
               [fit.relative_mse for fit in fits], [fit.max_abs_error for fit in fits]])
    surface = [{"delta_hv": dhv, "delta_d": dd, **_fit_summary(fit)} for (dhv, dd), fit in zip(deltas, fits)]
    summary = {
        "config": {"simulation": "sim2-sweep", "n": n, "q": law.q, "p": law.p, "seed": seed,
                   "deltas_hv": deltas_hv, "deltas_d": deltas_d, "count": count},
        "surface": surface,
    }
    write_json(out / "sim2-sweep_summary.json", summary)
    return summary


def run_oned(out_dir, config: dict | None = None) -> dict:
    """Chain energies versus the continuum value for a growth profile."""
    config = dict(config or {})
    check_config_keys(config, "oned")
    out = Path(out_dir)
    law = _law(config)
    profile_spec = config.get("profile", {"kind": "linear", "a": 1.0, "b": 1.0})
    profile_keys = {"linear": {"kind", "a", "b"}, "constant": {"kind", "value"}}
    kind = profile_spec.get("kind", "linear") if isinstance(profile_spec, dict) else None
    if kind not in ("linear", "constant") or set(profile_spec) - profile_keys[kind]:
        raise ValueError(f"unknown profile {profile_spec!r}; it must be "
                         "{'kind': 'linear', 'a': ..., 'b': ...} or {'kind': 'constant', 'value': ...}")
    if kind == "constant":
        profile = solver.constant_growth(float(profile_spec.get("value", 1.0)))
    else:
        profile = solver.linear_growth(float(profile_spec.get("a", 1.0)), float(profile_spec.get("b", 0.0)))
    rest = float(config.get("rest", 1.0))
    f_values = [float(x) for x in config.get("f_values", (2.0,))]
    ns = [int(x) for x in config.get("ns", (16, 32, 64, 128, 256, 512))]
    if not ns or any(a >= b for a, b in zip(ns, ns[1:])):
        raise ValueError(f"ns must be a non-empty, strictly increasing list of chain sizes, got {ns}")
    opts = _solver_opts(config)

    chains = []  # one per (f, n), n fastest
    results = []
    for f in f_values:
        continuum_value = solver.one_d_continuum_energy(profile, law, rest, f)
        errors = []
        for n in ns:
            chains.append(solver.one_d_chain_energy(profile, n, rest, law, f, opts))
            errors.append(abs(chains[-1] - continuum_value))
        # observed convergence order from the last grid doubling
        if len(ns) >= 2 and errors[-1] > 0:
            rate = math.log(errors[-2] / errors[-1]) / math.log(ns[-1] / ns[-2])
        else:
            rate = float("inf")
        results.append({"f": f, "continuum": continuum_value, "errors": errors, "rate": rate})
    write_csv(out / "oned_convergence.csv", ["f", "n", "chain_energy", "continuum_energy", "abs_error"],
              [[r["f"] for r in results for _ in ns], ns * len(results), chains,
               [r["continuum"] for r in results for _ in ns], [e for r in results for e in r["errors"]]])
    summary = {
        "config": {"profile": profile_spec, "rest": rest, "q": law.q, "p": law.p, "f_values": f_values, "ns": ns},
        "results": results,
    }
    write_json(out / "oned_summary.json", summary)
    return summary


def run_checks(out_dir=None, *, perturb_g2: float = 0.0, seed: int = 0, n_random: int = 200) -> dict:
    """Analytic identity suites with worst-case residuals.

    The ungrown square lattice is decomposed once per partition choice, and
    both the exactness and the shear suites reuse those three
    decompositions.  Exactness draws n_random (growth, F) pairs and compares
    the per-draw Cauchy-Born energy W_g of the grown lattice with one
    stacked reconstruction sum_k W_k(F G_k^{-1}) per partition, its
    tensors built for every draw at once by `continuum.growth_tensors`.
    The shear suite evaluates each part energy on its 50 angles as one
    stack.

    perturb_g2 adds the given value to G_2[0, 1] of every draw, and the
    reconstruction then uses the inverses of those perturbed tensors (a
    negative control: any nonzero perturbation must make the suite fail).
    A NaN residual is carried into its suite's worst residual and fails it.
    """
    rng = np.random.default_rng(seed)
    law = lattice.SpringLaw(2, 0.0)
    lat0 = lattice.square_lattice(law=law)
    decs = [continuum.decompose(lat0, choice) for choice in continuum.square_partition_choices()]
    report = {"checks": {}, "ok": True}

    # decomposition exactness over the three square partitions
    growths, fs, w_g = np.empty((n_random, 4)), np.empty((n_random, 2, 2)), np.empty(n_random)
    for i in range(n_random):
        growths[i] = rng.uniform(0.7, 1.4, 4)
        fs[i] = np.eye(2) + 0.4 * rng.standard_normal((2, 2))
        w_g[i] = continuum.cauchy_born_energy(lattice.apply_growth(lat0, growths[i]), fs[i])
    worst = 0.0
    for dec in decs:
        tensors = continuum.growth_tensors(dec.parts, growths)
        inverses = [g_inv for _, g_inv in tensors]
        if perturb_g2:
            g2 = tensors[1][0]
            g2[..., 0, 1] += perturb_g2
            inverses[1] = np.linalg.inv(g2)
        recon = sum(dec.part_energy(k, fs @ g_inv) for k, g_inv in enumerate(inverses))
        worst = float(np.maximum(worst, np.max(np.abs(recon - w_g) / (1.0 + np.abs(w_g)), initial=0.0)))
    ok = worst <= 1e-12
    report["checks"]["decomposition_exactness"] = {"worst_residual": worst, "ok": ok}

    # shear-family vanishing
    worst_shear = 0.0
    thetas = np.linspace(0.05, 2 * math.pi - 0.05, 50)
    for c, dec in enumerate(decs):
        for part in range(2):
            fs_shear = np.array([continuum.shear_family(c, part, theta) for theta in thetas])
            worst_shear = float(np.maximum(worst_shear, np.max(np.abs(dec.part_energy(part, fs_shear)))))
    ok_shear = worst_shear <= 1e-12
    report["checks"]["shear_family_vanishing"] = {"worst_residual": worst_shear, "ok": ok_shear}

    # dilation-only admissibility
    ok_adm = True
    for _ in range(n_random):
        g = float(rng.uniform(0.6, 1.5))
        if not continuum.multiplicative_admissible((g, g, g, g)).admissible:
            ok_adm = False
        tup = rng.uniform(0.6, 1.5, 4)
        if np.ptp(tup) > 1e-3 and continuum.multiplicative_admissible(tuple(tup)).admissible:
            ok_adm = False
    report["checks"]["dilation_only_admissibility"] = {"ok": ok_adm}

    # order-1 witness shear
    worst_order1 = 0.0
    ok_order1 = True
    c_order1 = lattice.Connectivity(2, ((1, 0), (0, 1)))
    for co_1 in (lattice.Connectivity(2, ((1, 0),)), c_order1):
        f = continuum.shear_witness_order1(co_1)
        basis = continuum.extend_to_basis([np.asarray(v, float) for v in co_1.directions], 2)
        if not continuum.is_shear(f, basis):
            ok_order1 = False
        lat1 = lattice.HomogeneousLattice(co_1, (1.0,) * len(co_1.directions),
                                          tuple(rng.uniform(0.8, 1.2, len(co_1.directions))), law)
        worst_order1 = float(np.maximum(
            worst_order1,
            abs(continuum.cauchy_born_energy(lat1, f) - continuum.cauchy_born_energy(lat1, np.eye(2))),
        ))
    ok_order1 = ok_order1 and worst_order1 <= 1e-12
    report["checks"]["order1_witness_shear"] = {"worst_residual": worst_order1, "ok": ok_order1}

    report["ok"] = all(c["ok"] for c in report["checks"].values())
    report["config"] = {"seed": seed, "n_random": n_random, "perturb_g2": perturb_g2}
    if out_dir is not None:
        write_json(Path(out_dir) / "checks_summary.json", report)
    return report
