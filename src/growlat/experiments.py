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


def _law(config):
    return lattice.SpringLaw(q=int(config.get("q", 2)), p=float(config.get("p", 0.0)))


def _solver_opts(config):
    s = config.get("solver", {})
    defaults = solver.SolverOptions()
    return solver.SolverOptions(
        gtol_rel=float(s.get("gtol_rel", defaults.gtol_rel)),
        max_iter=int(s.get("max_iter", defaults.max_iter)),
    )


def run_example_error_map(name: str, out_dir, config: dict | None = None) -> dict:
    """Ground state and fractional-error map of one named growth case."""
    if name not in EXAMPLE_GROWTH:
        raise ValueError(f"unknown example {name!r}; choose from {sorted(EXAMPLE_GROWTH)}")
    config = dict(config or {})
    law = _law(config)
    counts = tuple(config.get("grid_counts", (46, 46, 41)))
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


def _family_from_config(config, default_kind="dilational", default_lam=1.5, default_shear=0.5, default_count=60):
    fam = config.get("family", {})
    if isinstance(fam, str):
        fam = {"kind": fam}
    return homogenize.DeformationFamily(
        kind=fam.get("kind", default_kind),
        lam_max=float(fam.get("lam_max", default_lam)),
        lam_shear=float(fam.get("lam_shear", default_shear)),
        count=int(fam.get("count", default_count)),
    )


def _fit_summary(fit):
    return {
        "parameters": fit.parameters,
        "relative_mse_mean": fit.relative_mse,
        "relative_mse_sum": fit.mse_sum,
        "max_fractional_error": fit.max_abs_error,
        "n_used": fit.n_used,
        "excluded_samples": list(fit.excluded),
        "growth_tensors": fit.groups if fit.groups and "G_1" in fit.groups else None,
    }


def _sim_scenario(name, config, law):
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
    """Run one named homogenisation simulation and write its outputs."""
    if name not in SIMULATIONS:
        raise ValueError(f"unknown simulation {name!r}; choose from {SIMULATIONS}")
    config = dict(config or {})
    out = Path(out_dir)
    law = _law(config)
    opts = _solver_opts(config)
    if name == "sim2-sweep":
        return _run_sim2_sweep(out, config, law, opts)

    co, rest, scenario, ansatz = _sim_scenario(name, config, law)
    n = int(config.get("n", 16))
    mode = config.get("relaxation", "branch")
    default_lam = 1.25 if name == "sim1" else 1.5
    default_shear = 0.25 if name == "sim1" else 0.5
    families = config.get("families", ["dilational", "shear"])

    resolved = {
        "simulation": name,
        "n": n,
        "q": law.q,
        "p": law.p,
        "seed": int(config.get("seed", 0)),
        "relaxation": mode,
        "rest": rest,
        "scenario_kind": scenario.kind,
        "families": families,
    }
    summary = {"config": resolved, "fits": {}}

    sample = lattice.build_sample(co, n, rest, scenario, law)
    initial_sample = lattice.build_sample(co, n, rest, lattice.no_growth(co, seed=scenario.seed), law)

    for fam_kind in families:
        family = _family_from_config(
            {"family": {"kind": fam_kind, **config.get("family_overrides", {})}},
            default_kind=fam_kind, default_lam=default_lam, default_shear=default_shear,
            default_count=int(config.get("count", 60)),
        )
        lams, fs = homogenize.sample_family(family)
        tag = f"{name}_{fam_kind}"

        if name == "sim4":
            init_targets = homogenize.measured_energies(initial_sample, fs, opts, mode)
            rest_fit = homogenize.fit_rest_lengths(fs, init_targets, law, co)
            representative = homogenize.fitted_representative(rest_fit, co, law)
            summary["fits"][f"{fam_kind}_rest"] = _fit_summary(rest_fit)
            rows = [[lam, t, e] for lam, t, e in zip(lams, init_targets, rest_fit.errors)]
            write_csv(out / f"{tag}_rest_curves.csv", ["lambda", "true_energy", "fractional_error"], rows)
        else:
            representative = lattice.HomogeneousLattice(co, rest, (), law)
        dec = continuum.decompose(representative, continuum.square_partition_choices()[0])

        targets = homogenize.measured_energies(sample, fs, opts, mode)
        fit = homogenize.fit_growth(dec, fs, targets, ansatz)
        summary["fits"][fam_kind] = _fit_summary(fit)
        model = np.where(np.isfinite(fit.errors), targets * (1.0 - fit.errors), np.nan)
        rows = [[lam, t, m, e] for lam, t, m, e in zip(lams, targets, model, fit.errors)]
        write_csv(out / f"{tag}_curves.csv", ["lambda", "true_energy", "homogenized_energy", "fractional_error"], rows)

    if name == "sim1" and config.get("convergence", True):
        ns = [int(x) for x in config.get("ns", (8, 16, 32, 64))]
        family = homogenize.DeformationFamily("dilational", lam_max=default_lam, count=int(config.get("count", 60)))
        lams, fs = homogenize.sample_family(family)
        dec = continuum.decompose(
            lattice.HomogeneousLattice(co, rest, (), law), continuum.square_partition_choices()[0]
        )
        study = homogenize.convergence_study(
            lambda nn: lattice.build_sample(co, nn, rest, scenario, law),
            ns, fs, lambda nn: dec, ansatz, solver_opts=opts, mode=mode,
        )
        rows = []
        for row in study.rows:
            p = row.fit.parameters
            rows.append([row.n, p.get("gamma_1"), p.get("gamma_plus"), p.get("gamma_minus"),
                         row.fit.relative_mse, row.fit.mse_sum])
        write_csv(out / "sim1_convergence.csv",
                  ["n", "gamma_1", "gamma_plus", "gamma_minus", "mse_mean", "mse_sum"], rows)
        summary["convergence"] = {
            "ns": ns,
            "drift": study.drift,
            "mse_increased": study.mse_increased,
            "rows": [{"n": r.n, **_fit_summary(r.fit)} for r in study.rows],
        }

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
    mode = config.get("relaxation", "branch")
    family = homogenize.DeformationFamily("dilational", lam_max=1.5, count=count)
    lams, fs = homogenize.sample_family(family)
    dec = continuum.decompose(
        lattice.HomogeneousLattice(co, rest, (), law), continuum.square_partition_choices()[0]
    )
    ansatz = homogenize.GrowthAnsatz("isotropic", "isotropic")
    rows = []
    surface = []
    for dhv in deltas_hv:
        for dd in deltas_d:
            iv_hv = (1.0 - dhv, 1.0 + dhv)
            iv_d = (1.0 - dd, 1.0 + dd)
            scenario = lattice.uniform_growth((iv_hv, iv_hv, iv_d, iv_d), seed=seed)
            sample = lattice.build_sample(co, n, rest, scenario, law)
            targets = homogenize.measured_energies(sample, fs, opts, mode)
            fit = homogenize.fit_growth(dec, fs, targets, ansatz)
            rows.append([dhv, dd, fit.parameters["gamma_1"], fit.parameters["gamma_2"],
                         fit.relative_mse, fit.max_abs_error])
            surface.append({"delta_hv": dhv, "delta_d": dd, **_fit_summary(fit)})
    write_csv(out / "sim2_sweep.csv",
              ["delta_hv", "delta_d", "gamma_1", "gamma_2", "mse_mean", "max_fractional_error"], rows)
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
    out = Path(out_dir)
    law = _law(config)
    profile_spec = config.get("profile", {"kind": "linear", "a": 1.0, "b": 1.0})
    if profile_spec.get("kind", "linear") == "constant":
        profile = solver.constant_growth(float(profile_spec.get("value", 1.0)))
    else:
        profile = solver.linear_growth(float(profile_spec.get("a", 1.0)), float(profile_spec.get("b", 0.0)))
    rest = float(config.get("rest", 1.0))
    f_values = [float(x) for x in config.get("f_values", (2.0,))]
    ns = [int(x) for x in config.get("ns", (16, 32, 64, 128, 256, 512))]

    rows = []
    results = []
    for f in f_values:
        continuum_value = solver.one_d_continuum_energy(profile, law, rest, f)
        errors = []
        for n in ns:
            chain = solver.one_d_chain_energy(profile, n, rest, law, f, _solver_opts(config))
            err = abs(chain - continuum_value)
            rows.append([f, n, chain, continuum_value, err])
            errors.append(err)
        # observed convergence order from the last grid doubling
        if len(ns) >= 2 and errors[-1] > 0:
            rate = math.log(errors[-2] / errors[-1]) / math.log(ns[-1] / ns[-2])
        else:
            rate = float("inf")
        results.append({"f": f, "continuum": continuum_value, "errors": errors, "rate": rate})
    write_csv(out / "oned_convergence.csv", ["f", "n", "chain_energy", "continuum_energy", "abs_error"], rows)
    summary = {
        "config": {"profile": profile_spec, "rest": rest, "q": law.q, "p": law.p, "f_values": f_values, "ns": ns},
        "results": results,
    }
    write_json(out / "oned_summary.json", summary)
    return summary


def run_checks(out_dir=None, *, perturb_g2: float = 0.0, seed: int = 0, n_random: int = 200) -> dict:
    """Analytic identity suites with worst-case residuals.

    perturb_g2 adds the given value to one entry of the second growth tensor
    before checking decomposition exactness (a negative control: any nonzero
    perturbation must make the suite fail).
    """
    rng = np.random.default_rng(seed)
    law = lattice.SpringLaw(2, 0.0)
    co = lattice.square_connectivity()
    report = {"checks": {}, "ok": True}

    # decomposition exactness over the three square partitions
    worst = 0.0
    for _ in range(n_random):
        growth = tuple(rng.uniform(0.7, 1.4, 4))
        lat = lattice.apply_growth(lattice.square_lattice(law=law), growth)
        f = np.eye(2) + 0.4 * rng.standard_normal((2, 2))
        w_g = continuum.cauchy_born_energy(lat, f)
        for choice in continuum.square_partition_choices():
            dec = continuum.decompose(lat, choice)
            parts = [(p.directions, p.growth.copy()) for p in dec.parts]
            if perturb_g2:
                parts[1][1][0, 1] += perturb_g2
            recon = 0.0
            for k, (dirs, g_k) in enumerate(parts):
                recon += dec.part_energy(k, f @ np.linalg.inv(g_k))
            worst = max(worst, abs(recon - w_g) / (1.0 + abs(w_g)))
    ok = worst <= 1e-12
    report["checks"]["decomposition_exactness"] = {"worst_residual": worst, "ok": ok}

    # shear-family vanishing
    worst_shear = 0.0
    lat0 = lattice.square_lattice(law=law)
    dec0 = {c: continuum.decompose(lat0, choice) for c, choice in enumerate(continuum.square_partition_choices())}
    for c in range(3):
        for part in range(2):
            for theta in np.linspace(0.05, 2 * math.pi - 0.05, 50):
                f = continuum.shear_family(c, part, theta)
                worst_shear = max(worst_shear, abs(dec0[c].part_energy(part, f)))
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
        worst_order1 = max(
            worst_order1,
            abs(continuum.cauchy_born_energy(lat1, f) - continuum.cauchy_born_energy(lat1, np.eye(2))),
        )
    ok_order1 = ok_order1 and worst_order1 <= 1e-12
    report["checks"]["order1_witness_shear"] = {"worst_residual": worst_order1, "ok": ok_order1}

    report["ok"] = all(c["ok"] for c in report["checks"].values())
    report["config"] = {"seed": seed, "n_random": n_random, "perturb_g2": perturb_g2}
    if out_dir is not None:
        write_json(Path(out_dir) / "checks_summary.json", report)
    return report
