"""Named experiment runs: ground-state error maps, homogenisation
simulations, 1-D convergence, and the analytic identity check suite.

Every run reads its whole JSON config through one `ConfigReader` before it
builds, solves or writes anything, and accepts exactly the keys it reads, at
their JSON types.  A simulation's family size "count" is a top-level key;
its "family_overrides" block holds "lam_max" and "lam_shear".  Every run
writes plot-ready CSV files plus a summary JSON that embeds the resolved
configuration, so outputs are reproducible bit-for-bit from (config, seed).
"""

import math
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import continuum, homogenize, lattice, solver
from .serialize import write_csv, write_json
from .springs import spring_terms, sum_slices

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
# rest lengths of the square lattice's directions (1, 0), (0, 1), (1, 1), (1, -1)
# in each simulation; sim4 draws each edge's rest length from an interval
_REST = {**dict.fromkeys(("sim1", "sim2", "sim2-sweep"), (1.0, 1.0, SQRT2, SQRT2)), "sim3": (1.0, 1.0, 1.25, 1.25),
         "sim4": ((0.8, 1.2), (0.8, 1.2), (0.8 * SQRT2, 1.2 * SQRT2), (0.8 * SQRT2, 1.2 * SQRT2))}

_TYPES = {"int": int, "float": (int, float), "str": str, "dict": dict}


def _conform(value, kind: str):
    """`value` read as `kind`, or TypeError.  A kind is "int", "float" (an int
    or a float, read as float), "str", "dict", "list of " a kind, which takes
    a non-empty list, or kinds joined by " or "; a bool is no number."""
    for alternative in kind.split(" or "):
        if alternative.startswith("list of ") and isinstance(value, list) and value:
            return [_conform(x, alternative.removeprefix("list of ")) for x in value]
        if isinstance(value, _TYPES.get(alternative, ())) and not isinstance(value, bool):
            return float(value) if alternative == "float" else value
    raise TypeError


class ConfigReader:
    """A command's JSON config object.  `read(key, default, kind)` records the
    key and returns its value, checked against `kind`, or `default`; `block`
    reads an object as a reader of its own; `build` makes a value read into
    a domain object.  `close` rejects every key, here and in the blocks, that
    no read asked for.  "seed" is read at once, as --seed is global."""

    def __init__(self, values: dict, name: str, block: bool = False):
        self.values, self.name, self.is_block, self.keys, self.blocks = values, name, block, set(), []
        self.where = f" in {name}" if block else ""
        self.seed = None if block else self.read("seed", 0, "int")

    def read(self, key: str, default, kind: str):
        self.keys.add(key)
        try:
            return _conform(self.values[key], kind) if key in self.values else default
        except TypeError:
            must = kind.replace("list of", "non-empty list of")
            raise ValueError(f"config key {key!r}{self.where} must be {must}, got {self.values[key]!r}") from None

    def build(self, key: str, make, *args, **kwargs):
        """make(*args, **kwargs), for arguments read from `key`: the domain
        object checks them, and a ValueError it raises names the key."""
        try:
            return make(*args, **kwargs)
        except ValueError as exc:
            raise ValueError(f"config key {key!r}{self.where}: {exc}") from None

    def block(self, key: str, default: dict) -> "ConfigReader":
        self.blocks.append(ConfigReader(self.read(key, default, "dict"), key, block=True))
        return self.blocks[-1]

    def close(self):
        if unknown := sorted(set(self.values) - self.keys):
            what = f"{self.name} keys {unknown}" if self.is_block else f"config keys {unknown} for {self.name}"
            raise ValueError(f"unknown {what}; it reads {sorted(self.keys)}")
        for block in self.blocks:
            block.close()


def _law(config: ConfigReader):
    return config.build("q", lattice.SpringLaw, config.read("q", 2, "int"), config.read("p", 0.0, "float"))


def configured_lattice(config: dict, command: str) -> lattice.HomogeneousLattice:
    """The lattice of an order, ground-state or decompose config."""
    config = ConfigReader(config, command)
    law, spec = _law(config), config.block("lattice", {})
    dims = spec.read("dimension", 2, "int")
    directions = spec.read("directions", [[1, 0], [0, 1], [1, 1], [1, -1]], "list of list of int")
    rest = spec.read("rest", [1.0, 1.0, SQRT2, SQRT2][: len(directions)], "float or list of float")
    growth = spec.read("growth", [1.0] * len(directions), "list of float")
    config.close()
    rest = [rest] * len(directions) if isinstance(rest, float) else rest
    co = config.build("lattice", lattice.Connectivity, dims, directions)
    return config.build("lattice", lattice.HomogeneousLattice, co, tuple(rest), tuple(growth), law)


def run_example_error_map(name: str, out_dir, config: dict | None = None) -> dict:
    """Ground state and fractional-error map of one named growth case."""
    if name not in EXAMPLE_GROWTH:
        raise ValueError(f"unknown example {name!r}; choose from {sorted(EXAMPLE_GROWTH)}")
    config = ConfigReader(config or {}, "error-map")
    law = _law(config)
    counts = config.read("grid_counts", (46, 46, 41), "list of int")
    config.close()
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
        "growth_tensors": fit.growth_tensors,
    }


def run_simulation(name: str, out_dir, config: dict | None = None) -> dict:
    """Run one named homogenisation simulation and write its outputs.

    The run reads its whole config first, with the spring law, growth
    scenarios and families its values make.  Every solve comes next: the
    run measures every sample under every family, family by family, then
    runs every fit and writes its outputs last, so a failed solve or fit
    writes nothing.  sim4 lists its ungrown sample, to which it fits rest
    lengths, before the grown one.  sim2-sweep is the same run with one
    dilational family over one grown sample per (delta_hv, delta_d) pair;
    only its writer differs.

    Every growth fit splits the square lattice into its axis and diagonal
    classes and fits one factor gamma_1 to the axes; to the diagonals, sim1
    fits gamma_2_1_1 and gamma_2_1_-1, one per direction, and the others
    one gamma_2.  sim4's rest fits report ell0, ell1 and L_<direction>.

    sim1's targets are an exact identity, not a relaxation: every cell of
    its checkerboard keeps a zero-energy shape, so each solve takes no
    Newton step, and at every N the per-cell energy under F is
    (W_A(F) + W_B(F)) / 2, the mean of the Cauchy-Born densities of the
    square lattices grown by (1, 1, h, sqrt(2 - h^2)) and
    (1, 1, sqrt(2 - h^2), h) with h = "high"."""
    if name not in SIMULATIONS:
        raise ValueError(f"unknown simulation {name!r}; choose from {SIMULATIONS}")
    out = Path(out_dir)
    sweep = name == "sim2-sweep"

    # read: the whole config, with the growth scenarios and families it makes, before any sample is built
    config = ConfigReader(config or {}, name)
    law = config.build("q", lattice.SpringLaw, config.read("q", 2, "int"))  # p = 0, as every simulation decomposes
    n, seed = config.read("n", 16, "int"), config.seed
    if n < 2:
        raise ValueError(f"config key 'n': side count N must be at least 2, got {n}")
    resolved = {"simulation": name, "n": n, "q": law.q, "p": law.p, "seed": seed}
    kinds = ["dilational"] if sweep else config.read("families", ["dilational", "shear"], "list of str")
    if len(set(kinds)) < len(kinds):
        raise ValueError(f"config key 'families' names a family twice: {kinds}")
    families = [config.build("families", homogenize.DeformationFamily, kind) for kind in kinds]
    family = {"count": config.read("count", 21 if sweep else 60, "int")}  # the settings of every family
    if sweep:  # one dilational family on the default ranges; pairs is a list, so a repeated pair writes a repeated row
        resolved.update({key: config.read(key, [0.0, 0.2, 0.4], "list of float") for key in ("deltas_hv", "deltas_d")})
        # per delta d, the growth of two axis or two diagonal directions, each drawn from (1 - d, 1 + d)
        halves = {key: [config.build(key, lattice.uniform_growth, [(1.0 - d, 1.0 + d)] * 2) for d in resolved[key]]
                  for key in ("deltas_hv", "deltas_d")}
        pairs = [(dhv, dd) for dhv in resolved["deltas_hv"] for dd in resolved["deltas_d"]]
        scenarios = [lattice.uniform_growth(hv.intervals + dd.intervals, seed=seed)
                     for hv in halves["deltas_hv"] for dd in halves["deltas_d"]]
    else:
        overrides = config.block("family_overrides", {})
        family["lam_max"] = overrides.read("lam_max", 1.25 if name == "sim1" else 1.5, "float")
        family["lam_shear"] = overrides.read("lam_shear", 0.25 if name == "sim1" else 0.5, "float")
        if name == "sim1":
            resolved["high"] = config.read("high", 1.2, "float")
            scenarios = [config.build("high", lattice.checkerboard_growth, resolved["high"], seed)]
        else:
            interval = resolved["growth_interval"] = config.read("growth_interval", [0.8, 1.2], "list of float")
            if len(interval) != 2:
                raise ValueError(f"config key 'growth_interval' must be [low, high], got {interval}")
            scenarios = [config.build("growth_interval", lattice.uniform_growth, [interval] * 4, seed)]
    for key, value in family.items():  # one setting at a time, so a rejected value is the one just set
        reader = config if key == "count" else overrides
        families = [reader.build(key, replace, f, **{key: value}) for f in families]
    config.close()

    # build: the samples, then every family
    co, rest = lattice.square_connectivity(), _REST[name]
    ungrown = [lattice.no_growth(co, seed=seed)] if name == "sim4" else []
    samples = [lattice.build_sample(co, n, rest, scenario, law) for scenario in ungrown + scenarios]
    sampled = [homogenize.sample_family(f) for f in families]

    # measure: every solve of the run, before any fit
    targets = [[homogenize.measured_energies(sample, fs) for sample in samples] for _, fs in sampled]

    # fit: rest lengths to sim4's ungrown sample, growth tensors to every grown sample
    ansatz = homogenize.GrowthAnsatz("isotropic", "per-direction" if name == "sim1" else "isotropic")
    rest_fits, growth_fits = [], []
    for (_, fs), family_targets in zip(sampled, targets):
        if ungrown:
            rest_fits.append(homogenize.fit_rest_lengths(fs, family_targets[0], law, co))
            representative = homogenize.fitted_representative(rest_fits[-1], co, law)
        else:
            representative = lattice.HomogeneousLattice(co, rest, (), law)
        dec = continuum.decompose(representative, continuum.square_partition_choices()[0])
        growth_fits.append([homogenize.fit_growth(dec, fs, t, ansatz) for t in family_targets[len(ungrown):]])

    # write
    if sweep:
        [fits] = growth_fits
        write_csv(out / "sim2_sweep.csv",
                  ["delta_hv", "delta_d", "gamma_1", "gamma_2", "mse_mean", "max_fractional_error"],
                  [[dhv for dhv, _ in pairs], [dd for _, dd in pairs],
                   *([fit.parameters[k] for fit in fits] for k in ("gamma_1", "gamma_2")),
                   [fit.relative_mse for fit in fits], [fit.max_abs_error for fit in fits]])
        surface = [{"delta_hv": dhv, "delta_d": dd, **_fit_summary(fit)} for (dhv, dd), fit in zip(pairs, fits)]
        summary = {"config": {**resolved, **family}, "surface": surface}
    else:
        summary = {"config": {**resolved, "rest": rest, "scenario_kind": scenarios[0].kind, "families": kinds,
                              **family}, "fits": {}}
        for k, (kind, (params, _), family_targets, [fit]) in enumerate(zip(kinds, sampled, targets, growth_fits)):
            tag = f"{name}_{kind}"
            params = np.reshape(params, (len(params), -1))  # one column per parameter of the family
            columns = ["lam1", "lam2", "lam3"] if kind == "box-grid" else ["lambda"]
            if ungrown:
                summary["fits"][f"{kind}_rest"] = _fit_summary(rest_fits[k])
                write_csv(out / f"{tag}_rest_curves.csv", columns + ["true_energy", "fractional_error"],
                          [*params.T, family_targets[0], rest_fits[k].errors])
            summary["fits"][kind] = _fit_summary(fit)
            model = np.where(np.isfinite(fit.errors), family_targets[-1] * (1.0 - fit.errors), np.nan)
            write_csv(out / f"{tag}_curves.csv", columns + ["true_energy", "homogenized_energy", "fractional_error"],
                      [*params.T, family_targets[-1], model, fit.errors])
    write_json(out / f"{name}_summary.json", summary)
    return summary


def run_oned(out_dir, config: dict | None = None) -> dict:
    """Chain energies versus the continuum value for a growth profile."""
    config = ConfigReader(config or {}, "oned")
    out = Path(out_dir)
    law = _law(config)
    spec = config.block("profile", {"kind": "linear", "a": 1.0, "b": 1.0})
    kind = spec.read("kind", "linear", "str")
    if kind == "constant":
        profile = config.build("profile", solver.constant_growth, spec.read("value", 1.0, "float"))
    elif kind == "linear":
        profile = config.build("profile", solver.linear_growth, spec.read("a", 1.0, "float"),
                               spec.read("b", 0.0, "float"))
    else:
        raise ValueError(f"config key 'kind'{spec.where}: unknown profile kind {kind!r}; "
                         "it must be 'linear' or 'constant'")
    rest = config.read("rest", 1.0, "float")
    if rest <= 0:
        raise ValueError(f"config key 'rest' must be positive, got {rest}")
    f_values = config.read("f_values", [2.0], "list of float")
    ns = config.read("ns", [16, 32, 64, 128, 256, 512], "list of int")
    config.close()
    if ns[0] < 2 or any(a >= b for a, b in zip(ns, ns[1:])):
        raise ValueError(f"config key 'ns': ns must be a non-empty, strictly increasing list of chain sizes, "
                         f"each at least 2, got {ns}")

    chains = []  # one per (f, n), n fastest
    results = []
    for f in f_values:
        continuum_value = solver.one_d_continuum_energy(profile, law, rest, f)
        errors = []
        for n in ns:
            chains.append(solver.one_d_chain_energy(profile, n, rest, law, f))
            errors.append(abs(chains[-1] - continuum_value))
        # observed order from the last two sizes: inf, written as null, for one size or an error of 0
        exact = len(ns) < 2 or min(errors[-2:]) == 0
        rate = math.inf if exact else math.log(errors[-2] / errors[-1]) / math.log(ns[-1] / ns[-2])
        results.append({"f": f, "continuum": continuum_value, "errors": errors, "rate": rate})
    write_csv(out / "oned_convergence.csv", ["f", "n", "chain_energy", "continuum_energy", "abs_error"],
              [[r["f"] for r in results for _ in ns], ns * len(results), chains,
               [r["continuum"] for r in results for _ in ns], [e for r in results for e in r["errors"]]])
    summary = {
        "config": {"profile": spec.values, "rest": rest, "q": law.q, "p": law.p, "f_values": f_values, "ns": ns},
        "results": results,
    }
    write_json(out / "oned_summary.json", summary)
    return summary


def run_checks(out_dir=None, *, perturb_g2: float = 0.0, seed: int = 0, n_random: int = 200) -> dict:
    """Analytic identity suites with worst-case residuals.

    The ungrown square lattice is decomposed once per partition choice, and
    every witness is built from class bases, not from square-lattice closed
    forms.  Exactness compares the Cauchy-Born energy W_g of n_random grown
    lattices at random F with one stacked sum_k W_k(F G_k^{-1}) per
    partition.  Each part energy must vanish on 50 angles of the
    `continuum.length_preserving_shears` of its class basis, and each
    order-1 connectivity's extended basis gives at 3 pi / 4 a shear that
    keeps the energy at F = I.  One `continuum.multiplicative_admissible`
    call must admit n_random equal factor draws and none of n_random mixed
    ones whose factors spread by more than 1e-3.

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
    growths, fs = np.empty((n_random, 4)), np.empty((n_random, 2, 2))
    for i in range(n_random):
        growths[i] = rng.uniform(0.7, 1.4, 4)
        fs[i] = np.eye(2) + 0.4 * rng.standard_normal((2, 2))
    # W_g of every draw in one kernel call: the Cauchy-Born energy of lat0 grown by its row of growths
    (terms,) = spring_terms(law, continuum.mapped_lengths(lat0.connectivity.matrix, fs),
                            np.asarray(lat0.rest) * growths, growths**law.p)
    w_g = sum_slices(terms, -1)
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

    # shear-family vanishing: each part energy on the shears its own class basis spans
    worst_shear = 0.0
    thetas = np.linspace(0.05, 2 * math.pi - 0.05, 50)
    for dec in decs:
        for k, part in enumerate(dec.parts):
            energies = dec.part_energy(k, continuum.length_preserving_shears(part.basis, thetas))
            worst_shear = float(np.maximum(worst_shear, np.max(np.abs(energies))))
    ok_shear = worst_shear <= 1e-12
    report["checks"]["shear_family_vanishing"] = {"worst_residual": worst_shear, "ok": ok_shear}

    # dilation-only admissibility: per draw g, admitted as (g, g, g, g), then four factors,
    # not admitted where they spread by more than 1e-3; all draws in one call
    draws = rng.uniform(0.6, 1.5, (n_random, 5))
    factors = np.concatenate([np.repeat(draws[:, :1], 4, axis=1), draws[:, 1:]])
    admissible = continuum.multiplicative_admissible(decs[0].parts, factors)
    spread = np.ptp(draws[:, 1:], axis=1) > 1e-3
    ok_adm = bool(np.all(admissible[:n_random]) and not np.any(admissible[n_random:] & spread))
    report["checks"]["dilation_only_admissibility"] = {"ok": ok_adm}

    # order-1 witness shear: the family of the connectivity's extended basis at 3 pi / 4
    worst_order1 = 0.0
    ok_order1 = True
    for co_1 in (lattice.Connectivity(2, ((1, 0),)), lattice.Connectivity(2, ((1, 0), (0, 1)))):
        basis = continuum.extend_to_basis(co_1.matrix, 2)
        f = continuum.length_preserving_shears(basis.T, 3 * math.pi / 4)
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
