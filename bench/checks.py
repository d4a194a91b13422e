"""Correctness of a pass: recorded fingerprints plus independent checks.

Fingerprints (fingerprints.json, with their tolerances) pin what the program
computes today:

- sim1-fit: the relaxed target energies of both families (not the fit
  parameters, which a better fit is meant to change);
- relax-*: per input seed, the per-cell energy of every converged solve and
  the indices of the solves that do not converge;
- continuum-cli: the ex7 growth tensor and exceed fractions, the oned chain
  energies and the check verdicts.

The independent checks recompute, with this file's own spring energy, that
each converged branch solve is an equilibrium within its tolerance and lies
no higher than its affine start, and that the 1-D chain error against the
continuum energy falls with N.
"""

import json
import math
from pathlib import Path

import numpy as np

FINGERPRINTS = Path(__file__).with_name("fingerprints.json")


def load_fingerprints(path=FINGERPRINTS):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def _close(a, b, rtol, atol):
    return abs(a - b) <= atol + rtol * abs(b)


def _compare_list(label, got, want, rtol, atol, problems):
    if len(got) != len(want):
        problems.append(f"{label}: {len(got)} values, fingerprint has {len(want)}")
        return
    for i, (g, w) in enumerate(zip(got, want)):
        if (g is None) != (w is None) or (w is not None and not _close(g, w, rtol, atol)):
            problems.append(f"{label}[{i}] = {g!r}, fingerprint {w!r}")
            return


def compare(workload, seed, result, outputs, fingerprints):
    """Mismatches between one pass and the recorded fingerprint."""
    tol = fingerprints["tolerances"]
    want = fingerprints[workload]
    problems = []
    if workload == "sim1-fit":
        for fam, values in want["targets"].items():
            _compare_list(f"{fam} target energies", outputs["targets"][fam], values,
                          tol["energy_rtol"], tol["energy_atol"], problems)
    elif workload.startswith("relax-"):
        want = want[str(seed)]
        want_unconverged = [i for i in want["unconverged"] if i in result.indices]
        if result.unconverged != want_unconverged:
            problems.append(f"unconverged solves {result.unconverged}, fingerprint {want_unconverged}")
        _compare_list("per-cell energies", result.energies, [want["energies"][i] for i in result.indices],
                      tol["energy_rtol"], tol["energy_atol"], problems)
    else:
        got_g = np.asarray(outputs["ex7_growth_tensor"])
        if got_g.shape != (2, 2) or not np.allclose(got_g, want["ex7_growth_tensor"], rtol=0.0,
                                                     atol=tol["growth_tensor_atol"]):
            problems.append(f"ex7 growth tensor {got_g.tolist()}, fingerprint {want['ex7_growth_tensor']}")
        if outputs["ex7_exceed_fraction"].keys() != want["ex7_exceed_fraction"].keys() or any(
            not _close(outputs["ex7_exceed_fraction"][k], v, 0.0, tol["fraction_atol"])
            for k, v in want["ex7_exceed_fraction"].items()
        ):
            problems.append(f"ex7 exceed fractions {outputs['ex7_exceed_fraction']}, "
                            f"fingerprint {want['ex7_exceed_fraction']}")
        _compare_list("oned chain energies", outputs["oned_chain_energies"], want["oned_chain_energies"],
                      tol["energy_rtol"], tol["energy_atol"], problems)
        if outputs["check_verdicts"] != want["check_verdicts"]:
            problems.append(f"check verdicts {outputs['check_verdicts']}, fingerprint {want['check_verdicts']}")
    return problems


# ---------------------------------------------------------------------------
# Independent checks


def _spring_energy_and_gradient(sample, positions):
    """Total energy sum g**p |r / (L g) - 1|**q and its gradient, written
    apart from growlat.solver."""
    law = sample.law
    q, p = law.q, law.p
    d = positions[sample.edges[:, 1]] - positions[sample.edges[:, 0]]
    r = np.sqrt(np.einsum("ij,ij->i", d, d))
    scale = sample.rest * sample.growth
    x = r / scale - 1.0
    weight = sample.growth**p
    per_edge = weight * np.abs(x) ** q
    dedr = weight * q * np.abs(x) ** (q - 1) * np.sign(x) / scale
    force = (dedr / np.where(r > 0, r, 1.0))[:, None] * d
    grad = np.zeros_like(positions)
    np.add.at(grad, sample.edges[:, 1], force)
    np.add.at(grad, sample.edges[:, 0], -force)
    return per_edge, grad


def check_solve(sample, f, opts, report, total_energy):
    """Problems with one converged branch solve (an empty list if none).

    ``total_energy`` is growlat.solver.total_energy; it gives the energy of
    the affine start, which the relaxed state must not exceed.
    """
    problems = []
    positions = np.asarray(report.positions, dtype=float)
    affine = sample.affine_positions(f)
    boundary = sample.boundary_mask()
    if not np.array_equal(positions[boundary], affine[boundary]):
        problems.append("boundary nodes moved off the affine data")
    per_edge, grad = _spring_energy_and_gradient(sample, positions)
    energy = float(per_edge.sum())
    if not _close(report.total_energy, energy, 1e-9, 1e-12):
        problems.append(f"total energy {report.total_energy!r} != recomputed {energy!r}")
    per_cell = float(per_edge[sample.owned].sum()) / sample.n**sample.dimension
    if not _close(report.per_cell_energy, per_cell, 1e-9, 1e-12):
        problems.append(f"per-cell energy {report.per_cell_energy!r} != recomputed {per_cell!r}")
    gtol = opts.gtol_rel if opts is not None else 1e-8
    tol = gtol * (1.0 + abs(energy))
    gnorm = float(np.max(np.abs(grad[~boundary]))) if (~boundary).any() else 0.0
    if gnorm > 1.001 * tol:
        problems.append(f"recomputed |grad| {gnorm:.3e} exceeds the tolerance {tol:.3e}")
    start = total_energy(sample, affine)
    if energy > start * (1.0 + 1e-12) + 1e-15:
        problems.append(f"relaxed energy {energy!r} above the affine start {start!r}")
    return problems


def check_solves(solves, total_energy, limit=3):
    """Independent checks over captured (sample, F, opts, report) tuples."""
    problems = []
    for k, (sample, f, opts, report) in enumerate(solves):
        if report.converged:
            problems += [f"solve {k}: {msg}" for msg in check_solve(sample, f, opts, report, total_energy)]
        if len(problems) >= limit:
            break
    return problems


def check_oned(outputs, one_d_continuum_energy, linear_growth, spring_law):
    """The chain error against the continuum energy must fall with N."""
    continuum = one_d_continuum_energy(linear_growth(1.0, 1.0), spring_law(2, 0.0), 1.0, 2.0)
    errors = [abs(e - continuum) for e in outputs["oned_chain_energies"]]
    ns = outputs["oned_ns"]
    if ns != sorted(ns) or any(b >= a for a, b in zip(errors, errors[1:])):
        return [f"oned chain error does not fall with N: {list(zip(ns, errors))}"]
    if not all(math.isfinite(e) for e in errors):
        return ["oned chain error is not finite"]
    return []
