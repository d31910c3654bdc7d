"""Configuration-driven experiment runner.

Usage: condensate-lab <task> --config <path> [--out <dir>] [--seed <u64>]

Tasks: scatter, evolve, groundstate, two-body-convergence, second-moment,
hierarchy-check, inequality-check.  Configs are JSON documents; the full
key reference lives in docs/config-reference.md.  Each run writes
report.json ({task, config_hash, results, checks, runtime_s}) plus one CSV
per emitted curve.  Reports are deterministic for a fixed (config, seed),
apart from the wall-clock field.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import os
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import analysis, gp, hierarchy, potentials, propagators, scattering

TASKS = (
    "scatter",
    "evolve",
    "groundstate",
    "two-body-convergence",
    "second-moment",
    "hierarchy-check",
    "inequality-check",
)


class ConfigError(ValueError):
    pass


@dataclass
class RunConfig:
    task: str
    seed: int = 0
    potential: dict | None = None
    params: dict = field(default_factory=dict)

    def as_dict(self) -> dict:
        out = {"task": self.task, "seed": self.seed, "params": dict(self.params)}
        if self.potential is not None:
            out["potential"] = dict(self.potential)
        return out


@dataclass
class Report:
    task: str
    config_hash: str
    results: dict
    checks: list[dict]
    runtime_s: float

    def passed(self) -> bool:
        return all(c["pass"] for c in self.checks)

    def as_dict(self) -> dict:
        return {
            "task": self.task,
            "config_hash": self.config_hash,
            "results": self.results,
            "checks": self.checks,
            "runtime_s": self.runtime_s,
        }


def _jsonable(obj):
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    if isinstance(obj, np.ndarray):
        return [_jsonable(v) for v in obj.tolist()]
    if isinstance(obj, (bool, int, float, str)) or obj is None:
        return obj
    if isinstance(obj, complex):
        return {"re": obj.real, "im": obj.imag}
    raise TypeError(f"cannot serialize {type(obj)!r}")


def canonical_json(obj) -> str:
    return json.dumps(_jsonable(obj), sort_keys=True, indent=2) + "\n"


def config_hash(cfg: RunConfig) -> str:
    payload = json.dumps(_jsonable(cfg.as_dict()), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(payload.encode()).hexdigest()[:16]


_TASK_REQUIRED = {
    "scatter": ("potential",),
    "evolve": ("potential_or_coupling",),
    "groundstate": (),
    "two-body-convergence": ("potential",),
    "second-moment": ("potential",),
    "hierarchy-check": (),
    "inequality-check": ("kind",),
}


def _integer(key: str, value, least: int) -> int:
    if isinstance(value, bool) or not isinstance(value, int) or value < least:
        raise ConfigError(f"{key} must be an integer >= {least}, got {value!r}")
    return value


def _choice(key: str, value, options: tuple[int, ...]) -> int:
    if isinstance(value, bool) or not isinstance(value, int) or value not in options:
        raise ConfigError(f"{key} must be one of {options}, got {value!r}")
    return value


def _finite(key: str, value) -> float:
    # the bound refuses inf, NaN and integers beyond float range
    if isinstance(value, bool) or not isinstance(value, (int, float)) or not abs(value) < sys.float_info.max:
        raise ConfigError(f"{key} must be a finite number, got {value!r}")
    return float(value)


def _positive(key: str, value) -> float:
    if _finite(key, value) <= 0:
        raise ConfigError(f"{key} must be positive, got {value!r}")
    return float(value)


def _per_axis(key: str, value, dim: int, read) -> tuple:
    """One entry per axis: a list of dim entries, or one entry for every axis."""
    entries = value if isinstance(value, list) else [value] * dim
    if len(entries) != dim:
        raise ConfigError(f"{key} needs {dim} entries (one per axis), got {len(entries)}")
    return tuple(read(key, v) for v in entries)


def _gp_grid(params: dict) -> tuple[int, tuple[int, ...], tuple[float, ...]]:
    """dim, grid shape and box of an evolve or groundstate config."""
    dim = _choice("dim", params.get("dim", 1), (1, 2, 3))
    M = params.get("grid", {1: 256, 2: 128, 3: 64}[dim])
    shape = _per_axis("grid", M, dim, lambda key, v: _integer(key, v, 2))
    box = _per_axis("box", params.get("box", 2.0 * np.pi), dim, _positive)
    return dim, shape, box


def _evolve_times(params: dict) -> tuple[float, int]:
    """t_final and the number of snapshots of an evolve config."""
    return (
        _positive("t_final", params.get("t_final", 1.0)),
        _integer("snapshots", params.get("snapshots", 10), 1),
    )


def _hierarchy_ladder(params: dict) -> tuple[int, dict]:
    """Refinement levels and the build_trajectory keywords of a hierarchy-check config."""
    dim = _choice("dim", params.get("dim", 1), (1, 2, 3))
    levels = _integer("levels", params.get("levels", 3), 2)
    shape = {
        "dim": dim,
        "grid": _integer("grid", params.get("grid", {1: 64, 2: 20, 3: 8}[dim]), 2),
        "box": _positive("box", params.get("box", 2.0 * np.pi)),
        "snapshot_dt": _positive("snapshot_dt", params.get("snapshot_dt", 0.05)),
        "t_final": _positive("t_final", params.get("t_final", 0.5)),
        "amp_cos": _finite("amp_cos", params.get("amp_cos", 0.4)),
        "amp_sin": _finite("amp_sin", params.get("amp_sin", 0.3)),
    }
    # the five-point stencil needs 5 snapshots on the coarsest level
    steps = shape["t_final"] / shape["snapshot_dt"]
    if steps < 3.5:
        raise ConfigError("t_final must be at least 4 snapshot_dt (5 snapshots)")
    # The finest level holds its T snapshots and the residual sweep's basis
    # (at most 2T + 1 more fields) of n complex points at once.  Integer
    # arithmetic: each factor is clamped at the memory size, which it alone
    # would exceed, so a huge level count or grid stays within float range.
    have = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    scale = 2 ** min(levels - 1, have.bit_length())
    n = (min(shape["grid"], have) * scale) ** dim
    snapshots = round(min(steps, have)) * scale + 1
    need = (3 * snapshots + 1) * 16 * n
    if need > have:
        raise ConfigError(
            f"hierarchy-check needs about {need / 1e9:.3g} GB for the trajectory and "
            f"residual basis of its finest level; physical memory is {have / 1e9:.3g} GB"
        )
    return levels, shape


# grid-shape readers, run by parse_config so a malformed shape is a ConfigError
_GRID_READERS = {
    "evolve": (_gp_grid, _evolve_times),
    "groundstate": (_gp_grid,),
    "hierarchy-check": (_hierarchy_ladder,),
}


def parse_config(text: str) -> RunConfig:
    """Validate a JSON config document into a RunConfig."""
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError("config must be a JSON object")
    task = raw.get("task")
    if task not in TASKS:
        raise ConfigError(f"unknown task: {task!r}")
    seed = raw.get("seed", 0)
    if not isinstance(seed, int) or seed < 0:
        raise ConfigError("seed must be a nonnegative integer")
    potential = raw.get("potential")
    params = {
        k: v for k, v in raw.items() if k not in ("task", "seed", "potential")
    }
    for tol_key in ("tol", "dt", "dtau"):
        if tol_key in params and not (
            isinstance(params[tol_key], (int, float)) and params[tol_key] > 0
        ):
            raise ConfigError(f"{tol_key} must be positive")
    for read in _GRID_READERS.get(task, ()):
        read(params)
    for req in _TASK_REQUIRED[task]:
        if req == "potential" and potential is None:
            raise ConfigError(f"task {task} requires a potential")
        if req == "potential_or_coupling" and potential is None and "coupling" not in params:
            raise ConfigError(f"task {task} requires a potential or a coupling")
        if req == "kind" and "kind" not in params:
            raise ConfigError("inequality-check requires a kind")
    cfg = RunConfig(task=task, seed=seed, potential=potential, params=params)
    if potential is not None:
        try:
            potentials.from_config(potential)  # validate eagerly
        except (KeyError, TypeError, AttributeError, ValueError, OverflowError, OSError) as exc:
            # PotentialError is a ValueError; OSError covers a tabulated CSV path
            raise ConfigError(f"invalid potential: {exc!r}") from exc
    return cfg


def serialize_config(cfg: RunConfig) -> str:
    doc = {"task": cfg.task, "seed": cfg.seed, **cfg.params}
    if cfg.potential is not None:
        doc["potential"] = cfg.potential
    return canonical_json(doc)


def _check(anchor: str, value: float, threshold: float, ok: bool) -> dict:
    return {
        "anchor": anchor,
        "value": float(value),
        "threshold": float(threshold),
        "pass": bool(ok),
    }


def _write_csv(path: Path, header: list[str], rows):
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        for row in rows:
            w.writerow([repr(float(v)) if isinstance(v, (float, np.floating)) else v for v in row])


def _resolve_coupling(spec, out: dict) -> float:
    """Coupling from a number or from a scattering/bare-integral rule."""
    if isinstance(spec, (int, float)):
        return float(spec)
    if isinstance(spec, dict):
        p = potentials.from_config(spec["potential"])
        mode = spec.get("mode", "scattering-length")
        if mode == "scattering-length":
            sol = scattering.solve_zero_energy(p)
            out["a0"] = sol.a0_asym
            return float(8.0 * np.pi * sol.a0_asym)
        if mode == "born":
            return float(potentials.norms(p).l1)
        raise ConfigError(f"unknown coupling mode: {mode!r}")
    raise ConfigError("coupling must be a number or a rule object")


# ---------------------------------------------------------------------------
# Task runners
# ---------------------------------------------------------------------------


def _run_scatter(cfg: RunConfig, outdir: Path):
    p = potentials.from_config(cfg.potential)
    sol = scattering.solve_zero_energy(p)
    born = potentials.born_scattering_length(p)
    ident = scattering.zero_energy_state_integral(p, sol)
    a0 = sol.a0_asym
    scale_a0 = max(abs(a0), 1e-12)
    consistency = abs(sol.a0_int - a0) / scale_a0
    k_probe = float(cfg.params.get("phase_probe_k", 1e-3))
    if p.family == "zero":
        phase_route = 0.0
    else:
        ps = scattering.phase_shift(p, k_probe)
        phase_route = -ps.delta0 / ps.k
    results = {
        "a0_asym": a0,
        "a0_int": sol.a0_int,
        "born_upper_bound": born,
        "consistency_gap": consistency,
        "eight_pi_a0_identity_gap": ident["relative_gap"],
        "phase_shift_route": phase_route,
        "fit_nonlinearity": sol.fit_nonlinearity,
        "ode_residual": sol.residual,
    }
    if bool(cfg.params.get("mapping_norm_diagnostic", False)) and p.family != "zero":
        # sampled L1->L1 ratio of the wave operator; reported, never asserted
        tr = scattering.build_transform(p, k_max=8.0, n_k=256)
        from .propagators import gaussian_packet

        probe = gaussian_packet(tr.grid, sigma=1.0, r0=2.0)
        results["l1_mapping_ratio"] = scattering.l1_ratio_diagnostic(tr, np.real(probe.u))
    checks = [
        _check("eq:a0", consistency, 1e-6, consistency <= 1e-6),
        _check("eq:WV4", ident["relative_gap"], 1e-6, ident["relative_gap"] <= 1e-6),
        _check("eq:scatt", a0 - born, 0.0, a0 <= born + 1e-12),
        _check(
            "eq:LSE",
            abs(phase_route - a0) / scale_a0,
            1e-4,
            abs(phase_route - a0) <= 1e-4 * max(scale_a0, 1.0),
        ),
    ]
    _write_csv(outdir / "profile.csv", ["r", "f"], zip(sol.grid.r, sol.f))
    return results, checks


def _field_from_init(dim, shape, box, init) -> gp.Field:
    axes = [(np.arange(M) - M // 2) * (L / M) for M, L in zip(shape, box)]
    mesh = np.meshgrid(*axes, indexing="ij")
    kind = init.get("type", "gaussian")
    if kind == "plane-wave":
        mode = init.get("mode", [1] * dim)
        amp = float(init.get("amplitude", 1.0))
        phase = np.zeros(shape)
        for c, (m, L) in enumerate(zip(mode, box)):
            phase = phase + (2.0 * np.pi * m / L) * mesh[c]
        vals = amp * np.exp(1j * phase)
        f = gp.Field(vals, tuple(box))
    elif kind == "gaussian":
        width = float(init.get("width", 1.0))
        r2 = np.zeros(shape)
        for c in range(dim):
            r2 = r2 + mesh[c] ** 2
        f = gp.Field(np.exp(-r2 / (2.0 * width**2)).astype(complex), tuple(box))
        f.normalize()
    elif kind == "cosine":
        amp = float(init.get("amplitude", 0.4))
        vals = np.ones(shape, dtype=complex)
        for c, L in enumerate(box):
            vals = vals + amp * np.cos(2.0 * np.pi * mesh[c] / L)
        f = gp.Field(vals, tuple(box))
        f.normalize()
    else:
        raise ConfigError(f"unknown initial state type: {kind!r}")
    return f


def _gp_setup(cfg: RunConfig, results: dict):
    params = cfg.params
    dim, shape, box = _gp_grid(params)
    coupling = _resolve_coupling(params.get("coupling", 0.0), results)
    trap = gp.harmonic_trap if params.get("trap") == "harmonic" else None
    return dim, shape, box, coupling, trap


def _default_dt(params: dict, f: gp.Field) -> float:
    if "dt" in params:
        return float(params["dt"])
    # keep the default consistent with the kinetic-scale precondition
    return min(1e-3, 0.8 * np.pi / float(np.max(f.k_squared())))


def _run_evolve(cfg: RunConfig, outdir: Path):
    params = cfg.params
    results: dict = {}
    dim, shape, box, coupling, trap = _gp_setup(cfg, results)
    t_final, n_snap = _evolve_times(params)
    init = params.get("initial", {"type": "gaussian", "width": 1.0})
    f = _field_from_init(dim, shape, box, init)
    dt = _default_dt(params, f)
    t_snap = t_final / n_snap
    dt = t_snap / int(np.ceil(t_snap / dt - 1e-12))
    gcfg = gp.GPConfig(coupling=coupling, trap=trap, dt=dt)

    e0 = gp.gp_energy(f, gcfg)
    m0 = f.mass()
    rows = [(0.0, m0, e0["kinetic"], e0["interaction"], e0["trap"], e0["total"])]
    cur = f
    mass_drift = 0.0
    energy_drift = 0.0
    for i in range(n_snap):
        cur = gp.gp_evolve(cur, gcfg, t_snap)
        e = gp.gp_energy(cur, gcfg)
        rows.append(
            (cur.time, cur.mass(), e["kinetic"], e["interaction"], e["trap"], e["total"])
        )
        mass_drift = max(mass_drift, abs(cur.mass() - m0) / m0)
        energy_drift = max(energy_drift, abs(e["total"] - e0["total"]) / abs(e0["total"]))
    results.update(
        {
            "coupling": coupling,
            "mass_drift": mass_drift,
            "energy_drift": energy_drift,
            "energy_initial": e0["total"],
            "energy_final": rows[-1][5],
            "series": [
                {
                    "t": r[0],
                    "mass": r[1],
                    "kinetic": r[2],
                    "interaction": r[3],
                    "trap": r[4],
                    "total": r[5],
                }
                for r in rows
            ],
        }
    )
    checks = [
        _check("eq:GP1", mass_drift, 1e-10 * max(t_final, 1), mass_drift <= 1e-10 * max(t_final, 1)),
        _check("eq:GP1", energy_drift, 1e-8, energy_drift <= 1e-8),
    ]
    if init.get("type") == "plane-wave":
        mode = init.get("mode", [1] * dim)
        amp = float(init.get("amplitude", 1.0))
        k2 = sum((2.0 * np.pi * m / L) ** 2 for m, L in zip(mode, box))
        omega = k2 + coupling * amp**2
        f_exact = _field_from_init(dim, shape, box, init)
        exact = f_exact.values * np.exp(-1j * omega * cur.time)
        phase_err = float(np.max(np.abs(np.angle(cur.values / exact))))
        results["plane_wave_phase_error"] = phase_err
        results["dispersion_omega"] = float(omega)
        checks.append(_check("eq:GP1", phase_err, 1e-6, phase_err <= 1e-6))
    _write_csv(
        outdir / "observables.csv",
        ["t", "mass", "kinetic", "interaction", "trap", "total"],
        rows,
    )
    if bool(params.get("density_slice", False)):
        sl = cur.values
        while sl.ndim > 1:
            sl = sl[sl.shape[0] // 2]
        _write_csv(
            outdir / "density.csv",
            ["x", "density"],
            zip(cur.axes()[-1], np.abs(sl) ** 2),
        )
    return results, checks


def _run_groundstate(cfg: RunConfig, outdir: Path):
    params = cfg.params
    results: dict = {}
    dim, shape, box, coupling, trap = _gp_setup(cfg, results)
    if trap is None and coupling == 0.0:
        raise ConfigError("no minimizer: groundstate needs a trap or g > 0")
    init = _field_from_init(
        dim, shape, box, params.get("initial", {"type": "gaussian", "width": 0.7})
    )
    gcfg = gp.GPConfig(coupling=coupling, trap=trap)
    res = gp.gp_ground_state(
        gcfg,
        init,
        dtau=float(params.get("dtau", 0.02)),
        tol=float(params.get("tol", 1e-10)),
    )
    energies = res["energies"]
    monotone = all(b <= a for a, b in zip(energies[:-1], energies[1:]))
    results.update(
        {
            "coupling": coupling,
            "energy": res["energy"],
            "iterations": res["iterations"],
            "monotone_descent": monotone,
        }
    )
    checks = [_check("E-GP", 0.0 if monotone else 1.0, 0.5, monotone)]
    if trap is not None and coupling == 0.0:
        err = abs(res["energy"] - dim)
        results["harmonic_reference"] = float(dim)
        checks.append(_check("E-GP", err, 1e-4, err <= 1e-4))
    _write_csv(
        outdir / "descent.csv",
        ["iteration", "energy"],
        list(enumerate(energies)),
    )
    return results, checks


def _run_two_body(cfg: RunConfig, outdir: Path):
    params = cfg.params
    p = potentials.from_config(cfg.potential)
    n_list = params.get("n_list", [8, 16, 32, 64, 128, 256])
    times = tuple(params.get("times", (0.25, 0.5, 1.0)))
    curve = propagators.convergence_experiment(
        p,
        n_list,
        times=times,
        sigma=float(params.get("sigma", 1.0)),
        rmax=float(params.get("rmax", 24.0)),
        dt=float(params.get("dt", 1e-3)),
    )
    results = {
        "N_values": curve.N_values,
        "defects": curve.defects,
        "slope": curve.fitted_slope if curve.fitted_slope is not None else "exact",
        "h1_norm": curve.h1_norm,
        "monotone": curve.monotone_decreasing(),
        "times": list(times),
        "boundary_fraction_max": curve.boundary_fraction_max,
    }
    slope_limit = -1.0 / 6.0 + 0.05
    if curve.exact:
        checks = [_check("lm:WNto1", 0.0, 0.0, True)]
    else:
        checks = [
            _check("lm:WNto1", curve.fitted_slope, slope_limit, curve.fitted_slope <= slope_limit),
            _check("lm:WNto1", 0.0 if curve.monotone_decreasing() else 1.0, 0.5, curve.monotone_decreasing()),
        ]
    _write_csv(outdir / "defect_curve.csv", ["N", "defect"], zip(curve.N_values, curve.defects))
    return results, checks


def _run_second_moment(cfg: RunConfig, outdir: Path):
    params = cfg.params
    p = potentials.from_config(cfg.potential)
    samples = int(params.get("samples", 10))
    rng = np.random.default_rng(cfg.seed)
    transform = scattering.build_transform(
        potentials.scale(p, 2),
        k_max=float(params.get("k_max", 14.0)),
        n_k=int(params.get("n_k", 640)),
    )
    rows = []
    worst = np.inf
    worst_triplet = None
    for i in range(samples):
        chi = propagators.CenterProfile(
            widths=tuple(rng.uniform(0.7, 1.5, 3)),
            momenta=tuple(rng.uniform(-1.0, 1.0, 3)),
        )
        g = propagators.gaussian_packet(transform.grid, sigma=float(rng.uniform(0.8, 1.6)))
        res = propagators.second_moment_check(chi, g, p, N=2, transform=transform)
        rel = res.slack / abs(res.lhs)
        if rel < worst:
            worst = rel
            worst_triplet = (res.lhs, res.rhs, res.slack)
        rows.append((i, res.lhs, res.rhs, res.slack, rel))
    results = {
        "N": 2,
        "samples": samples,
        "lhs": worst_triplet[0],
        "rhs": worst_triplet[1],
        "slack": worst_triplet[2],
        "min_relative_slack": float(worst),
        "transform_defect": transform.completeness_defect,
    }
    checks = [_check("prop:energ2", worst, -1e-6, worst >= -1e-6)]
    _write_csv(outdir / "second_moment.csv", ["sample", "lhs", "rhs", "slack", "rel_slack"], rows)
    return results, checks


def _run_hierarchy(cfg: RunConfig, outdir: Path):
    params = cfg.params
    results: dict = {}
    coupling = _resolve_coupling(params.get("coupling", 1.0), results)
    levels, shape = _hierarchy_ladder(params)
    dim = shape["dim"]
    study = hierarchy.refinement_study(
        lambda lvl: hierarchy.build_trajectory(lvl, coupling=coupling, **shape),
        levels=levels,
        coupling=coupling,
    )
    res_fine = study["finest_residual"]
    wrong_factor = float(params.get("wrong_factor", 2.0))
    res_wrong = hierarchy.hierarchy_residual(study["finest_trajectory"], wrong_factor * coupling)
    ratio = res_wrong.max_differential() / res_fine.max_differential()

    zero_traj = hierarchy.build_trajectory(0, coupling=0.0, **shape)
    zero_resid = hierarchy.integral_form_residual(zero_traj, 0.0)[-1]

    results.update(
        {
            "coupling": coupling,
            "dim": dim,
            "differential_residuals": study["differential"],
            "integral_residuals": study["integral"],
            "slope_differential": study["slope_differential"],
            "slope_integral": study["slope_integral"],
            "wrong_coupling_ratio": float(ratio),
            "zero_coupling_integral_residual": float(zero_resid),
            "rows": [
                {"t": t, "differential_residual": d, "integral_residual": i}
                for t, d, i in zip(
                    res_fine.times,
                    res_fine.differential_residual,
                    res_fine.integral_residual,
                )
            ],
        }
    )
    checks = [
        _check("eq:infhier", study["slope_differential"], 2.0, study["slope_differential"] >= 2.0),
        _check("eq:BBGKYinf", study["slope_integral"], 2.0, study["slope_integral"] >= 2.0),
        _check("eq:infhier", ratio, 10.0, ratio >= 10.0),
        _check("eq:BBGKYinf", zero_resid, 1e-8, zero_resid <= 1e-8),
    ]
    _write_csv(
        outdir / "residuals.csv",
        ["t", "differential_residual", "integral_residual"],
        zip(res_fine.times, res_fine.differential_residual, res_fine.integral_residual),
    )
    return results, checks


def _run_inequality(cfg: RunConfig, outdir: Path):
    params = cfg.params
    kind = params["kind"]
    rng = np.random.default_rng(cfg.seed)
    if kind == "int1":
        p_grid = params.get("p_grid", [0.0, 0.5, 1.0, 2.0, 5.0, 10.0, 20.0, 50.0])
        values = [analysis.kernel_integral("int1", p) for p in p_grid]
        v0 = values[p_grid.index(0.0)] if 0.0 in p_grid else analysis.kernel_integral("int1", 0.0)
        cal = abs(v0 - np.pi**2)
        sup_ok = max(values) <= v0 + 1e-6
        results = {"p_grid": p_grid, "values": values, "calibration_gap": cal}
        checks = [
            _check("eq:int1", cal, 1e-4, cal <= 1e-4),
            _check("eq:int1", max(values) - v0, 1e-6, sup_ok),
        ]
        _write_csv(outdir / "kernel_int1.csv", ["p", "value"], zip(p_grid, values))
    elif kind == "trivv":
        from scipy.special import gamma as _gamma

        p_grid = params.get("p_grid", [0.0, 1.0, 5.0, 20.0])
        values = [analysis.kernel_integral("trivv", p) for p in p_grid]
        oracle = float(4.0 * np.pi * (0.5 * _gamma(1.75) * _gamma(0.25) + np.pi / 4.0))
        gap = abs(values[0] - oracle)
        results = {"p_grid": p_grid, "values": values, "beta_oracle": oracle}
        checks = [_check("eq:trivv", gap, 1e-4, gap <= 1e-4)]
        _write_csv(outdir / "kernel_trivv.csv", ["p", "value"], zip(p_grid, values))
    elif kind == "vl1":
        p = potentials.from_config(cfg.potential or {"family": "soft-sphere", "v0": 2.0, "radius": 1.0})
        n_pairs = int(params.get("pairs", 100))
        ratios = []
        for _ in range(2 * n_pairs):
            ratios.append(analysis.vl1_check(p, analysis.random_pair(rng))["ratio"])
        sup_half = max(ratios[:n_pairs])
        sup_full = max(ratios)
        change = abs(sup_full - sup_half) / sup_half
        bound = float(np.pi**2 / (2.0 * np.pi) ** 3)
        results = {
            "pairs": n_pairs,
            "ratio_sup": sup_full,
            "ratio_sup_half": sup_half,
            "doubling_change": change,
            "analytic_bound": bound,
        }
        checks = [
            _check("lm:VL1", change, 0.1, change < 0.1),
            _check("lm:VL1", sup_full, bound, sup_full <= bound),
        ]
        _write_csv(outdir / "vl1_ratios.csv", ["pair", "ratio"], list(enumerate(ratios)))
    elif kind == "vl12":
        base = potentials.from_config(
            cfg.potential or {"family": "gaussian", "v0": 1.0, "width": 1.0}
        )
        unit = potentials.unit_l1(base)
        ladder = params.get("alphas", [0.5 / 2**j for j in range(11)])
        pair = analysis.random_pair(rng)
        res = analysis.vl12_rate(unit, pair, ladder)
        gaps = res["gaps"]
        mono = all(b <= a + 1e-8 for a, b in zip(gaps[:-1], gaps[1:]))
        cfit = gaps[0] / (ladder[0] ** (1.0 / 12.0) * res["form_scale"])
        rate_ok = all(
            g <= cfit * a ** (1.0 / 12.0) * res["form_scale"] * (1 + 1e-9)
            for g, a in zip(gaps, ladder)
        )
        results = {
            "alphas": list(ladder),
            "gaps": [float(g) for g in gaps],
            "fitted_constant": float(cfit),
            "monotone": mono,
        }
        checks = [
            _check("lm:VL12", 0.0 if mono else 1.0, 0.5, mono),
            _check("lm:VL12", 0.0 if rate_ok else 1.0, 0.5, rate_ok),
        ]
        _write_csv(outdir / "vl12_gaps.csv", ["alpha", "gap"], zip(ladder, gaps))
    elif kind == "theta":
        cfgc = analysis.default_cutoff_config(
            N=int(params.get("n_particles", 10)),
            k=int(params.get("k", 3)),
            n=int(params.get("n", 1)),
        )
        samples = int(params.get("samples", 1000))
        r1 = analysis.theta_inequalities(cfgc, samples=samples, seed=cfg.seed)
        r2 = analysis.theta_inequalities(cfgc, samples=2 * samples, seed=cfg.seed)
        stab2 = abs(r2["ratio_ii_sup"] - r1["ratio_ii_sup"]) / r1["ratio_ii_sup"]
        stab3 = abs(r2["ratio_iii_sup"] - r1["ratio_iii_sup"]) / r1["ratio_iii_sup"]
        results = {
            "samples": samples,
            "monotonicity_ok": r1["monotonicity_ok"] and r2["monotonicity_ok"],
            "ratio_ii_sup": r2["ratio_ii_sup"],
            "ratio_iii_sup": r2["ratio_iii_sup"],
            "stability_ii": stab2,
            "stability_iii": stab3,
        }
        checks = [
            _check("lm:theta", 0.0 if results["monotonicity_ok"] else 1.0, 0.5, results["monotonicity_ok"]),
            _check("lm:theta", stab2, 0.1, stab2 < 0.1),
            _check("lm:theta", stab3, 0.1, stab3 < 0.1),
        ]
    else:
        raise ConfigError(f"unknown inequality kind: {kind!r}")
    return results, checks


_RUNNERS = {
    "scatter": _run_scatter,
    "evolve": _run_evolve,
    "groundstate": _run_groundstate,
    "two-body-convergence": _run_two_body,
    "second-moment": _run_second_moment,
    "hierarchy-check": _run_hierarchy,
    "inequality-check": _run_inequality,
}


def run(cfg: RunConfig, outdir: str | Path | None = None) -> Report:
    """Execute one task, write report.json and CSVs, return the Report."""
    outdir = Path(outdir) if outdir is not None else Path(f"{cfg.task}-out")
    outdir.mkdir(parents=True, exist_ok=True)
    start = time.perf_counter()
    try:
        results, checks = _RUNNERS[cfg.task](cfg, outdir)
    except (ValueError, RuntimeError) as exc:
        raise RuntimeError(f"task {cfg.task} failed: {exc}") from exc
    report = Report(
        task=cfg.task,
        config_hash=config_hash(cfg),
        results=_jsonable(results),
        checks=checks,
        runtime_s=time.perf_counter() - start,
    )
    (outdir / "report.json").write_text(canonical_json(report.as_dict()))
    return report


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="condensate-lab",
        description="Desk-scale experiments: scattering lengths, wave operators, "
        "condensate dynamics and the supporting inequalities.",
    )
    parser.add_argument("task", choices=TASKS)
    parser.add_argument("--config", required=True, help="path to a JSON config")
    parser.add_argument("--out", default=None, help="output directory")
    parser.add_argument("--seed", type=int, default=None, help="override config seed")
    args = parser.parse_args(argv)
    try:
        cfg = parse_config(Path(args.config).read_text())
    except (ConfigError, OSError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    if cfg.task != args.task:
        print(
            f"config task {cfg.task!r} does not match requested task {args.task!r}",
            file=sys.stderr,
        )
        return 2
    if args.seed is not None:
        cfg.seed = args.seed
    try:
        report = run(cfg, args.out)
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    for chk in report.checks:
        status = "PASS" if chk["pass"] else "FAIL"
        print(f"[{status}] {chk['anchor']}: value={chk['value']:.6g} threshold={chk['threshold']:.6g}")
    print(f"report: {report.config_hash} runtime={report.runtime_s:.2f}s")
    return 0 if report.passed() else 1


if __name__ == "__main__":
    sys.exit(main())
