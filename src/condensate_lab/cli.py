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
import math
import os
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import analysis, gp, hierarchy, potentials, propagators, scattering


class ConfigError(ValueError):
    pass


@dataclass
class RunConfig:
    task: str
    seed: int = 0
    potential: dict | None = None
    params: dict = field(default_factory=dict)
    # the runner's keyword arguments, as the task's reader made them of the keys above
    arguments: dict = field(default_factory=dict, repr=False)

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


def _integer(key: str, value, least: int) -> int:
    # the runners take integers to float, so the bound refuses those beyond float range
    if isinstance(value, bool) or not isinstance(value, int) or not least <= value <= sys.float_info.max:
        raise ConfigError(f"{key} must be an integer >= {least} within float range, got {value!r}")
    return value


def _choice(key: str, value, options: tuple):
    # equal and of the same type: neither 1.0 nor True is the dim 1
    if not any(type(value) is type(o) and value == o for o in options):
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


def _nonnegative(key: str, value) -> float:
    if _finite(key, value) < 0:
        raise ConfigError(f"{key} must be >= 0, got {value!r}")
    return float(value)


def _per_axis(key: str, value, dim: int, read) -> tuple:
    """One entry per axis: a list of dim entries, or one entry for every axis."""
    entries = value if isinstance(value, list) else [value] * dim
    if len(entries) != dim:
        raise ConfigError(f"{key} needs {dim} entries (one per axis), got {len(entries)}")
    return tuple(read(key, v) for v in entries)


def _list(key: str, value, read, least: int = 1) -> list:
    if not isinstance(value, list) or len(value) < least:
        raise ConfigError(f"{key} must be a list of at least {least} entries, got {value!r}")
    return [read(key, v) for v in value]


class _Seen(dict):
    """A config object that records every key its reader looks up."""

    def __init__(self, spec: dict):
        super().__init__(spec)
        self.looked_up: set = set()

    def __getitem__(self, key):
        self.looked_up.add(key)
        return super().__getitem__(key)

    def get(self, key, default=None):
        self.looked_up.add(key)
        return super().get(key, default)

    def __contains__(self, key):
        self.looked_up.add(key)
        return super().__contains__(key)


def _read_keys(what: str, spec, reader):
    """reader(spec); then, for an object spec, a ConfigError naming every key reader never looked up."""
    if not isinstance(spec, dict):
        return reader(spec)
    seen = _Seen(spec)
    out = reader(seen)
    unread = [key for key in spec if key not in seen.looked_up]
    if unread:
        raise ConfigError(f"unknown {what} key{'s' * (len(unread) > 1)}: {', '.join(map(repr, unread))}")
    return out


def _potential(spec, key: str = "potential") -> potentials.Potential:
    try:
        return _read_keys(key, spec, potentials.from_config)
    except ConfigError:
        raise
    except (KeyError, TypeError, AttributeError, ValueError, OverflowError, OSError) as exc:
        # PotentialError is a ValueError; OSError covers a tabulated CSV path
        raise ConfigError(f"invalid {key}: {exc!r}") from exc


def _read_potential(params: dict, task: str, default: potentials.Potential | None = None) -> potentials.Potential:
    """The config's potential, else default; with no default the task requires one."""
    if "potential" in params:
        return _potential(params["potential"])
    if default is None:
        raise ConfigError(f"task {task} requires a potential")
    return default


def _physical_memory() -> int:
    return os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")


def _refuse_beyond(have: int, need: float, what: str) -> None:
    """ConfigError when need bytes exceed physical memory have; what formats need in GB."""
    if need > have:
        raise ConfigError(f"{what.format(need / 1e9)}; physical memory is {have / 1e9:.3g} GB")


# Most grid points x solver steps (site-steps) a run may ask for.  A GP site-step
# costs 98-154 ns on a 2-core host, so the budget is 16-26 minutes of Strang
# steps; the largest sample config asks for about 2e7.
_WORK_BUDGET = 1e10


def _refuse_work(work: float, what: str) -> None:
    """ConfigError when work site-steps (inf or NaN past float range) exceed _WORK_BUDGET."""
    if not work <= _WORK_BUDGET:
        raise ConfigError(f"{what} asks for {work:.3g} grid points x solver steps; the budget is {_WORK_BUDGET:.3g}")


def _read_rule(spec: dict) -> tuple:
    mode = _choice("coupling mode", spec.get("mode", "scattering-length"), ("scattering-length", "born"))
    return mode, _potential(spec.get("potential"), "coupling potential")


def _read_coupling(params: dict, default: float):
    """A number >= 0, or a validated (mode, potential) rule for _resolve_coupling."""
    spec = params.get("coupling", default)
    if not isinstance(spec, dict):
        return _nonnegative("coupling", spec)
    return _read_keys("coupling", spec, _read_rule)


def _resolve_coupling(coupling, results: dict) -> float:
    """The value of a _read_coupling result; a scattering-length rule also reports a0."""
    if not isinstance(coupling, tuple):
        return coupling
    mode, p = coupling
    if mode == "born":
        return p.l1
    sol = scattering.solve_zero_energy(p)
    results["a0"] = sol.a0_asym
    return float(8.0 * np.pi * sol.a0_asym)


def parse_config(text: str) -> RunConfig:
    """Validate a JSON config document into a RunConfig.

    The task's reader checks every documented key here, so a malformed
    config, a key no reader looks up, or a run beyond _WORK_BUDGET is a
    ConfigError before any solver runs; run executes what the reader made.
    """
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError("config must be a JSON object")
    task = raw.get("task")
    if not isinstance(task, str) or task not in _TASKS:
        raise ConfigError(f"unknown task: {task!r}")
    seed = _integer("seed", raw.get("seed", 0), 0)
    params = {k: v for k, v in raw.items() if k not in ("task", "seed", "potential")}
    potential = raw.get("potential")
    # the reader reads the potential too
    keys = params if potential is None else {**params, "potential": potential}
    arguments = _read_keys(task, keys, _TASKS[task][0])
    return RunConfig(task=task, seed=seed, potential=potential, params=params, arguments=arguments)


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


# ---------------------------------------------------------------------------
# Tasks: a reader turns a config's keys into its runner's arguments
# ---------------------------------------------------------------------------


# -delta0(k) / k = a0 + O(k^2), so the eq:LSE threshold 1e-4 presumes k a0 << 1:
# at k = 0.3 the soft sphere (v0 2, radius 1) reads 2.1e-3.
_PHASE_PROBE_K = 1e-3


def _read_scatter(params: dict) -> dict:
    return {"potential": _read_potential(params, "scatter")}


def _run_scatter(outdir: Path, seed: int, *, potential):
    p = potential
    sol = scattering.solve_zero_energy(p)
    born = potentials.born_scattering_length(p)
    ident = scattering.zero_energy_state_integral(sol)
    a0 = sol.a0_asym
    scale_a0 = max(abs(a0), 1e-12)
    consistency = abs(sol.a0_int - a0) / scale_a0
    # + 0.0 prints V = 0's exact delta = 0 as 0.0, not -0.0
    phase_route = -scattering.phase_shift(p, _PHASE_PROBE_K) / _PHASE_PROBE_K + 0.0
    results = {
        "a0_asym": a0,
        "a0_int": sol.a0_int,
        "born_upper_bound": born,
        "consistency_gap": consistency,
        "eight_pi_a0_identity_gap": ident["relative_gap"],
        "phase_shift_route": phase_route,
        "ode_residual": sol.residual,
    }
    # relative to |a0| when |a0| >= 1, absolute below
    lse_gap = abs(phase_route - a0) / max(abs(a0), 1.0)
    checks = [
        _check("eq:a0", consistency, 1e-6, consistency <= 1e-6),
        _check("eq:WV4", ident["relative_gap"], 1e-6, ident["relative_gap"] <= 1e-6),
        _check("eq:scatt", a0 - born, 1e-12, a0 - born <= 1e-12),
        _check("eq:LSE", lse_gap, 1e-4, lse_gap <= 1e-4),
    ]
    _write_csv(outdir / "profile.csv", ["r", "f"], zip(sol.grid.r, sol.f))
    return results, checks


def _read_initial(spec, shape: tuple[int, ...], box: tuple[float, ...]) -> dict:
    """An initial state: its type and every parameter, defaults filled in."""
    if not isinstance(spec, dict):
        raise ConfigError(f"initial must be an object, got {spec!r}")
    kind = _choice("initial type", spec.get("type", "gaussian"), ("plane-wave", "gaussian", "cosine"))
    if kind == "gaussian":
        return {"type": kind, "width": _positive("initial width", spec.get("width", 1.0))}
    if kind == "cosine":
        return {"type": kind, "amplitude": _finite("initial amplitude", spec.get("amplitude", 0.4))}
    mode = spec.get("mode", [1] * len(shape))
    if not isinstance(mode, list) or len(mode) != len(shape):
        raise ConfigError(f"initial mode needs a list of {len(shape)} integers (one per axis), got {mode!r}")
    for m, M in zip(mode, shape):
        if _integer("initial mode", m, -(M // 2)) > M // 2:
            raise ConfigError(f"initial mode must lie in [-{M // 2}, {M // 2}] on a grid of {M}, got {m!r}")
    amplitude = _finite("initial amplitude", spec.get("amplitude", 1.0))
    # the plane wave is not normalized: the mass drift is relative to its mass |A|^2 prod L
    if not 0.0 < amplitude * amplitude * math.prod(box) < math.inf:
        raise ConfigError(f"a plane-wave initial amplitude needs a positive finite mass, got amplitude {amplitude!r}")
    return {"type": kind, "amplitude": amplitude, "mode": mode}


def _read_gp(params: dict, width: float) -> dict:
    """Grid, coupling, trap and initial state of an evolve or groundstate config."""
    dim = _choice("dim", params.get("dim", 1), (1, 2, 3))
    M = params.get("grid", {1: 256, 2: 128, 3: 64}[dim])
    shape = _per_axis("grid", M, dim, lambda key, v: _integer(key, v, 2))
    box = _per_axis("box", params.get("box", 2.0 * np.pi), dim, _positive)
    # each factor is clamped at the memory size, which it alone would exceed
    have = _physical_memory()
    need = 16 * math.prod(min(M, have) for M in shape)
    _refuse_beyond(have, need, "the grid needs about {:.3g} GB per field")
    trap = _choice("trap", params.get("trap"), (None, "harmonic"))
    return {
        "shape": shape,
        "box": box,
        "coupling": _read_coupling(params, 0.0),
        "trap": gp.harmonic_trap if trap else None,
        "initial": _read_keys(
            "initial",
            params.get("initial", {"type": "gaussian", "width": width}),
            lambda spec: _read_initial(spec, shape, box),
        ),
    }


def _field_from_init(shape, box, init: dict) -> gp.Field:
    mesh = np.meshgrid(*gp.centered_axes(shape, box), indexing="ij")
    if init["type"] == "plane-wave":
        phase = sum((2.0 * np.pi * m / L) * x for m, L, x in zip(init["mode"], box, mesh))
        return gp.Field(init["amplitude"] * np.exp(1j * phase), box)
    if init["type"] == "gaussian":
        r2 = sum(x**2 for x in mesh)
        f = gp.Field(np.exp(-r2 / (2.0 * init["width"] ** 2)).astype(complex), box)
    else:
        cosines = (init["amplitude"] * np.cos(2.0 * np.pi * x / L) for x, L in zip(mesh, box))
        f = gp.Field(sum(cosines, np.ones(shape, dtype=complex)), box)
    return f.normalize()


def _read_evolve(params: dict) -> dict:
    kw = _read_gp(params, 1.0)
    shape, box = kw["shape"], kw["box"]
    t_final = _positive("t_final", params.get("t_final", 1.0))
    snapshots = _integer("snapshots", params.get("snapshots", 10), 1)
    t_snap = np.float64(t_final / snapshots)
    with np.errstate(divide="ignore", over="ignore"):
        if "dt" in params:
            dt = _positive("dt", params["dt"])
        else:
            # the kinetic-scale precondition at the grid's largest |k|^2
            dt = min(1e-3, gp.KINETIC_PHASE / gp.max_k_squared(shape, box))
        steps = np.ceil(t_snap / dt - 1e-12)
    if not 1 <= steps <= sys.float_info.max:
        raise ConfigError(f"t_final / snapshots = {t_snap:.3g} takes no finite number of steps dt = {dt:.3g}")
    _refuse_work(float(steps) * snapshots * math.prod(shape), "evolve")
    return {
        **kw,
        "t_final": t_final,
        "snapshots": snapshots,
        # dt snapped to divide the snapshot interval
        "dt": float(t_snap / int(steps)),
    }


def _run_evolve(outdir: Path, seed: int, *, shape, box, coupling, trap, initial, t_final, snapshots, dt):
    results: dict = {}
    coupling = _resolve_coupling(coupling, results)
    f = _field_from_init(shape, box, initial)
    t_snap = t_final / snapshots
    gcfg = gp.GPConfig(coupling=coupling, trap=trap, dt=dt)

    def observe(f: gp.Field) -> tuple:
        e = gp.gp_energy(f, gcfg)
        return (f.time, f.mass(), e["kinetic"], e["interaction"], e["trap"], e["total"])

    rows = [observe(f)]
    cur = f
    for _ in range(snapshots):
        cur = gp.gp_evolve(cur, gcfg, t_snap)
        rows.append(observe(cur))
    m0, e0 = rows[0][1], rows[0][5]
    mass_drift = max(abs(r[1] - m0) / m0 for r in rows[1:])
    # every energy term is >= 0, so E = 0 only for a constant state at g = 0, which is
    # stationary: its drift is absolute
    energy_drift = max(abs(r[5] - e0) / (abs(e0) or 1.0) for r in rows[1:])
    columns = ("t", "mass", "kinetic", "interaction", "trap", "total")
    results.update(
        {
            "coupling": coupling,
            "mass_drift": mass_drift,
            "energy_drift": energy_drift,
            "energy_initial": e0,
            "energy_final": rows[-1][5],
            "series": [dict(zip(columns, r)) for r in rows],
        }
    )
    checks = [
        _check("eq:GP1", mass_drift, 1e-10 * max(t_final, 1), mass_drift <= 1e-10 * max(t_final, 1)),
        _check("eq:GP1", energy_drift, 1e-8, energy_drift <= 1e-8),
    ]
    if initial["type"] == "plane-wave":
        k2 = sum((2.0 * np.pi * m / L) ** 2 for m, L in zip(initial["mode"], box))
        omega = k2 + coupling * initial["amplitude"] ** 2
        exact = _field_from_init(shape, box, initial).values * np.exp(-1j * omega * cur.time)
        phase_err = float(np.max(np.abs(np.angle(cur.values / exact))))
        results["plane_wave_phase_error"] = phase_err
        results["dispersion_omega"] = float(omega)
        checks.append(_check("eq:GP1", phase_err, 1e-6, phase_err <= 1e-6))
    _write_csv(outdir / "observables.csv", columns, rows)
    return results, checks


def _read_groundstate(params: dict) -> dict:
    kw = _read_gp(params, 0.7)
    if kw["trap"] is None and kw["coupling"] == 0.0:
        raise ConfigError("no minimizer: groundstate needs a trap or g > 0")
    return kw


def _run_groundstate(outdir: Path, seed: int, *, shape, box, coupling, trap, initial):
    results: dict = {}
    coupling = _resolve_coupling(coupling, results)
    gcfg = gp.GPConfig(coupling=coupling, trap=trap)
    res = gp.gp_ground_state(gcfg, _field_from_init(shape, box, initial))
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
        dim = len(shape)
        err = abs(res["energy"] - dim)
        results["harmonic_reference"] = float(dim)
        checks.append(_check("E-GP", err, 1e-4, err <= 1e-4))
    _write_csv(outdir / "descent.csv", ["iteration", "energy"], list(enumerate(energies)))
    return results, checks


def _read_two_body(params: dict) -> dict:
    times = _list("times", params.get("times", [0.25, 0.5, 1.0]), _nonnegative)
    dt = _positive("dt", params.get("dt", 1e-3))
    steps = 0  # of the interacting run, which goes through the sorted times once per N
    for t in times:
        try:
            steps = max(steps, propagators.step_count(t, dt))
        except (ValueError, OverflowError) as exc:  # t / dt may overflow to inf
            raise ConfigError(f"times must be multiples of dt = {dt!r}, got {t!r}: {exc}") from exc
    potential = _read_potential(params, "two-body-convergence")
    n_list = _list("n_list", params.get("n_list", [8, 16, 32, 64, 128, 256]), lambda key, v: _integer(key, v, 1), 4)
    rmax = _positive("rmax", params.get("rmax", 24.0))
    # The largest N has the finest grid, of about rmax / step points.  A step
    # that underflows to 0 and a quotient beyond float range read as inf.
    have = _physical_memory()
    N = max(n_list)
    step = propagators.radial_step(potential.range_hint / N)
    need = 16 * rmax / step if step else math.inf
    _refuse_beyond(have, need, f"n_list entry {N:.3g} needs at least {{:.3g}} GB per field on its radial grid")
    points = sum(rmax / propagators.radial_step(potential.range_hint / N) for N in n_list)
    _refuse_work(points * steps, "two-body-convergence")
    return {
        "potential": potential,
        "n_list": n_list,
        "times": times,
        "sigma": _positive("sigma", params.get("sigma", 1.0)),
        "rmax": rmax,
        "dt": dt,
    }


def _run_two_body(outdir: Path, seed: int, *, potential, n_list, times, sigma, rmax, dt):
    curve = propagators.convergence_experiment(
        potential, n_list, times=tuple(times), sigma=sigma, rmax=rmax, dt=dt
    )
    results = {
        "N_values": curve.N_values,
        "defects": curve.defects,
        "slope": "exact" if curve.exact else curve.fitted_slope,
        "h1_norm": curve.h1_norm,
        "monotone": curve.monotone_decreasing(),
        "times": times,
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


def _read_second_moment(params: dict) -> dict:
    return {
        "potential": _read_potential(params, "second-moment"),
        "samples": _integer("samples", params.get("samples", 10), 1),
        "k_max": _positive("k_max", params.get("k_max", 14.0)),
        "n_k": _integer("n_k", params.get("n_k", 640), 1),
    }


def _run_second_moment(outdir: Path, seed: int, *, potential, samples, k_max, n_k):
    rng = np.random.default_rng(seed)
    transform = scattering.build_transform(potentials.scale(potential, 2), k_max=k_max, n_k=n_k)
    rows = []
    for i in range(samples):
        chi = propagators.CenterProfile(
            widths=tuple(rng.uniform(0.7, 1.5, 3)),
            momenta=tuple(rng.uniform(-1.0, 1.0, 3)),
        )
        g = propagators.gaussian_packet(transform.grid, sigma=float(rng.uniform(0.8, 1.6)))
        res = propagators.second_moment_check(chi, g, potential, transform=transform)
        rows.append((i, res.lhs, res.rhs, res.slack, res.slack / abs(res.lhs)))
    # the first sample of least relative slack
    _, lhs, rhs, slack, worst = min(rows, key=lambda row: row[4])
    results = {
        "N": 2,
        "samples": samples,
        "lhs": lhs,
        "rhs": rhs,
        "slack": slack,
        "min_relative_slack": float(worst),
        "transform_defect": transform.completeness_defect,
    }
    checks = [_check("prop:energ2", worst, -1e-6, worst >= -1e-6)]
    _write_csv(outdir / "second_moment.csv", ["sample", "lhs", "rhs", "slack", "rel_slack"], rows)
    return results, checks


# The eq:infhier control row puts the matched trajectory's residual at this
# multiple of the coupling; its threshold, a ratio >= 10, presumes a clearly
# wrong coupling (the ratio is exactly 1 at a factor of 1).
_WRONG_FACTOR = 2.0


def _read_hierarchy(params: dict) -> dict:
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
    # Beside the finest level's T snapshots of n complex points, the residual sweep
    # holds the r x 2T coordinates of their QR (r = min(n, 2T)), either the 2T
    # pulled-back fields and a field of scratch or six r x r matrices, and a numpy
    # iterator buffer.  Integer arithmetic: each factor is clamped at the memory
    # size, which it alone would exceed, so a huge level count or grid stays finite.
    have = _physical_memory()
    scale = 2 ** min(levels - 1, have.bit_length())
    n = (min(shape["grid"], have) * scale) ** dim
    snapshots = round(min(steps, have)) * scale + 1
    r = min(n, 2 * snapshots)
    sweep = 2 * snapshots * r + max((2 * snapshots + 1) * n, 6 * r * r) + np.getbufsize()
    need = 16 * (snapshots * n + sweep)
    _refuse_beyond(
        have, need, "hierarchy-check needs about {:.3g} GB for the trajectory and residual sweep of its finest level"
    )
    work = 0.0
    for level in (0, *range(levels)):  # the zero-coupling run at level 0, then the ladder
        ds, steps = hierarchy.level_steps(
            level, dim=dim, grid=shape["grid"], box=shape["box"], snapshot_dt=shape["snapshot_dt"]
        )
        work += (shape["grid"] * 2**level) ** dim * steps * round(shape["t_final"] / ds)
    _refuse_work(work, "hierarchy-check")
    return {
        "coupling": _read_coupling(params, 1.0),
        "levels": levels,
        "shape": shape,
    }


def _run_hierarchy(outdir: Path, seed: int, *, coupling, levels, shape):
    results: dict = {}
    coupling = _resolve_coupling(coupling, results)
    study = hierarchy.refinement_study(levels, coupling, **shape)
    res_fine = study["finest_residual"]
    ratio = max(res_fine.differential(_WRONG_FACTOR * coupling)) / max(res_fine.differential_residual)

    zero_traj = hierarchy.build_trajectory(0, coupling=0.0, **shape)
    zero_resid = hierarchy.integral_form_residual(zero_traj, 0.0)[-1]
    columns = ("t", "differential_residual", "integral_residual")
    table = list(zip(res_fine.times, res_fine.differential_residual, res_fine.integral_residual))

    results.update(
        {
            "coupling": coupling,
            "dim": shape["dim"],
            "differential_residuals": study["differential"],
            "integral_residuals": study["integral"],
            "slope_differential": study["slope_differential"],
            "slope_integral": study["slope_integral"],
            "wrong_coupling_ratio": float(ratio),
            "zero_coupling_integral_residual": float(zero_resid),
            "rows": [dict(zip(columns, r)) for r in table],
        }
    )
    checks = [
        _check("eq:infhier", study["slope_differential"], 2.0, study["slope_differential"] >= 2.0),
        _check("eq:BBGKYinf", study["slope_integral"], 2.0, study["slope_integral"] >= 2.0),
        _check("eq:infhier", ratio, 10.0, ratio >= 10.0),
        _check("eq:BBGKYinf", zero_resid, 1e-8, zero_resid <= 1e-8),
    ]
    _write_csv(outdir / "residuals.csv", columns, table)
    return results, checks


def _dilation(key: str, value) -> float:
    """A vl12 alpha: potentials.dilate divides by alpha^3, which must be a normal float."""
    alpha = _positive(key, value)
    lo, hi = sys.float_info.min ** (1 / 3), sys.float_info.max ** (1 / 3)
    if not lo <= alpha <= hi:
        raise ConfigError(f"{key} entries must lie in [{lo:.3g}, {hi:.3g}], where alpha^3 is a normal float, got {value!r}")
    return alpha


def _read_inequality(params: dict) -> dict:
    """The kind's check and its arguments; _run_inequality runs the check."""
    if "kind" not in params:
        raise ConfigError("inequality-check requires a kind")
    kind = _choice("kind", params["kind"], ("int1", "trivv", "vl1", "vl12", "theta"))
    if kind in ("int1", "trivv"):
        default = [0.0, 0.5, 1.0, 2.0, 5.0, 10.0, 20.0, 50.0] if kind == "int1" else [0.0, 1.0, 5.0, 20.0]
        return {
            "check": _int1 if kind == "int1" else _trivv,
            "p_grid": _list("p_grid", params.get("p_grid", default), _finite),
        }
    if kind == "vl1":
        return {
            "check": _vl1,
            "potential": _read_potential(params, "vl1", potentials.soft_sphere(2.0, 1.0)),
            "pairs": _integer("pairs", params.get("pairs", 100), 1),
        }
    if kind == "vl12":
        return {
            "check": _vl12,
            "potential": _read_potential(params, "vl12", potentials.gaussian(1.0, 1.0)),
            "alphas": _list("alphas", params.get("alphas", [0.5 / 2**j for j in range(11)]), _dilation),
        }
    n_particles = _integer("n_particles", params.get("n_particles", 10), 2)
    # clamped at the memory size, which it alone would exceed, so need stays within float range
    have = _physical_memory()
    need = analysis.pair_array_bytes(min(n_particles, have))
    _refuse_beyond(have, need, f"n_particles = {n_particles:.3g} needs at least {{:.3g}} GB of pair arrays")
    k = _integer("k", params.get("k", 3), 1)
    if k >= n_particles:
        raise ConfigError(f"k must be below n_particles = {n_particles}, got {k}")
    n = _integer("n", params.get("n", 1), 1)
    try:
        cutoff = analysis.default_cutoff_config(N=n_particles, k=k, n=n)
    except ValueError as exc:  # a strength 2^n / ell^eps beyond float range
        raise ConfigError(f"invalid theta n: {exc}") from exc
    return {
        "check": _theta,
        "cutoff": cutoff,
        "samples": _integer("samples", params.get("samples", 1000), 100),
    }


def _run_inequality(outdir: Path, seed: int, *, check, **kw):
    return check(outdir, seed, **kw)


def _at_zero(kind: str, p_grid: list, values: list) -> float:
    """The kernel at p = 0: its p_grid value, or computed when p_grid lacks 0."""
    return values[p_grid.index(0.0)] if 0.0 in p_grid else analysis.kernel_integral(kind, 0.0)


def _doubling_change(sup_full: float, sup_half: float) -> float:
    """|sup_full - sup_half| / sup_half: 0 when the sup does not move, inf when it moves off 0."""
    if sup_half:
        return abs(sup_full - sup_half) / sup_half
    return 0.0 if sup_full == 0.0 else math.inf


def _int1(outdir: Path, seed: int, *, p_grid):
    values = [analysis.kernel_integral("int1", p) for p in p_grid]
    v0 = _at_zero("int1", p_grid, values)
    cal = abs(v0 - np.pi**2)
    sup_ok = max(values) <= v0 + 1e-6
    results = {"p_grid": p_grid, "values": values, "calibration_gap": cal}
    checks = [
        _check("eq:int1", cal, 1e-4, cal <= 1e-4),
        _check("eq:int1", max(values) - v0, 1e-6, sup_ok),
    ]
    _write_csv(outdir / "kernel_int1.csv", ["p", "value"], zip(p_grid, values))
    return results, checks


def _trivv(outdir: Path, seed: int, *, p_grid):
    from scipy.special import gamma as _gamma

    values = [analysis.kernel_integral("trivv", p) for p in p_grid]
    v0 = _at_zero("trivv", p_grid, values)
    oracle = float(4.0 * np.pi * (0.5 * _gamma(1.75) * _gamma(0.25) + np.pi / 4.0))
    gap = abs(v0 - oracle)
    results = {"p_grid": p_grid, "values": values, "beta_oracle": oracle}
    _write_csv(outdir / "kernel_trivv.csv", ["p", "value"], zip(p_grid, values))
    return results, [_check("eq:trivv", gap, 1e-4, gap <= 1e-4)]


def _vl1(outdir: Path, seed: int, *, potential, pairs):
    rng = np.random.default_rng(seed)
    ratios = [analysis.vl1_check(potential, analysis.random_pair(rng)) for _ in range(2 * pairs)]
    sup_half = max(ratios[:pairs])
    sup_full = max(ratios)
    change = _doubling_change(sup_full, sup_half)
    bound = float(np.pi**2 / (2.0 * np.pi) ** 3)
    results = {
        "pairs": pairs,
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
    return results, checks


def _vl12(outdir: Path, seed: int, *, potential, alphas):
    pair = analysis.random_pair(np.random.default_rng(seed))
    res = analysis.vl12_rate(potentials.unit_l1(potential), pair, alphas)
    gaps = res["gaps"]
    mono = all(b <= a + 1e-8 for a, b in zip(gaps[:-1], gaps[1:]))
    cfit = gaps[0] / (alphas[0] ** (1.0 / 12.0) * res["form_scale"])
    rate_ok = all(
        g <= cfit * a ** (1.0 / 12.0) * res["form_scale"] * (1 + 1e-9)
        for g, a in zip(gaps, alphas)
    )
    results = {
        "alphas": alphas,
        "gaps": [float(g) for g in gaps],
        "fitted_constant": float(cfit),
        "monotone": mono,
    }
    checks = [
        _check("lm:VL12", 0.0 if mono else 1.0, 0.5, mono),
        _check("lm:VL12", 0.0 if rate_ok else 1.0, 0.5, rate_ok),
    ]
    _write_csv(outdir / "vl12_gaps.csv", ["alpha", "gap"], zip(alphas, gaps))
    return results, checks


def _theta(outdir: Path, seed: int, *, cutoff, samples):
    # the first `samples` of 2 * samples draws are those of a run with `samples` draws
    res = analysis.theta_inequalities(cutoff, samples=2 * samples, seed=seed)
    stab2 = _doubling_change(res["ratio_ii_sup"], max(res["ratio_ii"][:samples]))
    stab3 = _doubling_change(res["ratio_iii_sup"], max(res["ratio_iii"][:samples]))
    mono = res["monotonicity_ok"]
    results = {
        "samples": samples,
        "monotonicity_ok": mono,
        "ratio_ii_sup": res["ratio_ii_sup"],
        "ratio_iii_sup": res["ratio_iii_sup"],
        "stability_ii": stab2,
        "stability_iii": stab3,
    }
    checks = [
        _check("lm:theta", 0.0 if mono else 1.0, 0.5, mono),
        _check("lm:theta", stab2, 0.1, stab2 < 0.1),
        _check("lm:theta", stab3, 0.1, stab3 < 0.1),
    ]
    return results, checks


# task -> (reader, runner): parse_config keeps the reader's output on the RunConfig,
# and run hands it to the runner, which must not mutate it.  A reader takes the config's keys
# (the potential among them) and looks up each key it reads.
_TASKS = {
    "scatter": (_read_scatter, _run_scatter),
    "evolve": (_read_evolve, _run_evolve),
    "groundstate": (_read_groundstate, _run_groundstate),
    "two-body-convergence": (_read_two_body, _run_two_body),
    "second-moment": (_read_second_moment, _run_second_moment),
    "hierarchy-check": (_read_hierarchy, _run_hierarchy),
    "inequality-check": (_read_inequality, _run_inequality),
}
TASKS = tuple(_TASKS)


def run(cfg: RunConfig, outdir: str | Path | None = None) -> Report:
    """Execute one task, write report.json and CSVs, return the Report."""
    outdir = Path(outdir) if outdir is not None else Path(f"{cfg.task}-out")
    outdir.mkdir(parents=True, exist_ok=True)
    start = time.perf_counter()
    try:
        results, checks = _TASKS[cfg.task][1](outdir, cfg.seed, **cfg.arguments)
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
        if args.seed is not None:
            cfg.seed = _integer("seed", args.seed, 0)
    except (ConfigError, OSError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    if cfg.task != args.task:
        print(
            f"config task {cfg.task!r} does not match requested task {args.task!r}",
            file=sys.stderr,
        )
        return 2
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
