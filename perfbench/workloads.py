"""Workload definitions: which configs each workload runs, and what the gate compares.

Every config is a sample config from ``configs/`` except ``evolve_d3_cosine``,
which lives in ``perfbench/configs/`` and evolves the acceptance battery's
48^3 cosine state for 100 Strang steps.
"""

from __future__ import annotations

from pathlib import Path

WORKLOADS = {
    # two-body radial stack: CN defects, RK4 transform build, zero-energy solve
    "radial": ("scatter", "second_moment", "two_body_convergence"),
    # split-step GP on large grids and imaginary-time descent
    "condensate": (
        "evolve_gp_coupling",
        "evolve_plane_wave",
        "groundstate_harmonic",
        "evolve_d3_cosine",
    ),
    # Duhamel residuals over many short 1-d GP trajectories
    "hierarchy": ("hierarchy_check",),
    # pair-cutoff Theta evaluations and quad-driven pairings.  Not listed in
    # BENCHMARK.json: its wall time is too unsteady on a shared 2-vCPU host,
    # and its seeded sampled-sup checks fail at some seeds (README.md).
    "inequality": (
        "inequality_int1",
        "inequality_theta",
        "inequality_trivv",
        "inequality_vl1",
        "inequality_vl12",
    ),
}

# RNG-driven configs: their config seed is offset by the benchmark seed.
# Their headline results depend on the seed, so they are compared with
# reference.json only at DEFAULT_SEED; their check rows always apply.
SEEDED = frozenset({"second_moment", "inequality_theta", "inequality_vl1", "inequality_vl12"})

DEFAULT_SEED = 0

# Headline results compared with reference.json.  Roundoff-level diagnostics
# (drifts, identity gaps, completeness defect, phase error) are left to the
# report's own check rows, and so are values computed from the config alone
# (the plane-wave dispersion, the trivv closed form).
HEADLINE = {
    "scatter": ("a0_asym", "a0_int", "born_upper_bound", "phase_shift_route"),
    "second_moment": ("lhs", "rhs", "slack", "min_relative_slack"),
    "two_body_convergence": ("defects", "slope", "h1_norm"),
    "evolve_gp_coupling": ("a0", "coupling", "energy_initial", "energy_final"),
    "evolve_plane_wave": ("energy_initial", "energy_final"),
    "groundstate_harmonic": ("energy",),
    "evolve_d3_cosine": ("energy_initial", "energy_final"),
    "hierarchy_check": (
        "differential_residuals",
        "integral_residuals",
        "slope_differential",
        "slope_integral",
        "wrong_coupling_ratio",
    ),
    "inequality_int1": ("values",),
    "inequality_theta": ("ratio_ii_sup", "ratio_iii_sup"),
    "inequality_trivv": ("values",),
    "inequality_vl1": ("ratio_sup", "ratio_sup_half"),
    "inequality_vl12": ("gaps", "fitted_constant"),
}

BENCH_DIR = Path(__file__).resolve().parent


def config_path(root: Path, name: str) -> Path:
    own = BENCH_DIR / "configs" / f"{name}.json"
    return own if own.exists() else root / "configs" / f"{name}.json"


def load_configs(cli, root: Path, workload: str, seed: int) -> list:
    """Parse the workload's configs and apply the benchmark seed."""
    out = []
    for name in WORKLOADS[workload]:
        cfg = cli.parse_config(config_path(root, name).read_text())
        if name in SEEDED:
            cfg.seed += seed
        out.append((name, cfg))
    return out
