"""Config parsing, the task runner, report schema and determinism."""

import contextlib
import json
import os
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import IntegrationWarning

from condensate_lab import analysis as an
from condensate_lab import cli, gp
from condensate_lab import potentials as pot
from condensate_lab import scattering as sc

SOFT_A0 = 1.0 - np.tanh(1.0)
SOFT = {"family": "soft-sphere", "v0": 2.0, "radius": 1.0}

MINIMAL_SCATTER = json.dumps(
    {"task": "scatter", "potential": {"family": "soft-sphere", "v0": 2.0, "radius": 1.0}}
)


def test_parse_minimal_scatter_config():
    cfg = cli.parse_config(MINIMAL_SCATTER)
    assert cfg.task == "scatter"
    assert cfg.seed == 0
    assert cfg.potential["family"] == "soft-sphere"


def test_unknown_task_rejected():
    with pytest.raises(cli.ConfigError, match="unknown task"):
        cli.parse_config(json.dumps({"task": "frobnicate"}))


def test_missing_required_key():
    with pytest.raises(cli.ConfigError, match="requires a potential"):
        cli.parse_config(json.dumps({"task": "scatter"}))


def test_nonpositive_step_rejected():
    with pytest.raises(cli.ConfigError, match="dt must be positive"):
        cli.parse_config(json.dumps({"task": "evolve", "coupling": 1.0, "dt": -1.0}))


def test_bad_json_rejected():
    with pytest.raises(cli.ConfigError, match="not valid JSON"):
        cli.parse_config("{nope")


def test_scatter_report_contents(tmp_path):
    cfg = cli.parse_config(MINIMAL_SCATTER)
    report = cli.run(cfg, tmp_path / "out")
    assert abs(report.results["a0_asym"] - SOFT_A0) < 1e-7
    assert report.passed()
    data = json.loads((tmp_path / "out" / "report.json").read_text())
    assert set(data) == {"task", "config_hash", "results", "checks", "runtime_s"}
    assert all({"anchor", "value", "threshold", "pass"} <= set(c) for c in data["checks"])
    profile = (tmp_path / "out" / "profile.csv").read_text().splitlines()
    assert profile[0] == "r,f"
    assert len(profile) > 1000


@pytest.mark.parametrize("offset", [3e-5, 9e-5, 2e-4])
def test_scatter_rows_pass_exactly_when_value_is_within_threshold(tmp_path, monkeypatch, offset):
    """A phase-route offset between 1e-4 |a0| and 1e-4 (a0 = 0.238) passes eq:LSE, whose
    tolerance is absolute for |a0| < 1, and must print a value within its threshold."""
    real = sc.phase_shift

    def shifted(p, k):
        return real(p, k) - offset * k

    monkeypatch.setattr(sc, "phase_shift", shifted)
    report = cli.run(cli.parse_config(MINIMAL_SCATTER), tmp_path)
    for row in report.checks:
        assert row["pass"] == (row["value"] <= row["threshold"])
    (lse,) = [row for row in report.checks if row["anchor"] == "eq:LSE"]
    assert lse["pass"] == (offset < 1e-4)


def test_evolve_plane_wave_passes(tmp_path):
    cfg = cli.parse_config(
        json.dumps(
            {
                "task": "evolve",
                "coupling": 0.0,
                "dim": 1,
                "grid": 64,
                "dt": 1e-3,
                "t_final": 0.2,
                "snapshots": 2,
                "initial": {"type": "plane-wave", "amplitude": 1.0, "mode": [1]},
            }
        )
    )
    report = cli.run(cfg, tmp_path / "out")
    assert report.passed()
    assert report.results["plane_wave_phase_error"] < 1e-6


def test_evolve_memory_does_not_grow_with_snapshots(tmp_path):
    # 200 one-step snapshots of a 16^3 field: the run observes each snapshot
    # as it comes, so only a few fields are alive at once, not all 201
    doc = {"task": "evolve", "dim": 3, "grid": 16, "initial": {"type": "cosine"}, "dt": 1e-3, "t_final": 0.2, "snapshots": 200}
    cfg = cli.parse_config(json.dumps(doc))
    field = 16 * 16**3
    tracemalloc.start()
    try:
        report = cli.run(cfg, tmp_path / "out")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.passed()
    assert peak < 20 * field, peak


def test_zero_potential_scatter_takes_the_general_path(tmp_path):
    doc = {"task": "scatter", "potential": {"family": "zero"}}
    report = cli.run(cli.parse_config(json.dumps(doc)), tmp_path)
    assert report.passed()
    route = report.results["phase_shift_route"]
    assert route == 0.0 and np.copysign(1.0, route) == 1.0


def test_reports_are_deterministic(tmp_path):
    cfg_text = json.dumps(
        {
            "task": "inequality-check",
            "kind": "theta",
            "samples": 100,
            "seed": 3,
        }
    )
    r1 = cli.run(cli.parse_config(cfg_text), tmp_path / "a")
    r2 = cli.run(cli.parse_config(cfg_text), tmp_path / "b")
    a = json.loads((tmp_path / "a" / "report.json").read_text())
    b = json.loads((tmp_path / "b" / "report.json").read_text())
    # byte-identical apart from the wall-clock field
    a["runtime_s"] = b["runtime_s"] = 0.0
    assert cli.canonical_json(a) == cli.canonical_json(b)
    assert r1.config_hash == r2.config_hash


@pytest.mark.parametrize("path", sorted((Path(__file__).parents[1] / "configs").glob("*.json")), ids=lambda p: p.stem)
def test_one_parsed_config_runs_twice_alike(tmp_path, path):
    # run hands the reader's arguments to the runner, so no runner may change them
    cfg = cli.parse_config(path.read_text())
    a, b = (cli.run(cfg, tmp_path / out).as_dict() for out in "ab")
    a["runtime_s"] = b["runtime_s"] = 0.0
    assert cli.canonical_json(a) == cli.canonical_json(b)


def test_a_table_rewritten_after_parsing_does_not_change_the_run(tmp_path):
    path = tmp_path / "v.csv"
    path.write_text("0.0,2.0\n0.5,2.0\n1.0,2.0\n")
    doc = json.dumps({"task": "scatter", "potential": {"family": "tabulated", "path": str(path)}})
    cfg = cli.parse_config(doc)
    before = cli.run(cfg, tmp_path / "a").results
    path.write_text("0.0,1.0\n2.0,1.0\n")
    assert cli.run(cfg, tmp_path / "b").results == before
    assert cli.run(cli.parse_config(doc), tmp_path / "c").results != before


def test_main_exit_codes(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(MINIMAL_SCATTER)
    assert cli.main(["scatter", "--config", str(cfg_path), "--out", str(tmp_path / "o1")]) == 0
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"task": "frobnicate"}))
    assert cli.main(["scatter", "--config", str(bad)]) == 2
    mismatch = cli.main(["evolve", "--config", str(cfg_path)])
    assert mismatch == 2


def test_tabulated_soft_sphere_passes_like_the_soft_sphere(tmp_path):
    # the table's nonzero last sample is a jump to 0 that the radial grids must meet
    table = {"family": "tabulated", "r": [0.0, 0.5, 1.0], "v": [2.0, 2.0, 2.0]}
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"task": "scatter", "potential": table}))
    assert cli.main(["scatter", "--config", str(cfg_path), "--out", str(tmp_path / "o")]) == 0
    tab = json.loads((tmp_path / "o" / "report.json").read_text())["results"]["a0_asym"]
    soft = cli.run(cli.parse_config(MINIMAL_SCATTER), tmp_path / "soft").results["a0_asym"]
    assert tab == pytest.approx(soft, rel=1e-9)


@pytest.mark.parametrize(
    "potential",
    [
        {"family": "gaussian", "v0": 2.0},
        [],
        {"family": "soft-sphere", "v0": -1.0, "radius": 1.0},
        {"family": "gaussian", "v0": "2", "width": 1.0},
        {"family": "tabulated", "path": 0},
        {"family": "tabulated", "path": "no-such-file.csv"},
        {"family": "gaussian", "v0": float("nan"), "width": 1.0},
        {"family": "soft-sphere", "v0": 2.0, "radius": float("inf")},
        {"family": "tabulated", "r": [0.5, float("inf")], "v": [1.0, 0.0]},
        {"family": "tabulated", "r": [0.5, 1.0], "v": [1.0, 0.0], "sigma": float("nan")},
        {"family": "tabulated", "r": [-0.5, 1.0], "v": [1.0, 0.0]},
        {"family": "tabulated", "r": [], "v": []},
    ],
)
def test_malformed_potential_is_config_error(tmp_path, potential):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"task": "scatter", "potential": potential}))
    with pytest.raises(cli.ConfigError, match="invalid potential"):
        cli.parse_config(cfg_path.read_text())
    assert cli.main(["scatter", "--config", str(cfg_path), "--out", str(tmp_path / "o")]) == 2


@pytest.mark.parametrize(
    "doc",
    [
        {"task": "hierarchy-check", "levels": 1},
        {"task": "hierarchy-check", "grid": "abc"},
        {"task": "hierarchy-check", "dim": 4},
        {"task": "hierarchy-check", "box": 0},
        {"task": "hierarchy-check", "t_final": float("nan")},
        {"task": "hierarchy-check", "t_final": 0.1},
        {"task": "hierarchy-check", "amp_cos": "x"},
        {"task": "evolve", "coupling": 1.0, "grid": "abc"},
        {"task": "evolve", "coupling": 1.0, "grid": 1},
        {"task": "evolve", "coupling": 1.0, "grid": 32.5},
        {"task": "evolve", "coupling": 1.0, "dim": 2, "grid": [32, 32, 32]},
        {"task": "evolve", "coupling": 1.0, "dim": 4},
        {"task": "evolve", "coupling": 1.0, "dim": True},
        {"task": "evolve", "coupling": 1.0, "box": -1.0},
        {"task": "evolve", "coupling": 1.0, "dim": 2, "box": [1.0, float("inf")]},
        {"task": "evolve", "coupling": 1.0, "t_final": 0},
        {"task": "evolve", "coupling": 1.0, "snapshots": 0},
        {"task": "groundstate", "trap": "harmonic", "dim": 3, "grid": [48]},
        {"task": "groundstate", "trap": "harmonic", "dim": "3"},
        {"task": "groundstate", "trap": "harmonic", "box": 10**400},
    ],
)
def test_malformed_grid_shape_is_config_error(tmp_path, doc):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(doc))
    with pytest.raises(cli.ConfigError):
        cli.parse_config(cfg_path.read_text())
    assert cli.main([doc["task"], "--config", str(cfg_path), "--out", str(tmp_path / "o")]) == 2


def test_hierarchy_refuses_kernels_beyond_physical_memory(tmp_path):
    # finest level 1600^3 grid points, and a ladder of 2^1999 points per axis:
    # their trajectories alone exceed any machine's memory
    for doc in ({"task": "hierarchy-check", "dim": 3, "grid": 400}, {"task": "hierarchy-check", "levels": 2000}):
        start = time.perf_counter()
        with pytest.raises(cli.ConfigError, match=r"needs about [0-9.e+]+ GB .* physical memory is [0-9.e+]+ GB"):
            cli.parse_config(json.dumps(doc))
        assert time.perf_counter() - start < 1.0
        cfg_path = tmp_path / "big.json"
        cfg_path.write_text(json.dumps(doc))
        assert cli.main(["hierarchy-check", "--config", str(cfg_path), "--out", str(tmp_path / "o")]) == 2


def test_hierarchy_ladder_runs_in_three_dimensions(tmp_path):
    cfg_path = tmp_path / "d3.json"
    cfg_path.write_text(json.dumps({"task": "hierarchy-check", "dim": 3, "grid": 8, "levels": 2}))
    assert cli.main(["hierarchy-check", "--config", str(cfg_path), "--out", str(tmp_path / "o")]) in (0, 1)
    report = json.loads((tmp_path / "o" / "report.json").read_text())
    assert report["results"]["dim"] == 3
    slopes = [c for c in report["checks"] if c["threshold"] == 2.0]
    assert len(slopes) == 2 and all(np.isfinite(c["value"]) for c in slopes)
    assert (tmp_path / "o" / "residuals.csv").exists()


def test_main_reports_failed_check(tmp_path):
    # a visibly under-resolved evolution: energy drift above threshold
    cfg_path = tmp_path / "drift.json"
    cfg_path.write_text(
        json.dumps(
            {
                "task": "evolve",
                "coupling": 5.0,
                "dim": 1,
                "grid": 32,
                "dt": 2.5e-2,
                "t_final": 1.0,
                "snapshots": 4,
                "initial": {"type": "cosine", "amplitude": 0.8},
            }
        )
    )
    code = cli.main(["evolve", "--config", str(cfg_path), "--out", str(tmp_path / "o2")])
    assert code == 1


def test_seed_override(tmp_path):
    cfg_path = tmp_path / "cfg.json"

    def main(doc, seed):
        cfg_path.write_text(json.dumps({"task": "inequality-check", "seed": 1, **doc}))
        return cli.main(["inequality-check", "--config", str(cfg_path), "--out", str(tmp_path / "o3"), "--seed", seed])

    assert main({"kind": "int1", "p_grid": [0.0, 1.0]}, "9") == 0
    assert json.loads((tmp_path / "o3" / "report.json").read_text())["config_hash"] == cli.config_hash(
        cli.RunConfig("inequality-check", 9, None, {"kind": "int1", "p_grid": [0.0, 1.0]})
    )
    # the option takes the config's rule, on unseeded (int1) and seeded (theta) tasks alike
    assert main({"kind": "int1", "p_grid": [0.0, 1.0]}, "-1") == 2
    assert main({"kind": "theta"}, "-1") == 2


def _coupling(rule, out):
    """The value of an evolve config's coupling, through its reader."""
    cfg = cli.parse_config(json.dumps({"task": "evolve", "coupling": rule}))
    return cli._resolve_coupling(cfg.arguments["coupling"], out)


def test_coupling_rules():
    out = {}
    g = _coupling(
        {"mode": "scattering-length", "potential": {"family": "soft-sphere", "v0": 2.0, "radius": 1.0}},
        out,
    )
    assert abs(g - 8.0 * np.pi * SOFT_A0) < 1e-6
    assert abs(out["a0"] - SOFT_A0) < 1e-7
    g_born = _coupling({"mode": "born", "potential": {"family": "gaussian", "v0": 1.0, "width": 1.0}}, {})
    assert abs(g_born - np.pi**1.5) < 1e-14 * np.pi**1.5
    assert g < g_born * 8 * np.pi  # sanity: both positive couplings
    assert _coupling(2, {}) == 2.0


def test_default_dt_matches_the_grid_spectrum():
    # the evolve reader's default dt against the full gp.Field.k_squared grid; no
    # coupling and no potential: the documented default g = 0
    for shape, box in (((64,), (2 * np.pi,)), ((33, 48), (3.0, 7.5)), ((8, 9, 10), (1.0, 2.0, 12.0))):
        doc = {"task": "evolve", "dim": len(shape), "grid": list(shape), "box": list(box)}
        kw = cli.parse_config(json.dumps(doc)).arguments
        assert kw["coupling"] == 0.0
        dt = kw["dt"]
        k2 = float(np.max(gp.Field(np.zeros(shape), box).k_squared()))
        t_snap = 1.0 / 10
        ref = min(1e-3, 0.8 * np.pi / k2)
        assert dt == t_snap / int(np.ceil(t_snap / ref - 1e-12))


@pytest.mark.parametrize(
    "doc",
    [
        {"task": "second-moment", "potential": SOFT, "samples": "abc"},
        {"task": "second-moment", "potential": SOFT, "samples": 0},
        {"task": "two-body-convergence", "potential": SOFT, "n_list": [8, 16]},
        {"task": "inequality-check", "kind": "theta", "samples": 10},
        {"task": "inequality-check", "kind": "theta", "k": 10},
        {"task": "inequality-check", "kind": "nope"},
        {"task": "evolve", "coupling": {"mode": "born", "potential": {"family": "gaussian", "width": 1.0}}},
        {"task": "evolve", "coupling": -1},
        {"task": "evolve", "coupling": 1.0, "initial": {"type": "plane-wave", "mode": [1, 1, 1]}},
        {"task": "evolve", "coupling": 1.0, "initial": {"type": "plane-wave", "amplitude": 0.0}},
        # a nonzero amplitude whose mass |A|^2 L underflows to 0
        {"task": "evolve", "coupling": 0.0, "initial": {"type": "plane-wave", "mode": [0], "amplitude": 1e-200}},
        {"task": "scatter", "potential": SOFT, "seed": True},
        {"task": "inequality-check", "kind": "vl1", "pairs": 0},
        {"task": "groundstate", "coupling": 1.0, "trap": "box"},
        {"task": "scatter", "potential": SOFT, "phase_probe_k": -1},
        # a time that is no multiple of dt, and t / dt beyond float range
        {"task": "two-body-convergence", "potential": SOFT, "times": [0.00025]},
        {"task": "two-body-convergence", "potential": SOFT, "times": [1e300], "dt": 1e-300},
        # integers beyond float range, which the runners take to float
        {"task": "two-body-convergence", "potential": SOFT, "n_list": [8, 16, 32, 10**400]},
        {"task": "inequality-check", "kind": "theta", "n_particles": 10**400},
        # within float range, but the finest radial grid and the pair arrays exceed any memory
        {"task": "two-body-convergence", "potential": SOFT, "n_list": [8, 16, 32, 10**200]},
        {"task": "inequality-check", "kind": "theta", "n_particles": 10**200},
    ],
)
def test_malformed_task_key_is_config_error(tmp_path, doc):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(doc))
    with pytest.raises(cli.ConfigError):
        cli.parse_config(cfg_path.read_text())
    assert cli.main([doc["task"], "--config", str(cfg_path), "--out", str(tmp_path / "o")]) == 2


def _refused_within_a_second(tmp_path, doc, match):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(doc))
    with pytest.raises(cli.ConfigError, match=match):
        cli.parse_config(cfg_path.read_text())
    start = time.perf_counter()
    assert cli.main([doc["task"], "--config", str(cfg_path), "--out", str(tmp_path / "o")]) == 2
    assert time.perf_counter() - start < 1.0


@pytest.mark.parametrize(
    "doc, key",
    [
        # retired keys, each at its former default
        ({"task": "scatter", "potential": SOFT, "phase_probe_k": 1e-3}, "phase_probe_k"),
        ({"task": "scatter", "potential": SOFT, "mapping_norm_diagnostic": False}, "mapping_norm_diagnostic"),
        ({"task": "evolve", "density_slice": False}, "density_slice"),
        ({"task": "groundstate", "trap": "harmonic", "dtau": 0.02}, "dtau"),
        ({"task": "groundstate", "trap": "harmonic", "tol": 1e-10}, "tol"),
        ({"task": "hierarchy-check", "wrong_factor": 2.0}, "wrong_factor"),
        # typos, and keys the task or object does not read
        ({"task": "evolve", "snapshot": 3}, "snapshot"),
        ({"task": "evolve", "initial": {"type": "cosine", "amplitud": 0.2}}, "initial key: 'amplitud'"),
        ({"task": "scatter", "potential": {"family": "gaussian", "v0": 1.0, "width": 1.0, "radius": 1.0}}, "radius"),
        ({"task": "evolve", "potential": SOFT}, "evolve key: 'potential'"),
        ({"task": "evolve", "coupling": {"mode": "born", "potential": SOFT, "v0": 1.0}}, "coupling key: 'v0'"),
        ({"task": "evolve", "coupling": {"potential": {"family": "zero", "v0": 1.0}}}, "coupling potential key"),
        ({"task": "inequality-check", "kind": "int1", "pairs": 10}, "pairs"),
        ({"task": "inequality-check", "kind": "int1", "potential": SOFT}, "potential"),
    ],
)
def test_a_key_no_reader_reads_is_config_error(tmp_path, doc, key):
    _refused_within_a_second(tmp_path, doc, f"unknown .*{key}")


@pytest.mark.parametrize(
    "doc",
    [
        # a default dt of 3.9e-12 on the 256-point grid: 2.6e11 Strang steps
        {"task": "evolve", "box": 0.001},
        # 8e8 Strang steps per snapshot on level 0 alone
        {"task": "hierarchy-check", "box": 0.001},
        {"task": "evolve", "dt": 1e-300},
        {"task": "two-body-convergence", "potential": SOFT, "dt": 1e-300, "times": [0.25]},
    ],
)
def test_a_run_beyond_the_work_budget_is_config_error(tmp_path, doc):
    _refused_within_a_second(tmp_path, doc, "grid points x solver steps; the budget is")


def test_the_sample_configs_fit_a_hundredth_of_the_work_budget(monkeypatch):
    root = Path(__file__).parents[1]
    paths = [*(root / "configs").glob("*.json"), *(root / "perfbench" / "configs").glob("*.json")]
    assert len(paths) == 13
    monkeypatch.setattr(cli, "_WORK_BUDGET", cli._WORK_BUDGET / 100)
    for path in paths:
        cli.parse_config(path.read_text())


@pytest.mark.parametrize(
    "doc",
    [
        {"task": "evolve", "dim": 2, "grid": [12, 10], "dt": 2e-3, "t_final": 0.1, "snapshots": 3,
         "initial": {"type": "cosine"}},
        {"task": "hierarchy-check", "grid": 32, "levels": 2, "t_final": 0.2},
        {"task": "hierarchy-check", "dim": 2, "grid": 6, "levels": 2, "t_final": 0.2},
    ],
)
def test_the_work_count_is_the_strang_site_steps_a_run_takes(tmp_path, monkeypatch, doc):
    # the reader's count is exact: a budget one site-step short refuses the config
    evolve, taken = gp.gp_evolve, []

    def counted(f, cfg, t):
        taken.append(f.values.size * int(round(t / cfg.dt)))
        return evolve(f, cfg, t)

    monkeypatch.setattr(gp, "gp_evolve", counted)
    cli.run(cli.parse_config(json.dumps(doc)), tmp_path)
    monkeypatch.setattr(cli, "_WORK_BUDGET", sum(taken))
    cli.parse_config(json.dumps(doc))
    monkeypatch.setattr(cli, "_WORK_BUDGET", sum(taken) - 1)
    with pytest.raises(cli.ConfigError, match="budget"):
        cli.parse_config(json.dumps(doc))


@pytest.mark.parametrize("coupling", [0.0, {"mode": "born", "potential": {"family": "zero"}}])
def test_zero_energy_state_evolves_with_absolute_energy_drift(tmp_path, coupling):
    # a constant state at g = 0 has E = 0, so its energy drift cannot be relative
    doc = {"task": "evolve", "coupling": coupling, "initial": {"type": "plane-wave", "mode": [0]}}
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(doc))
    assert cli.main(["evolve", "--config", str(cfg_path), "--out", str(tmp_path / "o")]) == 0
    results = json.loads((tmp_path / "o" / "report.json").read_text())["results"]
    assert results["energy_initial"] == 0.0 and results["energy_drift"] == 0.0


@pytest.mark.parametrize(
    "doc, code",
    [
        # Theta underflows to 0 on many draws, and no ratio divides by it
        ({"kind": "theta", "n": 8}, 0),
        # 2.0 ** n overflows: refused at parse time
        ({"kind": "theta", "n": 1100}, 2),
        # every ratio is 0, so the sup does not move under doubling
        ({"kind": "vl1", "potential": {"family": "zero"}}, 0),
        # the integrands overflow and the quadrature reports it, with a warning
        ({"kind": "int1", "p_grid": [1e153]}, 1),
        ({"kind": "trivv", "p_grid": [1e300]}, 1),
        # alpha^3 overflows or underflows: refused at parse time
        ({"kind": "vl12", "alphas": [1e200]}, 2),
        ({"kind": "vl12", "alphas": [1e-200]}, 2),
    ],
)
def test_inequality_extremes_end_with_an_exit_code(tmp_path, doc, code):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"task": "inequality-check", **doc}))
    quad = doc["kind"] in ("int1", "trivv")
    with pytest.warns(IntegrationWarning) if quad else contextlib.nullcontext():
        assert cli.main(["inequality-check", "--config", str(cfg_path), "--out", str(tmp_path / "o")]) == code


_json = st.recursive(
    st.none()
    | st.booleans()
    | st.integers(-(10**400), 10**400)
    | st.floats(allow_nan=True, allow_infinity=True)
    | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=6), inner, max_size=4),
    max_leaves=12,
)
_values = (
    _json
    | st.floats(-2.0, 3.0)
    | st.sampled_from([float("nan"), float("inf"), -float("inf")])
    | st.lists(st.floats(-1.0, 3.0) | st.floats(allow_nan=True, allow_infinity=True), max_size=5)
)
# each family with its own keys, and any family with any potential keys
_potentials = _json | st.one_of(
    st.fixed_dictionaries({"family": st.just("zero")}),
    st.fixed_dictionaries({"family": st.just("soft-sphere"), "v0": _values, "radius": _values}),
    st.fixed_dictionaries({"family": st.just("gaussian"), "v0": _values, "width": _values}),
    st.fixed_dictionaries({"family": st.just("tabulated"), "r": _values, "v": _values}, optional={"sigma": _values}),
    st.fixed_dictionaries(
        {"family": st.sampled_from(["zero", "soft-sphere", "gaussian", "tabulated", "other"])},
        optional={key: _values for key in ("v0", "radius", "width", "r", "v", "sigma", "path")},
    ),
)
_counts = _json | st.integers(-2, 5) | st.lists(st.integers(-2, 64) | _json, max_size=4)
_lengths = (
    _json
    | st.floats(-1.0, 10.0)
    | st.sampled_from([float("nan"), float("inf"), 10**400])
    | st.lists(st.floats(-1.0, 10.0) | _json, max_size=4)
)
_seeds = _json | st.integers(0, 2**64)
_couplings = (
    _json
    | st.floats(0.0, 5.0)
    | st.fixed_dictionaries(
        {}, optional={"mode": st.sampled_from(["scattering-length", "born", "x"]), "potential": _potentials}
    )
)
_initials = _json | st.fixed_dictionaries(
    {"type": st.sampled_from(["plane-wave", "gaussian", "cosine", "other"])},
    optional={"mode": _counts, "amplitude": _lengths, "width": _lengths},
)
_gp_keys = {
    "dim": _counts,
    "grid": _counts,
    "box": _lengths,
    "coupling": _couplings,
    "trap": _json | st.just("harmonic"),
    "initial": _initials,
}
# the keys each task's reader reads, and those of each inequality kind
_task_keys = {
    "scatter": {"potential": _potentials},
    "evolve": {**_gp_keys, "dt": _lengths, "t_final": _lengths, "snapshots": _counts},
    "groundstate": _gp_keys,
    "two-body-convergence": {
        "potential": _potentials,
        "n_list": _counts,
        "times": _lengths,
        "sigma": _lengths,
        "rmax": _lengths,
        "dt": _lengths,
    },
    "second-moment": {"potential": _potentials, "samples": _counts, "k_max": _lengths, "n_k": _counts},
    "hierarchy-check": {
        "coupling": _couplings,
        **{key: _counts for key in ("dim", "grid", "levels")},
        **{key: _lengths for key in ("box", "snapshot_dt", "t_final", "amp_cos", "amp_sin")},
    },
}
_kind_keys = {
    "int1": {"p_grid": _lengths},
    "trivv": {"p_grid": _lengths},
    "vl1": {"potential": _potentials, "pairs": _counts},
    "vl12": {"potential": _potentials, "alphas": _lengths},
    "theta": {"n_particles": _counts, "k": _counts, "n": _counts, "samples": _counts | st.integers(90, 110)},
}
_documents = st.one_of(
    *(
        st.fixed_dictionaries({"task": st.just(task)}, optional={"seed": _seeds, **keys})
        for task, keys in _task_keys.items()
    ),
    *(
        st.fixed_dictionaries(
            {"task": st.just("inequality-check"), "kind": st.just(kind)}, optional={"seed": _seeds, **keys}
        )
        for kind, keys in _kind_keys.items()
    ),
    # any task with foreign keys, the retired ones among them
    st.fixed_dictionaries(
        {"task": st.sampled_from(cli.TASKS) | _json},
        optional={key: _json for key in ("kind", "snapshot", "wrong_factor", "phase_probe_k", "tol", "potential")},
    ),
)


@settings(max_examples=200, deadline=None)
@given(_documents | _json)
def test_parse_config_raises_only_config_error(doc):
    try:
        cfg = cli.parse_config(json.dumps(doc))
    except cli.ConfigError:
        return
    assert cfg.task in cli.TASKS
    if cfg.potential is not None:
        p = pot.from_config(cfg.potential)
        assert all(np.isfinite(v) for v in (p.amplitude, p.rate, p.profile_l1, *p.knots))
        assert not np.isnan(p.sigma)
    # the runner's arguments, as the reader made them
    kw = cfg.arguments
    if cfg.task in ("evolve", "groundstate"):
        shape, box = kw["shape"], kw["box"]
        assert len(shape) == len(box) in (1, 2, 3)
        assert all(M >= 2 for M in shape) and all(0 < L < np.inf for L in box)
        assert kw["initial"]["type"] in ("plane-wave", "gaussian", "cosine")
    if cfg.task == "evolve":
        assert 0 < kw["dt"] <= kw["t_final"] / kw["snapshots"]
    if cfg.task == "hierarchy-check":
        assert kw["levels"] >= 2 and kw["shape"]["dim"] in (1, 2, 3) and kw["shape"]["grid"] >= 2


def test_importing_the_cli_skips_quadrature_and_interpolation(tmp_path):
    # after the import, and again after the benchmarked scatter and coupled GP configs
    # and the two pairing configs run
    code = """
import sys
from pathlib import Path
from condensate_lab import cli
print([m for m in ('scipy.integrate', 'scipy.interpolate') if m in sys.modules])
for path in sys.argv[2:]:
    cli.run(cli.parse_config(Path(path).read_text()), Path(sys.argv[1]) / Path(path).stem)
print([m for m in ('scipy.integrate', 'scipy.interpolate') if m in sys.modules])
"""
    names = ("scatter.json", "evolve_gp_coupling.json", "inequality_vl1.json", "inequality_vl12.json")
    configs = [str(Path(__file__).parents[1] / "configs" / name) for name in names]
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])}
    out = subprocess.run(
        [sys.executable, "-c", code, str(tmp_path), *configs], capture_output=True, text=True, env=env, check=True
    )
    assert out.stdout.split() == ["[]", "[]"]


def test_trivv_compares_the_oracle_at_p_zero(tmp_path):
    for p_grid in ([1.0, 0.0], [1.0, 5.0]):
        cfg = cli.parse_config(json.dumps({"task": "inequality-check", "kind": "trivv", "p_grid": p_grid}))
        report = cli.run(cfg, tmp_path / "o")
        assert report.passed(), report.checks
        assert report.results["values"][0] != pytest.approx(report.results["beta_oracle"], abs=1e-4)


def test_trivv_fails_a_wrong_kernel(tmp_path, monkeypatch):
    kernel = an.kernel_integral
    monkeypatch.setattr(an, "kernel_integral", lambda kind, p: kernel(kind, p) * (1.0 + 1e-3))
    for p_grid in ([1.0, 0.0], [1.0, 5.0]):
        cfg = cli.parse_config(json.dumps({"task": "inequality-check", "kind": "trivv", "p_grid": p_grid}))
        assert not cli.run(cfg, tmp_path / "o").passed()


def test_theta_one_pass_matches_runs_at_n_and_2n(tmp_path):
    # one run of 2 x samples draws gives the stability values of two separate
    # runs of samples and 2 x samples draws, to the last bit
    for n in (1, 2):
        doc = {"task": "inequality-check", "kind": "theta", "n": n, "samples": 100, "seed": 3}
        report = cli.run(cli.parse_config(json.dumps(doc)), tmp_path / f"n{n}")
        cfg = an.default_cutoff_config(N=10, k=3, n=n)
        r1 = an.theta_inequalities(cfg, samples=100, seed=3)
        r2 = an.theta_inequalities(cfg, samples=200, seed=3)
        for ratio in ("ratio_ii", "ratio_iii"):
            sup1, sup2 = r1[f"{ratio}_sup"], r2[f"{ratio}_sup"]
            assert report.results[f"{ratio}_sup"] == sup2
            assert report.results[ratio.replace("ratio", "stability")] == abs(sup2 - sup1) / sup1
        assert report.results["monotonicity_ok"] == (r1["monotonicity_ok"] and r2["monotonicity_ok"])
