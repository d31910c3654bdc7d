"""Config parsing, the task runner, report schema and determinism."""

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


def test_round_trip_parse_serialize():
    cfg = cli.parse_config(MINIMAL_SCATTER)
    text = cli.serialize_config(cfg)
    cfg2 = cli.parse_config(text)
    assert cfg2 == cfg
    assert cli.config_hash(cfg2) == cli.config_hash(cfg)


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
        ps = real(p, k)
        return sc.PhaseShift(k=ps.k, delta0=ps.delta0 - offset * ps.k)

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


def test_density_slice_is_the_central_slice_of_the_final_density(tmp_path):
    doc = {"task": "evolve", "dim": 2, "grid": [32, 24], "coupling": 1.0, "t_final": 0.1, "snapshots": 2,
           "initial": {"type": "cosine"}}
    for on in (False, True):
        cli.run(cli.parse_config(json.dumps({**doc, "density_slice": on})), tmp_path / str(on))
        assert (tmp_path / str(on) / "density.csv").exists() == on
    kw = cli._arguments(cli.parse_config(json.dumps(doc)))
    f = cli._field_from_init(kw["shape"], kw["box"], kw["initial"])
    cfg = gp.GPConfig(coupling=1.0, dt=kw["dt"])
    for _ in range(2):
        f = gp.gp_evolve(f, cfg, 0.05)
    rows = np.loadtxt(tmp_path / "True" / "density.csv", delimiter=",", skiprows=1)
    np.testing.assert_array_equal(rows[:, 0], f.axes()[-1])
    np.testing.assert_array_equal(rows[:, 1], np.abs(f.values[16]) ** 2)


def test_mapping_norm_diagnostic_reports_a_finite_ratio(tmp_path):
    for on in (False, True):
        doc = {"task": "scatter", "potential": SOFT, "mapping_norm_diagnostic": on}
        report = cli.run(cli.parse_config(json.dumps(doc)), tmp_path / str(on))
        assert ("l1_mapping_ratio" in report.results) == on
    assert np.isfinite(report.results["l1_mapping_ratio"])


def test_zero_potential_scatter_takes_the_general_path(tmp_path):
    doc = {"task": "scatter", "potential": {"family": "zero"}, "mapping_norm_diagnostic": True}
    report = cli.run(cli.parse_config(json.dumps(doc)), tmp_path)
    assert report.passed()
    route = report.results["phase_shift_route"]
    assert route == 0.0 and np.copysign(1.0, route) == 1.0
    assert abs(report.results["l1_mapping_ratio"] - 1.0) < 1e-9


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
    return cli._resolve_coupling(cli._arguments(cfg)["coupling"], out)


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
    # the evolve reader's closed-form Nyquist |k|^2 against gp.Field.k_squared; no
    # coupling and no potential: the documented default g = 0
    for shape, box in (((64,), (2 * np.pi,)), ((33, 48), (3.0, 7.5)), ((8, 9, 10), (1.0, 2.0, 12.0))):
        doc = {"task": "evolve", "dim": len(shape), "grid": list(shape), "box": list(box)}
        kw = cli._arguments(cli.parse_config(json.dumps(doc)))
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


@pytest.mark.parametrize("coupling", [0.0, {"mode": "born", "potential": {"family": "zero"}}])
def test_zero_energy_state_evolves_with_absolute_energy_drift(tmp_path, coupling):
    # a constant state at g = 0 has E = 0, so its energy drift cannot be relative
    doc = {"task": "evolve", "coupling": coupling, "initial": {"type": "plane-wave", "mode": [0]}}
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(doc))
    assert cli.main(["evolve", "--config", str(cfg_path), "--out", str(tmp_path / "o")]) == 0
    results = json.loads((tmp_path / "o" / "report.json").read_text())["results"]
    assert results["energy_initial"] == 0.0 and results["energy_drift"] == 0.0


_json = st.recursive(
    st.none()
    | st.booleans()
    | st.integers(-(10**400), 10**400)
    | st.floats(allow_nan=True, allow_infinity=True)
    | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=6), inner, max_size=4),
    max_leaves=12,
)
_potentials = _json | st.fixed_dictionaries(
    {"family": st.sampled_from(["zero", "soft-sphere", "gaussian", "tabulated", "other"])},
    optional={
        key: _json
        | st.floats(-2.0, 3.0)
        | st.sampled_from([float("nan"), float("inf"), -float("inf")])
        | st.lists(st.floats(-1.0, 3.0) | st.floats(allow_nan=True, allow_infinity=True), max_size=5)
        for key in ("v0", "radius", "width", "r", "v", "sigma", "path")
    },
)
_counts = _json | st.integers(-2, 5) | st.lists(st.integers(-2, 64) | _json, max_size=4)
_lengths = (
    _json
    | st.floats(-1.0, 10.0)
    | st.sampled_from([float("nan"), float("inf"), 10**400])
    | st.lists(st.floats(-1.0, 10.0) | _json, max_size=4)
)
_documents = st.fixed_dictionaries(
    {"task": st.sampled_from(cli.TASKS) | _json},
    optional={
        "seed": _json,
        "potential": _potentials,
        "dt": _json,
        "tol": _json,
        "coupling": _json,
        "kind": _json | st.sampled_from(["int1", "trivv", "vl1", "vl12", "theta"]),
        "dim": _counts,
        "grid": _counts,
        "box": _lengths,
        "t_final": _lengths,
        "snapshots": _counts,
        "levels": _counts,
        "snapshot_dt": _lengths,
        "amp_cos": _lengths,
        "samples": _counts | st.integers(90, 110),
        "n_list": _counts,
        "times": _lengths,
        "pairs": _counts,
        "alphas": _lengths,
        "p_grid": _lengths,
        "initial": _json
        | st.fixed_dictionaries(
            {"type": st.sampled_from(["plane-wave", "gaussian", "cosine", "other"])},
            optional={"mode": _counts, "amplitude": _lengths, "width": _lengths},
        ),
        "trap": _json | st.just("harmonic"),
        "wrong_factor": _lengths,
        "phase_probe_k": _lengths,
    },
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
        assert all(np.all(np.isfinite(v)) for v in p.params.values())
        assert not np.isnan(p.sigma)
    # the reader accepts again what parse_config accepted
    kw = cli._arguments(cfg)
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
    # after the import, and again after the benchmarked scatter and coupled GP configs run
    code = """
import sys
from pathlib import Path
from condensate_lab import cli
print([m for m in ('scipy.integrate', 'scipy.interpolate') if m in sys.modules])
for path in sys.argv[2:]:
    cli.run(cli.parse_config(Path(path).read_text()), Path(sys.argv[1]) / Path(path).stem)
print([m for m in ('scipy.integrate', 'scipy.interpolate') if m in sys.modules])
"""
    configs = [str(Path(__file__).parents[1] / "configs" / name) for name in ("scatter.json", "evolve_gp_coupling.json")]
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
