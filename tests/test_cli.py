"""Config parsing, the task runner, report schema and determinism."""

import ast
import json
import os
import subprocess
import sys
import threading
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from condensate_lab import analysis as an
from condensate_lab import cli, gp
from condensate_lab import propagators as pr
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


def test_csv_cells_keep_their_bytes(tmp_path):
    # floats, numpy's or Python's, as repr(float); ints as str; csv's \r\n rows
    columns = (
        np.array([0.1, -0.0, np.inf]),
        [np.float64(1.5), float("nan"), 1e16],
        [0, 7, -3],
        range(3),
        np.array([2**40, -1, 0]),
        (2.5e-300, -np.inf, 1 / 3),
    )
    cli._write_csv(tmp_path / "t.csv", ["a", "b", "c", "d", "e", "f"], columns)
    assert (tmp_path / "t.csv").read_bytes() == (
        b"a,b,c,d,e,f\r\n"
        b"0.1,1.5,0,0,1099511627776,2.5e-300\r\n"
        b"-0.0,nan,7,1,-1,-inf\r\n"
        b"inf,1e+16,-3,2,0,0.3333333333333333\r\n"
    )


def test_scatter_report_contents(tmp_path):
    cfg = cli.parse_config(MINIMAL_SCATTER)
    report = cli.run(cfg, tmp_path / "out")
    assert abs(report.results["a0_asym"] - SOFT_A0) < 1e-7
    assert report.passed()
    data = json.loads((tmp_path / "out" / "report.json").read_text())
    assert set(data) == {"task", "config_hash", "results", "checks", "runtime_s"}
    assert all(set(c) == {"anchor", "value", "sense", "threshold", "pass"} for c in data["checks"])
    profile = (tmp_path / "out" / "profile.csv").read_text().splitlines()
    assert profile[0] == "r,f"
    assert len(profile) > 1000


# The verdict each sense names, written out apart from cli's own table
_SENSE = {"<=": lambda v, t: v <= t, ">=": lambda v, t: v >= t, "<": lambda v, t: v < t}


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
        assert row["pass"] == _SENSE[row["sense"]](row["value"], row["threshold"])
    (lse,) = [row for row in report.checks if row["anchor"] == "eq:LSE"]
    assert lse["pass"] == (offset < 1e-4)


@pytest.mark.parametrize("sense", sorted(_SENSE))
def test_a_nan_value_fails_every_sense(sense):
    for threshold in (-np.inf, -1.0, 0.0, 1.0, np.inf):
        row = cli._check("x", float("nan"), sense, threshold)
        assert row["sense"] == sense and row["pass"] is False


@pytest.fixture(scope="module")
def sample_reports(tmp_path_factory):
    """The report of each of the 13 sample configs, by file stem, run once for the module."""
    out = tmp_path_factory.mktemp("samples")
    return {path.stem: cli.run(cli.parse_config(path.read_text()), out / path.stem) for path in _sample_config_paths()}


def test_every_sample_row_passes_exactly_by_its_sense(sample_reports):
    for name, report in sample_reports.items():
        for row in report.checks:
            assert set(row) == {"anchor", "value", "sense", "threshold", "pass"}, (name, row)
            assert row["pass"] is _SENSE[row["sense"]](row["value"], row["threshold"]), (name, row)


# The (anchor, sense, threshold) of every row the sample configs emit: 28 from configs/
# and 2 from perfbench/configs/evolve_d3_cosine.json.  Tolerances may only get tighter,
# so a loosened threshold, a flipped sense or a row added or dropped fails here and is
# edited on purpose.
_ROW_TABLE = {
    "evolve_d3_cosine": [("eq:GP1", "<=", 1e-10), ("eq:GP1", "<=", 1e-08)],
    "evolve_gp_coupling": [("eq:GP1", "<=", 1e-10), ("eq:GP1", "<=", 1e-08)],
    "evolve_plane_wave": [("eq:GP1", "<=", 1e-10), ("eq:GP1", "<=", 1e-08), ("eq:GP1", "<=", 1e-06)],
    "groundstate_harmonic": [("E-GP", "<=", 0.0), ("E-GP", "<=", 0.0001)],
    "hierarchy_check": [
        ("eq:infhier", ">=", 2.0),
        ("eq:BBGKYinf", ">=", 2.0),
        ("eq:infhier", ">=", 10.0),
        ("eq:BBGKYinf", "<=", 1e-08),
    ],
    "inequality_int1": [("eq:int1", "<=", 1e-11), ("eq:int1", "<=", 1e-11)],
    "inequality_theta": [("lm:theta", "<=", 0.0), ("lm:theta", "<", 0.1), ("lm:theta", "<", 0.1)],
    "inequality_trivv": [("eq:trivv", "<=", 1e-11)],
    # pi^2 / (2 pi)^3
    "inequality_vl1": [("lm:VL1", "<", 0.1), ("lm:VL1", "<=", 0.039788735772973836)],
    "inequality_vl12": [("lm:VL12", "<=", 0.0), ("lm:VL12", "<=", 0.0)],
    "scatter": [("eq:a0", "<=", 1e-06), ("eq:WV4", "<=", 1e-06), ("eq:scatt", "<=", 1e-12), ("eq:LSE", "<=", 0.0001)],
    "second_moment": [("prop:energ2", ">=", -1e-06)],
    # -1/6 + 0.05
    "two_body_convergence": [("lm:WNto1", "<=", -0.11666666666666665), ("lm:WNto1", "<", 0.0)],
}


def test_sample_configs_emit_the_pinned_row_table(sample_reports):
    table = {
        name: [(row["anchor"], row["sense"], row["threshold"]) for row in report.checks]
        for name, report in sample_reports.items()
    }
    assert table == _ROW_TABLE
    assert sum(len(table[path.stem]) for path in (Path(__file__).parents[1] / "configs").glob("*.json")) == 28


def _last_energy_rises(real):
    # the last recorded descent energy one ulp above the one before it
    def run(*args, **kw):
        res = real(*args, **kw)
        res["energies"][-1] = np.nextafter(res["energies"][-2], np.inf)
        return res

    return run


def _minimiser_rises(real):
    # the initial state boosted by one momentum quantum along axis 0 in place of the minimiser:
    # of unit mass, with the initial trap energy and about (2 pi / L)^2 more kinetic energy
    def run(f):
        return gp.Field(f.values * np.exp(2j * np.pi * f.meshgrid()[0] / f.box[0]), f.box, f.time)

    return run


def _last_defect_grows(real):
    # the defect at the largest N one ulp above the one at the N before it
    def run(*args, **kw):
        curve = real(*args, **kw)
        curve.defects[-1] = np.nextafter(curve.defects[-2], np.inf)
        return curve

    return run


def _last_gap_rises(real):
    # the gap at the smallest alpha above the one before it by just more than the 1e-8 allowance
    def run(*args, **kw):
        res = real(*args, **kw)
        res["gaps"][-1] = res["gaps"][-2] + 1.01e-8
        return res

    return run


def _second_gap_stays(real):
    # the gap at alpha / 2 equal to the first: no rise, but above the first's C alpha^(1/12)
    def run(*args, **kw):
        res = real(*args, **kw)
        res["gaps"][1] = res["gaps"][0]
        return res

    return run


def _int1_dips_at_five(real):
    # I(5) lowered by 1e-5 relative: below I(0), so max(values) - I(0) does not see it
    def run(kind, p):
        value = real(kind, p)
        return value * (1.0 - 1e-5) if p == 5.0 else value

    return run


def _theta_one_above_one(real):
    # Theta_1 one ulp above 1 in every sample
    def run(*args, **kw):
        values = real(*args, **kw)
        values[0] = np.nextafter(1.0, 2.0)
        return values

    return run


# fault -> (config, module, function the fault wraps, the wrapper, index of the row it flips)
_MARGIN_ROW_FAULTS = {
    "descent-rises": (
        {"task": "groundstate", "grid": 32, "trap": "harmonic"},
        gp,
        "gp_ground_state",
        _last_energy_rises,
        0,
    ),
    "minimiser-rises": (
        {"task": "groundstate", "grid": 32, "trap": "harmonic"},
        gp,
        "_harmonic_minimiser",
        _minimiser_rises,
        0,
    ),
    "defect-grows": (
        {
            "task": "two-body-convergence",
            "potential": {"family": "gaussian", "v0": 1.0, "width": 1.0},
            "n_list": [8, 16, 32, 64],
            "times": [0.25],
        },
        pr,
        "convergence_experiment",
        _last_defect_grows,
        1,
    ),
    "int1-dips": ({"task": "inequality-check", "kind": "int1"}, an, "kernel_integral", _int1_dips_at_five, 1),
    "vl12-gap-rises": ({"task": "inequality-check", "kind": "vl12"}, an, "vl12_rate", _last_gap_rises, 0),
    "vl12-gap-leaves-envelope": ({"task": "inequality-check", "kind": "vl12"}, an, "vl12_rate", _second_gap_stays, 1),
    "theta-above-one": (
        {"task": "inequality-check", "kind": "theta", "samples": 100},
        an,
        "cumulative_values",
        _theta_one_above_one,
        0,
    ),
}


@pytest.mark.parametrize("fault", sorted(_MARGIN_ROW_FAULTS))
def test_a_small_fault_flips_its_margin_row(tmp_path, monkeypatch, fault):
    # each row prints the margin it tests, so a fault just past the threshold fails it
    # through cli.run, and the same config passes it without the fault
    doc, module, name, wrap, index = _MARGIN_ROW_FAULTS[fault]
    cfg = cli.parse_config(json.dumps(doc))
    clean = cli.run(cfg, tmp_path / "clean").checks[index]
    monkeypatch.setattr(module, name, wrap(getattr(module, name)))
    faulty = cli.run(cfg, tmp_path / "faulty").checks[index]
    assert clean["anchor"] == faulty["anchor"]
    assert clean["pass"] and clean["value"] <= clean["threshold"], clean
    assert not faulty["pass"] and faulty["value"] > faulty["threshold"], faulty


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


def test_a_wrapped_harmonic_trap_keeps_the_exact_ground_state(tmp_path, monkeypatch):
    # a tracer rebinds gp.harmonic_trap after the configs are parsed; the trap's grid
    # values, which the wrapper keeps, pick the exact g = 0 path
    path = Path(__file__).parents[1] / "configs" / "groundstate_harmonic.json"
    plain = cli.run(cli.parse_config(path.read_text()), tmp_path / "plain").as_dict()
    cfg = cli.parse_config(path.read_text())
    calls = []
    trap = gp.harmonic_trap
    monkeypatch.setattr(gp, "harmonic_trap", lambda *c: calls.append(len(c)) or trap(*c))
    wrapped = cli.run(cfg, tmp_path / "wrapped").as_dict()
    assert calls == [3]
    assert wrapped["results"]["iterations"] == 1
    plain["runtime_s"] = wrapped["runtime_s"] = 0.0
    assert cli.canonical_json(wrapped) == cli.canonical_json(plain)


def test_main_exit_codes(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(MINIMAL_SCATTER)
    assert cli.main(["scatter", "--config", str(cfg_path), "--out", str(tmp_path / "o1")]) == 0
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"task": "frobnicate"}))
    assert cli.main(["scatter", "--config", str(bad)]) == 2
    mismatch = cli.main(["evolve", "--config", str(cfg_path)])
    assert mismatch == 2


@pytest.mark.parametrize(
    "potential",
    [
        {"family": "gaussian", "v0": 2.0},
        [],
        {"family": "soft-sphere", "v0": -1.0, "radius": 1.0},
        {"family": "gaussian", "v0": "2", "width": 1.0},
        # a retired family, with the keys it read
        {"family": "tabulated", "r": [0.0, 1.0], "v": [2.0, 0.0]},
        {"family": "gaussian", "v0": float("nan"), "width": 1.0},
        {"family": "soft-sphere", "v0": 2.0, "radius": float("inf")},
        # no family, and a family no dict key can be
        {},
        {"family": ["zero"]},
        # parameters outside their ranges
        {"family": "soft-sphere", "v0": 2.0, "radius": 0.0},
        {"family": "gaussian", "v0": 1.0, "width": -1.0},
        {"family": "gaussian", "v0": float("inf"), "width": 1.0},
        # a boolean is no number, and a radius whose ball has int V beyond float range
        {"family": "soft-sphere", "v0": True, "radius": 1.0},
        {"family": "soft-sphere", "v0": 2.0, "radius": 1e200},
    ],
)
def test_malformed_potential_is_config_error(tmp_path, potential):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"task": "scatter", "potential": potential}))
    with pytest.raises(cli.ConfigError, match="^potential "):
        cli.parse_config(cfg_path.read_text())
    assert cli.main(["scatter", "--config", str(cfg_path), "--out", str(tmp_path / "o")]) == 2


@pytest.mark.parametrize(
    "doc",
    [
        {"task": "hierarchy-check", "levels": 1},
        {"task": "hierarchy-check", "levels": "abc"},
        {"task": "hierarchy-check", "dim": 4},
        {"task": "hierarchy-check", "dim": 1.0},
        {"task": "hierarchy-check", "levels": True},
        {"task": "hierarchy-check", "levels": 2.5},
        {"task": "hierarchy-check", "dim": [3]},
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
        # one number per key: per-axis lists, of dim entries too, are refused
        {"task": "evolve", "dim": 2, "grid": [32, 32]},
        {"task": "groundstate", "trap": "harmonic", "dim": 2, "box": [6.0, 6.0]},
    ],
)
def test_malformed_grid_shape_is_config_error(tmp_path, doc):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(doc))
    with pytest.raises(cli.ConfigError):
        cli.parse_config(cfg_path.read_text())
    assert cli.main([doc["task"], "--config", str(cfg_path), "--out", str(tmp_path / "o")]) == 2


@pytest.mark.parametrize(
    "potential, message",
    [
        ({"family": "soft-sphere", "v0": True, "radius": 1.0}, "potential v0 must be a finite number"),
        ({"family": "soft-sphere", "v0": 2.0, "radius": "1"}, "potential radius must be a finite number"),
        ({"family": "gaussian", "v0": -1.0, "width": 1.0}, "potential v0 must be >= 0"),
        ({"family": "gaussian", "v0": 1.0, "width": 0}, "potential width must be positive"),
        ({"family": "gaussian", "width": 1.0}, "potential requires a v0"),
    ],
)
def test_a_potential_is_read_like_every_other_number(potential, message):
    # the readers of every other key read the potential's, so a message names its key
    for doc, what in (
        ({"task": "scatter", "potential": potential}, ""),
        ({"task": "evolve", "coupling": {"potential": potential}}, "coupling "),
    ):
        with pytest.raises(cli.ConfigError, match=f"^{what}{message}"):
            cli.parse_config(json.dumps(doc))


def test_hierarchy_refuses_kernels_beyond_physical_memory(tmp_path):
    # finest level 16384^3 grid points, and a ladder of 2^1999 points per axis:
    # their trajectories alone exceed any machine's memory
    for doc in ({"task": "hierarchy-check", "dim": 3, "levels": 12}, {"task": "hierarchy-check", "levels": 2000}):
        start = time.perf_counter()
        with pytest.raises(cli.ConfigError, match=r"needs about [0-9.e+]+ GB .* physical memory is [0-9.e+]+ GB"):
            cli.parse_config(json.dumps(doc))
        assert time.perf_counter() - start < 1.0
        cfg_path = tmp_path / "big.json"
        cfg_path.write_text(json.dumps(doc))
        assert cli.main(["hierarchy-check", "--config", str(cfg_path), "--out", str(tmp_path / "o")]) == 2


# 24^3 runs of each GP task: an evolve, the same evolve in the trap (which holds the
# most fields) and the groundstate
_GP_RUNS = [
    {"task": "evolve", "dim": 3, "grid": 24, "coupling": 1.0, "t_final": 0.005, "snapshots": 2,
     "initial": {"type": "cosine", "amplitude": 0.15}},
    {"task": "evolve", "dim": 3, "grid": 24, "box": 12.0, "coupling": 1.0, "trap": "harmonic", "t_final": 0.005,
     "snapshots": 2, "initial": {"type": "gaussian", "width": 1.5}},
    {"task": "groundstate", "dim": 3, "grid": 24, "box": 12.0, "trap": "harmonic"},
]


def test_a_gp_run_holds_the_fields_its_memory_refusal_counts(tmp_path):
    field = 16 * 24**3
    peaks = []
    for n, doc in enumerate(_GP_RUNS):
        cli.run(cli.parse_config(json.dumps(doc)), tmp_path / f"warm{n}")  # imports and caches, outside the count
        cfg = cli.parse_config(json.dumps(doc))
        tracemalloc.start()
        try:
            cli.run(cfg, tmp_path / f"run{n}")
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    # beyond the fields, the report, its CSV and Python objects: about 9 kB measured
    assert max(peaks) <= cli._GP_RUN_FIELDS * field + 32 * 1024, [p / field for p in peaks]
    # and the count is not loose by half a field: the trapped evolve holds 5.04
    assert max(peaks) > (cli._GP_RUN_FIELDS - 0.5) * field, [p / field for p in peaks]


def test_a_gp_grid_whose_run_does_not_fit_is_refused_at_parse_time(monkeypatch, tmp_path):
    # a 500^3 evolve: one field, 2.0 GB, fits in 8.4 GB, but the run's five fields do not.
    # Parsed only: nothing of the grid is allocated
    big = json.dumps({"task": "evolve", "dim": 3, "grid": 500, "t_final": 1e-6, "snapshots": 1})
    monkeypatch.setattr(cli, "_physical_memory", lambda: 8_400_000_000)
    with pytest.raises(cli.ConfigError, match="GB for the 5 fields a run holds; physical memory is 8.4 GB"):
        cli.parse_config(big)
    # a 24^3 grid with memory for its five fields runs, and one byte less exits 2
    field = 16 * 24**3
    for doc in (_GP_RUNS[0], _GP_RUNS[2]):
        path = tmp_path / "gp.json"
        path.write_text(json.dumps(doc))
        monkeypatch.setattr(cli, "_physical_memory", lambda: cli._GP_RUN_FIELDS * field)
        cli.parse_config(path.read_text())
        monkeypatch.setattr(cli, "_physical_memory", lambda: cli._GP_RUN_FIELDS * field - 1)
        assert cli.main([doc["task"], "--config", str(path), "--out", str(tmp_path / "o")]) == 2
        assert not (tmp_path / "o").exists()


def test_hierarchy_ladder_runs_in_three_dimensions(tmp_path):
    cfg_path = tmp_path / "d3.json"
    cfg_path.write_text(json.dumps({"task": "hierarchy-check", "dim": 3, "levels": 2}))
    assert cli.main(["hierarchy-check", "--config", str(cfg_path), "--out", str(tmp_path / "o")]) in (0, 1)
    report = json.loads((tmp_path / "o" / "report.json").read_text())
    assert report["results"]["dim"] == 3
    slopes = [c for c in report["checks"] if c["threshold"] == 2.0]
    assert len(slopes) == 2 and all(np.isfinite(c["value"]) for c in slopes)
    assert (tmp_path / "o" / "residuals.csv").exists()


def test_main_reports_failed_check(tmp_path):
    # a visibly under-resolved evolution, within the kinetic bound (dt max|k|^2 = 2.56):
    # energy drift above threshold
    cfg_path = tmp_path / "drift.json"
    cfg_path.write_text(
        json.dumps(
            {
                "task": "evolve",
                "coupling": 5.0,
                "dim": 1,
                "grid": 32,
                "dt": 1e-2,
                "t_final": 1.0,
                "snapshots": 4,
                "initial": {"type": "cosine", "amplitude": 0.8},
            }
        )
    )
    code = cli.main(["evolve", "--config", str(cfg_path), "--out", str(tmp_path / "o2")])
    assert code == 1
    mass, energy = json.loads((tmp_path / "o2" / "report.json").read_text())["checks"]
    assert mass["pass"] and not energy["pass"]


def test_seed_override(tmp_path):
    cfg_path = tmp_path / "cfg.json"

    def main(doc, seed):
        cfg_path.write_text(json.dumps({"task": "inequality-check", "seed": 1, **doc}))
        return cli.main(["inequality-check", "--config", str(cfg_path), "--out", str(tmp_path / "o3"), "--seed", seed])

    assert main({"kind": "int1"}, "9") == 0
    assert json.loads((tmp_path / "o3" / "report.json").read_text())["config_hash"] == cli.config_hash(
        cli.RunConfig("inequality-check", 9, None, {"kind": "int1"})
    )
    # the option takes the config's rule, on unseeded (int1) and seeded (theta) tasks alike
    assert main({"kind": "int1"}, "-1") == 2
    assert main({"kind": "theta"}, "-1") == 2


def _coupling(tmp_path, rule):
    """The results of a short evolve run with this coupling."""
    doc = {"task": "evolve", "coupling": rule, "t_final": 1e-3, "snapshots": 1}
    return cli.run(cli.parse_config(json.dumps(doc)), tmp_path).results


def test_coupling_rules(tmp_path):
    out = _coupling(tmp_path, {"mode": "scattering-length", "potential": SOFT})
    assert abs(out["coupling"] - 8.0 * np.pi * SOFT_A0) < 1e-6
    assert abs(out["a0"] - SOFT_A0) < 1e-7
    # mode defaults to its one value
    assert _coupling(tmp_path, {"potential": SOFT})["coupling"] == out["coupling"]
    assert _coupling(tmp_path, 2)["coupling"] == 2.0


def test_default_dt_matches_the_grid_spectrum():
    # the evolve reader's default dt against the full gp.Field.k_squared grid; no
    # coupling and no potential: the documented default g = 0
    for dim, M, L in ((1, 63, 3.0), (2, 33, 7.5), (3, 9, 12.0)):
        doc = {"task": "evolve", "dim": dim, "grid": M, "box": L}
        kw = cli.parse_config(json.dumps(doc)).arguments
        assert kw["coupling"] == 0.0
        shape, box = kw["shape"], kw["box"]
        assert shape == (M,) * dim and box == (L,) * dim
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
        {"task": "inequality-check", "kind": "theta", "samples": True},
        {"task": "inequality-check", "kind": "nope"},
        {"task": "evolve", "coupling": {"mode": "scattering-length", "potential": {"family": "gaussian", "width": 1.0}}},
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
        {"task": "second-moment", "potential": SOFT, "samples": 10**400},
        # within float range, but the finest radial grid exceeds any memory
        {"task": "two-body-convergence", "potential": SOFT, "n_list": [8, 16, 32, 10**200]},
        # a transform of 3.8e12 points for each sample
        {"task": "second-moment", "potential": {"family": "soft-sphere", "v0": 2.0, "radius": 1e-300}},
        # a zero-energy radial grid of 2e296 nodes, for the scatter task and for a coupling
        {"task": "scatter", "potential": {"family": "soft-sphere", "v0": 2.0, "radius": 1e-300}},
        {"task": "evolve", "coupling": {"potential": {"family": "soft-sphere", "v0": 2.0, "radius": 1e-300}}},
        # int V = 0 leaves nothing for the vl12 ladder to normalize
        {"task": "inequality-check", "kind": "vl12", "potential": {"family": "zero"}},
        # a subnormal int V, whose normalized amplitude is inf
        {"task": "inequality-check", "kind": "vl12", "potential": {"family": "gaussian", "v0": 1.0, "width": 1e-105}},
        # a retired coupling mode
        {"task": "evolve", "coupling": {"mode": "born", "potential": {"family": "zero"}}},
        # a radius whose grid step underflows to 0
        {"task": "scatter", "potential": {"family": "soft-sphere", "v0": 2.0, "radius": 5e-324}},
    ],
)
def test_malformed_task_key_is_config_error(tmp_path, doc):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(doc))
    with pytest.raises(cli.ConfigError):
        cli.parse_config(cfg_path.read_text())
    assert cli.main([doc["task"], "--config", str(cfg_path), "--out", str(tmp_path / "o")]) == 2


def test_the_two_body_memory_refusal_counts_the_grids_that_run_at_once(monkeypatch):
    # two pool threads hold the two largest grids at once; one CPU holds one
    doc = json.dumps({"task": "two-body-convergence", "potential": SOFT, "n_list": [8, 16, 32, 64]})
    soft = cli.potentials.soft_sphere(2.0, 1.0)
    finest, next_finest = (pr.defect_points(soft, N) for N in (64, 32))
    monkeypatch.setattr(cli, "_physical_memory", lambda: 16 * (finest + next_finest))
    cli.parse_config(doc)
    monkeypatch.setattr(cli, "_physical_memory", lambda: 16 * (finest + next_finest) - 1)
    with pytest.raises(cli.ConfigError, match="n_list entries 32, 64 run at once"):
        cli.parse_config(doc)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    cli.parse_config(doc)
    monkeypatch.setattr(cli, "_physical_memory", lambda: 16 * finest - 1)
    with pytest.raises(cli.ConfigError, match="n_list entries 64 run at once"):
        cli.parse_config(doc)


def test_a_core_that_marches_past_float_range_fails_on_purpose(tmp_path, capsys):
    # RK4 meets exp(sqrt(v0 / 2) r) growth in the core: the march raises the solver's
    # own error (exit 1), not numpy's overflow warning, which this suite makes an error
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"task": "scatter", "potential": {"family": "gaussian", "v0": 1e300, "width": 1.0}}))
    assert cli.main(["scatter", "--config", str(cfg_path), "--out", str(tmp_path / "o")]) == 1
    assert "divergent quadrature: the radial march left float range" in capsys.readouterr().err


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
        ({"task": "evolve", "coupling": {"mode": "scattering-length", "potential": SOFT, "v0": 1.0}}, "coupling key: 'v0'"),
        ({"task": "evolve", "coupling": {"potential": {"family": "zero", "v0": 1.0}}}, "coupling potential key"),
        ({"task": "inequality-check", "kind": "int1", "pairs": 10}, "pairs"),
        ({"task": "inequality-check", "kind": "int1", "potential": SOFT}, "potential"),
        # retired numerical settings, each at its former default
        ({"task": "hierarchy-check", "grid": 64}, "grid"),
        ({"task": "hierarchy-check", "box": 2 * np.pi}, "box"),
        ({"task": "hierarchy-check", "snapshot_dt": 0.05}, "snapshot_dt"),
        ({"task": "hierarchy-check", "t_final": 0.5}, "t_final"),
        ({"task": "hierarchy-check", "amp_cos": 0.4}, "amp_cos"),
        ({"task": "hierarchy-check", "amp_sin": 0.3}, "amp_sin"),
        ({"task": "two-body-convergence", "potential": SOFT, "sigma": 1.0}, "sigma"),
        ({"task": "two-body-convergence", "potential": SOFT, "rmax": 24.0}, "rmax"),
        ({"task": "second-moment", "potential": SOFT, "k_max": 14.0}, "k_max"),
        ({"task": "second-moment", "potential": SOFT, "n_k": 640}, "n_k"),
        ({"task": "inequality-check", "kind": "int1", "p_grid": [0.0, 0.5, 1.0]}, "p_grid"),
        ({"task": "inequality-check", "kind": "trivv", "p_grid": [0.0, 1.0]}, "p_grid"),
        ({"task": "inequality-check", "kind": "vl12", "alphas": [0.5, 0.25]}, "alphas"),
        ({"task": "inequality-check", "kind": "theta", "n_particles": 10}, "n_particles"),
        ({"task": "inequality-check", "kind": "theta", "k": 3}, "'k'"),
        ({"task": "inequality-check", "kind": "theta", "n": 1}, "'n'"),
    ],
)
def test_a_key_no_reader_reads_is_config_error(tmp_path, doc, key):
    _refused_within_a_second(tmp_path, doc, f"unknown .*{key}")


@pytest.mark.parametrize(
    "doc, value",
    [
        ({"task": "scatter", "potential": {"family": "tabulated", "r": [0.0, 1.0], "v": [2.0, 0.0]}}, "tabulated"),
        ({"task": "evolve", "coupling": {"mode": "born", "potential": SOFT}}, "born"),
    ],
)
def test_a_retired_value_is_refused_by_name(tmp_path, doc, value):
    _refused_within_a_second(tmp_path, doc, f"'{value}'")


@pytest.mark.parametrize(
    "doc, match",
    [
        # a boolean is not the number 1.0
        ({"task": "scatter", "potential": {"family": "soft-sphere", "v0": True, "radius": 1.0}}, "potential v0"),
        # only evolve reads a coupling rule
        ({"task": "groundstate", "coupling": {"potential": {"family": "zero"}}}, "coupling must be a finite number"),
        ({"task": "hierarchy-check", "coupling": {"potential": SOFT}}, "coupling must be a finite number"),
        # grid and box take one number
        ({"task": "evolve", "grid": [64]}, "grid must be an integer"),
    ],
)
def test_a_shape_no_sample_config_takes_is_refused(tmp_path, doc, match):
    _refused_within_a_second(tmp_path, doc, match)


@pytest.mark.parametrize(
    "doc",
    [
        # a default dt of 3.9e-12 on the 256-point grid: 2.6e11 Strang steps
        {"task": "evolve", "box": 0.001},
        # a ladder of 8 levels, the finest of 8192 points
        {"task": "hierarchy-check", "levels": 8},
        {"task": "evolve", "dt": 1e-300},
        {"task": "two-body-convergence", "potential": SOFT, "dt": 1e-300, "times": [0.25]},
    ],
)
def test_a_run_beyond_the_work_budget_is_config_error(tmp_path, doc):
    _refused_within_a_second(tmp_path, doc, "grid points x solver steps; the budget is")


@pytest.mark.parametrize(
    "doc, unit",
    [
        ({"task": "second-moment", "potential": SOFT, "samples": 10**12}, "transform points x samples"),
    ],
)
def test_a_sampled_check_or_descent_beyond_the_work_budget_is_config_error(tmp_path, doc, unit):
    _refused_within_a_second(tmp_path, doc, f"{unit}; the budget is")


@pytest.mark.parametrize(
    "doc, reason",
    [
        ({"task": "groundstate", "coupling": 1.0, "trap": "harmonic"}, r"no minimiser for g = 1\.0 > 0"),
        ({"task": "groundstate", "coupling": 1e-300}, "no minimiser for g = 1e-300 > 0"),
        ({"task": "groundstate", "dim": 1, "grid": 1025, "trap": "harmonic"}, "at most 1024 points per axis, got 1025"),
        ({"task": "groundstate", "dim": 2, "grid": 1100, "trap": "harmonic"}, "at most 1024 points per axis, got 1100"),
        ({"task": "groundstate"}, "no minimizer: groundstate needs the harmonic trap"),
    ],
)
def test_a_groundstate_the_exact_path_cannot_solve_is_refused(tmp_path, doc, reason):
    # gp_ground_state solves g = 0 in the trap on at most 1024 points per axis, and nothing else
    _refused_within_a_second(tmp_path, doc, reason)


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_the_groundstate_default_box_holds_the_trapped_state(tmp_path, dim):
    # the default box of 12 passes |E - d| <= 1e-4; evolve's 2 pi cuts the state off
    # at the box edge, where the grid minimiser sits below d by 3.9e-4 per axis
    doc = {"task": "groundstate", "dim": dim, "trap": "harmonic"}
    report = cli.run(cli.parse_config(json.dumps(doc)), tmp_path / "default")
    assert report.passed() and report.results["iterations"] == 1, report.checks
    small = cli.run(cli.parse_config(json.dumps({**doc, "box": 2.0 * np.pi})), tmp_path / "small")
    assert [row["pass"] for row in small.checks] == [True, False], small.checks


# Each task's documented defaults: its minimal document (the keys it requires, with the
# reference's example Gaussian), each hierarchy dim (dim 1 is that task's minimal document)
# and the groundstate documents the exact path must run or refuse.
_GAUSSIAN = {"family": "gaussian", "v0": 1.0, "width": 1.0}
_DOCUMENTED_DEFAULTS = [
    {"task": "scatter", "potential": _GAUSSIAN},
    {"task": "evolve"},
    {"task": "two-body-convergence", "potential": _GAUSSIAN},
    {"task": "second-moment", "potential": _GAUSSIAN},
    *({"task": "inequality-check", "kind": kind} for kind in ("int1", "trivv", "vl1", "vl12", "theta")),
    {"task": "hierarchy-check", "dim": 1},
    pytest.param(
        {"task": "hierarchy-check", "dim": 2},
        marks=pytest.mark.xfail(strict=True, reason="ROADMAP item 2: the eq:BBGKYinf slope reads 1.99485 against 2.0"),
    ),
    {"task": "hierarchy-check", "dim": 3},
    {"task": "groundstate"},
    {"task": "groundstate", "trap": "harmonic"},
    {"task": "groundstate", "coupling": 1, "trap": "harmonic"},
    {"task": "groundstate", "dim": 1, "grid": 2048, "trap": "harmonic"},
]


@pytest.mark.parametrize(
    "doc", _DOCUMENTED_DEFAULTS, ids=lambda doc: ",".join(f"{k}={v}" for k, v in doc.items() if k != "potential")
)
def test_documented_defaults_run_or_refuse(tmp_path, doc):
    # exit 0, or a refusal with exit 2: no failed row (1) and no traceback
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(doc))
    assert cli.main([doc["task"], "--config", str(cfg_path), "--out", str(tmp_path / "o")]) in (0, 2)


def test_an_evolve_dt_beyond_the_kinetic_bound_is_config_error(tmp_path):
    # 0.1 on the default 256-point grid: dt max|k|^2 = 1638, where gp_evolve's bound is pi
    _refused_within_a_second(tmp_path, {"task": "evolve", "dt": 0.1}, "kinetic phase .* above pi")
    kw = cli.parse_config(json.dumps({"task": "evolve"})).arguments
    assert kw["dt"] * gp.max_k_squared(kw["shape"], kw["box"]) <= gp.KINETIC_PHASE


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
        {"task": "evolve", "dim": 2, "grid": 12, "dt": 2e-3, "t_final": 0.1, "snapshots": 3,
         "initial": {"type": "cosine"}},
        {"task": "hierarchy-check", "levels": 2},
        {"task": "hierarchy-check", "dim": 2, "levels": 2},
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


@pytest.mark.parametrize(
    "potential, n_list",
    [
        # a soft-sphere radius sets a finer step than the range rule: 1281 nodes at
        # N = 16 for radius 6, and 1231 at N = 8 for radius 2.5, where 24 / step is 1200
        ({"family": "soft-sphere", "v0": 2.0, "radius": 6.0}, [2, 4, 8, 16]),
        ({"family": "soft-sphere", "v0": 2.0, "radius": 2.5}, [2, 4, 8, 16]),
        ({"family": "gaussian", "v0": 2.0, "width": 1.0}, [8, 16, 32, 64]),
    ],
)
def test_the_two_body_count_is_the_radial_nodes_a_run_builds(tmp_path, monkeypatch, potential, n_list):
    # one Crank-Nicolson step per N, so the reader's count is the nodes of the grids
    # convergence_experiment builds: a budget one node short refuses the config
    build, nodes = pr.build_grid, []

    def recorded(*args, **kw):
        grid = build(*args, **kw)
        nodes.append(grid.n)
        return grid

    monkeypatch.setattr(pr, "build_grid", recorded)
    doc = json.dumps({"task": "two-body-convergence", "potential": potential, "n_list": n_list, "times": [1e-3]})
    cli.run(cli.parse_config(doc), tmp_path)
    assert len(nodes) == len(n_list)
    monkeypatch.setattr(cli, "_WORK_BUDGET", sum(nodes))
    cli.parse_config(doc)
    monkeypatch.setattr(cli, "_WORK_BUDGET", sum(nodes) - 1)
    with pytest.raises(cli.ConfigError, match="budget"):
        cli.parse_config(doc)


@pytest.mark.parametrize("coupling", [0.0, {"mode": "scattering-length", "potential": {"family": "zero"}}])
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
        # the fewest samples theta accepts
        ({"kind": "theta", "samples": 100}, 0),
        # 2e14 particle pairs: refused within a second
        ({"kind": "theta", "samples": 10**12}, 2),
        # every ratio is 0, so the sup does not move under doubling
        ({"kind": "vl1", "potential": {"family": "zero"}}, 0),
        # 1e15 pairing nodes: refused within a second
        ({"kind": "vl1", "pairs": 10**12}, 2),
    ],
)
def test_inequality_extremes_end_with_an_exit_code(tmp_path, doc, code):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"task": "inequality-check", **doc}))
    start = time.perf_counter()
    assert cli.main(["inequality-check", "--config", str(cfg_path), "--out", str(tmp_path / "o")]) == code
    assert code != 2 or time.perf_counter() - start < 1.0


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
# each family with its own keys, and any family, the retired "tabulated" among them,
# with any potential keys, the retired table keys among them
_potentials = _json | st.one_of(
    st.fixed_dictionaries({"family": st.just("zero")}),
    st.fixed_dictionaries({"family": st.just("soft-sphere"), "v0": _values, "radius": _values}),
    st.fixed_dictionaries({"family": st.just("gaussian"), "v0": _values, "width": _values}),
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
    "two-body-convergence": {"potential": _potentials, "n_list": _counts, "times": _lengths, "dt": _lengths},
    "second-moment": {"potential": _potentials, "samples": _counts},
    "hierarchy-check": {"coupling": _couplings, "dim": _counts, "levels": _counts},
}
_kind_keys = {
    "int1": {},
    "trivv": {},
    "vl1": {"potential": _potentials, "pairs": _counts},
    "vl12": {"potential": _potentials},
    "theta": {"samples": _counts | st.integers(90, 110)},
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
        optional={
            key: _json
            for key in ("kind", "snapshot", "wrong_factor", "phase_probe_k", "tol", "potential", "grid", "k_max")
        },
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
        p = cli._potential(cfg.potential)
        assert all(np.isfinite(v) for v in (p.amplitude, p.rate, p.profile_l1, p.l1, *p.breakpoints))
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
        assert kw["levels"] >= 2 and kw["dim"] in (1, 2, 3)


def test_importing_the_cli_skips_quadrature_and_interpolation(tmp_path):
    # after the import, and again after the benchmarked scatter and coupled GP configs,
    # the two pairing configs and the two kernel-integral configs run
    code = """
import sys
from pathlib import Path
from condensate_lab import cli
print([m for m in ('scipy.integrate', 'scipy.interpolate') if m in sys.modules])
for path in sys.argv[2:]:
    cli.run(cli.parse_config(Path(path).read_text()), Path(sys.argv[1]) / Path(path).stem)
print([m for m in ('scipy.integrate', 'scipy.interpolate') if m in sys.modules])
"""
    names = (
        "scatter.json",
        "evolve_gp_coupling.json",
        "inequality_vl1.json",
        "inequality_vl12.json",
        "inequality_int1.json",
        "inequality_trivv.json",
    )
    configs = [str(Path(__file__).parents[1] / "configs" / name) for name in names]
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])}
    out = subprocess.run(
        [sys.executable, "-c", code, str(tmp_path), *configs], capture_output=True, text=True, env=env, check=True
    )
    assert out.stdout.split() == ["[]", "[]"]


def test_parsing_every_sample_config_and_running_six_tasks_load_no_scipy(tmp_path):
    # scipy loads where a solver first needs it: the import, every sample config's
    # parse, and the scatter, vl1, vl12, theta, int1 and trivv runs load no scipy module
    code = """
import sys
from pathlib import Path
from condensate_lab import cli
scipy = lambda: [m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')]
for path in sys.argv[2:]:
    cli.parse_config(Path(path).read_text())
print(len(sys.argv) - 2, scipy())
for name in ('scatter', 'inequality_vl1', 'inequality_vl12', 'inequality_theta', 'inequality_int1', 'inequality_trivv'):
    path = next(p for p in sys.argv[2:] if Path(p).stem == name)
    report = cli.run(cli.parse_config(Path(path).read_text()), Path(sys.argv[1]) / name)
    print(name, report.passed(), scipy())
"""
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])}
    paths = [str(path) for path in _sample_config_paths()]
    out = subprocess.run([sys.executable, "-c", code, str(tmp_path), *paths], capture_output=True, text=True, env=env, check=True)
    assert out.stdout.splitlines() == [
        "13 []",
        *(
            f"{name} True []"
            for name in (
                "scatter",
                "inequality_vl1",
                "inequality_vl12",
                "inequality_theta",
                "inequality_int1",
                "inequality_trivv",
            )
        ),
    ]


def test_hierarchy_and_second_moment_reports_do_not_depend_on_the_blas_thread_count(tmp_path):
    # hierarchy's zgeqrf and the transform's GEMMs run on one OpenBLAS thread, so both sample
    # configs report the same bits as under OPENBLAS_NUM_THREADS=1, and every bound library
    # (numpy's and scipy's) gets its thread count back
    code = """
import json, sys
from pathlib import Path
import scipy.linalg
from condensate_lab import _kernels, cli
with _kernels._one_blas_thread():
    pass
counts = lambda: [get() for _, get in _kernels._openblas]
before, reports = counts(), {}
for path in map(Path, sys.argv[2:]):
    report = cli.run(cli.parse_config(path.read_text()), Path(sys.argv[1]) / path.stem).as_dict()
    del report["runtime_s"]
    reports[path.stem] = report
print(json.dumps({"before": before, "after": counts(), "reports": reports}))
"""
    paths = [str(p) for p in _sample_config_paths() if p.stem in ("hierarchy_check", "second_moment")]
    env = {k: v for k, v in os.environ.items() if k not in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")}
    env["PYTHONPATH"] = str(Path(cli.__file__).parents[1])
    runs = {}
    for name, extra in (("default", {}), ("one", {"OPENBLAS_NUM_THREADS": "1"})):
        argv = [sys.executable, "-c", code, str(tmp_path / name), *paths]
        out = subprocess.run(argv, capture_output=True, text=True, env={**env, **extra}, check=True)
        runs[name] = json.loads(out.stdout)
    assert len(paths) == 2 and len(runs["one"]["reports"]) == 2
    assert runs["default"]["reports"] == runs["one"]["reports"]
    assert runs["one"]["before"] == [1, 1]
    for run in runs.values():
        assert run["after"] == run["before"]


def test_trivv_compares_the_oracle_at_p_zero(tmp_path):
    # the fixed grid starts at p = 0, the point the Beta-function oracle is for
    report = cli.run(cli.parse_config(json.dumps({"task": "inequality-check", "kind": "trivv"})), tmp_path / "o")
    assert report.results["p_grid"][0] == 0.0
    (row,) = report.checks
    assert row["value"] == abs(report.results["values"][0] - report.results["beta_oracle"])
    assert report.passed(), report.checks


def test_trivv_fails_a_wrong_kernel(tmp_path, monkeypatch):
    kernel = an.kernel_integral
    monkeypatch.setattr(an, "kernel_integral", lambda kind, p: kernel(kind, p) * (1.0 + 1e-3))
    cfg = cli.parse_config(json.dumps({"task": "inequality-check", "kind": "trivv"}))
    assert not cli.run(cfg, tmp_path / "o").passed()


def test_theta_one_pass_matches_runs_at_n_and_2n(tmp_path):
    # one run of 2 x samples draws gives the stability values of two separate
    # runs of samples and 2 x samples draws, to the last bit
    doc = {"task": "inequality-check", "kind": "theta", "samples": 100, "seed": 3}
    report = cli.run(cli.parse_config(json.dumps(doc)), tmp_path / "o")
    cfg = an.default_cutoff_config()
    r1 = an.theta_inequalities(cfg, samples=100, seed=3)
    r2 = an.theta_inequalities(cfg, samples=200, seed=3)
    for ratio in ("ratio_ii", "ratio_iii"):
        sup1, sup2 = r1[f"{ratio}_sup"], r2[f"{ratio}_sup"]
        assert report.results[f"{ratio}_sup"] == sup2
        assert report.results[ratio.replace("ratio", "stability")] == abs(sup2 - sup1) / sup1
    assert report.results["monotonicity_ok"] == (r1["monotonicity_ok"] and r2["monotonicity_ok"])


# Keys a reader looks up that no sample config sets, each kept for its reason.
_UNSET_KEYS_KEPT = {
    # ROADMAP items name dim 2 and dim 3, and a fixed dim would hide the failing dim-2 slope
    ("hierarchy-check", "dim"),
    # evolve and groundstate share one reader, and the groundstate config sets trap
    ("evolve", "trap"),
    # ... and the evolve configs set initial
    ("groundstate", "initial"),
}


def _sample_config_paths() -> list[Path]:
    root = Path(__file__).parents[1]
    paths = [*(root / "configs").glob("*.json"), *(root / "perfbench" / "configs").glob("*.json")]
    assert len(paths) == 13
    return paths


def test_every_key_a_reader_looks_up_is_set_by_a_sample_config():
    # a key no workload sets is a setting no workload needs: it belongs in a constant
    set_by, looked_up = {}, {}
    for path in _sample_config_paths():
        doc = json.loads(path.read_text())
        params = {key: value for key, value in doc.items() if key not in ("task", "seed")}
        seen = cli._Seen(params)
        cli._TASKS[doc["task"]][0](seen)
        where = doc["task"] if doc["task"] != "inequality-check" else doc["kind"]
        set_by.setdefault(where, set()).update(params)
        looked_up.setdefault(where, set()).update(seen.looked_up)
    # every task, and every inequality kind, has a sample config
    assert set(looked_up) == {*cli.TASKS, "int1", "trivv", "vl1", "vl12", "theta"} - {"inequality-check"}
    unset = {(where, key) for where, keys in looked_up.items() for key in keys - set_by[where]}
    assert unset == _UNSET_KEYS_KEPT


# Values a reader offers that no sample config takes, each kept for its reason.  A
# default counts as taken: the groundstate config takes the gaussian initial state,
# and the evolve configs take no trap.
_UNTAKEN_VALUES_KEPT = {
    # the exact V = 0 control, which the tests run (the vl1 extreme case among them)
    ("potential family", "zero"),
    # ROADMAP items name dim 2, and a fixed dim would hide the failing dim-2 slope
    ("dim", 2),
}


def test_every_value_a_reader_offers_is_taken_by_a_sample_config(monkeypatch):
    # an option no workload takes is a branch no workload runs
    offered, taken = {}, set()
    choice = cli._choice

    def recorded_choice(key, value, options):
        offered.setdefault(key, set()).update(options)
        taken.add((key, value))
        return choice(key, value, options)

    monkeypatch.setattr(cli, "_choice", recorded_choice)
    for path in _sample_config_paths():
        cli.parse_config(path.read_text())
    # every enumerated key is read by some sample config
    assert set(offered) == {"potential family", "coupling mode", "initial type", "trap", "dim", "kind"}
    untaken = {(key, option) for key, options in offered.items() for option in options} - taken
    assert untaken == _UNTAKEN_VALUES_KEPT


# One value of each shape a number-valued key might take, and a config of each task
# that reads such a key, complete without it.  The coupling number is 0.0, the one
# groundstate solves.
_SHAPE_PROBES = {
    "coupling": {"number": 0.0, "rule": {"potential": SOFT}},
    "grid": {"number": 16, "list": [16]},
    "box": {"number": 6.0, "list": [6.0]},
}
_SHAPE_BASES = {"evolve": {}, "groundstate": {"trap": "harmonic"}, "hierarchy-check": {}}


def _shape(value) -> str:
    return "rule" if isinstance(value, dict) else "list" if isinstance(value, list) else "number"


def test_every_shape_a_reader_accepts_is_taken_by_a_sample_config():
    # a per-axis list or a coupling rule that no workload takes is a branch no workload runs
    taken = set()
    for path in _sample_config_paths():
        doc = json.loads(path.read_text())
        taken.update((doc["task"], key, _shape(doc[key])) for key in _SHAPE_PROBES if key in doc)
    accepted = set()
    for task, base in _SHAPE_BASES.items():
        for key, probes in _SHAPE_PROBES.items():
            for shape, value in probes.items():
                try:
                    cli.parse_config(json.dumps({"task": task, **base, key: value}))
                except cli.ConfigError:
                    continue
                accepted.add((task, key, shape))
    assert accepted == taken


# Functions in src/ that no sample config runs, each kept for its reason.
_UNRUN_FUNCTIONS_KEPT = {
    # the exact V = 0 control, which the tests run (the vl1 extreme case among them)
    "potentials.zero_potential",
    # the time-t entry to _cn_steps that the propagator tests run, and the benchmark's
    # per-layer metrics name
    "propagators.evolve_interacting",
    # the zero-step segment of _cn_steps, which a repeated or zero time takes
    "propagators.RadialWavepacket.copy",
}


def _functions_defined_in_src() -> dict:
    """{(file, first line): module.qualified.name} of every def in the package; the first
    line is that of the first decorator, as the function's code object has it."""
    defined = {}

    def walk(node, path, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.FunctionDef):
                line = min([child.lineno] + [d.lineno for d in child.decorator_list])
                defined[(str(path), line)] = prefix + child.name
                walk(child, path, f"{prefix}{child.name}.<locals>.")
            elif isinstance(child, ast.ClassDef):
                walk(child, path, f"{prefix}{child.name}.")
            else:
                walk(child, path, prefix)

    for path in Path(cli.__file__).parent.glob("*.py"):
        walk(ast.parse(path.read_text()), path, f"{path.stem}.")
    return defined


def test_every_function_in_src_runs_in_a_sample_config(tmp_path):
    # a function no workload calls is code no workload needs
    defined, called = _functions_defined_in_src(), set()

    def record(frame, event, arg):
        if event == "call":
            called.add((frame.f_code.co_filename, frame.f_code.co_firstlineno))

    codes = []
    # the radial stack runs on pool threads, which sys.setprofile does not see
    sys.setprofile(record)
    threading.setprofile(record)
    try:
        for path in _sample_config_paths():
            task = json.loads(path.read_text())["task"]
            codes.append(cli.main([task, "--config", str(path), "--out", str(tmp_path / path.stem)]))
    finally:
        threading.setprofile(None)
        sys.setprofile(None)
    assert codes == [0] * len(codes)
    assert {name for where, name in defined.items() if where not in called} == _UNRUN_FUNCTIONS_KEPT
