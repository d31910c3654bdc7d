"""Self-tests of the benchmark's gate, tracer and per-layer metrics.

    python3 -m pytest perfbench/test_bench.py -q
"""

import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np

from gate import Tally, load_reference, verify
from run import ROOT, layer_metrics, per_layer_specs
from tracer import Tracer
from workloads import HEADLINE, WORKLOADS

sys.path.insert(0, str(ROOT / "src"))

REFERENCE = {"demo": {"checks": 2, "results": {"a0": 0.25, "ladder": [1e-3, 2.5e-4]}}}


def _row(ok):
    return {"anchor": "eq:demo", "value": 0.0, "threshold": 1.0, "pass": ok}


def _report(checks=(True, True), a0=0.25, ladder=(1e-3, 2.5e-4)):
    return SimpleNamespace(checks=[_row(ok) for ok in checks], results={"a0": a0, "ladder": list(ladder)})


def test_clean_report_counts_every_operation():
    tally = Tally()
    verify(tally, "demo", _report(), REFERENCE, compare=True)
    assert (tally.attempted, tally.failed) == (4, 0)


def test_failing_check_row_is_counted():
    tally = Tally()
    verify(tally, "demo", _report(checks=(True, False)), REFERENCE, compare=True)
    assert (tally.attempted, tally.failed) == (4, 1)


def test_moved_reference_value_is_counted():
    tally = Tally()
    verify(tally, "demo", _report(a0=0.25 * (1 + 1e-5)), REFERENCE, compare=True)
    verify(tally, "demo", _report(ladder=(1e-3, 2.6e-4)), REFERENCE, compare=True)
    assert (tally.attempted, tally.failed) == (8, 2)


def test_value_within_tolerance_passes():
    tally = Tally()
    verify(tally, "demo", _report(a0=0.25 * (1 + 1e-8)), REFERENCE, compare=True)
    assert tally.failed == 0


def test_raising_task_fails_all_its_operations():
    tally = Tally()
    verify(tally, "demo", None, REFERENCE, compare=True)
    assert (tally.attempted, tally.failed) == (4, 4)


def test_seeded_run_skips_reference_but_keeps_check_rows():
    tally = Tally()
    verify(tally, "demo", _report(checks=(False, True), a0=9.0), REFERENCE, compare=False)
    assert (tally.attempted, tally.failed) == (2, 1)


def test_reference_covers_every_config_and_headline():
    reference = load_reference()
    names = {n for names in WORKLOADS.values() for n in names}
    assert set(reference) == names
    for name in names:
        assert set(reference[name]["results"]) == set(HEADLINE[name])


def test_tracer_nests_spans_and_restores_bindings():
    from condensate_lab import gp, propagators, scattering

    original = scattering.build_transform
    tracer = Tracer()
    tracer.install()
    try:
        assert propagators.build_transform is scattering.build_transform
        assert scattering.build_transform is not original
        M, L = 32, 12.0
        x = (np.arange(M) - M // 2) * (L / M)
        init = gp.Field(np.exp(-(x**2)).astype(complex), (L,))
        init.normalize()
        with tracer.span("task.demo"):
            res = gp.gp_ground_state(gp.GPConfig(coupling=0.0, trap=gp.harmonic_trap), init)
    finally:
        tracer.uninstall()
    assert propagators.build_transform is original and scattering.build_transform is original

    stats = tracer.summary()
    root = tracer.spans[0]
    total_self = sum(s["self_s"] for s in stats.values())
    assert abs(total_self - (root[2] - root[1])) < 1e-9
    evals = tracer.child_calls("gp.gp_energy", "gp.gp_ground_state")
    assert evals == stats["gp.gp_energy"]["calls"] >= res["iterations"]
    assert tracer.counters["gp.gp_ground_state.accepted_steps"] == len(res["energies"]) - 1


def test_every_listed_per_layer_metric_resolves():
    from condensate_lab import cli  # noqa: F401  loads every layer module

    tracer = Tracer()
    tracer.install()
    tracer.uninstall()
    diagnostics = dict.fromkeys(
        ["process.cpu_s", "process.cpu_over_wall", "process.cold_pass_excess_s", "trace.overhead_s"], 0.0
    )
    values = layer_metrics(tracer, {}, diagnostics)
    assert set(values) == {name for name, _ in per_layer_specs()}
