"""The benchmarked configs pass the benchmark's own correctness gate.

Each config of every workload in BENCHMARK.json, and of the inequality
workload that perfbench/workloads.py defines beside them, runs once through
cli.run at the default seed, and perfbench/gate.py counts its check rows and
compares its headline results with perfbench/reference.json, so a drifted
headline fails here before a benchmark run.  Only the default seed is run:
the sampled-sup checks of the inequality configs fail at some other seeds.
"""

import importlib.util
import json
import sys
from pathlib import Path

from condensate_lab import cli

ROOT = Path(__file__).resolve().parents[1]


def _perfbench(name: str):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", ROOT / "perfbench" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses resolve their module by name
    spec.loader.exec_module(module)
    return module


def test_benchmarked_configs_pass_the_gate(tmp_path):
    gate, workloads = _perfbench("gate"), _perfbench("workloads")
    reference = gate.load_reference()
    tally = gate.Tally()
    names = [workload["name"] for workload in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]]
    for workload in names + ["inequality"]:
        for name, cfg in workloads.load_configs(cli, ROOT, workload, workloads.DEFAULT_SEED):
            gate.verify(tally, name, cli.run(cfg, tmp_path / name), reference, compare=True)
    assert tally.attempted > 0
    assert tally.failed == 0, tally.misses
