"""condensate-lab benchmark: one workload per process, end to end or traced.

    python3 perfbench/run.py --workload radial --seed 0 --seconds 10 --trace 0

Run from the repository root.  Each workload is a fixed set of configs run
through the public ``cli.parse_config`` -> ``cli.run`` path.  One warm-up
pass is discarded, then warm passes repeat until ``--seconds`` have elapsed
and at least MIN_PASSES are done.  Every pass is verified by gate.py.

--trace 0 prints the end-to-end metrics: wall_s (each config's median
cli.run time over the warm passes, summed), setup_s (median of COLD_STARTS
fresh interpreters importing the package and parsing the workload's configs)
and peak_rss_mb (this process's ru_maxrss).  --trace 1 adds one traced pass
and prints the per-layer metrics that BENCHMARK.json lists.

The last stdout line is a JSON object {correct, attempted, failed, metrics};
the exit status is 0 only when no operation failed.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

from gate import Tally, load_reference, verify
from tracer import LAYER_MODULES, Tracer
from workloads import BENCH_DIR, DEFAULT_SEED, SEEDED, WORKLOADS, config_path, load_configs

ROOT = BENCH_DIR.parent
MIN_PASSES = 2
COLD_STARTS = 5

COLD_START = """\
import sys
from pathlib import Path
sys.path.insert(0, sys.argv[1])
from condensate_lab import cli
for path in sys.argv[2:]:
    cli.parse_config(Path(path).read_text())
"""

LAYER_TOTALS = [m.lstrip("_") for m in LAYER_MODULES] + ["cli"]


def per_layer_specs() -> list[tuple[str, str]]:
    """(name, unit) of every per-layer metric, as BENCHMARK.json lists them."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return [(m["name"], m["unit"]) for m in spec["per_layer"]]


# ---------------------------------------------------------------------------
# Environment block
# ---------------------------------------------------------------------------


def _read(path: str) -> str | None:
    try:
        return Path(path).read_text().strip()
    except OSError:
        return None


def _blas_threads() -> dict:
    """Thread count of every OpenBLAS library loaded into this process."""
    import ctypes

    maps = _read("/proc/self/maps") or ""
    libs = sorted({line.split()[-1] for line in maps.splitlines() if "openblas" in line.lower() and "/" in line})
    out = {}
    for lib in libs:
        handle = ctypes.CDLL(lib)
        for symbol in (
            "scipy_openblas_get_num_threads64_",
            "scipy_openblas_get_num_threads",
            "openblas_get_num_threads64_",
            "openblas_get_num_threads",
        ):
            if hasattr(handle, symbol):
                out[Path(lib).name] = int(getattr(handle, symbol)())
                break
    return out


def environment() -> dict:
    import numpy as np
    import scipy
    import scipy.linalg  # noqa: F401  loads scipy's BLAS

    from condensate_lab import _kernels

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpuinfo = _read("/proc/cpuinfo") or ""
    model = next((line.split(":", 1)[1].strip() for line in cpuinfo.splitlines() if line.startswith("model name")), None)
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        level, kind, size = (_read(str(index / f)) for f in ("level", "type", "size"))
        if kind != "Instruction":
            caches[f"L{level}"] = size
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "have_numba": bool(_kernels.HAVE_NUMBA),
        "blas": {
            "name": blas.get("name"),
            "version": blas.get("version"),
            "config": blas.get("openblas configuration"),
            "threads": _blas_threads(),
        },
        "cpu_model": model,
        "caches": caches,
        "loadavg_at_start": os.getloadavg(),
    }


# ---------------------------------------------------------------------------
# Measurement
# ---------------------------------------------------------------------------


def cold_start_s(paths: list[Path]) -> float:
    """Wall time of a fresh interpreter importing the package and parsing configs.

    No timeout: Popen.wait(timeout) polls in 50 ms sleeps, which would
    quantise the measurement.
    """
    start = time.perf_counter()
    subprocess.run(
        [sys.executable, "-c", COLD_START, str(ROOT / "src"), *map(str, paths)],
        cwd=ROOT,
        check=True,
        stdin=subprocess.DEVNULL,
        stdout=subprocess.DEVNULL,
    )
    return time.perf_counter() - start


def run_pass(cli, configs, outdir: Path, tally: Tally, reference: dict, seed: int, tracer=None):
    """Run every config once through cli.run and verify it.

    Returns (wall seconds, CPU seconds, {config: wall seconds of its cli.run}).
    """
    task_s = {}
    cpu0 = time.process_time()
    start = time.perf_counter()
    for name, cfg in configs:
        t0 = time.perf_counter()
        try:
            if tracer is None:
                report = cli.run(cfg, outdir / name)
            else:
                with tracer.span(f"task.{name}"):
                    report = cli.run(cfg, outdir / name)
        except Exception:
            traceback.print_exc()
            report = None
        task_s[name] = time.perf_counter() - t0
        verify(tally, name, report, reference, compare=name not in SEEDED or seed == DEFAULT_SEED)
    return time.perf_counter() - start, time.process_time() - cpu0, task_s


def layer_self_s(stats: dict) -> dict[str, float]:
    """Self time summed over each layer's functions; `cli` is the task spans' own time."""
    return {
        layer: sum(s["self_s"] for n, s in stats.items() if n.startswith("task." if layer == "cli" else f"{layer}."))
        for layer in LAYER_TOTALS
    }


def layer_metrics(tracer: Tracer, task_s: dict, diagnostics: dict) -> dict[str, float]:
    """Value of every per-layer metric BENCHMARK.json lists.

    `<function>.self_s` and `<function>.calls` come from the spans of any
    wrapped function, other `<function>.<stat>` names from the tracer's
    counters; the rest are layer totals, task times, ratios and diagnostics.
    """
    stats = tracer.summary()
    c = tracer.counters

    def ratio(num, den):
        return num / den if den else 0.0

    derived = dict(diagnostics)
    for layer, seconds in layer_self_s(stats).items():
        derived[f"{layer}.self_s"] = seconds
    for name, seconds in task_s.items():
        derived[f"task.{name}.wall_s"] = seconds
    derived["kernels.cn_evolve.free_share"] = ratio(
        c["kernels.cn_evolve.free_point_steps"], c["kernels.cn_evolve.point_steps"]
    )
    derived["gp.gp_evolve.ns_per_site_step"] = ratio(
        1e9 * stats["gp.gp_evolve"]["self_s"], c["gp.gp_evolve.site_steps"]
    )
    derived["gp.gp_ground_state.accept_ratio"] = ratio(
        c["gp.gp_ground_state.accepted_steps"], tracer.child_calls("gp.gp_energy", "gp.gp_ground_state")
    )

    out = {}
    for name, _ in per_layer_specs():
        func, stat = name.rsplit(".", 1)
        if name in derived:
            out[name] = derived[name]
        elif name.startswith("task."):
            out[name] = 0.0  # a config of another workload
        elif stat in ("self_s", "calls"):
            out[name] = stats[func][stat]
        elif func in stats:
            out[name] = c[name]
        else:
            raise KeyError(f"per-layer metric {name!r} names no traced function")
    return out


def traced_metrics(cli, configs, outdir, tally, reference, seed, env, warm) -> dict:
    """One traced pass; returns the per-layer metrics and writes trace.json.

    warm holds the untraced figures the diagnostics compare against.
    """
    tracer = Tracer()
    tracer.install()
    try:
        traced_wall, _, traced_tasks = run_pass(cli, configs, outdir, tally, reference, seed, tracer)
    finally:
        tracer.uninstall()
    values = layer_metrics(
        tracer,
        traced_tasks,
        {
            "process.cpu_s": warm["cpu_s"],
            "process.cpu_over_wall": warm["cpu_s"] / warm["wall_s"],
            "process.cold_pass_excess_s": warm["cold_wall"] - warm["wall_s"],
            "trace.overhead_s": traced_wall - warm["wall_s"],
        },
    )
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in per_layer_specs()}
    origin = tracer.spans[0][1]
    outdir.mkdir(parents=True, exist_ok=True)
    (outdir / "trace.json").write_text(
        json.dumps(
            {
                "env": env,
                "metrics": metrics,
                "spans": [[n, s - origin, e - origin, p] for n, s, e, p in tracer.spans],
            }
        )
    )
    print(f"traced pass {traced_wall:.3f} s; self time by layer:")
    for layer, v in layer_self_s(tracer.summary()).items():
        print(f"  {layer:<12} {v:9.3f} s  {100.0 * v / traced_wall:5.1f} %")
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")

    if not (ROOT / "src" / "condensate_lab" / "__init__.py").is_file() or not (ROOT / "configs").is_dir():
        print(f"benchmark: no condensate-lab source tree at {ROOT}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    from condensate_lab import cli

    env = environment()
    print("env " + json.dumps(env), flush=True)
    configs = load_configs(cli, ROOT, args.workload, args.seed)
    reference = load_reference()
    outdir = BENCH_DIR / "out" / args.workload
    tally = Tally()

    setup = []
    if not args.trace:
        paths = [config_path(ROOT, name) for name in WORKLOADS[args.workload]]
        setup = [cold_start_s(paths) for _ in range(COLD_STARTS)]

    cold_wall, _, _ = run_pass(cli, configs, outdir, tally, reference, args.seed)
    walls, cpus = [], []
    samples = {name: [] for name, _ in configs}
    begin = time.perf_counter()
    while len(walls) < MIN_PASSES or time.perf_counter() - begin < args.seconds:
        wall, cpu, task_s = run_pass(cli, configs, outdir, tally, reference, args.seed)
        walls.append(wall)
        cpus.append(cpu)
        for name, seconds in task_s.items():
            samples[name].append(seconds)
    # each task's median over the passes, summed: a contention burst moves
    # one sample of one task, not the whole figure
    wall_s = sum(statistics.median(s) for s in samples.values())
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    if args.trace:
        warm = {"wall_s": wall_s, "cpu_s": statistics.median(cpus), "cold_wall": cold_wall}
        metrics = traced_metrics(cli, configs, outdir, tally, reference, args.seed, env, warm)
    else:
        metrics = {
            "wall_s": {"value": wall_s, "unit": "s"},
            "setup_s": {"value": statistics.median(setup), "unit": "s"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
        }

    fail_frac = tally.failed / tally.attempted
    print(f"workload {args.workload} seed {args.seed}: warm-up {cold_wall:.3f} s, {len(walls)} timed passes")
    print(f"  wall_s       {wall_s:.4f} s   (passes: {', '.join(f'{w:.3f}' for w in walls)})")
    for name, s in samples.items():
        print(f"    {name:<22} median {statistics.median(s):.4f} s of {len(s)}")
    if setup:
        print(f"  setup_s      {statistics.median(setup):.4f} s   (cold starts: {', '.join(f'{s:.3f}' for s in setup)})")
    print(f"  peak_rss_mb  {peak_rss_mb:.1f} MB")
    print(f"  fail_frac    {fail_frac:.4g} 1   ({tally.failed} of {tally.attempted} operations)")
    for miss in tally.misses:
        print(f"  MISS {miss}")
    print(
        json.dumps(
            {
                "correct": tally.failed == 0,
                "attempted": tally.attempted,
                "failed": tally.failed,
                "metrics": metrics,
            }
        )
    )
    return 0 if tally.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
