"""Outside-in tracer for the solver layers.

install() wraps every public function of the layer modules and rebinds each
wrapper wherever the original is bound in the package, including names
imported into a second module (``propagators.build_transform``), so nested
spans give correct self times.  Spans (name, start, end, parent) and counters
are kept in memory; the caller turns them into per-layer numbers at the end.

Counters are derived from call arguments and return values.  Byte counts are
what the seed algorithm computes for those arguments, not measured
allocations, and carry the suffix ``_computed``.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from collections import defaultdict
from contextlib import contextmanager

import numpy as np

LAYER_MODULES = ("_kernels", "scattering", "propagators", "gp", "hierarchy", "analysis")


def _cn_evolve(c, a, result):
    work = a["u_interior"].shape[0] * a["nsteps"]
    c["kernels.cn_evolve.point_steps"] += work
    if not np.any(a["q_interior"]):
        c["kernels.cn_evolve.free_point_steps"] += work


def _rk4_radial_batch(c, a, result):
    nsteps = (np.shape(a["q_half"])[0] - 1) // 2
    c["kernels.rk4_radial_batch.node_k_steps"] += nsteps * np.shape(a["k2"])[0]


def _pair_rows(c, a, result):
    n = np.shape(a["pos"])[0]
    c["kernels.pair_rows.pairs"] += n * (n - 1) // 2


def _build_transform(c, a, result):
    c["scattering.build_transform.n_k_requested"] += a["n_k"]
    c["scattering.build_transform.n_k_used"] += result.k.shape[0]
    c["scattering.build_transform.matrix_bytes_computed"] += result.states.nbytes + result.sines.nbytes
    key = "scattering.build_transform.completeness_defect"
    c[key] = max(c[key], result.completeness_defect)


def _gp_evolve(c, a, result):
    nsteps = int(round(a["t"] / a["cfg"].dt))
    c["gp.gp_evolve.site_steps"] += a["f"].values.size * nsteps


def _gp_ground_state(c, a, result):
    c["gp.gp_ground_state.iterations"] += result["iterations"]
    c["gp.gp_ground_state.accepted_steps"] += len(result["energies"]) - 1


def _integral_form_residual(c, a, result):
    traj = a["trajectory"]
    n = traj[0].values.size
    c["hierarchy.integral_form_residual.snapshot_terms"] += len(traj)
    # one n x n complex128 kernel per Duhamel term
    c["hierarchy.integral_form_residual.kernel_bytes_computed"] += len(traj) * n * n * 16


HOOKS = {
    "kernels.cn_evolve": _cn_evolve,
    "kernels.rk4_radial_batch": _rk4_radial_batch,
    "kernels.pair_rows": _pair_rows,
    "scattering.build_transform": _build_transform,
    "gp.gp_evolve": _gp_evolve,
    "gp.gp_ground_state": _gp_ground_state,
    "hierarchy.integral_form_residual": _integral_form_residual,
}


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index or None]
        self.counters: dict[str, float] = defaultdict(int)
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []
        self.names: list[str] = []  # every wrapped function

    @contextmanager
    def span(self, name: str):
        idx = len(self.spans)
        self.spans.append([name, time.perf_counter(), None, self._stack[-1] if self._stack else None])
        self._stack.append(idx)
        try:
            yield
        finally:
            self._stack.pop()
            self.spans[idx][2] = time.perf_counter()

    def _wrap(self, name: str, fn):
        hook = HOOKS.get(name)
        sig = inspect.signature(fn)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name):
                result = fn(*args, **kwargs)
            if hook is not None:
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                hook(self.counters, bound.arguments, result)
            return result

        return traced

    def install(self, package: str = "condensate_lab"):
        """Wrap the layer modules' public functions at every binding in the package."""
        wrappers = {}
        for mod_name in LAYER_MODULES:
            mod = sys.modules[f"{package}.{mod_name}"]
            for attr, obj in vars(mod).items():
                if inspect.isfunction(obj) and obj.__module__ == mod.__name__ and not attr.startswith("_"):
                    name = f"{mod_name.lstrip('_')}.{attr}"
                    self.names.append(name)
                    wrappers[id(obj)] = self._wrap(name, obj)
        for name, mod in list(sys.modules.items()):
            if name != package and not name.startswith(package + "."):
                continue
            for attr, obj in list(vars(mod).items()):
                if id(obj) in wrappers:
                    self._restore.append((mod, attr, obj))
                    setattr(mod, attr, wrappers[id(obj)])

    def uninstall(self):
        for mod, attr, obj in reversed(self._restore):
            setattr(mod, attr, obj)
        self._restore.clear()

    def summary(self) -> dict[str, dict[str, float]]:
        """Self time and call count per span name, zero for uncalled wrapped functions."""
        child = [0.0] * len(self.spans)
        for _, start, end, parent in self.spans:
            if parent is not None:
                child[parent] += end - start
        out = {name: {"self_s": 0.0, "calls": 0} for name in self.names}
        for (name, start, end, _), inner in zip(self.spans, child):
            stat = out.setdefault(name, {"self_s": 0.0, "calls": 0})
            stat["self_s"] += end - start - inner
            stat["calls"] += 1
        return out

    def child_calls(self, name: str, parent_name: str) -> int:
        """Calls of `name` made directly inside a `parent_name` span."""
        return sum(
            1
            for n, _, _, parent in self.spans
            if n == name and parent is not None and self.spans[parent][0] == parent_name
        )
