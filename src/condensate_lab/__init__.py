"""Desk-scale numerical laboratory for short-range bosonic dynamics.

Modules:
  potentials   repulsive radial interactions and their N-rescaling
  scattering   zero-energy profile, phase shifts, s-wave transform pair
  propagators  free/interacting two-body dynamics and defect experiments
  gp           cubic defocusing dynamics and ground states on periodic boxes
  hierarchy    low-rank coupled-equation residuals of factorized marginals
  analysis     kernel integrals, pairing inequalities, pair cutoffs
  cli          configuration-driven experiment runner
"""

__version__ = "0.1.0"

from . import analysis, gp, hierarchy, potentials, propagators, radial, scattering

__all__ = [
    "analysis",
    "gp",
    "hierarchy",
    "potentials",
    "propagators",
    "radial",
    "scattering",
    "__version__",
]
