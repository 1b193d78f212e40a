"""Runtime checking of stochastic contracts (Nandi et al.).

The descriptor's optional ``<stochastic>`` clause declares inter-
arrival and execution-time *distributions*; this package checks them
online against kernel telemetry and routes violations through DRCR's
quarantine -- see docs/ARCHITECTURE.md for the layering rule.
``python -m repro contracts`` runs its C6 experiment (EXPERIMENTS.md)
through the shared harness in :mod:`repro.experiments`.
"""

from repro.monitor.gof import (chi_square_gof, chi_square_sf,
                               equal_probability_edges)
from repro.monitor.service import (ContractMonitor,
                                   StochasticContextProvider,
                                   StochasticViolation)

__all__ = [
    "ContractMonitor",
    "StochasticContextProvider",
    "StochasticViolation",
    "chi_square_gof",
    "chi_square_sf",
    "equal_probability_edges",
]
