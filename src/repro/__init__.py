"""repro -- the declarative real-time OSGi component model, reproduced.

A pure-Python reproduction of Gui, De Florio, Sun & Blondia,
"A framework for adaptive real-time applications: the declarative
real-time OSGi component model" (MIDDLEWARE 2008).

Packages
--------
``repro.sim``
    Deterministic discrete-event simulation core (ns resolution).
``repro.rtos``
    The RTAI substitute: dual-kernel RT scheduler, timers, IPC, the
    calibrated scheduling-latency model, Linux-side load generators.
``repro.osgi``
    The Equinox substitute: bundles, wiring, LDAP-filter service
    registry, events, trackers, a Declarative Services subset.
``repro.core``
    The paper's contribution: DRCom descriptors, the Figure-1
    lifecycle, the DRCR runtime, resolving services and admission
    policies, the management interface.
``repro.adapt``
    Adaptation managers as declarative rules: context providers, a
    damped rule evaluator, and a controller acting through the
    management interface.
``repro.hybrid``
    The HRC split container: RT part + management part bridged by the
    asynchronous command protocol.
``repro.analysis``
    Schedulability analysis (RM/RTA, EDF, utilization bounds).
``repro.telemetry``
    Platform observability: per-subsystem metric registries, Chrome
    trace-event export, metric dumps (see ``docs/OBSERVABILITY.md``).
``repro.workloads``
    UUniFast task-set and random component-population generation for
    experiments.

Quickstart
----------
>>> from repro import build_platform
>>> platform = build_platform(seed=1)
>>> platform.kernel.start_timer(1_000_000)   # 1 ms tick
>>> # deploy descriptors via platform.drcr.register_component(...)

See ``examples/quickstart.py`` for the full tour.
"""

from repro.platform import Platform, build_platform

__version__ = "1.0.0"

__all__ = ["Platform", "build_platform", "__version__"]
