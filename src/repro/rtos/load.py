"""Linux-domain load generators.

The paper's stress mode runs "three commands accompany with our OSGi
platform" until "the CPU usage is close to 100%" (section 4.4).  In the
dual-kernel model Linux load can never delay an RT dispatch -- it only
(a) soaks up the CPU time the RT domain leaves idle, and (b) changes the
hardware wakeup-path conditions that the latency model keys on
(:class:`repro.rtos.latency.LatencyModel`).

Each generator declares a *demand* fraction, fixed for its lifetime; the
kernel sums demands when a generator is registered or removed, to
classify the system as light or stress and to account Linux throughput.
"""

from repro.sim.engine import MSEC


class LoadGenerator:
    """Base class: a named source of Linux-side CPU demand."""

    def __init__(self, name, demand):
        if not 0.0 <= demand <= 1.0:
            raise ValueError("demand must be in [0, 1], got %r" % (demand,))
        self.name = name
        self._demand = demand
        self._kernel = None

    @property
    def demand(self):
        """The Linux-side CPU demand in [0, 1], read-only: the kernel
        reads it once, when the generator is registered or removed."""
        return self._demand

    def attached(self, kernel):
        """Called by the kernel on :meth:`RTKernel.register_load`."""
        self._kernel = kernel

    def detached(self, kernel):
        """Called by the kernel on :meth:`RTKernel.unregister_load`."""
        self._kernel = None

    def describe(self):
        """Short description used in kernel traces."""
        return "%s(demand=%.2f)" % (self.name, self.demand)


class CPUHogLoad(LoadGenerator):
    """A pure CPU burner, like ``while true; do :; done`` or the paper's
    stress commands."""

    def __init__(self, demand=1.0, name="cpuhog"):
        super().__init__(name, demand)


class IOStressLoad(LoadGenerator):
    """Disk/IO stress: moderate CPU demand, cache-thrashing pattern."""

    def __init__(self, demand=0.35, name="iostress"):
        super().__init__(name, demand)


class ForkStormLoad(LoadGenerator):
    """Process-creation storm (``fork`` benchmark): high, bursty demand."""

    def __init__(self, demand=0.9, name="forkstorm"):
        super().__init__(name, demand)


class JVMGarbageCollectorLoad(LoadGenerator):
    """The OSGi platform's JVM garbage collector.

    The paper stresses that the dual-kernel approach "solves one of the
    biggest challenges in this context[:] to prevent Java's garbage
    collector from interfering with real-time task scheduling" (section
    4.4).  Modelled as a bursty Linux-side demand; being a *Linux*
    citizen it structurally cannot delay RT dispatches, which is exactly
    the property the ablation benchmark asserts.
    """

    def __init__(self, demand=0.25, pause_ms=40, name="jvm-gc"):
        super().__init__(name, demand)
        self.pause_ms = pause_ms

    def worst_case_pause_ns(self):
        """Worst-case stop-the-world pause (affects only Linux work)."""
        return self.pause_ms * MSEC


def stress_suite():
    """The paper's stress workload: three concurrent load commands that
    drive Linux CPU usage to ~100% (section 4.4)."""
    return [
        CPUHogLoad(demand=0.40, name="stress-cpu"),
        ForkStormLoad(demand=0.35, name="stress-fork"),
        IOStressLoad(demand=0.25, name="stress-io"),
    ]


def apply_stress(kernel):
    """Register the stress suite on a kernel; returns the generators so
    the caller can unregister them later."""
    loads = stress_suite()
    for load in loads:
        kernel.register_load(load)
    return loads


def remove_loads(kernel, loads):
    """Unregister a list of generators previously applied."""
    for load in loads:
        kernel.unregister_load(load)
