"""Hardware scheduling-latency model.

The paper measures, for a 1000 Hz periodic RTAI task, the difference
between the nominal release time and the instant the task actually
resumes ("there will be always a drift between time baseline and the one
the task are really scheduled", section 4.4).  Table 1 reports the
AVERAGE / AVEDEV / MIN / MAX of that difference in nanoseconds, in a
*light* and a *stress* (about 100% Linux CPU load) mode, and its headline
observations are:

* latencies are small and mostly **negative** (the periodic timer is
  programmed in hardware ticks, so it fires slightly early relative to
  the nanosecond baseline);
* under **stress** the distribution *shifts* strongly negative but gets
  much *tighter* (AVEDEV drops from ~3.7 us to ~0.35 us): with the CPU
  always busy it never enters deep idle states, so the wakeup path cost is
  constant, whereas in light mode idle-state exit and cache refill add
  heavy-tailed jitter;
* the hybrid (HRC) implementation is statistically indistinguishable
  from pure RTAI in both modes, because the RT side only *polls* its
  management mailbox (asynchronous command protocol, section 3.2).

This module reproduces those distributions mechanically: every time the
kernel arms a periodic release it draws a *timer fire offset* from the
:class:`LatencyProfile` of the cell the task is in, conditioned on the
Linux-domain load and on whether the task carries the hybrid management
poll.  The load changes only when a generator is registered or removed,
so the kernel asks :class:`LatencyModel` for its (plain, hybrid) profile
pair then, and each task draws through :meth:`LatencyProfile.draw` from
its own ``latency/<name>`` stream, looked up once.  Deterministic
dispatch costs (IRQ entry, scheduler pass, context switch) are added by
the kernel itself and are accounted for in the calibration constants
below.
"""

#: Deterministic cost charged by the kernel on the uncontended dispatch
#: path (see :class:`repro.rtos.kernel.KernelConfig`): IRQ entry +
#: scheduler pass + context switch.  The calibrated offsets below subtract
#: it so the *measured* latency lands on the paper's figures.
DEFAULT_DISPATCH_COST_NS = 1000

#: Mean shift a hybrid (HRC) task's management-mailbox poll imposes on
#: the wakeup path, per mode.  Calibrated against Table 1 (light: HRC
#: ~700 ns earlier on average; stress: ~100 ns later); both are an
#: order of magnitude below the mode's AVEDEV, i.e. the "no much
#: difference" the paper reports.
HYBRID_SHIFT_LIGHT_NS = -700
HYBRID_SHIFT_STRESS_NS = 100

#: Linux-domain demand fraction at and above which the stress profile
#: is used.
BUSY_THRESHOLD = 0.75


class LatencyProfile:
    """Distribution parameters for one (mode, implementation) cell.

    The sampled offset is ``base + jitter`` where jitter is a mixture of
    a Gaussian bulk and a uniform heavy tail (SMI / DMA / idle-exit
    spikes), clamped to ``[clamp_lo, clamp_hi]``.
    """

    __slots__ = ("base_ns", "sigma_ns", "tail_prob", "tail_lo_ns",
                 "tail_hi_ns", "clamp_lo_ns", "clamp_hi_ns")

    def __init__(self, base_ns, sigma_ns, tail_prob, tail_lo_ns,
                 tail_hi_ns, clamp_lo_ns, clamp_hi_ns):
        self.base_ns = base_ns
        self.sigma_ns = sigma_ns
        self.tail_prob = tail_prob
        self.tail_lo_ns = tail_lo_ns
        self.tail_hi_ns = tail_hi_ns
        self.clamp_lo_ns = clamp_lo_ns
        self.clamp_hi_ns = clamp_hi_ns

    def sample(self, rng, stream):
        """Draw one offset (ns, may be negative) from named stream."""
        return self.draw(rng.stream(stream))

    def draw(self, stream):
        """Draw one offset (ns, may be negative) from a
        :class:`random.Random` stream."""
        if stream.random() < self.tail_prob:
            jitter = stream.uniform(self.tail_lo_ns, self.tail_hi_ns)
        else:
            jitter = stream.gauss(0.0, self.sigma_ns)
        value = self.base_ns + jitter
        if value < self.clamp_lo_ns:
            value = self.clamp_lo_ns
        elif value > self.clamp_hi_ns:
            value = self.clamp_hi_ns
        return int(value)


def _light_profile(extra_shift_ns):
    """Light mode: idle-exit jitter dominates -- wide, heavy-tailed."""
    return LatencyProfile(
        base_ns=-1600 + extra_shift_ns,
        sigma_ns=4300.0,
        tail_prob=0.03,
        tail_lo_ns=-23500.0,
        tail_hi_ns=23500.0,
        clamp_lo_ns=-25500,
        clamp_hi_ns=24000,
    )


def _stress_profile(extra_shift_ns):
    """Stress mode: constant hot-path wakeup, strongly early, tight."""
    return LatencyProfile(
        base_ns=-22200 + extra_shift_ns,
        sigma_ns=430.0,
        tail_prob=0.01,
        tail_lo_ns=-4000.0,
        tail_hi_ns=3200.0,
        clamp_lo_ns=-26000,
        clamp_hi_ns=-17000,
    )


class LatencyModel:
    """Samples timer fire offsets for periodic releases.

    One :class:`LatencyProfile` per (mode, hybrid) cell, calibrated
    against Table 1: :data:`BUSY_THRESHOLD` picks the mode and
    :data:`HYBRID_SHIFT_LIGHT_NS` / :data:`HYBRID_SHIFT_STRESS_NS`
    shift the hybrid cells.
    """

    #: Class-level fast-path flag: when true, the kernel skips sampling
    #: entirely and fires releases exactly on the timer grid (plus IRQ
    #: entry).  Overridden by :class:`NullLatencyModel`; checked once at
    #: kernel construction (docs/PERFORMANCE.md).
    zero_offset = False

    def __init__(self):
        self._profiles = {
            ("light", False): _light_profile(0),
            ("light", True): _light_profile(HYBRID_SHIFT_LIGHT_NS),
            ("stress", False): _stress_profile(0),
            ("stress", True): _stress_profile(HYBRID_SHIFT_STRESS_NS),
        }

    def mode_for(self, linux_demand):
        """Classify a Linux-domain demand fraction as light/stress."""
        return "stress" if linux_demand >= BUSY_THRESHOLD else "light"

    def profile(self, mode, hybrid):
        """Return the :class:`LatencyProfile` for a (mode, hybrid) cell."""
        return self._profiles[(mode, bool(hybrid))]

    def sample_release_offset(self, rng, task_name, linux_demand, hybrid):
        """Draw the timer fire offset for one periodic release.

        A dedicated stream per task keeps task latencies statistically
        independent and runs reproducible.  The kernel draws the same
        values through a cached profile pair and stream.
        """
        profile = self.profile(self.mode_for(linux_demand), hybrid)
        return profile.draw(rng.stream("latency/" + task_name))


class NullLatencyModel(LatencyModel):
    """A latency model that always returns zero offset.

    Used by tests and by the analysis benchmarks, where scheduling
    behaviour should be exact rather than jittered.
    """

    zero_offset = True

    def sample_release_offset(self, rng, task_name, linux_demand, hybrid):
        return 0
