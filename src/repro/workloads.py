"""Workload generation for experiments.

Random task sets and random DRCom component populations, built on the
standard tools of the schedulability-evaluation literature:

* :func:`uunifast` -- Bini & Buttazzo's unbiased utilization splitter
  (the de-facto standard for generating task-set utilizations);
* :func:`log_uniform_periods` -- periods drawn log-uniformly across
  decades, snapped to a timer-grid-friendly quantum;
* :func:`generate_taskset` -- :class:`~repro.analysis.TaskSpec` sets
  with rate-monotonic priorities;
* :func:`generate_component_set` -- full DRCom descriptors, optionally
  chained through ports (component *i* consumes *i−1*'s outport), ready
  for :meth:`repro.core.DRCR.register_component`.

All draws go through named :class:`~repro.sim.rng.RandomStreams`
streams, so workloads are reproducible and independent of any other
randomness in a run.

Usage::

    from repro.sim.rng import RandomStreams
    from repro.workloads import generate_taskset, generate_component_set

    rng = RandomStreams(77)
    tasks = generate_taskset(rng, "w0", 8, total_utilization=0.7)
    for spec in tasks:                 # analysable TaskSpecs...
        print(spec.name, spec.period_ns, spec.wcet_ns, spec.priority)

    descriptors = generate_component_set(rng, "w0", 8,
                                         total_utilization=0.7,
                                         chained=True)
    for descriptor in descriptors:     # ...or deployable descriptors
        drcr.register_component(descriptor)

The ``name`` argument namespaces the random streams, so different
workloads are independent under one master seed and each reproduces
exactly.  The generators package up the workload recipes experiments
A2 (policy comparison) and A3 (scaling) build inline;
``tests/core/test_workloads.py`` checks the invariants (utilizations
sum to the target, periods stay on the timer grid, chained ports
resolve).
"""

import math

from repro.analysis import TaskSpec, rate_monotonic_priorities
from repro.core.contracts import DistributionSpec, StochasticContract
from repro.core.descriptor import ComponentDescriptor
from repro.core.ports import PortDirection, PortSpec
from repro.rtos.task import TaskType

_NS_PER_SEC = 1_000_000_000


def uunifast(rng, stream, count, total_utilization):
    """Bini-Buttazzo UUniFast: split ``total_utilization`` into
    ``count`` unbiased utilizations.

    Returns a list of floats summing to ``total_utilization``.
    """
    if count <= 0:
        raise ValueError("count must be positive, got %r" % (count,))
    if total_utilization <= 0:
        raise ValueError("total utilization must be positive")
    utilizations = []
    remaining = total_utilization
    for index in range(1, count):
        next_remaining = remaining * (
            rng.random(stream) ** (1.0 / (count - index)))
        utilizations.append(remaining - next_remaining)
        remaining = next_remaining
    utilizations.append(remaining)
    return utilizations


def log_uniform_periods(rng, stream, count, min_period_ns,
                        max_period_ns, quantum_ns=1_000_000):
    """Periods drawn log-uniformly in ``[min, max]``, rounded to the
    timer quantum (default 1 ms -- the benchmarks' tick)."""
    if min_period_ns <= 0 or max_period_ns < min_period_ns:
        raise ValueError("bad period range")
    periods = []
    log_lo = math.log(min_period_ns)
    log_hi = math.log(max_period_ns)
    for _ in range(count):
        raw = math.exp(rng.uniform(stream, log_lo, log_hi))
        snapped = max(quantum_ns,
                      int(round(raw / quantum_ns)) * quantum_ns)
        periods.append(snapped)
    return periods


def generate_taskset(rng, name, count, total_utilization,
                     min_period_ns=1_000_000, max_period_ns=100_000_000,
                     quantum_ns=1_000_000):
    """A random :class:`TaskSpec` set with RM priorities.

    ``name`` seeds the stream namespace, so different names give
    independent sets under the same master seed.
    """
    stream = "workload/%s" % name
    utilizations = uunifast(rng, stream, count, total_utilization)
    periods = log_uniform_periods(rng, stream, count, min_period_ns,
                                  max_period_ns, quantum_ns)
    specs = []
    for index, (utilization, period) in enumerate(
            zip(utilizations, periods)):
        wcet = max(1, int(utilization * period))
        specs.append(TaskSpec("%s_T%02d" % (name.upper()[:2], index),
                              period, wcet))
    priorities = rate_monotonic_priorities(specs)
    return [TaskSpec(spec.name, spec.period_ns, spec.wcet_ns,
                     priority=priorities[spec.name])
            for spec in specs]


def generate_component_set(rng, name, count, total_utilization,
                           chained=False, cpu=0,
                           min_period_ns=1_000_000,
                           max_period_ns=100_000_000,
                           priority_offset=0):
    """Random DRCom descriptors (optionally a dependency chain).

    Returns a list of :class:`ComponentDescriptor`.  Frequencies derive
    from the generated periods; declared ``cpuusage`` equals each
    task's generated utilization (i.e. the descriptors tell the truth).
    ``priority_offset`` shifts every generated priority, which is how
    a second population is made strictly less important than a first
    (lower number = more important throughout the repository) -- the
    C5 load-spike scenario marks its flash-crowd this way so shedding
    eats the spike before the baseline.
    """
    specs = generate_taskset(rng, name, count, total_utilization,
                             min_period_ns, max_period_ns)
    descriptors = []
    for index, spec in enumerate(specs):
        ports = []
        if chained:
            ports.append(PortSpec("%sP%03d" % (name.upper()[:2],
                                               index),
                                  PortDirection.OUT, "RTAI.SHM",
                                  "Integer", 2))
            if index > 0:
                ports.append(PortSpec("%sP%03d" % (name.upper()[:2],
                                                   index - 1),
                                      PortDirection.IN, "RTAI.SHM",
                                      "Integer", 2))
        frequency = _NS_PER_SEC / spec.period_ns
        # Names must be distinct after the six-character RTAI
        # derivation, so bake the index into an RTAI-safe name.
        descriptors.append(ComponentDescriptor(
            name="%sC%03d" % (name.upper()[:2], index),
            implementation="workload.%s.C%03d" % (name, index),
            task_type=TaskType.PERIODIC,
            description="generated workload component",
            cpu_usage=min(1.0, spec.utilization),
            frequency_hz=frequency,
            priority=spec.priority + priority_offset,
            cpu=cpu,
            ports=ports,
        ))
    return descriptors


def deploy_component_set(drcr, descriptors):
    """Deploy a generated population in one reconfiguration round.

    Registers every descriptor inside :meth:`repro.core.DRCR.batch`,
    so a fleet of N components costs one coalesced reconfiguration
    instead of N full rounds -- the deployment path experiments A2/A3
    (and any fleet-scale caller) should use.  Returns the managed
    components in descriptor order.
    """
    with drcr.batch():
        return [drcr.register_component(descriptor)
                for descriptor in descriptors]


#: Defects :func:`generate_defective_fleet` can plant, with the
#: drtlint diagnostic code each one must trigger.
DEFECT_CODES = {
    "cycle": "DRT204",
    "size_mismatch": "DRT202",
    "duplicate_task": "DRT102",
    "overutilization": "DRT301",
    "stochastic_mismatch": "DRT701",
}


def generate_defective_fleet(seed, count=8, defects=None,
                             total_utilization=0.3):
    """A seed-deterministic fleet with *known planted defects*.

    Builds a healthy chained fleet of ``count`` components (see
    :func:`generate_component_set`), then plants each requested defect
    as extra components:

    * ``"cycle"`` -- two components consuming each other's outports
      (drtlint DRT204);
    * ``"size_mismatch"`` -- a provider/consumer pair agreeing on the
      port name but not the size (DRT202);
    * ``"duplicate_task"`` -- two distinct component names that derive
      the same six-character RTAI task name (DRT102);
    * ``"overutilization"`` -- three half-CPU claims pinned to CPU 1
      (DRT301);
    * ``"stochastic_mismatch"`` -- a ``<stochastic>`` clause declaring
      an execution-time mean above the component's derived WCET
      (DRT701; its slow rate also draws the DRT702 verifiability
      warning, which is accurate -- the clause really is untestable at
      5 Hz).

    Returns ``(descriptors, expected_codes)`` where ``expected_codes``
    is the sorted list of diagnostic codes the planted defects must
    produce -- the lint tests and the chaos suite assert the
    error-level findings match it exactly.
    """
    from repro.sim.rng import RandomStreams
    if defects is None:
        defects = tuple(sorted(DEFECT_CODES))
    unknown = [d for d in defects if d not in DEFECT_CODES]
    if unknown:
        raise ValueError("unknown defects: %s (known: %s)"
                         % (", ".join(unknown),
                            ", ".join(sorted(DEFECT_CODES))))
    rng = RandomStreams(seed)
    descriptors = generate_component_set(
        rng, "df", count, total_utilization, chained=True)

    # Planted components run slower than the slowest base-fleet task
    # and at lower priority, so they stay rate-monotonically
    # consistent: the only diagnostics they trigger are the planted
    # ones (plus the admission warnings over-utilization implies).
    def _component(name, frequency_hz=5.0, cpu_usage=0.01, cpu=0,
                   priority=10, ports=()):
        return ComponentDescriptor(
            name=name, implementation="defect.%s" % name,
            task_type=TaskType.PERIODIC, cpu_usage=cpu_usage,
            frequency_hz=frequency_hz, priority=priority, cpu=cpu,
            description="planted defect component", ports=ports)

    if "cycle" in defects:
        descriptors.append(_component("CYCA00", ports=[
            PortSpec("CYCPA0", PortDirection.OUT, "RTAI.SHM",
                     "Integer", 2),
            PortSpec("CYCPB0", PortDirection.IN, "RTAI.SHM",
                     "Integer", 2)]))
        descriptors.append(_component("CYCB00", ports=[
            PortSpec("CYCPB0", PortDirection.OUT, "RTAI.SHM",
                     "Integer", 2),
            PortSpec("CYCPA0", PortDirection.IN, "RTAI.SHM",
                     "Integer", 2)]))
    if "size_mismatch" in defects:
        descriptors.append(_component("MISA00", ports=[
            PortSpec("MISP00", PortDirection.OUT, "RTAI.SHM",
                     "Integer", 4)]))
        descriptors.append(_component("MISB00", ports=[
            PortSpec("MISP00", PortDirection.IN, "RTAI.SHM",
                     "Integer", 8)]))
    if "duplicate_task" in defects:
        # Distinct component names, same canonical RTAI task name
        # (nam2num case-folds) -- the kernel can only register one.
        descriptors.append(_component("DUPT00"))
        descriptors.append(_component("dupt00"))
    if "overutilization" in defects:
        for index in range(3):
            descriptors.append(_component(
                "OVR%03d" % index, cpu_usage=0.5, cpu=1,
                priority=20 + index))
    if "stochastic_mismatch" in defects:
        # WCET derives as ceil(0.01 * 200 ms) = 2 ms; the declared
        # execution-time distribution averages 4 ms -- the CPU claim
        # cannot cover the declared demand (DRT701).
        descriptors.append(ComponentDescriptor(
            name="STOC00", implementation="defect.STOC00",
            task_type=TaskType.PERIODIC, cpu_usage=0.01,
            frequency_hz=5.0, priority=10,
            description="planted defect component",
            stochastic=StochasticContract(
                exectime=DistributionSpec(
                    "uniform", min_ns=3_000_000, max_ns=5_000_000))))
    expected_codes = sorted(DEFECT_CODES[d] for d in defects)
    return descriptors, expected_codes


#: Contract of the planted *bursty* component in
#: :func:`generate_bursty_fleet`: a 1 kHz periodic task claiming a
#: quarter CPU (derived WCET 250 us) whose execution time is declared
#: uniform in [100, 200] us -- comfortably inside the claim, so the
#: descriptor is lint-clean and point-estimate admission accepts it.
BURSTY_FREQUENCY_HZ = 1000.0
BURSTY_CPU_USAGE = 0.25
BURSTY_EXEC_MIN_NS = 100_000
BURSTY_EXEC_MAX_NS = 200_000

#: Contract of the planted *sporadic* component: minimum inter-arrival
#: 2 ms, arrivals declared normal(3 ms, 0.3 ms) -- less than 0.1 % of
#: that distribution's mass lies below the MIA, so the declaration is
#: lint-clean too.
SPORADIC_MIA_NS = 2_000_000
SPORADIC_ARRIVAL_MEAN_NS = 3_000_000
SPORADIC_ARRIVAL_STD_NS = 300_000
SPORADIC_CPU_USAGE = 0.05


def generate_bursty_fleet(rng, name, count=4, total_utilization=0.55,
                          cpu=0, tolerance=0.01, min_samples=32):
    """A fleet for experiment C6: honest base load plus two planted
    components carrying ``<stochastic>`` declarations.

    Returns ``(descriptors, planted)`` where ``planted`` maps
    ``"bursty"`` and ``"sporadic"`` to the planted component names:

    * the **bursty** component (:data:`BURSTY_CPU_USAGE` at
      :data:`BURSTY_FREQUENCY_HZ`) declares its execution time as
      uniform in [:data:`BURSTY_EXEC_MIN_NS`,
      :data:`BURSTY_EXEC_MAX_NS`] -- an implementation that honours
      the declaration passes the :class:`~repro.monitor.service.\
ContractMonitor`'s goodness-of-fit test, one that turns heavy-tailed/
      bimodal is caught within a few epochs even while every job still
      fits the period;
    * the **sporadic** component declares normal inter-arrivals
      (:data:`SPORADIC_ARRIVAL_MEAN_NS` +/-
      :data:`SPORADIC_ARRIVAL_STD_NS`, MIA :data:`SPORADIC_MIA_NS`);
      drive it with :func:`generate_bursty_arrivals` to get MIA-legal
      *clustered* arrivals that point-estimate admission cannot
      distinguish from the declaration but the monitor rejects.

    Both declarations are consistent with their point-estimate
    contracts (no DRT7xx errors): the whole point of C6 is that the
    *descriptors* look fine and only run-time checking can tell the
    declared distributions from the observed ones.

    The planted components take priorities 1 and 2; the base fleet is
    shifted below them, so bursty overruns interfere with the whole
    fleet (that is the "admits-then-thrashes" arm of C6).
    """
    descriptors = generate_component_set(
        rng, name, count, total_utilization, cpu=cpu,
        priority_offset=10)
    prefix = name.upper()[:2]
    descriptors.append(ComponentDescriptor(
        name="%sBRST" % prefix,
        implementation="workload.%s.bursty" % name,
        task_type=TaskType.PERIODIC,
        description="planted bursty component (C6)",
        cpu_usage=BURSTY_CPU_USAGE,
        frequency_hz=BURSTY_FREQUENCY_HZ,
        priority=1, cpu=cpu,
        stochastic=StochasticContract(
            exectime=DistributionSpec(
                "uniform", min_ns=BURSTY_EXEC_MIN_NS,
                max_ns=BURSTY_EXEC_MAX_NS),
            tolerance=tolerance, min_samples=min_samples)))
    descriptors.append(ComponentDescriptor(
        name="%sSPOR" % prefix,
        implementation="workload.%s.sporadic" % name,
        task_type=TaskType.SPORADIC,
        description="planted sporadic component (C6)",
        cpu_usage=SPORADIC_CPU_USAGE,
        min_interarrival_ns=SPORADIC_MIA_NS,
        priority=2, cpu=cpu,
        stochastic=StochasticContract(
            interarrival=DistributionSpec(
                "normal", mean_ns=SPORADIC_ARRIVAL_MEAN_NS,
                std_ns=SPORADIC_ARRIVAL_STD_NS),
            tolerance=tolerance, min_samples=min_samples)))
    planted = {"bursty": "%sBRST" % prefix,
               "sporadic": "%sSPOR" % prefix}
    return descriptors, planted


def generate_bursty_arrivals(rng, name, horizon_ns,
                             burst_at_ns=None,
                             mia_ns=SPORADIC_MIA_NS,
                             mean_ns=SPORADIC_ARRIVAL_MEAN_NS,
                             std_ns=SPORADIC_ARRIVAL_STD_NS,
                             burst_size=4):
    """Arrival instants (ns, sorted) for the planted sporadic component.

    Before ``burst_at_ns`` (default: never) gaps are drawn from the
    *declared* normal distribution, clamped to the MIA -- the honest
    regime.  From ``burst_at_ns`` on, arrivals come in clusters of
    ``burst_size`` spaced exactly ``mia_ns`` apart -- every arrival is
    legal (the kernel throttles nothing), and the long-run rate stays
    at the declared mean, but the inter-arrival *distribution* is
    bimodal: MIA-spaced inside a cluster, one long idle gap between
    clusters.  Point-estimate admission sees nothing wrong; the
    goodness-of-fit test rejects it within an epoch or two.
    """
    stream = "bursty/%s" % name
    if burst_at_ns is None:
        burst_at_ns = horizon_ns
    # The idle gap that keeps the clustered regime's average rate at
    # the declared mean: burst_size arrivals per (idle + bursts) span.
    idle_ns = burst_size * mean_ns - (burst_size - 1) * mia_ns
    arrivals = []
    now = max(mia_ns, int(rng.gauss(stream, mean_ns, std_ns)))
    while now < horizon_ns:
        if now < burst_at_ns:
            arrivals.append(now)
            now += max(mia_ns, int(rng.gauss(stream, mean_ns, std_ns)))
        else:
            for index in range(burst_size):
                if now >= horizon_ns:
                    break
                arrivals.append(now)
                now += mia_ns
            now += idle_ns - mia_ns
    return arrivals


#: Plan defects :func:`generate_defective_plan` can emit, with the
#: single DRT6xx code each one must trigger.
PLAN_DEFECT_CODES = {
    "overcommit": "DRT601",
    "no_n1_headroom": "DRT602",
    "split_application": "DRT603",
    "latency_budget": "DRT604",
    "orphan_rule": "DRT605",
}


def generate_defective_plan(kind):
    """A deployment plan with exactly one planted DRT6xx defect.

    The DRT6xx twin of :func:`generate_defective_fleet`: each ``kind``
    emits a plan document (the :mod:`repro.lint.deployment` schema,
    descriptors inlined) that trips *exactly* its
    :data:`PLAN_DEFECT_CODES` code under ``--family DRT6`` and nothing
    else from that family:

    * ``"overcommit"`` -- three 0.4 claims on a one-CPU node (the
      third cannot be placed, DRT601); a four-CPU second node keeps
      the N-1 analysis clean;
    * ``"no_n1_headroom"`` -- two one-CPU nodes at 0.7 each: both
      host fine, but neither survives the other's loss (DRT602);
    * ``"split_application"`` -- a two-member wired application with
      one member per node (DRT603);
    * ``"latency_budget"`` -- a 3 ms-deadline component behind a 5 ms
      control link: schedulable locally, unreachable in time by any
      management command (DRT604);
    * ``"orphan_rule"`` -- an adaptation rule scoped to (and
      rebalancing) a node the plan never declares (DRT605).

    Returns ``(plan_document, expected_code)``.  Seedless on purpose,
    like :func:`generate_rule_set`: a defective plan is a template
    instantiation, not a random draw.
    """
    if kind not in PLAN_DEFECT_CODES:
        raise ValueError("unknown plan defect %r (known: %s)"
                         % (kind,
                            ", ".join(sorted(PLAN_DEFECT_CODES))))

    def _xml(name, cpu_usage, frequency_hz=10.0, priority=10,
             deadline_ns=None, ports=()):
        return ComponentDescriptor(
            name=name, implementation="plandefect.%s" % name,
            task_type=TaskType.PERIODIC, cpu_usage=cpu_usage,
            frequency_hz=frequency_hz, priority=priority,
            deadline_ns=deadline_ns,
            description="planted plan defect component",
            ports=ports).to_xml()

    plan = {
        "plan_version": 1,
        "name": "defective-%s" % kind,
        "nodes": [{"name": "node0", "num_cpus": 1},
                  {"name": "node1", "num_cpus": 1}],
        "deployments": [],
    }
    if kind == "overcommit":
        plan["nodes"][1]["num_cpus"] = 4  # N-1 stays absorbable
        plan["deployments"].append({"node": "node0", "components": [
            {"xml": _xml("OVC%03d" % index, 0.4,
                         priority=10 + index)}
            for index in range(3)]})
    elif kind == "no_n1_headroom":
        plan["deployments"] = [
            {"node": "node0",
             "components": [{"xml": _xml("HRM000", 0.7)}]},
            {"node": "node1",
             "components": [{"xml": _xml("HRM001", 0.7)}]},
        ]
    elif kind == "split_application":
        plan["deployments"] = [
            {"node": "node0", "components": [
                {"xml": _xml("SRCA00", 0.1, ports=[
                    PortSpec("SPLP00", PortDirection.OUT, "RTAI.SHM",
                             "Integer", 2)])}]},
            {"node": "node1", "components": [
                {"xml": _xml("SNKA00", 0.1, ports=[
                    PortSpec("SPLP00", PortDirection.IN, "RTAI.SHM",
                             "Integer", 2)])}]},
        ]
        plan["applications"] = {"splitp": ["SRCA00", "SNKA00"]}
    elif kind == "latency_budget":
        plan["deployments"].append({"node": "node0", "components": [
            {"xml": _xml("TGT000", 0.2, frequency_hz=100.0,
                         deadline_ns=3_000_000)}]})
        plan["links"] = [{"src": "control", "dst": "node0",
                          "latency_ns": 5_000_000}]
    else:  # orphan_rule
        plan["deployments"].append({"node": "node0", "components": [
            {"xml": _xml("ORP000", 0.1)}]})
        plan["rules"] = [{"document": {
            "schema_version": 1,
            "rules": [{
                "name": "ghost-drain",
                "priority": 10,
                "when": {"param": "deadline_miss_rate", "op": ">",
                         "value": 0.05, "node": "node9",
                         "for_epochs": 2},
                "then": [{"action": "rebalance", "node": "node9",
                          "count": 1}],
                "cooldown_ns": 100_000_000,
            }],
        }}]
    return plan, PLAN_DEFECT_CODES[kind]


#: Rule-set kinds :func:`generate_rule_set` can emit.
RULE_SET_KINDS = ("latency-guard", "miss-rate-guard",
                  "migration-rebalance")


def generate_rule_set(kind, name=None, threshold=None, priority=10,
                      cooldown_ns=100_000_000, for_epochs=1,
                      clear_fraction=0.5, count=1, cpu=None,
                      node=None):
    """A parameterized adaptation rule document (a plain dict).

    The emitted document validates against the schema in
    :mod:`repro.adapt.rules` (docs/ADAPTATION.md has the reference)
    and is what the C5 scenario and the E1 ``spike`` workload feed
    the controller:

    * ``latency-guard`` -- shed the least-important component(s) while
      the windowed ``dispatch_latency_p99`` exceeds ``threshold`` ns
      (default 50 us), re-arming below ``clear_fraction`` of it;
    * ``miss-rate-guard`` -- shed while the windowed
      ``deadline_miss_rate`` exceeds ``threshold`` (default 0.02);
    * ``migration-rebalance`` -- in a federation, migrate the
      least-important component away from ``node`` (or the busiest
      node) while that node's miss rate exceeds ``threshold``
      (default 0.05).

    A scoped policy is one rule per scope: call with ``node=`` once
    per node, as a per-component policy is one ``"component"``-scoped
    rule per named component.  ``json.dump`` the result to get a rule
    *file*; pass it to :func:`repro.adapt.rules.parse_rule_document`
    to get runnable rules.  Seedless on purpose: rule emission is a
    template instantiation, not a random draw.
    """
    if kind not in RULE_SET_KINDS:
        raise ValueError("unknown rule-set kind %r (known: %s)"
                         % (kind, ", ".join(RULE_SET_KINDS)))
    shed = {"action": "shed_lowest_priority", "count": count}
    if cpu is not None:
        shed["cpu"] = cpu
    if kind == "latency-guard":
        threshold = 50_000 if threshold is None else threshold
        rule = {
            "name": name or "latency-guard",
            "priority": priority,
            "when": {"param": "dispatch_latency_p99", "op": ">",
                     "value": threshold, "for_epochs": for_epochs},
            "clear": {"op": "<=",
                      "value": threshold * clear_fraction},
            "then": [shed],
            "cooldown_ns": cooldown_ns,
        }
    elif kind == "miss-rate-guard":
        threshold = 0.02 if threshold is None else threshold
        rule = {
            "name": name or "miss-rate-guard",
            "priority": priority,
            "when": {"param": "deadline_miss_rate", "op": ">",
                     "value": threshold, "for_epochs": for_epochs},
            "then": [shed],
            "cooldown_ns": cooldown_ns,
        }
    else:
        threshold = 0.05 if threshold is None else threshold
        when = {"param": "deadline_miss_rate", "op": ">",
                "value": threshold, "for_epochs": for_epochs}
        rebalance = {"action": "rebalance", "count": count}
        if node is not None:
            when["node"] = node
            rebalance["node"] = node
        rule = {
            "name": name or "migration-rebalance",
            "priority": priority,
            "when": when,
            "then": [rebalance],
            "cooldown_ns": cooldown_ns,
        }
    return {"schema_version": 1, "rules": [rule]}
