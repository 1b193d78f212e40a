"""The static-vs-treated experiments C5 and C6 (EXPERIMENTS.md).

Each experiment deploys one fleet twice on identical seeds: a *static*
arm that nothing steers and a *treated* arm whose treatment reacts at
run time.  :func:`run_arm` runs one arm and reports the deadline-miss
rate of each named window between the experiment's timeline marks;
:func:`run_comparison` runs both arms; :func:`main` is the CLI behind
``python -m repro adapt`` (:class:`LoadSpike`, C5) and ``python -m
repro contracts`` (:class:`BurstyContracts`, C6).  The CLI, the
integration tests and the CI smoke jobs all call these functions, so
an experiment cannot drift from what ships.
"""

import argparse
import json
from contextlib import contextmanager
from types import SimpleNamespace

from repro.adapt.controller import AdaptationController
from repro.adapt.rules import load_rule_file, parse_rule_document
from repro.core.policies import AlwaysAcceptPolicy
from repro.faults.recovery import QuarantinePolicy
from repro.hybrid.implementation import RTImplementation, \
    default_registry
from repro.monitor.service import ContractMonitor
from repro.platform import build_platform
from repro.sim.engine import MSEC, SEC
from repro.sim.rng import RandomStreams
from repro.telemetry.export import check_writable
from repro.workloads import (
    BURSTY_EXEC_MAX_NS,
    BURSTY_EXEC_MIN_NS,
    deploy_component_set,
    generate_bursty_arrivals,
    generate_bursty_fleet,
    generate_component_set,
    generate_rule_set,
)


def run_arm(experiment, treated, seed=7, seconds=2.0, epoch_ns=None):
    """Run one arm of ``experiment``; returns its report dict.

    ``experiment.deploy(seed, total_ns)`` is a context manager yielding
    a namespace with ``platform``, ``descriptors`` and ``marks``, the
    ``(name, at_ns, action)`` timeline ending at ``total_ns``: the rtos
    counters are read at each mark, then ``action`` (if any) runs.  The
    treated arm runs ``experiment.start(platform, epoch_ns)`` first and
    reports what ``experiment.stop`` returns under
    ``experiment.treatment``.  Each of ``experiment.windows`` (``"start"``
    is t=0) reports its misses, releases and miss rate;
    ``experiment.fields`` adds the experiment's own entries.
    """
    if epoch_ns is None:
        epoch_ns = experiment.epoch_ms * MSEC
    readings = {"start": (0, 0)}
    with experiment.deploy(seed, int(seconds * SEC)) as fleet:
        platform = fleet.platform
        treatment = experiment.start(platform, epoch_ns) \
            if treated else None
        elapsed_ns = 0
        for mark, at_ns, action in fleet.marks:
            platform.run_for(at_ns - elapsed_ns)
            elapsed_ns = at_ns
            rtos = platform.telemetry.registry("rtos")
            readings[mark] = (rtos.counter("deadline_misses_total").value,
                              rtos.counter("releases_total").value)
            if action is not None:
                action()
    states = {descriptor.name:
              platform.drcr.component_state(descriptor.name).value
              for descriptor in fleet.descriptors}
    report = {"arm": experiment.arm if treated else "static",
              "seed": seed, "seconds": seconds, "states": states}
    for window, (first, last) in experiment.windows.items():
        misses = readings[last][0] - readings[first][0]
        releases = readings[last][1] - readings[first][1]
        report[window] = {
            "deadline_misses": misses,
            "releases": releases,
            "miss_rate": misses / releases if releases > 0 else 0.0,
        }
    report.update(experiment.fields(fleet, states))
    report[experiment.treatment] = (
        experiment.stop(treatment, platform) if treated else None)
    platform.shutdown()
    return report


def run_comparison(experiment, **kwargs):
    """Both arms on identical seeds: ``{"static": ..., arm: ...}``."""
    return {
        "static": run_arm(experiment, False, **kwargs),
        experiment.arm: run_arm(experiment, True, **kwargs),
    }


# ----------------------------------------------------------------------
# C5: load spike, shed by adaptation rules
# ----------------------------------------------------------------------

#: The baseline fleet: few components, comfortably schedulable.
BASE_COUNT = 4
BASE_UTILIZATION = 0.55
#: The flash crowd: pushes declared demand to ~1.45.
SPIKE_COUNT = 6
SPIKE_UTILIZATION = 0.90
#: The spike lands a third of the way into the run.
SPIKE_AT_FRACTION = 1 / 3
#: Priority offset of spike components: far less important than any
#: baseline component, so shedding eats the spike first.
SPIKE_PRIORITY_OFFSET = 100


def default_rules():
    """The stock C5 rule set: a miss-rate guard that sheds hard."""
    return parse_rule_document(generate_rule_set(
        "miss-rate-guard", threshold=0.02, count=2, cooldown_ns=0))


class LoadSpike:
    """C5: declarative rules shed a flash crowd that a static
    deployment suffers.  ``rules`` (already-parsed
    :class:`~repro.adapt.rules.AdaptationRule` list) drive the treated
    arm; ``None`` means :func:`default_rules`."""

    arm = "rules"
    treatment = "adapt"
    onset = "spike"
    windows = {"pre": ("start", "spike"), "post": ("spike", "end")}
    epoch_ms = 20
    description = ("Run the C5 load-spike scenario: declarative rules "
                   "shed load while a static deployment degrades.")

    def __init__(self, rules=None):
        self.rules = default_rules() if rules is None else rules

    @staticmethod
    def add_arguments(parser):
        parser.add_argument("--rules", metavar="RULES.json",
                            help="rule file to drive the adaptive arm "
                                 "(default: the stock miss-rate guard "
                                 "from workloads.generate_rule_set)")

    @classmethod
    def from_args(cls, args):
        return cls(load_rule_file(args.rules) if args.rules else None)

    @contextmanager
    def deploy(self, seed, total_ns):
        platform = build_platform(seed=seed,
                                  internal_policy=AlwaysAcceptPolicy())
        platform.start_timer(1 * MSEC)
        rng = RandomStreams(seed)
        base = generate_component_set(rng, "base", BASE_COUNT,
                                      total_utilization=BASE_UTILIZATION)
        spike = generate_component_set(
            rng, "spike", SPIKE_COUNT,
            total_utilization=SPIKE_UTILIZATION,
            priority_offset=SPIKE_PRIORITY_OFFSET)
        deploy_component_set(platform.drcr, base)
        marks = [("spike", int(total_ns * SPIKE_AT_FRACTION),
                  lambda: deploy_component_set(platform.drcr, spike)),
                 ("end", total_ns, None)]
        yield SimpleNamespace(platform=platform,
                              descriptors=base + spike, marks=marks)

    def start(self, platform, epoch_ns):
        return AdaptationController(platform, epoch_ns=epoch_ns,
                                    rules=self.rules).start()

    def stop(self, controller, platform):
        controller.stop()
        findings = controller.report()
        findings["rules_fired_total"] = \
            findings["counters"]["rules_fired_total"]
        return findings

    def fields(self, fleet, states):
        protected = fleet.descriptors[0].name
        task = fleet.platform.kernel.lookup(protected)
        return {
            "protected": {"component": protected,
                          "deadline_misses": task.stats.deadline_misses},
            "active": sorted(name for name, state in states.items()
                             if state == "active"),
        }

    def heading(self, report):
        return ""

    def details(self, report):
        yield ("  protected %s misses: %s"
               % (report["protected"]["component"],
                  report["protected"]["deadline_misses"]))
        yield ("  active components: %s"
               % (", ".join(report["active"]) or "-"))
        adapt = report["adapt"]
        if adapt:
            counters = adapt["counters"]
            yield ("  adapt: %d epochs, %d fired, %d suppressed, %d "
                   "actions (%d errors)"
                   % (counters["epochs_total"],
                      counters["rules_fired_total"],
                      counters["rules_suppressed_total"],
                      counters["actions_executed_total"],
                      counters["action_errors_total"]))
            for entry in adapt["history"]:
                yield ("    %8.3f s  %-18s %s"
                       % (entry["at_ns"] / 1e9, entry["rule"],
                          entry["outcome"]))

    def verdict(self, static, treated):
        return ("static post-spike miss rate is %.1fx the rule-driven "
                "one" % (static["post"]["miss_rate"]
                         / max(treated["post"]["miss_rate"], 1e-9)))


# ----------------------------------------------------------------------
# C6: bursty load, contained by the stochastic-contract monitor
# ----------------------------------------------------------------------

#: The planted components turn bursty a third of the way into the run.
BURST_AT_FRACTION = 1 / 3

#: Execution time of the bursty component's heavy jobs after onset:
#: still inside the 1 ms period (each job *individually* completes),
#: but 3.6x the declared WCET -- the overload only shows up as
#: interference on everything below it.
HEAVY_EXEC_NS = 900_000

#: Fraction of post-onset jobs that go heavy.
HEAVY_FRACTION = 0.5

#: Quarantine cooldown used by both arms: long enough that a
#: quarantined component stays out for the rest of the run (C6 measures
#: containment, not re-admission).
QUARANTINE_COOLDOWN_NS = 100 * SEC

BURSTY_BINCODE = "workload.c6.bursty"
SPORADIC_BINCODE = "workload.c6.sporadic"


class BurstyImplementation(RTImplementation):
    """Honours the declared uniform execution time until ``burst_at_ns``,
    then goes bimodal (:data:`HEAVY_FRACTION` of jobs at
    :data:`HEAVY_EXEC_NS`)."""

    def __init__(self, clock, burst_at_ns, stream):
        self._clock = clock
        self._burst_at_ns = burst_at_ns
        self._stream = stream

    def compute_ns(self, ctx):
        if self._clock() >= self._burst_at_ns \
                and self._stream.random() < HEAVY_FRACTION:
            return HEAVY_EXEC_NS
        return int(self._stream.uniform(BURSTY_EXEC_MIN_NS,
                                        BURSTY_EXEC_MAX_NS))


class SporadicJobImplementation(RTImplementation):
    """A small constant job per arrival; the contract violation of the
    sporadic component lives in its *arrival process*, not its jobs."""

    def compute_ns(self, ctx):
        return 50_000


class BurstyContracts:
    """C6: a stochastic-contract monitor quarantines the components
    whose observed timing rejects their declared distributions, while
    the identical point-estimate deployment degrades.  The ``tail``
    window is the final third, after the monitored arm has had time to
    quarantine."""

    arm = "stochastic"
    treatment = "monitor"
    onset = "burst"
    windows = {"pre": ("start", "burst"), "post": ("burst", "end"),
               "tail": ("tail", "end")}
    epoch_ms = 100
    description = ("Run the C6 bursty-contract scenario: a stochastic-"
                   "contract monitor quarantines the misbehaving "
                   "components while a point-estimate deployment "
                   "degrades.")

    @staticmethod
    def add_arguments(parser):
        pass

    @classmethod
    def from_args(cls, args):
        return cls()

    @contextmanager
    def deploy(self, seed, total_ns):
        burst_at_ns = int(total_ns * BURST_AT_FRACTION)
        rng = RandomStreams(seed)
        descriptors, planted = generate_bursty_fleet(rng, "c6")
        arrivals = generate_bursty_arrivals(rng, "c6", total_ns,
                                            burst_at_ns=burst_at_ns)
        platform = build_platform(seed=seed)
        platform.drcr.set_recovery_policy(
            QuarantinePolicy(cooldown_ns=QUARANTINE_COOLDOWN_NS))
        platform.start_timer(1 * MSEC)
        default_registry.register(
            BURSTY_BINCODE,
            lambda: BurstyImplementation(lambda: platform.sim.now,
                                         burst_at_ns,
                                         rng.stream("bursty-exec/c6")))
        default_registry.register(SPORADIC_BINCODE,
                                  SporadicJobImplementation)
        try:
            deploy_component_set(platform.drcr, descriptors)
            sporadic_task_name = next(
                d.task_name for d in descriptors
                if d.name == planted["sporadic"])

            def release_sporadic():
                # The component may be quarantined (task deleted) or
                # suspended by the time an arrival lands; those
                # arrivals simply vanish, like events into a stopped
                # service.
                if platform.kernel.exists(sporadic_task_name):
                    task = platform.kernel.lookup(sporadic_task_name)
                    if not task.suspended:
                        platform.kernel.release_task(task)

            for instant in arrivals:
                platform.sim.schedule_at(instant, release_sporadic,
                                         label="c6:arrival")
            marks = [("burst", burst_at_ns, None),
                     ("tail", total_ns - total_ns // 3, None),
                     ("end", total_ns, None)]
            yield SimpleNamespace(platform=platform,
                                  descriptors=descriptors, marks=marks,
                                  planted=planted,
                                  burst_at_ns=burst_at_ns)
        finally:
            default_registry.unregister(BURSTY_BINCODE)
            default_registry.unregister(SPORADIC_BINCODE)

    def start(self, platform, epoch_ns):
        monitor = ContractMonitor(platform, epoch_ns=epoch_ns)
        monitor.start()
        return monitor

    def stop(self, monitor, platform):
        registry = platform.telemetry.registry("contracts")
        findings = {name: registry.counter(name).value for name in
                    ("checks_total", "violations_total",
                     "quarantines_total")}
        findings["violations"] = [
            {"time_ns": time_ns, "component": component,
             "clause": clause, "p_value": p_value}
            for time_ns, component, clause, p_value in monitor.violations]
        monitor.stop()
        return findings

    def fields(self, fleet, states):
        return {
            "burst_at_ns": fleet.burst_at_ns,
            "planted": fleet.planted,
            "quarantined": sorted(name for name, state in states.items()
                                  if state == "disabled"),
        }

    def heading(self, report):
        return ", burst at %.2f s" % (report["burst_at_ns"] / 1e9)

    def details(self, report):
        yield ("  quarantined: %s"
               % (", ".join(report["quarantined"]) or "-"))
        monitor = report["monitor"]
        if monitor:
            yield ("  monitor: %d checks, %d violations, %d quarantines"
                   % (monitor["checks_total"],
                      monitor["violations_total"],
                      monitor["quarantines_total"]))
            for violation in monitor["violations"]:
                yield ("    %8.3f s  %s/%s  p=%.3g"
                       % (violation["time_ns"] / 1e9,
                          violation["component"], violation["clause"],
                          violation["p_value"]))

    def verdict(self, static, treated):
        static_tail = static["tail"]["miss_rate"]
        treated_tail = treated["tail"]["miss_rate"]
        if treated_tail > 0:
            return ("static tail miss rate is %.1fx the monitored one"
                    % (static_tail / treated_tail))
        return ("static tail miss rate is %.2f%%; the monitored arm's "
                "is zero" % (100.0 * static_tail))


# ----------------------------------------------------------------------
# the CLI
# ----------------------------------------------------------------------

#: Subcommand of ``python -m repro`` -> the experiment it runs.
EXPERIMENTS = {"adapt": LoadSpike, "contracts": BurstyContracts}


def _positive(kind):
    """An argparse ``type=``: ``kind(text)`` if positive and finite."""
    def positive(text):
        value = kind(text)
        if not 0 < value < float("inf"):
            raise ValueError(text)
        return value
    return positive


def _print_arm(experiment, report):
    print("== %s arm (seed %d, %.2f s%s) =="
          % (report["arm"], report["seed"], report["seconds"],
             experiment.heading(report)))
    for window in experiment.windows:
        stats = report[window]
        print("  %-4s %s: miss rate %6.2f%%  (%d misses / %d "
              "releases)" % (window, experiment.onset,
                             100.0 * stats["miss_rate"],
                             stats["deadline_misses"],
                             stats["releases"]))
    for line in experiment.details(report):
        print(line)


def main(name, argv):
    """``python -m repro <name> [options]``: run the experiment that
    :data:`EXPERIMENTS` maps ``name`` to; returns a process exit code.
    Unusable input exits with status 2 and a one-line diagnostic.

    Besides the :func:`run_arm` hooks, the experiment class supplies
    its ``description``, default ``epoch_ms`` and own options
    (``add_arguments``, ``from_args``), and how an arm prints
    (``heading``, ``onset``, ``details``) and a comparison ends
    (``verdict``)."""
    definition = EXPERIMENTS[name]
    parser = argparse.ArgumentParser(prog="python -m repro " + name,
                                     description=definition.description)
    definition.add_arguments(parser)
    parser.add_argument("--seconds", type=_positive(float),
                        default=2.0, metavar="S",
                        help="simulated seconds (default 2)")
    parser.add_argument("--epoch-ms", type=_positive(int),
                        default=definition.epoch_ms, metavar="MS",
                        help="epoch of the %s arm (default %d ms)"
                             % (definition.arm, definition.epoch_ms))
    parser.add_argument("--seed", type=int, default=7,
                        help="master seed (default 7)")
    arms = parser.add_mutually_exclusive_group()
    arms.add_argument("--static", action="store_true",
                      help="run only the static arm")
    arms.add_argument("--compare", action="store_true",
                      help="run both arms and print them side by side")
    parser.add_argument("--json", metavar="PATH",
                        help="also write the report(s) as JSON")
    args = parser.parse_args(argv)
    try:
        experiment = definition.from_args(args)
        check_writable(args.json)
    except (ValueError, OSError) as error:
        parser.exit(2, "%s: %s\n" % (name, error))
    kwargs = {"seed": args.seed, "seconds": args.seconds,
              "epoch_ns": args.epoch_ms * MSEC}
    if args.compare:
        document = run_comparison(experiment, **kwargs)
        static, treated = document["static"], document[experiment.arm]
        _print_arm(experiment, static)
        _print_arm(experiment, treated)
        print(experiment.verdict(static, treated))
    else:
        document = run_arm(experiment, not args.static, **kwargs)
        _print_arm(experiment, document)
    if args.json:
        try:
            with open(args.json, "w") as handle:
                json.dump(document, handle, indent=2, sort_keys=True)
        except OSError as error:
            parser.exit(2, "%s: %s\n" % (name, error))
        print("wrote report to %s" % args.json)
    return 0
