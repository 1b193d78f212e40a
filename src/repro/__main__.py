"""``python -m repro``: a one-command demonstration.

Runs the paper's section-4.2 application (a 1000 Hz calculation task
feeding a 250 Hz display task) for one simulated second and prints the
DRCR system report plus the calculation task's Table-1-style latency
summary.

Observability flags (see ``docs/OBSERVABILITY.md``):

``--trace out.json``
    export the run as Chrome trace-event JSON (open in
    ``chrome://tracing`` or https://ui.perfetto.dev);
``--metrics metrics.json``
    dump every telemetry counter/gauge/histogram as JSON;
``--no-telemetry``
    run with ``Telemetry(enabled=False)`` -- the single switch that
    turns all metric collection off;
``--seconds N``
    simulate N seconds instead of one;
``--faults PLAN``
    run a chaos experiment: arm the named fault plan (``examples`` for
    the built-in one, else a JSON plan file) against the pipeline and
    print the injection report (see ``docs/FAULT_INJECTION.md``).

Subcommands:

``python -m repro lint <paths...> [--json] [--fail-on SEVERITY]``
    run drtlint, the whole-deployment static verifier, over descriptor
    files / example modules without starting a runtime (see
    ``docs/STATIC_ANALYSIS.md``).

``python -m repro cluster [--nodes N] [--components K] ...``
    run the multi-node federation demo: deploy a workload across a
    simulated cluster, migrate a component, crash a node and watch
    heartbeat detection plus automatic failover re-home its components
    (see ``docs/ARCHITECTURE.md``, Federation section).

``python -m repro adapt [--rules RULES.json] [--compare] ...``
    run the C5 load-spike experiment (:mod:`repro.experiments`):
    declarative adaptation rules shed load when the deadline-miss rate
    spikes, while the identical static deployment degrades (see
    ``docs/ADAPTATION.md``).

``python -m repro contracts [--compare] ...``
    run the C6 bursty-contract experiment (:mod:`repro.experiments`):
    a stochastic-contract monitor quarantines components whose
    observed timing rejects their declared distributions, while the
    identical point-estimate deployment degrades (see
    ``docs/ARCHITECTURE.md``, Stochastic contracts section).
"""

import argparse
import sys

from repro import build_platform
from repro.core.inspection import system_report
from repro.rtos.errors import UnknownObjectError
from repro.sim.engine import MSEC, SEC
from repro.telemetry.export import check_writable
from repro.telemetry.metrics import Telemetry

CALC_XML = """<?xml version="1.0" encoding="UTF-8"?>
<drt:component name="CALC00" desc="simulated computing job, 1000 Hz"
               type="periodic" enabled="true" cpuusage="0.03">
  <implementation bincode="demo.Calculation"/>
  <periodictask frequence="1000" runoncpu="0" priority="2"/>
  <outport name="LATDAT" interface="RTAI.SHM" type="Integer" size="4"/>
</drt:component>
"""

DISP_XML = """<?xml version="1.0" encoding="UTF-8"?>
<drt:component name="DISP00" desc="latency display, rate 4"
               type="periodic" enabled="true" cpuusage="0.01">
  <periodictask frequence="250" runoncpu="0" priority="3"/>
  <implementation bincode="demo.Display"/>
  <inport name="LATDAT" interface="RTAI.SHM" type="Integer" size="4"/>
</drt:component>
"""


def _positive_int(text):
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(
            "must be a positive number of seconds, got %r" % text)
    return value


def _unusable(error):
    """Report unusable input or an unwritable output path; returns
    exit status 2."""
    sys.stderr.write("python -m repro: %s\n" % (error,))
    return 2


def _parse_args(argv=None):
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="Run the paper's section-4.2 demo pipeline and "
                    "print the DRCR system report.")
    parser.add_argument("--trace", metavar="PATH", default=None,
                        help="write a Chrome trace-event JSON file "
                             "(chrome://tracing / Perfetto)")
    parser.add_argument("--metrics", metavar="PATH", default=None,
                        help="write the telemetry metrics as JSON")
    parser.add_argument("--seconds", type=_positive_int, default=1,
                        metavar="N",
                        help="simulated seconds to run (default 1)")
    parser.add_argument("--no-telemetry", action="store_true",
                        help="disable all metric collection")
    parser.add_argument("--faults", metavar="PLAN", default=None,
                        help="arm a fault plan ('examples' for the "
                             "built-in chaos plan, or a JSON plan file)")
    return parser.parse_args(argv)


def main(argv=None):
    """Dispatch subcommands, else run the demo pipeline."""
    if argv is None:
        argv = sys.argv[1:]
    if argv and argv[0] == "lint":
        from repro.lint.cli import main as lint_main
        return lint_main(argv[1:])
    if argv and argv[0] == "cluster":
        from repro.cluster.cli import main as cluster_main
        return cluster_main(argv[1:])
    if argv and argv[0] in ("adapt", "contracts"):
        from repro.experiments import main as experiment_main
        return experiment_main(argv[0], argv[1:])
    args = _parse_args(argv)
    plan = None
    if args.faults is not None:
        from repro.faults import load_plan
        try:
            plan = load_plan(args.faults)
        except (OSError, ValueError) as error:
            return _unusable("--faults %s: %s" % (args.faults, error))
    try:
        check_writable(args.trace, args.metrics)
    except OSError as error:
        return _unusable(error)
    telemetry = Telemetry(enabled=not args.no_telemetry)
    platform = build_platform(seed=2008, telemetry=telemetry)
    platform.start_timer(1 * MSEC)
    engine = None
    if plan is not None:
        from repro.faults import FaultEngine, FaultPlanError
        try:
            engine = FaultEngine(platform, plan).arm()
        except FaultPlanError as error:
            platform.shutdown()
            return _unusable("--faults %s: %s" % (args.faults, error))
    for name, xml in (("demo.calc", CALC_XML), ("demo.disp", DISP_XML)):
        platform.install_and_start(
            {"Bundle-SymbolicName": name,
             "RT-Component": "OSGI-INF/c.xml"},
            resources={"OSGI-INF/c.xml": xml})
    platform.run_for(args.seconds * SEC)
    print(system_report(platform.drcr))
    if engine is not None:
        print()
        print(engine.format_report())
    try:
        calc = platform.kernel.lookup("CALC00")
    except UnknownObjectError:
        print()
        print("CALC00 is not running at the end of the run "
              "(quarantined by the fault plan?)")
    else:
        summary = calc.stats.latency.summary()
        print()
        print("CALC00 scheduling latency (ns): avg=%.1f avedev=%.1f "
              "min=%d max=%d over %d jobs"
              % (summary["average"], summary["avedev"], summary["min"],
                 summary["max"], summary["count"]))
    try:
        if args.trace:
            document = platform.export_trace(args.trace)
            print("wrote Chrome trace (%d events) to %s"
                  % (len(document["traceEvents"]), args.trace))
        if args.metrics:
            platform.export_metrics(args.metrics)
            print("wrote metrics to %s" % args.metrics)
    except OSError as error:
        return _unusable(error)
    finally:
        platform.shutdown()
    return 0


if __name__ == "__main__":
    sys.exit(main())
