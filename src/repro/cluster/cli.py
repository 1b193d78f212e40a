"""``python -m repro cluster``: a scripted federation demo.

Builds an N-node cluster on one simulator, spreads a generated
workload over it via cluster placement, migrates one component
mid-run, then crashes a node and lets SWIM probe detection plus
automatic failover re-home everything.  Prints a fleet report and the
``cluster.*`` telemetry that backs it.

Examples::

    python -m repro cluster
    python -m repro cluster --nodes 5 --components 12 --seconds 2
    python -m repro cluster --latency-us 2000 --jitter-us 500 \\
        --drop 0.05 --seed 11
    python -m repro cluster --json fleet.json
"""

import argparse
import json
import sys

from repro.cluster.federation import Cluster, ClusterError
from repro.cluster.transport import LinkSpec
from repro.sim.engine import MSEC, SEC, USEC
from repro.sim.rng import RandomStreams
from repro.telemetry.export import check_writable
from repro.workloads import generate_component_set


def _parse_args(argv):
    parser = argparse.ArgumentParser(
        prog="python -m repro cluster",
        description="Run the multi-node federation demo: deploy, "
                    "migrate, crash a node, fail over.")
    parser.add_argument("--nodes", type=int, default=3, metavar="N",
                        help="number of nodes (default 3)")
    parser.add_argument("--components", type=int, default=6,
                        metavar="K",
                        help="workload components to deploy "
                             "(default 6)")
    parser.add_argument("--utilization", type=float, default=0.6,
                        metavar="U",
                        help="total declared utilization of the "
                             "workload (default 0.6)")
    parser.add_argument("--seconds", type=int, default=1, metavar="S",
                        help="simulated seconds to run (default 1)")
    parser.add_argument("--heartbeat-ms", type=int, default=10,
                        metavar="MS",
                        help="probe interval (default 10 ms)")
    parser.add_argument("--latency-us", type=int, default=500,
                        metavar="US",
                        help="link latency (default 500 us)")
    parser.add_argument("--jitter-us", type=int, default=0,
                        metavar="US", help="link jitter (default 0)")
    parser.add_argument("--drop", type=float, default=0.0,
                        metavar="P",
                        help="link drop probability (default 0)")
    parser.add_argument("--seed", type=int, default=7,
                        help="master seed (default 7)")
    parser.add_argument("--no-crash", action="store_true",
                        help="skip the node crash / failover act")
    parser.add_argument("--json", metavar="PATH", default=None,
                        help="also write the fleet report as JSON")
    parser.add_argument("--export-plan", metavar="PATH", default=None,
                        help="write the live fleet's deployment plan "
                             "(lintable with python -m repro lint "
                             "--family DRT6)")
    args = parser.parse_args(argv)
    if args.nodes < 2:
        parser.error("--nodes must be >= 2 (a federation)")
    if args.components < 1:
        parser.error("--components must be >= 1")
    if args.seconds < 1:
        parser.error("--seconds must be >= 1")
    return args


def _unusable(error):
    """Report unusable input or an unwritable output path; returns
    exit status 2."""
    sys.stderr.write("python -m repro cluster: %s\n" % (error,))
    return 2


def main(argv=None):
    """Run the demo; returns a process exit code."""
    args = _parse_args(sys.argv[1:] if argv is None else argv)
    try:
        check_writable(args.json, args.export_plan)
        link = LinkSpec(latency_ns=args.latency_us * USEC,
                        jitter_ns=args.jitter_us * USEC,
                        drop_probability=args.drop)
        descriptors = generate_component_set(
            RandomStreams(args.seed), "cl", args.components,
            total_utilization=args.utilization)
        cluster = Cluster(
            node_names=tuple("node%d" % i for i in range(args.nodes)),
            seed=args.seed, link=link,
            heartbeat_interval_ns=args.heartbeat_ms * MSEC)
    except (ValueError, OSError) as error:
        return _unusable(error)
    print("== deploy: %d components over %d nodes =="
          % (len(descriptors), args.nodes))
    try:
        for descriptor in descriptors:
            node = cluster.deploy(descriptor.to_xml())
            print("  %-8s -> %s" % (descriptor.name, node))
        third = args.seconds * SEC // 3
        cluster.run_for(third)

        victim_component = descriptors[0].name
        src = cluster.deployments[victim_component]
        migration_id = cluster.migrate(victim_component)
    except ClusterError as error:
        # No node fits a component, or no other node fits the
        # migrating one: the fleet is too small for the workload.
        cluster.shutdown()
        return _unusable(error)
    cluster.run_for(third)
    migration = cluster.migration(migration_id)
    print("== migrate: %s %s -> %s (%s, %d attempt(s)) =="
          % (victim_component, src, migration["dst"],
             migration["outcome"], migration["attempts"] + 1))

    if not args.no_crash:
        victims = [home for home in cluster.deployments.values()]
        victim_node = victims[0] if victims else "node1"
        print("== crash: %s (probes go unanswered) ==" % victim_node)
        cluster.crash_node(victim_node)
    cluster.run_for(args.seconds * SEC - 2 * third)

    report = cluster.report()
    print("== fleet after %.2f s ==" % (report["time_ns"] / SEC))
    print("  members: %s   dead: %s"
          % (", ".join(report["members"]) or "-",
             ", ".join(report["dead"]) or "-"))
    for comp, home in sorted(report["deployments"].items()):
        print("  %-8s on %s" % (comp, home))
    for failover in report["failovers"]:
        print("  failover of %s at %.3f s: %d moved, %d unplaced"
              % (failover["node"], failover["at_ns"] / SEC,
                 len(failover["moved"]), len(failover["unplaced"])))
    metrics = cluster.sim.telemetry.registry("cluster")
    print("== cluster telemetry ==")
    for name in ("messages_sent_total", "messages_delivered_total",
                 "messages_dropped_total", "probes_sent_total",
                 "indirect_probes_total", "suspicions_total",
                 "refutations_total", "nodes_declared_dead_total",
                 "migrations_total", "failovers_total",
                 "failover_components_total"):
        instrument = metrics.get(name)
        if instrument is not None:
            print("  %-28s %d" % (name, instrument.value))
    try:
        if args.json:
            with open(args.json, "w") as handle:
                json.dump(report, handle, indent=2, sort_keys=True)
            print("wrote fleet report to %s" % args.json)
        if args.export_plan:
            with open(args.export_plan, "w") as handle:
                json.dump(cluster.export_plan(), handle, indent=2)
            print("wrote deployment plan to %s" % args.export_plan)
    except OSError as error:
        return _unusable(error)
    finally:
        cluster.shutdown()
    return 0


if __name__ == "__main__":
    sys.exit(main())
