"""Cluster-level placement: from "which CPU" to "which node".

:mod:`repro.core.placement` owns the fit test and the one node-choice
rule, :func:`~repro.core.placement.best_node`; this service only lists
the federation's nodes for it, each with its per-CPU
:meth:`~repro.core.registry.ComponentRegistry.declared_utilization`.
Deploys, migration targets and failover all ask it.

The cluster picks the node; the chosen node's own placement service
(:class:`~repro.core.placement.BestFitPlacement` by default) re-pins
the CPU at admission, and its resolving services re-decide admission.
A placement choice here is a routing decision, never an admission
bypass.
"""

from repro.core.placement import best_node, pack


class ClusterPlacementService:
    """The least-loaded alive node whose CPUs can place the claims."""

    #: Policy name for traces and reports.
    name = "cluster-best-fit"

    #: Per-CPU budget on every node (exported as each plan node's
    #: ``cap``).
    cap = 1.0

    def __init__(self, cluster):
        self.cluster = cluster

    def choose_node(self, *claims, exclude=(), pending=None):
        """The alive node :func:`~repro.core.placement.best_node`
        picks for ``claims`` (a co-located group lands whole; a
        :class:`~repro.core.placement.PinnedClaim` takes only its own
        CPU), or ``None``; nodes in ``alive_nodes()`` order, minus
        ``exclude``.
        ``pending`` maps a node name to claims promised to it but not
        yet in its registry, packed onto its CPUs first."""
        names = []
        nodes = []
        pending = pending or {}
        for node in self.cluster.alive_nodes():
            if node.name in exclude:
                continue
            registry = node.drcr.registry
            num_cpus = node.kernel.config.num_cpus
            loads = [registry.declared_utilization(cpu)
                     for cpu in range(num_cpus)]
            caps = [self.cap] * num_cpus
            pack(loads, pending.get(node.name, ()), caps)
            names.append(node.name)
            nodes.append((sum(loads), loads, caps))
        best = best_node(nodes, claims)
        return names[best[0]] if best is not None else None

    choose_node_for_group = choose_node  # the E1 scenarios' old name

    def utilization_map(self):
        """Declared utilization per (node, CPU), for reports."""
        return {
            node.name: {
                cpu: node.drcr.registry.declared_utilization(cpu)
                for cpu in range(node.kernel.config.num_cpus)
            }
            for node in self.cluster.alive_nodes()
        }

    def __repr__(self):
        return "ClusterPlacementService(cap=%.2f)" % self.cap
