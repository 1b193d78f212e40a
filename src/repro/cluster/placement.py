"""Cluster-level placement: from "which CPU" to "(node, CPU)".

:mod:`repro.core.placement` owns the fit test and the best-fit choice;
this service only lists the federation's slots for it.  The outer
question comes first: *which node*.  :meth:`ClusterPlacementService
.choose_node` hands :func:`~repro.core.placement.best_fit` every
(node, CPU) slot across the membership, loaded with each node's
:meth:`~repro.core.registry.ComponentRegistry.declared_utilization`;
:meth:`~ClusterPlacementService.choose_node_for_group` hands it one
slot per node, sized ``num_cpus * cap``.

The cluster picks the node; the chosen node's own placement service
(:class:`~repro.core.placement.BestFitPlacement` by default) re-pins
the CPU at admission, and its resolving services re-decide admission.
A placement choice here is a routing decision, never an admission
bypass.
"""

from repro.core.placement import best_fit


class ClusterPlacementService:
    """Best-fit over every (node, CPU) slot in the membership."""

    #: Policy name for traces and reports.
    name = "cluster-best-fit"

    #: Per-CPU budget of every slot (exported as each plan node's
    #: ``cap``).
    cap = 1.0

    def __init__(self, cluster):
        self.cluster = cluster

    def choose_node(self, cpu_usage, exclude=(), extra_load=None):
        """The node holding the least-loaded CPU slot that fits
        ``cpu_usage``, or ``None`` when nothing does.

        Slots are scanned in ``alive_nodes()`` order, then CPU index;
        ``exclude`` names nodes not to consider (the dead node during
        failover, the source during migration target choice).
        ``extra_load`` maps ``(node_name, cpu)`` to budget already
        promised but not yet visible in the registries.
        """
        names = []
        loads = []
        extra_load = extra_load or {}
        for node in self.cluster.alive_nodes():
            if node.name in exclude:
                continue
            registry = node.drcr.registry
            for cpu in range(node.kernel.config.num_cpus):
                names.append(node.name)
                loads.append(registry.declared_utilization(cpu)
                             + extra_load.get((node.name, cpu), 0.0))
        best = best_fit(loads, cpu_usage, [self.cap] * len(loads))
        return names[best] if best is not None else None

    def choose_node_for_group(self, total_usage, exclude=(),
                              extra_node_load=None):
        """The node with the most total headroom that fits a whole
        co-located group (a wired application: its ports resolve in
        one node's kernel, so the members must land together).

        Node capacity is ``num_cpus * cap``; the node's own placement
        service spreads the members over its CPUs at admission.
        ``extra_node_load`` maps node name to budget already promised
        to earlier groups in the same plan."""
        names = []
        loads = []
        caps = []
        extra_node_load = extra_node_load or {}
        for node in self.cluster.alive_nodes():
            if node.name in exclude:
                continue
            registry = node.drcr.registry
            num_cpus = node.kernel.config.num_cpus
            names.append(node.name)
            loads.append(sum(registry.declared_utilization(cpu)
                             for cpu in range(num_cpus))
                         + extra_node_load.get(node.name, 0.0))
            caps.append(num_cpus * self.cap)
        best = best_fit(loads, total_usage, caps)
        return names[best] if best is not None else None

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
