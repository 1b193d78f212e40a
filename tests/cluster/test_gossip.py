"""Tests for the SWIM gossip protocol: suspicion, refutation,
indirect probing, and message complexity."""


from repro.cluster import Cluster, LinkSpec
from repro.sim.engine import MSEC


def _cluster_metric(cluster, name):
    return cluster.sim.telemetry.registry("cluster").get(name).value


class TestLossyLinks:
    def test_probe_loss_does_not_kill_healthy_nodes(self):
        """A uniformly lossy fleet must not produce false positives:
        lost direct probes escalate to indirect pings, and a node a
        quarter of whose packets vanish is still heard often enough."""
        cluster = Cluster(
            ("node0", "node1", "node2", "node3"), seed=9,
            heartbeat_interval_ns=10 * MSEC, miss_limit=3,
            link=LinkSpec(latency_ns=500_000, drop_probability=0.25))
        try:
            cluster.run_for(800 * MSEC)
            assert cluster.membership.declared_dead == set()
            assert _cluster_metric(cluster, "nodes_fenced_total") == 0
            # The loss rate forced the indirect path to carry weight.
            assert _cluster_metric(
                cluster, "indirect_probes_total") > 0
            assert _cluster_metric(
                cluster, "messages_dropped_total") > 0
        finally:
            cluster.shutdown()

    def test_suspicion_is_refuted_not_fatal(self):
        """With this seed a node is suspected at least once during the
        lossy run; gossip carries the suspicion to the subject, which
        refutes with a bumped incarnation instead of dying."""
        cluster = Cluster(
            ("node0", "node1", "node2"), seed=9,
            heartbeat_interval_ns=10 * MSEC, miss_limit=3,
            link=LinkSpec(latency_ns=500_000, drop_probability=0.25))
        try:
            cluster.run_for(800 * MSEC)
            assert _cluster_metric(cluster, "suspicions_total") >= 1
            assert _cluster_metric(cluster, "refutations_total") >= 1
            assert cluster.membership.declared_dead == set()
            assert not any(cluster.membership.is_suspect(name)
                           for name in cluster.nodes)
        finally:
            cluster.shutdown()


class TestPartitionHealing:
    def _make(self):
        # miss_limit=5: a 50 ms staleness deadline leaves room to heal
        # a 35 ms partition while the suspicion is still pending.
        return Cluster(("node0", "node1", "node2"), seed=0,
                       heartbeat_interval_ns=10 * MSEC, miss_limit=5)

    def test_heal_mid_suspicion_refutation_beats_fencing(self):
        """A partition long enough to raise suspicion but shorter than
        the staleness deadline must end in refutation: the healed node
        hears it is suspected, bumps its incarnation, and is never
        declared dead or fenced."""
        cluster = self._make()
        try:
            cluster.run_for(50 * MSEC)
            cluster.transport.partition("node2", "node0")
            cluster.transport.partition("node2", "node1")
            cluster.run_for(35 * MSEC)
            assert cluster.membership.is_suspect("node2")
            assert not cluster.membership.is_dead("node2")
            cluster.transport.heal("node2", "node0")
            cluster.transport.heal("node2", "node1")
            cluster.run_for(150 * MSEC)
            assert not cluster.membership.is_dead("node2")
            assert not cluster.membership.is_suspect("node2")
            assert _cluster_metric(
                cluster, "nodes_fenced_total") == 0
            assert _cluster_metric(
                cluster, "refutations_total") >= 1
            # Refutation is what bumped the incarnation.
            assert cluster.membership.incarnation("node2") >= 1
        finally:
            cluster.shutdown()

    def test_partition_past_deadline_still_kills(self):
        """Same topology, but the partition outlives the staleness
        deadline: suspicion hardens into death and failover runs."""
        cluster = self._make()
        try:
            cluster.run_for(50 * MSEC)
            cluster.transport.partition("node2", "node0")
            cluster.transport.partition("node2", "node1")
            cluster.run_for(120 * MSEC)
            assert cluster.membership.is_dead("node2")
        finally:
            cluster.shutdown()


class TestReadmit:
    def test_readmitted_node_hosts_new_deployments(self):
        """After fence + readmit the node is a first-class member
        again: alive in the view, eligible for placement, and able to
        run a fresh deployment."""
        from conftest import make_descriptor_xml
        from repro.core import ComponentState

        cluster = Cluster(("node0", "node1", "node2"), seed=17,
                          heartbeat_interval_ns=10 * MSEC,
                          miss_limit=3)
        try:
            cluster.run_for(50 * MSEC)
            cluster.transport.partition("node2", "node0")
            cluster.transport.partition("node2", "node1")
            cluster.run_for(100 * MSEC)
            assert cluster.membership.is_dead("node2")
            cluster.transport.heal("node2", "node0")
            cluster.transport.heal("node2", "node1")
            cluster.run_for(100 * MSEC)
            assert cluster.membership.fence_acked("node2")
            cluster.membership.readmit("node2")
            cluster.run_for(50 * MSEC)
            assert not cluster.membership.is_dead("node2")
            target = cluster.deploy(make_descriptor_xml(
                "BACK00", cpuusage=0.1), node="node2")
            assert target == "node2"
            cluster.run_for(30 * MSEC)
            assert cluster.node("node2").drcr.component_state(
                "BACK00") is ComponentState.ACTIVE
            # Readmission bumped the incarnation so stale DEAD gossip
            # cannot re-kill the node.
            assert cluster.membership.incarnation("node2") >= 1
        finally:
            cluster.shutdown()


class TestMessageComplexity:
    def _idle_rate(self, n, seed=3):
        """Steady-state cluster messages per heartbeat interval for an
        idle n-node fleet (kernel timers muted by a long period)."""
        names = ["node%02d" % index for index in range(n)]
        cluster = Cluster(names, seed=seed,
                          heartbeat_interval_ns=10 * MSEC,
                          miss_limit=3,
                          timer_period_ns=10_000 * MSEC)
        try:
            cluster.run_for(100 * MSEC)  # converge the first pushes
            before = _cluster_metric(cluster, "messages_sent_total")
            cluster.run_for(200 * MSEC)  # 20 intervals
            after = _cluster_metric(cluster, "messages_sent_total")
            return (after - before) / 20.0
        finally:
            cluster.shutdown()

    def test_per_interval_traffic_grows_subquadratically(self):
        """Doubling the fleet must not quadruple the per-interval
        message count -- the SWIM probe budget is O(n), unlike the old
        full heartbeat mesh's O(n^2)."""
        rate_small = self._idle_rate(8)
        rate_large = self._idle_rate(16)
        ratio = rate_large / rate_small
        # Linear doubles (2.0); the old mesh quadrupled (4.0).  Allow
        # headroom for the gossip piggyback tail.
        assert ratio < 3.0

    def test_same_seed_is_deterministic(self):
        assert self._idle_rate(8, seed=11) == \
            self._idle_rate(8, seed=11)


class TestIncarnations:
    def test_incarnations_start_at_zero(self):
        cluster = Cluster(("node0", "node1", "node2"), seed=17)
        try:
            cluster.run_for(100 * MSEC)
            for name in cluster.nodes:
                assert cluster.membership.incarnation(name) == 0
        finally:
            cluster.shutdown()
