"""SWIM-style gossip membership and failure detection.

The PR-5 detector beat a full mesh: every node shipped its complete
component export to every peer every interval -- O(n²) messages that
top out at a few dozen nodes.  This module replaces it with the SWIM
shape (probe + indirect ping + epidemic dissemination, bounded
fanout), so per-interval traffic is O(n · fanout):

* **Probing.**  Each protocol period every live node probes
  ``probe_fanout`` (2) peers chosen by a seeded shuffled round-robin
  (stream ``cluster/swim/<node>``, so runs reproduce exactly).  A
  probed node acks; probe and ack both ride the real transport, so
  latency, loss and partitions gate them like any other traffic.
* **Indirect ping.**  A probe that goes unacked for a full period is
  escalated: the prober asks ``indirect_fanout`` (2) intermediaries to
  ping the target on its behalf (``ping_req`` -> ``ping`` ->
  ``ping_ack``, relayed back).  Only when the indirect round also
  comes back empty is the target marked **suspect**.
* **Suspicion, incarnation, refutation.**  Suspicion is gossiped
  epidemically: every probe/ack carries up to ``gossip_limit`` (6)
  piggybacked ``(subject, status, incarnation)`` updates with a
  retransmission budget.  A node that hears *itself* suspected at an
  incarnation at least its own refutes: it increments its incarnation
  and gossips ``alive``, which cancels the suspicion -- a briefly-slow
  node talks its way back in instead of being fenced.
* **Death.**  A node is declared dead only when it is suspect *and*
  no live peer has heard from it for ``miss_limit`` intervals (the
  same silence deadline as before), with the observer guard intact: a
  last survivor is never declared dead by its own deafness.  The
  terminal transitions are unchanged -- ``declare_dead`` hands the
  node to the cluster failover path, and a declared-dead node heard
  again is fenced.
* **Fencing retries.**  ``fence`` is no longer fire-and-forget: the
  coordinator re-sends it under a
  :class:`~repro.faults.recovery.BackoffPolicy` (capped exponential
  delay, scaled to the heartbeat interval) until the node's
  undeploy-all ack arrives, counting attempts in
  ``cluster.fence_attempts_total``.

Snapshots left the heartbeat path entirely: probe traffic carries no
component state.  Replication is **push on change** -- every tick,
each live node compares its export with the one it last sent and,
when they differ, sends the coordinator one ``snapshot_push``
(:meth:`repro.cluster.node.ClusterNode.push_export`).  A slow
one-node-per-tick rotation makes its node push regardless, which
recovers a push the loss gate or a partition ate at one message per
interval.

One modelling note: the service is a single shared object (all nodes
live on one simulator), so member *state* -- incarnations, suspicion,
``last_seen`` -- is held once, as the converged view gossip would
reach.  Every *transition* of that state, though, is driven by a
message that actually traversed the transport: evidence of life is a
delivered probe/ack, suspicion spreads only on piggybacked gossip, a
refutation happens only when the suspect actually receives a message
carrying its own suspicion.  Partitions therefore behave exactly as
they would with per-node views: an isolated node can neither refresh
its ``last_seen`` nor hear the suspicion it would need to refute.
"""

from repro.faults.recovery import BackoffPolicy
from repro.sim.engine import MSEC

#: Member statuses carried in gossip updates.
ALIVE = "alive"
SUSPECT = "suspect"
DEAD = "dead"


class _MemberState:
    """One member's protocol state (converged gossip view)."""

    __slots__ = ("status", "incarnation", "suspected_at_ns")

    def __init__(self):
        self.status = ALIVE
        self.incarnation = 0
        self.suspected_at_ns = None

    def __repr__(self):
        return "_MemberState(%s, inc=%d)" % (self.status,
                                             self.incarnation)


class MembershipService:
    """The cluster-level SWIM prober, gossiper and failure detector."""

    #: Peers each live node probes per protocol period.
    probe_fanout = 2
    #: Intermediaries asked to ping an unacked probe target.
    indirect_fanout = 2
    #: Piggybacked gossip updates carried per probe/ack.
    gossip_limit = 6

    def __init__(self, cluster, heartbeat_interval_ns=10 * MSEC,
                 miss_limit=3):
        if heartbeat_interval_ns <= 0:
            raise ValueError("heartbeat interval must be positive")
        if miss_limit < 1:
            raise ValueError("miss limit must be >= 1")
        self.cluster = cluster
        self.sim = cluster.sim
        self.heartbeat_interval_ns = int(heartbeat_interval_ns)
        self.miss_limit = int(miss_limit)
        self.fence_backoff = BackoffPolicy(
            initial_ns=self.heartbeat_interval_ns, factor=2.0,
            max_delay_ns=8 * self.heartbeat_interval_ns,
            max_attempts=64, jitter=0.1)
        self.last_seen = {}
        self.states = {}
        self.declared_dead = set()
        self._fenced = set()
        self._fence_acked = set()
        self._fence_attempts = {}
        self._started = False
        # The generation token: start() bumps it and every pending
        # callback carries the epoch it was scheduled under, so a
        # stop()/start() pair can never leave two live beat chains.
        self._epoch = 0
        self._pid = 0
        self._awaiting = {}       # pid -> [prober, target, mode, sent]
        self._probe_order = {}    # node -> shuffled peer list
        self._probe_pos = {}      # node -> cursor into its list
        self._gossip = {}         # node -> {subject: [status, inc, ttl]}
        self._push_ring = []      # rotation of forced export pushes
        metrics = self.sim.telemetry.registry("cluster")
        self._m_sent = metrics.counter("heartbeats_sent_total")
        self._m_received = metrics.counter("heartbeats_received_total")
        self._m_probes = metrics.counter("probes_sent_total")
        self._m_acks = metrics.counter("probe_acks_total")
        self._m_indirect = metrics.counter("indirect_probes_total")
        self._m_suspicions = metrics.counter("suspicions_total")
        self._m_refutations = metrics.counter("refutations_total")
        self._m_gossip = metrics.counter("gossip_updates_total")
        self._m_rounds = metrics.counter("gossip_rounds_total")
        self._m_dead = metrics.counter("nodes_declared_dead_total")
        self._m_fenced = metrics.counter("nodes_fenced_total")
        self._m_fence_attempts = metrics.counter(
            "fence_attempts_total")
        self._m_alive = metrics.gauge("alive_nodes")
        self._m_suspected = metrics.gauge("suspected_nodes")

    @property
    def deadline_ns(self):
        """Silence longer than this, while suspect, is death."""
        return self.miss_limit * self.heartbeat_interval_ns

    def start(self):
        """Seed everyone as just-seen and start the protocol period."""
        if self._started:
            return self
        self._started = True
        self._epoch += 1
        now = self.sim.now
        for name in self.cluster.nodes:
            self.last_seen.setdefault(name, now)
            self._state(name)
        self._refresh_gauges()
        for name in sorted(self._fenced - self._fence_acked):
            # A restart killed the old epoch's retry chain; re-arm it.
            self.sim.schedule(self.heartbeat_interval_ns,
                              self._send_fence, name, self._epoch,
                              label="cluster:fence-retry")
        self.sim.schedule(self.heartbeat_interval_ns, self._tick,
                          self._epoch, label="cluster:gossip")
        return self

    def stop(self):
        """Stop probing and checking (pending ticks become no-ops)."""
        self._started = False

    # ------------------------------------------------------------------
    # observations
    # ------------------------------------------------------------------
    def is_dead(self, name):
        """Whether the detector has declared ``name`` dead."""
        return name in self.declared_dead

    def is_suspect(self, name):
        """Whether ``name`` is currently under (unrefuted) suspicion."""
        state = self.states.get(name)
        return state is not None and state.status == SUSPECT

    def incarnation(self, name):
        """``name``'s current incarnation number."""
        return self._state(name).incarnation

    def members(self):
        """Names currently in membership (not declared dead)."""
        return [name for name in self.cluster.nodes
                if name not in self.declared_dead]

    def note_join(self, name):
        """Seed a late joiner as just-seen.

        Without this, the first ``_check`` after a join would read the
        missing ``last_seen`` entry as silence-since-t0 and declare the
        newcomer dead on arrival."""
        self.last_seen[name] = self.sim.now
        self._state(name)
        self._enqueue_everywhere(name, ALIVE,
                                 self._state(name).incarnation)
        self._refresh_gauges()

    def readmit(self, name):
        """Operator override: let a fenced node back into membership
        (it starts empty; the failed-over components stay put)."""
        self.declared_dead.discard(name)
        self._fenced.discard(name)
        self._fence_acked.discard(name)
        self._fence_attempts.pop(name, None)
        self.last_seen[name] = self.sim.now
        state = self._state(name)
        state.status = ALIVE
        state.suspected_at_ns = None
        state.incarnation += 1
        self._enqueue_everywhere(name, ALIVE, state.incarnation)
        self._refresh_gauges()

    # ------------------------------------------------------------------
    # the protocol period
    # ------------------------------------------------------------------
    def _tick(self, epoch):
        if not self._started or epoch != self._epoch:
            return  # a stale chain from before a stop()/start()
        self._m_rounds.inc()
        now = self.sim.now
        nodes = self.cluster.nodes
        for name in nodes:
            if name not in self.last_seen:
                self.note_join(name)  # joined since the last tick
        self._escalate_pending(now)
        for name, node in nodes.items():
            # A declared-dead node that is actually still running does
            # not know it was declared dead -- it keeps probing, which
            # is exactly how a false positive gets noticed and fenced.
            if not node.alive:
                continue
            for target in self._probe_targets(name):
                self._send_probe(name, target, now)
        self._replicate(nodes)
        self._check(now)
        self.sim.schedule(self.heartbeat_interval_ns, self._tick,
                          epoch, label="cluster:gossip")

    def _probe_targets(self, name):
        """``probe_fanout`` peers from ``name``'s shuffled round-robin
        rotation (rebuilt when membership changes)."""
        peers = [peer for peer in self.cluster.nodes
                 if peer != name and peer not in self.declared_dead]
        order = self._probe_order.get(name)
        if order is None or len(order) != len(peers) \
                or set(order) != set(peers):
            order = peers
            self._stream(name).shuffle(order)
            self._probe_order[name] = order
            self._probe_pos[name] = 0
        if not order:
            return ()
        targets = []
        pos = self._probe_pos[name]
        for _ in range(min(self.probe_fanout, len(order))):
            if pos >= len(order):
                self._stream(name).shuffle(order)
                pos = 0
            targets.append(order[pos])
            pos += 1
        self._probe_pos[name] = pos
        return targets

    def _send_probe(self, prober, target, now):
        self._pid += 1
        self._awaiting[self._pid] = [prober, target, "direct", now]
        self._m_probes.inc()
        self._m_sent.inc()
        self.cluster.transport.send(prober, target, "probe", {
            "pid": self._pid,
            "gossip": self._gossip_out(prober),
        })

    def _escalate_pending(self, now):
        """Unacked probes age into indirect pings, unacked indirect
        pings age into suspicion."""
        interval = self.heartbeat_interval_ns
        for pid in [pid for pid, entry in self._awaiting.items()
                    if now - entry[3] >= interval]:
            prober, target, mode, _ = self._awaiting.pop(pid)
            if target in self.declared_dead:
                continue
            prober_node = self.cluster.nodes.get(prober)
            if prober_node is None or not prober_node.alive:
                continue
            if mode == "direct" \
                    and self._send_indirect(prober, target, now):
                continue
            # The indirect round came back empty too (or nobody could
            # relay): suspect the target at its current incarnation.
            self._suspect(target, self._state(target).incarnation,
                          via=prober)

    def _send_indirect(self, prober, target, now):
        """Ask up to ``indirect_fanout`` intermediaries to ping
        ``target`` for ``prober``; False when nobody can relay."""
        candidates = [peer for peer in self.cluster.nodes
                      if peer not in (prober, target)
                      and peer not in self.declared_dead]
        if not candidates:
            return False
        self._stream(prober).shuffle(candidates)
        for relay in candidates[:self.indirect_fanout]:
            self._pid += 1
            self._awaiting[self._pid] = [prober, target, "indirect",
                                         now]
            self._m_indirect.inc()
            self._m_sent.inc()
            self.cluster.transport.send(prober, relay, "ping_req", {
                "pid": self._pid,
                "target": target,
                "gossip": self._gossip_out(prober),
            })
        return True

    # ------------------------------------------------------------------
    # wire handling (called from ClusterNode.handle_message)
    # ------------------------------------------------------------------
    def on_wire(self, receiver, message):
        """One delivered membership message (``probe``/``probe_ack``/
        ``ping_req``/``ping``/``ping_ack``)."""
        src = message.src
        payload = message.payload
        self._m_received.inc()
        if src in self.declared_dead:
            # A fenced node's traffic carries no authority -- but its
            # very existence means the death was a false positive.
            self._fence(src)
            return
        self.last_seen[src] = self.sim.now
        self._merge_gossip(receiver, payload.get("gossip") or ())
        transport = self.cluster.transport
        kind = message.kind
        if kind == "probe":
            self._m_sent.inc()
            transport.send(receiver, src, "probe_ack", {
                "pid": payload["pid"],
                "gossip": self._gossip_out(receiver),
            })
        elif kind == "probe_ack":
            self._on_ack(payload["pid"])
        elif kind == "ping_req":
            # receiver relays the probe on the origin's behalf.
            self._m_sent.inc()
            transport.send(receiver, payload["target"], "ping", {
                "pid": payload["pid"],
                "origin": src,
                "gossip": self._gossip_out(receiver),
            })
        elif kind == "ping":
            self._m_sent.inc()
            transport.send(receiver, src, "ping_ack", {
                "pid": payload["pid"],
                "origin": payload["origin"],
                "gossip": self._gossip_out(receiver),
            })
        elif kind == "ping_ack":
            # receiver relays the ack back to the origin; the origin
            # books it like a direct ack.
            self._m_sent.inc()
            transport.send(receiver, payload["origin"], "probe_ack", {
                "pid": payload["pid"],
                "gossip": self._gossip_out(receiver),
            })

    def _on_ack(self, pid):
        entry = self._awaiting.pop(pid, None)
        self._m_acks.inc()
        if entry is None:
            return  # late ack; already escalated or acked via a twin
        target = entry[1]
        if target not in self.declared_dead:
            # Indirect evidence counts: the target answered somebody.
            self.last_seen[target] = self.sim.now

    # ------------------------------------------------------------------
    # gossip dissemination
    # ------------------------------------------------------------------
    def _gossip_out(self, name):
        """Up to ``gossip_limit`` piggybacked updates from ``name``'s
        queue, spending one retransmission each."""
        queue = self._gossip.get(name)
        if not queue:
            return ()
        out = []
        for subject in list(queue)[:self.gossip_limit]:
            update = queue[subject]
            out.append([subject, update[0], update[1]])
            update[2] -= 1
            if update[2] <= 0:
                del queue[subject]
        self._m_gossip.inc(len(out))
        return out

    def _enqueue(self, name, subject, status, incarnation):
        """Queue one update for piggybacking on ``name``'s traffic."""
        queue = self._gossip.setdefault(name, {})
        current = queue.get(subject)
        if current is not None and current[0] == status \
                and current[1] >= incarnation:
            return
        queue[subject] = [status, incarnation, self._gossip_ttl()]

    def _enqueue_everywhere(self, subject, status, incarnation):
        """Seed an update into every live member's queue (used for the
        authoritative transitions: death, join, readmit)."""
        for name, node in self.cluster.nodes.items():
            if node.alive and name not in self.declared_dead:
                self._enqueue(name, subject, status, incarnation)

    def _gossip_ttl(self):
        """Retransmissions per update: ~log2(n) plus slack, the SWIM
        dissemination budget."""
        n = max(2, len(self.cluster.nodes))
        return max(3, n.bit_length() + 2)

    def _merge_gossip(self, receiver, updates):
        nodes = self.cluster.nodes
        for subject, status, incarnation in updates:
            if subject not in nodes:
                continue
            state = self._state(subject)
            if subject == receiver and status in (SUSPECT, DEAD):
                # Somebody thinks *we* are gone.  If we are alive and
                # unfenced, refute: bump the incarnation past theirs
                # and gossip the new life.
                node = nodes.get(receiver)
                if node is not None and node.alive \
                        and receiver not in self.declared_dead \
                        and incarnation >= state.incarnation:
                    state.incarnation = incarnation + 1
                    if state.status == SUSPECT:
                        state.status = ALIVE
                        state.suspected_at_ns = None
                        self._refresh_gauges()
                    self._m_refutations.inc()
                    self.sim.trace.record(
                        self.sim.now, "cluster", action="refute",
                        node=receiver, incarnation=state.incarnation)
                    self._enqueue(receiver, receiver, ALIVE,
                                  state.incarnation)
                continue
            if status == SUSPECT:
                if incarnation >= state.incarnation \
                        and state.status == ALIVE \
                        and subject not in self.declared_dead:
                    self._suspect(subject, incarnation, via=receiver)
                elif state.status == SUSPECT:
                    self._enqueue(receiver, subject, SUSPECT,
                                  incarnation)
            elif status == ALIVE:
                if incarnation > state.incarnation:
                    state.incarnation = incarnation
                    if state.status == SUSPECT:
                        state.status = ALIVE
                        state.suspected_at_ns = None
                        self._refresh_gauges()
                    self._enqueue(receiver, subject, ALIVE,
                                  incarnation)

    # ------------------------------------------------------------------
    # suspicion and death
    # ------------------------------------------------------------------
    def _suspect(self, name, incarnation, via):
        state = self._state(name)
        if state.status != ALIVE or name in self.declared_dead:
            return
        now = self.sim.now
        if now - self.last_seen.get(name, 0) \
                < self.heartbeat_interval_ns:
            return  # fresh contact beats a stale escalation
        state.status = SUSPECT
        state.suspected_at_ns = now
        self._m_suspicions.inc()
        self._refresh_gauges()
        self.sim.trace.record(now, "cluster", action="node_suspect",
                              node=name, by=via,
                              incarnation=incarnation)
        # The suspicion spreads from the suspector; en route it also
        # reaches the subject, which is its chance to refute.
        self._enqueue(via, name, SUSPECT, incarnation)

    def _check(self, now):
        observers = [name for name, node in self.cluster.nodes.items()
                     if node.alive and name not in self.declared_dead]
        deadline = self.deadline_ns
        for name in list(self.cluster.nodes):
            if name in self.declared_dead:
                continue
            if not any(peer != name for peer in observers):
                continue  # nobody left who could have heard it
            state = self.states.get(name)
            if state is None or state.status != SUSPECT:
                continue
            if now - self.last_seen.get(name, now) > deadline:
                self.declare_dead(name)

    def declare_dead(self, name):
        """Declare a node dead and trigger the cluster failover path."""
        if name in self.declared_dead:
            return
        self.declared_dead.add(name)
        state = self._state(name)
        state.status = DEAD
        state.suspected_at_ns = None
        self._m_dead.inc()
        self._refresh_gauges()
        self._enqueue_everywhere(name, DEAD, state.incarnation)
        self.sim.trace.record(self.sim.now, "cluster",
                              action="node_dead", node=name,
                              last_seen=self.last_seen.get(name, 0))
        self.cluster._on_node_dead(name, self.last_seen.get(name, 0))

    # ------------------------------------------------------------------
    # fencing (retried until acked)
    # ------------------------------------------------------------------
    def _fence(self, name):
        if name in self._fenced:
            return
        self._fenced.add(name)
        self._m_fenced.inc()
        self.sim.trace.record(self.sim.now, "cluster",
                              action="node_fenced", node=name)
        self._fence_attempts[name] = 0
        self._send_fence(name, self._epoch)

    def _send_fence(self, name, epoch):
        if not self._started or epoch != self._epoch \
                or name in self._fence_acked \
                or name not in self._fenced:
            return  # acked, readmitted, or the service moved on
        attempt = self._fence_attempts.get(name, 0) + 1
        self._fence_attempts[name] = attempt
        self._m_fence_attempts.inc()
        self.cluster.transport.send(
            self.cluster.coordinator_name, name, "fence",
            {"reply_to": self.cluster.coordinator_name})
        if attempt >= self.fence_backoff.max_attempts:
            return  # out of retries; the node stays untrusted anyway
        delay = self.fence_backoff.delay_ns(
            attempt, self.sim.rng.stream("cluster/fence"))
        self.sim.schedule(delay, self._send_fence, name, epoch,
                          label="cluster:fence-retry")

    def note_fence_ack(self, name):
        """The fenced node confirmed it dropped everything."""
        self._fence_acked.add(name)
        self._fence_attempts.pop(name, None)

    def fence_acked(self, name):
        """Whether ``name``'s undeploy-all ack has arrived."""
        return name in self._fence_acked

    # ------------------------------------------------------------------
    # replication (push on change, forced by rotation)
    # ------------------------------------------------------------------
    def _replicate(self, nodes):
        """Every live member pushes its export to the coordinator when
        it changed; the rotation's member pushes regardless, which
        recovers a lost push at one message per interval."""
        ring = self._push_ring
        if not ring:
            ring = self._push_ring = [
                name for name, node in nodes.items()
                if node.alive and name not in self.declared_dead]
        forced = ring.pop() if ring else None
        coordinator = self.cluster.coordinator_name
        for name, node in nodes.items():
            if node.alive and name not in self.declared_dead:
                node.push_export(coordinator, force=name == forced)

    # ------------------------------------------------------------------
    # plumbing
    # ------------------------------------------------------------------
    def _state(self, name):
        state = self.states.get(name)
        if state is None:
            state = self.states[name] = _MemberState()
        return state

    def _stream(self, name):
        return self.sim.rng.stream("cluster/swim/%s" % name)

    def _refresh_gauges(self):
        self._m_alive.set(len(self.members()))
        self._m_suspected.set(sum(
            1 for state in self.states.values()
            if state.status == SUSPECT))

    def __repr__(self):
        return "MembershipService(%d members, %d suspect, %d dead)" % (
            len(self.members()),
            sum(1 for s in self.states.values()
                if s.status == SUSPECT),
            len(self.declared_dead))
