"""The simulated inter-node message transport.

Federation (see :mod:`repro.cluster`) connects per-node platforms that
all share one :class:`~repro.sim.engine.Simulator`; the transport is
how they talk.  A message between two nodes is a simulator event
scheduled one link-latency into the future, with deterministic jitter
and an optional drop gate drawn from named random streams -- so a
cluster run reproduces exactly under a fixed seed, message losses
included.

Links are directional and configurable per pair
(:meth:`MessageTransport.set_link` / :meth:`connect`); pairs without
an explicit :class:`LinkSpec` use the transport's default.
:meth:`partition` blocks a pair in both directions (messages already
in flight are dropped at delivery time too -- a partition severs the
wire, not just the send queue); :meth:`heal` restores it.  The
partition fault injector (:mod:`repro.faults`) drives exactly these
two methods.

Telemetry lands in the ``cluster`` registry: ``messages_sent_total``,
``messages_delivered_total``, ``messages_dropped_total``,
``messages_partitioned_total``, the aggregate ``link_latency_ns``
histogram and one ``link_latency_ns.<src>_to_<dst>`` histogram per
link that carried traffic (see ``docs/OBSERVABILITY.md``).  Per-link
histograms are gated at scale: beyond
:data:`PER_LINK_HISTOGRAM_MAX_ENDPOINTS` registered endpoints a fleet
has O(n²) links, so only the aggregate histogram is kept.  The
verdict is taken at the first delivery and kept for the run.
"""

#: Above this many registered endpoints, per-link histograms are
#: off -- a gossip-scale fleet has O(n²) directed links and the
#: registry would drown in instruments.
PER_LINK_HISTOGRAM_MAX_ENDPOINTS = 32

#: Link-latency histogram buckets (ns): LAN-ish 100 us to a stalled
#: 100 ms.
LINK_LATENCY_BOUNDS_NS = (
    100_000, 250_000, 500_000, 1_000_000, 2_000_000, 5_000_000,
    10_000_000, 50_000_000, 100_000_000,
)


class LinkSpec:
    """One directional link's quality: latency, jitter, loss."""

    __slots__ = ("latency_ns", "jitter_ns", "drop_probability")

    def __init__(self, latency_ns=500_000, jitter_ns=0,
                 drop_probability=0.0):
        if latency_ns < 0:
            raise ValueError("latency must be >= 0")
        if jitter_ns < 0 or jitter_ns > latency_ns:
            raise ValueError("jitter must be in [0, latency]")
        if not 0.0 <= drop_probability < 1.0:
            raise ValueError("drop probability must be in [0, 1)")
        self.latency_ns = int(latency_ns)
        self.jitter_ns = int(jitter_ns)
        self.drop_probability = float(drop_probability)

    def __repr__(self):
        return "LinkSpec(%dns ±%dns, drop=%.3f)" % (
            self.latency_ns, self.jitter_ns, self.drop_probability)


class Message:
    """One datagram between nodes (plain payload, at-most-once)."""

    __slots__ = ("kind", "payload", "src", "dst", "sent_at_ns", "seq")

    def __init__(self, kind, payload, src, dst, sent_at_ns, seq):
        self.kind = kind
        self.payload = payload
        self.src = src
        self.dst = dst
        self.sent_at_ns = sent_at_ns
        self.seq = seq

    def __repr__(self):
        return "Message(#%d %s %s->%s)" % (self.seq, self.kind,
                                           self.src, self.dst)


class MessageTransport:
    """Datagram delivery between registered nodes on one simulator.

    Delivery is **at-most-once**: a message is dropped by the link's
    loss gate, by an active partition (at send *or* delivery time), or
    when the destination is no longer registered (a crashed node).
    Reliability, where wanted, is the caller's job -- the cluster's
    migration protocol retries with the
    :class:`~repro.faults.recovery.BackoffPolicy` idiom.
    """

    def __init__(self, sim, default_link=None):
        self.sim = sim
        self.default_link = default_link or LinkSpec()
        # None = decide from the fleet size at first delivery; the
        # verdict is latched so a mid-run crash cannot flip it.
        self._per_link_enabled = None
        self._handlers = {}
        self._links = {}
        self._partitioned = set()
        self._seq = 0
        metrics = sim.telemetry.registry("cluster")
        self._metrics = metrics
        self._m_sent = metrics.counter("messages_sent_total")
        self._m_delivered = metrics.counter("messages_delivered_total")
        self._m_dropped = metrics.counter("messages_dropped_total")
        self._m_partitioned = metrics.counter(
            "messages_partitioned_total")
        self._m_latency = metrics.histogram("link_latency_ns",
                                            LINK_LATENCY_BOUNDS_NS)
        self._link_histograms = {}

    # ------------------------------------------------------------------
    # membership of the wire
    # ------------------------------------------------------------------
    def register(self, name, handler):
        """Attach a node: ``handler(message)`` receives deliveries."""
        self._handlers[name] = handler

    def unregister(self, name):
        """Detach a node; in-flight messages to it will drop."""
        self._handlers.pop(name, None)

    # ------------------------------------------------------------------
    # link configuration
    # ------------------------------------------------------------------
    def set_link(self, src, dst, link):
        """Configure the directional ``src -> dst`` link."""
        self._links[(src, dst)] = link

    def connect(self, a, b, link):
        """Configure both directions of the ``a <-> b`` pair."""
        self.set_link(a, b, link)
        self.set_link(b, a, link)

    def link_for(self, src, dst):
        """The effective :class:`LinkSpec` of ``src -> dst``."""
        return self._links.get((src, dst), self.default_link)

    def links(self):
        """The explicitly-configured links: ``{(src, dst): LinkSpec}``.

        A copy -- configure links through :meth:`set_link` /
        :meth:`connect`.  Pairs absent here use :attr:`default_link`
        (``Cluster.export_plan()`` serializes exactly this split)."""
        return dict(self._links)

    def partition(self, a, b):
        """Sever the ``a <-> b`` pair (both directions, in-flight
        messages included)."""
        self._partitioned.add(frozenset((a, b)))

    def heal(self, a, b):
        """Restore a severed pair."""
        self._partitioned.discard(frozenset((a, b)))

    def is_partitioned(self, a, b):
        """Whether the pair is currently severed."""
        return frozenset((a, b)) in self._partitioned

    # ------------------------------------------------------------------
    # the wire
    # ------------------------------------------------------------------
    def send(self, src, dst, kind, payload=None):
        """Queue one message; returns it, or ``None`` when the send is
        known-lost already (partition or loss gate).  A ``None`` from
        here is indistinguishable, to the receiver, from a loss in
        flight -- callers needing delivery must wait for an
        application-level reply."""
        self._seq += 1
        self._m_sent.inc()
        message = Message(kind, payload if payload is not None else {},
                          src, dst, self.sim.now, self._seq)
        if self.is_partitioned(src, dst):
            self._m_partitioned.inc()
            self._m_dropped.inc()
            return None
        link = self.link_for(src, dst)
        stream = self.sim.rng.stream("cluster/link/%s->%s" % (src, dst))
        if link.drop_probability and \
                stream.random() < link.drop_probability:
            self._m_dropped.inc()
            return None
        latency = link.latency_ns
        if link.jitter_ns:
            latency += int(stream.uniform(-link.jitter_ns,
                                          link.jitter_ns))
        latency = max(0, latency)
        self.sim.schedule(latency, self._deliver, message,
                          label="net:%s->%s" % (src, dst))
        return message

    def _deliver(self, message):
        if self.is_partitioned(message.src, message.dst):
            self._m_partitioned.inc()
            self._m_dropped.inc()
            return
        handler = self._handlers.get(message.dst)
        if handler is None:
            self._m_dropped.inc()
            return
        latency = self.sim.now - message.sent_at_ns
        self._m_delivered.inc()
        self._m_latency.observe(latency)
        enabled = self._per_link_enabled
        if enabled is None:
            enabled = self._per_link_enabled = (
                len(self._handlers)
                <= PER_LINK_HISTOGRAM_MAX_ENDPOINTS)
        if enabled:
            self._link_histogram(message.src,
                                 message.dst).observe(latency)
        handler(message)

    def _link_histogram(self, src, dst):
        key = (src, dst)
        histogram = self._link_histograms.get(key)
        if histogram is None:
            histogram = self._metrics.histogram(
                "link_latency_ns.%s_to_%s" % (src, dst),
                LINK_LATENCY_BOUNDS_NS)
            self._link_histograms[key] = histogram
        return histogram

    def __repr__(self):
        return "MessageTransport(%d nodes, %d partitions)" % (
            len(self._handlers), len(self._partitioned))
