"""Bounded mailboxes (RTAI ``rt_mbx`` analogue).

Mailboxes serve two roles in the reproduction, mirroring the paper:

* **inter-component data ports** with ``interface="RTAI.Mailbox"``
  (section 2.3), and
* the **asynchronous intra-component command channel** between an HRC's
  non-real-time management part and its real-time task (section 3.2) --
  the RT side only ever *polls* (non-blocking receive) so its timing is
  never coupled to the OSGi side.

Blocking semantics are implemented by the kernel: a task that blocks on
a mailbox is parked here and woken through
:meth:`repro.rtos.kernel.RTKernel._wake_task`.  The *external* entry
points (``send_external`` / ``receive_external``) are used by non-RT
code (the OSGi side); they never block, which is exactly the property
section 3.2 demands.
"""

from collections import deque

from repro.rtos import names


class Mailbox:
    """A bounded FIFO message queue identified by a 6-character name.

    The kernel-side entry points are hot (one per Send/Receive request):
    they test ``self._messages``/waiter deques directly instead of going
    through the ``full``/``empty`` properties, and only call the waiter
    hand-off helpers when the relevant deque is non-empty, so the
    uncontended fast path stays a single frame (docs/PERFORMANCE.md).
    """

    __slots__ = ("_kernel", "name", "capacity", "_messages",
                 "_recv_waiters", "_send_waiters", "sent_count",
                 "received_count", "dropped_count")

    def __init__(self, kernel, name, capacity=16):
        if capacity <= 0:
            raise ValueError("capacity must be positive, got %r"
                             % (capacity,))
        self._kernel = kernel
        self.name = names.validate_name(name)
        self.capacity = int(capacity)
        self._messages = deque()
        #: Tasks blocked in a receive, FIFO.
        self._recv_waiters = deque()
        #: (task, message) pairs blocked in a send, FIFO.
        self._send_waiters = deque()
        self.sent_count = 0
        self.received_count = 0
        self.dropped_count = 0

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    def __len__(self):
        return len(self._messages)

    @property
    def messages(self):
        """The queued messages, oldest first: the live deque, for a
        poller that tests its truth before receiving.  Read it, never
        change it; no method rebinds it (``drain`` clears it in
        place)."""
        return self._messages

    @property
    def full(self):
        """Whether a non-blocking send would fail right now."""
        return len(self._messages) >= self.capacity

    @property
    def empty(self):
        """Whether a non-blocking receive would fail right now."""
        return not self._messages

    def resize(self, capacity):
        """Change the capacity at run time (fault injection, tuning).

        Zero is allowed -- every non-blocking send then drops, which is
        how the ``mailbox_drop`` injector simulates a dead consumer.
        Messages already queued beyond a shrunken capacity stay queued;
        only new sends see the new bound.  Growing the capacity admits
        blocked senders immediately.
        """
        if capacity < 0:
            raise ValueError("capacity must be >= 0, got %r"
                             % (capacity,))
        self.capacity = int(capacity)
        self._refill_from_send_waiters()

    @property
    def recv_waiter_count(self):
        """Number of tasks blocked waiting to receive."""
        return len(self._recv_waiters)

    @property
    def send_waiter_count(self):
        """Number of tasks blocked waiting to send."""
        return len(self._send_waiters)

    # ------------------------------------------------------------------
    # non-RT (external) access -- never blocks
    # ------------------------------------------------------------------
    def send_external(self, message):
        """Deliver ``message`` from outside the RT domain.

        Returns ``True`` on delivery, ``False`` when the mailbox is full
        (the caller decides whether to retry; the management bridge
        counts the drop).
        """
        if self._recv_waiters and self._try_hand_to_waiter(message):
            return True
        if len(self._messages) >= self.capacity:
            self.dropped_count += 1
            return False
        self._messages.append(message)
        self.sent_count += 1
        return True

    def receive_external(self):
        """Poll one message from outside the RT domain (or ``None``)."""
        if self._messages:
            message = self._messages.popleft()
            self.received_count += 1
            if self._send_waiters:
                self._refill_from_send_waiters()
            return message
        return None

    # ------------------------------------------------------------------
    # kernel-side plumbing (called from RTKernel request processing)
    # ------------------------------------------------------------------
    def _try_hand_to_waiter(self, message):
        """Hand ``message`` straight to a blocked receiver, if any."""
        while self._recv_waiters:
            task = self._recv_waiters.popleft()
            if task._blocked_on is not self:
                continue  # stale entry (timeout or suspend already fired)
            self.sent_count += 1
            self.received_count += 1
            self._kernel._wake_task(task, message)
            return True
        return False

    def _refill_from_send_waiters(self):
        """After space opened up, admit a blocked sender's message."""
        while self._send_waiters and len(self._messages) < self.capacity:
            task, message = self._send_waiters.popleft()
            if task._blocked_on is not self:
                continue
            self._messages.append(message)
            self.sent_count += 1
            self._kernel._wake_task(task, True)

    def _task_send(self, task, message, blocking):
        """Kernel entry for a task's Send request.

        Returns ``(completed, result)``; when ``completed`` is False the
        task has been parked and will be woken later.
        """
        if self._recv_waiters and self._try_hand_to_waiter(message):
            return True, True
        if len(self._messages) < self.capacity:
            self._messages.append(message)
            self.sent_count += 1
            return True, True
        if not blocking:
            self.dropped_count += 1
            return True, False
        self._send_waiters.append((task, message))
        return False, None

    def _task_receive(self, task, blocking):
        """Kernel entry for a task's Receive request (same contract)."""
        if self._messages:
            message = self._messages.popleft()
            self.received_count += 1
            if self._send_waiters:
                self._refill_from_send_waiters()
            return True, message
        if not blocking:
            return True, None
        self._recv_waiters.append(task)
        return False, None

    def _forget_waiter(self, task):
        """Drop a parked task (timeout / deletion); stale-safe."""
        try:
            self._recv_waiters.remove(task)
        except ValueError:
            pass
        for entry in list(self._send_waiters):
            if entry[0] is task:
                self._send_waiters.remove(entry)

    def drain(self):
        """Remove and return all queued messages (management/reset)."""
        drained = list(self._messages)
        self._messages.clear()
        self.received_count += len(drained)
        self._refill_from_send_waiters()
        return drained

    def __repr__(self):
        return "Mailbox(%s, %d/%d msgs)" % (self.name, len(self._messages),
                                            self.capacity)
