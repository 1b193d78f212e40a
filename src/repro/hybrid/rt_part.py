"""The real-time half of the hybrid component.

"The real-time part of each HRC is an independent concurrent process,
whose functionality is defined by the methods of a standard object"
(section 3.1).  Here: the RT task body generator.  The body's shape is
the paper's prescribed loop -- functional routine first, then a
*non-blocking* poll of the command mailbox ("when the task finishes its
main functional routine, it tries to read command message sent
asynchronously", section 3.2).  A non-blocking receive completes at
once, so the poll reads the mailbox directly instead of yielding a
``Receive`` request for the kernel to run the same code.

A periodic job allocates no request and makes no call to learn that
no command waits: it yields one ``Compute`` request for as long as
``compute_ns`` returns the same value (the kernel reads a request's
``ns`` and never writes it), and polls only when the command
mailbox's queue is non-empty.
"""

from repro.hybrid.protocol import CommandKind, Reply
from repro.rtos.requests import Compute, SuspendSelf, WaitPeriod
from repro.rtos.task import TaskType

#: ``WaitPeriod`` holds no state, so every job yields this one.
_WAIT_PERIOD = WaitPeriod()


class RealTimePart:
    """Builds and owns the RT task body for one component."""

    def __init__(self, ctx, implementation, bridge):
        self.ctx = ctx
        self.implementation = implementation
        self.bridge = bridge

    def body(self, task):
        """The task body generator handed to the kernel."""
        if self.ctx.contract.task_type is TaskType.PERIODIC:
            return self._periodic_body(task)
        return self._aperiodic_body(task)

    # ------------------------------------------------------------------
    def _periodic_body(self, task):
        ctx = self.ctx
        commands = self.bridge.command_mailbox.messages
        request = None
        while True:
            latency = yield _WAIT_PERIOD
            ctx.last_latency = latency
            compute = self.implementation.compute_ns(ctx)
            if compute > 0:
                if request is None or request.ns != compute:
                    request = Compute(compute)
                yield request
            self.implementation.execute(ctx)
            ctx.job_index += 1
            # Asynchronous management poll -- never blocks (section 3.2).
            if commands:
                suspend = self._poll_commands()
                if suspend == "stop":
                    return
                if suspend == "suspend":
                    yield SuspendSelf()

    def _aperiodic_body(self, task):
        ctx = self.ctx
        compute = self.implementation.compute_ns(ctx)
        if compute > 0:
            yield Compute(compute)
        self.implementation.execute(ctx)
        ctx.job_index += 1
        self._poll_commands()

    # ------------------------------------------------------------------
    def _poll_commands(self):
        """Drain the command mailbox without blocking.

        Returns "suspend"/"stop" when such a command arrived, else None.
        Reads through ``receive_external``, the code a non-blocking
        ``Receive`` request runs in the kernel.
        """
        receive = self.bridge.command_mailbox.receive_external
        outcome = None
        while True:
            command = receive()
            if command is None:
                return outcome
            result = self._handle(command)
            if result == "stop":
                return "stop"  # terminal: outranks anything queued
            if result == "suspend":
                outcome = result

    def _handle(self, command):
        ctx = self.ctx
        custom = self.implementation.on_command(ctx, command)
        if custom is not None:
            self._reply(command, custom)
            return None
        if command.kind is CommandKind.SET_PROPERTY:
            ctx.properties[command.name] = command.value
            self._reply(command, True)
            return None
        if command.kind is CommandKind.GET_PROPERTY:
            self._reply(command, ctx.properties.get(command.name))
            return None
        if command.kind is CommandKind.PING:
            self._reply(command, ctx.status_snapshot())
            return None
        if command.kind is CommandKind.SUSPEND:
            self._reply(command, True)
            return "suspend"
        if command.kind is CommandKind.STOP:
            self._reply(command, True)
            return "stop"
        self._reply(command, None)
        return None

    def _reply(self, command, value):
        reply = Reply(command, value, self.ctx.job_index, self.ctx.now())
        # Non-blocking: a full status mailbox drops the reply rather
        # than stalling the RT task.
        self.bridge.status_mailbox.send_external(reply)
