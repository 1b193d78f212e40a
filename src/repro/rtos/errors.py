"""Exceptions raised by the simulated real-time kernel."""


class RTOSError(Exception):
    """Base class for all kernel errors."""


class InvalidTaskNameError(RTOSError):
    """A task/IPC object name violates the 6-character RTAI name rules."""


class DuplicateNameError(RTOSError):
    """An object with that registry name already exists."""


class UnknownObjectError(RTOSError):
    """Lookup of a kernel object by name failed."""


class TimerNotStartedError(RTOSError):
    """A periodic task was started before ``start_rt_timer`` was called."""


class TaskStateError(RTOSError):
    """An operation is not valid in the task's current state."""


class SchedulerError(RTOSError):
    """Internal scheduler invariant violated."""


class IPCError(RTOSError):
    """Base class for IPC (shared memory / mailbox / semaphore) errors."""


class MailboxFullError(IPCError):
    """A non-blocking send found the mailbox full."""


class ShmTypeError(IPCError):
    """A shared-memory access used the wrong data type or size."""
