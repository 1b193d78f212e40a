"""The simulated RTAI-like dual-kernel real-time OS.

This package is the repository's stand-in for the paper's RTAI-patched
Linux (see DESIGN.md, "Substitutions").  The public surface:

* :class:`~repro.rtos.kernel.RTKernel` / :class:`~repro.rtos.kernel.KernelConfig`
  -- the kernel itself,
* :class:`~repro.rtos.task.RTTask` and the request vocabulary in
  :mod:`repro.rtos.requests` -- how task bodies are written,
* :class:`~repro.rtos.lxrt.LXRT` -- the RTAI-LXRT procedural facade,
* IPC: :class:`~repro.rtos.shm.SharedMemory`,
  :class:`~repro.rtos.mailbox.Mailbox`, :class:`~repro.rtos.sem.Semaphore`,
* :mod:`~repro.rtos.latency` -- the calibrated scheduling-latency model,
* :mod:`~repro.rtos.load` -- Linux-domain load generators (stress mode).
"""

from repro.rtos.dio import (
    ConstantSignal,
    DigitalIOModule,
    RandomWalk,
    SignalSource,
    SineWave,
    SquareWave,
    attach_dio,
)
from repro.rtos.fifo import LinuxWakeupModel, RTFifo
from repro.rtos.errors import (
    DuplicateNameError,
    InvalidTaskNameError,
    IPCError,
    MailboxFullError,
    RTOSError,
    SchedulerError,
    ShmTypeError,
    TaskStateError,
    TimerNotStartedError,
    UnknownObjectError,
)
from repro.rtos.kernel import (
    TIMER_ONESHOT,
    TIMER_PERIODIC,
    KernelConfig,
    RTKernel,
)
from repro.rtos.latency import LatencyModel, LatencyProfile, NullLatencyModel
from repro.rtos.load import (
    CPUHogLoad,
    ForkStormLoad,
    IOStressLoad,
    JVMGarbageCollectorLoad,
    LoadGenerator,
    apply_stress,
    remove_loads,
    stress_suite,
)
from repro.rtos.lxrt import LXRT, PIT_FREQUENCY_HZ
from repro.rtos.mailbox import Mailbox
from repro.rtos.names import (
    MAX_NAME_LENGTH,
    derive_port_name,
    nam2num,
    num2nam,
    validate_name,
)
from repro.rtos.requests import (
    Compute,
    Receive,
    Send,
    SemSignal,
    SemWait,
    Sleep,
    SuspendSelf,
    WaitPeriod,
)
from repro.rtos.scheduler import EDFScheduler, PriorityScheduler, Scheduler
from repro.rtos.sem import ResourceSemaphore, Semaphore
from repro.rtos.shm import SharedMemory, element_size_bytes
from repro.rtos.task import RTTask, TaskState, TaskStats, TaskType
from repro.rtos.watchdog import Watchdog

__all__ = [
    "attach_dio",
    "Compute",
    "ConstantSignal",
    "DigitalIOModule",
    "CPUHogLoad",
    "DuplicateNameError",
    "EDFScheduler",
    "ForkStormLoad",
    "InvalidTaskNameError",
    "IOStressLoad",
    "IPCError",
    "JVMGarbageCollectorLoad",
    "KernelConfig",
    "LatencyModel",
    "LatencyProfile",
    "LinuxWakeupModel",
    "LoadGenerator",
    "LXRT",
    "Mailbox",
    "MailboxFullError",
    "MAX_NAME_LENGTH",
    "NullLatencyModel",
    "PIT_FREQUENCY_HZ",
    "PriorityScheduler",
    "Receive",
    "ResourceSemaphore",
    "RTFifo",
    "RTKernel",
    "RTOSError",
    "RTTask",
    "RandomWalk",
    "Scheduler",
    "SignalSource",
    "SineWave",
    "SquareWave",
    "SchedulerError",
    "Semaphore",
    "SemSignal",
    "SemWait",
    "Send",
    "SharedMemory",
    "ShmTypeError",
    "Sleep",
    "SuspendSelf",
    "TaskState",
    "TaskStateError",
    "TaskStats",
    "TaskType",
    "TimerNotStartedError",
    "TIMER_ONESHOT",
    "TIMER_PERIODIC",
    "UnknownObjectError",
    "WaitPeriod",
    "Watchdog",
    "apply_stress",
    "derive_port_name",
    "element_size_bytes",
    "nam2num",
    "num2nam",
    "remove_loads",
    "stress_suite",
    "validate_name",
]
