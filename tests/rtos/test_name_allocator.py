"""Differential check: the plumbing-name allocator against the probe.

``reference_unique_name`` below is :meth:`RTKernel.unique_name` as it
was before the allocator kept a min-heap of released indices and a
high-water mark per prefix: a linear probe of ``$X0000``, ``$X0001``,
... until a name is free.  It is kept here, and only here, as the
specification the allocator must match after every step of random
interleavings of allocations (registered or not), direct registrations
of ``$`` names, and frees through every path that releases a name.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.rtos.errors import DuplicateNameError
from repro.rtos.kernel import KernelConfig, RTKernel
from repro.rtos.latency import NullLatencyModel
from repro.rtos.shm import SharedMemory
from repro.rtos.task import RTTask, TaskType
from repro.sim.engine import Simulator

PREFIXES = ("C", "S")
#: Direct registrations stay in a small index window so they collide
#: with allocated names often.
WINDOW = 12


def reference_unique_name(kernel, prefix):
    prefix = ("$" + prefix.upper())[:2]
    for index in range(10000):
        candidate = "%s%04d" % (prefix, index)
        if not kernel.exists(candidate):
            return candidate
    raise DuplicateNameError("name space %s exhausted" % prefix)


def idle(task):
    yield from ()


def make_kernel():
    return RTKernel(Simulator(seed=1),
                    KernelConfig(latency_model=NullLatencyModel()))


def register(kernel, name, kind):
    """Create a kernel object of ``kind`` under ``name``."""
    if kind == "mailbox":
        kernel.mailbox(name)
    elif kind == "shm":
        kernel.shm_alloc(name, "Integer", 1)
    else:
        kernel.create_task(name, idle, priority=1,
                           task_type=TaskType.APERIODIC)


def release(kernel, name):
    """Free ``name`` through the path matching its object's type."""
    obj = kernel.lookup(name)
    if isinstance(obj, RTTask):
        kernel.delete_task(obj)
    elif isinstance(obj, SharedMemory):
        kernel.shm_free(name)
    else:
        kernel.free_object(name)


kinds = st.sampled_from(["mailbox", "shm", "task"])
steps = st.lists(st.one_of(
    st.tuples(st.just("allocate"), st.sampled_from(PREFIXES),
              st.booleans(), kinds),
    st.tuples(st.just("direct"), st.sampled_from(PREFIXES),
              st.integers(min_value=0, max_value=WINDOW), kinds),
    st.tuples(st.just("free"), st.integers(min_value=0,
                                           max_value=10 ** 6)),
), min_size=1, max_size=60)


@settings(max_examples=150, deadline=None)
@given(steps)
def test_allocator_matches_linear_probe(script):
    kernel = make_kernel()
    live = []  # plumbing names currently registered, in creation order
    for step in script:
        if step[0] == "allocate":
            _, prefix, keep, kind = step
            name = kernel.unique_name(prefix)
            if keep:
                register(kernel, name, kind)
                live.append(name)
        elif step[0] == "direct":
            _, prefix, index, kind = step
            name = "$%s%04d" % (prefix, index)
            if not kernel.exists(name):
                register(kernel, name, kind)
                live.append(name)
        elif live:
            name = live.pop(step[1] % len(live))
            release(kernel, name)
        for prefix in PREFIXES:
            assert kernel.unique_name(prefix) \
                == reference_unique_name(kernel, prefix)


def test_exhausted_name_space_raises():
    kernel = make_kernel()
    for index in range(10000):
        kernel.mailbox("$Q%04d" % index)
    with pytest.raises(DuplicateNameError):
        kernel.unique_name("Q")
    kernel.free_object("$Q4321")
    assert kernel.unique_name("Q") == "$Q4321"
