"""Named, typed shared-memory segments (RTAI ``rt_shm_alloc`` analogue).

DRCom ports with ``interface="RTAI.SHM"`` are backed by these segments:
the component descriptor declares the element type (``Integer`` or
``Byte``; we additionally support ``Float``) and the element count, and
port compatibility checking (:mod:`repro.core.ports`) requires both ends
to agree.  Access is instantaneous in simulated time, as real shared
memory is (no syscall on the data path, section 3.3 of the paper).
"""

from repro.rtos import names
from repro.rtos.errors import ShmTypeError

#: Supported element types and their validators/default values.
_TYPE_INFO = {
    "Integer": (lambda v: isinstance(v, int) and not isinstance(v, bool), 0),
    "Byte": (lambda v: isinstance(v, int) and 0 <= v <= 255, 0),
    "Float": (lambda v: isinstance(v, (int, float))
              and not isinstance(v, bool), 0.0),
}


def element_size_bytes(dtype):
    """Byte width of one element (for the descriptor's ``size`` rule:
    "it is the multiple size of the data type's size")."""
    if dtype == "Byte":
        return 1
    if dtype == "Integer":
        return 4
    if dtype == "Float":
        return 8
    raise ShmTypeError("unknown shared-memory type: %r" % (dtype,))


class SharedMemory:
    """A fixed-size, typed array shared between tasks.

    Created via :meth:`repro.rtos.kernel.RTKernel.shm_alloc`; the kernel
    keyes the segment by its 6-character RTAI name.

    Whole-segment :meth:`write`/:meth:`read` are the data-plane hot path
    (every DRCom SHM port transfer).  ``write`` validates in one pass
    with the validator bound to a local, and ``read`` copies with
    ``list.copy`` instead of re-materialising through the iterator
    protocol (docs/PERFORMANCE.md).
    """

    __slots__ = ("_clock", "name", "dtype", "size", "_validator", "_data",
                 "write_count", "last_write_time", "last_writer",
                 "_attached")

    def __init__(self, clock, name, dtype, size):
        if dtype not in _TYPE_INFO:
            raise ShmTypeError("unknown shared-memory type: %r" % (dtype,))
        if size <= 0:
            raise ShmTypeError("size must be positive, got %r" % (size,))
        self._clock = clock
        self.name = names.validate_name(name)
        self.dtype = dtype
        self.size = int(size)
        validator, default = _TYPE_INFO[dtype]
        self._validator = validator
        self._data = [default] * self.size
        self.write_count = 0
        self.last_write_time = None
        self.last_writer = None
        self._attached = set()

    # ------------------------------------------------------------------
    # attachment bookkeeping (rt_shm_alloc reference counting)
    # ------------------------------------------------------------------
    def attach(self, owner):
        """Record that ``owner`` (a task or component name) uses this
        segment; returns self for chaining."""
        self._attached.add(owner)
        return self

    def detach(self, owner):
        """Drop an attachment; returns True when no users remain."""
        self._attached.discard(owner)
        return not self._attached

    @property
    def attached_count(self):
        """Number of current attachments."""
        return len(self._attached)

    # ------------------------------------------------------------------
    # data access
    # ------------------------------------------------------------------
    def write(self, values, writer=None):
        """Overwrite the whole segment (len(values) must equal size)."""
        values = list(values)
        if len(values) != self.size:
            raise ShmTypeError(
                "segment %s holds %d elements, got %d"
                % (self.name, self.size, len(values)))
        validator = self._validator
        for value in values:
            if not validator(value):
                raise ShmTypeError(
                    "value %r invalid for %s segment %s"
                    % (value, self.dtype, self.name))
        self._data[:] = values
        self.write_count += 1
        self.last_write_time = self._clock()
        self.last_writer = writer

    def write_at(self, index, value, writer=None):
        """Write one element."""
        if not self._validator(value):
            raise ShmTypeError(
                "value %r invalid for %s segment %s"
                % (value, self.dtype, self.name))
        self._data[index] = value
        self.write_count += 1
        self.last_write_time = self._clock()
        self.last_writer = writer

    def read(self):
        """Return a copy of the whole segment."""
        return self._data.copy()

    def read_at(self, index):
        """Return one element."""
        return self._data[index]

    def age_ns(self):
        """Nanoseconds since the last write (None if never written)."""
        if self.last_write_time is None:
            return None
        return self._clock() - self.last_write_time

    def __len__(self):
        return self.size

    def __repr__(self):
        return "SharedMemory(%s, %s[%d], writes=%d)" % (
            self.name, self.dtype, self.size, self.write_count)
