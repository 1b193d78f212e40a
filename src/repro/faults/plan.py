"""Fault plans: declarative, seed-driven chaos schedules.

A :class:`FaultPlan` is to fault injection what a DRCom descriptor is
to a component: a declarative artifact that fully determines run-time
behaviour.  Every stochastic choice an injector makes (probability
gates, jitter) draws from named streams derived from ``plan.seed`` --
independent of the simulation's master seed -- so the *fault schedule*
of a plan reproduces exactly across runs and across unrelated changes
to the platform's own randomness.  That determinism is what makes a
chaos experiment a regression test instead of a dice roll (see
``docs/FAULT_INJECTION.md`` and ``tests/faults/test_plan.py``).

Plans are plain data: build them in code, load them from JSON
(:meth:`FaultPlan.from_json_file`), or use the built-in
:func:`example_plan` that ``python -m repro --faults examples`` runs
against the paper's section-4.2/4.3 pipeline.
"""

import enum
import json
import math

from repro.faults.recovery import QuarantinePolicy
from repro.rtos.watchdog import Watchdog
from repro.sim.engine import MSEC, USEC


class FaultPlanError(ValueError):
    """A fault plan failed validation."""


class FaultInjectionError(RuntimeError):
    """The error injectors raise inside perturbed code paths.

    A distinct type so logs, status reasons and tests can tell an
    *injected* failure from a genuine implementation bug.
    """


class FaultKind(enum.Enum):
    """Every fault the injection subsystem can produce."""

    #: Fault the component's running RT task (as if its body raised).
    CRASH = "crash"
    #: Raise inside ``container.activate`` (admission-time crash).
    CRASH_ON_ACTIVATE = "crash_on_activate"
    #: Raise inside ``container.deactivate`` (teardown-time crash).
    CRASH_ON_DEACTIVATE = "crash_on_deactivate"
    #: Multiply the implementation's per-job compute time (WCET lie).
    OVERRUN = "overrun"
    #: Shrink the command mailbox to zero capacity for a window.
    MAILBOX_DROP = "mailbox_drop"
    #: Fill the command mailbox with injected PINGs (overflow pressure).
    MAILBOX_FLOOD = "mailbox_flood"
    #: Corrupt descriptor XML before the DRCR parses it.
    DESCRIPTOR_CORRUPT = "descriptor_corrupt"
    #: Register a resolving service that raises (hung resolver).
    RESOLVER_TIMEOUT = "resolver_timeout"
    #: Fail-stop one cluster node (federation runs only).
    NODE_CRASH = "node_crash"
    #: Sever a node pair's links for a window (federation runs only).
    PARTITION = "partition"


#: Kinds that perturb a time window and need ``duration_ns``.
WINDOW_KINDS = frozenset({
    FaultKind.OVERRUN, FaultKind.MAILBOX_DROP,
    FaultKind.RESOLVER_TIMEOUT, FaultKind.PARTITION,
})

#: Kinds that fire a bounded number of times and honour ``count``.
COUNT_KINDS = frozenset({
    FaultKind.CRASH_ON_ACTIVATE, FaultKind.CRASH_ON_DEACTIVATE,
    FaultKind.DESCRIPTOR_CORRUPT,
})


def _number(data, field, default=None):
    """``data[field]``, or ``default`` when absent; anything but a
    finite int or float (a bool included) is a :class:`FaultPlanError`
    naming the field."""
    if field not in data:
        return default
    value = data[field]
    if isinstance(value, bool) or not isinstance(value, (int, float)) \
            or isinstance(value, float) and not math.isfinite(value):
        raise FaultPlanError("%s must be a finite number, got %r"
                             % (field, value))
    return value


def _recovery_config(field, config, required, check):
    """Checked copy of a ``watchdog``/``quarantine`` object (None when
    null or empty): ``required`` present, every value but ``policy`` a
    finite number, and ``check`` -- the range rule its constructor
    shares -- taking every key and passing every value; else a
    :class:`FaultPlanError` naming the field."""
    if config is not None and not isinstance(config, dict):
        raise FaultPlanError("%s must be an object or null, got %r"
                             % (field, config))
    if not config:
        return None
    config = dict(config)
    if required not in config:
        raise FaultPlanError("%s config needs %s" % (field, required))
    try:
        for key in config:
            if key != "policy":
                _number(config, key)
        check(**config)
    except (TypeError, ValueError) as error:
        # TypeError: a key ``check`` takes no argument for.
        raise FaultPlanError("%s config: %s" % (field, error)) from None
    return config


def _time_field(data, base, default=None):
    """Read ``<base>_ns`` or ``<base>_ms`` from a plan dict."""
    if base + "_ns" in data:
        return int(_number(data, base + "_ns"))
    if base + "_ms" in data:
        return int(_number(data, base + "_ms")) * MSEC
    return default


class FaultSpec:
    """One fault to inject: what, on whom, when, how hard."""

    __slots__ = ("kind", "target", "at_ns", "duration_ns", "count",
                 "factor", "probability")

    def __init__(self, kind, target="*", at_ns=0, duration_ns=None,
                 count=1, factor=10.0, probability=1.0):
        if not isinstance(kind, FaultKind):
            kind = FaultKind(kind)
        self.kind = kind
        self.target = target
        self.at_ns = int(at_ns)
        self.duration_ns = None if duration_ns is None \
            else int(duration_ns)
        self.count = int(count)
        self.factor = float(factor)
        self.probability = float(probability)
        self._validate()

    def _validate(self):
        if self.at_ns < 0:
            raise FaultPlanError("at_ns must be >= 0, got %d"
                                 % self.at_ns)
        if not self.target:
            raise FaultPlanError("target must be a component name "
                                 "or '*'")
        if self.kind in WINDOW_KINDS:
            if self.duration_ns is None or self.duration_ns <= 0:
                raise FaultPlanError(
                    "%s needs a positive duration_ns" % self.kind.value)
        if self.kind in COUNT_KINDS and self.count < 1:
            raise FaultPlanError("count must be >= 1, got %d"
                                 % self.count)
        if self.kind is FaultKind.OVERRUN and self.factor <= 1.0:
            raise FaultPlanError(
                "overrun factor must exceed 1.0, got %r" % self.factor)
        if not 0.0 < self.probability <= 1.0:
            raise FaultPlanError(
                "probability must be in (0, 1], got %r"
                % self.probability)
        if self.kind is FaultKind.NODE_CRASH and self.target == "*":
            raise FaultPlanError(
                "node_crash needs a specific node name, not '*'")
        if self.kind is FaultKind.PARTITION:
            parts = self.target.split("|")
            if len(parts) != 2 or not all(parts):
                raise FaultPlanError(
                    "partition target must be 'nodeA|nodeB', got %r"
                    % self.target)

    def matches(self, name):
        """Whether this spec targets component/bundle ``name``."""
        return self.target == "*" or self.target == name

    @property
    def end_ns(self):
        """End of the perturbation window (window kinds only)."""
        if self.duration_ns is None:
            return self.at_ns
        return self.at_ns + self.duration_ns

    def to_dict(self):
        """Plain-data form (JSON round-trippable)."""
        data = {"kind": self.kind.value, "target": self.target,
                "at_ns": self.at_ns}
        if self.duration_ns is not None:
            data["duration_ns"] = self.duration_ns
        if self.kind in COUNT_KINDS:
            data["count"] = self.count
        if self.kind is FaultKind.OVERRUN:
            data["factor"] = self.factor
        if self.probability != 1.0:
            data["probability"] = self.probability
        return data

    @classmethod
    def from_dict(cls, data):
        """Parse one spec; accepts ``at_ms``/``duration_ms`` sugar."""
        if not isinstance(data, dict):
            raise FaultPlanError("a fault must be an object, got %r"
                                 % (data,))
        try:
            kind = FaultKind(data["kind"])
        except (KeyError, ValueError) as error:
            raise FaultPlanError("bad fault kind in %r: %s"
                                 % (data, error)) from None
        target = data.get("target", "*")
        if not isinstance(target, str):
            raise FaultPlanError("target must be a string, got %r"
                                 % (target,))
        return cls(kind,
                   target=target,
                   at_ns=_time_field(data, "at", 0),
                   duration_ns=_time_field(data, "duration"),
                   count=_number(data, "count", 1),
                   factor=_number(data, "factor", 10.0),
                   probability=_number(data, "probability", 1.0))

    def __repr__(self):
        return "FaultSpec(%s, %s, at=%dns)" % (
            self.kind.value, self.target, self.at_ns)


class FaultPlan:
    """A named, seeded collection of :class:`FaultSpec` plus the
    recovery machinery to arm alongside them.

    ``watchdog`` (``{"limit_ns", "check_period_ns", "policy"}``) arms a
    :class:`~repro.rtos.watchdog.Watchdog`; ``quarantine``
    (``{"cooldown_ns", "max_failures"}``) installs a
    :class:`~repro.faults.recovery.QuarantinePolicy` on the DRCR.
    Either may be ``None`` to leave that machinery out.
    """

    def __init__(self, name, seed=0, faults=(), watchdog=None,
                 quarantine=None):
        self.name = name
        self.seed = int(seed)
        self.faults = list(faults)
        self.watchdog = _recovery_config("watchdog", watchdog, "limit_ns",
                                         Watchdog.check_config)
        self.quarantine = _recovery_config(
            "quarantine", quarantine, "cooldown_ns",
            QuarantinePolicy.check_config)

    def to_dict(self):
        """Plain-data form (JSON round-trippable)."""
        data = {"name": self.name, "seed": self.seed,
                "faults": [spec.to_dict() for spec in self.faults]}
        if self.watchdog is not None:
            data["watchdog"] = dict(self.watchdog)
        if self.quarantine is not None:
            data["quarantine"] = dict(self.quarantine)
        return data

    @classmethod
    def from_dict(cls, data):
        """Parse a plan from plain data."""
        if not isinstance(data, dict):
            raise FaultPlanError("a fault plan must be an object, got %r"
                                 % (data,))
        if "name" not in data:
            raise FaultPlanError("fault plan needs a name")
        faults = data.get("faults", [])
        if not isinstance(faults, list):
            raise FaultPlanError("'faults' must be a list, got %r"
                                 % (faults,))
        return cls(data["name"],
                   seed=_number(data, "seed", 0),
                   faults=[FaultSpec.from_dict(item) for item in faults],
                   watchdog=data.get("watchdog"),
                   quarantine=data.get("quarantine"))

    @classmethod
    def from_json_file(cls, path):
        """Load a plan from a JSON file."""
        with open(path, "r", encoding="utf-8") as handle:
            return cls.from_dict(json.load(handle))

    def __repr__(self):
        return "FaultPlan(%s, seed=%d, %d faults)" % (
            self.name, self.seed, len(self.faults))


def example_plan():
    """The built-in chaos plan for the demo pipeline.

    Targets the section-4.2/4.3 components (``CALC00`` 1000 Hz top
    priority, ``DISP00`` 250 Hz) over a one-second run:

    * 200 ms -- crash CALC00's task (quarantine + cascade to DISP00);
    * 300 ms -- quarantine cool-down expires, both re-admitted;
    * 500 ms -- CALC00's jobs overrun 400x for 20 ms; the watchdog
      (500 us continuous-occupancy limit, ``fault`` policy) evicts it
      within ~600 us, well inside DISP00's 4 ms deadline, so **no
      surviving component misses a deadline**;
    * 650 ms -- flood DISP00's command mailbox (overflow pressure);
    * 700 ms -- a raising resolving service appears for 20 ms; the
      DRCR fails safe on admission and fails open on revalidation.
    """
    return FaultPlan(
        "examples", seed=42,
        watchdog={"limit_ns": 500 * USEC,
                  "check_period_ns": 100 * USEC,
                  "policy": "fault"},
        quarantine={"cooldown_ns": 100 * MSEC, "max_failures": 3},
        faults=[
            FaultSpec(FaultKind.CRASH, "CALC00", at_ns=200 * MSEC),
            FaultSpec(FaultKind.OVERRUN, "CALC00", at_ns=500 * MSEC,
                      duration_ns=20 * MSEC, factor=400.0),
            FaultSpec(FaultKind.MAILBOX_FLOOD, "DISP00",
                      at_ns=650 * MSEC),
            FaultSpec(FaultKind.RESOLVER_TIMEOUT, "*",
                      at_ns=700 * MSEC, duration_ns=20 * MSEC),
        ])


def load_plan(spec):
    """Resolve a ``--faults`` argument to a :class:`FaultPlan`.

    ``"examples"`` names the built-in plan; anything else is a path to
    a JSON plan file.
    """
    if isinstance(spec, FaultPlan):
        return spec
    if spec == "examples":
        return example_plan()
    return FaultPlan.from_json_file(spec)
