"""Placement: the one fit test, best-fit and grouping every layer uses.

The descriptor's ``runoncup``/``runoncpu`` attribute pins a component to
a processor chosen by the developer at design time.  On a multi-core
box (the paper's testbed was a duo-core T5500) a static pin wastes
capacity: two 60% components pinned to CPU 0 cannot both be admitted
even though CPU 1 idles.  A *placement service* closes that gap: the
DRCR consults it before admission and re-pins the candidate's contract
to the CPU the policy selects.

A descriptor can opt out per component with the property
``drcom.placement = "pinned"`` (the design-time pin is then honoured).

This module is the one owner of the declared-budget placement
decision: :func:`fits`, :func:`best_fit`, :func:`cpu_for`,
:func:`pack`, :func:`best_node`, :func:`is_pinned`, :func:`claim_of`
and :func:`co_location_groups`.  Admission, CPU and node placement,
graceful degradation and failover call them at run time, and the
DRT601/DRT602 plan analyzers call them on plan data, so the linter and
the runtime agree by construction.
"""

import itertools

#: Float slack on every declared-budget comparison: a claim fits when
#: ``load + claim <= cap + CAPACITY_SLACK``.
CAPACITY_SLACK = 1e-12


def fits(total, cap):
    """Whether a declared-utilization ``total`` stays within ``cap``."""
    return total <= cap + CAPACITY_SLACK


def best_fit(loads, claim, caps):
    """Index of the least-loaded slot that fits ``claim``, or ``None``.

    Slot ``i`` fits when ``loads[i] + claim`` passes :func:`fits`
    against ``caps[i]``; ties go to the first slot.  The test is
    inlined rather than called per slot: PlanGuard's lint runs this
    once per component on every deploy.
    """
    best = None
    best_load = None
    for index, load in enumerate(loads):
        if load + claim > caps[index] + CAPACITY_SLACK:
            continue
        if best is None or load < best_load:
            best = index
            best_load = load
    return best


class PinnedClaim(float):
    """A declared CPU claim only CPU ``cpu`` may take: what a
    ``drcom.placement=pinned`` component claims (:func:`claim_of`).
    A float, so sums and formatting read it as its usage."""

    __slots__ = ("cpu",)

    def __new__(cls, usage, cpu):
        claim = super().__new__(cls, usage)
        claim.cpu = cpu
        return claim

    def __repr__(self):
        return "PinnedClaim(%r, cpu=%d)" % (float(self), self.cpu)


def cpu_for(loads, claim, caps):
    """The CPU a node's admission puts ``claim`` on, given per-CPU
    ``loads``, or ``None`` when it rejects it: a :class:`PinnedClaim`
    takes only its own CPU, any other claim the :func:`best_fit` CPU
    :class:`BestFitPlacement` picks."""
    if isinstance(claim, PinnedClaim):
        cpu = claim.cpu
        if cpu < len(loads) and fits(loads[cpu] + claim, caps[cpu]):
            return cpu
        return None
    return best_fit(loads, claim, caps)


def pack(loads, claims, caps):
    """Put ``claims`` in turn onto the per-CPU ``loads``, in place, on
    the :func:`cpu_for` CPU, as a node admits them one by one; returns
    how many found no CPU (admission rejects those)."""
    misses = 0
    for claim in claims:
        cpu = cpu_for(loads, claim, caps)
        if cpu is None:
            misses += 1
        else:
            loads[cpu] += claim
    return misses


def best_node(nodes, claims):
    """The node that takes every one of ``claims``: ``(index,
    packed)``, or ``None`` when no node does.

    ``nodes`` lists ``(total, loads, caps)`` per node.  A node takes
    the claims when :func:`pack` places them all on its CPUs, as its
    own admission would; the least ``total`` of those wins, ties going
    to the first.  ``packed`` is a new list: the winner's ``loads``
    with the claims on.  The one node-choice rule: deploys, migration,
    failover and DRT602 all choose here.
    """
    best = None
    best_total = None
    for index, (total, loads, caps) in enumerate(nodes):
        if best is not None and total >= best_total:
            continue  # cannot win, whatever it takes
        packed = list(loads)
        if not pack(packed, claims, caps):
            best = (index, packed)
            best_total = total
    return best


def is_pinned(descriptor):
    """Whether the descriptor opts out of automatic placement."""
    return descriptor.property_value("drcom.placement") == "pinned"


def claim_of(descriptor):
    """The claim :func:`pack` places for ``descriptor``: its declared
    usage, as a :class:`PinnedClaim` on its CPU when it
    :func:`is_pinned`."""
    usage = descriptor.contract.cpu_usage
    if is_pinned(descriptor):
        return PinnedClaim(usage, descriptor.contract.cpu)
    return usage


def co_location_groups(items, applications, name_of):
    """Partition ``items`` into co-location groups.

    Members of one application (transitively, when applications
    overlap) form one group -- their port wiring only resolves inside
    one node's kernel.  Everything else is a singleton.  Application
    groups come first, then singletons, each in ``items`` order;
    ``name_of(item)`` is the item's component name.
    """
    group_of = {}  # component name -> group id
    merged = {}    # group id -> set of names
    next_id = itertools.count()
    for members in applications.values():
        ids = {group_of[m] for m in members if m in group_of}
        target = min(ids) if ids else next(next_id)
        names = merged.setdefault(target, set())
        for gid in ids:
            if gid != target:
                names |= merged.pop(gid)
        names.update(members)
        for name in names:
            group_of[name] = target
    groups = {}
    singles = []
    for item in items:
        gid = group_of.get(name_of(item))
        if gid is None:
            singles.append([item])
        else:
            groups.setdefault(gid, []).append(item)
    return list(groups.values()) + singles


class PlacementService:
    """Interface: choose a CPU for a candidate before admission."""

    #: Policy name for traces and benchmarks.
    name = "placement"

    def place(self, candidate, view):
        """Return the CPU number for ``candidate``, or ``None`` to
        keep its descriptor pin."""
        raise NotImplementedError


class PinnedPlacement(PlacementService):
    """Honour the descriptor pin (the paper's behaviour)."""

    name = "pinned"

    def place(self, candidate, view):
        return None


class FirstFitPlacement(PlacementService):
    """The first CPU whose declared budget still fits the candidate."""

    name = "first-fit"

    def __init__(self, cap=1.0):
        self.cap = cap

    def place(self, candidate, view):
        usage = candidate.contract.cpu_usage
        for cpu in range(view.num_cpus()):
            if fits(view.registry.declared_utilization(cpu) + usage,
                    self.cap):
                return cpu
        return None  # nowhere fits: leave the pin, admission decides


class BestFitPlacement(PlacementService):
    """The least-loaded CPU that fits (balances declared budgets)."""

    name = "best-fit"

    def __init__(self, cap=1.0):
        self.cap = cap

    def place(self, candidate, view):
        num_cpus = view.num_cpus()
        loads = [view.registry.declared_utilization(cpu)
                 for cpu in range(num_cpus)]
        return best_fit(loads, candidate.contract.cpu_usage,
                        [self.cap] * num_cpus)
