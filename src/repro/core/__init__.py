"""The paper's contribution: the DRCom model and the DRCR runtime.

Public surface:

* :class:`~repro.core.descriptor.ComponentDescriptor` -- parsed DRCom
  XML (section 2.3),
* :class:`~repro.core.drcr.DRCR` -- the runtime (sections 1, 2.2),
* :class:`~repro.core.component.DRComComponent` and the Figure-1
  lifecycle in :mod:`repro.core.lifecycle`,
* the management interface (section 2.4) in
  :mod:`repro.core.management`,
* resolving services and built-in policies in
  :mod:`repro.core.resolving` / :mod:`repro.core.policies`.

Adaptation managers -- the §2.4 clients of the management services --
are rules run by :mod:`repro.adapt`.
"""

from repro.core.application import ApplicationDescriptor
from repro.core.component import DRComComponent, LifecycleToken
from repro.core.contracts import RealTimeContract
from repro.core.descriptor import ComponentDescriptor, ComponentProperty
from repro.core.drcr import DRCR, DRCR_SERVICE_INTERFACE
from repro.core.errors import (
    AdmissionError,
    ContractError,
    DescriptorError,
    DRComError,
    DuplicateComponentError,
    LifecycleError,
    NotManagedByDRCRError,
    PortError,
    UnknownComponentError,
)
from repro.core.events import (
    ComponentEvent,
    ComponentEventLog,
    ComponentEventType,
)
from repro.core.lifecycle import (
    INSTANTIATED_STATES,
    TRANSITIONS,
    ComponentState,
    can_transition,
    reachable_states,
)
from repro.core.management import (
    MANAGEMENT_SERVICE_INTERFACE,
    ComponentManagementService,
    RTComponentManagement,
    management_service_properties,
)
from repro.core.policies import (
    AlwaysAcceptPolicy,
    AlwaysRejectPolicy,
    CompositePolicy,
    EDFPolicy,
    LiuLaylandPolicy,
    PriorityBandPolicy,
    ResponseTimeAnalysisPolicy,
    UtilizationBoundPolicy,
)
from repro.core.inspection import system_report
from repro.core.placement import (
    BestFitPlacement,
    FirstFitPlacement,
    PinnedPlacement,
    PlacementService,
)
from repro.core.ports import (
    PORT_DATA_TYPES,
    PortBinding,
    PortDirection,
    PortInterface,
    PortSpec,
)
from repro.core.registry import ComponentRegistry
from repro.core.snapshot import export_state, restore_state
from repro.core.resolving import (
    RESOLVING_SERVICE_INTERFACE,
    Decision,
    GlobalView,
    ResolvingService,
)

__all__ = [
    "ApplicationDescriptor",
    "BestFitPlacement",
    "AdmissionError",
    "AlwaysAcceptPolicy",
    "AlwaysRejectPolicy",
    "can_transition",
    "ComponentDescriptor",
    "ComponentEvent",
    "ComponentEventLog",
    "ComponentEventType",
    "ComponentManagementService",
    "ComponentProperty",
    "ComponentRegistry",
    "ComponentState",
    "CompositePolicy",
    "ContractError",
    "Decision",
    "DescriptorError",
    "DRComComponent",
    "DRComError",
    "DRCR",
    "DRCR_SERVICE_INTERFACE",
    "DuplicateComponentError",
    "EDFPolicy",
    "GlobalView",
    "INSTANTIATED_STATES",
    "LifecycleError",
    "LifecycleToken",
    "LiuLaylandPolicy",
    "MANAGEMENT_SERVICE_INTERFACE",
    "management_service_properties",
    "NotManagedByDRCRError",
    "PortBinding",
    "PortDirection",
    "PortError",
    "PortInterface",
    "FirstFitPlacement",
    "PinnedPlacement",
    "PlacementService",
    "PortSpec",
    "PORT_DATA_TYPES",
    "PriorityBandPolicy",
    "reachable_states",
    "RealTimeContract",
    "RESOLVING_SERVICE_INTERFACE",
    "ResolvingService",
    "ResponseTimeAnalysisPolicy",
    "RTComponentManagement",
    "export_state",
    "restore_state",
    "system_report",
    "TRANSITIONS",
    "UnknownComponentError",
    "UtilizationBoundPolicy",
]
