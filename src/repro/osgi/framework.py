"""The OSGi framework: bundle management, wiring, events, registry.

The reproduction's Equinox stand-in.  It owns every bundle lifecycle
transition, maintains the wiring resolver and the service registry, and
delivers bundle/service/framework events synchronously.  DRCR
(:mod:`repro.core.drcr`) attaches to a framework instance as a bundle
listener, exactly as the paper's runtime sits on Equinox 3.2.1.
"""

import itertools

from repro.osgi.bundle import Bundle, BundleContext, BundleState
from repro.osgi.errors import BundleError, BundleStateError, ResolutionError
from repro.osgi.events import (
    BundleEvent,
    BundleEventType,
    FrameworkEvent,
    FrameworkEventType,
    ListenerList,
)
from repro.osgi.manifest import BundleManifest
from repro.osgi.registry import ServiceRegistry
from repro.osgi.version import Version
from repro.osgi.wiring import WiringResolver


def _identity(bundle):
    """A bundle's (or manifest's) ``(symbolic name, version)`` key."""
    return bundle.symbolic_name, bundle.version


class Framework:
    """A running OSGi framework instance.

    ``telemetry`` is an optional :class:`~repro.telemetry.metrics
    .Telemetry` switchboard; when given, the service registry's lookup
    and filter-cache instruments land in its ``osgi`` registry.
    """

    def __init__(self, telemetry=None):
        #: bundle id -> bundle, in install order.
        self._bundles = {}
        #: (symbolic name, version) -> the installed bundle with that
        #: identity (at most one, per spec).
        self._by_identity = {}
        self._ids = itertools.count(1)
        self.framework_events = []
        self.bundle_listeners = ListenerList(on_error=self._listener_error)
        self.service_listeners = ListenerList(on_error=self._listener_error)
        metrics = telemetry.registry("osgi") if telemetry is not None \
            else None
        self.registry = ServiceRegistry(listeners=self.service_listeners,
                                        metrics=metrics)
        self.resolver = WiringResolver()
        self._started = True
        self._record(FrameworkEventType.STARTED)

    # ------------------------------------------------------------------
    # events
    # ------------------------------------------------------------------
    def _record(self, event_type, source=None, error=None):
        self.framework_events.append(
            FrameworkEvent(event_type, source, error))

    def _listener_error(self, listener, event, error):
        self._record(FrameworkEventType.ERROR, source=listener, error=error)

    def _emit_bundle_event(self, event_type, bundle):
        self.bundle_listeners.deliver(BundleEvent(event_type, bundle))

    # ------------------------------------------------------------------
    # bundle management
    # ------------------------------------------------------------------
    def install_bundle(self, headers, resources=None, activator=None):
        """Install a bundle from headers + resources.

        Duplicate (symbolic-name, version) pairs are rejected, per spec.
        """
        bundle = Bundle(self, next(self._ids), headers, resources,
                        activator)
        identity = _identity(bundle)
        if identity in self._by_identity:
            raise BundleError(
                "bundle %s %s already installed"
                % (bundle.symbolic_name, bundle.version))
        self._bundles[bundle.bundle_id] = bundle
        self._by_identity[identity] = bundle
        self._emit_bundle_event(BundleEventType.INSTALLED, bundle)
        return bundle

    def resolve_bundle(self, bundle):
        """Resolve a bundle's package imports; publishes its exports."""
        bundle._require_state(BundleState.INSTALLED)
        self.resolver.offer_exports(bundle)
        try:
            self.resolver.resolve(bundle)
        except ResolutionError:
            self.resolver.withdraw_exports(bundle)
            raise
        bundle.state = BundleState.RESOLVED
        self._emit_bundle_event(BundleEventType.RESOLVED, bundle)

    def start_bundle(self, bundle):
        """Start a bundle (resolving first when needed)."""
        if bundle.state is BundleState.ACTIVE:
            return
        if bundle.state is BundleState.INSTALLED:
            self.resolve_bundle(bundle)
        bundle._require_state(BundleState.RESOLVED)
        bundle.state = BundleState.STARTING
        bundle.context = BundleContext(self, bundle)
        self._emit_bundle_event(BundleEventType.STARTING, bundle)
        if bundle.activator is not None:
            try:
                bundle.activator.start(bundle.context)
            except Exception:
                bundle.state = BundleState.RESOLVED
                bundle.context = None
                raise
        bundle.state = BundleState.ACTIVE
        self._emit_bundle_event(BundleEventType.STARTED, bundle)

    def stop_bundle(self, bundle):
        """Stop an active bundle; its services are unregistered."""
        if bundle.state is not BundleState.ACTIVE:
            raise BundleStateError(
                "bundle %s is %s; cannot stop"
                % (bundle.symbolic_name, bundle.state.name))
        bundle.state = BundleState.STOPPING
        self._emit_bundle_event(BundleEventType.STOPPING, bundle)
        try:
            if bundle.activator is not None:
                bundle.activator.stop(bundle.context)
        finally:
            self.registry.unregister_all_for_bundle(bundle)
            bundle.context = None
            bundle.state = BundleState.RESOLVED
            self._emit_bundle_event(BundleEventType.STOPPED, bundle)

    def uninstall_bundle(self, bundle):
        """Remove a bundle entirely (stopping it first if active)."""
        if bundle.state is BundleState.UNINSTALLED:
            raise BundleStateError("bundle already uninstalled")
        if bundle.state is BundleState.ACTIVE:
            self.stop_bundle(bundle)
        if bundle.is_resolved:
            self.resolver.unresolve(bundle)
            self.resolver.withdraw_exports(bundle)
            self._emit_bundle_event(BundleEventType.UNRESOLVED, bundle)
        bundle.state = BundleState.UNINSTALLED
        del self._by_identity[_identity(bundle)]
        self._emit_bundle_event(BundleEventType.UNINSTALLED, bundle)
        del self._bundles[bundle.bundle_id]

    def update_bundle(self, bundle, headers=None, resources=None,
                      activator=None):
        """Swap bundle content in place (the continuous-deployment
        update path); an active bundle is stopped, updated, restarted.

        New headers may not give the bundle the (symbolic-name,
        version) identity of another installed bundle: that is rejected
        before the bundle is touched, as a duplicate install is.
        """
        manifest = None
        if headers is not None:
            manifest = BundleManifest(headers)
            owner = self._by_identity.get(_identity(manifest))
            if owner is not None and owner is not bundle \
                    and bundle.state is not BundleState.UNINSTALLED:
                raise BundleError(
                    "bundle %s %s already installed"
                    % (manifest.symbolic_name, manifest.version))
        was_active = bundle.state is BundleState.ACTIVE
        if was_active:
            self.stop_bundle(bundle)
        if bundle.is_resolved:
            self.resolver.unresolve(bundle)
            self.resolver.withdraw_exports(bundle)
            bundle.state = BundleState.INSTALLED
        if manifest is not None:
            installed = bundle.state is not BundleState.UNINSTALLED
            if installed:
                del self._by_identity[_identity(bundle)]
            bundle.manifest = manifest
            if installed:
                self._by_identity[_identity(bundle)] = bundle
        if resources is not None:
            bundle.resources = dict(resources)
        if activator is not None:
            bundle.activator = activator
        self._emit_bundle_event(BundleEventType.UPDATED, bundle)
        if was_active:
            self.start_bundle(bundle)

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def get_bundles(self):
        """All installed bundles, in install order."""
        return list(self._bundles.values())

    def get_bundle(self, symbolic_name, version=None):
        """Find a bundle by symbolic name (and optionally version, in
        any form :meth:`Version.parse` accepts: ``"1.0"`` finds
        ``1.0.0``)."""
        if version is not None:
            version = Version.parse(version)
        for bundle in self._bundles.values():
            if bundle.symbolic_name != symbolic_name:
                continue
            if version is not None and bundle.version != version:
                continue
            return bundle
        return None

    def shutdown(self):
        """Stop every active bundle (reverse install order) and the
        framework itself."""
        for bundle in reversed(list(self._bundles.values())):
            if bundle.state is BundleState.ACTIVE:
                self.stop_bundle(bundle)
        self._started = False
        self._record(FrameworkEventType.STOPPED)

    def __repr__(self):
        return "Framework(%d bundles, %d services)" % (
            len(self._bundles), len(self.registry))
