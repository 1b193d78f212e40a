"""Tests for bundle lifecycle, wiring and framework events."""

import pytest

from repro.osgi.bundle import BundleActivator, BundleState
from repro.osgi.errors import (
    BundleError,
    BundleStateError,
    ResolutionError,
)
from repro.osgi.events import BundleEventType, FrameworkEventType
from repro.osgi.framework import Framework


@pytest.fixture
def fw():
    return Framework()


def install(fw, name, version="1.0.0", **extra):
    headers = {"Bundle-SymbolicName": name, "Bundle-Version": version}
    headers.update(extra)
    return fw.install_bundle(headers)


class TestInstall:
    def test_install_assigns_ids(self, fw):
        a = install(fw, "a")
        b = install(fw, "b")
        assert a.bundle_id == 1
        assert b.bundle_id == 2
        assert a.state is BundleState.INSTALLED

    def test_duplicate_name_version_rejected(self, fw):
        install(fw, "a", "1.0.0")
        with pytest.raises(BundleError):
            install(fw, "a", "1.0.0")

    def test_same_name_different_version_ok(self, fw):
        install(fw, "a", "1.0.0")
        install(fw, "a", "2.0.0")
        assert len(fw.get_bundles()) == 2

    def test_get_bundle_by_name_and_version(self, fw):
        install(fw, "a", "1.0.0")
        b2 = install(fw, "a", "2.0.0")
        assert fw.get_bundle("a", "2.0.0") is b2
        assert fw.get_bundle("a").version == fw.get_bundles()[0].version
        assert fw.get_bundle("zzz") is None

    def test_get_bundle_accepts_a_short_version(self, fw):
        # "1.0" is stored as 1.0.0; the query must parse, not compare
        # strings.
        bundle = install(fw, "a", "1.0")
        assert fw.get_bundle("a", "1.0") is bundle
        assert fw.get_bundle("a", "1.0.0") is bundle
        assert fw.get_bundle("a", "1.1") is None

    def test_installed_event_emitted(self, fw):
        events = []
        fw.bundle_listeners.add(events.append)
        install(fw, "a")
        assert events[0].event_type is BundleEventType.INSTALLED


class TestStartStop:
    def test_start_resolves_and_activates(self, fw):
        bundle = install(fw, "a")
        bundle.start()
        assert bundle.state is BundleState.ACTIVE
        assert bundle.context is not None

    def test_start_is_idempotent(self, fw):
        bundle = install(fw, "a")
        bundle.start()
        bundle.start()
        assert bundle.state is BundleState.ACTIVE

    def test_event_sequence_on_start_stop(self, fw):
        events = []
        fw.bundle_listeners.add(
            lambda e: events.append(e.event_type))
        bundle = install(fw, "a")
        bundle.start()
        bundle.stop()
        assert events == [
            BundleEventType.INSTALLED,
            BundleEventType.RESOLVED,
            BundleEventType.STARTING,
            BundleEventType.STARTED,
            BundleEventType.STOPPING,
            BundleEventType.STOPPED,
        ]

    def test_activator_called(self, fw):
        calls = []

        class Activator(BundleActivator):
            def start(self, context):
                calls.append(("start", context.bundle.symbolic_name))

            def stop(self, context):
                calls.append(("stop", context.bundle.symbolic_name))

        bundle = fw.install_bundle(
            {"Bundle-SymbolicName": "a"}, activator=Activator())
        bundle.start()
        bundle.stop()
        assert calls == [("start", "a"), ("stop", "a")]

    def test_activator_start_failure_rolls_back(self, fw):
        class Broken(BundleActivator):
            def start(self, context):
                raise RuntimeError("boom")

        bundle = fw.install_bundle(
            {"Bundle-SymbolicName": "a"}, activator=Broken())
        with pytest.raises(RuntimeError):
            bundle.start()
        assert bundle.state is BundleState.RESOLVED
        assert bundle.context is None

    def test_stop_unregisters_bundle_services(self, fw):
        bundle = install(fw, "a")
        bundle.start()
        bundle.context.register_service("IFoo", object())
        assert fw.registry.get_reference("IFoo") is not None
        bundle.stop()
        assert fw.registry.get_reference("IFoo") is None

    def test_stop_inactive_raises(self, fw):
        bundle = install(fw, "a")
        with pytest.raises(BundleStateError):
            bundle.stop()


class TestWiringIntegration:
    def test_import_resolves_against_export(self, fw):
        exporter = install(fw, "exp", **{
            "Export-Package": "com.api;version=1.5"})
        importer = install(fw, "imp", **{
            "Import-Package": 'com.api;version="[1.0,2.0)"'})
        exporter.start()
        importer.start()
        wires = fw.resolver.wires_of(importer)
        assert len(wires) == 1
        assert wires[0].exporter is exporter

    def test_unsatisfied_import_blocks_start(self, fw):
        importer = install(fw, "imp", **{
            "Import-Package": "com.missing"})
        with pytest.raises(ResolutionError):
            importer.start()
        assert importer.state is BundleState.INSTALLED

    def test_optional_import_does_not_block(self, fw):
        importer = install(fw, "imp", **{
            "Import-Package": "com.missing;resolution:=optional"})
        importer.start()
        assert importer.state is BundleState.ACTIVE

    def test_version_range_excludes_wrong_export(self, fw):
        install(fw, "exp", **{"Export-Package": "com.api;version=3.0"})
        importer = install(fw, "imp", **{
            "Import-Package": 'com.api;version="[1.0,2.0)"'})
        with pytest.raises(ResolutionError):
            importer.start()

    def test_highest_version_preferred(self, fw):
        old = install(fw, "old", **{
            "Export-Package": "com.api;version=1.0"})
        new = install(fw, "new", **{
            "Export-Package": "com.api;version=1.9"})
        old.start()
        new.start()
        importer = install(fw, "imp", **{"Import-Package": "com.api"})
        importer.start()
        assert fw.resolver.wires_of(importer)[0].exporter is new

    def test_dependents_tracked(self, fw):
        exporter = install(fw, "exp", **{
            "Export-Package": "com.api"})
        importer = install(fw, "imp", **{
            "Import-Package": "com.api"})
        exporter.start()
        importer.start()
        assert fw.resolver.dependents_of(exporter) == [importer]


class TestUninstallUpdate:
    def test_uninstall_active_bundle_stops_first(self, fw):
        bundle = install(fw, "a")
        bundle.start()
        bundle.uninstall()
        assert bundle.state is BundleState.UNINSTALLED
        assert fw.get_bundle("a") is None

    def test_double_uninstall_raises(self, fw):
        bundle = install(fw, "a")
        bundle.uninstall()
        with pytest.raises(BundleStateError):
            bundle.uninstall()

    def test_uninstall_withdraws_exports(self, fw):
        exporter = install(fw, "exp", **{"Export-Package": "com.api"})
        exporter.start()
        exporter.uninstall()
        assert fw.resolver.exported_of("com.api") == []

    def test_update_restarts_active_bundle(self, fw):
        events = []
        bundle = install(fw, "a")
        bundle.start()
        fw.bundle_listeners.add(lambda e: events.append(e.event_type))
        bundle.update(headers={"Bundle-SymbolicName": "a",
                               "Bundle-Version": "1.1.0"})
        assert bundle.state is BundleState.ACTIVE
        assert str(bundle.version) == "1.1.0"
        assert BundleEventType.UPDATED in events
        assert events[-1] is BundleEventType.STARTED

    def test_update_to_another_bundles_identity_rejected(self, fw):
        bundle = install(fw, "c")
        bundle.start()
        install(fw, "a")
        with pytest.raises(BundleError):
            bundle.update(headers={"Bundle-SymbolicName": "a",
                                   "Bundle-Version": "1.0.0"})
        # Rejected before the bundle was stopped or changed.
        assert bundle.state is BundleState.ACTIVE
        assert bundle.symbolic_name == "c"
        assert sorted((b.symbolic_name, str(b.version))
                      for b in fw.get_bundles()) \
            == [("a", "1.0.0"), ("c", "1.0.0")]
        # Its own identity stays legal, and the freed one is reusable.
        bundle.update(headers={"Bundle-SymbolicName": "c",
                               "Bundle-Version": "1.0"})
        bundle.update(headers={"Bundle-SymbolicName": "d"})
        assert install(fw, "c").symbolic_name == "c"

    def test_update_swaps_resources(self, fw):
        bundle = fw.install_bundle({"Bundle-SymbolicName": "a"},
                                   resources={"f.xml": "old"})
        bundle.update(resources={"f.xml": "new"})
        assert bundle.get_resource("f.xml") == "new"


class TestFrameworkLifecycle:
    def test_started_event_recorded(self, fw):
        assert fw.framework_events[0].event_type \
            is FrameworkEventType.STARTED

    def test_listener_errors_isolated(self, fw):
        seen = []

        def bad_listener(event):
            raise ValueError("listener bug")

        fw.bundle_listeners.add(bad_listener)
        fw.bundle_listeners.add(lambda e: seen.append(e))
        install(fw, "a")
        assert len(seen) == 1  # later listener still ran
        errors = [e for e in fw.framework_events
                  if e.event_type is FrameworkEventType.ERROR]
        assert len(errors) == 1

    def test_shutdown_stops_active_bundles_in_reverse(self, fw):
        order = []

        class Recorder(BundleActivator):
            def __init__(self, name):
                self.name = name

            def start(self, context):
                pass

            def stop(self, context):
                order.append(self.name)

        for name in ("a", "b", "c"):
            fw.install_bundle({"Bundle-SymbolicName": name},
                              activator=Recorder(name)).start()
        fw.shutdown()
        assert order == ["c", "b", "a"]
        assert fw.framework_events[-1].event_type \
            is FrameworkEventType.STOPPED
