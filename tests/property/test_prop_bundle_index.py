"""Differential check: the bundle identity index against the scan.

``reference_duplicate`` below is :meth:`Framework.install_bundle`'s
duplicate check as it was before bundles were indexed by
``(symbolic name, version)``: a walk over every installed bundle.  It is
kept here, and only here, as the specification the index must match
across random install / uninstall / update sequences: install (and an
update that changes a bundle's identity) raises exactly when the walk
finds another live bundle with that identity, and ``get_bundles()``
keeps install order.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.osgi.bundle import BundleState
from repro.osgi.errors import BundleError
from repro.osgi.framework import Framework
from repro.osgi.version import Version

NAMES = ("a", "b", "c")
#: Several spellings of the same version, so identity is by value.
VERSIONS = ("1.0", "1.0.0", "1", "2.0.0", "2.0.0.q")


def reference_duplicate(framework, symbolic_name, version, exclude=None):
    version = Version.parse(version)
    for existing in framework.get_bundles():
        if (existing is not exclude
                and existing.symbolic_name == symbolic_name
                and existing.version == version
                and existing.state is not BundleState.UNINSTALLED):
            return True
    return False


def headers(name, version):
    return {"Bundle-SymbolicName": name, "Bundle-Version": version}


names = st.sampled_from(NAMES)
versions = st.sampled_from(VERSIONS)
steps = st.lists(st.one_of(
    st.tuples(st.just("install"), names, versions),
    st.tuples(st.just("uninstall"), st.integers(0, 50)),
    st.tuples(st.just("update"), st.integers(0, 50), names, versions),
    st.tuples(st.just("start"), st.integers(0, 50)),
), min_size=1, max_size=40)


@settings(max_examples=150, deadline=None)
@given(steps)
def test_identity_index_matches_the_scan(script):
    framework = Framework()
    installed = []  # the model: live bundles in install order
    for step in script:
        if step[0] == "install":
            _, name, version = step
            expected = reference_duplicate(framework, name, version)
            try:
                installed.append(framework.install_bundle(
                    headers(name, version)))
                raised = False
            except BundleError:
                raised = True
            assert raised == expected
        elif installed:
            bundle = installed[step[1] % len(installed)]
            if step[0] == "uninstall":
                bundle.uninstall()
                installed.remove(bundle)
            elif step[0] == "start":
                bundle.start()
            else:
                _, _, name, version = step
                before = (bundle.symbolic_name, bundle.version,
                          bundle.state)
                expected = reference_duplicate(framework, name, version,
                                               exclude=bundle)
                try:
                    bundle.update(headers=headers(name, version))
                    raised = False
                except BundleError:
                    raised = True
                assert raised == expected
                if raised:
                    assert (bundle.symbolic_name, bundle.version,
                            bundle.state) == before
        assert framework.get_bundles() == installed
        identities = [(b.symbolic_name, b.version) for b in installed]
        assert len(set(identities)) == len(identities)
        for bundle in installed:
            assert framework.get_bundle(
                bundle.symbolic_name, str(bundle.version)) is bundle
