"""Malformed descriptors: each is a coded error, on every path.

A value the descriptor's converter rejects is a ``DescriptorError``
naming the attribute; a rate, distribution or name the runtime cannot
run is rejected when the descriptor parses.  drtlint reports each as
one DRT100 (exit 1), and a bundle deploys its healthy components past
any malformed one, counting and tracing it.
"""

import math
import os
import subprocess
import sys

import pytest

from repro.core.application import ApplicationDescriptor
from repro.core.contracts import DistributionSpec, RealTimeContract
from repro.core.descriptor import ComponentDescriptor
from repro.core.errors import ContractError, DescriptorError
from repro.lint.cli import main as lint_main
from repro.rtos.task import TaskType

from conftest import make_descriptor_xml

REPO = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))

HEALTHY = make_descriptor_xml("HEALTH", cpuusage=0.05, frequency=100,
                              priority=3)


def periodic(task="", component='cpuusage="0.1"', body=""):
    return ('<drt:component name="BADONE" type="periodic" %s>\n'
            '  <implementation bincode="x.Bad"/>\n'
            '  <periodictask frequence="100" runoncpu="0" priority="2"'
            ' %s/>\n%s</drt:component>' % (component, task, body))


def sporadic(task):
    return ('<drt:component name="BADONE" type="sporadic" cpuusage="0.1">\n'
            '  <implementation bincode="x.Bad"/>\n'
            '  <sporadictask %s runoncpu="0" priority="2"/>\n'
            '</drt:component>' % task)


HIGH_PRIORITY = periodic().replace('priority="2"', 'priority="high"')


def lint_one(tmp_path, capsys, text):
    (tmp_path / "bad.xml").write_text(text)
    status = lint_main([str(tmp_path)])
    return status, capsys.readouterr().out.splitlines()


# ----------------------------------------------------------------------
# one checked conversion
# ----------------------------------------------------------------------
@pytest.mark.parametrize("text, attribute", [
    (HIGH_PRIORITY, "priority"),
    (periodic().replace('runoncpu="0"', 'runoncup="1.5"'), "runoncpu"),
    (periodic('deadline_ns="5ms"'), "deadline_ns"),
    (sporadic('mininterarrival_ns="1.5e6"'), "mininterarrival_ns"),
    (sporadic('min_interarrival_ns="ten"'), "mininterarrival_ns"),
    (periodic(body='  <outport name="OUT" interface="RTAI.SHM" '
                   'type="Byte" size="4 kB"/>\n'), "size"),
])
def test_a_bad_value_names_its_attribute(text, attribute):
    with pytest.raises(DescriptorError,
                       match=r"^cannot parse %s=" % attribute):
        ComponentDescriptor.from_xml(text)


def test_text_that_cannot_be_encoded_is_a_parse_error():
    # A lone surrogate has no UTF-8 form for the XML parser to read.
    with pytest.raises(DescriptorError, match="does not parse"):
        ComponentDescriptor.from_xml(HIGH_PRIORITY.replace(
            "BADONE", "BAD\ud800"))


def test_lint_reports_a_bad_value_as_one_drt100(tmp_path):
    (tmp_path / "bad.xml").write_text(HIGH_PRIORITY)
    run = subprocess.run(
        [sys.executable, "-m", "repro", "lint", str(tmp_path)],
        capture_output=True, text=True, cwd=REPO,
        env=dict(os.environ, PYTHONPATH=os.path.join(REPO, "src")))
    assert run.returncode == 1
    assert run.stderr == ""
    findings = [line for line in run.stdout.splitlines()
                if line.startswith(str(tmp_path))]
    assert len(findings) == 1
    assert "[DRT100]" in findings[0]
    assert "priority='high'" in findings[0]


# ----------------------------------------------------------------------
# what the runtime cannot run is rejected at parse
# ----------------------------------------------------------------------
@pytest.mark.parametrize("frequency", ["inf", "3e9", "nan", "1e-300"])
def test_lint_rejects_a_rate_without_a_period(tmp_path, capsys,
                                              frequency):
    status, lines = lint_one(tmp_path, capsys, periodic().replace(
        'frequence="100"', 'frequence="%s"' % frequency))
    assert status == 1
    assert [line.split(": ", 1)[1].split(":")[0] for line in lines
            if "bad.xml" in line] == ["[DRT100] ERROR"]
    assert any("has no finite period of at least 1 ns" in line
               for line in lines)


def test_periodic_contract_needs_a_period_of_at_least_1ns():
    for frequency in (math.inf, math.nan, 3e9, 2e9, 1e-300):
        with pytest.raises(ContractError,
                           match="period of at least 1 ns"):
            RealTimeContract("X", TaskType.PERIODIC, cpu_usage=0.1,
                             frequency_hz=frequency)
    # 1.5 GHz rounds to a 1 ns period, the fastest rate there is.
    assert RealTimeContract("X", TaskType.PERIODIC, cpu_usage=0.1,
                            frequency_hz=1.5e9).period_ns == 1


@pytest.mark.parametrize("interarrival", [0.5, math.nan, math.inf,
                                          10 ** 400])
def test_sporadic_contract_needs_a_period_of_at_least_1ns(interarrival):
    with pytest.raises(ContractError, match="at least 1 ns"):
        RealTimeContract("X", TaskType.SPORADIC, cpu_usage=0.1,
                         min_interarrival_ns=interarrival)


def test_lint_rejects_an_interarrival_beyond_float_range(tmp_path,
                                                         capsys):
    status, lines = lint_one(tmp_path, capsys, sporadic(
        'mininterarrival_ns="1%s"' % ("0" * 400)))
    assert status == 1
    assert sum("[DRT100]" in line for line in lines) == 1


@pytest.mark.parametrize("params", [
    {"family": "uniform", "min_ns": math.nan, "max_ns": 200.0},
    {"family": "uniform", "min_ns": 0.0, "max_ns": math.inf},
    {"family": "exponential", "mean_ns": math.inf},
    {"family": "normal", "mean_ns": 100.0, "std_ns": math.nan},
])
def test_distribution_needs_finite_parameters(params):
    with pytest.raises(ContractError, match="finite parameters"):
        DistributionSpec(**params)


def test_lint_rejects_a_nan_distribution_bound(tmp_path, capsys):
    status, lines = lint_one(tmp_path, capsys, periodic(body=(
        '  <stochastic>\n'
        '    <exectime dist="uniform" min_ns="nan" max_ns="200"/>\n'
        '  </stochastic>\n')))
    assert status == 1
    assert sum("[DRT100]" in line for line in lines) == 1


def test_a_component_name_may_not_hold_the_kernel_plumbing_prefix():
    with pytest.raises(DescriptorError, match=r"may not contain '\$'"):
        ComponentDescriptor.from_xml(
            periodic().replace('name="BADONE"', 'name="$C0000"'))


# ----------------------------------------------------------------------
# a bundle deploys past a malformed descriptor
# ----------------------------------------------------------------------
@pytest.mark.parametrize("bad", [
    HIGH_PRIORITY,
    periodic(component='cpuusage="1.5"'),
    periodic(body='  <outport name="OUT" interface="RTAI.Pipe" '
                  'type="Byte" size="4"/>\n'),
    periodic().replace('name="BADONE"', 'name="$C0000"'),
], ids=["priority", "cpuusage", "interface", "plumbing-name"])
def test_a_malformed_descriptor_is_contained(platform, bad):
    platform.install_and_start(
        {"Bundle-SymbolicName": "mixed.bundle",
         "RT-Component": "OSGI-INF/a.xml, OSGI-INF/b.xml"},
        resources={"OSGI-INF/a.xml": bad, "OSGI-INF/b.xml": HEALTHY})
    assert platform.drcr.registry.maybe_get("HEALTH") is not None
    assert [c.name for c in platform.drcr.registry.all()] == ["HEALTH"]
    assert platform.telemetry.aggregate().get(
        "drcr.descriptor_errors_total").value == 1
    records = platform.kernel.sim.trace.by_category("descriptor_error")
    assert [(r.bundle, r.path) for r in records] \
        == [("mixed.bundle", "OSGI-INF/a.xml")]
    assert not [event for event in platform.framework.framework_events
                if event.error is not None]


# ----------------------------------------------------------------------
# applications
# ----------------------------------------------------------------------
@pytest.mark.parametrize("description", ["video & audio",
                                         'the "main" app', "<b>"])
def test_application_description_round_trips(description):
    member = ComponentDescriptor.from_xml(HEALTHY)
    app = ApplicationDescriptor("media & co", [member],
                                description=description)
    reparsed = ApplicationDescriptor.from_xml(app.to_xml())
    assert (reparsed.name, reparsed.description) \
        == ("media & co", description)
    assert reparsed.to_xml() == app.to_xml()
