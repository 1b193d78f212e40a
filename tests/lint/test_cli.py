"""drtlint CLI and engine plumbing: exit codes, JSON schema
stability, the ``--list-codes`` table, source dedupe, and the
acceptance check that the shipped examples lint clean at error
level."""

import json
import os
import subprocess
import sys

import pytest

from repro.lint.cli import main
from repro.lint.diagnostics import CODE_TABLE
from repro.workloads import generate_defective_plan

REPO = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))
EXAMPLES = os.path.join(REPO, "examples")

CLEAN_XML = """<?xml version="1.0" encoding="UTF-8"?>
<drt:component name="CLEAN0" type="periodic" enabled="true"
               cpuusage="0.1">
  <implementation bincode="test.Clean"/>
  <periodictask frequence="100" runoncpu="0" priority="2"/>
</drt:component>"""

BROKEN_XML = """<?xml version="1.0" encoding="UTF-8"?>
<drt:component name="BROKEN" type="periodic" enabled="true"
               cpuusage="0.1">
  <implementation bincode="test.Broken"/>
  <periodictask frequence="100" runoncpu="0" priority="2"/>
  <inport name="NOPE00" interface="RTAI.SHM" type="Integer"
          size="4"/>
</drt:component>"""


WARN_XML = """<?xml version="1.0" encoding="UTF-8"?>
<drt:component name="WARNING7" type="periodic" enabled="true"
               cpuusage="0.1">
  <implementation bincode="test.Warn"/>
  <periodictask frequence="100" runoncpu="0" priority="2"/>
</drt:component>"""


@pytest.fixture
def clean_tree(tmp_path):
    (tmp_path / "clean.xml").write_text(CLEAN_XML)
    return str(tmp_path)


@pytest.fixture
def warning_tree(tmp_path):
    # An over-long name truncates into the RTAI task name: DRT103,
    # a warning -- the tree's only finding.
    (tmp_path / "warn.xml").write_text(WARN_XML)
    return str(tmp_path)


@pytest.fixture
def broken_tree(tmp_path):
    (tmp_path / "broken.xml").write_text(BROKEN_XML)
    return str(tmp_path)


class TestExitCodes:
    def test_clean_tree_exits_zero(self, clean_tree, capsys):
        assert main([clean_tree]) == 0
        assert "0 diagnostic(s)" in capsys.readouterr().out

    def test_error_finding_exits_one(self, broken_tree, capsys):
        assert main([broken_tree]) == 1
        assert "DRT201" in capsys.readouterr().out

    def test_fail_on_threshold_is_respected(self, clean_tree, capsys):
        # A dangling outport is only an info: below every threshold
        # the CLI accepts.
        assert main([clean_tree, "--fail-on", "warning"]) == 0
        capsys.readouterr()

    def test_missing_path_exits_two(self, tmp_path, capsys):
        missing = str(tmp_path / "nosuchdir")
        assert main([missing]) == 2
        assert "nosuchdir" in capsys.readouterr().err

    def test_warning_passes_default_threshold(self, warning_tree,
                                              capsys):
        assert main([warning_tree]) == 0
        assert "DRT103" in capsys.readouterr().out

    def test_warning_fails_warning_threshold(self, warning_tree,
                                             capsys):
        assert main([warning_tree, "--fail-on", "warning"]) == 1
        capsys.readouterr()

    def test_unknown_family_exits_two(self, clean_tree, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main([clean_tree, "--family", "DRT9"])
        assert excinfo.value.code == 2
        capsys.readouterr()

    def test_no_paths_without_list_codes_exits_two(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main([])
        assert excinfo.value.code == 2
        capsys.readouterr()

    def test_defective_plan_exits_one(self, tmp_path, capsys):
        document, expected = generate_defective_plan("overcommit")
        plan = tmp_path / "plan.json"
        plan.write_text(json.dumps(document))
        assert main([str(plan), "--family", "DRT6"]) == 1
        assert expected in capsys.readouterr().out

    def test_warning_grade_plan_needs_the_threshold(self, tmp_path,
                                                    capsys):
        # DRT604 is a warning: passes at the default threshold,
        # fails at --fail-on warning.
        document, _ = generate_defective_plan("latency_budget")
        plan = tmp_path / "plan.json"
        plan.write_text(json.dumps(document))
        assert main([str(plan), "--family", "DRT6"]) == 0
        capsys.readouterr()
        assert main([str(plan), "--family", "DRT6",
                     "--fail-on", "warning"]) == 1
        assert "DRT604" in capsys.readouterr().out

    @pytest.mark.parametrize("families, code", [
        ([], "DRT600"),
        (["--family", "DRT5"], "DRT500"),
    ], ids=["default-families", "rules-family"])
    def test_unparseable_json_is_an_error_not_skipped(
            self, tmp_path, capsys, families, code):
        broken = tmp_path / "broken.json"
        broken.write_text('{"plan_version": 1, "nodes": [')
        assert main([str(broken), *families]) == 1
        out = capsys.readouterr().out
        assert "[%s] ERROR: invalid JSON" % code in out
        assert "1 diagnostic(s) (1 error" in out
        assert "1 source(s)" in out

    def test_valid_json_of_no_known_kind_stays_unexamined(self, tmp_path,
                                                          capsys):
        (tmp_path / "metrics.json").write_text('{"counters": {}}')
        assert main([str(tmp_path / "metrics.json")]) == 0
        assert "0 diagnostic(s)" in capsys.readouterr().out


class TestUndecodableFiles:
    """A file that is not UTF-8 is one error, coded like an unparseable
    file of its kind, and the rest of the directory is linted."""

    @pytest.mark.parametrize("name, content, families, code, location", [
        ("bad.xml", CLEAN_XML.replace("test.Clean", "test.\xff")
         .encode("latin-1"), [], "DRT100", "bad.xml"),
        ("bad.json", b'{"rules": [],\n "x": "\xfe"}', [], "DRT600",
         "bad.json"),
        ("bad.json", b'{"rules": [],\n "x": "\xfe"}', ["--family", "DRT5"],
         "DRT500", "bad.json"),
        ("bad.py", b'x = 1\ny = "\xff"\n', [], "DRT400", "bad.py:2"),
    ], ids=["xml", "json", "json-rules-family", "py"])
    def test_is_one_coded_error(self, tmp_path, capsys, name, content,
                                families, code, location):
        (tmp_path / name).write_bytes(content)
        (tmp_path / "warn.xml").write_text(WARN_XML)
        assert main([str(tmp_path), "--json", *families]) == 1
        payload = json.loads(capsys.readouterr().out)
        errors = [record for record in payload["diagnostics"]
                  if record["severity"] == "error"]
        assert [(record["code"], record["location"]) for record in errors] \
            == [(code, str(tmp_path / location))]
        assert "is not UTF-8: byte 0x" in errors[0]["message"]
        assert payload["summary"]["sources"] == 2
        if not families:
            # warn.xml's own finding: the directory was linted.
            assert payload["summary"]["by_code"].get("DRT103") == 1


class TestListCodes:
    def test_lists_every_code_and_exits_zero(self, capsys):
        assert main(["--list-codes"]) == 0
        out = capsys.readouterr().out
        for code in CODE_TABLE:
            assert code in out
        assert "%d diagnostic codes" % len(CODE_TABLE) in out

    def test_table_rows_carry_severity_and_family(self, capsys):
        main(["--list-codes"])
        out = capsys.readouterr().out
        assert "DRT601  error    deployment" in out
        assert "DRT604  warning  deployment" in out


class TestSourceDedupe:
    def test_file_named_twice_lints_once(self, broken_tree, capsys):
        # The same file via its path and its parent directory: one
        # source, one finding -- and no DRT101 name collision from
        # the phantom duplicate.
        broken_file = os.path.join(broken_tree, "broken.xml")
        assert main([broken_file, broken_tree, "--json"]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["summary"]["sources"] == 1
        assert payload["summary"]["by_code"] == {"DRT201": 1}


class TestJsonOutput:
    def test_json_schema_is_stable(self, broken_tree, capsys):
        main([broken_tree, "--json"])
        payload = json.loads(capsys.readouterr().out)
        assert payload["version"] == 1
        assert payload["tool"] == "drtlint"
        assert sorted(payload) == ["diagnostics", "summary", "tool",
                                   "version"]
        assert sorted(payload["summary"]) == [
            "by_code", "by_severity", "diagnostics", "sources",
            "units"]
        # Severity keys are always present, even at zero.
        assert sorted(payload["summary"]["by_severity"]) == [
            "error", "info", "warning"]
        for record in payload["diagnostics"]:
            assert sorted(record) == ["code", "component", "fix_hint",
                                      "location", "message",
                                      "severity"]

    def test_json_reports_the_finding(self, broken_tree, capsys):
        main([broken_tree, "--json"])
        payload = json.loads(capsys.readouterr().out)
        assert payload["summary"]["by_code"].get("DRT201") == 1
        record = payload["diagnostics"][0]
        assert record["code"] == "DRT201"
        assert record["component"] == "BROKEN"

    def test_family_filter_limits_analyzers(self, broken_tree,
                                            capsys):
        # Wiring excluded: the unsatisfied inport goes unreported.
        assert main([broken_tree, "--json", "--family",
                     "contract"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["summary"]["diagnostics"] == 0


class TestTelemetry:
    def test_lint_paths_records_counters(self, broken_tree):
        from repro.lint import lint_paths
        from repro.telemetry.metrics import Telemetry

        telemetry = Telemetry()
        result = lint_paths([broken_tree], telemetry=telemetry)
        registry = telemetry.registry("lint")
        assert registry.get("runs_total").value == 1
        assert registry.get("units_total").value == result.units
        assert registry.get("sources_total").value == result.sources
        assert registry.get("diagnostics_total").value \
            == len(result.diagnostics)
        assert registry.get("severity.error").value == 1
        assert registry.get("code.DRT201").value == 1


class TestExamplesAcceptance:
    def test_shipped_examples_lint_clean_at_error_level(self):
        # The ISSUE acceptance check, run exactly as CI runs it.
        env = dict(os.environ)
        env["PYTHONPATH"] = os.path.join(REPO, "src")
        result = subprocess.run(
            [sys.executable, "-m", "repro", "lint", EXAMPLES,
             "--fail-on", "error"],
            capture_output=True, text=True, env=env, cwd=REPO)
        assert result.returncode == 0, result.stdout + result.stderr

    def test_module_invocation_knows_the_lint_subcommand(self):
        env = dict(os.environ)
        env["PYTHONPATH"] = os.path.join(REPO, "src")
        result = subprocess.run(
            [sys.executable, "-m", "repro", "lint", "--help"],
            capture_output=True, text=True, env=env, cwd=REPO)
        assert result.returncode == 0
        assert "--fail-on" in result.stdout
