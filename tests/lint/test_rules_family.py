"""DRT5xx: the adaptation-rule analyzer family."""

import json

import pytest

from repro.lint.adaptrules import check_rule_source, looks_like_rule_file
from repro.lint.diagnostics import CODE_TABLE, Severity
from repro.lint.engine import (
    FAMILIES,
    FAMILY_ALIASES,
    lint_paths,
    resolve_family,
)
from repro.workloads import RULE_SET_KINDS, generate_rule_set


def _codes(diagnostics):
    return sorted({d.code for d in diagnostics})


def test_code_table_has_the_family():
    for code in ("DRT500", "DRT501", "DRT502", "DRT503", "DRT504",
                 "DRT505"):
        severity, trigger, hint = CODE_TABLE[code]
        assert trigger and hint
    assert CODE_TABLE["DRT501"][0] is Severity.ERROR
    assert CODE_TABLE["DRT503"][0] is Severity.WARNING
    assert CODE_TABLE["DRT505"][0] is Severity.INFO


def test_family_aliases_resolve():
    assert "rules" in FAMILIES
    assert resolve_family("rules") == "rules"
    assert resolve_family("DRT5") == "rules"
    assert resolve_family("drt5") == "rules"
    assert FAMILY_ALIASES["DRT1"] == "contract"
    with pytest.raises(ValueError, match="unknown analyzer family"):
        resolve_family("DRT9")


def test_rule_file_sniffing():
    assert looks_like_rule_file('{"rules": []}')
    assert not looks_like_rule_file('{"plan": []}')
    assert not looks_like_rule_file("[1, 2]")
    assert not looks_like_rule_file("not json")


@pytest.mark.parametrize("kind", RULE_SET_KINDS)
def test_generated_rule_sets_lint_clean(kind):
    text = json.dumps(generate_rule_set(kind))
    assert check_rule_source(text, "<%s>" % kind) == []


def test_invalid_json_is_drt500():
    diagnostics = check_rule_source("{broken", "<x>")
    assert _codes(diagnostics) == ["DRT500"]


class TestUnsatisfiableRules:
    """DRT500: rules the schema admitted at HEAD but the evaluator can
    never run as written."""

    def _text(self, when, clear=None):
        rule = {"name": "never", "when": when,
                "then": [{"action": "reconfigure"}], "cooldown_ns": 1}
        if clear is not None:
            rule["clear"] = clear
        return json.dumps({"rules": [rule]})

    def test_trend_longer_than_the_history_is_drt500(self):
        diagnostics = check_rule_source(self._text(
            {"param": "deadline_miss_rate", "trend": "rising",
             "epochs": 40}), "<x>")
        assert _codes(diagnostics) == ["DRT500"]
        assert "'epochs'" in diagnostics[0].message

    def test_nan_threshold_is_drt500(self):
        for op in (">", "!="):
            text = self._text({"param": "deadline_miss_rate", "op": op,
                               "value": float("nan")})
            assert "NaN" in text  # what json.dumps writes and reads
            diagnostics = check_rule_source(text, "<x>")
            assert _codes(diagnostics) == ["DRT500"], op

    def test_nan_clear_is_drt500(self):
        diagnostics = check_rule_source(self._text(
            {"param": "deadline_miss_rate", "op": ">", "value": 0.5},
            clear={"op": "<", "value": float("nan")}), "<x>")
        assert _codes(diagnostics) == ["DRT500"]

    def test_longest_trend_and_infinite_bounds_stay_clean(self):
        for when in ({"param": "deadline_miss_rate", "trend": "rising",
                      "epochs": 32},
                     {"param": "overruns", "op": "<",
                      "value": float("inf")}):
            assert check_rule_source(self._text(when), "<x>") == [], when


def test_schema_and_semantic_codes_coexist():
    """One malformed rule must not mask findings about valid ones."""
    document = {"rules": [
        {"name": "r1",
         "when": {"param": "nope", "op": ">", "value": 1},
         "then": [{"action": "frobnicate"}]},
        {"name": "r2",  # unreachable: miss rate is in [0, 1]
         "when": {"param": "deadline_miss_rate", "op": ">", "value": 2},
         "then": [{"action": "reconfigure"}], "cooldown_ns": 1000},
        {"name": "r3",
         "when": {"param": "deadline_miss_rate", "op": ">",
                  "value": 0.5},
         "then": [{"action": "suspend", "component": "B"}],
         "cooldown_ns": 1000},
        {"name": "r4",  # overlaps r3: (0.5, 0.9) satisfies both
         "when": {"param": "deadline_miss_rate", "op": "<",
                  "value": 0.9},
         "then": [{"action": "resume", "component": "B"}],
         "cooldown_ns": 1000},
        {"name": "r5",  # fires every epoch: no damping at all
         "when": {"param": "overruns", "op": ">", "value": 10},
         "then": [{"action": "reconfigure"}]},
    ]}
    diagnostics = check_rule_source(json.dumps(document), "<x>")
    assert _codes(diagnostics) == ["DRT501", "DRT502", "DRT503",
                                   "DRT504", "DRT505"]


def test_disjoint_all_group_is_unreachable():
    document = {"rules": [{
        "name": "impossible",
        "when": {"all": [
            {"param": "overruns", "op": ">", "value": 10},
            {"param": "overruns", "op": "<", "value": 5},
        ]},
        "then": [{"action": "reconfigure"}], "cooldown_ns": 1,
    }]}
    diagnostics = check_rule_source(json.dumps(document), "<x>")
    assert _codes(diagnostics) == ["DRT504"]


def test_component_scoped_leaves_are_analysed_per_component():
    # Two components' ratios are independent keys; one negative ratio
    # is unreachable and named by its scoped key.
    document = {"rules": [{
        "name": "budget",
        "when": {"all": [
            {"param": "budget_ratio", "component": "A", "op": ">",
             "value": 2},
            {"param": "budget_ratio", "component": "B", "op": "<",
             "value": 1},
            {"param": "budget_ratio", "component": "B", "op": "<",
             "value": 0},
        ]},
        "then": [{"action": "suspend", "component": "A"}],
        "cooldown_ns": 1,
    }]}
    diagnostics = check_rule_source(json.dumps(document), "<x>")
    assert _codes(diagnostics) == ["DRT504"]
    assert "'budget_ratio#B'" in diagnostics[0].message


def test_exclusive_bands_are_not_contradictory():
    document = {"rules": [
        {"name": "off",
         "when": {"param": "deadline_miss_rate", "op": ">",
                  "value": 0.5},
         "then": [{"action": "suspend", "component": "C"}],
         "cooldown_ns": 1000},
        {"name": "on",
         "when": {"param": "deadline_miss_rate", "op": "<",
                  "value": 0.1},
         "then": [{"action": "resume", "component": "C"}],
         "cooldown_ns": 1000},
    ]}
    assert check_rule_source(json.dumps(document), "<x>") == []


class TestClampedThresholds:
    """DRT506: thresholds above the histogram grid's last finite bound
    are dead -- ``percentile_from_buckets`` clamps what it reports."""

    GRID_MAX = 1_000_000.0  # DEFAULT_LATENCY_BOUNDS_NS[-1]

    def _rule(self, op, value, param="dispatch_latency_p99"):
        return {"rules": [{
            "name": "clamped",
            "when": {"param": param, "op": op, "value": value},
            "then": [{"action": "reconfigure"}], "cooldown_ns": 1000,
        }]}

    def test_strictly_above_grid_max_is_dead(self):
        diagnostics = check_rule_source(
            json.dumps(self._rule(">", self.GRID_MAX)), "<x>")
        assert _codes(diagnostics) == ["DRT506"]
        assert CODE_TABLE["DRT506"][0] is Severity.WARNING

    def test_at_or_above_past_grid_max_is_dead(self):
        diagnostics = check_rule_source(
            json.dumps(self._rule(">=", self.GRID_MAX + 1)), "<x>")
        assert _codes(diagnostics) == ["DRT506"]

    def test_equality_past_grid_max_is_dead(self):
        diagnostics = check_rule_source(
            json.dumps(self._rule("==", self.GRID_MAX * 2)), "<x>")
        assert _codes(diagnostics) == ["DRT506"]

    def test_reachable_thresholds_stay_clean(self):
        for op, value in ((">", self.GRID_MAX - 1),
                          (">=", self.GRID_MAX),   # can hold: clamp hits it
                          ("<", self.GRID_MAX * 2),
                          ("<=", self.GRID_MAX * 2)):
            diagnostics = check_rule_source(
                json.dumps(self._rule(op, value)), "<x>")
            assert diagnostics == [], (op, value)

    def test_unclamped_params_are_exempt(self):
        # deadline_miss_rate has a range, not a clamp; values past its
        # range are DRT504's business, not DRT506's.
        diagnostics = check_rule_source(
            json.dumps(self._rule(">", 2.0,
                                  param="deadline_miss_rate")), "<x>")
        assert _codes(diagnostics) == ["DRT504"]

    def test_clear_predicate_is_checked_too(self):
        document = {"rules": [{
            "name": "clamped-clear",
            "when": {"param": "dispatch_latency_p99", "op": ">",
                     "value": 50_000},
            "clear": {"param": "dispatch_latency_p99", "op": ">",
                      "value": self.GRID_MAX * 10},
            "then": [{"action": "reconfigure"}],
        }]}
        diagnostics = check_rule_source(json.dumps(document), "<x>")
        assert _codes(diagnostics) == ["DRT506"]


def test_lint_paths_picks_up_rule_files(tmp_path):
    rule_path = tmp_path / "guard.rules.json"
    rule_path.write_text(json.dumps(generate_rule_set("latency-guard")),
                         encoding="utf-8")
    other_json = tmp_path / "baseline.json"
    other_json.write_text('{"samples": [1, 2, 3]}', encoding="utf-8")
    result = lint_paths([str(tmp_path)])
    assert result.units == 1  # the non-rule JSON passes unexamined
    assert result.diagnostics == []

    bad = tmp_path / "bad.rules.json"
    bad.write_text(json.dumps({"rules": [{
        "name": "r",
        "when": {"param": "nope", "op": ">", "value": 1},
        "then": [{"action": "reconfigure"}],
    }]}), encoding="utf-8")
    result = lint_paths([str(tmp_path)], families=("rules",))
    assert result.codes() == ["DRT501"]
    # family filtering: the rules family off means no rule diagnostics
    result = lint_paths([str(tmp_path)], families=("contract",))
    assert result.diagnostics == []


def test_cli_accepts_drt5_alias(tmp_path, capsys):
    from repro.lint.cli import main
    rule_path = tmp_path / "guard.rules.json"
    rule_path.write_text(json.dumps(generate_rule_set("miss-rate-guard")),
                         encoding="utf-8")
    status = main(["--family", "DRT5", str(tmp_path)])
    out = capsys.readouterr().out
    assert status == 0
    assert "0 error" in out
