"""Schema validation round-trips and rule providers."""

import json

import pytest

from repro.adapt.rules import (
    HISTORY_EPOCHS,
    JsonRuleProvider,
    RuleSchemaError,
    StaticRuleProvider,
    load_rule_file,
    parse_rule_document,
    parse_rule_document_tolerant,
)
from repro.workloads import RULE_SET_KINDS, generate_rule_set


def _doc(**overrides):
    rule = {
        "name": "guard",
        "priority": 5,
        "when": {"param": "deadline_miss_rate", "op": ">",
                 "value": 0.05, "for_epochs": 2},
        "clear": {"op": "<=", "value": 0.01},
        "then": [{"action": "shed_lowest_priority", "count": 1}],
        "cooldown_ns": 100_000_000,
    }
    rule.update(overrides)
    rule = {key: value for key, value in rule.items()
            if value is not None}
    return {"schema_version": 1, "rules": [rule]}


def test_round_trip_through_as_dict():
    rules = parse_rule_document(_doc())
    assert len(rules) == 1
    rule = rules[0]
    again = parse_rule_document({"rules": [rule.as_dict()]})[0]
    assert again.as_dict() == rule.as_dict()
    assert again.priority == 5
    assert again.cooldown_ns == 100_000_000
    assert again.when.for_epochs == 2
    # clear inherits the when-predicate's parameter
    assert again.clear.param == "deadline_miss_rate"


@pytest.mark.parametrize("kind", RULE_SET_KINDS)
def test_generated_rule_sets_validate(kind):
    rules = parse_rule_document(generate_rule_set(kind))
    assert rules
    assert all(rule.actions for rule in rules)


def test_every_problem_is_reported_at_once():
    document = _doc(when={"param": "bogus", "op": "~", "value": "x"},
                    then=[{"action": "frobnicate"}],
                    cooldown_ns=-1)
    with pytest.raises(RuleSchemaError) as excinfo:
        parse_rule_document(document)
    text = str(excinfo.value)
    assert "unknown context parameter" in text
    assert "unknown action" in text
    assert "cooldown_ns" in text


def test_tolerant_parse_keeps_valid_siblings():
    document = {"rules": [
        {"name": "bad", "when": {"param": "nope", "op": ">",
                                 "value": 1},
         "then": [{"action": "reconfigure"}]},
        _doc()["rules"][0],
    ]}
    rules, problems = parse_rule_document_tolerant(document)
    assert [rule.name for rule in rules] == ["guard"]
    assert problems


def test_duplicate_names_rejected():
    document = {"rules": [_doc()["rules"][0], _doc()["rules"][0]]}
    with pytest.raises(RuleSchemaError, match="duplicate rule name"):
        parse_rule_document(document)


def test_node_scope_only_on_node_scoped_params():
    with pytest.raises(RuleSchemaError, match="not node-scoped"):
        parse_rule_document(_doc(
            when={"param": "alive_nodes", "op": "<", "value": 2,
                  "node": "n0"},
            clear=None))
    rules = parse_rule_document(_doc(
        when={"param": "deadline_miss_rate", "op": ">", "value": 0.1,
              "node": "n0"},
        clear=None))
    assert rules[0].when.node == "n0"


def test_trend_predicate_shape():
    rules = parse_rule_document(_doc(
        when={"param": "dispatch_latency_p95", "trend": "rising",
              "epochs": 4},
        clear=None))
    when = rules[0].when
    assert when.kind == "trend"
    assert when.epochs == 4
    with pytest.raises(RuleSchemaError, match="excludes"):
        parse_rule_document(_doc(
            when={"param": "dispatch_latency_p95", "trend": "rising",
                  "op": ">", "value": 1},
            clear=None))


def test_trend_window_is_bounded_by_the_history():
    """The evaluator keeps HISTORY_EPOCHS epochs of context, so a
    longer trend could never hold."""
    longest = parse_rule_document(_doc(
        when={"param": "dispatch_latency_p95", "trend": "rising",
              "epochs": HISTORY_EPOCHS},
        clear=None))
    assert longest[0].when.epochs == HISTORY_EPOCHS
    for epochs in (1, HISTORY_EPOCHS + 1, 40):
        with pytest.raises(RuleSchemaError, match="'epochs'"):
            parse_rule_document(_doc(
                when={"param": "dispatch_latency_p95",
                      "trend": "rising", "epochs": epochs},
                clear=None))


def test_nan_value_rejected_infinite_kept():
    # json reads NaN: "> NaN" would never fire, "!= NaN" every epoch
    nan = float("nan")
    with pytest.raises(RuleSchemaError, match="NaN"):
        parse_rule_document(_doc(
            when={"param": "deadline_miss_rate", "op": "!=",
                  "value": nan}))
    with pytest.raises(RuleSchemaError, match="NaN"):
        parse_rule_document(_doc(clear={"op": "<=", "value": nan}))
    with pytest.raises(RuleSchemaError, match="NaN"):
        parse_rule_document(json.loads(json.dumps(_doc(
            when={"param": "deadline_miss_rate", "op": ">",
                  "value": nan}))))
    rules = parse_rule_document(_doc(
        when={"param": "deadline_miss_rate", "op": "<",
              "value": float("inf")},
        clear={"op": ">", "value": float("-inf")}))
    assert rules[0].when.value == float("inf")
    assert rules[0].clear.value == float("-inf")


def test_json_rule_provider_from_dict_text_and_file(tmp_path):
    document = generate_rule_set("latency-guard")
    from_dict = JsonRuleProvider(document)
    from_text = JsonRuleProvider(json.dumps(document))
    path = tmp_path / "rules.json"
    path.write_text(json.dumps(document), encoding="utf-8")
    from_file = JsonRuleProvider(str(path))
    names = [rule.name for rule in from_dict.rules()]
    assert [r.name for r in from_text.rules()] == names
    assert [r.name for r in from_file.rules()] == names
    assert load_rule_file(str(path))[0].name == names[0]


def test_json_rule_provider_rejects_bad_source(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json", encoding="utf-8")
    with pytest.raises(RuleSchemaError, match="invalid JSON"):
        JsonRuleProvider(str(path))
    with pytest.raises(RuleSchemaError):
        JsonRuleProvider({"rules": "nope"})


def test_static_provider_returns_copies():
    rules = parse_rule_document(_doc())
    provider = StaticRuleProvider(rules, name="inline")
    listed = provider.rules()
    listed.clear()
    assert provider.rules() == rules
