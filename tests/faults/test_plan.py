"""FaultPlan/FaultSpec: validation, round-trips, the built-in plan."""

import pytest

from repro.faults.plan import (COUNT_KINDS, WINDOW_KINDS, FaultKind,
                               FaultPlan, FaultPlanError, FaultSpec,
                               example_plan, load_plan)
from repro.sim.engine import MSEC

#: One field of the example plan set to a value of the wrong JSON type
#: (or a non-finite number), as ``(path, value)``.
WRONG_TYPES = [
    pytest.param(("faults", 0, "at_ns"), None, id="at-null"),
    pytest.param(("seed",), None, id="seed-null"),
    pytest.param(("watchdog",), 5, id="watchdog-number"),
    pytest.param(("faults", 1, "duration_ns"), [1], id="duration-list"),
    pytest.param(("faults", 1, "factor"), "400", id="factor-string"),
    pytest.param(("faults", 2, "at_ns"), True, id="at-bool"),
    pytest.param(("faults", 0, "count"), "2", id="count-string"),
    pytest.param(("faults", 3, "probability"), None,
                 id="probability-null"),
    pytest.param(("faults", 0, "at_ns"), float("inf"), id="at-infinite"),
    pytest.param(("faults", 0, "target"), 5, id="target-number"),
    pytest.param(("quarantine",), [100], id="quarantine-list"),
]

#: One recovery-config key of the example plan set to a value the
#: watchdog or quarantine policy would refuse, or a key neither takes,
#: as ``(path, value)``.
BAD_RECOVERY = [
    pytest.param(("watchdog", "limit_ns"), None, id="watchdog-limit-null"),
    pytest.param(("watchdog", "limit_ns"), 0.5, id="watchdog-limit-0.5"),
    pytest.param(("watchdog", "check_period_ns"), 0.5,
                 id="watchdog-period-0.5"),
    pytest.param(("watchdog", "limit_us"), 500, id="watchdog-unknown-key"),
    pytest.param(("watchdog", "policy"), "reboot",
                 id="watchdog-policy-reboot"),
    pytest.param(("quarantine", "cooldown_ns"), -5,
                 id="quarantine-cooldown-negative"),
    pytest.param(("quarantine", "retries"), 2,
                 id="quarantine-unknown-key"),
]


def example_with(path, value):
    """``example_plan().to_dict()`` with the field at ``path`` set to
    ``value``."""
    data = example_plan().to_dict()
    owner = data
    for key in path[:-1]:
        owner = owner[key]
    owner[path[-1]] = value
    return data


class TestFaultSpec:
    def test_dict_round_trip_every_kind(self):
        for kind in FaultKind:
            # The cluster kinds target nodes (a pair for partition),
            # not components.
            target = "nodeA|nodeB" \
                if kind is FaultKind.PARTITION else "TGT000"
            spec = FaultSpec(
                kind, target=target, at_ns=5 * MSEC,
                duration_ns=2 * MSEC if kind in WINDOW_KINDS else None,
                count=3 if kind in COUNT_KINDS else 1,
                factor=4.0, probability=0.5)
            clone = FaultSpec.from_dict(spec.to_dict())
            assert clone.kind is spec.kind
            assert clone.target == spec.target
            assert clone.at_ns == spec.at_ns
            assert clone.duration_ns == spec.duration_ns
            assert clone.count == spec.count
            assert clone.probability == spec.probability

    def test_string_kind_accepted(self):
        spec = FaultSpec("crash", target="A")
        assert spec.kind is FaultKind.CRASH

    def test_ms_sugar(self):
        spec = FaultSpec.from_dict(
            {"kind": "overrun", "at_ms": 100, "duration_ms": 20,
             "factor": 5.0})
        assert spec.at_ns == 100 * MSEC
        assert spec.duration_ns == 20 * MSEC
        assert spec.end_ns == 120 * MSEC

    def test_window_kinds_need_duration(self):
        for kind in WINDOW_KINDS:
            with pytest.raises(FaultPlanError):
                FaultSpec(kind, factor=2.0)

    def test_overrun_factor_must_exceed_one(self):
        with pytest.raises(FaultPlanError):
            FaultSpec(FaultKind.OVERRUN, duration_ns=MSEC, factor=1.0)

    def test_probability_bounds(self):
        for bad in (0.0, -0.5, 1.5):
            with pytest.raises(FaultPlanError):
                FaultSpec(FaultKind.CRASH, probability=bad)

    def test_count_must_be_positive(self):
        with pytest.raises(FaultPlanError):
            FaultSpec(FaultKind.DESCRIPTOR_CORRUPT, count=0)

    def test_negative_time_rejected(self):
        with pytest.raises(FaultPlanError):
            FaultSpec(FaultKind.CRASH, at_ns=-1)

    def test_bad_kind_rejected(self):
        with pytest.raises(FaultPlanError):
            FaultSpec.from_dict({"kind": "meteor_strike"})

    def test_matches_wildcard_and_exact(self):
        assert FaultSpec(FaultKind.CRASH, target="*").matches("ANY000")
        spec = FaultSpec(FaultKind.CRASH, target="CALC00")
        assert spec.matches("CALC00")
        assert not spec.matches("DISP00")


class TestFaultPlan:
    def test_round_trip_with_recovery_config(self):
        plan = example_plan()
        clone = FaultPlan.from_dict(plan.to_dict())
        assert clone.name == plan.name
        assert clone.seed == plan.seed
        assert clone.watchdog == plan.watchdog
        assert clone.quarantine == plan.quarantine
        assert [s.to_dict() for s in clone.faults] \
            == [s.to_dict() for s in plan.faults]

    def test_plan_needs_name(self):
        with pytest.raises(FaultPlanError):
            FaultPlan.from_dict({"faults": []})

    @pytest.mark.parametrize("data", [
        123, None, ["name"],
        {"name": "x", "faults": [1]},
        {"name": "x", "faults": [None]},
        {"name": "x", "faults": "crash"},
        {"name": "x", "faults": {"kind": "crash"}},
    ], ids=["number", "null", "list", "entry-number",
            "entry-null", "faults-string", "faults-object"])
    def test_misshapen_plan_is_a_plan_error(self, data):
        with pytest.raises(FaultPlanError):
            FaultPlan.from_dict(data)

    def test_misshapen_spec_is_a_plan_error(self):
        with pytest.raises(FaultPlanError):
            FaultSpec.from_dict(["kind", "crash"])

    @pytest.mark.parametrize("path, value", WRONG_TYPES)
    def test_wrong_typed_field_is_a_plan_error(self, path, value):
        with pytest.raises(FaultPlanError, match=path[-1]):
            FaultPlan.from_dict(example_with(path, value))

    @pytest.mark.parametrize("path, value", BAD_RECOVERY)
    def test_bad_recovery_config_is_a_plan_error(self, path, value):
        with pytest.raises(FaultPlanError, match=path[-1]) as raised:
            FaultPlan.from_dict(example_with(path, value))
        assert path[0] in str(raised.value)

    def test_watchdog_config_needs_limit(self):
        with pytest.raises(FaultPlanError):
            FaultPlan("p", watchdog={"policy": "fault"})

    def test_quarantine_config_needs_cooldown(self):
        with pytest.raises(FaultPlanError):
            FaultPlan("p", quarantine={"max_failures": 2})

    def test_json_file_round_trip(self, tmp_path):
        import json
        path = tmp_path / "plan.json"
        path.write_text(json.dumps(example_plan().to_dict()),
                        encoding="utf-8")
        plan = FaultPlan.from_json_file(str(path))
        assert plan.name == "examples"
        assert len(plan.faults) == 4

    def test_load_plan_builtin_and_passthrough(self, tmp_path):
        builtin = load_plan("examples")
        assert builtin.name == "examples"
        assert load_plan(builtin) is builtin
        import json
        path = tmp_path / "p.json"
        path.write_text(json.dumps({"name": "file-plan"}),
                        encoding="utf-8")
        assert load_plan(str(path)).name == "file-plan"

    def test_example_plan_is_deterministic_data(self):
        assert example_plan().to_dict() == example_plan().to_dict()
