"""C6 (EXPERIMENTS.md): stochastic contracts under bursty load.

The acceptance criteria of the contract monitor live here: under an
identical post-onset burst the point-estimate deployment degrades and
never sheds anything (admission had no grounds to refuse, and nothing
at runtime enforces a distribution), while the monitored deployment
quarantines exactly the two planted components within its patience
window and returns the fleet's tail miss rate to (essentially) zero.
"""

import pytest

from repro.experiments import BurstyContracts, run_comparison
from repro.workloads import generate_bursty_fleet

#: Miss-rate floor: ratios against a zero baseline are meaningless.
FLOOR = 0.005


@pytest.fixture(scope="module")
def comparison():
    """Both arms of C6 on identical seeds (run once per module)."""
    return run_comparison(BurstyContracts(), seconds=2.0)


def test_both_arms_admit_and_run_clean_before_onset(comparison):
    # Every descriptor is lint-clean and the point estimates fit, so
    # both arms deploy the full fleet and miss nothing pre-burst.
    for arm in ("static", "stochastic"):
        report = comparison[arm]
        assert report["pre"]["releases"] > 0
        assert report["pre"]["miss_rate"] <= FLOOR


def test_static_arm_degrades_and_sheds_nothing(comparison):
    static = comparison["static"]
    assert static["quarantined"] == []
    assert static["monitor"] is None
    # The burst never breaks a point estimate the runtime enforces, so
    # the degradation persists all the way into the tail window.
    assert static["post"]["miss_rate"] >= 0.10
    assert static["tail"]["miss_rate"] >= 0.10


def test_monitor_quarantines_exactly_the_planted_pair(comparison):
    stochastic = comparison["stochastic"]
    planted = sorted(stochastic["planted"].values())
    assert stochastic["quarantined"] == planted
    # the honest base fleet is untouched
    for name, state in stochastic["states"].items():
        if name not in planted:
            assert state == "active", (name, state)


def test_monitored_arm_recovers_in_the_tail(comparison):
    stochastic = comparison["stochastic"]
    static_tail = comparison["static"]["tail"]["miss_rate"]
    # After quarantine the tail window is clean -- under 1% of the
    # static arm's tail, and essentially back at the pre-burst level.
    assert stochastic["tail"]["miss_rate"] < 0.01 * static_tail
    assert stochastic["tail"]["miss_rate"] <= FLOOR


def test_monitor_findings_are_the_planted_violations(comparison):
    monitor = comparison["stochastic"]["monitor"]
    planted = set(comparison["stochastic"]["planted"].values())
    assert monitor["violations_total"] == 2
    assert monitor["quarantines_total"] == 2
    assert monitor["checks_total"] > 0
    by_component = {v["component"]: v for v in monitor["violations"]}
    assert set(by_component) == planted
    burst_at_ns = comparison["stochastic"]["burst_at_ns"]
    for violation in monitor["violations"]:
        # no false positives before the onset, and every rejection is
        # decisive at the declared tolerance
        assert violation["time_ns"] > burst_at_ns
        assert violation["p_value"] < 0.01
    # the periodic component lies about execution time, the sporadic
    # one about its arrival process
    bursty = comparison["stochastic"]["planted"]["bursty"]
    sporadic = comparison["stochastic"]["planted"]["sporadic"]
    assert by_component[bursty]["clause"] == "exectime"
    assert by_component[sporadic]["clause"] == "interarrival"


def test_fleet_is_lint_clean_by_construction():
    # Admission has no static grounds to refuse the C6 fleet: no
    # diagnostics at all, across every analyzer family.
    from repro.lint.engine import lint_descriptors
    from repro.sim.rng import RandomStreams
    descriptors, _ = generate_bursty_fleet(RandomStreams(7), "c6")
    assert lint_descriptors(descriptors) == []
