"""C5 (EXPERIMENTS.md): the load-spike experiment, both arms.

The acceptance criteria of the adaptation engine live here: under an
identical flash-crowd the rule-driven deployment holds its windowed
deadline-miss rate essentially flat while the static deployment
degrades by at least 5x, every action is routed through public APIs
(no private-attribute access anywhere in ``repro.adapt``), and the
``adapt.*`` counters actually move.
"""

import os
import re

import pytest

from repro.experiments import (
    SPIKE_PRIORITY_OFFSET,
    LoadSpike,
    default_rules,
    run_comparison,
)

#: Miss-rate floor used by the flatness criterion: both arms start at
#: (or near) zero misses, and ratios against zero are meaningless.
FLOOR = 0.02


@pytest.fixture(scope="module")
def comparison():
    """Both arms of C5 on identical seeds (run once per module)."""
    return run_comparison(LoadSpike(), seconds=2.0)


def test_static_arm_degrades_after_spike(comparison):
    static = comparison["static"]
    pre = static["pre"]["miss_rate"]
    post = static["post"]["miss_rate"]
    assert post >= 5 * max(pre, FLOOR)
    # nothing shed anything: the whole fleet is still deployed
    assert len(static["active"]) == 10


def test_rule_arm_holds_miss_rate_flat(comparison):
    adaptive = comparison["rules"]
    pre = adaptive["pre"]["miss_rate"]
    post = adaptive["post"]["miss_rate"]
    assert post < 2 * max(pre, FLOOR)
    # and it is dramatically better than the static arm
    static_post = comparison["static"]["post"]["miss_rate"]
    assert static_post >= 5 * max(post, FLOOR)


def test_rules_actually_fired(comparison):
    adapt = comparison["rules"]["adapt"]
    assert adapt is not None
    assert adapt["rules_fired_total"] > 0
    assert adapt["counters"]["actions_executed_total"] > 0
    assert adapt["counters"]["action_errors_total"] == 0
    assert adapt["history"]


def test_shedding_ate_the_spike_first(comparison):
    adaptive = comparison["rules"]
    # the protected (most important) baseline component kept running
    assert adaptive["protected"]["deadline_misses"] == 0
    # every shed component is a spike component, not a baseline one
    shed = [name for name, state in adaptive["states"].items()
            if state != "active"]
    assert shed
    assert all(name.startswith("SPC") for name in shed)
    assert all(name.startswith("BAC") for name in adaptive["active"])


def test_spike_components_marked_less_important():
    assert SPIKE_PRIORITY_OFFSET >= 100
    rules = default_rules()
    assert rules
    assert all(rule.actions for rule in rules)


def test_no_private_attribute_access_in_adapt_package():
    """Every action must go through public APIs: no ``obj._name``
    access in repro.adapt, repro.monitor or the experiment harness
    except on ``self``/``cls``."""
    src = os.path.join(os.path.dirname(__file__), os.pardir,
                       os.pardir, "src", "repro")
    paths = [os.path.join(src, "experiments.py")] + [
        os.path.join(src, package, name)
        for package in ("adapt", "monitor")
        for name in sorted(os.listdir(os.path.join(src, package)))
        if name.endswith(".py")]
    pattern = re.compile(r"(\w+)\._")
    offenders = []
    for path in paths:
        with open(path, encoding="utf-8") as f:
            for lineno, line in enumerate(f, 1):
                for owner in pattern.findall(line):
                    if owner not in ("self", "cls"):
                        offenders.append("%s:%d: %s._"
                                         % (os.path.relpath(path, src),
                                            lineno, owner))
    assert not offenders, offenders
