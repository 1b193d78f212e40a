"""The scaling guardrail: one loop over the guards a benchmark
document declares (``benchmarks/check_scaling_guardrail.py``)."""

import importlib.util
import json
import pathlib
import subprocess
import sys

import pytest

REPO = pathlib.Path(__file__).resolve().parents[1]
SCRIPT = REPO / "benchmarks" / "check_scaling_guardrail.py"


def load_by_path(name, path):
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


guardrail = load_by_path("check_scaling_guardrail", SCRIPT)


def document(guards=None, **fields):
    doc = {"benchmark": "demo", **fields}
    if guards is not None:
        doc["guards"] = {path: {"better": "lower", **spec}
                         for path, spec in guards.items()}
    return doc


def verdict(current, baseline, capsys):
    status = guardrail.check(current, baseline)
    return status, capsys.readouterr().out


@pytest.mark.parametrize("value, status", [(2.0, 0), (2.01, 1)])
def test_lower_is_better_allows_exactly_twice_the_baseline(
        value, status, capsys):
    current = document({"cost": {}}, cost=value)
    assert verdict(current, document(cost=1.0), capsys)[0] == status


@pytest.mark.parametrize("value, status", [(5.0, 0), (4.975, 1)])
def test_higher_is_better_allows_exactly_half_the_baseline(
        value, status, capsys):
    current = document({"speedup": {"better": "higher"}}, speedup=value)
    assert verdict(current, document(speedup=10.0), capsys)[0] == status


@pytest.mark.parametrize("value, status", [(1.9, 0), (2.1, 1)])
def test_cap_is_checked_without_a_baseline_value(value, status, capsys):
    current = document({"exponent": {"cap": 2.0}}, exponent=value)
    status_seen, out = verdict(current, document(), capsys)
    assert status_seen == status
    assert "baseline lacks exponent: skipping" in out


@pytest.mark.parametrize("value, status", [(1.0, 0), (1.01, 1)])
def test_floor_lifts_a_small_baseline(value, status, capsys):
    current = document({"ratio": {"floor": 0.5}}, ratio=value)
    assert verdict(current, document(ratio=0.1), capsys)[0] == status


def test_ladder_mismatch_skips_the_relative_check(capsys):
    guards = {"rows.-1.ms": {"ladder": "sizes"}}
    current = document(guards, sizes=[1, 2], rows=[{"ms": 100.0}])
    baseline = document(sizes=[1, 3], rows=[{"ms": 1.0}])
    status, out = verdict(current, baseline, capsys)
    assert status == 0
    assert "sizes differs ([1, 2] vs [1, 3]): skipping rows.-1.ms" in out
    baseline["sizes"] = [1, 2]
    assert verdict(current, baseline, capsys)[0] == 1


def test_path_missing_from_the_baseline_skips(capsys):
    current = document({"gossip.ratio": {}}, gossip={"ratio": 9.0})
    status, out = verdict(current, document(), capsys)
    assert status == 0
    assert "baseline lacks gossip.ratio: skipping" in out
    assert "REGRESSED" not in out


def test_paths_take_list_indexes_and_field_selectors():
    doc = {"rows": [{"workload": "drain", "rate": 1.0},
                    {"workload": "fleet_50", "rate": 2.0}],
           "sizes": [10, 20]}
    assert guardrail.resolve(doc, "rows.-1.rate") == 2.0
    assert guardrail.resolve(doc, "rows.0.workload") == "drain"
    assert guardrail.resolve(doc, "rows.workload=fleet_50.rate") == 2.0
    assert guardrail.resolve(doc, "sizes") == [10, 20]
    for missing in ("rows.2.rate", "rows.workload=raw.rate",
                    "rows.x.rate", "sizes.0.deep", "nope"):
        assert guardrail.resolve(doc, missing) is None, missing


def test_selector_guard_compares_the_matching_rows(capsys):
    guards = {"rows.workload=fleet_50.rate": {"better": "higher"}}
    current = document(guards, rows=[{"workload": "fleet_50",
                                      "rate": 40.0}])
    baseline = document(rows=[{"workload": "drain", "rate": 1.0},
                              {"workload": "fleet_50", "rate": 100.0}])
    assert verdict(current, baseline, capsys)[0] == 1


@pytest.mark.parametrize("guards", [None, {}], ids=["absent", "empty"])
def test_no_guards_exits_2(guards, capsys):
    status, out = verdict(document(guards, cost=1.0),
                          document(cost=1.0), capsys)
    assert status == 2
    assert "no guards" in out


def test_mismatched_benchmarks_exit_2(capsys):
    current = document({"cost": {}}, cost=1.0)
    status, out = verdict(current, {"benchmark": "other", "cost": 1.0},
                          capsys)
    assert status == 2
    assert "benchmark kinds differ" in out


@pytest.mark.parametrize("guard", [{"cost": {}},
                                   {"rows.-1.ms": {"ladder": "sizes"}}],
                         ids=["path", "ladder"])
def test_guarded_path_missing_from_the_document_fails_cleanly(
        guard, tmp_path):
    current = document(guard, rows=[{"ms": 1.0}])
    baseline = document(cost=1.0, sizes=[1], rows=[{"ms": 1.0}])
    (tmp_path / "current.json").write_text(json.dumps(current))
    (tmp_path / "baseline.json").write_text(json.dumps(baseline))
    result = subprocess.run(
        [sys.executable, str(SCRIPT), str(tmp_path / "current.json"),
         str(tmp_path / "baseline.json")],
        capture_output=True, text=True, timeout=60)
    assert result.returncode == 2, result.stdout
    assert "Traceback" not in result.stderr, result.stderr
    assert "lacks guarded path" in result.stdout


def test_write_bench_merges_sections_and_their_guards(tmp_path,
                                                      monkeypatch,
                                                      capsys):
    harness = load_by_path("benchmark_harness",
                           REPO / "benchmarks" / "conftest.py")
    monkeypatch.setattr(harness, "RESULT_DIR", tmp_path)
    harness.write_bench({"benchmark": "demo", "spread": 1.5},
                        {"spread": {}})
    harness.write_bench({"benchmark": "demo", "gossip": {"exp": 1.0}},
                        {"gossip.exp": {"cap": 2.0}})
    written = json.loads((tmp_path / "BENCH_demo.json").read_text())
    assert written["spread"] == 1.5 and written["gossip"] == {"exp": 1.0}
    assert written["guards"] == {
        "spread": {"better": "lower"},
        "gossip.exp": {"better": "lower", "cap": 2.0}}
    status, out = verdict(written, written, capsys)
    assert status == 0
    assert out.count(" ok") == 3
