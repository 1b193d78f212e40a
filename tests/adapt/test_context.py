"""Context providers: windowing, percentiles, node scoping."""

from repro.adapt.context import (
    CONTEXT_PARAMS,
    KernelContextProvider,
    StaticContextProvider,
    TelemetryContextProvider,
    param_range,
    percentile_from_buckets,
    scoped,
)
from repro.core.policies import AlwaysAcceptPolicy
from repro.platform import build_platform
from repro.sim.engine import MSEC, SEC
from repro.sim.rng import RandomStreams
from repro.workloads import deploy_component_set, generate_component_set


def test_catalog_shape():
    for name, entry in CONTEXT_PARAMS.items():
        assert entry["description"]
        lo, hi = entry["range"]
        assert lo is None or isinstance(lo, float)
        assert hi is None or isinstance(hi, float) or hi is None
        assert isinstance(entry["node_scoped"], bool)
        assert isinstance(entry["component_scoped"], bool)
    assert "deadline_miss_rate" in CONTEXT_PARAMS
    assert CONTEXT_PARAMS["deadline_miss_rate"]["range"] == (0.0, 1.0)


def test_scoped_and_param_range():
    assert scoped("deadline_miss_rate") == "deadline_miss_rate"
    assert scoped("deadline_miss_rate", "n0") == "deadline_miss_rate@n0"
    assert param_range("deadline_miss_rate@n0") == (0.0, 1.0)
    assert scoped("budget_ratio", component="C") == "budget_ratio#C"
    assert param_range("budget_ratio#C") == (0.0, None)
    assert param_range("not_in_catalog") == (None, None)


def test_percentile_from_buckets():
    bounds = (10, 100, 1000)
    # 90 samples <=10, 9 in (10,100], 1 in (100,1000]
    counts = [90, 9, 1, 0]
    assert percentile_from_buckets(bounds, counts, 0.50) == 10.0
    assert percentile_from_buckets(bounds, counts, 0.95) == 100.0
    assert percentile_from_buckets(bounds, counts, 0.99) == 100.0
    assert percentile_from_buckets(bounds, counts, 1.00) == 1000.0
    # overflow samples report the last finite bound
    assert percentile_from_buckets(bounds, [0, 0, 0, 5], 0.99) == 1000.0
    assert percentile_from_buckets(bounds, [0, 0, 0, 0], 0.99) is None


def _spin_up(seconds=0.5):
    platform = build_platform(seed=11,
                              internal_policy=AlwaysAcceptPolicy())
    platform.start_timer(1 * MSEC)
    rng = RandomStreams(11)
    fleet = generate_component_set(rng, "ctx", 3,
                                   total_utilization=0.5)
    deploy_component_set(platform.drcr, fleet)
    platform.run_for(int(seconds * SEC))
    return platform


def test_telemetry_provider_windows_deltas():
    platform = _spin_up()
    provider = TelemetryContextProvider(platform.telemetry)
    first = provider.collect(platform.now)
    assert first["releases"] > 0
    assert 0.0 <= first["deadline_miss_rate"] <= 1.0
    assert first["active_components"] == 3.0
    # no further simulated time: the second window must be empty
    second = provider.collect(platform.now)
    assert second["releases"] == 0.0
    assert second["deadline_misses"] == 0.0
    platform.run_for(200 * MSEC)
    third = provider.collect(platform.now)
    assert third["releases"] > 0
    # the delta window is much smaller than the cumulative total
    assert third["releases"] < first["releases"]
    platform.shutdown()


def test_telemetry_provider_latency_percentiles():
    platform = _spin_up()
    provider = TelemetryContextProvider(platform.telemetry)
    context = provider.collect(platform.now)
    p50 = context.get("dispatch_latency_p50")
    p99 = context.get("dispatch_latency_p99")
    assert p50 is not None and p99 is not None
    assert p50 <= p99
    assert context["dispatch_latency_mean"] >= 0.0


def test_kernel_provider_node_scoping():
    platform = _spin_up()
    flat = KernelContextProvider(platform.kernel)
    named = KernelContextProvider(platform.kernel, node="n0")
    flat_ctx = flat.collect(platform.now)
    named_ctx = named.collect(platform.now)
    assert "deadline_miss_rate" in flat_ctx
    assert "deadline_miss_rate@n0" in named_ctx
    assert "deadline_miss_rate" not in named_ctx
    assert 0.0 <= flat_ctx["rt_utilization"]
    platform.shutdown()


def test_static_provider_is_a_copy():
    provider = StaticContextProvider({"releases": 1.0})
    snapshot = provider.collect(0)
    snapshot["releases"] = 99.0
    assert provider.collect(0)["releases"] == 1.0
