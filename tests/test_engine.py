"""Resource-ledger tests: FCFS serialization, reservation arithmetic,
determinism, work conservation, the clock."""

import pytest

from teesim.config import SimConfig, build_engine
from teesim.engine import Engine, SimError, make_tick_hz


def test_two_events_on_distinct_resources_finish_parallel():
    eng = Engine()
    eng.add_resource("a", 1, 1, 0)
    eng.add_resource("b", 1, 1, 0)
    done = [eng.reserve("a", 100, at_tick=0)[1], eng.reserve("b", 100, at_tick=0)[1]]
    assert done == [100, 100]


def test_two_events_on_one_resource_serialize():
    eng = Engine()
    eng.add_resource("a", 1, 1, 0)
    done = [eng.reserve("a", 100, at_tick=0)[1], eng.reserve("a", 100, at_tick=0)[1]]
    assert done == [100, 200]


def test_reserve_arithmetic_with_fixed_latency():
    eng = Engine()
    eng.add_resource("dram", 8, 1, latency_ticks=12)  # 8 B/tick
    start, done = eng.reserve("dram", 64)
    assert (start, done) == (0, 8 + 12)
    # occupancy excludes the pipeline latency: next grant starts at 8
    start2, done2 = eng.reserve("dram", 64)
    assert (start2, done2) == (8, 16 + 12)


def test_reserve_rounds_up_fractional_ticks():
    eng = Engine()
    eng.add_resource("r", 3, 2, 0)  # 1.5 B/tick
    _, done = eng.reserve("r", 10)  # 10/1.5 = 6.67 -> 7
    assert done == 7


def test_unknown_resource_is_config_error():
    eng = Engine()
    with pytest.raises(SimError, match="unknown resource"):
        eng.reserve("nope", 1)


def test_advance_moves_the_clock_forward_only():
    eng = Engine()
    eng.add_resource("r", 1, 1, 0)
    eng.advance(10)
    assert eng.now == 10
    assert eng.reserve("r", 5) == (10, 15)   # no at_tick: starts at the clock
    with pytest.raises(SimError, match="backwards"):
        eng.advance(5)


def test_saturated_resource_queue_grows():
    # demand 20 B/tick against capacity 8 B/tick: completion drifts out
    eng = Engine()
    eng.add_resource("aes", 8, 1, 0)
    lag = []
    for t in range(0, 100, 10):
        start, _ = eng.reserve("aes", 200, at_tick=t)  # 25 ticks of work per 10
        lag.append(start - t)
    assert lag == sorted(lag)
    assert lag[-1] > lag[0]


def test_two_channels_double_aggregate_throughput():
    eng = Engine()
    eng.add_resource("ch0", 8, 1, 0)
    eng.add_resource("ch1", 8, 1, 0)
    # interleave 64B lines across the channels
    done = 0
    for i in range(100):
        _, d = eng.reserve(f"ch{i % 2}", 64)
        done = max(done, d)
    single = Engine()
    single.add_resource("ch0", 8, 1, 0)
    done1 = 0
    for i in range(100):
        _, d = single.reserve("ch0", 64)
        done1 = max(done1, d)
    assert done1 >= 1.9 * done


def test_work_conservation():
    eng = Engine()
    r = eng.add_resource("r", 4, 1, 0)
    amounts = [64, 128, 32, 256]
    for a in amounts:
        eng.reserve("r", a, at_tick=0)
    assert r.total_amount == sum(amounts)
    # back-to-back grants leave no idle gaps
    assert r.busy_until == sum(-(-a * 1 // 4) for a in amounts)


def test_determinism_same_seed_same_metrics():
    def run():
        eng = Engine(tick_hz=7)
        r = eng.add_resource("x", 2, 1, 3)
        done = [eng.reserve("x", 10, at_tick=i * 3)[1] for i in range(50)]
        return done, (r.total_amount, r.busy_ticks, r.grants, r.wait_ticks)

    assert run() == run()


def test_tick_hz_lcm_of_clock_domains():
    assert make_tick_hz(3_500_000_000, 1_000_000_000) == 7_000_000_000


def test_build_engine_standard_resources():
    eng = build_engine(SimConfig())
    for name in ("cpu_dram0", "cpu_dram1", "cpu_aes0", "cpu_aes1", "cpu_mac",
                 "npu_gddr", "npu_aes", "npu_mac", "npu_compute", "link",
                 "trusted_channel"):
        assert name in eng.resources
    # 3.5 GHz and 1 GHz map to integer ticks
    assert eng.ticks_per_cycle(3_500_000_000) == 2
    assert eng.ticks_per_cycle(1_000_000_000) == 7
