"""Timing core: an integer tick clock and a reservation ledger of shared
resources with FCFS bandwidth grants.

All timing flows through here. The global clock ticks at lcm(cpu_hz, npu_hz)
so both clock domains map to exact integer tick counts (fixed-point, no
floating time). There is no event queue: callers compute their own schedules
by reserving resources at explicit ticks and move the clock forward with
`advance`. Resources (DRAM channels, AES engines, MAC units, the inter-chip
link) grant reservations first-come-first-served; throughput occupies the
resource, fixed pipeline latency is charged on completion only, so
back-to-back streams pipeline.
"""

from __future__ import annotations

import math
from typing import Optional


class SimError(Exception):
    """Internal scheduling bug trap (clock moved backwards, unknown
    resource)."""


class Resource:
    """One bandwidth-shared unit. Capacity is bytes (or ops) per tick as an
    exact rational num/den; duration = ceil(amount * den / num)."""

    __slots__ = ("name", "num", "den", "latency_ticks", "busy_until",
                 "total_amount", "busy_ticks", "grants", "wait_ticks")

    def __init__(self, name: str, num: int, den: int, latency_ticks: int):
        if num <= 0 or den <= 0:
            raise SimError(f"resource {name}: capacity must be positive")
        self.name = name
        self.num = num
        self.den = den
        self.latency_ticks = latency_ticks
        self.busy_until = 0
        self.total_amount = 0
        self.busy_ticks = 0
        self.grants = 0
        self.wait_ticks = 0

    def duration_ticks(self, amount: int) -> int:
        return -(-amount * self.den // self.num)


class Engine:
    """The clock and the resource ledger of one simulated system."""

    def __init__(self, tick_hz: int = 1):
        self.tick_hz = tick_hz
        self.now = 0
        self.resources: dict[str, Resource] = {}

    # -- resources ---------------------------------------------------------

    def add_resource(self, name: str, bytes_per_tick_num: int,
                     bytes_per_tick_den: int = 1, latency_ticks: int = 0) -> Resource:
        r = Resource(name, bytes_per_tick_num, bytes_per_tick_den, latency_ticks)
        self.resources[name] = r
        return r

    def reserve(self, name: str, amount: int, at_tick: Optional[int] = None
                ) -> tuple[int, int]:
        """FCFS grant of `amount` bytes/ops. Returns (start_tick, done_tick);
        done includes the fixed pipeline latency, occupancy does not."""
        r = self.resources.get(name)
        if r is None:
            raise SimError(f"unknown resource: {name}")
        if amount <= 0:
            raise SimError(f"reserve({name}): amount must be positive")
        want = self.now if at_tick is None else at_tick
        start = want if want > r.busy_until else r.busy_until
        dur = -(-amount * r.den // r.num)
        r.busy_until = start + dur
        r.total_amount += amount
        r.busy_ticks += dur
        r.grants += 1
        r.wait_ticks += start - want
        return start, start + dur + r.latency_ticks

    # -- clock ------------------------------------------------------------

    def advance(self, tick: int) -> None:
        if tick < self.now:
            raise SimError("cannot move the clock backwards")
        self.now = tick

    def ticks_per_cycle(self, freq_hz: int) -> int:
        tpc, rem = divmod(self.tick_hz, freq_hz)
        if rem:
            raise SimError(f"clock {freq_hz} Hz does not divide tick rate")
        return tpc


def make_tick_hz(*freqs_hz: int) -> int:
    return math.lcm(*[f for f in freqs_hz if f > 0])
