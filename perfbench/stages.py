"""The benchmark's workloads, built on teesim's public API.

A workload is a list of stages. A stage pass sets up one simulation (timed as
set-up), runs it (timed as the measured run), then checks its outputs
(untimed). Each pass returns the work it did, its checks, a fingerprint of
the deterministic simulated outputs and the counters the program keeps, read
from public state.

Program functions that the tracer rebinds (`gen_fuzz_trace`,
`run_attack_campaign`) are called through their modules, never imported by
name here, so traced passes go through the wrappers.
"""

from __future__ import annotations

import hashlib
import json
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import teesim.cli as tcli
import teesim.workloads as tw
from teesim.baseline import PlainMemory, ProtectedMemory
from teesim.config import SimConfig
from teesim.crypto import LINE_BYTES, KeyMaterial
from teesim.engine import Engine
from teesim.nputee import NpuDevice
from teesim.tenanalyzer import TenAnalyzer
from teesim.transfer import MSG_WIRE_BYTES

KiB = 1024
FUZZ_BASE = 0x3000_0000

# zero-offload: the paper's end-to-end experiment at desk scale
ZERO_TENSORS = 4
ZERO_TENSOR_BYTES = 64 * KiB
ZERO_THREADS = 8
ZERO_ITERATIONS = 2

# fuzz-attack: low-reuse mixed reads and writes, then tamper trials
FUZZ_OPS = 60_000
FUZZ_LINES = 16_384
CAMPAIGN_TRIALS = 100

MODES = ("nonsecure", "sgx_mgx", "tensortee")
ENGINE_RESOURCES = ("link", "trusted_channel", "npu_gddr", "npu_aes", "npu_mac",
                    "npu_compute", "cpu_dram0", "cpu_aes0", "cpu_mac")

REPLAY_LAP_RECORDS = 2000

# The reference clock. A probe is a fixed pure-Python loop in the style of
# the program's own work: 64-bit integer mixing, wide integers and dict
# stores. It is timed between laps, as the fastest of PROBE_REPEATS runs so
# that an interrupt does not count. PROBE_REF_S is its time on the machine
# in perfbench/README.md, at that machine's usual speed; it fixes the scale
# of a reference second.
PROBE_ROUNDS = 1000
PROBE_REPEATS = 3
PROBE_REF_S = 0.0006
MIN_LAP_S = 0.05                   # a lap closes at a mark only after this
MASK64 = (1 << 64) - 1

perf = time.perf_counter


def _probe_loop() -> int:
    x, d = 0x9E3779B97F4A7C15, {}
    for i in range(PROBE_ROUNDS):
        x = ((x ^ (x >> 31)) * 0xBF58476D1CE4E5B9 + i) & MASK64
        d[x & 255] = d.get(i & 255, 0) ^ (x << 448)
    return x


def probe_s() -> float:
    """Host time of one probe: the fastest of PROBE_REPEATS runs."""
    best = float("inf")
    for _ in range(PROBE_REPEATS):
        t = perf()
        _probe_loop()
        best = min(best, perf() - t)
    return best


class LapTimer:
    """Times a pass in reference seconds, host seconds at a fixed host speed.

    Other tenants of a shared host slow the program and the probe largely
    alike, for stretches from under a second to a whole run. So each lap is
    scaled by the probes on either side of it. A lap ends at a mark, a fixed
    point of the work, once it has lasted MIN_LAP_S, and at `close()`. The
    probes are not timed into any lap."""

    def __init__(self):
        self.host: list[float] = []
        self.probes = [probe_s()]
        self.start = perf()

    def mark(self) -> None:
        if perf() - self.start >= MIN_LAP_S:
            self.close()

    def close(self) -> None:
        self.host.append(perf() - self.start)
        self.probes.append(probe_s())
        self.start = perf()

    def after(self, fn):
        """`fn`, marking each time it returns."""
        def marked(*args, **kwargs):
            out = fn(*args, **kwargs)
            self.mark()
            return out
        return marked

    def laps(self) -> list:
        """Each lap in reference seconds: its host time scaled by
        PROBE_REF_S over the mean of the probes just before and after it."""
        return [h * 2 * PROBE_REF_S / (a + b)
                for h, a, b in zip(self.host, self.probes, self.probes[1:])]


@dataclass
class PassResult:
    """One stage pass: timings, work done, checks and outputs. Times are in
    reference seconds (LapTimer), except `host_run_s`."""

    setup_s: float = 0.0
    run_s: float = 0.0
    host_run_s: float = 0.0
    work: int = 0                  # cacheline operations, or tamper trials
    ops: int = 0
    failed: int = 0
    errors: list = field(default_factory=list)
    fingerprint: dict = field(default_factory=dict)
    counts: dict = field(default_factory=dict)

    def check(self, ok: bool, what: str) -> None:
        self.ops += 1
        if not ok:
            self.failed += 1
            self.errors.append(what)

    def add(self, name: str, value) -> None:
        self.counts[name] = self.counts.get(name, 0) + value


@dataclass
class Stage:
    name: str                      # a mode name, "campaign" or "import"
    run: Callable[[], PassResult]
    weight: float                  # share of the run's time, relative


def digest(fingerprint: dict) -> str:
    blob = json.dumps(fingerprint, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


def sim_config(seed: int) -> SimConfig:
    """The default configuration, with functional crypto, keyed by `seed`."""
    cfg = SimConfig()
    cfg.crypto.seed = seed
    cfg.crypto.functional = True
    return cfg


# -- counters read from public state -------------------------------------------

def _count_memory(res: PassResult, mem) -> None:
    if not isinstance(mem, ProtectedMemory):
        return
    for k, v in mem.totals.items():
        res.add(f"mem.{k}", v)
    res.add("mem.cache_hits", mem.cache.hits)
    res.add("mem.cache_misses", mem.cache.misses)


def _count_analyzer(res: PassResult, ta) -> None:
    if ta is None:
        return
    for k, v in ta.stats.items():
        res.add(f"ta.{k}", v)


def _count_npu(res: PassResult, npu) -> None:
    if npu is None:
        return
    for rep in npu.reports:
        res.add("npu.store_lines" if rep.mode == "store" else "npu.load_lines",
                rep.lines)
        res.add("npu.stall_ticks", rep.stall_ticks)
        res.add("npu.faults", rep.faults)


def _count_engine(res: PassResult, eng) -> None:
    for name, r in eng.resources.items():
        res.add(f"res.{name}.busy_ticks", r.busy_ticks)
        res.add(f"res.{name}.wait_ticks", r.wait_ticks)
        res.add("res.grants", r.grants)


def _count_transfers(res: PassResult, transfers) -> None:
    for t in transfers:
        payload = t.bytes_link - (MSG_WIRE_BYTES if t.protocol == "direct" else 0)
        res.add(f"xfer.{t.protocol}.payload_bytes", payload)
        res.add("xfer.bytes_link", t.bytes_link)
        res.add("xfer.bytes_aes", t.bytes_aes)
        res.add("xfer.cycles_total", t.cycles_total)
        res.add("xfer.cycles_overlapped", t.cycles_overlapped)


# -- CPU-side memories and the per-line replay ---------------------------------

def _cpu_side(mode: str, cfg: SimConfig, n_lines: int, base: int):
    """(memory, analyzer, read, write) for one mode; read(va) returns
    (plaintext, _) and write(va, data) stores one line."""
    if mode == "nonsecure":
        mem = PlainMemory(base, n_lines)
        return mem, None, mem.read_line, mem.write_line
    mem = ProtectedMemory(base, n_lines, KeyMaterial.from_seed(cfg.crypto.seed),
                          metadata_cache_bytes=cfg.cpu.metadata_cache_bytes,
                          crypto_on=cfg.crypto.functional)
    if mode == "sgx_mgx":
        return mem, None, mem.read_line, mem.write_line
    ta = TenAnalyzer(mem, en_tmf=cfg.cpu.en_tmf,
                     table_entries=cfg.cpu.meta_table_entries,
                     filter_entries=cfg.cpu.filter_entries,
                     collect_limit=cfg.cpu.filter_collect_limit,
                     merge_window=cfg.cpu.merge_window,
                     bitmap_cache_bytes=cfg.cpu.bitmap_cache_bytes)
    return mem, ta, ta.on_read, ta.on_write


def replay(read, write, pairs, timer: LapTimer) -> list:
    """The measured loop: drive (is_read, va) pairs through one memory path
    and keep every read's plaintext for the oracle check. Record i (from 1)
    writes (i << 32) | va. It marks a lap every REPLAY_LAP_RECORDS records."""
    got = []
    keep = got.append
    serial = 1
    for lo in range(0, len(pairs), REPLAY_LAP_RECORDS):
        for is_read, va in pairs[lo:lo + REPLAY_LAP_RECORDS]:
            if is_read:
                keep(read(va)[0])
            else:
                # unique per write, so a stale line can never match the oracle
                write(va, (serial << 32) | va)
            serial += 1
        timer.mark()
    return got


def check_reads(res: PassResult, pairs, got, label: str) -> None:
    """Compare every read plaintext `got` from replaying `pairs` with the
    last value written to its line (zero for a line never written)."""
    oracle: dict[int, int] = {}
    checked = mismatched = 0
    reads = iter(got)
    for serial, (is_read, va) in enumerate(pairs, start=1):
        if is_read:
            v = next(reads)
            if isinstance(v, bytes):
                v = int.from_bytes(v, "little")
            checked += 1
            if v != oracle.get(va, 0):
                mismatched += 1
        else:
            oracle[va] = (serial << 32) | va
    # every record is one operation; a write fails only by raising, which the
    # caller counts
    res.ops += len(pairs)
    res.failed += mismatched
    if mismatched:
        res.errors.append(f"{label}: {mismatched}/{checked} reads differ from "
                          f"the last value written")


def _take_times(res: PassResult, timer: LapTimer) -> None:
    """The first lap is the set-up; the others are the measured run."""
    laps = timer.laps()
    res.setup_s, res.run_s = laps[0], sum(laps[1:])
    res.host_run_s = sum(timer.host[1:])


def _check_invariants(res: PassResult, ta, label: str) -> None:
    for check in (ta.check_vn_consistency, ta.check_disjoint):
        try:
            check()
            res.check(True, "")
        except AssertionError as e:
            res.check(False, f"{label}: {check.__name__}: {e}")


# -- zero-offload ---------------------------------------------------------------

def zero_offload_pass(mode: str, seed: int, ctx: dict) -> PassResult:
    res = PassResult()
    timer = LapTimer()
    cfg = sim_config(seed)
    cfg.mode = mode
    wl = cfg.workload
    wl.zero_tensors, wl.zero_tensor_bytes = ZERO_TENSORS, ZERO_TENSOR_BYTES
    wl.threads, wl.iterations = ZERO_THREADS, ZERO_ITERATIONS
    runner = tw.ZeroOffloadRunner(cfg, mode)
    # marks fall after the initial weight writes, after each NPU tensor
    # stream, after each tensor's CPU optimizer step (which ends by charging
    # its traffic to the engine) and after each iteration, where run()
    # advances the engine clock (the hooks are LAP_HOOKS, looked up before
    # the run)
    runner.setup_state = timer.after(runner.setup_state)
    runner.engine.advance = timer.after(runner.engine.advance)
    runner._reserve_cpu_phase = timer.after(runner._reserve_cpu_phase)
    if runner.npu is not None:
        npu = runner.npu
        npu.load_tensor_stream = timer.after(npu.load_tensor_stream)
        npu.store_tensor_stream = timer.after(npu.store_tensor_stream)
    timer.close()
    rep = runner.run()
    timer.close()
    n_lines = ZERO_TENSOR_BYTES // LINE_BYTES
    _take_times(res, timer)
    res.work = ZERO_TENSORS * n_lines * ZERO_ITERATIONS

    weights = b"".join(w.tobytes() for w in rep.weights)
    if mode == "nonsecure":
        ctx.setdefault("weights", weights)
    res.check(weights == ctx.get("weights"),
              f"zero-offload {mode}: final weights differ from NonSecure's")
    size = n_lines * LINE_BYTES
    for t in rep.transfers:
        if t.protocol == "direct":
            ok = t.bytes_aes == 0 and t.bytes_link == size + MSG_WIRE_BYTES
        else:
            ok = t.bytes_aes == 4 * size and t.bytes_link == size
        res.check(ok, f"zero-offload {mode}: {t.protocol} transfer of tensor "
                      f"{t.tensor_id} moved link={t.bytes_link} aes={t.bytes_aes}")
    if runner.analyzer is not None:
        _check_invariants(res, runner.analyzer, f"zero-offload {mode}")

    eng = runner.engine
    res.fingerprint = {
        "total_ticks": rep.total_ticks, "phases": rep.phases,
        "cpu_totals": rep.cpu_totals, "analyzer_stats": rep.analyzer_stats,
        "resources": {n: [r.busy_ticks, r.wait_ticks]
                      for n, r in sorted(eng.resources.items())},
        "transfer_rows": [t.csv_row() for t in rep.transfers],
        "npu_rows": rep.npu_rows,
    }
    _count_memory(res, runner.cpu_mem)
    _count_analyzer(res, runner.analyzer)
    _count_npu(res, runner.npu)
    _count_engine(res, eng)
    _count_transfers(res, rep.transfers)
    res.add(f"sim.total_ticks.{mode}", rep.total_ticks)
    return res


# -- fuzz-attack --------------------------------------------------------------------

def fuzz_pass(mode: str, seed: int) -> PassResult:
    res = PassResult()
    timer = LapTimer()
    cfg = sim_config(seed)
    records = tw.gen_fuzz_trace(FUZZ_OPS, FUZZ_LINES, seed, base=FUZZ_BASE)
    pairs = [(r.kind == "R", r.va) for r in records]
    mem, ta, read, write = _cpu_side(mode, cfg, FUZZ_LINES, FUZZ_BASE)
    timer.close()
    got = replay(read, write, pairs, timer)
    timer.close()
    _take_times(res, timer)
    res.work = len(pairs)
    check_reads(res, pairs, got, f"fuzz {mode}")
    if ta is not None:
        _check_invariants(res, ta, f"fuzz {mode}")
    res.fingerprint = {"cpu_totals": dict(mem.totals),
                       "analyzer_stats": dict(ta.stats) if ta else None}
    _count_memory(res, mem)
    _count_analyzer(res, ta)
    return res


def campaign_pass(seed: int) -> PassResult:
    """The CLI's mixed tamper campaign: every trial must be detected."""
    res = PassResult()
    cfg = sim_config(seed)
    timer = LapTimer()
    out = tcli.run_attack_campaign(cfg, "mixed", CAMPAIGN_TRIALS)
    timer.close()
    res.run_s, res.host_run_s = timer.laps()[0], timer.host[0]
    res.work = out["trials"]
    res.ops = out["trials"]
    res.failed = out["trials"] - out["detected"]
    if res.failed:
        res.errors.append(f"campaign: {res.failed}/{res.ops} tamper trials "
                          f"went undetected")
    res.fingerprint = {"trials": out["trials"], "detected": out["detected"]}
    res.add("campaign.trials", out["trials"])
    res.add("campaign.detected", out["detected"])
    return res


def import_pass() -> PassResult:
    """Time `import teesim.cli` in a fresh interpreter: the import share of
    set-up, sampled across the run like the other set-up steps. numpy is
    imported first, untimed: it is a fixed third-party cost that no change
    to teesim moves, and about 60% of the whole import. The time stays in
    host seconds, because the import did not follow the probe
    (perfbench/README.md)."""
    src = str(Path(tcli.__file__).resolve().parents[1])
    code = ("import sys, time; sys.path.insert(0, sys.argv[1]); import numpy; "
            "t = time.perf_counter(); import teesim.cli; "
            "print(time.perf_counter() - t)")
    out = subprocess.run([sys.executable, "-c", code, src], capture_output=True,
                         text=True, timeout=120, check=True)
    return PassResult(setup_s=float(out.stdout))


# -- workloads ------------------------------------------------------------------------

# The zero-offload laps hook these methods; one that is gone would fail every
# pass, so they are looked up before the run.
LAP_HOOKS = (
    (tw.ZeroOffloadRunner, "setup_state"),
    (tw.ZeroOffloadRunner, "_reserve_cpu_phase"),
    (Engine, "advance"),
    (NpuDevice, "load_tensor_stream"),
    (NpuDevice, "store_tensor_stream"),
)


class MissingHook(RuntimeError):
    """The program no longer has a method the benchmark laps on."""


def make_stages(workload: str, seed: int) -> list[Stage]:
    """One stage per mode, then the tamper campaign and the teesim import.
    NonSecure comes first: its final weights are the zero-offload reference
    the other modes are checked against."""
    if workload == "zero-offload":
        for owner, attr in LAP_HOOKS:
            if not callable(getattr(owner, attr, None)):
                raise MissingHook(f"{owner.__name__}.{attr} is gone; update the "
                                  f"lap hooks in zero_offload_pass")
    ctx: dict = {}
    stages = []
    for m in MODES:
        run = ((lambda m=m: zero_offload_pass(m, seed, ctx)) if workload == "zero-offload"
               else (lambda m=m: fuzz_pass(m, seed)))
        # a quarter share still repeats NonSecure dozens of times
        stages.append(Stage(m, run, 0.25 if m == "nonsecure" else 1.0))
    campaign_weight = 0.5 if workload == "fuzz-attack" else 0.2
    stages.append(Stage("campaign", lambda: campaign_pass(seed), campaign_weight))
    stages.append(Stage("import", import_pass, 0.2))
    return stages
