"""Trace and scenario generators: element-wise optimizer-update streams,
tiled GEMM, a mixed-op fuzzer, and the offloaded-training loop that ties the
CPU path, the NPU path and the transfer protocols together.

Traces are pure functions of their config. Writes are emitted as an in-order
deferred sweep after an iteration's read streams (LLC-eviction-filtered
write-back), and multi-thread interleaving happens at burst granularity; both
follow what a last-level cache actually presents to the memory controller for
streaming workloads.

The optimizer arithmetic in the training loop is real float32 math on bytes
that round-trip through whichever protection path the mode selects, so final
weights can be compared bit-for-bit across modes.
"""

from __future__ import annotations

import gzip
import random
from dataclasses import dataclass, field
from itertools import groupby, islice
from operator import attrgetter, itemgetter
from typing import Iterable, Iterator, Optional, Sequence

import numpy as np

from .baseline import CostReport, PlainMemory, ProtectedMemory
from .config import SimConfig, build_engine
from .crypto import LINE_BYTES, KeyMaterial
# unused, but perfbench/tests' tracer test looks this name up here
from .crypto import decrypt_block  # noqa: F401
from .nputee import NpuDevice, unprotected_stream
from .tenanalyzer import TenAnalyzer
from .transfer import (
    Enclave, TransferReport, attest_and_exchange, baseline_transfer,
    direct_transfer,
)

ADAM_BETA1 = np.float32(0.9)
ADAM_BETA2 = np.float32(0.999)
ADAM_LR = np.float32(1e-3)
ADAM_EPS = np.float32(1e-8)

FLOATS_PER_LINE = LINE_BYTES // 4

# a replay keeps the cost reports of at most this many memory accesses
COST_SAMPLE_LIMIT = 1000
# a replay hands the front door runs of at most this many records
REPLAY_RUN_LINES = 4096

_PHASE = itemgetter(0)   # of an adam access: 'R' or 'W'


@dataclass
class TraceRecord:
    cycle_hint: int
    core_id: int
    kind: str          # R | W | CF | BAR | XFER
    va: int
    tensor_id: Optional[int] = None


def write_trace(records: Sequence[TraceRecord], path: str) -> None:
    opener = gzip.open if path.endswith(".gz") else open
    with opener(path, "wt") as f:
        for r in records:
            tail = f" {r.tensor_id}" if r.tensor_id is not None else ""
            f.write(f"{r.cycle_hint} {r.core_id} {r.kind} {r.va:#x}{tail}\n")


def read_trace(path: str) -> list[TraceRecord]:
    opener = gzip.open if path.endswith(".gz") else open
    out = []
    with opener(path, "rt") as f:
        for line in f:
            parts = line.split()
            if not parts:
                continue
            tid = int(parts[4]) if len(parts) > 4 else None
            out.append(TraceRecord(int(parts[0]), int(parts[1]), parts[2],
                                   int(parts[3], 16), tid))
    return out


# -- element-wise optimizer streams --------------------------------------------

@dataclass
class AdamLayout:
    """Address layout of one parameter tensor's four streams."""
    tensor_index: int
    n_lines: int
    w_base: int
    g_base: int
    m_base: int
    v_base: int

    def stream_bases(self):
        return (("w", self.w_base), ("g", self.g_base),
                ("m", self.m_base), ("v", self.v_base))


def explicit_adam_layouts(sizes_bytes: Sequence[int], region_base: int
                          ) -> list[AdamLayout]:
    """Pack w/g/m/v regions back to back (one guard line apart), with one
    explicit size per parameter tensor."""
    layouts = []
    cursor = region_base
    for t, size in enumerate(sizes_bytes):
        n = size // LINE_BYTES
        bases = []
        for _ in range(4):
            bases.append(cursor)
            cursor += (n + 1) * LINE_BYTES
        layouts.append(AdamLayout(t, n, *bases))
    return layouts


def adam_layouts(tensors: int, bytes_min: int, bytes_max: int,
                 region_base: int) -> list[AdamLayout]:
    """`explicit_adam_layouts` with sizes drawn deterministically from the
    range."""
    rng = random.Random(0xADA0)
    lo, hi = bytes_min // LINE_BYTES, bytes_max // LINE_BYTES
    sizes = [bytes_min if bytes_min == bytes_max
             else rng.randrange(lo, hi + 1) * LINE_BYTES for _ in range(tensors)]
    return explicit_adam_layouts(sizes, region_base)


def adam_region_lines(layouts: Sequence[AdamLayout], region_base: int) -> int:
    last = layouts[-1]
    end = last.v_base + (last.n_lines + 1) * LINE_BYTES
    return (end - region_base) // LINE_BYTES + 8


def _thread_chunks(n_lines: int, threads: int) -> list[tuple[int, int]]:
    per = -(-n_lines // threads)
    return [(t * per, min(n_lines, (t + 1) * per)) for t in range(threads)
            if t * per < n_lines]


def _burst_schedule(chunks, burst_lines):
    """Round-robin thread bursts over contiguous chunks."""
    cursors = [lo for lo, _ in chunks]
    live = list(range(len(chunks)))
    while live:
        finished = []
        for ci in live:
            lo = cursors[ci]
            hi = min(chunks[ci][1], lo + burst_lines)
            yield ci, range(lo, hi)
            cursors[ci] = hi
            if hi >= chunks[ci][1]:
                finished.append(ci)
        for ci in finished:
            live.remove(ci)


def adam_access_sequence(layout: AdamLayout, threads: int, burst_lines: int
                         ) -> Iterator[tuple[str, str, int, int]]:
    """One iteration's accesses for one parameter tensor:
    (phase 'R'|'W', stream, core, line index). Reads interleave the four
    streams element-wise within per-thread bursts; write-backs arrive
    afterwards as in-order sweeps of w, m, v."""
    chunks = _thread_chunks(layout.n_lines, threads)
    for ci, span in _burst_schedule(chunks, burst_lines):
        for j in span:
            for stream in ("w", "g", "m", "v"):
                yield ("R", stream, ci, j)
    for stream in ("w", "m", "v"):
        for ci, span in _burst_schedule(chunks, burst_lines):
            for j in span:
                yield ("W", stream, ci, j)


def iter_adam_trace(layouts: Sequence[AdamLayout], threads: int,
                    burst_lines: int, iterations: int) -> Iterator[TraceRecord]:
    """Streaming reads of w, g, m, v and deferred write-backs of w, m, v,
    chunk-partitioned across threads, per tensor, per iteration, one record
    at a time."""
    cycle = 0
    for _ in range(iterations):
        for lay in layouts:
            bases = dict(lay.stream_bases())
            for phase, stream, core, j in adam_access_sequence(
                    lay, threads, burst_lines):
                yield TraceRecord(cycle, core, phase,
                                  bases[stream] + j * LINE_BYTES, lay.tensor_index)
                cycle += 1


def gen_adam_trace(cfg, region_base: int = 0x1000_0000,
                   iterations: Optional[int] = None) -> list[TraceRecord]:
    """The records of `iter_adam_trace` over `cfg`'s drawn layouts, as a
    list."""
    layouts = adam_layouts(cfg.tensors, cfg.tensor_bytes_min,
                           cfg.tensor_bytes_max, region_base)
    iters = cfg.iterations if iterations is None else iterations
    return list(iter_adam_trace(layouts, cfg.threads, cfg.burst_lines, iters))


# -- tiled GEMM -------------------------------------------------------------------

def gen_gemm_trace(m: int, n: int, k: int, tile: int, *,
                   a_base: int = 0x2000_0000, b_base: Optional[int] = None,
                   c_base: Optional[int] = None, dtype_bytes: int = 4
                   ) -> list[TraceRecord]:
    """Output-stationary tiled loop nest over row-major A (m x k), B (k x n),
    C (m x n); one R record per cacheline of each tile row, C written once per
    tile after its k loop."""
    if m % tile or n % tile or k % tile:
        raise ValueError("tile must divide every dimension")
    row_a = k * dtype_bytes
    row_b = n * dtype_bytes
    row_c = n * dtype_bytes
    if b_base is None:
        b_base = a_base + m * row_a + LINE_BYTES
    if c_base is None:
        c_base = b_base + k * row_b + LINE_BYTES
    lines_per_tile_row = max(1, tile * dtype_bytes // LINE_BYTES)
    records = []
    cycle = 0

    def tile_lines(base, row_bytes, row0, col0):
        for r in range(tile):
            start = base + (row0 + r) * row_bytes + col0 * dtype_bytes
            for l in range(lines_per_tile_row):
                yield start + l * LINE_BYTES

    for it in range(m // tile):
        for jt in range(n // tile):
            for kt in range(k // tile):
                for va in tile_lines(a_base, row_a, it * tile, kt * tile):
                    records.append(TraceRecord(cycle, 0, "R", va))
                    cycle += 1
                for va in tile_lines(b_base, row_b, kt * tile, jt * tile):
                    records.append(TraceRecord(cycle, 0, "R", va))
                    cycle += 1
            for va in tile_lines(c_base, row_c, it * tile, jt * tile):
                records.append(TraceRecord(cycle, 0, "W", va))
                cycle += 1
    return records


def gemm_region_lines(m: int, n: int, k: int, dtype_bytes: int = 4) -> int:
    total = (m * k + k * n + m * n) * dtype_bytes
    return total // LINE_BYTES + 8


# -- mixed-op fuzz ------------------------------------------------------------------

def gen_fuzz_trace(n_ops: int, n_lines: int, seed: int,
                   base: int = 0x3000_0000) -> list[TraceRecord]:
    """Randomized mix of streaming sweeps (full and partial), random single
    accesses, and deliberate protocol-violating write patterns."""
    rng = random.Random(seed)
    records = []
    cycle = 0

    def emit(kind, va):
        nonlocal cycle
        records.append(TraceRecord(cycle, 0, kind, va))
        cycle += 1

    while len(records) < n_ops:
        r = rng.random()
        if r < 0.45:  # streaming read run
            start = rng.randrange(n_lines)
            run = min(rng.randrange(4, 64), n_lines - start)
            for j in range(start, start + run):
                emit("R", base + j * LINE_BYTES)
        elif r < 0.70:  # write sweep, sometimes deliberately violating
            start = rng.randrange(n_lines)
            run = min(rng.randrange(4, 48), n_lines - start)
            skip = rng.random() < 0.3 and run > 2
            dup = rng.random() < 0.3
            for j in range(start, start + run):
                if skip and j == start + run // 2:
                    continue  # incomplete-update violation
                emit("W", base + j * LINE_BYTES)
                if dup and j == start + 1:
                    emit("W", base + j * LINE_BYTES)  # double-update violation
        else:  # random singles
            for _ in range(rng.randrange(1, 8)):
                kind = "W" if rng.random() < 0.5 else "R"
                emit(kind, base + rng.randrange(n_lines) * LINE_BYTES)
    return records[:n_ops]


def build_cpu_side(cfg: SimConfig, mode: str, n_lines: int, base: int,
                   key: KeyMaterial):
    """The CPU memory of one mode and its TenAnalyzer (None outside
    TensorTEE): plain DRAM, the per-line baseline, or that baseline behind a
    Meta Table."""
    if mode == "nonsecure":
        return PlainMemory(base, n_lines), None
    c = cfg.cpu
    mem = ProtectedMemory(base, n_lines, key,
                          metadata_cache_bytes=c.metadata_cache_bytes,
                          crypto_on=cfg.crypto.functional)
    if mode == "sgx_mgx":
        return mem, None
    return mem, TenAnalyzer(mem, en_tmf=c.en_tmf,
                            table_entries=c.meta_table_entries,
                            filter_entries=c.filter_entries,
                            collect_limit=c.filter_collect_limit,
                            merge_window=c.merge_window)


def _line_data(va: int) -> bytes:
    return (va & 0xFF).to_bytes(1, "little") * LINE_BYTES


def replay_trace(front, records: Iterable[TraceRecord],
                 cost_sample: Optional[list] = None) -> None:
    """Drive R/W records through a CPU front door: a TenAnalyzer, a
    ProtectedMemory or a PlainMemory, in runs of same-kind records
    (`read_run`/`write_run`, or a memory's `read_lines`/`write_lines`) of at
    most REPLAY_RUN_LINES. Write data is a cheap deterministic pattern: the
    address's low byte in every byte of the line. A memory's (not a
    TenAnalyzer's) accesses go one at a time, appending their CostReports
    (`CostReport.between`) to `cost_sample`, while it holds fewer than
    COST_SAMPLE_LIMIT."""
    if isinstance(front, TenAnalyzer):
        read_run, write_run = front.read_run, front.write_run
        cost_sample = None
    else:
        read_run, write_run = front.read_lines, front.write_lines
    for kind, recs in groupby(records, key=attrgetter("kind")):
        if kind not in ("R", "W"):
            continue
        while vas := [r.va for r in islice(recs, REPLAY_RUN_LINES)]:
            if cost_sample is not None and len(cost_sample) < COST_SAMPLE_LIMIT:
                head = vas[:COST_SAMPLE_LIMIT - len(cost_sample)]
                vas = vas[len(head):]
                for va in head:
                    before = dict(front.totals)
                    if kind == "R":
                        front.read_line(va)
                    else:
                        front.write_line(va, _line_data(va))
                    cost_sample.append(CostReport.between(kind, va, before, front.totals))
            if kind == "R":
                read_run(vas)
            else:
                write_run(vas, [_line_data(va) for va in vas])


# -- offloaded training loop -----------------------------------------------------------

@dataclass
class IterationBreakdown:
    npu_fwd: int = 0
    npu_bwd: int = 0
    comm_grad: int = 0          # gradient-transfer span beyond backward compute
    cpu_adam: int = 0
    comm_weights: int = 0
    grad_span: int = 0          # first grad ready -> last grad installed
    grad_latencies: list = field(default_factory=list)  # ready -> installed, per tensor


@dataclass
class ZeroOffloadReport:
    mode: str
    total_ticks: int = 0
    phases: dict = field(default_factory=dict)
    iterations: list[IterationBreakdown] = field(default_factory=list)
    transfers: list[TransferReport] = field(default_factory=list)
    analyzer_stats: Optional[dict] = None
    hit_rates: Optional[dict] = None
    weights: Optional[list[np.ndarray]] = None
    cpu_totals: Optional[dict] = None
    npu_rows: list = field(default_factory=list)


def _to_lines(arr: np.ndarray) -> list[bytes]:
    """The 64 B lines of a float32 array."""
    raw = arr.tobytes()
    return [raw[o:o + LINE_BYTES] for o in range(0, len(raw), LINE_BYTES)]


def _lines_to_array(lines: list[bytes]) -> np.ndarray:
    return np.frombuffer(b"".join(lines), dtype=np.float32).copy()


class ZeroOffloadRunner:
    """One CPU+NPU system executing the offloaded training dataflow: forward
    and backward on the NPU, gradients to the CPU during backpropagation, the
    optimizer update on the CPU, updated weights back to the NPU."""

    WEIGHT_TID = 100
    GRAD_TID = 200

    def __init__(self, cfg: SimConfig, mode: Optional[str] = None):
        self.cfg = cfg
        self.mode = mode or cfg.mode
        if self.mode not in ("nonsecure", "sgx_mgx", "tensortee"):
            raise ValueError(f"unknown mode {self.mode!r}")
        self.engine = build_engine(cfg)
        wl = cfg.workload
        self.n_tensors = wl.zero_tensors
        self.n_lines = wl.zero_tensor_bytes // LINE_BYTES
        self.threads = wl.threads
        self.burst = wl.burst_lines
        self.region_base = 0x1000_0000
        self.layouts = adam_layouts(self.n_tensors, wl.zero_tensor_bytes,
                                    wl.zero_tensor_bytes, self.region_base)
        total_lines = adam_region_lines(self.layouts, self.region_base)

        cpu_enc = Enclave.create(1, cfg.crypto.seed ^ 0xC0DE, b"cpu", b"cpu-data")
        npu_enc = Enclave.create(2, cfg.crypto.seed ^ 0x417, b"npu", b"npu-data")
        expected = {1: cpu_enc.report(), 2: npu_enc.report()}
        self.session = attest_and_exchange(cpu_enc, npu_enc, expected)

        # pre-unification (SGX+MGX), CPU and NPU keep distinct enclave keys
        cpu_key, npu_key = ((cpu_enc.key, npu_enc.key) if self.mode == "sgx_mgx"
                            else (self.session.shared_key,) * 2)
        self.cpu_mem, self.analyzer = build_cpu_side(
            cfg, self.mode, total_lines, self.region_base, cpu_key)
        self.npu: Optional[NpuDevice] = None
        if self.mode != "nonsecure":
            self.npu = NpuDevice(npu_key, self.engine,
                                 fault_threshold=cfg.npu.fault_threshold,
                                 crypto_on=cfg.crypto.functional,
                                 mac_granularity=cfg.npu.mac_granularity)

        n_floats = self.n_lines * FLOATS_PER_LINE
        rng = np.random.Generator(np.random.Philox(key=cfg.crypto.seed))
        self.init_weights = [rng.standard_normal(n_floats, dtype=np.float32)
                             for _ in range(self.n_tensors)]
        self.report = ZeroOffloadReport(mode=self.mode)
        self.verify_mode = "delayed" if self.mode == "tensortee" else "blocking"
        self._nch = cfg.cpu.dram_channels

    # -- CPU data plane -----------------------------------------------------------

    def _cpu_write(self, vas: list, plains: list) -> None:
        """Write lines `vas` in order through the mode's write path."""
        if self.analyzer is not None:
            self.analyzer.write_run(vas, plains)
        else:
            self.cpu_mem.write_lines(vas, plains)

    def _reserve_cpu_phase(self, data_bytes: int, meta_bytes: int, at: int) -> int:
        """Charge a CPU access phase to the DRAM channels and AES engines."""
        end = at
        per_ch = (data_bytes + meta_bytes) // self._nch
        for ch in range(self._nch):
            if per_ch > 0:
                _, e = self.engine.reserve(f"cpu_dram{ch}", per_ch, at_tick=at)
                end = max(end, e)
            if data_bytes and not isinstance(self.cpu_mem, PlainMemory):
                _, e = self.engine.reserve(f"cpu_aes{ch}",
                                           max(1, data_bytes // self._nch),
                                           at_tick=at)
                end = max(end, e)
        return end

    # -- NPU phases ----------------------------------------------------------------

    def _weights_to_npu(self, at: int) -> int:
        done = at
        if self.mode == "nonsecure":
            total = sum(l.n_lines for l in self.layouts) * LINE_BYTES
            _, done = self.engine.reserve("link", total, at_tick=at)
            return done
        for t, lay in enumerate(self.layouts):
            tid = self.WEIGHT_TID + t
            if self.mode == "sgx_mgx":
                rep = baseline_transfer(self.session, self.engine, tensor_id=tid,
                                        direction="cpu_to_npu",
                                        cpu_mem=self.cpu_mem, npu=self.npu,
                                        cpu_base=lay.w_base,
                                        n_lines=lay.n_lines, at_tick=at)
            else:
                rep = direct_transfer(self.session, self.engine, tensor_id=tid,
                                      direction="cpu_to_npu",
                                      analyzer=self.analyzer, npu=self.npu,
                                      cpu_base=lay.w_base, at_tick=at)
            self.report.transfers.append(rep)
            done = max(done, rep.done_tick)
        return done

    def _npu_forward(self, at: int) -> int:
        done = at
        for t, lay in enumerate(self.layouts):
            if self.mode == "nonsecure":
                done = max(done, unprotected_stream(self.engine, lay.n_lines, at))
            else:
                rec = self.npu.records[self.WEIGHT_TID + t]
                _, rep = self.npu.load_tensor_stream(rec, self.verify_mode,
                                                     at_tick=at)
                done = max(done, rep.done_tick)
        return done

    def _grad_values(self, it: int, t: int) -> np.ndarray:
        key = np.array([(self.cfg.crypto.seed ^ (it * 0x9E3779B9)) & (2**64 - 1),
                        0xABCD ^ t], dtype=np.uint64)
        rng = np.random.Generator(np.random.Philox(key=key))
        return (rng.standard_normal(self.n_lines * FLOATS_PER_LINE,
                                    dtype=np.float32) * np.float32(0.1))

    def _npu_backward_and_grads(self, at: int, it: int):
        """Backward compute runs 2x the forward volume per tensor; each grad
        tensor materializes at its segment's end and is stored there."""
        eng = self.engine
        grad_ready = []
        seg_start = at
        for t, lay in enumerate(self.layouts):
            _, seg_end = eng.reserve("npu_compute", 2 * lay.n_lines * LINE_BYTES,
                                     at_tick=seg_start)
            gvals = self._grad_values(it, t)
            if self.mode == "nonsecure":
                _, wr_done = eng.reserve("npu_gddr", lay.n_lines * LINE_BYTES,
                                         at_tick=seg_end)
                grad_ready.append((t, wr_done, gvals))
            else:
                rec = self.npu.records.get(self.GRAD_TID + t) or \
                    self.npu.register_tensor(self.GRAD_TID + t,
                                             0x5000_0000 + t * 0x0100_0000,
                                             lay.n_lines)
                lines = _to_lines(gvals)
                srep = self.npu.store_tensor_stream(rec, lines, at_tick=seg_end)
                grad_ready.append((t, srep.done_tick, gvals))
            seg_start = seg_end
        return seg_start, grad_ready

    def _grads_to_cpu(self, grad_ready):
        eng = self.engine
        installs = []
        for t, ready, gvals in grad_ready:
            lay = self.layouts[t]
            tid = self.GRAD_TID + t
            if self.mode == "nonsecure":
                _, end = eng.reserve("link", lay.n_lines * LINE_BYTES,
                                     at_tick=ready)
                self.cpu_mem.write_lines(
                    [lay.g_base + j * LINE_BYTES for j in range(lay.n_lines)],
                    _to_lines(gvals))
            elif self.mode == "sgx_mgx":
                rep = baseline_transfer(self.session, eng, tensor_id=tid,
                                        direction="npu_to_cpu",
                                        cpu_mem=self.cpu_mem, npu=self.npu,
                                        cpu_base=lay.g_base,
                                        n_lines=lay.n_lines, at_tick=ready)
                self.report.transfers.append(rep)
                end = rep.done_tick
            else:
                rep = direct_transfer(self.session, eng, tensor_id=tid,
                                      direction="npu_to_cpu",
                                      analyzer=self.analyzer, npu=self.npu,
                                      cpu_base=lay.g_base, at_tick=ready)
                self.report.transfers.append(rep)
                end = rep.done_tick
            installs.append(end)
        return installs

    # -- optimizer update -------------------------------------------------------------

    def _adam_math(self, bufs: dict, it: int) -> dict:
        w = _lines_to_array(bufs["w"])
        g = _lines_to_array(bufs["g"])
        m = _lines_to_array(bufs["m"])
        v = _lines_to_array(bufs["v"])
        m = (ADAM_BETA1 * m + (np.float32(1) - ADAM_BETA1) * g).astype(np.float32)
        v = (ADAM_BETA2 * v + (np.float32(1) - ADAM_BETA2) * (g * g)).astype(np.float32)
        tstep = np.float32(it + 1)
        mhat = m / (np.float32(1) - ADAM_BETA1 ** tstep)
        vhat = v / (np.float32(1) - ADAM_BETA2 ** tstep)
        w = (w - ADAM_LR * mhat / (np.sqrt(vhat) + ADAM_EPS)).astype(np.float32)
        return {"w": _to_lines(w), "m": _to_lines(m), "v": _to_lines(v)}

    def _cpu_adam(self, at: int, it: int) -> int:
        t_totals = self.cpu_mem.totals
        done = at
        for lay in self.layouts:
            bases = dict(lay.stream_bases())
            bufs = {s: [None] * lay.n_lines for s in ("w", "g", "m", "v")}
            # DRAM sees critical-path reads plus the coalesced dirty drain
            meta_keys = ("vn_rd", "mac_rd", "tree_rd", "vn_wb", "mac_wb",
                         "tree_wb", "rebuild_bytes")
            data_keys = ("data_rd", "data_wr")
            snap_meta = sum(t_totals[k] for k in meta_keys)
            snap_data = sum(t_totals[k] for k in data_keys)
            # each run of reads is one read run; the writes that follow
            # store the step computed from what was read, as one write run
            for phase, recs in groupby(adam_access_sequence(
                    lay, self.threads, self.burst), key=_PHASE):
                recs = list(recs)
                vas = [bases[s] + j * LINE_BYTES for _, s, _, j in recs]
                if phase == "R":
                    if self.analyzer is None:
                        plains = self.cpu_mem.read_lines(vas)
                    else:
                        plains = self.analyzer.read_run(vas)
                    for (_, s, _, j), plain in zip(recs, plains):
                        bufs[s][j] = plain
                else:
                    new = self._adam_math(bufs, it)
                    self._cpu_write(vas, [new[s][j] for _, s, _, j in recs])
            meta = sum(t_totals[k] for k in meta_keys) - snap_meta
            data = sum(t_totals[k] for k in data_keys) - snap_data
            done = max(done, self._reserve_cpu_phase(data, meta, at))
        return done

    # -- top level -----------------------------------------------------------------------

    def setup_state(self) -> None:
        """Write initial weights/moments through the mode's write path; in
        unified mode the transferable weight tensors get structure hints first
        so their ciphertext is tensor-logical from the start."""
        if self.analyzer is not None:
            for t, lay in enumerate(self.layouts):
                self.analyzer.install_hint(lay.w_base, lay.n_lines,
                                           tensor_id=self.WEIGHT_TID + t)
        zero = bytes(LINE_BYTES)
        for t, lay in enumerate(self.layouts):
            vas, plains = [], []
            for j, w in enumerate(_to_lines(self.init_weights[t])):
                vas += (lay.w_base + j * LINE_BYTES, lay.m_base + j * LINE_BYTES,
                        lay.v_base + j * LINE_BYTES)
                plains += (w, zero, zero)
            self._cpu_write(vas, plains)

    def run(self) -> ZeroOffloadReport:
        self.setup_state()
        eng = self.engine
        now = eng.now
        for it in range(self.cfg.workload.iterations):
            br = IterationBreakdown()
            w_done = self._weights_to_npu(now)
            br.comm_weights = w_done - now
            fwd_done = self._npu_forward(w_done)
            br.npu_fwd = fwd_done - w_done
            bwd_end, grad_ready = self._npu_backward_and_grads(fwd_done, it)
            br.npu_bwd = bwd_end - fwd_done
            installs = self._grads_to_cpu(grad_ready)
            last_install = max(installs) if installs else bwd_end
            first_ready = min(r for _, r, _ in grad_ready) if grad_ready else bwd_end
            br.grad_span = last_install - first_ready
            br.grad_latencies = [end - ready for (_, ready, _), end
                                 in zip(grad_ready, installs)]
            br.comm_grad = max(0, last_install - bwd_end)
            adam_start = max(bwd_end, last_install)
            adam_done = self._cpu_adam(adam_start, it)
            br.cpu_adam = adam_done - adam_start
            now = adam_done
            eng.advance(now)
            self.report.iterations.append(br)
        self.report.total_ticks = now
        phases = {"npu_fwd": 0, "npu_bwd": 0, "comm_grad": 0, "cpu_adam": 0,
                  "comm_weights": 0}
        for br in self.report.iterations:
            for name in phases:
                phases[name] += getattr(br, name)
        self.report.phases = phases
        self.report.weights = self._final_weights()
        if self.analyzer is not None:
            self.report.analyzer_stats = dict(self.analyzer.stats)
            self.report.hit_rates = self.analyzer.hit_rates()
        self.report.cpu_totals = dict(self.cpu_mem.totals)
        if self.npu is not None:
            self.report.npu_rows = [r.csv_row() for r in self.npu.reports]
        return self.report

    def _final_weights(self) -> list[np.ndarray]:
        """Each weight tensor's plaintext. A protected tensor is read as an
        oracle, without cost accounting."""
        mem = self.cpu_mem
        read = mem.read_lines if isinstance(mem, PlainMemory) else mem.plaintexts
        return [_lines_to_array(read([lay.w_base + j * LINE_BYTES
                                      for j in range(lay.n_lines)]))
                for lay in self.layouts]


def run_zero_offload(cfg: SimConfig, mode: Optional[str] = None
                     ) -> ZeroOffloadReport:
    return ZeroOffloadRunner(cfg, mode).run()
