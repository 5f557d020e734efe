"""NPU-side protection: on-chip per-tensor VN records, tensor-wise XOR MAC
with delayed verification, poison tracing with verification barriers, and a
non-delayed code-fetch path.

Two verify modes. DelayedTensor releases each decrypted line to compute
immediately while a running XOR of per-line MACs accumulates; the single
comparison against the stored tensor MAC happens after the last line, so a
clean stream has no verification stalls. Blocking(G) holds compute on any
line until its whole G-byte block is fetched and its block MAC verified,
which is the pipeline-bubble baseline. A block with no sealed MAC at G fails
verification.

Tensor streams encrypt, MAC and decrypt the whole tensor in one batch; the
engine reservations stay per line and in line order. A device built without
functional crypto runs the same dataflow under the null cipher
(`crypto.NULL_KEY`).

Tampered bytes are tracked out-of-band as provenance taint (ground truth for
the escape-proofing checks); the poison-bit machinery is the mechanism under
test and must always cover the taint.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

from .crypto import (
    LINE_BYTES, MASK56, NULL_KEY, BindingMode, CipherBlock, CounterBinding,
    IntegrityFault, KeyMaterial, decrypt_block, encrypt_block, mac_block,
    mac_xor_aggregate, open_blocks, seal_lines,
)
from .engine import Engine

MAC_TAG_BYTES = 7  # 56-bit tags as stored


class HaltError(Exception):
    """Fault counter exceeded its threshold; execution halts."""


@dataclass
class VerifyMode:
    mode: str                  # "delayed" | "blocking"
    granularity: int = 512     # bytes, blocking only

    def __post_init__(self):
        if self.mode not in ("delayed", "blocking"):
            raise ValueError("mode must be 'delayed' or 'blocking'")
        g = self.granularity
        if self.mode == "blocking" and not (64 <= g <= 4096 and g & (g - 1) == 0):
            raise ValueError("blocking granularity must be a power of two in [64B, 4KiB]")


class TensorRecord:
    """Per-tensor on-chip state: VN, stored aggregate MAC, poison bit, and the
    running XOR for an in-flight load verification."""

    __slots__ = ("tensor_id", "base", "n_lines", "vn", "stored_mac", "poison",
                 "pending", "running_xor", "deps", "verify_done_tick",
                 "tainted", "failed")

    def __init__(self, tensor_id: int, base: int, n_lines: int):
        self.tensor_id = tensor_id
        self.base = base
        self.n_lines = n_lines
        self.vn = 0
        self.stored_mac = 0
        self.poison = 0            # own pending/failed verification
        self.pending = None
        self.running_xor = 0
        self.deps: tuple = ()      # producing kernel's input records
        self.verify_done_tick = 0
        self.tainted = False       # provenance ground truth, not the mechanism
        self.failed = False


@dataclass
class FaultCounter:
    count: int = 0
    threshold: int = 3

    def record_failure(self) -> None:
        self.count += 1
        if self.count > self.threshold:
            raise HaltError(f"verification failures exceeded threshold "
                            f"({self.count} > {self.threshold})")


@dataclass
class StreamReport:
    tensor_id: int
    mode: str
    lines: int
    start_tick: int = 0
    done_tick: int = 0
    compute_done_tick: int = 0
    verify_done_tick: int = 0
    stall_ticks: int = 0
    verify_cycles: int = 0
    faults: int = 0

    def csv_row(self) -> str:
        stall = self.stall_ticks
        return (f"{self.tensor_id},{self.mode},{self.lines},{stall},"
                f"{self.verify_cycles},{self.faults}")

    @staticmethod
    def csv_header() -> str:
        return "tensor_id,mode,lines,stall_cycles,verify_cycles,faults"


def unprotected_stream(engine: Engine, n_lines: int, at: int) -> int:
    """Stream lines from GDDR to compute unprotected; returns the done tick."""
    done = at
    for _ in range(n_lines):
        _, fetched = engine.reserve("npu_gddr", LINE_BYTES, at_tick=at)
        _, computed = engine.reserve("npu_compute", LINE_BYTES, at_tick=fetched)
        done = max(done, computed)
    return done


def _fold_blocks(tags: list[int], granularity: int) -> list[int]:
    """XOR-fold per-line tags into one tag per `granularity`-byte block."""
    per = max(1, granularity // LINE_BYTES)
    return [mac_xor_aggregate(tags[b0:b0 + per]) for b0 in range(0, len(tags), per)]


class NpuDevice:
    """Modeled GDDR plus the protection engine in front of it. Stores seal
    one block MAC per `mac_granularity` bytes for blocking-mode loads."""

    def __init__(self, key: KeyMaterial, engine: Engine, *,
                 fault_threshold: int = 3, crypto_on: bool = True,
                 mac_granularity: int = 512):
        self.key = key if crypto_on else NULL_KEY
        self.engine = engine
        self.mac_granularity = mac_granularity
        self.records: dict[int, TensorRecord] = {}
        self.gddr: dict[int, CipherBlock] = {}        # addr -> line
        self.taint: set[int] = set()                   # addrs with tampered bytes
        # tensor base -> (granularity, one tag per block); one layout at a time
        self.block_macs: dict[int, tuple[int, list[int]]] = {}
        self.code: dict[int, tuple[CipherBlock, int]] = {}  # pa -> (line, mac)
        self.faults = FaultCounter(threshold=fault_threshold)
        self.retransfer_requests: list[int] = []
        self.delayed_queue_log: list[tuple[int, bool]] = []  # (addr, is_inst)
        self.link_log: list[dict] = []
        self.reports: list[StreamReport] = []

    # -- registration and stores ------------------------------------------------

    def register_tensor(self, tensor_id: int, base: int, n_lines: int) -> TensorRecord:
        rec = TensorRecord(tensor_id, base, n_lines)
        self.records[tensor_id] = rec
        return rec

    def install_transferred(self, tensor_id: int, base: int, n_lines: int,
                            vn: int, mac: int,
                            lines: Sequence[CipherBlock],
                            tainted: Iterable[bool] | None = None) -> TensorRecord:
        """Accept ciphertext moved verbatim from the peer enclave; verification
        is lazy (first use runs the delayed dataflow)."""
        rec = self.records.get(tensor_id) or self.register_tensor(tensor_id, base, n_lines)
        rec.base, rec.n_lines = base, n_lines
        rec.vn = vn
        rec.stored_mac = mac
        rec.poison = 1            # unverified until first-use stream passes
        rec.failed = False
        taint_flags = list(tainted) if tainted is not None else [False] * n_lines
        rec.tainted = any(taint_flags)
        for i, blk in enumerate(lines):
            addr = base + i * LINE_BYTES
            self.gddr[addr] = blk
            if taint_flags[i]:
                self.taint.add(addr)
            else:
                self.taint.discard(addr)
        return rec

    def store_tensor_stream(self, record: TensorRecord,
                            plain_lines: Sequence, *, at_tick: Optional[int] = None,
                            tainted: bool = False,
                            order: Optional[Sequence[int]] = None) -> StreamReport:
        """Write back one tensor: VN+1 once, every line encrypted under the
        tensor-logical binding at the new VN, stored MAC = XOR of line MACs
        (so any tile-permuted write order yields the same tag), and block
        MACs resealed at the device's MAC granularity."""
        eng = self.engine
        t0 = eng.now if at_tick is None else at_tick
        vn = record.vn = (record.vn + 1) & MASK56
        n = len(plain_lines)
        bindings = [CounterBinding(BindingMode.TENSOR_LOGICAL, record.tensor_id,
                                   i * LINE_BYTES) for i in range(n)]
        data, tags = seal_lines(self.key, plain_lines, bindings, vn)
        acc = 0
        done = t0
        sequence = order if order is not None else range(n)
        for i in sequence:
            addr = record.base + i * LINE_BYTES
            self.gddr[addr] = CipherBlock(data[i], bindings[i], vn)
            if tainted:
                self.taint.add(addr)
            else:
                self.taint.discard(addr)
            acc ^= tags[i]
            _, aes_done = eng.reserve("npu_aes", LINE_BYTES, at_tick=t0)
            _, wr_done = eng.reserve("npu_gddr", LINE_BYTES, at_tick=aes_done)
            _, mac_done = eng.reserve("npu_mac", LINE_BYTES, at_tick=aes_done)
            done = max(done, wr_done, mac_done)
        record.stored_mac = acc
        self.block_macs[record.base] = (self.mac_granularity,
                                        _fold_blocks(tags, self.mac_granularity))
        record.tainted = tainted
        record.poison = 0          # freshly produced on-chip data is verified
        record.failed = False
        rep = StreamReport(record.tensor_id, "store", len(plain_lines),
                           start_tick=t0, done_tick=done)
        self.reports.append(rep)
        return rep

    # -- loads -------------------------------------------------------------------

    def load_tensor_stream(self, record: TensorRecord, mode: VerifyMode, *,
                           at_tick: Optional[int] = None):
        """Stream one tensor to compute under the given verify mode. Returns
        (plain_lines, StreamReport). DelayedTensor: per-line release, tensor
        MAC compared at stream end; mismatch discards the tensor, emits a
        re-transfer request and raises IntegrityFault (HaltError past the
        fault-counter threshold)."""
        if mode.mode == "delayed":
            return self._load_delayed(record, at_tick)
        return self._load_blocking(record, mode.granularity, at_tick)

    def _fetch_line(self, record: TensorRecord, i: int):
        addr = record.base + i * LINE_BYTES
        blk = self.gddr.get(addr)
        if blk is None:
            binding = CounterBinding(BindingMode.TENSOR_LOGICAL,
                                     record.tensor_id, i * LINE_BYTES)
            blk = self.gddr[addr] = encrypt_block(bytes(LINE_BYTES), binding,
                                                  record.vn, self.key)
        return addr, blk

    def _fetch_lines(self, record: TensorRecord) -> list[tuple[int, CipherBlock]]:
        return [self._fetch_line(record, i) for i in range(record.n_lines)]

    def _load_delayed(self, record: TensorRecord, at_tick):
        eng = self.engine
        t0 = eng.now if at_tick is None else at_tick
        record.poison = 1
        record.pending = "verify"
        lines = self._fetch_lines(record)
        # every line's tag and plaintext under the tensor's VN, in one batch
        tags, plains = open_blocks(self.key, [blk for _, blk in lines], record.vn)
        compute_done = t0
        mac_done = t0
        running_xor = 0
        for (addr, _), tag in zip(lines, tags):
            self.delayed_queue_log.append((addr, False))
            _, fetch_done = eng.reserve("npu_gddr", LINE_BYTES, at_tick=t0)
            _, aes_done = eng.reserve("npu_aes", LINE_BYTES, at_tick=fetch_done)
            # line released to compute immediately; MAC regeneration parallels it
            start = max(aes_done, compute_done)
            _, compute_done = eng.reserve("npu_compute", LINE_BYTES, at_tick=start)
            _, mac_done = eng.reserve("npu_mac", LINE_BYTES, at_tick=aes_done)
            running_xor ^= tag
        record.running_xor = running_xor
        tainted = any(addr in self.taint for addr, _ in lines)
        verify_done = mac_done  # final compare is a few cycles, folded in
        done = max(compute_done, verify_done)
        rep = StreamReport(record.tensor_id, "delayed", record.n_lines,
                           start_tick=t0, done_tick=done,
                           compute_done_tick=compute_done,
                           verify_done_tick=verify_done,
                           verify_cycles=record.n_lines)
        record.verify_done_tick = verify_done
        record.pending = None
        if record.running_xor == record.stored_mac:
            record.poison = 0
            record.failed = False
            record.tainted = tainted or record.tainted
            self.reports.append(rep)
            return plains, rep
        rep.faults = 1
        record.failed = True
        record.poison = 1
        self.reports.append(rep)
        self._discard(record)
        self.retransfer_requests.append(record.tensor_id)
        self.faults.record_failure()
        raise IntegrityFault("tensor_mac", f"tensor {record.tensor_id}")

    def _load_blocking(self, record: TensorRecord, granularity: int, at_tick):
        eng = self.engine
        t0 = eng.now if at_tick is None else at_tick
        lines_per_block = max(1, granularity // LINE_BYTES)
        plains = []
        compute_done = t0
        stall = 0
        faults = 0
        n = record.n_lines
        tags, plain_lines = open_blocks(
            self.key, [blk for _, blk in self._fetch_lines(record)], record.vn)
        g, sealed = self.block_macs.get(record.base, (None, ()))
        if g != granularity:
            sealed = ()
        for b0 in range(0, n, lines_per_block):
            blk_lines = range(b0, min(b0 + lines_per_block, n))
            acc = 0
            aes_done = t0
            first_line_ready = None
            mac_done = t0
            for i in blk_lines:
                _, fetch_done = eng.reserve("npu_gddr", LINE_BYTES, at_tick=t0)
                _, aes_done = eng.reserve("npu_aes", LINE_BYTES, at_tick=fetch_done)
                _, mac_done = eng.reserve("npu_mac", LINE_BYTES, at_tick=aes_done)
                if first_line_ready is None:
                    first_line_ready = aes_done
                acc ^= tags[i]
            verify_done = mac_done  # block compare folds into the last line tag
            k = b0 // lines_per_block
            # fail closed: a block with no MAC sealed at this granularity
            # cannot verify
            if k >= len(sealed) or sealed[k] != acc:
                faults += 1
                record.failed = True
                self.faults.record_failure()
                raise IntegrityFault(
                    "mac_mismatch", f"tensor {record.tensor_id} block {k}"
                    + ("" if k < len(sealed) else
                       f": no block MAC sealed at {granularity} B"))
            # compute on any line of the block stalls until the whole block is
            # fetched and its MAC verified: the bubble is the wait past the
            # point the first line was already decrypted and compute was free
            stall += max(0, verify_done - max(compute_done, first_line_ready))
            for i in blk_lines:
                start = max(verify_done, compute_done)
                _, compute_done = eng.reserve("npu_compute", LINE_BYTES,
                                              at_tick=start)
                plains.append(plain_lines[i])
        rep = StreamReport(record.tensor_id, f"blocking{granularity}", n,
                           start_tick=t0, done_tick=compute_done,
                           compute_done_tick=compute_done,
                           verify_done_tick=compute_done,
                           stall_ticks=stall, faults=faults)
        record.verify_done_tick = compute_done
        record.poison = 0
        self.reports.append(rep)
        return plains, rep

    def _discard(self, record: TensorRecord) -> None:
        for i in range(record.n_lines):
            addr = record.base + i * LINE_BYTES
            self.gddr.pop(addr, None)
            self.taint.discard(addr)

    def mac_storage_bytes(self, mode: VerifyMode) -> int:
        """Off-chip MAC footprint: 7 B per tensor (delayed) versus 7 B per
        G-byte block (blocking)."""
        if mode.mode == "delayed":
            return MAC_TAG_BYTES * len(self.records)
        total = 0
        for rec in self.records.values():
            blocks = -(-rec.n_lines * LINE_BYTES // mode.granularity)
            total += MAC_TAG_BYTES * blocks
        return total

    # -- poison tracing and barriers ----------------------------------------------

    def propagate_poison(self, inputs: Sequence[TensorRecord],
                         output: TensorRecord) -> None:
        """Output's visible poison becomes the OR of its inputs' poison: the
        dependency edges stay live, so once every pending input verification
        passes, effective_poison recomputes to clear."""
        output.deps = tuple(inputs)
        output.tainted = output.tainted or any(r.tainted for r in inputs)

    def effective_poison(self, record: TensorRecord, _seen=None) -> int:
        if _seen is None:
            _seen = set()
        if record.tensor_id in _seen:
            return record.poison
        _seen.add(record.tensor_id)
        if record.poison:
            return 1
        for dep in record.deps:
            if self.effective_poison(dep, _seen):
                return 1
        return 0

    def verification_barrier(self, tensor_ids: Sequence[int]) -> int:
        """Block until every listed tensor's (transitive) poison clears;
        returns the tick at which the barrier opens. A failed verification
        surfaces IntegrityFault and the communication never happens."""
        ready = self.engine.now
        for tid in tensor_ids:
            rec = self.records[tid]
            if rec.failed or self._any_failed(rec):
                raise IntegrityFault("tensor_mac",
                                     f"barrier: tensor {tid} failed verification")
            if self.effective_poison(rec):
                raise IntegrityFault(
                    "tensor_mac",
                    f"barrier: tensor {tid} still unverified (poison set)")
            ready = max(ready, rec.verify_done_tick)
        return ready

    def _any_failed(self, record: TensorRecord, _seen=None) -> bool:
        if _seen is None:
            _seen = set()
        if record.tensor_id in _seen:
            return False
        _seen.add(record.tensor_id)
        if record.failed:
            return True
        return any(self._any_failed(d, _seen) for d in record.deps)

    def barrier_wait_ticks(self, tensor_ids: Sequence[int]) -> int:
        """Added latency of a barrier issued now (0 when everything is clean
        and already verified)."""
        return max(0, self.verification_barrier(tensor_ids) - self.engine.now)

    # -- code path -------------------------------------------------------------------

    def install_code_line(self, pa: int, plain: bytes | int) -> None:
        blk = encrypt_block(plain, CounterBinding(BindingMode.PHYSICAL_ADDR, pa),
                            1, self.key)
        self.code[pa] = (blk, mac_block(blk, self.key))

    def tamper_code_line(self, pa: int, bit: int = 0) -> None:
        blk, tag = self.code[pa]
        blk.data ^= 1 << bit
        self.taint.add(pa)

    def fetch_code_line(self, pa: int, *, at_tick: Optional[int] = None):
        """is_inst requests take the normal non-delayed path: per-line MAC
        verified before the line is usable; never enters the delayed queue."""
        eng = self.engine
        t0 = eng.now if at_tick is None else at_tick
        blk, stored = self.code[pa]
        _, fetch_done = eng.reserve("npu_gddr", LINE_BYTES, at_tick=t0)
        _, aes_done = eng.reserve("npu_aes", LINE_BYTES, at_tick=fetch_done)
        _, mac_done = eng.reserve("npu_mac", LINE_BYTES, at_tick=fetch_done)
        if mac_block(blk, self.key) != stored:
            raise IntegrityFault("code_tamper", f"pa={pa:#x}")
        return decrypt_block(blk, self.key), max(aes_done, mac_done)
