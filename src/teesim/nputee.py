"""NPU-side protection: on-chip per-tensor VN records, tensor-wise XOR MAC
with delayed verification, poison tracing with verification barriers, and a
non-delayed code-fetch path.

Two verify modes. DelayedTensor releases each decrypted line to compute
immediately while a running XOR of per-line MACs accumulates; the single
comparison against the stored tensor MAC happens after the last line, so a
clean stream has no verification stalls. Blocking holds compute on any line
until its whole block of the device's MAC granularity is fetched and its
block MAC verified, which is the pipeline-bubble baseline. A block with no
sealed MAC (its tensor was never stored on the device) fails verification.

Each tensor record holds its lines in GDDR as one flat store: the
ciphertext, the binding codes and a stored and a taint byte per line, all
under the record's one VN. Tensor streams encrypt, MAC and decrypt the whole
tensor in one batch, in place; the engine reservations stay per line and in
line order. A device built without functional crypto runs the same dataflow
under the null cipher (`crypto.NULL_KEY`).

Tampered bytes are tracked out-of-band as provenance taint (ground truth for
the escape-proofing checks); the poison-bit machinery is the mechanism under
test and must always cover the taint.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from functools import reduce
from operator import xor
from typing import Optional, Sequence

from .crypto import (
    LINE_BYTES, MASK56, NULL_KEY, BindingMode, CipherBlock, CounterBinding,
    IntegrityFault, KeyMaterial, as_line, decrypt_block, encrypt_block,
    mac_block, mac_xor_aggregate, open_lines, seal_into, tensor_line_codes,
)
from .engine import Engine

MAC_TAG_BYTES = 7  # 56-bit tags as stored


class HaltError(Exception):
    """Fault counter exceeded its threshold; execution halts."""


class TensorRecord:
    """Per-tensor on-chip state: VN, stored aggregate MAC, block tags (one
    per device MAC block, from its last store) and poison bit; and the
    tensor's lines in GDDR, from `base` on: their ciphertext `ct`, binding
    `codes`, and a `stored` byte (0: never stored, or discarded) and a
    `taint` byte each."""

    __slots__ = ("tensor_id", "base", "n_lines", "vn", "stored_mac", "block_tags",
                 "poison", "deps", "verify_done_tick",
                 "tainted", "failed", "ct", "codes", "stored", "taint")

    def __init__(self, tensor_id: int, base: int, n_lines: int):
        self.tensor_id = tensor_id
        self.base = base
        self.n_lines = n_lines
        self.ct = bytearray(n_lines * LINE_BYTES)
        self.codes = array("Q", bytes(8 * n_lines))
        self.stored = bytearray(n_lines)
        self.taint = bytearray(n_lines)
        self.vn = 0
        self.stored_mac = 0
        self.block_tags: list[int] = []
        self.poison = 0            # own pending/failed verification
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
        return (f"{self.tensor_id},{self.mode},{self.lines},{self.stall_ticks},"
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
    per = granularity // LINE_BYTES
    return [mac_xor_aggregate(tags[b0:b0 + per]) for b0 in range(0, len(tags), per)]


class NpuDevice:
    """Modeled GDDR plus the protection engine in front of it. Stores seal
    one block tag per `mac_granularity` bytes, which blocking-mode loads and
    the relay verify."""

    def __init__(self, key: KeyMaterial, engine: Engine, *,
                 fault_threshold: int = 3, crypto_on: bool = True,
                 mac_granularity: int = 512):
        g = mac_granularity
        if not (64 <= g <= 4096 and g & (g - 1) == 0):
            raise ValueError("mac_granularity must be a power of two in [64B, 4KiB]")
        self.key = key if crypto_on else NULL_KEY
        self.engine = engine
        self.mac_granularity = mac_granularity
        self.records: dict[int, TensorRecord] = {}
        self.code: dict[int, tuple[CipherBlock, int]] = {}  # pa -> (line, mac)
        self.faults = FaultCounter(threshold=fault_threshold)
        self.retransfer_requests: list[int] = []
        # one (base, lines, is_inst) per stream through the delayed queue
        self.delayed_queue_log: list[tuple[int, int, bool]] = []
        self.link_log: list[dict] = []      # one per transfer (`log_link`)
        self.reports: list[StreamReport] = []

    # -- registration and stores ------------------------------------------------

    def register_tensor(self, tensor_id: int, base: int, n_lines: int) -> TensorRecord:
        rec = TensorRecord(tensor_id, base, n_lines)
        self.records[tensor_id] = rec
        return rec

    def install_transferred(self, tensor_id: int, base: int, n_lines: int,
                            vn: int, mac: int, cts, codes) -> TensorRecord:
        """Accept ciphertext moved verbatim from the peer enclave: the n_lines
        lines' bytes `cts` and binding `codes`, with no block tags.
        Verification is lazy (first use runs the delayed dataflow)."""
        rec = self.records.get(tensor_id) or self.register_tensor(tensor_id, base, 0)
        rec.base, rec.n_lines = base, n_lines
        rec.ct, rec.codes = bytearray(cts), array("Q", codes)
        rec.stored, rec.taint = bytearray(b"\x01") * n_lines, bytearray(n_lines)
        rec.vn, rec.stored_mac, rec.block_tags = vn, mac, []
        rec.poison = 1            # unverified until first-use stream passes
        rec.failed = rec.tainted = False
        return rec

    def store_tensor_stream(self, record: TensorRecord,
                            plain_lines: Sequence, *, at_tick: Optional[int] = None,
                            tainted: bool = False) -> StreamReport:
        """Write back one tensor: VN+1 once, every line encrypted under the
        tensor-logical binding at the new VN, stored MAC = XOR of line MACs,
        and block MACs resealed at the device's MAC granularity. A line
        `as_line` rejects, or more lines than the record holds, raises
        before any change."""
        eng = self.engine
        t0 = eng.now if at_tick is None else at_tick
        n = len(plain_lines)
        raw = b"".join(map(as_line, plain_lines))
        if n > record.n_lines:
            raise ValueError(f"a store writes at most the record's {record.n_lines} lines")
        vn = record.vn = (record.vn + 1) & MASK56
        record.ct[:n * LINE_BYTES] = raw
        record.codes[:n] = tensor_line_codes(record.tensor_id, n)
        tags = seal_into(self.key, record.ct, range(n), record.codes, vn)
        record.stored[:n], record.taint[:n] = b"\x01" * n, bytes([tainted]) * n
        done = t0
        for _ in range(n):
            _, aes_done = eng.reserve("npu_aes", LINE_BYTES, at_tick=t0)
            _, wr_done = eng.reserve("npu_gddr", LINE_BYTES, at_tick=aes_done)
            _, mac_done = eng.reserve("npu_mac", LINE_BYTES, at_tick=aes_done)
            done = max(done, wr_done, mac_done)
        record.stored_mac = reduce(xor, tags, 0)
        record.block_tags = _fold_blocks(tags, self.mac_granularity)
        record.tainted = tainted
        record.poison = 0          # freshly produced on-chip data is verified
        record.failed = False
        rep = StreamReport(record.tensor_id, "store", n,
                           start_tick=t0, done_tick=done)
        self.reports.append(rep)
        return rep

    def export_lines(self, record: TensorRecord, n: Optional[int] = None):
        """The binding codes and the ciphertext of the record's first n lines
        (all by default), with no cost accounting. A line never stored, or
        discarded, is first stored as zeros sealed at the record's VN."""
        n = record.n_lines if n is None else n
        if record.stored.find(0, 0, n) >= 0:
            missing = [i for i in range(n) if not record.stored[i]]
            want = tensor_line_codes(record.tensor_id, n)
            for i in missing:
                record.ct[i * LINE_BYTES:(i + 1) * LINE_BYTES] = bytes(LINE_BYTES)
                record.codes[i], record.stored[i] = want[i], 1
            seal_into(self.key, record.ct, missing, record.codes, record.vn)
        return record.codes[:n], memoryview(record.ct)[:n * LINE_BYTES]

    def log_link(self, record: TensorRecord, n: int, protocol: str) -> None:
        """Log a transfer of the record's first n lines: how many are tainted."""
        self.link_log.append({"tensor_id": record.tensor_id, "lines": n,
                              "tainted": record.taint.count(1, 0, n),
                              "protocol": protocol})

    def tamper_line(self, addr: int, bit: int = 0) -> None:
        """Adversary: flip bit `bit` of the GDDR line at `addr`, in the store
        of the last registered record that holds it, and taint the line."""
        for rec in reversed(self.records.values()):
            i, off = divmod(addr - rec.base, LINE_BYTES)
            if 0 <= i < rec.n_lines and not off:
                break
        else:
            raise KeyError(f"no tensor line at {addr:#x}")
        self.export_lines(rec)
        bit %= LINE_BYTES * 8
        rec.ct[i * LINE_BYTES + bit // 8] ^= 1 << (bit % 8)
        rec.taint[i] = 1

    # -- loads -------------------------------------------------------------------

    def load_tensor_stream(self, record: TensorRecord, mode: str, *,
                           at_tick: Optional[int] = None):
        """Stream one tensor to compute under verify mode `mode`, "delayed"
        or "blocking" (at the device's MAC granularity). Returns
        (plain_lines, StreamReport). DelayedTensor: per-line release, tensor
        MAC compared at stream end; mismatch discards the tensor, emits a
        re-transfer request and raises IntegrityFault (HaltError past the
        fault-counter threshold)."""
        if mode == "delayed":
            return self._load_delayed(record, at_tick)
        if mode == "blocking":
            return self._load_blocking(record, at_tick)
        raise ValueError(f"mode must be 'delayed' or 'blocking', got {mode!r}")

    def _load_delayed(self, record: TensorRecord, at_tick):
        eng = self.engine
        t0 = eng.now if at_tick is None else at_tick
        record.poison = 1
        n = record.n_lines
        # every line's tag and plaintext under the tensor's VN, in one batch
        tags, plains = open_lines(self.key, *self.export_lines(record), record.vn)
        self.delayed_queue_log.append((record.base, n, False))
        compute_done = t0
        mac_done = t0
        for _ in range(n):
            _, fetch_done = eng.reserve("npu_gddr", LINE_BYTES, at_tick=t0)
            _, aes_done = eng.reserve("npu_aes", LINE_BYTES, at_tick=fetch_done)
            # line released to compute immediately; MAC regeneration parallels it
            start = max(aes_done, compute_done)
            _, compute_done = eng.reserve("npu_compute", LINE_BYTES, at_tick=start)
            _, mac_done = eng.reserve("npu_mac", LINE_BYTES, at_tick=aes_done)
        verify_done = mac_done  # final compare is a few cycles, folded in
        done = max(compute_done, verify_done)
        rep = StreamReport(record.tensor_id, "delayed", n,
                           start_tick=t0, done_tick=done,
                           compute_done_tick=compute_done,
                           verify_done_tick=verify_done,
                           verify_cycles=n)
        record.verify_done_tick = verify_done
        self.reports.append(rep)
        if reduce(xor, tags, 0) == record.stored_mac:
            record.poison = 0
            record.failed = False
            record.tainted = record.tainted or 1 in record.taint
            return plains, rep
        rep.faults = 1
        record.failed = True       # and the poison stays set
        record.stored, record.taint = bytearray(n), bytearray(n)   # discarded
        self.retransfer_requests.append(record.tensor_id)
        self.faults.record_failure()
        raise IntegrityFault("tensor_mac", f"tensor {record.tensor_id}")

    def _load_blocking(self, record: TensorRecord, at_tick):
        eng = self.engine
        t0 = eng.now if at_tick is None else at_tick
        granularity = self.mac_granularity
        lines_per_block = granularity // LINE_BYTES
        compute_done = t0
        stall = 0
        n = record.n_lines
        tags, plains = open_lines(self.key, *self.export_lines(record), record.vn)
        for b0 in range(0, n, lines_per_block):
            blk_lines = range(b0, min(b0 + lines_per_block, n))
            first_line_ready = None
            for i in blk_lines:
                _, fetch_done = eng.reserve("npu_gddr", LINE_BYTES, at_tick=t0)
                _, aes_done = eng.reserve("npu_aes", LINE_BYTES, at_tick=fetch_done)
                _, mac_done = eng.reserve("npu_mac", LINE_BYTES, at_tick=aes_done)
                if first_line_ready is None:
                    first_line_ready = aes_done
            verify_done = mac_done  # block compare folds into the last line tag
            self.verify_blocks(record, tags[b0:b0 + lines_per_block], b0 // lines_per_block)
            # compute on any line of the block stalls until the whole block is
            # fetched and its MAC verified: the bubble is the wait past the
            # point the first line was already decrypted and compute was free
            stall += max(0, verify_done - max(compute_done, first_line_ready))
            for i in blk_lines:
                start = max(verify_done, compute_done)
                _, compute_done = eng.reserve("npu_compute", LINE_BYTES,
                                              at_tick=start)
        rep = StreamReport(record.tensor_id, f"blocking{granularity}", n,
                           start_tick=t0, done_tick=compute_done,
                           compute_done_tick=compute_done,
                           verify_done_tick=compute_done,
                           stall_ticks=stall)
        record.verify_done_tick = compute_done
        record.poison = 0
        self.reports.append(rep)
        return plains, rep

    def verify_blocks(self, record: TensorRecord, tags: Sequence[int], first: int = 0) -> None:
        """Fail closed, as `record` failed, unless each block of the line
        `tags`, from block `first` on, XORs to the record's tag for it; a
        block with no tag cannot verify. No cost accounting."""
        sealed = record.block_tags
        for k, acc in enumerate(_fold_blocks(tags, self.mac_granularity), first):
            if k >= len(sealed) or sealed[k] != acc:
                record.failed = True
                self.faults.record_failure()
                raise IntegrityFault(
                    "mac_mismatch", f"tensor {record.tensor_id} block {k}"
                    + ("" if k < len(sealed) else
                       f": no block MAC sealed at {self.mac_granularity} B"))

    def mac_storage_bytes(self, mode: str) -> int:
        """Off-chip MAC footprint under verify mode `mode`: 7 B per tensor
        ("delayed") versus 7 B per `mac_granularity`-byte block
        ("blocking")."""
        if mode == "delayed":
            return MAC_TAG_BYTES * len(self.records)
        if mode != "blocking":
            raise ValueError(f"mode must be 'delayed' or 'blocking', got {mode!r}")
        g = self.mac_granularity
        return sum(MAC_TAG_BYTES * -(-rec.n_lines * LINE_BYTES // g)
                   for rec in self.records.values())

    # -- poison tracing and barriers ----------------------------------------------

    def propagate_poison(self, inputs: Sequence[TensorRecord],
                         output: TensorRecord) -> None:
        """Output's visible poison becomes the OR of its inputs' poison: the
        dependency edges stay live, so once every pending input verification
        passes, effective_poison recomputes to clear."""
        output.deps = tuple(inputs)
        output.tainted = output.tainted or any(r.tainted for r in inputs)

    @staticmethod
    def _closure(record: TensorRecord) -> list[TensorRecord]:
        """`record` and every record its `deps` reach, transitively: one per
        tensor id, the first a depth-first walk meets."""
        seen, out, stack = set(), [], [record]
        while stack:
            rec = stack.pop()
            if rec.tensor_id not in seen:
                seen.add(rec.tensor_id)
                out.append(rec)
                stack += reversed(rec.deps)
        return out

    def effective_poison(self, record: TensorRecord) -> int:
        """1 if the record or anything it depends on is still poisoned."""
        return int(any(r.poison for r in self._closure(record)))

    def verification_barrier(self, tensor_ids: Sequence[int]) -> int:
        """Block until every listed tensor's (transitive) poison clears;
        returns the tick at which the barrier opens. A failed verification
        surfaces IntegrityFault and the communication never happens."""
        ready = self.engine.now
        for tid in tensor_ids:
            rec = self.records[tid]
            closure = self._closure(rec)
            if any(r.failed for r in closure):
                raise IntegrityFault("tensor_mac",
                                     f"barrier: tensor {tid} failed verification")
            if any(r.poison for r in closure):
                raise IntegrityFault(
                    "tensor_mac",
                    f"barrier: tensor {tid} still unverified (poison set)")
            ready = max(ready, rec.verify_done_tick)
        return ready

    # -- code path -------------------------------------------------------------------

    def install_code_line(self, pa: int, plain: bytes | int) -> None:
        blk = encrypt_block(plain, CounterBinding(BindingMode.PHYSICAL_ADDR, pa),
                            1, self.key)
        self.code[pa] = (blk, mac_block(blk, self.key))

    def tamper_code_line(self, pa: int, bit: int = 0) -> None:
        blk, tag = self.code[pa]
        bit %= LINE_BYTES * 8
        blk.data ^= 1 << bit

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
