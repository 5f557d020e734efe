"""Inter-enclave data movement: the attestation/key-exchange handshake, the
relay baseline (decrypt, session re-encrypt through non-secure staging, DMA,
session decrypt, enclave re-encrypt: four AES passes over the payload), and
the direct protocol (tensor VN/MAC/address over a trusted encrypted channel
while the ciphertext moves verbatim device-to-device, zero payload AES).

Every stage reserves engine resources, so AES/DRAM contention with compute
emerges from the ledger rather than being scripted: with one NPU AES engine,
relay transfers serialize behind a compute stream; the direct protocol only
touches the link and the trusted channel.
"""

from __future__ import annotations

import struct
from array import array
from dataclasses import dataclass
from typing import Optional, Sequence

from .baseline import ProtectedMemory
from .crypto import (
    LINE_BYTES, MASK56, BindingMode, CipherBlock, CounterBinding,
    IntegrityFault, KeyMaterial, decrypt_block, encrypt_block, mac_block, mix64,
    mac_xor_aggregate, open_lines, seal_into, tensor_line_codes,
)
from .engine import Engine
from .nputee import NpuDevice
from .tenanalyzer import TenAnalyzer

_DH_P = (1 << 61) - 1   # Mersenne prime M61
_DH_G = 3

_MSG_STRUCT = struct.Struct("<IQIIQQ")   # tensor_id, base, n_lines, stride, vn, mac
MSG_WIRE_BYTES = LINE_BYTES + 8          # one padded block + 56-bit tag
CHANNEL_TENSOR_ID = 0xFFFF_FFFF
SYNC_TICKS = 8                           # completion join of the two channels

UNATTESTED = "unattested"
ATTESTED = "attested"
KEY_ESTABLISHED = "key_established"


class AttestationFailure(Exception):
    """Report mismatch during mutual attestation."""


class ProtocolError(Exception):
    """Transfer attempted outside the allowed session phase or contract."""


@dataclass
class Enclave:
    enclave_id: int
    key: KeyMaterial
    code_digest: int
    data_digest: int
    dh_priv: int

    @classmethod
    def create(cls, enclave_id: int, seed: int, code: bytes, data: bytes) -> "Enclave":
        code_d = _digest(code)
        data_d = _digest(data)
        return cls(enclave_id, KeyMaterial.from_seed(seed), code_d, data_d,
                   dh_priv=mix64(seed ^ 0xD1FF1E) % (_DH_P - 2) + 1)

    def report(self) -> int:
        return mix64(mix64(self.code_digest) ^ self.data_digest ^ self.enclave_id)


def _digest(blob: bytes) -> int:
    acc = 0x1234
    for i in range(0, len(blob), 8):
        acc = mix64(acc ^ int.from_bytes(blob[i:i + 8], "little"))
    return acc


@dataclass
class SessionState:
    phase: str = UNATTESTED
    shared_key: Optional[KeyMaterial] = None
    cpu_report: int = 0
    npu_report: int = 0
    tx_seq: int = 0
    rx_seq: int = 0

    def require_established(self) -> None:
        if self.phase != KEY_ESTABLISHED:
            raise ProtocolError(f"data transfer requires key establishment "
                                f"(phase={self.phase})")


def attest_and_exchange(cpu: Enclave, npu: Enclave,
                        expected_reports: dict[int, int]) -> SessionState:
    """Mutual report check, then an abstract DH exchange: both sides derive
    the same session key; only public values would ever touch a channel."""
    s = SessionState()
    s.cpu_report = cpu.report()
    s.npu_report = npu.report()
    if expected_reports.get(cpu.enclave_id) != s.cpu_report:
        raise AttestationFailure(f"cpu enclave {cpu.enclave_id} report mismatch")
    if expected_reports.get(npu.enclave_id) != s.npu_report:
        raise AttestationFailure(f"npu enclave {npu.enclave_id} report mismatch")
    s.phase = ATTESTED
    cpu_pub = pow(_DH_G, cpu.dh_priv, _DH_P)
    npu_pub = pow(_DH_G, npu.dh_priv, _DH_P)
    shared_cpu = pow(npu_pub, cpu.dh_priv, _DH_P)
    shared_npu = pow(cpu_pub, npu.dh_priv, _DH_P)
    assert shared_cpu == shared_npu
    s.shared_key = KeyMaterial.from_seed(mix64(shared_cpu))
    s.phase = KEY_ESTABLISHED
    return s


# -- trusted-channel wire format ----------------------------------------------

@dataclass
class MetadataMessage:
    tensor_id: int
    base: int
    n_lines: int
    stride: int
    vn: int
    mac: int


def encode_metadata(msg: MetadataMessage, session: SessionState) -> bytes:
    """Fixed little-endian layout, padded to one block, encrypted and tagged
    under the session key with a per-message channel counter."""
    session.require_established()
    raw = _MSG_STRUCT.pack(msg.tensor_id, msg.base, msg.n_lines, msg.stride,
                           msg.vn & MASK56, msg.mac & MASK56)
    padded = raw.ljust(LINE_BYTES, b"\x00")
    seq = session.tx_seq
    session.tx_seq += 1
    binding = CounterBinding(BindingMode.TENSOR_LOGICAL, CHANNEL_TENSOR_ID,
                             seq * LINE_BYTES)
    blk = encrypt_block(padded, binding, seq, session.shared_key)
    tag = mac_block(blk, session.shared_key)
    return blk.to_bytes() + tag.to_bytes(8, "little")


def decode_metadata(wire: bytes, session: SessionState) -> MetadataMessage:
    session.require_established()
    if len(wire) != MSG_WIRE_BYTES:
        raise IntegrityFault("channel_tamper", "bad message length")
    seq = session.rx_seq
    binding = CounterBinding(BindingMode.TENSOR_LOGICAL, CHANNEL_TENSOR_ID,
                             seq * LINE_BYTES)
    blk = CipherBlock(int.from_bytes(wire[:LINE_BYTES], "little"), binding, seq)
    tag = int.from_bytes(wire[LINE_BYTES:], "little")
    if mac_block(blk, session.shared_key) != tag:
        raise IntegrityFault("channel_tamper", f"message {seq} tag mismatch")
    session.rx_seq += 1
    plain = decrypt_block(blk, session.shared_key)
    tid, base, n_lines, stride, vn, mac = _MSG_STRUCT.unpack(plain[:_MSG_STRUCT.size])
    if any(plain[_MSG_STRUCT.size:]):
        raise IntegrityFault("channel_tamper", "nonzero padding")
    return MetadataMessage(tid, base, n_lines, stride, vn, mac)


# -- transfer reports -----------------------------------------------------------

@dataclass
class TransferReport:
    protocol: str
    tensor_id: int
    bytes_link: int = 0
    bytes_aes: int = 0          # payload AES work only
    cycles_total: int = 0
    cycles_overlapped: int = 0
    faults: int = 0
    start_tick: int = 0
    done_tick: int = 0

    def csv_row(self) -> str:
        return (f"{self.protocol},{self.bytes_link},{self.bytes_aes},"
                f"{self.cycles_total},{self.cycles_overlapped},{self.faults}")

    @staticmethod
    def csv_header() -> str:
        return "protocol,bytes_link,bytes_aes,cycles_total,cycles_overlapped,faults"


def _count_fault(rep: TransferReport, fault: IntegrityFault) -> IntegrityFault:
    """Count `fault` in `rep` and attach `rep` to it as `fault.report`, so
    that whoever catches the fault sees the failed transfer's report."""
    rep.faults += 1
    fault.report = rep
    return fault


def _overlap_with_compute(engine: Engine, start: int, done: int) -> int:
    busy = engine.resources["npu_compute"].busy_until
    return max(0, min(done, busy) - start)


def _cpu_channels(engine: Engine) -> int:
    n = 0
    while f"cpu_dram{n}" in engine.resources:
        n += 1
    return max(1, n)


# -- relay baseline ---------------------------------------------------------------

class StagingRegion:
    """Non-secure relay memory: session-encrypted lines (`ct`), their binding
    codes and their session MACs."""

    def __init__(self):
        self.ct = bytearray()
        self.codes = array("Q")
        self.macs: list[int] = []

    def tamper(self, index: int, bit: int = 0) -> None:
        bit %= LINE_BYTES * 8
        self.ct[index * LINE_BYTES + bit // 8] ^= 1 << (bit % 8)


def baseline_transfer(session: SessionState, engine: Engine, *,
                      tensor_id: int, direction: str,
                      cpu_mem: ProtectedMemory, npu: NpuDevice,
                      cpu_base: int, n_lines: int,
                      staging: Optional[StagingRegion] = None,
                      at_tick: Optional[int] = None) -> TransferReport:
    """Relay protocol: sender enclave-decrypt, session re-encrypt into
    non-secure staging, link DMA, receiver session-decrypt + enclave
    re-encrypt. Four AES passes over the payload, all through the shared
    engines. An NPU sender first checks its whole record's block tags
    (`NpuDevice.verify_blocks`, not charged) before anything else."""
    session.require_established()
    t0 = engine.now if at_tick is None else at_tick
    rep = TransferReport("baseline", tensor_id, start_tick=t0, done_tick=t0)
    if n_lines == 0:
        return rep
    skey = session.shared_key
    staging = staging if staging is not None else StagingRegion()
    nch = _cpu_channels(engine)
    size = n_lines * LINE_BYTES

    if direction == "cpu_to_npu":
        # the sender reads the whole tensor in one run; after a fault the
        # run aborts, so its engine reservations need not precede the reads
        pas = [cpu_base + i * LINE_BYTES for i in range(n_lines)]
        plains = cpu_mem.read_lines(pas)
        stage_done = t0
        for pa in pas:
            ch = (pa // LINE_BYTES) % nch
            _, rd = engine.reserve(f"cpu_dram{ch}", LINE_BYTES, at_tick=t0)
            _, dec = engine.reserve(f"cpu_aes{ch}", LINE_BYTES, at_tick=rd)
            _, enc = engine.reserve(f"cpu_aes{ch}", LINE_BYTES, at_tick=dec)
            _, wr = engine.reserve(f"cpu_dram{ch}", LINE_BYTES, at_tick=enc)
            stage_done = max(stage_done, wr)
        _seal_staging(staging, plains, tensor_id, session)
        rep.bytes_aes += 2 * size
        _, link_done = engine.reserve("link", size, at_tick=stage_done)
        rep.bytes_link += size
        # receiver: session-decrypt then enclave re-encrypt into GDDR
        _, sdec = engine.reserve("npu_aes", size, at_tick=link_done)
        plains_rx = _open_staging(staging, tensor_id, session, rep)
        rec = npu.records.get(tensor_id) or npu.register_tensor(
            tensor_id, 0x4000_0000 + tensor_id * 0x100_0000, n_lines)
        srep = npu.store_tensor_stream(rec, plains_rx, at_tick=sdec)
        rep.bytes_aes += 2 * size
        rep.done_tick = srep.done_tick
    elif direction == "npu_to_cpu":
        rec = npu.records[tensor_id]
        tags, plains = open_lines(npu.key, *npu.export_lines(rec), rec.vn)
        try:
            npu.verify_blocks(rec, tags)
        except IntegrityFault as fault:
            _count_fault(rep, fault)
            raise
        plains = plains[:n_lines]
        npu.log_link(rec, n_lines, "baseline")
        stage_done = t0
        for _ in range(n_lines):
            _, rd = engine.reserve("npu_gddr", LINE_BYTES, at_tick=t0)
            _, dec = engine.reserve("npu_aes", LINE_BYTES, at_tick=rd)
            _, enc = engine.reserve("npu_aes", LINE_BYTES, at_tick=dec)
            _, wr = engine.reserve("npu_gddr", LINE_BYTES, at_tick=enc)
            stage_done = max(stage_done, wr)
        _seal_staging(staging, plains, tensor_id, session)
        rep.bytes_aes += 2 * size
        _, link_done = engine.reserve("link", size, at_tick=stage_done)
        rep.bytes_link += size
        plains_rx = _open_staging(staging, tensor_id, session, rep)
        # the receiver installs the whole tensor in one run; after a fault
        # the run aborts, so its engine reservations need not follow the
        # writes
        pas = [cpu_base + i * LINE_BYTES for i in range(n_lines)]
        done = link_done
        for pa in pas:
            ch = (pa // LINE_BYTES) % nch
            _, sdec = engine.reserve(f"cpu_aes{ch}", LINE_BYTES, at_tick=link_done)
            _, eenc = engine.reserve(f"cpu_aes{ch}", LINE_BYTES, at_tick=sdec)
            _, wr = engine.reserve(f"cpu_dram{ch}", LINE_BYTES, at_tick=eenc)
            done = max(done, wr)
        cpu_mem.write_lines(pas, plains_rx)
        rep.bytes_aes += 2 * size
        rep.done_tick = done
    else:
        raise ProtocolError(f"unknown direction {direction!r}")

    rep.cycles_total = rep.done_tick - rep.start_tick
    rep.cycles_overlapped = _overlap_with_compute(engine, rep.start_tick,
                                                  rep.done_tick)
    return rep


def _seal_staging(staging: StagingRegion, plains: Sequence, tensor_id: int,
                  session: SessionState) -> None:
    """Session-encrypt and MAC the whole tensor into the staging region."""
    n = len(plains)
    staging.ct = bytearray(b"".join(plains))
    staging.codes = tensor_line_codes(tensor_id, n)
    staging.macs = seal_into(session.shared_key, staging.ct, range(n),
                             staging.codes, 0)


def _open_staging(staging: StagingRegion, tensor_id: int,
                  session: SessionState, rep: TransferReport):
    """Check every staged line's session MAC, then decrypt the tensor."""
    tags, plains = open_lines(session.shared_key, staging.codes, staging.ct, 0)
    for i, (tag, stored) in enumerate(zip(tags, staging.macs)):
        if tag != stored:
            raise _count_fault(rep, IntegrityFault(
                "staging_tamper", f"tensor {tensor_id} staged line {i}"))
    return plains


# -- direct protocol ---------------------------------------------------------------

def direct_transfer(session: SessionState, engine: Engine, *,
                    tensor_id: int, direction: str,
                    analyzer: Optional[TenAnalyzer], npu: NpuDevice,
                    cpu_base: int, at_tick: Optional[int] = None) -> TransferReport:
    """Unified-granularity protocol: the tensor's VN/MAC/address go over the
    trusted channel while ciphertext lines move verbatim on the direct
    channel; the two run in parallel and join at completion. No payload AES
    anywhere; receiver-side verification is lazy on the NPU (first-use
    delayed dataflow) and eager on the CPU (aggregate check before the
    structure hint installs)."""
    session.require_established()
    if analyzer is None:
        raise ProtocolError("direct transfer needs the Meta Table")
    t0 = engine.now if at_tick is None else at_tick

    if direction == "cpu_to_npu":
        e = analyzer.entry_at(cpu_base)
        if e is None or e.tensor_id != tensor_id or e.base != cpu_base:
            raise ProtocolError(f"no Meta Table entry for tensor {tensor_id} "
                                f"at {cpu_base:#x}")
        if e.uf:
            raise ProtocolError("tensor is mid-update")
        n = e.line_count
        rep = TransferReport("direct", tensor_id, start_tick=t0, done_tick=t0)
        if n == 0:
            return rep
        vas = sorted(e.addresses())
        codes, cts = analyzer.mem.export_lines(vas)
        want = tensor_line_codes(tensor_id, n)
        if codes != want:
            va = next(va for va, c, w in zip(vas, codes, want) if c != w)
            raise ProtocolError(f"line {va:#x} is not bound to tensor {tensor_id}; "
                                f"direct transfer needs tensor-logical ciphertext")
        msg = MetadataMessage(tensor_id, 0x4000_0000 + tensor_id * 0x100_0000, n,
                              e.stride, e.vn, e.mac)
        wire = encode_metadata(msg, session)
        _, chan_done = engine.reserve("trusted_channel", MSG_WIRE_BYTES, at_tick=t0)
        _, link_done = engine.reserve("link", n * LINE_BYTES, at_tick=t0)
        rx = decode_metadata(wire, session)
        npu.install_transferred(rx.tensor_id, rx.base, rx.n_lines, rx.vn,
                                rx.mac, cts, codes)
        rep.bytes_link = n * LINE_BYTES + MSG_WIRE_BYTES
        rep.done_tick = max(chan_done, link_done) + SYNC_TICKS
    elif direction == "npu_to_cpu":
        rec = npu.records[tensor_id]
        n = rec.n_lines
        rep = TransferReport("direct", tensor_id, start_tick=t0, done_tick=t0)
        if n == 0:
            return rep
        # the barrier must have opened: tampered/pending tensors never leave
        barrier_tick = npu.verification_barrier([tensor_id])
        tstart = max(t0, barrier_tick)
        msg = MetadataMessage(tensor_id, cpu_base, n, LINE_BYTES, rec.vn,
                              rec.stored_mac)
        wire = encode_metadata(msg, session)
        _, chan_done = engine.reserve("trusted_channel", MSG_WIRE_BYTES,
                                      at_tick=tstart)
        _, link_done = engine.reserve("link", n * LINE_BYTES, at_tick=tstart)
        codes, cts = npu.export_lines(rec, n)
        npu.log_link(rec, n, "direct")
        rx = decode_metadata(wire, session)
        arrived = max(chan_done, link_done) + SYNC_TICKS
        done = _install_on_cpu(rx, codes, cts, analyzer, engine, arrived, rep,
                               pipeline_from=tstart)
        rep.bytes_link = n * LINE_BYTES + MSG_WIRE_BYTES
        rep.done_tick = done
    else:
        raise ProtocolError(f"unknown direction {direction!r}")

    rep.cycles_total = rep.done_tick - rep.start_tick
    rep.cycles_overlapped = _overlap_with_compute(engine, rep.start_tick,
                                                  rep.done_tick)
    return rep


def _install_on_cpu(msg: MetadataMessage, codes, cts, analyzer: TenAnalyzer,
                    engine: Engine, at: int, rep: TransferReport,
                    pipeline_from: int) -> int:
    """Eager aggregate-MAC verification, pipelined behind the link DMA from
    tick `pipeline_from`, of the lines with binding `codes` and ciphertext
    `cts` that arrive at tick `at`, then verbatim ciphertext install and the
    Meta Table structure hint."""
    mem = analyzer.mem
    size = msg.n_lines * LINE_BYTES
    _, mac_end = engine.reserve("cpu_mac", size, at_tick=pipeline_from)
    verify_done = max(at, mac_end)
    tags, _ = open_lines(mem.key, codes, cts, msg.vn, decrypt=False)
    if mac_xor_aggregate(tags) != msg.mac:
        raise _count_fault(rep, IntegrityFault(
            "tensor_mac", f"direct transfer tensor {msg.tensor_id}"))
    mem.install_lines(msg.base, codes, cts, tags, msg.vn)
    nch = _cpu_channels(engine)
    done = verify_done
    for i in range(msg.n_lines):
        pa = msg.base + i * LINE_BYTES
        ch = (pa // LINE_BYTES) % nch
        # the DMA drain runs in parallel with the aggregate verification
        _, wr = engine.reserve(f"cpu_dram{ch}", LINE_BYTES, at_tick=at)
        done = max(done, wr)
    analyzer.install_hint(msg.base, msg.n_lines, vn=msg.vn, mac=msg.mac,
                          tensor_id=msg.tensor_id)
    return done
