"""Transfer-protocol tests: attestation state machine, relay vs direct
accounting, wire-format round trips, contention serialization, secrecy and
barrier coupling."""

import random

import pytest

from teesim.baseline import ProtectedMemory
from teesim.config import SimConfig, build_engine
from teesim.crypto import IntegrityFault, LINE_BYTES
from teesim.nputee import NpuDevice
from teesim.tenanalyzer import TenAnalyzer
from teesim.transfer import (
    MSG_WIRE_BYTES, AttestationFailure, Enclave, MetadataMessage,
    ProtocolError, SessionState, StagingRegion, attest_and_exchange,
    baseline_transfer, decode_metadata, direct_transfer, encode_metadata,
)

CPU_BASE = 0x100000


def handshake():
    cpu = Enclave.create(1, seed=0xAAA, code=b"cpu code", data=b"cpu data")
    npu = Enclave.create(2, seed=0xBBB, code=b"npu code", data=b"npu data")
    expected = {1: cpu.report(), 2: npu.report()}
    return cpu, npu, expected


def rig(n_lines=4096):
    cpu, npu_enc, expected = handshake()
    session = attest_and_exchange(cpu, npu_enc, expected)
    eng = build_engine(SimConfig())
    # unified mode: both sides hold the session key
    mem = ProtectedMemory(CPU_BASE, n_lines, session.shared_key)
    ta = TenAnalyzer(mem)
    dev = NpuDevice(session.shared_key, eng)
    return session, eng, mem, ta, dev


def lines(n, seed=0):
    rng = random.Random(seed)
    return [rng.randbytes(LINE_BYTES) for _ in range(n)]


# -- attestation -----------------------------------------------------------------

def test_honest_handshake_reaches_key_established():
    cpu, npu, expected = handshake()
    s = attest_and_exchange(cpu, npu, expected)
    assert s.phase == "key_established"
    assert s.shared_key is not None


def test_tampered_npu_code_digest_fails_attestation():
    cpu, npu, expected = handshake()
    npu.code_digest ^= 0x1
    with pytest.raises(AttestationFailure):
        attest_and_exchange(cpu, npu, expected)


def test_transfer_rejected_before_key_exchange():
    s = SessionState(phase="attested")
    with pytest.raises(ProtocolError):
        encode_metadata(MetadataMessage(1, 0, 1, 64, 0, 0), s)


# -- wire format ------------------------------------------------------------------

def test_metadata_roundtrip():
    session, *_ = rig(64)
    msg = MetadataMessage(7, 0xABC000, 512, 64, 1234, 0xFEDCBA)
    out = decode_metadata(encode_metadata(msg, session), session)
    assert out == msg


def test_metadata_max_field_values_roundtrip():
    session, *_ = rig(64)
    msg = MetadataMessage((1 << 32) - 1, (1 << 64) - 1, (1 << 32) - 1,
                          (1 << 32) - 1, (1 << 56) - 1, (1 << 56) - 1)
    out = decode_metadata(encode_metadata(msg, session), session)
    assert out == msg


def test_metadata_flipped_byte_is_channel_tamper():
    session, *_ = rig(64)
    wire = bytearray(encode_metadata(MetadataMessage(1, 0, 4, 64, 9, 9), session))
    wire[10] ^= 0xFF
    with pytest.raises(IntegrityFault) as ei:
        decode_metadata(bytes(wire), session)
    assert ei.value.kind == "channel_tamper"


# -- baseline relay ----------------------------------------------------------------

def test_baseline_aes_bytes_four_times_payload():
    session, eng, mem, ta, dev = rig()
    n = 256  # 16 KiB
    for i in range(n):
        mem.write_line(CPU_BASE + i * LINE_BYTES, bytes([i & 0xFF]) * LINE_BYTES)
    rep = baseline_transfer(session, eng, tensor_id=1, direction="cpu_to_npu",
                            cpu_mem=mem, npu=dev, cpu_base=CPU_BASE, n_lines=n)
    assert rep.bytes_aes == 4 * n * LINE_BYTES
    assert rep.bytes_link == n * LINE_BYTES
    # payload arrived intact under the NPU enclave key
    rec = dev.records[1]
    plains, _ = dev.load_tensor_stream(rec, "delayed")
    assert plains[5] == bytes([5]) * LINE_BYTES


def test_baseline_zero_length_noop():
    session, eng, mem, ta, dev = rig()
    rep = baseline_transfer(session, eng, tensor_id=1, direction="cpu_to_npu",
                            cpu_mem=mem, npu=dev, cpu_base=CPU_BASE, n_lines=0)
    assert rep.cycles_total == 0 and rep.bytes_aes == 0


def test_baseline_staging_tamper_detected():
    from teesim.transfer import _open_staging, TransferReport
    # a bit index past the line wraps into it, as `tamper_line`'s does
    for line, bit in ((3, 11), (7, 515), (7, 600)):
        session, eng, mem, ta, dev = rig()
        n = 8
        for i in range(n):
            mem.write_line(CPU_BASE + i * LINE_BYTES, lines(1, i)[0])
        staging = StagingRegion()
        # run once to fill the relay region, then re-open with a flipped bit
        rep = baseline_transfer(session, eng, tensor_id=1, direction="cpu_to_npu",
                                cpu_mem=mem, npu=dev, cpu_base=CPU_BASE,
                                n_lines=n, staging=staging)
        assert rep.faults == 0
        staging.tamper(line, bit=bit)
        with pytest.raises(IntegrityFault) as ei:
            _open_staging(staging, 1, session, TransferReport("baseline", 1))
        assert ei.value.kind == "staging_tamper"


def test_a_failed_transfer_keeps_its_report(monkeypatch):
    # staging tampered between the sender's seal and the receiver's open
    import teesim.transfer as transfer
    seal = transfer._seal_staging

    def seal_then_tamper(staging, *args):
        seal(staging, *args)
        staging.tamper(3, bit=11)

    monkeypatch.setattr(transfer, "_seal_staging", seal_then_tamper)
    session, eng, mem, ta, dev = rig()
    n = 8
    mem.write_lines([CPU_BASE + i * LINE_BYTES for i in range(n)], lines(n))
    with pytest.raises(IntegrityFault) as ei:
        baseline_transfer(session, eng, tensor_id=1, direction="cpu_to_npu",
                          cpu_mem=mem, npu=dev, cpu_base=CPU_BASE, n_lines=n)
    rep = ei.value.report
    assert ei.value.kind == "staging_tamper"
    assert (rep.protocol, rep.tensor_id, rep.faults) == ("baseline", 1, 1)


def test_a_failed_direct_install_keeps_its_report():
    # ciphertext changed in GDDR after the record was verified
    session, eng, mem, ta, dev = rig()
    n = 16
    rec = dev.register_tensor(6, 0x50000000, n)
    dev.store_tensor_stream(rec, lines(n, 9))
    dev.load_tensor_stream(rec, "delayed")
    eng.advance(rec.verify_done_tick)
    rec.ct[5 * LINE_BYTES] ^= 1
    with pytest.raises(IntegrityFault) as ei:
        direct_transfer(session, eng, tensor_id=6, direction="npu_to_cpu",
                        analyzer=ta, npu=dev, cpu_base=CPU_BASE + 0x20000)
    rep = ei.value.report
    assert ei.value.kind == "tensor_mac"
    assert (rep.protocol, rep.tensor_id, rep.faults) == ("direct", 6, 1)


def test_baseline_serializes_behind_compute_on_npu_aes():
    session, eng, mem, ta, dev = rig()
    n = 64
    rec = dev.register_tensor(9, 0x50000000, 1024)
    dev.store_tensor_stream(rec, lines(1024, 1))   # keeps npu_aes busy
    aes_busy = eng.resources["npu_aes"].busy_until
    for i in range(n):
        mem.write_line(CPU_BASE + i * LINE_BYTES, lines(1, i)[0])
    rep = baseline_transfer(session, eng, tensor_id=1, direction="cpu_to_npu",
                            cpu_mem=mem, npu=dev, cpu_base=CPU_BASE, n_lines=n)
    # the receiver AES stage had to queue behind the compute stream
    assert rep.done_tick > aes_busy


# -- direct protocol ------------------------------------------------------------------

def prep_cpu_tensor(session, mem, ta, tid, n, seed=3):
    """Register + write a transferable tensor on the CPU side."""
    ta.install_hint(CPU_BASE, n, vn=None, mac=None, tensor_id=tid)
    data = lines(n, seed)
    for i in range(n):
        ta.on_write(CPU_BASE + i * LINE_BYTES, data[i])
    return data


def test_direct_zero_payload_aes_and_exact_link_bytes():
    session, eng, mem, ta, dev = rig()
    n = 512
    data = prep_cpu_tensor(session, mem, ta, 5, n)
    rep = direct_transfer(session, eng, tensor_id=5, direction="cpu_to_npu",
                          analyzer=ta, npu=dev, cpu_base=CPU_BASE)
    assert rep.bytes_aes == 0
    assert rep.bytes_link == n * LINE_BYTES + MSG_WIRE_BYTES
    # ciphertext decrypts on the NPU under the shared key + logical binding
    rec = dev.records[5]
    plains, _ = dev.load_tensor_stream(rec, "delayed")
    assert plains == data
    assert rec.poison == 0


def test_direct_roundtrip_back_to_cpu():
    session, eng, mem, ta, dev = rig()
    n = 64
    rec = dev.register_tensor(6, 0x50000000, n)
    data = lines(n, 9)
    dev.store_tensor_stream(rec, data)
    dev.load_tensor_stream(rec, "delayed")
    eng.advance(rec.verify_done_tick)
    grad_base = CPU_BASE + 0x20000
    rep = direct_transfer(session, eng, tensor_id=6, direction="npu_to_cpu",
                          analyzer=ta, npu=dev, cpu_base=grad_base)
    assert rep.bytes_aes == 0
    # installed entry serves reads; plaintext round-trips through the CPU path
    for i in (0, n // 2, n - 1):
        plain, out = ta.on_read(grad_base + i * LINE_BYTES)
        assert out.kind == "hit_in"
        assert plain == data[i]


def test_direct_install_overrides_writes_still_waiting_to_be_sealed():
    session, eng, mem, ta, dev = rig()
    n = 32
    grad_base = CPU_BASE + 0x20000
    for i in range(n):
        mem.write_line(grad_base + i * LINE_BYTES, b"\xee" * LINE_BYTES)
    assert mem._pending
    rec = dev.register_tensor(6, 0x50000000, n)
    data = lines(n, 9)
    dev.store_tensor_stream(rec, data)
    dev.load_tensor_stream(rec, "delayed")
    eng.advance(rec.verify_done_tick)
    direct_transfer(session, eng, tensor_id=6, direction="npu_to_cpu",
                    analyzer=ta, npu=dev, cpu_base=grad_base)
    assert not mem._pending
    assert [mem.read_line(grad_base + i * LINE_BYTES)[0] for i in range(n)] == data


def test_direct_requires_tensor_logical_binding():
    session, eng, mem, ta, dev = rig()
    n = 16
    # detected (PA-bound) entry: no tensor id
    for i in range(n):
        mem.write_line(CPU_BASE + i * LINE_BYTES, lines(1, i)[0])
    for i in range(n):
        ta.on_read(CPU_BASE + i * LINE_BYTES)
    with pytest.raises(ProtocolError):
        direct_transfer(session, eng, tensor_id=99, direction="cpu_to_npu",
                        analyzer=ta, npu=dev, cpu_base=CPU_BASE)


@pytest.mark.parametrize("direction", ["cpu_to_npu", "npu_to_cpu"])
def test_direct_without_a_meta_table_moves_nothing(direction):
    session, eng, mem, _, dev = rig(256)
    rec = dev.register_tensor(6, 0x50000000, 16)
    dev.store_tensor_stream(rec, lines(16, 9))
    dev.load_tensor_stream(rec, "delayed")
    eng.advance(rec.verify_done_tick)
    totals = dict(mem.totals)
    with pytest.raises(ProtocolError, match="needs the Meta Table"):
        direct_transfer(session, eng, tensor_id=6, direction=direction,
                        analyzer=None, npu=dev, cpu_base=CPU_BASE)
    assert mem.totals == totals
    assert eng.resources["link"].busy_ticks == eng.resources["trusted_channel"].busy_ticks == 0


def test_direct_blocked_while_poisoned():
    session, eng, mem, ta, dev = rig()
    n = 32
    rec = dev.register_tensor(7, 0x50000000, n)
    dev.store_tensor_stream(rec, lines(n, 2))
    rec.poison = 1  # pending verification
    with pytest.raises(IntegrityFault):
        direct_transfer(session, eng, tensor_id=7, direction="npu_to_cpu",
                        analyzer=ta, npu=dev, cpu_base=CPU_BASE + 0x40000)
    assert all(not x["tainted"] for x in dev.link_log)


def test_direct_tampered_tensor_never_crosses_link():
    session, eng, mem, ta, dev = rig()
    n = 32
    rec = dev.register_tensor(8, 0x50000000, n)
    dev.store_tensor_stream(rec, lines(n, 4))
    addr = rec.base + 5 * LINE_BYTES
    dev.tamper_line(addr, 3)
    with pytest.raises(IntegrityFault):
        dev.load_tensor_stream(rec, "delayed")
    with pytest.raises(IntegrityFault):
        direct_transfer(session, eng, tensor_id=8, direction="npu_to_cpu",
                        analyzer=ta, npu=dev, cpu_base=CPU_BASE + 0x40000)
    assert all(not x["tainted"] for x in dev.link_log)


@pytest.mark.parametrize("stored", [True, False])
def test_relay_from_the_npu_fails_closed_on_a_tampered_or_never_stored_record(stored):
    # the record's block tags are checked before anything is staged,
    # logged, reserved or written to the CPU
    session, eng, mem, ta, dev = rig()
    n = 16
    rec = dev.register_tensor(9, 0x50000000, n)
    if stored:
        dev.store_tensor_stream(rec, lines(n, 3))
        dev.tamper_line(rec.base + 3 * LINE_BYTES, 5)

    def state():
        return (bytes(mem._ct), list(mem.macs), list(mem._vns), dict(mem.totals),
                list(dev.link_log), {k: r.busy_until for k, r in eng.resources.items()})

    before = state()
    with pytest.raises(IntegrityFault, match="block 0" if stored else "no block MAC") as ei:
        baseline_transfer(session, eng, tensor_id=9, direction="npu_to_cpu",
                          cpu_mem=mem, npu=dev, cpu_base=CPU_BASE + 0x20000,
                          n_lines=n)
    assert ei.value.kind == "mac_mismatch" and rec.failed and dev.faults.count == 1
    assert ei.value.report.faults == 1
    assert state() == before


def test_secrecy_no_plaintext_in_staging_or_link():
    session, eng, mem, ta, dev = rig()
    n = 16
    marker = bytes(range(32)) * 2  # recognizable plaintext pattern
    for i in range(n):
        mem.write_line(CPU_BASE + i * LINE_BYTES, marker)
    staging = StagingRegion()
    baseline_transfer(session, eng, tensor_id=1, direction="cpu_to_npu",
                      cpu_mem=mem, npu=dev, cpu_base=CPU_BASE, n_lines=n,
                      staging=staging)
    for i in range(n):
        assert marker not in staging.ct[i * LINE_BYTES:(i + 1) * LINE_BYTES]
    for i in range(n):
        ct, _ = mem.line(mem.line_index(CPU_BASE + i * LINE_BYTES))
        assert marker not in ct


def test_direct_overlaps_compute_where_baseline_cannot():
    def comm_added_latency(protocol):
        session, eng, mem, ta, dev = rig()
        n = 2048
        # long-running compute stream holding npu_aes and npu_compute
        rec = dev.register_tensor(50, 0x60000000, 2048)
        dev.store_tensor_stream(rec, lines(2048, 7))
        dev.load_tensor_stream(rec, "delayed", at_tick=0)
        compute_end = eng.resources["npu_compute"].busy_until
        if protocol == "direct":
            prep_cpu_tensor(session, mem, ta, 5, n)
            rep = direct_transfer(session, eng, tensor_id=5,
                                  direction="cpu_to_npu", analyzer=ta,
                                  npu=dev, cpu_base=CPU_BASE, at_tick=0)
        else:
            for i in range(n):
                mem.write_line(CPU_BASE + i * LINE_BYTES, lines(1, i)[0])
            rep = baseline_transfer(session, eng, tensor_id=5,
                                    direction="cpu_to_npu", cpu_mem=mem,
                                    npu=dev, cpu_base=CPU_BASE, n_lines=n,
                                    at_tick=0)
        return max(0, rep.done_tick - compute_end)

    assert comm_added_latency("direct") == 0
    assert comm_added_latency("baseline") > 0


def test_direct_export_checks_every_lines_binding():
    session, eng, mem, ta, dev = rig()
    prep_cpu_tensor(session, mem, ta, 5, 16)
    # a replay gives line 9 the ciphertext and address binding of another line
    other, bad = CPU_BASE + 100 * LINE_BYTES, CPU_BASE + 9 * LINE_BYTES
    mem.write_line(other, lines(1, 7)[0])
    mem.inject_attack("replay", bad, snapshot=mem.snapshot_triple(other))
    with pytest.raises(ProtocolError, match=f"line {bad:#x} is not bound to tensor 5"):
        direct_transfer(session, eng, tensor_id=5, direction="cpu_to_npu",
                        analyzer=ta, npu=dev, cpu_base=CPU_BASE)
    assert session.tx_seq == 0 and 5 not in dev.records
