"""NPU protection tests: delayed vs blocking pipeline schedules, tensor MAC
round-trips, poison tracing, verification barriers, the non-delayed code
path, MAC storage accounting, and the line-input rule the NPU store shares
with the CPU store."""

import random
import tracemalloc

import pytest

from teesim.config import SimConfig, build_engine
from teesim.crypto import (
    IntegrityFault, KeyMaterial, LINE_BYTES, seal_into, tensor_line_codes,
)
from teesim.baseline import ProtectedMemory
from teesim.nputee import HaltError, NpuDevice

KEY = KeyMaterial.from_seed(0x0909)
DEV_BASE = 0x4000_0000


def make_dev(threshold=3, granularity=512):
    eng = build_engine(SimConfig())
    return NpuDevice(KEY, eng, fault_threshold=threshold,
                     mac_granularity=granularity), eng


def lines(n, seed=0):
    rng = random.Random(seed)
    return [rng.randbytes(LINE_BYTES) for _ in range(n)]


def stored_tensor(dev, tid=1, n=64, seed=0):
    rec = dev.register_tensor(tid, DEV_BASE + tid * 0x100000, n)
    data = lines(n, seed)
    dev.store_tensor_stream(rec, data)
    return rec, data


def test_clean_delayed_stream_no_verification_stalls():
    dev, _ = make_dev()
    rec, data = stored_tensor(dev)
    plains, rep = dev.load_tensor_stream(rec, "delayed")
    assert plains == data
    assert rec.poison == 0
    assert rep.stall_ticks == 0
    # verification never gates compute: the stream ends when compute ends
    assert rep.done_tick == rep.compute_done_tick


def test_blocking_4k_stalls_first_line_of_each_block():
    dev, _ = make_dev(granularity=4096)
    rec, _ = stored_tensor(dev, n=256)
    _, rep = dev.load_tensor_stream(rec, "blocking")
    assert rep.mode == "blocking4096"
    assert rep.stall_ticks > 0
    # when compute outpaces the AES stream, every 64-line block bubbles for
    # its remaining fetch+MAC latency
    cfg = SimConfig()
    cfg.npu.compute_cycles_per_line = 4
    eng = build_engine(cfg)
    dev2 = NpuDevice(KEY, eng, mac_granularity=4096)
    rec2 = dev2.register_tensor(1, DEV_BASE, 256)
    dev2.store_tensor_stream(rec2, lines(256))
    _, rep_b = dev2.load_tensor_stream(rec2, "blocking")
    # analytic schedule: AES streams a line per 56 ticks, compute eats one per
    # 28, so each steady block bubbles 64*(56-28) and block 0 pays its fill
    n_blocks = 256 // 64
    steady = (n_blocks - 1) * 64 * (56 - 28)
    fill = 63 * 56
    assert rep_b.stall_ticks >= steady + fill


def _fresh_load_span(n, mode, granularity=512, seed=0):
    dev, eng = make_dev(granularity=granularity)
    rec = dev.register_tensor(1, DEV_BASE, n)
    dev.store_tensor_stream(rec, lines(n, seed))
    for r in eng.resources.values():
        r.busy_until = 0  # staging must not occupy the ledger
    _, rep = dev.load_tensor_stream(rec, mode, at_tick=0)
    return rep.done_tick - rep.start_tick


def test_delayed_cheaper_than_every_blocking_granularity():
    spans = {g: _fresh_load_span(256, "blocking", g)
             for g in (64, 128, 256, 512, 1024, 2048, 4096)}
    delayed = _fresh_load_span(256, "delayed")
    for g, span in spans.items():
        assert delayed <= span, f"delayed {delayed} > blocking({g}) {span}"


def test_cycle_ordering_holds_on_random_stream_shapes():
    rng = random.Random(77)
    for trial in range(6):
        n = rng.randrange(16, 400)
        delayed = _fresh_load_span(n, "delayed", seed=trial)
        for g in (64, 512, 4096):
            blocking = _fresh_load_span(n, "blocking", g, seed=trial)
            assert delayed <= blocking, (n, g)


def test_tamper_mid_tensor_faults_at_stream_end_poison_sticks():
    dev, _ = make_dev()
    rec, _ = stored_tensor(dev)
    addr = rec.base + 31 * LINE_BYTES
    dev.tamper_line(addr, 200)
    with pytest.raises(IntegrityFault) as ei:
        dev.load_tensor_stream(rec, "delayed")
    assert ei.value.kind == "tensor_mac"
    assert rec.poison == 1 and rec.failed
    assert dev.retransfer_requests == [rec.tensor_id]
    assert dev.faults.count == 1


def test_fault_counter_halts_past_threshold():
    dev, _ = make_dev(threshold=2)
    for trial in range(2):
        rec, data = stored_tensor(dev, tid=trial + 1, n=8, seed=trial)
        dev.tamper_line(rec.base)
        with pytest.raises(IntegrityFault):
            dev.load_tensor_stream(rec, "delayed")
    rec, _ = stored_tensor(dev, tid=9, n=8)
    dev.tamper_line(rec.base)
    with pytest.raises(HaltError):
        dev.load_tensor_stream(rec, "delayed")


def test_store_load_roundtrip_and_vn_step():
    dev, _ = make_dev()
    rec = dev.register_tensor(3, DEV_BASE, 16)
    data = lines(16, 3)
    dev.store_tensor_stream(rec, data)
    assert rec.vn == 1
    dev.store_tensor_stream(rec, data)
    assert rec.vn == 2
    plains, _ = dev.load_tensor_stream(rec, "delayed")
    assert plains == data


def test_poison_or_semantics():
    dev, _ = make_dev()
    a, _ = stored_tensor(dev, tid=1, n=4)
    b, _ = stored_tensor(dev, tid=2, n=4)
    out = dev.register_tensor(10, DEV_BASE + 0x500000, 4)
    dev.propagate_poison([a, b], out)
    assert dev.effective_poison(out) == 0
    b.poison = 1
    out2 = dev.register_tensor(11, DEV_BASE + 0x600000, 4)
    dev.propagate_poison([a, b], out2)
    assert dev.effective_poison(out2) == 1


def test_poison_chain_clears_after_source_verifies():
    dev, _ = make_dev()
    a, _ = stored_tensor(dev, tid=1, n=8)
    a.poison = 1  # pretend A's verification is still pending
    b = dev.register_tensor(2, DEV_BASE + 0x100000, 8)
    dev.propagate_poison([a], b)
    c = dev.register_tensor(3, DEV_BASE + 0x200000, 8)
    dev.propagate_poison([b], c)
    assert dev.effective_poison(b) == 1 and dev.effective_poison(c) == 1
    a.poison = 0  # A's pending verification passes
    assert dev.effective_poison(b) == 0
    assert dev.effective_poison(c) == 0


def test_barrier_zero_latency_when_clean():
    dev, eng = make_dev()
    rec, _ = stored_tensor(dev)
    dev.load_tensor_stream(rec, "delayed")
    eng.advance(rec.verify_done_tick)
    assert dev.verification_barrier([rec.tensor_id]) == eng.now


def test_barrier_waits_for_inflight_verification():
    dev, eng = make_dev()
    rec, _ = stored_tensor(dev)
    dev.load_tensor_stream(rec, "delayed")
    # barrier issued while the last-line MAC compare is still in flight
    assert rec.verify_done_tick > eng.now
    assert dev.verification_barrier([rec.tensor_id]) == rec.verify_done_tick


def test_barrier_blocks_tampered_tensor():
    dev, _ = make_dev()
    rec, _ = stored_tensor(dev)
    dev.tamper_line(rec.base)
    with pytest.raises(IntegrityFault):
        dev.load_tensor_stream(rec, "delayed")
    with pytest.raises(IntegrityFault):
        dev.verification_barrier([rec.tensor_id])


def test_barrier_blocks_poisoned_dependents():
    dev, _ = make_dev()
    a, _ = stored_tensor(dev, tid=1)
    a.poison = 1
    b = dev.register_tensor(2, DEV_BASE + 0x700000, 4)
    dev.propagate_poison([a], b)
    with pytest.raises(IntegrityFault):
        dev.verification_barrier([b.tensor_id])


def test_code_fetch_clean_and_tampered():
    # a bit index past the line wraps into it, as `tamper_line`'s does
    for bit in (3, 515, 600):
        dev, _ = make_dev()
        dev.install_code_line(0x100, b"\x90" * LINE_BYTES)
        plain, _ = dev.fetch_code_line(0x100)
        assert plain == b"\x90" * LINE_BYTES
        dev.tamper_code_line(0x100, bit=bit)
        with pytest.raises(IntegrityFault) as ei:
            dev.fetch_code_line(0x100)
        assert ei.value.kind == "code_tamper"


def test_code_fetches_never_enter_delayed_queue():
    dev, _ = make_dev()
    rec, _ = stored_tensor(dev)
    dev.install_code_line(0x100, b"\x90" * LINE_BYTES)
    dev.load_tensor_stream(rec, "delayed")
    dev.fetch_code_line(0x100)
    dev.load_tensor_stream(rec, "delayed")
    assert all(not is_inst for *_, is_inst in dev.delayed_queue_log)
    assert not any(a <= 0x100 < a + n * LINE_BYTES
                   for a, n, _ in dev.delayed_queue_log)


def test_mac_storage_accounting():
    # one device per granularity: 8 and 1 blocks of a 4 KiB tensor
    for granularity, blocks in ((512, 8), (4096, 1)):
        dev, _ = make_dev(granularity=granularity)
        for tid in range(4):
            dev.register_tensor(tid, DEV_BASE + tid * 0x100000, 64)  # 4 KiB each
        assert dev.mac_storage_bytes("delayed") == 7 * 4
        assert dev.mac_storage_bytes("blocking") == 7 * 4 * blocks


def test_a_verify_mode_is_delayed_or_blocking_and_a_granularity_a_power_of_two():
    dev, _ = make_dev()
    rec, _ = stored_tensor(dev)
    for bad in ("blocking512", "Delayed", None):
        with pytest.raises(ValueError, match="mode must be"):
            dev.load_tensor_stream(rec, bad)
        with pytest.raises(ValueError, match="mode must be"):
            dev.mac_storage_bytes(bad)
    assert rec.poison == 0 and len(dev.reports) == 1
    for g in (32, 96, 8192):
        with pytest.raises(ValueError, match="power of two"):
            make_dev(granularity=g)


def test_blocking_detects_tampered_block():
    # the block MACs checked are the ones the store sealed
    dev, _ = make_dev()
    rec, data = stored_tensor(dev, n=64)
    plains, _ = dev.load_tensor_stream(rec, "blocking")
    assert plains == data
    dev.tamper_line(rec.base + 40 * LINE_BYTES, 100)
    with pytest.raises(IntegrityFault) as ei:
        dev.load_tensor_stream(rec, "blocking")
    assert ei.value.kind == "mac_mismatch" and rec.failed
    assert dev.faults.count == 1


def test_blocking_load_without_a_sealed_block_mac_fails_closed():
    dev, _ = make_dev()
    never_stored = dev.register_tensor(2, DEV_BASE + 0x200000, 8)
    with pytest.raises(IntegrityFault, match="no block MAC sealed at 512 B"):
        dev.load_tensor_stream(never_stored, "blocking")


def test_store_seals_block_macs_at_the_device_granularity():
    dev = NpuDevice(KEY, build_engine(SimConfig()), mac_granularity=4096)
    rec = dev.register_tensor(1, DEV_BASE, 128)
    data = lines(128, 4)
    dev.store_tensor_stream(rec, data)
    assert len(dev.block_macs[rec.base]) == 2
    plains, rep = dev.load_tensor_stream(rec, "blocking")
    assert plains == data and rep.mode == "blocking4096"


@pytest.mark.parametrize("bad", [1 << 512, -1, b"\x07" * (LINE_BYTES - 1)],
                         ids=["2^512", "-1", "63 bytes"])
def test_cpu_and_npu_stores_reject_a_line_that_is_not_64_bytes_before_any_change(bad):
    error = ValueError if isinstance(bad, bytes) else OverflowError
    dev, eng = make_dev()
    rec, _ = stored_tensor(dev, n=4)
    npu_state = lambda: (rec.vn, rec.stored_mac, bytes(rec.ct), list(rec.codes),
                         bytes(rec.stored), list(dev.block_macs[rec.base]),
                         len(dev.reports), {n: r.busy_until for n, r in eng.resources.items()})
    before = npu_state()
    with pytest.raises(error):
        dev.store_tensor_stream(rec, [bytes(LINE_BYTES), bad, bytes(LINE_BYTES)])
    assert npu_state() == before
    mem = ProtectedMemory(DEV_BASE, 16, KEY)
    mem.write_line(DEV_BASE, b"\x01" * LINE_BYTES)
    cpu_state = lambda: (list(mem.macs), bytes(mem._ct), list(mem._vns),
                         dict(mem.totals), list(mem.cache._d))
    before = cpu_state()
    pas = [DEV_BASE + i * LINE_BYTES for i in range(3)]
    with pytest.raises(error):
        mem.write_line(DEV_BASE, bad)
    with pytest.raises(error):
        mem.write_lines(pas, [bytes(LINE_BYTES), bad, bytes(LINE_BYTES)])
    assert cpu_state() == before


def test_never_stored_and_discarded_lines_read_as_sealed_zeros():
    dev, _ = make_dev()
    n, tid = 16, 3

    def sealed_zeros(vn):
        buf = bytearray(n * LINE_BYTES)
        seal_into(KEY, buf, range(n), tensor_line_codes(tid, n), vn)
        return bytes(buf)

    rec = dev.register_tensor(tid, DEV_BASE, n)
    codes, ct = dev.export_lines(rec)
    assert bytes(ct) == sealed_zeros(0) and codes == tensor_line_codes(tid, n)
    dev.store_tensor_stream(rec, lines(n))
    dev.tamper_line(rec.base + 2 * LINE_BYTES, 9)
    with pytest.raises(IntegrityFault):
        dev.load_tensor_stream(rec, "delayed")
    # the failed verification discarded the tensor, taint and all
    assert bytes(dev.export_lines(rec)[1]) == sealed_zeros(rec.vn)
    assert not any(rec.taint)


def test_store_footprint_per_line():
    # the flat store is 74 B a line: 64 B of ciphertext, an 8 B binding code,
    # a stored byte and a taint byte; the block MACs add about 5 B
    n = 1 << 14
    data = lines(n, 6)
    dev, _ = make_dev()
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        rec = dev.register_tensor(1, DEV_BASE, n)
        dev.store_tensor_stream(rec, data)
        live = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    live = (live - start) / n
    assert live <= 100, f"{live:.1f} B/line live"
