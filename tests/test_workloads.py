"""Workload generator and training-loop tests: trace shapes, determinism,
hit-rate trajectories on replay, and cross-mode functional equivalence."""

import numpy as np
import pytest

from teesim.baseline import ProtectedMemory
from teesim.config import SimConfig, WorkloadConfig
from teesim.crypto import CounterBinding, IntegrityFault, KeyMaterial, LINE_BYTES
from teesim.tenanalyzer import TenAnalyzer
from teesim.workloads import (
    ZeroOffloadRunner, adam_layouts, adam_region_lines, gen_adam_trace,
    gen_fuzz_trace, gen_gemm_trace, gemm_region_lines, read_trace, replay_trace,
    run_zero_offload, write_trace,
)

KEY = KeyMaterial.from_seed(0x0FF)


def small_cfg(**kw):
    wl = dict(name="adam", tensors=1, tensor_bytes_min=64 * LINE_BYTES,
              tensor_bytes_max=64 * LINE_BYTES, threads=1, iterations=1,
              burst_lines=32)
    wl.update(kw)
    return WorkloadConfig(**wl)


def test_adam_trace_counts_one_tensor_one_thread():
    cfg = small_cfg()
    trace = gen_adam_trace(cfg)
    reads = [r for r in trace if r.kind == "R"]
    writes = [r for r in trace if r.kind == "W"]
    assert len(reads) == 256    # 4 read streams x 64 lines
    assert len(writes) == 192   # 3 write streams x 64 lines


def test_adam_thread_chunks_disjoint_and_cover():
    cfg = small_cfg(tensors=1, threads=8,
                    tensor_bytes_min=128 * LINE_BYTES,
                    tensor_bytes_max=128 * LINE_BYTES)
    trace = gen_adam_trace(cfg)
    lay = adam_layouts(1, 128 * LINE_BYTES, 128 * LINE_BYTES, 0x1000_0000)[0]
    w_reads = [r for r in trace if r.kind == "R"
               and lay.w_base <= r.va < lay.w_base + 128 * LINE_BYTES]
    by_core = {}
    for r in w_reads:
        by_core.setdefault(r.core_id, set()).add(r.va)
    all_vas = set()
    for core, vas in by_core.items():
        assert not (all_vas & vas)
        all_vas |= vas
    assert len(all_vas) == 128


def test_trace_generators_are_pure():
    cfg = small_cfg(tensors=2, threads=4)
    a = gen_adam_trace(cfg)
    b = gen_adam_trace(cfg)
    assert a == b
    g1 = gen_gemm_trace(128, 128, 128, 64)
    g2 = gen_gemm_trace(128, 128, 128, 64)
    assert g1 == g2


def test_trace_file_roundtrip(tmp_path):
    cfg = small_cfg()
    trace = gen_adam_trace(cfg)
    for name in ("t.trace", "t.trace.gz"):
        p = str(tmp_path / name)
        write_trace(trace, p)
        assert read_trace(p) == trace


def test_gemm_degenerate_tile_is_pure_streaming():
    trace = gen_gemm_trace(64, 64, 64, 64)
    reads = [r for r in trace if r.kind == "R"]
    # single tile: A then B, each read once, in address order per matrix
    assert len(reads) == 2 * 64 * 64 * 4 // LINE_BYTES
    a_reads = reads[:len(reads) // 2]
    assert [r.va for r in a_reads] == sorted(r.va for r in a_reads)


def test_gemm_128_tile64_reconstructs_matrices():
    m = n = k = 128
    mem = ProtectedMemory(0x2000_0000, gemm_region_lines(m, n, k), KEY,
                          crypto_on=False)
    ta = TenAnalyzer(mem)
    replay_trace(ta, gen_gemm_trace(m, n, k, 64))
    ta.check_disjoint()
    # A and B each coalesce into at most 2 entries after one full pass
    per_matrix = {}
    for e in ta.entries:
        if e.valid:
            per_matrix.setdefault(e.base & ~0xFFFFF, []).append(e)
    read_entries = [e for e in ta.entries if e.valid]
    a_entries = [e for e in read_entries if e.base < 0x2000_0000 + 128 * 512]
    assert len(a_entries) <= 2


def test_adam_hit_in_trajectory_rises_toward_one():
    cfg = small_cfg(tensors=2, threads=2,
                    tensor_bytes_min=256 * LINE_BYTES,
                    tensor_bytes_max=256 * LINE_BYTES)
    layouts = adam_layouts(2, 256 * LINE_BYTES, 256 * LINE_BYTES, 0x1000_0000)
    mem = ProtectedMemory(0x1000_0000, adam_region_lines(layouts, 0x1000_0000),
                          KEY, crypto_on=False)
    ta = TenAnalyzer(mem)
    rates = []
    for it in range(4):
        before_hit = ta.stats["r_hit_in"]
        before_reads = before_hit + ta.stats["r_hit_boundary"] + ta.stats["r_miss"]
        replay_trace(ta, gen_adam_trace(cfg))
        reads_now = (ta.stats["r_hit_in"] + ta.stats["r_hit_boundary"]
                     + ta.stats["r_miss"])
        rates.append((ta.stats["r_hit_in"] - before_hit) /
                     (reads_now - before_reads))
    assert rates == sorted(rates)
    assert rates[-1] > 0.95
    ta.check_vn_consistency()


def test_structure_hints_remove_detection_warmup():
    cfg = small_cfg(tensors=1, tensor_bytes_min=256 * LINE_BYTES,
                    tensor_bytes_max=256 * LINE_BYTES)
    lay = adam_layouts(1, 256 * LINE_BYTES, 256 * LINE_BYTES, 0x1000_0000)[0]
    trace = gen_adam_trace(cfg)
    rates = {}
    for hinted in (False, True):
        mem = ProtectedMemory(0x1000_0000,
                              adam_region_lines([lay], 0x1000_0000), KEY,
                              crypto_on=False)
        ta = TenAnalyzer(mem)
        if hinted:
            for _, base in lay.stream_bases():
                ta.install_hint(base, lay.n_lines)
        replay_trace(ta, trace)
        rates[hinted] = ta.hit_rates()["hit_in"]
    assert rates[True] > 0.99   # no warm-up with hints
    assert rates[False] < 0.10  # first pass without hints is detection


def test_fuzz_trace_deterministic_and_sized():
    t1 = gen_fuzz_trace(5000, 256, seed=1)
    t2 = gen_fuzz_trace(5000, 256, seed=1)
    assert t1 == t2 and len(t1) == 5000
    assert gen_fuzz_trace(5000, 256, seed=2) != t1


def zcfg(mode, iterations=2, tensors=2, tensor_bytes=16 * 1024, functional=True):
    cfg = SimConfig(mode=mode)
    cfg.workload.zero_tensors = tensors
    cfg.workload.zero_tensor_bytes = tensor_bytes
    cfg.workload.iterations = iterations
    cfg.workload.threads = 2
    cfg.crypto.functional = functional
    return cfg


def test_zero_offload_mode_transparency_weights_identical():
    reports = {m: run_zero_offload(zcfg(m)) for m in
               ("nonsecure", "sgx_mgx", "tensortee")}
    w_ns = reports["nonsecure"].weights
    for mode in ("sgx_mgx", "tensortee"):
        w = reports[mode].weights
        for a, b in zip(w_ns, w):
            assert a.tobytes() == b.tobytes(), f"{mode} diverged"
    # the optimizer actually moved the weights
    runner_init = np.random.Generator(np.random.Philox(key=0x5EED))
    assert not np.array_equal(w_ns[0], runner_init.standard_normal(
        len(w_ns[0]), dtype=np.float32))


def test_zero_offload_deterministic():
    a = run_zero_offload(zcfg("tensortee"))
    b = run_zero_offload(zcfg("tensortee"))
    for wa, wb in zip(a.weights, b.weights):
        assert wa.tobytes() == wb.tobytes()
    assert a.total_ticks == b.total_ticks


def test_zero_offload_secure_modes_cost_more_than_nonsecure():
    ns = run_zero_offload(zcfg("nonsecure"))
    sgx = run_zero_offload(zcfg("sgx_mgx"))
    tt = run_zero_offload(zcfg("tensortee"))
    assert sgx.total_ticks > ns.total_ticks
    assert tt.total_ticks >= ns.total_ticks
    assert tt.total_ticks < sgx.total_ticks

    # relay re-encryption blows up the communication share of an iteration
    def comm_share(rep):
        comm = rep.phases["comm_grad"] + rep.phases["comm_weights"]
        return comm / rep.total_ticks

    assert comm_share(sgx) > 3 * comm_share(ns)
    assert comm_share(tt) < comm_share(sgx)


def test_zero_offload_direct_transfers_have_no_payload_aes():
    rep = run_zero_offload(zcfg("tensortee"))
    directs = [t for t in rep.transfers if t.protocol == "direct"]
    assert directs
    assert all(t.bytes_aes == 0 for t in directs)
    baselines = run_zero_offload(zcfg("sgx_mgx")).transfers
    assert baselines
    assert all(t.bytes_aes == 4 * (t.bytes_link) for t in baselines)


def test_zero_offload_sgx_mgx_verifies_npu_blocks():
    cfg = zcfg("sgx_mgx", iterations=1)
    cfg.npu.mac_granularity = 1024
    runner = ZeroOffloadRunner(cfg)
    runner.run()
    npu = runner.npu
    assert npu.mac_granularity == 1024
    loads = [r for r in npu.reports if r.mode != "store"]
    assert loads and all(r.mode == "blocking1024" for r in loads)
    rec = npu.records[runner.WEIGHT_TID]
    npu.tamper_line(rec.base + 3 * LINE_BYTES, 9)
    with pytest.raises(IntegrityFault):
        npu.load_tensor_stream(rec, runner.verify_mode)


@pytest.mark.parametrize("mode", ["sgx_mgx", "tensortee"])
def test_zero_offload_builds_no_binding_per_line(mode, monkeypatch):
    # the NPU store and the transfers move flat buffers and code arrays; only
    # a direct transfer's channel message builds bindings, one each to
    # encode and decode it
    built = []
    post_init = CounterBinding.__post_init__

    def counting(self):
        built.append(self.mode)
        post_init(self)

    monkeypatch.setattr(CounterBinding, "__post_init__", counting)
    rep = run_zero_offload(zcfg(mode))
    assert rep.transfers
    assert len(built) <= 2 * len(rep.transfers)
