"""Acceptance suite: one test per criterion, each pinned at its stated
tolerance and printing a PASS/FAIL line. Run with `pytest tests/test_acceptance.py -v`
(or the whole suite); the lines also land in captured output.

  1  crypto/tamper detection, 1000 flips + 100 replays, 100%
  2  XOR-MAC algebra, exact
  3  GEMM 256^3 / 64-tiles detection, hit_in >= 97% on pass 2
  4  optimizer-stream convergence shape, hit_all/hit_in thresholds
  5  metadata-traffic elimination at 100% hit_in, exact zero vs analytic baseline
  6  delayed <= blocking for every granularity, 4x overhead ratio at 4 KiB
  7  transfer accounting exact; overlapped gradient transfer >= 5x faster
  8  functional transparency across modes; unified-mode cycles within 10%
  9  VN-consistency fuzz >= 1e5 ops, zero violations
 10  escape-proofing: no tainted bytes across the link, clean code path
"""

import random
import sys
import time

from teesim.baseline import ProtectedMemory
from teesim.config import SimConfig, build_engine
from teesim.crypto import (
    IntegrityFault, KeyMaterial, LINE_BYTES, mac_xor_aggregate,
)
from teesim.nputee import NpuDevice, VerifyMode
from teesim.tenanalyzer import TenAnalyzer
from teesim.transfer import MSG_WIRE_BYTES, direct_transfer
from teesim.workloads import (
    explicit_adam_layouts, adam_region_lines, iter_adam_trace,
    gen_fuzz_trace, gen_gemm_trace, gemm_region_lines, replay_trace,
    run_zero_offload,
)

KEY = KeyMaterial.from_seed(0xACCE)


def _report(num: int, desc: str, ok: bool, detail: str = "") -> None:
    line = f"ACCEPTANCE {num:2d} {'PASS' if ok else 'FAIL'}: {desc}"
    if detail:
        line += f" [{detail}]"
    print(line, file=sys.__stdout__, flush=True)
    assert ok, line


# -- 1: crypto/tamper detection ------------------------------------------------

def test_criterion_1_tamper_detection_complete():
    t0 = time.time()
    rng = random.Random(1)
    n = 512
    base = 0x1000_0000
    mem = ProtectedMemory(base, n, KEY)
    for i in range(n):
        mem.write_line(base + i * LINE_BYTES, rng.randbytes(LINE_BYTES))

    detected = 0
    trials = 1000
    kinds = ("bitflip", "vn_tamper", "mac_tamper")
    for t in range(trials):
        k = kinds[t % 3]
        pa = base + rng.randrange(n) * LINE_BYTES
        mem.inject_attack(k, pa, bit=rng.randrange(56))
        mem.flush_metadata_cache()
        try:
            mem.read_line(pa)
        except IntegrityFault:
            detected += 1
        if k == "vn_tamper":
            mem.inject_attack("vn_tamper", pa, delta=-1)
        mem.flush_metadata_cache()
        mem.write_line(pa, rng.randbytes(LINE_BYTES))

    replays = 0
    for t in range(100):
        pa = base + rng.randrange(n) * LINE_BYTES
        old = mem.snapshot_triple(pa)
        mem.write_line(pa, rng.randbytes(LINE_BYTES))
        heal = mem.snapshot_triple(pa)
        mem.inject_attack("replay", pa, snapshot=old)
        mem.flush_metadata_cache()
        try:
            mem.read_line(pa)
        except IntegrityFault:
            replays += 1
        mem.inject_attack("replay", pa, snapshot=heal)
        mem.flush_metadata_cache()

    # delayed path: detection by stream end and always before a barrier-gated
    # transfer
    delayed_detected = 0
    delayed_trials = 100
    eng = build_engine(SimConfig())
    dev = NpuDevice(KEY, eng)
    for t in range(delayed_trials):
        rec = dev.records.get(1) or dev.register_tensor(1, 0x4000_0000, 32)
        data = [rng.randbytes(LINE_BYTES) for _ in range(32)]
        dev.store_tensor_stream(rec, data)
        addr = rec.base + rng.randrange(32) * LINE_BYTES
        dev.gddr[addr].data ^= 1 << rng.randrange(512)
        dev.taint.add(addr)
        stream_fault = barrier_fault = False
        try:
            dev.load_tensor_stream(rec, VerifyMode("delayed"))
        except IntegrityFault:
            stream_fault = True
        try:
            dev.verification_barrier([1])
        except IntegrityFault:
            barrier_fault = True
        if stream_fault and barrier_fault:
            delayed_detected += 1
        dev.faults.count = 0
    elapsed = time.time() - t0
    ok = (detected == trials and replays == 100
          and delayed_detected == delayed_trials and elapsed < 30)
    _report(1, "tamper suite 1000 flips + 100 replays + delayed path, 100%",
            ok, f"{detected}/{trials} flips, {replays}/100 replays, "
                f"{delayed_detected}/{delayed_trials} delayed, {elapsed:.1f}s")


# -- 2: XOR-MAC algebra -----------------------------------------------------------

def test_criterion_2_xor_mac_algebra():
    rng = random.Random(2)
    ok = True
    for _ in range(10_000):
        tags = [rng.randrange(1 << 56) for _ in range(rng.randrange(1, 17))]
        shuffled = tags[:]
        rng.shuffle(shuffled)
        if mac_xor_aggregate(tags) != mac_xor_aggregate(shuffled):
            ok = False
            break
    t = rng.randrange(1 << 56)
    ok = ok and mac_xor_aggregate([t]) == t

    # store-order independence under tile-permuted writes
    eng = build_engine(SimConfig())
    dev_a = NpuDevice(KEY, eng)
    dev_b = NpuDevice(KEY, build_engine(SimConfig()))
    data = [rng.randbytes(LINE_BYTES) for _ in range(64)]
    ra = dev_a.register_tensor(1, 0x4000_0000, 64)
    rb = dev_b.register_tensor(1, 0x4000_0000, 64)
    dev_a.store_tensor_stream(ra, data)
    order = list(range(64))
    rng.shuffle(order)
    dev_b.store_tensor_stream(rb, data, order=order)
    ok = ok and ra.stored_mac == rb.stored_mac
    _report(2, "XOR-MAC permutation invariance (10k), identity, "
               "tile-permuted stores, exact", ok)


# -- 3: GEMM detection ---------------------------------------------------------------

def test_criterion_3_gemm_detection():
    t0 = time.time()
    m = n = k = 256
    base = 0x2000_0000
    mem = ProtectedMemory(base, gemm_region_lines(m, n, k), KEY,
                          crypto_on=False)
    ta = TenAnalyzer(mem)
    trace = gen_gemm_trace(m, n, k, 64, a_base=base)
    replay_trace(ta, trace)                    # one complete GEMM
    before = dict(ta.stats)
    replay_trace(ta, trace)                    # the pass under measurement
    s = ta.stats
    reads = sum(s[key] - before[key] for key in
                ("r_hit_in", "r_hit_boundary", "r_miss"))
    hit_in = (s["r_hit_in"] - before["r_hit_in"]) / reads
    elapsed = time.time() - t0
    ok = hit_in >= 0.97 and elapsed < 120
    _report(3, "GEMM 256^3 / 64x64 tiles: hit_in >= 97% after one pass", ok,
            f"hit_in={hit_in:.4f}, {elapsed:.1f}s")
    ta.check_vn_consistency()


# -- 4: optimizer-stream convergence shape ----------------------------------------------

def test_criterion_4_adam_convergence_shape():
    t0 = time.time()
    # 16 tensors spanning the configured desk-scale range, small-skewed
    sizes = [256 * 1024] * 12 + [512 * 1024] * 2 + [1024 * 1024] + \
        [4 * 1024 * 1024]
    base = 0x1000_0000
    layouts = explicit_adam_layouts(sizes, base)
    mem = ProtectedMemory(base, adam_region_lines(layouts, base), KEY,
                          crypto_on=False)
    ta = TenAnalyzer(mem)
    one_iter = list(iter_adam_trace(layouts, threads=8, burst_lines=32,
                                    iterations=1))
    rates = {}
    for it in range(1, 21):
        before = dict(ta.stats)
        replay_trace(ta, one_iter)
        s = ta.stats
        reads = sum(s[key] - before[key] for key in
                    ("r_hit_in", "r_hit_boundary", "r_miss"))
        rates[it] = {
            "hit_in": (s["r_hit_in"] - before["r_hit_in"]) / reads,
            "hit_all": (s["r_hit_in"] - before["r_hit_in"]
                        + s["r_hit_boundary"] - before["r_hit_boundary"]) / reads,
        }
    elapsed = time.time() - t0
    ok = (rates[1]["hit_all"] >= 0.99
          and rates[20]["hit_in"] >= rates[5]["hit_in"] >= rates[1]["hit_in"]
          and rates[20]["hit_in"] >= 0.90)
    _report(4, "optimizer streams: hit_all(1) >= 99%, hit_in monotone, "
               "hit_in(20) >= 90%", ok,
            f"hit_all(1)={rates[1]['hit_all']:.4f}, "
            f"hit_in(1/5/20)={rates[1]['hit_in']:.4f}/"
            f"{rates[5]['hit_in']:.4f}/{rates[20]['hit_in']:.4f}, "
            f"{elapsed:.0f}s")
    ta.check_vn_consistency()


# -- 5: metadata-traffic elimination ----------------------------------------------------

def _baseline_read_metadata_oracle(n_lines: int) -> tuple[int, int, int]:
    """Analytic cold-scan bytes for the 8-ary layout: every VN-line once,
    every tree node-line once, one MAC line per read."""
    vn_lines = -(-n_lines // 8)
    depth = 1
    while 8 ** depth < vn_lines:
        depth += 1
    padded = 8 ** depth
    node_lines = 0
    level = padded
    while level > 8:
        level //= 8
        node_lines += level
    node_lines += 1  # the single top node-line under the root
    return vn_lines * LINE_BYTES, node_lines * LINE_BYTES, n_lines * LINE_BYTES


def test_criterion_5_metadata_elimination_exact():
    n = 4096
    base = 0x1000_0000
    mem = ProtectedMemory(base, n, KEY, crypto_on=False)
    ta = TenAnalyzer(mem)
    # detect + rebuild via one full read pass and one full write pass
    for i in range(n):
        ta.on_read(base + i * LINE_BYTES)
    for i in range(n):
        ta.on_write(base + i * LINE_BYTES, i)
    # the measured pass: hit_in must be 100%, metadata bytes exactly zero
    before_stats = dict(ta.stats)
    before = {k: mem.totals[k] for k in ("vn_rd", "tree_rd", "mac_rd")}
    for i in range(n):
        ta.on_read(base + i * LINE_BYTES)
    reads = sum(ta.stats[k] - before_stats[k] for k in
                ("r_hit_in", "r_hit_boundary", "r_miss"))
    hit_in = (ta.stats["r_hit_in"] - before_stats["r_hit_in"]) / reads
    deltas = {k: mem.totals[k] - before[k] for k in before}
    # baseline oracle: fresh protected memory, cold streaming scan
    bmem = ProtectedMemory(base, n, KEY, crypto_on=False)
    for i in range(n):
        bmem.read_line(base + i * LINE_BYTES)
    vn_expect, tree_expect, mac_expect = _baseline_read_metadata_oracle(n)
    baseline_exact = (bmem.totals["vn_rd"] == vn_expect
                      and bmem.totals["tree_rd"] == tree_expect
                      and bmem.totals["mac_rd"] == mac_expect)
    ok = (hit_in == 1.0 and deltas["vn_rd"] == 0 and deltas["tree_rd"] == 0
          and deltas["mac_rd"] == 0 and baseline_exact
          and bmem.totals["mac_rd"] >= n * LINE_BYTES)
    _report(5, "steady streaming reads: tensor-mode VN+tree bytes == 0, "
               "baseline matches 8-ary analytic oracle, exact", ok,
            f"hit_in={hit_in:.3f}, deltas={deltas}, "
            f"baseline vn/tree/mac={bmem.totals['vn_rd']}/"
            f"{bmem.totals['tree_rd']}/{bmem.totals['mac_rd']}")


# -- 6: blocking-vs-delayed ordering and magnitude -----------------------------------------

def _npu_stream_ticks(vm: VerifyMode | None, n: int = 1024) -> int:
    cfg = SimConfig()
    eng = build_engine(cfg)
    if vm is None:
        done = 0
        for _ in range(n):
            _, f = eng.reserve("npu_gddr", LINE_BYTES)
            _, c = eng.reserve("npu_compute", LINE_BYTES, at_tick=f)
            done = max(done, c)
        return done
    dev = NpuDevice(KEY, eng, crypto_on=False, mac_granularity=vm.granularity)
    rec = dev.register_tensor(1, 0x4000_0000, n)
    dev.store_tensor_stream(rec, list(range(n)))
    for r in eng.resources.values():   # staging must not occupy the ledger
        r.busy_until = 0
    _, rep = dev.load_tensor_stream(rec, vm, at_tick=0)
    return rep.done_tick


def test_criterion_6_blocking_vs_delayed():
    no_prot = _npu_stream_ticks(None)
    delayed = _npu_stream_ticks(VerifyMode("delayed"))
    blocking = {g: _npu_stream_ticks(VerifyMode("blocking", g))
                for g in (64, 128, 256, 512, 1024, 2048, 4096)}
    ordering = all(delayed <= b for b in blocking.values())
    ovh_delayed = delayed - no_prot
    ovh_blocking_4k = blocking[4096] - no_prot
    ratio = ovh_blocking_4k / max(1, ovh_delayed)
    ok = ordering and ratio >= 4.0
    _report(6, "delayed <= blocking(G) for all G in {64B..4KiB}; "
               "overhead(4KiB) >= 4x overhead(delayed)", ok,
            f"no_prot={no_prot}, delayed=+{ovh_delayed}, "
            f"blocking4K=+{ovh_blocking_4k}, ratio={ratio:.1f}")


# -- 7: protocol accounting and overlap -----------------------------------------------------

def _zero_cfg(mode: str, functional: bool = True) -> SimConfig:
    cfg = SimConfig(mode=mode)
    cfg.workload.zero_tensors = 4
    cfg.workload.zero_tensor_bytes = 128 * 1024
    cfg.workload.iterations = 2
    cfg.workload.threads = 2
    cfg.crypto.functional = functional
    return cfg


def test_criterion_7_protocol_accounting_and_overlap():
    tt = run_zero_offload(_zero_cfg("tensortee", functional=False))
    sgx = run_zero_offload(_zero_cfg("sgx_mgx", functional=False))
    size = 128 * 1024
    directs = [t for t in tt.transfers if t.protocol == "direct"]
    baselines = sgx.transfers
    exact = (all(t.bytes_aes == 0 for t in directs)
             and all(t.bytes_link - MSG_WIRE_BYTES == size for t in directs)
             and all(t.bytes_aes == 4 * size for t in baselines)
             and all(t.bytes_link == size for t in baselines))
    lat_tt = [l for br in tt.iterations for l in br.grad_latencies]
    lat_sgx = [l for br in sgx.iterations for l in br.grad_latencies]
    mean_tt = max(1, sum(lat_tt) / len(lat_tt))
    mean_sgx = sum(lat_sgx) / len(lat_sgx)
    improvement = mean_sgx / mean_tt
    ok = exact and improvement >= 5.0
    _report(7, "direct: 0 payload AES, exact link bytes; baseline: 4x AES; "
               "overlapped gradient transfer >= 5x faster", ok,
            f"mean grad latency {mean_sgx:.0f} vs {mean_tt:.0f} ticks, "
            f"{improvement:.1f}x")


# -- 8: functional transparency and unified-mode overhead ------------------------------------

def test_criterion_8_transparency_and_overhead():
    cfgs = {m: _zero_cfg(m) for m in ("nonsecure", "sgx_mgx", "tensortee")}
    for c in cfgs.values():
        c.workload.zero_tensors = 2
        c.workload.zero_tensor_bytes = 32 * 1024
        c.workload.iterations = 3
    reports = {m: run_zero_offload(c) for m, c in cfgs.items()}
    identical = all(
        a.tobytes() == b.tobytes()
        for a, b in zip(reports["nonsecure"].weights, reports["sgx_mgx"].weights)
    ) and all(
        a.tobytes() == b.tobytes()
        for a, b in zip(reports["nonsecure"].weights, reports["tensortee"].weights)
    )
    ns = reports["nonsecure"].total_ticks
    tt = reports["tensortee"].total_ticks
    overhead = tt / ns - 1.0
    ok = identical and overhead <= 0.10
    _report(8, "final weights byte-identical across modes; unified-mode "
               "cycles within 10% of NonSecure", ok,
            f"overhead={overhead * 100:.2f}%, "
            f"ns={ns}, tt={tt}, sgx={reports['sgx_mgx'].total_ticks}")


# -- 9: VN-consistency fuzz ---------------------------------------------------------------------

def test_criterion_9_vn_consistency_fuzz():
    t0 = time.time()
    n_lines = 2048
    base = 0x3000_0000
    mem = ProtectedMemory(base, n_lines, KEY, crypto_on=False)
    ta = TenAnalyzer(mem)
    trace = gen_fuzz_trace(100_000, n_lines, seed=99, base=base)
    violations = 0
    for i, r in enumerate(trace):
        if r.kind == "R":
            ta.on_read(r.va)
        else:
            ta.on_write(r.va, r.va & ((1 << 512) - 1))
        if (i + 1) % 10_000 == 0:
            try:
                ta.check_vn_consistency()
                ta.check_disjoint()
            except AssertionError:
                violations += 1
    try:
        ta.check_vn_consistency()
        ta.check_disjoint()
    except AssertionError:
        violations += 1
    invalidations = ta.stats["w_invalidate"]
    elapsed = time.time() - t0
    ok = violations == 0 and invalidations > 0
    _report(9, "VN-consistency fuzz >= 1e5 mixed ops: zero violations; "
               "violating patterns invalidate", ok,
            f"{len(trace)} ops, {invalidations} invalidations, "
            f"{violations} violations, {elapsed:.0f}s")


# -- 10: escape-proofing ---------------------------------------------------------------------------

def test_criterion_10_escape_proofing():
    rng = random.Random(10)
    eng = build_engine(SimConfig())
    dev = NpuDevice(KEY, eng, fault_threshold=10**9)
    from teesim.transfer import Enclave, attest_and_exchange
    cpu = Enclave.create(1, 0xA, b"c", b"d")
    npu_e = Enclave.create(2, 0xB, b"c2", b"d2")
    session = attest_and_exchange(cpu, npu_e, {1: cpu.report(), 2: npu_e.report()})
    mem = ProtectedMemory(0x1000_0000, 65536, session.shared_key)
    ta = TenAnalyzer(mem)
    dev.key = session.shared_key

    dev.install_code_line(0x100, b"\x90" * LINE_BYTES)
    n = 16
    transfers_ok = 0
    blocked = 0
    for trial in range(1000):
        tid = 1000 + trial
        rec = dev.register_tensor(tid, 0x4000_0000 + (trial % 64) * 0x10_0000, n)
        data = [rng.randbytes(LINE_BYTES) for _ in range(n)]
        dev.store_tensor_stream(rec, data)
        tampered = rng.random() < 0.5
        if tampered:
            addr = rec.base + rng.randrange(n) * LINE_BYTES
            dev.gddr[addr].data ^= 1 << rng.randrange(512)
            dev.taint.add(addr)
        try:
            dev.load_tensor_stream(rec, VerifyMode("delayed"))
        except IntegrityFault:
            pass
        out = dev.register_tensor(20000 + trial, 0x7000_0000, n)
        dev.propagate_poison([rec], out)
        if trial % 7 == 0:
            dev.fetch_code_line(0x100)
        try:
            direct_transfer(session, eng, tensor_id=tid, direction="npu_to_cpu",
                            analyzer=ta, npu=dev,
                            cpu_base=0x1000_0000 + (trial % 512) * n * LINE_BYTES)
            transfers_ok += 1
            assert not tampered
        except IntegrityFault:
            blocked += 1
            assert tampered
    tainted_crossings = sum(1 for x in dev.link_log if x["tainted"])
    code_in_delayed = sum(1 for _, is_inst in dev.delayed_queue_log if is_inst)
    ok = tainted_crossings == 0 and code_in_delayed == 0 and blocked > 0 \
        and transfers_ok > 0
    _report(10, "zero tainted bytes ever cross the link; no is_inst fetch in "
                "the delayed path", ok,
            f"{transfers_ok} clean transfers, {blocked} blocked, "
            f"{tainted_crossings} tainted crossings, "
            f"{code_in_delayed} code-in-delayed")
