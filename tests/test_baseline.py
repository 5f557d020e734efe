"""Baseline (SGX-like) protected-memory tests: itemized cost accounting,
metadata-cache behavior, attack detection, functional equivalence against a
plain dict oracle, deferred sealing against an eager reference, and run
reads and the write fast path against a per-line reference."""

import random
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from teesim.baseline import (
    AES_CYCLES, MAC_CYCLES, CostReport, MetadataCache, ProtectedMemory,
)
from teesim.crypto import (
    OPEN_BATCH_MIN, SEAL_BATCH_MIN, BindingMode, CipherBlock, CounterBinding,
    IntegrityFault, KeyMaterial, LINE_BYTES, VnTree, line_pad, line_tag,
)
from teesim.tenanalyzer import HIT_IN, TenAnalyzer

KEY = KeyMaterial.from_seed(0xBA5E)
BASE = 0x10000


def make_mem(n_lines=4096, cache_bytes=32 * 1024, crypto_on=True):
    return ProtectedMemory(BASE, n_lines, KEY,
                           metadata_cache_bytes=cache_bytes, crypto_on=crypto_on)


def _plaintexts(mem):
    return mem.plaintexts([BASE + i * LINE_BYTES for i in range(mem.n_lines)])


def _store(mem):
    """Every field the store keeps, sealed: ciphertexts, MACs, VNs, binding
    codes and the written mask."""
    macs = list(mem.macs)
    return (bytes(mem._ct), macs, list(mem._vns), list(mem._codes),
            bytes(mem._written))


def test_cold_read_cost_with_three_level_tree():
    mem = make_mem(4096)  # 512 VN-lines -> depth 3
    assert mem.tree.depth == 3
    _, rep = mem.read_line(BASE, collect=True)
    assert rep.data_bytes == LINE_BYTES
    assert rep.vn_bytes == LINE_BYTES
    assert rep.mac_bytes == LINE_BYTES
    assert rep.tree_bytes == 3 * LINE_BYTES


def test_second_read_hits_metadata_cache():
    mem = make_mem()
    mem.read_line(BASE)
    _, rep = mem.read_line(BASE, collect=True)
    assert rep.vn_bytes == 0
    assert rep.tree_bytes == 0
    assert rep.mac_bytes == LINE_BYTES  # MAC region never cached


def test_write_then_read_roundtrip_and_vn_increment():
    mem = make_mem()
    pa = BASE + 7 * LINE_BYTES
    assert mem.vn_of(pa) == 0
    mem.write_line(pa, b"\x5a" * LINE_BYTES)
    assert mem.vn_of(pa) == 1
    plain, _ = mem.read_line(pa)
    assert plain == b"\x5a" * LINE_BYTES


def test_n_writes_increment_vn_by_n():
    mem = make_mem()
    pa = BASE + 64
    for i in range(13):
        mem.write_line(pa, bytes([i]) + b"\x00" * 63)
    assert mem.vn_of(pa) == 13


def test_write_updates_depth_many_tree_nodes():
    mem = make_mem(4096)
    mem.read_line(BASE)  # warm the VN path so the write owes no walk reads
    rep = mem.write_line(BASE, b"\x01" * LINE_BYTES, collect=True)
    assert rep.tree_bytes == mem.tree.depth * LINE_BYTES


def test_bitflip_detected_on_next_read():
    mem = make_mem()
    pa = BASE + 3 * LINE_BYTES
    mem.write_line(pa, b"\x11" * LINE_BYTES)
    mem.read_line(pa)
    mem.inject_attack("bitflip", pa, bit=129)
    mem.flush_metadata_cache()
    with pytest.raises(IntegrityFault) as ei:
        mem.read_line(pa)
    assert ei.value.kind == "mac_mismatch"


def test_vn_tamper_faults_mac_verify():
    mem = make_mem()
    pa = BASE + 5 * LINE_BYTES
    mem.write_line(pa, b"\x22" * LINE_BYTES)
    mem.inject_attack("vn_tamper", pa)
    mem.flush_metadata_cache()
    with pytest.raises(IntegrityFault) as ei:
        mem.read_line(pa)
    assert ei.value.kind == "mac_mismatch"


def test_full_triple_replay_faults_tree_walk():
    mem = make_mem()
    pa = BASE + 9 * LINE_BYTES
    mem.write_line(pa, b"old data".ljust(LINE_BYTES, b"\x00"))
    snap = mem.snapshot_triple(pa)
    mem.write_line(pa, b"new data".ljust(LINE_BYTES, b"\x00"))
    mem.inject_attack("replay", pa, snapshot=snap)
    mem.flush_metadata_cache()
    with pytest.raises(IntegrityFault) as ei:
        mem.read_line(pa)
    assert ei.value.kind == "replay_or_tamper"


def test_mac_region_tamper_detected():
    mem = make_mem()
    pa = BASE + 11 * LINE_BYTES
    mem.write_line(pa, b"\x33" * LINE_BYTES)
    mem.inject_attack("mac_tamper", pa, bit=5)
    mem.flush_metadata_cache()
    with pytest.raises(IntegrityFault):
        mem.read_line(pa)


def test_mac_tamper_of_a_never_written_line_detected():
    # the tamper materializes the line first, so its first read does not
    # overwrite the tampered MAC with a fresh one
    mem = ProtectedMemory(0x1000, 64, KEY)
    mem.inject_attack("mac_tamper", 0x10C0)
    mem.flush_metadata_cache()
    with pytest.raises(IntegrityFault):
        mem.read_line(0x10C0)


@pytest.mark.parametrize("crypto_on", [True, False])
@pytest.mark.parametrize("n", [3, 2 * SEAL_BATCH_MIN])
def test_materialize_matches_per_line_zero_blocks(n, crypto_on):
    def build():
        mem = make_mem(64, crypto_on=crypto_on)
        mem.write_line(BASE + LINE_BYTES, b"\x07" * LINE_BYTES)   # pending seal
        mem.write_line(BASE + 2 * LINE_BYTES, b"\x08" * LINE_BYTES, binding=
                       CounterBinding(BindingMode.TENSOR_LOGICAL, 9, 0))
        mem.seal()
        mem.write_line(BASE + 2 * LINE_BYTES, b"\x09" * LINE_BYTES)
        mem._vns[0] = 5        # a never-written line with a VN
        return mem

    pas = [BASE + i * LINE_BYTES for i in range(n)]
    batch, per_line = build(), build()
    assert batch.materialize(pas) == [per_line.line_index(pa) for pa in pas]
    # the reference: seal, then encrypt and MAC each never-written line alone
    per_line.seal()
    for pa in pas:
        per_line.line(per_line.line_index(pa))
    assert _store(batch) == _store(per_line)
    assert batch._written[n - 1] and not batch._written[n]


@pytest.mark.parametrize("crypto_on", [True, False])
def test_a_partial_last_vn_line_reads_and_writes(crypto_on):
    """12 lines end in a VN-line that holds four: its tree leaf still hashes
    eight VNs, as the tree was built."""
    mem = make_mem(12, crypto_on=crypto_on)
    last = BASE + 11 * LINE_BYTES
    assert mem.read_line(last)[0] == bytes(LINE_BYTES)   # a cold tree walk
    mem.flush_metadata_cache()
    mem.write_line(last, b"\x5a" * LINE_BYTES)          # a cold VN fetch
    mem.flush_metadata_cache()
    assert mem.read_line(last)[0] == b"\x5a" * LINE_BYTES
    assert mem.vn_of(last) == 1
    if crypto_on:
        ref = VnTree(2, KEY)
        ref.build([(0,) * 8, (0, 0, 0, 1, 0, 0, 0, 0)])
        assert mem.tree.root == ref.root


def test_streaming_scan_amortized_metadata_traffic():
    # warm steady state of a forward scan: 1/8 VN-line + 1 MAC-line per read,
    # tree lines amortize to the node-line count over the region
    n = 4096
    mem = make_mem(n)
    for i in range(n):
        mem.read_line(BASE + i * LINE_BYTES)
    t = mem.totals
    n_vn_lines = n // 8
    assert t["vn_rd"] == n_vn_lines * LINE_BYTES           # exactly 1/8 per read
    assert t["mac_rd"] == n * LINE_BYTES                   # 1 MAC line per read
    node_lines = n_vn_lines // 8 + n_vn_lines // 64 + 1    # 64 + 8 + 1
    assert t["tree_rd"] == node_lines * LINE_BYTES
    # amortized extra lines per read: 1/8 VN + 1 MAC (+ ~0.018 tree)
    extra_lines = (t["vn_rd"] + t["tree_rd"]) / LINE_BYTES / n
    assert extra_lines < 0.15


def test_cached_node_lines_match_tree_after_deferred_rehash():
    # two write sweeps (the second hits every VN-line in the metadata cache,
    # so nothing verifies and the tree's rehashing stays pending), then a
    # cold read whose walk flushes: every cached node-line copy is current
    mem = make_mem(4096)
    for _ in range(2):
        for i in range(256):
            mem.write_line(BASE + i * LINE_BYTES, bytes([i % 251]) * LINE_BYTES)
    assert mem.tree._pending
    mem.read_line(BASE + 4000 * LINE_BYTES)
    cached = [(k, v) for k, v in mem.cache._d.items() if k[0] == "tn"]
    assert len(cached) > mem.tree.depth
    for (_, level, j), (line, _) in cached:
        assert line == mem.tree.node_line(level, j)


def test_cold_metadata_ratio_at_least_two_lines():
    mem = make_mem(4096)
    _, rep = mem.read_line(BASE + 2048 * LINE_BYTES, collect=True)
    assert (rep.vn_bytes + rep.mac_bytes) >= 2 * LINE_BYTES


def test_detection_campaign_no_misses():
    rng = random.Random(1234)
    mem = make_mem(256)
    for i in range(256):
        mem.write_line(BASE + i * LINE_BYTES, rng.randbytes(LINE_BYTES))
    detected = 0
    trials = 200
    for t in range(trials):
        idx = rng.randrange(256)
        pa = BASE + idx * LINE_BYTES
        kind = ("bitflip", "vn_tamper", "mac_tamper")[t % 3]
        mem.inject_attack(kind, pa, bit=rng.randrange(56))
        mem.flush_metadata_cache()
        try:
            mem.read_line(pa)
        except IntegrityFault:
            detected += 1
        # heal: undo VN tamper (a fresh write re-seals data and MAC)
        if kind == "vn_tamper":
            mem.inject_attack("vn_tamper", pa, delta=-1)
        mem.flush_metadata_cache()
        mem.write_line(pa, rng.randbytes(LINE_BYTES))
    assert detected == trials


def test_functional_equivalence_against_dict_oracle():
    rng = random.Random(42)
    mem = make_mem(128)
    oracle: dict[int, bytes] = {}
    for _ in range(2000):
        pa = BASE + rng.randrange(128) * LINE_BYTES
        if rng.random() < 0.5:
            data = rng.randbytes(LINE_BYTES)
            mem.write_line(pa, data)
            oracle[pa] = data
        else:
            plain, _ = mem.read_line(pa)
            assert plain == oracle.get(pa, b"\x00" * LINE_BYTES)
    view = _plaintexts(mem)
    for pa, data in oracle.items():
        assert view[mem.line_index(pa)] == data


def test_cost_report_csv_shape():
    rep = CostReport("R", 0x40, data_bytes=64, vn_bytes=64, mac_bytes=64,
                     tree_bytes=192, cycles=240)
    assert rep.csv_row() == "R,0x40,64,64,64,192,240"
    assert CostReport.csv_header() == "op,pa,data_bytes,vn_bytes,mac_bytes,tree_bytes,cycles"


def test_light_mode_same_metadata_traffic():
    full = make_mem(512, crypto_on=True)
    light = make_mem(512, crypto_on=False)
    for m in (full, light):
        for i in range(512):
            m.read_line(BASE + i * LINE_BYTES)
        for i in range(0, 512, 3):
            m.write_line(BASE + i * LINE_BYTES, b"\x00" * LINE_BYTES)
    for k in ("vn_rd", "tree_rd", "mac_rd", "data_rd", "vn_wr", "tree_wr"):
        assert full.totals[k] == light.totals[k], k


@pytest.mark.parametrize("crypto_on", [True, False])
def test_written_and_sealed_store_holds_at_most_128_bytes_a_line(crypto_on):
    # the flat store is 89 B a line (64 ciphertext, three 8 B fields, one
    # written byte); the rest is the tree, its pending leaves and the cache
    n = 1 << 16
    line = bytes(range(LINE_BYTES))
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        mem = make_mem(n, crypto_on=crypto_on)
        for i in range(n):
            mem.write_line(BASE + i * LINE_BYTES, line)
        tracemalloc.reset_peak()
        mem.seal()
        live, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert not mem._pending
    live, peak = (live - start) / n, (peak - start) / n
    assert live <= 128, f"{live:.1f} B/line live, seal peak {peak:.1f} B/line"


# -- deferred sealing ----------------------------------------------------------

class EagerProtectedMemory(ProtectedMemory):
    """The reference: ProtectedMemory as it was before sealing was deferred,
    every write encrypted and MACed at once by the scalar kernels."""

    def write_line(self, pa, plain, **kwargs):
        out = super().write_line(pa, plain, **kwargs)
        (idx, sink), = self._pending.items()
        self._pending.clear()
        code, vn, o = self._codes[idx], self._vns[idx], idx * LINE_BYTES
        data = int.from_bytes(self._ct[o:o + LINE_BYTES], "little") ^ \
            line_pad(self.key, code, vn)
        self._ct[o:o + LINE_BYTES] = data.to_bytes(LINE_BYTES, "little")
        self._macs[idx] = line_tag(self.key, code, vn, self._ct, o)
        if sink is not None:
            sink.append(self._macs[idx])
        return out


_SEAL_LINES = 64
_SEAL_OPS = st.lists(st.one_of(
    st.tuples(st.just("write"), st.integers(0, _SEAL_LINES - 1), st.integers(0, 255)),
    st.tuples(st.just("burst"), st.integers(0, _SEAL_LINES - 1),
              st.integers(1, 2 * SEAL_BATCH_MIN + 8), st.integers(0, 255)),
    st.tuples(st.just("read"), st.integers(0, _SEAL_LINES - 1)),
    st.tuples(st.just("snapshot"), st.integers(0, _SEAL_LINES - 1)),
    st.tuples(st.just("line_mac"), st.integers(0, _SEAL_LINES - 1)),
    st.tuples(st.just("view"),),
    st.tuples(st.just("tamper"),
              st.sampled_from(["bitflip", "mac_tamper", "vn_tamper", "replay"]),
              st.integers(0, _SEAL_LINES - 1), st.integers(0, 511)),
), max_size=30)


def _try_read(mem, pa):
    try:
        return mem.read_line(pa)[0]
    except IntegrityFault as e:
        return ("fault", e.kind)


def _observables(mem):
    return (dict(mem.totals), mem.cache.hits, mem.cache.misses, _store(mem),
            _plaintexts(mem), mem.tree.root)


@given(_SEAL_OPS)
@settings(max_examples=120, deadline=None)
def test_deferred_sealing_matches_eager_reference(ops):
    mems = [ProtectedMemory(BASE, _SEAL_LINES, KEY, metadata_cache_bytes=512),
            EagerProtectedMemory(BASE, _SEAL_LINES, KEY, metadata_cache_bytes=512)]
    deferred, eager = mems
    serial = 0

    def both(fn):
        return [fn(m) for m in mems]

    def write(line):
        nonlocal serial
        serial += 1
        data = (serial.to_bytes(4, "little") + line.to_bytes(4, "little")) * 8
        both(lambda m: m.write_line(BASE + line * LINE_BYTES, data))

    for op in ops:
        kind = op[0]
        if kind == "write":
            write(op[1])
        elif kind == "burst":
            for j in range(op[2]):
                write((op[1] + j) % _SEAL_LINES)
        elif kind == "read":
            a, b = both(lambda m: _try_read(m, BASE + op[1] * LINE_BYTES))
            assert a == b
        elif kind == "snapshot":
            a, b = both(lambda m: m.snapshot_triple(BASE + op[1] * LINE_BYTES))
            assert a == b
        elif kind == "line_mac":
            a, b = both(lambda m: m.line_mac(BASE + op[1] * LINE_BYTES))
            assert a == b
        elif kind == "view":
            a, b = both(_plaintexts)
            assert a == b
        else:
            _, attack, line, bit = op
            pa = BASE + line * LINE_BYTES
            heal = None
            if attack == "replay":
                snaps = both(lambda m: m.snapshot_triple(pa))
                write(line)
                heal = both(lambda m: m.snapshot_triple(pa))
                for m, snap in zip(mems, snaps):
                    m.inject_attack("replay", pa, snapshot=snap)
            else:
                both(lambda m: m.inject_attack(attack, pa, bit=bit))
            both(lambda m: m.flush_metadata_cache())
            # detected on the next read, even if the line was never written,
            # or written and never read, before the tamper
            assert both(lambda m: _try_read(m, pa)[0]) == ["fault", "fault"]
            if attack == "replay":
                for m, snap in zip(mems, heal):
                    m.inject_attack("replay", pa, snapshot=snap)
            elif attack == "vn_tamper":
                both(lambda m: m.inject_attack("vn_tamper", pa, delta=-1))
            else:
                both(lambda m: m.inject_attack(attack, pa, bit=bit))
            both(lambda m: m.flush_metadata_cache())
    assert _observables(deferred) == _observables(eager)


def test_writes_wait_for_one_batch_seal():
    mem = make_mem(256)
    n = 2 * SEAL_BATCH_MIN
    data = [bytes([i]) * LINE_BYTES for i in range(n)]
    for i in range(n):
        mem.write_line(BASE + i * LINE_BYTES, data[i])
    # each plaintext waits in the ciphertext array, with no MAC yet
    assert list(mem._pending) == list(range(n)) and not any(mem._macs[:n])
    assert bytes(mem._ct[:n * LINE_BYTES]) == b"".join(data)
    plain, _ = mem.read_line(BASE + 5 * LINE_BYTES)
    assert plain == data[5] and not mem._pending and all(mem._macs[:n])
    assert bytes(mem._ct[:LINE_BYTES]) != data[0]
    assert [mem.read_line(BASE + i * LINE_BYTES)[0] for i in range(n)] == data


def test_write_rejects_a_plaintext_that_is_not_one_line():
    mem = make_mem(16)
    with pytest.raises(ValueError, match="64 bytes"):
        mem.write_line(BASE, b"\x01" * 32)
    with pytest.raises(OverflowError):
        mem.write_line(BASE, 1 << 512)


def test_overwritten_pending_write_still_feeds_its_tag_sink():
    sinks = []
    for mem in (make_mem(64), EagerProtectedMemory(BASE, 64, KEY)):
        sink = []
        mem.write_line(BASE, b"\x01" * LINE_BYTES, tag_sink=sink)
        mem.write_line(BASE, b"\x02" * LINE_BYTES)
        mem.write_line(BASE + LINE_BYTES, b"\x03" * LINE_BYTES, tag_sink=sink)
        mem.install_lines(BASE + LINE_BYTES, [CipherBlock(
            0, CounterBinding(BindingMode.PHYSICAL_ADDR, BASE + LINE_BYTES), 7)],
            [0], 7)
        mem.seal()
        sinks.append(sink)
    assert len(sinks[0]) == 2 and sinks[0] == sinks[1]


def _tamper_mid_update(mem_cls, attack, k):
    """Update an 8-line Meta Table entry, tamper covered line k after it is
    written and before the update finishes, then sweep the tensor in order
    and read line k out of order twice. Returns what each read saw."""
    mem = mem_cls(BASE, 64, KEY)
    ta = TenAnalyzer(mem)
    assert ta.install_hint(BASE, 8) == "installed"
    pas = [BASE + i * LINE_BYTES for i in range(8)]
    snap = mem.snapshot_triple(pas[k])
    for i, pa in enumerate(pas):
        ta.on_write(pa, bytes([i + 1]) * LINE_BYTES)
        if i == k:
            mem.inject_attack(attack, pa, bit=5, snapshot=snap)

    def read(pa):
        try:
            plain, out = ta.on_read(pa)
            return out.kind, plain
        except IntegrityFault as e:
            return "fault", e.kind

    seen = [read(pa) for pa in pas] + [read(pas[k]), read(pas[k])]
    return seen, ta.stats["sweep_verifies"]


@pytest.mark.parametrize("k", [0, 3])
@pytest.mark.parametrize("attack", ["mac_tamper", "replay", "bitflip"])
def test_tamper_during_a_tensor_update_matches_eager_sealing(attack, k):
    deferred = _tamper_mid_update(ProtectedMemory, attack, k)
    assert deferred == _tamper_mid_update(EagerProtectedMemory, attack, k)
    seen, sweeps = deferred
    if attack == "mac_tamper":
        # the entry MAC folds the tags sealed on-chip, so the honest data
        # passes the sweep; the tampered MAC faults the per-line check
        assert seen[:9] == [(HIT_IN, bytes([i + 1]) * LINE_BYTES)
                            for i in range(8)] + [seen[k]]
        assert sweeps == 1 and seen[9] == ("fault", "mac_mismatch")
    else:
        assert sweeps == 0 and ("fault", "tensor_mac") in seen


# -- run reads and the write fast path -------------------------------------------

class _EveryPutCache(MetadataCache):
    """A metadata cache that never offers the write fast path."""

    @property
    def last_write(self):
        return None

    @last_write.setter
    def last_write(self, key):
        pass


class PerLineProtectedMemory(ProtectedMemory):
    """The reference: every read decrypted and verified alone by the scalar
    kernels, with no batch, and every write making all of its
    metadata-cache puts."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.cache = _EveryPutCache(self.cache.capacity * LINE_BYTES)

    def read_line(self, pa, collect=False):
        self.seal()
        t = self.totals
        t["reads"] += 1
        idx = self.line_index(pa)
        t["data_rd"] += LINE_BYTES
        vn, cold = self.resolve_vn(pa, t)
        ct, code = self.line(idx)
        t["cycles"] += AES_CYCLES + MAC_CYCLES
        t["mac_rd"] += LINE_BYTES
        plain = (int.from_bytes(ct, "little") ^ line_pad(self.key, code, vn)
                 ).to_bytes(LINE_BYTES, "little")
        if line_tag(self.key, code, vn, ct) != self._macs[idx]:
            raise IntegrityFault("mac_mismatch", f"pa={pa:#x}")
        if cold:
            self.walk_tree(pa, t)
        return plain, None

    def read_lines(self, pas):
        return [self.read_line(pa)[0] for pa in pas]


def _run_ops(n_lines):
    # mostly the first two VN-lines, so that ops meet the same lines often
    line = st.integers(0, 15) | st.integers(0, n_lines - 1)
    return st.lists(st.one_of(
        st.tuples(st.just("write"), line),
        st.tuples(st.just("burst"), line, st.integers(1, 20)),
        # a write run with a read of one other line after each write
        st.tuples(st.just("interleave"), line, st.integers(1, 6), line),
        st.tuples(st.just("read"), line),
        st.tuples(st.just("read_lines"), st.lists(line, max_size=2 * OPEN_BATCH_MIN + 4)),
        st.tuples(st.just("read_run"), line, st.integers(1, 3 * OPEN_BATCH_MIN)),
        st.tuples(st.just("flush"),),
        st.tuples(st.just("tamper"),
                  st.sampled_from(["bitflip", "mac_tamper", "vn_tamper", "replay"]),
                  line, st.integers(0, 511)),
    ), max_size=25)


def _cache_state(mem):
    return (list(mem.cache._d.items()), mem.cache.hits, mem.cache.misses,
            dict(mem.totals))


def _drive(mems, ops, n_lines):
    """Apply `ops` to every memory of `mems` alike. After each call, what it
    returned (plaintexts, or a fault's kind and detail), the cache and the
    totals must be equal."""
    serial = 0

    def both(fn):
        out = []
        for m in mems:
            try:
                out.append(fn(m))
            except IntegrityFault as e:
                out.append(("fault", e.kind, e.detail))
        assert out[0] == out[1], op
        a, b = (_cache_state(m) for m in mems)
        assert a == b, op
        return out

    def write(line):
        nonlocal serial
        serial += 1
        data = (serial.to_bytes(4, "little") + line.to_bytes(4, "little")) * 8
        pa = BASE + line * LINE_BYTES
        both(lambda m: m.write_line(pa, data))

    def read(line):
        both(lambda m: m.read_line(BASE + line * LINE_BYTES)[0])

    for op in ops:
        kind = op[0]
        if kind == "write":
            write(op[1])
        elif kind == "burst":
            for j in range(op[2]):
                write((op[1] + j) % n_lines)
        elif kind == "interleave":
            for j in range(op[2]):
                write((op[1] + j) % n_lines)
                read(op[3])
        elif kind == "read":
            read(op[1])
        elif kind in ("read_lines", "read_run"):
            lines = op[1] if kind == "read_lines" else \
                [(op[1] + j) % n_lines for j in range(op[2])]
            both(lambda m: m.read_lines([BASE + i * LINE_BYTES for i in lines]))
        elif kind == "flush":
            both(lambda m: m.flush_metadata_cache())
        elif not mems[0].key.null:   # the null cipher cannot see a tamper
            _, attack, line, bit = op
            pa = BASE + line * LINE_BYTES
            if attack == "replay":
                snaps = both(lambda m: m.snapshot_triple(pa))
                write(line)
                for m, snap in zip(mems, snaps):
                    m.inject_attack("replay", pa, snapshot=snap)
            else:
                both(lambda m: m.inject_attack(attack, pa, bit=bit))


@pytest.mark.parametrize("crypto_on", [True, False])
@pytest.mark.parametrize("n_lines, cache_bytes", [
    (64, 512),     # a one-level tree
    (512, 192),    # a two-level tree; the cache holds just one write's keys
    (512, 128),    # a write's keys do not fit: no fast path
    (68, 512),     # the last VN-line holds four lines
])
@given(data=st.data())
@settings(max_examples=100, deadline=None)
def test_run_reads_and_write_fast_path_match_per_line_reference(
        crypto_on, n_lines, cache_bytes, data):
    mems = [cls(BASE, n_lines, KEY, metadata_cache_bytes=cache_bytes,
                crypto_on=crypto_on)
            for cls in (ProtectedMemory, PerLineProtectedMemory)]
    _drive(mems, data.draw(_run_ops(n_lines)), n_lines)
    fast, ref = mems
    assert _store(fast) == _store(ref)
    if crypto_on:
        assert fast.tree.root == ref.tree.root
