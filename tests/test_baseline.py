"""Baseline (SGX-like) protected-memory tests: itemized cost accounting,
metadata-cache behavior, attack detection, functional equivalence against a
plain dict oracle, deferred sealing against an eager reference, and run
reads, run writes and the write fast path against per-line references, for
the protected and the plain (NonSecure) memory."""

import copy
import random
import sys
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from teesim.baseline import (
    AES_CYCLES, MAC_CYCLES, OPEN_CHUNK_LINES, CostReport, MetadataCache,
    PlainMemory, ProtectedMemory,
)
from teesim.crypto import (
    MASK56, OPEN_BATCH_MIN, SEAL_BATCH_MIN, BindingMode, CounterBinding,
    IntegrityFault, KeyMaterial, LINE_BYTES, VnTree, binding_code, line_pad,
    line_tag, open_lines,
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
    """Every field the store keeps, sealed: ciphertexts, MACs, VNs and
    binding codes."""
    macs = list(mem.macs)
    return bytes(mem._ct), macs, list(mem._vns), list(mem._codes)


def _cost(mem, op, pa, plain=None):
    """One read ("R") or write ("W") of line `pa`, and its CostReport: the
    change in `mem.totals` (`CostReport.between`)."""
    before = dict(mem.totals)
    if op == "R":
        mem.read_line(pa)
    else:
        mem.write_line(pa, plain)
    return CostReport.between(op, pa, before, mem.totals)


def test_cold_read_cost_with_three_level_tree():
    mem = make_mem(4096)  # 512 VN-lines -> depth 3
    assert mem.tree.depth == 3
    rep = _cost(mem, "R", BASE)
    assert rep.data_bytes == LINE_BYTES
    assert rep.vn_bytes == LINE_BYTES
    assert rep.mac_bytes == LINE_BYTES
    assert rep.tree_bytes == 3 * LINE_BYTES


def test_second_read_hits_metadata_cache():
    mem = make_mem()
    mem.read_line(BASE)
    rep = _cost(mem, "R", BASE)
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
    rep = _cost(mem, "W", BASE, b"\x01" * LINE_BYTES)
    assert rep.tree_bytes == mem.tree.depth * LINE_BYTES
    assert (rep.data_bytes, rep.vn_bytes, rep.mac_bytes) == (LINE_BYTES,) * 3


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


@pytest.mark.parametrize("attack", ["replay", "vn_tamper"])
def test_attack_on_a_pending_tree_leaf_faults_the_tree_walk(attack):
    # explicit-VN writes, as covered writes are, walk no tree path, so their
    # leaf is still pending when the attack rolls its VN back to 1. A replay
    # restores a matching MAC, so only the walk of the next read can fault;
    # after a VN tamper a read faults on the MAC first, so a write, whose VN
    # fetch has no MAC check, takes the walk
    mem = make_mem(64)
    pa = BASE + 3 * LINE_BYTES
    mem.write_line(pa, b"\x01" * LINE_BYTES, vn=1)
    snap = mem.snapshot_triple(pa)
    mem.write_line(pa, b"\x02" * LINE_BYTES, vn=2)
    assert mem.tree._root_stale
    mem.inject_attack(attack, pa, snapshot=snap, delta=-1)
    mem.flush_metadata_cache()
    with pytest.raises(IntegrityFault) as ei:
        if attack == "replay":
            mem.read_line(pa)
        else:
            mem.write_line(pa, b"\x03" * LINE_BYTES)
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
    # a never-written line holds the zeros sealed when the memory was built,
    # so its tamper alters that MAC and its first read checks against it
    mem = ProtectedMemory(0x1000, 64, KEY)
    mem.inject_attack("mac_tamper", 0x10C0)
    mem.flush_metadata_cache()
    with pytest.raises(IntegrityFault):
        mem.read_line(0x10C0)


@pytest.mark.parametrize("crypto_on", [True, False])
def test_a_new_memory_holds_zeros_sealed_under_vn_0(crypto_on):
    # more lines than one construction chunk, so a chunk edge is crossed
    n = OPEN_CHUNK_LINES + 3
    mem = make_mem(n, crypto_on=crypto_on)
    assert not mem._pending and not any(mem._vns)
    for idx in range(n):
        ct, code = mem.line(idx)
        pa = BASE + idx * LINE_BYTES
        assert code == CounterBinding(BindingMode.PHYSICAL_ADDR, pa)._code
        assert ct == line_pad(mem.key, code, 0).to_bytes(LINE_BYTES, "little")
        assert mem._macs[idx] == line_tag(mem.key, code, 0, ct)
    assert _plaintexts(mem) == [bytes(LINE_BYTES)] * n


@pytest.mark.parametrize("crypto_on", [True, False])
def test_open_line_opens_one_line_under_any_vn(crypto_on):
    data = bytes(range(LINE_BYTES))
    mem, twin = make_mem(64, crypto_on=crypto_on), make_mem(64, crypto_on=crypto_on)
    for m in (mem, twin):
        m.write_line(BASE + LINE_BYTES, data)
    # a written line opens as a batch open does, its pending write sealed first
    assert list(mem._pending) == ([1] if crypto_on else [])
    tag, plain = mem.open_line(1, mem._vns[1])
    assert not mem._pending
    _, _, tags, plains, _ = next(twin.open_chunks([BASE + LINE_BYTES]))
    assert (tag, plain) == (tags[0], plains[0]) == (mem._macs[1], data)
    assert _store(mem) == _store(twin)
    # under another VN: the per-line kernels at that VN, over the stored line
    for idx in (1, 2):
        ct, code = mem.line(idx)
        tag, plain = mem.open_line(idx, 9)
        assert tag == line_tag(mem.key, code, 9, ct) != mem._macs[idx]
        pad = line_pad(mem.key, code, 9)
        assert plain == (int.from_bytes(ct, "little") ^ pad).to_bytes(LINE_BYTES, "little")
    assert _store(mem) == _store(twin)


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
        leaves = [(0,) * 8, (0, 0, 0, 1, 0, 0, 0, 0)]
        ref = VnTree(2, KEY, leaves.__getitem__)
        ref.build(leaves)
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
    # cold read whose walk stops at the cached level-2 node-line, cleaning
    # it and every stale node-line below it: every cached copy is current
    mem = make_mem(4096)
    for _ in range(2):
        for i in range(256):
            mem.write_line(BASE + i * LINE_BYTES, bytes([i % 251]) * LINE_BYTES)
    assert mem.tree._root_stale
    mem.read_line(BASE + 4000 * LINE_BYTES)
    cached = [(k, v) for k, v in mem.cache._d.items() if k[0] == "tn"]
    assert len(cached) > mem.tree.depth
    for (_, level, j), (line, _) in cached:
        assert line == mem.tree.node_line(level, j)


def _tree_of(mem):
    """A fresh `VnTree.build` of the memory's VN-lines."""
    ref = VnTree(mem.tree.n_leaves, KEY, mem._vn_line)
    ref.build([mem._vn_line(li) for li in range(len(mem._vns) // 8)])
    return ref


def _vn_line_pa(li):
    return BASE + li * 8 * LINE_BYTES


# explicit-VN writes, as covered writes are, walk no tree path, so they
# leave their leaves' entries and ancestors stale; VN-lines 2, 20 and 300
# sit under level-0 node-lines 0, 2 and 37 and level-1 node-lines 0, 0 and 4
_PENDING_WRITES = (2, 20, 300)


@pytest.mark.parametrize("stop_level, vn_line", [(0, 1), (1, 8), (2, 64), (3, 64)])
def test_cached_node_walks_stop_at_each_level_as_the_eager_tree(stop_level, vn_line):
    """A cold read of VN-line `vn_line` whose walk stops at a cached
    node-line of `stop_level` (3: the root), with writes pending in this
    and other subtrees, charges what it charges after a full flush, and
    leaves the root and cached node-lines of a fresh build."""
    mems = [make_mem(4096, cache_bytes=16 * LINE_BYTES) for _ in range(2)]
    for mem in mems:
        # the cold walk of VN-line 0 caches node-lines (0, 0), (1, 0), (2, 0)
        mem.read_line(_vn_line_pa(0))
        for li in _PENDING_WRITES:
            mem.write_line(_vn_line_pa(li), b"\x07" * LINE_BYTES, vn=5)
        if stop_level == 3:
            mem.flush_metadata_cache()
    lazy, eager = mems
    eager.tree.flush()
    assert lazy.tree._root_stale and not eager.tree._root_stale
    before = dict(lazy.totals)
    for mem in mems:
        mem.read_line(_vn_line_pa(vn_line))
    assert lazy.totals["tree_rd"] - before["tree_rd"] == stop_level * LINE_BYTES
    assert lazy.totals == eager.totals
    # the walk cleaned only what it read: other writes are still pending
    assert lazy.tree._root_stale == (stop_level < 3)
    ref = _tree_of(lazy)
    assert lazy.tree.root == eager.tree.root == ref.root
    cached = [(k, v) for k, v in lazy.cache._d.items() if k[0] == "tn"]
    assert cached == [(k, v) for k, v in eager.cache._d.items() if k[0] == "tn"]
    for (_, level, j), (line, _) in cached:
        assert line == ref.node_line(level, j)


@pytest.mark.parametrize("attack", ["replay", "vn_tamper"])
@pytest.mark.parametrize("warm, later, stop_level", [(8, (20, 300), 1), (64, (100, 300), 2)])
def test_attack_faults_a_walk_at_a_cached_node_line_with_stale_entries(
        attack, warm, later, stop_level):
    """An attack on VN-line 0 faults the walk that stops at a cached
    interior node-line (`stop_level`, warmed by a cold read of VN-line
    `warm`) that holds stale entries from `later` writes of other leaves.
    A replay restores a matching MAC, so a read takes the walk; after a VN
    tamper a read faults on the MAC first, so a write takes it."""
    mem = make_mem(4096, cache_bytes=16 * LINE_BYTES)
    pa = BASE + 3 * LINE_BYTES
    mem.write_line(pa, b"\x01" * LINE_BYTES, vn=1)
    snap = mem.snapshot_triple(pa)
    mem.write_line(pa, b"\x02" * LINE_BYTES, vn=2)
    mem.inject_attack(attack, pa, snapshot=snap, delta=-1)
    mem.flush_metadata_cache()
    mem.read_line(_vn_line_pa(warm))
    for li in later:
        mem.write_line(_vn_line_pa(li), b"\x07" * LINE_BYTES, vn=5)
    assert mem.cache.peek(("tn", stop_level, 0)) == ()
    assert mem.tree._stale[stop_level][0]
    with pytest.raises(IntegrityFault) as ei:
        if attack == "replay":
            mem.read_line(pa)
        else:
            mem.write_line(pa, b"\x03" * LINE_BYTES)
    assert ei.value.kind == "replay_or_tamper"
    assert f"cached node L{stop_level}/0" in str(ei.value)


def test_cold_metadata_ratio_at_least_two_lines():
    mem = make_mem(4096)
    rep = _cost(mem, "R", BASE + 2048 * LINE_BYTES)
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


@pytest.mark.parametrize("crypto_on, vn", [(True, None), (False, None),
                                           (True, 1), (False, 1)],
                         ids=["True", "False", "True-vn1", "False-vn1"])
def test_written_and_sealed_store_holds_at_most_128_bytes_a_line(crypto_on, vn):
    # the flat store is 89 B a line (64 ciphertext, three 8 B fields, the
    # sealed byte); the rest is the tree, its pending leaves and the cache.
    # Explicit-VN writes, as covered writes are, walk no tree path, so every
    # leaf they dirty stays pending
    n = 1 << 16
    line = bytes(range(LINE_BYTES))
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        mem = make_mem(n, crypto_on=crypto_on)
        for i in range(n):
            mem.write_line(BASE + i * LINE_BYTES, line, vn=vn)
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
    built = list(mem._macs[:n])
    for i in range(n):
        mem.write_line(BASE + i * LINE_BYTES, data[i])
    # each plaintext waits in the ciphertext array, its MAC not yet updated
    assert list(mem._pending) == list(range(n)) and list(mem._macs[:n]) == built
    assert bytes(mem._ct[:n * LINE_BYTES]) == b"".join(data)
    plain, _ = mem.read_line(BASE + 5 * LINE_BYTES)
    assert plain == data[5] and not mem._pending
    assert all(mac != old for mac, old in zip(mem._macs[:n], built))
    assert bytes(mem._ct[:LINE_BYTES]) != data[0]
    assert [mem.read_line(BASE + i * LINE_BYTES)[0] for i in range(n)] == data


def test_write_rejects_a_plaintext_that_is_not_one_line():
    # before it charges or changes anything
    mem = make_mem(16)

    def state():
        return (_cache_state(mem), list(mem._vns), mem.tree.root, _store(mem))

    before = state()
    with pytest.raises(ValueError, match="64 bytes"):
        mem.write_line(BASE, b"\x01" * 32)
    assert state() == before
    with pytest.raises(OverflowError):
        mem.write_line(BASE, 1 << 512)
    with pytest.raises(ValueError, match="64 bytes"):
        mem.write_lines([BASE, BASE + LINE_BYTES], [bytes(LINE_BYTES), b"short"])
    assert state() == before


def test_overwritten_pending_write_still_feeds_its_tag_sink():
    sinks = []
    for mem in (make_mem(64), EagerProtectedMemory(BASE, 64, KEY)):
        sink = []
        mem.write_line(BASE, b"\x01" * LINE_BYTES, vn=1, tag_sink=sink)
        mem.write_line(BASE, b"\x02" * LINE_BYTES)
        mem.write_line(BASE + LINE_BYTES, b"\x03" * LINE_BYTES, vn=1, tag_sink=sink)
        mem.install_lines(BASE + LINE_BYTES, [CounterBinding(
            BindingMode.PHYSICAL_ADDR, BASE + LINE_BYTES).code()],
            bytes(LINE_BYTES), [0], 7)
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
    """A metadata cache that never batches: each write makes its `get` and
    every one of its puts."""

    def batch_holds(self, vkey):
        return False

    def batch_get(self, vkey, n):
        return self.get(vkey) is not None

    def batch_put(self, vkey, path):
        evicted = []
        for level, j in path:
            evicted += self.put(("tn", level, j), (), dirty=True)
        evicted += self.put(vkey, True, dirty=True)
        return evicted


class LoopProtectedMemory(ProtectedMemory):
    """The reference for the run methods: `read_lines` and `write_lines` as
    loops of one-line calls."""

    def read_lines(self, pas):
        return [self.read_line(pa)[0] for pa in pas]

    def write_lines(self, pas, plains, sources=None):
        for i, (pa, plain) in enumerate(zip(pas, plains)):
            super().write_lines((pa,), (plain,), None if sources is None else (sources[i],))


class PerLineProtectedMemory(LoopProtectedMemory):
    """The reference: every read decrypted and verified alone by the scalar
    kernels, with no batch, and every write a call of its own, making all
    of its metadata-cache puts."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.cache = _EveryPutCache(self.cache.capacity * LINE_BYTES)

    def read_line(self, pa):
        self.seal()
        t = self.totals
        t["reads"] += 1
        idx = self.line_index(pa)
        t["data_rd"] += LINE_BYTES
        vn, cold = self.resolve_vn(pa)
        ct, code = self.line(idx)
        t["cycles"] += AES_CYCLES + MAC_CYCLES
        t["mac_rd"] += LINE_BYTES
        plain = (int.from_bytes(ct, "little") ^ line_pad(self.key, code, vn)
                 ).to_bytes(LINE_BYTES, "little")
        if line_tag(self.key, code, vn, ct) != self._macs[idx]:
            raise IntegrityFault("mac_mismatch", f"pa={pa:#x}")
        if cold:
            self.walk_tree(pa)
        return plain, None


_SOURCE = st.none() | st.tuples(st.booleans(), st.sampled_from([None, 0, 1]))


def _sources(m, lines, sources):
    """The VN sources `write_lines` takes on memory `m` for the lines
    `lines` and the drawn `sources`: VN 3 for an explicit one."""
    return [None if src is None else
            (3, binding_code(BindingMode.TENSOR_LOGICAL, 9, i * LINE_BYTES) if src[0] else None,
             None if src[1] is None else m.sinks[src[1]])
            for i, src in zip(lines, sources)]


def _line(n_lines):
    # mostly the first two VN-lines, so that ops meet the same lines often
    return st.integers(0, 15) | st.integers(0, n_lines - 1)


def _run_ops(n_lines, *extra):
    """Lists of the ops `_drive` applies, and of the `extra` ops drawn."""
    line = _line(n_lines)
    return st.lists(st.one_of(
        st.tuples(st.just("write"), line),
        # each line with its source: None, or an explicit VN with or
        # without a tensor-logical code and with one of two tag sinks or none
        st.tuples(st.just("write_lines"),
                  st.lists(st.tuples(line, _SOURCE), min_size=1, max_size=20)),
        # consecutive lines from a first one under one explicit source, then
        # misses: one call that may store by slices
        st.tuples(st.just("write_span"), line, st.integers(1, 24), _SOURCE.filter(bool),
                  st.lists(line, max_size=4)),
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
        *extra,
    ), max_size=25)


def _settled(cache):
    """A copy of `cache` as ending its open write batch would leave it; the
    batch of `cache` itself stays open."""
    out = copy.copy(cache)
    out._d, out._batch, out._batch_nodes = cache._d.copy(), dict(cache._batch), set()
    out.end_batch()
    return out


def _cache_state(mem):
    cache = _settled(mem.cache)
    return list(cache._d.items()), cache.hits, cache.misses, dict(mem.totals)


def _full_state(mem):
    """`_cache_state` and the writes waiting to be sealed, each with what
    its tag sink holds."""
    return (_cache_state(mem),
            [(idx, sink if sink is None else list(sink))
             for idx, sink in mem._pending.items()])


def _drive(mems, ops, n_lines, state=_cache_state):
    """Apply `ops` to every memory of `mems` alike. After each call, what it
    returned (plaintexts, or a fault's kind and detail) and `state` (by
    default the cache and the totals) must be equal."""
    serial = 0
    for m in mems:
        m.sinks = [], []

    def both(fn):
        out = []
        for m in mems:
            try:
                out.append(fn(m))
            except IntegrityFault as e:
                out.append(("fault", e.kind, e.detail))
        assert out[0] == out[1], op
        a, b = (state(m) for m in mems)
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
        elif kind in ("write_lines", "write_span"):
            if kind == "write_lines":
                lines, sources = zip(*op[1])
            else:
                _, first, count, src, misses = op
                lines = [*range(first, min(first + count, n_lines)), *misses]
                sources = [src] * (len(lines) - len(misses)) + [None] * len(misses)
            pas = [BASE + i * LINE_BYTES for i in lines]
            data = [(serial + j).to_bytes(4, "little") * 16 for j in range(len(lines))]
            serial += len(lines)
            both(lambda m: m.write_lines(pas, data, _sources(m, lines, sources)))
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
        elif kind == "install":
            # lines sealed elsewhere under tensor-logical codes and one VN,
            # the last one's tag altered if `bad`
            _, first, count, bad = op
            n = min(count, n_lines - first)
            codes = [binding_code(BindingMode.TENSOR_LOGICAL, 11, i * LINE_BYTES)
                     for i in range(n)]
            cts = b"".join((serial + j).to_bytes(8, "little") * 8 for j in range(n))
            vn = serial & 0xFF
            serial += n
            tags = open_lines(mems[0].key, codes, cts, vn, decrypt=False)[0]
            if bad:
                tags[-1] ^= 1
            both(lambda m: m.install_lines(BASE + first * LINE_BYTES, codes, cts, tags, vn))
        elif kind == "open":
            # under the VN the line holds, or another
            _, line, dv = op
            both(lambda m: m.open_line(line, (m._vns[line] + dv) & MASK56))
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
    assert _store(fast) == _store(ref) and fast.sinks == ref.sinks
    if crypto_on:
        assert fast.tree.root == ref.tree.root


@pytest.mark.parametrize("crypto_on", [True, False])
@pytest.mark.parametrize("n_lines, cache_bytes", [(64, 512), (512, 192), (68, 512)])
@given(data=st.data())
@settings(max_examples=60, deadline=None)
def test_run_methods_match_one_line_calls(crypto_on, n_lines, cache_bytes, data):
    # also the pending writes and their sinks, after every call, faulting
    # or not
    mems = [cls(BASE, n_lines, KEY, metadata_cache_bytes=cache_bytes,
                crypto_on=crypto_on)
            for cls in (ProtectedMemory, LoopProtectedMemory)]
    _drive(mems, data.draw(_run_ops(n_lines)), n_lines, state=_full_state)
    run, ref = mems
    assert _store(run) == _store(ref) and run.sinks == ref.sinks
    assert run.tree.root == ref.tree.root


@pytest.mark.parametrize("cache_bytes", [192, 512])
def test_a_per_line_write_sweep_across_two_vn_lines_matches_the_every_put_loop(cache_bytes):
    # with both VN-lines cached, the batch stays open across the one-line
    # calls when the cache holds both VN-lines' keys (512 B), so each
    # VN-line's later writes make no puts; 192 B hold one write's keys, and
    # the batch ends at VN-line 1
    mems = [cls(BASE, 512, KEY, metadata_cache_bytes=cache_bytes)
            for cls in (ProtectedMemory, PerLineProtectedMemory)]
    _drive(mems, [("read", 0), ("read", 8)] + [("write", i) for i in range(16)], 512)
    held = [("vn", 0), ("vn", 1)] if cache_bytes == 512 else [("vn", 1)]
    assert list(mems[0].cache._batch) == held
    _drive(mems, [("read", 3)], 512)
    assert not mems[0].cache._batch
    assert _store(mems[0]) == _store(mems[1])


def test_write_lines_keeps_the_totals_of_the_lines_before_a_fault():
    # a replayed VN-line faults the cold walk of the third write
    mems = [cls(BASE, 64, KEY) for cls in (ProtectedMemory, LoopProtectedMemory)]
    for m in mems:
        m.write_line(BASE + 16 * LINE_BYTES, b"\x01" * LINE_BYTES)
        snap = m.snapshot_triple(BASE + 16 * LINE_BYTES)
        m.write_line(BASE + 16 * LINE_BYTES, b"\x02" * LINE_BYTES)
        m.inject_attack("replay", BASE + 16 * LINE_BYTES, snapshot=snap)
        m.flush_metadata_cache()
    pas = [BASE, BASE + LINE_BYTES, BASE + 17 * LINE_BYTES, BASE + 2 * LINE_BYTES]
    seen = []
    for m in mems:
        with pytest.raises(IntegrityFault) as f:
            m.write_lines(pas, [bytes([i]) * LINE_BYTES for i in range(4)])
        seen.append((f.value.kind, _full_state(m), _store(m)))
    assert seen[0] == seen[1]
    assert mems[0].totals["writes"] == 2 + 3 and mems[0].totals["data_wr"] == 4 * LINE_BYTES


@pytest.mark.parametrize("crypto_on", [True, False])
def test_read_lines_opens_in_bounded_chunks(crypto_on):
    # the transient peak of a long run read is that of one chunk plus the
    # plaintexts it returns
    n = 4 * OPEN_CHUNK_LINES
    # a cache that holds every VN-line and node-line, so that no read walks
    # the tree and refills it
    mem = make_mem(n, cache_bytes=n * LINE_BYTES, crypto_on=crypto_on)
    pas = [BASE + i * LINE_BYTES for i in range(n)]
    for pa in pas:
        mem.write_line(pa, bytes(range(LINE_BYTES)))
    mem.seal()
    mem.read_lines(pas)

    def peak(k):
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            out = mem.read_lines(pas[:k])
            return tracemalloc.get_traced_memory()[1] - start, out
        finally:
            tracemalloc.stop()

    one_chunk, _ = peak(OPEN_CHUNK_LINES)
    whole, out = peak(n)
    returned = n * (len(out) and sys.getsizeof(out[0]) + 8)
    assert whole <= one_chunk + returned, (whole, one_chunk, returned)


# -- sealed-line tags ----------------------------------------------------------------

class RecomputingProtectedMemory(ProtectedMemory):
    """The reference: every open MACs its lines, as opens did before a
    sealed line took its stored MAC as its tag."""

    def open_line(self, idx, vn):
        ct, code = self.line(idx)
        plain = (int.from_bytes(ct, "little") ^ line_pad(self.key, code, vn)).to_bytes(
            LINE_BYTES, "little")
        return line_tag(self.key, code, vn, ct), plain

    def open_chunks(self, pas):
        pas = list(pas)
        for lo in range(0, len(pas), OPEN_CHUNK_LINES):
            chunk = pas[lo:lo + OPEN_CHUNK_LINES]
            idxs = self.all_line_indices(chunk)
            self.seal()
            vns = [self._vns[i] for i in idxs]
            tags, plains = open_lines(self.key, [self._codes[i] for i in idxs],
                                      b"".join(self.line(i)[0] for i in idxs), vns)
            yield chunk, idxs, tags, plains, vns


def _sealed_state(mem):
    """`_full_state` and the stored MACs, none sealed for the look; each
    line marked sealed and not pending must hold the MAC that MACing it
    gives."""
    for idx in range(mem.n_lines):
        if mem._sealed[idx] and idx not in mem._pending:
            assert mem._macs[idx] == line_tag(mem.key, mem._codes[idx], mem._vns[idx],
                                              mem._ct, idx * LINE_BYTES), idx
    return _full_state(mem), list(mem._macs)


@pytest.mark.parametrize("crypto_on", [True, False])
@pytest.mark.parametrize("n_lines, cache_bytes", [(64, 512), (512, 192)])
@given(data=st.data())
@settings(max_examples=60, deadline=None)
def test_sealed_tag_shortcut_matches_recomputed_tags(crypto_on, n_lines, cache_bytes, data):
    # per-line and run reads and writes, installs (honest, or with an
    # altered tag), each tamper, flushes and opens under the held VN or
    # another, against opens that always MAC
    line = _line(n_lines)
    ops = data.draw(_run_ops(
        n_lines,
        st.tuples(st.just("install"), line, st.integers(1, 2 * OPEN_BATCH_MIN),
                  st.booleans()),
        st.tuples(st.just("open"), line, st.sampled_from([0, 0, 1, 7]))))
    mems = [cls(BASE, n_lines, KEY, metadata_cache_bytes=cache_bytes, crypto_on=crypto_on)
            for cls in (ProtectedMemory, RecomputingProtectedMemory)]
    _drive(mems, ops, n_lines, state=_sealed_state)
    fast, ref = mems
    assert _store(fast) == _store(ref) and fast.sinks == ref.sinks
    assert _sealed_state(fast) == _sealed_state(ref)


_TA_LINES = 128
_TA_ENTRY = 32


@pytest.mark.parametrize("crypto_on", [True, False])
@given(ops=st.lists(st.one_of(
    st.tuples(st.just("read"), st.integers(0, 2 * _TA_ENTRY)),
    st.tuples(st.just("read_lines"), st.integers(0, 2 * _TA_ENTRY),
              st.integers(1, _TA_ENTRY + OPEN_BATCH_MIN)),
    st.tuples(st.just("write"), st.integers(0, 2 * _TA_ENTRY)),
    st.tuples(st.just("write_lines"), st.integers(0, 2 * _TA_ENTRY),
              st.integers(1, _TA_ENTRY + 4)),
    # a tamper of a line of the covered entry
    st.tuples(st.just("tamper"),
              st.sampled_from(["bitflip", "mac_tamper", "vn_tamper", "replay"]),
              st.integers(0, _TA_ENTRY - 1), st.integers(0, 511)),
    st.tuples(st.just("flush"),),
), max_size=20), hint_vn=st.sampled_from([None, 3]))
@settings(max_examples=80, deadline=None)
def test_sealed_tag_shortcut_through_the_analyzer_matches_recomputed_tags(
        crypto_on, ops, hint_vn):
    # TenAnalyzer per-line reads and read runs over a covered entry of
    # lines 0-31, its boundary and misses, against opens that always MAC.
    # The entry's VN is the one its lines hold, or one they do not hold
    sides = []
    for cls in (ProtectedMemory, RecomputingProtectedMemory):
        mem = cls(BASE, _TA_LINES, KEY, metadata_cache_bytes=1024, crypto_on=crypto_on)
        ta = TenAnalyzer(mem)
        assert ta.install_hint(BASE, _TA_ENTRY, tensor_id=7, vn=hint_vn) == "installed"
        sides.append(ta)
    serial = 0

    def state(ta):
        mem = ta.mem
        return (dict(ta.stats), [(e.dump(), e.mac, e.lru) for e in ta.entries],
                _sealed_state(mem))

    def both(fn):
        out = []
        for ta in sides:
            try:
                out.append(fn(ta))
            except IntegrityFault as e:
                out.append(("fault", e.kind, e.detail))
        assert out[0] == out[1], op
        assert state(sides[0]) == state(sides[1]), op

    def pas(first, count):
        return [BASE + i * LINE_BYTES for i in range(first, min(first + count, _TA_LINES))]

    def plains(n):
        nonlocal serial
        serial += n
        return [(serial - j).to_bytes(8, "little") * 8 for j in range(n)]

    for op in ops:
        kind = op[0]
        if kind == "read":
            both(lambda ta: ta.on_read(BASE + op[1] * LINE_BYTES))
        elif kind == "read_lines":
            both(lambda ta: ta.read_lines(pas(op[1], op[2])))
        elif kind == "write":
            data, = plains(1)
            both(lambda ta: ta.on_write(BASE + op[1] * LINE_BYTES, data))
        elif kind == "write_lines":
            vas = pas(op[1], op[2])
            data = plains(len(vas))
            both(lambda ta: ta.write_lines(vas, data))
        elif kind == "flush":
            both(lambda ta: ta.mem.flush_metadata_cache())
        elif crypto_on:   # the null cipher cannot see a tamper
            _, attack, line, bit = op
            pa = BASE + line * LINE_BYTES
            snaps = [ta.mem.snapshot_triple(pa) for ta in sides]
            if attack == "replay":
                data, = plains(1)
                both(lambda ta: ta.on_write(pa, data))
            for ta, snap in zip(sides, snaps):
                ta.mem.inject_attack(attack, pa, bit=bit, snapshot=snap)
            assert state(sides[0]) == state(sides[1]), op


def test_sealed_tags_are_read_only_to_callers():
    mem = make_mem(16)
    mem.write_line(BASE, b"\x01" * LINE_BYTES)
    macs = mem.macs
    assert not mem._pending and macs[0] == mem._macs[0]
    with pytest.raises(TypeError):
        macs[0] = 1
    assert macs is mem.macs


@pytest.mark.parametrize("bad", [-LINE_BYTES, 16 * LINE_BYTES, 3 * LINE_BYTES + 1],
                         ids=["below", "above", "unaligned"])
@pytest.mark.parametrize("call", ["protected_plaintexts", "export_lines", "plain_plaintexts"])
def test_oracle_and_export_paths_reject_a_bad_address(call, bad):
    mem = PlainMemory(BASE, 16) if call == "plain_plaintexts" else make_mem(16)
    fn = mem.export_lines if call == "export_lines" else mem.plaintexts
    pas = [BASE, BASE + 5 * LINE_BYTES]
    fn(pas)
    with pytest.raises(ValueError, match="outside the region or unaligned"):
        fn(pas + [BASE + bad, BASE + LINE_BYTES])


# -- batched metadata-cache touches ------------------------------------------------

_DEPTH = 2


def _node_path(li):
    """The (level, line) node-lines a write of VN-line `li` dirties, in a
    tree of `_DEPTH` levels."""
    return [(level, li >> 3 * (level + 1)) for level in range(_DEPTH)]


def _walk_puts(cache, li, drained):
    """What a cold walk of VN-line `li` caches: its node-lines, clean and
    with contents, then the VN-line."""
    for level, j in _node_path(li):
        drained += cache.put(("tn", level, j), (level, j))
    drained += cache.put(("vn", li), True)


def _touch_loop(cache, writes, drained):
    """The reference: each write of VN-line `li` (looking its VN up first if
    `lookup`) makes every `get` and `put` of the per-write loop."""
    for li, lookup in writes:
        vkey = ("vn", li)
        if lookup and cache.get(vkey) is None:
            _walk_puts(cache, li, drained)
        for level, j in _node_path(li):
            drained += cache.put(("tn", level, j), (), dirty=True)
        drained += cache.put(vkey, True, dirty=True)


class _CountingCache(MetadataCache):
    """Counts the batches it ends and checks, at each batched touch, that a
    batch never holds more distinct keys than the cache does."""

    ends = 0

    def _check(self):
        assert len(self._batch) + len(self._batch_nodes) <= self.capacity

    def end_batch(self):
        self.ends += bool(self._batch)
        super().end_batch()

    def batch_put(self, vkey, path):
        out = super().batch_put(vkey, path)
        self._check()
        return out


def _touch_batch(cache, writes, drained):
    """The same writes in the open batch, as `ProtectedMemory.write_indexed`
    touches the cache; the batch stays open."""
    for li, lookup in writes:
        vkey = ("vn", li)
        held = cache.batch_holds(vkey)
        if lookup:
            if held:
                cache.hits += 1
            elif not cache.batch_get(vkey, _DEPTH + 1):
                _walk_puts(cache, li, drained)
        if not held:
            drained += cache.batch_put(vkey, _node_path(li))


def _cache_view(cache, drained):
    cache = _settled(cache)
    return list(cache._d.items()), drained, cache.hits, cache.misses


@pytest.mark.parametrize("span", [2, 9, 20])
@pytest.mark.parametrize("capacity", [2, 12])
@given(data=st.data())
@settings(max_examples=60, deadline=None)
def test_batched_touches_match_the_put_and_get_loop(span, capacity, data):
    # 12 keys hold the 2 + 1 + 1 distinct keys of two VN-lines, exactly the
    # 9 + 2 + 1 of nine, and not the 20 + 3 + 1 of twenty; 2 keys hold no
    # write's 3
    write = st.tuples(st.integers(0, span - 1), st.booleans())
    calls = data.draw(st.lists(st.tuples(
        st.lists(write, max_size=3 * span),
        # what other operations do between two calls: get or put of a key
        # of another VN-line, or of one of these
        st.lists(st.tuples(st.booleans(), st.integers(0, 2 * span)), max_size=3)),
        min_size=1, max_size=4))
    caches = [MetadataCache(capacity * LINE_BYTES), _CountingCache(capacity * LINE_BYTES)]
    drained = [[], []]
    for writes, between in calls:
        _touch_loop(caches[0], writes, drained[0])
        _touch_batch(caches[1], writes, drained[1])
        assert _cache_view(caches[0], drained[0]) == _cache_view(caches[1], drained[1])
        for is_get, li in between:
            for cache, out in zip(caches, drained):
                if is_get:
                    cache.get(("vn", li))
                else:
                    out += cache.put(("vn", li), True)


def test_a_batch_ends_before_its_keys_exceed_the_cache():
    # twenty VN-lines' writes touch 24 distinct keys, twelve fit: the batch
    # ends early and still leaves what the loop does
    writes = [(li, False) for li in range(20)] + [(3, True), (17, False)]
    caches = [MetadataCache(12 * LINE_BYTES), _CountingCache(12 * LINE_BYTES)]
    drained = [[], []]
    _touch_loop(caches[0], writes, drained[0])
    _touch_batch(caches[1], writes, drained[1])
    assert _cache_view(caches[0], drained[0]) == _cache_view(caches[1], drained[1])
    assert caches[1].ends >= 2 and drained[0]


@pytest.mark.parametrize("looked_up", [False, True])
def test_a_lookup_that_would_overfill_the_batch_ends_it_first(looked_up):
    # VN-line 16 is cached, not in the batch of the second call (a peek,
    # which changes nothing else, ended the first call's), when its lookup
    # comes: the eight writes before it hold 8 + 2 + 1 keys, so its 3 would
    # pass the 12 the cache holds. Ending the batch after the get would
    # move those keys after 16, whose put would then evict 16 itself and
    # drain it as well
    calls = [[(16, looked_up)],
             [(li, False) for li in range(8, 15)] + [(0, False), (16, True)]]
    caches = [MetadataCache(12 * LINE_BYTES), _CountingCache(12 * LINE_BYTES)]
    drained = [[], []]
    for writes in calls:
        _touch_loop(caches[0], writes, drained[0])
        _touch_batch(caches[1], writes, drained[1])
        assert _cache_view(caches[0], drained[0]) == _cache_view(caches[1], drained[1])
        for cache in caches:
            cache.peek(("vn", 16))
    # the batch ends at each peek and at the lookup of 16
    assert drained[1] == [("tn", 0, 2), ("vn", 8)] and caches[1].ends == 3


_OTHER_OPS = {
    "get": (("vn", 9),),
    "peek": (("tn", 0, 1),),
    "hit_run": ([("vn", 0)], 1),
    "put": (("vn", 30), True),
    "update_if_present": (("tn", 0, 0), (1,)),
    "flush": (),
}


@pytest.mark.parametrize("op", sorted(_OTHER_OPS))
def test_each_other_cache_operation_ends_an_open_batch(op):
    # the batch's keys are not yet in the loop's order, so the operation
    # must see them as ending the batch first leaves them
    cache = MetadataCache(12 * LINE_BYTES)
    _touch_batch(cache, [(0, False), (9, False), (0, False)], [])
    assert list(cache._batch) == [("vn", 9), ("vn", 0)]
    ref = _settled(cache)
    assert list(ref._d) != list(cache._d)
    args = _OTHER_OPS[op]
    assert getattr(cache, op)(*args) == getattr(ref, op)(*args)
    assert not cache._batch and not cache._batch_nodes
    assert _cache_view(cache, []) == _cache_view(ref, [])


def _three_streams(n):
    """A set-up's writes of three streams of `n` lines each, interleaved
    line by line: w at line 0 under explicit VN 1, its tensor-logical code
    and a tag sink, then m and v after it, which look their VNs up."""
    lines, sources = [], []
    for j in range(n):
        lines += (j, n + j, 2 * n + j)
        sources += (("w", j), None, None)
    return lines, sources


@pytest.mark.parametrize("crypto_on, fault", [(True, False), (True, True), (False, False)])
@pytest.mark.parametrize("cache_bytes", [1024, 32 * 1024])
def test_interleaved_streams_in_one_write_lines_call_match_one_line_calls(
        crypto_on, fault, cache_bytes):
    # with `fault`, the VN-line of m's line 40 is replayed: the cold walk of
    # its first write faults mid-call
    n = 64
    mems = [cls(BASE, 3 * n + 8, KEY, metadata_cache_bytes=cache_bytes, crypto_on=crypto_on)
            for cls in (ProtectedMemory, LoopProtectedMemory)]
    lines, kinds = _three_streams(n)
    seen = []
    for m in mems:
        m.sinks = [], []
        if fault:
            pa = BASE + (n + 40) * LINE_BYTES
            m.write_line(pa, b"\x01" * LINE_BYTES)
            snap = m.snapshot_triple(pa)
            m.write_line(pa, b"\x02" * LINE_BYTES)
            m.inject_attack("replay", pa, snapshot=snap)
            m.flush_metadata_cache()
        sources = [None if kind is None else
                   (1, binding_code(BindingMode.TENSOR_LOGICAL, 5, kind[1] * LINE_BYTES),
                    m.sinks[0])
                   for kind in kinds]
        data = [bytes([i % 251]) * LINE_BYTES for i in range(len(lines))]
        try:
            m.write_lines([BASE + i * LINE_BYTES for i in lines], data, sources)
            got = "ok"
        except IntegrityFault as f:
            got = f.kind, f.detail
        seen.append((got, _full_state(m), _store(m), m.tree.root, m.sinks))
    assert seen[0] == seen[1]
    assert seen[0][0] == (("replay_or_tamper", seen[0][0][1]) if fault else "ok")
    if fault:
        # the writes before the fault are stored: w, m and v of lines 0-39
        # and w of line 40
        assert mems[0].totals["writes"] == 2 + 3 * 40 + 2


PLAIN_LINES = 8


def _plain_pas(lines):
    return [BASE + i * LINE_BYTES for i in lines]


@given(data=st.data())
@settings(max_examples=100, deadline=None)
def test_plain_memory_run_methods_match_one_line_calls(data):
    runs, lines = PlainMemory(BASE, PLAIN_LINES), PlainMemory(BASE, PLAIN_LINES)
    serial = 0
    for kind, idxs in data.draw(st.lists(st.tuples(
            st.sampled_from("RW"),
            st.lists(st.integers(0, PLAIN_LINES - 1), max_size=24)), max_size=6)):
        pas = _plain_pas(idxs)
        if kind == "R":
            assert runs.read_lines(pas) == [lines.read_line(pa)[0] for pa in pas]
        else:
            plains = [(serial + k).to_bytes(LINE_BYTES, "little")
                      for k in range(1, len(pas) + 1)]
            serial += len(pas)
            runs.write_lines(pas, plains)
            for pa, plain in zip(pas, plains):
                lines.write_line(pa, plain)
        assert runs.blocks == lines.blocks and runs.totals == lines.totals


@pytest.mark.parametrize("kind", ["R", "W"])
@pytest.mark.parametrize("bad", [-LINE_BYTES, PLAIN_LINES * LINE_BYTES,
                                 3 * LINE_BYTES + 1])
@pytest.mark.parametrize("at", [0, 3])
def test_plain_memory_run_methods_stop_at_a_bad_address_as_one_line_calls(
        kind, bad, at):
    # the address `at` of the run is outside the region or unaligned: the
    # run leaves what the one-line calls before it leave, and neither it
    # nor the rejected one-line call charges the rejected access
    runs, lines = PlainMemory(BASE, PLAIN_LINES), PlainMemory(BASE, PLAIN_LINES)
    pas = _plain_pas([5, 1, 5, 2, 7])
    pas.insert(at, BASE + bad)
    plains = [k.to_bytes(LINE_BYTES, "little") for k in range(1, len(pas) + 1)]
    with pytest.raises(ValueError):
        for pa, plain in zip(pas, plains):
            if kind == "R":
                lines.read_line(pa)
            else:
                lines.write_line(pa, plain)
    with pytest.raises(ValueError):
        if kind == "R":
            runs.read_lines(pas)
        else:
            runs.write_lines(pas, plains)
    assert runs.blocks == lines.blocks and runs.totals == lines.totals
    count, data = ("reads", "data_rd") if kind == "R" else ("writes", "data_wr")
    assert runs.totals[count] == at and runs.totals[data] == at * LINE_BYTES


def test_plain_memory_write_lines_wants_one_plaintext_per_address():
    mem = PlainMemory(BASE, PLAIN_LINES)
    with pytest.raises(ValueError, match="one plaintext per address"):
        mem.write_lines(_plain_pas([0, 1]), [bytes(LINE_BYTES)])
    assert mem.totals["writes"] == 0 and mem.blocks == [bytes(LINE_BYTES)] * PLAIN_LINES
