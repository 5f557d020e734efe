"""Meta Table / Tensor Filter / update protocol tests, including the spec'd
read and write dataflow cases, merging, hints, context switching, the
consistency/transparency invariants, the analyzer's footprint, the batched
covered-read path against a per-line reference, and the run methods against
per-line loops."""

import copy
import random
import tracemalloc
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from teesim import baseline, tenanalyzer
from teesim.baseline import OPEN_CHUNK_LINES, ProtectedMemory
from teesim.crypto import (
    BindingMode, IntegrityFault, KeyMaterial, LINE_BYTES, binding_code, tensor_line_codes,
)
from teesim.tenanalyzer import (
    EDGE_FINISH, EDGE_START, HIT_BOUNDARY, HIT_IN, INVALIDATE, MISS,
    WRITE_HIT_IN, MetaTableEntry, TenAnalyzer,
)
from teesim.workloads import (
    adam_region_lines, explicit_adam_layouts, gen_fuzz_trace, gen_gemm_trace,
    iter_adam_trace,
)

KEY = KeyMaterial.from_seed(0x7E57)
BASE = 0x100000


def make(n_lines=8192, crypto_on=True, **kw):
    mem = ProtectedMemory(BASE, n_lines, KEY, crypto_on=crypto_on)
    return TenAnalyzer(mem, **kw), mem


def seed_entry(ta, base, nx, ny=1, stride=LINE_BYTES, vn=0):
    """Plant a table entry directly (unit-test shortcut), its lines zeros
    sealed again under `vn`."""
    probe = MetaTableEntry(base, nx, ny, stride, vn, 0)
    mem = ta.mem
    idxs = [mem.line_index(va) for va in probe.addresses()]
    for idx in idxs:
        mem._vns[idx] = vn
        mem.tree.update_path(idx // 8)
        mem._ct[idx * LINE_BYTES:(idx + 1) * LINE_BYTES] = bytes(LINE_BYTES)
        mem._pending[idx] = None
    mem.seal()
    mac = 0
    for idx in idxs:
        mac ^= mem.macs[idx]
    e = MetaTableEntry(base, nx, ny, stride, vn, mac)
    assert ta._insert_entry(e) is not None
    return e


# -- read dataflow ------------------------------------------------------------


def test_hit_in_inside_range():
    ta, _ = make()
    seed_entry(ta, BASE, 64, vn=5)
    _, out = ta.on_read(BASE + 0x40)
    assert out.kind == HIT_IN and out.vn == 5


def test_hit_in_costs_no_offchip_metadata():
    ta, mem = make()
    seed_entry(ta, BASE, 64, vn=5)
    before = (mem.totals["vn_rd"], mem.totals["tree_rd"])
    for i in range(64):
        ta.on_read(BASE + i * LINE_BYTES)
    assert (mem.totals["vn_rd"], mem.totals["tree_rd"]) == before


def test_hit_boundary_confirm_extends():
    ta, _ = make()
    e = seed_entry(ta, BASE, 64, vn=0)
    # line one past the end holds the same off-chip VN (0) -> confirm
    _, out = ta.on_read(BASE + 64 * LINE_BYTES)
    assert out.kind == HIT_BOUNDARY and out.confirmed
    assert e.line_count == 65
    assert e.last_addr == BASE + 64 * LINE_BYTES


def test_hit_boundary_mismatch_keeps_entry():
    ta, mem = make()
    e = seed_entry(ta, BASE, 64, vn=0)
    nxt = BASE + 64 * LINE_BYTES
    mem.write_line(nxt, b"\x01" * LINE_BYTES)  # off-chip VN now 1 != 0
    _, out = ta.on_read(nxt)
    assert out.kind == HIT_BOUNDARY and not out.confirmed
    assert e.line_count == 64
    assert ta.stats["r_boundary_mispredict"] == 1


def test_boundary_never_crosses_into_other_entry():
    ta, _ = make()
    a = seed_entry(ta, BASE, 4, vn=0)
    seed_entry(ta, BASE + 4 * LINE_BYTES, 4, vn=3)
    # the address one past `a` belongs to the neighbor: containment wins
    _, out = ta.on_read(BASE + 4 * LINE_BYTES)
    assert out.kind == HIT_IN and out.vn == 3
    assert a.line_count == 4


def test_miss_collects_and_promotes_after_four_strided():
    ta, mem = make()
    for i in range(8):
        mem.write_line(BASE + 0x9000 - BASE + BASE + i * LINE_BYTES, b"z" * LINE_BYTES)
    start = BASE + 0x1000
    for i in range(4):
        _, out = ta.on_read(start + i * LINE_BYTES)
        assert out.kind == MISS
    assert ta.stats["promotions"] == 1
    e = ta.entry_at(start)
    assert (e.base, e.nx, e.ny, e.stride) == (start, 4, 1, LINE_BYTES)
    # the promoted entry immediately serves hits / boundary growth
    _, out = ta.on_read(start + 4 * LINE_BYTES)
    assert out.kind == HIT_BOUNDARY and out.confirmed


def test_filter_stride_break_no_promotion():
    ta, _ = make()
    for off in (0x0, 0x40, 0x100, 0x140):
        ta.on_read(BASE + off)
    assert ta.stats["promotions"] == 0


def test_filter_mixed_vn_no_promotion():
    ta, mem = make()
    start = BASE + 0x2000
    mem.write_line(start + 2 * LINE_BYTES, b"x" * LINE_BYTES)  # vn 1, others 0
    for i in range(4):
        ta.on_read(start + i * LINE_BYTES)
    assert ta.stats["promotions"] == 0
    assert ta.stats["filter_recycled"] >= 1


def test_column_pattern_promotes_strided_entry():
    ta, _ = make()
    start = BASE
    for i in range(4):
        ta.on_read(start + i * 0x400)
    e = ta.entry_at(start)
    assert (e.nx, e.ny, e.stride) == (1, 4, 0x400)
    # boundary step for a column is the stride
    _, out = ta.on_read(start + 4 * 0x400)
    assert out.kind == HIT_BOUNDARY and out.confirmed
    assert e.ny == 5


# -- merging --------------------------------------------------------------------


def test_two_rows_merge_into_2d():
    ta, _ = make()
    a = seed_entry(ta, BASE, 4, vn=7)
    b = MetaTableEntry(BASE + 0x400, 4, 1, LINE_BYTES, 7, 0)
    assert ta._insert_entry(b) is not None
    merged = ta.try_merge(b)
    assert merged in ta.entries and a not in ta.entries
    assert (merged.base, merged.nx, merged.ny, merged.stride) == (BASE, 4, 2, 0x400)


def test_vn_mismatch_blocks_merge():
    ta, _ = make()
    a = seed_entry(ta, BASE, 4, vn=5)
    b = seed_entry(ta, BASE + 0x400, 4, vn=6)
    ta.try_merge(b)
    assert ta.entries == [a, b]  # both stay: no merge


def test_adjacent_runs_concatenate():
    ta, _ = make()
    seed_entry(ta, BASE, 4, vn=1)
    b = seed_entry(ta, BASE + 4 * LINE_BYTES, 4, vn=1)
    merged = ta.try_merge(b)
    assert (merged.base, merged.nx, merged.ny) == (BASE, 8, 1)


def test_2d_vertical_and_horizontal_growth():
    ta, _ = make()
    a = seed_entry(ta, BASE, 4, 2, 0x400, vn=2)       # 2 rows of 4
    b = seed_entry(ta, BASE + 2 * 0x400, 4, 1, LINE_BYTES, vn=2)
    merged = ta.try_merge(b)
    assert (merged.nx, merged.ny, merged.stride) == (4, 3, 0x400)
    c = seed_entry(ta, BASE + 4 * LINE_BYTES, 4, 3, 0x400, vn=2)
    merged2 = ta.try_merge(c)
    assert (merged2.base, merged2.nx, merged2.ny) == (BASE, 8, 3)


def test_merge_preserves_aggregate_mac():
    ta, _ = make()
    a = seed_entry(ta, BASE, 4, vn=9)
    b = seed_entry(ta, BASE + 0x400, 4, vn=9)
    want = a.mac ^ b.mac
    merged = ta.try_merge(b)
    assert merged.mac == want


# -- write dataflow ----------------------------------------------------------------


def payload(i: int) -> bytes:
    return bytes([i & 0xFF]) * LINE_BYTES


def test_complete_in_order_update():
    ta, mem = make()
    e = seed_entry(ta, BASE, 4, vn=5)
    # twice, since each update must start with no line written
    for vn, bs in ((6, 1), (7, 0)):
        kinds = [ta.on_write(BASE + i * LINE_BYTES, payload(i)).kind for i in range(4)]
        assert kinds == [EDGE_START, WRITE_HIT_IN, WRITE_HIT_IN, EDGE_FINISH]
        assert e.vn == vn and e.uf == 0 and e.bs == bs and e.written is None
        for i in range(4):
            assert mem.vn_of(BASE + i * LINE_BYTES) == vn
    ta.check_vn_consistency()


def test_tile_permuted_update_finishes_on_last_address():
    ta, _ = make()
    e = seed_entry(ta, BASE, 8, vn=0)
    order = [0, 4, 2, 6, 1, 5, 3, 7]  # starts first, ends last
    kinds = [ta.on_write(BASE + i * LINE_BYTES, payload(i)).kind for i in order]
    assert kinds[0] == EDGE_START and kinds[-1] == EDGE_FINISH
    assert e.vn == 1


def test_double_update_invalidates():
    ta, _ = make()
    e = seed_entry(ta, BASE, 4, vn=0)
    ta.on_write(BASE, payload(0))
    ta.on_write(BASE + LINE_BYTES, payload(1))
    out = ta.on_write(BASE + LINE_BYTES, payload(2))
    assert out.kind == INVALIDATE and out.reason == "double_update"
    assert e not in ta.entries


def test_incomplete_update_invalidates():
    ta, _ = make()
    e = seed_entry(ta, BASE, 4, vn=0)
    ta.on_write(BASE, payload(0))
    ta.on_write(BASE + LINE_BYTES, payload(1))
    out = ta.on_write(BASE + 3 * LINE_BYTES, payload(3))  # skip line 2, hit last
    assert out.kind == INVALIDATE and out.reason == "incomplete_update"
    assert e not in ta.entries


def test_early_update_invalidates():
    ta, _ = make()
    e = seed_entry(ta, BASE, 4, vn=0)
    out = ta.on_write(BASE + 2 * LINE_BYTES, payload(2))  # before start
    assert out.kind == INVALIDATE and out.reason == "early_update"
    assert e not in ta.entries


@pytest.mark.parametrize("written", [0, 5])
def test_rejected_covered_write_changes_nothing(written):
    # at the update's first line, and mid-update
    ta, _ = make(64)
    ta.install_hint(BASE, 16)
    for i in range(written):
        ta.on_write(BASE + i * LINE_BYTES, payload(i))
    _analyzer_state(ta)     # which seals and flushes the tree
    before = _analyzer_state(ta)
    with pytest.raises(ValueError, match="64 bytes"):
        ta.on_write(BASE + written * LINE_BYTES, b"bad")
    with pytest.raises(OverflowError):
        ta.on_write(BASE + written * LINE_BYTES, 1 << 512)
    assert _analyzer_state(ta) == before


def test_reads_still_correct_after_invalidation():
    ta, mem = make()
    seed_entry(ta, BASE, 4, vn=0)
    ta.on_write(BASE, payload(0))
    ta.on_write(BASE + LINE_BYTES, payload(1))
    ta.on_write(BASE + LINE_BYTES, payload(9))  # double update -> invalidate
    # every line still decrypts via its own off-chip VN
    for i, want in ((0, payload(0)), (1, payload(9))):
        plain, out = ta.on_read(BASE + i * LINE_BYTES)
        assert out.kind == MISS
        assert plain == want
    ta.check_vn_consistency()


def test_write_miss_only_touches_offchip():
    ta, mem = make()
    out = ta.on_write(BASE + 0x7000, payload(1))
    assert out.kind == MISS
    assert mem.vn_of(BASE + 0x7000) == 1


def test_reads_during_update_see_new_vn_for_written_lines():
    ta, _ = make()
    seed_entry(ta, BASE, 4, vn=0)
    ta.on_write(BASE, payload(7))
    plain, out = ta.on_read(BASE)            # written line: vn+1
    assert out.kind == HIT_IN and out.vn == 1
    assert plain == payload(7)
    _, out2 = ta.on_read(BASE + 2 * LINE_BYTES)  # untouched line: old vn
    assert out2.vn == 0


def test_single_line_entry_update_is_start_and_finish():
    ta, _ = make()
    e = seed_entry(ta, BASE, 4, vn=0)
    ta.on_write(BASE, payload(0))
    ta.on_write(BASE + LINE_BYTES, payload(1))
    ta.on_write(BASE + 2 * LINE_BYTES, payload(2))
    out = ta.on_write(BASE + 3 * LINE_BYTES, payload(3))
    assert out.kind == EDGE_FINISH and e.vn == 1


def test_sequential_sweep_checks_tensor_mac_for_free():
    ta, mem = make()
    e = seed_entry(ta, BASE, 8, vn=0)
    for i in range(8):
        ta.on_write(BASE + i * LINE_BYTES, payload(i))
    before_mac = mem.totals["mac_rd"]
    for i in range(8):
        _, out = ta.on_read(BASE + i * LINE_BYTES)
        assert out.kind == HIT_IN
    assert mem.totals["mac_rd"] == before_mac   # no per-line MAC fetches
    assert ta.stats["sweep_verifies"] == 1


def test_sweep_detects_tampered_line_at_completion():
    ta, mem = make()
    seed_entry(ta, BASE, 8, vn=0)
    for i in range(8):
        ta.on_write(BASE + i * LINE_BYTES, payload(i))
    mem.inject_attack("bitflip", BASE + 3 * LINE_BYTES, bit=17)
    with pytest.raises(IntegrityFault) as ei:
        for i in range(8):
            ta.on_read(BASE + i * LINE_BYTES)
    assert ei.value.kind == "tensor_mac"


@pytest.mark.parametrize("runs", [True, False])
def test_boundary_reads_extend_a_sweep_run_that_reaches_the_end(runs):
    # lines 4-7 start a run that reaches the entry's end; the boundary reads
    # of lines 8-10 extend the entry and the run, so that the run from line
    # 0 closes the sweep at line 3
    ta, mem = make(64)
    for i in range(16):
        mem.write_line(BASE + i * LINE_BYTES, payload(i))
    ta.install_hint(BASE, 8)
    e = ta.entry_at(BASE)
    vas = [BASE + i * LINE_BYTES for i in range(11)]
    read = ta.read_lines if runs else (lambda vas: [ta.on_read(va) for va in vas])
    read(vas[4:8])
    read(vas[8:])
    assert e.line_count == 11 and ta.stats["r_hit_boundary"] == 3
    acc = 0
    for i in range(4, 11):
        acc ^= mem.macs[i]
    assert e.runs == {4: [11, acc]}
    mac_rd = mem.totals["mac_rd"]
    read(vas[:4])
    assert ta.stats["sweep_verifies"] == 1 and not e.runs
    assert mem.totals["mac_rd"] == mac_rd


@pytest.mark.parametrize("crypto_on", [True, False])
@pytest.mark.parametrize("runs", [True, False])
def test_sweep_under_a_hint_vn_the_lines_do_not_hold_faults(crypto_on, runs):
    # light mode folds the same tags as functional mode, not the stored MACs
    ta, _ = make(64, crypto_on=crypto_on)
    ta.install_hint(BASE, 16, vn=5)
    vas = [BASE + i * LINE_BYTES for i in range(16)]
    with pytest.raises(IntegrityFault, match="tensor_mac"):
        ta.read_lines(vas) if runs else [ta.on_read(va) for va in vas]


def test_out_of_order_covered_read_verifies_per_line():
    ta, mem = make()
    seed_entry(ta, BASE, 8, vn=0)
    for i in range(8):
        ta.on_write(BASE + i * LINE_BYTES, payload(i))
    before = mem.totals["mac_rd"]
    ta.on_read(BASE + 5 * LINE_BYTES)
    ta.on_read(BASE + 5 * LINE_BYTES)  # re-read: claimed ordinal
    assert mem.totals["mac_rd"] == before + LINE_BYTES


# -- hints and context switch ---------------------------------------------------------


def test_install_hint_gives_immediate_hits():
    ta, _ = make()
    assert ta.install_hint(BASE, 256) == "installed"
    _, out = ta.on_read(BASE + 128 * LINE_BYTES)
    assert out.kind == HIT_IN


def test_install_hint_exact_match_noop():
    ta, _ = make()
    ta.install_hint(BASE, 64)
    assert ta.install_hint(BASE, 64) == "noop"
    assert ta.stats["hint_noop"] == 1


def test_install_hint_absorbs_tiles():
    ta, _ = make()
    seed_entry(ta, BASE, 4, vn=0)
    seed_entry(ta, BASE + 4 * LINE_BYTES, 4, vn=0)
    n_before = len(ta.entries)
    assert ta.install_hint(BASE, 64) == "installed"
    assert len(ta.entries) == n_before - 1
    ta.check_disjoint()


def test_install_hint_defers_during_update():
    ta, _ = make()
    e = seed_entry(ta, BASE, 4, vn=0)
    ta.on_write(BASE, payload(0))           # uf now 1
    assert ta.install_hint(BASE, 64) == "deferred"
    for i in range(1, 4):
        ta.on_write(BASE + i * LINE_BYTES, payload(i))
    # finish applied the pending hint
    assert any(x.line_count == 64 for x in ta.entries)


_N_HINT = 64


@pytest.mark.parametrize("base, n_lines, kw", [
    (BASE - 4 * LINE_BYTES, 8, {}),                      # starts below the region
    (BASE + (_N_HINT - 4) * LINE_BYTES, 8, {}),         # ends past it
    (BASE + 8, 8, {}),                                  # unaligned
    (BASE, 0, {}),                                      # empty
    (BASE, 16, {"row_lines": 4, "stride": 0x108}),      # stride not in lines
    (BASE, 16, {"row_lines": 8, "stride": 0x100}),      # rows overlap
    (BASE, 20, {"row_lines": 4, "stride": 0x400}),      # last row past the end
    (BASE, 7, {"row_lines": 2, "stride": 0x100}),       # a partial last row
], ids=["below", "past", "unaligned", "empty", "stride_unaligned",
        "stride_short", "rows_past", "partial_row"])
def test_install_hint_rejects_a_bad_range_before_any_change(base, n_lines, kw):
    ta, mem = make(n_lines=_N_HINT)
    # entries on the region's first and last lines, which a range that
    # wrapped around the coverage index would alias
    seed_entry(ta, BASE, 4, vn=2)
    seed_entry(ta, BASE + (_N_HINT - 4) * LINE_BYTES, 4, vn=3)
    before = (ta.dump_table(), dict(ta.stats), dict(mem.totals))
    with pytest.raises(ValueError, match="outside the region"):
        ta.install_hint(base, n_lines, vn=0, mac=0, **kw)
    assert (ta.dump_table(), ta.stats, mem.totals) == before
    assert not ta.pending_hints
    ta.check_disjoint()


@pytest.mark.parametrize("va", [BASE - LINE_BYTES, BASE + 8,
                                BASE + _N_HINT * LINE_BYTES])
def test_access_off_the_region_reaches_no_entry(va):
    ta, mem = make(n_lines=_N_HINT)
    seed_entry(ta, BASE, 4, vn=2)
    seed_entry(ta, BASE + (_N_HINT - 4) * LINE_BYTES, 4, vn=3)
    table = ta.dump_table()
    assert ta.entry_at(va) is None
    with pytest.raises(ValueError):
        ta.on_read(va)
    with pytest.raises(ValueError):
        ta.on_write(va, payload(1))
    # a read run raises before any read of its batch
    stats = dict(ta.stats)
    with pytest.raises(ValueError, match="outside the region"):
        ta.read_lines([BASE, BASE + LINE_BYTES, va])
    assert ta.stats == stats
    assert ta.dump_table() == table
    assert ta.stats["r_hit_in"] == ta.stats["w_invalidate"] == 0


@pytest.mark.parametrize("crypto_on", [True, False])
def test_analyzer_holds_at_most_24_bytes_a_covered_line(crypto_on):
    # one hinted entry over the whole region, one full update and one full
    # sweep: what the analyzer keeps per line is its coverage index slot
    n = 1 << 16
    ta_file = tenanalyzer.__file__
    _, mem = make(n_lines=n, crypto_on=crypto_on)
    tracemalloc.start()
    try:
        start = tracemalloc.take_snapshot()
        ta = TenAnalyzer(mem)
        assert ta.install_hint(BASE, n) == "installed"
        for i in range(n):
            ta.on_write(BASE + i * LINE_BYTES, payload(i))
        for i in range(n):
            ta.on_read(BASE + i * LINE_BYTES)
        end = tracemalloc.take_snapshot()
    finally:
        tracemalloc.stop()
    assert ta.stats["w_edge_finish"] == 1 and ta.stats["sweep_verifies"] == 1
    only = [tracemalloc.Filter(True, ta_file)]
    live = sum(d.size_diff for d in end.filter_traces(only).compare_to(
        start.filter_traces(only), "filename")) / n
    assert live <= 24, f"{live:.1f} B/line live"


def test_context_switch_save_restore_roundtrip():
    ta, mem = make()
    ta.attach_enclave(1, mem)
    seed_entry(ta, BASE, 16, vn=4)
    dump = ta.dump_table()
    ta.context_switch("save", 1)
    ta.context_switch("restore", 99)        # unknown id -> empty table
    assert ta.dump_table() == "[]"
    _, out = ta.on_read(BASE)               # no hits on foreign enclave state
    assert out.kind == MISS
    ta.context_switch("restore", 1)
    assert ta.dump_table() == dump
    _, out = ta.on_read(BASE + LINE_BYTES)
    assert out.kind == HIT_IN


def test_interleaved_enclaves_match_solo_hit_rates():
    def run_solo(eid):
        ta, mem = make()
        seed_entry(ta, BASE, 32, vn=eid)
        for i in range(32):
            ta.on_read(BASE + i * LINE_BYTES)
        return ta.stats["r_hit_in"]

    solo = run_solo(1), run_solo(2)

    mem1 = ProtectedMemory(BASE, 8192, KeyMaterial.from_seed(1))
    mem2 = ProtectedMemory(BASE, 8192, KeyMaterial.from_seed(2))
    ta = TenAnalyzer(mem1)
    ta.attach_enclave(1, mem1)
    ta.attach_enclave(2, mem2)
    per_enclave = {1: 0, 2: 0}
    ta.context_switch("restore", 1)
    seed_entry(ta, BASE, 32, vn=1)
    ta.context_switch("save", 1)
    ta.context_switch("restore", 2)
    seed_entry(ta, BASE, 32, vn=2)
    ta.context_switch("save", 2)
    active = 2
    for i in range(32):
        for eid in (1, 2):
            if active != eid:
                ta.context_switch("save", active)
                ta.context_switch("restore", eid)
                active = eid
            before = ta.stats["r_hit_in"]
            ta.on_read(BASE + i * LINE_BYTES)
            per_enclave[eid] += ta.stats["r_hit_in"] - before
    assert (per_enclave[1], per_enclave[2]) == solo


# -- invariants ------------------------------------------------------------------------


def test_range_disjointness_after_mutations():
    ta, _ = make()
    rng = random.Random(5)
    for i in range(16):
        start = BASE + i * 0x1000
        for j in range(4):
            ta.on_read(start + j * LINE_BYTES)
    ta.check_disjoint()


def test_boundary_keys_name_live_entries_through_every_drop():
    # an entry is live while it is in the table, and each drop unindexes it
    # first, so no boundary key names a dropped entry
    ta, _ = make(table_entries=3)
    a = seed_entry(ta, BASE, 4, vn=1)
    b = seed_entry(ta, BASE + 4 * LINE_BYTES, 4, vn=1)
    assert ta.boundary[BASE + 4 * LINE_BYTES] is a
    ta.try_merge(b)
    assert ta.entries == [b] and BASE + 4 * LINE_BYTES not in ta.boundary
    ta.check_disjoint()
    seed_entry(ta, BASE + 0x1000, 4)
    assert ta.on_write(BASE + 0x1000 + LINE_BYTES, payload(1)).kind == INVALIDATE
    assert ta.entries == [b]
    ta.check_disjoint()
    seed_entry(ta, BASE + 0x2000, 4)
    seed_entry(ta, BASE + 0x2000 + 4 * LINE_BYTES, 4)
    assert ta.install_hint(BASE + 0x2000, 16) == "installed"
    assert len(ta.entries) == 2
    ta.check_disjoint()
    seed_entry(ta, BASE + 0x3000, 4)
    seed_entry(ta, BASE + 0x4000, 4)
    assert b not in ta.entries and ta.stats["evictions"] == 1
    ta.check_disjoint()


def test_functional_transparency_en_tmf_on_off():
    # with the table off, the bare memory is the front door
    rng = random.Random(11)
    ops = []
    for _ in range(600):
        line = rng.randrange(256)
        if rng.random() < 0.4:
            ops.append(("w", line, rng.randbytes(LINE_BYTES)))
        else:
            ops.append(("r", line, None))
    ta, _ = make(n_lines=256)
    bare = ProtectedMemory(BASE, 256, KEY)
    results = []
    for read, write in ((ta.on_read, ta.on_write), (bare.read_line, bare.write_line)):
        out = []
        for kind, line, data in ops:
            va = BASE + line * LINE_BYTES
            if kind == "w":
                write(va, data)
            else:
                try:
                    plain, _ = read(va)
                except IntegrityFault as f:  # pragma: no cover
                    plain = f.kind
                out.append(plain)
        results.append(out)
    assert results[0] == results[1]
    with pytest.raises(ValueError, match="bare ProtectedMemory"):
        make(n_lines=256, en_tmf=False)


def test_monotone_hit_in_across_repeated_trace():
    ta, _ = make()
    trace = [BASE + i * LINE_BYTES for i in range(128)]
    rates = []
    for rep in range(3):
        before = ta.stats["r_hit_in"]
        for va in trace:
            ta.on_read(va)
        rates.append((ta.stats["r_hit_in"] - before) / len(trace))
    assert rates == sorted(rates)
    assert rates[-1] == 1.0


def test_quiescent_vn_consistency_after_mixed_ops():
    ta, mem = make(n_lines=512)
    rng = random.Random(99)
    # streaming reads detect entries; tensor-wide writes bump them
    for i in range(256):
        ta.on_read(BASE + i * LINE_BYTES)
    for e in list(ta.entries):
        if e in ta.entries:
            for va in sorted(e.addresses()):
                ta.on_write(va, rng.randbytes(LINE_BYTES))
    ta.check_vn_consistency()
    ta.check_disjoint()


# -- run methods against the per-line path, through mid-sweep tampers ----------


_DIFF_LINES = 48
_LINE = st.integers(0, _DIFF_LINES - 1)
# a range of lines: (first line, count), or ("entry", i), every line of the
# i-th Meta Table entry by base address, in address order
_LINES = st.one_of(
    st.tuples(st.one_of(st.sampled_from([0, 16, 32]), _LINE),
              st.one_of(st.just(16), st.integers(1, 24))),
    st.tuples(st.just("entry"), st.integers(0, 7)))
_ATTACK = st.sampled_from(["bitflip", "mac_tamper", "replay"])
# after read `after` of a sweep, tamper the line at position `at` of the
# range: one already read or one still ahead. A replay puts the ciphertext,
# binding, VN and MAC of line `src` there.
_MID_TAMPER = st.one_of(st.none(), st.tuples(
    st.integers(0, 23), _ATTACK, st.integers(0, 23), _LINE, st.integers(0, 511)))
# every op but "switch" names its lines second; an update reads the range's
# last line after its write number `peek`
_DIFF_OP = {
    "sweep": st.tuples(st.just("sweep"), _LINES, _MID_TAMPER),
    "update": st.tuples(st.just("update"), _LINES,
                        st.one_of(st.none(), st.integers(0, 23))),
    "hint": st.tuples(st.just("hint"), _LINES, st.sampled_from([None, "offchip", 3]),
                      st.sampled_from([None, 7])),
    "read": st.tuples(st.just("read"), _LINE),
    "switch": st.just(("switch",)),
    "tamper": st.tuples(st.just("tamper"), _LINE, _ATTACK, _LINE, st.integers(0, 511)),
}
_DIFF_OPS = st.lists(st.sampled_from(
    ["sweep"] * 4 + ["update"] * 3 + ["hint"] * 2 + ["read", "switch", "tamper"]
).flatmap(_DIFF_OP.get), min_size=4, max_size=30)


def _lines(ta: TenAnalyzer, where) -> list[int]:
    if where[0] == "entry":
        entries = sorted(ta.entries, key=lambda e: e.base)
        return sorted(entries[where[1] % len(entries)].addresses()) if entries else []
    first, n = where
    return [BASE + (first + i) * LINE_BYTES for i in range(min(n, _DIFF_LINES - first))]


def _tamper(mem: ProtectedMemory, pa: int, attack: str, src: int, bit: int) -> None:
    snap = mem.snapshot_triple(BASE + src * LINE_BYTES)
    mem.inject_attack(attack, pa, bit=bit, snapshot=snap)


def _access(ta: TenAnalyzer, runs: bool, vas: list, plains=None):
    """Read `vas` (`plains` None) or write them with `plains`, through
    `read_lines`/`write_lines` (`runs`) or one `on_read`/`on_write` a line;
    returns what the core saw: the plaintexts read, or the fault."""
    if runs:
        return (_run_attempt(ta.read_lines, vas) if plains is None
                else _run_attempt(ta.write_lines, vas, plains))

    def per_line():
        if plains is None:
            return [ta.on_read(va)[0] for va in vas]
        for va, plain in zip(vas, plains):
            ta.on_write(va, plain)

    return _run_attempt(per_line)


def _diff_op(ta: TenAnalyzer, runs: bool, op, serial: int, active: int, attacks: bool):
    """Apply one op; returns what the core saw, stopping a sweep or an update
    at its first fault."""
    kind = op[0]
    if kind == "switch":
        ta.context_switch("save", active)
        ta.context_switch("restore", 3 - active)
        return None
    if kind == "read":
        return _access(ta, runs, [BASE + op[1] * LINE_BYTES])
    if kind == "tamper":
        if attacks:
            _tamper(ta.mem, BASE + op[1] * LINE_BYTES, *op[2:])
        return None
    pas = _lines(ta, op[1])
    if not pas:
        return None
    if kind == "hint":
        vn = ta.mem.vn_of(pas[0]) if op[2] == "offchip" else op[2]
        return _run_attempt(lambda: ta.install_hint(pas[0], len(pas), vn=vn,
                                                    tensor_id=op[3]))
    # a sweep's tamper comes after its read op[2][0], an update's read of
    # its last line after its write op[2]
    plains = None if kind == "sweep" else \
        [(serial + i).to_bytes(8, "little") * 8 for i in range(len(pas))]
    if kind == "update":
        at = op[2]
    else:
        at = op[2][0] if op[2] is not None and attacks else None
    if at is None or at >= len(pas):
        return [_access(ta, runs, pas, plains)]
    out = [_access(ta, runs, pas[:at + 1], plains and plains[:at + 1])]
    if out[-1][0] == "ok":
        if kind == "sweep":
            _, attack, line, src, bit = op[2]
            _tamper(ta.mem, pas[line % len(pas)], attack, src, bit)
        else:
            out.append(_access(ta, runs, pas[-1:]))
    if out[-1][0] == "ok" and at + 1 < len(pas):
        out.append(_access(ta, runs, pas[at + 1:], plains and plains[at + 1:]))
    return out


@given(_DIFF_OPS, st.booleans())   # the second argument turns functional crypto on
@settings(max_examples=200, deadline=None)
# a tamper of a line the open sweep already consumed
@example([("hint", (0, 16), None, 7), ("update", ("entry", 0), None),
          ("sweep", (0, 16), (7, "bitflip", 3, 0, 9))], True)
# a replay of another line's ciphertext and binding before it is read
@example([("hint", (0, 16), None, 7), ("update", ("entry", 0), None),
          ("sweep", (0, 16), (7, "replay", 10, 20, 0))], True)
# a read during an update, at the entry's old VN, then the finish
@example([("hint", (0, 16), None, None), ("update", ("entry", 0), 0),
          ("read", 15)], True)
# a boundary extension folded into an open sweep, across a context switch
@example([("sweep", (16, 16), None), ("sweep", (24, 9), None), ("switch",),
          ("sweep", (0, 4), None), ("switch",), ("sweep", (16, 8), None)], True)
# a two-row entry merged from two runs, invalidated by a write to its
# second row, whose lines must leave the coverage index too
@example([("sweep", (0, 4), None), ("sweep", (8, 4), None),
          ("update", (8, 4), None), ("read", 9)], False)
def test_batched_covered_reads_match_per_line_reference(ops, crypto_on):
    keys = {1: KeyMaterial.from_seed(1), 2: KeyMaterial.from_seed(2)}
    sides = []
    for _ in range(2):
        mems = {eid: ProtectedMemory(BASE, _DIFF_LINES, key, crypto_on=crypto_on)
                for eid, key in keys.items()}
        ta = TenAnalyzer(mems[1])
        for eid, mem in mems.items():
            ta.attach_enclave(eid, mem)
        sides.append((ta, mems))
    (ta, mems), (ref, ref_mems) = sides
    active, serial = 1, 0
    for op in ops:
        # attacks need functional crypto
        seen = [_diff_op(t, runs, op, serial, active, crypto_on)
                for t, runs in ((ta, True), (ref, False))]
        assert seen[0] == seen[1], op
        # what can be read without sealing pending writes or flushing the
        # tree, so that the next op starts from the state the op left
        assert ta.stats == ref.stats and ta.dump_table() == ref.dump_table(), op
        ta.check_disjoint()
        for eid in keys:
            assert mems[eid].totals == ref_mems[eid].totals
            assert list(mems[eid]._pending) == list(ref_mems[eid]._pending)
        if op[0] == "switch":
            active = 3 - active
        elif op[0] == "update":
            serial += _DIFF_LINES
    assert _analyzer_state(ta) == _analyzer_state(ref)


# -- run methods against per-line loops ------------------------------------------

_RUN_BASE = 0x20000
_RUN_LINES = 600


def _run_trace(name: str) -> tuple[list, int, int]:
    """(is_read, va) records of a small adam, gemm or fuzz trace, or of the
    zero-offload optimizer's shape (one tensor of 1,024-line w, g, m and v
    streams, 8 threads of 32-line bursts, 2 iterations), in a region at
    `_RUN_BASE`; the line count of its first tensor (adam's first weights,
    gemm's A); and the region's line count."""
    lines = _RUN_LINES
    if name == "adam":
        layouts = explicit_adam_layouts([32 * LINE_BYTES] * 2, _RUN_BASE)
        recs = iter_adam_trace(layouts, threads=2, burst_lines=8, iterations=3)
        first = 32
    elif name == "zero":
        layouts = explicit_adam_layouts([1024 * LINE_BYTES], _RUN_BASE)
        recs = iter_adam_trace(layouts, threads=8, burst_lines=32, iterations=2)
        first, lines = 1024, adam_region_lines(layouts, _RUN_BASE)
    elif name == "gemm":
        recs = gen_gemm_trace(32, 32, 32, 16, a_base=_RUN_BASE) * 2
        first = 64
    else:
        recs = gen_fuzz_trace(700, 160, seed=5, base=_RUN_BASE)
        first = 48
    return [(r.kind == "R", r.va) for r in recs], first, lines


_RUN_TRACES = {name: _run_trace(name) for name in ("adam", "zero", "gemm", "fuzz")}


def _analyzer_state(ta: TenAnalyzer) -> tuple:
    """What a run must leave exactly as its per-line loop does: the stats,
    stamp, entries (with their sweep and update state) and their recency
    order, coverage, boundary map and filter, and the memory's totals,
    metadata cache, pending writes, store and tree root."""
    mem = ta.mem
    entries = [(e.dump(), e.lru, e.mac, e.tensor_id,
                {start: tuple(run) for start, run in e.runs.items()}, dict(e.runs_by_next),
                None if e.written is None else bytes(e.written), list(e.write_tags))
               for e in ta.entries]
    # the cache as ending its open write batch would leave it, with the
    # batch of `mem.cache` itself left open
    cache = copy.copy(mem.cache)
    cache._d, cache._batch, cache._batch_nodes = cache._d.copy(), dict(cache._batch), set()
    cache.end_batch()
    pending = [(idx, sink if sink is None else list(sink))
               for idx, sink in mem._pending.items()]
    return (dict(ta.stats), ta._stamp, entries, [e.base for e in ta._recent],
            [None if e is None else e.base for e in ta._cover],
            sorted((va, e.base) for va, e in ta.boundary.items()),
            [(f.addrs, f.delta, f.stamp) for f in ta.filter],
            list(ta.pending_hints), dict(mem.totals),
            list(cache._d.items()), cache.hits, cache.misses,
            pending, bytes(mem._ct), list(mem.macs), list(mem._vns),
            list(mem._codes), mem.tree.root)


def _run_attempt(fn, *args):
    try:
        return "ok", fn(*args)
    except IntegrityFault as f:
        return "fault", f.kind, f.detail
    except ValueError as e:
        return "rejected", str(e)


def _split_runs(records, cuts):
    """Maximal same-kind runs of `records`, each cut further into pieces of
    the lengths `cuts` gives in turn."""
    runs, cut = [], 0
    for rec in records:
        if not runs or runs[-1][0][0] != rec[0] or len(runs[-1]) >= cuts[cut % len(cuts)]:
            if runs and runs[-1][0][0] == rec[0]:
                cut += 1
            runs.append([])
        runs[-1].append(rec)
    return runs


@pytest.mark.parametrize("trace", ["adam", "zero", "gemm", "fuzz"])
@pytest.mark.parametrize("crypto_on", [True, False])
@given(cuts=st.lists(st.integers(1, 80), min_size=1, max_size=6),
       hint=st.sampled_from([None, "offchip", 5]),
       # (after run, attack, line, source line, bit); the lines are picks
       # among the lines the trace touches
       tamper=st.one_of(st.none(), st.tuples(
           st.integers(0, 40), st.sampled_from(["bitflip", "mac_tamper", "vn_tamper", "replay"]),
           st.integers(0, 1 << 16), st.integers(0, 1 << 16), st.integers(0, 511))),
       # the lines a read run opens in one batch
       chunk=st.sampled_from([OPEN_CHUNK_LINES, 5]))
@settings(max_examples=25, deadline=None)
# a VN tamper of a covered line, read again in the next read run
@example(cuts=[80], hint="offchip", tamper=(1, "vn_tamper", 3, 0, 0), chunk=5)
# a replayed line whose VN-line the next miss write walks
@example(cuts=[7, 3], hint=None, tamper=(4, "replay", 40, 41, 0), chunk=OPEN_CHUNK_LINES)
def test_run_methods_match_per_line_loops(trace, crypto_on, cuts, hint, tamper, chunk):
    records, first, lines = _RUN_TRACES[trace]
    if trace == "zero":
        # runs as long as the optimizer's: a burst of four streams, or more
        cuts = [c * 64 for c in cuts]
    with mock.patch.object(baseline, "OPEN_CHUNK_LINES", chunk):
        _diff_runs(records, crypto_on, cuts, hint and [(0, first, hint)], tamper, lines)


def _lines_of(is_read: bool, lo: int, hi: int) -> list:
    return [(is_read, _RUN_BASE + i * LINE_BYTES) for i in range(lo, hi)]


def _reads(lo: int, hi: int) -> list:
    return _lines_of(True, lo, hi)


def _writes(lo: int, hi: int) -> list:
    return _lines_of(False, lo, hi)


# Each case: records, run cuts, hints (first line, lines, VN or "offchip"[,
# MAC]) and a tamper (after run, attack, line, source line, bit), the lines
# picked among the touched lines in address order, as above.
_SPAN_EDGES = {
    # a span stops before another run's start and coalesces with it; the
    # claimed lines after it verify per line, then a span continues the run
    "span_reaches_another_run": (
        _reads(40, 48) + _reads(0, 64), [8, 64], [(0, 64, "offchip")], None),
    # a span closes the sweep, which passes; then a tamper of a line ahead
    # makes the next span's close fault
    "span_closes_the_sweep": (
        _reads(0, 64) + _reads(0, 11) + _reads(11, 64), [64, 11, 53],
        [(0, 64, "offchip")], (1, "bitflip", 50, 0, 3)),
    # a line whose VN was tampered ends a span and reads per line
    "tampered_vn_mid_span": (
        _reads(0, 11) + _reads(11, 64), [11, 53], [(0, 64, "offchip")],
        (0, "vn_tamper", 40, 0, 0)),
    # covered lines never written, under a hint that carried a MAC: they
    # hold the zeros sealed when the memory was built
    "never_written_lines_in_a_span": (
        _reads(0, 30) + _reads(30, 64), [30, 34], [(0, 64, 0, 0x1234)], None),
    # boundary extensions over lines never written and lines written
    "never_written_lines_in_a_chain": (
        _writes(210, 212) + _reads(200, 204) + _reads(204, 230), [80],
        [], None),
    # in-update spans stop short of the last address, which finishes the
    # update; a second update, an incomplete one and a double write follow
    "write_span_ends_at_last_address": (
        _reads(0, 64) + _writes(0, 64) + _reads(0, 64) + _writes(0, 64)
        + _writes(0, 30) + _writes(63, 64) + _reads(64, 72)
        + _writes(64, 72) + _writes(66, 68),
        [200], [(0, 64, "offchip"), (64, 8, "offchip")], None),
    # an in-update span stops before a line this update already wrote,
    # whose second write invalidates the entry
    "write_span_stops_before_a_written_line": (
        _writes(0, 1) + _writes(20, 30) + _writes(1, 40) + _reads(0, 64), [80],
        [(0, 64, "offchip")], None),
    # a write run cut inside a VN-line: the next run's span starts in the
    # VN-line the last write of the run before left in the cache, after the
    # state check flushed the tree
    "write_span_resumes_a_vn_line": (
        _writes(0, 64) + _reads(0, 64), [4, 60], [(0, 64, "offchip")], None),
    # a chain crosses into a cached VN-line and a cold one, meets the next
    # entry (whose covered reads follow), and that entry's chain goes on
    "chain_crosses_vn_lines_and_meets_an_entry": (
        _reads(12, 13) + _reads(0, 4) + _reads(4, 31), [1, 4, 80],
        [(16, 8, "offchip")], None),
    # two covered spans and a chain interleaved line by line, as the
    # optimizer reads its streams
    "interleaved_spans_and_a_chain": (
        [rec for j in range(40) for rec in
         _reads(j, j + 1) + _reads(100 + j, 101 + j) + _reads(200 + j, 201 + j)],
        [120], [(0, 64, "offchip"), (100, 64, "offchip")], None),
    # an address outside the region mid-run, after in-update writes and
    # misses: the writes before it are stored, it is rejected, and the rest
    # of its run is not written
    "address_outside_the_region_ends_a_write_run": (
        _writes(0, 20) + _writes(100, 104)
        + [(False, _RUN_BASE + _RUN_LINES * LINE_BYTES)] + _writes(20, 64) + _reads(0, 64),
        [80], [(0, 64, "offchip")], None),
    # a plaintext that is not one line, at an update's first line and then
    # mid-update, is rejected before its write changes anything; the
    # update then completes and the sweep after it passes
    "rejected_writes_leave_the_update_intact": (
        [(False, _RUN_BASE, b"bad")] + _writes(0, 20)
        + [(False, _RUN_BASE + 20 * LINE_BYTES, b"\x01" * 65)] + _writes(20, 64)
        + _reads(0, 64),
        [1, 21, 44, 64], [(0, 64, "offchip")], None),
}


@pytest.mark.parametrize("case", list(_SPAN_EDGES))
@pytest.mark.parametrize("crypto_on", [True, False])
def test_run_methods_match_per_line_loops_at_span_edges(case, crypto_on):
    records, cuts, hints, tamper = _SPAN_EDGES[case]
    _diff_runs(records, crypto_on, cuts, hints, tamper)


def _diff_runs(records, crypto_on, cuts, hints, tamper, n_lines=_RUN_LINES):
    """Replay `records` through `read_lines`/`write_lines` on one analyzer and
    through `on_read`/`on_write` on another, in runs cut at `cuts`; after
    every run, and at a fault or a rejected write, what the core saw and
    the state must be equal. A write record may carry its plaintext. `hints` = [(first line, lines, VN[, MAC])] first installs tensor
    hints there, under the off-chip VN ("offchip") or the one given, which
    the lines need not hold, and with the MAC given, if one is;
    `tamper` = (after run, attack, line, source
    line, bit) attacks both memories once between runs."""
    sides = []
    for _ in range(2):
        mem = ProtectedMemory(_RUN_BASE, n_lines, KEY, metadata_cache_bytes=1024,
                              crypto_on=crypto_on)
        ta = TenAnalyzer(mem)
        for first, n, vn, *mac in hints or ():
            base = _RUN_BASE + first * LINE_BYTES
            ta.install_hint(base, n, tensor_id=7 + first,
                            vn=mem.vn_of(base) if vn == "offchip" else vn,
                            mac=mac[0] if mac else None)
        sides.append(ta)
    run_ta, ref = sides
    touched = sorted({rec[1] for rec in records})
    serial = 0
    for n, run in enumerate(_split_runs(records, cuts)):
        vas = [rec[1] for rec in run]
        # a write record may carry its own plaintext
        plains = [rec[2] if len(rec) > 2 else (serial + i).to_bytes(8, "little") * 8
                  for i, rec in enumerate(run)]
        serial += len(run)
        if run[0][0]:
            got = _run_attempt(run_ta.read_lines, vas)
            want = [], None
            for va in vas:
                out = _run_attempt(ref.on_read, va)
                if out[0] == "fault":
                    want = out
                    break
                want[0].append(out[1][0])
            want = want if want[0] == "fault" else ("ok", want[0])
        else:
            got = _run_attempt(run_ta.write_lines, vas, plains)
            want = ("ok", None)
            for va, plain in zip(vas, plains):
                out = _run_attempt(ref.on_write, va, plain)
                if out[0] != "ok":
                    want = out
                    break
        assert got == want, n
        assert _analyzer_state(run_ta) == _analyzer_state(ref), n
        if got[0] == "fault":
            return
        run_ta.check_disjoint()
        if tamper is not None and tamper[0] == n and crypto_on:
            _, attack, line, src, bit = tamper
            for ta in sides:
                snap = ta.mem.snapshot_triple(touched[src % len(touched)])
                ta.mem.inject_attack(attack, touched[line % len(touched)], bit=bit,
                                     snapshot=snap)


# -- merge candidates ------------------------------------------------------------

def _merge_reference(ta: TenAnalyzer, e: MetaTableEntry, stamps: dict) -> list:
    """`try_merge`'s candidates as a stable sort of the whole table by
    `stamps`, the stamp of each entry's last touch, gives them."""
    return sorted([c for c in ta.entries if c is not e and c.uf == 0],
                  key=stamps.__getitem__, reverse=True)[:ta.merge_window]


@given(trace=st.sampled_from(["adam", "gemm", "fuzz"]),
       cuts=st.lists(st.integers(1, 80), min_size=1, max_size=6),
       window=st.integers(1, 8), runs=st.booleans())
@settings(max_examples=40, deadline=None)
def test_merge_candidates_match_a_stable_sort_of_the_table(trace, cuts, window, runs):
    records, _, n_lines = _RUN_TRACES[trace]
    ta = TenAnalyzer(ProtectedMemory(_RUN_BASE, n_lines, KEY, crypto_on=False),
                     merge_window=window)
    candidates, touch, stamps = ta.merge_candidates, ta._touch, {}

    def checked(e):
        got = candidates(e)
        assert got == _merge_reference(ta, e, stamps)
        return got

    def recorded(e, stamp=None):
        stamps[e] = touch(e, stamp)
        return stamps[e]

    ta.merge_candidates, ta._touch = checked, recorded
    for run in _split_runs(records, cuts):
        vas = [va for _, va in run]
        is_read = run[0][0]
        if not runs:
            for va in vas:
                if is_read:
                    ta.on_read(va)
                else:
                    ta.on_write(va, bytes(LINE_BYTES))
        elif is_read:
            ta.read_lines(vas)
        else:
            ta.write_lines(vas, [bytes(LINE_BYTES)] * len(vas))
        for e in ta.entries:
            assert candidates(e) == _merge_reference(ta, e, stamps)
    # every stamp is taken once, so no two entries tie, and the table's
    # recency order is that of their stamps
    assert len({stamps[e] for e in ta.entries}) == len(ta.entries)
    assert list(ta._recent) == sorted(ta.entries, key=stamps.__getitem__)


def test_boundary_spans_touch_their_entries_in_stamp_order():
    # one read-run segment extends two entries, the first one last; the
    # second's lines are written twice, so that the two do not merge
    ta, mem = make(64)
    for i in (*range(48), *range(32, 48)):
        mem.write_line(BASE + i * LINE_BYTES, payload(i))
    for first in (0, 32):
        for i in range(first, first + 4):
            ta.on_read(BASE + i * LINE_BYTES)
    a, b = ta.entry_at(BASE), ta.entry_at(BASE + 32 * LINE_BYTES)
    assert a is not None and b is not None
    ta.read_lines([BASE + 4 * LINE_BYTES, BASE + 36 * LINE_BYTES, BASE + 5 * LINE_BYTES])
    assert ta.stats["r_hit_boundary"] == 3
    assert list(ta._recent)[-2:] == [b, a]


# -- set-up-shaped write runs ------------------------------------------------------

@pytest.mark.parametrize("tensor_id", [0, 7, 1 << 62, (1 << 63) + 12345, (1 << 64) - 1])
def test_per_line_covered_writes_bind_the_tensor_line_codes(tensor_id):
    # each covered write of an update binds its line to the tensor-logical
    # code `tensor_line_codes` gives the whole tensor
    ta, mem = make(64, crypto_on=False)
    assert ta.install_hint(BASE, 16, tensor_id=tensor_id) == "installed"
    for k in (0, 9, 5, *range(1, 5), *range(6, 9), *range(10, 16)):
        ta.on_write(BASE + k * LINE_BYTES, payload(k))
    assert ta.stats["w_edge_finish"] == 1
    assert list(mem._codes[:16]) == list(tensor_line_codes(tensor_id, 16))
    for k in (0, 1, 9, 15):
        assert binding_code(BindingMode.TENSOR_LOGICAL, tensor_id, k * LINE_BYTES) == \
            tensor_line_codes(tensor_id, 16)[k]


_SETUP_LINES = 64


def _setup_records() -> list:
    """A set-up's writes: w (hinted), m and v, interleaved line by line, as
    `ZeroOffloadRunner.setup_state` writes them."""
    n = _SETUP_LINES
    return [(False, _RUN_BASE + (s * n + j) * LINE_BYTES) for j in range(n) for s in range(3)]


@pytest.mark.parametrize("crypto_on, fault", [(True, False), (True, True), (False, False)])
@pytest.mark.parametrize("cache_bytes", [1024, 32 * 1024])
def test_set_up_shaped_write_run_matches_on_write_loop(crypto_on, fault, cache_bytes):
    # one write run of three interleaved streams against `on_write` a line;
    # with `fault`, m's line 40 holds a replayed VN-line whose cold walk
    # faults mid-run, after w's line 40 is written
    n = _SETUP_LINES
    sides = []
    for _ in range(2):
        mem = ProtectedMemory(_RUN_BASE, 3 * n + 8, KEY, metadata_cache_bytes=cache_bytes,
                              crypto_on=crypto_on)
        ta = TenAnalyzer(mem)
        assert ta.install_hint(_RUN_BASE, n, tensor_id=9) == "installed"
        if fault:
            pa = _RUN_BASE + (n + 40) * LINE_BYTES
            mem.write_line(pa, b"\x01" * LINE_BYTES)
            snap = mem.snapshot_triple(pa)
            mem.write_line(pa, b"\x02" * LINE_BYTES)
            mem.inject_attack("replay", pa, snapshot=snap)
            mem.flush_metadata_cache()
        sides.append(ta)
    records = _setup_records()
    vas = [va for _, va in records]
    plains = [(i + 1).to_bytes(8, "little") * 8 for i in range(len(vas))]
    calls = []
    store = sides[0].mem.write_indexed

    def counted(idxs, plains, sources):
        calls.append(len(idxs))
        store(idxs, plains, sources)

    with mock.patch.object(sides[0].mem, "write_indexed", counted):
        got = _run_attempt(sides[0].write_lines, vas, plains)
    want = ("ok", None)
    for va, plain in zip(vas, plains):
        out = _run_attempt(sides[1].on_write, va, plain)
        if out[0] != "ok":
            want = out
            break
    assert got == want
    assert got[0] == ("fault" if fault else "ok")
    assert _analyzer_state(sides[0]) == _analyzer_state(sides[1])
    if not fault:
        sides[0].check_vn_consistency()
        assert sides[0].stats["w_edge_finish"] == 1
        # w's first and last lines go through `on_write` (start and finish);
        # every other write is stored by one call before or after them
        assert calls == [1, 3 * n - 4, 1, 2]
