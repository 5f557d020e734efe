"""Meta Table / Tensor Filter / update-bitmap protocol tests, including the
spec'd read and write dataflow cases, merging, hints, context switching, the
consistency/transparency invariants, and the batched covered-read path
against a per-line reference."""

import random
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from teesim import tenanalyzer
from teesim.baseline import ProtectedMemory
from teesim.crypto import (
    IntegrityFault, KeyMaterial, LINE_BYTES, line_pad, line_tag,
)
from teesim.tenanalyzer import (
    EDGE_FINISH, EDGE_START, HIT_BOUNDARY, HIT_IN, INVALIDATE, MISS,
    SWEEP_FOLD_LINES, WRITE_HIT_IN, MetaTableEntry, TenAnalyzer,
)

KEY = KeyMaterial.from_seed(0x7E57)
BASE = 0x100000


def make(n_lines=8192, crypto_on=True, **kw):
    mem = ProtectedMemory(BASE, n_lines, KEY, crypto_on=crypto_on)
    return TenAnalyzer(mem, **kw), mem


def seed_entry(ta, base, nx, ny=1, stride=LINE_BYTES, vn=0):
    """Plant a table entry directly (unit-test shortcut)."""
    mac = 0
    probe = MetaTableEntry(base, nx, ny, stride, vn, 0)
    mem = ta.mem
    for va in probe.addresses():
        idx = mem.line_index(va)
        li = idx // 8
        mem._vns[idx] = vn
        mem.tree.update_path(li, mem._vn_line(li))
        mem._written[idx] = 0
        mem.line(idx)      # zeros, sealed under vn
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
    e = ta.cover[start]
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
    e = ta.cover[start]
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
    assert merged.valid and not a.valid
    assert (merged.base, merged.nx, merged.ny, merged.stride) == (BASE, 4, 2, 0x400)


def test_vn_mismatch_blocks_merge():
    ta, _ = make()
    a = seed_entry(ta, BASE, 4, vn=5)
    b = seed_entry(ta, BASE + 0x400, 4, vn=6)
    ta.try_merge(b)
    assert a.valid and b.valid  # both stay: no merge


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
    kinds = [ta.on_write(BASE + i * LINE_BYTES, payload(i)).kind for i in range(4)]
    assert kinds == [EDGE_START, WRITE_HIT_IN, WRITE_HIT_IN, EDGE_FINISH]
    assert e.vn == 6 and e.uf == 0 and e.bs == 1
    for i in range(4):
        assert mem.vn_of(BASE + i * LINE_BYTES) == 6
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
    assert not e.valid


def test_incomplete_update_invalidates():
    ta, _ = make()
    e = seed_entry(ta, BASE, 4, vn=0)
    ta.on_write(BASE, payload(0))
    ta.on_write(BASE + LINE_BYTES, payload(1))
    out = ta.on_write(BASE + 3 * LINE_BYTES, payload(3))  # skip line 2, hit last
    assert out.kind == INVALIDATE and out.reason == "incomplete_update"
    assert not e.valid


def test_early_update_invalidates():
    ta, _ = make()
    e = seed_entry(ta, BASE, 4, vn=0)
    out = ta.on_write(BASE + 2 * LINE_BYTES, payload(2))  # before start
    assert out.kind == INVALIDATE and out.reason == "early_update"
    assert not e.valid


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
    assert any(x.valid and x.line_count == 64 for x in ta.entries)


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


def test_functional_transparency_en_tmf_on_off():
    rng = random.Random(11)
    ops = []
    for _ in range(600):
        line = rng.randrange(256)
        if rng.random() < 0.4:
            ops.append(("w", line, rng.randbytes(LINE_BYTES)))
        else:
            ops.append(("r", line, None))
    results = []
    for en in (True, False):
        ta, _ = make(n_lines=256, en_tmf=en)
        out = []
        for kind, line, data in ops:
            va = BASE + line * LINE_BYTES
            if kind == "w":
                ta.on_write(va, data)
            else:
                try:
                    plain, _ = ta.on_read(va)
                except IntegrityFault as f:  # pragma: no cover
                    plain = f.kind
                out.append(plain)
        results.append(out)
    assert results[0] == results[1]


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
        if e.valid:
            for va in sorted(e.addresses()):
                ta.on_write(va, rng.randbytes(LINE_BYTES))
    ta.check_vn_consistency()
    ta.check_disjoint()


# -- batched covered reads against the per-line reference --------------------------


class ScalarTenAnalyzer(TenAnalyzer):
    """The reference: covered reads as they were before they were batched per
    tensor, each pad from `line_pad` and each sweep line's tag from
    `line_tag` at the moment it is read."""

    def _pad(self, e, k, code, vn):
        return line_pad(self.mem.key, code, vn)

    def _sweep_take(self, run, ct, code, vn):
        run[1] ^= line_tag(self.mem.key, code, vn, ct)


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


def _attempt(fn, *args):
    try:
        return "ok", fn(*args)
    except IntegrityFault as f:
        return "fault", f.kind


def _lines(ta: TenAnalyzer, where) -> list[int]:
    if where[0] == "entry":
        entries = sorted((e for e in ta.entries if e.valid), key=lambda e: e.base)
        return sorted(entries[where[1] % len(entries)].addresses()) if entries else []
    first, n = where
    return [BASE + (first + i) * LINE_BYTES for i in range(min(n, _DIFF_LINES - first))]


def _tamper(mem: ProtectedMemory, pa: int, attack: str, src: int, bit: int) -> None:
    snap = mem.snapshot_triple(BASE + src * LINE_BYTES)
    mem.inject_attack(attack, pa, bit=bit, snapshot=snap)


def _diff_op(ta: TenAnalyzer, op, serial: int, active: int, attacks: bool):
    """Apply one op; returns what the core saw, stopping a sweep or an update
    at its first fault."""
    kind = op[0]
    if kind == "switch":
        ta.context_switch("save", active)
        ta.context_switch("restore", 3 - active)
        return None
    if kind == "read":
        return _attempt(ta.on_read, BASE + op[1] * LINE_BYTES)
    if kind == "tamper":
        if attacks:
            _tamper(ta.mem, BASE + op[1] * LINE_BYTES, *op[2:])
        return None
    pas = _lines(ta, op[1])
    if not pas:
        return None
    if kind == "hint":
        vn = ta.mem.vn_of(pas[0]) if op[2] == "offchip" else op[2]
        return _attempt(lambda: ta.install_hint(pas[0], len(pas), vn=vn,
                                                tensor_id=op[3]))
    out = []
    for i, pa in enumerate(pas):
        if kind == "sweep":
            out.append(_attempt(ta.on_read, pa))
            if op[2] is not None and op[2][0] == i and attacks:
                _, attack, at, src, bit = op[2]
                _tamper(ta.mem, pas[at % len(pas)], attack, src, bit)
        else:
            out.append(_attempt(ta.on_write, pa, (serial + i).to_bytes(8, "little") * 8))
            if i == op[2]:
                out.append(_attempt(ta.on_read, pas[-1]))
        if out[-1][0] == "fault":
            break
    return out


# the second argument turns functional crypto on; the third is the number
# of consumed lines a sweep run keeps before MACing them, small enough in
# some examples for a 16-line sweep to fold more than once
@given(_DIFF_OPS, st.booleans(), st.sampled_from([SWEEP_FOLD_LINES, 5]))
@settings(max_examples=200, deadline=None)
# a tamper of a line the open sweep already consumed
@example([("hint", (0, 16), None, 7), ("update", ("entry", 0), None),
          ("sweep", (0, 16), (7, "bitflip", 3, 0, 9))], True, SWEEP_FOLD_LINES)
# the same, of a consumed line not yet folded, after an earlier fold
@example([("hint", (0, 16), None, 7), ("update", ("entry", 0), None),
          ("sweep", (0, 16), (7, "bitflip", 6, 0, 9))], True, 5)
# a replay of another line's ciphertext and binding before it is read
@example([("hint", (0, 16), None, 7), ("update", ("entry", 0), None),
          ("sweep", (0, 16), (7, "replay", 10, 20, 0))], True, SWEEP_FOLD_LINES)
# a pad computed during an update, at the entry's old VN, then the finish
@example([("hint", (0, 16), None, None), ("update", ("entry", 0), 0),
          ("read", 15)], True, SWEEP_FOLD_LINES)
# a boundary extension folded into an open sweep, across a context switch
@example([("sweep", (16, 16), None), ("sweep", (24, 9), None), ("switch",),
          ("sweep", (0, 4), None), ("switch",), ("sweep", (16, 8), None)], True,
         SWEEP_FOLD_LINES)
def test_batched_covered_reads_match_per_line_reference(ops, crypto_on, fold):
    with mock.patch.object(tenanalyzer, "SWEEP_FOLD_LINES", fold):
        _diff_run(ops, crypto_on)


def _diff_run(ops, crypto_on):
    keys = {1: KeyMaterial.from_seed(1), 2: KeyMaterial.from_seed(2)}
    sides = []
    for cls in (TenAnalyzer, ScalarTenAnalyzer):
        mems = {eid: ProtectedMemory(BASE, _DIFF_LINES, key, crypto_on=crypto_on)
                for eid, key in keys.items()}
        ta = cls(mems[1])
        for eid, mem in mems.items():
            ta.attach_enclave(eid, mem)
        sides.append((ta, mems))
    (ta, mems), (ref, ref_mems) = sides
    active, serial = 1, 0
    for op in ops:
        # attacks need functional crypto
        seen = [_diff_op(t, op, serial, active, crypto_on) for t in (ta, ref)]
        assert seen[0] == seen[1], op
        assert ta.stats == ref.stats and ta.dump_table() == ref.dump_table()
        for eid in keys:
            assert mems[eid].totals == ref_mems[eid].totals
        if op[0] == "switch":
            active = 3 - active
        elif op[0] == "update":
            serial += _DIFF_LINES
