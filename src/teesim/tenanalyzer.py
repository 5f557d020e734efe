"""Tensor-granularity engine on the CPU memory path.

Detects tensor structure from core-issued virtual-address streams and serves
version numbers from an on-chip table so steady-state reads touch no off-chip
metadata. Three read outcomes: hit-in (inside a known range), hit-boundary
(exactly one stride past a range end; the VN is used speculatively while the
off-chip VN is fetched for confirmation), miss (baseline path + the address
goes to the pattern filter). Writes run a bitmap-guarded protocol that admits
any tile order but insists every covered line is written exactly once per
tensor update; violations invalidate the entry and fall back to per-line
protection.

Entries also carry the tensor's XOR-aggregate MAC: it is born at promotion
from the per-line MACs observed on the miss path, folded forward on boundary
extensions, refolded from the fresh line tags that sealing hands back on-chip
when a complete write sweep finishes, and checked (for free) whenever
sequential reads cover the whole entry. Out-of-order covered reads, and reads
of an entry mid-update, fall back to per-line MAC fetch+verify.

A covered read's pad and its place in a sweep depend only on on-chip state
(the entry's VN and geometry), so the host does that crypto per tensor, not
per line. The first covered read of an entry at its VN computes every line's
pad in one batch; a line whose VN or binding differs from what the batch
assumed gets its own. A sweep keeps the ciphertext each read consumed and
MACs it in batches of up to `SWEEP_FOLD_LINES` lines, the last when the
sweep reaches the tensor-MAC check.
Bytes, cycles, stats and faults are those of doing it line by line, at the
same reads. Under the null key (light mode) a covered read's pad is zero and
a sweep folds the stored MACs, which its consumed tags equal on honest runs.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from operator import attrgetter
from typing import Optional

from .baseline import AES_CYCLES, MAC_CYCLES, MetadataCache, ProtectedMemory
from .crypto import (
    KEYSTREAM_BATCH_MIN, LINE_BYTES, MASK56, BindingMode, CounterBinding,
    IntegrityFault, keystream_lines, line_pad, line_tag, mac_xor_aggregate,
    open_lines,
)
# unused, but perfbench/tests' tracer test looks these names up here
from .crypto import keystream, mac_block  # noqa: F401

MAX_STRIDE_BYTES = 1024 * LINE_BYTES   # 10-bit line-stride semantics, stored wider
FILTER_WINDOW_BYTES = 4096             # max delta the filter will chain across;
                                       # larger strides come from entry merging
MAX_SWEEP_RUNS = 16                    # concurrent sequential read cursors per entry
SWEEP_FOLD_LINES = 1024                # consumed lines a sweep run keeps before MACing them
_TOUCHED = attrgetter("touched")

HIT_IN = "hit_in"
HIT_BOUNDARY = "hit_boundary"
MISS = "miss"
EDGE_START = "edge_start"
EDGE_FINISH = "edge_finish"
WRITE_HIT_IN = "w_hit_in"
INVALIDATE = "invalidate"


@dataclass
class ReadOutcome:
    kind: str                      # hit_in | hit_boundary | miss
    vn: Optional[int] = None
    confirmed: Optional[bool] = None   # hit_boundary only


@dataclass
class WriteOutcome:
    kind: str                      # edge_start | edge_finish | w_hit_in | miss | invalidate
    reason: Optional[str] = None   # invalidate only
    vn: Optional[int] = None       # edge_finish: the incremented tensor VN


class MetaTableEntry:
    """One on-chip tensor descriptor: address range as (lines-per-row, rows)
    with a byte stride between rows, shared VN and aggregate MAC, the
    updating flag / bit-state pair, and the last covered address."""

    __slots__ = ("base", "nx", "ny", "planes", "stride", "vn", "mac",
                 "uf", "bs", "valid", "tensor_id", "last_addr",
                 "update_count", "write_tags", "runs", "runs_by_next",
                 "pads", "pad_codes", "lru", "touched")

    def __init__(self, base, nx, ny, stride, vn, mac, tensor_id=None):
        self.base = base
        self.nx = nx
        self.ny = ny
        self.planes = 1
        self.stride = stride
        self.vn = vn
        self.mac = mac
        self.uf = 0
        self.bs = 0
        self.valid = True
        self.tensor_id = tensor_id
        self.last_addr = base + (ny - 1) * stride + (nx - 1) * LINE_BYTES
        self.update_count = 0
        # fresh tags of the lines written in the current update, appended
        # on-chip as they are sealed
        self.write_tags: list[int] = []
        # run_start -> [next_ordinal, acc, consumed (ciphertext, binding
        # code, VN) not yet folded into acc]
        self.runs: dict[int, list] = {}
        self.runs_by_next: dict[int, int] = {}
        # pads of every line under `vn`, 64 B per ordinal, and the binding
        # codes they were made for; None until the first covered read
        self.pads: Optional[bytes] = None
        self.pad_codes: list[int] = []
        self.lru = 0
        self.touched = 0

    @property
    def line_count(self) -> int:
        return self.nx * self.ny

    def ordinal(self, va: int) -> int:
        """Covered-line index in address order, or -1."""
        off = va - self.base
        if off < 0:
            return -1
        if self.ny == 1:
            if off % LINE_BYTES:
                return -1
            c = off // LINE_BYTES
            return c if c < self.nx else -1
        r, rem = divmod(off, self.stride)
        if r >= self.ny or rem % LINE_BYTES:
            return -1
        c = rem // LINE_BYTES
        return r * self.nx + c if c < self.nx else -1

    def addresses(self):
        base, nx, stride = self.base, self.nx, self.stride
        for r in range(self.ny):
            row = base + r * stride
            for c in range(nx):
                yield row + c * LINE_BYTES

    def run_step(self) -> Optional[int]:
        """Boundary-extension step: only single-run entries may extend."""
        if self.ny == 1:
            return LINE_BYTES if self.nx > 1 else self.stride
        if self.nx == 1:
            return self.stride
        return None

    def reset_sweep(self) -> None:
        self.runs.clear()
        self.runs_by_next.clear()
        self.pads = None
        self.pad_codes = []

    def dump(self) -> dict:
        return {"base": self.base, "dims": [self.nx, self.ny, self.planes],
                "stride": self.stride, "vn": self.vn, "uf": self.uf,
                "bs": self.bs, "valid": self.valid}


class _FilterEntry:
    __slots__ = ("addrs", "delta", "stamp")

    def __init__(self, va, vn, mac, stamp):
        self.addrs = [(va, vn, mac)]
        self.delta: Optional[int] = None
        self.stamp = stamp


class UpdateBitmap:
    """One bit per covered cacheline, in a modeled off-chip region behind a
    small on-chip cache. Each 64 B bitmap line covers 512 cachelines."""

    SPAN = 512 * LINE_BYTES  # data bytes covered by one bitmap line

    def __init__(self, cache_bytes: int = 6 * 1024):
        self.bits: dict[int, int] = {}
        self.cache = MetadataCache(cache_bytes)
        self.rd_bytes = 0

    def _touch(self, va: int) -> None:
        line = va // self.SPAN
        if self.cache.get(("bm", line)) is None:
            self.rd_bytes += LINE_BYTES
            self.cache.put(("bm", line), True)

    def _touch_runs(self, addrs: list) -> None:
        """`_touch` each run of consecutive addresses in one bitmap line
        once: a repeat touch would only hit the line just made MRU, so
        `rd_bytes` and the LRU order are the same, with fewer cache hits."""
        last = None
        for va in addrs:
            line = va // self.SPAN
            if line != last:
                self._touch(va)
                last = line

    def get(self, va: int) -> int:
        self._touch(va)
        return self.bits.get(va, 0)

    def flip(self, va: int) -> None:
        self._touch(va)
        self.bits[va] = self.bits.get(va, 0) ^ 1

    def set_range(self, addrs, value: int) -> None:
        addrs = list(addrs)
        self._touch_runs(addrs)
        self.bits.update(dict.fromkeys(addrs, value))

    def range_equals(self, addrs, value: int) -> bool:
        addrs = list(addrs)
        self._touch_runs(addrs)
        bits = self.bits
        return all(bits.get(va, 0) == value for va in addrs)


class TenAnalyzer:
    """Meta Table + Tensor Filter in front of one enclave's ProtectedMemory."""

    def __init__(self, mem: ProtectedMemory, *, en_tmf: bool = True,
                 table_entries: int = 512, filter_entries: int = 10,
                 collect_limit: int = 4, merge_window: int = 8,
                 bitmap_cache_bytes: int = 6 * 1024):
        self.mem = mem
        self.en_tmf = en_tmf
        self.table_entries = table_entries
        self.filter_entries = filter_entries
        self.collect_limit = collect_limit
        self.merge_window = merge_window
        self.bitmap_cache_bytes = bitmap_cache_bytes

        self.entries: list[MetaTableEntry] = []
        self.cover: dict[int, MetaTableEntry] = {}
        self.boundary: dict[int, MetaTableEntry] = {}
        self.filter: list[_FilterEntry] = []
        self.bitmap = UpdateBitmap(bitmap_cache_bytes)
        self.pending_hints: list[dict] = []
        self._stamp = 0
        self.stats: dict[str, int] = {
            "r_hit_in": 0, "r_hit_boundary": 0, "r_boundary_mispredict": 0,
            "r_miss": 0, "w_edge_start": 0, "w_edge_finish": 0, "w_hit_in": 0,
            "w_miss": 0, "w_invalidate": 0, "promotions": 0, "merges": 0,
            "evictions": 0, "sweep_verifies": 0, "hint_installed": 0,
            "hint_deferred": 0, "hint_noop": 0, "filter_recycled": 0,
        }
        self._enclaves: dict[int, ProtectedMemory] = {}
        self._saved: dict[int, dict] = {}
        # (tensor id, byte offset) -> the tensor-logical binding of that line
        self._tensor_bindings: dict[tuple[int, int], CounterBinding] = {}

    # -- small helpers -------------------------------------------------------

    def _tick(self) -> int:
        self._stamp += 1
        return self._stamp

    def _index_entry(self, e: MetaTableEntry) -> None:
        for va in e.addresses():
            self.cover[va] = e
        step = e.run_step()
        if step is not None:
            self.boundary[e.last_addr + step] = e

    def _unindex_entry(self, e: MetaTableEntry) -> None:
        for va in e.addresses():
            if self.cover.get(va) is e:
                del self.cover[va]
        step = e.run_step()
        if step is not None and self.boundary.get(e.last_addr + step) is e:
            del self.boundary[e.last_addr + step]

    def _invalidate(self, e: MetaTableEntry, reason: str) -> None:
        self._unindex_entry(e)
        e.valid = False
        e.uf = 0
        e.reset_sweep()
        if e in self.entries:
            self.entries.remove(e)
        self.stats["w_invalidate"] += 1
        self.stats[f"inval_{reason}"] = self.stats.get(f"inval_{reason}", 0) + 1
        # falling back to cacheline protection: regenerate the range's
        # per-line MACs from ciphertext (background sweep, costed)
        n = e.line_count
        self.mem.totals["rebuild_bytes"] += n * LINE_BYTES \
            + (-(-n // 8)) * LINE_BYTES
        self.mem.totals["cycles"] += MAC_CYCLES * n

    def _evict_for_space(self) -> bool:
        if len(self.entries) < self.table_entries:
            return True
        victim = None
        for e in self.entries:
            if e.uf == 0 and (victim is None or e.lru < victim.lru):
                victim = e
        if victim is None:
            return False  # everything mid-update; caller drops the insert
        self._unindex_entry(victim)
        victim.valid = False
        self.entries.remove(victim)
        self.stats["evictions"] += 1
        return True

    def _insert_entry(self, e: MetaTableEntry) -> Optional[MetaTableEntry]:
        for va in e.addresses():
            if va in self.cover:
                return None  # range disjointness: refuse overlapping insert
        if not self._evict_for_space():
            return None
        e.lru = e.touched = self._tick()
        self.entries.append(e)
        self._index_entry(e)
        self.bitmap.set_range(e.addresses(), 0)
        e.bs = 0
        return e

    # -- read dataflow --------------------------------------------------------

    def on_read(self, va: int):
        """Resolve one cacheline read. Returns (plaintext, ReadOutcome)."""
        mem = self.mem
        if not self.en_tmf:
            plain, _ = mem.read_line(va)
            self.stats["r_miss"] += 1
            return plain, ReadOutcome(MISS)

        e = self.cover.get(va)
        if e is not None:
            return self._read_hit_in(e, va)

        b = self.boundary.get(va)
        if b is not None and b.valid and b.uf == 0:
            return self._read_hit_boundary(b, va)

        # miss: full baseline path, then pattern collection
        self.stats["r_miss"] += 1
        plain, _ = mem.read_line(va)
        idx = mem.line_index(va)
        self.filter_collect(va, mem.vn_of(va), mem.macs[idx])
        return plain, ReadOutcome(MISS)

    def _read_hit_in(self, e: MetaTableEntry, va: int):
        mem = self.mem
        t = mem.totals
        self.stats["r_hit_in"] += 1
        e.lru = self._tick()
        t["reads"] += 1
        t["data_rd"] += LINE_BYTES
        t["cycles"] += AES_CYCLES
        if e.uf and self.bitmap.get(va) != e.bs:
            vn_eff = (e.vn + 1) & MASK56
        else:
            vn_eff = e.vn
        idx = mem.line_index(va)
        ct, code = mem.line(idx)
        k = e.ordinal(va)
        if mem.key.null:
            # the null pad is 0; its batch made a light criterion-4 iteration 8-16% slower
            plain = ct
        else:
            plain = (int.from_bytes(ct, "little") ^ self._pad(e, k, code, vn_eff)
                     ).to_bytes(LINE_BYTES, "little")
        self._hit_in_mac(e, k, idx, ct, code, vn_eff, t)
        return plain, ReadOutcome(HIT_IN, vn=vn_eff)

    def _pad(self, e: MetaTableEntry, k: int, code: int, vn: int) -> int:
        """`line_pad(key, code, vn)` for covered line `k`. The pads depend on
        on-chip state only, so the first read of an entry at its VN computes
        every line's pad in one batch; a line whose VN or binding differs
        from what the batch assumed, or that the entry gained since, gets its
        own."""
        if vn == e.vn:
            if e.pads is None and e.line_count >= KEYSTREAM_BATCH_MIN:
                self._fill_pads(e)
            if k < len(e.pad_codes) and e.pad_codes[k] == code:
                return int.from_bytes(e.pads[k * LINE_BYTES:(k + 1) * LINE_BYTES],
                                      "little")
        return line_pad(self.mem.key, code, vn)

    def _fill_pads(self, e: MetaTableEntry) -> None:
        e.pad_codes = self.mem.codes(e.addresses())
        e.pads = keystream_lines(self.mem.key, e.pad_codes, e.vn).tobytes()

    def _hit_in_mac(self, e, k, idx, ct, code, vn_eff, t) -> None:
        """Sequential covered reads accumulate toward a free whole-tensor MAC
        check; anything else verifies the line against its off-chip MAC."""
        if e.uf:
            self._per_line_mac(idx, ct, code, vn_eff, t)
            return
        run_start = e.runs_by_next.pop(k, None)
        if run_start is not None:
            run = e.runs[run_start]
        elif self._ordinal_unclaimed(e, k) and len(e.runs) < MAX_SWEEP_RUNS:
            run = e.runs[k] = [k, 0, []]
            run_start = k
        else:
            self._per_line_mac(idx, ct, code, vn_eff, t)
            return
        t["cycles"] += MAC_CYCLES
        mem = self.mem
        if mem.key.null:
            # the null tag is the stored MAC; MACing made criterion 4 16-18% slower
            run[1] ^= mem.macs[idx]
        else:
            self._sweep_take(run, ct, code, vn_eff)
        run[0] = k + 1
        # coalesce with a run starting right after
        nxt = e.runs.pop(k + 1, None)
        if nxt is not None:
            run[0] = nxt[0]
            run[1] ^= nxt[1]
            run[2] += nxt[2]
            e.runs_by_next.pop(nxt[0], None)
        e.runs_by_next[run[0]] = run_start
        if run_start == 0 and run[0] == e.line_count:
            self._sweep_fold(run)
            acc = run[1]
            e.reset_sweep()
            if acc != e.mac:
                raise IntegrityFault("tensor_mac", f"entry base={e.base:#x}")
            self.stats["sweep_verifies"] += 1

    def _sweep_take(self, run: list, ct: bytes, code: int, vn: int) -> None:
        """Add a line the core consumed to a sweep run. Its tag is computed
        in one batch with the run's other lines, when the run closes or has
        kept `SWEEP_FOLD_LINES` lines, from the ciphertext the core consumed,
        not from what is stored by then."""
        run[2].append((ct, code, vn))
        if len(run[2]) >= SWEEP_FOLD_LINES:
            self._sweep_fold(run)

    def _sweep_fold(self, run: list) -> None:
        if run[2]:
            cts, codes, vns = zip(*run[2])
            tags, _ = open_lines(self.mem.key, codes, b"".join(cts), vns,
                                 decrypt=False)
            run[1] ^= mac_xor_aggregate(tags)
            run[2] = []

    def _ordinal_unclaimed(self, e, k: int) -> bool:
        for start, run in e.runs.items():
            if start <= k < run[0]:
                return False
        return True

    def _per_line_mac(self, idx, ct, code, vn_eff, t) -> None:
        mem = self.mem
        t["mac_rd"] += LINE_BYTES
        t["cycles"] += MAC_CYCLES
        if line_tag(mem.key, code, vn_eff, ct) != mem.macs[idx]:
            raise IntegrityFault("mac_mismatch", f"line {idx}")

    def _read_hit_boundary(self, e: MetaTableEntry, va: int):
        mem = self.mem
        t = mem.totals
        self.stats["r_hit_boundary"] += 1
        e.lru = self._tick()
        speculative = e.vn
        t["reads"] += 1
        t["data_rd"] += LINE_BYTES
        t["cycles"] += AES_CYCLES      # speculative decrypt under the entry VN
        vn_true, cold = mem.resolve_vn(va, t)
        if cold:
            mem.walk_tree(va, t)
        idx = mem.line_index(va)
        ct, code = mem.line(idx)
        # the line's stored MAC rides along with the VN confirmation
        self._per_line_mac(idx, ct, code, vn_true, t)
        plain = (int.from_bytes(ct, "little") ^ line_pad(mem.key, code, vn_true)
                 ).to_bytes(LINE_BYTES, "little")
        if vn_true == e.vn:
            self._extend(e, va, mem.macs[idx])
            return plain, ReadOutcome(HIT_BOUNDARY, vn=speculative, confirmed=True)
        self.stats["r_boundary_mispredict"] += 1
        t["cycles"] += AES_CYCLES      # re-issued decrypt with the fetched VN
        return plain, ReadOutcome(HIT_BOUNDARY, vn=speculative, confirmed=False)

    def _extend(self, e: MetaTableEntry, va: int, line_mac: int) -> None:
        step = e.run_step()
        old_next = e.last_addr + step
        if self.boundary.get(old_next) is e:
            del self.boundary[old_next]
        new_ordinal = e.line_count
        if e.ny == 1:
            e.nx += 1
        else:
            e.ny += 1
        e.last_addr = va
        e.mac ^= line_mac
        self.cover[va] = e
        self.bitmap.set_range([va], e.bs)
        nxt = va + step
        if nxt not in self.cover:
            self.boundary[nxt] = e
        e.touched = self._tick()
        # fold the verified line's stored tag into an adjacent sweep run if
        # one ends here
        run_start = e.runs_by_next.pop(new_ordinal, None)
        if run_start is not None:
            run = e.runs[run_start]
            run[0] = new_ordinal + 1
            run[1] ^= line_mac
            e.runs_by_next[run[0]] = run_start

    # -- tensor filter ---------------------------------------------------------

    def filter_collect(self, va: int, vn: int, mac: int = 0
                       ) -> Optional[MetaTableEntry]:
        """Join the nearest stride-consistent filter entry (or allocate one);
        at the collection limit, promote when VN and stride are uniform."""
        best = None
        best_gap = None
        for f in self.filter:
            last = f.addrs[-1][0]
            gap = va - last
            if gap <= 0 or gap > FILTER_WINDOW_BYTES or gap % LINE_BYTES:
                continue
            if f.delta is not None and gap != f.delta:
                continue
            if best_gap is None or gap < best_gap:
                best, best_gap = f, gap
        if best is None:
            if len(self.filter) >= self.filter_entries:
                lru = min(self.filter, key=lambda f: f.stamp)
                self.filter.remove(lru)
                self.stats["filter_recycled"] += 1
            self.filter.append(_FilterEntry(va, vn, mac, self._tick()))
            return None
        best.addrs.append((va, vn, mac))
        if best.delta is None:
            best.delta = best_gap
        best.stamp = self._tick()
        if len(best.addrs) < self.collect_limit:
            return None
        self.filter.remove(best)
        vns = {a[1] for a in best.addrs}
        if len(vns) != 1:
            self.stats["filter_recycled"] += 1
            return None
        base = best.addrs[0][0]
        mac_agg = 0
        for _, _, m in best.addrs:
            mac_agg ^= m
        n = len(best.addrs)
        if best.delta == LINE_BYTES:
            entry = MetaTableEntry(base, n, 1, LINE_BYTES, vns.pop(), mac_agg)
        else:
            entry = MetaTableEntry(base, 1, n, best.delta, vns.pop(), mac_agg)
        inserted = self._insert_entry(entry)
        if inserted is None:
            return None
        self.stats["promotions"] += 1
        return self.try_merge(inserted)

    def filter_refresh(self, va: int) -> None:
        """Keep collected (va, vn, mac) triples honest across intervening
        writes. The line's MAC is read only if the filter holds `va`, so a
        write the filter never collected leaves its seal deferred."""
        mem = self.mem
        for f in self.filter:
            for i, (a, _, _) in enumerate(f.addrs):
                if a == va:
                    f.addrs[i] = (a, mem.vn_of(va), mem.line_mac(va))

    # -- entry merging -----------------------------------------------------------

    def try_merge(self, e: MetaTableEntry) -> MetaTableEntry:
        """Repeatedly merge `e` with the most-recently-updated entries along
        any permitted direction (tile dims, stride, VN must match)."""
        merged = True
        while merged:
            merged = False
            # the table is nearly in `touched` order, which a stable sort
            # takes in linear time and `heapq.nlargest` in its slowest case
            recent = sorted([c for c in self.entries
                             if c is not e and c.valid and c.uf == 0],
                            key=_TOUCHED, reverse=True)[: self.merge_window]
            for c in recent:
                if c.vn != e.vn or c.tensor_id != e.tensor_id or c.bs != e.bs:
                    continue
                geom = self._merge_geometry(c, e)
                if geom is None:
                    continue
                base, nx, ny, stride = geom
                self._unindex_entry(c)
                self._unindex_entry(e)
                self.entries.remove(c)
                c.valid = False
                e.base, e.nx, e.ny, e.stride = base, nx, ny, stride
                e.last_addr = base + (ny - 1) * stride + (nx - 1) * LINE_BYTES
                e.mac ^= c.mac
                e.reset_sweep()
                e.touched = e.lru = self._tick()
                self._index_entry(e)
                self.stats["merges"] += 1
                merged = True
                break
        return e

    @staticmethod
    def _merge_geometry(a: MetaTableEntry, b: MetaTableEntry):
        """Union geometry of two adjacent tiles, or None. Directions: rows
        before/after (vertical), columns left/right (horizontal); 1D runs
        concatenate or stack into a new row dimension."""
        if a.base > b.base:
            a, b = b, a
        # vertical: equal row width, b directly below a's rows
        if a.nx == b.nx:
            if a.ny == 1 and b.ny == 1:
                gap = b.base - a.base
                if gap == a.nx * LINE_BYTES:
                    return (a.base, a.nx + b.nx, 1, LINE_BYTES)
                if a.nx * LINE_BYTES <= gap <= MAX_STRIDE_BYTES:
                    return (a.base, a.nx, 2, gap)
                return None
            if a.ny > 1 and b.base == a.base + a.ny * a.stride \
                    and (b.ny == 1 or b.stride == a.stride):
                return (a.base, a.nx, a.ny + b.ny, a.stride)
            if a.ny == 1 and b.ny > 1 and a.base + b.stride == b.base:
                return (a.base, a.nx, b.ny + 1, b.stride)
        # horizontal: equal rows, b directly right of a, rows stay in-stride
        if a.ny == b.ny and b.base == a.base + a.nx * LINE_BYTES:
            if a.ny == 1:
                return (a.base, a.nx + b.nx, 1, LINE_BYTES)
            if a.stride == b.stride and (a.nx + b.nx) * LINE_BYTES <= a.stride:
                return (a.base, a.nx + b.nx, a.ny, a.stride)
        return None

    # -- write dataflow -------------------------------------------------------------

    def on_write(self, va: int, plain) -> WriteOutcome:
        """LLC-filtered write-back. Covered writes run the bitmap protocol and
        are encrypted under the entry's next VN; misses update off-chip state
        only."""
        mem = self.mem
        if not self.en_tmf:
            mem.write_line(va, plain)
            self.stats["w_miss"] += 1
            return WriteOutcome(MISS)
        e = self.cover.get(va)
        if e is None:
            mem.write_line(va, plain)
            self.stats["w_miss"] += 1
            self.filter_refresh(va)
            return WriteOutcome(MISS)

        first = va == e.base
        last = va == e.last_addr
        if e.uf == 0:
            if not first:
                # Assert1: no covered line may be updated before the tensor
                # update starts
                self._invalidate(e, "early_update")
                mem.write_line(va, plain)
                self._retry_pending_hints()
                return WriteOutcome(INVALIDATE, reason="early_update")
            if not self.bitmap.range_equals(e.addresses(), e.bs):
                self._invalidate(e, "dirty_range")
                mem.write_line(va, plain)
                self._retry_pending_hints()
                return WriteOutcome(INVALIDATE, reason="dirty_range")
            e.uf = 1
            e.update_count = 0
            e.write_tags = []
            e.reset_sweep()
            self._write_covered(e, va, plain)
            if e.line_count == 1:
                return self._finish_update(e)
            self.stats["w_edge_start"] += 1
            e.touched = self._tick()
            return WriteOutcome(EDGE_START)

        if self.bitmap.get(va) != e.bs:
            self._invalidate(e, "double_update")
            mem.write_line(va, plain)
            self._retry_pending_hints()
            return WriteOutcome(INVALIDATE, reason="double_update")
        self._write_covered(e, va, plain)
        if last:
            # Assert2: every covered line updated exactly once by finish time
            if e.update_count == e.line_count and \
                    self.bitmap.range_equals(e.addresses(), e.bs ^ 1):
                return self._finish_update(e)
            self._invalidate(e, "incomplete_update")
            self._retry_pending_hints()
            return WriteOutcome(INVALIDATE, reason="incomplete_update")
        self.stats["w_hit_in"] += 1
        return WriteOutcome(WRITE_HIT_IN)

    def _write_covered(self, e: MetaTableEntry, va: int, plain) -> None:
        mem = self.mem
        self.bitmap.flip(va)
        e.update_count += 1
        new_vn = (e.vn + 1) & MASK56
        if e.tensor_id is not None:
            where = (e.tensor_id, e.ordinal(va) * LINE_BYTES)
            binding = self._tensor_bindings.get(where)
            if binding is None:
                binding = self._tensor_bindings[where] = CounterBinding(
                    BindingMode.TENSOR_LOGICAL, *where)
        else:
            binding = None
        mem.write_line(va, plain, vn=new_vn, binding=binding, covered=True,
                       tag_sink=e.write_tags)

    def _finish_update(self, e: MetaTableEntry) -> WriteOutcome:
        # Assert2 held, so every covered line was written exactly once in
        # this update: the entry MAC is the fold of their fresh tags, which
        # the batch seal delivers to the entry's on-chip sink
        self.mem.seal()
        e.vn = (e.vn + 1) & MASK56
        e.bs ^= 1
        e.uf = 0
        e.mac = mac_xor_aggregate(e.write_tags)
        e.write_tags = []
        e.update_count = 0
        e.reset_sweep()
        e.touched = e.lru = self._tick()
        self.stats["w_edge_finish"] += 1
        self._retry_pending_hints()
        return WriteOutcome(EDGE_FINISH, vn=e.vn)

    # -- structure hints and context switching ------------------------------------

    def install_hint(self, base: int, n_lines: int, *, row_lines: Optional[int] = None,
                     stride: Optional[int] = None, vn: Optional[int] = None,
                     mac: Optional[int] = None, tensor_id: Optional[int] = None) -> str:
        """Create or widen an entry from tensor structure carried by transfer
        requests. Overlapping smaller entries are absorbed; a descriptor that
        overlaps a mid-update entry is deferred until that update completes."""
        if row_lines is None or stride is None or row_lines == n_lines:
            nx, ny, stride_b = n_lines, 1, LINE_BYTES
        else:
            nx, ny, stride_b = row_lines, n_lines // row_lines, stride
        probe = MetaTableEntry(base, nx, ny, stride_b, 0, 0)
        overlapped: list[MetaTableEntry] = []
        for va in probe.addresses():
            o = self.cover.get(va)
            if o is not None and o not in overlapped:
                overlapped.append(o)
        for o in overlapped:
            if o.uf == 1:
                self.pending_hints.append(dict(base=base, n_lines=n_lines,
                                               row_lines=row_lines, stride=stride,
                                               vn=vn, mac=mac, tensor_id=tensor_id))
                self.stats["hint_deferred"] += 1
                return "deferred"
        for o in overlapped:
            if (o.base, o.nx, o.ny, o.stride, o.tensor_id) == \
                    (base, nx, ny, stride_b, tensor_id):
                # structure already known; refresh transferred state if carried
                if vn is not None:
                    o.vn = vn & MASK56
                    o.reset_sweep()
                if mac is not None:
                    o.mac = mac
                self.stats["hint_noop"] += 1
                return "noop"
        t = self.mem.totals
        if vn is None:
            vn, cold = self.mem.resolve_vn(base, t)
            if cold:
                self.mem.walk_tree(base, t)
        if mac is None:
            # aggregate the stored per-line MACs once (8 tags per 64 B line);
            # untouched lines materialize first so the fold matches what
            # subsequent reads will accumulate
            t["mac_rd"] += LINE_BYTES * (-(-n_lines // 8))
            lines = self.mem.materialize(list(probe.addresses()))
            macs = self.mem.macs
            mac = 0
            for idx in lines:
                mac ^= macs[idx]
        for o in overlapped:
            self._unindex_entry(o)
            o.valid = False
            if o in self.entries:
                self.entries.remove(o)
        entry = MetaTableEntry(base, nx, ny, stride_b, vn & MASK56, mac,
                               tensor_id=tensor_id)
        if self._insert_entry(entry) is None:
            return "dropped"
        self.stats["hint_installed"] += 1
        return "installed"

    def _retry_pending_hints(self) -> None:
        if not self.pending_hints:
            return
        pending, self.pending_hints = self.pending_hints, []
        for h in pending:
            self.install_hint(**h)

    def attach_enclave(self, enclave_id: int, mem: ProtectedMemory) -> None:
        self._enclaves[enclave_id] = mem

    def context_switch(self, action: str, enclave_id: int) -> None:
        """Save/restore the table, filter and bitmap to modeled secure storage
        keyed by enclave id; each enclave uses its own key/memory. Restoring
        an unknown id yields an empty table."""
        if action == "save":
            self._saved[enclave_id] = {
                "entries": self.entries, "cover": self.cover,
                "boundary": self.boundary, "filter": self.filter,
                "bitmap": self.bitmap, "pending": self.pending_hints,
            }
            return
        if action != "restore":
            raise ValueError("action must be 'save' or 'restore'")
        if enclave_id in self._enclaves:
            self.mem = self._enclaves[enclave_id]
        snap = self._saved.get(enclave_id)
        if snap is None:
            self.entries = []
            self.cover = {}
            self.boundary = {}
            self.filter = []
            self.bitmap = UpdateBitmap(self.bitmap_cache_bytes)
            self.pending_hints = []
        else:
            self.entries = snap["entries"]
            self.cover = snap["cover"]
            self.boundary = snap["boundary"]
            self.filter = snap["filter"]
            self.bitmap = snap["bitmap"]
            self.pending_hints = snap["pending"]

    # -- invariants and debugging -----------------------------------------------

    def check_disjoint(self) -> None:
        seen: dict[int, MetaTableEntry] = {}
        for e in self.entries:
            if not e.valid:
                continue
            for va in e.addresses():
                if va in seen:
                    raise AssertionError(
                        f"entries at {seen[va].base:#x} and {e.base:#x} both "
                        f"cover {va:#x}")
                seen[va] = e

    def check_vn_consistency(self) -> None:
        """At quiescent points every covered line's off-chip VN must equal the
        entry VN (acceptance sweep)."""
        for e in self.entries:
            if not e.valid or e.uf:
                continue
            for va in e.addresses():
                off = self.mem.vn_of(va)
                if off != e.vn:
                    raise AssertionError(
                        f"entry base={e.base:#x} vn={e.vn} but line {va:#x} "
                        f"has off-chip vn={off}")

    def hit_rates(self) -> dict[str, float]:
        s = self.stats
        reads = s["r_hit_in"] + s["r_hit_boundary"] + s["r_miss"]
        if reads == 0:
            return {"hit_in": 0.0, "hit_boundary": 0.0, "hit_all": 0.0, "reads": 0}
        return {"hit_in": s["r_hit_in"] / reads,
                "hit_boundary": s["r_hit_boundary"] / reads,
                "hit_all": (s["r_hit_in"] + s["r_hit_boundary"]) / reads,
                "reads": reads}

    def hit_rates_since(self, before: dict) -> dict[str, float]:
        """Read outcome shares over the reads since `before`, an earlier copy
        of `stats`: hit_in, hit_boundary, miss, and hit_all as the sum of
        the two hit shares (it can differ in the last bit from the summed
        counts over the reads that `hit_rates` divides)."""
        hit_in, boundary, miss = (self.stats[k] - before[k]
                                  for k in ("r_hit_in", "r_hit_boundary", "r_miss"))
        n = max(1, hit_in + boundary + miss)
        rates = {"hit_in": hit_in / n, "hit_boundary": boundary / n,
                 "miss": miss / n}
        rates["hit_all"] = rates["hit_in"] + rates["hit_boundary"]
        return rates

    def dump_table(self) -> str:
        return json.dumps([e.dump() for e in self.entries if e.valid])
