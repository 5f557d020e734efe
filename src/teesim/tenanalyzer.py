"""Tensor-granularity engine on the CPU memory path.

Detects tensor structure from core-issued virtual-address streams and serves
version numbers from an on-chip table so steady-state reads touch no off-chip
metadata. Three read outcomes: hit-in (inside a known range), hit-boundary
(exactly one stride past a range end; the VN is used speculatively while the
off-chip VN is fetched for confirmation), miss (baseline path + the address
goes to the pattern filter). Writes run an update protocol that admits any
tile order but insists every covered line is written exactly once per tensor
update; violations invalidate the entry and fall back to per-line protection.
Each entry keeps its own update state: the updating flag, the bit-state and,
while an update runs, one written flag per covered line. The off-chip update
bitmap of the paper and its on-chip cache are not modeled: between updates
every line's bit equals its entry's bit-state, so the bitmap adds nothing
that the entry does not hold, and its traffic is not charged.

Entries also carry the tensor's XOR-aggregate MAC: it is born at promotion
from the per-line MACs observed on the miss path, folded forward on boundary
extensions, refolded from the fresh line tags that sealing hands back on-chip
when a complete write sweep finishes, and checked (for free) whenever
sequential reads cover the whole entry. Out-of-order covered reads, and reads
of an entry mid-update, fall back to per-line MAC fetch+verify.

Each access has one per-line step. A covered or boundary read takes its tag
and plaintext from its run's batch open, or else from a one-line open under
its effective VN, and a sweep folds that tag into its accumulator at once.
`read_run` and `write_run` take a run of accesses at once, with the result
of the per-line `on_read` and `on_write` loop, faults included. A read run
opens its lines in batches, and takes each maximal span of reads whose
per-line steps only add (covered reads continuing one sweep run, boundary
reads extending one entry) in one step; a write run takes each span of
in-update writes in one step and stores its in-update lines and its misses
with one memory write between two per-line steps, each line under its own
VN source. Any other access takes the per-line step at its position.
"""

from __future__ import annotations

import json
from array import array
from dataclasses import dataclass
from functools import reduce
from itertools import islice
from operator import attrgetter, xor
from typing import Optional

from .baseline import AES_CYCLES, MAC_CYCLES, OPEN_CHUNK_LINES, ProtectedMemory
from .crypto import (
    LINE_BYTES, MASK56, BindingMode, IntegrityFault, as_line, binding_code,
    mac_xor_aggregate, tensor_line_codes,
)
# unused, but perfbench/tests' tracer test looks these names up here
from .crypto import keystream, mac_block  # noqa: F401

MAX_STRIDE_BYTES = 1024 * LINE_BYTES   # 10-bit line-stride semantics, stored wider
FILTER_WINDOW_BYTES = 4096             # max delta the filter will chain across;
                                       # larger strides come from entry merging
MAX_SWEEP_RUNS = 16                    # concurrent sequential read cursors per entry
_TOUCHED = attrgetter("touched")
# what `context_switch` saves and restores per enclave
_PER_ENCLAVE = ("entries", "_recent", "_cover", "boundary", "filter",
                "pending_hints")

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
    updating flag / bit-state pair, and the last covered address.

    While an update runs (`uf` = 1), `written` holds one flag per covered
    line, by ordinal, set when the line is written in this update (where the
    paper's bitmap bit would differ from `bs`). It is None between updates."""

    __slots__ = ("base", "nx", "ny", "planes", "stride", "vn", "mac",
                 "uf", "bs", "valid", "tensor_id", "last_addr",
                 "update_count", "written", "write_tags", "runs", "runs_by_next",
                 "lru", "touched")

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
        self.written: Optional[bytearray] = None
        # fresh tags of the lines written in the current update, appended
        # on-chip as they are sealed
        self.write_tags: list[int] = []
        # run_start -> [next_ordinal, XOR of the tags of the lines read]
        self.runs: dict[int, list] = {}
        self.runs_by_next: dict[int, int] = {}
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

    def dump(self) -> dict:
        return {"base": self.base, "dims": [self.nx, self.ny, self.planes],
                "stride": self.stride, "vn": self.vn, "uf": self.uf,
                "bs": self.bs, "valid": self.valid}


class _Span:
    """One entry's reads in a `TenAnalyzer._read_segment`: covered reads
    (`chain` False) or boundary reads (`chain` True) of the lines `lo` to
    `hi` - 1, and the stamps of the last read. A covered span also keeps
    the ordinal `k` of its last read, the ordinal `limit` it must stay
    below, the ordinal `close_at` whose read closes the sweep (or -1), the
    start of the run it continues (its first ordinal: the run it starts),
    the XOR `acc` of its batch tags and, once applied, its `run`."""

    __slots__ = ("e", "chain", "lo", "hi", "k", "limit", "close_at", "start",
                 "acc", "lru", "touched", "run")

    def __init__(self, e, chain, lo, k, limit, close_at, start):
        self.e, self.chain, self.lo, self.hi = e, chain, lo, lo
        self.k, self.limit, self.close_at, self.start = k, limit, close_at, start
        self.acc = 0


class _FilterEntry:
    __slots__ = ("addrs", "delta", "stamp")

    def __init__(self, va, vn, mac, stamp):
        self.addrs = [(va, vn, mac)]
        self.delta: Optional[int] = None
        self.stamp = stamp


class TenAnalyzer:
    """Meta Table + Tensor Filter in front of one enclave's ProtectedMemory.

    `bitmap_cache_bytes` is accepted and unused: update-bitmap traffic is not
    modeled (module docstring)."""

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

        self.entries: list[MetaTableEntry] = []
        # the entries of the table in ascending `touched` order (`_touch`)
        self._recent: dict[MetaTableEntry, None] = {}
        # the entry covering each line of the region, by line index; read
        # through `entry_at`
        self._cover: list[Optional[MetaTableEntry]] = [None] * mem.n_lines
        self.boundary: dict[int, MetaTableEntry] = {}
        self.filter: list[_FilterEntry] = []
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

    # -- small helpers -------------------------------------------------------

    def _tick(self) -> int:
        self._stamp += 1
        return self._stamp

    def _touch(self, e: MetaTableEntry, stamp: Optional[int] = None) -> int:
        """Set and return `e.touched`: `stamp`, by default a new tick; and
        move `e` to the end of `_recent`. Every stamp exceeds those already
        taken, so `_recent` stays in `touched` order."""
        e.touched = self._tick() if stamp is None else stamp
        self._recent.pop(e, None)
        self._recent[e] = None
        return e.touched

    def _drop(self, e: MetaTableEntry) -> None:
        """Take `e` out of the table and out of `_recent`."""
        if e in self.entries:
            self.entries.remove(e)
        self._recent.pop(e, None)

    def entry_at(self, va: int) -> Optional[MetaTableEntry]:
        """The entry covering line `va`, or None, also for an unaligned `va`
        or one outside the region."""
        k, rem = divmod(va - self.mem.base_pa, LINE_BYTES)
        cover = self._cover
        return cover[k] if not rem and 0 <= k < len(cover) else None

    def _rows(self, e: MetaTableEntry):
        """The line-index slice of each of `e`'s rows."""
        first = (e.base - self.mem.base_pa) // LINE_BYTES
        step = e.stride // LINE_BYTES
        for r in range(e.ny):
            lo = first + r * step
            yield slice(lo, lo + e.nx)

    def _index_entry(self, e: MetaTableEntry) -> None:
        row = [e] * e.nx
        for rows in self._rows(e):
            self._cover[rows] = row
        step = e.run_step()
        if step is not None:
            self.boundary[e.last_addr + step] = e

    def _unindex_entry(self, e: MetaTableEntry) -> None:
        row = [None] * e.nx
        for rows in self._rows(e):
            self._cover[rows] = row
        step = e.run_step()
        if step is not None and self.boundary.get(e.last_addr + step) is e:
            del self.boundary[e.last_addr + step]

    def _invalidate(self, e: MetaTableEntry, reason: str) -> None:
        self._unindex_entry(e)
        e.valid = False
        e.uf = 0
        e.written = None
        e.reset_sweep()
        self._drop(e)
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
        self._drop(victim)
        self.stats["evictions"] += 1
        return True

    def _insert_entry(self, e: MetaTableEntry) -> Optional[MetaTableEntry]:
        if any(any(self._cover[rows]) for rows in self._rows(e)):
            return None  # range disjointness: refuse overlapping insert
        if not self._evict_for_space():
            return None
        self.entries.append(e)
        e.lru = self._touch(e)
        self._index_entry(e)
        e.bs = 0
        return e

    # -- read dataflow --------------------------------------------------------

    def on_read(self, va: int):
        """Resolve one cacheline read. Returns (plaintext, ReadOutcome)."""
        return self._on_read(va, None)

    def _on_read(self, va: int, opened):
        """`on_read(va)`. `opened` is None, or the line's (tag, plaintext,
        VN) from a batch open under its stored state (`read_run`); a read
        without them opens the line itself."""
        mem = self.mem
        if not self.en_tmf:
            plain, _ = mem.read_line(va)
            self.stats["r_miss"] += 1
            return plain, ReadOutcome(MISS)
        e = self.entry_at(va)
        if e is not None:
            plain, vn = self._read_hit_in(e, va, opened)
            return plain, ReadOutcome(HIT_IN, vn=vn)
        b = self.boundary.get(va)
        if b is not None and b.valid and b.uf == 0:
            return self._read_hit_boundary(b, va, opened)
        # miss: full baseline path, then pattern collection
        self.stats["r_miss"] += 1
        if opened is None:
            plain, _ = mem.read_line(va)
            vn = mem.vn_of(va)
        else:
            tag, plain, vn = opened
            mem.read_opened(va, mem.line_index(va), tag)
        self.filter_collect(va, vn, mem.line_mac(va))
        return plain, ReadOutcome(MISS)

    def read_run(self, vas) -> list[bytes]:
        """`[on_read(va)[0] for va in vas]`, with the crypto in batches and
        the bookkeeping in spans. The tags and plaintexts of the lines are
        opened under their stored state in batches of at most
        `OPEN_CHUNK_LINES` lines, each just before its reads. Then the
        batch's reads are taken in record order, in segments (`_read_segment`)
        where the reads of each entry form one span whose per-line steps
        only add, and one at a time (`_on_read`) where they do not.
        An address outside the region raises ValueError before any read of
        its batch."""
        if not self.en_tmf:
            return [self.on_read(va)[0] for va in vas]
        mem = self.mem
        out = []
        vas = iter(vas)
        while chunk_vas := list(islice(vas, OPEN_CHUNK_LINES)):
            chunk = mem.line_indices(chunk_vas)
            if len(chunk) < len(chunk_vas):
                mem.line_index(chunk_vas[len(chunk)])       # raises
            tags, plains, vns = mem.opened(chunk)
            p, n = 0, len(chunk)
            while p < n:
                q = self._read_segment(chunk_vas, chunk, tags, vns, p)
                if q > p:
                    out += plains[p:q]
                    p = q
                    continue
                out.append(self._on_read(chunk_vas[p], (tags[p], plains[p], vns[p]))[0])
                p += 1
            del tags, plains, vns     # before the next batch is opened
        return out

    def _read_segment(self, vas, idxs, tags, vns, p: int) -> int:
        """Take the reads from position `p` of a batch on, as far as each
        falls in a span, as one step per span, and return the position after
        the last read taken (`p` if none was). A span is one entry's reads
        in the segment, of one of two kinds:

        - covered reads of a quiescent entry, at ordinals ascending by one,
          each line opened under the entry's VN, that continue one sweep run
          (or start an unclaimed one) and reach no other run's start or end
          before their last read;
        - boundary reads extending a single-row entry line by line, each
          line holding the entry's VN and its batch tag as its stored MAC,
          each VN-line already in the metadata cache.

        Each read's steps then only add, or touch state of its own entry
        that no other span of the segment touches, so the spans are applied
        after the scan, with the stamps each read would have taken. A read
        that would close an entry's sweep ends the segment, so its check,
        which may fault, comes after every earlier read, as on the per-line
        path."""
        mem = self.mem
        cover, boundary, peek = self._cover, self.boundary, mem.cache.peek
        macs = mem.macs
        spans: dict[MetaTableEntry, _Span] = {}
        chains: dict[int, _Span] = {}    # the next line of each boundary span
        gets: dict[int, None] = {}       # VN-lines, in the order of their last get
        last_li = -1
        stamp = self._stamp
        closing = None
        q, end = p, len(idxs)
        while q < end:
            idx = idxs[q]
            e = cover[idx]
            if e is not None:
                s = spans.get(e)
                if s is None:
                    if e.uf or vns[q] != e.vn or (s := self._covered_span(e, vas[q], idx)) is None:
                        break
                    spans[e] = s
                elif s.chain or idx != s.hi or s.k + 1 >= s.limit or vns[q] != e.vn:
                    break
                else:
                    s.k += 1
                s.hi = idx + 1
                s.acc ^= tags[q]
                stamp += 1
                s.lru = stamp
                if s.k == s.close_at:
                    closing = s
                    q += 1
                    break
            else:
                s = chains.pop(idx, None)
                if s is None:
                    va = vas[q]
                    b = boundary.get(va)
                    if b is None or b in spans or not b.valid or b.uf or b.ny != 1 \
                            or b.last_addr + LINE_BYTES != va \
                            or (b.nx == 1 and b.stride != LINE_BYTES):
                        break
                    s = _Span(b, True, idx, 0, 0, -1, None)
                if vns[q] != s.e.vn or tags[q] != macs[idx]:
                    break
                li = idx >> 3
                if li != last_li:
                    if li not in gets:
                        if peek(("vn", li)) is None:
                            break
                    else:
                        del gets[li]
                    gets[li] = None
                    last_li = li
                s.hi = idx + 1
                chains[s.hi] = spans[s.e] = s
                stamp += 2
                s.lru, s.touched = stamp - 1, stamp
            q += 1
        if q == p:
            return p
        self._commit_segment(spans, list(gets), q - p, stamp)
        if closing is not None:
            self._close_sweep(closing.e, closing.run)
        return q

    def _covered_span(self, e: MetaTableEntry, va: int, idx: int) -> Optional["_Span"]:
        """A span of covered reads of quiescent entry `e` from line `idx` at
        `va` on, or None if that read's sweep step is not one a span may
        take: one that neither continues a run nor starts an unclaimed one."""
        k = e.ordinal(va)
        start = e.runs_by_next.get(k)
        if start is None:
            if not self._may_start_run(e, k):
                return None
            start = k
        # the span stops before any other run's start or end, whose steps
        # would coalesce or overwrite
        n = e.line_count
        limit = min((o for o in (*e.runs, *e.runs_by_next) if o > k), default=n)
        close_at = -1
        if start == 0:
            if limit == n:
                close_at = n - 1
            elif limit in e.runs and e.runs[limit][0] == n:
                close_at = limit - 1
        return _Span(e, False, idx, k, limit, close_at, start)

    def _commit_segment(self, spans: dict, gets: list, n: int, stamp: int) -> None:
        """Apply a segment of `n` reads from `_read_segment`: its spans, the
        metadata-cache gets of its boundary reads (all hits, of the VN-lines
        `gets` lists in the order of their last get), and `stamp`, the
        stamp after its last read."""
        mem = self.mem
        t, stats = mem.totals, self.stats
        n_b = 0
        for e, s in spans.items():
            lo, hi = s.lo, s.hi
            e.lru = s.lru
            if s.chain:
                n_b += hi - lo
                self._extend(e, lo, hi - lo)
                continue
            s.run = self._fold_run(e, s.start, s.k - (hi - lo - 1), hi - lo, s.acc)
        stats["r_hit_in"] += n - n_b
        stats["r_hit_boundary"] += n_b
        t["reads"] += n
        t["data_rd"] += LINE_BYTES * n
        t["mac_rd"] += LINE_BYTES * n_b
        t["cycles"] += (AES_CYCLES + MAC_CYCLES) * n
        if gets:
            mem.cache.hit_run([("vn", li) for li in gets], n_b)
        # boundary spans touch their entries, in the order of their stamps
        for s in sorted((s for s in spans.values() if s.chain), key=_TOUCHED):
            self._touch(s.e, s.touched)
        self._stamp = stamp

    def _close_sweep(self, e: MetaTableEntry, run: list) -> None:
        """Check a sweep run that covers the whole entry against its MAC."""
        acc = run[1]
        e.reset_sweep()
        if acc != e.mac:
            raise IntegrityFault("tensor_mac", f"entry base={e.base:#x}")
        self.stats["sweep_verifies"] += 1

    @staticmethod
    def _fold_run(e: MetaTableEntry, start: int, k: int, n: int, acc: int) -> list:
        """Fold the `n` reads from ordinal `k` on, whose tags XOR to `acc`,
        into `e`'s sweep run from `start`, which ends at `k` (or which they
        start, if `start` is `k`); then coalesce it with a run that starts
        where it now ends. Returns the run."""
        runs, runs_by_next = e.runs, e.runs_by_next
        if start == k:
            run = runs[k] = [k, 0]
        else:
            del runs_by_next[k]
            run = runs[start]
        run[0] = k + n
        run[1] ^= acc
        nxt = runs.pop(run[0], None)
        if nxt is not None:
            run[0] = nxt[0]
            run[1] ^= nxt[1]
            runs_by_next.pop(nxt[0], None)
        runs_by_next[run[0]] = start
        return run

    @staticmethod
    def _may_start_run(e: MetaTableEntry, k: int) -> bool:
        """Whether a read of ordinal `k` may start a sweep run of `e`: the
        entry has room for one more, and no run has read `k`."""
        return len(e.runs) < MAX_SWEEP_RUNS and \
            not any(start <= k < run[0] for start, run in e.runs.items())

    def _open_line(self, idx: int, vn: int, opened) -> tuple[int, bytes]:
        """The tag and plaintext of line `idx` under VN `vn`: `opened`'s (as
        `_on_read` takes it) if the line was opened under `vn`, else
        `ProtectedMemory.open_line`'s."""
        if opened is not None and opened[2] == vn:
            return opened[0], opened[1]
        return self.mem.open_line(idx, vn)

    def _read_hit_in(self, e: MetaTableEntry, va: int, opened):
        """A covered read; `opened` is as `_on_read` takes it."""
        mem = self.mem
        t = mem.totals
        self.stats["r_hit_in"] += 1
        e.lru = self._tick()
        t["reads"] += 1
        t["data_rd"] += LINE_BYTES
        t["cycles"] += AES_CYCLES
        k = e.ordinal(va)
        if e.uf and e.written[k]:
            vn_eff = (e.vn + 1) & MASK56
        else:
            vn_eff = e.vn
        idx = mem.line_index(va)
        tag, plain = self._open_line(idx, vn_eff, opened)
        self._hit_in_mac(e, k, idx, tag)
        return plain, vn_eff

    def _hit_in_mac(self, e, k, idx, tag) -> None:
        """Sequential covered reads fold their tags toward a free
        whole-tensor MAC check; anything else verifies the line's tag
        against its off-chip MAC."""
        if e.uf:
            self._per_line_mac(idx, tag)
            return
        start = e.runs_by_next.get(k)
        if start is None:
            if not self._may_start_run(e, k):
                self._per_line_mac(idx, tag)
                return
            start = k
        self.mem.totals["cycles"] += MAC_CYCLES
        run = self._fold_run(e, start, k, 1, tag)
        if start == 0 and run[0] == e.line_count:
            self._close_sweep(e, run)

    def _per_line_mac(self, idx, tag) -> None:
        t = self.mem.totals
        t["mac_rd"] += LINE_BYTES
        t["cycles"] += MAC_CYCLES
        if tag != self.mem.macs[idx]:
            raise IntegrityFault("mac_mismatch", f"line {idx}")

    def _read_hit_boundary(self, e: MetaTableEntry, va: int, opened):
        """A read one step past `e`'s end; `opened` is as `_on_read` takes
        it. The read confirms the line's stored state against the entry's."""
        mem = self.mem
        t = mem.totals
        self.stats["r_hit_boundary"] += 1
        e.lru = self._tick()
        speculative = e.vn
        t["reads"] += 1
        t["data_rd"] += LINE_BYTES
        t["cycles"] += AES_CYCLES      # speculative decrypt under the entry VN
        vn_true, cold = mem.resolve_vn(va)
        if cold:
            mem.walk_tree(va)
        idx = mem.line_index(va)
        tag, plain = self._open_line(idx, vn_true, opened)
        # the line's stored MAC rides along with the VN confirmation
        self._per_line_mac(idx, tag)
        if vn_true == e.vn:
            self._extend(e, idx, 1)
            self._touch(e)
            return plain, ReadOutcome(HIT_BOUNDARY, vn=speculative, confirmed=True)
        self.stats["r_boundary_mispredict"] += 1
        t["cycles"] += AES_CYCLES      # re-issued decrypt with the fetched VN
        return plain, ReadOutcome(HIT_BOUNDARY, vn=speculative, confirmed=False)

    def _extend(self, e: MetaTableEntry, lo: int, n: int) -> None:
        """Grow `e` by the `n` lines from line `lo` on, whose stored MACs are
        verified: one line (a column or a row) one step past its end, or
        consecutive lines past the end of a single-row entry. Their MACs
        fold into the entry MAC and into a sweep run that ends where they
        start. The stamps are the caller's."""
        step = e.run_step()
        first = self.mem.base_pa + lo * LINE_BYTES
        last = first + (n - 1) * step
        boundary = self.boundary
        # each line's extension points the boundary at the next line, whose
        # own extension then deletes it
        for va in range(first, last + 1, step):
            boundary.pop(va, None)
        line_macs = reduce(xor, self.mem.macs[lo:lo + n])
        k = e.line_count
        if e.ny == 1:
            e.nx += n
        else:
            e.ny += n
        e.last_addr = last
        e.mac ^= line_macs
        self._cover[lo:lo + n] = [e] * n
        if self.entry_at(last + step) is None:
            boundary[last + step] = e
        start = e.runs_by_next.get(k)
        if start is not None:
            self._fold_run(e, start, k, n, line_macs)

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
            for c in self.merge_candidates(e):
                if c.vn != e.vn or c.tensor_id != e.tensor_id or c.bs != e.bs:
                    continue
                geom = self._merge_geometry(c, e)
                if geom is None:
                    continue
                base, nx, ny, stride = geom
                self._unindex_entry(c)
                self._unindex_entry(e)
                self._drop(c)
                c.valid = False
                e.base, e.nx, e.ny, e.stride = base, nx, ny, stride
                e.last_addr = base + (ny - 1) * stride + (nx - 1) * LINE_BYTES
                e.mac ^= c.mac
                e.reset_sweep()
                e.lru = self._touch(e)
                self._index_entry(e)
                self.stats["merges"] += 1
                merged = True
                break
        return e

    def merge_candidates(self, e: MetaTableEntry) -> list[MetaTableEntry]:
        """The `merge_window` most recently touched valid entries other than
        `e` that are not mid-update, the most recent first."""
        return list(islice((c for c in reversed(self._recent)
                            if c is not e and c.valid and c.uf == 0),
                           self.merge_window))

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
        """LLC-filtered write-back. Covered writes run the update protocol and
        are encrypted under the entry's next VN; misses update off-chip state
        only. A plaintext that is not one line (`as_line`) raises before
        anything changes."""
        mem = self.mem
        plain = as_line(plain)
        if not self.en_tmf:
            mem.write_line(va, plain)
            self.stats["w_miss"] += 1
            return WriteOutcome(MISS)
        e = self.entry_at(va)
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
            e.uf = 1
            e.update_count = 0
            e.written = bytearray(e.line_count)
            e.write_tags = []
            e.reset_sweep()
            self._write_covered(e, va, plain, 0)
            if e.line_count == 1:
                return self._finish_update(e)
            self.stats["w_edge_start"] += 1
            self._touch(e)
            return WriteOutcome(EDGE_START)

        k = e.ordinal(va)
        if e.written[k]:
            self._invalidate(e, "double_update")
            mem.write_line(va, plain)
            self._retry_pending_hints()
            return WriteOutcome(INVALIDATE, reason="double_update")
        self._write_covered(e, va, plain, k)
        if last:
            # Assert2: every covered line updated exactly once by finish time;
            # a line written twice invalidated the entry, so a count of
            # every line means each was written once
            if e.update_count == e.line_count:
                return self._finish_update(e)
            self._invalidate(e, "incomplete_update")
            self._retry_pending_hints()
            return WriteOutcome(INVALIDATE, reason="incomplete_update")
        self.stats["w_hit_in"] += 1
        return WriteOutcome(WRITE_HIT_IN)

    def write_run(self, vas, plains) -> None:
        """`on_write(va, plain)` of each line of `vas` and plaintext of
        `plains`, in order. Misses and in-update writes (`w_hit_in`) are
        gathered, in order, into one `ProtectedMemory` write of their lines,
        each under its VN source: None for a miss, and for an in-update
        write its entry's next VN, its tensor-logical binding for a tensor
        and its entry's tag sink. In-update writes to consecutive unwritten
        lines of one row of an updating entry, short of its last address,
        form one span, whose written flags, `update_count` and stats are
        set in one step. The gathered writes are stored before each write
        that goes through `on_write` at its position (edge writes,
        invalidating writes and misses the tensor filter holds) and at the
        end. The run ends at a plaintext that is not one line, or an
        address outside the region, whose `on_write` then raises."""
        vas, lines = list(vas), []
        try:
            for plain in islice(plains, len(vas)):
                lines.append(as_line(plain))
        except (ValueError, OverflowError):
            stop = len(lines)
            self.write_run(vas[:stop], lines)
            self.on_write(vas[stop], plain)     # raises, as `as_line` did
        idxs = self.mem.line_indices(vas)
        if len(idxs) < len(vas):
            stop = len(idxs)
            self.write_run(vas[:stop], lines)
            self.on_write(vas[stop], lines[stop])   # raises, as `line_index` does
        plains = lines
        if not self.en_tmf:
            self._store_run(idxs, plains, None, [])
            return
        # only reads change which addresses the filter holds
        held = {a for f in self.filter for a, _, _ in f.addrs}
        # an entry's tensor id and geometry stay fixed while it updates
        codes: dict[MetaTableEntry, array] = {}
        cover, stats = self._cover, self.stats
        # the gathered writes: lines, plaintexts, VN sources, and the spans
        # (entry, first ordinal, lines, position)
        run_idxs, run_plains, sources, spans = [], [], [], []
        i, n = 0, len(vas)
        while i < n:
            idx = idxs[i]
            e = cover[idx]
            if e is None:
                if vas[i] not in held:
                    run_idxs.append(idx)
                    run_plains.append(plains[i])
                    sources.append(None)
                    i += 1
                    continue
            elif e.uf and vas[i] != e.last_addr:
                k = e.ordinal(vas[i])
                written = e.written
                if not written[k]:
                    # the span: consecutive lines of k's row, short of the
                    # last address and of the next line already written
                    m, top = 1, min(n - i, e.nx - k % e.nx, e.line_count - 1 - k)
                    while m < top and idxs[i + m] == idx + m:
                        m += 1
                    w = written.find(1, k + 1, k + m)
                    if w >= 0:
                        m = w - k
                    written[k:k + m] = b"\x01" * m
                    e.update_count += m
                    stats["w_hit_in"] += m
                    spans.append((e, k, m, len(sources)))
                    vn, sink = (e.vn + 1) & MASK56, e.write_tags
                    if e.tensor_id is None:
                        sources += [(vn, None, sink)] * m
                    else:
                        if e not in codes:
                            codes[e] = tensor_line_codes(e.tensor_id, e.line_count)
                        sources += [(vn, code, sink) for code in codes[e][k:k + m]]
                    run_idxs += idxs[i:i + m]
                    run_plains += plains[i:i + m]
                    i += m
                    continue
            if sources:
                self._store_run(run_idxs, run_plains, sources, spans)
                run_idxs, run_plains, sources, spans = [], [], [], []
            self.on_write(vas[i], plains[i])
            i += 1
        if sources:
            self._store_run(run_idxs, run_plains, sources, spans)

    def _store_run(self, idxs: list, plains: list, sources, spans: list) -> None:
        """Store the writes `write_run` gathered: lines `idxs` with
        `plains` under their VN `sources` (None: all misses). `spans` lists
        the in-update spans among them as (entry, first ordinal, lines,
        position). A miss whose cold walk faults undoes the written flags,
        `update_count` and stats of the spans after it, and counts the
        misses before it."""
        mem = self.mem
        w0 = mem.totals["writes"]
        try:
            mem.write_indexed(idxs, plains, sources)
        except IntegrityFault:
            # the write whose cold walk faulted counts in `writes`, not as a miss
            f = mem.totals["writes"] - w0 - 1
            self.stats["w_miss"] += f if sources is None else sources[:f].count(None)
            for e, k, m, at in spans:
                if at > f:
                    e.written[k:k + m] = bytes(m)
                    e.update_count -= m
                    self.stats["w_hit_in"] -= m
            raise
        self.stats["w_miss"] += len(idxs) if sources is None else sources.count(None)

    def _write_covered(self, e: MetaTableEntry, va: int, plain, k: int) -> None:
        e.written[k] = 1
        e.update_count += 1
        code = None if e.tensor_id is None else \
            binding_code(BindingMode.TENSOR_LOGICAL, e.tensor_id, k * LINE_BYTES)
        self.mem.write_line(va, plain, vn=(e.vn + 1) & MASK56, code=code,
                            tag_sink=e.write_tags)

    def _finish_update(self, e: MetaTableEntry) -> WriteOutcome:
        # Assert2 held, so every covered line was written exactly once in
        # this update: the entry MAC is the fold of their fresh tags, which
        # the batch seal delivers to the entry's on-chip sink
        self.mem.seal()
        e.vn = (e.vn + 1) & MASK56
        e.bs ^= 1
        e.uf = 0
        e.written = None
        e.mac = mac_xor_aggregate(e.write_tags)
        e.write_tags = []
        e.update_count = 0
        e.reset_sweep()
        e.lru = self._touch(e)
        self.stats["w_edge_finish"] += 1
        self._retry_pending_hints()
        return WriteOutcome(EDGE_FINISH, vn=e.vn)

    # -- structure hints and context switching ------------------------------------

    def install_hint(self, base: int, n_lines: int, *, row_lines: Optional[int] = None,
                     stride: Optional[int] = None, vn: Optional[int] = None,
                     mac: Optional[int] = None, tensor_id: Optional[int] = None) -> str:
        """Create or widen an entry from tensor structure carried by transfer
        requests. Overlapping smaller entries are absorbed; a descriptor that
        overlaps a mid-update entry is deferred until that update completes.
        Raises ValueError, before any state change, for a descriptor that is
        unaligned, empty, not a whole number of rows, has rows that overlap,
        or reaches outside the region."""
        if row_lines is None or stride is None or row_lines == n_lines:
            nx, ny, stride_b = n_lines, 1, LINE_BYTES
        else:
            nx, ny, stride_b = row_lines, n_lines // (row_lines or 1), stride
        probe = MetaTableEntry(base, nx, ny, stride_b, 0, 0)
        mem = self.mem
        if base % LINE_BYTES or nx < 1 or ny < 1 or nx * ny != n_lines \
                or stride_b % LINE_BYTES or (ny > 1 and stride_b < nx * LINE_BYTES) \
                or base < mem.base_pa \
                or probe.last_addr >= mem.base_pa + mem.n_lines * LINE_BYTES:
            raise ValueError(f"hint of {n_lines} lines at {base:#x} (rows of {nx}, "
                             f"stride {stride_b}) is unaligned, empty, not whole "
                             f"rows, overlaps itself or reaches outside the region")
        overlapped = [o for o in dict.fromkeys(
            o for rows in self._rows(probe) for o in self._cover[rows])
            if o is not None]
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
        t = mem.totals
        if vn is None:
            vn, cold = mem.resolve_vn(base)
            if cold:
                mem.walk_tree(base)
        if mac is None:
            # aggregate the stored per-line MACs once (8 tags per 64 B line)
            t["mac_rd"] += LINE_BYTES * (-(-n_lines // 8))
            macs = mem.macs
            mac = 0
            for va in probe.addresses():
                mac ^= macs[mem.line_index(va)]
        for o in overlapped:
            self._unindex_entry(o)
            o.valid = False
            self._drop(o)
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
        """Save/restore the table, its coverage index and the filter to
        modeled secure storage keyed by enclave id; each enclave uses its own
        key/memory. Restoring an unknown id yields an empty table."""
        if action == "save":
            self._saved[enclave_id] = {k: getattr(self, k) for k in _PER_ENCLAVE}
            return
        if action != "restore":
            raise ValueError("action must be 'save' or 'restore'")
        if enclave_id in self._enclaves:
            self.mem = self._enclaves[enclave_id]
        snap = self._saved.get(enclave_id) or {
            "entries": [], "_recent": {}, "_cover": [None] * self.mem.n_lines,
            "boundary": {}, "filter": [], "pending_hints": []}
        for k in _PER_ENCLAVE:
            setattr(self, k, snap[k])

    # -- invariants and debugging -----------------------------------------------

    def check_disjoint(self) -> None:
        """Valid entries cover disjoint lines of the region, and the coverage
        index maps exactly those lines, each to its entry."""
        want: list[Optional[MetaTableEntry]] = [None] * self.mem.n_lines
        for e in self.entries:
            for va in e.addresses() if e.valid else ():
                k = self.mem.line_index(va)
                if want[k] is not None:
                    raise AssertionError(
                        f"entries at {want[k].base:#x} and {e.base:#x} both "
                        f"cover {va:#x}")
                want[k] = e
        if want != self._cover:
            k = next((k for k, (w, c) in enumerate(zip(want, self._cover))
                      if w is not c), len(want))
            raise AssertionError(f"coverage index is wrong at line {k} "
                                 f"({len(self._cover)} slots, {len(want)} lines)")

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
