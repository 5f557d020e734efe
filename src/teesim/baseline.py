"""SGX-like baseline protection: per-cacheline VN and MAC held off-chip, an
8-ary hash tree over the VN lines, and a shared LRU metadata cache holding
verified VN-lines and tree node-lines.

Eight 56-bit VNs pack into each 64 B VN-line (matching the tree fan-out), so
a streaming scan amortizes to 1/8 of a VN-line per read; the MAC region is
read on every access and never cached, which is the conservative model this
baseline is meant to expose.

The byte/cycle books are kept in `totals`; passing collect=True to an
operation additionally returns an itemized CostReport row.

A write's encryption and MAC are deferred until the line is next observed,
so that a run of writes is sealed in one batch, and a run of reads opens its
lines in batches (see `ProtectedMemory`); `read_lines` and `write_lines`
take a run of accesses with the result of one-line calls. `write_line` is
`write_lines` of one line, and `read_line` does what `read_lines` of one
line does.
"""

from __future__ import annotations

from array import array
from collections import OrderedDict
from dataclasses import dataclass
from itertools import islice
from typing import Optional, Sequence

import numpy as np

from .crypto import (
    LINE_BYTES, MASK56, NULL_KEY, OPEN_BATCH_MIN, IntegrityFault, KeyMaterial,
    VnTree, keystream_lines, line_pad, line_tag, mac_lines, open_lines,
    pa_binding_codes, seal_into, words_to_bytes,
)
# unused, but perfbench/tests' tracer test looks these names up here
from .crypto import decrypt_block, encrypt_block, mac_block  # noqa: F401

VNS_PER_LINE = 8
AES_CYCLES = 40
MAC_CYCLES = 40
HASH_CYCLES = 40
# a read run opens, and a new memory seals, at most this many lines in one
# batch, which bounds their transient arrays
OPEN_CHUNK_LINES = 1024
# `write_lines` stores a run of at least this many consecutive lines under an
# explicit VN by slices, and shorter runs line by line. Slices against the
# loop, covered writes of n lines (numpy 2.4, a shared 2-core x86 host, median
# of 25 interleaved rounds): 0.75x at 1 line, 0.98x at 6, 1.06x at 8, 1.34x
# at 32 (functional); 0.73x, 1.03x, 1.09x and 1.44x under the null key
WRITE_SLICE_MIN = 8

COST_FIELDS = ("op", "pa", "data_bytes", "vn_bytes", "mac_bytes", "tree_bytes", "cycles")
# the byte/cycle books of a CPU memory: *_wr counters track state updates
# (what the op touched); *_wb track the coalesced DRAM drain of dirty
# metadata; rebuild_bytes covers per-line MAC regeneration sweeps after entry
# invalidations
TOTALS_KEYS = ("reads", "writes", "data_rd", "data_wr", "vn_rd", "vn_wr",
               "mac_rd", "mac_wr", "tree_rd", "tree_wr", "cycles", "vn_wb",
               "tree_wb", "mac_wb", "rebuild_bytes")


@dataclass
class CostReport:
    op: str
    pa: int
    data_bytes: int = 0
    vn_bytes: int = 0
    mac_bytes: int = 0
    tree_bytes: int = 0
    cycles: int = 0

    def csv_row(self) -> str:
        return (f"{self.op},{self.pa:#x},{self.data_bytes},{self.vn_bytes},"
                f"{self.mac_bytes},{self.tree_bytes},{self.cycles}")

    @staticmethod
    def csv_header() -> str:
        return ",".join(COST_FIELDS)


class MetadataCache:
    """LRU over 64 B entries; holds VN-lines and tree node-lines, all tagged
    verified. A hit on a tree node-line terminates an upward walk. Writes
    dirty their cached lines; the DRAM drain happens at eviction (write-back),
    which is what coalesces the per-write VN/tree traffic.

    `last_write` is the VN-line key whose write made the cache's last
    operation (`ProtectedMemory.write_lines` sets it), or None. Any other
    operation except a `get` of that same key clears it. While it is set,
    that write's keys sit at the MRU end, dirty and in write order."""

    def __init__(self, capacity_bytes: int):
        self.capacity = max(1, capacity_bytes // LINE_BYTES)
        self._d: OrderedDict = OrderedDict()   # key -> [value, dirty]
        self.hits = 0
        self.misses = 0
        self.last_write = None

    def get(self, key):
        if self.last_write is not None and key != self.last_write:
            self.last_write = None
        slot = self._d.get(key)
        if slot is None:
            self.misses += 1
            return None
        self._d.move_to_end(key)
        self.hits += 1
        return slot[0]

    def hit_run(self, keys, n: int) -> None:
        """`n` `get`s, each of a cached key: `keys` lists each key they got
        once, in the order of its last get."""
        d = self._d
        for key in keys:
            if self.last_write is not None and key != self.last_write:
                self.last_write = None
            d.move_to_end(key)
        self.hits += n

    def peek(self, key):
        slot = self._d.get(key)
        return None if slot is None else slot[0]

    def put(self, key, value, dirty: bool = False):
        """Insert/refresh; returns the dirty keys evicted to make room."""
        self.last_write = None
        slot = self._d.get(key)
        if slot is not None:
            slot[0] = value
            if dirty:
                slot[1] = True
            self._d.move_to_end(key)
            return ()
        self._d[key] = [value, dirty]
        evicted = []
        while len(self._d) > self.capacity:
            k, (v, d) = self._d.popitem(last=False)
            if d:
                evicted.append(k)
        return evicted

    def update_if_present(self, key, value) -> None:
        # a write that skipped its puts would not reset this value to ()
        self.last_write = None
        slot = self._d.get(key)
        if slot is not None:
            slot[0] = value

    def flush(self) -> list:
        """Drop everything; returns the dirty keys that had to drain."""
        self.last_write = None
        dirty = [k for k, (v, d) in self._d.items() if d]
        self._d.clear()
        return dirty


def as_line(plain) -> bytes:
    """A plaintext line, given as 64 bytes or as an int, as bytes. Raises
    ValueError for bytes of another length and OverflowError for an int
    that does not fit in 64 bytes."""
    if isinstance(plain, int):
        return plain.to_bytes(LINE_BYTES, "little")
    if len(plain) != LINE_BYTES:
        raise ValueError(f"a line is {LINE_BYTES} bytes, got {len(plain)}")
    return plain


class ProtectedMemory:
    """One enclave's protected DRAM region at cacheline granularity.

    The off-chip state is one flat array per field, indexed by line: the
    ciphertext (`_ct`, with `_words` its (n, 8) uint64 view for batches), the
    MACs, the VNs (eight to a VN-line, the tree's leaves) and the binding
    codes (a line's physical address until a write names another binding).
    A new memory holds every line as zeros sealed under VN 0 and its
    physical-address binding, so each line is sealed from the start. Other
    modules go through `line`, `export_lines`, `install_lines` and
    `plaintexts`.

    Without functional crypto the memory runs under the null cipher
    (`crypto.NULL_KEY`): the same protocol and checks, with data-independent
    tags, so `inject_attack` refuses.

    Deferred sealing: a write's plaintext waits in the ciphertext array until
    `seal()` encrypts and MACs every pending line in place, in one batch.
    Every observer of ciphertext or MACs seals first, so each sees exactly
    the state that sealing at every write would have left. A write may name
    a tag sink, to which its seal appends the fresh tag: an on-chip copy that
    a later tamper of the MAC region cannot reach.
    """

    def __init__(self, base_pa: int, n_lines: int, key: KeyMaterial, *,
                 metadata_cache_bytes: int = 32 * 1024, crypto_on: bool = True):
        if base_pa % LINE_BYTES:
            raise ValueError("base_pa must be cacheline-aligned")
        self.base_pa = base_pa
        self.n_lines = n_lines
        self.key = key if crypto_on else NULL_KEY
        self._ct = bytearray(n_lines * LINE_BYTES)
        self._words = np.frombuffer(self._ct, dtype="<u8").reshape(n_lines, 8)
        n_vn_lines = -(-n_lines // VNS_PER_LINE)
        self._macs = array("Q", bytes(8 * n_lines))
        # padded to whole VN-lines: every tree leaf hashes eight VNs
        self._vns = array("Q", bytes(8 * VNS_PER_LINE * n_vn_lines))
        codes = pa_binding_codes(base_pa, n_lines)
        self._codes = array("Q", codes.tobytes())
        # zeros sealed under VN 0: each line's ciphertext is its pad
        macs = np.frombuffer(self._macs, dtype=np.uint64)
        for lo in range(0, n_lines, OPEN_CHUNK_LINES):
            hi = lo + OPEN_CHUNK_LINES
            pads = keystream_lines(self.key, codes[lo:hi], 0)
            self._words[lo:hi] = pads
            macs[lo:hi] = mac_lines(self.key, codes[lo:hi], pads, 0)
        # idx -> tag sink (or None) of a line written but not yet sealed
        self._pending: dict[int, Optional[list]] = {}
        self.cache = MetadataCache(metadata_cache_bytes)
        self.tree = VnTree(n_vn_lines, self.key, self._vn_line,
                           on_flush=self._refresh_cached_nodes)
        self.tree.build(())
        self.totals: dict[str, int] = dict.fromkeys(TOTALS_KEYS, 0)

    # -- sealing ------------------------------------------------------------

    @property
    def macs(self) -> array:
        self.seal()
        return self._macs

    def seal(self) -> None:
        """Encrypt and MAC, in place, every line written since the last seal.
        A write that named a tag sink has its fresh tag appended to it: that
        copy is computed on-chip, unlike the off-chip MAC an adversary may
        alter."""
        pending = self._pending
        if not pending:
            return
        tags = seal_into(self.key, self._ct, pending, self._codes, self._vns)
        for (idx, sink), tag in zip(pending.items(), tags):
            self._macs[idx] = tag
            if sink is not None:
                sink.append(tag)
        pending.clear()

    # -- addressing --------------------------------------------------------

    def line_index(self, pa: int) -> int:
        off = pa - self.base_pa
        if off % LINE_BYTES or not (0 <= off < self.n_lines * LINE_BYTES):
            raise ValueError(f"pa {pa:#x} outside the region or unaligned")
        return off // LINE_BYTES

    def vn_of(self, pa: int) -> int:
        """Oracle view of the off-chip VN; no cost accounting."""
        return self._vns[self.line_index(pa)]

    # -- the store, for the other modules ---------------------------------------

    def line(self, idx: int) -> tuple[bytes, int]:
        """Line `idx`'s ciphertext and binding code, with no cost accounting."""
        self.seal()
        o = idx * LINE_BYTES
        return bytes(self._ct[o:o + LINE_BYTES]), self._codes[idx]

    def export_lines(self, pas) -> tuple[array, bytes]:
        """The binding codes and the ciphertext, joined, of the lines `pas`,
        with no cost accounting."""
        at = np.array([self.line_index(pa) for pa in pas], dtype=np.intp)
        self.seal()
        return (array("Q", np.asarray(self._codes)[at].tobytes()),
                self._words[at].tobytes())

    def install_lines(self, base_pa: int, codes: Sequence[int], cts,
                      tags: Sequence[int], vn: int) -> None:
        """Seal, then store lines sealed elsewhere verbatim, with binding
        `codes`, ciphertext `cts` (their bytes, joined) and `tags`, as the
        lines from `base_pa` on, each under VN `vn`. Each costs a data, VN
        and MAC write and a tree-path update, with no metadata-cache traffic:
        cached node-lines are refreshed when the tree flushes."""
        n = len(codes)
        lo = self.line_index(base_pa)
        hi = self.line_index(base_pa + (n - 1) * LINE_BYTES) + 1
        self.seal()
        self._ct[lo * LINE_BYTES:hi * LINE_BYTES] = cts
        self._codes[lo:hi] = array("Q", codes)
        self._macs[lo:hi] = array("Q", tags)
        self._vns[lo:hi] = array("Q", (vn,)) * n
        # each line's tree update records its leaf once
        for li in range(lo // VNS_PER_LINE, (hi - 1) // VNS_PER_LINE + 1):
            self.tree.update_path(li)
        t = self.totals
        t["tree_wr"] += LINE_BYTES * self.tree.depth * n
        for k in ("data_wr", "vn_wr", "mac_wr"):
            t[k] += LINE_BYTES * n

    def plaintexts(self, pas) -> list[bytes]:
        """Oracle: the plaintext of each line of `pas` under its stored
        binding and VN, with no cost accounting and no check."""
        self.seal()
        at = np.array([self.line_index(pa) for pa in pas], dtype=np.intp)
        words = keystream_lines(self.key, np.asarray(self._codes)[at],
                                np.asarray(self._vns)[at])
        words ^= self._words[at]
        return words_to_bytes(words)

    def open_line(self, idx: int, vn: int) -> tuple[int, bytes]:
        """Line `idx`'s tag and plaintext under its stored binding and VN
        `vn`, from the per-line kernels, with no cost accounting and no
        check; a pending write is sealed first (`line`)."""
        # the kernels, not a one-line `open_lines`, whose generic loop cost
        # about 5 us more a line (fuzz-attack TensorTEE lines/s read 1.026x
        # with them, 7 of 10 rounds, BENCH_13.json)
        ct, code = self.line(idx)
        key = self.key
        pad = line_pad(key, code, vn)
        return (line_tag(key, code, vn, ct),
                (int.from_bytes(ct, "little") ^ pad).to_bytes(LINE_BYTES, "little"))

    def opened(self, idxs) -> tuple[list, list, list]:
        """Seal; then the tag, plaintext and VN of each line of `idxs` under
        the binding and VN it holds, all opened in one batch. No cost
        accounting and no check."""
        self.seal()
        vns = [self._vns[i] for i in idxs]
        ct = self._ct
        cts = (b"".join([ct[i * LINE_BYTES:(i + 1) * LINE_BYTES] for i in idxs])
               if len(idxs) < OPEN_BATCH_MIN
               else self._words[np.array(idxs, dtype=np.intp)].tobytes())
        tags, plains = open_lines(self.key, [self._codes[i] for i in idxs], cts, vns)
        return tags, plains, vns

    def _vn_line(self, li: int) -> array:
        return self._vns[li * VNS_PER_LINE:(li + 1) * VNS_PER_LINE]

    # -- VN resolution with tree verification ------------------------------

    def _tree_cache_lookup(self, level: int, j: int):
        return self.cache.peek(("tn", level, j))

    def _refresh_cached_nodes(self, lines: dict) -> None:
        """VnTree flush hook: each recomputed node-line replaces its verified
        cached copy, if one is cached."""
        update = self.cache.update_if_present
        for (level, j), line in lines.items():
            update(("tn", level, j), line)

    def resolve_vn(self, pa: int, t: dict) -> tuple[int, bool]:
        """Serve the line's VN from the metadata cache, else fetch the VN-line
        from DRAM. Returns (vn, fetched_cold); a cold fetch still owes a tree
        walk (walk_tree) before the VN-line may be cached as verified."""
        idx = self.line_index(pa)
        cached = self.cache.get(("vn", idx // VNS_PER_LINE))
        if cached is not None:
            return self._vns[idx], False
        t["vn_rd"] += LINE_BYTES
        return self._vns[idx], True

    def _charge_drain(self, keys) -> None:
        t = self.totals
        for k in keys:   # VN-lines and tree node-lines; MACs are never cached
            t["vn_wb" if k[0] == "vn" else "tree_wb"] += LINE_BYTES

    def walk_tree(self, pa: int, t: dict) -> None:
        """Verify the (cold-fetched) VN-line against the on-chip root, then
        cache the line and every node-line the walk touched."""
        li = self.line_index(pa) // VNS_PER_LINE
        fetched = self.tree.verify_path(li, self._vn_line(li),
                                        self._tree_cache_lookup)
        t["tree_rd"] += LINE_BYTES * len(fetched)
        t["cycles"] += HASH_CYCLES * (len(fetched) + 1)
        for (level, j) in fetched:
            self._charge_drain(self.cache.put(("tn", level, j),
                                              self.tree.node_line(level, j)))
        self._charge_drain(self.cache.put(("vn", li), True))

    # -- data path ----------------------------------------------------------

    def read_line(self, pa: int, collect: bool = False):
        """Fetch + decrypt one line, verifying MAC and (when the VN came from
        off-chip) the VN tree: what `read_lines([pa])` does, without its
        loop. Returns (plaintext, CostReport|None)."""
        if not collect:
            return self._read_one(pa), None
        t = self.totals
        t0 = (t["data_rd"], t["vn_rd"], t["mac_rd"], t["tree_rd"], t["cycles"])
        plain = self._read_one(pa)
        return plain, CostReport(
            "R", pa,
            data_bytes=t["data_rd"] - t0[0], vn_bytes=t["vn_rd"] - t0[1],
            mac_bytes=t["mac_rd"] - t0[2], tree_bytes=t["tree_rd"] - t0[3],
            cycles=t["cycles"] - t0[4])

    def read_lines(self, pas) -> list:
        """Read the lines `pas` in order, exactly as that many `read_line`
        calls would, and return their plaintexts. The tags and plaintexts of
        the lines are opened in batches of at most `OPEN_CHUNK_LINES` lines,
        each just before its reads, under the VN each line holds; nothing a
        read does changes a line's ciphertext, binding, MAC or VN. Each read
        then does its accounting, resolves its VN, compares its tag and
        walks the tree on a cold VN fetch (`read_opened`), so a fault leaves
        the totals, cache, store and tree that the per-line reads would
        have. An address outside the region raises ValueError before any
        read of its batch."""
        out = []
        pas = iter(pas)
        while chunk_pas := list(islice(pas, OPEN_CHUNK_LINES)):
            chunk = [self.line_index(pa) for pa in chunk_pas]
            tags, plains = self.opened(chunk)[:2]
            for pa, idx, tag in zip(chunk_pas, chunk, tags):
                self.read_opened(pa, idx, tag)
            out += plains
            del tags, plains     # before the next batch is opened
        return out

    def _read_one(self, pa: int) -> bytes:
        idx = self.line_index(pa)
        tag, plain = self.open_line(idx, self._vns[idx])
        self.read_opened(pa, idx, tag)
        return plain

    def read_opened(self, pa: int, idx: int, tag: int) -> None:
        """One read of line `idx` at `pa` whose tag, as `opened` gave it, is
        `tag`: the accounting, VN resolution and tag check, then the tree
        walk on a cold VN fetch."""
        t = self.totals
        t["reads"] += 1
        t["data_rd"] += LINE_BYTES
        _, cold = self.resolve_vn(pa, t)
        t["cycles"] += AES_CYCLES + MAC_CYCLES
        t["mac_rd"] += LINE_BYTES
        if tag != self._macs[idx]:
            raise IntegrityFault("mac_mismatch", f"pa={pa:#x}")
        if cold:
            self.walk_tree(pa, t)

    def write_line(self, pa: int, plain, *, vn: Optional[int] = None,
                   code: Optional[int] = None,
                   covered: bool = False, tag_sink: Optional[list] = None,
                   collect: bool = False):
        """Re-encrypt under VN+1 (or an explicit supplied VN) and binding
        code `code` (by default the line's own), recompute the MAC, store
        all three off-chip, and update the tree path: `write_lines` of the
        one line. Returns a CostReport with collect=True, else None."""
        t = self.totals
        t0 = dict(t) if collect else None
        self.write_lines((pa,), (plain,), vn=vn,
                         codes=None if code is None else (code,),
                         covered=covered, tag_sink=tag_sink)
        if not collect:
            return None
        return CostReport(
            "W", pa, data_bytes=t["data_wr"] - t0["data_wr"],
            vn_bytes=t["vn_wr"] - t0["vn_wr"] + t["vn_rd"] - t0["vn_rd"],
            mac_bytes=t["mac_wr"] - t0["mac_wr"],
            tree_bytes=t["tree_wr"] - t0["tree_wr"] + t["tree_rd"] - t0["tree_rd"],
            cycles=t["cycles"] - t0["cycles"])

    def write_lines(self, pas, plains, *, vn: Optional[int] = None,
                    codes=None, covered: bool = False,
                    tag_sink: Optional[list] = None) -> None:
        """Write each line of `pas` in order with the plaintext (`as_line`)
        and, if `codes` is given, the binding code at its position: encrypt
        it under its VN + 1 (or `vn`), MAC it, store both and the VN off-chip
        and update its tree path. Each line resolves its VN and walks the
        tree on a cold fetch (unless `vn` is given), stores its state and
        makes its metadata-cache puts in turn; the counters are charged as
        sums, also when a cold walk faults, so that a fault leaves the state
        of the writes before it. VN-line and tree-node drain coalesces
        through the metadata cache; the MAC region drains per write, except
        for `covered` (tensor-covered) writes, whose integrity root is the
        entry's aggregate MAC. The encryption and MAC wait for the next
        `seal()`, which appends each fresh tag to `tag_sink` if one is
        given. A line whose VN-line is the cache's `last_write` skips its
        puts, which would evict nothing, and, set by the line before it in
        this call, its tree update, since the leaf is already pending. An
        address outside the region, or a plaintext that is not one line,
        raises before any write."""
        idxs = list(map(self.line_index, pas))
        plains = list(map(as_line, plains))
        n = len(idxs)
        if len(plains) != n:
            raise ValueError("one plaintext per address")
        t, cache, tree, key = self.totals, self.cache, self.tree, self.key
        ct, vns, pending = self._ct, self._vns, self._pending
        fixed_vn = None if vn is None else vn & MASK56
        depth = tree.depth
        started = done = 0
        try:
            if fixed_vn is not None and n >= WRITE_SLICE_MIN \
                    and cache.capacity > depth and idxs[-1] - idxs[0] == n - 1 \
                    and idxs == list(range(idxs[0], idxs[0] + n)) \
                    and not (pending and any(pending.get(i) is not None for i in idxs)):
                self._write_slice(idxs[0], plains, fixed_vn, codes, tag_sink)
                started = done = n
                return
            if codes is None:
                codes = (None,) * n
            prev_li = None
            for pa, idx, plain, code in zip(pas, idxs, plains, codes):
                started += 1
                if fixed_vn is None:
                    old_vn, cold = self.resolve_vn(pa, t)
                    if cold:
                        self.walk_tree(pa, t)
                    new_vn = (old_vn + 1) & MASK56
                else:
                    new_vn = fixed_vn
                if pending.get(idx) is not None:
                    # a pending write that feeds a tag sink is sealed before
                    # its line is overwritten, so the sink still gets its tag
                    self.seal()
                if code is not None:
                    self._codes[idx] = code
                o = idx * LINE_BYTES
                ct[o:o + LINE_BYTES] = plain
                vns[idx] = new_vn
                if key.null:
                    # stored at once: deferring made a light criterion-4
                    # iteration 6-10% slower
                    tag = self._macs[idx] = line_tag(key, self._codes[idx], new_vn, plain)
                    if tag_sink is not None:
                        tag_sink.append(tag)
                else:
                    pending[idx] = tag_sink
                li = idx // VNS_PER_LINE
                if cache.last_write != ("vn", li):
                    self._put_write_keys(li)
                elif li != prev_li:
                    # `last_write` was left by an earlier call, after which
                    # the tree may have flushed the leaf
                    tree.update_path(li)
                prev_li = li
                done += 1
        finally:
            t["writes"] += started
            t["cycles"] += (AES_CYCLES + MAC_CYCLES + HASH_CYCLES * (depth + 1)) * done
            t["tree_wr"] += LINE_BYTES * depth * done
            t["data_wr"] += LINE_BYTES * done
            t["mac_wr"] += LINE_BYTES * done
            t["vn_wr"] += LINE_BYTES * done
            if not covered:
                t["mac_wb"] += LINE_BYTES * done

    def _write_slice(self, lo: int, plains: list, vn: int, codes, tag_sink) -> None:
        """The stores and metadata-cache puts of `write_lines` of the lines
        from `lo` on, under explicit VN `vn`, by slices: what its loop does
        when no line feeds a pending tag sink and the cache holds a write's
        keys, so that each VN-line's later lines skip their puts."""
        n = len(plains)
        hi = lo + n
        if codes is not None:
            self._codes[lo:hi] = array("Q", codes)
        self._ct[lo * LINE_BYTES:hi * LINE_BYTES] = b"".join(plains)
        self._vns[lo:hi] = array("Q", (vn,)) * n
        key = self.key
        if key.null:
            # stored at once, as the loop does; the null tag does not read the line
            tags = open_lines(key, self._codes[lo:hi],
                              memoryview(self._ct)[lo * LINE_BYTES:hi * LINE_BYTES], vn,
                              decrypt=False)[0]
            self._macs[lo:hi] = array("Q", tags)
            if tag_sink is not None:
                tag_sink += tags
        else:
            self._pending.update(dict.fromkeys(range(lo, hi), tag_sink))
        # each VN-line's first line makes the puts of the loop, and its
        # later lines skip them, the first leaving `last_write` set
        cache = self.cache
        for li in range(lo // VNS_PER_LINE, (hi - 1) // VNS_PER_LINE + 1):
            if cache.last_write != ("vn", li):
                self._put_write_keys(li)
            else:
                self.tree.update_path(li)

    def _put_write_keys(self, li: int) -> None:
        """A write's tree-path update of VN-line `li` and its metadata-cache
        puts: each dirtied node-line, cached with empty contents that the
        tree's next flush (which precedes any walk that could read it) fills
        in, then the VN-line, which becomes the cache's `last_write` unless a
        write's keys do not all fit, when it may have evicted its own."""
        cache = self.cache
        keys = self.tree.update_path(li)
        for k in keys:
            if evicted := cache.put(("tn",) + k, (), dirty=True):
                self._charge_drain(evicted)
        vkey = ("vn", li)
        if evicted := cache.put(vkey, True, dirty=True):
            self._charge_drain(evicted)
        if cache.capacity > len(keys):
            cache.last_write = vkey

    def line_mac(self, pa: int) -> int:
        return self.macs[self.line_index(pa)]

    # -- adversary harness ---------------------------------------------------

    def snapshot_triple(self, pa: int):
        """Capture ((ciphertext, binding code), VN, MAC) for a later replay
        injection."""
        idx = self.line_index(pa)
        return self.line(idx), self._vns[idx], self._macs[idx]

    def inject_attack(self, kind: str, pa: int, *, bit: int = 0,
                      snapshot=None, delta: int = 1) -> None:
        """Mutate off-chip state only; on-chip root and cached verified
        metadata are inside the TCB and stay intact."""
        if self.key.null:
            raise RuntimeError("attacks need crypto_on=True to be observable")
        idx = self.line_index(pa)
        # a pending write is sealed first, so the attack alters what was
        # sealed and a later seal does not undo it
        self.seal()
        # the tree reads pending leaves from `_vns` when it flushes, so it
        # hashes them now, before an attack can change them
        self.tree.flush()
        o = idx * LINE_BYTES
        if kind == "bitflip":
            bit %= LINE_BYTES * 8
            self._ct[o + bit // 8] ^= 1 << (bit % 8)
        elif kind == "mac_tamper":
            self._macs[idx] ^= 1 << (bit % 56)
        elif kind == "vn_tamper":
            self._vns[idx] = (self._vns[idx] + delta) & MASK56
        elif kind == "replay":
            if snapshot is None:
                raise ValueError("replay needs a snapshot_triple()")
            (data, code), vn, mac = snapshot
            self._ct[o:o + LINE_BYTES] = data
            self._codes[idx] = code
            self._vns[idx] = vn
            self._macs[idx] = mac
        else:
            raise ValueError(f"unknown attack kind: {kind}")

    def flush_metadata_cache(self) -> None:
        self._charge_drain(self.cache.flush())


class PlainMemory:
    """Unprotected store with the same surface; used by NonSecure runs."""

    def __init__(self, base_pa: int, n_lines: int):
        self.base_pa = base_pa
        self.n_lines = n_lines
        self.blocks: list = [bytes(LINE_BYTES)] * n_lines
        self.totals: dict[str, int] = dict.fromkeys(TOTALS_KEYS, 0)

    line_index = ProtectedMemory.line_index

    def read_lines(self, pas) -> list:
        """`read_line` of each of `pas` in order, without the per-line call."""
        t = self.totals
        blocks = self.blocks
        out = []
        for pa in pas:
            t["reads"] += 1
            t["data_rd"] += LINE_BYTES
            out.append(blocks[self.line_index(pa)])
        return out

    def read_line(self, pa: int, collect: bool = False):
        t = self.totals
        t["reads"] += 1
        t["data_rd"] += LINE_BYTES
        plain = self.blocks[self.line_index(pa)]
        rep = CostReport("R", pa, data_bytes=LINE_BYTES) if collect else None
        return plain, rep

    def write_line(self, pa: int, plain, *, collect: bool = False):
        t = self.totals
        t["writes"] += 1
        t["data_wr"] += LINE_BYTES
        self.blocks[self.line_index(pa)] = plain
        return CostReport("W", pa, data_bytes=LINE_BYTES) if collect else None

    def write_lines(self, pas, plains) -> None:
        """`write_line` of each of `pas` in order, without the per-line call."""
        t = self.totals
        blocks = self.blocks
        for pa, plain in zip(pas, plains):
            t["writes"] += 1
            t["data_wr"] += LINE_BYTES
            blocks[self.line_index(pa)] = plain
