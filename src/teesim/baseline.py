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
lines in one batch (see `ProtectedMemory`).
"""

from __future__ import annotations

from array import array
from collections import OrderedDict
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .crypto import (
    LINE_BYTES, MASK56, NULL_KEY, CipherBlock, CounterBinding,
    IntegrityFault, KeyMaterial, VnTree, keystream_lines, line_tag, open_lines,
    pa_binding_codes, seal_into, words_to_bytes,
)
# unused, but perfbench/tests' tracer test looks these names up here
from .crypto import decrypt_block, encrypt_block, mac_block  # noqa: F401

VNS_PER_LINE = 8
AES_CYCLES = 40
MAC_CYCLES = 40
HASH_CYCLES = 40
_ZERO_LINE = bytes(LINE_BYTES)

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
    operation (`ProtectedMemory.write_line` sets it), or None. Any other
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

    def peek(self, key):
        slot = self._d.get(key)
        return None if slot is None else slot[0]

    def put(self, key, value, dirty: bool = False) -> list:
        """Insert/refresh; returns the dirty keys evicted to make room."""
        self.last_write = None
        slot = self._d.get(key)
        if slot is not None:
            slot[0] = value
            slot[1] = slot[1] or dirty
            self._d.move_to_end(key)
            return []
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


class ProtectedMemory:
    """One enclave's protected DRAM region at cacheline granularity.

    The off-chip state is one flat array per field, indexed by line: the
    ciphertext (`_ct`, with `_words` its (n, 8) uint64 view for batches), the
    MACs, the VNs (eight to a VN-line, the tree's leaves), the binding codes
    (a line's physical address until a write names another binding) and a
    written mask. A never-written line holds zeros until a read or the
    adversary harness materializes it. Other modules go through `line`,
    `codes`, `install_lines` and `plaintexts`.

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
        self._codes = array("Q", pa_binding_codes(base_pa, n_lines).tobytes())
        self._written = bytearray(n_lines)
        # idx -> tag sink (or None) of a line written but not yet sealed
        self._pending: dict[int, Optional[list]] = {}
        self.cache = MetadataCache(metadata_cache_bytes)
        self.tree = VnTree(n_vn_lines, self.key,
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

    def _materialize(self, idxs) -> None:
        """Seal, with the never-written lines of `idxs` (zeros) pending."""
        written, pending = self._written, self._pending
        for idx in idxs:
            if not written[idx]:
                written[idx] = 1
                pending[idx] = None
        self.seal()

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
        """Line `idx`'s ciphertext and binding code, with no cost accounting;
        a never-written line is materialized first."""
        self.seal()
        if not self._written[idx]:
            self._materialize((idx,))
        o = idx * LINE_BYTES
        return bytes(self._ct[o:o + LINE_BYTES]), self._codes[idx]

    def codes(self, pas) -> list[int]:
        """The binding code of each line of `pas`."""
        return [self._codes[idx] for idx in map(self.line_index, pas)]

    def install_lines(self, base_pa: int, blocks: Sequence[CipherBlock],
                      tags: Sequence[int], vn: int) -> None:
        """Seal, then store lines sealed elsewhere verbatim, with their tags,
        as the lines from `base_pa` on, each under VN `vn`. Each costs a data,
        VN and MAC write and a tree-path update, with no metadata-cache
        traffic: cached node-lines are refreshed when the tree flushes."""
        n = len(blocks)
        lo = self.line_index(base_pa)
        hi = self.line_index(base_pa + (n - 1) * LINE_BYTES) + 1
        self.seal()
        self._ct[lo * LINE_BYTES:hi * LINE_BYTES] = \
            b"".join([blk.to_bytes() for blk in blocks])
        self._written[lo:hi] = b"\x01" * n
        t = self.totals
        for idx, blk, tag in zip(range(lo, hi), blocks, tags):
            self._codes[idx], self._macs[idx], self._vns[idx] = \
                blk.binding._code, tag, vn
            li = idx // VNS_PER_LINE
            t["tree_wr"] += LINE_BYTES * len(self.tree.update_path(li, self._vn_line(li)))
        for k in ("data_wr", "vn_wr", "mac_wr"):
            t[k] += LINE_BYTES * n

    def plaintexts(self, pas) -> list[bytes]:
        """Oracle: the plaintext of each line of `pas` under its stored
        binding and VN, with no cost accounting and no check. A never-written
        line reads as zeros."""
        self.seal()
        at = np.array([self.line_index(pa) for pa in pas], dtype=np.intp)
        words = keystream_lines(self.key, np.asarray(self._codes)[at],
                                np.asarray(self._vns)[at])
        words ^= self._words[at]
        words[np.frombuffer(self._written, dtype=np.uint8)[at] == 0] = 0
        return words_to_bytes(words)

    def _open(self, idxs) -> tuple[list[int], list[bytes]]:
        """Tags and plaintexts of sealed lines under their stored state."""
        ct, codes, vns = self._ct, self._codes, self._vns
        return open_lines(
            self.key, [codes[i] for i in idxs],
            b"".join([ct[i * LINE_BYTES:(i + 1) * LINE_BYTES] for i in idxs]),
            [vns[i] for i in idxs])

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
        off-chip) the VN tree: `read_lines([pa])`. Returns (plaintext,
        CostReport|None)."""
        if not collect:
            return self.read_lines([pa])[0], None
        t = self.totals
        t0 = (t["data_rd"], t["vn_rd"], t["mac_rd"], t["tree_rd"], t["cycles"])
        plain, = self.read_lines([pa])
        return plain, CostReport(
            "R", pa,
            data_bytes=t["data_rd"] - t0[0], vn_bytes=t["vn_rd"] - t0[1],
            mac_bytes=t["mac_rd"] - t0[2], tree_bytes=t["tree_rd"] - t0[3],
            cycles=t["cycles"] - t0[4])

    def read_lines(self, pas) -> list:
        """Read the lines `pas` in order, exactly as that many `read_line`
        calls would, and return their plaintexts. The tags and plaintexts of
        the lines already written are computed first, in one batch, each under
        the VN its VN-line holds; nothing a read does changes a line's
        ciphertext, binding, MAC or VN. Then each read in turn does its
        accounting, resolves its VN, compares its tag and walks the tree on a
        cold VN fetch. A never-written line is materialized only when its read
        comes, so a fault leaves the totals, cache, store and tree that the
        per-line reads would have."""
        self.seal()
        idxs = [self.line_index(pa) for pa in pas]
        written = self._written
        # the tag and plaintext at each position whose line is written
        tags, plains = [None] * len(idxs), [None] * len(idxs)
        ks = [k for k, idx in enumerate(idxs) if written[idx]]
        for k, tag, plain in zip(ks, *self._open([idxs[k] for k in ks])):
            tags[k], plains[k] = tag, plain
        t = self.totals
        macs = self._macs
        for k, (pa, idx) in enumerate(zip(pas, idxs)):
            t["reads"] += 1
            t["data_rd"] += LINE_BYTES
            vn, cold = self.resolve_vn(pa, t)
            t["cycles"] += AES_CYCLES + MAC_CYCLES
            t["mac_rd"] += LINE_BYTES
            if plains[k] is not None:
                if tags[k] != macs[idx]:
                    raise IntegrityFault("mac_mismatch", f"pa={pa:#x}")
            else:
                if not written[idx]:
                    self._materialize((idx,))
                # materialized by this call, so it opens to zeros under the
                # tag just made
                plains[k] = _ZERO_LINE
            if cold:
                self.walk_tree(pa, t)
        return plains

    def write_line(self, pa: int, plain, *, vn: Optional[int] = None,
                   binding: Optional[CounterBinding] = None,
                   covered: bool = False, tag_sink: Optional[list] = None,
                   collect: bool = False):
        """Re-encrypt under VN+1 (or an explicit supplied VN), recompute the
        MAC, store all three off-chip, and update the tree path. VN-line and
        tree-node drain coalesces through the metadata cache; the MAC region
        is uncached and drains per write, except for tensor-covered writes
        whose integrity root is the entry's aggregate MAC. The encryption and
        MAC wait for the next `seal()`, which appends the line's fresh tag to
        `tag_sink` if one is given."""
        t = self.totals
        t["writes"] += 1
        t0 = (t["data_wr"], t["vn_wr"], t["mac_wr"], t["tree_wr"], t["cycles"],
              t["vn_rd"], t["tree_rd"]) if collect else None
        idx = self.line_index(pa)
        if vn is None:
            old_vn, cold = self.resolve_vn(pa, t)
            if cold:
                self.walk_tree(pa, t)
            new_vn = (old_vn + 1) & MASK56
        else:
            new_vn = vn & MASK56
        if self._pending.get(idx) is not None:
            # a pending write that feeds a tag sink is sealed before its
            # line is overwritten, so the sink still receives its tag
            self.seal()
        if binding is not None:
            self._codes[idx] = binding._code
        t["cycles"] += AES_CYCLES + MAC_CYCLES
        t["data_wr"] += LINE_BYTES
        t["mac_wr"] += LINE_BYTES
        t["vn_wr"] += LINE_BYTES
        if not covered:
            t["mac_wb"] += LINE_BYTES
        if isinstance(plain, int):
            plain = plain.to_bytes(LINE_BYTES, "little")
        elif len(plain) != LINE_BYTES:
            raise ValueError(f"a line is {LINE_BYTES} bytes, got {len(plain)}")
        o = idx * LINE_BYTES
        self._ct[o:o + LINE_BYTES] = plain
        self._written[idx] = 1
        self._vns[idx] = new_vn
        if self.key.null:
            # stored at once: deferring made a light criterion-4 iteration 6-10% slower
            tag = self._macs[idx] = line_tag(self.key, self._codes[idx], new_vn, plain)
            if tag_sink is not None:
                tag_sink.append(tag)
        else:
            self._pending[idx] = tag_sink
        li = idx // VNS_PER_LINE
        written = self.tree.update_path(li, self._vn_line(li))
        t["tree_wr"] += LINE_BYTES * len(written)
        t["cycles"] += HASH_CYCLES * (len(written) + 1)
        # a dirtied node-line is cached with empty contents; the tree's next
        # flush, which precedes any walk that could read it, fills them in.
        # When the cache's last operation was a write of this same VN-line,
        # these puts would hit keys already at the MRU end, dirty and in
        # this order, and evict nothing, so they are skipped
        cache = self.cache
        vkey = ("vn", li)
        if cache.last_write != vkey:
            for key in written:
                self._charge_drain(cache.put(("tn",) + key, (), dirty=True))
            self._charge_drain(cache.put(vkey, True, dirty=True))
            # a write whose keys do not all fit may have evicted its own
            if cache.capacity > len(written):
                cache.last_write = vkey
        if collect:
            return CostReport(
                "W", pa,
                data_bytes=t["data_wr"] - t0[0], vn_bytes=(t["vn_wr"] - t0[1]) +
                (t["vn_rd"] - t0[5]),
                mac_bytes=t["mac_wr"] - t0[2],
                tree_bytes=(t["tree_wr"] - t0[3]) + (t["tree_rd"] - t0[6]),
                cycles=t["cycles"] - t0[4])
        return None

    def line_mac(self, pa: int) -> int:
        return self.macs[self.line_index(pa)]

    # -- adversary harness ---------------------------------------------------

    def materialize(self, pas: list[int]) -> list[int]:
        """Seal, then give every never-written line among `pas` its zero
        ciphertext and MAC under its current VN, sealing them in one batch.
        Returns the indices of the lines `pas`. The adversary harness goes
        through here, so a tamper of a never-written line is not undone by a
        later first read."""
        idxs = [self.line_index(pa) for pa in pas]
        self._materialize(idxs)
        return idxs

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
        idx, = self.materialize([pa])
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
        self.blocks: list = [None] * n_lines
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
            plain = blocks[self.line_index(pa)]
            out.append(b"\x00" * LINE_BYTES if plain is None else plain)
        return out

    def read_line(self, pa: int, collect: bool = False):
        t = self.totals
        t["reads"] += 1
        t["data_rd"] += LINE_BYTES
        plain = self.blocks[self.line_index(pa)]
        if plain is None:
            plain = b"\x00" * LINE_BYTES
        rep = CostReport("R", pa, data_bytes=LINE_BYTES) if collect else None
        return plain, rep

    def write_line(self, pa: int, plain, *, collect: bool = False):
        t = self.totals
        t["writes"] += 1
        t["data_wr"] += LINE_BYTES
        self.blocks[self.line_index(pa)] = plain
        return CostReport("W", pa, data_bytes=LINE_BYTES) if collect else None
