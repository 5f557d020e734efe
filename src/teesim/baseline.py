"""SGX-like baseline protection: per-cacheline VN and MAC held off-chip, an
8-ary hash tree over the VN lines, and a shared LRU metadata cache holding
verified VN-lines and tree node-lines.

Eight 56-bit VNs pack into each 64 B VN-line (matching the tree fan-out), so
a streaming scan amortizes to 1/8 of a VN-line per read; the MAC region is
read on every access and never cached, which is the conservative model this
baseline is meant to expose.

The byte/cycle books are kept in `totals`; passing collect=True to an
operation additionally returns an itemized CostReport row.

With functional crypto, a write's encryption and MAC are deferred until the
line is next observed, so that a run of writes is sealed in one batch, and a
run of reads opens its lines in one batch (see `ProtectedMemory`).
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import Optional

from .crypto import (
    LINE_BYTES, MASK56, BindingMode, CipherBlock, CounterBinding, IntegrityFault,
    KeyMaterial, VnTree, decrypt_block, encrypt_block, mac_block, mix64,
    open_blocks, seal_lines,
)

VNS_PER_LINE = 8
AES_CYCLES = 40
MAC_CYCLES = 40
HASH_CYCLES = 40

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

    def invalidate(self, key) -> None:
        self.last_write = None
        self._d.pop(key, None)

    def flush(self) -> list:
        """Drop everything; returns the dirty keys that had to drain."""
        self.last_write = None
        dirty = [k for k, (v, d) in self._d.items() if d]
        self._d.clear()
        return dirty


class _LightTree:
    """Traffic-geometry stand-in for VnTree when crypto is off: identical walk
    and update footprints, no hashing, never faults."""

    def __init__(self, n_leaves: int):
        depth = 1
        while 8 ** depth < n_leaves:
            depth += 1
        self.depth = depth
        self.n_leaves = 8 ** depth

    def build(self, leaf_lines) -> int:
        return 0

    def verify_path(self, leaf_index, leaf_vns, cache_lookup=None):
        idx = leaf_index
        fetched = []
        for level in range(self.depth):
            j = idx // 8
            if cache_lookup is not None and cache_lookup(level, j) is not None:
                return fetched
            fetched.append((level, j))
            idx = j
        return fetched

    def update_path(self, leaf_index, leaf_vns):
        idx = leaf_index
        written = {}
        for level in range(self.depth):
            j = idx // 8
            written[(level, j)] = ()
            idx = j
        return written


def _stub_mac(code: int, vn: int) -> int:
    # light-mode tag: deterministic in (binding, vn) only
    return mix64(code ^ (vn * 0x10001)) & MASK56


class ProtectedMemory:
    """One enclave's protected DRAM region at cacheline granularity.

    Deferred sealing (functional crypto only): `write_line` does its per-line
    accounting, VN update and tree update at once, but only records the
    plaintext, binding and VN as unsealed. `seal()` encrypts and MACs every
    pending line in one batch. Invariant: no reader and no adversary ever
    sees an unsealed line, because every observer of ciphertext or MACs
    seals first: the `blocks` and `macs` properties, `read_lines`,
    `line_mac`, `snapshot_triple`, `inject_attack` and `plaintext_view`. So
    each sees exactly the state that sealing at every write would have left,
    and reads still decrypt and verify each line before returning it. A
    write may name a tag sink, to which its seal appends the fresh tag: an
    on-chip copy that a later tamper of the MAC region cannot reach. A
    pending write that feeds a sink is sealed before its line is overwritten.
    """

    def __init__(self, base_pa: int, n_lines: int, key: KeyMaterial, *,
                 metadata_cache_bytes: int = 32 * 1024, crypto_on: bool = True):
        if base_pa % LINE_BYTES:
            raise ValueError("base_pa must be cacheline-aligned")
        self.base_pa = base_pa
        self.n_lines = n_lines
        self.key = key
        self.crypto_on = crypto_on
        self._blocks: list[Optional[CipherBlock]] = [None] * n_lines
        self._macs: list[int] = [0] * n_lines
        # idx -> (plaintext, binding, vn, tag sink) written but not yet sealed
        self._unsealed: dict[int, tuple[bytes, CounterBinding, int,
                                        Optional[list]]] = {}
        n_vn_lines = -(-n_lines // VNS_PER_LINE)
        self.vn_lines: list[list[int]] = [[0] * VNS_PER_LINE for _ in range(n_vn_lines)]
        self.cache = MetadataCache(metadata_cache_bytes)
        self.tree = (VnTree(n_vn_lines, key, on_flush=self._refresh_cached_nodes)
                     if crypto_on else _LightTree(n_vn_lines))
        self.tree.build(self.vn_lines)
        self.bindings: dict[int, CounterBinding] = {}
        self.totals: dict[str, int] = dict.fromkeys(TOTALS_KEYS, 0)

    # -- sealing ------------------------------------------------------------

    @property
    def blocks(self) -> list[Optional[CipherBlock]]:
        self.seal()
        return self._blocks

    @property
    def macs(self) -> list[int]:
        self.seal()
        return self._macs

    def seal(self) -> None:
        """Encrypt and MAC every line written since the last seal. A write
        that named a tag sink has its fresh tag appended to it: that copy is
        computed on-chip, unlike the off-chip MAC an adversary may alter."""
        pending = self._unsealed
        if not pending:
            return
        plains, bindings, vns, _ = zip(*pending.values())
        sealed = zip(*seal_lines(self.key, plains, bindings, vns))
        blocks, macs = self._blocks, self._macs
        for (idx, (_, binding, vn, sink)), (data, tag) in zip(pending.items(), sealed):
            blk = blocks[idx]
            if blk is None:
                blocks[idx] = CipherBlock(data, binding, vn)
            else:
                blk.data, blk.binding, blk.vn = data, binding, vn
            macs[idx] = tag
            if sink is not None:
                sink.append(tag)
        pending.clear()

    def _settle(self, idx: int) -> None:
        """Before line `idx` is overwritten: a pending write of it that feeds
        a tag sink is sealed now, so the sink still receives its tag."""
        pending = self._unsealed.get(idx)
        if pending is not None and pending[3] is not None:
            self.seal()

    def install_sealed(self, idx: int, blk: CipherBlock, mac: int) -> None:
        """Store a line sealed elsewhere verbatim; a pending seal of the line
        is dropped, since the write it recorded is overwritten."""
        self._settle(idx)
        self._unsealed.pop(idx, None)
        self._blocks[idx] = blk
        self._macs[idx] = mac
        self.bindings[idx] = blk.binding

    # -- addressing --------------------------------------------------------

    def line_index(self, pa: int) -> int:
        off = pa - self.base_pa
        if off % LINE_BYTES or not (0 <= off < self.n_lines * LINE_BYTES):
            raise ValueError(f"pa {pa:#x} outside protected region or unaligned")
        return off // LINE_BYTES

    def contains(self, pa: int) -> bool:
        off = pa - self.base_pa
        return off % LINE_BYTES == 0 and 0 <= off < self.n_lines * LINE_BYTES

    def binding_for(self, idx: int, pa: int) -> CounterBinding:
        b = self.bindings.get(idx)
        if b is None:
            b = CounterBinding(BindingMode.PHYSICAL_ADDR, pa)
        return b

    def vn_of(self, pa: int) -> int:
        """Oracle view of the off-chip VN; no cost accounting."""
        idx = self.line_index(pa)
        return self.vn_lines[idx // VNS_PER_LINE][idx % VNS_PER_LINE]

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
        li, slot = divmod(idx, VNS_PER_LINE)
        cached = self.cache.get(("vn", li))
        if cached is not None:
            return self.vn_lines[li][slot], False
        t["vn_rd"] += LINE_BYTES
        return self.vn_lines[li][slot], True

    def _charge_drain(self, keys) -> None:
        t = self.totals
        for k in keys:
            kind = k[0]
            if kind == "vn":
                t["vn_wb"] += LINE_BYTES
            elif kind == "tn":
                t["tree_wb"] += LINE_BYTES
            elif kind == "mac":
                t["mac_wb"] += LINE_BYTES

    def walk_tree(self, pa: int, t: dict) -> None:
        """Verify the (cold-fetched) VN-line against the on-chip root, then
        cache the line and every node-line the walk touched."""
        idx = self.line_index(pa)
        li = idx // VNS_PER_LINE
        fetched = self.tree.verify_path(li, tuple(self.vn_lines[li]),
                                        self._tree_cache_lookup)
        t["tree_rd"] += LINE_BYTES * len(fetched)
        t["cycles"] += HASH_CYCLES * (len(fetched) + 1)
        for (level, j) in fetched:
            self._charge_drain(self.cache.put(
                ("tn", level, j),
                self.tree.node_line(level, j) if self.crypto_on else ()))
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
        calls would, and return their plaintexts. With functional crypto the
        tags and plaintexts of the lines already written are computed first,
        in one batch, each under the VN its VN-line holds; nothing a read
        does changes a line's ciphertext, binding, MAC or VN. Then each read
        in turn does its accounting, resolves its VN, compares its tag and
        walks the tree on a cold VN fetch. A never-written line is
        materialized only when its read comes, so a fault leaves the totals,
        cache, blocks, MACs and tree that the per-line reads would have."""
        self.seal()
        idxs = [self.line_index(pa) for pa in pas]
        blocks, macs, vn_lines = self._blocks, self._macs, self.vn_lines
        # the tag and plaintext at each position whose line is written
        tags, plains = [None] * len(idxs), [None] * len(idxs)
        if self.crypto_on:
            written = [k for k, idx in enumerate(idxs) if blocks[idx] is not None]
            if written:
                opened = open_blocks(
                    self.key, [blocks[idxs[k]] for k in written],
                    [vn_lines[idxs[k] // VNS_PER_LINE][idxs[k] % VNS_PER_LINE]
                     for k in written])
                for k, tag, plain in zip(written, *opened):
                    tags[k], plains[k] = tag, plain
        zero = bytes(LINE_BYTES) if self.crypto_on else None
        t = self.totals
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
                blk = blocks[idx]
                if blk is None:
                    blk = self._zero_block(idx, pa, vn)
                # materialized by this call, so it opens to zeros under the
                # tag just made (light mode keeps the stored data)
                plains[k] = blk.data if zero is None else zero
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
        whose integrity root is the entry's aggregate MAC. With functional
        crypto the encryption and MAC wait for the next `seal()`, which
        appends the line's fresh tag to `tag_sink` if one is given."""
        t = self.totals
        t["writes"] += 1
        t0 = (t["data_wr"], t["vn_wr"], t["mac_wr"], t["tree_wr"], t["cycles"],
              t["vn_rd"], t["tree_rd"]) if collect else None
        idx = self.line_index(pa)
        li, slot = divmod(idx, VNS_PER_LINE)
        if vn is None:
            old_vn, cold = self.resolve_vn(pa, t)
            if cold:
                self.walk_tree(pa, t)
            new_vn = (old_vn + 1) & MASK56
        else:
            new_vn = vn & MASK56
        self._settle(idx)
        pending = self._unsealed.get(idx)
        blk = self._blocks[idx]
        if binding is None:
            # a line's binding is sticky; reuse the stored one when present
            binding = pending[1] if pending is not None else \
                blk.binding if blk is not None else self.binding_for(idx, pa)
        else:
            self.bindings[idx] = binding
        t["cycles"] += AES_CYCLES + MAC_CYCLES
        t["data_wr"] += LINE_BYTES
        t["mac_wr"] += LINE_BYTES
        t["vn_wr"] += LINE_BYTES
        if not covered:
            t["mac_wb"] += LINE_BYTES
        if self.crypto_on:
            if isinstance(plain, int):
                plain = plain.to_bytes(LINE_BYTES, "little")
            elif len(plain) != LINE_BYTES:
                raise ValueError(f"a line is {LINE_BYTES} bytes, got {len(plain)}")
            self._unsealed[idx] = (plain, binding, new_vn, tag_sink)
        else:
            if blk is None:
                self._blocks[idx] = CipherBlock(plain, binding, new_vn)
            else:
                blk.data, blk.binding, blk.vn = plain, binding, new_vn
            code = pa if binding.mode == BindingMode.PHYSICAL_ADDR else binding.code()
            self._macs[idx] = tag = _stub_mac(code, new_vn)
            if tag_sink is not None:
                tag_sink.append(tag)
        self.vn_lines[li][slot] = new_vn
        written = self.tree.update_path(li, tuple(self.vn_lines[li]))
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

    def _zero_block(self, idx: int, pa: int, vn: int) -> CipherBlock:
        """Materialize a never-written line, with a fresh MAC; the caller has
        sealed, so the line has no pending write."""
        binding = self.binding_for(idx, pa)
        if self.crypto_on:
            blk = encrypt_block(b"\x00" * LINE_BYTES, binding, vn, self.key)
            self._macs[idx] = mac_block(blk, self.key)
        else:
            blk = CipherBlock(0, binding, vn)
            code = pa if binding.mode == BindingMode.PHYSICAL_ADDR else binding.code()
            self._macs[idx] = _stub_mac(code, vn)
        self._blocks[idx] = blk
        return blk

    # -- adversary harness ---------------------------------------------------

    def _materialized(self, pa: int) -> tuple[int, CipherBlock]:
        """Seal, then return line `pa`'s index and block, materializing a
        never-written line first. The adversary harness goes through here,
        so a tamper of a never-written line is not undone by a later first
        read."""
        idx, = self.materialize([pa])
        return idx, self._blocks[idx]

    def materialize(self, pas: list[int]) -> list[int]:
        """Seal, then give every never-written line among `pas` its zero
        ciphertext and MAC under its current VN, sealing them in one batch.
        Returns the indices of the lines `pas`."""
        self.seal()
        idxs = [self.line_index(pa) for pa in pas]
        blocks = self._blocks
        fresh = [(idx, pa) for idx, pa in zip(idxs, pas) if blocks[idx] is None]
        if not fresh:
            return idxs
        if not self.crypto_on:
            for idx, pa in fresh:
                self._zero_block(idx, pa, self.vn_of(pa))
            return idxs
        bindings = [self.binding_for(idx, pa) for idx, pa in fresh]
        vns = [self.vn_of(pa) for _, pa in fresh]
        zero = bytes(LINE_BYTES)
        sealed = zip(*seal_lines(self.key, [zero] * len(fresh), bindings, vns))
        for (idx, _), binding, vn, (data, tag) in zip(fresh, bindings, vns, sealed):
            blocks[idx] = CipherBlock(data, binding, vn)
            self._macs[idx] = tag
        return idxs

    def snapshot_triple(self, pa: int):
        """Capture (ciphertext, VN, MAC) for a later replay injection."""
        idx, blk = self._materialized(pa)
        return (blk.data, blk.binding, blk.vn), self.vn_of(pa), self._macs[idx]

    def inject_attack(self, kind: str, pa: int, *, bit: int = 0,
                      snapshot=None, delta: int = 1) -> None:
        """Mutate off-chip state only; on-chip root and cached verified
        metadata are inside the TCB and stay intact."""
        if not self.crypto_on:
            raise RuntimeError("attacks need crypto_on=True to be observable")
        idx, blk = self._materialized(pa)
        li, slot = divmod(idx, VNS_PER_LINE)
        if kind == "bitflip":
            blk.data ^= 1 << (bit % (LINE_BYTES * 8))
        elif kind == "mac_tamper":
            self._macs[idx] ^= 1 << (bit % 56)
        elif kind == "vn_tamper":
            self.vn_lines[li][slot] = (self.vn_lines[li][slot] + delta) & MASK56
        elif kind == "replay":
            if snapshot is None:
                raise ValueError("replay needs a snapshot_triple()")
            data, vn, mac = snapshot
            blk.data, blk.binding, blk.vn = data
            self.vn_lines[li][slot] = vn
            self._macs[idx] = mac
        else:
            raise ValueError(f"unknown attack kind: {kind}")

    def flush_metadata_cache(self) -> None:
        self._charge_drain(self.cache.flush())

    # -- oracle ---------------------------------------------------------------

    def plaintext_view(self) -> dict[int, bytes]:
        """Honest decryption of every present line (test oracle)."""
        out = {}
        for idx, blk in enumerate(self.blocks):
            if blk is None:
                continue
            pa = self.base_pa + idx * LINE_BYTES
            vn = self.vn_of(pa)
            if self.crypto_on:
                out[pa] = decrypt_block(blk, self.key, vn)
            else:
                out[pa] = blk.data
        return out


class PlainMemory:
    """Unprotected store with the same surface; used by NonSecure runs."""

    def __init__(self, base_pa: int, n_lines: int):
        self.base_pa = base_pa
        self.n_lines = n_lines
        self.blocks: list = [None] * n_lines
        self.totals: dict[str, int] = dict.fromkeys(TOTALS_KEYS, 0)

    def line_index(self, pa: int) -> int:
        off = pa - self.base_pa
        if off % LINE_BYTES or not (0 <= off < self.n_lines * LINE_BYTES):
            raise ValueError(f"pa {pa:#x} outside region or unaligned")
        return off // LINE_BYTES

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
