"""SGX-like baseline protection: per-cacheline VN and MAC held off-chip, an
8-ary hash tree over the VN lines, and a shared LRU metadata cache holding
verified VN-lines and tree node-lines.

Eight 56-bit VNs pack into each 64 B VN-line (matching the tree fan-out), so
a streaming scan amortizes to 1/8 of a VN-line per read; the MAC region is
read on every access and never cached, which is the conservative model this
baseline is meant to expose.

The byte/cycle books are kept in `totals`; `CostReport.between` itemizes
one access as the change in them.

A write's encryption and MAC are deferred until the line is next observed,
so that a run of writes is sealed in one batch, and a run of reads opens its
lines in batches (see `ProtectedMemory`); `read_lines` and `write_lines`
take a run of accesses with the result of one-line calls. Each line of a
`write_lines` call names its VN source, so one call may mix misses and
covered writes, and the metadata-cache touches of a call are batched (see
`MetadataCache`). `write_line` is `write_lines` of one line, and
`read_line` does what `read_lines` of one line does.
"""

from __future__ import annotations

from array import array
from collections import OrderedDict
from dataclasses import dataclass
from functools import reduce
from itertools import islice, takewhile
from operator import or_
from typing import Optional, Sequence

import numpy as np

from .crypto import (
    LINE_BYTES, MASK56, NULL_KEY, OPEN_BATCH_MIN, IntegrityFault, KeyMaterial,
    VnTree, as_line, keystream_lines, line_pad, line_tag, mac_lines, open_lines,
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
# `write_lines` stores a run of at least this many consecutive lines under one
# explicit VN and tag sink by slices, and shorter runs line by line. Slices against the
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

    @classmethod
    def between(cls, op: str, pa: int, before: dict, after: dict) -> "CostReport":
        """The cost of one access `op` at `pa`: the change in a memory's
        `totals` from `before` to `after` it, each kind's reads and writes
        summed."""
        d = {k: after[k] - before[k] for k in TOTALS_KEYS}
        return cls(op, pa, data_bytes=d["data_rd"] + d["data_wr"],
                   vn_bytes=d["vn_rd"] + d["vn_wr"],
                   mac_bytes=d["mac_rd"] + d["mac_wr"],
                   tree_bytes=d["tree_rd"] + d["tree_wr"], cycles=d["cycles"])


class MetadataCache:
    """LRU over 64 B entries; holds VN-lines and tree node-lines, all tagged
    verified. A hit on a tree node-line terminates an upward walk. Writes
    dirty their cached lines; the DRAM drain happens at eviction (write-back),
    which is what coalesces the per-write VN/tree traffic.

    `last_write` is the VN-line key whose write made the cache's last
    operation (`ProtectedMemory.write_lines` sets it), or None. Any other
    operation except a `get` of that same key clears it. While it is set,
    that write's keys sit at the MRU end, dirty and in write order.

    A run of writes touches the cache in a batch (`batch_get`,
    `batch_holds`, `batch_put`, `end_batch`), with the result of the loop
    in which each write gets its VN-line if it looks its VN up, then puts
    the node-lines its tree update dirties and the VN-line, dirty, unless
    the VN-line is `last_write`. A VN-line's first write in the batch puts
    each of its keys the batch has not touched. Every key the batch touched
    then sits after every key it did not, as in the loop, so each eviction
    takes the key the loop's would: the oldest key the batch has not
    touched, as long as the batch's distinct keys do not exceed
    `capacity`; the batch ends before a write's touches, its `get` too,
    could take them past it. A later write of that VN-line only records
    its touch: its lookup hits without a `get`. `end_batch` moves the
    batch's keys to the MRU end in the order of their last touch. No other
    operation may come between a batch's first touch and its end."""

    def __init__(self, capacity_bytes: int):
        self.capacity = max(1, capacity_bytes // LINE_BYTES)
        self._d: OrderedDict = OrderedDict()   # key -> [value, dirty]
        self.hits = 0
        self.misses = 0
        self.last_write = None
        # the open batch: each VN-line key it touched -> the (level, line)
        # node-lines of its write, in the order of their last touch; and the
        # node-lines it touched
        self._batch: dict = {}
        self._batch_nodes: set = set()

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

    def batch_holds(self, vkey) -> bool:
        """Whether the open batch holds VN-line `vkey`; if it does, a write
        of it records its touch: its lookup hits without a `get` (the
        caller counts the hit), and it makes no put."""
        batch = self._batch
        path = batch.pop(vkey, None)
        if path is None:
            return False
        batch[vkey] = path
        return True

    def batch_get(self, vkey, n: int) -> bool:
        """A write's `get` of VN-line `vkey`, which the open batch does not
        hold, before the `batch_put` of its `n` keys: whether it hit. The
        batch ends first if the lookup misses, since a tree walk follows
        it, or if `batch_put` would end it: ended after the `get`, the
        batch would move its keys after `vkey`, where the loop has `vkey`
        after them."""
        batch = self._batch
        if batch and (vkey not in self._d
                      or len(batch) + len(self._batch_nodes) + n > self.capacity):
            self.end_batch()
        return self.get(vkey) is not None

    def batch_put(self, vkey, path: list) -> list:
        """The puts of a write of VN-line `vkey`, which the open batch does
        not hold, whose tree update dirties the (level, line) node-lines
        `path`, leaf level first, each cached under ("tn", level, line)
        with empty contents: a put of each key the batch has not touched.
        Those node-lines are a leaf-level prefix of `path`, since a write
        that touched a node-line touched every one above it. The batch ends
        first if the write's keys could take its distinct keys past
        `capacity`; for a write that looks its VN up, `batch_get` ended it
        already. Returns the dirty keys evicted."""
        batch, nodes = self._batch, self._batch_nodes
        n = len(path) + 1
        if len(batch) + len(nodes) + n > self.capacity:
            self.end_batch()
        fresh = path
        if nodes:
            fresh = []
            for node in path:
                if node in nodes:
                    break
                fresh.append(node)
        evicted = []
        if self.last_write != vkey:
            put = self.put
            for node in fresh:
                if out := put(("tn", *node), (), dirty=True):
                    evicted += out
            evicted += put(vkey, True, dirty=True)
        # a write whose keys do not all fit may evict its own, so it is
        # not held: the next write of its VN-line makes its own puts
        if n <= self.capacity:
            batch[vkey] = path
            nodes.update(fresh)
        return evicted

    def end_batch(self) -> None:
        """End the open batch: move its keys to the MRU end in the order of
        their last touch, and leave its last write's VN-line `last_write`."""
        batch = self._batch
        if not batch:
            return
        if len(batch) > 1:
            # each key once, where its last touch puts it: walking the
            # writes from the last, the node-lines of a write that no later
            # write touched are a leaf-level prefix of its path
            seen, keys = set(), []
            for vkey, path in reversed(batch.items()):
                keys.append(vkey)
                fresh = []
                for node in path:
                    if node in seen:
                        break
                    fresh.append(node)
                seen.update(fresh)
                keys += [("tn", *node) for node in reversed(fresh)]
            move = self._d.move_to_end
            for key in reversed(keys):
                move(key)
        self.last_write = next(reversed(batch))
        batch.clear()
        self._batch_nodes.clear()

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


def _slice_end(idxs: list, sources, i: int) -> int:
    """The position after the run of writes from position `i` on of
    consecutive lines under the VN and tag sink of write `i`."""
    off = idxs[i] - i
    vn, _, sink = sources[i]
    for j in range(i + 1, len(idxs)):
        src = sources[j]
        if idxs[j] - j != off or src is None or src[0] != vn or src[2] is not sink:
            return j
    return len(idxs)


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

    def line_indices(self, pas: list) -> list[int]:
        """`line_index` of each address of `pas`, up to the first that is
        outside the region or unaligned."""
        base, size = self.base_pa, self.n_lines * LINE_BYTES
        offs = [pa - base for pa in pas]
        if offs and (min(offs) < 0 or max(offs) >= size or reduce(or_, offs) % LINE_BYTES):
            offs = list(takewhile(lambda off: 0 <= off < size and not off % LINE_BYTES, offs))
        return [off // LINE_BYTES for off in offs]

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

    def resolve_vn(self, pa: int) -> tuple[int, bool]:
        """Serve the line's VN from the metadata cache, else fetch the VN-line
        from DRAM. Returns (vn, fetched_cold); a cold fetch still owes a tree
        walk (walk_tree) before the VN-line may be cached as verified."""
        idx = self.line_index(pa)
        cached = self.cache.get(("vn", idx // VNS_PER_LINE))
        if cached is not None:
            return self._vns[idx], False
        self.totals["vn_rd"] += LINE_BYTES
        return self._vns[idx], True

    def _charge_drain(self, keys) -> None:
        t = self.totals
        for k in keys:   # VN-lines and tree node-lines; MACs are never cached
            t["vn_wb" if k[0] == "vn" else "tree_wb"] += LINE_BYTES

    def walk_tree(self, pa: int) -> None:
        """Verify the (cold-fetched) VN-line against the on-chip root, then
        cache the line and every node-line the walk touched."""
        self._walk(self.line_index(pa) // VNS_PER_LINE)

    def _walk(self, li: int) -> None:
        """`walk_tree` of VN-line `li`."""
        fetched = self.tree.verify_path(li, self._vn_line(li),
                                        self._tree_cache_lookup)
        t = self.totals
        t["tree_rd"] += LINE_BYTES * len(fetched)
        t["cycles"] += HASH_CYCLES * (len(fetched) + 1)
        for (level, j) in fetched:
            self._charge_drain(self.cache.put(("tn", level, j),
                                              self.tree.node_line(level, j)))
        self._charge_drain(self.cache.put(("vn", li), True))

    # -- data path ----------------------------------------------------------

    def read_line(self, pa: int):
        """Fetch + decrypt one line, verifying MAC and (when the VN came from
        off-chip) the VN tree: what `read_lines([pa])` does, without its
        loop. Returns (plaintext, None)."""
        idx = self.line_index(pa)
        tag, plain = self.open_line(idx, self._vns[idx])
        self.read_opened(pa, idx, tag)
        return plain, None

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
            chunk = self.line_indices(chunk_pas)
            if len(chunk) < len(chunk_pas):
                self.line_index(chunk_pas[len(chunk)])      # raises
            tags, plains = self.opened(chunk)[:2]
            for pa, idx, tag in zip(chunk_pas, chunk, tags):
                self.read_opened(pa, idx, tag)
            out += plains
            del tags, plains     # before the next batch is opened
        return out

    def read_opened(self, pa: int, idx: int, tag: int) -> None:
        """One read of line `idx` at `pa` whose tag, as `opened` gave it, is
        `tag`: the accounting, VN resolution and tag check, then the tree
        walk on a cold VN fetch."""
        t = self.totals
        t["reads"] += 1
        t["data_rd"] += LINE_BYTES
        _, cold = self.resolve_vn(pa)
        t["cycles"] += AES_CYCLES + MAC_CYCLES
        t["mac_rd"] += LINE_BYTES
        if tag != self._macs[idx]:
            raise IntegrityFault("mac_mismatch", f"pa={pa:#x}")
        if cold:
            self.walk_tree(pa)

    def write_line(self, pa: int, plain, *, vn: Optional[int] = None,
                   code: Optional[int] = None, tag_sink: Optional[list] = None) -> None:
        """Re-encrypt under VN+1 (or an explicit supplied VN) and binding
        code `code` (by default the line's own), recompute the MAC, store
        all three off-chip, and update the tree path: `write_lines` of the
        one line, whose source is None without `vn`, else `(vn, code,
        tag_sink)`. A code or a tag sink without `vn` raises ValueError."""
        if vn is None and (code is not None or tag_sink is not None):
            raise ValueError("a binding code or a tag sink needs an explicit VN")
        self.write_indexed([self.line_index(pa)], [as_line(plain)],
                          None if vn is None else ((vn, code, tag_sink),))

    def write_lines(self, pas, plains, sources=None) -> None:
        """Write each line of `pas` in order with the plaintext (`as_line`)
        at its position, under the VN source at its position of `sources`
        (by default, None for every line). A source of None resolves the
        line's VN, walks the tree on a cold fetch and writes under VN + 1;
        a source `(vn, code, sink)` writes under `vn` and binding code
        `code` (None: the line's own), and is a covered (tensor-covered)
        write if it names a tag sink `sink`. Each write encrypts the line,
        MACs it, stores both and the VN off-chip and updates its tree path,
        in turn; the counters are charged as sums, also when a cold walk
        faults, so that a fault leaves the state of the writes before it.
        VN-line and tree-node drain coalesces through the metadata cache;
        the MAC region drains per write, except for covered writes, whose
        integrity root is the entry's aggregate MAC. The encryption and MAC
        wait for the next `seal()`, which appends each covered write's
        fresh tag to its sink. The metadata-cache touches are batched (see
        `MetadataCache`). An address outside the region, or a plaintext
        that is not one line, raises before any write."""
        idxs = list(map(self.line_index, pas))
        plains = list(map(as_line, plains))
        n = len(idxs)
        if len(plains) != n or (sources is not None and len(sources) != n):
            raise ValueError("one plaintext and one source per address")
        self.write_indexed(idxs, plains, sources)

    def write_indexed(self, idxs: list, plains: list, sources) -> None:
        """`write_lines` of the lines `idxs`, by index (`line_index`), with
        plaintexts `plains` that are lines already (`as_line`), each a list,
        and `sources` None or a sequence. Each run of `WRITE_SLICE_MIN` or
        more consecutive lines under one explicit VN and tag sink is stored
        by slices (`_write_slice`) when the cache holds a write's keys."""
        t, cache, key = self.totals, self.cache, self.key
        ct, vns, pending, line_codes = self._ct, self._vns, self._pending, self._codes
        depth = self.tree.depth
        n = len(idxs)
        # a run of explicit-VN writes may be sliced from position
        # `slice_from` on if the batch holds a write's keys
        slice_from = 0 if sources is not None and cache.capacity > depth else n
        started = done = wb = 0
        i = 0
        try:
            while i < n:
                idx = idxs[i]
                src = None if sources is None else sources[i]
                li = idx // VNS_PER_LINE
                vkey = ("vn", li)
                held = cache.batch_holds(vkey)
                if src is None:
                    started += 1
                    if held:
                        cache.hits += 1
                    elif not cache.batch_get(vkey, depth + 1):
                        t["vn_rd"] += LINE_BYTES
                        self._walk(li)
                    new_vn = (vns[idx] + 1) & MASK56
                    code = sink = None
                else:
                    new_vn, code, sink = src
                    new_vn &= MASK56
                    if i >= slice_from and n - i >= WRITE_SLICE_MIN \
                            and idxs[i + WRITE_SLICE_MIN - 1] - idx == WRITE_SLICE_MIN - 1:
                        j = _slice_end(idxs, sources, i)
                        m = j - i
                        span = range(idx, idx + m)
                        if m >= WRITE_SLICE_MIN and (pending.keys().isdisjoint(span) or all(
                                pending.get(k) is None for k in span)):
                            self._write_slice(idx, plains[i:j], new_vn,
                                              [s[1] for s in sources[i:j]], sink)
                            started += m
                            done += m
                            if sink is None:
                                wb += m
                            i = j
                            continue
                        slice_from = j
                    started += 1
                if pending.get(idx) is not None:
                    # a pending write that feeds a tag sink is sealed before
                    # its line is overwritten, so the sink still gets its tag
                    self.seal()
                if code is not None:
                    line_codes[idx] = code
                o = idx * LINE_BYTES
                plain = plains[i]
                ct[o:o + LINE_BYTES] = plain
                vns[idx] = new_vn
                if key.null:
                    # stored at once: deferring made a light criterion-4
                    # iteration 6-10% slower
                    tag = self._macs[idx] = line_tag(key, line_codes[idx], new_vn, plain)
                    if sink is not None:
                        sink.append(tag)
                else:
                    pending[idx] = sink
                if not held:
                    self._put_write_keys(li, vkey)
                if sink is None:
                    wb += 1
                done += 1
                i += 1
        finally:
            cache.end_batch()
            t["writes"] += started
            t["cycles"] += (AES_CYCLES + MAC_CYCLES + HASH_CYCLES * (depth + 1)) * done
            t["tree_wr"] += LINE_BYTES * depth * done
            t["data_wr"] += LINE_BYTES * done
            t["mac_wr"] += LINE_BYTES * done
            t["vn_wr"] += LINE_BYTES * done
            t["mac_wb"] += LINE_BYTES * wb

    def _write_slice(self, lo: int, plains: list, vn: int, codes: list, sink) -> None:
        """The stores and metadata-cache touches of `write_indexed` of the
        lines from `lo` on, under explicit VN `vn`, binding codes `codes`
        (None: the line's own) and tag sink `sink`, by slices: what its
        loop does when no line feeds a pending tag sink and the cache
        holds a write's keys, so that each VN-line's later lines make no
        puts."""
        n = len(plains)
        hi = lo + n
        if None not in codes:
            self._codes[lo:hi] = array("Q", codes)
        elif codes.count(None) < n:
            for i, code in enumerate(codes, lo):
                if code is not None:
                    self._codes[i] = code
        self._ct[lo * LINE_BYTES:hi * LINE_BYTES] = b"".join(plains)
        self._vns[lo:hi] = array("Q", (vn,)) * n
        key = self.key
        if key.null:
            # stored at once, as the loop does; the null tag does not read the line
            tags = open_lines(key, self._codes[lo:hi],
                              memoryview(self._ct)[lo * LINE_BYTES:hi * LINE_BYTES], vn,
                              decrypt=False)[0]
            self._macs[lo:hi] = array("Q", tags)
            if sink is not None:
                sink += tags
        else:
            self._pending.update(dict.fromkeys(range(lo, hi), sink))
        cache = self.cache
        for li in range(lo // VNS_PER_LINE, (hi - 1) // VNS_PER_LINE + 1):
            vkey = ("vn", li)
            if not cache.batch_holds(vkey):
                self._put_write_keys(li, vkey)

    def _put_write_keys(self, li: int, vkey) -> None:
        """The tree-path update of a write of VN-line `li`, whose cache key
        is `vkey`, and its metadata-cache puts (`MetadataCache.batch_put`):
        each dirtied node-line, cached with empty contents that the tree's
        next flush (which precedes any walk that could read it) fills in,
        then the VN-line."""
        if evicted := self.cache.batch_put(vkey, self.tree.update_path(li)):
            self._charge_drain(evicted)

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

    def read_line(self, pa: int):
        t = self.totals
        t["reads"] += 1
        t["data_rd"] += LINE_BYTES
        return self.blocks[self.line_index(pa)], None

    def write_line(self, pa: int, plain) -> None:
        t = self.totals
        t["writes"] += 1
        t["data_wr"] += LINE_BYTES
        self.blocks[self.line_index(pa)] = plain

    def write_lines(self, pas, plains) -> None:
        """`write_line` of each of `pas` in order, without the per-line call."""
        t = self.totals
        blocks = self.blocks
        for pa, plain in zip(pas, plains):
            t["writes"] += 1
            t["data_wr"] += LINE_BYTES
            blocks[self.line_index(pa)] = plain
