"""Functional models of the memory-protection primitives.

Counter-mode encryption (pad = keyed mix of address binding + version number,
ciphertext = plaintext XOR pad), a 56-bit keyed MAC over (ciphertext, binding,
VN), XOR aggregation of per-line MACs into a tensor-wide tag, and an 8-ary
hash tree over the version-number lines with the root held on-chip.

Everything here is a toy keyed mixer, not real cryptography: the simulator
tests protocol and architecture logic and must run fast inside property
tests. Determinism and avalanche behavior are what matter.

Light mode (`crypto.functional: false`) is the null cipher, selected by the
key `NULL_KEY`: every pad is zero, so ciphertext is the plaintext; every tag
is `mix64(binding code ^ vn)`, which does not depend on the data; and a
`VnTree` under it records and hashes nothing. Every caller runs the same
protocol and the same checks under either key. Under the null key those
checks pass on honest runs and cannot see a tamper.

Cachelines are 64 bytes. The per-line kernels `line_pad` and `line_tag` take
a binding code and a VN; a pad is a 512-bit int, so that XOR en/decryption is
a single big-int op, and a tag reads its ciphertext from any 64-byte buffer.
`keystream`, `mac_block` and `CipherBlock` (ciphertext as a 512-bit int) wrap
them for the channel messages and the NPU code lines. Paths that seal or
open many lines at once (`seal_into`, `open_lines`) use the numpy batch
kernels `keystream_lines` and `mac_lines`, which compute the same pad and
tag of each line over an (n, 8) array of 64-bit words.
"""

from __future__ import annotations

import struct
from array import array
from dataclasses import dataclass, field
from enum import IntEnum
from typing import Callable, ClassVar, Iterable, Optional, Sequence

import numpy as np

LINE_BYTES = 64
LINE_BITS = LINE_BYTES * 8
MASK56 = (1 << 56) - 1
MASK64 = (1 << 64) - 1
_MASK512 = (1 << LINE_BITS) - 1
TREE_ARITY = 8

_GOLDEN = 0x9E3779B97F4A7C15
_M1 = 0xBF58476D1CE4E5B9
_M2 = 0x94D049BB133111EB
_LANES = tuple(i * _GOLDEN & MASK64 for i in range(8))
_WORDS8 = struct.Struct("<8Q")   # a 64 B line as eight little-endian words
# Below these line counts the per-line kernels beat the numpy batch, whose
# ufunc dispatches cost the same whatever its size (about 30 for a pad batch,
# 60 for tags). Crossovers measured with numpy 2.4 on a 2-core x86 host: pad
# batches (`keystream_lines`, then one int per line) 5-6 lines; tags (`mac_lines`)
# 11-14; both, as in a seal, 7-8; both, as in a decrypting open, 8-9 (the
# per-line open of one line takes about 17 us, the batch about 120 us at
# any size up to 13 lines).
MAC_BATCH_MIN = 14
SEAL_BATCH_MIN = 8
OPEN_BATCH_MIN = 9


class BindingMode(IntEnum):
    PHYSICAL_ADDR = 0
    TENSOR_LOGICAL = 1


class IntegrityFault(Exception):
    """Raised when a MAC or tree check fails. `kind` is one of
    'mac_mismatch', 'replay_or_tamper', 'tensor_mac', 'channel_tamper',
    'code_tamper', 'staging_tamper'."""

    def __init__(self, kind: str, detail: str = ""):
        self.kind = kind
        self.detail = detail
        super().__init__(f"{kind}: {detail}" if detail else kind)


def mix64(x: int) -> int:
    """splitmix64 finalizer: cheap keyed avalanche over 64 bits."""
    x = (x + _GOLDEN) & MASK64
    x = ((x ^ (x >> 30)) * _M1) & MASK64
    x = ((x ^ (x >> 27)) * _M2) & MASK64
    return x ^ (x >> 31)


def binding_code(mode: int, pa_or_tensor_id: int, offset_bytes: int = 0) -> int:
    """The injective 64-bit code of a counter binding (`CounterBinding`),
    which keystream and MAC folding take in its place."""
    return mix64((pa_or_tensor_id ^ mix64(offset_bytes)) ^ (int(mode) << 62))


@dataclass(frozen=True, slots=True)
class CounterBinding:
    """Address half of the encryption counter.

    PHYSICAL_ADDR binds ciphertext to a physical cacheline address.
    TENSOR_LOGICAL binds to (tensor id, byte offset inside the tensor) so the
    same ciphertext decrypts after a device-to-device move. Offsets are
    64-byte aligned.
    """

    mode: BindingMode
    pa_or_tensor_id: int
    offset_bytes: int = 0
    _code: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.mode == BindingMode.TENSOR_LOGICAL and self.offset_bytes % LINE_BYTES:
            raise ValueError("tensor-logical offset must be 64-byte aligned")
        # a binding is immutable, so its code is computed once
        object.__setattr__(self, "_code", binding_code(
            self.mode, self.pa_or_tensor_id, self.offset_bytes))

    def code(self) -> int:
        return self._code


@dataclass(frozen=True)
class KeyMaterial:
    """Session/enclave keys. 128-bit values kept as ints; `seed` ties a key
    set to a reproducible run."""

    enc_key: int
    mac_key: int
    seed: int
    null: ClassVar[bool] = False

    @classmethod
    def from_seed(cls, seed: int) -> "KeyMaterial":
        s = seed & MASK64
        e0 = mix64(s ^ 0x656E63)       # distinct derivation lanes
        e1 = mix64(e0 ^ s)
        m0 = mix64(s ^ 0x6D6163)
        m1 = mix64(m0 ^ s)
        return cls(enc_key=(e0 << 64) | e1, mac_key=(m0 << 64) | m1, seed=s)


class NullKey(KeyMaterial):
    """The null cipher's key: a zero pad, data-independent tags."""

    null = True


NULL_KEY = NullKey(0, 0, 0)


@dataclass
class CipherBlock:
    """One encrypted 64-byte line plus the counter it was sealed under."""

    data: int  # 512-bit ciphertext
    binding: CounterBinding
    vn: int

    def to_bytes(self) -> bytes:
        return self.data.to_bytes(LINE_BYTES, "little")


def line_pad(key: KeyMaterial, code: int, vn: int) -> int:
    """64-byte pad as a 512-bit int, a pure function of (key, binding code,
    vn): base = mix(mix(mix(k0 ^ code) ^ vn) ^ k1), and word i of the pad is
    mix(base ^ i * golden).

    Here and in the other per-line kernels below, the splitmix64 finalizer
    (`mix64`) is written out inline, because a Python call per mix would
    cost more than the mix itself."""
    if key.null:
        return 0
    ek = key.enc_key
    x = (ek >> 64) ^ code
    for v in (vn & MASK56, ek & MASK64):
        x = (x + _GOLDEN) & MASK64
        x = ((x ^ (x >> 30)) * _M1) & MASK64
        x = ((x ^ (x >> 27)) * _M2) & MASK64
        x ^= (x >> 31) ^ v
    x = (x + _GOLDEN) & MASK64
    x = ((x ^ (x >> 30)) * _M1) & MASK64
    x = ((x ^ (x >> 27)) * _M2) & MASK64
    base = x ^ (x >> 31)
    words = []
    for lane in _LANES:
        x = ((base ^ lane) + _GOLDEN) & MASK64
        x = ((x ^ (x >> 30)) * _M1) & MASK64
        x = ((x ^ (x >> 27)) * _M2) & MASK64
        words.append(x ^ (x >> 31))
    return int.from_bytes(_WORDS8.pack(*words), "little")


def line_tag(key: KeyMaterial, code: int, vn: int, buf, offset: int = 0) -> int:
    """56-bit tag over (ciphertext, binding code, vn), the ciphertext being
    the 64 bytes of `buf` at `offset`: acc = mix(k0 ^ code), then
    acc = mix(acc ^ v) for v in the eight ciphertext words, the vn and k1.
    Under the null key: mix(code ^ vn), the one stub tag."""
    if key.null:
        x = ((code ^ (vn & MASK56)) + _GOLDEN) & MASK64
        x = ((x ^ (x >> 30)) * _M1) & MASK64
        x = ((x ^ (x >> 27)) * _M2) & MASK64
        return (x ^ (x >> 31)) & MASK56
    mk = key.mac_key
    x = (mk >> 64) ^ code
    for v in (*_WORDS8.unpack_from(buf, offset), vn & MASK56, mk & MASK64):
        x = (x + _GOLDEN) & MASK64
        x = ((x ^ (x >> 30)) * _M1) & MASK64
        x = ((x ^ (x >> 27)) * _M2) & MASK64
        x ^= (x >> 31) ^ v
    x = (x + _GOLDEN) & MASK64
    x = ((x ^ (x >> 30)) * _M1) & MASK64
    x = ((x ^ (x >> 27)) * _M2) & MASK64
    return (x ^ (x >> 31)) & MASK56


def keystream(key: KeyMaterial, binding: CounterBinding, vn: int) -> int:
    """`line_pad` under the binding's code."""
    return line_pad(key, binding._code, vn)


def encrypt_block(plain: bytes | int, binding: CounterBinding, vn: int,
                  key: KeyMaterial) -> CipherBlock:
    p = int.from_bytes(plain, "little") if isinstance(plain, bytes) else plain
    return CipherBlock(data=p ^ keystream(key, binding, vn), binding=binding, vn=vn)


def decrypt_block(block: CipherBlock, key: KeyMaterial,
                  vn: Optional[int] = None) -> bytes:
    """XOR involution. Decrypting under the wrong vn/binding yields garbage;
    integrity is the MAC's job, so no error here."""
    use_vn = block.vn if vn is None else vn
    p = block.data ^ keystream(key, block.binding, use_vn)
    return p.to_bytes(LINE_BYTES, "little")


def mac_block(block: CipherBlock, key: KeyMaterial) -> int:
    """`line_tag` of the block's ciphertext under its binding and VN."""
    return line_tag(key, block.binding._code, block.vn,
                    (block.data & _MASK512).to_bytes(LINE_BYTES, "little"))


# -- batch kernels ---------------------------------------------------------------

_U64 = np.dtype("<u8")
_GOLDEN_U, _M1_U, _M2_U = np.uint64(_GOLDEN), np.uint64(_M1), np.uint64(_M2)
_S27, _S30, _S31 = np.uint64(27), np.uint64(30), np.uint64(31)
_LANES_U = np.array(_LANES, dtype=np.uint64)


def _mix_lines(x: np.ndarray) -> np.ndarray:
    """splitmix64 finalizer over a uint64 array, in place (wraps mod 2^64
    exactly like the masked int arithmetic of `mix64`)."""
    x += _GOLDEN_U
    x ^= x >> _S30
    x *= _M1_U
    x ^= x >> _S27
    x *= _M2_U
    x ^= x >> _S31
    return x


def _u64s(values, mask: int):
    """An int (kept scalar, to broadcast) or a sequence of ints as uint64,
    each masked to `mask`."""
    if isinstance(values, int):
        return np.uint64(values & mask)
    if isinstance(values, np.ndarray):
        return values.astype(np.uint64) & np.uint64(mask)
    return np.fromiter((v & mask for v in values), dtype=np.uint64)


def binding_codes(bindings: Iterable[CounterBinding]) -> np.ndarray:
    """The 64-bit codes of `bindings` as a uint64 array."""
    return np.fromiter((b._code for b in bindings), dtype=np.uint64)


def pa_binding_codes(base_pa: int, n: int) -> np.ndarray:
    """The codes of the physical-address bindings of the n lines from
    `base_pa` on, as `CounterBinding.__post_init__` computes them."""
    pas = np.arange(n, dtype=np.uint64) * np.uint64(LINE_BYTES) + np.uint64(base_pa)
    return _mix_lines(pas ^ np.uint64(mix64(0)))


def tensor_binding_codes(tensor_id: int, offsets) -> np.ndarray:
    """The codes of the tensor-logical bindings of tensor `tensor_id` at the
    byte `offsets`, as `CounterBinding.__post_init__` computes them."""
    offs = _mix_lines(np.array(offsets, dtype=np.uint64))
    return _mix_lines(offs ^ np.uint64(
        (tensor_id ^ (int(BindingMode.TENSOR_LOGICAL) << 62)) & MASK64))


def tensor_line_codes(tensor_id: int, n: int) -> array:
    """`tensor_binding_codes` of lines 0 to n - 1 of tensor `tensor_id`, as
    an array('Q')."""
    return array("Q", tensor_binding_codes(
        tensor_id, np.arange(n, dtype=np.uint64) * np.uint64(LINE_BYTES)).tobytes())


def keystream_lines(key: KeyMaterial, codes, vns) -> np.ndarray:
    """(n, 8) uint64 pad words for n lines with the given binding codes and VNs
    (one int VN applies to every line); row i equals
    `keystream(key, binding_i, vn_i)` as eight little-endian words."""
    if key.null:
        return np.zeros((np.broadcast(codes, vns).size, 8), dtype=np.uint64)
    ek = key.enc_key
    x = np.uint64(ek >> 64) ^ _u64s(codes, MASK64)
    x = _mix_lines(x)
    x ^= _u64s(vns, MASK56)
    x = _mix_lines(x)
    x ^= np.uint64(ek & MASK64)
    base = _mix_lines(x)
    return _mix_lines(base[:, None] ^ _LANES_U)


def mac_lines(key: KeyMaterial, codes, words: np.ndarray, vns) -> np.ndarray:
    """(n,) 56-bit tags of n ciphertext lines given as (n, 8) uint64 words;
    tag i equals `mac_block` of line i under binding code i and VN i."""
    if key.null:
        x = np.zeros(len(words), dtype=np.uint64)
        x ^= _u64s(codes, MASK64)
        x ^= _u64s(vns, MASK56)
        return _mix_lines(x) & np.uint64(MASK56)
    mk = key.mac_key
    x = np.uint64(mk >> 64) ^ _u64s(codes, MASK64)
    for i in range(8):
        x = _mix_lines(x)
        x ^= words[:, i]
    x = _mix_lines(x)
    x ^= _u64s(vns, MASK56)
    x = _mix_lines(x)
    x ^= np.uint64(mk & MASK64)
    return _mix_lines(x) & np.uint64(MASK56)


def as_line(plain) -> bytes:
    """A plaintext line, given as 64 bytes or as an int, as bytes. Raises
    ValueError for bytes of another length and OverflowError for an int
    that does not fit in 64 bytes."""
    if isinstance(plain, int):
        return plain.to_bytes(LINE_BYTES, "little")
    if len(plain) != LINE_BYTES:
        raise ValueError(f"a line is {LINE_BYTES} bytes, got {len(plain)}")
    return plain


def line_words(lines: Iterable) -> np.ndarray:
    """(n, 8) uint64 words of n 64 B lines, each given as `as_line` takes it."""
    raw = b"".join(map(as_line, lines))
    return np.frombuffer(raw, dtype=_U64).reshape(-1, 8).astype(np.uint64, copy=False)


def words_to_bytes(words: np.ndarray) -> list[bytes]:
    raw = words.astype(_U64, copy=False).tobytes()
    return [raw[i:i + LINE_BYTES] for i in range(0, len(raw), LINE_BYTES)]


def words_to_ints(words: np.ndarray) -> list[int]:
    return [int.from_bytes(b, "little") for b in words_to_bytes(words)]


def seal_into(key: KeyMaterial, buf: bytearray, idxs: Sequence[int],
              codes: Sequence[int], vns) -> list[int]:
    """Encrypt in place the plaintext lines `idxs` of `buf` (line i being
    its bytes i * 64 to i * 64 + 64), line i under binding code `codes[i]`
    and VN `vns[i]` (one int VN applies to every line), and return their
    tags, in the order of `idxs`: what `line_pad` then `line_tag` give line
    by line. Fewer than `SEAL_BATCH_MIN` lines go through those per-line
    kernels, the rest through one batch."""
    n = len(idxs)
    one_vn = isinstance(vns, int)
    if n < SEAL_BATCH_MIN:
        tags = []
        for i in idxs:
            c, v, o = codes[i], vns if one_vn else vns[i], i * LINE_BYTES
            p = int.from_bytes(buf[o:o + LINE_BYTES], "little") ^ line_pad(key, c, v)
            buf[o:o + LINE_BYTES] = p.to_bytes(LINE_BYTES, "little")
            tags.append(line_tag(key, c, v, buf, o))
        return tags
    at = np.fromiter(idxs, dtype=np.intp, count=n)
    codes = np.asarray(codes, dtype=np.uint64)[at]
    if not one_vn:
        vns = np.asarray(vns, dtype=np.uint64)[at]
    words = np.frombuffer(buf, dtype=_U64).reshape(-1, 8)
    ct = words[at] ^ keystream_lines(key, codes, vns)
    words[at] = ct
    return mac_lines(key, codes, ct, vns).tolist()


def open_lines(key: KeyMaterial, codes: Sequence[int], cts, vns, *,
               decrypt: bool = True) -> tuple[list[int], Optional[list[bytes]]]:
    """Tags and (if `decrypt`) plaintexts of n sealed lines, given by their
    binding codes and their ciphertexts, the n * 64 bytes of `cts`, under
    `vns` (one int VN applies to every line, a sequence gives one per line):
    what `line_tag` and `line_pad` give line by line. Fewer than
    `OPEN_BATCH_MIN` lines with decryption, or `MAC_BATCH_MIN` without, go
    through those per-line kernels, the rest through one batch."""
    n = len(codes)
    if n < (OPEN_BATCH_MIN if decrypt else MAC_BATCH_MIN):
        if isinstance(vns, int):
            vns = [vns] * n
        tags, plains = [], []
        for o, c, v in zip(range(0, n * LINE_BYTES, LINE_BYTES), codes, vns):
            tags.append(line_tag(key, c, v, cts, o))
            if decrypt:
                p = int.from_bytes(cts[o:o + LINE_BYTES], "little") ^ line_pad(key, c, v)
                plains.append(p.to_bytes(LINE_BYTES, "little"))
        return tags, plains if decrypt else None
    codes = np.asarray(codes, dtype=np.uint64)
    ct = np.frombuffer(cts, dtype=_U64).reshape(n, 8)
    tags = mac_lines(key, codes, ct, vns).tolist()
    if not decrypt:
        return tags, None
    words = keystream_lines(key, codes, vns)
    words ^= ct
    return tags, words_to_bytes(words)


def mac_xor_aggregate(tags: Iterable[int]) -> int:
    """Order-independent XOR fold of per-line tags into one tensor tag."""
    acc = None
    for t in tags:
        acc = t if acc is None else acc ^ t
    if acc is None:
        raise ValueError("empty tensor")
    return acc


def _leaf_hash(key: KeyMaterial, index: int, vns: Sequence[int]) -> int:
    x = (key.mac_key & MASK64) ^ 0x6C656166 ^ index
    for v in vns:
        x = (x + _GOLDEN) & MASK64
        x = ((x ^ (x >> 30)) * _M1) & MASK64
        x = ((x ^ (x >> 27)) * _M2) & MASK64
        x ^= (x >> 31) ^ (v & MASK56)
    x = (x + _GOLDEN) & MASK64
    x = ((x ^ (x >> 30)) * _M1) & MASK64
    x = ((x ^ (x >> 27)) * _M2) & MASK64
    return x ^ (x >> 31)


def _node_hash(key: KeyMaterial, level: int, index: int, children: Sequence[int]) -> int:
    x = (key.mac_key >> 64) ^ (level << 32) ^ index
    for h in children:
        x = (x + _GOLDEN) & MASK64
        x = ((x ^ (x >> 30)) * _M1) & MASK64
        x = ((x ^ (x >> 27)) * _M2) & MASK64
        x ^= (x >> 31) ^ h
    x = (x + _GOLDEN) & MASK64
    x = ((x ^ (x >> 30)) * _M1) & MASK64
    x = ((x ^ (x >> 27)) * _M2) & MASK64
    return x ^ (x >> 31)


# the set slots of each 8-bit mask of stale entries, lowest first
_SLOTS = tuple(tuple(s for s in range(TREE_ARITY) if m >> s & 1) for m in range(256))


class VnTree:
    """8-ary hash tree protecting version-number lines.

    Leaf i is one 64 B VN-line holding 8 packed VNs. Stored hash levels live
    off-chip in `levels` (an adversary may mutate them); only `root` is
    on-chip. Entry i of level 0 is leaf i's hash; entry i of level l > 0 is
    the hash of node-line (l - 1, i), entries 8i to 8i + 7 of level l - 1;
    the root is the hash of the top node-line. A verification walk fetches
    one 64 B node-line (8 sibling hashes) per stored level, or stops early
    at a node-line the caller has already verified and cached.

    Rehashing is lazy, one node-line at a time. A walk verifies only up to
    the first cached ancestor, as in Bonsai Merkle Trees (Rogers et al.,
    MICRO 2007) and SGX's MEE (Gueron, 2016), so only the node-lines it
    reads need to be current. `update_path` marks the leaf's entry stale,
    and each ancestor entry up to the first one already marked, and returns
    the node-lines the write dirties, so per-write byte and cycle accounting
    is unchanged. Cleaning node-line (l, j) recomputes only its stale
    entries: a leaf from the VN-line `read_leaf` gives then, a node entry
    from the node-line below it, cleaned first. Every recomputed node-line
    goes to `on_flush` as {(level, line): contents}, so that its verified
    cached copy is refreshed. A walk cleans each node-line it visits before
    it compares against the line's cached copy or hashes its stored entries,
    and recomputes the root only when it reaches it. `node_line` cleans its
    own line; `levels`, `root` and `flush()` clean everything.

    Invariants: a stale entry's parent entry is stale, and so is the root.
    A node-line's contents change only when it is cleaned, which reports
    them, so a cached copy is current once its line is clean. And a stale
    leaf's VN-line changes only by writes that mark it, so whoever changes
    VNs otherwise (an adversary) flushes first. So each walk fetches the
    node-lines, and reaches the outcome, that eager per-write rehashing
    would give, and a reader, or an adversary tampering with `levels` or
    the VNs, sees exactly the tree that it would have left.

    Under the null key the tree holds no hashes: a walk and an update return
    the same node-lines, a walk stops at the same cached node-line, and
    nothing faults.
    """

    def __init__(self, n_leaves: int, key: KeyMaterial,
                 read_leaf: Callable[[int], Sequence[int]],
                 on_flush: Optional[Callable[[dict], None]] = None):
        if n_leaves < 1:
            raise ValueError("tree needs at least one leaf")
        self.key = key
        depth = 1
        while TREE_ARITY ** depth < n_leaves:
            depth += 1
        self.depth = depth
        self.n_leaves = TREE_ARITY ** depth
        # (level, leaves per node-line at that level), leaf level first
        self._divisors = [(level, TREE_ARITY ** (level + 1)) for level in range(depth)]
        self.read_leaf = read_leaf
        self.on_flush = on_flush
        self._levels: list[list[int]] = []
        self._root: int = 0
        # per level, one mask of its stale entries per node-line, and
        # whether the root is stale, which it is whenever any entry is
        self._stale = [bytearray(self.n_leaves // d) for _, d in self._divisors]
        self._root_stale = False

    @property
    def levels(self) -> list[list[int]]:
        self.flush()
        return self._levels

    @property
    def root(self) -> int:
        self.flush()
        return self._root

    def build(self, leaf_lines: Sequence[Sequence[int]]) -> int:
        """Hash every level from the given VN-lines, clearing every stale
        mark; returns (and stores) the on-chip root. Missing leaves hash
        as all-zero lines."""
        self._stale = [bytearray(len(stale)) for stale in self._stale]
        self._root_stale = False
        if self.key.null:
            return 0
        mk = self.key.mac_key
        lines = np.zeros((self.n_leaves, TREE_ARITY), dtype=np.uint64)
        if len(leaf_lines):
            lines[:len(leaf_lines)] = np.array(leaf_lines, dtype=np.uint64) & np.uint64(MASK56)
        # `_leaf_hash` of every leaf, then `_node_hash` of every node-line of
        # each level below the root, a level at a time
        x = np.arange(self.n_leaves, dtype=np.uint64) ^ np.uint64((mk & MASK64) ^ 0x6C656166)
        self._levels = []
        level = 0
        while True:
            for c in range(TREE_ARITY):
                x = _mix_lines(x)
                x ^= lines[:, c]
            hashes = _mix_lines(x)
            self._levels.append(hashes.tolist())
            if len(hashes) <= TREE_ARITY:
                break
            level += 1
            lines = hashes.reshape(-1, TREE_ARITY)
            x = np.arange(len(lines), dtype=np.uint64) ^ np.uint64((mk >> 64) ^ (level << 32))
        self._root = _node_hash(self.key, self.depth, 0, self._levels[-1])
        return self._root

    def node_line(self, level: int, line_idx: int) -> tuple[int, ...]:
        """Node-line (level, line_idx), cleaned first."""
        if self.key.null:
            return ()
        if self._stale[level][line_idx]:
            self._clean_line(level, line_idx)
        lo = line_idx * TREE_ARITY
        return tuple(self._levels[level][lo:lo + TREE_ARITY])

    def verify_path(self, leaf_index: int, leaf_vns: Sequence[int],
                    cache_lookup=None) -> list[tuple[int, int]]:
        """Walk leaf->root, comparing against the on-chip root or the first
        cached verified node-line, each node-line cleaned before the walk
        reads its cached copy or its stored entries. Returns the (level,
        line) node-lines that had to be fetched from off-chip storage;
        raises IntegrityFault on any mismatch (replayed or tampered VN
        state)."""
        null = self.key.null
        # under the null key h stays 0, the root's value, and nothing is stale
        h = 0 if null else _leaf_hash(self.key, leaf_index, leaf_vns)
        idx = leaf_index
        fetched: list[tuple[int, int]] = []
        for level, stale in enumerate(self._stale):
            j, slot = divmod(idx, TREE_ARITY)
            if stale[j]:
                self._clean_line(level, j)
            cached = cache_lookup(level, j) if cache_lookup is not None else None
            if cached is not None:
                if not null and cached[slot] != h:
                    raise IntegrityFault("replay_or_tamper",
                                         f"leaf {leaf_index} vs cached node L{level}/{j}")
                return fetched
            fetched.append((level, j))
            if not null:
                lo = j * TREE_ARITY
                stored = self._levels[level][lo:lo + TREE_ARITY]
                stored[slot] = h
                h = _node_hash(self.key, level + 1, j, stored)
            idx = j
        self.flush()
        if h != self._root:
            raise IntegrityFault("replay_or_tamper", f"leaf {leaf_index} vs root")
        return fetched

    def update_path(self, leaf_index: int) -> list[tuple[int, int]]:
        """Record a change of leaf `leaf_index`'s VN-line: mark its entry
        stale, and each ancestor entry up to the first one already marked.
        Returns the (level, line) keys of the `depth` node-lines the write
        dirties, leaf level first; their new contents are computed when
        each is cleaned, from the VN-line `read_leaf` gives then."""
        if not self.key.null:
            idx = leaf_index
            for stale in self._stale:
                j, slot = divmod(idx, TREE_ARITY)
                bit = 1 << slot
                if stale[j] & bit:
                    break
                stale[j] |= bit
                idx = j
            else:
                self._root_stale = True
        return [(level, leaf_index // d) for level, d in self._divisors]

    def flush(self) -> None:
        """Clean every stale entry and the root, reporting the recomputed
        node-lines to `on_flush`."""
        if not self._root_stale:
            return
        top = self.depth - 1
        if self._stale[top][0]:
            self._clean_line(top, 0)
        self._root = _node_hash(self.key, self.depth, 0, self._levels[top])
        self._root_stale = False

    def _clean_line(self, level: int, j: int) -> None:
        """Clean node-line (level, j) and report the recomputed node-lines
        to `on_flush`."""
        recomputed: dict[tuple[int, int], tuple[int, ...]] = {}
        self._clean(level, j, recomputed)
        if self.on_flush is not None:
            self.on_flush(recomputed)

    def _clean(self, level: int, j: int, recomputed: dict) -> None:
        """Recompute the stale entries of node-line (level, j), cleaning
        the node-line below each node entry first, and record each
        recomputed node-line's contents in `recomputed`."""
        stale = self._stale[level]
        slots = _SLOTS[stale[j]]
        stale[j] = 0
        key = self.key
        cur = self._levels[level]
        lo = j * TREE_ARITY
        if level == 0:
            read_leaf = self.read_leaf
            for s in slots:
                cur[lo + s] = _leaf_hash(key, lo + s, read_leaf(lo + s))
        else:
            below, below_stale = self._levels[level - 1], self._stale[level - 1]
            for s in slots:
                i = lo + s
                if below_stale[i]:
                    self._clean(level - 1, i, recomputed)
                b = i * TREE_ARITY
                cur[i] = _node_hash(key, level, i, below[b:b + TREE_ARITY])
        recomputed[(level, j)] = tuple(cur[lo:lo + TREE_ARITY])
