"""Crypto-model unit and property tests: keystream determinism and golden
vectors, XOR round-trips, MAC bit-flip detection, tag aggregation algebra,
the VN tree replay harness, and the fused and batch kernels and the
deferred-rehash tree against call-per-mix, scalar and eager reference
implementations."""

import json
import random
from array import array
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from teesim.cli import GOLDEN_VECTOR_INPUTS
from teesim.crypto import (
    LINE_BYTES, MAC_BATCH_MIN, MASK56, MASK64, NULL_KEY,
    OPEN_BATCH_MIN, SEAL_BATCH_MIN, TREE_ARITY, BindingMode,
    CipherBlock, CounterBinding, IntegrityFault, KeyMaterial, VnTree, _leaf_hash,
    _node_hash, as_line, binding_codes, decrypt_block, encrypt_block, keystream,
    keystream_lines, line_pad, line_tag, line_words, mac_block,
    mac_lines, mac_xor_aggregate, mix64, open_lines, pa_binding_codes, seal_into,
    tensor_binding_codes, words_to_bytes, words_to_ints,
)

KEY = KeyMaterial.from_seed(0x5EED)
PA = CounterBinding(BindingMode.PHYSICAL_ADDR, 0x1000)

GOLDEN = json.loads((Path(__file__).parent / "data" / "golden_vectors.json").read_text())


def test_keystream_golden_vectors_frozen():
    for v in GOLDEN:
        k = KeyMaterial.from_seed(v["seed"])
        b = CounterBinding(BindingMode(v["mode"]), v["pa_or_tensor_id"], v["offset_bytes"])
        pad = keystream(k, b, v["vn"])
        assert pad.to_bytes(LINE_BYTES, "little").hex() == v["pad_hex"]


def test_batch_keystream_golden_vectors_frozen():
    for v in GOLDEN:
        k = KeyMaterial.from_seed(v["seed"])
        b = CounterBinding(BindingMode(v["mode"]), v["pa_or_tensor_id"], v["offset_bytes"])
        pads = keystream_lines(k, binding_codes([b, b]), [v["vn"], v["vn"]])
        assert [p.hex() for p in words_to_bytes(pads)] == [v["pad_hex"]] * 2


def test_selftest_runs_the_golden_vector_inputs():
    assert list(GOLDEN_VECTOR_INPUTS) == [
        (v["seed"], v["mode"], v["pa_or_tensor_id"], v["offset_bytes"], v["vn"])
        for v in GOLDEN]


def test_keystream_deterministic():
    assert keystream(KEY, PA, 1) == keystream(KEY, PA, 1)


def test_keystream_vn_sensitivity():
    assert keystream(KEY, PA, 1) != keystream(KEY, PA, 2)


def test_keystream_binding_sensitivity():
    other = CounterBinding(BindingMode.PHYSICAL_ADDR, 0x1040)
    assert keystream(KEY, PA, 1) != keystream(KEY, other, 1)
    tl = CounterBinding(BindingMode.TENSOR_LOGICAL, 0x1000, 0)
    assert keystream(KEY, PA, 1) != keystream(KEY, tl, 1)


def test_zero_plaintext_ciphertext_equals_pad():
    blk = encrypt_block(b"\x00" * LINE_BYTES, PA, 3, KEY)
    assert blk.data == keystream(KEY, PA, 3)


def test_roundtrip_many_random_blocks():
    rng = random.Random(7)
    for _ in range(1000):
        p = rng.randbytes(LINE_BYTES)
        vn = rng.randrange(1 << 56)
        blk = encrypt_block(p, PA, vn, KEY)
        assert decrypt_block(blk, KEY) == p


@given(st.binary(min_size=LINE_BYTES, max_size=LINE_BYTES),
       st.integers(min_value=0, max_value=(1 << 56) - 2))
@settings(max_examples=60)
def test_wrong_vn_garbles_and_fails_mac(p, vn):
    blk = encrypt_block(p, PA, vn, KEY)
    tag = mac_block(blk, KEY)
    assert decrypt_block(blk, KEY, vn + 1) != p
    wrong = CipherBlock(blk.data, blk.binding, vn + 1)
    assert mac_block(wrong, KEY) != tag


def test_mac_deterministic():
    blk = encrypt_block(b"\xab" * LINE_BYTES, PA, 9, KEY)
    same = CipherBlock(blk.data, blk.binding, blk.vn)
    assert mac_block(blk, KEY) == mac_block(same, KEY)
    assert mac_block(blk, KEY) <= MASK56


def test_mac_detects_every_single_bit_flip():
    rng = random.Random(99)
    blk = encrypt_block(rng.randbytes(LINE_BYTES), PA, 4, KEY)
    tag = mac_block(blk, KEY)
    for bit in range(LINE_BYTES * 8):
        flipped = CipherBlock(blk.data ^ (1 << bit), blk.binding, blk.vn)
        assert mac_block(flipped, KEY) != tag, f"undetected flip at bit {bit}"


@given(st.integers(min_value=0, max_value=(1 << 40)),
       st.integers(min_value=1, max_value=1 << 20))
@settings(max_examples=60)
def test_mac_binding_offset_sensitivity(tid, off_lines):
    data = 0x1234567890ABCDEF
    a = CipherBlock(data, CounterBinding(BindingMode.TENSOR_LOGICAL, tid, 0), 1)
    b = CipherBlock(data, CounterBinding(BindingMode.TENSOR_LOGICAL, tid, off_lines * 64), 1)
    assert mac_block(a, KEY) != mac_block(b, KEY)


def test_xor_aggregate_single_element_identity():
    assert mac_xor_aggregate([0xABCDEF]) == 0xABCDEF


@given(st.lists(st.integers(min_value=0, max_value=MASK56), min_size=1, max_size=32),
       st.randoms(use_true_random=False))
@settings(max_examples=200)
def test_xor_aggregate_permutation_invariant(tags, rnd):
    shuffled = list(tags)
    rnd.shuffle(shuffled)
    assert mac_xor_aggregate(tags) == mac_xor_aggregate(shuffled)


def test_xor_aggregate_self_inverse_pair():
    # known algebraic property: duplicate tags cancel
    t = 0x00FEDCBA987654
    assert mac_xor_aggregate([t, t]) == 0


def test_xor_aggregate_empty_rejected():
    with pytest.raises(ValueError, match="empty tensor"):
        mac_xor_aggregate([])


# -- VN tree ----------------------------------------------------------------

def _fresh_tree(n_leaves=512):
    lines = [[0] * 8 for _ in range(n_leaves)]
    tree = VnTree(n_leaves, KEY, lines.__getitem__)
    tree.build(lines)
    return tree, lines


def test_tree_depth_512_leaves_is_3():
    tree, _ = _fresh_tree(512)
    assert tree.depth == 3


def test_tree_verify_after_update():
    tree, lines = _fresh_tree()
    lines[17][3] = 42
    tree.update_path(17)
    assert tree.verify_path(17, lines[17]) is not None


def test_tree_detects_vn_restore_replay():
    tree, lines = _fresh_tree()
    old = list(lines[5])
    lines[5][2] = 7
    tree.update_path(5)
    # adversary restores the old VN line without the path update
    with pytest.raises(IntegrityFault) as ei:
        tree.verify_path(5, old)
    assert ei.value.kind == "replay_or_tamper"


def test_tree_detects_tampered_stored_nodes():
    tree, lines = _fresh_tree()
    lines[9][0] = 1
    tree.update_path(9)
    tree.levels[1][0] ^= 0xFF  # off-chip node tamper
    with pytest.raises(IntegrityFault):
        tree.verify_path(9, lines[9])


def test_tree_cached_node_terminates_walk():
    tree, lines = _fresh_tree()
    fetched_cold = tree.verify_path(100, lines[100])
    assert len(fetched_cold) == 3  # one node-line per stored level
    cache = {(lvl, j): tree.node_line(lvl, j) for (lvl, j) in fetched_cold}
    fetched_warm = tree.verify_path(100, lines[100],
                                    lambda lvl, j: cache.get((lvl, j)))
    assert fetched_warm == []


def test_tree_update_writes_depth_node_lines():
    tree, lines = _fresh_tree()
    lines[300][1] = 5
    written = tree.update_path(300)
    assert len(written) == tree.depth


# -- reference implementations --------------------------------------------------
# The production kernels inline the splitmix64 finalizer and the tree rehashes
# lazily; these are the call-per-mix kernels and the eager per-write tree
# they must stay bit-identical to.

_GOLDEN_RATIO = 0x9E3779B97F4A7C15


def _ref_code(b: CounterBinding) -> int:
    return mix64((b.pa_or_tensor_id ^ mix64(b.offset_bytes)) ^ (int(b.mode) << 62))


def _ref_keystream(key, binding, vn):
    base = mix64((key.enc_key >> 64) ^ _ref_code(binding))
    base = mix64(base ^ (vn & MASK56))
    base = mix64(base ^ (key.enc_key & MASK64))
    pad = 0
    for i in range(8):
        pad |= mix64(base ^ (i * _GOLDEN_RATIO & MASK64)) << (64 * i)
    return pad


def _ref_mac(block, key):
    acc = mix64((key.mac_key >> 64) ^ _ref_code(block.binding))
    c = block.data
    for _ in range(8):
        acc = mix64(acc ^ (c & MASK64))
        c >>= 64
    acc = mix64(acc ^ (block.vn & MASK56))
    acc = mix64(acc ^ (key.mac_key & MASK64))
    return acc & MASK56


def _ref_leaf_hash(key, index, vns):
    acc = mix64((key.mac_key & MASK64) ^ 0x6C656166 ^ index)
    for v in vns:
        acc = mix64(acc ^ (v & MASK56))
    return acc


def _ref_node_hash(key, level, index, children):
    acc = mix64((key.mac_key >> 64) ^ (level << 32) ^ index)
    for h in children:
        acc = mix64(acc ^ h)
    return acc


class EagerVnTree:
    """The tree as it was before deferred rehashing: every update_path
    rewrites its leaf, its `depth` node-lines and the root at once."""

    def __init__(self, n_leaves, key):
        self.key = key
        self.depth = 1
        while TREE_ARITY ** self.depth < n_leaves:
            self.depth += 1
        self.n_leaves = TREE_ARITY ** self.depth
        self.levels, self.root = [], 0

    def build(self, leaf_lines):
        hashes = [_ref_leaf_hash(self.key, i, leaf_lines[i] if i < len(leaf_lines)
                                 else (0,) * TREE_ARITY)
                  for i in range(self.n_leaves)]
        self.levels = [hashes]
        level = 0
        while len(hashes) > TREE_ARITY:
            level += 1
            hashes = [_ref_node_hash(self.key, level, j // TREE_ARITY,
                                     hashes[j:j + TREE_ARITY])
                      for j in range(0, len(hashes), TREE_ARITY)]
            self.levels.append(hashes)
        self.root = _ref_node_hash(self.key, self.depth, 0, hashes)
        return self.root

    def node_line(self, level, j):
        return tuple(self.levels[level][j * TREE_ARITY:(j + 1) * TREE_ARITY])

    def verify_path(self, leaf_index, leaf_vns, cache_lookup=None):
        h = _ref_leaf_hash(self.key, leaf_index, leaf_vns)
        idx = leaf_index
        fetched = []
        for level in range(self.depth):
            j, slot = divmod(idx, TREE_ARITY)
            cached = cache_lookup(level, j) if cache_lookup is not None else None
            if cached is not None:
                if cached[slot] != h:
                    raise IntegrityFault("replay_or_tamper",
                                         f"leaf {leaf_index} vs cached node L{level}/{j}")
                return fetched
            fetched.append((level, j))
            stored = list(self.node_line(level, j))
            stored[slot] = h
            h = _ref_node_hash(self.key, level + 1, j, stored)
            idx = j
        if h != self.root:
            raise IntegrityFault("replay_or_tamper", f"leaf {leaf_index} vs root")
        return fetched

    def update_path(self, leaf_index, leaf_vns):
        h = _ref_leaf_hash(self.key, leaf_index, leaf_vns)
        idx = leaf_index
        written = {}
        for level in range(self.depth):
            j = idx // TREE_ARITY
            self.levels[level][idx] = h
            written[(level, j)] = self.node_line(level, j)
            h = _ref_node_hash(self.key, level + 1, j, written[(level, j)])
            idx = j
        self.root = h
        return written


_VN_LINE = st.tuples(*[st.integers(0, MASK64)] * TREE_ARITY)


@given(st.sampled_from([1, 8, 9, 64, 65, 513]), st.data(), st.integers(0, MASK64))
@settings(max_examples=30, deadline=None)
def test_tree_build_matches_the_eager_reference(n_leaves, data, seed):
    """The batch build of every level equals the per-node hashes, with
    random 64-bit VNs (masked to 56 bits) in a drawn number of the first
    leaves and all-zero lines in the rest."""
    key = KeyMaterial.from_seed(seed)
    lines = data.draw(st.lists(_VN_LINE, max_size=n_leaves))
    tree = VnTree(n_leaves, key, lambda li: ())
    ref = EagerVnTree(n_leaves, key)
    assert tree.build(lines) == ref.build(lines) == tree.root
    assert tree.levels == ref.levels
    assert all(type(h) is int for level in tree.levels for h in level)


def test_tree_build_under_the_null_key_hashes_nothing():
    tree = VnTree(65, NULL_KEY, lambda li: (7,) * TREE_ARITY)
    assert tree.build([(1,) * TREE_ARITY]) == 0
    assert tree.levels == [] and tree.root == 0
    assert tree.verify_path(64, (9,) * TREE_ARITY) == [(0, 8), (1, 1), (2, 0)]


_BINDINGS = st.builds(
    CounterBinding, st.sampled_from(list(BindingMode)),
    st.integers(min_value=0, max_value=(1 << 64) - 1),
    st.integers(min_value=0, max_value=1 << 40).map(lambda n: n * LINE_BYTES))


@given(_BINDINGS, st.integers(min_value=0, max_value=(1 << 600) - 1),
       st.integers(min_value=0, max_value=(1 << 64) - 1),
       st.integers(min_value=0, max_value=(1 << 64) - 1))
@settings(max_examples=200)
def test_fused_kernels_match_reference(binding, data, vn, seed):
    key = KeyMaterial.from_seed(seed)
    assert binding.code() == _ref_code(binding)
    assert keystream(key, binding, vn) == _ref_keystream(key, binding, vn)
    blk = CipherBlock(data, binding, vn)
    assert mac_block(blk, key) == _ref_mac(blk, key)
    vns = [(data >> (64 * i)) & MASK64 for i in range(8)]
    assert _leaf_hash(key, seed & 0xFFFF, vns) == _ref_leaf_hash(key, seed & 0xFFFF, vns)
    assert _node_hash(key, 2, vn & 0xFF, vns) == _ref_node_hash(key, 2, vn & 0xFF, vns)


@given(st.integers(min_value=0, max_value=(1 << 50) - 1), st.integers(1, 20))
def test_pa_binding_codes_are_the_physical_bindings_codes(line, n):
    base = line * LINE_BYTES
    assert pa_binding_codes(base, n).tolist() == [
        CounterBinding(BindingMode.PHYSICAL_ADDR, base + i * LINE_BYTES).code()
        for i in range(n)]


@given(st.integers(0, MASK64),
       st.lists(st.integers(0, (1 << 40) - 1), min_size=0, max_size=40))
@settings(max_examples=100, deadline=None)
def test_tensor_binding_codes_are_the_tensor_bindings_codes(tensor_id, lines):
    offsets = [line * LINE_BYTES for line in lines]
    assert tensor_binding_codes(tensor_id, offsets).tolist() == [
        CounterBinding(BindingMode.TENSOR_LOGICAL, tensor_id, off).code()
        for off in offsets]


def test_counter_binding_code_not_compared():
    a = CounterBinding(BindingMode.TENSOR_LOGICAL, 7, 128)
    assert a == CounterBinding(BindingMode.TENSOR_LOGICAL, 7, 128)
    assert hash(a) == hash(CounterBinding(BindingMode.TENSOR_LOGICAL, 7, 128))
    assert "_code" not in repr(a)
    assert not hasattr(a, "__dict__")


_N_TREE_LEAVES = 70          # depth 3 (512 leaf slots); ops touch 0..79
# a verify's lookup sees no cached copy, every one, or those of one level
# only, so that walks stop at each level with updates pending elsewhere
_LOOKUP_LEVELS = st.sampled_from([None, (0, 1, 2), (0,), (1,), (2,)])
_TREE_OPS = st.lists(st.one_of(
    st.tuples(st.just("update"), st.integers(0, 79), st.integers(0, 7),
              st.integers(0, MASK56)),
    st.tuples(st.just("verify"), st.integers(0, 79), _LOOKUP_LEVELS,
              st.sampled_from([0, 0, 0, 1])),
    st.tuples(st.just("node_line"), st.integers(0, 2), st.integers(0, 63)),
    st.tuples(st.just("root"),),
    st.tuples(st.just("tamper"), st.integers(0, 2), st.integers(0, 79),
              st.integers(0, 63)),
), max_size=60)


@given(_TREE_OPS)
@settings(max_examples=150, deadline=None)
def test_lazy_tree_matches_eager_reference(ops):
    lines = [[0] * TREE_ARITY for _ in range(80)]
    # verified node-line copies, as ProtectedMemory's metadata cache keeps
    # them: a write caches each node-line it dirties, the eager tree's with
    # its new contents, the lazy one's empty until its flush hook refreshes
    # it when the line is cleaned
    lazy_cache, eager_cache = {}, {}

    def refresh(recomputed):
        for k, line in recomputed.items():
            if k in lazy_cache:
                lazy_cache[k] = line

    lazy = VnTree(_N_TREE_LEAVES, KEY, lines.__getitem__, on_flush=refresh)
    eager = EagerVnTree(_N_TREE_LEAVES, KEY)
    assert lazy.build(lines) == eager.build(lines)
    for op in ops:
        if op[0] == "update":
            _, leaf, slot, vn = op
            lines[leaf][slot] = vn
            written = lazy.update_path(leaf)
            eager_written = eager.update_path(leaf, lines[leaf])
            assert written == list(eager_written)
            for k in written:
                lazy_cache[k] = ()
            eager_cache.update(eager_written)
        elif op[0] == "verify":
            _, leaf, lookup_levels, delta = op
            vns = list(lines[leaf])
            vns[0] = (vns[0] + delta) & MASK56
            outcomes = []
            for tree, cache in ((lazy, lazy_cache), (eager, eager_cache)):
                lookup = None if lookup_levels is None else (
                    lambda lvl, j, c=cache: c.get((lvl, j)) if lvl in lookup_levels else None)
                try:
                    fetched = tree.verify_path(leaf, vns, lookup)
                except IntegrityFault as e:
                    outcomes.append(("fault", str(e)))
                    continue
                outcomes.append(("ok", fetched))
                for k in fetched:
                    cache[k] = tree.node_line(*k)
            assert outcomes[0] == outcomes[1]
        elif op[0] == "node_line":
            _, level, j = op
            j %= len(eager.levels[level]) // TREE_ARITY
            assert lazy.node_line(level, j) == eager.node_line(level, j)
        elif op[0] == "root":
            assert lazy.root == eager.root
            # a full flush cleaned every line, so every copy is current
            assert lazy_cache == eager_cache
        else:
            _, level, idx, bit = op
            idx %= len(eager.levels[level])
            lazy.levels[level][idx] ^= 1 << bit
            eager.levels[level][idx] ^= 1 << bit
        # the copy of a node-line that holds no stale entry is current
        assert lazy_cache.keys() == eager_cache.keys()
        for (level, j), line in lazy_cache.items():
            if not lazy._stale[level][j]:
                assert line == eager_cache[(level, j)]
    assert lazy.levels == eager.levels
    assert lazy.root == eager.root
    assert lazy_cache == eager_cache


def test_update_path_defers_hashing_until_observed():
    tree, lines = _fresh_tree()
    root0, leaf0 = tree.root, tree.levels[0][300]
    lines[300][1] = 5
    tree.update_path(300)
    assert tree._root == root0 and tree._levels[0][300] == leaf0
    assert tree.root != root0
    assert tree.levels[0][300] == _ref_leaf_hash(KEY, 300, lines[300])


def test_tree_walk_rehashes_only_the_node_lines_it_reads():
    tree, lines = _fresh_tree()
    cache = {}
    tree.on_flush = lambda recomputed: cache.update(
        (k, v) for k, v in recomputed.items() if k in cache)
    for k in tree.verify_path(100, lines[100]):
        cache[k] = tree.node_line(*k)
    root0, leaf300 = tree._root, tree._levels[0][300]
    for leaf in (101, 102, 300):
        lines[leaf][0] = 9
        for k in tree.update_path(leaf):
            cache[k] = ()
    # the walk stops at cached node-line (0, 12): that line is cleaned, both
    # of its stale leaves, and its copy refreshed; nothing above it is
    assert tree.verify_path(101, lines[101], lambda lvl, j: cache.get((lvl, j))) == []
    assert cache[(0, 12)] == tuple(_ref_leaf_hash(KEY, i, lines[i]) for i in range(96, 104))
    assert cache[(1, 1)] == cache[(2, 0)] == ()
    assert tree._root == root0 and tree._levels[0][300] == leaf300
    assert tree._stale[1][1] and tree._stale[0][37] and tree._root_stale
    assert tree.root != root0 and tree._levels[0][300] == _ref_leaf_hash(KEY, 300, lines[300])
    assert cache[(1, 1)] == tree.node_line(1, 1) and cache[(2, 0)] == tree.node_line(2, 0)


# -- batch kernels against the scalar ones -------------------------------------

_VNS = st.one_of(st.integers(min_value=0, max_value=MASK64),
                 st.sampled_from([MASK56 - 1, MASK56, 1 << 56, (1 << 56) + 1, MASK64]))


def _assert_batch_matches_scalar(key, bindings, vns, data):
    codes = binding_codes(bindings)
    pads = keystream_lines(key, codes, vns)
    assert pads.shape == (len(bindings), 8)
    assert words_to_ints(pads) == [keystream(key, b, v) for b, v in zip(bindings, vns)]
    tags = mac_lines(key, codes, line_words(data), vns)
    ints = [d if isinstance(d, int) else int.from_bytes(d, "little") for d in data]
    assert tags.tolist() == [mac_block(CipherBlock(d, b, v), key)
                             for d, b, v in zip(ints, bindings, vns)]


@given(st.lists(st.tuples(_BINDINGS, _VNS,
                          st.integers(min_value=0, max_value=(1 << 512) - 1)),
                max_size=40),
       st.integers(min_value=0, max_value=MASK64))
@settings(max_examples=150, deadline=None)
def test_batch_kernels_match_scalar(lines, seed):
    key = KeyMaterial.from_seed(seed)
    bindings = [b for b, _, _ in lines]
    vns = [v for _, v, _ in lines]
    _assert_batch_matches_scalar(key, bindings, vns, [d for _, _, d in lines])
    # one VN for the whole batch, as a tensor stream passes it
    if lines:
        vn = vns[0]
        assert words_to_ints(keystream_lines(key, binding_codes(bindings), vn)) == \
            [keystream(key, b, vn) for b in bindings]


# 5 and 6 lines straddle the pad-batch crossover noted at teesim.crypto's cutoffs
@pytest.mark.parametrize("n", sorted({
    0, 1, 1200, *(m + d for m in (6, SEAL_BATCH_MIN, MAC_BATCH_MIN, OPEN_BATCH_MIN)
                  for d in (-1, 0))}))
def test_batch_kernels_match_scalar_by_size(n):
    rng = random.Random(n)
    key = KeyMaterial.from_seed(rng.randrange(1 << 64))
    bindings = [CounterBinding(BindingMode(i % 2), rng.randrange(1 << 40),
                               rng.randrange(1 << 20) * LINE_BYTES) for i in range(n)]
    vns = [rng.choice([rng.randrange(1 << 56), (1 << 56) + i, MASK64]) for i in range(n)]
    data = [rng.randbytes(LINE_BYTES) if i % 3 else rng.randrange(1 << 512)
            for i in range(n)]
    _assert_batch_matches_scalar(key, bindings, vns, data)
    assert words_to_bytes(line_words(data)) == \
        [d if isinstance(d, bytes) else d.to_bytes(LINE_BYTES, "little") for d in data]
    # seal_into below SEAL_BATCH_MIN, and open_lines below OPEN_BATCH_MIN
    # (MAC_BATCH_MIN without decryption), take the per-line kernels, and
    # numpy from there on; both give these results, under one VN per line
    # or one int VN for every line
    codes = array("Q", binding_codes(bindings).tobytes())
    for vn_arg in [vns, *vns[:1]]:
        per_line = vn_arg if isinstance(vn_arg, list) else [vn_arg] * n
        blocks = [encrypt_block(d, b, v, key)
                  for d, b, v in zip(data, bindings, per_line)]
        tags = [mac_block(blk, key) for blk in blocks]
        buf = bytearray(b"".join(map(as_line, data)))
        assert seal_into(key, buf, range(n), codes, vn_arg) == tags
        assert buf == b"".join(blk.to_bytes() for blk in blocks)
        plains = [decrypt_block(blk, key) for blk in blocks]
        assert open_lines(key, codes, buf, vn_arg) == (tags, plains)
        assert open_lines(key, codes, buf, vn_arg, decrypt=False) == (tags, None)


@pytest.mark.parametrize("n", [1, SEAL_BATCH_MIN - 1, SEAL_BATCH_MIN, 40])
def test_seal_into_seals_only_the_given_lines_in_place(n):
    rng = random.Random(n)
    key = KeyMaterial.from_seed(n)
    total = 2 * n + 3
    raw = rng.randbytes(total * LINE_BYTES)
    codes = [rng.randrange(1 << 64) for _ in range(total)]
    vns = [rng.randrange(1 << 56) for _ in range(total)]
    idxs = rng.sample(range(total), n)
    buf = bytearray(raw)
    tags = seal_into(key, buf, idxs, array("Q", codes), array("Q", vns))
    want = bytearray(raw)
    for i in idxs:
        o = i * LINE_BYTES
        pad = line_pad(key, codes[i], vns[i])
        want[o:o + LINE_BYTES] = (int.from_bytes(raw[o:o + LINE_BYTES], "little")
                                  ^ pad).to_bytes(LINE_BYTES, "little")
    assert buf == want
    assert tags == [line_tag(key, codes[i], vns[i], want, i * LINE_BYTES) for i in idxs]


def test_line_words_rejects_a_short_line():
    with pytest.raises(ValueError, match="64 bytes"):
        line_words([b"\x00" * 63])
