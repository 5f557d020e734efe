"""Behaviour lock: the simulated outputs of a fixed set of small runs must
match the committed snapshots in tests/data/golden_metrics/ exactly.

A change that only makes the simulator faster or smaller keeps these
byte-identical. A change that means to alter the model regenerates them and
says why:

    PYTHONPATH=src python tests/test_golden_metrics.py --write
"""

import hashlib
import json
import sys
from pathlib import Path

from teesim.baseline import ProtectedMemory
from teesim.config import SimConfig
from teesim.crypto import KeyMaterial
from teesim.tenanalyzer import TenAnalyzer
from teesim.workloads import ZeroOffloadRunner, gen_fuzz_trace

GOLDEN_DIR = Path(__file__).parent / "data" / "golden_metrics"
SEED = 0x601D
FUZZ_OPS = 2000
FUZZ_LINES = 1024
FUZZ_BASE = 0x3000_0000

RUNS = [("zero_offload", "nonsecure"), ("zero_offload", "sgx_mgx"),
        ("zero_offload", "tensortee"), ("fuzz", "sgx_mgx"), ("fuzz", "tensortee")]


def _config(mode: str) -> SimConfig:
    cfg = SimConfig(mode=mode)
    cfg.crypto.seed = SEED
    cfg.crypto.functional = True
    # a metadata cache smaller than the working set, so that evictions and
    # write-back drains are part of the lock
    cfg.cpu.metadata_cache_bytes = 8 * 1024
    wl = cfg.workload
    wl.zero_tensors, wl.zero_tensor_bytes = 2, 16 * 1024
    wl.threads, wl.iterations = 4, 2
    return cfg


def _sha256(chunks) -> str:
    h = hashlib.sha256()
    for c in chunks:
        h.update(c)
    return h.hexdigest()


def zero_offload_snapshot(mode: str) -> dict:
    runner = ZeroOffloadRunner(_config(mode), mode)
    rep = runner.run()
    return {
        "total_ticks": rep.total_ticks,
        "phases": rep.phases,
        "cpu_totals": rep.cpu_totals,
        "analyzer_stats": rep.analyzer_stats,
        "resources": {name: [r.busy_ticks, r.wait_ticks]
                      for name, r in sorted(runner.engine.resources.items())},
        "transfer_rows": [t.csv_row() for t in rep.transfers],
        "npu_rows": rep.npu_rows,
        "weights_sha256": _sha256(w.tobytes() for w in rep.weights),
    }


def fuzz_snapshot(mode: str) -> dict:
    """Replay a fuzz trace; write data is unique per record, every read's
    plaintext goes into the digest."""
    records = gen_fuzz_trace(FUZZ_OPS, FUZZ_LINES, SEED, base=FUZZ_BASE)
    cfg = _config(mode)
    mem = ProtectedMemory(FUZZ_BASE, FUZZ_LINES, KeyMaterial.from_seed(SEED),
                          metadata_cache_bytes=cfg.cpu.metadata_cache_bytes)
    ta = TenAnalyzer(mem) if mode == "tensortee" else None
    read = ta.on_read if ta else mem.read_line
    write = ta.on_write if ta else mem.write_line
    reads = []
    for i, r in enumerate(records):
        if r.kind == "R":
            reads.append(read(r.va)[0])
        elif r.kind == "W":
            write(r.va, (i.to_bytes(4, "little") + r.va.to_bytes(4, "little")) * 8)
    return {
        "cpu_totals": dict(mem.totals),
        "cache": [mem.cache.hits, mem.cache.misses],
        "analyzer_stats": dict(ta.stats) if ta else None,
        "reads_sha256": _sha256(reads),
    }


def snapshot(workload: str, mode: str) -> dict:
    fn = zero_offload_snapshot if workload == "zero_offload" else fuzz_snapshot
    return fn(mode)


def test_golden_metrics_unchanged():
    diffs = {}
    for workload, mode in RUNS:
        expected = json.loads((GOLDEN_DIR / f"{workload}_{mode}.json").read_text())
        # round-trip through JSON so tuples and lists compare alike
        got = json.loads(json.dumps(snapshot(workload, mode)))
        changed = sorted(k for k in expected.keys() | got.keys()
                         if expected.get(k) != got.get(k))
        if changed:
            diffs[f"{workload}_{mode}"] = changed
    assert not diffs, f"simulated outputs moved: {diffs}"


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: test_golden_metrics.py --write")
    GOLDEN_DIR.mkdir(parents=True, exist_ok=True)
    for workload, mode in RUNS:
        out = GOLDEN_DIR / f"{workload}_{mode}.json"
        out.write_text(json.dumps(snapshot(workload, mode), indent=1,
                                  sort_keys=True) + "\n")
        print(f"wrote {out}")
