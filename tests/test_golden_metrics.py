"""Behaviour lock: the simulated outputs of a fixed set of small runs must
match the committed snapshots in tests/data/golden_metrics/ exactly.

A change that only makes the simulator faster or smaller keeps these
byte-identical. A change that means to alter the model regenerates them and
says why:

    PYTHONPATH=src python tests/test_golden_metrics.py --write
"""

import dataclasses
import hashlib
import json
import os
import random
import sys
import tempfile
from pathlib import Path
from unittest import mock

import pytest
from teesim.baseline import ProtectedMemory
from teesim.cli import main, run_npu_stream
from teesim.config import SEED_ENV_VAR, SimConfig, build_engine
from teesim.crypto import LINE_BYTES, KeyMaterial
from teesim.nputee import NpuDevice
from teesim.tenanalyzer import TenAnalyzer
from teesim.transfer import (
    Enclave, attest_and_exchange, baseline_transfer, direct_transfer,
)
from teesim.workloads import ZeroOffloadRunner, gen_fuzz_trace

GOLDEN_DIR = Path(__file__).parent / "data" / "golden_metrics"
SEED = 0x601D
FUZZ_OPS = 2000
FUZZ_LINES = 1024
FUZZ_BASE = 0x3000_0000

NPU_LINES = 96
XFER_LINES = 80
CPU_BASE = 0x1000_0000

RUNS = [("zero_offload", "nonsecure"), ("zero_offload", "sgx_mgx"),
        ("zero_offload", "tensortee"), ("fuzz", "sgx_mgx"), ("fuzz", "tensortee"),
        ("npu_stream", "512"), ("npu_stream", "4096"),
        ("transfer", "relay"), ("transfer", "direct"),
        ("adam", "nonsecure"), ("adam", "sgx_mgx"), ("adam", "tensortee"),
        ("gemm", "nonsecure"), ("gemm", "sgx_mgx"), ("gemm", "tensortee")]


# fields that hold tag or ciphertext values, the only outputs that light mode
# (`crypto.functional: false`) may change; "sent" holds (VN, tensor MAC)
CIPHER_FIELDS = ("ciphertext_sha256", "stored_mac")


def _config(mode: str, functional: bool = True) -> SimConfig:
    cfg = SimConfig(mode=mode)
    cfg.crypto.seed = SEED
    cfg.crypto.functional = functional
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


def _lines(n: int, seed: int) -> list:
    rng = random.Random(seed)
    return [rng.randbytes(LINE_BYTES) for _ in range(n)]


def _resources(engine) -> dict:
    return {name: [r.busy_ticks, r.wait_ticks]
            for name, r in sorted(engine.resources.items())}


def zero_offload_snapshot(mode: str, functional: bool = True) -> dict:
    runner = ZeroOffloadRunner(_config(mode, functional), mode)
    rep = runner.run()
    return {
        "total_ticks": rep.total_ticks,
        "phases": rep.phases,
        "cpu_totals": rep.cpu_totals,
        "analyzer_stats": rep.analyzer_stats,
        "resources": _resources(runner.engine),
        "transfer_rows": [t.csv_row() for t in rep.transfers],
        "npu_rows": rep.npu_rows,
        "weights_sha256": _sha256(w.tobytes() for w in rep.weights),
    }


def fuzz_snapshot(mode: str, functional: bool = True) -> dict:
    """Replay a fuzz trace; write data is unique per record, every read's
    plaintext goes into the digest."""
    records = gen_fuzz_trace(FUZZ_OPS, FUZZ_LINES, SEED, base=FUZZ_BASE)
    cfg = _config(mode)
    mem = ProtectedMemory(FUZZ_BASE, FUZZ_LINES, KeyMaterial.from_seed(SEED),
                          metadata_cache_bytes=cfg.cpu.metadata_cache_bytes,
                          crypto_on=functional)
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


def _ciphertext_sha256(dev: NpuDevice, rec) -> str:
    _, ct = dev.export_lines(rec)
    return _sha256([ct])


def npu_stream_snapshot(granularity: str, functional: bool = True) -> dict:
    """The CLI's npu_stream workload at one blocking granularity, then a
    store of random lines, loaded blocking and delayed."""
    cfg = _config("tensortee", functional)
    cfg.npu.mac_granularity = int(granularity)
    ticks = run_npu_stream(cfg)
    dev = NpuDevice(KeyMaterial.from_seed(SEED), build_engine(cfg),
                    mac_granularity=cfg.npu.mac_granularity,
                    crypto_on=functional)
    rec = dev.register_tensor(7, 0x4000_0000, NPU_LINES)
    dev.store_tensor_stream(rec, _lines(NPU_LINES, 1))
    blocking, _ = dev.load_tensor_stream(rec, "blocking")
    delayed, _ = dev.load_tensor_stream(rec, "delayed")
    return {
        "npu_stream": ticks,
        "stored_mac": rec.stored_mac,
        "ciphertext_sha256": _ciphertext_sha256(dev, rec),
        "plaintext_sha256": _sha256(blocking + delayed),
        "npu_rows": [r.csv_row() for r in dev.reports],
        "resources": _resources(dev.engine),
    }


def transfer_snapshot(protocol: str, functional: bool = True) -> dict:
    """A CPU tensor to the NPU and an NPU tensor back, by the relay (separate
    enclave keys, as SGX+MGX) or the direct protocol (the shared key, with the
    Meta Table), then every moved line read back on the receiving side."""
    cpu_enc = Enclave.create(1, SEED ^ 0xC0DE, b"cpu", b"cpu-data")
    npu_enc = Enclave.create(2, SEED ^ 0x417, b"npu", b"npu-data")
    session = attest_and_exchange(cpu_enc, npu_enc, {1: cpu_enc.report(),
                                                     2: npu_enc.report()})
    eng = build_engine(_config("tensortee"))
    n = XFER_LINES
    cpu_key, npu_key = ((cpu_enc.key, npu_enc.key) if protocol == "relay"
                        else (session.shared_key, session.shared_key))
    mem = ProtectedMemory(CPU_BASE, 4 * n, cpu_key, metadata_cache_bytes=2048,
                          crypto_on=functional)
    dev = NpuDevice(npu_key, eng, crypto_on=functional)
    back_base = CPU_BASE + 2 * n * LINE_BYTES
    grad = dev.register_tensor(9, 0x5000_0000, n)
    dev.store_tensor_stream(grad, _lines(n, 3))
    if protocol == "relay":
        ta = None
        for i, line in enumerate(_lines(n, 2)):
            mem.write_line(CPU_BASE + i * LINE_BYTES, line)
        reps = [baseline_transfer(session, eng, tensor_id=5, direction="cpu_to_npu",
                                  cpu_mem=mem, npu=dev, cpu_base=CPU_BASE,
                                  n_lines=n),
                baseline_transfer(session, eng, tensor_id=9, direction="npu_to_cpu",
                                  cpu_mem=mem, npu=dev, cpu_base=back_base,
                                  n_lines=n)]
        read = mem.read_line
    else:
        ta = TenAnalyzer(mem)
        ta.install_hint(CPU_BASE, n, tensor_id=5)
        for i, line in enumerate(_lines(n, 2)):
            ta.on_write(CPU_BASE + i * LINE_BYTES, line)
        reps = [direct_transfer(session, eng, tensor_id=5, direction="cpu_to_npu",
                                analyzer=ta, npu=dev, cpu_base=CPU_BASE)]
        dev.load_tensor_stream(grad, "delayed")
        eng.advance(grad.verify_done_tick)
        reps.append(direct_transfer(session, eng, tensor_id=9,
                                    direction="npu_to_cpu", analyzer=ta, npu=dev,
                                    cpu_base=back_base))
        read = ta.on_read
    sent = dev.records[5]
    on_npu, _ = dev.load_tensor_stream(sent, "delayed")
    on_cpu = [read(back_base + i * LINE_BYTES)[0] for i in range(n)]
    return {
        "transfer_rows": [r.csv_row() for r in reps],
        "ticks": [[r.start_tick, r.done_tick] for r in reps],
        "cpu_totals": dict(mem.totals),
        "analyzer_stats": dict(ta.stats) if ta else None,
        "npu_rows": [r.csv_row() for r in dev.reports],
        "sent": [sent.vn, sent.stored_mac],
        "ciphertext_sha256": _ciphertext_sha256(dev, sent),
        "plaintext_sha256": _sha256(on_npu + on_cpu),
        "resources": _resources(eng),
    }


def cli_snapshot(workload: str, mode: str, functional: bool = True) -> dict:
    """The metrics.json that `teesim run` writes for a small adam or gemm
    config: three tensors of drawn sizes, or a 64x64x128 GEMM in 16-wide
    tiles. Per-iteration hit rates, cost samples and the Meta Table are all
    part of it. The adam config is one where summing the hit_in and
    hit_boundary shares differs in the last bit from dividing the summed
    counts, both for the whole run and for one iteration."""
    cfg = _config(mode, functional)
    wl = cfg.workload
    wl.name = workload
    wl.tensors, wl.tensor_bytes_min, wl.tensor_bytes_max = 3, 1024, 8192
    wl.threads, wl.iterations, wl.burst_lines = 4, 3, 4
    wl.gemm_m, wl.gemm_n, wl.gemm_k, wl.gemm_tile = 64, 64, 128, 16
    with tempfile.TemporaryDirectory() as tmp, mock.patch.dict(os.environ):
        os.environ.pop(SEED_ENV_VAR, None)
        cfg_path, out = Path(tmp) / "cfg.json", Path(tmp) / "out"
        cfg_path.write_text(json.dumps(dataclasses.asdict(cfg)))
        assert main(["run", "--config", str(cfg_path), "--out", str(out)]) == 0
        return json.loads((out / "metrics.json").read_text())


SNAPSHOTS = {"zero_offload": zero_offload_snapshot, "fuzz": fuzz_snapshot,
             "npu_stream": npu_stream_snapshot, "transfer": transfer_snapshot,
             "adam": lambda *args: cli_snapshot("adam", *args),
             "gemm": lambda *args: cli_snapshot("gemm", *args)}


def snapshot(workload: str, mode: str, functional: bool = True) -> dict:
    return SNAPSHOTS[workload](mode, functional)


def _without_cipher_values(snap: dict) -> dict:
    out = {k: v for k, v in snap.items() if k not in CIPHER_FIELDS}
    if "sent" in out:
        out["sent"] = out["sent"][:1]
    return out


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


@pytest.mark.parametrize("workload, mode", RUNS)
def test_light_mode_matches_golden_metrics(workload, mode):
    """With functional crypto off, every golden run simulates the same: only
    the fields that hold tag or ciphertext values may differ."""
    expected = json.loads((GOLDEN_DIR / f"{workload}_{mode}.json").read_text())
    got = json.loads(json.dumps(snapshot(workload, mode, functional=False)))
    assert _without_cipher_values(got) == _without_cipher_values(expected)


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: test_golden_metrics.py --write")
    GOLDEN_DIR.mkdir(parents=True, exist_ok=True)
    for workload, mode in RUNS:
        out = GOLDEN_DIR / f"{workload}_{mode}.json"
        out.write_text(json.dumps(snapshot(workload, mode), indent=1,
                                  sort_keys=True) + "\n")
        print(f"wrote {out}")
