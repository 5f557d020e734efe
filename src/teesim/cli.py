"""Command-line front end: experiment runner, parameter sweeps, attack
campaigns, trace dumping, and figure-style CSV/JSON reporting.

Exit codes: 0 ok, 2 config error, 3 integrity fault (unless --expect-fault),
4 attestation failure, 5 NPU halt (fault threshold exceeded), 6 transfer
protocol error, 7 internal simulator error. TENSORTEE_SEED in the environment
overrides the configured seed.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
from pathlib import Path

from .baseline import CostReport, ProtectedMemory
from .config import (
    MODE_LABELS, MODES, ConfigError, SimConfig, build_engine, load_config,
    load_config_file,
)
from .crypto import IntegrityFault, KeyMaterial, LINE_BYTES
from .engine import SimError
from .nputee import HaltError, NpuDevice, StreamReport, unprotected_stream
from .transfer import AttestationFailure, ProtocolError, TransferReport
from .workloads import (
    adam_layouts, adam_region_lines, build_cpu_side, gen_adam_trace,
    gen_fuzz_trace, gen_gemm_trace, gemm_region_lines, iter_adam_trace,
    replay_trace, run_zero_offload, write_trace,
)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_INTEGRITY = 3
EXIT_ATTESTATION = 4
EXIT_HALT = 5
EXIT_PROTOCOL = 6
EXIT_SIM = 7

# (seed, binding mode, pa or tensor id, offset, vn): the inputs of the frozen
# keystream vectors in tests/data/golden_vectors.json, which selftest runs
# through both the scalar and the batch kernels
GOLDEN_VECTOR_INPUTS = (
    (0x5EED, 0, 0x1000, 0, 1), (0x5EED, 0, 0x1000, 0, 2),
    (0x5EED, 0, 0x2000, 0, 1), (0x5EED, 1, 7, 0, 1), (0x5EED, 1, 7, 64, 1),
    (0xDEADBEEF, 0, 64, 0, 123456789), (0, 0, 0, 0, 0),
    ((1 << 64) - 1, 1, (1 << 32) - 1, 65472, (1 << 56) - 1),
)


def run_adam(cfg: SimConfig) -> dict:
    wl = cfg.workload
    base = 0x1000_0000
    layouts = adam_layouts(wl.tensors, wl.tensor_bytes_min,
                           wl.tensor_bytes_max, base)
    mem, analyzer, front = build_cpu_side(cfg, cfg.mode, adam_region_lines(layouts, base),
                                          base, KeyMaterial.from_seed(cfg.crypto.seed))
    cost_sample: list = []
    per_iter = []
    for it in range(wl.iterations):
        before = dict(analyzer.stats) if analyzer is not None else None
        # one iteration's records, generated as they are replayed
        replay_trace(front, iter_adam_trace(layouts, wl.threads,
                                            wl.burst_lines, 1), cost_sample)
        if analyzer is not None:
            per_iter.append({"iteration": it + 1,
                             **analyzer.hit_rates_since(before)})
    metrics = {
        "workload": "adam", "mode": cfg.mode,
        "cpu_totals": dict(mem.totals),
        "iteration_rows": per_iter,
        "cost_sample": [r.csv_row() for r in cost_sample],
    }
    if analyzer is not None:
        metrics["analyzer_stats"] = dict(analyzer.stats)
        metrics["hit_rates"] = analyzer.hit_rates()
        metrics["meta_table"] = json.loads(analyzer.dump_table())
        analyzer.check_vn_consistency()
    return metrics


def run_gemm(cfg: SimConfig) -> dict:
    wl = cfg.workload
    base = 0x2000_0000
    mem, analyzer, front = build_cpu_side(
        cfg, cfg.mode, gemm_region_lines(wl.gemm_m, wl.gemm_n, wl.gemm_k), base,
        KeyMaterial.from_seed(cfg.crypto.seed))
    trace = gen_gemm_trace(wl.gemm_m, wl.gemm_n, wl.gemm_k, wl.gemm_tile,
                           a_base=base)
    cost_sample: list = []
    passes = []
    for p in range(2):
        before = dict(analyzer.stats) if analyzer is not None else None
        replay_trace(front, trace, cost_sample)
        if analyzer is not None:
            passes.append({"pass": p + 1,
                           "hit_in": analyzer.hit_rates_since(before)["hit_in"]})
    metrics = {"workload": "gemm", "mode": cfg.mode,
               "cpu_totals": dict(mem.totals), "passes": passes,
               "cost_sample": [r.csv_row() for r in cost_sample]}
    if analyzer is not None:
        metrics["analyzer_stats"] = dict(analyzer.stats)
        metrics["meta_table"] = json.loads(analyzer.dump_table())
    return metrics


def run_zero(cfg: SimConfig) -> dict:
    rep = run_zero_offload(cfg)
    return {
        "workload": "zero", "mode": cfg.mode,
        "total_ticks": rep.total_ticks,
        "phases": rep.phases,
        "grad_span": [br.grad_span for br in rep.iterations],
        "grad_latencies": [br.grad_latencies for br in rep.iterations],
        "hit_rates": rep.hit_rates,
        "analyzer_stats": rep.analyzer_stats,
        "cpu_totals": rep.cpu_totals,
        "transfer_rows": [t.csv_row() for t in rep.transfers],
        "npu_rows": rep.npu_rows,
        "weight_checksum": int(sum(int(abs(w.sum()) * 1000) for w in rep.weights)),
    }


def run_npu_stream(cfg: SimConfig) -> dict:
    """One streamed tensor under no protection, delayed verification, and the
    configured blocking granularity; the granularity-tradeoff benchmark."""
    wl = cfg.workload
    n = wl.zero_tensor_bytes // LINE_BYTES
    key = KeyMaterial.from_seed(cfg.crypto.seed)
    results = {}

    results["noprotect_ticks"] = unprotected_stream(build_engine(cfg), n, 0)

    def run_mode(mode: str):
        e = build_engine(cfg)
        dev = NpuDevice(key, e, crypto_on=cfg.crypto.functional,
                        mac_granularity=cfg.npu.mac_granularity)
        rec = dev.register_tensor(1, 0x4000_0000, n)
        data = [bytes([i & 0xFF]) * LINE_BYTES for i in range(n)]
        dev.store_tensor_stream(rec, data)   # seals the block MACs too
        for r in e.resources.values():   # staging must not occupy the ledger
            r.busy_until = 0
        _, rep = dev.load_tensor_stream(rec, mode, at_tick=0)
        return rep, dev

    rep_d, dev_d = run_mode("delayed")
    results["delayed_ticks"] = rep_d.done_tick - rep_d.start_tick
    results["delayed_mac_storage"] = dev_d.mac_storage_bytes("delayed")
    rep_b, dev_b = run_mode("blocking")
    results["blocking_ticks"] = rep_b.done_tick - rep_b.start_tick
    results["blocking_stall_ticks"] = rep_b.stall_ticks
    results["blocking_mac_storage"] = dev_b.mac_storage_bytes("blocking")
    results["mac_granularity"] = cfg.npu.mac_granularity
    base = results["noprotect_ticks"]
    results["delayed_overhead"] = results["delayed_ticks"] / base - 1.0
    results["blocking_overhead"] = results["blocking_ticks"] / base - 1.0
    return {"workload": "npu_stream", "mode": cfg.mode, **results}


def run_attack_campaign(cfg: SimConfig, kind: str, trials: int) -> dict:
    """Randomized tamper campaign against the baseline path; every injection
    must be detected on the next read."""
    rng = random.Random(cfg.crypto.seed)
    key = KeyMaterial.from_seed(cfg.crypto.seed)
    n = 512
    base = 0x1000_0000
    mem = ProtectedMemory(base, n, key)
    mem.write_lines([base + i * LINE_BYTES for i in range(n)],
                    [rng.randbytes(LINE_BYTES) for _ in range(n)])
    kinds = ([kind] if kind != "mixed"
             else ["bitflip", "vn_tamper", "mac_tamper", "replay"])
    detected = 0
    for t in range(trials):
        k = kinds[t % len(kinds)]
        idx = rng.randrange(n)
        pa = base + idx * LINE_BYTES
        heal = None
        if k == "replay":
            snap = mem.snapshot_triple(pa)
            mem.write_line(pa, rng.randbytes(LINE_BYTES))
            heal = mem.snapshot_triple(pa)
            mem.inject_attack("replay", pa, snapshot=snap)
        else:
            mem.inject_attack(k, pa, bit=rng.randrange(56))
        mem.flush_metadata_cache()
        try:
            mem.read_line(pa)
        except IntegrityFault:
            detected += 1
        # heal the off-chip state before the next trial
        if k == "vn_tamper":
            mem.inject_attack("vn_tamper", pa, delta=-1)
        elif k == "replay":
            mem.inject_attack("replay", pa, snapshot=heal)
        mem.flush_metadata_cache()
        mem.write_line(pa, rng.randbytes(LINE_BYTES))
    return {"workload": f"attack_{kind}", "mode": cfg.mode, "trials": trials,
            "detected": detected, "detection_rate": detected / trials}


RUNNERS = {"adam": run_adam, "gemm": run_gemm, "zero": run_zero,
           "npu_stream": run_npu_stream}

# the workload fields each runner reads; sweeping any other field of the
# section would run identical points
RUNNER_FIELDS = {
    "adam": {"tensors", "tensor_bytes_min", "tensor_bytes_max", "threads",
             "burst_lines", "iterations"},
    "gemm": {"gemm_m", "gemm_n", "gemm_k", "gemm_tile"},
    "zero": {"zero_tensors", "zero_tensor_bytes", "threads", "burst_lines",
             "iterations"},
    "npu_stream": {"zero_tensor_bytes"},
}

SWEEP_AXES = {
    "mac_granularity": ("npu", "mac_granularity", int),
    "iterations": ("workload", "iterations", int),
    "threads": ("workload", "threads", int),
    "tensors": ("workload", "tensors", int),
    "mode": (None, "mode", str),
}


def _apply_axis(cfg: SimConfig, axis: str, raw: str):
    """Set sweep axis `axis` of `cfg` to the value `raw` names, check the
    config again and return the value. A workload or NPU axis must be a
    field that the config's run reads."""
    section, field_name, cast = SWEEP_AXES[axis]
    if section == "workload":
        _runner(cfg.workload.name)
        if field_name not in RUNNER_FIELDS[cfg.workload.name]:
            raise ConfigError(f"--sweep {axis}: the {cfg.workload.name} workload "
                              f"does not read workload.{field_name}")
    # only the blocking NPU loads and the relay's block check read the
    # granularity: npu_stream, and SGX+MGX zero-offload
    if section == "npu" and not (cfg.workload.name == "npu_stream" or (
            cfg.workload.name == "zero" and cfg.mode == "sgx_mgx")):
        raise ConfigError(f"--sweep {axis}: only npu_stream and SGX+MGX zero "
                          f"runs read npu.{field_name}")
    try:
        value = cast(raw)
    except ValueError as e:
        raise ConfigError(f"--sweep {axis} takes {cast.__name__} values, got {raw!r}") from e
    setattr(cfg if section is None else getattr(cfg, section), field_name, value)
    cfg.validate()
    return value


def _write_outputs(outdir: Path, metrics: dict) -> None:
    outdir.mkdir(parents=True, exist_ok=True)
    (outdir / "metrics.json").write_text(json.dumps(metrics, indent=1,
                                                    sort_keys=True))
    if metrics.get("cost_sample"):
        (outdir / "costs.csv").write_text(
            CostReport.csv_header() + "\n" + "\n".join(metrics["cost_sample"]) + "\n")
    if metrics.get("transfer_rows"):
        (outdir / "transfers.csv").write_text(
            TransferReport.csv_header() + "\n" +
            "\n".join(metrics["transfer_rows"]) + "\n")
    if metrics.get("npu_rows"):
        (outdir / "npu_metrics.csv").write_text(
            StreamReport.csv_header() + "\n" +
            "\n".join(metrics["npu_rows"]) + "\n")
    if "meta_table" in metrics:
        (outdir / "meta_table.json").write_text(
            json.dumps(metrics["meta_table"], indent=1))


def _run_config(args) -> SimConfig:
    """The config file, or the defaults, with `--mode` and `--workload`."""
    cfg = load_config_file(args.config) if args.config else load_config({})
    if args.mode:
        cfg.mode = args.mode
    if args.workload:
        cfg.workload.name = args.workload
    cfg.validate()
    return cfg


def _runner(name: str):
    if name not in RUNNERS:
        raise ConfigError(f"unknown workload {name!r} (choose from "
                          f"{sorted(RUNNERS)})")
    return RUNNERS[name]


def _run_workload(cfg: SimConfig) -> dict:
    return _runner(cfg.workload.name)(cfg)


def cmd_run(args) -> int:
    cfg = _run_config(args)
    outdir = Path(args.out)

    if args.attack:
        metrics = run_attack_campaign(cfg, args.attack, args.trials)
        _write_outputs(outdir, metrics)
        print(f"attack campaign {args.attack}: detection rate "
              f"{metrics['detection_rate']:.4f} ({metrics['detected']}/"
              f"{metrics['trials']})")
        return EXIT_OK

    if args.sweep:
        axis, _, values = args.sweep.partition("=")
        if axis not in SWEEP_AXES or not values:
            raise ConfigError(f"--sweep wants axis=v1,v2 with axis in "
                              f"{sorted(SWEEP_AXES)}")
        # every point is checked before the first one runs
        points = []
        for raw in values.split(","):
            point_cfg = _run_config(args)
            points.append((raw, _apply_axis(point_cfg, axis, raw), point_cfg))
        rows = []
        for raw, value, point_cfg in points:
            metrics = _run_workload(point_cfg)
            metrics[axis] = value
            rows.append(metrics)
            _write_outputs(outdir / f"{axis}_{raw}", metrics)
        keys = [axis] + sorted(k for k in rows[0]
                               if isinstance(rows[0][k], (int, float))
                               and k != axis)
        lines = [",".join(keys)]
        for row in rows:
            lines.append(",".join(str(row.get(k, "")) for k in keys))
        outdir.mkdir(parents=True, exist_ok=True)
        (outdir / "sweep.csv").write_text("\n".join(lines) + "\n")
        print(f"sweep over {axis}: {len(rows)} points -> {outdir / 'sweep.csv'}")
        return EXIT_OK

    metrics = _run_workload(cfg)
    _write_outputs(outdir, metrics)
    print(f"{cfg.workload.name} [{MODE_LABELS[cfg.mode]}] -> {outdir / 'metrics.json'}")
    if metrics.get("hit_rates"):
        hr = metrics["hit_rates"]
        print(f"  hit_in={hr['hit_in']:.4f} hit_all={hr['hit_all']:.4f} "
              f"reads={hr['reads']}")
    return EXIT_OK


def cmd_report(args) -> int:
    root = Path(args.dir)
    inputs = sorted(root.glob("*/metrics.json"))
    if (root / "metrics.json").exists():
        inputs.insert(0, root / "metrics.json")
    if not inputs:
        print(f"report: no inputs under {root}; expected metrics.json or "
              f"<run>/metrics.json files (produced by `teesim run --out`)",
              file=sys.stderr)
        return EXIT_CONFIG
    runs = []
    for p in inputs:
        m = json.loads(p.read_text())
        m["_name"] = p.parent.name if p.parent != root else root.name
        runs.append(m)

    perf_lines = ["name,mode,total_ticks,normalized"]
    baseline_ticks = None
    for m in runs:
        if m.get("mode") == "nonsecure" and m.get("total_ticks"):
            baseline_ticks = m["total_ticks"]
            break
    if baseline_ticks is None:
        for m in runs:
            if m.get("total_ticks"):
                baseline_ticks = m["total_ticks"]
                break
    for m in runs:
        ticks = m.get("total_ticks")
        if not ticks:
            continue
        label = MODE_LABELS.get(m.get("mode", ""), m.get("mode", ""))
        perf_lines.append(f"{m['_name']},{label},{ticks},"
                          f"{ticks / baseline_ticks:.4f}")
    breakdown_lines = ["name,mode,phase,ticks"]
    for m in runs:
        for phase, ticks in (m.get("phases") or {}).items():
            label = MODE_LABELS.get(m.get("mode", ""), m.get("mode", ""))
            breakdown_lines.append(f"{m['_name']},{label},{phase},{ticks}")
    hit_lines = ["name,iteration,hit_in,hit_boundary,hit_all"]
    for m in runs:
        for row in m.get("iteration_rows") or []:
            hit_lines.append(f"{m['_name']},{row['iteration']},"
                             f"{row['hit_in']:.4f},{row['hit_boundary']:.4f},"
                             f"{row['hit_all']:.4f}")
    outdir = Path(args.out) if args.out else root
    outdir.mkdir(parents=True, exist_ok=True)
    (outdir / "performance.csv").write_text("\n".join(perf_lines) + "\n")
    (outdir / "breakdown.csv").write_text("\n".join(breakdown_lines) + "\n")
    (outdir / "hit_rates.csv").write_text("\n".join(hit_lines) + "\n")
    print(f"report: {len(runs)} runs -> {outdir}/performance.csv, "
          f"breakdown.csv, hit_rates.csv")
    return EXIT_OK


def cmd_trace_dump(args) -> int:
    cfg = load_config_file(args.config) if args.config else load_config({})
    wl = cfg.workload
    name = args.workload or wl.name
    if name == "adam":
        records = gen_adam_trace(wl)
    elif name == "gemm":
        records = gen_gemm_trace(wl.gemm_m, wl.gemm_n, wl.gemm_k, wl.gemm_tile)
    elif name == "fuzz":
        records = gen_fuzz_trace(args.ops, 4096, cfg.crypto.seed)
    else:
        raise ConfigError(f"trace-dump supports adam|gemm|fuzz, not {name!r}")
    if args.out_file:
        write_trace(records, args.out_file)
        print(f"{len(records)} records -> {args.out_file}")
    else:
        for r in records[:args.limit]:
            tail = f" {r.tensor_id}" if r.tensor_id is not None else ""
            print(f"{r.cycle_hint} {r.core_id} {r.kind} {r.va:#x}{tail}")
    return EXIT_OK


def cmd_selftest(args) -> int:
    """Quick internal checks; a thin sanity layer under the full pytest
    suite."""
    ran = []
    failures = []

    def check(label, ok):
        print(f"  [{'PASS' if ok else 'FAIL'}] {label}")
        ran.append(label)
        if not ok:
            failures.append(label)

    from .crypto import (
        BindingMode, CipherBlock, CounterBinding, binding_codes, decrypt_block,
        encrypt_block, keystream, keystream_lines, line_words, mac_block,
        mac_lines, mac_xor_aggregate, words_to_ints,
    )
    key = KeyMaterial.from_seed(0x5EED)
    binding = CounterBinding(BindingMode.PHYSICAL_ADDR, 0x1000)
    blk = encrypt_block(b"\xa5" * LINE_BYTES, binding, 1, key)
    check("counter-mode round trip", decrypt_block(blk, key) == b"\xa5" * LINE_BYTES)
    check("xor aggregate permutation",
          mac_xor_aggregate([1, 2, 3]) == mac_xor_aggregate([3, 1, 2]))

    agree = True
    for seed, mode, ident, offset, vn in GOLDEN_VECTOR_INPUTS:
        k = KeyMaterial.from_seed(seed)
        b = CounterBinding(BindingMode(mode), ident, offset)
        codes = binding_codes([b])
        pad = words_to_ints(keystream_lines(k, codes, [vn]))[0]
        tag = int(mac_lines(k, codes, line_words([pad]), [vn])[0])
        agree &= pad == keystream(k, b, vn) and \
            tag == mac_block(CipherBlock(pad, b, vn), k)
    check("batch kernels match scalar on the golden vectors", agree)

    cfg = load_config({})
    cfg.workload.tensors = 1
    cfg.workload.tensor_bytes_min = cfg.workload.tensor_bytes_max = 64 * LINE_BYTES
    cfg.workload.threads = 1
    cfg.workload.iterations = 3
    cfg.crypto.functional = False
    cfg.mode = "tensortee"
    m = run_adam(cfg)
    check("tensor detection converges",
          m["iteration_rows"][-1]["hit_in"] > 0.9)

    campaign = run_attack_campaign(load_config({}), "mixed", 40)
    check("attack detection 100%", campaign["detection_rate"] == 1.0)

    zc = load_config({})
    zc.workload.zero_tensors = 1
    zc.workload.zero_tensor_bytes = 8 * 1024
    zc.workload.iterations = 1
    zc.workload.threads = 1
    w = {}
    for mode in MODES:
        zc.mode = mode
        w[mode] = run_zero_offload(zc).weights[0].tobytes()
    check("mode transparency (identical weights)",
          w["nonsecure"] == w["sgx_mgx"] == w["tensortee"])

    print(f"selftest: {len(ran) - len(failures)}/{len(ran)} checks passed")
    return EXIT_OK if not failures else EXIT_INTEGRITY


def make_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="teesim",
        description="Tensor-granularity TEE memory-protection simulator")
    sub = p.add_subparsers(dest="command", required=True)

    runp = sub.add_parser("run", help="run a workload and write metrics")
    runp.add_argument("--config", help="JSON config file")
    runp.add_argument("--mode", choices=MODES, help="override config mode")
    runp.add_argument("--workload",
                      choices=sorted(RUNNERS), help="override config workload")
    runp.add_argument("--sweep", help="axis=v1,v2,... one run per point")
    runp.add_argument("--attack",
                      choices=["bitflip", "vn_tamper", "mac_tamper", "replay",
                               "mixed"], help="tamper campaign")
    runp.add_argument("--trials", type=int, default=1000)
    runp.add_argument("--expect-fault", action="store_true",
                      help="exit 0 when an integrity fault occurs")
    runp.add_argument("--out", default="out", help="output directory")
    runp.set_defaults(func=cmd_run)

    repp = sub.add_parser("report", help="summarize metrics into CSV tables")
    repp.add_argument("dir", help="directory holding run outputs")
    repp.add_argument("--out", help="where to write tables (default: dir)")
    repp.set_defaults(func=cmd_report)

    tdp = sub.add_parser("trace-dump", help="emit a workload trace")
    tdp.add_argument("--config")
    tdp.add_argument("--workload", choices=["adam", "gemm", "fuzz"])
    tdp.add_argument("--ops", type=int, default=10000, help="fuzz ops")
    tdp.add_argument("--limit", type=int, default=50, help="stdout line cap")
    tdp.add_argument("--out-file", help="write full trace here (.gz ok)")
    tdp.set_defaults(func=cmd_trace_dump)

    selfp = sub.add_parser("selftest", help="quick internal checks")
    selfp.set_defaults(func=cmd_selftest)
    return p


def main(argv=None) -> int:
    args = make_parser().parse_args(argv)
    try:
        for flag, least in (("trials", 1), ("ops", 1), ("limit", 0)):
            if getattr(args, flag, least) < least:
                raise ConfigError(f"--{flag} must be at least {least}, "
                                  f"got {getattr(args, flag)}")
        return args.func(args)
    except ConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        return EXIT_CONFIG
    except IntegrityFault as e:
        if getattr(args, "expect_fault", False):
            print(f"expected integrity fault: {e}")
            return EXIT_OK
        print(f"integrity fault: {e}", file=sys.stderr)
        return EXIT_INTEGRITY
    except AttestationFailure as e:
        print(f"attestation failure: {e}", file=sys.stderr)
        return EXIT_ATTESTATION
    except HaltError as e:
        print(f"npu halt: {e}", file=sys.stderr)
        return EXIT_HALT
    except ProtocolError as e:
        print(f"protocol error: {e}", file=sys.stderr)
        return EXIT_PROTOCOL
    except SimError as e:
        print(f"simulator error: {e}", file=sys.stderr)
        return EXIT_SIM


if __name__ == "__main__":
    sys.exit(main())
