"""End-to-end and per-layer metrics from the passes of one run.

End-to-end metrics are host time, in reference seconds, and host memory,
from untraced passes.
Per-layer metrics come from traced passes: host times from the tracer's
spans, counts from the program's own counters. A stage that ran n traced
passes contributes one average pass (its sums divided by n), so counts read
exactly the same whatever number of passes fitted in the time.
"""

from __future__ import annotations

import resource
import statistics

from stages import ENGINE_RESOURCES, MODES
from tracer import Tracer

MiB = 1024 * 1024

END_TO_END = (
    *((f"lines_per_s.{m}", "lines/s", "higher") for m in MODES),
    ("trials_per_s", "trials/s", "higher"),
    ("setup_s", "s", "lower"),
    ("peak_rss_mb", "MiB", "lower"),
)


def _per_layer_spec():
    spec = [("crypto.self_s", "s", "lower")]
    spec += [(f"crypto.{f}.calls", "count", "lower")
             for f in ("keystream", "mac_block", "encrypt_block", "decrypt_block")]
    spec += [(f"crypto.vntree.{f}.calls", "count", "lower")
             for f in ("update_path", "verify_path")]
    spec += [("crypto.vntree.build_s", "s", "lower")]
    spec += [(f"crypto.{f}.us_p50", "us", "lower")
             for f in ("keystream", "mac_block", "vntree.update_path")]
    spec += [("baseline.self_s", "s", "lower")]
    for f in ("read_line", "write_line"):
        spec += [(f"baseline.{f}.calls", "count", "lower"),
                 (f"baseline.{f}.us_p50", "us", "lower"),
                 (f"baseline.{f}.us_p99", "us", "lower")]
    spec += [("baseline.meta_cache.hit_ratio", "ratio", "higher")]
    spec += [(f"baseline.{k}_bytes", "B", "lower")
             for k in ("vn_rd", "mac_rd", "tree_rd", "tree_wr", "vn_wb", "tree_wb",
                       "mac_wb", "rebuild")]
    spec += [("tenanalyzer.self_s", "s", "lower")]
    for f in ("on_read", "on_write"):
        spec += [(f"tenanalyzer.{f}.calls", "count", "lower"),
                 (f"tenanalyzer.{f}.us_p50", "us", "lower"),
                 (f"tenanalyzer.{f}.us_p99", "us", "lower")]
    spec += [("tenanalyzer.hit_in_ratio", "ratio", "higher"),
             ("tenanalyzer.hit_all_ratio", "ratio", "higher")]
    spec += [(f"tenanalyzer.{k}", "count", "lower")
             for k in ("promotions", "merges", "evictions", "invalidations",
                       "sweep_verifies", "boundary_mispredicts")]
    spec += [("nputee.self_s", "s", "lower")]
    for f in ("load", "store"):
        spec += [(f"nputee.{f}.calls", "count", "lower"),
                 (f"nputee.{f}.ms_per_mib", "ms/MiB", "lower")]
    spec += [("nputee.stall_ticks", "ticks", "lower"),
             ("nputee.faults", "count", "lower")]
    spec += [("transfer.self_s", "s", "lower")]
    for f in ("direct", "relay"):
        spec += [(f"transfer.{f}.calls", "count", "lower"),
                 (f"transfer.{f}.ms_per_mib", "ms/MiB", "lower")]
    spec += [("transfer.bytes_link", "B", "lower"),
             ("transfer.bytes_aes", "B", "lower"),
             ("transfer.overlap_ratio", "ratio", "higher")]
    spec += [("engine.self_s", "s", "lower"),
             ("engine.reserve.calls", "count", "lower"),
             ("engine.reserve.ns_p50", "ns", "lower")]
    for r in ENGINE_RESOURCES:
        spec += [(f"engine.{r}.busy_ticks", "ticks", "lower"),
                 (f"engine.{r}.wait_ticks", "ticks", "lower")]
    spec += [("workloads.self_s", "s", "lower"),
             ("workloads.trace_gen_s", "s", "lower"),
             ("cli.run_attack_campaign.self_s", "s", "lower")]
    spec += [(f"sim.total_ticks.{m}", "ticks", "lower") for m in MODES]
    spec += [("sim.detection_rate", "ratio", "higher"),
             ("trace.overhead_ratio", "ratio", "lower")]
    return tuple(spec)


PER_LAYER = _per_layer_spec()
UNITS = {name: unit for name, unit, _ in END_TO_END + PER_LAYER}


def _median(values) -> float:
    return statistics.median(values) if values else 0.0


def end_to_end(stage_list, passes) -> dict:
    """From the untraced passes, in reference seconds (stages.LapTimer). A
    mode's rate is its work over its stage's median run time. setup_s is the
    sum, over every stage, of its median set-up time; the `import` stage
    times the teesim import, in host seconds."""
    out = {}
    for m in (*MODES, "campaign"):
        work = run_s = 0.0
        for s in stage_list:
            runs = passes[(s.name, 0)]
            if s.name == m and runs:
                work += runs[0].work
                run_s += _median([r.run_s for r in runs])
        name = "trials_per_s" if m == "campaign" else f"lines_per_s.{m}"
        out[name] = work / run_s if run_s else 0.0
    out["setup_s"] = sum(_median([r.setup_s for r in passes[(s.name, 0)]])
                         for s in stage_list)
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    return out


def per_layer(stage_list, passes, tracers) -> dict:
    tr = Tracer()
    counts: dict[str, float] = {}
    traced_wall = untraced_wall = 0.0
    for s in stage_list:
        traced = passes[(s.name, 1)]
        if not traced:
            continue
        n = len(traced)
        tr.merge(tracers[s.name], 1 / n)
        for r in traced:
            for k, v in r.counts.items():
                counts[k] = counts.get(k, 0) + v / n
        traced_wall += _median([r.setup_s + r.run_s for r in traced])
        untraced_wall += _median([r.setup_s + r.run_s for r in passes[(s.name, 0)]])

    c = lambda k: counts.get(k, 0)
    ratio = lambda a, b: a / b if b else 0.0
    us = lambda name, q: tr.percentile(name, q) * 1e6
    out = {"crypto.self_s": tr.layer_self["crypto"]}
    for f in ("keystream", "mac_block", "encrypt_block", "decrypt_block"):
        out[f"crypto.{f}.calls"] = tr.calls(f"crypto.{f}")
    for f in ("update_path", "verify_path"):
        out[f"crypto.vntree.{f}.calls"] = tr.calls(f"crypto.vntree.{f}")
    out["crypto.vntree.build_s"] = tr.total_s("crypto.vntree.build")
    for f in ("keystream", "mac_block", "vntree.update_path"):
        out[f"crypto.{f}.us_p50"] = us(f"crypto.{f}", 0.5)

    out["baseline.self_s"] = tr.layer_self["baseline"]
    for f in ("read_line", "write_line"):
        out[f"baseline.{f}.calls"] = tr.calls(f"baseline.{f}")
        out[f"baseline.{f}.us_p50"] = us(f"baseline.{f}", 0.5)
        out[f"baseline.{f}.us_p99"] = us(f"baseline.{f}", 0.99)
    out["baseline.meta_cache.hit_ratio"] = ratio(
        c("mem.cache_hits"), c("mem.cache_hits") + c("mem.cache_misses"))
    for k in ("vn_rd", "mac_rd", "tree_rd", "tree_wr", "vn_wb", "tree_wb", "mac_wb"):
        out[f"baseline.{k}_bytes"] = c(f"mem.{k}")
    out["baseline.rebuild_bytes"] = c("mem.rebuild_bytes")

    out["tenanalyzer.self_s"] = tr.layer_self["tenanalyzer"]
    for f in ("on_read", "on_write"):
        out[f"tenanalyzer.{f}.calls"] = tr.calls(f"tenanalyzer.{f}")
        out[f"tenanalyzer.{f}.us_p50"] = us(f"tenanalyzer.{f}", 0.5)
        out[f"tenanalyzer.{f}.us_p99"] = us(f"tenanalyzer.{f}", 0.99)
    reads = c("ta.r_hit_in") + c("ta.r_hit_boundary") + c("ta.r_miss")
    out["tenanalyzer.hit_in_ratio"] = ratio(c("ta.r_hit_in"), reads)
    out["tenanalyzer.hit_all_ratio"] = ratio(c("ta.r_hit_in") + c("ta.r_hit_boundary"),
                                             reads)
    for name, key in (("promotions", "promotions"), ("merges", "merges"),
                      ("evictions", "evictions"), ("invalidations", "w_invalidate"),
                      ("sweep_verifies", "sweep_verifies"),
                      ("boundary_mispredicts", "r_boundary_mispredict")):
        out[f"tenanalyzer.{name}"] = c(f"ta.{key}")

    out["nputee.self_s"] = tr.layer_self["nputee"]
    for f in ("load", "store"):
        out[f"nputee.{f}.calls"] = tr.calls(f"nputee.{f}")
        mib = c(f"npu.{f}_lines") * 64 / MiB
        out[f"nputee.{f}.ms_per_mib"] = ratio(tr.total_s(f"nputee.{f}") * 1e3, mib)
    out["nputee.stall_ticks"] = c("npu.stall_ticks")
    out["nputee.faults"] = c("npu.faults")

    out["transfer.self_s"] = tr.layer_self["transfer"]
    for f, protocol in (("direct", "direct"), ("relay", "baseline")):
        out[f"transfer.{f}.calls"] = tr.calls(f"transfer.{f}")
        mib = c(f"xfer.{protocol}.payload_bytes") / MiB
        out[f"transfer.{f}.ms_per_mib"] = ratio(tr.total_s(f"transfer.{f}") * 1e3, mib)
    out["transfer.bytes_link"] = c("xfer.bytes_link")
    out["transfer.bytes_aes"] = c("xfer.bytes_aes")
    out["transfer.overlap_ratio"] = ratio(c("xfer.cycles_overlapped"),
                                          c("xfer.cycles_total"))

    out["engine.self_s"] = tr.layer_self["engine"]
    out["engine.reserve.calls"] = tr.calls("engine.reserve")
    out["engine.reserve.ns_p50"] = tr.percentile("engine.reserve", 0.5) * 1e9
    for r in ENGINE_RESOURCES:
        out[f"engine.{r}.busy_ticks"] = c(f"res.{r}.busy_ticks")
        out[f"engine.{r}.wait_ticks"] = c(f"res.{r}.wait_ticks")

    out["workloads.self_s"] = tr.layer_self["workloads"]
    out["workloads.trace_gen_s"] = sum(
        tr.total_s(n) for n in ("workloads.gen_fuzz_trace", "workloads.adam_layouts"))
    out["cli.run_attack_campaign.self_s"] = tr.layer_self["cli"]
    for m in MODES:
        out[f"sim.total_ticks.{m}"] = c(f"sim.total_ticks.{m}")
    out["sim.detection_rate"] = ratio(c("campaign.detected"), c("campaign.trials"))
    out["trace.overhead_ratio"] = ratio(traced_wall, untraced_wall)
    # counts are exact per pass; print them as integers
    return {name: (round(v) if unit in ("count", "B", "ticks") else v)
            for (name, unit, _), v in ((spec, out[spec[0]]) for spec in PER_LAYER)}
