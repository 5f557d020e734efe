"""Tests of the outside-in tracer and the benchmark's output checks.

Run with `python3 -m pytest perfbench/tests`.
"""

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest
import teesim
import teesim.baseline
import teesim.nputee
import teesim.tenanalyzer
import teesim.transfer
import teesim.workloads
from teesim.config import SimConfig
from teesim.workloads import ZeroOffloadRunner, gen_fuzz_trace

import metrics
import stages
from tracer import Tracer

BENCH = Path(__file__).resolve().parent.parent


def _small_zero_cfg(seed=7):
    cfg = SimConfig()
    cfg.crypto.seed = seed
    wl = cfg.workload
    wl.zero_tensors, wl.zero_tensor_bytes = 2, 8 * 1024
    wl.threads, wl.iterations = 2, 2
    return cfg


def _zero_outputs(mode):
    runner = ZeroOffloadRunner(_small_zero_cfg(), mode)
    rep = runner.run()
    resources = {n: (r.busy_ticks, r.wait_ticks, r.grants)
                 for n, r in runner.engine.resources.items()}
    return runner, (rep.total_ticks, rep.phases, rep.cpu_totals,
                    rep.analyzer_stats, resources,
                    [t.csv_row() for t in rep.transfers], rep.npu_rows,
                    b"".join(w.tobytes() for w in rep.weights))


def test_wrappers_rebind_every_importing_module_and_restore():
    importers = {
        "keystream": (teesim.crypto, teesim.tenanalyzer, teesim),
        "mac_block": (teesim.crypto, teesim.baseline, teesim.tenanalyzer,
                      teesim.nputee, teesim.transfer, teesim),
        "encrypt_block": (teesim.crypto, teesim.baseline, teesim.nputee,
                          teesim.transfer, teesim),
        "decrypt_block": (teesim.crypto, teesim.baseline, teesim.nputee,
                          teesim.transfer, teesim.workloads, teesim),
        "baseline_transfer": (teesim.transfer, teesim.workloads, teesim),
        "direct_transfer": (teesim.transfer, teesim.workloads, teesim),
    }
    originals = {(m.__name__, f): getattr(m, f)
                 for f, mods in importers.items() for m in mods}
    with Tracer():
        for f, mods in importers.items():
            for m in mods:
                assert getattr(m, f) is not originals[(m.__name__, f)], (m, f)
                assert getattr(m, f).__wrapped__ is originals[(m.__name__, f)]
    for (mod_name, f), orig in originals.items():
        assert getattr(sys.modules[mod_name], f) is orig


class Toy:
    def outer(self):
        time.sleep(0.02)
        self.inner()

    def inner(self):
        time.sleep(0.03)


def test_self_time_subtracts_child_spans():
    owner = f"{__name__}:Toy"
    tr = Tracer(traced=(("crypto", "toy.outer", owner, "outer", True),
                        ("baseline", "toy.inner", owner, "inner", True)))
    with tr:
        Toy().outer()
    assert tr.calls("toy.outer") == tr.calls("toy.inner") == 1
    outer_self, inner = tr.layer_self["crypto"], tr.total_s("toy.inner")
    # sleeps only ever overrun on a busy host, so no upper bounds
    assert abs(outer_self + inner - tr.total_s("toy.outer")) < 1e-3
    assert outer_self >= 0.02 and inner >= 0.03
    assert tr.layer_self["baseline"] == inner
    assert Toy.outer.__name__ == "outer" and not hasattr(Toy.outer, "__wrapped__")


def test_span_counts_equal_program_counters_on_the_cpu_paths():
    cfg = stages.sim_config(3)
    pairs = [(r.kind == "R", r.va) for r in
             gen_fuzz_trace(3000, 1024, 3, base=stages.FUZZ_BASE)]
    for mode in ("sgx_mgx", "tensortee"):
        tr = Tracer()
        with tr:
            mem, ta, read, write = stages._cpu_side(mode, cfg, 1024, stages.FUZZ_BASE)
            stages.replay(read, write, pairs, stages.LapTimer())
        assert tr.calls("baseline.write_line") == mem.totals["writes"]
        if ta is None:
            assert tr.calls("baseline.read_line") == mem.totals["reads"]
        else:
            s = ta.stats
            assert tr.calls("tenanalyzer.on_read") == \
                s["r_hit_in"] + s["r_hit_boundary"] + s["r_miss"] == mem.totals["reads"]
            assert tr.calls("tenanalyzer.on_write") == s["w_miss"] + \
                s["w_edge_start"] + s["w_edge_finish"] + s["w_hit_in"] + \
                s["w_invalidate"]
            # misses are the only reads that reach the per-line baseline path
            assert tr.calls("baseline.read_line") == s["r_miss"]


def test_span_counts_equal_engine_grants_and_traced_run_simulates_the_same():
    for mode in ("sgx_mgx", "tensortee"):
        _, untraced = _zero_outputs(mode)
        tr = Tracer()
        with tr:
            runner, traced = _zero_outputs(mode)
        assert traced == untraced
        grants = sum(r.grants for r in runner.engine.resources.values())
        assert tr.calls("engine.reserve") == grants
        assert tr.calls("workloads.run") == 1
        assert tr.calls("nputee.load") == sum(
            1 for r in runner.npu.reports if r.mode != "store")
        protocol = "transfer.relay" if mode == "sgx_mgx" else "transfer.direct"
        assert tr.calls(protocol) == len(runner.report.transfers)
        assert tr.layer_self["workloads"] > 0 and tr.layer_self["crypto"] > 0


def test_read_oracle_counts_stale_reads_as_failed():
    pairs = [(False, 0x40), (True, 0x40), (True, 0x80)]
    good = stages.PassResult()
    stages.check_reads(good, pairs, [(1 << 32) | 0x40, b"\x00" * 64], "t")
    assert (good.ops, good.failed) == (3, 0)
    stale = stages.PassResult()
    stages.check_reads(stale, pairs, [0, 0], "t")
    assert (stale.ops, stale.failed) == (3, 1) and stale.errors


def test_benchmark_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "tests"))
    out = subprocess.run([sys.executable, "perfbench/run.py", "--workload",
                          "zero-offload", "--seed", "1", "--seconds", "1",
                          "--trace", "0"], cwd=tmp_path, capture_output=True,
                         text=True, timeout=60)
    assert out.returncode == 2
    assert out.stdout == ""


def test_a_missing_lap_hook_stops_the_run_before_any_pass(monkeypatch, capsys):
    import run
    monkeypatch.delattr(ZeroOffloadRunner, "_reserve_cpu_phase")
    with pytest.raises(stages.MissingHook, match="_reserve_cpu_phase"):
        stages.make_stages("zero-offload", 1)
    assert run.main(["--workload", "zero-offload", "--seed", "1", "--seconds", "1",
                     "--trace", "0"]) == run.EXIT_MISSING_HOOK
    assert capsys.readouterr().out == ""
    assert stages.make_stages("fuzz-attack", 1)


def test_lap_timer_scales_each_lap_by_the_probes_either_side(monkeypatch):
    clock = iter([0.0,          # start
                  0.01,         # a mark too soon after the start: no lap
                  0.10, 0.10,   # a mark that closes a lap, then its probe
                  0.11,         # the next lap starts after the probe
                  0.31, 0.32])  # close()
    probes = iter([1e-3, 2e-3, 1e-3])
    monkeypatch.setattr(stages, "perf", lambda: next(clock))
    monkeypatch.setattr(stages, "probe_s", lambda: next(probes))
    timer = stages.LapTimer()
    timer.mark()
    timer.mark()
    timer.close()
    assert timer.host == pytest.approx([0.10, 0.20])
    ref = stages.PROBE_REF_S
    assert timer.laps() == pytest.approx([0.10 * ref / 1.5e-3, 0.20 * ref / 1.5e-3])


def test_replay_marks_every_lap_of_records():
    class Counting(stages.LapTimer):
        marks = 0

        def mark(self):
            self.marks += 1

    timer = Counting()
    pairs = [(False, 0x40 * i) for i in range(1, 2 * stages.REPLAY_LAP_RECORDS + 2)]
    stages.replay(lambda va: (0, None), lambda va, d: None, pairs, timer)
    assert timer.marks == 3


def test_rates_use_the_median_pass():
    runs = [stages.PassResult(run_s=t, setup_s=t / 10, work=100)
            for t in (1.0, 4.0, 2.0)]
    stage_list = [stages.Stage("sgx_mgx", None, 1.0)]
    out = metrics.end_to_end(stage_list, {("sgx_mgx", 0): runs})
    assert out["lines_per_s.sgx_mgx"] == 100 / 2.0
    assert out["setup_s"] == pytest.approx(0.2)


def test_benchmark_json_lists_the_metrics_the_benchmark_prints():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]] == \
        list(metrics.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == \
        list(metrics.PER_LAYER)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values())
    assert {w["name"] for w in spec["workloads"]} == {"zero-offload", "fuzz-attack"}
