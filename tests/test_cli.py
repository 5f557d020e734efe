"""CLI contract tests: subcommands, exit codes, output files, sweeps,
campaigns, reporting."""

import json

import pytest

from teesim import cli
from teesim.baseline import CostReport
from teesim.cli import main
from teesim.config import load_config
from teesim.engine import SimError
from teesim.nputee import HaltError
from teesim.transfer import ProtocolError

SMALL_ADAM = {
    "mode": "tensortee",
    "workload": {"name": "adam", "tensors": 1,
                 "tensor_bytes_min": 8192, "tensor_bytes_max": 8192,
                 "threads": 1, "iterations": 3},
    "crypto": {"functional": False},
}


def write_cfg(tmp_path, data, name="cfg.json") -> str:
    p = tmp_path / name
    p.write_text(json.dumps(data))
    return str(p)


def test_run_adam_writes_metrics(tmp_path):
    cfg = write_cfg(tmp_path, SMALL_ADAM)
    out = tmp_path / "out"
    assert main(["run", "--config", cfg, "--out", str(out)]) == 0
    m = json.loads((out / "metrics.json").read_text())
    assert m["workload"] == "adam" and m["mode"] == "tensortee"
    assert "hit_in" in m["hit_rates"]
    assert (out / "meta_table.json").exists()


@pytest.mark.parametrize("mode", ["sgx_mgx", "tensortee"])
def test_costs_csv_holds_the_cost_sample_of_a_memory_run(tmp_path, mode):
    # the sample itemizes a memory's accesses; a Meta Table run has none
    cfg = write_cfg(tmp_path, {
        "mode": mode, "crypto": {"functional": False},
        "workload": {"name": "gemm", "gemm_m": 64, "gemm_n": 64, "gemm_k": 64,
                     "gemm_tile": 16}})
    out = tmp_path / "out"
    assert main(["run", "--config", cfg, "--out", str(out)]) == 0
    sample = json.loads((out / "metrics.json").read_text())["cost_sample"]
    if mode == "tensortee":
        assert sample == [] and not (out / "costs.csv").exists()
        return
    header, *rows = (out / "costs.csv").read_text().splitlines()
    assert header == CostReport.csv_header()
    assert rows == sample and {r.split(",")[0] for r in rows} == {"R", "W"}


def test_run_bad_config_exits_2(tmp_path, capsys):
    # an unknown section, and a field that no simulated hardware reads
    for bad in ({"bogus_section": {}}, {"npu": {"verify_mode": "delayed"}}):
        cfg = write_cfg(tmp_path, {"mode": "tensortee", **bad})
        assert main(["run", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
        assert "config error: unknown" in capsys.readouterr().err


def test_run_bad_json_exits_2(tmp_path):
    p = tmp_path / "broken.json"
    p.write_text("{not json")
    assert main(["run", "--config", str(p), "--out", str(tmp_path / "o")]) == 2


@pytest.mark.parametrize("section,field,value", [
    ("link", "bytes_per_s", 0),
    ("cpu", "dram_channels", -1),
    ("npu", "freq_hz", 1.5e9),
    ("npu", "compute_cycles_per_line", 0),
])
def test_run_non_positive_rate_exits_2(tmp_path, capsys, section, field, value):
    cfg = write_cfg(tmp_path, {**SMALL_ADAM, section: {field: value}})
    assert main(["run", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    assert f"config error: {section}.{field} must be a positive integer" in \
        capsys.readouterr().err


@pytest.mark.parametrize("section,field,value", [
    ("npu", "aes_latency_cycles", -1000),
    ("cpu", "dram_latency_cycles", -1),
    ("link", "latency_cycles", 2.5),
    ("npu", "gddr_latency_cycles", "40"),
    ("cpu", "mac_latency_cycles", True),
])
def test_run_bad_latency_exits_2(tmp_path, capsys, section, field, value):
    cfg = write_cfg(tmp_path, {**SMALL_ADAM, section: {field: value}})
    assert main(["run", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    assert f"config error: {section}.{field} must be a non-negative integer" in \
        capsys.readouterr().err


def test_zero_latency_is_accepted():
    cfg = load_config({"npu": {"aes_latency_cycles": 0},
                       "link": {"latency_cycles": 0}})
    assert cfg.npu.aes_latency_cycles == 0 and cfg.link.latency_cycles == 0


def test_run_unknown_workload_field_exits_2(tmp_path):
    cfg = write_cfg(tmp_path, {"workload": {"name": "adam", "nope": 1}})
    assert main(["run", "--config", cfg, "--out", str(tmp_path / "o")]) == 2


def test_seed_env_override(tmp_path, monkeypatch):
    cfg = write_cfg(tmp_path, SMALL_ADAM)
    monkeypatch.setenv("TENSORTEE_SEED", "0x123")
    out = tmp_path / "o1"
    assert main(["run", "--config", cfg, "--out", str(out)]) == 0
    monkeypatch.setenv("TENSORTEE_SEED", "not-an-int")
    assert main(["run", "--config", cfg, "--out", str(tmp_path / "o2")]) == 2


def test_attack_campaign_full_detection(tmp_path):
    out = tmp_path / "atk"
    assert main(["run", "--attack", "bitflip", "--trials", "50",
                 "--out", str(out)]) == 0
    m = json.loads((out / "metrics.json").read_text())
    assert m["detection_rate"] == 1.0


def test_sweep_mac_granularity(tmp_path):
    cfg = write_cfg(tmp_path, {
        "mode": "sgx_mgx",
        "workload": {"name": "npu_stream", "zero_tensor_bytes": 16384},
        "crypto": {"functional": False},
    })
    out = tmp_path / "sweep"
    assert main(["run", "--config", cfg,
                 "--sweep", "mac_granularity=64,256,1024,4096",
                 "--out", str(out)]) == 0
    lines = (out / "sweep.csv").read_text().strip().splitlines()
    assert len(lines) == 5  # header + 4 points
    assert lines[0].startswith("mac_granularity,")
    for g in (64, 256, 1024, 4096):
        assert (out / f"mac_granularity_{g}" / "metrics.json").exists()


def test_sweep_bad_axis_exits_2(tmp_path):
    assert main(["run", "--sweep", "nonsense=1,2",
                 "--out", str(tmp_path / "s")]) == 2


@pytest.mark.parametrize("workload,fields,sweep", [
    ("adam", {"threads": 0}, None),
    ("zero", {"threads": 0}, None),
    ("zero", {}, "threads=0"),
    ("adam", {}, "threads=2,0"),    # no point runs before every point is checked
    ("adam", {}, "threads=two"),
    ("adam", {"tensors": 0}, None),
    ("zero", {"zero_tensors": 0}, None),
    ("gemm", {"gemm_tile": 48}, None),
    ("gemm", {"gemm_tile": 8, "gemm_m": 64, "gemm_n": 64, "gemm_k": 64}, None),
    ("zero", {"zero_tensor_bytes": 0}, None),
    ("adam", {"tensor_bytes_min": 8192, "tensor_bytes_max": 4096}, None),
    ("adam", {"burst_lines": 0}, None),
    ("npu_stream", {}, "mac_granularity=100"),
    ("adam", {}, "mode=bogus"),
    # axes the workload's runner never reads
    ("zero", {}, "tensors=1,4"),
    ("gemm", {}, "threads=1,2"),
    ("gemm", {}, "iterations=1,2"),
    ("npu_stream", {}, "iterations=1,2"),
])
def test_a_bad_workload_input_exits_2_before_any_run(tmp_path, capsys, monkeypatch,
                                                     workload, fields, sweep):
    ran = []
    monkeypatch.setitem(cli.RUNNERS, workload, ran.append)
    cfg = write_cfg(tmp_path, {"workload": {"name": workload, **fields}})
    out = tmp_path / "o"
    argv = ["run", "--config", cfg, "--out", str(out)]
    assert main(argv + ["--sweep", sweep] if sweep else argv) == 2
    assert "config error: " in capsys.readouterr().err
    assert not ran and not out.exists()


LIGHT_ZERO = {"mode": "tensortee", "crypto": {"functional": False},
              "workload": {"name": "zero", "zero_tensors": 1,
                           "zero_tensor_bytes": 4096, "threads": 1, "iterations": 1}}


@pytest.mark.parametrize("config,flags", [
    ({"cpu": {"en_tmf": False}}, []),
    ({"mode": "sgx_mgx", "cpu": {"en_tmf": False}}, ["--mode", "tensortee"]),
    ({"cpu": {"en_tmf": False}, "workload": {"name": "adam"}}, ["--workload", "zero"]),
    ({"mode": "sgx_mgx", "cpu": {"en_tmf": False}}, ["--sweep", "mode=sgx_mgx,tensortee"]),
])
def test_tensortee_zero_without_a_meta_table_exits_2(tmp_path, capsys, config, flags):
    # its tensors move only by the direct transfer, which needs the Meta
    # Table; the pair is refused however it is put together
    data = {**LIGHT_ZERO, **config,
            "workload": {**LIGHT_ZERO["workload"], **config.get("workload", {})}}
    out = tmp_path / "o"
    assert main(["run", "--config", write_cfg(tmp_path, data), "--out", str(out),
                 *flags]) == 2
    assert "needs the Meta Table" in capsys.readouterr().err
    assert not out.exists()


def test_a_sweep_of_a_field_the_runner_reads_runs_distinct_points(tmp_path):
    out = tmp_path / "s"
    assert main(["run", "--config", write_cfg(tmp_path, LIGHT_ZERO), "--out", str(out),
                 "--sweep", "iterations=1,2"]) == 0
    header, *rows = (out / "sweep.csv").read_text().splitlines()
    ticks = [row.split(",")[header.split(",").index("total_ticks")] for row in rows]
    assert len(ticks) == 2 and ticks[0] != ticks[1]


def test_report_over_three_modes(tmp_path):
    root = tmp_path / "runs"
    for mode in ("nonsecure", "sgx_mgx", "tensortee"):
        sub = root / mode
        sub.mkdir(parents=True)
        (sub / "metrics.json").write_text(json.dumps({
            "workload": "zero", "mode": mode,
            "total_ticks": {"nonsecure": 1000, "sgx_mgx": 3000,
                            "tensortee": 1080}[mode],
            "phases": {"npu_fwd": 400, "cpu_adam": 300},
        }))
    assert main(["report", str(root)]) == 0
    perf = (root / "performance.csv").read_text()
    assert "NonSecure" in perf and "SGX+MGX" in perf and "TensorTEE" in perf
    norm = {line.split(",")[1]: float(line.split(",")[3])
            for line in perf.strip().splitlines()[1:]}
    assert norm["NonSecure"] == 1.0
    assert norm["SGX+MGX"] == 3.0
    assert (root / "breakdown.csv").exists()


def test_report_empty_dir_exits_2(tmp_path):
    empty = tmp_path / "empty"
    empty.mkdir()
    assert main(["report", str(empty)]) == 2


@pytest.mark.parametrize("exc,code,label", [
    (HaltError("verification failures exceeded threshold"), 5, "npu halt"),
    (ProtocolError("tensor is mid-update"), 6, "protocol error"),
    (SimError("resource link: capacity must be positive"), 7, "simulator error"),
])
def test_run_error_exit_codes(tmp_path, capsys, monkeypatch, exc, code, label):
    def failing_runner(cfg):
        raise exc

    monkeypatch.setitem(cli.RUNNERS, "adam", failing_runner)
    cfg = write_cfg(tmp_path, SMALL_ADAM)
    assert main(["run", "--config", cfg, "--out", str(tmp_path / "o")]) == code
    assert label in capsys.readouterr().err


def test_trace_dump_stdout_and_file(tmp_path, capsys):
    assert main(["trace-dump", "--workload", "gemm", "--limit", "5"]) == 0
    outlines = capsys.readouterr().out.strip().splitlines()
    assert len(outlines) == 5
    target = tmp_path / "t.trace.gz"
    cfg = write_cfg(tmp_path, SMALL_ADAM)
    assert main(["trace-dump", "--config", cfg, "--workload", "adam",
                 "--out-file", str(target)]) == 0
    from teesim.workloads import read_trace
    # 8 KiB tensor = 128 lines: (4 + 3 streams) x 128 x 3 iterations
    assert len(read_trace(str(target))) == 7 * 128 * 3


def test_selftest_passes(capsys):
    assert main(["selftest"]) == 0
    out = capsys.readouterr().out
    ran = out.count("[PASS]")
    assert ran >= 6 and f"{ran}/{ran} checks passed" in out
    assert "FAIL" not in out


@pytest.mark.parametrize("argv,flag,least", [
    (["run", "--attack", "bitflip", "--trials", "-3"], "--trials", 1),
    (["run", "--attack", "bitflip", "--trials", "0"], "--trials", 1),
    (["trace-dump", "--workload", "fuzz", "--ops", "-5"], "--ops", 1),
    (["trace-dump", "--workload", "fuzz", "--ops", "0"], "--ops", 1),
    (["trace-dump", "--workload", "fuzz", "--limit", "-1"], "--limit", 0),
])
def test_a_count_below_its_floor_exits_2(tmp_path, capsys, argv, flag, least):
    out = tmp_path / "o"
    assert main(argv + ["--out", str(out)] if argv[0] == "run" else argv) == 2
    printed = capsys.readouterr()
    assert printed.out == "" and not out.exists()
    assert printed.err.splitlines() == [
        f"config error: {flag} must be at least {least}, got {argv[-1]}"]


def test_a_zero_limit_prints_no_records(capsys):
    assert main(["trace-dump", "--workload", "fuzz", "--ops", "5", "--limit", "0"]) == 0
    assert capsys.readouterr().out == ""
