"""Simulation configuration: dataclass sections with hardware defaults, JSON
loading with strict unknown-key rejection, and the engine/resource builder.

Defaults model a 3.5 GHz 8-core CPU with 2-channel DDR4-2400 (~38.4 GB/s) and
a 32 KB metadata cache, a 1 GHz NPU with a 512x512 PE array, 32 MB scratchpad
and 128 GB/s GDDR, one dedicated 8 GB/s AES engine per memory channel with a
40-cycle pipeline, and a PCIe 4.0 x16 (~32 GB/s) inter-chip link.
"""

from __future__ import annotations

import dataclasses
import json
import os
from dataclasses import dataclass, field
from typing import Any

from .engine import Engine, make_tick_hz

MODES = ("nonsecure", "sgx_mgx", "tensortee")
MODE_LABELS = {"nonsecure": "NonSecure", "sgx_mgx": "SGX+MGX", "tensortee": "TensorTEE"}

SEED_ENV_VAR = "TENSORTEE_SEED"


class ConfigError(Exception):
    """Bad config file or field; the CLI maps this to exit code 2."""


@dataclass
class CpuConfig:
    freq_hz: int = 3_500_000_000
    cores: int = 8
    dram_bytes_per_s: int = 38_400_000_000  # DDR4-2400, 2 channels
    dram_channels: int = 2
    dram_latency_cycles: int = 100
    metadata_cache_bytes: int = 32 * 1024
    # one engine per channel at channel line rate; only the 40-cycle pipeline
    # latency is architecturally visible on the CPU side
    aes_bytes_per_s: int = 19_200_000_000
    aes_latency_cycles: int = 40
    mac_bytes_per_s: int = 19_200_000_000
    mac_latency_cycles: int = 40
    meta_table_entries: int = 512
    filter_entries: int = 10
    filter_collect_limit: int = 4
    merge_window: int = 8
    bitmap_cache_bytes: int = 6 * 1024
    en_tmf: bool = True


@dataclass
class NpuConfig:
    freq_hz: int = 1_000_000_000
    pe_rows: int = 512
    pe_cols: int = 512
    scratchpad_bytes: int = 32 * 1024 * 1024
    gddr_bytes_per_s: int = 128_000_000_000
    gddr_bytes: int = 40 * 1024 ** 3
    gddr_latency_cycles: int = 40
    aes_bytes_per_s: int = 8_000_000_000
    aes_latency_cycles: int = 40
    mac_bytes_per_s: int = 8_000_000_000
    mac_latency_cycles: int = 40
    compute_cycles_per_line: int = 24
    verify_mode: str = "delayed"            # "delayed" | "blocking"
    mac_granularity: int = 512              # bytes, blocking mode only
    fault_threshold: int = 3


@dataclass
class LinkConfig:
    bytes_per_s: int = 32_000_000_000       # PCIe 4.0 x16
    latency_cycles: int = 100               # in CPU cycles
    trusted_channel_bytes_per_s: int = 1_000_000_000


@dataclass
class CryptoConfig:
    seed: int = 0x5EED
    functional: bool = True                 # False: plaintext payloads + MAC stubs


@dataclass
class WorkloadConfig:
    name: str = "adam"
    tensors: int = 16
    tensor_bytes_min: int = 256 * 1024
    tensor_bytes_max: int = 4 * 1024 * 1024
    threads: int = 8
    iterations: int = 5
    burst_lines: int = 32
    gemm_m: int = 256
    gemm_n: int = 256
    gemm_k: int = 256
    gemm_tile: int = 64
    zero_tensors: int = 4
    zero_tensor_bytes: int = 64 * 1024


@dataclass
class SimConfig:
    mode: str = "tensortee"
    cpu: CpuConfig = field(default_factory=CpuConfig)
    npu: NpuConfig = field(default_factory=NpuConfig)
    link: LinkConfig = field(default_factory=LinkConfig)
    crypto: CryptoConfig = field(default_factory=CryptoConfig)
    workload: WorkloadConfig = field(default_factory=WorkloadConfig)

    def __post_init__(self):
        if self.mode not in MODES:
            raise ConfigError(f"mode must be one of {MODES}, got {self.mode!r}")
        # rates, clocks and counts the engine divides by: a bad one would
        # otherwise surface as a simulator error from build_engine
        for section in ("cpu", "npu", "link"):
            for f in dataclasses.fields(getattr(self, section)):
                name = f.name
                if not (name.endswith(("bytes_per_s", "_hz"))
                        or name in ("dram_channels", "compute_cycles_per_line")):
                    continue
                v = getattr(getattr(self, section), name)
                if type(v) is not int or v <= 0:
                    raise ConfigError(f"{section}.{name} must be a positive "
                                      f"integer, got {v!r}")
        if self.npu.verify_mode not in ("delayed", "blocking"):
            raise ConfigError(f"npu.verify_mode must be delayed|blocking")
        g = self.npu.mac_granularity
        if not (64 <= g <= 4096 and g & (g - 1) == 0):
            raise ConfigError("npu.mac_granularity must be a power of two in [64, 4096]")


_SECTIONS = {"cpu": CpuConfig, "npu": NpuConfig, "link": LinkConfig,
             "crypto": CryptoConfig, "workload": WorkloadConfig}


def _fill_section(cls, data: dict, where: str):
    names = {f.name for f in dataclasses.fields(cls)}
    unknown = set(data) - names
    if unknown:
        raise ConfigError(f"unknown key(s) in section {where!r}: {sorted(unknown)}")
    return cls(**data)


def load_config(data: dict[str, Any]) -> SimConfig:
    """Build SimConfig from a parsed JSON object; any unknown key is an error."""
    if not isinstance(data, dict):
        raise ConfigError("config root must be a JSON object")
    unknown = set(data) - set(_SECTIONS) - {"mode"}
    if unknown:
        raise ConfigError(f"unknown top-level key(s): {sorted(unknown)}")
    kwargs: dict[str, Any] = {}
    if "mode" in data:
        kwargs["mode"] = data["mode"]
    for name, cls in _SECTIONS.items():
        if name in data:
            if not isinstance(data[name], dict):
                raise ConfigError(f"section {name!r} must be a JSON object")
            kwargs[name] = _fill_section(cls, data[name], name)
    try:
        cfg = SimConfig(**kwargs)
    except TypeError as e:
        raise ConfigError(str(e)) from e
    seed_override = os.environ.get(SEED_ENV_VAR)
    if seed_override is not None:
        try:
            cfg.crypto.seed = int(seed_override, 0)
        except ValueError as e:
            raise ConfigError(f"{SEED_ENV_VAR} must be an integer: {seed_override!r}") from e
    return cfg


def load_config_file(path: str) -> SimConfig:
    try:
        with open(path, "r", encoding="utf-8") as f:
            data = json.load(f)
    except FileNotFoundError as e:
        raise ConfigError(f"config file not found: {path}") from e
    except json.JSONDecodeError as e:
        raise ConfigError(f"{path}: line {e.lineno}: {e.msg}") from e
    return load_config(data)


def _per_tick(bytes_per_s: int, tick_hz: int) -> tuple[int, int]:
    # exact rational bytes/tick
    import math
    g = math.gcd(bytes_per_s, tick_hz)
    return bytes_per_s // g, tick_hz // g


def build_engine(cfg: SimConfig) -> Engine:
    """Engine with the standard resource set for one CPU+NPU system."""
    tick_hz = make_tick_hz(cfg.cpu.freq_hz, cfg.npu.freq_hz)
    eng = Engine(tick_hz=tick_hz)
    cpu_tpc = eng.ticks_per_cycle(cfg.cpu.freq_hz)
    npu_tpc = eng.ticks_per_cycle(cfg.npu.freq_hz)

    ch_bw = cfg.cpu.dram_bytes_per_s // cfg.cpu.dram_channels
    for ch in range(cfg.cpu.dram_channels):
        num, den = _per_tick(ch_bw, tick_hz)
        eng.add_resource(f"cpu_dram{ch}", num, den,
                         cfg.cpu.dram_latency_cycles * cpu_tpc)
        num, den = _per_tick(cfg.cpu.aes_bytes_per_s, tick_hz)
        eng.add_resource(f"cpu_aes{ch}", num, den,
                         cfg.cpu.aes_latency_cycles * cpu_tpc)
    num, den = _per_tick(cfg.cpu.mac_bytes_per_s, tick_hz)
    eng.add_resource("cpu_mac", num, den, cfg.cpu.mac_latency_cycles * cpu_tpc)

    num, den = _per_tick(cfg.npu.gddr_bytes_per_s, tick_hz)
    eng.add_resource("npu_gddr", num, den, cfg.npu.gddr_latency_cycles * npu_tpc)
    num, den = _per_tick(cfg.npu.aes_bytes_per_s, tick_hz)
    eng.add_resource("npu_aes", num, den, cfg.npu.aes_latency_cycles * npu_tpc)
    num, den = _per_tick(cfg.npu.mac_bytes_per_s, tick_hz)
    eng.add_resource("npu_mac", num, den, cfg.npu.mac_latency_cycles * npu_tpc)
    # PE array consumes one 64B line per compute_cycles_per_line NPU cycles
    eng.add_resource("npu_compute", 64, cfg.npu.compute_cycles_per_line * npu_tpc, 0)

    num, den = _per_tick(cfg.link.bytes_per_s, tick_hz)
    eng.add_resource("link", num, den, cfg.link.latency_cycles * cpu_tpc)
    num, den = _per_tick(cfg.link.trusted_channel_bytes_per_s, tick_hz)
    eng.add_resource("trusted_channel", num, den, cfg.link.latency_cycles * cpu_tpc)
    return eng
