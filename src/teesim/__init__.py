"""teesim: integer-tick simulator of tensor-granularity trusted-execution
memory protection for CPU+NPU collaborative computing."""

__version__ = "0.1.0"

from .crypto import (
    BindingMode, CipherBlock, CounterBinding, IntegrityFault, KeyMaterial,
    VnTree, decrypt_block, encrypt_block, keystream, mac_block,
    mac_xor_aggregate,
)
from .baseline import CostReport, MetadataCache, PlainMemory, ProtectedMemory
from .config import (
    ConfigError, CpuConfig, CryptoConfig, LinkConfig, NpuConfig, SimConfig,
    WorkloadConfig, build_engine, load_config, load_config_file,
)
from .engine import Engine, Resource, SimError
from .nputee import FaultCounter, HaltError, NpuDevice, TensorRecord
from .tenanalyzer import MetaTableEntry, ReadOutcome, TenAnalyzer, WriteOutcome
from .transfer import (
    AttestationFailure, Enclave, MetadataMessage, ProtocolError, SessionState,
    TransferReport, attest_and_exchange, baseline_transfer, decode_metadata,
    direct_transfer, encode_metadata,
)
from .workloads import (
    TraceRecord, ZeroOffloadReport, gen_adam_trace, gen_fuzz_trace,
    gen_gemm_trace, read_trace, replay_trace, run_zero_offload, write_trace,
)

__all__ = [
    "AttestationFailure", "BindingMode", "CipherBlock", "ConfigError",
    "CostReport", "CounterBinding", "CpuConfig", "CryptoConfig", "Enclave",
    "Engine", "FaultCounter", "HaltError", "IntegrityFault", "KeyMaterial",
    "LinkConfig", "MetaTableEntry", "MetadataCache", "MetadataMessage",
    "NpuConfig", "NpuDevice", "PlainMemory", "ProtectedMemory",
    "ProtocolError", "ReadOutcome", "Resource", "SessionState", "SimConfig",
    "SimError", "TenAnalyzer", "TensorRecord", "TraceRecord",
    "TransferReport", "VnTree", "WorkloadConfig",
    "WriteOutcome", "ZeroOffloadReport", "attest_and_exchange",
    "baseline_transfer", "build_engine", "decode_metadata", "decrypt_block",
    "direct_transfer", "encode_metadata", "encrypt_block", "gen_adam_trace",
    "gen_fuzz_trace", "gen_gemm_trace", "keystream", "load_config",
    "load_config_file", "mac_block", "mac_xor_aggregate", "read_trace",
    "replay_trace", "run_zero_offload", "write_trace",
]
