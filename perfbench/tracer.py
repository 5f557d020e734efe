"""Outside-in tracer for teesim: times calls into each module's public
functions without touching the program.

`Tracer.install()` replaces the traced functions and methods with timing
wrappers and `uninstall()` puts the originals back. A module-level function is
rebound in every loaded `teesim` module that holds it, because the program
imports its primitives by name (`from .crypto import keystream`), so patching
`teesim.crypto` alone would leave the calls from `baseline`, `tenanalyzer`,
`nputee` and `transfer` unmeasured.

Every wrapped call is a span. Spans nest through a stack; a span's self time
is its duration minus the durations of the spans it directly encloses, and
is charged to the span's layer (the module the function lives in). Hot
per-line calls are not kept as span objects: each name keeps a call count, a
summed duration and, where a percentile is reported, a flat array of
durations, so memory stays bounded by one float per call.
"""

from __future__ import annotations

import math
import sys
import time
from array import array

# (layer, metric name, owner, attribute, keep per-call durations)
# owner is a dotted "module:Class" or a module path for module functions.
# install_hint, install_transferred and attest_and_exchange report no metric
# of their own; they are wrapped so that their time is charged to their own
# layer rather than to the caller's.
TRACED = (
    ("crypto", "crypto.keystream", "teesim.crypto", "keystream", True),
    ("crypto", "crypto.mac_block", "teesim.crypto", "mac_block", True),
    ("crypto", "crypto.encrypt_block", "teesim.crypto", "encrypt_block", False),
    ("crypto", "crypto.decrypt_block", "teesim.crypto", "decrypt_block", False),
    ("crypto", "crypto.vntree.update_path", "teesim.crypto:VnTree", "update_path", True),
    ("crypto", "crypto.vntree.verify_path", "teesim.crypto:VnTree", "verify_path", False),
    ("crypto", "crypto.vntree.build", "teesim.crypto:VnTree", "build", False),
    ("baseline", "baseline.read_line", "teesim.baseline:ProtectedMemory", "read_line", True),
    ("baseline", "baseline.write_line", "teesim.baseline:ProtectedMemory", "write_line", True),
    ("tenanalyzer", "tenanalyzer.on_read", "teesim.tenanalyzer:TenAnalyzer", "on_read", True),
    ("tenanalyzer", "tenanalyzer.on_write", "teesim.tenanalyzer:TenAnalyzer", "on_write", True),
    ("tenanalyzer", "tenanalyzer.install_hint", "teesim.tenanalyzer:TenAnalyzer", "install_hint", False),
    ("nputee", "nputee.load", "teesim.nputee:NpuDevice", "load_tensor_stream", False),
    ("nputee", "nputee.store", "teesim.nputee:NpuDevice", "store_tensor_stream", False),
    ("nputee", "nputee.install_transferred", "teesim.nputee:NpuDevice", "install_transferred", False),
    ("transfer", "transfer.relay", "teesim.transfer", "baseline_transfer", False),
    ("transfer", "transfer.direct", "teesim.transfer", "direct_transfer", False),
    ("transfer", "transfer.attest_and_exchange", "teesim.transfer", "attest_and_exchange", False),
    ("engine", "engine.reserve", "teesim.engine:Engine", "reserve", True),
    ("workloads", "workloads.run", "teesim.workloads:ZeroOffloadRunner", "run", False),
    ("workloads", "workloads.gen_fuzz_trace", "teesim.workloads", "gen_fuzz_trace", False),
    ("workloads", "workloads.adam_layouts", "teesim.workloads", "adam_layouts", False),
    ("cli", "cli.run_attack_campaign", "teesim.cli", "run_attack_campaign", False),
)

LAYERS = ("crypto", "baseline", "tenanalyzer", "nputee", "transfer", "engine",
          "workloads", "cli")


class _Stat:
    """Per-name aggregate: calls, summed duration, optional duration array."""

    __slots__ = ("calls", "total_s", "durations")

    def __init__(self, keep_durations: bool):
        self.calls = 0
        self.total_s = 0.0
        self.durations = array("d") if keep_durations else None


class Tracer:
    """Span timing for the functions in TRACED. One tracer may be installed
    and uninstalled many times; its aggregates accumulate across installs."""

    def __init__(self, traced=TRACED):
        self.traced = traced
        self.stats = {name: _Stat(keep) for _, name, _, _, keep in traced}
        self.layer_self = {layer: 0.0 for layer in LAYERS}
        self._stack: list[float] = []
        self._undo: list[tuple[object, str, object]] = []

    # -- installation ---------------------------------------------------------

    def install(self) -> None:
        if self._undo:
            raise RuntimeError("tracer already installed")
        for layer, name, owner, attr, _ in self.traced:
            mod_name, _, cls_name = owner.partition(":")
            mod = sys.modules[mod_name]
            if cls_name:
                cls = getattr(mod, cls_name)
                orig = cls.__dict__[attr]
                self._set(cls, attr, self._wrap(layer, name, orig))
                continue
            orig = getattr(mod, attr)
            wrapper = self._wrap(layer, name, orig)
            for m_name, m in list(sys.modules.items()):
                if m is None or not (m_name == "teesim" or m_name.startswith("teesim.")):
                    continue
                if getattr(m, attr, None) is orig:
                    self._set(m, attr, wrapper)

    def uninstall(self) -> None:
        while self._undo:
            obj, attr, orig = self._undo.pop()
            setattr(obj, attr, orig)

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    def _set(self, obj, attr, value) -> None:
        self._undo.append((obj, attr, vars(obj)[attr]))
        setattr(obj, attr, value)

    def _wrap(self, layer: str, name: str, fn):
        stat = self.stats[name]
        durations = stat.durations
        layer_self = self.layer_self
        stack = self._stack
        perf = time.perf_counter

        def traced(*args, **kwargs):
            stack.append(0.0)
            t0 = perf()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = perf() - t0
                child = stack.pop()
                if stack:
                    stack[-1] += dt
                layer_self[layer] += dt - child
                stat.calls += 1
                stat.total_s += dt
                if durations is not None:
                    durations.append(dt)

        traced.__name__ = getattr(fn, "__name__", name)
        traced.__wrapped__ = fn
        return traced

    # -- results --------------------------------------------------------------

    def calls(self, name: str) -> int:
        return self.stats[name].calls

    def total_s(self, name: str) -> float:
        return self.stats[name].total_s

    def percentile(self, name: str, q: float) -> float:
        """Nearest-rank percentile of one name's call durations, in seconds
        (0 when the name was never called)."""
        d = self.stats[name].durations
        if not d:
            return 0.0
        s = sorted(d)
        return s[max(0, math.ceil(q * len(s)) - 1)]

    def merge(self, other: "Tracer", factor: float = 1.0) -> None:
        """Add `other`'s counts and times, multiplied by `factor`, and its
        durations: factor 1/n turns n traced passes into one average pass."""
        for name, st in other.stats.items():
            mine = self.stats[name]
            mine.calls += st.calls * factor
            mine.total_s += st.total_s * factor
            if mine.durations is not None:
                mine.durations.extend(st.durations)
        for layer, v in other.layer_self.items():
            self.layer_self[layer] += v * factor
