"""teesim host-time benchmark.

    python3 perfbench/run.py --workload zero-offload --seed 1 --seconds 40 --trace 0

Runs one workload in this process, one simulation at a time (a closed loop
with one client), for about `--seconds` seconds, checks the simulated outputs
and prints every metric by name and unit. The last line of standard output is
one JSON object: {"correct", "attempted", "failed", "metrics"}. With
`--trace 0` the metrics are the end-to-end host-time metrics; with
`--trace 1` they are the per-layer metrics from the outside-in tracer.

The program is imported from `src/` of the checkout this file sits in, never
from an installed copy; without it the benchmark exits with code 2 and prints
no result. If a method that the zero-offload laps hook is gone, it exits with
code 3, again with no result. See perfbench/README.md for the workloads and
metrics.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEED_ENV_VAR = "TENSORTEE_SEED"
EXIT_NO_PROGRAM = 2
EXIT_MISSING_HOOK = 3


def import_program() -> None:
    """Import teesim from the checkout, never from an installed copy."""
    src = ROOT / "src"
    if not (src / "teesim" / "__init__.py").is_file():
        raise ImportError(f"no teesim package under {src}")
    sys.path.insert(0, str(src))
    import teesim.cli  # noqa: F401  (imports every teesim module and numpy)
    if Path(sys.modules["teesim"].__file__).resolve().parent != src / "teesim":
        raise ImportError("teesim was not imported from this checkout")


def schedule(units: list, seconds: float, run_unit) -> None:
    """Run passes until `seconds` have elapsed. Every unit runs at least once;
    after that the unit with the least wall time per unit weight goes next,
    and the loop stops when that unit's last pass would overrun the budget."""
    start = time.perf_counter()
    spent = {u: 0.0 for u in units}
    last = {}
    while True:
        u = min(units, key=lambda u: spent[u] / u[1])
        elapsed = time.perf_counter() - start
        if u in last and elapsed + last[u] > seconds:
            return
        t0 = time.perf_counter()
        run_unit(u)
        last[u] = time.perf_counter() - t0
        spent[u] += last[u]


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True,
                   choices=("zero-offload", "fuzz-attack"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    dropped = os.environ.pop(SEED_ENV_VAR, None)
    try:
        import_program()
    except ImportError as e:
        print(f"perfbench: cannot import the program: {e}", file=sys.stderr)
        return EXIT_NO_PROGRAM
    import metrics
    import stages
    from tracer import Tracer

    try:
        stage_list = stages.make_stages(args.workload, args.seed)
    except stages.MissingHook as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return EXIT_MISSING_HOOK
    print(f"workload {args.workload} seed {args.seed} seconds {args.seconds:g} "
          f"trace {args.trace}")
    if dropped is not None:
        print(f"note: ignored {SEED_ENV_VAR}={dropped}; using --seed {args.seed}")

    if args.trace:  # a fresh interpreter's import has no spans to trace
        stage_list = [s for s in stage_list if s.name != "import"]
    by_name = {s.name: s for s in stage_list}
    passes = {(s.name, traced): [] for s in stage_list
              for traced in ((0, 1) if args.trace else (0,))}
    tracers = {s.name: Tracer() for s in stage_list}
    totals = {"ops": 0, "failed": 0}
    errors: list[str] = []

    def run_unit(unit):
        (name, traced), _ = unit
        stage = by_name[name]
        gc.collect()  # garbage of the previous pass must not be timed here
        try:
            if traced:
                with tracers[name]:
                    res = stage.run()
            else:
                res = stage.run()
        except Exception as e:  # a program failure fails one operation; go on
            totals["ops"] += 1
            totals["failed"] += 1
            errors.append(f"{name}: {type(e).__name__}: {e}")
            traceback.print_exc(file=sys.stderr)
            return
        totals["ops"] += res.ops
        totals["failed"] += res.failed
        errors.extend(res.errors)
        passes[(name, traced)].append(res)

    units = [(key, by_name[key[0]].weight) for key in passes]
    schedule(units, args.seconds, run_unit)

    # every pass of a stage, traced or not, must simulate the same thing
    for s in stage_list:
        runs = [r for key in passes if key[0] == s.name for r in passes[key]]
        digests = [stages.digest(r.fingerprint) for r in runs]
        for d in digests[1:]:
            totals["ops"] += 1
            if d != digests[0]:
                totals["failed"] += 1
                errors.append(f"{s.name}: simulated outputs differ between passes")
        if runs:
            print(f"fingerprint {args.workload} {s.name} {digests[0]} "
                  f"{json.dumps(runs[0].fingerprint, sort_keys=True)}")
        for key in passes:
            if key[0] == s.name:
                rs = passes[key]
                print(f"passes {s.name} traced={key[1]} n={len(rs)} work={rs[0].work if rs else 0} "
                      f"setup_s={sum(r.setup_s for r in rs):.3f} "
                      f"run_s={sum(r.run_s for r in rs):.3f} "
                      f"each={','.join(f'{r.run_s:.4f}' for r in rs)} "
                      f"host_each={','.join(f'{r.host_run_s:.4f}' for r in rs)}")

    for e in errors[:20]:
        print(f"FAILED {e}")
    if args.trace:
        values = metrics.per_layer(stage_list, passes, tracers)
    else:
        values = metrics.end_to_end(stage_list, passes)
    units_of = metrics.UNITS
    for name, v in values.items():
        print(f"metric {name} {v!r} {units_of[name]}")
    ops, failed = totals["ops"], totals["failed"]
    print(f"ops {ops} ops_failed {failed} fail_ratio {failed / max(1, ops)!r}")
    print(json.dumps({
        "correct": failed == 0, "attempted": max(1, ops), "failed": failed,
        "metrics": {n: {"value": v, "unit": units_of[n]} for n, v in values.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
