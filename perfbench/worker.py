"""One benchmark process: set up a workload, then measure or trace it.

Started by ``run.py`` in a fresh process for every sample, so that imports
and caches start cold.  Prints one JSON object on its last line.

    worker.py setup --workload W --seed N
        set up only; report the monotonic clock at "inputs ready" and the
        CPU speed just after.
    worker.py run --workload W --seed N --seconds S
        set up, then run passes of the workload until S seconds have gone
        (at least three passes).
    worker.py trace --seed N
        set up all four workloads; for each, one untraced pass and one traced
        pass, and report per-layer metrics from the traced one.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import sys
import time
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402  (imports bihomega: part of set-up)
from tracer import Tracer, ratio  # noqa: E402

MIN_PASSES = 3
PROBE_EVERY_S = 0.25
# About the fastest the speed probe ran on the 2-vCPU Xeon (Sapphire Rapids)
# KVM guest with Python 3.11.7 where the benchmark was defined; wall_s and
# setup_s are expressed in seconds at that speed.
PROBE_REFERENCE_S = 0.007


def speed_probe() -> float:
    """Seconds for a fixed exact-rational loop that uses no bihomega code.

    Other tenants of a shared machine slow this CPU by up to half for
    minutes at a time; the probe, run between items, measures how fast the
    interpreter runs rational arithmetic and dict updates at that moment.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        started = time.perf_counter()
        acc, seen = Fraction(0), {}
        for i in range(1, 1500):
            acc += Fraction(i % 7 - 3) * Fraction(3)
            seen[(i % 97, i % 13)] = acc
        return time.perf_counter() - started
    finally:
        if enabled:
            gc.enable()


def current_speed() -> float:
    """This CPU's speed now, as a share of the reference speed."""
    return PROBE_REFERENCE_S / statistics.mean(speed_probe() for _ in range(3))


class ProbedPass(workloads.Pass):
    """A pass that runs the speed probe between items, at most every PROBE_EVERY_S."""

    def __init__(self):
        super().__init__()
        self.probes = [speed_probe()]
        self._last = time.perf_counter()

    def item(self, *args, **kwargs):
        value = super().item(*args, **kwargs)
        if time.perf_counter() - self._last >= PROBE_EVERY_S:
            self.probes.append(speed_probe())
            self._last = time.perf_counter()
        return value


def environment() -> dict:
    import bihomega
    from bihomega import rationals

    source = Path(bihomega.__file__).resolve()
    if ROOT / "src" not in source.parents:
        raise SystemExit(f"bihomega imported from {source}, not from this checkout's src/")
    return {
        "backend": getattr(rationals, "RAT_BACKEND", "unknown"),
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
    }


def run_phase(name: str, seed: int, seconds: float) -> dict:
    """Run passes until ``seconds`` have gone and at least ``MIN_PASSES`` ran.

    Each pass reports its item latencies and its speed: the reference probe
    time over the mean probe time during the pass.
    """
    wl = workloads.build(name, seed, ROOT)
    ready = time.monotonic()
    setup_speed = current_speed()
    passes, speeds, refused, failures = [], [], 0, []
    started = time.perf_counter()
    while len(passes) < MIN_PASSES or time.perf_counter() - started < seconds:
        p = ProbedPass()
        wl.run_pass(p)
        p.probes.append(speed_probe())
        passes.append(p.latencies)
        speeds.append(PROBE_REFERENCE_S / statistics.mean(p.probes))
        refused += p.refused
        failures += p.failures
    return {
        "ready": ready,
        "speed": setup_speed,
        "passes": passes,
        "speeds": speeds,
        "refused": refused,
        "failures": failures,
        "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }


# Per-layer metrics of each workload's traced pass: metric -> unit.  The
# comment above each group says which end-to-end metric it should move.
LAYER_METRICS = {
    # ladder: wall_s and peak_rss_mb; on brackets the same changes should show none.
    "ladder": {
        "cochain.equivariant_basis.self_s": "s",
        "cochain.equivariant_basis.calls": "count",
        "cochain.equivariant_basis.dim": "count",
        "cochain.delta_op.self_s": "s",
        "cochain.delta_op.nnz": "count",
        "cochain.delta_matrix.self_s": "s",
        "cochain.delta_matrix.entries": "count",
        "linalg.rank.self_s": "s",
        "linalg.sparse_rref.self_s": "s",
        "linalg.sparse_rref.rows_in": "count",
        "linalg.sparse_rref.pivots": "count",
        "linalg.sparse_rref.useful_ratio": "ratio",
        "cochain.cohomology_dims.refused_ratio": "ratio",
    },
    # combined: wall_s.
    "combined": {
        "rbf.phi.self_s": "s",
        "rbf.phi.calls": "count",
        "rbf.partial.self_s": "s",
        "rbf.partial.calls": "count",
        "rbf.partial.useful_ratio": "ratio",
        "cochain.apply_delta.self_s": "s",
        "cochain.delta_op.hit_ratio": "ratio",
        "rbf.combined_raw_matrix.self_s": "s",
        "rbf.combined_raw_matrix.entries": "count",
        "rbf.chain_map_check.self_s": "s",
    },
    # brackets: wall_s and item_p90_ms.
    "brackets": {
        "gerstenhaber.circ_i.self_s": "s",
        "gerstenhaber.circ_i.calls": "count",
        "gerstenhaber.circ_i.coords_out": "count",
        "gerstenhaber.bracket.self_s": "s",
        "gerstenhaber.bracket.calls": "count",
        "gerstenhaber.mc_residual.self_s": "s",
    },
    # fixtures: item_p50_ms and item_p90_ms here, setup_s everywhere.
    "fixtures": {
        "serialization.parse_workbench.self_s": "s",
        "serialization.parse_workbench.bytes": "bytes",
        "serialization.workbench_to_json.self_s": "s",
        "algebra.validate_algebra.self_s": "s",
        "algebra.check_rota_baxter.self_s": "s",
        "bimodule.validate_bimodule.self_s": "s",
        "bimodule.validate_rbf_bimodule.self_s": "s",
        "deformation.check_jet.self_s": "s",
        "deformation.rigidity_report.self_s": "s",
        "extension.build_extension.self_s": "s",
        "extension.extract_cocycle.self_s": "s",
        "extension.compare_extensions.self_s": "s",
        "search.search_rbf.self_s": "s",
        "search.search_rbf.candidates": "count",
        "search.search_rbf.hit_ratio": "ratio",
        "cli.run_command.self_s": "s",
    },
}
# On every workload: the share of nonzero scalars in coboundary, coboundary
# matrix and bracket outputs that are integers (explains wall_s on brackets
# and ladder), and the tracing overhead.
COMMON_METRICS = {"rationals.integral_share": "ratio", "trace.overhead_s": "s"}


def layer_values(tr: Tracer) -> dict:
    c, self_s = tr.counts, tr.self_times()
    values = {}
    for name, t in self_s.items():
        values[name + ".self_s"] = t
    for key, v in c.items():
        values[key] = v
    values["linalg.sparse_rref.useful_ratio"] = ratio(
        c["linalg.sparse_rref.pivots"], c["linalg.sparse_rref.nonzero_rows"]
    )
    values["cochain.cohomology_dims.refused_ratio"] = ratio(
        c["cochain.cohomology_dims.raised.InternalCheckError"], c["cochain.cohomology_dims.calls"]
    )
    values["rbf.partial.useful_ratio"] = ratio(c["rbf.partial.calls"], tr.routes_per_partial())
    values["cochain.delta_op.hit_ratio"] = ratio(c["cochain.delta_op.hits"], c["cochain.delta_op.calls"])
    values["search.search_rbf.hit_ratio"] = ratio(
        c["search.search_rbf.hits"], c["search.search_rbf.candidates"]
    )
    values["rationals.integral_share"] = ratio(c["rationals.integral"], c["rationals.nonzero"])
    return values


def trace_phase(seed: int) -> dict:
    built = {name: workloads.build(name, seed, ROOT) for name in workloads.WORKLOAD_NAMES}
    metrics, attempted, refused, failures, notes = {}, 0, 0, [], []
    for name, wl in built.items():
        passes = [workloads.Pass(), workloads.Pass()]
        tracer = Tracer()
        t0 = time.perf_counter()
        wl.run_pass(passes[0])
        t1 = time.perf_counter()
        with tracer:
            wl.run_pass(passes[1])
        t2 = time.perf_counter()
        for p in passes:
            attempted += p.attempted
            refused += p.refused
            failures += p.failures
        values = layer_values(tracer)
        notes += [
            f"note: {name}: tracer could not read {key[: -len('.unobserved')]} in {n} calls"
            for key, n in tracer.counts.items()
            if key.endswith(".unobserved")
        ]
        values["trace.overhead_s"] = (t2 - t1) - (t1 - t0)
        for metric, unit in {**LAYER_METRICS[name], **COMMON_METRICS}.items():
            metrics[f"{name}.{metric}"] = {"value": values.get(metric, 0), "unit": unit}
    return {"metrics": metrics, "attempted": attempted, "refused": refused, "failures": failures, "notes": notes}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("phase", choices=("setup", "run", "trace"))
    parser.add_argument("--workload", choices=workloads.WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    args = parser.parse_args(argv)
    if args.phase != "trace" and args.workload is None:
        parser.error("--workload is required for setup and run")
    env = environment()
    if args.phase == "setup":
        workloads.build(args.workload, args.seed, ROOT)
        out = {"ready": time.monotonic(), "speed": current_speed()}
    elif args.phase == "run":
        out = run_phase(args.workload, args.seed, args.seconds)
    else:
        out = trace_phase(args.seed)
    out["env"] = env
    sys.stdout.write(json.dumps(out) + "\n")


if __name__ == "__main__":
    main()
