"""Per-layer instrumentation: what the traced run wraps, and the metrics.

:func:`install` wraps each layer's public functions and methods at the
names their callers look up.  :func:`unit_table` folds the recorded
spans into per-unit counts, inclusive times and self times, and
:func:`layer_metrics` turns those into the named per-layer metrics.

:data:`CATALOG` is the one list of per-layer metrics.  Each row names
the end-to-end metric the layer metric should move, the workload on
which it moves, and a workload on which no change is predicted; the
README table and ``BENCHMARK.json`` follow it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Sequence, Tuple

import numpy as np

from perfbench.stats import median
from perfbench.trace import (
    Patcher,
    SpanRecorder,
    public_methods,
    self_times,
    wrap_call,
    wrap_generator,
    wrap_methods,
)

DES = "des_phantom"
OBS = "des_observed"
EXACT = "exact_solve"
CAMP = "campaign_serve"

# name, unit, better, layer, end-to-end metric it moves, moves on,
# no change predicted on
CATALOG: List[Tuple[str, str, str, str, str, str, str]] = [
    ("simulate.events", "count", "lower", "simulate",
     "run_wall_s", DES, EXACT),
    ("simulate.events_per_s", "1/s", "higher", "simulate",
     "run_wall_s", DES, CAMP),
    ("simulate.engine_self_s", "s", "lower", "simulate",
     "run_wall_s", DES, CAMP),
    ("simulate.transfers", "count", "lower", "simulate",
     "run_wall_s", DES, CAMP),
    ("simulate.transfer_s", "s", "lower", "simulate", "run_wall_s", DES, CAMP),
    ("core.rank_program_self_s", "s", "lower", "core",
     "run_wall_s", DES, CAMP),
    ("core.make_step_plan_calls", "count", "lower", "core",
     "run_wall_s", DES, CAMP),
    ("core.make_step_plan_s", "s", "lower", "core", "run_wall_s", DES, CAMP),
    ("core.factorization_s", "s", "lower", "core", "run_wall_s", EXACT, CAMP),
    ("core.refinement_s", "s", "lower", "core", "run_wall_s", EXACT, CAMP),
    ("core.ir_iterations", "count", "lower", "core",
     "run_wall_s", EXACT, CAMP),
    ("grid.local_blocks_calls", "count", "lower", "grid",
     "run_wall_s", DES, CAMP),
    ("grid.local_blocks_s", "s", "lower", "grid", "run_wall_s", DES, CAMP),
    ("machine.kernel_pricings", "count", "lower", "machine",
     "run_wall_s", DES, EXACT),
    ("machine.kernel_pricing_s", "s", "lower", "machine",
     "run_wall_s", DES, EXACT),
    ("machine.link_pricings", "count", "lower", "machine",
     "run_wall_s", CAMP, EXACT),
    ("machine.link_pricing_s", "s", "lower", "machine",
     "run_wall_s", CAMP, EXACT),
    ("comm.routes_built", "count", "lower", "comm", "run_wall_s", DES, CAMP),
    ("comm.route_build_s", "s", "lower", "comm", "run_wall_s", DES, CAMP),
    ("comm.messages", "count", "lower", "comm", "run_wall_s", DES, CAMP),
    ("comm.bytes", "B", "lower", "comm", "run_wall_s", DES, CAMP),
    ("scenario.compile_s", "s", "lower", "scenario", "run_wall_s", OBS, DES),
    ("obs.spans", "count", "lower", "obs", "run_wall_s", OBS, DES),
    ("obs.span_record_s", "s", "lower", "obs", "run_wall_s", OBS, DES),
    ("obs.health_s", "s", "lower", "obs", "run_wall_s", OBS, DES),
    ("obs.export_s", "s", "lower", "obs", "run_wall_s", OBS, DES),
    ("obs.export_bytes", "B", "lower", "obs", "run_wall_s", OBS, DES),
    ("lcg.block_calls", "count", "lower", "lcg", "run_wall_s", EXACT, DES),
    ("lcg.block_s", "s", "lower", "lcg", "run_wall_s", EXACT, DES),
    ("lcg.tile_cache_hit_ratio", "ratio", "higher", "lcg",
     "run_wall_s", EXACT, DES),
    ("lcg.tile_cache_lookups", "count", "lower", "lcg",
     "run_wall_s", EXACT, DES),
    ("lcg.bytes_generated", "B", "lower", "lcg", "run_wall_s", EXACT, DES),
    ("blas.gemm_calls", "count", "lower", "blas", "run_wall_s", EXACT, DES),
    ("blas.gemm_s", "s", "lower", "blas", "run_wall_s", EXACT, DES),
    ("blas.gemm_gflops", "GF/s", "higher", "blas", "run_wall_s", EXACT, DES),
    ("blas.getrf_s", "s", "lower", "blas", "run_wall_s", EXACT, DES),
    ("blas.trsm_s", "s", "lower", "blas", "run_wall_s", EXACT, DES),
    ("blas.gemv_s", "s", "lower", "blas", "run_wall_s", EXACT, DES),
    ("blas.trsv_s", "s", "lower", "blas", "run_wall_s", EXACT, DES),
    ("blas.flops", "count", "lower", "blas", "run_wall_s", EXACT, DES),
    ("model.estimates", "count", "lower", "model", "run_wall_s", CAMP, EXACT),
    ("model.estimate_s", "s", "lower", "model", "run_wall_s", CAMP, EXACT),
    ("model.estimates_per_s", "1/s", "higher", "model",
     "run_wall_s", CAMP, DES),
    ("campaign.execute_job_s", "s", "lower", "campaign",
     "run_wall_s", CAMP, DES),
    ("campaign.queue_checkpoints", "count", "lower", "campaign",
     "run_wall_s", CAMP, DES),
    ("campaign.queue_checkpoint_s", "s", "lower", "campaign",
     "run_wall_s", CAMP, DES),
    ("campaign.cache_get_s", "s", "lower", "campaign",
     "cached_jobs_per_s", CAMP, DES),
    ("campaign.cache_put_s", "s", "lower", "campaign",
     "run_wall_s", CAMP, DES),
    ("campaign.cache_hit_ratio", "ratio", "higher", "campaign",
     "cached_jobs_per_s", CAMP, DES),
    ("campaign.store_put_s", "s", "lower", "campaign",
     "run_wall_s", CAMP, DES),
    ("campaign.sweep_jobs_per_s", "jobs/s", "higher", "campaign",
     "run_wall_s", CAMP, DES),
    ("campaign.cached_jobs_per_s", "jobs/s", "higher", "campaign",
     "cached_jobs_per_s", CAMP, DES),
    ("serve.hit_p50_ms", "ms", "lower", "serve",
     "serve_hit_p50_ms", CAMP, DES),
    ("serve.hit_p99_ms", "ms", "lower", "serve",
     "serve_hit_p99_ms", CAMP, DES),
    ("serve.miss_p50_ms", "ms", "lower", "serve",
     "serve_miss_p50_ms", CAMP, DES),
    ("serve.server_run_p50_ms", "ms", "lower", "serve",
     "serve_hit_p50_ms", CAMP, DES),
    ("serve.server_results_p50_ms", "ms", "lower", "serve",
     "serve_hit_p50_ms", CAMP, DES),
    ("serve.client_overhead_ms", "ms", "lower", "serve",
     "serve_hit_p50_ms", CAMP, DES),
    ("serve.generator_late_ms", "ms", "lower", "serve",
     "serve_hit_p99_ms", CAMP, DES),
    ("serve.source_cache", "count", "higher", "serve",
     "serve_hit_p50_ms", CAMP, DES),
    ("serve.source_computed", "count", "lower", "serve",
     "serve_miss_p50_ms", CAMP, DES),
    ("serve.source_joined", "count", "higher", "serve",
     "serve_miss_p50_ms", CAMP, DES),
    ("trace_overhead_ratio", "ratio", "lower", "benchmark",
     "none", "all", "n/a"),
]

UNITS = {row[0]: row[1] for row in CATALOG}


# -- flop and byte counts reported by call hooks ------------------------------

def _gemm_flops(args, kwargs, result):
    _self, _c, a, b = args[:4]
    yield "blas.gemm_flops", 2.0 * a.shape[0] * b.shape[1] * a.shape[1]


def _getrf_flops(args, kwargs, result):
    n = args[1].shape[0]
    yield "blas.flops", 2.0 / 3.0 * n ** 3


def _trsm_flops(args, kwargs, result):
    t, b = args[3], args[4]
    yield "blas.flops", float(t.shape[0]) * b.size


def _gemv_flops(args, kwargs, result):
    a = args[2] if len(args) == 4 else args[1]  # gemv_update(y, a, x)
    yield "blas.flops", 2.0 * a.shape[0] * a.shape[1]


def _trsv_flops(args, kwargs, result):
    n = args[1].shape[0]
    yield "blas.flops", float(n) * n


def _generated_bytes(args, kwargs, result):
    yield "lcg.bytes_generated", float(result.nbytes)


def _cache_hit(args, kwargs, result):
    yield "campaign.cache_lookups", 1.0
    if result is not None:
        yield "campaign.cache_hits", 1.0


def _export_bytes(args, kwargs, result):
    import os

    yield "obs.export_bytes", float(os.path.getsize(result))


def install(rec: SpanRecorder) -> Patcher:
    """Wrap every layer's boundary functions; ``undo()`` removes them."""
    import repro.campaign.runner as runner
    import repro.core.driver  # noqa: F401 - binds names the scan rebinds
    import repro.core.gmres as gmres
    import repro.core.hplai as hplai
    import repro.core.layout as layout
    import repro.core.refine as refine
    import repro.model.perf_model as perf_model
    import repro.scenario.compile as scenario_compile
    import repro.tools.campaign  # noqa: F401
    from repro.blas.shim import BlasShim
    from repro.campaign.cache import RunCache
    from repro.campaign.queue import JobQueue
    from repro.campaign.store import ResultStore
    from repro.comm.route import ROUTE_BUILDERS
    from repro.grid.block_cyclic import BlockCyclicDim
    from repro.lcg.matrix import HplAiMatrix
    from repro.machine.kernels import CpuKernelModel, GpuKernelModel
    from repro.machine.topology import CommCosts
    from repro.obs.context import Observability
    from repro.obs.health.sampler import HealthMonitor
    from repro.obs.tracer import SpanTracer
    from repro.simulate.engine import Engine

    p = Patcher()
    for fn, span in (
        (hplai.hplai_rank_program, "core.rank_program"),
        (hplai.factorization_phase, "core.factorization"),
        (refine.refinement_phase, "core.refinement"),
        (gmres.gmres_refinement_phase, "core.refinement"),
    ):
        p.everywhere(fn, wrap_generator(fn, rec, span))
    for fn, span in (
        (layout.make_step_plan, "core.make_step_plan"),
        (scenario_compile.compile_scenario, "scenario.compile"),
        (perf_model.estimate_run, "model.estimate"),
        (runner.execute_job, "campaign.execute_job"),
    ):
        p.everywhere(fn, wrap_call(fn, rec, span))
    for algo, builder in list(ROUTE_BUILDERS.items()):
        p.set_item(ROUTE_BUILDERS, algo,
                   wrap_call(builder, rec, "comm.route_build"))

    wrap_methods(p, Engine, ["run"], rec, "simulate.engine_run")
    wrap_methods(p, Engine, ["_transfer"], rec, "simulate.transfer")
    wrap_methods(p, BlockCyclicDim, ["local_blocks_at_or_after"], rec,
                 "grid.local_blocks")
    for cls in (GpuKernelModel, CpuKernelModel):
        wrap_methods(p, cls, public_methods(cls, "_time"), rec,
                     "machine.kernel_pricing")
    wrap_methods(p, CommCosts,
                 [m for m in public_methods(CommCosts) if m != "describe"],
                 rec, "machine.link_pricing")
    wrap_methods(p, SpanTracer, ["add", "start", "end"], rec,
                 "obs.span_record")
    wrap_methods(p, HealthMonitor, public_methods(HealthMonitor), rec,
                 "obs.health")
    wrap_methods(p, Observability, ["export_chrome_trace"], rec, "obs.export",
                 _export_bytes)
    wrap_methods(p, HplAiMatrix, ["block"], rec, "lcg.block")
    wrap_methods(p, HplAiMatrix, ["_generate_block"], rec, "lcg.generate",
                 _generated_bytes)
    for methods, span, hook in (
        (["gemm_update"], "blas.gemm", _gemm_flops),
        (["getrf"], "blas.getrf", _getrf_flops),
        (["trsm"], "blas.trsm", _trsm_flops),
        (["gemv", "gemv_update"], "blas.gemv", _gemv_flops),
        (["trsv_lower_unit", "trsv_upper"], "blas.trsv", _trsv_flops),
    ):
        wrap_methods(p, BlasShim, methods, rec, span, hook)
    wrap_methods(p, JobQueue, ["checkpoint"], rec, "campaign.queue_checkpoint")
    wrap_methods(p, RunCache, ["get"], rec, "campaign.cache_get", _cache_hit)
    wrap_methods(p, RunCache, ["put"], rec, "campaign.cache_put")
    wrap_methods(p, ResultStore, ["put"], rec, "campaign.store_put")
    return p


# -- folding spans into per-unit figures --------------------------------------

@dataclass
class UnitTable:
    """Per-unit, per-span-name counts and times."""

    names: List[str]
    count: np.ndarray  # [unit, name]
    incl: np.ndarray   # inclusive seconds, outermost same-name spans only
    self_s: np.ndarray  # self seconds
    work: Dict[Tuple[int, str], float]

    def _col(self, name: str) -> int:
        return self.names.index(name) if name in self.names else -1

    def value(self, units: Sequence[int], name: str, kind: str) -> float:
        """Median over ``units`` of a span name's count/incl/self."""
        col = self._col(name)
        if col < 0 or not units:
            return 0.0
        table = {"count": self.count, "incl": self.incl,
                 "self": self.self_s}[kind]
        return median([float(table[u, col]) for u in units])

    def work_value(self, units: Sequence[int], key: str) -> float:
        """Median over ``units`` of a hook-reported quantity."""
        if not units:
            return 0.0
        return median([self.work.get((u, key), 0.0) for u in units])


def unit_table(rec: SpanRecorder, n_units: int) -> UnitTable:
    """Fold the recorder's spans into a :class:`UnitTable`."""
    cols = rec.columns()
    names = list(rec.names)
    shape = (n_units + 1, max(len(names), 1))
    count = np.zeros(shape)
    incl = np.zeros(shape)
    self_s = np.zeros(shape)
    if len(rec):
        name, unit, parent = cols["name"], cols["unit"], cols["parent"]
        dur = cols["end"] - cols["start"]
        own = self_times(cols["start"], cols["end"], parent)
        parent_name = np.where(parent >= 0, name[np.maximum(parent, 0)], -1)
        outer = parent_name != name
        flat = unit.astype(np.int64) * shape[1] + name
        size = shape[0] * shape[1]
        count = np.bincount(flat, minlength=size).reshape(shape).astype(float)
        incl = np.bincount(flat, weights=np.where(outer, dur, 0.0),
                           minlength=size).reshape(shape)
        self_s = np.bincount(flat, weights=own, minlength=size).reshape(shape)
    return UnitTable(names, count, incl, self_s, dict(rec.work))


def layer_metrics(t: UnitTable, units: Sequence[int],
                  facts: Dict[str, float]) -> Dict[str, tuple]:
    """Every catalog metric for the given traced units.

    ``facts`` carries figures measured outside the spans (event counts
    and traffic from the run result, serve latencies, overhead ratio);
    a catalog metric neither the spans nor the facts give is 0, which is
    what a layer that the workload never calls measures.
    """
    def c(name):
        return t.value(units, name, "count")

    def s(name):
        return t.value(units, name, "incl")

    def own(name):
        return t.value(units, name, "self")

    gemm_s = s("blas.gemm")
    gemm_flops = t.work_value(units, "blas.gemm_flops")
    est_s = s("model.estimate")
    lookups = t.work_value(units, "campaign.cache_lookups")
    out = {
        "simulate.engine_self_s": own("simulate.engine_run"),
        "simulate.transfers": c("simulate.transfer"),
        "simulate.transfer_s": s("simulate.transfer"),
        "core.rank_program_self_s": own("core.rank_program")
        + own("core.factorization") + own("core.refinement"),
        "core.make_step_plan_calls": c("core.make_step_plan"),
        "core.make_step_plan_s": s("core.make_step_plan"),
        "core.factorization_s": s("core.factorization"),
        "core.refinement_s": s("core.refinement"),
        "grid.local_blocks_calls": c("grid.local_blocks"),
        "grid.local_blocks_s": s("grid.local_blocks"),
        "machine.kernel_pricings": c("machine.kernel_pricing"),
        "machine.kernel_pricing_s": s("machine.kernel_pricing"),
        "machine.link_pricings": c("machine.link_pricing"),
        "machine.link_pricing_s": s("machine.link_pricing"),
        "comm.routes_built": c("comm.route_build"),
        "comm.route_build_s": s("comm.route_build"),
        "scenario.compile_s": s("scenario.compile"),
        "obs.span_record_s": s("obs.span_record"),
        "obs.health_s": s("obs.health"),
        "obs.export_s": s("obs.export"),
        "obs.export_bytes": t.work_value(units, "obs.export_bytes"),
        "lcg.block_calls": c("lcg.block"),
        "lcg.block_s": s("lcg.block"),
        "lcg.bytes_generated": t.work_value(units, "lcg.bytes_generated"),
        "blas.gemm_calls": c("blas.gemm"),
        "blas.gemm_s": gemm_s,
        "blas.gemm_gflops": gemm_flops / gemm_s / 1e9 if gemm_s else 0.0,
        "blas.getrf_s": s("blas.getrf"),
        "blas.trsm_s": s("blas.trsm"),
        "blas.gemv_s": s("blas.gemv"),
        "blas.trsv_s": s("blas.trsv"),
        "blas.flops": gemm_flops + t.work_value(units, "blas.flops"),
        "model.estimates": c("model.estimate"),
        "model.estimate_s": est_s,
        "model.estimates_per_s": c("model.estimate") / est_s if est_s else 0.0,
        "campaign.execute_job_s": s("campaign.execute_job"),
        "campaign.queue_checkpoints": c("campaign.queue_checkpoint"),
        "campaign.queue_checkpoint_s": s("campaign.queue_checkpoint"),
        "campaign.cache_get_s": s("campaign.cache_get"),
        "campaign.cache_put_s": s("campaign.cache_put"),
        "campaign.cache_hit_ratio": (
            t.work_value(units, "campaign.cache_hits") / lookups
            if lookups else 0.0
        ),
        "campaign.store_put_s": s("campaign.store_put"),
    }
    out.update(facts)
    unknown = set(out) - set(UNITS)
    if unknown:
        raise KeyError(f"metrics missing from the catalog: {sorted(unknown)}")
    return {name: (float(out.get(name, 0.0)), unit)
            for name, unit in UNITS.items()}


def rank_stats_totals(stats: Iterable) -> Dict[str, float]:
    """``comm.messages`` / ``comm.bytes`` summed over per-rank stats."""
    stats = list(stats)
    return {
        "comm.messages": float(sum(st.messages_sent for st in stats)),
        "comm.bytes": float(sum(st.bytes_sent for st in stats)),
    }
