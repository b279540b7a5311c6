"""Fig 10: per-iteration component timing breakdown on Frontier, 64 GCDs.

Runs the discrete-event engine (real rank programs, phantom payloads)
and reports rank 0's per-iteration phase times: the benchmark is
compute-bound until the final trailing iterations, where communication
waits dominate.
"""

from conftest import run_once

from repro.bench import figures, render_records


def test_fig10_timing_breakdown(benchmark, show):
    rows = run_once(benchmark, figures.fig10_timing_breakdown)
    show(render_records(rows, title="Fig 10: per-iteration breakdown (rank 0)",
                        float_fmt="{:.4f}"))
    assert len(rows) > 5
    # rows[0] includes the look-ahead pipeline fill; use the next sample
    # as the steady-state early point.
    early, last = rows[1], rows[-1]
    # Early iterations: GEMM dominates (computationally bound).
    assert early["gemm_s"] > early["comm_wait_s"]
    assert early["comm_fraction_pct"] < 25.0
    # GEMM time shrinks dramatically toward the end.
    assert last["gemm_s"] < 0.2 * early["gemm_s"]
    # "the HPL-AI benchmark is computationally bounded until the final
    # trailing iterations": the tail is communication-dominated.
    assert last["comm_fraction_pct"] > 60.0


def test_fig10_gantt_view(benchmark, show):
    """Per-rank Gantt of a small run: the visual form of Fig 10."""
    from repro.core.config import BenchmarkConfig
    from repro.core.driver import simulate_run
    from repro.machine import FRONTIER
    from repro.obs import Observability
    from repro.obs.analysis.imbalance import load_imbalance
    from repro.simulate.timeline import render_gantt

    def run():
        cfg = BenchmarkConfig(n=3072 * 8, block=3072, machine=FRONTIER,
                              p_rows=2, p_cols=2, bcast_algorithm="ring2m")
        obs = Observability()
        return obs, simulate_run(cfg, obs=obs)

    obs, result = run_once(benchmark, run)
    show(render_gantt(obs.tracer.as_timeline(cats=["executor", "engine"]),
                      width=96))
    loads = load_imbalance(obs.tracer.spans, result.elapsed, 4).ranks
    # The GPUs stay predominantly busy (compute-bound run).
    assert all(r.busy_fraction > 0.5 for r in loads)
