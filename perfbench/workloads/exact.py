"""``exact_solve``: time to an FP64-accurate solution.

``run_benchmark(cfg, exact=True)`` on Frontier with n=2048, B=64 and a
2x2 grid, the LCG tile cache cleared before each solve so every solve
regenerates its matrix.  The work is in the ``lcg`` generator, the
``blas`` mixed-precision kernels and the precision casts; the engine
sees only a few thousand events.

The seed is the matrix's LCG seed.  Every solve must converge, and all
solves of a run must return the bitwise-same ``x``.  The first solve of
a run must pass the HPL acceptance test
(:func:`repro.core.verify.verify_solution`), and its checksums
``sum(x)`` and ``||x||_1`` must equal those of a reference solution to
within ``CHECKSUM_RTOL`` of ``||x||_1``.  The reference is LAPACK's FP64
solve of the same generated matrix, made after the timed window, so
every seed is checked.  Both solutions are accurate to a few ulps (the
matrix is diagonally dominant), so a tolerance this tight still catches
any wrong answer while letting a kernel change the last bits.
"""

from __future__ import annotations

import time
from typing import Dict, List

import numpy as np

from perfbench import harness, layers
from perfbench.harness import Context, Outcome

N, BLOCK, GRID = 2048, 64, 2
CHECKSUM_RTOL = 1e-10


def make_config(seed: int):
    from repro.core.config import BenchmarkConfig
    from repro.machine import get_machine

    return BenchmarkConfig(
        n=N, block=BLOCK, machine=get_machine("frontier"),
        p_rows=GRID, p_cols=GRID, seed=seed,
    )


def setup(seed: int) -> None:
    """Imports and inputs of ``exact_solve`` (timed in a fresh process)."""
    import repro.core.driver  # noqa: F401
    import repro.core.verify  # noqa: F401
    from repro.lcg.cache import clear_tile_cache  # noqa: F401

    make_config(seed)


def checksums(x: np.ndarray) -> Dict[str, float]:
    return {"sum": float(np.sum(x)), "l1": float(np.sum(np.abs(x)))}


def reference_checksums(seed: int) -> Dict[str, float]:
    """Checksums of LAPACK's FP64 solution of the seed's system."""
    from repro.lcg.matrix import HplAiMatrix

    matrix = HplAiMatrix(N, seed)
    return checksums(np.linalg.solve(matrix.block(0, N, 0, N),
                                     matrix.rhs()))


def run(ctx: Context, pins: Dict) -> Outcome:
    from repro.core.driver import run_benchmark
    from repro.core.verify import verify_solution
    from repro.lcg.cache import clear_tile_cache, tile_cache

    cfg = make_config(ctx.seed)
    first_x: List[np.ndarray] = []

    def unit():
        clear_tile_cache()
        t0 = time.perf_counter()
        try:
            res = run_benchmark(cfg, exact=True)
        except Exception as exc:  # a failed solve is counted, not fatal
            ctx.tally.record(False, "solve", repr(exc))
            wall = time.perf_counter() - t0
            return wall, wall, None
        wall = time.perf_counter() - t0
        cache = tile_cache().stats()
        t = ctx.tally
        t.record(True, "solve")
        t.record(res.ir_converged, "ir_converged",
                 f"IR stopped after {res.ir_iterations} iterations")
        if not first_x:
            first_x.append(res.x.copy())
            rep = verify_solution(res.x, n=cfg.n, seed=cfg.seed)
            t.record(rep.passed, "verify_solution", rep.describe())
        else:
            t.record(np.array_equal(res.x, first_x[0]), "x_repeat",
                     "x differs from this run's first solve")
        lookups = cache["hits"] + cache["misses"]
        facts = {
            "simulate.events": float(res.engine_events),
            "core.ir_iterations": float(res.ir_iterations),
            "lcg.tile_cache_lookups": float(lookups),
            "lcg.tile_cache_hit_ratio": (
                cache["hits"] / lookups if lookups else 0.0
            ),
        }
        facts.update(layers.rank_stats_totals(res.stats))
        return wall, wall, facts

    out = harness.measure(
        ctx, unit,
        f"from perfbench.workloads.exact import setup; setup({int(ctx.seed)})",
    )
    # After the window, so neither the times nor peak memory include it.
    if first_x:
        got, ref = checksums(first_x[0]), reference_checksums(ctx.seed)
        for key in ("sum", "l1"):
            ctx.tally.record(
                abs(got[key] - ref[key]) <= CHECKSUM_RTOL * ref["l1"],
                f"x_{key}", f"got {got[key]!r}, reference {ref[key]!r}",
            )
    return out
