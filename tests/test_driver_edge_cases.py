"""Edge cases in the drivers, results and failure paths."""

import numpy as np
import pytest

from repro.core.config import BenchmarkConfig
from repro.core.driver import run_benchmark, simulate_run, solve_hplai
from repro.errors import ConfigurationError
from repro.machine import FRONTIER, SUMMIT


class TestDriverValidation:
    def test_global_speed_must_be_positive(self):
        cfg = BenchmarkConfig(n=64, block=16, machine=SUMMIT,
                              p_rows=1, p_cols=1)
        with pytest.raises(ConfigurationError):
            run_benchmark(cfg, exact=False, global_speed=0.0)

    def test_rate_multiplier_shape_checked(self):
        cfg = BenchmarkConfig(n=64, block=16, machine=SUMMIT,
                              p_rows=2, p_cols=2)
        with pytest.raises(ConfigurationError):
            run_benchmark(cfg, exact=False, rate_multipliers=np.ones(3))

    @pytest.mark.parametrize("cfg", [None, {"n": 64, "block": 16}])
    def test_non_config_rejected_at_entry(self, cfg):
        with pytest.raises(ConfigurationError, match="BenchmarkConfig"):
            simulate_run(cfg)
        with pytest.raises(ConfigurationError, match="BenchmarkConfig"):
            run_benchmark(cfg, exact=True)

    def test_machine_name_string_accepted(self):
        res = solve_hplai(n=64, block=16, machine="frontier")
        assert res.config.machine is FRONTIER

    def test_unknown_machine_string_rejected(self):
        with pytest.raises(ConfigurationError):
            solve_hplai(n=64, block=16, machine="perlmutter")


class TestNonConvergence:
    def test_ir_iteration_cap_reported_honestly(self):
        # One refinement iteration cannot reach FP64 from FP16 factors
        # at this size; the driver must report converged=False rather
        # than lie.
        res = solve_hplai(n=512, block=64, p_rows=2, p_cols=2,
                          ir_max_iters=1)
        assert res.ir_converged is False
        assert res.ir_iterations <= 1

    def test_gmres_cap_reported_honestly(self):
        res = solve_hplai(n=512, block=64, p_rows=2, p_cols=2,
                          refinement_solver="gmres", ir_max_iters=1)
        assert res.ir_converged is False


class TestResultContracts:
    def test_trace_collection_optional(self):
        cfg = BenchmarkConfig(n=3072 * 2, block=3072, machine=FRONTIER,
                              p_rows=1, p_cols=2)
        with_trace = run_benchmark(cfg, exact=False, collect_trace=True)
        without = run_benchmark(cfg, exact=False, collect_trace=False)
        assert len(with_trace.trace) > 0
        assert without.trace == []
        assert with_trace.elapsed == pytest.approx(without.elapsed)

    def test_phantom_summary_has_no_residual(self):
        cfg = BenchmarkConfig(n=3072 * 2, block=3072, machine=FRONTIER,
                              p_rows=1, p_cols=2)
        s = simulate_run(cfg).summary()
        assert "residual_norm" not in s

    def test_variability_slows_whole_run_not_just_one_rank(self):
        cfg = BenchmarkConfig(n=3072 * 4, block=3072, machine=FRONTIER,
                              p_rows=2, p_cols=2)
        clean = simulate_run(cfg)
        one_slow = simulate_run(
            BenchmarkConfig(n=3072 * 4, block=3072, machine=FRONTIER,
                            p_rows=2, p_cols=2),
            rate_multipliers=[1.0, 1.0, 1.0, 0.8],
        )
        # Bulk-synchronous: one slow GCD drags everyone.
        assert one_slow.elapsed > clean.elapsed * 1.05

    def test_shipped_hpldat_expands(self):
        from pathlib import Path

        from repro.io.hpldat import expand_configs, parse_hpldat

        path = Path(__file__).parent.parent / "examples" / "data" / "HPL.dat"
        dat = parse_hpldat(path)
        cfgs = list(expand_configs(dat))
        assert len(cfgs) == 4
        assert all(c.machine.name == "frontier" for c in cfgs)


class TestSeedIndependenceOfTiming:
    def test_phantom_timing_ignores_seed(self):
        # Phantom runs carry no data: the seed must not change timing.
        kw = dict(n=3072 * 4, block=3072, machine=FRONTIER,
                  p_rows=2, p_cols=2)
        a = simulate_run(BenchmarkConfig(**kw, seed=1))
        b = simulate_run(BenchmarkConfig(**kw, seed=999))
        assert a.elapsed == b.elapsed
