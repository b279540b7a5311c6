"""Tests for the Gantt renderer over the tracer's engine/executor spans."""

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.machine import FRONTIER, SUMMIT, CommCosts
from repro.obs import Observability
from repro.obs.analysis.imbalance import load_imbalance
from repro.simulate import Compute, Engine, Recv, Send
from repro.simulate.timeline import render_gantt, timeline_to_csv

CATS = ["executor", "engine"]


def _run_with_timeline():
    def prog(rank):
        yield Compute("gemm", 0.01 * (rank + 1))
        if rank == 0:
            yield Send(1, np.ones(4), tag=0)
        elif rank == 1:
            _ = yield Recv(0, tag=0)
        yield Compute("trsm", 0.005)
        return None

    obs = Observability()
    result = Engine(2, CommCosts(SUMMIT), obs=obs).run(prog)
    return obs.tracer.as_timeline(cats=CATS), result


class TestRecording:
    def test_spans_recorded(self):
        timeline, result = _run_with_timeline()
        kinds = {k for _r, _s, _e, k in timeline}
        assert "gemm" in kinds and "trsm" in kinds
        # rank 1 waited for rank 0's slower... rank 1 computes longer, so
        # wait may be zero; at minimum every span is well-formed.
        for rank, s, e, kind in timeline:
            assert 0 <= s <= e <= result.elapsed + 1e-12
            assert rank in (0, 1)

    def test_off_by_default(self):
        def prog(rank):
            yield Compute("gemm", 0.01)
            return None

        engine = Engine(1, CommCosts(SUMMIT))
        engine.run(prog)
        assert not engine.obs.enabled
        assert engine.obs.tracer.as_timeline() == []

    def test_benchmark_run_timeline(self):
        from repro.core.config import BenchmarkConfig
        from repro.core.driver import simulate_run

        cfg = BenchmarkConfig(n=3072 * 4, block=3072, machine=FRONTIER,
                              p_rows=2, p_cols=2)
        obs = Observability()
        result = simulate_run(cfg, obs=obs)
        kinds = {k for _r, _s, _e, k in obs.tracer.as_timeline(cats=CATS)}
        assert {"gemm", "getrf", "trsm"} <= kinds
        loads = load_imbalance(obs.tracer.spans, result.elapsed, 4).ranks
        assert [r.rank for r in loads] == [0, 1, 2, 3]
        assert all(0 < r.busy_fraction <= 1 for r in loads)


class TestRendering:
    def test_gantt_rows_and_legend(self):
        timeline, _res = _run_with_timeline()
        out = render_gantt(timeline, width=40)
        assert out.splitlines()[1].startswith("r0  |")
        assert "legend:" in out
        assert "#" in out  # gemm glyph

    def test_gantt_window_and_rank_selection(self):
        timeline, res = _run_with_timeline()
        out = render_gantt(timeline, width=20, ranks=[1],
                           t0=0.0, t1=res.elapsed)
        assert "r1" in out and "r0 " not in out

    def test_empty_rejected(self):
        with pytest.raises(ConfigurationError):
            render_gantt([])
        with pytest.raises(ConfigurationError):
            timeline_to_csv([], "/tmp/never.csv")

    def test_csv_roundtrip(self, tmp_path):
        timeline, _res = _run_with_timeline()
        path = timeline_to_csv(timeline, tmp_path / "tl.csv")
        lines = path.read_text().splitlines()
        assert lines[0].startswith("# legend: ")
        assert lines[1] == "rank,start_s,end_s,kind"
        assert len(lines) == len(timeline) + 2
        # every kind present in the data is documented in the legend
        kinds = {row[3] for row in (ln.split(",") for ln in lines[2:])}
        for kind in kinds:
            assert f"{kind}=" in lines[0]
