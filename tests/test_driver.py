import numpy as np
import pytest

import corrugate.grid as grid_module
from corrugate.cli import parse_report
from corrugate.driver import (
    IterationSchedule,
    RunReport,
    c1_cauchy_audit,
    nash_kuiper_iterate,
)
from corrugate.errors import InputError, NonconvergenceError
from corrugate.fieldio import write_table
from corrugate.grid import (
    MetricField,
    PeriodicGrid,
    is_short,
    pullback_metric,
    resample,
    sup_norm,
)

from conftest import clifford_map, unit_circle_map


class TestSchedule:
    def test_budget_values(self):
        sched = IterationSchedule(epsilon=0.5, stages=4)
        assert sched.delta(1) == 0.25
        assert sched.delta(2) == 0.0625
        assert sched.eta(1) == 0.125
        assert sched.eta(3) == 0.5 * 2.0**-4

    def test_rejects_bad_epsilon(self):
        with pytest.raises(InputError):
            IterationSchedule(epsilon=0.0, stages=2)

    @pytest.mark.parametrize("stages", [2.5, float("nan"), "2"])
    def test_non_integer_stage_count_refused(self, stages):
        with pytest.raises(InputError, match="stage count must be an integer"):
            IterationSchedule(epsilon=0.5, stages=stages)
        assert IterationSchedule(epsilon=0.5, stages=np.int64(2)).stages == 2


class TestIterate:
    def test_zero_stages_returns_start(self):
        grid = PeriodicGrid((64,))
        w = unit_circle_map(grid)
        g = MetricField.identity(grid, 1.2**2)
        u, rep = nash_kuiper_iterate(w, g, IterationSchedule(epsilon=0.5, stages=0))
        assert np.array_equal(u.periodic, w.periodic)
        assert rep.stage_reports == []
        assert rep.final_defect == sup_norm(g - pullback_metric(w), 0)

    def test_not_strictly_short_rejected(self):
        grid = PeriodicGrid((64,))
        w = unit_circle_map(grid)
        with pytest.raises(InputError):
            nash_kuiper_iterate(w, pullback_metric(w),
                                IterationSchedule(epsilon=0.5, stages=1))

    def test_circle_two_stages(self):
        grid = PeriodicGrid((64,))
        w = unit_circle_map(grid)
        g = MetricField.identity(grid, 1.2**2)
        sched = IterationSchedule(epsilon=0.5, stages=2)
        u, rep = nash_kuiper_iterate(w, g, sched)
        assert len(rep.stage_reports) == 2
        for q, stage in enumerate(rep.stage_reports, start=1):
            assert stage.defect_after <= sched.delta(q) + stage.slack
        assert rep.c0_distance <= sched.epsilon / 2.0
        g_final = resample(g, u.grid)
        flag, _ = is_short(u, g_final)
        assert flag
        assert rep.final_defect == rep.stage_reports[-1].defect_after

    def test_circle_grids_read_the_defect_of_the_continuum_map(self):
        # stage 2 runs at frequency 491; its square's bandwidth is 78 (a^2's
        # 38 plus twice the map's 20), so it needs more than 2120 nodes. The
        # report reads the defect at those nodes: the defect of the map lifted
        # to twice as many nodes, read at every other one. Between the nodes
        # it reads higher (0.046918 at the nodes, 0.046936 on twice as many),
        # so the nodes bound it from below
        grid = PeriodicGrid((64,))
        g = MetricField.identity(grid, 1.2**2)
        u, rep = nash_kuiper_iterate(unit_circle_map(grid), g,
                                     IterationSchedule(epsilon=0.5, stages=2))
        assert [stage.resolution for stage in rep.stage_reports] == [(128,), (2304,)]
        assert [stage.lambdas for stage in rep.stage_reports] == [
            [pytest.approx(33.85309064223772, rel=1e-12)],
            [pytest.approx(2670.7423236479754, rel=1e-12)]]
        fine = PeriodicGrid((2 * u.grid.shape[0],))
        lifted = resample(g, fine) - pullback_metric(resample(u, fine))
        at_nodes = sup_norm(MetricField(u.grid, lifted.data[::2]), 0)
        assert abs(rep.final_defect - at_nodes) <= 1e-9 * at_nodes
        assert rep.final_defect <= sup_norm(lifted, 0)

    def test_circle_grids_hold_under_a_small_change_of_the_target(self):
        # the benchmark's circle seeds move the target scale 1.2 by up to
        # 0.05%; every stage keeps its grid
        grid = PeriodicGrid((64,))
        runs = set()
        for scale in 1.2 * (1.0 + 0.0005 * np.array([-1.0, -0.5, 0.5, 1.0])):
            _, rep = nash_kuiper_iterate(unit_circle_map(grid), MetricField.identity(grid, scale**2),
                                         IterationSchedule(epsilon=0.5, stages=2))
            runs.add(tuple(stage.resolution for stage in rep.stage_reports))
        assert runs == {((128,), (2304,))}

    def test_four_stages_hit_the_frequency_cap(self):
        # the forced lambda growth ratio (~128 * 2^-q per stage; measured
        # 33.85 -> 2670.7 -> beyond 2^14) exceeds the search cap at stage 3:
        # the honest outcome of the 4^-q schedule at desk scale
        grid = PeriodicGrid((64,))
        w = unit_circle_map(grid)
        g = MetricField.identity(grid, 1.2**2)
        sched = IterationSchedule(epsilon=0.5, stages=4)
        with pytest.raises(NonconvergenceError) as err:
            nash_kuiper_iterate(w, g, sched)
        partial = err.value.partial_report
        assert len(partial.stage_reports) == 2
        assert partial.stage_reports[0].lambdas == [pytest.approx(33.85309064223772, rel=1e-12)]
        assert partial.stage_reports[1].lambdas == [pytest.approx(2670.7423236479754, rel=1e-12)]
        assert partial.final_defect == partial.stage_reports[-1].defect_after

    def test_torus_aborts_with_partial_report(self, monkeypatch):
        monkeypatch.setattr(grid_module, "MAX_NODES", 2**18)
        grid = PeriodicGrid((64, 64))
        w = clifford_map(grid, r=1.0)
        g = MetricField.identity(grid, 1.5**2)
        sched = IterationSchedule(epsilon=0.5, stages=1)
        with pytest.raises(NonconvergenceError) as err:
            nash_kuiper_iterate(w, g, sched)
        assert err.value.partial_report.stage_reports == []

    def test_torus_abort_quotes_the_cap_in_force(self, monkeypatch):
        monkeypatch.setattr(grid_module, "MAX_NODES", 2**12)
        grid = PeriodicGrid((64, 64))
        w = clifford_map(grid, r=1.0)
        g = MetricField.identity(grid, 1.5**2)
        sched = IterationSchedule(epsilon=0.5, stages=1)
        with pytest.raises(NonconvergenceError, match="cap of 4096 nodes") as err:
            nash_kuiper_iterate(w, g, sched)
        # no stage finished, so the final defect is measured on the start map
        assert err.value.partial_report.final_defect == sup_norm(g - pullback_metric(w), 0)


class TestCauchyAudit:
    def test_halving_increments_pass(self):
        ratios, passed = c1_cauchy_audit([1.0, 0.5, 0.25])
        assert np.allclose(ratios, [0.5, 0.5])
        assert passed

    def test_flat_increments_fail(self):
        ratios, passed = c1_cauchy_audit([1.0, 1.0, 1.0])
        assert np.allclose(ratios, [1.0, 1.0])
        assert not passed

    def test_zero_after_zero_counts_as_converged(self):
        ratios, passed = c1_cauchy_audit([1.0, 0.0, 0.0])
        assert ratios == [0.0, 0.0]
        assert passed

    def test_positive_after_zero_fails(self):
        ratios, passed = c1_cauchy_audit([1.0, 0.0, 0.5])
        assert ratios == [0.0, np.inf]
        assert not passed

    def test_needs_three_stages(self):
        with pytest.raises(InputError):
            c1_cauchy_audit([1.0, 0.5])

    def test_accepts_run_report(self):
        from corrugate.corrugation import StageReport

        reports = [StageReport(c0_delta=0, c1_delta=v, defect_before=1,
                               defect_after=0.1) for v in (1.0, 0.4, 0.2)]
        rep = RunReport(stage_reports=reports)
        ratios, passed = c1_cauchy_audit(rep)
        assert passed and len(ratios) == 2


class TestRunReportSerialization:
    def test_round_trip(self, tmp_path):
        from corrugate.corrugation import StageReport

        reports = [
            StageReport(c0_delta=0.01, c1_delta=0.5, defect_before=0.44,
                        defect_after=0.15, lambdas=[64.0], resolution=(1024,),
                        slack=1e-14),
            StageReport(c0_delta=0.002, c1_delta=0.35, defect_before=0.15,
                        defect_after=0.04, lambdas=[4096.0], resolution=(16384,),
                        slack=2e-14),
        ]
        rep = RunReport(stage_reports=reports, final_defect=0.04)
        rows = rep.csv_rows()
        assert len(rows) == 3  # header plus one row per stage
        write_table(rows[0], rows[1:], tmp_path / "run.csv")
        back = parse_report(tmp_path / "run.csv", "run")
        assert back.stage_reports == reports
        assert back.final_defect == 0.04
