"""Stage iteration: drive the metric defect to zero while converging in C^1.

Stage q runs with shrinking budgets delta_q = 4^-q and eta_q = 2^(-q-1) eps,
so sup moves are summable (C^0 control) and derivative moves shrink
geometrically (C^1 control); the defect after stage q is below delta_q plus
the recorded discretization slack.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .corrugation import StageReport, run_stage
from .errors import CorrugateError, InputError
from .grid import (
    ImmersionField,
    MetricField,
    _integer,
    is_short,
    pullback_metric,
    resample,
    sup_norm,
)

#: gate on the geometric-mean ratio of successive C^1 increments
CAUCHY_RATIO_GATE = 0.75


@dataclass(frozen=True)
class IterationSchedule:
    """Per-stage budgets: delta_q = 4^-q, eta_q = 2^(-q-1) epsilon."""

    epsilon: float
    stages: int = 4

    def __post_init__(self):
        if not 0.0 < self.epsilon < np.inf:
            raise InputError(f"epsilon must be finite and positive, got {self.epsilon!r}")
        if _integer(self.stages, "stage count") < 0:
            raise InputError("stage count must be nonnegative")

    def delta(self, q: int) -> float:
        return 4.0 ** (-q)

    def eta(self, q: int) -> float:
        return 2.0 ** (-q - 1) * self.epsilon


@dataclass
class RunReport:
    """Per-stage reports plus end-of-run measurements."""

    stage_reports: list[StageReport] = field(default_factory=list)
    final_defect: float = float("nan")
    c0_distance: float = float("nan")

    def csv_rows(self) -> list[list]:
        return [["stage"] + StageReport.CSV_HEADER] + [
            [q] + rep.csv_rows()[1] for q, rep in enumerate(self.stage_reports, start=1)]

    @classmethod
    def from_stage_reports(cls, reports) -> "RunReport":
        """The run whose final defect is its last stage's (NaN without stages)."""
        final = reports[-1].defect_after if reports else float("nan")
        return cls(stage_reports=reports, final_defect=final)


def nash_kuiper_iterate(v0: ImmersionField, g: MetricField,
                        schedule: IterationSchedule) -> tuple[ImmersionField, RunReport]:
    """Iterate corrugation stages with the 4^-q / 2^-q-1 budget schedule.

    ``g`` and ``v0`` stay on the input grid and are lifted to the map's grid
    where they are read. Returns the final map and the run report, whose
    final defect is the last finished stage's (v0's when none finished); a
    failing stage aborts with that partial report as ``partial_report``.
    """
    flag, margin = is_short(v0, g, strict=True)
    if not flag:
        raise InputError(f"driver needs a strictly short start (margin {margin:.3e})")
    report = RunReport()
    cur_w = v0
    aborted = None
    for q in range(1, schedule.stages + 1):
        try:
            cur_w, stage_rep = run_stage(
                cur_w, resample(g, cur_w.grid), eta=schedule.eta(q),
                delta=schedule.delta(q))
        except CorrugateError as exc:
            aborted = exc
            break
        report.stage_reports.append(stage_rep)
    report.final_defect = (report.stage_reports[-1].defect_after if report.stage_reports
                           else sup_norm(g - pullback_metric(v0), 0))
    report.c0_distance = sup_norm(cur_w - resample(v0, cur_w.grid), 0)
    if aborted is not None:
        aborted.partial_report = report
        raise aborted
    return cur_w, report


def c1_cauchy_audit(report_or_increments) -> tuple[list[float], bool]:
    """Successive C^1-increment ratios for q >= 2 and the decay verdict.

    Passes when the geometric mean of the ratios is at most 0.75. After a
    zero increment, a zero one has ratio 0 (converged) and a positive one inf.
    """
    if isinstance(report_or_increments, RunReport):
        increments = [rep.c1_delta for rep in report_or_increments.stage_reports]
    else:
        increments = [float(v) for v in report_or_increments]
    if len(increments) < 3:
        raise InputError("Cauchy audit needs at least 3 stages")
    ratios = [b / a if a else (np.inf if b else 0.0) for a, b in zip(increments, increments[1:])]
    log_terms = [np.log(max(r, 1e-300)) for r in ratios]
    geo_mean = float(np.exp(np.mean(log_terms)))
    return ratios, geo_mean <= CAUCHY_RATIO_GATE
