"""The regularized isometry flow on free circle embeddings in the plane.

The coupled system evolves a map w(t) and a tensor path h(t):

    wdot(t) = L(S_{1/t} w(t)) hdot(t)
    h(t)    = S_{1/t} [ psi(t - t0) h  +  integral of E(tau) psi(t - tau) ]
    E(t)    = 2 d(S_{1/t} w(t) - w(t)) (.) d wdot(t)

where L is the nodewise minimum-norm linearization solver and S_eps the
spectral smoothing family. Differentiating the integral relation gives
hdot as three computable pieces: the ramp term, the S'-term on the stored
integral, and the E(tau) psi'(t - tau) tail; the ramp psi confines the
memory to a window of width one.

Both window integrals are trapezoid sums over the stored samples
E(tau_k) with tau_k <= t: sample k carries the weight
psi(t - tau_k) w_k, respectively psi'(t - tau_k) w_k, where w_k is half
the sum of its neighbouring gaps (half the one gap at either end), so an
uneven last step is weighted by its own width. Samples that left the
window are retired into a running tail integral.

If w(t) converges, its pullback picks up exactly the target tensor h:
the smoothing error E is reabsorbed into h(t) by construction, which is
the whole point of the regularization.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .errors import (
    CorrugateError,
    DivergenceError,
    InputError,
    NonconvergenceError,
)
from .grid import (
    ImmersionField,
    MetricField,
    derivative_sups,
    pullback_metric,
    sup_norm,
    symmetric_product,
)
from .leastnorm import _free_stack, apply_L, is_free
from .smoothing import smooth, smooth_eps_derivative

#: steps with a non-decaying, above-tolerance residual before giving up
DIVERGENCE_PATIENCE = 20

#: growth factor that trips a diagnostic flag
GROWTH_FLAG_FACTOR = 10.0

#: step size of the classical 4th-order integrator
STEP = 0.05


def psi_ramp(s) -> np.ndarray | float:
    """C^2 monotone ramp: 0 for s <= 0, 1 for s >= 1, odd-symmetric about
    (1/2, 1/2) (quintic smoothstep)."""
    u = np.clip(s, 0.0, 1.0)
    out = u * u * u * (10.0 + u * (-15.0 + 6.0 * u))
    return float(out) if np.isscalar(s) else out


def psi_ramp_derivative(s) -> np.ndarray | float:
    u = np.clip(s, 0.0, 1.0)
    out = 30.0 * (u * (1.0 - u)) ** 2
    return float(out) if np.isscalar(s) else out


@dataclass(frozen=True)
class FlowConfig:
    """Run parameters; the ramp has fixed width one."""

    t0: float = 10.0
    t_end: float | None = None
    tol: float = 1e-3
    smallness: float = 0.05

    def __post_init__(self):
        # each test is written so that NaN fails it
        if not self.t0 > 1.0:
            raise InputError("t0 must exceed 1 (smoothing scale 1/t must be < 1)")
        if not self.t0 + 5.0 <= self.resolved_end < np.inf:
            raise InputError(f"t_end must be finite and at least t0 + 5, got {self.t_end!r}")
        # float spacing only grows with t, so no step before t_end stalls either
        if self.resolved_end + STEP == self.resolved_end:
            raise InputError(f"t_end {self.resolved_end!r} is too large for steps of "
                             f"{STEP}: t_end + {STEP} == t_end")
        if not self.tol > 0:
            raise InputError(f"tol must be positive, got {self.tol!r}")
        if not self.smallness > 0:
            raise InputError(f"smallness must be positive, got {self.smallness!r}")

    @property
    def resolved_end(self) -> float:
        return self.t_end if self.t_end is not None else self.t0 + 200.0


@dataclass
class FlowState:
    """Integrator state: current time and map, stored increments E(tau)
    with their times, and the retired part of the history integral
    (samples that left the width-one ramp window)."""

    t: float
    w: ImmersionField
    E_history: list[tuple[float, MetricField]]
    t0: float
    tail_integral: MetricField

    def prune(self):
        """Retire samples behind the ramp window into the running integral."""
        cutoff = self.t - 1.0 - 2.0 * STEP
        while len(self.E_history) >= 2 and self.E_history[1][0] <= cutoff:
            (t_a, e_a), (t_b, e_b) = self.E_history[0], self.E_history[1]
            self.tail_integral = self.tail_integral + (e_a + e_b) * (0.5 * (t_b - t_a))
            self.E_history.pop(0)


def _window_quadratures(state: FlowState, t: float, h_target: MetricField,
                        ) -> tuple[MetricField, MetricField]:
    """Trapezoidal L(t) = tail + int E(tau) psi(t-tau) and the psi'-weighted
    tail integral, over the stored samples up to time t."""
    samples = [(tau, e) for tau, e in state.E_history if tau <= t + 1e-12]
    if len(samples) < 2:
        if state.t > state.t0 + 2.0 * STEP and not samples:
            raise CorrugateError("internal error: E history window underflow")
        return state.tail_integral, h_target * 0.0
    taus = np.array([tau for tau, _ in samples])
    half = 0.5 * np.diff(taus)
    trap = np.zeros_like(taus)
    trap[:-1] += half
    trap[1:] += half
    stack = np.stack([e.data for _, e in samples])
    lag = t - taus
    L = np.tensordot(psi_ramp(lag) * trap, stack, axes=1)
    C = np.tensordot(psi_ramp_derivative(lag) * trap, stack, axes=1)
    grid = h_target.grid
    return MetricField(grid, state.tail_integral.data + L), MetricField(grid, C)


def eval_h(state: FlowState, t: float, h_target: MetricField) -> MetricField:
    """The tensor path h(t) = S_{1/t}[psi(t - t0) h + L(t)] from the stored
    history (valid for t at or slightly beyond the newest stored sample)."""
    L, _ = _window_quadratures(state, t, h_target)
    inner = h_target * psi_ramp(t - state.t0) + L
    return smooth(inner, 1.0 / t)


def eval_hdot(state: FlowState, t: float, h_target: MetricField) -> MetricField:
    """d/dt of the integral relation, as three computable pieces.

    ramp term S[psi' h], the S'-term -t^-2 S'[psi h + L(t)], and the
    smoothed E(tau) psi'(t - tau) window integral.
    """
    L, C = _window_quadratures(state, t, h_target)
    inner = h_target * psi_ramp(t - state.t0) + L
    s_prime = smooth_eps_derivative(inner, 1.0 / t) * (-1.0 / t**2)
    ramp = smooth(h_target * psi_ramp_derivative(t - state.t0) + C, 1.0 / t)
    return s_prime + ramp


class FlowRates(NamedTuple):
    wdot: ImmersionField
    hdot: MetricField
    w_smooth: ImmersionField
    w: ImmersionField

    @property
    def E_new(self) -> MetricField:
        """The smoothing increment E = 2 d(S_{1/t} w - w) (.) d wdot, built on
        read: the flow stores it for one of its four stages only."""
        return symmetric_product(self.w_smooth - self.w, self.wdot) * 2.0


def flow_rhs(state: FlowState, h_target: MetricField, t: float | None = None,
             w: ImmersionField | None = None) -> FlowRates:
    """One right-hand-side evaluation at (t, w), default the state's own.

    Computes hdot from the stored history and the minimum-norm velocity
    wdot = L(S_{1/t} w) hdot; the new smoothing increment E is built only
    when ``E_new`` is read. The derivative stack of S_{1/t} w is built once,
    for both the freeness check and the solve.
    """
    t = state.t if t is None else t
    w = state.w if w is None else w
    w_smooth = smooth(w, 1.0 / t)
    stack, report = _free_stack(w_smooth)
    if not report.is_free:
        raise NonconvergenceError(
            f"flow abort at t={t:.3f}: smoothed map lost freeness "
            f"(gram det {report.min_gram_det:.3e})")
    hdot = eval_hdot(state, t, h_target)
    wdot = apply_L(w_smooth, hdot, free=(stack, report))
    return FlowRates(wdot=wdot, hdot=hdot, w_smooth=w_smooth, w=w)


class FlowSample(NamedTuple):
    """Per-step diagnostics recorded at accepted times."""

    t: float
    hdot_c0: float
    hdot_c4: float
    wdot_c0: float
    wdot_c4: float
    ortho_resid: float
    identity_resid: float
    dist3: float
    metric_resid: float


@dataclass
class FlowDiagnostics:
    samples: list[FlowSample] = field(default_factory=list)
    final_resid: float = float("nan")

    def csv_rows(self) -> list[list]:
        return [list(FlowSample._fields)] + [list(s) for s in self.samples]


def tracked_quantities(samples, t0: float):
    """Table of the a priori diagnostic quantities per step.

    Rows (t, t^4||hdot||_0 + ||hdot||_4, t^4||wdot||_0 + ||wdot||_4,
    ||w - w0||_3); a quantity whose value after the ramp window exceeds ten
    times its in-ramp maximum raises that flag.
    """
    rows = []
    for s in samples:
        rows.append((s.t,
                     s.t**4 * s.hdot_c0 + s.hdot_c4,
                     s.t**4 * s.wdot_c0 + s.wdot_c4,
                     s.dist3))
    flags = {}
    floor = 1e-12
    for idx, name in ((1, "hdot"), (2, "wdot"), (3, "dist3")):
        ramp_max = max((r[idx] for r in rows if r[0] <= t0 + 1.0), default=0.0)
        baseline = max(ramp_max, floor)
        flags[name] = any(r[idx] > GROWTH_FLAG_FACTOR * baseline
                          for r in rows if r[0] > t0 + 1.0)
    return rows, flags


def _record(state: FlowState, rates: FlowRates, w0: ImmersionField,
            w0_pull: MetricField, h_target: MetricField) -> FlowSample:
    wbar_der = rates.w_smooth.derivatives()
    ortho = float(np.max(np.abs(
        np.einsum("...ia,...a->...i", wbar_der, rates.wdot.values))))
    identity = symmetric_product(rates.w_smooth, rates.wdot) * 2.0 - rates.hdot
    resid_now = pullback_metric(state.w) - w0_pull - h_target
    diff = state.w - w0
    hdot_sups = derivative_sups(rates.hdot, 4)
    wdot_sups = derivative_sups(rates.wdot, 4)
    return FlowSample(
        t=state.t,
        hdot_c0=hdot_sups[0], hdot_c4=float(sum(hdot_sups)),
        wdot_c0=wdot_sups[0], wdot_c4=float(sum(wdot_sups)),
        ortho_resid=ortho,
        identity_resid=sup_norm(identity, 0),
        dist3=sup_norm(diff, 3),
        metric_resid=sup_norm(resid_now, 0),
    )


def run_flow(w0: ImmersionField, h_target: MetricField,
             cfg: FlowConfig = FlowConfig()) -> tuple[ImmersionField, FlowDiagnostics]:
    """Integrate the regularized flow from w0 toward a map realizing
    w0#e + h_target, with classical 4th-order steps of size STEP.

    The returned map ubar = w(t_end) satisfies
    ||ubar#e - (w0#e + h_target)|| <= cfg.tol. Any error raised while
    integrating carries the steps recorded so far as ``partial_report``.
    """
    if w0.grid.dim != 1 or w0.ambient_dim != 2:
        raise InputError("the flow runs on circle maps into the plane (n=1, N=2)")
    report = is_free(w0)
    if not report.is_free:
        raise InputError(f"starting map is not free ({report.reason})")
    w0_pull = pullback_metric(w0)
    bound = cfg.smallness * sup_norm(w0_pull, 0)
    h_size = sup_norm(h_target, 3)
    if h_size > bound:
        raise InputError(
            f"||h||_3 = {h_size:.3e} exceeds the smallness bound {bound:.3e}; "
            "halve the target or raise t0")

    state = FlowState(t=cfg.t0, w=w0, E_history=[], t0=cfg.t0,
                      tail_integral=h_target * 0.0)

    diag = FlowDiagnostics()
    best_resid = float("inf")
    stall = 0
    t_end = cfg.resolved_end
    try:
        while state.t < t_end - 1e-9:
            dt = min(STEP, t_end - state.t)
            rates1 = flow_rhs(state, h_target)
            state.E_history.append((state.t, rates1.E_new))
            sample = _record(state, rates1, w0, w0_pull, h_target)
            diag.samples.append(sample)

            if sample.metric_resid > cfg.tol:
                stall = stall + 1 if sample.metric_resid >= best_resid - 1e-15 else 0
                if stall >= DIVERGENCE_PATIENCE:
                    diag.final_resid = sample.metric_resid
                    raise DivergenceError(
                        f"residual {sample.metric_resid:.3e} not decaying for "
                        f"{DIVERGENCE_PATIENCE} steps at t={state.t:.2f}")
            best_resid = min(best_resid, sample.metric_resid)

            k1 = rates1.wdot
            half = state.t + dt / 2.0
            k2 = flow_rhs(state, h_target, t=half, w=state.w + k1 * (dt / 2.0)).wdot
            k3 = flow_rhs(state, h_target, t=half, w=state.w + k2 * (dt / 2.0)).wdot
            k4 = flow_rhs(state, h_target, t=state.t + dt, w=state.w + k3 * dt).wdot
            state.w = state.w + (k1 + k2 * 2.0 + k3 * 2.0 + k4) * (dt / 6.0)
            state.t += dt
            state.prune()

        diag.final_resid = sup_norm(pullback_metric(state.w) - w0_pull - h_target, 0)
        if diag.final_resid > cfg.tol:
            raise NonconvergenceError(
                f"final metric identity residual {diag.final_resid:.3e} exceeds "
                f"tolerance {cfg.tol:.1e}")
    except CorrugateError as exc:
        exc.partial_report = diag
        raise
    return state.w, diag
