"""The regularized isometry flow on free circle embeddings in R^N.

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
window are retired into a running tail integral, so the history is one
time vector and one sample array sized to the window, not to the run.

The steps run on rfft spectra, with fields only where a run starts and
returns: the map, the E history (each E transformed once, when recorded)
and the target are spectra, which the RK4 stages and the quadratures
combine. A right-hand side takes three FFT calls: one batched inverse of
the map's jet and of hdot, one spectrum of the solved wdot and the inverse
of its derivative; the map's linear slope rides the first as a zero mode.
The velocity's solve gates freeness and the pivot floor itself; on a
curve one Gram determinant serves both and the solve. Every derivative
multiplies by ``grid.derivative_multipliers``, the one
ik-with-Nyquist-zeroed rule the fields differentiate by.

What depends on time alone is built once per block of TABLE_STEPS steps,
from the run's schedule of step times and of the samples each step's window
holds: both new times' multipliers and quadrature weights. A step multiplies
its weights by the stored spectra, and the last stage's reading serves the
next step's first. Tables of the grid alone are built once per run.

If w(t) converges, its pullback picks up exactly the target tensor h:
the smoothing error E is reabsorbed into h(t) by construction, which is
the whole point of the regularization.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .errors import (
    CapabilityError,
    CorrugateError,
    DivergenceError,
    InputError,
    NonconvergenceError,
)
from .grid import (
    ImmersionField,
    MetricField,
    derivative_multipliers,
    pullback_metric,
    sup_norm,
)
from .leastnorm import (
    _identity_residual,
    _min_norm_velocity,
    is_free,
)
from .smoothing import multipliers

#: steps with a non-decaying, above-tolerance residual before giving up
DIVERGENCE_PATIENCE = 20

#: growth factor that trips a diagnostic flag
GROWTH_FLAG_FACTOR = 10.0

#: step size of the classical 4th-order integrator
STEP = 0.05


def psi_ramp(s) -> np.ndarray | float:
    """C^2 monotone ramp: 0 for s <= 0, 1 for s >= 1, odd-symmetric about
    (1/2, 1/2) (quintic smoothstep)."""
    u = np.minimum(np.maximum(s, 0.0), 1.0)
    out = u * u * u * (10.0 + u * (-15.0 + 6.0 * u))
    return float(out) if np.isscalar(s) else out


def psi_ramp_derivative(s) -> np.ndarray | float:
    u = np.minimum(np.maximum(s, 0.0), 1.0)
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


#: E samples a state makes room for: the width-one window, the two steps
#: that ``prune`` keeps behind it, the newest sample and some slack
WINDOW_SLOTS = int(np.ceil((1.0 + 2.0 * STEP) / STEP)) + 4

#: steps whose time-only tables are built at once: the peak RSS of a 256-node,
#: 240-step flow read 31.81 MiB at 1 step, 31.79 at 8, 32.62 at 26 and 42.63
#: at all 240 (median of 5 runs, x86-64 Linux, numpy 2.4.6)
TABLE_STEPS = 8


def _schedule(t0: float, t_end: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Step i runs from times[i] by dt[i], by the run's own accumulation of t,
    and reads the samples first[i]..i, sample k taken at times[k]: the end
    of step i retires each k < i whose next lies behind t_{i+1} - 1 - 2 STEP."""
    times, dt = [t0], []
    while times[-1] < t_end - 1e-9:
        dt.append(min(STEP, t_end - times[-1]))
        times.append(times[-1] + dt[-1])
    times = np.array(times)
    behind = np.searchsorted(times, times[1:] - 1.0 - 2.0 * STEP, side="right") - 1
    return times, np.array(dt), np.concatenate([[0], np.clip(behind, 0, np.arange(len(dt)))])


class FlowState:
    """Integrator state on rfft spectra, from the map ``w0`` at ``t0`` to
    ``t_end`` (FlowConfig's if None) by the steps of _schedule: time ``t``
    and its ``step``, the map's spectrum ``P``, the stored increments E(tau)
    as ``taus[:count]`` and ``E[:count]``, sized to the window, not the run,
    ``tail``, the retired part of the history integral, and the block's
    ``tables`` by step (_block_tables)."""

    def __init__(self, t0: float, w0: ImmersionField, t_end: float | None = None):
        self.t = self.t0 = t0
        self.times, self.dt, self.first = _schedule(t0, FlowConfig(t0, t_end).resolved_end)
        self.step, self.tables = 0, {}
        self.grid, self.offsets = w0.grid, w0.offsets
        self.P = np.fft.rfft(w0.data, axis=0)
        self.tail = np.zeros((len(self.P), 1), complex)
        self.taus = np.empty(WINDOW_SLOTS)
        self.E = np.empty(self.taus.shape + self.tail.shape, complex)
        self.count = 0
        # the record's tables: D^0..D^4 multipliers, columns of hdot, wdot, w - w0
        ik = derivative_multipliers(self.grid.shape[0], 4)
        self.orders = np.concatenate([np.ones((1, ik.shape[1])), ik])[:, None]
        self.parts = np.repeat(np.eye(3), [self.tail.shape[1]] + [self.P.shape[1]] * 2, axis=1)

    def record(self, tau: float, E: np.ndarray):
        """Store the spectrum of the node samples E(tau), tau after every
        stored time."""
        self.taus[self.count] = tau
        self.E[self.count] = np.fft.rfft(E, axis=0)
        self.count += 1

    def prune(self):
        """Retire samples behind the window of ``step`` into the running integral."""
        taus, E = self.taus, self.E
        gone = self.count - (self.step - self.first[self.step])
        for k in range(gone):
            self.tail = self.tail + (E[k] + E[k + 1]) * (0.5 * (taus[k + 1] - taus[k]))
        if gone > 0:
            self.count -= gone
            taus[:self.count] = taus[gone:gone + self.count]
            E[:self.count] = E[gone:gone + self.count]


def _window_weights(taus: np.ndarray, times: np.ndarray, live: np.ndarray) -> np.ndarray:
    """psi(t - tau_k) w_k and psi'(t - tau_k) w_k, shape (2, T, K), for each t
    in ``times`` and tau_k in ``taus``: w_k is the trapezoid weight over the
    samples ``live`` at t (a (T, K) mask of consecutive samples), 0 off it."""
    half = 0.5 * np.diff(taus) * (live[:, 1:] & live[:, :-1])
    trap = np.zeros(live.shape)
    trap[:, :-1] += half
    trap[:, 1:] += half
    lag = times[:, None] - taus
    return np.stack([psi_ramp(lag), psi_ramp_derivative(lag)]) * trap


def _quadratures(state: FlowState, weights: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Spectra of L(t) = tail + int E(tau) psi(t-tau) and of the psi'-weighted
    C(t) for the T times of ``weights`` (2, T, K) over the K stored samples."""
    T, K = weights.shape[1:]
    L, C = (weights.reshape(2 * T, K) @ state.E[:K].reshape(K, state.tail.size)
            ).reshape((2, T) + state.tail.shape)
    return state.tail + L, C


def _window_quadratures(state: FlowState, times: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The quadratures over the stored samples up to t, for every t in
    ``times``: a sample after t, and a gap that ends after it, weigh 0."""
    taus = state.taus[:state.count]
    inside = taus <= times[:, None] + 1e-12
    if state.t > state.t0 + 2.0 * STEP and not inside.any(axis=1).all():
        raise CorrugateError("internal error: E history window underflow")
    return _quadratures(state, _window_weights(taus, times, inside))


def _spectral_multipliers(n: int, times: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per rfft mode of n nodes at each smoothing scale 1/t, t in ``times``,
    with m = m(|xi|/t), from one evaluation of m and m' written into one
    array: the jet multipliers (ik m, (ik)^2 m, ik), shape (T, modes, 3, 1),
    and the hdot pair (-t^-2 |xi| m'(|xi|/t), m), shape (T, modes, 2, 1)."""
    eps = 1.0 / times[:, None, None]
    k = np.arange(n // 2 + 1, dtype=float)[:, None]
    m, dm = multipliers(eps * k)
    ik, ik2 = derivative_multipliers(n, 2)[..., None]
    out = np.empty(m.shape[:2] + (5, 1), complex)
    out[:, :, 0], out[:, :, 1], out[:, :, 2] = ik * m, ik2 * m, ik
    out[:, :, 3], out[:, :, 4] = k * dm * -(eps * eps), m
    return out[:, :, :3], out[:, :, 3:]


class _TimeReading(NamedTuple):
    """What a time t gives from the stored history alone: the jet
    multipliers of S_{1/t} and the spectrum ``H`` of hdot(t)."""

    t: float
    jet: np.ndarray
    H: np.ndarray


def _readings(state: FlowState, times: np.ndarray, jets: np.ndarray, pairs: np.ndarray,
              quadratures: tuple, h: np.ndarray) -> list[_TimeReading]:
    """The readings of ``times`` from S_{1/t}'s multipliers, the quadratures (L, C)
    and the target's spectrum h: hdot = -t^-2 S'[psi h + L] + S[psi' h + C]."""
    (L, C), s = quadratures, times[:, None, None] - state.t0
    H = pairs[:, :, 0] * (h * psi_ramp(s) + L) + pairs[:, :, 1] * (h * psi_ramp_derivative(s) + C)
    return [_TimeReading(t, jet, H_t) for t, jet, H_t in zip(times.tolist(), jets, H)]


def _read_times(state: FlowState, times: tuple[float, ...], h: np.ndarray) -> list[_TimeReading]:
    """Each t in ``times`` from the stored samples up to it, in one pass, by the
    rules of the steps' tables (_block_tables): a run's start, and the oracle."""
    times = np.array(times, dtype=float)
    jets, pairs = _spectral_multipliers(state.grid.shape[0], times)
    return _readings(state, times, jets, pairs, _window_quadratures(state, times), h)


def _block_tables(state: FlowState) -> dict[int, tuple]:
    """For each of the TABLE_STEPS steps from ``state.step``: its new times
    t + dt/2 and t + dt, their multipliers and its window's weights (2, 2, K),
    from one evaluation over the block, each step's window masked in it."""
    times, dt, first = state.times, state.dt, state.first
    steps = np.arange(state.step, min(state.step + TABLE_STEPS, len(dt)))
    new = np.stack([times[steps] + dt[steps] / 2.0, times[steps + 1]], axis=1).ravel()
    k, owner = np.arange(first[steps[0]], steps[-1] + 1), np.repeat(steps, 2)[:, None]
    weights = _window_weights(times[k], new, (k >= first[owner]) & (k <= owner))
    known = (new, *_spectral_multipliers(state.grid.shape[0], new))
    return {i: (*(part[2 * j:2 * j + 2].copy() for part in known),
                np.ascontiguousarray(weights[:, 2 * j:2 * j + 2, first[i] - k[0]:i + 1 - k[0]]))
            for j, i in enumerate(steps.tolist())}


def _smoothed_jet(n: int, jet: np.ndarray, P: np.ndarray, H: np.ndarray,
                  offsets: np.ndarray) -> tuple[np.ndarray, ...]:
    """The stack (d S_{1/t} w, d^2 S_{1/t} w), dw and hdot on n nodes, from
    S_{1/t}'s jet multipliers, the spectra of a circle map's periodic samples
    ``P`` and of hdot ``H`` by one batched irfft. The map's ``offsets``, its
    linear slope, enter both first-derivative blocks as their zero mode. The
    results are views with each component's node vector contiguous, so that
    the nodewise arithmetic after them runs along whole node vectors."""
    N = P.shape[1]
    spec = np.empty((3 * N + H.shape[1], len(P)), complex)
    np.multiply(jet.transpose(1, 2, 0), P.T, out=spec[:3 * N].reshape(3, N, -1))
    spec[3 * N:] = H.T
    spec[:N, 0] = spec[2 * N:3 * N, 0] = n * offsets[0]
    nodes = np.fft.irfft(spec, n=n).T
    return nodes[:, :2 * N].reshape(n, 2, N), nodes[:, None, 2 * N:3 * N], nodes[:, 3 * N:]


class _Rates(NamedTuple):
    """One right-hand side on the circle's nodes: arrays of shape (n, N)
    for maps, (n, 1, N) for their first derivatives and (n, 1) for
    metrics, and the rfft spectra ``W`` of wdot and ``H`` of hdot."""

    wdot: np.ndarray
    W: np.ndarray
    dwdot: np.ndarray
    hdot: np.ndarray
    H: np.ndarray
    d_smooth: np.ndarray
    dw: np.ndarray
    identity_resid: float

    @property
    def E(self) -> np.ndarray:
        """The smoothing increment E = 2 d(S_{1/t} w - w) (.) d wdot."""
        return ((self.d_smooth - self.dw) * self.dwdot).sum(-1) * 2.0


def _rhs(state: FlowState, P: np.ndarray, now: _TimeReading) -> _Rates:
    """The right-hand side at (t, w) from the spectrum ``P`` of w and the
    reading of t: three FFT calls, and one solve that gates freeness and the
    pivot floor."""
    n = state.grid.shape[0]
    stack, dw, hdot = _smoothed_jet(n, now.jet, P, now.H, state.offsets)
    try:
        wdot = _min_norm_velocity(stack, hdot)
    except NonconvergenceError as exc:
        raise NonconvergenceError(f"flow abort at t={now.t:.3f}: {exc}") from None
    W = np.fft.rfft(wdot, axis=0)
    dwdot = np.fft.irfft(now.jet[:, 2] * W, n=n, axis=0)[:, None]
    worst = _identity_residual(stack[:, :1], dwdot, hdot)
    return _Rates(wdot, W, dwdot, hdot, now.H, stack[:, :1], dw, worst)


def _advance(state: FlowState, h: np.ndarray, k1: np.ndarray) -> _TimeReading:
    """Finish the schedule's next 4th-order step, of its dt, whose first
    stage is ``k1``. Both new times are read at once, from the step's tables
    and the history, all of it before them; the middle stages share one
    reading, and the last stage's, returned, serves the next step's first."""
    if state.step not in state.tables:
        state.tables = {}  # freed before the next block's are built
        state.tables = _block_tables(state)
    times, jets, pairs, weights = state.tables[state.step]
    dt = float(state.dt[state.step])
    half, end = _readings(state, times, jets, pairs, _quadratures(state, weights), h)
    P = state.P
    k2 = _rhs(state, P + k1 * (dt / 2.0), half).W
    k3 = _rhs(state, P + k2 * (dt / 2.0), half).W
    k4 = _rhs(state, P + k3 * dt, end).W
    state.P = P + (k1 + k2 * 2.0 + k3 * 2.0 + k4) * (dt / 6.0)
    state.t += dt
    state.step += 1
    state.prune()
    return end


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


def _record(state: FlowState, rates: _Rates, P0: np.ndarray, w0_pull: np.ndarray,
            h: np.ndarray) -> FlowSample:
    """The step's diagnostics from the right-hand side just evaluated at
    (state.t, state.P), ``P0`` the starting map's spectrum: each D^0..D^4
    sup of hdot, wdot and w - w0 from one batched irfft of their spectra,
    nodes last, so that sums and sups run along whole node vectors."""
    ortho = float(abs((rates.d_smooth * rates.wdot[..., None, :]).sum(-1)).max())
    resid_now = (rates.dw * rates.dw).sum(-1) - w0_pull - h
    cols = np.concatenate([rates.H.T, rates.W.T, (state.P - P0).T])
    squares = np.fft.irfft(state.orders * cols, n=state.grid.shape[0]) ** 2
    hdot_sups, wdot_sups, dist_sups = np.sqrt((state.parts @ squares).max(axis=-1)).T.tolist()
    return FlowSample(
        t=state.t,
        hdot_c0=hdot_sups[0], hdot_c4=sum(hdot_sups),
        wdot_c0=wdot_sups[0], wdot_c4=sum(wdot_sups),
        ortho_resid=ortho,
        identity_resid=rates.identity_resid,
        dist3=sum(dist_sups[:4]),
        metric_resid=float(abs(resid_now).max()),
    )


def run_flow(w0: ImmersionField, h_target: MetricField,
             cfg: FlowConfig = FlowConfig()) -> tuple[ImmersionField, FlowDiagnostics]:
    """Integrate the regularized flow from w0 toward a map realizing
    w0#e + h_target, with classical 4th-order steps of size STEP.

    The steps run on spectra; fields are built from them only here, at the
    start and at the end, where they are checked for finite values. The
    returned map ubar = w(t_end) satisfies
    ||ubar#e - (w0#e + h_target)|| <= cfg.tol. Any error raised while
    integrating carries the steps recorded so far as ``partial_report``.
    """
    if w0.grid.dim != 1:
        raise CapabilityError(f"the flow runs on circle maps (n=1), not n={w0.grid.dim}")
    if not isinstance(h_target, MetricField) or h_target.grid.shape != w0.grid.shape:
        raise InputError(f"the target must be a metric on the starting map's grid "
                         f"{w0.grid.shape}")
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

    state = FlowState(cfg.t0, w0, cfg.t_end)
    P0, h = state.P, h_target.data
    h_spectrum = np.fft.rfft(h, axis=0)
    now = _read_times(state, (state.t,), h_spectrum)[0]

    diag = FlowDiagnostics()
    best_resid = float("inf")
    stall = 0
    try:
        for _ in range(len(state.dt)):
            rates = _rhs(state, state.P, now)
            state.record(state.t, rates.E)
            sample = _record(state, rates, P0, w0_pull.data, h)
            diag.samples.append(sample)

            if sample.metric_resid > cfg.tol:
                stall = stall + 1 if sample.metric_resid >= best_resid - 1e-15 else 0
                if stall >= DIVERGENCE_PATIENCE:
                    diag.final_resid = sample.metric_resid
                    raise DivergenceError(
                        f"residual {sample.metric_resid:.3e} not decaying for "
                        f"{DIVERGENCE_PATIENCE} steps at t={state.t:.2f}")
            best_resid = min(best_resid, sample.metric_resid)
            now = _advance(state, h_spectrum, rates.W)

        u = ImmersionField.from_periodic(
            w0.grid, np.fft.irfft(state.P, n=w0.grid.shape[0], axis=0), w0.offsets)
        diag.final_resid = sup_norm(pullback_metric(u) - w0_pull - h_target, 0)
        if diag.final_resid > cfg.tol:
            raise NonconvergenceError(
                f"final metric identity residual {diag.final_resid:.3e} exceeds "
                f"tolerance {cfg.tol:.1e}")
    except CorrugateError as exc:
        exc.partial_report = diag
        raise
    return u, diag
