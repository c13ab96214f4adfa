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
combine. Spectra and node arrays alike are component rows, each
component's modes or nodes one contiguous row, so every transform runs
along whole rows. A right-hand side takes three FFT calls: one batched
inverse gives the rows of the map's jet and of hdot, the map's linear
slope riding it as a zero mode; ``leastnorm``'s solve and audit read those
rows and write wdot as rows; the spectrum of wdot and the inverse of its
derivative run along them. The velocity's solve gates freeness and the
pivot floor itself; on a curve one Gram determinant serves both and the
solve. Every derivative multiplies by ``grid.derivative_multipliers``,
the one ik-with-Nyquist-zeroed rule the fields differentiate by.

The classical RK4 steps are STEP through the ramp, to t0 + 1. After it the
flow moves only with the smoothing scale 1/t, and the step is set once per
block from RK4's FSAL (first-same-as-last) error estimate (Hairer, Norsett &
Wanner, Solving ODEs I, II.4), so that the block's error rate stays at the
largest the ramp's steps read (FlowState.extend). The final residual of a
constant target is the ramp's 4th-order error, which the later steps keep.

What depends on time alone is built once per block of TABLE_STEPS steps,
from the schedule of step times and of the samples each step's window
holds: both new times' multipliers and quadrature weights. A step multiplies
its weights by the stored spectra, and the last stage's reading serves the
next step's first. Tables of the grid alone are built once per run.

If w(t) converges, its pullback picks up exactly the target tensor h:
the smoothing error E is reabsorbed into h(t) by construction, which is
the whole point of the regularization.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from . import grid as grid_module
from .corrugation import TRIAL_PEAK_DOUBLES, _trial_memory
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

#: flow time, in steps of STEP, that an above-tolerance residual may go without
#: decaying before the run gives up: 20 steps, the ramp's width
DIVERGENCE_PATIENCE = 20

#: growth factor that trips a diagnostic flag
GROWTH_FLAG_FACTOR = 10.0

#: step of the classical 4th-order integrator through the ramp, and the least
#: step after it
STEP = 0.05

#: bytes a step holds until the run's report is written: its schedule entries
#: (24), its FlowSample (345-356) and its CSV row (143-144), a traced peak of
#: 520-533 over 2e4-2e5 steps (tracemalloc, CPython 3.11)
STEP_BYTES = 544


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
        # _schedule's step count, refused before any schedule exists; the cap is the
        # steps that fit the memory the grid cap (read at call time) stands for
        steps = math.ceil((self.resolved_end - 1e-9 - self.t0) / STEP)
        cap = grid_module.MAX_NODES * TRIAL_PEAK_DOUBLES * 8 // STEP_BYTES
        if steps > cap:
            raise InputError(
                f"t_end {self.resolved_end!r} takes {steps} steps of {STEP} from t0 "
                f"{self.t0!r}, beyond the cap of {cap} steps: their schedule and record "
                f"would take {steps * STEP_BYTES / 2**20:,.1f} MiB at {STEP_BYTES} bytes a "
                f"step, and the cap is the memory of the desk-scale grid of "
                f"{grid_module.MAX_NODES} nodes, {_trial_memory(grid_module.MAX_NODES)}")
        if not self.tol > 0:
            raise InputError(f"tol must be positive, got {self.tol!r}")
        if not self.smallness > 0:
            raise InputError(f"smallness must be positive, got {self.smallness!r}")

    @property
    def resolved_end(self) -> float:
        return self.t_end if self.t_end is not None else self.t0 + 200.0


#: E samples a state makes room for: the width-one window, the two steps
#: that ``prune`` keeps behind it, the newest sample and some slack (no step
#: is shorter than STEP)
WINDOW_SLOTS = int(np.ceil((1.0 + 2.0 * STEP) / STEP)) + 4

#: steps whose time-only tables are built at once: the peak RSS of a 256-node,
#: 240-step flow read 31.81 MiB at 1 step, 31.79 at 8, 32.62 at 26 and 42.63
#: at all 240 (median of 5 runs, x86-64 Linux, numpy 2.4.6)
TABLE_STEPS = 8


def _schedule(t0: float, t_end: float, step: float = STEP) -> tuple[np.ndarray, np.ndarray]:
    """Steps of ``step`` from t0 by the run's own accumulation of t, the last
    one cut to end exactly at t_end: the times, t0 first, and the steps."""
    times, dt = [t0], []
    while times[-1] < t_end - 1e-9:
        dt.append(min(step, t_end - times[-1]))
        times.append(times[-1] + dt[-1])
    times[-1] = t_end
    return np.array(times), np.array(dt)


class FlowState:
    """Integrator state on rfft spectra in component rows, from the map ``w0``
    at ``t0`` to ``t_end`` (FlowConfig's if None): time ``t`` and its
    ``step``, the map's spectrum ``P`` (N, modes), the stored increments
    E(tau) as ``taus[:count]`` and ``E[:count]`` (k, modes) each, sized to the
    window, not the run, ``tail`` (k, modes), the retired history integral,
    and the block's ``tables`` by step (_block_tables).

    Step i runs from times[i] by dt[i] and reads the samples first[i]..i,
    sample k taken at times[k]: the end of step i retires each k < i whose
    next lies behind t_{i+1} - 1 - 2 STEP. The schedule starts as the ramp,
    steps of STEP to t0 + 1, and ``extend`` adds one block after it at a
    time, sized by the error rates ``measure`` reads."""

    def __init__(self, t0: float, w0: ImmersionField, t_end: float | None = None):
        self.t = self.t0 = t0
        self.t_end = FlowConfig(t0, t_end).resolved_end
        self.times, self.dt = _schedule(t0, t0 + 1.0, STEP)
        self.first = self._window_starts()
        self.ramp, self.h, self.k4 = len(self.dt), STEP, None
        self.target = self.block_rate = 0.0
        self.step, self.tables = 0, {}
        self.grid, self.offsets = w0.grid, w0.offsets
        self.P = np.fft.rfft(w0.data.T)
        self.tail = np.zeros((1, self.P.shape[1]), complex)
        self.taus = np.empty(WINDOW_SLOTS)
        self.E = np.empty(self.taus.shape + self.tail.shape, complex)
        self.count = 0
        # the record's tables: D^0..D^4 multipliers, rows of hdot, wdot, w - w0
        ik = derivative_multipliers(self.grid.shape[0], 4)
        self.orders = np.concatenate([np.ones((1, ik.shape[1])), ik])
        self.parts = np.repeat(np.eye(3), [len(self.tail)] + [len(self.P)] * 2, axis=1)

    def _window_starts(self) -> np.ndarray:
        behind = np.searchsorted(self.times, self.times[1:] - 1.0 - 2.0 * STEP, side="right") - 1
        return np.concatenate([[0], np.clip(behind, 0, np.arange(len(self.dt)))])

    def measure(self, k5: np.ndarray):
        """Read the last step's local-error rate sup|k4 - k5|/6, its FSAL
        estimate with ``k5`` the next step's first stage, into the block's
        largest and, on the ramp, into the ramp's largest, the target of the
        steps after it. The sup over n nodes is bounded by 2/n times the ell^1
        sum of each rfft row of k4 - k5, so no inverse transform is taken."""
        rate = float(abs(self.k4 - k5).sum(axis=-1).max()) / (3.0 * self.grid.shape[0])
        self.block_rate = max(self.block_rate, rate)
        if self.step <= self.ramp:
            self.target = max(self.target, rate)

    def extend(self):
        """Schedule the next block after the ramp: its step is the last one's
        times a factor in [1/2, 2] that brings the last block's largest error
        rate, which scales as the step cubed, to the ramp's largest, then held
        in [STEP, 1], the width of the memory window. TABLE_STEPS steps of it,
        or, once no more than TABLE_STEPS + 1 of them are left, what is left in
        equal steps of at most it and at least STEP, ending at t_end."""
        rate, target = self.block_rate, self.target
        factor = 2.0 if 8.0 * rate <= target else max(0.5, (target / rate) ** (1.0 / 3.0))
        self.h = min(max(self.h * factor, STEP), 1.0)
        left = self.t_end - self.t
        if left > (TABLE_STEPS + 1) * self.h:
            times, dt = _schedule(self.t, self.t + TABLE_STEPS * self.h, self.h)
        else:
            count = max(1, min(math.ceil(left / self.h), math.floor(left / STEP)))
            times, dt = _schedule(self.t, self.t_end, left / count)
        self.times = np.concatenate([self.times, times[1:]])
        self.dt = np.concatenate([self.dt, dt])
        self.first = self._window_starts()

    def record(self, tau: float, E: np.ndarray):
        """Store the spectrum of the node rows E(tau), tau after every stored time."""
        self.taus[self.count] = tau
        self.E[self.count] = np.fft.rfft(E)
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
    array: the jet multipliers (ik m, (ik)^2 m, ik), shape (T, 3, 1, modes),
    and the hdot pair (-t^-2 |xi| m'(|xi|/t), m), shape (T, 2, 1, modes),
    each a row that multiplies the component rows of a spectrum."""
    eps = 1.0 / times[:, None]
    k = np.arange(n // 2 + 1, dtype=float)
    m, dm = multipliers(eps * k)
    ik, ik2 = derivative_multipliers(n, 2)
    out = np.empty((len(m), 5, 1, len(k)), complex)
    out[:, 0, 0], out[:, 1, 0], out[:, 2, 0] = ik * m, ik2 * m, ik
    out[:, 3, 0], out[:, 4, 0] = k * dm * -(eps * eps), m
    return out[:, :3], out[:, 3:]


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
    H = pairs[:, 0] * (h * psi_ramp(s) + L) + pairs[:, 1] * (h * psi_ramp_derivative(s) + C)
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
                  offsets: np.ndarray) -> np.ndarray:
    """The rows of d S_{1/t} w, d^2 S_{1/t} w, dw and hdot on n nodes, N
    rows each for the map's and k for hdot, as one C-contiguous (3N + k, n)
    array: the batched irfft's own output, from S_{1/t}'s jet multipliers
    (3, 1, modes) and the spectra of a circle map's periodic samples ``P``
    (N, modes) and of hdot ``H`` (k, modes). The map's ``offsets``, its
    linear slope, enter both first-derivative blocks as their zero mode.
    Each component's node vector is one contiguous row, so that the
    nodewise arithmetic after it runs along whole node vectors."""
    N = len(P)
    spec = np.empty((3 * N + len(H), P.shape[1]), complex)
    blocks = spec[:3 * N].reshape(3, N, -1)
    np.multiply(jet, P, out=blocks)
    blocks[::2, :, 0] = n * offsets[0]
    spec[3 * N:] = H
    return np.fft.irfft(spec, n=n)


class _Rates(NamedTuple):
    """One right-hand side on the circle's nodes, as the component rows it
    was solved on: ``rows`` as _smoothed_jet returns them, ``velocity`` and
    ``slope``, the (N, n) rows of wdot and d wdot, and the rfft spectra
    ``W`` (N, modes) of wdot and ``H`` (k, modes) of hdot."""

    rows: np.ndarray
    velocity: np.ndarray
    slope: np.ndarray
    W: np.ndarray
    H: np.ndarray
    identity_resid: float

    @property
    def E(self) -> np.ndarray:
        """The smoothing increment E = 2 d(S_{1/t} w - w) (.) d wdot, one row."""
        N = len(self.velocity)
        return np.add.reduce((self.rows[:N] - self.rows[2 * N:3 * N]) * self.slope, 0)[None] * 2.0


def _rhs(state: FlowState, P: np.ndarray, now: _TimeReading) -> _Rates:
    """The right-hand side at (t, w) from the spectrum ``P`` of w and the
    reading of t, on component rows: three FFT calls, and one solve that
    gates freeness and the pivot floor."""
    n, N = state.grid.shape[0], len(P)
    rows = _smoothed_jet(n, now.jet, P, now.H, state.offsets)
    stack, hdot = rows[:2 * N].reshape(2, N, n), rows[3 * N:]
    try:
        wdot = _min_norm_velocity(stack, hdot)
    except NonconvergenceError as exc:
        raise NonconvergenceError(f"flow abort at t={now.t:.3f}: {exc}") from None
    W = np.fft.rfft(wdot)
    dwdot = np.fft.irfft(now.jet[2] * W, n=n)
    worst = _identity_residual(stack[:1], dwdot[None], hdot)
    return _Rates(rows, wdot, dwdot, W, now.H, worst)


def _advance(state: FlowState, h: np.ndarray, k1: np.ndarray) -> _TimeReading:
    """Finish the schedule's next 4th-order step, of its dt, whose first
    stage is ``k1``, which also reads the last step's error rate. Both new
    times are read at once, from the step's tables and the history, all of it
    before them; the middle stages share one reading, and the last stage's,
    returned, serves the next step's first. A new block is scheduled when the
    schedule runs out, and its tables are built at its first step."""
    if state.k4 is not None:
        state.measure(k1)
    if state.step not in state.tables:
        if state.step == len(state.dt):
            state.extend()
        state.tables, state.block_rate = {}, 0.0  # freed before the next block's are built
        state.tables = _block_tables(state)
    times, jets, pairs, weights = state.tables[state.step]
    dt = float(state.dt[state.step])
    half, end = _readings(state, times, jets, pairs, _quadratures(state, weights), h)
    P = state.P
    k2 = _rhs(state, P + k1 * (dt / 2.0), half).W
    k3 = _rhs(state, P + k2 * (dt / 2.0), half).W
    state.k4 = _rhs(state, P + k3 * dt, end).W
    state.P = P + (k1 + k2 * 2.0 + k3 * 2.0 + state.k4) * (dt / 6.0)
    state.step += 1
    state.t = float(state.times[state.step])
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
    """The step's diagnostics from the right-hand side just evaluated at (state.t,
    state.P), ``P0`` the starting map's spectrum, ``w0_pull`` and ``h`` metric rows:
    each D^0..D^4 sup of hdot, wdot and w - w0 from one batched irfft of their
    spectra, so that sums and sups run along whole node vectors."""
    N = len(rates.velocity)
    dS, dw = rates.rows[:N], rates.rows[2 * N:3 * N]
    ortho = float(abs(np.add.reduce(dS * rates.velocity, 0)).max())
    resid_now = np.add.reduce(dw * dw, 0) - w0_pull - h
    spectra = np.concatenate([rates.H, rates.W, state.P - P0])[:, None]
    squares = np.fft.irfft(spectra * state.orders, n=state.grid.shape[0]) ** 2
    sups = (state.parts @ squares.reshape(len(squares), -1)).reshape(3, len(state.orders), -1)
    hdot_sups, wdot_sups, dist_sups = np.sqrt(sups.max(-1)).tolist()
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
    w0#e + h_target, with classical 4th-order steps (FlowState). A residual
    above cfg.tol that has not decayed for DIVERGENCE_PATIENCE * STEP of flow
    time, the ramp's width, aborts.

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
    P0, h, pull = state.P, h_target.data.T, w0_pull.data.T
    h_spectrum = np.fft.rfft(h)
    now = _read_times(state, (state.t,), h_spectrum)[0]

    diag = FlowDiagnostics()
    best_resid, best_t = float("inf"), state.t
    try:
        while state.t < state.t_end:
            rates = _rhs(state, state.P, now)
            state.record(state.t, rates.E)
            sample = _record(state, rates, P0, pull, h)
            diag.samples.append(sample)

            if sample.metric_resid < best_resid - 1e-15:
                best_t = state.t
            elif (sample.metric_resid > cfg.tol
                  and state.t - best_t >= DIVERGENCE_PATIENCE * STEP - 1e-9):
                diag.final_resid = sample.metric_resid
                raise DivergenceError(f"residual {sample.metric_resid:.3e} not decaying "
                                      f"from t={best_t:.2f} to t={state.t:.2f}")
            best_resid = min(best_resid, sample.metric_resid)
            now = _advance(state, h_spectrum, rates.W)

        u = ImmersionField.from_periodic(
            w0.grid, np.fft.irfft(state.P, n=w0.grid.shape[0]).T, w0.offsets)
        diag.final_resid = sup_norm(pullback_metric(u) - w0_pull - h_target, 0)
        if diag.final_resid > cfg.tol:
            raise NonconvergenceError(
                f"final metric identity residual {diag.final_resid:.3e} exceeds "
                f"tolerance {cfg.tol:.1e}")
    except CorrugateError as exc:
        exc.partial_report = diag
        raise
    return u, diag
