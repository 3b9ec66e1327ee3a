"""Semi-discrete right-hand side, time steppers, and trajectory driver.

Space discretization is the staggered second-order scheme: velocity
differences live on cells, stress differences on interior nodes, and the heat
flux on interior nodes with arithmetic face means of temperature and volume.
Both walls are impermeable (u = 0) and adiabatic (zero heat flux).

``step`` takes one step with either of two schemes: a linearly-implicit
backward-Euler step (stiff diffusion solved with one symmetric
positive-definite tridiagonal system per field) and a fully explicit midpoint
step used for cross-validation. Both reject a step instead of returning a
state with non-positive volume or temperature.
"""

from __future__ import annotations

import importlib.util
import math
import os
import time
from dataclasses import dataclass, field
from importlib.machinery import PathFinder
from itertools import accumulate, repeat

import numpy as np

from . import functionals, representation
from .core import (_HALF, _ONE, Grid, PhysParams, State, Workspace, _frozen, _operand,
                   _pow, check_normalization, validate_state)
from .errors import NumericalBreakdown, ParamError, SimulationFailure, StepRejected


def _load_flapack():
    """scipy's Fortran LAPACK wrapper module, loaded on its own. Importing
    ``scipy.linalg`` for it would take longer than importing the rest of the
    package, and ``get_lapack_funcs`` returns this module's functions."""
    scipy_dir, = importlib.util.find_spec("scipy").submodule_search_locations
    spec = PathFinder.find_spec("scipy.linalg._flapack", [os.path.join(scipy_dir, "linalg")])
    if spec is None:
        raise ImportError("scipy.linalg._flapack not found")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


_ptsv = _load_flapack().dptsv

# After a rejection, dt is halved; the nominal dt is restored once this many
# consecutive steps have been accepted at the reduced value.
RECOVERY_STEPS = 10

IMEX_BE = "imex_be"
EXPLICIT_RK2 = "explicit_rk2"
SCHEMES = (IMEX_BE, EXPLICIT_RK2)

# The explicit scheme rejects a dt above this share of its stability bound.
CFL_SAFETY = 0.9
# No step may bring a volume or a temperature down to this value.
POSITIVITY_FLOOR = 1e-10
# The reasons a StepRejected names: the IMEX kernel's two floors, and the
# explicit kernel's stability bound and its two positivity checks.
VOLUME_FLOOR = "volume_floor"
TEMPERATURE_FLOOR = "temperature_floor"
STABILITY_BOUND = "stability_bound"
MIDPOINT_POSITIVITY = "midpoint_positivity"
FINAL_POSITIVITY = "final_positivity"
# A time within TIME_TOLERANCE * max(1, |t_end|) of t_end or of a sample
# time counts as on it.
TIME_TOLERANCE = 1e-12


def _above_floor(x: np.ndarray):
    # True when every entry of x exceeds POSITIVITY_FLOOR. argmin gives the
    # index of the smallest entry or of the first NaN, so a NaN fails too;
    # at small N it costs less than a min-reduction.
    return x[x.argmin()] > POSITIVITY_FLOOR


@dataclass(frozen=True)
class StepControls:
    """Time-stepping knobs; raises ParamError naming ``dt``, ``scheme`` or
    ``max_retries``, which must be an int (not a bool) of at least 0."""

    dt: float
    scheme: str = IMEX_BE
    max_retries: int = 12

    def __post_init__(self):
        if not (math.isfinite(self.dt) and self.dt > 0.0):
            raise ParamError("dt", f"dt must be positive and finite, got {self.dt}")
        if self.scheme not in SCHEMES:
            raise ParamError("scheme", f"scheme must be one of {SCHEMES}, got {self.scheme!r}")
        retries = self.max_retries
        if isinstance(retries, bool) or not isinstance(retries, int) or retries < 0:
            raise ParamError("max_retries", f"max_retries must be a non-negative integer, "
                             f"got {retries!r}")


def _check_cells(n_cells: int) -> None:
    if n_cells < 2:
        raise ParamError("n_cells", f"time stepping requires at least 2 cells, got {n_cells}")


def check_run(n_cells: int, t0: float, t_end: float, sample_every: float | None) -> float:
    """Check the run controls of ``advance`` and return its time tolerance,
    TIME_TOLERANCE * max(1, |t_end|). ``t_end`` must be finite and exceed
    t0 by more than the tolerance, or the driver would count the run as
    landed on t_end at t0 and take no step. ``sample_every`` is None (no
    samples) or a cadence of at least the tolerance: a smaller one would
    keep the driver counting past the sample times near each landing.
    Raises ParamError naming ``n_cells``, ``t_end`` or ``sample_every``."""
    _check_cells(n_cells)
    tiny = TIME_TOLERANCE * max(1.0, abs(t_end))
    if not (math.isfinite(t_end) and t_end - t0 > tiny):
        raise ParamError("t_end", f"t_end = {t_end} must be finite and exceed the "
                         f"initial time {t0} by more than {tiny:g}")
    if sample_every is not None and not (math.isfinite(sample_every)
                                         and sample_every >= tiny):
        raise ParamError("sample_every", f"sample_every must be finite and at least "
                         f"{tiny:g}, got {sample_every}")
    return tiny


@dataclass(frozen=True)
class Sources:
    """Forcing fields added termwise to the three evolution equations.

    Used by the manufactured-solution machinery; zero for physical runs.
    s_u must vanish at the boundary nodes so the wall condition survives.
    Like a State, it keeps read-only copies of the caller's arrays.
    """

    s_v: np.ndarray
    s_u: np.ndarray
    s_theta: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "s_v", _frozen(self.s_v))
        object.__setattr__(self, "s_u", _frozen(self.s_u))
        object.__setattr__(self, "s_theta", _frozen(self.s_theta))
        if self.s_u[0] != 0.0 or self.s_u[-1] != 0.0:
            raise ValueError("s_u must vanish at the boundary nodes")


def _fields_at(src, t):
    # the Sources of src at time t: src itself when it is constant, else
    # what it returns
    if src is None or isinstance(src, Sources):
        return src
    return src(t)


def _sources_at(src, t, dt, ws):
    """The increments (s_v*dt, s_u[1:-1]*dt, s_theta*dt) that an IMEX step
    of size dt adds for the sources ``src`` at time t, or None without
    sources. ManufacturedSources give them from their plan, which they
    make for the next ``ws.block`` steps when it lacks (t, dt); any other
    source is scaled into ``ws.step_sources``, bit for bit the planned
    values."""
    if src is None:
        return None
    if isinstance(src, ManufacturedSources):
        return src.increments_at(t, dt, ws.block)
    s = _fields_at(src, t)
    inc_v, inc_u_in, inc_theta = inc = ws.step_sources
    np.multiply(s.s_v, dt, inc_v)
    np.multiply(s.s_u[1:-1], dt, inc_u_in)
    np.multiply(s.s_theta, dt, inc_theta)
    return inc


def _solve_spd_tridiag(diag, off, rhs):
    """Solve the symmetric positive-definite tridiagonal system with main
    diagonal ``diag``, off-diagonal ``off`` and right-hand side ``rhs``.

    Works in place: the solution overwrites ``rhs``, which is returned, and
    the factorization overwrites ``diag`` and ``off``. Raises
    NumericalBreakdown on a pivot that is not positive.
    """
    if diag.shape[0] == 1:
        # written so that a NaN pivot fails the check too
        if not diag[0] > 0.0:
            raise NumericalBreakdown("tridiagonal solve hit a non-positive pivot")
        rhs /= diag
        return rhs
    # overwrite_d, overwrite_e and overwrite_b, passed by position
    d, _, x, info = _ptsv(diag, off, rhs, 1, 1, 1)
    if info != 0:
        raise NumericalBreakdown(f"tridiagonal solve hit a non-positive pivot (row {info})")
    # ptsv stops only at a pivot <= 0, so a NaN pivot passes; it spoils every
    # pivot after it, and the last one shows it
    if not d[-1] > 0.0:
        raise NumericalBreakdown("tridiagonal solve hit a NaN pivot")
    if x is not rhs:
        # LAPACK got a copy of an array it could not use as it is
        rhs[...] = x
    return rhs


def spatial_rhs(v: np.ndarray, u: np.ndarray, theta: np.ndarray, p: PhysParams,
                g: Grid, src: Sources | None = None):
    """Evaluate the semi-discrete right-hand side at the fields (v, u, theta);
    returns the rates (dv on cells, du on nodes, dtheta on cells).

    dv is the cell difference quotient of u; du the node difference quotient
    of the cell stress (mu_tilde*u_x - R*theta)/v, forced to zero at the
    walls; dtheta collects compression work, viscous heating, and the
    divergence of the wall-vanishing heat flux, divided by c_v. Sources are
    added termwise.
    """
    dx = g.dx
    ux = (u[1:] - u[:-1]) / dx
    sigma = (p.mu_tilde * ux - p.R * theta) / v

    du = np.zeros(g.n_cells + 1)
    du[1:-1] = (sigma[1:] - sigma[:-1]) / dx

    flux = np.zeros(g.n_cells + 1)
    thf = 0.5 * (theta[:-1] + theta[1:])
    vf = 0.5 * (v[:-1] + v[1:])
    flux[1:-1] = p.kappa_tilde * _pow(thf, p.beta) / vf * ((theta[1:] - theta[:-1]) / dx)
    dtheta = (sigma * ux + (flux[1:] - flux[:-1]) / dx) / p.c_v

    dv = ux
    if src is not None:
        dv = dv + src.s_v
        du = du + src.s_u
        du[0] = du[-1] = 0.0
        dtheta = dtheta + src.s_theta
    return dv, du, dtheta


def stability_limit(v: np.ndarray, theta: np.ndarray, p: PhysParams, g: Grid) -> float:
    """Largest stable dt for the explicit scheme at the fields (v, theta)."""
    dx2 = g.dx * g.dx
    vmin = float(v.min())
    th_max = float(theta.max())
    dt_thermal = dx2 * vmin * p.c_v / (2.0 * p.kappa_tilde * th_max ** p.beta)
    dt_viscous = dx2 * vmin / (2.0 * p.mu_tilde)
    return min(dt_thermal, dt_viscous)


def _dt_bound(scheme, v, theta, p, g) -> float:
    """Largest dt that ``scheme`` accepts from the fields (v, theta)."""
    if scheme == EXPLICIT_RK2:
        return CFL_SAFETY * stability_limit(v, theta, p, g)
    return math.inf


def _step_size(t, dt, target):
    """(dt_try, t_new) of the step from t with the nominal size dt: the step
    that remains to ``target`` when it is at most dt (clamped onto target),
    else one of size dt."""
    remaining = target - t
    if remaining <= dt * (1.0 + 1e-9):
        return remaining, target
    return dt, t + dt


# Both kernels step from ws.cur, the last accepted or loaded row of the run's
# Workspace ``ws``, into the row ws.nxt: the new state, its cell velocity
# gradient ``ux`` and the face means ``vf`` of its volume, which the dissipation
# reads instead of recomputing them. The run's p and g are those ws was loaded with.

def _imex_kernel(t, dt, src, ws):
    # The views of rows and scratch come prebuilt with the Workspace, each ufunc
    # takes its ``out`` by position, and every scalar operand is a 0-d array of
    # ws: a step builds no view, parses no keyword and converts no float.
    inc = _sources_at(src, t + dt, dt, ws)
    ws.at(dt)
    cur, out = ws.cur, ws.nxt
    v, theta = cur.v, cur.theta
    inv_v, work, work2 = ws.step_cells
    work_f = ws.step_faces[0]
    inv_lo, inv_hi, inv_in, work_lo, work_hi, off, kf, kf_lo, kf_hi = ws.step_views

    # volume first, explicitly, so both solves see the new geometry
    v_new = np.multiply(cur.ux, ws.step_dt, out.v)
    v_new += v
    if inc is not None:
        v_new += inc[0]
    if not _above_floor(v_new):
        raise StepRejected(VOLUME_FLOOR, "volume fell to the positivity floor")
    np.divide(_ONE, v_new, inv_v)

    # implicit velocity: (I - dt*L) u = u + dt*(-P_x + s_u), pressure lagged in
    # theta, solved in place in the interior of the new velocity;
    # coef = dt * mu_tilde / dx**2
    diag = np.add(inv_lo, inv_hi, work_f)
    diag *= ws.coef
    diag += _ONE
    np.multiply(inv_in, ws.neg_coef, off)
    theta_r = np.multiply(theta, ws.R, work2)
    np.multiply(theta_r, inv_v, work)  # the pressure
    rhs = np.subtract(work_hi, work_lo, out.u_in)
    rhs *= ws.dt_dx
    np.subtract(cur.u_in, rhs, rhs)
    if inc is not None:
        rhs += inc[1]
    _solve_spd_tridiag(diag, off, rhs)
    ux_new = np.subtract(out.u_hi, out.u_lo, out.ux)
    ux_new /= ws.dx

    # implicit temperature: conductivity frozen at the old theta, reaction and
    # viscous heating explicit but evaluated with the new velocity;
    # lam = dt / (c_v * dx**2)
    vf = np.add(out.v_lo, out.v_hi, out.vf)
    vf *= _HALF
    np.divide(cur.knum, vf, kf)
    heating = np.multiply(ux_new, ws.mu, work)
    heating -= theta_r
    heating *= ux_new
    heating *= inv_v
    heating *= ws.dt_cv
    theta_new = np.add(theta, heating, out.theta)
    if inc is not None:
        theta_new += inc[2]
    # each row couples through the faces beside it; the walls' faces are
    # zeros that conduct nothing, and 0 + k is k exactly
    diag2 = np.add(kf_lo, kf_hi, work)
    diag2 *= ws.lam
    diag2 += _ONE
    off2 = np.multiply(kf, ws.neg_lam, work_f)
    _solve_spd_tridiag(diag2, off2, theta_new)
    if not _above_floor(theta_new):
        raise StepRejected(TEMPERATURE_FLOOR, "temperature fell to the positivity floor")


def _rk2_kernel(t, dt, src, ws):
    # computes in fresh arrays, and copies the result into ws.nxt
    p, g = ws.p, ws.g
    v, u, theta = ws.cur.v, ws.cur.u, ws.cur.theta
    dt_stab = _dt_bound(EXPLICIT_RK2, v, theta, p, g)
    if dt > dt_stab:
        raise StepRejected(STABILITY_BOUND,
                           f"dt = {dt} exceeds the explicit stability bound {dt_stab}")

    def rates(vv, uu, tt, when):
        return spatial_rhs(vv, uu, tt, p, g, _fields_at(src, when))

    dv, du, dtheta = rates(v, u, theta, t)
    vm = v + 0.5 * dt * dv
    um = u + 0.5 * dt * du
    tm = theta + 0.5 * dt * dtheta
    if not (_above_floor(vm) and _above_floor(tm)):
        raise StepRejected(MIDPOINT_POSITIVITY, "midpoint stage violated positivity")

    dv, du, dtheta = rates(vm, um, tm, t + 0.5 * dt)
    v_new = v + dt * dv
    u_new = u + dt * du
    u_new[0] = u_new[-1] = 0.0
    theta_new = theta + dt * dtheta
    if not (_above_floor(v_new) and _above_floor(theta_new)):
        raise StepRejected(FINAL_POSITIVITY, "state violated positivity after the step")
    out = ws.nxt
    out.v[...] = v_new
    out.u[...] = u_new
    out.theta[...] = theta_new
    out.ux[...] = (u_new[1:] - u_new[:-1]) / g.dx
    out.vf[...] = 0.5 * (v_new[:-1] + v_new[1:])


_KERNELS = {IMEX_BE: _imex_kernel, EXPLICIT_RK2: _rk2_kernel}


def _take_step(t, dt, scheme, src, ws):
    """One attempt at a step of size dt from ws.cur at time t into ws.nxt;
    raises StepRejected."""
    _KERNELS[scheme](t, dt, src, ws)


def step(s: State, p: PhysParams, g: Grid, c: StepControls,
         src: Sources | None = None) -> State:
    """One step of size c.dt with the scheme c.scheme.

    Raises StepRejected when the step would bring volume or temperature down
    to the positivity floor, or when c.dt exceeds the explicit scheme's
    stability bound; ParamError naming ``n_cells`` on a grid of one cell.
    """
    _check_cells(g.n_cells)
    ws = Workspace(g.n_cells, 1)
    ws.load(s, g, p)
    _take_step(s.t, c.dt, c.scheme, src, ws)
    return State(t=s.t + c.dt, v=ws.nxt.v, u=ws.nxt.u, theta=ws.nxt.theta)


@dataclass
class Trajectory:
    """Sampled records of ``advance``, its first and last sampled states,
    the running accumulators, and the seconds ``advance`` spent per phase.

    ``rejections`` counts the rejected steps by StepRejected reason, and
    ``min_dt`` is the smallest nominal dt the run reached: c.dt, or the
    smallest a rejection halved it to. A run without samples
    (``sample_every=None``) keeps no diagnostics: ``records`` is empty,
    ``accumulators`` is None and ``final_state`` is the state at t_end (or
    ``initial_state`` in the trajectory of a failure)."""

    grid: Grid
    params: PhysParams
    v_star: float
    theta_star: float
    initial_state: State
    final_state: State
    min_dt: float
    records: list = field(default_factory=list)
    n_steps: int = 0
    rejections: dict = field(default_factory=dict)
    accumulators: representation.ReprAccumulators | None = None
    phase_s: dict = field(default_factory=dict)

    def column(self, name: str) -> np.ndarray:
        """One scalar DiagnosticsRecord field across all samples."""
        return np.array([getattr(r, name) for r in self.records])

    @property
    def n_rejected(self) -> int:
        return sum(self.rejections.values())

    @property
    def times(self) -> np.ndarray:
        return self.column("t")


class _Diagnostics:
    """The diagnostics of one sampled run from ``s0``, which ``ws`` holds
    loaded with the run's grid and gas (``Workspace.load``): the running time
    integral of the dissipation, the volume reconstruction accumulators
    ``acc`` and the records, which it appends to ``records``: that of
    ``s0`` on construction, the others as samples. Every record pass takes
    ``record_args``.

    The running integral and the accumulators fold in a block of accepted
    steps at once: when it is full, before every sample and before a
    failure is raised, bit for bit as if they took every step on its own.
    Each sample after ``s0`` copies its row's fields into the next row of a
    buffer of as many rows as a block, with its time and running totals,
    and the records of the staged samples are computed in one
    ``functionals.records_from`` pass: when the buffer is full, at the end
    of the run and before a failure is raised.

    ``fold`` folds in the steps ``ws`` accepted since the last fold, if
    any; after it, ``dissipation`` and ``base`` hold the dissipation and the
    base profile of the last accepted state. ``sample(t)`` folds and stages
    the sample of ``ws.cur`` at t, and ``flush`` folds and appends the
    records of the staged rows. ``last_state`` is the last staged sample.
    ``fold_s`` and ``sample_s`` are the seconds spent folding and sampling
    (the initial record, staging and the record passes).
    """

    def __init__(self, s0: State, ws: Workspace, records: list, **record_args):
        g, n, rows = ws.g, ws.g.n_cells, ws.block
        self.ws, self.records, self.record_args = ws, records, record_args
        self.acc = representation.init_accumulators(s0, g, ws)
        self.int_v_dt = 0.0
        self.base = None
        self.v, self.u, self.theta = (np.empty((rows, n)), np.empty((rows, n + 1)),
                                      np.empty((rows, n)))
        # (t, int_v_dt, repr_err, log_damping, dissipation_V) of each staged row
        self.staged = []
        self.last = None
        self.fold_s = 0.0
        started = time.perf_counter()
        first = functionals.record(s0, g, ws.p, int_v_dt=self.int_v_dt,
                                   log_damping=self.acc.log_damping, **record_args)
        records.append(first)
        self.dissipation = first.dissipation_V
        self.sample_s = time.perf_counter() - started

    def fold(self) -> None:
        if not self.ws.filled:
            return
        started = time.perf_counter()
        ws, acc = self.ws, self.acc
        g, block = ws.g, ws.pending()
        dts = block.dt.tolist()  # Python floats for the scalar recurrences
        rates = functionals.dissipation_from(block.ux, block.vf, block.v, block.theta,
                                             block.thf, block.knum, ws)
        # the scalar recurrences run one step after the other, as they would
        # step by step
        prev, total = self.dissipation, self.int_v_dt
        for dt, rate in zip(dts, rates):
            total += 0.5 * dt * (prev + rate)
            prev = rate
        self.dissipation, self.int_v_dt = prev, total
        representation.update_damping(acc, block.u, block.theta, g, dts)
        base = representation._base_factor_cached(acc, block.v, block.u, g)
        representation.update_history(acc, block.theta, base, block.dt)
        self.base = base[-1]
        ws.fold()
        self.fold_s += time.perf_counter() - started

    def sample(self, t: float) -> None:
        self.fold()
        started = time.perf_counter()
        row = self.ws.cur
        v_rec = representation.reconstruct_volume(self.acc, self.base)
        repr_err = float(np.max(np.abs(v_rec - row.v) / row.v))
        i = len(self.staged)
        self.v[i] = row.v
        self.u[i] = row.u
        self.theta[i] = row.theta
        self.staged.append((t, self.int_v_dt, repr_err, self.acc.log_damping,
                            self.dissipation))
        self.last = (t, i)
        self.sample_s += time.perf_counter() - started
        if i + 1 == self.v.shape[0]:
            self.flush()

    def flush(self) -> None:
        self.fold()
        k = len(self.staged)
        if k == 0:
            return
        started = time.perf_counter()
        times, int_v_dt, repr_err, log_damping, dissipation = zip(*self.staged)
        self.records.extend(functionals.records_from(
            self.v[:k], self.u[:k], self.theta[:k], times, self.ws.g, self.ws.p,
            int_v_dt=int_v_dt, repr_err=repr_err, log_damping=log_damping,
            dissipation_V=dissipation, **self.record_args))
        self.staged.clear()
        self.sample_s += time.perf_counter() - started

    def last_state(self) -> State | None:
        # a flush leaves the rows as they are, so the last one outlives it
        if self.last is None:
            return None
        t, i = self.last
        return State(t=t, v=self.v[i], u=self.u[i], theta=self.theta[i])


def advance(s0: State, p: PhysParams, g: Grid, c: StepControls, t_end: float,
            sample_every: float | None, src: Sources | None = None, *,
            lp_exponents=None) -> Trajectory:
    """Integrate from ``s0`` to ``t_end``, sampling diagnostics on the way
    every ``sample_every``, or, when it is None, sampling nothing.

    The reference states of the diagnostics are v_star, the mass of ``s0``,
    and theta_star, its total energy over c_v.

    Steps are shortened to land exactly on every sample time and on t_end.
    A rejected step halves dt and retries, up to c.max_retries times in a
    row; the nominal dt is restored after RECOVERY_STEPS accepted steps,
    capped for the explicit scheme at its stability bound at that state.
    The kernels write each step into the next row of a block of the run's
    Workspace, and one ``_Diagnostics`` folds the blocks, stages the samples
    and computes their records. A State, which copies its fields, is built
    only for the final state and to report a failure.

    Without samples the run takes the same steps to t_end, its one
    landing, with the same rejections, but builds no accumulators, no
    record and no sample buffer, and never folds: a full block only
    switches banks. Its trajectory holds no records and no accumulators;
    ``final_state``, the step counts, ``min_dt`` and ``phase_s`` are kept.
    ``lp_exponents`` is then unused.

    ``phase_s`` of the trajectory splits the seconds spent here into
    ``diagnostics`` (the folds), ``sampling`` (the initial record, staging
    and the record passes) and ``kernel`` (the rest).

    Raises SimulationFailure, carrying the last accepted state and the
    partial trajectory, when the retry budget is exhausted or a linear solve
    breaks down.
    """
    validate_state(s0, g)
    tiny = check_run(g.n_cells, s0.t, t_end, sample_every)

    started = time.perf_counter()
    v_star, energy0 = check_normalization(s0, g, p)
    theta_star = energy0 / p.c_v

    ws = Workspace(g.n_cells)
    ws.load(s0, g, p)
    traj = Trajectory(grid=g, params=p, v_star=v_star, theta_star=theta_star,
                      initial_state=s0, final_state=s0, min_dt=c.dt)
    diag = None
    if sample_every is not None:
        diag = _Diagnostics(s0, ws, traj.records, lp_exponents=lp_exponents,
                            v_star=v_star, theta_star=theta_star)
        traj.accumulators = diag.acc

    def finish():
        fold_s = sample_s = 0.0
        if diag is not None:
            diag.flush()
            traj.final_state = diag.last_state() or s0
            fold_s, sample_s = diag.fold_s, diag.sample_s
        traj.phase_s = {"kernel": time.perf_counter() - started - fold_s - sample_s,
                        "diagnostics": fold_s, "sampling": sample_s}

    def failure(message):
        row = ws.cur
        finish()
        return SimulationFailure(message,
                                 last_state=State(t=t, v=row.v, u=row.u, theta=row.theta),
                                 trajectory=traj)

    t = t0 = s0.t
    cur_dt = c.dt
    rejected_in_row = accepted_at_reduced = 0
    sample_idx = 1

    while t < t_end - tiny:
        target = t_end if diag is None else min(t0 + sample_idx * sample_every, t_end)

        # integrate to the target exactly, clamping the last step onto it
        while t < target:
            dt_try, t_new = _step_size(t, cur_dt, target)
            try:
                _take_step(t, dt_try, c.scheme, src, ws)
            except StepRejected as exc:
                traj.rejections[exc.reason] = traj.rejections.get(exc.reason, 0) + 1
                rejected_in_row += 1
                if rejected_in_row > c.max_retries:
                    raise failure(f"step at t = {t} rejected {rejected_in_row} times "
                                  f"(dt down to {cur_dt})")
                cur_dt *= 0.5
                traj.min_dt = min(traj.min_dt, cur_dt)
                accepted_at_reduced = 0
                continue
            except NumericalBreakdown as exc:
                raise failure(f"step at t = {t} broke down: {exc}") from exc

            ws.accept(dt_try)
            if ws.full:
                (ws if diag is None else diag).fold()
            t = t_new
            traj.n_steps += 1
            rejected_in_row = 0
            if cur_dt < c.dt:
                accepted_at_reduced += 1
                if accepted_at_reduced >= RECOVERY_STEPS:
                    row = ws.cur
                    cur_dt = min(c.dt, _dt_bound(c.scheme, row.v, row.theta, p, g))
                    accepted_at_reduced = 0

        if diag is None:
            # the one landing, t_end
            row = ws.cur
            traj.final_state = State(t=t, v=row.v, u=row.u, theta=row.theta)
            break
        diag.sample(t)
        while t0 + sample_idx * sample_every <= target + tiny:
            sample_idx += 1

    finish()
    return traj


_MMS_OMEGA = 2.0 * np.pi


def _mms_phi(t):
    # the amplitude 0.1*exp(-t) at a time or, elementwise, at an array of
    # times, with the same bits either way
    return 0.1 * np.exp(-t)


def manufactured_solution(t: float, g: Grid, p: PhysParams) -> tuple[State, Sources]:
    """Analytic fields and the forcing that makes them an exact solution.

    The fields are those of ``manufactured_state``. The sources are the
    residuals of the three equations on the respective lattices, in the
    closed form that ``ManufacturedSources`` derives and evaluates.
    """
    return manufactured_state(t, g), ManufacturedSources(g, p)(t)


def manufactured_state(t: float, g: Grid) -> State:
    """The manufactured fields on the grid at time t: 1 + phi*cos(2 pi x)
    for volume and temperature and phi*sin(2 pi x) for velocity, with phi =
    0.1*exp(-t). They satisfy both wall conditions and tend to equilibrium."""
    phi = _mms_phi(t)
    v = 1.0 + phi * np.cos(_MMS_OMEGA * g.cell_centers)
    theta = v.copy()
    u = phi * np.sin(_MMS_OMEGA * g.nodes)
    u[0] = u[-1] = 0.0
    return State(t=t, v=v, u=u, theta=theta)


def manufactured_rates(t: float, g: Grid):
    """Exact time derivatives (dv, du, dtheta) of the manufactured fields on
    the grid."""
    phi = _mms_phi(t)
    dv = -phi * np.cos(_MMS_OMEGA * g.cell_centers)
    du = -phi * np.sin(_MMS_OMEGA * g.nodes)
    du[0] = du[-1] = 0.0
    return dv, du, dv.copy()


class ManufacturedSources:
    """The sources of the manufactured solution as a function of time.

    With w = 2 pi, c = cos(w x), s = sin(w x) and phi = 0.1*exp(-t), the
    fields are v = theta = 1 + phi*c and u = phi*s, so u_x = w*phi*c,
    theta_x = -w*phi*s and theta_xx = -w**2*phi*c. The residuals simplify:

    - cells, volume: s_v = v_t - u_x = -(1 + w)*phi*c;
    - cells, temperature: with v = theta the heat flux
      kappa*theta**beta*theta_x/v is kappa*theta**(beta-1)*theta_x, whose
      divergence is q_x = kappa*theta**(beta-2)*((beta-1)*theta_x**2 +
      theta*theta_xx), and the work sigma*u_x is mu*u_x**2/theta - R*u_x, so
      s_theta = -phi*c - (-R*w*phi*c + mu*w**2*(phi*c)**2/theta + q_x)/c_v;
    - nodes, momentum: sigma = mu*u_x/theta - R, so
      sigma_x = mu*(u_xx*theta - u_x*theta_x)/theta**2
      = -mu*w**2*phi*s/theta**2 (R drops out and the phi**2 terms cancel),
      and s_u = u_t - sigma_x = phi*s*(mu*w**2/theta**2 - 1), zero at the
      walls.

    The grid's profiles c and s on both lattices are built once, and the
    gas's constants once as 0-d factors of phi*c and phi*s, not folded into
    profiles: a block of phi*c times a 0-d operand is a plain array pass,
    where phi times a profile broadcasts a column over a row. With
    ``volume`` = -(1 + w), ``linear`` = R*w/c_v - 1, ``work`` = mu*w**2/c_v,
    ``flux`` = -kappa*w**2/c_v, ``flux_sq`` = kappa*(beta-1)*w**2/c_v and
    ``viscous`` = mu*w**2:

        s_v = volume*(phi*c)
        s_theta = linear*(phi*c) - work*(phi*c)**2/theta
                  - theta**(beta-2)*(flux*(phi*c)*theta + flux_sq*(phi*s)**2)
        s_u = (phi*s)*(viscous/theta**2 - 1)

    ``rows`` evaluates them at a sequence of times, one row per time. Each
    row equals the one-row evaluation at its time bit for bit: phi comes
    from one ``_mms_phi`` call over the times, which gives the bits of one
    call per time, and every other expression is elementwise, broadcast
    over the rows. Calling the object evaluates one row into a Sources.

    An IMEX step of size dt adds (s_v*dt, s_u[1:-1]*dt, s_theta*dt) at
    the time it ends, and ``increments_at`` gives these from a plan: one
    step size ``dt`` and ``increments``, which maps the end time of each
    planned step of that size to its rows times dt. A stored increment
    depends only on its time and dt, so a plan left from an earlier run is
    never wrong.
    """

    def __init__(self, g: Grid, p: PhysParams):
        omega = _MMS_OMEGA
        w2 = omega ** 2
        self.cos_c = np.cos(omega * g.cell_centers)
        self.sin_c = np.sin(omega * g.cell_centers)
        self.cos_n = np.cos(omega * g.nodes)
        self.sin_n = np.sin(omega * g.nodes)
        self.volume = _operand(-(1.0 + omega))
        self.linear = _operand(p.R * omega / p.c_v - 1.0)
        self.work = _operand(p.mu_tilde * w2 / p.c_v)
        self.flux = _operand(-p.kappa_tilde * w2 / p.c_v)
        self.flux_sq = _operand(p.kappa_tilde * (p.beta - 1.0) * w2 / p.c_v)
        self.viscous = _operand(p.mu_tilde * w2)
        self.exponent = p.beta - 2.0
        self.dt = None
        self.increments = {}

    def increments_at(self, t: float, dt: float, count: int):
        """The increments of the step of size dt that ends at t. Unless the
        plan holds t with this dt, first plan ``count`` steps of size dt
        from t, at the times t, t + dt, (t + dt) + dt, ..., summed as
        ``advance`` sums them."""
        if dt == self.dt:
            planned = self.increments.get(t)
            if planned is not None:
                return planned
        times = list(accumulate(repeat(dt, count - 1), initial=t))
        s_v, s_u, s_theta = self.rows(times)
        s_u = s_u[:, 1:-1]
        for block in (s_v, s_u, s_theta):
            block *= dt
        self.dt = dt
        self.increments = dict(zip(times, zip(s_v, s_u, s_theta)))
        return self.increments[t]

    def rows(self, times):
        """(s_v, s_u, s_theta) at each of ``times``, one row per time."""
        phi = _mms_phi(np.array(times, dtype=float))[:, None]

        # cells, where v = theta = 1 + phi*c
        phi_c = phi * self.cos_c
        theta = phi_c + _ONE
        s_v = phi_c * self.volume
        heat = phi * self.sin_c
        heat *= heat
        heat *= self.flux_sq
        flux = phi_c * theta
        flux *= self.flux
        heat += flux
        # into heat, never into the power: _pow(theta, 1.0) is theta itself
        heat *= _pow(theta, self.exponent)
        work = phi_c * phi_c
        work *= self.work
        work /= theta
        work += heat
        s_theta = phi_c * self.linear
        s_theta -= work

        # nodes, where theta = 1 + phi*c as well
        theta_sq = phi * self.cos_n
        theta_sq += _ONE
        theta_sq *= theta_sq
        s_u = np.divide(self.viscous, theta_sq, out=theta_sq)
        s_u -= _ONE
        s_u *= phi * self.sin_n
        s_u[:, 0] = s_u[:, -1] = 0.0
        return s_v, s_u, s_theta

    def __call__(self, t: float) -> Sources:
        s_v, s_u, s_theta = self.rows((t,))
        return Sources(s_v[0], s_u[0], s_theta[0])
