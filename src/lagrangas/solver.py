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

from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import get_lapack_funcs

from . import functionals, representation
from .core import (Grid, PhysParams, State, Workspace, _pow, check_normalization,
                   validate_state)
from .errors import NumericalBreakdown, SimulationFailure, StepRejected

_ptsv, = get_lapack_funcs(("ptsv",), (np.array([1.0]),))

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


@dataclass(frozen=True)
class StepControls:
    """Time-stepping knobs."""

    dt: float
    scheme: str = IMEX_BE
    max_retries: int = 12

    def __post_init__(self):
        if self.dt <= 0.0:
            raise ValueError(f"dt must be positive, got {self.dt}")
        if self.scheme not in SCHEMES:
            raise ValueError(f"unknown scheme {self.scheme!r}, expected one of {SCHEMES}")


@dataclass(frozen=True)
class Sources:
    """Forcing fields added termwise to the three evolution equations.

    Used by the manufactured-solution machinery; zero for physical runs.
    s_u must vanish at the boundary nodes so the wall condition survives.
    """

    s_v: np.ndarray
    s_u: np.ndarray
    s_theta: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "s_v", np.asarray(self.s_v, dtype=float))
        object.__setattr__(self, "s_u", np.asarray(self.s_u, dtype=float))
        object.__setattr__(self, "s_theta", np.asarray(self.s_theta, dtype=float))
        if self.s_u[0] != 0.0 or self.s_u[-1] != 0.0:
            raise ValueError("s_u must vanish at the boundary nodes")


def _sources_at(src, t):
    if src is None or isinstance(src, Sources):
        return src
    return src(t)


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
    _, _, x, info = _ptsv(diag, off, rhs, overwrite_d=1, overwrite_e=1, overwrite_b=1)
    if info != 0:
        raise NumericalBreakdown(f"tridiagonal solve hit a non-positive pivot (row {info})")
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
    if g.n_cells > 1:
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


# Both kernels return (v, u, theta, ux, vf): the new state, its cell velocity
# gradient and the face means of its volume, which ``advance`` reads for the
# dissipation update instead of recomputing them. Both take the run's
# Workspace ``ws``, or None for a fresh one.

def _imex_kernel(v, u, theta, t, dt, p, g, src, ws=None):
    # writes its result into ws.nxt, and reads ws.cur.ux and ws.knum as the
    # values carried from (v, u, theta)
    if ws is None:
        ws = Workspace(g.n_cells)
        functionals.dissipation(State(t=t, v=v, u=u, theta=theta), g, p, ws)
    dx = g.dx
    s = _sources_at(src, t + dt)
    out = ws.nxt
    inv_v, work, work2 = ws.cells
    work_f, work_f2, kf = ws.faces

    # volume first, explicitly, so both solves see the new geometry
    v_new = np.multiply(ws.cur.ux, dt, out=out.v)
    v_new += v
    if s is not None:
        v_new += np.multiply(s.s_v, dt, out=work)
    # written so that NaN fails the check too
    if not v_new.min() > POSITIVITY_FLOOR:
        raise StepRejected("volume fell to the positivity floor")
    np.divide(1.0, v_new, out=inv_v)

    # implicit velocity: (I - dt*L) u = u + dt*(-P_x + s_u), pressure lagged in
    # theta, solved in place in the interior of the new velocity
    coef = dt * p.mu_tilde / (dx * dx)
    diag = np.add(inv_v[:-1], inv_v[1:], out=work_f)
    diag *= coef
    diag += 1.0
    off = np.multiply(inv_v[1:-1], -coef, out=work_f2[:-1])
    pressure = np.multiply(theta, p.R, out=work)
    pressure *= inv_v
    rhs = np.subtract(pressure[1:], pressure[:-1], out=out.u[1:-1])
    rhs *= dt / dx
    np.subtract(u[1:-1], rhs, out=rhs)
    if s is not None:
        rhs += np.multiply(s.s_u[1:-1], dt, out=kf)
    _solve_spd_tridiag(diag, off, rhs)
    ux_new = np.subtract(out.u[1:], out.u[:-1], out=out.ux)
    ux_new /= dx

    # implicit temperature: conductivity frozen at the old theta, reaction and
    # viscous heating explicit but evaluated with the new velocity
    vf = np.add(v_new[:-1], v_new[1:], out=out.vf)
    vf *= 0.5
    np.divide(ws.knum, vf, out=kf)
    lam = dt / (p.c_v * dx * dx)
    heating = np.multiply(ux_new, p.mu_tilde, out=work)
    heating -= np.multiply(theta, p.R, out=work2)
    heating *= ux_new
    heating *= inv_v
    heating *= dt / p.c_v
    theta_new = np.add(theta, heating, out=out.theta)
    if s is not None:
        theta_new += np.multiply(s.s_theta, dt, out=work)
    # each row couples through the faces beside it; the walls conduct nothing
    diag2 = work
    np.add(kf[:-1], kf[1:], out=diag2[1:-1])
    diag2[0] = kf[0]
    diag2[-1] = kf[-1]
    diag2 *= lam
    diag2 += 1.0
    off2 = np.multiply(kf, -lam, out=work_f)
    _solve_spd_tridiag(diag2, off2, theta_new)
    if not theta_new.min() > POSITIVITY_FLOOR:
        raise StepRejected("temperature fell to the positivity floor")
    return out.v, out.u, theta_new, ux_new, vf


def _rk2_kernel(v, u, theta, t, dt, p, g, src, ws=None):
    # allocates its own arrays and leaves ws alone
    dt_stab = CFL_SAFETY * stability_limit(v, theta, p, g)
    if dt > dt_stab:
        raise StepRejected(f"dt = {dt} exceeds the explicit stability bound {dt_stab}")

    def rates(vv, uu, tt, when):
        return spatial_rhs(vv, uu, tt, p, g, _sources_at(src, when))

    dv, du, dtheta = rates(v, u, theta, t)
    vm = v + 0.5 * dt * dv
    um = u + 0.5 * dt * du
    tm = theta + 0.5 * dt * dtheta
    if not (vm.min() > POSITIVITY_FLOOR and tm.min() > POSITIVITY_FLOOR):
        raise StepRejected("midpoint stage violated positivity")

    dv, du, dtheta = rates(vm, um, tm, t + 0.5 * dt)
    v_new = v + dt * dv
    u_new = u + dt * du
    u_new[0] = u_new[-1] = 0.0
    theta_new = theta + dt * dtheta
    if not (v_new.min() > POSITIVITY_FLOOR and theta_new.min() > POSITIVITY_FLOOR):
        raise StepRejected("state violated positivity after the step")
    ux_new = (u_new[1:] - u_new[:-1]) / g.dx
    vf = 0.5 * (v_new[:-1] + v_new[1:])
    return v_new, u_new, theta_new, ux_new, vf


_KERNELS = {IMEX_BE: _imex_kernel, EXPLICIT_RK2: _rk2_kernel}


def _take_step(v, u, theta, t, p, g, scheme, dt, src, ws=None):
    """One attempt at a step of size dt from (v, u, theta) at time t; returns
    the kernel's (v, u, theta, ux, vf) or raises StepRejected."""
    return _KERNELS[scheme](v, u, theta, t, dt, p, g, src, ws)


def step(s: State, p: PhysParams, g: Grid, c: StepControls,
         src: Sources | None = None) -> State:
    """One step of size c.dt with the scheme c.scheme.

    Raises StepRejected when the step would bring volume or temperature down
    to the positivity floor, or when c.dt exceeds the explicit scheme's
    stability bound.
    """
    if g.n_cells < 2:
        raise ValueError("time stepping requires at least 2 cells")
    v, u, theta, _, _ = _take_step(s.v, s.u, s.theta, s.t, p, g, c.scheme, c.dt, src)
    return State(t=s.t + c.dt, v=v, u=u, theta=theta)


@dataclass
class Trajectory:
    """Sampled records of ``advance``, its first and last sampled states,
    and the running accumulators."""

    grid: Grid
    params: PhysParams
    v_star: float
    theta_star: float
    initial_state: State
    final_state: State
    records: list = field(default_factory=list)
    n_steps: int = 0
    n_rejected: int = 0
    accumulators: representation.ReprAccumulators | None = None

    def column(self, name: str) -> np.ndarray:
        """One scalar DiagnosticsRecord field across all samples."""
        return np.array([getattr(r, name) for r in self.records])

    @property
    def times(self) -> np.ndarray:
        return self.column("t")


def advance(s0: State, p: PhysParams, g: Grid, c: StepControls, t_end: float,
            sample_every: float, src: Sources | None = None, *,
            lp_exponents=None) -> Trajectory:
    """Integrate from ``s0`` to ``t_end``, sampling diagnostics on the way.

    The reference states of the diagnostics are v_star, the mass of ``s0``,
    and theta_star, its total energy over c_v.

    Steps are shortened to land exactly on every sample time and on t_end.
    A rejected step halves dt and retries, up to c.max_retries times in a
    row; the nominal dt is restored after RECOVERY_STEPS accepted steps.
    The running time integral of the dissipation and the volume
    reconstruction accumulators are updated once per accepted step, with the
    step's actual dt, from the kernel's own intermediates. The IMEX kernel
    and the per-step updates work in one Workspace for the run, which holds
    the fields of the last accepted step; a State, which copies them, is
    built only to sample and to report a failure.

    Raises SimulationFailure, carrying the last accepted state and the
    partial trajectory, when the retry budget is exhausted or a linear solve
    breaks down.
    """
    validate_state(s0, g)
    if not t_end > s0.t:
        raise ValueError(f"t_end = {t_end} must exceed the initial time {s0.t}")
    if sample_every <= 0.0:
        raise ValueError(f"sample_every must be positive, got {sample_every}")
    if g.n_cells < 2:
        raise ValueError("time stepping requires at least 2 cells")

    v_star, energy0 = check_normalization(s0, g, p)
    theta_star = energy0 / p.c_v

    ws = Workspace(g.n_cells)
    acc = representation.init_accumulators(s0, g, ws)
    int_v_dt = 0.0
    diss_prev = functionals.dissipation(s0, g, p, ws)

    traj = Trajectory(grid=g, params=p, v_star=v_star, theta_star=theta_star,
                      initial_state=s0, final_state=s0, accumulators=acc)

    def sample(state, repr_err):
        traj.records.append(functionals.record(
            state, g, p, int_v_dt=int_v_dt, repr_err=repr_err,
            log_damping=acc.log_damping, lp_exponents=lp_exponents,
            v_star=v_star, theta_star=theta_star))
        traj.final_state = state

    sample(s0, 0.0)

    t, v, u, theta = s0.t, s0.v, s0.u, s0.theta
    t0 = s0.t
    cur_dt = c.dt
    rejected_in_row = 0
    accepted_at_reduced = 0
    sample_idx = 1
    tiny = 1e-12 * max(1.0, abs(t_end))

    while t < t_end - tiny:
        target = min(t0 + sample_idx * sample_every, t_end)

        # integrate to the target exactly, clamping the last step onto it
        while t < target:
            remaining = target - t
            if remaining <= cur_dt * (1.0 + 1e-9):
                dt_try, t_new = remaining, target
            else:
                dt_try, t_new = cur_dt, t + cur_dt

            try:
                v_new, u_new, theta_new, ux, vf = _take_step(
                    v, u, theta, t, p, g, c.scheme, dt_try, src, ws)
            except StepRejected:
                traj.n_rejected += 1
                rejected_in_row += 1
                if rejected_in_row > c.max_retries:
                    raise SimulationFailure(
                        f"step at t = {t} rejected {rejected_in_row} times "
                        f"(dt down to {cur_dt})",
                        last_state=State(t=t, v=v, u=u, theta=theta),
                        trajectory=traj)
                cur_dt *= 0.5
                accepted_at_reduced = 0
                continue
            except NumericalBreakdown as exc:
                raise SimulationFailure(
                    f"step at t = {t} broke down: {exc}",
                    last_state=State(t=t, v=v, u=u, theta=theta),
                    trajectory=traj) from exc

            ws.swap()
            t, v, u, theta = t_new, v_new, u_new, theta_new
            traj.n_steps += 1
            rejected_in_row = 0
            if cur_dt < c.dt:
                accepted_at_reduced += 1
                if accepted_at_reduced >= RECOVERY_STEPS:
                    cur_dt = c.dt
                    accepted_at_reduced = 0

            diss_new = functionals.dissipation_from(ux, vf, v, theta, g, p, ws)
            int_v_dt += 0.5 * dt_try * (diss_prev + diss_new)
            diss_prev = diss_new

            representation.update_damping(acc, u, theta, g, dt_try, ws)
            base = representation._base_factor_cached(acc, v, u, g, ws)
            representation.update_history(acc, theta, base, dt_try, ws)

        state = State(t=t, v=v, u=u, theta=theta)
        v_rec = representation.reconstruct_volume(acc, base)
        repr_err = float(np.max(np.abs(v_rec - state.v) / state.v))
        sample(state, repr_err)
        while t0 + sample_idx * sample_every <= target + tiny:
            sample_idx += 1

    return traj


_MMS_OMEGA = 2.0 * np.pi


def _mms_phi(t: float) -> float:
    return 0.1 * np.exp(-t)


def manufactured_solution(t: float, g: Grid, p: PhysParams) -> tuple[State, Sources]:
    """Analytic fields and the forcing that makes them an exact solution.

    The fields are 1 + 0.1*exp(-t)*cos(2 pi x) for volume and temperature and
    0.1*exp(-t)*sin(2 pi x) for velocity; they satisfy both wall conditions
    and tend to equilibrium. The sources are the closed-form residuals of the
    three equations evaluated on the respective lattices.
    """
    phi = _mms_phi(t)
    v = 1.0 + phi * np.cos(_MMS_OMEGA * g.cell_centers)
    theta = v.copy()
    u = phi * np.sin(_MMS_OMEGA * g.nodes)
    u[0] = u[-1] = 0.0
    exact = State(t=t, v=v, u=u, theta=theta)
    return exact, manufactured_sources_at(g, p)(t)


def manufactured_rates(t: float, g: Grid):
    """Exact time derivatives (dv, du, dtheta) of the manufactured fields on
    the grid."""
    phi = _mms_phi(t)
    dv = -phi * np.cos(_MMS_OMEGA * g.cell_centers)
    du = -phi * np.sin(_MMS_OMEGA * g.nodes)
    du[0] = du[-1] = 0.0
    return dv, du, dv.copy()


def manufactured_sources_at(g: Grid, p: PhysParams):
    """Time-dependent source callable for driving MMS runs."""
    omega = _MMS_OMEGA
    cos_c = np.cos(omega * g.cell_centers)
    sin_c = np.sin(omega * g.cell_centers)
    cos_n = np.cos(omega * g.nodes)
    sin_n = np.sin(omega * g.nodes)
    kappa, mu, R, beta = p.kappa_tilde, p.mu_tilde, p.R, p.beta

    def src(t: float) -> Sources:
        phi = _mms_phi(t)

        # cells, where v = theta: volume equation v_t - u_x, and temperature
        # equation theta_t - (heat flux divergence + work terms)/c_v
        th = 1.0 + phi * cos_c
        u_x = omega * phi * cos_c
        th_x = -omega * phi * sin_c
        th_xx = -(omega ** 2) * phi * cos_c
        th_beta = _pow(th, beta)
        q_x = (kappa * (beta * _pow(th, beta - 1.0) * th_x ** 2 + th_beta * th_xx) / th
               - kappa * th_beta * th_x * th_x / th ** 2)
        rate = (-R * th * u_x / th + mu * u_x ** 2 / th + q_x) / p.c_v
        v_t = -phi * cos_c
        s_v = v_t - u_x
        s_theta = v_t - rate

        # nodes: momentum equation u_t - d/dx of (mu*u_x - R*theta)/v
        th = 1.0 + phi * cos_n
        u_x = omega * phi * cos_n
        th_x = -omega * phi * sin_n
        u_xx = -(omega ** 2) * phi * sin_n
        sigma_x = ((mu * u_xx - R * th_x) / th
                   - (mu * u_x - R * th) * th_x / th ** 2)
        s_u = -phi * sin_n - sigma_x
        s_u[0] = s_u[-1] = 0.0
        return Sources(s_v=s_v, s_u=s_u, s_theta=s_theta)

    return src
