"""Online evaluation of the closed-form volume reconstruction.

Along smooth solutions the specific volume admits the representation
v = B * Y * (1 + A), where B is a base profile built from the velocity
potential and the initial data, Y = exp(-integral of (u^2 + theta) mass
totals over time) damps the base exponentially, and A accumulates the
history integral of theta / (B * Y). The reconstruction is evaluated next
to the solver as an independent accuracy oracle; it is never used to step.

Y and A are held in log space: Y underflows near t = 700 and the history
integrand grows like 1/Y, so linear accumulation would overflow on
long-time runs. The log-space update is algebraically identical.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import Grid, State


def velocity_integral(u: np.ndarray, g: Grid, out: np.ndarray | None = None) -> np.ndarray:
    """Cumulative trapezoid of a node field up to each cell center, written
    into ``out`` (one float per cell) when given."""
    dx = g.dx
    if out is None:
        out = np.empty(g.n_cells)
    # out takes the integral up to each cell's left node, then up to its
    # center. cumsum adds in sequence, so its sums over the first N - 1
    # faces are those it gives over all N.
    out[0] = 0.0
    (0.5 * dx * (u[:-2] + u[1:-1])).cumsum(out=out[1:])
    out += (dx / 8.0) * (3.0 * u[:-1] + u[1:])
    return out


def damping_integrand(u: np.ndarray, theta: np.ndarray, g: Grid) -> float:
    """Mass total of u^2 + theta (trapezoid nodes + cell sum)."""
    return float((g.node_weights * u * u).sum() * g.dx) + float(theta.sum() * g.dx)


@dataclass
class ReprAccumulators:
    """Running state of the reconstruction along one trajectory."""

    s0: State
    u0_integral: np.ndarray
    g0: float
    log_damping: float
    log_history: np.ndarray
    last_log_integrand: np.ndarray
    last_damping_integrand: float

    @property
    def damping(self) -> float:
        """Y(t); equals 1 at t = 0 and decays at least like exp(-t) when normalized."""
        return float(np.exp(self.log_damping))

    @property
    def history(self) -> np.ndarray:
        """A_j(t); zero at t = 0 and nondecreasing."""
        return np.exp(self.log_history)


def init_accumulators(s0: State, g: Grid) -> ReprAccumulators:
    """Fresh accumulators at the trajectory's initial state."""
    u0_int = velocity_integral(s0.u, g)
    g0 = float(s0.v.dot(u0_int) * g.dx)
    # the base profile at t = 0 is exactly v0, so the first history integrand
    # is theta0 / v0
    return ReprAccumulators(
        s0=s0,
        u0_integral=u0_int,
        g0=g0,
        log_damping=0.0,
        log_history=np.full(g.n_cells, -np.inf),
        last_log_integrand=np.log(s0.theta) - np.log(s0.v),
        last_damping_integrand=damping_integrand(s0.u, s0.theta, g),
    )


def _base_exponent(v, u, g, u0_integral, g0, out=None):
    # vanishes identically at the initial state, so the base profile is v0
    # there bit for bit
    u_int = velocity_integral(u, g, out)
    g_now = float(v.dot(u_int) * g.dx)
    u_int -= u0_integral
    u_int -= g_now - g0
    return u_int


def base_factor(s: State, s0: State, g: Grid) -> np.ndarray:
    """Per-cell base profile: v0 * exp(velocity potential difference) times
    the mass-weighted normalization that removes the potential's drift."""
    u0_int = velocity_integral(s0.u, g)
    g0 = float(s0.v.dot(u0_int) * g.dx)
    return s0.v * np.exp(_base_exponent(s.v, s.u, g, u0_int, g0))


def _base_factor_cached(acc: ReprAccumulators, s: State, g: Grid) -> np.ndarray:
    return base_profile(acc, s.v, s.u, g)


def base_profile(acc: ReprAccumulators, v: np.ndarray, u: np.ndarray, g: Grid,
                 scratch: np.ndarray | None = None) -> np.ndarray:
    """Base profile of the fields (v, u), with the initial velocity potential
    taken from ``acc``; ``scratch`` (one float per cell) is overwritten."""
    return acc.s0.v * np.exp(_base_exponent(v, u, g, acc.u0_integral, acc.g0, scratch))


def update_damping(acc: ReprAccumulators, s: State, g: Grid, dt: float) -> ReprAccumulators:
    """Fold one accepted step of size dt into log Y (trapezoid in time)."""
    fold_damping(acc, s.u, s.theta, g, dt)
    return acc


def fold_damping(acc: ReprAccumulators, u: np.ndarray, theta: np.ndarray, g: Grid,
                 dt: float) -> None:
    """``update_damping`` on the fields of the step's new state."""
    integrand = damping_integrand(u, theta, g)
    acc.log_damping -= 0.5 * dt * (acc.last_damping_integrand + integrand)
    acc.last_damping_integrand = integrand


def update_history(acc: ReprAccumulators, s: State, base: np.ndarray, g: Grid,
                   dt: float) -> ReprAccumulators:
    """Fold one accepted step into the history integral of theta / (B * Y).

    ``base`` must be the base profile of ``s`` and log Y must already be at
    s.t. Accumulation is log-sum-exp so the integrand may exceed the linear
    floating-point range without overflow.
    """
    fold_history(acc, s.theta, base, dt)
    return acc


def fold_history(acc: ReprAccumulators, theta: np.ndarray, base: np.ndarray,
                 dt: float) -> None:
    """``update_history`` on the temperature of the step's new state."""
    log_f = np.log(theta) - np.log(base) - acc.log_damping
    log_increment = np.log(0.5 * dt) + np.logaddexp(acc.last_log_integrand, log_f)
    acc.log_history = np.logaddexp(acc.log_history, log_increment)
    acc.last_log_integrand = log_f


def reconstruct_volume(acc: ReprAccumulators, s: State, g: Grid) -> np.ndarray:
    """Evaluate B * Y * (1 + A) at the accumulators' current time."""
    exponent = _base_exponent(s.v, s.u, g, acc.u0_integral, acc.g0)
    return acc.s0.v * np.exp(exponent + acc.log_damping
                             + np.logaddexp(0.0, acc.log_history))


def reconstruction_errors(trajectory) -> list[tuple[float, float]]:
    """Per-sample max relative mismatch between reconstructed and solved v."""
    return [(r.t, r.repr_err) for r in trajectory.records]
