"""Online evaluation of the closed-form volume reconstruction.

Along smooth solutions the specific volume admits the representation
v = B * Y * (1 + A), where B is a base profile built from the velocity
potential and the initial data, Y = exp(-integral of (u^2 + theta) mass
totals over time) damps the base exponentially, and A accumulates the
history integral of theta / (B * Y). The reconstruction is evaluated next
to the solver as an independent accuracy oracle; it is never used to step.

The history is held scaled by the damping, a = Y * A, so v = B * (Y + a).
a stays bounded (about v / B - Y) while Y decays and A grows like 1 / Y, so
long-time runs need no log space: each step rescales a by Y_new / Y_old.
"""

from __future__ import annotations

import math
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
    """Running state of the reconstruction along one trajectory: the scaled
    history a = Y * A, the last step's Y_new / Y_old and its theta / B."""

    s0: State
    u0_integral: np.ndarray
    g0: float
    log_damping: float
    damping_ratio: float
    scaled_history: np.ndarray
    last_integrand: np.ndarray
    last_damping_integrand: float

    @property
    def damping(self) -> float:
        """Y(t); equals 1 at t = 0 and decays at least like exp(-t) when normalized."""
        return float(np.exp(self.log_damping))

    @property
    def history(self) -> np.ndarray:
        """A_j(t); zero at t = 0 and nondecreasing."""
        return self.scaled_history * np.exp(-self.log_damping)


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
        damping_ratio=1.0,
        scaled_history=np.zeros(g.n_cells),
        last_integrand=s0.theta / s0.v,
        last_damping_integrand=damping_integrand(s0.u, s0.theta, g),
    )


def base_factor(s: State, s0: State, g: Grid) -> np.ndarray:
    """Per-cell base profile: v0 * exp(velocity potential difference) times
    the mass-weighted normalization that removes the potential's drift."""
    return _base_factor_cached(init_accumulators(s0, g), s.v, s.u, g)


def _base_factor_cached(acc: ReprAccumulators, v: np.ndarray, u: np.ndarray, g: Grid,
                        scratch: np.ndarray | None = None) -> np.ndarray:
    """Base profile of the fields (v, u), with the initial velocity potential
    taken from ``acc``; ``scratch`` (one float per cell) is overwritten."""
    # the exponent vanishes identically at the initial state, so the base
    # profile is v0 there bit for bit
    exponent = velocity_integral(u, g, scratch)
    g_now = float(v.dot(exponent) * g.dx)
    exponent -= acc.u0_integral
    exponent -= g_now - acc.g0
    return acc.s0.v * np.exp(exponent)


def update_damping(acc: ReprAccumulators, u: np.ndarray, theta: np.ndarray, g: Grid,
                   dt: float) -> None:
    """Fold one accepted step of size dt, ending at the fields (u, theta),
    into log Y (trapezoid in time) and keep the step's ratio Y_new / Y_old."""
    integrand = damping_integrand(u, theta, g)
    decrement = 0.5 * dt * (acc.last_damping_integrand + integrand)
    acc.log_damping -= decrement
    acc.damping_ratio = math.exp(-decrement)
    acc.last_damping_integrand = integrand


def update_history(acc: ReprAccumulators, theta: np.ndarray, base: np.ndarray,
                   dt: float) -> None:
    """Fold one accepted step, ending at the temperature ``theta``, into the
    scaled history a = Y * A.

    ``base`` must be the base profile B of the step's new state, and
    ``update_damping`` must already have folded the step. This is the
    trapezoid rule for A in theta / (B * Y), multiplied through by Y_new.
    """
    integrand = theta / base
    acc.scaled_history = (acc.damping_ratio * (acc.scaled_history + 0.5 * dt * acc.last_integrand)
                          + 0.5 * dt * integrand)
    acc.last_integrand = integrand


def reconstruct_volume(acc: ReprAccumulators, base: np.ndarray) -> np.ndarray:
    """Evaluate B * (Y + a) at the accumulators' current time, where ``base``
    is the base profile B of the state there."""
    return base * (acc.damping + acc.scaled_history)
