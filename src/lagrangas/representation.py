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

from .core import _HALF, _THREE, Grid, State, Workspace, _operand


def velocity_integral(u: np.ndarray, g: Grid, out: np.ndarray, ws: Workspace) -> np.ndarray:
    """Cumulative trapezoid of each row of a block of node fields up to each
    cell center, written into the rows of ``out`` (one float per cell);
    ``ws`` lends scratch."""
    _, half_dx, eighth_dx = g.dx_ops
    rows = u.shape[0]
    half_faces, quarter_cells = ws.faces[0][:rows], ws.cells[0][:rows]
    # out takes the integral up to each cell's left node, then up to its
    # center. cumsum adds in sequence, so its sums over the first N - 1
    # faces are those it gives over all N.
    out[:, 0] = 0.0
    np.add(u[:, :-2], u[:, 1:-1], half_faces)
    half_faces *= half_dx
    half_faces.cumsum(1, None, out[:, 1:])  # along each row, into out
    np.multiply(u[:, :-1], _THREE, quarter_cells)
    quarter_cells += u[:, 1:]
    quarter_cells *= eighth_dx
    out += quarter_cells
    return out


def damping_integrand(u: np.ndarray, theta: np.ndarray, g: Grid, ws: Workspace) -> list:
    """Mass total of u^2 + theta (trapezoid nodes + cell sum) of each row of
    a block of states; ``ws`` lends scratch.

    Every row of u must vanish at both walls, as a state's velocity does.
    The trapezoid weight is 1/2 there, where it multiplies zeros, and 1
    inside, so the squares are summed unweighted with the same bits."""
    rows = u.shape[0]
    kinetic = np.multiply(u, u, ws.nodes[:rows])
    dx = g.dx
    return [k * dx + t * dx for k, t in zip(np.add.reduce(kinetic, axis=1).tolist(),
                                            np.add.reduce(theta, axis=1).tolist())]


@dataclass
class ReprAccumulators:
    """Running state of the reconstruction along one trajectory: the scaled
    history a = Y * A, and the last folded step's theta / B and ratios
    Y_new / Y_old, one per step of the last folded block. ``update_history``
    overwrites ``last_integrand`` in place. ``g0``, the initial mass-weighted
    velocity potential, is a 0-d array. The folds take their scratch from
    ``ws``, so a block folds at most ``ws.block`` rows."""

    s0: State
    u0_integral: np.ndarray
    g0: np.ndarray
    log_damping: float
    damping_ratios: list
    scaled_history: np.ndarray
    last_integrand: np.ndarray
    last_damping_integrand: float
    ws: Workspace

    @property
    def damping_ratio(self) -> float:
        """Y_new / Y_old of the last folded step."""
        return self.damping_ratios[-1]

    @property
    def damping(self) -> float:
        """Y(t); equals 1 at t = 0 and decays at least like exp(-t) when normalized."""
        return float(np.exp(self.log_damping))

    @property
    def history(self) -> np.ndarray:
        """A_j(t); zero at t = 0 and nondecreasing."""
        return self.scaled_history * np.exp(-self.log_damping)


def init_accumulators(s0: State, g: Grid, ws: Workspace | None = None) -> ReprAccumulators:
    """Fresh accumulators at the trajectory's initial state, folding with
    the scratch of ``ws``, or of a ``Workspace(g.n_cells)`` of their own."""
    if ws is None:
        ws = Workspace(g.n_cells)
    u0_int = velocity_integral(s0.u[None], g, np.empty((1, g.n_cells)), ws)[0]
    g0 = _operand(s0.v.dot(u0_int) * g.dx)
    # the base profile at t = 0 is exactly v0, so the first history integrand
    # is theta0 / v0
    return ReprAccumulators(
        s0=s0,
        u0_integral=u0_int,
        g0=g0,
        log_damping=0.0,
        damping_ratios=[1.0],
        scaled_history=np.zeros(g.n_cells),
        last_integrand=s0.theta / s0.v,
        last_damping_integrand=damping_integrand(s0.u[None], s0.theta[None], g, ws)[0],
        ws=ws,
    )


def base_factor(s: State, s0: State, g: Grid) -> np.ndarray:
    """Per-cell base profile: v0 * exp(velocity potential difference) times
    the mass-weighted normalization that removes the potential's drift."""
    return _base_factor_cached(init_accumulators(s0, g), s.v[None], s.u[None], g)[0]


def _base_factor_cached(acc: ReprAccumulators, v: np.ndarray, u: np.ndarray,
                        g: Grid) -> np.ndarray:
    """Base profile of each row of a block of fields (v, u), with the
    initial velocity potential taken from ``acc``; the block of profiles is
    written into ``acc.ws.base``."""
    rows, ws = v.shape[0], acc.ws
    # the exponent vanishes identically at the initial state, so the base
    # profile is v0 there bit for bit
    exponent = velocity_integral(u, g, ws.base[:rows], ws)
    # g_now - g0 of each row; vecdot takes one BLAS dot a row, as
    # ndarray.dot does
    shifts = np.vecdot(v, exponent)
    shifts *= g.dx_ops[0]
    shifts -= acc.g0
    exponent -= acc.u0_integral
    exponent -= shifts[:, None]
    base = np.exp(exponent, out=exponent)
    base *= acc.s0.v
    return base


def update_damping(acc: ReprAccumulators, u: np.ndarray, theta: np.ndarray, g: Grid,
                   dts) -> None:
    """Fold a block of accepted steps of sizes ``dts``, ending at the rows of
    (u, theta), into log Y (trapezoid in time), and keep each step's ratio
    Y_new / Y_old."""
    log_damping, last = acc.log_damping, acc.last_damping_integrand
    ratios = []
    for dt, integrand in zip(dts, damping_integrand(u, theta, g, acc.ws)):
        decrement = 0.5 * dt * (last + integrand)
        log_damping -= decrement
        ratios.append(math.exp(-decrement))
        last = integrand
    acc.log_damping, acc.last_damping_integrand = log_damping, last
    acc.damping_ratios = ratios


def update_history(acc: ReprAccumulators, theta: np.ndarray, base: np.ndarray,
                   dts) -> None:
    """Fold a block of accepted steps of sizes ``dts``, ending at the rows
    of ``theta``, into the scaled history a = Y * A, in place.

    ``base`` must hold the base profiles B of the steps' new states, and
    ``update_damping`` must already have folded the block. This is the
    trapezoid rule for A in theta / (B * Y), multiplied through by Y_new,
    one step after the other: a <- r * (a + dt/2 * f_prev) + dt/2 * f_new,
    with f = theta / B. ``acc.last_integrand``, the first step's f_prev,
    then takes a copy of the block's last f.
    """
    rows, ws = theta.shape[0], acc.ws
    f = np.divide(theta, base, ws.cells[1][:rows])
    # the half-dt products of every step; the first step's f_prev is the
    # previous block's last f
    half_dts = np.multiply(dts, _HALF, ws.steps[:rows])[:, None]
    prev_terms = ws.cells[0][:rows]
    np.multiply(acc.last_integrand, half_dts[0], prev_terms[0])
    np.multiply(f[:-1], half_dts[1:], prev_terms[1:])
    acc.last_integrand[...] = f[-1]
    np.multiply(f, half_dts, f)  # the new terms, over f
    # the ratios reach the loop as the 0-d views ws.ratio_ops, and the terms
    # as the row views ws.cell_rows of their blocks
    ws.ratios[:rows] = acc.damping_ratios
    history = acc.scaled_history
    prev_rows, new_rows = ws.cell_rows
    for ratio, prev, new in zip(ws.ratio_ops, prev_rows, new_rows[:rows]):
        history += prev
        history *= ratio
        history += new


def reconstruct_volume(acc: ReprAccumulators, base: np.ndarray) -> np.ndarray:
    """Evaluate B * (Y + a) at the accumulators' current time, where ``base``
    is the base profile B of the state there."""
    return base * (acc.damping + acc.scaled_history)
