"""Discrete evaluations of every monitored functional.

Cell quantities are integrated with the midpoint rule, node quantities with
trapezoid weights; gradients are one-sided difference quotients on the
natural lattice. With unit physical constants the entropy and dissipation
reduce to the classical convex functionals whose budget
entropy(t) + integral of dissipation = entropy(0) holds along smooth
solutions; the general-constant weights keep that identity for non-unit
gases.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

from .core import Grid, PhysParams, State, Workspace, _pow, check_normalization


@dataclass(frozen=True)
class DiagnosticsRecord:
    """One row of all monitored functionals at a sample time; the one
    diagnostics schema, read by field name everywhere. ``repr_err`` is the
    volume reconstruction's max relative error, ``log_damping`` is log Y."""

    t: float
    mass: float
    total_energy: float
    entropy_E: float
    dissipation_V: float
    int_V_dt: float
    mean_theta: float
    min_v: float
    max_v: float
    min_theta: float
    max_theta: float
    grad_v_sq: float
    grad_u_sq: float
    grad_theta_sq: float
    h1_dev: float
    repr_err: float
    log_damping: float
    lp_moments: dict


# Every scalar field of the schema, in declaration order.
RECORD_FIELDS = tuple(f.name for f in fields(DiagnosticsRecord) if f.name != "lp_moments")


def lp_column(q: float) -> str:
    """CSV column name of the moment with exponent q."""
    return f"lp_{q:g}"


def default_lp_exponents(p: PhysParams) -> tuple:
    """Moment exponents tracked by default: beta, beta + 1, and 2 (only
    positive ones, and only the first of those sharing a column name)."""
    out = {}
    for c in (p.beta, p.beta + 1.0, 2.0):
        if c > 0.0:
            out.setdefault(lp_column(c), float(c))
    return tuple(out.values())


def entropy(s: State, g: Grid, p: PhysParams) -> float:
    """Convex entropy distance from equilibrium.

    Cell sum of R*(v - ln v) + c_v*(theta - ln theta) plus the trapezoid
    node sum of u^2/2; equals 2 at the equilibrium state with unit constants.
    """
    cells = p.R * (s.v - np.log(s.v)) + p.c_v * (s.theta - np.log(s.theta))
    kinetic = np.sum(g.node_weights * 0.5 * s.u * s.u)
    return float((np.sum(cells) + kinetic) * g.dx)


def dissipation(s: State, g: Grid, p: PhysParams, ws: Workspace | None = None) -> float:
    """Entropy dissipation rate: thermal-gradient and shear contributions.

    Face values of theta and v are arithmetic means, matching the solver's
    heat flux. Zero exactly iff u has no differences and theta is constant.
    With a run's workspace ``ws``, the state's cell velocity gradient and
    volume face means are left in ``ws.cur`` and its face conductivities in
    ``ws.knum``, which readies ``ws`` for a first IMEX step from ``s``.
    """
    if ws is None:
        ws = Workspace(g.n_cells)
    ux = np.subtract(s.u[1:], s.u[:-1], out=ws.cur.ux)
    ux /= g.dx
    vf = np.add(s.v[:-1], s.v[1:], out=ws.cur.vf)
    vf *= 0.5
    return dissipation_from(ux, vf, s.v, s.theta, g, p, ws)


def dissipation_from(ux: np.ndarray, vf: np.ndarray, v: np.ndarray, theta: np.ndarray,
                     g: Grid, p: PhysParams, ws: Workspace | None = None) -> float:
    """``dissipation`` from the cell velocity gradient ``ux`` and the face
    means ``vf`` of ``v``, which the time steppers have already computed.

    Works in the scratch of ``ws`` and leaves kappa_tilde * theta**beta at
    the temperature face means in ``ws.knum``: the numerator of the next
    IMEX step's face conductivities.
    """
    if ws is None:
        ws = Workspace(g.n_cells)
    dx = g.dx
    shear, vth, _ = ws.cells
    np.multiply(ux, p.mu_tilde, out=shear)
    shear *= ux
    shear /= np.multiply(v, theta, out=vth)
    shear = float(shear.sum() * dx)
    if g.n_cells < 2:
        return shear
    thf, dth, thermal = ws.faces
    np.add(theta[:-1], theta[1:], out=thf)
    thf *= 0.5
    np.subtract(theta[1:], theta[:-1], out=dth)
    dth /= dx
    knum = np.multiply(_pow(thf, p.beta, ws.knum), p.kappa_tilde, out=ws.knum)
    np.multiply(knum, dth, out=thermal)
    thermal *= dth
    # dth is spent: it takes the denominator vf * thf * thf
    np.multiply(vf, thf, out=dth)
    dth *= thf
    thermal /= dth
    thermal = float(thermal.sum() * dx)
    return thermal + shear


def mean_theta(s: State, g: Grid) -> float:
    """Cell-average temperature."""
    return float(np.sum(s.theta) * g.dx)


def inverse_temperature_moment(s: State, g: Grid, p_exp: float) -> float:
    """Cell sum of theta**(1 - p) for a positive moment exponent p."""
    if p_exp <= 0.0:
        raise ValueError(f"moment exponent must be positive, got {p_exp}")
    return float(np.sum(s.theta ** (1.0 - p_exp)) * g.dx)


def _grad_sq(values: np.ndarray, dx: float) -> float:
    d = np.diff(values)
    return float(np.sum(d * d) / dx)


def h1_deviation(s: State, g: Grid, v_star: float, theta_star: float) -> float:
    """Discrete H1 norm of (v - v_star, u, theta - theta_star).

    L2 parts use the natural lattice of each field (cells for v and theta,
    trapezoid-weighted nodes for u); gradient parts are squared difference
    quotients times dx. Zero exactly iff the state equals the constant
    reference in every component.
    """
    if v_star <= 0.0 or theta_star <= 0.0:
        raise ValueError("reference values must be positive")
    dx = g.dx
    dv = s.v - v_star
    dth = s.theta - theta_star
    total = np.sum(dv * dv) * dx + _grad_sq(s.v, dx)
    total += np.sum(g.node_weights * s.u * s.u) * dx + _grad_sq(s.u, dx)
    total += np.sum(dth * dth) * dx + _grad_sq(s.theta, dx)
    return float(np.sqrt(total))


def stress_field(s: State, g: Grid, p: PhysParams) -> np.ndarray:
    """Per-cell stress (mu_tilde*u_x - R*theta)/v, as used by the momentum flux."""
    ux = np.diff(s.u) / g.dx
    return (p.mu_tilde * ux - p.R * s.theta) / s.v


def extrema(s: State) -> tuple[float, float, float, float]:
    """(min v, max v, min theta, max theta) over the cells."""
    return (float(s.v.min()), float(s.v.max()),
            float(s.theta.min()), float(s.theta.max()))


def record(s: State, g: Grid, p: PhysParams, *, int_v_dt: float = 0.0,
           repr_err: float = 0.0, log_damping: float = 0.0,
           lp_exponents=None, v_star: float = 1.0,
           theta_star: float = 1.0) -> DiagnosticsRecord:
    """Aggregate every monitored functional into one deterministic row;
    the time-accumulated values come from the caller's running totals."""
    if lp_exponents is None:
        lp_exponents = default_lp_exponents(p)
    mass, energy = check_normalization(s, g, p)
    min_v, max_v, min_th, max_th = extrema(s)
    return DiagnosticsRecord(
        t=s.t,
        mass=mass,
        total_energy=energy,
        entropy_E=entropy(s, g, p),
        dissipation_V=dissipation(s, g, p),
        int_V_dt=float(int_v_dt),
        mean_theta=mean_theta(s, g),
        min_v=min_v,
        max_v=max_v,
        min_theta=min_th,
        max_theta=max_th,
        grad_v_sq=_grad_sq(s.v, g.dx),
        grad_u_sq=_grad_sq(s.u, g.dx),
        grad_theta_sq=_grad_sq(s.theta, g.dx),
        h1_dev=h1_deviation(s, g, v_star, theta_star),
        repr_err=float(repr_err),
        log_damping=float(log_damping),
        lp_moments={float(q): inverse_temperature_moment(s, g, q) for q in lp_exponents},
    )
