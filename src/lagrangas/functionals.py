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

import math
from dataclasses import dataclass, fields

import numpy as np

from .core import Grid, PhysParams, State, Workspace


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


# the reductions without the Python wrappers of np.sum and ndarray.min/max;
# a 1-D float sum is the same pairwise sum either way
_sum = np.add.reduce
_min = np.minimum.reduce
_max = np.maximum.reduce


def entropy(s: State, g: Grid, p: PhysParams) -> float:
    """Convex entropy distance from equilibrium.

    Cell sum of R*(v - ln v) + c_v*(theta - ln theta) plus the trapezoid
    node sum of u^2/2; equals 2 at the equilibrium state with unit constants.
    """
    cells = p.R * (s.v - np.log(s.v)) + p.c_v * (s.theta - np.log(s.theta))
    kinetic = _sum(g.node_weights * 0.5 * s.u * s.u)
    return float((_sum(cells) + kinetic) * g.dx)


def dissipation(s: State, g: Grid, p: PhysParams) -> float:
    """Entropy dissipation rate: thermal-gradient and shear contributions.

    Face values of theta and v are arithmetic means, matching the solver's
    heat flux. Zero exactly iff u has no differences and theta is constant.
    """
    ws = Workspace(g.n_cells, 1)
    row = ws.load(s, g, p)
    return dissipation_from(row.ux[None], row.vf[None], row.v[None], row.theta[None],
                            row.thf[None], row.knum[None], ws)[0]


def dissipation_from(ux: np.ndarray, vf: np.ndarray, v: np.ndarray, theta: np.ndarray,
                     thf: np.ndarray, knum: np.ndarray, ws: Workspace) -> list:
    """``dissipation`` of each row of a block of states, from its cell
    velocity gradient ``ux``, the face means ``vf`` of ``v`` and ``thf`` of
    ``theta``, and ``knum`` = kappa_tilde * thf**beta, all of which the
    time stepping has already computed; one value per row. The grid and
    mu_tilde are those ``ws`` was loaded with, and ``ws`` lends scratch.
    """
    rows = ux.shape[0]
    dx = ws.g.dx
    shear = np.multiply(ux, ws.mu, ws.cells[0][:rows])
    shear *= ux
    shear /= np.multiply(v, theta, ws.cells[1][:rows])
    shears = np.add.reduce(shear, axis=1).tolist()
    dth = np.subtract(theta[:, 1:], theta[:, :-1], ws.faces[0][:rows])
    dth /= ws.dx
    thermal = np.multiply(knum, dth, ws.faces[1][:rows])
    thermal *= dth
    # dth is spent: it takes the denominator vf * thf * thf
    np.multiply(vf, thf, dth)
    dth *= thf
    thermal /= dth
    return [t * dx + s * dx for t, s in zip(np.add.reduce(thermal, axis=1).tolist(), shears)]


def mean_theta(s: State, g: Grid) -> float:
    """Cell-average temperature."""
    return float(_sum(s.theta) * g.dx)


def inverse_temperature_moment(s: State, g: Grid, p_exp: float) -> float:
    """Cell sum of theta**(1 - p) for a positive, finite moment exponent p."""
    if not (math.isfinite(p_exp) and p_exp > 0.0):
        raise ValueError(f"moment exponent must be positive and finite, got {p_exp}")
    return float(_sum(s.theta ** (1.0 - p_exp)) * g.dx)


def _grad_sq(values: np.ndarray, dx: float):
    # the squared difference quotients of ``values`` summed times dx, over its
    # last axis: a float64 of one field, or one per row of a block
    d = values[..., 1:] - values[..., :-1]
    return _sum(d * d, -1) / dx


def _check_reference(v_star: float, theta_star: float) -> None:
    if not all(math.isfinite(x) and x > 0.0 for x in (v_star, theta_star)):
        raise ValueError("reference values must be positive and finite")


def h1_deviation(s: State, g: Grid, v_star: float, theta_star: float) -> float:
    """Discrete H1 norm of (v - v_star, u, theta - theta_star).

    L2 parts use the natural lattice of each field (cells for v and theta,
    trapezoid-weighted nodes for u); gradient parts are squared difference
    quotients times dx. Zero exactly iff the state equals the constant
    reference in every component.
    """
    _check_reference(v_star, theta_star)
    dx = g.dx
    dv = s.v - v_star
    dth = s.theta - theta_star
    total = _sum(dv * dv) * dx + _grad_sq(s.v, dx)
    total += _sum(g.node_weights * s.u * s.u) * dx + _grad_sq(s.u, dx)
    total += _sum(dth * dth) * dx + _grad_sq(s.theta, dx)
    return math.sqrt(total)


def extrema(s: State) -> tuple[float, float, float, float]:
    """(min v, max v, min theta, max theta) over the cells."""
    return (float(_min(s.v)), float(_max(s.v)),
            float(_min(s.theta)), float(_max(s.theta)))


def record(s: State, g: Grid, p: PhysParams, *, int_v_dt: float = 0.0,
           repr_err: float = 0.0, log_damping: float = 0.0,
           lp_exponents=None, v_star: float = 1.0,
           theta_star: float = 1.0, dissipation_V: float | None = None) -> DiagnosticsRecord:
    """Aggregate every monitored functional into one deterministic row;
    the time-accumulated values come from the caller's running totals, and
    so may ``dissipation_V``, the state's dissipation, when it has it.

    The one-row case of ``records_from``; each field equals its public
    helper bit for bit (the mass and energy ``check_normalization``)."""
    if dissipation_V is None:
        dissipation_V = dissipation(s, g, p)
    return records_from(s.v[None], s.u[None], s.theta[None], (s.t,), g, p,
                        int_v_dt=(int_v_dt,), repr_err=(repr_err,),
                        log_damping=(log_damping,), dissipation_V=(dissipation_V,),
                        lp_exponents=lp_exponents, v_star=v_star, theta_star=theta_star)[0]


def records_from(v: np.ndarray, u: np.ndarray, theta: np.ndarray, times, g: Grid,
                 p: PhysParams, *, int_v_dt, repr_err, log_damping, dissipation_V,
                 lp_exponents=None, v_star: float = 1.0,
                 theta_star: float = 1.0) -> list:
    """``record`` of each row of a block of states, one DiagnosticsRecord per
    row: the fields (S, N) ``v`` and ``theta`` and (S, N + 1) ``u``, and one
    value per row in each of ``times``, ``int_v_dt``, ``repr_err``,
    ``log_damping`` and ``dissipation_V``.

    Every sum, extremum, log and power is taken row-wise over the block, in
    the order of operations of the one-state helpers, and numpy gives each
    row the bits of the 1-D call. The sums that several fields share, of
    theta, of the kinetic energy density and of the squared gradients, are
    taken once."""
    _check_reference(v_star, theta_star)
    if lp_exponents is None:
        lp_exponents = default_lp_exponents(p)
    for q in lp_exponents:
        if not (math.isfinite(q) and q > 0.0):
            raise ValueError(f"moment exponent must be positive and finite, got {q}")
    dx = g.dx
    w = g.node_weights
    sum_theta = _sum(theta, 1)
    kinetic = _sum(w * 0.5 * u * u, 1)
    cells = p.R * (v - np.log(v)) + p.c_v * (theta - np.log(theta))
    gradients = _grad_sq(v, dx), _grad_sq(u, dx), _grad_sq(theta, dx)
    dv = v - v_star
    dth = theta - theta_star
    h1 = _sum(dv * dv, 1) * dx + gradients[0]
    h1 += _sum(w * u * u, 1) * dx + gradients[1]
    h1 += _sum(dth * dth, 1) * dx + gradients[2]
    columns = (_sum(v, 1) * dx,
               p.c_v * sum_theta * dx + kinetic * dx,
               (_sum(cells, 1) + kinetic) * dx,
               sum_theta * dx,
               _min(v, 1), _max(v, 1), _min(theta, 1), _max(theta, 1),
               *gradients,
               np.sqrt(h1))
    qs = [float(q) for q in lp_exponents]
    moments = [(_sum(theta ** (1.0 - q), 1) * dx).tolist() for q in qs]
    per_row = zip(times, dissipation_V, int_v_dt, repr_err, log_damping,
                  *(c.tolist() for c in columns))
    return [
        DiagnosticsRecord(
            t=t, mass=mass, total_energy=energy, entropy_E=entropy_E,
            dissipation_V=float(rate), int_V_dt=float(integral), mean_theta=mean,
            min_v=min_v, max_v=max_v, min_theta=min_th, max_theta=max_th,
            grad_v_sq=grad_v, grad_u_sq=grad_u, grad_theta_sq=grad_theta, h1_dev=h1_dev,
            repr_err=float(err), log_damping=float(log_y),
            lp_moments={q: m[i] for q, m in zip(qs, moments)})
        for i, (t, rate, integral, err, log_y, mass, energy, entropy_E, mean, min_v, max_v,
                min_th, max_th, grad_v, grad_u, grad_theta, h1_dev) in enumerate(per_row)]
