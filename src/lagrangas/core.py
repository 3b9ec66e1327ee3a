"""Domain types, grid construction, and initial-data builders.

The gas occupies the mass interval (0, 1). Velocity lives on the N+1 nodes of
a uniform staggered grid, specific volume and temperature on the N cells; this
placement makes the discrete mass identity telescope exactly. All value types
are frozen after construction and safe to share between threads; PhysParams
and InitialSpec check their own fields when built, so an instance is always
in range.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConstructionError, FormatError, ParamError

TABLE_HEADER = ("x", "v", "u", "theta")


@dataclass(frozen=True)
class PhysParams:
    """Physical constants of the gas model.

    Viscosity is constant (mu_tilde); heat conductivity is kappa_tilde *
    theta**beta, degenerate at theta = 0 when beta > 0 and the classical
    constant conductivity at beta = 0. The viscosity exponent is identically
    zero and is not stored. Raises ParamError naming the field unless the
    four constants are positive and finite and beta is finite and >= 0.
    """

    beta: float
    mu_tilde: float = 1.0
    kappa_tilde: float = 1.0
    R: float = 1.0
    c_v: float = 1.0

    def __post_init__(self):
        for name in ("mu_tilde", "kappa_tilde", "R", "c_v"):
            value = getattr(self, name)
            if not math.isfinite(value) or value <= 0.0:
                raise ParamError(name, f"{name} must be positive, got {value}")
        if not math.isfinite(self.beta) or self.beta < 0.0:
            raise ParamError("beta", f"beta must be >= 0, got {self.beta}")


def _operand(value: float) -> np.ndarray:
    # ``value`` as a read-only 0-d float64 array. A ufunc converts a Python
    # float operand on every call; it takes a 0-d array as it is, and gives
    # the same bits either way.
    a = np.array(value, dtype=float)
    a.setflags(write=False)
    return a


_HALF, _ONE, _THREE = _operand(0.5), _operand(1.0), _operand(3.0)


def _pow(base: np.ndarray, exponent: float, out: np.ndarray | None = None) -> np.ndarray:
    # theta**beta dominates the step cost at small N; shortcut beta = 1.
    # The power goes into ``out`` when given, unless it is ``base`` itself.
    if exponent == 1.0:
        return base
    return np.power(base, exponent, out=out)


def _numerator_from(theta_lo: np.ndarray, theta_hi: np.ndarray, beta: float, kappa,
                    thf: np.ndarray, out: np.ndarray) -> np.ndarray:
    # kappa_tilde * thf**beta into ``out``, at the face means of theta into
    # ``thf``, from the views of theta without its last cell and without its
    # first: the numerator of the IMEX step's face conductivities, and a
    # factor of the thermal dissipation. ``kappa`` is a float or a 0-d array.
    np.add(theta_lo, theta_hi, thf)
    thf *= _HALF
    return np.multiply(_pow(thf, beta, out), kappa, out)


@dataclass(frozen=True)
class Grid:
    """Uniform partition of the mass interval (0, 1).

    ``node_weights`` are the trapezoid quadrature weights on the nodes (1/2
    at the two ends), built once and read-only, and so are ``dx_ops``, the
    spacings dx, dx/2 and dx/8 as 0-d arrays for the ufuncs of a run.
    """

    n_cells: int
    dx: float
    cell_centers: np.ndarray
    nodes: np.ndarray
    node_weights: np.ndarray = field(init=False, repr=False, compare=False)
    dx_ops: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        w = np.ones(self.n_cells + 1)
        w[0] = w[-1] = 0.5
        w.setflags(write=False)
        object.__setattr__(self, "node_weights", w)
        dx = self.dx
        object.__setattr__(self, "dx_ops", (_operand(dx), _operand(0.5 * dx),
                                            _operand(dx / 8.0)))


def build_grid(n_cells: int) -> Grid:
    """Build the uniform staggered grid with ``n_cells`` cells.

    n_cells = 1 is allowed for functional unit tests; the time steppers
    require at least 2 cells.
    """
    if n_cells < 1:
        raise ValueError(f"n_cells must be >= 1, got {n_cells}")
    n = int(n_cells)
    dx = 1.0 / n
    centers = (np.arange(n) + 0.5) * dx
    nodes = np.arange(n + 1) * dx
    return Grid(n_cells=n, dx=dx, cell_centers=_frozen(centers), nodes=_frozen(nodes))


def _frozen(a: np.ndarray) -> np.ndarray:
    arr = np.asarray(a, dtype=float)
    if arr.flags.writeable:
        arr = arr.copy()
        arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class State:
    """Solution snapshot: time stamp, cell volumes, node velocities, cell temperatures."""

    t: float
    v: np.ndarray
    u: np.ndarray
    theta: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "v", _frozen(self.v))
        object.__setattr__(self, "u", _frozen(self.u))
        object.__setattr__(self, "theta", _frozen(self.theta))

    @property
    def n_cells(self) -> int:
        return self.v.shape[0]


def block_length(n_cells: int) -> int:
    """Accepted steps that a run on ``n_cells`` cells folds into its
    diagnostics at once: about 4096 floats a field, from 1 to 64 rows."""
    return max(1, min(64, 4096 // n_cells))


class _Rows:
    """Views of one row (an int ``index``) or of a run of rows (a slice) of a
    Workspace: the fields (v, u, theta) of a state, its cell velocity
    gradient ``ux``, the face means ``vf`` of its volume and ``thf`` of its
    temperature, ``knum`` = kappa_tilde * thf**beta, and, of a run of rows,
    the sizes ``dt`` of the steps that accepted them. ``u_in``, ``u_lo`` and
    ``u_hi`` view u without its wall nodes, without its last node and
    without its first; ``v_lo`` and ``v_hi`` view v, and ``theta_lo`` and
    ``theta_hi`` theta, without its last cell and without its first, so that
    a step builds none of these views."""

    __slots__ = ("index", "v", "u", "theta", "ux", "vf", "thf", "knum", "dt",
                 "u_in", "u_lo", "u_hi", "v_lo", "v_hi", "theta_lo", "theta_hi")

    def __init__(self, ws, index):
        self.index = index
        self.v, self.u, self.theta = ws.v[index], ws.u[index], ws.theta[index]
        self.ux, self.vf = ws.ux[index], ws.vf[index]
        self.thf, self.knum = ws.thf[index], ws.knum[index]
        self.dt = ws.dt[index]
        u, v, theta = self.u, self.v, self.theta
        self.u_in, self.u_lo, self.u_hi = u[..., 1:-1], u[..., :-1], u[..., 1:]
        self.v_lo, self.v_hi = v[..., :-1], v[..., 1:]
        self.theta_lo, self.theta_hi = theta[..., :-1], theta[..., 1:]


class Workspace:
    """Preallocated arrays for stepping one run on an n-cell grid, so that an
    accepted IMEX step and the folding of its diagnostics allocate no array.

    The fields are 2-D, one row per state, in two banks of ``block`` rows.
    ``nxt`` views the row the next kernel writes and ``cur`` that of the
    last accepted or ``load``ed state, whose ``ux`` and ``knum`` the kernel
    reads instead of recomputing them; a rejected attempt overwrites neither.
    ``accept(dt)`` moves ``cur`` onto ``nxt``, keeps the step's size in
    ``dt`` and writes the row's ``thf`` and ``knum``. A block, the steps
    accepted since the last ``fold``, fills one bank forward from its first
    row while the other bank holds the state it started from; ``fold``
    switches banks, and no row is copied.

    ``base``, ``cells``, ``faces``, ``nodes``, ``steps`` and ``ratios`` are
    scratch for a fold, ``block`` rows of n, n, n - 1, n + 1, 1 and 1
    floats, and ``step_cells`` and ``step_faces`` three rows of n and two
    of n - 1 floats for a kernel; any function may overwrite them.
    ``step_sources`` holds three rows of n, n - 1 and n floats, which no
    other buffer aliases: the increments s_v*dt, s_u[1:-1]*dt and
    s_theta*dt of an IMEX step whose sources are a Sources or a callable
    (``solver._sources_at``); ManufacturedSources keep theirs in their own
    plan. ``step_kf`` holds the IMEX kernel's n + 1
    face conductivities of the temperature system: the kernel writes the
    n - 1 interior faces, and the walls' two faces stay zero.
    ``step_views`` holds the shifted views of these that the IMEX kernel
    reads, ``ratio_ops`` the 0-d views of ``ratios`` and ``cell_rows`` the
    rows of both ``cells`` blocks, built once.

    A run enters through ``load(s, g, p)``, which keeps its grid ``g`` and
    gas ``p`` and their scalar operands as 0-d float64 arrays, which a
    ufunc takes as they are where it converts a Python float on every call:
    ``R``, ``mu`` (mu_tilde), ``kappa`` (kappa_tilde) and ``dx``.
    ``at(dt)`` refills the operands of the step size in place when dt
    changes: ``step_dt``, ``coef`` and ``neg_coef`` (+-dt*mu_tilde/dx**2),
    ``dt_dx``, ``dt_cv`` and ``lam`` and ``neg_lam`` (+-dt/(c_v*dx**2)),
    each from the expression that gave the float operand. A workspace that
    only lends scratch needs no ``load``.
    """

    def __init__(self, n_cells: int, block: int | None = None):
        n = n_cells
        k = self.block = block_length(n) if block is None else block
        rows = 2 * k
        self.v = np.empty((rows, n))
        self.u = np.zeros((rows, n + 1))  # the kernels never write the wall values
        self.theta = np.empty((rows, n))
        self.ux = np.empty((rows, n))
        self.vf = np.empty((rows, n - 1))
        self.thf = np.empty((rows, n - 1))
        self.knum = np.empty((rows, n - 1))
        self.dt = np.empty(rows)
        self.base = np.empty((k, n))
        self.cells = (np.empty((k, n)), np.empty((k, n)))
        self.faces = (np.empty((k, n - 1)), np.empty((k, n - 1)))
        self.nodes = np.empty((k, n + 1))
        self.steps = np.empty(k)
        self.ratios = np.empty(k)
        self.ratio_ops = tuple(self.ratios[i, ...] for i in range(k))
        self.cell_rows = tuple(tuple(cells) for cells in self.cells)
        self.g = self.p = self.R = self.mu = self.kappa = self.dx = self._at_dt = None
        (self.step_dt, self.coef, self.neg_coef, self.dt_dx, self.dt_cv, self.lam,
         self.neg_lam) = (np.empty(()) for _ in range(7))
        self.step_cells = tuple(np.empty((3, n)))
        self.step_faces = tuple(np.empty((2, n - 1)))
        self.step_sources = (np.empty(n), np.empty(n - 1), np.empty(n))
        self.step_kf = kf = np.zeros(n + 1)
        inv_v, work, _ = self.step_cells
        _, work_f2 = self.step_faces
        self.step_views = (inv_v[:-1], inv_v[1:], inv_v[1:-1], work[:-1], work[1:],
                           work_f2[:-1], kf[1:-1], kf[:-1], kf[1:])
        self._rows = [_Rows(self, i) for i in range(rows)]
        self._banks = (_Rows(self, slice(0, k)), _Rows(self, slice(k, rows)))
        # the first block fills bank 0 from the last row of bank 1
        self.cur = self._rows[-1]
        self._bank = 1
        self.fold()

    def load(self, s: State, g: Grid, p: PhysParams) -> _Rows:
        """Make (g, p) the run that steps here, with its scalar operands,
        copy the fields of ``s`` into ``cur``, the row a first step reads,
        and write there what a step and the dissipation read from them: the
        cell velocity gradient ``ux``, the face means ``vf`` and ``thf`` and
        ``knum``; returns that row."""
        self.g, self.p = g, p
        self.R, self.mu, self.kappa = (_operand(p.R), _operand(p.mu_tilde),
                                       _operand(p.kappa_tilde))
        self.dx = g.dx_ops[0]
        self._at_dt = None
        row = self.cur
        row.v[...] = s.v
        row.u[...] = s.u
        row.theta[...] = s.theta
        np.subtract(row.u_hi, row.u_lo, row.ux)
        row.ux /= self.dx
        np.add(row.v_lo, row.v_hi, row.vf)
        row.vf *= _HALF
        _numerator_from(row.theta_lo, row.theta_hi, p.beta, self.kappa, row.thf, row.knum)
        return row

    def at(self, dt: float) -> None:
        """Fill the operands of a step of size dt, unless they hold it."""
        if dt != self._at_dt:
            p, dx = self.p, self.g.dx
            coef = dt * p.mu_tilde / (dx * dx)
            lam = dt / (p.c_v * dx * dx)
            self.step_dt[()] = dt
            self.coef[()], self.neg_coef[()] = coef, -coef
            self.dt_dx[()] = dt / dx
            self.dt_cv[()] = dt / p.c_v
            self.lam[()], self.neg_lam[()] = lam, -lam
            self._at_dt = dt

    def accept(self, dt: float) -> _Rows:
        """Make the kernel's last output, a step of size ``dt``, the
        accepted state, and write its ``thf`` and ``knum``, which the next
        kernel reads; returns its row."""
        cur = self.cur = self.nxt
        _numerator_from(cur.theta_lo, cur.theta_hi, self.p.beta, self.kappa, cur.thf, cur.knum)
        self.dt[cur.index] = dt
        self.filled += 1
        if self.filled < self.block:
            self.nxt = self._rows[cur.index + 1]
        return cur

    @property
    def full(self) -> bool:
        """True when the block has no row left for another step."""
        return self.filled == self.block

    def pending(self) -> _Rows:
        """The rows accepted since the last fold, in the order of time."""
        if self.full:
            return self._banks[self._bank]
        first = self._bank * self.block
        return _Rows(self, slice(first, first + self.filled))

    def fold(self) -> None:
        """Start a new block in the other bank; the pending block must not be
        empty, since its last row is the state the new block starts from."""
        self._bank = 1 - self._bank
        self.filled = 0
        self.nxt = self._rows[self._bank * self.block]


def validate_state(s: State, grid: Grid) -> None:
    """Raise ConstructionError unless ``s`` satisfies the state invariants.

    Required: array lengths match the grid, v and theta strictly positive,
    u exactly zero at both boundary nodes, finite entries, t >= 0.
    """
    n = grid.n_cells
    if s.v.shape != (n,) or s.theta.shape != (n,) or s.u.shape != (n + 1,):
        raise ConstructionError(
            f"field lengths {s.v.shape[0]}/{s.u.shape[0]}/{s.theta.shape[0]} "
            f"do not match grid with {n} cells"
        )
    if not (np.all(np.isfinite(s.v)) and np.all(np.isfinite(s.u)) and np.all(np.isfinite(s.theta))):
        raise ConstructionError("state contains non-finite entries")
    if s.t < 0.0 or not np.isfinite(s.t):
        raise ConstructionError(f"time stamp must be finite and >= 0, got {s.t}")
    if s.v.min() <= 0.0:
        raise ConstructionError(f"specific volume must be positive, min is {s.v.min()}")
    if s.theta.min() <= 0.0:
        raise ConstructionError(f"temperature must be positive, min is {s.theta.min()}")
    if s.u[0] != 0.0 or s.u[-1] != 0.0:
        raise ConstructionError("velocity must vanish exactly at both boundary nodes")


@dataclass(frozen=True)
class InitialSpec:
    """Recipe for initial data.

    kind is one of 'equilibrium', 'cosine', 'random_smooth', 'custom_table'.
    Amplitudes and the integer wavenumber k apply to the analytic builders;
    seed to 'random_smooth'; table (rows of x, v, u, theta) or table_path to
    'custom_table'. Raises ConstructionError naming the field for an unknown
    kind, a non-finite amplitude, |a_v| >= 1 (the volume would vanish),
    k < 1 or seed < 0.
    """

    kind: str
    a_v: float = 0.0
    a_u: float = 0.0
    a_theta: float = 0.0
    k: int = 1
    seed: int = 0
    table: tuple | None = None
    table_path: str | None = None

    KINDS = ("equilibrium", "cosine", "random_smooth", "custom_table")

    def __post_init__(self):
        if self.kind not in self.KINDS:
            raise ConstructionError(f"unknown initial-data kind {self.kind!r}", "kind")
        for name in ("a_v", "a_u", "a_theta"):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise ConstructionError(f"amplitude must be finite, got {value}", name)
        if abs(self.a_v) >= 1.0:
            raise ConstructionError(
                f"|a_v| = {abs(self.a_v)} >= 1 would make the volume vanish", "a_v")
        if self.k < 1:
            raise ConstructionError(
                f"wavenumber k must be a positive integer, got {self.k}", "k")
        if self.seed < 0:
            raise ConstructionError(
                f"seed must be a non-negative integer, got {self.seed}", "seed")


def kinetic_energy(u: np.ndarray, grid: Grid) -> float:
    """Discrete kinetic energy: trapezoid-weighted sum of u^2/2 over nodes."""
    return float(np.sum(grid.node_weights * 0.5 * u * u) * grid.dx)


def make_initial_data(spec: InitialSpec, grid: Grid, c_v: float = 1.0) -> State:
    """Build a valid initial state from a recipe.

    The 'equilibrium' builder returns the constant state (1, 0, 1). The
    'cosine' and 'random_smooth' builders produce data whose discrete mass is
    exactly 1 and whose discrete total energy (with heat capacity ``c_v``) is
    exactly 1: the volume and temperature perturbations have zero discrete
    mean by symmetry, and the constant part of theta is set to
    (1 - kinetic energy) / c_v. 'custom_table' interpolates tabulated rows
    linearly onto the grid and is not renormalized.

    Raises ConstructionError when amplitudes would break positivity on the
    grid or ``c_v`` is not positive and finite (naming ``c_v``), and
    FormatError for malformed tables.
    """
    if not (math.isfinite(c_v) and c_v > 0.0):
        raise ConstructionError(f"c_v must be positive and finite, got {c_v}", "c_v")

    n = grid.n_cells
    if spec.kind == "equilibrium":
        return State(t=0.0, v=np.ones(n), u=np.zeros(n + 1), theta=np.ones(n))

    if spec.kind == "cosine":
        if spec.k % grid.n_cells == 0:
            # aliased mode is constant on the cell centers, so the zero-mean
            # cancellation behind the exact normalization would fail
            raise ConstructionError(
                f"wavenumber {spec.k} aliases to a constant on {grid.n_cells} cells")
        omega = 2.0 * np.pi * spec.k
        v = 1.0 + spec.a_v * np.cos(omega * grid.cell_centers)
        u = spec.a_u * np.sin(omega * grid.nodes)
        u[0] = u[-1] = 0.0
        theta_c = (1.0 - kinetic_energy(u, grid)) / c_v
        if theta_c <= 0.0:
            raise ConstructionError(
                "velocity amplitude leaves no energy for a positive temperature"
            )
        if abs(spec.a_theta) >= theta_c:
            raise ConstructionError(
                f"|a_theta| = {abs(spec.a_theta)} >= mean temperature {theta_c}"
            )
        theta = theta_c + spec.a_theta * np.cos(omega * grid.cell_centers)
        return State(t=0.0, v=v, u=u, theta=theta)

    if spec.kind == "random_smooth":
        return _random_smooth(spec, grid, c_v)

    return _from_table(spec, grid)


def _random_smooth(spec: InitialSpec, grid: Grid, c_v: float) -> State:
    # Low-pass noise: white coefficients on modes 1..max(1, N//8), so the
    # profiles stay smooth under refinement; zero-mean by construction.
    rng = np.random.default_rng(spec.seed)
    n = grid.n_cells
    n_modes = max(1, n // 8)
    modes = np.arange(1, n_modes + 1)

    def series(x, coeffs, kind):
        phases = np.pi * np.outer(modes, x)
        basis = np.cos(phases) if kind == "cos" else np.sin(phases)
        return coeffs @ basis

    def scaled(profile, amplitude):
        peak = np.max(np.abs(profile))
        if peak == 0.0:
            return np.zeros_like(profile)
        return amplitude * profile / peak

    pert_v = scaled(series(grid.cell_centers, rng.standard_normal(n_modes), "cos"), spec.a_v)
    pert_u = scaled(series(grid.nodes, rng.standard_normal(n_modes), "sin"), spec.a_u)
    pert_t = scaled(series(grid.cell_centers, rng.standard_normal(n_modes), "cos"), spec.a_theta)

    v = 1.0 + pert_v
    u = pert_u
    u[0] = u[-1] = 0.0
    theta_c = (1.0 - kinetic_energy(u, grid)) / c_v
    if theta_c <= 0.0:
        raise ConstructionError("velocity amplitude leaves no energy for a positive temperature")
    theta = theta_c + pert_t
    if theta.min() <= 0.0:
        raise ConstructionError(
            f"|a_theta| = {abs(spec.a_theta)} >= mean temperature {theta_c}"
        )
    return State(t=0.0, v=v, u=u, theta=theta)


def _from_table(spec: InitialSpec, grid: Grid) -> State:
    rows = spec.table
    if rows is None:
        if spec.table_path is None:
            raise ConstructionError("custom_table requires table rows or a table_path")
        rows = load_table(spec.table_path)
    data = np.asarray(rows, dtype=float)
    if data.ndim != 2 or data.shape[1] != 4:
        raise FormatError(f"table must have rows of (x, v, u, theta), got shape {data.shape}")
    x = data[:, 0]
    if data.shape[0] < 2:
        raise FormatError("table needs at least two rows to interpolate")
    if np.any(np.diff(x) <= 0.0):
        raise FormatError("table x column must be strictly increasing")
    if x[0] < 0.0 or x[-1] > 1.0:
        raise FormatError("table x values must lie in [0, 1]")

    v = np.interp(grid.cell_centers, x, data[:, 1])
    theta = np.interp(grid.cell_centers, x, data[:, 3])
    u = np.interp(grid.nodes, x, data[:, 2])
    u[0] = u[-1] = 0.0
    if v.min() <= 0.0 or theta.min() <= 0.0:
        raise ConstructionError("interpolated table data violate positivity")
    return State(t=0.0, v=v, u=u, theta=theta)


def parse_table(text: str):
    """Parse the plain-text table format: header 'x v u theta', then rows."""
    lines = [ln.strip() for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise FormatError("empty table")
    if tuple(lines[0].split()) != TABLE_HEADER:
        raise FormatError(f"table header must be {' '.join(TABLE_HEADER)!r}, got {lines[0]!r}")
    rows = []
    for i, ln in enumerate(lines[1:], start=2):
        parts = ln.split()
        if len(parts) != 4:
            raise FormatError(f"table line {i} has {len(parts)} columns, expected 4")
        try:
            rows.append(tuple(float(p) for p in parts))
        except ValueError as exc:
            raise FormatError(f"table line {i}: {exc}") from exc
    return tuple(rows)


def load_table(path):
    with open(path, "r", encoding="utf-8") as fh:
        return parse_table(fh.read())


def check_normalization(s: State, grid: Grid, p: PhysParams) -> tuple[float, float]:
    """Return the discrete mass and discrete total energy of a state.

    Mass is the cell sum of v; energy is c_v * (cell sum of theta) plus the
    trapezoid-weighted node sum of u^2/2.
    """
    mass = float(np.sum(s.v) * grid.dx)
    energy = float(p.c_v * np.sum(s.theta) * grid.dx) + kinetic_energy(s.u, grid)
    return mass, energy
