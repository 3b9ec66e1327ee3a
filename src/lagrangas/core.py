"""Domain types, grid construction, parameter checks, and initial-data builders.

The gas occupies the mass interval (0, 1). Velocity lives on the N+1 nodes of
a uniform staggered grid, specific volume and temperature on the N cells; this
placement makes the discrete mass identity telescope exactly. All value types
are frozen after construction and safe to share between threads.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ConstructionError, FormatError, ParamError, RegimeError

TABLE_HEADER = ("x", "v", "u", "theta")


@dataclass(frozen=True)
class PhysParams:
    """Physical constants of the gas model.

    Viscosity is constant (mu_tilde); heat conductivity is kappa_tilde *
    theta**beta, degenerate at theta = 0 when beta > 0. The viscosity
    exponent is identically zero and is not stored.
    """

    beta: float
    mu_tilde: float = 1.0
    kappa_tilde: float = 1.0
    R: float = 1.0
    c_v: float = 1.0


def validate_params(p: PhysParams, allow_beta_zero: bool = False) -> None:
    """Check positivity of all constants and the beta > 0 regime.

    Raises ParamError naming the offending field, or RegimeError when
    beta == 0 and ``allow_beta_zero`` is not set (the constant-conductivity
    comparison case must be requested explicitly).
    """
    for name in ("mu_tilde", "kappa_tilde", "R", "c_v"):
        value = getattr(p, name)
        if not np.isfinite(value) or value <= 0.0:
            raise ParamError(name, f"{name} must be positive, got {value}")
    if not np.isfinite(p.beta) or p.beta < 0.0:
        raise ParamError("beta", f"beta must be >= 0, got {p.beta}")
    if p.beta == 0.0 and not allow_beta_zero:
        raise RegimeError(
            "beta",
            "beta = 0 is the classical constant-conductivity case; "
            "pass allow_beta_zero=True to run it",
        )


def _pow(base: np.ndarray, exponent: float, out: np.ndarray | None = None) -> np.ndarray:
    # theta**beta dominates the step cost at small N; shortcut the common cases.
    # The power goes into ``out`` when given, unless it is ``base`` itself.
    if exponent == 1.0:
        return base
    if exponent == 0.0:
        out = np.empty_like(base) if out is None else out
        out.fill(1.0)
        return out
    return np.power(base, exponent, out=out)


@dataclass(frozen=True)
class Grid:
    """Uniform partition of the mass interval (0, 1).

    ``node_weights`` are the trapezoid quadrature weights on the nodes (1/2
    at the two ends), built once and read-only.
    """

    n_cells: int
    dx: float
    cell_centers: np.ndarray
    nodes: np.ndarray
    node_weights: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        w = np.ones(self.n_cells + 1)
        w[0] = w[-1] = 0.5
        w.setflags(write=False)
        object.__setattr__(self, "node_weights", w)


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


class _Fields:
    """One IMEX kernel output: the fields (v, u, theta) of a new state, its
    cell velocity gradient ``ux`` and the face means ``vf`` of its volume."""

    __slots__ = ("v", "u", "theta", "ux", "vf")

    def __init__(self, n: int):
        self.v = np.empty(n)
        self.u = np.zeros(n + 1)  # the kernel never writes the wall values
        self.theta = np.empty(n)
        self.ux = np.empty(n)
        self.vf = np.empty(n - 1)


class Workspace:
    """Preallocated arrays for stepping one run on an n-cell grid, so that an
    accepted IMEX step and its per-step diagnostics allocate no array.

    The IMEX kernel writes the new state into ``nxt``, and ``swap`` makes it
    ``cur`` once the step is accepted, so a rejected attempt overwrites
    neither the accepted state nor the values carried from it. Two values of
    the accepted state are carried to the next kernel instead of being
    recomputed there: ``cur.ux``, its cell velocity gradient, and ``knum``,
    kappa_tilde * theta**beta at its temperature face means, which the
    dissipation update leaves behind. ``base`` holds the reconstruction's base
    profile of the accepted state. ``cells``, ``faces`` and ``nodes`` are
    scratch arrays of n, n - 1 and n + 1 floats that any per-step function
    may overwrite.
    """

    def __init__(self, n_cells: int):
        n = n_cells
        self.cur = _Fields(n)
        self.nxt = _Fields(n)
        self.knum = np.empty(n - 1)
        self.base = np.empty(n)
        self.cells = tuple(np.empty(n) for _ in range(3))
        self.faces = tuple(np.empty(n - 1) for _ in range(3))
        self.nodes = np.empty(n + 1)

    def swap(self) -> None:
        """Make the kernel's last output the accepted state."""
        self.cur, self.nxt = self.nxt, self.cur


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
    'custom_table'.
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

    Raises ConstructionError when amplitudes would break positivity and
    FormatError for malformed tables.
    """
    if spec.kind not in InitialSpec.KINDS:
        raise ConstructionError(f"unknown initial-data kind {spec.kind!r}")
    if c_v <= 0.0:
        raise ConstructionError(f"c_v must be positive, got {c_v}")

    n = grid.n_cells
    if spec.kind == "equilibrium":
        return State(t=0.0, v=np.ones(n), u=np.zeros(n + 1), theta=np.ones(n))

    if spec.kind == "cosine":
        if abs(spec.a_v) >= 1.0:
            raise ConstructionError(
                f"|a_v| = {abs(spec.a_v)} >= 1 would make the volume vanish"
            )
        if spec.k < 1:
            raise ConstructionError(f"wavenumber k must be a positive integer, got {spec.k}")
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

    if abs(spec.a_v) >= 1.0:
        raise ConstructionError(f"|a_v| = {abs(spec.a_v)} >= 1 would make the volume vanish")
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
