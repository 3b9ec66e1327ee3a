import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, reject, settings, strategies as st

import lagrangas as lg
from lagrangas import functionals, representation, solver
from lagrangas.core import Workspace
from lagrangas.errors import (ConstructionError, NumericalBreakdown,
                              SimulationFailure, StepRejected)

from conftest import make_state, tridiag_breaking_after

# a power of two, so that step times add up exactly
DT_EXACT = 2.0 ** -10


def rhs_oracle(s, p, g, src=None):
    """Independent scalar-loop evaluation of the semi-discrete operator,
    assembled through explicit dense difference matrices."""
    n = g.n_cells
    dx = g.dx
    # node-to-cell difference matrix
    d_cells = np.zeros((n, n + 1))
    for j in range(n):
        d_cells[j, j] = -1.0 / dx
        d_cells[j, j + 1] = 1.0 / dx
    # cell-to-interior-node difference matrix, padded with zero boundary rows
    d_nodes = np.zeros((n + 1, n))
    for i in range(1, n):
        d_nodes[i, i - 1] = -1.0 / dx
        d_nodes[i, i] = 1.0 / dx

    ux = d_cells @ s.u
    sigma = (p.mu_tilde * ux - p.R * s.theta) / s.v
    du = d_nodes @ sigma
    flux = np.zeros(n + 1)
    for i in range(1, n):
        thf = 0.5 * (s.theta[i - 1] + s.theta[i])
        vf = 0.5 * (s.v[i - 1] + s.v[i])
        flux[i] = p.kappa_tilde * thf ** p.beta / vf * (s.theta[i] - s.theta[i - 1]) / dx
    dtheta = (sigma * ux + d_cells @ flux) / p.c_v
    dv = ux.copy()
    if src is not None:
        dv += src.s_v
        du = du + src.s_u
        du[0] = du[-1] = 0.0
        dtheta = dtheta + src.s_theta
    return dv, du, dtheta


class TestSpatialRhs:
    def test_equilibrium_fixed_point(self, grid64, equilibrium64, unit_params):
        s = equilibrium64
        dv, du, dtheta = lg.spatial_rhs(s.v, s.u, s.theta, unit_params, grid64)
        assert np.all(dv == 0.0)
        assert np.all(du == 0.0)
        assert np.all(dtheta == 0.0)

    def test_sine_velocity_against_dense_oracle(self, unit_params):
        g = lg.build_grid(64)
        u = np.sin(np.pi * g.nodes)
        u[0] = u[-1] = 0.0
        s = make_state(np.ones(64), u, np.ones(64))
        dv, du, dtheta = lg.spatial_rhs(s.v, s.u, s.theta, unit_params, g)
        want_dv, want_du, want_dtheta = rhs_oracle(s, unit_params, g)
        assert np.allclose(dv, want_dv, rtol=1e-13, atol=1e-15)
        assert np.allclose(du, want_du, rtol=1e-13, atol=1e-12)
        assert np.allclose(dtheta, want_dtheta, rtol=1e-13, atol=1e-12)
        assert np.allclose(dv, np.diff(u) / g.dx, rtol=0, atol=0)

    def test_random_state_against_dense_oracle(self):
        p = lg.PhysParams(beta=1.7, mu_tilde=0.6, kappa_tilde=1.4, R=1.2, c_v=0.8)
        g = lg.build_grid(48)
        s = lg.make_initial_data(
            lg.InitialSpec(kind="random_smooth", a_v=0.3, a_u=0.4, a_theta=0.25,
                           seed=5), g)
        exact, src = solver.manufactured_solution(0.2, g, p)
        dv, du, dtheta = lg.spatial_rhs(s.v, s.u, s.theta, p, g, src)
        want_dv, want_du, want_dtheta = rhs_oracle(s, p, g, src)
        assert np.allclose(dv, want_dv, rtol=1e-12, atol=1e-14)
        assert np.allclose(du, want_du, rtol=1e-12, atol=1e-11)
        assert np.allclose(dtheta, want_dtheta, rtol=1e-12, atol=1e-11)
        del exact

    def test_boundary_rates_zero(self, grid64, cosine64, unit_params):
        s = cosine64
        _, du, _ = lg.spatial_rhs(s.v, s.u, s.theta, unit_params, grid64)
        assert du[0] == 0.0 and du[-1] == 0.0

    @given(seed=st.integers(0, 500))
    def test_volume_rate_telescopes(self, seed):
        g = lg.build_grid(24)
        p = lg.PhysParams(beta=0.5)
        s = lg.make_initial_data(
            lg.InitialSpec(kind="random_smooth", a_v=0.4, a_u=0.7, a_theta=0.3,
                           seed=seed), g)
        dv, _, _ = lg.spatial_rhs(s.v, s.u, s.theta, p, g)
        assert abs(np.sum(dv) * g.dx) <= 1e-13

    def test_sources_require_zero_boundary(self, grid64):
        n = grid64.n_cells
        bad = np.zeros(n + 1)
        bad[0] = 0.1
        with pytest.raises(ValueError):
            lg.Sources(np.zeros(n), bad, np.zeros(n))


class TestManufacturedSolution:
    def test_values_at_t_zero(self, unit_params):
        g = lg.build_grid(128)
        exact, _ = solver.manufactured_solution(0.0, g, unit_params)
        xc = g.cell_centers
        assert np.array_equal(exact.v, 1.0 + 0.1 * np.cos(2 * np.pi * xc))
        assert np.array_equal(exact.theta, exact.v)
        assert exact.u[0] == 0.0 and exact.u[-1] == 0.0
        # the analytic field at the left edge is 1.1
        assert 1.0 + 0.1 * np.cos(0.0) == 1.1

    def test_long_time_limit(self, unit_params):
        g = lg.build_grid(32)
        exact, src = solver.manufactured_solution(40.0, g, unit_params)
        assert np.max(np.abs(exact.v - 1.0)) < 1e-15
        assert np.max(np.abs(exact.u)) < 1e-15
        for f in (src.s_v, src.s_u, src.s_theta):
            assert np.max(np.abs(f)) < 1e-15

    def test_residual_second_order(self, unit_params):
        residuals = {}
        for n in (64, 128, 256):
            g = lg.build_grid(n)
            exact, src = solver.manufactured_solution(0.3, g, unit_params)
            got = lg.spatial_rhs(exact.v, exact.u, exact.theta, unit_params, g, src)
            want = solver.manufactured_rates(0.3, g)
            residuals[n] = max(np.max(np.abs(a - b)) for a, b in zip(got, want))
        assert 3.4 <= residuals[64] / residuals[128] <= 4.6
        assert 3.4 <= residuals[128] / residuals[256] <= 4.6

    def test_sources_from_finite_differences(self, unit_params):
        # independent derivation: forward-difference the analytic fields in
        # time and difference the fluxes in space on a very fine grid
        p = unit_params
        t = 0.4
        h = 1e-6

        def fields(tt, x):
            phi = 0.1 * np.exp(-tt)
            c, s_ = np.cos(2 * np.pi * x), np.sin(2 * np.pi * x)
            return 1 + phi * c, phi * s_, 1 + phi * c

        x = np.array([0.23, 0.57, 0.81])
        v, u, th = fields(t, x)
        # centred differences for the space derivatives of the flux terms
        vp, up, thp = fields(t, x + h)
        vm, um, thm = fields(t, x - h)
        sigma_p = (p.mu_tilde * 2 * np.pi * 0.1 * np.exp(-t) * np.cos(2 * np.pi * (x + h))
                   - p.R * thp) / vp
        sigma_m = (p.mu_tilde * 2 * np.pi * 0.1 * np.exp(-t) * np.cos(2 * np.pi * (x - h))
                   - p.R * thm) / vm
        sigma_x = (sigma_p - sigma_m) / (2 * h)
        u_t = (fields(t + h, x)[1] - fields(t - h, x)[1]) / (2 * h)
        s_u_fd = u_t - sigma_x

        g = lg.build_grid(4096)
        _, src = solver.manufactured_solution(t, g, p)
        s_u_grid = np.interp(x, g.nodes, src.s_u)
        assert np.allclose(s_u_fd, s_u_grid, atol=5e-6)


class TestStepImex:
    def test_equilibrium_fixed_point(self, grid64, equilibrium64, unit_params):
        # the theta solve carries roundoff scaled by dt/dx^2, nothing more
        c = lg.StepControls(dt=0.5)
        s1 = lg.step(equilibrium64, unit_params, grid64, c)
        assert np.max(np.abs(s1.v - 1.0)) == 0.0
        assert np.max(np.abs(s1.u)) <= 1e-14
        assert np.max(np.abs(s1.theta - 1.0)) <= 1e-13
        assert s1.t == 0.5

    def test_against_fine_explicit_oracle(self, unit_params):
        g = lg.build_grid(128)
        s = lg.make_initial_data(lg.InitialSpec(kind="cosine", a_u=0.01), g)
        one = lg.step(s, unit_params, g, lg.StepControls(dt=1e-4))
        fine = lg.advance(s, unit_params, g,
                          lg.StepControls(dt=1e-6, scheme=lg.EXPLICIT_RK2),
                          1e-4, 1e-4)
        ref = fine.final_state
        diff = max(np.max(np.abs(one.v - ref.v)), np.max(np.abs(one.u - ref.u)),
                   np.max(np.abs(one.theta - ref.theta)))
        assert diff <= 1e-6

    def test_temperature_guard_fires(self, grid64, unit_params):
        n = grid64.n_cells
        s = make_state(np.ones(n), np.zeros(n + 1), np.full(n, 1e-8))
        cooling = lg.Sources(np.zeros(n), np.zeros(n + 1), np.full(n, -1.0))
        with pytest.raises(StepRejected):
            lg.step(s, unit_params, grid64, lg.StepControls(dt=1e-2), cooling)

    def test_volume_guard_fires(self, grid64, unit_params):
        u = -0.5 * np.sin(2 * np.pi * grid64.nodes)
        u[0] = u[-1] = 0.0
        s = make_state(np.full(64, 0.05), u, np.ones(64))
        with pytest.raises(StepRejected):
            lg.step(s, unit_params, grid64, lg.StepControls(dt=0.5))

    @pytest.mark.parametrize("kernel", [solver._imex_kernel, solver._rk2_kernel])
    def test_nan_temperature_rejected(self, kernel, grid64, unit_params):
        n = grid64.n_cells
        theta = np.ones(n)
        theta[n // 2] = np.nan
        with pytest.raises(StepRejected):
            kernel(np.ones(n), np.zeros(n + 1), theta, 0.0, 1e-5, unit_params,
                   grid64, None)

    def test_single_cell_grid_rejected(self, unit_params):
        g = lg.build_grid(1)
        s = make_state([1.0], [0.0, 0.0], [1.0])
        with pytest.raises(ValueError):
            lg.step(s, unit_params, g, lg.StepControls(dt=1e-3))

    @given(seed=st.integers(0, 300), dt=st.floats(1e-6, 1e-2))
    def test_mass_conserved_and_boundaries(self, seed, dt):
        g = lg.build_grid(32)
        p = lg.PhysParams(beta=1.0)
        s = lg.make_initial_data(
            lg.InitialSpec(kind="random_smooth", a_v=0.3, a_u=0.4, a_theta=0.2,
                           seed=seed), g)
        s1 = lg.step(s, p, g, lg.StepControls(dt=dt))
        assert abs(np.sum(s1.v) * g.dx - np.sum(s.v) * g.dx) <= 1e-13
        assert s1.u[0] == 0.0 and s1.u[-1] == 0.0
        assert s1.v.min() > 0.0 and s1.theta.min() > 0.0


def imex_systems(s, s1, dt, p, g, sources=None):
    """The velocity and temperature systems that the IMEX step from ``s`` to
    ``s1`` must satisfy, assembled row by row as dense matrices from the old
    state and the new volume; returns [(A, x, b)] for both solves."""
    n = g.n_cells
    dx = g.dx
    v1 = s1.v
    zero_c, zero_n = np.zeros(n), np.zeros(n + 1)
    s_u = zero_n if sources is None else sources.s_u
    s_theta = zero_c if sources is None else sources.s_theta

    # interior node i (1..n-1) sits between cells i-1 and i
    coef = dt * p.mu_tilde / dx ** 2
    a_u = np.zeros((n - 1, n - 1))
    b_u = np.zeros(n - 1)
    for row in range(n - 1):
        i = row + 1
        a_u[row, row] = 1.0 + coef * (1.0 / v1[i - 1] + 1.0 / v1[i])
        if row > 0:
            a_u[row, row - 1] = -coef / v1[i - 1]
        if row < n - 2:
            a_u[row, row + 1] = -coef / v1[i]
        pressure_jump = p.R * s.theta[i] / v1[i] - p.R * s.theta[i - 1] / v1[i - 1]
        b_u[row] = s.u[i] - dt / dx * pressure_jump + dt * s_u[i]

    # face conductivities: old temperature, new volume; the walls conduct nothing
    k = np.zeros(n + 1)
    for i in range(1, n):
        thf = 0.5 * (s.theta[i - 1] + s.theta[i])
        k[i] = p.kappa_tilde * thf ** p.beta / (0.5 * (v1[i - 1] + v1[i]))
    lam = dt / (p.c_v * dx ** 2)
    a_th = np.zeros((n, n))
    b_th = np.zeros(n)
    for j in range(n):
        a_th[j, j] = 1.0 + lam * (k[j] + k[j + 1])
        if j > 0:
            a_th[j, j - 1] = -lam * k[j]
        if j < n - 1:
            a_th[j, j + 1] = -lam * k[j + 1]
        ux1 = (s1.u[j + 1] - s1.u[j]) / dx
        heating = (p.mu_tilde * ux1 - p.R * s.theta[j]) * ux1 / v1[j]
        b_th[j] = s.theta[j] + dt / p.c_v * heating + dt * s_theta[j]
    return [(a_u, s1.u[1:-1], b_u), (a_th, s1.theta, b_th)]


class TestImexStepOracle:
    """``step`` satisfies its own linear systems, assembled independently of
    the kernel's vectorized arrays, at the smallest grids as well."""

    @pytest.mark.parametrize("n", [2, 3, 64])
    @pytest.mark.parametrize("beta", [0.0, 1.0, 1.5])
    @pytest.mark.parametrize("forced", [False, True])
    def test_step_solves_its_systems(self, n, beta, forced):
        p = lg.PhysParams(beta=beta, mu_tilde=0.7, kappa_tilde=1.3, R=1.1, c_v=0.9)
        g = lg.build_grid(n)
        s = lg.make_initial_data(
            lg.InitialSpec(kind="random_smooth", a_v=0.2, a_u=0.3, a_theta=0.1,
                           seed=n), g, p.c_v)
        s = replace(s, t=0.25)
        dt = 1e-3
        src = solver.manufactured_sources_at(g, p) if forced else None
        s1 = lg.step(s, p, g, lg.StepControls(dt=dt), src)

        sources = src(s.t + dt) if forced else None
        s_v = 0.0 if sources is None else sources.s_v
        assert np.allclose(s1.v, s.v + dt * (np.diff(s.u) / g.dx + s_v),
                           rtol=1e-14, atol=0.0)
        assert s1.u[0] == 0.0 and s1.u[-1] == 0.0
        assert np.any(s1.u != s.u)
        for a, x, b in imex_systems(s, s1, dt, p, g, sources):
            residual = np.max(np.abs(a @ x - b))
            scale = np.max(np.abs(a)) * np.max(np.abs(x)) + np.max(np.abs(b))
            assert residual <= 1e-12 * scale


class TestStepExplicit:
    def test_equilibrium_exactly_invariant(self, grid64, equilibrium64, unit_params):
        c = lg.StepControls(dt=1e-5, scheme=lg.EXPLICIT_RK2)
        s1 = lg.step(equilibrium64, unit_params, grid64, c)
        assert np.array_equal(s1.v, equilibrium64.v)
        assert np.array_equal(s1.u, equilibrium64.u)
        assert np.array_equal(s1.theta, equilibrium64.theta)

    def test_rejects_above_stability(self, grid64, cosine64, unit_params):
        dt_stab = lg.stability_limit(cosine64.v, cosine64.theta, unit_params, grid64)
        c = lg.StepControls(dt=10 * dt_stab, scheme=lg.EXPLICIT_RK2)
        with pytest.raises(StepRejected):
            lg.step(cosine64, unit_params, grid64, c)

    def test_richardson_third_order_local_error(self, grid64, cosine64, unit_params):
        diffs = {}
        for dt in (4e-5, 2e-5):
            one = lg.step(cosine64, unit_params, grid64,
                          lg.StepControls(dt=dt, scheme=lg.EXPLICIT_RK2))
            half_c = lg.StepControls(dt=dt / 2, scheme=lg.EXPLICIT_RK2)
            half = lg.step(
                lg.step(cosine64, unit_params, grid64, half_c),
                unit_params, grid64, half_c)
            diffs[dt] = max(np.max(np.abs(one.v - half.v)),
                            np.max(np.abs(one.u - half.u)),
                            np.max(np.abs(one.theta - half.theta)))
        assert 6.0 <= diffs[4e-5] / diffs[2e-5] <= 10.0

    @given(seed=st.integers(0, 300))
    def test_mass_conserved(self, seed):
        g = lg.build_grid(32)
        p = lg.PhysParams(beta=1.0)
        s = lg.make_initial_data(
            lg.InitialSpec(kind="random_smooth", a_v=0.3, a_u=0.3, a_theta=0.2,
                           seed=seed), g)
        dt = 0.5 * lg.stability_limit(s.v, s.theta, p, g)
        s1 = lg.step(s, p, g, lg.StepControls(dt=dt, scheme=lg.EXPLICIT_RK2))
        assert abs(np.sum(s1.v) * g.dx - np.sum(s.v) * g.dx) <= 1e-13


class TestSchemeConsistency:
    def test_first_order_agreement(self, grid64, cosine64, unit_params):
        diffs = []
        steps = (8e-5, 4e-5, 2e-5)
        for dt in steps:
            a = lg.advance(cosine64, unit_params, grid64,
                           lg.StepControls(dt=dt), 0.1, 0.1).final_state
            b = lg.advance(cosine64, unit_params, grid64,
                           lg.StepControls(dt=dt, scheme=lg.EXPLICIT_RK2),
                           0.1, 0.1).final_state
            diffs.append(max(np.max(np.abs(a.v - b.v)), np.max(np.abs(a.u - b.u)),
                             np.max(np.abs(a.theta - b.theta))))
        order = lg.convergence_order(list(zip(steps, diffs)))
        assert order >= 0.9


class TestAdvance:
    def test_equilibrium_trajectory(self, grid64, equilibrium64, unit_params):
        traj = lg.advance(equilibrium64, unit_params, grid64,
                          lg.StepControls(dt=1e-3), 1.0, 0.25)
        assert [r.t for r in traj.records] == [0.0, 0.25, 0.5, 0.75, 1.0]
        assert all(r.h1_dev <= 1e-13 for r in traj.records)
        assert all(r.dissipation_V <= 1e-24 for r in traj.records)
        assert traj.n_rejected == 0

    def test_invalid_horizon(self, grid64, equilibrium64, unit_params):
        with pytest.raises(ValueError):
            lg.advance(equilibrium64, unit_params, grid64,
                       lg.StepControls(dt=1e-3), -1.0, 0.1)

    def test_invalid_cadence(self, grid64, equilibrium64, unit_params):
        with pytest.raises(ValueError):
            lg.advance(equilibrium64, unit_params, grid64,
                       lg.StepControls(dt=1e-3), 1.0, 0.0)

    def test_final_step_shortened(self, grid64, equilibrium64, unit_params):
        traj = lg.advance(equilibrium64, unit_params, grid64,
                          lg.StepControls(dt=3e-3), 0.01, 0.01)
        assert traj.records[-1].t == 0.01

    def test_mass_conserved_over_run(self, grid64, cosine64, unit_params):
        traj = lg.advance(cosine64, unit_params, grid64,
                          lg.StepControls(dt=5e-4), 2.0, 0.5)
        masses = [r.mass for r in traj.records]
        assert max(abs(m - masses[0]) for m in masses) <= 1e-12

    def test_deviation_decreases_and_rate_positive(self, grid64, cosine64, unit_params):
        traj = lg.advance(cosine64, unit_params, grid64,
                          lg.StepControls(dt=5e-4), 4.0, 0.1)
        h1 = [r.h1_dev for r in traj.records]
        assert h1[-1] < h1[5] < h1[1]
        fit = lg.fit_decay_rate(traj.times, h1, (2.0, 4.0))
        assert fit.rate > 0.0

    def test_retry_exhaustion_carries_state(self, grid64, unit_params):
        n = grid64.n_cells
        s0 = lg.make_initial_data(lg.InitialSpec(kind="equilibrium"), grid64)
        sink = lg.Sources(np.zeros(n), np.zeros(n + 1), np.full(n, -100.0))
        controls = lg.StepControls(dt=0.5, max_retries=3)
        with pytest.raises(SimulationFailure) as exc:
            lg.advance(s0, unit_params, grid64, controls, 5.0, 1.0, sink)
        assert exc.value.last_state is not None
        assert exc.value.trajectory is not None
        assert exc.value.last_state.theta.min() > 0.0

    def test_retry_exhaustion_after_accepted_steps(self, grid64, cosine64, unit_params):
        # no forcing for the first five step attempts, then a sink that no
        # step can survive: the failure carries the fifth step's state
        n = grid64.n_cells
        zero = lg.Sources(np.zeros(n), np.zeros(n + 1), np.zeros(n))
        sink = lg.Sources(np.zeros(n), np.zeros(n + 1), np.full(n, -1e9))
        attempts = []

        def src(t):
            attempts.append(t)
            return zero if len(attempts) <= 5 else sink

        with pytest.raises(SimulationFailure) as exc:
            lg.advance(cosine64, unit_params, grid64,
                       lg.StepControls(dt=DT_EXACT, max_retries=3), 1.0, 0.5, src)
        want = lg.advance(cosine64, unit_params, grid64, lg.StepControls(dt=DT_EXACT),
                          5 * DT_EXACT, 5 * DT_EXACT, zero).final_state
        last = exc.value.last_state
        assert last.t == exc.value.t == 5 * DT_EXACT
        for name in ("v", "u", "theta"):
            assert np.array_equal(getattr(last, name), getattr(want, name))
            assert not getattr(last, name).flags.writeable
        traj = exc.value.trajectory
        assert (traj.n_steps, traj.n_rejected) == (5, 4)

    def test_breakdown_becomes_failure(self, monkeypatch, grid64, cosine64, unit_params):
        # two solves per step: the 21st step breaks down
        want = lg.advance(cosine64, unit_params, grid64, lg.StepControls(dt=DT_EXACT),
                          20 * DT_EXACT, 20 * DT_EXACT).final_state
        monkeypatch.setattr(solver, "_solve_spd_tridiag", tridiag_breaking_after(40))
        with pytest.raises(SimulationFailure) as exc:
            lg.advance(cosine64, unit_params, grid64, lg.StepControls(dt=DT_EXACT),
                       1.0, 0.5)
        assert isinstance(exc.value.__cause__, NumericalBreakdown)
        last = exc.value.last_state
        assert last.t == exc.value.t == 20 * DT_EXACT
        for name in ("v", "u", "theta"):
            assert np.array_equal(getattr(last, name), getattr(want, name))
            assert not getattr(last, name).flags.writeable
        traj = exc.value.trajectory
        assert traj.n_steps == 20
        assert [r.t for r in traj.records] == [0.0]

    def test_rejection_recovery_counts(self, grid64, unit_params):
        # explicit scheme with dt above the stability limit must halve its
        # way down and then integrate
        s0 = lg.make_initial_data(lg.InitialSpec(kind="cosine", a_v=0.05), grid64)
        dt_stab = lg.stability_limit(s0.v, s0.theta, unit_params, grid64)
        controls = lg.StepControls(dt=3.9 * dt_stab, scheme=lg.EXPLICIT_RK2,
                                   max_retries=12)
        traj = lg.advance(s0, unit_params, grid64, controls, 0.01, 0.01)
        assert traj.n_rejected > 0
        assert traj.records[-1].t == 0.01

    def test_energy_drift_first_order_in_dt(self, unit_params):
        g = lg.build_grid(64)
        s0 = lg.make_initial_data(
            lg.InitialSpec(kind="cosine", a_v=0.1, a_u=0.1, a_theta=0.1), g)
        drifts = {}
        for dt in (2e-4, 1e-4):
            traj = lg.advance(s0, unit_params, g, lg.StepControls(dt=dt), 2.0, 0.5)
            drifts[dt] = max(abs(r.total_energy - 1.0) for r in traj.records)
        assert 1.5 <= drifts[2e-4] / drifts[1e-4] <= 2.6


def finite_records(traj):
    values = [getattr(r, name) for r in traj.records for name in functionals.RECORD_FIELDS]
    values += [m for r in traj.records for m in r.lp_moments.values()]
    return bool(np.all(np.isfinite(values)))


class TestAdvanceProperty:
    """Over the admissible inputs, with dt far above the explicit bound,
    ``advance`` either finishes with finite records and exact mass or fails
    with finite partial records."""

    @given(scheme=st.sampled_from(solver.SCHEMES), beta=st.floats(0.0, 4.0),
           c_v=st.floats(0.2, 5.0), n=st.integers(2, 64),
           a_v=st.floats(-0.99, 0.99), a_u=st.floats(0.0, 2.0),
           theta_share=st.floats(0.0, 0.99), seed=st.integers(0, 2 ** 16),
           dt=st.floats(1e-4, 0.1), t_end=st.floats(1e-3, 0.05))
    @settings(deadline=None)
    def test_finishes_finite_or_fails_typed(self, scheme, beta, c_v, n, a_v, a_u,
                                            theta_share, seed, dt, t_end):
        p = lg.PhysParams(beta=beta, c_v=c_v)
        g = lg.build_grid(n)
        spec = lg.InitialSpec(kind="random_smooth", a_v=a_v, a_u=a_u, a_theta=0.0,
                              seed=seed)
        try:
            # the temperature amplitude is a share of the mean temperature
            # the velocity leaves, its largest admissible value
            theta_c = lg.make_initial_data(spec, g, c_v).theta[0]
            spec = replace(spec, a_theta=theta_share * theta_c)
            s0 = lg.make_initial_data(spec, g, c_v)
        except ConstructionError:
            reject()
        try:
            traj = lg.advance(s0, p, g, lg.StepControls(dt=dt, scheme=scheme),
                              t_end, t_end / 2)
        except SimulationFailure as exc:
            assert finite_records(exc.trajectory)
            return
        assert finite_records(traj)
        masses = traj.column("mass")
        assert np.max(np.abs(masses - masses[0])) <= 1e-12


class TestAdvanceMatchesAdapters:
    """``advance`` folds each accepted step into its running totals from the
    kernel's own arrays. Stepping by hand with ``step``, the State-level
    dissipation and the per-step accumulator updates must give the same
    totals, bit for bit."""

    STEPS = 50

    def by_hand(self, s0, p, g, src):
        dt = DT_EXACT
        acc = representation.init_accumulators(s0, g)
        diss_prev = functionals.dissipation(s0, g, p)
        int_v = 0.0
        s = s0
        for _ in range(self.STEPS):
            s = lg.step(s, p, g, lg.StepControls(dt=dt), src)
            diss = functionals.dissipation(s, g, p)
            int_v += 0.5 * dt * (diss_prev + diss)
            diss_prev = diss
            representation.update_damping(acc, s.u, s.theta, g, dt)
            base = representation._base_factor_cached(acc, s.v, s.u, g)
            representation.update_history(acc, s.theta, base, dt)
        return s, int_v, acc

    @pytest.mark.parametrize("beta, forced", [(1.0, False), (1.5, False), (1.0, True)])
    def test_final_totals_identical(self, beta, forced):
        p = lg.PhysParams(beta=beta)
        g = lg.build_grid(48)
        if forced:
            s0, _ = solver.manufactured_solution(0.0, g, p)
            src = solver.manufactured_sources_at(g, p)
        else:
            s0 = lg.make_initial_data(
                lg.InitialSpec(kind="random_smooth", a_v=0.2, a_u=0.3,
                               a_theta=0.2, seed=9), g)
            src = None
        t_end = self.STEPS * DT_EXACT
        traj = lg.advance(s0, p, g, lg.StepControls(dt=DT_EXACT), t_end, t_end, src)
        s, int_v, ref = self.by_hand(s0, p, g, src)

        acc = traj.accumulators
        last = traj.records[-1]
        assert traj.n_steps == self.STEPS
        assert last.t == s.t == t_end
        assert last.int_V_dt == int_v
        assert last.log_damping == acc.log_damping == ref.log_damping
        assert acc.last_damping_integrand == ref.last_damping_integrand
        assert acc.damping_ratio == ref.damping_ratio
        assert np.array_equal(acc.scaled_history, ref.scaled_history)
        assert np.array_equal(acc.last_integrand, ref.last_integrand)
        for name in ("v", "u", "theta"):
            assert np.array_equal(getattr(traj.final_state, name), getattr(s, name))


class TestRejectionReplay:
    """A rejected attempt writes only into the workspace's spare output set:
    replaying the accepted steps by hand gives the same run, bit for bit."""

    def test_rejected_attempt_changes_nothing(self, monkeypatch):
        p = lg.PhysParams(beta=1.5)
        g = lg.build_grid(48)
        s0 = lg.make_initial_data(
            lg.InitialSpec(kind="random_smooth", a_v=0.2, a_u=0.3, a_theta=0.2,
                           seed=4), g)
        take = solver._take_step
        attempts, accepted = [], []

        def rejecting_after_kernel(*args):
            # the kernel runs in full, then the seventh attempt is refused
            result = take(*args)
            attempts.append(None)
            if len(attempts) == 7:
                raise StepRejected("refused after the kernel ran")
            accepted.append(args[7])
            return result

        monkeypatch.setattr(solver, "_take_step", rejecting_after_kernel)
        t_end = 30 * DT_EXACT
        traj = lg.advance(s0, p, g, lg.StepControls(dt=DT_EXACT), t_end, t_end / 2)
        assert traj.n_rejected == 1
        assert traj.n_steps == len(accepted) > 30

        monkeypatch.setattr(solver, "_take_step", take)
        acc = representation.init_accumulators(s0, g)
        diss_prev = functionals.dissipation(s0, g, p)
        int_v = 0.0
        s = s0
        for dt in accepted:
            s = lg.step(s, p, g, lg.StepControls(dt=dt))
            diss = functionals.dissipation(s, g, p)
            int_v += 0.5 * dt * (diss_prev + diss)
            diss_prev = diss
            representation.update_damping(acc, s.u, s.theta, g, dt)
            base = representation._base_factor_cached(acc, s.v, s.u, g)
            representation.update_history(acc, s.theta, base, dt)

        for name in ("v", "u", "theta"):
            assert np.array_equal(getattr(traj.final_state, name), getattr(s, name))
        assert traj.records[-1].int_V_dt == int_v
        assert traj.records[-1].log_damping == acc.log_damping
        assert traj.accumulators.log_damping == acc.log_damping
        assert np.array_equal(traj.accumulators.scaled_history, acc.scaled_history)
        assert np.array_equal(traj.accumulators.last_integrand, acc.last_integrand)


class TestWorkspace:
    def test_warm_step_allocates_no_array(self):
        # an accepted IMEX step with its accumulator updates, as advance
        # takes it, allocates less than one 4096-float array
        n, dt = 4096, 1e-4
        p = lg.PhysParams(beta=1.5)
        g = lg.build_grid(n)
        s0 = lg.make_initial_data(
            lg.InitialSpec(kind="cosine", a_v=0.1, a_u=0.1, a_theta=0.1), g)
        ws = Workspace(n)
        acc = representation.init_accumulators(s0, g, ws)
        functionals.dissipation(s0, g, p, ws)

        def accepted_step(v, u, theta):
            v, u, theta, ux, vf = solver._take_step(v, u, theta, 0.0, p, g,
                                                    lg.IMEX_BE, dt, None, ws)
            ws.swap()
            functionals.dissipation_from(ux, vf, v, theta, g, p, ws)
            representation.update_damping(acc, u, theta, g, dt, ws)
            base = representation._base_factor_cached(acc, v, u, g, ws)
            representation.update_history(acc, theta, base, dt, ws)
            return v, u, theta

        fields = accepted_step(*accepted_step(s0.v, s0.u, s0.theta))
        tracemalloc.start()
        try:
            accepted_step(*fields)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 8 * n

    def test_trajectory_owns_its_arrays(self, grid64, cosine64, unit_params):
        first = lg.advance(cosine64, unit_params, grid64, lg.StepControls(dt=DT_EXACT),
                           0.05, 0.025)
        final = {name: getattr(first.final_state, name).copy()
                 for name in ("v", "u", "theta")}
        history = first.accumulators.scaled_history.copy()
        integrand = first.accumulators.last_integrand.copy()
        records = list(first.records)
        other = lg.make_initial_data(
            lg.InitialSpec(kind="random_smooth", a_v=0.2, a_u=0.3, a_theta=0.2,
                           seed=1), grid64)
        lg.advance(other, unit_params, grid64, lg.StepControls(dt=DT_EXACT), 0.05, 0.025)
        for name, values in final.items():
            assert np.array_equal(getattr(first.final_state, name), values)
        assert np.array_equal(first.accumulators.scaled_history, history)
        assert np.array_equal(first.accumulators.last_integrand, integrand)
        assert first.records == records


class TestTridiagonalBreakdown:
    def test_indefinite_system_raises(self):
        diag = np.array([1.0, -5.0, 1.0])
        off = np.array([-0.5, -0.5])
        with pytest.raises(NumericalBreakdown):
            solver._solve_spd_tridiag(diag, off, np.ones(3))

    def test_solves_simple_system(self):
        diag = np.array([2.0, 2.0, 2.0])
        off = np.array([-1.0, -1.0])
        rhs = np.array([1.0, 0.0, 1.0])
        x = solver._solve_spd_tridiag(diag, off, rhs)
        assert np.allclose(x, [1.0, 1.0, 1.0])

    def test_one_unknown(self):
        x = solver._solve_spd_tridiag(np.array([4.0]), np.array([]), np.array([2.0]))
        assert x[0] == 0.5

    @pytest.mark.parametrize("n", [1, 2, 5])
    def test_solution_overwrites_rhs(self, n):
        # the kernels solve in place, into the interior of their output arrays
        diag = np.full(n, 4.0)
        off = np.full(n - 1, -1.0)
        want = np.linalg.solve(np.diag(diag) + np.diag(off, 1) + np.diag(off, -1),
                               np.arange(1.0, n + 1.0))
        buffer = np.zeros(n + 2)
        rhs = buffer[1:-1]
        rhs[:] = np.arange(1.0, n + 1.0)
        x = solver._solve_spd_tridiag(diag, off, rhs)
        assert x is rhs
        assert np.allclose(buffer[1:-1], want, rtol=1e-14, atol=0.0)
        assert buffer[0] == buffer[-1] == 0.0

    @pytest.mark.parametrize("pivot", [0.0, -1.0, np.nan])
    def test_one_unknown_bad_pivot_raises(self, pivot):
        with pytest.raises(NumericalBreakdown):
            solver._solve_spd_tridiag(np.array([pivot]), np.array([]), np.array([1.0]))
