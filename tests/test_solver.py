import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, reject, settings, strategies as st

import lagrangas as lg
from lagrangas import functionals, representation, solver
from lagrangas.core import Workspace
from lagrangas.errors import (ConstructionError, NumericalBreakdown, ParamError,
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

    def test_stress_cancellation(self, unit_params):
        # u_x = R*theta/mu cellwise makes the stress (mu*u_x - R*theta)/v
        # vanish identically, whatever v, and with it the momentum rate at
        # every node
        p = lg.PhysParams(beta=1.0, mu_tilde=1.3, R=0.8)
        g = lg.build_grid(4)
        th = np.array([1.0, 2.0, 3.0, 1.5])
        u = np.cumsum(np.concatenate(([0.0], th * p.R / p.mu_tilde * g.dx)))
        s = make_state(np.array([0.7, 1.1, 0.9, 1.3]), u, th)
        _, du, _ = lg.spatial_rhs(s.v, s.u, s.theta, p, g)
        assert np.allclose(du, 0.0, atol=1e-13)

    def test_momentum_rate_from_stress_formula(self, grid64):
        # du is the node difference quotient of the cell stress
        # (mu*u_x - R*theta)/v, evaluated here cell by cell
        p = lg.PhysParams(beta=0.7, mu_tilde=1.3, kappa_tilde=0.8, R=1.1, c_v=0.9)
        s = lg.make_initial_data(
            lg.InitialSpec(kind="random_smooth", a_v=0.3, a_u=0.4, a_theta=0.2,
                           seed=11), grid64)
        sigma = np.array([
            (p.mu_tilde * (s.u[j + 1] - s.u[j]) / grid64.dx - p.R * s.theta[j]) / s.v[j]
            for j in range(64)])
        _, du, _ = lg.spatial_rhs(s.v, s.u, s.theta, p, grid64)
        assert du[0] == du[-1] == 0.0
        assert np.allclose(du[1:-1], np.diff(sigma) / grid64.dx, rtol=1e-12, atol=1e-11)

    def test_sources_require_zero_boundary(self, grid64):
        n = grid64.n_cells
        bad = np.zeros(n + 1)
        bad[0] = 0.1
        with pytest.raises(ValueError):
            lg.Sources(np.zeros(n), bad, np.zeros(n))


MMS_OMEGA = 2.0 * np.pi

# non-unit (mu, kappa, R, c_v), so that no constant of the sources is 1
OTHER_GAS = dict(mu_tilde=1.3, kappa_tilde=0.8, R=1.1, c_v=0.9)


def term_by_term_sources(g, p, times):
    """(s_v, s_u, s_theta) at each of ``times``: the residuals of the three
    equations written out term by term, as the equations state them and
    without using v = theta, from phi per time. The oracle for the closed
    form of ``ManufacturedSources.rows``."""
    omega = MMS_OMEGA
    cos_c, sin_c = np.cos(omega * g.cell_centers), np.sin(omega * g.cell_centers)
    cos_n, sin_n = np.cos(omega * g.nodes), np.sin(omega * g.nodes)
    kappa, mu, R, beta = p.kappa_tilde, p.mu_tilde, p.R, p.beta
    phi = np.array([0.1 * np.exp(-t) for t in times])[:, None]

    # cells: volume equation v_t - u_x, and temperature equation
    # theta_t - (heat flux divergence + work terms)/c_v
    th = 1.0 + phi * cos_c
    u_x = omega * phi * cos_c
    th_x = -omega * phi * sin_c
    th_xx = -(omega ** 2) * phi * cos_c
    th_beta = th ** beta
    q_x = (kappa * (beta * th ** (beta - 1.0) * th_x ** 2 + th_beta * th_xx) / th
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
    s_u[:, 0] = s_u[:, -1] = 0.0
    return s_v, s_u, s_theta


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

    @pytest.mark.parametrize("n", [2, 3, 64])
    @pytest.mark.parametrize("beta", [0.5, 1.0, 1.5, 2.0, 2.5, 6.0])
    def test_block_rows_equal_single_times(self, beta, n):
        # every row of a block of times is the one-row evaluation at its
        # time, bit for bit, for the exponents numpy's power takes fast
        # paths for and for a block of one row; every planned increment is
        # that row times the plan's dt, whether the plan is fresh or one
        # that an earlier run left on the object
        p = lg.PhysParams(beta=beta, mu_tilde=1.3, kappa_tilde=0.8, R=1.1, c_v=0.9)
        g = lg.build_grid(n)
        src = solver.ManufacturedSources(g, p)
        one_row = solver.ManufacturedSources(g, p)

        def assert_rows_equal_single_times(times):
            s_v, s_u, s_theta = src.rows(times)
            assert s_v.shape == s_theta.shape == (len(times), n)
            assert s_u.shape == (len(times), n + 1)
            for i, t in enumerate(times):
                one = one_row(t)
                assert np.array_equal(s_v[i], one.s_v)
                assert np.array_equal(s_u[i], one.s_u)
                assert np.array_equal(s_theta[i], one.s_theta)

        def assert_increments_equal_scaled_rows():
            dt = src.dt
            for t, inc in src.increments.items():
                one = one_row(t)
                for got, want in zip(inc, (one.s_v, one.s_u[1:-1], one.s_theta)):
                    assert got.tobytes() == (want * dt).tobytes()

        times = np.cumsum(np.random.default_rng(3).uniform(1e-5, 3e-2, 64)).tolist()
        for block in (times[:1], times[:7], times):
            assert_rows_equal_single_times(block)
        for t, dt, count in [(0.25, 0.25, 1), (times[6], 3e-3, 7), (times[0], 1e-5, 64)]:
            src.increments_at(t, dt, count)
            assert src.dt == dt and len(src.increments) == count
            assert_increments_equal_scaled_rows()

        s0, _ = solver.manufactured_solution(0.0, g, p)
        controls = lg.StepControls(dt=DT_EXACT / 16)
        lg.advance(s0, p, g, controls, 10 * controls.dt, 10 * controls.dt, src)
        assert src.dt == controls.dt and len(src.increments) == Workspace(n).block
        assert_increments_equal_scaled_rows()

    def test_runs_build_no_sources(self, monkeypatch):
        # an IMEX run reads its planned increments and builds no Sources;
        # a call of the object builds one, converted and checked as a
        # caller's Sources is
        g = lg.build_grid(16)
        p = lg.PhysParams(beta=1.5)
        src = solver.ManufacturedSources(g, p)
        checks = []
        post_init = solver.Sources.__post_init__

        def counted(self):
            checks.append(None)
            post_init(self)

        monkeypatch.setattr(solver.Sources, "__post_init__", counted)
        s0, _ = solver.manufactured_solution(0.0, g, p)
        checks.clear()
        traj = lg.advance(s0, p, g, lg.StepControls(dt=DT_EXACT), 8 * DT_EXACT,
                          4 * DT_EXACT, src)
        assert traj.n_steps == 8 and checks == []
        assert isinstance(src(traj.final_state.t), solver.Sources)
        assert len(checks) == 1

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


    def test_phi_over_an_array_equals_phi_per_time(self):
        # rows takes phi for a whole block from one call over its times
        times = np.random.default_rng(23).uniform(0.0, 50.0, 20000)
        per_time = [solver._mms_phi(t) for t in times.tolist()]
        assert np.array_equal(solver._mms_phi(times), per_time)

    @pytest.mark.parametrize("gas", [{}, OTHER_GAS], ids=["unit", "other"])
    @pytest.mark.parametrize("beta", [0.0, 0.5, 1.0, 1.5, 2.0, 2.5, 3.0, 6.0])
    def test_closed_form_matches_term_by_term(self, beta, gas):
        # theta**(beta-2) is numpy's power at beta 2 (exponent 0), at 1 (-1)
        # and elsewhere, and theta itself at beta 3, where writing into the
        # power would overwrite theta. The error is scaled by phi*w**2, the
        # size of the sources' largest terms, not by the row: at N = 2 the
        # cell cosines are about 6e-17, and two correct formulas differ by a
        # few percent of the s_theta values there.
        p = lg.PhysParams(beta=beta, **gas)
        times = np.linspace(0.0, 6.0, 41).tolist()
        scale = 0.1 * np.exp(-np.array(times))[:, None] * MMS_OMEGA ** 2
        for n in (2, 3, 64, 256):
            g = lg.build_grid(n)
            got = solver.ManufacturedSources(g, p).rows(times)
            want = term_by_term_sources(g, p, times)
            for name, a, b in zip(("s_v", "s_u", "s_theta"), got, want):
                assert a.shape == b.shape
                worst = np.max(np.abs(a - b) / scale)
                assert worst <= 1e-14, (n, name, worst)

    @pytest.mark.parametrize("beta", [0.0, 0.5, 2.5, 6.0])
    def test_all_sources_from_finite_differences(self, beta):
        # independent derivation of all three residuals at non-unit
        # constants: central differences of the analytic fields in time and,
        # in space, of the fluxes the equations take the divergence of, the
        # stress (mu*u_x - R*theta)/v and the heat flux
        # kappa*theta**beta*theta_x/v, each built from differenced fields;
        # the work sigma*u_x is evaluated on its own
        p = lg.PhysParams(beta=beta, **OTHER_GAS)
        t, h, h_t = 0.4, 1e-4, 1e-5

        def fields(tt, x):
            phi = 0.1 * np.exp(-tt)
            c, s_ = np.cos(MMS_OMEGA * x), np.sin(MMS_OMEGA * x)
            return 1 + phi * c, phi * s_, 1 + phi * c

        def d_dt(i, x):
            return (fields(t + h_t, x)[i] - fields(t - h_t, x)[i]) / (2 * h_t)

        def d_dx(f, x):
            return (f(x + h) - f(x - h)) / (2 * h)

        def u_x(x):
            return d_dx(lambda y: fields(t, y)[1], x)

        def sigma(x):
            v, _, th = fields(t, x)
            return (p.mu_tilde * u_x(x) - p.R * th) / v

        def heat_flux(x):
            v, _, th = fields(t, x)
            return p.kappa_tilde * th ** p.beta * d_dx(lambda y: fields(t, y)[2], x) / v

        g = lg.build_grid(12)
        xc, xn = g.cell_centers, g.nodes
        want = (d_dt(0, xc) - u_x(xc),
                d_dt(1, xn) - d_dx(sigma, xn),
                d_dt(2, xc) - (d_dx(heat_flux, xc) + sigma(xc) * u_x(xc)) / p.c_v)
        got = solver.ManufacturedSources(g, p).rows((t,))
        scale = 0.1 * np.exp(-t) * MMS_OMEGA ** 2
        for name, a, b in zip(("s_v", "s_u", "s_theta"), got, want):
            worst = np.max(np.abs(a[0] - b)) / scale
            assert worst <= 1e-6, (name, worst)


class TestSources:
    def test_is_a_value(self):
        # read-only copies: writing into the caller's arrays afterwards
        # leaves the Sources as it was built
        arrays = [np.full(4, 0.5), np.zeros(5), np.full(4, -0.25)]
        src = lg.Sources(*arrays)
        for a in arrays:
            a[...] = 7.0
        assert src.s_v.tolist() == [0.5] * 4
        assert src.s_u.tolist() == [0.0] * 5
        assert src.s_theta.tolist() == [-0.25] * 4
        for name in ("s_v", "s_u", "s_theta"):
            field = getattr(src, name)
            assert field.dtype == float and not field.flags.writeable
            with pytest.raises(ValueError):
                field[1] = 1.0

    def test_converts_sequences_and_checks_the_walls(self):
        assert lg.Sources([1, 2], [0, 3, 0], [4, 5]).s_u.tolist() == [0.0, 3.0, 0.0]
        with pytest.raises(ValueError, match="s_u"):
            lg.Sources(np.zeros(2), np.array([0.0, 1.0, 1e-300]), np.zeros(2))

    def test_manufactured_rows_are_read_only(self):
        # at a time a run planned and at one it did not: a write into a
        # returned row raises, and a later call returns the same values
        g = lg.build_grid(8)
        p = lg.PhysParams(beta=1.5)
        src = solver.ManufacturedSources(g, p)
        s0 = solver.manufactured_state(0.0, g)
        lg.advance(s0, p, g, lg.StepControls(dt=DT_EXACT), 4 * DT_EXACT, None, src)
        for t in (2 * DT_EXACT, 0.3):
            row = src(t)
            for name in ("s_v", "s_u", "s_theta"):
                field = getattr(row, name)
                assert not field.flags.writeable
                with pytest.raises(ValueError):
                    field[1] = 99.0
                assert getattr(src(t), name).tobytes() == field.tobytes()


class TestStepControls:
    @pytest.mark.parametrize("kwargs, field", [
        (dict(dt=-1.0), "dt"), (dict(dt=1e-3, scheme="leapfrog"), "scheme")])
    def test_errors_name_the_field(self, kwargs, field):
        with pytest.raises(ParamError) as exc:
            lg.StepControls(**kwargs)
        assert exc.value.field == field


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

    # the NaN reaches the IMEX temperature matrix as a NaN pivot, which no
    # smaller dt cures; the explicit scheme fails its positivity check
    @pytest.mark.parametrize("scheme, error", [(lg.IMEX_BE, NumericalBreakdown),
                                               (lg.EXPLICIT_RK2, StepRejected)],
                             ids=["_imex_kernel", "_rk2_kernel"])
    def test_nan_temperature_rejected(self, scheme, error, grid64, unit_params):
        n = grid64.n_cells
        theta = np.ones(n)
        theta[n // 2] = np.nan
        s = make_state(np.ones(n), np.zeros(n + 1), theta)
        with pytest.raises(error):
            lg.step(s, unit_params, grid64, lg.StepControls(dt=1e-5, scheme=scheme))

    def test_single_cell_grid_rejected(self, unit_params):
        g = lg.build_grid(1)
        s = make_state([1.0], [0.0, 0.0], [1.0])
        with pytest.raises(ParamError) as exc:
            lg.step(s, unit_params, g, lg.StepControls(dt=1e-3))
        assert exc.value.field == "n_cells"

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


class TestStepMatchesAdvance:
    """``step`` loads its state into the workspace row whose prebuilt views
    the kernel reads; ``advance`` steps through the rows of its blocks. Both
    must give the same states bit for bit."""

    @pytest.mark.parametrize("n", [2, 3, 64])
    @pytest.mark.parametrize("forced", [False, True])
    @pytest.mark.parametrize("steps", [1, 3])
    def test_steps_equal_advance(self, n, forced, steps):
        p = lg.PhysParams(beta=1.5, mu_tilde=0.7, kappa_tilde=1.3, R=1.1, c_v=0.9)
        g = lg.build_grid(n)
        s0 = lg.make_initial_data(
            lg.InitialSpec(kind="random_smooth", a_v=0.2, a_u=0.3, a_theta=0.1,
                           seed=n), g, p.c_v)
        c = lg.StepControls(dt=DT_EXACT)
        src = solver.ManufacturedSources(g, p) if forced else None
        s = s0
        for _ in range(steps):
            s = lg.step(s, p, g, c, src)
        t_end = steps * DT_EXACT
        traj = lg.advance(s0, p, g, c, t_end, t_end, src)
        assert traj.n_steps == steps and s.t == traj.final_state.t == t_end
        for name in ("v", "u", "theta"):
            assert getattr(s, name).tobytes() == getattr(traj.final_state, name).tobytes()


class TestCarriedRow:
    """``Workspace.load`` readies the row a step reads: the fields of a state
    and its ``ux``, ``vf``, ``thf`` and ``knum``. A step therefore computes
    no dissipation, and the row an accepted step leaves holds what a fresh
    ``load`` of its state writes, bit for bit."""

    @pytest.mark.parametrize("scheme", solver.SCHEMES)
    def test_step_computes_no_dissipation(self, monkeypatch, scheme, grid64, cosine64,
                                          unit_params):
        calls = []
        rates = functionals.dissipation_from

        def counted(*args):
            calls.append(args)
            return rates(*args)

        monkeypatch.setattr(functionals, "dissipation_from", counted)
        lg.step(cosine64, unit_params, grid64, lg.StepControls(dt=1e-5, scheme=scheme))
        assert len(calls) == 0

    @pytest.mark.parametrize("scheme", solver.SCHEMES)
    @pytest.mark.parametrize("beta", [0.0, 0.5, 1.0, 1.5, 2.0, 2.5, 6.0])
    @pytest.mark.parametrize("n", [2, 3, 64])
    def test_accepted_row_equals_a_fresh_load(self, scheme, beta, n):
        p = lg.PhysParams(beta=beta, mu_tilde=0.7, kappa_tilde=1.3, R=1.1, c_v=0.9)
        g = lg.build_grid(n)
        s0 = lg.make_initial_data(
            lg.InitialSpec(kind="random_smooth", a_v=0.2, a_u=0.3, a_theta=0.1,
                           seed=n), g, p.c_v)
        dt = min(DT_EXACT, 0.5 * solver._dt_bound(scheme, s0.v, s0.theta, p, g))
        ws = solver._workspace(s0, p, g)
        totals = solver._RunningTotals(s0, g, p, ws)
        t = 0.0
        # one more step than a block holds, so that a fold comes between
        for _ in range(ws.block + 1):
            solver._take_step(t, dt, scheme, None, ws)
            ws.accept(dt)
            if ws.full:
                totals.fold()
            t += dt
            row = ws.cur
            fresh = Workspace(n, 1).load(
                lg.State(t=t, v=row.v, u=row.u, theta=row.theta), g, p)
            for name in ("ux", "vf", "thf", "knum"):
                assert getattr(row, name).tobytes() == getattr(fresh, name).tobytes()


def driver_step_sizes(t0, dt, t_end, sample_every, tiny):
    """The sizes of the steps ``advance`` takes when it rejects none: each
    from ``_step_size`` towards the next sample time or t_end."""
    sizes, t, sample_idx = [], t0, 1
    while t < t_end - tiny:
        target = min(t0 + sample_idx * sample_every, t_end)
        while t < target:
            dt_try, t = solver._step_size(t, dt, target)
            sizes.append(dt_try)
        while t0 + sample_idx * sample_every <= target + tiny:
            sample_idx += 1
    return sizes


class TestAdvanceEqualsStepChain:
    """Over the admissible inputs, a run of ``advance`` that rejects no step
    equals the chain of ``step``s over its step sizes, bit for bit."""

    @given(scheme=st.sampled_from(solver.SCHEMES), beta=st.floats(0.0, 4.0),
           c_v=st.floats(0.2, 5.0), n=st.integers(2, 64),
           a_v=st.floats(-0.9, 0.9), a_u=st.floats(0.0, 1.0),
           theta_share=st.floats(0.0, 0.9), seed=st.integers(0, 2 ** 16),
           dt_share=st.floats(0.05, 1.0), t_end=st.floats(1e-3, 0.02),
           samples=st.integers(1, 4))
    @settings(deadline=None)
    def test_run_equals_step_chain(self, scheme, beta, c_v, n, a_v, a_u, theta_share,
                                   seed, dt_share, t_end, samples):
        p = lg.PhysParams(beta=beta, c_v=c_v)
        g = lg.build_grid(n)
        spec = lg.InitialSpec(kind="random_smooth", a_v=a_v, a_u=a_u, a_theta=0.0,
                              seed=seed)
        try:
            theta_c = lg.make_initial_data(spec, g, c_v).theta[0]
            spec = replace(spec, a_theta=theta_share * theta_c)
            s0 = lg.make_initial_data(spec, g, c_v)
        except ConstructionError:
            reject()
        # the explicit scheme at a share of its bound at s0, the IMEX one at
        # a share of 0.01
        bound = solver._dt_bound(scheme, s0.v, s0.theta, p, g)
        dt = dt_share * min(bound, 0.01)
        try:
            traj = lg.advance(s0, p, g, lg.StepControls(dt=dt, scheme=scheme),
                              t_end, t_end / samples)
        except SimulationFailure:
            reject()
        if traj.n_rejected:
            reject()
        tiny = solver.check_run(n, s0.t, t_end, t_end / samples)
        sizes = driver_step_sizes(s0.t, dt, t_end, t_end / samples, tiny)
        assert len(sizes) == traj.n_steps
        s = s0
        for dt_try in sizes:
            s = lg.step(s, p, g, lg.StepControls(dt=dt_try, scheme=scheme))
        for name in ("v", "u", "theta"):
            assert getattr(s, name).tobytes() == getattr(traj.final_state, name).tobytes()


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
        src = solver.ManufacturedSources(g, p) if forced else None
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


class TestRejectionReasons:
    @pytest.mark.parametrize("scheme, dt_over_bound, sink, late, reason", [
        (lg.IMEX_BE, 0.5, "s_v", False, solver.VOLUME_FLOOR),
        (lg.IMEX_BE, 0.5, "s_theta", False, solver.TEMPERATURE_FLOOR),
        (lg.EXPLICIT_RK2, 10.0, None, False, solver.STABILITY_BOUND),
        (lg.EXPLICIT_RK2, 0.5, "s_theta", False, solver.MIDPOINT_POSITIVITY),
        # the midpoint stage reads the sources at t, the final one at t + dt/2
        (lg.EXPLICIT_RK2, 0.5, "s_theta", True, solver.FINAL_POSITIVITY),
    ])
    def test_each_check_names_its_reason(self, grid64, cosine64, unit_params,
                                         scheme, dt_over_bound, sink, late, reason):
        n = grid64.n_cells
        fields = {"s_v": np.zeros(n), "s_u": np.zeros(n + 1), "s_theta": np.zeros(n)}
        zero = lg.Sources(**fields)
        if sink is not None:
            fields[sink] = np.full(n, -1e9)
        sinking = lg.Sources(**fields)
        dt = dt_over_bound * lg.stability_limit(cosine64.v, cosine64.theta, unit_params,
                                                grid64)
        with pytest.raises(StepRejected) as exc:
            lg.step(cosine64, unit_params, grid64, lg.StepControls(dt=dt, scheme=scheme),
                    lambda t: sinking if t > 0.0 or not late else zero)
        assert exc.value.reason == reason


FLOOR = solver.POSITIVITY_FLOOR


class TestFloorCheck:
    """A NaN or an entry at POSITIVITY_FLOOR fails a positivity check
    wherever it sits, and an entry just above the floor passes.

    From the uniform state v = theta = 2*FLOOR, u = 0, a source entry
    (value - 2*FLOOR) / h, with h the stage's step, makes the checked field
    equal ``value`` in that cell exactly: h is a power of two, and u stays
    0, so nothing else moves the cell. At this dt the temperature system is
    the identity to the last bit, while a NaN in its right-hand side makes
    NaN values with finite pivots."""

    N = 16
    DT = 2.0 ** -110

    @pytest.mark.parametrize("cell", [0, 7, 15])
    @pytest.mark.parametrize("value, accepted", [(np.nan, False), (FLOOR, False),
                                                 (np.nextafter(FLOOR, 1.0), True)],
                             ids=["nan", "at_floor", "above_floor"])
    @pytest.mark.parametrize("scheme, late, field, reason", [
        (lg.IMEX_BE, True, "s_v", solver.VOLUME_FLOOR),
        (lg.IMEX_BE, True, "s_theta", solver.TEMPERATURE_FLOOR),
        (lg.EXPLICIT_RK2, False, "s_v", solver.MIDPOINT_POSITIVITY),
        (lg.EXPLICIT_RK2, False, "s_theta", solver.MIDPOINT_POSITIVITY),
        # the midpoint stage reads the sources at t, the final one at t + dt/2
        (lg.EXPLICIT_RK2, True, "s_v", solver.FINAL_POSITIVITY),
        (lg.EXPLICIT_RK2, True, "s_theta", solver.FINAL_POSITIVITY),
    ])
    def test_reason_or_acceptance(self, scheme, late, field, reason, value, accepted, cell):
        n, dt = self.N, self.DT
        g, p = lg.build_grid(n), lg.PhysParams(beta=1.0)
        s = make_state(np.full(n, 2 * FLOOR), np.zeros(n + 1), np.full(n, 2 * FLOOR))
        h = dt if scheme == lg.IMEX_BE or late else 0.5 * dt
        zero = lg.Sources(np.zeros(n), np.zeros(n + 1), np.zeros(n))
        fields = {"s_v": np.zeros(n), "s_u": np.zeros(n + 1), "s_theta": np.zeros(n)}
        fields[field][cell] = (value - 2 * FLOOR) / h
        bad = lg.Sources(**fields)
        assert np.isnan(value) or 2 * FLOOR + h * fields[field][cell] == value

        def sources(t):
            return bad if (t > 0.0) == late else zero

        c = lg.StepControls(dt=dt, scheme=scheme)
        if accepted:
            out = lg.step(s, p, g, c, sources)
            if late:
                checked = out.v if field == "s_v" else out.theta
                assert checked[cell] == value
        else:
            with pytest.raises(StepRejected) as exc:
                lg.step(s, p, g, c, sources)
            assert exc.value.reason == reason


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
        assert (traj.rejections, traj.min_dt) == ({}, 1e-3)

    def test_invalid_horizon(self, grid64, equilibrium64, unit_params):
        with pytest.raises(ValueError):
            lg.advance(equilibrium64, unit_params, grid64,
                       lg.StepControls(dt=1e-3), -1.0, 0.1)

    def test_invalid_cadence(self, grid64, equilibrium64, unit_params):
        with pytest.raises(ValueError):
            lg.advance(equilibrium64, unit_params, grid64,
                       lg.StepControls(dt=1e-3), 1.0, 0.0)

    def test_cadence_below_time_tolerance(self, grid64, equilibrium64, unit_params,
                                          monkeypatch):
        # refused before the first step; 1e-300 used to keep the driver
        # counting past the sample times near each landing
        def started(*args):
            raise AssertionError("advance started")

        monkeypatch.setattr(solver, "check_normalization", started)
        for cadence in (1e-300, 9e-13):
            with pytest.raises(ValueError, match="sample_every"):
                lg.advance(equilibrium64, unit_params, grid64, lg.StepControls(dt=1e-3),
                           0.01, cadence)

    def test_cadence_floor_scales_with_horizon(self, grid64, equilibrium64, unit_params,
                                               monkeypatch):
        # at t_end = 1e3 the floor is the driver's tolerance 1e-9; 1e-12 kept
        # it counting past about a thousand sample times after each landing
        def started(*args):
            raise AssertionError("advance started")

        monkeypatch.setattr(solver, "check_normalization", started)
        with pytest.raises(ParamError, match="sample_every") as exc:
            lg.advance(equilibrium64, unit_params, grid64, lg.StepControls(dt=1e-3),
                       1e3, 1e-12)
        assert exc.value.field == "sample_every"

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
        # three halvings, then the fourth rejection ends the run
        assert traj.rejections == {solver.TEMPERATURE_FLOOR: 4}
        assert traj.min_dt == DT_EXACT / 8

    def test_breakdown_becomes_failure(self, monkeypatch, grid64, cosine64, unit_params):
        # two solves per step: the 21st step breaks down, in the middle of a
        # 64-step block, which is folded in before the failure is raised
        want, acc, _ = replay(cosine64, unit_params, grid64, [DT_EXACT] * 20)
        monkeypatch.setattr(solver, "_solve_spd_tridiag", tridiag_breaking_after(40))
        with pytest.raises(SimulationFailure) as exc:
            lg.advance(cosine64, unit_params, grid64, lg.StepControls(dt=DT_EXACT),
                       1.0, 0.5)
        assert isinstance(exc.value.__cause__, NumericalBreakdown)
        last = exc.value.last_state
        assert last.t == exc.value.t == 20 * DT_EXACT
        for name in ("v", "u", "theta"):
            assert not getattr(last, name).flags.writeable
        traj = exc.value.trajectory
        assert traj.n_steps == 20
        assert [r.t for r in traj.records] == [0.0]
        assert_same_totals(traj, last, want, acc)

    def test_rejection_recovery_counts(self, grid64, unit_params):
        # explicit scheme with dt above the stability limit must halve its
        # way down (3.9, 1.95 and 0.975 times the limit are refused) and
        # then integrate; the dt it restores is capped at the bound, so no
        # later step is refused
        s0 = lg.make_initial_data(lg.InitialSpec(kind="cosine", a_v=0.05), grid64)
        dt_stab = lg.stability_limit(s0.v, s0.theta, unit_params, grid64)
        controls = lg.StepControls(dt=3.9 * dt_stab, scheme=lg.EXPLICIT_RK2,
                                   max_retries=12)
        traj = lg.advance(s0, unit_params, grid64, controls, 0.05, 0.01)
        assert traj.rejections == {solver.STABILITY_BOUND: 3}
        assert traj.n_rejected == 3
        assert traj.min_dt == controls.dt / 8
        assert traj.n_steps > 4 * solver.RECOVERY_STEPS
        assert traj.records[-1].t == 0.05

    def test_forced_explicit_run_matches_steps(self):
        # the explicit scheme evaluates its sources at t and at t + dt/2,
        # one row each, in advance as in step
        p = lg.PhysParams(beta=1.5)
        g = lg.build_grid(32)
        s0, _ = solver.manufactured_solution(0.0, g, p)
        src = solver.ManufacturedSources(g, p)
        controls = lg.StepControls(dt=DT_EXACT / 16, scheme=lg.EXPLICIT_RK2)
        traj = lg.advance(s0, p, g, controls, 40 * controls.dt, 20 * controls.dt, src)
        s = s0
        for _ in range(40):
            s = lg.step(s, p, g, controls, src)
        assert traj.n_rejected == 0
        assert traj.final_state.t == s.t
        for name in ("v", "u", "theta"):
            assert np.array_equal(getattr(traj.final_state, name), getattr(s, name))

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


def replay(s0, p, g, dts, src=None):
    """Take steps of sizes ``dts`` from ``s0`` with ``step``, folding each one
    on its own into fresh totals with the State-level dissipation and the
    accumulator updates; returns the last state, the accumulators, and
    (int_V_dt, dissipation, log Y) after each step by its end time."""
    acc = representation.init_accumulators(s0, g)
    diss_prev = functionals.dissipation(s0, g, p)
    int_v = 0.0
    s = s0
    totals = {}
    for dt in dts:
        s = lg.step(s, p, g, lg.StepControls(dt=dt), src)
        diss = functionals.dissipation(s, g, p)
        int_v += 0.5 * dt * (diss_prev + diss)
        diss_prev = diss
        # one step is a block of one row
        representation.update_damping(acc, s.u[None], s.theta[None], g, [dt])
        base = representation._base_factor_cached(acc, s.v[None], s.u[None], g)
        representation.update_history(acc, s.theta[None], base, [dt])
        totals[s.t] = (int_v, diss, acc.log_damping)
    return s, acc, totals


def assert_same_totals(traj, last, s, acc, totals=None):
    """The run's last accepted state ``last`` and its accumulators equal the
    replay's bit for bit, and so do its records at every sample."""
    for name in ("v", "u", "theta"):
        assert np.array_equal(getattr(last, name), getattr(s, name))
    got = traj.accumulators
    assert got.log_damping == acc.log_damping
    assert got.last_damping_integrand == acc.last_damping_integrand
    assert got.damping_ratio == acc.damping_ratio
    assert np.array_equal(got.scaled_history, acc.scaled_history)
    assert np.array_equal(got.last_integrand, acc.last_integrand)
    for rec in traj.records[1:] if totals is not None else ():
        assert (rec.int_V_dt, rec.dissipation_V, rec.log_damping) == totals[rec.t]


def counting_source_blocks(monkeypatch):
    """Record the length of every block of times that manufactured sources
    are evaluated at, from now until the monkeypatch is undone."""
    blocks = []
    rows = solver.ManufacturedSources.rows

    def counted(self, times):
        blocks.append(len(times))
        return rows(self, times)

    monkeypatch.setattr(solver.ManufacturedSources, "rows", counted)
    return blocks


class TestAdvanceMatchesAdapters:
    """``advance`` folds its accepted steps into its running totals a block
    at a time, from the kernel's own arrays. Stepping by hand and folding
    each step on its own must give the same totals, bit for bit: blocks of
    one step at 4097 cells, of up to 64 at 48 cells, full ones (64 steps),
    one step past them (65) and blocks that a sample ends early."""

    @pytest.mark.parametrize("beta, forced, n, steps, samples", [
        pytest.param(beta, forced, n, steps, samples,
                     id=f"{beta}-{forced}" + ("" if (n, steps, samples) == (48, 50, 1)
                                              else f"-{n}-{steps}-{samples}"))
        for n, steps, samples in [(48, 50, 1), (48, 64, 1), (48, 65, 1), (48, 50, 5),
                                  (48, 130, 2), (4097, 6, 3)]
        for beta, forced in [(1.0, False), (1.5, False), (1.0, True)]])
    def test_final_totals_identical(self, monkeypatch, beta, forced, n, steps, samples):
        p = lg.PhysParams(beta=beta)
        g = lg.build_grid(n)
        if forced:
            s0, _ = solver.manufactured_solution(0.0, g, p)
            src = solver.ManufacturedSources(g, p)
        else:
            s0 = lg.make_initial_data(
                lg.InitialSpec(kind="random_smooth", a_v=0.2, a_u=0.3,
                               a_theta=0.2, seed=9), g)
            src = None
        t_end = steps * DT_EXACT
        blocks = counting_source_blocks(monkeypatch)
        traj = lg.advance(s0, p, g, lg.StepControls(dt=DT_EXACT), t_end, t_end / samples, src)
        monkeypatch.undo()
        s, acc, totals = replay(s0, p, g, [DT_EXACT] * steps, src)

        if forced:
            # every plan holds K steps, and the step after the last one a
            # plan holds makes the next; a sample time, on the sum of the
            # steps' sizes, makes none
            k = Workspace(n).block
            assert blocks == [k] * -(-steps // k)

        assert traj.n_steps == steps
        assert traj.times.tolist() == [k * t_end / samples for k in range(samples + 1)]
        assert traj.final_state.t == s.t == t_end
        assert_same_totals(traj, traj.final_state, s, acc, totals)


def step_chain_records(s0, p, g, dt, t_end, sample_every):
    """The records of the run ``advance`` takes from ``s0`` when it rejects
    no step, from a chain of ``step``s over the driver's step sizes, each
    folded on its own, and ``record`` of the state at each sample time;
    returns the records and the last state."""
    tiny = solver.check_run(g.n_cells, s0.t, t_end, sample_every)
    v_star, energy = lg.check_normalization(s0, g, p)
    refs = {"v_star": v_star, "theta_star": energy / p.c_v}
    acc = representation.init_accumulators(s0, g)
    diss = functionals.dissipation(s0, g, p)
    int_v = 0.0
    records = [lg.record(s0, g, p, log_damping=acc.log_damping, dissipation_V=diss, **refs)]
    s, t, sample_idx = s0, s0.t, 1
    while t < t_end - tiny:
        target = min(s0.t + sample_idx * sample_every, t_end)
        while t < target:
            dt_try, t = solver._step_size(t, dt, target)
            s = lg.step(s, p, g, lg.StepControls(dt=dt_try))
            new = functionals.dissipation(s, g, p)
            int_v += 0.5 * dt_try * (diss + new)
            diss = new
            representation.update_damping(acc, s.u[None], s.theta[None], g, [dt_try])
            base = representation._base_factor_cached(acc, s.v[None], s.u[None], g)
            representation.update_history(acc, s.theta[None], base, [dt_try])
        # the step's State carries s.t + dt; the driver's t lands on the target
        s = lg.State(t=t, v=s.v, u=s.u, theta=s.theta)
        v_rec = lg.reconstruct_volume(acc, base[0])
        records.append(lg.record(s, g, p, int_v_dt=int_v,
                                 repr_err=float(np.max(np.abs(v_rec - s.v) / s.v)),
                                 log_damping=acc.log_damping, dissipation_V=diss, **refs))
        while s0.t + sample_idx * sample_every <= target + tiny:
            sample_idx += 1
    return records, s


class TestStagedSamples:
    """``advance`` stages each sample as a row of a buffer of K rows and
    computes the records of the staged rows in one pass: when the buffer is
    full, at the end of the run and before a failure is raised. The records
    are those of the states, bit for bit, and none is lost to a failure."""

    N = 256  # K = 16

    def start(self):
        p = lg.PhysParams(beta=1.5, R=0.8, c_v=1.4)
        g = lg.build_grid(self.N)
        s0 = lg.make_initial_data(
            lg.InitialSpec(kind="random_smooth", a_v=0.2, a_u=0.3, a_theta=0.2, seed=4),
            g, p.c_v)
        return s0, p, g

    @pytest.mark.parametrize("every, steps", [(1, 40), (3, 60)])
    def test_dense_records_equal_step_chain(self, every, steps):
        # a sample every step fills the buffer twice and leaves 8 rows for
        # the end; one every 3 steps fills it once and leaves 4
        s0, p, g = self.start()
        assert Workspace(self.N).block == 16
        t_end, sample_every = steps * DT_EXACT, every * DT_EXACT
        traj = lg.advance(s0, p, g, lg.StepControls(dt=DT_EXACT), t_end, sample_every)
        want, s = step_chain_records(s0, p, g, DT_EXACT, t_end, sample_every)
        assert len(traj.records) == len(want) == steps // every + 1
        for got, expected in zip(traj.records, want):
            assert repr(got) == repr(expected)
        assert traj.final_state.t == s.t == t_end
        for name in ("v", "u", "theta"):
            assert getattr(traj.final_state, name).tobytes() == getattr(s, name).tobytes()

    def test_failure_mid_buffer_keeps_every_sample(self, monkeypatch):
        # two solves a step: the 46th step breaks down, after 22 samples
        # (one every 2 steps), of which the buffer has flushed 16 and holds 6
        s0, p, g = self.start()
        controls = lg.StepControls(dt=DT_EXACT)
        monkeypatch.setattr(solver, "_solve_spd_tridiag", tridiag_breaking_after(90))
        with pytest.raises(SimulationFailure) as exc:
            lg.advance(s0, p, g, controls, 100 * DT_EXACT, 2 * DT_EXACT)
        monkeypatch.undo()
        assert exc.value.last_state.t == 45 * DT_EXACT
        broken = exc.value.trajectory
        whole = lg.advance(s0, p, g, controls, 44 * DT_EXACT, 2 * DT_EXACT)
        assert len(broken.records) == 23
        assert [repr(r) for r in broken.records] == [repr(r) for r in whole.records]
        assert broken.final_state.t == whole.final_state.t == 44 * DT_EXACT
        for name in ("v", "u", "theta"):
            assert (getattr(broken.final_state, name).tobytes()
                    == getattr(whole.final_state, name).tobytes())

    def test_failure_before_any_sample_keeps_s0(self, monkeypatch):
        s0, p, g = self.start()
        monkeypatch.setattr(solver, "_solve_spd_tridiag", tridiag_breaking_after(6))
        with pytest.raises(SimulationFailure) as exc:
            lg.advance(s0, p, g, lg.StepControls(dt=DT_EXACT), 100 * DT_EXACT,
                       10 * DT_EXACT)
        traj = exc.value.trajectory
        assert [r.t for r in traj.records] == [0.0]
        assert traj.final_state is s0

    def test_dense_run_records_once_and_builds_one_state(self, monkeypatch):
        # the initial sample takes the one-state record; every later sample
        # is a staged row, and only the final state becomes a State
        counts = {"record": 0, "State": 0}

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                counts[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        s0, p, g = self.start()
        monkeypatch.setattr(functionals, "record", counted("record", functionals.record))
        monkeypatch.setattr(solver, "State", counted("State", solver.State))
        traj = lg.advance(s0, p, g, lg.StepControls(dt=DT_EXACT), 50 * DT_EXACT, DT_EXACT)
        assert len(traj.records) == 51
        assert counts == {"record": 1, "State": 1}


def rejecting_attempt(patch, refused):
    """Refuse the ``refused``-th step attempt from now on, after its kernel
    ran in full; returns the list of the accepted steps' sizes, which grows
    as they are taken."""
    take = solver._take_step
    attempts, accepted = [], []

    def rejecting_after_kernel(*args):
        result = take(*args)
        attempts.append(None)
        if len(attempts) == refused:
            raise StepRejected("test", "refused after the kernel ran")
        accepted.append(args[1])
        return result

    patch.setattr(solver, "_take_step", rejecting_after_kernel)
    return accepted


class TestRejectionReplay:
    """A rejected attempt writes only into the workspace's spare row:
    replaying the accepted steps by hand gives the same run, bit for bit,
    whether the rejection falls inside a block or just after one was
    folded in."""

    def test_rejected_attempt_changes_nothing(self, monkeypatch):
        # inside a block of 64 steps, just after a full one was folded in,
        # and in blocks of one step
        for n, steps, refused in [(48, 30, 7), (48, 160, 65), (4097, 8, 3)]:
            with monkeypatch.context() as patch:
                self.check(patch, n, steps, refused)

    def test_forced_rejection_plans_again(self, monkeypatch):
        # the retry after a rejection looks its sources up with a dt the
        # plan was not made for, and so does the dt restored after it, so
        # each plans again from there; the run is still the step-by-step one
        with monkeypatch.context() as patch:
            blocks = self.check(patch, 48, 30, 7, forced=True)
        # K = 64: the first plan, the half steps from the refused seventh,
        # and the restored dt to the end
        assert blocks == [64] * 3
        with monkeypatch.context() as patch:
            blocks = self.check(patch, 4097, 8, 3, forced=True)
        # blocks of one step: two steps, the refused third, ten half steps
        # and one step
        assert blocks == [1] * 14

    def check(self, patch, n, steps, refused, forced=False):
        p = lg.PhysParams(beta=1.5)
        g = lg.build_grid(n)
        if forced:
            s0, _ = solver.manufactured_solution(0.0, g, p)
            src = solver.ManufacturedSources(g, p)
        else:
            s0 = lg.make_initial_data(
                lg.InitialSpec(kind="random_smooth", a_v=0.2, a_u=0.3, a_theta=0.2,
                               seed=4), g)
            src = None
        take = solver._take_step
        accepted = rejecting_attempt(patch, refused)
        blocks = counting_source_blocks(patch)
        t_end = steps * DT_EXACT
        traj = lg.advance(s0, p, g, lg.StepControls(dt=DT_EXACT), t_end, t_end / 2, src)
        planned = list(blocks)
        assert traj.n_rejected == 1
        assert traj.n_steps == len(accepted) > steps

        patch.setattr(solver, "_take_step", take)
        s, acc, totals = replay(s0, p, g, accepted, src)
        assert_same_totals(traj, traj.final_state, s, acc, totals)
        return planned


def forced_start(kind, g, p):
    """(s0, src) of a run with no sources, a constant ``Sources``, a
    callable that returns Sources, or fresh ``ManufacturedSources``."""
    if kind == "manufactured":
        return solver.manufactured_state(0.0, g), solver.ManufacturedSources(g, p)
    s0 = lg.make_initial_data(
        lg.InitialSpec(kind="random_smooth", a_v=0.2, a_u=0.3, a_theta=0.2,
                       seed=g.n_cells), g, p.c_v)
    if kind == "none":
        return s0, None
    s_u = 0.05 * np.sin(np.pi * g.nodes)
    s_u[0] = s_u[-1] = 0.0
    const = lg.Sources(0.05 * np.cos(2.0 * np.pi * g.cell_centers), s_u,
                       0.1 * np.sin(2.0 * np.pi * g.cell_centers) ** 2)
    if kind == "constant":
        return s0, const
    return s0, lambda t: lg.Sources(np.exp(-t) * const.s_v, np.exp(-t) * const.s_u,
                                    np.exp(-t) * const.s_theta)


def assert_same_run(bare, sampled):
    """A run without samples and the same run sampled only at t_end end in
    the same state, bit for bit, after the same steps."""
    assert bare.records == [] and bare.accumulators is None
    assert bare.final_state.t == sampled.final_state.t
    for name in ("v", "u", "theta"):
        assert (getattr(bare.final_state, name).tobytes()
                == getattr(sampled.final_state, name).tobytes())
        assert not getattr(bare.final_state, name).flags.writeable
    assert (bare.n_steps, bare.rejections, bare.min_dt) == (
        sampled.n_steps, sampled.rejections, sampled.min_dt)


class TestWithoutSamples:
    """``advance(..., sample_every=None)`` takes the steps that a run
    sampled only at t_end takes, with the same landings, source plans and
    rejections, and ends in the same state; it computes no diagnostics."""

    P = lg.PhysParams(beta=1.5, mu_tilde=0.7, kappa_tilde=1.3, R=1.1, c_v=0.9)
    DIAGNOSTICS = ((representation, "init_accumulators"), (functionals, "dissipation"),
                   (functionals, "dissipation_from"), (functionals, "records_from"),
                   (representation, "update_damping"),
                   (representation, "_base_factor_cached"),
                   (representation, "update_history"))

    def controls(self, scheme, s0, g):
        dt = min(DT_EXACT, 0.5 * solver._dt_bound(scheme, s0.v, s0.theta, self.P, g))
        return lg.StepControls(dt=dt, scheme=scheme)

    @pytest.mark.parametrize("kind", ["none", "constant", "callable", "manufactured"])
    @pytest.mark.parametrize("scheme", solver.SCHEMES)
    @pytest.mark.parametrize("n", [2, 3, 64, 4097])
    def test_equals_the_run_sampled_at_t_end(self, n, scheme, kind):
        # past one full block (K = 64 up to 64 cells, 1 at 4097), and a
        # last step shortened onto t_end
        g = lg.build_grid(n)
        runs = []
        for sample_every in (None, "t_end"):
            s0, src = forced_start(kind, g, self.P)
            c = self.controls(scheme, s0, g)
            t_end = (70.5 if n <= 64 else 6.5) * c.dt
            runs.append(lg.advance(s0, self.P, g, c, t_end,
                                   t_end if sample_every else None, src))
        bare, sampled = runs
        assert_same_run(bare, sampled)
        assert bare.final_state.t == t_end
        assert bare.n_steps == (71 if n <= 64 else 7)

    @pytest.mark.parametrize("n, steps, refused, forced", [
        (48, 30, 7, False), (48, 160, 65, True), (4097, 8, 3, False), (4097, 8, 3, True)])
    def test_forced_rejection_equals_the_sampled_run(self, monkeypatch, n, steps, refused,
                                                     forced):
        # inside a block, just after a full one, and in blocks of one step
        g = lg.build_grid(n)
        runs = []
        for sampled in (False, True):
            s0, src = forced_start("manufactured" if forced else "none", g, self.P)
            t_end = steps * DT_EXACT
            with monkeypatch.context() as patch:
                accepted = rejecting_attempt(patch, refused)
                runs.append(lg.advance(s0, self.P, g, lg.StepControls(dt=DT_EXACT), t_end,
                                       t_end if sampled else None, src))
            assert runs[-1].n_steps == len(accepted) > steps
        assert runs[0].rejections == {"test": 1}
        assert_same_run(*runs)

    @pytest.mark.parametrize("scheme", solver.SCHEMES)
    def test_no_diagnostics_work(self, monkeypatch, scheme):
        calls = {}
        for module, name in self.DIAGNOSTICS:
            calls[name] = 0

            def counted(*args, _fn=getattr(module, name), _name=name, **kwargs):
                calls[_name] += 1
                return _fn(*args, **kwargs)

            monkeypatch.setattr(module, name, counted)
        g = lg.build_grid(64)  # K = 64: two full blocks and a partial one
        s0, src = forced_start("manufactured", g, self.P)
        c = self.controls(scheme, s0, g)
        t_end = 150.5 * c.dt
        traj = lg.advance(s0, self.P, g, c, t_end, None, src)
        assert traj.n_steps == 151
        assert set(calls.values()) == {0}, calls
        assert traj.records == [] and traj.accumulators is None
        assert traj.phase_s["diagnostics"] == traj.phase_s["sampling"] == 0.0
        assert traj.phase_s["kernel"] > 0.0
        # the counters see the sampled run's calls
        s0, src = forced_start("manufactured", g, self.P)
        lg.advance(s0, self.P, g, c, t_end, t_end, src)
        assert 0 not in calls.values(), calls

    def test_breakdown_carries_the_last_accepted_state(self, monkeypatch, grid64, cosine64,
                                                      unit_params):
        # two solves per step: the 21st step breaks down
        c = lg.StepControls(dt=DT_EXACT)
        want = lg.advance(cosine64, unit_params, grid64, c, 20 * DT_EXACT, None).final_state
        monkeypatch.setattr(solver, "_solve_spd_tridiag", tridiag_breaking_after(40))
        with pytest.raises(SimulationFailure) as exc:
            lg.advance(cosine64, unit_params, grid64, c, 1.0, None)
        assert isinstance(exc.value.__cause__, NumericalBreakdown)
        last = exc.value.last_state
        assert last.t == exc.value.t == want.t == 20 * DT_EXACT
        for name in ("v", "u", "theta"):
            assert getattr(last, name).tobytes() == getattr(want, name).tobytes()
            assert not getattr(last, name).flags.writeable
        traj = exc.value.trajectory
        assert traj.n_steps == 20
        assert traj.records == [] and traj.accumulators is None
        # no sample was reached, so the trajectory ends where it started
        assert traj.final_state is cosine64


class TestPlannedIncrements:
    """An IMEX step adds its sources as three increments, each row times
    the step's dt. ``ManufacturedSources.increments_at`` gives them from its
    plan, which it makes for the workspace's ``block`` steps only when the
    plan lacks the step's time or dt; any other source is scaled into the
    workspace per step. Either way a run is the same, bit for bit."""

    GAS = dict(mu_tilde=0.7, kappa_tilde=1.3, R=1.1, c_v=0.9)

    def start(self, n, beta):
        p = lg.PhysParams(beta=beta, **self.GAS)
        g = lg.build_grid(n)
        return solver.manufactured_state(0.0, g), p, g

    @pytest.mark.parametrize("case", ["accepted", "refused", "sampled"])
    @pytest.mark.parametrize("beta", [0.5, 1.0, 2.5, 6.0])
    @pytest.mark.parametrize("n", [2, 3, 64])
    def test_planned_run_equals_the_callable_run(self, monkeypatch, n, beta, case):
        # a callable is never planned; t_end is no multiple of dt, so the
        # last step is clamped onto it. The refused ninth attempt halves dt,
        # which plans again at dt/2, and the dt restored after
        # RECOVERY_STEPS steps plans again at dt. The sampled run lands on
        # sample times that are no multiple of dt: each landing plans for
        # its own step size, and the step after it plans again at dt.
        s0, p, g = self.start(n, beta)
        c = lg.StepControls(dt=DT_EXACT)
        t_end = 40.5 * DT_EXACT
        sample_every = 4.3 * DT_EXACT if case == "sampled" else None
        one_rows, fields = [], []
        runs = []
        for planned in (True, False):
            src = solver.ManufacturedSources(g, p)
            with monkeypatch.context() as patch:
                if case == "refused":
                    rejecting_attempt(patch, 9)
                if planned:
                    patch.setattr(solver.ManufacturedSources, "__call__",
                                  counting(solver.ManufacturedSources.__call__, one_rows))
                    patch.setattr(solver, "_fields_at", counting(solver._fields_at, fields))
                runs.append(lg.advance(s0, p, g, c, t_end, sample_every,
                                       src if planned else (lambda t: src(t))))
        # every planned step, after a refusal too, takes stored increments
        assert one_rows == fields == []
        got, want = runs
        assert got.final_state.t == want.final_state.t == t_end
        for name in ("v", "u", "theta"):
            assert (getattr(got.final_state, name).tobytes()
                    == getattr(want.final_state, name).tobytes())
        assert (got.n_steps, got.min_dt, got.rejections) == (
            want.n_steps, want.min_dt, want.rejections)
        assert list(map(repr, got.records)) == list(map(repr, want.records))
        assert len(got.records) == (11 if case == "sampled" else 0)
        assert got.n_steps == {"accepted": 41, "refused": 46, "sampled": 47}[case]
        assert got.min_dt == (DT_EXACT / 2 if case == "refused" else DT_EXACT)

    @pytest.mark.parametrize("first, second", [(1.0, 0.5), (0.5, 1.0)])
    def test_reused_sources_equal_fresh_ones(self, first, second):
        # within one plan of K = 64 steps: the second run looks up times
        # that the first run's plan holds for another dt
        s0, p, g = self.start(64, 2.5)
        shared = solver.ManufacturedSources(g, p)
        t_end = 20.5 * DT_EXACT
        for scale in (first, second):
            c = lg.StepControls(dt=scale * DT_EXACT)
            got = lg.advance(s0, p, g, c, t_end, None, shared)
            want = lg.advance(s0, p, g, c, t_end, None, solver.ManufacturedSources(g, p))
            assert got.n_steps == want.n_steps
            for name in ("v", "u", "theta"):
                assert (getattr(got.final_state, name).tobytes()
                        == getattr(want.final_state, name).tobytes())

    def test_increments_of_another_dt_are_never_used(self, monkeypatch):
        # a plan is made only on a miss and holds the workspace's block of
        # steps; a time the plan holds with another dt plans again at that
        # dt, and nothing is scaled into the workspace
        s0, p, g = self.start(8, 1.5)
        src = solver.ManufacturedSources(g, p)
        ws = Workspace(8, 2)
        for row in ws.step_sources:
            row.fill(np.nan)
        row = solver.ManufacturedSources(g, p)(0.5)
        blocks = counting_source_blocks(monkeypatch)

        def scaled(dt):
            return row.s_v * dt, row.s_u[1:-1] * dt, row.s_theta * dt

        planned = solver._sources_at(src, 0.5, 0.25, ws)
        assert (src.dt, list(src.increments), blocks) == (0.25, [0.5, 0.75], [2])
        assert solver._sources_at(src, 0.5, 0.25, ws) is planned
        assert solver._sources_at(src, 0.75, 0.25, ws) is src.increments[0.75]
        assert blocks == [2]
        other = solver._sources_at(src, 0.5, 0.125, ws)
        assert (src.dt, list(src.increments), blocks) == (0.125, [0.5, 0.625], [2, 2])
        for inc, dt in ((planned, 0.25), (other, 0.125)):
            for got, want in zip(inc, scaled(dt)):
                assert got.tobytes() == want.tobytes()
        assert all(np.isnan(row).all() for row in ws.step_sources)
        assert solver._sources_at(None, 0.5, 0.25, ws) is None

    def test_explicit_scheme_plans_nothing(self, monkeypatch):
        # the midpoint step evaluates one row at t and one at t + dt/2
        s0, p, g = self.start(16, 1.5)
        src = solver.ManufacturedSources(g, p)
        blocks = counting_source_blocks(monkeypatch)
        c = lg.StepControls(dt=DT_EXACT / 16, scheme=lg.EXPLICIT_RK2)
        traj = lg.advance(s0, p, g, c, 10 * c.dt, None, src)
        assert (traj.n_steps, traj.n_rejected) == (10, 0)
        assert blocks == [1] * 20
        assert src.dt is None and src.increments == {}

    def test_step_plans_one_step(self, monkeypatch):
        s0, p, g = self.start(64, 1.5)
        src = solver.ManufacturedSources(g, p)
        blocks = counting_source_blocks(monkeypatch)
        c = lg.StepControls(dt=DT_EXACT)
        s = lg.step(s0, p, g, c, src)
        assert blocks == [1]
        assert (src.dt, list(src.increments)) == (c.dt, [s.t])

    @pytest.mark.parametrize("beta", [0.5, 1.0, 2.5, 6.0])
    def test_steps_equal_the_planned_run(self, beta):
        # step plans its one step; advance plans a block of K = 64 steps,
        # the first step included
        s0, p, g = self.start(64, beta)
        c = lg.StepControls(dt=DT_EXACT)
        traj = lg.advance(s0, p, g, c, 5 * DT_EXACT, None, solver.ManufacturedSources(g, p))
        first = lg.advance(s0, p, g, c, DT_EXACT, None, solver.ManufacturedSources(g, p))
        s = s0
        for i in range(5):
            s = lg.step(s, p, g, c, solver.ManufacturedSources(g, p))
            if i == 0:
                assert s.t == first.final_state.t
                for name in ("v", "u", "theta"):
                    assert (getattr(s, name).tobytes()
                            == getattr(first.final_state, name).tobytes())
        assert s.t == traj.final_state.t
        for name in ("v", "u", "theta"):
            assert getattr(s, name).tobytes() == getattr(traj.final_state, name).tobytes()

    @pytest.mark.parametrize("refused", [None, 7], ids=["accepted", "refused"])
    @pytest.mark.parametrize("kind", ["none", "manufactured"])
    def test_one_lookup_per_attempt(self, monkeypatch, kind, refused):
        # the sources' trace point is called once per IMEX attempt, a
        # refused one included, and the planned path builds no Sources and
        # evaluates no single row, also after a refusal and at the dt
        # restored after it
        g = lg.build_grid(48)
        p = lg.PhysParams(beta=1.5)
        s0, src = forced_start(kind, g, p)
        lookups, attempts, one_rows, fields, checks = [], [], [], [], []
        monkeypatch.setattr(solver, "_sources_at", counting(solver._sources_at, lookups))
        monkeypatch.setattr(solver, "_take_step", counting(solver._take_step, attempts))
        monkeypatch.setattr(solver.ManufacturedSources, "__call__",
                            counting(solver.ManufacturedSources.__call__, one_rows))
        monkeypatch.setattr(solver, "_fields_at", counting(solver._fields_at, fields))
        monkeypatch.setattr(solver.Sources, "__post_init__",
                            counting(solver.Sources.__post_init__, checks))
        if refused:
            rejecting_attempt(monkeypatch, refused)
        traj = lg.advance(s0, p, g, lg.StepControls(dt=DT_EXACT), 30.5 * DT_EXACT, None, src)
        assert traj.n_rejected == (1 if refused else 0)
        assert len(lookups) == len(attempts) == traj.n_steps + traj.n_rejected
        assert checks == one_rows == fields == []


def counting(fn, calls):
    """``fn``, appending None to ``calls`` at each call."""
    def wrapper(*args, **kwargs):
        calls.append(None)
        return fn(*args, **kwargs)
    return wrapper


class TestCheckRun:
    def test_none_is_taken(self):
        assert solver.check_run(64, 0.0, 0.5, None) == solver.TIME_TOLERANCE
        assert solver.check_run(2, 1.0, 3.0, None) == 3.0 * solver.TIME_TOLERANCE

    @pytest.mark.parametrize("t_end, cadence", [
        (0.01, 0.0), (0.01, -0.0), (0.01, -1.0), (0.01, float("nan")), (0.01, float("inf")),
        (0.01, float("-inf")), (0.01, 1e-300), (0.01, 9e-13), (1e3, 1e-12)])
    def test_refused_cadences_stay_refused(self, t_end, cadence):
        with pytest.raises(ParamError) as exc:
            solver.check_run(64, 0.0, t_end, cadence)
        assert exc.value.field == "sample_every"

    @pytest.mark.parametrize("n, t0, t_end, field", [
        (1, 0.0, 1.0, "n_cells"), (64, 0.0, 0.0, "t_end"), (64, 1.0, 0.5, "t_end"),
        (64, 0.0, float("nan"), "t_end"), (64, 0.0, float("inf"), "t_end")])
    def test_none_excuses_no_other_control(self, n, t0, t_end, field):
        with pytest.raises(ParamError) as exc:
            solver.check_run(n, t0, t_end, None)
        assert exc.value.field == field


class TestStepSizeChanges:
    """The IMEX kernel's operands of the step size are refilled when dt
    changes: on a step clamped onto a sample time, after a rejection, and
    when the nominal dt is restored. A run through all three equals
    ``step`` taken with each accepted dt in turn, bit for bit."""

    @pytest.mark.parametrize("n", [3, 64, 4097])
    def test_run_equals_step_replay(self, monkeypatch, n):
        p = lg.PhysParams(beta=1.5, mu_tilde=0.7, kappa_tilde=1.3, R=1.1, c_v=0.9)
        g = lg.build_grid(n)
        # a velocity gradient that a step of 0.5 pushes through the volume
        # floor at the start, and a cadence no multiple of dt
        s0 = lg.make_initial_data(
            lg.InitialSpec(kind="cosine", a_v=0.1, a_u=0.45, a_theta=0.1), g, p.c_v)
        take = solver._take_step
        accepted = []

        def logged(*args):
            result = take(*args)
            accepted.append(args[1])
            return result

        monkeypatch.setattr(solver, "_take_step", logged)
        traj = lg.advance(s0, p, g, lg.StepControls(dt=0.5), 8.0, 0.7)
        monkeypatch.undo()
        assert traj.n_rejected >= 1 and traj.n_steps == len(accepted)
        reduced = accepted.index(0.25)
        assert 0.5 in accepted[reduced:]  # the nominal dt restored
        assert any(dt not in (0.5, 0.25) for dt in accepted)  # landings
        s, acc, totals = replay(s0, p, g, accepted)
        assert_same_totals(traj, traj.final_state, s, acc, totals)


class TestScalarOperandBinding:
    """The kernel and the fold give numpy each scalar operand as a 0-d
    float64 array instead of a Python float. This pins, as
    ``TestLapackBinding`` pins dptsv, that every ufunc form they use gives
    the same bits either way: new, in place and with the scalar first (as
    in 1.0 / v), on rows and on blocks of rows."""

    @pytest.mark.parametrize("n", [2, 3, 256, 4097])
    def test_zero_d_operand_gives_the_float_bits(self, n):
        rng = np.random.default_rng(n)
        scalars = [0.5, 1.0, 3.0, 1.0 / n, 0.125 / n, rng.uniform(1e-9, 1e-3) * n * n,
                   -rng.uniform(1e-9, 1e-3) * n * n, rng.uniform(0.1, 10.0)]
        for x in (rng.uniform(-2.0, 2.0, n), rng.uniform(0.01, 3.0, (3, n))):
            for c in scalars:
                z = np.array(c)
                for ufunc in (np.multiply, np.add, np.subtract, np.divide):
                    assert ufunc(x, z).tobytes() == ufunc(x, c).tobytes()
                    assert ufunc(z, x).tobytes() == ufunc(c, x).tobytes()
                    with_zero_d, with_float = x.copy(), x.copy()
                    ufunc(with_zero_d, z, with_zero_d)
                    ufunc(with_float, c, with_float)
                    assert with_zero_d.tobytes() == with_float.tobytes()


class TestWorkspace:
    def test_warm_step_allocates_no_array(self):
        # an accepted IMEX step with the fold of its block, as advance takes
        # them, allocates less than one 4096-float array, without sources
        # and with manufactured sources that a plan holds; at 4096 cells a
        # block is one step, so every step is folded in at once (and a run
        # would plan every step on its own)
        n, dt = 4096, 1e-4
        p = lg.PhysParams(beta=1.5)
        g = lg.build_grid(n)
        cosine = lg.make_initial_data(
            lg.InitialSpec(kind="cosine", a_v=0.1, a_u=0.1, a_theta=0.1), g)
        manufactured = solver.ManufacturedSources(g, p)
        manufactured.increments_at(dt, dt, 3)
        times = list(manufactured.increments)
        for s0, src in ((cosine, None), (solver.manufactured_state(0.0, g), manufactured)):
            ws = solver._workspace(s0, p, g)
            assert ws.block == 1
            totals = solver._RunningTotals(s0, g, p, ws)
            for row in ws.step_sources:
                row.fill(np.nan)
            starts = iter([0.0] + times)

            def accepted_step():
                solver._take_step(next(starts), dt, lg.IMEX_BE, src, ws)
                ws.accept(dt)
                totals.fold()

            accepted_step()
            accepted_step()
            tracemalloc.start()
            try:
                accepted_step()
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert ws.filled == 0 and totals.base is not None
            assert peak < 8 * n
            # the planned steps scaled nothing into the workspace
            assert all(np.isnan(row).all() for row in ws.step_sources)

    @pytest.mark.parametrize("k", [1, 4, 64])
    def test_blocks_fill_forward_from_their_start(self, k):
        # accept and fold as advance does: half the blocks are folded when
        # full, the others at a random fill level; every row a kernel writes
        # is tagged with its step number
        rng = np.random.default_rng(k)
        ws = Workspace(3, k)
        # accept writes thf and knum from theta; at beta = 1 and kappa = 1
        # both equal theta, so a tagged row keeps its tag
        ws.scalars = solver._Scalars(lg.PhysParams(beta=1.0), lg.build_grid(3))
        fields = ("v", "u", "theta", "ux", "vf", "thf", "knum")

        def write(row, tag):
            for name in fields:
                getattr(row, name)[...] = tag

        def untouched(start):
            row, tag = start
            return all(np.all(getattr(row, name) == tag) for name in fields)

        def fill_level():
            return k if rng.random() < 0.5 else rng.integers(1, k + 1)

        write(ws.cur, 0.0)
        start, tags, fold_at, full_blocks = (ws.cur, 0), [], fill_level(), 0
        for step in range(1, 12 * k + 40):
            # the next kernel writes neither the accepted state nor a
            # pending step
            assert not np.shares_memory(ws.nxt.v, ws.cur.v)
            assert not np.shares_memory(ws.nxt.v, ws.pending().v)
            write(ws.nxt, -1.0)  # a rejected attempt
            write(ws.nxt, step)
            ws.accept(0.5 * step)
            tags.append(step)
            # every block, also one after a partial fold, takes k rows
            assert ws.full == (len(tags) == k)
            block = ws.pending()
            assert block.v.strides[0] > 0 and block.dt.strides[0] > 0
            assert block.v[:, 0].tolist() == tags
            assert block.dt.tolist() == [0.5 * tag for tag in tags]
            if len(tags) == fold_at:
                full_blocks += ws.full
                assert untouched(start)
                start, tags, fold_at = (ws.cur, step), [], fill_level()
                ws.fold()
            assert untouched(start)
        assert full_blocks >= 2

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


class TestLapackBinding:
    @pytest.mark.parametrize("n", [2, 3, 256, 4097])
    def test_ptsv_is_scipys_public_ptsv(self, n):
        # the solver loads scipy's Fortran wrapper module without importing
        # scipy.linalg; this pins it to the public lookup, bit for bit
        from scipy.linalg import get_lapack_funcs

        public, = get_lapack_funcs(("ptsv",), (np.array([1.0]),))
        rng = np.random.default_rng(n)
        for _ in range(3):
            off = rng.uniform(-1.0, 1.0, n - 1)
            # diagonally dominant with a positive diagonal: SPD
            diag = rng.uniform(0.1, 2.0, n)
            diag[:-1] += np.abs(off)
            diag[1:] += np.abs(off)
            rhs = rng.standard_normal(n)
            ours = solver._ptsv(diag.copy(), off.copy(), rhs.copy())
            theirs = public(diag.copy(), off.copy(), rhs.copy())
            assert ours[3] == theirs[3] == 0
            for a, b in zip(ours[:3], theirs[:3]):
                assert a.tobytes() == b.tobytes()


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

    def test_nan_pivot_raises(self):
        # ptsv's own check (pivot <= 0) lets a NaN pivot through
        with pytest.raises(NumericalBreakdown):
            solver._solve_spd_tridiag(np.array([2.0, np.nan, 2.0]),
                                      np.array([-1.0, -1.0]), np.ones(3))

    @pytest.mark.parametrize("pivot", [0.0, -1.0, np.nan])
    def test_one_unknown_bad_pivot_raises(self, pivot):
        with pytest.raises(NumericalBreakdown):
            solver._solve_spd_tridiag(np.array([pivot]), np.array([]), np.array([1.0]))
