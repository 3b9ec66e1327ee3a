import numpy as np
import pytest


import lagrangas as lg
from lagrangas import representation as rep


def dense_base_oracle(s, s0, g, refine=400):
    """Duplicate of the base profile built by densely resampling the
    piecewise-linear node interpolant and integrating it with a generic
    quadrature, independent of the cumulative-trapezoid implementation.
    The dense grid keeps the interpolation kinks as quadrature points, so
    the quadrature is exact for the interpolant."""
    def potential(u, x_to):
        xs = np.union1d(np.linspace(0.0, x_to, refine + 1),
                        g.nodes[g.nodes <= x_to])
        return np.trapezoid(np.interp(xs, g.nodes, u), x=xs)

    u_int = np.array([potential(s.u, xc) for xc in g.cell_centers])
    u0_int = np.array([potential(s0.u, xc) for xc in g.cell_centers])
    g_now = np.sum(s.v * u_int) * g.dx
    g_0 = np.sum(s0.v * u0_int) * g.dx
    return s0.v * np.exp((u_int - u0_int) - (g_now - g_0))


@pytest.fixture
def random_pair(grid64):
    s0 = lg.make_initial_data(
        lg.InitialSpec(kind="random_smooth", a_v=0.2, a_u=0.3, a_theta=0.15,
                       seed=21), grid64)
    s1 = lg.make_initial_data(
        lg.InitialSpec(kind="random_smooth", a_v=0.25, a_u=0.2, a_theta=0.1,
                       seed=22), grid64)
    return s0, s1


class TestBaseFactor:
    def test_initial_state_is_exact(self, grid64, random_pair):
        s0, _ = random_pair
        assert np.array_equal(lg.base_factor(s0, s0, grid64), s0.v)

    def test_equilibrium_is_one(self, grid64, equilibrium64):
        later = lg.State(t=3.0, v=equilibrium64.v, u=equilibrium64.u,
                         theta=equilibrium64.theta)
        assert np.array_equal(lg.base_factor(later, equilibrium64, grid64),
                              np.ones(64))

    def test_against_dense_quadrature(self, grid64, random_pair):
        s0, s1 = random_pair
        got = lg.base_factor(s1, s0, grid64)
        want = dense_base_oracle(s1, s0, grid64)
        assert np.max(np.abs(got - want) / want) <= 1e-8

    def test_high_resolution_oracle(self):
        g = lg.build_grid(256)
        s0 = lg.make_initial_data(
            lg.InitialSpec(kind="random_smooth", a_v=0.2, a_u=0.3,
                           a_theta=0.15, seed=4), g)
        s1 = lg.make_initial_data(
            lg.InitialSpec(kind="random_smooth", a_v=0.15, a_u=0.25,
                           a_theta=0.1, seed=5), g)
        got = lg.base_factor(s1, s0, g)
        want = dense_base_oracle(s1, s0, g, refine=256)
        assert np.max(np.abs(got - want) / want) <= 1e-8


class TestDampingUpdate:
    def test_starts_at_one(self, grid64, equilibrium64):
        acc = lg.init_accumulators(equilibrium64, grid64)
        assert acc.log_damping == 0.0
        assert acc.damping == 1.0

    def test_equilibrium_exponential(self, grid64, equilibrium64):
        acc = lg.init_accumulators(equilibrium64, grid64)
        dt = 1e-3
        state = equilibrium64
        for k in range(1, 1001):
            state = lg.State(t=k * dt, v=state.v, u=state.u, theta=state.theta)
            lg.update_damping(acc, state, grid64, dt)
        assert acc.log_damping == pytest.approx(-1.0, abs=1e-12)

    def test_strictly_decreasing(self, grid64, cosine64, unit_params):
        traj = lg.advance(cosine64, unit_params, grid64,
                          lg.StepControls(dt=1e-3), 1.0, 0.1)
        logy = traj.column("log_damping")
        assert all(b < a for a, b in zip(logy, logy[1:]))

    def test_normalized_run_bounds_to_t5(self, unit_params):
        # the damping integrand of a normalized run sits in [1, 2], so
        # log Y must track between -2t and -t; dt is small enough that the
        # integrator's energy drift stays below the kinetic-energy margin
        g = lg.build_grid(64)
        s0 = lg.make_initial_data(
            lg.InitialSpec(kind="cosine", a_v=0.1, a_u=0.1, a_theta=0.1), g)
        traj = lg.advance(s0, unit_params, g, lg.StepControls(dt=2e-4), 5.0, 0.5)
        t = traj.times[1:]
        ly = traj.column("log_damping")[1:]
        assert np.all(ly >= -2.0 * t - 0.01)
        assert np.all(ly <= -t + 0.01 * t)
        y5 = np.exp(traj.column("log_damping")[-1])
        assert np.exp(-10.0) <= y5 <= np.exp(-5.0)


class TestHistoryUpdate:
    def test_zero_at_start(self, grid64, equilibrium64):
        acc = lg.init_accumulators(equilibrium64, grid64)
        assert np.all(acc.history == 0.0)
        assert np.all(np.isneginf(acc.log_history))

    def test_single_step_trapezoid_by_hand(self, grid64, equilibrium64):
        dt = 1e-3
        acc = lg.init_accumulators(equilibrium64, grid64)
        s1 = lg.State(t=dt, v=equilibrium64.v, u=equilibrium64.u,
                      theta=equilibrium64.theta)
        lg.update_damping(acc, s1, grid64, dt)
        base = lg.base_factor(s1, equilibrium64, grid64)
        lg.update_history(acc, s1, base, grid64, dt)
        expected = dt * (1.0 + np.exp(dt)) / 2.0
        assert acc.history == pytest.approx(expected, rel=1e-13)

    def test_equilibrium_closed_form(self, grid64, equilibrium64, unit_params):
        dt = 1e-3
        t_end = 2.0
        traj = lg.advance(equilibrium64, unit_params, grid64,
                          lg.StepControls(dt=dt), t_end, t_end)
        acc = traj.accumulators
        exact = np.expm1(t_end)
        # trapezoid error for exp on [0, t]: (dt^2/12) * integral of exp
        quad_bound = dt * dt / 12.0 * exact * 1.5
        assert np.max(np.abs(acc.history - exact)) <= quad_bound

    def test_nondecreasing(self, grid64, cosine64, unit_params):
        acc = lg.init_accumulators(cosine64, grid64)
        state = cosine64
        controls = lg.StepControls(dt=1e-3)
        prev = acc.history.copy()
        for _ in range(20):
            state = lg.step_imex(state, unit_params, grid64, controls)
            lg.update_damping(acc, state, grid64, controls.dt)
            base = lg.base_factor(state, cosine64, grid64)
            lg.update_history(acc, state, base, grid64, controls.dt)
            assert np.all(acc.history >= prev)
            prev = acc.history.copy()

    def test_log_space_survives_extreme_damping(self, grid64, equilibrium64):
        # with Y ~ exp(-800) the linear-space integrand would overflow; the
        # log-space accumulator must stay finite and consistent
        acc = lg.init_accumulators(equilibrium64, grid64)
        acc.log_damping = -800.0
        acc.last_log_integrand = np.zeros(64)
        s = lg.State(t=800.0, v=equilibrium64.v, u=equilibrium64.u,
                     theta=equilibrium64.theta)
        base = lg.base_factor(s, equilibrium64, grid64)
        lg.update_history(acc, s, base, grid64, 1e-3)
        assert np.all(np.isfinite(acc.log_history))
        assert np.all(acc.log_history > 700.0)
        v_rec = lg.reconstruct_volume(acc, s, grid64)
        assert np.all(np.isfinite(v_rec))


class TestReconstruction:
    def test_exact_at_t_zero(self, grid64, random_pair):
        s0, _ = random_pair
        acc = lg.init_accumulators(s0, grid64)
        assert np.array_equal(lg.reconstruct_volume(acc, s0, grid64), s0.v)

    def test_equilibrium_identity(self, grid64, equilibrium64, unit_params):
        # B = 1, Y = exp(-t), A = exp(t) - 1 recombine to exactly 1 up to
        # the O(dt^2) time quadrature of the accumulators
        dt = 1e-3
        traj = lg.advance(equilibrium64, unit_params, grid64,
                          lg.StepControls(dt=dt), 1.0, 0.25)
        assert traj.column("repr_err")[0] == 0.0
        assert max(traj.column("repr_err")) <= dt * dt / 6.0

    def test_cosine_run_accuracy(self, unit_params):
        g = lg.build_grid(64)
        s0 = lg.make_initial_data(
            lg.InitialSpec(kind="cosine", a_v=0.1, a_u=0.1, a_theta=0.1), g)
        traj = lg.advance(s0, unit_params, g, lg.StepControls(dt=1e-3), 1.0, 0.1)
        assert max(traj.column("repr_err")) <= 1e-3

    def test_second_order_refinement(self, unit_params):
        errs = {}
        for n in (32, 64):
            g = lg.build_grid(n)
            s0 = lg.make_initial_data(
                lg.InitialSpec(kind="cosine", a_v=0.1, a_u=0.1, a_theta=0.1), g)
            dt = 2e-3 * (32 / n) ** 2
            traj = lg.advance(s0, unit_params, g, lg.StepControls(dt=dt), 0.5, 0.1)
            errs[n] = max(traj.column("repr_err"))
        assert errs[32] / errs[64] >= 3.0

    def test_error_series_matches_trajectory(self, grid64, cosine64, unit_params):
        traj = lg.advance(cosine64, unit_params, grid64,
                          lg.StepControls(dt=1e-3), 0.5, 0.1)
        series = lg.reconstruction_errors(traj)
        assert [t for t, _ in series] == [r.t for r in traj.records]
        assert [e for _, e in series] == list(traj.column("repr_err"))
        assert series[0][1] == 0.0
