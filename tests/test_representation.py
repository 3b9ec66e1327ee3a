import numpy as np
import pytest


import lagrangas as lg
from lagrangas import representation as rep
from lagrangas.core import Workspace


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


class TestVecdotBinding:
    @pytest.mark.parametrize("shape", [(64, 64), (16, 256), (1, 4096), (2, 3)])
    def test_vecdot_is_rowwise_dot(self, shape):
        # the base profile's shifts take one np.vecdot over a block; this
        # pins it to one ndarray.dot a row, bit for bit
        rng = np.random.default_rng(shape[1])
        for _ in range(3):
            v = rng.uniform(0.5, 1.5, shape)
            e = rng.standard_normal(shape)
            rowwise = np.array([vj.dot(ej) for vj, ej in zip(v, e)])
            assert np.vecdot(v, e).tobytes() == rowwise.tobytes()


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
            lg.update_damping(acc, state.u[None], state.theta[None], grid64, [dt])
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


def weighted_damping_integrand(u, theta, g):
    """The damping integrand with the trapezoid node weights written out."""
    kinetic = g.node_weights * u * u
    return [k * g.dx + t * g.dx for k, t in zip(np.add.reduce(kinetic, axis=1).tolist(),
                                                np.add.reduce(theta, axis=1).tolist())]


class TestDampingIntegrand:
    # the walls' weight 1/2 multiplies zeros, so the unweighted squares give
    # the same bits; -0.0 squares to +0.0 either way
    @pytest.mark.parametrize("n", [2, 3, 256, 4097])
    @pytest.mark.parametrize("seed", [0, 1])
    def test_equals_trapezoid_weighted_sum(self, n, seed):
        g = lg.build_grid(n)
        rows = 4
        rng = np.random.default_rng(seed)
        scales = 10.0 ** rng.uniform(-8, 3, (rows, 1))
        u = rng.standard_normal((rows, n + 1)) * scales
        # every pair of signed zeros at the walls, and one row all zeros
        u[:, 0] = [0.0, -0.0, 0.0, -0.0]
        u[:, -1] = [0.0, 0.0, -0.0, -0.0]
        u[3, 1:-1] = -0.0
        theta = rng.uniform(1e-3, 10.0, (rows, n))
        got = rep.damping_integrand(u, theta, g, Workspace(n, rows))
        want = weighted_damping_integrand(u, theta, g)
        assert [x.hex() for x in got] == [x.hex() for x in want]


class TestHistoryUpdate:
    def test_zero_at_start(self, grid64, equilibrium64):
        acc = lg.init_accumulators(equilibrium64, grid64)
        assert np.all(acc.history == 0.0)
        assert np.all(acc.scaled_history == 0.0)
        assert acc.damping_ratio == 1.0

    def test_single_step_trapezoid_by_hand(self, grid64, equilibrium64):
        dt = 1e-3
        acc = lg.init_accumulators(equilibrium64, grid64)
        s1 = lg.State(t=dt, v=equilibrium64.v, u=equilibrium64.u,
                      theta=equilibrium64.theta)
        lg.update_damping(acc, s1.u[None], s1.theta[None], grid64, [dt])
        base = lg.base_factor(s1, equilibrium64, grid64)
        lg.update_history(acc, s1.theta[None], base[None], [dt])
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
            state = lg.step(state, unit_params, grid64, controls)
            lg.update_damping(acc, state.u[None], state.theta[None], grid64, [controls.dt])
            base = lg.base_factor(state, cosine64, grid64)
            lg.update_history(acc, state.theta[None], base[None], [controls.dt])
            assert np.all(acc.history >= prev)
            prev = acc.history.copy()

    def test_matches_direct_trapezoid_sum(self, grid64, cosine64, unit_params):
        # oracle: sum the trapezoid rule for A in theta / (B * Y) directly,
        # with B from base_factor and Y from log Y after each step
        dt = 1e-3
        acc = lg.init_accumulators(cosine64, grid64)
        controls = lg.StepControls(dt=dt)
        state = cosine64
        f_prev = cosine64.theta / cosine64.v
        direct = np.zeros(64)
        for _ in range(200):
            state = lg.step(state, unit_params, grid64, controls)
            base = lg.base_factor(state, cosine64, grid64)
            lg.update_damping(acc, state.u[None], state.theta[None], grid64, [dt])
            lg.update_history(acc, state.theta[None], base[None], [dt])
            f_new = state.theta / (base * np.exp(acc.log_damping))
            direct += 0.5 * dt * (f_prev + f_new)
            f_prev = f_new
        assert np.max(np.abs(acc.history - direct) / direct) <= 1e-12

    def test_survives_damping_underflow(self, unit_params):
        # Y = exp(log Y) underflows to 0 near t = 745, and A = a / Y grows
        # past the float range; the reconstruction reads only a and Y
        g = lg.build_grid(16)
        s0 = lg.make_initial_data(
            lg.InitialSpec(kind="cosine", a_v=0.1, a_u=0.1, a_theta=0.1), g)
        traj = lg.advance(s0, unit_params, g, lg.StepControls(dt=0.05), 800.0, 10.0)
        assert traj.column("log_damping")[-1] < -745.0
        errs = traj.column("repr_err")
        assert np.all(np.isfinite(errs))
        assert np.all(errs <= 1e-3)


class TestReconstruction:
    def test_exact_at_t_zero(self, grid64, random_pair):
        s0, _ = random_pair
        acc = lg.init_accumulators(s0, grid64)
        base = lg.base_factor(s0, s0, grid64)
        assert np.array_equal(lg.reconstruct_volume(acc, base), s0.v)

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
