import numpy as np
import pytest
from hypothesis import given, strategies as st
from scipy.integrate import quad

import lagrangas as lg
from lagrangas import functionals
from lagrangas.core import Workspace

from conftest import make_state


class TestEntropy:
    def test_equilibrium_value(self, grid64, equilibrium64, unit_params):
        assert lg.entropy(equilibrium64, grid64, unit_params) == pytest.approx(2.0, abs=1e-14)

    def test_closed_form_volume_e(self, grid64, unit_params):
        s = make_state(np.full(64, np.e), np.zeros(65), np.ones(64))
        assert lg.entropy(s, grid64, unit_params) == pytest.approx(np.e, abs=1e-13)

    def test_cosine_profile_vs_dense_quadrature(self, unit_params):
        # the discrete cell sum is the midpoint rule, second order, so at
        # N = 256 it should sit within 1e-6 of the continuum integral
        g = lg.build_grid(256)
        a = 0.1
        s = lg.make_initial_data(
            lg.InitialSpec(kind="cosine", a_v=a, a_u=a, a_theta=a), g)
        theta_c = s.theta[0] - a * np.cos(2 * np.pi * g.cell_centers[0])

        def integrand(x):
            v = 1 + a * np.cos(2 * np.pi * x)
            th = theta_c + a * np.cos(2 * np.pi * x)
            u = a * np.sin(2 * np.pi * x)
            return (v - np.log(v)) + (th - np.log(th)) + 0.5 * u * u

        exact, _ = quad(integrand, 0.0, 1.0, epsabs=1e-13, limit=200)
        assert lg.entropy(s, g, unit_params) == pytest.approx(exact, abs=1e-6)

    def test_nonnegative_on_random_states(self, grid64, unit_params):
        for seed in range(5):
            s = lg.make_initial_data(
                lg.InitialSpec(kind="random_smooth", a_v=0.4, a_u=0.5,
                               a_theta=0.3, seed=seed), grid64)
            assert lg.entropy(s, grid64, unit_params) >= 0.0


class TestDissipation:
    def test_constant_state_is_zero(self, grid64, equilibrium64, unit_params):
        assert lg.dissipation(equilibrium64, grid64, unit_params) == 0.0

    def test_hand_computed_hat_profile(self, unit_params):
        # u = (0, 1/2, 1, 1/2, 0) on N = 4: slopes (2, 2, -2, -2), v = theta = 1,
        # so the shear sum is 4 * 4 * dx = 4 and the thermal sum is 0
        g = lg.build_grid(4)
        s = make_state(np.ones(4), [0.0, 0.5, 1.0, 0.5, 0.0], np.ones(4))
        assert lg.dissipation(s, g, unit_params) == pytest.approx(4.0, abs=1e-14)

    def test_temperature_only_perturbation(self, grid64, unit_params):
        s = lg.make_initial_data(
            lg.InitialSpec(kind="cosine", a_v=0.0, a_u=0.0, a_theta=0.1), grid64)
        full = lg.dissipation(s, grid64, unit_params)
        assert full > 0.0
        # zero out the velocity part by construction: u is already zero
        assert np.all(s.u == 0.0)

    def test_zero_iff_flat(self, grid64, unit_params):
        th = np.ones(64)
        th[10] += 1e-9
        s = make_state(np.ones(64), np.zeros(65), th)
        assert lg.dissipation(s, grid64, unit_params) > 0.0

    def test_single_cell(self):
        # one cell has no face, so only the shear term mu * ux**2 / (v * theta)
        # counts; u need not vanish at the walls here
        p = lg.PhysParams(beta=1.5, mu_tilde=1.3)
        s = make_state([2.0], [0.0, 0.3], [0.5])
        assert lg.dissipation(s, lg.build_grid(1), p) == pytest.approx(0.117, rel=1e-14)

    def test_beta_zero_conductivity_is_kappa(self):
        p = lg.PhysParams(beta=0.0, kappa_tilde=0.7)
        s = make_state(np.ones(4), np.zeros(5), [0.3, 1.0, 2.5, 7.0])
        knum = Workspace(4, 1).load(s, lg.build_grid(4), p).knum
        assert np.all(knum == 0.7)


class TestMeanTheta:
    def test_unit(self, grid64, equilibrium64):
        assert lg.mean_theta(equilibrium64, grid64) == pytest.approx(1.0, abs=1e-15)

    def test_cosine_mean_one(self, grid64):
        s = lg.make_initial_data(lg.InitialSpec(kind="cosine", a_theta=0.2,
                                                a_v=0.0, a_u=0.0), grid64)
        assert lg.mean_theta(s, grid64) == pytest.approx(s.theta.mean(), abs=1e-14)

    def test_constant_point_three(self, grid64):
        s = make_state(np.ones(64), np.zeros(65), np.full(64, 0.3))
        assert lg.mean_theta(s, grid64) == pytest.approx(0.3, abs=1e-15)


class TestInverseTemperatureMoment:
    def test_unit_theta_any_p(self, grid64, equilibrium64):
        for p in (0.5, 1.0, 2.0, 7.0):
            assert lg.inverse_temperature_moment(equilibrium64, grid64, p) == \
                pytest.approx(1.0, abs=1e-14)

    def test_theta_four(self, grid64):
        s = make_state(np.ones(64), np.zeros(65), np.full(64, 4.0))
        assert lg.inverse_temperature_moment(s, grid64, 2.0) == pytest.approx(0.25, abs=1e-14)
        assert lg.inverse_temperature_moment(s, grid64, 1.0) == pytest.approx(1.0, abs=1e-14)

    def test_requires_positive_exponent(self, grid64, equilibrium64):
        with pytest.raises(ValueError):
            lg.inverse_temperature_moment(equilibrium64, grid64, 0.0)

    def test_requires_finite_exponent(self, grid64, equilibrium64):
        for q in (float("nan"), float("inf")):
            with pytest.raises(ValueError, match="finite"):
                lg.inverse_temperature_moment(equilibrium64, grid64, q)


class TestH1Deviation:
    def test_zero_at_reference(self, grid64, equilibrium64):
        assert lg.h1_deviation(equilibrium64, grid64, 1.0, 1.0) == 0.0

    def test_constant_shift(self, grid64):
        delta = 0.37
        s = make_state((1 + delta) * np.ones(64), np.zeros(65), np.ones(64))
        assert lg.h1_deviation(s, grid64, 1.0, 1.0) == pytest.approx(delta, rel=1e-12)

    def test_cosine_vs_analytic_norm(self):
        # continuum H1 norm of (a cos, a sin, a cos) deviations:
        # each field contributes a^2/2 * (1 + (2 pi)^2)
        g = lg.build_grid(256)
        a = 0.1
        s = lg.make_initial_data(lg.InitialSpec(kind="cosine", a_v=a, a_u=a, a_theta=a), g)
        theta_c = (s.theta - a * np.cos(2 * np.pi * g.cell_centers))[0]
        exact = np.sqrt(3 * (a ** 2 / 2) * (1 + (2 * np.pi) ** 2))
        got = lg.h1_deviation(s, g, 1.0, theta_c)
        assert got == pytest.approx(exact, abs=1e-4)

    def test_each_part_by_hand(self, grid64):
        # fields with gradients of different sizes, so that a part taken
        # from the wrong field shows
        rng = np.random.default_rng(7)
        v, theta = rng.uniform(0.5, 1.5, 64), rng.uniform(0.5, 1.5, 64)
        u = np.zeros(65)
        u[1:-1] = 3.0 * rng.standard_normal(63)
        s = make_state(v, u, theta)
        dx = grid64.dx
        parts = [np.sum((v - 1.1) ** 2) * dx, np.sum(np.diff(v) ** 2) / dx,
                 np.sum(grid64.node_weights * u * u) * dx, np.sum(np.diff(u) ** 2) / dx,
                 np.sum((theta - 0.9) ** 2) * dx, np.sum(np.diff(theta) ** 2) / dx]
        assert lg.h1_deviation(s, grid64, 1.1, 0.9) == pytest.approx(np.sqrt(sum(parts)),
                                                                     rel=1e-14)

    def test_zero_iff_reference(self, grid64):
        v = np.ones(64)
        v[5] += 1e-8
        s = make_state(v, np.zeros(65), np.ones(64))
        assert lg.h1_deviation(s, grid64, 1.0, 1.0) > 0.0

    def test_rejects_nonpositive_reference(self, grid64, equilibrium64):
        with pytest.raises(ValueError):
            lg.h1_deviation(equilibrium64, grid64, 0.0, 1.0)


class TestExtrema:
    def test_equilibrium(self, equilibrium64):
        assert lg.extrema(equilibrium64) == (1.0, 1.0, 1.0, 1.0)

    def test_two_cells(self):
        s = make_state([0.5, 2.0], [0.0, 0.0, 0.0], [1.0, 3.0])
        assert lg.extrema(s) == (0.5, 2.0, 1.0, 3.0)

    def test_cosine_min(self, grid64):
        s = lg.make_initial_data(lg.InitialSpec(kind="cosine", a_v=0.1), grid64)
        expected_min = 1.0 - 0.1 * np.max(np.abs(np.cos(2 * np.pi * grid64.cell_centers)))
        assert lg.extrema(s)[0] == pytest.approx(expected_min, rel=1e-14)


class TestRecord:
    def test_equilibrium_record(self, grid64, equilibrium64, unit_params):
        r = lg.record(equilibrium64, grid64, unit_params)
        assert r.dissipation_V == 0.0
        assert r.h1_dev == 0.0
        assert r.mass == 1.0
        assert r.total_energy == 1.0

    @pytest.mark.parametrize("kwargs", [{"lp_exponents": (float("nan"), float("inf"))},
                                        {"v_star": float("nan")}])
    def test_no_non_finite_argument_reaches_a_record(self, grid64, cosine64, unit_params,
                                                     kwargs):
        with pytest.raises(ValueError, match="finite"):
            lg.record(cosine64, grid64, unit_params, **kwargs)

    def test_determinism(self, grid64, cosine64, unit_params):
        a = lg.record(cosine64, grid64, unit_params)
        b = lg.record(cosine64, grid64, unit_params)
        assert a == b

    def test_composition_matches_parts(self, grid64, cosine64, unit_params):
        r = lg.record(cosine64, grid64, unit_params, int_v_dt=0.25,
                      lp_exponents=(1.0, 2.0), v_star=1.0, theta_star=0.9975)
        g, s, p = grid64, cosine64, unit_params
        assert r.entropy_E == lg.entropy(s, g, p)
        assert r.dissipation_V == lg.dissipation(s, g, p)
        assert r.mean_theta == lg.mean_theta(s, g)
        assert r.int_V_dt == 0.25
        assert r.h1_dev == lg.h1_deviation(s, g, 1.0, 0.9975)
        assert (r.min_v, r.max_v, r.min_theta, r.max_theta) == lg.extrema(s)
        assert r.lp_moments == {1.0: lg.inverse_temperature_moment(s, g, 1.0),
                                2.0: lg.inverse_temperature_moment(s, g, 2.0)}
        mass, energy = lg.check_normalization(s, g, p)
        assert (r.mass, r.total_energy) == (mass, energy)

    @pytest.mark.parametrize("beta", [0.5, 1.0, 2.5])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("n", [2, 256])
    def test_equals_public_helpers(self, beta, seed, n):
        # record shares its sums between fields; each field must still equal
        # what the helpers give on their own, bit for bit
        p = lg.PhysParams(beta=beta, R=0.9, c_v=1.3)
        g = lg.build_grid(n)
        s = lg.make_initial_data(
            lg.InitialSpec(kind="random_smooth", a_v=0.3, a_u=0.4, a_theta=0.2,
                           seed=seed), g, p.c_v)

        def grad_sq(values):
            d = np.diff(values)
            return float(np.sum(d * d) / g.dx)

        mass, energy = lg.check_normalization(s, g, p)
        min_v, max_v, min_th, max_th = lg.extrema(s)
        exponents = functionals.default_lp_exponents(p)
        expected = lg.DiagnosticsRecord(
            t=s.t, mass=mass, total_energy=energy, entropy_E=lg.entropy(s, g, p),
            dissipation_V=lg.dissipation(s, g, p), int_V_dt=0.5,
            mean_theta=lg.mean_theta(s, g), min_v=min_v, max_v=max_v,
            min_theta=min_th, max_theta=max_th, grad_v_sq=grad_sq(s.v),
            grad_u_sq=grad_sq(s.u), grad_theta_sq=grad_sq(s.theta),
            h1_dev=lg.h1_deviation(s, g, 1.01, 0.97), repr_err=1e-3, log_damping=-0.25,
            lp_moments={q: lg.inverse_temperature_moment(s, g, q) for q in exponents})
        got = lg.record(s, g, p, int_v_dt=0.5, repr_err=1e-3, log_damping=-0.25,
                        v_star=1.01, theta_star=0.97)
        for name in functionals.RECORD_FIELDS:
            assert repr(getattr(got, name)) == repr(getattr(expected, name)), name
        assert got == expected

    def test_default_moment_exponents(self):
        p = lg.PhysParams(beta=0.5)
        assert functionals.default_lp_exponents(p) == (0.5, 1.5, 2.0)
        p2 = lg.PhysParams(beta=1.0)
        assert functionals.default_lp_exponents(p2) == (1.0, 2.0)

    def test_default_moment_column_names_unique(self):
        # beta + 1 and 2 differ, but both print as lp_2
        p = lg.PhysParams(beta=1.0000001)
        assert functionals.default_lp_exponents(p) == (p.beta, p.beta + 1.0)

    @given(seed=st.integers(0, 1000))
    def test_entropy_and_dissipation_nonnegative(self, seed):
        g = lg.build_grid(16)
        p = lg.PhysParams(beta=1.5)
        s = lg.make_initial_data(
            lg.InitialSpec(kind="random_smooth", a_v=0.5, a_u=0.8,
                           a_theta=0.4, seed=seed), g)
        r = lg.record(s, g, p)
        assert r.entropy_E >= 0.0
        assert r.dissipation_V >= 0.0


class TestRecordsFrom:
    """``records_from`` computes the records of a block of states in one
    pass; row i equals ``record`` of state i, and each field its one-state
    helper, bit for bit."""

    @given(n=st.sampled_from([1, 2, 3, 64, 256, 4097]),
           beta=st.one_of(st.sampled_from([0.0, 6.0]), st.floats(0.0, 6.0)),
           R=st.floats(0.2, 5.0), c_v=st.floats(0.2, 5.0), mu=st.floats(0.2, 5.0),
           lp=st.one_of(st.none(), st.lists(st.floats(0.05, 8.0), min_size=1, max_size=4)),
           v_star=st.floats(0.5, 2.0), theta_star=st.floats(0.5, 2.0),
           rows=st.integers(1, 5), seed=st.integers(0, 2 ** 16))
    def test_rows_equal_one_state_records(self, n, beta, R, c_v, mu, lp, v_star,
                                          theta_star, rows, seed):
        p = lg.PhysParams(beta=beta, mu_tilde=mu, R=R, c_v=c_v)
        g = lg.build_grid(n)
        rng = np.random.default_rng(seed)
        states = []
        for i in range(rows):
            u = rng.normal(0.0, 0.5, n + 1)
            u[0] = u[-1] = 0.0
            states.append(make_state(rng.uniform(0.2, 3.0, n), u, rng.uniform(0.1, 4.0, n),
                                     t=0.37 * i))
        totals = [tuple(rng.normal(size=3).tolist()) for _ in states]
        block = functionals.records_from(
            np.array([s.v for s in states]), np.array([s.u for s in states]),
            np.array([s.theta for s in states]), [s.t for s in states], g, p,
            int_v_dt=[a for a, _, _ in totals], repr_err=[b for _, b, _ in totals],
            log_damping=[c for _, _, c in totals],
            dissipation_V=[lg.dissipation(s, g, p) for s in states],
            lp_exponents=lp, v_star=v_star, theta_star=theta_star)
        assert len(block) == rows
        exponents = functionals.default_lp_exponents(p) if lp is None else lp
        for s, (a, b, c), got in zip(states, totals, block):
            want = lg.record(s, g, p, int_v_dt=a, repr_err=b, log_damping=c,
                             lp_exponents=lp, v_star=v_star, theta_star=theta_star)
            for name in functionals.RECORD_FIELDS:
                assert repr(getattr(got, name)) == repr(getattr(want, name)), name
            assert repr(got.lp_moments) == repr(want.lp_moments)
            # and the one-state helpers, which reduce 1-D arrays
            mass, energy = lg.check_normalization(s, g, p)
            helpers = {
                "mass": mass, "total_energy": energy, "entropy_E": lg.entropy(s, g, p),
                "mean_theta": lg.mean_theta(s, g),
                "h1_dev": lg.h1_deviation(s, g, v_star, theta_star),
                **dict(zip(("min_v", "max_v", "min_theta", "max_theta"), lg.extrema(s)))}
            for name, value in helpers.items():
                assert repr(getattr(got, name)) == repr(value), name
            assert repr(got.lp_moments) == repr(
                {float(q): lg.inverse_temperature_moment(s, g, q) for q in exponents})

    def test_record_is_its_one_row_call(self, monkeypatch, grid64, cosine64, unit_params):
        calls = []
        records_from = functionals.records_from

        def counted(v, *args, **kwargs):
            calls.append(v.shape)
            return records_from(v, *args, **kwargs)

        monkeypatch.setattr(functionals, "records_from", counted)
        lg.record(cosine64, grid64, unit_params)
        assert calls == [(1, 64)]

    @pytest.mark.parametrize("kwargs, message", [
        ({"lp_exponents": (1.0, 0.0)}, "moment exponent must be positive"),
        ({"v_star": 0.0}, "reference values must be positive"),
        ({"lp_exponents": (float("nan"), float("inf"))}, "moment exponent"),
        ({"lp_exponents": (1.0, float("inf"))}, "moment exponent"),
        ({"v_star": float("nan")}, "reference values"),
        ({"theta_star": float("inf")}, "reference values")])
    def test_rejects_bad_arguments(self, grid64, cosine64, unit_params, kwargs, message):
        s = cosine64
        with pytest.raises(ValueError, match=message):
            functionals.records_from(s.v[None], s.u[None], s.theta[None], [0.0], grid64,
                                     unit_params, int_v_dt=[0.0], repr_err=[0.0],
                                     log_damping=[0.0], dissipation_V=[0.0], **kwargs)
