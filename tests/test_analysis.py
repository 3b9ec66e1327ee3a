import numpy as np
import pytest
from hypothesis import given, strategies as st
from scipy.optimize import brentq

import lagrangas as lg
from lagrangas.errors import InsufficientDataError, NoRootsError


class TestEntropyRoots:
    def test_minimum_point(self):
        assert lg.entropy_roots(1.0) == (1.0, 1.0)

    def test_below_minimum(self):
        with pytest.raises(NoRootsError):
            lg.entropy_roots(0.5)

    def test_non_finite(self):
        with pytest.raises(NoRootsError):
            lg.entropy_roots(float("nan"))

    def test_e0_two_back_substitution(self):
        a1, a2 = lg.entropy_roots(2.0)
        assert abs(a1 - np.log(a1) - 2.0) <= 1e-12
        assert abs(a2 - np.log(a2) - 2.0) <= 1e-12
        assert a1 == pytest.approx(0.15859, abs=1e-4)
        assert a2 == pytest.approx(3.14619, abs=1e-4)

    def test_against_scipy_brentq(self):
        for e0 in (1.5, 2.0, 3.7, 10.0):
            a1, a2 = lg.entropy_roots(e0)
            f = lambda x: x - np.log(x) - e0
            assert a1 == pytest.approx(brentq(f, 1e-300, 1.0, xtol=1e-15), rel=1e-10)
            assert a2 == pytest.approx(brentq(f, 1.0, 10 * e0, xtol=1e-12), rel=1e-10)

    @given(e0=st.floats(1.0 + 1e-9, 700.0))
    def test_residual_and_ordering(self, e0):
        a1, a2 = lg.entropy_roots(e0)
        assert 0.0 < a1 <= 1.0 <= a2
        assert abs(a1 - np.log(a1) - e0) <= 1e-12
        assert abs(a2 - np.log(a2) - e0) <= 1e-12

    def test_underflow_domain_guard(self):
        with pytest.raises(ValueError):
            lg.entropy_roots(710.0)

    @given(e0=st.floats(1.001, 500.0), bump=st.floats(0.01, 10.0))
    def test_monotone_in_e0(self, e0, bump):
        a1, a2 = lg.entropy_roots(e0)
        b1, b2 = lg.entropy_roots(e0 + bump)
        assert b1 < a1
        assert b2 > a2


class TestFitDecayRate:
    def test_exact_log_affine(self):
        t = np.linspace(0.0, 10.0, 50)
        norms = 3.0 * np.exp(-0.7 * t)
        fit = lg.fit_decay_rate(t, norms, (0.0, 10.0))
        assert fit.rate == pytest.approx(0.7, abs=1e-10)
        assert fit.r_squared == pytest.approx(1.0, abs=1e-10)
        assert fit.log_amplitude == pytest.approx(np.log(3.0), abs=1e-10)
        assert fit.n_samples == 50
        assert fit.n_excluded == 0

    def test_with_multiplicative_noise(self):
        rng = np.random.default_rng(123)
        t = np.linspace(0.0, 10.0, 50)
        norms = 3.0 * np.exp(-0.7 * t) * rng.uniform(0.95, 1.05, t.size)
        fit = lg.fit_decay_rate(t, norms, (0.0, 10.0))
        assert 0.6 <= fit.rate <= 0.8
        assert fit.r_squared >= 0.97

    def test_all_samples_at_floor(self):
        t = np.linspace(0.0, 1.0, 20)
        norms = np.full(20, 1e-14)
        with pytest.raises(InsufficientDataError):
            lg.fit_decay_rate(t, norms)

    def test_too_few_in_window(self):
        t = np.linspace(0.0, 1.0, 20)
        norms = np.exp(-t)
        with pytest.raises(InsufficientDataError):
            lg.fit_decay_rate(t, norms, (0.9, 1.0))

    def test_floor_exclusion_counted(self):
        t = np.linspace(0.0, 10.0, 20)
        norms = np.exp(-t)
        norms[-4:] = 1e-14
        fit = lg.fit_decay_rate(t, norms, (0.0, 10.0))
        assert fit.n_excluded == 4
        assert fit.n_samples == 16

    def test_default_window_is_second_half(self):
        t = np.linspace(0.0, 8.0, 40)
        norms = np.exp(-t)
        fit = lg.fit_decay_rate(t, norms)
        assert fit.window == (4.0, 8.0)

    def test_bad_window(self):
        t = np.linspace(0.0, 1.0, 10)
        with pytest.raises(ValueError):
            lg.fit_decay_rate(t, np.exp(-t), (1.0, 0.0))

    @given(scale=st.floats(1e-6, 1e6))
    def test_scaling_invariance(self, scale):
        t = np.linspace(0.0, 5.0, 30)
        rng = np.random.default_rng(7)
        norms = 2.0 * np.exp(-1.3 * t) * rng.uniform(0.9, 1.1, t.size)
        base = lg.fit_decay_rate(t, norms, (0.0, 5.0))
        scaled = lg.fit_decay_rate(t, scale * norms, (0.0, 5.0))
        assert scaled.rate == pytest.approx(base.rate, abs=1e-10)
        assert scaled.r_squared == pytest.approx(base.r_squared, abs=1e-10)
        assert scaled.log_amplitude - base.log_amplitude == pytest.approx(
            np.log(scale), abs=1e-9)


def fake_record(t, mean_theta=1.0, min_v=1.0, max_v=1.0, min_th=1.0, max_th=1.0):
    return lg.DiagnosticsRecord(
        t=t, mass=1.0, total_energy=1.0, entropy_E=2.0, dissipation_V=0.0,
        int_V_dt=0.0, mean_theta=mean_theta, min_v=min_v, max_v=max_v,
        min_theta=min_th, max_theta=max_th, grad_v_sq=0.0, grad_u_sq=0.0,
        grad_theta_sq=0.0, h1_dev=0.0, repr_err=0.0, log_damping=0.0,
        lp_moments={})


class TestBoundsCertificate:
    def test_equilibrium_records(self):
        records = [fake_record(t) for t in (0.0, 1.0, 2.0)]
        cert = lg.bounds_certificate(records, e0=2.0)
        assert cert.inf_v == cert.sup_v == 1.0
        assert cert.inf_theta == cert.sup_theta == 1.0
        assert cert.corridor_ok
        assert cert.t_range == (0.0, 2.0)

    def test_extrema_scan(self):
        records = [fake_record(0.0, min_v=0.8, max_v=1.3),
                   fake_record(1.0, min_v=0.6, max_th=1.5),
                   fake_record(2.0, max_v=2.0, min_th=0.7)]
        cert = lg.bounds_certificate(records, e0=2.0)
        assert cert.inf_v == 0.6
        assert cert.sup_v == 2.0
        assert cert.inf_theta == 0.7
        assert cert.sup_theta == 1.5

    def test_order_insensitive(self):
        records = [fake_record(t, min_v=1.0 - 0.01 * t) for t in range(5)]
        fwd = lg.bounds_certificate(records, e0=2.0)
        rev = lg.bounds_certificate(list(reversed(records)), e0=2.0)
        assert fwd == rev

    def test_corridor_violation(self):
        alpha1, _ = lg.entropy_roots(2.0)
        records = [fake_record(0.0), fake_record(1.0, mean_theta=alpha1 - 0.02)]
        cert = lg.bounds_certificate(records, e0=2.0)
        assert not cert.corridor_ok

    def test_empty_trajectory(self):
        with pytest.raises(ValueError):
            lg.bounds_certificate([], e0=2.0)

    def test_accepts_trajectory_object(self, grid64, equilibrium64, unit_params):
        traj = lg.advance(equilibrium64, unit_params, grid64,
                          lg.StepControls(dt=1e-3), 0.1, 0.05)
        cert = lg.bounds_certificate(traj, e0=2.0)
        assert cert.corridor_ok
        assert cert.inf_v == pytest.approx(1.0, abs=1e-13)


class TestConvergenceOrder:
    def test_quadratic(self):
        pairs = [(h, h * h) for h in (1 / 64, 1 / 128, 1 / 256)]
        assert lg.convergence_order(pairs) == pytest.approx(2.0, abs=1e-12)

    def test_linear(self):
        pairs = [(h, 5 * h) for h in (1 / 64, 1 / 128, 1 / 256)]
        assert lg.convergence_order(pairs) == pytest.approx(1.0, abs=1e-12)

    def test_too_few_levels(self):
        with pytest.raises(ValueError):
            lg.convergence_order([(0.1, 0.01), (0.05, 0.0025)])

    def test_non_monotone_h(self):
        with pytest.raises(ValueError):
            lg.convergence_order([(0.1, 1.0), (0.2, 2.0), (0.05, 0.5)])

    def test_non_positive_errors(self):
        with pytest.raises(ValueError):
            lg.convergence_order([(0.1, 1.0), (0.05, 0.0), (0.025, 0.1)])
