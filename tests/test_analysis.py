import json
from dataclasses import asdict

import numpy as np
import pytest
from hypothesis import given, strategies as st
from scipy.optimize import brentq

import lagrangas as lg
from lagrangas import acceptance, analysis, cli
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


def fake_record(t, mean_theta=1.0, min_v=1.0, max_v=1.0, min_th=1.0, max_th=1.0,
                entropy=2.0):
    return lg.DiagnosticsRecord(
        t=t, mass=1.0, total_energy=1.0, entropy_E=entropy, dissipation_V=0.0,
        int_V_dt=0.0, mean_theta=mean_theta, min_v=min_v, max_v=max_v,
        min_theta=min_th, max_theta=max_th, grad_v_sq=0.0, grad_u_sq=0.0,
        grad_theta_sq=0.0, h1_dev=0.0, repr_err=0.0, log_damping=0.0,
        lp_moments={})


class TestBoundsCertificate:
    """The bound certificate of ``reduce_records``: the extrema of v and
    theta, and whether the mean temperature stayed in its corridor."""

    def test_equilibrium_records(self):
        records = [fake_record(t) for t in (0.0, 1.0, 2.0)]
        reduced = analysis.reduce_records(records)
        assert reduced.inf_v == reduced.sup_v == 1.0
        assert reduced.inf_theta == reduced.sup_theta == 1.0
        assert reduced.corridor_ok is True

    def test_extrema_scan(self):
        records = [fake_record(0.0, min_v=0.8, max_v=1.3),
                   fake_record(1.0, min_v=0.6, max_th=1.5),
                   fake_record(2.0, max_v=2.0, min_th=0.7)]
        reduced = analysis.reduce_records(records)
        assert reduced.inf_v == 0.6
        assert reduced.sup_v == 2.0
        assert reduced.inf_theta == 0.7
        assert reduced.sup_theta == 1.5

    def test_order_insensitive(self):
        records = [fake_record(t, min_v=1.0 - 0.01 * t) for t in range(5)]
        fwd = analysis.reduce_records(records)
        rev = analysis.reduce_records(list(reversed(records)))
        for name in ("inf_v", "sup_v", "inf_theta", "sup_theta", "corridor_ok"):
            assert getattr(fwd, name) == getattr(rev, name)

    def test_corridor_violation(self):
        alpha1, _ = lg.entropy_roots(2.0)
        records = [fake_record(0.0), fake_record(1.0, mean_theta=alpha1 - 0.02)]
        assert analysis.reduce_records(records).corridor_ok is False

    def test_empty_trajectory(self):
        with pytest.raises(ValueError):
            analysis.reduce_records([])

    def test_accepts_trajectory_object(self, grid64, equilibrium64, unit_params):
        traj = lg.advance(equilibrium64, unit_params, grid64,
                          lg.StepControls(dt=1e-3), 0.1, 0.05)
        reduced = analysis.reduce_records(traj)
        assert reduced.corridor_ok is True
        assert reduced.inf_v == pytest.approx(1.0, abs=1e-13)

    @pytest.mark.parametrize("e0", [0.5, 710.0])
    def test_no_certificate_outside_the_roots_domain(self, e0):
        # E0 is the first record's entropy
        records = [fake_record(0.0, min_v=0.8, entropy=e0), fake_record(1.0, max_th=1.5)]
        reduced = analysis.reduce_records(records)
        assert reduced.corridor is None and reduced.corridor_ok is None
        assert (reduced.inf_v, reduced.sup_theta) == (0.8, 1.5)


class TestReduceRecords:
    """The reduction against the column formulas the criteria used before
    they read it, on the full records and on a time prefix of them."""

    # beta 2.5 tracks three moments; mass and energy start at exactly 1
    CONFIG = ("beta = 2.5\ninit.kind = cosine\nn_cells = 256\ndt = 1e-3\n"
              "t_end = 1.5\nsample_every = 0.1\n")

    @pytest.fixture(scope="class")
    def records(self):
        return cli._execute(cli.parse_config(self.CONFIG)).records

    @pytest.mark.parametrize("t_max", [None, 1.0])
    def test_matches_column_formulas(self, records, t_max):
        sub = records if t_max is None else acceptance._until(records, t_max)
        assert len(sub) == (16 if t_max is None else 11)

        def col(name):
            return np.array([getattr(r, name) for r in sub])

        red = analysis.reduce_records(sub)
        # criterion 1
        assert (sub[0].mass, sub[0].total_energy) == (1.0, 1.0)
        assert red.mass_drift == np.max(np.abs(col("mass") - 1.0))
        assert red.energy_drift_rel == np.max(np.abs(col("total_energy") - 1.0))
        # criterion 2
        q = col("entropy_E") + col("int_V_dt")
        assert red.entropy_budget_defect == np.max(np.abs(q - q[0]))
        assert red.budget_max_increment == np.max(np.diff(q), initial=0.0)
        # criterion 3
        alpha1, _ = lg.entropy_roots(sub[0].entropy_E)
        assert red.corridor == (alpha1 - 0.01, 1.0 + 0.01)
        th_lo, th_hi = np.min(col("mean_theta")), np.max(col("mean_theta"))
        assert red.mean_theta_range == (th_lo, th_hi)
        assert red.corridor_ok == (th_lo >= alpha1 - 0.01 and th_hi <= 1.01)
        # criterion 4
        assert (red.inf_v, red.sup_v, red.inf_theta, red.sup_theta) == (
            np.min(col("min_v")), np.max(col("max_v")),
            np.min(col("min_theta")), np.max(col("max_theta")))
        # criterion 6, which left out the sample at t = 0
        t = col("t")
        assert red.repr_err_max == np.max(col("repr_err")[t > 0.0])
        # criterion 9
        assert list(red.lp_sup) == [2.5, 3.5, 2.0]
        assert red.lp_sup == {q: np.max([r.lp_moments[q] for r in sub]) for q in red.lp_sup}

    def test_prefix_keeps_the_sample_meant_for_its_end(self, records):
        # sample times are sums of steps: the one meant for 1.2 is above it
        assert records[12].t > 1.2
        assert acceptance._until(records, 1.2) == records[:13]

    def test_summary_holds_the_reduction(self, tmp_path):
        summary, traj = cli._run_with_outputs(cli.parse_config(self.CONFIG), tmp_path)
        reduced = vars(analysis.reduce_records(traj))
        assert {name: getattr(summary, name) for name in reduced} == reduced

    def test_summary_json_holds_each_field_once(self, tmp_path):
        # every field of the reduction at top level, and no nested copy
        _, traj = cli._run_with_outputs(cli.parse_config(self.CONFIG), tmp_path)
        blob = json.loads((tmp_path / "summary.json").read_text(encoding="utf-8"))
        reduced = json.loads(json.dumps(asdict(analysis.reduce_records(traj))))
        assert {name: blob[name] for name in reduced} == reduced
        assert "bounds" not in blob


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
