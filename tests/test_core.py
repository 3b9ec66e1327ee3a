from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, strategies as st

import lagrangas as lg
from lagrangas.errors import ConstructionError, FormatError, ParamError

from conftest import make_state


class TestBuildGrid:
    def test_four_cells(self):
        g = lg.build_grid(4)
        assert g.dx == 0.25
        assert np.array_equal(g.cell_centers, [0.125, 0.375, 0.625, 0.875])
        assert len(g.nodes) == 5
        assert np.array_equal(g.nodes, [0.0, 0.25, 0.5, 0.75, 1.0])

    def test_single_cell(self):
        g = lg.build_grid(1)
        assert g.dx == 1.0
        assert np.array_equal(g.cell_centers, [0.5])

    def test_zero_cells_rejected(self):
        with pytest.raises(ValueError):
            lg.build_grid(0)

    @pytest.mark.parametrize("n", [2, 3, 7, 100, 256, 1000])
    def test_width_times_count_is_one(self, n):
        g = lg.build_grid(n)
        assert abs(g.dx * g.n_cells - 1.0) <= 2.0 ** -50

    def test_node_weights(self):
        g = lg.build_grid(4)
        assert np.array_equal(g.node_weights, [0.5, 1, 1, 1, 0.5])


class TestValidateParams:
    # PhysParams checks its fields when it is built
    def test_ok(self):
        assert lg.PhysParams(beta=0.5).beta == 0.5

    def test_beta_zero_accepted(self):
        # the classical constant-conductivity case needs no flag
        assert lg.PhysParams(beta=0.0).beta == 0.0

    def test_negative_viscosity_names_field(self):
        with pytest.raises(ParamError) as exc:
            lg.PhysParams(beta=1.0, mu_tilde=-1.0)
        assert exc.value.field == "mu_tilde"

    @pytest.mark.parametrize("field", ["mu_tilde", "kappa_tilde", "R", "c_v"])
    def test_nonpositive_constants_rejected(self, field):
        with pytest.raises(ParamError) as exc:
            lg.PhysParams(beta=1.0, **{field: 0.0})
        assert exc.value.field == field

    def test_negative_beta_rejected(self):
        with pytest.raises(ParamError):
            lg.PhysParams(beta=-0.5)

    @pytest.mark.parametrize("beta, fields, field", [
        (-1.0, {}, "beta"),
        (1.0, {"mu_tilde": -0.5}, "mu_tilde"),
        (float("nan"), {}, "beta"),
        (float("inf"), {}, "beta"),
        (1.0, {"kappa_tilde": float("inf")}, "kappa_tilde"),
        (1.0, {"R": float("nan")}, "R"),
    ])
    def test_construction_names_the_field(self, beta, fields, field):
        with pytest.raises(ParamError) as exc:
            lg.PhysParams(beta=beta, **fields)
        assert exc.value.field == field

    def test_replace_checks_the_new_value(self):
        # a sweep derives its runs' parameters with dataclasses.replace
        with pytest.raises(ParamError) as exc:
            replace(lg.PhysParams(beta=1.0), beta=-1.0)
        assert exc.value.field == "beta"


class TestInitialSpec:
    # InitialSpec checks its fields when it is built; the grid-dependent
    # checks stay with the builders
    @pytest.mark.parametrize("fields, field", [
        ({"kind": "sawtooth"}, "kind"),
        ({"kind": "cosine", "a_v": float("nan")}, "a_v"),
        ({"kind": "cosine", "a_u": float("inf")}, "a_u"),
        ({"kind": "cosine", "a_theta": -float("inf")}, "a_theta"),
        ({"kind": "cosine", "a_v": -1.0}, "a_v"),
        ({"kind": "cosine", "k": 0}, "k"),
        ({"kind": "random_smooth", "seed": -1}, "seed"),
    ])
    def test_construction_names_the_field(self, fields, field):
        with pytest.raises(ConstructionError) as exc:
            lg.InitialSpec(**fields)
        assert exc.value.field == field

    def test_builder_failures_name_no_field(self):
        with pytest.raises(ConstructionError) as exc:
            lg.make_initial_data(lg.InitialSpec(kind="cosine", a_theta=1.0), lg.build_grid(8))
        assert exc.value.field is None

    @pytest.mark.parametrize("kind", ["equilibrium", "cosine", "random_smooth"])
    @pytest.mark.parametrize("c_v", [float("nan"), float("inf"), 0.0, -1.0])
    def test_heat_capacity_must_be_positive_and_finite(self, kind, c_v):
        # a NaN c_v used to pass the builders' positivity check and give a
        # temperature of NaN in every cell
        spec = lg.InitialSpec(kind=kind, a_v=0.1, a_theta=0.1)
        with pytest.raises(ConstructionError) as exc:
            lg.make_initial_data(spec, lg.build_grid(8), c_v=c_v)
        assert exc.value.field == "c_v"


class TestEquilibriumBuilder:
    def test_exact_constant_state(self, grid64, equilibrium64):
        assert np.array_equal(equilibrium64.v, np.ones(64))
        assert np.array_equal(equilibrium64.u, np.zeros(65))
        assert np.array_equal(equilibrium64.theta, np.ones(64))
        assert equilibrium64.t == 0.0

    def test_zero_amplitude_cosine_matches_bitwise(self, grid64, equilibrium64):
        zero = lg.make_initial_data(
            lg.InitialSpec(kind="cosine", a_v=0.0, a_u=0.0, a_theta=0.0), grid64)
        assert np.array_equal(zero.v, equilibrium64.v)
        assert np.array_equal(zero.u, equilibrium64.u)
        assert np.array_equal(zero.theta, equilibrium64.theta)


class TestCosineBuilder:
    def test_four_cell_profile(self):
        g = lg.build_grid(4)
        s = lg.make_initial_data(lg.InitialSpec(kind="cosine", a_v=0.1), g)
        expected = 1.0 + 0.1 * np.cos(2.0 * np.pi * g.cell_centers)
        assert np.array_equal(s.v, expected)
        assert abs(np.sum(s.v) * g.dx - 1.0) < 1e-15

    def test_overlarge_volume_amplitude(self, grid64):
        with pytest.raises(ConstructionError):
            lg.make_initial_data(lg.InitialSpec(kind="cosine", a_v=1.5), grid64)

    def test_overlarge_temperature_amplitude(self, grid64):
        with pytest.raises(ConstructionError):
            lg.make_initial_data(lg.InitialSpec(kind="cosine", a_theta=1.0), grid64)

    def test_velocity_eats_all_energy(self, grid64):
        with pytest.raises(ConstructionError):
            lg.make_initial_data(lg.InitialSpec(kind="cosine", a_u=2.5), grid64)

    def test_unknown_kind(self, grid64):
        with pytest.raises(ConstructionError):
            lg.make_initial_data(lg.InitialSpec(kind="sawtooth"), grid64)

    def test_aliased_wavenumber_rejected(self):
        g = lg.build_grid(3)
        with pytest.raises(ConstructionError):
            lg.make_initial_data(lg.InitialSpec(kind="cosine", a_v=0.5, k=3), g)

    @given(a_v=st.floats(-0.9, 0.9), a_u=st.floats(-1.0, 1.0),
           a_theta=st.floats(-0.3, 0.3), k=st.integers(1, 4),
           n=st.integers(5, 80))
    def test_positivity_boundaries_normalization(self, a_v, a_u, a_theta, k, n):
        g = lg.build_grid(n)
        p = lg.PhysParams(beta=1.0)
        s = lg.make_initial_data(
            lg.InitialSpec(kind="cosine", a_v=a_v, a_u=a_u, a_theta=a_theta, k=k), g)
        assert s.v.min() > 0.0
        assert s.theta.min() > 0.0
        assert s.u[0] == 0.0 and s.u[-1] == 0.0
        mass, energy = lg.check_normalization(s, g, p)
        assert mass == pytest.approx(1.0, abs=1e-12)
        assert energy == pytest.approx(1.0, abs=1e-12)

    def test_general_heat_capacity_keeps_energy_one(self):
        g = lg.build_grid(32)
        p = lg.PhysParams(beta=1.0, c_v=2.5)
        s = lg.make_initial_data(
            lg.InitialSpec(kind="cosine", a_v=0.1, a_u=0.3, a_theta=0.05), g,
            c_v=p.c_v)
        mass, energy = lg.check_normalization(s, g, p)
        assert mass == pytest.approx(1.0, abs=1e-12)
        assert energy == pytest.approx(1.0, abs=1e-12)


class TestRandomSmoothBuilder:
    def test_seed_determinism(self, grid64):
        spec = lg.InitialSpec(kind="random_smooth", a_v=0.2, a_u=0.1,
                              a_theta=0.15, seed=42)
        a = lg.make_initial_data(spec, grid64)
        b = lg.make_initial_data(spec, grid64)
        assert np.array_equal(a.v, b.v)
        assert np.array_equal(a.u, b.u)
        assert np.array_equal(a.theta, b.theta)

    def test_seed_sensitivity(self, grid64):
        base = lg.InitialSpec(kind="random_smooth", a_v=0.2, a_u=0.1,
                              a_theta=0.15, seed=1)
        other = lg.InitialSpec(kind="random_smooth", a_v=0.2, a_u=0.1,
                               a_theta=0.15, seed=2)
        a = lg.make_initial_data(base, grid64)
        b = lg.make_initial_data(other, grid64)
        assert not np.array_equal(a.v, b.v)

    @given(seed=st.integers(0, 2 ** 16), n=st.integers(4, 128))
    def test_valid_normalized_data(self, seed, n):
        g = lg.build_grid(n)
        s = lg.make_initial_data(
            lg.InitialSpec(kind="random_smooth", a_v=0.3, a_u=0.2,
                           a_theta=0.2, seed=seed), g)
        assert s.v.min() > 0.0 and s.theta.min() > 0.0
        assert s.u[0] == 0.0 and s.u[-1] == 0.0
        mass, energy = lg.check_normalization(s, g, lg.PhysParams(beta=1.0))
        assert mass == pytest.approx(1.0, abs=1e-12)
        assert energy == pytest.approx(1.0, abs=1e-12)

    def test_amplitudes_attained(self, grid64):
        s = lg.make_initial_data(
            lg.InitialSpec(kind="random_smooth", a_v=0.25, a_u=0.0,
                           a_theta=0.0, seed=3), grid64)
        assert np.max(np.abs(s.v - 1.0)) == pytest.approx(0.25, rel=1e-12)


class TestCustomTable:
    TEXT = "x v u theta\n0 1.0 0.0 1.0\n0.5 1.2 0.3 0.9\n1 1.0 0.0 1.1\n"

    def test_parse(self):
        rows = lg.parse_table(self.TEXT)
        assert rows == ((0.0, 1.0, 0.0, 1.0), (0.5, 1.2, 0.3, 0.9),
                        (1.0, 1.0, 0.0, 1.1))

    def test_bad_header(self):
        with pytest.raises(FormatError):
            lg.parse_table("x v u T\n0 1 0 1\n")

    def test_wrong_column_count(self):
        with pytest.raises(FormatError):
            lg.parse_table("x v u theta\n0 1 0\n")

    def test_non_numeric(self):
        with pytest.raises(FormatError):
            lg.parse_table("x v u theta\n0 one 0 1\n")

    def test_non_monotone_x(self):
        g = lg.build_grid(8)
        rows = ((0.0, 1, 0, 1), (0.6, 1, 0, 1), (0.4, 1, 0, 1))
        with pytest.raises(FormatError):
            lg.make_initial_data(lg.InitialSpec(kind="custom_table", table=rows), g)

    def test_interpolation(self):
        g = lg.build_grid(4)
        rows = lg.parse_table(self.TEXT)
        s = lg.make_initial_data(lg.InitialSpec(kind="custom_table", table=rows), g)
        assert s.v[0] == pytest.approx(1.0 + 0.2 * 0.125 / 0.5)
        assert s.u[0] == 0.0 and s.u[-1] == 0.0
        assert s.u[2] == pytest.approx(0.3)

    def test_positivity_violation(self):
        g = lg.build_grid(8)
        rows = ((0.0, 1.0, 0.0, 1.0), (1.0, -1.0, 0.0, 1.0))
        with pytest.raises(ConstructionError):
            lg.make_initial_data(lg.InitialSpec(kind="custom_table", table=rows), g)

    def test_load_from_file(self, tmp_path):
        path = tmp_path / "table.txt"
        path.write_text(self.TEXT)
        g = lg.build_grid(8)
        s = lg.make_initial_data(
            lg.InitialSpec(kind="custom_table", table_path=str(path)), g)
        assert s.theta.min() > 0.0


class TestCheckNormalization:
    def test_equilibrium(self, grid64, equilibrium64, unit_params):
        assert lg.check_normalization(equilibrium64, grid64, unit_params) == (1.0, 1.0)

    def test_doubled_volume(self, grid64, unit_params):
        s = make_state(2 * np.ones(64), np.zeros(65), np.ones(64))
        mass, energy = lg.check_normalization(s, grid64, unit_params)
        assert mass == pytest.approx(2.0)
        assert energy == pytest.approx(1.0)

    def test_cosine_builder_contract(self, grid64, cosine64, unit_params):
        mass, energy = lg.check_normalization(cosine64, grid64, unit_params)
        assert mass == pytest.approx(1.0, abs=1e-12)
        assert energy == pytest.approx(1.0, abs=1e-12)


class TestValidateState:
    def test_accepts_builder_output(self, grid64, cosine64):
        lg.validate_state(cosine64, grid64)

    def test_boundary_velocity(self, grid64):
        u = np.zeros(65)
        u[0] = 1e-30
        s = make_state(np.ones(64), u, np.ones(64))
        with pytest.raises(ConstructionError):
            lg.validate_state(s, grid64)

    def test_nonpositive_volume(self, grid64):
        v = np.ones(64)
        v[3] = 0.0
        s = make_state(v, np.zeros(65), np.ones(64))
        with pytest.raises(ConstructionError):
            lg.validate_state(s, grid64)

    def test_length_mismatch(self, grid64):
        s = make_state(np.ones(32), np.zeros(33), np.ones(32))
        with pytest.raises(ConstructionError):
            lg.validate_state(s, grid64)

    def test_non_finite(self, grid64):
        th = np.ones(64)
        th[0] = np.nan
        s = make_state(np.ones(64), np.zeros(65), th)
        with pytest.raises(ConstructionError):
            lg.validate_state(s, grid64)


class TestStateImmutability:
    def test_arrays_frozen(self, cosine64):
        with pytest.raises(ValueError):
            cosine64.v[0] = 2.0

    def test_caller_array_untouched(self):
        v = np.ones(4)
        make_state(v, np.zeros(5), np.ones(4))
        v[0] = 3.0  # must not raise: the state took a private copy
