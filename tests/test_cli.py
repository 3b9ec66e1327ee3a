import json
import math
import os
import string
import tempfile
import time
from dataclasses import replace
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

import lagrangas as lg
from lagrangas import acceptance, cli, solver
from lagrangas.errors import ConfigError, ConstructionError, ParamError, SimulationFailure

from conftest import make_state, tridiag_breaking_after

MINIMAL = "beta=1\ninit.kind=cosine\nn_cells=256\ndt=1e-4\nt_end=20\n"

QUICK = """
beta = 1
init.kind = cosine
init.a_v = 0.1
init.a_u = 0.1
init.a_theta = 0.1
n_cells = 32
dt = 1e-3
t_end = 0.5
sample_every = 0.1
seed = 0
"""

# mean temperature about 1/c_v, so E0 = 6914.8: the lower root of
# x - ln x = E0 underflows and the run has no mean-temperature corridor
HOT_GAS = """
init.kind = cosine
c_v = 1000
init.a_theta = 1e-4
n_cells = 16
t_end = 0.01
dt = 1e-3
sample_every = 0.005
"""

EQUILIBRIUM_QUICK = """
init.kind = equilibrium
n_cells = 16
dt = 1e-3
t_end = 0.3
sample_every = 0.1
"""

# path-like words for out_dir and table paths
_WORDS = st.text(alphabet=string.ascii_letters + string.digits + "/._-:=", min_size=1)

_TEST_PID = os.getpid()
_sweep_worker = cli._sweep_worker


def _worker_dying_in_child(args):
    """A sweep worker whose process dies unless it is the test process."""
    if os.getpid() != _TEST_PID:
        os._exit(1)
    return _sweep_worker(args)


def _worker_dying_after_beta_half(cfg):
    """A sweep worker whose beta 1.5 job kills its process once the beta 0.5
    job has written its summary and had time to hand its row back."""
    if cfg.params.beta == 1.5 and os.getpid() != _TEST_PID:
        done = Path(cfg.out_dir).parent / "beta_0.5" / "summary.json"
        deadline = time.monotonic() + 60.0
        while not done.exists() and time.monotonic() < deadline:
            time.sleep(0.02)
        time.sleep(1.0)
        os._exit(1)
    return _sweep_worker(cfg)


class _Started(Exception):
    pass


class TestParseConfig:
    def test_minimal_with_defaults(self):
        cfg = cli.parse_config(MINIMAL)
        assert cfg.params == lg.PhysParams(beta=1.0)
        assert cfg.initial.kind == "cosine"
        assert cfg.initial.a_v == 0.1
        assert cfg.n_cells == 256
        assert cfg.dt == 1e-4
        assert cfg.t_end == 20.0
        assert cfg.sample_every == 0.1
        assert cfg.scheme == "imex_be"
        assert cfg.lp_exponents is None
        assert cfg.fit_window is None
        assert cfg.seed == 0

    def test_comments_and_blanks(self):
        cfg = cli.parse_config("# a comment\n\nbeta = 2\n")
        assert cfg.params.beta == 2.0

    def test_unknown_key_with_line(self):
        with pytest.raises(ConfigError) as exc:
            cli.parse_config("beta = 1\nbetta = 1\n")
        assert exc.value.key == "betta"
        assert exc.value.line == 2

    def test_negative_beta(self):
        with pytest.raises(ConfigError) as exc:
            cli.parse_config("beta = -1\n")
        assert exc.value.key == "beta"

    def test_beta_zero_allowed(self):
        cfg = cli.parse_config("beta = 0\n")
        assert cfg.params.beta == 0.0

    def test_unparsable_value(self):
        with pytest.raises(ConfigError) as exc:
            cli.parse_config("dt = fast\n")
        assert exc.value.key == "dt"

    def test_duplicate_key(self):
        with pytest.raises(ConfigError):
            cli.parse_config("beta = 1\nbeta = 2\n")

    def test_missing_equals(self):
        with pytest.raises(ConfigError) as exc:
            cli.parse_config("beta 1\n")
        assert exc.value.line == 1

    def test_times_must_be_finite(self):
        # t_end = inf ran zero steps and exited 0; sample_every = nan never ended
        for key in ("dt", "t_end", "sample_every"):
            for value in ("nan", "inf"):
                with pytest.raises(ConfigError) as exc:
                    cli.parse_config(f"{key} = {value}\n")
                assert exc.value.key == key

    @given(key=st.sampled_from(("dt", "t_end", "sample_every")), value=st.floats())
    @example(key="sample_every", value=math.nan)
    @example(key="t_end", value=math.inf)
    @example(key="dt", value=math.nan)
    @example(key="dt", value=math.inf)
    def test_solver_rejects_the_same_times(self, key, value):
        # StepControls and advance refuse, before the first step, exactly the
        # values the config refuses; a run that passes the checks stops at
        # the first call after them. Both sides get the same three times,
        # since the cadence's floor scales with t_end.
        times = {"dt": 1e-3, "t_end": 1.0, "sample_every": 0.5}
        times[key] = value
        try:
            cli.parse_config("".join(f"{k} = {v!r}\n" for k, v in times.items()))
            accepted = True
        except ConfigError:
            accepted = False
        g = lg.build_grid(2)
        s0 = lg.make_initial_data(lg.InitialSpec(kind="equilibrium"), g)

        def started(*args):
            raise _Started

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(solver, "check_normalization", started)
            try:
                controls = solver.StepControls(dt=times["dt"])
                solver.advance(s0, lg.PhysParams(beta=1.0), g, controls, times["t_end"],
                               times["sample_every"])
            except ValueError:
                assert not accepted
            except _Started:
                assert accepted

    @given(params=st.tuples(*[st.floats() | st.floats(0.0, 3.0)] * 5),
           kind=st.sampled_from(lg.InitialSpec.KINDS + ("sawtooth",)),
           amplitudes=st.tuples(*[st.floats() | st.floats(-1.5, 1.5)] * 3),
           k=st.integers(-1, 3), seed=st.integers(-2, 2 ** 40))
    @example(params=(1.0, 1.0, 1.0, 1.0, 1.0), kind="cosine",
             amplitudes=(math.nan, 0.0, 0.0), k=1, seed=0)
    @example(params=(1.0, 1.0, 1.0, 1.0, 1.0), kind="random_smooth",
             amplitudes=(0.0, 0.0, 0.0), k=1, seed=-1)
    @example(params=(-1.0, -0.5, 1.0, 1.0, 1.0), kind="cosine",
             amplitudes=(0.0, 0.0, 0.0), k=0, seed=0)
    def test_types_reject_the_same_values(self, params, kind, amplitudes, k, seed):
        # the config refuses exactly what PhysParams and InitialSpec refuse,
        # on the key, and the line, of the field the type's error names
        values = dict(zip(("beta", "mu", "kappa", "R", "c_v"), params),
                      **{"init.kind": kind, "init.k": k, "seed": seed},
                      **dict(zip(("init.a_v", "init.a_u", "init.a_theta"), amplitudes)))
        text = "".join(f"{key} = {value!r}\n".replace("'", "") for key, value in values.items())
        keys = {"mu_tilde": "mu", "kappa_tilde": "kappa", "kind": "init.kind", "k": "init.k",
                "a_v": "init.a_v", "a_u": "init.a_u", "a_theta": "init.a_theta"}
        try:
            lg.PhysParams(*params)
            lg.InitialSpec(kind, *amplitudes, k=k, seed=seed)
            refused = None
        except (ParamError, ConstructionError) as exc:
            refused = keys.get(exc.field, exc.field)
        try:
            cli.parse_config(text)
        except ConfigError as exc:
            assert refused is not None
            assert (exc.key, exc.line) == (refused, list(values).index(refused) + 1)
        else:
            assert refused is None

    def test_sample_every_below_time_tolerance(self, tmp_path):
        # 1e-300 was accepted, and the run never returned: after each sample
        # the driver passed the sample times near its landing one at a time
        for value in ("1e-300", "9e-13", "-1e-12"):
            with pytest.raises(ConfigError) as exc:
                cli.parse_config(f"sample_every = {value}\n")
            assert exc.value.key == "sample_every"
        assert cli.parse_config("t_end = 1\nsample_every = 1e-12\n").sample_every == 1e-12
        path = tmp_path / "cfg.txt"
        path.write_text("n_cells = 8\nt_end = 0.01\nsample_every = 1e-300\n")
        assert cli.main(["run", "--config", str(path), "--out", str(tmp_path / "o")]) == 2
        assert not (tmp_path / "o").exists()

    def test_sample_every_floor_scales_with_t_end(self):
        # the floor is the driver's time tolerance, 5e-11 at the default
        # t_end = 50
        with pytest.raises(ConfigError) as exc:
            cli.parse_config("sample_every = 1e-11\n")
        assert exc.value.key == "sample_every"
        assert cli.parse_config("sample_every = 5e-11\n").sample_every == 5e-11

    def test_bad_scheme(self):
        with pytest.raises(ConfigError):
            cli.parse_config("scheme = leapfrog\n")

    def test_single_cell(self):
        with pytest.raises(ConfigError):
            cli.parse_config("n_cells = 1\n")

    def test_overlarge_amplitude(self):
        with pytest.raises(ConfigError) as exc:
            cli.parse_config("init.a_v = 1.5\n")
        assert exc.value.key == "init.a_v"

    def test_negative_seed(self):
        with pytest.raises(ConfigError) as exc:
            cli.parse_config("beta = 1\nseed = -1\n")
        assert exc.value.key == "seed"
        assert exc.value.line == 2

    def test_amplitudes_must_be_finite(self):
        for key in ("init.a_v", "init.a_u", "init.a_theta"):
            for value in ("nan", "inf", "-inf"):
                with pytest.raises(ConfigError) as exc:
                    cli.parse_config(f"init.kind = cosine\n{key} = {value}\n")
                assert exc.value.key == key
                assert exc.value.line == 2

    def test_lp_list(self):
        cfg = cli.parse_config("lp = 0.5,1,2\n")
        assert cfg.lp_exponents == (0.5, 1.0, 2.0)

    def test_lp_rejects_nonpositive(self):
        with pytest.raises(ConfigError):
            cli.parse_config("lp = 1,0\n")

    def test_lp_rejects_repeats(self):
        # the moments are keyed by exponent, so a repeat would drop a column
        with pytest.raises(ConfigError) as exc:
            cli.parse_config("lp = 2,0.5,2.0\n")
        assert exc.value.key == "lp"

    def test_lp_rejects_non_finite(self):
        for text in ("nan", "inf", "1,nan", "2,inf"):
            with pytest.raises(ConfigError) as exc:
                cli.parse_config(f"lp = {text}\n")
            assert exc.value.key == "lp"

    def test_lp_rejects_colliding_column_names(self):
        # both would be written as column lp_1
        with pytest.raises(ConfigError) as exc:
            cli.parse_config("lp = 1.0000001,1.0000002\n")
        assert exc.value.key == "lp"

    def test_fit_window(self):
        cfg = cli.parse_config("fit_window = 10,20\n")
        assert cfg.fit_window == (10.0, 20.0)

    def test_fit_window_ordering(self):
        with pytest.raises(ConfigError):
            cli.parse_config("fit_window = 20,10\n")

    def test_custom_table_path(self):
        cfg = cli.parse_config("init.kind = custom_table:snapshots/snap_5.txt\n")
        assert cfg.initial.kind == "custom_table"
        assert cfg.initial.table_path == "snapshots/snap_5.txt"

    def test_round_trip(self):
        for text in (MINIMAL, QUICK, "beta = 0.5\nlp = 0.5,2\nfit_window = 1,2\n",
                     "init.kind = custom_table:x.txt\nseed = 9\n"):
            cfg = cli.parse_config(text)
            again = cli.parse_config(cli.serialize_config(cfg))
            assert again == cfg

    @given(st.data())
    def test_round_trip_exact_floats(self, data):
        draw = data.draw
        lp = draw(st.none() | st.lists(st.floats(1e-3, 100.0), min_size=1, max_size=4,
                                       unique_by=lambda q: f"{q:g}"))
        window = draw(st.none() | st.lists(st.floats(-1e3, 1e3), min_size=2, max_size=2,
                                           unique=True).map(sorted))
        kind = draw(st.sampled_from(("equilibrium", "cosine", "random_smooth", "custom_table"))
                    | _WORDS.map(lambda path: f"custom_table:{path}"))
        positive = st.floats(1e-6, 1e6)
        values = {
            "beta": draw(st.floats(0.0, 10.0)), "mu": draw(positive),
            "kappa": draw(positive), "R": draw(positive), "c_v": draw(positive),
            "init.kind": kind, "init.a_v": draw(st.floats(-0.999, 0.999)),
            "init.a_u": draw(st.floats(-10.0, 10.0)),
            "init.a_theta": draw(st.floats(-10.0, 10.0)),
            "init.k": draw(st.integers(1, 1000)), "n_cells": draw(st.integers(2, 10 ** 6)),
            "dt": draw(st.floats(1e-8, 1.0)), "scheme": draw(st.sampled_from(solver.SCHEMES)),
            "t_end": draw(st.floats(1e-3, 1e3)), "sample_every": draw(st.floats(1e-6, 1e3)),
            "out_dir": draw(_WORDS), "seed": draw(st.integers(0, 2 ** 31)),
        }
        text = "".join(f"{key} = {value!r}\n" if isinstance(value, float)
                       else f"{key} = {value}\n" for key, value in values.items())
        if lp is not None:
            text += "lp = " + ",".join(map(repr, lp)) + "\n"
        if window is not None:
            text += "fit_window = " + ",".join(map(repr, window)) + "\n"
        cfg = cli.parse_config(text)
        again = cli.parse_config(cli.serialize_config(cfg))
        assert again == cfg
        assert again.dt == values["dt"] and again.t_end == values["t_end"]
        assert again.params.c_v == values["c_v"] and again.out_dir == values["out_dir"]
        assert again.lp_exponents == (None if lp is None else tuple(lp))
        assert again.fit_window == (None if window is None else tuple(window))
        if kind.startswith("custom_table:"):
            assert again.initial.table_path == kind.partition(":")[2]


# nan, infinities, signed zeros, subnormals, the extremes and a few
# ordinary values
SPECIAL_FLOATS = [math.nan, math.inf, -math.inf, -0.0, 0.0, 5e-324, -1e-310,
                  2.2250738585072009e-308, 2.2250738585072014e-308, 1.7976931348623157e308,
                  0.1, 1.0 / 3.0, -2.5, 1e22, 123456789.0]


def test_csv_text_renders_each_value_as_fmt():
    # one "%" format per row gives the bytes of _fmt per value, for Python
    # floats and numpy scalars alike
    names = cli.CSV_COLUMNS
    records = []
    for i in range(len(SPECIAL_FLOATS)):
        vals = [SPECIAL_FLOATS[(i + j) % len(SPECIAL_FLOATS)] for j in range(len(names) + 2)]
        fields = dict(zip(names, vals))
        fields["t"] = np.float64(fields["t"])
        records.append(lg.DiagnosticsRecord(
            **fields, log_damping=0.0,
            lp_moments={0.5: np.float64(vals[-2]), 2.0: vals[-1]}))
    lines = cli._csv_text(SimpleNamespace(records=records)).split("\n")
    assert lines[0] == ",".join(names) + ",lp_0.5,lp_2"
    assert lines[-1] == "" and len(lines) == len(records) + 2
    for line, rec in zip(lines[1:], records):
        vals = [getattr(rec, name) for name in names] + [rec.lp_moments[0.5],
                                                        rec.lp_moments[2.0]]
        assert line == ",".join(cli._fmt(v) for v in vals)


class TestRunScenario:
    def test_equilibrium_run(self, tmp_path):
        cfg = cli.parse_config(EQUILIBRIUM_QUICK)
        summary = cli.run_scenario(cfg, tmp_path / "out")
        assert summary.already_at_equilibrium
        assert summary.decay_fit is None
        assert "insufficient-data" in summary.decay_fit_note
        assert summary.mass_drift <= 1e-13
        csv = (tmp_path / "out" / "timeseries.csv").read_text().splitlines()
        header = csv[0].split(",")
        assert header[:16] == list(cli.CSV_COLUMNS)
        h1_col = header.index("h1_dev")
        assert all(float(line.split(",")[h1_col]) <= 1e-12 for line in csv[1:])

    def test_cosine_outputs(self, tmp_path):
        cfg = cli.parse_config(QUICK)
        summary, traj = cli._run_with_outputs(cfg, tmp_path / "out")
        out = tmp_path / "out"
        assert (out / "timeseries.csv").exists()
        assert (out / "snap_0.txt").exists()
        assert (out / "snap_0.5.txt").exists()
        assert (out / "summary.json").exists()
        assert not summary.failed
        assert summary.normalized
        assert summary.corridor_ok
        lines = (out / "timeseries.csv").read_text().splitlines()
        assert lines[0] == ",".join(cli.CSV_COLUMNS) + ",lp_1,lp_2"
        # .17g round-trips, so every CSV column equals its record field exactly
        table = np.array([[float(x) for x in line.split(",")] for line in lines[1:]])
        for i, name in enumerate(cli.CSV_COLUMNS):
            assert np.array_equal(table[:, i], traj.column(name)), name
        blob = json.loads((out / "summary.json").read_text())
        assert blob["failed"] is False
        assert blob["n_steps"] == summary.n_steps
        assert (blob["rejections"], blob["min_dt"]) == ({}, 1e-3)
        # the phases split the run's time; output is timed after the run
        phases = blob["phase_s"]
        assert sorted(phases) == ["diagnostics", "kernel", "output", "sampling"]
        assert all(seconds > 0.0 for seconds in phases.values())
        run_s = phases["kernel"] + phases["diagnostics"] + phases["sampling"]
        assert run_s <= summary.wall_time

    def test_summary_counts_rejections_by_reason(self, tmp_path):
        # dt = 1e-3 is above the explicit bound at 32 cells: each rejection
        # halves it, and the dt restored later is capped at the bound
        explicit = QUICK.replace("t_end = 0.5", "t_end = 0.02").replace(
            "sample_every = 0.1", "sample_every = 0.01\nscheme = explicit_rk2")
        cli.run_scenario(cli.parse_config(explicit), tmp_path)
        blob = json.loads((tmp_path / "summary.json").read_text())
        rejected = blob["n_rejected"]
        assert rejected > 0
        assert blob["rejections"] == {solver.STABILITY_BOUND: rejected}
        assert blob["min_dt"] == 1e-3 / 2 ** rejected

    def test_byte_determinism(self, tmp_path):
        cfg = cli.parse_config(QUICK)
        cli.run_scenario(cfg, tmp_path / "a")
        cli.run_scenario(cfg, tmp_path / "b")
        assert (tmp_path / "a" / "timeseries.csv").read_bytes() == \
            (tmp_path / "b" / "timeseries.csv").read_bytes()

    def test_seed_changes_random_runs(self, tmp_path):
        text = QUICK.replace("init.kind = cosine", "init.kind = random_smooth")
        a = cli.parse_config(text.replace("seed = 0", "seed = 1"))
        b = cli.parse_config(text.replace("seed = 0", "seed = 2"))
        cli.run_scenario(a, tmp_path / "a")
        cli.run_scenario(b, tmp_path / "b")
        assert (tmp_path / "a" / "timeseries.csv").read_bytes() != \
            (tmp_path / "b" / "timeseries.csv").read_bytes()

    def test_unwritable_out_dir(self, tmp_path):
        blocker = tmp_path / "not_a_dir"
        blocker.write_text("occupied")
        cfg = cli.parse_config(EQUILIBRIUM_QUICK)
        with pytest.raises(OSError):
            cli.run_scenario(cfg, blocker)

    def test_construction_error_leaves_no_csv(self, tmp_path):
        text = QUICK.replace("init.kind = cosine", "init.kind = random_smooth")
        cfg = cli.parse_config(text.replace("init.a_u = 0.1", "init.a_u = 50"))
        with pytest.raises(ConstructionError):
            cli.run_scenario(cfg, tmp_path / "out")
        assert list((tmp_path / "out").iterdir()) == []

    def test_snapshot_restart_round_trip(self, tmp_path):
        cfg = cli.parse_config(QUICK)
        cli.run_scenario(cfg, tmp_path / "first")
        snap = tmp_path / "first" / "snap_0.5.txt"
        grid = lg.build_grid(cfg.n_cells)
        restarted = lg.make_initial_data(
            lg.InitialSpec(kind="custom_table", table_path=str(snap)), grid)
        assert restarted.u[0] == 0.0 and restarted.u[-1] == 0.0
        assert restarted.v.min() > 0.0
        # interior cells reproduce the snapshot values to interpolation error
        rows = np.asarray(lg.load_table(snap))
        assert np.allclose(restarted.v, rows[:, 1], atol=1e-12)
        assert np.allclose(restarted.theta, rows[:, 3], atol=1e-12)

    @given(n=st.integers(2, 255), seed=st.integers(0, 2 ** 32 - 1),
           a_v=st.floats(-0.9, 0.9), a_u=st.floats(-1.0, 1.0),
           a_theta=st.floats(-0.7, 0.7))
    def test_snapshot_restart_exact(self, n, seed, a_v, a_u, a_theta):
        grid = lg.build_grid(n)
        s = lg.make_initial_data(lg.InitialSpec(kind="random_smooth", a_v=a_v, a_u=a_u,
                                                a_theta=a_theta, seed=seed), grid)
        with tempfile.TemporaryDirectory() as tmp:
            snap = Path(tmp) / "snap.txt"
            cli.write_snapshot(snap, s, grid)
            restarted = lg.make_initial_data(
                lg.InitialSpec(kind="custom_table", table_path=str(snap)), grid)
        assert np.array_equal(restarted.v, s.v)
        assert np.array_equal(restarted.theta, s.theta)

    def test_snapshot_text_renders_each_value_as_fmt(self, tmp_path):
        # one "%" format per row gives the bytes of _fmt per value
        values = np.array(SPECIAL_FLOATS)
        n = len(values)
        grid = lg.build_grid(n)
        u = np.zeros(n + 1)
        u[1::2] = values[:(n + 1) // 2]
        s = make_state(values, u, values[::-1])
        path = tmp_path / "snap.txt"
        cli.write_snapshot(path, s, grid)
        u_c = 0.5 * (s.u[:-1] + s.u[1:])
        want = ["x v u theta"] + [
            " ".join(cli._fmt(x) for x in (grid.cell_centers[j], s.v[j], u_c[j], s.theta[j]))
            for j in range(n)]
        assert path.read_text(encoding="utf-8") == "\n".join(want) + "\n"

    def test_failure_writes_partial_outputs(self, tmp_path):
        # explicit scheme with dt so far above the stability bound that the
        # retry budget (12 halvings) cannot reach it
        text = QUICK.replace("dt = 1e-3", "dt = 100.0")
        cfg = cli.parse_config(text + "scheme = explicit_rk2\n")
        with pytest.raises(SimulationFailure):
            cli.run_scenario(cfg, tmp_path / "out")
        blob = json.loads((tmp_path / "out" / "summary.json").read_text())
        assert blob["failed"] is True
        assert (tmp_path / "out" / "timeseries.csv").exists()

    def test_breakdown_writes_partial_outputs(self, tmp_path, monkeypatch):
        # two solves per step: step 251 breaks down, after the samples at
        # t = 0, 0.1 and 0.2
        monkeypatch.setattr(solver, "_solve_spd_tridiag", tridiag_breaking_after(500))
        with pytest.raises(SimulationFailure) as exc:
            cli.run_scenario(cli.parse_config(QUICK), tmp_path / "out")
        assert exc.value.trajectory.n_steps == 250
        assert exc.value.last_state.t > 0.2
        out = tmp_path / "out"
        rows = (out / "timeseries.csv").read_text().splitlines()
        assert [float(r.split(",")[0]) for r in rows[1:]] == [0.0, 0.1, 0.2]
        blob = json.loads((out / "summary.json").read_text())
        assert blob["failed"] is True
        assert blob["n_steps"] == 250
        assert (out / "snap_0.2.txt").exists()


class TestSweep:
    def test_single_beta_matches_run(self, tmp_path):
        cfg = cli.parse_config(QUICK)
        rows = cli.sweep(cfg, [1.0], tmp_path / "sweep", workers=1)
        assert len(rows) == 1
        summary = cli.run_scenario(cfg, tmp_path / "single")
        assert rows[0]["status"] == "ok"
        assert rows[0]["beta"] == 1.0
        assert rows[0]["repr_err"] == pytest.approx(summary.repr_err_max, rel=1e-12)
        assert (tmp_path / "sweep" / "sweep.csv").exists()
        assert (tmp_path / "sweep" / "beta_1" / "timeseries.csv").exists()

    def test_empty_list_rejected(self, tmp_path):
        cfg = cli.parse_config(QUICK)
        with pytest.raises(ValueError):
            cli.sweep(cfg, [], tmp_path / "sweep")

    def test_negative_beta_refused_before_any_run(self, tmp_path):
        # the job's PhysParams refuses it when the sweep builds its jobs
        cfg = cli.parse_config(QUICK)
        with pytest.raises(ParamError) as exc:
            cli.sweep(cfg, [0.5, -1.0], tmp_path / "sweep", workers=1)
        assert exc.value.field == "beta"
        assert not (tmp_path / "sweep" / "beta_0.5").exists()

    def test_betas_sharing_a_directory_rejected(self, tmp_path):
        # both betas print as 1, so both runs would write into beta_1/
        cfg = cli.parse_config(QUICK)
        with pytest.raises(ValueError, match="distinct output directories"):
            cli.sweep(cfg, [1.0000001, 1.0000002], tmp_path / "sweep", workers=1)
        assert not (tmp_path / "sweep").exists()
        path = tmp_path / "cfg.txt"
        path.write_text(QUICK)
        assert cli.main(["sweep", "--config", str(path), "--betas", "0.5,1.0000001,1",
                         "--out", str(tmp_path / "main")]) == 2
        assert not (tmp_path / "main").exists()

    def test_failed_row_recorded(self, tmp_path):
        text = QUICK.replace("dt = 1e-3", "dt = 100.0")
        cfg = cli.parse_config(text + "scheme = explicit_rk2\n")
        rows = cli.sweep(cfg, [0.5, 1.0], tmp_path / "sweep", workers=1)
        assert all(r["status"] == "failed" for r in rows)
        lines = (tmp_path / "sweep" / "sweep.csv").read_text().splitlines()
        assert lines[0] == "beta,eta0,inf_v,inf_theta,repr_err,status"
        assert len(lines) == 3
        assert all(line.endswith("failed") for line in lines[1:])

    def test_parallel_matches_serial(self, tmp_path):
        cfg = cli.parse_config(QUICK)
        serial = cli.sweep(cfg, [0.5, 1.5], tmp_path / "s", workers=1)
        parallel = cli.sweep(cfg, [0.5, 1.5], tmp_path / "p", workers=2)
        for a, b in zip(serial, parallel):
            assert a.keys() == b.keys()
            for key in a:
                x, y = a[key], b[key]
                if isinstance(x, float) and np.isnan(x):
                    assert np.isnan(y)
                else:
                    assert x == y
        assert (tmp_path / "s" / "sweep.csv").read_bytes() == \
            (tmp_path / "p" / "sweep.csv").read_bytes()

    def test_dead_worker_fails_the_sweep(self, tmp_path, monkeypatch):
        # a crashed worker must not be hidden by rerunning its jobs here
        monkeypatch.setattr(cli, "_sweep_worker", _worker_dying_in_child)
        cfg = cli.parse_config(QUICK)
        with pytest.raises(SimulationFailure):
            cli.sweep(cfg, [0.5, 1.5], tmp_path / "sweep", workers=2)
        # every job died with the pool, and each is a failed row
        assert (tmp_path / "sweep" / "sweep.csv").read_text().splitlines() == [
            "beta,eta0,inf_v,inf_theta,repr_err,status",
            "0.5,,,,,failed", "1.5,,,,,failed"]
        path = tmp_path / "cfg.txt"
        path.write_text(QUICK)
        assert cli.main(["sweep", "--config", str(path), "--betas", "0.5,1.5",
                         "--workers", "2", "--out", str(tmp_path / "main")]) == 1
        assert (tmp_path / "main" / "sweep.csv").read_text().splitlines()[1:] == [
            "0.5,,,,,failed", "1.5,,,,,failed"]

    def test_dead_worker_keeps_finished_rows(self, tmp_path, monkeypatch):
        cfg = cli.parse_config(QUICK)
        cli.sweep(cfg, [0.5], tmp_path / "serial", workers=1)
        finished = (tmp_path / "serial" / "sweep.csv").read_text().splitlines()[1]
        monkeypatch.setattr(cli, "_sweep_worker", _worker_dying_after_beta_half)
        with pytest.raises(SimulationFailure, match="sweep.csv"):
            cli.sweep(cfg, [0.5, 1.5], tmp_path / "sweep", workers=2)
        assert (tmp_path / "sweep" / "sweep.csv").read_text().splitlines()[1:] == [
            finished, "1.5,,,,,failed"]
        assert finished.endswith(",ok")


class TestConvergence:
    def test_usage_errors(self):
        cfg = cli.parse_config(QUICK)
        with pytest.raises(ValueError):
            cli.convergence_study(cfg, [64])
        with pytest.raises(ValueError):
            cli.convergence_study(cfg, [64, 32, 128])

    def test_small_study_structure(self):
        cfg = cli.parse_config("n_cells = 32\ndt = 2e-3\ninit.kind = cosine\n")
        report = cli.convergence_study(cfg, [8, 16, 32])
        assert report["levels"] == [8, 16, 32]
        for n in (8, 16, 32):
            assert all(e > 0 for e in report["mms_errors"][n])
        assert set(report["orders"]) == {"v", "u", "theta"}
        errs = report["reconstruction_errors"]
        assert errs[8] > errs[16] > errs[32]
        assert all(r > 1.0 for r in report["reconstruction_ratios"])

    @pytest.mark.parametrize("gas", [{}, dict(mu_tilde=1.3, kappa_tilde=0.8, R=1.1, c_v=0.9)],
                             ids=["unit", "other"])
    @pytest.mark.parametrize("beta", [0.0, 0.5, 2.5, 6.0])
    def test_mms_orders_at_other_betas(self, beta, gas):
        # criterion 8's check at betas and constants other than the
        # reference's, on the reference's dt/dx^2 (N = 256, dt = 1e-4)
        cfg = cli.parse_config("n_cells = 256\ndt = 1e-4\n")
        cfg = replace(cfg, params=lg.PhysParams(beta=beta, **gas))
        orders = cli.mms_orders({n: cli.mms_error(cfg, n) for n in (32, 64, 128)})
        assert all(o >= acceptance.MMS_ORDER_MIN for o in orders.values()), orders


class TestMmsErrorSteps:
    """The benchmark counts the steps of ``mms_error`` by wrapping
    ``solver.advance``: ``mms_error`` must call it through the module, once,
    and its trajectory's n_steps must count every kernel call. Its errors
    are those of the same run sampled at t_end."""

    @pytest.mark.parametrize("beta", [1.0, 2.5])
    @pytest.mark.parametrize("n", [16, 64])
    def test_one_advance_counts_every_step(self, monkeypatch, n, beta):
        # the reference's dt/dx^2 (N = 256, dt = 1e-4)
        cfg = cli.parse_config("n_cells = 256\ndt = 1e-4\n")
        cfg = replace(cfg, params=lg.PhysParams(beta=beta))
        advance, take = solver.advance, solver._take_step
        trajectories, kernel_calls = [], []

        def counting_advance(*args, **kwargs):
            trajectories.append(advance(*args, **kwargs))
            return trajectories[-1]

        def counting_kernel(*args):
            kernel_calls.append(None)
            return take(*args)

        monkeypatch.setattr(solver, "advance", counting_advance)
        monkeypatch.setattr(solver, "_take_step", counting_kernel)
        errors = cli.mms_error(cfg, n)
        monkeypatch.undo()
        traj, = trajectories
        assert traj.n_steps == len(kernel_calls) > 0
        assert traj.records == []

        grid = lg.build_grid(n)
        controls = lg.StepControls(dt=cli.refinement_config(cfg, n, 0.5).dt)
        sampled = lg.advance(solver.manufactured_state(0.0, grid), cfg.params, grid, controls,
                             0.5, 0.5, solver.ManufacturedSources(grid, cfg.params))
        exact = solver.manufactured_state(sampled.final_state.t, grid)
        assert sampled.n_steps == traj.n_steps
        assert errors == tuple(
            float(np.max(np.abs(getattr(sampled.final_state, name) - getattr(exact, name))))
            for name in ("v", "u", "theta"))


class TestMainExitCodes:
    def test_run_ok(self, tmp_path, capsys):
        path = tmp_path / "cfg.txt"
        path.write_text(EQUILIBRIUM_QUICK)
        code = cli.main(["run", "--config", str(path), "--out", str(tmp_path / "o")])
        assert code == 0
        out = capsys.readouterr().out
        assert "already-at-equilibrium" in out
        assert "phases kernel " in out

    def test_missing_config_file(self, tmp_path):
        code = cli.main(["run", "--config", str(tmp_path / "nope.txt")])
        assert code == 2

    def test_bad_config_value(self, tmp_path):
        path = tmp_path / "cfg.txt"
        path.write_text("beta = -3\n")
        assert cli.main(["run", "--config", str(path)]) == 2

    def test_simulation_failure_exit_one(self, tmp_path):
        path = tmp_path / "cfg.txt"
        path.write_text(QUICK.replace("dt = 1e-3", "dt = 100.0")
                        + "scheme = explicit_rk2\n")
        code = cli.main(["run", "--config", str(path),
                         "--out", str(tmp_path / "o")])
        assert code == 1

    def test_breakdown_exit_one(self, tmp_path, monkeypatch, capsys):
        path = tmp_path / "cfg.txt"
        path.write_text(QUICK)
        monkeypatch.setattr(solver, "_solve_spd_tridiag", tridiag_breaking_after(500))
        code = cli.main(["run", "--config", str(path), "--out", str(tmp_path / "o")])
        assert code == 1
        assert "non-positive pivot" in capsys.readouterr().err
        blob = json.loads((tmp_path / "o" / "summary.json").read_text())
        assert blob["failed"] is True
        assert blob["phase_s"]["diagnostics"] > 0.0

    def test_run_and_sweep_without_a_corridor(self, tmp_path):
        path = tmp_path / "cfg.txt"
        path.write_text(HOT_GAS)
        assert cli.main(["run", "--config", str(path), "--out", str(tmp_path / "o")]) == 0
        blob = json.loads((tmp_path / "o" / "summary.json").read_text())
        assert blob["corridor_ok"] is None and blob["corridor"] is None
        assert blob["mean_theta_range"][0] == pytest.approx(1e-3, rel=0.01)
        assert cli.main(["sweep", "--config", str(path), "--betas", "0.5,1",
                         "--out", str(tmp_path / "s"), "--workers", "1"]) == 0
        rows = [row.split(",") for row in
                (tmp_path / "s" / "sweep.csv").read_text().splitlines()[1:]]
        assert [row[-1] for row in rows] == ["ok", "ok"]
        # the extrema do not need a corridor
        assert all(0.0 < float(row[3]) < 1e-3 for row in rows)

    def test_run_prints_extrema_without_a_corridor(self, tmp_path, capsys):
        path = tmp_path / "cfg.txt"
        path.write_text(HOT_GAS)
        assert cli.main(["run", "--config", str(path), "--out", str(tmp_path / "o")]) == 0
        blob = json.loads((tmp_path / "o" / "summary.json").read_text())
        lines = [line for line in capsys.readouterr().out.splitlines()
                 if line.startswith("v in [")]
        assert lines == [f"v in [{blob['inf_v']:.4f}, {blob['sup_v']:.4f}], "
                         f"theta in [{blob['inf_theta']:.4f}, {blob['sup_theta']:.4f}]"]
        # with a corridor, the line also says whether the mean stayed in it
        path.write_text(QUICK)
        assert cli.main(["run", "--config", str(path), "--out", str(tmp_path / "q")]) == 0
        line, = [line for line in capsys.readouterr().out.splitlines()
                 if line.startswith("v in [")]
        assert line.endswith(", corridor_ok True")

    def test_verify_missing_dir(self, tmp_path):
        assert cli.main(["verify", "--dir", str(tmp_path / "absent")]) == 2

    def test_sweep_empty_betas(self, tmp_path):
        path = tmp_path / "cfg.txt"
        path.write_text(EQUILIBRIUM_QUICK)
        assert cli.main(["sweep", "--config", str(path), "--betas", ""]) == 2

    def test_convergence_usage(self, tmp_path):
        path = tmp_path / "cfg.txt"
        path.write_text(EQUILIBRIUM_QUICK)
        assert cli.main(["convergence", "--config", str(path),
                         "--levels", "64"]) == 2


class TestVerifyShortReference:
    def test_every_criterion_reported_and_scratch_removed(self, tmp_path, monkeypatch):
        # [25, 50], criterion 5's window, holds no sample of this run; two
        # workers make the jobs cross a process boundary
        from lagrangas import acceptance
        config_dir = tmp_path / "configs"
        config_dir.mkdir()
        (config_dir / "reference.cfg").write_text(
            "init.kind = cosine\nn_cells = 8\ndt = 2e-3\nt_end = 0.4\n")
        monkeypatch.setattr(acceptance, "MMS_LEVELS", (8, 16, 32))
        monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
        results, _ = acceptance.run_acceptance(config_dir=config_dir, workers=2,
                                               echo=lambda line: None)
        assert [r.number for r in results] == list(range(1, 11))
        assert not results[4].passed
        assert "no samples in the window" in results[4].detail
        assert results[9].passed
        assert not list(tmp_path.glob("lagrangas-verify-*"))

    def test_no_corridor_fails_criterion_3(self, tmp_path, monkeypatch):
        from lagrangas import acceptance
        config_dir = tmp_path / "configs"
        config_dir.mkdir()
        (config_dir / "reference.cfg").write_text(
            HOT_GAS.replace("n_cells = 16", "n_cells = 8").replace("dt = 1e-3", "dt = 2e-3"))
        monkeypatch.setattr(acceptance, "MMS_LEVELS", (8, 16, 32))
        results, _ = acceptance.run_acceptance(config_dir=config_dir, out_dir=tmp_path / "v",
                                               workers=1, echo=lambda line: None)
        assert [r.number for r in results] == list(range(1, 11))
        assert not results[2].passed
        assert results[2].detail.startswith("no corridor")
        # criterion 1 reports drifts from the first record, whatever it holds
        assert results[0].detail.startswith("mass drift ")
        assert ", energy drift " in results[0].detail

    def test_criterion_4_names_the_config_beta(self, tmp_path, monkeypatch):
        from lagrangas import acceptance
        config_dir = tmp_path / "configs"
        config_dir.mkdir()
        (config_dir / "reference.cfg").write_text(
            "beta = 2\ninit.kind = cosine\nn_cells = 8\ndt = 2e-3\nt_end = 0.4\n")
        monkeypatch.setattr(acceptance, "MMS_LEVELS", (8, 16, 32))
        out = tmp_path / "v"
        results, observed = acceptance.run_acceptance(config_dir=config_dir, out_dir=out,
                                                      workers=1, echo=lambda line: None)
        assert results[3].detail.split("; ")[1].startswith("beta 2: ")
        assert "beta 1:" not in results[3].detail
        assert sorted(observed["bounds"]) == ["0.5", "1.5", "2", "2.5"]
        # --out keeps the outputs of every job
        assert sorted(path.parent.name for path in out.glob("*/summary.json")) == sorted(
            ["ref", "rerun", "dt_half", "n512", "refined", "repr512",
             "beta_0.5", "beta_1.5", "beta_2.5"])

    def test_config_beta_in_the_sweep_runs_once(self, tmp_path, monkeypatch):
        # beta 1.5 is one of SWEEP_BETAS: the reference run stands for it,
        # so no equal beta_1.5 job runs and criterion 4 names 1.5 once
        from lagrangas import acceptance
        config_dir = tmp_path / "configs"
        config_dir.mkdir()
        (config_dir / "reference.cfg").write_text(
            "beta = 1.5\ninit.kind = cosine\nn_cells = 8\ndt = 2e-3\nt_end = 0.4\n")
        monkeypatch.setattr(acceptance, "MMS_LEVELS", (8, 16, 32))
        fan_out = cli._fan_out
        tags = []

        def counted(worker, jobs, workers):
            tags.extend(job[0] for job in jobs)
            return fan_out(worker, jobs, workers)

        monkeypatch.setattr(cli, "_fan_out", counted)
        results, observed = acceptance.run_acceptance(config_dir=config_dir, workers=1,
                                                      echo=lambda line: None)
        assert sorted(tags) == sorted(["ref", "rerun", "dt_half", "n512", "refined",
                                       "repr512", "beta_0.5", "beta_2.5"])
        assert results[3].detail.count("beta 1.5:") == 1
        assert [part.split(":")[0] for part in results[3].detail.split("; ")[1:]] == [
            "beta 1.5", "beta 0.5", "beta 2.5"]
        assert sorted(observed["bounds"]) == ["0.5", "1.5", "2.5"]

    @pytest.mark.parametrize("section, key", [("bounds", "1.5"), ("lp_sup", "2")])
    def test_missing_pin_exits_before_any_job(self, tmp_path, monkeypatch, capsys,
                                              section, key):
        from lagrangas import acceptance

        def no_jobs(*args):
            raise AssertionError("a job ran")

        text, pins = acceptance._load_reference(None)
        del pins[section][key]
        config_dir = tmp_path / "configs"
        config_dir.mkdir()
        (config_dir / "reference.cfg").write_text(text)
        (config_dir / "pins.json").write_text(json.dumps(pins))
        monkeypatch.setattr(cli, "_fan_out", no_jobs)
        assert cli.main(["verify", "--dir", str(config_dir)]) == 2
        assert f"no entry {section}/{key}" in capsys.readouterr().err


class TestPins:
    def test_pin_band(self):
        from lagrangas.acceptance import _pin_ok
        assert _pin_ok(1.0, 1.0)
        assert _pin_ok(1.04, 1.0)
        assert not _pin_ok(1.06, 1.0)
        assert _pin_ok(-1.0, -1.0)
        assert not _pin_ok(0.8, 1.0)

    def test_packaged_pins_cover_the_packaged_config(self):
        # every pin that criteria 4 and 9 read, checked without a job
        from lagrangas.acceptance import _check_pins, _load_reference
        text, pins = _load_reference(None)
        _check_pins(cli.parse_config(text), pins)

    def test_packaged_reference_loads(self):
        from lagrangas.acceptance import _load_reference
        text, pins = _load_reference(None)
        cfg = cli.parse_config(text)
        assert cfg.n_cells == 256
        assert cfg.dt == 1e-4
        assert cfg.t_end == 50.0
        assert cfg.initial.kind == "cosine"
