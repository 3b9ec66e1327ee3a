import json
import os
import string
import tempfile
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, strategies as st

import lagrangas as lg
from lagrangas import cli, solver
from lagrangas.errors import ConfigError, ConstructionError, SimulationFailure

from conftest import tridiag_breaking_after

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
        assert summary.bounds.corridor_ok
        lines = (out / "timeseries.csv").read_text().splitlines()
        assert lines[0] == ",".join(cli.CSV_COLUMNS) + ",lp_1,lp_2"
        # .17g round-trips, so every CSV column equals its record field exactly
        table = np.array([[float(x) for x in line.split(",")] for line in lines[1:]])
        for i, name in enumerate(cli.CSV_COLUMNS):
            assert np.array_equal(table[:, i], traj.column(name)), name
        blob = json.loads((out / "summary.json").read_text())
        assert blob["failed"] is False
        assert blob["n_steps"] == summary.n_steps

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


class TestMainExitCodes:
    def test_run_ok(self, tmp_path, capsys):
        path = tmp_path / "cfg.txt"
        path.write_text(EQUILIBRIUM_QUICK)
        code = cli.main(["run", "--config", str(path), "--out", str(tmp_path / "o")])
        assert code == 0
        assert "already-at-equilibrium" in capsys.readouterr().out

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


class TestPins:
    def test_pin_band(self):
        from lagrangas.acceptance import _pin_ok
        assert _pin_ok(1.0, 1.0)
        assert _pin_ok(1.04, 1.0)
        assert not _pin_ok(1.06, 1.0)
        assert _pin_ok(-1.0, -1.0)
        assert not _pin_ok(0.8, 1.0)

    def test_packaged_reference_loads(self):
        from lagrangas.acceptance import _load_reference
        text, pins = _load_reference(None)
        cfg = cli.parse_config(text)
        assert cfg.n_cells == 256
        assert cfg.dt == 1e-4
        assert cfg.t_end == 50.0
        assert cfg.initial.kind == "cosine"
