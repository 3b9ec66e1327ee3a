import subprocess
import sys
import textwrap
from pathlib import Path

import lagrangas as lg


def test_every_exported_name_resolves():
    missing = [name for name in lg.__all__ if not hasattr(lg, name)]
    assert missing == []


def test_import_and_run_leave_scipy_linalg_unloaded(tmp_path):
    # importing scipy.linalg would double the package's cold start; the
    # solver loads only scipy's LAPACK wrapper module
    config = tmp_path / "run.cfg"
    config.write_text("init.kind = cosine\ninit.a_u = 0.1\nn_cells = 8\n"
                      "dt = 1e-3\nt_end = 0.01\nsample_every = 0.005\n")
    script = textwrap.dedent(f"""
        import sys
        sys.path.insert(0, {str(Path(lg.__file__).parents[1])!r})
        import lagrangas
        assert "scipy.linalg" not in sys.modules, "import lagrangas"
        from lagrangas import cli
        assert cli.main(["run", "--config", {str(config)!r},
                         "--out", {str(tmp_path / "out")!r}]) == 0
        assert "scipy.linalg" not in sys.modules, "lagrangas run"
    """)
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert (tmp_path / "out" / "summary.json").exists()


def test_import_and_run_leave_pool_and_argparse_unloaded(tmp_path):
    # only sweep and verify fan out, and only the command line parses
    # arguments, so a library run imports neither
    script = textwrap.dedent(f"""
        import sys
        from dataclasses import replace
        sys.path.insert(0, {str(Path(lg.__file__).parents[1])!r})
        import lagrangas.cli as cli
        unwanted = ("concurrent.futures.process", "argparse")
        assert not [m for m in unwanted if m in sys.modules], "import lagrangas.cli"
        cfg = cli.load_config({str(Path(lg.__file__).parent / "configs" / "reference.cfg")!r})
        cfg = replace(cfg, n_cells=8, dt=1e-3, t_end=0.01, sample_every=0.005)
        cli.run_scenario(cfg, {str(tmp_path / "out")!r})
        assert not [m for m in unwanted if m in sys.modules], "run_scenario"
    """)
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert (tmp_path / "out" / "summary.json").exists()
