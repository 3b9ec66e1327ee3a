"""Configuration parsing, scenario execution, file outputs, and the CLI.

Configs are flat ``key = value`` text (blank lines and # comments allowed),
with a fixed key set; unknown keys are rejected with their line number.
Scenario outputs are timeseries.csv (fixed column order), snapshot files in
the tabulated initial-data format (so any run can seed another), and
summary.json. Identical config and seed give a byte-identical CSV.
"""

from __future__ import annotations

import json
import math
import sys
import tempfile
import time
from dataclasses import asdict, dataclass, replace
from operator import attrgetter
from pathlib import Path

import numpy as np

from . import analysis, functionals, solver
from .core import (Grid, InitialSpec, PhysParams, State, build_grid,
                   make_initial_data)
from .errors import (ConfigError, ConstructionError, FormatError,
                     InsufficientDataError, ParamError, SimulationFailure,
                     WorkerDied)

# log Y is left out so that the published column set stays fixed; the
# moment columns follow these, one per exponent.
CSV_COLUMNS = tuple(name for name in functionals.RECORD_FIELDS if name != "log_damping")

DEFAULT_SWEEP_BETAS = (0.5, 1.0, 1.5, 2.5)

_NORMALIZED_TOL = 1e-9
_EQUILIBRIUM_TOL = 1e-12


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def _row_format(columns: int, sep: str) -> str:
    # one "%" format of ``columns`` values, each rendered as _fmt renders it:
    # "%.17g" % x == format(x, ".17g") for every float, nan, inf and -0.0
    return sep.join(["%.17g"] * columns)


@dataclass(frozen=True)
class RunConfig:
    """One scenario. ``seed`` seeds the initial data (``initial.seed`` is
    overridden by it); ``lp_exponents`` None means the defaults derived from
    beta, ``fit_window`` None the second half of the run."""

    params: PhysParams
    initial: InitialSpec
    n_cells: int
    dt: float
    scheme: str
    t_end: float
    sample_every: float
    out_dir: str
    lp_exponents: tuple | None
    fit_window: tuple | None
    seed: int


def _floats(text: str) -> tuple:
    return tuple(float(part) for part in text.split(","))


# Every config key: the RunConfig attribute it sets, its default text (None
# leaves the attribute None) and its value parser, in the order
# serialize_config writes them.
_KEYS = {
    "beta": ("params.beta", "1", float),
    "mu": ("params.mu_tilde", "1", float),
    "kappa": ("params.kappa_tilde", "1", float),
    "R": ("params.R", "1", float),
    "c_v": ("params.c_v", "1", float),
    "init.kind": ("initial.kind", "equilibrium", str),
    "init.a_v": ("initial.a_v", "0.1", float),
    "init.a_u": ("initial.a_u", "0.1", float),
    "init.a_theta": ("initial.a_theta", "0.1", float),
    "init.k": ("initial.k", "1", int),
    "n_cells": ("n_cells", "256", int),
    "dt": ("dt", "1e-4", float),
    "scheme": ("scheme", solver.IMEX_BE, str),
    "t_end": ("t_end", "50", float),
    "sample_every": ("sample_every", "0.1", float),
    "out_dir": ("out_dir", "out", str),
    "seed": ("seed", "0", int),
    "lp": ("lp_exponents", None, _floats),
    "fit_window": ("fit_window", None, _floats),
}


def parse_config(text: str) -> RunConfig:
    """Parse the flat key = value format into a validated RunConfig.

    Every key has a documented default (see _KEYS); ``lp`` defaults to the
    moment exponents derived from beta and ``fit_window`` to the second half
    of the run. ``init.kind`` accepts ``custom_table:<path>`` to seed a run
    from a snapshot file. Unknown keys, unparsable values, duplicate keys,
    and invariant violations raise ConfigError naming key and line.
    """
    raw: dict[str, str] = {}
    lines: dict[str, int] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise ConfigError("expected 'key = value'", line=lineno)
        key, _, value = stripped.partition("=")
        key = key.strip()
        value = value.strip()
        if key not in _KEYS:
            raise ConfigError(f"unknown key {key!r}", key=key, line=lineno)
        if key in raw:
            raise ConfigError("duplicate key", key=key, line=lines[key])
        raw[key] = value
        lines[key] = lineno

    def bad(key, message):
        raise ConfigError(message, key=key, line=lines.get(key))

    values = {}
    fields = {"params": {}, "initial": {}, "": {}}
    for key, (attr, default, conv) in _KEYS.items():
        value = raw.get(key, default)
        try:
            values[key] = None if value is None else conv(value)
        except ValueError:
            raise ConfigError(f"cannot parse value {value!r}", key=key,
                              line=lines.get(key)) from None
        head, _, name = attr.rpartition(".")
        fields[head][name] = values[key]

    kind, table_path = values["init.kind"], None
    if kind.startswith("custom_table:"):
        kind, _, table_path = kind.partition(":")
        table_path = table_path.strip()
        if not table_path:
            bad("init.kind", "custom_table needs a path after the colon")
    try:
        # the types and the run controls check themselves: each error names
        # its field, which is the last part of its key's attribute
        params = PhysParams(**fields["params"])
        solver.StepControls(values["dt"], values["scheme"])
        solver.check_run(values["n_cells"], 0.0, values["t_end"], values["sample_every"])
        initial = InitialSpec(**dict(fields["initial"], kind=kind, seed=values["seed"],
                                     table_path=table_path))
    except (ParamError, ConstructionError) as exc:
        bad(next(key for key, (attr, _, _) in _KEYS.items()
                 if attr.rpartition(".")[2] == exc.field), str(exc))
    lp = values["lp"]
    if lp is not None:
        if not all(math.isfinite(q) and q > 0.0 for q in lp):
            bad("lp", "moment exponents must be positive and finite")
        if len({functionals.lp_column(q) for q in lp}) < len(lp):
            bad("lp", f"moment exponents must have distinct column names "
                f"lp_<p>, got {raw['lp']!r}")
    window = values["fit_window"]
    if window is not None and (len(window) != 2 or not window[0] < window[1]):
        bad("fit_window", f"window must be an ordered pair t0,t1, got {raw['fit_window']!r}")

    return RunConfig(params=params, initial=initial, **fields[""])


def serialize_config(cfg: RunConfig) -> str:
    """Emit a config text that parses back to an equal RunConfig."""
    out = []
    for key, (attr, _, _) in _KEYS.items():
        value = attrgetter(attr)(cfg)
        if key == "init.kind" and cfg.initial.table_path is not None:
            value = f"{value}:{cfg.initial.table_path}"
        if isinstance(value, float):
            value = _fmt(value)
        elif isinstance(value, tuple):
            value = ",".join(_fmt(x) for x in value)
        if value is not None:
            out.append(f"{key} = {value}")
    return "\n".join(out) + "\n"


def load_config(path) -> RunConfig:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_config(fh.read())


@dataclass
class RunSummary(analysis.RecordReduction):
    """A run's record reduction plus its own facts; asdict gives summary.json."""

    config: str
    failed: bool
    already_at_equilibrium: bool
    normalized: bool
    decay_fit: analysis.DecayFit | None
    decay_fit_note: str | None
    v_star: float
    theta_star: float
    theta_reference_gap: float
    n_steps: int
    n_rejected: int
    rejections: dict
    min_dt: float
    wall_time: float
    phase_s: dict


def build_initial_state(cfg: RunConfig, grid: Grid) -> State:
    return make_initial_data(replace(cfg.initial, seed=cfg.seed), grid, c_v=cfg.params.c_v)


def write_snapshot(path, state: State, grid: Grid) -> None:
    """Write a state in the tabulated format (x at cell centers; u averaged
    from the adjacent nodes) so it can seed a later run."""
    u_c = 0.5 * (state.u[:-1] + state.u[1:])
    # zip over the arrays, not over tolist() copies: 4N live floats would
    # raise a 4096-cell run's peak RSS by 0.5 MB, at no gain in speed
    rows = ["x v u theta"]
    rows.extend(map(_row_format(4, " ").__mod__,
                    zip(grid.cell_centers, state.v, u_c, state.theta)))
    Path(path).write_text("\n".join(rows) + "\n", encoding="utf-8")


def _csv_text(traj: solver.Trajectory) -> str:
    lp_exponents = list(traj.records[0].lp_moments)
    header = ",".join(CSV_COLUMNS + tuple(map(functionals.lp_column, lp_exponents)))
    fmt = _row_format(len(CSV_COLUMNS) + len(lp_exponents), ",")
    fields = attrgetter(*CSV_COLUMNS)
    out = [header]
    for rec in traj.records:
        out.append(fmt % (fields(rec) + tuple(rec.lp_moments[q] for q in lp_exponents)))
    return "\n".join(out) + "\n"


def _summarize(cfg: RunConfig, traj: solver.Trajectory, wall_time,
               failed: bool, phase_s: dict) -> RunSummary:
    records = traj.records
    first = records[0]
    normalized = (abs(first.mass - 1.0) <= _NORMALIZED_TOL
                  and abs(first.total_energy - 1.0) <= _NORMALIZED_TOL)

    decay_fit = note = None
    window = cfg.fit_window
    if window is None and records[-1].t > first.t:
        t0, t1 = first.t, records[-1].t
        window = (t0 + 0.5 * (t1 - t0), t1)
    if window is None:
        note = "insufficient-data: run made no sampled progress"
    else:
        try:
            decay_fit = analysis.fit_decay_rate([r.t for r in records],
                                                [r.h1_dev for r in records], window)
        except InsufficientDataError as exc:
            note = f"insufficient-data: {exc}"

    return RunSummary(
        **vars(analysis.reduce_records(records)),
        config=serialize_config(cfg),
        failed=failed,
        already_at_equilibrium=first.h1_dev < _EQUILIBRIUM_TOL,
        normalized=normalized,
        decay_fit=decay_fit,
        decay_fit_note=note,
        v_star=traj.v_star,
        theta_star=traj.theta_star,
        theta_reference_gap=abs(traj.theta_star - first.mean_theta),
        n_steps=traj.n_steps,
        n_rejected=traj.n_rejected,
        rejections=traj.rejections,
        min_dt=traj.min_dt,
        wall_time=wall_time,
        phase_s=phase_s,
    )


def _execute(cfg: RunConfig) -> solver.Trajectory:
    """Run one scenario in memory and return its trajectory."""
    grid = build_grid(cfg.n_cells)
    s0 = build_initial_state(cfg, grid)
    controls = solver.StepControls(dt=cfg.dt, scheme=cfg.scheme)
    return solver.advance(s0, cfg.params, grid, controls, cfg.t_end,
                          cfg.sample_every, lp_exponents=cfg.lp_exponents)


def run_scenario(cfg: RunConfig, out_dir=None) -> RunSummary:
    """Run one scenario and write timeseries.csv, snapshots, summary.json.

    On SimulationFailure the partial time series is flushed, summary.json is
    written with failed = true, and the error is re-raised.
    """
    return _run_with_outputs(cfg, out_dir)[0]


def _run_with_outputs(cfg: RunConfig, out_dir=None):
    out = Path(out_dir if out_dir is not None else cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    # probe writability before spending time on the run; the probe file
    # vanishes on close, so a run that dies before writing leaves no file
    tempfile.TemporaryFile(dir=out).close()

    started = time.perf_counter()
    failure = None
    try:
        traj = _execute(cfg)
    except SimulationFailure as exc:
        traj = exc.trajectory
        if traj is None:
            raise
        failure = exc
    wall = time.perf_counter() - started

    output_started = time.perf_counter()
    (out / "timeseries.csv").write_text(_csv_text(traj), encoding="utf-8")
    grid = traj.grid
    write_snapshot(out / f"snap_{traj.records[0].t:g}.txt", traj.initial_state, grid)
    if len(traj.records) > 1:
        write_snapshot(out / f"snap_{traj.records[-1].t:g}.txt", traj.final_state, grid)
    # the output phase is the time spent on the outputs before summary.json
    phase_s = dict(traj.phase_s, output=time.perf_counter() - output_started)
    summary = _summarize(cfg, traj, wall, failure is not None, phase_s)
    (out / "summary.json").write_text(
        json.dumps(asdict(summary), indent=2, sort_keys=True) + "\n",
        encoding="utf-8")
    if failure is not None:
        raise SimulationFailure(f"run failed after the sample at t = "
                                f"{traj.records[-1].t} ({failure}); "
                                f"partial outputs in {out}",
                                last_state=failure.last_state, trajectory=traj)
    return summary, traj


def _sweep_worker(cfg: RunConfig):
    try:
        summary = run_scenario(cfg)
    except SimulationFailure:
        return {"status": "failed", "beta": cfg.params.beta}
    fit = summary.decay_fit
    return {
        "status": "ok",
        "beta": cfg.params.beta,
        "eta0": float("nan") if fit is None else fit.rate,
        "inf_v": summary.inf_v,
        "inf_theta": summary.inf_theta,
        "repr_err": summary.repr_err_max,
    }


def _fan_out(worker, jobs, workers: int) -> list:
    """Map ``worker`` over ``jobs`` with up to ``workers`` processes, in job order.

    The jobs run in this process when one worker is asked for or no process
    pool can be created here. A worker process that dies mid-job takes the
    pool's unfinished jobs with it, and none of them is rerun: WorkerDied
    then carries the results of the jobs that finished.
    """
    # imported here, not with the module: only sweep and verify fan out
    from concurrent.futures import ProcessPoolExecutor
    from concurrent.futures.process import BrokenProcessPool

    pool = None
    if workers > 1:
        try:
            pool = ProcessPoolExecutor(max_workers=workers)
        except (OSError, RuntimeError):
            pass  # no semaphores or threads on this platform
    if pool is None:
        return [worker(job) for job in jobs]
    results, died = [], None
    with pool:
        futures = [pool.submit(worker, job) for job in jobs]
        try:
            for future in futures:
                try:
                    results.append(future.result())
                except BrokenProcessPool as exc:
                    results.append(None)
                    died = exc
        finally:
            # a job that raised leaves none of the queued jobs to run
            for future in futures:
                future.cancel()
    if died is not None:
        raise WorkerDied(f"a worker process died: {died}", results) from died
    return results


def sweep(cfg: RunConfig, beta_list, out_dir=None, workers: int | None = None):
    """Run the scenario once per beta; write sweep.csv; return the row dicts.

    Rows run concurrently when more than one worker is available; a failed
    row is recorded and the sweep continues. A worker process that dies
    loses the rows not finished yet: sweep.csv records them as failed, next
    to the finished ones, and SimulationFailure is raised.
    """
    betas = list(beta_list)
    if not betas:
        raise ValueError("sweep needs at least one beta value")
    names = [f"beta_{beta:g}" for beta in betas]
    if len(set(names)) < len(names):
        raise ValueError(f"betas must have distinct output directories beta_<beta>, "
                         f"got {betas}")
    out = Path(out_dir if out_dir is not None else cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)

    jobs = [replace(cfg, params=replace(cfg.params, beta=float(beta)), out_dir=str(out / name))
            for beta, name in zip(betas, names)]

    if workers is None:
        import os
        workers = min(len(jobs), os.cpu_count() or 1, 4)
    died = None
    try:
        rows = _fan_out(_sweep_worker, jobs, workers)
    except WorkerDied as exc:
        died = exc
        rows = [{"status": "failed", "beta": job.params.beta} if row is None else row
                for row, job in zip(exc.results, jobs)]

    lines = ["beta,eta0,inf_v,inf_theta,repr_err,status"]
    for row in rows:
        if row["status"] == "ok":
            lines.append(",".join([_fmt(row["beta"]), _fmt(row["eta0"]),
                                   _fmt(row["inf_v"]), _fmt(row["inf_theta"]),
                                   _fmt(row["repr_err"]), "ok"]))
        else:
            lines.append(f"{_fmt(row['beta'])},,,,,failed")
    (out / "sweep.csv").write_text("\n".join(lines) + "\n", encoding="utf-8")
    if died is not None:
        raise SimulationFailure(f"{died}; the rows it lost are failed in "
                                f"{out / 'sweep.csv'}") from died
    return rows


def mms_error(cfg: RunConfig, n_cells: int, t_end: float = 0.5):
    """Integrate the forced problem on n_cells cells and return max-norm
    errors (v, u, theta) against the exact fields at t_end.

    dt follows the dt/dx^2 policy of ``refinement_config``. The run reads
    nothing but its final state, so it takes no samples
    (``sample_every=None``) and folds no diagnostics; it calls
    ``solver.advance`` through the module, once.
    """
    grid = build_grid(n_cells)
    params = cfg.params
    dt = refinement_config(cfg, n_cells, t_end).dt
    s0 = solver.manufactured_state(0.0, grid)
    controls = solver.StepControls(dt=dt, scheme=cfg.scheme)
    src = solver.ManufacturedSources(grid, params)
    traj = solver.advance(s0, params, grid, controls, t_end, None, src)
    final = traj.final_state
    exact = solver.manufactured_state(final.t, grid)
    return (float(np.max(np.abs(final.v - exact.v))),
            float(np.max(np.abs(final.u - exact.u))),
            float(np.max(np.abs(final.theta - exact.theta))))


def mms_orders(errors: dict) -> dict:
    """Fitted order of each field (v, u, theta) from ``mms_error`` results
    by cell count, in the order of the levels."""
    return {name: analysis.convergence_order([(1.0 / n, e[i]) for n, e in errors.items()])
            for i, name in enumerate(("v", "u", "theta"))}


def refinement_config(cfg: RunConfig, n_cells: int, t_end: float = 1.0) -> RunConfig:
    """The config on n_cells cells over [0, t_end], holding dt/dx^2 fixed
    relative to the config's own (n_cells, dt) pair."""
    return replace(cfg, n_cells=n_cells, dt=cfg.dt * (cfg.n_cells / n_cells) ** 2,
                   t_end=t_end, sample_every=min(cfg.sample_every, t_end))


def convergence_study(cfg: RunConfig, levels) -> dict:
    """Forced-problem orders plus reconstruction errors per level.

    Needs at least 3 strictly increasing cell counts. Returns a report dict
    with per-level max errors, fitted orders for all three fields, and the
    reconstruction error with its refinement ratios.
    """
    ns = [int(n) for n in levels]
    if len(ns) < 3:
        raise ValueError(f"need at least 3 refinement levels, got {len(ns)}")
    if any(b <= a for a, b in zip(ns, ns[1:])):
        raise ValueError("levels must be strictly increasing")

    errors = {n: mms_error(cfg, n) for n in ns}
    orders = mms_orders(errors)
    repr_errs = {n: analysis.reduce_records(_execute(refinement_config(cfg, n))).repr_err_max
                 for n in ns}
    ratios = [repr_errs[a] / repr_errs[b] for a, b in zip(ns, ns[1:])]
    return {"levels": ns, "mms_errors": errors, "orders": orders,
            "reconstruction_errors": repr_errs,
            "reconstruction_ratios": ratios}


def _cmd_run(args) -> int:
    cfg = load_config(args.config)
    summary = run_scenario(cfg, args.out)
    print(f"steps {summary.n_steps} (rejected {summary.n_rejected}), "
          f"wall {summary.wall_time:.1f}s")
    print("phases " + ", ".join(f"{name} {seconds:.2f}s"
                                for name, seconds in summary.phase_s.items()))
    print(f"mass drift {summary.mass_drift:.3e}, "
          f"energy drift {summary.energy_drift_rel:.3e}, "
          f"budget defect {summary.entropy_budget_defect:.3e}")
    # a run without a corridor has extrema all the same
    corridor = "" if summary.corridor_ok is None else f", corridor_ok {summary.corridor_ok}"
    print(f"v in [{summary.inf_v:.4f}, {summary.sup_v:.4f}], "
          f"theta in [{summary.inf_theta:.4f}, {summary.sup_theta:.4f}]{corridor}")
    if summary.decay_fit is not None:
        f = summary.decay_fit
        print(f"decay rate {f.rate:.4f} (r^2 {f.r_squared:.4f}) "
              f"on window {f.window}")
    elif summary.decay_fit_note:
        print(f"decay fit: {summary.decay_fit_note}")
    if summary.already_at_equilibrium:
        print("note: already-at-equilibrium")
    print(f"max reconstruction error {summary.repr_err_max:.3e}")
    return 0


def _cmd_sweep(args) -> int:
    cfg = load_config(args.config)
    betas = (list(DEFAULT_SWEEP_BETAS) if args.betas is None
             else [float(b) for b in args.betas.split(",") if b.strip()])
    rows = sweep(cfg, betas, args.out, workers=args.workers)
    print("beta    eta0      inf_v    inf_theta  repr_err   status")
    for row in rows:
        if row["status"] == "ok":
            print(f"{row['beta']:<7g} {row['eta0']:<9.4f} {row['inf_v']:<8.4f} "
                  f"{row['inf_theta']:<10.4f} {row['repr_err']:<10.3e} ok")
        else:
            print(f"{row['beta']:<7g} {'-':<9} {'-':<8} {'-':<10} {'-':<10} failed")
    return 1 if any(r["status"] != "ok" for r in rows) else 0


def _cmd_convergence(args) -> int:
    cfg = load_config(args.config)
    levels = [int(n) for n in args.levels.split(",")]
    report = convergence_study(cfg, levels)
    print("forced-problem max errors at t = 0.5:")
    for n in report["levels"]:
        ev, eu, et = report["mms_errors"][n]
        print(f"  N={n:<5d} v {ev:.3e}  u {eu:.3e}  theta {et:.3e}")
    orders = report["orders"]
    print(f"orders: v {orders['v']:.2f}, u {orders['u']:.2f}, "
          f"theta {orders['theta']:.2f}")
    print("reconstruction error over [0, 1]:")
    for n in report["levels"]:
        print(f"  N={n:<5d} {report['reconstruction_errors'][n]:.3e}")
    ratios = ", ".join(f"{r:.2f}" for r in report["reconstruction_ratios"])
    print(f"refinement ratios: {ratios}")
    return 0


def _cmd_verify(args) -> int:
    from .acceptance import run_acceptance

    results, _ = run_acceptance(config_dir=args.dir, out_dir=args.out,
                                workers=args.workers, echo=print)
    return 0 if all(r.passed for r in results) else 1


def main(argv=None) -> int:
    import argparse  # only the command line parses arguments

    parser = argparse.ArgumentParser(
        prog="lagrangas",
        description="1D viscous heat-conducting gas in mass coordinates: "
                    "run, sweep, convergence, verify")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run one scenario from a config file")
    p_run.add_argument("--config", required=True)
    p_run.add_argument("--out", default=None, help="override out_dir")

    p_sweep = sub.add_parser("sweep", help="run the scenario across beta values")
    p_sweep.add_argument("--config", required=True)
    p_sweep.add_argument("--betas", default=None,
                         help="comma list, default 0.5,1,1.5,2.5")
    p_sweep.add_argument("--out", default=None)
    p_sweep.add_argument("--workers", type=int, default=None)

    p_conv = sub.add_parser("convergence", help="forced-problem refinement study")
    p_conv.add_argument("--config", required=True)
    p_conv.add_argument("--levels", required=True, help="comma list of cell counts")

    p_verify = sub.add_parser("verify", help="run the acceptance criteria")
    p_verify.add_argument("--dir", default=None, help="reference config directory")
    p_verify.add_argument("--out", default=None, help="scratch output directory")
    p_verify.add_argument("--workers", type=int, default=None)

    args = parser.parse_args(argv)
    commands = {"run": _cmd_run, "sweep": _cmd_sweep, "convergence": _cmd_convergence,
                "verify": _cmd_verify}
    try:
        return commands[args.command](args)
    except (ConfigError, ConstructionError, FormatError, ParamError,
            ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except SimulationFailure as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
