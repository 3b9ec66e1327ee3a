"""One repetition of a benchmark workload, in a fresh interpreter.

    python3 job.py <workload> <seed> <out_dir> <t_launch> <traced 0|1> <size full|smoke>

``run.py`` launches this once per repetition with the package's ``src/`` on
PYTHONPATH. ``t_launch`` is the parent's ``time.monotonic()`` just before the
launch, so set-up time includes interpreter start. The last line of standard
output is one JSON object: the repetition's timings, its correctness verdict,
and with tracing on, its per-layer metrics.
"""

from __future__ import annotations

import json
import resource
import sys
import time
import traceback
from dataclasses import replace
from pathlib import Path

HERE = Path(__file__).resolve().parent

# Size of each workload: "full" is what the benchmark measures, "smoke" the
# tiny version the self-test runs. t_end is the simulated end time.
SHAPES = {
    "ref256": {"full": {"n_cells": 256, "t_end": 0.5},
               "smoke": {"n_cells": 256, "t_end": 0.05}},
    "wide4096": {"full": {"n_cells": 4096, "t_end": 0.1},
                 "smoke": {"n_cells": 4096, "t_end": 0.01}},
    "sweep_dense": {"full": {"n_cells": 256, "t_end": 0.2},
                    "smoke": {"n_cells": 256, "t_end": 0.02}},
    "mms_conv": {"full": {"levels": (64, 128, 256), "t_end": 0.5},
                 "smoke": {"levels": (16, 32, 64), "t_end": 0.5}},
}
WORKLOADS = tuple(SHAPES)

SWEEP_BETAS = (0.5, 1.0, 1.5, 2.5)
SWEEP_WORKERS = 2
SWEEP_SAMPLE_EVERY = 1e-3

# Correctness gate.
MASS_TOL = 1e-12       # absolute mass drift over a run
BUDGET_TOL = 1e-3      # entropy-budget defect of a sweep row
RECORD_RTOL = 1e-8     # last-record values and max repr_err vs reference.json
MMS_RTOL = 1e-7        # MMS max-norm errors vs reference.json
ORDER_MIN = 1.9        # fitted MMS order, every field
RECORD_KEYS = ("entropy_E", "int_V_dt", "h1_dev", "min_v")
REFERENCE_FILE = HERE / "reference.json"

# Machine-speed calibration: a fixed loop of numpy and LAPACK work shaped
# like one solver step, independent of the package, at the array length the
# workload mostly uses (a 256-cell loop tracks the 4096-cell workload poorly).
# It is timed right before and after the job; times are reported scaled by
# nominal / measured loop time, i.e. at a machine speed where the loop takes
# its nominal time. On a shared VM whose speed drifts by up to 40% from
# minute to minute this cuts the run-to-run spread of the medians about
# fivefold. Per workload: (cells, iterations, nominal seconds).
# Set-up (interpreter start and imports) is the same for every workload and
# is scaled by the 256-cell loop.
CALIBRATION = {"ref256": (256, 1500, 0.075), "wide4096": (4096, 250, 0.060),
               "sweep_dense": (256, 1500, 0.075), "mms_conv": (256, 1500, 0.075)}
SETUP_CALIBRATION = CALIBRATION["ref256"]

# The function whose calls are a workload's jobs, for fan-out accounting;
# sweep jobs are timed by layertrace.sweep_worker instead.
JOB_ATTR = {"ref256": "_run_with_outputs", "wide4096": "_run_with_outputs",
            "sweep_dense": None, "mms_conv": "mms_error"}

# Labels reported as <label>.calls, .us_per_call and .share.
LAYER_METRICS = (
    "solver.kernel", "solver.tridiag", "solver.mms_source", "solver.state",
    "functionals.dissipation", "functionals.record",
    "representation.damping", "representation.base",
    "representation.history", "representation.reconstruct",
)


def calibrate(n_cells, iterations):
    """Seconds the calibration loop takes at the moment."""
    from dataclasses import dataclass

    import numpy as np
    from scipy.linalg import get_lapack_funcs

    @dataclass(frozen=True)
    class Pair:
        a: np.ndarray
        b: np.ndarray

    ptsv, = get_lapack_funcs(("ptsv",), (np.array([1.0]),))
    x = np.linspace(0.0, 1.0, n_cells + 1)
    v = 1.0 + 0.1 * np.cos(2.0 * np.pi * x[:-1])
    checksum = 0.0
    started = time.perf_counter()
    for _ in range(iterations):
        ux = np.diff(x) / 0.01
        inv = 1.0 / (v + 1e-4 * ux)
        diag = 1.0 + 0.5 * (inv[:-1] + inv[1:])
        off = -0.25 * inv[1:-1]
        _, _, sol, _ = ptsv(diag, off, v[1:] - v[:-1])
        f = np.log(v) - np.log(inv)
        pair = Pair(sol, np.logaddexp(f, 0.5 * f))
        checksum += float(np.sum(pair.a * pair.a)) + float(np.max(np.abs(pair.b)))
    elapsed = time.perf_counter() - started
    if not checksum == checksum:
        raise ArithmeticError("calibration loop produced NaN")
    return elapsed


def workload_config(workload, size, seed, out_dir):
    """The workload's RunConfig, derived from the packaged reference.cfg."""
    from importlib import resources

    from lagrangas import cli

    text = resources.files("lagrangas").joinpath("configs", "reference.cfg").read_text(
        encoding="utf-8")
    cfg = replace(cli.parse_config(text), out_dir=str(out_dir))
    shape = SHAPES[workload][size]
    if workload == "mms_conv":
        return cfg
    cfg = replace(cfg, n_cells=shape["n_cells"], t_end=shape["t_end"])
    if workload == "sweep_dense":
        # random_smooth needs a non-negative seed
        cfg = replace(cfg, initial=replace(cfg.initial, kind="random_smooth"),
                      seed=int(seed) % 2**32, sample_every=SWEEP_SAMPLE_EVERY)
    return cfg


def set_up(workload, cfg, size):
    """Everything before the first step: grid and initial state."""
    from lagrangas import cli, solver
    from lagrangas.core import build_grid, check_normalization

    if workload == "mms_conv":
        grid = build_grid(SHAPES[workload][size]["levels"][0])
        solver.manufactured_solution(0.0, grid, cfg.params)
        return
    grid = build_grid(cfg.n_cells)
    check_normalization(cli.build_initial_state(cfg, grid), grid, cfg.params)


def entry_calls(workload, cfg, size, out_dir):
    """The workload's calls into the package, in order, as (key, thunk).

    The thunks look the entry points up when called, so they see tracing
    installed after this returns.
    """
    from lagrangas import cli

    if workload in ("ref256", "wide4096"):
        return [(None, lambda: cli.run_scenario(cfg, out_dir))]
    if workload == "sweep_dense":
        return [(None, lambda: cli.sweep(cfg, SWEEP_BETAS, out_dir, workers=SWEEP_WORKERS))]
    shape = SHAPES[workload][size]
    return [(n, lambda n=n: cli.mms_error(cfg, n, shape["t_end"])) for n in shape["levels"]]


def gather(workload, results):
    """What observe() expects from the (key, value) results of entry_calls."""
    return dict(results) if workload == "mms_conv" else results[0][1]


def _csv_rows(path):
    lines = Path(path).read_text(encoding="utf-8").splitlines()
    header = lines[0].split(",")
    return [dict(zip(header, map(float, line.split(",")))) for line in lines[1:]]


def observe(workload, result, out_dir, size):
    """Values the correctness gate looks at, read from the entry point's
    return value and the files it wrote; also returns the accepted steps."""
    from lagrangas import analysis

    out = Path(out_dir)
    if workload in ("ref256", "wide4096"):
        rows = _csv_rows(out / "timeseries.csv")
        obs = {key: rows[-1][key] for key in RECORD_KEYS}
        obs.update(repr_err_max=result.repr_err_max, mass_drift=result.mass_drift,
                   failed=result.failed, rows=len(rows))
        return obs, result.n_steps
    if workload == "sweep_dense":
        obs = {"statuses": [row["status"] for row in result], "jobs": []}
        steps = 0
        for beta in SWEEP_BETAS:
            job_dir = out / f"beta_{beta:g}"
            summary = json.loads((job_dir / "summary.json").read_text(encoding="utf-8"))
            rows = _csv_rows(job_dir / "timeseries.csv")
            obs["jobs"].append({
                "beta": beta, "failed": summary["failed"],
                "mass_drift": summary["mass_drift"],
                "budget_defect": summary["entropy_budget_defect"],
                "rows": len(rows),
                "min_v": min(r["min_v"] for r in rows),
                "min_theta": min(r["min_theta"] for r in rows),
                "finite": all(x == x and abs(x) != float("inf")
                              for r in rows for x in r.values()),
            })
            steps += summary["n_steps"]
        obs["sweep_rows"] = len((out / "sweep.csv").read_text(encoding="utf-8").splitlines()) - 1
        return obs, steps
    levels = sorted(result)
    orders = {}
    for i, name in enumerate(("v", "u", "theta")):
        orders[name] = analysis.convergence_order([(1.0 / n, result[n][i]) for n in levels])
    return {"errors": {str(n): list(result[n]) for n in levels}, "orders": orders}, None


def _rel_err(observed, expected):
    return abs(observed - expected) / max(abs(expected), 1e-300)


def check(workload, obs, ref, size):
    """Problems found in ``obs``; an empty list means the outputs are correct."""
    problems = []
    if workload in ("ref256", "wide4096"):
        expect = ref[size][workload]
        if obs["failed"]:
            problems.append("run reported failure")
        if not obs["mass_drift"] <= MASS_TOL:
            problems.append(f"mass drift {obs['mass_drift']:.3e} > {MASS_TOL}")
        if obs["rows"] != expect["rows"]:
            problems.append(f"{obs['rows']} CSV rows, expected {expect['rows']}")
        for key in RECORD_KEYS + ("repr_err_max",):
            if not _rel_err(obs[key], expect[key]) <= RECORD_RTOL:
                problems.append(f"{key} {obs[key]!r} differs from reference "
                                f"{expect[key]!r} beyond rtol {RECORD_RTOL}")
    elif workload == "sweep_dense":
        t_end = SHAPES[workload][size]["t_end"]
        rows_expected = round(t_end / SWEEP_SAMPLE_EVERY) + 1
        if obs["statuses"] != ["ok"] * len(SWEEP_BETAS):
            problems.append(f"sweep statuses {obs['statuses']}")
        if obs["sweep_rows"] != len(SWEEP_BETAS):
            problems.append(f"sweep.csv has {obs['sweep_rows']} rows")
        for job in obs["jobs"]:
            tag = f"beta {job['beta']:g}:"
            if job["failed"]:
                problems.append(f"{tag} run reported failure")
            if not job["mass_drift"] <= MASS_TOL:
                problems.append(f"{tag} mass drift {job['mass_drift']:.3e} > {MASS_TOL}")
            if not job["budget_defect"] <= BUDGET_TOL:
                problems.append(f"{tag} budget defect {job['budget_defect']:.3e} > {BUDGET_TOL}")
            if not (job["min_v"] > 0.0 and job["min_theta"] > 0.0):
                problems.append(f"{tag} positivity lost")
            if not job["finite"]:
                problems.append(f"{tag} non-finite value in timeseries.csv")
            if job["rows"] != rows_expected:
                problems.append(f"{tag} {job['rows']} CSV rows, expected {rows_expected}")
    else:
        expect = ref[size][workload]
        for n, errs in expect["errors"].items():
            got = obs["errors"].get(n)
            if got is None or any(not _rel_err(a, b) <= MMS_RTOL for a, b in zip(got, errs)):
                problems.append(f"MMS errors at N = {n}: {got} vs reference {errs} "
                                f"(rtol {MMS_RTOL})")
        for name, order in obs["orders"].items():
            if not order >= ORDER_MIN:
                problems.append(f"MMS order for {name} is {order:.3f} < {ORDER_MIN}")
    return problems


def _percentile(values, q):
    ordered = sorted(values)
    if not ordered:
        return 0.0
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


def layer_metrics(tracer, wall_s, workers, output_bytes, speed):
    """Per-layer metrics of one traced repetition: name -> (value, unit).

    Shares are of the traced wall time: the entry point's wall time in a
    single process, the summed job times in the workers of a fan-out. Times
    are multiplied by ``speed``, the calibration factor.
    """
    job_wall = sum(tracer.job_walls)
    traced_wall = wall_s if workers == 1 else job_wall
    m = {}
    for label in LAYER_METRICS:
        calls = tracer.calls.get(label, 0)
        self_s = tracer.self_s.get(label, 0.0)
        m[f"{label}.calls"] = (calls, "count")
        m[f"{label}.us_per_call"] = (speed * self_s * 1e6 / calls if calls else 0.0, "us")
        m[f"{label}.share"] = (self_s / traced_wall, "ratio")
    p99 = _percentile(tracer.samples["solver.kernel"], 0.99)
    m["solver.kernel.p99_us"] = (speed * p99 * 1e6, "us")
    m["solver.driver.share"] = (tracer.self_s["solver.driver"] / traced_wall, "ratio")
    attempts = tracer.calls["solver.kernel"]
    m["solver.accept_ratio"] = (tracer.accepted / attempts if attempts else 0.0, "ratio")
    m["cli.output.s"] = (speed * tracer.self_s["cli.output"], "s")
    m["cli.output.bytes"] = (output_bytes, "B")
    m["cli.fanout.efficiency"] = (job_wall / (workers * wall_s), "ratio")
    m["cli.fanout.idle_s"] = (speed * (workers * wall_s - job_wall), "s")
    m["trace.closure_gap"] = (1.0 - sum(tracer.self_s.values()) / traced_wall, "ratio")
    return m


def _peak_rss_mb():
    # ru_maxrss is in KiB on Linux: this process plus its largest child
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


def _tree_bytes(path):
    return sum(p.stat().st_size for p in Path(path).rglob("*") if p.is_file())


def main(argv):
    workload, seed, out_dir, t_launch, traced, size = argv
    seed, t_launch, traced = int(seed), float(t_launch), traced == "1"
    report = {"workload": workload, "seed": seed, "traced": traced, "ok": False}
    try:
        import numpy
        import scipy

        from lagrangas import solver

        report["versions"] = {"python": sys.version.split()[0], "numpy": numpy.__version__,
                              "scipy": scipy.__version__}
        cfg = workload_config(workload, size, seed, out_dir)
        set_up(workload, cfg, size)
        raw_setup = time.monotonic() - t_launch
        setup_cells, setup_iters, setup_nominal = SETUP_CALIBRATION
        setup_s = raw_setup * setup_nominal / calibrate(setup_cells, setup_iters)
        cal_cells, cal_iters, cal_nominal = CALIBRATION[workload]
        cals = [calibrate(cal_cells, cal_iters)]

        steps_seen = []
        if workload == "mms_conv":
            # mms_error does not report its step count; count it at advance
            advance = solver.advance

            def counting_advance(*args, **kwargs):
                traj = advance(*args, **kwargs)
                steps_seen.append(traj.n_steps)
                return traj

            solver.advance = counting_advance
        tracer = None
        if traced:
            import layertrace

            tracer = layertrace.start(JOB_ATTR[workload])
            if workload == "sweep_dense":
                layertrace.trace_sweep_workers(tracer)

        # each call is scaled by the mean of the calibrations around it
        results, raw_wall, wall = [], 0.0, 0.0
        for key, call in entry_calls(workload, cfg, size, out_dir):
            started = time.perf_counter()
            results.append((key, call()))
            elapsed = time.perf_counter() - started
            cals.append(calibrate(cal_cells, cal_iters))
            raw_wall += elapsed
            wall += elapsed * cal_nominal / (0.5 * (cals[-2] + cals[-1]))
        result = gather(workload, results)
        report.update(raw_setup_s=raw_setup, raw_wall_s=raw_wall,
                      cal_s=sum(cals) / len(cals),
                      setup_s=setup_s, wall_s=wall)

        if tracer is not None and workload == "sweep_dense":
            layertrace.collect_sweep_rows(tracer, result)
        obs, steps = observe(workload, result, out_dir, size)
        report["steps"] = sum(steps_seen) if steps is None else steps
        ref = json.loads(REFERENCE_FILE.read_text(encoding="utf-8"))
        report["problems"] = check(workload, obs, ref, size)
        report["ok"] = not report["problems"]
        if tracer is not None:
            workers = SWEEP_WORKERS if workload == "sweep_dense" else 1
            report["layers"] = layer_metrics(tracer, raw_wall, workers,
                                             _tree_bytes(out_dir), wall / raw_wall)
    except Exception:
        report["problems"] = [traceback.format_exc()]
    report["peak_rss_mb"] = _peak_rss_mb()
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
