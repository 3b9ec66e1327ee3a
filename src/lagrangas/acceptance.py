"""The acceptance criteria behind the `verify` subcommand.

Each criterion is evaluated against the reference scenario (cosine data with
amplitudes 0.1, unit constants, N = 256, dt = 1e-4, t_end = 50) and its
refinements, all derived from the reference config. Tolerances are fixed
here; observed extrema and moment suprema are additionally compared against
regression pins (pins.json) within +-5% when the pins file is present; a
pins file that lacks one of them is rejected before any job runs.

Criteria 1-4, 6 and 9 compare thresholds with ``analysis.reduce_records``,
the reduction behind each run's summary.json, of a job's records or of those
up to a time; criteria 5 and 7 read the t, h1_dev and log_damping series.
Refinement-ratio checks (energy-drift halving, budget-defect decrease) are
measured on the [0, 10] window, where both quantities have saturated, so the
comparison runs stay affordable; the absolute envelopes are checked on the
full run.

Criterion 5 is expected to report FAIL in double precision: the reference
scenario decays at rate ~1.0 per unit time, so by t = 14 the H1 deviation
has fallen onto its numerical floor (the backward-Euler energy-drift offset,
~6e-6; with a drift-corrected reference, the accumulated roundoff texture of
the volume field, ~3e-11) and the fit window [25, 50] contains no decaying
signal at all. The rate and r^2 thresholds are evaluated faithfully anyway;
the decay itself is demonstrated on the resolvable window by the
trajectory-level tests (about twelve clean orders of magnitude).
"""

from __future__ import annotations

import json
import operator
import tempfile
from contextlib import nullcontext
from dataclasses import dataclass, replace
from functools import reduce
from importlib import resources
from pathlib import Path

import numpy as np

from . import analysis, cli, functionals, solver
from .core import InitialSpec, build_grid, make_initial_data
from .errors import ConfigError, InsufficientDataError

MASS_TOL = 1e-11
ENERGY_TOL = 1e-4
BUDGET_TOL = 5e-3
BOUND_LO = 0.2
BOUND_HI = 5.0
PIN_REL = 0.05
DECAY_WINDOW = (25.0, 50.0)
R2_MIN = 0.99
RATE_STABILITY = 0.10
REPR_TOL = 1e-3
REPR_RATIO_MIN = 3.5
LOG_Y_TOL = 0.01
MMS_ORDER_MIN = 1.9
MMS_LEVELS = (64, 128, 256)
MOMENT_ENVELOPE = 10.0
FIRST_ORDER_RATIO_MIN = 1.6
RATIO_WINDOW_END = 10.0
SWEEP_BETAS = (0.5, 1.5, 2.5)
EXTREMA = ("inf_v", "sup_v", "inf_theta", "sup_theta")


@dataclass
class CriterionResult:
    number: int
    name: str
    passed: bool
    detail: str


def _acceptance_worker(args):
    tag, cfg, out_dir = args
    return tag, cli._run_with_outputs(cfg, out_dir)[1].records


def _check_pins(cfg, pins) -> None:
    """Raise ConfigError naming the first pin that criterion 4 or 9 reads for
    ``cfg`` and that ``pins`` lacks: the extrema of the config's beta and of
    SWEEP_BETAS, and the moment suprema of the exponents the runs track."""
    lp = cfg.lp_exponents or functionals.default_lp_exponents(cfg.params)
    needed = [("bounds", f"{b:g}", k) for b in (cfg.params.beta, *SWEEP_BETAS) for k in EXTREMA]
    for path in needed + [("lp_sup", f"{q:g}") for q in lp]:
        try:
            reduce(operator.getitem, path, pins)
        except (KeyError, TypeError):
            raise ConfigError(f"pins.json has no entry {'/'.join(path)}") from None


def _until(records, t_max: float) -> list:
    """The records up to t_max, and the one that overshoots it by roundoff."""
    return [r for r in records if r.t <= t_max + 1e-9]


def _pin_ok(observed: float, pin: float) -> bool:
    lo, hi = sorted((pin * (1.0 - PIN_REL), pin * (1.0 + PIN_REL)))
    return lo <= observed <= hi


def _load_reference(config_dir):
    base = (resources.files("lagrangas").joinpath("configs") if config_dir is None
            else Path(config_dir))
    ref = base.joinpath("reference.cfg")
    if not ref.is_file():
        raise FileNotFoundError(f"reference config not found: {ref}")
    pins = base.joinpath("pins.json")
    return (ref.read_text(encoding="utf-8"),
            json.loads(pins.read_text(encoding="utf-8")) if pins.is_file() else None)


def run_acceptance(config_dir=None, out_dir=None, workers=None, echo=print):
    """Run every criterion; echo one pass/fail line each; return the results.

    Returns (results, observed): the per-criterion outcomes and the observed
    values that regression pins are generated from.
    """
    cfg_text, pins = _load_reference(config_dir)
    cfg = cli.parse_config(cfg_text)
    if pins is not None:
        _check_pins(cfg, pins)
    # the reference run stands for a sweep beta equal to the config's
    sweep_betas = [b for b in SWEEP_BETAS if b != cfg.params.beta]
    if workers is None:
        import os
        workers = min(2, os.cpu_count() or 1)

    scratch = (tempfile.TemporaryDirectory(prefix="lagrangas-verify-") if out_dir is None
               else nullcontext(out_dir))
    with scratch as out_name:
        out = Path(out_name)
        out.mkdir(parents=True, exist_ok=True)
        jobs = {
            "ref": cfg,
            "rerun": cfg,
            "dt_half": replace(cfg, dt=cfg.dt / 2, t_end=RATIO_WINDOW_END),
            "n512": replace(cfg, n_cells=2 * cfg.n_cells),
            "refined": replace(cfg, n_cells=2 * cfg.n_cells, dt=cfg.dt / 2,
                               t_end=RATIO_WINDOW_END),
            "repr512": cli.refinement_config(cfg, 2 * cfg.n_cells),
        }
        jobs.update((f"beta_{beta:g}", replace(cfg, params=replace(cfg.params, beta=beta)))
                    for beta in sweep_betas)
        # costliest first, by cells times steps (LPT scheduling), so that no
        # long job starts last; the results are keyed by tag, so the order
        # changes no outcome
        order = sorted(jobs, key=lambda tag: -jobs[tag].n_cells * jobs[tag].t_end / jobs[tag].dt)
        runs = dict(cli._fan_out(_acceptance_worker,
                                 [(tag, jobs[tag], str(out / tag)) for tag in order], workers))
        csv_a = (out / "ref" / "timeseries.csv").read_bytes()
        csv_b = (out / "rerun" / "timeseries.csv").read_bytes()

    mms_errors = {n: cli.mms_error(cfg, n) for n in MMS_LEVELS}

    results = []
    observed = {"bounds": {}, "lp_sup": {}}

    def add(number, name, passed, detail):
        result = CriterionResult(number, name, bool(passed), detail)
        results.append(result)
        echo(f"{'PASS' if result.passed else 'FAIL'} {number:>2} {name}: {detail}")

    reduced = {tag: analysis.reduce_records(records) for tag, records in runs.items()}
    red = reduced["ref"]
    red_10 = analysis.reduce_records(_until(runs["ref"], RATIO_WINDOW_END))

    # 1: conservation of mass exactly, of total energy at first order in dt
    # (drifts from the first record)
    ratio = red_10.energy_drift_rel / max(reduced["dt_half"].energy_drift_rel, 1e-300)
    add(1, "conservation", red.mass_drift <= MASS_TOL and red.energy_drift_rel <= ENERGY_TOL
        and ratio >= FIRST_ORDER_RATIO_MIN,
        f"mass drift {red.mass_drift:.2e} (tol {MASS_TOL}), energy drift "
        f"{red.energy_drift_rel:.2e} (tol {ENERGY_TOL}), drift ratio under dt/2 {ratio:.2f} "
        f"(>= {FIRST_ORDER_RATIO_MIN})")

    # 2: entropy budget defect small, nonincreasing, and refining at >= first order
    ratio2 = red_10.entropy_budget_defect / max(reduced["refined"].entropy_budget_defect, 1e-300)
    add(2, "entropy budget", red.entropy_budget_defect <= BUDGET_TOL
        and red.budget_max_increment <= BUDGET_TOL and ratio2 >= FIRST_ORDER_RATIO_MIN,
        f"sup defect {red.entropy_budget_defect:.2e} (tol {BUDGET_TOL}), max increment "
        f"{red.budget_max_increment:.2e}, refinement ratio {ratio2:.2f} "
        f"(>= {FIRST_ORDER_RATIO_MIN})")

    # 3: mean temperature stays in the corridor [alpha1 - tol, 1 + tol]
    detail3 = "no corridor: x - ln x = E0 has no representable lower root"
    if red.corridor is not None:
        (th_lo, th_hi), (lo, hi) = red.mean_theta_range, red.corridor
        detail3 = f"mean theta in [{th_lo:.4f}, {th_hi:.4f}], corridor [{lo:.4f}, {hi:.4f}]"
    add(3, "mean-temperature corridor", red.corridor_ok,
        f"{detail3} (E0 {runs['ref'][0].entropy_E:.4f})")

    # 4: uniform bounds on v and theta over the reference run and the beta sweep
    ok4 = True
    details4 = []
    for tag, beta in [("ref", cfg.params.beta)] + [(f"beta_{b:g}", b) for b in sweep_betas]:
        b = {k: getattr(reduced[tag], k) for k in EXTREMA}
        observed["bounds"][f"{beta:g}"] = b
        ok4 &= (b["inf_v"] >= BOUND_LO and b["inf_theta"] >= BOUND_LO
                and b["sup_v"] <= BOUND_HI and b["sup_theta"] <= BOUND_HI)
        if pins is not None:
            pinned = pins["bounds"][f"{beta:g}"]
            ok4 &= all(_pin_ok(b[k], pinned[k]) for k in b)
        details4.append(f"beta {beta:g}: v [{b['inf_v']:.3f},{b['sup_v']:.3f}] "
                        f"theta [{b['inf_theta']:.3f},{b['sup_theta']:.3f}]")
    pin_note = "pins +-5%" if pins is not None else "no pins file"
    add(4, "uniform bounds", ok4,
        f"envelope [{BOUND_LO}, {BOUND_HI}], {pin_note}; " + "; ".join(details4))

    # 5: exponential decay of the H1 deviation, grid-stable rate
    t, h1, log_y = np.array([(r.t, r.h1_dev, r.log_damping) for r in runs["ref"]]).T
    h1_window = h1[(t >= DECAY_WINDOW[0]) & (t <= DECAY_WINDOW[1])]
    try:
        fit = analysis.fit_decay_rate(t, h1, DECAY_WINDOW)
        fit512 = analysis.fit_decay_rate(
            *np.array([(r.t, r.h1_dev) for r in runs["n512"]]).T, DECAY_WINDOW)
        rate_shift = abs(fit512.rate - fit.rate) / fit.rate
        observed["eta0"] = fit.rate
        observed["eta0_n512"] = fit512.rate
        detail5 = (f"rate {fit.rate:.4f}, r^2 {fit.r_squared:.5f} (>= {R2_MIN}), "
                   f"rate at 2N {fit512.rate:.4f} (shift {100 * rate_shift:.1f}% "
                   f"<= {100 * RATE_STABILITY:.0f}%)")
        ok5 = (fit.rate > 0.0 and fit.r_squared >= R2_MIN
               and rate_shift <= RATE_STABILITY)
    except InsufficientDataError as exc:
        detail5 = f"fit impossible: {exc}"
        ok5 = False
    span = (f"h1 spans [{h1_window.min():.2e}, {h1_window.max():.2e}] in the window"
            if h1_window.size else "no samples in the window")
    add(5, "exponential stability", ok5, f"{detail5}; {span}")

    # 6: volume reconstruction accuracy on [0, 1] and second-order refinement
    repr_ref = analysis.reduce_records(_until(runs["ref"], 1.0)).repr_err_max
    repr_fine = reduced["repr512"].repr_err_max
    ratio6 = repr_ref / max(repr_fine, 1e-300)
    observed["repr_err_t1"] = repr_ref
    add(6, "volume reconstruction", repr_ref <= REPR_TOL and ratio6 >= REPR_RATIO_MIN,
        f"max rel err {repr_ref:.2e} (tol {REPR_TOL}), refinement ratio "
        f"{ratio6:.2f} (>= {REPR_RATIO_MIN})")

    # 7: damping factor stays between exp(-2t) and exp(-t) on normalized runs
    t_pos = t > 0.0
    t7 = t[t_pos]
    ly = log_y[t_pos]
    lower_ok = np.all(ly >= -2.0 * t7 - LOG_Y_TOL)
    upper_ok = np.all(ly <= -t7 + LOG_Y_TOL * t7)
    margin_lo = float(np.min(ly + 2.0 * t7)) if len(t7) else 0.0
    margin_hi = float(np.min(-t7 + LOG_Y_TOL * t7 - ly)) if len(t7) else 0.0
    add(7, "damping-factor bounds", bool(lower_ok and upper_ok),
        f"log Y within [-2t - {LOG_Y_TOL}, -t + {LOG_Y_TOL}t]; "
        f"margins {margin_lo:.3f} / {margin_hi:.3f}")

    # 8: forced-problem spatial order, and an exactly stationary equilibrium
    orders = cli.mms_orders(mms_errors)
    grid_eq = build_grid(64)
    eq = make_initial_data(InitialSpec(kind="equilibrium"), grid_eq, c_v=cfg.params.c_v)
    rates = solver.spatial_rhs(eq.v, eq.u, eq.theta, cfg.params, grid_eq)
    eq_resid = max(float(np.max(np.abs(r))) for r in rates)
    add(8, "forced-problem convergence",
        all(o >= MMS_ORDER_MIN for o in orders.values()) and eq_resid == 0.0,
        f"orders v {orders['v']:.2f}, u {orders['u']:.2f}, theta "
        f"{orders['theta']:.2f} (>= {MMS_ORDER_MIN}); equilibrium residual {eq_resid}")

    # 9: inverse-temperature moments stay bounded
    ok9 = True
    parts9 = []
    for q_exp, sup in sorted(red.lp_sup.items()):
        observed["lp_sup"][f"{q_exp:g}"] = sup
        ok9 &= sup <= MOMENT_ENVELOPE
        if pins is not None:
            ok9 &= _pin_ok(sup, pins["lp_sup"][f"{q_exp:g}"])
        parts9.append(f"p={q_exp:g}: {sup:.4f}")
    add(9, "moment boundedness", ok9,
        f"sup of theta^(1-p) totals (envelope {MOMENT_ENVELOPE}, {pin_note}): "
        + ", ".join(parts9))

    # 10: byte-identical time series for identical config and seed
    add(10, "determinism", csv_a == csv_b,
        f"timeseries.csv {'identical' if csv_a == csv_b else 'differs'} "
        f"across reruns ({len(csv_a)} bytes)")

    return results, observed
