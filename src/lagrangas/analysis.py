"""Post-processing: root pairs, decay-rate fits, record reductions, orders."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InsufficientDataError, NoRootsError

NORM_FLOOR = 1e-13
CORRIDOR_TOL = 0.01  # slack of the mean-temperature corridor on each side
E0_MAX = 705.0  # above it the lower entropy root leaves the normal double range


def _gap(x: float, e0: float) -> float:
    return x - np.log(x) - e0


def entropy_roots(e0: float) -> tuple[float, float]:
    """Both roots of x - ln x = e0, the lower in (0, 1], the upper in [1, inf).

    x - ln x has its minimum value 1 at x = 1, so e0 < 1 raises NoRootsError
    and e0 = 1 returns (1, 1). Roots are found by bisection; back-substituting
    either root reproduces e0 to within 1e-12 throughout the supported domain
    e0 <= 705 (above that the lower root, about exp(-e0), leaves the normal
    double-precision range).
    """
    if not np.isfinite(e0):
        raise NoRootsError(f"e0 must be finite, got {e0}")
    if e0 < 1.0:
        raise NoRootsError(f"x - ln x >= 1 everywhere, no roots for e0 = {e0}")
    if e0 > E0_MAX:
        raise ValueError(f"lower root underflows double precision for e0 = {e0}")
    if e0 == 1.0:
        return 1.0, 1.0

    def bisect(lo, hi, gap, increasing):
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            if mid == lo or mid == hi:
                break
            if (gap(mid) > 0.0) == increasing:
                hi = mid
            else:
                lo = mid
        return 0.5 * (lo + hi)

    # lower root: bisect in y = ln x, where exp(y) - y - e0 changes sign on
    # [-e0 - 1, 0]; the log variable keeps tiny roots (large e0) resolvable
    y = bisect(-e0 - 1.0, 0.0, lambda yy: np.exp(yy) - yy - e0, increasing=False)
    alpha1 = min(np.exp(y), 1.0)
    hi = 2.0
    while _gap(hi, e0) < 0.0:
        hi *= 2.0
    alpha2 = bisect(1.0, hi, lambda xx: _gap(xx, e0), increasing=True)
    return float(alpha1), float(alpha2)


@dataclass(frozen=True)
class DecayFit:
    """Least-squares exponential fit of a norm time series."""

    rate: float
    log_amplitude: float
    r_squared: float
    window: tuple[float, float]
    n_samples: int
    n_excluded: int


def fit_decay_rate(times, norms, window: tuple[float, float] | None = None) -> DecayFit:
    """Fit ln(norm) = log_amplitude - rate * t over a time window.

    Samples at or below NORM_FLOOR are dropped (there, roundoff noise would
    corrupt the slope) and counted in n_excluded. Raises
    InsufficientDataError with fewer than 5 usable samples. The default
    window is the second half of the series.
    """
    t = np.asarray(times, dtype=float)
    y = np.asarray(norms, dtype=float)
    if t.shape != y.shape or t.ndim != 1:
        raise ValueError("times and norms must be 1-d arrays of equal length")
    if window is None:
        window = (t[0] + 0.5 * (t[-1] - t[0]), t[-1])
    t_lo, t_hi = window
    if not t_lo < t_hi:
        raise ValueError(f"fit window must be ordered, got {window}")

    in_window = (t >= t_lo) & (t <= t_hi)
    usable = in_window & (y > NORM_FLOOR)
    n_excluded = int(np.count_nonzero(in_window) - np.count_nonzero(usable))
    n = int(np.count_nonzero(usable))
    if n < 5:
        raise InsufficientDataError(
            f"{n} usable samples in window {window} ({n_excluded} at the floor); need 5")

    tt = t[usable]
    ln_y = np.log(y[usable])
    slope, intercept = np.polyfit(tt, ln_y, 1)
    residual = ln_y - (slope * tt + intercept)
    ss_res = float(np.sum(residual ** 2))
    ss_tot = float(np.sum((ln_y - ln_y.mean()) ** 2))
    r_squared = 1.0 if ss_tot == 0.0 else 1.0 - ss_res / ss_tot
    return DecayFit(rate=float(-slope), log_amplitude=float(intercept),
                    r_squared=float(r_squared), window=(float(t_lo), float(t_hi)),
                    n_samples=n, n_excluded=n_excluded)


@dataclass
class RecordReduction:
    """The numbers a run's records reduce to, each once; see
    ``reduce_records``."""

    mass_drift: float
    energy_drift_rel: float
    entropy_budget_defect: float
    budget_max_increment: float
    inf_v: float
    sup_v: float
    inf_theta: float
    sup_theta: float
    mean_theta_range: tuple[float, float]
    corridor: tuple[float, float] | None
    corridor_ok: bool | None
    repr_err_max: float
    lp_sup: dict


def reduce_records(records) -> RecordReduction:
    """Reduce a run's records (a list, a prefix of one, or a Trajectory).

    Drifts are the largest |mass - mass0|, |energy - energy0| / |energy0| and
    |entropy + int V dt - entropy0| (the budget defect), from the first
    record; ``budget_max_increment`` is the largest rise of entropy + int V dt
    from one sample to the next (0 if none). The extrema are those of v and
    theta over all records. The corridor is alpha1 - CORRIDOR_TOL to
    1 + CORRIDOR_TOL, alpha1 the lower root of x - ln x = E0, the first
    record's entropy, and ``corridor_ok`` says whether ``mean_theta_range``
    lies in it; both are None when E0 is outside ``entropy_roots``' domain.
    ``lp_sup`` maps moment exponents to suprema.
    """
    records = list(getattr(records, "records", records))
    if not records:
        raise ValueError("trajectory has no records")
    first = records[0]
    corridor = ((entropy_roots(first.entropy_E)[0] - CORRIDOR_TOL, 1.0 + CORRIDOR_TOL)
                if 1.0 <= first.entropy_E <= E0_MAX else None)
    budget = [r.entropy_E + r.int_V_dt for r in records]
    theta_lo, theta_hi = min(r.mean_theta for r in records), max(r.mean_theta for r in records)
    return RecordReduction(
        mass_drift=max(abs(r.mass - first.mass) for r in records),
        energy_drift_rel=(max(abs(r.total_energy - first.total_energy) for r in records)
                          / abs(first.total_energy)),
        entropy_budget_defect=max(abs(q - first.entropy_E) for q in budget),
        budget_max_increment=max([0.0] + [b - a for a, b in zip(budget, budget[1:])]),
        mean_theta_range=(theta_lo, theta_hi),
        corridor=corridor,
        corridor_ok=(None if corridor is None
                     else corridor[0] <= theta_lo and theta_hi <= corridor[1]),
        inf_v=min(r.min_v for r in records), sup_v=max(r.max_v for r in records),
        inf_theta=min(r.min_theta for r in records),
        sup_theta=max(r.max_theta for r in records),
        repr_err_max=max(r.repr_err for r in records),
        lp_sup={q: max(r.lp_moments[q] for r in records) for q in first.lp_moments})


def convergence_order(errors) -> float:
    """Least-squares slope of ln e against ln h over refinement levels.

    ``errors`` is a sequence of (h, e) pairs with h strictly decreasing and
    e positive; at least 3 levels are required.
    """
    pairs = [(float(h), float(e)) for h, e in errors]
    if len(pairs) < 3:
        raise ValueError(f"need at least 3 levels, got {len(pairs)}")
    h = np.array([p[0] for p in pairs])
    e = np.array([p[1] for p in pairs])
    if np.any(np.diff(h) >= 0.0):
        raise ValueError("h values must be strictly decreasing")
    if np.any(e <= 0.0):
        raise ValueError("error values must be positive")
    slope, _ = np.polyfit(np.log(h), np.log(e), 1)
    return float(slope)
