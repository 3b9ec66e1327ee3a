"""Exception types shared across the package."""


class LagrangasError(Exception):
    """Base class for all package-specific errors."""


class ParamError(LagrangasError, ValueError):
    """A physical parameter (a PhysParams field) or a run control (n_cells,
    dt, scheme, t_end, sample_every) is out of range; ``field`` names it."""

    def __init__(self, field, message):
        super().__init__(message)
        self.field = field


class ConstructionError(LagrangasError, ValueError):
    """Initial data cannot be built: an InitialSpec field or the heat
    capacity ``c_v`` out of range, which ``field`` names, or a positivity or
    normalization failure on a grid."""

    def __init__(self, message, field=None):
        super().__init__(message)
        self.field = field


class FormatError(LagrangasError, ValueError):
    """A table file does not match the expected layout."""


class ConfigError(LagrangasError, ValueError):
    """A run configuration is malformed; carries the offending key and line."""

    def __init__(self, message, key=None, line=None):
        loc = ""
        if key is not None:
            loc += f" (key {key!r}"
            loc += f", line {line})" if line is not None else ")"
        elif line is not None:
            loc += f" (line {line})"
        super().__init__(message + loc)
        self.key = key
        self.line = line


class StepRejected(LagrangasError):
    """A time step was refused; the caller may retry with a smaller dt.
    ``reason`` names the check that refused it (see the solver's reasons)."""

    def __init__(self, reason, message):
        super().__init__(message)
        self.reason = reason


class NumericalBreakdown(LagrangasError):
    """A linear solve hit a non-positive pivot; the state is unusable."""


class SimulationFailure(LagrangasError):
    """Time integration could not continue; carries the last good state and,
    when available, the partial trajectory accumulated so far."""

    def __init__(self, message, last_state=None, trajectory=None):
        super().__init__(message)
        self.last_state = last_state
        self.t = None if last_state is None else last_state.t
        self.trajectory = trajectory


class WorkerDied(SimulationFailure):
    """A worker process of a process pool died. ``results`` holds, in job
    order, the result of each job that finished before, and None for each
    job lost with the pool."""

    def __init__(self, message, results):
        super().__init__(message)
        self.results = results


class InsufficientDataError(LagrangasError, ValueError):
    """Too few usable samples for a fit."""


class NoRootsError(LagrangasError, ValueError):
    """x - ln x = e0 has no roots (e0 below the minimum value 1)."""
