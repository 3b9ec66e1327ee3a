"""Outside-in layer tracing for lagrangas, installed from the benchmark.

Module-level functions of ``solver``, ``functionals``, ``representation`` and
``cli`` are replaced by timing wrappers; nothing under ``src/`` changes. Each
wrapper counts calls and accumulates *self* time: its elapsed time minus the
elapsed time of the wrapped calls it made. Unwrapped code therefore counts
towards the nearest wrapped caller, and code outside every wrapped call shows
as a closure gap against the benchmark's own wall clock.

``cli.sweep`` runs its jobs in worker processes. While tracing, its worker
function is swapped for ``sweep_worker`` below, which traces the job inside
the worker and ships the counters back in the row it returns.
"""

from __future__ import annotations

import time

# (label, module name, attribute). Several attributes may share a label;
# their calls and self times are summed.
WRAPPED = (
    ("solver.driver", "solver", "advance"),
    ("solver.kernel", "solver", "_take_step"),
    ("solver.tridiag", "solver", "_solve_spd_tridiag"),
    ("solver.mms_source", "solver", "_sources_at"),
    ("solver.state", "solver", "State"),
    ("functionals.dissipation", "functionals", "dissipation"),
    ("functionals.record", "functionals", "record"),
    ("representation.damping", "representation", "update_damping"),
    ("representation.base", "representation", "_base_factor_cached"),
    ("representation.history", "representation", "update_history"),
    ("representation.reconstruct", "representation", "reconstruct_volume"),
    ("cli.setup", "cli", "_execute"),
    ("cli.output", "cli", "_run_with_outputs"),
    ("cli.output", "cli", "_csv_text"),
    ("cli.output", "cli", "write_snapshot"),
    ("cli.output", "cli", "_summarize"),
    ("cli.output", "cli", "mms_error"),
)

# Labels whose per-call self times are kept, for percentiles.
SAMPLED = ("solver.kernel",)


class Tracer:
    """Call counts and self times per label, for one process."""

    def __init__(self):
        self.calls = {}
        self.self_s = {}
        self.samples = {label: [] for label in SAMPLED}
        self.accepted = 0
        self.job_walls = []
        self._stack = []
        self._originals = []

    def reset(self):
        for label in self.calls:
            self.calls[label] = 0
            self.self_s[label] = 0.0
        for samples in self.samples.values():
            samples.clear()
        self.accepted = 0
        self.job_walls.clear()

    def install(self, modules, job_attr=None):
        """Wrap every entry of WRAPPED found in ``modules`` (name -> module).

        Calls of ``job_attr`` are jobs: their inclusive times are kept too.
        """
        for label, mod_name, attr in WRAPPED:
            module = modules[mod_name]
            fn = getattr(module, attr)
            self._originals.append((module, attr, fn))
            setattr(module, attr, self._wrap(label, fn, attr == "advance",
                                             attr == job_attr))

    def original(self, module, attr):
        for mod, name, fn in self._originals:
            if mod is module and name == attr:
                return fn
        return getattr(module, attr)

    def _wrap(self, label, fn, counts_steps, is_job):
        self.calls.setdefault(label, 0)
        self.self_s.setdefault(label, 0.0)
        calls, self_s = self.calls, self.self_s
        samples = self.samples.get(label)
        stack = self._stack
        job_walls = self.job_walls
        clock = time.perf_counter
        tracer = self

        def traced(*args, **kwargs):
            stack.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                own = elapsed - stack.pop()
                if stack:
                    stack[-1] += elapsed
                calls[label] += 1
                self_s[label] += own
                if samples is not None:
                    samples.append(own)
                if is_job:
                    job_walls.append(elapsed)
            if counts_steps:
                tracer.accepted += result.n_steps
            return result

        return traced

    def snapshot(self) -> dict:
        return {"calls": dict(self.calls), "self_s": dict(self.self_s),
                "samples": {k: list(v) for k, v in self.samples.items()},
                "accepted": self.accepted,
                "job_walls": list(self.job_walls)}

    def merge(self, snap: dict):
        for label, n in snap["calls"].items():
            self.calls[label] = self.calls.get(label, 0) + n
        for label, s in snap["self_s"].items():
            self.self_s[label] = self.self_s.get(label, 0.0) + s
        for label, values in snap["samples"].items():
            self.samples.setdefault(label, []).extend(values)
        self.accepted += snap["accepted"]
        self.job_walls.extend(snap["job_walls"])


_active: Tracer | None = None


def lagrangas_modules() -> dict:
    from lagrangas import cli, functionals, representation, solver

    return {"cli": cli, "functionals": functionals,
            "representation": representation, "solver": solver}


def start(job_attr=None) -> Tracer:
    """Install tracing in this process, once, and return the tracer."""
    global _active
    if _active is None:
        _active = Tracer()
        _active.install(lagrangas_modules(), job_attr)
    return _active


def trace_sweep_workers(tracer: Tracer):
    """Route ``cli.sweep``'s jobs through ``sweep_worker``."""
    cli = lagrangas_modules()["cli"]
    tracer._originals.append((cli, "_sweep_worker", cli._sweep_worker))
    cli._sweep_worker = sweep_worker


def collect_sweep_rows(tracer: Tracer, rows):
    """Move the counters the workers attached to ``rows`` into ``tracer``."""
    for row in rows:
        tracer.merge(row.pop("_trace"))


def sweep_worker(args):
    """Stand-in for ``cli._sweep_worker`` that traces the job in the worker.

    A forked worker inherits the parent's wrappers and counters, so they are
    reset first; a spawned one installs its own.
    """
    tracer = start()
    tracer.reset()
    cli = lagrangas_modules()["cli"]
    job = tracer.original(cli, "_sweep_worker")
    if job is sweep_worker:
        raise RuntimeError("sweep_worker cannot find the original worker")
    started = time.perf_counter()
    row = job(args)
    tracer.job_walls.append(time.perf_counter() - started)
    return dict(row, _trace=tracer.snapshot())
