"""lagrangas benchmark: run one workload for a fixed time and report metrics.

    python3 perfbench/run.py --workload ref256 --seed 1 --seconds 25 --trace 0

Run it from the repository root. Each repetition is a fresh interpreter
(job.py) that sets up, calls the workload's entry point once, and checks the
outputs. Repetitions run one after another until ``--seconds`` have passed;
the reported metrics are medians over them. ``--trace 1`` alternates
untraced and traced repetitions and reports the per-layer metrics instead.
The last line of standard output is the result as one JSON object.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

from job import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"

MIN_REPS = 3            # per kind (untraced, traced) and run
REP_TIMEOUT_S = 60.0
RUN_BUDGET_S = 170.0    # a run must end within 180 s
CLOSURE_TOL = 0.05      # |trace.closure_gap| allowed by the closure check
THREAD_PINS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")

END_TO_END_UNITS = {"wall_s": "s", "us_per_step": "us", "setup_s": "s",
                    "peak_rss_mb": "MB"}


def machine_facts():
    model = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "cpu_model": model, "commit": git_commit()}


def git_commit():
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="utf-8").strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text(encoding="utf-8").strip()
        for line in (git / "packed-refs").read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def run_rep(workload, seed, traced, size, index):
    """One repetition in a fresh interpreter; returns its report dict."""
    out_dir = OUT / f"{os.getpid()}_{index}"
    shutil.rmtree(out_dir, ignore_errors=True)
    out_dir.mkdir(parents=True)
    t_launch = time.monotonic()
    cmd = [sys.executable, str(HERE / "job.py"), workload, str(seed), str(out_dir),
           repr(t_launch), "1" if traced else "0", size]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            text=True, env=child_env(), cwd=ROOT, start_new_session=True)
    try:
        stdout, stderr = proc.communicate(timeout=REP_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        stdout, stderr = proc.communicate()
        stderr += f"\nrepetition killed after {REP_TIMEOUT_S} s"
    finally:
        # the sweep's pool workers are in the child's process group
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        shutil.rmtree(out_dir, ignore_errors=True)
    lines = stdout.strip().splitlines()
    try:
        report = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        report = {"ok": False, "problems": [f"exit {proc.returncode}: {stderr.strip()[-2000:]}"]}
    report["elapsed_s"] = time.monotonic() - t_launch
    return report


def end_to_end(reps):
    timed = [r for r in reps if "wall_s" in r and r.get("steps")]
    if not timed:
        return None
    per_step = [r["wall_s"] * 1e6 / r["steps"] for r in timed]
    values = {
        "wall_s": statistics.median(r["wall_s"] for r in timed),
        "us_per_step": statistics.median(per_step),
        "setup_s": statistics.median(r["setup_s"] for r in timed),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in timed),
    }
    return {name: {"value": v, "unit": END_TO_END_UNITS[name]} for name, v in values.items()}


def raw_times(reps):
    """Medians of the unscaled times and of the calibration loop."""
    timed = [r for r in reps if "raw_wall_s" in r]
    if not timed:
        return {}
    return {key: statistics.median(r[key] for r in timed)
            for key in ("raw_wall_s", "raw_setup_s", "cal_s")}


def per_layer(untraced, traced):
    layered = [r for r in traced if "layers" in r]
    if not layered:
        return None
    metrics = {}
    for name, (_, unit) in layered[0]["layers"].items():
        metrics[name] = {"value": statistics.median(r["layers"][name][0] for r in layered),
                         "unit": unit}
    # repetitions alternate, so each traced one is paired with the untraced
    # one before it; the median ratio is robust to the machine's drift
    ratios = [t["wall_s"] / t["steps"] / (u["wall_s"] / u["steps"])
              for u, t in zip(untraced, traced) if "layers" in t and u.get("steps")]
    if not ratios:
        return None
    metrics["trace.overhead"] = {"value": statistics.median(ratios) - 1.0, "unit": "ratio"}
    return metrics


def measure(workload, seed, seconds, trace, size):
    """Repetitions for ``seconds`` after one warm-up; returns (untraced, traced)."""
    started = time.monotonic()
    run_rep(workload, seed, False, size, 0)  # warm-up: bytecode, page cache
    untraced, traced = [], []
    clock0 = time.monotonic()
    longest = 0.0
    index = 1
    while True:
        kinds = [untraced, traced] if trace else [untraced]
        done = all(len(k) >= MIN_REPS for k in kinds)
        now = time.monotonic()
        if done and now - clock0 >= seconds:
            break
        if now - started + 1.5 * longest > RUN_BUDGET_S:
            break
        target = min(kinds, key=len) if trace else untraced
        rep = run_rep(workload, seed, target is traced, size, index)
        longest = max(longest, rep["elapsed_s"])
        target.append(rep)
        index += 1
    return untraced, traced


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny workload sizes, for the self-test")
    args = parser.parse_args(argv)

    if not (SRC / "lagrangas" / "__init__.py").is_file():
        print(f"error: no lagrangas sources at {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    for name in THREAD_PINS:  # inherited by every repetition and its workers
        os.environ[name] = "1"

    size = "smoke" if args.smoke else "full"
    try:
        untraced, traced = measure(args.workload, args.seed, args.seconds,
                                   bool(args.trace), size)
    finally:
        shutil.rmtree(OUT, ignore_errors=True)
    reps = untraced + traced
    failed = [r for r in reps if not r.get("ok")]
    for rep in failed:
        print(f"repetition failed: {rep.get('problems')}", file=sys.stderr)
    metrics = per_layer(untraced, traced) if args.trace else end_to_end(untraced)
    if metrics is None:
        print("error: no repetition produced timings", file=sys.stderr)
        return 1

    sample = next((r for r in reps if "versions" in r), {})
    facts = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
             "size": size, "seconds": args.seconds, "reps_untraced": len(untraced),
             "reps_traced": len(traced), "error_rate": len(failed) / len(reps),
             "unscaled": raw_times(untraced),
             "machine": dict(machine_facts(), **sample.get("versions", {})),
             "thread_pins": {name: "1" for name in THREAD_PINS}}
    if args.trace:
        facts["closure_ok"] = abs(metrics["trace.closure_gap"]["value"]) <= CLOSURE_TOL
    print(json.dumps(facts))
    shown = dict(metrics)
    if not args.trace:
        shown["error_rate"] = {"value": facts["error_rate"], "unit": "ratio"}
    for name, m in shown.items():
        print(f"{name:34s} {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": not failed, "attempted": len(reps),
                      "failed": len(failed), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
