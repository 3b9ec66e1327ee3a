"""Regenerate reference.json, the stored outputs the correctness gate
compares against.

    PYTHONPATH=src python3 perfbench/make_reference.py

Run it from the repository root, and only when a change to the program is
meant to change these numbers; say why in the change's notes.
"""

from __future__ import annotations

import json
import tempfile

import job


def main():
    ref = {"tolerances": {"record_rtol": job.RECORD_RTOL, "mms_rtol": job.MMS_RTOL}}
    for size in ("full", "smoke"):
        ref[size] = {}
        for workload in ("ref256", "wide4096", "mms_conv"):
            with tempfile.TemporaryDirectory(dir=job.HERE) as out_dir:
                cfg = job.workload_config(workload, size, 0, out_dir)
                calls = job.entry_calls(workload, cfg, size, out_dir)
                result = job.gather(workload, [(key, call()) for key, call in calls])
                obs, _ = job.observe(workload, result, out_dir, size)
            if workload == "mms_conv":
                ref[size][workload] = {"errors": obs["errors"]}
            else:
                keys = job.RECORD_KEYS + ("repr_err_max", "rows")
                ref[size][workload] = {key: obs[key] for key in keys}
            print(size, workload, json.dumps(obs))
    job.REFERENCE_FILE.write_text(json.dumps(ref, indent=2, sort_keys=True) + "\n",
                                  encoding="utf-8")


if __name__ == "__main__":
    main()
