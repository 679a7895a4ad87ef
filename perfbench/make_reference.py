"""Regenerate the reference traces that every benchmark run is checked against.

    python3 perfbench/make_reference.py

Writes perfbench/reference/<key>.npz for crossing, headon and each ring12
variant.  A change that alters the program's numerics is measured against the
old references first, so that its trace_drift is reported, and regenerates
them only in a change of its own.
"""

import logging
import os
import shutil

import run  # noqa: F401  (pins BLAS threads, puts the checkout's src/ on sys.path)
import checks
import workloads
from trustcbf import cli, sim


def main() -> None:
    logging.getLogger("trustcbf").addHandler(logging.NullHandler())
    scratch = workloads.ROOT / ".bench_out" / f"reference-{os.getpid()}"
    scratch.mkdir(parents=True)
    try:
        for key in workloads.all_keys():
            s = cli.load_scenario(workloads.scenario_file(key, scratch))
            trace = sim.run(s)
            min_h = sim.metrics(trace, s)["min_h"]
            path = checks.save_reference(key, trace, s, min_h)
            fallbacks, steps = checks.fallback_count(trace, s)
            print(f"{key}: {len(trace.times)} records, fallbacks {fallbacks}/{steps}, "
                  f"min_h {min_h!r} -> {path.name}")
    finally:
        shutil.rmtree(scratch, ignore_errors=True)


if __name__ == "__main__":
    main()
