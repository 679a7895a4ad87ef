"""trustcbf benchmark entry point.

    python3 perfbench/run.py --workload {crossing,ring12,headon} --seed N \
        --seconds S --trace {0,1}

Run from anywhere inside a checkout; the program is imported from the
checkout's ``src/``.  The last line of standard output is one JSON object with
the keys correct, attempted, failed and metrics.  See perfbench/README.md.
"""

import os
import sys
from pathlib import Path

# Pin BLAS and OpenMP pools to one thread before numpy is imported.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

ROOT = Path(__file__).resolve().parent.parent
if str(ROOT / "src") not in sys.path:
    sys.path.insert(0, str(ROOT / "src"))

if __name__ == "__main__":
    missing = [p for p in ("src/trustcbf/__init__.py", "scenarios/crossing.json",
                           "scenarios/headon_stress.json") if not (ROOT / p).is_file()]
    if missing:
        print(f"perfbench: not a trustcbf checkout, missing {', '.join(missing)} under {ROOT}",
              file=sys.stderr)
        sys.exit(2)
    import bench
    sys.exit(bench.main(sys.argv[1:]))
