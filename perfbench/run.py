"""CA-GMRES serving benchmark on both clocks: the host and the simulated node.

Run from the repository root:

    python3 perfbench/run.py --workload g3-solve --seed 1 --seconds 30 --trace 0

Workloads (see ``workloads.py``), all on 3 simulated GPUs:

* ``g3-solve``     -- G3_circuit analog (n=65,536), k-way ordering,
  CA-GMRES(15,30), single requests solved to tol 1e-4;
* ``cant-restart`` -- cant analog (n=18,432), natural ordering,
  CA-GMRES(15,60) with 2x CholQR, requests capped at 4 restarts, plus one
  GMRES(60)-CGS baseline request;
* ``g3-batch``     -- the g3-solve system answering batches of 3 RHS
  through ``solve_many``.

``--trace 0`` measures the end-to-end metrics untraced.  ``--trace 1``
measures the per-layer metrics: host self time and call counts from spans
around each layer's entry points, and the simulated region, PCIe and
kernel figures from ``SolveResult.details["profile"]``.

Standard output ends with one JSON line
``{"correct", "attempted", "failed", "metrics"}``; the lines before it
record the environment and the sample counts.  Exits 2 without a result
when the ``repro`` sources are not beside this directory.
"""

import argparse
import json
import os
import platform
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        print(f"perfbench: no repro sources under {src}", file=sys.stderr)
        return 2
    # One BLAS/OpenMP thread, pinned before numpy is first imported.
    for var in THREAD_VARS:
        os.environ[var] = "1"
    sys.path.insert(0, str(src))

    import numpy
    import scipy

    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {sorted(workloads.WORKLOADS)}")
    env = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "threads": {var: os.environ[var] for var in THREAD_VARS},
    }
    print(json.dumps({"env": env}))

    measure = workloads.per_layer if args.trace else workloads.end_to_end
    bench, metrics, samples = measure(args.workload, args.seed, args.seconds)
    print(json.dumps({"samples": samples}))
    for name, (value, unit) in metrics.items():
        print(f"{name:34s} {value:14.6g} {unit}")
    result = {
        "correct": bench.failed == 0
        and samples.get("inert", True)
        and samples.get("restored", True),
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {
            name: {"value": float(value), "unit": unit}
            for name, (value, unit) in metrics.items()
        },
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
