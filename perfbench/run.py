"""Benchmark entry point.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --self-check      # ledger counts repeat exactly
    python3 perfbench/run.py --calibrate       # time the reference loop

Run from the root of a checkout; the program is imported from its ``src/``.
The environment is pinned here, before numpy loads: one BLAS/OpenMP thread,
and none of the ``REPRO_*`` variables that would let the caller's shell
change the engine, sparse tier, worker pool, fault injection, numba use
or flight-recorder directory of a workload.
"""

import os
import sys
import time

PINNED = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}
CLEARED = ("REPRO_ENGINE", "REPRO_SPARSE", "REPRO_MAX_WORKERS", "REPRO_FAULTS",
           "REPRO_NO_NUMBA", "REPRO_FLIGHT_DIR")


def pin_environment(root: str) -> None:
    """Pin threads, clear the REPRO_* overrides, import the program from ``src/``."""
    os.environ.update(PINNED)
    for name in CLEARED:
        os.environ.pop(name, None)
    sys.path.insert(0, os.path.join(root, "src"))


def main() -> int:
    here = os.path.dirname(os.path.abspath(__file__))
    root = os.path.dirname(here)
    if not os.path.isfile(os.path.join(root, "src", "repro", "__init__.py")):
        print(f"perfbench: no program source under {root}/src", file=sys.stderr)
        return 2
    pin_environment(root)
    sys.path.insert(0, here)
    from ssnbench import main as bench

    argv = sys.argv[1:]
    if "--self-check" in argv:
        return bench.self_check(["golden_single", "ensemble_campaign", "serve_mix"])
    if "--calibrate" in argv:
        from ssnbench.common import reference_loop
        import statistics
        samples = []
        for _ in range(200):
            t0 = time.perf_counter()
            reference_loop()
            samples.append((time.perf_counter() - t0) * 1e3)
        print(f"reference loop: median {statistics.median(samples):.4f} ms "
              f"over {len(samples)} samples")
        return 0
    return bench.main(argv)


if __name__ == "__main__":
    sys.exit(main())
