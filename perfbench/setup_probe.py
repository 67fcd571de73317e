"""One cold set-up of a workload in a fresh interpreter.

Usage, from the repository root with src on PYTHONPATH:

    python3 perfbench/setup_probe.py <workload> <seed>

Imports the package, builds the angular dictionaries and runs the
workload's warm-up ops with one BLAS thread, as the timed ops run. Then it
times the reference kernel that gives the machine speed (about 3 ms) and
prints {"dictionary_build_ms": ..., "reference_s": ...} as JSON. The
caller times the whole process, interpreter start included, and scales
that time by the reference.
"""

import json
import sys
import time


def main() -> None:
    workload, seed = sys.argv[1], int(sys.argv[2])
    import blas
    import workloads as wl
    from irsbeam.arrays import cascade_dictionary, dft_dictionary

    with blas.threads(1):
        t0 = time.perf_counter()
        cascade_dictionary(wl.ARRAY)
        dft_dictionary(wl.ARRAY.n_t)
        build_ms = 1e3 * (time.perf_counter() - t0)
        wl.warm_up(workload, seed)
        ref_s = wl.reference_s()
    print(json.dumps({"dictionary_build_ms": build_ms, "reference_s": ref_s}))


if __name__ == "__main__":
    main()
