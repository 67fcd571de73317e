"""irsbeam benchmark: one workload, one run, one JSON result line.

Usage, from the repository root:

    python3 perfbench/run.py --workload los-serial --seed 1 --seconds 15 --trace 0

Workloads (N_t=128, M=16x16, R=8, Q=16, L=7; inputs derived from --seed):

  los-serial         run_trial over consecutive trial indices, criterion-8b
                     config (-20 dB, ideal-sparse, LOS, BGR on)
  nlos-sweep-serial  `irsbeam sweep --axis snr` in-process on a generated
                     NLOS config, IRSBEAM_WORKERS=1
  nlos-sweep-pooled  the same sweep with IRSBEAM_WORKERS=nproc
  cm-plan            constant-modulus plan build plus JSON round trip

--trace 0 measures end-to-end metrics for --seconds (longer if a
workload's minimum op count needs it); --trace 1 replays a fixed amount of
work traced and reports per-layer metrics. Timed ops run with one BLAS
thread (blas.py). End-to-end times are scaled to a nominal machine speed
given by a reference kernel run between ops (workloads.py); the raw wall
times are printed as `info wall.*` lines. Every op's output is checked; a failed check
or a raised package error is a failed op. The package is imported from
src/ next to this directory; without it the run exits with code 2.
Files the run writes go to perfbench/out/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BENCH_DIR = Path(__file__).resolve().parent
OUT_DIR = BENCH_DIR / "out"
# Cold set-ups per run; setup_s is their median.
SETUP_REPEATS = 9
SETUP_TIMEOUT_S = 60
# BLAS threads of the timed ops (see blas.py); pooled sweeps use the default.
TIMED_BLAS_THREADS = 1
WORKLOAD_NAMES = ("los-serial", "nlos-sweep-serial", "nlos-sweep-pooled", "cm-plan")


def _git_commit() -> str | None:
    """HEAD of the checkout, read from .git without running git."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref_file = ROOT / ".git" / ref[5:]
    if ref_file.is_file():
        return ref_file.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    return None


def _src_digest() -> str:
    """sha256 over the package sources, for checkouts without git."""
    h = hashlib.sha256()
    for path in sorted((SRC / "irsbeam").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()[:16]


def environment_stamp() -> dict:
    """What a result must be compared under: never mix these."""
    import numpy as np

    import blas

    try:
        dep = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_version = f"{dep.get('name')} {dep.get('version')}"
    except (TypeError, KeyError, ValueError):
        blas_version = "unknown"
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_version,
        "blas_threads": blas.current(),
        "blas_threads_default": blas.DEFAULT,
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
        "IRSBEAM_WORKERS": os.environ.get("IRSBEAM_WORKERS"),
        "git_commit": _git_commit(),
        "src_sha256": _src_digest(),
    }


def measure_setup(workload: str, seed: int) -> tuple[list[float], list[float], list[float]]:
    """Cold set-ups in fresh interpreters: wall seconds, the same scaled to
    the nominal machine speed, and dictionary ms."""
    import workloads as wl

    env = dict(os.environ, PYTHONPATH=str(SRC))
    walls, scaled, dict_ms = [], [], []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        done = subprocess.run(
            [sys.executable, str(BENCH_DIR / "setup_probe.py"), workload, str(seed)],
            cwd=ROOT, env=env, capture_output=True, text=True,
            timeout=SETUP_TIMEOUT_S, check=True,
        )
        walls.append(time.perf_counter() - t0)
        probe = json.loads(done.stdout.splitlines()[-1])
        scaled.append(walls[-1] * wl.REF_NOMINAL_S / probe["reference_s"])
        dict_ms.append(probe["dictionary_build_ms"])
    return walls, scaled, dict_ms


def _number(value: float) -> float | None:
    return None if isinstance(value, float) and math.isnan(value) else value


def report(name: str, value: float, unit: str, note: str = "", kind: str = "metric") -> None:
    suffix = f"  ({note})" if note else ""
    print(f"{kind} {name} = {value!r} {unit}{suffix}")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    return args


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    if not (SRC / "irsbeam" / "__init__.py").is_file():
        print(f"error: no package sources at {SRC / 'irsbeam'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import irsbeam

    if not Path(irsbeam.__file__).resolve().is_relative_to(SRC):
        print(f"error: irsbeam imported from {irsbeam.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import blas

    with blas.threads(TIMED_BLAS_THREADS):
        return measure(args)


def measure(args) -> int:
    import replay
    import workloads as wl

    OUT_DIR.mkdir(exist_ok=True)
    stamp = environment_stamp()
    print("env " + json.dumps(stamp))
    print(f"workload {args.workload} seed {args.seed} seconds {args.seconds:g} trace {args.trace}")

    setup_walls, setup_scaled, dict_ms = measure_setup(args.workload, args.seed)
    wl.warm_up(args.workload, args.seed)
    base = f"{args.workload}-seed{args.seed}-trace{args.trace}"

    if args.trace:
        res, metrics, self_ms, tracer = replay.traced_run(
            args.workload, args.seed, str(OUT_DIR), statistics.median(dict_ms)
        )
        tracer.write(str(OUT_DIR / f"{base}.spans.jsonl"))
        for layer, ms in sorted(self_ms.items()):
            report(f"{layer}.self_ms", ms, "ms", "summed over the traced run", kind="self")
        for name in metrics:
            print(f"moves {name} -> {replay.MOVES[name]}")
    else:
        if args.workload == "los-serial":
            res = wl.run_los_serial(args.seed, args.seconds)
        elif args.workload == "cm-plan":
            res = wl.run_cm_plan(args.seed, args.seconds)
        else:
            res = wl.run_nlos_sweep(
                args.seed, args.seconds, wl.sweep_workers(args.workload), str(OUT_DIR)
            )
        metrics = wl.end_to_end_metrics(res, statistics.median(setup_scaled))
        res.info["wall.setup_s"] = (statistics.median(setup_walls), "s", "unscaled wall time")
        self_ms = {}
        unit_of_sample = "ops" if res.trials_per_op_sample == 1 else "sweeps, as ms per trial"
        res.info["op_ms_tail.percentile"] = (
            res.tail_pct, "pct", f"of {len(res.op_s)} timed {unit_of_sample}"
        )

    res.info["error_rate"] = (
        res.failed / max(res.attempted, 1), "ratio", f"{res.failed} of {res.attempted} ops failed"
    )
    for name, (value, unit) in metrics.items():
        report(name, value, unit)
    for name, (value, unit, note) in res.info.items():
        report(name, value, unit, note, kind="info")
    for err in res.errors:
        print(f"failed op: {err}")

    result = {
        "correct": res.failed == 0,
        "attempted": res.attempted,
        "failed": res.failed,
        "metrics": {n: {"value": _number(v), "unit": u} for n, (v, u) in metrics.items()},
    }
    detail = dict(result, env=stamp, workload=args.workload, seed=args.seed,
                  trace=args.trace, info=res.info, self_ms=self_ms, errors=res.errors,
                  op_seconds=res.op_s, reference_seconds=res.ref_s)
    (OUT_DIR / f"{base}.json").write_text(json.dumps(detail, indent=2, default=str) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
