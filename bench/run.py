"""stabrank benchmark: one workload, closed loop, one client, in this process.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; stabrank is imported from ``src/``.
The run sets up (import, then the workload's inputs built three times, then
one warm-up operation where the workload asks for it), runs operations back to
back until the time spent in them would pass ``--seconds``, checks every output
against ``oracle``, and prints one JSON object as its last line of standard
output. With ``--trace 0`` it reports the end-to-end metrics, with ``--trace 1``
the per-layer ones from the same loop with every traced function wrapped (see
``layertrace.py``). It exits with code 2, printing no result, when
``src/stabrank`` is missing.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path

import layertrace

ROOT = Path(__file__).resolve().parent.parent
PREPARE_REPEATS = 3

# One BLAS thread: idle OpenBLAS workers spin on the second core after each
# call, which made the single-threaded Python layers' times swing.
for _name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_name] = "1"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "stabrank" / "__init__.py").is_file():
        print(f"error: no stabrank sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    start = time.perf_counter()
    import stabrank.cli  # noqa: F401  (timed: importing is part of set-up)

    import_s = time.perf_counter() - start

    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}, expected one of {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    workdir = ROOT / "bench" / "_work" / f"{args.workload}-{args.seed}-{time.time_ns()}"
    workdir.mkdir(parents=True)
    try:
        return run(args, WORKLOADS[args.workload], workdir, import_s)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def run(args, workload_cls, workdir: Path, import_s: float) -> int:
    tracer = layertrace.Tracer() if args.trace else None
    if tracer:
        tracer.install()
    workload = workload_cls(args.seed, workdir)

    prepare_s = []
    for _ in range(PREPARE_REPEATS):
        gc.collect()
        began = time.perf_counter()
        workload.prepare()
        prepare_s.append(time.perf_counter() - began)

    outputs, failures = [], []

    def timed_op(i: int) -> tuple[float, bool]:
        gc.collect()
        began = time.perf_counter()
        try:
            output = workload.op(i)
        except (Exception, SystemExit):
            elapsed = time.perf_counter() - began
            failures.append(traceback.format_exc())
            return elapsed, False
        elapsed = time.perf_counter() - began
        outputs.append(output)
        return elapsed, True

    warmup_s = timed_op(0)[0] if workload.warmup else 0.0
    setup_s = import_s + statistics.median(prepare_s) + warmup_s
    if tracer:
        serialize_ms = layertrace.serialize_ms_per_file(tracer)
        tracer.reset()

    # every attempt counts towards the deadline, so failing operations cannot spin
    attempts, times = [], []
    while not attempts or sum(attempts) + statistics.median(attempts) <= args.seconds:
        elapsed, ok = timed_op(len(attempts) + 1)
        attempts.append(elapsed)
        if ok:
            times.append(elapsed)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if tracer:
        tracer.uninstall()

    problems = workload.check(outputs)
    for text in failures[:3]:
        print(text, file=sys.stderr)
    for text in problems[:20]:
        print(f"check failed: {text}", file=sys.stderr)

    if tracer:
        metrics = layertrace.layer_metrics(tracer, max(len(times), 1), serialize_ms)
    else:
        metrics = {
            "ops_per_s": {"value": len(times) / sum(times) if times else 0.0, "unit": "1/s"},
            "setup_s": {"value": setup_s, "unit": "s"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
        }
    result = {
        "correct": not problems,
        "attempted": len(attempts),
        "failed": len(attempts) - len(times),
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
