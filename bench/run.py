"""semfuse benchmark: one workload run in a fresh worker process.

    python3 bench/run.py --workload pipeline --seed 1 --seconds 20 --trace 0

Workloads: pipeline, fit, layout (see bench/README.md). With --trace 0 the
result carries the end-to-end metrics; with --trace 1 a separate traced
pass adds the per-layer metrics. The worker's BLAS pool is capped at the
number of CPUs this process may use. The last line printed is the JSON
result: {"correct", "attempted", "failed", "metrics"}.

Exits 2 without a result when the program's sources are not beside the
benchmark, and 3 when the worker fails or runs out of time.
"""

from __future__ import annotations

import argparse
import os
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKLOADS = ("pipeline", "fit", "layout")
# beyond --seconds: worker start, set-ups, the pass that runs past --seconds, and the traced pass
WORKER_MARGIN_S = 150
THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def main() -> int:
    parser = argparse.ArgumentParser(description="semfuse benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()
    if not (ROOT / "src" / "semfuse" / "cli.py").is_file():
        print(f"error: no semfuse sources under {ROOT / 'src'}; run from a full checkout", file=sys.stderr)
        return 2
    env = dict(os.environ, PYTHONHASHSEED="0", PYTHONDONTWRITEBYTECODE="1")
    env.update({name: str(len(os.sched_getaffinity(0))) for name in THREAD_VARIABLES})
    command = [sys.executable, str(BENCH / "worker.py"), "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
    timeout = args.seconds + WORKER_MARGIN_S
    with subprocess.Popen(command, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True) as worker:
        try:
            output, _ = worker.communicate(timeout=timeout)
        except subprocess.TimeoutExpired:
            worker.kill()
            worker.communicate()
            print(f"error: worker ran past {timeout} s", file=sys.stderr)
            return 3
    sys.stdout.write(output)
    if worker.returncode != 0:
        print(f"error: worker exited with status {worker.returncode}", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
