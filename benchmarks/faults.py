"""Minor page faults per benchmark unit, workload by workload.

Usage, from the root of a checkout:

    python3 benchmarks/faults.py [--tree DIR] [--units 8] > faults.json

For each workload of perfbench/workloads.py, a fresh interpreter imports
netid and the workloads from DIR (default: this checkout), holds BLAS to one
thread as perfbench does, sets the workload up with seed 1, makes its
warm-up call, then runs --units units and counts the minor page faults
(ru_minflt) that each took.  The count is the whole process's, so the worker
threads of a pooled unit count too.  A fault costs a few microseconds, and a
unit that reuses the memory of the unit before it takes few.  After each
unit it also reads the process's peak resident set size (ru_maxrss, in MB
of 2^20 bytes, as perfbench's peak_rss_mb), so the unit that sets a
workload's peak is the first to reach its last value.  Standard output gets
one JSON object: per workload, the faults of each unit, and under
peak_rss_mb, per workload, the peak after each unit.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("direct_mc", "local_pipeline", "long_record")


def unit_faults(tree: Path, workload: str, units: int) -> dict:
    """Run in this process: each unit's minor faults, after the warm-up, and
    the peak RSS in MB after each unit."""
    sys.path[:0] = [str(tree / "perfbench"), str(tree / "src")]
    from facts import BLAS_THREAD_VARS
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
    import workloads
    with tempfile.TemporaryDirectory(prefix="netid-faults-") as out:
        wl = workloads.WORKLOADS[workload](1, Path(out))
        wl.warm_up()
        faults, peaks = [], []
        for k in range(units):
            before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
            wl.unit(k)
            usage = resource.getrusage(resource.RUSAGE_SELF)
            faults.append(usage.ru_minflt - before)
            peaks.append(usage.ru_maxrss / 1024.0)
    if wl.problems:
        raise RuntimeError(f"{workload}: {wl.problems[0]}")
    return {"faults": faults, "peak_rss_mb": peaks}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--tree", type=Path, default=ROOT)
    p.add_argument("--units", type=int, default=8)
    p.add_argument("--workload", choices=WORKLOADS, help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    tree = args.tree.resolve()
    if args.workload:   # the child
        print(json.dumps(unit_faults(tree, args.workload, args.units)))
        return 0
    result = {"tree": str(tree), "units": args.units, "peak_rss_mb": {}}
    for workload in WORKLOADS:
        done = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--tree",
             str(tree), "--units", str(args.units), "--workload", workload],
            capture_output=True, text=True, timeout=900, check=True)
        child = json.loads(done.stdout.splitlines()[-1])
        result[workload] = child["faults"]
        result["peak_rss_mb"][workload] = child["peak_rss_mb"]
        print(workload, child, file=sys.stderr, flush=True)
    print(json.dumps(result, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
