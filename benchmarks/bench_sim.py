"""Benchmark the simulator on the 20-node case study.

Times, per sample count, `simulate` (signal generation included) and
`simulate_inputs` on pre-drawn inputs (the kernel path: the model's
realization and the lifted recursion), best of --repeats.  Then times one
Monte-Carlo batch of 6 direct-method runs (the benchmark's batch size) of
shipped scenario 1 on 1 and on 2 worker threads, best of --repeats, so that
the thread pool's scaling stays measurable.

BLAS is held to one thread unless the environment already sets it, so that
worker threads, not BLAS threads, are what the batch timings compare.
--json PATH also writes the timings and the machine facts (CPU count, numpy
version, BLAS and its thread setting) to PATH.

Usage:
    python benchmarks/bench_sim.py [--samples 2000 10000 50000] [--repeats 5]
                                   [--json PATH]
"""

import os

_BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                     "MKL_NUM_THREADS")
for _var in _BLAS_THREAD_VARS:
    os.environ.setdefault(_var, "1")

import argparse  # noqa: E402
import json  # noqa: E402
import time  # noqa: E402

import numpy as np  # noqa: E402

from netid import (ExcitationSpec, build_case_study,  # noqa: E402
                   load_scenarios, run_monte_carlo, simulate,
                   simulate_inputs)
from netid.experiments import default_scenario_file  # noqa: E402

BATCH_RUNS = 6


def best_of(fn, repeats: int) -> float:
    best = np.inf
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def machine_facts() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": {v: os.environ[v] for v in _BLAS_THREAD_VARS},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--samples", type=int, nargs="+",
                        default=[2000, 10000, 50000],
                        help="sample counts to benchmark (default: %(default)s)")
    parser.add_argument("--repeats", type=int, default=5,
                        help="timed repetitions, best-of (default: %(default)s)")
    parser.add_argument("--seed", type=int, default=0,
                        help="excitation seed (default: %(default)s)")
    parser.add_argument("--json", metavar="PATH",
                        help="also write the timings and machine facts here")
    args = parser.parse_args(argv)

    model = build_case_study()
    table = []
    print(f"{'samples':>8}  {'simulate (ms)':>14}  "
          f"{'simulate_inputs (ms)':>21}")
    for n in args.samples:
        spec = ExcitationSpec(range(1, model.L + 1), N=n, seed=args.seed)
        rec = simulate(model, spec)
        t_sim = best_of(lambda: simulate(model, spec), args.repeats)
        t_inputs = best_of(lambda: simulate_inputs(model, rec.r, rec.v),
                           args.repeats)
        table.append({"samples": n, "simulate_ms": 1e3 * t_sim,
                      "simulate_inputs_ms": 1e3 * t_inputs})
        print(f"{n:>8}  {1e3 * t_sim:>14.2f}  {1e3 * t_inputs:>21.2f}")

    scenario = next(s for s in load_scenarios(default_scenario_file())
                    if s.id == "1")
    run_monte_carlo(scenario, model, runs=2, samples=10_000, workers=1)
    print(f"\nbatch of {BATCH_RUNS} runs x 10000 samples "
          f"(scenario {scenario.id}, direct method)")
    batch = []
    for workers in (1, 2):
        t = best_of(lambda: run_monte_carlo(scenario, model,
                                            runs=BATCH_RUNS,
                                            samples=10_000, workers=workers),
                    args.repeats)
        batch.append({"workers": workers, "batch_ms": 1e3 * t})
        print(f"  {workers} worker thread{'s' if workers > 1 else ' '}: "
              f"{1e3 * t:8.1f} ms  ({batch[0]['batch_ms'] / (1e3 * t):.2f}x)")

    if args.json:
        record = {"machine": machine_facts(), "repeats": args.repeats,
                  "seed": args.seed, "simulate": table, "batch": batch}
        with open(args.json, "w", encoding="utf-8") as fh:
            json.dump(record, fh, indent=2)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
