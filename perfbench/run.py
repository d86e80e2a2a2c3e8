"""Benchmark netid's identification study end to end, or per layer.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload direct_mc --seed 1 --seconds 30 --trace 0

Workloads (see workloads.py for why each was chosen): direct_mc,
local_pipeline, long_record.  The program's inputs all derive from --seed.

--trace 0 sets up, times whole cycles of units for about --seconds, runs the
output checks, and reports the end-to-end metrics.  setup_s is the median of
SETUP_SAMPLES set-ups: the first in this process, the rest in fresh
interpreters run between units, outside the timed window, so that they are
spread over the run rather than bunched at one end.  --trace 1 times one
window in which the units alternate between untraced and traced, every layer's
public functions wrapped while a traced unit runs (tracing.py), and reports
the per-layer metrics of the traced units and the tracing overhead, traced
minus untraced runs per second.  Human-readable lines come first; the last
line of standard output is one JSON object with the keys correct, attempted,
failed and metrics.  A full record with the machine facts, and the spans of a
traced run as JSON lines, are written under .perfbench_out/.  The exit code is
0 only if every output check passed.  steady.py repeats a workload over
several seeds and reports each metric's run-to-run spread.

BLAS is held to one thread, so the program's compute threads (its pool times
BLAS threads) never exceed the core count.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

from stats import cycle_median, tail_percentile, traced_unit

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"
WORKLOAD_NAMES = ("direct_mc", "local_pipeline", "long_record")
#: Set-ups per run (one in this process, the rest in fresh interpreters);
#: setup_s is their median.
SETUP_SAMPLES = 11
BLAS_THREADS = 1

#: (name, unit) of every end-to-end metric, in report order.
END_TO_END = (
    ("setup_s", "s"),
    ("runs_per_s", "runs/s"),
    ("unit_s_p50", "s"),
    ("peak_rss_mb", "MB"),
    ("ok_frac", "ratio"),
    ("verdict_ok_frac", "ratio"),
)


@dataclass
class Window:
    """One timed window: per-unit wall times and runs completed, whether
    each unit was traced, and the timed wall time (units and conclude())."""

    unit_s: list[float]
    unit_runs: list[int]
    traced: list[bool]
    wall: float

    @property
    def runs_per_s(self) -> float:
        return sum(self.unit_runs) / self.wall

    def units_runs_per_s(self, traced: bool) -> float:
        """Runs per second over the units traced (or untraced) alone."""
        picked = [(s, r) for s, r, t in zip(self.unit_s, self.unit_runs,
                                             self.traced) if t == traced]
        return sum(r for _, r in picked) / sum(s for s, _ in picked)


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true",
                   help=argparse.SUPPRESS)
    return p.parse_args(argv)


def set_up(args, out_dir: Path, tracer=None):
    """Import netid, load the network and scenarios, build structures and
    make one short warm-up call.  Returns (seconds, workload)."""
    t0 = time.perf_counter()
    import netid
    import workloads

    if Path(netid.__file__).resolve().parent != ROOT / "src" / "netid":
        raise RuntimeError(f"netid imported from {netid.__file__}, not from "
                           f"{ROOT / 'src'}")
    # Traced only while loading, for model.load_s; the warm-up stays out of
    # the per-layer numbers.
    if tracer is not None:
        tracer.install()
    wl = workloads.WORKLOADS[args.workload](args.seed, out_dir)
    if tracer is not None:
        tracer.restore()
    wl.warm_up()
    return time.perf_counter() - t0, wl


def probe_setup(args) -> float:
    """Set-up time measured in a fresh interpreter."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload",
           args.workload, "--seed", str(args.seed), "--setup-probe"]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=120, check=True)
    return float(json.loads(done.stdout.splitlines()[-1])["setup_s"])


def measure(wl, seconds: float, min_cycles: int, between=None,
            tracer=None) -> Window:
    """Run whole cycles of units, at least min_cycles, and another only while
    it is expected to end within `seconds` of timed wall time; then
    wl.conclude().

    After each unit, between(share of `seconds` timed so far) runs outside
    the timed window.  With a tracer, the units alternate between untraced
    and traced (stats.traced_unit), and conclude() is traced.
    """
    unit_s: list[float] = []
    unit_runs: list[int] = []
    traced: list[bool] = []
    timed = 0.0
    k = cycles = 0
    while True:
        for _ in range(wl.cycle):
            on = tracer is not None and traced_unit(k, wl.cycle)
            if on:
                tracer.unit = k
                tracer.install()
            ok0 = wl.attempted - wl.failed
            u0 = time.perf_counter()
            wl.unit(k)
            unit_s.append(time.perf_counter() - u0)
            if on:
                tracer.restore()
            unit_runs.append(wl.attempted - wl.failed - ok0)
            traced.append(on)
            timed += unit_s[-1]
            k += 1
            if between is not None:
                between(timed / seconds)
        cycles += 1
        if cycles >= min_cycles and timed * (cycles + 1) / cycles > seconds:
            break
    if tracer is not None:
        tracer.unit = None
        tracer.install()
    c0 = time.perf_counter()
    wl.conclude()
    timed += time.perf_counter() - c0
    if tracer is not None:
        tracer.restore()
    return Window(unit_s, unit_runs, traced, timed)


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def end_to_end(wl, window: Window, setup_s: list[float]) -> dict[str, float]:
    return {
        "setup_s": statistics.median(setup_s),
        "runs_per_s": window.runs_per_s,
        "unit_s_p50": cycle_median(window.unit_s, wl.cycle),
        "peak_rss_mb": peak_rss_mb(),
        "ok_frac": (wl.attempted - wl.failed) / wl.attempted,
        "verdict_ok_frac": wl.verdict_ok / wl.attempted,
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "netid" / "__init__.py").is_file():
        print(f"error: no netid sources under {ROOT / 'src'}; run from a "
              f"full checkout", file=sys.stderr)
        return 2
    from facts import BLAS_THREAD_VARS
    for var in BLAS_THREAD_VARS:
        os.environ[var] = str(BLAS_THREADS)
    sys.path.insert(0, str(ROOT / "src"))
    run_dir = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}"

    if args.setup_probe:
        seconds, _ = set_up(args, run_dir)
        print(json.dumps({"setup_s": seconds}))
        return 0

    from tracing import PER_LAYER, Tracer, layer_metrics

    run_dir.mkdir(parents=True, exist_ok=True)
    import facts
    pool = facts.netid_pool_threads()
    if args.trace:
        tracer = Tracer()
        _, wl = set_up(args, run_dir, tracer)
        window = measure(wl, args.seconds, max(2, wl.min_cycles),
                         tracer=tracer)
        wl.verify()
        tracer.write_jsonl(run_dir / "spans.jsonl")
        metrics = layer_metrics(tracer.spans, pool)
        plain = window.units_runs_per_s(False)
        traced = window.units_runs_per_s(True)
        metrics["trace.overhead_runs_per_s"] = traced - plain
        units = {name: unit for name, unit, _ in PER_LAYER}
        extra = [("untraced_runs_per_s", plain, "runs/s"),
                 ("traced_runs_per_s", traced, "runs/s"),
                 ("spans", len(tracer.spans), "count")]
        setups = []
    else:
        first, wl = set_up(args, run_dir)
        setups = [first]

        def probe_due(share):
            while len(setups) < 1 + min(share, 1.0) * (SETUP_SAMPLES - 1):
                setups.append(probe_setup(args))

        window = measure(wl, args.seconds, wl.min_cycles, probe_due)
        probe_due(1.0)
        wl.verify()
        metrics = end_to_end(wl, window, setups)
        units = dict(END_TO_END)
        # Reported, not bounded: p90 only where the unit count allows it,
        # failed_frac is 0 on a good run, and coef_err_max is estimation
        # noise that moves with the seed.
        extra = [("units", len(window.unit_s), "count"),
                 ("unit_s_p90", tail_percentile(window.unit_s, 90), "s"),
                 ("failed_frac", wl.failed / wl.attempted, "ratio"),
                 ("coef_err_max", wl.coef_err_max, "abs")]

    machine = facts.machine_facts(ROOT, BLAS_THREADS,
                                  pool if wl.pooled else 1)
    if machine["compute_threads"] > machine["nproc"]:
        wl.problems.append(f"{machine['compute_threads']} compute threads "
                           f"on {machine['nproc']} cores")
    result = {"correct": not wl.problems, "attempted": wl.attempted,
              "failed": wl.failed,
              "metrics": {name: {"value": value, "unit": units[name]}
                          for name, value in metrics.items()}}
    record = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace,
              "machine": machine, "result": result,
              "reported": {n: {"value": v, "unit": u} for n, v, u in extra},
              "setup_samples_s": setups, "unit_s": window.unit_s,
              "problems": wl.problems}
    (run_dir / "record.json").write_text(json.dumps(record, indent=1) + "\n")

    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace}")
    print("machine " + json.dumps(machine))
    for name, value, unit in ([(n, v, units[n]) for n, v in metrics.items()]
                              + extra):
        if value is None:
            print(f"  {name:<40} {'n/a':>14}  (needs 10 units beyond it)")
        else:
            print(f"  {name:<40} {value:>14.6g} {unit}")
    for problem in wl.problems[:20]:
        print(f"CHECK FAILED: {problem}")
    if len(wl.problems) > 20:
        print(f"CHECK FAILED: ... and {len(wl.problems) - 20} more")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
