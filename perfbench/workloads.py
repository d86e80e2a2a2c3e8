"""The benchmark's three workloads on netid's shipped 20-node case study.

direct_mc
    run_monte_carlo batches of the direct method on shipped scenarios 1 and 9
    (informative: all 20 nodes excited; nodes 1, 2, 6, 7) and 3 and 6 (not
    informative: node 3; nodes 3, 4), 10^4 samples per run, ending with
    emit_results to CSV.  This is the paper's study: many short independent
    runs bound by simulate, so batching across runs shows here, and the
    non-informative scenarios keep the SVD lstsq fallback under measurement.
local_pipeline
    run_local_pipeline at 10^4 samples, FIR order 150 and 100 grid points,
    the seed incremented per call, alternating target (3,4) (source side, 12
    T entries, 604 parameters) and (9,8) (sink side, 30 T entries, 755
    parameters).  The T-entry FIR regression dominates, both per-frequency
    solve sides run, and the direct solve is absent.
long_record
    one experiment per cycle at 10^5 samples: simulate with every node
    excited and estimate_direct for node 3 (one unit), then
    run_local_pipeline for (3,4) (the next unit).  One run per call, so
    batching across runs is bypassed; per-sample simulate cost and the
    10^5 x 604 T-entry regressor dominate, and that regressor makes peak
    memory matter.

A unit is one run_monte_carlo batch, one run_local_pipeline call, or one
half of a long_record experiment.  Every seed the program sees is derived from the benchmark seed.
Functions are looked up on their netid module at call time, so the wrappers
of a traced run see the benchmark's own calls too.
"""

from __future__ import annotations

import dataclasses
import random
from pathlib import Path

import numpy as np

import netid
from netid import direct, experiments, model, sim

DATA = Path(netid.__file__).parent / "data"
NETWORK_FILE = DATA / "case_study_20.net"
SCENARIO_FILE = DATA / "case_study_scenarios.scn"

MC_RUNS = 6
MC_SAMPLES = 10_000
LOCAL_SAMPLES = 10_000
LONG_SAMPLES = 100_000
WARMUP_SAMPLES = 2_000
FIR_ORDER = 150
GRID_POINTS = 100

COEF_TOL = 0.02
MIN_FIT_SCORE = 0.99
MIN_NON_INFORMATIVE = 0.95


def true_coefficients(j: int, i: int, path: Path = NETWORK_FILE) -> np.ndarray:
    """Numerator coefficients of module (j, i) over its band (first non-zero
    delay to last), read straight from the network file so that the referee
    does not depend on netid's transfer-function API."""
    for line in path.read_text().splitlines():
        head, sep, _ = line.partition("/")
        fields = head.split()
        if sep and fields[:2] == [str(j), str(i)]:
            num = np.array([float(c) for c in fields[2:]])
            return num[np.flatnonzero(num)[0]:]
    raise KeyError(f"no module ({j},{i}) in {path}")


def count_runs(runs) -> tuple[int, int]:
    """(attempted, failed) over RunResults: a run that recorded an error is
    a failure, whatever its coefficients read."""
    runs = list(runs)
    return len(runs), sum(1 for r in runs if r.error is not None)


class Workload:
    """Set-up, units and output checks of one workload.

    The timed loop calls unit(k) for k = 0, 1, ... in whole cycles of
    `cycle` units, and at least `min_cycles` of them; conclude() ends a timed
    window and verify() runs the untimed checks.  Problems found are kept in
    `problems`; any problem makes the result incorrect.
    """

    name = ""
    cycle = 1
    min_cycles = 1
    #: Whether units run on run_monte_carlo's pool (facts.netid_pool_threads).
    pooled = False

    def __init__(self, seed: int, out_dir: Path):
        self.seed = seed
        self.out_dir = out_dir
        self.attempted = 0
        self.failed = 0
        self.verdict_ok = 0
        self.coef_err_max = 0.0
        self.problems: list[str] = []
        self.model = model.load_network(NETWORK_FILE)

    def derive(self, *tags) -> int:
        """A seed fixed by the benchmark seed, the workload and the tags."""
        key = "/".join(str(t) for t in (self.name, self.seed) + tags)
        return random.Random(key).randrange(1, 2 ** 31)

    def warm_up(self) -> None:
        raise NotImplementedError

    def unit(self, k: int) -> None:
        raise NotImplementedError

    def conclude(self) -> None:
        pass

    def verify(self) -> None:
        pass

    def fail(self, runs: int, what: str, exc: Exception) -> None:
        self.attempted += runs
        self.failed += runs
        self.problems.append(f"{what} raised {type(exc).__name__}: {exc}")

    def check_coefficients(self, what: str, coeffs, truth) -> None:
        err = float(np.max(np.abs(np.asarray(coeffs, dtype=float) - truth)))
        if np.isfinite(err):
            self.coef_err_max = max(self.coef_err_max, err)
        if not err <= COEF_TOL:
            self.problems.append(f"{what}: max |a_hat - a| = {err:.3g} "
                                 f"exceeds {COEF_TOL}")

    def tally_local(self, what: str, target, est, truth) -> None:
        """Checks shared by every run_local_pipeline estimate."""
        self.attempted += 1
        self.check_coefficients(what, est.coefficients, truth)
        # The local method's informativity verdict, as run_monte_carlo
        # records it: no grid point dropped as ill-conditioned.
        self.verdict_ok += est.dropped_points == 0
        if tuple(target) == (3, 4):
            low = {e: s for e, s in est.entry_fit_scores.items()
                   if not s > MIN_FIT_SCORE}
            if low:
                self.problems.append(f"{what}: T-entry fit scores at or below "
                                     f"{MIN_FIT_SCORE}: {low}")


class DirectMC(Workload):
    name = "direct_mc"
    #: (shipped scenario id, informative), alternating the two classes.
    SCENARIOS = (("1", True), ("3", False), ("9", True), ("6", False))
    cycle = len(SCENARIOS)
    pooled = True

    def __init__(self, seed, out_dir):
        super().__init__(seed, out_dir)
        shipped = {s.id: s for s in experiments.load_scenarios(SCENARIO_FILE)}
        self.scenarios = [(shipped[sid], informative)
                          for sid, informative in self.SCENARIOS]
        self.truth = true_coefficients(*shipped["1"].target)
        self.pending = []
        self.first = None
        self.flags = {sid: [0, 0] for sid, inf in self.SCENARIOS if not inf}

    def scenario(self, k: int, *tags):
        shipped, informative = self.scenarios[k % len(self.scenarios)]
        scn = dataclasses.replace(shipped, id=f"{shipped.id}-u{k}",
                                  base_seed=self.derive(k, *tags))
        return scn, informative

    def warm_up(self):
        scn, _ = self.scenario(0, "warm-up")
        experiments.run_monte_carlo(scn, self.model, runs=2,
                                    samples=WARMUP_SAMPLES)

    def batch(self, scn):
        return experiments.run_monte_carlo(scn, self.model, runs=MC_RUNS,
                                           samples=MC_SAMPLES)

    def unit(self, k):
        scn, informative = self.scenario(k)
        try:
            res = self.batch(scn)
        except Exception as e:  # counted, and the loop goes on
            self.fail(MC_RUNS, f"scenario {scn.id}", e)
            return
        if self.first is None:
            self.first = (scn, res)
        self.pending.append(res)
        attempted, failed = count_runs(res.runs)
        self.attempted += attempted
        self.failed += failed
        shipped_id = scn.id.split("-")[0]
        for r in res.runs:
            if r.error is not None:
                self.problems.append(f"scenario {scn.id} run {r.run}: "
                                     f"{r.error}")
                continue
            self.verdict_ok += r.informative == informative
            if r.informative:
                self.check_coefficients(f"scenario {scn.id} run {r.run}",
                                        (r.a1, r.a2), self.truth)
            if not informative:
                self.flags[shipped_id][0] += not r.informative
                self.flags[shipped_id][1] += 1

    def emit(self, rows, name: str) -> bytes:
        table = experiments.ResultTable(rows=tuple(rows))
        paths = experiments.emit_results(table, self.out_dir / name)
        return Path(paths[0]).read_bytes()

    def conclude(self):
        if self.pending:
            self.emit(self.pending, "study")
        self.pending = []

    def verify(self):
        for sid, (flagged, total) in self.flags.items():
            if total == 0 or flagged < MIN_NON_INFORMATIVE * total:
                self.problems.append(
                    f"scenario {sid}: {flagged} of {total} runs flagged "
                    f"non-informative, below {MIN_NON_INFORMATIVE:.0%}")
        if self.first is None:
            self.problems.append("no batch completed")
            return
        scn, res = self.first
        if self.emit([res], "repeat-a") != self.emit([self.batch(scn)],
                                                    "repeat-b"):
            self.problems.append(f"scenario {scn.id}: repeating the batch "
                                 f"with the same seed changed results.csv")


class LocalPipeline(Workload):
    name = "local_pipeline"
    TARGETS = ((3, 4), (9, 8))
    cycle = len(TARGETS)

    def __init__(self, seed, out_dir):
        super().__init__(seed, out_dir)
        self.truth = {t: true_coefficients(*t) for t in self.TARGETS}
        self.base_seed = self.derive("pipeline")
        self.first = None

    def estimate(self, target, seed, samples=LOCAL_SAMPLES):
        return experiments.run_local_pipeline(
            self.model, target, samples=samples, seed=seed,
            fir_order=FIR_ORDER, grid_points=GRID_POINTS)

    def warm_up(self):
        self.estimate(self.TARGETS[0], self.derive("warm-up"), WARMUP_SAMPLES)

    def unit(self, k):
        target = self.TARGETS[k % len(self.TARGETS)]
        what = f"target {target} seed {self.base_seed + k}"
        try:
            est = self.estimate(target, self.base_seed + k)
        except Exception as e:  # counted, and the loop goes on
            self.fail(1, what, e)
            return
        if k == 0:
            self.first = est
        self.tally_local(what, target, est, self.truth[target])

    def verify(self):
        if self.first is None:
            self.problems.append("unit 0 did not complete")
            return
        again = self.estimate(self.TARGETS[0], self.base_seed)
        if (again.coefficients.tobytes() != self.first.coefficients.tobytes()
                or again.entry_fit_scores != self.first.entry_fit_scores):
            self.problems.append("repeating unit 0 with the same seed changed "
                                 "its estimate")


class LongRecord(Workload):
    """Even units run the direct half of an experiment and odd units its
    local half, so that each half is timed apart.  No repeat check here: one
    more experiment would add about a third to the run; direct_mc and
    local_pipeline check determinism."""

    name = "long_record"
    cycle = 2
    min_cycles = 2
    TARGET = (3, 4)

    def __init__(self, seed, out_dir):
        super().__init__(seed, out_dir)
        self.structure = direct.DirectModelStructure.from_model(
            self.model, self.TARGET[0])
        self.truth = true_coefficients(*self.TARGET)
        self.all_nodes = tuple(range(1, self.model.L + 1))

    def direct_run(self, samples, *tags):
        spec = model.ExcitationSpec(self.all_nodes, N=samples,
                                    seed=self.derive("simulate", *tags))
        record = sim.simulate(self.model, spec)
        return direct.estimate_direct(record, self.structure)

    def local_run(self, samples, *tags):
        return experiments.run_local_pipeline(
            self.model, self.TARGET, samples=samples,
            seed=self.derive("pipeline", *tags), fir_order=FIR_ORDER,
            grid_points=GRID_POINTS)

    def warm_up(self):
        self.direct_run(WARMUP_SAMPLES, "warm-up")
        self.local_run(WARMUP_SAMPLES, "warm-up")

    def unit(self, k):
        experiment, half = divmod(k, 2)
        what = f"experiment {experiment} {('direct', 'local')[half]}"
        try:
            est = (self.local_run if half else self.direct_run)(
                LONG_SAMPLES, experiment)
        except Exception as e:  # counted, and the loop goes on
            self.fail(1, what, e)
            return
        if half:
            self.tally_local(what, self.TARGET, est, self.truth)
            return
        self.attempted += 1
        self.verdict_ok += est.informative
        if not est.informative:
            self.problems.append(f"{what}: all nodes excited but flagged "
                                 f"non-informative")
        self.check_coefficients(what, est.coefficients_for(self.TARGET[1]),
                                self.truth)


WORKLOADS = {w.name: w for w in (DirectMC, LocalPipeline, LongRecord)}
