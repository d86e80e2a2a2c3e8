"""Experiment harness: scenario files, Monte-Carlo batches, results.csv.

A scenario bundles everything needed to reproduce an identification
experiment: which nodes are excited, which estimator runs, the target
module, run/sample counts, noise variances, and the base PRNG seed.  Run k
of a scenario uses seed base_seed + k, so a scenario file pins the entire
Monte-Carlo study bit-for-bit, local scenarios included: rerunning
`montecarlo` with the same file produces byte-identical CSV.

Runs execute on a thread pool that returns them in run order, so
concurrency never affects output.  Threads overlap a run's noise draws and
FFT and BLAS work, and its simulation kernel's small matrix products only
in part (two_thread_scaling in benchmarks/BENCH_22.json).  While the pool
runs, OpenBLAS is held at one thread (netid.sim), so that the pool's
threads are the compute threads.  A single local run on the main thread
factors its T-entry Gram on a second thread (see run_local_pipeline), with
bit-identical results.
"""

from __future__ import annotations

import csv
import html
import math
import os
import threading
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from dataclasses import MISSING, dataclass, fields, replace
from pathlib import Path

import numpy as np

from .direct import DirectEstimate, DirectModelStructure, estimate_direct
from .local import (DEFAULT_FIR_ORDER, DEFAULT_GRID_POINTS, MethodChoice,
                    check_record_length, estimate_T_entries,
                    factor_excitation_gram, fit_parametric,
                    plan_experiment_for_model, solve_sink_side,
                    solve_source_side)
from .model import (ExcitationSpec, NetworkModel, is_internally_stable,
                    node_set, true_T)
from .sim import _hold_freed_memory, one_blas_thread, simulate
from .tf import FreqGrid

SCENARIO_FORMAT_VERSION = 1


@dataclass(frozen=True)
class Scenario:
    """One reproducible identification experiment, and the one owner of its
    runs' sample count.  Its excitation values follow ExcitationSpec's
    rules; excited_nodes is stored as node_set returns it."""

    id: str
    excited_nodes: tuple[int, ...]
    method: str  # "direct" or "local"
    target: tuple[int, int]
    runs: int
    samples_per_run: int
    base_seed: int
    r_var: float = 1.0
    v_var: float = 1e-6

    def __post_init__(self):
        if self.method not in ("direct", "local"):
            raise ValueError(f"scenario {self.id}: method must be 'direct' "
                             f"or 'local', got {self.method!r}")
        if self.runs < 1:
            raise ValueError(f"scenario {self.id}: runs must be >= 1")
        if not self.excited_nodes:
            raise ValueError(f"scenario {self.id}: excited_nodes is empty")
        try:
            spec = self.excitation(self.base_seed)
        except ValueError as e:
            raise ValueError(f"scenario {self.id}: {e}") from None
        object.__setattr__(self, "excited_nodes", spec.excited_nodes)

    def excitation(self, seed: int) -> ExcitationSpec:
        """The excitation of one run of this scenario from `seed`."""
        return ExcitationSpec(self.excited_nodes, self.samples_per_run, seed,
                              self.r_var, self.v_var)


class ScenarioFormatError(ValueError):
    """Raised for malformed scenario files, with a line number."""


def _scn_error(path, lineno: int, msg: str) -> ScenarioFormatError:
    return ScenarioFormatError(f"{path}:{lineno}: {msg}")


def _target(args) -> tuple[int, int]:
    node_set(args)  # raises for an index below 1
    return int(args[0]), int(args[1])


#: Scenario file key -> (Scenario field, argument count, None for one or
#: more, and the converter of the one argument or of the argument list).
_SCENARIO_KEYS = {
    "excite": ("excited_nodes", None, node_set),
    "method": ("method", 1, str),
    "target": ("target", 2, _target),
    "runs": ("runs", 1, int),
    "samples": ("samples_per_run", 1, int),
    "seed": ("base_seed", 1, int),
    "r_var": ("r_var", 1, float),
    "v_var": ("v_var", 1, float),
}
_REQUIRED_FIELDS = {f.name for f in fields(Scenario) if f.default is MISSING}


def load_scenarios(path) -> list[Scenario]:
    """Parse a scenario file.

    Format: a `format <version>` line, then `scenario <id>` blocks whose
    indented-or-not `key value` lines set: excite (node list), method,
    target (j i), runs, samples, seed, and optional r_var / v_var.
    Unknown keys, and values of the wrong count or type, are rejected with
    their line number; a value that breaks a Scenario rule, with the line
    of its block's `scenario` header.
    """
    text = Path(path).read_text()
    scenarios: list[Scenario] = []
    current_id: str | None = None
    current: dict = {}
    current_line = 0
    seen_version = False
    ids = set()

    def finish():
        if current_id is None:
            return
        missing = [key for key, (name, _, _) in _SCENARIO_KEYS.items()
                   if name in _REQUIRED_FIELDS and name not in current]
        if missing:
            raise _scn_error(path, current_line,
                             f"scenario {current_id} is missing keys: "
                             f"{', '.join(sorted(missing))}")
        try:
            scenarios.append(Scenario(id=current_id, **current))
        except ValueError as e:
            raise _scn_error(path, current_line, str(e)) from None

    lines = text.splitlines()
    for lineno, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        key, args = parts[0], parts[1:]
        if key == "format":
            if seen_version:
                raise _scn_error(path, lineno, "duplicate format line")
            if len(args) != 1 or not args[0].isdigit():
                raise _scn_error(path, lineno, "expected: format <version>")
            if int(args[0]) != SCENARIO_FORMAT_VERSION:
                raise _scn_error(path, lineno,
                                 f"unsupported format version {args[0]} "
                                 f"(this build reads version "
                                 f"{SCENARIO_FORMAT_VERSION})")
            seen_version = True
            continue
        if not seen_version:
            raise _scn_error(path, lineno,
                             "file must start with a 'format <version>' line")
        if key == "scenario":
            if len(args) != 1:
                raise _scn_error(path, lineno, "expected: scenario <id>")
            finish()
            current_id = args[0]
            if current_id in ids:
                raise _scn_error(path, lineno,
                                 f"duplicate scenario id {current_id}")
            ids.add(current_id)
            current = {}
            current_line = lineno
            continue
        if current_id is None:
            raise _scn_error(path, lineno,
                             f"key {key!r} before any 'scenario' line")
        if key not in _SCENARIO_KEYS:
            raise _scn_error(path, lineno, f"unknown key {key!r}")
        name, count, convert = _SCENARIO_KEYS[key]
        if name in current:
            raise _scn_error(path, lineno,
                             f"duplicate key {key!r} in scenario {current_id}")
        try:
            if not args or count and len(args) != count:
                raise ValueError
            current[name] = convert(args[0] if count == 1 else args)
        except ValueError:
            raise _scn_error(path, lineno,
                             f"invalid value for {key!r}: {' '.join(args)!r}"
                             ) from None
    finish()
    if not scenarios:
        raise _scn_error(path, max(len(lines), 1), "no scenarios in file")
    return scenarios


def default_scenario_file() -> Path:
    """Path of the scenario file shipped with the package."""
    return Path(__file__).parent / "data" / "case_study_scenarios.scn"


# -- Monte-Carlo ------------------------------------------------------------------


@dataclass(frozen=True)
class RunResult:
    """Outcome of one Monte-Carlo run: two target coefficients, the
    informativity verdict, and the error message if the estimator failed."""

    run: int
    a1: float
    a2: float
    informative: bool
    error: str | None = None


@dataclass(frozen=True, eq=False)
class ScenarioResult:
    """Aggregated Monte-Carlo outcome for one scenario."""

    scenario: Scenario
    runs: tuple[RunResult, ...]
    mean: tuple[float, float]
    std: tuple[float, float]
    informative_rate: float
    failed_runs: int


@dataclass(frozen=True, eq=False)
class ResultTable:
    rows: tuple[ScenarioResult, ...]


def _worker_count() -> int:
    cap = os.environ.get("NETID_WORKERS")
    n = min(os.cpu_count() or 1, 8)
    if cap is not None:
        try:
            n = min(n, int(cap))
        except ValueError:
            raise ValueError(f"NETID_WORKERS must be an integer, got {cap!r}")
    return max(n, 1)


def summarize(runs) -> tuple[tuple[float, float], tuple[float, float], float]:
    """Mean and sample standard deviation (ddof 1; 0 for a single value) of
    a1 and of a2 over the runs that have a value, and the informative rate
    over all runs.  A failed run reads nan, as results.csv records it, so it
    counts in the rate's denominator and in neither statistic."""
    coeffs = np.array([(r.a1, r.a2) for r in runs], dtype=float).reshape(-1, 2)
    mean, std = [], []
    for col in coeffs.T:
        x = col[~np.isnan(col)]
        mean.append(float(x.mean()) if x.size else math.nan)
        std.append(float(x.std(ddof=1)) if x.size > 1
                   else 0.0 if x.size else math.nan)
    rate = sum(r.informative for r in runs) / len(runs) if runs else math.nan
    return (mean[0], mean[1]), (std[0], std[1]), rate


def _node_list(nodes) -> str:
    return "{" + ",".join(map(str, sorted(nodes))) + "}"


def check_scenario(scenario: Scenario, model: NetworkModel) -> None:
    """Raise, naming the problem, for a scenario that every run would fail
    the same way: a target module or excited node the model lacks, an
    unstable model, a rational target, or runs of its sample count that
    leave the estimator's regression fewer rows than parameters (for a
    local scenario, the T-entry regression of the default FIR order).  A
    local scenario's excite set must also be its plan's, since the plan
    decides what a local run excites, its r_var above zero, and its
    target's band no wider than the default grid."""
    j, i = scenario.target
    samples = scenario.samples_per_run
    try:
        if not model.has_edge(j, i):
            raise ValueError(f"target module ({j},{i}) is not an edge of "
                             f"the model")
        outside = [n for n in scenario.excited_nodes if n > model.L]
        if outside:
            raise ValueError(f"excited nodes {_node_list(outside)} outside "
                             f"1..{model.L}")
        if not is_internally_stable(model):
            raise ValueError("the model is not internally stable; every run "
                             "would diverge")
        if scenario.method == "direct":
            structure = DirectModelStructure.from_model(model, j)
            structure.check_record_length(samples)
            rows = samples - structure.max_delay
            n_params = structure.slices()[-1].stop
            if rows < n_params:
                raise ValueError(f"record too short: {rows} regression rows "
                                 f"< {n_params} parameters")
            return
        plan = plan_experiment_for_model(model, (j, i))
        if set(scenario.excited_nodes) != set(plan.excite_set):
            raise ValueError(
                f"excite {_node_list(scenario.excited_nodes)} differs from "
                f"the local plan's excite set {_node_list(plan.excite_set)} "
                f"for target ({j},{i})")
        if scenario.r_var == 0:
            raise ValueError("r_var 0 leaves every excitation at zero, and "
                             "the local method regresses on excitations")
        _fit_grid(DEFAULT_GRID_POINTS, model.fir_band(j, i))
        check_record_length(samples, DEFAULT_FIR_ORDER, len(plan.excite_set))
    except ValueError as e:
        raise ValueError(f"scenario {scenario.id}: {e}") from None


def check_batch(scenario: Scenario, model: NetworkModel) -> None:
    """check_scenario, and a target whose band is two taps wide: a batch
    records two coefficients per run, the a1, a2 of results.csv."""
    check_scenario(scenario, model)
    j, i = scenario.target
    band = model.fir_band(j, i)
    if band[1] != band[0] + 1:
        raise ValueError(f"scenario {scenario.id}: target module ({j},{i})'s "
                         f"band {band} is not two taps wide; a batch records "
                         f"two coefficients, a1 and a2")


def _stage(name: str, fn, *args, **kwargs):
    """fn(*args, **kwargs), with any error re-raised prefixed by `[name]`."""
    try:
        return fn(*args, **kwargs)
    except Exception as e:
        raise RuntimeError(f"[{name}] {e}") from e


def run_direct(model: NetworkModel, scenario: Scenario,
               seed: int) -> DirectEstimate:
    """One direct-method run of `scenario`: plan the target node's regressor
    structure, simulate the scenario's excitation from `seed`, and estimate;
    a stage error is re-raised with the stage name prefixed."""
    structure = _stage("plan", DirectModelStructure.from_model, model,
                       scenario.target[0])
    spec = _stage("plan", scenario.excitation, seed)
    record = _stage("simulate", simulate, model, spec)
    return _stage("estimate", estimate_direct, record, structure)


def run_monte_carlo(scenario: Scenario, model: NetworkModel,
                    runs: int | None = None,
                    samples: int | None = None) -> ScenarioResult:
    """Run a scenario's Monte-Carlo batch and aggregate it.

    Run k uses seed base_seed + k; per-run estimator failures are recorded
    in the run's row, with the failing stage's label, rather than aborting
    the batch.  A scenario that check_batch rejects raises before any run
    starts.  `runs` and `samples` replace the scenario's counts, under
    Scenario's rules, and the result's scenario carries the counts the batch
    ran with.
    """
    scenario = replace(
        scenario, runs=scenario.runs if runs is None else runs,
        samples_per_run=scenario.samples_per_run if samples is None
        else samples)
    check_batch(scenario, model)
    i = scenario.target[1]

    def one_run(k: int) -> RunResult:
        seed = scenario.base_seed + k
        try:
            if scenario.method == "direct":
                est = run_direct(model, scenario, seed)
                coeffs = est.coefficients_for(i)
                informative = est.informative
            else:
                est = run_local_pipeline(
                    model, scenario.target,
                    samples=scenario.samples_per_run, seed=seed,
                    r_var=scenario.r_var, v_var=scenario.v_var)
                coeffs, informative = est.coefficients, est.dropped_points == 0
        except Exception as e:  # recorded, not fatal
            return RunResult(run=k, a1=math.nan, a2=math.nan,
                             informative=False, error=str(e))
        a1, a2 = map(float, coeffs)
        return RunResult(run=k, a1=a1, a2=a2, informative=informative)

    _hold_freed_memory()   # before the pool's threads, so they share a heap
    with one_blas_thread(), \
            ThreadPoolExecutor(max_workers=_worker_count()) as pool:
        results = tuple(pool.map(one_run, range(scenario.runs)))
    mean, std, rate = summarize(results)
    return ScenarioResult(
        scenario=scenario, runs=results, mean=mean, std=std,
        informative_rate=rate,
        failed_runs=sum(r.error is not None for r in results))


# -- local-method pipeline ----------------------------------------------------


@dataclass(frozen=True, eq=False)
class ModuleEstimate:
    """End-to-end local-method output for one target module."""

    target: tuple[int, int]
    band: tuple[int, int]
    coefficients: np.ndarray
    plan: MethodChoice
    entry_fit_scores: dict[tuple[int, int], float]
    dropped_points: int


def _fit_grid(points: int, band: tuple[int, int]) -> FreqGrid:
    """A uniform grid of `points` points, no fewer than the band's taps."""
    if points < band[1] - band[0] + 1:
        raise ValueError(f"grid of {points} points is too small to fit band "
                         f"{band}'s {band[1] - band[0] + 1} coefficients")
    return FreqGrid.uniform(points)


@contextmanager
def _excitation_side(fir_order: int):
    """(hook, factor) for simulate and estimate_T_entries that run
    factor_excitation_gram on a helper thread, with OpenBLAS held at one
    thread; on exit the helper has ended.  Off the main thread both are
    None: runs on a pool already fill the cores."""
    if threading.current_thread() is not threading.main_thread():
        yield None, None
        return
    started = []
    _hold_freed_memory()   # before the helper, so it shares the main heap
    with one_blas_thread(), ThreadPoolExecutor(max_workers=1) as helper:
        def hook(r):
            started.append(helper.submit(factor_excitation_gram, r,
                                         fir_order))

        # pop, so that the factor is not kept past estimate_T_entries' use
        yield hook, lambda: started.pop().result()


def run_local_pipeline(model: NetworkModel, target: tuple[int, int],
                       samples: int = 10_000, seed: int = 0,
                       fir_order: int = DEFAULT_FIR_ORDER,
                       grid_points: int = DEFAULT_GRID_POINTS,
                       r_var: float = 1.0, v_var: float = 1e-6,
                       exact_T: bool = False) -> ModuleEstimate:
    """Identify one module with the local two-step method.

    Stages: plan the experiment from local topology, simulate the planned
    excitations, estimate the needed T entries as high-order FIR models,
    solve the per-frequency linear systems on the chosen side, and fit the
    target module's band coefficients to the solved samples.  Any stage
    error is re-raised with the stage name prefixed; a grid smaller than the
    band, or a record too short for the regression, fails at plan.

    Called on the main thread, the run factors the T-entry Gram on a helper
    thread, started by simulate's on_excitation hook after step 1 of the
    randomness contract (r drawn and scaled) and before step 2 (v), and
    joined by estimate_T_entries' factor argument once the main thread has
    stepped the network and formed Phi^T w.  Checks, errors and stage
    labels come in the same order as in series, and the helper has ended
    when the call returns or raises.  On other threads, such as
    run_monte_carlo's pool, the factor is formed in line.

    With exact_T=True the simulation and estimation stages are bypassed and
    the solve runs on exact samples of T (an oracle path used to validate
    the algebra independently of estimation error).
    """
    j, i = int(target[0]), int(target[1])
    plan = _stage("plan", plan_experiment_for_model, model, (j, i))
    band = _stage("plan", model.fir_band, j, i)
    grid = _stage("plan", _fit_grid, grid_points, band)

    if exact_T:
        tmat = _stage("truth", true_T, model, plan.measure_set,
                      plan.excite_set, grid)
        fit_scores: dict[tuple[int, int], float] = {}
    else:
        _stage("plan", check_record_length, samples, fir_order,
               len(plan.excite_set))
        spec = _stage("plan", ExcitationSpec, plan.excite_set, N=samples,
                      seed=seed, r_variance=r_var, v_variance=v_var)
        with _excitation_side(fir_order) as (hook, factor):
            record = _stage("simulate", simulate, model, spec,
                            on_excitation=hook)
            est = _stage("estimate", estimate_T_entries, record,
                         plan.measure_set, plan.excite_set,
                         fir_order=fir_order, grid=grid, factor=factor)
        tmat = est.freq
        fit_scores = est.entry_fit_scores()

    if plan.which == "source":
        solved = _stage("solve", solve_source_side, tmat, i, plan.measure_set)
    else:
        solved = _stage("solve", solve_sink_side, tmat, j, plan.excite_set)

    coefficients = _stage("fit", fit_parametric, solved.module_samples(j, i),
                          band, grid=solved.grid)
    return ModuleEstimate(
        target=(j, i), band=band, coefficients=coefficients,
        plan=plan, entry_fit_scores=fit_scores,
        dropped_points=solved.dropped_points)


# -- result emission ------------------------------------------------------------


CSV_HEADER = ("scenario_id", "run", "a1", "a2", "informative")


def write_csv(out_dir, name: str, header, rows) -> Path:
    """Write the header and rows to `out_dir/name`, creating out_dir, with
    "\n" line ends and each float as repr(float(x)), the shortest decimal
    that reads back to the same double; returns the path."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    path = out / name
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows([repr(float(x)) if isinstance(x, float) else x
                          for x in row] for row in rows)
    return path


def emit_results(table: ResultTable, out_dir) -> list[Path]:
    """Write per-run results to `out_dir/results.csv`; returns [that path].

    Columns are scenario_id, run, a1, a2, informative; floats are serialized
    with full round-trip precision so identical batches produce
    byte-identical files.  `netid report --format svg` renders the scatter
    plots from this file.
    """
    if not table.rows:
        raise ValueError("result table is empty")
    return [write_csv(out_dir, "results.csv", CSV_HEADER, (
        [row.scenario.id, rr.run, rr.a1, rr.a2,
         "true" if rr.informative else "false"]
        for row in table.rows for rr in row.runs))]


def write_scatter_svgs(runs_by_scenario: dict, out_dir) -> list[Path]:
    """One (a1, a2) scatter plot per entry of {scenario_id: runs}, written
    as plain SVG text to an existing out_dir as `scatter_scenario_<id>.svg`;
    returns the paths written.  Runs with a non-finite estimate (failed
    runs) are counted in the title but not plotted."""
    out = Path(out_dir)
    written = []
    for sid, runs in runs_by_scenario.items():
        pts = np.array([(r.a1, r.a2) for r in runs], dtype=float)
        pts = pts.reshape(-1, 2)[np.isfinite(pts).all(axis=1)]
        rate = summarize(runs)[2]
        path = out / f"scatter_scenario_{sid}.svg"
        path.write_text(_scatter_svg(
            pts, f"scenario {sid}: {len(runs)} runs, informative rate "
                 f"{rate:.2f}"))
        written.append(path)
    return written


def _scatter_svg(pts: np.ndarray, title: str) -> str:
    """Points on a 400 x 320 canvas: frame, five ticks per axis, title."""
    left, top, pw, ph = 60, 30, 320, 245
    lo = pts.min(axis=0) if len(pts) else np.zeros(2)
    hi = pts.max(axis=0) if len(pts) else np.ones(2)
    pad = np.where(hi > lo, 0.05 * (hi - lo), 0.5)
    lo, hi = lo - pad, hi + pad
    out = ['<svg xmlns="http://www.w3.org/2000/svg" width="400" height="320" '
           'font-family="sans-serif" font-size="11">',
           f'<text x="200" y="18" text-anchor="middle">{html.escape(title, quote=False)}</text>',
           f'<rect x="{left}" y="{top}" width="{pw}" height="{ph}" '
           'fill="none" stroke="black"/>',
           '<text x="220" y="312" text-anchor="middle">a1 estimate</text>',
           '<text x="14" y="152" text-anchor="middle" '
           'transform="rotate(-90 14 152)">a2 estimate</text>']
    # tick labels carry two significant digits of the tick step
    dx, dy = np.maximum(0, 1 - np.floor(np.log10((hi - lo) / 4))).astype(int)
    for t, (x, y) in zip(np.linspace(0, 1, 5), np.linspace(lo, hi, 5)):
        out.append(f'<text x="{left + t * pw:.0f}" y="{top + ph + 14}" '
                   f'text-anchor="middle">{x:.{dx}f}</text>')
        out.append(f'<text x="{left - 4}" y="{top + (1 - t) * ph + 4:.0f}" '
                   f'text-anchor="end">{y:.{dy}f}</text>')
    for x, y in (pts - lo) / (hi - lo) * (pw, ph):
        out.append(f'<circle cx="{left + x:.2f}" cy="{top + ph - y:.2f}" '
                   'r="2.5" fill="steelblue" fill-opacity="0.6"/>')
    return "\n".join(out + ["</svg>"]) + "\n"


def read_results(path) -> dict[str, list[RunResult]]:
    """Parse an emitted CSV back into per-scenario run lists (round-trip of
    everything emit_results writes per run); a malformed row raises with
    its file and line."""
    out: dict[str, list[RunResult]] = {}
    with Path(path).open(newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header != list(CSV_HEADER):
            raise ValueError(f"{path}: unexpected CSV header {header}")
        for fields in reader:
            try:
                sid, run, a1, a2, informative = fields
                if informative not in ("true", "false"):
                    raise ValueError
                rr = RunResult(run=int(run), a1=float(a1), a2=float(a2),
                               informative=informative == "true")
            except ValueError:
                raise ValueError(f"{path}:{reader.line_num}: malformed row "
                                 f"{fields}") from None
            out.setdefault(sid, []).append(rr)
    return out
