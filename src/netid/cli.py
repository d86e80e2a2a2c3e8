"""Command-line interface.

Subcommands:

* simulate   - run the network simulator and dump node signals to CSV
* direct     - one-shot direct (prediction-error) estimate of a node's modules
* local      - local two-step identification of one module
* montecarlo - scenario batches, per-run results written to results.csv
* truth      - exact frequency responses of T (and the target module of G)
* report     - summarize a results.csv, optionally as SVG scatter plots

Exit status is 0 on success and 1 on any error, including a Monte-Carlo
scenario whose every run failed; error messages carry the failing stage's
label when one applies.  NETID_WORKERS caps Monte-Carlo concurrency.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
from pathlib import Path

from .experiments import (ResultTable, Scenario, check_batch, check_scenario,
                          default_scenario_file, emit_results,
                          load_scenarios, read_results, run_direct,
                          run_local_pipeline, run_monte_carlo, summarize,
                          write_csv, write_scatter_svgs)
from .local import (DEFAULT_FIR_ORDER, DEFAULT_GRID_POINTS,
                    plan_experiment_for_model)
from .model import ExcitationSpec, default_network_file, load_network, true_T
from .sim import simulate
from .tf import FreqGrid


def _load_model(args):
    return load_network(args.network or default_network_file())


def _scenarios(args, command: str | None = None) -> list[Scenario]:
    """The scenarios --scenario names (a file, an id in the shipped file, or,
    absent, the whole shipped file), each with --runs, --samples and --seed,
    where given, as its counts and base seed.  A `command` that runs one
    scenario rejects a file of several."""
    value = args.scenario
    if value is not None and Path(value).is_file():
        scenarios = load_scenarios(Path(value))
    else:
        scenarios = [s for s in load_scenarios(default_scenario_file())
                     if value in (None, s.id)]
        if not scenarios:
            raise ValueError(
                f"--scenario {value!r} is neither a file nor a scenario id "
                f"in {default_scenario_file().name}")
    if command and len(scenarios) > 1:
        raise ValueError(f"scenario file {value} holds {len(scenarios)} "
                         f"scenarios ({', '.join(s.id for s in scenarios)}); "
                         f"'netid {command}' takes one")
    overrides = {name: given for name, given in (
        ("runs", getattr(args, "runs", None)),
        ("samples_per_run", args.samples), ("base_seed", args.seed))
        if given is not None}
    return [dataclasses.replace(s, **overrides) for s in scenarios]


def _parse_target(text: str) -> tuple[int, int]:
    parts = text.replace(",", " ").split()
    if len(parts) != 2:
        raise ValueError(f"--target expects 'j,i', got {text!r}")
    return (int(parts[0]), int(parts[1]))


def _cmd_simulate(args) -> int:
    model = _load_model(args)
    if args.scenario is not None:
        [scn] = _scenarios(args, "simulate")
        spec = scn.excitation(scn.base_seed)
    else:
        spec = ExcitationSpec(
            range(1, model.L + 1),
            N=10_000 if args.samples is None else args.samples,
            seed=0 if args.seed is None else args.seed)
    record = simulate(model, spec)
    path = write_csv(args.out, "signals.csv",
                     ["t"] + [f"w{j}" for j in range(1, model.L + 1)],
                     ([t, *w] for t, w in enumerate(record.w.T)))
    print(f"simulated {model.L} nodes x {record.N} samples (excited "
          f"{','.join(map(str, spec.excited_nodes))}, seed {record.seed})")
    print(f"wrote {path}")
    return 0


def _cmd_direct(args) -> int:
    model = _load_model(args)
    [scn] = _scenarios(args, "direct")
    if scn.method != "direct":
        raise ValueError(f"scenario {scn.id} has method {scn.method}; "
                         f"'netid direct' runs direct scenarios only")
    check_scenario(scn, model)
    est = run_direct(model, scn, scn.base_seed)
    j = est.structure.target_node
    print(f"scenario {scn.id}: direct estimate of modules into node {j} "
          f"({scn.samples_per_run} samples, seed {scn.base_seed})")
    for node in est.structure.regressor_nodes:
        coeffs = ", ".join(f"{c:.6g}" for c in est.coefficients_for(node))
        print(f"  module ({j},{node}): [{coeffs}]")
    print(f"  gram condition {est.gram_condition:.4g}  "
          f"informative {'yes' if est.informative else 'NO'}")
    return 0


def _cmd_local(args) -> int:
    model = _load_model(args)
    target = _parse_target(args.target)
    est = run_local_pipeline(
        model, target, samples=args.samples, seed=args.seed,
        fir_order=args.fir_order, grid_points=args.grid_points,
        exact_T=args.exact_t)
    plan = est.plan
    print(f"target module {target}: {plan.which}-side solve "
          f"(excite {{{','.join(map(str, plan.excite_set))}}}, "
          f"measure {{{','.join(map(str, plan.measure_set))}}}, "
          f"{plan.entry_count} T entries)")
    if est.entry_fit_scores:
        worst = min(est.entry_fit_scores.values())
        print(f"  worst T-entry fit score {worst:.6f} over "
              f"{len(est.entry_fit_scores)} entries")
    if est.dropped_points:
        print(f"  dropped {est.dropped_points} ill-conditioned grid points")
    coeffs = ", ".join(f"{c:.6g}" for c in est.coefficients)
    d0, d1 = est.band
    print(f"  coefficients (delays {d0}..{d1}): [{coeffs}]")
    return 0


def _cmd_montecarlo(args) -> int:
    model = _load_model(args)
    scenarios = _scenarios(args)
    for scn in scenarios:  # all of them, before the first batch
        check_batch(scn, model)
    rows, all_failed = [], []
    for scn in scenarios:
        row = run_monte_carlo(scn, model)
        rows.append(row)
        (m1, m2), (s1, s2) = row.mean, row.std
        print(f"scenario {scn.id}: mean ({m1:.4f}, {m2:.4f})  "
              f"std ({s1:.4g}, {s2:.4g})  informative "
              f"{row.informative_rate:.0%}  runs {len(row.runs)}"
              + (f"  failed {row.failed_runs}" if row.failed_runs else ""))
        if row.failed_runs == len(row.runs):
            all_failed.append(row)
    for path in emit_results(ResultTable(rows=tuple(rows)), args.out):
        print(f"wrote {path}")
    for row in all_failed:
        first = row.runs[0]
        print(f"error: scenario {row.scenario.id}: all {len(row.runs)} runs "
              f"failed; run {first.run}: {first.error}", file=sys.stderr)
    return 1 if all_failed else 0


def _cmd_truth(args) -> int:
    model = _load_model(args)
    target = _parse_target(args.target)
    plan = plan_experiment_for_model(model, target)
    grid = FreqGrid.uniform(args.grid_points)
    tmat = true_T(model, plan.measure_set, plan.excite_set, grid)
    j, i = target
    om = grid.as_array()
    g_true = model.edge(j, i).eval_at(om)
    entries = [f"T_{r}_{c}" for r in tmat.rows for c in tmat.cols]
    path = write_csv(args.out, "truth.csv", ["omega"] + [
        f"{name}_{part}" for name in entries + [f"G_{j}_{i}"]
        for part in ("re", "im")], (
        [om[k]] + [x for z in (*tmat.values[k].ravel(), g_true[k])
                   for x in (z.real, z.imag)] for k in range(len(om))))
    print(f"wrote {path} ({len(grid)} frequencies, "
          f"{len(tmat.rows)}x{len(tmat.cols)} T entries)")
    return 0


def _cmd_report(args) -> int:
    path = Path(args.out) / "results.csv"
    if not path.exists():
        raise FileNotFoundError(f"no results.csv under {args.out}; run "
                                f"'netid montecarlo --out {args.out}' first")
    per_scenario = read_results(path)
    print(f"{'scenario':>8}  {'runs':>5}  {'mean a1':>9}  {'mean a2':>9}  "
          f"{'std a1':>9}  {'std a2':>9}  {'informative':>11}")
    for sid, runs in per_scenario.items():
        (m1, m2), (s1, s2), inf_rate = summarize(runs)
        print(f"{sid:>8}  {len(runs):>5}  {m1:>9.4f}  {m2:>9.4f}  "
              f"{s1:>9.4g}  {s2:>9.4g}  {inf_rate:>10.0%}")
    if args.format == "svg":
        for svg in write_scatter_svgs(per_scenario, args.out):
            print(f"wrote {svg}")
    return 0


def _scenario_options(default=None, absent=None) -> argparse.ArgumentParser:
    """--scenario, --samples and --seed, as one command's own parent parser:
    subparsers share a parent's actions, and so would share a default."""
    p = argparse.ArgumentParser(add_help=False)
    p.add_argument("--scenario", metavar="FILE|ID", default=default,
                   help=f"scenario file, or an id in the shipped file "
                   f"(default: {absent or default})")
    p.add_argument("--samples", type=int, default=None,
                   help="override the scenario's sample count")
    p.add_argument("--seed", type=int, default=None,
                   help="override the scenario's base seed")
    return p


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="netid",
        description="identification of single modules in dynamic networks")
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--network", metavar="FILE", default=None,
                        help="network file (default: shipped 20-node case study)")
    out = argparse.ArgumentParser(add_help=False)
    out.add_argument("--out", default="netid-out", metavar="DIR")
    module = argparse.ArgumentParser(add_help=False)
    module.add_argument("--target", default="3,4", metavar="J,I",
                        help="module to identify, sink,source (default 3,4)")
    module.add_argument("--grid-points", type=int,
                        default=DEFAULT_GRID_POINTS)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", parents=[common, out, _scenario_options(
        absent="excite every node, 10000 samples, seed 0")],
                       help="simulate the network and dump signals")
    p.set_defaults(fn=_cmd_simulate)

    p = sub.add_parser("direct", parents=[common, _scenario_options("1")],
                       help="one-shot direct estimate for a scenario")
    p.set_defaults(fn=_cmd_direct)

    p = sub.add_parser("local", parents=[common, module],
                       help="local two-step identification of one module")
    p.add_argument("--samples", type=int, default=10_000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--fir-order", type=int, default=DEFAULT_FIR_ORDER)
    p.add_argument("--exact-t", action="store_true",
                   help="solve from exact T samples (oracle path, no noise)")
    p.set_defaults(fn=_cmd_local)

    p = sub.add_parser("montecarlo", parents=[common, out, _scenario_options(
        absent="every shipped scenario")], help="Monte-Carlo scenario batches")
    p.add_argument("--runs", type=int, default=None,
                   help="override the scenario's run count")
    p.set_defaults(fn=_cmd_montecarlo)

    p = sub.add_parser("truth", parents=[common, module, out],
                       help="exact T/G frequency responses for a target")
    p.set_defaults(fn=_cmd_truth)

    p = sub.add_parser("report", parents=[out],
                       help="summarize an emitted results.csv")
    p.add_argument("--format", choices=("csv", "svg"), default="csv")
    p.set_defaults(fn=_cmd_report)
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except Exception as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
