"""Compare a parent revision with this checkout on alternated benchmark pairs.

Usage, from the root of a checkout:

    python3 benchmarks/pairs.py --parent REV --workload W --pairs N \
        [--seconds S] > pairs.json

REV's files are extracted (`git archive`) into a temporary directory,
removed at the end.  Pair
k runs BENCHMARK.json's command (perfbench/run.py) with --seed k, k = 1..N,
for S seconds (default: BENCHMARK.json's run_seconds), once in each tree:
the parent first on odd pairs and this checkout first on even ones, so drift
on a shared machine falls on both sides alike.  Progress goes to standard error;
standard output gets one JSON object with, per end-to-end metric of
BENCHMARK.json, both sides' values, medians and quartiles, the pairs the
change won (ties count for neither side) and three verdicts (see
compare): gain, worse than the metric's bound, and unresolved within it.
The machine facts are those perfbench/facts.py reported in each tree's
first run, and two_threads the two_thread_ratio taken before the first pair
and after the last: whether the host gave the runs two free cores.
src_netid_lines is each tree's line count of src/netid/*.py.
The exit code is 1 if any run failed its output checks.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def git(*args: str) -> str:
    return subprocess.run(["git", "-C", str(ROOT), *args], check=True,
                          capture_output=True, text=True).stdout.strip()


def run_once(command: list[str], tree: Path, workload: str, seed: int,
             seconds: float) -> tuple[dict, dict]:
    """One untraced run of the benchmark command in `tree`: (machine facts,
    result)."""
    cmd = command + ["--workload", workload, "--seed", str(seed),
                     "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(cmd, cwd=tree, capture_output=True, text=True,
                          timeout=20 * seconds + 300)

    def failed(why: str) -> RuntimeError:
        return RuntimeError(
            f"perfbench in {tree}, workload {workload}, seed {seed}: {why} "
            f"(exit code {done.returncode}):\n{done.stderr[-2000:]}")

    lines = done.stdout.splitlines()
    machine = next((line[len("machine "):] for line in lines
                    if line.startswith("machine ")), None)
    if machine is None:
        raise failed("no 'machine' line")
    try:
        return json.loads(machine), json.loads(lines[-1])
    except json.JSONDecodeError as exc:
        raise failed(f"no JSON result ({exc})") from None


def src_netid_lines(tree: Path) -> int:
    """Line count of the tree's src/netid/*.py, as `wc -l` counts it."""
    return sum(path.read_bytes().count(b"\n")
               for path in (tree / "src" / "netid").glob("*.py"))


def two_thread_ratio(size: int = 32 * 2**20) -> float:
    """Serial over parallel wall time of two GIL-free jobs, each a sha256
    over a `size`-byte buffer: run twice on this thread, then once on each
    of two threads.  About 2 where the host gives two free cores, about 1
    where it gives one."""
    data = bytes(size)

    def job():
        hashlib.sha256(data).digest()

    start = time.perf_counter()
    job()
    job()
    serial = time.perf_counter() - start
    threads = [threading.Thread(target=job) for _ in range(2)]
    start = time.perf_counter()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return serial / (time.perf_counter() - start)


def summary(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"values": values, "median": median, "q1": q1, "q3": q3}


def compare(parent: list[float], change: list[float], better: str,
            bound: float) -> dict:
    """One metric's pairs.  gain: the change won at least nine tenths of the
    pairs and the medians are further apart than the parent's quartiles.
    worse: the change's median is worse than the parent's by more than
    `bound`, a fraction of the parent's median.  unresolved: the parent's
    quartiles are further apart than that bound, and not every change run
    beats every parent run, so the pairs cannot show the change within it.
    """
    sign = 1.0 if better == "higher" else -1.0
    wins = sum(sign * (c - p) > 0 for p, c in zip(parent, change))
    out = {"parent": summary(parent), "change": summary(change),
           "better": better, "bound": bound, "wins": wins,
           "pairs": len(parent)}
    gap = sign * (out["change"]["median"] - out["parent"]["median"])
    spread = out["parent"]["q3"] - out["parent"]["q1"]
    allowed = bound * abs(out["parent"]["median"])
    out["gain"] = wins >= 0.9 * len(parent) and gap > spread
    out["worse"] = -gap > allowed
    out["unresolved"] = spread > allowed and not (
        min(sign * c for c in change) > max(sign * p for p in parent))
    return out


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--parent", required=True, help="git revision to compare")
    p.add_argument("--workload", required=True)
    p.add_argument("--pairs", type=int, required=True)
    p.add_argument("--seconds", type=float, default=None,
                   help="run length (default: BENCHMARK.json's run_seconds)")
    args = p.parse_args(argv)
    if args.pairs < 2:
        p.error("--pairs must be at least 2")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.seconds is None:
        args.seconds = float(spec["run_seconds"])
    parent_rev = git("rev-parse", "--verify", args.parent + "^{commit}")
    runs = {"parent": [], "change": []}
    machine = {}
    ok = True
    with tempfile.TemporaryDirectory(prefix="netid-pairs-") as tmp:
        parent_tree = Path(tmp) / "parent"
        parent_tree.mkdir()
        archive = subprocess.run(
            ["git", "-C", str(ROOT), "archive", parent_rev], check=True,
            capture_output=True).stdout
        subprocess.run(["tar", "-x", "-C", str(parent_tree)], input=archive,
                       check=True)
        trees = {"parent": parent_tree, "change": ROOT}
        lines = {side: src_netid_lines(tree) for side, tree in trees.items()}
        two_threads = {"before": two_thread_ratio()}
        for k in range(1, args.pairs + 1):
            order = ("parent", "change") if k % 2 else ("change", "parent")
            for side in order:
                facts, result = run_once(spec["command"], trees[side],
                                         args.workload, k, args.seconds)
                machine.setdefault(side, facts)
                ok &= bool(result["correct"])
                runs[side].append(result)
                print(f"pair {k} seed {k} {side}: " + " ".join(
                    f"{n}={m['value']:.5g}"
                    for n, m in result["metrics"].items()),
                    file=sys.stderr, flush=True)
        two_threads["after"] = two_thread_ratio()
    machine["two_threads"] = two_threads
    metrics = {
        m["name"]: compare(
            [r["metrics"][m["name"]]["value"] for r in runs["parent"]],
            [r["metrics"][m["name"]]["value"] for r in runs["change"]],
            m["better"], m["bound"])
        for m in spec["end_to_end"]}
    print(json.dumps({
        "workload": args.workload, "pairs": args.pairs,
        "seconds": args.seconds, "parent": parent_rev,
        "change": git("rev-parse", "HEAD") + (
            " + uncommitted changes" if git("status", "--porcelain") else ""),
        "machine": machine, "src_netid_lines": lines, "all_correct": ok,
        "metrics": metrics},
        indent=1))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
