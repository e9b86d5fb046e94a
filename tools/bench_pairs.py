"""Alternating parent/change runs of the benchmark, summarised as ``BENCH_<label>.json``.

Run from anywhere, with two checkouts that each hold ``perfbench/run.py``::

    python3 tools/bench_pairs.py --parent ../parent --change . --label NAME \\
        --workloads infer,train,verify --seeds 11-20 --seconds 25

Every run is ``python3 perfbench/run.py --workload W --seed S --seconds T
--trace 0`` in its own checkout, one at a time; pair i runs the parent first
when i is even and the change first when it is odd.  Besides the metrics of
the run's JSON line, each run records its minor page faults (``ru_minflt``)
and system CPU seconds (``ru_stime``), read with ``resource.getrusage`` on
the finished child, and ``minflt_per_op``, the run's faults over its
``attempted`` operations; an ``infer`` or ``train`` run also keeps its worst
``out_rel_err`` (float64 reference, normwise).  Metric directions and bounds
come from the change's ``BENCHMARK.json``.  The report names what it compares:
each side's ``git rev-parse HEAD`` (marked when tracked files differ from it;
"unknown" outside a git checkout) and the ``env.*`` lines of its first run.
"""

from __future__ import annotations

import argparse
import json
import resource
import subprocess
import sys
from pathlib import Path

import numpy as np

EXTRA = ("minflt", "stime_s", "minflt_per_op", "out_rel_err")


def parse_seeds(text):
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def run_once(checkout, workload, seed, seconds):
    """One benchmark run: its result JSON, ``EXTRA`` values added, and its ``env.*`` lines."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    before = resource.getrusage(resource.RUSAGE_CHILDREN)
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    after = resource.getrusage(resource.RUSAGE_CHILDREN)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} in {checkout} exited {proc.returncode}:\n{proc.stderr}")
    lines = proc.stdout.splitlines()
    result = json.loads(lines[-1])
    env = dict(line.split("=", 1) for line in lines if line.startswith("env."))
    minflt = after.ru_minflt - before.ru_minflt
    result["extra"] = {"minflt": minflt, "stime_s": after.ru_stime - before.ru_stime,
                       "minflt_per_op": minflt / max(1, result["attempted"])}
    result["extra"].update(("out_rel_err", float(line.split()[2]))
                           for line in lines if line.startswith("out_rel_err = "))
    return result, env


def git_head(checkout):
    """``checkout``'s ``git rev-parse HEAD``, marked when tracked files differ from it.

    "unknown" unless ``checkout`` is the top level of a git work tree (not a
    directory inside some other repository).
    """
    def git(*args):
        return subprocess.run(["git", "-C", str(checkout), *args], capture_output=True, text=True)
    try:
        found = git("rev-parse", "--show-toplevel", "HEAD")
    except OSError:  # no git program
        return "unknown"
    lines = found.stdout.split()
    if found.returncode != 0 or Path(lines[0]).resolve() != Path(checkout).resolve():
        return "unknown"
    dirty = git("status", "--porcelain", "--untracked-files=no").stdout.strip()
    return lines[1] + (" with uncommitted changes" if dirty else "")


def _sig(value):
    return float(f"{value:.6g}")


def summary(values):
    q1, median, q3 = np.percentile(values, [25, 50, 75])
    return {"median": _sig(median), "q1": _sig(q1), "q3": _sig(q3),
            "runs": [_sig(v) for v in values]}


def side(runs):
    out = {name: summary([r["metrics"][name]["value"] for r in runs])
           for name in runs[0]["metrics"]}
    out.update((name, summary([r["extra"][name] for r in runs]))
               for name in EXTRA if name in runs[0]["extra"])
    out["correct"] = all(r["correct"] for r in runs)
    out["attempted"] = sum(r["attempted"] for r in runs)
    out["failed"] = sum(r["failed"] for r in runs)
    return out


def compare(parent, change, metrics):
    """Per end-to-end metric: pairs won by the change, median ratio, and the bound test."""
    verdicts = {}
    for name, spec in metrics.items():
        if name not in parent:
            continue
        sign = 1 if spec["better"] == "lower" else -1
        p, c = parent[name], change[name]
        wins = sum(sign * (b - a) < 0 for a, b in zip(p["runs"], c["runs"]))
        worse = sign * (c["median"] - p["median"]) / p["median"] if p["median"] else 0.0
        verdicts[name] = {
            "wins": f"{wins} of {len(p['runs'])}",
            "ratio": round(c["median"] / p["median"], 4) if p["median"] else None,
            "gap_exceeds_parent_iqr": abs(c["median"] - p["median"]) > p["q3"] - p["q1"],
            "within_bound": worse <= spec["bound"],
        }
    return verdicts


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, type=Path)
    parser.add_argument("--change", required=True, type=Path)
    parser.add_argument("--label", required=True)
    parser.add_argument("--workloads", default="infer,train,verify")
    parser.add_argument("--seeds", default="11-20", type=parse_seeds)
    parser.add_argument("--seconds", default=25.0, type=float)
    parser.add_argument("--out", type=Path, help="default: BENCH_<label>.json in the change")
    args = parser.parse_args(argv)
    bench = json.loads((args.change / "BENCHMARK.json").read_text())
    metrics = {m["name"]: m for m in bench["end_to_end"]}

    report = {"label": args.label, "method": {
        "command": f"python3 perfbench/run.py --workload W --seed S --seconds {args.seconds:g} "
                   "--trace 0",
        "pairs": f"{len(args.seeds)} per workload, seeds {args.seeds[0]}-{args.seeds[-1]}, "
                 "one process per run, run one at a time; even pairs run the parent first, "
                 "odd pairs the change first",
        "extra": "minflt and stime_s: the run's ru_minflt and ru_stime from getrusage "
                 "(RUSAGE_CHILDREN before and after it); minflt_per_op: minflt / attempted; "
                 "out_rel_err: the run's printed worst (infer and train)",
        "quartiles": "numpy.percentile 25/50/75 (linear) over the runs of one side",
    }, "sides": {name: {"commit": git_head(getattr(args, name))} for name in ("parent", "change")},
        "workloads": {}}
    for workload in args.workloads.split(","):
        runs = {"parent": [], "change": []}
        order = []
        for i, seed in enumerate(args.seeds):
            sides = ("parent", "change") if i % 2 == 0 else ("change", "parent")
            order.append(sides[0])
            for name in sides:
                result, env = run_once(getattr(args, name), workload, seed, args.seconds)
                runs[name].append(result)
                report["sides"][name].setdefault("env", env)
                print(f"{workload} seed {seed} {name}: "
                      f"p50 {result['metrics']['latency_p50_s']['value']:.6g} s, "
                      f"minflt/op {result['extra']['minflt_per_op']:.0f}", file=sys.stderr)
        parent, change = side(runs["parent"]), side(runs["change"])
        report["workloads"][workload] = {
            "pairs": len(args.seeds), "seeds": args.seeds, "first_in_pair": order,
            "parent": parent, "change": change, "verdict": compare(parent, change, metrics)}
    out = args.out or args.change / f"BENCH_{args.label}.json"
    out.write_text(json.dumps(report, indent=1) + "\n")
    print(out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
