"""Compare two commits on the repository benchmark and write a BENCH file.

    python3 tools/benchpairs.py --parent REV --change REV --workload witness \\
        --metric setup_s --seeds 1101-1110 --out BENCH_N.json

Each commit is extracted with ``git archive`` into ``.bench_build/parent``
and ``.bench_build/change`` (paths of equal length), and every run is
``python3 perfbench/run.py --workload W --seed S --seconds 10 --trace T``
inside one of them, one run at a time; ``.bench_build`` is removed at the
end, also when a run fails.  ``--metric`` and ``--layer`` take the names of
the end-to-end and per-layer metrics in ``BENCHMARK.json``, checked before
any run.  The file holds:

- ``pairs``: for each seed, one untraced run of ``--workload`` on each side,
  back to back, alternating which side runs first; each side's median and
  inclusive quartiles of every end-to-end metric, the pairs the change won
  (read lower) and the rounds each run fitted;
- ``untraced``: one run of every workload on each side, on ``--all-seed``;
- ``traced``: one traced run of ``--trace-workload`` on each side, on
  ``--trace-seed``, with the per-layer metrics named by ``--layer``.

Only the standard library is used.
"""

import argparse
import json
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("catalog5", "min-order7", "walk6", "witness")
SIDES = ("parent", "change")
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
METRICS = tuple(m["name"] for m in BENCHMARK["end_to_end"])
LAYERS = tuple(m["name"] for m in BENCHMARK["per_layer"])
RUN_SECONDS = 10


def git(*args):
    return subprocess.run(["git", *args], cwd=ROOT, check=True, stdout=subprocess.PIPE,
                          text=True).stdout.strip()


def extract(rev, dest):
    shutil.rmtree(dest, ignore_errors=True)
    dest.mkdir(parents=True)
    archive = subprocess.run(["git", "archive", "--format=tar", rev], cwd=ROOT, check=True,
                             stdout=subprocess.PIPE).stdout
    subprocess.run(["tar", "-x", "-C", str(dest)], input=archive, check=True)


def bench(tree, workload, seed, trace):
    """The result line of one run, with its round count and ``env`` lines."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(RUN_SECONDS), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=tree, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True)
    lines = proc.stdout.splitlines()
    try:
        result = json.loads(lines[-1]) if proc.returncode == 0 and lines else None
    except json.JSONDecodeError:
        result = None
    if result is None or not result.get("correct"):
        raise SystemExit(f"{tree.name} {workload} seed {seed}: run failed "
                         f"(exit {proc.returncode})\n{proc.stderr[-2000:]}")
    info = next(line.split() for line in lines if line.startswith("info workload"))
    result["rounds"] = int(info[info.index("rounds") + 1])
    result["env"] = dict(line[4:].split(" ", 1) for line in lines if line.startswith("env "))
    print(f"{tree.name} {workload} seed {seed} trace {trace}: rounds {result['rounds']}",
          flush=True)
    return result


def values(result):
    return {name: m["value"] for name, m in result["metrics"].items()}


def summary(xs):
    q1, median, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return {"q1": round(q1, 4), "median": round(median, 4), "q3": round(q3, 4)}


def seed_range(text):
    """The seeds ``first-last``, at least two (the summary takes quartiles),
    checked by argument parsing before any checkout is extracted."""
    first, _, last = text.partition("-")
    seeds = list(range(int(first), int(last or first) + 1))
    if len(seeds) < 2:
        raise argparse.ArgumentTypeError(f"need first-last with first < last, got {text!r}")
    return seeds


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", required=True)
    parser.add_argument("--change", required=True)
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--metric", required=True, choices=METRICS,
                        help="the end-to-end metric claimed")
    parser.add_argument("--seeds", type=seed_range, required=True, help="first-last")
    parser.add_argument("--all-seed", type=int, required=True)
    parser.add_argument("--trace-workload", choices=WORKLOADS, required=True)
    parser.add_argument("--trace-seed", type=int, required=True)
    parser.add_argument("--layer", action="append", required=True, choices=LAYERS, metavar="NAME",
                        help="per-layer metric to keep (repeatable)")
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)

    build = ROOT / ".bench_build"
    trees = dict(zip(SIDES, (build / side for side in SIDES)))
    try:
        commits = {side: git("rev-parse", getattr(args, side)) for side in SIDES}
        for side in SIDES:
            extract(commits[side], trees[side])

        def both(workload, seed, trace, first):
            order = SIDES if first == "parent" else SIDES[::-1]
            return {side: bench(trees[side], workload, seed, trace) for side in order}

        runs = [both(args.workload, seed, 0, SIDES[i % 2]) for i, seed in enumerate(args.seeds)]
        metrics = {}
        for name in runs[0]["parent"]["metrics"]:
            got = {side: [values(run[side])[name] for run in runs] for side in SIDES}
            wins = sum(c < p for p, c in zip(got["parent"], got["change"]))
            metrics[name] = {**{side: summary(got[side]) for side in SIDES},
                             "runs": {side: [round(x, 4) for x in got[side]] for side in SIDES},
                             "change_wins": f"{wins}/{len(runs)}"}
        parent, change = metrics[args.metric]["parent"], metrics[args.metric]["change"]
        untraced = {w: both(w, args.all_seed, 0, SIDES[i % 2]) for i, w in enumerate(WORKLOADS)}
        traced = both(args.trace_workload, args.trace_seed, 1, "parent")

        out = {
            "command": " ".join(["python3", "tools/benchpairs.py", *(argv or sys.argv[1:])]),
            "run": f"python3 perfbench/run.py --workload W --seed S --seconds {RUN_SECONDS} "
                   "--trace T, in a fresh git archive of each commit",
            "commits": commits,
            "src_trees": {side: git("rev-parse", f"{commits[side]}:src") for side in SIDES},
            "machine": {key: runs[0]["parent"]["env"][key] for key in ("cpu", "nproc", "python")},
            "claim": {"workload": args.workload, "metric": args.metric,
                      "parent_median": parent["median"], "change_median": change["median"],
                      "parent_iqr": round(parent["q3"] - parent["q1"], 4),
                      "change_wins": metrics[args.metric]["change_wins"]},
            "pairs": {"workload": args.workload, "seeds": args.seeds, "metrics": metrics,
                      "rounds": {side: [run[side]["rounds"] for run in runs] for side in SIDES}},
            "untraced": {"seed": args.all_seed,
                         "workloads": {w: {side: {**values(r[side]), "rounds": r[side]["rounds"]}
                                           for side in SIDES} for w, r in untraced.items()}},
            "traced": {"workload": args.trace_workload, "seed": args.trace_seed,
                       "metrics": {name: {side: values(traced[side])[name] for side in SIDES}
                                   for name in args.layer}},
        }
    finally:
        shutil.rmtree(build, ignore_errors=True)
    args.out.write_text(json.dumps(out, indent=1) + "\n")
    return 0

if __name__ == "__main__":
    sys.exit(main())
