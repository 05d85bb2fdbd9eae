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
  (read lower) and the rounds each run fitted.  ``raw`` holds the same for
  two numbers the run prints on its ``info`` lines: ``wall_s``, the median
  round time in seconds, and ``calibration_mean_ms``, the mean of the
  calibration passes that turn seconds into ref units; a ref metric that
  moves while both stay put moved with the calibration alone;
- ``untraced``: one run of every workload on each side, on ``--all-seed``;
- ``traced``: for each seed of ``--trace-seeds``, one traced run of
  ``--trace-workload`` on each side, alternating which side runs first;
  every run's value and each side's median of the per-layer metrics named
  by ``--layer``;
- ``in_process``, with ``--in-process NAME`` (repeatable): the process time
  of one call of ``endo.enumerate_sr`` on the lattice ``NAME`` of
  ``lattice.enumerate_lattices`` (``lat6_14``), in seconds to the
  microsecond: ``CALLS`` calls are timed together in a fresh interpreter
  per side and pass, run with ``PYTHONHASHSEED=0`` as ``perfbench/run.py``
  runs itself, and their time divided by their number, so a walk of
  well under a millisecond still reads; ``PASSES`` passes alternate which
  side runs first.  It holds every run and each side's median, and each
  side's output, the number of sets and the sha256 of their joined
  ``packed`` forms or the ``SizeLimit`` message, from the last call.
  ``NAME@K`` (``lat6_15@20000``) sets ``closure.SET_LIMIT`` to K inside
  the timed interpreter, so the walk is timed until it passes K sets.
  ``enumerate@N`` times the enumeration layer instead, one call of
  ``lattice.enumerate_lattices(N)``, and its output is the number of
  lattices and the sha256 of the ``repr`` of their (name, join table)
  pairs.

A SIGTERM or SIGINT stops the tool with exit code 128 plus the signal
number, after the running child and every process it started are
terminated and ``.bench_build`` is removed.  Only the standard library is
used.
"""

import argparse
import contextlib
import json
import os
import re
import shutil
import signal
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
PASSES = 10  # fresh interpreters of one tree time in two bands, so 3 a side cannot resolve 10%
CALLS = 20  # a distributive walk of size 6 takes about 0.1 ms, lat6_14's 0.6 s

# one walk timed in a fresh interpreter: argv is the walk (latN_K,
# latN_K@SETS or enumerate@N) and the number of calls timed together;
# prints {"seconds", "output"}, the seconds per call
TIMER = """
import hashlib, json, sys, time
from semirings import closure
from semirings.endo import enumerate_sr
from semirings.errors import SizeLimit
from semirings.lattice import enumerate_lattices
(name, _, sets), calls = sys.argv[1].partition("@"), int(sys.argv[2])
if name == "enumerate":
    size = int(sets)

    def walk():
        return enumerate_lattices(size, limit=size)
else:
    size = int(name[3:].split("_")[0])
    lat = next(lat for lat in enumerate_lattices(size, limit=size) if lat.name == name)
    if sets:
        closure.SET_LIMIT = int(sets)

    def walk():
        try:
            return enumerate_sr(lat)
        except SizeLimit as exc:
            return exc

start = time.process_time()
for _ in range(calls):
    got = walk()
seconds = (time.process_time() - start) / calls
if name == "enumerate":
    tables = repr([(lat.name, lat.join) for lat in got]).encode()
    output = f"{len(got)} lattices, sha256 {hashlib.sha256(tables).hexdigest()}"
elif isinstance(got, SizeLimit):
    output = str(got)
else:
    packed = b"".join(f.packed for f in got)
    output = f"{len(got)} sets, sha256 {hashlib.sha256(packed).hexdigest()[:16]}"
print(json.dumps({"seconds": seconds, "output": output}))
"""


def stop(signum, frame):
    """Turn SIGTERM or SIGINT into ``SystemExit``, so that every
    ``finally`` on the way out runs."""
    print(f"stopped by {signal.Signals(signum).name}", file=sys.stderr, flush=True)
    raise SystemExit(128 + signum)


def run_child(cmd, cwd, env=None):
    """(exit code, stdout, stderr) of ``cmd`` run in ``cwd``.  The child
    leads a session of its own; if the wait is cut by an exception (a
    signal turned into one by ``stop``), the child and every process it
    started are terminated and reaped before the exception goes on."""
    proc = subprocess.Popen(cmd, cwd=cwd, env=env, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True, start_new_session=True)
    try:
        out, err = proc.communicate()
    finally:
        if proc.returncode is None:
            with contextlib.suppress(ProcessLookupError):  # the group is gone
                os.killpg(proc.pid, signal.SIGTERM)
            proc.communicate()
    return proc.returncode, out, err


def git(*args):
    return subprocess.run(["git", *args], cwd=ROOT, check=True, stdout=subprocess.PIPE,
                          text=True).stdout.strip()


def extract(rev, dest):
    shutil.rmtree(dest, ignore_errors=True)
    dest.mkdir(parents=True)
    archive = subprocess.run(["git", "archive", "--format=tar", rev], cwd=ROOT, check=True,
                             stdout=subprocess.PIPE).stdout
    subprocess.run(["tar", "-x", "-C", str(dest)], input=archive, check=True)


def info_numbers(lines):
    """``wall_s`` and ``calibration_mean_ms`` from a run's ``info`` lines,
    the median raw round time and the mean calibration pass (None for a
    traced run, which prints neither)."""
    found = {"wall_s": None, "calibration_mean_ms": None}
    for line in lines:
        words = line.split()
        if words[:2] == ["info", "wall_s"]:
            found["wall_s"] = float(words[2])
        elif words[:2] == ["info", "calibration"]:
            found["calibration_mean_ms"] = float(words[words.index("mean_ms") + 1])
    return found


def bench(tree, workload, seed, trace):
    """The result line of one run, with its round count, its ``info``
    numbers (``info_numbers``) and its ``env`` lines."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(RUN_SECONDS), "--trace", str(trace)]
    code, out, err = run_child(cmd, tree)
    lines = out.splitlines()
    try:
        result = json.loads(lines[-1]) if code == 0 and lines else None
    except json.JSONDecodeError:
        result = None
    if result is None or not result.get("correct"):
        raise SystemExit(f"{tree.name} {workload} seed {seed}: run failed "
                         f"(exit {code})\n{err[-2000:]}")
    info = next(line.split() for line in lines if line.startswith("info workload"))
    result["rounds"] = int(info[info.index("rounds") + 1])
    result["info"] = info_numbers(lines)
    result["env"] = dict(line[4:].split(" ", 1) for line in lines if line.startswith("env "))
    print(f"{tree.name} {workload} seed {seed} trace {trace}: rounds {result['rounds']}",
          flush=True)
    return result


def time_walk(tree, walk):
    """(process seconds per call, output) of the ``TIMER`` script on
    ``walk``, ``NAME``, ``NAME@SETS`` or ``enumerate@N``, over ``CALLS``
    calls in a fresh interpreter on ``tree``, with string hashing fixed by
    ``PYTHONHASHSEED=0``, so that set and dict layouts repeat from one
    interpreter to the next."""
    env = {**os.environ, "PYTHONPATH": str(tree / "src"), "PYTHONHASHSEED": "0"}
    code, out, err = run_child([sys.executable, "-c", TIMER, walk, str(CALLS)], tree, env)
    if code != 0:
        raise SystemExit(f"{tree.name} {walk}: timing failed (exit {code})\n{err[-2000:]}")
    result = json.loads(out.splitlines()[-1])
    print(f"{tree.name} {walk}: {result['seconds']:.6f} s a call", flush=True)
    return result["seconds"], result["output"]


def in_process(trees, walks):
    """The ``in_process`` entry of each walk: ``PASSES`` passes over the
    walks, one run of ``CALLS`` calls a side each, the first side
    alternating by pass.  A side whose output changes between passes stops
    the tool."""
    runs = {walk: {side: [] for side in SIDES} for walk in walks}
    for i in range(PASSES):
        order = SIDES if i % 2 == 0 else SIDES[::-1]
        for walk in walks:
            for side in order:
                runs[walk][side].append(time_walk(trees[side], walk))
    out = {}
    for walk, got in runs.items():
        entry = out[walk] = {"output": {}}
        for side in SIDES:
            outputs = {output for _, output in got[side]}
            if len(outputs) != 1:
                raise SystemExit(f"{side} {walk}: output differs between passes: {outputs}")
            entry["output"][side] = outputs.pop()
            seconds = [round(t, 6) for t, _ in got[side]]
            entry[side] = {"median_s": statistics.median(seconds), "runs_s": seconds}
    return out


def walk_name(text):
    """``text`` when it is ``latN_K``, a lattice of ``enumerate_lattices``,
    ``latN_K@SETS``, with a positive set limit, or ``enumerate@N``, the
    enumeration up to a positive size N."""
    if re.fullmatch(r"lat\d+_\d+(@[1-9]\d*)?|enumerate@[1-9]\d*", text) is None:
        raise argparse.ArgumentTypeError(
            f"need latN_K, latN_K@SETS or enumerate@N, got {text!r}")
    return text


def values(result):
    return {name: m["value"] for name, m in result["metrics"].items()}


def per_side(runs, name):
    """The value of metric ``name`` in each of ``runs``, by side."""
    return {side: [values(run[side])[name] for run in runs] for side in SIDES}


def summary(xs):
    q1, median, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return {"q1": round(q1, 4), "median": round(median, 4), "q3": round(q3, 4)}


def compared(got):
    """Each side's summary of the values ``got[side]``, one per pair, every
    value, and the pairs in which the change read lower."""
    wins = sum(c < p for p, c in zip(got["parent"], got["change"]))
    return {**{side: summary(got[side]) for side in SIDES},
            "runs": {side: [round(x, 4) for x in got[side]] for side in SIDES},
            "change_wins": f"{wins}/{len(got['parent'])}"}


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
    parser.add_argument("--trace-seeds", type=seed_range, required=True, help="first-last")
    parser.add_argument("--layer", action="append", required=True, choices=LAYERS, metavar="NAME",
                        help="per-layer metric to keep (repeatable)")
    parser.add_argument("--in-process", type=walk_name, action="append", default=[],
                        metavar="NAME[@SETS]",
                        help="lattice whose enumerate_sr is timed in process, or "
                             "enumerate@N for enumerate_lattices(N) (repeatable)")
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)

    build = ROOT / ".bench_build"
    trees = dict(zip(SIDES, (build / side for side in SIDES)))
    handlers = {sig: signal.signal(sig, stop) for sig in (signal.SIGTERM, signal.SIGINT)}
    try:
        commits = {side: git("rev-parse", getattr(args, side)) for side in SIDES}
        for side in SIDES:
            extract(commits[side], trees[side])

        def both(workload, seed, trace, first):
            order = SIDES if first == "parent" else SIDES[::-1]
            return {side: bench(trees[side], workload, seed, trace) for side in order}

        runs = [both(args.workload, seed, 0, SIDES[i % 2]) for i, seed in enumerate(args.seeds)]
        metrics = {name: compared(per_side(runs, name)) for name in runs[0]["parent"]["metrics"]}
        raw = {name: compared({side: [run[side]["info"][name] for run in runs] for side in SIDES})
               for name in runs[0]["parent"]["info"]}
        parent, change = metrics[args.metric]["parent"], metrics[args.metric]["change"]
        untraced = {w: both(w, args.all_seed, 0, SIDES[i % 2]) for i, w in enumerate(WORKLOADS)}
        traced = [both(args.trace_workload, seed, 1, SIDES[i % 2])
                  for i, seed in enumerate(args.trace_seeds)]
        layers = {name: per_side(traced, name) for name in args.layer}
        walks = in_process(trees, args.in_process)

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
                      "raw": raw,
                      "rounds": {side: [run[side]["rounds"] for run in runs] for side in SIDES}},
            "untraced": {"seed": args.all_seed,
                         "workloads": {w: {side: {**values(r[side]), "rounds": r[side]["rounds"]}
                                           for side in SIDES} for w, r in untraced.items()}},
            "traced": {"workload": args.trace_workload, "seeds": args.trace_seeds,
                       "metrics": {name: {"runs": got,
                                          "median": {side: statistics.median(got[side])
                                                     for side in SIDES}}
                                   for name, got in layers.items()}},
        }
        if walks:
            out["in_process"] = {
                "run": f"time.process_time() around {CALLS} calls of endo.enumerate_sr "
                       "(latN_K) or lattice.enumerate_lattices (enumerate@N), "
                       f"divided by {CALLS}, in a fresh interpreter per side and pass "
                       f"run with PYTHONHASHSEED=0, {PASSES} passes alternating the "
                       "first side",
                "calls": CALLS,
                "walks": walks}
    finally:
        shutil.rmtree(build, ignore_errors=True)
        for sig, handler in handlers.items():
            signal.signal(sig, handler)
    args.out.write_text(json.dumps(out, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
