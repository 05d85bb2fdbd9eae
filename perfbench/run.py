"""Benchmark of the semirings package, run from the root of a source checkout.

    python3 perfbench/run.py --workload catalog5 --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 10

One run sets up one workload (see README.md in this directory), repeats
its timed round while another round still fits in ``--seconds`` (at least
once), verifies every output outside the timed region, and prints each
metric as ``metric <name> <value> <unit>``.  The last line of standard
output is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``.

With ``--trace 0`` the metrics are the end-to-end ones: round wall time,
set-up time (from interpreter start, median over several fresh
interpreters), peak resident memory and per-item latency in thread CPU
time.  With ``--trace 1`` the run makes one untraced and one traced round
and reports the per-layer metrics of the traced one (see tracing.py).
``--workload all`` runs every workload both ways in child processes and
prints all of their metrics.  The exit code is nonzero when any
verification fails.

The package is imported from ``src/`` next to this directory and nowhere
else.  Everything is single-process with ``--jobs 1``.  The run re-executes
itself with ``PYTHONHASHSEED=0`` unless that is already set.
"""

from __future__ import annotations

import sys

sys.dont_write_bytecode = True  # every run compiles the same sources

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKLOAD_NAMES = ("catalog5", "min-order7", "walk6", "witness")
SETUP_PROBES = 6
CHILD_TIMEOUT_S = 170

END_TO_END = (
    ("wall_ref_s", "ref_s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("item_cpu_ref_ms_p50", "ref_ms"),
    ("item_cpu_ref_ms_p99", "ref_ms"),
)


def import_package():
    """Import semirings from this checkout's src/, or exit with code 2."""
    if not (SRC / "semirings" / "__init__.py").is_file():
        sys.exit(f"perfbench: no package source at {SRC}")
    sys.path.insert(0, str(SRC))
    import semirings

    if Path(semirings.__file__).resolve().parent != SRC / "semirings":
        sys.exit(f"perfbench: imported semirings from {semirings.__file__}, not {SRC}")


def _betacf(a, b, x):
    """Continued fraction of the incomplete beta function (modified Lentz)."""
    tiny = 1e-300
    c, d = 1.0, 1.0 - (a + b) * x / (a + 1)
    d = 1.0 / (d if abs(d) > tiny else tiny)
    h = d
    for m in range(1, 1000):
        for num in (m * (b - m) * x / ((a + 2 * m - 1) * (a + 2 * m)),
                    -(a + m) * (a + b + m) * x / ((a + 2 * m) * (a + 2 * m + 1))):
            d = 1.0 + num * d
            d = 1.0 / (d if abs(d) > tiny else tiny)
            c = 1.0 + num / c
            c = c if abs(c) > tiny else tiny
            h *= d * c
        if abs(d * c - 1.0) < 1e-12:
            break
    return h


def _betainc(a, b, x):
    """Regularized incomplete beta function I_x(a, b)."""
    if x <= 0.0 or x >= 1.0:
        return min(max(x, 0.0), 1.0)
    front = math.exp(math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
                     + a * math.log(x) + b * math.log1p(-x))
    if x < (a + 1) / (a + b + 2):
        return front * _betacf(a, b, x) / a
    return 1.0 - front * _betacf(b, a, 1.0 - x) / b


def percentile(values, q):
    """Harrell-Davis estimate of the q-th percentile, q in (0, 100).

    A weighted mean of all order statistics, so it moves smoothly when
    items of similar latency trade places; the plain order statistic
    jumps between them when a workload has only a dozen items."""
    ordered = sorted(values)
    n = len(ordered)
    p = q / 100
    a, b = p * (n + 1), (1 - p) * (n + 1)
    cdf = [_betainc(a, b, i / n) for i in range(n + 1)]
    return sum((cdf[i + 1] - cdf[i]) * x for i, x in enumerate(ordered))


def environment():
    commit = "unknown"
    head = ROOT / ".git" / "HEAD"
    if head.is_file():
        ref = head.read_text().strip()
        commit = ref
        if ref.startswith("ref: "):
            ref_path = ROOT / ".git" / ref[5:]
            packed = ROOT / ".git" / "packed-refs"
            if ref_path.is_file():
                commit = ref_path.read_text().strip()
            elif packed.is_file():
                commit = next((line.split()[0] for line in packed.read_text().splitlines()
                               if line.endswith(" " + ref[5:])), ref)
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {"commit": commit, "nproc": os.cpu_count(), "cpu": cpu,
            "python": platform.python_version()}


def probe_setup(workload, seed, count):
    """Seconds from interpreter start to workload-ready, in fresh processes."""
    samples = []
    cmd = [sys.executable, "-B", str(Path(__file__).resolve()), "--probe-setup",
           "--workload", workload, "--seed", str(seed)]
    for _ in range(count):
        t0 = perf_counter()
        proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE)
        line = proc.stdout.readline()
        samples.append(perf_counter() - t0)
        proc.communicate(timeout=CHILD_TIMEOUT_S)
        if line.strip() != b"ready" or proc.returncode != 0:
            raise RuntimeError(f"set-up probe for {workload} failed")
    return samples


def emit(name, value, unit):
    print(f"metric {name} {value!r} {unit}")
    return {"value": value, "unit": unit}


def run_one(args):
    import workloads

    setup, run, verify = workloads.WORKLOADS[args.workload]
    workdir = ROOT / ".perfbench_work" / f"{args.workload}-{os.getpid()}"
    if args.probe_setup:
        setup(args.seed, workdir)
        print("ready", flush=True)
        return 0

    for key, value in environment().items():
        print(f"env {key} {value}")
    # half the set-up probes before the rounds, half after
    setup_samples = [] if args.trace else probe_setup(args.workload, args.seed, SETUP_PROBES // 2)
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        state = setup(args.seed, workdir)
        rounds = []
        if args.trace:
            from tracing import LAYER_METRICS, Tracer

            rounds.append(run(state))
            with Tracer() as tracer:
                rounds.append(run(state, tracer))
        else:
            from calibrate import SpeedSampler

            start = perf_counter()
            with SpeedSampler() as speed:
                while True:
                    rounds.append(run(state))
                    if perf_counter() - start + rounds[-1].wall_s > args.seconds:
                        break
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        if not args.trace:
            setup_samples += probe_setup(args.workload, args.seed, SETUP_PROBES // 2)
        attempted = failed = 0
        for rnd in rounds:
            n, failures = verify(state, rnd)
            attempted += n
            failed += len(failures)
            for message in failures[:20]:
                print(f"FAIL {args.workload}: {message}", file=sys.stderr)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:  # another run still uses it
            pass

    items = [item for rnd in rounds for item in rnd.items]
    print(f"info workload {args.workload} seed {args.seed} trace {args.trace} "
          f"rounds {len(rounds)} items {len(items)}")
    print(f"info fail_rate {failed / max(attempted, 1)!r} ({failed} of {attempted})")
    metrics = {}
    if args.trace:
        values = tracer.layer_metrics(untraced_wall_s=rounds[0].wall_s)
        for name, unit in LAYER_METRICS:
            metrics[name] = emit(name, values[name], unit)
    else:
        items_ms = [speed.net_s(s, e) * 1e3 for s, e, _, _ in items]
        items_cpu_ms = [(ce - cs) * 1e3 for _, _, cs, ce in items]
        items_cpu_ref_ms = [speed.reference_cpu_s(*item) * 1e3 for item in items]
        print(f"info wall_s {statistics.median(speed.net_s(r.start, r.end) for r in rounds)!r} "
              f"item_ms_p50 {percentile(items_ms, 50)!r} "
              f"item_ms_p99 {percentile(items_ms, 99)!r} "
              f"item_cpu_ms_p50 {percentile(items_cpu_ms, 50)!r} "
              f"item_cpu_ms_p99 {percentile(items_cpu_ms, 99)!r}")
        print(f"info calibration passes {len(speed.passes)} "
              f"mean_ms {statistics.fmean(speed.passes) * 1e3!r} "
              f"cpu_median_ms {statistics.median(speed.cpu_passes) * 1e3!r}")
        print(f"info setup_s samples {[round(s, 4) for s in setup_samples]}")
        values = {
            "wall_ref_s": statistics.median(speed.reference_s(r.start, r.end) for r in rounds),
            "setup_s": statistics.median(setup_samples),
            "peak_rss_mb": peak_rss_mb,
            "item_cpu_ref_ms_p50": percentile(items_cpu_ref_ms, 50),
            "item_cpu_ref_ms_p99": percentile(items_cpu_ref_ms, 99),
        }
        for name, unit in END_TO_END:
            metrics[name] = emit(name, values[name], unit)
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if failed == 0 else 1


def run_all(args):
    """Every workload, untraced then traced, each in its own process."""
    attempted = failed = 0
    metrics = {}
    ok = True
    for workload in WORKLOAD_NAMES:
        for trace in (0, 1):
            cmd = [sys.executable, "-B", str(Path(__file__).resolve()), "--workload", workload,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(trace)]
            proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
            lines = proc.stdout.splitlines()
            for line in lines[:-1]:
                print(f"[{workload} trace={trace}] {line}")
            try:
                result = json.loads(lines[-1])
            except (IndexError, ValueError):
                print(f"[{workload} trace={trace}] no result, exit {proc.returncode}")
                ok = False
                continue
            ok = ok and proc.returncode == 0 and result["correct"]
            attempted += result["attempted"]
            failed += result["failed"]
            for name, metric in result["metrics"].items():
                metrics[f"{workload}.{name}"] = emit(f"{workload}.{name}",
                                                     metric["value"], metric["unit"])
    print(json.dumps({"correct": ok and failed == 0, "attempted": max(attempted, 1),
                      "failed": failed, "metrics": metrics}))
    return 0 if ok and failed == 0 else 1


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe-setup", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    import_package()
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    if os.environ.get("PYTHONHASHSEED") != "0":
        # Fixed string hashing gives every run the same dict and set layouts;
        # with random hashing the same queries took 6% longer in some processes.
        os.execve(sys.executable, [sys.executable, "-B", str(Path(__file__).resolve()), *sys.argv[1:]],
                  {**os.environ, "PYTHONHASHSEED": "0"})
    sys.exit(main())
