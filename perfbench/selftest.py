"""Self-test of the benchmark's verifiers.

    python3 perfbench/selftest.py

Runs each workload on a small input, checks that its verifier accepts the
real result, then corrupts the result in several ways and checks that the
verifier rejects every corruption.  Exits nonzero if any check fails.
Takes a few seconds.
"""

from __future__ import annotations

import copy
import dataclasses
import json
import shutil
import sys
from pathlib import Path

from run import ROOT, import_package

import_package()

import workloads  # noqa: E402
from semirings import endo  # noqa: E402

RESULTS = []


def check(label, verify, state, rnd, clean):
    attempted, failures = verify(state, rnd)
    ok = (not failures) if clean else bool(failures)
    RESULTS.append(ok)
    verdict = "accepts" if not failures else f"rejects ({failures[0]})"
    print(f"{'PASS' if ok else 'FAIL'} {label}: verifier {verdict}")


def with_output(rnd, output):
    return dataclasses.replace(rnd, output=output)


def test_catalog(workdir):
    state = workloads.catalog5_setup(7, workdir, max_size=4, query_count=60)
    rnd = workloads.catalog5_run(state)
    verify = workloads.catalog5_verify
    check("catalog: real result", verify, state, rnd, clean=True)

    # a query answer with one row dropped
    answers = list(rnd.output["answers"])
    i = next(k for k, (_, text) in enumerate(answers) if json.loads(text)["rows"])
    payload = json.loads(answers[i][1])
    payload["rows"].pop()
    answers[i] = (answers[i][0], json.dumps(payload))
    check("catalog: dropped query row", verify, state,
          with_output(rnd, dict(rnd.output, answers=answers)), clean=False)

    # a failed build exit code
    check("catalog: build exit code 1", verify, state,
          with_output(rnd, dict(rnd.output, build=(1, rnd.output["build"][1]))), clean=False)

    # a record written with a wrong family order
    entries = Path(rnd.output["out_dir"]) / "entries"
    for path in entries.iterdir():
        text = path.read_text()
        if "order=20 " in text:
            path.write_text(text.replace("order=20 ", "order=19 "))
    check("catalog: wrong family order in a record", verify, state, rnd, clean=False)


def test_min_order():
    state = workloads.min_order_setup(0, None, max_size=6)
    rnd = workloads.min_order_run(state)
    verify = workloads.min_order_verify
    check("min-order: real result", verify, state, rnd, clean=True)
    lines = rnd.output["lines"]
    corrupt = {
        "dropped row": [line for line in lines if not line.startswith("[3/")],
        "wrong minimum": [line.replace("order: 98", "order: 97") for line in lines],
        "partial result": [line + " (partial: some lattices skipped)"
                           if line.startswith("minimum") else line for line in lines],
        "least order of a distributive lattice": [
            line.replace("least dense order 252", "least dense order 251") for line in lines],
    }
    for label, bad in corrupt.items():
        assert bad != lines, label
        check(f"min-order: {label}", verify, state,
              with_output(rnd, dict(rnd.output, lines=bad)), clean=False)


def test_walk():
    state = workloads.walk6_setup(3, None, names={"lat6_2", "lat6_6", "lat6_4", "lat6_7"})
    rnd = workloads.walk6_run(state)
    verify = workloads.walk6_verify
    check("walk: real result", verify, state, rnd, clean=True)

    fams = dict(rnd.output)
    fams["lat6_4"] = fams["lat6_4"][:-1]
    check("walk: family missing its largest member", verify, state,
          with_output(rnd, fams), clean=False)

    fams = dict(rnd.output)
    least = fams["lat6_7"][0]
    shrunk = endo.EndoSubsemiring(least.lattice, frozenset(sorted(least.members)[1:]))
    fams["lat6_7"] = [shrunk] + fams["lat6_7"][1:]
    check("walk: smallest member is not the dense closure", verify, state,
          with_output(rnd, fams), clean=False)

    # the middle member of lat6_4 swapped for a same-size set whose has_one
    # flag differs; its ends stay right, so only the dual-pair check sees it
    fams = dict(rnd.output)
    least, middle, full = fams["lat6_4"]
    identity = tuple(range(least.lattice.n))
    if identity in middle.members:
        swapped = full.members - {identity}
    else:
        swapped = least.members | {identity}
    fams["lat6_4"] = [least, endo.EndoSubsemiring(least.lattice, swapped), full]
    check("walk: dual pair with different has_one flags", verify, state,
          with_output(rnd, fams), clean=False)

    fams = dict(rnd.output)
    fams["lat6_6"] = RuntimeError("walk raised")
    check("walk: a walk that raised", verify, state, with_output(rnd, fams), clean=False)


def test_witness():
    state = workloads.witness_setup(5, None, names=("chain3", "diamond"))
    rnd = workloads.witness_run(state)
    verify = workloads.witness_verify
    check("witness: real result", verify, state, rnd, clean=True)

    def corrupted(change):
        results = copy.copy(rnd.output)
        results[0] = change(dict(results[0]))
        return with_output(rnd, results)

    def flag_not_dense(result):
        result["rep"] = dataclasses.replace(result["rep"], dense=False)
        return result

    def drop_elementary(result):
        rep = result["rep"]
        elementary = set(endo.elementary_maps(result["module_lattice"]))
        zero = endo.zero_map(result["module_lattice"])
        maps = tuple(zero if (m in elementary and m != zero) else m for m in rep.action_maps)
        result["rep"] = dataclasses.replace(rep, action_maps=maps)
        return result

    def flag_not_faithful(result):
        result["rep"] = dataclasses.replace(result["rep"], faithful=False)
        return result

    def no_iso(result):
        result["iso"] = None
        return result

    for label, change in (
        ("representation flagged non-dense", flag_not_dense),
        ("representation missing elementary maps", drop_elementary),
        ("representation flagged non-faithful", flag_not_faithful),
        ("module lattice not matched to the monoid", no_iso),
    ):
        check(f"witness: {label}", verify, state, corrupted(change), clean=False)


def main():
    workdir = ROOT / ".perfbench_work" / "selftest"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        test_catalog(workdir)
        test_min_order()
        test_walk()
        test_witness()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass
    print(f"{sum(RESULTS)} of {len(RESULTS)} checks passed")
    return 0 if all(RESULTS) else 1


if __name__ == "__main__":
    sys.exit(main())
