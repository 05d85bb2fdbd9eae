"""The benchmark workloads.

Each workload has three parts:

- ``setup(seed, workdir)`` builds the inputs.  The seed only orders items
  and draws the query mix; results never depend on it.
- ``run(state, tracer)`` is one timed round, issued by a single closed-loop
  caller, one call at a time.  It returns a :class:`Round` holding the
  ``perf_counter`` stamps of the round, the ``perf_counter`` and thread
  CPU time stamps of every item, and the raw outputs.
- ``verify(state, rnd)`` runs outside the timed region and returns
  ``(attempted, failures)``: how many items it checked and a message for
  each item that raised or came out wrong.

Calls go through module attributes (``endo.enumerate_sr``, not a name
imported into this file), so that a traced round sees them.
"""

from __future__ import annotations

import io
import itertools
import json
import random
import shutil
from contextlib import nullcontext
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter, thread_time

from semirings import catalog, cli, endo, errors, fixtures, lattice, semimodule, semiring

HERE = Path(__file__).resolve().parent


@dataclass
class Round:
    start: float
    end: float
    items: list      # (start, end, cpu_start, cpu_end) of each item
    output: object

    @property
    def wall_s(self):
        return self.end - self.start


def _cli(argv):
    """(exit code, output) of one CLI call; a crash gives exit code None."""
    buf = io.StringIO()
    try:
        return cli.main(argv, out=buf), buf.getvalue()
    except Exception as exc:  # counted as a failed item
        return None, repr(exc)


def _stamp():
    """``perf_counter`` and thread CPU time, now."""
    return perf_counter(), thread_time()


def _item(begin):
    """(start, end, cpu_start, cpu_end) of an item begun at ``begin``."""
    end, cpu_end = _stamp()
    return begin[0], end, begin[1], cpu_end


def _timed(tracer):
    return tracer.span("round") if tracer is not None else nullcontext()


def _matches_fixture(lat):
    """Name of the bundled fixture isomorphic to ``lat``, or None."""
    for name in fixtures.FIXTURE_NAMES:
        if lattice.lattice_iso(lat, fixtures.load_fixture(name)) is not None:
            return name
    return None


# ---------------------------------------------------------------------------
# catalog5: `catalog build --max-size 5`, then a seeded mix of queries

CATALOG_MAX_SIZE = 5
# lattice classes of each size up to five; each is one of the fixtures
CATALOG_CLASSES = {2: 1, 3: 1, 4: 2, 5: 5}
QUERY_COUNT = 3000
QUERY_POOL = tuple(itertools.product(
    (None, 20, 44),              # --min-order
    (None, 16, 45, 70),          # --max-order
    (None, 0, 1),                # --has-one
    (None, 2, 3, 4, 5),          # --lattice-size
))


def _query_argv(query):
    argv = []
    for flag, value in zip(("--min-order", "--max-order", "--has-one", "--lattice-size"), query):
        if value is not None:
            argv += [flag, str(value)]
    return argv


def catalog5_setup(seed, workdir, max_size=CATALOG_MAX_SIZE, query_count=QUERY_COUNT):
    rng = random.Random(seed)
    return {
        "workdir": Path(workdir),
        "max_size": max_size,
        "queries": [rng.choice(QUERY_POOL) for _ in range(query_count)],
        "rounds": 0,
    }


def catalog5_run(state, tracer=None):
    state["rounds"] += 1
    out_dir = state["workdir"] / f"catalog{state['rounds']}"
    shutil.rmtree(out_dir, ignore_errors=True)
    build_argv = ["--format", "json", "--jobs", "1", "catalog", "build",
                  "--max-size", str(state["max_size"]), "--out", str(out_dir)]
    query_argvs = [["--format", "json", "catalog", "query", "--out", str(out_dir)]
                   + _query_argv(q) for q in state["queries"]]
    items = []
    answers = []
    with _timed(tracer):
        t0 = perf_counter()
        build = _cli(build_argv)
        for argv in query_argvs:
            begin = _stamp()
            answers.append(_cli(argv))
            items.append(_item(begin))
        t1 = perf_counter()
    return Round(t0, t1, items, {"out_dir": out_dir, "build": build, "answers": answers})


def _direct_rows(reports, query):
    min_order, max_order, has_one, lattice_size = query
    return [
        {"lattice": r.name, "n": r.n, "order": m.order, "has_one": m.has_one,
         "self_anti_iso": m.self_anti_iso, "iso_class": m.iso_class}
        for r in reports
        if lattice_size is None or r.n == lattice_size
        for m in r.members
        if (min_order is None or m.order >= min_order)
        and (max_order is None or m.order <= max_order)
        and (has_one is None or m.has_one == bool(has_one))
    ]


def _record_failures(report, expected):
    lat = lattice.validate_lattice(report.join, name=report.name)
    fixture = _matches_fixture(lat)
    if fixture is None:
        return [f"record {report.name}: lattice matches no fixture"], None
    want = expected[fixture]
    got = {
        "end_order": report.end_order,
        "sr_orders": [m.order for m in report.members],
        "has_one": [m.has_one for m in report.members],
        "self_anti_iso": [m.self_anti_iso for m in report.members],
        "iso_classes": [m.iso_class for m in report.members],
    }
    return [f"record {report.name} ({fixture}): {key} {value} != {want[key]}"
            for key, value in got.items() if value != want[key]], fixture


def catalog5_verify(state, rnd):
    out = rnd.output
    attempted = 1 + len(out["answers"])
    rc, text = out["build"]
    try:
        entries = json.loads(text)["entries"]
        reports = catalog.load_catalog(out["out_dir"])
    except (ValueError, KeyError, OSError, errors.Error) as exc:
        return attempted, [f"catalog unreadable after build: {exc!r}"] * attempted
    failures = []
    want_count = sum(c for n, c in CATALOG_CLASSES.items() if n <= state["max_size"])
    if rc != 0 or len(entries) != want_count or len(reports) != want_count:
        failures.append(f"catalog build: exit {rc}, {len(entries)} entries, "
                        f"{len(reports)} records, want {want_count}")
    expected = catalog.expected_families()
    seen = set()
    for report in reports:
        attempted += 1
        problems, fixture = _record_failures(report, expected)
        if fixture in seen:
            problems.append(f"record {report.name}: second record for {fixture}")
        seen.add(fixture)
        failures += problems[:1]
    for query, (rc, text) in zip(state["queries"], out["answers"]):
        try:
            rows = json.loads(text)["rows"]
        except (ValueError, KeyError):
            rows = None
        if rc != 0 or rows != _direct_rows(reports, query):
            failures.append(f"query {query}: exit {rc}, rows differ from a direct filter")
    return attempted, failures


# ---------------------------------------------------------------------------
# min-order7: `min-order --max-size 7`, one lattice per output line

MIN_ORDER_MAX_SIZE = 7
# lattice classes of sizes 6..max size, and the least dense order among them
MIN_ORDER_ROWS = {6: 15, 7: 68}
MIN_ORDER_MINIMUM = 98


class LineClock(io.StringIO):
    """Output stream that remembers when each line was written."""

    def __init__(self):
        super().__init__()
        self.stamps = []

    def write(self, text):
        self.stamps.append((_stamp(), text))
        return super().write(text)


def min_order_setup(seed, workdir, max_size=MIN_ORDER_MAX_SIZE):
    # A single call: there is nothing for the seed to order.
    return {"argv": ["--jobs", "1", "min-order", "--max-size", str(max_size)],
            "max_size": max_size}


def min_order_run(state, tracer=None):
    out = LineClock()
    with _timed(tracer):
        begin = _stamp()
        t0 = begin[0]
        try:
            rc = cli.main(state["argv"], out=out)
        except Exception as exc:  # counted as a failed item
            rc = repr(exc)
        t1 = perf_counter()
    items = []
    last = begin
    for stamp, text in out.stamps:
        if text.startswith("["):
            items.append((last[0], stamp[0], last[1], stamp[1]))
            last = stamp
    return Round(t0, t1, items, {"rc": rc, "lines": out.getvalue().splitlines()})


def parse_min_order(lines):
    """(rows as {name: min_order or None}, minimum, partial) from text output."""
    rows = {}
    minimum = None
    partial = False
    for line in lines:
        if line.startswith("["):
            tail = line.partition("] ")[2]
            name = tail.split(" ", 1)[0].rstrip(":")
            if tail.endswith("skipped (budget)"):
                rows[name] = None
            else:
                rows[name] = int(tail.rsplit(" ", 1)[1])
        elif line.startswith("minimum dense subsemiring order: "):
            value = line.split(": ", 1)[1]
            partial = "partial" in value
            minimum = int(value.split()[0])
    return rows, minimum, partial


def min_order_verify(state, rnd):
    out = rnd.output
    want_rows = MIN_ORDER_ROWS[state["max_size"]]
    rows, minimum, partial = parse_min_order(out["lines"])
    failures = []
    if out["rc"] != 0 or minimum != MIN_ORDER_MINIMUM or partial or len(rows) != want_rows:
        failures.append(f"min-order: exit {out['rc']}, minimum {minimum}, "
                        f"partial {partial}, {len(rows)} rows (want {want_rows})")
    lats = {l.name: l for l in lattice.enumerate_lattices(state["max_size"]) if l.n >= 6}
    for name, lat in lats.items():
        order = rows.get(name)
        end_order = len(endo.endomorphisms(lat))
        # the least dense subsemiring is all of End(M) iff M is distributive
        if order is None or (order == end_order) != lattice.is_distributive(lat):
            failures.append(f"min-order {name}: least order {order}, |End| {end_order}")
    return 1 + len(lats), failures


# ---------------------------------------------------------------------------
# walk6: the dense-family walk on size-6 lattices


def walk6_setup(seed, workdir, names=None):
    data = json.loads((HERE / "lattices6.json").read_text())
    entries = [e for e in data["lattices"] if names is None or e["name"] in names]
    lats = [lattice.validate_lattice(e["join"], name=e["name"]) for e in entries]
    random.Random(seed).shuffle(lats)
    families = {e["name"]: e["families"] for e in entries}
    return {
        "lattices": lats,
        "families": families,
        "dual_pairs": [p for p in data["dual_pairs"] if all(name in families for name in p)],
    }


def walk6_run(state, tracer=None):
    families = {}
    items = []
    with _timed(tracer):
        t0 = perf_counter()
        for lat in state["lattices"]:
            begin = _stamp()
            try:
                families[lat.name] = endo.enumerate_sr(lat)
            except Exception as exc:  # counted as a failed item
                families[lat.name] = exc
            items.append(_item(begin))
        t1 = perf_counter()
    return Round(t0, t1, items, families)


def _has_one(lat, members):
    # A one of a dense subsemiring fixes every value b of an elementary
    # map, hence every element: it can only be the identity map.
    return tuple(range(lat.n)) in members


def walk6_verify(state, rnd):
    families = rnd.output
    failures = []
    shapes = {}
    for lat in state["lattices"]:
        fams = families.get(lat.name)
        if isinstance(fams, Exception) or fams is None:
            failures.append(f"walk {lat.name}: raised {fams!r}")
            continue
        want = state["families"][lat.name]
        sets = [f.members for f in fams]
        least = endo.dense_closure(lat).members
        full = frozenset(endo.endomorphisms(lat))
        if len(fams) != want or min(sets, key=len) != least or max(sets, key=len) != full:
            failures.append(f"walk {lat.name}: {len(fams)} families (want {want}), "
                            "or ends differ from dense_closure / End(M)")
        shapes[lat.name] = sorted((len(s), _has_one(lat, s)) for s in sets)
    for a, b in state["dual_pairs"]:
        if a in shapes and b in shapes and shapes[a] != shapes[b]:
            failures.append(f"dual pair {a}/{b}: member sizes or has_one flags differ")
    return len(state["lattices"]) + len(state["dual_pairs"]), failures


# ---------------------------------------------------------------------------
# witness: the `check` command's witness path for fixture family members


def witness_setup(seed, workdir, names=None):
    """Cayley tables of the members pinned in witness_members.json, each
    a dense subsemiring of End(fixture) given by its endomorphisms."""
    data = json.loads((HERE / "witness_members.json").read_text())
    lats = {}
    rings = []
    for entry in data["members"]:
        name = entry["fixture"]
        if names is not None and name not in names:
            continue
        if name not in lats:
            lats[name] = fixtures.load_fixture(name)
        sub = endo.EndoSubsemiring(lats[name], frozenset(map(tuple, entry["members"])))
        rings.append(sub.to_semiring(name=f"{name}[{entry['index']}]"))
    random.Random(seed).shuffle(rings)
    return {"rings": rings, "lattices": lats}


def witness_path(r):
    """recover_monoid, find_irreducible, representation, lattice_iso."""
    lat = semiring.recover_monoid(r)
    mod = semimodule.find_irreducible(r, check=False)
    rep = semimodule.representation(r, mod)
    module_lat = semimodule.module_lattice(mod)
    return {"recovered": lat, "module_lattice": module_lat, "rep": rep,
            "iso": lattice.lattice_iso(module_lat, lat)}


def witness_run(state, tracer=None):
    results = []
    items = []
    with _timed(tracer):
        t0 = perf_counter()
        for r in state["rings"]:
            begin = _stamp()
            try:
                results.append(witness_path(r))
            except Exception as exc:  # counted as a failed item
                results.append(exc)
            items.append(_item(begin))
        t1 = perf_counter()
    return Round(t0, t1, items, results)


def _is_lattice_iso(src, dst, f):
    return (sorted(f) == list(range(src.n)) and f[src.zero] == dst.zero
            and all(f[src.join[x][y]] == dst.join[f[x]][f[y]]
                    for x in range(src.n) for y in range(src.n)))


def witness_failures(r, result, fixture):
    if isinstance(result, Exception):
        return [f"witness {r.name}: raised {result!r}"]
    rep, lat, module_lat, iso = (result["rep"], result["recovered"],
                                 result["module_lattice"], result["iso"])
    image = set(rep.action_maps)
    failures = []
    if not (rep.faithful and len(image) == r.n == len(rep.action_maps)):
        failures.append(f"witness {r.name}: representation is not faithful")
    if not (rep.dense and all(e in image for e in endo.elementary_maps(module_lat))):
        failures.append(f"witness {r.name}: representation is not dense")
    if lat is None or iso is None or not _is_lattice_iso(module_lat, lat, iso.mapping):
        failures.append(f"witness {r.name}: module lattice is not the recovered monoid")
    elif lattice.lattice_iso(lat, fixture) is None:
        failures.append(f"witness {r.name}: recovered monoid is not its fixture lattice")
    return failures


def witness_verify(state, rnd):
    failures = []
    for r, result in zip(state["rings"], rnd.output):
        fixture = state["lattices"][r.name.split("[")[0]]
        failures += witness_failures(r, result, fixture)[:1]
    return len(state["rings"]), failures


WORKLOADS = {
    "catalog5": (catalog5_setup, catalog5_run, catalog5_verify),
    "min-order7": (min_order_setup, min_order_run, min_order_verify),
    "walk6": (walk6_setup, walk6_run, walk6_verify),
    "witness": (witness_setup, witness_run, witness_verify),
}
