"""vnoether benchmark: one command, three workloads, checked verdicts.

Usage (from the repository root)::

    python3 perfbench/run.py --workload witness_search --seed 1 \
        --seconds 40 --trace 0

``--workload all`` runs the three workloads one after the other.
``--trace 0`` runs untraced passes over the workload's operation list for
``--seconds`` seconds and reports the end-to-end metrics; ``--trace 1``
runs one untraced and one traced pass and reports the per-layer metrics
named in ``layers.json``.  Every operation runs in a guarded child (see
``guard.py``), one at a time, from this single process.  Human-readable
lines come first; the last line of standard output is one JSON object with
the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads
from guard import CRASHED, DECIDED, EXCEEDED, WRONG, run_guarded
from tracer import SPAN_FIELDS, Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SPANS_DIR = HERE / "out"

# Set-up samples are spread evenly over the run: after each operation the
# bench catches up with a schedule of SETUP_SPAWNS samples per run, so that
# their median spans the machine's slow drifts in speed.
SETUP_SPAWNS = 12
SHOWN_OPS = 8
PERCENTILES = (50, 75, 90, 95, 99, 99.9)
WORKLOADS = ("witness_search", "gauge_pipeline", "graded_identities")
# Span groups whose covered time the traced run reports as a share.
GROUPS = {"witness_path": ["variational.weak_conservation_witness",
                           "linsolve.solve_sparse"]}


def build_ops(workload: str, seed: int) -> list:
    if workload == "graded_identities":
        import graded  # imports vnoether, so only once SRC is on the path
        return graded.graded_identities(seed)
    return getattr(workloads, workload)(seed)


def measure_setup(spawns: int = 1) -> list:
    """Seconds from spawning a fresh interpreter until ``vnoether.cli`` is
    imported, once per spawn."""
    code = ("import sys, vnoether.cli; "
            "sys.stdout.write('ready\\n'); sys.stdout.flush()")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    times = []
    for _ in range(spawns):
        start = time.perf_counter()
        with subprocess.Popen([sys.executable, "-c", code], cwd=ROOT, env=env,
                              stdout=subprocess.PIPE) as child:
            line = child.stdout.readline()
            times.append(time.perf_counter() - start)
            child.stdout.read()
        if line != b"ready\n" or child.returncode != 0:
            raise RuntimeError("fresh interpreter could not import vnoether.cli")
    return times


def run_pass(ops: list, tracer=None, after_op=None) -> list:
    records = []
    for index, op in enumerate(ops):
        if tracer is not None:
            tracer.op_index = index
        records.append(run_guarded(op.label, op.execute, op.expected,
                                   op.budget_s, workloads.CAP_MB, tracer))
        if after_op is not None:
            after_op()
    return records


def completed(record) -> bool:
    return record.outcome in (DECIDED, WRONG)


def pass_seconds(records: list) -> float:
    """Wall time of a pass; an operation that exceeded or crashed is charged
    its full budget, so a later fix shows as a gain, not a new cost."""
    return sum(r.wall_s if completed(r) else r.budget_s for r in records)


def pass_peak_mb(records: list) -> float:
    return max(r.maxrss_mb if completed(r) else float(workloads.CAP_MB)
               for r in records)


def quartiles(values: list) -> tuple:
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def tail(values: list) -> str:
    """The highest percentile with at least ten samples beyond it."""
    values = sorted(values)
    n = len(values)
    if not n:
        return "no samples"
    best = None
    for p in PERCENTILES:
        if n * (100 - p) / 100 >= 10:
            best = p
    if best is None:
        return f"n={n}, too few samples for a tail percentile"
    k = min(n - 1, int(round(best / 100 * (n - 1))))
    return f"p{best:g} {values[k]:.4f} s, n={n}"


def end_to_end(setup: list, passes: list) -> dict:
    records = [r for recs in passes for r in recs]
    pass_s = [pass_seconds(recs) for recs in passes]
    by_label = {}
    for r in records:
        if completed(r):
            by_label.setdefault(r.label, []).append(r.verdict_s)
    samples = [s for v in by_label.values() for s in v]
    # The median operation: each operation's median over the passes, then
    # the median over operations, so every operation weighs the same however
    # many passes the run made.  If no operation reached a verdict, each is
    # charged its budget, as in pass_s.
    per_op = {label: statistics.median(v) for label, v in by_label.items()}
    verdict_p50 = statistics.median(
        list(per_op.values()) or [r.budget_s for r in records])
    peaks = [pass_peak_mb(recs) for recs in passes]
    decided = sum(r.outcome == DECIDED for r in records)

    def q(values):
        lo, hi = quartiles(values)
        return f"q1 {lo:.4f}, q3 {hi:.4f}, n={len(values)}"

    rows = [
        ("setup_s", statistics.median(setup), "s", q(setup) + " spawns"),
        ("pass_s", statistics.median(pass_s), "s", q(pass_s) + " passes"),
        ("verdict_s.p50", verdict_p50, "s",
         f"median of {len(per_op)} operations; " + tail(samples)),
        ("peak_rss_mb", statistics.median(peaks), "MB", q(peaks) + " passes"),
        ("decided_ratio", decided / len(records), "ratio",
         f"{decided} of {len(records)} operations"),
    ]
    for name, value, unit, note in rows:
        print(f"{name:<15} {value:12.4f} {unit:<6} ({note})")
    slowest = sorted(((s, k) for k, s in per_op.items()),
                     reverse=True)[:SHOWN_OPS]
    print("slowest operations (median verdict_s over passes):")
    for seconds, label in slowest:
        print(f"  {seconds:9.4f} s  {label}")
    return {name: {"value": value, "unit": unit}
            for name, value, unit, _ in rows}


def layer_catalog() -> tuple:
    """Span targets, counter units and the layer of each span name."""
    layers = json.loads((HERE / "layers.json").read_text())["layers"]
    targets, counters, layer_of = {}, {}, {}
    for layer in layers:
        targets.update(layer["spans"])
        layer_of.update(dict.fromkeys(layer["spans"], layer["layer"]))
        for name, unit, _ in layer["counters"]:
            counters[name] = unit
    return targets, counters, layer_of


def per_layer(untraced: list, traced: list, catalog: tuple) -> dict:
    targets, counters, layer_of = catalog
    digests = json.loads((HERE / "digests.json").read_text())
    done = [r for r in traced if completed(r)]
    metrics = {}
    for name in targets:
        calls = sum(r.layers["spans"][name][0] for r in done)
        self_ns = sum(r.layers["spans"][name][1] for r in done)
        metrics[f"{name}.calls"] = (calls, "count")
        metrics[f"{name}.self_s"] = (self_ns / 1e9, "s")
    summed = {}
    for r in done:
        for key, value in r.layers["counters"].items():
            summed[key] = summed.get(key, 0) + value
    calls = metrics["linsolve.solve_sparse.calls"][0]
    derived = {
        "linsolve.solved_ratio":
            summed.get("linsolve.solutions", 0) / calls if calls else 0.0,
        "cli.json_bytes": sum(r.info.get("json_bytes", 0) for r in done),
        "cli.json_digest_match": sum(
            1 for r in done
            if r.info.get("sha256") and digests.get(r.label) == r.info["sha256"]),
        "trace.overhead_s": pass_seconds(traced) - pass_seconds(untraced),
    }
    for name, unit in counters.items():
        value = derived[name] if name in derived else summed.get(name, 0)
        metrics[name] = (value, unit)
    for name, (value, unit) in metrics.items():
        print(f"{name:<48} {value:>16.6g} {unit}")
    by_layer = {}
    for name in targets:
        by_layer[layer_of[name]] = (by_layer.get(layer_of[name], 0.0)
                                    + metrics[f"{name}.self_s"][0])
    print("self time by layer: " + ", ".join(
        f"{layer} {seconds:.4f} s" for layer, seconds in by_layer.items()))
    # The two profile claims this benchmark was built to confirm.
    verdict_s = sum(r.verdict_s for r in done)
    covered = sum(r.layers["covered_ns"]["witness_path"] for r in done) / 1e9
    if verdict_s:
        print(f"share of completed operations' time covered by "
              f"weak_conservation_witness + solve_sparse: "
              f"{covered / verdict_s:.3f}")
    print(f"linsolve.solve_sparse.self_s / traced pass_s: "
          f"{metrics['linsolve.solve_sparse.self_s'][0] / pass_seconds(traced):.4f}")
    return {name: {"value": value, "unit": unit}
            for name, (value, unit) in metrics.items()}


def describe(passes: list) -> tuple:
    records = [r for recs in passes for r in recs]
    counts = {k: sum(r.outcome == k for r in records)
              for k in (DECIDED, WRONG, EXCEEDED, CRASHED)}
    shown = set()
    for r in records:
        if r.outcome != DECIDED and r.label not in shown:
            shown.add(r.label)
            print(f"  {r.outcome:<8} {r.label}: {r.reason or r.verdict}"
                  f" (steps {r.steps})")
    correct = counts[WRONG] == 0 and counts[CRASHED] == 0
    return correct, len(records), len(records) - counts[DECIDED], counts


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return max(main(["--workload", w, "--seed", str(args.seed),
                         "--seconds", str(args.seconds),
                         "--trace", str(args.trace)]) for w in WORKLOADS)

    if not (SRC / "vnoether" / "cli.py").is_file():
        print(f"error: no vnoether sources under {SRC}", file=sys.stderr)
        return 2
    os.chdir(ROOT)
    sys.path.insert(0, str(SRC))
    import vnoether.cli  # noqa: F401  (the parent imports once; children fork)

    ops = build_ops(args.workload, args.seed)
    print(f"workload {args.workload}, seed {args.seed}, "
          f"{len(ops)} operations per pass, trace {args.trace}")
    if args.trace:
        catalog = layer_catalog()
        untraced = run_pass(ops)
        SPANS_DIR.mkdir(exist_ok=True)
        path = SPANS_DIR / f"spans-{args.workload}-seed{args.seed}.tsv"
        path.write_text("\t".join(SPAN_FIELDS) + "\n", encoding="utf-8")
        with Tracer(catalog[0], GROUPS) as tracer:
            tracer.spans_path = path
            traced = run_pass(ops, tracer)
        passes = [untraced, traced]
        correct, attempted, failed, counts = describe(passes)
        metrics = per_layer(untraced, traced, catalog)
        print(f"spans written to {path.relative_to(ROOT)}")
    else:
        start = time.perf_counter()
        setup = measure_setup()

        def sample_setup():
            elapsed = time.perf_counter() - start
            due = min(SETUP_SPAWNS,
                      1 + int(elapsed * SETUP_SPAWNS / args.seconds))
            if due > len(setup):
                setup.extend(measure_setup(due - len(setup)))

        passes = []
        while True:
            passes.append(run_pass(ops, after_op=sample_setup))
            elapsed = time.perf_counter() - start
            if elapsed + elapsed / len(passes) > args.seconds:
                break
        correct, attempted, failed, counts = describe(passes)
        metrics = end_to_end(setup, passes)
    print(f"outcomes: {counts}")
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
