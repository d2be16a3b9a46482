"""Self-tests of the benchmark itself (not of vnoether).

Run from the repository root; takes about two minutes::

    python3 perfbench/selftest.py

Each check prints one PASS or FAIL line; the exit code is the number of
failures.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile
import traceback

import run

sys.path.insert(0, str(run.SRC))
os.chdir(run.ROOT)

from guard import DECIDED, EXCEEDED, WRONG, run_guarded  # noqa: E402
from tracer import Tracer, resolve  # noqa: E402
from workloads import CAP_MB, Op, cli_op  # noqa: E402

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def no_child_left() -> bool:
    try:
        os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        return True
    return False


def guarded(op: Op):
    return run_guarded(op.label, op.execute, op.expected, op.budget_s, CAP_MB)


def test_corrupt_current_is_a_failed_verdict():
    clean = cli_op("superpotential", "maxwell2.vln", "gauge")
    corrupt = cli_op("superpotential", "maxwell2.vln", "gauge",
                     extra=["--debug-corrupt-current"])
    assert guarded(clean).outcome == DECIDED
    record = guarded(corrupt)
    assert record.outcome == WRONG, record
    assert record.verdict["exit"] == 1, record.verdict


def test_tiny_budget_is_exceeded_not_crashed():
    record = guarded(cli_op("verify", "sqed2.vln", budget_s=0.5))
    assert record.outcome == EXCEEDED, record
    assert record.reason.startswith("wall budget"), record.reason
    assert no_child_left()


def test_one_child_at_a_time():
    def count_siblings(emit):
        ppid = os.getppid()
        path = f"/proc/{ppid}/task/{ppid}/children"
        with open(path) as fh:
            return len(fh.read().split()), {}

    probe = f"/proc/{os.getpid()}/task/{os.getpid()}/children"
    if not os.path.exists(probe):
        print("  (no /proc children list here; checked reaping only)")
    else:
        for _ in range(3):
            record = guarded(Op("siblings", count_siblings, 1))
            assert record.outcome == DECIDED, record
    assert no_child_left()


def test_tracer_patches_every_binding_and_restores():
    from vnoether import superpotential, variational
    targets = run.layer_catalog()[0]
    before = {name: resolve(t)[2] for name, t in targets.items()}
    bindings = (variational.solve_sparse,
                superpotential.horizontal_antiderivative)
    with Tracer(targets):
        assert variational.solve_sparse is not bindings[0]
        assert superpotential.horizontal_antiderivative is not bindings[1]
        for name, target in targets.items():
            assert resolve(target)[2] is not before[name], name
    assert variational.solve_sparse is bindings[0]
    assert superpotential.horizontal_antiderivative is bindings[1]
    for name, target in targets.items():
        assert resolve(target)[2] is before[name], name


def bench(workload: str, seed: int, trace: int, hashseed: str) -> dict:
    env = dict(os.environ, PYTHONHASHSEED=hashseed)
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", str(trace)],
        cwd=run.ROOT, env=env, capture_output=True, text=True, timeout=300,
        check=True)
    return json.loads(out.stdout.strip().splitlines()[-1])


def test_traced_counts_repeat_and_match_the_catalog():
    per_layer = {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
    for workload in run.WORKLOADS:
        first = bench(workload, 7, 1, "1")
        second = bench(workload, 7, 1, "2")
        assert first["correct"] and second["correct"], workload
        names = {k: v["unit"] for k, v in first["metrics"].items()}
        assert names == per_layer, (workload, set(names) ^ set(per_layer))
        for name, metric in first["metrics"].items():
            if metric["unit"] in ("count", "bytes", "ratio"):
                assert metric["value"] == second["metrics"][name]["value"], \
                    (workload, name)


def test_end_to_end_names_and_units():
    wanted = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
    result = bench("graded_identities", 3, 0, "0")
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    assert got == wanted, got
    assert result["correct"] and result["failed"] == 0, result


def test_refuses_without_the_program():
    scratch = run.HERE / "out"
    scratch.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=scratch) as tmp:
        shutil.copy(run.ROOT / "BENCHMARK.json", tmp)
        shutil.copytree(run.HERE, os.path.join(tmp, "perfbench"),
                        ignore=shutil.ignore_patterns("out", "__pycache__"))
        out = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload",
             "gauge_pipeline", "--seed", "1", "--seconds", "1",
             "--trace", "0"],
            cwd=tmp, capture_output=True, text=True, timeout=180)
    assert out.returncode != 0, out
    assert '"correct"' not in out.stdout, out.stdout


def main() -> int:
    failures = 0
    for name, fn in list(globals().items()):
        if not name.startswith("test_"):
            continue
        try:
            fn()
        except Exception:
            failures += 1
            print(f"FAIL {name}")
            traceback.print_exc()
        else:
            print(f"PASS {name}")
    return failures


if __name__ == "__main__":
    sys.exit(main())
