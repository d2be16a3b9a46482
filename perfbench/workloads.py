"""The benchmark's workloads: fixed operation lists with known answers.

``witness_search`` and ``gauge_pipeline`` call ``vnoether.cli.main(argv)``
in-process (inside the guarded child), exactly as a user's command line
would, with ``--format json`` so each report can be checked step by step
and compared byte for byte with the digests recorded at the seed.
``graded_identities`` lives in ``graded.py``.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

HERE = Path(__file__).resolve().parent
MODELS = HERE / "models"

# Wall budget of an operation that decides in well under a second at the seed.
DEFAULT_BUDGET_S = 30.0
# The reach rungs (scalar QED in dim 3, the second-order model) take 117 s
# and more than 5 min at the seed.  ROADMAP.md aims at under 1 s for scalar
# QED in dim 4 with a constructive witness, so 2 s is a budget it should meet.
REACH_BUDGET_S = 2.0
# Address-space cap of every child: the sqed2 verify peaks near 150 MB RSS.
CAP_MB = 512


@dataclass
class Op:
    label: str
    execute: Callable       # (emit) -> (verdict, info), runs in the child
    expected: object        # compared with the verdict after a JSON round trip
    budget_s: float = DEFAULT_BUDGET_S


def _facts() -> dict:
    return json.loads((MODELS / "expected.json").read_text())["models"]


def expected_verdict(command: str, model: str, name: str = None) -> dict:
    """Exit code and per-step statuses that the physics of ``model`` implies."""
    facts = _facts()[model]
    identities, symmetries = facts["identities"], facts["symmetries"]
    if command == "el":
        return {"exit": 0, "steps": [["euler-lagrange", "pass"]]}
    if command == "check-identity":
        status = "pass" if identities[name] == "holds" else "fail"
        return {"exit": 0 if status == "pass" else 1,
                "steps": [[f"identity {name}", status]]}
    if command == "gauge-symmetry":
        if identities[name] != "holds":
            return {"exit": 1, "steps": [[f"identity {name}", "fail"]]}
        return {"exit": 0, "steps": [[f"identity {name}", "pass"],
                                     ["gauge-symmetry", "pass"]]}
    if command == "superpotential":
        trivial = (identities.get(name) == "holds"
                   or symmetries.get(name) == "gauge")
        return {"exit": 0 if trivial else 1,
                "steps": [["current", "pass"],
                          ["superpotential", "pass" if trivial else "fail"]]}
    if command == "verify":
        steps = [["lepage", "pass"], ["euler-lagrange", "pass"]]
        bad = False
        for ident, truth in sorted(identities.items()):
            if truth != "holds":
                steps.append([f"identity {ident}", "fail"])
                bad = True
                continue
            steps += [[f"identity {ident}", "pass"],
                      [f"variational-formula {ident}", "pass"],
                      [f"weak-conservation {ident}", "pass"],
                      [f"structural-equations {ident}", "pass"],
                      [f"superpotential {ident}", "pass"]]
        for sym in sorted(symmetries):
            steps += [[f"variational-formula {sym}", "pass"],
                      [f"symmetry {sym}", "pass"],
                      [f"weak-conservation {sym}", "pass"]]
        return {"exit": 1 if bad else 0, "steps": steps}
    raise ValueError(f"no known answer for command {command!r}")


def cli_execute(argv: list) -> Callable:
    """Child-side body of one CLI operation."""

    def execute(emit):
        from vnoether import cli
        # Stream each step as the runner records it, so a run that is killed
        # keeps the steps it finished.  Tolerate a runner without this hook.
        runner = getattr(cli, "_Runner", None)
        add = getattr(runner, "add", None)
        if add is not None:
            def streaming_add(self, name, status, payload=None):
                add(self, name, status, payload)
                emit({"kind": "step", "name": name, "status": status})
            runner.add = streaming_add
        out = io.StringIO()
        with contextlib.redirect_stdout(out), \
                contextlib.redirect_stderr(io.StringIO()):
            code = cli.main(list(argv))
        text = out.getvalue().encode("utf-8")
        steps = json.loads(text)["steps"] if text else []
        verdict = {"exit": code,
                   "steps": [[s["name"], s["status"]] for s in steps]}
        return verdict, {"json_bytes": len(text),
                         "sha256": hashlib.sha256(text).hexdigest()}

    return execute


def cli_op(command: str, model: str, name: str = None, extra=(),
           budget_s: float = DEFAULT_BUDGET_S) -> Op:
    path = (MODELS / model).relative_to(HERE.parent).as_posix()
    argv = [command, path] + ([name] if name else []) + ["--format", "json"]
    label = " ".join([command, model[:-len(".vln")]] + ([name] if name else []))
    return Op(label, cli_execute(argv + list(extra)),
              expected_verdict(command, model, name), budget_s)


def witness_search(seed: int) -> list:
    """``verify`` on the models whose cost is the weak-conservation search."""
    ops = [cli_op("verify", "sqed2.vln"),
           cli_op("verify", "maxwell3_translation.vln"),
           cli_op("verify", "sqed3.vln", budget_s=REACH_BUDGET_S),
           cli_op("verify", "second_order.vln", budget_s=REACH_BUDGET_S)]
    random.Random(seed).shuffle(ops)
    return ops


LADDER = ["scalar_shift.vln", "two_field_shift.vln", "maxwell2.vln",
          "maxwell2_minkowski.vln", "maxwell4.vln", "maxwell4_minkowski.vln",
          "maxwell6.vln", "sqed3.vln", "sqed4.vln", "su2_d3.vln",
          "su2_d4.vln", "chern_simons3.vln", "second_order.vln"]


def gauge_pipeline(seed: int) -> list:
    """The constructive route over the ladder, plus one negative control."""
    facts = _facts()
    ops = []
    for model in LADDER:
        ops.append(cli_op("el", model))
        for ident in sorted(facts[model]["identities"]):
            for command in ("check-identity", "gauge-symmetry",
                            "superpotential"):
                ops.append(cli_op(command, model, ident))
        for sym in sorted(facts[model]["symmetries"]):
            ops.append(cli_op("superpotential", model, sym))
    ops.append(cli_op("check-identity", "su2_wrong_sign.vln", "ga"))
    random.Random(seed).shuffle(ops)
    return ops
