"""Metamorphic relations of ``verify``: a change to a model whose effect on
the report is known exactly.

- Adding a total divergence ``d[mu](K[mu])`` to the Lagrangian leaves the
  Euler-Lagrange expressions, hence the ``euler-lagrange`` payload, byte
  for byte, and every step's name and status and the exit code unchanged.
- Renaming every field, ghost, identity and symmetry maps the report onto
  the original by the same renaming.  The renaming puts one prefix in
  front of each name, so it keeps their order and every sorted list of
  the report keeps its order too.
"""

import contextlib
import io
import json
import os
import re

import pytest

from vnoether import cli, load_model
from vnoether.model import parse

from test_corpus_digests import ROOT

# model -> a current K[mu] of that model's fields
DIVERGENCES = {
    "models/maxwell4.vln": "A[mu]*A[nu]*A[nu]",
    "models/scalar_shift.vln": "phi*psi*d[mu](phi)",
    "tests/data/ghost2c.vln": "phi*d[mu](chi)*psi",
    "models/u1_odd2.vln": "A[mu]*p*q",
}
PREFIX = "Q"


def verify(text: str, tmp_path, name: str) -> tuple:
    """``verify --format json`` of the model ``text``, written to
    ``tmp_path/name/model.vln`` and run from there, so that the report's
    model path is ``model.vln`` for every variant: (exit code, stdout)."""
    folder = tmp_path / name
    folder.mkdir()
    (folder / "model.vln").write_text(text, encoding="utf-8")
    out = io.StringIO()
    cwd = os.getcwd()
    os.chdir(folder)
    try:
        with contextlib.redirect_stdout(out), \
                contextlib.redirect_stderr(io.StringIO()):
            code = cli.main(["verify", "model.vln", "--format", "json"])
    finally:
        os.chdir(cwd)
    return code, out.getvalue()


def add_divergence(text: str, current: str) -> str:
    """``text`` with ``let K[mu] = current`` before its Lagrangian line and
    ``+ d[mu](K[mu])`` at the end of it."""
    lines = text.splitlines()
    at = next(i for i, line in enumerate(lines)
              if line.startswith("lagrangian "))
    lines[at:at + 1] = [f"let K[mu] = {current}",
                        lines[at] + " + d[mu](K[mu])"]
    return "\n".join(lines) + "\n"


def rename(text: str) -> str:
    """``text`` with ``PREFIX`` in front of every field, ghost, identity
    and symmetry name."""
    source = parse(text)
    names = ([name for name, *_ in source.fields]
             + [name for name, *_ in source.ghosts]
             + list(source.identities) + list(source.symmetries))
    pattern = re.compile(r"(?<![\w])(" + "|".join(map(re.escape, names))
                         + r")(?![\w])")
    return pattern.sub(PREFIX + r"\1", text)


def steps(report: str) -> list:
    return [(step["name"], step["status"])
            for step in json.loads(report)["steps"]]


def el_payload(report: str) -> str:
    [step] = [step for step in json.loads(report)["steps"]
              if step["name"] == "euler-lagrange"]
    return json.dumps(step["payload"], sort_keys=True, indent=2)


@pytest.mark.parametrize("model", sorted(DIVERGENCES))
def test_a_total_divergence_changes_no_verdict(model, tmp_path):
    text = (ROOT / model).read_text(encoding="utf-8")
    moved = add_divergence(text, DIVERGENCES[model])
    # the divergence is really there: the densities differ
    assert load_model(moved).lagrangian.density \
        != load_model(text).lagrangian.density
    code, report = verify(text, tmp_path, "original")
    moved_code, moved_report = verify(moved, tmp_path, "moved")
    assert moved_code == code == 0
    assert el_payload(moved_report) == el_payload(report)
    assert steps(moved_report) == steps(report)


@pytest.mark.parametrize("model", sorted(DIVERGENCES))
def test_renaming_maps_the_report_by_the_same_renaming(model, tmp_path):
    text = (ROOT / model).read_text(encoding="utf-8")
    renamed = rename(text)
    assert renamed != text
    code, report = verify(text, tmp_path, "original")
    renamed_code, renamed_report = verify(renamed, tmp_path, "renamed")
    # the prefix occurs in the renamed report only where a name was
    # renamed, so dropping it must give the original report back
    assert PREFIX not in report
    assert PREFIX in renamed_report
    assert renamed_code == code == 0
    assert renamed_report.replace(PREFIX, "") == report
