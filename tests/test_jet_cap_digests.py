"""Pinned outcomes of ``el`` and ``verify`` under a low ``--jet-cap``.

A jet cap of 2 or 3 is low enough that some models exceed it (exit 3) while
others finish.  Which ones do depends on the jets the program actually
builds, so a change to the order in which derivatives are taken can move a
model across the cap without changing any uncapped report.
``data/jet_cap_digests.json`` holds, for every model in ``models/``,
``tests/data/`` and ``perfbench/models/``, the SHA-256 of the JSON stdout
and the exit code of both commands at caps 2 and 3.  Record it with
``python3 tests/test_jet_cap_digests.py`` (from the repository root, with
``src`` on ``PYTHONPATH``); a change that moves an outcome on purpose says
so instead of re-recording.
"""

import json
from pathlib import Path

from test_corpus_digests import ROOT, mismatches, record

DIGESTS = Path(__file__).resolve().parent / "data" / "jet_cap_digests.json"
MODEL_DIRS = ("models", "tests/data", "perfbench/models")
CAPS = (2, 3)


def jet_cap_commands():
    return [[command, f"{folder}/{path.name}", "--jet-cap", str(cap)]
            for folder in MODEL_DIRS
            for path in sorted((ROOT / folder).glob("*.vln"))
            for command in ("el", "verify")
            for cap in CAPS]


def test_low_jet_cap_outcomes_match_golden_digests():
    assert not mismatches(jet_cap_commands(), DIGESTS)


def test_the_pins_cover_both_outcomes():
    # a cap that every model passes, or none does, would pin nothing
    exits = {entry["exit"] for entry in
             json.loads(DIGESTS.read_text()).values()}
    assert {0, 3} <= exits


if __name__ == "__main__":
    record(jet_cap_commands(), DIGESTS)
