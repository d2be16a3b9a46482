"""Golden digests of the CLI's reports on the model corpus, in both formats.

For every command over ``models/*.vln`` -- ``el`` and ``verify`` per model,
``check-identity``, ``gauge-symmetry`` and ``superpotential`` per identity,
``superpotential`` per symmetry -- and for ``verify`` and every
``superpotential`` run over the higher-order ghost models of
``DATA_MODELS`` in ``tests/data/``, ``data/corpus_digests.json`` holds the
SHA-256 of the ``--format json`` stdout and the exit code, and
``data/corpus_text_digests.json`` the same for ``--format text``.  The tests
re-run each command in-process and compare, so a change that must not alter
any output is checked byte for byte.  A change that alters a report on
purpose re-records both files with ``python3 tests/test_corpus_digests.py``
(from the repository root, with ``src`` on ``PYTHONPATH``) and says so.
"""

import contextlib
import hashlib
import io
import json
import os
import sys
from pathlib import Path

from vnoether import cli
from vnoether.model import parse

ROOT = Path(__file__).resolve().parent.parent
DIGESTS = Path(__file__).resolve().parent / "data" / "corpus_digests.json"
TEXT_DIGESTS = DIGESTS.with_name("corpus_text_digests.json")
# a mixed ghost jet d[0,1] with pr u(L) and U nonzero, and its flipped
# control; a level-2 gauge symmetry of a two-slot field; one symmetry that
# carries two ghosts; the flipped controls of the U(1) odd-matter models
DATA_MODELS = ("stueck_mixed", "stueck_mixed_flipped", "tensor_gauge2",
               "two_ghosts", "u1_odd2_flipped", "u1_odd3_flipped")


def corpus_commands():
    """Every command of the corpus sweep, as argv lists with paths
    relative to the repository root (the report echoes the model path)."""
    out = []
    for path in sorted((ROOT / "models").glob("*.vln")):
        model = f"models/{path.name}"
        declared = parse(path.read_text())
        out.append(["el", model])
        out.append(["verify", model])
        for name in sorted(declared.identities):
            for command in ("check-identity", "gauge-symmetry",
                            "superpotential"):
                out.append([command, model, name])
        for name in sorted(declared.symmetries):
            out.append(["superpotential", model, name])
    for stem in DATA_MODELS:
        model = f"tests/data/{stem}.vln"
        declared = parse((ROOT / model).read_text())
        out.append(["verify", model])
        for name in sorted({*declared.identities, *declared.symmetries}):
            out.append(["superpotential", model, name])
    return out


def run_command(argv, fmt="json"):
    """Run one command in-process from the repository root with
    ``--format fmt``; returns the SHA-256 of its stdout and its exit
    code."""
    stdout = io.StringIO()
    cwd = os.getcwd()
    os.chdir(ROOT)
    try:
        with contextlib.redirect_stdout(stdout), \
                contextlib.redirect_stderr(io.StringIO()):
            code = cli.main([*argv, "--format", fmt])
    finally:
        os.chdir(cwd)
    digest = hashlib.sha256(stdout.getvalue().encode()).hexdigest()
    return {"sha256": digest, "exit": code}


def mismatches(commands, digests: Path, fmt="json"):
    """The commands whose ``--format fmt`` outcome differs from the golden
    file ``digests``, which must pin exactly these commands."""
    golden = json.loads(digests.read_text())
    assert sorted(" ".join(argv) for argv in commands) == sorted(golden)
    return [" ".join(argv) for argv in commands
            if run_command(argv, fmt) != golden[" ".join(argv)]]


def record(commands, digests: Path, fmt="json"):
    """Run ``commands`` with ``--format fmt`` and write their outcomes to
    ``digests``."""
    table = {" ".join(argv): run_command(argv, fmt) for argv in commands}
    digests.parent.mkdir(exist_ok=True)
    digests.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
    print(f"{len(table)} digests written to {digests.relative_to(ROOT)}",
          file=sys.stderr)


def test_corpus_reports_match_golden_digests():
    assert not mismatches(corpus_commands(), DIGESTS)


def test_corpus_text_reports_match_golden_digests():
    assert not mismatches(corpus_commands(), TEXT_DIGESTS, "text")


if __name__ == "__main__":
    record(corpus_commands(), DIGESTS)
    record(corpus_commands(), TEXT_DIGESTS, "text")
