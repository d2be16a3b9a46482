"""Seeded mutation fuzz of the model language.

``data/model_fuzz.json`` holds a snapshot of source texts (``models/*.vln``
and the inline model sources of ``tests/test_model.py``), a seed, and the
outcome of every mutant drawn from them: the SHA-256 prefix of
``helpers.print_elaborated`` when the mutant parses and elaborates, else the
rejection class (``ParseError`` or ``ElaborationError``).  A mutant deletes
or inserts a character, renames an index letter, duplicates a span or
shuffles the lines, once or twice.  The test re-draws the mutants, checks
that every outcome is unchanged, that no other exception escapes, and that
each ``ParseError`` message starts with ``line:col``.

A change that alters an outcome on purpose re-records the outcomes with
``python3 tests/test_model_fuzz.py`` (from the repository root, with
``src`` on ``PYTHONPATH``) and says so.  The snapshot is kept when the data
file exists; delete the file to snapshot the current sources again.
"""

import ast
import hashlib
import json
import random
import re
import sys
from pathlib import Path

from vnoether import load_model
from vnoether.model import ElaborationError, ParseError

from helpers import print_elaborated

ROOT = Path(__file__).resolve().parent.parent
DATA = Path(__file__).resolve().parent / "data" / "model_fuzz.json"
SEED = 20260601
COUNT = 2000
INSERTS = "[](),*+-^/<:;=mun01 \n"
LETTERS = ("mu", "nu", "rho", "x", "a")
# Redraw a mutant whose integer literals exceed this, so no mutant asks for
# a huge dimension or power.
MAX_LITERAL = 6


def snapshot_sources():
    """The base texts, keyed by path or test-file line: every model file and
    every string constant with a newline in ``tests/test_model.py``."""
    out = {f"models/{p.name}": p.read_text()
           for p in sorted((ROOT / "models").glob("*.vln"))}
    tree = ast.parse((ROOT / "tests" / "test_model.py").read_text())
    for node in ast.walk(tree):
        if (isinstance(node, ast.Constant) and isinstance(node.value, str)
                and "\n" in node.value):
            out.setdefault(f"test_model.py:{node.lineno}", node.value)
    return out


def _mutate_once(rng, text):
    # renames are drawn twice as often: most other mutants stop at the parser
    op = rng.choice(("delete", "insert", "rename", "rename", "duplicate",
                     "shuffle"))
    if op == "delete" and text:
        i = rng.randrange(len(text))
        return text[:i] + text[i + 1:]
    if op == "insert":
        i = rng.randrange(len(text) + 1)
        return text[:i] + rng.choice(INSERTS) + text[i:]
    if op == "rename":
        spots = list(re.finditer(r"(?<=[\[,])\s*([A-Za-z_]\w*)", text))
        if not spots:
            return text
        m = rng.choice(spots)
        return text[:m.start(1)] + rng.choice(LETTERS) + text[m.end(1):]
    if op == "duplicate" and text:
        i = rng.randrange(len(text))
        j = min(len(text), i + rng.randint(1, 12))
        return text[:j] + text[i:j] + text[j:]
    lines = text.split("\n")
    rng.shuffle(lines)
    return "\n".join(lines)


def mutants(sources, seed=SEED, count=COUNT):
    rng = random.Random(seed)
    bases = [sources[k] for k in sorted(sources)]
    out = []
    for n in range(count):
        base = bases[n % len(bases)]
        while True:
            text = base
            for _ in range(rng.randint(1, 2)):
                text = _mutate_once(rng, text)
            if all(int(d) <= MAX_LITERAL for d in re.findall(r"\d+", text)):
                break
        out.append(text)
    return out


def outcome(text):
    """The elaboration digest of ``text`` or its rejection class; any other
    exception propagates."""
    try:
        model = load_model(text)
    except ParseError as exc:
        assert re.match(r"\d+:\d+: ", str(exc)), str(exc)
        return "ParseError"
    except ElaborationError:
        return "ElaborationError"
    return hashlib.sha256(print_elaborated(model).encode()).hexdigest()[:16]


def test_mutant_outcomes_are_unchanged():
    data = json.loads(DATA.read_text())
    texts = mutants(data["sources"], data["seed"], len(data["outcomes"]))
    changed = [(n, text) for n, (text, want) in
               enumerate(zip(texts, data["outcomes"]))
               if outcome(text) != want]
    assert not changed, changed[:3]


if __name__ == "__main__":
    sources = (json.loads(DATA.read_text())["sources"] if DATA.exists()
               else snapshot_sources())
    record = {"seed": SEED, "sources": sources,
              "outcomes": [outcome(t) for t in mutants(sources)]}
    DATA.parent.mkdir(exist_ok=True)
    DATA.write_text(json.dumps(record, indent=0, sort_keys=True) + "\n")
    print(f"{COUNT} outcomes written to {DATA.relative_to(ROOT)}",
          file=sys.stderr)
