"""Run one benchmark operation in a guarded child process.

Each operation runs in a forked child with an address-space cap
(``RLIMIT_AS``) and a wall budget.  Fork is chosen over spawn on purpose:
the child starts from the parent's already-imported interpreter, so an
operation costs milliseconds of isolation instead of a fresh start-up, and
every operation starts from the same state whatever ran before it.  The
parent holds no threads, which keeps fork safe.

The child streams newline-delimited JSON messages over a pipe:
``{"kind": "step", ...}`` as the CLI records each step, then one final
``done``, ``exceeded`` or ``crashed`` message.  The parent waits on the pipe
until the budget runs out, kills the child if it must, and always reaps it
before returning, so at most one child exists at a time.
"""

from __future__ import annotations

import json
import os
import resource
import select
import signal
import sys
import time
import traceback
from dataclasses import dataclass, field
from typing import Callable, Optional

DECIDED = "decided"
WRONG = "wrong"
EXCEEDED = "exceeded"
CRASHED = "crashed"


@dataclass
class Record:
    """Outcome of one guarded operation, as seen by the parent."""

    label: str
    outcome: str
    verdict: object = None
    steps: list = field(default_factory=list)
    verdict_s: Optional[float] = None   # call to verdict, measured in the child
    wall_s: float = 0.0                 # fork to reap, measured in the parent
    maxrss_mb: float = 0.0
    budget_s: float = 0.0
    info: dict = field(default_factory=dict)
    layers: Optional[dict] = None
    reason: str = ""


def _memory_error_in(exc: BaseException) -> bool:
    seen = set()
    while exc is not None and id(exc) not in seen:
        if isinstance(exc, MemoryError):
            return True
        seen.add(id(exc))
        exc = exc.__cause__ or exc.__context__
    return False


def _child(wfd: int, execute: Callable, cap_bytes: int, tracer) -> None:
    """Body of the forked child; never returns."""
    code = 0
    try:
        out = os.fdopen(wfd, "w", buffering=1, encoding="utf-8")

        def emit(message: dict) -> None:
            out.write(json.dumps(message) + "\n")

        resource.setrlimit(resource.RLIMIT_AS, (cap_bytes, cap_bytes))
        try:
            start = time.perf_counter()
            verdict, info = execute(emit)
            elapsed = time.perf_counter() - start
        except BaseException as exc:  # the boundary that must report
            if _memory_error_in(exc):
                emit({"kind": EXCEEDED,
                      "reason": f"memory cap {cap_bytes >> 20} MB"})
            else:
                lines = traceback.format_exception_only(type(exc), exc)
                emit({"kind": CRASHED,
                      "reason": "".join(lines).strip()[-400:]})
        else:
            emit({"kind": "done", "verdict": verdict, "info": info,
                  "verdict_s": elapsed,
                  "layers": tracer.summary() if tracer is not None else None})
        out.flush()
    except BaseException:
        code = 70
    finally:
        os._exit(code)


def run_guarded(label: str, execute: Callable, expected, budget_s: float,
                cap_mb: int, tracer=None) -> Record:
    """Run ``execute(emit)`` in a child and classify the result.

    ``execute`` returns ``(verdict, info)``; the verdict is compared with
    ``expected``.  ``emit`` forwards a message to the parent at once, so
    steps reported before a kill are kept.
    """
    sys.stdout.flush()
    sys.stderr.flush()
    rfd, wfd = os.pipe()
    start = time.perf_counter()
    pid = os.fork()
    if pid == 0:
        os.close(rfd)
        if tracer is not None:
            tracer.reset()
        _child(wfd, execute, cap_mb << 20, tracer)
    os.close(wfd)
    deadline = start + budget_s
    buf = b""
    final = None
    steps = []
    killed = False
    try:
        while True:
            left = deadline - time.perf_counter()
            if left <= 0:
                os.kill(pid, signal.SIGKILL)
                killed = True
                break
            ready, _, _ = select.select([rfd], [], [], left)
            if not ready:
                continue
            chunk = os.read(rfd, 1 << 16)
            if not chunk:
                break
            buf += chunk
            *lines, buf = buf.split(b"\n")
            for line in lines:
                message = json.loads(line)
                if message["kind"] == "step":
                    steps.append([message["name"], message["status"]])
                else:
                    final = message
    except BaseException:
        os.kill(pid, signal.SIGKILL)
        raise
    finally:
        os.close(rfd)
        _, status, usage = os.wait4(pid, 0)
    wall = time.perf_counter() - start
    record = Record(label, CRASHED, steps=steps, wall_s=wall,
                    maxrss_mb=usage.ru_maxrss / 1024.0, budget_s=budget_s)
    if killed:
        record.outcome = EXCEEDED
        record.reason = f"wall budget {budget_s:g} s"
    elif final is None:
        record.reason = f"child ended without a result (status {status})"
    elif final["kind"] != "done":
        record.outcome = final["kind"]
        record.reason = final["reason"]
    else:
        record.verdict = final["verdict"]
        record.info = final["info"]
        record.verdict_s = final["verdict_s"]
        record.layers = final["layers"]
        record.outcome = DECIDED if record.verdict == expected else WRONG
    return record
