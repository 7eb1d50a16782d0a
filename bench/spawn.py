"""Spawning the workload process (``worker.py``) in a fresh interpreter
that imports the workbench from ``src/`` of the same checkout."""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"


def env() -> dict:
    out = dict(os.environ)
    out["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([out["PYTHONPATH"]] if out.get("PYTHONPATH") else []))
    return out


def start(mode: str, seconds: float, payload: bytes):
    """Spawn the workload process, hand it the requests (one line of JSON)
    and wait until it reports ready; returns the process and the set-up
    time in seconds.  Its standard input stays open for ``resume``."""
    t0 = perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(BENCH / "worker.py"), "--mode", mode,
         "--seconds", repr(seconds)],
        stdin=subprocess.PIPE, stdout=subprocess.PIPE, env=env(), cwd=ROOT)
    try:
        proc.stdin.write(payload + b"\n")
        proc.stdin.flush()
        line = proc.stdout.readline()
        ready = perf_counter() - t0
        if line.strip() != b"ready":
            raise RuntimeError(f"workload process did not start: {line!r}")
    except BaseException:
        stop(proc)
        raise
    return proc, ready


def stop(proc) -> None:
    proc.kill()
    proc.wait()


def paused(proc) -> bool:
    """Wait for the workload process's next line: True when it paused (it
    waits for ``resume``), False when it printed its record."""
    line = proc.stdout.readline()
    if line == b"pause\n":
        return True
    proc.record = line
    return False


def resume(proc) -> None:
    proc.stdin.write(b"go\n")
    proc.stdin.flush()


def finish(proc) -> dict:
    """Wait for the workload process and return the record it printed."""
    proc.stdin.close()
    with proc.stdout:
        out = getattr(proc, "record", b"") + proc.stdout.read()
    if proc.wait(timeout=120) != 0:
        raise RuntimeError(f"workload process exited with {proc.returncode}")
    return json.loads(out) if out.strip() else {}


def setup_seconds(payload: bytes) -> float:
    """Time from spawning a fresh interpreter to its first request being
    ready: interpreter start, imports, loading the requests."""
    proc, ready = start("setup", 0.0, payload)
    finish(proc)
    return ready
