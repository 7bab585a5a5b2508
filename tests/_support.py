"""Helpers shared by the tests: driving a transport's batch stream from a
thread, watching processes through ``/proc``, a Cα-only structure and the
configuration codes of turn rows."""

from __future__ import annotations

import os
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np

from repro.bio.structure import Atom, Chain, Residue, Structure
from repro.quantum.backend import pack_rows


def drive(stream):
    """Consume ``stream`` on a daemon thread.

    Returns the thread and the lists it fills with completions and with the
    exception that ended the stream, if any.
    """
    completions: list = []
    errors: list = []

    def consume() -> None:
        try:
            completions.extend(stream)
        except Exception as exc:
            errors.append(exc)

    thread = threading.Thread(target=consume, daemon=True)
    thread.start()
    return thread, completions, errors


def wait_until(predicate, timeout: float = 10.0) -> None:
    deadline = time.monotonic() + timeout
    while not predicate():
        assert time.monotonic() < deadline, "timed out waiting for the transport"
        time.sleep(0.01)


def stop_and_join(transport, thread, errors) -> None:
    """End an idle filequeue batch with the stop sentinel: it raises and
    withdraws its tasks on the way out."""
    transport.spool.stop_path.touch()
    thread.join(timeout=10.0)
    assert not thread.is_alive()
    assert len(errors) == 1 and "stopped by an operator" in str(errors[0])
    assert transport.spool.task_ids() == []


def children(pid: int) -> list[int]:
    """The pids whose parent is ``pid``."""
    found = []
    for stat in Path("/proc").glob("[0-9]*/stat"):
        try:
            ppid = int(stat.read_text().rsplit(")", 1)[1].split()[1])
        except (OSError, IndexError, ValueError):
            continue
        if ppid == pid:
            found.append(int(stat.parent.name))
    return found


def running(pid: int) -> bool:
    """False once ``pid`` has exited (a zombie nobody reaps counts as exited)."""
    try:
        return Path(f"/proc/{pid}/stat").read_text().rsplit(")", 1)[1].split()[0] != "Z"
    except FileNotFoundError:
        return False


def orphans_of_killed_parent(script: str, *argv: str) -> list[int]:
    """Run ``script`` in a child interpreter until it prints the pids of the
    workers it started, SIGKILL it, and return the workers still running
    10 s later (each SIGKILLed on the way out, so a failure leaks nothing)."""
    import repro

    env = dict(os.environ)
    src_dir = str(Path(repro.__file__).resolve().parents[1])
    env["PYTHONPATH"] = src_dir + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    child = subprocess.Popen(
        [sys.executable, "-c", script, *argv], env=env, stdout=subprocess.PIPE, text=True
    )
    hung = threading.Timer(120.0, child.kill)  # a child that never prints fails, not hangs
    hung.start()
    try:
        workers = [int(pid) for pid in child.stdout.readline().split()]
    finally:
        hung.cancel()
        child.kill()
        child.wait(timeout=10.0)
        child.stdout.close()
    assert len(workers) == 2
    deadline = time.monotonic() + 10.0
    while any(map(running, workers)) and time.monotonic() < deadline:
        time.sleep(0.1)
    orphans = [pid for pid in workers if running(pid)]
    for pid in orphans:
        os.kill(pid, signal.SIGKILL)
    return orphans


def ca_structure(sequence: str, ca_coords) -> Structure:
    """A Cα-only structure of ``sequence`` on an ``(L, 3)`` trace, numbered from 1."""
    residues = [
        Residue(code, i, [Atom("CA", "C", xyz)])
        for i, (code, xyz) in enumerate(zip(sequence, ca_coords), start=1)
    ]
    return Structure("FRAG", [Chain("A", residues)])


def codes_of(rows) -> np.ndarray:
    """Configuration codes of turn rows (fixed turns 0, 1 first): the inverse
    of ``FragmentEncoding.turns_from_codes``."""
    free = np.asarray(rows, dtype=np.uint8)[:, 2:]
    return pack_rows(np.stack([free >> 1, free & 1], axis=2).reshape(len(free), -1))
