"""Reachability hook: record which functions of ``src/repro`` a process runs.

``tests/reach/regenerate.py`` copies this file into a scratch directory as
``sitecustomize.py``, writes the absolute path of ``src/repro`` beside it as
``root.txt`` and puts that directory first on ``PYTHONPATH``, so every Python
process of a scenario (subprocesses, pool workers, forked fleet members)
imports it at start-up.  It installs a ``sys.setprofile`` and
``threading.setprofile`` hook that keeps the code object of every function
call, and writes the ``(file, first line, qualified name)`` of those under
``src/repro`` to ``dumps/<pid>-<ns>.txt`` beside itself:

* at interpreter exit (``atexit``);
* at ``os._exit``, which forked children and pool workers end with;
* on SIGTERM while the default action is in force (a handler the program
  installs replaces this one; one that resets SIGTERM to the default action
  gets the dumping handler instead), then dies of the signal as before.

A process killed by SIGKILL writes nothing.  Only the standard library is
used.
"""

import atexit
import os
import signal
import sys
import threading
import time

_HERE = os.path.dirname(os.path.abspath(__file__))
with open(os.path.join(_HERE, "root.txt"), encoding="utf-8") as _fh:
    _ROOT = _fh.read().strip()
_DUMPS = os.path.join(_HERE, "dumps")

_seen = set()
_add = _seen.add


def _profile(frame, event, arg):
    if event == "call":
        _add(frame.f_code)


def _dump():
    rows = {
        f"{code.co_filename}\t{code.co_firstlineno}\t{code.co_qualname}\n"
        for code in list(_seen)
        if code.co_filename.startswith(_ROOT)
    }
    if not rows:
        return
    path = os.path.join(_DUMPS, f"{os.getpid()}-{time.monotonic_ns()}.txt")
    tmp = path + ".tmp"
    with open(tmp, "w", encoding="utf-8") as fh:
        fh.writelines(sorted(rows))
    os.replace(tmp, path)


_real_exit = os._exit


def _exit(status):
    try:
        _dump()
    finally:
        _real_exit(status)


def _on_sigterm(signum, frame):
    try:
        _dump()
    finally:
        _real_signal(signum, signal.SIG_DFL)
        os.kill(os.getpid(), signum)


_real_signal = signal.signal


def _signal(signum, handler):
    if signum == signal.SIGTERM and handler == signal.SIG_DFL:
        handler = _on_sigterm
    return _real_signal(signum, handler)


os.makedirs(_DUMPS, exist_ok=True)
os._exit = _exit
signal.signal = _signal
if signal.getsignal(signal.SIGTERM) == signal.SIG_DFL:
    _real_signal(signal.SIGTERM, _on_sigterm)
atexit.register(_dump)
threading.setprofile(_profile)
sys.setprofile(_profile)
