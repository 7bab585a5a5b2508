"""Write or check the reachability ledger of ``src/repro``.

The ledger (``tests/reach/ledger.json``) lists the functions of the package
that no scenario below runs, so only the tests reach them.  Every entry
carries a one-line ``why``: the test seam it serves, the CI step that
reaches it outside this replay, or the roadmap item that retires it.  A function that loses its last
caller joins the ledger, so ``--check`` fails until it is removed or
justified.

Each scenario runs its commands with ``hook.py`` installed as the
``sitecustomize`` of every Python process it starts (subprocesses, pool
workers and forked fleet members too), in a scratch directory.  The
scenarios follow the CI workflow's scenario jobs and the examples; the
network and file-queue jobs run without their SIGKILLs, which would make the
reached set depend on timing (see ``SCENARIOS``).

Usage (from the repository root)::

    python tests/reach/regenerate.py          # rewrite the ledger
    python tests/reach/regenerate.py --check  # exit 1 if stale or unjustified

Both print the entries that differ from the committed ledger.  Rewriting
keeps the ``why`` of every entry that stays; a new entry gets an empty one,
which ``--check`` rejects.  An entry marked ``"timing": true`` is reached or
not depending on how long jobs run (a file-queue job longer than the worker's
1 s lease heartbeat, a batch stalled for 15 s): it stays in the ledger either
way and ``--check`` does not compare it.
"""

from __future__ import annotations

import argparse
import ast
import json
import os
import shutil
import signal
import socket
import subprocess
import sys
import tempfile
import time
from collections.abc import Callable
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
SRC = ROOT / "src"
PACKAGE = SRC / "repro"
LEDGER = Path(__file__).with_name("ledger.json")
HOOK = Path(__file__).with_name("hook.py")
SCHEMA = "reach/v2"


# -- the functions of the package ----------------------------------------------------


def _is_stub(node: ast.FunctionDef | ast.AsyncFunctionDef) -> bool:
    """A body of only a docstring, ``...``, ``pass`` or ``raise
    NotImplementedError``: an interface declaration, never meant to run."""
    body = list(node.body)
    if body and isinstance(body[0], ast.Expr) and isinstance(body[0].value, ast.Constant):
        body = body[1:]
    for stmt in body:
        if isinstance(stmt, ast.Pass) or (
            isinstance(stmt, ast.Expr) and isinstance(stmt.value, ast.Constant)
        ):
            continue
        if isinstance(stmt, ast.Raise) and "NotImplementedError" in ast.unparse(stmt):
            continue
        return False
    return True


def functions() -> dict[tuple[str, int, str], str]:
    """``(path, first line, qualname) -> "path:qualname"`` for every non-stub
    function of the package.  The first line is the first decorator's, as in
    ``co_firstlineno``."""
    found: dict[tuple[str, int, str], str] = {}

    def visit(node: ast.AST, prefix: str, path: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                visit(child, f"{prefix}{child.name}.", path)
            elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                qualname = f"{prefix}{child.name}"
                if not _is_stub(child):
                    first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                    found[(path, first, qualname)] = f"{path}:{qualname}"
                visit(child, f"{qualname}.<locals>.", path)
            else:
                visit(child, prefix, path)

    for file in sorted(PACKAGE.rglob("*.py")):
        path = file.relative_to(SRC).as_posix()
        visit(ast.parse(file.read_text(encoding="utf-8")), "", path)
    return found


# -- running the scenarios -----------------------------------------------------------


class Scenario:
    """One scenario's scratch directory, hooked environment and processes."""

    def __init__(self, work: Path):
        self.work = work
        self.hook = work / "hook"
        self.hook.mkdir(parents=True)
        shutil.copy(HOOK, self.hook / "sitecustomize.py")
        (self.hook / "root.txt").write_text(str(PACKAGE) + os.sep)
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join([str(self.hook), str(SRC)])
        self.env["PYTHONDONTWRITEBYTECODE"] = "1"
        self.env.pop("QDOCKBANK_BENCH_FULL", None)

    def run(self, *args: str, cwd: Path | None = None, **env: str) -> str:
        """Run ``python args`` to completion; fail on a non-zero exit."""
        proc = subprocess.run(
            [sys.executable, *args], cwd=cwd or self.work, env={**self.env, **env},
            capture_output=True, text=True,
        )
        if proc.returncode != 0:
            raise RuntimeError(
                f"{' '.join(args)} exited {proc.returncode}:\n{proc.stdout[-2000:]}\n"
                f"{proc.stderr[-4000:]}"
            )
        return proc.stdout

    def start(self, *args: str) -> subprocess.Popen:
        """Start ``python args`` in the background."""
        return subprocess.Popen(
            [sys.executable, *args], cwd=self.work, env=self.env,
            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
        )

    def reached(self) -> set[tuple[str, int, str]]:
        rows = set()
        for dump in (self.hook / "dumps").glob("*.txt"):
            for line in dump.read_text(encoding="utf-8").splitlines():
                filename, first, qualname = line.split("\t")
                path = Path(filename).relative_to(SRC).as_posix()
                rows.add((path, int(first), qualname))
        return rows


def _example(name: str) -> str:
    return str(ROOT / "examples" / name)


def examples(s: Scenario) -> None:
    """CI tier1's example step."""
    for name in ("quickstart.py", "rmsd_case_study.py", "docking_case_study.py"):
        s.run(_example(name))


def bench_warm_cache(s: Scenario) -> None:
    """CI bench-warm-cache: the paper-claim benchmarks cold on a 2-process
    pool, then warm and serial; repro-cache over the result; the prune and
    rebuild of ``examples/build_dataset.py``."""
    cache = str(s.work / "bench-cache")
    pytest = ("-m", "pytest", str(ROOT / "benchmarks"), "-q", "-p", "no:cacheprovider")
    s.run(*pytest, cwd=ROOT, QDOCKBANK_BENCH_CACHE=cache, QDOCKBANK_BENCH_PROCESSES="2")
    s.run(*pytest, cwd=ROOT, QDOCKBANK_BENCH_CACHE=cache)
    s.run("-m", "repro.cli.cache", "stats", cache, "--json")
    s.run("-m", "repro.cli.cache", "ls", cache)
    s.run("-m", "repro.cli.cache", "verify", cache)
    prune = s.work / "prune-cache"
    build = (_example("build_dataset.py"), "--groups", "S", "--per-group", "2",
             "--cache-dir", str(prune))
    s.run(build[0], str(s.work / "out1"), *build[1:])
    total = json.loads(s.run("-m", "repro.cli.cache", "stats", str(prune), "--json"))["total_bytes"]
    s.run("-m", "repro.cli.cache", "prune", str(prune), "--max-bytes", str(total // 2))
    s.run(build[0], str(s.work / "out2"), *build[1:])
    s.run("-m", "repro.cli.cache", "verify", str(prune))


def perfbench(s: Scenario) -> None:
    """CI perfbench-smoke's perfbench loop, plus one traced build (the tracer
    swaps the registry's executors)."""
    for workload in ("slice-cold", "slice-warm", "slice-filequeue", "paper-fragment"):
        s.run(str(ROOT / "perfbench" / "run.py"), "--workload", workload, "--seed", "1",
              "--seconds", "1", "--trace", "0", cwd=ROOT)
    s.run(str(ROOT / "perfbench" / "run.py"), "--workload", "slice-warm", "--seed", "1",
          "--seconds", "1", "--trace", "1", cwd=ROOT)


def _sweep(s: Scenario, name: str, *extra: str) -> list[str]:
    return [_example("resumable_sweep.py"), "--session-dir", str(s.work / name / "sessions"),
            "--cache-dir", str(s.work / name / "cache"), *extra]


def session_resume(s: Scenario) -> None:
    """CI session-resume: SIGTERM a sweep after its first journalled job,
    inspect and resume it twice (the second time with progress lines);
    resume a DatasetBuilder's build sessions."""
    sessions = s.work / "sweep" / "sessions"
    proc = s.start(*_sweep(s, "sweep"))
    journal = sessions / "resumable-sweep.jsonl"
    while proc.poll() is None and not (
        journal.exists() and '"record": "job"' in journal.read_text()
    ):
        time.sleep(0.2)
    proc.send_signal(signal.SIGTERM)
    proc.wait()
    s.run("-m", "repro.cli.session", "ls", str(sessions))
    s.run("-m", "repro.cli.session", "status", str(sessions), "resumable-sweep", "--json")
    resume = ("-m", "repro.cli.session", "resume", str(sessions), "resumable-sweep")
    s.run(*resume, "--json", "--quiet")
    s.run(*resume)
    s.run("-m", "repro.cli.session", "status", str(sessions), "resumable-sweep")
    s.run("-c", """
import subprocess, sys
from pathlib import Path
from repro.config import PipelineConfig
from repro.dataset.builder import DatasetBuilder

sessions = Path("build-resume/sessions")
config = PipelineConfig.fast().with_updates(session_dir=str(sessions))
builder = DatasetBuilder(config=config, cache_dir="build-resume/cache")
builder.build(DatasetBuilder.select_fragments(groups=["S"], limit_per_group=2))
for path in sorted(sessions.glob("build-*.jsonl")):
    subprocess.run([sys.executable, "-m", "repro.cli.session", "resume", str(sessions),
                    path.stem, "--json", "--quiet"], check=True, capture_output=True)
""")


def distributed_sweep(s: Scenario) -> None:
    """CI distributed-sweep without its SIGKILL: a DatasetBuilder build on a
    forked 2-member fleet, then the sweep on a heterogeneous two-daemon
    ``repro-worker`` fleet stopped by the stop sentinel."""
    s.run("-c", """
from repro.config import PipelineConfig
from repro.dataset.builder import DatasetBuilder

fragments = DatasetBuilder.select_fragments(groups=["S"], limit_per_group=2)
fleet = PipelineConfig.fast().with_updates(
    transport="filequeue", spool_dir="fleet-spool", transport_workers=2
)
DatasetBuilder(config=fleet).build(fragments).save("fleet")
""")
    spool = s.work / "het-spool"
    spool.mkdir()
    workers = [
        s.start("-m", "repro.cli.worker", str(spool), "--worker-id", "h1", "--tags",
                "baseline_fold", "--lease-timeout", "20", "--poll-interval", "0.1"),
        s.start("-m", "repro.cli.worker", str(spool), "--worker-id", "h2",
                "--lease-timeout", "20", "--poll-interval", "0.1"),
    ]
    try:
        s.run(*_sweep(s, "het", "--transport", "filequeue", "--spool-dir", str(spool),
                      "--lease-timeout", "20", "--baseline-priority", "5",
                      "--results-json", str(s.work / "het.json")))
    finally:
        (spool / "stop").touch()
        for worker in workers:
            worker.wait()


def _free_port() -> int:
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


def network_serve(s: Scenario) -> None:
    """CI network-serve without its SIGKILL: one client sweep on a
    ``repro-serve`` daemon, the server tier's stats, then a warm client whose
    cache stack ends in the server's tier and its session status; a client
    with that stack and another seed writes through both tiers.  SIGTERM
    stops the server."""
    port = _free_port()
    server = s.start("-m", "repro.cli.serve", "--port", str(port), "--workers", "2",
                     "--max-inflight", "2", "--cache-dir", str(s.work / "server-cache"))
    try:
        for _ in range(300):
            try:
                socket.create_connection(("127.0.0.1", port), 1).close()
                break
            except OSError:
                time.sleep(0.1)
        net = ("--transport", "network", "--serve-port", str(port))
        s.run(*_sweep(s, "c1", "--session-id", "net-c1", *net))
        s.run("-m", "repro.cli.session", "status", str(s.work / "c1" / "sessions"), "net-c1")
        s.run("-m", "repro.cli.cache", "stats", f"remote:127.0.0.1:{port}", "--json")
        remote = ("--cache-remote", f"127.0.0.1:{port}")
        s.run(*_sweep(s, "c3", "--session-id", "net-c3", *net, *remote))
        s.run("-m", "repro.cli.session", "status", str(s.work / "c3" / "sessions"), "net-c3")
        s.run(*_sweep(s, "c4", "--session-id", "net-c4", "--seed", "7", *net, *remote))
    finally:
        server.send_signal(signal.SIGTERM)
        server.wait()


#: Scenario name -> runner.  Names follow the CI jobs they replay.
SCENARIOS: dict[str, Callable[[Scenario], None]] = {
    "examples": examples,
    "bench-warm-cache": bench_warm_cache,
    "perfbench": perfbench,
    "session-resume": session_resume,
    "distributed-sweep": distributed_sweep,
    "network-serve": network_serve,
}


def replay() -> dict[str, set[tuple[str, int, str]]]:
    """Run every scenario; the reached ``(path, first line, qualname)`` set of each."""
    reached = {}
    with tempfile.TemporaryDirectory(prefix="reach-") as tmp:
        for name, runner in SCENARIOS.items():
            start = time.perf_counter()
            scenario = Scenario(Path(tmp) / name)
            runner(scenario)
            reached[name] = scenario.reached()
            print(f"{name}: {time.perf_counter() - start:.0f} s", flush=True)
    return reached


# -- the ledger ------------------------------------------------------------------------


def entries(reached: dict[str, set[tuple[str, int, str]]]) -> set[str]:
    """The ``"path:qualname"`` of every function no scenario reaches."""
    reached_any = set().union(*reached.values())
    return {name for key, name in functions().items() if key not in reached_any}


def load() -> dict:
    return json.loads(LEDGER.read_text())


def ledger(found: set[str], old: dict) -> dict:
    """The new ledger: the ``why`` of every entry that stays is kept, and a
    ``timing`` entry of a function that still exists stays even when reached."""
    before = {e["function"]: e for e in old.get("entries", [])}
    existing = set(functions().values())
    timing = {name for name, e in before.items() if e.get("timing") and name in existing}
    rows = []
    for name in sorted(found | timing):
        row = {"function": name, "why": before.get(name, {}).get("why", "")}
        if name in timing:
            row["timing"] = True
        rows.append(row)
    return {
        "schema": SCHEMA,
        "scenarios": {name: " ".join(runner.__doc__.split()) for name, runner in SCENARIOS.items()},
        "entries": rows,
    }


def diff(old: dict, new: dict) -> list[str]:
    """Entries added or dropped, and entries without a ``why`` (``timing``
    entries are not compared)."""
    before = {e["function"] for e in old.get("entries", []) if not e.get("timing")}
    after = {e["function"] for e in new["entries"] if not e.get("timing")}
    lines = []
    for name in sorted(before | after):
        if name not in after:
            lines.append(f"- {name} (now reached)")
        elif name not in before:
            lines.append(f"+ {name} (only the tests reach it)")
    lines += [f"? {e['function']} has no why" for e in new["entries"] if not e["why"]]
    return lines


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--check", action="store_true",
                        help="exit 1 when the ledger is stale or an entry has no why")
    args = parser.parse_args(argv)
    start = time.perf_counter()
    reached = replay()
    old = load() if LEDGER.exists() else {"entries": []}
    new = ledger(entries(reached), old)
    lines = diff(old, new)
    total = len(functions())
    print(f"{total - len(new['entries'])} of {total} functions reached outside the tests; "
          f"replay took {time.perf_counter() - start:.0f} s")
    print("\n".join(lines) if lines else "ledger is current")
    if args.check:
        return 1 if lines else 0
    if new != old:
        LEDGER.write_text(json.dumps(new, indent=1) + "\n")
        print(f"wrote {LEDGER}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
