"""Outside-in layer tracer: wraps the package's public callables for one build.

The benchmark measures layers without touching source modules.  While a
:class:`Tracer` is installed, every public module-level function and every
public method of every public class in the traced layers (``repro.lattice``,
``repro.bio``, ``repro.vqe``, ``repro.quantum``, ``repro.folding``,
``repro.docking``, ``repro.engine`` and ``repro.dataset``) is replaced by a
timing wrapper, as are the engine's registered job executors and a few named
private hot spots (:data:`EXTRA_TARGETS`).  Each wrapper records, per span
name, the call count, the total (inclusive) time and the self time (total
minus the time of traced callees).  :meth:`Tracer.uninstall` puts every
original back, so untraced builds in the same process run unwrapped code.

Only the thread that installed the tracer is traced; calls from other threads
go straight to the original.  A function that recurses into itself adds its
total time once, at the outermost call.  A generator function's span covers
only the creation of the generator; the work of iterating it is charged to
the span of whoever consumes it.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import pkgutil
import sys
import threading
import time
from typing import Any, Callable

#: Sub-packages of ``repro`` whose public callables are wrapped.
LAYERS = ("lattice", "bio", "vqe", "quantum", "folding", "docking", "engine", "dataset")

#: The benchmark's own root span; these are not wrapped so that their callees
#: are the top-level spans ``trace.coverage`` is computed from.
ROOT_CALLABLES = {
    ("repro.dataset.builder", "DatasetBuilder", "build"),
    ("repro.dataset.batch", "BatchProcessor", "build_entries"),
}

#: Private methods traced by name because a per-layer metric needs them.
EXTRA_TARGETS = (
    ("repro.vqe.vqe", "VQE", "_objective"),
)

ROOT = "build"


class Tracer:
    """Span statistics for the calls made while installed.

    ``stats`` maps a span name (the callable's module path without the
    ``repro.`` prefix, then its qualified name) to ``[calls, total_s,
    self_s]``.  ``top_level_s`` is the summed total of spans that ran with no
    traced caller.  ``hooks`` maps a span name to a callback receiving the
    call's ``(args, kwargs)`` before it runs, for counters that need
    arguments (poses per scoring batch, distinct reference inputs).
    """

    def __init__(self, hooks: dict[str, Callable[[tuple, dict], None]] | None = None):
        self.stats: dict[str, list[float]] = {}
        self.top_level_s = 0.0
        self.hooks = dict(hooks or {})
        self._stack: list[list[float]] = []
        self._depth: dict[str, int] = {}
        #: (owner, attribute, original); the attribute is ("executor", kind)
        #: for a job executor replaced in the engine's registry.
        self._patches: list[tuple[Any, Any, Any]] = []
        self._thread = threading.get_ident()

    # -- wrapping ----------------------------------------------------------------

    def _wrap(self, name: str, fn: Callable) -> Callable:
        stats = self.stats
        stack = self._stack
        depth = self._depth
        hook = self.hooks.get(name)
        thread = self._thread
        get_ident = threading.get_ident
        clock = time.perf_counter
        record = stats.setdefault(name, [0, 0.0, 0.0])
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if get_ident() != thread:
                return fn(*args, **kwargs)
            if hook is not None:
                hook(args, kwargs)
            frame = [0.0]
            stack.append(frame)
            outer = depth.get(name, 0)
            depth[name] = outer + 1
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                depth[name] = outer
                stack.pop()
                record[0] += 1
                if not outer:
                    record[1] += elapsed
                record[2] += elapsed - frame[0]
                if stack:
                    stack[-1][0] += elapsed
                else:
                    tracer.top_level_s += elapsed

        return traced

    def _patch(self, owner: Any, attr: str, value: Any) -> None:
        # vars() keeps a class attribute's raw descriptor (staticmethod,
        # classmethod) so uninstall restores it exactly.
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    # -- install / uninstall -------------------------------------------------------

    def install(self) -> "Tracer":
        """Wrap every traced callable; returns ``self``."""
        modules = _layer_modules()
        # Executors first, while the registry's own functions are unwrapped.
        self._wrap_executors()
        originals: dict[int, Callable] = {}
        classes: set[int] = set()
        for module in modules:
            short = module.__name__[len("repro."):]
            for attr, value in list(vars(module).items()):
                if attr.startswith("_") or getattr(value, "__module__", None) != module.__name__:
                    continue
                # Aliases (``ResultCache = LocalDirTier``) are wrapped once.
                if inspect.isfunction(value) and id(value) not in originals:
                    originals[id(value)] = self._wrap(f"{short}.{value.__name__}", value)
                elif inspect.isclass(value) and id(value) not in classes:
                    classes.add(id(value))
                    self._wrap_class(module.__name__, short, value)
        for module_name, cls_name, method in EXTRA_TARGETS:
            cls = getattr(sys.modules[module_name], cls_name)
            name = f"{module_name[len('repro.'):]}.{cls_name}.{method}"
            self._patch(cls, method, self._wrap(name, cls.__dict__[method]))
        # Rebind every module attribute that refers to a wrapped function, so
        # ``from x import f`` bindings in other modules see the wrapper too.
        for module in [
            m for n, m in sorted(sys.modules.items()) if n.startswith("repro.") and m is not None
        ]:
            for attr, value in list(vars(module).items()):
                wrapper = originals.get(id(value)) if inspect.isfunction(value) else None
                if wrapper is not None:
                    self._patch(module, attr, wrapper)
        return self

    def _wrap_class(self, module_name: str, short: str, cls: type) -> None:
        if issubclass(cls, BaseException) or getattr(cls, "_is_protocol", False):
            return
        for attr, raw in list(vars(cls).items()):
            if attr.startswith("_") or (module_name, cls.__name__, attr) in ROOT_CALLABLES:
                continue
            name = f"{short}.{cls.__name__}.{attr}"
            if isinstance(raw, staticmethod):
                self._patch(cls, attr, staticmethod(self._wrap(name, raw.__func__)))
            elif isinstance(raw, classmethod):
                self._patch(cls, attr, classmethod(self._wrap(name, raw.__func__)))
            elif inspect.isfunction(raw):
                self._patch(cls, attr, self._wrap(name, raw))

    def _wrap_executors(self) -> None:
        from repro.engine import registry

        for kind in registry.executor_kinds():
            original = registry.executor_for(kind)
            self._patches.append((registry, ("executor", kind), original))
            registry.register_executor(
                kind, self._wrap(f"engine.execute.{kind}", original), overwrite=True
            )

    def uninstall(self) -> None:
        """Restore every original callable (idempotent)."""
        from repro.engine import registry

        while self._patches:
            owner, attr, original = self._patches.pop()
            if isinstance(attr, tuple):
                registry.register_executor(attr[1], original, overwrite=True)
            else:
                setattr(owner, attr, original)

    def __enter__(self) -> "Tracer":
        return self.install()

    def __exit__(self, *exc_info: Any) -> None:
        self.uninstall()

    # -- reading -------------------------------------------------------------------

    def records(self) -> list[dict[str, Any]]:
        """Raw per-span records of every span that ran, busiest first."""
        rows = [
            {"span": name, "calls": int(calls), "total_s": total, "self_s": self_s}
            for name, (calls, total, self_s) in self.stats.items()
            if calls
        ]
        rows.sort(key=lambda row: (-row["total_s"], row["span"]))
        return rows


def _layer_modules() -> list[Any]:
    """Import and return every module of the traced layers, sorted by name."""
    import repro

    for layer in LAYERS:
        package = importlib.import_module(f"repro.{layer}")
        for info in pkgutil.walk_packages(package.__path__, prefix=f"repro.{layer}."):
            importlib.import_module(info.name)
    prefixes = tuple(f"repro.{layer}" for layer in LAYERS)
    return [
        module
        for name, module in sorted(sys.modules.items())
        if module is not None
        and (name in prefixes or name.startswith(tuple(p + "." for p in prefixes)))
        and getattr(module, "__file__", None)
        and repro.__path__[0] in module.__file__
    ]
