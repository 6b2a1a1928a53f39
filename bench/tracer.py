"""Outside-in tracer: wraps a package's public module functions in place.

Every public function defined in a traced module is replaced, as a module
attribute, by a wrapper that records calls, inclusive time, self time
(inclusive minus the inclusive time of wrapped callees) and optional
per-call item counts. Calls that go through the module attribute are seen,
including a module's calls to its own functions; calls through names
imported with `from x import f` are not. `restore()` puts the originals back.

Functions of the entry module (short name "cli") are traced but do not
count as coverage: `covered_s` sums the outermost calls into the other
modules, so time the CLI spends outside every library call stays
unattributed.
"""

from __future__ import annotations

import functools
import inspect
import time
from collections import defaultdict

ENTRY_MODULE = "cli"


class Stat:
    __slots__ = ("calls", "incl_s", "self_s", "counts")

    def __init__(self):
        self.calls = 0
        self.incl_s = 0.0
        self.self_s = 0.0
        self.counts = defaultdict(int)


class Tracer:
    def __init__(self, modules, counters=None):
        """`modules` maps a short name to a module; `counters` maps
        "mod.func" to a function (args, kwargs, result) -> {counter: amount}."""
        self.modules = dict(modules)
        self.counters = dict(counters or {})
        self.stats: dict[str, Stat] = defaultdict(Stat)
        self.covered_s = 0.0
        self._stack: list[list[float]] = []
        self._library_depth = 0
        self._originals: list[tuple[object, str, object]] = []

    def install(self) -> None:
        for short, mod in self.modules.items():
            for name, fn in list(vars(mod).items()):
                key = f"{short}.{name}"
                if (name.startswith("_") or not inspect.isfunction(fn)
                        or fn.__module__ != mod.__name__):
                    continue
                self._originals.append((mod, name, fn))
                setattr(mod, name, self._wrap(key, fn, short == ENTRY_MODULE))

    def restore(self) -> None:
        while self._originals:
            mod, name, fn = self._originals.pop()
            setattr(mod, name, fn)

    def take(self) -> tuple[dict[str, Stat], float]:
        """Return the stats and coverage recorded so far, and start afresh."""
        taken = (dict(self.stats), self.covered_s)
        self.stats = defaultdict(Stat)
        self.covered_s = 0.0
        return taken

    def _wrap(self, key, fn, is_entry):
        count = self.counters.get(key)
        stack = self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            outermost = not is_entry and self._library_depth == 0
            if not is_entry:
                self._library_depth += 1
            frame = [0.0]
            stack.append(frame)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = time.perf_counter() - t0
                stack.pop()
                if stack:
                    stack[-1][0] += dt
                if not is_entry:
                    self._library_depth -= 1
                if outermost:
                    self.covered_s += dt
                st = self.stats[key]
                st.calls += 1
                st.incl_s += dt
                st.self_s += dt - frame[0]
            if count is not None:
                for name, amount in count(args, kwargs, result).items():
                    st.counts[name] += amount
            return result

        return wrapper
