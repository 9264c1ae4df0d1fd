"""In-memory call tracing for the benchmark's traced run.

Every predopt module imports its collaborators with ``from .x import y``, so
a function is reached through a name in each caller's namespace, not only
through the module that defines it. ``Tracer.installed`` therefore replaces
the function under every name in every loaded predopt module that refers to
it, and puts the originals back on exit. A target that no longer exists is
recorded in ``Tracer.missing`` instead of failing, so the benchmark survives
refactors that fuse, rename or delete functions.

Spans are aggregated as they close: per span name the number of calls, the
time inside the call, and the self time, which is the call's time minus the
time of the traced calls made from inside it. Calls run on one thread and
nest, so the self times of all spans sum to the time of the outermost span.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import sys
from time import perf_counter

PACKAGE = "predopt"


class Tracer:
    def __init__(self, scopes=()):
        """`scopes` names spans that count the traced calls made inside them:
        ``scoped[(scope, name)]`` is the number of `name` calls made while
        the innermost open scope span was `scope`."""
        self.scopes = frozenset(scopes)
        self.stats = {}  # span name -> [calls, seconds, self seconds]
        self.scoped = {}
        self.missing = set()
        self._stack = []  # per open span: seconds spent in its traced children
        self._scope = None

    def wrap(self, name, fn):
        """fn, recorded as a span called `name` on every call."""
        stats = self.stats.setdefault(name, [0, 0.0, 0.0])
        stack = self._stack
        is_scope = name in self.scopes

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            children = [0.0]
            stack.append(children)
            if is_scope:
                outer, self._scope = self._scope, name
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                stack.pop()
                if is_scope:
                    self._scope = outer
                stats[0] += 1
                stats[1] += dt
                stats[2] += dt - children[0]
                if stack:
                    stack[-1][0] += dt
                if self._scope is not None:
                    key = (self._scope, name)
                    self.scoped[key] = self.scoped.get(key, 0) + 1

        return traced

    @contextlib.contextmanager
    def installed(self, targets):
        """Trace each (span name, predopt module, attribute) target while the
        block runs."""
        patched = []
        try:
            for name, module_name, attr in targets:
                try:
                    module = importlib.import_module(f"{PACKAGE}.{module_name}")
                except ImportError:
                    module = None
                original = getattr(module, attr, None)
                if not callable(original):
                    self.missing.add(f"{module_name}.{attr}")
                    continue
                wrapper = self.wrap(name, original)
                for mod_name, mod in list(sys.modules.items()):
                    if mod is None or mod_name.partition(".")[0] != PACKAGE:
                        continue
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            patched.append((mod, key, value))
                            setattr(mod, key, wrapper)
            yield self
        finally:
            for mod, key, value in reversed(patched):
                setattr(mod, key, value)
