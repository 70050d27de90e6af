"""Span tracer built from the benchmark's own files.

``Tracer.install`` wraps every public function of the ``toughlab`` modules and
rebinds the wrapper in every ``toughlab`` module that holds the function by
name (``from .graph import count_components`` in ``toughness`` gets the
wrapper too), so each call is attributed to the caller that made it.

Coarse calls record one span each: name, start, end and parent.  Hot
functions, the ones called once per cut (``HOT``), record no span of their
own; their calls and self time are aggregated per name into every span open
while they ran.  Self time, a call's duration minus the time of the wrapped
calls it made, is kept per function for both kinds.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from dataclasses import dataclass, field

# Called once per enumerated cut or per mixing pair; one span per call would
# cost more than the call itself.
HOT = frozenset({
    "count_components", "components", "e_between", "e_within", "regularity",
    "is_connected", "mixing_check", "mixing_check_single", "toughness_of_cut",
})


@dataclass
class Span:
    name: str
    start: float
    parent: int  # index into Tracer.spans, -1 for a top-level span
    end: float = 0.0
    # hot function name -> [calls, self seconds, calls returning >= 2], for
    # the hot calls made while this span was open
    leaves: dict = field(default_factory=dict)


class Stat:
    __slots__ = ("calls", "self_s", "useful")

    def __init__(self) -> None:
        self.calls = 0
        self.self_s = 0.0
        self.useful = 0


class _Frame:
    __slots__ = ("child", "span")

    def __init__(self, span: int) -> None:
        self.child = 0.0
        self.span = span


class Tracer:
    """Records calls into every already-imported submodule of ``package``."""

    def __init__(self, package) -> None:
        self.package = package
        prefix = package.__name__ + "."
        self.modules = [m for name, m in sorted(sys.modules.items())
                        if name.startswith(prefix)]
        self._saved: list[tuple[object, str, object]] = []
        self.spans: list[Span] = []
        self.stats: dict[tuple[str, str], Stat] = {}
        self.hooks_data: dict[str, float] = {}
        self._stack = [_Frame(-1)]
        self._hot: dict[str, Stat] = {}

    def reset(self) -> None:
        """Forget what earlier calls recorded; the wrappers stay installed."""
        self.spans.clear()
        for stat in self.stats.values():
            stat.calls, stat.self_s, stat.useful = 0, 0.0, 0
        self.hooks_data.clear()
        self._stack[:] = [_Frame(-1)]

    # -- installation -------------------------------------------------------

    def install(self, hooks: dict) -> None:
        originals = {}
        for module in self.modules:
            for name, obj in vars(module).items():
                if (inspect.isfunction(obj) and not name.startswith("_")
                        and obj.__module__ == module.__name__):
                    originals[id(obj)] = self._wrap(obj, hooks.get(name))
        for module in [self.package, *self.modules]:
            for name, obj in list(vars(module).items()):
                wrapper = originals.get(id(obj))
                if wrapper is not None:
                    self._saved.append((module, name, obj))
                    setattr(module, name, wrapper)

    def uninstall(self) -> None:
        for module, name, obj in reversed(self._saved):
            setattr(module, name, obj)
        self._saved.clear()

    def _wrap(self, fn, hook):
        name = fn.__name__
        module = fn.__module__.rsplit(".", 1)[-1]
        stat = self.stats.setdefault((module, name), Stat())
        frames, spans, data = self._stack, self.spans, self.hooks_data
        clock = time.perf_counter

        if name in HOT:
            self._hot[name] = stat
            # The useful share of the cut scan: cuts that actually disconnect.
            count_useful = name == "count_components"

            # No frame of its own: wrapped callees add their time to the
            # caller's frame, and this call's duration replaces it there.
            @functools.wraps(fn)
            def hot(*args, **kwargs):
                parent = frames[-1]
                before = parent.child
                start = clock()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    dur = clock() - start
                    stat.calls += 1
                    stat.self_s += dur - (parent.child - before)
                    parent.child = before + dur
                if count_useful and result >= 2:
                    stat.useful += 1
                if hook is not None:
                    hook(data, args, kwargs, result)
                return result

            return hot

        hot_stats = self._hot

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = frames[-1]
            frame = _Frame(len(spans))
            span = Span(name, 0.0, parent.span)
            spans.append(span)
            frames.append(frame)
            marks = [(n, h, h.calls, h.self_s, h.useful) for n, h in hot_stats.items()]
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                frames.pop()
                parent.child += end - start
                stat.calls += 1
                stat.self_s += end - start - frame.child
                span.start, span.end = start, end
                for hot_name, h, calls, self_s, useful in marks:
                    if h.calls != calls:
                        span.leaves[hot_name] = [h.calls - calls, h.self_s - self_s,
                                                 h.useful - useful]
            if hook is not None:
                hook(data, args, kwargs, result)
            return result

        return wrapper

    # -- queries ------------------------------------------------------------

    def stat(self, module: str, name: str) -> Stat:
        return self.stats.get((module, name), Stat())

    def module_self_s(self, module: str) -> float:
        return sum(s.self_s for (mod, _), s in self.stats.items() if mod == module)

    def leaf_totals(self, span_name: str, leaf: str) -> tuple[int, int]:
        """(calls, calls returning >= 2) of ``leaf`` under spans named ``span_name``."""
        calls = useful = 0
        for span in self.spans:
            if span.name == span_name and leaf in span.leaves:
                calls += span.leaves[leaf][0]
                useful += span.leaves[leaf][2]
        return calls, useful

    def leaf_by_root(self, span_name: str, leaf: str) -> list[int]:
        """Calls of ``leaf`` under spans named ``span_name``, summed per
        top-level span, in the order the top-level spans started."""
        roots: dict[int, int] = {}
        for i, span in enumerate(self.spans):
            root = i
            while self.spans[root].parent >= 0:
                root = self.spans[root].parent
            roots.setdefault(root, 0)
            if span.name == span_name and leaf in span.leaves:
                roots[root] += span.leaves[leaf][0]
        return [roots[r] for r in sorted(roots)]
