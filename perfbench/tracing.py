"""In-memory span tracing installed around each layer's public entry points.

The program under test carries no tracing of its own on these paths, so
the benchmark wraps the functions and methods it calls into, from the
outside, for the duration of one traced pass:

* a span records its name, start, end and the span that was open when it
  started (its parent); spans stay in memory and are aggregated (or
  dumped with ``--trace-out``) when the pass ends;
* a span's **self time** is its duration minus the time its child spans
  cover, so self times along a commit add up to the commit exactly, up
  to the glue code no wrapper covers;
* an optional ``on_return`` hook sees each call's arguments and result,
  which is how per-layer counts (splits, nodes visited, ...) are taken
  where the work happens.

Wrapping replaces the attribute in place and :meth:`Tracer.uninstall`
restores the original object, so untraced passes run the unmodified
program.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Optional


@dataclass
class Tracer:
    """The spans of one traced pass, plus the stack of open ones."""

    #: (name, start, end, parent id or -1, self time), indexed by span id
    spans: list = field(default_factory=list)
    _stack: list = field(default_factory=list)
    _undo: list = field(default_factory=list)

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------

    def traced(
        self,
        name: str,
        func: Callable,
        on_return: Optional[Callable[..., None]] = None,
    ) -> Callable:
        """*func* wrapped so every call records one span named *name*."""
        stack = self._stack
        spans = self.spans
        clock = time.perf_counter

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            parent = stack[-1][0] if stack else -1
            span_id = len(spans)
            spans.append(None)  # reserve the id in start order; filled on exit
            frame = [span_id, 0.0, name]  # [id, time covered by children, name]
            stack.append(frame)
            start = clock()
            try:
                result = func(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                self_time = duration - frame[1]
                if stack:
                    stack[-1][1] += duration
                spans[span_id] = (name, start, end, parent, self_time)
            if on_return is not None:
                on_return(args, result)
            return result

        return wrapper

    def current(self) -> Optional[str]:
        """Name of the innermost open span (``None`` outside every span).

        Inside an ``on_return`` hook this is the caller's span: the
        returning span is already closed.
        """
        return self._stack[-1][2] if self._stack else None

    # ------------------------------------------------------------------
    # Installation
    # ------------------------------------------------------------------

    def wrap_method(
        self,
        cls: type,
        attr: str,
        name: str,
        on_return: Optional[Callable[..., None]] = None,
    ) -> None:
        """Trace ``cls.attr`` (found along the MRO) until :meth:`uninstall`.

        The wrapper is installed on the class that defines the attribute,
        so an override in a subclass and the base method it extends are
        separate entry points.  Class methods keep their binding.
        """
        owner = next(c for c in cls.__mro__ if attr in c.__dict__)
        raw = owner.__dict__[attr]
        if isinstance(raw, classmethod):
            wrapped: Any = classmethod(self.traced(name, raw.__func__, on_return))
        else:
            wrapped = self.traced(name, raw, on_return)
        setattr(owner, attr, wrapped)
        self._undo.append((owner, attr, raw))

    def wrap_function(
        self,
        func: Callable,
        name: str,
        on_return: Optional[Callable[..., None]] = None,
    ) -> None:
        """Trace a module-level function under every ``repro`` name bound to it.

        ``from x import f`` copies the binding, so the wrapper replaces
        *func* in each loaded ``repro`` module that holds it.
        """
        wrapped = self.traced(name, func, on_return)
        for module_name, module in list(sys.modules.items()):
            if module is None or not module_name.startswith("repro"):
                continue
            for attr, value in list(vars(module).items()):
                if value is func:
                    setattr(module, attr, wrapped)
                    self._undo.append((module, attr, func))

    def uninstall(self) -> None:
        """Restore every wrapped attribute, newest first."""
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    # ------------------------------------------------------------------
    # Reading
    # ------------------------------------------------------------------

    def total(self, name: str) -> float:
        """Summed wall time of every span named *name*."""
        return sum(self.durations(name))

    def durations(self, name: str) -> list[float]:
        """Wall time of every span named *name*, in start order."""
        return [s[2] - s[1] for s in self.spans if s[0] == name]

    def self_within(self, root: str) -> dict[str, float]:
        """Self time per span name, summed over the subtrees under *root* spans.

        The *root* spans' own self time is included under their name, so
        the values add up to the *root* spans' total duration.
        """
        inside: dict[int, bool] = {}
        totals: dict[str, float] = {}
        for span_id, span in enumerate(self.spans):
            name, _start, _end, parent, self_time = span
            flag = name == root or inside.get(parent, False)
            inside[span_id] = flag
            if flag:
                totals[name] = totals.get(name, 0.0) + self_time
        return totals

    def dump(self, path: str) -> None:
        """Write every span as one JSON line: name, start, end, parent, self."""
        with open(path, "w", encoding="utf-8") as handle:
            for span_id, span in enumerate(self.spans):
                name, start, end, parent, self_time = span
                handle.write(
                    json.dumps(
                        {
                            "id": span_id,
                            "name": name,
                            "start": start,
                            "end": end,
                            "parent": parent,
                            "self": self_time,
                        }
                    )
                    + "\n"
                )
