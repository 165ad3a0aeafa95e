"""Span tracer that wraps the library's public functions from outside.

Each wrapped function records one span (name, parent, start, end) per
call in flat arrays of 25 bytes a span, so a run keeps millions of spans
in tens of megabytes.  Wrappers are installed in the namespace where callers
look the function up (``clfrd.simulation.fit_clfrd`` and
``clfrd.estimation.fit_clfrd`` are separate bindings of one function), so
the library itself is unchanged.  ``uninstall`` puts every original back.

Per span name the tracer derives ``calls``, ``busy`` (time inside the
outermost span of that name, so a nested call of the same name is not
counted twice) and ``self`` (span time minus the time its direct
children cover).
"""

from __future__ import annotations

import functools
import time
from array import array

import numpy as np

_INHERITED = object()  # the attribute came from a base class


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.nested = array("b")  # a span of the same name was already open
        self.start = array("d")
        self.end = array("d")
        self._stack: list[int] = []
        self._open_by_name: dict[int, int] = {}
        self._patches: list[tuple[object, str, object]] = []  # (owner, attr, saved entry)
        self.fits_converged = 0

    # -- recording ---------------------------------------------------------

    def _id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def _open(self, name: str) -> int:
        nid = self._id(name)
        idx = len(self.start)
        depth = self._open_by_name.get(nid, 0)
        self._open_by_name[nid] = depth + 1
        self.name_id.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.nested.append(1 if depth else 0)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self._stack.pop()
        self._open_by_name[self.name_id[idx]] -= 1

    def call(self, name: str, fn, *args, **kwargs):
        """Run ``fn`` inside a span; used for the workload's own root spans."""
        idx = self._open(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self._close(idx)

    def wrap(self, owner, attr: str, name, on_result=None) -> None:
        """Replace ``owner.attr`` by a recording wrapper.

        ``name`` is a span name or a function of the call's positional
        arguments that returns one (``fit_model`` is split per family).
        ``on_result`` sees each returned value.
        """
        original = getattr(owner, attr)
        name_of = name if callable(name) else (lambda *_: name)
        tracer = self

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            idx = tracer._open(name_of(*args))
            try:
                result = original(*args, **kwargs)
            finally:
                tracer._close(idx)
            if on_result is not None:
                on_result(result)
            return result

        self._patches.append((owner, attr, vars(owner).get(attr, _INHERITED)))
        setattr(owner, attr, wrapper)

    def count_fit(self, result) -> None:
        """``on_result`` hook for fit functions: counts converged fits."""
        self.fits_converged += bool(result.converged)

    def uninstall(self) -> None:
        for owner, attr, saved in reversed(self._patches):
            if saved is _INHERITED:
                delattr(owner, attr)
            else:
                setattr(owner, attr, saved)
        self._patches.clear()

    # -- results -----------------------------------------------------------

    def _arrays(self):
        nid = np.frombuffer(self.name_id, dtype=np.int32)
        par = np.frombuffer(self.parent, dtype=np.int32)
        outer = np.frombuffer(self.nested, dtype=np.int8) == 0
        dur = np.frombuffer(self.end, dtype=float) - np.frombuffer(self.start, dtype=float)
        return nid, par, outer, dur

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, busy_ms and self_ms over the whole trace."""
        if not self.names:
            return {}
        nid, par, outer, dur = self._arrays()
        k = len(self.names)
        has_parent = par >= 0
        child = np.bincount(par[has_parent], weights=dur[has_parent], minlength=dur.size)
        calls = np.bincount(nid, minlength=k)
        busy = np.bincount(nid[outer], weights=dur[outer], minlength=k)
        self_t = np.bincount(nid, weights=dur - child, minlength=k)
        return {
            name: {"calls": int(calls[i]), "busy_ms": 1e3 * float(busy[i]),
                   "self_ms": 1e3 * float(self_t[i])}
            for i, name in enumerate(self.names)
        }

    def write(self, path) -> None:
        """Write every span as numpy columns; ``names[name[i]]`` is span i's name."""
        nid, par, _, _ = self._arrays()
        np.savez_compressed(path, names=np.array(self.names), name=nid, parent=par,
                            start=np.frombuffer(self.start, dtype=float),
                            end=np.frombuffer(self.end, dtype=float))
