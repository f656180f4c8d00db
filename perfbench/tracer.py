"""Span tracing of georepair from outside the program.

The tracer replaces selected functions and methods with wrappers at the
place their callers look them up (a module global or a class attribute),
records one span per call while a root span is open, and restores every
original object on ``uninstall``. Spans stay in memory as flat arrays and
are written out once, at the end of the traced run.

A span has a name, a start and an end (``time.perf_counter`` seconds), the
index of its parent span (-1 for a root), the id of the solve it belongs
to and a flag. The flag marks an exception (``AllInfeasible`` from
``insertion_cost``, ``AstroError`` from ``lambert_solve``) or, where a
judge is given, an outcome such as an accepted LNS improvement.
"""

from __future__ import annotations

import time
from array import array
from contextlib import contextmanager

import numpy as np


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name = array("H")
        self.parent = array("l")
        self.solve = array("l")
        self.start = array("d")
        self.end = array("d")
        self.flag = array("b")
        self.keys: set = set()  # (name id, solve id, call key)
        self.solve_id = -1
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def _nid(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def _open(self, nid: int) -> int:
        idx = len(self.start)
        self.name.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.solve.append(self.solve_id)
        self.end.append(0.0)
        self.flag.append(0)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def _close(self, idx: int, flag: bool):
        self.end[idx] = time.perf_counter()
        if flag:
            self.flag[idx] = 1
        self._stack.pop()

    @contextmanager
    def root(self, name: str, solve_id: int):
        """Open a root span; wrapped calls record spans only inside one."""
        self.solve_id = solve_id
        idx = self._open(self._nid(name))
        try:
            yield
        finally:
            self._close(idx, False)

    # -- wrappers -------------------------------------------------------------

    def wrap(self, owner, attr: str, name: str, key=None, judge=None):
        """Replace ``owner.attr`` by a span-recording wrapper.

        ``key(args)`` gives a hashable call key for repeat counting;
        ``judge(args, result)`` sets the span's flag from a normal return.
        """
        original = vars(owner)[attr]
        nid = self._nid(name)
        stack = self._stack
        keys = self.keys
        tracer = self

        def traced(*args, **kwargs):
            if not stack:
                return original(*args, **kwargs)
            if key is not None:
                keys.add((nid, tracer.solve_id, key(args)))
            idx = tracer._open(nid)
            try:
                result = original(*args, **kwargs)
            except BaseException:
                tracer._close(idx, True)
                raise
            tracer._close(idx, judge is not None and judge(args, result))
            return result

        self._patches.append((owner, attr, original))
        setattr(owner, attr, traced)

    def uninstall(self):
        """Put back every wrapped attribute, newest first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- results --------------------------------------------------------------

    def arrays(self) -> dict[str, np.ndarray]:
        return {"name": np.frombuffer(self.name, dtype=np.uint16),
                "parent": np.frombuffer(self.parent, dtype=np.int64),
                "solve": np.frombuffer(self.solve, dtype=np.int64),
                "start": np.frombuffer(self.start, dtype=np.float64),
                "end": np.frombuffer(self.end, dtype=np.float64),
                "flag": np.frombuffer(self.flag, dtype=np.int8)}

    def save(self, path):
        np.savez_compressed(path, names=np.array(self.names), **self.arrays())

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, total self time, flagged calls and, where
        call keys were recorded, distinct keys."""
        a = self.arrays()
        self_s = self_times(a["start"], a["end"], a["parent"])
        distinct = {}
        for nid, _, _ in self.keys:
            distinct[nid] = distinct.get(nid, 0) + 1
        out = {}
        for nid, name in enumerate(self.names):
            mask = a["name"] == nid
            out[name] = {"calls": int(mask.sum()),
                         "self_s": float(self_s[mask].sum()),
                         "flagged": int(a["flag"][mask].sum())}
            if nid in distinct:
                out[name]["distinct"] = distinct[nid]
        return out


def self_times(start, end, parent) -> np.ndarray:
    """Each span's duration minus the summed durations of its children.

    Spans of one thread nest, so children never overlap each other and the
    sum is the part of the parent's interval they cover.
    """
    dur = np.asarray(end) - np.asarray(start)
    parent = np.asarray(parent)
    child = parent >= 0
    covered = np.bincount(parent[child], weights=dur[child],
                          minlength=len(dur))
    return dur - covered
