"""In-memory span tracer that wraps qaction functions where they are bound.

The package imports its collaborators by name (``from .trajectory import
solve_bvp``), so a wrapper placed only on the defining module would miss most
calls.  ``Tracer.install`` replaces every binding of a traced function in every
loaded ``qaction`` module and ``Tracer.uninstall`` puts the originals back.
No file under ``src/`` is changed.

A span is (name, start, end, parent).  Spans live in flat arrays while the
run is going and are written out once, at the end, by ``Tracer.save``.
"""

from __future__ import annotations

import contextlib
import functools
import sys
import threading
import time
from array import array
from collections import Counter

import numpy as np


def _solve_bvp_observer(tracer, idx, args, kwargs, result):
    guess = kwargs.get("guess", args[4] if len(args) > 4 else None)
    if guess is None:
        tracer.cold_spans.append(idx)
    tracer.counts["trajectory.newton_iters"] += result.iterations


def _fit_observer(tracer, idx, args, kwargs, result):
    tracer.counts["fit.evaluations"] += result.evaluations
    tracer.counts["fit.converged"] += int(result.converged)


# (module, function, observer of the returned value); the span is named
# "<layer>.<function>" with the layer taken from the module name.
TRACED = (
    ("model", "potential_value", None),
    ("model", "potential_derivative", None),
    ("model", "potential_second_derivative", None),
    ("specfun", "bessel_i", None),
    ("analytic", "euclidean_log_amplitude", None),
    ("analytic", "harmonic_log_kernel", None),
    ("oracle", "solve_spectrum", None),
    ("oracle", "amplitude", None),
    ("trajectory", "solve_bvp", _solve_bvp_observer),
    ("trajectory", "action_value", None),
    ("trajectory", "sensitivities", None),
    ("fit", "build_table", None),
    ("fit", "fit_at_time", _fit_observer),
    ("flow", "step", None),
    ("flow", "assemble_system", None),
    ("flow", "solve_rates", None),
    ("cli", "load_config", None),
)


class Tracer:
    """Records spans of the traced functions and the counts their results carry."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.counts: Counter = Counter()
        self.errors: Counter = Counter()
        self.cold_spans: list[int] = []
        self._lock = threading.Lock()
        self._local = threading.local()
        self._patched: list[tuple[object, str, object]] = []

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self, name: str) -> int:
        stack = self._stack()
        with self._lock:
            nid = self._ids.get(name)
            if nid is None:
                nid = self._ids[name] = len(self.names)
                self.names.append(name)
            idx = len(self.start)
            self.name.append(nid)
            self.parent.append(stack[-1] if stack else -1)
            self.end.append(0.0)
            self.start.append(time.perf_counter())
        stack.append(idx)
        return idx

    def _close(self, idx: int):
        self.end[idx] = time.perf_counter()
        self._stack().pop()

    @contextlib.contextmanager
    def span(self, name: str):
        """Record one span around a block (used around CLI invocations)."""
        idx = self._open(name)
        try:
            yield
        finally:
            self._close(idx)

    def _wrap(self, name: str, fn, observer):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self._open(name)
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                self.errors[(name, type(exc).__name__)] += 1
                raise
            finally:
                self._close(idx)
            if observer is not None:
                observer(self, idx, args, kwargs, result)
            return result

        return traced

    def install(self):
        """Replace every binding of each TRACED function in loaded qaction modules."""
        modules = [m for n, m in sorted(sys.modules.items()) if n.startswith("qaction") and m]
        for layer, fname, observer in TRACED:
            original = getattr(sys.modules[f"qaction.{layer}"], fname)
            traced = self._wrap(f"{layer}.{fname}", original, observer)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        self._patched.append((module, attr, original))
                        setattr(module, attr, traced)

    def uninstall(self):
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    def arrays(self) -> dict[str, np.ndarray]:
        start = np.frombuffer(self.start, dtype=float)
        end = np.frombuffer(self.end, dtype=float)
        parent = np.frombuffer(self.parent, dtype=np.int64)
        name = np.frombuffer(self.name, dtype=np.int32)
        duration = end - start
        child = np.zeros(len(duration))
        has_parent = parent >= 0
        np.add.at(child, parent[has_parent], duration[has_parent])
        return {"name": name, "start": start, "end": end, "parent": parent,
                "duration": duration, "self": duration - child}

    def layer_totals(self) -> dict[str, dict[str, float]]:
        """Calls, total and self seconds per span name."""
        arr = self.arrays()
        out = {}
        for nid, name in enumerate(self.names):
            sel = arr["name"] == nid
            out[name] = {
                "calls": int(np.count_nonzero(sel)),
                "total_s": float(np.sum(arr["duration"][sel])),
                "self_s": float(np.sum(arr["self"][sel])),
            }
        return out

    def calls_under(self, name: str, ancestor: str) -> int:
        """Number of ``name`` spans that have an ``ancestor`` span above them."""
        if name not in self._ids or ancestor not in self._ids:
            return 0
        ids = np.frombuffer(self.name, dtype=np.int32)
        parent = np.frombuffer(self.parent, dtype=np.int64)
        target = self._ids[ancestor]
        cur = parent[ids == self._ids[name]]
        found = np.zeros(len(cur), dtype=bool)
        while np.any(cur >= 0):
            live = cur >= 0
            found[live] |= ids[cur[live]] == target
            cur = np.where(live, parent[np.maximum(cur, 0)], -1)
        return int(np.count_nonzero(found))

    def cold_seconds(self) -> float:
        if not self.cold_spans:
            return 0.0
        idx = np.asarray(self.cold_spans)
        return float(np.sum(np.frombuffer(self.end)[idx] - np.frombuffer(self.start)[idx]))

    def save(self, path):
        arr = self.arrays()
        np.savez_compressed(
            path,
            names=np.array(self.names),
            name=arr["name"],
            start=arr["start"],
            end=arr["end"],
            parent=arr["parent"],
        )
