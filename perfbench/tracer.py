"""In-memory span tracer that wraps a package's functions from outside.

A target names a module function (``"agents.csa_loss"``) or a class method
(``"neural.Mlp.forward"``) of one package.  ``install`` replaces the target
with a timing wrapper wherever the package binds it: in the defining module,
in every package module that imported it by name, or on the class.
``uninstall`` puts the originals back.  A target that no longer exists is
listed in ``absent`` instead of raising.

Every call records one span: name, start, end (``time.monotonic_ns``) and the
span that was open when it began.  Spans stay in flat arrays until ``dump``
writes them out.  A counter function attached to a target turns each call's
arguments and result into named counts (rows, bytes, turns...), so ratios are
measured where the work happens.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from array import array
from collections import defaultdict

import numpy as np


class Tracer:
    """Wraps ``targets`` of ``package`` and records a span per call."""

    def __init__(self, package: str, targets, counters=None):
        self.package = package
        self.names: list[str] = list(targets)
        self.absent: list[str] = []
        self.counts: dict[str, float] = defaultdict(float)
        self._counters = dict(counters or {})
        self._patches: list[tuple[object, str, object]] = []
        self._stack: list[int] = [-1]
        self.span_name = array("q")
        self.span_parent = array("q")
        self.span_start = array("q")
        self.span_end = array("q")

    # -- installation ------------------------------------------------------

    def _resolve(self, target: str):
        """(owner, attribute, function) for ``target``, or None if absent."""
        module_name, *path = target.split(".")
        try:
            owner = importlib.import_module(f"{self.package}.{module_name}")
        except ImportError:
            return None
        for attr in path[:-1]:
            owner = getattr(owner, attr, None)
            if owner is None:
                return None
        # a method is taken from the class's own namespace so that the
        # original can be restored exactly
        space = vars(owner)
        fn = space.get(path[-1]) if path else None
        if not callable(fn):
            return None
        return owner, path[-1], fn

    def install(self) -> "Tracer":
        for nid, target in enumerate(self.names):
            found = self._resolve(target)
            if found is None:
                self.absent.append(target)
                continue
            owner, attr, fn = found
            wrapper = self._wrap(nid, fn, self._counters.get(target))
            if isinstance(owner, type):
                self._patch(owner, attr, wrapper)
                continue
            for mod_name, mod in list(sys.modules.items()):
                if mod_name != self.package and not mod_name.startswith(self.package + "."):
                    continue
                for name, value in list(vars(mod).items()):
                    if value is fn:
                        self._patch(mod, name, wrapper)
        return self

    def _patch(self, owner, attr: str, wrapper) -> None:
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def __enter__(self) -> "Tracer":
        return self.install()

    def __exit__(self, *exc) -> None:
        self.uninstall()

    def _wrap(self, nid: int, fn, counter):
        names, stack, counts = self.names, self._stack, self.counts
        name_a, parent_a = self.span_name, self.span_parent
        start_a, end_a = self.span_start, self.span_end
        clock = time.monotonic_ns
        prefix = names[nid] + "."

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(start_a)
            name_a.append(nid)
            parent_a.append(stack[-1])
            end_a.append(0)
            stack.append(idx)
            start_a.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end_a[idx] = clock()
                stack.pop()
            if counter is not None:
                parent = stack[-1]
                parent_name = names[name_a[parent]] if parent >= 0 else None
                for key, value in counter(args, kwargs, result, parent_name).items():
                    counts[prefix + key] += value
            return result

        return wrapper

    # -- analysis ----------------------------------------------------------

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "name": np.frombuffer(self.span_name, dtype=np.int64).copy(),
            "parent": np.frombuffer(self.span_parent, dtype=np.int64).copy(),
            "start": np.frombuffer(self.span_start, dtype=np.int64).copy(),
            "end": np.frombuffer(self.span_end, dtype=np.int64).copy(),
        }

    def self_ns(self) -> np.ndarray:
        """Per span: its duration minus the durations of its direct children."""
        a = self.arrays()
        dur = a["end"] - a["start"]
        has_parent = a["parent"] >= 0
        child = np.bincount(
            a["parent"][has_parent], weights=dur[has_parent], minlength=dur.size
        )
        return dur - child

    def violations(self) -> list[str]:
        """Spans left open, and children not inside their parent's interval."""
        a = self.arrays()
        out = [f"span {i} never closed" for i in np.flatnonzero(a["end"] < a["start"])]
        if self._stack != [-1]:
            out.append(f"{len(self._stack) - 1} spans still open")
        kids = np.flatnonzero(a["parent"] >= 0)
        parents = a["parent"][kids]
        outside = (a["start"][kids] < a["start"][parents]) | (a["end"][kids] > a["end"][parents])
        out += [f"span {i} outside its parent" for i in kids[outside]]
        return out

    def wall_ns(self) -> int:
        """Total duration of the root spans."""
        a = self.arrays()
        roots = a["parent"] < 0
        return int(np.sum(a["end"][roots] - a["start"][roots]))

    def summary(self) -> dict[str, dict[str, float]]:
        """Per target: calls, self_s, p50_us, p99_us (of whole-call durations),
        samples, and its counter totals.  Absent targets report zero calls."""
        a = self.arrays()
        n = len(self.names)
        self_ns = self.self_ns()
        calls = np.bincount(a["name"], minlength=n)
        self_total = np.bincount(a["name"], weights=self_ns, minlength=n)
        dur_us = (a["end"] - a["start"]) / 1e3
        order = np.argsort(a["name"], kind="stable")
        bounds = np.concatenate([[0], np.cumsum(calls)])
        out: dict[str, dict[str, float]] = {}
        for nid, target in enumerate(self.names):
            durs = dur_us[order[bounds[nid] : bounds[nid + 1]]]
            stats = {
                "calls": int(calls[nid]),
                "self_s": float(self_total[nid]) / 1e9,
                "p50_us": float(np.percentile(durs, 50)) if durs.size else 0.0,
                "p99_us": float(np.percentile(durs, 99)) if durs.size else 0.0,
                "samples": int(durs.size),
            }
            prefix = target + "."
            for key, value in self.counts.items():
                if key.startswith(prefix) and "." not in key[len(prefix) :]:
                    stats[key[len(prefix) :]] = value
            out[target] = stats
        return out

    def dump(self, path) -> None:
        """Write the span table (names plus one row per span) as ``.npz``."""
        with open(path, "wb") as fh:
            np.savez(fh, names=np.array(self.names), **self.arrays())
